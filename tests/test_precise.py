"""Certified comparison helpers and edge behavior of the numeric layer."""

from __future__ import annotations

from fractions import Fraction
from unittest import mock

import numpy as np
import pytest

from listdec import (
    LinearCode,
    PrecisionError,
    ResourceLimitError,
    Rng,
    list_profile,
    potential,
    random_linear_code,
)
from listdec.gf2 import BitVector, ball_masks
from listdec.listsize import scatter_table
from listdec import limits, precise
from listdec.precise import (
    certified_le,
    certified_less,
    iv_fraction,
    less,
    settled,
    vanishes_at_power_of_two,
)


class TestCertifiedComparisons:
    def test_resolves_tight_rational_gap(self):
        # 1/3 vs 1/3 + 2^-300 differ far below the starting precision, so the
        # comparison must escalate before answering.
        small = Fraction(1, 1 << 300)
        lhs = Fraction(1, 3)
        rhs = Fraction(1, 3) + small
        assert certified_less(lambda ctx: iv_fraction(ctx, lhs), lambda ctx: iv_fraction(ctx, rhs))
        assert not certified_less(
            lambda ctx: iv_fraction(ctx, rhs), lambda ctx: iv_fraction(ctx, lhs)
        )

    def test_exact_equality_le(self):
        half = Fraction(1, 2)
        assert certified_le(lambda ctx: iv_fraction(ctx, half), lambda ctx: iv_fraction(ctx, half))

    def test_point_interval_equality_is_decidable(self):
        half = Fraction(1, 2)
        assert not certified_less(
            lambda ctx: iv_fraction(ctx, half), lambda ctx: iv_fraction(ctx, half)
        )

    def test_true_equality_through_transcendentals_unresolvable(self):
        # log(8)/log(2) encloses 3 at every precision, so strict order between
        # them can never be certified.
        with pytest.raises(PrecisionError):
            certified_less(
                lambda ctx: ctx.log(8) / ctx.log(2), lambda ctx: ctx.mpf(3)
            )

    def test_transcendental_comparison(self):
        # e^pi vs pi^e, a classically close pair.
        assert certified_less(
            lambda ctx: ctx.pi ** ctx.e, lambda ctx: ctx.exp(ctx.pi)
        )


class TestSettled:
    INF, NAN = float("inf"), float("nan")
    CASES = [
        (1.0, 2.0, True),
        (2.0, 2.0, False),
        (2.0 + 1e-10, 2.0, False),  # inside the margin of 2e-9
        (2.0 + 1e-8, 2.0, True),
        (2.0 - 1e-8, 2.0, True),
        (0.0, 0.0, False),
        (1.0, 0.0, True),
        (INF, 2.0, False),
        (2.0, INF, False),
        (-INF, 2.0, False),
        (INF, INF, False),
        (NAN, 2.0, False),
        (2.0, NAN, False),
        (NAN, NAN, False),
    ]

    @pytest.mark.parametrize("lhs,rhs,expected", CASES)
    def test_scalar(self, lhs, rhs, expected):
        assert settled(lhs, rhs) is expected

    def test_array_answers_as_the_scalars(self):
        lhs = np.array([lhs for lhs, _, _ in self.CASES])
        rhs = np.array([rhs for _, rhs, _ in self.CASES])
        expected = [e for _, _, e in self.CASES]
        assert settled(lhs, rhs).tolist() == expected
        # One array side against a scalar, either way round.
        assert settled(lhs, 2.0).tolist() == [settled(x, 2.0) for x in lhs.tolist()]
        assert settled(2.0, rhs).tolist() == [settled(2.0, x) for x in rhs.tolist()]

    def test_margin_read_at_call_time(self, monkeypatch):
        assert settled(2.0 + 1e-10, 2.0) is False
        monkeypatch.setattr(precise, "RECHECK_MARGIN", 1e-12)
        assert settled(2.0 + 1e-10, 2.0) is True
        monkeypatch.setattr(precise, "RECHECK_MARGIN", float("inf"))
        assert settled(1.0, 2.0) is False
        assert settled(1.0, 0.0) is False
        assert not settled(np.array([1.0, 1e300]), np.array([2.0, 0.0])).any()


def interval_sides(lhs, rhs):
    """Interval builders of two exact rationals, counting their evaluations."""
    calls = []

    def side(value):
        def build(ctx):
            calls.append(value)
            return iv_fraction(ctx, value)

        return build

    return side(Fraction(lhs)), side(Fraction(rhs)), calls


class TestPreciseLess:
    def test_settled_pair_decides_in_floats(self, monkeypatch):
        def unreachable(*args):
            raise AssertionError("a settled pair went to intervals")

        monkeypatch.setattr(precise, "certified_less", unreachable)
        # The interval sides disagree with the floats, so only floats answer.
        lhs_iv, rhs_iv, _ = interval_sides(3, 1)
        assert less(1.0, 2.0, lhs_iv, rhs_iv) is True
        assert less(2.0, 1.0, rhs_iv, lhs_iv) is False

    INF, NAN = float("inf"), float("nan")

    @pytest.mark.parametrize("lhs,rhs", [(NAN, 2.0), (1.0, NAN), (INF, 2.0), (1.0, INF), (-INF, 2.0)])
    def test_nan_or_inf_goes_to_intervals(self, lhs, rhs):
        lhs_iv, rhs_iv, calls = interval_sides(1, 2)
        assert less(lhs, rhs, lhs_iv, rhs_iv) is True
        assert calls
        lhs_iv, rhs_iv, calls = interval_sides(2, 1)
        assert less(lhs, rhs, lhs_iv, rhs_iv) is False
        assert calls

    def test_margin_read_at_call_time(self, monkeypatch):
        # The floats say 2 + 1e-10 is not below 2, the intervals of the
        # exact sides that it is.
        lhs_iv, rhs_iv, calls = interval_sides(1, 2)
        assert less(2.0 + 1e-10, 2.0, lhs_iv, rhs_iv) is True and calls
        monkeypatch.setattr(precise, "RECHECK_MARGIN", 1e-12)
        lhs_iv, rhs_iv, calls = interval_sides(1, 2)
        assert less(2.0 + 1e-10, 2.0, lhs_iv, rhs_iv) is False and not calls
        monkeypatch.setattr(precise, "RECHECK_MARGIN", float("inf"))
        lhs_iv, rhs_iv, calls = interval_sides(3, 1)
        assert less(1.0, 2.0, lhs_iv, rhs_iv) is False and calls


class TestVanishesAtPowerOfTwo:
    @pytest.mark.parametrize(
        "coeffs,exponent,expected",
        [
            ({0: -4, 2: 1}, Fraction(1), True),  # z = 2: z^2 - 4
            ({0: -2, 2: 1}, Fraction(1, 2), True),  # z = sqrt 2: z^2 - 2
            ({0: -2, 1: 1}, Fraction(1, 2), False),  # sqrt 2 - 2
            ({0: -4, 3: 1}, Fraction(2, 3), True),  # z^3 = 4
            ({0: -16, 6: 1}, Fraction(2, 3), True),  # z^6 = 16
            ({0: -2, 3: 1}, Fraction(2, 3), False),
            ({1: 3, 2: -3}, Fraction(2, 3), False),
            ({0: 0}, Fraction(0.2) * 20 / (1 + Fraction(0.2)), True),
            ({0: 1, 1: -1}, Fraction(0.2) * 20 / (1 + Fraction(0.2)), False),
        ],
    )
    def test_exact_roots(self, coeffs, exponent, expected):
        assert vanishes_at_power_of_two(coeffs, exponent) is expected

    def test_exponent_must_be_positive(self):
        with pytest.raises(ValueError):
            vanishes_at_power_of_two({0: 1}, Fraction(0))


class TestScatterChunking:
    def test_chunked_matches_unchunked(self):
        rng = Rng(71, 0)
        words = rng.bit_array(10, 37)
        ball = ball_masks(10, 2)
        full = scatter_table(words, ball, 10)
        with mock.patch.object(limits, "CHUNK_PAIRS", 8):
            tiny_chunks = scatter_table(words, ball, 10)
        assert (full == tiny_chunks).all()

    def test_table_cap(self):
        with pytest.raises(ResourceLimitError):
            scatter_table(np.zeros(1, dtype=np.int64), np.zeros(1, dtype=np.int64), 27)

    def test_profile_cap_via_code(self):
        # Vol(62, 6) = 68,543,140 words, over the 2^26-word ball cap.
        code = LinearCode(62, (BitVector(62, 1),))
        with pytest.raises(ResourceLimitError):
            list_profile(code, 6)


class TestPotentialExtremes:
    def test_huge_exponent_does_not_overflow(self):
        # Full space at large epsilon: the exact value exceeds float range but
        # the state still holds it; float conversion saturates to inf.
        code = random_linear_code(10, 10, Rng(72, 0))
        prof = list_profile(code, 10)
        state = potential(prof, 5.0)
        assert state.value_float == float("inf")
        # S >= lo 2^shift >= 2^1024.
        assert state.lo.bit_length() - 1 + state.shift >= 1024
