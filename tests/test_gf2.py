"""Vector/matrix arithmetic, ball enumeration and PRNG contracts."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp

from listdec import (
    BitMatrix,
    BitVector,
    InvalidParameterError,
    ResourceLimitError,
    Rng,
    enumerate_ball,
    hamming_distance,
    random_vector,
    rank_of_span,
)
from listdec.counting import hamming_volume
from listdec import gf2
from listdec.gf2 import ball_masks, popcount_array
from listdec.limits import ENUM_MAX_WORDS
from naive_oracle import ball_masks_itertools


def bv(s: str) -> BitVector:
    return BitVector.from_string(s)


class TestHammingDistance:
    def test_identity(self):
        assert hamming_distance(bv("0000"), bv("0000")) == 0

    def test_weight_of_difference(self):
        assert hamming_distance(bv("1100"), bv("0000")) == 2

    def test_direct_bit_count(self):
        assert hamming_distance(bv("1010"), bv("0110")) == 2

    def test_length_mismatch(self):
        with pytest.raises(InvalidParameterError):
            hamming_distance(bv("101"), bv("1010"))

    def test_symmetry_random(self):
        rng = Rng(11, 0)
        for _ in range(200):
            u = random_vector(9, rng)
            v = random_vector(9, rng)
            assert hamming_distance(u, v) == hamming_distance(v, u)

    @pytest.mark.parametrize("n", range(2, 7))
    def test_triangle_inequality_exhaustive(self, n):
        all_vecs = np.arange(1 << n, dtype=np.int64)
        dist = popcount_array(all_vecs[:, None] ^ all_vecs[None, :])
        for u in range(1 << n):
            via = dist[u, :][:, None] + dist
            assert (via.min(axis=0) >= dist[u, :]).all()


class TestXorGroupLaws:
    def test_self_inverse_and_identity(self):
        rng = Rng(12, 0)
        zero = BitVector.zero(10)
        for _ in range(300):
            v = random_vector(10, rng)
            assert (v ^ v) == zero
            assert (v ^ zero) == v


class TestRankOfSpan:
    def test_empty(self):
        assert rank_of_span([]) == 0

    def test_dependent_triple(self):
        assert rank_of_span([bv("100"), bv("010"), bv("110")]) == 2

    def test_standard_basis(self):
        assert rank_of_span([bv("100"), bv("010"), bv("001")]) == 3

    def test_rank_bounded(self):
        rng = Rng(13, 0)
        for _ in range(100):
            vecs = [random_vector(6, rng) for _ in range(9)]
            r = rank_of_span(vecs)
            assert 0 <= r <= 6


class TestPopcount:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(0, (1 << 62) - 1), min_size=1, max_size=50))
    def test_matches_int_bit_count(self, words):
        counts = popcount_array(np.array(words, dtype=np.int64))
        assert counts.tolist() == [w.bit_count() for w in words]

    def test_high_bits_counted(self):
        assert popcount_array(np.array([(1 << 62) - 1, 1 << 40], dtype=np.int64)).tolist() == [62, 1]


class TestBallEnumeration:
    def test_radius_zero(self):
        assert [v.to_string() for v in enumerate_ball(bv("0000"), 0)] == ["0000"]

    def test_full_space(self):
        ball = enumerate_ball(bv("0000"), 4)
        assert len(ball) == 16
        assert len({v.bits for v in ball}) == 16

    def test_radius_one_size(self):
        ball = enumerate_ball(bv("000"), 1)
        assert {v.to_string() for v in ball} == {"000", "100", "010", "001"}
        assert len(ball) == hamming_volume(3, 1)

    def test_radius_out_of_range(self):
        with pytest.raises(InvalidParameterError):
            enumerate_ball(bv("000"), 4)

    def test_weight_major_numeric_minor_order(self):
        masks = list(ball_masks(5, 3))
        weights = [bin(m).count("1") for m in masks]
        assert weights == sorted(weights)
        for w in set(weights):
            group = [m for m in masks if bin(m).count("1") == w]
            assert group == sorted(group)

    @pytest.mark.parametrize("n", range(1, 11))
    def test_size_matches_volume(self, n):
        for r in range(n + 1):
            assert len(ball_masks(n, r)) == hamming_volume(n, r)

    @pytest.mark.parametrize("n,radius", [(20, 2), (26, 3), (30, 4)])
    def test_matches_itertools_oracle(self, n, radius):
        ball = ball_masks(n, radius)
        assert ball.dtype == np.int64
        assert np.array_equal(ball, ball_masks_itertools(n, radius))

    @settings(max_examples=80, deadline=None)
    @given(st.integers(1, 16), st.data())
    def test_matches_itertools_oracle_small(self, n, data):
        radius = data.draw(st.integers(0, n))
        assert np.array_equal(ball_masks.__wrapped__(n, radius), ball_masks_itertools(n, radius))

    def test_cached_read_only(self):
        first = ball_masks(9, 2)
        assert not first.flags.writeable
        with pytest.raises(ValueError):
            first[0] = 1
        assert ball_masks(9, 2) is first

    def test_translation(self):
        rng = Rng(14, 0)
        for _ in range(20):
            x = random_vector(6, rng)
            r = rng.integer(0, 7)
            ball = {v.bits for v in enumerate_ball(x, r)}
            origin = {v.bits for v in enumerate_ball(BitVector.zero(6), r)}
            assert ball == {x.bits ^ e for e in origin}

    def test_enumeration_cap(self, monkeypatch):
        assert len(enumerate_ball(BitVector.zero(30), 3)) == hamming_volume(30, 3)

        def unreachable(*args):
            raise AssertionError("ball built before the cap")

        monkeypatch.setattr(gf2, "ball_masks", unreachable)
        assert hamming_volume(30, 6) <= ENUM_MAX_WORDS < hamming_volume(30, 7)
        with pytest.raises(ResourceLimitError):
            enumerate_ball(BitVector.zero(30), 7)


class TestBitMatrix:
    def test_flat_round_trip(self):
        rng = Rng(15, 0)
        for _ in range(50):
            value = rng.bits(12)
            mat = BitMatrix.from_flat(4, 3, value)
            assert mat.to_flat() == value
            assert BitMatrix.from_string(mat.to_string()) == mat

    def test_xor_and_rank(self):
        a = BitMatrix.from_string("11\n11")
        z = BitMatrix.zero(2, 2)
        assert (a ^ a) == z
        assert a.rank() == 1

    def test_shape_validation(self):
        with pytest.raises(InvalidParameterError):
            BitMatrix(2, 3, (0, 0))  # n > m
        with pytest.raises(InvalidParameterError):
            BitMatrix(9, 7, (0,) * 9)  # mn > 62

    def test_from_string_rejects_ragged_rows(self):
        with pytest.raises(InvalidParameterError):
            BitMatrix.from_string("111\n01\n101")

    def test_from_string_rejects_empty_input(self):
        for text in ("", "\n\n"):
            with pytest.raises(InvalidParameterError):
                BitMatrix.from_string(text)


class TestRng:
    def test_replay_identical(self):
        a = Rng(99, 4)
        b = Rng(99, 4)
        assert [a.bits(20) for _ in range(10)] == [b.bits(20) for _ in range(10)]

    def test_streams_differ(self):
        assert Rng(99, 0).bits(30) != Rng(99, 1).bits(30) or Rng(99, 0).bits(30) != Rng(99, 1).bits(30)

    def test_substream_replay(self):
        assert Rng(7, 2).substream(5).bits(24) == Rng(7, 2).substream(5).bits(24)

    def test_single_bit_frequency(self):
        rng = Rng(2024, 0)
        draws = rng.bit_array(1, 10_000)
        frac = draws.mean()
        assert 0.47 <= frac <= 0.53

    def test_chi_square_uniformity(self):
        # 2^16 byte draws across 256 cells, 0.1% significance.
        rng = Rng(2024, 1)
        draws = rng.bit_array(8, 1 << 16)
        observed = np.bincount(draws, minlength=256)
        expected = (1 << 16) / 256
        stat = float(((observed - expected) ** 2 / expected).sum())
        critical = _chi_square_critical(255, 0.999)
        assert stat < critical

    def test_random_vector_range_check(self):
        with pytest.raises(InvalidParameterError):
            random_vector(63, Rng(1, 0))


def _chi_square_critical(df: int, quantile: float) -> float:
    def cdf(x):
        return mp.gammainc(df / 2, 0, x / 2, regularized=True)

    lo, hi = float(df) / 2, float(df) * 4
    for _ in range(200):
        mid = (lo + hi) / 2
        if cdf(mid) < quantile:
            lo = mid
        else:
            hi = mid
    return hi
