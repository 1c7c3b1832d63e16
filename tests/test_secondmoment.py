"""Expected cluster counts, pair-event probabilities and the separation run."""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest

from listdec import (
    InvalidParameterError,
    ResourceLimitError,
    Rng,
    ball_fraction,
    check_rank_rate_bound,
    expected_cluster_count,
    hamming_volume,
    log2_fraction,
    lower_bound_params,
    pair_event_probability,
    random_linear_code,
    separation_experiment,
    uniform_random_code,
)
from listdec import secondmoment
from listdec.gf2 import popcount_array
from listdec.listsize import list_size_table


class TestBallFraction:
    def test_point_ball(self):
        assert ball_fraction(7, 0) == Fraction(1, 128)

    def test_full_space(self):
        assert ball_fraction(9, 9) == 1

    def test_small_example(self):
        assert ball_fraction(4, 1) == Fraction(5, 16)


def falling(m: int, count: int) -> int:
    out = 1
    for i in range(count):
        out *= m - i
    return out


def brute_expected_w(n: int, num_messages: int, list_size: int, radius: int) -> Fraction:
    total = 0
    mask = (1 << n) - 1
    tables = np.arange(1 << (n * num_messages), dtype=np.int64)
    words = [(tables >> (j * n)) & mask for j in range(num_messages)]
    for a in range(1 << n):
        in_ball = [popcount_array(w ^ a) <= radius for w in words]
        counts = np.zeros(len(tables), dtype=np.int64)
        for flag in in_ball:
            counts += flag
        w_here = np.ones(len(tables), dtype=np.int64)
        for i in range(list_size):
            w_here *= counts - i
        w_here[counts < list_size] = 0
        total += int(w_here.sum())
    return Fraction(total, 1 << (n * num_messages))


class TestExpectedClusters:
    def test_reference_point(self):
        report = expected_cluster_count(4, 2, 2, 1)
        assert report.value == Fraction(25, 8)

    def test_single_membership_linearity(self):
        for n, m, r in [(5, 3, 1), (6, 4, 2)]:
            report = expected_cluster_count(n, m, 1, r)
            assert report.value == m * hamming_volume(n, r)

    def test_exhaustive_enumeration_agrees(self):
        for n in range(1, 5):
            for m in range(1, 4):
                if n * m > 12:
                    continue
                for radius in range(n + 1):
                    for list_size in range(1, m + 1):
                        expected = expected_cluster_count(n, m, list_size, radius).value
                        assert expected == brute_expected_w(n, m, list_size, radius)

    def test_monte_carlo_agreement(self):
        rng = Rng(2024, 77)
        samples = []
        for _ in range(10_000):
            words = rng.bit_array(4, 2)
            w = 0
            for a in range(16):
                c = int((popcount_array(words ^ a) <= 1).sum())
                w += c * (c - 1)
            samples.append(w)
        arr = np.array(samples, dtype=np.float64)
        sigma = arr.std(ddof=1) / math.sqrt(len(arr))
        assert abs(arr.mean() - 25 / 8) <= 3 * sigma

    def test_floor_check(self):
        report = expected_cluster_count(10, 64, 2, 2)
        assert report.floor_applies
        assert report.floor_holds

    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            expected_cluster_count(4, 2, 3, 1)


class TestSecondMomentFact:
    def test_zero_probability_bounded_by_relative_variance(self):
        # Full W distribution over every 2^(nM) table at (4, 2, 2, 1).
        values = []
        mask = 15
        for t in range(1 << 8):
            words = np.array([t & mask, (t >> 4) & mask], dtype=np.int64)
            w = 0
            for a in range(16):
                c = int((popcount_array(words ^ a) <= 1).sum())
                w += c * (c - 1)
            values.append(w)
        arr = np.array(values, dtype=np.float64)
        pr_zero = float((arr == 0).mean())
        mean = arr.mean()
        var = arr.var()
        assert pr_zero <= var / mean**2


class TestPairEvent:
    def test_sure_event_at_full_radius(self):
        report = pair_event_probability(5, 5, 2, 2)
        assert report.probability == 1
        assert report.bound_crude == 1
        assert report.bound_crude_holds

    def test_single_shared_single_list_is_mu_squared(self):
        # With one witness near two independent centers the probability
        # factors exactly: the distance-conditioned sum must collapse to mu^2.
        for n, r in [(5, 1), (8, 2), (11, 3), (12, 0)]:
            report = pair_event_probability(n, r, 1, 1)
            assert report.probability == ball_fraction(n, r) ** 2

    def test_crude_bound_sweep(self):
        for n in range(2, 9):
            for radius in range(n // 2 + 1):
                for list_size in (1, 2, 3):
                    for shared in range(1, list_size + 1):
                        report = pair_event_probability(n, radius, shared, list_size)
                        assert report.bound_crude_holds

    def test_monte_carlo_oracle(self):
        n, radius, shared, list_size = 6, 1, 1, 2
        exact = pair_event_probability(n, radius, shared, list_size).probability
        rng = Rng(2024, 88)
        hits = 0
        trials = 100_000
        for _ in range(trials):
            a = rng.bits(n)
            b = rng.bits(n)
            x1 = rng.bits(n)
            x2 = rng.bits(n)
            y2 = rng.bits(n)
            ok = bin(a ^ x1).count("1") <= radius and bin(b ^ x1).count("1") <= radius
            ok = ok and bin(a ^ x2).count("1") <= radius
            ok = ok and bin(b ^ y2).count("1") <= radius
            hits += ok
        p_hat = hits / trials
        sigma = math.sqrt(float(exact) * (1 - float(exact)) / trials)
        assert abs(p_hat - float(exact)) <= 3 * sigma

    def test_refined_bound_reported(self):
        report = pair_event_probability(12, 3, 2, 3)
        assert report.bound_refined_log2 is not None
        assert report.bound_refined_holds is not None

    def test_refined_log2_with_mu_below_float_range(self):
        # mu = 1101/2^1100 rounds to 0 as a float; its log2 is still finite.
        report = pair_event_probability(1100, 1, 1, 1)
        assert report.bound_crude_holds and report.bound_refined_holds
        expected = (
            -1100
            + (math.log2(1101) - 1100)
            + 0.5 * math.log2(8 * 1099 / 1100)
            + 1100 * math.log2(1 + math.sqrt(4 * 1099 / 1100**2))
        )
        assert report.bound_refined_log2 == pytest.approx(expected, rel=1e-12)

    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            pair_event_probability(6, 1, 0, 2)
        with pytest.raises(InvalidParameterError):
            pair_event_probability(6, 1, 3, 2)


class TestVarianceBound:
    def test_log2_fraction_large_values(self):
        value = Fraction(1 << 400, 3)
        assert log2_fraction(value) == pytest.approx(400 - math.log2(3), abs=1e-9)


class TestLowerBoundParams:
    def test_reference_point(self):
        params = lower_bound_params(0.25, 0.05)
        assert params.crossover_ell == pytest.approx(1.8872187, abs=1e-6)

    def test_margin_vanishes_with_epsilon(self):
        big = lower_bound_params(0.25, 0.2).margin
        small = lower_bound_params(0.25, 0.01).margin
        assert small < big
        assert lower_bound_params(0.25, 1e-4).margin < 1e-50

    def test_floor_consistency(self):
        for p, eps in [(0.1, 0.05), (0.25, 0.03), (0.4, 0.1)]:
            params = lower_bound_params(p, eps)
            L = params.list_size
            assert L * eps <= 1 - params.margin < (L + 1) * eps

    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            lower_bound_params(0.5, 0.1)
        with pytest.raises(InvalidParameterError):
            lower_bound_params(0.25, 0.0)
        with pytest.raises(InvalidParameterError):
            lower_bound_params(0.25, math.inf)


class TestSeparationExperiment:
    def test_zero_trials(self):
        result = separation_experiment(14, 1, 0.25, 0, Rng(90, 0))
        assert result.rows == ()
        assert result.summary["trials"] == 0

    def test_zero_trials_skip_the_table_caps(self):
        # At n = 30 the uniform table would exceed its caps, but no trial needs it.
        result = separation_experiment(30, 3, 0.05, 0, Rng(90, 0))
        assert result.rows == ()

    def test_table_caps_before_any_code_is_drawn(self, monkeypatch):
        # 2^30 centers exceed the scatter table's cap, so the run must stop
        # before trial 0 draws its linear code.
        drawn = []
        for name in ("random_linear_code", "uniform_random_code"):
            draw = getattr(secondmoment, name)
            monkeypatch.setattr(
                secondmoment, name, lambda *args, draw=draw: drawn.append(args) or draw(*args)
            )
        with pytest.raises(ResourceLimitError):
            separation_experiment(30, 3, 0.05, 2, Rng(90, 1))
        assert drawn == []

    def test_seed_replay(self):
        a = separation_experiment(14, 1, 0.25, 4, Rng(91, 0))
        b = separation_experiment(14, 1, 0.25, 4, Rng(91, 0))
        assert a.rows == b.rows

    def test_rows_and_summary(self):
        result = separation_experiment(14, 1, 0.25, 6, Rng(92, 0))
        assert len(result.rows) == 12
        assert {row.family for row in result.rows} == {"linear", "uniform"}
        assert result.summary["linear"]["median"] is not None

    def test_witness_recertifies(self):
        result = separation_experiment(12, 1, 0.3, 5, Rng(93, 0))
        rate = result.summary["rate"]
        k = result.summary["k"]
        num_messages = result.summary["num_messages"]
        rng = Rng(93, 0)
        for row in result.rows:
            if row.family == "linear":
                code = random_linear_code(12, k, rng.substream(row.trial, 0))
            else:
                code = uniform_random_code(12, num_messages, rng.substream(row.trial, 1))
            table = list_size_table(code, 1)
            assert int(table[int(row.witness, 2)]) == row.max_list

    def test_degenerate_rate_rejected(self):
        with pytest.raises(InvalidParameterError):
            separation_experiment(8, 3, 0.4, 2, Rng(94, 0))

    @pytest.mark.parametrize("epsilon,trials", [(math.inf, 2), (0.3, -1)])
    def test_infinite_epsilon_or_negative_trials_rejected(self, epsilon, trials):
        with pytest.raises(InvalidParameterError):
            separation_experiment(12, 1, epsilon, trials, Rng(94, 0))

    @pytest.mark.parametrize("n,radius,epsilon,trials", [(14, 1, 0.25, 10), (22, 2, 0.18, 3)])
    def test_linear_rows_match_scatter(self, n, radius, epsilon, trials):
        # Linear rows come from the coset engine; the oracle is the least
        # center of maximum list size in the 2^n scatter table.
        result = separation_experiment(n, radius, epsilon, trials, Rng(95, 0))
        k = result.summary["k"]
        for row in result.rows:
            if row.family != "linear":
                continue
            code = random_linear_code(n, k, Rng(95, 0).substream(row.trial, 0))
            table = list_size_table(code, radius)
            top = int(table.max())
            assert (row.max_list, row.witness) == (top, format(int(np.argmax(table == top)), f"0{n}b"))


class TestRankRateBound:
    def test_reference_point(self):
        report = check_rank_rate_bound(2, 4, 3, 1, 0.1)
        assert report.holds
        assert report.mu == Fraction(106, 4096)

    def test_zero_radius(self):
        assert check_rank_rate_bound(2, 4, 3, 0, 0.2).holds

    def test_epsilon_must_be_positive(self):
        for epsilon in (0.0, math.inf):
            with pytest.raises(InvalidParameterError):
                check_rank_rate_bound(2, 4, 3, 1, epsilon)

    def test_holds_across_shapes(self):
        for m, n in [(2, 2), (3, 3), (4, 4), (5, 3)]:
            for r in range(n + 1):
                assert check_rank_rate_bound(2, m, n, r, 0.05).holds
