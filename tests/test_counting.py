"""Volume, entropy and rank-ball calculators against brute-force oracles."""

from __future__ import annotations

import math
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from listdec import (
    InvalidParameterError,
    binary_entropy,
    binomial,
    check_rank_ball_bounds,
    check_volume_bounds,
    entropy_power,
    gaussian_binomial,
    hamming_volume,
    intersection_volume,
    overlap_decay,
    rank_ball_size,
)
from listdec.counting import float_or_inf, log2_value
from listdec.gf2 import popcount_array, rank_of_ints
from naive_oracle import intersection_volume_double_sum


def pascal_row(n: int) -> list[int]:
    row = [1]
    for _ in range(n):
        row = [a + b for a, b in zip([0] + row, row + [0])]
    return row


class TestBinomial:
    def test_edge_cases(self):
        assert binomial(7, 0) == 1
        assert binomial(5, 2) == 10

    def test_against_pascal_row_64(self):
        row = pascal_row(64)
        for k in range(65):
            assert binomial(64, k) == row[k]

    def test_invalid(self):
        with pytest.raises(InvalidParameterError):
            binomial(4, 5)
        with pytest.raises(InvalidParameterError):
            binomial(4, -1)


class TestHammingVolume:
    def test_values(self):
        assert hamming_volume(9, 0) == 1
        assert hamming_volume(4, 1) == 5
        assert hamming_volume(14, 2) == 1 + 14 + 91

    def test_monotone_and_full(self):
        for n in range(1, 12):
            vols = [hamming_volume(n, r) for r in range(n + 1)]
            assert vols == sorted(vols)
            assert vols[-1] == 1 << n


class TestBinaryEntropy:
    def test_half_is_one(self):
        assert binary_entropy(0.5) == 1.0

    def test_continuity_edges(self):
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(1.0) == 0.0

    def test_value_at_tenth(self):
        assert binary_entropy(0.1) == pytest.approx(0.4689955935892812, abs=1e-9)

    def test_symmetry(self):
        for p in (0.05, 0.2, 0.35):
            assert binary_entropy(p) == pytest.approx(binary_entropy(1 - p), abs=1e-12)

    def test_out_of_range(self):
        with pytest.raises(InvalidParameterError):
            binary_entropy(-0.01)


class TestEntropyPower:
    def test_rational_identity(self):
        # 2^(H(r/n) n) = n^n / (r^r (n-r)^(n-r)) must match the float formula.
        for n, r in [(4, 1), (10, 3), (15, 7), (26, 13)]:
            exact = entropy_power(n, r)
            approx = 2.0 ** (binary_entropy(r / n) * n)
            assert float(exact) == pytest.approx(approx, rel=1e-12)


def brute_intersection(n: int, r: int, w: int) -> int:
    xs = np.arange(1 << n, dtype=np.int64)
    return int(((popcount_array(xs) <= r) & (popcount_array(xs ^ w) <= r)).sum())


class TestIntersectionVolume:
    def test_disjoint_balls(self):
        assert intersection_volume(8, 1, 3) == 0
        assert intersection_volume(10, 2, 5) == 0

    def test_small_example(self):
        assert intersection_volume(4, 1, 2) == 2

    def test_zero_distance(self):
        for n, r in [(5, 2), (9, 4)]:
            assert intersection_volume(n, r, 0) == hamming_volume(n, r)

    @pytest.mark.parametrize("n", range(2, 9))
    def test_matches_brute_force_all_centers(self, n):
        # Every weight-d center gives the same count, equal to the double sum.
        for r in range(n + 1):
            for d in range(n + 1):
                expected = intersection_volume(n, r, d)
                seen = {
                    brute_intersection(n, r, w)
                    for w in range(1 << n)
                    if bin(w).count("1") == d
                }
                assert seen == {expected}

    @pytest.mark.parametrize("n", [9, 10])
    def test_matches_brute_force_canonical_center(self, n):
        for r in range(n + 1):
            for d in range(n + 1):
                w = (1 << d) - 1
                assert intersection_volume(n, r, d) == brute_intersection(n, r, w)

    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(0, 60).flatmap(
            lambda n: st.tuples(st.just(n), st.integers(0, n), st.integers(0, n))
        )
    )
    def test_matches_double_sum(self, point):
        n, r, d = point
        assert intersection_volume(n, r, d) == intersection_volume_double_sum(n, r, d)

    def test_n_1030_intersection_loop_finishes(self):
        # The CLI's `volumes --n 1030 --radius 515` takes every d = 1..n.
        start = time.perf_counter()
        report = check_volume_bounds(1030, 515)
        assert len(report.intersection) == 1030
        assert report.intersection[0].exact == intersection_volume_double_sum(1030, 515, 1)
        assert time.perf_counter() - start < 30

    @pytest.mark.parametrize("n", range(1, 15))
    def test_double_counting_identity(self, n):
        # Summing intersections over all centers counts pairs (x, w) with
        # |x| <= r and |x + w| <= r, which is Vol(n, r)^2.
        for r in range(n + 1):
            total = sum(binomial(n, d) * intersection_volume(n, r, d) for d in range(n + 1))
            assert total == hamming_volume(n, r) ** 2


class TestOverlapDecay:
    def test_quarter(self):
        assert overlap_decay(0.25) == pytest.approx(0.2075187496, abs=1e-9)

    def test_tenth(self):
        assert overlap_decay(0.1) == pytest.approx(0.7369655942, abs=1e-9)

    def test_limit_toward_half(self):
        assert overlap_decay(0.4999999) < 1e-6

    def test_strictly_decreasing(self):
        ps = [0.05, 0.1, 0.2, 0.3, 0.4, 0.45]
        vals = [overlap_decay(p) for p in ps]
        assert vals == sorted(vals, reverse=True)

    def test_range_check(self):
        with pytest.raises(InvalidParameterError):
            overlap_decay(0.5)


class TestVolumeBounds:
    def test_small_example_values(self):
        # Vol(4,1) = 5; entropy power 2^(H(1/4) 4) = 256/27; lower = (256/27)/sqrt(6).
        report = check_volume_bounds(4, 1)
        assert report.sandwich_holds
        assert report.upper_bound == pytest.approx(256 / 27, rel=1e-12)
        assert report.lower_bound == pytest.approx(256 / 27 / 6**0.5, rel=1e-12)

    def test_half_radius_upper_bound(self):
        for n in (4, 8, 12):
            report = check_volume_bounds(n, n // 2)
            assert report.sandwich_holds
            assert report.volume < (1 << n)

    def test_exact_equality_case(self):
        # At n = 2, r = 1 the lower bound equals C(2,1) exactly; <= must hold.
        report = check_volume_bounds(2, 1)
        assert report.sandwich_holds

    def test_invalid_radius(self):
        with pytest.raises(InvalidParameterError):
            check_volume_bounds(8, 5)

    def test_intersection_bound_sample(self):
        for n, r in [(8, 1), (12, 3), (16, 4)]:
            report = check_volume_bounds(n, r)
            assert report.intersection_all_hold

    def test_intersection_bound_small_n_measurement(self):
        # Measured: with 1 <= r <= n/2 the bound has no exceptions even for
        # n < 8, so the empirical threshold is the trivial n = 2.
        exceptions = [
            (n, r, c.d)
            for n in range(2, 8)
            for r in range(1, n // 2 + 1)
            for c in check_volume_bounds(n, r).intersection
            if not c.holds
        ]
        assert exceptions == []


class TestPastFloatRange:
    def test_float_or_inf(self):
        assert float_or_inf(Fraction(3, 8)) == 0.375
        assert float_or_inf(Fraction(1, 1 << 1100)) == 0.0
        assert float_or_inf(1 << 1024) == math.inf
        assert float_or_inf(Fraction(1 << 1100, 3)) == math.inf

    def test_log2_value_keeps_the_float_path(self):
        # A subnormal float is positive and finite, so it keeps the float path.
        for value in (Fraction(3, 8), Fraction(1001, 1 << 40), Fraction(5, 1 << 1070), 1 << 1000):
            assert log2_value(value) == math.log2(float(value))

    def test_log2_value_outside_float_range(self):
        assert log2_value(Fraction(3, 1 << 1100)) == pytest.approx(math.log2(3) - 1100, abs=1e-9)
        assert log2_value(Fraction(1 << 1100, 3)) == pytest.approx(1100 - math.log2(3), abs=1e-9)

    def test_volume_bounds_at_1024(self):
        # At r = n/2 the entropy power is 2^n; the lower bound 2^n / sqrt(2n)
        # is 2^1018.5 and stays finite.
        report = check_volume_bounds(1024, 512)
        assert report.upper_bound == math.inf
        assert math.log2(report.lower_bound) == pytest.approx(1018.5, abs=1e-12)
        assert report.sandwich_holds

    @pytest.mark.parametrize("n,r", [(4, 1), (100, 7), (1000, 500), (1023, 511), (2000, 3)])
    def test_volume_bounds_in_float_range_unchanged(self, n, r):
        report = check_volume_bounds(n, r)
        ep = entropy_power(n, r)
        assert report.upper_bound == float(ep)
        assert report.lower_bound == float(ep) / math.sqrt(float(Fraction(8 * r * (n - r), n)))


def brute_rank_count(m: int, n: int, r: int) -> int:
    mask = (1 << n) - 1
    count = 0
    for value in range(1 << (m * n)):
        rows = [(value >> ((m - 1 - i) * n)) & mask for i in range(m)]
        if rank_of_ints(rows) <= r:
            count += 1
    return count


class TestRankBall:
    def test_rank_zero(self):
        assert rank_ball_size(2, 5, 3, 0) == 1

    def test_full_rank(self):
        assert rank_ball_size(2, 4, 3, 3) == 1 << 12
        assert rank_ball_size(3, 3, 2, 2) == 3**6

    def test_two_by_two(self):
        assert rank_ball_size(2, 2, 2, 1) == 10

    def test_gaussian_binomial_values(self):
        assert gaussian_binomial(4, 2, 2) == 35
        assert gaussian_binomial(3, 1, 2) == 7
        assert gaussian_binomial(3, 3, 2) == 1

    @pytest.mark.parametrize("m,n", [(2, 2), (3, 2), (3, 3), (4, 2), (4, 3)])
    def test_matches_pure_brute_force(self, m, n):
        for r in range(n + 1):
            assert rank_ball_size(2, m, n, r) == brute_rank_count(m, n, r)

    def test_sandwich_sample(self):
        for m, n in [(3, 3), (4, 4), (5, 4), (6, 3)]:
            for r in range(n + 1):
                assert check_rank_ball_bounds(2, m, n, r).holds

    def test_invalid(self):
        with pytest.raises(InvalidParameterError):
            rank_ball_size(2, 3, 4, 1)  # n > m
        with pytest.raises(InvalidParameterError):
            rank_ball_size(2, 4, 3, 4)  # r > n
