"""Vector/matrix arithmetic, ball enumeration and PRNG contracts."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp

from listdec import BitMatrix, BitVector, InvalidParameterError, Rng
from listdec.counting import hamming_volume
from listdec.gf2 import ball_masks, popcount_array, rank_of_ints
from naive_oracle import ball_masks_itertools


def bv(s: str) -> BitVector:
    return BitVector.from_string(s)


class TestHammingDistance:
    """The Hamming distance of u and v is (u ^ v).weight()."""

    def test_identity(self):
        assert (bv("0000") ^ bv("0000")).weight() == 0

    def test_weight_of_difference(self):
        assert (bv("1100") ^ bv("0000")).weight() == 2

    def test_direct_bit_count(self):
        assert (bv("1010") ^ bv("0110")).weight() == 2

    def test_length_mismatch(self):
        with pytest.raises(InvalidParameterError):
            bv("101") ^ bv("1010")

    def test_symmetry_random(self):
        rng = Rng(11, 0)
        for _ in range(200):
            u = BitVector(9, rng.bits(9))
            v = BitVector(9, rng.bits(9))
            assert (u ^ v).weight() == (v ^ u).weight()

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
            v = BitVector(10, rng.bits(10))
            assert (v ^ v) == zero
            assert (v ^ zero) == v


class TestRankOfSpan:
    def test_empty(self):
        assert rank_of_ints([]) == 0

    def test_dependent_triple(self):
        assert rank_of_ints([0b100, 0b010, 0b110]) == 2

    def test_standard_basis(self):
        assert rank_of_ints([0b100, 0b010, 0b001]) == 3

    def test_rank_bounded(self):
        rng = Rng(13, 0)
        for _ in range(100):
            r = rank_of_ints([rng.bits(6) for _ in range(9)])
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
        assert ball_masks(4, 0).tolist() == [0]

    def test_full_space(self):
        ball = ball_masks(4, 4)
        assert len(ball) == 16
        assert len(set(ball.tolist())) == 16

    def test_radius_one_size(self):
        ball = ball_masks(3, 1)
        assert {format(w, "03b") for w in ball.tolist()} == {"000", "100", "010", "001"}
        assert len(ball) == hamming_volume(3, 1)

    def test_radius_out_of_range(self):
        with pytest.raises(InvalidParameterError):
            ball_masks(3, 4)

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
        # The ball around x, listed by distance over all 64 words, is x ^ the
        # words of ball_masks.
        rng = Rng(14, 0)
        words = np.arange(64, dtype=np.int64)
        for _ in range(20):
            x = BitVector(6, rng.bits(6))
            r = rng.integer(0, 7)
            ball = set(words[popcount_array(words ^ np.int64(x.bits)) <= r].tolist())
            assert ball == {x.bits ^ e for e in ball_masks(6, r).tolist()}


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
            Rng(1, 0).bits(63)


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
