"""Profiles, certification, tails, potentials and the analytic checks."""

from __future__ import annotations

import math
import sys
import warnings
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from mpmath import iv, mp
from mpmath.libmp import to_float, to_rational

from listdec import (
    BitVector,
    CodeTable,
    InvalidParameterError,
    LinearCode,
    ResourceLimitError,
    Rng,
    certify,
    check_potential_step,
    check_tail_bound,
    envelope_trace,
    hamming_volume,
    list_profile,
    list_size_table,
    max_envelope_steps,
    potential,
    random_linear_code,
    tail_stats,
    uniform_random_code,
)
from listdec import limits, listsize, precise
from listdec.counting import binary_entropy
from listdec.gf2 import BitMatrix, SpanBasis, ball_masks
from listdec.limits import SCATTER_MAX, WORD_BITS
from listdec.listsize import (
    ListProfile,
    StepReport,
    coset_counts,
    coset_pair_weights,
    coset_reduce,
    list_sizes,
    quotient_index,
    recount_center,
    scatter_table,
)
from listdec.rankmetric import RankCode, RankParams
from naive_oracle import (
    certify_table,
    check_sum_rule,
    coset_reduce_masked,
    list_profile_naive,
    naive_table,
    potential_mean,
    profile_from_table,
)
from step_oracle import (
    affordable,
    class_pair_counts,
    dense_potential_step,
    pair_sum_weights,
    step_check_from_table,
)


def bv(s: str) -> BitVector:
    return BitVector.from_string(s)


def full_space(n: int) -> LinearCode:
    gens = tuple(BitVector(n, 1 << i) for i in range(n))
    return LinearCode(n, gens)


class TestListProfile:
    def test_zero_code(self):
        prof = list_profile(LinearCode(3, ()), 1)
        assert dict(prof.counts) == {0: 4, 1: 4}

    def test_one_dim_code(self):
        prof = list_profile(LinearCode(3, (bv("100"),)), 1)
        assert dict(prof.counts) == {0: 2, 1: 4, 2: 2}

    def test_full_space(self):
        for n, r in [(4, 1), (5, 2), (6, 6)]:
            prof = list_profile(full_space(n), r)
            assert dict(prof.counts) == {hamming_volume(n, r): 1 << n}

    def test_counts_cover_space(self):
        rng = Rng(21, 0)
        for i in range(10):
            code = random_linear_code(9, rng.integer(0, 10), rng.substream(i))
            prof = list_profile(code, rng.integer(0, 10))
            assert sum(c for _, c in prof.counts) == 1 << 9

    def test_total_mass_double_counting(self):
        rng = Rng(22, 0)
        for i in range(10):
            code = random_linear_code(10, rng.integer(0, 8), rng.substream(i, 0))
            r = rng.integer(0, 4)
            prof = list_profile(code, r)
            assert prof.total_mass == code.size * hamming_volume(10, r)
        for i in range(10):
            table = uniform_random_code(10, rng.integer(1, 65), rng.substream(i, 1))
            r = rng.integer(0, 4)
            prof = list_profile(table, r)
            assert prof.total_mass == table.num_messages * hamming_volume(10, r)


class TestNaiveOracle:
    def test_zero_code_full_radius(self):
        prof = list_profile_naive(LinearCode(6, ()), 6)
        assert dict(prof.counts) == {1: 64}

    def test_empty_table(self):
        prof = list_profile_naive(CodeTable(5, ()), 2)
        assert dict(prof.counts) == {0: 32}

    def test_matches_scatter_on_random_codes(self):
        rng = Rng(23, 0)
        for i in range(20):
            n = rng.integer(4, 13)
            code = random_linear_code(n, rng.integer(0, n + 1), rng.substream(i, 0))
            for r in (0, 1, 2, n):
                assert list_profile(code, r) == list_profile_naive(code, r)
        for i in range(20):
            n = rng.integer(4, 13)
            table = uniform_random_code(n, rng.integer(1, 1 << min(n, 7)), rng.substream(i, 1))
            for r in (0, 1, 2, n):
                assert list_profile(table, r) == list_profile_naive(table, r)

    def test_collision_multiplicity(self):
        # Two messages encoding to the same word both count.
        table = CodeTable(3, (0b101, 0b101))
        prof = list_profile(table, 0)
        assert dict(prof.counts) == {0: 7, 2: 1}
        assert list_profile_naive(table, 0) == prof


def code_from_ints(n: int, gens) -> LinearCode:
    return LinearCode(n, tuple(BitVector(n, g) for g in gens))


def table_certificate(code, table: np.ndarray, max_list: int):
    ok, witness, max_seen = certify_table(table, max_list)
    return ok, max_seen, None if ok else BitVector(code.n, witness), 1 << code.n


def certificate_fields(cert):
    return cert.decodable, cert.max_list, cert.witness, cert.checked_count


@st.composite
def linear_codes(draw, max_n: int):
    """Codes with zero and dependent generators among random ones; at most
    2^22 center-codeword pairs, so the naive recount stays small."""
    n = draw(st.integers(1, max_n))
    word = st.integers(0, (1 << n) - 1)
    gens = draw(st.lists(word | st.just(0), max_size=min(n + 1, 22 - n)))
    if len(gens) >= 2 and draw(st.booleans()):
        gens.append(gens[0] ^ gens[-1])
    return code_from_ints(n, gens)


class TestCosetEngine:
    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.integers(0, 3) | st.integers(0, (1 << 62) - 1), min_size=1, max_size=300)
    )
    @example([5])
    @example([9] * 40)
    def test_run_lengths_match_unique(self, words):
        # The runs of the sorted words against np.unique: the values and the
        # counts of coset_counts, and the bincount of the counts, the guided
        # builder's row.
        array = np.sort(np.array(words, dtype=np.int64))
        starts, lengths = listsize.sorted_runs(array)
        values, counts = np.unique(array, return_counts=True)
        assert np.array_equal(array[starts], values)
        assert np.array_equal(lengths, counts)
        assert np.array_equal(np.bincount(lengths), np.bincount(counts))

    @settings(max_examples=150, deadline=None)
    @given(linear_codes(16), st.data())
    def test_matches_naive_oracle(self, code, data):
        radius = data.draw(st.integers(0, code.n))
        max_list = data.draw(st.integers(1, 6))
        naive = naive_table(code.codeword_array(), code.n, radius)
        assert list_profile(code, radius) == list_profile_naive(code, radius)
        assert certificate_fields(certify(code, radius, max_list)) == table_certificate(
            code, naive, max_list
        )

    # Up to n = 22 against the scatter table: a zero code, the full space,
    # zero and repeated generators, and a dependent set.
    SWEEP = (
        (22, (), 2),
        (12, tuple(1 << i for i in range(12)), 3),
        (18, (0, 0x2A5F1, 0x2A5F1, 0x13C7), 2),
        (20, (0x8F3A1, 0x1C2B7, 0x8F3A1 ^ 0x1C2B7, 0x4D00E, 0), 2),
    )

    @pytest.mark.parametrize("n,gens,radius", SWEEP)
    def test_fixed_codes_match_scatter(self, n, gens, radius):
        self.check_against_scatter(code_from_ints(n, gens), radius)

    @pytest.mark.parametrize("n,k,radius", [(20, 6, 2), (22, 8, 2), (22, 12, 1), (18, 4, 3)])
    def test_random_codes_match_scatter(self, n, k, radius):
        for seed in range(3):
            self.check_against_scatter(random_linear_code(n, k, Rng(26, seed)), radius)

    @staticmethod
    def check_against_scatter(code, radius):
        table = scatter_table(code.codeword_array(), ball_masks(code.n, radius), code.n)
        assert list_profile(code, radius) == profile_from_table(table, code.n, radius)
        top = int(table.max())
        for max_list in (top - 1, top):
            if max_list >= 1:
                assert certificate_fields(certify(code, radius, max_list)) == table_certificate(
                    code, table, max_list
                )

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_reduce_matches_masked_xor_oracle(self, data):
        # Generators are drawn with XORs of earlier ones (dependent sets), so
        # pivot rows often carry lower pivot bits and the order of the
        # pivots matters.
        n = data.draw(st.integers(1, WORD_BITS))
        word = st.integers(0, (1 << n) - 1)
        gens = data.draw(st.lists(word, min_size=1, max_size=8))
        pairs = st.tuples(st.sampled_from(gens), st.sampled_from(gens))
        gens += [a ^ b for a, b in data.draw(st.lists(pairs, max_size=4))]
        basis = SpanBasis(data.draw(st.permutations(gens)))
        words = data.draw(st.lists(word, max_size=40))
        shifts = st.tuples(word, st.sampled_from(gens))
        words += [w ^ g for w, g in data.draw(st.lists(shifts, max_size=10))]
        words = np.array(words, dtype=np.int64)
        assert np.array_equal(coset_reduce(basis, words), coset_reduce_masked(basis, words))

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_span_basis_reduce_is_least_coset_element(self, data):
        # Dependent generators as above; the span, closed by brute force,
        # has at most 2^12 elements.
        n = data.draw(st.integers(1, WORD_BITS))
        word = st.integers(0, (1 << n) - 1)
        gens = data.draw(st.lists(word, min_size=1, max_size=8))
        pairs = st.tuples(st.sampled_from(gens), st.sampled_from(gens))
        gens += [a ^ b for a, b in data.draw(st.lists(pairs, max_size=4))]
        basis = SpanBasis(data.draw(st.permutations(gens)))
        span = {0}
        for g in gens:
            span |= {c ^ g for c in span}
        shifts = st.builds(lambda w, c: w ^ c, word, st.sampled_from(sorted(span)))
        for v in data.draw(st.lists(st.one_of(word, shifts), min_size=1, max_size=20)):
            least = basis.reduce(v)
            assert least == min(v ^ c for c in span)
            assert least == int(coset_reduce(basis, np.array([v], dtype=np.int64))[0])
            assert basis.contains(v) == (v in span)
        assert 1 << basis.dim == len(span)

    def test_reps_are_least_coset_elements(self):
        code = random_linear_code(10, 4, Rng(27, 0))
        words = np.arange(1 << 10, dtype=np.int64)
        reps = coset_reduce(code.basis, words)
        for c in code.codeword_array():
            assert (reps <= words ^ c).all()
        assert len(np.unique(reps)) == 1 << (10 - code.effective_dim)

    def test_counts_are_list_sizes(self):
        code = random_linear_code(12, 5, Rng(27, 1))
        reps, mult = coset_counts(code.basis, ball_masks(12, 2))
        table = list_size_table(code, 2)
        assert (np.diff(reps) > 0).all()
        assert (table[reps] == mult).all()
        assert int(mult.sum()) == hamming_volume(12, 2)


@st.composite
def viewed_codes(draw):
    """(code, radius) for every kind list_sizes serves: a Hamming linear code
    (zero and dependent generators among them), a rank code, or a code table
    with duplicate words, often at a radius that leaves most L at 0."""
    kind = draw(st.sampled_from(["linear", "rank", "table"]))
    if kind == "linear":
        code = draw(linear_codes(12))
    elif kind == "rank":
        m = draw(st.integers(1, 4))
        n = draw(st.integers(1, m))
        flat = st.integers(0, (1 << (m * n)) - 1)
        gens = draw(st.lists(flat | st.just(0), max_size=5))
        radius = draw(st.integers(0, n))
        params = RankParams(m, n, radius)
        return RankCode(params, tuple(BitMatrix.from_flat(m, n, g) for g in gens)), radius
    else:
        n = draw(st.integers(1, 14))
        words = draw(st.lists(st.integers(0, (1 << n) - 1), max_size=8))
        if words:
            words += draw(st.lists(st.sampled_from(words), max_size=4))
        code = CodeTable(n, np.array(words, dtype=np.int64))
    return code, draw(st.integers(0, min(2, code.n)) | st.integers(0, code.n))


class TestListSizesView:
    @settings(max_examples=200, deadline=None)
    @given(viewed_codes())
    def test_view_matches_dense_table(self, case):
        code, radius = case
        centers, sizes, dim = list_sizes(code, radius)
        centers = np.asarray(centers, dtype=np.int64)
        dense = list_size_table(code, radius)
        assert len(centers) == len(sizes)
        assert (np.diff(centers) > 0).all()
        assert (dense[centers] == sizes).all()
        assert int(dense.sum()) == int(sizes.sum()) << dim
        assert np.count_nonzero(dense) == np.count_nonzero(sizes) << dim


class TestCosetConstancy:
    @pytest.mark.parametrize("n,k,r", [(8, 3, 1), (10, 4, 2), (12, 5, 1)])
    def test_list_size_constant_on_cosets(self, n, k, r):
        code = random_linear_code(n, k, Rng(24, n))
        table = list_size_table(code, r)
        idx = np.arange(1 << n, dtype=np.int64)
        for c in code.codeword_array():
            assert (table[idx ^ c] == table).all()


class TestCertify:
    def test_full_plane_witness(self):
        cert = certify(full_space(2), 1, 2)
        assert not cert.decodable
        assert cert.witness.to_string() == "00"
        assert cert.max_list == 3

    def test_zero_code_always_decodable(self):
        for r in range(5):
            assert certify(LinearCode(4, ()), r, 1).decodable

    def test_one_dim_witness(self):
        cert = certify(LinearCode(3, (bv("100"),)), 1, 1)
        assert not cert.decodable
        assert cert.witness.to_string() == "000"

    def test_witness_is_least(self):
        rng = Rng(25, 0)
        for i in range(10):
            code = random_linear_code(8, 5, rng.substream(i))
            cert = certify(code, 2, 3)
            if cert.witness is None:
                continue
            table = list_size_table(code, 2)
            above = np.nonzero(table > 3)[0]
            assert cert.witness.bits == int(above.min())

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_recount_matches_a_plain_loop(self, data):
        n = data.draw(st.integers(1, 30))
        word = st.integers(0, (1 << n) - 1)
        words = data.draw(st.lists(word, max_size=64))
        center = data.draw(word)
        radius = data.draw(st.integers(0, n))
        expected = sum(1 for w in words if bin(w ^ center).count("1") <= radius)
        code = CodeTable(n, np.array(words, dtype=np.int64))
        assert recount_center(code, center, radius) == expected


class TestTailStats:
    def test_weighted_tail_identity(self):
        prof = list_profile(LinearCode(3, (bv("100"),)), 1)
        p1, q1 = tail_stats(prof, 1)
        assert q1 == Fraction((4 * 1 + 2 * 2), 8) == 1
        assert q1 == Fraction(hamming_volume(3, 1) * 2, 8)
        assert p1 == Fraction(6, 8)

    def test_total_mass_at_zero(self):
        prof = list_profile(LinearCode(4, ()), 1)
        p0, _ = tail_stats(prof, 0)
        assert p0 == 1

    def test_empty_tail(self):
        prof = list_profile(LinearCode(4, ()), 1)
        p, q = tail_stats(prof, prof.max_ell + 1)
        assert (p, q) == (0, 0)

    def test_monotone_and_dominated(self):
        rng = Rng(26, 0)
        for i in range(10):
            code = random_linear_code(9, rng.integer(0, 7), rng.substream(i))
            prof = list_profile(code, rng.integer(0, 3))
            tails = [tail_stats(prof, ell) for ell in range(prof.max_ell + 2)]
            ps = [t[0] for t in tails]
            qs = [t[1] for t in tails]
            assert ps == sorted(ps, reverse=True)
            assert qs == sorted(qs, reverse=True)
            for ell in range(1, len(tails)):
                assert ps[ell] <= qs[ell]


class TestPotential:
    def test_zero_code_closed_form(self):
        state = potential(list_profile(LinearCode(4, ()), 1), 1.0)
        assert state.value_float == pytest.approx(1.9375, abs=1e-12)
        assert state.excess_float == pytest.approx(0.9375, abs=1e-12)

    def test_empty_code_is_one(self):
        # S = 1 exactly: the bracket is the single point 1.
        state = potential(list_profile(CodeTable(5, ()), 2), 0.7)
        assert state.value_float == 1.0
        assert state.excess_float == 0.0
        assert state.lo == state.hi == 1 << -state.shift

    def test_exact_dyadic_on_a_float_midpoint(self):
        # e = 1 at (n, eps) = (2, 1.0), so both powers are exact and the
        # bracket has width 0: S = 1 + 2^-53, the midpoint between 1 and the
        # next float, rounds to even, and T = 2^-53 exactly.
        state = potential(ListProfile(53, 2, 1, ((0, 2**53 - 1), (1, 1))), 1.0)
        assert state.lo == state.hi
        assert state.value_float == 1.0
        assert state.excess_float == 2**-53

    def test_large_exponent_stays_small(self):
        # e ell = 31 * 2^26: the powers are aligned to the largest, so no
        # integer of about 2e9 bits is built, and both floats are inf.
        state = potential(ListProfile(1, 62, 1, ((0, 1), (2**26, 1))), 1.0)
        assert state.value_float == state.excess_float == math.inf
        assert state.hi.bit_length() < 1000

    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(st.tuples(st.integers(0, 40), st.integers(1, 1 << 40)), min_size=1, max_size=6),
        st.integers(0, 20),
        st.floats(1e-6, 60.0) | st.sampled_from([0.5, 1.0, 3.0]),
        st.integers(1, 62),
    )
    def test_bracket_holds_the_600_bit_value(self, terms, extra_bits, epsilon, block_length):
        # The exact bracket and the 600-bit interval of S overlap, as both
        # hold S (neither need contain the other: an exact power makes the
        # bracket tighter than 600 bits at large S), and its floats are the
        # floats of that interval (both ends round alike).
        profile = padded_profile(terms, extra_bits, block_length)
        state = potential(profile, epsilon)
        s_iv = _at_prec(iv, 600, lambda: potential_mean(iv, profile, epsilon))
        t_iv = _at_prec(iv, 600, lambda: s_iv - 1)
        s_lo, s_hi = (_exact(end) for end in s_iv._mpi_)
        scale = Fraction(2) ** state.shift
        assert state.lo * scale <= s_hi and s_lo <= state.hi * scale
        for value, interval in ((state.value_float, s_iv), (state.excess_float, t_iv)):
            lo, hi = interval._mpi_
            assert value == to_float(lo, rnd="n") == to_float(hi, rnd="n")

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(st.tuples(st.integers(0, 40), st.integers(1, 1 << 40)), min_size=1, max_size=6),
        st.integers(0, 20),
        st.floats(1e-6, 60.0) | st.sampled_from([1e-300, 0.5, 1.0, 3.0]),
        st.integers(1, 62),
    )
    @example([(1, 1)], 0, 1e-300, 6)
    def test_interval_excess_reads_the_bracket_at_its_precision(
        self, terms, extra_bits, epsilon, block_length
    ):
        # At each precision the interval of T starts at 0 or above (S >= 1),
        # overlaps the 1200-bit interval summed afresh, and is at most
        # 2^(8 - prec) times S wide: a bracket read at a fixed F would not be.
        profile = padded_profile(terms, extra_bits, block_length)
        fresh = _at_prec(iv, 1200, lambda: potential_mean(iv, profile, epsilon) - 1)
        f_lo, f_hi = (_exact(end) for end in fresh._mpi_)
        for prec in (120, 240, 480):
            t = _at_prec(iv, prec, lambda: listsize.iv_excess(iv, profile, epsilon))
            lo, hi = (_exact(end) for end in t._mpi_)
            assert 0 <= lo and lo <= f_hi and f_lo <= hi
            assert hi - lo <= (1 + hi) * Fraction(2) ** (8 - prec)

    def test_bracket_miss_keeps_the_certified_precision(self):
        # A power_bracket miss evaluates at bits + 64 and restores iv.prec, so
        # every evaluation of the loop runs at the precision it was given.
        listsize.power_bracket.cache_clear()
        profile = list_profile(random_linear_code(10, 3, Rng(31, 0)), 2)
        seen = []

        def build(ctx):
            before = ctx.prec
            listsize.iv_excess(ctx, profile, 0.3)
            seen.append((before, ctx.prec))
            return True if ctx.prec >= 480 else None

        assert precise.certified(build)
        assert seen == [(120, 120), (240, 240), (480, 480)]
        assert listsize.power_bracket.cache_info().misses > 0

    def test_monotone_in_epsilon(self):
        prof = list_profile(random_linear_code(10, 4, Rng(27, 0)), 2)
        values = [potential(prof, e).value_float for e in (0.05, 0.1, 0.3, 0.6, 1.0)]
        assert values == sorted(values)

    def test_matches_pointwise_evaluation(self):
        rng = Rng(28, 0)
        for i in range(5):
            code = random_linear_code(10, rng.integer(0, 6), rng.substream(i))
            r = rng.integer(0, 3)
            eps = rng.uniform(0.1, 1.0)
            table = list_size_table(code, r)
            e = eps * 10 / (1 + eps)
            pointwise = float(np.exp2(e * table).mean())
            state = potential(list_profile(code, r), eps)
            assert state.value_float == pytest.approx(pointwise, rel=1e-12)

    def test_epsilon_validation(self):
        prof = list_profile(LinearCode(3, ()), 1)
        for epsilon in (0.0, math.inf, math.nan):
            with pytest.raises(InvalidParameterError):
                potential(prof, epsilon)


@st.composite
def coset_rows(draw):
    """(row, quotient_bits): row[ell] of the 2^quotient_bits cosets have list
    size ell, and the last entry is nonzero, as in a profile's histogram."""
    quotient_bits = draw(st.integers(0, 62))
    width = draw(st.integers(1, 40))
    remaining = 1 << quotient_bits
    top = 1 + draw(st.integers(0, remaining - 1))
    remaining -= top
    row = [0] * width
    row[-1] = top
    for ell in range(width - 2, 0, -1):
        row[ell] = draw(st.integers(0, remaining))
        remaining -= row[ell]
    row[0] += remaining
    return np.array(row, dtype=np.int64), quotient_bits


class TestPotentialPowers:
    @settings(max_examples=300, deadline=None)
    @given(coset_rows(), st.floats(1e-6, 200.0), st.integers(1, 62))
    def test_row_product_matches_potential(self, drawn, epsilon, block_length):
        row, quotient_bits = drawn
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            powers = listsize.potential_powers(epsilon, block_length, len(row) + 3, quotient_bits)
        assert len(powers) == len(row) + 3
        with np.errstate(over="ignore", invalid="ignore"):
            value = float(row @ powers[: len(row)])
        counts = tuple((ell, int(c)) for ell, c in enumerate(row) if c)
        profile = ListProfile(quotient_bits, block_length, 0, counts)
        exact = _at_prec(mp, 600, lambda: potential_mean(mp, profile, epsilon))
        if any(c and np.isinf(p) for c, p in zip(row, powers)):
            assert not np.isfinite(value)
        if np.isfinite(value):
            assert abs(value - exact) <= 5e-13 * exact
        else:
            assert exact >= mp.mpf(2) ** 1023

    def test_entries_reaching_1024_are_inf(self):
        # e = 1 at (n, eps) = (2, 1.0): 2^(ell - q) for ell < 1030, q = 5.
        powers = listsize.potential_powers(1.0, 2, 1031, 5)
        assert powers[0] == 2.0**-5 and powers[1028] == 2.0**1023
        assert np.isinf(powers[1029:]).all()


class TestPotentialMemos:
    # Each memo is asked at two epsilons and two block lengths with the rest
    # fixed, so a cache key that dropped either would hand back another's
    # value.
    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(st.tuples(st.integers(0, 40), st.integers(1, 1 << 40)), min_size=1, max_size=6),
        st.integers(0, 20),
        st.lists(st.floats(1e-6, 60.0) | st.sampled_from([0.5, 1.0, 3.0]), min_size=2, max_size=2),
        st.lists(st.integers(1, 62), min_size=2, max_size=2),
    )
    def test_cached_potential_is_the_uncached_one(self, terms, extra_bits, epsilons, lengths):
        for block_length in lengths:
            profile = padded_profile(terms, extra_bits, block_length)
            for epsilon in epsilons:
                assert potential(profile, epsilon) == potential.__wrapped__(profile, epsilon)

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(st.floats(1e-6, 200.0), min_size=2, max_size=2),
        st.lists(st.integers(1, 62), min_size=2, max_size=2),
        st.integers(1, 40),
        st.integers(0, 30),
    )
    def test_cached_powers_are_a_fresh_read_only_row(self, epsilons, lengths, width, quotient_bits):
        for epsilon in epsilons:
            for block_length in lengths:
                powers = listsize.potential_powers(epsilon, block_length, width, quotient_bits)
                e = epsilon * block_length / (1 + epsilon)
                with np.errstate(over="ignore"):
                    fresh = np.exp2(e * np.arange(width) - quotient_bits)
                np.testing.assert_array_equal(powers, fresh)
                with pytest.raises(ValueError):
                    powers[0] = 0.0


def padded_profile(terms, extra_bits: int, block_length: int) -> ListProfile:
    """The profile with counts from terms (ell, count), over the least
    universe that holds them widened by extra_bits, the rest at ell = 0."""
    counts = dict(terms)
    mass = sum(counts.values())
    universe_bits = mass.bit_length() + extra_bits
    counts[0] = counts.get(0, 0) + (1 << universe_bits) - mass
    return ListProfile(universe_bits, block_length, 0, tuple(sorted(counts.items())))


def _exact(end) -> Fraction:
    """An mpf endpoint as an exact rational."""
    return Fraction(*to_rational(end))


def _at_prec(ctx, prec, build):
    with precise._LOCK:
        old = ctx.prec
        ctx.prec = prec
        try:
            return build()
        finally:
            ctx.prec = old


class TestSumRule:
    def test_outside_gives_equality(self):
        code = LinearCode(3, (bv("100"),))
        report = check_sum_rule(code, bv("010"), 1)
        assert not report.b_in_code
        assert report.inequality_holds
        assert report.equality_everywhere
        assert not report.union_equals_base

    def test_inside_leaves_code_unchanged(self):
        code = LinearCode(3, (bv("100"),))
        report = check_sum_rule(code, bv("100"), 1)
        assert report.b_in_code
        assert report.union_equals_base
        assert report.inequality_holds
        assert not report.equality_everywhere or report.union_equals_base

    def test_inside_slack_is_max_list_size(self):
        # For b in C the slack at x is exactly L(x + b), so its maximum over
        # x equals the largest list size.
        rng = Rng(34, 0)
        for i in range(10):
            code = random_linear_code(8, 3, rng.substream(i))
            b = BitVector(8, int(code.codeword_array()[rng.integer(0, code.size)]))
            report = check_sum_rule(code, b, 1)
            assert report.b_in_code
            assert report.max_slack == list_profile(code, 1).max_ell

    def test_random_pairs_never_violate(self):
        rng = Rng(29, 0)
        for i in range(50):
            n = rng.integer(4, 11)
            code = random_linear_code(n, rng.integer(0, n - 1), rng.substream(i))
            b = BitVector(n, rng.bits(n))
            r = rng.integer(0, 3)
            report = check_sum_rule(code, b, r)
            assert report.inequality_holds
            if not report.b_in_code:
                assert report.equality_everywhere
            else:
                assert report.union_equals_base

    def test_doubling_floor(self):
        rng = Rng(30, 0)
        for i in range(20):
            n = rng.integer(4, 10)
            code = random_linear_code(n, rng.integer(0, n - 2), rng.substream(i))
            b = BitVector(n, rng.bits(n))
            if code.basis.contains(b.bits):
                continue
            r = rng.integer(0, 3)
            prof = list_profile(code, r)
            prof_ext = list_profile(LinearCode(n, code.generators + (b,)), r)
            for ell in range(1, prof.max_ell + 1):
                _, q_old = tail_stats(prof, ell)
                _, q_new = tail_stats(prof_ext, ell)
                assert q_new >= 2 * q_old


class TestPotentialStep:
    def test_zero_code_exact_probability(self):
        # Candidates of weight 1 or 2 produce overlap; 12 + 66 of 4096 exceed.
        report = check_potential_step(LinearCode(12, ()), 0.5, 1)
        assert report.hypothesis_met
        assert report.probability == Fraction(78, 4096)
        assert report.holds

    def test_degenerate_empty_table(self):
        table = np.zeros(1 << 6, dtype=np.int64)
        report = step_check_from_table(table, 6, np.zeros(0, dtype=np.int64), 0.5, 1)
        assert report.degenerate
        assert report.holds

    def test_hypothesis_not_met(self):
        report = check_potential_step(full_space(4), 1.0, 1)
        assert not report.hypothesis_met
        assert not report.holds

    def test_random_instances_never_violate(self):
        rng = Rng(31, 0)
        checked = 0
        for i in range(30):
            n = rng.integer(8, 13)
            code = random_linear_code(n, rng.integer(0, 4), rng.substream(i))
            eps = rng.uniform(0.1, 0.8)
            report = check_potential_step(code, eps, rng.integer(1, 3))
            if report.hypothesis_met and not report.degenerate:
                checked += 1
                assert report.holds
        assert checked >= 10

    def test_exceedance_count_matches_per_candidate_recomputation(self):
        # Oracle for the coset-pair counting: extend the code by every
        # candidate b explicitly and compare potentials directly.
        rng = Rng(33, 0)
        for i in range(4):
            n = 8
            code = random_linear_code(n, rng.integer(0, 3), rng.substream(i))
            r = rng.integer(1, 3)
            eps = rng.uniform(0.2, 0.7)
            report = check_potential_step(code, eps, r)
            if not report.hypothesis_met or report.degenerate:
                continue
            t = potential(list_profile(code, r), eps).excess_float
            threshold = 1 + 2 * t + t**1.5
            exceed = 0
            for b in range(1 << n):
                extended = LinearCode(n, code.generators + (BitVector(n, b),))
                ext = potential(list_profile(extended, r), eps)
                margin = abs(ext.value_float - threshold)
                assert margin > 1e-9 * threshold, "candidate too close to classify in floats"
                exceed += ext.value_float > threshold
            assert report.probability == Fraction(exceed, 1 << n)


@st.composite
def step_codes(draw, max_n: int):
    """A code (zero and dependent generators among random ones, or the full
    space), a radius of at most 3 and an epsilon."""
    n = draw(st.integers(3, max_n))
    word = st.integers(0, (1 << n) - 1)
    gens = draw(st.lists(word | st.just(0), max_size=5))
    if len(gens) >= 2 and draw(st.booleans()):
        gens.append(gens[0] ^ gens[-1])
    code = full_space(n) if draw(st.integers(0, 9)) == 0 else code_from_ints(n, gens)
    return code, draw(st.integers(0, min(n, 3))), draw(st.floats(0.02, 1.0))


def seeded_step_codes(count: int, max_n: int, seed: int):
    """Random codes of dimension at most n/2, radius 1 or 2: about half meet
    the hypothesis T < 1 with some candidate exceeding."""
    rng = Rng(seed, 0)
    for i in range(count):
        n = rng.integer(4, max_n + 1)
        code = random_linear_code(n, rng.integer(0, min(n // 2, 5) + 1), rng.substream(i))
        yield code, rng.integer(1, 3), rng.uniform(0.05, 0.6)


def weight_rows(code, radius: int, chunk_pairs: int = 1 << 24) -> np.ndarray:
    """coset_pair_weights, at this chunk size, scaled by 2^dim and spread to
    every candidate b."""
    basis, n = code.basis, code.n
    reps, mult = coset_counts(basis, ball_masks(n, radius))
    table = np.zeros(1 << (n - basis.dim), dtype=np.int64)
    table[quotient_index(basis, reps, n)] = mult
    with mock.patch.object(limits, "CHUNK_PAIRS", chunk_pairs):
        rows = coset_pair_weights(table)
    classes = quotient_index(basis, coset_reduce(basis, np.arange(1 << n)), n)
    return rows[classes] << basis.dim


@st.composite
def level_tables(draw):
    """A list-size table over 2^q classes with 1 to 6 levels (constant tables
    included), often with a nonzero most common level, and a chunk size
    often below one level group."""
    q = draw(st.integers(0, 7))
    levels = draw(st.lists(st.integers(0, 9), min_size=1, max_size=6, unique=True))
    if draw(st.booleans()):
        cells = st.lists(st.sampled_from(levels), min_size=1 << q, max_size=1 << q)
        table = np.array(draw(cells), dtype=np.int64)
    else:
        # One level everywhere but at a few classes.
        table = np.full(1 << q, levels[0], dtype=np.int64)
        moved = st.tuples(st.integers(0, (1 << q) - 1), st.sampled_from(levels))
        for c, level in draw(st.lists(moved, max_size=1 << q)):
            table[c] = level
    return table, draw(st.sampled_from([1, 2, 5, 1 << 24]))


def all_pairs(left, right) -> list[int]:
    """The sorted multiset of every left[i] ^ right[j], counted pair by pair."""
    return sorted(int(a) ^ int(b) for a in left for b in right)


class TestChunkSetting:
    """limits.CHUNK_PAIRS, read at call time, bounds every outer-XOR chunk of
    scatter_table and coset_pair_weights, and the chunks of one call together
    hold every pair exactly once (in no promised order)."""

    @staticmethod
    def chunk_calls(monkeypatch, cap: int) -> list[tuple[np.ndarray, np.ndarray, list]]:
        """Set the cap; the returned list fills with (left, right, chunks) for
        every call of outer_xor_chunks."""
        monkeypatch.setattr(limits, "CHUNK_PAIRS", cap)
        calls = []
        original = listsize.outer_xor_chunks

        def spy(left, right):
            chunks = []
            calls.append((left, right, chunks))
            for chunk in original(left, right):
                chunks.append(chunk.copy())
                yield chunk

        monkeypatch.setattr(listsize, "outer_xor_chunks", spy)
        return calls

    @staticmethod
    def assert_capped_and_complete(calls, cap: int) -> None:
        assert calls
        for left, right, chunks in calls:
            assert all(len(chunk) <= cap for chunk in chunks)
            assert sorted(np.concatenate(chunks).tolist()) == all_pairs(left, right)

    def test_scatter_table(self, monkeypatch):
        # 37 words against an 11-word ball: the words, the longer operand,
        # make up each row, and every cap here slices that row.
        words = Rng(71, 0).bit_array(10, 37)
        ball = ball_masks(10, 1)
        full = scatter_table(words, ball, 10)
        for cap in (1, 7, 22):
            with monkeypatch.context() as patched:
                calls = self.chunk_calls(patched, cap)
                assert (scatter_table(words, ball, 10) == full).all()
            self.assert_capped_and_complete(calls, cap)

    def test_coset_pair_weights(self, monkeypatch):
        table = np.full(64, 2, dtype=np.int64)
        table[[1, 7, 20, 33, 60]] = 0
        table[[2, 3, 5, 11, 13]] = 1
        calls = self.chunk_calls(monkeypatch, 1)
        assert (coset_pair_weights(table) == class_pair_counts(table)).all()
        assert len(calls) == 3
        self.assert_capped_and_complete(calls, 1)

    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(st.integers(0, 1023), max_size=40),
        st.lists(st.integers(0, 1023), max_size=40),
        st.sampled_from([1, 3, 7, 1 << 24]),
    )
    def test_chunks_hold_every_pair_under_the_cap(self, left, right, cap):
        left, right = np.array(left, dtype=np.int64), np.array(right, dtype=np.int64)
        with mock.patch.object(limits, "CHUNK_PAIRS", cap):
            chunks = list(listsize.outer_xor_chunks(left, right))
        self.assert_capped_and_complete([(left, right, chunks)], cap)


class TestCosetPairWeights:
    """coset_pair_weights against the brute-force count of every class."""

    @settings(max_examples=150, deadline=None)
    @given(level_tables())
    def test_matches_class_by_class_count(self, drawn):
        table, chunk_pairs = drawn
        with mock.patch.object(limits, "CHUNK_PAIRS", chunk_pairs):
            assert (coset_pair_weights(table) == class_pair_counts(table)).all()

    @pytest.mark.parametrize("chunk_pairs", [1, 3, 1 << 24])
    @pytest.mark.parametrize(
        "levels", [{}, {0: [1, 7, 20, 33, 60], 1: [2, 3, 5, 11, 13], 5: [40, 63]}]
    )
    def test_nonzero_mode(self, levels, chunk_pairs):
        # Mode 2 on 64 classes, constant or with three more levels; chunks of
        # 1 and 3 pairs split every level group.
        table = np.full(64, 2, dtype=np.int64)
        for level, classes in levels.items():
            table[classes] = level
        with mock.patch.object(limits, "CHUNK_PAIRS", chunk_pairs):
            assert (coset_pair_weights(table) == class_pair_counts(table)).all()


class TestCosetStepEngine:
    """check_potential_step against the dense oracle over all 2^n candidates."""

    @settings(max_examples=60, deadline=None)
    @given(step_codes(12))
    def test_matches_dense_oracle(self, drawn):
        code, radius, eps = drawn
        report = check_potential_step(code, eps, radius)
        assume(affordable(report, code.basis, ball_masks(code.n, radius), code.n))
        assert report == dense_potential_step(code, eps, radius)

    def test_seeded_sweep_matches_dense_oracle(self):
        exceeding = 0
        for code, radius, eps in seeded_step_codes(80, 12, 35):
            report = check_potential_step(code, eps, radius)
            assert report == dense_potential_step(code, eps, radius)
            exceeding += report.probability > 0
        assert exceeding >= 30

    @settings(max_examples=60, deadline=None)
    @given(linear_codes(10), st.data())
    def test_weight_rows_match_pair_sum_weights(self, code, data):
        radius = data.draw(st.integers(0, code.n))
        table = list_size_table(code, radius)
        assume(table.max() <= 12)
        chunk_pairs = data.draw(st.sampled_from([1, 7, 1 << 24]))
        assert (weight_rows(code, radius, chunk_pairs) == pair_sum_weights(table)).all()

    # With the float prefilter deciding nothing, every class goes through
    # the interval recheck and must decide as the oracle does.
    @settings(max_examples=20, deadline=None)
    @given(step_codes(7))
    def test_every_class_rechecked(self, drawn):
        code, radius, eps = drawn
        report = check_potential_step(code, eps, radius)
        assume(affordable(report, code.basis, ball_masks(code.n, radius), code.n))
        assert report == dense_potential_step(code, eps, radius)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(precise, "RECHECK_MARGIN", float("inf"))
            assert check_potential_step(code, eps, radius) == report

    def test_seeded_sweep_every_class_rechecked(self, monkeypatch):
        cases = list(seeded_step_codes(20, 8, 36))
        oracles = [dense_potential_step(code, eps, radius) for code, radius, eps in cases]
        monkeypatch.setattr(precise, "RECHECK_MARGIN", float("inf"))
        for (code, radius, eps), oracle in zip(cases, oracles):
            assert check_potential_step(code, eps, radius) == oracle
        assert sum(oracle.probability > 0 for oracle in oracles) >= 5

    @pytest.mark.parametrize("n,gens", [(6, ()), (7, (0b1010011, 0b0110101)), (5, (3, 3, 0))])
    def test_only_candidates_outside_the_code_count(self, n, gens, monkeypatch):
        # Every class rechecked and every recheck answering "exceeds": the
        # count is exactly the candidates outside the code.
        code = code_from_ints(n, gens)
        monkeypatch.setattr(precise, "RECHECK_MARGIN", float("inf"))
        monkeypatch.setattr(precise, "certified_le", lambda lhs, rhs: False)
        report = check_potential_step(code, 0.2, 1)
        assert report.hypothesis_met
        assert report.probability == 1 - Fraction(code.size, 1 << n)

    @pytest.mark.parametrize(
        "n,gens,eps", [(8, (0b10110001,), 0.3), (6, (), 0.9), (4, (1, 2, 4, 8), 1.0)]
    )
    def test_hypothesis_decided_alike_in_intervals(self, n, gens, eps, monkeypatch):
        # With an infinite margin T < 1 is always decided in intervals.
        code = code_from_ints(n, gens)
        prefiltered = check_potential_step(code, eps, 1)
        monkeypatch.setattr(precise, "RECHECK_MARGIN", float("inf"))
        assert check_potential_step(code, eps, 1) == prefiltered

    @settings(max_examples=25, deadline=None)
    @given(step_codes(9))
    def test_decided_alike_in_intervals(self, drawn):
        # With an infinite margin the hypothesis, the prefilter's threshold,
        # every class and P < sqrt(T) are all decided in intervals.
        code, radius, eps = drawn
        report = check_potential_step(code, eps, radius)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(precise, "RECHECK_MARGIN", float("inf"))
            assert check_potential_step(code, eps, radius) == report

    def test_degenerate_at_tiny_epsilon(self, monkeypatch):
        # T = 2.9e-300 lies far below a 160-bit resolution, but S is exact:
        # S != 1, so the report is not degenerate, and T and sqrt(T) are the
        # correctly rounded floats of their exact values.
        code = code_from_ints(6, (0b100101,))
        report = check_potential_step(code, 1e-300, 2)
        with mp.workprec(3000):
            e = mp.mpf(1e-300) * 6 / (1 + mp.mpf(1e-300))
            counts = list_profile_naive(code, 2).counts
            t = sum(c * mp.mpf(2) ** (e * ell) for ell, c in counts) / 64 - 1
            expected_t, expected_root = float(t), float(mp.sqrt(t))
        assert report == StepReport(
            hypothesis_met=True,
            degenerate=False,
            excess=expected_t,
            probability=Fraction(0),
            markov_bound=expected_root,
            holds=True,
        )
        assert report == dense_potential_step(code, 1e-300, 2)
        # Every recheck answering "exceeds": the count follows the rechecks.
        # At eps = 1e-310 the float of T is subnormal, so P < sqrt(T) is
        # decided in intervals.
        monkeypatch.setattr(precise, "certified_le", lambda lhs, rhs: False)
        markov_calls = []
        real_less = precise.certified_less

        def recorded_less(lhs, rhs):
            markov_calls.append(lhs)
            return real_less(lhs, rhs)

        monkeypatch.setattr(precise, "certified_less", recorded_less)
        forced = check_potential_step(code, 1e-310, 2)
        assert forced.excess < sys.float_info.min
        assert not forced.degenerate and not forced.holds
        assert forced.probability == Fraction(62, 64)
        assert len(markov_calls) == 1

    def test_oversized_quotient_raises_at_once(self, monkeypatch):
        def unreachable(*args):
            raise AssertionError("ball built before the cap")

        monkeypatch.setattr(listsize, "ball_masks", unreachable)
        with pytest.raises(ResourceLimitError):
            check_potential_step(code_from_ints(20, (1, 2, 4)), 0.5, 1)

    def test_pair_cap(self):
        # Three list sizes, equally common: 2/3 of the 2^16 cosets deviate
        # from the most common one, over SCATTER_MAX ordered pairs.
        table = np.arange(1 << 16, dtype=np.int64) % 3
        assert (2 * len(table) // 3) ** 2 > SCATTER_MAX
        with pytest.raises(ResourceLimitError):
            coset_pair_weights(table)

    def test_runs_beyond_sixteen_bits(self):
        # n = 24, k = 12: a 2^12 quotient, though 2^24 candidates.
        code = random_linear_code(24, 12, Rng(34, 0))
        report = check_potential_step(code, 0.1, 2)
        assert report.hypothesis_met and report.probability > 0
        assert report.holds
        assert (report.probability * (1 << 24)).denominator == 1
        assert (report.probability * (1 << (24 - code.effective_dim))).denominator == 1


class TestEnvelope:
    def test_delta0_value(self):
        trace = envelope_trace(20, 2, 0.2, 0)
        assert trace.delta0 == pytest.approx(6.4043e-3, rel=1e-4)
        assert trace.envelope_ok

    def test_step_count(self):
        assert max_envelope_steps(20, 2, 0.2) == 6

    def test_step_count_just_below_an_integer(self):
        # n (1 - H(0.1) - eps) = 10 - 2.8e-17 here, which rounds to 10.0 as a
        # double; the floor is taken on the interval endpoints themselves.
        assert max_envelope_steps(20, 2, 0.03100440641071878) == 9

    @pytest.mark.parametrize("epsilon", [math.inf, math.nan, 0.0])
    def test_step_count_rejects_bad_epsilon(self, epsilon):
        with pytest.raises(InvalidParameterError):
            max_envelope_steps(20, 2, epsilon)

    def test_desk_scale_violation_exists(self):
        # Outside the finite-n hypothesis (2^7 delta_0 ~ 0.82 > 1/4) the
        # envelope genuinely fails here at the last step.
        trace = envelope_trace(20, 2, 0.2, 6)
        assert trace.violations == (6,)
        assert not trace.envelope_ok

    def test_envelope_holds_when_slack_is_large(self):
        steps = max_envelope_steps(30, 3, 0.3)
        trace = envelope_trace(30, 3, 0.3, steps)
        assert trace.envelope_ok

    def test_recurrence_values(self):
        trace = envelope_trace(16, 2, 0.4, 3)
        d = trace.deltas
        for i in range(1, 4):
            assert d[i] == pytest.approx(2 * d[i - 1] + d[i - 1] ** 1.5, rel=1e-9)


class TestTailBound:
    def test_first_level_always_holds(self):
        # Q tail at ell = 1 satisfies the bound whenever k <= n(1 - H(p)).
        rng = Rng(32, 0)
        for i in range(20):
            n = rng.integer(10, 15)
            r = rng.integer(1, 3)
            kmax = int(n * (1 - binary_entropy(r / n)))
            k = rng.integer(0, max(kmax, 1))
            code = random_linear_code(n, k, rng.substream(i))
            prof = list_profile(code, r)
            checks = check_tail_bound(prof, k, 0.3, 1)
            assert checks[0].holds

    def test_empty_code_higher_levels(self):
        prof = list_profile(LinearCode(10, ()), 1)
        checks = check_tail_bound(prof, 0, 0.3, 3)
        assert all(c.holds for c in checks[1:])

    def test_parameter_validation(self):
        prof = list_profile(LinearCode(8, ()), 1)
        with pytest.raises(InvalidParameterError):
            check_tail_bound(prof, 0, 1.2, 2)
        with pytest.raises(InvalidParameterError):
            check_tail_bound(prof, 8, 0.3, 2)
        with pytest.raises(InvalidParameterError):
            check_tail_bound(prof, 0, 0.3, 0)
