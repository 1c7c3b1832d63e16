"""Rank-metric distances, balls, profiles, certification and potential."""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from listdec import (
    BitMatrix,
    InvalidParameterError,
    RankCode,
    RankParams,
    ResourceLimitError,
    Rng,
    certify,
    certify_rank,
    check_potential_step,
    check_rank_ball_bounds,
    check_rank_potential_step,
    enumerate_rank_ball,
    list_profile,
    list_size_table,
    potential,
    random_linear_rank_code,
    rank_ball_size,
    tail_stats,
)
from listdec import listsize, precise, rankmetric
from listdec.cli import main as cli_main
from listdec.gf2 import rank_of_ints
from listdec.rankmetric import rank_array, rank_ball_masks
from naive_oracle import (
    baseline_potential_bound,
    certify_table,
    profile_from_table,
    rank_list_profile_naive,
    rank_table,
)
from step_oracle import affordable, dense_potential_step


def zero_code(m: int, n: int, radius: int) -> RankCode:
    return RankCode(RankParams(m, n, radius), ())


def full_code(m: int, n: int, radius: int) -> RankCode:
    params = RankParams(m, n, radius)
    gens = tuple(BitMatrix.from_flat(m, n, 1 << i) for i in range(m * n))
    return RankCode(params, gens)


class TestRankDistance:
    """The rank distance of x and y is (x ^ y).rank()."""

    def test_zero(self):
        x = BitMatrix.from_string("101\n010\n001\n110")
        assert (x ^ x).rank() == 0

    def test_full_rank_identity_block(self):
        m, n = 4, 3
        rows = tuple(1 << (n - 1 - i) if i < n else 0 for i in range(m))
        x = BitMatrix(m, n, rows)
        assert (x ^ BitMatrix.zero(m, n)).rank() == n

    def test_rank_one_difference(self):
        x = BitMatrix.from_string("11\n11")
        assert (x ^ BitMatrix.zero(2, 2)).rank() == 1

    def test_shape_mismatch(self):
        with pytest.raises(InvalidParameterError):
            BitMatrix.zero(2, 2) ^ BitMatrix.zero(3, 2)


class TestRankBallEnumeration:
    def test_radius_zero(self):
        ball = enumerate_rank_ball(3, 2, 0)
        assert len(ball) == 1
        assert ball[0].to_flat() == 0

    def test_two_by_two_radius_one(self):
        ball = enumerate_rank_ball(2, 2, 1)
        assert len(ball) == 10
        assert len({b.to_flat() for b in ball}) == 10
        assert all(b.rank() <= 1 for b in ball)

    def test_full_radius(self):
        assert len(enumerate_rank_ball(2, 2, 2)) == 16

    @pytest.mark.parametrize("m,n", [(2, 2), (3, 2), (3, 3), (4, 3), (5, 4)])
    def test_counts_match_formula(self, m, n):
        for r in range(n + 1):
            masks = np.nonzero(rank_table(m, n) <= r)[0]
            assert len(masks) == rank_ball_size(2, m, n, r)

    def test_enumeration_cap(self, monkeypatch):
        assert len(enumerate_rank_ball(6, 4, 1)) == rank_ball_size(2, 6, 4, 1) == 946

        def unreachable(*args):
            raise AssertionError("ball built before the cap")

        monkeypatch.setattr(rankmetric, "rank_ball_masks", unreachable)
        assert rank_ball_size(2, 6, 4, 3) > 1 << 20
        with pytest.raises(ResourceLimitError):
            enumerate_rank_ball(6, 4, 3)


class TestRankTableOracle:
    @pytest.mark.parametrize("m,n", [(2, 2), (3, 2), (4, 3)])
    def test_matches_row_elimination(self, m, n):
        from listdec.gf2 import rank_of_ints

        table = rank_table(m, n)
        mask = (1 << n) - 1
        for value in range(1 << (m * n)):
            rows = [(value >> ((m - 1 - i) * n)) & mask for i in range(m)]
            assert table[value] == rank_of_ints(rows)


class TestRandomRankCode:
    def test_dimension_zero(self):
        code = random_linear_rank_code(RankParams(4, 3, 1), 0, Rng(61, 0))
        assert code.effective_dim == 0

    def test_seed_replay(self):
        a = random_linear_rank_code(RankParams(4, 3, 1), 5, Rng(61, 2))
        b = random_linear_rank_code(RankParams(4, 3, 1), 5, Rng(61, 2))
        assert a.generators == b.generators

    def test_rank_deficiency_rate(self):
        deficient = 0
        for i in range(200):
            code = random_linear_rank_code(RankParams(4, 3, 1), 5, Rng(2024, i))
            if code.effective_dim < 5:
                deficient += 1
        assert deficient / 200 <= 4 * 2 ** -(12 - 5)


class TestRankProfile:
    def test_zero_code_profile(self):
        prof = list_profile(zero_code(2, 2, 1), 1)
        assert dict(prof.counts) == {0: 6, 1: 10}

    def test_full_code_profile(self):
        prof = list_profile(full_code(3, 2, 1), 1)
        ball = rank_ball_size(2, 3, 2, 1)
        assert dict(prof.counts) == {ball: 64}

    def test_oracle_equivalence(self):
        rng = Rng(62, 0)
        shapes = [(3, 2), (4, 3), (4, 4), (5, 3), (8, 2)]
        for i in range(50):
            m, n = shapes[i % len(shapes)]
            params = RankParams(m, n, 1)
            k = rng.integer(0, min(6, m * n) + 1)
            code = random_linear_rank_code(params, k, rng.substream(i))
            for r in range(n + 1):
                assert list_profile(code, r) == rank_list_profile_naive(code, r)

    def test_coset_constancy(self):
        rng = Rng(63, 0)
        for i in range(5):
            code = random_linear_rank_code(RankParams(4, 3, 1), 3, rng.substream(i))
            table = list_size_table(code, 1)
            idx = np.arange(1 << 12, dtype=np.int64)
            for c in code.codeword_array():
                assert (table[idx ^ c] == table).all()

    def test_weighted_tail_identity(self):
        rng = Rng(64, 0)
        for i in range(10):
            code = random_linear_rank_code(RankParams(4, 3, 1), 4, rng.substream(i))
            r = rng.integer(0, 4)
            prof = list_profile(code, r)
            _, q1 = tail_stats(prof, 1)
            expected = Fraction(rank_ball_size(2, 4, 3, r) * (1 << code.effective_dim), 1 << 12)
            assert q1 == expected


class TestCertifyRank:
    def test_zero_code_decodable(self):
        assert certify(zero_code(3, 3, 1), 1, 1).decodable

    def test_full_space_witness_zero(self):
        params = RankParams(3, 2, 1)
        ball = rank_ball_size(2, 3, 2, 1)
        cert = certify(full_code(3, 2, 1), 1, ball - 1)
        assert not cert.decodable
        assert cert.witness.to_flat() == 0

    def test_matches_naive_recount(self):
        code = random_linear_rank_code(RankParams(4, 3, 2), 3, Rng(65, 1))
        cert = certify(code, 1, 2)
        naive = rank_list_profile_naive(code, 1)
        assert cert.decodable == (naive.max_ell <= 2)
        assert cert.max_list == naive.max_ell


def rank_code_from_ints(m: int, n: int, gens) -> RankCode:
    return RankCode(RankParams(m, n, 1), tuple(BitMatrix.from_flat(m, n, g) for g in gens))


def rank_certificate_fields(cert):
    witness = None if cert.witness is None else cert.witness.to_flat()
    return cert.decodable, cert.max_list, witness, cert.checked_count


def rank_table_certificate(table: np.ndarray, max_list: int):
    ok, witness, max_seen = certify_table(table, max_list)
    return ok, max_seen, witness, len(table)


@st.composite
def rank_codes(draw):
    m, n = draw(st.sampled_from([(1, 1), (2, 2), (3, 2), (3, 3), (4, 3), (4, 4), (6, 2)]))
    word = st.integers(0, (1 << (m * n)) - 1)
    gens = draw(st.lists(word | st.just(0), max_size=6))
    if len(gens) >= 2 and draw(st.booleans()):
        gens.append(gens[0] ^ gens[-1])
    return rank_code_from_ints(m, n, gens)


class TestRankCosetEngine:
    @settings(max_examples=100, deadline=None)
    @given(rank_codes(), st.data())
    def test_matches_naive_oracle(self, code, data):
        m, n = code.params.m, code.params.n
        radius = data.draw(st.integers(0, n))
        max_list = data.draw(st.integers(1, 6))
        ranks = rank_table(m, n)
        centers = np.arange(1 << (m * n), dtype=np.int64)
        naive = np.zeros(len(centers), dtype=np.int64)
        for c in code.codeword_array():
            naive += ranks[centers ^ c] <= radius
        assert list_profile(code, radius) == rank_list_profile_naive(code, radius)
        assert rank_certificate_fields(certify(code, radius, max_list)) == (
            rank_table_certificate(naive, max_list)
        )

    @pytest.mark.parametrize("m,n,k", [(5, 4, 6), (6, 3, 8), (4, 4, 0)])
    def test_matches_scatter(self, m, n, k):
        for seed in range(2):
            code = random_linear_rank_code(RankParams(m, n, 1), k, Rng(67, seed))
            for radius in range(min(n, 2) + 1):
                table = list_size_table(code, radius)
                assert list_profile(code, radius) == profile_from_table(table, n, radius)
                top = int(table.max())
                for max_list in {max(1, top - 1), top}:
                    assert rank_certificate_fields(certify(code, radius, max_list)) == (
                        rank_table_certificate(table, max_list)
                    )


class TestRankBallCache:
    def test_read_only_and_not_rescanned(self, tmp_path):
        first = rank_ball_masks(4, 3, 1)
        assert not first.flags.writeable
        with pytest.raises(ValueError):
            first[0] = 1

        # The 2^(mn) rank table and its automaton live only in the test oracle.
        assert not hasattr(rankmetric, "rank_table")
        assert not hasattr(rankmetric, "_row_space_automaton")
        assert rank_ball_masks(4, 3, 1) is first
        assert len(first) == rank_ball_size(2, 4, 3, 1)
        # Every production rank path, with the balls rebuilt.
        rank_ball_masks.cache_clear()
        code = random_linear_rank_code(RankParams(4, 3, 1), 4, Rng(5, 0))
        assert list_profile(code, 1).max_ell == 3
        cert = certify(code, 1, 2)
        assert cert.witness == BitMatrix.from_string("000\n000\n001\n000")
        assert certify_rank(code, 1, 2) == cert
        step = check_potential_step(code, 0.5, 1)
        assert check_rank_potential_step(code, 0.5, 1) == step
        common = ["--m", "4", "--n", "3", "--radius", "1", "--seed", "5", "--out"]
        profile_args = ["rank", "profile", "--k", "3", "--epsilon", "0.5", *common]
        assert cli_main([*profile_args, str(tmp_path / "profile.json")]) == 0
        certify_args = ["rank", "certify", "--k", "4", "--max-list", "2", *common]
        assert cli_main([*certify_args, str(tmp_path / "witness.json")]) == 1
        assert np.array_equal(rank_ball_masks(4, 3, 1), first)


class TestRankArray:
    SHAPES = [(1, 1), (2, 2), (3, 2), (4, 3), (4, 4), (6, 4), (5, 5), (10, 3), (30, 1)]

    @settings(max_examples=100, deadline=None)
    @given(st.sampled_from(SHAPES), st.data())
    def test_matches_row_elimination(self, shape, data):
        m, n = shape
        words = data.draw(st.lists(st.integers(0, (1 << (m * n)) - 1), max_size=32))
        expected = [rank_of_ints(BitMatrix.from_flat(m, n, w).rows) for w in words]
        assert rank_array(np.array(words, dtype=np.int64), m, n).tolist() == expected

    def test_witness_recount_is_by_rank_distance(self):
        code = random_linear_rank_code(RankParams(4, 3, 1), 4, Rng(5, 0))
        cert = certify(code, 1, 2)
        words = [BitMatrix.from_flat(4, 3, int(w)) for w in code.codeword_array()]
        listed = sum((cert.witness ^ w).rank() <= 1 for w in words)
        assert listed > 2
        assert listsize.recount_center(code, cert.witness.to_flat(), 1) == listed


class TestDirectRankBall:
    SHAPES = [(m, n) for n in range(1, 5) for m in range(n, 21) if m * n <= 20]

    @pytest.mark.parametrize("m,n", SHAPES)
    def test_matches_rank_table(self, m, n):
        ranks = rank_table(m, n)
        for radius in range(n + 1):
            assert np.array_equal(rank_ball_masks(m, n, radius), np.flatnonzero(ranks <= radius))

    def test_oversized_ball_raises_at_once(self, monkeypatch):
        def unreachable(*args):
            raise AssertionError("enumerated before the cap")

        monkeypatch.setattr(rankmetric, "_independent_tuples", unreachable)
        with pytest.raises(ResourceLimitError):
            rank_ball_masks(10, 6, 2)


@st.composite
def step_rank_codes(draw):
    """A rank code with mn <= 16 (zero and dependent generators among random
    ones, or the full space), a radius and an epsilon."""
    m, n = draw(st.sampled_from(
        [(1, 1), (2, 1), (3, 1), (2, 2), (3, 2), (4, 2), (3, 3), (4, 3), (5, 3), (6, 2), (8, 2),
         (4, 4), (16, 1)]
    ))
    word = st.integers(0, (1 << (m * n)) - 1)
    gens = draw(st.lists(word | st.just(0), max_size=5))
    if len(gens) >= 2 and draw(st.booleans()):
        gens.append(gens[0] ^ gens[-1])
    # The full space only up to 2^12 centers: beyond, the oracle's scatter
    # table exceeds its increments cap.
    if m * n <= 12 and draw(st.integers(0, 9)) == 0:
        code = full_code(m, n, 1)
    else:
        code = rank_code_from_ints(m, n, gens)
    # Radius at most 1 beyond 2^12 centers: a larger ball there leaves
    # thousands of cosets off the most common list size, and the pairs of
    # those dominate the run time.
    radius = draw(st.integers(0, n if m * n <= 12 else 1))
    return code, radius, draw(st.floats(0.02, 1.0))


class TestRankStepEngine:
    """check_potential_step on rank codes against the dense oracle over all
    2^(mn) candidates."""

    @settings(max_examples=50, deadline=None)
    @given(step_rank_codes())
    def test_matches_dense_oracle(self, drawn):
        code, radius, eps = drawn
        params = code.params
        ball = rank_ball_masks(params.m, params.n, radius)
        report = check_potential_step(code, eps, radius)
        assume(affordable(report, code.basis, ball, params.universe_bits))
        assert report == dense_potential_step(code, eps, radius)

    @settings(max_examples=25, deadline=None)
    @given(step_rank_codes())
    def test_decided_alike_in_intervals(self, drawn):
        # With an infinite margin the hypothesis, the prefilter's threshold,
        # every class and P < sqrt(T) are all decided in intervals.
        code, radius, eps = drawn
        assume(code.params.universe_bits - code.basis.dim <= 10)
        report = check_potential_step(code, eps, radius)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(precise, "RECHECK_MARGIN", float("inf"))
            assert check_potential_step(code, eps, radius) == report

    def test_benchmark_shape_decided_at_potential_prec(self, monkeypatch):
        # 4 x 4 codes of dimension 4 at radius 1 and epsilon 0.5: every
        # decision lies far outside its margin, so none runs in intervals.
        calls = []
        real = precise.certified

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(precise, "certified", counted)
        codes = [random_linear_rank_code(RankParams(4, 4, 1), 4, Rng(70, i)) for i in range(20)]
        reports = [check_potential_step(code, 0.5, 1) for code in codes]
        assert calls == []
        assert sum(report.probability > 0 for report in reports) >= 10

    def test_benchmark_shape_sweep(self):
        # 4 x 4 codes of dimension 4 at radius 1 and epsilon 0.5.
        exceeding = 0
        for i in range(6):
            code = random_linear_rank_code(RankParams(4, 4, 1), 4, Rng(68, i))
            report = check_potential_step(code, 0.5, 1)
            assert report == dense_potential_step(code, 0.5, 1)
            exceeding += report.probability > 0
        assert exceeding >= 3

    def test_every_class_rechecked(self, monkeypatch):
        rng = Rng(69, 0)
        cases = []
        for i in range(12):
            m, n = [(4, 2), (3, 3), (5, 2)][i % 3]
            code = random_linear_rank_code(RankParams(m, n, 1), rng.integer(0, 4), rng.substream(i))
            eps = rng.uniform(0.3, 0.8)
            cases.append((code, eps, dense_potential_step(code, eps, 1)))
        monkeypatch.setattr(precise, "RECHECK_MARGIN", float("inf"))
        for code, eps, oracle in cases:
            assert check_potential_step(code, eps, 1) == oracle
        assert sum(oracle.probability > 0 for _, _, oracle in cases) >= 6

    def test_oversized_quotient_raises_at_once(self, monkeypatch):
        def unreachable(*args):
            raise AssertionError("ball built before the cap")

        monkeypatch.setattr(rankmetric, "rank_ball_masks", unreachable)
        with pytest.raises(ResourceLimitError):
            check_potential_step(zero_code(5, 4, 1), 0.5, 1)

    @pytest.mark.parametrize("m,n,radius", [(16, 1, 1), (5, 3, 3), (8, 2, 2)])
    def test_ball_covering_the_space(self, m, n, radius):
        # Every coset has list size 1: no coset deviates from the most common
        # list size, so no pair is enumerated.
        code = zero_code(m, n, radius)
        report = check_potential_step(code, 0.2, radius)
        assert report.hypothesis_met
        assert report == dense_potential_step(code, 0.2, radius)


class TestRankBounds:
    def test_sandwich_small_shapes(self):
        for m, n in [(2, 2), (3, 3), (4, 3), (4, 4), (5, 4)]:
            for r in range(n + 1):
                assert check_rank_ball_bounds(2, m, n, r).holds


class TestRankPotential:
    def test_zero_code_closed_form(self):
        # exponent eps*n/(1+eps) uses the matrix width n = 3, not mn = 12
        prof = list_profile(zero_code(4, 3, 1), 1)
        state = potential(prof, 1.0)
        expected = 1 + (2**1.5 - 1) * rank_ball_size(2, 4, 3, 1) / 2**12
        assert state.value_float == pytest.approx(expected, rel=1e-12)

    def test_zero_code_baseline_bound(self):
        report = baseline_potential_bound(RankParams(4, 3, 1), 1.0)
        assert report.holds
        assert report.bound == pytest.approx(1 + 4 * 2 ** (6 - 12), rel=1e-12)

    def test_step_check_exact(self):
        rng = Rng(66, 0)
        checked = 0
        for i in range(8):
            params = RankParams(4, 3, 1)
            code = random_linear_rank_code(params, rng.integer(0, 3), rng.substream(i))
            report = check_potential_step(code, rng.uniform(0.2, 0.8), 1)
            if report.hypothesis_met and not report.degenerate:
                checked += 1
                assert report.holds
        assert checked >= 4

    def test_step_check_sixteen_bit_universe(self):
        code = random_linear_rank_code(RankParams(4, 4, 1), 2, Rng(66, 99))
        report = check_potential_step(code, 0.4, 1)
        assert report.hypothesis_met
        assert report.holds
