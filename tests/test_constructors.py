"""Random, guided and resampled constructors: contracts and dynamics."""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from listdec import (
    BitVector,
    CodeTable,
    ConstructionError,
    InvalidParameterError,
    MoserTardosResult,
    ResourceLimitError,
    Rng,
    certify,
    hamming_volume,
    list_profile,
    lll_condition,
    moser_tardos_construct,
    potential_guided_code,
    random_linear_code,
    uniform_random_code,
)
from listdec import LinearCode, PotentialTrace, constructors, limits, listsize, precise
from listdec.constructors import DEFAULT_MAX_RETRIES, ResampleEvent, StepRecord
from listdec.gf2 import SpanBasis, ball_masks, popcount_array
from listdec.listsize import HammingMetric, potential, row_profile, scatter_table
from naive_oracle import certify_table, profile_from_table, verify_trace
from step_oracle import dense_potential_step


class TestRandomLinear:
    def test_dimension_zero_is_trivial_code(self):
        code = random_linear_code(8, 0, Rng(1, 0))
        assert code.size == 1
        assert list(code.codeword_array()) == [0]

    def test_seed_replay(self):
        a = random_linear_code(12, 5, Rng(42, 7))
        b = random_linear_code(12, 5, Rng(42, 7))
        assert a.generators == b.generators

    def test_rank_deficiency_rate(self):
        # Union bound: P[dim < k] <= 2^-(n-k); assert the 4x-slack fraction.
        deficient = sum(
            1
            for i in range(1000)
            if random_linear_code(20, 10, Rng(2024, i)).effective_dim < 10
        )
        assert deficient / 1000 <= 2**-8

    def test_range_validation(self):
        with pytest.raises(InvalidParameterError):
            random_linear_code(10, 11, Rng(1, 0))


class TestUniformRandom:
    def test_single_word(self):
        table = uniform_random_code(9, 1, Rng(2, 0))
        assert table.num_messages == 1

    def test_seed_replay(self):
        a = uniform_random_code(10, 30, Rng(3, 1))
        b = uniform_random_code(10, 30, Rng(3, 1))
        assert a.words == b.words

    def test_birthday_collision_rate(self):
        total = 0
        for i in range(100):
            words = uniform_random_code(10, 128, Rng(2024, 1000 + i)).codeword_array()
            _, counts = np.unique(words, return_counts=True)
            total += int((counts * (counts - 1) // 2).sum())
        mean = total / 100
        expected = math.comb(128, 2) / 1024
        sigma = math.sqrt(expected / 100)
        assert abs(mean - expected) <= 3 * sigma

    def test_range_validation(self):
        with pytest.raises(InvalidParameterError):
            uniform_random_code(4, 17, Rng(1, 0))


@dataclass(frozen=True)
class TupleCodeTable(HammingMetric):
    """Oracle twin of CodeTable: the words as a tuple of BitVectors, as the
    table was held before it became one array."""

    n: int
    words: tuple[BitVector, ...]

    @property
    def num_messages(self) -> int:
        return len(self.words)

    @property
    def rate(self) -> float:
        return math.log2(len(self.words)) / self.n if self.words else float("-inf")

    def codeword_array(self) -> np.ndarray:
        return np.array([w.bits for w in self.words], dtype=np.int64)


def word_lists(n):
    return st.lists(st.integers(0, (1 << n) - 1), max_size=40)


class TestCodeTable:
    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 12).flatmap(lambda n: st.tuples(st.just(n), word_lists(n), word_lists(n))),
           st.data())
    def test_matches_tuple_semantics(self, drawn, data):
        n, ints, other = drawn
        table = CodeTable(n, ints)
        twin = TupleCodeTable(n, tuple(BitVector(n, w) for w in ints))
        assert table.words == twin.words
        assert table.num_messages == twin.num_messages
        assert table.rate == twin.rate
        other_twin = TupleCodeTable(n, tuple(BitVector(n, w) for w in other))
        assert (table == CodeTable(n, other)) == (twin == other_twin)
        assert table == CodeTable(n, np.array(ints, dtype=np.int64))
        assert hash(table) == hash(CodeTable(n, tuple(ints)))
        radius = data.draw(st.integers(0, n))
        max_list = data.draw(st.integers(1, 4))
        assert list_profile(table, radius) == list_profile(twin, radius)
        assert certify(table, radius, max_list) == certify(twin, radius, max_list)

    def test_lengths_differ_so_tables_differ(self):
        assert CodeTable(4, (1, 2)) != CodeTable(5, (1, 2))
        assert CodeTable(4, ()) == CodeTable(4, [])

    def test_array_is_read_only(self):
        table = CodeTable(6, (3, 5, 7))
        with pytest.raises(ValueError):
            table.array[0] = 1
        with pytest.raises(ValueError):
            table.codeword_array()[1] = 0
        assert table.codeword_array() is table.array
        assert list(table.array) == [3, 5, 7]

    def test_caller_array_stays_writable(self):
        words = np.array([1, 2], dtype=np.int64)
        table = CodeTable(3, words)
        words[0] = 4
        assert list(table.array) == [1, 2]

    @pytest.mark.parametrize(
        "n,words",
        [(3, (8,)), (3, (-1,)), (0, ()), (63, ()), (4, (1.5,)), (4, [[1, 2]]), (4, (1 << 70,))],
    )
    def test_invalid_words_or_length(self, n, words):
        with pytest.raises(InvalidParameterError):
            CodeTable(n, words)

    def test_no_bitvector_per_message(self, monkeypatch):
        built = []
        check = BitVector.__post_init__

        def counting(self):
            built.append(self.bits)
            check(self)

        monkeypatch.setattr(BitVector, "__post_init__", counting)
        res = moser_tardos_construct(18, 1, 4000, 3, Rng(7, 0))
        cert = certify(res.code, 1, 3)
        assert res.code.num_messages == 4000
        assert len(built) <= (0 if cert.witness is None else 1)
        # The boundary view builds them all, once.
        before = len(built)
        assert res.code.words is res.code.words
        assert len(built) == before + 4000


class TestGuidedBuilder:
    def test_zero_steps_matches_closed_form(self):
        n, r, eps = 14, 2, 0.35
        _, trace = potential_guided_code(n, 0, r, eps, Rng(4, 0))
        e = eps * n / (1 + eps)
        expected = 1 + (2**e - 1) * hamming_volume(n, r) / 2**n
        assert trace.records[0].value == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize(
        "args,kwargs",
        [((8, 2, 1, math.inf), {}), ((8, 2, 1, 0.5), {"max_retries_per_step": -1})],
    )
    def test_infinite_epsilon_or_negative_retries_rejected(self, args, kwargs):
        with pytest.raises(InvalidParameterError):
            potential_guided_code(*args, Rng(4, 0), **kwargs)

    def test_accepts_with_few_retries(self):
        good = 0
        for i in range(100):
            code, trace = potential_guided_code(16, 4, 1, 0.5, Rng(2024, 2000 + i))
            assert code.effective_dim == 4
            if trace.total_retries <= 3:
                good += 1
        assert good >= 95

    def test_excess_at_least_doubles(self):
        _, trace = potential_guided_code(16, 5, 1, 0.4, Rng(5, 0))
        for prev, cur in zip(trace.records, trace.records[1:]):
            assert cur.excess >= 2 * prev.excess * (1 - 1e-12)

    def test_trace_matches_recomputation(self):
        code, trace = potential_guided_code(14, 4, 2, 0.3, Rng(6, 0))
        assert verify_trace(code, trace) <= 1e-10

    def test_determinism(self):
        a = potential_guided_code(14, 3, 1, 0.5, Rng(7, 3))
        b = potential_guided_code(14, 3, 1, 0.5, Rng(7, 3))
        assert a[0].generators == b[0].generators
        assert a[1] == b[1]

    def test_rebuild_hits_the_power_cache(self):
        # The build fills power_bracket and potential's cache from empty (a
        # warm potential cache would ask power_bracket for nothing); the
        # identical rebuild reads every power and every state from them.
        assert listsize.power_bracket.cache_info().maxsize is not None
        listsize.power_bracket.cache_clear()
        listsize.potential.cache_clear()
        first = potential_guided_code(20, 6, 2, 0.2, Rng(2024, 0))
        misses = listsize.power_bracket.cache_info().misses
        assert misses > 0
        state_misses = listsize.potential.cache_info().misses
        second = potential_guided_code(20, 6, 2, 0.2, Rng(2024, 0))
        assert listsize.power_bracket.cache_info().misses == misses
        assert listsize.potential.cache_info().misses == state_misses
        assert second[0].generators == first[0].generators
        assert second[1] == first[1]

    @pytest.mark.parametrize(
        "args,kwargs",
        [
            ((20, 6, 2, 0.2), {}),
            ((14, 5, 2, 0.3), {"rule": "square"}),
            ((14, 7, 2, 0.6), {"max_retries_per_step": 2}),
            ((8, 2, 8, 1.0), {"max_retries_per_step": 3}),
        ],
    )
    @pytest.mark.parametrize("seed", range(4))
    def test_code_carries_the_builders_basis(self, args, kwargs, seed):
        # The returned code, or the partial one of a ConstructionError, holds
        # the builder's SpanBasis, pivot for pivot in the same order as one
        # rebuilt from its generators, and certifies like a fresh code.
        outcome = guided_outcome(potential_guided_code, *args, Rng(61, seed), **kwargs)
        code = outcome[-2]
        assert "basis" in vars(code)
        rebuilt = SpanBasis(g.bits for g in code.generators)
        assert list(code.basis.pivots.items()) == list(rebuilt.pivots.items())
        n, radius = args[0], args[2]
        for max_list in (1, 4):
            fresh = LinearCode(n, code.generators)
            assert certify(code, radius, max_list) == certify(fresh, radius, max_list)

    def test_potential_only_for_accepted_candidates(self, monkeypatch):
        # Candidates are decided in float64: the exact potential runs for
        # the empty code and for each accepted generator, rejected candidates
        # get none, and no step evaluates another one for its threshold.
        calls = {"potential": 0, "listsize.potential": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(constructors, "potential", counted("potential", potential))
        monkeypatch.setattr(listsize, "potential", counted("listsize.potential", potential))
        k = 5
        code, trace = potential_guided_code(12, k, 2, 0.6, Rng(88, 0))
        assert code.effective_dim == k and trace.total_retries > 0
        assert calls == {"potential": k + 1, "listsize.potential": 0}

    def test_profile_only_for_accepted_candidates(self, monkeypatch):
        # A candidate is scored from its row of coset counts; a profile is
        # built, from the same row, for the empty code and for each accepted
        # generator only, and no candidate's multiplicities are counted twice.
        calls = []

        def counted(*args):
            calls.append(args)
            return row_profile(*args)

        def uncounted(*args):
            raise AssertionError("coset_profile recounts a scored row")

        monkeypatch.setattr(constructors, "row_profile", counted)
        monkeypatch.setattr(listsize, "coset_profile", uncounted)
        k = 5
        code, trace = potential_guided_code(12, k, 2, 0.6, Rng(88, 0))
        assert code.effective_dim == k and trace.total_retries > 0
        assert len(calls) == k + 1

    def test_square_rule_variant(self):
        code, trace = potential_guided_code(12, 3, 1, 0.5, Rng(8, 0), rule="square")
        assert code.effective_dim == 3
        assert trace.rule == "square"

    def test_retry_budget_exhaustion(self):
        # At radius n every extension doubles the exponent, so any candidate
        # outside the span is rejected and the budget runs out at step 1.
        with pytest.raises(ConstructionError) as info:
            potential_guided_code(8, 2, 8, 1.0, Rng(58, 0), max_retries_per_step=3)
        partial_code, partial_trace = info.value.partial
        assert len(partial_trace.records) == 1
        assert partial_code.effective_dim == 0


def dense_guided_code(
    n, k, radius, epsilon, rng, max_retries_per_step=DEFAULT_MAX_RETRIES, rule="step"
):
    """Oracle twin of potential_guided_code: the 2^n-table loop.  Each
    candidate b gets the full list-size table table + table[x ^ b], its
    histogram and its potential.  The accept is decided at 600 bits from that
    histogram; two sides within 2^-500 of each other are taken as the exact
    tie they are at these sizes, which accepts."""

    def decide(profile, cand_profile):
        with mpmath.workprec(600):
            e = mpmath.mpf(epsilon) * n / (1 + mpmath.mpf(epsilon))

            def value(p):
                return sum(c * mpmath.mpf(2) ** (e * ell) for ell, c in p.counts) / mpmath.mpf(2) ** n

            s, s_new = value(profile), value(cand_profile)
            t = s - 1
            bound = 1 + 2 * t + t ** mpmath.mpf(1.5) if rule == "step" else s * s
            return abs(s_new - bound) <= mpmath.mpf(2) ** -500 * bound or s_new <= bound

    basis = SpanBasis()
    gens = []
    table = scatter_table(np.zeros(1, dtype=np.int64), ball_masks(n, radius), n)
    profile = profile_from_table(table, n, radius)
    state = potential(profile, epsilon)
    records = [StepRecord(step=0, value=state.value_float, excess=state.excess_float, retries=0)]
    idx = np.arange(1 << n, dtype=np.int64)

    def fail(msg):
        trace = PotentialTrace(n=n, radius=radius, epsilon=epsilon, rule=rule, records=tuple(records))
        raise ConstructionError(msg, partial=(LinearCode(n, tuple(gens)), trace))

    for step in range(1, k + 1):
        retries = 0
        draws = 0
        while True:
            draws += 1
            if draws > 64 * (max_retries_per_step + 1):
                fail(f"step {step}: candidate supply exhausted")
            b = rng.bits(n)
            if basis.contains(b):
                if basis.dim == n:
                    fail(f"step {step}: span is already the full space")
                continue
            candidate = table + table[idx ^ np.int64(b)]
            cand_profile = profile_from_table(candidate, n, radius)
            if decide(profile, cand_profile):
                basis.insert(b)
                gens.append(BitVector(n, b))
                table, profile = candidate, cand_profile
                state = potential(profile, epsilon)
                records.append(
                    StepRecord(step=step, value=state.value_float, excess=state.excess_float, retries=retries)
                )
                break
            retries += 1
            if retries > max_retries_per_step:
                fail(f"step {step}: retry budget exhausted")
    trace = PotentialTrace(n=n, radius=radius, epsilon=epsilon, rule=rule, records=tuple(records))
    return LinearCode(n, tuple(gens)), trace


def guided_outcome(construct, *args, **kwargs):
    try:
        code, trace = construct(*args, **kwargs)
    except ConstructionError as exc:
        code, trace = exc.partial
        return ("error", str(exc), code, trace)
    return ("ok", code, trace)


@st.composite
def guided_points(draw):
    n = draw(st.integers(1, 12))
    k = draw(st.integers(0, n))
    radius = draw(st.integers(0, n))
    epsilon = draw(st.sampled_from([0.1, 0.2, 0.3, 0.5, 1.0]) | st.floats(0.05, 2.0))
    rule = draw(st.sampled_from(["step", "square"]))
    retries = draw(st.integers(0, 4))
    seed = draw(st.integers(0, 2**32 - 1))
    return n, k, radius, epsilon, rule, retries, seed


class TestGuidedOracle:
    @settings(max_examples=200, deadline=None)
    @given(guided_points())
    def test_matches_dense_oracle(self, point):
        n, k, radius, epsilon, rule, retries, seed = point
        args = (n, k, radius, epsilon)
        kwargs = {"max_retries_per_step": retries, "rule": rule}
        fast = guided_outcome(potential_guided_code, *args, Rng(seed, 2), **kwargs)
        slow = guided_outcome(dense_guided_code, *args, Rng(seed, 2), **kwargs)
        assert fast == slow

    # (20, 6, 2, 0.2) is the C09 point; (12, 5, 2, 0.6) rejects often; the
    # square rule at (3, 1, 1) and (4, 1, 4) meets exact ties S_new = S^2.
    SWEEP = (
        ((20, 6, 2, 0.2), "step", range(8)),
        ((12, 5, 2, 0.6), "step", range(30)),
        ((14, 5, 2, 0.3), "square", range(30)),
        ((3, 1, 1, 0.5), "square", range(5)),
        ((4, 1, 4, 0.5), "square", range(5)),
        ((2, 1, 2, 1.0), "step", range(5)),
    )

    def sweep_against_oracle(self):
        outcomes = []
        for args, rule, seeds in self.SWEEP:
            for seed in seeds:
                fast = guided_outcome(potential_guided_code, *args, Rng(88, seed), rule=rule)
                slow = guided_outcome(dense_guided_code, *args, Rng(88, seed), rule=rule)
                assert fast == slow, (args, rule, seed)
                outcomes.append(fast)
        assert sum(o[0] == "ok" and o[2].total_retries > 0 for o in outcomes) >= 5
        assert any(o[0] == "error" for o in outcomes)

    def test_guided_sweep_matches_600_bit_decisions(self):
        self.sweep_against_oracle()

    def test_every_accept_rechecked_matches_600_bit_decisions(self, monkeypatch):
        # With no margin left to the prefilter, every accept is decided by the
        # exact tie test or by certified intervals.
        monkeypatch.setattr(precise, "RECHECK_MARGIN", float("inf"))
        self.sweep_against_oracle()

    @pytest.mark.filterwarnings("error")
    def test_overflow_regime_matches_dense_oracle(self):
        # At eps = 100 the square rule passes S > 2^1023 within a few steps;
        # from there both float sides are inf, and each accept is decided by
        # the exact tie test or in certified intervals.
        args = (12, 9, 6, 100.0)
        for rule in ("step", "square"):
            for seed in range(3):
                kwargs = {"max_retries_per_step": 3, "rule": rule}
                fast = guided_outcome(potential_guided_code, *args, Rng(31, seed), **kwargs)
                slow = guided_outcome(dense_guided_code, *args, Rng(31, seed), **kwargs)
                assert fast == slow, (rule, seed)
                if rule == "square":
                    assert fast[0] == "ok" and math.isinf(fast[2].records[-1].value)

    @pytest.mark.filterwarnings("error")
    def test_step_check_past_float_range(self):
        # S of a (12, 9) code at r = 6, eps = 100 is past 2^1023: its float
        # is inf, and T < 1 is decided False in intervals, with no warning.
        report = listsize.check_potential_step(random_linear_code(12, 9, Rng(31, 0)), 100.0, 6)
        assert not report.hypothesis_met and not report.holds
        assert math.isinf(report.excess) and math.isinf(report.markov_bound)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("top", [1022.9, 1023.1, 1024.5, 1025.9, 1026.1, 1027.5])
    def test_overflow_guard_boundary_matches_dense_oracle(self, top):
        # At radius n every list size is |C|, so the square rule accepts each
        # candidate by an exact tie.  Step 7 has width 2^7 + 1 and 2^3
        # cosets: its e (width - 1) = 128 e lands just below 1023 (1022.9),
        # just above it (1023.1) and past float range (1024.5), and
        # e (width - 1) - 3, the exponent of its largest power, where
        # potential_powers guards against overflow, does the same at
        # 1025.9, 1026.1 and 1027.5.  No warning is raised, and the build
        # and the step checks of its prefixes at dimensions 6 and 7 (S near
        # 2^1023 at 7) agree with the dense oracles.
        e = top / 128
        epsilon = e / (10 - e)
        args = (10, 8, 10, epsilon)
        kwargs = {"max_retries_per_step": 0, "rule": "square"}
        fast = guided_outcome(potential_guided_code, *args, Rng(5, 0), **kwargs)
        slow = guided_outcome(dense_guided_code, *args, Rng(5, 0), **kwargs)
        assert fast == slow and fast[0] == "ok"
        for dim in (6, 7):
            prefix = LinearCode(10, fast[1].generators[:dim])
            report = listsize.check_potential_step(prefix, epsilon, 10)
            assert report == dense_potential_step(prefix, epsilon, 10)

    def test_exact_tie_accepts(self):
        # At radius n with |C| = 1, S = 2^e; e = 1 at (n, eps) = (2, 1.0), so
        # T = 1 and S_new = 4 = 1 + 2T + T^1.5 exactly.
        code, trace = potential_guided_code(2, 1, 2, 1.0, Rng(3, 0), max_retries_per_step=0)
        assert code.effective_dim == 1
        assert trace.records[1].value == 4.0


class TestLLLCondition:
    def test_feasible_point(self):
        report = lll_condition(14, 2, 8, 3)
        assert report.p_bad == Fraction(106, 16384) ** 4
        assert report.degree == (1 << 14) * 4 * 8**3
        assert report.feasible
        assert 2**report.product_log2 == pytest.approx(0.1598, abs=2e-3)

    def test_full_space_infeasible(self):
        report = lll_condition(6, 6, 8, 3)
        assert report.p_bad == 1
        assert not report.feasible

    def test_message_guard(self):
        with pytest.raises(InvalidParameterError):
            lll_condition(10, 1, 3, 3)

    def test_p_bad_below_float_range(self):
        # p_bad = (31 / 2^30)^51 is about 2^-1277, below the least subnormal.
        report = lll_condition(30, 1, 60, 50)
        assert float(report.p_bad) == 0
        with mpmath.workprec(200):
            exact = mpmath.log(mpmath.e * mpmath.mpf(report.p_bad.numerator)
                               / report.p_bad.denominator * (report.degree + 1), 2)
        assert report.product_log2 == pytest.approx(float(exact), rel=1e-12)
        assert report.feasible

    # Products from 0 in floats (underflow) through 0.17-5.0 to past float
    # range: 144 points, 50 of them feasible.
    GRID = [
        (n, r, m, l)
        for n in (4, 10, 18, 30)
        for r in (0, 1, 3)
        for l in (1, 3, 8, 50)
        for m in (l + 1, 4000, 1 << 40)
    ]

    def test_float_decision_matches_intervals(self, monkeypatch):
        fast = [lll_condition(*point).feasible for point in self.GRID]
        # An infinite margin settles no float pair: every decision is certified.
        monkeypatch.setattr(precise, "RECHECK_MARGIN", math.inf)
        assert fast == [lll_condition(*point).feasible for point in self.GRID]
        assert sum(fast) == 50

    def test_benchmark_point_decides_in_floats(self, monkeypatch):
        def unreachable(*args):
            raise AssertionError("the benchmark point went to intervals")

        monkeypatch.setattr(precise, "certified_less", unreachable)
        report = lll_condition(18, 1, 4000, 3)
        assert not report.feasible
        assert 2**report.product_log2 == pytest.approx(5.034, abs=1e-3)


class TestMoserTardos:
    def test_trivial_when_list_budget_covers_messages(self):
        res = moser_tardos_construct(8, 3, 4, 4, Rng(9, 0))
        assert res.rounds == 0

    def test_distinct_forcing_radius_zero(self):
        for seed in range(5):
            res = moser_tardos_construct(3, 0, 4, 1, Rng(55, seed))
            words = [w.bits for w in res.code.words]
            assert len(set(words)) == 4
            assert certify(res.code, 0, 1).decodable

    def test_terminates_and_certifies(self):
        for seed in range(10):
            res = moser_tardos_construct(8, 1, 16, 2, Rng(56, seed))
            assert certify(res.code, 1, 2).decodable
            assert res.rounds <= 160

    def test_resample_audit_log(self):
        # Replaying the event log must show every resampled message inside
        # the violated ball, and reproduce the final table.
        res = moser_tardos_construct(8, 1, 16, 2, Rng(56, 3))
        assert res.rounds > 0
        words = list(Rng(56, 3).bit_array(8, 16))
        for event in res.events:
            inside = {
                i for i, w in enumerate(words) if bin(int(w) ^ event.center).count("1") <= 1
            }
            assert set(event.message_indices) == inside
            assert tuple(int(words[i]) for i in event.message_indices) == event.old_words
            for i, new in zip(event.message_indices, event.new_words):
                words[i] = new
        assert [int(w) for w in words] == [w.bits for w in res.code.words]

    def test_determinism(self):
        a = moser_tardos_construct(8, 1, 16, 2, Rng(56, 3))
        b = moser_tardos_construct(8, 1, 16, 2, Rng(56, 3))
        assert a.code == b.code
        assert a.events == b.events

    def test_round_budget_exhaustion(self):
        # Four words never fit radius-1 balls of F_2^2 with list size 1.
        with pytest.raises(ConstructionError) as info:
            moser_tardos_construct(2, 1, 4, 1, Rng(57, 0), max_rounds=5)
        assert info.value.partial.num_messages == 4


def rebuild_moser_tardos(n, radius, num_messages, max_list, rng, max_rounds=None):
    """Oracle twin of moser_tardos_construct: rebuilds the whole list-size
    table from all words every round and scans it for the least overfull
    center."""
    if max_rounds is None:
        max_rounds = 10 * num_messages
    ball = ball_masks(n, radius)
    words = rng.bit_array(n, num_messages)
    events = []
    rounds = 0
    while True:
        table = scatter_table(words, ball, n)
        ok, witness, _ = certify_table(table, max_list)
        if ok:
            break
        if rounds >= max_rounds:
            raise ConstructionError(
                f"no decodable table after {max_rounds} rounds", partial=CodeTable(n, words)
            )
        inside = np.nonzero(popcount_array(words ^ np.int64(witness)) <= radius)[0]
        old = tuple(int(words[i]) for i in inside)
        fresh = rng.bit_array(n, len(inside))
        words[inside] = fresh
        events.append(
            ResampleEvent(
                round_index=rounds,
                center=int(witness),
                message_indices=tuple(int(i) for i in inside),
                old_words=old,
                new_words=tuple(int(w) for w in fresh),
            )
        )
        rounds += 1
    return MoserTardosResult(code=CodeTable(n, words), rounds=rounds, events=tuple(events))


def mt_outcome(construct, *args, **kwargs):
    try:
        res = construct(*args, **kwargs)
    except ConstructionError as exc:
        return ("error", str(exc), exc.partial)
    return ("ok", res.code, res.rounds, res.events)


@st.composite
def mt_points(draw):
    n = draw(st.integers(1, 12))
    radius = draw(st.integers(0, min(3, n)))
    max_list = draw(st.integers(1, 4))
    cap = min(64, 1 << n)
    # The second branch favours many messages per ball, where rounds are needed.
    messages = draw(st.integers(1, cap) | st.integers(max(1, cap // 2), cap))
    seed = draw(st.integers(0, 2**32 - 1))
    max_rounds = draw(st.one_of(st.none(), st.integers(1, 6)))
    return n, radius, messages, max_list, seed, max_rounds


class TestMoserTardosIncremental:
    @settings(max_examples=150, deadline=None)
    @given(mt_points())
    def test_matches_rebuild_oracle(self, point):
        n, radius, messages, max_list, seed, max_rounds = point
        args = (n, radius, messages, max_list)
        fast = mt_outcome(moser_tardos_construct, *args, Rng(seed, 1), max_rounds=max_rounds)
        slow = mt_outcome(rebuild_moser_tardos, *args, Rng(seed, 1), max_rounds=max_rounds)
        assert fast == slow

    # (12, 1, 64, 2) converges after 0-9 rounds; (10, 2, 40, 2) exhausts 30.
    SWEEP = ((12, 1, 64, 2, None), (10, 2, 40, 2, 30))

    def sweep_against_oracle(self):
        rounds = []
        for *args, max_rounds in self.SWEEP:
            for seed in range(20):
                fast = mt_outcome(
                    moser_tardos_construct, *args, Rng(77, seed), max_rounds=max_rounds
                )
                slow = mt_outcome(rebuild_moser_tardos, *args, Rng(77, seed), max_rounds=max_rounds)
                assert fast == slow
                rounds.append(fast[2] if fast[0] == "ok" else "exhausted")
        assert sum(1 for r in rounds if r != "exhausted" and r > 1) >= 10
        assert rounds.count("exhausted") == 20

    def test_resampling_sweep_matches_oracle(self):
        self.sweep_against_oracle()

    @pytest.mark.parametrize("seed", [5, 6])
    def test_benchmark_point_matches_oracle(self, seed):
        # n = 18, M = 4000: the first table queues dozens of overfull centers
        # and the rounds push more, which the small points above never do.
        args = (18, 1, 4000, 3)
        fast = mt_outcome(moser_tardos_construct, *args, Rng(seed, 2))
        assert fast[0] == "ok" and fast[2] > 20
        assert fast == mt_outcome(rebuild_moser_tardos, *args, Rng(seed, 2))

    def test_chunked_updates_match_oracle(self, monkeypatch):
        # Chunks smaller than one ball: every update spans many chunks, and a
        # center reaches its final count only in its last chunk.
        monkeypatch.setattr(limits, "CHUNK_PAIRS", 5)
        self.sweep_against_oracle()


class TestMoserTardosGuards:
    def test_zero_list_budget_rejected(self):
        with pytest.raises(InvalidParameterError):
            moser_tardos_construct(8, 1, 16, 0, Rng(9, 0))

    def test_table_cap_before_any_draw(self):
        rng = Rng(61, 0)
        with pytest.raises(ResourceLimitError):
            moser_tardos_construct(27, 1, 3, 2, rng)
        assert rng.bits(27) == Rng(61, 0).bits(27)

    def test_increment_cap_before_any_draw(self):
        # M * Vol(26, 13) is about 2^35 increments, far over the 2^30 cap; the
        # 2^25-word ball must not be enumerated.
        rng = Rng(62, 0)
        with pytest.raises(ResourceLimitError):
            moser_tardos_construct(26, 13, 1024, 3, rng)
        assert rng.bits(26) == Rng(62, 0).bits(26)
