"""Random, guided and resampled constructors: contracts and dynamics."""

from __future__ import annotations

import math
from fractions import Fraction

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
    lll_condition,
    moser_tardos_construct,
    potential_guided_code,
    random_linear_code,
    uniform_random_code,
    verify_trace,
)
from listdec import constructors
from listdec.constructors import ResampleEvent
from listdec.gf2 import ball_masks, popcount_array
from listdec.listsize import certify_table, scatter_table


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


class TestGuidedBuilder:
    def test_zero_steps_matches_closed_form(self):
        n, r, eps = 14, 2, 0.35
        _, trace = potential_guided_code(n, 0, r, eps, Rng(4, 0))
        e = eps * n / (1 + eps)
        expected = 1 + (2**e - 1) * hamming_volume(n, r) / 2**n
        assert trace.records[0].value == pytest.approx(expected, rel=1e-12)

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
            partial = CodeTable(n, tuple(BitVector(n, int(w)) for w in words))
            raise ConstructionError(
                f"no decodable table after {max_rounds} rounds", partial=partial
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
    code = CodeTable(n, tuple(BitVector(n, int(w)) for w in words))
    return MoserTardosResult(code=code, rounds=rounds, events=tuple(events))


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

    def test_chunked_updates_match_oracle(self, monkeypatch):
        # Chunks smaller than one ball: every update spans many chunks, and a
        # center reaches its final count only in its last chunk.
        monkeypatch.setattr(constructors, "BALL_CHUNK_PAIRS", 5)
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
