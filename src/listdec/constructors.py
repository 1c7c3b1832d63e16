"""Code generators: random linear, uniform tables, the potential-guided
incremental builder, and a resampling constructor for the local-lemma regime."""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import precise
from .counting import hamming_volume
from .errors import ConstructionError, InvalidParameterError
from .gf2 import BitVector, Rng, SpanBasis, ball_masks, popcount_array
from .listsize import (
    POTENTIAL_PREC,
    LinearCode,
    check_scatter_caps,
    list_size_table,
    potential,
    profile_from_table,
    scatter_table,
)

DEFAULT_MAX_RETRIES = 64
# Bound on the transient center array of one incremental resampling update.
BALL_CHUNK_PAIRS = 1 << 24


@dataclass(frozen=True)
class CodeTable:
    """Message-indexed multiset of codewords (duplicates allowed)."""

    n: int
    words: tuple[BitVector, ...]

    def __post_init__(self):
        for w in self.words:
            if w.n != self.n:
                raise InvalidParameterError("codeword length mismatch")

    @property
    def num_messages(self) -> int:
        return len(self.words)

    @property
    def rate(self) -> float:
        return math.log2(len(self.words)) / self.n if self.words else float("-inf")

    def codeword_array(self) -> np.ndarray:
        return np.array([w.bits for w in self.words], dtype=np.int64)


def random_linear_code(n: int, k: int, rng: Rng) -> LinearCode:
    if not 0 <= k <= n or n > 26:
        raise InvalidParameterError(f"need 0 <= k <= n <= 26, got k = {k}, n = {n}")
    gens = tuple(BitVector(n, rng.bits(n)) for _ in range(k))
    return LinearCode(n, gens)


def uniform_random_code(n: int, num_messages: int, rng: Rng) -> CodeTable:
    if not 1 <= num_messages <= (1 << n):
        raise InvalidParameterError(
            f"message count must be in [1, 2^{n}], got {num_messages}"
        )
    words = tuple(BitVector(n, int(w)) for w in rng.bit_array(n, num_messages))
    return CodeTable(n, words)


@dataclass(frozen=True)
class StepRecord:
    step: int
    value: float
    excess: float
    retries: int


@dataclass(frozen=True)
class PotentialTrace:
    n: int
    radius: int
    epsilon: float
    rule: str
    records: tuple[StepRecord, ...]

    @property
    def total_retries(self) -> int:
        return sum(r.retries for r in self.records)


def potential_guided_code(
    n: int,
    k: int,
    radius: int,
    epsilon: float,
    rng: Rng,
    max_retries_per_step: int = DEFAULT_MAX_RETRIES,
    rule: str = "step",
) -> tuple[LinearCode, PotentialTrace]:
    """Grow a linear code one generator at a time, only accepting candidates
    that keep the potential below the one-step threshold.

    rule "step" accepts when S_new <= 1 + 2T + T^1.5; rule "square" uses the
    in-expectation bound S_new <= S^2 instead.  Candidates already inside the
    span are redrawn without consuming the retry budget.
    """
    if not 0 <= k <= n or n > 26:
        raise InvalidParameterError(f"need 0 <= k <= n <= 26, got k = {k}, n = {n}")
    if rule not in ("step", "square"):
        raise InvalidParameterError(f"unknown acceptance rule {rule!r}")

    def state_of(table: np.ndarray):
        return potential(profile_from_table(table, n, radius), epsilon)

    basis = SpanBasis()
    gens: list[BitVector] = []
    table = scatter_table(np.zeros(1, dtype=np.int64), ball_masks(n, radius), n)
    state = state_of(table)
    records = [StepRecord(step=0, value=state.value_float, excess=state.excess_float, retries=0)]
    idx = np.arange(1 << n, dtype=np.int64)

    def fail(msg: str):
        trace = PotentialTrace(n=n, radius=radius, epsilon=epsilon, rule=rule, records=tuple(records))
        raise ConstructionError(msg, partial=(LinearCode(n, tuple(gens)), trace))

    for step in range(1, k + 1):
        t = state.excess
        s = state.value
        if rule == "step":
            threshold = precise.with_mp(lambda ctx: 1 + 2 * t + t ** ctx.mpf(1.5), POTENTIAL_PREC)
        else:
            threshold = precise.with_mp(lambda ctx: s * s, POTENTIAL_PREC)
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
            cand_state = state_of(candidate)
            if cand_state.value <= threshold:
                basis.insert(b)
                gens.append(BitVector(n, b))
                table = candidate
                state = cand_state
                records.append(
                    StepRecord(
                        step=step,
                        value=state.value_float,
                        excess=state.excess_float,
                        retries=retries,
                    )
                )
                break
            retries += 1
            if retries > max_retries_per_step:
                fail(f"step {step}: retry budget exhausted")
    code = LinearCode(n, tuple(gens))
    trace = PotentialTrace(n=n, radius=radius, epsilon=epsilon, rule=rule, records=tuple(records))
    return code, trace


def verify_trace(code: LinearCode, trace: PotentialTrace) -> float:
    """Recompute every step's potential from scratch; returns the worst
    relative deviation from the tracked values."""
    worst = 0.0
    for i in range(len(code.generators) + 1):
        prefix = LinearCode(code.n, code.generators[:i])
        state = potential(
            profile_from_table(list_size_table(prefix, trace.radius), code.n, trace.radius),
            trace.epsilon,
        )
        tracked = trace.records[i].value
        fresh = state.value_float
        denom = max(abs(fresh), 1.0)
        worst = max(worst, abs(fresh - tracked) / denom)
    return worst


@dataclass(frozen=True)
class LLLReport:
    n: int
    radius: int
    num_messages: int
    max_list: int
    p_bad: Fraction
    degree: int
    product_log2: float
    feasible: bool


def lll_condition(n: int, radius: int, num_messages: int, max_list: int) -> LLLReport:
    """Evaluate e * p_bad * (d + 1) with p_bad = (Vol/2^n)^(L+1) and
    d = 2^n (L+1) M^L; feasible when the product is certifiably below 1."""
    if max_list < 1:
        raise InvalidParameterError(f"max_list must be at least 1, got {max_list}")
    if num_messages < max_list + 1:
        raise InvalidParameterError(
            f"need at least max_list + 1 messages, got {num_messages}"
        )
    if not 0 <= radius <= n:
        raise InvalidParameterError(f"radius must be in [0, {n}], got {radius}")
    mu = Fraction(hamming_volume(n, radius), 1 << n)
    p_bad = mu ** (max_list + 1)
    degree = (1 << n) * (max_list + 1) * num_messages**max_list
    feasible = precise.certified_less(
        lambda ctx: ctx.exp(1) * precise.iv_fraction(ctx, p_bad) * (degree + 1),
        lambda ctx: ctx.mpf(1),
    )
    product_log2 = math.log2(math.e) + math.log2(float(p_bad)) + math.log2(degree + 1) \
        if p_bad > 0 else float("-inf")
    return LLLReport(
        n=n,
        radius=radius,
        num_messages=num_messages,
        max_list=max_list,
        p_bad=p_bad,
        degree=degree,
        product_log2=product_log2,
        feasible=feasible,
    )


@dataclass(frozen=True)
class ResampleEvent:
    round_index: int
    center: int
    message_indices: tuple[int, ...]
    old_words: tuple[int, ...]
    new_words: tuple[int, ...]


@dataclass(frozen=True)
class MoserTardosResult:
    code: CodeTable
    rounds: int
    events: tuple[ResampleEvent, ...]


def _ball_centers(words: np.ndarray, ball: np.ndarray):
    """Every center x ^ e for x in words, e in ball, in chunks of at most
    BALL_CHUNK_PAIRS entries (duplicates kept: one entry per word-ball pair)."""
    chunk = max(1, BALL_CHUNK_PAIRS // len(ball))
    for start in range(0, len(words), chunk):
        yield (words[start : start + chunk, None] ^ ball[None, :]).ravel()


def moser_tardos_construct(
    n: int,
    radius: int,
    num_messages: int,
    max_list: int,
    rng: Rng,
    max_rounds: int | None = None,
) -> MoserTardosResult:
    """Draw words uniformly, then repeatedly resample every message whose
    encoding lies in the ball of the least overfull center, until every
    center's list size is at most max_list.

    The list-size table is built once; each round subtracts the balls of the
    resampled messages' old words and adds those of their fresh words, so a
    round costs O(|resampled| * Vol).  The least overfull center comes from
    ascending queues of overfull centers, kept up to date from the centers
    each round touched, never from a scan of the table."""
    if max_rounds is None:
        max_rounds = 10 * num_messages
    if max_rounds < 1:
        raise InvalidParameterError(f"max_rounds must be at least 1, got {max_rounds}")
    if max_list < 1:
        raise InvalidParameterError(f"max_list must be at least 1, got {max_list}")
    if not 1 <= num_messages <= (1 << n):
        raise InvalidParameterError(f"message count must be in [1, 2^{n}]")
    if not 0 <= radius <= n:
        raise InvalidParameterError(f"radius must be in [0, {n}], got {radius}")
    check_scatter_caps(n, num_messages * hamming_volume(n, radius))
    ball = ball_masks(n, radius)
    words = rng.bit_array(n, num_messages)
    table = scatter_table(words, ball, n)
    # Every overfull center waits in one of two ascending queues: those of the
    # first table, an int64 array read from a cursor, and a heap of those that
    # crossed max_list in a later round.  (One heap of Python ints would take
    # several times the table's memory when most centers start overfull.)  An
    # entry whose count has dropped is skipped when it reaches the head.
    first = np.flatnonzero(table > max_list)
    head = 0
    later: list[int] = []
    events: list[ResampleEvent] = []
    rounds = 0
    while True:
        while head < len(first) and table[first[head]] <= max_list:
            head += 1
        while later and table[later[0]] <= max_list:
            heapq.heappop(later)
        heads = ([int(first[head])] if head < len(first) else []) + later[:1]
        if not heads:
            break
        if rounds >= max_rounds:
            partial = CodeTable(n, tuple(BitVector(n, int(w)) for w in words))
            raise ConstructionError(
                f"no decodable table after {max_rounds} rounds", partial=partial
            )
        witness = min(heads)
        inside = np.nonzero(popcount_array(words ^ np.int64(witness)) <= radius)[0]
        old = words[inside]
        fresh = rng.bit_array(n, len(inside))
        words[inside] = fresh
        for centers in _ball_centers(old, ball):
            np.subtract.at(table, centers, 1)
        # Only centers in a fresh ball gained, and the adds never lower a
        # count, so a center that turns overfull crosses max_list in exactly
        # one chunk; one still overfull after the subtraction is queued already.
        for centers in _ball_centers(fresh, ball):
            below = table[centers] <= max_list
            np.add.at(table, centers, 1)
            for c in set(centers[below & (table[centers] > max_list)].tolist()):
                heapq.heappush(later, c)
        events.append(
            ResampleEvent(
                round_index=rounds,
                center=witness,
                message_indices=tuple(int(i) for i in inside),
                old_words=tuple(int(w) for w in old),
                new_words=tuple(int(w) for w in fresh),
            )
        )
        rounds += 1
    code = CodeTable(n, tuple(BitVector(n, int(w)) for w in words))
    return MoserTardosResult(code=code, rounds=rounds, events=tuple(events))
