"""Code generators: random linear, uniform tables, the potential-guided
incremental builder, and a resampling constructor for the local-lemma regime.

The guided builder scores its candidates here, one row of coset counts times
listsize.potential_powers each, and leaves each accept to listsize.accepts,
the one decision of the potential's step bound; listsize.potential gives the
exact S of each accepted code, whose correctly rounded floats the trace
records."""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from operator import mul

import numpy as np

from . import limits, precise
from .counting import float_or_inf, hamming_volume, log2_value
from .errors import ConstructionError, InvalidParameterError
from .gf2 import BitVector, Rng, SpanBasis, ball_masks
from .listsize import (
    HammingMetric,
    LinearCode,
    accepts,
    check_uniform_caps,
    outer_xor_chunks,
    potential,
    potential_powers,
    row_profile,
    scatter_table,
    sorted_runs,
)

DEFAULT_MAX_RETRIES = 64


@dataclass(frozen=True, eq=False)
class CodeTable(HammingMetric):
    """Message-indexed multiset of codewords (duplicates allowed), held as one
    read-only int64 array: array[i] is the packed word of message i."""

    n: int
    array: np.ndarray

    def __post_init__(self):
        limits.check_word_bits(self.n)
        words = np.asarray(self.array)
        if words.ndim != 1 or (words.size and words.dtype.kind not in "iu"):
            raise InvalidParameterError("codewords must be a flat sequence of integers")
        if words.size and not (words.min() >= 0 and words.max() < (1 << self.n)):
            raise InvalidParameterError(f"codeword out of range for length {self.n}")
        words = words.astype(np.int64)  # a private copy, so freezing it is safe
        words.flags.writeable = False
        object.__setattr__(self, "array", words)

    def __eq__(self, other):
        if not isinstance(other, CodeTable):
            return NotImplemented
        return self.n == other.n and np.array_equal(self.array, other.array)

    def __hash__(self):
        return hash((self.n, self.array.tobytes()))

    @cached_property
    def words(self) -> tuple[BitVector, ...]:
        """The codewords as BitVectors, for the CLI and witness boundary."""
        return tuple(BitVector(self.n, w) for w in self.array.tolist())

    @property
    def num_messages(self) -> int:
        return len(self.array)

    @property
    def rate(self) -> float:
        return math.log2(self.num_messages) / self.n if self.num_messages else float("-inf")

    def codeword_array(self) -> np.ndarray:
        """The stored read-only array itself, not a copy."""
        return self.array


def random_linear_code(n: int, k: int, rng: Rng) -> LinearCode:
    if not 0 <= k <= n:
        raise InvalidParameterError(f"need 0 <= k <= n, got k = {k}, n = {n}")
    gens = tuple(BitVector(n, rng.bits(n)) for _ in range(k))
    return LinearCode(n, gens)


def uniform_random_code(n: int, num_messages: int, rng: Rng) -> CodeTable:
    if not 1 <= num_messages <= (1 << n):
        raise InvalidParameterError(
            f"message count must be in [1, 2^{n}], got {num_messages}"
        )
    limits.check_count(num_messages, limits.MAX_WORDS, "uniform table needs {} words")
    return CodeTable(n, rng.bit_array(n, num_messages))


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

    Each candidate b is scored by the coset engine on span(C, b): the ball,
    built once, is kept reduced modulo C, and reducing it by b (itself
    reduced modulo C) gives the least coset elements of span(C, b), so a
    candidate costs O(|B| log |B|) whatever n is.  Sorted in place, their
    run lengths (listsize.sorted_runs) are the multiplicities of the cosets;
    their bincount, with the empty cosets in column 0, is the candidate's
    row of coset counts (a list), and the row times the step's
    potential_powers is its potential in float64; listsize.accepts decides
    the accept.  The
    profile (row_profile of that row) and the exact potential whose floats
    the trace records are built for accepted candidates only.
    """
    if not 0 <= k <= n:
        raise InvalidParameterError(f"need 0 <= k <= n, got k = {k}, n = {n}")
    if rule not in ("step", "square"):
        raise InvalidParameterError(f"unknown acceptance rule {rule!r}")
    if max_retries_per_step < 0:
        raise InvalidParameterError(
            f"max_retries_per_step must be nonnegative, got {max_retries_per_step}"
        )

    basis = SpanBasis()
    gens: list[BitVector] = []
    reduced = ball_masks(n, radius)  # the ball words, reduced modulo the code
    # The ball's words are distinct, so the empty code has |B| cosets of L = 1.
    profile = row_profile([(1 << n) - len(reduced), len(reduced)], 0, n, n, radius)
    state = potential(profile, epsilon)
    records = [StepRecord(step=0, value=state.value_float, excess=state.excess_float, retries=0)]

    def built() -> LinearCode:
        # Inserting gens in order builds exactly basis, so the code's basis
        # cached_property is seeded with it rather than rebuilt on first use.
        code = LinearCode(n, tuple(gens))
        vars(code)["basis"] = basis
        return code

    def fail(msg: str):
        trace = PotentialTrace(n=n, radius=radius, epsilon=epsilon, rule=rule, records=tuple(records))
        raise ConstructionError(msg, partial=(built(), trace))

    for step in range(1, k + 1):
        # The code extended by a candidate b has 2^quotient_bits cosets, and
        # its list sizes L(x) + L(x + b) are at most twice the largest so far.
        quotient_bits = n - basis.dim - 1
        # A candidate's float64 potential is a plain Python sum of products:
        # for a row of a few entries it is several times cheaper than a numpy
        # dot product, and past float range it is inf, or NaN (0 * inf),
        # without a warning, which accepts decides again.
        powers = potential_powers(epsilon, n, 2 * profile.max_ell + 1, quotient_bits).tolist()
        retries = 0
        draws = 0
        while True:
            draws += 1
            if draws > 64 * (max_retries_per_step + 1):
                fail(f"step {step}: candidate supply exhausted")
            b = rng.bits(n)
            b_reduced = basis.reduce(b)
            if b_reduced == 0:
                if basis.dim == n:
                    fail(f"step {step}: span is already the full space")
                continue
            # b_reduced is 0 at every pivot of C, so its leading bit is the
            # new pivot and this is coset_reduce by it.
            cand_reduced = np.minimum(reduced, reduced ^ np.int64(b_reduced))
            cand_reduced.sort()
            _, mult = sorted_runs(cand_reduced)
            row = np.bincount(mult).tolist()
            row[0] = (1 << quotient_bits) - len(mult)
            value = sum(map(mul, row, powers))
            if accepts(profile, state, row, basis.dim + 1, value, epsilon, rule):
                basis.insert(b)
                gens.append(BitVector(n, b))
                reduced = cand_reduced
                profile = row_profile(row, basis.dim, n, n, radius)
                state = potential(profile, epsilon)
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
    trace = PotentialTrace(n=n, radius=radius, epsilon=epsilon, rule=rule, records=tuple(records))
    return built(), trace


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
    d = 2^n (L+1) M^L; feasible when the product is certifiably below 1.

    The decision is precise.less on the float e * float(p_bad (d + 1)): that
    float is within about 3 * 2^-53 relative of the product, or underflows
    toward 0 when the product is far below 1, so settled decides it exactly;
    a product near 1, or past float range, goes to the intervals."""
    if max_list < 1:
        raise InvalidParameterError(f"max_list must be at least 1, got {max_list}")
    if num_messages < max_list + 1:
        raise InvalidParameterError(
            f"need at least max_list + 1 messages, got {num_messages}"
        )
    mu = Fraction(hamming_volume(n, radius), 1 << n)
    p_bad = mu ** (max_list + 1)
    degree = (1 << n) * (max_list + 1) * num_messages**max_list
    feasible = precise.less(
        math.e * float_or_inf(p_bad * (degree + 1)),
        1.0,
        lambda ctx: ctx.exp(1) * precise.iv_fraction(ctx, p_bad) * (degree + 1),
        lambda ctx: ctx.mpf(1),
    )
    # p_bad >= 2^(-n(L+1)) > 0, but its float underflows to 0 at large L.
    product_log2 = math.log2(math.e) + log2_value(p_bad) + math.log2(degree + 1)
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
    each round's adds push over max_list, never from a scan of the table; an
    entry whose count has dropped is skipped at the head."""
    if max_rounds is None:
        max_rounds = 10 * num_messages
    if max_rounds < 1:
        raise InvalidParameterError(f"max_rounds must be at least 1, got {max_rounds}")
    if max_list < 1:
        raise InvalidParameterError(f"max_list must be at least 1, got {max_list}")
    if not 1 <= num_messages <= (1 << n):
        raise InvalidParameterError(f"message count must be in [1, 2^{n}]")
    check_uniform_caps(n, num_messages, radius)
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
    # The witness scan writes into buffers allocated once.
    diffs = np.empty(num_messages, dtype=np.int64)
    weights = np.empty(num_messages, dtype=np.uint8)
    near = np.empty(num_messages, dtype=bool)
    while True:
        while head < len(first) and table[first[head]] <= max_list:
            head += 1
        while later and table[later[0]] <= max_list:
            heapq.heappop(later)
        if head < len(first):
            witness = int(first[head])
            if later and later[0] < witness:
                witness = later[0]
        elif later:
            witness = later[0]
        else:
            break
        if rounds >= max_rounds:
            raise ConstructionError(
                f"no decodable table after {max_rounds} rounds", partial=CodeTable(n, words)
            )
        np.bitwise_xor(words, witness, out=diffs)
        np.bitwise_count(diffs, out=weights)
        np.less_equal(weights, radius, out=near)
        (inside,) = near.nonzero()
        old = words[inside]
        fresh = rng.bit_array(n, len(inside))
        words[inside] = fresh
        for centers in outer_xor_chunks(old, ball):
            np.subtract.at(table, centers, 1)
        # Only centers in a fresh ball gained, and the adds never lower a
        # count, so a center that turns overfull crosses max_list in exactly
        # one chunk; one still overfull after the subtraction is queued already.
        # (Pushing every overfull center of a fresh ball instead would save a
        # gather per chunk but grow the heap by up to |fresh| * Vol entries a
        # round where most centers stay overfull.)
        for centers in outer_xor_chunks(fresh, ball):
            below = table[centers] <= max_list
            np.add.at(table, centers, 1)
            for c in set(centers[below & (table[centers] > max_list)].tolist()):
                heapq.heappush(later, c)
        events.append(
            ResampleEvent(
                round_index=rounds,
                center=witness,
                message_indices=tuple(inside.tolist()),
                old_words=tuple(old.tolist()),
                new_words=tuple(fresh.tolist()),
            )
        )
        rounds += 1
    return MoserTardosResult(code=CodeTable(n, words), rounds=rounds, events=tuple(events))
