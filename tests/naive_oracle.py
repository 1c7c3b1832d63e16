"""Slow oracle twins that only the tests use.

- ball_masks_itertools: the Hamming ball listed by itertools, the twin of
  gf2.ball_masks;
- coset_reduce_masked: each pivot bit cleared by a masked XOR, the twin of
  listsize.coset_reduce;
- naive_table and list_profile_naive: per-center list sizes by direct
  pairwise distances, the twin of listsize.list_profile;
- profile_from_table and certify_table: the profile and the certificate read
  from a dense per-center table, the twins of listsize.list_profile and
  listsize.certify;
- rank_table: the rank of every m x n matrix from a row-space automaton, and
  rank_list_profile_naive, the per-center rank recount it serves;
- intersection_volume_double_sum: the exact double sum of binomials, the
  twin of counting.intersection_volume;
- potential_exponent, potential_mean and iv_excess: the potential summed
  afresh in mpmath, every power 2^(e ell) evaluated on its own, the twin of
  listsize's integer bracket (listsize.iv_excess).

Three checks of paper claims that no command runs, and a display helper that
baseline_potential_bound and the dense step check share:

- check_sum_rule: the union list size L_{C+{0,b}} against the split sum
  L_C(x) + L_C(x+b) at every center, from the library's scatter tables;
- verify_trace: a guided build's tracked potentials against each prefix's
  potential recomputed from scratch;
- baseline_potential_bound: the rank zero code's potential against
  1 + 4 * 2^(r(m+n-r) - mn);
- eval_midpoint: the float midpoint of an interval expression;
- eval_float: the correctly rounded float of an exact real, from intervals.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable

import numpy as np

from listdec import precise
from listdec.constructors import PotentialTrace
from listdec.counting import rank_ball_size
from listdec.errors import InvalidParameterError, ResourceLimitError
from listdec.gf2 import BitVector, popcount_array
from mpmath.libmp import to_float

from listdec.listsize import LinearCode, ListProfile, list_profile, list_size_table, potential
from listdec.rankmetric import RankCode, RankParams

NAIVE_MAX_BITS = 16
# rank_table runs its automaton over every matrix, so at most 2^24 of them.
RANK_TABLE_MAX_BITS = 24


def ball_masks_itertools(n: int, radius: int) -> np.ndarray:
    """Packed words of B(0, radius) in weight-major, numeric-minor order,
    each weight's words listed by itertools.combinations and sorted."""
    chunks = [np.zeros(1, dtype=np.int64)]
    for w in range(1, radius + 1):
        vals = sorted(
            sum(1 << (n - 1 - i) for i in positions)
            for positions in itertools.combinations(range(n), w)
        )
        chunks.append(np.array(vals, dtype=np.int64))
    return np.concatenate(chunks)


def coset_reduce_masked(basis, words: np.ndarray) -> np.ndarray:
    """Each word with every pivot bit cleared, from the top pivot down, by
    XOR with the pivot row where the bit is set."""
    out = np.asarray(words, dtype=np.int64)
    for h in sorted(basis.pivots, reverse=True):
        out = np.where((out >> h) & 1, out ^ np.int64(basis.pivots[h]), out)
    return out


def profile_from_table(table: np.ndarray, block_length: int, radius: int) -> ListProfile:
    universe_bits = int(len(table)).bit_length() - 1
    hist = np.bincount(table)
    counts = tuple((ell, int(c)) for ell, c in enumerate(hist) if c > 0)
    return ListProfile(
        universe_bits=universe_bits,
        block_length=block_length,
        radius=radius,
        counts=counts,
    )


def certify_table(table: np.ndarray, max_list: int) -> tuple[bool, int | None, int]:
    max_seen = int(table.max()) if len(table) else 0
    if max_seen <= max_list:
        return True, None, max_seen
    witness = int(np.argmax(table > max_list))
    return False, witness, max_seen


def naive_table(words: np.ndarray, universe_bits: int, radius: int) -> np.ndarray:
    """Per-center recount by direct pairwise distances."""
    if universe_bits > NAIVE_MAX_BITS:
        raise ResourceLimitError(
            f"naive recount capped at 2^{NAIVE_MAX_BITS} centers, asked for 2^{universe_bits}"
        )
    centers = np.arange(1 << universe_bits, dtype=np.int64)
    out = np.zeros(len(centers), dtype=np.int64)
    chunk = 512
    for start in range(0, len(words), chunk):
        part = words[start : start + chunk]
        dists = popcount_array(centers[:, None] ^ part[None, :])
        out += (dists <= radius).sum(axis=1)
    return out


def list_profile_naive(code, radius: int) -> ListProfile:
    """Oracle twin of list_profile for Hamming codes; identical output contract."""
    if not 0 <= radius <= code.n:
        raise InvalidParameterError(f"radius must be in [0, {code.n}], got {radius}")
    table = naive_table(code.codeword_array(), code.n, radius)
    return profile_from_table(table, code.n, radius)


@lru_cache(maxsize=None)
def _row_space_automaton(n: int):
    """States are row spaces of F_2^n; transition appends one more row."""
    start = (0,)
    states: dict[tuple[int, ...], int] = {start: 0}
    ranks = [0]
    transitions: list[list[int]] = []
    queue = [start]
    while queue:
        space = queue.pop(0)
        row_next = []
        members = set(space)
        for row in range(1 << n):
            if row in members:
                target = space
            else:
                target = tuple(sorted(members | {e ^ row for e in members}))
            if target not in states:
                states[target] = len(states)
                ranks.append(len(target).bit_length() - 1)
                queue.append(target)
            row_next.append(states[target])
        transitions.append(row_next)
    trans = np.array(transitions, dtype=np.int32)
    return trans, np.array(ranks, dtype=np.uint8)


@lru_cache(maxsize=8)
def rank_table(m: int, n: int) -> np.ndarray:
    """rank of every m x n matrix, indexed by the flattened integer."""
    if m * n > RANK_TABLE_MAX_BITS:
        raise ResourceLimitError(f"rank table capped at mn <= {RANK_TABLE_MAX_BITS}")
    trans, ranks = _row_space_automaton(n)
    rows = 1 << n
    state = np.zeros(1, dtype=np.int32)
    for _ in range(m):
        state = trans[np.repeat(state, rows), np.tile(np.arange(rows, dtype=np.int32), len(state))]
    return ranks[state]


def rank_list_profile_naive(code: RankCode, radius: int) -> ListProfile:
    """Oracle twin: per-center recount by rank distance lookups."""
    params = code.params
    bits = params.universe_bits
    if bits > NAIVE_MAX_BITS:
        raise ResourceLimitError(f"naive rank recount capped at mn <= {NAIVE_MAX_BITS}")
    table = rank_table(params.m, params.n)
    centers = np.arange(1 << bits, dtype=np.int64)
    out = np.zeros(len(centers), dtype=np.int64)
    for c in code.codeword_array():
        out += table[centers ^ c] <= radius
    return profile_from_table(out, params.n, radius)


def intersection_volume_double_sum(n: int, r: int, d: int) -> int:
    """|B(0,r) ∩ B(w,r)| for a weight-d center w: the words with i ones inside
    w's support and j outside, i + j <= r and d - i + j <= r, summed one
    binomial at a time."""
    if d == 0:
        return sum(math.comb(n, i) for i in range(r + 1))
    total = 0
    for i in range(d + 1):
        jmax = min(r - i, r - (d - i), n - d)
        if jmax < 0:
            continue
        inner = sum(math.comb(n - d, j) for j in range(jmax + 1))
        total += math.comb(d, i) * inner
    return total


def eval_midpoint(builder: Callable) -> float:
    """Float midpoint of an interval expression at precise.DEFAULT_PREC, for
    display only: the first evaluation of precise.certified, which stops at
    any result other than None."""
    return precise.certified(lambda ctx: precise.midpoint(builder(ctx)))


def eval_float(builder: Callable) -> float:
    """The correctly rounded float of the real that builder's intervals hold:
    the precision escalates until both ends round to one float."""

    def build(ctx):
        lo, hi = builder(ctx)._mpi_
        end = to_float(lo, rnd="n")
        return end if end == to_float(hi, rnd="n") else None

    return precise.certified(build)


def potential_exponent(ctx, epsilon: float, block_length: int):
    eps = ctx.mpf(epsilon)
    return eps * block_length / (1 + eps)


def potential_mean(ctx, profile: ListProfile, epsilon: float):
    """The potential S of the profile in the arithmetic of ctx, each power
    2^(e ell) evaluated afresh."""
    e = potential_exponent(ctx, epsilon, profile.block_length)
    total = ctx.mpf(0)
    for ell, c in profile.counts:
        total += c * ctx.mpf(2) ** (e * ell)
    return total / ctx.mpf(2) ** profile.universe_bits


def iv_excess(ctx, profile: ListProfile, epsilon: float):
    return potential_mean(ctx, profile, epsilon) - 1


@dataclass(frozen=True)
class SumRuleReport:
    """Pointwise check of L_{C+{0,b}}(x) <= L_C(x) + L_C(x+b)."""

    b_in_code: bool
    inequality_holds: bool
    equality_everywhere: bool
    union_equals_base: bool
    max_slack: int


def check_sum_rule(code: LinearCode, b: BitVector, radius: int) -> SumRuleReport:
    """Exhaustive over x: the union list size never exceeds the split sum,
    with equality at every x exactly when b is outside the code."""
    base = list_size_table(code, radius)
    in_code = code.basis.contains(b.bits)
    union = list_size_table(LinearCode(code.n, code.generators + (b,)), radius)
    idx = np.arange(len(base), dtype=np.int64)
    split = base + base[idx ^ np.int64(b.bits)]
    slack = split - union
    return SumRuleReport(
        b_in_code=in_code,
        inequality_holds=bool((slack >= 0).all()),
        equality_everywhere=bool((slack == 0).all()),
        union_equals_base=bool((union == base).all()),
        max_slack=int(slack.max()),
    )


def verify_trace(code: LinearCode, trace: PotentialTrace) -> float:
    """Recompute every step's potential from scratch; returns the worst
    relative deviation from the tracked values."""
    worst = 0.0
    for i in range(len(code.generators) + 1):
        prefix = LinearCode(code.n, code.generators[:i])
        state = potential(list_profile(prefix, trace.radius), trace.epsilon)
        tracked = trace.records[i].value
        fresh = state.value_float
        denom = max(abs(fresh), 1.0)
        worst = max(worst, abs(fresh - tracked) / denom)
    return worst


@dataclass(frozen=True)
class BaselinePotentialBound:
    s0: float
    bound: float
    holds: bool


def baseline_potential_bound(params: RankParams, epsilon: float) -> BaselinePotentialBound:
    """Check the zero-code potential against 1 + 4 * 2^(r(m+n-r) - mn).

    The exponent mn(1 - p - pb + p^2 b) equals mn - r(m+n-r) exactly.
    """
    if not epsilon > 0:
        raise InvalidParameterError(f"epsilon must be positive, got {epsilon}")
    m, n, r = params.m, params.n, params.radius
    ball = rank_ball_size(2, m, n, r)
    mn = params.universe_bits
    bound_tail = Fraction(4 * (1 << (r * (m + n - r))), 1 << mn)

    def lhs(ctx):
        e = potential_exponent(ctx, epsilon, n)
        return (ctx.mpf(2) ** e - 1) * ball / ctx.mpf(2) ** mn

    holds = precise.certified_le(lhs, lambda ctx: precise.iv_fraction(ctx, bound_tail))
    s0_float = 1.0 + eval_midpoint(lhs)
    return BaselinePotentialBound(s0=s0_float, bound=1.0 + float(bound_tail), holds=holds)
