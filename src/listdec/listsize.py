"""Exact list-size profiles, certification, tail statistics and potentials.

The central object is the list size L(x) = |B(x, r) ∩ C| at every center x
of the code's 2^n words (n = code.n).  The metric belongs to the code: its
ball(radius), the potential's block_length, weight_array (the weights of
packed words, for the witness recount) and witness(word).  HammingMetric
supplies them for LinearCode and code tables, rankmetric.RankCode for rank
codes, so every entry point below serves both metrics.

Every consumer reads L through one view, list_sizes(code, radius) ->
(centers, sizes, dim): sizes[i] is L at centers[i] and on the rest of its
coset of a span of dimension dim (2^dim centers), centers ascend, and every
center not listed has L = 0.  Two engines produce it:

- the coset engine (coset_counts) for GF(2)-linear codes, those with a basis:
  L is constant on the cosets of C, so reducing the |B| ball words modulo C
  gives every list size without a 2^n object; the view is (least coset
  elements, multiplicities, dim C).  The guided constructor scores its
  candidates with the same engine.  In the step check the weight row of a
  candidate b depends only on the coset of b, and coset_pair_weights builds
  all 2^(n-k) rows exactly from pairs of cosets, counted one pair of
  list-size levels at a time;
- the 2^n scatter table (scatter_table), which scatters each codeword's ball
  into one counter per center.  It serves code tables, whose view is
  (range(2^n), the table, 0), the Moser-Tardos rounds, every caller that
  needs L per center (list_size_table), and the tests as the oracle.

list_profile, certify and the separation experiment's maximum list read the
view alone, so they do not know which engine ran.  Histograms, tail
statistics, potentials and the analytic inequality checks derive from the
profile.  potential gives a profile's S exactly, as a bracket of two integer
sums: each power 2^(e ell) is held between the integer floor and ceiling of
its value at F bits (power_bracket, a bounded cache), and F doubles until
both ends round to the same float, so S and T = S - 1 reach callers as their
correctly rounded floats.  Every decision on the potential takes one path: a
float64 side (a row of coset counts times potential_powers, or the float of
the exact potential), decided in floats where precise.settled and again
otherwise.  accepts alone decides S_new <= the step bound (or S^2), against
step_threshold, for the guided constructor's candidates and the step check's
classes; precise.less takes the step check's other two decisions.  The
bracket is the only source of S: a certified decision reads it as an interval
(iv_excess) at the context's precision, so precise.certified's doubling
narrows the bracket, and the intervals share power_bracket, the cache of the
exact powers, with potential.  Two more caches of the same bound
(POWER_CACHE_SIZE) hold pure functions of immutable inputs: potential's
states per (profile, epsilon), and potential_powers' read-only float rows per
(epsilon, block_length, width, quotient_bits); the guided builder asks again
and again for the same few.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
import numpy as np

from . import counting, limits, precise
from .errors import InvalidParameterError, PrecisionError
from .gf2 import BitVector, SpanBasis, ball_masks, popcount_array
from .limits import MAX_WORDS, PAIR_CHECK_MAX_BITS, SCATTER_MAX, check_bits, check_count

# Entries of each potential cache.  power_bracket holds one pair of integer
# ends per (epsilon, block length, list size, bits), a few hundred bytes
# each; potential one state per (profile, epsilon), whose two ends hold
# about F + 2 universe_bits bits; potential_powers one float row of 8 bytes
# per entry per (epsilon, block length, width, quotient bits).
POWER_CACHE_SIZE = 1024


class HammingMetric:
    """The Hamming metric of a code of length n: its ball, the potential's
    block length n, popcount weights and BitVector witnesses."""

    @property
    def block_length(self) -> int:
        return self.n

    def ball(self, radius: int) -> np.ndarray:
        return ball_masks(self.n, radius)

    weight_array = staticmethod(popcount_array)

    def witness(self, word: int) -> BitVector:
        return BitVector(self.n, word)


@dataclass(frozen=True)
class LinearCode(HammingMetric):
    """GF(2) span of the drawn generators (which may be dependent)."""

    n: int
    generators: tuple[BitVector, ...]

    def __post_init__(self):
        for g in self.generators:
            if g.n != self.n:
                raise InvalidParameterError("generator length mismatch")

    @cached_property
    def basis(self) -> SpanBasis:
        return SpanBasis(g.bits for g in self.generators)

    @property
    def k(self) -> int:
        return len(self.generators)

    @property
    def effective_dim(self) -> int:
        return self.basis.dim

    @property
    def size(self) -> int:
        return 1 << self.effective_dim

    def codeword_array(self) -> np.ndarray:
        """All 2^effective_dim codewords, each exactly once."""
        return self.basis.enumerate()


@dataclass(frozen=True)
class ListProfile:
    """Histogram ell -> #{x : L(x) = ell}; the single source for tails."""

    universe_bits: int
    block_length: int
    radius: int
    counts: tuple[tuple[int, int], ...]

    def __post_init__(self):
        total = sum(c for _, c in self.counts)
        if total != 1 << self.universe_bits:
            raise InvalidParameterError("profile counts must cover the whole space")

    @property
    def max_ell(self) -> int:
        return max((ell for ell, c in self.counts if c > 0), default=0)

    @property
    def total_mass(self) -> int:
        """Sum of ell * counts[ell]; equals |C| * Vol by double counting."""
        return sum(ell * c for ell, c in self.counts)


@dataclass(frozen=True)
class Certificate:
    decodable: bool
    witness: object | None
    checked_count: int
    max_list: int


def check_scatter_caps(universe_bits: int, increments: int = 0) -> None:
    """Raise ResourceLimitError before a scatter table of 2^universe_bits
    counters, fed by this many ball increments, is allocated."""
    check_bits(universe_bits, MAX_WORDS, "profile table needs {} counters")
    check_count(increments, SCATTER_MAX, "scatter would need {} increments")


def check_uniform_caps(n: int, messages: int, radius: int) -> None:
    """check_scatter_caps for the table of a uniform code of this many
    messages, each scattering a radius ball; called before any word is drawn."""
    check_scatter_caps(n, messages * counting.hamming_volume(n, radius))


def scatter_table(words: np.ndarray, ball: np.ndarray, universe_bits: int) -> np.ndarray:
    """Per-center list sizes by scattering each word's ball (cost |C| * Vol)."""
    check_scatter_caps(universe_bits, len(words) * len(ball))
    return xor_counts(words, ball, 1 << universe_bits)


def outer_xor_chunks(left: np.ndarray, right: np.ndarray):
    """Every left[i] ^ right[j], duplicates kept and in no promised order, as
    flat arrays of at most limits.CHUNK_PAIRS entries each; the cap is read at
    call time.  When every pair fits under the cap they come as one chunk
    (empty if an operand is).

    The longer operand runs along the contiguous axis, which makes the XOR
    several times faster when the other is short (a ball against many
    words), and is sliced where one of its rows would pass the cap; every
    caller feeds the pairs to bincount or ufunc.at, which do not see their
    order."""
    if len(left) > len(right):
        left, right = right, left
    cap = limits.CHUNK_PAIRS
    if len(left) * len(right) <= cap:
        yield (left[:, None] ^ right).ravel()
        return
    width = min(len(right), cap)
    rows = cap // width
    for col in range(0, len(right), width):
        for start in range(0, len(left), rows):
            yield (left[start : start + rows, None] ^ right[col : col + width]).ravel()


def xor_counts(left: np.ndarray, right: np.ndarray, size: int) -> np.ndarray:
    """cnt[c] = #{(i, j) in left x right : i ^ j = c} for c < size, from one
    bincount per chunk of outer_xor_chunks.

    The first chunk's bincount becomes the result, so no zeroed array is held
    beside it: at n = 18 a one-chunk scatter table peaks at 2.6 MiB, not
    4.6 MiB.  Above glibc's 4 MiB trim threshold, whether the freed pages went
    back to the system after each call (and were faulted in again) depended on
    the heap layout, which made op times bimodal."""
    counts = None
    for pairs in outer_xor_chunks(left, right):
        part = np.bincount(pairs, minlength=size)
        if counts is None:
            counts = part
        else:
            counts += part
    return counts


def coset_reduce(basis: SpanBasis, words: np.ndarray) -> np.ndarray:
    """Each word replaced by the least element of its coset of span(basis):
    SpanBasis.reduce on an array.

    Every pivot bit is cleared, from the top pivot down: the pivot row of h
    has leading bit h, so XOR with it lowers a word exactly when bit h is set,
    and min(w, w ^ row) is that conditional XOR.  The result is 0 at every
    pivot, and since the leading bit of a nonzero codeword is a pivot, that
    makes it the least element of its coset (and the only one that is 0 at
    every pivot)."""
    out = np.asarray(words, dtype=np.int64)
    for row in basis.pivots.values():
        out = np.minimum(out, out ^ np.int64(row))
    return out


def coset_counts(basis: SpanBasis, ball: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The coset engine of a GF(2)-linear code: (reps, mult), sorted by rep.

    L(x) = |(x + C) ∩ B| is constant on the cosets of C, so the ball words
    reduced modulo C give every list size: the coset of reps[i] has
    L = mult[i], and every coset missing from reps has L = 0.  Cost
    O(|B| (dim + log |B|)); nothing of size 2^n is built."""
    reduced = np.sort(coset_reduce(basis, ball))
    starts, mult = sorted_runs(reduced)
    return reduced[starts], mult


def sorted_runs(words: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(starts, lengths) of the runs of equal entries of a sorted array, in
    order: words[starts] and lengths are the values and the counts of
    np.unique, from one comparison of the array with itself shifted by one."""
    edges = np.empty(len(words) + 1, dtype=bool)
    edges[0] = edges[-1] = True
    np.not_equal(words[1:], words[:-1], out=edges[1:-1])
    (bounds,) = edges.nonzero()
    return bounds[:-1], bounds[1:] - bounds[:-1]


def row_profile(row, dim: int, universe_bits: int, block_length: int, radius: int) -> ListProfile:
    """The profile of a row of coset counts: row[ell] of the
    2^(universe_bits - dim) cosets of a dim-dimensional span have L = ell,
    and each coset holds 2^dim centers."""
    counts = tuple((ell, int(w) << dim) for ell, w in enumerate(row) if w)
    return ListProfile(universe_bits, block_length, radius, counts)


def coset_profile(
    sizes: np.ndarray, dim: int, universe_bits: int, block_length: int, radius: int
) -> ListProfile:
    """The profile of a list_sizes view: each listed size holds on 2^dim
    centers, and every center not listed has L = 0."""
    row = np.bincount(sizes).tolist()
    row[0] = (1 << (universe_bits - dim)) - (len(sizes) - row[0])
    return row_profile(row, dim, universe_bits, block_length, radius)


def list_size_table(code, radius: int) -> np.ndarray:
    """L[x] for every center x of the code's universe, via codeword-ball scatter;
    the 2^n table is capped before the codewords or the ball are built."""
    check_scatter_caps(code.n)
    return scatter_table(code.codeword_array(), code.ball(radius), code.n)


def list_sizes(code, radius: int) -> tuple[range | np.ndarray, np.ndarray, int]:
    """(centers, sizes, dim): sizes[i] is L at centers[i] and on the rest of
    its coset of a dim-dimensional span, 2^dim centers in all.  centers
    ascend, and every center not listed has L = 0.

    A linear code (one with a basis) goes through the coset engine, whose
    reps are the least elements of their cosets; a code table through the
    dense 2^n scatter table, every center listed, dim 0."""
    if hasattr(code, "basis"):
        reps, mult = coset_counts(code.basis, code.ball(radius))
        return reps, mult, code.basis.dim
    return range(1 << code.n), list_size_table(code, radius), 0


def list_profile(code, radius: int) -> ListProfile:
    """The histogram of L over all 2^n centers, from list_sizes."""
    _, sizes, dim = list_sizes(code, radius)
    return coset_profile(sizes, dim, code.n, code.block_length, radius)


def recount_center(code, center: int, radius: int) -> int:
    """Independent recount of one center's list, by the code's distance from
    the center to every codeword."""
    diffs = code.codeword_array() ^ np.int64(center)
    return int(np.count_nonzero(code.weight_array(diffs) <= radius))


def certify(code, radius: int, max_list: int) -> Certificate:
    """Decide (radius, max_list)-list-decodability from list_sizes.  The
    witness is the least center over max_list: the first listed one, since
    centers ascend and each is the least of its coset.  It is recounted from
    the codewords."""
    centers, sizes, _ = list_sizes(code, radius)
    max_seen = int(sizes.max())
    witness = None
    if max_seen > max_list:
        i = int(np.argmax(sizes > max_list))
        center = int(centers[i])
        if recount_center(code, center, radius) != sizes[i]:
            raise AssertionError("witness recount disagrees with the list-size count")
        witness = code.witness(center)
    return Certificate(
        decodable=witness is None, witness=witness, checked_count=1 << code.n, max_list=max_seen
    )


def tail_stats(profile: ListProfile, ell: int) -> tuple[Fraction, Fraction]:
    """(P, Q) tails at ell: fraction of centers with list size >= ell, and the
    list-size-weighted version, both exact."""
    if ell < 0:
        raise InvalidParameterError(f"tail index must be nonnegative, got {ell}")
    denom = 1 << profile.universe_bits
    p_num = sum(c for l, c in profile.counts if l >= ell)
    q_num = sum(l * c for l, c in profile.counts if l >= ell)
    return Fraction(p_num, denom), Fraction(q_num, denom)


@dataclass(frozen=True)
class PotentialState:
    """The potential S, the average of 2^(e L(x)) over the centers, e the
    potential exponent, as an exact bracket lo 2^shift <= S <= hi 2^shift of
    integers, with the floats of S and of its excess T = S - 1 above 1: each
    the correctly rounded float64 of the exact value (inf past float range)."""

    lo: int
    hi: int
    shift: int
    value_float: float
    excess_float: float


def exact_exponent(epsilon: float, block_length: int) -> Fraction:
    """The potential exponent e = eps n / (1 + eps) as an exact rational."""
    eps = Fraction(epsilon)
    return eps * block_length / (1 + eps)


@lru_cache(maxsize=POWER_CACHE_SIZE)
def power_bracket(epsilon: float, block_length: int, ell: int, bits: int) -> tuple[int, int, int]:
    """(lo, hi, shift) with lo 2^shift <= 2^(e ell) <= hi 2^shift, e the
    potential exponent: the floor and the ceiling of 2^(e ell - shift), which
    lies in [2^bits, 2^(bits + 1)).  When e ell is an integer the power is
    exact and lo = hi; otherwise it is irrational, and its ends come from one
    interval evaluation at bits + 64 bits."""
    whole, frac = divmod(exact_exponent(epsilon, block_length) * ell, 1)
    if not frac:
        return 1 << bits, 1 << bits, whole - bits
    lo, top = precise.power_of_two_floors(bits + frac, bits + 64)
    return lo, top + 1, whole - bits


def quotient_float(num: int, den: int) -> float:
    """num / den correctly rounded to float64 (int true division is), and
    inf past its range."""
    try:
        return num / den
    except OverflowError:
        return math.inf


def potential_bracket(profile: ListProfile, epsilon: float, bits: int) -> tuple[int, int, int]:
    """(lo, hi, shift) with lo 2^shift <= S <= hi 2^shift, S the profile's
    potential, from the power brackets at bits.

    Each power is floored (for lo) or ceiled (for hi) to a multiple of
    2^scale, scale = (the largest power's shift) - u, u = universe_bits; a
    power within u bits of the largest is kept exactly.  So the integers
    hold about bits + 2u bits whatever e times the largest list size is.
    The at most 2^u floored or ceiled counts widen the bracket by at most
    2^(u+1) units, 2 units of the largest power's scale, and the exact ones
    by at most 2^-bits relative, so it is within 2^(2 - bits) relative of S
    however the counts are spread.  S >= 1, so lo is raised to 2^-shift
    where it lies below."""
    n, u = profile.block_length, profile.universe_bits
    terms = [(c, *power_bracket(epsilon, n, ell, bits)) for ell, c in profile.counts if c]
    scale = max(shift for _, _, _, shift in terms) - u
    lo = hi = 0
    for c, p_lo, p_hi, shift in terms:
        d = scale - shift
        lo += c * (p_lo >> d if d > 0 else p_lo << -d)
        hi += c * (-(-p_hi >> d) if d > 0 else p_hi << -d)
    shift = scale - u
    return max(lo, 1 << max(-shift, 0)), hi, shift


def _potential_at(profile: ListProfile, epsilon: float, bits: int) -> PotentialState | None:
    """The potential from its bracket at bits, or None when an end of S or
    of T rounds to another float than the other end."""
    lo, hi, shift = potential_bracket(profile, epsilon, bits)
    if lo.bit_length() + shift > 1026:
        # S and T are both at least 2^1025: each float is inf.
        return PotentialState(lo, hi, shift, math.inf, math.inf)
    # S lies in [s_lo, s_hi] / one.
    scale = min(shift, 0)
    s_lo, s_hi, one = lo << (shift - scale), hi << (shift - scale), 1 << -scale
    value = quotient_float(s_lo, one)
    excess = quotient_float(s_lo - one, one)
    if value != quotient_float(s_hi, one) or excess != quotient_float(s_hi - one, one):
        return None
    return PotentialState(lo, hi, shift, value, excess)


@lru_cache(maxsize=POWER_CACHE_SIZE)
def potential_powers(
    epsilon: float, block_length: int, width: int, quotient_bits: int
) -> np.ndarray:
    """The float64 vector 2^(e ell - quotient_bits) for ell < width, e the
    potential exponent; an entry whose exponent reaches 1024 is inf, and no
    overflow warning is raised.  Cached per argument tuple, so the array is
    read-only: every caller shares it.  A row of coset counts (row[ell] of the
    2^quotient_bits cosets of a span have L = ell) has potential
    S = row @ powers[:len(row)]; once a term overflows it is inf, or NaN where
    a zero count meets an inf power, and precise.settled sends either to an
    exact decision.

    With u = 2^-53: e = eps n / (1 + eps) is within 3u relative and e ell
    within 4u.  A finite term has e ell < 1024 + 62, so its exponent is off by
    at most 4u * 1100 + 2^-43 < 6e-13, its power by ln 2 times that plus
    exp2's rounding, and the count's conversion and the product add a rounding
    each.  The terms are nonnegative, so the dot product adds at most
    (width - 1) u relative: S within 5e-13 relative for width <= 600."""
    e = epsilon * block_length / (1 + epsilon)
    with np.errstate(over="ignore"):
        powers = np.exp2(e * np.arange(width) - quotient_bits)
    powers.flags.writeable = False
    return powers


@lru_cache(maxsize=POWER_CACHE_SIZE)
def potential(profile: ListProfile, epsilon: float) -> PotentialState:
    """The potential S of the profile, exactly: the sum of c 2^(e ell) over
    its counts, bracketed between integer sums of the cached power_bracket
    ends at F bits.  F starts at precise.DEFAULT_PREC and doubles, up to
    precise.MAX_PREC, until both ends of S and both ends of T round to the
    same float.  A power with e ell an integer is exact, so S = 1 has a
    bracket of width 0, and so does any S whose powers are all exact once F
    exceeds the spread of their exponents: such an S settles even on a float
    midpoint.  The profile and the state are frozen and the state depends on
    nothing else, so states are cached per (profile, epsilon); a call that
    raises caches nothing."""
    limits.check_epsilon(epsilon)
    bits = precise.DEFAULT_PREC
    while bits <= precise.MAX_PREC:
        state = _potential_at(profile, epsilon, bits)
        if state is not None:
            return state
        bits *= 2
    raise PrecisionError(f"potential not resolved at {precise.MAX_PREC} bits")


def step_threshold(state: PotentialState, rule: str) -> float:
    """The rule's bound on S after one more generator, in float64 from the
    correctly rounded floats of state's S and T: 1 + 2T + T^1.5 for rule
    "step", S^2 for "square"; inf once it overflows (a float product
    overflows to inf where ** raises)."""
    t = state.excess_float
    return 1 + 2 * t + t * math.sqrt(t) if rule == "step" else state.value_float * state.value_float


def accepts(profile, state, row, dim: int, value: float, epsilon: float, rule: str) -> bool:
    """Whether S_new <= the rule's bound on profile (step_threshold), S_new
    the potential of the candidate whose list size is ell on row[ell] cosets
    of a dim-dimensional span of profile's universe.  state is the potential
    of profile, and value is S_new in float64, row @ potential_powers.

    The float comparison decides when precise.settled.  Otherwise the
    candidate's profile is built from the row: two equal sides accept,
    decided exactly, and unequal ones are compared in certified intervals,
    which terminates because they differ."""
    # value is within 5e-13 relative of S_new (potential_powers); the
    # threshold, from the correctly rounded floats of T and S, within 1e-15.
    # So a settled float comparison is the exact one.
    threshold = step_threshold(state, rule)
    if precise.settled(value, threshold):
        return value <= threshold
    cand_profile = row_profile(row, dim, profile.universe_bits, profile.block_length, profile.radius)
    e = exact_exponent(epsilon, profile.block_length)
    if precise.vanishes_at_power_of_two(_threshold_gap(profile, cand_profile, rule), e):
        return True

    def bound(ctx):
        t = iv_excess(ctx, profile, epsilon)
        return 1 + 2 * t + t ** ctx.mpf(1.5) if rule == "step" else (1 + t) ** 2

    return precise.certified_le(lambda ctx: 1 + iv_excess(ctx, cand_profile, epsilon), bound)


def _threshold_gap(profile, cand_profile, rule: str) -> dict[int, int]:
    """An integer polynomial in z = 2^e, e the potential exponent, that
    vanishes at z exactly when the accept's two sides are equal (or, for the
    step rule, when S_new = 1 + 2T - T^1.5, which accepts as well).

    With u = 2^universe_bits, P(z) = u S and Q(z) = u S_new are the profiles'
    sums.  Square rule: S_new = S^2 iff u Q - P^2 = 0.  Step rule: with
    A = Q - 2P + u = u (S_new - 1 - 2T) and R = P - u = u T,
    S_new = 1 + 2T +- T^1.5 iff A^2 = u^-1 R^3, i.e. u A^2 - R^3 = 0."""
    u = 1 << profile.universe_bits
    p, q = dict(profile.counts), dict(cand_profile.counts)
    if rule == "square":
        return _poly_sum((u, q), (-1, _poly_mul(p, p)))
    a = _poly_sum((1, q), (-2, p), (u, {0: 1}))
    r = _poly_sum((1, p), (-u, {0: 1}))
    return _poly_sum((u, _poly_mul(a, a)), (-1, _poly_mul(r, _poly_mul(r, r))))


def _poly_sum(*terms: tuple[int, dict[int, int]]) -> dict[int, int]:
    """sum of c * poly over (c, poly) terms; polynomials map exponent -> coefficient."""
    out: dict[int, int] = {}
    for c, poly in terms:
        for j, x in poly.items():
            out[j] = out.get(j, 0) + c * x
    return out


def _poly_mul(a: dict[int, int], b: dict[int, int]) -> dict[int, int]:
    out: dict[int, int] = {}
    for i, x in a.items():
        for j, y in b.items():
            out[i + j] = out.get(i + j, 0) + x * y
    return out


@dataclass(frozen=True)
class StepReport:
    """Exact exceedance probability of the potential one-step threshold."""

    hypothesis_met: bool
    degenerate: bool
    excess: float
    probability: Fraction
    markov_bound: float
    holds: bool


def quotient_index(basis: SpanBasis, reduced: np.ndarray, universe_bits: int) -> np.ndarray:
    """Each reduced word (0 at every pivot) packed down to its non-pivot bits:
    the index of its coset in [0, 2^(universe_bits - dim)), in the same order
    as the reduced words."""
    out = np.zeros(len(reduced), dtype=np.int64)
    free = [h for h in range(universe_bits) if h not in basis.pivots]
    for j, h in enumerate(free):
        out |= ((reduced >> h) & 1) << j
    return out


def coset_pair_weights(table: np.ndarray) -> np.ndarray:
    """rows[c, s] = #{cosets u : L(u) + L(u + c) = s} for every coset c.

    table holds L of every coset, indexed by quotient_index.  L_{C+b}(x) =
    L(x) + L(x + b), so 2^dim rows[c] is the weight row #{x : L(x) + L(x + b)
    = s} of every b in the coset c.  Let v be the most common list size, D
    the cosets whose list size is not v, and D_a those with list size a.  For
    each unordered pair of levels a <= b, cnt_ab[c] = #{(i, j) in D_a x D_b :
    i ^ j = c} (i = j included, that is c = 0) is one bincount of the outer
    XOR; the class c gets f cnt_ab at a + b, f = 1 if a = b and 2 otherwise
    (both orders).  A coset of D_a whose partner lies outside D puts a + v in
    its class, on either side, so a + v gets 2|D_a| less 2 cnt_ab for every
    partner level b (and b + v likewise when a != b); the rest put 2v.  Only
    |D|^2 pairs are enumerated: D is the nonempty cosets when most cosets are
    empty, and none at all when L is constant.  The rows are accumulated one
    list size at a time (a width x Q array) and returned as its transpose."""
    hist = np.bincount(table)
    mode = int(np.argmax(hist))
    size = len(table)
    dev_count = size - int(hist[mode])
    check_count(dev_count**2, SCATTER_MAX, "step check would need {} coset pairs")
    width = 2 * len(hist) - 1
    check_count(width * size, MAX_WORDS, "step check needs {} weight counters")
    cols = np.zeros((width, size), dtype=np.int64)
    levels = [(int(a), np.flatnonzero(table == a)) for a in np.flatnonzero(hist) if a != mode]
    for x, (a, left) in enumerate(levels):
        cols[a + mode] += 2 * len(left)
        for b, right in levels[x:]:
            cnt = xor_counts(left, right, size)
            if a == b:
                cols[2 * a] += cnt
                cols[2 * mode] += cnt
                cnt <<= 1
                cols[a + mode] -= cnt
            else:
                cnt <<= 1
                cols[a + b] += cnt
                cols[2 * mode] += cnt
                cols[a + mode] -= cnt
                cols[b + mode] -= cnt
    cols[2 * mode] += size - 2 * dev_count
    return cols.T


def check_potential_step(code, epsilon: float, radius: int) -> StepReport:
    """Over all candidates b, the exact probability that extending the linear
    code by b pushes the potential beyond 1 + 2T + T^1.5, compared against
    sqrt(T).  It runs over the 2^(n - dim) coset classes of b, whose weight
    rows coset_pair_weights gives exactly; the potential exponent scales with
    the code's block length.

    Each decision reads the correctly rounded floats of the exact S and of
    its excess T = S - 1 (potential): the hypothesis T < 1 (S < 2) and
    P < sqrt(T) through precise.less, each class through accepts, its S_new
    its row times potential_powers.  The report says degenerate exactly when
    S = 1, that is when every list size is 0."""
    basis, universe_bits, block_length = code.basis, code.n, code.block_length
    quotient_bits = universe_bits - basis.dim
    check_bits(quotient_bits, 1 << PAIR_CHECK_MAX_BITS, "step check needs {} coset classes")
    reps, mult, dim = list_sizes(code, radius)
    profile = coset_profile(mult, dim, universe_bits, block_length, radius)
    state = potential(profile, epsilon)
    t = state.excess_float
    hypothesis_met = precise.less(
        state.value_float, 2.0, lambda ctx: iv_excess(ctx, profile, epsilon), lambda ctx: ctx.mpf(1)
    )
    if not hypothesis_met:
        return StepReport(
            hypothesis_met=False,
            degenerate=False,
            excess=t,
            probability=Fraction(0),
            markov_bound=t**0.5,
            holds=False,
        )

    table = np.zeros(1 << quotient_bits, dtype=np.int64)
    table[quotient_index(basis, reps, universe_bits)] = mult
    rows = coset_pair_weights(table)

    # Each class's S_new in float64 against the step threshold; the classes
    # not settled, among them those whose sum overflowed to inf or NaN
    # (0 * inf), are decided again by accepts.
    powers = potential_powers(epsilon, block_length, rows.shape[1], quotient_bits)
    with np.errstate(over="ignore", invalid="ignore"):
        sums = rows @ powers
    threshold = step_threshold(state, "step")
    decided = precise.settled(sums, threshold)
    exceed = decided & (sums > threshold)
    uncertain = np.flatnonzero(~decided)
    if len(uncertain):
        # Classes with equal rows decide alike, so each distinct row is
        # decided once: at tiny T every class that no pair reaches is
        # unsettled.
        distinct, first, inverse = np.unique(
            rows[uncertain], axis=0, return_index=True, return_inverse=True
        )
        rechecked = [
            not accepts(profile, state, row, dim, value, epsilon, "step")
            for row, value in zip(distinct, sums[uncertain[first]])
        ]
        exceed[uncertain] = np.array(rechecked, dtype=bool)[inverse]
    # Candidates in the code (class 0) leave it unchanged, so they never exceed.
    exceed[0] = False
    probability = Fraction(int(exceed.sum()) << dim, 1 << universe_bits)
    # A normal float t is within 2^-53 relative of T, so sqrt(t) is within
    # 2^-52 of sqrt(T); a subnormal one may not be, and NaN sends
    # P < sqrt(T) to the intervals.
    root = math.sqrt(t)
    holds = probability == 0 or precise.less(
        float(probability),
        root if t >= sys.float_info.min else math.nan,
        lambda ctx: precise.iv_fraction(ctx, probability),
        lambda ctx: ctx.sqrt(iv_excess(ctx, profile, epsilon)),
    )
    return StepReport(
        hypothesis_met=True,
        degenerate=profile.max_ell == 0,
        excess=t,
        probability=probability,
        markov_bound=root,
        holds=holds,
    )


def iv_excess(ctx, profile: ListProfile, epsilon: float):
    """T = S - 1 as an interval of ctx: the potential bracket at ctx.prec bits."""
    lo, hi, shift = potential_bracket(profile, epsilon, ctx.prec)
    return ctx.mpf([lo, hi]) * ctx.mpf(2) ** shift - 1


def _iv_envelope(ctx, n: int, radius: int, epsilon: float, steps: int) -> list:
    """delta_0..delta_steps of the growth envelope, as intervals of ctx."""
    h = precise.iv_entropy(ctx, radius, n)
    eps = ctx.mpf(epsilon)
    d = ctx.mpf(2) ** (-(n * (1 - h - eps / (1 + eps))))
    deltas = [d]
    for _ in range(steps):
        d = 2 * d + d ** ctx.mpf(1.5)
        deltas.append(d)
    return deltas


def excess_within_envelope(profile: ListProfile, epsilon: float, step: int) -> bool:
    """Certified T <= delta_step: the exact excess of the profile against the
    envelope recurrence that envelope_trace iterates."""
    return precise.certified_le(
        lambda ctx: iv_excess(ctx, profile, epsilon),
        lambda ctx: _iv_envelope(ctx, profile.block_length, profile.radius, epsilon, step)[step],
    )


@dataclass(frozen=True)
class EnvelopeTrace:
    """The growth envelope delta_i = 2 delta_{i-1} + delta_{i-1}^1.5."""

    n: int
    radius: int
    epsilon: float
    steps: int
    delta0: float
    deltas: tuple[float, ...]
    envelope_ok: bool
    violations: tuple[int, ...]


def max_envelope_steps(n: int, radius: int, epsilon: float) -> int:
    """K = floor(n (1 - H(p) - eps)), certified: the last step the envelope
    is traced to.

    The envelope delta_i < 2^(i+1) delta_0 is guaranteed for every i <= K
    when the finite-n condition 2^(K+1) delta_0 <= 1/4 holds; at desk scale
    many (n, radius, epsilon) miss it, and there envelope_trace decides and
    reports the violating steps rather than excluding them."""
    limits.check_epsilon(epsilon)
    if radius in (0, n) or 2 * radius == n:
        h = Fraction(0) if radius in (0, n) else Fraction(1)
        value = n * (1 - h - Fraction(epsilon))
        return max(0, math.floor(value))

    def build(ctx):
        value = n * (1 - precise.iv_entropy(ctx, radius, n) - ctx.mpf(epsilon))
        lo, hi = precise.floor_endpoints(value)
        return max(0, lo) if lo == hi else None

    return precise.certified(build)


def envelope_trace(n: int, radius: int, epsilon: float, steps: int) -> EnvelopeTrace:
    """Iterate delta_i = 2 delta_{i-1} + delta_{i-1}^1.5 from
    delta_0 = 2^-(n(1 - H(p) - eps/(1+eps))) and decide delta_i < 2^(i+1) delta_0
    for 1 <= i <= steps in interval arithmetic.

    The bound is guaranteed when 2^(steps+1) delta_0 <= 1/4: unrolled,
    delta_i = 2^i delta_0 prod_{j<i}(1 + sqrt(delta_j)/2), and by induction the
    product stays below 2 under that condition.  Outside it the bound can fail
    (n=20, radius=2, eps=0.2 fails at step 6); such steps are decided and
    reported in ``violations``, not excluded."""
    if steps < 0:
        raise InvalidParameterError(f"steps must be nonnegative, got {steps}")
    if not 0 <= radius <= n:
        raise InvalidParameterError(f"radius must be in [0, {n}], got {radius}")
    limits.check_epsilon(epsilon)

    def build(ctx):
        deltas = _iv_envelope(ctx, n, radius, epsilon, steps)
        comparisons = [
            deltas[i] < ctx.mpf(2) ** (i + 1) * deltas[0] for i in range(1, steps + 1)
        ]
        if any(c is None for c in comparisons):
            return None
        violations = tuple(i + 1 for i, c in enumerate(comparisons) if c is False)
        floats = tuple(precise.midpoint(x) for x in deltas)
        return EnvelopeTrace(
            n=n,
            radius=radius,
            epsilon=epsilon,
            steps=steps,
            delta0=floats[0],
            deltas=floats,
            envelope_ok=not violations,
            violations=violations,
        )

    # The printed deltas are midpoints at the precision the loop stops at, so
    # this schedule is part of the output.
    return precise.certified(build, 2 * precise.DEFAULT_PREC, 4 * precise.MAX_PREC)


@dataclass(frozen=True)
class TailBoundCheck:
    ell: int
    tail: Fraction
    bound_log2: float
    holds: bool


def check_tail_bound(
    profile: ListProfile, k: int, gamma: float, max_list: int
) -> tuple[TailBoundCheck, ...]:
    """Per ell in 1..max_list, whether the weighted tail stays below
    (2^(-n(1-H(p))) 2^k)^ell * 2^(gamma ell^2 n); exact left side, certified
    right side."""
    if max_list < 1:
        raise InvalidParameterError(f"max_list must be at least 1, got {max_list}")
    if not 0.0 < gamma < 1.0:
        raise InvalidParameterError(f"gamma must be in (0, 1), got {gamma}")
    n = profile.universe_bits
    if k > (1.0 - gamma) * n:
        raise InvalidParameterError(f"need k <= (1 - gamma) n, got k = {k}")
    ep = counting.entropy_power(n, profile.radius)
    gamma_exact = Fraction(gamma)
    checks = []
    for ell in range(1, max_list + 1):
        _, q_tail = tail_stats(profile, ell)
        rational_part = ep**ell * Fraction(2) ** (ell * (k - n))
        g = gamma_exact * ell * ell * n
        if q_tail == 0:
            holds = True
        else:
            holds = precise.certified_le(
                lambda ctx, q=q_tail: precise.iv_fraction(ctx, q),
                lambda ctx, rp=rational_part, g=g: precise.iv_fraction(ctx, rp)
                * ctx.mpf(2) ** precise.iv_fraction(ctx, g),
            )
        bound_log2 = ell * (k - n) + ell * math.log2(float(ep)) + float(g)
        checks.append(TailBoundCheck(ell=ell, tail=q_tail, bound_log2=bound_log2, holds=holds))
    return tuple(checks)


