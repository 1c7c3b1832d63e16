"""Exact list-size profiles, certification, tail statistics and potentials.

The central object is the list-size table L[x] = |B(x, r) ∩ C| over every
center x, computed by scattering each codeword's ball into a 2^n counter
table.  Histograms, tail statistics, potentials and the analytic inequality
checks derive from it.  A per-center pairwise-distance recount serves as the
independent oracle at small n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
import numpy as np

from . import counting, precise
from .errors import InvalidParameterError, ResourceLimitError
from .gf2 import BitVector, SpanBasis, ball_masks, popcount_array

PROFILE_MAX_BITS = 26
NAIVE_MAX_BITS = 16
SCATTER_MAX = 1 << 30
PAIR_CHECK_MAX_BITS = 16
POTENTIAL_PREC = 160


@dataclass(frozen=True)
class DecodingParams:
    """Block length, integer decoding radius and slack parameter."""

    n: int
    radius: int
    epsilon: float

    def __post_init__(self):
        if self.n < 1:
            raise InvalidParameterError(f"block length must be positive, got {self.n}")
        if not 0 <= self.radius <= self.n:
            raise InvalidParameterError(f"radius must be in [0, {self.n}], got {self.radius}")
        if not self.epsilon > 0:
            raise InvalidParameterError(f"epsilon must be positive, got {self.epsilon}")

    @property
    def p(self) -> float:
        return self.radius / self.n


@dataclass(frozen=True)
class LinearCode:
    """GF(2) span of the drawn generators (which may be dependent)."""

    n: int
    generators: tuple[BitVector, ...]

    def __post_init__(self):
        for g in self.generators:
            if g.n != self.n:
                raise InvalidParameterError("generator length mismatch")

    @cached_property
    def _basis(self) -> SpanBasis:
        return SpanBasis(g.bits for g in self.generators)

    @property
    def k(self) -> int:
        return len(self.generators)

    @property
    def effective_dim(self) -> int:
        return self._basis.dim

    @property
    def size(self) -> int:
        return 1 << self.effective_dim

    def contains(self, v: BitVector) -> bool:
        return self._basis.contains(v.bits)

    def codeword_array(self) -> np.ndarray:
        """All 2^effective_dim codewords, each exactly once."""
        return self._basis.enumerate()

    def extended(self, b: BitVector) -> "LinearCode":
        return LinearCode(self.n, self.generators + (b,))


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

    @cached_property
    def count_map(self) -> dict[int, int]:
        return dict(self.counts)

    @property
    def max_ell(self) -> int:
        return max((ell for ell, c in self.counts if c > 0), default=0)

    def count(self, ell: int) -> int:
        return self.count_map.get(ell, 0)

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


def check_scatter_caps(universe_bits: int, increments: int) -> None:
    """Raise ResourceLimitError before a scatter table of 2^universe_bits
    counters, fed by this many ball increments, is allocated."""
    if universe_bits > PROFILE_MAX_BITS:
        raise ResourceLimitError(
            f"profile table needs 2^{universe_bits} counters (cap 2^{PROFILE_MAX_BITS})"
        )
    if increments > SCATTER_MAX:
        raise ResourceLimitError(f"scatter would need {increments} increments (cap {SCATTER_MAX})")


def scatter_table(
    words: np.ndarray, ball: np.ndarray, universe_bits: int, chunk_pairs: int = 1 << 24
) -> np.ndarray:
    """Per-center list sizes by scattering each word's ball (cost |C| * Vol).

    chunk_pairs bounds the size of the transient XOR matrix.
    """
    check_scatter_caps(universe_bits, len(words) * len(ball))
    size = 1 << universe_bits
    table = np.zeros(size, dtype=np.int64)
    if len(words) == 0 or len(ball) == 0:
        return table
    chunk = max(1, chunk_pairs // max(1, len(ball)))
    for start in range(0, len(words), chunk):
        part = words[start : start + chunk]
        pairs = (part[:, None] ^ ball[None, :]).ravel()
        table += np.bincount(pairs, minlength=size)
    return table


def naive_table(words: np.ndarray, universe_bits: int, radius: int) -> np.ndarray:
    """Per-center recount by direct pairwise distances (the oracle path)."""
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


def list_size_table(code, radius: int) -> np.ndarray:
    """L[x] for every center x of F_2^n, via codeword-ball scatter."""
    if not 0 <= radius <= code.n:
        raise InvalidParameterError(f"radius must be in [0, {code.n}], got {radius}")
    return scatter_table(code.codeword_array(), ball_masks(code.n, radius), code.n)


def list_profile(code, radius: int) -> ListProfile:
    return profile_from_table(list_size_table(code, radius), code.n, radius)


def list_profile_naive(code, radius: int) -> ListProfile:
    """Oracle twin of list_profile; identical output contract."""
    if not 0 <= radius <= code.n:
        raise InvalidParameterError(f"radius must be in [0, {code.n}], got {radius}")
    table = naive_table(code.codeword_array(), code.n, radius)
    return profile_from_table(table, code.n, radius)


def recount_center(words, center: int, radius: int) -> int:
    """Independent single-center recount used to verify witnesses."""
    return sum(1 for w in words if bin(int(w) ^ center).count("1") <= radius)


def certify_table(table: np.ndarray, max_list: int) -> tuple[bool, int | None, int]:
    max_seen = int(table.max()) if len(table) else 0
    if max_seen <= max_list:
        return True, None, max_seen
    witness = int(np.argmax(table > max_list))
    return False, witness, max_seen


def certify(code, radius: int, max_list: int) -> Certificate:
    """Decide (radius, max_list)-list-decodability; witness is the least center."""
    table = list_size_table(code, radius)
    ok, witness_int, max_seen = certify_table(table, max_list)
    witness = None
    if not ok:
        recount = recount_center(code.codeword_array(), witness_int, radius)
        if recount != int(table[witness_int]):
            raise AssertionError("witness recount disagrees with scatter table")
        witness = BitVector(code.n, witness_int)
    return Certificate(
        decodable=ok, witness=witness, checked_count=len(table), max_list=max_seen
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
    """Average of 2^(eps * n * L(x) / (1 + eps)) and its excess above 1."""

    value: object
    excess: object
    epsilon: float
    block_length: int
    universe_bits: int

    @property
    def value_float(self) -> float:
        return float(self.value)

    @property
    def excess_float(self) -> float:
        return float(self.excess)


def potential_exponent(ctx, epsilon: float, block_length: int):
    eps = ctx.mpf(epsilon)
    return eps * block_length / (1 + eps)


def potential(profile: ListProfile, epsilon: float, prec: int = POTENTIAL_PREC) -> PotentialState:
    if not epsilon > 0:
        raise InvalidParameterError(f"epsilon must be positive, got {epsilon}")

    def build(ctx):
        e = potential_exponent(ctx, epsilon, profile.block_length)
        total = ctx.mpf(0)
        for ell, c in profile.counts:
            total += c * ctx.mpf(2) ** (e * ell)
        return total / (ctx.mpf(2) ** profile.universe_bits)

    value = precise.with_mp(build, prec=prec)
    return PotentialState(
        value=value,
        excess=value - 1,
        epsilon=epsilon,
        block_length=profile.block_length,
        universe_bits=profile.universe_bits,
    )


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
    if code.n > PAIR_CHECK_MAX_BITS:
        raise ResourceLimitError(f"sum-rule check capped at n = {PAIR_CHECK_MAX_BITS}")
    base = list_size_table(code, radius)
    in_code = code.contains(b)
    union = list_size_table(code.extended(b), radius)
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


def fwht(values: np.ndarray) -> np.ndarray:
    """Unnormalized Walsh-Hadamard transform (float64, exact for our counts)."""
    out = values.astype(np.float64).copy()
    size = out.size
    h = 1
    while h < size:
        out = out.reshape(size // (2 * h), 2, h)
        top = out[:, 0, :] + out[:, 1, :]
        bottom = out[:, 0, :] - out[:, 1, :]
        out = np.stack([top, bottom], axis=1).reshape(size)
        h *= 2
    return out


def pair_sum_weights(table: np.ndarray) -> np.ndarray:
    """weights[b, s] = #{x : L(x) + L(x^b) = s}, exact via XOR correlations."""
    size = len(table)
    vmax = int(table.max())
    transforms = []
    for v in range(vmax + 1):
        indicator = (table == v).astype(np.float64)
        transforms.append(fwht(indicator))
    weights = np.zeros((size, 2 * vmax + 1), dtype=np.int64)
    for u in range(vmax + 1):
        for v in range(u, vmax + 1):
            corr = fwht(transforms[u] * transforms[v]) / size
            counts = np.rint(corr).astype(np.int64)
            if u == v:
                weights[:, u + v] += counts
            else:
                weights[:, u + v] += 2 * counts
    return weights


@dataclass(frozen=True)
class StepReport:
    """Exact exceedance probability of the potential one-step threshold."""

    hypothesis_met: bool
    degenerate: bool
    excess: float
    probability: Fraction
    markov_bound: float
    holds: bool


def check_potential_step(code: LinearCode, epsilon: float, radius: int) -> StepReport:
    """Over all 2^n candidates b, the exact probability that extending by b
    pushes the potential beyond 1 + 2T + T^1.5, compared against sqrt(T)."""
    if code.n > PAIR_CHECK_MAX_BITS:
        raise ResourceLimitError(f"step check capped at n = {PAIR_CHECK_MAX_BITS}")
    table = list_size_table(code, radius)
    return step_check_from_table(table, code.n, code.codeword_array(), epsilon, radius)


def step_check_from_table(
    table: np.ndarray,
    block_length: int,
    span_words: np.ndarray,
    epsilon: float,
    radius: int,
) -> StepReport:
    """Generic engine behind check_potential_step; the universe size is the
    table length, the potential exponent scales with block_length."""
    profile = profile_from_table(table, block_length, radius)
    universe_bits = profile.universe_bits
    if universe_bits > PAIR_CHECK_MAX_BITS:
        raise ResourceLimitError(f"step check capped at 2^{PAIR_CHECK_MAX_BITS} candidates")
    state = potential(profile, epsilon)
    t_excess = state.excess
    if t_excess == 0:
        return StepReport(
            hypothesis_met=True,
            degenerate=True,
            excess=0.0,
            probability=Fraction(0),
            markov_bound=0.0,
            holds=True,
        )
    if not t_excess < 1:
        return StepReport(
            hypothesis_met=False,
            degenerate=False,
            excess=float(t_excess),
            probability=Fraction(0),
            markov_bound=float(t_excess) ** 0.5,
            holds=False,
        )

    size = len(table)
    weights = pair_sum_weights(table)

    def builder_threshold(ctx):
        t = _iv_excess(ctx, profile, epsilon)
        return (1 + 2 * t + t ** ctx.mpf(1.5)) * ctx.mpf(2) ** universe_bits

    # Float prefilter; only candidates within the margin get an interval recheck.
    e_float = epsilon * block_length / (1 + epsilon)
    smax = weights.shape[1] - 1
    pows = np.exp2(e_float * np.arange(smax + 1))
    lhs = weights @ pows
    thr = precise.eval_midpoint(builder_threshold)
    margin = 1e-9 * max(abs(thr), 1.0)
    exceed = lhs > thr + margin
    uncertain = np.abs(lhs - thr) <= margin
    for b in np.nonzero(uncertain)[0]:
        row = weights[int(b)]

        def builder_lhs(ctx, row=row):
            e = potential_exponent(ctx, epsilon, block_length)
            total = ctx.mpf(0)
            for s, w in enumerate(row):
                if w:
                    total += int(w) * ctx.mpf(2) ** (e * s)
            return total

        exceed[int(b)] = not precise.certified_le(builder_lhs, builder_threshold)
    # Candidates already in the span leave the code unchanged, so they never exceed.
    exceed[span_words] = False
    count = int(exceed.sum())
    probability = Fraction(count, size)
    markov = math.sqrt(float(t_excess))
    if probability == 0:
        holds = True
    else:
        holds = precise.certified_less(
            lambda ctx: precise.iv_fraction(ctx, probability),
            lambda ctx: ctx.sqrt(_iv_excess(ctx, profile, epsilon)),
        )
    return StepReport(
        hypothesis_met=True,
        degenerate=False,
        excess=float(t_excess),
        probability=probability,
        markov_bound=markov,
        holds=holds,
    )


def _iv_excess(ctx, profile: ListProfile, epsilon: float):
    e = potential_exponent(ctx, epsilon, profile.block_length)
    total = ctx.mpf(0)
    for ell, c in profile.counts:
        total += c * ctx.mpf(2) ** (e * ell)
    return total / (ctx.mpf(2) ** profile.universe_bits) - 1


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
        lambda ctx: _iv_excess(ctx, profile, epsilon),
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
    if radius in (0, n) or 2 * radius == n:
        h = Fraction(0) if radius in (0, n) else Fraction(1)
        value = n * (1 - h - Fraction(epsilon))
        return max(0, math.floor(value))

    def build(ctx):
        return n * (1 - precise.iv_entropy(ctx, radius, n) - ctx.mpf(epsilon))

    with precise._LOCK:
        from mpmath import iv, mpf

        prec = precise.DEFAULT_PREC
        while prec <= precise.MAX_PREC:
            iv.prec = prec
            val = build(iv)
            lo = math.floor(float(mpf(val.a)))
            hi = math.floor(float(mpf(val.b)))
            if lo == hi:
                return max(0, lo)
            prec *= 2
    raise precise.PrecisionError("envelope step count not resolved")


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
    if not epsilon > 0:
        raise InvalidParameterError(f"epsilon must be positive, got {epsilon}")

    from mpmath import iv, mpf

    with precise._LOCK:
        prec = 2 * precise.DEFAULT_PREC
        while prec <= precise.MAX_PREC * 4:
            iv.prec = prec
            deltas = _iv_envelope(iv, n, radius, epsilon, steps)
            delta0 = deltas[0]
            comparisons = [
                deltas[i] < iv.mpf(2) ** (i + 1) * delta0 for i in range(1, steps + 1)
            ]
            if all(c is not None for c in comparisons):
                violations = tuple(i + 1 for i, c in enumerate(comparisons) if c is False)
                floats = tuple(float(mpf(x.a) + mpf(x.b)) / 2 for x in deltas)
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
            prec *= 2
    raise precise.PrecisionError("envelope comparisons not resolved")


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


