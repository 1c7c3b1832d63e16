"""Exact volume and entropy calculators plus certified bound checks.

Counts are arbitrary-precision integers.  Every "holds" flag on a report is
decided by exact rational arithmetic: for radius r on block length n the
entropy power 2^(H(r/n) n) equals n^n / (r^r (n-r)^(n-r)), a rational number,
and the intersection-ratio bound squares to a rational, so no comparison ever
depends on floating point.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import InvalidParameterError


def binomial(n: int, k: int) -> int:
    if n < 0 or k < 0 or k > n:
        raise InvalidParameterError(f"binomial requires 0 <= k <= n, got ({n}, {k})")
    return math.comb(n, k)


def hamming_volume(n: int, r: int) -> int:
    if not 0 <= r <= n:
        raise InvalidParameterError(f"radius must be in [0, {n}], got {r}")
    return sum(math.comb(n, i) for i in range(r + 1))


def binary_entropy(p: float) -> float:
    if not 0.0 <= p <= 1.0:
        raise InvalidParameterError(f"entropy argument must be in [0, 1], got {p}")
    if p in (0.0, 1.0):
        return 0.0
    return -p * math.log2(p) - (1.0 - p) * math.log2(1.0 - p)


def entropy_power(n: int, r: int) -> Fraction:
    """Exact value of 2^(H(r/n) n) for the rational p = r/n."""
    if not 0 <= r <= n or n <= 0:
        raise InvalidParameterError(f"need 0 <= r <= n with n >= 1, got ({n}, {r})")
    num = n**n
    den = (r**r if r else 1) * ((n - r) ** (n - r) if n - r else 1)
    return Fraction(num, den)


def intersection_volume(n: int, r: int, d: int) -> int:
    """|B(0,r) ∩ B(w,r)| for any weight-d center w, exactly.

    A word with i ones inside w's support and j outside lies in both balls
    when i + j <= r and d - i + j <= r, so the count is the sum over i of
    C(d, i) times the C(n - d, j) summed over j <= min(r - i, r - d + i):
    one term per i, read from one prefix-summed binomial row of n - d.  Each
    binomial comes from the last by one exact multiply and divide, far
    cheaper than math.comb at n in the thousands."""
    if not 0 <= r <= n or not 0 <= d <= n:
        raise InvalidParameterError(f"need 0 <= r <= n and 0 <= d <= n, got ({n}, {r}, {d})")
    m, lo, hi = n - d, max(0, d - r), min(d, r)
    row = itertools.accumulate(range(min(r, m)), lambda c, j: c * (m - j) // (j + 1), initial=1)
    below = list(itertools.accumulate(row))
    # C(d, i) for lo <= i <= hi; the range is empty when d > 2r.
    coeffs = itertools.accumulate(
        range(lo, hi), lambda c, i: c * (d - i) // (i + 1), initial=math.comb(d, lo)
    )
    return sum(c * below[min(r - i, r - d + i, m)] for i, c in zip(range(lo, hi + 1), coeffs))


def overlap_decay(p: float) -> float:
    """Exponential decay rate (1/2) log2(1 / (4 p (1-p))) of the overlap ratio.

    Strictly decreasing on (0, 1/2) and tending to 0 as p -> 1/2.
    """
    if not 0.0 < p < 0.5:
        raise InvalidParameterError(f"decay rate defined for p in (0, 1/2), got {p}")
    return 0.5 * math.log2(1.0 / (4.0 * p * (1.0 - p)))


def log2_fraction(value: Fraction) -> float:
    """log2 of a positive rational, safe for arbitrarily large terms."""
    if value <= 0:
        raise InvalidParameterError("log2 needs a positive value")

    def log2_int(x: int) -> float:
        shift = max(0, x.bit_length() - 53)
        return math.log2(x >> shift) + shift

    return log2_int(value.numerator) - log2_int(value.denominator)


def float_or_inf(value) -> float:
    """float(value) for a nonnegative rational, inf past float range."""
    try:
        return float(value)
    except OverflowError:
        return math.inf


def log2_value(value) -> float:
    """log2 of a positive rational: of its float where that is positive and
    finite, else by log2_fraction (a float underflows to 0 or overflows)."""
    approx = float_or_inf(value)
    return math.log2(approx) if 0 < approx < math.inf else log2_fraction(value)


@dataclass(frozen=True)
class IntersectionBound:
    d: int
    exact: int
    ratio: float
    bound: float
    holds: bool


@dataclass(frozen=True)
class VolumeBoundReport:
    n: int
    r: int
    volume: int
    binomial: int
    lower_bound: float
    upper_bound: float
    sandwich_holds: bool
    intersection: tuple[IntersectionBound, ...]
    intersection_all_hold: bool


def check_volume_bounds(n: int, r: int) -> VolumeBoundReport:
    """Certify the volume sandwich and the per-distance intersection bound.

    Sandwich: 2^(H(p)n) / sqrt(8np(1-p)) <= C(n,r) <= Vol(n,r) <= 2^(H(p)n)
    with p = r/n.  Intersection: for every d in 1..n,
    Vol(n,r;d)/Vol(n,r) <= 2^(-decay * d) * sqrt(8p(1-p)) * sqrt(n).
    Both sides are compared after squaring, in exact rationals.
    """
    if r < 1 or 2 * r > n:
        raise InvalidParameterError(f"need 1 <= r <= n/2, got ({n}, {r})")
    ep = entropy_power(n, r)
    vol = hamming_volume(n, r)
    binom = math.comb(n, r)
    eight_npq = Fraction(8 * r * (n - r), n)  # 8 n p (1-p)
    # lower <= binom  <=>  ep^2 <= binom^2 * 8np(1-p)
    lower_holds = ep * ep <= Fraction(binom * binom) * eight_npq
    upper_holds = Fraction(vol) <= ep
    sandwich = lower_holds and (binom <= vol) and upper_holds

    four_pq = Fraction(4 * r * (n - r), n * n)
    cp2n = Fraction(8 * r * (n - r), n)  # (C_p sqrt(n))^2
    checks = []
    all_hold = True
    for d in range(1, n + 1):
        exact = intersection_volume(n, r, d)
        ratio = Fraction(exact, vol)
        # ratio <= (4pq)^(d/2) * C_p sqrt(n)  <=>  ratio^2 <= (4pq)^d * 8npq / n * n
        holds = ratio == 0 or ratio * ratio <= four_pq**d * cp2n
        bound = 2.0 ** (0.5 * d * math.log2(float(four_pq)) + 0.5 * math.log2(float(cp2n)))
        checks.append(
            IntersectionBound(d=d, exact=exact, ratio=float(ratio), bound=bound, holds=holds)
        )
        all_hold = all_hold and holds
    # Past float range the entropy power is written as inf, and the lower
    # bound, which can still be finite, is rounded once from the exact quotient.
    upper = float_or_inf(ep)
    sqrt_8npq = math.sqrt(float(eight_npq))
    lower = upper / sqrt_8npq if upper < math.inf else float_or_inf(ep / Fraction(sqrt_8npq))
    return VolumeBoundReport(
        n=n,
        r=r,
        volume=vol,
        binomial=binom,
        lower_bound=lower,
        upper_bound=upper,
        sandwich_holds=sandwich,
        intersection=tuple(checks),
        intersection_all_hold=all_hold,
    )


def gaussian_binomial(n: int, k: int, q: int = 2) -> int:
    """q-analog of C(n, k): the number of k-dimensional subspaces of F_q^n."""
    if k < 0 or k > n:
        return 0
    num = 1
    den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    assert num % den == 0
    return num // den


def rank_ball_size(q: int, m: int, n: int, r: int) -> int:
    """Exact count of m x n matrices over F_q with rank at most r."""
    if q < 2:
        raise InvalidParameterError(f"field size must be at least 2, got {q}")
    if not 0 < n <= m:
        raise InvalidParameterError(f"need 1 <= n <= m, got ({m}, {n})")
    if not 0 <= r <= n:
        raise InvalidParameterError(f"rank radius must be in [0, {n}], got {r}")
    total = 0
    for s in range(r + 1):
        count = gaussian_binomial(n, s, q)
        for i in range(s):
            count *= q**m - q**i
        total += count
    return total


@dataclass(frozen=True)
class RankBallBoundReport:
    q: int
    m: int
    n: int
    r: int
    count: int
    lower: int
    upper: int
    holds: bool


def check_rank_ball_bounds(q: int, m: int, n: int, r: int) -> RankBallBoundReport:
    """Certify q^(mn(p+pb-p^2 b)) <= count <= 4 q^(mn(p+pb-p^2 b)).

    With p = r/n and b = n/m the exponent equals r(m+n-r), an integer, so the
    comparison is exact.
    """
    count = rank_ball_size(q, m, n, r)
    base = q ** (r * (m + n - r))
    return RankBallBoundReport(
        q=q, m=m, n=n, r=r, count=count, lower=base, upper=4 * base,
        holds=base <= count <= 4 * base,
    )
