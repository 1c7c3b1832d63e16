"""Certified real-number comparisons via mpmath interval arithmetic.

Builders receive the interval context with its precision already set and
return an interval value.  Comparisons escalate precision until the interval
order is certain, so a True/False answer is never a rounding artifact.
All interval work happens under one lock because mpmath contexts hold
global precision state.
"""

from __future__ import annotations

import threading
from fractions import Fraction
from typing import Callable

from mpmath import iv, mp, mpf

from .errors import PrecisionError

_LOCK = threading.RLock()

DEFAULT_PREC = 120
MAX_PREC = 4096


def iv_fraction(ctx, value: Fraction):
    return ctx.mpf(value.numerator) / ctx.mpf(value.denominator)


def iv_entropy(ctx, r: int, n: int):
    """Interval enclosure of the binary entropy H(r/n)."""
    if r == 0 or r == n:
        return ctx.mpf(0)
    p = ctx.mpf(r) / n
    q = 1 - p
    ln2 = ctx.log(2)
    return -(p * ctx.log(p) + q * ctx.log(q)) / ln2


def certified_less(lhs: Callable, rhs: Callable, start_prec: int = DEFAULT_PREC) -> bool:
    """Decide lhs < rhs with escalating precision; raises if unresolvable."""
    with _LOCK:
        prec = start_prec
        while prec <= MAX_PREC:
            iv.prec = prec
            verdict = lhs(iv) < rhs(iv)
            if verdict is not None:
                return verdict
            prec *= 2
    raise PrecisionError("comparison not resolved at maximum precision")


def certified_le(lhs: Callable, rhs: Callable, start_prec: int = DEFAULT_PREC) -> bool:
    with _LOCK:
        prec = start_prec
        while prec <= MAX_PREC:
            iv.prec = prec
            verdict = lhs(iv) <= rhs(iv)
            if verdict is not None:
                return verdict
            prec *= 2
    raise PrecisionError("comparison not resolved at maximum precision")


def vanishes_at_power_of_two(coeffs: dict[int, int], exponent: Fraction) -> bool:
    """Exactly whether sum_j coeffs[j] * 2^(exponent * j) is 0, for exponent > 0.

    With exponent = p/q in lowest terms, z = 2^(p/q) has the minimal
    polynomial x^q - 2^p (irreducible by Capelli's theorem, since 2^p is no
    l-th power for a prime l dividing q).  So the sum is 0 exactly when the
    polynomial reduced modulo x^q - 2^p, by x^(aq + b) -> 2^(pa) x^b, is 0."""
    p, q = exponent.numerator, exponent.denominator
    if p <= 0:
        raise ValueError(f"exponent must be positive, got {exponent}")
    folded: dict[int, int] = {}
    for j, c in coeffs.items():
        a, b = divmod(j, q)
        folded[b] = folded.get(b, 0) + (c << (p * a))
    return not any(folded.values())


def eval_midpoint(builder: Callable, prec: int = DEFAULT_PREC) -> float:
    """Float midpoint of an interval expression, for display only."""
    with _LOCK:
        iv.prec = prec
        value = builder(iv)
        return float(mpf(value.a) + mpf(value.b)) / 2.0


def with_mp(builder: Callable, prec: int = DEFAULT_PREC):
    """Evaluate a plain mpmath expression at the given precision."""
    with _LOCK:
        old = mp.prec
        mp.prec = prec
        try:
            return builder(mp)
        finally:
            mp.prec = old
