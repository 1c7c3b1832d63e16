"""Certified real-number comparisons via mpmath interval arithmetic.

Builders receive the interval context with its precision already set.  One
loop, certified, escalates the precision until a builder's intervals decide,
so a True/False answer is never a rounding artifact.  All interval work
happens here, under one lock, because mpmath contexts hold global precision
state.  settled(lhs, rhs) says when a float64 comparison stands for the
exact one; any other is decided again, exactly or through certified.  less
is that rule for a strict order: the float comparison when settled, the
certified one otherwise.  power_of_two_floors brackets one power of two
between integers, for listsize's exact potential.
"""

from __future__ import annotations

import math
import threading
from fractions import Fraction
from typing import Callable

import numpy as np
from mpmath import iv, mpf
from mpmath.libmp import to_int

from .errors import PrecisionError

_LOCK = threading.RLock()

DEFAULT_PREC = 120
MAX_PREC = 4096
# Relative distance of two float64 sides below which their comparison is
# decided again.  A potential's float side is within 5e-13 relative of its
# exact value (listsize.potential_powers), far inside the margin.
RECHECK_MARGIN = 1e-9


def settled(lhs, rhs):
    """Whether the float64 comparison of lhs and rhs decides: both finite and
    |lhs - rhs| > RECHECK_MARGIN |rhs|, the margin read at call time.  Plain
    Python on floats, elementwise if either side is an array."""
    if isinstance(lhs, np.ndarray) or isinstance(rhs, np.ndarray):
        with np.errstate(invalid="ignore"):
            apart = np.abs(lhs - rhs) > RECHECK_MARGIN * np.abs(rhs)
        return np.isfinite(lhs) & np.isfinite(rhs) & apart
    return math.isfinite(lhs) and math.isfinite(rhs) and abs(lhs - rhs) > RECHECK_MARGIN * abs(rhs)


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


def certified(builder: Callable, start_prec: int = DEFAULT_PREC, max_prec: int = MAX_PREC):
    """builder(iv) at start_prec, then at doubled precision up to max_prec, until
    it returns something other than None, its sign of an undecided interval."""
    with _LOCK:
        prec = start_prec
        while prec <= max_prec:
            iv.prec = prec
            result = builder(iv)
            if result is not None:
                return result
            prec *= 2
    raise PrecisionError(f"not resolved at {max_prec} bits of precision")


def certified_less(lhs: Callable, rhs: Callable) -> bool:
    """Decide lhs < rhs with escalating precision; raises if unresolvable."""
    return certified(lambda ctx: lhs(ctx) < rhs(ctx))


def certified_le(lhs: Callable, rhs: Callable) -> bool:
    return certified(lambda ctx: lhs(ctx) <= rhs(ctx))


def less(lhs: float, rhs: float, lhs_iv: Callable, rhs_iv: Callable) -> bool:
    """lhs < rhs, from floats of two exact sides: the float comparison when
    settled, else certified_less of the interval builders of the same sides.
    A side that is NaN or inf goes to the intervals."""
    return lhs < rhs if settled(lhs, rhs) else certified_less(lhs_iv, rhs_iv)


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


def floor_endpoints(value) -> tuple[int, int]:
    """The floors of an interval value's endpoints, taken exactly on the
    binary endpoints (a float conversion first could round up to an integer)."""
    lo, hi = value._mpi_
    return to_int(lo, "f"), to_int(hi, "f")


def midpoint(value) -> float:
    """Float midpoint of an interval value, for display only."""
    return float(mpf(value.a) + mpf(value.b)) / 2.0


def power_of_two_floors(exponent: Fraction, prec: int) -> tuple[int, int]:
    """The floors of the ends of an interval holding 2^exponent, evaluated
    at prec bits; iv's precision is restored after."""
    with _LOCK:
        old = iv.prec
        iv.prec = prec
        try:
            return floor_endpoints(iv.mpf(2) ** iv_fraction(iv, exponent))
        finally:
            iv.prec = old
