"""Exact and Monte Carlo machinery for the second-moment lower-bound story:
expected counts of clustered message tuples, the exact pair-event probability
with its two bounding expressions, the lower-bound parameter triple, the
linear-versus-uniform separation experiment, and the rank-metric rate bound."""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import precise
from .counting import (
    binary_entropy,
    hamming_volume,
    intersection_volume,
    log2_value,
    overlap_decay,
    rank_ball_size,
)
from .constructors import random_linear_code, uniform_random_code
from .errors import InvalidParameterError
from .gf2 import Rng
from .limits import check_epsilon
from .listsize import check_uniform_caps, list_sizes


def ball_fraction(n: int, radius: int) -> Fraction:
    """Exact fraction of F_2^n within the decoding radius of a fixed point."""
    if not 0 <= radius <= n:
        raise InvalidParameterError(f"radius must be in [0, {n}], got {radius}")
    return Fraction(hamming_volume(n, radius), 1 << n)


@dataclass(frozen=True)
class ExpectedClusterReport:
    """E[W] where W counts (center, ordered tuple of distinct messages) pairs
    whose encodings all land in one ball."""

    n: int
    radius: int
    num_messages: int
    list_size: int
    value: Fraction
    floor: Fraction
    floor_applies: bool
    floor_holds: bool


def expected_cluster_count(
    n: int, num_messages: int, list_size: int, radius: int
) -> ExpectedClusterReport:
    """Exact E[W] = 2^n * M(M-1)...(M-L+1) * mu^L over the uniform code model;
    the 1/2 mu^L 2^n M^L floor is checked whenever M >= 2 L^2."""
    if list_size > num_messages:
        raise InvalidParameterError("list size cannot exceed the number of messages")
    if list_size < 1:
        raise InvalidParameterError(f"list size must be at least 1, got {list_size}")
    mu = ball_fraction(n, radius)
    falling = 1
    for i in range(list_size):
        falling *= num_messages - i
    value = (1 << n) * falling * mu**list_size
    floor = Fraction(1, 2) * mu**list_size * (1 << n) * num_messages**list_size
    applies = num_messages >= 2 * list_size * list_size
    return ExpectedClusterReport(
        n=n,
        radius=radius,
        num_messages=num_messages,
        list_size=list_size,
        value=value,
        floor=floor,
        floor_applies=applies,
        floor_holds=value >= floor if applies else False,
    )


@dataclass(frozen=True)
class PairEventReport:
    """Exact probability that two clustered tuples sharing `shared` messages
    both occur, with the crude and refined upper bounds."""

    n: int
    radius: int
    shared: int
    list_size: int
    mu: Fraction
    probability: Fraction
    bound_crude: Fraction
    bound_crude_holds: bool
    bound_refined_log2: float | None
    bound_refined_holds: bool | None


def pair_event_probability(n: int, radius: int, shared: int, list_size: int) -> PairEventReport:
    """Pr over 2 + 2L - ell uniform points (two centers a and b, ell shared
    witnesses near both, and L - ell private witnesses near each) that every
    required membership holds, conditioning exactly on the distance of a, b."""
    if not 1 <= shared <= list_size:
        raise InvalidParameterError("need 1 <= shared <= list_size")
    if not 0 <= radius <= n:
        raise InvalidParameterError(f"radius must be in [0, {n}], got {radius}")
    mu = ball_fraction(n, radius)
    space = 1 << n
    prob = Fraction(0)
    for d in range(n + 1):
        inter = Fraction(intersection_volume(n, radius, d), space)
        prob += Fraction(math.comb(n, d), space) * inter**shared
    prob *= mu ** (2 * (list_size - shared))
    bound_crude = mu ** (2 * list_size - shared + 1)
    crude_holds = prob <= bound_crude

    refined_log2 = None
    refined_holds = None
    if 1 <= radius and 2 * radius <= n:
        eight_pqn = Fraction(8 * radius * (n - radius), n)
        four_pq = Fraction(4 * radius * (n - radius), n * n)

        def refined(ctx):
            cpl = precise.iv_fraction(ctx, eight_pqn) ** (ctx.mpf(list_size) / 2)
            decay = precise.iv_fraction(ctx, four_pq) ** (ctx.mpf(shared) / 2)
            return (
                precise.iv_fraction(ctx, mu) ** (2 * list_size - shared)
                * cpl
                * (1 + decay) ** n
                / ctx.mpf(2) ** n
            )

        refined_holds = precise.certified_le(
            lambda ctx: precise.iv_fraction(ctx, prob), refined
        )
        refined_log2 = (
            -n
            + (2 * list_size - shared) * log2_value(mu)
            + (list_size / 2) * math.log2(float(eight_pqn))
            + n * math.log2(1.0 + float(four_pq) ** (shared / 2))
        )
    return PairEventReport(
        n=n,
        radius=radius,
        shared=shared,
        list_size=list_size,
        mu=mu,
        probability=prob,
        bound_crude=bound_crude,
        bound_crude_holds=crude_holds,
        bound_refined_log2=refined_log2,
        bound_refined_holds=refined_holds,
    )


@dataclass(frozen=True)
class LowerBoundParams:
    """Parameter triple behind the uniform-code list-size lower bound."""

    p: float
    epsilon: float
    crossover_ell: float
    margin: float
    list_size: int


def lower_bound_params(p: float, epsilon: float) -> LowerBoundParams:
    if not 0.0 < p < 0.5:
        raise InvalidParameterError(f"p must be in (0, 1/2), got {p}")
    check_epsilon(epsilon)
    crossover = (1.0 - binary_entropy(p)) / (2.0 * epsilon)
    margin = 2.0 ** (-overlap_decay(p) * crossover) / (2.0 * math.log(2.0))
    list_size = math.floor((1.0 - margin) / epsilon)
    return LowerBoundParams(
        p=p,
        epsilon=epsilon,
        crossover_ell=crossover,
        margin=margin,
        list_size=list_size,
    )


@dataclass(frozen=True)
class SeparationRow:
    trial: int
    family: str
    seed: int
    n: int
    radius: int
    rate: float
    max_list: int
    witness: str


@dataclass(frozen=True)
class SeparationResult:
    rows: tuple[SeparationRow, ...]
    summary: dict


def _max_list_and_witness(code, radius: int) -> tuple[int, str]:
    """The maximum list size and the least center that attains it, read from
    list_sizes: the first listed center at the top size."""
    centers, sizes, _ = list_sizes(code, radius)
    top = int(sizes.max())
    return top, code.witness(int(centers[int(np.argmax(sizes == top))])).to_string()


def separation_experiment(
    n: int, radius: int, epsilon: float, trials: int, rng: Rng
) -> SeparationResult:
    """Matched-rate comparison: per trial, one random linear code of dimension
    floor(R n) and one uniform table with floor(2^(R n)) messages, recording
    the maximum list size of each."""
    if not 1 <= radius <= n:
        raise InvalidParameterError(f"radius must be in [1, {n}], got {radius}")
    check_epsilon(epsilon)
    if trials < 0:
        raise InvalidParameterError(f"trials must be nonnegative, got {trials}")
    rate = 1.0 - binary_entropy(radius / n) - epsilon
    k = math.floor(rate * n)
    num_messages = math.floor(2.0 ** (rate * n))
    if k < 1 or num_messages < 2:
        raise InvalidParameterError(
            f"degenerate rate {rate:.4f}: needs k >= 1 and at least 2 messages"
        )
    if trials:
        # The uniform table's caps, checked before any code is drawn.
        check_uniform_caps(n, num_messages, radius)
    families = (
        ("linear", lambda stream: random_linear_code(n, k, stream)),
        ("uniform", lambda stream: uniform_random_code(n, num_messages, stream)),
    )
    rows = []
    maxima = {family: [] for family, _ in families}
    for t in range(trials):
        for index, (family, draw) in enumerate(families):
            top, witness = _max_list_and_witness(draw(rng.substream(t, index)), radius)
            maxima[family].append(top)
            rows.append(
                SeparationRow(
                    trial=t, family=family, seed=rng.master_seed, n=n, radius=radius,
                    rate=rate, max_list=top, witness=witness,
                )
            )

    def stats(values):
        if not values:
            return {"median": None, "q25": None, "q75": None, "max": None}
        arr = np.array(values)
        return {
            "median": float(np.median(arr)),
            "q25": float(np.quantile(arr, 0.25)),
            "q75": float(np.quantile(arr, 0.75)),
            "max": int(arr.max()),
        }

    summary = {
        "n": n,
        "radius": radius,
        "epsilon": epsilon,
        "rate": rate,
        "k": k,
        "num_messages": num_messages,
        "trials": trials,
        "linear": stats(maxima["linear"]),
        "uniform": stats(maxima["uniform"]),
    }
    if trials:
        summary["median_gap_ok"] = (
            summary["linear"]["median"] <= summary["uniform"]["median"]
        )
    return SeparationResult(rows=tuple(rows), summary=summary)


@dataclass(frozen=True)
class RankRateBoundReport:
    q: int
    m: int
    n: int
    radius: int
    epsilon: float
    mu: Fraction
    rate: float
    holds: bool


def check_rank_rate_bound(q: int, m: int, n: int, radius: int, epsilon: float) -> RankRateBoundReport:
    """Certify mu * q^(R m n) < 4 q^(-eps m n) at R = (1-p)(1-bp) - eps.

    Multiplying through by q^(eps m n) reduces it to the exact integer
    inequality ball * q^((n-r)(m-r)) < 4 q^(mn); epsilon only has to be
    finite and positive for the rate to be meaningful.
    """
    check_epsilon(epsilon)
    if not 0 < n <= m:
        raise InvalidParameterError(f"need 1 <= n <= m, got ({m}, {n})")
    if not 0 <= radius <= n:
        raise InvalidParameterError(f"rank radius must be in [0, {n}], got {radius}")
    ball = rank_ball_size(q, m, n, radius)
    mu = Fraction(ball, q ** (m * n))
    p = radius / n
    b = n / m
    rate = (1.0 - p) * (1.0 - b * p) - epsilon
    holds = ball * q ** ((n - radius) * (m - radius)) < 4 * q ** (m * n)
    return RankRateBoundReport(
        q=q, m=m, n=n, radius=radius, epsilon=epsilon, mu=mu, rate=rate, holds=holds
    )
