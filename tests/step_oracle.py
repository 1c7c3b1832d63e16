"""The dense step check: the oracle twin of listsize.check_potential_step.

It builds the 2^N list-size table, gets the weight row of every candidate b
from XOR correlations (an int64 Walsh-Hadamard transform, exact by
construction), and runs a float prefilter against the midpoint of the
interval threshold, an interval recheck within the margin and an interval
Markov comparison over all 2^N candidates.  class_pair_counts is the
brute-force twin of the engine's per-class pair counts.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from listdec import precise
from listdec.errors import ResourceLimitError
from listdec.limits import PAIR_CHECK_MAX_BITS
from listdec.listsize import StepReport, coset_counts, list_size_table
from naive_oracle import eval_float, eval_midpoint, iv_excess, potential_exponent, profile_from_table


def fwht(values: np.ndarray) -> np.ndarray:
    """Unnormalized Walsh-Hadamard transform in int64.

    At N <= PAIR_CHECK_MAX_BITS = 16 an indicator's transform stays within
    2^16 in magnitude, the product of two within 2^32, and the transform of
    that product within 2^48, so no value overflows."""
    out = values.astype(np.int64)
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
    if size > 1 << PAIR_CHECK_MAX_BITS:
        raise ResourceLimitError(f"pair weights capped at 2^{PAIR_CHECK_MAX_BITS} centers")
    vmax = int(table.max())
    transforms = [fwht(table == v) for v in range(vmax + 1)]
    weights = np.zeros((size, 2 * vmax + 1), dtype=np.int64)
    for u in range(vmax + 1):
        for v in range(u, vmax + 1):
            counts, rest = np.divmod(fwht(transforms[u] * transforms[v]), size)
            assert not rest.any(), "an XOR correlation is not a multiple of the table size"
            if u == v:
                weights[:, u + v] += counts
            else:
                weights[:, u + v] += 2 * counts
    return weights


def class_pair_counts(table: np.ndarray) -> np.ndarray:
    """rows[c, s] = #{u : L(u) + L(u ^ c) = s}, counted class by class: the
    brute-force twin of listsize.coset_pair_weights."""
    size = len(table)
    width = 2 * int(table.max()) + 1
    idx = np.arange(size, dtype=np.int64)
    return np.array([np.bincount(table + table[idx ^ c], minlength=width) for c in range(size)])


def step_check_from_table(
    table: np.ndarray,
    block_length: int,
    span_words: np.ndarray,
    epsilon: float,
    radius: int,
) -> StepReport:
    """The step check over all candidates of the table's universe; the
    potential exponent scales with block_length."""
    profile = profile_from_table(table, block_length, radius)
    universe_bits = profile.universe_bits
    if universe_bits > PAIR_CHECK_MAX_BITS:
        raise ResourceLimitError(f"step check capped at 2^{PAIR_CHECK_MAX_BITS} candidates")
    # T from its own intervals: its correctly rounded float, T < 1 decided
    # in intervals, and T = 0 exactly when an interval of T is the point 0.
    t_excess = eval_float(lambda ctx: iv_excess(ctx, profile, epsilon))
    if not precise.certified_less(lambda ctx: iv_excess(ctx, profile, epsilon), lambda ctx: ctx.mpf(1)):
        return StepReport(
            hypothesis_met=False,
            degenerate=False,
            excess=t_excess,
            probability=Fraction(0),
            markov_bound=t_excess**0.5,
            holds=False,
        )
    t_zero = precise.certified(lambda ctx: iv_excess(ctx, profile, epsilon)._mpi_ == ctx.mpf(0)._mpi_)

    size = len(table)
    weights = pair_sum_weights(table)

    def builder_threshold(ctx):
        t = iv_excess(ctx, profile, epsilon)
        return (1 + 2 * t + t ** ctx.mpf(1.5)) * ctx.mpf(2) ** universe_bits

    # Float prefilter; only candidates within the margin get an interval recheck.
    e_float = epsilon * block_length / (1 + epsilon)
    smax = weights.shape[1] - 1
    pows = np.exp2(e_float * np.arange(smax + 1))
    lhs = weights @ pows
    thr = eval_midpoint(builder_threshold)
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
    markov = math.sqrt(t_excess)
    if probability == 0:
        holds = True
    else:
        holds = precise.certified_less(
            lambda ctx: precise.iv_fraction(ctx, probability),
            lambda ctx: ctx.sqrt(iv_excess(ctx, profile, epsilon)),
        )
    return StepReport(
        hypothesis_met=True,
        degenerate=t_zero,
        excess=t_excess,
        probability=probability,
        markov_bound=markov,
        holds=holds,
    )


def affordable(report: StepReport, basis, ball: np.ndarray, universe_bits: int) -> bool:
    """Whether the oracle finishes quickly where the engine gave report:
    pair_sum_weights takes about (vmax + 1)^2 / 2 transforms of
    2^universe_bits entries, vmax the largest list size, and below T = 1e-5
    (degenerate reports included) the float prefilter leaves nearly every
    candidate to an interval recheck."""
    _, mult = coset_counts(basis, ball)
    if (int(mult.max()) + 1) ** 2 << universe_bits > 1 << 22:
        return False
    return not report.hypothesis_met or report.excess >= 1e-5


def dense_potential_step(code, epsilon: float, radius: int) -> StepReport:
    """check_potential_step by the dense oracle, for Hamming and rank codes."""
    table = list_size_table(code, radius)
    return step_check_from_table(table, code.block_length, code.codeword_array(), epsilon, radius)
