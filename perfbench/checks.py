"""Independent output checks for the benchmark's workloads.

Nothing here calls into listdec: codes are rebuilt from their generators or
words, list sizes are counted in the syndrome (coset) domain or by sorting
ball translates, and balls are enumerated from their definitions.  None of
these checks allocates a 2^n array, but they still run only after the timed
loop (see README).  Each ``check_*`` function returns a list of problem
strings; an empty list means the output passed.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import lru_cache

import numpy as np

# e < E_HI and e > E_LO, for the local-lemma product check.
E_LO = Fraction(2718281828, 10**9)
E_HI = Fraction(2718281829, 10**9)


def popcount(values: np.ndarray) -> np.ndarray:
    v = np.asarray(values, dtype=np.uint64)
    return np.unpackbits(v.view(np.uint8).reshape(-1, 8), axis=1).sum(axis=1).astype(np.int64)


@lru_cache(maxsize=None)
def hamming_ball(n: int, radius: int) -> np.ndarray:
    """Every n-bit word of weight at most radius, from the definition."""
    words = [0]
    for w in range(1, radius + 1):
        words.extend(sum(1 << i for i in pos) for pos in itertools.combinations(range(n), w))
    return np.array(words, dtype=np.int64)


@lru_cache(maxsize=None)
def rank_one_ball(m: int, n: int) -> np.ndarray:
    """Flattened m x n matrices of rank <= 1, as {0} ∪ {u v^T}; row 0 is the
    most significant n-bit block."""
    mats = {0}
    for u in range(1, 1 << m):
        for v in range(1, 1 << n):
            mats.add(sum(v << ((m - 1 - i) * n) for i in range(m) if (u >> (m - 1 - i)) & 1))
    ball = np.array(sorted(mats), dtype=np.int64)
    if len(ball) != ((1 << m) - 1) * ((1 << n) - 1) + 1:
        raise AssertionError(f"rank-1 ball of {m}x{n} has {len(ball)} elements")
    return ball


def rref(generators) -> list[int]:
    """Fully reduced echelon basis of the GF(2) span, leading bits descending."""
    basis: list[int] = []
    for g in generators:
        g = int(g)
        for b in basis:
            g = min(g, g ^ b)
        if g:
            basis = [min(b, b ^ g) for b in basis] + [g]
            basis.sort(reverse=True)
    return basis


def span_words(generators) -> np.ndarray:
    words = np.zeros(1, dtype=np.int64)
    for b in rref(generators):
        words = np.concatenate([words, words ^ np.int64(b)])
    return words


def coset_reps(basis: list[int], words: np.ndarray) -> np.ndarray:
    """Least element of each word's coset: clear every pivot bit in turn."""
    reps = np.array(words, dtype=np.int64)
    for b in basis:
        pivot = b.bit_length() - 1
        reps ^= ((reps >> pivot) & 1) * np.int64(b)
    return reps


def coset_counts(generators, ball: np.ndarray) -> tuple[np.ndarray, np.ndarray, int]:
    """List sizes of a linear code in the syndrome domain: L(x) is the number
    of ball words in x's coset.  Returns (coset minima, counts, dimension);
    cosets missing from the result have L = 0."""
    basis = rref(generators)
    reps, counts = np.unique(coset_reps(basis, ball), return_counts=True)
    return reps, counts, len(basis)


def translate_counts(words: np.ndarray, ball: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """List sizes at every center within the radius of some word, by sorting
    all word-ball translates; every other center has L = 0."""
    pairs = (np.asarray(words, dtype=np.int64)[:, None] ^ ball[None, :]).ravel()
    return np.unique(pairs, return_counts=True)


def direct_count(words: np.ndarray, center: int, radius: int) -> int:
    return int((popcount(np.asarray(words, dtype=np.int64) ^ np.int64(center)) <= radius).sum())


def least_above(centers: np.ndarray, counts: np.ndarray, floor: int) -> int | None:
    """Least center whose list size exceeds floor, or None."""
    over = centers[counts > floor]
    return int(over.min()) if len(over) else None


def potential_from_counts(counts: np.ndarray, weight: int, universe_bits: int, exponent: float) -> float:
    """E_x[2^(exponent L(x))] when each listed count stands for `weight`
    centers and all remaining centers have L = 0."""
    extra = float(np.sum(np.exp2(exponent * counts) - 1.0)) * weight
    return 1.0 + extra / 2.0**universe_bits


def relclose(a: float, b: float, tol: float = 1e-9) -> bool:
    return abs(a - b) <= tol * max(abs(a), abs(b), 1.0)


def check_separation(rec: dict) -> list[str]:
    """rec: n, radius, k, linear (generators), uniform (words) and the op's
    reported max_list/witness per family."""
    n, r = rec["n"], rec["radius"]
    ball = hamming_ball(n, r)
    problems = []
    if (rec["reported_k"], rec["reported_messages"]) != (rec["k"], len(rec["uniform"])):
        problems.append("matched-rate k or message count differs from the closed form")
    reps, counts, _ = coset_counts(rec["linear"], ball)
    top = int(counts.max())
    got = rec["linear_result"]
    if got["max_list"] != top:
        problems.append(f"linear max_list {got['max_list']} != coset count {top}")
    elif got["witness"] != least_above(reps, counts, top - 1):
        problems.append(f"linear witness {got['witness']} is not the least center with L = {top}")
    elif direct_count(span_words(rec["linear"]), got["witness"], r) != top:
        problems.append("linear witness recount disagrees")
    centers, counts = translate_counts(rec["uniform"], ball)
    top = int(counts.max())
    got = rec["uniform_result"]
    if direct_count(rec["uniform"], got["witness"], r) != got["max_list"]:
        problems.append(f"uniform witness recount != max_list {got['max_list']}")
    if got["max_list"] != top:
        problems.append(f"uniform max_list {got['max_list']} != translate count {top}")
    if got["witness"] != least_above(centers, counts, top - 1):
        problems.append(f"uniform witness {got['witness']} is not the least center with L = {top}")
    return problems


def check_certificate(cert: dict, centers: np.ndarray, counts: np.ndarray, max_list: int,
                      what: str, words: np.ndarray | None = None, radius: int = 0) -> list[str]:
    """Compare a certificate with independent per-center counts; when the
    words are given, the witness is also recounted by Hamming distance."""
    top = int(counts.max()) if len(counts) else 0
    problems = []
    if cert["max_list"] != top:
        problems.append(f"{what} max_list {cert['max_list']} != independent count {top}")
    if cert["decodable"] != (top <= max_list):
        problems.append(f"{what} decodable={cert['decodable']} with max list {top} and L = {max_list}")
    want = least_above(centers, counts, max_list)
    if cert["witness"] != want:
        problems.append(f"{what} witness {cert['witness']} != least overfull center {want}")
    elif want is not None and words is not None and direct_count(words, want, radius) <= max_list:
        problems.append(f"{what} witness recount is not overfull")
    return problems


def check_guided(rec: dict) -> list[str]:
    """rec: n, radius, epsilon, max_list, generators, trace values, and the
    certificate (absent when the build ended in a ConstructionError)."""
    n, r, eps = rec["n"], rec["radius"], rec["epsilon"]
    gens = rec["generators"]
    ball = hamming_ball(n, r)
    exponent = eps * n / (1 + eps)
    problems = []
    if len(rref(gens)) != len(gens):
        problems.append("generators are dependent")
    values = rec["values"]
    if len(values) != len(gens) + 1:
        problems.append(f"{len(values)} trace values for {len(gens)} generators")
    for i, s in enumerate(values):
        if i:
            t = values[i - 1] - 1.0
            if s > (1.0 + 2.0 * t + t**1.5) * (1 + 1e-12):
                problems.append(f"trace step {i} above its threshold")
        _, counts, dim = coset_counts(gens[:i], ball)
        fresh = potential_from_counts(counts, 1 << dim, n, exponent)
        if not relclose(s, fresh):
            problems.append(f"trace step {i} value {s} != recomputed {fresh}")
    if rec["certificate"] is not None:
        if len(gens) != rec["k"]:
            problems.append(f"built {len(gens)} generators, asked for {rec['k']}")
        reps, counts, _ = coset_counts(gens, ball)
        problems += check_certificate(rec["certificate"], reps, counts, rec["max_list"],
                                      "guided", span_words(gens), r)
    return problems


def check_resample(rec: dict) -> list[str]:
    """rec: n, radius, messages, max_list, final words, rounds, events,
    certificate (absent after a ConstructionError) and the LLL report."""
    n, r, msgs, lmax = rec["n"], rec["radius"], rec["messages"], rec["max_list"]
    problems = []
    if rec["rounds"] != rec["events"]:
        problems.append(f"rounds {rec['rounds']} != {rec['events']} events")
    if len(rec["words"]) != msgs:
        problems.append(f"{len(rec['words'])} messages, expected {msgs}")
    p_bad = Fraction(int(hamming_ball(n, r).size), 1 << n) ** (lmax + 1)
    degree = (1 << n) * (lmax + 1) * msgs**lmax
    lll = rec["lll"]
    if lll["p_bad"] != p_bad or lll["degree"] != degree:
        problems.append("LLL p_bad or degree differs from the closed form")
    if E_HI * p_bad * (degree + 1) < 1 and not lll["feasible"]:
        problems.append("LLL product is below 1 but reported infeasible")
    if E_LO * p_bad * (degree + 1) >= 1 and lll["feasible"]:
        problems.append("LLL product is at least 1 but reported feasible")
    if rec["certificate"] is not None:
        centers, counts = translate_counts(rec["words"], hamming_ball(n, r))
        if int(counts.max()) > lmax:
            problems.append(f"resampled table has a list of {int(counts.max())} > {lmax}")
        problems += check_certificate(rec["certificate"], centers, counts, lmax,
                                      "resample", rec["words"], r)
    return problems


def check_rank(rec: dict) -> list[str]:
    """rec: the certified code (shape, radius, L, generator flats, certificate)
    and the step-checked code (shape, epsilon, generator flats, report)."""
    m, n, lmax = rec["m"], rec["n"], rec["max_list"]
    words = span_words(rec["generators"])
    centers, counts = translate_counts(words, rank_one_ball(m, n))
    problems = check_certificate(rec["certificate"], centers, counts, lmax, "rank")
    sm, sn, eps = rec["step_m"], rec["step_n"], rec["epsilon"]
    _, counts = translate_counts(span_words(rec["step_generators"]), rank_one_ball(sm, sn))
    excess = potential_from_counts(counts, 1, sm * sn, eps * sn / (1 + eps)) - 1.0
    step = rec["step"]
    if step["hypothesis_met"] != (excess < 1.0):
        problems.append(f"step hypothesis_met={step['hypothesis_met']} with T = {excess}")
    if not step["degenerate"] and not relclose(step["excess"], excess):
        problems.append(f"step excess {step['excess']} != recomputed {excess}")
    if step["hypothesis_met"]:
        if float(step["probability"]) > math.sqrt(excess) * (1 + 1e-12):
            problems.append(f"step P = {float(step['probability'])} > sqrt(T) = {math.sqrt(excess)}")
        if not step["holds"]:
            problems.append("step report says the Markov bound fails")
    return problems


CHECKS = {
    "separation": check_separation,
    "guided": check_guided,
    "resample": check_resample,
    "rank": check_rank,
}
