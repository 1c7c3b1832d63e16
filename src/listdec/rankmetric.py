"""Rank-metric analogs over m x n matrices: rank balls and random linear
rank codes.

Matrices flatten to mn-bit words.  A RankCode supplies its metric to
listsize's list_profile, certify, check_potential_step and list_size_table:
the ball (rank_ball_masks), the block length n of the potential exponent
(not mn), GF(2) ranks of packed words for the witness recount (rank_array)
and BitMatrix witnesses; certify_rank and check_rank_potential_step forward
there.  rank_ball_masks lists each rank-s matrix once as X R (R the reduced
row echelon basis of its row space, X of full column rank), so nothing of
size 2^(mn) is built, nor any table of ranks.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .counting import rank_ball_size
from .errors import InvalidParameterError
from .gf2 import BitMatrix, Rng, SpanBasis
from .limits import ENUM_MAX_WORDS, MAX_WORDS, WORD_BITS, check_count, check_word_bits
from .listsize import Certificate, StepReport, certify, check_potential_step


@dataclass(frozen=True)
class RankParams:
    """Shape m x n (n <= m, mn <= WORD_BITS = 62) and integer rank radius."""

    m: int
    n: int
    radius: int

    def __post_init__(self):
        if self.n < 1 or self.n > self.m or self.m * self.n > WORD_BITS:
            raise InvalidParameterError(
                f"need 1 <= n <= m and mn <= {WORD_BITS}, got {self.m}x{self.n}"
            )
        if not 0 <= self.radius <= self.n:
            raise InvalidParameterError(
                f"rank radius must be in [0, {self.n}], got {self.radius}"
            )

    @property
    def universe_bits(self) -> int:
        return self.m * self.n

    @property
    def b(self) -> float:
        return self.n / self.m

    @property
    def p(self) -> float:
        return self.radius / self.n


@dataclass(frozen=True)
class RankCode:
    """GF(2)-linear span of generator matrices."""

    params: RankParams
    generators: tuple[BitMatrix, ...]

    def __post_init__(self):
        for g in self.generators:
            if (g.m, g.n) != (self.params.m, self.params.n):
                raise InvalidParameterError("generator shape mismatch")

    @cached_property
    def basis(self) -> SpanBasis:
        return SpanBasis(g.to_flat() for g in self.generators)

    @property
    def n(self) -> int:
        # Flattened universe length, so the shared profile engine applies.
        return self.params.universe_bits

    @property
    def block_length(self) -> int:
        # The potential exponent scales with the number of columns, not mn.
        return self.params.n

    def ball(self, radius: int) -> np.ndarray:
        return rank_ball_masks(self.params.m, self.params.n, radius)

    def weight_array(self, words: np.ndarray) -> np.ndarray:
        return rank_array(words, self.params.m, self.params.n)

    def witness(self, word: int) -> BitMatrix:
        return BitMatrix.from_flat(self.params.m, self.params.n, word)

    @property
    def effective_dim(self) -> int:
        return self.basis.dim

    @property
    def rate(self) -> float:
        return self.effective_dim / self.params.universe_bits

    def codeword_array(self) -> np.ndarray:
        return self.basis.enumerate()


def rank_array(words: np.ndarray, m: int, n: int) -> np.ndarray:
    """GF(2) rank of each flattened m x n matrix in words, all eliminated at
    once: per column, a row holding the column's bit is added to every row
    holding it, itself included, so it leaves and the rank counts it."""
    rows = (np.asarray(words, dtype=np.int64)[:, None] >> (n * np.arange(m))) & ((1 << n) - 1)
    ranks = np.zeros(len(rows), dtype=np.int64)
    for j in range(n):
        bit = (rows >> j) & 1
        rows ^= bit * rows[np.arange(len(rows)), np.argmax(bit, axis=1)][:, None]
        ranks += bit.any(axis=1)
    return ranks


def _rref_rows(n: int, s: int) -> np.ndarray:
    """The s rows of every s x n matrix of rank s in reduced row echelon form,
    one matrix per row space, as an array of shape (count, s)."""
    out = []
    for pivots in itertools.combinations(range(n), s):
        # Row j leads at bit pivots[j]; its lower bits outside the pivot
        # columns are free.
        free = [(j, h) for j, p in enumerate(pivots) for h in range(p) if h not in pivots]
        for fill in itertools.product((0, 1), repeat=len(free)):
            rows = [1 << p for p in pivots]
            for (j, h), bit in zip(free, fill):
                rows[j] |= bit << h
            out.append(rows)
    return np.array(out, dtype=np.int64).reshape(-1, s)


def _independent_tuples(m: int, s: int) -> np.ndarray:
    """Every ordered s-tuple of linearly independent m-bit words, as an array
    of shape (count, s); each tuple is extended only by words outside the span
    of its prefix, so nothing is built twice."""
    tuples = np.zeros((1, 0), dtype=np.int64)
    spans = np.zeros((1, 1), dtype=np.int64)
    for _ in range(s):
        outside = np.ones((len(tuples), 1 << m), dtype=bool)
        outside[np.arange(len(tuples))[:, None], spans] = False
        prefix, word = np.nonzero(outside)
        tuples = np.column_stack([tuples[prefix], word])
        spans = np.concatenate([spans[prefix], spans[prefix] ^ word[:, None]], axis=1)
    return tuples


def _spread(columns: np.ndarray, m: int, n: int) -> np.ndarray:
    """Bit i of each m-bit column moved to bit n*i: times an n-bit row r, that
    is the flattened rank-one matrix with row r wherever the column is 1."""
    out = np.zeros_like(columns)
    for i in range(m):
        out |= ((columns >> i) & 1) << (n * i)
    return out


@lru_cache(maxsize=16)
def rank_ball_masks(m: int, n: int, radius: int) -> np.ndarray:
    """Flattened words of all m x n matrices with rank <= radius, ascending.

    A rank-s matrix is X R for exactly one s x n basis R of its row space in
    reduced row echelon form and one m x s matrix X of full column rank, so
    enumerating the pairs (X, R) for s <= radius lists the ball once, at the
    ball's cost.  Cached per (m, n, radius) and read-only, so repeated calls
    share one array.  The word length mn and the ball's volume are checked
    before anything is built."""
    check_word_bits(m * n, "matrix size mn")
    check_count(rank_ball_size(2, m, n, radius), MAX_WORDS, "rank ball needs {} words")
    parts = [np.zeros(1, dtype=np.int64)]
    for s in range(1, radius + 1):
        columns = _spread(_independent_tuples(m, s), m, n)
        rows = _rref_rows(n, s)
        words = np.zeros((len(columns), len(rows)), dtype=np.int64)
        for j in range(s):
            words ^= columns[:, j, None] * rows[None, :, j]
        parts.append(words.ravel())
    ball = np.sort(np.concatenate(parts))
    ball.flags.writeable = False
    return ball


def enumerate_rank_ball(m: int, n: int, radius: int) -> list[BitMatrix]:
    check_count(rank_ball_size(2, m, n, radius), ENUM_MAX_WORDS, "enumeration needs {} words")
    return [BitMatrix.from_flat(m, n, int(v)) for v in rank_ball_masks(m, n, radius)]


def random_linear_rank_code(params: RankParams, k: int, rng: Rng) -> RankCode:
    if not 0 <= k <= params.universe_bits:
        raise InvalidParameterError(f"need 0 <= k <= mn, got k = {k}")
    gens = tuple(
        BitMatrix.from_flat(params.m, params.n, rng.bits(params.universe_bits))
        for _ in range(k)
    )
    return RankCode(params, gens)


def certify_rank(code: RankCode, radius: int, max_list: int) -> Certificate:
    return certify(code, radius, max_list)


def check_rank_potential_step(code: RankCode, epsilon: float, radius: int) -> StepReport:
    return check_potential_step(code, epsilon, radius)
