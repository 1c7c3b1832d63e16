"""Bit-packed GF(2) vectors and matrices, span bases, the Hamming ball's
words and seeded randomness.

Vectors of length n are packed into a single Python int; coordinate 0 is the
most significant bit, so the serialized bit string reads left to right and
integer order coincides with lexicographic order on serializations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterable

import numpy as np

from .counting import hamming_volume
from .errors import InvalidParameterError
from .limits import MAX_WORDS, WORD_BITS, check_bits, check_count, check_word_bits


def popcount_array(values: np.ndarray) -> np.ndarray:
    """Per-element popcount of nonnegative packed words (uint8 counts)."""
    return np.bitwise_count(values)


@dataclass(frozen=True)
class BitVector:
    """Immutable GF(2) vector of length 1 <= n <= WORD_BITS (62)."""

    n: int
    bits: int

    def __post_init__(self):
        check_word_bits(self.n)
        if not 0 <= self.bits < (1 << self.n):
            raise InvalidParameterError(f"bits 0x{self.bits:x} out of range for length {self.n}")

    @classmethod
    def from_string(cls, s: str) -> "BitVector":
        s = s.strip()
        if not s or any(c not in "01" for c in s):
            raise InvalidParameterError(f"not a bit string: {s!r}")
        return cls(len(s), int(s, 2))

    @classmethod
    def zero(cls, n: int) -> "BitVector":
        return cls(n, 0)

    def to_string(self) -> str:
        return format(self.bits, f"0{self.n}b")

    def weight(self) -> int:
        return bin(self.bits).count("1")

    def __xor__(self, other: "BitVector") -> "BitVector":
        if self.n != other.n:
            raise InvalidParameterError(f"length mismatch: {self.n} vs {other.n}")
        return BitVector(self.n, self.bits ^ other.bits)

    def __str__(self) -> str:
        return self.to_string()


@dataclass(frozen=True)
class BitMatrix:
    """Immutable m x n matrix over GF(2) with n <= m and mn <= WORD_BITS (62).

    Rows are packed n-bit words; row 0 is the most significant block of the
    flattened integer, so row-major serialization order matches integer order.
    """

    m: int
    n: int
    rows: tuple[int, ...]

    def __post_init__(self):
        if self.n < 1 or self.n > self.m or self.m * self.n > WORD_BITS:
            raise InvalidParameterError(
                f"matrix shape must satisfy 1 <= n <= m and mn <= {WORD_BITS}, got {self.m}x{self.n}"
            )
        if len(self.rows) != self.m:
            raise InvalidParameterError(f"expected {self.m} rows, got {len(self.rows)}")
        mask = (1 << self.n) - 1
        for r in self.rows:
            if not 0 <= r <= mask:
                raise InvalidParameterError(f"row 0x{r:x} exceeds the {self.n}-bit mask")

    @classmethod
    def zero(cls, m: int, n: int) -> "BitMatrix":
        return cls(m, n, (0,) * m)

    @classmethod
    def from_flat(cls, m: int, n: int, value: int) -> "BitMatrix":
        mask = (1 << n) - 1
        rows = tuple((value >> ((m - 1 - i) * n)) & mask for i in range(m))
        return cls(m, n, rows)

    @classmethod
    def from_string(cls, s: str) -> "BitMatrix":
        rows = [BitVector.from_string(ln) for ln in s.strip().splitlines() if ln]
        if not rows or any(r.n != rows[0].n for r in rows):
            raise InvalidParameterError(f"not a matrix of equal-length bit rows: {s!r}")
        return cls(len(rows), rows[0].n, tuple(r.bits for r in rows))

    def to_flat(self) -> int:
        value = 0
        for r in self.rows:
            value = (value << self.n) | r
        return value

    def to_string(self) -> str:
        return "\n".join(format(r, f"0{self.n}b") for r in self.rows)

    def __xor__(self, other: "BitMatrix") -> "BitMatrix":
        if (self.m, self.n) != (other.m, other.n):
            raise InvalidParameterError("matrix shape mismatch")
        return BitMatrix(self.m, self.n, tuple(a ^ b for a, b in zip(self.rows, other.rows)))

    def rank(self) -> int:
        return rank_of_ints(list(self.rows))

    def __str__(self) -> str:
        return self.to_string()


def rank_of_ints(rows: Iterable[int]) -> int:
    """GF(2) rank of packed row words: the dimension of their SpanBasis."""
    return SpanBasis(rows).dim


class SpanBasis:
    """Incremental echelon basis for span membership, extension and coset
    reduction.

    pivots maps each pivot bit h to the basis row whose leading bit is h, in
    descending h; every row is 0 at the pivots above its own."""

    def __init__(self, vectors: Iterable[int] = ()):
        self.pivots: dict[int, int] = {}
        for v in vectors:
            self.insert(v)

    def reduce(self, v: int) -> int:
        """The least element of v's coset of the span, 0 exactly when v is in
        it: every pivot bit is cleared, from the top pivot down (the int
        twin of listsize.coset_reduce)."""
        for h, row in self.pivots.items():
            if (v >> h) & 1:
                v ^= row
        return v

    def contains(self, v: int) -> bool:
        return self.reduce(v) == 0

    def insert(self, v: int) -> bool:
        """Insert v; returns True if it enlarged the span."""
        v = self.reduce(v)
        if v == 0:
            return False
        self.pivots[v.bit_length() - 1] = v
        self.pivots = dict(sorted(self.pivots.items(), reverse=True))
        return True

    @property
    def dim(self) -> int:
        return len(self.pivots)

    def enumerate(self) -> np.ndarray:
        """All 2^dim span elements as an int64 array (iterative doubling)."""
        check_bits(self.dim, MAX_WORDS, "span enumeration needs {} codewords")
        out = np.zeros(1, dtype=np.int64)
        for v in self.pivots.values():
            out = np.concatenate([out, out ^ np.int64(v)])
        return out


@lru_cache(maxsize=16)
def ball_masks(n: int, radius: int) -> np.ndarray:
    """Packed words of B(0, radius) in weight-major, numeric-minor order.

    Built by a recurrence over the length: the weight-w words below 2^j are
    those below 2^(j-1), then the weight-(w-1) words below 2^(j-1) with bit
    j-1 set, which are all larger, so each weight stays ascending.  Cached per
    (n, radius) and read-only, so repeated calls share one array.  The word
    length and the ball's volume are checked before anything is built."""
    check_word_bits(n)
    check_count(hamming_volume(n, radius), MAX_WORDS, "Hamming ball needs {} words")
    levels = [np.zeros(1, dtype=np.int64)] + [np.zeros(0, dtype=np.int64)] * radius
    for j in range(n):
        bit = np.int64(1 << j)
        # Downward, so levels[w - 1] still holds the words below 2^j.
        for w in range(min(j + 1, radius), 0, -1):
            levels[w] = np.concatenate([levels[w], levels[w - 1] | bit])
    ball = np.concatenate(levels)
    ball.flags.writeable = False
    return ball


@dataclass
class Rng:
    """Deterministic random stream: PCG64 keyed by (master_seed, stream_index).

    Streams with distinct indices are independent for practical purposes
    (numpy SeedSequence spawn keys).  A stream is single-owner; parallel
    trials each derive their own stream index.  The PCG64 stream is
    platform-independent; bit-exact replay assumes a fixed numpy version.
    """

    master_seed: int
    stream_index: int = 0
    subkey: tuple[int, ...] = ()
    _gen: np.random.Generator = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        seq = np.random.SeedSequence(
            entropy=self.master_seed, spawn_key=(self.stream_index, *self.subkey)
        )
        self._gen = np.random.Generator(np.random.PCG64(seq))

    def substream(self, *key: int) -> "Rng":
        """Independent child stream; used to give each trial its own stream."""
        return Rng(self.master_seed, self.stream_index, self.subkey + key)

    def bits(self, width: int) -> int:
        check_word_bits(width, "bit width")
        return int(self._gen.integers(0, 1 << width))

    def bit_array(self, width: int, size: int) -> np.ndarray:
        check_word_bits(width, "bit width")
        return self._gen.integers(0, 1 << width, size=size, dtype=np.int64)

    def uniform(self, low: float = 0.0, high: float = 1.0) -> float:
        return float(self._gen.uniform(low, high))

    def integer(self, low: int, high: int) -> int:
        """Uniform integer in [low, high)."""
        return int(self._gen.integers(low, high))
