"""Every resource cap of the package, and the checks that enforce them.

A word (a vector, or a flattened m x n matrix) is packed into a Python int or
an int64 array entry, so its length is at most WORD_BITS.  Every other cap
bounds what an engine allocates, and is checked against the exact size of
the request before anything of that size is built.  This is the only module
that raises ResourceLimitError.  check_epsilon is the one check of the slack
epsilon, finite and positive, that every entry point taking it shares.
"""

from __future__ import annotations

import math

from .errors import InvalidParameterError, ResourceLimitError

# Longest word: below 2^62, int64 XORs, shifts and popcounts stay exact.
WORD_BITS = 62
# Largest array an engine allocates: a 2^n dense table, a Hamming or rank
# ball, the step check's weight rows, the 2^dim codewords of a span.
MAX_WORDS = 1 << 26
# Most words a ball enumeration lists as BitVectors or BitMatrices.
ENUM_MAX_WORDS = 1 << 20
# Most ball increments of one scatter table, or coset pairs of one step check.
SCATTER_MAX = 1 << 30
# Largest quotient of the step check: at most 2^16 coset classes.
PAIR_CHECK_MAX_BITS = 16
# Most entries of one transient pair array (words x ball, cosets x cosets).
CHUNK_PAIRS = 1 << 24


def check_word_bits(bits: int, what: str = "vector length") -> None:
    """Raise InvalidParameterError unless 1 <= bits <= WORD_BITS."""
    if not 1 <= bits <= WORD_BITS:
        raise InvalidParameterError(f"{what} must be in [1, {WORD_BITS}], got {bits}")


def check_epsilon(epsilon: float) -> None:
    """Raise InvalidParameterError unless 0 < epsilon < inf (NaN fails too)."""
    if not 0 < epsilon < math.inf:
        raise InvalidParameterError(f"epsilon must be positive and finite, got {epsilon}")


def check_count(count: int, cap: int, need: str) -> None:
    """Raise ResourceLimitError when count > cap; need states the request,
    with {} for the count ("scatter would need {} increments")."""
    if count > cap:
        raise ResourceLimitError(f"{need.format(count)} (cap {cap})")


def check_bits(bits: int, cap: int, need: str) -> None:
    """check_count for 2^bits entries against cap, a power of two, with both
    written as powers of two."""
    if 1 << bits > cap:
        raise ResourceLimitError(f"{need.format(f'2^{bits}')} (cap 2^{cap.bit_length() - 1})")
