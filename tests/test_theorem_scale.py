"""Linear codes past the reach of any 2^n oracle (n = 40-62, rank codes of
32 and 60 bits): the coset engine against per-center recounts from the
codewords, and the exact invariants of the profile."""

from __future__ import annotations

import numpy as np
import pytest

from listdec import (
    RankParams,
    ResourceLimitError,
    Rng,
    certify,
    gf2,
    list_profile,
    random_linear_code,
    random_linear_rank_code,
)
from listdec.gf2 import SpanBasis
from listdec.limits import MAX_WORDS
from listdec.listsize import coset_counts, coset_reduce, recount_center

CENTERS = 50


def hamming_code(n, k, seed):
    return random_linear_code(n, k, Rng(seed, 0))


def rank_code(m, n, k, seed):
    return random_linear_rank_code(RankParams(m, n, 1), k, Rng(seed, 0))


# (code, radius): dim <= 20 and balls of 3,826 to 64,450 words.
CASES = {
    "hamming-40": (lambda: hamming_code(40, 20, 401), 3),
    "hamming-50": (lambda: hamming_code(50, 16, 501), 3),
    "hamming-62": (lambda: hamming_code(62, 12, 621), 3),
    "rank-8x4": (lambda: rank_code(8, 4, 12, 84), 1),
    "rank-10x6": (lambda: rank_code(10, 6, 12, 106), 1),
}


def sampled_centers(code, radius, rng):
    """Half uniform centers (mostly empty lists), half a codeword plus a ball
    word (lists of at least one)."""
    ball = code.ball(radius)
    near = code.codeword_array()[rng.bit_array(code.basis.dim, CENTERS // 2)]
    near ^= ball[[rng.integer(0, len(ball)) for _ in range(CENTERS // 2)]]
    return np.concatenate([rng.bit_array(code.n, CENTERS - CENTERS // 2), near])


@pytest.mark.parametrize("name", sorted(CASES))
def test_coset_engine_matches_recount(name):
    build, radius = CASES[name]
    code = build()
    reps, mult = coset_counts(code.basis, code.ball(radius))
    centers = sampled_centers(code, radius, Rng(7, 1))
    reduced = coset_reduce(code.basis, centers)
    at = np.minimum(np.searchsorted(reps, reduced), len(reps) - 1)
    engine = np.where(reps[at] == reduced, mult[at], 0)
    recount = [recount_center(code, int(x), radius) for x in centers]
    assert engine.tolist() == recount
    assert max(recount) >= 1


@pytest.mark.parametrize("name", sorted(CASES))
def test_profile_invariants_and_certify(name):
    build, radius = CASES[name]
    code = build()
    ball = code.ball(radius)
    profile = list_profile(code, radius)
    assert sum(c for _, c in profile.counts) == 1 << code.n
    assert profile.total_mass == (1 << code.basis.dim) * len(ball)
    # One below the maximum list: certify finds a witness and recounts it
    # from the codewords, raising if the recount disagrees.
    cert = certify(code, radius, profile.max_ell - 1)
    assert not cert.decodable and cert.witness is not None
    assert cert.max_list == profile.max_ell


def test_span_enumeration_capped_before_doubling(monkeypatch):
    basis = SpanBasis(1 << i for i in range(MAX_WORDS.bit_length()))
    assert 1 << basis.dim > MAX_WORDS

    def unreachable(*args, **kwargs):
        raise AssertionError("doubled before the cap")

    monkeypatch.setattr(gf2.np, "concatenate", unreachable)
    with pytest.raises(ResourceLimitError):
        basis.enumerate()
