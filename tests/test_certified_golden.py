"""Golden outputs of the certified layer: envelope traces, step counts,
potentials, step reports, certificates and guided codes.

Each group is a list of lines whose sha256 was recorded before the
escalation loops and the potential's formulas were folded into one place
each, so any change in a decision, or in the precision a trace stops at (its
printed midpoints), shows here.  Potentials are written as the pair
(value_float, excess_float), the floats every decision and trace reads; that
digest was recorded while S was still a 160-bit mpmath value, before it
became an exact bracket, so any change in a single bit of either float shows.
"""

from __future__ import annotations

import hashlib

import pytest

from listdec import (
    RankParams,
    Rng,
    certify,
    check_potential_step,
    envelope_trace,
    list_profile,
    max_envelope_steps,
    potential,
    potential_guided_code,
    random_linear_code,
    random_linear_rank_code,
)
from listdec.errors import ConstructionError

EPSILONS = (0.05, 0.1, 0.2, 0.3, 0.5)


def envelope_lines():
    """n = 6..30, even radii up to n/2, every epsilon: the step count, and
    the trace wherever it is at least 1."""
    lines = []
    for n in range(6, 31):
        for radius in range(0, n // 2 + 1, 2):
            for eps in EPSILONS:
                steps = max_envelope_steps(n, radius, eps)
                lines.append(repr((n, radius, eps, steps)))
                if steps >= 1:
                    lines.append(repr(envelope_trace(n, radius, eps, steps)))
    return lines


def linear_cases():
    """(code, radius, epsilon) for 60 seeded random linear codes."""
    cases = []
    for i in range(60):
        n = 8 + i % 7
        k = 1 + i % (n - 4)
        radius = 1 + i % 3
        code = random_linear_code(n, k, Rng(4242, i))
        cases.append((code, radius, EPSILONS[i % len(EPSILONS)]))
    return cases


def potential_lines():
    lines = []
    for code, radius, eps in linear_cases():
        state = potential(list_profile(code, radius), eps)
        lines.append(repr((state.value_float, state.excess_float)))
    for i in range(12):
        params = RankParams(4, 3 + i % 2, 1)
        code = random_linear_rank_code(params, 1 + i % 5, Rng(4343, i))
        state = potential(list_profile(code, 1), EPSILONS[i % len(EPSILONS)])
        lines.append(repr((state.value_float, state.excess_float)))
    return lines


def step_lines():
    lines = []
    for code, radius, eps in linear_cases():
        if code.n - code.effective_dim <= 10:
            lines.append(repr(check_potential_step(code, eps, radius)))
    for i in range(12):
        params = RankParams(4, 3, 1)
        code = random_linear_rank_code(params, 2 + i % 6, Rng(4444, i))
        lines.append(repr(check_potential_step(code, 0.2 + 0.05 * (i % 7), 1)))
    return lines


def certificate_lines():
    lines = []
    for i, (code, radius, _) in enumerate(linear_cases()):
        lines.append(repr(certify(code, radius, 1 + i % 4)))
    for i in range(12):
        code = random_linear_rank_code(RankParams(4, 3, 1), 2 + i % 5, Rng(4545, i))
        lines.append(repr(certify(code, 1, 1 + i % 3)))
    return lines


def guided_lines():
    lines = []
    for i in range(16):
        n, k, radius, eps = 12 + i % 5, 3 + i % 3, 1 + i % 2, (0.3, 0.5, 0.2, 0.4)[i % 4]
        rule = ("step", "square")[i % 2]
        try:
            code, trace = potential_guided_code(n, k, radius, eps, Rng(4646, i), rule=rule)
            lines.append(repr((code.generators, trace)))
        except ConstructionError as exc:
            lines.append(repr(("failed", str(exc), exc.partial)))
    return lines


def digest(lines) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


GOLDEN = {
    "envelope": (
        envelope_lines,
        "5549e24da60d8952d7f4ff369b180af5684b1648f567331b98b40bbecadefbe1",
    ),
    "potential": (
        potential_lines,
        "407f099a8e284e675fb9bd69cb94fbb0717a5cfb921454ff64db4cfea58c92f1",
    ),
    "step": (
        step_lines,
        "d49d1e377ce902045ca196344b92088fc435f8efe1273a4e98aca6dc8b87ee7a",
    ),
    "certificate": (
        certificate_lines,
        "f1bf0229e3ef5f3a13d3ecb669bef72249c486203e134d2fca3d93e8a52b3c4f",
    ),
    "guided": (
        guided_lines,
        "e7bd3912dacf5052fff3eddebbc2bbcddd8ac8134de3c504f73e6a41ca0144ce",
    ),
}


@pytest.mark.parametrize("group", sorted(GOLDEN))
def test_golden(group):
    lines_of, expected = GOLDEN[group]
    assert digest(lines_of()) == expected
