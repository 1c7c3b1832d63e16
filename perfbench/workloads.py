"""The benchmark's workloads: what one op calls, and the record its check reads.

Every op calls only entry points that ``listdec/__init__.py`` exports.  Op i
of a run draws from ``Rng(seed, i)``; the cold set-up op draws from
``Rng(seed, SETUP_STREAM)``, a stream no op list reaches.  An op that ends in a
documented outcome (a witness, a non-decodable certificate, or a
ConstructionError carrying its partial result) completes; its record is
checked like any other.
"""

from __future__ import annotations

import math

SETUP_STREAM = 1 << 20

# Nominal ops per second on a 2-core x86 VM: `--seconds` times this fixes the
# length of the op list, so every run of a workload does the same work.
RATES = {"separation": 14.0, "guided": 10.0, "resample": 6.0, "rank": 7.5}

SEPARATION = {"n": 22, "radius": 2, "epsilon": 0.18}
GUIDED = {"n": 20, "k": 6, "radius": 2, "epsilon": 0.2, "max_list": 4}
RESAMPLE = {"n": 18, "radius": 1, "messages": 4000, "max_list": 3}
RANK = {"m": 6, "n": 4, "radius": 1, "k": 8, "max_list": 3,
        "step_m": 4, "step_n": 4, "step_k": 4, "epsilon": 0.5}


def _certificate(cert, to_int) -> dict:
    witness = None if cert.witness is None else to_int(cert.witness)
    return {"decodable": cert.decodable, "max_list": cert.max_list, "witness": witness}


def _flat(matrix) -> int:
    value = 0
    for row in matrix.rows:
        value = (value << matrix.n) | row
    return value


def separation_op(ld, rng):
    p = SEPARATION
    return ld.separation_experiment(p["n"], p["radius"], p["epsilon"], 1, rng)


def separation_record(ld, seed, stream, out) -> dict:
    """Redraws both codes of the trial from the same seeded streams."""
    p = SEPARATION
    n, x = p["n"], p["radius"] / p["n"]
    rate = 1.0 - (-(x * math.log2(x) + (1 - x) * math.log2(1 - x))) - p["epsilon"]
    k, messages = math.floor(rate * n), math.floor(2.0 ** (rate * n))
    rng = ld.Rng(seed, stream)
    linear = rng.substream(0, 0)
    rows = {row.family: row for row in out.rows}
    return {
        "n": n, "radius": p["radius"], "k": k,
        "reported_k": out.summary["k"], "reported_messages": out.summary["num_messages"],
        "linear": [linear.bits(n) for _ in range(k)],
        "uniform": rng.substream(0, 1).bit_array(n, messages),
        **{f"{family}_result": {"max_list": rows[family].max_list,
                                "witness": int(rows[family].witness, 2)}
           for family in ("linear", "uniform")},
    }


def guided_op(ld, rng):
    p = GUIDED
    try:
        code, trace = ld.potential_guided_code(p["n"], p["k"], p["radius"], p["epsilon"], rng)
    except ld.ConstructionError as exc:
        if exc.partial is None:
            raise
        code, trace = exc.partial
        return code, trace, None
    return code, trace, ld.certify(code, p["radius"], p["max_list"])


def guided_record(ld, seed, stream, out) -> dict:
    code, trace, cert = out
    return {
        **GUIDED,
        "generators": [g.bits for g in code.generators],
        "values": [r.value for r in trace.records],
        "certificate": None if cert is None else _certificate(cert, lambda w: w.bits),
    }


def resample_op(ld, rng):
    p = RESAMPLE
    report = ld.lll_condition(p["n"], p["radius"], p["messages"], p["max_list"])
    try:
        result = ld.moser_tardos_construct(p["n"], p["radius"], p["messages"], p["max_list"], rng)
    except ld.ConstructionError as exc:
        if exc.partial is None:
            raise
        return report, exc.partial, None, None
    return report, result.code, result, ld.certify(result.code, p["radius"], p["max_list"])


def resample_record(ld, seed, stream, out) -> dict:
    import numpy as np

    report, code, result, cert = out
    return {
        **RESAMPLE,
        "words": np.array([w.bits for w in code.words], dtype=np.int64),
        "rounds": None if result is None else result.rounds,
        "events": None if result is None else len(result.events),
        "lll": {"p_bad": report.p_bad, "degree": report.degree, "feasible": report.feasible},
        "certificate": None if cert is None else _certificate(cert, lambda w: w.bits),
    }


def rank_op(ld, rng):
    p = RANK
    code = ld.random_linear_rank_code(ld.RankParams(p["m"], p["n"], p["radius"]), p["k"], rng.substream(0))
    cert = ld.certify_rank(code, p["radius"], p["max_list"])
    step_code = ld.random_linear_rank_code(
        ld.RankParams(p["step_m"], p["step_n"], p["radius"]), p["step_k"], rng.substream(1)
    )
    return code, cert, step_code, ld.check_rank_potential_step(step_code, p["epsilon"], p["radius"])


def rank_record(ld, seed, stream, out) -> dict:
    code, cert, step_code, step = out
    return {
        **RANK,
        "generators": [_flat(g) for g in code.generators],
        "certificate": _certificate(cert, _flat),
        "step_generators": [_flat(g) for g in step_code.generators],
        "step": {"hypothesis_met": step.hypothesis_met, "degenerate": step.degenerate,
                 "excess": step.excess, "probability": step.probability, "holds": step.holds},
    }


WORKLOADS = {
    "separation": (separation_op, separation_record),
    "guided": (guided_op, guided_record),
    "resample": (resample_op, resample_record),
    "rank": (rank_op, rank_record),
}
