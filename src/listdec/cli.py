"""Command-line front end: every experiment as a subcommand with reproducible
seeds, JSON/CSV outputs, config echo and atomic writes.

Every run resolves its arguments into a config dict that is echoed into the
output header; re-running `listdec --config <echoed>` reproduces the output
byte for byte.  Exit codes: 0 success or property holds, 1 witness or
construction failure, 2 invalid parameters, 3 resource limit.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from itertools import product

import numpy as np

from . import constructors, counting, listsize, rankmetric, secondmoment
from .errors import ConstructionError, InvalidParameterError, ResourceLimitError
from .gf2 import BitVector, Rng

EXIT_OK = 0
EXIT_WITNESS = 1
EXIT_INVALID = 2
EXIT_RESOURCE = 3

TABLE_GUARD_BITS = 26
SCATTER_GUARD = 1 << 30


def guard_resources(universe_bits: int, scatter_increments: int) -> None:
    if universe_bits > TABLE_GUARD_BITS:
        raise ResourceLimitError(
            f"table of 2^{universe_bits} entries exceeds the 2^{TABLE_GUARD_BITS} cap"
        )
    if scatter_increments > SCATTER_GUARD:
        raise ResourceLimitError(
            f"{scatter_increments} scatter increments exceed the 2^30 cap"
        )


def jsonable(value):
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}"
    if isinstance(value, BitVector):
        return value.to_string()
    if isinstance(value, dict):
        return {str(k): jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    if hasattr(value, "__dataclass_fields__"):
        return {k: jsonable(getattr(value, k)) for k in value.__dataclass_fields__}
    if isinstance(value, np.bool_):
        return bool(value)
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    return value


def canonical_json(obj) -> str:
    return json.dumps(jsonable(obj), sort_keys=True, separators=(",", ":"))


def atomic_write(path: str, data: bytes) -> None:
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".listdec-")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def render_json(config: dict, result: dict) -> bytes:
    payload = {"config": config, "result": result}
    return (json.dumps(jsonable(payload), sort_keys=True, indent=2) + "\n").encode()


def render_csv(config: dict, columns: list[str], rows: list[dict], summary: dict | None) -> bytes:
    buf = io.StringIO()
    buf.write("# config: " + canonical_json(config) + "\n")
    if summary is not None:
        buf.write("# summary: " + canonical_json(summary) + "\n")
    writer = csv.DictWriter(buf, fieldnames=columns, lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow({k: jsonable(v) for k, v in row.items()})
    return buf.getvalue().encode()


def potential_fields(profile, epsilon):
    state = listsize.potential(profile, epsilon)
    value = state.value_float
    excess = state.excess_float
    return value, excess


def need(params: dict, *keys: str) -> None:
    missing = [k for k in keys if params.get(k) is None]
    if missing:
        raise InvalidParameterError(f"missing required parameters: {', '.join(missing)}")


def build_code(params: dict, rng: Rng):
    family = params.get("family", "linear")
    need(params, "n")
    n = params["n"]
    if family == "linear":
        need(params, "k")
        return constructors.random_linear_code(n, params["k"], rng)
    if family == "uniform":
        need(params, "messages")
        return constructors.uniform_random_code(n, params["messages"], rng)
    raise InvalidParameterError(f"unknown code family {family!r}")


def cmd_volumes(params: dict, master_seed, trials):
    need(params, "n", "radius")
    report = counting.check_volume_bounds(params["n"], params["radius"])
    result = {
        "n": report.n,
        "r": report.r,
        "vol": report.volume,
        "binomial": report.binomial,
        "entropy_bound": report.upper_bound,
        "lower_bound": report.lower_bound,
        "sandwich_holds": report.sandwich_holds,
        "intersection": [
            {"d": c.d, "exact": c.exact, "ratio": c.ratio, "bound": c.bound, "holds": c.holds}
            for c in report.intersection
        ],
        "intersection_all_hold": report.intersection_all_hold,
    }
    ok = report.sandwich_holds and report.intersection_all_hold
    return result, EXIT_OK if ok else EXIT_WITNESS, None


def cmd_profile(params: dict, master_seed, trials):
    need(params, "n", "radius", "epsilon")
    n, radius = params["n"], params["radius"]
    guard_resources(n, 0)
    rng = Rng(master_seed, 0)
    code = build_code(params, rng)
    words = code.codeword_array()
    guard_resources(n, len(words) * counting.hamming_volume(n, radius))
    profile = listsize.list_profile(code, radius)
    value, excess = potential_fields(profile, params["epsilon"])
    p_geq = {}
    q_geq = {}
    for ell in range(1, profile.max_ell + 1):
        p_tail, q_tail = listsize.tail_stats(profile, ell)
        p_geq[str(ell)] = p_tail
        q_geq[str(ell)] = q_tail
    result = {
        "n": n,
        "r": radius,
        "family": params.get("family", "linear"),
        "k": params.get("k"),
        "messages": params.get("messages"),
        "effective_dim": getattr(code, "effective_dim", None),
        "counts": {str(ell): c for ell, c in profile.counts},
        "max_ell": profile.max_ell,
        "P_geq": p_geq,
        "Q_geq": q_geq,
        "S": value,
        "T": excess,
    }
    return result, EXIT_OK, None


def cmd_certify(params: dict, master_seed, trials):
    need(params, "n", "radius", "max_list")
    n, radius = params["n"], params["radius"]
    guard_resources(n, 0)
    rng = Rng(master_seed, 0)
    code = build_code(params, rng)
    words = code.codeword_array()
    guard_resources(n, len(words) * counting.hamming_volume(n, radius))
    cert = listsize.certify(code, radius, params["max_list"])
    result = {
        "n": n,
        "r": radius,
        "max_list_allowed": params["max_list"],
        "decodable": cert.decodable,
        "max_list": cert.max_list,
        "checked_count": cert.checked_count,
        "witness": cert.witness.to_string() if cert.witness is not None else None,
    }
    return result, EXIT_OK if cert.decodable else EXIT_WITNESS, None


def cmd_construct(params: dict, master_seed, trials):
    need(params, "kind")
    kind = params["kind"]
    need(params, "n")
    n = params["n"]
    radius = params.get("radius")
    rng = Rng(master_seed, 0)
    result: dict = {"kind": kind, "n": n}

    if kind == "linear":
        need(params, "k")
        linear = constructors.random_linear_code(n, params["k"], rng)
        result["generators"] = [g.to_string() for g in linear.generators]
        result["effective_dim"] = linear.effective_dim
        built = linear
    elif kind == "uniform":
        need(params, "messages")
        table = constructors.uniform_random_code(n, params["messages"], rng)
        result["words"] = [w.to_string() for w in table.words]
        built = table
    elif kind == "guided":
        need(params, "k", "radius", "epsilon")
        try:
            built, trace = constructors.potential_guided_code(
                n,
                params["k"],
                radius,
                params["epsilon"],
                rng,
                max_retries_per_step=params.get("max_retries", constructors.DEFAULT_MAX_RETRIES),
                rule=params.get("rule", "step"),
            )
        except ConstructionError as exc:
            partial_code, partial_trace = exc.partial
            result["error"] = str(exc)
            result["generators"] = [g.to_string() for g in partial_code.generators]
            result["trace"] = [vars(r) for r in partial_trace.records]
            return result, EXIT_WITNESS, None
        result["generators"] = [g.to_string() for g in built.generators]
        result["effective_dim"] = built.effective_dim
        result["trace"] = [vars(r) for r in trace.records]
        result["total_retries"] = trace.total_retries
    elif kind == "lll":
        need(params, "radius", "messages", "max_list")
        report = constructors.lll_condition(n, radius, params["messages"], params["max_list"])
        result["lll"] = {
            "p_bad": report.p_bad,
            "degree": report.degree,
            "product_log2": report.product_log2,
            "feasible": report.feasible,
        }
        try:
            mt = constructors.moser_tardos_construct(
                n,
                radius,
                params["messages"],
                params["max_list"],
                rng,
                max_rounds=params.get("max_rounds"),
            )
        except ConstructionError as exc:
            result["error"] = str(exc)
            result["words"] = [w.to_string() for w in exc.partial.words]
            return result, EXIT_WITNESS, None
        built = mt.code
        result["words"] = [w.to_string() for w in built.words]
        result["rounds"] = mt.rounds
    else:
        raise InvalidParameterError(f"unknown construct kind {kind!r}")

    if params.get("max_list") is not None and radius is not None:
        cert = listsize.certify(built, radius, params["max_list"])
        result["certified"] = cert.decodable
        result["max_list"] = cert.max_list
        if not cert.decodable:
            result["witness"] = cert.witness.to_string()
            return result, EXIT_WITNESS, None
    return result, EXIT_OK, None


def cmd_rank(params: dict, master_seed, trials):
    need(params, "action", "m", "n", "radius", "k")
    action = params["action"]
    m, n = params["m"], params["n"]
    radius = params["radius"]
    rng = Rng(master_seed, 0)
    rank_params = rankmetric.RankParams(m, n, radius)
    code = rankmetric.random_linear_rank_code(rank_params, params["k"], rng)
    guard_resources(rank_params.universe_bits, 0)
    if action == "profile":
        profile = rankmetric.rank_list_profile(code, radius)
        result = {
            "m": m,
            "n": n,
            "r": radius,
            "k": params["k"],
            "effective_dim": code.effective_dim,
            "counts": {str(ell): c for ell, c in profile.counts},
            "max_ell": profile.max_ell,
        }
        if params.get("epsilon") is not None:
            value, excess = potential_fields(profile, params["epsilon"])
            result["S"] = value
            result["T"] = excess
        return result, EXIT_OK, None
    if action == "certify":
        need(params, "max_list")
        cert = rankmetric.certify_rank(code, radius, params["max_list"])
        result = {
            "m": m,
            "n": n,
            "r": radius,
            "k": params["k"],
            "max_list_allowed": params["max_list"],
            "decodable": cert.decodable,
            "max_list": cert.max_list,
            "witness": cert.witness.to_string() if cert.witness is not None else None,
        }
        return result, EXIT_OK if cert.decodable else EXIT_WITNESS, None
    if action == "construct":
        result = {
            "m": m,
            "n": n,
            "k": params["k"],
            "generators": [g.to_string() for g in code.generators],
            "effective_dim": code.effective_dim,
        }
        return result, EXIT_OK, None
    raise InvalidParameterError(f"unknown rank action {action!r}")


def cmd_lowerbound(params: dict, master_seed, trials):
    need(params, "action")
    action = params["action"]
    if action == "ew":
        need(params, "n", "messages", "max_list", "radius")
        report = secondmoment.expected_cluster_count(
            params["n"], params["messages"], params["max_list"], params["radius"]
        )
        result = {
            "n": report.n,
            "r": report.radius,
            "messages": report.num_messages,
            "L": report.list_size,
            "value": report.value,
            "value_float": float(report.value),
            "floor": report.floor,
            "floor_applies": report.floor_applies,
            "floor_holds": report.floor_holds,
        }
        return result, EXIT_OK, None
    if action == "pre":
        need(params, "n", "radius", "shared", "max_list")
        report = secondmoment.pair_event_probability(
            params["n"], params["radius"], params["shared"], params["max_list"]
        )
        result = {
            "n": report.n,
            "r": report.radius,
            "shared": report.shared,
            "L": report.list_size,
            "mu": report.mu,
            "probability": report.probability,
            "probability_float": float(report.probability),
            "bound_crude": report.bound_crude,
            "bound_crude_holds": report.bound_crude_holds,
            "bound_refined_log2": report.bound_refined_log2,
            "bound_refined_holds": report.bound_refined_holds,
        }
        return result, EXIT_OK if report.bound_crude_holds else EXIT_WITNESS, None
    if action == "params":
        need(params, "p", "epsilon")
        report = secondmoment.lower_bound_params(params["p"], params["epsilon"])
        return (
            {
                "p": report.p,
                "epsilon": report.epsilon,
                "crossover_ell": report.crossover_ell,
                "margin": report.margin,
                "list_size": report.list_size,
            },
            EXIT_OK,
            None,
        )
    if action == "separate":
        need(params, "n", "radius", "epsilon")
        n, radius = params["n"], params["radius"]
        guard_resources(n, 0)
        rng = Rng(master_seed, 0)
        result = secondmoment.separation_experiment(
            n, radius, params["epsilon"], trials or 0, rng
        )
        columns = ["trial", "family", "seed", "n", "r", "rate", "max_list", "witness"]
        rows = [
            {
                "trial": row.trial,
                "family": row.family,
                "seed": row.seed,
                "n": row.n,
                "r": row.radius,
                "rate": row.rate,
                "max_list": row.max_list,
                "witness": row.witness,
            }
            for row in result.rows
        ]
        return result.summary, EXIT_OK, (columns, rows, result.summary)
    raise InvalidParameterError(f"unknown lowerbound action {action!r}")


def cmd_potential_trace(params: dict, master_seed, trials):
    need(params, "n", "k", "radius", "epsilon")
    n, k, radius, epsilon = params["n"], params["k"], params["radius"], params["epsilon"]
    guard_resources(n, 0)
    rng = Rng(master_seed, 0)
    if params.get("guided"):
        code, trace = constructors.potential_guided_code(n, k, radius, epsilon, rng)
        records = trace.records
        generators = code.generators
    else:
        generators = constructors.random_linear_code(n, k, rng).generators
        records = None
    profiles = [
        listsize.list_profile(listsize.LinearCode(n, generators[:i]), radius)
        for i in range(len(generators) + 1)
    ]
    if records is None:
        records = []
        for i, profile in enumerate(profiles):
            value, excess = potential_fields(profile, epsilon)
            records.append(
                constructors.StepRecord(step=i, value=value, excess=excess, retries=0)
            )
    envelope = listsize.envelope_trace(n, radius, epsilon, k)
    steps = []
    for rec in records:
        steps.append(
            {
                "step": rec.step,
                "S": rec.value,
                "T": rec.excess,
                "retries": rec.retries,
                "delta": envelope.deltas[rec.step],
                "within_envelope": listsize.excess_within_envelope(
                    profiles[rec.step], epsilon, rec.step
                ),
            }
        )
    result = {
        "n": n,
        "k": k,
        "r": radius,
        "epsilon": epsilon,
        "guided": bool(params.get("guided")),
        "generators": [g.to_string() for g in generators],
        "steps": steps,
        "envelope_ok": envelope.envelope_ok,
        "envelope_violations": list(envelope.violations),
    }
    return result, EXIT_OK, None


def _sweep_cell(experiment: str, cell: dict, master_seed: int, cell_index: int, trials: int):
    rng = Rng(master_seed, cell_index)
    if experiment == "certify":
        code = build_code(cell, rng)
        cert = listsize.certify(code, cell["radius"], cell["max_list"])
        return {
            "status": "ok",
            "decodable": cert.decodable,
            "max_list": cert.max_list,
            "witness": cert.witness.to_string() if cert.witness is not None else "",
        }
    if experiment == "qbound":
        violations = 0
        for t in range(trials):
            code = constructors.random_linear_code(cell["n"], cell["k"], rng.substream(t))
            profile = listsize.list_profile(code, cell["radius"])
            checks = listsize.check_tail_bound(
                profile, cell["k"], cell["gamma"], cell["max_list"]
            )
            if not all(c.holds for c in checks):
                violations += 1
        return {
            "status": "ok",
            "trials": trials,
            "violations": violations,
            "violation_fraction": violations / trials if trials else 0.0,
        }
    raise InvalidParameterError(f"unknown sweep experiment {experiment!r}")


def cmd_sweep(params: dict, master_seed, trials):
    need(params, "experiment")
    experiment = params["experiment"]
    base = params.get("base", {})
    grid = params.get("grid", {})
    if not grid or any(len(v) == 0 for v in grid.values()):
        raise InvalidParameterError("sweep grid must be non-empty")
    keys = list(grid.keys())
    cells = []
    for combo in product(*(grid[k] for k in keys)):
        cell = dict(base)
        cell.update(dict(zip(keys, combo)))
        cells.append(cell)
    workers = max(1, int(os.environ.get("LISTDEC_THREADS", "1")))
    cell_trials = trials or params.get("trials", 0) or 0

    def run_cell(args):
        index, cell = args
        try:
            outcome = _sweep_cell(experiment, cell, master_seed, index, cell_trials)
        except InvalidParameterError as exc:
            outcome = {"status": f"invalid: {exc}"}
        except ResourceLimitError as exc:
            outcome = {"status": f"resource-limit: {exc}"}
        except Exception as exc:  # cells must not kill the sweep
            outcome = {"status": f"failed: {exc}"}
        return index, cell, outcome

    with ThreadPoolExecutor(max_workers=workers) as pool:
        outcomes = list(pool.map(run_cell, enumerate(cells)))
    outcomes.sort(key=lambda item: item[0])
    metric_keys: list[str] = []
    for _, _, outcome in outcomes:
        for key in outcome:
            if key not in metric_keys:
                metric_keys.append(key)
    columns = ["cell"] + keys + [k for k in sorted(base) if k not in keys] + metric_keys
    rows = []
    for index, cell, outcome in outcomes:
        row = {"cell": index}
        row.update({k: cell.get(k) for k in keys})
        row.update({k: cell.get(k) for k in sorted(base) if k not in keys})
        row.update(outcome)
        rows.append(row)
    summary = {"experiment": experiment, "cells": len(cells)}
    return summary, EXIT_OK, (columns, rows, summary)


HANDLERS = {
    "volumes": cmd_volumes,
    "profile": cmd_profile,
    "certify": cmd_certify,
    "construct": cmd_construct,
    "rank": cmd_rank,
    "lowerbound": cmd_lowerbound,
    "potential-trace": cmd_potential_trace,
    "sweep": cmd_sweep,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="listdec", description=__doc__)
    parser.add_argument("--config", help="replay a run from an echoed config JSON file")
    sub = parser.add_subparsers(dest="subcommand")

    def common(p, seed=True):
        p.add_argument("--out", help="output file path")
        p.add_argument("--format", choices=["json", "csv"], default=None)
        if seed:
            p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("volumes")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--radius", type=int, required=True)
    common(p, seed=False)

    p = sub.add_parser("profile")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--radius", type=int, required=True)
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--family", choices=["linear", "uniform"], default="linear")
    p.add_argument("--k", type=int)
    p.add_argument("--messages", type=int)
    common(p)

    p = sub.add_parser("certify")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--radius", type=int, required=True)
    p.add_argument("--max-list", dest="max_list", type=int, required=True)
    p.add_argument("--family", choices=["linear", "uniform"], default="linear")
    p.add_argument("--k", type=int)
    p.add_argument("--messages", type=int)
    common(p)

    p = sub.add_parser("construct")
    p.add_argument("--kind", choices=["linear", "uniform", "guided", "lll"], required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int)
    p.add_argument("--messages", type=int)
    p.add_argument("--radius", type=int)
    p.add_argument("--epsilon", type=float)
    p.add_argument("--max-list", dest="max_list", type=int)
    p.add_argument("--max-retries", dest="max_retries", type=int)
    p.add_argument("--max-rounds", dest="max_rounds", type=int)
    p.add_argument("--rule", choices=["step", "square"], default="step")
    common(p)

    p = sub.add_parser("rank")
    p.add_argument("action", choices=["profile", "certify", "construct"])
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--radius", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--epsilon", type=float)
    p.add_argument("--max-list", dest="max_list", type=int)
    common(p)

    p = sub.add_parser("lowerbound")
    p.add_argument("action", choices=["ew", "pre", "params", "separate"])
    p.add_argument("--n", type=int)
    p.add_argument("--radius", type=int)
    p.add_argument("--messages", type=int)
    p.add_argument("--max-list", dest="max_list", type=int)
    p.add_argument("--shared", type=int)
    p.add_argument("--p", type=float)
    p.add_argument("--epsilon", type=float)
    p.add_argument("--trials", type=int, default=0)
    common(p)

    p = sub.add_parser("potential-trace")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--radius", type=int, required=True)
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--guided", action="store_true")
    common(p)

    p = sub.add_parser("sweep")
    p.add_argument("--grid", required=True, help="grid config JSON file")
    common(p, seed=False)
    return parser


def config_from_args(args: argparse.Namespace) -> dict:
    sub = args.subcommand
    skip = {"config", "subcommand", "out", "format", "seed", "trials"}
    params = {
        k: v for k, v in vars(args).items() if k not in skip and v is not None and v is not False
    }
    if sub == "sweep":
        with open(args.grid, "r", encoding="utf-8") as handle:
            grid_config = json.load(handle)
        reserved = ("master_seed", "trials", "output_path", "output_format")
        params = {k: v for k, v in grid_config.items() if k not in reserved}
        master_seed = grid_config.get("master_seed", 0)
        trials = grid_config.get("trials", 0)
    else:
        master_seed = getattr(args, "seed", 0) or 0
        trials = getattr(args, "trials", None)
    if "guided" in vars(args):
        params["guided"] = bool(args.guided)
    fmt = args.format
    if fmt is None:
        fmt = "csv" if (sub == "sweep" or (sub == "lowerbound" and args.action == "separate")) else "json"
    return {
        "subcommand": sub,
        "params": params,
        "master_seed": master_seed,
        "trials": trials,
        "output_path": args.out,
        "output_format": fmt,
    }


def run_config(config: dict) -> int:
    sub = config.get("subcommand")
    if sub not in HANDLERS:
        raise InvalidParameterError(f"unknown subcommand {sub!r}")
    handler = HANDLERS[sub]
    result, exit_code, csv_payload = handler(
        config.get("params", {}), config.get("master_seed", 0), config.get("trials")
    )
    fmt = config.get("output_format", "json")
    if fmt == "csv" and csv_payload is None:
        raise InvalidParameterError(f"subcommand {sub!r} has no CSV form")
    if fmt == "csv":
        columns, rows, summary = csv_payload
        data = render_csv(config, columns, rows, summary)
    else:
        data = render_json(config, result)
    out = config.get("output_path")
    if out:
        atomic_write(out, data)
        print(f"wrote {out}")
        print(canonical_json(result))
    else:
        sys.stdout.write(data.decode())
    return exit_code


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.config:
            with open(args.config, "r", encoding="utf-8") as handle:
                loaded = json.load(handle)
            config = loaded["config"] if "config" in loaded else loaded
            if "subcommand" not in config:
                raise InvalidParameterError("config file lacks a subcommand")
            return run_config(config)
        if not args.subcommand:
            parser.print_help()
            return EXIT_INVALID
        config = config_from_args(args)
        return run_config(config)
    except InvalidParameterError as exc:
        print(f"invalid parameters: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except ResourceLimitError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except ConstructionError as exc:
        print(f"construction failed: {exc}", file=sys.stderr)
        return EXIT_WITNESS


if __name__ == "__main__":
    sys.exit(main())
