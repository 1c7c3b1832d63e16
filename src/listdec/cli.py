"""Command-line front end: every experiment as a subcommand with reproducible
seeds, JSON/CSV outputs, config echo and atomic writes.

Every run resolves its arguments into a config dict that is echoed into the
output header; re-running `listdec --config <echoed>` reproduces the output
byte for byte.  Exit codes: 0 success or property holds, 1 witness or
construction failure, 2 invalid parameters (among them a word past 62 bits,
and an input file or LISTDEC_THREADS value that does not parse), 3 resource
limit (a cap of listdec.limits, raised as ResourceLimitError before anything
is allocated).
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from itertools import product
from typing import Callable

from . import constructors, counting, listsize, rankmetric, secondmoment
from .errors import ConstructionError, InvalidParameterError, ResourceLimitError
from .gf2 import Rng

EXIT_OK = 0
EXIT_WITNESS = 1
EXIT_INVALID = 2
EXIT_RESOURCE = 3


def encode(value):
    """json's default= hook for the one result type it does not serialize:
    a Fraction, written as "a/b".  The handlers render every other value
    (words, witnesses, records) as JSON types themselves."""
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}"
    raise TypeError(f"{type(value).__name__} is not JSON serializable")


CANONICAL = {"sort_keys": True, "separators": (",", ":"), "default": encode}


def canonical_json(obj) -> str:
    return json.dumps(obj, **CANONICAL)


def atomic_write(path: str, write: Callable) -> None:
    """write(handle) fills a temporary UTF-8 text file beside path, which
    then replaces path."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".listdec-")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as handle:
            write(handle)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_json(handle, config: dict, result) -> None:
    """The run's JSON document, streamed: json.dump writes the encoder's
    chunks as they come, so no str or bytes copy of the whole document is
    held (a million 30-bit words make 40 MB)."""
    json.dump({"config": config, "result": result}, handle, sort_keys=True, indent=2, default=encode)
    handle.write("\n")


def write_csv(handle, config: dict, summary: dict, columns: list[str], rows: list[dict]) -> None:
    """The run's CSV document, streamed row by row: the config and the
    summary as comment lines, then a header and one line per row.  Rows hold
    plain ints, floats, strs and bools."""
    handle.write("# config: " + canonical_json(config) + "\n")
    handle.write("# summary: " + canonical_json(summary) + "\n")
    writer = csv.DictWriter(handle, fieldnames=columns, lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)


def load_json_object(path: str, what: str) -> dict:
    """The JSON object in the file at path; a file that cannot be read or
    parsed, or that holds no JSON object, is an invalid parameter."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            loaded = json.load(handle)
    except (OSError, ValueError) as exc:
        raise InvalidParameterError(f"{what} {path!r}: {exc}") from exc
    if not isinstance(loaded, dict):
        raise InvalidParameterError(f"{what} {path!r} holds no JSON object")
    return loaded


def need(params: dict, *keys: str) -> tuple:
    """The values of the required keys, in order."""
    missing = [k for k in keys if params.get(k) is None]
    if missing:
        raise InvalidParameterError(f"missing required parameters: {', '.join(missing)}")
    return tuple(params[k] for k in keys)


# Report fields the output names otherwise.
RENAMED = {
    "radius": "r",
    "num_messages": "messages",
    "list_size": "L",
    "volume": "vol",
    "upper_bound": "entropy_bound",
}


def renamed(report) -> dict:
    return {RENAMED.get(k, k): v for k, v in vars(report).items()}


def profile_fields(profile, epsilon) -> dict:
    """A list profile's counts and max_ell, and its potential S and excess T
    when epsilon is given."""
    fields = {"counts": {str(ell): c for ell, c in profile.counts}, "max_ell": profile.max_ell}
    if epsilon is not None:
        state = listsize.potential(profile, epsilon)
        fields.update(S=state.value_float, T=state.excess_float)
    return fields


def certificate_fields(cert, max_list: int) -> tuple[dict, int]:
    """A certificate's fields, and its exit code."""
    fields = {
        "max_list_allowed": max_list,
        "decodable": cert.decodable,
        "max_list": cert.max_list,
        "witness": None if cert.witness is None else cert.witness.to_string(),
    }
    return fields, EXIT_OK if cert.decodable else EXIT_WITNESS


def word_strings(table) -> list[str]:
    """A code table's words as bit strings, rendered from its int64 array
    (no BitVector per message)."""
    return [format(w, f"0{table.n}b") for w in table.array.tolist()]


def generator_strings(code) -> list[str]:
    return [g.to_string() for g in code.generators]


def build_code(params: dict, rng: Rng):
    family = params.get("family", "linear")
    (n,) = need(params, "n")
    if family == "linear":
        return constructors.random_linear_code(n, *need(params, "k"), rng)
    if family == "uniform":
        messages, radius = need(params, "messages", "radius")
        # The library's table caps, checked before any word is drawn.
        listsize.check_uniform_caps(n, messages, radius)
        return constructors.uniform_random_code(n, messages, rng)
    raise InvalidParameterError(f"unknown code family {family!r}")


def cmd_volumes(params: dict, master_seed, trials):
    report = counting.check_volume_bounds(*need(params, "n", "radius"))
    result = {**renamed(report), "intersection": [vars(c) for c in report.intersection]}
    ok = report.sandwich_holds and report.intersection_all_hold
    return result, EXIT_OK if ok else EXIT_WITNESS, None


def cmd_profile(params: dict, master_seed, trials):
    n, radius, epsilon = need(params, "n", "radius", "epsilon")
    code = build_code(params, Rng(master_seed, 0))
    profile = listsize.list_profile(code, radius)
    tails = {str(ell): listsize.tail_stats(profile, ell) for ell in range(1, profile.max_ell + 1)}
    result = {
        "n": n,
        "r": radius,
        "family": params.get("family", "linear"),
        "k": params.get("k"),
        "messages": params.get("messages"),
        "effective_dim": getattr(code, "effective_dim", None),
        "P_geq": {ell: p for ell, (p, _) in tails.items()},
        "Q_geq": {ell: q for ell, (_, q) in tails.items()},
        **profile_fields(profile, epsilon),
    }
    return result, EXIT_OK, None


def cmd_certify(params: dict, master_seed, trials):
    n, radius, max_list = need(params, "n", "radius", "max_list")
    code = build_code(params, Rng(master_seed, 0))
    cert = listsize.certify(code, radius, max_list)
    fields, exit_code = certificate_fields(cert, max_list)
    return {"n": n, "r": radius, "checked_count": cert.checked_count, **fields}, exit_code, None


def cmd_construct(params: dict, master_seed, trials):
    (kind,) = need(params, "kind")
    (n,) = need(params, "n")
    radius, max_list = params.get("radius"), params.get("max_list")
    rng = Rng(master_seed, 0)
    result: dict = {"kind": kind, "n": n}

    if kind == "linear":
        built = constructors.random_linear_code(n, *need(params, "k"), rng)
        result.update(generators=generator_strings(built), effective_dim=built.effective_dim)
    elif kind == "uniform":
        built = constructors.uniform_random_code(n, *need(params, "messages"), rng)
        result["words"] = word_strings(built)
    elif kind == "guided":
        k, radius, epsilon = need(params, "k", "radius", "epsilon")
        try:
            built, trace = constructors.potential_guided_code(
                n,
                k,
                radius,
                epsilon,
                rng,
                max_retries_per_step=params.get("max_retries", constructors.DEFAULT_MAX_RETRIES),
                rule=params.get("rule", "step"),
            )
        except ConstructionError as exc:
            built, trace = exc.partial
            result["error"] = str(exc)
        result["generators"] = generator_strings(built)
        result["trace"] = [vars(r) for r in trace.records]
        if "error" in result:
            return result, EXIT_WITNESS, None
        result.update(effective_dim=built.effective_dim, total_retries=trace.total_retries)
    elif kind == "lll":
        radius, messages, max_list = need(params, "radius", "messages", "max_list")
        report = constructors.lll_condition(n, radius, messages, max_list)
        result["lll"] = {
            k: getattr(report, k) for k in ("p_bad", "degree", "product_log2", "feasible")
        }
        try:
            mt = constructors.moser_tardos_construct(
                n, radius, messages, max_list, rng, max_rounds=params.get("max_rounds")
            )
        except ConstructionError as exc:
            result.update(error=str(exc), words=word_strings(exc.partial))
            return result, EXIT_WITNESS, None
        built = mt.code
        result.update(words=word_strings(built), rounds=mt.rounds)
    else:
        raise InvalidParameterError(f"unknown construct kind {kind!r}")

    if max_list is not None and radius is not None:
        cert = listsize.certify(built, radius, max_list)
        result.update(certified=cert.decodable, max_list=cert.max_list)
        if not cert.decodable:
            result["witness"] = cert.witness.to_string()
            return result, EXIT_WITNESS, None
    return result, EXIT_OK, None


def cmd_rank(params: dict, master_seed, trials):
    action, m, n, radius, k = need(params, "action", "m", "n", "radius", "k")
    rank_params = rankmetric.RankParams(m, n, radius)
    code = rankmetric.random_linear_rank_code(rank_params, k, Rng(master_seed, 0))
    result = {"m": m, "n": n, "k": k}
    if action == "construct":
        result.update(generators=generator_strings(code), effective_dim=code.effective_dim)
        return result, EXIT_OK, None
    result["r"] = radius
    if action == "profile":
        profile = listsize.list_profile(code, radius)
        result.update(effective_dim=code.effective_dim, **profile_fields(profile, params.get("epsilon")))
        return result, EXIT_OK, None
    if action == "certify":
        (max_list,) = need(params, "max_list")
        fields, exit_code = certificate_fields(listsize.certify(code, radius, max_list), max_list)
        return {**result, **fields}, exit_code, None
    raise InvalidParameterError(f"unknown rank action {action!r}")


def cmd_lowerbound(params: dict, master_seed, trials):
    (action,) = need(params, "action")
    if action == "ew":
        report = secondmoment.expected_cluster_count(
            *need(params, "n", "messages", "max_list", "radius")
        )
        # E[W] >= 0 past float range is written as Infinity.
        return {**renamed(report), "value_float": counting.float_or_inf(report.value)}, EXIT_OK, None
    if action == "pre":
        report = secondmoment.pair_event_probability(
            *need(params, "n", "radius", "shared", "max_list")
        )
        result = {**renamed(report), "probability_float": float(report.probability)}
        return result, EXIT_OK if report.bound_crude_holds else EXIT_WITNESS, None
    if action == "params":
        return vars(secondmoment.lower_bound_params(*need(params, "p", "epsilon"))), EXIT_OK, None
    if action == "separate":
        n, radius, epsilon = need(params, "n", "radius", "epsilon")
        result = secondmoment.separation_experiment(n, radius, epsilon, trials or 0, Rng(master_seed, 0))
        columns = ["trial", "family", "seed", "n", "r", "rate", "max_list", "witness"]
        return result.summary, EXIT_OK, (columns, [renamed(row) for row in result.rows])
    raise InvalidParameterError(f"unknown lowerbound action {action!r}")


def cmd_potential_trace(params: dict, master_seed, trials):
    n, k, radius, epsilon = need(params, "n", "k", "radius", "epsilon")
    rng = Rng(master_seed, 0)
    guided = bool(params.get("guided"))
    if guided:
        code, trace = constructors.potential_guided_code(n, k, radius, epsilon, rng)
    else:
        code = constructors.random_linear_code(n, k, rng)
    envelope = listsize.envelope_trace(n, radius, epsilon, k)
    steps = []
    for step in range(len(code.generators) + 1):
        profile = listsize.list_profile(listsize.LinearCode(n, code.generators[:step]), radius)
        state = listsize.potential(profile, epsilon)
        steps.append(
            {
                "step": step,
                "S": state.value_float,
                "T": state.excess_float,
                "retries": trace.records[step].retries if guided else 0,
                "delta": envelope.deltas[step],
                "within_envelope": listsize.excess_within_envelope(profile, epsilon, step),
            }
        )
    result = {
        "n": n,
        "k": k,
        "r": radius,
        "epsilon": epsilon,
        "guided": guided,
        "generators": generator_strings(code),
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
            "max_seen": cert.max_list,
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
    (experiment,) = need(params, "experiment")
    base = params.get("base", {})
    grid = params.get("grid", {})
    if not isinstance(base, dict):
        raise InvalidParameterError("sweep base must be an object")
    if not (isinstance(grid, dict) and grid and all(isinstance(v, list) and v for v in grid.values())):
        raise InvalidParameterError("sweep grid must be a non-empty object of non-empty lists")
    # Cells are numbered over the grid keys in sorted order, the order the
    # echoed config holds them in, so a replay draws the same streams.
    keys = sorted(grid)
    cells = [{**base, **dict(zip(keys, combo))} for combo in product(*(grid[k] for k in keys))]
    threads = os.environ.get("LISTDEC_THREADS", "1")
    try:
        workers = max(1, int(threads))
    except ValueError:
        raise InvalidParameterError(f"LISTDEC_THREADS must be an integer, got {threads!r}") from None
    cell_trials = trials or params.get("trials", 0) or 0
    if isinstance(cell_trials, int) and cell_trials < 0:
        raise InvalidParameterError(f"trials must be nonnegative, got {cell_trials}")

    def run_cell(index):
        try:
            check_params(cells[index])
            return _sweep_cell(experiment, cells[index], master_seed, index, cell_trials)
        except InvalidParameterError as exc:
            return {"status": f"invalid: {exc}"}
        except ResourceLimitError as exc:
            return {"status": f"resource-limit: {exc}"}
        except Exception as exc:  # cells must not kill the sweep
            return {"status": f"failed: {exc}"}

    with ThreadPoolExecutor(max_workers=workers) as pool:
        outcomes = list(pool.map(run_cell, range(len(cells))))  # in cell order
    keys += [k for k in sorted(base) if k not in keys]
    metric_keys = list(dict.fromkeys(key for outcome in outcomes for key in outcome))
    rows = [
        {"cell": index, **{k: cell[k] for k in keys}, **outcome}
        for index, (cell, outcome) in enumerate(zip(cells, outcomes))
    ]
    summary = {"experiment": experiment, "cells": len(cells)}
    return summary, EXIT_OK, (["cell", *keys, *metric_keys], rows)


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

# Every option once, by its flag; its dest is the flag's name with
# underscores for dashes.
OPTIONS = {
    "--kind": {"choices": ["linear", "uniform", "guided", "lll"]},
    "--m": {"type": int},
    "--n": {"type": int},
    "--k": {"type": int},
    "--radius": {"type": int},
    "--epsilon": {"type": float},
    "--family": {"choices": ["linear", "uniform"], "default": "linear"},
    "--messages": {"type": int},
    "--max-list": {"type": int},
    "--max-retries": {"type": int},
    "--max-rounds": {"type": int},
    "--rule": {"choices": ["step", "square"], "default": "step"},
    "--shared": {"type": int},
    "--p": {"type": float},
    "--trials": {"type": int, "default": 0},
    "--guided": {"action": "store_true"},
    "--grid": {"help": "grid config JSON file"},
    "--out": {"help": "output file path"},
    "--format": {"choices": ["json", "csv"]},
    "--seed": {"type": int, "default": 0},
}

# Each subcommand's action choices, then its required and its other option
# dests, in the order --help lists them.
SUBCOMMANDS = {
    "volumes": ((), "n radius", "out format"),
    "profile": ((), "n radius epsilon", "family k messages out format seed"),
    "certify": ((), "n radius max_list", "family k messages out format seed"),
    "construct": (
        (),
        "kind n",
        "k messages radius epsilon max_list max_retries max_rounds rule out format seed",
    ),
    "rank": (("profile", "certify", "construct"), "m n radius k", "epsilon max_list out format seed"),
    "lowerbound": (
        ("ew", "pre", "params", "separate"),
        "",
        "n radius messages max_list shared p epsilon trials out format seed",
    ),
    "potential-trace": ((), "n k radius epsilon", "guided out format seed"),
    "sweep": ((), "grid", "out format"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="listdec", description=__doc__)
    parser.add_argument("--config", help="replay a run from an echoed config JSON file")
    sub = parser.add_subparsers(dest="subcommand")
    for name, (actions, required, optional) in SUBCOMMANDS.items():
        p = sub.add_parser(name)
        if actions:
            p.add_argument("action", choices=actions)
        required = required.split()
        for dest in required + optional.split():
            flag = "--" + dest.replace("_", "-")
            p.add_argument(flag, required=dest in required, **OPTIONS[flag])
    return parser


def config_from_args(args: argparse.Namespace) -> dict:
    sub = args.subcommand
    skip = {"config", "subcommand", "out", "format", "seed", "trials"}
    params = {k: v for k, v in vars(args).items() if k not in skip and v is not None}
    if sub == "sweep":
        grid_config = load_json_object(args.grid, "grid file")
        reserved = ("master_seed", "trials", "output_path", "output_format")
        params = {k: v for k, v in grid_config.items() if k not in reserved}
        master_seed = grid_config.get("master_seed", 0)
        trials = grid_config.get("trials", 0)
    else:
        master_seed = getattr(args, "seed", 0)
        trials = getattr(args, "trials", None)
    tabular = sub == "sweep" or getattr(args, "action", None) == "separate"
    return {
        "subcommand": sub,
        "params": params,
        "master_seed": master_seed,
        "trials": trials,
        "output_path": args.out,
        "output_format": args.format or ("csv" if tabular else "json"),
    }


def check_params(params) -> None:
    """Raise InvalidParameterError unless params is an object whose every
    value has the type, or is one of the choices, that OPTIONS declares for
    its key (an echoed config omits an absent value; null is not one).  A
    bool is an int to Python but not here, and a float parameter takes an
    int."""
    if not isinstance(params, dict):
        raise InvalidParameterError(f"params must be an object, got {params!r}")
    for key, value in params.items():
        spec = OPTIONS.get("--" + key.replace("_", "-"), {})
        kind = spec.get("type")
        if kind and type(value) not in ((int, float) if kind is float else (kind,)):
            raise InvalidParameterError(f"{key} must be {kind.__name__}, got {value!r}")
        if value not in spec.get("choices", [value]):
            raise InvalidParameterError(f"{key} must be one of {spec['choices']}, got {value!r}")


def run_config(config: dict) -> int:
    sub = config.get("subcommand")
    if sub not in HANDLERS:
        raise InvalidParameterError(f"unknown subcommand {sub!r}")
    master_seed, trials = config.get("master_seed", 0), config.get("trials")
    # Absent trials (None) is allowed; a bool is an int to Python but not here.
    for name, value in (("master_seed", master_seed), ("trials", 0 if trials is None else trials)):
        if type(value) is not int or value < 0:
            raise InvalidParameterError(f"{name} must be a nonnegative integer, got {value!r}")
    params = config.get("params", {})
    check_params(params)
    result, exit_code, table = HANDLERS[sub](params, master_seed, trials)
    csv_form = config.get("output_format", "json") == "csv"
    if csv_form and table is None:
        raise InvalidParameterError(f"subcommand {sub!r} has no CSV form")

    def write(handle):
        if csv_form:
            write_csv(handle, config, result, *table)
        else:
            write_json(handle, config, result)

    out = config.get("output_path")
    if out:
        atomic_write(out, write)
        print(f"wrote {out}")
        json.dump(result, sys.stdout, **CANONICAL)
        sys.stdout.write("\n")
    else:
        write(sys.stdout)
    return exit_code


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.config:
            loaded = load_json_object(args.config, "config file")
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
