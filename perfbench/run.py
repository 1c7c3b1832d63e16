"""Run one benchmark workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload separation --seed 1 --seconds 10 --trace 0

Each run is a fixed op list (``--seconds`` times the workload's nominal rate
in workloads.RATES), run in a fresh single-threaded worker process.  With
``--trace 0`` it prints the end-to-end metrics; the set-up time is the median
over SETUP_SAMPLES fresh processes.  With ``--trace 1`` it prints the
per-layer metrics of a traced run and also writes its spans.  Every run
writes a result file under perfbench/out/ (or ``--out``).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import RATES

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 5
DEADLINE_S = 170


def worker_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "LISTDEC_THREADS"}
    env.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1",
               PYTHONHASHSEED="0")
    env.pop("PYTHONPATH", None)
    return env


def run_worker(args: list[str], deadline: float) -> dict:
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), *args],
            cwd=ROOT, env=worker_env(), capture_output=True, text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired:  # run() has killed and reaped the worker
        raise SystemExit(f"worker did not finish within {DEADLINE_S} s of the run's start")
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def machine() -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = git.stdout.strip() or None
    return {"nproc": os.cpu_count(), "cpu": cpu, "platform": platform.platform(), "commit": commit}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(RATES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=HERE / "out")
    args = parser.parse_args()
    deadline = time.monotonic() + DEADLINE_S
    if not (ROOT / "src" / "listdec" / "__init__.py").is_file():
        raise SystemExit(f"no listdec sources under {ROOT / 'src'}")

    ops = max(1, round(args.seconds * RATES[args.workload]))
    stamp = f"{args.workload}-seed{args.seed}-trace{args.trace}-{time.time_ns()}"
    args.out.mkdir(parents=True, exist_ok=True)
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    run_args = [*common, "--ops", str(ops), "--trace", str(args.trace)]
    if args.trace:
        run_args += ["--spans", str(args.out / f"{stamp}.spans.jsonl")]
    run = run_worker(run_args, deadline)
    if args.trace:
        metrics = {name: {"value": v, "unit": u} for name, (v, u) in run["layers"].items()}
        setups = []
    else:
        setups = [run["setup_s"]] + [
            run_worker([*common, "--ops", "1", "--setup-only"], deadline)["setup_s"]
            for _ in range(SETUP_SAMPLES - 1)
        ]
        metrics = {
            "ops_per_s": {"value": ops / sum(run["walls"]), "unit": "ops/s"},
            "op_p50_ms": {"value": statistics.median(run["walls"]) * 1e3, "unit": "ms"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mib": {"value": run["peak_rss_mib"], "unit": "MiB"},
        }
    line = {"correct": not run["problems"], "attempted": ops,
            "failed": len(run["failed_ops"]), "metrics": metrics}
    result = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "ops": ops, "machine": machine(), "versions": run["versions"],
              "setup_samples": setups, "result": line,
              **{k: v for k, v in run.items() if k not in ("layers", "versions")}}
    (args.out / f"{stamp}.json").write_text(json.dumps(result, indent=1, default=str))
    for i, problem in run["problems"]:
        print(f"check failed on op {i}: {problem}")
    for i, error in run["errors"]:
        print(f"op {i} raised:\n{error}")
    if run.get("absent"):
        print("absent:", " ".join(run["absent"]))
    print(json.dumps(line))


if __name__ == "__main__":
    main()
