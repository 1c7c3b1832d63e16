"""One benchmark run in a fresh process: set-up, the timed op list, peak RSS,
then the output checks.  Started by run.py; prints one JSON line.

The checks run only after the loop has ended and peak RSS has been read:
they allocate arrays of their own, which would change glibc's allocation
state (its dynamic mmap threshold) and with it the page faults of later ops.
"""

import time

START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

from tracing import Tracer, install_all, layer_metrics, minor_faults  # noqa: E402
from workloads import SETUP_STREAM, WORKLOADS  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


def import_listdec():
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import listdec

    if Path(listdec.__file__).resolve().parent != src.resolve() / "listdec":
        raise SystemExit(f"listdec imported from {listdec.__file__}, not from {src}")
    return listdec


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--ops", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans", help="file for the traced run's spans (JSON lines)")
    args = parser.parse_args()
    op, record = WORKLOADS[args.workload]

    ld = import_listdec()
    tracer = None
    if args.trace:
        tracer = Tracer()
        install_all(tracer)
    op(ld, ld.Rng(args.seed, SETUP_STREAM))
    setup_s = time.perf_counter() - START
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return

    walls, faults, records, errors = [], [], [], []
    for i in range(args.ops):
        rng = ld.Rng(args.seed, i)
        if tracer is not None:
            tracer.op = i
        f0 = minor_faults()
        t0 = time.perf_counter()
        try:
            out = op(ld, rng)
        except Exception:  # any undocumented exception is a failed op
            out = None
            errors.append((i, traceback.format_exc()))
        t1 = time.perf_counter()
        faults.append(minor_faults() - f0)
        walls.append(t1 - t0)
        if out is not None:
            records.append((i, record(ld, args.seed, i, out)))
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    from checks import CHECKS

    problems = [(i, p) for i, rec in records for p in CHECKS[args.workload](rec)]
    result = {
        "setup_s": setup_s,
        "walls": walls,
        "faults": faults,
        "peak_rss_mib": peak_rss_mib,
        "failed_ops": sorted({i for i, _ in errors} | {i for i, _ in problems}),
        "problems": problems[:20],
        "errors": errors[:3],
        "versions": {
            "python": sys.version.split()[0],
            "numpy": sys.modules["numpy"].__version__,
            "mpmath": sys.modules["mpmath"].__version__,
        },
    }
    if tracer is not None:
        metrics, absent = layer_metrics(tracer, walls, faults)
        top = sum(s[4] - s[3] for s in tracer.spans if s[1] >= 0 and s[2] == 0)
        own = sum(st[2] for (phase, _), st in tracer.stats.items() if phase == "ops")
        if abs(top - own) > 1e-6:
            result["problems"].append((-1, f"span self times {own} s != top-level spans {top} s"))
        result.update(layers=metrics, absent=absent, op_p50_ms=statistics.median(walls) * 1e3)
        if args.spans:
            with open(args.spans, "w") as fh:
                for name, op_index, depth, t0, t1, flt in tracer.spans:
                    fh.write(json.dumps({"name": name, "op": op_index, "depth": depth,
                                         "start": t0, "end": t1, "faults": flt}) + "\n")
    print(json.dumps(result, default=str))


if __name__ == "__main__":
    main()
