"""Compare two sets of benchmark result files.

    python3 perfbench/compare.py BASE_DIR [NEW_DIR]

Reads every untraced result file (``*.json`` written by run.py) in each
directory.  Per workload and end-to-end metric it prints each side's median,
first and third quartiles, the spread (IQR over median) and, with two
directories, the change of the median as a share of the base median.  A change
worse than the metric's bound in BENCHMARK.json is marked REGRESSED; a spread
wider than the bound is marked UNRESOLVED, since such a change cannot be told
from noise.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(directory: Path) -> dict:
    """{workload: {metric: [values]}} over the untraced runs in directory."""
    values: dict = defaultdict(lambda: defaultdict(list))
    for path in sorted(directory.glob("*.json")):
        result = json.loads(path.read_text())
        if result.get("trace"):
            continue
        for name, metric in result["result"]["metrics"].items():
            values[result["workload"]][name].append(metric["value"])
    return values


def summary(vals: list[float]) -> tuple[float, float, float]:
    med = statistics.median(vals)
    if len(vals) < 2:
        return med, med, med
    q1, _, q3 = statistics.quantiles(vals, n=4)
    return med, q1, q3


def main() -> None:
    if len(sys.argv) not in (2, 3):
        raise SystemExit(__doc__)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    sides = [load(Path(d)) for d in sys.argv[1:]]
    header = f"{'workload':<11}{'metric':<14}"
    for label in ("base", "new")[: len(sides)]:
        header += f"{label + ' n':>7}{'median':>11}{'q1':>11}{'q3':>11}{'spread':>8}"
    print(header + ("    change" if len(sides) == 2 else ""))
    for workload in sorted(set().union(*sides)):
        for name, m in metrics.items():
            row = f"{workload:<11}{name:<14}"
            stats = []
            for side in sides:
                vals = side.get(workload, {}).get(name, [])
                if not vals:
                    row += f"{0:>7}{'-':>11}{'-':>11}{'-':>11}{'-':>8}"
                    stats.append(None)
                    continue
                med, q1, q3 = summary(vals)
                stats.append((med, q1, q3))
                row += f"{len(vals):>7}{med:>11.4f}{q1:>11.4f}{q3:>11.4f}{(q3 - q1) / med:>8.3f}"
            flags = [f"UNRESOLVED-{('base', 'new')[i]}" for i, s in enumerate(stats)
                     if s and name != "setup_s" and (s[2] - s[1]) / s[0] > m["bound"]]
            if len(sides) == 2 and all(stats):
                change = stats[1][0] / stats[0][0] - 1
                worse = change < -m["bound"] if m["better"] == "higher" else change > m["bound"]
                row += f"{change:>+10.3f}" + (" REGRESSED" if worse else "")
            print(row + "".join(" " + f for f in flags))


if __name__ == "__main__":
    main()
