"""Self-tests for the benchmark's output checks.

    python3 perfbench/selftest.py

Each independent count used by checks.py must agree with a brute-force count
over every center at n <= 12, each checker must pass on real listdec output,
and each must reject a deliberately corrupted result.  Exits 1 on failure.
"""

from __future__ import annotations

import copy
import json
import sys
from pathlib import Path

import numpy as np

import checks
from tracing import Tracer, layer_metrics
from workloads import WORKLOADS
from worker import import_listdec

ROOT = Path(__file__).resolve().parent.parent
FAILURES: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(("PASS " if ok else "FAIL ") + what)
    if not ok:
        FAILURES.append(what)


def rejects(check, rec: dict, corrupt, what: str, needle: str) -> None:
    bad = copy.deepcopy(rec)
    corrupt(bad)
    problems = check(bad)
    expect(any(needle in p for p in problems), f"{what} is rejected ({problems[:1]})")


def brute_hamming(words: np.ndarray, n: int, radius: int) -> np.ndarray:
    centers = np.arange(1 << n, dtype=np.int64)
    dist = checks.popcount((centers[:, None] ^ np.asarray(words)[None, :]).ravel())
    return (dist.reshape(len(centers), -1) <= radius).sum(axis=1)


def brute_rank(value: int, m: int, n: int) -> int:
    rows = [(value >> ((m - 1 - i) * n)) & ((1 << n) - 1) for i in range(m)]
    return len(checks.rref(rows))


def test_counts_against_brute_force(ld) -> None:
    n, r = 12, 2
    ball = checks.hamming_ball(n, r)
    expect(len(ball) == 1 + 12 + 66, "Hamming ball at n=12, r=2 has 79 words")
    for k in (0, 3, 6):
        gens = [int(g) for g in ld.Rng(11, k).bit_array(n, k)]
        words = checks.span_words(gens)
        expect(len(np.unique(words)) == 1 << len(checks.rref(gens)), f"span of {k} generators has no repeats")
        brute = brute_hamming(words, n, r)
        reps, counts, dim = checks.coset_counts(gens, ball)
        basis = checks.rref(gens)
        all_reps = checks.coset_reps(basis, np.arange(1 << n, dtype=np.int64))
        lookup = dict(zip(reps.tolist(), counts.tolist()))
        mine = np.array([lookup.get(int(x), 0) for x in all_reps])
        expect(np.array_equal(mine, brute), f"coset count equals brute force (n=12, k={k})")
        minima = {}
        for x, rep in enumerate(all_reps.tolist()):
            minima.setdefault(rep, x)
        expect(all(minima[rep] == rep for rep in minima), f"coset representatives are coset minima (k={k})")
        exponent = 0.5 * n / 1.5
        want = float(np.mean(np.exp2(exponent * brute)))
        got = checks.potential_from_counts(counts, 1 << dim, n, exponent)
        expect(checks.relclose(got, want, 1e-12), f"coset potential equals brute force (k={k})")
    words = ld.Rng(12, 0).bit_array(n, 40)
    words[5] = words[6]  # message-indexed tables may repeat a word
    centers, counts = checks.translate_counts(words, ball)
    brute = brute_hamming(words, n, r)
    mine = np.zeros(1 << n, dtype=np.int64)
    mine[centers] = counts
    expect(np.array_equal(mine, brute), "translate count equals brute force (n=12, 40 words)")
    for m, c in ((3, 3), (4, 3)):
        ranks = np.array([brute_rank(v, m, c) for v in range(1 << (m * c))])
        expect(np.array_equal(checks.rank_one_ball(m, c), np.nonzero(ranks <= 1)[0]),
               f"{{0}} ∪ {{u v^T}} is the brute-force rank-1 ball of {m}x{c}")
        listed = sorted(x.to_flat() for x in ld.enumerate_rank_ball(m, c, 1))
        expect(checks.rank_one_ball(m, c).tolist() == listed,
               f"rank-1 ball of {m}x{c} equals listdec's enumeration")


def test_certificate_checker_small(ld) -> None:
    """A non-decodable n=12 code, so that witnesses are exercised."""
    n, r, lmax = 12, 2, 1
    code = ld.random_linear_code(n, 5, ld.Rng(13, 0))
    cert = ld.certify(code, r, lmax)
    expect(not cert.decodable, "n=12 code with L=1 is not decodable")
    gens = [g.bits for g in code.generators]
    reps, counts, _ = checks.coset_counts(gens, checks.hamming_ball(n, r))
    brute = brute_hamming(checks.span_words(gens), n, r)
    rec = {"decodable": cert.decodable, "max_list": cert.max_list, "witness": cert.witness.bits}
    expect(rec["max_list"] == int(brute.max()), "certificate max_list equals brute force")
    expect(rec["witness"] == int(np.argmax(brute > lmax)), "certificate witness equals brute force")
    words = checks.span_words(gens)

    def check(c):
        return checks.check_certificate(c, reps, counts, lmax, "small", words, r)

    expect(check(rec) == [], "certificate checker passes listdec's certificate")
    rejects(check, rec, lambda c: c.update(max_list=c["max_list"] + 1), "max_list off by one", "max_list")
    rejects(check, rec, lambda c: c.update(witness=c["witness"] + 1), "wrong witness", "witness")
    rejects(check, rec, lambda c: c.update(decodable=True), "wrong verdict", "decodable")


def workload_record(ld, name: str, stream: int = 0) -> dict:
    op, record = WORKLOADS[name]
    return record(ld, 5, stream, op(ld, ld.Rng(5, stream)))


def test_workload_checkers(ld) -> None:
    rec = workload_record(ld, "separation")
    check = checks.check_separation
    expect(check(rec) == [], "separation checker passes listdec's output")
    rejects(check, rec, lambda c: c["linear_result"].update(max_list=c["linear_result"]["max_list"] + 1),
            "separation linear max_list off by one", "linear max_list")
    rejects(check, rec, lambda c: c["linear_result"].update(witness=c["linear_result"]["witness"] ^ 1),
            "separation linear witness", "linear witness")
    rejects(check, rec, lambda c: c["uniform_result"].update(max_list=c["uniform_result"]["max_list"] - 1),
            "separation uniform max_list off by one", "uniform")
    rejects(check, rec, lambda c: c["uniform_result"].update(witness=c["uniform_result"]["witness"] ^ 1),
            "separation uniform witness", "uniform witness")

    rec = workload_record(ld, "guided")
    check = checks.check_guided
    expect(check(rec) == [], "guided checker passes listdec's output")
    rejects(check, rec, lambda c: c["certificate"].update(max_list=c["certificate"]["max_list"] + 1),
            "guided max_list off by one", "max_list")
    rejects(check, rec, lambda c: c["certificate"].update(witness=0), "guided wrong witness", "witness")

    def above(c):
        t = c["values"][2] - 1.0
        c["values"][3] = (1.0 + 2.0 * t + t**1.5) * 1.01

    rejects(check, rec, above, "guided trace step above its threshold", "above its threshold")
    rejects(check, rec, lambda c: c["values"].__setitem__(1, c["values"][1] * (1 + 1e-6)),
            "guided trace value off its recomputation", "recomputed")
    rejects(check, rec, lambda c: c["generators"].__setitem__(1, c["generators"][0]),
            "guided dependent generators", "dependent")

    rec = workload_record(ld, "resample")
    check = checks.check_resample
    expect(check(rec) == [], "resample checker passes listdec's output")
    rejects(check, rec, lambda c: c["certificate"].update(max_list=c["certificate"]["max_list"] + 1),
            "resample max_list off by one", "max_list")
    rejects(check, rec, lambda c: c["certificate"].update(witness=7), "resample wrong witness", "witness")
    rejects(check, rec, lambda c: c.update(rounds=c["rounds"] + 1), "resample rounds off by one", "rounds")
    rejects(check, rec, lambda c: c["words"].__setitem__(slice(0, 4), c["words"][0]),
            "resample table with an overfull ball", "list of")
    rejects(check, rec, lambda c: c.update(words=c["words"][:-1]), "resample lost message", "messages")

    rec = workload_record(ld, "rank")
    check = checks.check_rank
    expect(check(rec) == [], "rank checker passes listdec's output")
    rejects(check, rec, lambda c: c["certificate"].update(max_list=c["certificate"]["max_list"] + 1),
            "rank max_list off by one", "max_list")
    rejects(check, rec, lambda c: c["certificate"].update(witness=3), "rank wrong witness", "witness")
    rejects(check, rec, lambda c: c["step"].update(probability=2 * c["step"]["excess"] ** 0.5),
            "rank step above the Markov bound", "sqrt(T)")
    rejects(check, rec, lambda c: c["step"].update(excess=c["step"]["excess"] * 1.001),
            "rank step excess off its recomputation", "recomputed")


def test_benchmark_json_names() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    layers, _ = layer_metrics(Tracer(), [1.0], [0])
    expect(sorted(layers) == sorted(m["name"] for m in spec["per_layer"]),
           "BENCHMARK.json per_layer names are the traced run's metrics")
    units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    expect(all(units.get(k) == u for k, (_, u) in layers.items()), "per_layer units match")
    expect({m["name"] for m in spec["workloads"]} <= set(WORKLOADS),
           "BENCHMARK.json workloads are harness workloads")


def main() -> None:
    ld = import_listdec()
    test_counts_against_brute_force(ld)
    test_certificate_checker_small(ld)
    test_workload_checkers(ld)
    test_benchmark_json_names()
    print(f"{len(FAILURES)} failed")
    sys.exit(1 if FAILURES else 0)


if __name__ == "__main__":
    main()
