"""Acceptance criteria, one test per criterion, one PASS/FAIL line each.

Every randomized criterion runs on the precommitted master seed 2024 with a
criterion-specific stream range, so outcomes are reproducible bit for bit.
"""

from __future__ import annotations

import hashlib
import json
import math
import shlex
import time
from fractions import Fraction
from pathlib import Path

import numpy as np

import listdec as ld
from listdec import precise
from listdec.cli import main as cli_main
from naive_oracle import check_sum_rule, list_profile_naive, rank_table

MASTER = 2024
README = Path(__file__).resolve().parents[1] / "README.md"


def criterion(number: int, label: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    line = f"ACCEPTANCE C{number:02d} [{status}] {label}"
    if detail:
        line += f" :: {detail}"
    print(line)
    assert ok, line


def test_c01_oracle_equivalence():
    """Scatter and pairwise-recount profiles agree exactly on 100 random
    linear codes and 100 random tables, n <= 12, radii {0, 1, 2, n}."""
    start = time.time()
    rng = ld.Rng(MASTER, 100)
    mismatches = 0
    for i in range(100):
        n = rng.integer(4, 13)
        code = ld.random_linear_code(n, rng.integer(0, n + 1), rng.substream(i, 0))
        for r in (0, 1, 2, n):
            if ld.list_profile(code, r) != list_profile_naive(code, r):
                mismatches += 1
    for i in range(100):
        n = rng.integer(4, 13)
        table = ld.uniform_random_code(n, rng.integer(1, (1 << min(n, 8)) + 1), rng.substream(i, 1))
        for r in (0, 1, 2, n):
            if ld.list_profile(table, r) != list_profile_naive(table, r):
                mismatches += 1
    elapsed = time.time() - start
    criterion(
        1,
        "profile oracle equivalence (100 linear + 100 uniform)",
        mismatches == 0 and elapsed < 60,
        f"mismatches={mismatches}, {elapsed:.1f}s",
    )


def test_c02_weighted_tail_identity():
    """Q tail at 1 equals 2^-n Vol(n,r) |C| exactly on every profiled code."""
    rng = ld.Rng(MASTER, 200)
    bad = 0
    checked = 0
    for i in range(50):
        n = rng.integer(4, 15)
        r = rng.integer(0, n + 1)
        code = ld.random_linear_code(n, rng.integer(0, n + 1), rng.substream(i, 0))
        _, q1 = ld.tail_stats(ld.list_profile(code, r), 1)
        checked += 1
        if q1 != Fraction(ld.hamming_volume(n, r) * code.size, 1 << n):
            bad += 1
    for i in range(50):
        n = rng.integer(4, 15)
        r = rng.integer(0, n + 1)
        m = rng.integer(1, (1 << min(n, 8)) + 1)
        table = ld.uniform_random_code(n, m, rng.substream(i, 1))
        _, q1 = ld.tail_stats(ld.list_profile(table, r), 1)
        checked += 1
        if q1 != Fraction(ld.hamming_volume(n, r) * m, 1 << n):
            bad += 1
    criterion(2, "weighted-tail closed form, zero tolerance", bad == 0, f"{checked} codes")


def test_c03_sum_rule_sharp_form():
    """Union list size obeys the split sum for every center, with equality
    exactly when the new vector is outside the code."""
    start = time.time()
    rng = ld.Rng(MASTER, 300)
    bad = 0
    for i in range(50):
        n = rng.integer(4, 11)
        code = ld.random_linear_code(n, rng.integer(0, n), rng.substream(i))
        b = ld.BitVector(n, rng.bits(n))
        report = check_sum_rule(code, b, rng.integer(0, 3))
        ok = report.inequality_holds and (
            report.equality_everywhere if not report.b_in_code else report.union_equals_base
        )
        bad += not ok
    fixed = [
        ld.LinearCode(6, ()),
        ld.LinearCode(6, (ld.BitVector.from_string("100000"),)),
        ld.LinearCode(6, (ld.BitVector.from_string("111111"),)),
        ld.LinearCode(6, tuple(ld.BitVector(6, 1 << i) for i in range(6))),
        ld.random_linear_code(6, 3, ld.Rng(MASTER, 301)),
    ]
    for code in fixed:
        for b_bits in range(1 << 6):
            if b_bits == 0:
                continue
            report = check_sum_rule(code, ld.BitVector(6, b_bits), 1)
            ok = report.inequality_holds and (
                report.equality_everywhere if not report.b_in_code else report.union_equals_base
            )
            bad += not ok
    elapsed = time.time() - start
    criterion(3, "sum rule sharp form", bad == 0 and elapsed < 60, f"{elapsed:.1f}s")


def test_c04_potential_step_markov():
    """Exact one-step exceedance probability stays below sqrt(T) on >= 30
    instances with T < 1, n <= 14."""
    start = time.time()
    rng = ld.Rng(MASTER, 400)
    checked = 0
    skipped = 0
    violations = []
    i = 0
    while checked < 30 and i < 200:
        n = (10, 12, 14)[i % 3]
        k = rng.integer(0, 4)
        r = rng.integer(1, 3)
        eps = rng.uniform(0.1, 0.8)
        code = ld.random_linear_code(n, k, rng.substream(i))
        report = ld.check_potential_step(code, eps, r)
        i += 1
        if not report.hypothesis_met:
            skipped += 1
            continue
        checked += 1
        if not report.holds:
            violations.append((n, k, r, round(eps, 3)))
    elapsed = time.time() - start
    criterion(
        4,
        "exact step exceedance < sqrt(T)",
        checked >= 30 and not violations and elapsed < 300,
        f"checked={checked}, hypothesis-not-met={skipped}, violations={violations}, {elapsed:.1f}s",
    )


def test_c05_volume_bounds():
    """Volume sandwich exact for n <= 64; intersection bound with
    C_p = sqrt(8p(1-p)) for n in [8, 40], all valid r and d."""
    sandwich_bad = []
    for n in range(2, 65):
        for r in range(1, n // 2 + 1):
            report = ld.check_volume_bounds(n, r)
            if not report.sandwich_holds:
                sandwich_bad.append((n, r))
    intersection_bad = []
    for n in range(8, 41):
        for r in range(1, n // 2 + 1):
            report = ld.check_volume_bounds(n, r)
            if not report.sandwich_holds:
                sandwich_bad.append((n, r))
            for check in report.intersection:
                if not check.holds:
                    intersection_bad.append((n, r, check.d))
    criterion(
        5,
        "volume sandwich (n<=64) and intersection bound (n in [8,40])",
        not sandwich_bad and not intersection_bad,
        f"sandwich violations={sandwich_bad[:5]}, intersection violations={intersection_bad[:5]}",
    )


def test_c06_rank_ball_counts():
    """Rank-ball formula equals elimination-based brute counts for mn <= 20;
    the 4x sandwich holds for every q=2 configuration with mn <= 20."""
    start = time.time()
    count_bad = []
    for m in range(1, 21):
        for n in range(1, m + 1):
            if m * n > 20:
                continue
            ranks = rank_table(m, n)
            hist = np.bincount(ranks, minlength=n + 1)
            for r in range(n + 1):
                if ld.rank_ball_size(2, m, n, r) != int(hist[: r + 1].sum()):
                    count_bad.append((m, n, r))
    sandwich_bad = []
    for m in range(1, 21):
        for n in range(1, m + 1):
            if m * n > 20:
                continue
            for r in range(n + 1):
                if not ld.check_rank_ball_bounds(2, m, n, r).holds:
                    sandwich_bad.append((m, n, r))
    elapsed = time.time() - start
    criterion(
        6,
        "rank-ball counts vs brute force and sandwich",
        not count_bad and not sandwich_bad and elapsed < 120,
        f"count violations={count_bad[:5]}, sandwich violations={sandwich_bad[:5]}, {elapsed:.1f}s",
    )


def test_c07_expected_cluster_count():
    """E[W] at (n=4, M=2, L=2, r=1): brute force over all 256 tables gives
    exactly 25/8; Monte Carlo over 10^4 seeds agrees within 3 sigma."""
    from listdec.gf2 import popcount_array

    total = 0
    for t in range(1 << 8):
        words = np.array([t & 15, (t >> 4) & 15], dtype=np.int64)
        for a in range(16):
            c = int((popcount_array(words ^ a) <= 1).sum())
            total += c * (c - 1)
    brute = Fraction(total, 1 << 8)
    exact = ld.expected_cluster_count(4, 2, 2, 1).value
    rng = ld.Rng(MASTER, 700)
    samples = []
    for _ in range(10_000):
        words = rng.bit_array(4, 2)
        w = 0
        for a in range(16):
            c = int((popcount_array(words ^ a) <= 1).sum())
            w += c * (c - 1)
        samples.append(w)
    arr = np.array(samples, dtype=np.float64)
    sigma = arr.std(ddof=1) / math.sqrt(len(arr))
    mc_ok = abs(arr.mean() - 25 / 8) <= 3 * sigma
    criterion(
        7,
        "expected cluster count exactness and Monte Carlo",
        exact == Fraction(25, 8) == brute and mc_ok,
        f"exact={exact}, brute={brute}, mc_mean={arr.mean():.4f}",
    )


def test_c08_pair_event_crude_bound():
    """Pr[pair event] <= mu^(2L - ell + 1) exactly across the full sweep
    n <= 12, r <= n/2, ell <= L <= 3."""
    violations = []
    for n in range(1, 13):
        for r in range(n // 2 + 1):
            for L in range(1, 4):
                for ell in range(1, L + 1):
                    report = ld.pair_event_probability(n, r, ell, L)
                    if not report.bound_crude_holds:
                        violations.append((n, r, ell, L))
    criterion(8, "pair-event crude bound sweep", not violations, f"violations={violations[:5]}")


def test_c09_guided_constructor():
    """At n=20, r=2, eps=0.2 (k=6, L=4): the guided build certifies in >= 90
    of 100 seeds; plain random linear certifies in >= 80 of 100."""
    start = time.time()
    entropy = ld.binary_entropy(0.1)
    k = math.floor(20 * (1 - entropy - 0.2))
    max_list = math.floor(entropy / 0.2) + 2
    assert (k, max_list) == (6, 4)
    guided_ok = 0
    plain_ok = 0
    for i in range(100):
        try:
            code, _ = ld.potential_guided_code(20, k, 2, 0.2, ld.Rng(MASTER, 9000 + i))
            guided_ok += ld.certify(code, 2, max_list).decodable
        except ld.ConstructionError:
            pass
        plain = ld.random_linear_code(20, k, ld.Rng(MASTER, 9500 + i))
        plain_ok += ld.certify(plain, 2, max_list).decodable
    elapsed = time.time() - start
    criterion(
        9,
        "guided constructor certifies (r=2, L=4)",
        guided_ok >= 90 and plain_ok >= 80 and elapsed < 600,
        f"guided={guided_ok}/100, plain={plain_ok}/100, gap={guided_ok - plain_ok}, {elapsed:.1f}s",
    )


def test_c10_resampling_constructor():
    """At (n=14, r=2, M=8, L=3), the local-lemma product is about 0.16 and
    the resampler terminates within 50 rounds and certifies in >= 95/100."""
    start = time.time()
    report = ld.lll_condition(14, 2, 8, 3)
    product = 2**report.product_log2
    ok_product = report.feasible and abs(product - 0.16) < 0.02
    good = 0
    for i in range(100):
        try:
            res = ld.moser_tardos_construct(14, 2, 8, 3, ld.Rng(MASTER, 10_000 + i))
        except ld.ConstructionError:
            continue
        if res.rounds <= 50 and ld.certify(res.code, 2, 3).decodable:
            good += 1
    elapsed = time.time() - start
    criterion(
        10,
        "resampling constructor at the feasible point",
        ok_product and good >= 95 and elapsed < 300,
        f"product={product:.4f}, good={good}/100, {elapsed:.1f}s",
    )


def _envelope_end_within_quarter(n: int, r: int, eps: float, steps: int) -> bool:
    """Certified 2^(K+1) delta_0 <= 1/4 with K = steps and
    delta_0 = 2^-(n(1 - H(r/n) - eps/(1+eps))), the exponent envelope_trace uses."""

    def end_of_envelope(ctx):
        e = ctx.mpf(eps)
        expo = n * (1 - precise.iv_entropy(ctx, r, n) - e / (1 + e))
        return ctx.mpf(2) ** (steps + 1 - expo)

    return precise.certified_le(end_of_envelope, lambda ctx: ctx.mpf(1) / 4)


def test_c11_envelope_recurrence():
    """Growth envelope delta_i < 2^(i+1) delta_0 for every 1 <= i <= K, where
    K = floor(n(1 - H(p) - eps)) >= 1, over 100 random tuples (n <= 64,
    1 <= r <= n/2, eps in (0.05, 0.5)) satisfying 2^(K+1) delta_0 <= 1/4;
    every decision is made in interval arithmetic.

    The hypothesis is the finite-n condition under which the envelope holds:
    - the recurrence unrolls to delta_i = 2^i delta_0 prod_{j<i}(1 + sqrt(delta_j)/2);
    - if delta_j < 2^(j+1) delta_0 for all j < i, then
      sum_{j<i} sqrt(delta_j) < sqrt(2^(i+1) delta_0) / (sqrt(2) - 1), so the
      product is below exp(sqrt(2^(i+1) delta_0) / (2(sqrt(2) - 1)));
    - that is at most 2 whenever 2^(i+1) delta_0 <= (2(sqrt(2) - 1) ln 2)^2
      (about 0.33), which 2^(K+1) delta_0 <= 1/4 gives for every i <= K.
    Tuples outside the hypothesis (e.g. n=20, r=2, eps=0.2, where
    2^7 delta_0 is about 0.82 and step 6 violates) are still traced; their
    count and violations are reported, not asserted.
    """
    rng = ld.Rng(MASTER, 1100)
    violations = []
    outside = 0
    outside_violations = []
    sampled = 0
    attempts = 0
    while sampled < 100 and attempts < 2000:
        attempts += 1
        n = rng.integer(8, 65)
        r = rng.integer(1, n // 2 + 1)
        eps = rng.uniform(0.05, 0.5)
        steps = ld.max_envelope_steps(n, r, eps)
        if steps < 1:
            continue
        trace = ld.envelope_trace(n, r, eps, steps)
        found = [] if trace.envelope_ok else [(n, r, round(eps, 4), trace.violations)]
        if not _envelope_end_within_quarter(n, r, eps, steps):
            outside += 1
            outside_violations += found
            continue
        sampled += 1
        violations += found
    criterion(
        11,
        "growth envelope zero-violation sweep",
        sampled == 100 and not violations,
        f"sampled={sampled}, violating={len(violations)}, first={violations[:4]}; "
        f"outside hypothesis: traced={outside}, violating={len(outside_violations)}, "
        f"first={outside_violations[:4]}",
    )


def test_c12_tail_bound_experiment():
    """At n=22, r=2, eps=0.18 (k=8), gamma=0.3, L=3: the weighted-tail bound
    holds for all ell <= 3 in >= 95 of 100 seeds."""
    entropy = ld.binary_entropy(2 / 22)
    k = math.floor(22 * (1 - entropy - 0.18))
    assert k == 8
    ok = 0
    for i in range(100):
        code = ld.random_linear_code(22, k, ld.Rng(MASTER, 12_000 + i))
        profile = ld.list_profile(code, 2)
        checks = ld.check_tail_bound(profile, k, 0.3, 3)
        ok += all(c.holds for c in checks)
    criterion(12, "weighted-tail bound holds across seeds", ok >= 95, f"ok={ok}/100")


def test_c13_separation_experiment(tmp_path):
    """200+200 matched-rate trials at n=22 complete within 10 minutes; the
    linear-vs-uniform median direction is a soft check (warning only)."""
    start = time.time()
    out = tmp_path / "separation.csv"
    code = cli_main(
        [
            "lowerbound", "separate", "--n", "22", "--radius", "2",
            "--epsilon", "0.18", "--trials", "200", "--seed", str(MASTER),
            "--out", str(out),
        ]
    )
    elapsed = time.time() - start
    lines = out.read_text().splitlines()
    summary = json.loads(lines[1][len("# summary: "):])
    rows = [ln for ln in lines if ln and not ln.startswith("#")]
    direction_ok = summary["linear"]["median"] <= summary["uniform"]["median"]
    if not direction_ok:
        print("WARNING: median max-list direction reversed (soft check only)")
    criterion(
        13,
        "separation experiment completes and reports medians",
        code == 0 and len(rows) == 401 and elapsed < 600,
        f"linear median={summary['linear']['median']}, uniform median={summary['uniform']['median']}, "
        f"{elapsed:.1f}s",
    )


def _readme_examples():
    text = README.read_text()
    commands = []
    grid = None
    block = None
    buf: list[str] = []
    for line in text.splitlines():
        stripped = line.strip()
        if stripped.startswith("```"):
            if block == "json" and grid is None and buf:
                grid = "\n".join(buf)
            block = stripped[3:] if block is None else None
            buf = []
            continue
        if block == "console" and stripped.startswith("listdec "):
            commands.append(stripped)
        elif block == "json":
            buf.append(line)
    return commands, grid


def test_c14_cli_determinism(tmp_path, monkeypatch):
    """Every CLI example in the README, re-run from its echoed config,
    reproduces its output byte for byte."""
    commands, grid = _readme_examples()
    assert commands, "no CLI examples found in README"
    monkeypatch.chdir(tmp_path)
    (tmp_path / "grid.json").write_text(grid)
    failures = []
    for command in commands:
        args = shlex.split(command)[1:]
        out_path = tmp_path / args[args.index("--out") + 1]
        first_exit = cli_main(args)
        if first_exit not in (0, 1):
            failures.append((command, f"exit={first_exit}"))
            continue
        first = out_path.read_bytes()
        text = first.decode()
        if text.startswith("# config: "):
            config = json.loads(text.splitlines()[0][len("# config: "):])
        else:
            config = json.loads(text)["config"]
        cfg_path = tmp_path / "replay-config.json"
        cfg_path.write_text(json.dumps(config))
        replay_exit = cli_main(["--config", str(cfg_path)])
        if replay_exit != first_exit:
            failures.append((command, f"replay exit {replay_exit} != {first_exit}"))
            continue
        if out_path.read_bytes() != first:
            failures.append((command, "replay output differs"))
    criterion(
        14,
        f"CLI determinism across {len(commands)} documented examples",
        not failures,
        f"failures={failures[:3]}",
    )


# sha256 of every README example's output file, written with the output names
# the README gives, in a fresh directory.  They were recorded before linear
# codes moved from 2^n tables to the coset engine, so any change to an
# output's bytes shows here.  The draws come from numpy's PCG64 Generator; the
# digests assume the numpy version they were recorded with (2.4.6).
README_DIGESTS = {
    "volumes.json": "5c3b760af8bfd33ddbf23f4b29280ac00684d6684c64bf75c9b0580537f59cfa",
    "profile.json": "b60203cc8fab5d93c2244cd91e749e6a82bd5267b9f0f102786c6c39dc082f97",
    "certify.json": "d4f1b7379941cb397c93f1ce6fce0d15a7bea94254d4213c7612ab05c8d85fb1",
    "guided.json": "02efc4788d921987087ac801909743aabae9b00d5fe97fcd793d06d30eee2fa7",
    "lll.json": "ceb2278005d7427bd09b4e0f0939c90746bcb71d9ee8a4160e57fc5f367ae5cb",
    "rank.json": "d6c060cb00e049801e776d00febf911e2d88443fdaca6035fd194018f11c38b8",
    "rankprofile.json": "bdb25f9e532500c0d3304981e652044bd75233692b94f6ce27c802d4fb7440c6",
    "rankwitness.json": "c1ef3f08e96d692d7f47fa8311030526b36684dbd2d7af507174f8c0a4d72a53",
    "lbparams.json": "77b7060f6a92d81a7e094f0ce82b91092383e227c153520d1150de7319a82acb",
    "separation.csv": "288be769f35e2e2349c1fb23f406018c5c9a5e4b596d2aeca118b295ab52ea89",
    "trace.json": "140703f66dcd5d53eb622116321bce3b1c0b84baf238f77cc0f9da4c26f378aa",
    "sweep.csv": "11b9326f88a42fcf89eea23a3b6c8e723ea25d49b5c36afe949fbf437ca5bee0",
}


def test_readme_examples_golden(tmp_path, monkeypatch):
    """Every README CLI example, with the README's sweep grid, writes the
    recorded bytes."""
    commands, grid = _readme_examples()
    monkeypatch.chdir(tmp_path)
    (tmp_path / "grid.json").write_text(grid)
    digests = {}
    for command in commands:
        args = shlex.split(command)[1:]
        assert cli_main(args) in (0, 1), command
        out = args[args.index("--out") + 1]
        digests[out] = hashlib.sha256((tmp_path / out).read_bytes()).hexdigest()
    assert digests == README_DIGESTS
