"""CLI contracts: exit codes, config echo, replay determinism, sweeps."""

from __future__ import annotations

import argparse
import ast
import csv
import json
import math
import os
import shlex
from collections import Counter
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from listdec import (
    BitVector,
    LinearCode,
    Rng,
    certify,
    constructors,
    list_profile,
    random_linear_code,
    rankmetric,
)
from listdec import cli
from listdec.cli import encode, main


def run_cli(*args) -> int:
    return main(list(args))


class TestExitCodes:
    def test_decodable_zero(self):
        assert run_cli("certify", "--n", "3", "--radius", "1", "--max-list", "1", "--k", "0") == 0

    def test_witness_one(self, tmp_path):
        out = tmp_path / "w.json"
        code = run_cli(
            "certify", "--n", "2", "--radius", "1", "--max-list", "1",
            "--k", "2", "--seed", "5", "--out", str(out),
        )
        assert code == 1
        payload = json.loads(out.read_text())
        assert payload["result"]["decodable"] is False
        assert payload["result"]["witness"] is not None

    def test_invalid_two(self):
        assert run_cli("certify", "--n", "10", "--radius", "11", "--max-list", "1", "--k", "1") == 2

    def test_missing_param_two(self):
        assert run_cli("certify", "--n", "10", "--radius", "1", "--max-list", "1") == 2

    def test_resource_three(self):
        # Vol(62, 6) = 68,543,140 words, over the 2^26-word ball cap.
        assert run_cli("profile", "--n", "62", "--radius", "6", "--epsilon", "0.5", "--k", "1") == 3

    def test_csv_format_rejected_without_csv_form(self):
        assert run_cli("volumes", "--n", "8", "--radius", "2", "--format", "csv") == 2

    # An infinite epsilon once wrote "S": NaN (profile, rank profile) or
    # crashed (the other three), and the negative counts crashed or failed
    # the construction; each is an invalid parameter, and nothing is written.
    @pytest.mark.parametrize(
        "command",
        [
            "profile --n 8 --k 3 --radius 1 --epsilon inf",
            "rank profile --m 4 --n 3 --radius 1 --k 3 --epsilon inf",
            "potential-trace --n 8 --k 3 --radius 1 --epsilon inf",
            "construct --kind guided --n 8 --k 3 --radius 1 --epsilon inf",
            "lowerbound separate --n 8 --radius 1 --epsilon inf --trials 2",
            "construct --kind guided --n 8 --k 3 --radius 1 --epsilon 0.5 --max-retries -1",
            "lowerbound separate --n 12 --radius 1 --epsilon 0.3 --trials -2",
        ],
    )
    def test_infinite_epsilon_or_negative_count_two(self, command, capsys):
        assert main(shlex.split(command)) == 2
        assert capsys.readouterr().out == ""


class TestLibraryCaps:
    """Exit 3 comes from the library's caps alone: whatever they admit runs."""

    def test_profile_past_the_old_increment_guard(self, tmp_path):
        # 2^20 codewords times Vol(26, 3) = 2952 is about 3.1e9 increments,
        # but a linear code's profile reads the 2952-word ball alone.
        out = tmp_path / "p.json"
        assert run_cli(
            "profile", "--n", "26", "--radius", "3", "--epsilon", "0.1", "--k", "20",
            "--out", str(out),
        ) == 0
        profile = list_profile(random_linear_code(26, 20, Rng(0, 0)), 3)
        result = json.loads(out.read_text())["result"]
        assert result["counts"] == {str(ell): c for ell, c in profile.counts}

    def test_certify_past_the_old_increment_guard(self, tmp_path):
        out = tmp_path / "c.json"
        assert run_cli(
            "certify", "--n", "26", "--radius", "3", "--max-list", "50", "--k", "20",
            "--out", str(out),
        ) == 1
        cert = certify(random_linear_code(26, 20, Rng(0, 0)), 3, 50)
        result = json.loads(out.read_text())["result"]
        assert not cert.decodable
        assert result["witness"] == cert.witness.to_string()
        assert result["max_list"] == cert.max_list

    @pytest.mark.parametrize("sub,extra", [
        ("profile", ("--epsilon", "0.1")),
        ("certify", ("--max-list", "3")),
    ])
    def test_uniform_table_over_the_increment_cap_draws_nothing(self, sub, extra, monkeypatch):
        # 1024 messages times Vol(26, 13) is about 3.4e10 increments.
        def fail(*args, **kwargs):
            raise AssertionError("words drawn before the caps were checked")

        monkeypatch.setattr(constructors, "uniform_random_code", fail)
        assert run_cli(
            sub, "--family", "uniform", "--n", "26", "--radius", "13", "--messages", "1024",
            *extra,
        ) == 3

    def test_profile_at_60_runs(self, tmp_path):
        out = tmp_path / "p.json"
        assert run_cli(
            "profile", "--n", "60", "--radius", "4", "--epsilon", "0.05", "--k", "29",
            "--out", str(out),
        ) == 0
        counts = json.loads(out.read_text())["result"]["counts"]
        assert sum(counts.values()) == 1 << 60

    def test_linear_construct_at_28(self):
        assert run_cli("construct", "--kind", "linear", "--n", "28", "--k", "3") == 0

    def test_guided_at_62_hits_the_ball_cap(self):
        assert run_cli(
            "construct", "--kind", "guided", "--n", "62", "--k", "2", "--radius", "6",
            "--epsilon", "0.5",
        ) == 3

    def test_vector_length_past_62_is_invalid(self):
        assert run_cli("profile", "--n", "63", "--radius", "1", "--epsilon", "0.5", "--k", "1") == 2


class TestConfigEcho:
    def test_json_replay_byte_identical(self, tmp_path):
        out = tmp_path / "prof.json"
        assert run_cli(
            "profile", "--n", "8", "--radius", "1", "--epsilon", "0.5",
            "--k", "3", "--seed", "7", "--out", str(out),
        ) == 0
        first = out.read_bytes()
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps(json.loads(first)["config"]))
        assert run_cli("--config", str(config)) == 0
        assert out.read_bytes() == first

    def test_full_output_file_accepted_as_config(self, tmp_path):
        out = tmp_path / "vol.json"
        assert run_cli("volumes", "--n", "10", "--radius", "2", "--out", str(out)) == 0
        first = out.read_bytes()
        assert run_cli("--config", str(out)) == 0
        assert out.read_bytes() == first

    def test_csv_replay_byte_identical(self, tmp_path):
        out = tmp_path / "sep.csv"
        assert run_cli(
            "lowerbound", "separate", "--n", "12", "--radius", "1",
            "--epsilon", "0.3", "--trials", "3", "--seed", "11", "--out", str(out),
        ) == 0
        first = out.read_bytes()
        header = first.decode().splitlines()[0]
        assert header.startswith("# config: ")
        config = tmp_path / "cfg.json"
        config.write_text(header[len("# config: "):])
        assert run_cli("--config", str(config)) == 0
        assert out.read_bytes() == first

    def test_rerun_same_flags_identical(self, tmp_path):
        out = tmp_path / "a.json"
        args = (
            "construct", "--kind", "guided", "--n", "12", "--k", "3", "--radius", "1",
            "--epsilon", "0.5", "--max-list", "3", "--seed", "3", "--out", str(out),
        )
        assert run_cli(*args) == 0
        first = out.read_bytes()
        assert run_cli(*args) == 0
        assert out.read_bytes() == first


class TestConstructKinds:
    def test_linear(self, tmp_path):
        out = tmp_path / "lin.json"
        assert run_cli(
            "construct", "--kind", "linear", "--n", "10", "--k", "4",
            "--radius", "1", "--max-list", "4", "--seed", "2", "--out", str(out),
        ) == 0
        payload = json.loads(out.read_text())
        assert len(payload["result"]["generators"]) == 4
        assert payload["result"]["certified"] is True

    def test_uniform(self, tmp_path):
        out = tmp_path / "uni.json"
        assert run_cli(
            "construct", "--kind", "uniform", "--n", "8", "--messages", "10",
            "--seed", "2", "--out", str(out),
        ) == 0
        payload = json.loads(out.read_text())
        assert len(payload["result"]["words"]) == 10

    def test_lll(self, tmp_path):
        out = tmp_path / "lll.json"
        assert run_cli(
            "construct", "--kind", "lll", "--n", "14", "--radius", "2",
            "--messages", "8", "--max-list", "3", "--seed", "2", "--out", str(out),
        ) == 0
        payload = json.loads(out.read_text())
        assert payload["result"]["lll"]["feasible"] is True
        assert payload["result"]["certified"] is True

    def test_lll_p_bad_below_float_range(self, tmp_path):
        # p_bad = 2^-1080 rounds to 0 as a float; its log2 is still finite.
        out = tmp_path / "lll.json"
        assert run_cli(
            "construct", "--kind", "lll", "--n", "20", "--radius", "0",
            "--messages", "54", "--max-list", "53", "--out", str(out),
        ) == 0
        lll = json.loads(out.read_text())["result"]["lll"]
        assert lll["p_bad"] == f"1/{1 << 1080}"
        assert lll["product_log2"] == pytest.approx(
            math.log2(math.e) - 1080 + math.log2((1 << 20) * 54 * 54**53 + 1), rel=1e-12
        )

    def test_lll_out_of_rounds_writes_the_partial_table(self, tmp_path):
        out = tmp_path / "lll.json"
        assert run_cli(
            "construct", "--kind", "lll", "--n", "10", "--radius", "2", "--messages", "40",
            "--max-list", "2", "--max-rounds", "1", "--seed", "1", "--out", str(out),
        ) == 1
        result = json.loads(out.read_text())["result"]
        assert result["error"] == "no decodable table after 1 rounds"
        assert len(result["words"]) == 40
        assert all(len(w) == 10 for w in result["words"])
        assert result["lll"]["feasible"] is False
        assert "rounds" not in result and "certified" not in result

    def test_failed_certificate_writes_its_witness(self, tmp_path):
        out = tmp_path / "lin.json"
        assert run_cli(
            "construct", "--kind", "linear", "--n", "10", "--k", "4",
            "--radius", "2", "--max-list", "1", "--seed", "1", "--out", str(out),
        ) == 1
        result = json.loads(out.read_text())["result"]
        cert = certify(random_linear_code(10, 4, Rng(1, 0)), 2, 1)
        assert result["certified"] is False
        assert result["max_list"] == cert.max_list > 1
        assert result["witness"] == cert.witness.to_string()

    def test_guided_failure_exit_one(self):
        code = run_cli(
            "construct", "--kind", "guided", "--n", "8", "--k", "2",
            "--radius", "8", "--epsilon", "1.0", "--seed", "1",
        )
        assert code == 1


class TestRankCli:
    def test_profile(self, tmp_path):
        out = tmp_path / "rp.json"
        assert run_cli(
            "rank", "profile", "--m", "4", "--n", "3", "--radius", "1",
            "--k", "2", "--epsilon", "0.5", "--seed", "4", "--out", str(out),
        ) == 0
        payload = json.loads(out.read_text())
        assert payload["result"]["m"] == 4
        assert "S" in payload["result"]

    def test_certify_exit_codes(self):
        assert run_cli(
            "rank", "certify", "--m", "3", "--n", "2", "--radius", "1",
            "--k", "0", "--max-list", "1", "--seed", "4",
        ) == 0
        assert run_cli(
            "rank", "certify", "--m", "3", "--n", "2", "--radius", "2",
            "--k", "6", "--max-list", "1", "--seed", "4",
        ) == 1


class TestRankConstruct:
    def test_generators_of_the_seeded_code(self, tmp_path):
        out = tmp_path / "rc.json"
        assert run_cli(
            "rank", "construct", "--m", "4", "--n", "3", "--radius", "1",
            "--k", "3", "--seed", "5", "--out", str(out),
        ) == 0
        result = json.loads(out.read_text())["result"]
        code = rankmetric.random_linear_rank_code(rankmetric.RankParams(4, 3, 1), 3, Rng(5, 0))
        assert result == {
            "m": 4,
            "n": 3,
            "k": 3,
            "generators": [g.to_string() for g in code.generators],
            "effective_dim": code.effective_dim,
        }


class TestLowerboundCli:
    def test_ew(self, tmp_path):
        out = tmp_path / "ew.json"
        assert run_cli(
            "lowerbound", "ew", "--n", "4", "--messages", "2", "--max-list", "2",
            "--radius", "1", "--out", str(out),
        ) == 0
        payload = json.loads(out.read_text())
        assert payload["result"]["value"] == "25/8"

    def test_ew_past_float_range(self, tmp_path):
        out = tmp_path / "ew.json"
        assert run_cli(
            "lowerbound", "ew", "--n", "62", "--messages", str(1 << 62), "--max-list", "20",
            "--radius", "31", "--out", str(out),
        ) == 0
        assert "Infinity" in out.read_text()
        assert json.loads(out.read_text())["result"]["value_float"] == math.inf

    def test_pre(self, tmp_path):
        out = tmp_path / "pre.json"
        assert run_cli(
            "lowerbound", "pre", "--n", "10", "--radius", "2", "--shared", "1",
            "--max-list", "2", "--out", str(out),
        ) == 0
        result = json.loads(out.read_text())["result"]
        assert result["mu"] == "7/128"  # Vol(10, 2) / 2^10 = 56/1024
        assert result["probability_float"] == float(Fraction(result["probability"]))
        assert result["bound_crude_holds"] is True
        assert result["bound_refined_holds"] is True
        assert (result["n"], result["r"], result["shared"], result["L"]) == (10, 2, 1, 2)

    def test_pre_mu_below_float_range(self, tmp_path):
        # mu = 1101/2^1100 rounds to 0 as a float; the refined bound's log2
        # is still finite.
        out = tmp_path / "pre.json"
        assert run_cli(
            "lowerbound", "pre", "--n", "1100", "--radius", "1", "--shared", "1",
            "--max-list", "1", "--out", str(out),
        ) == 0
        result = json.loads(out.read_text())["result"]
        assert result["mu"] == f"1101/{1 << 1100}"
        assert result["probability_float"] == 0.0
        assert math.isfinite(result["bound_refined_log2"])
        assert result["bound_refined_log2"] < -2000

    def test_params(self, tmp_path):
        out = tmp_path / "p.json"
        assert run_cli(
            "lowerbound", "params", "--p", "0.25", "--epsilon", "0.05", "--out", str(out),
        ) == 0
        payload = json.loads(out.read_text())
        assert payload["result"]["crossover_ell"] == pytest.approx(1.8872187, abs=1e-6)


class TestPotentialTrace:
    def test_plain_chain(self, tmp_path):
        out = tmp_path / "tr.json"
        assert run_cli(
            "potential-trace", "--n", "12", "--k", "3", "--radius", "1",
            "--epsilon", "0.4", "--seed", "6", "--out", str(out),
        ) == 0
        payload = json.loads(out.read_text())
        steps = payload["result"]["steps"]
        assert len(steps) == 4
        assert steps[0]["step"] == 0

    def test_guided_chain(self, tmp_path):
        out = tmp_path / "trg.json"
        assert run_cli(
            "potential-trace", "--n", "12", "--k", "3", "--radius", "1",
            "--epsilon", "0.4", "--guided", "--seed", "6", "--out", str(out),
        ) == 0
        payload = json.loads(out.read_text())
        assert payload["result"]["guided"] is True

    @staticmethod
    def recomputed_verdicts(result: dict) -> list[bool]:
        """T_i <= delta_i for every step, recomputed at 600 bits from the
        prefix codes' profiles and the envelope recurrence."""
        n, radius, eps = result["n"], result["r"], result["epsilon"]
        gens = tuple(BitVector.from_string(g) for g in result["generators"])
        verdicts = []
        with mpmath.workprec(600):
            e = mpmath.mpf(eps) * n / (1 + mpmath.mpf(eps))
            p = mpmath.mpf(radius) / n
            h = -(p * mpmath.log(p, 2) + (1 - p) * mpmath.log(1 - p, 2))
            delta = mpmath.mpf(2) ** (-n * (1 - h - mpmath.mpf(eps) / (1 + mpmath.mpf(eps))))
            for step in range(len(result["steps"])):
                profile = list_profile(LinearCode(n, gens[:step]), radius)
                total = sum(c * mpmath.mpf(2) ** (e * ell) for ell, c in profile.counts)
                excess = total / mpmath.mpf(2) ** n - 1
                assert abs(excess - delta) > mpmath.mpf(2) ** -500 * delta
                verdicts.append(bool(excess <= delta))
                delta = 2 * delta + delta ** mpmath.mpf(1.5)
        return verdicts

    @pytest.mark.parametrize("guided", [False, True])
    def test_within_envelope_matches_high_precision(self, tmp_path, guided):
        seen = []
        for seed in (0, 1, 2):
            out = tmp_path / f"env{seed}.json"
            args = [
                "potential-trace", "--n", "12", "--k", "5", "--radius", "2",
                "--epsilon", "0.6", "--seed", str(seed), "--out", str(out),
            ]
            if run_cli(*args, *(["--guided"] if guided else [])) != 0:
                continue  # the guided builder ran out of retries at this seed
            result = json.loads(out.read_text())["result"]
            verdicts = [s["within_envelope"] for s in result["steps"]]
            assert verdicts == self.recomputed_verdicts(result)
            seen.extend(verdicts)
        assert True in seen
        if not guided:
            # Seed 2's random chain leaves the envelope at its last step.
            assert False in seen


class TestSweep:
    def write_grid(self, tmp_path, grid: dict) -> str:
        path = tmp_path / "grid.json"
        path.write_text(json.dumps(grid))
        return str(path)

    def test_single_cell_matches_single_run(self, tmp_path):
        grid = {
            "experiment": "certify",
            "base": {"family": "linear", "n": 8, "k": 3, "radius": 1, "max_list": 3},
            "grid": {"k": [3]},
            "master_seed": 5,
        }
        out = tmp_path / "sweep.csv"
        assert run_cli("sweep", "--grid", self.write_grid(tmp_path, grid), "--out", str(out)) == 0
        lines = out.read_text().splitlines()
        rows = [ln for ln in lines if not ln.startswith("#")]
        assert len(rows) == 2  # header + one cell

    def test_budget_column_kept_beside_the_list_size(self, tmp_path):
        # The certify outcome's largest list size goes to max_seen, so the
        # max_list column is the cell's budget in ok and failed rows alike.
        grid = {
            "experiment": "certify",
            "base": {"n": 27, "k": 3, "radius": 1, "max_list": 2, "messages": 8},
            "grid": {"family": ["linear", "uniform"]},
            "master_seed": 5,
        }
        out = tmp_path / "sweep.csv"
        assert run_cli("sweep", "--grid", self.write_grid(tmp_path, grid), "--out", str(out)) == 0
        lines = [ln for ln in out.read_text().splitlines() if not ln.startswith("#")]
        linear, uniform = csv.DictReader(lines)
        assert linear["status"] == "ok" and linear["max_seen"] == "1"
        assert uniform["status"].startswith("resource-limit") and uniform["max_seen"] == ""
        assert linear["max_list"] == uniform["max_list"] == "2"

    def test_qbound_columns(self, tmp_path):
        grid = {
            "experiment": "qbound",
            "base": {"n": 12, "k": 3, "radius": 1, "max_list": 2},
            "grid": {"gamma": [0.2, 0.3]},
            "master_seed": 5,
            "trials": 3,
        }
        out = tmp_path / "qb.csv"
        assert run_cli("sweep", "--grid", self.write_grid(tmp_path, grid), "--out", str(out)) == 0
        text = out.read_text()
        assert "violation_fraction" in text.splitlines()[2]

    def test_empty_grid_invalid(self, tmp_path):
        grid = {"experiment": "certify", "base": {}, "grid": {}, "master_seed": 1}
        assert run_cli("sweep", "--grid", self.write_grid(tmp_path, grid)) == 2

    @pytest.mark.parametrize(
        "fields",
        [{"grid": {"k": 3}}, {"grid": [3]}, {"grid": {"k": "35"}}, {"base": [1]}, {"trials": -2},
         {"trials": 2.5}, {"trials": True}, {"master_seed": "7"}, {"master_seed": -1}],
        ids=["grid-value-not-list", "grid-not-object", "grid-value-string", "base-not-object",
             "negative-trials", "fractional-trials", "bool-trials", "string-seed", "negative-seed"],
    )
    def test_malformed_grid_invalid(self, fields, tmp_path):
        grid = {
            "experiment": "qbound",
            "base": {"n": 12, "k": 3, "radius": 1, "max_list": 2, "gamma": 0.2},
            "grid": {"k": [3]},
            "master_seed": 5,
            **fields,
        }
        assert run_cli("sweep", "--grid", self.write_grid(tmp_path, grid)) == 2

    @pytest.mark.parametrize("flag", ["--grid", "--config"])
    @pytest.mark.parametrize("text", [None, "{not json", "[1, 2]"], ids=["missing", "malformed", "array"])
    def test_unreadable_json_file_invalid(self, flag, text, tmp_path):
        path = tmp_path / "in.json"
        if text is not None:
            path.write_text(text)
        args = ["sweep", "--grid", str(path)] if flag == "--grid" else ["--config", str(path)]
        assert run_cli(*args) == 2

    @pytest.mark.parametrize("seed", ["7", 7.0, True, -1, None])
    def test_config_seed_not_a_nonnegative_integer_invalid(self, seed, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({
            "subcommand": "certify",
            "params": {"family": "linear", "n": 8, "k": 3, "radius": 1, "max_list": 3},
            "master_seed": seed,
        }))
        assert run_cli("--config", str(path)) == 2
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize(
        "subcommand,params",
        [
            ("sweep", [1]),
            ("certify", {"n": "8", "k": 3, "radius": 1, "max_list": 3}),
            ("certify", {"n": 8, "k": 3.5, "radius": 1, "max_list": 3}),
            ("profile", {"n": 8, "k": 3, "radius": 1, "epsilon": "0.1"}),
            ("construct", {"kind": "guided", "n": 8, "k": 2, "radius": 1, "epsilon": 0.5,
                           "max_retries": None}),
            ("certify", {"n": 8, "k": True, "radius": 1, "max_list": 3}),
            ("construct", {"kind": "greedy", "n": 8}),
        ],
        ids=["params-array", "n-string", "k-float", "epsilon-string", "retries-null", "k-bool",
             "kind-unknown"],
    )
    def test_config_param_of_the_wrong_type_invalid(self, subcommand, params, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"subcommand": subcommand, "params": params}))
        assert run_cli("--config", str(path)) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("invalid parameters:") and "Traceback" not in err

    def test_cell_param_of_the_wrong_type_invalid(self, tmp_path):
        # base and grid each pass, but the merged cell's n is a string: the
        # cell reports invalid, not a failure, and the sweep still exits 0.
        grid = {"experiment": "certify", "base": {"n": "8", "radius": 1, "max_list": 2},
                "grid": {"k": [3]}}
        out = tmp_path / "sweep.csv"
        assert run_cli("sweep", "--grid", self.write_grid(tmp_path, grid), "--out", str(out)) == 0
        lines = [ln for ln in out.read_text().splitlines() if not ln.startswith("#")]
        (row,) = csv.DictReader(lines)
        assert row["status"] == "invalid: n must be int, got '8'"

    def test_thread_count_not_an_integer_invalid(self, tmp_path, monkeypatch):
        grid = {"experiment": "certify", "base": {"n": 8, "radius": 1, "max_list": 2},
                "grid": {"k": [3]}}
        monkeypatch.setenv("LISTDEC_THREADS", "abc")
        assert run_cli("sweep", "--grid", self.write_grid(tmp_path, grid)) == 2

    def test_grid_keys_numbered_in_sorted_order(self, tmp_path):
        # The echoed config sorts the grid's keys, so the first run must
        # number its cells over them in sorted order too, or the replay
        # would draw other streams.
        grids = [
            {"n": [10, 12], "k": [3, 5], "family": ["linear"]},
            {"family": ["linear"], "k": [3, 5], "n": [10, 12]},
        ]
        outputs = []
        for i, grid in enumerate(grids):
            config = {
                "experiment": "certify", "base": {"radius": 1, "max_list": 3},
                "grid": grid, "master_seed": 4,
            }
            path = tmp_path / f"grid{i}.json"
            path.write_text(json.dumps(config))
            out = tmp_path / f"s{i}.csv"
            assert run_cli("sweep", "--grid", str(path), "--out", str(out)) == 0
            first = out.read_bytes()
            echoed = tmp_path / f"echo{i}.json"
            echoed.write_text(first.decode().splitlines()[0][len("# config: "):])
            assert run_cli("--config", str(echoed)) == 0
            assert out.read_bytes() == first
            outputs.append(first.decode().splitlines()[1:])
        assert outputs[0] == outputs[1]
        rows = list(csv.DictReader(outputs[0][1:]))
        assert [(r["cell"], r["family"], r["k"], r["n"]) for r in rows] == [
            ("0", "linear", "3", "10"),
            ("1", "linear", "3", "12"),
            ("2", "linear", "5", "10"),
            ("3", "linear", "5", "12"),
        ]
        for row in rows:
            cert = certify(random_linear_code(int(row["n"]), int(row["k"]), Rng(4, int(row["cell"]))), 1, 3)
            assert row["max_seen"] == str(cert.max_list)

    def test_thread_count_does_not_change_output(self, tmp_path):
        grid = {
            "experiment": "certify",
            "base": {"family": "linear", "n": 10, "radius": 1, "max_list": 2},
            "grid": {"k": [1, 2, 3, 4]},
            "master_seed": 9,
        }
        path = self.write_grid(tmp_path, grid)
        out1 = tmp_path / "s1.csv"
        out2 = tmp_path / "s2.csv"
        old = os.environ.get("LISTDEC_THREADS")
        try:
            os.environ["LISTDEC_THREADS"] = "1"
            assert run_cli("sweep", "--grid", path, "--out", str(out1)) == 0
            os.environ["LISTDEC_THREADS"] = "4"
            assert run_cli("sweep", "--grid", path, "--out", str(out2)) == 0
        finally:
            if old is None:
                os.environ.pop("LISTDEC_THREADS", None)
            else:
                os.environ["LISTDEC_THREADS"] = old
        a = out1.read_text().splitlines()
        b = out2.read_text().splitlines()
        assert a[1:] == b[1:]  # identical rows; config echo differs only in path


@pytest.mark.parametrize(
    "value", [BitVector(3, 5), constructors.StepRecord(0, 1.0, 0.0, 0), np.int64(3)],
    ids=["bitvector", "dataclass", "numpy-scalar"],
)
def test_encode_takes_only_fractions(value):
    # The handlers render words, witnesses and records as JSON types, so a
    # BitVector, a dataclass or a numpy scalar reaching the encoder is a bug.
    with pytest.raises(TypeError):
        encode(value)


# One command per subcommand, action, kind, family and rule, with exits 0
# and 1, and a two-key sweep grid whose keys are out of sorted order.
REPLAYED = [
    "volumes --n 10 --radius 2",
    "profile --n 10 --radius 1 --epsilon 0.5 --k 3 --seed 7",
    "profile --family uniform --n 8 --radius 1 --epsilon 0.3 --messages 12 --seed 3",
    "certify --n 10 --radius 2 --max-list 4 --k 3 --seed 7",
    "certify --family uniform --n 8 --radius 1 --max-list 2 --messages 12 --seed 1",
    "construct --kind linear --n 10 --k 4 --radius 2 --max-list 1 --seed 1",
    "construct --kind uniform --n 8 --messages 10 --seed 2",
    "construct --kind guided --n 12 --k 3 --radius 1 --epsilon 0.5 --rule square --max-list 3 --seed 3",
    "construct --kind guided --n 8 --k 2 --radius 8 --epsilon 1.0 --seed 1",
    "construct --kind lll --n 10 --radius 2 --messages 40 --max-list 2 --max-rounds 1 --seed 1",
    "construct --kind lll --n 14 --radius 2 --messages 8 --max-list 3 --seed 11",
    "rank profile --m 4 --n 3 --radius 1 --k 3 --epsilon 0.5 --seed 5",
    "rank profile --m 4 --n 3 --radius 1 --k 3 --seed 5",
    "rank certify --m 4 --n 3 --radius 1 --k 4 --max-list 2 --seed 5",
    "rank construct --m 4 --n 3 --radius 1 --k 3 --seed 5",
    "lowerbound ew --n 4 --messages 2 --max-list 2 --radius 1",
    "lowerbound pre --n 10 --radius 2 --shared 1 --max-list 2",
    "lowerbound params --p 0.25 --epsilon 0.05",
    "lowerbound separate --n 12 --radius 1 --epsilon 0.3 --trials 3 --seed 11",
    "potential-trace --n 12 --k 3 --radius 1 --epsilon 0.4 --seed 6",
    "potential-trace --n 12 --k 3 --radius 1 --epsilon 0.4 --guided --seed 6",
    "sweep --grid grid.json",
    "sweep --grid grid.json --format json",
]


@pytest.mark.parametrize("command", REPLAYED)
def test_replay_from_the_echoed_config(command, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    grid = {
        "experiment": "certify", "base": {"family": "linear", "radius": 1, "max_list": 2},
        "grid": {"n": [10, 12], "k": [3, 5]}, "master_seed": 4,
    }
    (tmp_path / "grid.json").write_text(json.dumps(grid))
    args = shlex.split(command)
    tabular = args[0] == "sweep" or "separate" in args
    out = tmp_path / ("out.csv" if tabular and "json" not in args else "out.json")
    first_exit = main(args + ["--out", out.name])
    assert first_exit in (0, 1)
    first, first_stdout = out.read_bytes(), capsys.readouterr().out
    text = first.decode()
    if text.startswith("# config: "):
        config = text.splitlines()[0][len("# config: "):]
    else:
        config = json.dumps(json.loads(text)["config"])
    (tmp_path / "echo.json").write_text(config)
    out.unlink()
    assert main(["--config", "echo.json"]) == first_exit
    assert out.read_bytes() == first
    assert capsys.readouterr().out == first_stdout


# The options of each subcommand (its argparse dests, the keys an echoed
# config can hold) and the required ones among them.
OPTION_DESTS = {
    "volumes": ({"n", "radius", "out", "format"}, {"n", "radius"}),
    "profile": (
        {"n", "radius", "epsilon", "family", "k", "messages", "out", "format", "seed"},
        {"n", "radius", "epsilon"},
    ),
    "certify": (
        {"n", "radius", "max_list", "family", "k", "messages", "out", "format", "seed"},
        {"n", "radius", "max_list"},
    ),
    "construct": (
        {"kind", "n", "k", "messages", "radius", "epsilon", "max_list", "max_retries",
         "max_rounds", "rule", "out", "format", "seed"},
        {"kind", "n"},
    ),
    "rank": (
        {"action", "m", "n", "radius", "k", "epsilon", "max_list", "out", "format", "seed"},
        {"action", "m", "n", "radius", "k"},
    ),
    "lowerbound": (
        {"action", "n", "radius", "messages", "max_list", "shared", "p", "epsilon", "trials",
         "out", "format", "seed"},
        {"action"},
    ),
    "potential-trace": (
        {"n", "k", "radius", "epsilon", "guided", "out", "format", "seed"},
        {"n", "k", "radius", "epsilon"},
    ),
    "sweep": ({"grid", "out", "format"}, {"grid"}),
}


def test_option_dests_pinned():
    parser = cli.build_parser()
    subparsers = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    seen = {}
    for name, sub in subparsers.choices.items():
        actions = [a for a in sub._actions if a.dest != "help"]
        seen[name] = ({a.dest for a in actions}, {a.dest for a in actions if a.required})
    assert seen == OPTION_DESTS


def test_each_flag_declared_once():
    tree = ast.parse(open(cli.__file__, encoding="utf-8").read())
    flags = Counter(
        node.value
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant)
        and isinstance(node.value, str)
        and node.value.startswith("--")
        and node.value[2:3].isalpha()
    )
    assert flags["--n"] == 1 and flags["--max-list"] == 1 and flags["--config"] == 1
    assert [flag for flag, count in flags.items() if count > 1] == []
