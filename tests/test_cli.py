"""Command-line surface: every subcommand, exit codes, and file formats."""

import csv
import dataclasses
import io
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

import outlooker
from outlooker import PRESETS, ModelConfig, count_params_config
from outlooker.cli import main
from outlooker.errors import ContractError, GeometryError, ShapeError


@pytest.fixture
def runner():
    return CliRunner()


class TestInspect:
    def test_preset_json_matches_library(self, runner):
        result = runner.invoke(main, ["inspect", "--config", "tiny", "--json"])
        assert result.exit_code == 0
        blob = json.loads(result.output)
        assert blob["params"] == count_params_config(PRESETS["tiny"])
        assert blob["config"]["stage1_dim"] == 16
        assert blob["total_layers"] == 4

    def test_unknown_preset_is_usage_error(self, runner):
        result = runner.invoke(main, ["inspect", "--config", "d99"])
        assert result.exit_code == 2

    def test_config_file(self, runner, tmp_path):
        # the "config" object of ``inspect --json`` is itself a config file
        first = json.loads(runner.invoke(main, ["inspect", "--config", "tiny", "--json"]).output)
        path = tmp_path / "model.json"
        path.write_text(json.dumps(first["config"]))
        result = runner.invoke(main, ["inspect", "--config", str(path), "--json"])
        assert result.exit_code == 0
        again = json.loads(result.output)
        assert (again["params"], again["madds"]) == (first["params"], first["madds"])

    def test_allocate_cross_check(self, runner):
        result = runner.invoke(main, ["inspect", "--config", "tiny", "--allocate"])
        assert result.exit_code == 0
        assert "allocated" in result.output

    @pytest.mark.parametrize("kind", ["lsa", "conv"])
    def test_allocate_cross_check_for_swaps(self, runner, tmp_path, kind):
        config = dataclasses.replace(PRESETS["tiny"], stage1_kind=kind)
        path = tmp_path / "model.json"
        path.write_text(json.dumps(dataclasses.asdict(config)))
        result = runner.invoke(main, ["inspect", "--config", str(path), "--allocate", "--json"])
        assert result.exit_code == 0, result.output
        blob = json.loads(result.output)
        assert blob["allocated_params"] == blob["params"]

    def test_human_output_mentions_targets_for_presets(self, runner):
        result = runner.invoke(main, ["inspect", "--config", "d1"])
        assert result.exit_code == 0
        assert "target" in result.output


class TestChecks:
    def test_oracle_check_passes(self, runner):
        result = runner.invoke(main, ["oracle-check", "--seeds", "2", "--json"])
        assert result.exit_code == 0
        blob = json.loads(result.output)
        assert blob["passed"] is True

    def test_gradcheck_single_kind(self, runner):
        result = runner.invoke(main, ["gradcheck", "--seeds", "1", "--kinds", "softmax"])
        assert result.exit_code == 0

    def test_bad_kind_is_usage_error(self, runner):
        result = runner.invoke(main, ["oracle-check", "--kinds", "bogus"])
        assert result.exit_code == 2

    @pytest.mark.parametrize("args", [
        ["oracle-check", "--seeds", "1", "--kinds", "sa", "--tolerance", "0"],
        ["gradcheck", "--seeds", "1", "--kinds", "softmax", "--tolerance", "0"],
    ], ids=lambda args: args[0])
    def test_failed_case_exits_one(self, runner, args):
        # a zero tolerance fails on rounding alone, so the gate must trip
        result = runner.invoke(main, args)
        assert result.exit_code == 1, result.output
        assert "1 FAILED" in result.output


class TestBench:
    def test_csv_to_stdout(self, runner):
        result = runner.invoke(main, [
            "bench", "--kinds", "sa", "--sizes", "8x8",
            "--channels", "16", "--heads", "4", "--reps", "2", "--csv", "-",
        ])
        assert result.exit_code == 0
        rows = list(csv.DictReader(io.StringIO(result.output)))
        assert len(rows) == 1
        assert rows[0]["kind"] == "sa"
        # the counter matches the closed form to the multiply
        assert float(rows[0]["measured_over_analytic"]) == 1.0

    def test_table_without_csv(self, runner):
        result = runner.invoke(main, [
            "bench", "--kinds", "sa,conv", "--sizes", "8x8",
            "--channels", "16", "--heads", "4", "--reps", "1",
        ])
        assert result.exit_code == 0, result.output
        header, *rows = result.output.splitlines()
        assert header.split() == [
            "kind", "size", "median_ms", "peak_mb", "analytic", "measured", "ratio"]
        assert [r.split()[0] for r in rows] == ["sa", "conv"]
        assert all(r.split()[1] == "8x8" and r.split()[-1] == "1.0000" for r in rows)
        assert all(float(r.split()[3]) > 0 for r in rows)

    def test_peak_leaves_an_outer_trace_running(self, runner):
        tracemalloc.start()
        try:
            result = runner.invoke(main, [
                "bench", "--kinds", "conv", "--sizes", "8x8", "--channels", "16", "--reps", "1",
            ])
            assert tracemalloc.is_tracing()
        finally:
            tracemalloc.stop()
        assert result.exit_code == 0, result.output
        assert float(result.output.splitlines()[1].split()[3]) > 0

    def test_csv_to_file(self, runner, tmp_path):
        path = tmp_path / "bench.csv"
        result = runner.invoke(main, [
            "bench", "--kinds", "oa,lsa", "--sizes", "6x6,8x4",
            "--channels", "8", "--heads", "2", "--reps", "1", "--csv", str(path),
        ])
        assert result.exit_code == 0, result.output
        assert result.output.strip() == f"wrote 4 rows to {path}"
        rows = list(csv.DictReader(io.StringIO(path.read_text())))
        assert [(r["kind"], r["height"], r["width"]) for r in rows] == [
            ("oa", "6", "6"), ("lsa", "6", "6"), ("oa", "8", "4"), ("lsa", "8", "4")]
        assert all(r["analytic_madds"] == r["measured_madds"] for r in rows)

    def test_bad_size_is_usage_error(self, runner):
        result = runner.invoke(main, ["bench", "--sizes", "28by28"])
        assert result.exit_code == 2


class TestTrainToy:
    def test_short_run(self, runner):
        result = runner.invoke(main, [
            "train-toy", "--steps", "3", "--per-class", "2", "--json",
        ])
        assert result.exit_code == 0
        blob = json.loads(result.output)
        assert blob["steps"] == 3

    def test_min_accuracy_gate_fails(self, runner):
        result = runner.invoke(main, [
            "train-toy", "--steps", "2", "--per-class", "2", "--min-accuracy", "1.0",
        ])
        assert result.exit_code == 1


class TestGenData:
    def test_writes_loadable_archive(self, runner, tmp_path):
        out = tmp_path / "toy.npz"
        result = runner.invoke(main, [
            "gen-data", "--out", str(out), "--classes", "3", "--size", "16",
            "--per-class", "2",
        ])
        assert result.exit_code == 0
        with np.load(out) as blob:
            assert blob["images"].shape == (6, 16, 16, 3)
            assert blob["labels"].shape == (6,)

    def test_writes_exactly_the_path_given(self, runner, tmp_path):
        out = tmp_path / "toyfile"
        result = runner.invoke(main, [
            "gen-data", "--out", str(out), "--classes", "2", "--size", "16",
            "--per-class", "1",
        ])
        assert result.exit_code == 0, result.output
        assert sorted(p.name for p in tmp_path.iterdir()) == ["toyfile"]
        with np.load(out) as blob:
            assert blob["labels"].shape == (2,)


@pytest.mark.parametrize("args", [
    ["inspect", "--config", "tiny", "--resolution", "-16"],
    ["oracle-check", "--seeds", "0"],
    ["oracle-check", "--tolerance", "-1"],
    ["oracle-check", "--tolerance", "nan"],
    ["oracle-check", "--tolerance", "inf"],
    ["gradcheck", "--seeds", "0"],
    ["gradcheck", "--tolerance", "-1"],
    ["gradcheck", "--tolerance", "nan"],
    ["gradcheck", "--tolerance", "inf"],
    ["bench", "--channels", "12", "--heads", "5"],
    ["bench", "--kernel", "4"],
    ["bench", "--reps", "0"],
    ["train-toy", "--steps", "0", "--json"],
    ["train-toy", "--batch-size", "0", "--json"],
    ["train-toy", "--per-class", "0", "--json"],
    ["train-toy", "--lr", "0", "--json"],
    ["train-toy", "--lr", "-1", "--json"],
    ["train-toy", "--weight-decay", "-1", "--json"],
    ["train-toy", "--log-every", "-1", "--json"],
    ["train-toy", "--warmup", "-5", "--json"],
    ["train-toy", "--min-accuracy", "1.5", "--json"],
    ["train-toy", "--lr", "nan", "--json"],
    ["train-toy", "--lr", "inf", "--json"],
    ["train-toy", "--weight-decay", "nan", "--json"],
    ["train-toy", "--min-accuracy", "nan", "--json"],
    ["train-toy", "--seed", "-1", "--json"],
    ["gen-data", "--classes", "0"],
    ["gen-data", "--per-class", "0"],
    ["gen-data", "--size", "0"],
    ["gen-data", "--noise", "nan"],
    ["gen-data", "--noise", "inf"],
    ["gen-data", "--noise", "-1"],
    ["gen-data", "--seed", "-1"],
    ["gen-data", "--out", "{tmp}/missing/toy.npz"],
    ["bench", "--kinds", "conv", "--sizes", "4x4", "--channels", "4", "--heads", "1",
     "--reps", "1", "--csv", "{tmp}/missing/rows.csv"],
    ["bench", "--kinds", "conv", "--sizes", "4x4", "--channels", "4", "--heads", "1",
     "--reps", "1", "--csv", "{tmp}"],
    ["inspect", "--config", "{tmp}"],
    ["inspect", "--config", "{tmp}/noise.bin"],
], ids="_".join)
def test_input_that_cannot_run_is_usage_error(runner, args, tmp_path):
    # "{tmp}" is tmp_path, which holds a file that is not UTF-8; gen-data gets
    # a good --out first, so a case's own --out, given later, wins
    (tmp_path / "noise.bin").write_bytes(bytes(range(256)))
    if args[0] == "gen-data":
        args = [args[0], "--out", str(tmp_path / "toy.npz"), *args[1:]]
    args = [a.replace("{tmp}", str(tmp_path)) for a in args]
    result = runner.invoke(main, args)
    assert result.exit_code == 2, result.output


@pytest.mark.parametrize("field, value", [
    ("kernel", 4),
    ("stride", 0),
    ("outlooker_heads", 5),
    ("drop_path_rate", 1.5),
    ("num_outlookers", -1),
    ("num_classes", 0),
    ("outlooker_mlp_ratio", float("nan")),
    ("transformer_mlp_ratio", float("inf")),
])
def test_config_the_model_cannot_build_is_usage_error(runner, field, value, tmp_path):
    with pytest.raises((ContractError, GeometryError, ShapeError)):
        ModelConfig(**{field: value})
    path = tmp_path / "model.json"
    path.write_text(json.dumps({field: value}))
    result = runner.invoke(main, ["inspect", "--config", str(path)])
    assert result.exit_code == 2, result.output


@pytest.mark.parametrize("field, value", [
    ("num_outlookers", 2.5),
    ("kernel", 3.0),
    ("stage1_dim", 192.0),
    ("num_classes", True),
])
def test_config_field_of_the_wrong_type_is_usage_error(runner, field, value, tmp_path):
    # each value is in range, so only its type keeps it from being priced
    with pytest.raises(ContractError):
        ModelConfig(**{field: value})
    path = tmp_path / "model.json"
    path.write_text(json.dumps({field: value}))
    result = runner.invoke(main, ["inspect", "--config", str(path)])
    assert result.exit_code == 2, result.output


class TestModuleEntry:
    @staticmethod
    def _python(*args):
        """Run a fresh interpreter that finds this checkout's package first."""
        src = str(Path(outlooker.__file__).resolve().parent.parent)
        path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
        return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                              timeout=60, env={**os.environ, "PYTHONPATH": path})

    def test_python_m_runs_the_cli(self):
        # ``python -m outlooker.cli`` must reach main(), not import and exit
        result = self._python("-m", "outlooker.cli", "--version")
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip().endswith("0.1.0")

    def test_import_loads_no_scipy(self):
        # float64 GELU's erf is the package's own; importing scipy.special
        # alone took more than half of ``import outlooker``
        code = ("import sys, outlooker, outlooker.cli; "
                "print([m for m in sys.modules if m.split('.')[0] == 'scipy'])")
        result = self._python("-c", code)
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "[]"
