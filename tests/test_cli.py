import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from quantstab.cli import EXIT_CONFIG, EXIT_OK, EXIT_VIOLATION, load_experiment, main

REPO = Path(__file__).resolve().parent.parent


def _write(tmp_path, cfg, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg, indent=2))
    return str(path)


def _ar1_config(**extra):
    cfg = {
        "seed": 5,
        "horizon": 400,
        "paths": 4,
        "model": {"catalog": "stable_ar1"},
        "noise": {"family": "gaussian", "mean": 0.0, "std": 1.0, "dim": 1},
        "init": {"kind": "fixed", "values": [0.0]},
        "policy": {"kind": "null", "m": 2},
        "partition": {"low": [-6.0], "high": [6.0], "cells_per_axis": [8]},
    }
    cfg.update(extra)
    return cfg


def _read_tree(root: Path) -> dict:
    return {p.relative_to(root): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


# --------------------------------------------------------------------------
# Config validation

def test_unknown_top_level_key_is_config_error(tmp_path, capsys):
    cfg = _ar1_config()
    cfg["horizons"] = 3  # typo for horizon
    code = main(["simulate", "--config", _write(tmp_path, cfg), "--out", str(tmp_path / "o")])
    assert code == EXIT_CONFIG
    assert "horizons" in capsys.readouterr().err


def test_unknown_nested_key_is_config_error(tmp_path, capsys):
    cfg = _ar1_config()
    cfg["policy"]["alpha"] = 0.5  # null policy takes no alpha
    code = main(["simulate", "--config", _write(tmp_path, cfg), "--out", str(tmp_path / "o")])
    assert code == EXIT_CONFIG
    assert "alpha" in capsys.readouterr().err


def test_invalid_json_is_config_error(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "o")]) == EXIT_CONFIG


def test_missing_required_section_is_config_error(tmp_path):
    cfg = _ar1_config()
    del cfg["model"]
    assert main(["simulate", "--config", _write(tmp_path, cfg), "--out", str(tmp_path / "o")]) == EXIT_CONFIG


def test_dimension_mismatch_is_config_error(tmp_path):
    cfg = _ar1_config()
    cfg["noise"]["dim"] = 2
    assert main(["simulate", "--config", _write(tmp_path, cfg), "--out", str(tmp_path / "o")]) == EXIT_CONFIG


def test_missing_out_dir_is_config_error(tmp_path):
    assert main(["simulate", "--config", _write(tmp_path, _ar1_config())]) == EXIT_CONFIG


def test_dsl_model_config(tmp_path):
    cfg = _ar1_config()
    cfg["model"] = {"dsl": "states 1\nnoise 1\nx1' = 0.5*x1 + w1"}
    out = tmp_path / "out"
    assert main(["simulate", "--config", _write(tmp_path, cfg), "--out", str(out)]) == EXIT_OK
    assert (out / "simulate_summary.json").exists()


def test_simulate_overflowing_dsl_model_reports_divergence(tmp_path):
    cfg = _ar1_config(horizon=20, paths=2)
    cfg["model"] = {"dsl": "states 1\nnoise 1\nx1' = x1^40 + w1"}
    cfg["init"] = {"kind": "fixed", "values": [1e10]}
    out = tmp_path / "out"
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    result = subprocess.run(
        [sys.executable, "-m", "quantstab.cli", "simulate", "--config", _write(tmp_path, cfg), "--out", str(out)],
        capture_output=True,
        text=True,
        env=env,
    )
    assert result.returncode == EXIT_OK
    assert "Traceback" not in result.stderr
    summary = json.loads((out / "simulate_summary.json").read_text())
    assert summary["diverged"] == 2
    assert summary["divergence_rate"] == 1.0
    assert summary["first_divergence_steps"] == [0, 0]


def test_bad_dsl_model_is_config_error(tmp_path, capsys):
    cfg = _ar1_config()
    cfg["model"] = {"dsl": "states 1\nx1' = x1 +"}
    assert main(["simulate", "--config", _write(tmp_path, cfg), "--out", str(tmp_path / "o")]) == EXIT_CONFIG


# --------------------------------------------------------------------------
# simulate

# SHA-256 of every `simulate` output file for configs/doubling_zoom_entropy.json
# at seed 0, 2 paths, horizon 2,000, as written by the gather/scatter quantizer
# step and the csv.writer export, taken with NumPy 2.4.6 on Linux x86-64. The
# noise comes from NumPy's `default_rng` stream, which NumPy does not promise
# to keep across versions: if an upgrade changes that stream, re-pin these
# digests from a run shown byte-identical to the code before the upgrade.
_ZOOM_GOLDEN_SHA256 = {
    "simulate_summary.json": "7ed08c47a6e52c1219f346953e2d9d19d353c1c5004f50bbfb2ef02a72cc71d8",
    "trajectory_0000.csv": "d15c9f4dc8b947bbf2fbd1551f54eb11ba5a9f910289ece7f601e294e2dd2265",
    "trajectory_0001.csv": "12cefda4a197dd29abeafb3ef3a540c9bf0fd1be5b3734b9dfb3cff55f5ce14e",
}


def test_simulate_zoom_outputs_match_golden_digests(tmp_path):
    cfg = str(REPO / "configs" / "doubling_zoom_entropy.json")
    out = tmp_path / "out"
    args = ["simulate", "--config", cfg, "--seed", "0", "--paths", "2", "--horizon", "2000", "--out", str(out)]
    assert main(args) == EXIT_OK
    digests = {str(name): hashlib.sha256(data).hexdigest() for name, data in _read_tree(out).items()}
    assert digests == _ZOOM_GOLDEN_SHA256

def test_simulate_outputs_and_reproducibility(tmp_path):
    cfg = _write(tmp_path, _ar1_config())
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["simulate", "--config", cfg, "--out", str(out1)]) == EXIT_OK
    assert main(["simulate", "--config", cfg, "--out", str(out2)]) == EXIT_OK
    tree1, tree2 = _read_tree(out1), _read_tree(out2)
    assert set(tree1) == {Path("simulate_summary.json")} | {
        Path(f"trajectory_{k:04d}.csv") for k in range(4)
    }
    assert tree1 == tree2  # byte-identical rerun
    summary = json.loads((out1 / "simulate_summary.json").read_text())
    assert summary["divergence_rate"] == 0.0


def test_simulate_seed_override_changes_outputs(tmp_path):
    cfg = _write(tmp_path, _ar1_config())
    out1, out2 = tmp_path / "a", tmp_path / "b"
    main(["simulate", "--config", cfg, "--out", str(out1)])
    main(["simulate", "--config", cfg, "--out", str(out2), "--seed", "6"])
    assert _read_tree(out1) != _read_tree(out2)


def test_simulate_divergence_summary_for_null_doubling(tmp_path):
    cfg = _ar1_config()
    cfg["model"] = {"catalog": "scalar_doubling"}
    cfg["init"] = {"kind": "fixed", "values": [1.0]}
    cfg["horizon"] = 200
    out = tmp_path / "out"
    assert main(["simulate", "--config", _write(tmp_path, cfg), "--out", str(out)]) == EXIT_OK
    summary = json.loads((out / "simulate_summary.json").read_text())
    assert summary["divergence_rate"] == 1.0


def test_simulate_paths_and_horizon_overrides(tmp_path):
    cfg = _write(tmp_path, _ar1_config())
    out = tmp_path / "out"
    main(["simulate", "--config", cfg, "--out", str(out), "--paths", "2", "--horizon", "50"])
    assert len(list(out.glob("trajectory_*.csv"))) == 2
    lines = (out / "trajectory_0000.csv").read_text().strip().splitlines()
    assert len(lines) == 51


# --------------------------------------------------------------------------
# bound

def test_bound_example1_report(tmp_path):
    out = tmp_path / "out"
    code = main(
        ["bound", "--config", str(REPO / "configs" / "example1_bound.json"), "--out", str(out)]
    )
    assert code == EXIT_OK
    report = json.loads((out / "bound_report.json").read_text())
    assert report["max_bound"] == 1.0
    assert report["classical_bound"] == 0.0
    assert report["argmax"] == [1]
    assert report["violation"] is False
    assert {s["p"][0] for s in report["subsets"]} == {1}
    assert report["capacity"] == pytest.approx(math.log2(26))


def test_bound_requires_partition_and_gamma(tmp_path):
    cfg = _ar1_config()
    del cfg["partition"]
    assert main(["bound", "--config", _write(tmp_path, cfg), "--out", str(tmp_path / "o")]) == EXIT_CONFIG


def test_bound_reproducible(tmp_path):
    cfg = _ar1_config(gamma=[{"p": [1], "c_p": 0.4}], bound={"n_mc": 2000})
    path = _write(tmp_path, cfg)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["bound", "--config", path, "--out", str(out1)]) == EXIT_OK
    assert main(["bound", "--config", path, "--out", str(out2)]) == EXIT_OK
    assert _read_tree(out1) == _read_tree(out2)


def test_bound_falsification_finding_exits_3(tmp_path, capsys):
    cfg = _ar1_config(
        gamma=[{"p": [1], "c_p": 0.6}],  # true |det| is 0.5 everywhere: claim is false
        bound={"n_mc": 1000},
        falsify={"samples": 1000},
    )
    out = tmp_path / "out"
    code = main(["bound", "--config", _write(tmp_path, cfg), "--out", str(out)])
    assert code == EXIT_VIOLATION
    falsification = json.loads((out / "falsification.json").read_text())
    assert falsification["subsets"][0]["falsified"] is True
    assert "falsified" in capsys.readouterr().err
    # the bound report is still produced alongside the finding
    assert (out / "bound_report.json").exists()


def test_bound_surviving_floor_exits_0(tmp_path):
    cfg = _ar1_config(
        gamma=[{"p": [1], "c_p": 0.4}],
        bound={"n_mc": 1000},
        falsify={"samples": 1000},
    )
    out = tmp_path / "out"
    assert main(["bound", "--config", _write(tmp_path, cfg), "--out", str(out)]) == EXIT_OK
    falsification = json.loads((out / "falsification.json").read_text())
    assert falsification["subsets"][0]["falsified"] is False
    assert falsification["subsets"][0]["min_abs_det"] == 0.5


# --------------------------------------------------------------------------
# entropy

def test_entropy_curve_and_summary(tmp_path):
    out = tmp_path / "out"
    code = main(
        [
            "entropy",
            "--config",
            str(REPO / "configs" / "doubling_zoom_entropy.json"),
            "--out",
            str(out),
        ]
    )
    assert code == EXIT_OK
    lines = (out / "entropy_curve.csv").read_text().strip().splitlines()
    assert lines[0] == "T,s_estimate,rate,capacity"
    assert len(lines) == 4
    for line in lines[1:]:
        horizon, s, rate, capacity = line.split(",")
        assert int(s) <= 4 ** int(horizon)
        assert float(rate) <= float(capacity) + 1e-9
    summary = json.loads((out / "entropy_summary.json").read_text())
    assert summary["all_feasible"] is True
    assert summary["limsup_rate_estimate"] <= 2.0


def test_entropy_vacuous_thresholds_rate_zero(tmp_path):
    cfg = json.loads((REPO / "configs" / "doubling_zoom_entropy.json").read_text())
    cfg["entropy"]["thresholds"] = "vacuous"
    cfg["entropy"]["horizons"] = [4, 6]
    out = tmp_path / "out"
    assert main(["entropy", "--config", _write(tmp_path, cfg), "--out", str(out)]) == EXIT_OK
    lines = (out / "entropy_curve.csv").read_text().strip().splitlines()
    for line in lines[1:]:
        _, s, rate, _ = line.split(",")
        assert s == "1" and float(rate) == 0.0


def test_entropy_matrix_dump(tmp_path):
    cfg = json.loads((REPO / "configs" / "doubling_zoom_entropy.json").read_text())
    cfg["entropy"]["dump_matrix"] = True
    cfg["entropy"]["horizons"] = [4]
    out = tmp_path / "out"
    assert main(["entropy", "--config", _write(tmp_path, cfg), "--out", str(out)]) == EXIT_OK
    assert (out / "satisfaction_T4.csv").exists()


def test_entropy_requires_section(tmp_path):
    assert (
        main(["entropy", "--config", _write(tmp_path, _ar1_config()), "--out", str(tmp_path / "o")])
        == EXIT_CONFIG
    )


# --------------------------------------------------------------------------
# diagnose

def test_diagnose_outputs(tmp_path):
    cfg = _ar1_config(diagnose={"checkpoints": [10, 100, 400]})
    out = tmp_path / "out"
    assert main(["diagnose", "--config", _write(tmp_path, cfg), "--out", str(out)]) == EXIT_OK
    summary = json.loads((out / "diagnose_summary.json").read_text())
    assert summary["overflow_mass"] < 0.01
    assert summary["max_dispersion"] < 0.2
    assert summary["divergence"]["divergence_rate"] == 0.0
    convergence = (out / "convergence.csv").read_text().strip().splitlines()
    assert convergence[0].startswith("T,cell0")
    assert len(convergence) == 4
    dispersion = (out / "dispersion.csv").read_text().strip().splitlines()
    assert dispersion[0] == "cell,dispersion"
    assert (out / "measure.csv").exists()


def test_diagnose_reproducible(tmp_path):
    cfg = _write(tmp_path, _ar1_config(diagnose={"checkpoints": [10, 400]}))
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["diagnose", "--config", cfg, "--out", str(out1)]) == EXIT_OK
    assert main(["diagnose", "--config", cfg, "--out", str(out2)]) == EXIT_OK
    assert _read_tree(out1) == _read_tree(out2)


# --------------------------------------------------------------------------
# plumbing

def test_load_experiment_exposes_objects(tmp_path):
    exp = load_experiment(_write(tmp_path, _ar1_config()))
    assert exp.model.name == "stable_ar1"
    assert exp.policy.capacity() == 1.0
    assert exp.burn_in == 40


def test_help_documents_config_keys():
    result = subprocess.run(
        [sys.executable, "-m", "quantstab.cli", "--help"],
        capture_output=True,
        text=True,
    )
    # module execution without a __main__ guard exits nonzero; check the text instead
    for key in ["burn_in_fraction", "gamma", "partition", "entropy", "falsify", "c_p"]:
        assert key in result.stdout or key in result.stderr


def test_console_entry_help_via_subprocess():
    result = subprocess.run(
        [sys.executable, "-c", "from quantstab.cli import main; raise SystemExit(main(['--help']))"],
        capture_output=True,
        text=True,
    )
    assert "simulate" in result.stdout and "bound" in result.stdout
    assert "burn_in_fraction" in result.stdout


# --------------------------------------------------------------------------
# Benchmark trace contract

def test_benchmark_tracer_runs_simulate(tmp_path):
    # perfbench/tracing.py wraps functions by name where the CLI looks them up;
    # a renamed or removed one breaks it before any benchmark run does
    trace = tmp_path / "trace.json"
    config = _write(tmp_path, _ar1_config(horizon=50, paths=2))
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    result = subprocess.run(
        [sys.executable, str(REPO / "perfbench" / "tracing.py"), str(trace),
         "simulate", "--config", config, "--out", str(tmp_path / "out")],
        capture_output=True,
        text=True,
        env=env,
    )
    assert result.returncode == EXIT_OK, result.stderr
    record = json.loads(trace.read_text())
    assert record["failures"] == []
    assert "simulation.batch_rollout" in {span[0] for span in record["spans"]}
