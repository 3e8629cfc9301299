import gc
import hashlib
import importlib.util
import json
import math
import os
import subprocess
import sys
import tracemalloc
import weakref
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from quantstab import InitSpec, NoiseSpec, cli, dynamics, null_policy, simulation, stabilization_entropy
from quantstab.capacity_bounds import refined_bound
from quantstab.cli import EXIT_CONFIG, EXIT_OK, EXIT_VIOLATION, load_experiment, main
from quantstab.dynamics import JACOBIAN_BLOCK
from quantstab.simulation import Trajectory
from quantstab.stabilization_entropy import EntropyPoint

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


def _digests(root: Path) -> dict:
    return {str(name): hashlib.sha256(data).hexdigest() for name, data in _read_tree(root).items()}


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


@pytest.mark.parametrize(
    "model",
    [
        "x1' = x1 + 1e999 + w1",  # 1e999 is inf, compiled as the name inf
        "x1' = x1 + 1/0",  # a constant that raises fails in every row
    ],
)
def test_simulate_non_finite_dsl_constant_diverges_every_path_at_step_0(tmp_path, capsys, model):
    cfg = _ar1_config(horizon=20, paths=2)
    cfg["model"] = {"dsl": f"states 1\nnoise 1\n{model}"}
    out = tmp_path / "out"
    assert main(["simulate", "--config", _write(tmp_path, cfg), "--out", str(out)]) == EXIT_OK
    summary = json.loads((out / "simulate_summary.json").read_text())
    assert (summary["diverged"], summary["first_divergence_steps"]) == (2, [0, 0])
    assert capsys.readouterr().err == ""


def _inf_jacobian_bound_config(p):
    # the Jacobian entry d x1'/d x1 folds to the constant 1e200 * 1e200 = inf
    cfg = _ar1_config(horizon=50, paths=2, gamma=[{"p": p, "c_p": 0.4}], bound={"n_mc": 100})
    cfg["model"] = {"dsl": "states 2\nnoise 1\nx1' = 1e200*(1e200*x1)\nx2' = 0.5*x2 + w1"}
    cfg["init"] = {"kind": "gaussian", "mean": [0.0, 0.0], "std": [1.0, 1.0]}
    cfg["partition"] = {"low": [-6.0, -6.0], "high": [6.0, 6.0], "cells_per_axis": [4, 4]}
    cfg["falsify"] = {"samples": 100}
    return cfg


def test_bound_infinite_jacobian_constant_exits_3(tmp_path, capsys):
    # x1 leaves for inf at step 0, so no path has a post-burn-in sample
    cfg = _inf_jacobian_bound_config([2])
    assert main(["bound", "--config", _write(tmp_path, cfg), "--out", str(tmp_path / "o")]) == EXIT_VIOLATION
    assert capsys.readouterr().err == (
        "assumption violation: no post-burn-in samples available (all paths truncated early?)\n"
    )


def test_falsify_with_no_finite_determinant_reports_a_sample(tmp_path):
    out = tmp_path / "o"
    main(["bound", "--config", _write(tmp_path, _inf_jacobian_bound_config([1])), "--out", str(out)])
    (result,) = json.loads((out / "falsification.json").read_text())["subsets"]
    assert (result["falsified"], result["min_abs_det"], result["n_samples"]) == (False, math.inf, 100)
    assert len(result["at_x"]) == 2 and len(result["at_w"]) == 1


@pytest.mark.parametrize(
    "x1",
    [
        "x1' = x1/(x2 - x2)",  # numpy: invalid value encountered in divide
        "x1' = 1/(x2 - x2) * x1",  # numpy: divide by zero encountered in divide
        "x1' = x1/(2-2) + w1",  # a constant that raises: every Jacobian entry is inf
    ],
)
def test_falsify_with_a_zero_denominator_jacobian_prints_no_warning(tmp_path, x1):
    cfg = _inf_jacobian_bound_config([1])
    cfg["model"] = {"dsl": f"states 2\nnoise 1\n{x1}\nx2' = 0.5*x2 + w1"}
    out = tmp_path / "o"
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    result = subprocess.run(
        [sys.executable, "-m", "quantstab.cli", "bound", "--config", _write(tmp_path, cfg), "--out", str(out)],
        capture_output=True,
        text=True,
        env=env,
    )
    assert result.returncode == EXIT_VIOLATION
    assert result.stderr == (
        "assumption violation: no post-burn-in samples available (all paths truncated early?)\n"
    )
    (found,) = json.loads((out / "falsification.json").read_text())["subsets"]
    assert (found["falsified"], found["min_abs_det"], found["n_samples"]) == (False, math.inf, 100)


def test_bad_dsl_model_is_config_error(tmp_path, capsys):
    cfg = _ar1_config()
    cfg["model"] = {"dsl": "states 1\nx1' = x1 +"}
    assert main(["simulate", "--config", _write(tmp_path, cfg), "--out", str(tmp_path / "o")]) == EXIT_CONFIG


def _example1_config():
    return json.loads((REPO / "configs" / "example1_bound.json").read_text())


@pytest.mark.parametrize(
    "cfg, command",
    [
        (_ar1_config(partition={"low": [-6, -6], "high": [6, 6], "cells_per_axis": [8, 8]}), "diagnose"),
        (_ar1_config(partition={"low": [-6, -6], "high": [6, 6], "cells_per_axis": [8, 8]},
                     gamma=[{"p": [1], "c_p": 0.4}]), "bound"),
        ({**_example1_config(), "partition": {"low": [-16], "high": [16], "cells_per_axis": [16]}}, "bound"),
    ],
)
def test_partition_dim_must_match_state_dim(tmp_path, capsys, cfg, command):
    assert main([command, "--config", _write(tmp_path, cfg), "--out", str(tmp_path / "o")]) == EXIT_CONFIG
    assert "partition has dim" in capsys.readouterr().err


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
    assert _digests(out) == _ZOOM_GOLDEN_SHA256

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


def _example1_simulate_config(**sections):
    cfg = {**_example1_config(), "horizon": 200, "paths": 2}
    cfg.update(sections)
    return cfg


_COORDS = [{"kind": "fixed", "value": 0.5}, {"kind": "gaussian", "mean": 0.0, "std": 0.5}]
_ATOMS = {"family": "atoms", "values": [[0.05, 0.0], [-0.05, 0.02]], "probs": [0.25, 0.75]}


@pytest.mark.parametrize(
    "section, value",
    [("init", {"kind": "coords", "coords": _COORDS}), ("noise", _ATOMS)],
    ids=["coords", "atoms"],
)
def test_simulate_coords_init_and_atom_noise_run_and_rerun_byte_identically(tmp_path, section, value):
    cfg = _write(tmp_path, _example1_simulate_config(**{section: value}))
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["simulate", "--config", cfg, "--out", str(out1)]) == EXIT_OK
    assert main(["simulate", "--config", cfg, "--out", str(out2)]) == EXIT_OK
    assert _read_tree(out1) == _read_tree(out2)
    rows = np.loadtxt(out1 / "trajectory_0000.csv", delimiter=",", skiprows=1, ndmin=2)
    if section == "init":  # t, x1, x2, ...: the fixed coordinate starts at its value
        assert rows[0, 1] == 0.5 and rows[0, 2] != 0.0
    else:  # t, x1, x2, w1, w2, ...: every noise row is an atom
        assert {tuple(w) for w in rows[:, 3:5]} == {(0.05, 0.0), (-0.05, 0.02)}


@pytest.mark.parametrize(
    "coords, message",
    [
        ([{"kind": "beta", "a": 1.0}, _COORDS[1]], "unknown init coord kind 'beta'"),
        ([{"kind": "uniform", "low": 1.0, "high": 1.0}, _COORDS[1]],
         "bad init spec: uniform bounds must satisfy low < high"),
        (_COORDS[:1], "init dim 1 does not match state dim 2"),
    ],
)
def test_bad_coords_init_exits_2(tmp_path, capsys, coords, message):
    cfg = _example1_simulate_config(init={"kind": "coords", "coords": coords})
    code = _main_without_rollouts(["simulate", "--config", _write(tmp_path, cfg), "--out", str(tmp_path / "o")])
    assert code == EXIT_CONFIG
    assert capsys.readouterr().err == f"config error: {message}\n"


@pytest.mark.parametrize("command, code", [("simulate", EXIT_OK), ("entropy", EXIT_VIOLATION)])
@pytest.mark.parametrize(
    "section, value",
    [
        ("noise", {"family": "gaussian", "mean": 0.0, "std": 1e308, "dim": 1}),
        ("init", {"kind": "gaussian", "mean": [0.0], "std": [1e308]}),
    ],
    ids=["noise", "init"],
)
def test_gaussian_draws_that_overflow_diverge_without_a_warning(tmp_path, capsys, command, code, section, value):
    # 1e308 times a normal draw beyond 1.8 in size is inf: each such path
    # diverges, and numpy's overflow warning (an error under this suite's
    # warning filter) is not raised
    cfg = _zoom_entropy_config(horizons=[4])
    cfg.update(horizon=50, **{section: value})
    assert main([command, "--config", _write(tmp_path, cfg), "--out", str(tmp_path / "o")]) == code
    err = capsys.readouterr().err
    assert "Warning" not in err
    if command == "simulate":
        summary = json.loads((tmp_path / "o" / "simulate_summary.json").read_text())
        assert summary["divergence_rate"] == 1.0
    else:
        assert err == "assumption violation: every closed-loop run diverged before T=4; no candidate sequences\n"


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


def test_bound_frees_the_trajectories_before_the_monte_carlo_pass(tmp_path, monkeypatch):
    # only the trajectories made during the run count, not those other tests hold
    made, alive = [], []  # weak references to the trajectories made

    class Tracked(Trajectory):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            made.append(weakref.ref(self))

    def counting_bound(*args, **kwargs):
        gc.collect()
        alive.append(sum(ref() is not None for ref in made))
        return refined_bound(*args, **kwargs)

    monkeypatch.setattr(simulation, "Trajectory", Tracked)
    monkeypatch.setattr(cli, "refined_bound", counting_bound)
    model = dynamics.catalog_model("stable_ar1")
    seen = simulation.rollout(model, null_policy(2), NoiseSpec.zero(1), InitSpec.fixed([0.0]), 3, 0)
    assert [ref() for ref in made] == [seen]  # the patch sees the trajectories simulation makes
    del seen
    cfg = _ar1_config(gamma=[{"p": [1], "c_p": 0.4}], bound={"n_mc": 1000})
    assert main(["bound", "--config", _write(tmp_path, cfg), "--out", str(tmp_path / "o")]) == EXIT_OK
    assert alive == [0]


def _mc_bound_config(crn=True, gamma=None):
    # the mc-bound benchmark's example2 setting cut down: 4 paths of 400
    # steps, 20,000 Monte Carlo samples and 50,000 falsification samples,
    # which are three and seven blocks of at most 8,192
    cfg = json.loads((REPO / "configs" / "example2_bound.json").read_text())
    cfg.update(horizon=400, paths=4)
    cfg["bound"] = {"n_mc": 20_000, "common_random_numbers": crn}
    cfg["falsify"]["samples"] = 50_000
    if gamma is not None:
        cfg["gamma"] = gamma
    return cfg


# |det| is at least 1 for p=[1], 0.5 everywhere for p=[2] and at least 0.5
# for p=[1, 2]: the last two floors break, the first survives
_BREAKING_FLOORS = [{"p": [1], "c_p": 1.0}, {"p": [2], "c_p": 0.5}, {"p": [1, 2], "c_p": 0.55}]

# SHA-256 of the `bound` outputs of _mc_bound_config at seed 0, taken with
# NumPy 2.4.6 on Linux x86-64 from the code that draws the falsification
# samples from three spawned generators (box, Cauchy pick, Cauchy values) and
# reports a broken floor's first counterexample, in 8,192-row blocks. The
# same caveat about NumPy's streams applies as for the `simulate` digests
# above.
_FALSIFICATION_SHA256 = "d057f20976a37842cb93da50f6c10f9c5efa625c90641e485900b484837fb53c"
_CRN_REPORT_SHA256 = "90dcb58e9ecec4dd6917df5569932369c33e717d8f26ee021ed95a28ab8e52d4"
_MC_BOUND_GOLDEN_SHA256 = {
    "crn": (
        EXIT_OK,
        {"bound_report.json": _CRN_REPORT_SHA256, "falsification.json": _FALSIFICATION_SHA256},
    ),
    "independent": (
        EXIT_OK,
        {
            "bound_report.json": "5cf82b9aaa9fb7f03a50256e7a83383694c17127491c27ba4b8b0776f20a488f",
            "falsification.json": _FALSIFICATION_SHA256,
        },
    ),
    "breaking floors": (
        EXIT_VIOLATION,
        {
            "bound_report.json": _CRN_REPORT_SHA256,
            "falsification.json": "e66ed877e91b9437014eccc479f4444ad1678dc32ba18b8c43154302e66e2430",
        },
    ),
}


@pytest.mark.parametrize(
    "case, cfg",
    [
        ("crn", _mc_bound_config()),
        ("independent", _mc_bound_config(crn=False)),
        ("breaking floors", _mc_bound_config(gamma=_BREAKING_FLOORS)),
    ],
)
def test_bound_outputs_match_golden_digests(tmp_path, case, cfg):
    out = tmp_path / "out"
    code = main(["bound", "--config", _write(tmp_path, cfg), "--seed", "0", "--out", str(out)])
    assert (code, _digests(out)) == _MC_BOUND_GOLDEN_SHA256[case]


def _tiny_example2_bound_config():
    cfg = json.loads((REPO / "configs" / "example2_bound.json").read_text())
    cfg.update(horizon=200, paths=2)
    cfg["bound"]["n_mc"] = 2000
    cfg["falsify"]["samples"] = 3000
    return cfg


def test_uniform_quantizer_bound_run_leaves_numpy_ma_unloaded(tmp_path):
    # numpy.ma costs about 15 ms and 1.8 MB to import; np.unique loads it
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    probe = "import sys, numpy; print('numpy.ma' in sys.modules)"
    loaded = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=env)
    if loaded.stdout.strip() == "True":
        pytest.skip("importing numpy alone loads numpy.ma here")
    args = ["bound", "--config", _write(tmp_path, _tiny_example2_bound_config()), "--out", str(tmp_path / "o")]
    run = (
        "import sys\nfrom quantstab.cli import main\n"
        f"code = main({args!r})\nprint(code, 'numpy.ma' in sys.modules)"
    )
    result = subprocess.run([sys.executable, "-c", run], capture_output=True, text=True, env=env)
    assert result.stdout.split() == [str(EXIT_OK), "False"], result.stderr


# --------------------------------------------------------------------------
# integer settings

def _set(cfg, path, value):
    *outer, last = path
    for key in outer:
        cfg = cfg[key] if isinstance(cfg, list) else cfg.setdefault(key, {})
    cfg[last] = value


def _ar1_bound_config():
    return _ar1_config(gamma=[{"p": [1], "c_p": 0.4}], bound={"n_mc": 1000}, falsify={"samples": 1000})


@pytest.mark.parametrize(
    "command, path, value, key",
    [
        ("entropy", ("entropy", "horizons"), [4.7], "entropy.horizons"),
        ("entropy", ("entropy", "scenarios"), 8.9, "entropy.scenarios"),
        ("entropy", ("entropy", "split"), 1.5, "entropy.split"),
        ("entropy", ("horizon",), 300.5, "horizon"),
        ("entropy", ("seed",), True, "seed"),
        ("entropy", ("paths",), "2", "paths"),
        ("entropy", ("policy", "m"), 4.5, "policy.m"),
        ("entropy", ("noise", "dim"), 1.5, "noise.dim"),
        ("bound", ("bound", "n_mc"), 1000.5, "bound.n_mc"),
        ("bound", ("bound", "seed"), "3", "bound.seed"),
        ("bound", ("falsify", "samples"), True, "falsify.samples"),
        ("simulate", ("policy", "m"), 2.5, "policy.m"),
    ],
)
def test_non_integer_count_is_config_error(tmp_path, capsys, command, path, value, key):
    cfg = _zoom_entropy_config() if command == "entropy" else _ar1_bound_config()
    _set(cfg, path, value)
    with mock.patch.object(stabilization_entropy, "run_closed_loops", side_effect=AssertionError):
        code = main([command, "--config", _write(tmp_path, cfg), "--out", str(tmp_path / "o")])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert f"config error: {key} must be an integer" in err


def test_integral_float_counts_are_accepted(tmp_path):
    # JSON writers may print 1e6 for a count
    as_ints, as_floats = _ar1_bound_config(), _ar1_bound_config()
    for path, value in [(("seed",), 5.0), (("horizon",), 4e2), (("bound", "n_mc"), 1e3),
                        (("bound", "seed"), 9.0), (("falsify", "samples"), 1e3)]:
        _set(as_floats, path, value)
    _set(as_ints, ("bound", "seed"), 9)
    out1, out2 = tmp_path / "ints", tmp_path / "floats"
    assert main(["bound", "--config", _write(tmp_path, as_ints, "i.json"), "--out", str(out1)]) == EXIT_OK
    assert main(["bound", "--config", _write(tmp_path, as_floats, "f.json"), "--out", str(out2)]) == EXIT_OK
    assert _read_tree(out1) == _read_tree(out2)


# --------------------------------------------------------------------------
# malformed values

# Values of the wrong kind for their key: a list where a number goes, a string
# where a bool goes, a fraction where an integer goes, a scalar or a list
# where an object goes; and integers out of range: a count or an alphabet size
# above int64, whose symbols and steps are int64, a bits_per_axis entry
# whose power of 2 would be computed before the grid limit refuses it, and
# checkpoints that are not counts or repeat one (a row written twice).
_MALFORMED = [
    ("simulate", "zoom", ("policy", "alpha"), [0.6], "policy.alpha"),
    ("entropy", "zoom", ("entropy", "rho"), [0.5], "entropy.rho"),
    ("bound", "ar1", ("gamma", 0, "c_p"), [0.9], "gamma[0].c_p"),
    ("simulate", "ar1", ("burn_in_fraction",), "x", "burn_in_fraction"),
    ("bound", "ar1", ("gamma",), {"p": [1]}, "gamma"),
    ("bound", "ar1", ("gamma",), [1], "gamma[0]"),
    ("bound", "ar1", ("falsify",), 5, "falsify"),
    ("diagnose", "ar1", ("diagnose", "checkpoints"), 5, "diagnose.checkpoints"),
    ("diagnose", "ar1", ("diagnose", "checkpoints"), ["a"], "diagnose.checkpoints"),
    ("bound", "ar1", ("bound", "common_random_numbers"), "false", "bound.common_random_numbers"),
    ("entropy", "zoom", ("entropy", "dump_matrix"), "no", "entropy.dump_matrix"),
    ("bound", "ar1", ("gamma", 0, "p"), [1.6], "gamma[0].p"),
    ("entropy", "zoom", ("entropy", "state_partition", "cells_per_axis"), [2.7],
     "entropy.state_partition.cells_per_axis"),
    ("simulate", "example1", ("policy", "cells_per_axis"), [5.5, 5.5], "policy.cells_per_axis"),
    ("diagnose", "ar1", ("diagnose", "checkpoints"), [10.9, 100], "diagnose.checkpoints"),
    ("simulate", "example2", ("policy", "bits_per_axis"), [6.5, 6.9], "policy.bits_per_axis"),
    ("bound", "ar1", ("bound",), [1], "bound"),
    ("simulate", "example2", ("policy", "bits_per_axis"), 1e30, "policy.bits_per_axis"),
    ("simulate", "example2", ("policy", "bits_per_axis"), [6, 2**63], "policy.bits_per_axis"),
    ("simulate", "example2", ("policy", "bits_per_axis"), 1e12, "policy.bits_per_axis"),
    ("simulate", "example2", ("policy", "m"), 1e30, "policy.m"),
    ("simulate", "zoom", ("policy",), {"kind": "zoom", "m": 1e30, "alpha": 0.6, "beta": 2.0,
                                       "initial_halfwidth": 2.0, "cells_per_axis": [3]}, "policy.m"),
    ("simulate", "zoom", ("policy",), {"kind": "zoom", "m": 2**63, "alpha": 0.6, "beta": 2.0,
                                       "initial_halfwidth": 2.0, "cells_per_axis": [3]}, "policy.m"),
    ("simulate", "ar1", ("policy", "m"), 2**63, "policy.m"),
    ("entropy", "zoom", ("entropy", "scenarios"), 1e30, "entropy.scenarios"),
    ("entropy", "zoom", ("entropy", "horizons"), [4, 1e30], "entropy.horizons"),
    ("simulate", "ar1", ("horizon",), 1e30, "horizon"),
    ("simulate", "ar1", ("horizon",), 2**63, "horizon"),
    ("bound", "ar1", ("paths",), 1e30, "paths"),
    ("bound", "ar1", ("bound", "n_mc"), 2**63, "bound.n_mc"),
    ("bound", "ar1", ("falsify", "samples"), 1e30, "falsify.samples"),
    ("diagnose", "ar1", ("diagnose", "checkpoints"), [10, 2**63], "diagnose.checkpoints"),
    ("diagnose", "ar1", ("diagnose", "checkpoints"), [0, -3, 50], "diagnose.checkpoints"),
    ("diagnose", "ar1", ("diagnose", "checkpoints"), [100, 10, 100], "diagnose.checkpoints"),
]


def _base_config(name):
    return {
        "ar1": _ar1_bound_config,
        "zoom": _zoom_entropy_config,
        "example1": _example1_config,
        "example2": _tiny_example2_bound_config,
    }[name]()


def _main_without_rollouts(args):
    with mock.patch.object(cli, "batch_rollout", side_effect=AssertionError("rollout ran")), \
            mock.patch.object(cli, "closed_loop_blocks", side_effect=AssertionError("rollout ran")), \
            mock.patch.object(stabilization_entropy, "run_closed_loops", side_effect=AssertionError):
        return main(args)


@pytest.mark.parametrize(
    "command, base, path, value, key", _MALFORMED, ids=[f"{c[4]}={c[3]!r}" for c in _MALFORMED]
)
def test_malformed_value_exits_2_naming_its_key_before_any_rollout(
    tmp_path, capsys, command, base, path, value, key
):
    cfg = _base_config(base)
    _set(cfg, path, value)
    code = _main_without_rollouts([command, "--config", _write(tmp_path, cfg), "--out", str(tmp_path / "o")])
    assert code == EXIT_CONFIG
    assert f"config error: {key} must be" in capsys.readouterr().err


@pytest.mark.parametrize(
    "path, value, message",
    [
        (("seed",), -1, "seed must be at least 0, got -1"),
        (("noise", "std"), float("nan"), "noise.std must be a finite number, got nan"),
        (("falsify", "box_halfwidth"), float("inf"), "falsify.box_halfwidth must be a finite number"),
        (("paths",), 0, "paths must be at least 1, got 0"),
        (("bound", "n_mc"), 0, "bound.n_mc must be at least 1, got 0"),
        (("falsify", "samples"), -5, "falsify.samples must be at least 1, got -5"),
        (("falsify", "box_halfwidth"), -1, "bad falsify spec: box halfwidth must be positive"),
        (("falsify", "cauchy_fraction"), 2, "bad falsify spec: Cauchy fraction must lie in [0, 1]"),
        (("bound", "n_mcc"), 5, "unknown key(s) 'n_mcc' in bound"),
        (("gamma", 0, "cp"), 0.4, "unknown key(s) 'cp' in gamma[0]"),
        (("falsify", "box_halfwidth"), 1e308, "bad falsify spec: box halfwidth must be positive"),
        (("model", "catalog"), "nope", "bad model.catalog: unknown catalog model 'nope'; "
         "available: example1, example2, scalar_doubling, stable_ar1\n"),
    ],
)
def test_out_of_range_or_unknown_setting_exits_2(tmp_path, capsys, path, value, message):
    cfg = _ar1_bound_config()
    _set(cfg, path, value)
    code = _main_without_rollouts(["bound", "--config", _write(tmp_path, cfg), "--out", str(tmp_path / "o")])
    assert code == EXIT_CONFIG
    assert f"config error: {message}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, path, value, spec",
    [
        ("simulate", ("partition", "cells_per_axis"), [2**32, 2**32], "partition"),
        ("bound", ("policy", "bits_per_axis"), [32, 32], "policy"),
    ],
)
def test_grid_above_the_cell_limit_exits_2(tmp_path, capsys, command, path, value, spec):
    # 2^64 cells on both grids, which an int64 product counts as 0
    cfg = _tiny_example2_bound_config()
    _set(cfg, path, value)
    code = _main_without_rollouts([command, "--config", _write(tmp_path, cfg), "--out", str(tmp_path / "o")])
    assert code == EXIT_CONFIG
    assert f"config error: bad {spec} spec: grid of {2**64} cells exceeds" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["simulate", "bound", "diagnose"])
def test_paths_beyond_any_address_space_exit_2_before_any_per_path_work(tmp_path, capsys, command):
    # numpy refuses an array of 2^62 rows whatever the memory: the run's arrays,
    # allocated before a seed or a generator is made, fail first
    cfg = _ar1_bound_config()
    cfg.update(paths=2**62, horizon=2)
    code = main([command, "--config", _write(tmp_path, cfg), "--out", str(tmp_path / "o")])
    assert code == EXIT_CONFIG
    assert "config error: bad paths: " in capsys.readouterr().err
    assert list((tmp_path / "o").iterdir()) == []  # bound's falsification did not run first


@pytest.mark.parametrize(
    "scenarios, horizons", [(2**62, [8, 12]), (1, [2**62]), (1, [8, 2**62])]
)
def test_entropy_scenarios_beyond_any_address_space_exit_2_before_any_horizon(
    tmp_path, capsys, scenarios, horizons
):
    # numpy refuses the largest horizon's arrays whatever the memory; they are
    # allocated before the first horizon's scenarios are drawn
    cfg = _zoom_entropy_config(scenarios=scenarios, horizons=horizons)
    code = _main_without_rollouts(["entropy", "--config", _write(tmp_path, cfg), "--out", str(tmp_path / "o")])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith(f"config error: bad entropy.scenarios: {scenarios} paths of {max(horizons)} steps ")
    assert list((tmp_path / "o").iterdir()) == []


def test_diagnose_visit_counts_the_os_refuses_exit_2(tmp_path, capsys):
    refused = MemoryError("Unable to allocate 1.22 TiB for an array")
    with mock.patch.object(cli, "VisitTally", side_effect=refused):
        code = _main_without_rollouts(["diagnose", "--config", _write(tmp_path, _ar1_config()), "--out", str(tmp_path / "o")])
    assert code == EXIT_CONFIG
    assert capsys.readouterr().err == "config error: bad paths: Unable to allocate 1.22 TiB for an array\n"
    assert list((tmp_path / "o").iterdir()) == []


@pytest.mark.parametrize("config", [_tiny_example2_bound_config, _example1_config])
def test_quantizer_target_of_the_wrong_length_exits_2(tmp_path, capsys, config):
    cfg = config()
    cfg["policy"]["target"] = [0.0, 0.0, 0.0]  # the models have two states
    code = _main_without_rollouts(["simulate", "--config", _write(tmp_path, cfg), "--out", str(tmp_path / "o")])
    assert code == EXIT_CONFIG
    assert "config error: bad policy spec: " in capsys.readouterr().err


def _shipped_config(name):
    return json.loads((REPO / "configs" / name).read_text())


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "command, name, path, value, spec",
    [
        ("diagnose", "ar1_diagnose.json", ("partition",),
         {"low": [-1e308], "high": [1e308], "cells_per_axis": [4]}, "partition"),
        ("diagnose", "ar1_diagnose.json", ("partition",),
         {"low": [0.0], "high": [5e-324], "cells_per_axis": [2]}, "partition"),
        ("simulate", "example2_bound.json", ("policy",),
         {"kind": "uniform_quantizer", "box_low": [-1e308, -1e308], "box_high": [1e308, 1e308],
          "bits_per_axis": [6, 6]}, "policy"),
        ("entropy", "doubling_zoom_entropy.json", ("entropy", "state_partition"),
         {"low": [-1e308], "high": [1e308], "cells_per_axis": [4]}, "entropy.state_partition"),
        # uniform draws take the same width rule, with one cell
        ("diagnose", "ar1_diagnose.json", ("init",),
         {"kind": "uniform", "low": [-1e308], "high": [1e308]}, "init"),
        ("diagnose", "ar1_diagnose.json", ("noise",),
         {"family": "uniform", "low": -1e308, "high": 1e308, "dim": 1}, "noise"),
    ],
)
def test_grid_without_a_finite_positive_cell_width_exits_2(
    tmp_path, capsys, command, name, path, value, spec
):
    # (high - low) / cells overflows to inf or underflows to 0
    cfg = _shipped_config(name)
    _set(cfg, path, value)
    code = _main_without_rollouts([command, "--config", _write(tmp_path, cfg), "--out", str(tmp_path / "o")])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith(f"config error: bad {spec} spec: cell widths [")
    assert err.endswith("] are not all finite and positive\n")


def _dsl_diagnose_config(model_text):
    cfg = _shipped_config("ar1_diagnose.json")
    cfg["model"] = {"dsl": model_text}
    return cfg


@pytest.mark.parametrize(
    "rhs, reason",
    [
        # Python's parser allows 200 parentheses; its message's wording follows the Python version
        ("(" * 300 + "0.5*x1" + ")" * 300 + " + w1", ""),
        # parses, but its product-rule Jacobian is deeper than Python compiles
        ("*".join(["x1"] * 800) + " + w1", "model is nested too deeply to compile"),
        ("0.5*x1 + w1" + " + 0*x1" * 3000, "expression is nested too deeply"),
        ("-" * 2000 + "x1", "expression is nested too deeply"),
    ],
    ids=["parentheses-300", "product-800", "terms-3000", "signs-2000"],
)
def test_model_nested_too_deeply_exits_2(tmp_path, capsys, rhs, reason):
    cfg = _dsl_diagnose_config(f"states 1\nnoise 1\nx1' = {rhs}")
    code = _main_without_rollouts(["diagnose", "--config", _write(tmp_path, cfg), "--out", str(tmp_path / "o")])
    assert code == EXIT_CONFIG
    assert capsys.readouterr().err.startswith(f"config error: bad model text: {reason}")


def test_model_without_states_exits_2(tmp_path, capsys):
    cfg = _dsl_diagnose_config("states 0\nnoise 1")
    cfg["init"] = {"kind": "fixed", "values": []}
    cfg["partition"] = {"low": [], "high": [], "cells_per_axis": []}
    code = _main_without_rollouts(["diagnose", "--config", _write(tmp_path, cfg), "--out", str(tmp_path / "o")])
    assert code == EXIT_CONFIG
    assert capsys.readouterr().err.startswith("config error: bad model text: 'states' must be at least 1 (line 1,")


@pytest.mark.parametrize("entry", ["nan", "inf", "1e400", "\u0661"])  # U+0661: Arabic-Indic one
def test_b_entry_that_is_not_a_finite_dsl_number_exits_2_naming_its_line(tmp_path, capsys, entry):
    cfg = _dsl_diagnose_config(f"states 1\nnoise 1\nB = [{entry}]\nx1' = 0.5*x1 + w1")
    code = _main_without_rollouts(["diagnose", "--config", _write(tmp_path, cfg), "--out", str(tmp_path / "o")])
    assert code == EXIT_CONFIG
    assert capsys.readouterr().err == (
        f"config error: bad model text: bad B matrix entry {entry!r}: need a finite number (line 3, column 1)\n"
    )


def test_boolean_false_turns_common_random_numbers_off(tmp_path):
    cfg = _ar1_bound_config()
    cfg["bound"]["common_random_numbers"] = False
    with mock.patch.object(cli, "refined_bound", wraps=cli.refined_bound) as bound:
        code = main(["bound", "--config", _write(tmp_path, cfg), "--out", str(tmp_path / "o")])
    assert code == EXIT_OK
    assert bound.call_args.kwargs["common_random_numbers"] is False


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


def test_entropy_matrix_dump(tmp_path):
    cfg = json.loads((REPO / "configs" / "doubling_zoom_entropy.json").read_text())
    cfg["entropy"]["dump_matrix"] = True
    cfg["entropy"]["horizons"] = [4]
    out = tmp_path / "out"
    assert main(["entropy", "--config", _write(tmp_path, cfg), "--out", str(out)]) == EXIT_OK
    assert (out / "satisfaction_T4.csv").exists()


def test_entropy_matrix_dumps_match_savetxt(tmp_path):
    matrices = {
        4: np.zeros((0, 6), bool),  # no candidate: an empty file
        6: np.random.default_rng(3).random((5, 6)) < 0.5,
        8: np.ones((1, 1), bool),
    }

    def entropy_rate(*args, matrix_sink, **kwargs):
        matrix_sink.update(matrices)
        return [EntropyPoint(T, 1, 0.0, 1.0, 1, 1.0) for T in matrices]

    out, oracle = tmp_path / "out", tmp_path / "oracle.csv"
    config = _write(tmp_path, _zoom_entropy_config(dump_matrix=True))
    with mock.patch.object(cli, "entropy_rate", side_effect=entropy_rate):
        assert main(["entropy", "--config", config, "--out", str(out)]) == EXIT_OK
    for horizon, matrix in matrices.items():
        np.savetxt(oracle, matrix.astype(int), fmt="%d", delimiter=",")
        assert (out / f"satisfaction_T{horizon}.csv").read_bytes() == oracle.read_bytes()
    assert (out / "satisfaction_T4.csv").read_bytes() == b""


# SHA-256 of every `entropy` output file, taken with NumPy 2.4.6 on Linux
# x86-64 from the code that still split the state grid into D x E cell
# families, where split 1 and split 2 gave the same bytes. The same caveat
# about NumPy's noise stream applies as for the `simulate` digests above.
_ZOOM_ENTROPY_GOLDEN_SHA256 = {
    "entropy_curve.csv": "8d192e75667b679968a36803bcde2d42dceab7484af00dd2fc62005070e4f9aa",
    "entropy_summary.json": "4c835dd8b3228bfed57c7b1fd1c1cb1600859104b6c2833fd9385e0a219e1faa",
    "satisfaction_T4.csv": "6fbd6bb4f76c702b5d6072612340887cba4de1a3b74d67752ab42ee418f32848",
    "satisfaction_T6.csv": "614ecfcc593b5cc6f568fc476088897375f5cd7bbf8cd7be755ac3166d3e66be",
    "satisfaction_T8.csv": "2bc7dd73c6b6d0fdf42c56ff59d572dad06fa9f69eb490bd37765bff6fb7d9ab",
}
_EXAMPLE1_ENTROPY_GOLDEN_SHA256 = {
    "entropy_curve.csv": "26444c03fc3ea69d6dd6c0e0c4b5b43b0e112e05d88979a0410d255beb550b33",
    "entropy_summary.json": "b51ca616ade87951f95b9e67e7043d5ec5b42f11ddc07b9187f8c1e2b3447aaa",
    "satisfaction_T10.csv": "668cd510568057d788195ab5cc48df15481fca0a12f10c2a3c0fdd113408fb61",
    "satisfaction_T12.csv": "fbf5e028356eb5f263eb917189e1f8bda2dcf96272a9b8f18846a50bdf87cc48",
}


def _zoom_entropy_config(**entropy):
    cfg = json.loads((REPO / "configs" / "doubling_zoom_entropy.json").read_text())
    cfg["entropy"].update(entropy)
    return cfg


def test_entropy_zoom_outputs_match_golden_digests(tmp_path):
    out = tmp_path / "out"
    config = _write(tmp_path, _zoom_entropy_config(dump_matrix=True))
    assert main(["entropy", "--config", config, "--seed", "0", "--out", str(out)]) == EXIT_OK
    assert _digests(out) == _ZOOM_ENTROPY_GOLDEN_SHA256


def test_entropy_2d_noise_grid_outputs_match_golden_digests_at_every_split(tmp_path):
    # infeasible at T = 10 and spanned by 2 candidates at T = 12; without the
    # noise grid T = 10 is feasible too, so the noise cells are exercised
    cfg = _example1_config()
    for key in ("partition", "gamma", "bound"):
        del cfg[key]
    cfg["entropy"] = {
        "horizons": [10, 12],
        "scenarios": 16,
        "rho": 0.9,
        "epsilon": 0.1,
        "state_partition": {"low": [-1.0, -1.0], "high": [1.0, 1.0], "cells_per_axis": [2, 2]},
        "noise_partition": {"low": [-0.1, -0.1], "high": [0.1, 0.1], "cells_per_axis": [2, 1]},
        "dump_matrix": True,
    }
    for split in (1, 2):
        cfg["entropy"]["split"] = split
        out = tmp_path / f"split{split}"
        config = _write(tmp_path, cfg, f"split{split}.json")
        assert main(["entropy", "--config", config, "--seed", "0", "--out", str(out)]) == EXIT_OK
        assert _digests(out) == _EXAMPLE1_ENTROPY_GOLDEN_SHA256


@pytest.mark.parametrize(
    "noise_partition", [None, {"low": [], "high": [], "cells_per_axis": []}], ids=["whole", "empty-grid"]
)
def test_entropy_on_a_noise_free_model(tmp_path, noise_partition):
    cfg = _zoom_entropy_config(horizons=[4, 6])
    cfg["model"] = {"dsl": "states 1\nnoise 0\nx1' = 2*x1"}
    cfg["noise"] = {"family": "gaussian", "dim": 0}
    if noise_partition is not None:
        cfg["entropy"]["noise_partition"] = noise_partition
    out = tmp_path / "out"
    assert main(["entropy", "--config", _write(tmp_path, cfg), "--out", str(out)]) == EXIT_OK
    assert (out / "entropy_curve.csv").read_text() == (
        "T,s_estimate,rate,capacity\n4,1,0,2\n6,2,0.16666666666666666,2\n"
    )


def test_entropy_epsilon_too_large_is_config_error(tmp_path, capsys):
    config = _write(tmp_path, _zoom_entropy_config(epsilon=0.9, horizons=[4]))
    assert main(["entropy", "--config", config, "--out", str(tmp_path / "o")]) == EXIT_CONFIG
    assert "epsilon=0.9 too large" in capsys.readouterr().err


@pytest.mark.parametrize(
    "setting",
    [
        {"thresholds": "lemmas"},
        {"scenarios": 0},
        {"horizons": [4, 0]},
        {"horizons": []},
        {"horizons": [4, 4]},
        {"split": 2},
    ],
)
def test_entropy_bad_setting_is_config_error_before_any_simulation(tmp_path, capsys, setting):
    config = _write(tmp_path, _zoom_entropy_config(**setting))
    with mock.patch.object(stabilization_entropy, "run_closed_loops", side_effect=AssertionError):
        assert main(["entropy", "--config", config, "--out", str(tmp_path / "o")]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "config error" in err
    if "thresholds" in setting:  # the thresholds always come from the cell masses: no key sets them
        assert "unknown key(s) 'thresholds' in entropy" in err
    if setting.get("horizons") == [4, 4]:  # one point twice would be written twice
        assert "entropy.horizons must be distinct" in err


def test_entropy_noise_partition_dim_must_match_noise_dim(tmp_path, capsys):
    noise_partition = {"low": [-0.1, -0.1], "high": [0.1, 0.1], "cells_per_axis": [2, 2]}
    config = _write(tmp_path, _zoom_entropy_config(noise_partition=noise_partition))
    assert main(["entropy", "--config", config, "--out", str(tmp_path / "o")]) == EXIT_CONFIG
    assert "noise_partition has dim 2, expected 1" in capsys.readouterr().err


def test_entropy_every_scenario_diverged_exits_3(tmp_path, capsys):
    cfg = _zoom_entropy_config(horizons=[4])
    cfg["init"] = {"kind": "fixed", "values": [1e13]}  # beyond the divergence threshold
    assert main(["entropy", "--config", _write(tmp_path, cfg), "--out", str(tmp_path / "o")]) == EXIT_VIOLATION
    err = capsys.readouterr().err
    assert "assumption violation" in err and "T=4" in err


def _null_doubling_bound_config():
    # every path leaves the divergence threshold before the burn-in ends
    cfg = _ar1_config(horizon=600, paths=2, gamma=[{"p": [1], "c_p": 1.0}])
    cfg["model"] = {"catalog": "scalar_doubling"}
    cfg["policy"] = {"kind": "null", "m": 3}
    cfg["partition"] = {"low": [-1.0], "high": [1.0], "cells_per_axis": [4]}
    return cfg


@pytest.mark.parametrize("command", ["bound", "diagnose"])
def test_no_post_burn_in_sample_exits_3(tmp_path, capsys, command):
    config = _write(tmp_path, _null_doubling_bound_config())
    assert main([command, "--config", config, "--out", str(tmp_path / "o")]) == EXIT_VIOLATION
    assert capsys.readouterr().err == (
        "assumption violation: no post-burn-in samples available (all paths truncated early?)\n"
    )


def test_bound_falsified_floor_is_reported_with_no_post_burn_in_sample(tmp_path, capsys):
    # from x1 = 10 every path passes 1e12 within three steps; |det| = |3 x1^2 - 1| < 0.9 near x1 = ±0.58
    cfg = _ar1_config(
        model={"dsl": "states 1\nnoise 1\nx1' = x1^3 - x1 + w1"},
        init={"kind": "fixed", "values": [10.0]},
        gamma=[{"p": [1], "c_p": 0.9}],
        falsify={"samples": 20_000},
    )
    out = tmp_path / "o"
    assert main(["bound", "--config", _write(tmp_path, cfg), "--out", str(out)]) == EXIT_VIOLATION
    [floor, no_sample] = capsys.readouterr().err.splitlines()
    assert floor.startswith("assumption violation: floor c_p=0.9 for p=(1,) falsified: |det|=")
    assert no_sample == (
        "assumption violation: no post-burn-in samples available (all paths truncated early?)"
    )
    assert sorted(p.name for p in out.iterdir()) == ["bound_report.json", "falsification.json"]
    [subset] = json.loads((out / "falsification.json").read_text())["subsets"]
    assert subset["falsified"] is True
    message = "no post-burn-in samples available (all paths truncated early?)"
    assert json.loads((out / "bound_report.json").read_text()) == {"error": message}


@pytest.mark.parametrize(
    "command, report", [("bound", "bound_report.json"), ("diagnose", "diagnose_summary.json")]
)
def test_no_post_burn_in_sample_leaves_an_error_report(tmp_path, capsys, command, report):
    # from x1 = 10 both paths pass 1e12 within three steps, long before the burn-in of 10
    cfg = json.loads((REPO / "configs" / "ar1_diagnose.json").read_text())
    cfg.update(
        model={"dsl": "states 1\nnoise 1\nx1' = x1^3 - x1 + w1"},
        init={"kind": "fixed", "values": [10.0]},
        paths=2,
        horizon=100,
        gamma=[{"p": [1], "c_p": 0.5}],
    )
    out = tmp_path / "o"
    assert main([command, "--config", _write(tmp_path, cfg), "--out", str(out)]) == EXIT_VIOLATION
    message = "no post-burn-in samples available (all paths truncated early?)"
    assert capsys.readouterr().err == f"assumption violation: {message}\n"
    assert sorted(p.name for p in out.iterdir()) == [report]
    assert json.loads((out / report).read_text()) == {"error": message}


def test_bound_falsified_floor_is_reported_before_the_overflow_refusal(tmp_path, capsys):
    cfg = json.loads((REPO / "configs" / "example2_bound.json").read_text())
    cfg.update(
        gamma=[{"p": [1], "c_p": 0.9}, {"p": [2], "c_p": 0.9}],
        partition={"low": [-0.01, -0.01], "high": [0.01, 0.01], "cells_per_axis": [8, 8]},
    )
    cfg["bound"]["n_mc"] = cfg["falsify"]["samples"] = 2000
    out = tmp_path / "o"
    args = ["--config", _write(tmp_path, cfg), "--out", str(out), "--horizon", "400", "--paths", "2"]
    assert main(["bound", *args]) == EXIT_VIOLATION
    [floor, overflow] = capsys.readouterr().err.splitlines()
    assert floor.startswith("assumption violation: floor c_p=0.9 for p=(2,) falsified: |det|=0.5 at x=")
    message = "overflow mass 0.975 is too large to trust the estimate"
    assert overflow == f"assumption violation: {message}"
    subsets = json.loads((out / "falsification.json").read_text())["subsets"]
    assert [s["falsified"] for s in subsets] == [False, True]
    assert json.loads((out / "bound_report.json").read_text()) == {"error": message}


def test_bound_overflow_mass_too_large_exits_3_with_an_error_report(tmp_path, capsys):
    cfg = json.loads((REPO / "configs" / "example2_bound.json").read_text())
    cfg.update(horizon=400, paths=4, partition={"low": [-0.1, -0.1], "high": [0.1, 0.1], "cells_per_axis": [8, 8]})
    del cfg["falsify"]
    out = tmp_path / "o"
    assert main(["bound", "--config", _write(tmp_path, cfg), "--out", str(out)]) == EXIT_VIOLATION
    message = "overflow mass 0.601 is too large to trust the estimate"
    assert capsys.readouterr().err == f"assumption violation: {message}\n"
    assert json.loads((out / "bound_report.json").read_text()) == {"error": message}


def _huge_partition_example2_config(gamma=None):
    # states drawn from cells of width 1e300 overflow example2's Jacobian
    cfg = json.loads((REPO / "configs" / "example2_bound.json").read_text())
    cfg["partition"] = {"low": [-1e300, -1e300], "high": [1e300, 1e300], "cells_per_axis": [2, 2]}
    del cfg["falsify"]
    if gamma is not None:
        cfg["gamma"] = gamma
    return cfg


def _bound_short(tmp_path, cfg):
    out = tmp_path / "o"
    args = ["--config", _write(tmp_path, cfg), "--out", str(out), "--paths", "2", "--horizon", "200"]
    return main(["bound", *args]), json.loads((out / "bound_report.json").read_text())


def test_bound_non_finite_jacobian_is_a_subset_error_and_exits_3(tmp_path, capsys):
    code, report = _bound_short(tmp_path, _huge_partition_example2_config())
    assert code == EXIT_VIOLATION
    errors = {tuple(s["p"]): s["error"] for s in report["subsets"]}
    assert errors[(2,)] is None and report["argmax"] == [2]
    assert report["classical_bound"] is None  # the full state's Jacobian is not finite
    err = capsys.readouterr().err.splitlines()
    for p in [(1,), (1, 2)]:
        assert errors[p].startswith(f"non-finite subset Jacobian for p={p} at x=")
        assert f"assumption violation: subset p={p}: {errors[p]}" in err


def test_bound_every_subset_non_finite_exits_3_with_an_error_report(tmp_path, capsys):
    gamma = [{"p": [1], "c_p": 0.9}, {"p": [1, 2], "c_p": 0.4}]
    code, report = _bound_short(tmp_path, _huge_partition_example2_config(gamma))
    assert code == EXIT_VIOLATION
    assert list(report) == ["error"]
    assert report["error"].startswith("every declared subset failed: non-finite subset Jacobian")
    assert capsys.readouterr().err.endswith(f"assumption violation: {report['error']}\n")


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


@pytest.mark.parametrize(
    "low, high, warning",
    [
        (-1.0, 1.0, "overflow mass 0.3"),
        (10.0, 11.0, "all samples fell in the overflow cell; partition box is too small"),
    ],
)
def test_diagnose_summary_lists_the_measure_warnings(tmp_path, low, high, warning):
    cfg = _ar1_config(partition={"low": [low], "high": [high], "cells_per_axis": [4]})
    out = tmp_path / "out"
    assert main(["diagnose", "--config", _write(tmp_path, cfg), "--out", str(out)]) == EXIT_OK
    (text,) = json.loads((out / "diagnose_summary.json").read_text())["warnings"]
    assert text.startswith(warning)


def test_bound_logs_the_measure_warning_under_verbose(tmp_path, capsys):
    cfg = _shipped_config("example2_bound.json")
    cfg.update(horizon=400, paths=4, partition={"low": [-0.1, -0.1], "high": [0.1, 0.1], "cells_per_axis": [8, 8]})
    del cfg["falsify"]
    args = ["bound", "--config", _write(tmp_path, cfg), "--out", str(tmp_path / "o"), "--verbose"]
    assert main(args) == EXIT_VIOLATION
    assert (
        "warning: overflow mass 0.601 exceeds 1%; bound estimates over this measure are untrustworthy\n"
        in capsys.readouterr().err
    )


def test_diagnose_convergence_follows_the_first_path_with_a_step(tmp_path):
    cfg = _ar1_config(horizon=50, paths=4, partition={"low": [-1.0], "high": [1.0], "cells_per_axis": [4]})
    cfg["model"] = {"dsl": "states 1\nnoise 1\nx1' = x1^1000 + 0*w1"}
    cfg["noise"] = {"family": "uniform", "low": -0.01, "high": 0.01, "dim": 1}
    cfg["init"] = {"kind": "uniform", "low": [-3.0], "high": [3.0]}
    out = tmp_path / "out"
    args = ["diagnose", "--config", _write(tmp_path, cfg), "--seed", "4", "--out", str(out)]
    assert main(args) == EXIT_OK
    # path 0 overflows at its first step; others survive all 50
    divergence = json.loads((out / "diagnose_summary.json").read_text())["divergence"]
    assert 0 in divergence["first_divergence_steps"] and divergence["diverged"] < 4
    rows = (out / "convergence.csv").read_text().strip().splitlines()
    assert [row.split(",")[0] for row in rows] == ["T", "10", "50"]


def _dispersion_oracle(path, partition, dispersion):
    with open(path, "w") as fh:
        fh.write("cell,dispersion\n")
        for i, value in enumerate(dispersion):
            name = "overflow" if i == partition.overflow_index else str(i)
            fh.write(f"{name},{value:.17g}\n")


def _convergence_oracle(path, partition, checkpoints, curves):
    with open(path, "w") as fh:
        cells = ["overflow" if i == partition.overflow_index else f"cell{i}" for i in range(partition.n_cells)]
        fh.write("T," + ",".join(cells) + "\n")
        for row, checkpoint in enumerate(checkpoints):
            fh.write(f"{checkpoint}," + ",".join(format(v, ".17g") for v in curves[row]) + "\n")


_EDGE_VALUES = np.array([np.inf, -np.inf, np.nan, -0.0, 5e-324, -2.5e-310, 0.1, 1e300, 0.0])


def test_diagnose_csvs_match_their_oracles_on_edge_values(tmp_path):
    seen = {}

    def dispersion(tally):
        seen["partition"] = tally.partition
        return _EDGE_VALUES

    def convergence(tally, checkpoints):
        seen["checkpoints"] = checkpoints
        seen["curves"] = np.array([np.roll(_EDGE_VALUES, k) for k in range(len(checkpoints))])
        return seen["curves"]

    cfg = _ar1_config(diagnose={"checkpoints": [10, 100, 400]})  # 8 cells and overflow
    out, oracle = tmp_path / "out", tmp_path / "oracle.csv"
    with mock.patch.object(cli, "ergodicity_dispersion", side_effect=dispersion), \
            mock.patch.object(cli, "frequency_convergence", side_effect=convergence):
        assert main(["diagnose", "--config", _write(tmp_path, cfg), "--out", str(out)]) == EXIT_OK
    _dispersion_oracle(oracle, seen["partition"], _EDGE_VALUES)
    assert (out / "dispersion.csv").read_bytes() == oracle.read_bytes()
    _convergence_oracle(oracle, seen["partition"], seen["checkpoints"], seen["curves"])
    assert (out / "convergence.csv").read_bytes() == oracle.read_bytes()
    assert seen["checkpoints"] == [10, 100, 400]


# SHA-256 of every `diagnose` output file for configs/ar1_diagnose.json at
# seed 0, 4 paths, horizon 2,000, taken with NumPy 2.4.6 on Linux x86-64 from
# the code that wrote measure.csv with csv.writer and dispersion.csv and
# convergence.csv with f-strings. The same caveat about NumPy's noise stream
# applies as for the `simulate` digests above.
_AR1_DIAGNOSE_GOLDEN_SHA256 = {
    "convergence.csv": "91553a7707ea7e5005a67e216d0c8dbfb652e376085bf760bdaff2ea0f73fd06",
    "diagnose_summary.json": "b14ae22fe5cab3cf6edd0a7cc285fc9a6ebc8be043948994bda133d9ad8ad54d",
    "dispersion.csv": "5655feed58f7ed024fa52aece78d9f2a43d8e67a428e2c0498f263b7d76805b3",
    "measure.csv": "c4b447193ea429f82779644fbe6931b20282059c6b7d36580f2197e114c9ecc8",
}


def test_diagnose_outputs_match_golden_digests(tmp_path):
    cfg = str(REPO / "configs" / "ar1_diagnose.json")
    out = tmp_path / "out"
    args = ["diagnose", "--config", cfg, "--seed", "0", "--paths", "4", "--horizon", "2000", "--out", str(out)]
    assert main(args) == EXIT_OK
    assert _digests(out) == _AR1_DIAGNOSE_GOLDEN_SHA256


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

def _tiny_mc_bound_config():
    # the mc-bound workload's own config, with two Monte Carlo blocks
    cfg = json.loads((REPO / "perfbench" / "configs" / "mc_bound.json").read_text())
    cfg.update(horizon=400)
    cfg["bound"]["n_mc"] = JACOBIAN_BLOCK + 1
    cfg["falsify"]["samples"] = 5000
    return cfg


def test_benchmark_tracer_runs_simulate(tmp_path):
    # perfbench/tracing.py wraps functions by name where the CLI and the
    # entropy module look them up; a renamed or removed one breaks it before
    # any benchmark run does, and so does a trace its parent side
    # (tracing.layer_metrics) cannot turn into every per-layer metric
    spec = importlib.util.spec_from_file_location("tracing", REPO / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    wanted = {m["name"] for m in json.loads((REPO / "BENCHMARK.json").read_text())["per_layer"]}
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    runs = [
        ("simulate", _ar1_config(horizon=50, paths=2), {"simulation.batch_rollout"}),
        (
            "entropy",
            _zoom_entropy_config(horizons=[4], scenarios=8),
            {"stabilization_entropy.satisfaction_matrix", "stabilization_entropy.build_R_epsilon"},
        ),
        ("bound", _tiny_example2_bound_config(), {"capacity_bounds.refined_bound"}),
        ("bound", _tiny_mc_bound_config(), {"capacity_bounds.refined_bound"}),
        (
            "diagnose",
            _ar1_config(),
            {"ergodics.empirical_measure", "ergodics.ergodicity_dispersion", "ergodics.frequency_convergence"},
        ),
    ]
    for k, (command, cfg, spans) in enumerate(runs):
        trace = tmp_path / f"{k}_trace.json"
        config = _write(tmp_path, cfg, f"{k}.json")
        result = subprocess.run(
            [sys.executable, str(REPO / "perfbench" / "tracing.py"), str(trace),
             command, "--config", config, "--out", str(tmp_path / str(k))],
            capture_output=True,
            text=True,
            env=env,
        )
        assert result.returncode == EXIT_OK, result.stderr
        record = json.loads(trace.read_text())
        assert record["failures"] == []
        assert spans <= {span[0] for span in record["spans"]}
        metrics = tracing.layer_metrics(record, record["spans"][0][1], record["probe"][1])
        assert wanted - set(metrics) == {"trace.overhead_s"}  # run.py adds it from an untraced run
        assert all(math.isfinite(v) for v in metrics.values())
        # the probe draws n_mc samples (100,000 with no bound section) from the
        # measure bound and diagnose record
        n_mc = cfg.get("bound", {}).get("n_mc", 100_000 if command == "diagnose" else 0)
        assert record["counters"].get("dynamics.jacobian_samples", 0) == n_mc


# --------------------------------------------------------------------------
# Memory: bound and diagnose fold the rollout block by block

@pytest.mark.parametrize("command", ["bound", "diagnose"])
def test_bound_and_diagnose_peak_memory_does_not_grow_with_the_horizon(tmp_path, command):
    # 4 paths in blocks of 50 steps; 4 x 6,000 more steps would hold ~750 KB
    # of trajectories, the blocks hold 4 x 50 x (x, w, q, u) x 8 B = 6.4 KB
    cfg = _ar1_config(paths=4, gamma=[{"p": [1], "c_p": 0.4}], bound={"n_mc": 500})
    config = _write(tmp_path, cfg)
    block_bytes = 4 * 50 * 4 * 8

    def peak(horizon):
        exp = load_experiment(config, {"horizon": horizon})
        gc.collect()
        tracemalloc.start()
        try:
            assert cli._COMMANDS[command](exp, tmp_path / str(horizon), False) == []
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    for horizon in (2000, 8000):
        (tmp_path / str(horizon)).mkdir()
    with mock.patch.object(dynamics, "JACOBIAN_BLOCK", 200):
        peak(2000)  # the first run imports and caches what later runs reuse
        short, long = peak(2000), peak(8000)
    assert long - short <= block_bytes, (short, long)
