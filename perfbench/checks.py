"""Checks on the output tree of one quantstab CLI run.

``check_outputs`` tests invariants that hold for every seed; ``key_results``
extracts the numbers that ``compare_reference`` holds against
``reference.json`` for the seed it names. The tolerances there are wide
enough to survive a last-bit change of the closed-loop trajectories (which
decorrelates chaotic paths but keeps their statistics) and narrow enough to
catch a wrong answer.

Print the key results of an output tree, to refresh ``reference.json``:

    python3 perfbench/checks.py bound runs/out
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import sys
from pathlib import Path

# Example2's second coordinate obeys x2' = 0.5 x2 + w1, so log2 |det| of its
# subset Jacobian is exactly -1 at every sample.
STABLE_SUBSET = [2]
STABLE_SUBSET_VALUE = -1.0


def tree_digest(out: Path) -> str:
    """SHA-256 over the relative paths and bytes of every file under ``out``."""
    digest = hashlib.sha256()
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        digest.update(str(path.relative_to(out)).encode() + b"\0")
        digest.update(path.read_bytes())
        digest.update(b"\0")
    return digest.hexdigest()


def _load_json(path: Path, failures: list[str]):
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        failures.append(f"{path.name}: {exc}")
        return None


def _check_bound(out: Path, config: dict) -> list[str]:
    failures: list[str] = []
    report = _load_json(out / "bound_report.json", failures)
    if report is None:
        return failures
    n_mc = config["bound"]["n_mc"]
    by_p = {tuple(s["p"]): s for s in report["subsets"]}
    for s in report["subsets"]:
        if s["error"] is not None or s["n_samples"] != n_mc:
            failures.append(f"subset {s['p']}: error {s['error']!r}, {s['n_samples']} samples")
    stable = by_p.get(tuple(STABLE_SUBSET))
    if stable is None or stable["mean"] != STABLE_SUBSET_VALUE:
        failures.append(f"subset p={STABLE_SUBSET} is not exactly {STABLE_SUBSET_VALUE}")
    if report["violation"] or not report["max_bound"] <= report["capacity"]:
        failures.append(f"max_bound {report['max_bound']} vs capacity {report['capacity']}")
    best = max(s["mean"] for s in report["subsets"] if s["mean"] is not None)
    if report["max_bound"] != best:
        failures.append(f"max_bound {report['max_bound']} is not the largest subset mean {best}")
    # With common random numbers det J = 0.5 * J11 sample by sample, so the
    # full-state mean is the p=[1] mean minus one bit up to rounding.
    full, first = by_p.get((1, 2)), by_p.get((1,))
    if full and first and abs(full["mean"] - (first["mean"] - 1.0)) > 1e-9:
        failures.append(f"full-state mean {full['mean']} != p=[1] mean - 1")
    if "falsify" in config:
        falsification = _load_json(out / "falsification.json", failures)
        for s in falsification["subsets"] if falsification else []:
            if s["falsified"] or s["n_samples"] != config["falsify"]["samples"]:
                failures.append(f"floor for p={s['p']} falsified or sampled early-exit")
    return failures


def _check_simulate(out: Path, config: dict) -> list[str]:
    failures: list[str] = []
    summary = _load_json(out / "simulate_summary.json", failures)
    if summary is None:
        return failures
    if summary["paths"] != config["paths"] or summary["divergence_rate"] != 0:
        failures.append(f"{summary['paths']} paths, divergence rate {summary['divergence_rate']}")
    files = sorted(out.glob("trajectory_*.csv"))
    if len(files) != config["paths"]:
        failures.append(f"{len(files)} trajectory files for {config['paths']} paths")
    for path in files:
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        if len(rows) - 1 != config["horizon"] or rows[-1][0] != str(config["horizon"] - 1):
            failures.append(f"{path.name}: {len(rows) - 1} rows for {config['horizon']} steps")
    return failures


def _check_entropy(out: Path, config: dict) -> list[str]:
    failures: list[str] = []
    summary = _load_json(out / "entropy_summary.json", failures)
    if summary is None:
        return failures
    section = config["entropy"]
    capacity = math.log2(config["policy"]["m"])
    if [p["T"] for p in summary["points"]] != section["horizons"] or not summary["all_feasible"]:
        failures.append("horizons differ from the config or a point is infeasible")
    for p in summary["points"]:
        s, rate, T = p["s_estimate"], p["rate"], p["T"]
        if p["capacity"] != capacity or not rate <= capacity:
            failures.append(f"T={T}: rate {rate} vs capacity {p['capacity']}")
        if not 1 <= s <= p["n_candidates"] <= min(section["scenarios"], config["policy"]["m"] ** T):
            failures.append(f"T={T}: s_estimate {s}, {p['n_candidates']} candidates")
        if abs(rate - math.log2(s) / T) > 1e-12:
            failures.append(f"T={T}: rate {rate} != log2({s})/{T}")
        if p["covered_fraction"] < 1.0 - section["rho"] - 1e-12:
            failures.append(f"T={T}: covered fraction {p['covered_fraction']} below 1 - rho")
    with open(out / "entropy_curve.csv", newline="") as fh:
        if len(list(csv.reader(fh))) != len(summary["points"]) + 1:
            failures.append("entropy_curve.csv rows differ from the summary points")
    return failures


_CHECKS = {"bound": _check_bound, "simulate": _check_simulate, "entropy": _check_entropy}


def check_outputs(command: str, out: Path, config: dict) -> list[str]:
    """Seed-independent invariants of one run's output tree; empty when it passes."""
    try:
        return _CHECKS[command](out, config)
    except (OSError, KeyError, IndexError, TypeError, ValueError) as exc:
        return [f"unreadable output: {exc!r}"]


def key_results(command: str, out: Path) -> dict[str, float]:
    """The numbers a reference comparison looks at."""
    if command == "bound":
        report = json.loads((out / "bound_report.json").read_text())
        falsification = json.loads((out / "falsification.json").read_text())
        return {
            "max_bound": report["max_bound"],
            "classical_bound": report["classical_bound"],
            "min_abs_det_p1": falsification["subsets"][0]["min_abs_det"],
        }
    if command == "simulate":
        sums: dict[str, float] = {}
        rows = 0
        for path in sorted(out.glob("trajectory_*.csv")):
            with open(path, newline="") as fh:
                reader = csv.DictReader(fh)
                for row in reader:
                    rows += 1
                    for key in ("x1", "u1"):
                        sums[key] = sums.get(key, 0.0) + float(row[key]) ** 2
        return {f"rms_{key}": math.sqrt(total / rows) for key, total in sums.items()}
    summary = json.loads((out / "entropy_summary.json").read_text())
    results = {}
    for p in summary["points"]:
        results[f"rate_T{p['T']}"] = p["rate"]
        results[f"candidates_T{p['T']}"] = p["n_candidates"]
    return results


def compare_reference(results: dict, reference: dict) -> list[str]:
    """Compare with ``{key: [value, abs_tolerance]}``; empty when every key agrees."""
    failures = []
    for key, (value, tolerance) in reference.items():
        got = results.get(key)
        if got is None or not abs(got - value) <= tolerance:
            failures.append(f"{key} = {got}, reference {value} +- {tolerance}")
    return failures


if __name__ == "__main__":
    print(json.dumps(key_results(sys.argv[1], Path(sys.argv[2])), indent=2))
