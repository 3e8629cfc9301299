"""Self-test of the benchmark; exits 0 when every check holds.

    python3 perfbench/selftest.py

1. Runs every workload at its tiny size, untraced and traced, and requires a
   correct result that names every metric of BENCHMARK.json with its unit.
2. Corrupts one output of each subcommand and requires the output check, the
   rerun identity check and the reference comparison to catch it.
3. Requires map.json to place every per-module metric.
4. Requires run.py to fail, printing no result, in a directory that holds
   only BENCHMARK.json and this directory.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import checks
import run

HERE = run.HERE
ROOT = run.ROOT
PROBLEMS: list[str] = []


def expect(condition: bool, what: str) -> None:
    print(("ok   " if condition else "FAIL ") + what)
    if not condition:
        PROBLEMS.append(what)


def bench(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(HERE / "run.py"), *args],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )


def test_tiny_runs(spec: dict) -> None:
    for name in run.WORKLOADS:
        for trace, section in (("0", "end_to_end"), ("1", "per_layer")):
            proc = bench("--workload", name, "--seed", "0", "--seconds", "1", "--trace", trace, "--tiny")
            try:
                result = json.loads(proc.stdout.strip().splitlines()[-1])
            except (IndexError, ValueError):
                result = {}
            printed = {k: v["unit"] for k, v in result.get("metrics", {}).items()}
            wanted = {m["name"]: m["unit"] for m in spec[section]}
            expect(
                proc.returncode == 0 and result.get("correct") and result.get("failed") == 0,
                f"{name} --trace {trace}: exit 0, correct, nothing failed",
            )
            expect(printed == wanted, f"{name} --trace {trace}: every {section} metric with its unit")


def _corrupt_bound(out: Path) -> None:
    path = out / "bound_report.json"
    report = json.loads(path.read_text())
    report["subsets"][1]["mean"] = -0.999
    path.write_text(json.dumps(report))


def _corrupt_simulate(out: Path) -> None:
    path = sorted(out.glob("trajectory_*.csv"))[0]
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(lines[:-1]))


def _corrupt_entropy(out: Path) -> None:
    path = out / "entropy_summary.json"
    summary = json.loads(path.read_text())
    point = summary["points"][-1]
    point["s_estimate"] = point["n_candidates"] + 1
    path.write_text(json.dumps(summary))


CORRUPT = {"bound-uq": _corrupt_bound, "simulate-zoom": _corrupt_simulate, "entropy-span": _corrupt_entropy}


def test_corruption(tmp: Path) -> None:
    env = run.child_env()
    for name, corrupt in CORRUPT.items():
        workload = run.WORKLOADS[name]
        config = run.effective_config(workload, tiny=True)
        config_path = tmp / f"{name}.json"
        config_path.write_text(json.dumps(config))
        out = tmp / name
        argv = [sys.executable, "-m", "quantstab.cli", workload.command,
                "--config", str(config_path), "--out", str(out)]
        child = run.run_child(argv, tmp / f"{name}.log", env)
        expect(child.code == 0, f"{name}: tiny CLI run exits 0")
        expect(not checks.check_outputs(workload.command, out, config), f"{name}: clean output passes")
        digest = checks.tree_digest(out)
        results = checks.key_results(workload.command, out)
        reference = {key: [value, 1e-6] for key, value in results.items()}
        expect(not checks.compare_reference(results, reference), f"{name}: own results match")
        corrupt(out)
        expect(bool(checks.check_outputs(workload.command, out, config)), f"{name}: corrupted output caught")
        expect(checks.tree_digest(out) != digest, f"{name}: corrupted tree differs from the rerun")
        shifted = {key: value + 0.1 for key, value in results.items()}
        expect(bool(checks.compare_reference(shifted, reference)), f"{name}: shifted results caught")


def test_map(spec: dict) -> None:
    placed = set(json.loads((HERE / "map.json").read_text())["per_layer"])
    unplaced = [
        m["name"] for m in spec["per_layer"]
        if m["name"] not in placed and not m["name"].endswith(".self_s")
    ]
    expect(not unplaced, f"map.json places every per-module metric {unplaced or ''}")


def test_bare_directory(tmp: Path) -> None:
    bare = tmp / "bare"
    shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "bound-uq", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=170,
    )
    expect(proc.returncode != 0 and not proc.stdout.strip(), "bare directory: nonzero exit, no result")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    runs_dir = ROOT / ".perfbench_runs"
    runs_dir.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=runs_dir))
    try:
        test_tiny_runs(spec)
        test_corruption(tmp)
        test_map(spec)
        test_bare_directory(tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        if not any(runs_dir.iterdir()):
            runs_dir.rmdir()
    print(f"{len(PROBLEMS)} problem(s)")
    return 1 if PROBLEMS else 0


if __name__ == "__main__":
    sys.exit(main())
