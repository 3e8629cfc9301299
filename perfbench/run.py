"""End-to-end benchmark of the quantstab CLI, with an optional traced run.

Run from the root of a checkout:

    python3 perfbench/run.py --workload bound-uq --seed 0 --seconds 30 --trace 0

A closed loop with one client: one process, one thread, and each CLI run
(a fresh interpreter) starts only after the previous one has exited, for
``--seconds`` seconds. Every run's output tree is checked (expected exit
code, seed-independent invariants, byte-identical to the run's first output
tree and, for the seed reference.json names, reference values) and a run
that fails a check counts in ``failed``. ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` alternates untraced runs with runs under
``tracing.py`` and reports the per-module metrics, each the median over the
traced runs.

A shared host's speed drifts, by a third or more for minutes at a time, as
other tenants load it. So that runs made at different times compare,
``wall_s`` is reported at a fixed reference speed: the median of the raw wall
times, times ``CAL_REF_S`` over the median of the speed probes taken before
every CLI run and set-up probe. A probe is the mean time of a fixed pure-Python
loop run a few times on each CPU the benchmark may use. ``setup_s`` is the
raw median: interpreter start-up and imports do not follow the probe. The raw
samples and the probes are on the line before the result.

Metric names and units come from BENCHMARK.json; ``map.json`` says which
end-to-end metric and workload each per-module metric should move.

The last stdout line is the result object; the line before it records the
machine, the versions and the samples behind each median. Run outputs go to
``.perfbench_runs/`` in the checkout and are deleted after their check.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import checks
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_PROBES = 7  # at least; one follows each untraced CLI run
MIN_RUNS = 3  # untraced runs, and traced runs with --trace 1
CHILD_TIMEOUT_S = 120.0
EXPECTED_EXIT = 0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
CAL_LOOP = 100_000  # iterations of one calibration piece
CAL_PIECES = 6  # pieces per CPU in one speed probe
CAL_CPUS = 4  # CPUs a speed probe visits, at most
CAL_REF_S = 0.010  # one calibration piece at the reference speed (2-core Xeon VM)

# Spawn to a validated Experiment: interpreter, imports and load_experiment.
# perf_counter is CLOCK_MONOTONIC, which parent and child share.
SETUP_PROBE = (
    "import sys, time\n"
    "from quantstab.cli import load_experiment\n"
    "load_experiment(sys.argv[1])\n"
    "print(time.perf_counter())\n"
)


@dataclass(frozen=True)
class Workload:
    command: str
    config: str  # relative to the checkout root
    sizes: dict  # config overrides for the measured runs
    tiny: dict  # config overrides for the self-test


WORKLOADS = {
    "bound-uq": Workload(
        "bound",
        "configs/example2_bound.json",
        {"paths": 6},
        {"paths": 1, "horizon": 400, "bound": {"n_mc": 2000}, "falsify": {"samples": 2000}},
    ),
    "simulate-zoom": Workload(
        "simulate", "configs/doubling_zoom_entropy.json", {"paths": 2}, {"paths": 1, "horizon": 300}
    ),
    "entropy-span": Workload(
        "entropy",
        "perfbench/configs/entropy_span.json",
        {},
        {"entropy": {"horizons": [4, 6], "scenarios": 8}},
    ),
    "mc-bound": Workload(
        "bound",
        "perfbench/configs/mc_bound.json",
        {},
        {"horizon": 400, "bound": {"n_mc": 5000}, "falsify": {"samples": 5000}},
    ),
}


def effective_config(workload: Workload, tiny: bool) -> dict:
    raw = json.loads((ROOT / workload.config).read_text())
    for key, value in (workload.tiny if tiny else workload.sizes).items():
        raw[key] = {**raw[key], **value} if isinstance(value, dict) else value
    return raw


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env.update({name: "1" for name in THREAD_VARS})
    return env


@dataclass
class ChildRun:
    code: int
    spawned: float  # time.perf_counter() readings
    exited: float
    maxrss_mb: float
    log: Path

    @property
    def wall_s(self) -> float:
        return self.exited - self.spawned


def calibration_piece() -> float:
    """Time a fixed pure-Python loop that uses no quantstab code."""
    started = time.perf_counter()
    total = 0
    for i in range(CAL_LOOP):
        total += i * i
    return time.perf_counter() - started


def speed_probe() -> float:
    """Mean piece time over the CPUs this process may use, ``CAL_PIECES`` on each.

    The CLI child may run on any of them, so each counts alike.
    """
    own = os.sched_getaffinity(0)
    times = []
    try:
        for cpu in sorted(own)[:CAL_CPUS]:
            os.sched_setaffinity(0, {cpu})
            times += [calibration_piece() for _ in range(CAL_PIECES)]
    finally:
        os.sched_setaffinity(0, own)
    return statistics.fmean(times)


def run_child(argv: list[str], log: Path, env: dict) -> ChildRun:
    """Run one child to exit; its own peak RSS comes from wait4 on its pid."""
    with open(log, "wb") as out:
        spawned = time.perf_counter()
        proc = subprocess.Popen(
            argv, cwd=ROOT, env=env, stdin=subprocess.DEVNULL, stdout=out, stderr=subprocess.STDOUT
        )
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            os.waitpid(proc.pid, 0)
            raise
        finally:
            timer.cancel()
        exited = time.perf_counter()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return ChildRun(proc.returncode, spawned, exited, usage.ru_maxrss / 1024.0, log)


class Bench:
    """One benchmark run: the closed loop, its checks and its samples."""

    def __init__(self, name: str, args: argparse.Namespace, tmp: Path):
        self.name = name
        self.workload = WORKLOADS[name]
        self.args = args
        self.tmp = tmp
        self.env = child_env()
        self.config = effective_config(self.workload, args.tiny)
        self.config_path = tmp / "config.json"
        self.config_path.write_text(json.dumps(self.config, indent=2))
        self.attempted = 0
        self.failed = 0  # runs with at least one failed check
        self.problems: list[str] = []
        self.digest = None
        self.walls: list[float] = []
        self.rss: list[float] = []
        self.setup: list[float] = []
        self.calibration: list[float] = []
        self.traced: list[dict] = []
        reference = json.loads((HERE / "reference.json").read_text())
        use_reference = args.seed == reference["seed"] and not args.tiny
        self.reference = reference[name] if use_reference else None

    def _fail(self, what: str, run: ChildRun = None) -> None:
        self.problems.append(what)
        print(f"check failed: {what}", file=sys.stderr)
        if run is not None:
            print(run.log.read_text(errors="replace")[-2000:], file=sys.stderr)

    def setup_probe(self) -> float:
        log = self.tmp / "setup.log"
        run = run_child([sys.executable, "-c", SETUP_PROBE, str(self.config_path)], log, self.env)
        self.attempted += 1
        try:
            ready = float(log.read_text().split()[-1])
        except (IndexError, ValueError):
            ready = None
        if run.code != 0 or ready is None:
            self.failed += 1
            self._fail(f"setup probe exited {run.code}", run)
            return run.wall_s
        return ready - run.spawned

    def cli_run(self, traced: bool) -> None:
        index = self.attempted
        out = self.tmp / f"out{index}"
        cli_args = [
            self.workload.command,
            "--config", str(self.config_path),
            "--seed", str(self.args.seed),
            "--out", str(out),
        ]
        trace_path = self.tmp / f"trace{index}.json"
        if traced:
            argv = [sys.executable, str(HERE / "tracing.py"), str(trace_path)] + cli_args
        else:
            argv = [sys.executable, "-m", "quantstab.cli"] + cli_args
        run = run_child(argv, self.tmp / f"run{index}.log", self.env)
        self.attempted += 1
        failures = self._check(run, out)
        if traced and not failures:
            trace = json.loads(trace_path.read_text())
            failures += trace["failures"]
            metrics = tracing.layer_metrics(trace, run.spawned, run.exited)
            # Against the untraced run just before, which shares its machine state.
            metrics["trace.overhead_s"] = metrics["trace.wall_s"] - self.walls[-1]
            self.traced.append(metrics)
        elif not traced:
            self.walls.append(run.wall_s)
            self.rss.append(run.maxrss_mb)
        self.failed += bool(failures)
        for failure in failures:
            self._fail(f"run {index} ({'traced' if traced else 'untraced'}): {failure}", run)
        shutil.rmtree(out, ignore_errors=True)
        trace_path.unlink(missing_ok=True)

    def _check(self, run: ChildRun, out: Path) -> list[str]:
        if run.code != EXPECTED_EXIT:
            return [f"exit code {run.code}, expected {EXPECTED_EXIT}"]
        failures = checks.check_outputs(self.workload.command, out, self.config)
        digest = checks.tree_digest(out)
        if self.digest is None:
            self.digest = digest
            if self.reference is not None:
                failures += checks.compare_reference(
                    checks.key_results(self.workload.command, out), self.reference
                )
        elif digest != self.digest:
            failures.append("output tree differs from the first run's")
        return failures

    def measure(self) -> None:
        self.setup_probe()  # untimed: fills the bytecode cache
        speed_probe()  # untimed: warms the loop
        deadline = time.perf_counter() + self.args.seconds
        runs = 0
        while time.perf_counter() < deadline or runs < MIN_RUNS * (1 + self.args.trace):
            if not self.args.trace:
                self.calibration.append(speed_probe())
            self.cli_run(traced=bool(self.args.trace) and runs % 2 == 1)
            runs += 1
            if not self.args.trace:
                # Between CLI runs, so set-up sees the machine states the runs see.
                self.calibration.append(speed_probe())
                self.setup.append(self.setup_probe())
        while not self.args.trace and len(self.setup) < SETUP_PROBES:
            self.calibration.append(speed_probe())
            self.setup.append(self.setup_probe())

    def speed(self) -> float:
        """Reference time of a calibration piece over its median time in this run."""
        return CAL_REF_S / statistics.median(self.calibration)

    def metrics(self) -> dict[str, float]:
        if not self.args.trace:
            return {
                "wall_s": statistics.median(self.walls) * self.speed(),
                "setup_s": statistics.median(self.setup),
                "peak_rss_mb": statistics.median(self.rss),
            }
        if not self.traced:
            return {}
        return {name: statistics.median(t[name] for t in self.traced) for name in self.traced[0]}

    def samples(self) -> dict:
        return {
            "raw_wall_s": self.walls,
            "setup_s": self.setup,
            "calibration_s": self.calibration,
            "speed": self.speed() if self.calibration else None,
            "peak_rss_mb": self.rss,
            "traced_runs": len(self.traced),
            "failed_frac": self.failed / self.attempted,
        }


def environment() -> dict:
    cpu_model = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu_model = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")),
                None,
            )
    except OSError:
        pass
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
            capture_output=True,
            text=True,
            timeout=10,
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    source = hashlib.sha256()
    for path in sorted((SRC / "quantstab").glob("*.py")):
        source.update(path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "git_commit": commit,
        "source_sha256": source.hexdigest(),
        "thread_env": {name: "1" for name in THREAD_VARS},
    }


def declared_metrics(trace: bool) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="self-test sizes")
    args = parser.parse_args(argv)

    needed = [SRC / "quantstab" / "cli.py", ROOT / WORKLOADS[args.workload].config]
    missing = [str(p) for p in needed if not p.is_file()]
    if missing:
        print(f"not a quantstab checkout, missing: {', '.join(missing)}", file=sys.stderr)
        return 2
    declared = declared_metrics(bool(args.trace))

    runs_dir = ROOT / ".perfbench_runs"
    runs_dir.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=runs_dir))
    try:
        bench = Bench(args.workload, args, tmp)
        bench.measure()
        measured = bench.metrics()
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        if runs_dir.exists() and not any(runs_dir.iterdir()):
            runs_dir.rmdir()

    missing = sorted(set(declared) - set(measured))
    if missing:
        bench._fail(f"metrics not measured: {', '.join(missing)}")
    print(json.dumps({"env": environment(), "samples": bench.samples()}))
    result = {
        "correct": not bench.problems,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {
            name: {"value": measured[name], "unit": unit}
            for name, unit in declared.items()
            if name in measured
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
