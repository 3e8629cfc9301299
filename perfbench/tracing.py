"""Traced quantstab CLI run: one span per public call, plus counters.

run.py starts this file as a child process:

    python3 perfbench/tracing.py TRACE_JSON <quantstab CLI arguments>

It wraps the functions where ``quantstab.cli`` and
``quantstab.stabilization_entropy`` look them up, runs ``quantstab.cli.main``
and keeps the spans and counters in memory. After the CLI returns it times
the dynamics and policy layers on their own by replaying and auditing the
recorded trajectories, times the vectorized Jacobian path on a Monte Carlo
sample set drawn from the recorded measure, and writes everything to
TRACE_JSON. Nothing under ``src/`` changes. run.py turns the file into
per-module metrics with :func:`layer_metrics`.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import Counter

MODULES = (
    "cli",
    "model_dsl",
    "dynamics",
    "policies",
    "simulation",
    "ergodics",
    "capacity_bounds",
    "stabilization_entropy",
)


class Tracer:
    """Spans ``[name, start, end, parent index]`` and counters, kept in memory."""

    def __init__(self):
        self.spans: list[list] = []
        self.counters: Counter = Counter()
        self._open: list[int] = []

    def wrap(self, name, fn, after=None):
        """``fn`` inside a span; ``after(arguments, result)`` runs once it ends."""
        signature = inspect.signature(fn) if after else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self._open[-1] if self._open else -1
            self.spans.append([name, time.perf_counter(), None, parent])
            self._open.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.spans[index][2] = time.perf_counter()
                self._open.pop()
            if after is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                after(bound.arguments, result)
            return result

        return traced


class _Record:
    """Objects the probes need after the CLI returns."""

    def __init__(self):
        self.experiment = None
        self.measure = None
        self.trajectories = []


def _install(tracer: Tracer, record: _Record):
    import quantstab.cli as cli
    import quantstab.stabilization_entropy as entropy
    from quantstab.dynamics import SystemModel

    count = tracer.counters

    def on_experiment(a, exp):
        record.experiment = exp

    def on_rollout(a, trajs):
        record.trajectories.extend(trajs)
        count["simulation.steps"] += sum(t.steps for t in trajs)
        count["simulation.requested_steps"] += a["horizon"] * a["n_paths"]
        count["simulation.diverged_paths"] += sum(t.diverged for t in trajs)

    def on_csv(a, _):
        count["simulation.csv_rows"] += a["traj"].steps
        with open(a["path"], "rb") as fh:
            count["simulation.csv_bytes"] += fh.seek(0, 2)

    def on_measure(a, measure):
        record.measure = measure
        count["ergodics.samples"] += measure.n_samples

    def on_bound(a, report):
        count["capacity_bounds.subset_samples"] += a["n_mc"] * (len(a["gamma"].subsets) + 1)

    def on_falsify(a, result):
        count["dynamics.falsify_samples_used"] += result.n_samples
        count["dynamics.falsify_samples_requested"] += a["n"]

    def on_candidates(a, result):
        count["stabilization_entropy.candidates"] += result[0].count
        count["stabilization_entropy.scenario_runs"] += a["scenarios"].count

    def on_matrix(a, matrix):
        count["stabilization_entropy.pairs"] += matrix.size
        count["stabilization_entropy.satisfied_pairs"] += int(matrix.sum())

    patches = {
        cli: {
            "load_experiment": ("cli.load_experiment", on_experiment),
            "catalog_model": ("dynamics.catalog_model", None),
            "null_policy": ("policies.null_policy", None),
            "uniform_quantizer_policy": ("policies.uniform_quantizer_policy", None),
            "zoom_policy": ("policies.zoom_policy", None),
            "batch_rollout": ("simulation.batch_rollout", on_rollout),
            "trajectory_to_csv": ("simulation.trajectory_to_csv", on_csv),
            "summarize_divergence": ("simulation.summarize_divergence", None),
            "gamma_falsify": ("dynamics.gamma_falsify", on_falsify),
            "empirical_measure": ("ergodics.empirical_measure", on_measure),
            "ergodicity_dispersion": ("ergodics.ergodicity_dispersion", None),
            "frequency_convergence": ("ergodics.frequency_convergence", None),
            "measure_to_csv": ("ergodics.measure_to_csv", None),
            "refined_bound": ("capacity_bounds.refined_bound", on_bound),
            "entropy_rate": ("stabilization_entropy.entropy_rate", None),
            "entropy_curve_to_csv": ("stabilization_entropy.entropy_curve_to_csv", None),
        },
        entropy: {
            "closed_loop_candidates": ("stabilization_entropy.closed_loop_candidates", on_candidates),
            "run_closed_loop": ("simulation.run_closed_loop", None),
            "build_R_epsilon": ("stabilization_entropy.build_R_epsilon", None),
            "satisfaction_matrix": ("stabilization_entropy.satisfaction_matrix", on_matrix),
            "min_cover_cardinality": ("stabilization_entropy.min_cover_cardinality", None),
        },
    }
    for module, table in patches.items():
        for attr, (name, after) in table.items():
            setattr(module, attr, tracer.wrap(name, getattr(module, attr), after))
    SystemModel.from_source = classmethod(
        tracer.wrap("model_dsl.compile", SystemModel.from_source.__func__)
    )
    return cli.main


def _probe(record: _Record, count: Counter, failures: list[str]) -> None:
    """Time the dynamics and policy layers apart from the loop that drives them."""
    import numpy as np
    from quantstab.capacity_bounds import MAX_OVERFLOW_MASS
    from quantstab.dynamics import log2_abs_det_many
    from quantstab.simulation import audit_causality, replay_consistent

    exp = record.experiment
    for k, traj in enumerate(record.trajectories):
        start = time.perf_counter()
        replayed = replay_consistent(exp.model, traj)
        middle = time.perf_counter()
        audited = audit_causality(exp.policy, traj)
        count["dynamics.replay_s"] += middle - start
        count["policies.audit_s"] += time.perf_counter() - middle
        if not (replayed and audited):
            failures.append(f"path {k}: replay {replayed}, causality audit {audited}")
    if count["simulation.diverged_paths"]:
        failures.append(f"{count['simulation.diverged_paths']} paths diverged")
    if record.measure is None:
        return
    if record.measure.overflow_mass >= MAX_OVERFLOW_MASS:
        failures.append(f"overflow mass {record.measure.overflow_mass}")
    n_mc = int(exp.raw.get("bound", {}).get("n_mc", 100_000))
    rng = np.random.default_rng(exp.seed)
    xs = record.measure.sample_states(rng, n_mc)
    ws = exp.noise.sample(rng, n_mc)
    start = time.perf_counter()
    jacs = exp.model.jacobian_many(xs, ws)
    middle = time.perf_counter()
    log2_abs_det_many(jacs)
    count["dynamics.jacobian_many_s"] += middle - start
    count["dynamics.log2_abs_det_many_s"] += time.perf_counter() - middle
    count["dynamics.jacobian_samples"] += n_mc


def main(argv: list[str]) -> int:
    trace_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    record = _Record()
    cli_main = tracer.wrap("cli.main", _install(tracer, record))
    code = cli_main(cli_args)
    failures: list[str] = []
    probe_start = time.perf_counter()
    _probe(record, tracer.counters, failures)
    probe_end = time.perf_counter()
    with open(trace_path, "w") as fh:
        json.dump(
            {
                "spans": tracer.spans,
                "counters": tracer.counters,
                "probe": [probe_start, probe_end],
                "failures": failures,
            },
            fh,
        )
    return code


# --------------------------------------------------------------------------
# Parent side: spans and counters to per-module metrics


def _ratio(num: float, den: float, scale: float = 1.0) -> float:
    return scale * num / den if den else 0.0


def layer_metrics(trace: dict, spawned: float, exited: float) -> dict[str, float]:
    """Per-module metrics of one traced run spawned and reaped at the given
    ``time.perf_counter`` readings (the clock is shared across processes).

    A layer the workload does not use reads 0.
    """
    spans = trace["spans"]
    count = Counter(trace["counters"])
    total: Counter = Counter()
    self_time: Counter = Counter()
    covered = 0.0
    for name, start, end, parent in spans:
        total[name] += end - start
        self_time[name.split(".")[0]] += end - start
        if parent >= 0:
            self_time[spans[parent][0].split(".")[0]] -= end - start
        else:
            covered += end - start
    probe_start, probe_end = trace["probe"]
    wall = exited - spawned - (probe_end - probe_start)

    steps = count["simulation.steps"]
    rollout_s = total["simulation.batch_rollout"]
    step_us = _ratio(rollout_s, steps, 1e6)
    dynamics_us = _ratio(count["dynamics.replay_s"], steps, 1e6)
    policies_us = _ratio(count["policies.audit_s"], steps, 1e6)
    csv_s = total["simulation.trajectory_to_csv"]
    csv_rows = count["simulation.csv_rows"]
    bound_s = total["capacity_bounds.refined_bound"]
    subset_samples = count["capacity_bounds.subset_samples"]
    pairs = count["stabilization_entropy.pairs"]
    matrix_s = total["stabilization_entropy.satisfaction_matrix"]
    metrics = {
        "cli.load_experiment_s": total["cli.load_experiment"],
        "model_dsl.compile_s": total["model_dsl.compile"],
        "simulation.batch_rollout_s": rollout_s,
        "simulation.step_us": step_us,
        "simulation.steps": steps,
        "simulation.diverged_paths": count["simulation.diverged_paths"],
        "simulation.completed_frac": _ratio(steps, count["simulation.requested_steps"]),
        "dynamics.step_us": dynamics_us,
        "policies.encode_control_us": policies_us,
        "simulation.loop_glue_us": step_us - dynamics_us - policies_us,
        "simulation.trajectory_to_csv_s": csv_s,
        "simulation.csv_rows": csv_rows,
        "simulation.csv_bytes": count["simulation.csv_bytes"],
        "simulation.csv_us_per_row": _ratio(csv_s, csv_rows, 1e6),
        "ergodics.empirical_measure_s": total["ergodics.empirical_measure"],
        "ergodics.samples": count["ergodics.samples"],
        "capacity_bounds.refined_bound_s": bound_s,
        "capacity_bounds.subset_samples": subset_samples,
        "capacity_bounds.ns_per_subset_sample": _ratio(bound_s, subset_samples, 1e9),
        "dynamics.gamma_falsify_s": total["dynamics.gamma_falsify"],
        "dynamics.falsify_samples_used_frac": _ratio(
            count["dynamics.falsify_samples_used"], count["dynamics.falsify_samples_requested"]
        ),
        "dynamics.jacobian_many_ns_per_sample": _ratio(
            count["dynamics.jacobian_many_s"], count["dynamics.jacobian_samples"], 1e9
        ),
        "dynamics.log2_abs_det_many_ns_per_sample": _ratio(
            count["dynamics.log2_abs_det_many_s"], count["dynamics.jacobian_samples"], 1e9
        ),
        "stabilization_entropy.closed_loop_candidates_s": total[
            "stabilization_entropy.closed_loop_candidates"
        ],
        "stabilization_entropy.candidates": count["stabilization_entropy.candidates"],
        "stabilization_entropy.distinct_frac": _ratio(
            count["stabilization_entropy.candidates"], count["stabilization_entropy.scenario_runs"]
        ),
        "stabilization_entropy.satisfaction_matrix_s": matrix_s,
        "stabilization_entropy.pairs": pairs,
        "stabilization_entropy.us_per_pair": _ratio(matrix_s, pairs, 1e6),
        "stabilization_entropy.satisfied_frac": _ratio(
            count["stabilization_entropy.satisfied_pairs"], pairs
        ),
        "stabilization_entropy.min_cover_s": total["stabilization_entropy.min_cover_cardinality"],
        "trace.wall_s": wall,
        "trace.uncovered_frac": (wall - covered) / wall,
    }
    for module in MODULES:
        metrics[f"{module}.self_s"] = self_time[module]
    return metrics


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
