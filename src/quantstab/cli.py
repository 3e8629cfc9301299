"""Experiment runner: one JSON config per experiment, deterministic outputs.

Every subcommand is a pure function of (config, seed) to bytes on disk, so
reruns are byte-identical and runs are archivable as a single file. Unknown
config keys are hard errors. Exit codes: 0 success, 2 config error (an
entropy epsilon too large for the cell masses included), 3 assumption-violation
findings (bound violation flag, falsified floor, singular Jacobian, every
entropy scenario diverged).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import warnings
from pathlib import Path
from typing import Optional

import numpy as np

from .capacity_bounds import refined_bound
from .dynamics import (
    GammaDeclaration,
    IndexSubset,
    SingularMatrixError,
    SystemModel,
    catalog_model,
    catalog_names,
    default_falsification_sampler,
    gamma_falsify,
)
from .ergodics import (
    Partition,
    empirical_measure,
    ergodicity_dispersion,
    frequency_convergence,
    measure_to_csv,
)
from .model_dsl import DslSyntaxError
from .policies import CodingPolicy, null_policy, uniform_quantizer_policy, zoom_policy
from .simulation import (
    InitSpec,
    NoiseSpec,
    batch_rollout,
    summarize_divergence,
    trajectory_to_csv,
)
from .stabilization_entropy import (
    NoCandidatesError,
    SpanningTemplate,
    ThresholdConstraintError,
    entropy_curve_to_csv,
    entropy_rate,
)

__all__ = ["ConfigError", "main", "entry_point", "load_experiment"]

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_VIOLATION = 3


class ConfigError(ValueError):
    """Bad experiment configuration (unknown key, missing key, invalid value)."""


CONFIG_DOC = """\
configuration file keys (JSON object):

  out_dir            str    default output directory (overridden by --out)
  seed               int    base seed; fully determines all randomness
  horizon            int    steps per path
  paths              int    number of closed-loop paths
  burn_in_fraction   float  fraction of the horizon discarded before measuring
                            (default 0.1)
  model              {"catalog": <name>} with name in example1|example2|
                     scalar_doubling|stable_ar1, or {"dsl": <model text>}
  noise              {"family":"gaussian","mean":...,"std":...,"dim":K}
                     {"family":"uniform","low":...,"high":...,"dim":K}
                     {"family":"atoms","values":[[..]..],"probs":[..]}
  init               {"kind":"uniform","low":[..],"high":[..]}
                     {"kind":"gaussian","mean":[..],"std":[..]}
                     {"kind":"fixed","values":[..]}
                     {"kind":"coords","coords":[{"kind":...,...}, ...]}
                     per-coordinate entries use low/high, mean/std or value
  policy             {"kind":"null","m":M}
                     {"kind":"uniform_quantizer","box_low":[..],
                      "box_high":[..],"bits_per_axis":[..],
                      "target":[..]?,"m":M?}
                     {"kind":"zoom","m":M,"alpha":a,"beta":b,
                      "initial_halfwidth":L,"cells_per_axis":[..]?,
                      "center":[..]?,"target":[..]?}
  partition          {"low":[..],"high":[..],"cells_per_axis":[..]}
                     histogram for the empirical measure (+1 overflow cell)
  gamma              [{"p":[1],"c_p":0.9}, ...] declared subsets with
                     claimed determinant floors (1-based indices)
  bound              {"n_mc":int,"common_random_numbers":bool,"seed":int?}
  falsify            {"samples":int,"box_halfwidth":float,
                      "cauchy_fraction":float}; omit to skip falsification
  entropy            {"horizons":[..],"scenarios":int,"rho":r,"epsilon":e,
                      "split":m,"state_partition":{partition spec},
                      "noise_partition":{partition spec}?,
                      "thresholds":"lemma"|"vacuous","dump_matrix":bool}
                     cells are the state_partition cells times the
                     noise_partition cells (default: one noise cell); split
                     (1..N) is checked but changes no output
  diagnose           {"checkpoints":[..]}

subcommands need: simulate -> model noise init policy horizon paths seed;
bound -> simulate keys + partition gamma [bound falsify]; entropy -> simulate
keys + entropy; diagnose -> simulate keys + partition [diagnose].
"""


# --------------------------------------------------------------------------
# Config parsing

def _check_keys(section: dict, allowed: set[str], where: str) -> None:
    unknown = sorted(set(section) - allowed)
    if unknown:
        raise ConfigError(f"unknown key(s) {', '.join(map(repr, unknown))} in {where}")


def _require(section: dict, key: str, where: str):
    if key not in section:
        raise ConfigError(f"missing key {key!r} in {where}")
    return section[key]


_TOP_KEYS = {
    "out_dir",
    "seed",
    "horizon",
    "paths",
    "burn_in_fraction",
    "model",
    "noise",
    "init",
    "policy",
    "partition",
    "gamma",
    "bound",
    "falsify",
    "entropy",
    "diagnose",
}


def _build_model(section: dict) -> SystemModel:
    _check_keys(section, {"catalog", "dsl"}, "model")
    if ("catalog" in section) == ("dsl" in section):
        raise ConfigError("model needs exactly one of 'catalog' or 'dsl'")
    if "catalog" in section:
        name = section["catalog"]
        if name not in catalog_names():
            raise ConfigError(
                f"unknown catalog model {name!r}; available: {', '.join(catalog_names())}"
            )
        return catalog_model(name)
    try:
        return SystemModel.from_text(section["dsl"], name="dsl")
    except DslSyntaxError as exc:
        raise ConfigError(f"bad model text: {exc}") from exc


def _build_noise(section: dict) -> NoiseSpec:
    family = _require(section, "family", "noise")
    try:
        if family == "gaussian":
            _check_keys(section, {"family", "mean", "std", "dim"}, "noise")
            return NoiseSpec.gaussian(
                int(_require(section, "dim", "noise")),
                section.get("mean", 0.0),
                section.get("std", 1.0),
            )
        if family == "uniform":
            _check_keys(section, {"family", "low", "high", "dim"}, "noise")
            return NoiseSpec.uniform(
                int(_require(section, "dim", "noise")),
                _require(section, "low", "noise"),
                _require(section, "high", "noise"),
            )
        if family == "atoms":
            _check_keys(section, {"family", "values", "probs"}, "noise")
            return NoiseSpec.atoms(
                _require(section, "values", "noise"), _require(section, "probs", "noise")
            )
    except ValueError as exc:
        raise ConfigError(f"bad noise spec: {exc}") from exc
    raise ConfigError(f"unknown noise family {family!r}")


def _build_init(section: dict) -> InitSpec:
    kind = _require(section, "kind", "init")
    try:
        if kind == "uniform":
            _check_keys(section, {"kind", "low", "high"}, "init")
            return InitSpec.uniform_box(section["low"], section["high"])
        if kind == "gaussian":
            _check_keys(section, {"kind", "mean", "std"}, "init")
            mean = np.atleast_1d(np.asarray(section["mean"], float))
            return InitSpec.gaussian(len(mean), mean, section["std"])
        if kind == "fixed":
            _check_keys(section, {"kind", "values"}, "init")
            return InitSpec.fixed(section["values"])
        if kind == "coords":
            _check_keys(section, {"kind", "coords"}, "init")
            from .simulation import CoordInit

            coords = []
            for i, c in enumerate(section["coords"]):
                ckind = _require(c, "kind", f"init.coords[{i}]")
                if ckind == "uniform":
                    _check_keys(c, {"kind", "low", "high"}, f"init.coords[{i}]")
                    coords.append(CoordInit("uniform", float(c["low"]), float(c["high"])))
                elif ckind == "gaussian":
                    _check_keys(c, {"kind", "mean", "std"}, f"init.coords[{i}]")
                    coords.append(CoordInit("gaussian", float(c["mean"]), float(c["std"])))
                elif ckind == "fixed":
                    _check_keys(c, {"kind", "value"}, f"init.coords[{i}]")
                    coords.append(CoordInit("fixed", float(c["value"])))
                else:
                    raise ConfigError(f"unknown init coord kind {ckind!r}")
            return InitSpec(tuple(coords))
    except (ValueError, KeyError) as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(f"bad init spec: {exc}") from exc
    raise ConfigError(f"unknown init kind {kind!r}")


def _build_policy(section: dict, model: SystemModel, noise: NoiseSpec) -> CodingPolicy:
    kind = _require(section, "kind", "policy")
    try:
        if kind == "null":
            _check_keys(section, {"kind", "m"}, "policy")
            return null_policy(int(_require(section, "m", "policy")), model.control_dim)
        if kind == "uniform_quantizer":
            _check_keys(
                section,
                {"kind", "box_low", "box_high", "bits_per_axis", "target", "m"},
                "policy",
            )
            return uniform_quantizer_policy(
                model,
                _require(section, "box_low", "policy"),
                _require(section, "box_high", "policy"),
                _require(section, "bits_per_axis", "policy"),
                target=section.get("target"),
                noise_mean=noise.mean,
                m=section.get("m"),
            )
        if kind == "zoom":
            _check_keys(
                section,
                {"kind", "m", "alpha", "beta", "initial_halfwidth", "cells_per_axis", "center", "target"},
                "policy",
            )
            return zoom_policy(
                model,
                int(_require(section, "m", "policy")),
                float(_require(section, "alpha", "policy")),
                float(_require(section, "beta", "policy")),
                float(_require(section, "initial_halfwidth", "policy")),
                cells_per_axis=section.get("cells_per_axis"),
                center=section.get("center"),
                target=section.get("target"),
                noise_mean=noise.mean,
            )
    except ValueError as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(f"bad policy spec: {exc}") from exc
    raise ConfigError(f"unknown policy kind {kind!r}")


def _build_partition(section: dict, dim: int, where: str = "partition") -> Partition:
    """A partition of the ``dim``-dimensional space it is used on."""
    _check_keys(section, {"low", "high", "cells_per_axis"}, where)
    try:
        partition = Partition(
            low=np.asarray(_require(section, "low", where), float),
            high=np.asarray(_require(section, "high", where), float),
            cells_per_axis=tuple(_require(section, "cells_per_axis", where)),
        )
    except ValueError as exc:
        raise ConfigError(f"bad {where} spec: {exc}") from exc
    if partition.dim != dim:
        raise ConfigError(f"{where} has dim {partition.dim}, expected {dim}")
    return partition


def _build_gamma(entries: list, n: int) -> GammaDeclaration:
    subsets = []
    for i, entry in enumerate(entries):
        _check_keys(entry, {"p", "c_p"}, f"gamma[{i}]")
        try:
            subsets.append(
                IndexSubset(
                    p=tuple(int(v) for v in _require(entry, "p", f"gamma[{i}]")),
                    n=n,
                    c_p=float(_require(entry, "c_p", f"gamma[{i}]")),
                )
            )
        except ValueError as exc:
            raise ConfigError(f"bad gamma[{i}]: {exc}") from exc
    try:
        return GammaDeclaration(tuple(subsets))
    except ValueError as exc:
        raise ConfigError(f"bad gamma declaration: {exc}") from exc


class Experiment:
    """Validated experiment: constructed objects plus per-subcommand sections."""

    def __init__(self, raw: dict, overrides: dict):
        _check_keys(raw, _TOP_KEYS, "config")
        self.raw = raw

        def pick(key, fallback):
            value = overrides.get(key)
            return int(fallback() if value is None else value)

        self.seed = pick("seed", lambda: raw.get("seed", 0))
        self.horizon = pick("horizon", lambda: self._get_top("horizon"))
        self.paths = pick("paths", lambda: self._get_top("paths"))
        self.burn_in_fraction = float(raw.get("burn_in_fraction", 0.1))
        if not (0.0 <= self.burn_in_fraction < 1.0):
            raise ConfigError("burn_in_fraction must lie in [0, 1)")
        self.model = _build_model(self._get_section("model"))
        self.noise = _build_noise(self._get_section("noise"))
        self.init = _build_init(self._get_section("init"))
        if self.noise.dim != self.model.noise_dim:
            raise ConfigError(
                f"noise dim {self.noise.dim} does not match model noise dim {self.model.noise_dim}"
            )
        if self.init.dim != self.model.n:
            raise ConfigError(
                f"init dim {self.init.dim} does not match state dim {self.model.n}"
            )
        self.policy = _build_policy(self._get_section("policy"), self.model, self.noise)
        self.partition = (
            _build_partition(raw["partition"], self.model.n) if "partition" in raw else None
        )
        self.gamma = _build_gamma(raw["gamma"], self.model.n) if "gamma" in raw else None

    def _get_top(self, key: str):
        if key not in self.raw:
            raise ConfigError(f"missing top-level key {key!r} (or pass the matching flag)")
        return self.raw[key]

    def _get_section(self, key: str) -> dict:
        value = self._get_top(key)
        if not isinstance(value, dict):
            raise ConfigError(f"{key!r} must be an object")
        return value

    @property
    def burn_in(self) -> int:
        return int(self.burn_in_fraction * self.horizon)


def load_experiment(path, overrides: Optional[dict] = None) -> Experiment:
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    return Experiment(raw, overrides or {})


# --------------------------------------------------------------------------
# Output helpers

def _write_json(path: Path, payload: dict) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def _log(verbose: bool, message: str) -> None:
    if verbose:
        print(message, file=sys.stderr)


def _run_paths(exp: Experiment, verbose: bool):
    _log(verbose, f"simulating {exp.paths} paths of {exp.horizon} steps (seed {exp.seed})")
    return batch_rollout(
        exp.model, exp.policy, exp.noise, exp.init, exp.horizon, exp.paths, exp.seed
    )


# --------------------------------------------------------------------------
# Subcommands

def cmd_simulate(exp: Experiment, out: Path, verbose: bool) -> int:
    trajs = _run_paths(exp, verbose)
    for k, traj in enumerate(trajs):
        trajectory_to_csv(traj, out / f"trajectory_{k:04d}.csv")
    summary = summarize_divergence(trajs)
    summary["seed"] = exp.seed
    summary["horizon"] = exp.horizon
    _write_json(out / "simulate_summary.json", summary)
    _log(verbose, f"divergence rate {summary['divergence_rate']:.3f}")
    return EXIT_OK


def cmd_bound(exp: Experiment, out: Path, verbose: bool) -> int:
    if exp.partition is None or exp.gamma is None:
        raise ConfigError("the bound subcommand needs 'partition' and 'gamma' sections")
    section = exp.raw.get("bound", {})
    _check_keys(section, {"n_mc", "common_random_numbers", "seed"}, "bound")
    n_mc = int(section.get("n_mc", 100_000))
    crn = bool(section.get("common_random_numbers", True))
    mc_seed = int(section.get("seed", exp.seed))

    findings = []

    falsify_cfg = exp.raw.get("falsify")
    falsification = None
    if falsify_cfg is not None:
        _check_keys(falsify_cfg, {"samples", "box_halfwidth", "cauchy_fraction"}, "falsify")
        sampler = default_falsification_sampler(
            exp.model,
            halfwidth=float(falsify_cfg.get("box_halfwidth", 100.0)),
            cauchy_fraction=float(falsify_cfg.get("cauchy_fraction", 0.1)),
        )
        samples = int(falsify_cfg.get("samples", 100_000))
        falsification = []
        for subset in exp.gamma:
            result = gamma_falsify(exp.model, subset, sampler, n=samples, seed=mc_seed)
            falsification.append(
                {
                    "p": list(subset.p),
                    "c_p": subset.c_p,
                    "falsified": result.falsified,
                    "min_abs_det": result.min_abs_det,
                    "at_x": result.at_x.tolist(),
                    "at_w": result.at_w.tolist(),
                    "n_samples": result.n_samples,
                }
            )
            if result.falsified:
                findings.append(
                    f"floor c_p={subset.c_p} for p={subset.p} falsified: "
                    f"|det|={result.min_abs_det:.6g} at x={result.at_x.tolist()}"
                )
        _write_json(out / "falsification.json", {"subsets": falsification})

    trajs = _run_paths(exp, verbose)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        measure = empirical_measure(trajs, exp.partition, exp.burn_in)
    for warning in caught:
        _log(verbose, f"warning: {warning.message}")

    try:
        report = refined_bound(
            exp.model,
            exp.gamma,
            measure,
            exp.noise,
            n_mc=n_mc,
            seed=mc_seed,
            capacity=exp.policy.capacity(),
            common_random_numbers=crn,
        )
    except SingularMatrixError as exc:
        _write_json(out / "bound_report.json", {"error": str(exc)})
        print(f"assumption violation: {exc}", file=sys.stderr)
        return EXIT_VIOLATION

    _write_json(out / "bound_report.json", report.to_json_dict())
    for estimate in report.subsets:
        if estimate.error is not None:
            findings.append(f"subset p={estimate.p}: {estimate.error}")
    if report.violation:
        findings.append(
            f"max bound {report.max_bound:.6g} exceeds capacity {report.capacity:.6g} "
            "by more than two standard errors"
        )
    if findings:
        for finding in findings:
            print(f"assumption violation: {finding}", file=sys.stderr)
        return EXIT_VIOLATION
    _log(verbose, f"max_bound {report.max_bound:.6g} at p={list(report.argmax)}")
    return EXIT_OK


def cmd_entropy(exp: Experiment, out: Path, verbose: bool) -> int:
    section = exp.raw.get("entropy")
    if section is None:
        raise ConfigError("the entropy subcommand needs an 'entropy' section")
    _check_keys(
        section,
        {
            "horizons",
            "scenarios",
            "rho",
            "epsilon",
            "split",
            "state_partition",
            "noise_partition",
            "thresholds",
            "dump_matrix",
        },
        "entropy",
    )
    horizons = [int(t) for t in _require(section, "horizons", "entropy")]
    if any(t < 1 for t in horizons):
        raise ConfigError("every entropy horizon must be at least 1")
    n_scenarios = int(_require(section, "scenarios", "entropy"))
    if n_scenarios < 1:
        raise ConfigError("entropy scenarios must be at least 1")
    thresholds = section.get("thresholds", "lemma")
    if thresholds not in ("lemma", "vacuous"):
        raise ConfigError(f"unknown entropy thresholds mode {thresholds!r}")
    split = int(section.get("split", exp.model.n))
    if not (1 <= split <= exp.model.n):
        raise ConfigError(f"entropy split must lie in [1, {exp.model.n}]")
    state_part = _build_partition(
        _require(section, "state_partition", "entropy"), exp.model.n, "entropy.state_partition"
    )
    noise_part = None
    if "noise_partition" in section:
        noise_part = _build_partition(
            section["noise_partition"], exp.model.noise_dim, "entropy.noise_partition"
        )
    try:
        template = SpanningTemplate(
            state_partition=state_part,
            noise_partition=noise_part,
            rho=float(section.get("rho", 0.5)),
            epsilon=float(section.get("epsilon", 0.05)),
        )
    except ValueError as exc:
        raise ConfigError(f"bad entropy template: {exc}") from exc

    matrices: dict = {}
    try:
        points = entropy_rate(
            exp.model,
            exp.policy,
            exp.noise,
            exp.init,
            template,
            horizons,
            n_scenarios,
            seed=exp.seed,
            burn_in_fraction=exp.burn_in_fraction,
            thresholds=thresholds,
            matrix_sink=matrices if section.get("dump_matrix", False) else None,
        )
    except ThresholdConstraintError as exc:
        raise ConfigError(f"entropy thresholds: {exc}") from exc
    except NoCandidatesError as exc:
        print(f"assumption violation: {exc}", file=sys.stderr)
        return EXIT_VIOLATION
    entropy_curve_to_csv(points, out / "entropy_curve.csv")
    for horizon, matrix in matrices.items():
        np.savetxt(
            out / f"satisfaction_T{horizon}.csv",
            matrix.astype(int),
            fmt="%d",
            delimiter=",",
        )
    # limsup proxy: max rate over the two largest horizons actually computed
    finite = [p for p in points if p.feasible]
    largest = sorted(points, key=lambda p: p.horizon)[-2:]
    limsup = max((p.rate for p in largest), default=math.inf)
    _write_json(
        out / "entropy_summary.json",
        {
            "points": [
                {
                    "T": p.horizon,
                    "s_estimate": p.s_estimate if p.feasible else "inf",
                    "rate": p.rate if p.feasible else "inf",
                    "capacity": p.capacity,
                    "n_candidates": p.n_candidates,
                    "covered_fraction": p.covered_fraction,
                }
                for p in points
            ],
            "limsup_rate_estimate": limsup if limsup != math.inf else "inf",
            "all_feasible": len(finite) == len(points),
        },
    )
    _log(verbose, f"entropy rates: {[round(p.rate, 4) if p.feasible else 'inf' for p in points]}")
    return EXIT_OK


def cmd_diagnose(exp: Experiment, out: Path, verbose: bool) -> int:
    if exp.partition is None:
        raise ConfigError("the diagnose subcommand needs a 'partition' section")
    section = exp.raw.get("diagnose", {})
    _check_keys(section, {"checkpoints"}, "diagnose")
    trajs = _run_paths(exp, verbose)

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        measure = empirical_measure(trajs, exp.partition, exp.burn_in)
    warning_texts = [str(w.message) for w in caught]
    measure_to_csv(measure, out / "measure.csv")

    dispersion = ergodicity_dispersion(trajs, exp.partition, exp.burn_in)
    with open(out / "dispersion.csv", "w") as fh:
        fh.write("cell,dispersion\n")
        for i, value in enumerate(dispersion):
            name = "overflow" if i == exp.partition.overflow_index else str(i)
            fh.write(f"{name},{value:.17g}\n")

    lead = trajs[0]
    if "checkpoints" in section:
        checkpoints = [int(c) for c in section["checkpoints"] if 1 <= int(c) <= lead.steps]
    else:
        checkpoints = sorted(
            {10**k for k in range(1, 8) if 10**k <= lead.steps} | {lead.steps}
        )
    if not checkpoints:
        checkpoints = [lead.steps]
    curves = frequency_convergence(lead, exp.partition, checkpoints)
    with open(out / "convergence.csv", "w") as fh:
        cells = [
            "overflow" if i == exp.partition.overflow_index else f"cell{i}"
            for i in range(exp.partition.n_cells)
        ]
        fh.write("T," + ",".join(cells) + "\n")
        for row, checkpoint in enumerate(checkpoints):
            fh.write(
                f"{checkpoint}," + ",".join(format(v, ".17g") for v in curves[row]) + "\n"
            )

    summary = {
        "overflow_mass": measure.overflow_mass,
        "max_dispersion": float(np.max(dispersion)),
        "n_samples": measure.n_samples,
        "burn_in": exp.burn_in,
        "divergence": summarize_divergence(trajs),
        "warnings": warning_texts,
    }
    _write_json(out / "diagnose_summary.json", summary)
    _log(verbose, f"overflow mass {measure.overflow_mass:.4f}, max dispersion {summary['max_dispersion']:.4f}")
    return EXIT_OK


# --------------------------------------------------------------------------
# Entry point

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quantstab",
        description="Stochastic stabilization experiments over finite-capacity channels.",
        epilog=CONFIG_DOC,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in [
        ("simulate", "closed-loop trajectory CSVs plus a divergence summary"),
        ("bound", "capacity-bound report (refined and classical) as JSON"),
        ("entropy", "spanning-set entropy curve as CSV"),
        ("diagnose", "ergodicity diagnostics: convergence, dispersion, overflow"),
    ]:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="path to the JSON experiment config")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--out", default=None, help="output directory (default: config out_dir)")
        p.add_argument("--paths", type=int, default=None, help="override the path count")
        p.add_argument("--horizon", type=int, default=None, help="override the horizon")
        p.add_argument("--verbose", action="store_true", help="progress on stderr")
    return parser


_COMMANDS = {
    "simulate": cmd_simulate,
    "bound": cmd_bound,
    "entropy": cmd_entropy,
    "diagnose": cmd_diagnose,
}


def main(argv: Optional[list[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        exp = load_experiment(
            args.config,
            overrides={"seed": args.seed, "paths": args.paths, "horizon": args.horizon},
        )
        out = args.out or exp.raw.get("out_dir")
        if out is None:
            raise ConfigError("no output directory: pass --out or set out_dir in the config")
        out_path = Path(out)
        out_path.mkdir(parents=True, exist_ok=True)
        return _COMMANDS[args.command](exp, out_path, args.verbose)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


def entry_point() -> None:
    sys.exit(main(sys.argv[1:]))


if __name__ == "__main__":
    entry_point()
