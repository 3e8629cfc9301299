"""Experiment runner: one JSON config per experiment, deterministic outputs.

Every subcommand is a pure function of (config, seed) to bytes on disk, so
reruns are byte-identical and runs are archivable as a single file. Unknown
config keys are hard errors. Exit codes: 0 success, 2 config error (a grid
above the cell limit and an entropy epsilon too large for the cell masses
included), 3 assumption-violation findings (bound violation flag, falsified
floor, singular or non-finite Jacobian, no post-burn-in sample to measure,
overflow mass too large for a bound, every entropy scenario diverged).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from functools import partial
from pathlib import Path
from typing import Optional

import numpy as np

from .capacity_bounds import OverflowMassError, refined_bound
# gamma_falsify stays importable from this module, unused: perfbench/tracing.py
# wraps it here
from .dynamics import (  # noqa: F401
    GammaDeclaration,
    IndexSubset,
    SingularMatrixError,
    SystemModel,
    catalog_model,
    default_falsification_sampler,
    falsify_floors,
    gamma_falsify,
)
from .ergodics import (
    DEFAULT_CHECKPOINTS,
    NoSampleError,
    Partition,
    VisitTally,
    empirical_measure,
    ergodicity_dispersion,
    frequency_convergence,
    measure_to_csv,
)
from .policies import CodingPolicy, null_policy, uniform_quantizer_policy, zoom_policy
from .simulation import (
    CoordInit,
    InitSpec,
    NoiseSpec,
    PathSeeds,
    batch_rollout,
    check_storage,
    closed_loop_blocks,
    summarize_divergence,
    trajectory_to_csv,
    write_csv,
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
                      "noise_partition":{partition spec}?,"dump_matrix":bool}
                     cells are the state_partition cells times the
                     noise_partition cells (default: one noise cell); split
                     (1..N) is checked but changes no output
  diagnose           {"checkpoints":[..]}

every value has a kind: int, float, bool, str, list or object, as above.
Floats are finite, and integral floats such as 1e6 count as ints. A per-axis
list of numbers (low, high, mean, std, target, center, bits_per_axis,
cells_per_axis) also takes one number for every axis. Counts (horizon, paths,
n_mc, samples, horizons, scenarios, checkpoints) are at least 1, entropy
horizons and diagnose checkpoints distinct, seeds at least 0, other integers
at most 2^63 - 1 and bits_per_axis at most 63, and a grid (a partition or a
quantizer) has at most 2^24 cells. Anything else, and any key not listed, is
a config error (exit 2) that names the key, e.g. gamma[0].p.

subcommands need: simulate -> model noise init policy horizon paths seed;
bound -> simulate keys + partition gamma [bound falsify]; entropy -> simulate
keys + entropy; diagnose -> simulate keys + partition [diagnose].
"""


# --------------------------------------------------------------------------
# Config reading
#
# Each key is read in one place, by ``_Section.get`` with its kind: a function
# (value, key path) -> value that raises ConfigError naming the path.

_REQUIRED = object()


class _Section:
    """One JSON object of the config: ``get`` reads a key as its kind,
    ``close`` rejects every key that was never read."""

    def __init__(self, raw: dict, path: str = ""):
        self.raw = raw
        self.path = path  # "" at the top level
        self._read: set[str] = set()

    def get(self, key: str, kind, default=_REQUIRED):
        self._read.add(key)
        if key in self.raw:
            return kind(self.raw[key], f"{self.path}.{key}" if self.path else key)
        if default is _REQUIRED:
            raise ConfigError(f"missing key {key!r} in {self.path or 'config'}")
        return default

    def close(self) -> None:
        unknown = ", ".join(map(repr, sorted(set(self.raw) - self._read)))
        if unknown:
            raise ConfigError(f"unknown key(s) {unknown} in {self.path or 'config'}")


def _integer(value, key: str, low: Optional[int] = None, high: Optional[int] = 2**63 - 1) -> int:
    """An int, or an integral float (1e6), in [``low``, ``high``]; ``high`` defaults to int64's top."""
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if not isinstance(value, int) or isinstance(value, bool):
        raise ConfigError(f"{key} must be an integer, got {value!r}")
    if low is not None and value < low:
        raise ConfigError(f"{key} must be at least {low}, got {value}")
    if high is not None and value > high:
        raise ConfigError(f"{key} must be at most {high}, got {value}")
    return value


_seed = partial(_integer, low=0, high=None)
_count = partial(_integer, low=1)  # horizons, paths and sample counts


def _number(value, key: str) -> float:
    if isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value):
        return float(value)
    raise ConfigError(f"{key} must be a finite number, got {value!r}")


def _boolean(value, key: str) -> bool:
    if isinstance(value, bool):
        return value
    raise ConfigError(f"{key} must be true or false, got {value!r}")


def _string(value, key: str) -> str:
    if isinstance(value, str):
        return value
    raise ConfigError(f"{key} must be a string, got {value!r}")


def _list(kind, lone: bool = False):
    """A list of values of ``kind``; with ``lone`` also a single value, which
    the library broadcasts to every axis."""

    def read(value, key: str):
        if isinstance(value, list):
            return [kind(v, key) for v in value]
        if lone:
            return kind(value, key)
        raise ConfigError(f"{key} must be a list, got {value!r}")

    return read


_numbers = _list(_number, lone=True)
_integers = _list(_integer, lone=True)
_bits = _list(partial(_integer, high=63), lone=True)  # 2**b is computed before the grid limit


def _object(value, key: str) -> _Section:
    if not isinstance(value, dict):
        raise ConfigError(f"{key} must be an object, got {value!r}")
    return _Section(value, key)


def _objects(value, key: str) -> list[_Section]:
    if not isinstance(value, list):
        raise ConfigError(f"{key} must be a list of objects, got {value!r}")
    return [_object(v, f"{key}[{i}]") for i, v in enumerate(value)]


def _construct(what: str, build, *args, **kwargs):
    """``build(*args, **kwargs)``, its ValueError or MemoryError (a size the
    config asks for that cannot be allocated) a config error about ``what``."""
    try:
        return build(*args, **kwargs)
    except (ValueError, MemoryError) as exc:
        raise ConfigError(f"bad {what}: {exc}") from exc


def _build_model(section: _Section) -> SystemModel:
    name = section.get("catalog", _string, None)
    text = section.get("dsl", _string, None)
    section.close()
    if (name is None) == (text is None):
        raise ConfigError("model needs exactly one of 'catalog' or 'dsl'")
    if text is not None:
        return _construct("model text", SystemModel.from_text, text, name="dsl")
    return _construct("model.catalog", catalog_model, name)


def _build_noise(section: _Section) -> NoiseSpec:
    family = section.get("family", _string)
    if family == "gaussian":
        build, dim = NoiseSpec.gaussian, section.get("dim", _integer)
        args = (dim, section.get("mean", _numbers, 0.0), section.get("std", _numbers, 1.0))
    elif family == "uniform":
        build, dim = NoiseSpec.uniform, section.get("dim", _integer)
        args = (dim, section.get("low", _numbers), section.get("high", _numbers))
    elif family == "atoms":
        build = NoiseSpec.atoms
        args = (section.get("values", _list(_numbers)), section.get("probs", _list(_number)))
    else:
        raise ConfigError(f"unknown noise family {family!r}")
    section.close()
    return _construct("noise spec", build, *args)


def _coord_init(section: _Section) -> CoordInit:
    kind = section.get("kind", _string)
    if kind == "uniform":
        coord = CoordInit(kind, section.get("low", _number), section.get("high", _number))
    elif kind == "gaussian":
        coord = CoordInit(kind, section.get("mean", _number), section.get("std", _number))
    elif kind == "fixed":
        coord = CoordInit(kind, section.get("value", _number))
    else:
        raise ConfigError(f"unknown init coord kind {kind!r}")
    section.close()
    return coord


def _build_init(section: _Section) -> InitSpec:
    kind = section.get("kind", _string)
    if kind == "uniform":
        build = InitSpec.uniform_box
        args = (section.get("low", _numbers), section.get("high", _numbers))
    elif kind == "gaussian":
        mean = section.get("mean", _numbers)
        build, args = InitSpec.gaussian, (np.size(mean), mean, section.get("std", _numbers))
    elif kind == "fixed":
        build, args = InitSpec.fixed, (section.get("values", _numbers),)
    elif kind == "coords":
        build, args = InitSpec, (tuple(_coord_init(c) for c in section.get("coords", _objects)),)
    else:
        raise ConfigError(f"unknown init kind {kind!r}")
    section.close()
    return _construct("init spec", build, *args)


def _build_policy(section: _Section, model: SystemModel, noise: NoiseSpec) -> CodingPolicy:
    kind = section.get("kind", _string)
    if kind == "null":
        build, args, options = null_policy, (section.get("m", _integer), model.control_dim), {}
    elif kind == "uniform_quantizer":
        build = uniform_quantizer_policy
        args = (
            model,
            section.get("box_low", _numbers),
            section.get("box_high", _numbers),
            section.get("bits_per_axis", _bits),
        )
        options = {"m": section.get("m", _integer, None)}
    elif kind == "zoom":
        build = zoom_policy
        args = (
            model,
            section.get("m", _integer),
            section.get("alpha", _number),
            section.get("beta", _number),
            section.get("initial_halfwidth", _number),
        )
        options = {
            "cells_per_axis": section.get("cells_per_axis", _integers, None),
            "center": section.get("center", _numbers, None),
        }
    else:
        raise ConfigError(f"unknown policy kind {kind!r}")
    if build is not null_policy:  # the options both grid quantizers share
        options.update(target=section.get("target", _numbers, None), noise_mean=noise.mean)
    section.close()
    return _construct("policy spec", build, *args, **options)


def _build_partition(section: _Section, dim: int) -> Partition:
    """A partition of the ``dim``-dimensional space it is used on."""
    low, high = section.get("low", _numbers), section.get("high", _numbers)
    cells = section.get("cells_per_axis", _integers)
    section.close()
    partition = _construct(f"{section.path} spec", Partition, low, high, cells)
    if partition.dim != dim:
        raise ConfigError(f"{section.path} has dim {partition.dim}, expected {dim}")
    return partition


def _build_gamma(entries: list[_Section], n: int) -> GammaDeclaration:
    subsets = []
    for entry in entries:
        p, c_p = entry.get("p", _list(_integer)), entry.get("c_p", _number)
        entry.close()
        subsets.append(_construct(entry.path, IndexSubset, p=p, n=n, c_p=c_p))
    return _construct("gamma declaration", GammaDeclaration, tuple(subsets))


class Experiment:
    """Validated experiment: constructed objects plus per-subcommand sections."""

    def __init__(self, raw: dict, overrides: dict):
        self.raw = raw
        top = _Section(raw)

        def pick(key, kind, default=None):
            value = top.get(key, kind, default)
            if overrides.get(key) is not None:
                return kind(overrides[key], key)
            if value is None:
                raise ConfigError(f"missing top-level key {key!r} (or pass the matching flag)")
            return value

        self.seed = pick("seed", _seed, 0)
        self.horizon = pick("horizon", _count)
        self.paths = pick("paths", _count)
        self.out_dir = top.get("out_dir", _string, None)
        self.burn_in_fraction = top.get("burn_in_fraction", _number, 0.1)
        if not (0.0 <= self.burn_in_fraction < 1.0):
            raise ConfigError("burn_in_fraction must lie in [0, 1)")
        model, noise, init, policy = (top.get(k, _object) for k in ("model", "noise", "init", "policy"))
        partition = top.get("partition", _object, None)
        gamma = top.get("gamma", _objects, None)
        # each read by the subcommand that uses it
        self.bound, self.falsify, self.entropy, self.diagnose = (
            top.get(k, _object, None) for k in ("bound", "falsify", "entropy", "diagnose")
        )
        top.close()

        self.model = _build_model(model)
        self.noise = _build_noise(noise)
        self.init = _build_init(init)
        if self.noise.dim != self.model.noise_dim:
            raise ConfigError(
                f"noise dim {self.noise.dim} does not match model noise dim {self.model.noise_dim}"
            )
        if self.init.dim != self.model.n:
            raise ConfigError(f"init dim {self.init.dim} does not match state dim {self.model.n}")
        self.policy = _build_policy(policy, self.model, self.noise)
        self.partition = None if partition is None else _build_partition(partition, self.model.n)
        self.gamma = None if gamma is None else _build_gamma(gamma, self.model.n)

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


def _simulate(exp: Experiment, verbose: bool, run, *args):
    """``run(model, policy, noise, init, horizon, *args)``, which allocates its arrays
    before any per-path work: memory it cannot allocate is a config error naming paths."""
    _log(verbose, f"simulating {exp.paths} paths of {exp.horizon} steps (seed {exp.seed})")
    try:
        return run(exp.model, exp.policy, exp.noise, exp.init, exp.horizon, *args)
    except MemoryError as exc:
        raise ConfigError(f"bad paths: {exc}") from None


def _fold_and_measure(exp: Experiment, verbose: bool, tally: VisitTally):
    """The paths of ``simulate``, folded into ``tally`` block by block and
    never held whole: their pooled post-burn-in measure (``NoSampleError`` if
    no path has a sample) and each path's divergence step, None if none."""
    for block in _simulate(exp, verbose, closed_loop_blocks, PathSeeds(exp.seed, exp.paths)):
        tally.add(block)
    measure = empirical_measure(tally)
    return measure, [None if d < 0 else d for d in block.diverged_at.tolist()]


# --------------------------------------------------------------------------
# Subcommands: each returns its findings, empty on success, for main to report

def cmd_simulate(exp: Experiment, out: Path, verbose: bool) -> list[str]:
    trajs = _simulate(exp, verbose, batch_rollout, exp.paths, exp.seed)
    for k, traj in enumerate(trajs):
        trajectory_to_csv(traj, out / f"trajectory_{k:04d}.csv")
    summary = summarize_divergence([traj.diverged_at for traj in trajs])
    summary["seed"] = exp.seed
    summary["horizon"] = exp.horizon
    _write_json(out / "simulate_summary.json", summary)
    _log(verbose, f"divergence rate {summary['divergence_rate']:.3f}")
    return []


def cmd_bound(exp: Experiment, out: Path, verbose: bool) -> list[str]:
    if exp.partition is None or exp.gamma is None:
        raise ConfigError("the bound subcommand needs 'partition' and 'gamma' sections")
    section = exp.bound or _Section({}, "bound")
    n_mc = section.get("n_mc", _count, 100_000)
    crn = section.get("common_random_numbers", _boolean, True)
    mc_seed = section.get("seed", _seed, exp.seed)
    section.close()

    findings = []

    falsify = exp.falsify
    if falsify is not None:
        halfwidth = falsify.get("box_halfwidth", _number, 100.0)
        cauchy_fraction = falsify.get("cauchy_fraction", _number, 0.1)
        samples = falsify.get("samples", _count, 100_000)
        falsify.close()
        sampler = _construct(
            "falsify spec", default_falsification_sampler, exp.model, halfwidth, cauchy_fraction
        )
        # paths the rollout cannot hold fail before falsification writes its file; the arrays
        # are freed at once, since arrays held across falsification raise its peak
        _construct("paths", check_storage, exp.model, exp.noise, exp.horizon, exp.paths)
        falsification = []
        subsets = exp.gamma.subsets
        results = falsify_floors(exp.model, subsets, sampler, n=samples, seed=mc_seed)
        for subset, result in zip(subsets, results):
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

    try:
        # refined_bound needs only the measure: the paths fold into one pooled count
        measure = _fold_and_measure(exp, verbose, VisitTally(exp.partition, exp.burn_in))[0]
        for text in measure.warnings:
            _log(verbose, f"warning: {text}")
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
    except (NoSampleError, OverflowMassError, SingularMatrixError) as exc:
        _write_json(out / "bound_report.json", {"error": str(exc)})
        return findings + [str(exc)]

    _write_json(out / "bound_report.json", dataclasses.asdict(report))
    for estimate in report.subsets:
        if estimate.error is not None:
            findings.append(f"subset p={estimate.p}: {estimate.error}")
    if report.violation:
        findings.append(
            f"max bound {report.max_bound:.6g} exceeds capacity {report.capacity:.6g} "
            "by more than two standard errors"
        )
    if not findings:
        _log(verbose, f"max_bound {report.max_bound:.6g} at p={list(report.argmax)}")
    return findings


def cmd_entropy(exp: Experiment, out: Path, verbose: bool) -> list[str]:
    section = exp.entropy
    if section is None:
        raise ConfigError("the entropy subcommand needs an 'entropy' section")
    horizons = section.get("horizons", _list(_count))
    if not horizons:
        raise ConfigError("entropy.horizons must list at least one horizon")
    if len(set(horizons)) < len(horizons):
        raise ConfigError(f"entropy.horizons must be distinct, got {horizons}")
    n_scenarios = section.get("scenarios", _count)
    split = section.get("split", _integer, exp.model.n)
    if not (1 <= split <= exp.model.n):
        raise ConfigError(f"entropy split must lie in [1, {exp.model.n}]")
    state_part = _build_partition(section.get("state_partition", _object), exp.model.n)
    noise_part = section.get("noise_partition", _object, None)
    if noise_part is not None:
        noise_part = _build_partition(noise_part, exp.model.noise_dim)
    rho, epsilon = section.get("rho", _number, 0.5), section.get("epsilon", _number, 0.05)
    dump_matrix = section.get("dump_matrix", _boolean, False)
    section.close()
    template = _construct("entropy template", SpanningTemplate, state_part, noise_part, rho, epsilon)

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
            matrix_sink=matrices if dump_matrix else None,
        )
    except ThresholdConstraintError as exc:
        raise ConfigError(f"entropy thresholds: {exc}") from exc
    except MemoryError as exc:
        raise ConfigError(f"bad entropy.scenarios: {exc}") from None
    except NoCandidatesError as exc:
        return [str(exc)]
    entropy_curve_to_csv(points, out / "entropy_curve.csv")
    for horizon, matrix in matrices.items():
        rows = map(tuple, matrix.tolist())
        write_csv(out / f"satisfaction_T{horizon}.csv", None, "d" * matrix.shape[1], [rows], "\n")
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
    return []


def cmd_diagnose(exp: Experiment, out: Path, verbose: bool) -> list[str]:
    if exp.partition is None:
        raise ConfigError("the diagnose subcommand needs a 'partition' section")
    section = exp.diagnose or _Section({}, "diagnose")
    checkpoints = section.get("checkpoints", _list(_count), None)
    section.close()
    if checkpoints is not None and len(set(checkpoints)) < len(checkpoints):
        raise ConfigError(f"diagnose.checkpoints must be distinct, got {checkpoints}")
    lead_checkpoints = DEFAULT_CHECKPOINTS if checkpoints is None else checkpoints
    tally = _construct("paths", VisitTally, exp.partition, exp.burn_in, exp.paths, lead_checkpoints)
    try:
        measure, diverged_at = _fold_and_measure(exp, verbose, tally)
    except NoSampleError as exc:
        _write_json(out / "diagnose_summary.json", {"error": str(exc)})
        return [str(exc)]
    measure_to_csv(measure, out / "measure.csv")

    dispersion = ergodicity_dispersion(tally)
    rows = zip(exp.partition.cell_labels(), dispersion)
    write_csv(out / "dispersion.csv", ["cell", "dispersion"], "sg", [rows], "\n")

    checkpoints = tally.checkpoints(checkpoints)  # the measure has a sample, so a lead path exists
    curves = frequency_convergence(tally, checkpoints)
    header = ["T", *exp.partition.cell_labels("cell")]
    rows = ((checkpoint, *curve) for checkpoint, curve in zip(checkpoints, curves))
    write_csv(out / "convergence.csv", header, "d" + "g" * exp.partition.n_cells, [rows], "\n")

    summary = {
        "overflow_mass": measure.overflow_mass,
        "max_dispersion": float(np.max(dispersion)),
        "n_samples": measure.n_samples,
        "burn_in": exp.burn_in,
        "divergence": summarize_divergence(diverged_at),
        "warnings": measure.warnings,
    }
    _write_json(out / "diagnose_summary.json", summary)
    _log(verbose, f"overflow mass {measure.overflow_mass:.4f}, max dispersion {summary['max_dispersion']:.4f}")
    return []


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
        out = args.out or exp.out_dir
        if out is None:
            raise ConfigError("no output directory: pass --out or set out_dir in the config")
        out_path = Path(out)
        out_path.mkdir(parents=True, exist_ok=True)
        findings = _COMMANDS[args.command](exp, out_path, args.verbose)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    for finding in findings:
        print(f"assumption violation: {finding}", file=sys.stderr)
    return EXIT_VIOLATION if findings else EXIT_OK


def entry_point() -> None:
    sys.exit(main(sys.argv[1:]))


if __name__ == "__main__":
    entry_point()
