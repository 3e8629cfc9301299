"""Monte Carlo evaluation of channel-capacity lower bounds.

Each coordinate subset contributes the average of log2 |det| of its
sub-dynamics Jacobian, with states drawn from the empirical measure (cell by
weight, uniform within the cell) and noise drawn fresh from its law. The
refined bound is the maximum over the declared subsets; the classical bound is
the full-state subset. With common random numbers all subsets share one
(x, w) sample set, and one Jacobian evaluation on it, which turns
cross-subset differences into per-sample algebraic identities instead of
noisy estimates; a declared full-state subset then gives the classical bound
without a second evaluation.

The histogram surrogate for the asymptotic mean introduces a bias that is
reported as a caveat (overflow-mass warnings), not corrected.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .dynamics import (
    GammaDeclaration,
    IndexSubset,
    SingularMatrixError,
    SystemModel,
    log2_abs_det_many,
)
from .ergodics import EmpiricalMeasure
from .simulation import NoiseSpec, Seed

__all__ = [
    "SubsetEstimate",
    "BoundReport",
    "subset_bound",
    "refined_bound",
    "classical_bound",
    "linear_closed_form",
]

MAX_OVERFLOW_MASS = 0.01
VIOLATION_STDERRS = 2.0


@dataclass(frozen=True)
class SubsetEstimate:
    p: tuple[int, ...]
    mean: Optional[float]
    stderr: Optional[float]
    n_samples: int
    error: Optional[str] = None


@dataclass(frozen=True)
class BoundReport:
    """Per-subset estimates plus the maximizing subset and the classical bound.

    ``violation`` is set when the max estimate exceeds the capacity by more
    than two standard errors; it means the run is inconsistent with stabilized
    AMS-ergodic operation at this alphabet size, and is surfaced, not fatal.
    """

    subsets: tuple[SubsetEstimate, ...]
    max_bound: float
    argmax: tuple[int, ...]
    classical_bound: Optional[float]
    capacity: Optional[float]
    violation: bool


def _derived_seed(seed: Seed, tag: int) -> tuple[int, ...]:
    base = (int(seed),) if np.isscalar(seed) else tuple(int(v) for v in seed)
    return base + (tag,)


def _draw_samples(
    measure: EmpiricalMeasure, noise: NoiseSpec, n_mc: int, seed: Seed
) -> tuple[np.ndarray, np.ndarray]:
    if n_mc < 1:
        raise ValueError("need at least one Monte Carlo sample")
    if measure.overflow_mass >= MAX_OVERFLOW_MASS:
        raise ValueError(
            f"overflow mass {measure.overflow_mass:.3f} is too large to trust the estimate"
        )
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    xs = measure.sample_states(rng, n_mc)
    ws = noise.sample(rng, n_mc)
    return xs, ws


def _subset_values(
    subset: IndexSubset, xs: np.ndarray, ws: np.ndarray, jacs: np.ndarray
) -> np.ndarray:
    """log2 |det| of the subset's block of the full Jacobians ``jacs`` at (xs, ws)."""
    try:
        return log2_abs_det_many(jacs, subset.p0)
    except SingularMatrixError as exc:
        i = exc.index if exc.index is not None else 0
        raise SingularMatrixError(
            f"singular subset Jacobian for p={subset.p} at x={xs[i].tolist()}, "
            f"w={ws[i].tolist()}: declared determinant floor is violated"
        ) from exc


def _mean_stderr(values: np.ndarray) -> tuple[float, float]:
    mean = float(values.mean())
    if len(values) < 2:
        return mean, 0.0
    return mean, float(values.std(ddof=1) / math.sqrt(len(values)))


def subset_bound(
    model: SystemModel,
    subset: IndexSubset,
    measure: EmpiricalMeasure,
    noise: NoiseSpec,
    n_mc: int,
    seed: Seed = 0,
) -> tuple[float, float]:
    """Monte Carlo mean and standard error of log2 |det| for one subset."""
    xs, ws = _draw_samples(measure, noise, n_mc, seed)
    return _mean_stderr(_subset_values(subset, xs, ws, model.jacobian_many(xs, ws)))


def classical_bound(
    model: SystemModel,
    measure: EmpiricalMeasure,
    noise: NoiseSpec,
    n_mc: int,
    seed: Seed = 0,
) -> tuple[float, float]:
    """Full-state bound: the subset bound with p = {1..N}."""
    full = IndexSubset(p=tuple(range(1, model.n + 1)), n=model.n)
    return subset_bound(model, full, measure, noise, n_mc, seed)


def refined_bound(
    model: SystemModel,
    gamma: GammaDeclaration,
    measure: EmpiricalMeasure,
    noise: NoiseSpec,
    n_mc: int,
    seed: Seed = 0,
    capacity: Optional[float] = None,
    common_random_numbers: bool = True,
) -> BoundReport:
    """Evaluate every declared subset and report the maximum.

    Per-subset failures (a sampled singular Jacobian) are recorded on that
    subset's entry without aborting the others. Ties in the maximum go to the
    lexicographically smallest subset so reports are deterministic.
    """
    full = IndexSubset(p=tuple(range(1, model.n + 1)), n=model.n)

    def draw(draw_seed: Seed) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        xs, ws = _draw_samples(measure, noise, n_mc, draw_seed)
        return xs, ws, model.jacobian_many(xs, ws)

    # with common random numbers every subset, the full state included, reads
    # its block off one Jacobian array
    shared = draw(seed) if common_random_numbers else None

    def values(subset: IndexSubset, tag: int) -> np.ndarray:
        sample = shared if shared is not None else draw(_derived_seed(seed, tag))
        return _subset_values(subset, *sample)

    estimates: list[SubsetEstimate] = []
    for i, subset in enumerate(gamma):
        try:
            mean, stderr = _mean_stderr(values(subset, i))
            estimates.append(SubsetEstimate(subset.p, mean, stderr, n_mc))
        except SingularMatrixError as exc:
            estimates.append(SubsetEstimate(subset.p, None, None, n_mc, error=str(exc)))

    ok = [e for e in estimates if e.error is None]
    if not ok:
        raise SingularMatrixError(
            "every declared subset failed: " + "; ".join(e.error for e in estimates)
        )
    best = min(ok, key=lambda e: (-e.mean, e.p))

    declared_full = next((e for e in estimates if e.p == full.p), None)
    if shared is not None and declared_full is not None:
        # its values are the full state's, read off the same Jacobian array
        classical = declared_full.mean
    else:
        try:
            classical, _ = _mean_stderr(values(full, len(gamma.subsets)))
        except SingularMatrixError:
            classical = None

    violation = capacity is not None and best.mean > capacity + VIOLATION_STDERRS * best.stderr
    return BoundReport(
        subsets=tuple(estimates),
        max_bound=best.mean,
        argmax=best.p,
        classical_bound=classical,
        capacity=capacity,
        violation=bool(violation),
    )


def linear_closed_form(a: Sequence[Sequence[float]]) -> float:
    """Sum of log2 |eigenvalue| over the unstable eigenvalues of a linear map."""
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    eigs = np.linalg.eigvals(a)
    mags = np.abs(eigs)
    return float(np.sum(np.log2(mags[mags > 1.0])))
