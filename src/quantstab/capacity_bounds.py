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
from typing import Optional, Sequence, Union

import numpy as np

from .dynamics import (
    JACOBIAN_BLOCK,
    BelowFloorError,
    GammaDeclaration,
    IndexSubset,
    NonFiniteMatrixError,
    SingularMatrixError,
    SystemModel,
    log2_abs_det_many,
)
from .ergodics import MAX_OVERFLOW_MASS, EmpiricalMeasure
from .simulation import NoiseSpec, Seed

__all__ = [
    "SubsetEstimate",
    "BoundReport",
    "subset_bound",
    "refined_bound",
    "classical_bound",
    "linear_closed_form",
]

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


def _named(
    subset: IndexSubset, exc: SingularMatrixError, i: int, xs: np.ndarray, ws: np.ndarray
) -> SingularMatrixError:
    """The subset's error for a failed determinant at sample ``i``, naming the point."""
    at = f"for p={subset.p} at x={xs[i].tolist()}, w={ws[i].tolist()}"
    if isinstance(exc, NonFiniteMatrixError):
        return NonFiniteMatrixError(f"non-finite subset Jacobian {at}", i)
    return SingularMatrixError(
        f"singular subset Jacobian {at}: declared determinant floor is violated", i
    )


def _subset_values(
    model: SystemModel, subsets: Sequence[IndexSubset], xs: np.ndarray, ws: np.ndarray
) -> list[Union[np.ndarray, SingularMatrixError]]:
    """log2 |det| of each subset's Jacobian block at every row of (xs, ws), or
    the error naming the sample where it failed.

    The Jacobians are evaluated ``JACOBIAN_BLOCK`` rows at a time and every
    subset reads its block off them, so the full (m, n, n) array never exists.
    Values and errors are those of ``log2_abs_det_many`` on that array: a
    subset stops at its first |det| below the floor; one whose only failure
    so far is a non-finite or ``slogdet``-singular row keeps scanning later
    blocks for such a determinant, which would be reported first.
    """
    m = len(xs)
    values: list[Optional[np.ndarray]] = [np.empty(m) for _ in subsets]
    failures: list[Optional[tuple[SingularMatrixError, int]]] = [None] * len(subsets)
    for start in range(0, m, JACOBIAN_BLOCK):
        live = [k for k, f in enumerate(failures) if not (f and isinstance(f[0], BelowFloorError))]
        if not live:
            break
        rows = slice(start, start + JACOBIAN_BLOCK)
        with np.errstate(over="ignore", invalid="ignore"):  # an overflow is a subset error
            jacs = model.jacobian_many(xs[rows], ws[rows])
        for k in live:
            try:
                block_values = log2_abs_det_many(jacs, subsets[k].p0)
            except SingularMatrixError as exc:
                if failures[k] is None or isinstance(exc, BelowFloorError):
                    failures[k] = (exc, start + exc.index)
                    values[k] = None
                continue
            if failures[k] is None:
                values[k][rows] = block_values
        del jacs
    return [
        values[k] if failures[k] is None else _named(subset, *failures[k], xs, ws)
        for k, subset in enumerate(subsets)
    ]


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
    """Monte Carlo mean and standard error of log2 |det| for one subset: the
    one-subset case of the block pass in :func:`refined_bound`."""
    [values] = _subset_values(model, [subset], *_draw_samples(measure, noise, n_mc, seed))
    if isinstance(values, SingularMatrixError):
        raise values
    return _mean_stderr(values)


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

    Each draw of (x, w) samples goes through one block pass: its Jacobians
    are evaluated ``dynamics.JACOBIAN_BLOCK`` rows at a time, the block that
    floor falsification draws, and every subset of the draw reads its
    determinants off each block. Memory is about ``(n + noise_dim +
    subsets) * 8`` bytes per sample. Per-subset failures (a sampled singular
    or non-finite Jacobian) are recorded on that subset's entry without
    aborting the others. Ties in the maximum go to the lexicographically
    smallest subset so reports are deterministic.
    """
    full = IndexSubset(p=tuple(range(1, model.n + 1)), n=model.n)
    subsets = list(gamma)

    def block_pass(evaluated: list[IndexSubset], draw_seed: Seed) -> list[SubsetEstimate]:
        # the samples are dropped once the pass returns, before the statistics
        values = _subset_values(model, evaluated, *_draw_samples(measure, noise, n_mc, draw_seed))
        return [
            SubsetEstimate(s.p, None, None, n_mc, error=str(v))
            if isinstance(v, SingularMatrixError)
            else SubsetEstimate(s.p, *_mean_stderr(v), n_mc)
            for s, v in zip(evaluated, values)
        ]

    if common_random_numbers:
        # one draw and one pass; a declared full-state subset (matched on p,
        # as c_p may differ) gives the classical bound without another column
        extra = [] if any(s.p == full.p for s in subsets) else [full]
        results = block_pass(subsets + extra, seed)
    else:
        # one draw and one pass per subset, and one more for the full state
        results = [
            block_pass([s], _derived_seed(seed, tag))[0] for tag, s in enumerate(subsets + [full])
        ]
    estimates = tuple(results[: len(subsets)])
    # the appended full-state entry, or with common random numbers a declared one
    classical = next(e for e in reversed(results) if e.p == full.p).mean

    ok = [e for e in estimates if e.error is None]
    if not ok:
        raise SingularMatrixError(
            "every declared subset failed: " + "; ".join(e.error for e in estimates)
        )
    best = min(ok, key=lambda e: (-e.mean, e.p))

    violation = capacity is not None and best.mean > capacity + VIOLATION_STDERRS * best.stderr
    return BoundReport(
        subsets=estimates,
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
