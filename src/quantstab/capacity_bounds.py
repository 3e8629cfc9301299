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

The histogram surrogate for the asymptotic mean introduces a bias (a
nonlinear Jacobian is averaged over uniform in-cell states, not over the
states the paths visit) that is neither reported nor corrected. The
overflow-mass warnings measure a different quantity: the mass outside the
partition box.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .dynamics import (
    BelowFloorError,
    GammaDeclaration,
    IndexSubset,
    NonFiniteMatrixError,
    SingularMatrixError,
    SystemModel,
    log2_abs_det_many,
    sample_pass,
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


def _sampler(
    measure: EmpiricalMeasure, noise: NoiseSpec, n_mc: int, seed: Seed
) -> Callable[[int], tuple[np.ndarray, np.ndarray]]:
    """``sample(count)``: the next ``count`` (x, w) rows of one ``n_mc``-row draw.

    Stream layout: the whole draw is one PCG64 stream seeded by
    ``SeedSequence(seed)`` that holds ``n_mc`` doubles picking the cells, then
    ``n_mc * dim`` doubles placing the states in them, then the noise, as
    ``sample_states(rng, n_mc)`` followed by ``noise.sample(rng, n_mc)`` on
    ``default_rng(SeedSequence(seed))`` reads it. Each part here reads its own
    generator on that stream, advanced to where the part starts (0, ``n_mc``
    and ``n_mc * (1 + dim)``; ``PCG64.advance`` acts as if that many draws had
    occurred, and a double is one draw). So consecutive calls concatenate to
    the whole draw bit for bit, and the noise, last, may take any number of
    draws per row.
    """
    if n_mc < 1:
        raise ValueError("need at least one Monte Carlo sample")
    if measure.overflow_mass >= MAX_OVERFLOW_MASS:
        raise ValueError(
            f"overflow mass {measure.overflow_mass:.3f} is too large to trust the estimate"
        )
    cdf = measure.cell_cdf()
    seq = np.random.SeedSequence(seed)
    cell_rng, offset_rng, noise_rng = (
        np.random.Generator(np.random.PCG64(seq).advance(start))
        for start in (0, n_mc, n_mc * (1 + measure.partition.dim))
    )
    return lambda count: (
        measure.draw_states(cdf, cell_rng, offset_rng, count), noise.sample(noise_rng, count)
    )


def _named(
    subset: IndexSubset, exc: SingularMatrixError, i: int, x: np.ndarray, w: np.ndarray
) -> SingularMatrixError:
    """The subset's error for a failed determinant at sample ``i`` = (x, w)."""
    at = f"for p={subset.p} at x={x.tolist()}, w={w.tolist()}"
    if isinstance(exc, NonFiniteMatrixError):
        return NonFiniteMatrixError(f"non-finite subset Jacobian {at}", i)
    return SingularMatrixError(
        f"singular subset Jacobian {at}: declared determinant floor is violated", i
    )


Moments = tuple[int, float, float]  # (count, mean, sum of squared deviations)


def _fold(moments: Moments, values: np.ndarray) -> Moments:
    """Merge one block of values into running moments (Chan, Golub & LeVeque,
    Am. Stat. 37(3), 1983). From ``(0, 0.0, 0.0)`` the first block gives
    numpy's own figures: the mean ``values.mean()`` and the squared
    deviations that ``values.std()`` sums."""
    count = len(values)
    mean = values.mean()
    m2 = np.square(values - mean).sum()
    n_a, mean_a, m2_a = moments
    total = n_a + count
    delta = mean - mean_a
    merged_mean = mean_a + delta * (count / total)
    return total, merged_mean, m2_a + m2 + delta * delta * (n_a * count / total)


def _subset_values(
    model: SystemModel, subsets: Sequence[IndexSubset], sample: Callable, n: int
) -> list[Union[Moments, SingularMatrixError]]:
    """Moments of log2 |det| of each subset's Jacobian block over ``n`` rows
    of ``sample`` in one ``sample_pass``, or the error naming the sample where
    it failed: the error of ``log2_abs_det_many`` on the whole array. A subset
    stops at its first |det| below the floor; one whose only failure so far
    is a non-finite or ``slogdet``-singular row keeps scanning later blocks
    for such a determinant, which would be reported first.
    """
    moments: list[Moments] = [(0, 0.0, 0.0)] * len(subsets)
    failures: list[Optional[tuple]] = [None] * len(subsets)

    def fold(k, start, xs, ws, jacs):
        try:
            values = log2_abs_det_many(jacs, subsets[k].p0)
        except SingularMatrixError as exc:
            if failures[k] is None or isinstance(exc, BelowFloorError):
                i = exc.index
                failures[k] = (exc, start + i, xs[i].copy(), ws[i].copy())
            return isinstance(exc, BelowFloorError)
        if failures[k] is None:
            moments[k] = _fold(moments[k], values)
        return False

    sample_pass(model, sample, n, len(subsets), fold)
    return [
        moments[k] if failures[k] is None else _named(subset, *failures[k])
        for k, subset in enumerate(subsets)
    ]


def _mean_stderr(moments: Moments) -> tuple[float, float]:
    count, mean, m2 = moments
    if count < 2:
        return float(mean), 0.0
    return float(mean), float(np.sqrt(m2 / (count - 1)) / math.sqrt(count))


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
    [moments] = _subset_values(model, [subset], _sampler(measure, noise, n_mc, seed), n_mc)
    if isinstance(moments, SingularMatrixError):
        raise moments
    return _mean_stderr(moments)


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

    Each draw of (x, w) samples is one ``dynamics.sample_pass``, the pass of
    floor falsification: each block is drawn, its Jacobians are evaluated
    once with numpy's floating-point warnings off, and every subset of the
    draw folds its determinants into a running mean and sum of squared
    deviations. Up to one block the mean and stderr are numpy's; past it the
    block merge may differ from them in the last bits. Per-subset failures (a
    sampled singular or non-finite Jacobian) are recorded on that subset's
    entry without aborting the others. Ties in the maximum go to the
    lexicographically smallest subset so reports are deterministic.
    """
    full = IndexSubset(p=tuple(range(1, model.n + 1)), n=model.n)
    subsets = list(gamma)

    def block_pass(evaluated: list[IndexSubset], draw_seed: Seed) -> list[SubsetEstimate]:
        moments = _subset_values(model, evaluated, _sampler(measure, noise, n_mc, draw_seed), n_mc)
        return [
            SubsetEstimate(s.p, None, None, n_mc, error=str(v))
            if isinstance(v, SingularMatrixError)
            else SubsetEstimate(s.p, *_mean_stderr(v), n_mc)
            for s, v in zip(evaluated, moments)
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
