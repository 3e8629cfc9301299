"""Empirical stand-ins for the asymptotic mean and frequency-convergence diagnostics.

The limiting state law is approximated by a time-averaged histogram over a box
partition (plus one overflow cell covering the rest of R^N). Every such
histogram, pooled or per path, sums the same per-path counts of post-burn-in
cell visits (``_visit_counts``). Ergodicity is diagnosed, never certified: the
dispersion of per-path limit frequencies is an empirical proxy, and it cannot
distinguish path-frequency limits from the mass of the abstract asymptotic
mean they are standing in for.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .policies import cell_coords, cell_count, cell_numbers, cell_widths
from .simulation import Trajectory

__all__ = [
    "Partition",
    "EmpiricalMeasure",
    "empirical_measure",
    "frequency_convergence",
    "ergodicity_dispersion",
    "measure_to_csv",
]

# the 1% overflow rule: a measure above it reports a warning, a bound refuses one at or above it
MAX_OVERFLOW_MASS = 0.01


@dataclass(frozen=True, eq=False)  # compared by identity, never array by array
class Partition:
    """Uniform grid over a box plus one overflow cell covering everything else."""

    low: np.ndarray
    high: np.ndarray
    cells_per_axis: tuple[int, ...]
    width: np.ndarray = field(init=False, repr=False)  # finite and positive per axis

    def __post_init__(self):
        low = np.atleast_1d(np.asarray(self.low, float))
        high = np.atleast_1d(np.asarray(self.high, float))
        cells = tuple(int(c) for c in np.broadcast_to(self.cells_per_axis, low.shape))
        if low.shape != high.shape or np.any(high <= low):
            raise ValueError("partition box is degenerate")
        if any(c < 1 for c in cells):
            raise ValueError("need at least one cell per axis")
        cell_count(cells)  # raises on a grid too fine to hold per-cell arrays
        object.__setattr__(self, "width", cell_widths(low, high, cells))
        object.__setattr__(self, "low", low)
        object.__setattr__(self, "high", high)
        object.__setattr__(self, "cells_per_axis", cells)

    @property
    def dim(self) -> int:
        return len(self.low)

    @property
    def n_boxes(self) -> int:
        return cell_count(self.cells_per_axis)

    @property
    def overflow_index(self) -> int:
        return self.n_boxes

    @property
    def n_cells(self) -> int:
        """Grid cells plus the overflow cell."""
        return self.n_boxes + 1

    def cell_indices(self, states: np.ndarray) -> np.ndarray:
        """Map state rows to cell indices; anything outside (or non-finite) is overflow.

        Cells are half-open, ``[lo, hi)`` per axis, numbered row-major. Raises
        ``ValueError`` unless the rows have one entry per axis.
        """
        states = np.atleast_2d(np.asarray(states, float))
        if states.ndim != 2 or states.shape[1] != self.dim:
            raise ValueError(f"need rows of width {self.dim}, got shape {states.shape}")
        in_box = np.logical_and.reduce((states >= self.low) & (states < self.high), axis=1)
        # outside rows are scaled from the low corner itself: 0, never inf or nan
        scaled = (np.where(in_box[:, None], states, self.low) - self.low) / self.width
        return np.where(in_box, cell_numbers(scaled, self.cells_per_axis), self.overflow_index)

    def cell_bounds(self, index: int) -> tuple[np.ndarray, np.ndarray]:
        if index == self.overflow_index:
            return (np.full(self.dim, -np.inf), np.full(self.dim, np.inf))
        multi = cell_coords(index, self.cells_per_axis)
        return (self.low + multi * self.width, self.low + (multi + 1) * self.width)


@dataclass(frozen=True)
class EmpiricalMeasure:
    """Cell weights from pooled post-burn-in state frequencies."""

    partition: Partition
    weights: np.ndarray  # (n_cells,), final entry is the overflow cell
    n_samples: int
    burn_in: int

    def __post_init__(self):
        weights = np.asarray(self.weights, float)
        if weights.shape != (self.partition.n_cells,):
            raise ValueError("one weight per cell (including overflow) required")
        if np.any(weights < 0) or abs(weights.sum() - 1.0) > 1e-12:
            raise ValueError("weights must be nonnegative and sum to 1")
        object.__setattr__(self, "weights", weights)

    @property
    def overflow_mass(self) -> float:
        return float(self.weights[-1])

    @property
    def warnings(self) -> list[str]:
        """The 1% overflow rule's findings as texts (Python's ``warnings`` is
        not used): one if every sample overflowed or the overflow mass exceeds
        ``MAX_OVERFLOW_MASS``, else none."""
        mass = self.overflow_mass
        if mass == 1.0:
            return ["all samples fell in the overflow cell; partition box is too small"]
        if mass > MAX_OVERFLOW_MASS:
            return [
                f"overflow mass {mass:.3f} exceeds {MAX_OVERFLOW_MASS:.0%}; "
                "bound estimates over this measure are untrustworthy"
            ]
        return []

    def cell_cdf(self) -> np.ndarray:
        """Cumulative in-box cell weights scaled to end at 1 (overflow
        excluded): the table ``Generator.choice(p=...)`` builds and searches."""
        in_box = self.weights[:-1]
        total = in_box.sum()
        if total <= 0.0:
            raise ValueError("measure has no in-box mass to sample from")
        cdf = (in_box / total).cumsum()
        cdf /= cdf[-1]
        return cdf

    def draw_states(
        self,
        cdf: np.ndarray,
        cell_rng: np.random.Generator,
        offset_rng: np.random.Generator,
        count: int,
    ) -> np.ndarray:
        """``count`` states: ``count`` doubles of ``cell_rng`` pick cells off
        ``cdf`` (see :meth:`cell_cdf`) as ``choice`` would, then ``count * dim``
        doubles of ``offset_rng`` place each state uniformly in its cell."""
        cells = cdf.searchsorted(cell_rng.random(count), side="right")
        # low + (cell coords + offsets) * width, built in the offsets array:
        # IEEE sums and products commute, so the bits are the same
        states = offset_rng.uniform(0.0, 1.0, (count, self.partition.dim))
        for axis, coords in enumerate(np.unravel_index(cells, self.partition.cells_per_axis)):
            states[:, axis] += coords
        states *= self.partition.width
        states += self.partition.low
        return states

    def sample_states(self, rng: np.random.Generator, count: int) -> np.ndarray:
        """Draw states cell-by-weight, uniform within the cell (overflow
        excluded): :meth:`draw_states` with one generator for both parts."""
        return self.draw_states(self.cell_cdf(), rng, rng, count)


def _visit_counts(trajectories: Sequence[Trajectory], partition: Partition, burn_in: int):
    """Per-cell visit counts of each path's post-burn-in states x_burn ..
    x_{S-1}, for every path that has one. The final state is not a visited
    step and is excluded, so one path's frequencies match
    :func:`frequency_convergence` at its last checkpoint."""
    for traj in trajectories:
        states = traj.x[burn_in: traj.steps]
        if len(states):
            yield np.bincount(partition.cell_indices(states), minlength=partition.n_cells)


def empirical_measure(
    trajectories: Sequence[Trajectory], partition: Partition, burn_in: int = 0
) -> EmpiricalMeasure:
    """Pooled histogram of post-burn-in states across paths: the summed visit
    counts over their total. Overflow findings are in the measure's
    :attr:`~EmpiricalMeasure.warnings`."""
    if not trajectories:
        raise ValueError("need at least one trajectory")
    if burn_in < 0 or burn_in >= min(t.horizon for t in trajectories):
        raise ValueError(f"burn-in {burn_in} must be smaller than the horizon")
    counts = np.zeros(partition.n_cells, dtype=np.int64)
    for path_counts in _visit_counts(trajectories, partition, burn_in):
        counts += path_counts  # in place: at most two per-cell arrays live at once
    total = int(counts.sum())
    if total == 0:
        raise ValueError("no post-burn-in samples available (all paths truncated early?)")
    return EmpiricalMeasure(partition, counts / total, total, burn_in)


def frequency_convergence(
    traj: Trajectory, partition: Partition, checkpoints: Sequence[int]
) -> np.ndarray:
    """Running per-cell occupancy averages (1/T') sum_{t<T'} 1_cell(x_t).

    Returns an array of shape (len(checkpoints), n_cells).
    """
    checkpoints = [int(c) for c in checkpoints]
    if any(c < 1 or c > traj.steps for c in checkpoints):
        raise ValueError(f"checkpoints must lie in [1, {traj.steps}]")
    indices = partition.cell_indices(traj.x[: traj.steps])
    out = np.empty((len(checkpoints), partition.n_cells))
    for row, c in enumerate(checkpoints):
        out[row] = np.bincount(indices[:c], minlength=partition.n_cells) / c
    return out


def ergodicity_dispersion(
    trajectories: Sequence[Trajectory], partition: Partition, burn_in: int = 0
) -> np.ndarray:
    """Across-path standard deviation of terminal per-cell frequencies: each
    path's post-burn-in visit counts over their total.

    Small values are consistent with ergodic behaviour (all paths share one
    frequency limit); large values are evidence against it. A single path
    gives zero by convention.
    """
    freqs = [counts / counts.sum() for counts in _visit_counts(trajectories, partition, burn_in)]
    if not freqs:
        raise ValueError("no path has post-burn-in samples")
    return np.std(np.asarray(freqs), axis=0, ddof=0)


def measure_to_csv(measure: EmpiricalMeasure, path) -> None:
    """Cell bounds and weights, one row per cell, overflow last."""
    part = measure.partition
    header = (
        ["cell"]
        + [f"low{i}" for i in range(1, part.dim + 1)]
        + [f"high{i}" for i in range(1, part.dim + 1)]
        + ["weight"]
    )
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for i in range(part.n_cells):
            lo, hi = part.cell_bounds(i)
            name = "overflow" if i == part.overflow_index else str(i)
            writer.writerow(
                [name]
                + [format(v, ".17g") for v in lo]
                + [format(v, ".17g") for v in hi]
                + [format(measure.weights[i], ".17g")]
            )
