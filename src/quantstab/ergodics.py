"""Empirical stand-ins for the asymptotic mean and frequency-convergence diagnostics.

The limiting state law is approximated by a time-averaged histogram over a box
partition (plus one overflow cell covering the rest of R^N). Every such
histogram, pooled or per path, counts the cells of the visited rows
(``LoopBlock.visited``), block by block (``VisitTally.add``); a held trajectory
folds as its one-path block (``Trajectory.block``). The readers take the tally
alone, its partition and burn-in with it. Ergodicity is diagnosed, never
certified: the dispersion of per-path limit frequencies is an empirical proxy,
and it cannot distinguish path-frequency limits from the mass of the abstract
asymptotic mean they are standing in for.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .policies import cell_coords, cell_count, cell_numbers, cell_widths
from .simulation import LoopBlock, write_csv

__all__ = [
    "Partition",
    "EmpiricalMeasure",
    "NoSampleError",
    "VisitTally",
    "empirical_measure",
    "frequency_convergence",
    "ergodicity_dispersion",
    "measure_to_csv",
]

# the 1% overflow rule: a measure above it reports a warning, a bound refuses one at or above it
MAX_OVERFLOW_MASS = 0.01
# the convergence checkpoints when none is asked for, with the lead path's last step
DEFAULT_CHECKPOINTS = tuple(10**k for k in range(1, 8))


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

    def cell_labels(self, prefix: str = "") -> list[str]:
        """One label per cell: ``prefix`` and the cell number, ``overflow`` last."""
        return [f"{prefix}{i}" for i in range(self.n_boxes)] + ["overflow"]

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


class NoSampleError(ValueError):
    """No path has a post-burn-in sample: there is no measure to build."""


class VisitTally:
    """Cell visits folded block by block: ``counts`` of the visited rows
    (``LoopBlock.visited``), one row per path if ``paths`` is given, else
    pooled; unless ``checkpoints`` is None, the lead path's (the first with
    a step) counts at each checkpoint and ``lead_steps``, its number of steps.
    """

    def __init__(
        self,
        partition: Partition,
        burn_in: int,
        paths: Optional[int] = None,
        checkpoints: Optional[Sequence[int]] = None,
    ):
        if burn_in < 0:
            raise ValueError(f"burn-in {burn_in} must be nonnegative")
        self.partition = partition
        self.burn_in = burn_in
        self.counts = np.zeros((paths or 1, partition.n_cells), dtype=np.int64)
        self.per_path = paths is not None
        self.horizon: Optional[int] = None  # smallest horizon folded
        self.lead: Optional[int] = None
        self.lead_steps = 0
        self._checkpoints = None if checkpoints is None else sorted({int(c) for c in checkpoints})
        self._lead_counts = np.zeros(partition.n_cells, dtype=np.int64)
        self._at: dict[int, np.ndarray] = {}  # checkpoint -> lead counts there

    def add(self, block: LoopBlock, first: int = 0) -> None:
        """Fold a block whose paths are this tally's ``first``, ``first`` + 1, ..."""
        self.horizon = block.horizon if self.horizon is None else min(self.horizon, block.horizon)
        visited = block.visited(self.burn_in)
        cells = self.partition.cell_indices(block.x[:, :-1][visited])
        if self.per_path:  # no temporary the size of counts: diagnose sizes counts to fit
            np.add.at(self.counts, (first + visited.nonzero()[0], cells), 1)
        else:
            self.counts[0] += np.bincount(cells, minlength=self.partition.n_cells)
        if self._checkpoints is None:
            return
        steps = block.steps
        if self.lead is None and block.t0 == 0 and steps.any():
            self.lead = first + int(np.flatnonzero(steps)[0])
        row = -1 if self.lead is None else self.lead - first
        if not 0 <= row < len(steps):
            return
        t0, taken = block.t0, int(steps[row])
        cells = self.partition.cell_indices(block.x[row, :taken])
        for c in self._checkpoints:
            if t0 < c <= t0 + taken:
                self._at[c] = self._lead_counts + np.bincount(
                    cells[: c - t0], minlength=self.partition.n_cells
                )
        self._lead_counts += np.bincount(cells, minlength=self.partition.n_cells)
        self.lead_steps += taken

    def checkpoints(self, requested: Optional[Sequence[int]] = None) -> list[int]:
        """The requested checkpoints the lead path reached, else the default
        ones and its last step; its last step if none is left."""
        steps = self.lead_steps
        if requested is None:
            return sorted({c for c in DEFAULT_CHECKPOINTS if c <= steps} | {steps})
        return [c for c in requested if c <= steps] or [steps]

    def lead_counts(self, checkpoint: int) -> np.ndarray:
        """The lead path's visit counts over its first ``checkpoint`` steps."""
        if checkpoint == self.lead_steps:
            return self._lead_counts
        if checkpoint not in self._at:
            raise ValueError(f"checkpoint {checkpoint} was not tallied")
        return self._at[checkpoint]


def empirical_measure(tally: VisitTally) -> EmpiricalMeasure:
    """Pooled histogram of the tally's post-burn-in states: its summed visit
    counts over their total, on its partition. Overflow findings are in the
    measure's :attr:`~EmpiricalMeasure.warnings`."""
    if tally.horizon is None:
        raise ValueError("the tally has folded no block")
    if tally.burn_in >= tally.horizon:
        raise ValueError(f"burn-in {tally.burn_in} must be smaller than the horizon")
    counts = tally.counts.sum(axis=0)
    total = int(counts.sum())
    if total == 0:
        raise NoSampleError("no post-burn-in samples available (all paths truncated early?)")
    return EmpiricalMeasure(tally.partition, counts / total, total, tally.burn_in)


def frequency_convergence(tally: VisitTally, checkpoints: Sequence[int]) -> np.ndarray:
    """Running per-cell occupancy averages (1/T') sum_{t<T'} 1_cell(x_t) of
    the tally's lead path, at checkpoints it was folded with (and its last
    step).

    Returns an array of shape (len(checkpoints), n_cells).
    """
    if any(c < 1 or c > tally.lead_steps for c in checkpoints):
        raise ValueError(f"checkpoints must lie in [1, {tally.lead_steps}]")
    out = np.empty((len(checkpoints), tally.partition.n_cells))
    for row, c in enumerate(checkpoints):
        out[row] = tally.lead_counts(c) / c
    return out


def ergodicity_dispersion(tally: VisitTally) -> np.ndarray:
    """Across-path standard deviation of terminal per-cell frequencies: each
    row of a per-path tally, its post-burn-in visit counts over their total.

    Small values are consistent with ergodic behaviour (all paths share one
    frequency limit); large values are evidence against it. A single path
    gives zero by convention.
    """
    if not tally.per_path:
        raise ValueError("dispersion needs a tally with one row per path")
    counts = tally.counts[tally.counts.sum(axis=1) > 0]
    if not len(counts):
        raise ValueError("no path has post-burn-in samples")
    return np.std(counts / counts.sum(axis=1, keepdims=True), axis=0, ddof=0)


def measure_to_csv(measure: EmpiricalMeasure, path) -> None:
    """One :func:`~quantstab.simulation.write_csv` row of bounds and weight
    per cell, overflow last, with CRLF line ends."""
    part = measure.partition
    header = (
        ["cell"]
        + [f"low{i}" for i in range(1, part.dim + 1)]
        + [f"high{i}" for i in range(1, part.dim + 1)]
        + ["weight"]
    )
    bounds = map(part.cell_bounds, range(part.n_cells))
    rows = (
        (label, *lo, *hi, weight)
        for label, (lo, hi), weight in zip(part.cell_labels(), bounds, measure.weights)
    )
    write_csv(path, header, "s" + "g" * (2 * part.dim + 1), [rows], "\r\n")
