import numpy as np
import pytest

from quantstab import EmpiricalMeasure, Partition, VisitTally, catalog_model
from quantstab.ergodics import ConvergenceTally
from quantstab.simulation import LoopBlock


@pytest.fixture
def example1():
    return catalog_model("example1")


@pytest.fixture
def example2():
    return catalog_model("example2")


@pytest.fixture
def doubling():
    return catalog_model("scalar_doubling")


@pytest.fixture
def ar1():
    return catalog_model("stable_ar1")


def uniform_measure(low, high, cells_per_axis) -> EmpiricalMeasure:
    """Synthetic measure: equal weight on every in-box cell, empty overflow."""
    part = Partition(low=np.asarray(low, float), high=np.asarray(high, float),
                     cells_per_axis=tuple(cells_per_axis))
    weights = np.zeros(part.n_cells)
    weights[:-1] = 1.0 / part.n_boxes
    return EmpiricalMeasure(part, weights, n_samples=part.n_boxes, burn_in=0)


@pytest.fixture
def make_uniform_measure():
    return uniform_measure


def one_path_block(traj) -> LoopBlock:
    """A held trajectory as the one-path block of its whole run."""
    diverged_at = np.array([-1 if traj.diverged_at is None else traj.diverged_at])
    return LoopBlock(0, traj.horizon, traj.x[None], traj.w[None], traj.q[None], traj.u[None], diverged_at)


def _folded(fold, trajs):
    """``fold`` with held trajectories folded in as their one-path blocks, path k at ``first`` k."""
    for k, traj in enumerate(trajs):
        fold.add(one_path_block(traj), k)
    return fold


def tally_of(trajs, partition, burn_in=0, per_path=False) -> VisitTally:
    """Held trajectories folded into one tally, path k at row k if ``per_path``."""
    return _folded(VisitTally(partition, burn_in, len(trajs) if per_path else None), trajs)


def curve_of(trajs, partition, checkpoints=None) -> ConvergenceTally:
    """Held trajectories folded into one convergence curve: the lead path's counts at ``checkpoints``."""
    return _folded(ConvergenceTally(partition, checkpoints), trajs)
