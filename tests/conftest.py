import numpy as np
import pytest

from quantstab import EmpiricalMeasure, Partition, VisitTally, catalog_model


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


def tally_of(trajs, partition, burn_in=0, per_path=False, checkpoints=None) -> VisitTally:
    """Held trajectories folded into one tally as their one-path blocks, path
    k at row k if ``per_path``, the lead path's counts at ``checkpoints``."""
    tally = VisitTally(partition, burn_in, len(trajs) if per_path else None, checkpoints)
    for k, traj in enumerate(trajs):
        tally.add(traj.block(), k)
    return tally
