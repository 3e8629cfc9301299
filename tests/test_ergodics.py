import csv
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quantstab import (
    InitSpec,
    NoiseSpec,
    Partition,
    SystemModel,
    batch_rollout,
    empirical_measure,
    ergodicity_dispersion,
    frequency_convergence,
    null_policy,
    rollout,
)
from quantstab.ergodics import (
    DEFAULT_CHECKPOINTS,
    ConvergenceTally,
    EmpiricalMeasure,
    NoSampleError,
    VisitTally,
    measure_to_csv,
)
from quantstab.policies import cell_coords
from quantstab.simulation import LoopBlock
from conftest import curve_of, one_path_block, tally_of


def _iid_sampler_model():
    # next state is pure noise, so visited states are i.i.d. draws
    return SystemModel.from_text("states 1\nnoise 1\nx1' = 0*x1 + w1", name="iid")


def _frozen_model():
    return SystemModel.from_text("states 1\nnoise 1\nx1' = x1 + 0*w1", name="frozen")


# --------------------------------------------------------------------------
# Partition

def test_partition_indices_and_bounds():
    part = Partition(low=[-1.0, -1.0], high=[1.0, 1.0], cells_per_axis=(2, 2))
    assert part.n_boxes == 4 and part.n_cells == 5
    idx = part.cell_indices(np.array([[-0.5, -0.5], [0.5, 0.5], [2.0, 0.0], [np.nan, 0.0]]))
    assert idx[0] == 0 and idx[1] == 3
    assert idx[2] == part.overflow_index and idx[3] == part.overflow_index
    lo, hi = part.cell_bounds(0)
    assert np.array_equal(lo, [-1.0, -1.0]) and np.array_equal(hi, [0.0, 0.0])
    lo, hi = part.cell_bounds(part.overflow_index)
    assert np.all(np.isinf(lo)) and np.all(np.isinf(hi))


def test_partition_upper_edge_is_overflow():
    part = Partition(low=[0.0], high=[1.0], cells_per_axis=(4,))
    assert part.cell_indices([[1.0]])[0] == part.overflow_index
    assert part.cell_indices([[0.999999]])[0] == 3


def test_cell_indices_reject_rows_of_the_wrong_width():
    part = Partition(low=[-1.0, -1.0], high=[1.0, 1.0], cells_per_axis=(2, 2))
    with pytest.raises(ValueError, match="width 2"):
        part.cell_indices(np.zeros((3, 1)))
    with pytest.raises(ValueError, match="width 2"):
        part.cell_indices(np.zeros((3, 3)))
    line = Partition(low=[0.0], high=[1.0], cells_per_axis=(4,))
    with pytest.raises(ValueError, match="width 1"):
        line.cell_indices(np.zeros((3, 2)))


def test_partition_validation():
    with pytest.raises(ValueError):
        Partition(low=[0.0], high=[0.0], cells_per_axis=(1,))
    with pytest.raises(ValueError):
        Partition(low=[0.0], high=[1.0], cells_per_axis=(0,))
    # 2^64 cells, which an int64 product counts as 0
    with pytest.raises(ValueError, match="grid of 18446744073709551616 cells exceeds"):
        Partition(low=[-1.0, -1.0], high=[1.0, 1.0], cells_per_axis=(2**32, 2**32))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "low, high, cells",
    [([-1e308], [1e308], (4,)), ([0.0], [5e-324], (2,)), ([0.0, -1e308], [1.0, 1e308], (2, 2))],
)
def test_partition_rejects_a_cell_width_that_is_not_finite_and_positive(low, high, cells):
    # high - low overflows to inf, or the width underflows to 0
    with pytest.raises(ValueError, match="not all finite and positive"):
        Partition(low=low, high=high, cells_per_axis=cells)


def test_partitions_compare_by_identity():
    part = Partition(low=[-1.0, -1.0], high=[1.0, 1.0], cells_per_axis=(2, 2))
    twin = Partition(low=[-1.0, -1.0], high=[1.0, 1.0], cells_per_axis=(2, 2))
    assert part == part and part != twin and len({part, twin}) == 2


# --------------------------------------------------------------------------
# Empirical measure

def test_constant_trajectory_is_unit_mass_at_origin_cell():
    model = _frozen_model()
    traj = rollout(model, null_policy(2), NoiseSpec.zero(1), InitSpec.fixed([0.0]), 100, seed=0)
    part = Partition(low=[-1.0], high=[1.0], cells_per_axis=(4,))
    measure = empirical_measure(tally_of([traj], part))
    origin_cell = part.cell_indices([[0.0]])[0]
    assert measure.weights[origin_cell] == 1.0
    assert measure.weights.sum() == pytest.approx(1.0, abs=1e-12)


def test_iid_uniform_two_cells_law_of_large_numbers():
    model = _iid_sampler_model()
    noise = NoiseSpec.uniform(1, 0.0, 1.0)
    trajs = batch_rollout(model, null_policy(2), noise, InitSpec.uniform_box([0], [1]), 5000, 4, 3)
    part = Partition(low=[0.0], high=[1.0], cells_per_axis=(2,))
    measure = empirical_measure(tally_of(trajs, part, 1))
    three_sigma = 3 * math.sqrt(0.25 / measure.n_samples)
    assert abs(measure.weights[0] - 0.5) < three_sigma
    assert abs(measure.weights[1] - 0.5) < three_sigma
    assert measure.overflow_mass == 0.0


def test_ar1_cell_weights_match_stationary_gaussian(ar1):
    trajs = batch_rollout(ar1, null_policy(2), NoiseSpec.gaussian(1), InitSpec.fixed([0.0]), 4000, 16, 5)
    part = Partition(low=[-4.0], high=[4.0], cells_per_axis=(4,))
    measure = empirical_measure(tally_of(trajs, part, 400))
    sigma = math.sqrt(4.0 / 3.0)
    for i in range(part.n_boxes):
        lo, hi = part.cell_bounds(i)
        prob = 0.5 * (math.erf(hi[0] / (sigma * math.sqrt(2))) - math.erf(lo[0] / (sigma * math.sqrt(2))))
        assert measure.weights[i] == pytest.approx(prob, abs=0.015)


def test_burn_in_must_be_smaller_than_horizon(ar1):
    traj = rollout(ar1, null_policy(2), NoiseSpec.gaussian(1), InitSpec.fixed([0.0]), 10, seed=0)
    part = Partition(low=[-1.0], high=[1.0], cells_per_axis=(2,))
    with pytest.raises(ValueError, match="burn-in"):
        empirical_measure(tally_of([traj], part, 10))


def test_a_path_that_ends_before_the_burn_in_is_the_no_sample_refusal(ar1):
    # from 1e13 the path is past 1e12 at once and ends after its first step
    traj = rollout(ar1, null_policy(2), NoiseSpec.zero(1), InitSpec.fixed([1e13]), 10, seed=0)
    assert traj.diverged_at == 1
    part = Partition(low=[-1.0], high=[1.0], cells_per_axis=(2,))
    assert empirical_measure(tally_of([traj], part)).n_samples == 1
    with pytest.raises(NoSampleError, match="no post-burn-in samples available"):
        empirical_measure(tally_of([traj], part, 1))


def test_all_overflow_warns(ar1):
    traj = rollout(ar1, null_policy(2), NoiseSpec.zero(1), InitSpec.fixed([100.0]), 5, seed=0)
    part = Partition(low=[-1.0], high=[1.0], cells_per_axis=(2,))
    measure = empirical_measure(tally_of([traj], part))
    assert measure.warnings == ["all samples fell in the overflow cell; partition box is too small"]


def test_large_overflow_mass_warns(ar1):
    trajs = batch_rollout(ar1, null_policy(2), NoiseSpec.gaussian(1), InitSpec.fixed([0.0]), 1000, 4, 9)
    part = Partition(low=[-0.5], high=[0.5], cells_per_axis=(2,))
    measure = empirical_measure(tally_of(trajs, part))
    assert measure.warnings == [
        f"overflow mass {measure.overflow_mass:.3f} exceeds 1%; "
        "bound estimates over this measure are untrustworthy"
    ]


def test_measure_within_the_overflow_rule_has_no_warnings(make_uniform_measure):
    assert make_uniform_measure([-1, -1], [1, 1], (2, 2)).warnings == []
    part = Partition(low=[0.0], high=[1.0], cells_per_axis=(1,))
    assert EmpiricalMeasure(part, [0.99, 0.01], 100, 0).warnings == []
    assert len(EmpiricalMeasure(part, [0.98, 0.02], 100, 0).warnings) == 1


def test_measure_validation_rejects_bad_weights():
    part = Partition(low=[0.0], high=[1.0], cells_per_axis=(2,))
    with pytest.raises(ValueError):
        EmpiricalMeasure(part, np.array([0.5, 0.6, 0.0]), 10, 0)
    with pytest.raises(ValueError):
        EmpiricalMeasure(part, np.array([0.5, 0.5]), 10, 0)


def test_sample_states_respects_cell_weights():
    part = Partition(low=[0.0], high=[1.0], cells_per_axis=(2,))
    measure = EmpiricalMeasure(part, np.array([0.25, 0.75, 0.0]), 100, 0)
    rng = np.random.default_rng(0)
    draws = measure.sample_states(rng, 40_000)
    assert np.all((draws >= 0.0) & (draws < 1.0))
    assert np.mean(draws < 0.5) == pytest.approx(0.25, abs=0.01)


@settings(max_examples=60, deadline=None)
@given(
    axes=st.lists(
        st.tuples(st.floats(-1e3, 1e3), st.floats(1e-3, 1e3), st.integers(1, 5)),
        min_size=1,
        max_size=2,
    ),
    seed=st.integers(0, 2**32 - 1),
    count=st.integers(1, 300),
)
def test_sample_states_in_place_equals_the_expression_bitwise(axes, seed, count):
    part = Partition(
        low=[lo for lo, _, _ in axes],
        high=[lo + span for lo, span, _ in axes],
        cells_per_axis=tuple(c for _, _, c in axes),
    )
    weights = np.random.default_rng(seed).random(part.n_cells)
    weights[np.random.default_rng(seed + 1).random(part.n_cells) < 0.3] = 0.0
    weights[0] += 1.0  # some in-box mass
    measure = EmpiricalMeasure(part, weights / weights.sum(), 100, 0)

    rng = np.random.default_rng(seed)
    in_box = measure.weights[:-1]
    cells = rng.choice(part.n_boxes, size=count, p=in_box / in_box.sum())
    multi = cell_coords(cells, part.cells_per_axis)
    offsets = rng.uniform(0.0, 1.0, (count, part.dim))
    want = part.low + (multi + offsets) * part.width

    got = measure.sample_states(np.random.default_rng(seed), count)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


def test_measure_csv_round_trip(tmp_path, ar1):
    traj = rollout(ar1, null_policy(2), NoiseSpec.gaussian(1), InitSpec.fixed([0.0]), 100, seed=1)
    part = Partition(low=[-4.0], high=[4.0], cells_per_axis=(4,))
    measure = empirical_measure(tally_of([traj], part))
    out = tmp_path / "measure.csv"
    measure_to_csv(measure, out)
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "cell,low1,high1,weight"
    assert len(lines) == part.n_cells + 1
    assert lines[-1].startswith("overflow,")
    weights = [float(line.split(",")[-1]) for line in lines[1:]]
    assert np.allclose(weights, measure.weights)


def _measure_csv_oracle(measure, path):
    """The export as one csv.writer row per cell, one format call per value."""
    part = measure.partition
    header = ["cell"] + [f"low{i}" for i in range(1, part.dim + 1)]
    header += [f"high{i}" for i in range(1, part.dim + 1)] + ["weight"]
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


@pytest.mark.parametrize(
    "low, high, cells, weights",
    [
        # subnormal bounds and weight, a -0.0 weight; the overflow cell's bounds are -inf and inf
        ([0.0], [1e-320], (2,), [-0.0, 5e-324, 1.0]),
        ([-1e307, -3.0], [1e307, 0.1], (2, 3), [0.25, 0.25, 0.25, 0.0, -0.0, 0.125, 0.125]),
    ],
)
def test_measure_csv_matches_csv_writer_oracle(tmp_path, low, high, cells, weights):
    measure = EmpiricalMeasure(Partition(low, high, cells), weights, 10, 0)
    ours, oracle = tmp_path / "ours.csv", tmp_path / "oracle.csv"
    measure_to_csv(measure, ours)
    _measure_csv_oracle(measure, oracle)
    data = ours.read_bytes()
    assert data == oracle.read_bytes()
    assert data.count(b"\r\n") == data.count(b"\n") == len(weights) + 1


# --------------------------------------------------------------------------
# Frequency convergence

def _curves(traj, part, checkpoints):
    """The frequency curves of one held trajectory at ``checkpoints``, all reached."""
    chosen, curves = frequency_convergence(curve_of([traj], part, checkpoints))
    assert chosen == checkpoints
    return curves


def test_fixed_point_curve_constant_one():
    model = _frozen_model()
    traj = rollout(model, null_policy(2), NoiseSpec.zero(1), InitSpec.fixed([0.25]), 64, seed=0)
    part = Partition(low=[0.0], high=[1.0], cells_per_axis=(2,))
    curves = _curves(traj, part, [1, 8, 64])
    cell = part.cell_indices([[0.25]])[0]
    assert np.all(curves[:, cell] == 1.0)


def test_iid_halves_converge_with_sqrt_envelope():
    model = _iid_sampler_model()
    noise = NoiseSpec.uniform(1, 0.0, 1.0)
    traj = rollout(model, null_policy(2), noise, InitSpec.uniform_box([0], [1]), 10_000, seed=8)
    part = Partition(low=[0.0], high=[1.0], cells_per_axis=(2,))
    checkpoints = [100, 400, 1600, 6400, 10_000]
    curves = _curves(traj, part, checkpoints)
    for row, horizon in enumerate(checkpoints):
        assert abs(curves[row, 0] - 0.5) < 2.5 / math.sqrt(horizon)
    assert abs(curves[-1, 0] - 0.5) < 0.02


def test_diverging_path_overflow_frequency_tends_to_one(doubling):
    traj = rollout(doubling, null_policy(2), NoiseSpec.zero(1), InitSpec.fixed([0.5]), 200, seed=0)
    assert traj.diverged
    part = Partition(low=[-1.0], high=[1.0], cells_per_axis=(2,))
    curves = _curves(traj, part, [1, traj.steps])
    assert curves[0, part.overflow_index] == 0.0  # starts inside the box
    assert curves[1, part.overflow_index] > 0.95


def test_final_checkpoint_matches_empirical_measure():
    model = _iid_sampler_model()
    noise = NoiseSpec.uniform(1, 0.0, 1.0)
    traj = rollout(model, null_policy(2), noise, InitSpec.uniform_box([0], [1]), 500, seed=4)
    part = Partition(low=[0.0], high=[1.0], cells_per_axis=(4,))
    curves = _curves(traj, part, [traj.steps])
    measure = empirical_measure(tally_of([traj], part))
    assert np.array_equal(curves[-1], measure.weights)


def test_frequency_convergence_equals_the_one_hot_cumsum_bitwise():
    # the former formula: running sums of a (steps x cells) one-hot array
    model = SystemModel.from_text("states 2\nnoise 2\nx1' = w1\nx2' = w2")
    noise, init = NoiseSpec.gaussian(2), InitSpec.fixed([0.0, 0.0])
    traj = rollout(model, null_policy(2, 2), noise, init, 10_000, seed=3)
    part = Partition(low=[-2.0, -2.0], high=[2.0, 2.0], cells_per_axis=(16, 16))
    checkpoints = [1, 7, 100, 2500, 9999, 10_000]

    onehot = np.zeros((traj.steps, part.n_cells))
    onehot[np.arange(traj.steps), part.cell_indices(traj.x[: traj.steps])] = 1.0
    cumulative = np.cumsum(onehot, axis=0)
    want = np.array([cumulative[c - 1] / c for c in checkpoints])

    got = _curves(traj, part, checkpoints)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()
    assert 0.0 < got[-1, part.overflow_index] < 1.0  # some rows leave the box


def test_checkpoints_validated():
    part = Partition(low=[-1.0], high=[1.0], cells_per_axis=(2,))
    for checkpoints in ([0], [5, -3]):
        with pytest.raises(ValueError):
            ConvergenceTally(part, checkpoints)
    with pytest.raises(ValueError):
        frequency_convergence(ConvergenceTally(part))  # no block folded, so no lead path


def test_the_curve_chooses_the_checkpoints_its_lead_path_reached(ar1):
    part = Partition(low=[-4.0], high=[4.0], cells_per_axis=(4,))

    def chosen(horizon, checkpoints=None):
        traj = rollout(ar1, null_policy(2), NoiseSpec.gaussian(1), InitSpec.fixed([0.0]), horizon, seed=0)
        return frequency_convergence(curve_of([traj], part, checkpoints))[0]

    assert DEFAULT_CHECKPOINTS[:2] == (10, 100)
    assert chosen(150) == [10, 100, 150]  # the defaults reached, then the last step
    assert chosen(100) == [10, 100]  # the last step is a default: one row
    assert chosen(5) == [5]  # no default reached
    assert chosen(150, [120, 5, 400, 150, 60]) == [120, 5, 150, 60]  # listed order, past the end dropped
    assert chosen(150, [151, 1000]) == [150]  # none reached: the last step
    assert chosen(150, []) == [150]


def test_the_lead_path_may_come_in_a_later_first_group():
    # two blocks of 4 steps; paths 0 and 1 take no step, so path 2, the
    # first of the second group, leads; path 3 stays in overflow
    part = Partition(low=[0.0], high=[4.0], cells_per_axis=(4,))
    x = np.zeros((4, 9, 1))
    x[2, :, 0] = [0.5, 1.5, 2.5, 3.5, 0.5, 1.5, 2.5, 3.5, 0.5]
    x[3] = 10.0

    def blocks(paths, diverged_at):
        for t0 in (0, 4):
            xs = x[paths, t0 : t0 + 5]
            zeros = np.zeros((len(paths), 4))
            yield LoopBlock(t0, 8, xs, zeros[..., None], zeros.astype(np.int64), zeros[..., None], diverged_at)

    curve = ConvergenceTally(part, [2, 6, 8])
    for block in blocks([0, 1], np.array([0, 0])):
        curve.add(block)
    assert curve.lead is None
    for block in blocks([2, 3], np.array([-1, -1])):
        curve.add(block, 2)
    assert curve.lead == 2 and curve.steps == 8
    checkpoints, curves = frequency_convergence(curve)
    assert checkpoints == [2, 6, 8]
    assert curves.tolist() == [[0.5, 0.5, 0, 0, 0], [2 / 6, 2 / 6, 1 / 6, 1 / 6, 0], [0.25, 0.25, 0.25, 0.25, 0]]


# --------------------------------------------------------------------------
# Dispersion

def test_iid_dispersion_is_small():
    model = _iid_sampler_model()
    noise = NoiseSpec.uniform(1, 0.0, 1.0)
    trajs = batch_rollout(model, null_policy(2), noise, InitSpec.uniform_box([0], [1]), 2000, 32, 6)
    part = Partition(low=[0.0], high=[1.0], cells_per_axis=(2,))
    dispersion = ergodicity_dispersion(tally_of(trajs, part, per_path=True))
    assert np.all(dispersion < 0.05)
    assert np.any(dispersion > 0.0)


def test_initial_condition_mixture_has_large_dispersion():
    model = _frozen_model()
    trajs = batch_rollout(
        model, null_policy(2), NoiseSpec.zero(1), InitSpec.uniform_box([-1], [1]), 100, 64, 11
    )
    part = Partition(low=[-1.0], high=[1.0], cells_per_axis=(2,))
    dispersion = ergodicity_dispersion(tally_of(trajs, part, per_path=True))
    # every path parks all its mass in one of the two cells: non-ergodic signature
    assert dispersion[0] > 0.4 and dispersion[1] > 0.4


def test_single_path_dispersion_is_zero(ar1):
    traj = rollout(ar1, null_policy(2), NoiseSpec.gaussian(1), InitSpec.fixed([0.0]), 100, seed=0)
    part = Partition(low=[-4.0], high=[4.0], cells_per_axis=(4,))
    assert np.all(ergodicity_dispersion(tally_of([traj], part, per_path=True)) == 0.0)


def test_tally_readers_read_its_partition_and_burn_in_and_only_its_checkpoints(ar1):
    traj = rollout(ar1, null_policy(2), NoiseSpec.gaussian(1), InitSpec.fixed([0.0]), 100, seed=0)
    part = Partition(low=[-4.0], high=[4.0], cells_per_axis=(4,))
    tally = VisitTally(part, 10)
    tally.add(one_path_block(traj))
    measure = empirical_measure(tally)
    assert measure.partition is part and measure.burn_in == 10 and measure.n_samples == 90
    for call in (
        lambda: empirical_measure(VisitTally(part, 10)),  # no block folded
        lambda: ergodicity_dispersion(tally),  # pooled, not one row per path
    ):
        with pytest.raises(ValueError):
            call()
    checkpoints, curves = frequency_convergence(curve_of([traj], part, [50, 100]))  # 100: the last step
    assert checkpoints == [50, 100]
    assert np.array_equal(curves[1], empirical_measure(tally_of([traj], part)).weights)  # no burn-in
