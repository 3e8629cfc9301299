import csv
import itertools
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from quantstab import (
    CandidateControls,
    EntropyPoint,
    InitSpec,
    NoiseSpec,
    Partition,
    ScenarioSet,
    SpanningTemplate,
    SystemModel,
    ThresholdConstraintError,
    UniformQuantizerPolicy,
    build_R_epsilon,
    catalog_model,
    empirical_measure,
    entropy_rate,
    min_cover_cardinality,
    null_policy,
    run_closed_loop,
    zoom_policy,
)
from quantstab import stabilization_entropy
from quantstab.stabilization_entropy import (
    _needed_count,
    closed_loop_candidates,
    entropy_curve_to_csv,
    satisfaction_matrix,
)
from conftest import tally_of


# --------------------------------------------------------------------------
# Noise cells

def test_noise_cells_on_a_grid_mark_rows_in_no_cell_as_overflow():
    part = Partition(low=[0.0], high=[1.0], cells_per_axis=(4,))
    idx = stabilization_entropy._noise_cells(part, np.array([[0.1], [0.6], [1.5], [np.inf]]))
    assert idx.tolist() == [0, 2, 4, 4]


def test_noise_cells_without_partition_hold_everything_below_inf():
    rows = np.array([[1e9, -1e9], [0.0, 0.0], [np.inf, 0.0], [-np.inf, 0.0], [np.nan, 0.0]])
    assert stabilization_entropy._noise_cells(None, rows).tolist() == [0, 0, 1, 0, 1]


def _oracle_grid_cell(low, high, cells, point):
    """Scalar cell rule: ``[low, high)`` and ``int(min((x - low) / width, cells - 1))``
    per axis, numbered row-major; -1 outside the box."""
    number = 0
    for x, lo, hi, c in zip(point, low, high, cells):
        if not lo <= x < hi:
            return -1
        number = number * c + int(min((x - lo) / ((hi - lo) / c), c - 1))
    return number


@st.composite
def _grid_cases(draw):
    dim = draw(st.integers(1, 3))
    cells = tuple(draw(st.lists(st.integers(1, 9), min_size=dim, max_size=dim)))
    bound = st.sampled_from([-4.1, -1.0, -0.3, 0.1, 2.0 / 3.0]) | st.floats(-10.0, 10.0)
    extent = st.sampled_from([7.4, 2.5, 0.3, 1.0 / 3.0]) | st.floats(0.01, 20.0)
    low = draw(st.lists(bound, min_size=dim, max_size=dim))
    high = [lo + draw(extent) for lo in low]
    part = Partition(low=low, high=high, cells_per_axis=cells)
    values = [{-np.inf, np.inf, np.nan} for _ in range(dim)]
    for i in range(part.n_boxes):
        for edge in part.cell_bounds(i):
            for axis, x in enumerate(edge):
                values[axis] |= {x, np.nextafter(x, -np.inf), np.nextafter(x, np.inf)}
    axes = [st.sampled_from(sorted(v, key=repr)) for v in values]
    points = draw(st.lists(st.tuples(*axes), min_size=1, max_size=40))
    return low, high, cells, np.array(points)


@settings(max_examples=100, deadline=None)
@given(_grid_cases())
# points an ulp from a cell edge, where the cell_bounds boxes disagree with the
# scaled rule: below the cells-1|2 box edge yet scaled into cell 2; above the
# top box edge 3.299999999999999 yet inside the box; below 0 yet (x - low) / width == 1
@example(([-1.0], [1.0], (7,), np.array([[-0.42857142857142866]])))
@example(([-0.3, -4.1], [2.2, 3.3], (5, 3), np.array([[1.0, np.nextafter(3.3, -np.inf)]])))
@example(([-4.0], [4.0], (2,), np.array([[-5e-324]])))
def test_grid_cell_users_agree_with_scalar_rule(case):
    low, high, cells, points = case
    part = Partition(low=low, high=high, cells_per_axis=cells)
    expected = [_oracle_grid_cell(part.low, part.high, cells, p) for p in points]
    idx = part.cell_indices(points)
    assert np.where(idx == part.overflow_index, -1, idx).tolist() == expected
    bits = [c.bit_length() - 1 for c in cells]
    if all(2**b == c for b, c in zip(bits, cells)):  # the quantizer's grids are 2^bits cells
        dim = len(cells)
        text = f"states {dim}\nnoise 1\n" + "".join(f"x{i}' = x{i}\n" for i in range(1, dim + 1))
        policy = UniformQuantizerPolicy(SystemModel.from_text(text), low, high, bits)
        q = policy.symbols(None, points)
        assert np.where(q == policy.overflow_symbol, -1, q - 1).tolist() == expected


# --------------------------------------------------------------------------
# Threshold construction

def test_thresholds_zero_mass_cell_is_vacuous():
    r = build_R_epsilon(np.array([1.0, 0.0]), np.array([1.0]), 0.05)
    assert r[1, 0] == 1.0


def test_thresholds_full_mass_cell_gets_epsilon():
    r = build_R_epsilon(np.array([1.0]), np.array([1.0]), 0.05)
    assert r[0, 0] == 0.05


def test_thresholds_interior_formula():
    r = build_R_epsilon(np.array([0.9]), np.array([1.0]), 0.05)
    assert r[0, 0] == pytest.approx(1.05 * 0.1, abs=1e-15)


def test_thresholds_single_set_degenerates_to_epsilon_branch():
    # one state cell and one noise cell with all the mass in them
    r = build_R_epsilon(np.ones(1), np.ones(1), 0.02)
    assert r.shape == (1, 1) and r[0, 0] == 0.02


def test_thresholds_epsilon_too_large_raises_with_offending_value():
    q = np.full(10, 0.01)
    with pytest.raises(ThresholdConstraintError, match="too large"):
        build_R_epsilon(q, np.array([1.0]), 0.05)


def test_thresholds_validate_masses():
    with pytest.raises(ValueError):
        build_R_epsilon(np.array([1.5]), np.array([1.0]), 0.05)
    with pytest.raises(ValueError):
        build_R_epsilon(np.array([0.5]), np.array([1.0]), 0.0)
    with pytest.raises(ValueError, match="one-dimensional"):
        build_R_epsilon(np.array([[0.5]]), np.array([1.0]), 0.05)


def test_instance_threshold_constraints_checked():
    template = SpanningTemplate(Partition(low=[0.0], high=[1.0], cells_per_axis=(2,)), None, 0.5, 0.1)
    with pytest.raises(ThresholdConstraintError):
        template.check_thresholds(np.full((2, 1), 0.2))  # sum(1-r) = 1.6
    with pytest.raises(ValueError, match="shape"):
        template.check_thresholds(np.full((2, 1, 1), 0.6))
    ok = template.check_thresholds(np.full((2, 1), 0.6))
    assert ok.shape == (2, 1)
    with pytest.raises(ThresholdConstraintError, match="lie in"):
        template.check_thresholds([[1.0], [1.0 + 1e-9]])
    assert template.check_thresholds([[1.0], [1.0 + 1e-13]]).dtype == float
    with pytest.raises(ValueError, match="rho"):
        SpanningTemplate(template.state_partition, None, 1.0, 0.1)
    with pytest.raises(ValueError, match="horizon"):
        ScenarioSet(np.zeros((1, 1)), np.zeros((1, 0, 1)))


# --------------------------------------------------------------------------
# Frequency satisfaction

def _trivial_instance(thresholds):
    """Two state cells on [-1, 1), the whole noise space as one cell, and
    ``thresholds``: a template and its thresholds."""
    part = Partition(low=[-1.0], high=[1.0], cells_per_axis=(2,))
    return SpanningTemplate(part, None, 0.5, 0.1), np.asarray(thresholds, float)


def _satisfies(model, u_seq, scenario, inst):
    """Frequency satisfaction of one (candidate, scenario) pair: a 1 x 1 matrix."""
    x0, w_path = scenario
    one = ScenarioSet(np.asarray(x0, float)[None], np.asarray(w_path, float)[None])
    candidate = CandidateControls(np.asarray(u_seq, float)[None])
    return bool(satisfaction_matrix(model, candidate, *inst, one)[0, 0])


def _states(model, x0, w_path, u_seq, horizon):
    """States x_0 .. x_{T-1} of one (start, noise, control) triple."""
    return stabilization_entropy._lockstep_states(model, x0[None], w_path[None], u_seq[None], horizon)[0]


def test_resting_scenario_satisfies_tight_thresholds():
    model = SystemModel.from_text("states 1\nnoise 1\nx1' = x1 + 0*w1")
    # all mass in cell 1 ([0,1)); cell 0 is vacuous
    inst = _trivial_instance([[1.0], [0.02]])
    scenario = (np.array([0.5]), np.zeros((10, 1)))
    u = np.zeros((10, 1))
    assert _satisfies(model, u, scenario, inst)


def test_vacuous_thresholds_accept_anything():
    model = SystemModel.from_text("states 1\nnoise 1\nx1' = 2*x1 + w1")
    inst = _trivial_instance([[1.0], [1.0]])
    scenario = (np.array([0.9]), np.random.default_rng(0).normal(size=(10, 1)))
    assert _satisfies(model, np.zeros((10, 1)), scenario, inst)
    assert _satisfies(model, np.full((10, 1), 3.3), scenario, inst)


def test_insufficient_frequency_fails():
    # next state equals the noise, so the visited cells follow the noise path
    model = SystemModel.from_text("states 1\nnoise 1\nx1' = 0*x1 + w1")
    inst = _trivial_instance([[1.0], [0.5]])  # need freq >= 0.5 in cell 1
    w = np.array([0.5, 0.5, 0.5, -1, -1, -1, -1, -1, -1, -1])[:, None]
    scenario = (np.array([0.5]), w)  # states: 0.5, 0.5, 0.5, 0.5, -1 ... -> 4/10 in cell 1
    assert not _satisfies(model, np.zeros((10, 1)), scenario, inst)
    relaxed = _trivial_instance([[1.0], [0.6]])  # need only 0.4
    assert _satisfies(model, np.zeros((10, 1)), scenario, relaxed)


def test_relaxing_thresholds_preserves_satisfaction():
    model = SystemModel.from_text("states 1\nnoise 1\nx1' = 0*x1 + w1")
    rng = np.random.default_rng(4)
    for _ in range(20):
        w = rng.uniform(-1, 1, (8, 1))
        scenario = (rng.uniform(-1, 1, 1), w)
        r = rng.uniform(0.5, 1.0, (2, 1))
        tight = _trivial_instance(r)
        loose = _trivial_instance(np.minimum(r + 0.2, 1.0))
        u = np.zeros((8, 1))
        if _satisfies(model, u, scenario, tight):
            assert _satisfies(model, u, scenario, loose)


def test_lockstep_states_match_manual_recursion(doubling):
    x0 = np.array([0.25])
    w = np.array([[0.1], [-0.2], [0.3], [0.0]])
    u = np.array([[1.0], [-1.0], [0.5], [0.0]])
    states = _states(doubling, x0, w, u, 4)
    expected = [0.25]
    for t in range(3):
        expected.append(2 * expected[-1] + w[t, 0] + u[t, 0])
    assert np.allclose(states[:, 0], expected)


def test_open_loop_blowup_lands_outside_all_cells(example2):
    x0 = np.array([50.0, 0.0])
    w = np.zeros((6, 1))
    u = np.zeros((6, 2))
    states = _states(example2, x0, w, u, 6)
    assert np.all(np.isinf(states[-1]))
    part = Partition(low=[-1e300] * 2, high=[1e300] * 2, cells_per_axis=(1, 1))
    assert part.cell_indices(states[-1:])[0] == part.overflow_index


# --------------------------------------------------------------------------
# Spanning and covering

def test_empty_candidate_set_never_spans():
    model = SystemModel.from_text("states 1\nnoise 1\nx1' = x1 + 0*w1")
    template, r = _trivial_instance([[1.0], [1.0]])
    scen = ScenarioSet.sample(InitSpec.fixed([0.5]), NoiseSpec.zero(1), 5, 4, seed=0)
    empty = CandidateControls(sequences=np.zeros((0, 5, 1)))
    matrix = satisfaction_matrix(model, empty, template, r, scen)
    assert matrix.shape == (0, 4)
    assert not matrix.any(axis=0).any()
    needed = _needed_count(scen.count, template.rho)
    assert min_cover_cardinality(matrix, needed, mode="greedy") == math.inf
    assert min_cover_cardinality(matrix, needed, mode="exact") == math.inf


def test_single_covering_candidate_spans_fully():
    model = SystemModel.from_text("states 1\nnoise 1\nx1' = x1 + 0*w1")
    template, r = _trivial_instance([[1.0], [1.0]])
    scen = ScenarioSet.sample(InitSpec.fixed([0.5]), NoiseSpec.zero(1), 5, 4, seed=0)
    one = CandidateControls(sequences=np.zeros((1, 5, 1)))
    matrix = satisfaction_matrix(model, one, template, r, scen)
    assert matrix.any(axis=0).mean() == 1.0
    needed = _needed_count(scen.count, template.rho)
    assert min_cover_cardinality(matrix, needed, mode="greedy") == 1
    assert min_cover_cardinality(matrix, needed, mode="exact") == 1


def test_spanning_needs_the_rounded_up_share_of_scenarios():
    # N = 4 and rho just below 1/2: ceil(4 * (1 - rho)) is 2 only with the
    # rounding slack, so one candidate covering 2 of 4 scenarios spans
    assert _needed_count(4, 0.5 - 1e-10) == 2
    assert _needed_count(4, 0.5) == 2
    assert _needed_count(4, 0.25) == 3
    assert _needed_count(4, 0.99) == 1
    matrix = np.array([[True, True, False, False]])
    assert min_cover_cardinality(matrix, _needed_count(4, 0.5 - 1e-10), mode="exact") == 1
    assert min_cover_cardinality(matrix, _needed_count(4, 0.25), mode="exact") == math.inf


def test_lemma_construction_spans_for_stable_null_loop(ar1):
    # candidates = the closed loop's own control sequences, thresholds from the
    # empirical masses: the construction spans at sample scale for long horizons
    noise = NoiseSpec.gaussian(1, 0.0, 0.5)
    init = InitSpec.uniform_box([-1], [1])
    horizon, count = 512, 32
    scen = ScenarioSet.sample(init, noise, horizon, count, seed=99)
    policy = null_policy(2, 1)
    candidates, trajs = closed_loop_candidates(ar1, policy, scen)
    assert candidates.count == 1  # the null policy emits one sequence
    template = SpanningTemplate(Partition(low=[-3.0], high=[3.0], cells_per_axis=(2,)), None, 0.5, 0.1)
    from quantstab.stabilization_entropy import _noise_weights

    q_weights = empirical_measure(tally_of(trajs, template.state_partition)).weights[:-1]
    r = build_R_epsilon(q_weights, _noise_weights(scen, template), 0.1)
    matrix = satisfaction_matrix(ar1, candidates, template, r, scen)
    assert min_cover_cardinality(matrix, _needed_count(scen.count, template.rho)) == 1
    assert matrix.any(axis=0).mean() > 0.5


# --------------------------------------------------------------------------
# Set-cover solver against a brute-force oracle

def _oracle_min_cover(matrix, needed):
    n_rows = len(matrix)
    if needed <= 0:
        return 0
    for k in range(1, n_rows + 1):
        for combo in itertools.combinations(range(n_rows), k):
            if int(np.any(matrix[list(combo)], axis=0).sum()) >= needed:
                return k
    return math.inf


def test_exact_matches_oracle_on_200_random_tiny_instances():
    rng = np.random.default_rng(31415)
    for _ in range(200):
        rows = int(rng.integers(1, 13))
        cols = int(rng.integers(1, 13))
        matrix = rng.random((rows, cols)) < rng.uniform(0.1, 0.7)
        needed = int(rng.integers(1, cols + 1))
        expected = _oracle_min_cover(matrix, needed)
        assert min_cover_cardinality(matrix, needed, mode="exact") == expected
        greedy = min_cover_cardinality(matrix, needed, mode="greedy")
        assert greedy >= expected
        if expected == math.inf:
            assert greedy == math.inf


def test_two_disjoint_scenarios_need_two_candidates():
    matrix = np.array([[True, False], [False, True]])
    assert min_cover_cardinality(matrix, 2, mode="exact") == 2
    assert min_cover_cardinality(matrix, 2, mode="greedy") == 2


def test_exact_mode_candidate_limit():
    matrix = np.ones((21, 2), dtype=bool)
    with pytest.raises(ValueError, match="exact mode"):
        min_cover_cardinality(matrix, 1, mode="exact")


def test_infeasible_returns_infinity():
    matrix = np.zeros((3, 4), dtype=bool)
    assert min_cover_cardinality(matrix, 1, mode="greedy") == math.inf
    assert min_cover_cardinality(matrix, 1, mode="exact") == math.inf


def test_enlarging_candidate_set_never_reduces_coverage():
    rng = np.random.default_rng(7)
    model = SystemModel.from_text("states 1\nnoise 1\nx1' = 0*x1 + w1")
    inst = _trivial_instance([[1.0], [0.7]])
    scen = ScenarioSet.sample(InitSpec.uniform_box([-1], [1]), NoiseSpec.uniform(1, -1, 1), 6, 10, seed=1)
    seqs = rng.uniform(-1, 1, (6, 6, 1))
    small = CandidateControls(seqs[:3])
    large = CandidateControls(seqs)
    frac_small = satisfaction_matrix(model, small, *inst, scen).any(axis=0).mean()
    frac_large = satisfaction_matrix(model, large, *inst, scen).any(axis=0).mean()
    assert frac_large >= frac_small


# --------------------------------------------------------------------------
# Entropy rate pipeline

def test_entropy_rate_doubling_zoom_structural_caps(doubling):
    noise = NoiseSpec.uniform(1, -0.05, 0.05)
    init = InitSpec.uniform_box([-1], [1])
    policy = zoom_policy(doubling, 4, 0.75, 3.0, 2.0, noise_mean=noise.mean)
    template = SpanningTemplate(Partition(low=[-4.0], high=[4.0], cells_per_axis=(2,)), None, 0.75, 0.3)
    points = entropy_rate(doubling, policy, noise, init, template, [4, 6, 8], 32, seed=9)
    assert [p.horizon for p in points] == [4, 6, 8]
    for point in points:
        assert point.n_candidates <= 4**point.horizon
        assert point.feasible
        assert point.s_estimate <= 4**point.horizon
        assert point.rate <= point.capacity + 1e-9
        assert point.capacity == 2.0


def test_entropy_rate_deterministic_in_seed(ar1):
    noise = NoiseSpec.gaussian(1, 0.0, 0.5)
    init = InitSpec.uniform_box([-1], [1])
    policy = null_policy(4, 1)
    template = SpanningTemplate(Partition(low=[-3.0], high=[3.0], cells_per_axis=(2,)), None, 0.75, 0.3)
    a = entropy_rate(ar1, policy, noise, init, template, [6], 16, seed=5)
    b = entropy_rate(ar1, policy, noise, init, template, [6], 16, seed=5)
    assert a == b


def test_closed_loop_candidates_dedupe(ar1):
    scen = ScenarioSet.sample(InitSpec.fixed([0.0]), NoiseSpec.gaussian(1), 5, 8, seed=0)
    candidates, trajs = closed_loop_candidates(ar1, null_policy(2, 1), scen)
    assert candidates.count == 1  # all-null sequences collapse to one
    assert len(trajs) == 8


def test_closed_loop_candidates_step_scenarios_as_single_loops(doubling):
    # zoom with one cell cannot contract the doubling map; wide starts diverge
    policy = zoom_policy(doubling, 2, 0.9, 2.0, 2.0)
    scen = ScenarioSet.sample(InitSpec.uniform_box([-2e4], [2e4]), NoiseSpec.uniform(1, -0.05, 0.05), 30, 12, seed=4)
    candidates, trajs = closed_loop_candidates(doubling, policy, scen)
    assert any(t.diverged for t in trajs) and not all(t.diverged for t in trajs)
    for i, traj in enumerate(trajs):
        alone = run_closed_loop(doubling, policy, scen.x0s[i], scen.ws[i], seed=i)
        assert np.array_equal(traj.x, alone.x) and np.array_equal(traj.u, alone.u)
        assert (traj.diverged_at, traj.seed) == (alone.diverged_at, i)
    kept = [t.u for t in trajs if not t.diverged]
    assert candidates.count == len({u.tobytes() for u in kept})


def test_satisfaction_matrix_shape(ar1):
    scen = ScenarioSet.sample(InitSpec.fixed([0.0]), NoiseSpec.gaussian(1), 4, 5, seed=0)
    candidates, _ = closed_loop_candidates(ar1, null_policy(2, 1), scen)
    matrix = satisfaction_matrix(ar1, candidates, *_trivial_instance([[1.0], [1.0]]), scen)
    assert matrix.shape == (1, 5)
    assert matrix.all()


# --------------------------------------------------------------------------
# Lockstep satisfaction matrix against the scalar per-pair algorithm

def _oracle_states(model, x0, w_path, u_seq, horizon):
    states = np.full((horizon, model.n), np.inf)
    states[0] = x0
    x = np.asarray(x0, float)
    for t in range(horizon - 1):
        try:
            nxt = model.f(x, w_path[t])
        except (ZeroDivisionError, OverflowError):
            break
        with np.errstate(over="ignore", invalid="ignore"):
            nxt = nxt + model.b @ u_seq[t]
        if not np.all(np.isfinite(nxt)):
            break
        states[t + 1] = x = nxt
    return states


def _oracle_cell(part, point):
    if part is None:
        return 0 if all(x < math.inf for x in point) else -1
    return _oracle_grid_cell(part.low, part.high, part.cells_per_axis, point)


def _oracle_matrix(model, candidates, template, thresholds, scen):
    T = scen.horizon
    out = np.zeros((candidates.count, scen.count), dtype=bool)
    for i in range(candidates.count):
        for j in range(scen.count):
            x0, w_path = scen.x0s[j], scen.ws[j]
            states = _oracle_states(model, x0, w_path, candidates.sequences[i], T)
            counts = np.zeros(thresholds.shape)
            for t in range(T):
                cell = (
                    _oracle_cell(template.state_partition, states[t]),
                    _oracle_cell(template.noise_partition, w_path[t]),
                )
                if min(cell) >= 0:
                    counts[cell] += 1
            out[i, j] = np.all(counts / T >= 1.0 - thresholds - 1e-12)
    return out


# x2 is a constant coordinate; x1 divides by it, so a zero start blows up;
# B u sums two rounded products, as in the scalar loop
_CONST_DSL = "states 2\nnoise 1\ncontrols 2\nB = [0.3 -1.7; 0 0]\nx1' = x1 / x2 + w1\nx2' = 0.5"


def _lockstep_model(name):
    return SystemModel.from_text(_CONST_DSL) if name == "dsl" else catalog_model(name)


def _grid(dim, cells):
    return Partition(low=[-2.0] * dim, high=[2.0] * dim, cells_per_axis=cells)


def _lockstep_instance(model, targets, noise_grid=True):
    """Two cells on every state axis; two noise cells on the first noise axis,
    or without ``noise_grid`` the whole noise space as one cell.

    ``targets`` maps flat (state, noise) cells to thresholds; every other cell is vacuous.
    """
    state = _grid(model.n, (2,) * model.n)
    noise = _grid(model.noise_dim, (2,) + (1,) * (model.noise_dim - 1)) if noise_grid else None
    shape = (state.n_boxes, noise.n_boxes if noise_grid else 1)
    r = np.ones(shape[0] * shape[1])
    for cell, level in targets:
        r[cell % len(r)] = level
    return SpanningTemplate(state, noise, 0.5, 0.1), r.reshape(shape)


def _full_arrays(shape, elements):
    return arrays(float, shape, elements=elements, fill=st.nothing())  # every entry drawn


@st.composite
def _lockstep_cases(draw):
    model = _lockstep_model(draw(st.sampled_from(["stable_ar1", "scalar_doubling", "example1", "dsl"])))
    horizon = draw(st.sampled_from([5, 3, 1, 6, 2]))
    n_scen = draw(st.sampled_from([3, 1, 4, 2]))
    n_cand = draw(st.sampled_from([5, 3, 6, 1, 2, 0]))
    x0s = draw(_full_arrays((n_scen, model.n), st.sampled_from([0.4, -0.3, 1.9, -1.5, 0.0])))
    noise = st.sampled_from([-0.6, 0.3, -1.7, 1.1, 2.4, -2.3]) | st.floats(-2.5, 2.5)
    ws = draw(_full_arrays((n_scen, horizon, model.noise_dim), noise))
    # +-1e308 controls overflow to +-inf within a few steps on every model
    levels = st.sampled_from([0.3, -1.1, -0.7, 0.0, 0.45, 1.3, 1e308, -1e308])
    seqs = draw(_full_arrays((n_cand, horizon, model.control_dim), levels))
    # one binding cell at a time (each cell in turn), then two together;
    # each needs frequency 0.1 .. 0.4, so sum(1 - r) <= 1 holds
    level = st.sampled_from([0.8, 0.9, 0.6])
    pair = draw(st.lists(st.tuples(st.integers(0, 7), level), min_size=2, max_size=2))
    targets = [[(cell, draw(level))] for cell in range(8)] + [pair]
    block = draw(st.integers(1, 13))
    return model, CandidateControls(seqs), targets, ScenarioSet(x0s, ws), block


def _pinned_case(name, horizon, n_cand, block, n_scen=2):
    model = _lockstep_model(name)
    rng = np.random.default_rng(horizon * 10 + n_cand)
    x0s = rng.choice([-1.0, 0.0, 0.5, 1.2], size=(n_scen, model.n))
    scen = ScenarioSet(x0s, rng.uniform(-2.5, 2.5, (n_scen, horizon, model.noise_dim)))
    seqs = rng.choice([-1e308, -0.7, 0.0, 0.3, 1e308], size=(n_cand, horizon, model.control_dim))
    targets = [[(cell, 0.8)] for cell in range(8)] + [[(2, 0.7), (5, 0.9)]]
    return model, CandidateControls(seqs), targets, scen, block


@settings(max_examples=50, deadline=None)
@given(_lockstep_cases())
@example(_pinned_case("scalar_doubling", 1, 4, 512))  # T = 1: only x_0 and w_0 count
@example(_pinned_case("example1", 5, 0, 512))  # no candidates
@example(_pinned_case("example1", 5, 7, 6))  # 3 candidates per block; 7 is no multiple
@example(_pinned_case("example1", 4, 3, 5, n_scen=7))  # blocks of 5 split each candidate's 7 scenarios
@example(_pinned_case("dsl", 4, 5, 4))  # zero x2 starts and +-1e308 controls blow up
def test_lockstep_matrix_matches_scalar_oracle(case):
    model, candidates, targets, scen, block = case
    horizon = scen.horizon
    # the whole noise space as one cell, then a noise grid for every target set
    for cells, noise_grid in [(targets[-1], False)] + [(cells, True) for cells in targets]:
        inst = _lockstep_instance(model, cells, noise_grid)
        with mock.patch.object(stabilization_entropy, "PAIR_BLOCK", block):
            matrix = satisfaction_matrix(model, candidates, *inst, scen)
        assert matrix.shape == (candidates.count, scen.count)
        assert np.array_equal(matrix, _oracle_matrix(model, candidates, *inst, scen))
    for i, j in itertools.product(range(candidates.count), range(scen.count)):
        x0, w_path = scen.x0s[j], scen.ws[j]
        u = candidates.sequences[i]
        states = _states(model, x0, w_path, u, horizon)
        assert np.array_equal(states, _oracle_states(model, x0, w_path, u, horizon))
        assert _satisfies(model, u, (x0, w_path), inst) == matrix[i, j]


@pytest.mark.parametrize("name", ["example1", "dsl"])
def test_lockstep_states_bitwise_at_full_block(name):
    # BLAS picks kernels by shape, so parity is checked at the production block size
    model = _lockstep_model(name)
    rng = np.random.default_rng(11)
    pairs, horizon = stabilization_entropy.PAIR_BLOCK, 11
    x0s = rng.choice([-1.5, -0.3, 0.4, 1.9], size=(pairs, model.n))
    ws = rng.uniform(-0.5, 0.5, (pairs, horizon, model.noise_dim))
    us = rng.uniform(-1.0, 1.0, (pairs, horizon, model.control_dim))
    states = stabilization_entropy._lockstep_states(model, x0s, ws, us, horizon)
    for p in range(pairs):
        assert np.array_equal(states[p], _oracle_states(model, x0s[p], ws[p], us[p], horizon))


def _matrix_peak(model, template, r, candidates, scen):
    """tracemalloc's peak over one ``satisfaction_matrix`` call, in bytes."""
    tracemalloc.start()
    try:
        satisfaction_matrix(model, candidates, template, r, scen)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_matrix_memory_does_not_grow_with_the_scenario_count():
    # above PAIR_BLOCK scenarios a block of whole candidates would hold every
    # scenario of one, and its per-pair cell counts with it
    model = catalog_model("example1")
    state = Partition(low=[-2.0] * 2, high=[2.0] * 2, cells_per_axis=(16, 16))
    noise = Partition(low=[-1.0] * model.noise_dim, high=[1.0] * model.noise_dim, cells_per_axis=(2,) * model.noise_dim)
    template = SpanningTemplate(state, noise, 0.5, 0.1)
    r = np.ones(template.cells)
    rng = np.random.default_rng(5)
    candidates = CandidateControls(rng.uniform(-0.5, 0.5, (3, 6, model.control_dim)))
    count = 600
    assert count > stabilization_entropy.PAIR_BLOCK
    peaks = []
    for n in (count, 4 * count):
        scen = ScenarioSet(rng.uniform(-1.0, 1.0, (n, model.n)), rng.uniform(-0.5, 0.5, (n, 6, model.noise_dim)))
        peaks.append(_matrix_peak(model, template, r, candidates, scen))
    assert peaks[1] <= 1.25 * peaks[0], peaks


# --------------------------------------------------------------------------
# Entropy curve export

def _entropy_curve_oracle(points, path):
    """The export as one csv.writer row per point, one format call per value."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["T", "s_estimate", "rate", "capacity"])
        for pt in points:
            s = str(int(pt.s_estimate)) if pt.s_estimate != math.inf else "inf"
            writer.writerow(
                [str(pt.horizon), s, format(pt.rate, ".17g"), format(pt.capacity, ".17g")]
            )


def test_entropy_curve_csv_matches_csv_writer_oracle(tmp_path):
    points = [
        EntropyPoint(4, 3, math.log2(3) / 4, 2.0, 9, 1.0),
        EntropyPoint(6, math.inf, math.inf, 5e-324, 0, 0.0),  # infeasible
        EntropyPoint(8, 1, -0.0, -np.inf, 1, 0.5),
        EntropyPoint(10, 2**62, math.nan, 0.1, 2**62, 0.25),
    ]
    ours, oracle = tmp_path / "ours.csv", tmp_path / "oracle.csv"
    for rows in (points, []):
        entropy_curve_to_csv(rows, ours)
        _entropy_curve_oracle(rows, oracle)
        assert ours.read_bytes() == oracle.read_bytes()
    entropy_curve_to_csv(points, ours)
    assert ours.read_bytes().split(b"\r\n")[2] == b"6,inf,inf,4.9406564584124654e-324"
