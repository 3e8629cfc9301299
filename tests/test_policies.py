
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from quantstab import (
    NoiseSpec,
    InitSpec,
    Partition,
    SystemModel,
    batch_rollout,
    catalog_model,
    null_policy,
    rollout,
    uniform_quantizer_policy,
    zoom_policy,
)
from quantstab.policies import (
    MAX_CELLS,
    ZoomState,
    _cancelling,
    cell_coords,
    cell_count,
    cell_numbers,
    per_axis,
)


# --------------------------------------------------------------------------
# Null policy

def test_null_policy_emits_symbol_one_and_zero_control(ar1):
    policy = null_policy(4, control_dim=1)
    traj = rollout(policy=policy, model=ar1, noise=NoiseSpec.gaussian(1), init=InitSpec.fixed([1.0]), horizon=50, seed=1)
    assert np.all(traj.q == 1)
    assert np.all(traj.u == 0.0)


def test_null_policy_keeps_stable_system_bounded(ar1):
    trajs = batch_rollout(ar1, null_policy(2), NoiseSpec.gaussian(1), InitSpec.fixed([0.0]), 2000, 16, 5)
    pooled = np.concatenate([t.x[:, 0] for t in trajs])
    # AR(1) with a=1/2: stationary std sqrt(4/3); far tail events are rare
    assert np.quantile(np.abs(pooled), 0.99) < 4.0
    assert not any(t.diverged for t in trajs)


def test_null_policy_lets_doubling_diverge(doubling):
    traj = rollout(doubling, null_policy(2), NoiseSpec.zero(1), InitSpec.fixed([1.0]), 100, seed=0)
    assert traj.diverged


def test_capacity_is_log2_of_alphabet():
    assert null_policy(4).capacity() == 2.0
    assert null_policy(1).capacity() == 0.0


# --------------------------------------------------------------------------
# Uniform quantizer

def test_one_bit_quantizer_cells(doubling):
    policy = uniform_quantizer_policy(doubling, [-1.0], [1.0], [1])
    assert policy.m == 3 and policy.n_cells == 2
    symbol = policy.symbol_of([0.3])
    assert symbol == 2  # cell [0, 1)
    assert np.array_equal(policy.cell_center(symbol), [0.5])
    assert policy.symbol_of([-0.3]) == 1  # cell [-1, 0)


def test_quantizer_overflow_symbol_and_zero_control(doubling):
    policy = uniform_quantizer_policy(doubling, [-1.0], [1.0], [1])
    assert policy.symbol_of([1.5]) == policy.overflow_symbol
    assert policy.symbol_of([1.0]) == policy.overflow_symbol  # upper edge excluded
    controller = policy.controller()
    assert np.array_equal(controller.control(0, policy.overflow_symbol), [0.0])


def test_quantizer_cells_partition_the_box(example2):
    policy = uniform_quantizer_policy(example2, [-4, -4], [4, 4], [3, 2])
    rng = np.random.default_rng(12)
    for _ in range(500):
        x = rng.uniform(-4, 4, 2)
        symbol = policy.symbol_of(x)
        assert 1 <= symbol <= policy.n_cells
        center = policy.cell_center(symbol)
        assert np.all(np.abs(x - center) <= policy.width / 2 + 1e-12)


def test_quantizer_control_rule_cancels_nominal_image(example2):
    noise_mean = np.array([0.0])
    policy = uniform_quantizer_policy(example2, [-4, -4], [4, 4], [6, 6], noise_mean=noise_mean)
    controller = policy.controller()
    symbol = policy.symbol_of([0.5, -0.5])
    u = controller.control(0, symbol)
    center = policy.cell_center(symbol)
    assert np.allclose(example2.f(center, noise_mean) + example2.b @ u, 0.0, atol=1e-12)


def test_quantizer_rejects_degenerate_box_and_small_alphabet(doubling):
    with pytest.raises(ValueError, match="degenerate"):
        uniform_quantizer_policy(doubling, [1.0], [1.0], [1])
    with pytest.raises(ValueError, match="alphabet"):
        uniform_quantizer_policy(doubling, [-1.0], [1.0], [3], m=8)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("low, high, bits", [(-1e308, 1e308, 2), (0.0, 5e-324, 1)])
def test_quantizer_rejects_a_cell_width_that_is_not_finite_and_positive(doubling, low, high, bits):
    # high - low overflows to inf, or the width underflows to 0
    with pytest.raises(ValueError, match="not all finite and positive"):
        uniform_quantizer_policy(doubling, [low], [high], [bits])


def test_twelve_bit_quantizer_stabilizes_example2(example2):
    noise = NoiseSpec.uniform(1, -0.25, 0.25)
    init = InitSpec.uniform_box([-0.5, -0.5], [0.5, 0.5])
    policy = uniform_quantizer_policy(example2, [-4, -4], [4, 4], [6, 6], noise_mean=noise.mean)
    trajs = batch_rollout(example2, policy, noise, init, 2000, 16, base_seed=77)
    assert sum(t.diverged for t in trajs) == 0
    assert max(np.abs(t.x).max() for t in trajs) < 4.0


# --------------------------------------------------------------------------
# Zoom policy

def test_zoom_encoder_controller_states_stay_identical(doubling):
    policy = zoom_policy(doubling, 4, alpha=0.75, beta=3.0, initial_halfwidth=2.0)
    encoder = policy.encoder()
    controller = policy.controller()
    rng = np.random.default_rng(31)
    for t in range(10_000):
        q = encoder.encode(t, rng.normal(size=1) * 5.0)
        controller.control(t, q)
        assert encoder.state == controller.state


def test_zoom_two_bits_stabilizes_doubling(doubling):
    noise = NoiseSpec.uniform(1, -0.05, 0.05)
    policy = zoom_policy(doubling, 4, alpha=0.75, beta=3.0, initial_halfwidth=2.0, noise_mean=noise.mean)
    traj = rollout(doubling, policy, noise, InitSpec.uniform_box([-1], [1]), 10_000, seed=11)
    assert not traj.diverged
    assert float(np.mean(traj.x**2)) < 1.0  # bounded empirical second moment


def test_zoom_one_bit_cannot_contract_and_diverges(doubling):
    noise = NoiseSpec.uniform(1, -0.05, 0.05)
    # single cell: quantization error equals the halfwidth, so no alpha < 1 contracts
    policy = zoom_policy(doubling, 2, alpha=0.9, beta=2.0, initial_halfwidth=2.0, noise_mean=noise.mean)
    traj = rollout(doubling, policy, noise, InitSpec.uniform_box([-1], [1]), 5000, seed=11)
    assert traj.diverged


def test_zoom_parameter_validation(doubling):
    with pytest.raises(ValueError):
        zoom_policy(doubling, 1, 0.5, 2.0, 1.0)
    with pytest.raises(ValueError):
        zoom_policy(doubling, 4, 1.5, 2.0, 1.0)
    with pytest.raises(ValueError):
        zoom_policy(doubling, 4, 0.5, 0.9, 1.0)
    with pytest.raises(ValueError):
        zoom_policy(doubling, 4, 0.5, 2.0, -1.0)
    with pytest.raises(ValueError, match="do not fit"):
        zoom_policy(doubling, 4, 0.5, 2.0, 1.0, cells_per_axis=(5,))


def test_zoom_default_cell_counts(example2, doubling):
    assert zoom_policy(doubling, 8, 0.5, 2.0, 1.0).cells_per_axis == (7,)
    assert zoom_policy(example2, 10, 0.5, 2.0, 1.0).cells_per_axis == (3, 3)
    assert zoom_policy(example2, 10, 0.5, 2.0, 1.0, cells_per_axis=(4, 2)).n_cells == 8


def test_zoom_range_shrinks_in_range_and_grows_on_overflow(doubling):
    policy = zoom_policy(doubling, 4, alpha=0.5, beta=2.0, initial_halfwidth=1.0)
    encoder = policy.encoder()
    q = encoder.encode(0, np.array([0.1]))
    assert q <= policy.n_cells
    assert encoder.state.halfwidth == 0.5
    q = encoder.encode(1, np.array([100.0]))
    assert q == policy.overflow_symbol
    assert encoder.state.halfwidth == 1.0


# --------------------------------------------------------------------------
# The two grid quantizers share one core: alphabet, target and noise mean

# 2 x 2 cells on example1 (two states, two noise coordinates) either way
_GRID_QUANTIZERS = {
    "uniform": lambda model, m=None, **kw: uniform_quantizer_policy(model, -1.0, 1.0, 1, m=m, **kw),
    "zoom": lambda model, m=5, **kw: zoom_policy(model, m, 0.5, 2.0, 1.0, cells_per_axis=2, **kw),
}


@pytest.mark.parametrize("kind", sorted(_GRID_QUANTIZERS))
def test_grid_quantizer_alphabet_too_small_gives_one_message(example1, kind):
    with pytest.raises(ValueError, match="^4 cells do not fit an alphabet of 4 with overflow reserved$"):
        _GRID_QUANTIZERS[kind](example1, m=4)


@pytest.mark.parametrize("kind", sorted(_GRID_QUANTIZERS))
@pytest.mark.parametrize("option", ["target", "noise_mean"])
def test_grid_quantizer_per_axis_option_of_the_wrong_length_is_rejected(example1, kind, option):
    with pytest.raises(ValueError):
        _GRID_QUANTIZERS[kind](example1, **{option: [0.0, 0.0, 0.0]})


@pytest.mark.parametrize("kind", sorted(_GRID_QUANTIZERS))
def test_grid_quantizer_scalar_options_broadcast_and_omitted_ones_are_zeros(example1, kind):
    build = _GRID_QUANTIZERS[kind]
    policy = build(example1, target=1.5, noise_mean=-0.25)
    assert policy.target.tolist() == [1.5, 1.5] and policy.noise_mean.tolist() == [-0.25, -0.25]
    policy = build(example1)
    assert policy.target.tolist() == [0.0, 0.0] and policy.noise_mean.tolist() == [0.0, 0.0]
    assert (policy.n_cells, policy.m, policy.overflow_symbol) == (4, 5, 5)


def test_per_axis_reads_one_number_or_one_per_axis_into_a_fresh_float_array():
    values = np.array([1, 2])
    out = per_axis(values, 2)
    assert out.dtype == float and out.tolist() == [1.0, 2.0] and not np.shares_memory(out, values)
    assert per_axis(3, 2).tolist() == [3.0, 3.0]
    assert per_axis(None, 2, 0.0).tolist() == [0.0, 0.0]
    assert np.isnan(per_axis(None, 2)).all()  # a required value is never read as 0
    with pytest.raises(ValueError):
        per_axis([1.0, 2.0, 3.0], 2)


def test_a_missing_required_box_bound_still_fails(doubling):
    with pytest.raises(ValueError, match="not all finite and positive"):
        uniform_quantizer_policy(doubling, None, [1.0], [1])


# --------------------------------------------------------------------------
# Grid sizes

def test_cell_count_is_exact_up_to_the_limit():
    assert cell_count((2**12, 2**12)) == MAX_CELLS
    assert cell_count((3, 5, 7)) == 105
    with pytest.raises(ValueError, match=f"grid of {MAX_CELLS + 2**12} cells exceeds the limit"):
        cell_count((2**12, 2**12 + 1))


def test_quantizers_reject_grids_above_the_cell_limit(example2):
    # both grids have 2^64 cells, which an int64 product counts as 0
    with pytest.raises(ValueError, match="cells exceeds the limit"):
        uniform_quantizer_policy(example2, -4.0, 4.0, [32, 32])
    with pytest.raises(ValueError, match="cells exceeds the limit"):
        zoom_policy(example2, 3, 0.5, 2.0, 1.0, cells_per_axis=[2**32, 2**32])


# --------------------------------------------------------------------------
# Where-based symbols and cell lookups against the masked versions they
# replaced: every row takes the same arithmetic and results are picked by
# np.where. These test-local copies gather the in-range rows and scatter them
# back; the controls of both quantizers are checked against such copies too.

def _masked_uniform_symbols(policy, xs):
    inside = ((xs >= policy.low) & (xs < policy.high)).all(axis=1)
    out = np.full(len(xs), policy.overflow_symbol)
    out[inside] = 1 + cell_numbers((xs[inside] - policy.low) / policy.width, policy.cells_per_axis)
    return out


class _MaskedUniformTable:
    """The lazily filled control table, checked on every call."""

    def __init__(self, policy):
        self.policy = policy
        self.controls = np.zeros((policy.n_cells + 1, policy.model.control_dim))
        self.filled = np.zeros(policy.n_cells + 1, dtype=bool)
        self.filled[policy.n_cells] = True

    def advance(self, qs):
        rows = np.minimum(qs, self.policy.n_cells + 1) - 1
        missing = rows[~self.filled[rows]]
        if missing.size:
            missing = np.unique(missing)
            self.controls[missing] = _cancelling(self.policy, self.policy._centers(missing + 1))[1]
            self.filled[missing] = True
        return self.controls[rows]


def _masked_zoom_symbols(policy, state, xs):
    span = 2.0 * state.halfwidth[:, None]
    offset = xs - (state.center - state.halfwidth[:, None])
    inside = ((offset >= 0.0) & (offset < span)).all(axis=1)
    scaled = offset / span * policy._cells
    out = np.full(len(xs), policy.overflow_symbol)
    out[inside] = 1 + cell_numbers(scaled[inside], policy.cells_per_axis)
    return out


def _masked_zoom_advance(policy, state, qs):
    us = np.zeros((len(qs), policy.model.control_dim))
    hit = qs <= policy.n_cells
    rows = slice(None) if hit.all() else hit
    halfwidth = state.halfwidth[rows]
    state.halfwidth = state.halfwidth * np.where(hit, policy.alpha, policy.beta)
    if halfwidth.size:
        low = state.center[rows] - halfwidth[:, None]
        width = 2.0 * halfwidth[:, None] / policy._cells
        coords = cell_coords(qs[rows] - 1, policy.cells_per_axis)
        image, u = _cancelling(policy, low + (coords + 0.5) * width)
        state.center[rows] = image + policy.model.control_effect(u)
        us[rows] = u
    return us


def _masked_cell_indices(part, states):
    in_box = np.all((states >= part.low) & (states < part.high), axis=1)
    out = np.full(len(states), part.overflow_index, dtype=np.int64)
    out[in_box] = cell_numbers((states[in_box] - part.low) / part.width, part.cells_per_axis)
    return out


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


_GRID_MODELS = {
    "scalar_doubling": lambda: catalog_model("scalar_doubling"),
    "example2": lambda: catalog_model("example2"),
    # B u sums two rounded products per coordinate
    "skew": lambda: SystemModel.from_text(
        "states 2\nnoise 1\nB = [0.3 -1.7; 1.1 0.6]\nx1' = 1.5*x1 - 0.2*x2^2 + w1\nx2' = 0.4*x1*x2 - w1"
    ),
}
_FAR = [np.inf, -np.inf, np.nan, 1e308, -1e308, 1e12]
# on [-1, 1): the top edge, the float below it (scales onto the edge), the low edge, non-finite
_TOP_EDGE_ROWS = np.array([[1.0], [np.nextafter(1.0, -np.inf)], [-1.0], [np.inf], [-np.inf], [np.nan]])


def _coordinate(draw, low, high, cells, mix):
    """One coordinate around the axis [low, high) of ``cells`` cells: edges and
    their neighbours (the top edge's lower one scales onto the edge), inner
    points and, by ``mix``, far and non-finite values. An empty axis (an
    underflowed zoom range) has no inside, so it draws around it."""
    with np.errstate(all="ignore"):
        edges = low + np.arange(cells + 1) * ((high - low) / cells)
    near = [float(v) for e in edges for v in (e, np.nextafter(e, -np.inf), np.nextafter(e, np.inf)) if np.isfinite(v)]
    inner = [v for v in near if low <= v < high]
    inside = st.sampled_from(inner) | st.floats(low, high, exclude_max=True) if inner else st.sampled_from(near + _FAR)
    return draw({"inside": inside, "outside": st.sampled_from(_FAR), "mixed": inside | st.sampled_from(near + _FAR)}[mix])


def _box_points(draw, low, high, cells, rows, mix):
    return np.array([[_coordinate(draw, low[i], high[i], cells[i], mix) for i in range(len(low))] for _ in range(rows)])


@st.composite
def _uniform_cases(draw):
    model = _GRID_MODELS[draw(st.sampled_from(sorted(_GRID_MODELS)))]()
    low = np.array(draw(st.lists(st.sampled_from([-4.0, -1.0, -0.3, 0.0]), min_size=model.n, max_size=model.n)))
    high = low + np.array(draw(st.lists(st.sampled_from([0.7, 2.0, 7.4]), min_size=model.n, max_size=model.n)))
    policy = uniform_quantizer_policy(model, low, high, draw(st.integers(0, 2)))
    mix = draw(st.sampled_from(["inside", "outside", "mixed"]))
    batches = [_box_points(draw, low, high, policy.cells_per_axis, draw(st.integers(1, 6)), mix) for _ in range(3)]
    return policy, batches


@settings(max_examples=60, deadline=None)
@given(_uniform_cases())
@example((uniform_quantizer_policy(catalog_model("scalar_doubling"), -1.0, 1.0, 2), [_TOP_EDGE_ROWS] * 2))
def test_uniform_steps_match_masked_versions_bitwise(case):
    policy, batches = case
    table = _MaskedUniformTable(policy)
    for xs in batches:  # the table fills across calls
        qs = policy.symbols(None, xs)
        assert _same_bits(qs, _masked_uniform_symbols(policy, xs))
        assert _same_bits(policy.advance(None, qs), table.advance(qs))
        assert _same_bits(policy.advance(None, qs), table.advance(qs))


@st.composite
def _zoom_cases(draw):
    model = _GRID_MODELS[draw(st.sampled_from(sorted(_GRID_MODELS)))]()
    m = draw(st.integers(2, 10))
    policy = zoom_policy(model, m, 0.6, 3.0, 2.0)
    rows = draw(st.integers(1, 6))
    # 0.0 and 5e-324 are halfwidths that underflowed; 1e308 spans inf
    halfwidth = np.array(draw(st.lists(
        st.sampled_from([0.0, 5e-324, 1e-300, 1e308]) | st.floats(1e-3, 1e3), min_size=rows, max_size=rows
    )))
    center = np.array(draw(st.lists(
        st.lists(st.floats(-1e3, 1e3), min_size=model.n, max_size=model.n), min_size=rows, max_size=rows
    )))
    mix = draw(st.sampled_from(["inside", "outside", "mixed"]))
    xs = np.empty((rows, model.n))
    for k in range(rows):
        low, high = center[k] - halfwidth[k], center[k] + halfwidth[k]
        xs[k] = _box_points(draw, low, high, policy.cells_per_axis, 1, mix)[0]
    qs = np.array(draw(st.lists(st.integers(1, m), min_size=rows, max_size=rows)))
    return policy, ZoomState(center, halfwidth), xs, qs


def _underflowed_zoom_case():
    # row 0's range has shrunk to nothing, row 1 sees nan; then a hit and an overflow
    policy = zoom_policy(catalog_model("scalar_doubling"), 4, 0.6, 3.0, 2.0)
    state = ZoomState(np.zeros((2, 1)), np.array([0.0, 2.0]))
    return policy, state, np.array([[0.0], [np.nan]]), np.array([1, 4])


@settings(max_examples=60, deadline=None)
@given(_zoom_cases())
@example(_underflowed_zoom_case())
def test_zoom_steps_match_masked_versions_bitwise(case):
    policy, state, xs, qs = case
    with np.errstate(all="ignore"):  # as in the closed loop: overflow shows in the states
        assert _same_bits(policy.symbols(state, xs), _masked_zoom_symbols(policy, state, xs))
        for q in (policy.symbols(state, xs), qs):
            ours = ZoomState(state.center.copy(), state.halfwidth.copy())
            theirs = ZoomState(state.center.copy(), state.halfwidth.copy())
            assert _same_bits(policy.advance(ours, q), _masked_zoom_advance(policy, theirs, q))
            assert _same_bits(ours.center, theirs.center)
            assert _same_bits(ours.halfwidth, theirs.halfwidth)


def test_zoom_overflow_row_keeps_its_center_and_gets_zero_control():
    # every row's centroid is evaluated; the overflow row's (the top cell of
    # [9, 11), at 10.5) divides by zero, and none of it may reach that row
    model = SystemModel.from_text("states 1\nnoise 1\nx1' = 2*x1 + 1/(x1 - 10.5) + w1")
    policy = zoom_policy(model, 3, 0.5, 3.0, 1.0)
    state = ZoomState(np.array([[0.0], [10.0]]), np.array([1.0, 1.0]))
    qs = policy.symbols(state, np.array([[0.5], [5.0]]))
    assert qs.tolist() == [2, policy.overflow_symbol]
    with np.errstate(all="ignore"):  # as in the closed loop
        us = policy.advance(state, qs)
    image = model.f([0.5], [0.0])[0]
    assert us.tolist() == [[-image], [0.0]]
    assert state.center.tolist() == [[0.0], [10.0]]
    assert state.halfwidth.tolist() == [0.5, 3.0]


@st.composite
def _partition_cases(draw):
    dim = draw(st.integers(1, 3))
    low = np.array(draw(st.lists(st.sampled_from([-4.0, -1.0, -0.3, 0.0]), min_size=dim, max_size=dim)))
    high = low + np.array(draw(st.lists(st.sampled_from([0.7, 2.0, 7.4]), min_size=dim, max_size=dim)))
    part = Partition(low, high, tuple(draw(st.lists(st.integers(1, 7), min_size=dim, max_size=dim))))
    mix = draw(st.sampled_from(["inside", "outside", "mixed"]))
    return part, _box_points(draw, part.low, part.high, part.cells_per_axis, draw(st.integers(1, 8)), mix)


@settings(max_examples=60, deadline=None)
@given(_partition_cases())
@example((Partition([-1.0], [1.0], (4,)), _TOP_EDGE_ROWS))
def test_cell_indices_match_masked_version_bitwise(case):
    part, states = case
    assert _same_bits(part.cell_indices(states), _masked_cell_indices(part, states))


@pytest.mark.filterwarnings("error")
def test_grid_lookups_do_not_warn_on_non_finite_rows(example2):
    far = np.array([[np.inf, 0.0], [-np.inf, 0.5], [np.nan, 0.0], [0.0, np.nan], [1e308, -1e308], [0.5, 0.5]])
    # cells narrower than 1, so scaling the far rows would overflow
    part = Partition([-1.0, -1.0], [1.0, 1.0], (4, 4))
    assert part.cell_indices(far).tolist() == [16, 16, 16, 16, 16, 15]
    policy = uniform_quantizer_policy(example2, [-1.0, -1.0], [1.0, 1.0], [2, 2])
    assert [policy.symbol_of(x) for x in far] == [policy.overflow_symbol] * 5 + [16]
