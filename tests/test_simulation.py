import csv
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from quantstab import (
    InitSpec,
    NoiseSpec,
    Partition,
    SystemModel,
    audit_causality,
    batch_rollout,
    catalog_model,
    null_policy,
    replay_consistent,
    rollout,
    step,
    uniform_quantizer_policy,
    zoom_policy,
)
from quantstab import dynamics, simulation
from quantstab.ergodics import VisitTally, empirical_measure, ergodicity_dispersion, frequency_convergence
from quantstab.simulation import (
    CSV_BLOCK_ROWS,
    DIVERGENCE_THRESHOLD,
    CoordInit,
    Trajectory,
    closed_loop_blocks,
    path_seed,
    run_closed_loop,
    run_closed_loops,
    summarize_divergence,
    trajectory_to_csv,
    write_csv,
)
from conftest import tally_of


# --------------------------------------------------------------------------
# Specs

def test_gaussian_noise_spec_moments():
    spec = NoiseSpec.gaussian(2, mean=[1.0, -1.0], std=[0.5, 2.0])
    rng = np.random.default_rng(0)
    draws = spec.sample(rng, 50_000)
    assert np.allclose(draws.mean(axis=0), [1.0, -1.0], atol=0.05)
    assert np.allclose(draws.std(axis=0), [0.5, 2.0], rtol=0.05)
    assert np.array_equal(spec.mean, [1.0, -1.0])


def test_uniform_noise_spec_bounds_and_mean():
    spec = NoiseSpec.uniform(1, -0.2, 0.6)
    rng = np.random.default_rng(0)
    draws = spec.sample(rng, 10_000)
    assert draws.min() >= -0.2 and draws.max() < 0.6
    assert spec.mean == pytest.approx([0.2])


def test_atom_noise_spec():
    spec = NoiseSpec.atoms([[-1.0], [1.0]], [0.25, 0.75])
    rng = np.random.default_rng(0)
    draws = spec.sample(rng, 20_000)
    assert set(np.unique(draws)) == {-1.0, 1.0}
    assert draws.mean() == pytest.approx(0.5, abs=0.02)
    assert spec.mean == pytest.approx([0.5])


def test_noise_spec_validation():
    with pytest.raises(ValueError):
        NoiseSpec.gaussian(1, std=0.0)
    with pytest.raises(ValueError):
        NoiseSpec.uniform(1, 1.0, 1.0)
    with pytest.raises(ValueError):
        NoiseSpec.atoms([[0.0]], [0.5])


def test_init_spec_mixed_coordinates():
    spec = InitSpec.uniform_box([-1, -1], [1, 1])
    rng = np.random.default_rng(0)
    draws = spec.sample(rng, 1000)
    assert draws.shape == (1000, 2)
    assert np.all(np.abs(draws) < 1.0)
    fixed = InitSpec.fixed([2.0, -3.0])
    assert np.array_equal(fixed.sample(rng, 3), [[2.0, -3.0]] * 3)


# --------------------------------------------------------------------------
# step

def test_step_doubling(doubling):
    assert np.array_equal(step(doubling, [1.0], [0.0], [0.0]), [2.0])


def test_step_example1(example1):
    assert np.array_equal(step(example1, [1.0, 1.0], [0.0, 0.0], [0.0, 0.0]), [2.0, 0.5])


def test_step_example2(example2):
    assert np.array_equal(step(example2, [1.0, 1.0], [0.0], [0.0, 0.0]), [4.0, 0.5])


def test_step_applies_control_through_b(example1):
    out = step(example1, [1.0, 1.0], [0.0, 0.0], [-2.0, 0.5])
    assert np.array_equal(out, [0.0, 1.0])


def test_step_rejects_wrong_control_dim(example1):
    with pytest.raises(ValueError):
        step(example1, [1.0, 1.0], [0.0, 0.0], [1.0])


def test_step_rejects_wrong_state_and_noise_dim(example1):
    with pytest.raises(ValueError, match="state dim"):
        step(example1, [1.0], [0.0, 0.0], [0.0, 0.0])
    with pytest.raises(ValueError, match="noise dim"):
        step(example1, [1.0, 1.0], [0.0], [0.0, 0.0])


@pytest.mark.parametrize("name", ["example2", "skew"])
def test_step_is_one_step_of_the_closed_loop_bitwise(name):
    model = _KERNEL_MODELS[name]()
    policy = uniform_quantizer_policy(model, [-4.0, -4.0], [4.0, 4.0], [3, 3])
    rng = np.random.default_rng(5)
    for _ in range(50):
        x0, w = rng.uniform(-3.0, 3.0, model.n), rng.uniform(-0.5, 0.5, (1, model.noise_dim))
        traj = run_closed_loop(model, policy, x0, w)
        assert traj.u[0].any()
        assert np.array_equal(step(model, x0, w[0], traj.u[0]), traj.x[1])


def test_step_division_by_zero_gives_non_finite_state():
    out = step(_KERNEL_MODELS["reciprocal"](), [0.0], [0.5], [0.0])
    assert out.shape == (1,) and not np.isfinite(out).any()


# --------------------------------------------------------------------------
# rollout

def test_rollout_geometric_decay(ar1):
    traj = rollout(ar1, null_policy(2), NoiseSpec.zero(1), InitSpec.fixed([8.0]), 4, seed=0)
    assert np.array_equal(traj.x[:, 0], [8.0, 4.0, 2.0, 1.0, 0.5])
    assert not traj.diverged


def test_rollout_doubling_reaches_1024_then_diverges_later(doubling):
    traj = rollout(doubling, null_policy(2), NoiseSpec.zero(1), InitSpec.fixed([1.0]), 10, seed=0)
    assert traj.x[10, 0] == 1024.0
    assert not traj.diverged
    longer = rollout(doubling, null_policy(2), NoiseSpec.zero(1), InitSpec.fixed([1.0]), 50, seed=0)
    assert longer.diverged
    assert longer.steps < 50
    assert np.abs(longer.x[longer.steps, 0]) > 1e12


def test_rollout_is_deterministic_in_seed(example2):
    noise = NoiseSpec.uniform(1, -0.25, 0.25)
    init = InitSpec.uniform_box([-0.5, -0.5], [0.5, 0.5])
    policy = uniform_quantizer_policy(example2, [-4, -4], [4, 4], [6, 6], noise_mean=noise.mean)
    a = rollout(example2, policy, noise, init, 500, seed=3)
    b = rollout(example2, policy, noise, init, 500, seed=3)
    assert np.array_equal(a.x, b.x) and np.array_equal(a.w, b.w)
    assert np.array_equal(a.q, b.q) and np.array_equal(a.u, b.u)
    c = rollout(example2, policy, noise, init, 500, seed=4)
    assert not np.array_equal(a.x, c.x)


def test_zoom_rollout_stays_bounded_over_long_horizon(doubling):
    noise = NoiseSpec.uniform(1, -0.05, 0.05)
    policy = zoom_policy(doubling, 4, 0.75, 3.0, 2.0, noise_mean=noise.mean)
    traj = rollout(doubling, policy, noise, InitSpec.uniform_box([-1], [1]), 10_000, seed=2)
    assert not traj.diverged
    assert traj.steps == 10_000


def test_replay_invariant(example2):
    noise = NoiseSpec.uniform(1, -0.25, 0.25)
    init = InitSpec.uniform_box([-0.5, -0.5], [0.5, 0.5])
    policy = uniform_quantizer_policy(example2, [-4, -4], [4, 4], [6, 6], noise_mean=noise.mean)
    traj = rollout(example2, policy, noise, init, 1000, seed=9)
    assert replay_consistent(example2, traj)


def test_causality_audit(example2, doubling):
    noise = NoiseSpec.uniform(1, -0.25, 0.25)
    init = InitSpec.uniform_box([-0.5, -0.5], [0.5, 0.5])
    for policy in [
        null_policy(2, example2.control_dim),
        uniform_quantizer_policy(example2, [-4, -4], [4, 4], [4, 4], noise_mean=noise.mean),
        zoom_policy(example2, 10, 0.6, 3.0, 2.0, noise_mean=noise.mean),
    ]:
        traj = rollout(example2, policy, noise, init, 500, seed=21)
        assert audit_causality(policy, traj)


def test_causality_audit_detects_tampering(ar1):
    policy = null_policy(2)
    traj = rollout(ar1, policy, NoiseSpec.gaussian(1), InitSpec.fixed([0.0]), 50, seed=1)
    traj.u[10] = 1.0
    assert not audit_causality(policy, traj)


# --------------------------------------------------------------------------
# batch rollout

def test_batch_single_path_equals_rollout_with_derived_seed(ar1):
    noise = NoiseSpec.gaussian(1)
    init = InitSpec.gaussian(1)
    batch = batch_rollout(ar1, null_policy(2), noise, init, 200, 1, base_seed=42)
    solo = rollout(ar1, null_policy(2), noise, init, 200, seed=path_seed(42, 0))
    assert np.array_equal(batch[0].x, solo.x)
    assert np.array_equal(batch[0].w, solo.w)


def test_batch_rollout_bit_identical_reruns(ar1):
    noise = NoiseSpec.gaussian(1)
    init = InitSpec.gaussian(1)
    a = batch_rollout(ar1, null_policy(2), noise, init, 100, 8, base_seed=7)
    b = batch_rollout(ar1, null_policy(2), noise, init, 100, 8, base_seed=7)
    for ta, tb in zip(a, b):
        assert np.array_equal(ta.x, tb.x) and np.array_equal(ta.w, tb.w)


def test_batch_paths_are_prefix_stable(ar1):
    noise = NoiseSpec.gaussian(1)
    init = InitSpec.gaussian(1)
    small = batch_rollout(ar1, null_policy(2), noise, init, 100, 4, base_seed=7)
    large = batch_rollout(ar1, null_policy(2), noise, init, 100, 8, base_seed=7)
    for k in range(4):
        assert np.array_equal(small[k].x, large[k].x)


def test_pooled_variance_matches_stationary_law(ar1):
    noise = NoiseSpec.gaussian(1)
    init = InitSpec.fixed([0.0])
    trajs = batch_rollout(ar1, null_policy(2), noise, init, 10_000, 64, base_seed=123)
    pooled = np.concatenate([t.x[:, 0] for t in trajs])
    assert pooled.var() == pytest.approx(4.0 / 3.0, rel=0.05)


def test_overflow_in_model_ends_diverged():
    # x1^40 is a chain of float products, so at 1e10 it overflows to inf
    # rather than raising OverflowError; the path must end diverged at that step
    model = SystemModel.from_text("states 1\nnoise 1\nx1' = x1^40 + w1")
    traj = rollout(model, null_policy(2), NoiseSpec.zero(1), InitSpec.fixed([1e10]), 5, seed=0)
    assert traj.diverged
    assert traj.diverged_at == 0 and traj.steps == 0
    assert traj.x.tolist() == [[1e10]]


def test_divergence_summary(doubling, ar1):
    noise = NoiseSpec.zero(1)
    bad = batch_rollout(doubling, null_policy(2), noise, InitSpec.fixed([1.0]), 100, 3, 0)
    summary = summarize_divergence([t.diverged_at for t in bad])
    assert summary["divergence_rate"] == 1.0
    good = batch_rollout(ar1, null_policy(2), noise, InitSpec.fixed([1.0]), 100, 3, 0)
    assert summarize_divergence([t.diverged_at for t in good])["divergence_rate"] == 0.0


# --------------------------------------------------------------------------
# export

def test_trajectory_csv_schema(tmp_path, example2):
    noise = NoiseSpec.uniform(1, -0.25, 0.25)
    init = InitSpec.uniform_box([-0.5, -0.5], [0.5, 0.5])
    policy = uniform_quantizer_policy(example2, [-4, -4], [4, 4], [3, 3], noise_mean=noise.mean)
    traj = rollout(example2, policy, noise, init, 20, seed=5)
    out = tmp_path / "traj.csv"
    trajectory_to_csv(traj, out)
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "t,x1,x2,w1,q,u1,u2"
    assert len(lines) == 21
    first = lines[1].split(",")
    assert first[0] == "0"
    assert float(first[1]) == traj.x[0, 0]
    # 17 significant digits round-trip exactly
    assert np.array_equal(
        np.array([float(v) for v in first[1:3]]), traj.x[0]
    )


def _csv_writer_oracle(traj, path):
    """The export as one csv.writer row per step, one format call per value."""
    n, k, m = traj.x.shape[1], traj.w.shape[1], traj.u.shape[1]
    header = ["t"] + [f"x{i}" for i in range(1, n + 1)] + [f"w{j}" for j in range(1, k + 1)]
    header += ["q"] + [f"u{i}" for i in range(1, m + 1)]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for t in range(traj.steps):
            writer.writerow(
                [str(t)]
                + [format(v, ".17g") for v in traj.x[t]]
                + [format(v, ".17g") for v in traj.w[t]]
                + [str(int(traj.q[t]))]
                + [format(v, ".17g") for v in traj.u[t]]
            )


def _assert_csv_matches_oracle(traj, tmp_path):
    ours, oracle = tmp_path / "ours.csv", tmp_path / "oracle.csv"
    trajectory_to_csv(traj, ours)
    _csv_writer_oracle(traj, oracle)
    data = ours.read_bytes()
    assert data == oracle.read_bytes()
    assert data.count(b"\r\n") == data.count(b"\n") == traj.steps + 1
    return data


_CSV_VALUES = st.sampled_from([np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, 1e300, 0.1]) | st.floats()


@st.composite
def _csv_trajectories(draw):
    n, k, m = draw(st.integers(1, 3)), draw(st.integers(0, 2)), draw(st.integers(0, 2))
    steps = draw(st.integers(0, 30))
    return Trajectory(
        x=draw(arrays(float, (steps + 1, n), elements=_CSV_VALUES)),
        w=draw(arrays(float, (steps, k), elements=_CSV_VALUES)),
        q=draw(arrays(np.int64, steps, elements=st.integers(1, 2**40))),
        u=draw(arrays(float, (steps, m), elements=_CSV_VALUES)),
        seed=0,
        horizon=steps,
    )


def _edge_trajectory(steps, diverged_at=None):
    """Every float inf, -inf, nan, -0.0 or a subnormal, in turn; q at the int64 top."""
    edges = np.array([np.inf, -np.inf, np.nan, -0.0, 5e-324, -2.5e-310])
    return Trajectory(
        x=np.resize(edges, (steps + 1, 2)),
        w=np.resize(edges[::-1], (steps, 1)),
        q=np.full(steps, 2**63 - 1),
        u=np.resize(edges, (steps, 3)),
        seed=0,
        horizon=max(steps, 5),
        diverged_at=diverged_at,
    )


@settings(max_examples=60, deadline=None)
@given(_csv_trajectories())
def test_trajectory_csv_matches_csv_writer_oracle(tmp_path_factory, traj):
    _assert_csv_matches_oracle(traj, tmp_path_factory.mktemp("csv"))


# built in the test, not pinned as hypothesis examples: a Trajectory held from
# collection on would be seen by test_cli's count of live trajectories
@pytest.mark.parametrize("steps, diverged_at", [(7, None), (0, 0)])  # diverged at step 0: the header alone
def test_trajectory_csv_edge_values_match_csv_writer_oracle(tmp_path, steps, diverged_at):
    _assert_csv_matches_oracle(_edge_trajectory(steps, diverged_at), tmp_path)


def test_write_csv_formats_each_kind_and_ends_every_line(tmp_path):
    path = tmp_path / "t.csv"
    rows = [(3, 0.1, "a"), (-(2**63), -0.0, "overflow"), (2**63 - 1, 5e-324, "inf")]
    write_csv(path, ["n", "v", "label"], "dgs", [rows[:1], [], iter(rows[1:])], "\r\n")
    assert path.read_bytes() == (
        b"n,v,label\r\n3,0.10000000000000001,a\r\n"
        b"-9223372036854775808,-0,overflow\r\n9223372036854775807,4.9406564584124654e-324,inf\r\n"
    )
    # no header; more rows than CSV_BLOCK_ROWS in one block; inf and nan as Python spells them
    values = [np.inf, -np.inf, np.nan] * CSV_BLOCK_ROWS
    write_csv(path, None, "g", [((v,) for v in values)], "\n")
    assert path.read_text() == "".join(f"{v}\n" for v in values)
    write_csv(path, None, "", [[()] * 2], "\n")  # rows without a column
    assert path.read_bytes() == b"\n\n"
    write_csv(path, ["t"], "d", [], "\n")
    assert path.read_bytes() == b"t\n"


def test_trajectory_csv_blocks_and_truncated_paths(tmp_path, doubling):
    # longer than one block and not a whole number of blocks
    steps = 2 * CSV_BLOCK_ROWS + 37
    rng = np.random.default_rng(4)
    traj = Trajectory(
        x=rng.standard_normal((steps + 1, 2)),
        w=rng.standard_normal((steps, 1)),
        q=rng.integers(1, 5, steps),
        u=rng.standard_normal((steps, 2)),
        seed=0,
        horizon=steps,
    )
    traj.x[[0, CSV_BLOCK_ROWS - 1, CSV_BLOCK_ROWS, steps - 1]] = [[np.nan, -0.0], [np.inf, -np.inf], [-0.0, 0.0], [np.nan, np.inf]]
    data = _assert_csv_matches_oracle(traj, tmp_path)
    assert data.splitlines()[-1].startswith(b"%d," % (steps - 1))
    # a diverged path is written up to its truncation
    diverged = rollout(doubling, null_policy(2), NoiseSpec.zero(1), InitSpec.fixed([1.0]), 100, seed=0)
    assert diverged.diverged and 0 < diverged.steps < 100
    _assert_csv_matches_oracle(diverged, tmp_path)


# --------------------------------------------------------------------------
# Lockstep kernel against the per-step scalar loop

def _oracle_closed_loop(model, policy, x0, w_path):
    """One path stepped alone, as the closed loop ran before paths were
    stepped together: (x, q, u, diverged_at)."""
    horizon = w_path.shape[0]
    xs = np.empty((horizon + 1, model.n))
    xs[0] = x0
    qs = np.empty(horizon, dtype=np.int64)
    us = np.empty((horizon, model.control_dim))
    encoder = policy.encoder()
    controller = policy.controller()
    diverged_at, steps = None, horizon
    x = xs[0]
    for t in range(horizon):
        q = encoder.encode(t, x)
        u = controller.control(t, q)
        try:
            nxt = model.f(x, w_path[t])
        except (ZeroDivisionError, OverflowError):
            diverged_at = steps = t
            break
        with np.errstate(all="ignore"):
            nxt = nxt + model.b @ u
        if not np.all(np.isfinite(nxt)):
            diverged_at = steps = t
            break
        qs[t] = q
        us[t] = u
        xs[t + 1] = x = nxt
        if np.max(np.abs(nxt)) > 1e12:
            diverged_at = steps = t + 1
            break
    return xs[: steps + 1], qs[:steps], us[:steps], diverged_at


_KERNEL_MODELS = {
    "stable_ar1": lambda: catalog_model("stable_ar1"),
    "scalar_doubling": lambda: catalog_model("scalar_doubling"),
    "example1": lambda: catalog_model("example1"),
    "example2": lambda: catalog_model("example2"),
    # x1 = 1 then w1 = -1 lands on 0, and the next step divides by zero
    "reciprocal": lambda: SystemModel.from_text("states 1\nnoise 1\nx1' = 1/x1 + w1"),
    # overflows to inf from |x1| > 1e8; passes 1e12 finite from 2
    "power40": lambda: SystemModel.from_text("states 1\nnoise 1\nx1' = x1^40 + w1"),
    # B u sums two rounded products per coordinate
    "skew": lambda: SystemModel.from_text(
        "states 2\nnoise 1\nB = [0.3 -1.7; 1.1 0.6]\n"
        "x1' = 1.5*x1 - 0.2*x2^2 + w1\nx2' = 0.4*x1*x2 - w1"
    ),
}


def _kernel_policy(model, kind, m):
    if kind == "null":
        return null_policy(2, model.control_dim)
    if kind == "uniform":
        return uniform_quantizer_policy(model, -4.0, 4.0, m % 3 + 1)
    cells = m if model.n == 1 else m * m
    return zoom_policy(model, cells + 1, 0.6, 3.0, 2.0)


@st.composite
def _kernel_cases(draw):
    name = draw(st.sampled_from(sorted(_KERNEL_MODELS)))
    model = _KERNEL_MODELS[name]()
    policy = _kernel_policy(model, draw(st.sampled_from(["zoom", "uniform", "null"])), draw(st.integers(1, 4)))
    paths = draw(st.integers(1, 6))
    horizon = draw(st.sampled_from([1, 2, 7, 25]))
    starts = st.sampled_from([0.0, 1.0, -1.0, 2.0, 1e10, 3.5]) | st.floats(-4.0, 4.0)
    x0s = draw(arrays(float, (paths, model.n), elements=starts, fill=st.nothing()))
    noise = st.sampled_from([-1.0, 0.0, 0.05]) | st.floats(-0.5, 0.5)
    ws = draw(arrays(float, (paths, horizon, model.noise_dim), elements=noise, fill=st.nothing()))
    return model, policy, x0s, ws


def _assert_matches_oracle(model, policy, x0s, ws):
    trajs = run_closed_loops(model, policy, x0s, ws, seeds=range(len(x0s)))
    for k, traj in enumerate(trajs):
        x, q, u, diverged_at = _oracle_closed_loop(model, policy, x0s[k], ws[k])
        assert np.array_equal(traj.x, x) and np.array_equal(traj.w, ws[k, : traj.steps])
        assert np.array_equal(traj.q, q) and np.array_equal(traj.u, u)
        assert traj.diverged_at == diverged_at
        assert replay_consistent(model, traj) and audit_causality(policy, traj)
    return trajs


def _wide_zoom_batch():
    # zoom m=2 on the doubling map cannot contract: starts far out escape
    # within a few steps, small ones ride the overflow expansions for longer
    model = catalog_model("scalar_doubling")
    x0s = np.array([[0.1], [-0.4], [30.0], [-2.0e5], [1.5], [7.0e3]])
    ws = np.random.default_rng(5).uniform(-0.05, 0.05, (6, 30, 1))
    return model, zoom_policy(model, 2, 0.9, 2.0, 2.0), x0s, ws


def _blow_up_batch(name, x0s):
    model = _KERNEL_MODELS[name]()
    ws = np.zeros((len(x0s), 5, 1))
    ws[:, 0] = -1.0
    return model, null_policy(2), np.array(x0s, float)[:, None], ws


def _all_diverge_batch():
    # doubling from 3e11 passes 1e12 at step 2 and from 1e11 at step 4, so the
    # loop stops before its horizon of 8; path 1 is stepped on for two steps
    model = catalog_model("scalar_doubling")
    return model, null_policy(2), np.array([[1e11], [3e11]]), np.zeros((2, 8, 1))


def _one_diverges_at_zero_batch():
    # 1e10^40 is inf at step 0; the zoom update steps that path on, inf and
    # all, while the others run to the horizon
    model = _KERNEL_MODELS["power40"]()
    ws = np.random.default_rng(6).uniform(-0.05, 0.05, (3, 12, 1))
    return model, zoom_policy(model, 5, 0.6, 3.0, 2.0), np.array([[1e10], [0.5], [-0.3]]), ws


@settings(max_examples=50, deadline=None)
@given(_kernel_cases())
@example(_wide_zoom_batch())
@example(_blow_up_batch("reciprocal", [1.0, 0.5, -1.0, 2.0]))  # path 0 reaches 0, then 1/0
@example(_blow_up_batch("power40", [1e10, 2.0, 0.5, -1.0]))  # inf at step 0, > 1e12 at step 1
@example(_all_diverge_batch())
@example(_one_diverges_at_zero_batch())
def test_lockstep_kernel_matches_scalar_oracle(case):
    _assert_matches_oracle(*case)


def test_lockstep_kernel_edge_batches():
    trajs = _assert_matches_oracle(*_wide_zoom_batch())
    assert {t.diverged for t in trajs} == {False, True}
    reciprocal = _assert_matches_oracle(*_blow_up_batch("reciprocal", [1.0, 0.5]))
    assert reciprocal[0].diverged_at == 1 and not reciprocal[1].diverged
    power = _assert_matches_oracle(*_blow_up_batch("power40", [1e10, 2.0, 0.5]))
    assert [t.diverged_at for t in power] == [0, 1, None]
    assert [t.diverged_at for t in _assert_matches_oracle(*_all_diverge_batch())] == [4, 2]
    assert [t.diverged_at for t in _assert_matches_oracle(*_one_diverges_at_zero_batch())] == [0, None, None]


@pytest.mark.parametrize("name", ["skew", "example1"])
def test_lockstep_kernel_bitwise_at_many_paths(name):
    # BLAS picks kernels by shape, so B u parity is checked on a wide batch
    model = _KERNEL_MODELS[name]()
    rng = np.random.default_rng(2)
    x0s = rng.uniform(-1.0, 1.0, (256, model.n))
    ws = rng.uniform(-0.1, 0.1, (256, 20, model.noise_dim))
    _assert_matches_oracle(model, zoom_policy(model, 10, 0.6, 3.0, 2.0), x0s, ws)


# --------------------------------------------------------------------------
# Rollout in time blocks: each path's noise is drawn block by block, and the
# blocks concatenate to the whole-path draw and the one-pass loop

_NOISE_SPECS = [
    NoiseSpec.gaussian(2, mean=[0.5, -1.0], std=[2.0, 0.25]),
    NoiseSpec.uniform(1, -0.25, 0.75),
    NoiseSpec.uniform(3, [-1.0, 0.0, 5.0], [1.0, 1e-3, 6.0]),
    NoiseSpec.atoms([[-1.0, 2.0], [0.0, 0.0], [3.5, -4.0]], [0.2, 0.5, 0.3]),
    NoiseSpec.zero(2),
]


@settings(derandomize=True, max_examples=100, deadline=None)
@given(
    st.sampled_from(range(len(_NOISE_SPECS))),
    st.lists(st.integers(0, 40), min_size=1, max_size=6),
    st.integers(0, 2**32 - 1),
    st.booleans(),
)
def test_noise_blocks_concatenate_to_one_draw(spec_index, splits, seed, with_init):
    noise = _NOISE_SPECS[spec_index]
    init = InitSpec((CoordInit("gaussian", 1.0, 2.0), CoordInit("fixed", 3.0), CoordInit("uniform", -1.0, 0.5)))
    whole, blocked = np.random.default_rng(seed), np.random.default_rng(seed)
    if with_init:
        assert np.array_equal(init.sample(whole, 1), init.sample(blocked, 1))
    drawn = np.concatenate([noise.sample(blocked, n) for n in splits])
    assert np.array_equal(noise.sample(whole, sum(splits)), drawn)
    # both generators stand at the same point of the stream afterwards
    assert whole.random() == blocked.random()


def _generator_draw(noise, rng, count):
    """A noise block as Generator.standard_normal, uniform and choice draw it."""
    if noise.family == "gaussian":
        return noise.mean_ + noise.std_ * rng.standard_normal((count, noise.dim))
    if noise.family == "uniform":
        return rng.uniform(noise.low, noise.high, (count, noise.dim))
    return noise.values[rng.choice(len(noise.values), size=count, p=noise.probs)]


@pytest.mark.parametrize("family", ["gaussian", "uniform", "atoms"])
@settings(derandomize=True, max_examples=50, deadline=None)
@given(st.lists(st.integers(0, 40), min_size=1, max_size=6), st.integers(0, 2**32 - 1))
def test_noise_fill_in_place_draws_the_generator_stream(family, splits, seed):
    # the rollout fills each path's rows of one block array, reused block by block
    for noise in [spec for spec in _NOISE_SPECS if spec.family == family]:
        drawn, filled = np.random.default_rng(seed), np.random.default_rng(seed)
        block = np.full((max(splits), noise.dim), np.nan)
        for n in splits:
            rows = block[:n]
            assert noise.fill(filled, rows) is rows
            assert np.array_equal(rows, _generator_draw(noise, drawn, n))
        assert drawn.random() == filled.random()


def _parent_closed_loops(model, policy, x0s, w_paths):
    """The one-pass lockstep loop the blocked loop replaced, kept as an
    oracle: every step of every path in whole (P, T) arrays."""
    count, horizon = w_paths.shape[:2]
    xs = np.empty((count, horizon + 1, model.n))
    xs[:, 0] = x0s
    qs = np.empty((count, horizon), dtype=np.int64)
    us = np.empty((count, horizon, model.control_dim))
    diverged_at = np.full(count, -1)
    x = xs[:, 0]
    state = policy.initial_state(count)
    with np.errstate(all="ignore"):
        for t in range(horizon):
            q, u = policy.step(state, x)
            x = model.step_many(x, w_paths[:, t], u)
            qs[:, t] = q
            us[:, t] = u
            xs[:, t + 1] = x
            if not np.abs(x).max() <= DIVERGENCE_THRESHOLD:
                ended = ~(np.abs(x).max(axis=1) <= DIVERGENCE_THRESHOLD) & (diverged_at < 0)
                diverged_at[ended] = np.where(np.isfinite(x[ended]).all(axis=1), t + 1, t)
                if (diverged_at >= 0).all():
                    break
    return xs, qs, us, diverged_at


def _assert_matches_parent_loop(trajs, model, policy, x0s, w_paths):
    xs, qs, us, diverged_at = _parent_closed_loops(model, policy, x0s, w_paths)
    horizon = w_paths.shape[1]
    for k, traj in enumerate(trajs):
        steps = horizon if diverged_at[k] < 0 else diverged_at[k]
        assert traj.steps == steps and traj.horizon == horizon
        assert np.array_equal(traj.x, xs[k, : steps + 1], equal_nan=True)
        assert np.array_equal(traj.w, w_paths[k, :steps])
        assert np.array_equal(traj.q, qs[k, :steps]) and np.array_equal(traj.u, us[k, :steps])
        assert traj.diverged == (diverged_at[k] >= 0)
        assert traj.diverged_at == (None if diverged_at[k] < 0 else steps)
    return diverged_at


# hits x1 = 2 after a whole number of steps, then divides 0 by 0: a nan state
_NAN_AT_TWO = "states 1\nnoise 1\nx1' = x1 + 1 + w1/(x1 - 2)"
_BLOCK_CASES = {
    # nan at steps 2, 1 and 7 (1 and 7 mid-block for blocks of 3); one path never ends
    "nan_mid_block": (_NAN_AT_TWO, [0.0, 1.0, -5.0, 10.0], 12, [2, 1, 7, -1]),
    # 2e11 doubles past 1e12 at step 2, so it ends at 3 = the end of a block of 3 or 1
    "leaves_on_last_step": ("scalar_doubling", [2e11, 0.5, 1e11], 12, [3, -1, 4]),
    # both paths end by step 3, so the loop stops 8 steps before its horizon
    "all_diverge": ("scalar_doubling", [1e11, 3e11], 12, [4, 2]),
}


def _block_model(text):
    return catalog_model(text) if "\n" not in text else SystemModel.from_text(text)


@pytest.mark.parametrize("block_steps", [1, 3, 20])
@pytest.mark.parametrize("case", sorted(_BLOCK_CASES))
def test_run_closed_loops_blocks_match_the_parent_loop(case, block_steps):
    text, starts, horizon, expected = _BLOCK_CASES[case]
    model = _block_model(text)
    x0s = np.array(starts)[:, None]
    w_paths = np.zeros((len(starts), horizon, 1))
    with mock.patch.object(dynamics, "JACOBIAN_BLOCK", block_steps * len(starts)):
        assert simulation._block_steps(len(starts), horizon) == min(block_steps, horizon)
        trajs = run_closed_loops(model, null_policy(2), x0s, w_paths, seeds=range(len(starts)))
    assert _assert_matches_parent_loop(trajs, model, null_policy(2), x0s, w_paths).tolist() == expected


@pytest.mark.parametrize("block_steps", [1, 3, 20])
@pytest.mark.parametrize(
    "text, noise, init",
    [
        # (w1 - 1)/(w1 - 1) is nan when the atom 1 is drawn, else 1
        (
            "states 1\nnoise 1\nx1' = 0.5*x1 + (w1 - 1)/(w1 - 1)",
            NoiseSpec.atoms([[0.0], [1.0]], [0.85, 0.15]),
            InitSpec.uniform_box([-2.0], [2.0]),
        ),
        # starts up to 3e11 double past 1e12 within a few steps, small ones never
        ("scalar_doubling", NoiseSpec.gaussian(1), InitSpec.uniform_box([-3e11], [3e11])),
    ],
    ids=["nan", "doubling"],
)
def test_batch_rollout_blocks_match_the_parent_loop_and_folds(text, noise, init, block_steps):
    model, policy, horizon, paths = _block_model(text), null_policy(2), 12, 8
    part = Partition(low=[-3.0], high=[3.0], cells_per_axis=[6])

    def fold(*groups):
        """A pooled and a per-path tally of the paths, each group of paths
        rolled out on its own and folded at its first path's row."""
        pooled, tally = VisitTally(part, 2), VisitTally(part, 2, paths, checkpoints=[1, 3, 5, 10, 12])
        for group in groups:
            seeds = [path_seed(4, k) for k in group]
            for block in closed_loop_blocks(model, policy, noise, init, horizon, seeds):
                pooled.add(block)
                tally.add(block, group[0])
        return pooled, tally

    with mock.patch.object(dynamics, "JACOBIAN_BLOCK", block_steps * paths):
        trajs = batch_rollout(model, policy, noise, init, horizon, paths, base_seed=4)
        pooled, tally = fold(range(paths))
        variants = {"split": fold(range(3), range(3, paths))}
    for rows in [1, 7, 8192]:
        with mock.patch.object(dynamics, "JACOBIAN_BLOCK", rows):
            variants[rows] = fold(range(paths))
    # the parent drew each path's initial state and then its whole noise path
    x0s, w_paths = np.empty((paths, 1)), np.empty((paths, horizon, 1))
    for k in range(paths):
        rng = np.random.default_rng(np.random.SeedSequence(path_seed(4, k)))
        x0s[k] = init.sample(rng, 1)[0]
        w_paths[k] = noise.sample(rng, horizon)
    diverged_at = _assert_matches_parent_loop(trajs, model, policy, x0s, w_paths)
    assert (diverged_at >= 0).any()

    lead = next(t for t in trajs if t.steps > 0)
    assert tally.lead_steps == lead.steps
    assert np.array_equal(pooled.counts[0], tally.counts.sum(axis=0))
    # the held paths, folded whole, read the same
    held = tally_of(trajs, part, 2, per_path=True, checkpoints=[1, 3, 5, 10, 12])
    assert np.array_equal(empirical_measure(tally).weights, empirical_measure(held).weights)
    if any(t.steps > 2 for t in trajs):
        assert np.array_equal(ergodicity_dispersion(tally), ergodicity_dispersion(held))
    checkpoints = [c for c in [1, 3, 5, 10, 12] if c <= lead.steps] or [lead.steps]
    assert np.array_equal(frequency_convergence(tally, checkpoints), frequency_convergence(held, checkpoints))

    # every block size and every split of the paths over ``first`` folds the same counts
    def folded(pooled, tally):
        at = [tally.lead_counts(c).tolist() for c in checkpoints]
        return pooled.counts.tolist(), tally.counts.tolist(), tally.lead_steps, at

    for variant, (other_pooled, other_tally) in variants.items():
        assert folded(other_pooled, other_tally) == folded(pooled, tally), variant
