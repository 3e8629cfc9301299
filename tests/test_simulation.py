import csv

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from quantstab import (
    InitSpec,
    NoiseSpec,
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
from quantstab.simulation import (
    CSV_BLOCK_ROWS,
    Trajectory,
    path_seed,
    run_closed_loop,
    run_closed_loops,
    summarize_divergence,
    trajectory_to_csv,
)


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
    assert traj.status == "ok"


def test_rollout_doubling_reaches_1024_then_diverges_later(doubling):
    traj = rollout(doubling, null_policy(2), NoiseSpec.zero(1), InitSpec.fixed([1.0]), 10, seed=0)
    assert traj.x[10, 0] == 1024.0
    assert traj.status == "ok"
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
    assert traj.status == "ok"
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
    summary = summarize_divergence(bad)
    assert summary["divergence_rate"] == 1.0
    good = batch_rollout(ar1, null_policy(2), noise, InitSpec.fixed([1.0]), 100, 3, 0)
    assert summarize_divergence(good)["divergence_rate"] == 0.0


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


@settings(max_examples=60, deadline=None)
@given(_csv_trajectories())
def test_trajectory_csv_matches_csv_writer_oracle(tmp_path_factory, traj):
    _assert_csv_matches_oracle(traj, tmp_path_factory.mktemp("csv"))


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
    stepped together: (x, q, u, status, diverged_at)."""
    horizon = w_path.shape[0]
    xs = np.empty((horizon + 1, model.n))
    xs[0] = x0
    qs = np.empty(horizon, dtype=np.int64)
    us = np.empty((horizon, model.control_dim))
    encoder = policy.encoder()
    controller = policy.controller()
    status, diverged_at, steps = "ok", None, horizon
    x = xs[0]
    for t in range(horizon):
        q = encoder.encode(t, x)
        u = controller.control(t, q)
        try:
            nxt = np.asarray(model.f_raw(*x.tolist(), *w_path[t].tolist()), dtype=float)
        except (ZeroDivisionError, OverflowError):
            status, diverged_at, steps = "diverged", t, t
            break
        with np.errstate(all="ignore"):
            nxt = nxt + model.b @ u
        if not np.all(np.isfinite(nxt)):
            status, diverged_at, steps = "diverged", t, t
            break
        qs[t] = q
        us[t] = u
        xs[t + 1] = x = nxt
        if np.max(np.abs(nxt)) > 1e12:
            status, diverged_at, steps = "diverged", t + 1, t + 1
            break
    return xs[: steps + 1], qs[:steps], us[:steps], status, diverged_at


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
        x, q, u, status, diverged_at = _oracle_closed_loop(model, policy, x0s[k], ws[k])
        assert np.array_equal(traj.x, x) and np.array_equal(traj.w, ws[k, : traj.steps])
        assert np.array_equal(traj.q, q) and np.array_equal(traj.u, u)
        assert (traj.status, traj.diverged_at) == (status, diverged_at)
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
    assert {t.status for t in trajs} == {"ok", "diverged"}
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
