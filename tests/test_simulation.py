import numpy as np
import pytest

from quantstab import (
    InitSpec,
    NoiseSpec,
    SystemModel,
    audit_causality,
    batch_rollout,
    null_policy,
    replay_consistent,
    rollout,
    step,
    uniform_quantizer_policy,
    zoom_policy,
)
from quantstab.simulation import path_seed, summarize_divergence, trajectory_to_csv


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
    # Python float ** raises OverflowError at 1e10 ** 40; the path must end
    # diverged at that step instead of letting the exception escape
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
