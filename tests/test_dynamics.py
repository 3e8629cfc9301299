import math

import numpy as np
import pytest

from quantstab import (
    GammaDeclaration,
    IndexSubset,
    SingularMatrixError,
    SystemModel,
    catalog_model,
    catalog_names,
    gamma_falsify,
    inverse_permute,
    log2_abs_det,
    permute_state,
    subset_jacobian,
    subset_map,
)
from quantstab.dynamics import (
    finite_difference_jacobian,
    log2_abs_det_many,
    subset_jacobian_many,
)


# --------------------------------------------------------------------------
# Permutations

def test_permute_worked_example():
    sub = IndexSubset(p=(2, 4), n=4)
    a, b, c, d = 1.0, 2.0, 3.0, 4.0
    assert np.array_equal(permute_state(sub, [a, b, c, d]), [b, d, a, c])


def test_inverse_permute_worked_example():
    sub = IndexSubset(p=(2, 4), n=4)
    x1, x2, y1, y2 = 10.0, 20.0, -1.0, -2.0
    assert np.array_equal(inverse_permute(sub, [x1, x2, y1, y2]), [y1, x1, y2, x2])


def test_full_subset_is_identity():
    sub = IndexSubset(p=(1, 2, 3), n=3)
    x = np.array([5.0, 6.0, 7.0])
    assert np.array_equal(permute_state(sub, x), x)
    assert np.array_equal(inverse_permute(sub, x), x)


def _oracle_permute(p, z, x):
    # direct index bookkeeping, independent of the numpy implementation
    return [x[i - 1] for i in p] + [x[i - 1] for i in z]


def test_permute_round_trip_on_random_subsets():
    rng = np.random.default_rng(42)
    for _ in range(1000):
        n = int(rng.integers(1, 9))
        size = int(rng.integers(1, n + 1))
        p = tuple(sorted(rng.choice(np.arange(1, n + 1), size=size, replace=False).tolist()))
        sub = IndexSubset(p=p, n=n)
        x = rng.normal(size=n)
        permuted = permute_state(sub, x)
        assert np.array_equal(permuted, _oracle_permute(sub.p, sub.z, x))
        assert np.array_equal(inverse_permute(sub, permuted), x)


def test_index_subset_validation():
    with pytest.raises(ValueError):
        IndexSubset(p=(), n=3)
    with pytest.raises(ValueError):
        IndexSubset(p=(2, 2), n=3)
    with pytest.raises(ValueError):
        IndexSubset(p=(0,), n=3)
    with pytest.raises(ValueError):
        IndexSubset(p=(4,), n=3)
    with pytest.raises(ValueError):
        IndexSubset(p=(1,), n=3, c_p=-0.5)


def test_gamma_declaration_validation():
    one = IndexSubset(p=(1,), n=2, c_p=0.5)
    with pytest.raises(ValueError, match="duplicate"):
        GammaDeclaration((one, IndexSubset(p=(1,), n=2, c_p=0.7)))
    with pytest.raises(ValueError, match=r"\(0, 1\]"):
        GammaDeclaration((IndexSubset(p=(1,), n=2, c_p=1.5),))
    with pytest.raises(ValueError, match="at least one"):
        GammaDeclaration(())


# --------------------------------------------------------------------------
# Subset maps and Jacobians

def test_subset_map_example2_unstable_coordinate(example2):
    sub = IndexSubset(p=(1,), n=2)
    value = subset_map(example2, sub, xp=[1.0], xz=[0.0], w=[0.0])
    assert value == pytest.approx([2.0])


def test_subset_map_full_equals_dynamics(example2):
    sub = IndexSubset(p=(1, 2), n=2)
    x = np.array([0.3, -1.2])
    w = np.array([0.25])
    assert np.array_equal(subset_map(example2, sub, x, np.empty(0), w), example2.f(x, w))


def test_subset_map_worked_four_dimensional_case():
    model = SystemModel.from_text(
        """
        states 4
        x1' = x1 + 2*x2
        x2' = x2 * x3
        x3' = x3 - x4
        x4' = x1 * x4
        """
    )
    sub = IndexSubset(p=(2, 4), n=4)
    x1, x2, y1, y2 = 0.5, -1.5, 2.0, 3.0
    # complement values occupy coordinates 1 and 3 of the assembled state
    full = np.array([y1, x1, y2, x2])
    expected = model.f(full, [])[[1, 3]]
    got = subset_map(model, sub, [x1, x2], [y1, y2], [])
    assert np.array_equal(got, expected)


def test_subset_jacobian_example2_full_at_origin(example2):
    sub = IndexSubset(p=(1, 2), n=2)
    jac = subset_jacobian(example2, sub, [0.0, 0.0], [0.0])
    assert np.array_equal(jac, [[1.0, 0.0], [0.0, 0.5]])
    assert np.linalg.det(jac) == 0.5


def test_subset_jacobian_example2_scalar(example2):
    sub = IndexSubset(p=(1,), n=2)
    jac = subset_jacobian(example2, sub, [1.0, 1.0], [0.0])
    assert jac.shape == (1, 1)
    assert jac[0, 0] == 8.0


def test_subset_jacobian_linear_is_submatrix(example1):
    sub = IndexSubset(p=(1,), n=2)
    jac = subset_jacobian(example1, sub, [3.0, -4.0], [0.1, 0.2])
    assert jac[0, 0] == 2.0


def test_subset_jacobian_equals_submatrix_for_all_subsets():
    model = SystemModel.from_text(
        """
        states 3
        noise 3
        x1' = 2*x1 + 0.3*x2 - x3 + w1
        x2' = 0.5*x2 + w2
        x3' = x1 + 1.5*x3 + w3
        """
    )
    a = np.array([[2.0, 0.3, -1.0], [0.0, 0.5, 0.0], [1.0, 0.0, 1.5]])
    rng = np.random.default_rng(11)
    subsets = [(1,), (2,), (3,), (1, 2), (1, 3), (2, 3), (1, 2, 3)]
    for p in subsets:
        sub = IndexSubset(p=p, n=3)
        x = rng.normal(size=3)
        w = rng.normal(size=3)
        expected = a[np.ix_(sub.p0, sub.p0)]
        assert np.array_equal(subset_jacobian(model, sub, x, w), expected)


def test_symbolic_vs_finite_difference_jacobians():
    rng = np.random.default_rng(8)
    for name in catalog_names():
        model = catalog_model(name)
        for _ in range(20):
            x = rng.uniform(-3, 3, model.n)
            w = rng.uniform(-1, 1, model.noise_dim)
            sym = model.jacobian(x, w)
            fd = finite_difference_jacobian(model, x, w)
            assert np.allclose(sym, fd, rtol=1e-5, atol=1e-5)


def test_f_many_matches_rowwise_f():
    mat = np.array([[0.5, 0.1], [-0.2, 0.9]])
    opaque = SystemModel.from_callable(
        lambda x, w: x @ mat + w[0], n=2, control_dim=2, noise_dim=1, b=np.eye(2)
    )
    dsl = SystemModel.from_text("states 2\nnoise 1\nx1' = x1 / (2 + x2) + w1\nx2' = 0.5")
    rng = np.random.default_rng(3)
    xs = rng.normal(size=(7, 2))
    ws = rng.normal(size=(7, 1))
    for model in (opaque, dsl):
        rowwise = np.array([model.f(x, w) for x, w in zip(xs, ws)])
        assert np.array_equal(model.f_many(xs, ws), rowwise)


def test_f_many_opaque_rows_that_raise_come_back_inf():
    def fn(x, w):
        return np.array([float(x[0]) / float(x[1]), float(x[1]) ** 40 + w[0]])

    model = SystemModel.from_callable(fn, n=2, control_dim=2, noise_dim=1, b=np.eye(2))
    xs = np.array([[1.0, 2.0], [1.0, 0.0], [1.0, 1e10]])
    ws = np.zeros((3, 1))
    out = model.f_many(xs, ws)
    assert np.array_equal(out[0], model.f(xs[0], ws[0]))
    assert np.all(np.isinf(out[1:]))


def test_opaque_model_uses_finite_difference_provider(example2):
    wrapped = SystemModel.from_callable(
        lambda x, w: np.array([(x[0] ** 3 + x[0]) * (1 + x[1] ** 2), 0.5 * x[1] + w[0]]),
        n=2,
        control_dim=2,
        noise_dim=1,
        b=np.eye(2),
    )
    assert wrapped.jacobian_kind == "finite-diff"
    x = np.array([0.7, -0.3])
    w = np.array([0.1])
    assert np.allclose(wrapped.jacobian(x, w), example2.jacobian(x, w), rtol=1e-6, atol=1e-8)
    sub = IndexSubset(p=(1,), n=2)
    many = subset_jacobian_many(wrapped, sub, x[None, :], w[None, :])
    assert np.allclose(many[0], subset_jacobian(example2, sub, x, w), rtol=1e-6)


# --------------------------------------------------------------------------
# Log-determinants

def _cofactor_det(m):
    if len(m) == 1:
        return m[0][0]
    total = 0.0
    for j in range(len(m)):
        minor = [row[:j] + row[j + 1:] for row in m[1:]]
        total += ((-1) ** j) * m[0][j] * _cofactor_det(minor)
    return total


def test_log2_abs_det_identity_and_balanced_diagonal():
    assert log2_abs_det(np.eye(3)) == 0.0
    assert log2_abs_det(np.diag([2.0, 0.5])) == 0.0
    assert log2_abs_det(np.array([[2.0]])) == 1.0


def test_log2_abs_det_matches_cofactor_oracle():
    rng = np.random.default_rng(1234)
    checked = 0
    while checked < 50:
        m = rng.uniform(-2, 2, (3, 3))
        oracle = _cofactor_det(m.tolist())
        if abs(oracle) < 0.1:
            continue
        expected = math.log2(abs(oracle))
        assert log2_abs_det(m) == pytest.approx(expected, rel=1e-10)
        checked += 1


def test_log2_abs_det_product_rule():
    rng = np.random.default_rng(77)
    checked = 0
    while checked < 50:
        a = rng.normal(size=(3, 3))
        b = rng.normal(size=(3, 3))
        if abs(np.linalg.det(a)) < 0.3 or abs(np.linalg.det(b)) < 0.3:
            continue
        if np.linalg.cond(a) > 50 or np.linalg.cond(b) > 50:
            continue
        assert log2_abs_det(a @ b) == pytest.approx(
            log2_abs_det(a) + log2_abs_det(b), abs=1e-9
        )
        checked += 1


def test_log2_abs_det_singular_is_hard_error():
    with pytest.raises(SingularMatrixError):
        log2_abs_det(np.zeros((2, 2)))
    with pytest.raises(SingularMatrixError):
        log2_abs_det(np.array([[1.0, 2.0], [0.5, 1.0]]))


def test_log2_abs_det_survives_determinant_overflow():
    big = np.diag(np.full(5, 1e80))
    assert log2_abs_det(big) == pytest.approx(5 * math.log2(1e80), rel=1e-12)


def test_log2_abs_det_rejects_nonsquare_and_nonfinite():
    with pytest.raises(ValueError):
        log2_abs_det(np.ones((2, 3)))
    with pytest.raises(ValueError):
        log2_abs_det(np.array([[np.nan, 0.0], [0.0, 1.0]]))


def test_log2_abs_det_many_matches_scalar():
    rng = np.random.default_rng(5)
    mats = rng.normal(size=(20, 3, 3)) + 2 * np.eye(3)
    many = log2_abs_det_many(mats)
    for i in range(20):
        assert many[i] == pytest.approx(log2_abs_det(mats[i]), rel=1e-12)


def test_log2_abs_det_many_flags_singular_index():
    mats = np.stack([np.eye(2), np.zeros((2, 2))])
    with pytest.raises(SingularMatrixError) as err:
        log2_abs_det_many(mats)
    assert err.value.index == 1


# --------------------------------------------------------------------------
# Floor falsification

def test_example2_floor_survives_when_claim_is_below_true_minimum(example2):
    sub = IndexSubset(p=(1, 2), n=2, c_p=0.4)
    result = gamma_falsify(example2, sub, n=100_000, seed=2024)
    assert not result.falsified
    # analytic minimum of the determinant magnitude is 1/2 at the origin
    assert result.min_abs_det >= 0.5
    assert result.n_samples == 100_000


def test_example2_floor_falsified_when_claim_is_above_true_minimum(example2):
    sub = IndexSubset(p=(1, 2), n=2, c_p=0.6)
    result = gamma_falsify(example2, sub, n=100_000, seed=2024)
    assert result.falsified
    x, w, det = result.counterexample
    assert 0.5 <= det <= 0.6
    assert np.all(np.abs(x) < 1.0)  # the thin-determinant region hugs the origin


def test_identity_jacobian_model_never_falsified():
    model = SystemModel.from_text("states 2\nnoise 2\nx1' = x1 + w1\nx2' = x2 + w2")
    sub = IndexSubset(p=(1, 2), n=2, c_p=0.5)
    result = gamma_falsify(model, sub, n=1000, seed=1)
    assert not result.falsified
    assert result.min_abs_det == 1.0


def test_falsify_requires_declared_floor(example2):
    with pytest.raises(ValueError, match="declared floor"):
        gamma_falsify(example2, IndexSubset(p=(1,), n=2), n=10, seed=0)
    with pytest.raises(ValueError, match="at least one sample"):
        gamma_falsify(example2, IndexSubset(p=(1,), n=2, c_p=0.5), n=0, seed=0)
