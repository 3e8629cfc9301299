import ast
import json
import math
import weakref
from fractions import Fraction
from functools import partial
from pathlib import Path

from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from quantstab import (
    FalsificationResult,
    GammaDeclaration,
    IndexSubset,
    SingularMatrixError,
    SystemModel,
    catalog_model,
    catalog_names,
    dynamics,
    falsify_floors,
    gamma_falsify,
    inverse_permute,
    log2_abs_det,
    permute_state,
    subset_jacobian,
    subset_map,
)
from quantstab.dynamics import (
    _abs_dets,
    default_falsification_sampler,
    finite_difference_jacobian,
    log2_abs_det_many,
    sample_pass,
)
from quantstab.model_dsl import BinOp, Const, NoiseVar, Pow, StateVar


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


def test_catalog_texts_parse_to_the_former_hand_built_asts():
    # the catalog as it was built node by node, before it was written in the DSL:
    # name -> (states, noise dim, expressions); controls = states, B = I
    x, w = StateVar, NoiseVar
    add, mul = (partial(BinOp, op) for op in "+*")
    former = {
        "example1": (2, 2, (add(mul(Const(2.0), x(1)), w(1)), add(mul(Const(0.5), x(2)), w(2)))),
        "example2": (
            2,
            1,
            (
                mul(add(Pow(x(1), 3), x(1)), add(Const(1.0), Pow(x(2), 2))),
                add(mul(Const(0.5), x(2)), w(1)),
            ),
        ),
        "scalar_doubling": (1, 1, (add(mul(Const(2.0), x(1)), w(1)),)),
        "stable_ar1": (1, 1, (add(mul(Const(0.5), x(1)), w(1)),)),
    }
    assert catalog_names() == tuple(former)
    for name, (n, noise_dim, exprs) in former.items():
        model = catalog_model(name)
        assert (model.name, model.n, model.control_dim, model.noise_dim) == (name, n, n, noise_dim)
        assert model.b.dtype == float and np.array_equal(model.b, np.eye(n))
        assert model.exprs == exprs


_MIXED_MODEL = """
states 2
noise 1
x1' = (x1 - 3*x2) / (1 + x1^2) - x2^-2
x2' = -x1*w1 + 0.5/x2
"""


def _compiled_text(model):
    """The text of the syntax trees a model compiles, ``f`` and its Jacobian."""
    return tuple(ast.unparse(fn.__tree__) + "\n" for fn in (model._f_fn, model._jac_fn))


def test_compiled_source_is_pinned():
    # every output's bits follow from the trees this text spells; the mixed
    # model adds -, /, negation and a negative power to the catalog's + * ^
    def head(args):
        return f"def _f({args}):\n    return ", f"def _jac({args}):\n    return "

    f1, j1 = head("x0, w0")
    f2, j2 = head("x0, x1, w0")
    f3, j3 = head("x0, x1, w0, w1")
    expected = {
        "example1": (
            f3 + "(2.0 * x0 + w0, 0.5 * x1 + w1)\n",
            j3 + "(2.0, 0.0, 0.0, 0.5)\n",
        ),
        "example2": (
            f2 + "((_power_chain(x0, 3) + x0) * (1.0 + _power_chain(x1, 2)), 0.5 * x1 + w0)\n",
            j2 + "((3.0 * _power_chain(x0, 2) + 1.0) * (1.0 + _power_chain(x1, 2)), "
            "(_power_chain(x0, 3) + x0) * (2.0 * x1), 0.0, 0.5)\n",
        ),
        "scalar_doubling": (f1 + "(2.0 * x0 + w0,)\n", j1 + "(2.0,)\n"),
        "stable_ar1": (f1 + "(0.5 * x0 + w0,)\n", j1 + "(0.5,)\n"),
        "mixed": (
            f2 + "(_quotient(x0 - 3.0 * x1, 1.0 + _power_chain(x0, 2)) - "
            "_quotient(1.0, _power_chain(x1, -2)), -x0 * w0 + _quotient(0.5, x1))\n",
            j2 + "(_quotient(1.0 + _power_chain(x0, 2) - (x0 - 3.0 * x1) * (2.0 * x0), "
            "_power_chain(1.0 + _power_chain(x0, 2), 2)), "
            "_quotient(-3.0 * (1.0 + _power_chain(x0, 2)), _power_chain(1.0 + _power_chain(x0, 2), 2)) - "
            "-2.0 * _quotient(1.0, _power_chain(x1, -3)), "
            "-1.0 * w0, _quotient(-0.5, _power_chain(x1, 2)))\n",
        ),
    }
    models = {name: catalog_model(name) for name in catalog_names()}
    models["mixed"] = SystemModel.from_text(_MIXED_MODEL)
    assert list(models) == list(expected)
    for name, model in models.items():
        assert _compiled_text(model) == expected[name], name


def test_compiled_sources_match_the_golden_file():
    # the catalog and every DSL text of the tests; equal text means equal
    # trees, so this pins the parser as well as the compiler
    for entry in json.loads((Path(__file__).parent / "compiled_sources.json").read_text()):
        if "catalog" in entry:
            model = catalog_model(entry["catalog"])
        else:
            model = SystemModel.from_text(entry["dsl"])
        assert _compiled_text(model) == (entry["f"], entry["jac"])


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
    model = SystemModel.from_text("states 2\nnoise 1\nx1' = x1 / (2 + x2) + w1\nx2' = 0.5")
    rng = np.random.default_rng(3)
    xs = rng.normal(size=(7, 2))
    ws = rng.normal(size=(7, 1))
    rowwise = np.array([model.f(x, w) for x, w in zip(xs, ws)])
    assert np.array_equal(model.f_many(xs, ws), rowwise)


@pytest.mark.filterwarnings("error")
def test_f_many_constant_that_raises_gives_inf_in_every_row():
    model = SystemModel.from_text("states 1\nnoise 1\nx1' = x1 + 1/0")
    with pytest.raises(ZeroDivisionError):
        model.f([1.0], [0.0])
    out = model.f_many(np.array([[1.0], [0.0], [-2.5]]), np.zeros((3, 1)))
    assert out.shape == (3, 1) and np.all(out == np.inf)


@pytest.mark.filterwarnings("error")
def test_jacobian_many_constant_that_raises_gives_inf_in_every_entry():
    # d x1'/d x1 is the constant 1/(2-2): the Jacobian fails in every row, as f does
    model = SystemModel.from_text("states 2\nnoise 1\nx1' = x1/(2-2) + w1\nx2' = 0.5*x2 + w1")
    with pytest.raises(ZeroDivisionError):
        model.jacobian([1.0, 0.0], [0.0])
    out = model.jacobian_many(np.array([[1.0, 0.0], [0.0, 2.0], [-2.5, 1.0]]), np.zeros((3, 1)))
    assert out.shape == (3, 2, 2) and np.all(out == np.inf)


@pytest.mark.parametrize("x, w", [([1.0], [0.0]), ([1.0, 0.0], []), ([1.0, 0.0, 2.0], [0.0])])
def test_jacobian_checks_dimensions_as_f_does(example2, x, w):
    with pytest.raises(ValueError) as from_f:
        example2.f(x, w)
    with pytest.raises(ValueError) as from_jacobian:
        example2.jacobian(x, w)
    assert str(from_jacobian.value) == str(from_f.value)


def test_jacobian_many_matches_rowwise_jacobian(example2):
    rng = np.random.default_rng(4)
    xs, ws = rng.normal(size=(9, 2)), rng.normal(size=(9, 1))
    rowwise = np.array([example2.jacobian(x, w) for x, w in zip(xs, ws)])
    assert np.array_equal(example2.jacobian_many(xs, ws), rowwise)


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
    for n in (1, 2, 3):
        mats = rng.normal(size=(20, n, n)) + 2 * np.eye(n)
        mats[3] = np.diag(np.full(n, 1e200))  # overflows: LU, then slogdet
        many = log2_abs_det_many(mats)
        for i in range(20):
            assert many[i] == log2_abs_det(mats[i])
    block = [0, 2, 3]
    mats = rng.normal(size=(20, 4, 4)) + 2 * np.eye(4)
    many = log2_abs_det_many(mats, block)
    for i in range(20):
        assert many[i] == log2_abs_det(mats[i][np.ix_(block, block)])


def test_log2_abs_det_many_flags_singular_index():
    mats = np.stack([np.eye(2), np.zeros((2, 2))])
    with pytest.raises(SingularMatrixError) as err:
        log2_abs_det_many(mats)
    assert err.value.index == 1


def _exact_det(m):
    if len(m) == 1:
        return m[0][0]
    return sum(
        (-1) ** j * m[0][j] * _exact_det([row[:j] + row[j + 1:] for row in m[1:]])
        for j in range(len(m))
    )


@st.composite
def _dominant_stacks(draw):
    """Stacked diagonally dominant matrices, so every principal block is well
    conditioned, plus a 1- to 3-element index subset."""
    n = draw(st.sampled_from([3, 4]))
    m = draw(st.integers(1, 4))
    entry = st.floats(-1.0, 1.0, allow_subnormal=False)
    mats = np.array(draw(st.lists(entry, min_size=m * n * n, max_size=m * n * n))).reshape(m, n, n)
    diag = draw(st.lists(st.floats(4.0, 8.0), min_size=m * n, max_size=m * n))
    signs = draw(st.lists(st.sampled_from([-1.0, 1.0]), min_size=m * n, max_size=m * n))
    mats[:, np.arange(n), np.arange(n)] = (np.array(diag) * np.array(signs)).reshape(m, n)
    block = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=3, unique=True))
    return mats, sorted(block)


@settings(max_examples=100, deadline=None)
@given(_dominant_stacks())
def test_log2_abs_det_many_blocks_match_cofactor_oracle(case):
    mats, block = case
    got = log2_abs_det_many(mats, block)
    for k, mat in enumerate(mats.tolist()):
        sub = [[Fraction(mat[i][j]) for j in block] for i in block]
        want = math.log2(abs(float(_exact_det(sub))))  # exact, then rounded once
        assert abs(got[k] - want) <= 4 * math.ulp(want)


def test_log2_abs_det_exact_on_integer_entries():
    assert log2_abs_det(np.array([[3.0]])) == math.log2(3.0)
    assert log2_abs_det(np.array([[-8.0]])) == 3.0
    assert log2_abs_det(np.array([[2.0, 1.0], [1.0, 3.0]])) == math.log2(5.0)
    assert log2_abs_det(np.array([[0.0, 7.0], [3.0, 0.0]])) == math.log2(21.0)
    mats = np.array([[[5.0, 9.0, 1.0], [2.0, 6.0, 4.0], [7.0, 3.0, 3.0]]])
    assert log2_abs_det_many(mats, [0]).tolist() == [math.log2(5.0)]
    assert log2_abs_det_many(mats, [0, 2]).tolist() == [3.0]
    assert log2_abs_det_many(mats, [1, 2]).tolist() == [math.log2(6.0)]


def test_example2_full_determinant_is_half_the_first_entry_per_sample(example2):
    rng = np.random.default_rng(8)
    xs = rng.uniform(-2.0, 2.0, (100_000, 2))
    ws = rng.uniform(-0.25, 0.25, (100_000, 1))
    jacs = example2.jacobian_many(xs, ws)
    full = log2_abs_det_many(jacs)
    # det J = J11 * J22 - J12 * J21 = J11 / 2 with no rounding, so the two
    # log2 values are the same bits
    assert np.array_equal(full, log2_abs_det_many(jacs[:, :1, :1] * 0.5))
    # log2|J11| - 1 rounds once more: one ulp of max(|value|, 1) apart at most
    gap = np.abs(full - (log2_abs_det_many(jacs, [0]) - 1.0))
    assert np.all(gap <= np.spacing(np.maximum(np.abs(full), 1.0)))


def test_overflowing_closed_form_falls_back_to_lu():
    # a d - b c is inf - inf = nan here; LU gives the true determinant, 0
    big = np.full((2, 2), 1e200)
    with pytest.raises(SingularMatrixError) as err:
        log2_abs_det_many(np.stack([np.eye(2), np.eye(2), big]))
    assert err.value.index == 2
    padded = np.eye(3)
    padded[1:, 1:] = big
    with pytest.raises(SingularMatrixError) as err:
        log2_abs_det_many(np.stack([np.eye(3), np.eye(3), padded]), [1, 2])
    assert err.value.index == 2
    model = SystemModel.from_text(
        "states 2\nnoise 1\nx1' = 1e200*x1 + 1e200*x2 + w1\nx2' = 1e200*x1 + 1e200*x2"
    )
    result = gamma_falsify(model, IndexSubset(p=(1, 2), n=2, c_p=0.5), n=10, seed=0)
    assert result.falsified and result.min_abs_det == 0.0 and result.n_samples == 1  # row 0 breaks it


def test_log2_abs_det_many_rejects_nonfinite_entries():
    for bad in ([[np.nan]], [[np.nan, 0.0], [0.0, 1.0]], [[1.0, 0, 0], [0, np.inf, 0], [0, 0, 1.0]]):
        bad = np.array(bad)
        with pytest.raises(ValueError, match="non-finite") as err:
            log2_abs_det_many(np.stack([np.eye(len(bad)), bad]))
        # a failed determinant like a singular one, naming its sample
        assert isinstance(err.value, SingularMatrixError) and err.value.index == 1


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
    assert 0.5 <= result.min_abs_det <= 0.6
    assert np.all(np.abs(result.at_x) < 1.0)  # the thin-determinant region hugs the origin


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


def test_falsify_reports_a_sample_when_no_determinant_is_finite():
    # d/dx1 of x1 / (x2 - x2) is nan at every sample
    model = SystemModel.from_text("states 2\nnoise 1\nx1' = x1 / (x2 - x2)\nx2' = 0.5*x2 + w1")
    with mock.patch.object(dynamics, "JACOBIAN_BLOCK", 20):
        result = gamma_falsify(model, IndexSubset(p=(1,), n=2, c_p=0.5), n=50, seed=0)
    assert not result.falsified and result.min_abs_det == math.inf and result.n_samples == 50
    xs, ws = default_falsification_sampler(model)(0)(1)
    assert np.array_equal(result.at_x, xs[0]) and np.array_equal(result.at_w, ws[0])


# --------------------------------------------------------------------------
# One falsification pass for every subset

_FLOOR_MODEL = SystemModel.from_text(
    "states 3\nnoise 1\nx1' = x1^3 + x2 + w1\nx2' = x1*x2\nx3' = x3^2 + x1"
)
# blocks of one, two and three indices: both closed forms and LU
_FLOOR_BLOCKS = [(1,), (2,), (1, 2), (2, 3), (1, 2, 3)]
_FLOOR_SAMPLER = default_falsification_sampler(_FLOOR_MODEL, halfwidth=2.0)


@pytest.mark.parametrize("halfwidth, cauchy_fraction", [(0.0, 0.1), (-1.0, 0.1), (1.0, -0.1), (1.0, 1.5)])
def test_falsification_sampler_rejects_bad_settings(halfwidth, cauchy_fraction):
    with pytest.raises(ValueError):
        default_falsification_sampler(_FLOOR_MODEL, halfwidth, cauchy_fraction)


@pytest.mark.parametrize("cauchy_fraction", [0.0, 0.1, 1.0])
def test_falsification_stream_is_one_draw_whatever_the_block_sizes(cauchy_fraction):
    sampler = default_falsification_sampler(_FLOOR_MODEL, 2.0, cauchy_fraction)
    xs, ws = sampler((3, 1))(1000)
    assert xs.shape == (1000, 3) and ws.shape == (1000, 1)
    sample = sampler((3, 1))
    parts = [sample(count) for count in (1, 7, 0, 500, 492)]
    assert np.concatenate([x for x, _ in parts]).tobytes() == xs.tobytes()
    assert np.concatenate([w for _, w in parts]).tobytes() == ws.tobytes()
    # box rows stay in the box; Cauchy rows leave it, about the declared share
    outside = np.any(np.abs(np.hstack([xs, ws])) > 2.0, axis=1)
    assert not outside.any() if cauchy_fraction == 0.0 else 0.5 * cauchy_fraction < outside.mean()


def _whole_draw(n, seed):
    xs, ws = _FLOOR_SAMPLER(seed)(n)
    with np.errstate(all="ignore"):
        return xs, ws, _FLOOR_MODEL.jacobian_many(xs, ws)


def _whole_draw_dets(jacs, block):
    dets = _abs_dets(jacs, np.asarray(block) - 1)
    dets[~np.isfinite(dets)] = math.inf
    return dets


def _one_subset_search(subset, xs, ws, jacs):
    """The search of one whole draw for one subset, kept as the oracle: the
    first row with |det| <= c_p, otherwise the first row of the minimum."""
    dets = _whole_draw_dets(jacs, subset.p)
    below = np.flatnonzero(dets <= subset.c_p)
    if len(below):
        i = int(below[0])
        return FalsificationResult(subset, True, float(dets[i]), xs[i], ws[i], i + 1)
    i = int(np.argmin(dets))
    return FalsificationResult(subset, False, float(dets[i]), xs[i], ws[i], len(dets))


def _fields(result):
    return (
        result.subset,
        result.falsified,
        result.min_abs_det,
        result.at_x.tobytes(),
        result.at_w.tobytes(),
        result.n_samples,
    )


@st.composite
def _floor_cases(draw):
    chunk = draw(st.integers(1, 600))
    n = draw(st.integers(1, min(2500, 40 * chunk)))
    seed = draw(st.integers(0, 2**16))
    blocks = draw(st.lists(st.sampled_from(_FLOOR_BLOCKS), min_size=1, max_size=4, unique=True))
    stop = st.sampled_from(["first", "later", "never"])
    stops = draw(st.lists(stop, min_size=len(blocks), max_size=len(blocks)))
    return n, chunk, seed, list(zip(blocks, stops))


def _floor_at(dets, stop, chunk):
    """A floor the search first breaks in chunk 0 ("first"), in a later chunk
    where the running minimum drops ("later"), or never; and that chunk."""
    minima = [float(np.min(dets[: start + chunk])) for start in range(0, len(dets), chunk)]
    drops = [j for j in range(1, len(minima)) if minima[j] < minima[j - 1] * (1 - 1e-9)]
    if stop == "first":
        return max(minima[0] * (1 + 1e-9), 1e-300), 0
    if stop == "later" and drops:
        j = drops[-1]
        return (minima[j] + minima[j - 1]) / 2, j
    return minima[-1] / 2, None


@settings(max_examples=60, deadline=None)
@given(_floor_cases())
# chunk does not divide n; floors break in chunk 0, a later chunk and never
@example((1000, 300, 7, [((1,), "later"), ((1, 2), "first"), ((2, 3), "never"), ((1, 2, 3), "later")]))
# n < chunk: one partial chunk
@example((50, 200, 3, [((2,), "first"), ((1, 2, 3), "never")]))
def test_shared_pass_equals_one_search_per_subset(case):
    n, chunk, seed, specs = case
    xs, ws, jacs = _whole_draw(n, seed)
    subsets, stop_chunks = [], []
    for block, stop in specs:
        c_p, stop_chunk = _floor_at(_whole_draw_dets(jacs, block), stop, chunk)
        subsets.append(IndexSubset(p=block, n=3, c_p=c_p))
        stop_chunks.append(stop_chunk)

    with mock.patch.object(dynamics, "JACOBIAN_BLOCK", chunk):
        shared = falsify_floors(_FLOOR_MODEL, subsets, _FLOOR_SAMPLER, n=n, seed=seed)
    assert len(shared) == len(subsets)
    for subset, stop_chunk, result in zip(subsets, stop_chunks, shared):
        want = _fields(_one_subset_search(subset, xs, ws, jacs))
        assert _fields(result) == want
        with mock.patch.object(dynamics, "JACOBIAN_BLOCK", chunk):
            one = gamma_falsify(_FLOOR_MODEL, subset, _FLOOR_SAMPLER, n=n, seed=seed)
        assert _fields(one) == want
        if stop_chunk is None:
            assert not result.falsified and result.n_samples == n
        else:
            # the first counterexample lies in the chunk whose minimum broke the floor
            assert result.falsified and (result.n_samples - 1) // chunk == stop_chunk


_SHIPPED_BLOCK = 8_192
_BLOCK_N = 3 * _SHIPPED_BLOCK - 1  # three shipped blocks, the last one short
_BLOCK_SEED = 7


def _floors_by_block(jacs):
    """Per subset a floor that holds, and three floors whose first
    counterexample lies in the first, the middle and the last shipped block:
    each at a row where a subset's running minimum of |det| drops."""
    floors, breaks = [], {}
    for block in _FLOOR_BLOCKS:
        dets = _whole_draw_dets(jacs, block)
        floors.append(IndexSubset(p=block, n=3, c_p=float(dets.min()) / 2))
        running = np.minimum.accumulate(dets)
        for row in np.flatnonzero(running[1:] < running[:-1]) + 1:
            breaks.setdefault(int(row) // _SHIPPED_BLOCK, (block, float(dets[row])))
    assert sorted(breaks) == [0, 1, 2]
    return floors + [IndexSubset(p=block, n=3, c_p=c_p) for block, c_p in breaks.values()]


@pytest.mark.parametrize("block", [1, 7, _SHIPPED_BLOCK, 20_000])
def test_falsification_does_not_depend_on_the_block_size(block):
    draw = _whole_draw(_BLOCK_N, _BLOCK_SEED)
    floors = _floors_by_block(draw[2])
    want = [_fields(_one_subset_search(subset, *draw)) for subset in floors]
    assert [w[1] for w in want] == [False] * 5 + [True] * 3
    assert sorted((w[-1] - 1) // _SHIPPED_BLOCK for w in want[5:]) == [0, 1, 2]
    with mock.patch.object(dynamics, "JACOBIAN_BLOCK", block):
        shared = falsify_floors(_FLOOR_MODEL, floors, _FLOOR_SAMPLER, n=_BLOCK_N, seed=_BLOCK_SEED)
        assert [_fields(r) for r in shared] == want
        if block > 1:  # a pass of one-row blocks takes seconds per subset
            for subset, fields in zip(floors, want):
                one = gamma_falsify(_FLOOR_MODEL, subset, _FLOOR_SAMPLER, n=_BLOCK_N, seed=_BLOCK_SEED)
                assert _fields(one) == fields


def test_shared_pass_differentiates_each_chunk_once(example2):
    surviving = [IndexSubset(p=p, n=2, c_p=1e-3) for p in [(1,), (2,), (1, 2)]]
    block = mock.patch.object(dynamics, "JACOBIAN_BLOCK", 15_000)
    with block, mock.patch.object(example2, "jacobian_many", wraps=example2.jacobian_many) as jac:
        results = falsify_floors(example2, surviving, n=50_000, seed=0)
    assert jac.call_count == math.ceil(50_000 / 15_000)
    assert [r.n_samples for r in results] == [50_000] * 3

    # |det| of the p=[2] block is 0.5 everywhere and of p=[1, 2] at least
    # 0.5: both floors break in chunk 0, p=[2] at row 0, the p=[1] floor never
    floors = [IndexSubset(p=(1,), n=2, c_p=1e-3), IndexSubset(p=(2,), n=2, c_p=1.0),
              IndexSubset(p=(1, 2), n=2, c_p=1.0)]
    with block, mock.patch.object(example2, "jacobian_many", wraps=example2.jacobian_many) as jac:
        results = falsify_floors(example2, floors, n=50_000, seed=0)
    assert jac.call_count == math.ceil(50_000 / 15_000)
    assert [(r.falsified, r.n_samples) for r in results[:2]] == [(False, 50_000), (True, 1)]
    assert results[2].falsified and results[2].n_samples <= 15_000

    # once every subset has stopped, nothing more is drawn
    with block, mock.patch.object(example2, "jacobian_many", wraps=example2.jacobian_many) as jac:
        falsify_floors(example2, floors[1:], n=50_000, seed=0)
    assert jac.call_count == 1


def test_sample_pass_visits_live_reductions_block_by_block(example2):
    block = 7
    drawn, visits, last_block = [], [], []

    def sample(count):
        # the previous block's samples and Jacobians are freed before this draw
        assert all(ref() is None for ref in last_block)
        drawn.append(count)
        return np.zeros((count, 2)), np.zeros((count, 1))

    def visit(k, start, xs, ws, jacs):
        visits.append((k, start, len(xs), len(ws), len(jacs)))
        last_block[:] = [weakref.ref(xs), weakref.ref(ws), weakref.ref(jacs)]
        assert np.geterr() == {"divide": "ignore", "over": "ignore", "under": "ignore", "invalid": "ignore"}
        return k == 0  # reduction 0 retires after block 0

    errors = np.geterr()
    with mock.patch.object(dynamics, "JACOBIAN_BLOCK", block):
        sample_pass(example2, sample, 2 * block + 5, 2, visit)
        assert drawn == [7, 7, 5]
        assert visits == [(0, 0, 7, 7, 7), (1, 0, 7, 7, 7), (1, 7, 7, 7, 7), (1, 14, 5, 5, 5)]
        assert np.geterr() == errors

        # nothing is drawn once the last reduction retires, nor with none live
        drawn.clear()
        sample_pass(example2, sample, 2 * block + 5, 3, lambda *block_args: True)
        assert drawn == [7]
        drawn.clear()
        sample_pass(example2, sample, 2 * block + 5, 0, visit)
        assert drawn == []


def test_shared_pass_requires_every_floor(example2):
    subsets = [IndexSubset(p=(1,), n=2, c_p=0.5), IndexSubset(p=(2,), n=2)]
    with pytest.raises(ValueError, match=r"\(2,\) has no declared floor"):
        falsify_floors(example2, subsets, n=10, seed=0)
