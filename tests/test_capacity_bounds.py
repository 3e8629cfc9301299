import math
import tracemalloc
import warnings
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest

from quantstab import (
    GammaDeclaration,
    IndexSubset,
    InitSpec,
    NoiseSpec,
    SingularMatrixError,
    SystemModel,
    batch_rollout,
    classical_bound,
    empirical_measure,
    linear_closed_form,
    null_policy,
    refined_bound,
    subset_bound,
)
from quantstab import EmpiricalMeasure, Partition, capacity_bounds
from quantstab.dynamics import JACOBIAN_BLOCK, NonFiniteMatrixError, log2_abs_det_many, sample_pass
from conftest import uniform_measure


NOISE2 = NoiseSpec.gaussian(2)
NOISE1 = NoiseSpec.gaussian(1)


# --------------------------------------------------------------------------
# Example 1: constant integrands, exact values

def test_example1_unstable_subset_is_exactly_one_bit(example1, make_uniform_measure):
    measure = make_uniform_measure([-1, -1], [1, 1], (2, 2))
    mean, stderr = subset_bound(example1, IndexSubset((1,), 2), measure, NOISE2, 2000, seed=1)
    assert mean == 1.0
    assert stderr == 0.0


def test_example1_full_state_bound_is_exactly_zero(example1, make_uniform_measure):
    measure = make_uniform_measure([-1, -1], [1, 1], (2, 2))
    mean, stderr = classical_bound(example1, measure, NOISE2, 2000, seed=1)
    assert mean == 0.0
    assert stderr == 0.0


def test_identity_jacobian_model_bound_is_zero(make_uniform_measure):
    model = SystemModel.from_text("states 2\nnoise 2\nx1' = x1 + w1\nx2' = x2 + w2")
    measure = make_uniform_measure([-1, -1], [1, 1], (2, 2))
    mean, stderr = classical_bound(model, measure, NOISE2, 500, seed=0)
    assert mean == 0.0 and stderr == 0.0


def test_example1_report_maximum_and_argmax(example1, make_uniform_measure):
    measure = make_uniform_measure([-1, -1], [1, 1], (2, 2))
    gamma = GammaDeclaration((IndexSubset((1,), 2, 0.9), IndexSubset((1, 2), 2, 0.9)))
    report = refined_bound(example1, gamma, measure, NOISE2, 2000, seed=1, capacity=2.0)
    assert report.max_bound == 1.0
    assert report.argmax == (1,)
    assert report.classical_bound == 0.0
    assert not report.violation


# --------------------------------------------------------------------------
# Example 2: the pointwise refinement gap

def test_example2_gap_is_one_bit_with_common_random_numbers(example2, make_uniform_measure):
    measure = make_uniform_measure([-2, -2], [2, 2], (4, 4))
    gamma = GammaDeclaration(
        (IndexSubset((1,), 2, 0.9), IndexSubset((2,), 2, 0.4), IndexSubset((1, 2), 2, 0.4))
    )
    report = refined_bound(example2, gamma, measure, NOISE1, 50_000, seed=7)
    by_p = {e.p: e for e in report.subsets}
    assert report.argmax == (1,)
    assert by_p[(1,)].mean - by_p[(1, 2)].mean == pytest.approx(1.0, abs=1e-12)
    assert by_p[(1,)].mean - report.classical_bound == pytest.approx(1.0, abs=1e-12)
    assert by_p[(2,)].mean == -1.0  # the stable coordinate alone contributes log2(1/2)


def test_singleton_full_gamma_report_equals_classical(example2, make_uniform_measure):
    measure = make_uniform_measure([-2, -2], [2, 2], (4, 4))
    gamma = GammaDeclaration((IndexSubset((1, 2), 2, 0.4),))
    report = refined_bound(example2, gamma, measure, NOISE1, 5000, seed=3)
    assert report.max_bound == report.classical_bound
    assert report.argmax == (1, 2)


def test_declared_full_state_subset_is_the_classical_bound_bitwise(example2, make_uniform_measure):
    measure = make_uniform_measure([-2, -2], [2, 2], (4, 4))
    partial = (IndexSubset((1,), 2, 0.9), IndexSubset((2,), 2, 0.4))
    with_full = GammaDeclaration(partial + (IndexSubset((1, 2), 2, 0.4),))
    calls = mock.patch.object(
        capacity_bounds, "log2_abs_det_many", wraps=capacity_bounds.log2_abs_det_many
    )
    with calls as reused:
        report = refined_bound(example2, with_full, measure, NOISE1, 5000, seed=3)
    assert reused.call_count == 3  # no fourth evaluation for the classical bound
    with calls as fresh:
        alone = refined_bound(example2, GammaDeclaration(partial), measure, NOISE1, 5000, seed=3)
    assert fresh.call_count == 3
    by_p = {e.p: e for e in report.subsets}
    assert report.classical_bound == by_p[(1, 2)].mean
    assert np.float64(report.classical_bound).tobytes() == np.float64(alone.classical_bound).tobytes()
    # without common random numbers the classical bound keeps its own draw
    independent = refined_bound(
        example2, with_full, measure, NOISE1, 5000, seed=3, common_random_numbers=False
    )
    assert independent.classical_bound != {e.p: e for e in independent.subsets}[(1, 2)].mean


def test_without_crn_estimates_differ_statistically(example2, make_uniform_measure):
    measure = make_uniform_measure([-2, -2], [2, 2], (4, 4))
    gamma = GammaDeclaration((IndexSubset((1,), 2, 0.9), IndexSubset((1, 2), 2, 0.4)))
    report = refined_bound(
        example2, gamma, measure, NOISE1, 2000, seed=7, common_random_numbers=False
    )
    by_p = {e.p: e for e in report.subsets}
    gap = by_p[(1,)].mean - by_p[(1, 2)].mean
    assert gap == pytest.approx(1.0, abs=0.1)
    assert gap != pytest.approx(1.0, abs=1e-12)


# --------------------------------------------------------------------------
# Estimator behaviour

def test_subset_bound_is_q_independent_for_linear_systems(example1, make_uniform_measure):
    a = uniform_measure([-1, -1], [1, 1], (2, 2))
    b = uniform_measure([-7, -3], [9, 5], (5, 3))
    for p in [(1,), (2,), (1, 2)]:
        sub = IndexSubset(p, 2)
        mean_a, se_a = subset_bound(example1, sub, a, NOISE2, 1000, seed=2)
        mean_b, se_b = subset_bound(example1, sub, b, NOISE2, 1000, seed=9)
        assert mean_a == mean_b and se_a == se_b == 0.0


def test_diagonal_gamma_maximum_recovers_linear_closed_form(make_uniform_measure):
    model = SystemModel.from_text(
        "states 3\nx1' = 2*x1\nx2' = 3*x2\nx3' = 0.5*x3"
    )
    a = np.diag([2.0, 3.0, 0.5])
    measure = make_uniform_measure([-1, -1, -1], [1, 1, 1], (2, 2, 2))
    subsets = [(1,), (2,), (3,), (1, 2), (1, 3), (2, 3), (1, 2, 3)]
    gamma = GammaDeclaration(tuple(IndexSubset(p, 3, 0.1) for p in subsets))
    noise = NoiseSpec.atoms(np.zeros((1, 0)), [1.0])
    report = refined_bound(model, gamma, measure, noise, 200, seed=0, capacity=4.0)
    assert report.max_bound == pytest.approx(linear_closed_form(a), abs=1e-12)
    assert report.argmax == (1, 2)
    for estimate in report.subsets:
        expected = math.log2(abs(np.linalg.det(a[np.ix_(np.array(estimate.p) - 1, np.array(estimate.p) - 1)])))
        assert estimate.mean == pytest.approx(expected, abs=1e-12)


def test_stderr_shrinks_like_inverse_sqrt(example2, make_uniform_measure):
    measure = make_uniform_measure([-2, -2], [2, 2], (4, 4))
    sub = IndexSubset((1,), 2)
    _, se_small = subset_bound(example2, sub, measure, NOISE1, 20_000, seed=10)
    _, se_big = subset_bound(example2, sub, measure, NOISE1, 40_000, seed=11)
    assert se_big / se_small == pytest.approx(1.0 / math.sqrt(2.0), rel=0.2)


def test_violation_flag_when_capacity_too_small(doubling, make_uniform_measure):
    measure = make_uniform_measure([-1], [1], (2,))
    gamma = GammaDeclaration((IndexSubset((1,), 1, 0.9),))
    noise = NoiseSpec.gaussian(1)
    report = refined_bound(doubling, gamma, measure, noise, 100, seed=0, capacity=0.0)
    assert report.max_bound == 1.0
    assert report.violation
    ok = refined_bound(doubling, gamma, measure, noise, 100, seed=0, capacity=2.0)
    assert not ok.violation


def test_tie_break_prefers_lexicographically_smallest(example1, make_uniform_measure):
    # subsets {1} and {1,2} of the doubled system tie at 1.0 when the stable
    # axis is replaced by a unit eigenvalue
    model = SystemModel.from_text("states 2\nnoise 2\nx1' = 2*x1 + w1\nx2' = x2 + w2")
    measure = uniform_measure([-1, -1], [1, 1], (2, 2))
    gamma = GammaDeclaration((IndexSubset((1, 2), 2, 0.9), IndexSubset((1,), 2, 0.9)))
    report = refined_bound(model, gamma, measure, NOISE2, 500, seed=0)
    assert report.max_bound == 1.0
    assert report.argmax == (1,)


def test_overflow_mass_precondition(example1):
    part = Partition(low=[-1.0, -1.0], high=[1.0, 1.0], cells_per_axis=(2, 2))
    weights = np.zeros(part.n_cells)
    weights[0] = 0.9
    weights[-1] = 0.1
    measure = EmpiricalMeasure(part, weights, 100, 0)
    with pytest.raises(ValueError, match="overflow mass"):
        subset_bound(example1, IndexSubset((1,), 2), measure, NOISE2, 100, seed=0)


def test_n_mc_precondition(example1, make_uniform_measure):
    measure = make_uniform_measure([-1, -1], [1, 1], (2, 2))
    with pytest.raises(ValueError, match="at least one"):
        subset_bound(example1, IndexSubset((1,), 2), measure, NOISE2, 0, seed=0)


def test_singular_jacobian_names_the_point(make_uniform_measure):
    # dynamics whose x1-slope vanishes on a thick region of the sampled box
    model = SystemModel.from_text("states 1\nnoise 1\nx1' = x1^3 + w1")
    measure = make_uniform_measure([-1e-160], [1e-160], (1,))
    with pytest.raises(SingularMatrixError, match="p=\\(1,\\) at x="):
        subset_bound(model, IndexSubset((1,), 1), measure, NOISE1, 1000, seed=0)


def test_per_subset_errors_do_not_abort_others(make_uniform_measure):
    model = SystemModel.from_text("states 2\nnoise 2\nx1' = x1^3 + w1\nx2' = 2*x2 + w2")
    measure = make_uniform_measure([-1e-160, -1], [1e-160, 1], (1, 2))
    gamma = GammaDeclaration((IndexSubset((1,), 2, 0.1), IndexSubset((2,), 2, 0.9)))
    report = refined_bound(model, gamma, measure, NOISE2, 500, seed=1, capacity=3.0)
    by_p = {e.p: e for e in report.subsets}
    assert by_p[(1,)].error is not None and by_p[(1,)].mean is None
    assert by_p[(2,)].error is None and by_p[(2,)].mean == 1.0
    assert report.max_bound == 1.0 and report.argmax == (2,)
    assert report.classical_bound is None  # full jacobian is singular too

    # a declared full-state subset that fails leaves no classical bound either
    full = IndexSubset((1, 2), 2, 0.1)
    report = refined_bound(model, GammaDeclaration(gamma.subsets + (full,)), measure, NOISE2, 500,
                           seed=1, capacity=3.0)
    assert {e.p: e for e in report.subsets}[(1, 2)].error is not None
    assert report.classical_bound is None and report.argmax == (2,)


def test_all_subsets_failing_raises(make_uniform_measure):
    model = SystemModel.from_text("states 1\nnoise 1\nx1' = x1^3 + w1")
    measure = make_uniform_measure([-1e-160], [1e-160], (1,))
    gamma = GammaDeclaration((IndexSubset((1,), 1, 0.1),))
    with pytest.raises(SingularMatrixError, match="every declared subset"):
        refined_bound(model, gamma, measure, NOISE1, 100, seed=0)


@pytest.mark.filterwarnings("error")
def test_subset_bound_non_finite_jacobian_raises_without_a_warning(example2, make_uniform_measure):
    # states drawn from cells of width 1e300 overflow example2's Jacobian
    measure = make_uniform_measure([-1e300, -1e300], [1e300, 1e300], (2, 2))
    with pytest.raises(NonFiniteMatrixError, match="non-finite subset Jacobian for p=\\(1,\\) at x="):
        subset_bound(example2, IndexSubset((1,), 2), measure, NOISE1, 1000, seed=0)
    with pytest.raises(NonFiniteMatrixError):
        classical_bound(example2, measure, NOISE1, 1000, seed=0)


# --------------------------------------------------------------------------
# The streaming pass: drawn, evaluated and reduced JACOBIAN_BLOCK rows at a time

_BLOCK_COUNTS = [
    1, JACOBIAN_BLOCK - 1, JACOBIAN_BLOCK, JACOBIAN_BLOCK + 1, 2 * JACOBIAN_BLOCK + 5001
]


def _whole_draw(measure, noise, n_mc, seed):
    """One draw on one generator: the states, then the noise."""
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    return measure.sample_states(rng, n_mc), noise.sample(rng, n_mc)


@pytest.mark.parametrize("seed", [4, (4, 1)])
@pytest.mark.parametrize(
    "noise",
    [
        NoiseSpec.uniform(1, -0.25, 0.25),
        NoiseSpec.gaussian(2, mean=[1.0, -1.0], std=[0.5, 2.0]),
        NoiseSpec.atoms([[0.0, 1.0], [2.0, -1.0], [5.0, 5.0]], [0.2, 0.5, 0.3]),
    ],
    ids=["uniform", "gaussian", "atoms"],
)
@pytest.mark.parametrize(
    "measure",
    [
        EmpiricalMeasure(
            Partition([-1.0], [3.0], (5,)), np.array([0.1, 0.0, 0.4, 0.3, 0.2, 0.0]), 10, 0
        ),
        uniform_measure([-2, -1], [2, 1], (4, 3)),
    ],
    ids=["1d", "2d"],
)
def test_streamed_draw_equals_one_whole_draw_bitwise(measure, noise, seed):
    model = SimpleNamespace(jacobian_many=lambda xs, ws: None)  # the pass reads no Jacobian here
    for n_mc in _BLOCK_COUNTS:
        blocks = []
        sample = capacity_bounds._sampler(measure, noise, n_mc, seed)
        sample_pass(model, sample, n_mc, 1, lambda k, start, xs, ws, jacs: blocks.append((xs, ws)))
        assert [len(xs) for xs, _ in blocks] == [
            min(JACOBIAN_BLOCK, n_mc - start) for start in range(0, n_mc, JACOBIAN_BLOCK)
        ]
        want_xs, want_ws = _whole_draw(measure, noise, n_mc, seed)
        assert np.concatenate([xs for xs, _ in blocks]).tobytes() == want_xs.tobytes()
        assert np.concatenate([ws for _, ws in blocks]).tobytes() == want_ws.tobytes()


def _chan_fold(values):
    """(mean, stderr) of values merged in JACOBIAN_BLOCK-row slices by Chan's update."""
    count, mean, m2 = 0, 0.0, 0.0
    for start in range(0, len(values), JACOBIAN_BLOCK):
        block = values[start: start + JACOBIAN_BLOCK]
        block_mean = block.mean()
        block_m2 = ((block - block_mean) ** 2).sum()
        total = count + len(block)
        delta = block_mean - mean
        mean = mean + delta * (len(block) / total)
        m2 = m2 + block_m2 + delta * delta * (count * len(block) / total)
        count = total
    return mean, (np.sqrt(m2 / (count - 1)) / math.sqrt(count) if count > 1 else 0.0)


def _whole_array_values(model, subsets, measure, noise, n_mc, seeds):
    """log2 |det| per subset from one Jacobian array over each subset's whole draw."""
    return [
        log2_abs_det_many(model.jacobian_many(*_whole_draw(measure, noise, n_mc, seed)), subset.p0)
        for subset, seed in zip(subsets, seeds)
    ]


def _bits(x):
    return np.float64(x).tobytes()


def _block_pass_reports(example2, measure, n_mc, crn):
    """The report of refined_bound and the whole-array values of its draws."""
    gamma = GammaDeclaration((IndexSubset((1,), 2, 0.9), IndexSubset((2,), 2, 0.4)))
    evaluated = list(gamma) + [IndexSubset((1, 2), 2)]
    seeds = [5] * 3 if crn else [(5, tag) for tag in range(3)]
    values = _whole_array_values(example2, evaluated, measure, NOISE1, n_mc, seeds)
    report = refined_bound(
        example2, gamma, measure, NOISE1, n_mc, seed=5, common_random_numbers=crn
    )
    return report, values


@pytest.mark.parametrize("crn", [True, False])
def test_block_pass_matches_one_whole_array_bit_for_bit(example2, make_uniform_measure, crn):
    n_mc = 2 * JACOBIAN_BLOCK + 5001  # two full blocks and a partial one
    measure = make_uniform_measure([-2, -2], [2, 2], (4, 4))
    report, values = _block_pass_reports(example2, measure, n_mc, crn)
    got = [(e.mean, e.stderr) for e in report.subsets] + [(report.classical_bound, None)]
    for (mean, stderr), v in zip(got, values):
        want_mean, want_stderr = _chan_fold(v)
        assert _bits(mean) == _bits(want_mean)
        assert mean == pytest.approx(np.mean(v), rel=1e-14, abs=0.0)
        if stderr is not None:
            assert _bits(stderr) == _bits(want_stderr)
            assert stderr == pytest.approx(np.std(v, ddof=1) / math.sqrt(n_mc), rel=1e-14, abs=0.0)
    # the stable coordinate alone is the constant log2(1/2)
    constant = {e.p: e for e in report.subsets}[(2,)]
    assert (constant.mean, constant.stderr) == (-1.0, 0.0)


@pytest.mark.parametrize("n_mc", [5000, JACOBIAN_BLOCK])
def test_one_block_pass_equals_numpy_bit_for_bit(example2, make_uniform_measure, n_mc):
    measure = make_uniform_measure([-2, -2], [2, 2], (4, 4))
    report, values = _block_pass_reports(example2, measure, n_mc, crn=True)
    got = [(e.mean, e.stderr) for e in report.subsets]
    for (mean, stderr), v in zip(got, values):
        assert _bits(mean) == _bits(v.mean())
        assert _bits(stderr) == _bits(v.std(ddof=1) / math.sqrt(n_mc))
    assert _bits(report.classical_bound) == _bits(values[-1].mean())


_SQUARE = SystemModel.from_text("states 1\nnoise 1\nx1' = x1^2 + w1")  # Jacobian 2 x1


@pytest.mark.parametrize(
    "bad, row, kind",
    [
        ({5: math.inf, 45_000: 0.0}, 45_000, SingularMatrixError),  # below the floor beats non-finite
        ({25_000: 0.0, 45_000: 0.0}, 25_000, SingularMatrixError),  # the first below the floor
        ({5: math.inf, 45_000: math.inf}, 5, NonFiniteMatrixError),
    ],
)
def test_block_pass_reports_the_whole_array_error(bad, row, kind):
    xs = np.full((45_001, 1), 0.5)
    ws = np.arange(45_001, dtype=float)[:, None]
    for i, x in bad.items():
        xs[i] = x
    with pytest.raises(SingularMatrixError) as oracle:
        log2_abs_det_many(_SQUARE.jacobian_many(xs, ws))
    assert oracle.value.index == row
    assert isinstance(oracle.value, NonFiniteMatrixError) == (kind is NonFiniteMatrixError)

    starts = iter(range(0, len(xs), JACOBIAN_BLOCK))

    def sample(count):
        i = next(starts)
        return xs[i: i + count], ws[i: i + count]

    [error] = capacity_bounds._subset_values(_SQUARE, [IndexSubset((1,), 1)], sample, len(xs))
    assert type(error) is kind and error.index == row
    assert f"for p=(1,) at x=[{xs[row, 0]}], w=[{float(row)}]" in str(error)


def test_zero_denominator_jacobian_is_a_subset_error_without_a_warning():
    # d/dx1 of 1/(x2 - x2) * x1 divides by zero at every sample
    model = SystemModel.from_text("states 2\nnoise 1\nx1' = 1/(x2 - x2) * x1\nx2' = 0.5*x2 + w1")
    gamma = GammaDeclaration((IndexSubset((1,), 2, 0.4), IndexSubset((2,), 2, 0.4)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = refined_bound(model, gamma, uniform_measure([-2, -2], [2, 2], (4, 4)), NOISE1, 1000)
    first, second = report.subsets
    assert first.error.startswith("non-finite subset Jacobian for p=(1,) at x=")
    assert (second.mean, second.error, report.argmax) == (-1.0, None, (2,))


def test_block_pass_memory_does_not_grow_with_the_jacobian_array(example2, make_uniform_measure):
    n_mc = 400_000
    measure = make_uniform_measure([-2, -2], [2, 2], (4, 4))
    gamma = GammaDeclaration(
        (IndexSubset((1,), 2, 0.9), IndexSubset((2,), 2, 0.4), IndexSubset((1, 2), 2, 0.4))
    )
    # the samples (n + noise_dim columns) and one value per subset, plus the blocks
    bound = (example2.n + example2.noise_dim + len(gamma.subsets)) * 8 * n_mc + 4 * 2**20
    tracemalloc.start()
    try:
        refined_bound(example2, gamma, measure, NOISE1, n_mc, seed=0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < bound
    assert peak < 4 * 2**20  # O(block): no array of n_mc rows, not even the samples


# --------------------------------------------------------------------------
# Linear closed form

def test_linear_closed_form_examples():
    assert linear_closed_form(np.diag([2.0, 0.5])) == 1.0
    assert linear_closed_form(np.eye(3)) == 0.0
    assert linear_closed_form(np.diag([4.0, 3.0])) == pytest.approx(2.0 + math.log2(3.0))


def test_linear_closed_form_complex_eigenvalues():
    # rotation scaled by 2: both complex eigenvalues have magnitude 2
    a = 2.0 * np.array([[0.0, -1.0], [1.0, 0.0]])
    assert linear_closed_form(a) == pytest.approx(2.0, abs=1e-12)


def test_linear_closed_form_requires_square():
    with pytest.raises(ValueError):
        linear_closed_form(np.ones((2, 3)))


# --------------------------------------------------------------------------
# End-to-end with a simulated measure

def test_refined_bound_on_simulated_stable_measure(ar1):
    trajs = batch_rollout(ar1, null_policy(2), NoiseSpec.gaussian(1), InitSpec.fixed([0.0]), 3000, 8, 17)
    part = Partition(low=[-6.0], high=[6.0], cells_per_axis=(12,))
    measure = empirical_measure(trajs, part, burn_in=300)
    gamma = GammaDeclaration((IndexSubset((1,), 1, 0.4),))
    report = refined_bound(ar1, gamma, measure, NoiseSpec.gaussian(1), 2000, seed=5, capacity=1.0)
    assert report.max_bound == -1.0  # constant integrand log2(1/2)
    assert not report.violation
