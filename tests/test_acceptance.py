"""Acceptance suite: one test and one printed pass/fail line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import itertools
import json
import math
import time
from pathlib import Path

import numpy as np

import quantstab as qs
from quantstab.dynamics import finite_difference_jacobian
from quantstab.cli import main as cli_main
from conftest import tally_of, uniform_measure

REPO = Path(__file__).resolve().parent.parent


def _report(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" [{detail}]" if detail else ""
    print(f"[acceptance] criterion {num} ({name}): {status}{suffix}")
    assert ok, f"criterion {num} ({name}) failed {suffix}"


def test_criterion_01_example1_exact_bounds():
    started = time.perf_counter()
    example1 = qs.catalog_model("example1")
    measure = uniform_measure([-1, -1], [1, 1], (2, 2))
    noise = qs.NoiseSpec.gaussian(2)
    classical, classical_se = qs.classical_bound(example1, measure, noise, 4096, seed=1)
    refined, refined_se = qs.subset_bound(
        example1, qs.IndexSubset((1,), 2), measure, noise, 4096, seed=1
    )
    elapsed = time.perf_counter() - started
    ok = (
        classical == 0.0
        and classical_se == 0.0
        and refined == 1.0
        and refined_se == 0.0
        and elapsed < 1.0
    )
    _report(1, "example1 exact bounds", ok,
            f"classical={classical}, refined={refined}, {elapsed:.2f}s")


def test_criterion_02_example2_refinement_gap():
    started = time.perf_counter()
    example2 = qs.catalog_model("example2")
    noise = qs.NoiseSpec.uniform(1, -0.25, 0.25)
    init = qs.InitSpec.uniform_box([-0.5, -0.5], [0.5, 0.5])
    policy = qs.uniform_quantizer_policy(
        example2, [-4, -4], [4, 4], [6, 6], noise_mean=noise.mean
    )
    trajs = qs.batch_rollout(example2, policy, noise, init, 2000, 8, base_seed=21)
    part = qs.Partition(low=[-1.0, -1.0], high=[1.0, 1.0], cells_per_axis=(8, 8))
    measure = qs.empirical_measure(tally_of(trajs, part, 200))
    gamma = qs.GammaDeclaration((qs.IndexSubset((1,), 2, 0.9), qs.IndexSubset((1, 2), 2, 0.4)))
    report = qs.refined_bound(
        example2, gamma, measure, noise, n_mc=100_000, seed=5, common_random_numbers=True
    )
    by_p = {e.p: e for e in report.subsets}
    gap = by_p[(1,)].mean - report.classical_bound
    elapsed = time.perf_counter() - started
    ok = abs(gap - 1.0) < 1e-12 and elapsed < 10.0
    _report(2, "example2 refinement gap", ok, f"gap={gap!r}, {elapsed:.2f}s")


def test_criterion_03_theorem_consistency_on_stabilized_runs():
    started = time.perf_counter()
    example2 = qs.catalog_model("example2")
    noise2 = qs.NoiseSpec.uniform(1, -0.25, 0.25)
    init2 = qs.InitSpec.uniform_box([-0.5, -0.5], [0.5, 0.5])
    quantizer = qs.uniform_quantizer_policy(
        example2, [-4, -4], [4, 4], [6, 6], noise_mean=noise2.mean
    )
    trajs = qs.batch_rollout(example2, quantizer, noise2, init2, 10_000, 64, base_seed=11)
    diverged = sum(t.diverged for t in trajs)
    part = qs.Partition(low=[-1.0, -1.0], high=[1.0, 1.0], cells_per_axis=(8, 8))
    measure = qs.empirical_measure(tally_of(trajs, part, 1000))
    gamma = qs.GammaDeclaration(
        (qs.IndexSubset((1,), 2, 0.9), qs.IndexSubset((2,), 2, 0.4), qs.IndexSubset((1, 2), 2, 0.4))
    )
    report = qs.refined_bound(
        example2, gamma, measure, noise2, n_mc=100_000, seed=13,
        capacity=quantizer.capacity(),
    )

    doubling = qs.catalog_model("scalar_doubling")
    noise1 = qs.NoiseSpec.uniform(1, -0.05, 0.05)
    init1 = qs.InitSpec.uniform_box([-1], [1])
    zoom = qs.zoom_policy(doubling, 4, 0.75, 3.0, 2.0, noise_mean=noise1.mean)
    ztrajs = qs.batch_rollout(doubling, zoom, noise1, init1, 10_000, 64, base_seed=17)
    zdiverged = sum(t.diverged for t in ztrajs)
    zpart = qs.Partition(low=[-2.0], high=[2.0], cells_per_axis=(8,))
    zmeasure = qs.empirical_measure(tally_of(ztrajs, zpart, 1000))
    zreport = qs.refined_bound(
        doubling,
        qs.GammaDeclaration((qs.IndexSubset((1,), 1, 0.9),)),
        zmeasure,
        noise1,
        n_mc=10_000,
        seed=19,
        capacity=zoom.capacity(),
    )
    elapsed = time.perf_counter() - started
    ok = (
        diverged == 0
        and report.max_bound <= 12.0
        and not report.violation
        and zdiverged == 0
        and zreport.max_bound == 1.0
        and zreport.max_bound <= 2.0
        and not zreport.violation
        and elapsed < 120.0
    )
    _report(
        3,
        "theorem consistency on stabilized runs",
        ok,
        f"example2 max={report.max_bound:.4f}<=12, doubling refined={zreport.max_bound}, {elapsed:.1f}s",
    )


def test_criterion_04_counting_bound_structural():
    ar1 = qs.catalog_model("stable_ar1")
    doubling = qs.catalog_model("scalar_doubling")
    noise_g = qs.NoiseSpec.gaussian(1, 0.0, 0.5)
    noise_u = qs.NoiseSpec.uniform(1, -0.05, 0.05)
    init = qs.InitSpec.uniform_box([-1], [1])
    d_ar1 = qs.Partition(low=[-3.0], high=[3.0], cells_per_axis=(2,))
    d_dbl = qs.Partition(low=[-4.0], high=[4.0], cells_per_axis=(2,))

    grid = [
        ("null/ar1/M2", ar1, qs.null_policy(2, 1), noise_g, d_ar1),
        ("null/ar1/M4", ar1, qs.null_policy(4, 1), noise_g, d_ar1),
        ("zoom/ar1/M2", ar1, qs.zoom_policy(ar1, 2, 0.9, 2.0, 4.0, noise_mean=noise_g.mean), noise_g, d_ar1),
        ("zoom/doubling/M4", doubling, qs.zoom_policy(doubling, 4, 0.75, 3.0, 2.0, noise_mean=noise_u.mean), noise_u, d_dbl),
        ("quantizer/ar1/M4", ar1, qs.uniform_quantizer_policy(ar1, [-2.0], [2.0], [1], noise_mean=noise_g.mean, m=4), noise_g, d_ar1),
    ]
    failures = []
    for name, model, policy, noise, state_partition in grid:
        template = qs.SpanningTemplate(state_partition, None, 0.75, 0.3)
        points = qs.entropy_rate(model, policy, noise, init, template, [2, 4, 6, 8], 32, seed=9)
        m = policy.m
        for p in points:
            if not (
                p.feasible
                and p.n_candidates <= m**p.horizon
                and p.s_estimate <= m**p.horizon
                and p.rate <= math.log2(m)
            ):
                failures.append(f"{name} T={p.horizon}: s={p.s_estimate}")
    _report(4, "Lemma-1 counting bound", not failures,
            f"20 instances, failures: {failures or 'none'}")


def test_criterion_05_set_cover_exactness():
    def oracle(matrix, needed):
        for k in range(1, len(matrix) + 1):
            for combo in itertools.combinations(range(len(matrix)), k):
                if int(np.any(matrix[list(combo)], axis=0).sum()) >= needed:
                    return k
        return math.inf

    rng = np.random.default_rng(271828)
    mismatches = 0
    for _ in range(200):
        rows = int(rng.integers(1, 13))
        cols = int(rng.integers(1, 13))
        matrix = rng.random((rows, cols)) < rng.uniform(0.1, 0.7)
        needed = int(rng.integers(1, cols + 1))
        expected = oracle(matrix, needed)
        exact = qs.min_cover_cardinality(matrix, needed, mode="exact")
        greedy = qs.min_cover_cardinality(matrix, needed, mode="greedy")
        if exact != expected or greedy < exact:
            mismatches += 1
    _report(5, "set-cover exact vs oracle", mismatches == 0, "200 random tiny instances")


def test_criterion_06_jacobian_fidelity():
    rng = np.random.default_rng(61803)
    worst = 0.0
    for name in qs.catalog_names():
        model = qs.catalog_model(name)
        subsets = [
            qs.IndexSubset(p, model.n)
            for size in range(1, model.n + 1)
            for p in itertools.combinations(range(1, model.n + 1), size)
        ]
        for subset in subsets:
            for _ in range(100):
                x = rng.uniform(-10, 10, model.n)
                w = rng.uniform(-10, 10, model.noise_dim)
                sym = qs.subset_jacobian(model, subset, x, w)
                fd = finite_difference_jacobian(model, x, w)[np.ix_(subset.p0, subset.p0)]
                err = np.max(np.abs(sym - fd) / np.maximum(1.0, np.abs(sym)))
                worst = max(worst, float(err))
    _report(6, "Jacobian fidelity", worst < 1e-5, f"worst rel err {worst:.2e}")


def test_criterion_07_stationary_law():
    ar1 = qs.catalog_model("stable_ar1")
    noise = qs.NoiseSpec.gaussian(1)
    init = qs.InitSpec.fixed([0.0])
    trajs = qs.batch_rollout(ar1, qs.null_policy(2), noise, init, 10_000, 64, base_seed=123)
    pooled = np.concatenate([t.x[:, 0] for t in trajs])
    variance = float(pooled.var())
    var_ok = abs(variance - 4.0 / 3.0) / (4.0 / 3.0) < 0.05

    part = qs.Partition(low=[-4.0], high=[4.0], cells_per_axis=(4,))
    measure = qs.empirical_measure(tally_of(trajs, part, 1000))
    sigma = math.sqrt(4.0 / 3.0)
    hist_ok = True
    for i in range(part.n_boxes):
        lo, hi = part.cell_bounds(i)
        prob = 0.5 * (
            math.erf(hi[0] / (sigma * math.sqrt(2))) - math.erf(lo[0] / (sigma * math.sqrt(2)))
        )
        three_sigma = 3.0 * math.sqrt(prob * (1 - prob) / measure.n_samples)
        if abs(measure.weights[i] - prob) >= three_sigma:
            hist_ok = False
    _report(7, "AR(1) stationary law", var_ok and hist_ok,
            f"pooled var={variance:.4f} (target 1.3333), histogram 3-sigma binomial")


def test_criterion_08_permutation_algebra():
    sub = qs.IndexSubset(p=(2, 4), n=4)
    worked = np.array_equal(
        qs.permute_state(sub, [1.0, 2.0, 3.0, 4.0]), [2.0, 4.0, 1.0, 3.0]
    ) and np.array_equal(
        qs.inverse_permute(sub, [10.0, 20.0, -1.0, -2.0]), [-1.0, 10.0, -2.0, 20.0]
    )
    rng = np.random.default_rng(271)
    round_trip = True
    for _ in range(1000):
        n = int(rng.integers(1, 9))
        size = int(rng.integers(1, n + 1))
        p = tuple(sorted(rng.choice(np.arange(1, n + 1), size=size, replace=False).tolist()))
        subset = qs.IndexSubset(p=p, n=n)
        x = rng.normal(size=n)
        if not np.array_equal(qs.inverse_permute(subset, qs.permute_state(subset, x)), x):
            round_trip = False
    _report(8, "permutation algebra", worked and round_trip,
            "worked example + 1000 random round trips")


def test_criterion_09_gamma_falsification():
    example2 = qs.catalog_model("example2")
    survives = qs.gamma_falsify(
        example2, qs.IndexSubset((1, 2), 2, c_p=0.4), n=100_000, seed=2024
    )
    falsified = qs.gamma_falsify(
        example2, qs.IndexSubset((1, 2), 2, c_p=0.6), n=100_000, seed=2024
    )
    ok = (
        not survives.falsified
        and survives.min_abs_det >= 0.5
        and falsified.falsified
        and 0.5 <= falsified.min_abs_det <= 0.6
    )
    _report(9, "determinant-floor falsification", ok,
            f"c_p=0.4 min|det|={survives.min_abs_det:.4f}; c_p=0.6 hit {falsified.min_abs_det:.4f}")


def test_criterion_10_reproducibility(tmp_path):
    def tree(root: Path):
        return {p.relative_to(root): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}

    small = {
        "seed": 5,
        "horizon": 400,
        "paths": 4,
        "model": {"catalog": "stable_ar1"},
        "noise": {"family": "gaussian", "mean": 0.0, "std": 1.0, "dim": 1},
        "init": {"kind": "fixed", "values": [0.0]},
        "policy": {"kind": "null", "m": 2},
        "partition": {"low": [-6.0], "high": [6.0], "cells_per_axis": [8]},
        "gamma": [{"p": [1], "c_p": 0.4}],
        "bound": {"n_mc": 2000},
        "entropy": {
            "horizons": [4, 6],
            "scenarios": 16,
            "rho": 0.75,
            "epsilon": 0.3,
            "split": 1,
            "state_partition": {"low": [-3.0], "high": [3.0], "cells_per_axis": [2]},
        },
        "diagnose": {"checkpoints": [10, 100, 400]},
    }
    config = tmp_path / "config.json"
    config.write_text(json.dumps(small))
    ok = True
    detail = []
    for command in ["simulate", "bound", "entropy", "diagnose"]:
        first = tmp_path / f"{command}_a"
        second = tmp_path / f"{command}_b"
        code1 = cli_main([command, "--config", str(config), "--out", str(first)])
        code2 = cli_main([command, "--config", str(config), "--out", str(second)])
        same = code1 == code2 == 0 and tree(first) == tree(second)
        ok &= same
        detail.append(f"{command}:{'=' if same else '!='}")
    _report(10, "byte-identical reruns", ok, " ".join(detail))
