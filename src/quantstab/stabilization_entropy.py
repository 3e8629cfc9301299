"""Desk-scale spanning sets and stabilization-entropy estimation.

A spanning set is a finite collection of open-loop control sequences such
that, for a target fraction of sampled scenarios (initial state + noise path),
some sequence keeps the joint state/noise occupancy frequencies above
per-cell thresholds. The minimal spanning cardinality grows like 2^(rate * T);
the rate estimated here is bounded by the channel capacity whenever candidates
come from a causal policy, because such a policy can emit at most M^T distinct
control sequences by time T.

Coverage is judged against a finite sampled scenario set, so every cardinality
reported is an empirical estimate of the true minimum, and the sample counts
are a tooling choice; reports label the quantity ``s_estimate`` accordingly.
"""

from __future__ import annotations

import csv
import itertools
import math
from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from .dynamics import SystemModel
from .ergodics import Partition
from .policies import CodingPolicy
# run_closed_loop stays importable from this module: perfbench/tracing.py wraps it here
from .simulation import (  # noqa: F401
    InitSpec,
    NoiseSpec,
    Seed,
    Trajectory,
    run_closed_loop,
    run_closed_loops,
)

__all__ = [
    "ThresholdConstraintError",
    "CellFamily",
    "SpanningTemplate",
    "SpanningInstance",
    "ScenarioSet",
    "CandidateControls",
    "EntropyPoint",
    "build_R_epsilon",
    "open_loop_states",
    "satisfies_frequencies",
    "satisfaction_matrix",
    "is_spanning",
    "min_cover_cardinality",
    "min_spanning_estimate",
    "closed_loop_candidates",
    "entropy_rate",
    "entropy_curve_to_csv",
]

EXACT_MODE_LIMIT = 20
PAIR_BLOCK = 512  # (candidate, scenario) pairs stepped together; bounds memory


class ThresholdConstraintError(ValueError):
    """The threshold collection violates the spanning-set constraints."""


# --------------------------------------------------------------------------
# Cell families

@dataclass(frozen=True)
class CellFamily:
    """Pairwise-disjoint boxes; points outside every box belong to no cell."""

    los: np.ndarray  # (count, dim)
    his: np.ndarray

    def __post_init__(self):
        los = np.atleast_2d(np.asarray(self.los, float))
        his = np.atleast_2d(np.asarray(self.his, float))
        if los.shape != his.shape:
            raise ValueError("lower and upper corners must have matching shapes")
        count, dim = los.shape
        if count < 1:
            raise ValueError("family must contain at least one cell")
        if dim == 0:
            if count > 1:
                raise ValueError("a zero-dimensional family can only hold one cell")
        else:
            if np.any(his <= los):
                raise ValueError("every cell needs positive extent on every axis")
            for i in range(count - 1):
                hit = np.all((los[i] < his[i + 1:]) & (los[i + 1:] < his[i]), axis=1)
                if hit.any():
                    j = i + 1 + int(np.argmax(hit))
                    raise ValueError(f"cells {i} and {j} overlap; family must be disjoint")
        object.__setattr__(self, "los", los)
        object.__setattr__(self, "his", his)

    @classmethod
    def from_partition(cls, partition: Partition) -> "CellFamily":
        """The in-box grid cells of a partition (overflow is not a member)."""
        bounds = [partition.cell_bounds(i) for i in range(partition.n_boxes)]
        return cls(
            los=np.array([b[0] for b in bounds]),
            his=np.array([b[1] for b in bounds]),
        )

    @classmethod
    def whole_space(cls, dim: int) -> "CellFamily":
        """A single cell containing every finite point."""
        return cls(
            los=np.full((1, dim), -np.inf),
            his=np.full((1, dim), np.inf),
        )

    @property
    def count(self) -> int:
        return len(self.los)

    @property
    def dim(self) -> int:
        return self.los.shape[1]

    def locate(self, points: np.ndarray) -> np.ndarray:
        """Cell index per point row, -1 where no cell contains the point."""
        points = np.atleast_2d(np.asarray(points, float))
        out = np.full(len(points), -1, dtype=np.int64)
        for i in range(self.count):
            inside = np.all((points >= self.los[i]) & (points < self.his[i]), axis=1)
            out[inside] = i
        return out


# --------------------------------------------------------------------------
# Instances, scenarios, candidates

@dataclass(frozen=True)
class SpanningTemplate:
    """Everything an instance needs except the horizon and the thresholds."""

    m_split: int  # states split into first m and last N-m coordinates
    d_family: CellFamily  # over R^m
    e_family: CellFamily  # over R^(N-m)
    f_family: CellFamily  # over the noise space
    rho: float
    epsilon: float

    def __post_init__(self):
        if not (0.0 < self.rho < 1.0):
            raise ValueError("rho must lie in (0, 1)")
        if self.epsilon <= 0.0:
            raise ValueError("epsilon must be positive")
        if self.d_family.dim != self.m_split:
            raise ValueError("first family dimension must equal the split point")


@dataclass(frozen=True)
class SpanningInstance:
    """A concrete spanning problem: horizon, families, rho and thresholds."""

    horizon: int
    m_split: int
    d_family: CellFamily
    e_family: CellFamily
    f_family: CellFamily
    rho: float
    thresholds: np.ndarray  # (d, e, f) values r_{j,k,l} in [0, 1]

    def __post_init__(self):
        r = np.asarray(self.thresholds, float)
        shape = (self.d_family.count, self.e_family.count, self.f_family.count)
        if r.shape != shape:
            raise ValueError(f"thresholds must have shape {shape}, got {r.shape}")
        if np.any(r < -1e-12) or np.any(r > 1.0 + 1e-12):
            raise ThresholdConstraintError("every threshold must lie in [0, 1]")
        slack = float(np.sum(1.0 - r))
        if slack < -1e-9 or slack > 1.0 + 1e-9:
            raise ThresholdConstraintError(
                f"sum of (1 - r) over all cells is {slack}, outside [0, 1]"
            )
        if self.horizon < 1:
            raise ValueError("horizon must be at least 1")
        if not (0.0 < self.rho < 1.0):
            raise ValueError("rho must lie in (0, 1)")
        object.__setattr__(self, "thresholds", r)


@dataclass(frozen=True)
class ScenarioSet:
    """Equally weighted sampled scenarios: initial states and noise paths."""

    x0s: np.ndarray  # (n, N)
    ws: np.ndarray  # (n, T, K)

    @classmethod
    def sample(
        cls, init: InitSpec, noise: NoiseSpec, horizon: int, count: int, seed: Seed
    ) -> "ScenarioSet":
        if count < 1:
            raise ValueError("need at least one scenario")
        rng = np.random.default_rng(np.random.SeedSequence(seed))
        x0s = init.sample(rng, count)
        ws = noise.sample(rng, count * horizon).reshape(count, horizon, noise.dim)
        return cls(x0s=x0s, ws=ws)

    @property
    def count(self) -> int:
        return len(self.x0s)

    @property
    def horizon(self) -> int:
        return self.ws.shape[1]

    def __getitem__(self, i: int) -> tuple[np.ndarray, np.ndarray]:
        return self.x0s[i], self.ws[i]


@dataclass(frozen=True)
class CandidateControls:
    """Finite set of open-loop control sequences with provenance."""

    sequences: np.ndarray  # (count, T, N')
    provenance: str  # 'policy' | 'grid'

    @property
    def count(self) -> int:
        return len(self.sequences)

    @property
    def horizon(self) -> int:
        return self.sequences.shape[1]

    @classmethod
    def grid(cls, levels: Sequence[float], horizon: int, control_dim: int, limit: int = 10**6):
        """Full product grid of per-step control levels; policy-free studies only."""
        size = len(levels) ** (horizon * control_dim)
        if size > limit:
            raise ValueError(f"grid of {size} sequences exceeds the limit {limit}")
        seqs = np.array(
            [s for s in itertools.product(levels, repeat=horizon * control_dim)], dtype=float
        ).reshape(-1, horizon, control_dim)
        return cls(sequences=seqs, provenance="grid")


def closed_loop_candidates(
    model: SystemModel, policy: CodingPolicy, scenarios: ScenarioSet
) -> tuple[CandidateControls, list[Trajectory]]:
    """Run the policy on every scenario, all stepped together; deduplicated
    control sequences.

    A causal policy is a deterministic function of the symbol stream, so the
    deduplicated count can never exceed M^T.
    """
    horizon = scenarios.horizon
    trajs = run_closed_loops(
        model, policy, scenarios.x0s, scenarios.ws, seeds=range(scenarios.count)
    )
    seen: set[bytes] = set()
    kept = []
    for traj in trajs:
        if traj.steps < horizon:
            continue  # diverged before the horizon; no full-length sequence to offer
        key = traj.u.tobytes()
        if key not in seen:
            seen.add(key)
            kept.append(traj.u)
    if not kept:
        raise ValueError("every closed-loop run diverged; no candidate sequences")
    candidates = CandidateControls(sequences=np.array(kept), provenance="policy")
    assert candidates.count <= policy.m**horizon
    return candidates, trajs


# --------------------------------------------------------------------------
# Thresholds

def build_R_epsilon(
    q_weights: np.ndarray, nu_weights: np.ndarray, epsilon: float
) -> np.ndarray:
    """Per-cell frequency thresholds from cell masses with slack epsilon.

    For joint mass kappa = Q(D_j x E_k) * nu(F_l) the threshold is
    ``(1 + epsilon) * (1 - kappa)``, degenerating to 1 for kappa = 0 (vacuous)
    and to epsilon for kappa = 1. Raises if the collection violates the
    spanning-set constraints, i.e. epsilon is too large for these masses.
    """
    if epsilon <= 0.0:
        raise ValueError("epsilon must be positive")
    q = np.asarray(q_weights, float)
    nu = np.asarray(nu_weights, float)
    if np.any(q < 0) or np.any(q > 1) or np.any(nu < 0) or np.any(nu > 1):
        raise ValueError("cell masses must lie in [0, 1]")
    kappa = q[:, :, None] * nu[None, None, :]
    r = (1.0 + epsilon) * (1.0 - kappa)
    r = np.where(kappa == 0.0, 1.0, r)
    r = np.where(kappa == 1.0, epsilon, r)
    if np.any(r > 1.0):
        j, k, l = np.unravel_index(int(np.argmax(r)), r.shape)
        raise ThresholdConstraintError(
            f"epsilon={epsilon} too large: threshold {r[j, k, l]:.6f} > 1 at cell "
            f"({j}, {k}, {l}) with mass {kappa[j, k, l]:.6f}"
        )
    slack = float(np.sum(1.0 - r))
    if slack < 0.0 or slack > 1.0:
        raise ThresholdConstraintError(
            f"epsilon={epsilon} too large: sum of (1 - r) is {slack}, outside [0, 1]"
        )
    return r


# --------------------------------------------------------------------------
# Open-loop occupancy

def _lockstep_states(
    model: SystemModel,
    x0s: np.ndarray,
    w_paths: np.ndarray,
    u_seqs: np.ndarray,
    horizon: int,
) -> np.ndarray:
    """States x_0 .. x_{T-1} of P (start, noise, control) triples stepped together.

    Inputs are ``x0s`` (P, N), ``w_paths`` (P, >= T-1, K) and ``u_seqs``
    (P, >= T-1, N'); the result has shape (P, T, N). A row whose state turns
    non-finite is inf from that step on, so it lies outside every cell, and it
    is not evaluated again.
    """
    states = np.full((len(x0s), horizon, model.n), np.inf)
    states[:, 0] = x0s
    live = np.arange(len(x0s))
    with np.errstate(all="ignore"):
        for t in range(horizon - 1):
            nxt = model.step_many(states[live, t], w_paths[live, t], u_seqs[live, t])
            ok = np.all(np.isfinite(nxt), axis=1)
            live = live[ok]
            states[live, t + 1] = nxt[ok]
    return states


def _satisfied(
    states: np.ndarray, f_idx: np.ndarray, instance: SpanningInstance
) -> np.ndarray:
    """Per-row frequency satisfaction for states (P, T, N) and noise cells (P, T).

    Every row's joint (d, e, f) occupancy comes from one ``bincount`` over
    ``row * n_cells + cell``.
    """
    pairs, horizon, n = states.shape
    m = instance.m_split
    rows = pairs * horizon  # explicit: a zero-width split cannot infer -1
    d_idx = instance.d_family.locate(states[:, :, :m].reshape(rows, m))
    e_idx = instance.e_family.locate(states[:, :, m:].reshape(rows, n - m))
    f_idx = f_idx.reshape(-1)
    n_e, n_f = instance.e_family.count, instance.f_family.count
    n_cells = instance.d_family.count * n_e * n_f
    valid = (d_idx >= 0) & (e_idx >= 0) & (f_idx >= 0)
    key = np.repeat(np.arange(pairs) * n_cells, horizon) + (d_idx * n_e + e_idx) * n_f + f_idx
    counts = np.bincount(key[valid], minlength=pairs * n_cells).reshape(pairs, n_cells)
    limit = (1.0 - instance.thresholds - 1e-12).reshape(-1)
    return np.all(counts / horizon >= limit, axis=1)


def open_loop_states(
    model: SystemModel, x0: np.ndarray, w_path: np.ndarray, u_seq: np.ndarray, horizon: int
) -> np.ndarray:
    """States x_0 .. x_{T-1} under a fixed control sequence.

    Numeric blow-ups are mapped to inf states, which lie outside every cell.
    """
    return _lockstep_states(
        model,
        np.asarray(x0, float)[None],
        np.asarray(w_path, float)[None],
        np.asarray(u_seq, float)[None],
        horizon,
    )[0]


def satisfies_frequencies(
    model: SystemModel,
    u_seq: np.ndarray,
    scenario: tuple[np.ndarray, np.ndarray],
    instance: SpanningInstance,
) -> bool:
    """Does this control sequence keep every joint occupancy frequency above
    1 - r for the given scenario?"""
    x0, w_path = scenario
    T = instance.horizon
    states = open_loop_states(model, x0, w_path, np.asarray(u_seq, float), T)
    f_idx = instance.f_family.locate(w_path[:T])
    return bool(_satisfied(states[None], f_idx[None], instance)[0])


def satisfaction_matrix(
    model: SystemModel,
    candidates: CandidateControls,
    instance: SpanningInstance,
    scenarios: ScenarioSet,
) -> np.ndarray:
    """Boolean (candidate, scenario) matrix of frequency satisfaction.

    Blocks of candidates are paired with every scenario and stepped in
    lockstep, candidate-major: at most ``PAIR_BLOCK`` pairs at a time, or one
    candidate's pairs when there are more scenarios than that.
    """
    n_cand, n_scen = candidates.count, scenarios.count
    out = np.zeros((n_cand, n_scen), dtype=bool)
    T = instance.horizon
    f_idx = instance.f_family.locate(
        scenarios.ws[:, :T].reshape(n_scen * T, scenarios.ws.shape[2])
    ).reshape(n_scen, T)
    block = max(1, PAIR_BLOCK // max(1, n_scen))
    for lo in range(0, n_cand, block):
        seqs = candidates.sequences[lo: lo + block]
        k = len(seqs)
        states = _lockstep_states(
            model,
            np.tile(scenarios.x0s, (k, 1)),
            np.tile(scenarios.ws, (k, 1, 1)),
            np.repeat(seqs, n_scen, axis=0),
            T,
        )
        out[lo: lo + k] = _satisfied(states, np.tile(f_idx, (k, 1)), instance).reshape(k, n_scen)
    return out


def is_spanning(
    model: SystemModel,
    candidates: CandidateControls,
    instance: SpanningInstance,
    scenarios: ScenarioSet,
) -> tuple[bool, float]:
    """A scenario is covered when some candidate satisfies its frequencies;
    spanning means the covered fraction reaches 1 - rho."""
    if candidates.count == 0:
        return (False, 0.0)
    matrix = satisfaction_matrix(model, candidates, instance, scenarios)
    covered = float(np.mean(np.any(matrix, axis=0)))
    return (covered >= 1.0 - instance.rho - 1e-12, covered)


# --------------------------------------------------------------------------
# Minimal-cover estimation

def _needed_count(n_scenarios: int, rho: float) -> int:
    return max(1, math.ceil(n_scenarios * (1.0 - rho) - 1e-9))


def min_cover_cardinality(
    matrix: np.ndarray, needed: int, mode: str = "greedy"
) -> Union[int, float]:
    """Smallest number of rows whose union covers >= ``needed`` columns.

    ``exact`` enumerates subsets by cardinality (rows capped at 20); ``greedy``
    is the standard set-cover heuristic and upper-bounds the exact value.
    Returns ``math.inf`` when even all rows together fall short.
    """
    matrix = np.asarray(matrix, dtype=bool)
    n_rows = len(matrix)
    if needed <= 0:
        return 0
    masks = [int.from_bytes(np.packbits(row).tobytes(), "big") for row in matrix]
    union = 0
    for m in masks:
        union |= m
    if union.bit_count() < needed:
        return math.inf
    if mode == "exact":
        if n_rows > EXACT_MODE_LIMIT:
            raise ValueError(f"exact mode is limited to {EXACT_MODE_LIMIT} candidates")
        for k in range(1, n_rows + 1):
            for combo in itertools.combinations(range(n_rows), k):
                acc = 0
                for i in combo:
                    acc |= masks[i]
                if acc.bit_count() >= needed:
                    return k
        return math.inf  # unreachable given the union check
    if mode != "greedy":
        raise ValueError(f"unknown mode {mode!r}")
    covered = 0
    chosen = 0
    while covered.bit_count() < needed:
        gains = [(masks[i] | covered).bit_count() for i in range(n_rows)]
        best = int(np.argmax(gains))  # ties resolve to the lowest index
        if gains[best] == covered.bit_count():
            return math.inf  # unreachable given the union check
        covered |= masks[best]
        chosen += 1
    return chosen


def min_spanning_estimate(
    model: SystemModel,
    candidates: CandidateControls,
    instance: SpanningInstance,
    scenarios: ScenarioSet,
    mode: str = "greedy",
) -> Union[int, float]:
    """Empirical minimal spanning cardinality over the sampled scenarios.

    ``math.inf`` signals infeasibility: even the full candidate set does not
    span at this candidate scale.
    """
    matrix = satisfaction_matrix(model, candidates, instance, scenarios)
    needed = _needed_count(scenarios.count, instance.rho)
    return min_cover_cardinality(matrix, needed, mode=mode)


# --------------------------------------------------------------------------
# Entropy-rate pipeline

@dataclass(frozen=True)
class EntropyPoint:
    horizon: int
    s_estimate: Union[int, float]  # math.inf when infeasible
    rate: float
    capacity: float
    n_candidates: int
    covered_fraction: float

    @property
    def feasible(self) -> bool:
        return self.s_estimate != math.inf


def _joint_state_weights(
    trajs: Sequence[Trajectory], template: SpanningTemplate, burn_in: int
) -> np.ndarray:
    states = [traj.x[burn_in: traj.steps] for traj in trajs]
    total = sum(len(s) for s in states)
    if total == 0:
        raise ValueError("no post-burn-in states to estimate cell masses from")
    states = np.concatenate(states)
    m = template.m_split
    d_idx = template.d_family.locate(states[:, :m])
    e_idx = template.e_family.locate(states[:, m:])
    valid = (d_idx >= 0) & (e_idx >= 0)
    n_d, n_e = template.d_family.count, template.e_family.count
    counts = np.bincount(d_idx[valid] * n_e + e_idx[valid], minlength=n_d * n_e)
    return counts.reshape(n_d, n_e) / total


def _noise_weights(scenarios: ScenarioSet, template: SpanningTemplate) -> np.ndarray:
    flat = scenarios.ws.reshape(-1, scenarios.ws.shape[2])
    idx = template.f_family.locate(flat)
    counts = np.bincount(idx[idx >= 0], minlength=template.f_family.count).astype(float)
    return counts / len(flat)


def entropy_rate(
    model: SystemModel,
    policy: CodingPolicy,
    noise: NoiseSpec,
    init: InitSpec,
    template: SpanningTemplate,
    horizons: Sequence[int],
    n_scenarios: int,
    seed: int,
    burn_in_fraction: float = 0.1,
    thresholds: str = "lemma",
    matrix_sink: Optional[dict] = None,
) -> list[EntropyPoint]:
    """Estimate (1/T) log2 s over a list of horizons.

    Per horizon: sample scenarios, run the closed loop to harvest candidate
    sequences and empirical cell masses, build the epsilon thresholds
    (``thresholds='vacuous'`` forces r = 1 everywhere), and size a greedy
    spanning set. The candidate count and hence the rate are structurally
    capped by the channel: at most M^T distinct sequences exist. When
    ``matrix_sink`` is a dict it receives the satisfaction matrix per horizon
    for audit dumps.
    """
    points = []
    for horizon in horizons:
        scen = ScenarioSet.sample(init, noise, horizon, n_scenarios, seed=(seed, horizon))
        candidates, trajs = closed_loop_candidates(model, policy, scen)
        if thresholds == "vacuous":
            r = np.ones(
                (template.d_family.count, template.e_family.count, template.f_family.count)
            )
        elif thresholds == "lemma":
            burn = int(burn_in_fraction * horizon)
            q_weights = _joint_state_weights(trajs, template, burn)
            nu_weights = _noise_weights(scen, template)
            r = build_R_epsilon(q_weights, nu_weights, template.epsilon)
        else:
            raise ValueError(f"unknown thresholds mode {thresholds!r}")
        instance = SpanningInstance(
            horizon=horizon,
            m_split=template.m_split,
            d_family=template.d_family,
            e_family=template.e_family,
            f_family=template.f_family,
            rho=template.rho,
            thresholds=r,
        )
        matrix = satisfaction_matrix(model, candidates, instance, scen)
        if matrix_sink is not None:
            matrix_sink[horizon] = matrix
        needed = _needed_count(scen.count, instance.rho)
        s = min_cover_cardinality(matrix, needed, mode="greedy")
        covered = float(np.mean(np.any(matrix, axis=0)))
        rate = math.log2(s) / horizon if s != math.inf else math.inf
        capacity = policy.capacity()
        if s != math.inf:
            assert rate <= capacity + 1e-9, "rate exceeded the structural channel cap"
        points.append(
            EntropyPoint(
                horizon=horizon,
                s_estimate=s,
                rate=rate,
                capacity=capacity,
                n_candidates=candidates.count,
                covered_fraction=covered,
            )
        )
    return points


def entropy_curve_to_csv(points: Sequence[EntropyPoint], path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["T", "s_estimate", "rate", "capacity"])
        for pt in points:
            s = str(int(pt.s_estimate)) if pt.s_estimate != math.inf else "inf"
            writer.writerow(
                [str(pt.horizon), s, format(pt.rate, ".17g"), format(pt.capacity, ".17g")]
            )
