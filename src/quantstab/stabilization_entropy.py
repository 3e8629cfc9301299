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
``satisfaction_matrix`` decides which (candidate, scenario) pairs satisfy the
frequencies, and ``min_cover_cardinality`` with ``_needed_count`` decides how
few candidates span.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from .dynamics import SystemModel
from .ergodics import Partition, VisitTally, empirical_measure
from .policies import CodingPolicy
# run_closed_loop stays importable from this module: perfbench/tracing.py wraps it here
from .simulation import (  # noqa: F401
    InitSpec,
    LoopBlock,
    NoiseSpec,
    Seed,
    check_storage,
    closed_loop_block,
    run_closed_loop,
    write_csv,
)

__all__ = [
    "ThresholdConstraintError",
    "NoCandidatesError",
    "SpanningTemplate",
    "ScenarioSet",
    "CandidateControls",
    "EntropyPoint",
    "build_R_epsilon",
    "satisfaction_matrix",
    "min_cover_cardinality",
    "closed_loop_candidates",
    "entropy_rate",
    "entropy_curve_to_csv",
]

EXACT_MODE_LIMIT = 20
PAIR_BLOCK = 512  # (candidate, scenario) pairs stepped together; bounds memory


class ThresholdConstraintError(ValueError):
    """The threshold collection violates the spanning-set constraints."""


class NoCandidatesError(ValueError):
    """Every closed-loop run diverged before the horizon."""


# --------------------------------------------------------------------------
# The spanning problem, scenarios, candidates

def _noise_cells(partition: Optional[Partition], ws: np.ndarray) -> np.ndarray:
    """Noise cell of each row of ``ws``; the partition's cell count (1 without
    one) where the row is in no cell.

    Without a partition there is one cell, holding every row below +inf on
    every axis (``nan`` and ``+inf`` rows lie in no cell).
    """
    if partition is None:
        return np.where((ws < np.inf).all(axis=1), 0, 1)
    return partition.cell_indices(ws)


@dataclass(frozen=True)
class SpanningTemplate:
    """A spanning problem without its thresholds: with thresholds over its
    joint cells (``check_thresholds``) it is one problem, at the horizon of
    the scenarios it is judged on.

    The joint cells are the in-box cells of ``state_partition`` times those of
    ``noise_partition`` (``None``: the whole noise space as one cell).
    """

    state_partition: Partition
    noise_partition: Optional[Partition]
    rho: float
    epsilon: float

    def __post_init__(self):
        if not (0.0 < self.rho < 1.0):
            raise ValueError("rho must lie in (0, 1)")
        if self.epsilon <= 0.0:
            raise ValueError("epsilon must be positive")

    @property
    def cells(self) -> tuple[int, int]:
        """Shape of the joint cells: (state cells, noise cells)."""
        noise = 1 if self.noise_partition is None else self.noise_partition.n_boxes
        return self.state_partition.n_boxes, noise

    def check_thresholds(self, thresholds) -> np.ndarray:
        """``thresholds`` as floats r_{j,l}, one per joint cell; raises unless
        each lies in [0, 1] and so does the sum of (1 - r)."""
        r = np.asarray(thresholds, float)
        if r.shape != self.cells:
            raise ValueError(f"thresholds must have shape {self.cells}, got {r.shape}")
        if np.any(r < -1e-12) or np.any(r > 1.0 + 1e-12):
            raise ThresholdConstraintError("every threshold must lie in [0, 1]")
        slack = float(np.sum(1.0 - r))
        if slack < -1e-9 or slack > 1.0 + 1e-9:
            raise ThresholdConstraintError(
                f"sum of (1 - r) over all cells is {slack}, outside [0, 1]"
            )
        return r


@dataclass(frozen=True)
class ScenarioSet:
    """Equally weighted sampled scenarios: initial states and noise paths."""

    x0s: np.ndarray  # (n, N)
    ws: np.ndarray  # (n, T, K)

    def __post_init__(self):
        if self.horizon < 1:
            raise ValueError("horizon must be at least 1")

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


@dataclass(frozen=True)
class CandidateControls:
    """Finite set of open-loop control sequences."""

    sequences: np.ndarray  # (count, T, N')

    @property
    def count(self) -> int:
        return len(self.sequences)


def closed_loop_candidates(
    model: SystemModel, policy: CodingPolicy, scenarios: ScenarioSet
) -> tuple[CandidateControls, LoopBlock]:
    """Run the policy on every scenario, all stepped together as one block;
    the deduplicated control sequences of the runs that reach the horizon,
    and the block.

    A causal policy is a deterministic function of the symbol stream, so the
    deduplicated count can never exceed M^T.
    """
    horizon = scenarios.horizon
    block = closed_loop_block(model, policy, scenarios.x0s, scenarios.ws)
    seen: set[bytes] = set()
    kept = []
    for u in block.u[block.steps == horizon]:  # a run that diverged before T offers none
        key = u.tobytes()
        if key not in seen:
            seen.add(key)
            kept.append(u)
    if not kept:
        raise NoCandidatesError(
            f"every closed-loop run diverged before T={horizon}; no candidate sequences"
        )
    candidates = CandidateControls(sequences=np.array(kept))
    assert candidates.count <= policy.m**horizon
    return candidates, block


# --------------------------------------------------------------------------
# Thresholds

def build_R_epsilon(
    q_weights: np.ndarray, nu_weights: np.ndarray, epsilon: float
) -> np.ndarray:
    """Per-cell frequency thresholds from cell masses with slack epsilon.

    ``q_weights`` holds the mass Q(D_j) of each state cell, ``nu_weights`` the
    mass nu(F_l) of each noise cell; the result has shape (state cells, noise
    cells). For joint mass kappa = Q(D_j) * nu(F_l) the threshold is
    ``(1 + epsilon) * (1 - kappa)``, degenerating to 1 for kappa = 0 (vacuous)
    and to epsilon for kappa = 1. Raises if the collection violates the
    spanning-set constraints, i.e. epsilon is too large for these masses.
    """
    if epsilon <= 0.0:
        raise ValueError("epsilon must be positive")
    q = np.asarray(q_weights, float)
    nu = np.asarray(nu_weights, float)
    if q.ndim != 1 or nu.ndim != 1:
        raise ValueError("cell masses must be one-dimensional arrays")
    if np.any(q < 0) or np.any(q > 1) or np.any(nu < 0) or np.any(nu > 1):
        raise ValueError("cell masses must lie in [0, 1]")
    kappa = q[:, None] * nu[None, :]
    r = (1.0 + epsilon) * (1.0 - kappa)
    r = np.where(kappa == 0.0, 1.0, r)
    r = np.where(kappa == 1.0, epsilon, r)
    if np.any(r > 1.0):
        j, l = np.unravel_index(int(np.argmax(r)), r.shape)
        raise ThresholdConstraintError(
            f"epsilon={epsilon} too large: threshold {r[j, l]:.6f} > 1 at state cell "
            f"{j}, noise cell {l} with mass {kappa[j, l]:.6f}"
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
    states: np.ndarray, f_idx: np.ndarray, template: SpanningTemplate, thresholds: np.ndarray
) -> np.ndarray:
    """Per-row frequency satisfaction for states (P, T, N) and noise cells (P, T).

    Every row's joint (state, noise) occupancy comes from one ``bincount``
    over ``row * n_cells + cell``; the joint cells include each grid's
    "in no cell" index, whose counts are then dropped.
    """
    pairs, horizon, n = states.shape
    n_s, n_f = thresholds.shape
    s_idx = template.state_partition.cell_indices(states.reshape(pairs * horizon, n))
    n_cells = (n_s + 1) * (n_f + 1)
    key = np.repeat(np.arange(pairs) * n_cells, horizon) + s_idx * (n_f + 1) + f_idx.reshape(-1)
    counts = np.bincount(key, minlength=pairs * n_cells).reshape(pairs, n_s + 1, n_f + 1)
    limit = 1.0 - thresholds - 1e-12
    return np.all(counts[:, :n_s, :n_f] / horizon >= limit, axis=(1, 2))


def satisfaction_matrix(
    model: SystemModel,
    candidates: CandidateControls,
    template: SpanningTemplate,
    thresholds: np.ndarray,
    scenarios: ScenarioSet,
) -> np.ndarray:
    """Boolean (candidate, scenario) matrix of frequency satisfaction at the
    scenarios' horizon, for ``thresholds`` over the template's joint cells.

    The pairs are taken candidate-major and stepped in lockstep, exactly
    ``PAIR_BLOCK`` at a time (the last block fewer), so memory does not grow
    with the number of scenarios.
    """
    r = template.check_thresholds(thresholds)
    n_scen, T = scenarios.count, scenarios.horizon
    flat_ws = scenarios.ws.reshape(n_scen * T, scenarios.ws.shape[2])
    f_idx = _noise_cells(template.noise_partition, flat_ws).reshape(n_scen, T)
    out = np.empty(candidates.count * n_scen, dtype=bool)
    for lo in range(0, len(out), PAIR_BLOCK):
        cand, scen = np.divmod(np.arange(lo, min(lo + PAIR_BLOCK, len(out))), n_scen)
        states = _lockstep_states(
            model, scenarios.x0s[scen], scenarios.ws[scen], candidates.sequences[cand], T
        )
        out[lo: lo + len(scen)] = _satisfied(states, f_idx[scen], template, r)
    return out.reshape(candidates.count, n_scen)


# --------------------------------------------------------------------------
# Minimal-cover estimation

def _needed_count(n_scenarios: int, rho: float) -> int:
    """Scenarios a spanning set must cover: ceil(N (1 - rho)) less a 1e-9
    rounding slack, and at least 1."""
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
    # all rows cover: exact finds some k <= n_rows, and every greedy pick gains
    if mode == "exact":
        if n_rows > EXACT_MODE_LIMIT:
            raise ValueError(f"exact mode is limited to {EXACT_MODE_LIMIT} candidates")
        return next(
            k
            for k in range(1, n_rows + 1)
            for combo in itertools.combinations(masks, k)
            if functools.reduce(operator.or_, combo).bit_count() >= needed
        )
    if mode != "greedy":
        raise ValueError(f"unknown mode {mode!r}")
    covered = 0
    chosen = 0
    while covered.bit_count() < needed:
        gains = [(masks[i] | covered).bit_count() for i in range(n_rows)]
        best = int(np.argmax(gains))  # ties resolve to the lowest index
        covered |= masks[best]
        chosen += 1
    return chosen


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


def _noise_weights(scenarios: ScenarioSet, template: SpanningTemplate) -> np.ndarray:
    flat = scenarios.ws.reshape(scenarios.count * scenarios.horizon, scenarios.ws.shape[2])
    n_f = template.cells[1]
    counts = np.bincount(_noise_cells(template.noise_partition, flat), minlength=n_f + 1)
    return counts[:n_f] / len(flat)


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
    matrix_sink: Optional[dict] = None,
) -> list[EntropyPoint]:
    """Estimate (1/T) log2 s over a list of horizons.

    Per horizon: sample scenarios, run the closed loop to harvest candidate
    sequences and empirical cell masses, build the epsilon thresholds from
    those masses (:func:`build_R_epsilon`), and size a greedy spanning set.
    The candidate count and hence the rate are structurally capped by the
    channel: at most M^T distinct sequences exist. When ``matrix_sink`` is a
    dict it receives the satisfaction matrix per horizon for audit dumps.
    Scenario arrays that cannot be allocated at the largest horizon raise
    MemoryError before any horizon runs.
    """
    # the largest horizon's arrays first: a count they cannot hold fails before any horizon runs
    check_storage(model, noise, max(horizons), n_scenarios, whole=True)
    points = []
    for horizon in horizons:
        scen = ScenarioSet.sample(init, noise, horizon, n_scenarios, seed=(seed, horizon))
        candidates, block = closed_loop_candidates(model, policy, scen)
        # the in-box masses of the closed loop's empirical measure
        tally = VisitTally(template.state_partition, int(burn_in_fraction * horizon))
        tally.add(block)
        q_weights = empirical_measure(tally).weights[:-1]
        nu_weights = _noise_weights(scen, template)
        r = build_R_epsilon(q_weights, nu_weights, template.epsilon)
        matrix = satisfaction_matrix(model, candidates, template, r, scen)
        if matrix_sink is not None:
            matrix_sink[horizon] = matrix
        needed = _needed_count(scen.count, template.rho)
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
    """One :func:`~quantstab.simulation.write_csv` row per point,
    ``T,s_estimate,rate,capacity``, with CRLF line ends."""
    rows = [(p.horizon, str(int(p.s_estimate)) if p.feasible else "inf", p.rate, p.capacity)
            for p in points]
    write_csv(path, ["T", "s_estimate", "rate", "capacity"], "dsgg", [rows], "\r\n")
