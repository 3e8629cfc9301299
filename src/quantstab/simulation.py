"""Closed-loop trajectory generation with reproducible randomness.

Each path owns its own RNG stream derived from ``(base_seed, path_index)``, so
path collections can be extended without reshuffling existing paths. Rollouts
that leave ``|x| <= 1e12`` are truncated and flagged rather than propagating
NaNs, because under-provisioned policies are run on purpose in the
necessity-bound experiments.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from .dynamics import SystemModel
from .policies import CodingPolicy

__all__ = [
    "DIVERGENCE_THRESHOLD",
    "NoiseSpec",
    "InitSpec",
    "CoordInit",
    "Trajectory",
    "step",
    "rollout",
    "batch_rollout",
    "run_closed_loop",
    "path_seed",
    "replay_consistent",
    "audit_causality",
    "summarize_divergence",
    "trajectory_to_csv",
]

DIVERGENCE_THRESHOLD = 1e12

Seed = Union[int, Sequence[int]]


# --------------------------------------------------------------------------
# Randomness specifications

@dataclass(frozen=True)
class NoiseSpec:
    """i.i.d. noise law: gaussian, uniform, or a finite list of atoms."""

    family: str
    dim: int
    mean_: Optional[np.ndarray] = None
    std_: Optional[np.ndarray] = None
    low: Optional[np.ndarray] = None
    high: Optional[np.ndarray] = None
    values: Optional[np.ndarray] = None
    probs: Optional[np.ndarray] = None

    @classmethod
    def gaussian(cls, dim: int, mean=0.0, std=1.0) -> "NoiseSpec":
        mean = np.broadcast_to(np.asarray(mean, float), (dim,)).copy()
        std = np.broadcast_to(np.asarray(std, float), (dim,)).copy()
        if np.any(std <= 0):
            raise ValueError("gaussian std must be positive")
        return cls(family="gaussian", dim=dim, mean_=mean, std_=std)

    @classmethod
    def uniform(cls, dim: int, low, high) -> "NoiseSpec":
        low = np.broadcast_to(np.asarray(low, float), (dim,)).copy()
        high = np.broadcast_to(np.asarray(high, float), (dim,)).copy()
        if np.any(high <= low):
            raise ValueError("uniform bounds must satisfy low < high")
        return cls(family="uniform", dim=dim, low=low, high=high)

    @classmethod
    def atoms(cls, values, probs) -> "NoiseSpec":
        values = np.atleast_2d(np.asarray(values, float))
        probs = np.asarray(probs, float)
        if len(values) != len(probs):
            raise ValueError("one probability per atom required")
        if np.any(probs < 0) or abs(probs.sum() - 1.0) > 1e-12:
            raise ValueError("atom probabilities must be nonnegative and sum to 1")
        return cls(family="atoms", dim=values.shape[1], values=values, probs=probs)

    @classmethod
    def zero(cls, dim: int) -> "NoiseSpec":
        """Deterministic zero noise (a single atom)."""
        return cls.atoms(np.zeros((1, dim)), [1.0])

    @property
    def mean(self) -> np.ndarray:
        """Mean of the law; policies use it as the nominal noise value."""
        if self.family == "gaussian":
            return self.mean_.copy()
        if self.family == "uniform":
            return (self.low + self.high) / 2.0
        return self.probs @ self.values

    def sample(self, rng: np.random.Generator, count: int) -> np.ndarray:
        if self.family == "gaussian":
            return self.mean_ + self.std_ * rng.standard_normal((count, self.dim))
        if self.family == "uniform":
            return rng.uniform(self.low, self.high, (count, self.dim))
        idx = rng.choice(len(self.values), size=count, p=self.probs)
        return self.values[idx]


@dataclass(frozen=True)
class CoordInit:
    kind: str  # gaussian | uniform | fixed
    a: float
    b: float = 0.0


@dataclass(frozen=True)
class InitSpec:
    """Per-coordinate initial-state law; gaussian/uniform coordinates keep a
    bounded density, designated coordinates may be pinned to fixed values."""

    coords: tuple[CoordInit, ...]

    def __post_init__(self):
        for c in self.coords:
            if c.kind == "gaussian" and c.b <= 0:
                raise ValueError("gaussian std must be positive")
            if c.kind == "uniform" and c.b <= c.a:
                raise ValueError("uniform bounds must satisfy low < high")
            if c.kind not in ("gaussian", "uniform", "fixed"):
                raise ValueError(f"unknown initial-state family {c.kind!r}")

    @classmethod
    def uniform_box(cls, low, high) -> "InitSpec":
        low = np.atleast_1d(np.asarray(low, float))
        high = np.broadcast_to(np.asarray(high, float), low.shape)
        return cls(tuple(CoordInit("uniform", float(a), float(b)) for a, b in zip(low, high)))

    @classmethod
    def gaussian(cls, dim: int, mean=0.0, std=1.0) -> "InitSpec":
        mean = np.broadcast_to(np.asarray(mean, float), (dim,))
        std = np.broadcast_to(np.asarray(std, float), (dim,))
        return cls(tuple(CoordInit("gaussian", float(m), float(s)) for m, s in zip(mean, std)))

    @classmethod
    def fixed(cls, values) -> "InitSpec":
        values = np.atleast_1d(np.asarray(values, float))
        return cls(tuple(CoordInit("fixed", float(v)) for v in values))

    @property
    def dim(self) -> int:
        return len(self.coords)

    def sample(self, rng: np.random.Generator, count: int) -> np.ndarray:
        out = np.empty((count, self.dim))
        for i, c in enumerate(self.coords):
            if c.kind == "gaussian":
                out[:, i] = c.a + c.b * rng.standard_normal(count)
            elif c.kind == "uniform":
                out[:, i] = rng.uniform(c.a, c.b, count)
            else:
                out[:, i] = c.a
        return out


# --------------------------------------------------------------------------
# Trajectories

@dataclass
class Trajectory:
    """Time-indexed closed-loop record: states x_0..x_S, and per-step noise,
    channel symbol and control for t in [0, S-1]."""

    x: np.ndarray  # (S+1, N)
    w: np.ndarray  # (S, K)
    q: np.ndarray  # (S,) symbols in 1..M
    u: np.ndarray  # (S, N')
    seed: Seed
    horizon: int  # requested number of steps
    status: str = "ok"  # 'ok' | 'diverged'
    diverged_at: Optional[int] = None

    @property
    def steps(self) -> int:
        return len(self.q)

    @property
    def diverged(self) -> bool:
        return self.status == "diverged"


def step(model: SystemModel, x, w, u) -> np.ndarray:
    """One exact step of x' = f(x, w) + B u."""
    u = np.asarray(u, dtype=float)
    if u.shape != (model.control_dim,):
        raise ValueError(f"expected control of dimension {model.control_dim}, got {u.shape}")
    return model.f(x, w) + model.b @ u


def path_seed(base_seed: int, path: int) -> tuple[int, int]:
    """Counter-based per-path seed; extending the path set never reshuffles."""
    return (int(base_seed), int(path))


def run_closed_loop(
    model: SystemModel,
    policy: CodingPolicy,
    x0: np.ndarray,
    w_path: np.ndarray,
    seed: Seed = 0,
) -> Trajectory:
    """Drive the loop along pre-drawn noise; core of rollout and scenario replay."""
    horizon = w_path.shape[0]
    n = model.n
    bmat = model.b
    xs = np.empty((horizon + 1, n))
    xs[0] = x0
    qs = np.empty(horizon, dtype=np.int64)
    us = np.empty((horizon, model.control_dim))
    encoder = policy.encoder()
    controller = policy.controller()

    status = "ok"
    diverged_at: Optional[int] = None
    steps = horizon
    x = xs[0]
    for t in range(horizon):
        q = encoder.encode(t, x)
        u = controller.control(t, q)
        try:
            nxt = np.asarray(model.f_raw(*x.tolist(), *w_path[t].tolist()), dtype=float)
        except (ZeroDivisionError, OverflowError):
            status, diverged_at, steps = "diverged", t, t
            break
        nxt = nxt + bmat @ u
        if not np.all(np.isfinite(nxt)):
            status, diverged_at, steps = "diverged", t, t
            break
        qs[t] = q
        us[t] = u
        xs[t + 1] = nxt
        x = xs[t + 1]
        if np.max(np.abs(nxt)) > DIVERGENCE_THRESHOLD:
            status, diverged_at, steps = "diverged", t + 1, t + 1
            break

    return Trajectory(
        x=xs[: steps + 1].copy(),
        w=w_path[:steps].copy(),
        q=qs[:steps].copy(),
        u=us[:steps].copy(),
        seed=seed,
        horizon=horizon,
        status=status,
        diverged_at=diverged_at,
    )


def rollout(
    model: SystemModel,
    policy: CodingPolicy,
    noise: NoiseSpec,
    init: InitSpec,
    horizon: int,
    seed: Seed,
) -> Trajectory:
    """Simulate one closed-loop path; fully determined by (config, seed)."""
    if noise.dim != model.noise_dim:
        raise ValueError(f"noise dim {noise.dim} does not match model noise dim {model.noise_dim}")
    if init.dim != model.n:
        raise ValueError(f"init dim {init.dim} does not match state dim {model.n}")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    x0 = init.sample(rng, 1)[0]
    w_path = noise.sample(rng, horizon)
    return run_closed_loop(model, policy, x0, w_path, seed=seed)


def batch_rollout(
    model: SystemModel,
    policy: CodingPolicy,
    noise: NoiseSpec,
    init: InitSpec,
    horizon: int,
    n_paths: int,
    base_seed: int,
) -> list[Trajectory]:
    """Independent paths; path k uses the derived seed (base_seed, k)."""
    if n_paths < 1:
        raise ValueError("need at least one path")
    return [
        rollout(model, policy, noise, init, horizon, seed=path_seed(base_seed, k))
        for k in range(n_paths)
    ]


# --------------------------------------------------------------------------
# Audits

def replay_consistent(model: SystemModel, traj: Trajectory) -> bool:
    """Recompute every stored transition; must reproduce states bit-exactly."""
    bmat = model.b
    for t in range(traj.steps):
        nxt = np.asarray(model.f_raw(*traj.x[t].tolist(), *traj.w[t].tolist()), dtype=float)
        nxt = nxt + bmat @ traj.u[t]
        if not np.array_equal(nxt, traj.x[t + 1]):
            return False
    return True


def audit_causality(policy: CodingPolicy, traj: Trajectory) -> bool:
    """Fresh encoder fed x_0..x_t must emit the stored q_t; fresh controller fed
    the stored symbols must emit the stored u_t."""
    encoder = policy.encoder()
    controller = policy.controller()
    for t in range(traj.steps):
        if encoder.encode(t, traj.x[t]) != traj.q[t]:
            return False
        if not np.array_equal(controller.control(t, int(traj.q[t])), traj.u[t]):
            return False
    return True


def summarize_divergence(trajectories: Sequence[Trajectory]) -> dict:
    diverged = [t.diverged_at for t in trajectories if t.diverged]
    return {
        "paths": len(trajectories),
        "diverged": len(diverged),
        "divergence_rate": len(diverged) / len(trajectories),
        "first_divergence_steps": sorted(d for d in diverged if d is not None),
    }


# --------------------------------------------------------------------------
# Export

def trajectory_to_csv(traj: Trajectory, path) -> None:
    """Write one row per step as ``t,x1..xN,w1..wK,q,u1..uN'`` (17 sig. digits)."""
    n = traj.x.shape[1]
    k = traj.w.shape[1]
    m = traj.u.shape[1]
    header = (
        ["t"]
        + [f"x{i}" for i in range(1, n + 1)]
        + [f"w{j}" for j in range(1, k + 1)]
        + ["q"]
        + [f"u{i}" for i in range(1, m + 1)]
    )
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for t in range(traj.steps):
            row = (
                [str(t)]
                + [format(v, ".17g") for v in traj.x[t]]
                + [format(v, ".17g") for v in traj.w[t]]
                + [str(int(traj.q[t]))]
                + [format(v, ".17g") for v in traj.u[t]]
            )
            writer.writerow(row)
