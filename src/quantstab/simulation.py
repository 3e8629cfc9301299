"""Closed-loop trajectory generation with reproducible randomness.

Each path owns its own RNG stream derived from ``(base_seed, path_index)``, so
path collections can be extended without reshuffling existing paths. Rollouts
that leave ``|x| <= 1e12`` are truncated and flagged rather than propagating
NaNs, because under-provisioned policies are run on purpose in the
necessity-bound experiments.
"""

from __future__ import annotations

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
    "run_closed_loops",
    "path_seed",
    "replay_consistent",
    "audit_causality",
    "summarize_divergence",
    "trajectory_to_csv",
]

DIVERGENCE_THRESHOLD = 1e12
CSV_BLOCK_ROWS = 256  # rows formatted per write in trajectory_to_csv

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
    """One exact step of x' = f(x, w) + B u; the one-row case of
    :meth:`SystemModel.step_many`, so a division by zero or an overflow in the
    model gives a non-finite state, as in the lockstep loop."""
    x, w, u = (np.asarray(v, dtype=float) for v in (x, w, u))
    if x.shape != (model.n,) or w.shape != (model.noise_dim,):
        raise ValueError(
            f"expected state dim {model.n} and noise dim {model.noise_dim}, "
            f"got {x.shape} and {w.shape}"
        )
    if u.shape != (model.control_dim,):
        raise ValueError(f"expected control of dimension {model.control_dim}, got {u.shape}")
    with np.errstate(all="ignore"):
        return model.step_many(x[None], w[None], u[None])[0]


def path_seed(base_seed: int, path: int) -> tuple[int, int]:
    """Counter-based per-path seed; extending the path set never reshuffles."""
    return (int(base_seed), int(path))


def run_closed_loops(
    model: SystemModel,
    policy: CodingPolicy,
    x0s: np.ndarray,
    w_paths: np.ndarray,
    seeds: Sequence[Seed],
) -> list[Trajectory]:
    """Drive P loops along pre-drawn noise, all stepped together.

    ``x0s`` is (P, N) and ``w_paths`` (P, T, K). Each step takes one policy
    call for the symbols and controls of every path and one vectorized
    transition. A path whose next state is non-finite (a division by zero or
    an overflow in the model included) ends diverged at that step; one that
    leaves ``|x| <= 1e12`` ends diverged at the next, keeping that state.
    A diverged path is stepped on with the others until every path has
    diverged, but its trajectory ends where it diverged. The trajectories'
    arrays are views of per-batch arrays (``w`` of ``w_paths`` itself).
    """
    w_paths = np.asarray(w_paths, dtype=float)
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
            # one whole-batch reduction per step; a nan state fails it too
            if not np.abs(x).max() <= DIVERGENCE_THRESHOLD:
                ended = ~(np.abs(x).max(axis=1) <= DIVERGENCE_THRESHOLD) & (diverged_at < 0)
                diverged_at[ended] = np.where(np.isfinite(x[ended]).all(axis=1), t + 1, t)
                if (diverged_at >= 0).all():
                    break
    trajs = []
    for k in range(count):
        steps = horizon if diverged_at[k] < 0 else int(diverged_at[k])
        trajs.append(
            Trajectory(
                x=xs[k, : steps + 1],
                w=w_paths[k, :steps],
                q=qs[k, :steps],
                u=us[k, :steps],
                seed=seeds[k],
                horizon=horizon,
                status="ok" if diverged_at[k] < 0 else "diverged",
                diverged_at=None if diverged_at[k] < 0 else steps,
            )
        )
    return trajs


def run_closed_loop(
    model: SystemModel,
    policy: CodingPolicy,
    x0: np.ndarray,
    w_path: np.ndarray,
    seed: Seed = 0,
) -> Trajectory:
    """Drive one loop along pre-drawn noise; the one-path case of run_closed_loops."""
    return run_closed_loops(
        model, policy, np.asarray(x0, float)[None], np.asarray(w_path, float)[None], [seed]
    )[0]


def _rollouts(
    model: SystemModel,
    policy: CodingPolicy,
    noise: NoiseSpec,
    init: InitSpec,
    horizon: int,
    seeds: Sequence[Seed],
) -> list[Trajectory]:
    """Paths fully determined by (config, seed): each seed draws its initial
    state and then its noise path from its own stream."""
    if noise.dim != model.noise_dim:
        raise ValueError(f"noise dim {noise.dim} does not match model noise dim {model.noise_dim}")
    if init.dim != model.n:
        raise ValueError(f"init dim {init.dim} does not match state dim {model.n}")
    x0s = np.empty((len(seeds), model.n))
    w_paths = np.empty((len(seeds), horizon, noise.dim))
    for k, seed in enumerate(seeds):
        rng = np.random.default_rng(np.random.SeedSequence(seed))
        x0s[k] = init.sample(rng, 1)[0]
        w_paths[k] = noise.sample(rng, horizon)
    return run_closed_loops(model, policy, x0s, w_paths, seeds)


def rollout(
    model: SystemModel,
    policy: CodingPolicy,
    noise: NoiseSpec,
    init: InitSpec,
    horizon: int,
    seed: Seed,
) -> Trajectory:
    """Simulate one closed-loop path; fully determined by (config, seed)."""
    return _rollouts(model, policy, noise, init, horizon, [seed])[0]


def batch_rollout(
    model: SystemModel,
    policy: CodingPolicy,
    noise: NoiseSpec,
    init: InitSpec,
    horizon: int,
    n_paths: int,
    base_seed: int,
) -> list[Trajectory]:
    """Independent paths stepped together; path k uses the derived seed (base_seed, k)."""
    if n_paths < 1:
        raise ValueError("need at least one path")
    return _rollouts(
        model, policy, noise, init, horizon, [path_seed(base_seed, k) for k in range(n_paths)]
    )


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
    """Write one row per step as ``t,x1..xN,w1..wK,q,u1..uN'`` (17 sig. digits),
    comma-separated with CRLF line ends, formatted in blocks of rows."""
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
    template = ",".join(["%d"] + ["%.17g"] * (n + k) + ["%d"] + ["%.17g"] * m) + "\r\n"
    steps = traj.steps
    arrays = (traj.x[:steps], traj.w, traj.q[:, None], traj.u)
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        # one block of Python values at a time: whole columns would cost ~32 bytes a value
        for start in range(0, steps, CSV_BLOCK_ROWS):
            columns = [col for a in arrays for col in a[start : start + CSV_BLOCK_ROWS].T.tolist()]
            fh.write("".join([template % row for row in zip(range(start, steps), *columns)]))
