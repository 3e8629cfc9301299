"""Closed-loop trajectory generation with reproducible randomness.

Each path owns its own RNG stream derived from ``(base_seed, path_index)``, so
path collections can be extended without reshuffling existing paths. Rollouts
that leave ``|x| <= 1e12`` are truncated and flagged rather than propagating
NaNs, because under-provisioned policies are run on purpose in the
necessity-bound experiments.

Paths are stepped in time blocks (:func:`closed_loop_blocks`).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from typing import Iterator, NamedTuple, Optional, Sequence, Union

import numpy as np

from . import dynamics
from .dynamics import SystemModel
from .policies import CodingPolicy, cell_widths, per_axis

__all__ = [
    "DIVERGENCE_THRESHOLD",
    "NoiseSpec",
    "InitSpec",
    "CoordInit",
    "Trajectory",
    "LoopBlock",
    "step",
    "rollout",
    "batch_rollout",
    "closed_loop_blocks",
    "run_closed_loop",
    "run_closed_loops",
    "path_seed",
    "PathSeeds",
    "replay_consistent",
    "audit_causality",
    "summarize_divergence",
    "trajectory_to_csv",
    "write_csv",
]

DIVERGENCE_THRESHOLD = 1e12
CSV_BLOCK_ROWS = 256  # rows formatted per write in write_csv

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
        mean, std = per_axis(mean, dim), per_axis(std, dim)
        if np.any(std <= 0):
            raise ValueError("gaussian std must be positive")
        return cls(family="gaussian", dim=dim, mean_=mean, std_=std)

    @classmethod
    def uniform(cls, dim: int, low, high) -> "NoiseSpec":
        low, high = per_axis(low, dim), per_axis(high, dim)
        if np.any(high <= low):
            raise ValueError("uniform bounds must satisfy low < high")
        cell_widths(low, high, 1)  # rng.uniform fails on a width that overflows
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
            if c.kind == "uniform":
                cell_widths(np.array([c.a]), np.array([c.b]), 1)  # as NoiseSpec.uniform
            if c.kind not in ("gaussian", "uniform", "fixed"):
                raise ValueError(f"unknown initial-state family {c.kind!r}")

    @classmethod
    def uniform_box(cls, low, high) -> "InitSpec":
        low = np.atleast_1d(np.asarray(low, float))
        high = per_axis(high, len(low))
        return cls(tuple(CoordInit("uniform", float(a), float(b)) for a, b in zip(low, high)))

    @classmethod
    def gaussian(cls, dim: int, mean=0.0, std=1.0) -> "InitSpec":
        mean, std = per_axis(mean, dim), per_axis(std, dim)
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

    def block(self) -> "LoopBlock":
        """The whole path as a one-path block."""
        return LoopBlock(
            0,
            self.horizon,
            self.x[None],
            self.w[None],
            self.q[None],
            self.u[None],
            np.array([self.steps if self.diverged else -1]),
        )


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


class PathSeeds(Sequence):
    """``path_seed(base_seed, k)`` for k < ``count``, each made when it is read."""

    def __init__(self, base_seed: int, count: int):
        self.base_seed, self.count = base_seed, count

    def __len__(self) -> int:
        return self.count

    def __getitem__(self, k: int) -> tuple[int, int]:
        return path_seed(self.base_seed, range(self.count)[k])


class LoopBlock(NamedTuple):
    """Steps t0 .. t0+n-1 of P lockstep paths, views valid until the loop
    resumes; ``x`` holds x_t0 .. x_{t0+n}."""

    t0: int
    horizon: int  # requested number of steps
    x: np.ndarray  # (P, n+1, N)
    w: np.ndarray  # (P, n, K)
    q: np.ndarray  # (P, n)
    u: np.ndarray  # (P, n, N')
    diverged_at: np.ndarray  # (P,) step each path diverged at so far, -1 if none

    @property
    def steps(self) -> np.ndarray:
        """Per path, how many of the block's steps it took before it ended."""
        end = self.t0 + self.q.shape[1]
        ends = np.where(self.diverged_at < 0, end, np.minimum(self.diverged_at, end))
        return np.maximum(ends - self.t0, 0)  # np.clip holds on to memory across calls


def _block_steps(paths: int, horizon: int) -> int:
    """``dynamics.JACOBIAN_BLOCK`` rows over the paths, in [1, horizon]."""
    return max(1, min(dynamics.JACOBIAN_BLOCK // paths, horizon))


def _storage(model: SystemModel, paths: int, steps: int, noise_dim: int = 0):
    """Empty states, noise, symbols and controls; MemoryError if numpy refuses them."""
    try:
        return (
            np.empty((paths, steps + 1, model.n)),
            np.empty((paths, steps, noise_dim)),
            np.empty((paths, steps), dtype=np.int64),
            np.empty((paths, steps, model.control_dim)),
        )
    except (ValueError, MemoryError) as exc:  # ValueError: beyond any address space
        raise MemoryError(f"{paths} paths of {steps} steps cannot be allocated ({exc})") from None


def _lockstep(model, policy, x0s, horizon, draw, xs, ws, qs, us) -> Iterator[LoopBlock]:
    """The stepping loop: per step, one policy call and one vectorized
    transition for all P paths. A path whose next state is non-finite ends
    diverged at that step; one that leaves ``|x| <= 1e12`` at the next,
    keeping that state. Diverged paths are stepped on until all have
    diverged. A block is stepped in ``xs, ws, qs, us`` from their start, or
    at its own steps if they span the horizon; ``draw(w)`` fills its noise.
    """
    count = len(x0s)
    size = _block_steps(count, horizon)
    whole = qs.shape[1] == horizon
    diverged_at = np.full(count, -1)
    x = np.array(x0s, dtype=float)
    state = policy.initial_state(count)
    for t0 in range(0, max(horizon, 1), size):  # one block even at horizon 0: x_0
        n = min(size, horizon - t0)
        at = t0 if whole else 0
        xb, wb, qb, ub = xs[:, at : at + n + 1], ws[:, at : at + n], qs[:, at : at + n], us[:, at : at + n]
        draw(wb)
        xb[:, 0] = x
        with np.errstate(all="ignore"):
            for i in range(n):
                q, u = policy.step(state, x)
                x = model.step_many(x, wb[:, i], u)
                qb[:, i] = q
                ub[:, i] = u
                xb[:, i + 1] = x
                # one whole-batch reduction per step; a nan state fails it too
                if not np.abs(x).max() <= DIVERGENCE_THRESHOLD:
                    ended = ~(np.abs(x).max(axis=1) <= DIVERGENCE_THRESHOLD) & (diverged_at < 0)
                    t = t0 + i
                    diverged_at[ended] = np.where(np.isfinite(x[ended]).all(axis=1), t + 1, t)
                    if (diverged_at >= 0).all():
                        n = i + 1
                        break
        # yielded outside the errstate, so the consumer runs with numpy's own
        yield LoopBlock(t0, horizon, xb[:, : n + 1], wb[:, :n], qb[:, :n], ub[:, :n], diverged_at)
        if (diverged_at >= 0).all():
            return


def _seeded_blocks(model, policy, noise, init, horizon, seeds, steps):
    """:func:`closed_loop_blocks` stepped in arrays of ``steps`` steps, and the arrays."""
    if noise.dim != model.noise_dim:
        raise ValueError(f"noise dim {noise.dim} does not match model noise dim {model.noise_dim}")
    if init.dim != model.n:
        raise ValueError(f"init dim {init.dim} does not match state dim {model.n}")
    # the arrays first: a path count they cannot hold fails before any per-path work
    xs, ws, qs, us = _storage(model, len(seeds), steps, noise.dim)
    rngs = [np.random.default_rng(np.random.SeedSequence(seed)) for seed in seeds]
    x0s = np.array([init.sample(rng, 1)[0] for rng in rngs])

    def draw(w: np.ndarray) -> None:
        for row, rng in zip(w, rngs):
            row[:] = noise.sample(rng, len(row))

    return _lockstep(model, policy, x0s, horizon, draw, xs, ws, qs, us), (xs, ws, qs, us)


def closed_loop_blocks(
    model: SystemModel,
    policy: CodingPolicy,
    noise: NoiseSpec,
    init: InitSpec,
    horizon: int,
    seeds: Sequence[Seed],
) -> Iterator[LoopBlock]:
    """One path per seed in blocks of ``max(1, JACOBIAN_BLOCK // P)`` steps
    in one reused buffer. Each seed's stream draws its initial state, then
    its noise block by block: the blocks concatenate to :func:`batch_rollout`.
    """
    return _seeded_blocks(
        model, policy, noise, init, horizon, seeds, _block_steps(len(seeds), horizon)
    )[0]


def _trajectories(blocks, xs, ws, qs, us, seeds, horizon) -> list[Trajectory]:
    """One trajectory per seed, views of the whole-horizon arrays stepped in."""
    for block in blocks:
        pass
    trajs = []
    for k, diverged_at in enumerate(block.diverged_at.tolist()):
        steps = horizon if diverged_at < 0 else diverged_at
        trajs.append(
            Trajectory(
                x=xs[k, : steps + 1],
                w=ws[k, :steps],
                q=qs[k, :steps],
                u=us[k, :steps],
                seed=seeds[k],
                horizon=horizon,
                status="ok" if diverged_at < 0 else "diverged",
                diverged_at=None if diverged_at < 0 else steps,
            )
        )
    return trajs


def run_closed_loops(
    model: SystemModel,
    policy: CodingPolicy,
    x0s: np.ndarray,
    w_paths: np.ndarray,
    seeds: Sequence[Seed],
) -> list[Trajectory]:
    """Drive P loops along pre-drawn noise, all stepped together.

    ``x0s`` is (P, N) and ``w_paths`` (P, T, K), sliced block by block
    through the loop of :func:`closed_loop_blocks`. A diverged path's
    trajectory ends where it diverged. The trajectories' arrays are views of
    per-batch arrays (``w`` of ``w_paths`` itself).
    """
    w_paths = np.asarray(w_paths, dtype=float)
    horizon = w_paths.shape[1]
    xs, _, qs, us = _storage(model, len(x0s), horizon)
    blocks = _lockstep(model, policy, x0s, horizon, lambda w: None, xs, w_paths, qs, us)
    return _trajectories(blocks, xs, w_paths, qs, us, seeds, horizon)


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
    """Paths fully determined by (config, seed): :func:`closed_loop_blocks`
    stepped in whole-horizon arrays."""
    blocks, arrays = _seeded_blocks(model, policy, noise, init, horizon, seeds, horizon)
    return _trajectories(blocks, *arrays, seeds, horizon)


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
    return _rollouts(model, policy, noise, init, horizon, PathSeeds(base_seed, n_paths))


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


def summarize_divergence(diverged_at: Sequence[Optional[int]]) -> dict:
    """Divergence counts of paths given by the step each diverged at, None
    for a path that did not (``Trajectory.diverged_at``)."""
    diverged = sorted(d for d in diverged_at if d is not None)
    return {
        "paths": len(diverged_at),
        "diverged": len(diverged),
        "divergence_rate": len(diverged) / len(diverged_at),
        "first_divergence_steps": diverged,
    }


# --------------------------------------------------------------------------
# Export

def write_csv(path, header: Optional[Sequence[str]], kinds: str, blocks, end: str) -> None:
    """Write the ``header`` line (none if None), then the row tuples of each
    of ``blocks``, ``CSV_BLOCK_ROWS`` at a time, one ``%``-template a row and
    every line ended by ``end``: one unquoted column per letter of ``kinds``,
    ``d`` as ``%d``, ``g`` as ``%.17g`` (bit-exact; ``inf``, ``nan``, ``-0``), ``s`` a label."""
    template = ",".join({"d": "%d", "g": "%.17g", "s": "%s"}[k] for k in kinds) + end
    with open(path, "w", newline="") as fh:
        if header is not None:
            fh.write(",".join(header) + end)
        for rows in map(iter, blocks):
            while lines := [template % row for row in islice(rows, CSV_BLOCK_ROWS)]:
                fh.write("".join(lines))


def trajectory_to_csv(traj: Trajectory, path) -> None:
    """One :func:`write_csv` row per step, ``t,x1..xN,w1..wK,q,u1..uN'``, with
    CRLF line ends."""
    n, k, m = traj.x.shape[1], traj.w.shape[1], traj.u.shape[1]
    header = (
        ["t"]
        + [f"x{i}" for i in range(1, n + 1)]
        + [f"w{j}" for j in range(1, k + 1)]
        + ["q"]
        + [f"u{i}" for i in range(1, m + 1)]
    )
    steps = traj.steps
    arrays = (traj.x[:steps], traj.w, traj.q[:, None], traj.u)

    def block(start: int):  # Python values of one block: whole columns cost ~32 bytes a value
        columns = [col for a in arrays for col in a[start : start + CSV_BLOCK_ROWS].T.tolist()]
        return zip(range(start, steps), *columns)

    blocks = map(block, range(0, steps, CSV_BLOCK_ROWS))
    write_csv(path, header, "d" + "g" * (n + k) + "d" + "g" * m, blocks, "\r\n")
