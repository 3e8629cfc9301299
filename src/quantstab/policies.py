"""Causal coding/control policies over a finite channel alphabet.

A policy writes its symbol rule and its state update once, over rows of
loops stepped together; ``encoder()`` and ``controller()`` return fresh
single-trajectory state machines that are the one-row case. The encoder sees
states x_0..x_t (one call per step, in order); the controller sees only the
symbols q_0..q_t. One symbol of the alphabet is always reserved for
quantizer overflow, so a policy with ``c`` cells needs alphabet size at least
``c + 1``.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from .dynamics import SystemModel

__all__ = [
    "CodingPolicy",
    "NullPolicy",
    "UniformQuantizerPolicy",
    "ZoomPolicy",
    "null_policy",
    "uniform_quantizer_policy",
    "zoom_policy",
]


class CodingPolicy:
    """Base: channel alphabet {1..m} and the coding rule over rows of loops.

    ``initial_state(count)`` is the quantizer state of ``count`` independent
    loops (None for a memoryless policy). ``symbols(state, xs)`` is the
    encoder's symbol for each state row, and ``advance(state, qs)`` moves
    every row's state on by its symbol and returns the controls, shape
    (rows, control_dim). Encoder and controller evolve replicas of the same
    state driven purely by the symbol stream, so a simulation stepping many
    loops together keeps one copy per row; the ``encoder()`` and
    ``controller()`` sessions are the one-row case.
    """

    m: int

    def capacity(self) -> float:
        """Channel capacity in bits, log2 of the alphabet size."""
        return math.log2(self.m)

    def initial_state(self, count: int):
        return None

    def keep_rows(self, state, keep: np.ndarray):
        """The state of the rows where ``keep`` is True."""
        return state

    def symbols(self, state, xs: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def advance(self, state, qs: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def step(self, state, xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Symbols and controls of every row for one time step."""
        qs = self.symbols(state, xs)
        return qs, self.advance(state, qs)

    def encoder(self) -> "_Encoder":
        return _Encoder(self)

    def controller(self) -> "_Controller":
        return _Controller(self)


class _Encoder:
    """One loop's encoder: sees x_0..x_t, one call per step, in order."""

    def __init__(self, policy: CodingPolicy):
        self._policy = policy
        self.state = policy.initial_state(1)

    def encode(self, t: int, x) -> int:
        with np.errstate(all="ignore"):  # a blow-up shows in the states, not as a warning
            qs, _ = self._policy.step(self.state, np.asarray(x, float).reshape(1, -1))
        return int(qs[0])


class _Controller:
    """One loop's controller: sees only the symbols q_0..q_t."""

    def __init__(self, policy: CodingPolicy):
        self._policy = policy
        self.state = policy.initial_state(1)

    def control(self, t: int, q: int) -> np.ndarray:
        with np.errstate(all="ignore"):
            return self._policy.advance(self.state, np.array([q]))[0]


def cell_numbers(scaled: np.ndarray, cells) -> np.ndarray:
    """Row-major number of the grid cell of each row of ``scaled``.

    ``scaled`` holds in-range rows only, in cell widths from the grid's low
    corner (``(x - low) / width``); a coordinate that rounds onto the top edge
    of its axis is clipped into the top cell. Every uniform grid numbers its
    cells here.
    """
    # scaled >= 0, so clipping only moves a top-edge index down into the top cell
    return np.ravel_multi_index(tuple(scaled.astype(np.int64).T), cells, mode="clip")


def cell_coords(numbers, cells) -> np.ndarray:
    """Per-axis cell indices of row-major cell numbers: shape (N,) for one
    number, (rows, N) for an array of them."""
    return np.array(np.unravel_index(numbers, cells)).T


def _cancelling(policy, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per row, the nominal image ``f(point, noise_mean)`` and the control
    ``u = B^+ (target - image)`` that cancels it. The products are stacked
    matrix-vector ones, which round as ``B^+ @ v`` on one row does."""
    images = policy.model.f_many(points, policy.noise_mean[None])
    return images, (policy.model.b_pinv @ (policy.target - images)[:, :, None])[:, :, 0]


# --------------------------------------------------------------------------
# Null policy

class NullPolicy(CodingPolicy):
    """Transmits symbol 1 and applies zero control; the open-loop baseline."""

    def __init__(self, m: int, control_dim: int = 1):
        if m < 1:
            raise ValueError("alphabet size must be at least 1")
        self.m = m
        self.control_dim = control_dim

    def symbols(self, state, xs):
        return np.ones(len(xs), dtype=np.int64)

    def advance(self, state, qs):
        return np.zeros((len(qs), self.control_dim))


def null_policy(m: int, control_dim: int = 1) -> NullPolicy:
    return NullPolicy(m, control_dim)


# --------------------------------------------------------------------------
# Memoryless uniform quantizer

class UniformQuantizerPolicy(CodingPolicy):
    """Fixed uniform grid over a box; symbols name cells, controls cancel the
    nominal one-step image of the cell centroid.

    Control rule for an in-box symbol: ``u = B^+ (target - f(centroid, w_mean))``
    with the Moore-Penrose pseudo-inverse of B. Overflow transmits the reserved
    symbol and applies zero control. Controls are kept in a table with one row
    per cell plus a zero overflow row, filled on first use of each symbol.
    """

    def __init__(
        self,
        model: SystemModel,
        box_low,
        box_high,
        bits_per_axis,
        target=None,
        noise_mean=None,
        m: Optional[int] = None,
    ):
        self.model = model
        self.low = np.broadcast_to(np.asarray(box_low, float), (model.n,)).copy()
        self.high = np.broadcast_to(np.asarray(box_high, float), (model.n,)).copy()
        if np.any(self.high <= self.low):
            raise ValueError("quantizer box is degenerate")
        bits = np.broadcast_to(np.asarray(bits_per_axis, int), (model.n,))
        if np.any(bits < 0):
            raise ValueError("bits per axis must be nonnegative integers")
        self.cells_per_axis = tuple(int(2**b) for b in bits)
        self.n_cells = int(np.prod(self.cells_per_axis))
        if m is None:
            m = self.n_cells + 1
        if m < self.n_cells + 1:
            raise ValueError(
                f"alphabet of size {m} cannot address {self.n_cells} cells plus overflow"
            )
        self.m = int(m)
        self.width = (self.high - self.low) / np.asarray(self.cells_per_axis, float)
        self.target = (
            np.zeros(model.n) if target is None else np.broadcast_to(np.asarray(target, float), (model.n,)).copy()
        )
        self.noise_mean = (
            np.zeros(model.noise_dim)
            if noise_mean is None
            else np.broadcast_to(np.asarray(noise_mean, float), (model.noise_dim,)).copy()
        )
        # controls per symbol, the last row for overflow; cell rows are
        # computed when their symbol first occurs
        self._controls = np.zeros((self.n_cells + 1, model.control_dim))
        self._filled = np.zeros(self.n_cells + 1, dtype=bool)
        self._filled[self.n_cells] = True

    @property
    def overflow_symbol(self) -> int:
        return self.m

    def symbols(self, state, xs):
        inside = ((xs >= self.low) & (xs < self.high)).all(axis=1)
        out = np.full(len(xs), self.overflow_symbol)
        out[inside] = 1 + cell_numbers((xs[inside] - self.low) / self.width, self.cells_per_axis)
        return out

    def symbol_of(self, x) -> int:
        return int(self.symbols(None, np.asarray(x, float).reshape(1, -1))[0])

    def cell_center(self, symbol: int) -> np.ndarray:
        return self._centers(np.array([symbol]))[0]

    def _centers(self, symbols: np.ndarray) -> np.ndarray:
        return self.low + (cell_coords(symbols - 1, self.cells_per_axis) + 0.5) * self.width

    def advance(self, state, qs):
        rows = np.minimum(qs, self.n_cells + 1) - 1
        missing = rows[~self._filled[rows]]
        if missing.size:
            missing = np.unique(missing)
            self._controls[missing] = _cancelling(self, self._centers(missing + 1))[1]
            self._filled[missing] = True
        return self._controls[rows]


def uniform_quantizer_policy(
    model: SystemModel,
    box_low,
    box_high,
    bits_per_axis,
    target=None,
    noise_mean=None,
    m: Optional[int] = None,
) -> UniformQuantizerPolicy:
    return UniformQuantizerPolicy(model, box_low, box_high, bits_per_axis, target, noise_mean, m)


# --------------------------------------------------------------------------
# Adaptive zoom quantizer

class ZoomPolicy(CodingPolicy):
    """Adaptive quantizer over the moving box [center - L, center + L]^N.

    In-range measurements shrink the range (L <- alpha L) and recenter on the
    predicted image of the quantized point; overflow transmits the reserved
    symbol and expands the range (L <- beta L), so the scheme recovers on its
    own after excursions. Encoder and controller evolve replicas of the same
    (center, L) state driven purely by the symbol stream, which is what keeps
    them synchronized without side information.
    """

    def __init__(
        self,
        model: SystemModel,
        m: int,
        alpha: float,
        beta: float,
        initial_halfwidth: float,
        cells_per_axis=None,
        center=None,
        target=None,
        noise_mean=None,
    ):
        if m < 2:
            raise ValueError("zoom policy needs at least one cell plus the overflow symbol")
        if not (0.0 < alpha < 1.0):
            raise ValueError("zoom-in factor must lie in (0, 1)")
        if beta <= 1.0:
            raise ValueError("zoom-out factor must exceed 1")
        if initial_halfwidth <= 0.0:
            raise ValueError("initial halfwidth must be positive")
        self.model = model
        self.m = int(m)
        self.alpha = float(alpha)
        self.beta = float(beta)
        self.initial_halfwidth = float(initial_halfwidth)
        if cells_per_axis is None:
            if model.n == 1:
                cells_per_axis = (m - 1,)
            else:
                k = int(math.floor((m - 1) ** (1.0 / model.n) + 1e-9))
                cells_per_axis = (max(k, 1),) * model.n
        self.cells_per_axis = tuple(int(c) for c in np.broadcast_to(cells_per_axis, (model.n,)))
        if any(c < 1 for c in self.cells_per_axis):
            raise ValueError("need at least one cell per axis")
        self._cells = np.asarray(self.cells_per_axis, float)  # per-step scaling
        self.n_cells = int(np.prod(self.cells_per_axis))
        if self.n_cells > self.m - 1:
            raise ValueError(
                f"{self.n_cells} cells do not fit an alphabet of {self.m} with overflow reserved"
            )
        self.center0 = (
            np.zeros(model.n) if center is None else np.broadcast_to(np.asarray(center, float), (model.n,)).copy()
        )
        self.target = (
            np.zeros(model.n) if target is None else np.broadcast_to(np.asarray(target, float), (model.n,)).copy()
        )
        self.noise_mean = (
            np.zeros(model.noise_dim)
            if noise_mean is None
            else np.broadcast_to(np.asarray(noise_mean, float), (model.noise_dim,)).copy()
        )

    @property
    def overflow_symbol(self) -> int:
        return self.m

    def initial_state(self, count: int) -> "ZoomState":
        return ZoomState(np.tile(self.center0, (count, 1)), np.full(count, self.initial_halfwidth))

    def keep_rows(self, state: "ZoomState", keep: np.ndarray) -> "ZoomState":
        return ZoomState(state.center[keep], state.halfwidth[keep])

    def symbols(self, state: "ZoomState", xs):
        span = 2.0 * state.halfwidth[:, None]
        offset = xs - (state.center - state.halfwidth[:, None])
        inside = ((offset >= 0.0) & (offset < span)).all(axis=1)
        scaled = offset / span * self._cells
        out = np.full(len(xs), self.overflow_symbol)
        out[inside] = 1 + cell_numbers(scaled[inside], self.cells_per_axis)
        return out

    def advance(self, state: "ZoomState", qs):
        """Shared state update of every row; returns the controls."""
        us = np.zeros((len(qs), self.model.control_dim))
        hit = qs <= self.n_cells
        rows = slice(None) if hit.all() else hit
        halfwidth = state.halfwidth[rows]
        state.halfwidth = state.halfwidth * np.where(hit, self.alpha, self.beta)
        if halfwidth.size:
            low = state.center[rows] - halfwidth[:, None]
            width = 2.0 * halfwidth[:, None] / self._cells
            coords = cell_coords(qs[rows] - 1, self.cells_per_axis)
            image, u = _cancelling(self, low + (coords + 0.5) * width)
            state.center[rows] = image + self.model.control_effect(u)
            us[rows] = u
        return us


class ZoomState:
    """Mutable quantizer ranges of a set of loops: ``center`` (rows, N) and
    ``halfwidth`` (rows,); replicated on both sides of the channel."""

    __slots__ = ("center", "halfwidth")

    def __init__(self, center: np.ndarray, halfwidth: np.ndarray):
        self.center = center
        self.halfwidth = halfwidth

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ZoomState)
            and np.array_equal(self.halfwidth, other.halfwidth)
            and np.array_equal(self.center, other.center)
        )

    def __repr__(self) -> str:
        return f"ZoomState(center={self.center!r}, halfwidth={self.halfwidth!r})"


def zoom_policy(
    model: SystemModel,
    m: int,
    alpha: float,
    beta: float,
    initial_halfwidth: float,
    **kwargs,
) -> ZoomPolicy:
    return ZoomPolicy(model, m, alpha, beta, initial_halfwidth, **kwargs)
