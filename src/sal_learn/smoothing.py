"""Windowed Gaussian smoothing by direct quadrature.

The smoothed value at x is a weighted sum of f over M nodes spanning a
window [x - H, x + H]:

    smoothed(x) = (2H/M) * sum_{i=1..M} G_tau(x - y_i) * f(y_i),
    y_i = (2H/M)*i + (x - H)

Note the node placement: there is no node at the left edge and one exactly at
the right edge, so the node set is symmetric about x except for one unpaired
node at x + H whose weight decays like G_tau(H).  The half-width H comes from
the window mode: a count of grid steps, or a multiple of tau.

With `renormalize` the weights are divided by their sum, making constants
reproduce exactly; off by default so the quadrature matches the formula above
literally.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np


@dataclass(frozen=True)
class GridSteps:
    """Half-width = count * step (step is a config constant, not read off the grid)."""

    count: int
    step: float

    def __post_init__(self):
        if self.count < 1 or self.step <= 0.0:
            raise ValueError("GridSteps needs count >= 1 and step > 0")


@dataclass(frozen=True)
class TauMultiples:
    """Half-width = factor * tau."""

    factor: float

    def __post_init__(self):
        if self.factor <= 0.0:
            raise ValueError("TauMultiples needs factor > 0")


Window = GridSteps | TauMultiples

# The fields of each window mode, in the order configs and model files list them.
WINDOW_FIELDS = {"grid_steps": ("count", "step"), "tau_multiples": ("factor",)}


def window_to_dict(window: Window) -> dict:
    """The window as configs and model files write it: its mode, then its fields."""
    if isinstance(window, GridSteps):
        return {"mode": "grid_steps", "count": window.count, "step": window.step}
    return {"mode": "tau_multiples", "factor": window.factor}


def window_from_dict(doc: dict) -> Window:
    """The window that window_to_dict wrote; KeyError for a missing field,
    ValueError or TypeError for an unknown mode or a bad value."""
    if doc["mode"] == "grid_steps":
        return GridSteps(int(doc["count"]), float(doc["step"]))
    if doc["mode"] == "tau_multiples":
        return TauMultiples(float(doc["factor"]))
    raise ValueError(f"unknown window mode: {doc['mode']!r}")


@dataclass(frozen=True)
class Smoother:
    tau: float
    window: Window
    quad_points: int
    renormalize: bool = False

    def __post_init__(self):
        if self.tau <= 0.0:
            raise ValueError("smoothing tau must be positive")
        if self.quad_points < 2:
            raise ValueError("quad_points must be >= 2")
        if half_width(self) <= 0.0:
            raise ValueError("window half-width must be positive")


def gaussian(u: np.ndarray | float) -> np.ndarray | float:
    return np.exp(-0.5 * np.square(u)) / math.sqrt(2.0 * math.pi)


def gaussian_eval(tau: float, u: np.ndarray | float):
    """Scaled kernel G_tau(u) = G(u/tau)/tau."""
    if tau <= 0.0:
        raise ValueError("tau must be positive")
    return gaussian(np.asarray(u, dtype=float) / tau) / tau


def half_width(sm: Smoother) -> float:
    w = sm.window
    if isinstance(w, GridSteps):
        return w.count * w.step
    return w.factor * sm.tau


def quadrature(sm: Smoother) -> tuple[np.ndarray, np.ndarray]:
    """Node offsets (y_i - x) and weights; weights are strictly positive."""
    h = half_width(sm)
    m = sm.quad_points
    delta = 2.0 * h / m
    offsets = -h + delta * np.arange(1, m + 1)
    weights = delta * np.asarray(gaussian_eval(sm.tau, offsets))
    if sm.renormalize:
        weights = weights / weights.sum()
    return offsets, weights


def node_key(sm: Smoother) -> tuple[float, int]:
    """Smoothers with equal keys place identical nodes around every query point."""
    return half_width(sm), sm.quad_points


def quadrature_nodes(sm: Smoother, xs: np.ndarray) -> np.ndarray:
    """The nodes around each query point in xs, flattened point by point: (n*M,)."""
    offsets, _ = quadrature(sm)
    return (xs[:, None] + offsets[None, :]).ravel()


def smooth_at(f: Callable[[np.ndarray], np.ndarray], sm: Smoother, x: float) -> np.ndarray:
    """Smoothed value of f at the scalar query point x.

    f maps a 1-D array of points to an (n, t) array of values.  The
    renormalized form is computed as f(x) plus a weighted correction, so a
    constant function passes through bit-exactly.
    """
    offsets, weights = quadrature(sm)
    vals = np.asarray(f(x + offsets), dtype=float)
    if not sm.renormalize:
        return weights @ vals
    base = np.asarray(f(np.full(1, float(x))), dtype=float)[0]
    return base + weights @ (vals - base)


def smooth_fn_grid(
    f: Callable[[np.ndarray], np.ndarray], sm: Smoother, xs: np.ndarray
) -> np.ndarray:
    """Vectorized smooth_at over many query points (offsets are x-independent).

    f is called once on the distinct nodes (keyed by bit pattern, so -0.0
    and +0.0 stay apart; a node set with no repeats is passed whole), and
    the renormalized form calls it once more on xs itself.  Its values are
    gathered into the offset-major (M, n, t) operand of the contraction.
    At t = 1 that operand stays a transposed view of the point-major
    values, the layout a plain evaluation of every node contracts, since
    BLAS takes a different path (and may give different bits) for a
    contiguous one.
    """
    xs = np.asarray(xs, dtype=float)
    if xs.ndim != 1:
        raise ValueError("query points must be a 1-D array")
    offsets, weights = quadrature(sm)
    n, m = xs.size, offsets.size
    nodes = quadrature_nodes(sm, xs)
    keys, inv = np.unique(nodes.view(np.int64), return_inverse=True)
    if keys.size == nodes.size:
        del keys, inv
        vals = np.asarray(f(nodes), dtype=float).reshape(n, m, -1).transpose(1, 0, 2)
    else:
        del nodes
        vals = np.asarray(f(keys.view(float)), dtype=float).reshape(keys.size, -1)
        if vals.shape[1] == 1:
            vals = vals[inv].reshape(n, m, 1).transpose(1, 0, 2)
        else:
            vals = vals[inv.reshape(n, m).T]
    if not sm.renormalize:
        return np.tensordot(weights, vals, axes=1)
    base = np.asarray(f(xs), dtype=float).reshape(n, -1)
    return base + np.tensordot(weights, vals - base, axes=1)


def smooth_grid(values: np.ndarray, sm: Smoother, grid: np.ndarray) -> np.ndarray:
    """Smooth values sampled on a uniform grid.

    Quadrature nodes generally fall between grid points, so the sampled
    function is extended by linear interpolation (clamped to the endpoint
    values outside the grid); the result equals smooth_at applied to that
    interpolant at each grid point.
    """
    grid = np.asarray(grid, dtype=float)
    values = np.asarray(values, dtype=float)
    if grid.ndim != 1 or grid.size < 2:
        raise ValueError("grid must be a 1-D array with at least two points")
    steps = np.diff(grid)
    if np.max(np.abs(steps - steps[0])) > 1e-9 * abs(grid[-1] - grid[0]):
        raise ValueError("smooth_grid requires a uniform grid")
    squeeze = values.ndim == 1
    cols = values[:, None] if squeeze else values
    if cols.shape[0] != grid.size:
        raise ValueError("values row count must match grid size")

    def f(points: np.ndarray) -> np.ndarray:
        return np.column_stack([np.interp(points, grid, c) for c in cols.T])

    out = smooth_fn_grid(f, sm, grid)
    return out[:, 0] if squeeze else out
