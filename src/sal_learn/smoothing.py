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
        if self.renormalize and not _peak_weight(self) > 0.0:
            raise ValueError(
                "renormalized smoothing weights sum to 0: every node lies too far from"
                " the query point for tau"
            )


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


def _peak_weight(sm: Smoother) -> float:
    """The largest of the formula's weights (before renormalizing), computed
    as quadrature computes it, at the nodes nearest the query point
    (i = M//2 and M//2 + 1); it underflows to 0 beyond about 38 tau, and
    then so does every weight."""
    h = half_width(sm)
    m = sm.quad_points
    delta = 2.0 * h / m
    offsets = -h + delta * np.arange(m // 2, m // 2 + 2)
    return float(np.max(delta * np.asarray(gaussian_eval(sm.tau, offsets))))


def quadrature(sm: Smoother) -> tuple[np.ndarray, np.ndarray]:
    """Node offsets (y_i - x) and weights.  Renormalized weights are divided
    by their sum, which Smoother checks is positive."""
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


def distinct_nodes(sm: Smoother, xs: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
    """The points smooth_fn_grid evaluates f at, and Model._planned_components
    runs a model's chain at, and where each node's value sits among them.

    The points are the distinct nodes around xs, keyed by bit pattern (so
    -0.0 and +0.0 stay apart), in ascending key order, with each node's
    index into them in point-major node order.  A node set with no repeats
    is returned whole, in that order, with index None.
    """
    nodes = quadrature_nodes(sm, xs)
    keys = np.sort(nodes.view(np.int64))
    starts = np.ones(keys.size, dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=starts[1:])
    if starts.all():
        return nodes, None
    keys = keys[starts]
    return keys.view(float), np.searchsorted(keys, nodes.view(np.int64))


def contract(
    sm: Smoother,
    xs: np.ndarray,
    vals: np.ndarray,
    inv: np.ndarray | None,
    base: np.ndarray | None = None,
) -> np.ndarray:
    """The smoothed values at xs from vals, the (points, t) values at the
    points distinct_nodes(sm, xs) returned with index inv, and, for the
    renormalized form, base, the (n, t) values at xs themselves.

    The weighted sum runs over the offsets in ascending order, into an
    (n, t) accumulator of zeros: each offset's node values go into one
    reused (n, t) buffer (taken through inv, or a strided view of vals when
    inv is None), base is subtracted for the renormalized form, and the
    buffer is weighted and added.  No array larger than (n, t) is made,
    and the bits depend on neither the BLAS build nor its thread count.
    """
    _, weights = quadrature(sm)
    n, m = xs.size, weights.size
    vals = np.asarray(vals, dtype=float).reshape(len(vals), -1)
    t = vals.shape[1]
    if inv is None:
        rows = vals.reshape(n, m, t)
    else:
        cols = inv.reshape(n, m)
    if base is not None:
        base = np.asarray(base, dtype=float).reshape(n, t)
    out = np.zeros((n, t))
    buf = np.empty((n, t))
    for i, w in enumerate(weights):
        if inv is None:
            node = rows[:, i]
        else:
            # inv only holds indices into vals, so "clip" never acts; it
            # spares np.take the copy of out it makes under "raise"
            node = np.take(vals, cols[:, i], axis=0, out=buf, mode="clip")
        if base is not None:
            node = np.subtract(node, base, out=buf)
        out += np.multiply(node, w, out=buf)
    return out if base is None else base + out


def smooth_fn_grid(
    f: Callable[[np.ndarray], np.ndarray], sm: Smoother, xs: np.ndarray
) -> np.ndarray:
    """Vectorized smooth_at over many query points (offsets are x-independent).

    f is called once on the distinct nodes (see distinct_nodes), and the
    renormalized form calls it once more on xs itself; contract then
    weights the values.  Model._planned_components makes the same
    distinct_nodes and contract calls around a model's chain runs.
    """
    xs = np.asarray(xs, dtype=float)
    if xs.ndim != 1:
        raise ValueError("query points must be a 1-D array")
    points, inv = distinct_nodes(sm, xs)
    vals = f(points)
    del points
    base = f(xs) if sm.renormalize else None
    return contract(sm, xs, vals, inv, base)


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
