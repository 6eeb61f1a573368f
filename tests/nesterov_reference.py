"""Reference accelerated gradient: the iteration on the full (W, b) for every
pooling width.

qp.nesterov_solve runs the same iteration on the pooled image (P W, P b) and
one scale for the rest, so tests require equal iteration counts, stop
reasons and Lipschitz bounds, and agreement to rounding.
"""

import math

import numpy as np

from sal_learn import qp
from sal_learn.rng import SplitMix64


def nesterov_solve(problem, cfg):
    lip = qp.lipschitz_bound(problem, cfg.lipschitz_safety)
    shape = (problem.pooling.in_dim, problem.n_features)
    if cfg.init in ("he", "randn"):
        stream = SplitMix64(cfg.init_seed)
        std = math.sqrt(2.0 / shape[1]) if cfg.init == "he" else 1.0
        std *= cfg.init_scale
        w = std * stream.standard_normals(shape[0] * shape[1]).reshape(shape)
        b = np.zeros(shape[0])
    else:
        w = np.zeros(shape)
        b = np.zeros(shape[0])
    w_prev, b_prev = w, b
    yw, yb = w, b
    t_mom = 1.0
    j_prev = qp.objective(problem, w, b)
    trace = [j_prev] if cfg.record_trace else None
    iterations = 0
    stop_reason = "max_iters"
    j_val = j_prev
    for it in range(1, cfg.max_iters + 1):
        gw, gb = qp.gradient(problem, yw, yb)
        w_new = yw - gw / lip
        b_new = yb - gb / lip
        t_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t_mom * t_mom))
        coef = (t_mom - 1.0) / t_next
        yw = w_new + coef * (w_new - w_prev)
        yb = b_new + coef * (b_new - b_prev)
        j_val = qp.objective(problem, w_new, b_new)
        if not math.isfinite(j_val):
            raise RuntimeError(
                f"non-finite objective at iteration {it} (bad step size or data)"
            )
        if trace is not None:
            trace.append(j_val)
        w_prev, b_prev = w_new, b_new
        t_mom = t_next
        iterations = it
        if abs(j_val - j_prev) / max(abs(j_prev), 1e-30) < cfg.epsilon:
            stop_reason = "epsilon"
            break
        j_prev = j_val
    stats = qp.SolveStats(
        iterations=iterations,
        final_objective=j_val,
        stop_reason=stop_reason,
        objective_trace=trace,
        lipschitz=lip,
    )
    return w_prev, b_prev, stats
