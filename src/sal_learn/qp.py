"""The per-grade pooled affine least-squares problem and its two solvers.

Objective, over a weight matrix W and bias b:

    J(W, b) = sum_j ||targets_j - P(W phi_j + b)||^2 + ridge * (||W||_F^2 + ||b||^2)

Nesterov's accelerated gradient with a constant 1/L step solves it
iteratively; a direct two-stage oracle (unconstrained least squares by a
truncated SVD of the feature matrix, then a minimum-norm lift through the
pooling matrix) provides the exact answer for ridge = 0, up to the singular
values it cuts.

With one pooled output (t = 1) P = (1/n) 1^T, n = mu + 1, sees only the mean
row u of W and the mean beta of b, and every row of the W gradient is the
same vector.  The accelerated iteration then runs on (u, beta) alone, a
least-squares fit in p + 1 unknowns (see _mean_row_solve); it takes the
full iteration's steps, up to rounding, at two (m x p) matrix-vector
products per step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .model import Pooling
from .rng import SplitMix64

# direct_solve keeps the singular values of [F 1] above CUTOFF times the
# largest.  Smaller ones give coefficients that cancel on the training grid
# and blow up between its points, where the smoothing quadrature samples.
# On the oscillatory benchmark (seeds 1-13) no grade raised rse_train at
# 1e-4; at 1e-5 one grade did on four seeds, and below 1e-6 runs blew up.
CUTOFF = 1e-4


@dataclass
class Problem:
    features: np.ndarray  # (m, p): rows are N_{k-1} at the train points
    targets: np.ndarray  # (m, t): rows are the current residual
    pooling: Pooling
    ridge: float = 0.0
    # (m, in_dim) work array for residual's pre-pooling image; never returned
    _work: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)

    @property
    def n_samples(self) -> int:
        return self.features.shape[0]

    @property
    def n_features(self) -> int:
        return self.features.shape[1]


def assemble(
    features: np.ndarray,
    targets: np.ndarray,
    pooling: Pooling,
    ridge: float = 0.0,
) -> Problem:
    features = np.asarray(features, dtype=float)
    targets = np.asarray(targets, dtype=float)
    if features.ndim != 2 or targets.ndim != 2:
        raise ValueError("features and targets must be 2-D")
    if features.shape[0] != targets.shape[0]:
        raise ValueError(
            f"row mismatch: {features.shape[0]} feature rows vs {targets.shape[0]} target rows"
        )
    if pooling.out_dim != targets.shape[1]:
        raise ValueError(
            f"pooling out_dim {pooling.out_dim} must match target width {targets.shape[1]}"
        )
    if ridge < 0.0:
        raise ValueError("ridge must be nonnegative")
    return Problem(features, targets, pooling, float(ridge))


def _params(problem: Problem, weight: np.ndarray, bias: np.ndarray):
    weight = np.asarray(weight, dtype=float)
    bias = np.asarray(bias, dtype=float)
    if weight.shape != (problem.pooling.in_dim, problem.n_features):
        raise ValueError(
            f"weight must be {(problem.pooling.in_dim, problem.n_features)}, got {weight.shape}"
        )
    if bias.shape != (problem.pooling.in_dim,):
        raise ValueError(f"bias must be ({problem.pooling.in_dim},), got {bias.shape}")
    return weight, bias


def residual(problem: Problem, weight: np.ndarray, bias: np.ndarray) -> np.ndarray:
    weight, bias = _params(problem, weight, bias)
    if problem._work is None:
        problem._work = np.empty((problem.n_samples, problem.pooling.in_dim))
    pre = np.matmul(problem.features, weight.T, out=problem._work)
    pre += bias
    return problem.targets - problem.pooling.apply(pre)


def objective(problem: Problem, weight: np.ndarray, bias: np.ndarray) -> float:
    r = residual(problem, weight, bias)
    total = float(np.sum(r * r))
    if problem.ridge > 0.0:
        total += problem.ridge * (float(np.sum(weight * weight)) + float(np.sum(bias * bias)))
    return total


def gradient(
    problem: Problem, weight: np.ndarray, bias: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    weight, bias = _params(problem, weight, bias)
    r = residual(problem, weight, bias)
    adj = problem.pooling.adjoint(r)  # rows are P^T r_j
    grad_w = adj.T @ problem.features
    grad_b = adj.sum(axis=0)
    grad_w *= -2.0
    grad_b *= -2.0
    if problem.ridge > 0.0:
        grad_w += 2.0 * problem.ridge * weight
        grad_b += 2.0 * problem.ridge * bias
    return grad_w, grad_b


def _power_largest_eig(matvec, dim: int, iters: int = 200, tol: float = 1e-10):
    """Largest eigenvalue of a PSD operator; deterministic all-ones start."""
    v = np.ones(dim) / math.sqrt(dim)
    lam_prev = 0.0
    for _ in range(iters):
        w = matvec(v)
        lam = float(v @ w)
        nw = float(np.linalg.norm(w))
        if nw == 0.0:
            return 0.0, True
        v = w / nw
        if abs(lam - lam_prev) <= tol * max(1.0, abs(lam)):
            return lam, True
        lam_prev = lam
    return lam_prev, False


def lipschitz_bound(problem: Problem, safety: float = 1.0) -> float:
    """Upper bound on the Lipschitz constant of the objective gradient.

    L = 2 * sigma_max(P)^2 * sigma_max(Phi~)^2 + 2*ridge, with Phi~ the
    feature matrix plus a ones column; each sigma_max^2 comes from power
    iteration, falling back to the (always valid) squared Frobenius norm.
    """
    f1 = np.column_stack([problem.features, np.ones(problem.n_samples)])
    lam_f, ok_f = _power_largest_eig(lambda v: f1.T @ (f1 @ v), f1.shape[1])
    if not ok_f:
        lam_f = float(np.sum(f1 * f1))
    pool = problem.pooling
    lam_p, ok_p = _power_largest_eig(
        lambda v: pool.adjoint(pool.apply(v)), pool.in_dim
    )
    if not ok_p:
        lam_p = pool.out_dim / (pool.mu + 1)  # squared Frobenius norm of P
    return safety * (2.0 * lam_p * lam_f + 2.0 * problem.ridge)


@dataclass
class SolverConfig:
    """Solver choice plus stopping rule.

    ``init`` picks the accelerated-gradient start: "zero" (deterministic
    minimum-norm limit, the default), "he" (weights scaled by
    sqrt(2/fan_in)), or "randn" (unit-variance weights), the random draws
    coming from the package PRNG with ``init_seed`` and biases starting at
    zero.  The fitted pooled predictions do not depend on the start — only
    which of the many exact minimizers the iteration settles near, and
    hence the feature map handed to the next grade, does.  With a single
    pooled output the gradient of the pooled objective is row-constant, so
    the iteration moves only the mean row and the zero start collapses all
    weight rows to a common value, which starves later grades of features;
    the random starts keep the rows distinct (their deviations from the
    mean row stay as drawn, only shrunk by a ridge).  "randn" deliberately
    skips the variance-preserving scale so that oscillatory activations
    compound frequency grade over grade.
    ``init_scale`` multiplies the draw's standard deviation; with an
    oscillatory activation on the first grade it sets the frequency band
    the random features cover, which is how a narrowband target (a carrier
    well above the reach of kink-placement fitting) gets features near its
    band.
    """

    method: str = "nesterov"  # "nesterov" | "direct"
    epsilon: float = 1e-7
    max_iters: int = 5000
    ridge: float = 0.0
    lipschitz_safety: float = 1.0
    init: str = "zero"  # "zero" | "he" | "randn"
    init_seed: int = 1
    init_scale: float = 1.0
    record_trace: bool = False

    def __post_init__(self):
        if self.method not in ("nesterov", "direct"):
            raise ValueError(f"unknown solver method: {self.method!r}")
        if self.epsilon <= 0.0:
            raise ValueError("epsilon must be positive")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if self.lipschitz_safety < 1.0:
            raise ValueError("lipschitz_safety must be >= 1")
        if self.init not in ("zero", "he", "randn"):
            raise ValueError(f"unknown init: {self.init!r}")
        if self.init_scale <= 0.0:
            raise ValueError("init_scale must be positive")


@dataclass
class SolveStats:
    iterations: int
    final_objective: float
    stop_reason: str  # "epsilon" | "max_iters" | "direct"
    objective_trace: list[float] | None = None
    note: str = ""
    lipschitz: float | None = None  # the bound L behind the 1/L step (Nesterov only)


def nesterov_solve(problem: Problem, cfg: SolverConfig) -> tuple[np.ndarray, np.ndarray, SolveStats]:
    """Constant-step accelerated gradient from the start cfg.init picks.

    Stops when the relative objective change between consecutive iterates
    drops below cfg.epsilon, or at max_iters.  The trace, when recorded,
    holds J at every iterate starting from the initial point.  A problem
    with one pooled output runs the same iteration on its mean row
    (_mean_row_solve).
    """
    if cfg.method != "nesterov":
        raise ValueError("nesterov_solve needs cfg.method == 'nesterov'")
    lip = lipschitz_bound(problem, cfg.lipschitz_safety)
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
    if problem.pooling.out_dim == 1:
        return _mean_row_solve(problem, cfg, lip, w, b)
    w_prev, b_prev = w, b
    yw, yb = w, b
    t_mom = 1.0
    j_prev = objective(problem, w, b)
    trace = [j_prev] if cfg.record_trace else None
    iterations = 0
    stop_reason = "max_iters"
    j_val = j_prev
    for it in range(1, cfg.max_iters + 1):
        gw, gb = gradient(problem, yw, yb)
        w_new = yw - gw / lip
        b_new = yb - gb / lip
        t_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t_mom * t_mom))
        coef = (t_mom - 1.0) / t_next
        yw = w_new + coef * (w_new - w_prev)
        yb = b_new + coef * (b_new - b_prev)
        j_val = objective(problem, w_new, b_new)
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
    stats = SolveStats(
        iterations=iterations,
        final_objective=j_val,
        stop_reason=stop_reason,
        objective_trace=trace,
        lipschitz=lip,
    )
    return w_prev, b_prev, stats


def _mean_row_solve(
    problem: Problem, cfg: SolverConfig, lip: float, w: np.ndarray, b: np.ndarray
) -> tuple[np.ndarray, np.ndarray, SolveStats]:
    """nesterov_solve's iteration for one pooled output, from the start (w, b).

    The pooled prediction at phi is u.phi + beta, with u the mean row of W
    and beta the mean of b, so the residual r depends on (u, beta) alone.
    A full step adds (2/(nL)) F^T r to every row of W and (2/(nL)) sum(r)
    to every entry of b, and scales both by 1 - 2*ridge/L.  So the
    deviations D = W0 - 1 u0^T and d = b0 - beta0 1 of the start only scale,
    all by one factor s (exactly 1 at ridge 0), and the iterate
    theta = (u, beta, s) carries the whole state:

        J = ||y - F u - beta||^2 + ridge * (n ||u||^2 + n beta^2 + s^2 (||D||^2 + ||d||^2))

    The momentum is linear, so F u at the extrapolated point is the same
    combination of F u at the last two iterates: each step makes one
    product with F and one with F^T.  The result is W = s D + 1 u^T,
    b = s d + beta 1, the full iteration's iterate up to rounding.
    """
    n = problem.pooling.in_dim
    feats = problem.features
    y = problem.targets[:, 0]
    ridge = problem.ridge
    p = problem.n_features
    u = w.mean(axis=0)
    beta = float(b.mean())
    dev_w = w - u
    dev_b = b - beta
    dev_sq = float(np.sum(dev_w * dev_w)) + float(np.sum(dev_b * dev_b))
    step = 2.0 / (n * lip)
    shrink = 1.0 - 2.0 * ridge / lip

    def objective_at(theta, fu):
        r = y - fu
        r -= theta[p]
        total = float(r @ r)
        if ridge > 0.0:
            mean_sq = float(theta[: p + 1] @ theta[: p + 1])
            total += ridge * (n * mean_sq + theta[p + 1] ** 2 * dev_sq)
        return total

    theta = np.concatenate([u, [beta, 1.0]])
    fu = feats @ u
    theta_prev, fu_prev = theta, fu
    theta_y, fu_y = theta, fu
    t_mom = 1.0
    j_prev = objective_at(theta, fu)
    trace = [j_prev] if cfg.record_trace else None
    iterations = 0
    stop_reason = "max_iters"
    j_val = j_prev
    for it in range(1, cfg.max_iters + 1):
        r = y - fu_y
        r -= theta_y[p]
        theta_new = shrink * theta_y
        theta_new[:p] += step * (r @ feats)
        theta_new[p] += step * float(r.sum())
        fu_new = feats @ theta_new[:p]
        t_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t_mom * t_mom))
        coef = (t_mom - 1.0) / t_next
        theta_y = theta_new + coef * (theta_new - theta_prev)
        fu_y = fu_new + coef * (fu_new - fu_prev)
        j_val = objective_at(theta_new, fu_new)
        if not math.isfinite(j_val):
            raise RuntimeError(
                f"non-finite objective at iteration {it} (bad step size or data)"
            )
        if trace is not None:
            trace.append(j_val)
        theta_prev, fu_prev = theta_new, fu_new
        t_mom = t_next
        iterations = it
        if abs(j_val - j_prev) / max(abs(j_prev), 1e-30) < cfg.epsilon:
            stop_reason = "epsilon"
            break
        j_prev = j_val
    stats = SolveStats(
        iterations=iterations,
        final_objective=j_val,
        stop_reason=stop_reason,
        objective_trace=trace,
        lipschitz=lip,
    )
    s = theta_prev[p + 1]
    return s * dev_w + theta_prev[:p], s * dev_b + theta_prev[p], stats


def direct_solve(problem: Problem) -> tuple[np.ndarray, np.ndarray, SolveStats]:
    """Two-stage exact solver (ridge = 0 only).

    Stage 1 solves the unconstrained least squares min_M ||E - Phi~ M||_F^2
    by a truncated SVD of Phi~ = U S V^T: it keeps the singular values above
    CUTOFF times the largest and sets M = V_k S_k^-1 U_k^T E.  Phi~ M is then
    the orthogonal projection of E onto the kept left singular vectors U_k,
    and M the minimum-norm solution on them.  Stage 2 lifts M to grade
    parameters through the pooling matrix's right inverse — the minimum-norm
    preimage, which is the tie-break for the non-unique minimizer.

    SolveStats.note reads "rank r of p+1" when columns were cut, and
    iterations is 0.
    """
    if problem.ridge != 0.0:
        raise ValueError("direct solver requires ridge = 0")
    f1 = np.column_stack([problem.features, np.ones(problem.n_samples)])
    u, sv, vt = np.linalg.svd(f1, full_matrices=False)
    kept = sv > CUTOFF * sv[0]
    sol = vt[kept].T @ ((u[:, kept].T @ problem.targets) / sv[kept, None])
    rank = int(np.count_nonzero(kept))
    pm = problem.pooling.matrix()
    ppt = pm @ pm.T  # invertible: full row rank
    theta = pm.T @ np.linalg.solve(ppt, sol.T)  # (in_dim, p+1)
    weight = np.ascontiguousarray(theta[:, :-1])
    bias = theta[:, -1].copy()
    j_opt = float(np.sum(np.square(problem.targets - f1 @ sol)))
    stats = SolveStats(
        iterations=0,
        final_objective=j_opt,
        stop_reason="direct",
        note=f"rank {rank} of {f1.shape[1]}" if rank < f1.shape[1] else "",
    )
    return weight, bias, stats


def solve(problem: Problem, cfg: SolverConfig):
    if cfg.method == "direct":
        return direct_solve(problem)
    return nesterov_solve(problem, cfg)


def orthogonality_defect(problem: Problem, weight: np.ndarray, bias: np.ndarray) -> float:
    """Max cosine between the fit residual and any parameter basis direction.

    Each W entry (a, c) moves predictions along d(j) = P e_a * phi_j[c] and
    each bias entry along d(j) = P e_a; at a least-squares optimum the
    residual is orthogonal to all of them (the projection characterization),
    so small values certify near-optimality independent of scaling.
    """
    r = residual(problem, weight, bias)
    r_norm = float(np.sqrt(np.sum(r * r)))
    if r_norm == 0.0:
        return 0.0
    adj = problem.pooling.adjoint(r)
    ip_w = adj.T @ problem.features  # (in_dim, p): <r, d_ac>
    ip_b = adj.sum(axis=0)  # (in_dim,)
    col_p = np.sum(problem.pooling.matrix() ** 2, axis=0)  # ||P e_a||^2
    col_f = np.sum(problem.features**2, axis=0)  # sum_j phi_j[c]^2
    denom_w = np.sqrt(np.outer(col_p, col_f)) * r_norm
    denom_b = np.sqrt(col_p * problem.n_samples) * r_norm
    cos_w = np.abs(ip_w) / np.maximum(denom_w, 1e-300)
    cos_b = np.abs(ip_b) / np.maximum(denom_b, 1e-300)
    return float(max(cos_w.max(), cos_b.max()))
