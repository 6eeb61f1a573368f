"""The per-grade pooled affine least-squares problem and its two solvers.

Objective, over a weight matrix W and bias b:

    J(W, b) = sum_j ||targets_j - P(W phi_j + b)||^2 + ridge * (||W||_F^2 + ||b||^2)

The bias is one more column: with the augmented features F~ = [F 1]
(Problem.augmented, made once per problem) the unknowns are the one
matrix [W b], and the pooled fit is F~ [W b]^T P^T.  Nesterov's accelerated
gradient with a constant 1/L step solves it iteratively; a direct
two-stage oracle (unconstrained least squares of F~ by LAPACK's truncated
SVD, then a minimum-norm lift through the pooling matrix) provides the
exact answer for ridge = 0, up to the singular values it cuts.  What
either solver needs of P comes from the Pooling: its right inverse
lift = P^T (P P^T)^-1, the overlap matrix behind P P^T, and
lambda_max = ||P||_2^2 in L.

The residual sees [W b] only through its pooled image P [W b], and every
gradient step moves only the range(P^T) part of [W b]; the rest it scales
by 1 - 2*ridge/L.  So the accelerated iteration runs on the pooled image,
t x (p + 1) unknowns, plus that one scale (see nesterov_solve), at two
(m x (p+1) x t) products with F~ per step and no pooling.  It takes the
full iteration's steps up to rounding.  residual, objective and gradient
are the full-(W, b) forms, which the tests use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .model import Pooling
from .rng import SplitMix64

# direct_solve keeps the singular values of F~ = [F 1] above CUTOFF times the
# largest.  Smaller ones give coefficients that cancel on the training grid
# and blow up between its points, where the smoothing quadrature samples.
# On the oscillatory benchmark (seeds 1-13) no grade raised rse_train at
# 1e-4; at 1e-5 one grade did on four seeds, and below 1e-6 runs blew up.
CUTOFF = 1e-4


@dataclass
class Problem:
    """One grade's least squares.  `augmented`, F~ = [F 1] of (m, p+1), is
    made on first use and lives as long as the problem."""

    features: np.ndarray  # (m, p): rows are N_{k-1} at the train points
    targets: np.ndarray  # (m, t): rows are the current residual
    pooling: Pooling
    ridge: float = 0.0

    @property
    def n_samples(self) -> int:
        return self.features.shape[0]

    @property
    def n_features(self) -> int:
        return self.features.shape[1]

    @cached_property
    def augmented(self) -> np.ndarray:
        return np.column_stack([self.features, np.ones(self.n_samples)])


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
    pre = problem.features @ weight.T
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


def lipschitz_bound(problem: Problem, safety: float = 1.0) -> float:
    """The Lipschitz constant of the objective gradient, times safety.

    L = 2 * ||P||_2^2 * ||F~||_2^2 + 2*ridge, with F~ = problem.augmented.
    ||P||_2^2 is Pooling.lambda_max and ||F~||_2^2 the largest eigenvalue
    of F~^T F~, each from a symmetric eigensolve of a small matrix, so L is
    exact to rounding.
    """
    f1 = problem.augmented
    lam_f = float(np.linalg.eigvalsh(f1.T @ f1)[-1])
    return safety * (2.0 * problem.pooling.lambda_max * lam_f + 2.0 * problem.ridge)


@dataclass
class SolverConfig:
    """Solver choice plus stopping rule.

    ``init`` picks the accelerated-gradient start: "zero" (deterministic
    minimum-norm limit, the default), "he" (weights scaled by
    sqrt(2/fan_in)), or "randn" (unit-variance weights), the random draws
    coming from the package PRNG with ``init_seed`` and biases starting at
    zero.  The fitted pooled predictions do not depend on the start — only
    which of the many exact minimizers the iteration settles near, and
    hence the feature map handed to the next grade, does.  The iteration
    moves only the range(P^T) part of W and scales the rest (see
    nesterov_solve).  With a single pooled output that range is the
    row-constant matrices, so the iteration moves only the mean row and the
    zero start collapses all weight rows to a common value, which starves
    later grades of features; the random starts keep the rows distinct
    (their deviations from the mean row stay as drawn, only shrunk by a
    ridge).  "randn" deliberately skips the variance-preserving scale so
    that oscillatory activations compound frequency grade over grade.
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
    holds J at every iterate starting from the initial point.

    The iteration runs in pooled coordinates.  With F~ = problem.augmented
    the residual depends on [W b] only through its pooled image
    Theta = P [W b] = [V c], and a step on [W b] adds (2/L) P^T R^T F~ to
    the shrunk iterate, with shrink = 1 - 2*ridge/L and R the residual at
    the extrapolated point.  So it moves only the range(P^T) part of
    [W b], Theta by S R^T F~ with S = (2/L) P P^T, and merely scales the
    rest: the start's part [D d] = [W0 b0] - lift(Theta0), with
    lift = Pooling.lift, all by one factor s (exactly 1 at ridge 0).  The
    state (Theta, s) is t x (p + 1) plus one number, and

        J = ||Y - F~ Theta^T||^2 + ridge * (||lift(Theta)||^2 + s^2 ||[D d]||^2)

    with ||lift(x)||^2 = tr(x^T (P P^T)^-1 x) from Pooling.lift_sq_norm.
    The momentum is linear, so F~ Theta^T at the extrapolated point is the
    same combination of F~ Theta^T at the last two iterates: each step makes
    one product with F~ and one with F~^T, and nothing is pooled but the
    start.  The result [W b] = s [D d] + lift(Theta) is the full
    iteration's iterate up to rounding.  S is built as
    (2/(nL)) * Pooling.overlap with n = mu + 1, which is exactly the scalar
    2/(nL) for one pooled output.
    """
    if cfg.method != "nesterov":
        raise ValueError("nesterov_solve needs cfg.method == 'nesterov'")
    lip = lipschitz_bound(problem, cfg.lipschitz_safety)
    pool = problem.pooling
    shape = (pool.in_dim, problem.n_features)
    wb = np.zeros((shape[0], shape[1] + 1))  # [W0 b0]; biases start at zero
    if cfg.init in ("he", "randn"):
        stream = SplitMix64(cfg.init_seed)
        std = math.sqrt(2.0 / shape[1]) if cfg.init == "he" else 1.0
        std *= cfg.init_scale
        wb[:, :-1] = std * stream.standard_normals(shape[0] * shape[1]).reshape(shape)
    f1 = problem.augmented
    y = problem.targets
    ridge = problem.ridge
    step = (2.0 / ((pool.mu + 1) * lip)) * pool.overlap
    shrink = 1.0 - 2.0 * ridge / lip
    theta = pool.apply(wb.T).T  # [V c]
    dev = wb - pool.lift(theta)  # [D d]
    dev_sq = float(dev.ravel() @ dev.ravel())

    def objective_at(theta, s, fv):
        r = y - fv
        total = float(r.ravel() @ r.ravel())
        if ridge > 0.0:
            total += ridge * (pool.lift_sq_norm(theta) + s**2 * dev_sq)
        return total

    s = 1.0
    fv = f1 @ theta.T
    theta_prev, s_prev, fv_prev = theta, s, fv
    theta_y, s_y, fv_y = theta, s, fv
    t_mom = 1.0
    j_prev = objective_at(theta, s, fv)
    trace = [j_prev] if cfg.record_trace else None
    iterations = 0
    stop_reason = "max_iters"
    j_val = j_prev
    for it in range(1, cfg.max_iters + 1):
        r = y - fv_y
        theta_new = shrink * theta_y + step @ (r.T @ f1)
        s_new = shrink * s_y
        fv_new = f1 @ theta_new.T
        t_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t_mom * t_mom))
        coef = (t_mom - 1.0) / t_next
        theta_y = theta_new + coef * (theta_new - theta_prev)
        s_y = s_new + coef * (s_new - s_prev)
        fv_y = fv_new + coef * (fv_new - fv_prev)
        j_val = objective_at(theta_new, s_new, fv_new)
        if not math.isfinite(j_val):
            raise RuntimeError(
                f"non-finite objective at iteration {it} (bad step size or data)"
            )
        if trace is not None:
            trace.append(j_val)
        theta_prev, s_prev, fv_prev = theta_new, s_new, fv_new
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
    wb = s_prev * dev + pool.lift(theta_prev)
    return np.ascontiguousarray(wb[:, :-1]), wb[:, -1].copy(), stats


def direct_solve(problem: Problem) -> tuple[np.ndarray, np.ndarray, SolveStats]:
    """Two-stage exact solver (ridge = 0 only).

    Stage 1 solves the unconstrained least squares min_M ||E - F~ M||_F^2,
    F~ = problem.augmented = U S V^T, by a truncated SVD: one LAPACK
    least-squares call (np.linalg.lstsq, gelsd) with rcond = CUTOFF treats
    the singular values at or below CUTOFF times the largest as zero and
    returns M = V_k S_k^-1 U_k^T E.  F~ M is then the orthogonal projection
    of E onto the kept left singular vectors U_k, and M the minimum-norm
    solution on them.  Stage 2 lifts M to grade parameters through the
    pooling matrix's right inverse — the minimum-norm preimage, which is the
    tie-break for the non-unique minimizer.

    SolveStats.note reads "rank r of p+1" when columns were cut, and
    iterations is 0.
    """
    if problem.ridge != 0.0:
        raise ValueError("direct solver requires ridge = 0")
    f1 = problem.augmented
    sol, _, rank, _ = np.linalg.lstsq(f1, problem.targets, rcond=CUTOFF)
    theta = problem.pooling.lift(sol.T)  # (in_dim, p+1)
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

    Each entry (a, c) of [W b] moves predictions along d(j) = P e_a * f~_j[c],
    with f~_j the row j of F~ = problem.augmented (its last entry 1 for the
    bias); at a least-squares optimum the residual is orthogonal to all of
    them (the projection characterization), so small values certify
    near-optimality independent of scaling.

    It works in pooled coordinates, as nesterov_solve does: the residual is
    E - F~ (P [W b])^T and the inner products are P^T (R^T F~), so nothing
    of (m x width) size is made.
    """
    weight, bias = _params(problem, weight, bias)
    pool = problem.pooling
    f1 = problem.augmented
    theta = pool.apply(np.column_stack([weight, bias]).T).T  # P [W b]
    r = problem.targets - f1 @ theta.T
    r_norm = float(np.sqrt(np.sum(r * r)))
    if r_norm == 0.0:
        return 0.0
    ip = pool.adjoint((r.T @ f1).T).T  # (in_dim, p+1): <r, d_ac>
    col_p = np.sum(pool.matrix() ** 2, axis=0)  # ||P e_a||^2
    col_f = np.einsum("ij,ij->j", f1, f1)  # sum_j f~_j[c]^2
    denom = np.sqrt(np.outer(col_p, col_f)) * r_norm
    return float((np.abs(ip) / np.maximum(denom, 1e-300)).max())
