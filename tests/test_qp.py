import math

import numpy as np
import pytest

import nesterov_reference as nesterov_ref
import pooling_reference as pool_ref
from sal_learn.model import Pooling
from sal_learn.rng import SplitMix64
from sal_learn import qp


def small_problem(m=9, p=3, in_dim=4, t=2, ridge=0.0, seed=7):
    rng = SplitMix64(seed)
    feats = rng.standard_normals(m * p).reshape(m, p)
    targets = rng.standard_normals(m * t).reshape(m, t)
    pooling = Pooling(out_dim=t, mu=in_dim - t)
    return qp.assemble(feats, targets, pooling, ridge=ridge)


def test_assemble_validation():
    pool = Pooling(out_dim=1, mu=2)
    with pytest.raises(ValueError):
        qp.assemble(np.zeros((3, 2)), np.zeros((4, 1)), pool)
    with pytest.raises(ValueError):
        qp.assemble(np.zeros((3, 2)), np.zeros((3, 2)), pool)  # out_dim mismatch
    with pytest.raises(ValueError):
        qp.assemble(np.zeros(3), np.zeros((3, 1)), pool)
    with pytest.raises(ValueError):
        qp.assemble(np.zeros((3, 2)), np.zeros((3, 1)), pool, ridge=-1.0)


def test_objective_hand_value():
    # one sample, identity pooling: J = ||y - (W x + b)||^2 + ridge*(|W|^2+|b|^2)
    feats = np.array([[2.0]])
    targets = np.array([[5.0]])
    pool = Pooling(out_dim=1, mu=0)
    prob = qp.assemble(feats, targets, pool, ridge=0.5)
    w = np.array([[1.0]])
    b = np.array([1.0])
    # prediction 3, residual 2 -> 4; ridge adds 0.5*(1+1) = 1
    assert qp.objective(prob, w, b) == pytest.approx(5.0)


def test_gradient_matches_central_differences():
    prob = small_problem(ridge=0.3)
    rng = SplitMix64(11)
    w = rng.standard_normals(prob.pooling.in_dim * prob.n_features).reshape(
        prob.pooling.in_dim, prob.n_features
    )
    b = rng.standard_normals(prob.pooling.in_dim)
    gw, gb = qp.gradient(prob, w, b)
    h = 1e-6
    scale = max(1.0, abs(qp.objective(prob, w, b)))
    for idx in [(0, 0), (1, 2), (3, 1)]:
        wp, wm = w.copy(), w.copy()
        wp[idx] += h
        wm[idx] -= h
        fd = (qp.objective(prob, wp, b) - qp.objective(prob, wm, b)) / (2 * h)
        assert abs(fd - gw[idx]) <= 1e-5 * scale
    for a in range(prob.pooling.in_dim):
        bp, bm = b.copy(), b.copy()
        bp[a] += h
        bm[a] -= h
        fd = (qp.objective(prob, w, bp) - qp.objective(prob, w, bm)) / (2 * h)
        assert abs(fd - gb[a]) <= 1e-5 * scale


def test_objective_midpoint_convexity():
    prob = small_problem(ridge=0.1)
    rng = SplitMix64(3)
    shape = (prob.pooling.in_dim, prob.n_features)
    for _ in range(5):
        w1 = rng.standard_normals(shape[0] * shape[1]).reshape(shape)
        w2 = rng.standard_normals(shape[0] * shape[1]).reshape(shape)
        b1 = rng.standard_normals(shape[0])
        b2 = rng.standard_normals(shape[0])
        mid = qp.objective(prob, 0.5 * (w1 + w2), 0.5 * (b1 + b2))
        assert mid <= 0.5 * qp.objective(prob, w1, b1) + 0.5 * qp.objective(prob, w2, b2) + 1e-12


def test_lipschitz_bound_hand_example():
    # single sample, single feature value 1: Phi~ = [1 1], sigma_max^2 = 2;
    # identity pooling has sigma_max^2 = 1, so L = 2 * 1 * 2 = 4
    feats = np.array([[1.0]])
    targets = np.array([[0.0]])
    prob = qp.assemble(feats, targets, Pooling(out_dim=1, mu=0))
    assert qp.lipschitz_bound(prob) == pytest.approx(4.0, rel=1e-8)
    assert qp.lipschitz_bound(prob, safety=1.5) == pytest.approx(6.0, rel=1e-8)


def test_lipschitz_bound_dominates_gradient_curvature():
    # for a quadratic, |grad(x) - grad(y)| <= L |x - y| with equality along
    # the top eigenvector; random secants must stay below the bound
    prob = small_problem(ridge=0.2)
    lip = qp.lipschitz_bound(prob)
    rng = SplitMix64(5)
    shape = (prob.pooling.in_dim, prob.n_features)
    for _ in range(4):
        w1 = rng.standard_normals(shape[0] * shape[1]).reshape(shape)
        w2 = rng.standard_normals(shape[0] * shape[1]).reshape(shape)
        b1 = rng.standard_normals(shape[0])
        b2 = rng.standard_normals(shape[0])
        g1 = qp.gradient(prob, w1, b1)
        g2 = qp.gradient(prob, w2, b2)
        num = math.sqrt(
            float(np.sum((g1[0] - g2[0]) ** 2)) + float(np.sum((g1[1] - g2[1]) ** 2))
        )
        den = math.sqrt(float(np.sum((w1 - w2) ** 2)) + float(np.sum((b1 - b2) ** 2)))
        assert num <= lip * den * (1 + 1e-9)


@pytest.mark.parametrize("ridge", [0.0, 0.3])
def test_gradient_bits_match_reference_adjoint(ridge):
    rng = SplitMix64(12)
    m, p, t, mu = 301, 6, 20, 108
    feats = rng.standard_normals(m * p).reshape(m, p)
    targets = rng.standard_normals(m * t).reshape(m, t)
    prob = qp.assemble(feats, targets, Pooling(t, mu), ridge=ridge)
    w = rng.standard_normals((t + mu) * p).reshape(t + mu, p)
    b = rng.standard_normals(t + mu)
    gw, gb = qp.gradient(prob, w, b)
    adj = pool_ref.adjoint(prob.pooling, qp.residual(prob, w, b))
    want_w = -2.0 * (adj.T @ feats)
    want_b = -2.0 * adj.sum(axis=0)
    if ridge > 0.0:
        want_w += 2.0 * ridge * w
        want_b += 2.0 * ridge * b
    assert np.array_equal(gw, want_w)
    assert np.array_equal(gb, want_b)



def test_objective_and_gradient_bits_at_the_oscillatory_first_grade():
    # grade 1 of the oscillatory desk run: p = 1 input feature, t = 20, mu = 108
    rng = SplitMix64(13)
    m, t, mu = 2001, 20, 108
    feats = np.linspace(-1.0, 1.0, m)[:, None]
    targets = rng.standard_normals(m * t).reshape(m, t)
    pool = Pooling(t, mu)
    prob = qp.assemble(feats, targets, pool)
    w = rng.standard_normals(t + mu).reshape(t + mu, 1)
    b = rng.standard_normals(t + mu)
    r = targets - pool_ref.apply(pool, feats @ w.T + b)
    assert qp.objective(prob, w, b) == float(np.sum(r * r))
    adj = pool_ref.adjoint(pool, r)
    gw, gb = qp.gradient(prob, w, b)
    assert np.array_equal(gw, -2.0 * (adj.T @ feats))
    assert np.array_equal(gb, -2.0 * adj.sum(axis=0))


def test_residual_work_array_stays_private():
    rng = SplitMix64(14)
    m, p, t, mu = 301, 6, 20, 108
    feats = rng.standard_normals(m * p).reshape(m, p)
    targets = rng.standard_normals(m * t).reshape(m, t)
    prob = qp.assemble(feats, targets, Pooling(t, mu))
    other = qp.assemble(feats, targets, Pooling(t, mu))
    params = [
        (rng.standard_normals((t + mu) * p).reshape(t + mu, p), rng.standard_normals(t + mu))
        for _ in range(3)
    ]
    first = qp.residual(prob, *params[0])
    kept = first.copy()
    qp.residual(prob, *params[1])
    qp.gradient(prob, *params[2])
    qp.objective(prob, *params[1])
    qp.residual(other, *params[2])
    assert np.array_equal(first, kept)
    assert not np.shares_memory(first, prob._work)
    assert not np.shares_memory(prob._work, other._work)
    assert np.array_equal(qp.residual(prob, *params[0]), kept)


def test_nesterov_on_a_reused_problem_matches_a_fresh_one():
    prob = small_problem(m=40, p=3, in_dim=12, t=4, seed=15)
    cfg = qp.SolverConfig(epsilon=1e-12, max_iters=60, init="randn")
    qp.nesterov_solve(prob, cfg)
    w, b, stats = qp.nesterov_solve(prob, cfg)
    fresh = qp.assemble(prob.features, prob.targets, prob.pooling)
    w0, b0, stats0 = qp.nesterov_solve(fresh, cfg)
    assert np.array_equal(w, w0) and np.array_equal(b, b0)
    assert stats.final_objective == stats0.final_objective

def test_solver_config_validation():
    with pytest.raises(ValueError):
        qp.SolverConfig(method="sgd")
    with pytest.raises(ValueError):
        qp.SolverConfig(epsilon=0.0)
    with pytest.raises(ValueError):
        qp.SolverConfig(max_iters=0)
    with pytest.raises(ValueError):
        qp.SolverConfig(lipschitz_safety=0.5)
    with pytest.raises(ValueError):
        qp.SolverConfig(init="xavier")
    with pytest.raises(ValueError):
        qp.SolverConfig(init_scale=0.0)


def test_nesterov_decreases_objective_and_stops():
    prob = small_problem()
    cfg = qp.SolverConfig(epsilon=1e-12, max_iters=4000, record_trace=True)
    w, b, stats = qp.nesterov_solve(prob, cfg)
    trace = stats.objective_trace
    assert trace[0] == pytest.approx(qp.objective(prob, np.zeros_like(w), np.zeros_like(b)))
    assert stats.final_objective <= trace[0]
    assert stats.stop_reason in ("epsilon", "max_iters")
    assert stats.lipschitz == qp.lipschitz_bound(prob)
    # final iterate is near-stationary
    assert qp.orthogonality_defect(prob, w, b) < 1e-5


def test_direct_no_worse_than_nesterov():
    for seed in (1, 2, 3):
        prob = small_problem(seed=seed)
        wd, bd, sd = qp.direct_solve(prob)
        wn, bn, sn = qp.nesterov_solve(prob, qp.SolverConfig(epsilon=1e-13, max_iters=20000))
        assert sd.final_objective <= qp.objective(prob, wn, bn) + 1e-9


def test_direct_lift_reproduces_stage_one_fit():
    # pooled predictions from the lifted (W, b) must equal the least-squares
    # fit the lift started from, so the recorded objective is the true one
    prob = small_problem(seed=4)
    w, b, stats = qp.direct_solve(prob)
    assert qp.objective(prob, w, b) == pytest.approx(stats.final_objective, rel=1e-10, abs=1e-12)
    assert stats.stop_reason == "direct"


def test_direct_requires_zero_ridge():
    prob = small_problem(ridge=0.1)
    with pytest.raises(ValueError):
        qp.direct_solve(prob)


def consistent_problem(m, p, in_dim, t, seed):
    # targets generated as an exact pooled affine image, so the minimum is
    # zero and the relative-change stop cannot fire while far from it
    rng = SplitMix64(seed)
    feats = rng.standard_normals(m * p).reshape(m, p)
    w_true = rng.standard_normals(in_dim * p).reshape(in_dim, p)
    b_true = rng.standard_normals(in_dim)
    pool = Pooling(out_dim=t, mu=in_dim - t)
    targets = pool.apply(feats @ w_true.T + b_true)
    return qp.assemble(feats, targets, pool)


def test_solvers_agree_on_pooled_predictions():
    for seed in (21, 22):
        prob = consistent_problem(m=12, p=4, in_dim=5, t=2, seed=seed)
        wd, bd, _ = qp.direct_solve(prob)
        wn, bn, _ = qp.nesterov_solve(prob, qp.SolverConfig(epsilon=1e-12, max_iters=50000))
        pred_d = prob.pooling.apply(prob.features @ wd.T + bd)
        pred_n = prob.pooling.apply(prob.features @ wn.T + bn)
        gap = np.linalg.norm(pred_d - pred_n) / max(np.linalg.norm(pred_d), 1e-300)
        assert gap < 1e-6


def test_nesterov_gap_bound():
    # J(theta_j) - J* <= 2 L ||theta_0 - theta*||^2 / (j+1)^2 with theta_0 = 0
    # and theta* the minimum-norm minimizer returned by the direct solver
    prob = small_problem(m=14, p=3, in_dim=4, t=1, seed=8)
    wd, bd, sd = qp.direct_solve(prob)
    j_star = sd.final_objective
    lip = qp.lipschitz_bound(prob)
    dist_sq = float(np.sum(wd * wd)) + float(np.sum(bd * bd))
    cfg = qp.SolverConfig(epsilon=1e-16, max_iters=1000, record_trace=True)
    _, _, stats = qp.nesterov_solve(prob, cfg)
    trace = stats.objective_trace
    for j in (10, 100, 1000):
        # a trace cut short by the stop means J froze at convergence
        jj = min(j, len(trace) - 1)
        bound = 2.0 * lip * dist_sq / (j + 1) ** 2
        assert trace[jj] - j_star <= bound + 1e-12


def test_zero_init_keeps_rows_identical():
    # with a scalar pooled output the gradient is row-constant, so the zero
    # start never separates the rows of W -- the reason random starts exist
    prob = small_problem(m=10, p=3, in_dim=4, t=1, seed=13)
    w, b, _ = qp.nesterov_solve(prob, qp.SolverConfig(epsilon=1e-12, max_iters=500))
    assert np.allclose(w, w[0], atol=1e-12)
    assert np.allclose(b, b[0], atol=1e-12)


def test_random_init_is_seeded_and_scaled():
    prob = small_problem(m=10, p=3, in_dim=4, t=1, seed=13)
    cfg_a = qp.SolverConfig(max_iters=1, init="randn", init_seed=5)
    cfg_b = qp.SolverConfig(max_iters=1, init="randn", init_seed=5)
    cfg_c = qp.SolverConfig(max_iters=1, init="randn", init_seed=6)
    wa, ba, _ = qp.nesterov_solve(prob, cfg_a)
    wb, bb, _ = qp.nesterov_solve(prob, cfg_b)
    wc, bc, _ = qp.nesterov_solve(prob, cfg_c)
    assert np.array_equal(wa, wb)
    assert not np.array_equal(wa, wc)
    # rows must differ under a random start
    assert not np.allclose(wa, wa[0])


def zero_gradient_problem(in_dim=40, p=50):
    # all-zero features and targets make the gradient vanish at the start
    # (biases begin at zero), so the solver returns its init untouched
    return qp.assemble(np.zeros((6, p)), np.zeros((6, 2)), Pooling(out_dim=2, mu=in_dim - 2))


def test_init_scale_multiplies_draw():
    prob = zero_gradient_problem()
    w1, b1, _ = qp.nesterov_solve(
        prob, qp.SolverConfig(max_iters=5, init="randn", init_seed=42)
    )
    w9, b9, _ = qp.nesterov_solve(
        prob, qp.SolverConfig(max_iters=5, init="randn", init_seed=42, init_scale=9.0)
    )
    assert np.allclose(w9, 9.0 * w1, atol=1e-12)
    assert np.all(b1 == 0.0) and np.all(b9 == 0.0)


def test_init_draw_standard_deviations():
    prob = zero_gradient_problem(in_dim=40, p=50)
    w_r, _, _ = qp.nesterov_solve(prob, qp.SolverConfig(max_iters=5, init="randn", init_seed=3))
    w_h, _, _ = qp.nesterov_solve(prob, qp.SolverConfig(max_iters=5, init="he", init_seed=3))
    assert abs(w_r.std() - 1.0) < 0.05
    # he scales the same draw by sqrt(2/fan_in)
    assert np.allclose(w_h, math.sqrt(2.0 / 50) * w_r, atol=1e-12)


def test_direct_degenerate_features_never_worse_than_zero():
    # Monomial columns up to degree 25 are numerically rank-deficient: the
    # truncated SVD cuts the columns below CUTOFF, says so in the note, and
    # projects onto the left singular vectors it keeps.
    x = np.linspace(-1.0, 1.0, 200)
    feats = np.column_stack([x**j for j in range(1, 26)])
    targets = SplitMix64(33).standard_normals(200).reshape(200, 1)
    prob = qp.assemble(feats, targets, Pooling(out_dim=1, mu=4), 0.0)
    w, b, stats = qp.direct_solve(prob)
    f1 = np.column_stack([feats, np.ones(200)])
    u, sv, _ = np.linalg.svd(f1, full_matrices=False)
    kept = sv > qp.CUTOFF * sv[0]
    rank = int(np.count_nonzero(kept))
    assert rank < 26
    assert stats.note == f"rank {rank} of 26"
    assert stats.iterations == 0
    assert np.all(np.isfinite(w)) and np.all(np.isfinite(b))
    assert stats.final_objective <= float(np.sum(targets * targets))
    r = targets - prob.pooling.apply(feats @ w.T + b)
    assert np.max(np.abs(u[:, kept].T @ r)) <= 1e-10 * np.linalg.norm(targets)


def test_direct_full_rank_matches_lstsq():
    rng = SplitMix64(34)
    m, p, t, mu = 200, 5, 3, 4
    feats = rng.standard_normals(m * p).reshape(m, p)
    targets = rng.standard_normals(m * t).reshape(m, t)
    prob = qp.assemble(feats, targets, Pooling(out_dim=t, mu=mu), 0.0)
    w, b, stats = qp.direct_solve(prob)
    assert stats.note == ""
    # the lift keeps P [W b] = sol^T
    sol = (prob.pooling.matrix() @ np.column_stack([w, b])).T
    f1 = np.column_stack([feats, np.ones(m)])
    want = np.linalg.lstsq(f1, targets, rcond=None)[0]
    assert np.allclose(sol, want, rtol=0.0, atol=1e-10 * np.max(np.abs(want)))


def test_orthogonality_defect_small_at_optimum_large_away():
    prob = small_problem(seed=17)
    w, b, _ = qp.direct_solve(prob)
    assert qp.orthogonality_defect(prob, w, b) < 1e-9
    assert qp.orthogonality_defect(prob, w + 0.5, b) > 1e-3


def test_ridge_shrinks_weights():
    feats = SplitMix64(30).standard_normals(40).reshape(20, 2)
    targets = SplitMix64(31).standard_normals(20).reshape(20, 1)
    pool = Pooling(out_dim=1, mu=2)
    free = qp.assemble(feats, targets, pool, ridge=0.0)
    ridged = qp.assemble(feats, targets, pool, ridge=50.0)
    cfg = qp.SolverConfig(epsilon=1e-13, max_iters=20000)
    wf, bf, _ = qp.nesterov_solve(free, cfg)
    wr, br, _ = qp.nesterov_solve(ridged, cfg)
    norm_f = np.sum(wf * wf) + np.sum(bf * bf)
    norm_r = np.sum(wr * wr) + np.sum(br * br)
    assert norm_r < norm_f


def _assert_close(got, want):
    # entries of W that cancel to near zero keep the rounding of their
    # larger terms, so the tolerance is relative to the largest entry too
    got, want = np.asarray(got), np.asarray(want)
    np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-10 * np.abs(want).max())


def slow_single_output_problem(mu, ridge):
    # monomial features are badly conditioned, so the objective still falls
    # well above rounding when either stop fires, and a rounding difference
    # cannot move the stop
    x = np.linspace(0.0, 1.0, 60)
    feats = x[:, None] ** np.arange(1, 8)
    targets = np.abs(x - 0.3)[:, None]
    return qp.assemble(feats, targets, Pooling(out_dim=1, mu=mu), ridge=ridge)


@pytest.mark.parametrize("ridge", [0.0, 0.3])
@pytest.mark.parametrize("init", ["zero", "he", "randn"])
@pytest.mark.parametrize("mu", [0, 2, 99])
def test_single_output_mean_row_matches_full_iteration(ridge, init, mu):
    # one pooled output runs on the mean row; it must take the full
    # iteration's steps: the same count and stop, the same iterates and
    # trace up to rounding
    prob = slow_single_output_problem(mu, ridge)
    for epsilon, max_iters in ((1e-4, 400), (1e-16, 30)):
        cfg = qp.SolverConfig(
            epsilon=epsilon, max_iters=max_iters, ridge=ridge, init=init, init_seed=4,
            record_trace=True,
        )
        w, b, stats = qp.nesterov_solve(prob, cfg)
        w0, b0, stats0 = nesterov_ref.nesterov_solve(prob, cfg)
        assert (stats.iterations, stats.stop_reason) == (stats0.iterations, stats0.stop_reason)
        assert stats.lipschitz == stats0.lipschitz
        assert w.shape == w0.shape and b.shape == b0.shape
        _assert_close(w, w0)
        _assert_close(b, b0)
        _assert_close(stats.objective_trace, stats0.objective_trace)
        assert stats.final_objective == stats.objective_trace[-1]
        assert qp.objective(prob, w, b) == pytest.approx(stats.final_objective, rel=1e-10)
    assert stats.stop_reason == "max_iters"


def test_single_output_mean_row_at_the_kinked_shape():
    # 1001 rows, 100 features, 100 inputs to one output, a capped randn solve
    rng = SplitMix64(17)
    feats = np.sin(rng.standard_normals(1001 * 100).reshape(1001, 100))
    targets = np.abs(np.linspace(-1.0, 1.0, 1001))[:, None]
    prob = qp.assemble(feats, targets, Pooling(out_dim=1, mu=99))
    cfg = qp.SolverConfig(epsilon=1e-7, max_iters=250, init="randn", record_trace=True)
    w, b, stats = qp.nesterov_solve(prob, cfg)
    w0, b0, stats0 = nesterov_ref.nesterov_solve(prob, cfg)
    assert (stats.iterations, stats.stop_reason) == (stats0.iterations, stats0.stop_reason)
    _assert_close(w, w0)
    _assert_close(b, b0)
    _assert_close(stats.objective_trace, stats0.objective_trace)


@pytest.mark.parametrize("t", [2, 20])
@pytest.mark.parametrize("ridge", [0.0, 0.3])
def test_wide_pooling_runs_the_full_iteration_bit_for_bit(t, ridge):
    prob = small_problem(m=30, p=5, in_dim=t + 6, t=t, ridge=ridge, seed=9)
    cfg = qp.SolverConfig(epsilon=1e-12, max_iters=80, ridge=ridge, init="randn", record_trace=True)
    w, b, stats = qp.nesterov_solve(prob, cfg)
    w0, b0, stats0 = nesterov_ref.nesterov_solve(prob, cfg)
    assert np.array_equal(w, w0) and np.array_equal(b, b0)
    assert stats == stats0


def test_single_output_iteration_never_pools(monkeypatch):
    prob = small_problem(m=20, p=4, in_dim=6, t=1, seed=5)
    lip = qp.lipschitz_bound(prob)
    cfg = qp.SolverConfig(epsilon=1e-12, max_iters=50, init="he")
    want = qp.nesterov_solve(prob, cfg)

    def refuse(*args, **kwargs):
        raise AssertionError("the single-output iteration pooled or took a full-(W, b) step")

    monkeypatch.setattr(qp, "lipschitz_bound", lambda problem, safety=1.0: lip)
    for name in ("apply", "adjoint"):
        monkeypatch.setattr(Pooling, name, refuse)
    for name in ("residual", "objective", "gradient"):
        monkeypatch.setattr(qp, name, refuse)
    w, b, stats = qp.nesterov_solve(prob, cfg)
    assert np.array_equal(w, want[0]) and np.array_equal(b, want[1])
    assert stats == want[2]
