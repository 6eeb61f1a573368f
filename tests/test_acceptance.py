"""Acceptance suite: one test per committed behavior of the package.

Every test measures its quantity, prints a single PASS/FAIL line with the
observed values (visible with ``pytest -s``), and asserts the stated
tolerance.  The desk-scale runs behind criteria 7, 8, and 11 dominate the
total runtime (several minutes on one core); everything else finishes in
seconds.
"""

import json
import time

import numpy as np
import pytest

from sal_learn import mlp, qp
from sal_learn.cli import main
from sal_learn.data import Dataset, make_test, make_train, target_nondiff, target_oscillatory
from sal_learn.model import RELU, SINCOS_HALF, TANH, Pooling, sq_norm
from sal_learn.rng import SplitMix64
from sal_learn.smoothing import Smoother, TauMultiples, quadrature, smooth_at, smooth_grid
from sal_learn.train import GradeConfig, TrainConfig, rse, train_sal

DIRECT = qp.SolverConfig(method="direct")


def report_line(num, name, ok, detail):
    line = f"{'PASS' if ok else 'FAIL'} criterion {num:2d} ({name}): {detail}"
    print(line)
    return line


# --- shared instance builders -------------------------------------------


def projection_instance(i):
    """Small random instance i of 20: m=50 scalar inputs, t outputs, width t+mu."""
    t, mu = [(1, 0), (1, 2), (3, 0), (3, 2)][i % 4]
    rng = SplitMix64(100 + i)
    x = np.sort(rng.uniforms(50) * 2.0 - 1.0)
    targets = rng.standard_normals(50 * t).reshape(50, t)
    ds = Dataset(x[:, None], targets, "random", -1.0, 1.0)
    return ds, t, mu


def consistent_problem(m, p, in_dim, t, seed):
    # targets are an exact pooled affine image of the features, so the
    # minimum is zero and the relative-change stop cannot fire early
    rng = SplitMix64(seed)
    feats = rng.standard_normals(m * p).reshape(m, p)
    w_true = rng.standard_normals(in_dim * p).reshape(in_dim, p)
    b_true = rng.standard_normals(in_dim)
    pool = Pooling(out_dim=t, mu=in_dim - t)
    targets = pool.apply(feats @ w_true.T + b_true)
    return qp.assemble(feats, targets, pool)


# --- desk-scale comparison fixture (criteria 7 and 11) -------------------


def desk_sal_grades():
    """Eight grades, width 100: oscillatory random features on the first two,
    ReLU afterwards, with a tau ladder driving the smoothing."""
    taus = [0.0, 6e-3, 6e-3, 6e-3, 3e-3, 3e-3, 1e-3, 1e-3]
    acts = ["sincos_half"] * 2 + ["relu"] * 6
    inits = ["randn"] * 2 + ["he"] * 6
    grades = []
    for tau, act, init in zip(taus, acts, inits):
        g = {
            "width": 100,
            "activation": act,
            "method": "nesterov",
            "epsilon": 1e-7,
            "max_iters": 5000,
            "init": init,
        }
        if tau > 0.0:
            g["tau"] = tau
            g["window"] = {"mode": "grid_steps", "count": 100, "step": 4e-4}
            g["quad_points"] = 201
        grades.append(g)
    return grades


@pytest.fixture(scope="session")
def desk_compare(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("desk")
    doc = {
        "data": {"target": "nondiff", "m": 1001, "delta": 0.1},
        "sal": {"grades": desk_sal_grades()},
        "ssg": {
            "widths": [50] * 6,
            "activations": ["sincos_half"] * 2 + ["relu"] * 4,
            "alpha": 1e-3,
            "epochs": 5000,
        },
        "compare": {"thresholds": [1e-2, 1e-3]},
    }
    cfg = tmp / "desk.json"
    cfg.write_text(json.dumps(doc, indent=1))
    code = main(["compare", "--config", str(cfg), "--out", str(tmp)])
    rows = [r.split(",") for r in (tmp / "compare.csv").read_text().strip().split("\n")]
    summary = (tmp / "compare_summary.txt").read_text()
    return {"code": code, "rows": rows, "summary": summary}


# --- criteria -------------------------------------------------------------


def test_c01_projection_orthogonality():
    t0 = time.perf_counter()
    worst = 0.0
    for i in range(20):
        ds, t, mu = projection_instance(i)
        cfg = TrainConfig(grades=[GradeConfig(width=t + mu, solver=DIRECT) for _ in range(2)])
        model, _ = train_sal(ds, cfg)
        residual = ds.targets.copy()
        for k in range(2):
            comp = model.component_values(k, ds.inputs)
            nxt = residual - comp
            ratio = abs(float(np.sum(nxt * comp))) / sq_norm(residual)
            worst = max(worst, ratio)
            residual = nxt
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-8 and elapsed < 10.0
    line = report_line(1, "orthogonality", ok, f"max |<e,f>|/|e_prev|^2 = {worst:.2e} (tol 1e-8), {elapsed:.2f} s")
    assert ok, line


def test_c02_pythagorean_identity():
    worst = 0.0
    for i in range(20):
        ds, t, mu = projection_instance(i)
        cfg = TrainConfig(grades=[GradeConfig(width=t + mu, solver=DIRECT) for _ in range(2)])
        model, _ = train_sal(ds, cfg)
        residual = ds.targets.copy()
        for k in range(2):
            comp = model.component_values(k, ds.inputs)
            nxt = residual - comp
            gap = abs(sq_norm(residual) - sq_norm(nxt) - sq_norm(comp)) / sq_norm(residual)
            worst = max(worst, gap)
            residual = nxt
    ok = worst <= 1e-8
    line = report_line(2, "pythagorean", ok, f"max relative defect = {worst:.2e} (tol 1e-8)")
    assert ok, line


def test_c03_partial_parseval_five_grades():
    worst = 0.0
    runs = [make_train(target_nondiff(), -1.0, 1.0, 0.0, 50)]
    runs += [projection_instance(i)[0] for i in (2, 7)]
    for ds in runs:
        t = ds.targets.shape[1]
        cfg = TrainConfig(grades=[GradeConfig(width=t + 4, solver=DIRECT) for _ in range(5)])
        model, _ = train_sal(ds, cfg)
        total = sq_norm(ds.targets)
        comps = sum(sq_norm(model.component_values(k, ds.inputs)) for k in range(5))
        tail = sq_norm(ds.targets - model.predict(ds.inputs))
        worst = max(worst, abs(total - comps - tail) / total)
    ok = worst <= 1e-7
    line = report_line(3, "partial parseval", ok, f"max relative defect = {worst:.2e} (tol 1e-7)")
    assert ok, line


def test_c04_rse_monotone_both_targets():
    worst = 0.0
    for tgt, a, b, m in (
        (target_nondiff(), -1.0, 1.0, 120),
        (target_oscillatory(), 0.0, 1.0, 80),
    ):
        ds = make_train(tgt, a, b, 0.0, m)
        width = max(8, tgt.output_dim + 2)
        cfg = TrainConfig(grades=[GradeConfig(width=width, solver=DIRECT) for _ in range(4)])
        _, report = train_sal(ds, cfg)
        values = [r.rse_train for r in report.records]
        for prev, cur in zip(values, values[1:]):
            worst = max(worst, (cur - prev) / prev)
    ok = worst <= 1e-12
    line = report_line(4, "rse monotonicity", ok, f"max relative increase = {worst:.2e} (tol 1e-12)")
    assert ok, line


def test_c05_solver_equivalence_and_rate():
    shapes = [
        (12, 4, 5, 2), (14, 3, 4, 1), (20, 5, 6, 3), (10, 3, 3, 1), (16, 4, 6, 2),
        (25, 6, 7, 3), (12, 4, 4, 2), (18, 5, 5, 1), (22, 3, 6, 3), (15, 4, 5, 2),
    ]
    t0 = time.perf_counter()
    worst_gap = 0.0
    worst_excess = -np.inf
    for i, (m, p, d, t) in enumerate(shapes):
        prob = consistent_problem(m, p, d, t, 300 + i)
        wd, bd, sd = qp.direct_solve(prob)
        cfg = qp.SolverConfig(epsilon=1e-12, max_iters=50000, record_trace=True)
        wn, bn, sn = qp.nesterov_solve(prob, cfg)
        pred_d = prob.pooling.apply(prob.features @ wd.T + bd)
        pred_n = prob.pooling.apply(prob.features @ wn.T + bn)
        gap = np.linalg.norm(pred_d - pred_n) / np.linalg.norm(pred_d)
        worst_gap = max(worst_gap, gap)
        # J_j - J* <= 2 L |theta*|^2 / (j+1)^2 with the zero start; a trace
        # cut short by the stop means the objective froze at convergence
        lip = qp.lipschitz_bound(prob)
        dist_sq = float(np.sum(wd * wd)) + float(np.sum(bd * bd))
        trace = sn.objective_trace
        for j in (10, 100, 1000):
            jj = min(j, len(trace) - 1)
            bound = 2.0 * lip * dist_sq / (j + 1) ** 2
            worst_excess = max(worst_excess, trace[jj] - sd.final_objective - bound)
    elapsed = time.perf_counter() - t0
    ok = worst_gap <= 1e-6 and worst_excess <= 1e-12 and elapsed < 60.0
    line = report_line(
        5, "solver equivalence", ok,
        f"max prediction gap = {worst_gap:.2e} (tol 1e-6), "
        f"rate-bound excess = {worst_excess:.2e}, {elapsed:.1f} s",
    )
    assert ok, line


def test_c06_gradient_oracles():
    h = 1e-6
    worst = 0.0

    # convex-stage gradients on every problem shape used by the unit tests
    qp_shapes = [
        (9, 3, 4, 2, 0.0), (9, 3, 4, 2, 0.3), (14, 3, 4, 1, 0.0),
        (12, 5, 7, 3, 0.0), (10, 4, 5, 2, 0.0),
    ]
    for m, p, d, t, ridge in qp_shapes:
        rng = SplitMix64(40 + m)
        feats = rng.standard_normals(m * p).reshape(m, p)
        targets = rng.standard_normals(m * t).reshape(m, t)
        prob = qp.assemble(feats, targets, Pooling(out_dim=t, mu=d - t), ridge=ridge)
        w = rng.standard_normals(d * p).reshape(d, p)
        b = rng.standard_normals(d)
        gw, gb = qp.gradient(prob, w, b)
        scale = max(1.0, abs(qp.objective(prob, w, b)))
        for idx in [(0, 0), (d - 1, p - 1), (d // 2, p // 2)]:
            wp, wm = w.copy(), w.copy()
            wp[idx] += h
            wm[idx] -= h
            fd = (qp.objective(prob, wp, b) - qp.objective(prob, wm, b)) / (2 * h)
            worst = max(worst, abs(fd - gw[idx]) / scale)
        bp, bm = b.copy(), b.copy()
        bp[0] += h
        bm[0] -= h
        fd = (qp.objective(prob, w, bp) - qp.objective(prob, w, bm)) / (2 * h)
        worst = max(worst, abs(fd - gb[0]) / scale)

    # baseline backprop on the architectures the unit tests exercise
    rng = SplitMix64(4)
    nets = [
        (2, [4, 3], 2, [SINCOS_HALF, RELU], 8),
        (1, [5], 1, [TANH], 9),
        (3, [], 2, [], 10),
    ]
    for s, widths, t, acts, seed in nets:
        x = rng.standard_normals(6 * s).reshape(6, s)
        y = rng.standard_normals(6 * t).reshape(6, t)
        params = mlp.he_init(s, widths, t, acts, SplitMix64(seed))
        if any(a.kind == "relu" for a in acts):
            _, pre_acts, _ = params.forward(x)
            assert min(np.min(np.abs(p)) for p in pre_acts[1:-1]) > 1e-4
        loss0, gw, gb = mlp.loss_and_grads(params, x, y)
        scale = max(1.0, abs(loss0))
        n_layers = len(params.weights)
        for layer in range(n_layers):
            wp = [wi.copy() for wi in params.weights]
            wm = [wi.copy() for wi in params.weights]
            wp[layer][0, 0] += h
            wm[layer][0, 0] -= h
            pp = mlp.MlpParams(wp, [bi.copy() for bi in params.biases], params.activations)
            pm = mlp.MlpParams(wm, [bi.copy() for bi in params.biases], params.activations)
            fd = (mlp.loss_and_grads(pp, x, y)[0] - mlp.loss_and_grads(pm, x, y)[0]) / (2 * h)
            worst = max(worst, abs(fd - gw[layer][0, 0]) / scale)
            bp = [bi.copy() for bi in params.biases]
            bm = [bi.copy() for bi in params.biases]
            bp[layer][-1] += h
            bm[layer][-1] -= h
            pp = mlp.MlpParams([wi.copy() for wi in params.weights], bp, params.activations)
            pm = mlp.MlpParams([wi.copy() for wi in params.weights], bm, params.activations)
            fd = (mlp.loss_and_grads(pp, x, y)[0] - mlp.loss_and_grads(pm, x, y)[0]) / (2 * h)
            worst = max(worst, abs(fd - gb[layer][-1]) / scale)

    ok = worst <= 1e-5
    line = report_line(6, "gradient oracles", ok, f"max FD mismatch = {worst:.2e} (tol 1e-5)")
    assert ok, line


def sal_rows(rows):
    return [r for r in rows[1:] if r[0] == "sal"]


@pytest.mark.slow
def test_c07_desk_scale_kinked_target(desk_compare):
    rows = sal_rows(desk_compare["rows"])
    first = float(rows[0][3])
    final = float(rows[-1][3])
    sal_time = float(rows[-1][2])
    ok = (
        desk_compare["code"] == 0
        and len(rows) == 8
        and 0.05 <= first <= 0.5
        and final <= 1e-3
        and sal_time < 600.0
    )
    line = report_line(
        7, "desk run, kinked target", ok,
        f"grade-1 rse = {first:.3e} (band [0.05, 0.5]), final rse = {final:.3e} "
        f"(tol 1e-3), train time {sal_time:.0f} s (< 600)",
    )
    assert ok, line


def oscillatory_desk_grades(init_seed=1):
    """The c08 cascade: one randn Nesterov grade, then five smoothed direct grades."""
    grades = [
        GradeConfig(
            width=128,
            activation=SINCOS_HALF,
            solver=qp.SolverConfig(
                method="nesterov",
                epsilon=1e-7,
                max_iters=1000,
                init="randn",
                init_seed=init_seed,
                init_scale=110.0,
            ),
        )
    ]
    for tau in (5e-3, 4e-3, 3e-3, 2e-3, 1e-3):
        grades.append(
            GradeConfig(
                width=128,
                activation=RELU,
                tau=tau,
                window=TauMultiples(6.0),
                quad_points=200,
                solver=DIRECT,
            )
        )
    return grades


@pytest.mark.slow
def test_c08_desk_scale_oscillatory_target():
    ds = make_train(target_oscillatory(), 0.0, 1.0, 0.0, 2001)
    t0 = time.perf_counter()
    _, report = train_sal(ds, TrainConfig(grades=oscillatory_desk_grades()))
    elapsed = time.perf_counter() - t0
    first = report.records[0].rse_train
    final = report.records[-1].rse_train
    ok = final <= 1e-3 * first and elapsed < 900.0
    line = report_line(
        8, "desk run, oscillatory target", ok,
        f"rse {first:.3e} -> {final:.3e} ({first / final:.1e}x, need >= 1e3), {elapsed:.0f} s",
    )
    assert ok, line


@pytest.mark.slow
def test_c08_cascade_at_seed_3_keeps_its_test_rse():
    # The oscillatory benchmark at --seed 3 (init seed 3, 500 test points
    # drawn with seed 3).  A direct grade that resolves near-zero singular
    # values of its features fits coefficients that blow up between the
    # grid points, where the test points fall: CG on the normal equations
    # ended this run at a test rse of 2.1e-4, where other seeds end near 3e-6.
    target = target_oscillatory()
    ds = make_train(target, 0.0, 1.0, 0.0, 2001)
    test = make_test(target, 0.0, 1.0, 500, 3)
    _, report = train_sal(ds, TrainConfig(grades=oscillatory_desk_grades(3)), test=test)
    final = report.records[-1].rse_test
    ok = final <= 1e-5
    line = report_line(8, "oscillatory cascade, seed 3", ok, f"final rse_test = {final:.3e} (<= 1e-5)")
    assert ok, line


def test_c09_rse_trivial_values():
    y = np.array([[1.0], [2.0], [-2.0]])
    checks = (rse(y, y), rse(np.zeros_like(y), y), rse(2.0 * y, y))
    ok = checks == (0.0, 1.0, 1.0)
    line = report_line(9, "rse metric", ok, f"(0, 1, 1) examples -> {checks}")
    assert ok, line


def test_c10_smoothing_quadrature():
    c = 2.5
    const = lambda xs: np.full((len(xs), 1), c)
    raw = Smoother(tau=3e-3, window=TauMultiples(6.0), quad_points=200)
    _, weights = quadrature(raw)
    sum_err = abs(weights.sum() - 1.0)
    const_err = abs(smooth_at(const, raw, 0.1)[0] - c) / c

    norm = Smoother(tau=3e-3, window=TauMultiples(6.0), quad_points=200, renormalize=True)
    exact = smooth_at(const, norm, 0.1)[0] == c

    grid = np.linspace(-1.0, 1.0, 201)
    f_vals = np.sin(3.0 * grid)
    ident = Smoother(tau=(grid[1] - grid[0]) / 10, window=TauMultiples(8.0), quad_points=160, renormalize=True)
    sm_vals = smooth_grid(f_vals, ident, grid)
    ident_err = np.linalg.norm(sm_vals - f_vals) / np.linalg.norm(f_vals)

    ok = sum_err <= 1e-3 and const_err <= 1e-3 and exact and ident_err <= 1e-3
    line = report_line(
        10, "smoothing quadrature", ok,
        f"weight-sum defect {sum_err:.2e} (tol 1e-3), constants exact: {exact}, "
        f"identity-limit error {ident_err:.2e} (tol 1e-3)",
    )
    assert ok, line


@pytest.mark.slow
def test_c11_baseline_sanity_and_ordering(desk_compare):
    summary = desk_compare["summary"].strip().split("\n")
    line_2 = next(l for l in summary if l.startswith("rse <= 1.00000e-02"))
    line_3 = next(l for l in summary if l.startswith("rse <= 1.00000e-03"))
    ssg_part = line_2.split(";")[1]
    ssg_reached_coarse = "not reached" not in ssg_part
    epoch = int(ssg_part.split("epoch")[1].strip(" )")) if ssg_reached_coarse else -1
    sal_first_fine = "first to reach: sal" in line_3
    ok = desk_compare["code"] == 0 and ssg_reached_coarse and epoch <= 5000 and sal_first_fine
    line = report_line(
        11, "baseline sanity + ordering", ok,
        f"ssg hit 1e-2 at epoch {epoch} (<= 5000); 1e-3 line: '{line_3.split(': sal')[0]}' "
        f"first to reach = {'sal' if sal_first_fine else 'NOT sal'}",
    )
    assert ok, line


def test_c12_determinism(tmp_path, capsys):
    def masked(path):
        rows = [r.split(",") for r in path.read_text().strip().split("\n")]
        idx = rows[0].index("train_time_s")
        for row in rows[1:]:
            row[idx] = "masked"
        return rows

    sal_cfg = tmp_path / "sal.json"
    sal_cfg.write_text(json.dumps({
        "data": {"target": "nondiff", "m": 41, "m_test": 11},
        "sal": {"grades": [
            {"width": 6, "method": "nesterov", "init": "randn", "max_iters": 60},
            {"width": 6, "activation": "sincos_half", "method": "direct"},
        ]},
    }))
    ssg_cfg = tmp_path / "ssg.json"
    ssg_cfg.write_text(json.dumps({
        "data": {"target": "nondiff", "m": 41},
        "ssg": {"widths": [5], "epochs": 30, "alpha": 1e-2},
    }))

    same = True
    for cmd, cfg, csv_name, model_name in (
        ("train-sal", sal_cfg, "sal_report.csv", "sal_model.json"),
        ("train-ssg", ssg_cfg, "ssg_report.csv", "ssg_model.json"),
    ):
        outs = []
        for run in ("r1", "r2"):
            out = tmp_path / f"{cmd}-{run}"
            assert main([cmd, "--config", str(cfg), "--out", str(out)]) == 0
            outs.append(out)
        same &= masked(outs[0] / csv_name) == masked(outs[1] / csv_name)
        same &= (outs[0] / model_name).read_bytes() == (outs[1] / model_name).read_bytes()

    capsys.readouterr()  # drop the CLI's own "wrote ..." chatter
    line = report_line(12, "determinism", same, "CSV (time masked) and model files byte-identical: "
                       f"{same}")
    assert same, line
