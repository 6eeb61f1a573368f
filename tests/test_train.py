import numpy as np
import pytest

import chain_reference as ref
import pooling_reference as pool_ref
from sal_learn import mlp, qp, smoothing
from sal_learn.data import Dataset, make_test, make_train, target_nondiff, target_oscillatory
from sal_learn.model import BLOCK_ROWS, IDENTITY, RELU, SINCOS_HALF, TANH, Activation, Model, Pooling, sq_norm
from sal_learn.model import model_to_dict
from sal_learn.train import (
    GradeConfig,
    TrainConfig,
    TrainError,
    rse,
    select_activation,
    train_sal,
)

DIRECT = qp.SolverConfig(method="direct")


def affine_dataset(m=40):
    x = np.linspace(-1.0, 1.0, m)
    return Dataset(x[:, None], (2.0 * x + 1.0)[:, None], "train_grid", -1.0, 1.0)


def test_rse_trivial_values():
    y = np.array([[1.0], [2.0], [-2.0]])
    assert rse(y, y) == 0.0
    assert rse(np.zeros_like(y), y) == 1.0
    assert rse(2.0 * y, y) == 1.0
    with pytest.raises(ValueError):
        rse(y, np.zeros_like(y))


def test_rse_rejects_mismatched_shapes():
    y = np.arange(1.0, 7.0).reshape(3, 2)
    with pytest.raises(ValueError, match=r"\(3, 1\).*\(3, 2\)"):
        rse(y[:, :1], y)  # would broadcast to (3, 2)
    with pytest.raises(ValueError):
        rse(y[:2], y)


def test_single_grade_fits_affine_target_exactly():
    ds = affine_dataset()
    cfg = TrainConfig(grades=[GradeConfig(width=3, activation=RELU, solver=DIRECT)])
    model, report = train_sal(ds, cfg)
    assert report.records[0].rse_train < 1e-28
    assert np.allclose(model.predict(ds.inputs), ds.targets, atol=1e-13)


def test_pythagorean_identity_per_grade():
    ds = make_train(target_nondiff(), -1.0, 1.0, 0.0, 60)
    cfg = TrainConfig(grades=[GradeConfig(width=8, solver=DIRECT) for _ in range(3)])
    model, report = train_sal(ds, cfg)
    residual = ds.targets.copy()
    for k in range(3):
        comp = model.component_values(k, ds.inputs)
        nxt = residual - comp
        lhs = sq_norm(residual)
        rhs = sq_norm(nxt) + sq_norm(comp)
        assert abs(lhs - rhs) <= 1e-8 * lhs
        residual = nxt


def test_partial_parseval_after_five_grades():
    ds = make_train(target_nondiff(), -1.0, 1.0, 0.0, 50)
    cfg = TrainConfig(grades=[GradeConfig(width=6, solver=DIRECT) for _ in range(5)])
    model, report = train_sal(ds, cfg)
    total = sq_norm(ds.targets)
    comp_sum = sum(sq_norm(model.component_values(k, ds.inputs)) for k in range(5))
    final_res = sq_norm(ds.targets - model.predict(ds.inputs))
    assert abs(total - comp_sum - final_res) <= 1e-7 * total


def test_rse_monotone_across_grades_both_targets():
    for tgt, a, b in ((target_nondiff(), -1.0, 1.0), (target_oscillatory(), 0.0, 1.0)):
        ds = make_train(tgt, a, b, 0.0, 80)
        width = max(6, tgt.output_dim + 2)
        cfg = TrainConfig(grades=[GradeConfig(width=width, solver=DIRECT) for _ in range(4)])
        _, report = train_sal(ds, cfg)
        values = [r.rse_train for r in report.records]
        for prev, cur in zip(values, values[1:]):
            assert cur <= prev * (1.0 + 1e-12)


def test_residual_never_worsens_with_direct_solver():
    # the zero map is feasible, so the exact minimizer cannot lose energy
    ds = make_train(target_nondiff(), -1.0, 1.0, 0.0, 30)
    cfg = TrainConfig(grades=[GradeConfig(width=4, solver=DIRECT)])
    _, report = train_sal(ds, cfg)
    assert report.records[0].rse_train <= 1.0 + 1e-12


def test_select_activation_recovers_generating_member():
    rng = np.random.default_rng(0)
    pre = rng.normal(size=(25, 4))
    pooling = Pooling(out_dim=2, mu=2)
    basis = [RELU, SINCOS_HALF, IDENTITY]
    residual = pooling.apply(SINCOS_HALF(pre))
    alpha, flagged = select_activation(basis, pre, pooling, residual)
    assert not flagged
    assert np.allclose(alpha, [0.0, 1.0, 0.0], atol=1e-10)


def test_select_activation_flags_singular_gram():
    rng = np.random.default_rng(1)
    pre = rng.normal(size=(10, 3))
    pooling = Pooling(out_dim=1, mu=2)
    basis = [RELU, RELU]  # identical columns -> rank-1 gram
    residual = pooling.apply(RELU(pre))
    alpha, flagged = select_activation(basis, pre, pooling, residual)
    assert flagged
    # minimum-norm split puts half the unit weight on each copy
    assert np.allclose(alpha, [0.5, 0.5], atol=1e-10)
    combined = sum(a * pooling.apply(act(pre)) for a, act in zip(alpha, basis))
    assert np.allclose(combined, residual, atol=1e-10)


def test_grade_records_carry_solver_outcome():
    x = np.linspace(-1.0, 1.0, 40)
    ds = Dataset(x[:, None], np.abs(x)[:, None], "train_grid", -1.0, 1.0)
    capped = qp.SolverConfig(epsilon=1e-15, max_iters=3, init="randn")
    cfg = TrainConfig(
        grades=[
            GradeConfig(width=3, activation=RELU, solver=capped),
            GradeConfig(width=3, activation=[RELU, RELU], solver=DIRECT),
        ]
    )
    _, report = train_sal(ds, cfg)
    first, second = report.records
    assert (first.stop_reason, first.iterations, first.note) == ("max_iters", 3, "")
    assert first.lipschitz > 0.0 and first.objective > 0.0
    assert second.stop_reason == "direct"
    assert "singular activation gram" in second.note
    assert second.lipschitz is None and second.objective >= 0.0


def test_activation_selection_inside_training():
    ds = make_train(target_nondiff(), -1.0, 1.0, 0.0, 40)
    cfg = TrainConfig(
        grades=[GradeConfig(width=5, activation=[RELU, SINCOS_HALF], solver=DIRECT)]
    )
    model, _ = train_sal(ds, cfg)
    act = model.grades[0].activation
    assert act.kind == "combination"
    assert len(act.weights) == 2


def test_component_smoothing_attaches_smoother():
    ds = make_train(target_nondiff(), -1.0, 1.0, 0.0, 60)
    win = smoothing.GridSteps(5, ds.inputs[1, 0] - ds.inputs[0, 0])
    cfg = TrainConfig(
        grades=[
            GradeConfig(width=4, solver=DIRECT),
            GradeConfig(width=4, tau=2e-3, window=win, quad_points=40, solver=DIRECT),
        ]
    )
    model, report = train_sal(ds, cfg)
    assert model.grades[0].smoother is None
    assert model.grades[1].smoother is not None
    assert model.grades[1].smoother.tau == 2e-3
    # prediction includes the smoothed component and matches the recorded rse
    pred = model.predict(ds.inputs)
    assert rse(pred, ds.targets) == pytest.approx(report.records[-1].rse_train, rel=1e-10)


def test_residual_smoothing_smooths_the_residual_not_the_model():
    ds = make_train(target_nondiff(), -1.0, 1.0, 0.0, 60)
    win = smoothing.GridSteps(5, ds.inputs[1, 0] - ds.inputs[0, 0])
    raw = GradeConfig(width=4, solver=DIRECT)
    smoothed = GradeConfig(
        width=4,
        tau=2e-3,
        window=win,
        quad_points=40,
        smoothing_target="residual",
        solver=DIRECT,
    )
    model_raw, report_raw = train_sal(ds, TrainConfig(grades=[raw]))
    model_sm, report_sm = train_sal(ds, TrainConfig(grades=[smoothed]))
    # same fitted grade either way; only the bookkeeping residual differs
    assert model_sm.grades[0].smoother is None
    assert np.allclose(model_sm.grades[0].weight, model_raw.grades[0].weight)
    assert report_sm.records[0].rse_train != report_raw.records[0].rse_train


def test_train_error_carries_partial_state():
    ds = make_train(target_oscillatory(), 0.0, 1.0, 0.0, 50)
    good = GradeConfig(width=24, solver=DIRECT)
    bad = GradeConfig(width=4, solver=DIRECT)  # width < 20 outputs
    with pytest.raises(TrainError) as exc_info:
        train_sal(ds, TrainConfig(grades=[good, bad]))
    err = exc_info.value
    assert "grade 2 failed" in str(err)
    assert "width 4" in str(err)
    assert len(err.model.grades) == 1
    assert len(err.report.records) == 1


def test_grade_config_validation():
    with pytest.raises(ValueError):
        GradeConfig(width=0)
    with pytest.raises(ValueError):
        GradeConfig(width=3, tau=-1.0)
    with pytest.raises(ValueError):
        GradeConfig(width=3, tau=0.1)  # window missing
    with pytest.raises(ValueError):
        GradeConfig(width=3, smoothing_target="sideways")
    with pytest.raises(ValueError):
        TrainConfig(grades=[])


def test_train_sal_does_not_mutate_caller_config():
    ds = affine_dataset()
    grades = [
        GradeConfig(width=3, solver=qp.SolverConfig(max_iters=50, init="randn", init_seed=5))
        for _ in range(2)
    ]
    cfg = TrainConfig(grades=grades)
    train_sal(ds, cfg)
    assert grades[0].solver.init_seed == 5
    assert grades[1].solver.init_seed == 5


def test_random_starts_differ_between_equal_grades():
    # both grades share a config; the per-grade seed bump must keep their
    # fitted weight rows from being copies of each other
    ds = make_train(target_nondiff(), -1.0, 1.0, 0.0, 50)
    cfg = TrainConfig(
        grades=[
            GradeConfig(width=5, solver=qp.SolverConfig(max_iters=30, init="randn", init_seed=7))
            for _ in range(2)
        ]
    )
    model, _ = train_sal(ds, cfg)
    w0, w1 = model.grades[0].weight, model.grades[1].weight
    assert w0.shape == (5, 1) and w1.shape == (5, 5)
    assert not np.allclose(w1, np.tile(w1[:1], (5, 1)))


def test_hybrid_head_then_grades():
    ds = make_train(target_nondiff(), -1.0, 1.0, 0.0, 60)
    test = make_test(target_nondiff(), -1.0, 1.0, 40, seed=3)
    head = mlp.MlpTrainConfig(widths=[8], alpha=1e-2, epochs=150, epsilon=1e-12, seed=2)
    cfg = TrainConfig([GradeConfig(width=4, solver=DIRECT)], head=head)
    model, report = train_sal(ds, cfg, test=test)
    assert model.head is not None
    assert [r.grade for r in report.records] == [1, 2]
    assert report.metadata["hybrid"] is True
    assert report.records[-1].rse_train <= report.records[0].rse_train
    assert report.records[-1].rse_test is not None
    pred = model.predict(test.inputs)
    assert rse(pred, test.targets) == pytest.approx(report.records[-1].rse_test, rel=1e-10)


@pytest.mark.parametrize("hybrid", [False, True])
def test_carried_training_matches_reference_chain(hybrid):
    # three grades share one grid_steps node set (the first picks a
    # combination activation, the last is wider), one has its own
    # tau_multiples nodes; m * quad_points spans several row blocks
    ds = make_train(target_nondiff(), -1.0, 1.0, 0.0, 101)
    test = make_test(target_nondiff(), -1.0, 1.0, 60, seed=5)
    shared = smoothing.GridSteps(20, 1e-3)
    grades = [
        GradeConfig(width=6, activation=SINCOS_HALF, solver=DIRECT),
        GradeConfig(width=6, activation=[RELU, TANH], tau=0.01, window=shared, quad_points=401, solver=DIRECT),
        GradeConfig(width=6, activation=RELU, tau=0.005, window=shared, quad_points=401, solver=DIRECT),
        GradeConfig(width=8, activation=RELU, tau=0.004, window=shared, quad_points=401, solver=DIRECT),
        GradeConfig(
            width=6,
            activation=TANH,
            tau=0.01,
            window=smoothing.TauMultiples(3.0),
            quad_points=401,
            solver=DIRECT,
        ),
        GradeConfig(width=6, activation=RELU, solver=DIRECT),
    ]
    assert ds.inputs.shape[0] * 401 > 2 * BLOCK_ROWS
    head = mlp.MlpTrainConfig(widths=[5], epochs=30, seed=2) if hybrid else None
    model, report = train_sal(ds, TrainConfig(grades, head=head), test=test)
    records = report.records[1:] if hybrid else report.records
    assert model.grades[1].activation.kind == "combination"
    residual = ds.targets - model.head.predict(ds.inputs) if hybrid else ds.targets
    test_pred = model.head.predict(test.inputs) if hybrid else np.zeros_like(test.targets)
    for k, rec in enumerate(records):
        comp = ref.component(model, k, ds.inputs)
        assert np.array_equal(model.component_values(k, ds.inputs), comp)
        residual = residual - comp
        assert rec.rse_train == sq_norm(residual) / sq_norm(ds.targets)
        test_pred = test_pred + ref.component(model, k, test.inputs)
        assert rec.rse_test == rse(test_pred, test.targets)
    assert np.array_equal(model.predict(test.inputs), test_pred)


def test_carry_at_distinct_nodes_matches_reference_chain():
    # two consecutive grades with one node key on a uniform grid whose step
    # is commensurate with the node spacing: the second grade starts from
    # the first one's features at the distinct nodes only
    ds = make_train(target_nondiff(), 0.0, 1.0, 0.0, 201)
    test = make_test(target_nondiff(), 0.0, 1.0, 40, seed=3)
    window = smoothing.TauMultiples(6.0)
    grades = [
        GradeConfig(width=6, activation=SINCOS_HALF, solver=DIRECT),
        GradeConfig(width=6, activation=[RELU, TANH], tau=0.005, window=window, quad_points=200, solver=DIRECT),
        GradeConfig(width=8, activation=TANH, tau=0.005, window=window, quad_points=200, solver=DIRECT),
        GradeConfig(width=6, activation=RELU, tau=0.005, window=window, quad_points=200, solver=DIRECT),
    ]
    nodes = smoothing.quadrature_nodes(smoothing.Smoother(0.005, window, 200), ds.inputs[:, 0])
    assert np.unique(nodes.view(np.int64)).size < nodes.size // 2
    model, report = train_sal(ds, TrainConfig(grades), test=test)
    assert model.grades[1].activation.kind == "combination"
    residual, test_pred = ds.targets, np.zeros_like(test.targets)
    for k, rec in enumerate(report.records):
        comp = ref.component(model, k, ds.inputs)
        assert np.array_equal(model.component_values(k, ds.inputs), comp)
        residual = residual - comp
        assert rec.rse_train == sq_norm(residual) / sq_norm(ds.targets)
        test_pred = test_pred + ref.component(model, k, test.inputs)
        assert rec.rse_test == rse(test_pred, test.targets)


def test_train_sal_bits_match_reference_pooling(monkeypatch):
    # a t = 20 cascade trained once as shipped and once with every window
    # reduced in full (tests/pooling_reference.py); both runs use the same
    # BLAS, so equal bits are expected on any build
    ds = make_train(target_oscillatory(), 0.0, 1.0, 0.0, 601)
    test = make_test(target_oscillatory(), 0.0, 1.0, 50, seed=2)
    nesterov = qp.SolverConfig(epsilon=1e-15, max_iters=50, init="randn", init_scale=110.0)
    window = smoothing.TauMultiples(6.0)
    cfg = TrainConfig(
        [
            GradeConfig(width=148, activation=SINCOS_HALF, solver=nesterov),  # n = 129: halved
            GradeConfig(
                width=128, activation=RELU, tau=0.005, window=window, quad_points=20, solver=DIRECT
            ),
        ]
    )

    def run():
        model, report = train_sal(ds, cfg, test=test)
        assert report.records[0].iterations == 50
        rse_bits = [(r.rse_train.hex(), r.rse_test.hex()) for r in report.records]
        return model_to_dict(model), rse_bits

    shipped = run()
    monkeypatch.setattr(Pooling, "apply", pool_ref.apply)
    monkeypatch.setattr(Pooling, "adjoint", pool_ref.adjoint)
    assert run() == shipped
