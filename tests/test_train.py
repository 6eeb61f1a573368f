import weakref

import numpy as np
import pytest

import chain_reference as ref
import pooling_reference as pool_ref
from sal_learn import mlp, qp, smoothing
from sal_learn import model as model_mod
from sal_learn import train as train_mod
from sal_learn.data import Dataset, make_test, make_train, target_nondiff, target_oscillatory
from sal_learn.model import BLOCK_ROWS, IDENTITY, RELU, SINCOS_HALF, TANH, Activation, Model, Pooling, sq_norm
from sal_learn.reporting import model_from_dict, model_to_dict
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
        # the record's defect is the identity's relative gap, rounding alone
        # for an unsmoothed direct grade, beside the grade's energy share
        assert abs(report.records[k].pythagoras_defect) < 1e-12
        assert report.records[k].energy_share == sq_norm(comp) / sq_norm(ds.targets)
        residual = nxt


def test_smoothed_grade_shows_its_pythagoras_defect():
    # a smoothed component is not the projection of the residual, so its
    # defect is what the record reads: the identity's gap, from the arrays
    ds = make_train(target_nondiff(), -1.0, 1.0, 0.0, 60)
    window = smoothing.TauMultiples(3.0)
    cfg = TrainConfig(
        grades=[
            GradeConfig(width=8, activation=TANH, solver=DIRECT),
            GradeConfig(width=8, tau=0.05, window=window, quad_points=21, solver=DIRECT),
        ]
    )
    model, report = train_sal(ds, cfg)
    before = ds.targets - model.component_values(0, ds.inputs)
    comp = model.component_values(1, ds.inputs)
    want = (sq_norm(before) - sq_norm(before - comp) - sq_norm(comp)) / sq_norm(before)
    assert report.records[1].pythagoras_defect == want
    assert abs(report.records[1].pythagoras_defect) > 1e-9


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


def test_train_grade_frees_the_problem_before_the_component_chain(monkeypatch):
    # the problem holds [F 1], as large as the features; the component's
    # node chain must not run while it is alive
    problems = []
    assemble, component = qp.assemble, train_mod._Carried.component

    def assemble_spy(*args, **kwargs):
        prob = assemble(*args, **kwargs)
        problems.append(weakref.ref(prob))
        return prob

    def component_spy(self, *args, **kwargs):
        assert problems[-1]() is None
        return component(self, *args, **kwargs)

    monkeypatch.setattr(qp, "assemble", assemble_spy)
    monkeypatch.setattr(train_mod._Carried, "component", component_spy)
    ds = make_train(target_nondiff(), -1.0, 1.0, 0.0, 30)
    train_sal(ds, TrainConfig(grades=[GradeConfig(width=4), GradeConfig(width=4, solver=DIRECT)]))
    assert len(problems) == 2


def test_records_give_units_and_orthogonality_defect():
    # direct grades at t = 1 fold to one unit; the first is an exact,
    # uncut least squares on [x 1], the second a cut one on its features
    ds = make_train(target_nondiff(), -1.0, 1.0, 0.0, 40)
    randn = qp.SolverConfig(init="randn", max_iters=20)
    cfg = TrainConfig(
        grades=[
            GradeConfig(width=6, activation=RELU, solver=DIRECT),
            GradeConfig(width=6, activation=TANH, solver=DIRECT),
            GradeConfig(width=5, activation=TANH, solver=randn),
        ]
    )
    model, report = train_sal(ds, cfg)
    assert [(r.units, r.width) for r in report.records] == [(1, 6), (1, 6), (5, 5)]
    assert [r.units for r in report.records] == [g.units for g in model.grades]
    assert report.records[0].orthogonality_defect < 1e-9
    assert all(0.0 <= r.orthogonality_defect <= 1.0 + 1e-12 for r in report.records)


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


def test_select_activation_flags_candidates_that_all_pool_to_zero():
    pre = np.zeros((12, 5))
    pooling = Pooling(out_dim=2, mu=3)
    residual = np.random.default_rng(2).normal(size=(12, 2))
    alpha, flagged = select_activation([RELU, TANH, IDENTITY], pre, pooling, residual)
    assert flagged
    assert np.array_equal(alpha, np.zeros(3))


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
    test = make_test(target_oscillatory(), 0.0, 1.0, 23, seed=4)
    good = GradeConfig(width=24, solver=DIRECT)
    bad = GradeConfig(width=4, solver=DIRECT)  # width < 20 outputs
    with pytest.raises(TrainError) as exc_info:
        train_sal(ds, TrainConfig(grades=[good, bad]), test=test)
    err = exc_info.value
    assert "grade 2 failed" in str(err)
    assert "width 4" in str(err)
    assert len(err.model.grades) == 1
    assert len(err.report.records) == 1
    # the grade that trained keeps its test error, from the partial model
    assert err.report.records[0].rse_test == rse(err.model.predict(test.inputs), test.targets)
    # a hybrid head's record survives a failing first grade the same way
    head = mlp.MlpTrainConfig(widths=[4], epochs=10, seed=2)
    with pytest.raises(TrainError) as exc_info:
        train_sal(ds, TrainConfig(grades=[bad], head=head), test=test)
    err = exc_info.value
    assert len(err.model.grades) == 0 and len(err.report.records) == 1
    assert err.report.records[0].rse_test == rse(err.model.head.predict(test.inputs), test.targets)


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


def _two_node_set_grades():
    """Unsmoothed grades around two smoothed grades sharing grid_steps nodes
    and one with tau_multiples nodes."""
    shared = smoothing.GridSteps(10, 2e-3)
    return [
        GradeConfig(width=6, activation=SINCOS_HALF, solver=DIRECT),
        GradeConfig(width=6, activation=[RELU, TANH], tau=0.01, window=shared, quad_points=21, solver=DIRECT),
        GradeConfig(width=6, activation=RELU, tau=0.005, window=shared, quad_points=21, solver=DIRECT),
        GradeConfig(
            width=6, activation=TANH, tau=0.01, window=smoothing.TauMultiples(3.0), quad_points=31, solver=DIRECT
        ),
        GradeConfig(width=6, activation=RELU, solver=DIRECT),
    ]


@pytest.mark.parametrize("hybrid", [False, True])
def test_rse_test_is_that_of_the_running_predict_path_sum(hybrid):
    ds = make_train(target_nondiff(), -1.0, 1.0, 0.0, 61)
    test = make_test(target_nondiff(), -1.0, 1.0, 37, seed=6)
    head = mlp.MlpTrainConfig(widths=[5], epochs=30, seed=2) if hybrid else None
    model, report = train_sal(ds, TrainConfig(_two_node_set_grades(), head=head), test=test)
    pred = model.head.predict(test.inputs) if hybrid else np.zeros_like(test.targets)
    records = report.records
    if hybrid:
        assert records[0].rse_test == rse(pred, test.targets)
        records = records[1:]
    assert len(records) == len(model.grades)
    for k, rec in enumerate(records):
        pred = pred + model.component_values(k, test.inputs)
        assert rec.rse_test == rse(pred, test.targets)
    assert np.array_equal(model.predict(test.inputs), pred)
    _, untracked = train_sal(
        ds, TrainConfig(_two_node_set_grades(), head=head, record_test_metrics=False), test=test
    )
    assert [r.rse_test for r in untracked.records] == [None] * len(report.records)
    assert [r.rse_train for r in untracked.records] == [r.rse_train for r in report.records]


def test_test_set_runs_each_node_set_once_after_training(monkeypatch):
    # grades[1:3] share one node set and grades[3] has its own; after the
    # last grade has trained, the test set is scored by one chain run at
    # the test points for the plain grades and one per node set, with no
    # features kept.  No test node repeats, so each set's run starts from
    # grade 1's features at its nodes by angle addition
    ds = make_train(target_nondiff(), -1.0, 1.0, 0.0, 61)
    test = make_test(target_nondiff(), -1.0, 1.0, 37, seed=6)
    grades = _two_node_set_grades()
    for g in (grades[1], grades[3]):
        nodes = smoothing.quadrature_nodes(smoothing.Smoother(g.tau, g.window, g.quad_points), test.inputs[:, 0])
        assert np.unique(nodes.view(np.int64)).size == nodes.size
    events = []
    run_chain, train_grade = Model.run_chain, train_mod.train_grade

    def recording_chain(self, points, wanted=(), carry=None, keep=None):
        if carry is not None and isinstance(carry.feats, model_mod._AngleSum):
            rows = ("angles", len(carry.feats.s), carry.feats.per_point)
        else:
            rows = None if carry is not None else points[:, 0].view(np.int64).tolist()
        events.append(("chain", rows, sorted(wanted), keep))
        return run_chain(self, points, wanted, carry, keep)

    def recording_grade(*args, **kwargs):
        result = train_grade(*args, **kwargs)
        events.append(("grade",))  # when the grade has finished
        return result

    monkeypatch.setattr(Model, "run_chain", recording_chain)
    monkeypatch.setattr(train_mod, "train_grade", recording_grade)
    train_sal(ds, TrainConfig(grades), test=test)
    last_grade = max(i for i, e in enumerate(events) if e[0] == "grade")
    assert [e[0] for e in events].count("grade") == len(grades)
    assert events[last_grade + 1 :] == [
        ("chain", test.inputs[:, 0].view(np.int64).tolist(), [0, 4], None),
        ("chain", ("angles", 37, 21), [1, 2], None),
        ("chain", ("angles", 37, 31), [3], None),
    ]


def test_training_runs_each_smoothed_grade_once_over_its_distinct_nodes(monkeypatch):
    # training evaluates a smoothed grade through the chain run predict
    # makes, never through smooth_fn_grid: one chain run over its node
    # set's distinct nodes, starting from the previous grade's features
    # there when the sets agree, or else from grade 1's features there by
    # angle addition (neither set repeats a node), and keeping N_k
    # (combination) or N_{k+1} for the next grade of the same set
    ds = make_train(target_nondiff(), -1.0, 1.0, 0.0, 61)
    shared = smoothing.GridSteps(10, 2e-3)
    grades = [
        GradeConfig(width=6, activation=SINCOS_HALF, solver=DIRECT),
        GradeConfig(width=6, activation=[RELU, TANH], tau=0.01, window=shared, quad_points=21, solver=DIRECT),
        GradeConfig(width=6, activation=RELU, tau=0.005, window=shared, quad_points=21, solver=DIRECT),
        GradeConfig(width=8, activation=TANH, tau=0.01, window=shared, quad_points=21, solver=DIRECT),
        GradeConfig(
            width=6, activation=TANH, tau=0.01, window=smoothing.TauMultiples(3.0), quad_points=31, solver=DIRECT
        ),
        GradeConfig(width=6, activation=RELU, solver=DIRECT),
    ]
    x = ds.inputs[:, 0]

    def node_keys(g):
        points = smoothing.distinct_nodes(smoothing.Smoother(g.tau, g.window, g.quad_points), x)[0]
        return points.view(np.int64).tolist()

    xk, sk, tk = x.view(np.int64).tolist(), node_keys(grades[1]), node_keys(grades[4])
    calls = []
    run_chain = Model.run_chain

    def recording_chain(self, points, wanted=(), carry=None, keep=None):
        keys = None if points is None else points[:, 0].view(np.int64).tolist()
        held = None if carry is None else (carry.depth, len(carry.feats))
        if carry is not None and isinstance(carry.feats, model_mod._AngleSum):
            held += ("angles",)
        calls.append((keys, sorted(wanted), held, keep))
        return run_chain(self, points, wanted, carry, keep)

    def no_smooth_fn_grid(*args, **kwargs):
        raise AssertionError("training called smooth_fn_grid")

    monkeypatch.setattr(Model, "run_chain", recording_chain)
    monkeypatch.setattr(smoothing, "smooth_fn_grid", no_smooth_fn_grid)
    model, _ = train_sal(ds, TrainConfig(grades))
    assert model.grades[1].activation.kind == "combination"
    n = len(x)
    assert calls == [
        (xk, [], None, 0),
        (None, [0], (0, n), 1),
        (None, [1], (1, len(sk), "angles"), 1),
        (None, [], (1, n), 2),
        (sk, [2], (1, len(sk)), 3),
        (None, [], (2, n), 3),
        (sk, [3], (3, len(sk)), None),
        (None, [], (3, n), 4),
        (None, [4], (1, len(tk), "angles"), None),
        (None, [], (4, n), 5),
        (None, [5], (5, n), 6),
    ]


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


def _angle_sums_made(monkeypatch):
    """The (points, offsets) of every node set whose grade-1 features come
    by angle addition, recorded for the test's duration."""
    made = []

    class Counting(model_mod._AngleSum):
        def __init__(self, grade, xs, offsets):
            super().__init__(grade, xs, offsets)
            made.append((len(xs), len(offsets)))

    monkeypatch.setattr(model_mod, "_AngleSum", Counting)
    return made


def _check_against_reference(model, report, ds, test):
    """Each grade's component at the training points, each record's rse and
    the trained and reloaded predictions at the test points, all in the
    reference's bits."""
    residual, test_pred = ds.targets, np.zeros_like(test.targets)
    for k, rec in enumerate(report.records):
        comp = ref.component(model, k, ds.inputs)
        assert np.array_equal(model.component_values(k, ds.inputs), comp)
        residual = residual - comp
        assert rec.rse_train == sq_norm(residual) / sq_norm(ds.targets)
        test_pred = test_pred + ref.component(model, k, test.inputs)
        assert rec.rse_test == rse(test_pred, test.targets)
    assert np.array_equal(model.predict(test.inputs), test_pred)
    assert np.array_equal(model_from_dict(model_to_dict(model)).predict(test.inputs), test_pred)


def test_training_takes_angle_sum_when_the_finished_model_has_one_node_key(monkeypatch):
    # jittered training points and random test points: no node set repeats
    # a node.  One node key, a plain grade between the smoothed ones: the
    # combination grade's run keeps N_1 at the nodes for the next grade,
    # the grade after the plain one starts again from the angle sum, and
    # test scoring and predict each take it once
    ds = make_train(target_nondiff(), -1.0, 1.0, 0.1, 61)
    test = make_test(target_nondiff(), -1.0, 1.0, 37, seed=6)
    shared = smoothing.GridSteps(10, 2e-3)
    grades = [
        GradeConfig(width=6, activation=SINCOS_HALF, solver=DIRECT),
        GradeConfig(width=6, activation=[RELU, TANH], tau=0.01, window=shared, quad_points=21, solver=DIRECT),
        GradeConfig(width=8, activation=RELU, tau=0.005, window=shared, quad_points=21, solver=DIRECT),
        GradeConfig(width=6, activation=TANH, solver=DIRECT),
        GradeConfig(width=6, activation=RELU, tau=0.004, window=shared, quad_points=21, solver=DIRECT),
    ]
    sm = smoothing.Smoother(0.01, shared, 21)
    for x in (ds.inputs, test.inputs):
        nodes = smoothing.quadrature_nodes(sm, x[:, 0])
        assert np.unique(nodes.view(np.int64)).size == nodes.size
    made = _angle_sums_made(monkeypatch)
    model, report = train_sal(ds, TrainConfig(grades), test=test)
    assert made == [(61, 21), (61, 21), (37, 21)]
    _check_against_reference(model, report, ds, test)
    assert made[3:] == [(61, 21)] * 3 + [(37, 21)] * 2


@pytest.mark.parametrize("shared_first", [False, True])
def test_training_takes_angle_sum_at_each_whole_node_set(shared_first, monkeypatch):
    # two node keys, with or without the first two smoothed grades sharing
    # one, and no node set repeats a node: training takes the angle sum at
    # the first grade of each set, test scoring and predict take it once
    # per set, and every value keeps the reference's bits
    ds = make_train(target_nondiff(), -1.0, 1.0, 0.1, 61)
    test = make_test(target_nondiff(), -1.0, 1.0, 37, seed=6)
    grades = _two_node_set_grades()
    if not shared_first:
        del grades[2]
    for g in (grades[1], grades[-2]):
        sm = smoothing.Smoother(g.tau, g.window, g.quad_points)
        for x in (ds.inputs, test.inputs):
            nodes = smoothing.quadrature_nodes(sm, x[:, 0])
            assert np.unique(nodes.view(np.int64)).size == nodes.size
    made = _angle_sums_made(monkeypatch)
    model, report = train_sal(ds, TrainConfig(grades), test=test)
    assert made == [(61, 21), (61, 31), (37, 21), (37, 31)]
    _check_against_reference(model, report, ds, test)
    assert made[4:] == [(61, 21)] * (1 + shared_first) + [(61, 31)] + [(37, 21), (37, 31)] * 2


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
