"""The grade loop: fit, smooth, update the residual, record, repeat.

Each grade solves one convex least-squares problem on the previous residual.
The activation never enters the fit — it only wraps the fitted pre-activation
to build the next grade's features — which is what keeps every grade's
training problem quadratic.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from . import mlp, qp, smoothing
from .data import Dataset
from .model import Activation, Grade, Model, Pooling, combination, rse, sq_norm
from .records import GradeRecord, TrainReport

SMOOTHING_TARGETS = ("component", "residual", "none")


class TrainError(RuntimeError):
    """Training failure carrying the partial model and report for diagnosis."""

    def __init__(self, message: str, model=None, report=None):
        super().__init__(message)
        self.model = model
        self.report = report


@dataclass
class GradeConfig:
    """Configuration for one grade.

    `activation` may be a single Activation (used as-is) or a sequence of
    candidates: after the fit, the best linear combination of the candidates
    (fitted to the new residual) becomes this grade's activation.
    """

    width: int
    activation: Activation | Sequence[Activation] = Activation("relu")
    tau: float = 0.0
    window: smoothing.Window | None = None
    quad_points: int = 200
    smoothing_target: str = "component"
    solver: qp.SolverConfig = field(default_factory=qp.SolverConfig)

    def __post_init__(self):
        if self.width < 1:
            raise ValueError("grade width must be positive")
        if self.tau < 0.0:
            raise ValueError("tau must be nonnegative")
        if self.tau > 0.0 and self.window is None:
            raise ValueError("tau > 0 needs a smoothing window")
        if self.smoothing_target not in SMOOTHING_TARGETS:
            raise ValueError(f"unknown smoothing_target: {self.smoothing_target!r}")


@dataclass
class TrainConfig:
    grades: list[GradeConfig]
    head: mlp.MlpTrainConfig | None = None
    record_test_metrics: bool = True

    def __post_init__(self):
        if not self.grades and self.head is None:
            raise ValueError("need at least one grade or a head")


def select_activation(
    basis: Sequence[Activation],
    pre_activations: np.ndarray,
    pooling: Pooling,
    residual: np.ndarray,
) -> tuple[np.ndarray, bool]:
    """Least-squares weights making the pooled combined activation track the residual.

    One truncated-SVD least squares (np.linalg.lstsq) over the pooled
    candidates, each raveled into a column: singular values at or below
    1e-6 times the largest count as zero, which drops the eigenvalues of
    the candidates' Gram matrix below 1e-12 times its largest.  The weights
    are the minimum-norm solution, and a cut (rank below the number of
    candidates, all of them when every candidate pools to zero) is flagged.
    """
    pooled = np.column_stack([pooling.apply(act(pre_activations)).ravel() for act in basis])
    coeffs, _, rank, _ = np.linalg.lstsq(pooled, residual.ravel(), rcond=1e-6)
    return coeffs, bool(rank < len(basis))


def _component_smoother(cfg: GradeConfig) -> smoothing.Smoother | None:
    if cfg.tau > 0.0 and cfg.smoothing_target == "component":
        return smoothing.Smoother(cfg.tau, cfg.window, cfg.quad_points)
    return None


class _Carried:
    """The training points and the features carried there between grades.

    `plain` holds N_k at the points x.  `nodes` holds N_k at the distinct
    quadrature nodes of the last smoothed grade; it is kept only when the
    next grade smooths over the same nodes (`node_keys` holds the node key
    of each configured grade, None for an unsmoothed one), otherwise every
    block of nodes streams straight to its pooled component.  Whether grade
    1's features at a node set come by angle addition is decided by
    Model._planned_components, by the rule it applies in prediction.
    """

    def __init__(self, model: Model, x: np.ndarray, node_keys: Sequence = ()):
        self.x = x
        self.node_keys = list(node_keys)
        self.plain = model.run_chain(x, keep=len(model.grades))[1]
        self.nodes = None

    def component(self, model: Model, k: int, advance: bool) -> np.ndarray:
        """Grade k's component at x, from the chain run `model.predict` makes.

        With `advance` the carried features move on to N_{k+1} in the same
        pass.  Without it (the grade's activation is not final yet) they stay
        at N_k: the caller advances `plain` once the activation is fixed, and
        kept node features catch up in the next grade's pass.
        """
        if model.grades[k].smoother is None:
            comps, plain = model.run_chain(None, [k], self.plain, keep=k + 1 if advance else None)
            if advance:
                self.plain = plain
            return comps[k]
        keep = None
        if k + 1 < len(self.node_keys) and self.node_keys[k + 1] == self.node_keys[k]:
            keep = k + 1 if advance else k
        comps, self.nodes = model._planned_components(self.x, [k], self.nodes, keep)
        if advance:
            self.plain = model.run_chain(None, carry=self.plain, keep=k + 1)[1]
        return comps[k]


def _solve(
    feats: np.ndarray, residual: np.ndarray, pooling: Pooling, ridge: float, solver: qp.SolverConfig
) -> tuple[np.ndarray, np.ndarray, qp.SolveStats, float]:
    """The grade's W, b and solve stats, and the orthogonality defect of
    the solution, taken while the problem is alive.  Only this call holds
    the problem, so its [F 1] is freed before the component's node chain
    runs."""
    problem = qp.assemble(feats, residual, pooling, ridge)
    weight, bias, stats = qp.solve(problem, solver)
    return weight, bias, stats, qp.orthogonality_defect(problem, weight, bias)


def train_grade(
    model: Model,
    dataset: Dataset,
    residual: np.ndarray,
    cfg: GradeConfig,
    carried: _Carried | None = None,
) -> tuple[Grade, np.ndarray, GradeRecord]:
    """Fit one grade on the current residual; does not mutate the model.

    Returns the new grade, the next residual, and a record whose rse_train is
    the residual's share of the original target energy (for component-mode
    smoothing this equals the prediction-based rse; rse_test is left for the
    caller, which scores the test set after the last grade).  `carried`
    holds the features at the train inputs from earlier grades and moves
    them on to this grade's output (train_sal passes it); without it they
    are computed from the inputs.
    """
    start = time.perf_counter()
    t = dataset.targets.shape[1]
    x = dataset.inputs
    k = len(model.grades)
    try:
        if cfg.width < t:
            raise ValueError(f"grade width {cfg.width} must be >= output dim {t}")
        if carried is None:
            carried = _Carried(model, x)
        # the problem is posed on the full-width [F 1]: lstsq's cut would see
        # other singular values on the carried units alone
        feats = model.expand(carried.plain)
        pooling = Pooling(out_dim=t, mu=cfg.width - t)
        ridge = cfg.solver.ridge if cfg.solver.method == "nesterov" else 0.0
        weight, bias, stats, defect = _solve(feats, residual, pooling, ridge, cfg.solver)
    except Exception as exc:
        raise RuntimeError(f"grade {k + 1} failed: {exc}") from exc

    candidates = cfg.activation
    single = isinstance(candidates, Activation)
    grade = Grade(
        weight=weight,
        bias=bias,
        pooling=pooling,
        activation=candidates if single else candidates[0],
        smoother=_component_smoother(cfg),
    )
    # evaluate the component exactly as the finished model will predict it
    view = Model(model.input_dim, model.output_dim, model.grades + [grade], model.head)
    component = carried.component(view, k, advance=single)
    if cfg.tau > 0.0 and cfg.smoothing_target == "residual":
        raw_next = residual - component
        sm = smoothing.Smoother(cfg.tau, cfg.window, cfg.quad_points)
        new_residual = smoothing.smooth_grid(raw_next, sm, x[:, 0])
    else:
        new_residual = residual - component
    if not single:
        pre = feats @ weight.T + bias
        alpha, flagged = select_activation(list(candidates), pre, pooling, new_residual)
        grade.activation = combination(alpha, candidates)
        carried.plain = view.run_chain(None, carry=carried.plain, keep=k + 1)[1]
        if flagged:
            stats.note = (stats.note + "; " if stats.note else "") + (
                "singular activation gram; minimum-norm combination"
            )
    before, after, energy = sq_norm(residual), sq_norm(new_residual), sq_norm(component)
    total = sq_norm(dataset.targets)
    record = GradeRecord(
        grade=k + 1,
        tau=cfg.tau,
        epsilon=cfg.solver.epsilon,
        iterations=stats.iterations,
        train_time_s=time.perf_counter() - start,
        rse_train=after / total,
        rse_test=None,
        stop_reason=stats.stop_reason,
        note=stats.note,
        objective=stats.final_objective,
        lipschitz=stats.lipschitz,
        pythagoras_defect=(before - after - energy) / before if before > 0.0 else None,
        energy_share=energy / total,
        orthogonality_defect=defect,
        units=grade.units,
        width=grade.width,
    )
    return grade, new_residual, record


def _score_test(model: Model, records: list[GradeRecord], test: Dataset) -> None:
    """Fill each record's rse_test from the model's running prediction at the
    test points, in order (the head's record first)."""
    for record, pred in zip(records, model.staged_predict(test.inputs)):
        record.rse_test = rse(pred, test.targets)


def train_sal(
    dataset: Dataset, cfg: TrainConfig, test: Dataset | None = None
) -> tuple[Model, TrainReport]:
    """Run the grades in order; the residual starts as the targets themselves
    (minus the head's predictions when a hybrid head is configured).

    Only the training points carry features from grade to grade.  The test
    set, when given and tracked, is scored after the last grade (or before a
    TrainError, for the grades that trained) by Model.staged_predict, the
    path predict runs."""
    x, y = dataset.inputs, dataset.targets
    if x.shape[0] == 0:
        raise ValueError("empty dataset")
    model = Model(x.shape[1], y.shape[1])
    records: list[GradeRecord] = []
    start = time.perf_counter()
    residual = y
    track_test = test is not None and cfg.record_test_metrics
    grade_offset = 1
    if cfg.head is not None:
        head_params, head_report = mlp.train_ssg(dataset, cfg.head, test=test)
        model.head = head_params
        residual = y - head_params.predict(x)
        records.append(
            GradeRecord(
                grade=1,
                tau=0.0,
                epsilon=cfg.head.epsilon,
                iterations=head_report.metadata.get("epochs_run", cfg.head.epochs),
                train_time_s=head_report.total_time_s,
                rse_train=sq_norm(residual) / sq_norm(y),
                stop_reason=head_report.metadata.get("stop_reason", ""),
            )
        )
        grade_offset = 2
    node_keys = []
    for gcfg in cfg.grades:
        sm = _component_smoother(gcfg)
        node_keys.append(None if sm is None else smoothing.node_key(sm))
    train_carried = _Carried(model, x, node_keys)
    for i, gcfg in enumerate(cfg.grades):
        if gcfg.solver.init != "zero":
            # vary the random start per grade so equal-width grades do not
            # all begin from the same draw
            gcfg = replace(
                gcfg, solver=replace(gcfg.solver, init_seed=gcfg.solver.init_seed + i)
            )
        try:
            grade, residual, record = train_grade(model, dataset, residual, gcfg, train_carried)
        except Exception as exc:
            if track_test:
                _score_test(model, records, test)
            partial = TrainReport(records=records, total_time_s=time.perf_counter() - start)
            raise TrainError(str(exc), model=model, report=partial) from exc
        model.grades.append(grade)
        record.grade = grade_offset + i
        records.append(record)
    if track_test:
        _score_test(model, records, test)
    report = TrainReport(
        records=records,
        total_time_s=time.perf_counter() - start,
        metadata={"hybrid": cfg.head is not None},
    )
    return model, report
