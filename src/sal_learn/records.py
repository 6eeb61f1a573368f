"""Report row types shared by the grade trainer and the MLP baseline."""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class GradeRecord:
    """One row of a grade-by-grade training table."""

    grade: int
    tau: float
    epsilon: float
    iterations: int
    train_time_s: float
    rse_train: float
    rse_test: float | None = None
    # SolveStats.stop_reason ("epsilon" | "max_iters" | "direct"); for a
    # hybrid head, the Adam run's ("epsilon" | "epochs")
    stop_reason: str = ""
    note: str = ""  # a direct solve's cut ("rank r of p+1"), a singular activation gram
    objective: float | None = None  # SolveStats.final_objective
    lipschitz: float | None = None  # SolveStats.lipschitz (Nesterov grades only)
    # (||e_{k-1}||^2 - ||e_k||^2 - ||f_k||^2) / ||e_{k-1}||^2 for residuals e
    # and component f: 0 for an exact projection (the Pythagorean identity);
    # None when e_{k-1} is zero, and for a hybrid head
    pythagoras_defect: float | None = None
    energy_share: float | None = None  # ||f_k||^2 / ||y||^2, a term of the Parseval sum
    # qp.orthogonality_defect of the solution on the grade's own problem:
    # the largest cosine between the fit residual and a parameter direction,
    # 0 to rounding at an exact least-squares optimum
    orthogonality_defect: float | None = None
    units: int | None = None  # bitwise-distinct rows of [W b] (Grade.units)
    width: int | None = None


@dataclass
class SsgRecord:
    """One checkpoint row of a single-grade (end-to-end) training table."""

    structure: str
    alpha: float
    epsilon: float
    epoch: int
    train_time_s: float
    rse_train: float
    rse_test: float | None = None


@dataclass
class TrainReport:
    records: list = field(default_factory=list)
    total_time_s: float = 0.0
    metadata: dict = field(default_factory=dict)
    # (steps, cumulative seconds, rse_train) trajectory for threshold timing
    trace: list[tuple[int, float, float]] | None = None
