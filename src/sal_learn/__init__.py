"""Grade-by-grade affine learning for deep network construction.

Each grade solves a convex least-squares problem for one affine layer
against the current residual, applies an average-pooling projection, and
adds the result to a superposition model.  The package also ships an
Adam-trained MLP baseline, Gaussian mollification of learned components,
benchmark targets, and CSV/JSON reporting.
"""

from .data import (
    Dataset,
    Target,
    get_target,
    load_custom_target,
    make_test,
    make_train,
    oscillatory_coefficients,
    target_nondiff,
    target_oscillatory,
    train_grid,
)
from .mlp import AdamState, MlpParams, MlpTrainConfig, adam_step, he_init, train_ssg
from .model import (
    IDENTITY,
    RELU,
    SINCOS_HALF,
    TANH,
    Activation,
    Grade,
    Model,
    Pooling,
    combination,
    inner_product,
    leaky_relu,
    norm,
    rse,
    sq_norm,
)
from .qp import (
    Problem,
    SolverConfig,
    SolveStats,
    assemble,
    direct_solve,
    gradient,
    lipschitz_bound,
    nesterov_solve,
    objective,
    orthogonality_defect,
    solve,
)
from .records import GradeRecord, SsgRecord, TrainReport
from .reporting import (
    load_model,
    model_from_dict,
    model_json,
    model_to_dict,
    sal_report_rows,
    save_model,
    write_csv,
)
from .rng import SplitMix64
from .smoothing import GridSteps, Smoother, TauMultiples, smooth_fn_grid, smooth_grid
from .train import GradeConfig, TrainConfig, TrainError, train_grade, train_sal

__version__ = "0.1.0"

__all__ = [
    "Activation",
    "AdamState",
    "Dataset",
    "Grade",
    "GradeConfig",
    "GradeRecord",
    "GridSteps",
    "IDENTITY",
    "MlpParams",
    "MlpTrainConfig",
    "Model",
    "Pooling",
    "Problem",
    "RELU",
    "SINCOS_HALF",
    "Smoother",
    "SolveStats",
    "SolverConfig",
    "SplitMix64",
    "SsgRecord",
    "TANH",
    "Target",
    "TauMultiples",
    "TrainConfig",
    "TrainError",
    "TrainReport",
    "adam_step",
    "assemble",
    "combination",
    "direct_solve",
    "get_target",
    "gradient",
    "he_init",
    "inner_product",
    "leaky_relu",
    "lipschitz_bound",
    "load_custom_target",
    "load_model",
    "make_test",
    "make_train",
    "model_from_dict",
    "model_json",
    "model_to_dict",
    "nesterov_solve",
    "norm",
    "objective",
    "orthogonality_defect",
    "oscillatory_coefficients",
    "rse",
    "sal_report_rows",
    "save_model",
    "smooth_fn_grid",
    "smooth_grid",
    "solve",
    "sq_norm",
    "target_nondiff",
    "target_oscillatory",
    "train_grade",
    "train_grid",
    "train_sal",
    "train_ssg",
    "write_csv",
]
