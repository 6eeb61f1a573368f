"""The benchmark tracer reads some arguments of the functions it wraps by
parameter name, and counts a failed read instead of raising.  A renamed
parameter would silently zero a per-layer metric, so the names are pinned
here."""

import inspect

import pytest

from sal_learn import smoothing, train
from sal_learn.model import Model


@pytest.mark.parametrize(
    "fn, names",
    [
        (smoothing.smooth_fn_grid, ("sm", "xs")),  # smoothing.smooth_fn_grid.nodes
        (Model.features, ("self", "x", "upto")),  # model.Model.features.rows
        (Model.component_values, ("k",)),  # grade of a component span
        (train.train_grade, ("model",)),  # grade of a training span
    ],
)
def test_traced_functions_keep_their_parameter_names(fn, names):
    params = inspect.signature(fn).parameters
    assert all(name in params for name in names)
