import json
import math
import tracemalloc

import numpy as np
import pytest

from sal_learn import smoothing
from sal_learn.smoothing import (
    GridSteps,
    Smoother,
    TauMultiples,
    _peak_weight,
    contract,
    distinct_nodes,
    gaussian,
    gaussian_eval,
    half_width,
    quadrature,
    quadrature_nodes,
    smooth_at,
    smooth_fn_grid,
    smooth_grid,
    window_from_dict,
    window_to_dict,
)


def test_gaussian_at_zero():
    assert gaussian_eval(1.0, 0.0) == pytest.approx(1.0 / math.sqrt(2 * math.pi))
    assert gaussian_eval(2.0, 0.0) == pytest.approx(0.5 / math.sqrt(2 * math.pi))


def test_gaussian_at_one():
    assert gaussian_eval(1.0, 1.0) == pytest.approx(math.exp(-0.5) / math.sqrt(2 * math.pi))


def test_gaussian_scaling_identity():
    # G_tau(u) = G(u/tau)/tau
    for tau, u in [(0.5, 0.3), (2.0, -1.0), (0.01, 0.002)]:
        assert gaussian_eval(tau, u) == pytest.approx(gaussian(u / tau) / tau)


def test_gaussian_rejects_bad_tau():
    with pytest.raises(ValueError):
        gaussian_eval(0.0, 1.0)
    with pytest.raises(ValueError):
        Smoother(tau=-1.0, window=TauMultiples(6.0), quad_points=10)


def test_window_half_widths():
    s1 = Smoother(tau=2e-3, window=TauMultiples(6.0), quad_points=200)
    assert half_width(s1) == pytest.approx(6.0 * 2e-3)
    s2 = Smoother(tau=1e-3, window=GridSteps(100, 4e-4), quad_points=201)
    assert half_width(s2) == pytest.approx(100 * 4e-4)


def test_window_validation():
    with pytest.raises(ValueError):
        GridSteps(0, 1e-3)
    with pytest.raises(ValueError):
        GridSteps(10, -1e-3)
    with pytest.raises(ValueError):
        TauMultiples(0.0)
    with pytest.raises(ValueError):
        Smoother(tau=1e-3, window=TauMultiples(6.0), quad_points=1)  # M >= 2


def test_renormalized_weights_must_not_sum_to_zero():
    # nodes at -6, -2, 2, 6, 10: beyond about 38 tau every weight underflows
    far = dict(tau=0.05, window=GridSteps(4, 2.5), quad_points=5)
    assert not quadrature(Smoother(**far))[1].any()
    with pytest.raises(ValueError, match="sum to 0"):
        Smoother(**far, renormalize=True)
    # one node within reach is enough, and its weight is then 1
    near = Smoother(tau=0.01, window=GridSteps(4, 0.5), quad_points=4, renormalize=True)
    assert quadrature(near)[1].tolist() == [0.0, 1.0, 0.0, 0.0]


def test_node_layout_matches_formula():
    # y_i = (2H/M) * i + (x - H), i = 1..M: no node at the left edge, one at
    # the right edge
    sm = Smoother(tau=0.1, window=TauMultiples(3.0), quad_points=5)
    offsets, weights = quadrature(sm)
    h = half_width(sm)
    step = 2 * h / 5
    assert np.allclose(offsets, [-h + step * i for i in range(1, 6)])
    assert offsets[-1] == pytest.approx(h)
    assert np.all(weights > 0)


def test_constant_preserved_renormalized():
    # bit-exact: the renormalized path evaluates around f(x)
    sm = Smoother(tau=1e-2, window=TauMultiples(5.0), quad_points=50, renormalize=True)
    val = smooth_at(lambda xs: np.full((len(xs), 1), 3.7), sm, 0.25)
    assert val[0] == 3.7


def test_constant_near_one_unnormalized():
    # TauMultiples(6), M=200: quadrature of the Gaussian integral is within
    # 1e-3 of 1, so an unnormalized constant survives to the same tolerance
    sm = Smoother(tau=3e-3, window=TauMultiples(6.0), quad_points=200)
    c = 2.5
    val = smooth_at(lambda xs: np.full((len(xs), 1), c), sm, 0.0)
    assert abs(val[0] - c) <= 1e-3 * abs(c)
    _, weights = quadrature(sm)
    assert abs(weights.sum() - 1.0) <= 1e-3


def test_odd_function_at_center():
    # one unpaired node at +H decays like G(H/tau); TauMultiples(10) makes
    # that defect negligible, so the odd part cancels
    sm = Smoother(tau=1e-2, window=TauMultiples(10.0), quad_points=400, renormalize=True)
    val = smooth_at(lambda xs: xs.reshape(-1, 1), sm, 0.0)
    assert abs(val[0]) < 1e-12


def test_smooth_fn_grid_matches_smooth_at():
    sm = Smoother(tau=5e-3, window=TauMultiples(6.0), quad_points=100)
    f = lambda xs: np.column_stack([np.sin(3 * xs), np.cos(2 * xs)])
    grid = np.linspace(0.0, 1.0, 11)
    batched = smooth_fn_grid(f, sm, grid)
    assert batched.shape == (11, 2)
    for i, x in enumerate(grid):
        assert np.allclose(batched[i], smooth_at(f, sm, x), atol=1e-12)


@pytest.mark.parametrize("renormalize", [False, True])
def test_smooth_fn_grid_evaluates_each_distinct_node_once(renormalize):
    # the grid step is a whole number of node spacings, so nodes repeat
    sm = Smoother(tau=0.01, window=GridSteps(5, 0.01), quad_points=10, renormalize=renormalize)
    grid = np.linspace(0.0, 1.0, 101)
    calls = []

    def f(points):
        calls.append(points.copy())
        return np.column_stack([np.sin(points), points**2])

    smooth_fn_grid(f, sm, grid)
    assert len(calls) == (2 if renormalize else 1)
    seen = calls[0].view(np.int64)
    distinct = np.unique(quadrature_nodes(sm, grid).view(np.int64))
    assert distinct.size < grid.size * 10
    assert np.array_equal(np.sort(seen), distinct)
    if renormalize:
        assert np.array_equal(calls[1], grid)


def _node_set(repeats, renormalize=False):
    """A commensurate grid, whose nodes repeat, or random points, whose nodes
    do not; both windows end where the weights still count (4 and 6 tau)."""
    if repeats:
        sm = Smoother(tau=0.05, window=GridSteps(20, 0.01), quad_points=40, renormalize=renormalize)
        return sm, np.linspace(0.0, 1.0, 101)
    sm = Smoother(tau=0.01, window=TauMultiples(6.0), quad_points=40, renormalize=renormalize)
    return sm, np.random.default_rng(8).uniform(0.0, 1.0, 37)


def _node_index(inv, points, n):
    """Each node's row in the contracted values, point-major: (n, M)."""
    return (np.arange(points.size) if inv is None else inv).reshape(n, -1)


@pytest.mark.parametrize("renormalize", [False, True])
@pytest.mark.parametrize("repeats", [True, False])
@pytest.mark.parametrize("t", [1, 20])
def test_contract_matches_an_exactly_rounded_sum(t, repeats, renormalize):
    sm, xs = _node_set(repeats, renormalize)
    points, inv = distinct_nodes(sm, xs)
    assert (inv is not None) == repeats
    rng = np.random.default_rng(t)
    # values of both signs over six decades, so the sums cancel
    vals = rng.standard_normal((points.size, t)) * 10.0 ** rng.integers(-3, 4, (points.size, 1))
    base = rng.standard_normal((xs.size, t)) if renormalize else None
    out = contract(sm, xs, vals, inv, base)
    weights = quadrature(sm)[1]
    node_vals = vals[_node_index(inv, points, xs.size)]
    terms = weights[None, :, None] * (node_vals if base is None else node_vals - base[:, None, :])
    for p in range(xs.size):
        for c in range(t):
            exact = math.fsum(terms[p, :, c])
            scale = math.fsum(np.abs(terms[p, :, c]))
            if base is not None:
                exact, scale = base[p, c] + exact, abs(base[p, c]) + scale
            assert abs(out[p, c] - exact) <= 1e-13 * scale


@pytest.mark.parametrize("renormalize", [False, True])
@pytest.mark.parametrize("repeats", [True, False])
def test_contract_spreads_a_non_finite_node_value_to_exactly_its_windows(repeats, renormalize):
    sm, xs = _node_set(repeats, renormalize)
    points, inv = distinct_nodes(sm, xs)
    index = _node_index(inv, points, xs.size)
    at_inf, at_nan = index[xs.size // 2, 3], index[xs.size // 3, 30]
    vals = np.ones((points.size, 3))
    vals[at_inf, 0] = np.inf
    vals[at_nan, 1] = np.nan
    base = np.full((xs.size, 3), 0.5) if renormalize else None
    out = contract(sm, xs, vals, inv, base)
    holds_inf, holds_nan = (index == at_inf).any(axis=1), (index == at_nan).any(axis=1)
    assert (holds_inf.sum() > 1) == repeats and (holds_nan.sum() > 1) == repeats
    assert np.array_equal(out[:, 0] == np.inf, holds_inf)
    assert np.array_equal(np.isnan(out[:, 1]), holds_nan)
    assert np.isfinite(out[~holds_inf, 0]).all() and np.isfinite(out[~holds_nan, 1]).all()
    assert np.isfinite(out[:, 2]).all()


@pytest.mark.parametrize("renormalize", [False, True])
@pytest.mark.parametrize("repeats, t", [(True, 20), (False, 2)])
def test_contract_makes_no_full_size_operand(repeats, t, renormalize):
    # oscillatory's tau = 0.004 node set on its 2001 training points (whose
    # nodes repeat), or 2001 random points
    n, m = 2001, 200
    sm = Smoother(tau=0.004, window=TauMultiples(6.0), quad_points=m, renormalize=renormalize)
    rng = np.random.default_rng(3)
    xs = np.linspace(0.0, 1.0, n) if repeats else rng.uniform(0.0, 1.0, n)
    points, inv = distinct_nodes(sm, xs)
    assert (inv is not None) == repeats
    vals = rng.standard_normal((points.size, t))
    base = np.ones((n, t)) if renormalize else None
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        contract(sm, xs, vals, inv, base)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak < m * n * t * 8 / 8


@pytest.mark.parametrize(
    "case", ["grid", "random", "signed_zeros", "signed_zeros_distinct", "empty"]
)
def test_distinct_nodes_matches_np_unique(case, monkeypatch):
    sm, xs = _node_set(case != "random")
    if case == "empty":
        xs = np.zeros(0)
    elif case.startswith("signed_zeros"):
        planted = [0.0, -0.0, 1.0, -0.0, 0.0, -1.0] if case == "signed_zeros" else [-0.0, 0.0]
        monkeypatch.setattr(smoothing, "quadrature_nodes", lambda sm, xs: np.array(planted))
    nodes = smoothing.quadrature_nodes(sm, xs)
    keys, inv = np.unique(nodes.view(np.int64), return_inverse=True)
    points, index = distinct_nodes(sm, xs)
    if keys.size == nodes.size:
        assert index is None and np.array_equal(points.view(np.int64), nodes.view(np.int64))
    else:
        assert np.array_equal(points.view(np.int64), keys)
        assert index.dtype == inv.dtype and np.array_equal(index, inv)
    assert (index is None) == (case in ("random", "signed_zeros_distinct", "empty"))


def test_smoothing_linearity():
    sm = Smoother(tau=2e-3, window=TauMultiples(6.0), quad_points=80)
    f = lambda xs: np.sin(xs).reshape(-1, 1)
    g = lambda xs: (xs**2).reshape(-1, 1)
    a, b = 1.7, -0.4
    grid = np.linspace(0.0, 0.5, 7)
    combo = smooth_fn_grid(lambda xs: a * f(xs) + b * g(xs), sm, grid)
    parts = a * smooth_fn_grid(f, sm, grid) + b * smooth_fn_grid(g, sm, grid)
    assert np.allclose(combo, parts, atol=1e-12)


def test_approximate_identity_small_tau():
    # tau = grid step / 10: smoothing barely moves a smooth function
    grid = np.linspace(0.0, 1.0, 101)
    step = grid[1] - grid[0]
    sm = Smoother(tau=step / 10, window=TauMultiples(8.0), quad_points=160, renormalize=True)
    f = lambda xs: np.sin(2 * np.pi * xs).reshape(-1, 1)
    smoothed = smooth_fn_grid(f, sm, grid)
    rel = np.max(np.abs(smoothed - f(grid))) / np.max(np.abs(f(grid)))
    assert rel < 1e-3


def test_shrinking_tau_converges_on_smooth_function():
    grid = np.linspace(0.0, 1.0, 201)
    f = lambda xs: np.sin(2 * np.pi * xs).reshape(-1, 1)
    errs = []
    for tau in [4e-2, 2e-2, 1e-2, 5e-3]:
        sm = Smoother(tau=tau, window=TauMultiples(8.0), quad_points=300, renormalize=True)
        smoothed = smooth_fn_grid(f, sm, grid)
        errs.append(float(np.linalg.norm(smoothed - f(grid))))
    for a, b in zip(errs, errs[1:]):
        assert b <= a + 1e-6


def test_smooth_grid_interpolation_agrees_on_linear_data():
    # linear data interpolates exactly, so grid smoothing matches function
    # smoothing at interior points
    grid = np.linspace(0.0, 1.0, 101)
    vals = (2.0 * grid - 0.3).reshape(-1, 1)
    # a wide window keeps the lone unpaired node at +H from skewing the
    # first moment; interior points stay clear of the clamped edges
    sm = Smoother(tau=5e-3, window=TauMultiples(8.0), quad_points=128, renormalize=True)
    from_values = smooth_grid(vals, sm, grid)
    inner = slice(5, 96)
    assert np.allclose(from_values[inner], vals[inner], atol=1e-10)


def test_smooth_grid_rejects_non_uniform():
    grid = np.array([0.0, 0.1, 0.25, 0.4])
    sm = Smoother(tau=1e-2, window=TauMultiples(4.0), quad_points=16)
    with pytest.raises(ValueError):
        smooth_grid(np.zeros((4, 1)), sm, grid)


def test_smooth_grid_1d_values():
    grid = np.linspace(-1.0, 1.0, 51)
    vals = np.cos(grid)
    sm = Smoother(tau=1e-2, window=TauMultiples(5.0), quad_points=60, renormalize=True)
    out = smooth_grid(vals, sm, grid)
    assert out.shape == vals.shape


@pytest.mark.parametrize(
    "window, written",
    [
        (GridSteps(4, 0.01), '{"mode": "grid_steps", "count": 4, "step": 0.01}'),
        (TauMultiples(6.0), '{"mode": "tau_multiples", "factor": 6.0}'),
    ],
)
def test_window_dict_round_trip(window, written):
    assert json.dumps(window_to_dict(window)) == written
    assert window_from_dict(json.loads(written)) == window


def test_window_from_dict_rejects_unknown_mode_and_missing_field():
    with pytest.raises(ValueError, match="unknown window mode: 'boxcar'"):
        window_from_dict({"mode": "boxcar"})
    with pytest.raises(KeyError):
        window_from_dict({"mode": "grid_steps", "count": 3})


@pytest.mark.parametrize("quad_points", [2, 3, 4, 5, 200, 201])
@pytest.mark.parametrize("tau", [1e-3, 0.05, 1.0])
def test_peak_weight_is_the_largest_quadrature_weight(quad_points, tau):
    for window in (GridSteps(4, 0.01), GridSteps(4, 2.5), TauMultiples(6.0), TauMultiples(40.0)):
        sm = Smoother(tau=tau, window=window, quad_points=quad_points)
        assert _peak_weight(sm) == quadrature(sm)[1].max()
