import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

import chain_reference as ref
import pooling_reference as pool_ref
from sal_learn import mlp, smoothing
from sal_learn.rng import SplitMix64
from sal_learn.model import (
    BLOCK_ROWS,
    MIN_GROUP_ROWS,
    Carry,
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
    _row_blocks,
    leaky_relu,
    norm,
    sq_norm,
)
from sal_learn.reporting import model_from_dict, model_to_dict


def test_pool_apply_hand_example():
    p = Pooling(out_dim=2, mu=1)
    got = p.apply(np.array([1.0, 2.0, 3.0]))
    assert np.allclose(got, [1.5, 2.5])


def test_pool_mu0_identity():
    p = Pooling(out_dim=4, mu=0)
    x = np.arange(4.0)
    assert np.array_equal(p.apply(x), x)


def test_pool_adjoint_hand_example():
    p = Pooling(out_dim=2, mu=1)
    got = p.adjoint(np.array([2.0, 4.0]))
    assert np.allclose(got, [1.0, 3.0, 2.0])


def test_pool_adjoint_identity_property():
    rng = np.random.default_rng(0)
    for out_dim, mu in [(1, 0), (1, 5), (3, 2), (4, 7)]:
        p = Pooling(out_dim, mu)
        for _ in range(5):
            x = rng.standard_normal(p.in_dim)
            y = rng.standard_normal(out_dim)
            assert np.isclose(np.dot(p.apply(x), y), np.dot(x, p.adjoint(y)))


def test_pool_matrix_matches_apply_and_full_row_rank():
    p = Pooling(out_dim=3, mu=4)
    mat = p.matrix()
    assert mat.shape == (3, 7)
    x = np.linspace(-1, 1, 7)
    assert np.allclose(mat @ x, p.apply(x))
    assert np.linalg.matrix_rank(mat) == 3


def test_pool_batched_rows():
    p = Pooling(out_dim=2, mu=1)
    batch = np.array([[1.0, 2.0, 3.0], [0.0, 0.0, 6.0]])
    got = p.apply(batch)
    assert got.shape == (2, 2)
    assert np.allclose(got, [[1.5, 2.5], [0.0, 3.0]])


def _assert_bits(got, want):
    assert got.shape == want.shape
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


def _spread(rng, shape):
    """Normals times powers of ten, so that any change of the summation order
    shows in the bits."""
    return rng.standard_normal(shape) * 10.0 ** rng.integers(-6, 7, size=shape)


@pytest.mark.parametrize(
    "m, t, mu",
    [
        (1001, 1, 99),  # the kinked desk grades
        (2001, 20, 108),  # the oscillatory desk grade
        (7, 3, 0),  # identity
        (9, 4, 5),  # window of 6
        (9, 2, 7),  # window of 8
        (40, 30, 127),  # window of 128
        (40, 30, 128),  # window of 129
        (40, 50, 299),  # window of 300
        (6, 40, 20),  # t >= mu + 1
        (3, 113, 120),
        (3, 112, 120),
    ],
)
def test_pool_adjoint_matches_reference_bits(m, t, mu):
    rng = np.random.default_rng(m * 1000 + t * 10 + mu)
    pool = Pooling(t, mu)
    y = _spread(rng, (m, t))
    _assert_bits(pool.adjoint(y), pool_ref.adjoint(pool, y))
    x = _spread(rng, (m, pool.in_dim))
    _assert_bits(pool.apply(x), pool_ref.apply(pool, x))


@pytest.mark.parametrize("t, mu", [(1, 99), (20, 108), (3, 5), (4, 0), (2, 300)])
def test_pool_adjoint_one_and_three_dim_inputs(t, mu):
    rng = np.random.default_rng(t + mu)
    pool = Pooling(t, mu)
    for shape in [(t,), (3, 4, t)]:
        y = _spread(rng, shape)
        _assert_bits(pool.adjoint(y), pool_ref.adjoint(pool, y))


def test_pool_adjoint_single_output_matches_reference_bits():
    # t = 1 takes the closed form: every window holds one y entry among +0.0s
    rng = np.random.default_rng(1)
    special = [0.0, -0.0, 5e-324, -5e-324, -1e-310, 1e300, -3.5]
    for mu in range(1, 301):
        pool = Pooling(1, mu)
        for shape in [(1,), (len(special) + 4, 1), (2, 3, 1)]:
            y = _spread(rng, shape)
            if len(shape) == 2:
                y[: len(special), 0] = special
            got = pool.adjoint(y)
            assert got.flags.c_contiguous
            _assert_bits(got, pool_ref.adjoint(pool, y))


def test_pool_adjoint_random_shapes_match_reference_bits():
    rng = np.random.default_rng(2024)
    for _ in range(240):
        m = int(rng.integers(1, 12))
        t = int(rng.integers(1, 48))
        mu = int(rng.integers(0, 320))
        pool = Pooling(t, mu)
        y = _spread(rng, (m, t))
        y[rng.random((m, t)) < 0.1] = -0.0
        _assert_bits(pool.adjoint(y), pool_ref.adjoint(pool, y))


def _window_sums(a, mu, pad):
    """The sliding-window definition: every window of mu+1 entries of a's
    last axis, zero-padded by `pad` on each side, summed and divided by mu+1."""
    z = np.pad(a, [(0, 0)] * (a.ndim - 1) + [(pad, pad)])
    return sliding_window_view(z, mu + 1, axis=-1).sum(axis=-1) / (mu + 1)


def test_pool_products_match_the_window_sums():
    # P's products against the definition itself, to rounding: within 1e-14
    # of the largest entry of the exact result
    rng = np.random.default_rng(2026)
    shapes = [(1, 99), (1, 0), (20, 108), (5, 0), (3, 200), (40, 129)] + [
        (int(rng.integers(1, 48)), int(rng.integers(0, 320))) for _ in range(200)
    ]
    for t, mu in shapes:
        pool = Pooling(t, mu)
        m = int(rng.integers(1, 40))
        x = rng.standard_normal((m, pool.in_dim))
        want = _window_sums(x, mu, 0)
        assert np.max(np.abs(pool.apply(x) - want)) <= 1e-14 * np.max(np.abs(want))
        y = rng.standard_normal((m, t))
        want = _window_sums(y, mu, mu)
        assert np.max(np.abs(pool.adjoint(y) - want)) <= 1e-14 * np.max(np.abs(want))


_WIDE_SHAPES = [
    (20, 108),  # the oscillatory desk grade
    (4, 5),
    (2, 7),
    (30, 127),
    (30, 128),
    (50, 299),
]


@pytest.mark.parametrize("m", [512 - 1, 512, 512 + 1, 2001])
@pytest.mark.parametrize("t, mu", _WIDE_SHAPES)
def test_pool_replay_across_row_blocks_matches_reference_bits(m, t, mu):
    rng = np.random.default_rng(m * 1000 + t * 10 + mu)
    pool = Pooling(t, mu)
    x = _spread(rng, (m, pool.in_dim))
    x[m // 2] = -0.0
    _assert_bits(pool.apply(x), pool_ref.apply(pool, x))
    y = _spread(rng, (m, t))
    y[m - 1] = -0.0
    _assert_bits(pool.adjoint(y), pool_ref.adjoint(pool, y))


def test_pool_replay_on_a_feature_block_matches_reference_bits():
    # a full BLOCK_ROWS block of the feature recursion at the oscillatory desk shape
    rng = np.random.default_rng(16384)
    pool = Pooling(20, 108)
    x = _spread(rng, (BLOCK_ROWS, pool.in_dim))
    _assert_bits(pool.apply(x), pool_ref.apply(pool, x))
    y = _spread(rng, (BLOCK_ROWS, 20))
    _assert_bits(pool.adjoint(y), pool_ref.adjoint(pool, y))


def _signed_zero_rows(rng, a):
    """Rows of +0.0, of -0.0, and of both mixed with values, every 512 rows."""
    m = len(a)
    for r in range(0, m, 512):
        a[r] = -0.0
        a[min(r + 1, m - 1)] = 0.0
        a[max(r - 1, 0), ::2] = -0.0
        a[min(r + 2, m - 1)] = np.where(rng.random(a.shape[1]) < 0.5, -0.0, a[min(r + 2, m - 1)])
    a[m - 1] = -0.0
    return a


@pytest.mark.parametrize("m", [512 - 1, 512, 512 + 1, 2001])
@pytest.mark.parametrize(
    "t, mu",
    _WIDE_SHAPES
    + [
        (40, 20),  # t >= mu + 1
        (113, 120),
        (112, 120),
    ],
)
def test_pool_window_major_blocks_match_reference_bits(m, t, mu):
    rng = np.random.default_rng(m * 7 + t * 3 + mu)
    pool = Pooling(t, mu)
    x = _signed_zero_rows(rng, _spread(rng, (m, pool.in_dim)))
    _assert_bits(pool.apply(x), pool_ref.apply(pool, x))
    y = _signed_zero_rows(rng, _spread(rng, (m, t)))
    _assert_bits(pool.adjoint(y), pool_ref.adjoint(pool, y))


@pytest.mark.parametrize("t, mu", [(20, 108), (50, 299), (112, 120)])
def test_pool_window_major_one_and_three_dim_inputs(t, mu):
    rng = np.random.default_rng(t * mu)
    pool = Pooling(t, mu)
    for lead in [(), (3, 4), (2, 512 + 3)]:
        x = _spread(rng, lead + (pool.in_dim,))
        _assert_bits(pool.apply(x), pool_ref.apply(pool, x))
        y = _spread(rng, lead + (t,))
        _assert_bits(pool.adjoint(y), pool_ref.adjoint(pool, y))


def test_pool_window_major_on_a_halved_feature_block_matches_reference_bits():
    # a full BLOCK_ROWS block with a window of 300
    rng = np.random.default_rng(299)
    pool = Pooling(50, 299)
    x = _signed_zero_rows(rng, _spread(rng, (BLOCK_ROWS, pool.in_dim)))
    _assert_bits(pool.apply(x), pool_ref.apply(pool, x))
    y = _signed_zero_rows(rng, _spread(rng, (BLOCK_ROWS, 50)))
    _assert_bits(pool.adjoint(y), pool_ref.adjoint(pool, y))


@pytest.mark.parametrize("t, mu", _WIDE_SHAPES + [(1, 99)])
def test_pool_apply_one_and_three_dim_inputs(t, mu):
    rng = np.random.default_rng(t + mu)
    pool = Pooling(t, mu)
    for shape in [(pool.in_dim,), (3, 4, pool.in_dim), (2, 512 + 3, pool.in_dim)]:
        x = _spread(rng, shape)
        _assert_bits(pool.apply(x), pool_ref.apply(pool, x))


def test_pool_apply_random_shapes_match_reference_bits():
    rng = np.random.default_rng(2025)
    for _ in range(240):
        m = int(rng.integers(1, 12))
        t = int(rng.integers(1, 48))
        mu = int(rng.integers(0, 320))
        pool = Pooling(t, mu)
        x = _spread(rng, (m, t + mu))
        x[rng.random((m, t + mu)) < 0.1] = -0.0
        _assert_bits(pool.apply(x), pool_ref.apply(pool, x))


def test_pool_apply_single_output_matches_reference_bits():
    # one window spans the whole last axis, so apply is a plain mean over it
    rng = np.random.default_rng(11)
    for mu in (1, 7, 8, 99, 127, 128, 200, 300):
        pool = Pooling(1, mu)
        for shape in [(mu + 1,), (1001, mu + 1), (3, 4, mu + 1)]:
            for scale in (1.0, 1e300, 1e-300):
                x = rng.standard_normal(shape) * scale
                x[..., ::3] = 0.0
                x[..., 1::5] = -0.0
                _assert_bits(pool.apply(x), pool_ref.apply(pool, x))
            for zero in (0.0, -0.0):
                x = np.full(shape, zero)
                _assert_bits(pool.apply(x), pool_ref.apply(pool, x))
        x = _spread(rng, (mu + 1, 50)).T  # not contiguous along the window
        _assert_bits(pool.apply(x), pool_ref.apply(pool, x))


def test_activation_values():
    x = np.array([-2.0, 0.0, 3.0])
    assert np.allclose(RELU(x), [0.0, 0.0, 3.0])
    assert np.allclose(IDENTITY(x), x)
    assert np.allclose(TANH(x), np.tanh(x))
    assert np.allclose(SINCOS_HALF(x), 0.5 * np.sin(x) + 0.5 * np.cos(x))
    assert np.allclose(leaky_relu(0.1)(x), [-0.2, 0.0, 3.0])


def test_activation_derivatives():
    x = np.array([-2.0, 0.5, 3.0])
    assert np.allclose(RELU.derivative(x), [0.0, 1.0, 1.0])
    # subgradient convention at the kink
    assert RELU.derivative(np.array([0.0]))[0] == 0.0
    assert np.allclose(IDENTITY.derivative(x), 1.0)
    assert np.allclose(TANH.derivative(x), 1.0 - np.tanh(x) ** 2)
    assert np.allclose(SINCOS_HALF.derivative(x), 0.5 * np.cos(x) - 0.5 * np.sin(x))
    assert np.allclose(leaky_relu(0.1).derivative(x), [0.1, 1.0, 1.0])


@pytest.mark.parametrize(
    "act",
    [IDENTITY, RELU, TANH, SINCOS_HALF, leaky_relu(0.1), combination([0.7, -0.4], [SINCOS_HALF, TANH])],
)
def test_value_and_derivative_have_the_bits_of_each_call(act):
    z = np.random.default_rng(2).standard_normal((300, 7)) * 4.0
    z[0, :3] = [0.0, -0.0, np.pi]
    value, deriv = act.value_and_derivative(z)
    assert value.tobytes() == act(z).tobytes()
    assert deriv.tobytes() == act.derivative(z).tobytes()
    # sincos_half is evaluated in place, with the bits of the five-array form
    assert SINCOS_HALF(z).tobytes() == (0.5 * np.sin(z) + 0.5 * np.cos(z)).tobytes()


def _edge_inputs() -> np.ndarray:
    """Uniform values up to 1e6 and normals, led by ±0.0, ±inf, NaN of either
    sign, ±pi, subnormals and ±1e6."""
    rng = np.random.default_rng(6)
    z = rng.uniform(-1e6, 1e6, (60, 7))
    z[30:] = rng.standard_normal((30, 7)) * 4.0
    special = [0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, np.pi, -np.pi, 5e-324, -5e-324, -1e-310, 1e6, -1e6]
    z.flat[: len(special)] = special
    return z


@pytest.mark.parametrize(
    "act",
    [IDENTITY, RELU, leaky_relu(0.1), TANH, SINCOS_HALF, combination([0.7, -0.4, 0.2], [SINCOS_HALF, TANH, IDENTITY])],
)
def test_activation_into_has_the_bits_of_the_call(act):
    z = _edge_inputs()
    with np.errstate(invalid="ignore"):
        expected = act(z)
        arg, out = z.copy(), np.full_like(z, 7.0)
        got = act.into(arg, out)
    assert got is out and not np.shares_memory(got, arg)
    assert np.array_equal(got.view(np.int64), expected.view(np.int64))
    if act.kind != "sincos_half":  # the one form documented to overwrite z
        assert np.array_equal(arg.view(np.int64), z.view(np.int64))


# each base kind written out in plain NumPy: (value, derivative)
_PLAIN = {
    "identity": (lambda z: z, np.ones_like),
    "relu": (lambda z: np.maximum(z, 0.0), lambda z: (z > 0).astype(float)),
    "leaky_relu": (lambda z: np.where(z >= 0, z, 0.1 * z), lambda z: np.where(z > 0, 1.0, 0.1)),
    "tanh": (np.tanh, lambda z: 1 - np.tanh(z) * np.tanh(z)),
    "sincos_half": (
        lambda z: 0.5 * np.sin(z) + 0.5 * np.cos(z),
        lambda z: 0.5 * np.cos(z) - 0.5 * np.sin(z),
    ),
}


def _plain(act, z, which):
    """act's value (which=0) or derivative (which=1) at z by _PLAIN; a
    combination as zeros plus each weight times its basis kind, in order."""
    if act.kind != "combination":
        return _PLAIN[act.kind][which](z)
    total = np.zeros_like(z)
    for w, base in zip(act.weights, act.basis):
        total += w * _plain(base, z, which)
    return total


@pytest.mark.parametrize(
    "act",
    [IDENTITY, RELU, leaky_relu(0.1), TANH, SINCOS_HALF, combination([0.7, -0.4, 0.2], [SINCOS_HALF, TANH, IDENTITY])],
    ids=lambda act: act.kind,
)
def test_each_kind_has_the_bits_of_plain_numpy(act):
    z = _edge_inputs()
    with np.errstate(invalid="ignore"):
        value, deriv = _plain(act, z, 0), _plain(act, z, 1)
        got = [act(z), act.into(z.copy(), np.full_like(z, 7.0)), *act.value_and_derivative(z), act.derivative(z)]
    for result, want in zip(got, [value, value, value, deriv, deriv]):
        assert np.array_equal(result.view(np.int64), want.view(np.int64))


def test_combination_weighted_sum():
    combo = combination(np.array([0.25, 0.75]), [RELU, IDENTITY])
    got = combo(np.array([-4.0]))
    assert np.allclose(got, [-3.0])


def test_combination_rejects_nesting():
    combo = combination(np.array([1.0]), [RELU])
    with pytest.raises(ValueError):
        combination(np.array([1.0]), [combo])


def test_unknown_activation_kind():
    with pytest.raises(ValueError):
        Activation("swish")


def _toy_model():
    model = Model(input_dim=1, output_dim=1)
    w1 = np.array([[2.0], [4.0]])
    b1 = np.zeros(2)
    model.grades.append(Grade(weight=w1, bias=b1, pooling=Pooling(1, 1), activation=RELU))
    return model


def test_component_hand_example():
    # pool of [2, 4] -> mean 3
    model = _toy_model()
    got = model.component_values(0, np.array([[1.0]]))
    assert np.allclose(got, [[3.0]])


def test_features_recursion_and_predict():
    model = _toy_model()
    x = np.array([[1.0], [-1.0]])
    feats = model.features(x, upto=1)
    # N_1 = relu(W x + b), pre-pooling
    assert feats.shape == (2, 2)
    assert np.allclose(feats, [[2.0, 4.0], [0.0, 0.0]])
    # the component is the pooled affine image; activation shapes features only
    pred = model.predict(x)
    assert np.allclose(pred, [[3.0], [-3.0]])


def test_predict_is_sum_of_components():
    rng = np.random.default_rng(3)
    model = Model(1, 2)
    widths = [5, 4]
    prev = 1
    for w in widths:
        model.grades.append(
            Grade(
                weight=rng.standard_normal((w, prev)),
                bias=rng.standard_normal(w),
                pooling=Pooling(2, w - 2),
                activation=TANH,
            )
        )
        prev = w
    x = rng.standard_normal((7, 1))
    total = sum(model.component_values(k, x) for k in range(2))
    assert np.allclose(model.predict(x), total)


def test_features_upto_zero_is_input():
    model = _toy_model()
    x = np.array([[0.5], [2.0]])
    assert np.array_equal(model.features(x, upto=0), x)


def _cascade(head):
    """Six grades on 1-D input: plain, then three sharing one grid_steps node
    set (the first with a combination activation, the last wider), then a
    renormalized tau_multiples node set, then plain again."""
    rng = np.random.default_rng(11)
    shared = smoothing.GridSteps(25, 1e-3)
    # widths near the desk's 100: OpenBLAS rounds short row blocks of such
    # products differently from the full product, so a too-small block shows
    specs = [
        (100, SINCOS_HALF, None),
        (100, combination([0.7, 0.4], [RELU, TANH]), smoothing.Smoother(0.01, shared, 401)),
        (100, RELU, smoothing.Smoother(0.005, shared, 401)),
        (120, TANH, smoothing.Smoother(0.004, shared, 401)),
        (100, RELU, smoothing.Smoother(0.01, smoothing.TauMultiples(3.0), 401, renormalize=True)),
        (100, RELU, None),
    ]
    model = Model(1, 2, head=head)
    prev = 1 if head is None else head.weights[-2].shape[0]
    for width, act, sm in specs:
        model.grades.append(
            Grade(
                weight=rng.standard_normal((width, prev)) / np.sqrt(prev),
                bias=rng.standard_normal(width),
                pooling=Pooling(2, width - 2),
                activation=act,
                smoother=sm,
            )
        )
        prev = width
    return model


@pytest.mark.parametrize("hybrid", [False, True])
def test_blocked_evaluation_matches_reference_chain(hybrid):
    head = None
    if hybrid:
        head = mlp.he_init(1, [5, 6], 2, [TANH, RELU], SplitMix64(4))
    model = _cascade(head)
    x = np.linspace(-0.9, 0.8, 83)[:, None]
    nodes = x.shape[0] * 401
    assert nodes > 2 * BLOCK_ROWS and nodes % BLOCK_ROWS != 0
    expected = head.predict(x) if hybrid else np.zeros((x.shape[0], 2))
    for k in range(len(model.grades)):
        comp = ref.component(model, k, x)
        assert np.array_equal(model.component_values(k, x), comp)
        expected = expected + comp
    assert np.array_equal(model.predict(x), expected)
    points = np.linspace(-1.0, 1.0, nodes)[:, None]
    a = head.hidden(points) if hybrid else points
    for g in model.grades[:4]:
        a = g.activation(a @ g.weight.T + g.bias)
    assert np.array_equal(model.features(points, upto=4), a)


def _smoothed_pair(t, sm, seed=3):
    """A plain grade, then a smoothed one; widths 100 as in _cascade."""
    rng = np.random.default_rng(seed)
    model = Model(1, t)
    for prev, act, smoother in [(1, SINCOS_HALF, None), (100, RELU, sm)]:
        model.grades.append(
            Grade(
                weight=rng.standard_normal((100, prev)) / np.sqrt(prev),
                bias=rng.standard_normal(100),
                pooling=Pooling(t, 100 - t),
                activation=act,
                smoother=smoother,
            )
        )
    return model


def _tau_multiples(tau, renormalize=False):
    return smoothing.Smoother(tau, smoothing.TauMultiples(6.0), 200, renormalize)


GRID_201 = np.linspace(0.0, 1.0, 201)[:, None]


@pytest.mark.parametrize(
    "t, sm, x, distinct",
    [
        # a commensurate uniform grid: 30943 distinct of 40200 nodes, 2 row blocks
        (20, _tau_multiples(0.004), GRID_201, 30943),
        (1, _tau_multiples(0.004), GRID_201, 30943),
        (20, _tau_multiples(0.005), GRID_201, 16807),
        (1, _tau_multiples(0.005), GRID_201, 16807),
        # random points: every node is distinct, so the node array is passed whole
        (20, _tau_multiples(0.005), np.random.default_rng(8).uniform(0, 1, (150, 1)), 30000),
        (1, _tau_multiples(0.005), np.random.default_rng(8).uniform(0, 1, (150, 1)), 30000),
        (20, _tau_multiples(0.005, renormalize=True), GRID_201, 16807),
        (1, _tau_multiples(0.005, renormalize=True), GRID_201, 16807),
        # a distinct set under 500 rows, against a reference product of 1010 rows
        (20, smoothing.Smoother(0.01, smoothing.GridSteps(5, 0.01), 10), GRID_201[::2], 203),
        (1, smoothing.Smoother(0.01, smoothing.GridSteps(5, 0.01), 10), GRID_201[::2], 203),
    ],
)
def test_distinct_node_evaluation_matches_reference(t, sm, x, distinct):
    nodes = smoothing.quadrature_nodes(sm, x[:, 0])
    assert np.unique(nodes.view(np.int64)).size == distinct
    model = _smoothed_pair(t, sm)
    comp = ref.component(model, 1, x)
    assert np.array_equal(model.component_values(1, x), comp)
    assert np.array_equal(model.predict(x), ref.component(model, 0, x) + comp)


@pytest.mark.parametrize("n", [BLOCK_ROWS + 1, 2 * BLOCK_ROWS - 1, 2 * BLOCK_ROWS + 1, 7 * BLOCK_ROWS + 3, 100_000])
def test_row_blocks_stay_long(n):
    blocks = _row_blocks(n)
    assert [b.start for b in blocks] == [0] + [b.stop for b in blocks[:-1]] and blocks[-1].stop == n
    assert all(BLOCK_ROWS // 2 <= b.stop - b.start <= BLOCK_ROWS for b in blocks)


@pytest.mark.parametrize("width", [100, 128])
def test_blocked_product_has_the_bits_of_the_full_product(width):
    rng = np.random.default_rng(width)
    a = rng.standard_normal((3 * BLOCK_ROWS + 5, width))
    w = rng.standard_normal((width, width))
    full = a @ w.T
    blocks = _row_blocks(len(a))
    assert len(blocks) == 4
    for rows in blocks:
        assert np.array_equal(a[rows] @ w.T, full[rows])


def _planned_model(t, smoothers, head=None, width=100, seed=7):
    """Grades of width `width`: a plain sincos_half grade, then one grade
    per entry of smoothers (None for a plain grade)."""
    rng = np.random.default_rng(seed)
    model = Model(1, t, head=head)
    prev = 1 if head is None else head.weights[-2].shape[0]
    acts = [RELU, TANH, combination([0.7, 0.4], [RELU, SINCOS_HALF])]
    for k, sm in enumerate([None] + list(smoothers)):
        model.grades.append(
            Grade(
                weight=rng.standard_normal((width, prev)) / np.sqrt(prev),
                bias=rng.standard_normal(width),
                pooling=Pooling(t, width - t),
                activation=SINCOS_HALF if k == 0 else acts[k % 3],
                smoother=sm,
            )
        )
        prev = width
    return model


def _assert_stages_match_reference(model, x):
    expected = model.head.predict(x) if model.head is not None else np.zeros((len(x), model.output_dim))
    stages = list(model.staged_predict(x))
    if model.head is not None:
        assert np.array_equal(stages.pop(0), expected)
    assert len(stages) == len(model.grades)
    for k, stage in enumerate(stages):
        expected = expected + ref.component(model, k, x)
        assert np.array_equal(stage, expected)
    assert np.array_equal(model.predict(x), expected)


def _distinct_keys(model, x):
    return [
        np.unique(smoothing.quadrature_nodes(g.smoother, x[:, 0]).view(np.int64))
        for g in model.grades
        if g.smoother is not None
    ]


def _dyadic(count, quad_points, renormalize=False):
    # half-width count/128 over quad_points nodes: on a grid of multiples
    # of 1/128 every node is a short dyadic fraction, so nodes of different
    # sets coincide exactly where their values agree
    return smoothing.Smoother(0.05, smoothing.GridSteps(count, 2.0**-7), quad_points, renormalize)


@pytest.mark.parametrize(
    "t, renormalize, hybrid", [(1, False, False), (20, True, False), (1, True, True), (20, False, True)]
)
def test_node_plan_on_a_commensurate_grid_matches_reference(t, renormalize, hybrid):
    # three node sets on a dyadic grid, a plain grade between them.  The
    # coarse set (the deepest) lies in the wide one, and the wide set's
    # nodes but 32 lie in the narrow one.  So the plan runs the coarse
    # set's 863 nodes, pooling all three grades at the ones in their sets,
    # then the narrow set's other 832 nodes together with the one wide
    # node left, a group too short to run alone
    head = mlp.he_init(1, [5, 6], t, [TANH, RELU], SplitMix64(4)) if hybrid else None
    wide, narrow, coarse = _dyadic(32, 64, renormalize), _dyadic(16, 64), _dyadic(32, 32)
    model = _planned_model(t, [wide, None, narrow, coarse], head)
    x = (np.arange(0, 801) / 128.0)[:, None]
    keys = _distinct_keys(model, x)
    assert [k.size for k in keys] == [864, 1664, 863]
    assert np.unique(np.concatenate(keys)).size == 1696
    _assert_stages_match_reference(model, x)


@pytest.mark.parametrize("t", [1, 20])
def test_node_plan_on_random_points_matches_reference(t):
    # tau_multiples sets whose node spacings are multiples of each other
    # share part of their nodes around random points too
    sets = [_tau_multiples(tau) for tau in (0.004, 0.002, 0.001)]
    model = _planned_model(t, [sets[0], sets[1], None, sets[2], sets[1]], width=128)
    x = np.random.default_rng(11).uniform(0.0, 1.0, (90, 1))
    keys = _distinct_keys(model, x)
    assert np.unique(np.concatenate(keys)).size < sum(k.size for k in keys[:3]) - 1000
    _assert_stages_match_reference(model, x)


@pytest.mark.parametrize("t", [1, 20])
def test_short_node_group_runs_with_the_next_deeper_group(t, monkeypatch):
    # the wide set's nodes not in the narrow set, 16 beyond each end of the
    # grid, would form a group of 32 rows; they run with the narrow set's
    # 864 nodes instead, as one chain run of 896 rows
    model = _planned_model(t, [_dyadic(32, 64), _dyadic(16, 64)])
    x = (np.arange(0, 401) / 128.0)[:, None]
    wide, narrow = _distinct_keys(model, x)
    assert narrow.size == 864 and np.setdiff1d(wide, narrow).size == 32 < MIN_GROUP_ROWS
    runs = []
    run_chain = Model.run_chain

    def recording_chain(self, points, wanted=(), *args, **kwargs):
        runs.append((len(points), sorted(wanted)))
        return run_chain(self, points, wanted, *args, **kwargs)

    monkeypatch.setattr(Model, "run_chain", recording_chain)
    _assert_stages_match_reference(model, x)
    assert runs[:2] == [(len(x), [0]), (896, [1, 2])]


@pytest.mark.parametrize("node_sets, hybrid", [(1, False), (2, False), (2, True)])
def test_predict_on_zero_rows_gives_zero_rows(node_sets, hybrid):
    if node_sets == 1:
        model = _smoothed_pair(2, _tau_multiples(0.005))
    else:
        model = _cascade(mlp.he_init(1, [5, 6], 2, [TANH, RELU], SplitMix64(4)) if hybrid else None)
    assert model.predict(np.full((3, 1), 0.5)).shape == (3, 2)
    empty = np.zeros((0, 1))
    assert model.predict(empty).shape == (0, 2)
    stages = [out.shape for out in model.staged_predict(empty)]
    assert stages == [(0, 2)] * (len(model.grades) + hybrid)
    assert all(model.component_values(k, empty).shape == (0, 2) for k in range(len(model.grades)))


def test_node_plan_peak_memory_stays_below_all_node_values():
    # six node sets of 20000 random-point nodes each, 73769 distinct in
    # all: each grade's node values are contracted and dropped after the
    # last group holding its nodes, so the plan never holds them all
    sets = [_tau_multiples(tau) for tau in (0.01, 0.008, 0.006, 0.005, 0.004, 0.003)]
    model = _planned_model(40, sets, width=44)
    x = np.random.default_rng(5).uniform(0.0, 1.0, (100, 1))
    keys = _distinct_keys(model, x)
    assert np.unique(np.concatenate(keys)).size == 73769
    all_values = sum(k.size for k in keys) * 40 * 8
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        for _ in model.staged_predict(x):
            pass
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak < all_values


@pytest.mark.parametrize("hybrid", [False, True])
def test_chain_work_arrays_keep_the_reference_bits(hybrid):
    # the chain reuses two work arrays per width over every block and grade:
    # widths 100 -> 120 -> 100, an uneven last block, a select mask that
    # leaves some blocks without rows, and a consumed carry kept at its width
    rng = np.random.default_rng(12)
    head = mlp.he_init(1, [5, 6], 2, [TANH, RELU], SplitMix64(4)) if hybrid else None
    model = Model(1, 2, head=head)
    prev = 1 if head is None else head.weights[-2].shape[0]
    for width, act in [(100, SINCOS_HALF), (120, IDENTITY), (100, leaky_relu(0.1)), (100, TANH)]:
        model.grades.append(
            Grade(
                weight=rng.standard_normal((width, prev)) / np.sqrt(prev),
                bias=rng.standard_normal(width),
                pooling=Pooling(2, width - 2),
                activation=act,
            )
        )
        prev = width
    n = 4 * BLOCK_ROWS + 3
    blocks = _row_blocks(n)
    sizes = [b.stop - b.start for b in blocks]
    assert len(blocks) > 3 and len(set(sizes)) > 1
    points = np.linspace(-1.0, 1.0, n)[:, None]
    mask = np.zeros(n, dtype=bool)
    mask[blocks[1]] = rng.random(sizes[1]) < 0.5
    mask[blocks[3].start : blocks[3].start + 600] = True
    comps, kept = model.run_chain(points, [0, 1, 2, 3], keep=2, select={2: mask})
    for k in (0, 1, 3):
        assert np.array_equal(comps[k], ref.raw_component(model, k, points))
    assert np.array_equal(comps[2], ref.raw_component(model, 2, points[mask]))
    assert kept.depth == 2 and np.array_equal(kept.feats, ref.features(model, 2, points))
    comps, kept = model.run_chain(points, [1], keep=0)
    assert kept.depth == 0 and np.array_equal(kept.feats, ref.features(model, 0, points))
    assert np.array_equal(comps[1], ref.raw_component(model, 1, points))
    carry = Carry(1, ref.features(model, 1, points).copy())
    comps, kept = model.run_chain(None, [1, 2], carry, keep=3)
    assert kept.feats is carry.feats and kept.depth == 3
    assert np.array_equal(kept.feats, ref.features(model, 3, points))
    for k in (1, 2):
        assert np.array_equal(comps[k], ref.raw_component(model, k, points))


_FAULT_PROBE = """
import resource
import numpy as np
from sal_learn.model import BLOCK_ROWS, RELU, SINCOS_HALF, TANH, Grade, Model, Pooling, _row_blocks
rng = np.random.default_rng(1)
model = Model(1, 1)
prev = 1
for act in (SINCOS_HALF, RELU, TANH):
    w = rng.standard_normal((128, prev)) / np.sqrt(prev)
    model.grades.append(Grade(w, rng.standard_normal(128), Pooling(1, 127), act))
    prev = 128
points = np.linspace(-1.0, 1.0, 16 * BLOCK_ROWS)[:, None]
assert len(_row_blocks(len(points))) == 16
model.run_chain(points, [0, 1, 2])
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
model.run_chain(points, [0, 1, 2])
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="counts Linux minor page faults")
def test_second_chain_run_takes_few_page_faults():
    # fresh arrays per row block are returned to the kernel and faulted back
    # in: about 17,000 faults with glibc on a 2-core x86-64 box, against
    # about 1,400 with two reused work arrays per width.  glibc's allocation
    # thresholds move with what a process has freed before, so the count is
    # taken in a fresh interpreter
    src = str(Path(smoothing.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    run = subprocess.run([sys.executable, "-c", _FAULT_PROBE], env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    assert int(run.stdout) < 4096


def test_carry_must_cover_the_points():
    model = _smoothed_pair(1, _tau_multiples(0.005))
    carry = Carry(1, np.zeros((4, 100)))
    with pytest.raises(ValueError, match="4 rows for 3 points"):
        model.run_chain(np.zeros((3, 1)), [1], carry)
    assert model.run_chain(np.zeros((4, 1)), [1], carry)[0][1].shape == (4, 1)


def test_empty_model_predict_raises():
    model = Model(1, 1)
    with pytest.raises(ValueError):
        model.predict(np.zeros((3, 1)))


def test_inner_product_and_norms():
    u = np.array([[1.0, 2.0], [3.0, 4.0]])
    v = np.array([[1.0, 0.0], [0.0, 1.0]])
    assert inner_product(u, v) == 5.0
    assert sq_norm(u) == 30.0
    assert norm(u) == pytest.approx(np.sqrt(30.0))
    with pytest.raises(ValueError):
        inner_product(u, np.zeros((3, 2)))


def test_serialization_roundtrip():
    model = _toy_model()
    model.grades[0] = Grade(
        weight=model.grades[0].weight,
        bias=model.grades[0].bias,
        pooling=model.grades[0].pooling,
        activation=combination(np.array([0.5, 0.5]), [RELU, SINCOS_HALF]),
    )
    doc = model_to_dict(model)
    back = model_from_dict(doc)
    x = np.linspace(-2, 2, 9).reshape(-1, 1)
    assert np.array_equal(back.predict(x), model.predict(x))
    assert doc == model_to_dict(back)


@pytest.mark.parametrize(
    "window, written",
    [
        (smoothing.GridSteps(25, 1e-3), '{"mode": "grid_steps", "count": 25, "step": 0.001}'),
        (smoothing.TauMultiples(6.0), '{"mode": "tau_multiples", "factor": 6.0}'),
    ],
)
def test_model_file_pins_each_window_mode(window, written):
    sm = smoothing.Smoother(0.005, window, 200)
    model = Model(1, 1)
    model.grades.append(Grade(np.ones((2, 1)), np.zeros(2), Pooling(1, 1), RELU, sm))
    doc = model_to_dict(model)["grades"][0]["smoothing"]
    assert json.dumps(doc) == f'{{"tau": 0.005, "window_mode": {written}, "M": 200}}'
    assert model_from_dict(model_to_dict(model)).grades[0].smoother == sm


def test_serialization_keeps_renormalized_smoother():
    rng = np.random.default_rng(3)
    sm = smoothing.Smoother(0.05, smoothing.TauMultiples(3.0), 21, renormalize=True)
    model = Model(1, 1)
    model.grades.append(
        Grade(
            weight=rng.standard_normal((3, 1)),
            bias=rng.standard_normal(3),
            pooling=Pooling(1, 2),
            activation=RELU,
            smoother=sm,
        )
    )
    doc = model_to_dict(model)
    assert doc["grades"][0]["smoothing"]["renormalize"] is True
    back = model_from_dict(doc)
    assert back.grades[0].smoother == sm
    x = np.linspace(-1, 1, 7)[:, None]
    assert np.array_equal(back.predict(x), model.predict(x))
    # a plain smoother writes no renormalize key, so older files keep their bytes
    plain = smoothing.Smoother(0.05, smoothing.TauMultiples(3.0), 21)
    model.grades[0].smoother = plain
    assert "renormalize" not in model_to_dict(model)["grades"][0]["smoothing"]
    assert model_from_dict(model_to_dict(model)).grades[0].smoother == plain


def test_grade_validation():
    with pytest.raises(ValueError):
        Grade(
            weight=np.zeros((3, 1)),
            bias=np.zeros(2),  # mismatched
            pooling=Pooling(1, 2),
            activation=RELU,
        )
    with pytest.raises(ValueError):
        Grade(
            weight=np.zeros((3, 1)),
            bias=np.zeros(3),
            pooling=Pooling(1, 0),  # pooling.in_dim != width
            activation=RELU,
        )
