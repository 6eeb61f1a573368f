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
from sal_learn import model as model_mod
from sal_learn.rng import SplitMix64
from sal_learn.model import (
    BLOCK_ROWS,
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
    _AngleSum,
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


def test_pool_mu0_returns_its_input_exactly():
    # a product with the identity would give [inf, nan] for [inf, 1.0] and
    # +0.0 for -0.0; both methods return a copy, every bit kept
    pool = Pooling(out_dim=3, mu=0)
    a = np.array([[np.inf, 1.0, -0.0], [np.nan, -np.inf, 2.0], [-np.nan, -0.0, 5e-324]])
    for method in (pool.apply, pool.adjoint):
        for arg in (a, a[0], np.asfortranarray(a)):
            got = method(arg)
            assert not np.shares_memory(got, arg)
            assert np.array_equal(got.view(np.int64), np.ascontiguousarray(arg).view(np.int64))
    assert Pooling(2, 0).apply([np.inf, 1.0]).tolist() == [np.inf, 1.0]


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


_SPECIAL = [0.0, -0.0, 5e-324, -5e-324, -1e-310, 1e300, -3.5]


def _with_specials(a):
    """a with _SPECIAL written over entries from its middle row on, when it
    has at least twice as many entries."""
    flat = a.reshape(-1)
    if flat.size >= 2 * len(_SPECIAL):
        start = min(len(a) // 2 * a.shape[-1], flat.size - len(_SPECIAL))
        flat[start : start + len(_SPECIAL)] = _SPECIAL
    return a


@pytest.mark.parametrize(
    "m, t, mu",
    [
        (1001, 1, 99),  # the kinked desk grades
        (2001, 20, 108),  # the oscillatory desk grade
        (BLOCK_ROWS, 20, 108),  # a full feature block at the oscillatory desk shape
        (BLOCK_ROWS, 50, 299),  # a full feature block with a window of 300
        (7, 3, 0),  # identity
        (9, 4, 5),  # window of 6
        (9, 2, 7),  # window of 8
        (40, 30, 127),  # window of 128
        (40, 30, 128),  # window of 129
        (40, 50, 299),  # window of 300
        (6, 40, 20),  # t >= mu + 1
        (3, 113, 120),
        (3, 112, 120),
    ]
    # one output: the one window is the whole last axis
    + [(1001, 1, mu) for mu in (1, 7, 8, 127, 128, 200, 300)],
)
def test_pool_adjoint_matches_reference_bits(m, t, mu):
    rng = np.random.default_rng(m * 1000 + t * 10 + mu)
    pool = Pooling(t, mu)
    y = _spread(rng, (m, t))
    x = _spread(rng, (m, pool.in_dim))
    for a in (x, y):
        if m >= 512:
            _signed_zero_rows(rng, a)
        _with_specials(a)
    _assert_bits(pool.adjoint(y), pool_ref.adjoint(pool, y))
    _assert_bits(pool.apply(x), pool_ref.apply(pool, x))


def _check_random_shapes(rng, shapes, product):
    """product(pool) = (fn, ref, width of its input) matches ref in the bits
    for every (t, mu) in shapes, at leading shapes (), (m,) and (2, 3),
    scaled from 1e-300 to 1e300, with a tenth of the entries -0.0 and the
    input stored row- or column-major."""
    for t, mu in shapes:
        pool = Pooling(t, mu)
        fn, want, width = product(pool)
        m = int(rng.integers(1, 12))
        for lead in [(), (m,), (2, 3)]:
            scale = (1.0, 1e300, 1e-300)[int(rng.integers(0, 3))]
            a = _spread(rng, lead + (width,)) * scale
            a[rng.random(a.shape) < 0.1] = -0.0
            _with_specials(a)
            if len(lead) == 1 and rng.random() < 0.5:
                a = np.asfortranarray(a)
            _assert_bits(fn(a), want(pool, a))


def _random_shapes(rng):
    return [(int(rng.integers(1, 48)), int(rng.integers(0, 320))) for _ in range(240)]


def test_pool_adjoint_single_output_matches_reference_bits():
    # t = 1: every window holds the one y entry among +0.0s
    rng = np.random.default_rng(1)
    for mu in range(301):
        pool = Pooling(1, mu)
        for shape in [(1,), (len(_SPECIAL) + 4, 1), (2, 3, 1)]:
            y = _spread(rng, shape)
            if len(shape) == 2:
                y[: len(_SPECIAL), 0] = _SPECIAL
            got = pool.adjoint(y)
            assert got.flags.c_contiguous
            _assert_bits(got, pool_ref.adjoint(pool, y))


def test_pool_adjoint_random_shapes_match_reference_bits():
    rng = np.random.default_rng(2024)
    _check_random_shapes(
        rng, _random_shapes(rng), lambda pool: (pool.adjoint, pool_ref.adjoint, pool.out_dim)
    )


def test_pool_apply_random_shapes_match_reference_bits():
    # every one-output window up to 300, the kinked grades' width, and 240
    # random shapes
    rng = np.random.default_rng(2025)
    shapes = [(1, mu) for mu in range(301)] + _random_shapes(rng)
    _check_random_shapes(rng, shapes, lambda pool: (pool.apply, pool_ref.apply, pool.in_dim))


@pytest.mark.parametrize("t, mu", [(1, 99), (20, 108), (3, 5), (4, 0), (2, 300)])
def test_pool_adjoint_one_and_three_dim_inputs(t, mu):
    rng = np.random.default_rng(t + mu)
    pool = Pooling(t, mu)
    for shape in [(t,), (3, 4, t)]:
        y = _spread(rng, shape)
        _assert_bits(pool.adjoint(y), pool_ref.adjoint(pool, y))


@pytest.mark.parametrize("t, mu", [(1, 0), (1, 99), (2, 5), (20, 108), (40, 20)])
def test_pool_lift_is_the_minimum_norm_right_inverse(t, mu):
    rng = np.random.default_rng(t * 1000 + mu)
    pool = Pooling(t, mu)
    mat = pool.matrix()
    for v in (rng.standard_normal(t), rng.standard_normal((t, 5))):
        u = pool.lift(v)
        assert u.shape == (pool.in_dim,) + v.shape[1:]
        np.testing.assert_allclose(mat @ u, v, rtol=1e-12, atol=1e-12 * np.abs(v).max())
        want = np.linalg.pinv(mat) @ v
        np.testing.assert_allclose(u, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())
        assert pool.lift_sq_norm(v) == pytest.approx(float(np.sum(u * u)), rel=1e-12)
    assert pool.lambda_max == pytest.approx(np.linalg.norm(mat, 2) ** 2, rel=1e-12)


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


@pytest.mark.parametrize("t, mu", _WIDE_SHAPES + [(1, 99)])
def test_pool_apply_one_and_three_dim_inputs(t, mu):
    rng = np.random.default_rng(t + mu)
    pool = Pooling(t, mu)
    for shape in [(pool.in_dim,), (3, 4, pool.in_dim), (2, 512 + 3, pool.in_dim)]:
        x = _spread(rng, shape)
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
    # sincos_half is one shifted sine, with the bits of the three-operation form
    assert SINCOS_HALF(z).tobytes() == (np.sin(z + np.pi / 4) * np.sqrt(0.5)).tobytes()


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
    assert np.array_equal(arg.view(np.int64), z.view(np.int64))


# each base kind written out in plain NumPy: (value, derivative)
_PLAIN = {
    "identity": (lambda z: z, np.ones_like),
    "relu": (lambda z: np.maximum(z, 0.0), lambda z: (z > 0).astype(float)),
    "leaky_relu": (lambda z: np.where(z >= 0, z, 0.1 * z), lambda z: np.where(z > 0, 1.0, 0.1)),
    "tanh": (np.tanh, lambda z: 1 - np.tanh(z) * np.tanh(z)),
    "sincos_half": (
        lambda z: np.sin(z + np.pi / 4) * np.sqrt(0.5),
        lambda z: np.cos(z + np.pi / 4) * np.sqrt(0.5),
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


class _CountingAngleSum(_AngleSum):
    """_AngleSum, counting the node sets it is made for and the row blocks
    it fills."""

    made: list = []
    filled: list = []

    def __init__(self, grade, xs, offsets):
        super().__init__(grade, xs, offsets)
        self.made.append((len(xs), len(offsets)))

    def fill(self, rows, tmp, out):
        self.filled.append((rows.start, rows.stop, self.per_point))
        return super().fill(rows, tmp, out)


@pytest.fixture
def angle_sums(monkeypatch):
    """The node sets whose grade-1 features come by angle addition, and
    their filled blocks, recorded for the test's duration."""
    monkeypatch.setattr(_CountingAngleSum, "made", [])
    monkeypatch.setattr(_CountingAngleSum, "filled", [])
    monkeypatch.setattr(model_mod, "_AngleSum", _CountingAngleSum)
    return _CountingAngleSum


@pytest.mark.parametrize("t", [1, 20])
def test_angle_sum_is_grade_one_at_the_nodes(t, angle_sums):
    # random points: every node is distinct, so N_1 at the nodes comes by
    # angle addition; kept at depth 1, it is the shifted-sine chain at the
    # nodes to rounding, and the reference's angle sum in every bit
    sm = _tau_multiples(0.005)
    model = _smoothed_pair(t, sm)
    x = np.random.default_rng(8).uniform(0, 1, (150, 1))
    nodes = smoothing.quadrature_nodes(sm, x[:, 0])
    assert np.unique(nodes.view(np.int64)).size == nodes.size
    comps, kept = model._planned_components(x, [1], keep=1)
    assert angle_sums.made == [(150, 200)]
    chain = model.run_chain(nodes[:, None], keep=1)[1].feats
    assert kept.depth == 1 and kept.feats.shape == chain.shape
    assert np.max(np.abs(kept.feats - chain)) <= 1e-13 * np.max(np.abs(chain))
    assert np.array_equal(kept.feats, ref.angle_sum(model, sm, x))
    assert np.array_equal(comps[1], ref.component(model, 1, x))


def _node_plan_takes_angle_sum(model, x, angle_sums):
    """How many times staged_predict and predict at x together form grade
    1's node features by angle addition (each once per node set that takes
    it); each component_values at x takes one too when any set does, and
    every value is the reference's."""
    del angle_sums.made[:]
    _assert_stages_match_reference(model, x)
    taken = len(angle_sums.made)
    smoothed = [k for k, g in enumerate(model.grades) if g.smoother is not None]
    for k in smoothed:
        assert np.array_equal(model.component_values(k, x), ref.component(model, k, x))
    assert len(angle_sums.made) - taken == (len(smoothed) if taken else 0)
    return taken


def test_node_plan_takes_angle_sum_at_each_whole_node_set(angle_sums):
    # sincos_half grade 1 on the input and no repeated node: one angle sum
    # per node set and evaluation, however many sets the model has; a set
    # that repeats nodes, a head or another grade-1 kind runs the chain
    # from the nodes themselves
    random_points = np.random.default_rng(8).uniform(0, 1, (150, 1))
    one_key = [_tau_multiples(0.005), None, _tau_multiples(0.005)]
    assert _node_plan_takes_angle_sum(_planned_model(2, one_key), random_points, angle_sums) == 2
    # a commensurate grid repeats nodes
    assert _node_plan_takes_angle_sum(_planned_model(2, one_key), GRID_201, angle_sums) == 0
    # two node keys, the first two smoothed grades sharing one
    two_keys = one_key + [_tau_multiples(0.004)]
    assert _node_plan_takes_angle_sum(_planned_model(2, two_keys), random_points, angle_sums) == 4
    assert angle_sums.made[:4] == [(150, 200)] * 4
    head = mlp.he_init(1, [5, 6], 2, [TANH, RELU], SplitMix64(4))
    assert _node_plan_takes_angle_sum(_planned_model(2, two_keys, head), random_points, angle_sums) == 0
    not_sincos = _planned_model(2, two_keys)
    not_sincos.grades[0].activation = TANH
    assert _node_plan_takes_angle_sum(not_sincos, random_points, angle_sums) == 0
    assert angle_sums.filled


@pytest.mark.parametrize("quad_points", [201, BLOCK_ROWS, BLOCK_ROWS + 1])
def test_angle_sum_blocks_hold_whole_points(quad_points, angle_sums):
    # M below, at and above BLOCK_ROWS: each block holds whole points, at
    # most BLOCK_ROWS rows of them, or one point when M is larger
    sm = smoothing.Smoother(0.01, smoothing.GridSteps(20, 1e-3), quad_points)
    model = _smoothed_pair(2, sm)
    x = np.random.default_rng(quad_points).uniform(0, 1, (3 if quad_points >= BLOCK_ROWS else 50, 1))
    assert _node_plan_takes_angle_sum(model, x, angle_sums)
    blocks = [(b.start, b.stop, quad_points) for b in _row_blocks(len(x) * quad_points, quad_points)]
    assert angle_sums.filled == blocks * len(angle_sums.made)
    for start, stop, _ in blocks:
        assert start % quad_points == 0 and stop % quad_points == 0
        assert 0 < stop - start <= max(BLOCK_ROWS, quad_points)


@pytest.mark.parametrize("per_point", [1, 201, BLOCK_ROWS // 2 + 1, BLOCK_ROWS, BLOCK_ROWS + 1])
@pytest.mark.parametrize("points", [1, 3, 41, 1001])
def test_row_blocks_hold_whole_points(per_point, points):
    n = points * per_point
    blocks = _row_blocks(n, per_point)
    assert [b.start for b in blocks] == [0] + [b.stop for b in blocks[:-1]] and blocks[-1].stop == n
    per_block = max(1, BLOCK_ROWS // per_point)  # points
    for b in blocks:
        assert b.start % per_point == 0 and 0 < b.stop - b.start <= per_block * per_point
    assert len(blocks) == -(-points // per_block)


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
    # coarse set lies in the wide one, and the wide set's nodes but 32 lie
    # in the narrow one; each set takes a chain run of its own
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
    # all: each grade's node values are contracted and dropped after its
    # set's chain run, so the plan never holds them all
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
    # widths 100 -> 120 -> 100, an uneven last block, and a consumed carry
    # kept at its width
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
    comps, kept = model.run_chain(points, [0, 1, 2, 3], keep=2)
    for k in range(4):
        assert np.array_equal(comps[k], ref.raw_component(model, k, points))
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


def _lifted_grade(rng, prev, width, t, act, smoother=None):
    """A grade of the direct solve's form: [W b] = lift(M^T) for a random M."""
    pooling = Pooling(t, width - t)
    theta = pooling.lift(rng.standard_normal((t, prev + 1)))
    return Grade(np.ascontiguousarray(theta[:, :-1]), theta[:, -1].copy(), pooling, act, smoother)


def _folding_model(t, smoother=None):
    """Random-row grades (all rows distinct) around direct-form grades, whose
    lifted rows repeat: 2t - 1 units each."""
    rng = np.random.default_rng(20 + t)
    model = Model(1, t)
    specs = [(40, SINCOS_HALF, False), (40, RELU, True), (48, TANH, True), (30, RELU, False), (40, TANH, True)]
    prev = 1
    for i, (width, act, lifted) in enumerate(specs):
        sm = smoother if i == 2 else None
        if lifted:
            model.grades.append(_lifted_grade(rng, prev, width, t, act, sm))
        else:
            weight = rng.standard_normal((width, prev)) / np.sqrt(prev)
            model.grades.append(Grade(weight, rng.standard_normal(width), Pooling(t, width - t), act, sm))
        prev = width
    assert [g.units for g in model.grades] == [40, 2 * t - 1, 2 * t - 1, 30, 2 * t - 1]
    return model


def _full_width_chain(model, points):
    """Each grade's raw component and the last features from the full-width
    products a @ W.T + b and Pooling.apply."""
    comps, a = [], points
    for g in model.grades:
        pre = a @ g.weight.T + g.bias
        comps.append(g.pooling.apply(pre))
        a = g.activation(pre)
    return comps, a


def _rel_err(got, want):
    return np.linalg.norm(got - want) / np.linalg.norm(want)


@pytest.mark.parametrize("t", [1, 3])
def test_folded_evaluation_matches_the_full_width_chain(t):
    model = _folding_model(t)
    points = np.linspace(-1.0, 1.0, 2 * BLOCK_ROWS + 5)[:, None]
    comps, kept = model.run_chain(points, range(5), keep=5)
    want, feats = _full_width_chain(model, points)
    assert kept.feats.shape[1] == 2 * t - 1
    for k in range(5):
        assert _rel_err(comps[k], want[k]) < 1e-12
    assert _rel_err(model.expand(kept), feats) < 1e-12


def test_grades_with_distinct_rows_keep_the_full_width_bits():
    model = _cascade(None)
    assert all(g.groups is None and g.units == g.width for g in model.grades)
    points = np.linspace(-1.0, 1.0, 2 * BLOCK_ROWS + 5)[:, None]
    comps, kept = model.run_chain(points, range(6), keep=6)
    want, feats = _full_width_chain(model, points)
    for k in range(6):
        assert np.array_equal(comps[k], want[k])
    assert np.array_equal(kept.feats, feats) and np.array_equal(model.expand(kept), feats)


def test_features_are_full_width_with_equal_columns_per_group():
    model = _folding_model(3)
    points = np.linspace(-1.0, 1.0, 300)[:, None]
    for k, g in enumerate(model.grades, start=1):
        feats = model.features(points, upto=k)
        assert feats.shape == (300, g.width)
        if g.groups is not None:
            assert np.array_equal(feats, feats[:, g.unit_rows][:, g.groups])
            assert len(np.unique(g.groups)) == g.units < g.width


def test_units_are_the_distinct_rows_in_order_of_first_occurrence():
    weight = np.array([[2.0], [1.0], [2.0], [1.0], [-0.0], [0.0]])
    g = Grade(weight, np.array([0.0, 1.0, 0.0, 1.0, 0.0, 0.0]), Pooling(1, 5), RELU)
    # -0.0 and 0.0 have different bits, so they stay apart
    assert g.units == 4 and g.unit_rows.tolist() == [0, 1, 4, 5]
    assert g.groups.tolist() == [0, 1, 0, 1, 2, 3]
    assert Grade(weight[:2], np.zeros(2), Pooling(1, 1), RELU).groups is None


def test_mu0_grade_with_repeated_rows_keeps_inf_nan_and_signed_zero():
    g = Grade(np.array([[1.0], [1.0], [2.0]]), np.zeros(3), Pooling(3, 0), IDENTITY)
    assert g.groups.tolist() == [0, 0, 1]
    pre = np.array([[np.inf, -0.0], [np.nan, 1.0], [-0.0, -np.inf], [5e-324, np.nan]])
    comp = model_mod._unit_pooling(g)(pre)
    full = g.pooling.apply(pre[:, [0, 0, 1]])
    assert np.array_equal(comp, full, equal_nan=True)
    assert np.array_equal(np.signbit(comp), np.signbit(full))
    assert np.signbit(comp[0, 2]) and np.isinf(comp[0, 0]) and np.isnan(comp[1, 1])
    model = Model(1, 3, [g])
    x = np.array([[np.inf], [np.nan], [1.0]])
    got = model.component_values(0, x)
    assert np.array_equal(got, x @ g.weight.T + g.bias, equal_nan=True)
    assert np.isinf(got[0]).all() and np.isnan(got[1]).all()


def test_folded_model_reloads_with_its_units_and_bits():
    model = _folding_model(3, smoothing.Smoother(0.01, smoothing.TauMultiples(3.0), 31))
    loaded = model_from_dict(model_to_dict(model))
    assert [g.units for g in loaded.grades] == [g.units for g in model.grades]
    x = np.linspace(-0.9, 0.8, 47)[:, None]
    assert np.array_equal(loaded.predict(x), model.predict(x))
    for k in range(len(model.grades)):
        assert np.array_equal(model.component_values(k, x), ref.component(model, k, x))


def test_carry_must_cover_the_points():
    model = _smoothed_pair(1, _tau_multiples(0.005))
    carry = Carry(1, np.zeros((4, 100)))
    with pytest.raises(ValueError, match="4 rows for 3 points"):
        model.run_chain(np.zeros((3, 1)), [1], carry)
    assert model.run_chain(np.zeros((4, 1)), [1], carry)[0][1].shape == (4, 1)


def test_carry_and_keep_need_one_node_set():
    # training carries features at the nodes of one set; over several sets
    # neither a carry nor a kept depth would say which set's nodes it holds
    model = _planned_model(1, [_tau_multiples(0.005), _tau_multiples(0.004)])
    x = np.random.default_rng(3).uniform(0, 1, (5, 1))
    carry = Carry(1, ref.node_features(model, 1, _tau_multiples(0.005), x).copy())
    with pytest.raises(ValueError, match="one node set"):
        model._planned_components(x, [1, 2], carry=carry)
    with pytest.raises(ValueError, match="one node set"):
        model._planned_components(x, [1, 2], keep=2)
    comps, kept = model._planned_components(x, [1], carry=carry, keep=2)
    assert np.array_equal(comps[1], ref.component(model, 1, x)) and kept.depth == 2


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
