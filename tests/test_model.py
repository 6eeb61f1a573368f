import json

import numpy as np
import pytest

import chain_reference as ref
import pooling_reference as pool_ref
from sal_learn import mlp, smoothing
from sal_learn.rng import SplitMix64
from sal_learn.model import (
    BLOCK_ROWS,
    Carry,
    IDENTITY,
    RELU,
    SINCOS_HALF,
    TANH,
    WINDOW_ROWS,
    Activation,
    Grade,
    Model,
    Pooling,
    combination,
    inner_product,
    leaky_relu,
    model_from_dict,
    model_to_dict,
    norm,
    sq_norm,
)


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
    """Normals times powers of ten, so that the summation order shows in the bits."""
    return rng.standard_normal(shape) * 10.0 ** rng.integers(-6, 7, size=shape)


@pytest.mark.parametrize(
    "m, t, mu",
    [
        (1001, 1, 99),  # the kinked desk grades
        (2001, 20, 108),  # the oscillatory desk grade
        (7, 3, 0),  # identity
        (9, 4, 5),  # n < 8
        (9, 2, 7),  # n = 8
        (40, 30, 127),  # n = 128, one pairwise block
        (40, 30, 128),  # n = 129, halved once
        (40, 50, 299),  # n = 300, halved twice
        (6, 40, 20),  # t >= mu + 1: no interior columns
        (3, 113, 120),  # interior of 8 columns: reduced in full
        (3, 112, 120),  # interior of 9 columns: one copy
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


def test_pool_adjoint_keeps_signed_zeros():
    rng = np.random.default_rng(5)
    for t, mu in [(1, 99), (20, 108), (6, 40), (3, 200)]:
        pool = Pooling(t, mu)
        y = _spread(rng, (8, t))
        y[0] = 0.0
        y[1] = -0.0
        y[2, ::2] = -0.0
        y[3, 1::2] = 0.0
        y[4] = np.where(rng.random(t) < 0.5, -0.0, 0.0)
        got = pool.adjoint(y)
        _assert_bits(got, pool_ref.adjoint(pool, y))
        assert not np.any(got[:2])


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



_REPLAY_SHAPES = [
    (20, 108),  # the oscillatory desk grade
    (4, 5),  # n < 8
    (2, 7),  # n = 8
    (30, 127),  # n = 128, one pairwise block
    (30, 128),  # n = 129, halved once
    (50, 299),  # n = 300, halved twice
]


@pytest.mark.parametrize("m", [WINDOW_ROWS - 1, WINDOW_ROWS, WINDOW_ROWS + 1, 2001])
@pytest.mark.parametrize("t, mu", _REPLAY_SHAPES)
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
    """Rows of +0.0, of -0.0, and of both mixed with values, at and around
    the WINDOW_ROWS block edges."""
    m = len(a)
    for r in range(0, m, WINDOW_ROWS):
        a[r] = -0.0
        a[min(r + 1, m - 1)] = 0.0
        a[max(r - 1, 0), ::2] = -0.0
        a[min(r + 2, m - 1)] = np.where(rng.random(a.shape[1]) < 0.5, -0.0, a[min(r + 2, m - 1)])
    a[m - 1] = -0.0
    return a


@pytest.mark.parametrize("m", [WINDOW_ROWS - 1, WINDOW_ROWS, WINDOW_ROWS + 1, 2001])
@pytest.mark.parametrize(
    "t, mu",
    _REPLAY_SHAPES
    + [
        (40, 20),  # t >= mu + 1: no interior columns
        (113, 120),  # interior of 8 columns: reduced in full
        (112, 120),  # interior of 9 columns: one copy
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
    for lead in [(), (3, 4), (2, WINDOW_ROWS + 3)]:
        x = _spread(rng, lead + (pool.in_dim,))
        _assert_bits(pool.apply(x), pool_ref.apply(pool, x))
        y = _spread(rng, lead + (t,))
        _assert_bits(pool.adjoint(y), pool_ref.adjoint(pool, y))


def test_pool_back_to_back_calls_share_no_state():
    # each call's work arrays are its own: a call with other rows and other
    # values gives the reference bits, and leaves earlier results alone
    rng = np.random.default_rng(99)
    pool = Pooling(20, 108)
    kept = []
    for m in [2001, 513, 7, 2001, 1]:
        x = _spread(rng, (m, pool.in_dim))
        y = _spread(rng, (m, 20))
        got = (pool.apply(x), pool.adjoint(y))
        want = (pool_ref.apply(pool, x), pool_ref.adjoint(pool, y))
        _assert_bits(got[0], want[0])
        _assert_bits(got[1], want[1])
        kept.append((got, want))
    for got, want in kept:
        _assert_bits(got[0], want[0])
        _assert_bits(got[1], want[1])


def test_pool_window_major_on_a_halved_feature_block_matches_reference_bits():
    # a full BLOCK_ROWS block with a window above 128 (halved twice)
    rng = np.random.default_rng(299)
    pool = Pooling(50, 299)
    x = _signed_zero_rows(rng, _spread(rng, (BLOCK_ROWS, pool.in_dim)))
    _assert_bits(pool.apply(x), pool_ref.apply(pool, x))
    y = _signed_zero_rows(rng, _spread(rng, (BLOCK_ROWS, 50)))
    _assert_bits(pool.adjoint(y), pool_ref.adjoint(pool, y))


@pytest.mark.parametrize("t, mu", _REPLAY_SHAPES + [(1, 99)])
def test_pool_apply_one_and_three_dim_inputs(t, mu):
    rng = np.random.default_rng(t + mu)
    pool = Pooling(t, mu)
    for shape in [(pool.in_dim,), (3, 4, pool.in_dim), (2, WINDOW_ROWS + 3, pool.in_dim)]:
        x = _spread(rng, shape)
        _assert_bits(pool.apply(x), pool_ref.apply(pool, x))


def test_pool_apply_keeps_signed_zeros():
    rng = np.random.default_rng(6)
    for t, mu in _REPLAY_SHAPES + [(1, 99)]:
        pool = Pooling(t, mu)
        x = _spread(rng, (8, pool.in_dim))
        x[0] = 0.0
        x[1] = -0.0
        x[2, ::2] = -0.0
        x[3, 1::2] = 0.0
        x[4] = np.where(rng.random(pool.in_dim) < 0.5, -0.0, 0.0)
        got = pool.apply(x)
        _assert_bits(got, pool_ref.apply(pool, x))
        assert not np.any(got[:2]) and not np.any(np.signbit(got[:2]))


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
