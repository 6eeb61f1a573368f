import math

import numpy as np
import pytest

from sal_learn import mlp, reporting
from sal_learn.data import Dataset
from sal_learn.model import IDENTITY, RELU, SINCOS_HALF, TANH, Activation
from sal_learn.rng import SplitMix64
from sal_learn.train import rse


def line_dataset(m=30):
    x = np.linspace(-1.0, 1.0, m)
    return Dataset(x[:, None], x[:, None].copy(), "train_grid", -1.0, 1.0)


def test_he_init_shapes_and_scale():
    params = mlp.he_init(1, [200], 1, [RELU], SplitMix64(3))
    assert [w.shape for w in params.weights] == [(200, 1), (1, 200)]
    assert all(np.all(b == 0.0) for b in params.biases)
    assert params.activations[-1].kind == "identity"
    # fan_in 1 -> std sqrt(2); fan_in 200 -> std 0.1
    assert abs(params.weights[0].std() - math.sqrt(2.0)) < 0.15
    assert abs(params.weights[1].std() - 0.1) < 0.015


def test_he_init_seeded():
    a = mlp.he_init(2, [5], 1, [RELU], SplitMix64(9))
    b = mlp.he_init(2, [5], 1, [RELU], SplitMix64(9))
    c = mlp.he_init(2, [5], 1, [RELU], SplitMix64(10))
    assert all(np.array_equal(x, y) for x, y in zip(a.weights, b.weights))
    assert not all(np.array_equal(x, y) for x, y in zip(a.weights, c.weights))


def test_structure_labels():
    assert mlp.he_init(1, [50] * 6, 1, [RELU] * 6, SplitMix64(1)).structure() == "50x6"
    assert mlp.he_init(1, [10, 20], 1, [RELU] * 2, SplitMix64(1)).structure() == "10-20"
    assert mlp.he_init(1, [], 1, [], SplitMix64(1)).structure() == "affine"


def test_params_validation():
    w = [np.zeros((3, 1)), np.zeros((1, 3))]
    b = [np.zeros(3), np.zeros(1)]
    with pytest.raises(ValueError):
        mlp.MlpParams(w, b, [RELU, RELU])  # output must be identity
    with pytest.raises(ValueError):
        mlp.MlpParams(w, [np.zeros(2), np.zeros(1)], [RELU, IDENTITY])
    with pytest.raises(ValueError):
        mlp.MlpParams(
            [np.zeros((3, 1)), np.zeros((1, 4))], b, [RELU, IDENTITY]
        )  # broken chain
    with pytest.raises(ValueError):
        mlp.MlpParams([], [], [])


def test_affine_network_predict_and_hidden():
    params = mlp.MlpParams([np.array([[2.0]])], [np.array([0.5])], [IDENTITY])
    x = np.array([[1.0], [2.0]])
    assert np.allclose(params.predict(x), [[2.5], [4.5]])
    assert np.array_equal(params.hidden(x), x)
    assert params.input_dim == 1 and params.output_dim == 1


def _forward(params, x):
    """Prediction plus the per-layer pre-activations and activations, by hand."""
    a = np.asarray(x, dtype=float)
    pre_acts, acts = [], [a]
    for w, b, act in zip(params.weights, params.biases, params.activations):
        pre_acts.append(a @ w.T + b)
        a = act(pre_acts[-1])
        acts.append(a)
    return a, pre_acts, acts


@pytest.mark.parametrize(
    "widths, acts",
    [([], []), ([7], [TANH]), ([4, 3], [SINCOS_HALF, RELU]), ([50] * 6, [SINCOS_HALF] * 2 + [RELU] * 4)],
)
def test_hidden_and_predict_have_the_bits_of_a_hand_loop(widths, acts):
    # hidden stops before the output layer; predict runs it too
    params = mlp.he_init(2, widths, 3, acts, SplitMix64(11))
    x = SplitMix64(12).standard_normals(2 * 37).reshape(37, 2)
    pred, _, layer_outputs = _forward(params, x)
    assert np.array_equal(params.hidden(x), layer_outputs[-2])
    assert np.array_equal(params.predict(x), pred)


def test_loss_and_grads_hand_example():
    # scalar affine net: pred = 2*1 + 0 = 2, y = 1 -> loss 1, dL/dw = 2, dL/db = 2
    params = mlp.MlpParams([np.array([[2.0]])], [np.zeros(1)], [IDENTITY])
    loss, gw, gb = mlp.loss_and_grads(params, np.array([[1.0]]), np.array([[1.0]]))
    assert loss == pytest.approx(1.0)
    assert gw[0][0, 0] == pytest.approx(2.0)
    assert gb[0][0] == pytest.approx(2.0)


def _loss_and_grads_recomputing(params, x, y):
    """loss_and_grads as it was before the forward pass kept the
    derivatives: each derivative recomputed from the stored pre-activations."""
    y = np.asarray(y, dtype=float)
    pred, pre_acts, acts = _forward(params, x)
    diff = pred - y
    loss = float(np.sum(diff * diff))
    delta = 2.0 * diff * params.activations[-1].derivative(pre_acts[-1])
    grads_w = [np.empty(0)] * len(params.weights)
    grads_b = [np.empty(0)] * len(params.biases)
    for i in range(len(params.weights) - 1, -1, -1):
        grads_w[i] = delta.T @ acts[i]
        grads_b[i] = delta.sum(axis=0)
        if i > 0:
            delta = (delta @ params.weights[i]) * params.activations[i - 1].derivative(pre_acts[i - 1])
    return loss, grads_w, grads_b


def test_training_weights_equal_those_of_recomputed_derivatives(monkeypatch):
    # sincos_half and tanh layers take their derivatives from the forward
    # pass's sin/cos and tanh values; 300 Adam epochs must give the same bytes
    x = np.linspace(-1.0, 1.0, 257)[:, None]
    ds = Dataset(x, np.column_stack([np.sin(4.0 * x[:, 0]), np.abs(x[:, 0])]), "train_grid", -1.0, 1.0)
    cfg = mlp.MlpTrainConfig(
        widths=[20, 20, 20], activations=[SINCOS_HALF, SINCOS_HALF, TANH], epochs=300, epsilon=0.0, seed=5
    )

    def run():
        params, report = mlp.train_ssg(ds, cfg)
        assert report.metadata["epochs_run"] == 300
        losses = [row[2] for row in report.trace]
        return [a.tobytes() for a in params.weights + params.biases], losses

    shipped = run()
    monkeypatch.setattr(mlp, "loss_and_grads", _loss_and_grads_recomputing)
    assert run() == shipped


def test_gradients_match_central_differences():
    rng = SplitMix64(4)
    x = rng.standard_normals(12).reshape(6, 2)
    y = rng.standard_normals(12).reshape(6, 2)
    params = mlp.he_init(2, [4, 3], 2, [SINCOS_HALF, RELU], SplitMix64(8))
    # keep relu pre-activations clear of the kink for the FD probe
    _, pre_acts, _ = _forward(params, x)
    assert np.min(np.abs(pre_acts[1])) > 1e-4
    loss0, gw, gb = mlp.loss_and_grads(params, x, y)
    h = 1e-6
    scale = max(1.0, abs(loss0))
    for layer in range(3):
        w = params.weights[layer]
        idx = (0, 0)
        wp = w.copy()
        wp[idx] += h
        params_p = mlp.MlpParams(
            [wp if i == layer else params.weights[i].copy() for i in range(3)],
            [b.copy() for b in params.biases],
            params.activations,
        )
        wm = w.copy()
        wm[idx] -= h
        params_m = mlp.MlpParams(
            [wm if i == layer else params.weights[i].copy() for i in range(3)],
            [b.copy() for b in params.biases],
            params.activations,
        )
        fd = (
            mlp.loss_and_grads(params_p, x, y)[0] - mlp.loss_and_grads(params_m, x, y)[0]
        ) / (2 * h)
        assert abs(fd - gw[layer][idx]) <= 1e-5 * scale
        bp = [b.copy() for b in params.biases]
        bp[layer][0] += h
        bm = [b.copy() for b in params.biases]
        bm[layer][0] -= h
        fd_b = (
            mlp.loss_and_grads(
                mlp.MlpParams([w.copy() for w in params.weights], bp, params.activations), x, y
            )[0]
            - mlp.loss_and_grads(
                mlp.MlpParams([w.copy() for w in params.weights], bm, params.activations), x, y
            )[0]
        ) / (2 * h)
        assert abs(fd_b - gb[layer][0]) <= 1e-5 * scale


def test_adam_first_step_is_signed_alpha():
    # with zero state, the first update is alpha * g / (|g| + eps_hat)
    params = mlp.MlpParams([np.array([[2.0]])], [np.zeros(1)], [IDENTITY])
    state = mlp.AdamState.zeros_like(params)
    loss, gw, gb = mlp.loss_and_grads(params, np.array([[1.0]]), np.array([[1.0]]))
    mlp.adam_step(params, gw, gb, state, alpha=0.1)
    want = 2.0 - 0.1 * 2.0 / (2.0 + 1e-8)
    assert params.weights[0][0, 0] == pytest.approx(want, abs=1e-15)
    assert params.biases[0][0] == pytest.approx(-0.1 * 2.0 / (2.0 + 1e-8), abs=1e-15)
    assert state.step == 1


def test_train_ssg_epoch_accounting_and_trace():
    ds = line_dataset()
    cfg = mlp.MlpTrainConfig(widths=[6], alpha=1e-2, epochs=5, epsilon=1e-30, seed=1)
    params, report = mlp.train_ssg(ds, cfg)
    assert report.metadata["epochs_run"] == 5
    assert report.metadata["stop_reason"] == "epochs"
    # trace covers epochs 0..5: the pre-step loss each epoch plus the final
    assert [row[0] for row in report.trace] == [0, 1, 2, 3, 4, 5]
    assert report.trace[0][2] > 0.0 and math.isfinite(report.trace[0][2])
    assert report.records[-1].epoch == 5
    assert report.records[-1].rse_train == pytest.approx(report.trace[-1][2], rel=1e-12)


def test_train_ssg_checkpoints():
    ds = line_dataset()
    cfg = mlp.MlpTrainConfig(
        widths=[6], alpha=1e-2, epochs=5, epsilon=1e-30, seed=1, checkpoints=[2, 4]
    )
    _, report = mlp.train_ssg(ds, cfg)
    assert [r.epoch for r in report.records] == [2, 4, 5]
    assert all(r.structure == "6x1" for r in report.records)


def test_train_ssg_epsilon_stop():
    ds = line_dataset()
    cfg = mlp.MlpTrainConfig(widths=[6], alpha=1e-3, epochs=500, epsilon=0.5, seed=1)
    _, report = mlp.train_ssg(ds, cfg)
    assert report.metadata["stop_reason"] == "epsilon"
    assert report.metadata["epochs_run"] < 500


def test_train_ssg_learns_a_line():
    ds = line_dataset()
    cfg = mlp.MlpTrainConfig(widths=[8], alpha=1e-2, epochs=800, epsilon=1e-14, seed=2)
    params, report = mlp.train_ssg(ds, cfg)
    assert report.records[-1].rse_train < 1e-2
    assert rse(params.predict(ds.inputs), ds.targets) == pytest.approx(
        report.records[-1].rse_train, rel=1e-12
    )


def test_train_ssg_reports_test_metric():
    ds = line_dataset()
    test = Dataset(np.array([[0.25], [0.75]]), np.array([[0.25], [0.75]]), "test_uniform", -1, 1)
    cfg = mlp.MlpTrainConfig(widths=[6], alpha=1e-2, epochs=50, epsilon=1e-30, seed=1)
    _, report = mlp.train_ssg(ds, cfg, test=test)
    assert report.records[-1].rse_test is not None


def test_mlp_serialization_roundtrip():
    params = mlp.he_init(1, [5, 4], 2, [RELU, SINCOS_HALF], SplitMix64(6))
    clone = reporting.model_from_dict(reporting.model_to_dict(params))
    x = np.linspace(-1, 1, 9)[:, None]
    assert np.allclose(params.predict(x), clone.predict(x), atol=0)
    assert clone.structure() == "5-4"
