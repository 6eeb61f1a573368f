"""Single-grade baseline: an MLP trained end-to-end with full-batch Adam.

This is the conventional approach the grade-by-grade trainer is compared
against, and it doubles as the hybrid model's warm-start head.  "Epoch" means
one full-batch gradient step throughout.  The loss is the plain sum of
squared errors over the batch (no 1/m), matching the discrete norm used
everywhere else.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .model import IDENTITY, Activation, rse, sq_norm
from .records import SsgRecord, TrainReport
from .rng import SplitMix64


@dataclass
class MlpParams:
    weights: list[np.ndarray]  # layer i: (out, in)
    biases: list[np.ndarray]
    activations: list[Activation]  # one per layer; the last must be identity

    def __post_init__(self):
        if not (len(self.weights) == len(self.biases) == len(self.activations)):
            raise ValueError("per-layer lists must have equal length")
        if not self.weights:
            raise ValueError("at least one layer required")
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            if w.ndim != 2 or b.ndim != 1 or w.shape[0] != b.shape[0]:
                raise ValueError(f"layer {i}: weight/bias shapes inconsistent")
            if i > 0 and w.shape[1] != self.weights[i - 1].shape[0]:
                raise ValueError(f"layer {i}: input width breaks the dimension chain")
        if self.activations[-1].kind != "identity":
            raise ValueError("output layer activation must be identity")

    @property
    def input_dim(self) -> int:
        return self.weights[0].shape[1]

    @property
    def output_dim(self) -> int:
        return self.weights[-1].shape[0]

    def structure(self) -> str:
        """Hidden-layer shape label, e.g. "50x6" for six hidden layers of 50."""
        hidden = [w.shape[0] for w in self.weights[:-1]]
        if not hidden:
            return "affine"
        if len(set(hidden)) == 1:
            return f"{hidden[0]}x{len(hidden)}"
        return "-".join(str(h) for h in hidden)

    def _through(self, x: np.ndarray, layers: int) -> np.ndarray:
        """The activation output of the first `layers` layers at x."""
        a = np.asarray(x, dtype=float)
        for w, b, act in zip(self.weights[:layers], self.biases[:layers], self.activations[:layers]):
            a = act(a @ w.T + b)
        return a

    def predict(self, x: np.ndarray) -> np.ndarray:
        return self._through(x, len(self.weights))

    def hidden(self, x: np.ndarray) -> np.ndarray:
        """Last hidden layer's activation output (the input if no hidden layers)."""
        return self._through(x, len(self.weights) - 1)


def he_init(
    input_dim: int,
    hidden_widths: list[int],
    output_dim: int,
    hidden_activations: list[Activation],
    rng: SplitMix64,
) -> MlpParams:
    """Weights ~ Normal(0, sqrt(2/fan_in)), biases zero, identity output layer."""
    if len(hidden_activations) != len(hidden_widths):
        raise ValueError("need one activation per hidden layer")
    dims = [input_dim] + list(hidden_widths) + [output_dim]
    weights, biases = [], []
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        std = math.sqrt(2.0 / fan_in)
        w = std * rng.standard_normals(fan_out * fan_in).reshape(fan_out, fan_in)
        weights.append(w)
        biases.append(np.zeros(fan_out))
    return MlpParams(weights, biases, list(hidden_activations) + [IDENTITY])


def loss_and_grads(params: MlpParams, x: np.ndarray, y: np.ndarray):
    """Sum-of-squares loss and its exact gradients by reverse accumulation.

    The forward pass is that of MlpParams.predict, and it keeps each layer's
    activation derivative, computed from the same sines and cosines (or
    tanh values) as the activation (Activation.value_and_derivative).
    """
    y = np.asarray(y, dtype=float)
    a = np.asarray(x, dtype=float)
    acts, derivs = [a], []
    for w, b, act in zip(params.weights, params.biases, params.activations):
        a, d = act.value_and_derivative(a @ w.T + b)
        acts.append(a)
        derivs.append(d)
    diff = a - y
    loss = float(np.sum(diff * diff))
    delta = 2.0 * diff * derivs[-1]
    grads_w = [np.empty(0)] * len(params.weights)
    grads_b = [np.empty(0)] * len(params.biases)
    for i in range(len(params.weights) - 1, -1, -1):
        grads_w[i] = delta.T @ acts[i]
        grads_b[i] = delta.sum(axis=0)
        if i > 0:
            delta = (delta @ params.weights[i]) * derivs[i - 1]
    return loss, grads_w, grads_b


@dataclass
class AdamState:
    step: int = 0
    m_w: list[np.ndarray] = field(default_factory=list)
    v_w: list[np.ndarray] = field(default_factory=list)
    m_b: list[np.ndarray] = field(default_factory=list)
    v_b: list[np.ndarray] = field(default_factory=list)

    @classmethod
    def zeros_like(cls, params: MlpParams) -> "AdamState":
        return cls(
            step=0,
            m_w=[np.zeros_like(w) for w in params.weights],
            v_w=[np.zeros_like(w) for w in params.weights],
            m_b=[np.zeros_like(b) for b in params.biases],
            v_b=[np.zeros_like(b) for b in params.biases],
        )


def adam_step(
    params: MlpParams,
    grads_w: list[np.ndarray],
    grads_b: list[np.ndarray],
    state: AdamState,
    alpha: float,
    beta1: float = 0.9,
    beta2: float = 0.999,
    eps_hat: float = 1e-8,
) -> None:
    """Canonical Adam update, in place; eps_hat sits outside the square root."""
    state.step += 1
    bc1 = 1.0 - beta1**state.step
    bc2 = 1.0 - beta2**state.step
    for i in range(len(params.weights)):
        for theta, g, m, v in (
            (params.weights[i], grads_w[i], state.m_w[i], state.v_w[i]),
            (params.biases[i], grads_b[i], state.m_b[i], state.v_b[i]),
        ):
            m *= beta1
            m += (1.0 - beta1) * g
            v *= beta2
            v += (1.0 - beta2) * g * g
            theta -= alpha * (m / bc1) / (np.sqrt(v / bc2) + eps_hat)


@dataclass
class MlpTrainConfig:
    widths: list[int]
    activations: list[Activation] | None = None  # per hidden layer; default ReLU
    alpha: float = 1e-3
    epochs: int = 5000
    epsilon: float = 1e-7
    seed: int = 1
    checkpoints: list[int] | None = None  # extra report rows at these epochs


def train_ssg(dataset, cfg: MlpTrainConfig, test=None) -> tuple[MlpParams, TrainReport]:
    """Full-batch Adam from He init; stops at the epoch limit or when the
    relative change between consecutive loss values drops below epsilon."""
    x, y = dataset.inputs, dataset.targets
    acts = cfg.activations or [Activation("relu")] * len(cfg.widths)
    rng = SplitMix64(cfg.seed)
    params = he_init(x.shape[1], list(cfg.widths), y.shape[1], list(acts), rng)
    state = AdamState.zeros_like(params)
    denom = sq_norm(y)
    if denom == 0.0:
        raise ValueError("rse undefined for all-zero targets")
    checkpoints = set(cfg.checkpoints or [])
    records: list[SsgRecord] = []
    trace: list[tuple[int, float, float]] = []
    start = time.perf_counter()

    def record_row(epoch: int) -> None:
        elapsed = time.perf_counter() - start
        rse_tr = rse(params.predict(x), y)
        rse_te = rse(params.predict(test.inputs), test.targets) if test is not None else None
        records.append(
            SsgRecord(
                structure=params.structure(),
                alpha=cfg.alpha,
                epsilon=cfg.epsilon,
                epoch=epoch,
                train_time_s=elapsed,
                rse_train=rse_tr,
                rse_test=rse_te,
            )
        )

    loss_prev = None
    epochs_run = 0
    stop_reason = "epochs"
    for epoch in range(1, cfg.epochs + 1):
        loss, grads_w, grads_b = loss_and_grads(params, x, y)
        if not math.isfinite(loss):
            raise RuntimeError(f"non-finite loss at epoch {epoch}")
        # loss describes the params *before* this step, i.e. after epoch-1 steps
        trace.append((epoch - 1, time.perf_counter() - start, loss / denom))
        if loss_prev is not None and abs(loss - loss_prev) / max(abs(loss_prev), 1e-30) < cfg.epsilon:
            stop_reason = "epsilon"
            break
        loss_prev = loss
        adam_step(params, grads_w, grads_b, state, cfg.alpha)
        epochs_run = epoch
        if epoch in checkpoints and epoch != cfg.epochs:
            record_row(epoch)
    final_loss = float(np.sum((params.predict(x) - y) ** 2))
    trace.append((epochs_run, time.perf_counter() - start, final_loss / denom))
    record_row(epochs_run)
    report = TrainReport(
        records=records,
        total_time_s=time.perf_counter() - start,
        metadata={
            "batch": "full",
            "stopping": "train loss only",
            "stop_reason": stop_reason,
            "epochs_run": epochs_run,
        },
        trace=trace,
    )
    return params, report
