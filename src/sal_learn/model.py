"""Model types and evaluation semantics.

A trained model is a *superposition*: each grade contributes one pooled
affine component, and prediction sums the components — the grades are never
composed into a single chain.  Composition happens only inside the feature
recursion, where grade k's activation wraps its pre-pooling affine output to
feed grade k+1.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import smoothing

FORMAT_VERSION = 1

# Rows per block of the feature recursion: 16384 rows of width 128 are 16 MB.
BLOCK_ROWS = 16384

# Rows per block of pooling with more than one output: a block's window-major
# work arrays (the window columns by 512 rows) stay in cache, and no array of
# the full row count is allocated besides the result.
WINDOW_ROWS = 512

_BASE_KINDS = ("identity", "relu", "leaky_relu", "tanh", "sincos_half")


@dataclass(frozen=True)
class Activation:
    """Elementwise activation; "combination" is a fixed linear mix of base kinds."""

    kind: str
    slope: float = 0.01
    weights: tuple[float, ...] = ()
    basis: tuple["Activation", ...] = ()

    def __post_init__(self):
        if self.kind == "combination":
            if len(self.weights) == 0 or len(self.weights) != len(self.basis):
                raise ValueError("combination needs weights matching its basis length")
            if any(a.kind == "combination" for a in self.basis):
                raise ValueError("combination basis must be base activation kinds")
        elif self.kind not in _BASE_KINDS:
            raise ValueError(f"unknown activation kind: {self.kind!r}")

    def __call__(self, z: np.ndarray) -> np.ndarray:
        if self.kind == "identity":
            return np.asarray(z, dtype=float)
        if self.kind == "relu":
            return np.maximum(z, 0.0)
        if self.kind == "leaky_relu":
            return np.where(z >= 0.0, z, self.slope * z)
        if self.kind == "tanh":
            return np.tanh(z)
        if self.kind == "sincos_half":
            return 0.5 * np.sin(z) + 0.5 * np.cos(z)
        out = np.zeros_like(np.asarray(z, dtype=float))
        for w, act in zip(self.weights, self.basis):
            out += w * act(z)
        return out

    def derivative(self, z: np.ndarray) -> np.ndarray:
        """Elementwise derivative; ReLU takes subgradient 0 at the kink."""
        if self.kind == "identity":
            return np.ones_like(np.asarray(z, dtype=float))
        if self.kind == "relu":
            return (np.asarray(z) > 0.0).astype(float)
        if self.kind == "leaky_relu":
            return np.where(np.asarray(z) > 0.0, 1.0, self.slope)
        if self.kind == "tanh":
            t = np.tanh(z)
            return 1.0 - t * t
        if self.kind == "sincos_half":
            return 0.5 * np.cos(z) - 0.5 * np.sin(z)
        out = np.zeros_like(np.asarray(z, dtype=float))
        for w, act in zip(self.weights, self.basis):
            out += w * act.derivative(z)
        return out


IDENTITY = Activation("identity")
RELU = Activation("relu")
TANH = Activation("tanh")
SINCOS_HALF = Activation("sincos_half")


def leaky_relu(slope: float = 0.01) -> Activation:
    return Activation("leaky_relu", slope=slope)


def combination(weights, basis) -> Activation:
    return Activation(
        "combination", weights=tuple(float(w) for w in weights), basis=tuple(basis)
    )


def _pairwise_lead(n: int) -> int:
    """Length of the leading block that NumPy's float64 pairwise sum of n
    contiguous values adds in 8 interleaved partial sums (0 for n < 8, which
    NumPy adds one by one)."""
    while n > 128:
        n = n // 2 - (n // 2) % 8
    return n - n % 8


class _Work:
    """Work arrays of one pooling call, each made once and reused by every
    row block: get(key, height) is a C-contiguous (height, rows) view sized
    for the current block's row count."""

    def __init__(self, rows: int):
        self.cap = self.rows = rows
        self._flat: dict[Any, np.ndarray] = {}

    def get(self, key: Any, height: int) -> np.ndarray:
        flat = self._flat.get((key, height))
        if flat is None:
            flat = self._flat[key, height] = np.empty(height * self.cap)
        return flat[: height * self.rows].reshape(height, self.rows)


class _Rows:
    """Window-major operand z of one row block: row i of z holds entry i of
    every block row.  Only z[lo : lo + len(data)] is stored, as data; every
    other row of z is zero (the adjoint's zero padding) and is never added
    (see Pooling.adjoint for why that keeps every bit)."""

    def __init__(self, data: np.ndarray, lo: int = 0):
        self.data, self.lo = data, lo

    def _span(self, i: int, size: int) -> tuple[int, int]:
        """The stored rows of z[i : i+size], as a range within that slice."""
        a = min(max(self.lo - i, 0), size)
        return a, max(a, min(self.lo + len(self.data) - i, size))

    def copy_to(self, dst: np.ndarray, i: int) -> None:
        """dst[:] = z[i : i+len(dst)]."""
        a, b = self._span(i, len(dst))
        dst[:a] = 0.0
        dst[a:b] = self.data[i + a - self.lo : i + b - self.lo]
        dst[b:] = 0.0

    def add_to(self, dst: np.ndarray, i: int) -> None:
        """dst += z[i : i+len(dst)], with the zero rows left out."""
        a, b = self._span(i, len(dst))
        if a < b:
            dst[a:b] += self.data[i + a - self.lo : i + b - self.lo]


def _replay(z: _Rows, first: int, n: int, out: np.ndarray, work: _Work, depth: int = 0) -> None:
    """out[c] = NumPy's float64 pairwise sum of z[first+c : first+c+n] for
    every window c < len(out), each step one contiguous add over every
    window and every block row.

    The order is that of NumPy's reduction loop: below 8 values it adds them
    one by one to 0.0; up to 128 it runs 8 interleaved partial sums over the
    leading multiple of 8, combines them as ((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7))
    and adds the tail one by one; above 128 it sums the two halves split at
    n//2 rounded down to a multiple of 8 and adds them.  Lane j of window c
    is row c+j of the accumulator acc, so one acc serves every window.
    """
    count = len(out)
    if n < 8:
        out.fill(0.0)
        for i in range(first, first + n):
            z.add_to(out, i)
        return
    if n > 128:
        half = n // 2 - (n // 2) % 8
        _replay(z, first, half, out, work, depth + 1)
        right = work.get(("half", depth), count)
        _replay(z, first + half, n - half, right, work, depth + 1)
        out += right
        return
    lead = n - n % 8
    acc = work.get("acc", count + 7)
    z.copy_to(acc, first)
    for i in range(first + 8, first + lead, 8):
        z.add_to(acc, i)
    lane = [acc[j : j + count] for j in range(8)]
    pair, right = work.get("pair", count), work.get("right", count)
    np.add(lane[0], lane[1], out=out)
    out += np.add(lane[2], lane[3], out=pair)
    np.add(lane[4], lane[5], out=right)
    right += np.add(lane[6], lane[7], out=pair)
    out += right
    for i in range(first + lead, first + n):
        z.add_to(out, i)


def _window_major(
    x: np.ndarray, width: int, n: int, pad: int, spans: Sequence[tuple[int, int]], finish=None
) -> np.ndarray:
    """Rows of width `width`, one per row of x (every leading index), made
    one block of WINDOW_ROWS rows at a time.  The block is transposed into a
    (dim, rows) work array, which stands at z[pad : pad+dim] of an operand z
    that is +0.0 elsewhere.  For each column span [first, stop) the window
    sums of z[c : c+n] are replayed window-major, and their quotients by n
    are transposed back into those columns of the block's result, which
    finish(out_block), if given, then completes."""
    rows = x.reshape(-1, x.shape[-1])
    out = np.empty((rows.shape[0], width))
    work = _Work(min(rows.shape[0], WINDOW_ROWS))
    for r in range(0, rows.shape[0], WINDOW_ROWS):
        block, out_block = rows[r : r + WINDOW_ROWS], out[r : r + WINDOW_ROWS]
        work.rows = len(block)
        src = work.get("src", block.shape[1])
        for c in range(0, len(block), 64):  # 64-row tiles transpose about 1.6x faster
            np.copyto(src[:, c : c + 64], block[c : c + 64].T)
        z = _Rows(src, pad)
        for first, stop in spans:
            res = work.get(("res", first), stop - first)
            _replay(z, first, n, res, work)
            res += 0.0  # the reduction's identity, which turns a -0.0 total into +0.0
            np.divide(res.T, n, out=out_block[:, first:stop])
        if finish is not None:
            finish(out_block)
    return out.reshape(x.shape[:-1] + (width,))


@dataclass(frozen=True)
class Pooling:
    """Sliding-window average over mu+1 entries, stride 1: R^(d+mu) -> R^d.

    The induced matrix has rows of mu+1 copies of 1/(mu+1) shifted one step
    per row; it always has full row rank, and mu=0 is the identity.

    Both directions give the bits of NumPy's float64 pairwise reduction of
    every window (tests/pooling_reference.py).  For out_dim > 1 they replay
    that reduction's order window-major, one block of WINDOW_ROWS rows at a
    time: the block is transposed into a (dim, rows) work array, in which
    entry i of every row is one contiguous row, so each replay step is one
    contiguous add over every window and every block row, a few dozen adds
    in all; the sums are then transposed back.  The replay adds the same
    operands in the same order (the adjoint leaves out its zero padding,
    see there), so every rounding, and the sign of every zero, is the same.
    The work arrays (a few hundred KB) are made once per call, reused by
    its blocks, and dropped with it; 512-row blocks keep them in cache.
    Pooling runs only elementwise NumPy operations, never BLAS, so its bits
    are the same on every BLAS build and CPU, and the BLAS products around
    it in qp keep their operands and layout.  For out_dim == 1 each row has
    a single window, and one reduction is about twice as fast as a replay
    there.
    """

    out_dim: int
    mu: int

    def __post_init__(self):
        if self.out_dim < 1:
            raise ValueError("pooling out_dim must be positive")
        if self.mu < 0:
            raise ValueError("pooling mu must be nonnegative")

    @property
    def in_dim(self) -> int:
        return self.out_dim + self.mu

    def apply(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.shape[-1] != self.in_dim:
            raise ValueError(f"pooling expects last dim {self.in_dim}, got {x.shape[-1]}")
        if self.mu == 0:
            return x.copy()
        n = self.mu + 1
        if self.out_dim == 1:
            return sliding_window_view(x, n, axis=-1).mean(axis=-1)
        return _window_major(x, self.out_dim, n, 0, [(0, self.out_dim)])

    def adjoint(self, y: np.ndarray) -> np.ndarray:
        """Apply the transpose of the induced matrix.

        Column j of the result is the window sum of z[j : j+n] / n, where
        n = mu+1 and z is y zero-padded by mu on each side, reduced by
        NumPy's float64 pairwise sum.  Only the columns whose bits can
        differ are summed (by the window-major replay); the others are
        copies, so the result is bit for bit that of reducing every window.

        The zero padding is never stored or added: each replay step adds
        only the y rows its slice of z holds, and a step whose slice lies
        wholly in the padding does nothing.  This is exact.  Adding a zero
        to a nonzero value returns that value, and adding a zero to a zero
        gives a zero, so leaving a zero term out can change only the sign of
        a partial sum that is zero.  The sign of a zero never changes what
        it adds up to with a nonzero value, so every nonzero partial sum,
        and a nonzero total, keeps its bits.  A zero total is then added to
        the reduction's identity +0.0, which makes it +0.0 whatever its
        sign, as the full reduction does.

        Why the copies are exact: over a contiguous axis NumPy adds the first
        L positions in 8 interleaved partial sums, combines those as a fixed
        tree, adds the tail, then adds the total to the identity 0.0 (for
        n > 128 it first halves the axis into blocks of multiples of 8, and L
        is the length of the leftmost block).  Column j's window holds y at
        positions [mu-j, mu-j+t) and zeros elsewhere.  For an interior
        column, lo <= j < hi with hi = mu+1 and lo = mu+t-L, those positions
        lie inside [0, L).  Moving j by 8 puts every y entry into the same
        partial sum in the same order and only changes how many +0.0 lead or
        trail it in that partial sum; every partial sum that receives a y
        entry still ends with a +0.0 after it, so even the sign of a zero
        is kept.  The interior columns therefore repeat with period 8.
        """
        y = np.asarray(y, dtype=float)
        if y.shape[-1] != self.out_dim:
            raise ValueError(f"adjoint expects last dim {self.out_dim}, got {y.shape[-1]}")
        mu, t = self.mu, self.out_dim
        if mu == 0:
            return y.copy()
        n = mu + 1
        if t == 1:
            # each window holds y among +0.0s, whose sum is exactly y + 0.0
            # (y / n + 0.0 would differ where y / n underflows to -0.0)
            return np.repeat((y + 0.0) / n, n, axis=-1)
        lo, hi = max(0, mu + t - _pairwise_lead(n)), n
        if hi - lo <= 8:
            return _window_major(y, t + mu, n, mu, [(0, t + mu)])
        q, rem = divmod(hi - lo - 8, 8)

        def copy_interior(out: np.ndarray) -> None:
            reps = out[:, lo : lo + 8]
            body = out[:, lo + 8 : lo + 8 + 8 * q].reshape(len(out), q, 8)
            body[...] = reps[:, None, :]
            out[:, hi - rem : hi] = reps[:, :rem]

        spans = [(0, lo + 8)] + ([(hi, t + mu)] if hi < t + mu else [])
        return _window_major(y, t + mu, n, mu, spans, copy_interior)

    def matrix(self) -> np.ndarray:
        p = np.zeros((self.out_dim, self.in_dim))
        w = 1.0 / (self.mu + 1)
        for i in range(self.out_dim):
            p[i, i : i + self.mu + 1] = w
        return p


@dataclass
class Grade:
    """One trained grade: pooled affine component plus the feature activation.

    `smoother` being set means the component (not the features) is smoothed;
    prediction then quadratures the raw pooled affine image around each query
    point, exactly as the training residual saw it.
    """

    weight: np.ndarray
    bias: np.ndarray
    pooling: Pooling
    activation: Activation
    smoother: smoothing.Smoother | None = None

    def __post_init__(self):
        self.weight = np.asarray(self.weight, dtype=float)
        self.bias = np.asarray(self.bias, dtype=float)
        if self.weight.ndim != 2 or self.bias.ndim != 1:
            raise ValueError("grade weight must be 2-D and bias 1-D")
        if self.weight.shape[0] != self.bias.shape[0]:
            raise ValueError("grade weight rows must match bias length")
        if self.weight.shape[0] != self.pooling.in_dim:
            raise ValueError("grade width must equal pooling in_dim")

    @property
    def width(self) -> int:
        return self.weight.shape[0]

    @property
    def tau(self) -> float:
        return self.smoother.tau if self.smoother is not None else 0.0


@dataclass
class Carry:
    """The features N_depth at every row of one point set, kept between chain runs."""

    depth: int
    feats: np.ndarray


def _row_blocks(n: int) -> list[slice]:
    """Near-equal row blocks of at most BLOCK_ROWS rows.

    Splitting evenly keeps every block of a long run above half the limit.
    That keeps results bit-identical to one full-array pass: OpenBLAS gives
    a long row block of `a @ w.T` the bits of the full product, but not a
    short one (at width 100, blocks of 100 rows differ in the last place,
    blocks of 500 rows and more do not).
    """
    count = max(1, -(-n // BLOCK_ROWS))
    edges = [i * n // count for i in range(count + 1)]
    return [slice(lo, hi) for lo, hi in zip(edges, edges[1:])]


def _store(
    kept: Carry | None, carry: Carry | None, rows: slice, a: np.ndarray, n: int, depth: int
) -> Carry:
    """Write one row block of N_depth, reusing the consumed carry's array when it fits."""
    if kept is None:
        if carry is not None and carry.feats.shape[1] == a.shape[1]:
            kept = Carry(depth, carry.feats)
        else:
            kept = Carry(depth, np.empty((n, a.shape[1])))
    kept.feats[rows] = a
    return kept


@dataclass
class Model:
    """Superposition model: optional hybrid head plus an ordered list of grades."""

    input_dim: int
    output_dim: int
    grades: list[Grade] = field(default_factory=list)
    head: Any = None  # optional MlpParams; duck-typed (predict / hidden / to_dict)

    def _check_input(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.ndim != 2 or x.shape[1] != self.input_dim:
            raise ValueError(f"expected inputs of shape (n, {self.input_dim})")
        return x

    def run_chain(
        self,
        points: np.ndarray | None,
        wanted: Sequence[int] = (),
        carry: Carry | None = None,
        keep: int | None = None,
    ) -> tuple[dict[int, np.ndarray], Carry | None]:
        """Raw pooled components of the grades in `wanted` at the rows of points.

        The feature recursion runs over near-equal row blocks of at most
        BLOCK_ROWS rows, so only one block's features are alive at a time, and
        each grade it passes is evaluated once.  `carry` holds N_d at the
        points and stands in for them and for the first d grades (points may
        then be None).  With `keep=j` the features N_j come back as a Carry;
        a carry passed in is then consumed, since its array is overwritten
        when the widths agree.
        """
        if carry is not None:
            if points is not None and len(points) != len(carry.feats):
                raise ValueError(f"carry has {len(carry.feats)} rows for {len(points)} points")
            points = carry.feats
        start = carry.depth if carry is not None else 0
        stop = max([k + 1 for k in wanted] + [keep or 0])
        if any(k < start for k in wanted) or stop > len(self.grades):
            raise IndexError(f"grades {list(wanted)} out of range for depth {start}")
        if keep is not None and keep < start:
            raise IndexError(f"cannot keep depth {keep} below the carried depth {start}")
        n = points.shape[0]
        comps = {k: np.empty((n, self.output_dim)) for k in wanted}
        kept = None
        if keep == start and carry is not None:
            keep, kept = None, carry
        for rows in _row_blocks(n):
            a = points[rows]
            if carry is None and self.head is not None:
                a = self.head.hidden(a)
            for j in range(start, stop):
                if j == keep:
                    kept = _store(kept, carry, rows, a, n, keep)
                g = self.grades[j]
                pre = a @ g.weight.T + g.bias
                if j in comps:
                    comps[j][rows] = g.pooling.apply(pre)
                if j + 1 < stop or keep == stop:
                    a = g.activation(pre)
            if keep == stop:
                kept = _store(kept, carry, rows, a, n, keep)
        return comps, kept

    def features(self, x: np.ndarray, upto: int | None = None) -> np.ndarray:
        """Feature recursion N_k at the rows of x (k = upto, default all grades).

        N_0 is the input itself (or the hybrid head's last hidden layer output),
        and each grade applies its activation to its pre-pooling affine image.
        """
        x = self._check_input(x)
        if upto is None:
            upto = len(self.grades)
        if not 0 <= upto <= len(self.grades):
            raise IndexError(f"feature depth {upto} out of range")
        return self.run_chain(x, keep=upto)[1].feats

    def smoothed_components(
        self,
        ks: Sequence[int],
        x: np.ndarray,
        carry: Carry | None = None,
        keep: int | None = None,
    ) -> tuple[dict[int, np.ndarray], Carry | None]:
        """Smoothed components of grades ks, which share one node set, at the
        rows of x.

        The chain runs once at the distinct quadrature nodes, when the first
        grade's quadrature asks for its values (see run_chain for `carry` and
        `keep`, which refer to those nodes); each grade's quadrature then
        weights its own raw values.
        """
        if self.input_dim != 1:
            raise ValueError("smoothing supports 1-D input only")
        xs = x[:, 0]
        ran: dict[str, Any] = {}

        def raw(points: np.ndarray, k: int) -> np.ndarray:
            if points is xs:
                return self.run_chain(points[:, None], [k])[0][k]  # renormalizing base
            if not ran:
                ran["comps"], ran["carry"] = self.run_chain(points[:, None], ks, carry, keep)
            return ran["comps"].pop(k)

        out = {
            k: smoothing.smooth_fn_grid(lambda p, k=k: raw(p, k), self.grades[k].smoother, xs)
            for k in ks
        }
        return out, ran["carry"]

    def _components(self, x: np.ndarray, ks: Sequence[int]) -> dict[int, np.ndarray]:
        """Components of grades ks at the rows of x, one chain run per node set."""
        groups: dict[Any, list[int]] = {}
        for k in ks:
            sm = self.grades[k].smoother
            groups.setdefault(None if sm is None else smoothing.node_key(sm), []).append(k)
        out = {}
        for key, group in groups.items():
            if key is None:
                out.update(self.run_chain(x, group)[0])
            else:
                out.update(self.smoothed_components(group, x)[0])
        return out

    def component_values(self, k: int, x: np.ndarray) -> np.ndarray:
        """Grade k's component at the rows of x — smoothed when the grade says so."""
        return self._components(self._check_input(x), [k])[k]

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Sum of the per-grade components (plus the head), in grade order."""
        x = self._check_input(x)
        if not self.grades and self.head is None:
            raise ValueError("model has no grades and no head")
        if self.head is not None:
            out = np.asarray(self.head.predict(x), dtype=float)
        else:
            out = np.zeros((x.shape[0], self.output_dim))
        comps = self._components(x, range(len(self.grades)))
        for k in range(len(self.grades)):
            out = out + comps[k]
        return out


def inner_product(u: np.ndarray, v: np.ndarray) -> float:
    """Discrete inner product: sum over samples of the per-sample dot products."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    if u.shape != v.shape:
        raise ValueError(f"shape mismatch: {u.shape} vs {v.shape}")
    return float(np.sum(u * v))


def sq_norm(u: np.ndarray) -> float:
    return inner_product(u, u)


def norm(u: np.ndarray) -> float:
    return float(np.sqrt(sq_norm(u)))


# --- serialization ----------------------------------------------------------


def _activation_to_dict(a: Activation) -> dict:
    if a.kind == "leaky_relu":
        return {"kind": a.kind, "params": {"slope": a.slope}}
    if a.kind == "combination":
        return {
            "kind": a.kind,
            "params": {
                "weights": list(a.weights),
                "basis": [_activation_to_dict(b) for b in a.basis],
            },
        }
    return {"kind": a.kind, "params": {}}


def _activation_from_dict(d: dict) -> Activation:
    kind = d["kind"]
    params = d.get("params", {})
    if kind == "leaky_relu":
        return Activation(kind, slope=float(params["slope"]))
    if kind == "combination":
        return combination(
            params["weights"], [_activation_from_dict(b) for b in params["basis"]]
        )
    return Activation(kind)


def _smoothing_to_dict(s: smoothing.Smoother | None) -> dict:
    if s is None:
        return {"tau": 0.0}
    doc = {"tau": s.tau, "window_mode": smoothing.window_to_dict(s.window), "M": s.quad_points}
    if s.renormalize:
        doc["renormalize"] = True
    return doc


def _smoothing_from_dict(d: dict) -> smoothing.Smoother | None:
    if d.get("tau", 0.0) == 0.0:
        return None
    window = smoothing.window_from_dict(d["window_mode"])
    return smoothing.Smoother(
        float(d["tau"]), window, int(d["M"]), bool(d.get("renormalize", False))
    )


def model_to_dict(model: Model) -> dict:
    doc = {
        "format_version": FORMAT_VERSION,
        "input_dim": model.input_dim,
        "output_dim": model.output_dim,
        "grades": [
            {
                "weight": g.weight.tolist(),
                "bias": g.bias.tolist(),
                "mu": g.pooling.mu,
                "activation": _activation_to_dict(g.activation),
                "smoothing": _smoothing_to_dict(g.smoother),
            }
            for g in model.grades
        ],
    }
    if model.head is not None:
        doc["hybrid_head"] = model.head.to_dict()
    return doc


def model_from_dict(doc: dict) -> Model:
    if doc.get("format_version") != FORMAT_VERSION:
        raise ValueError(f"unsupported model format_version: {doc.get('format_version')!r}")
    t = int(doc["output_dim"])
    head = None
    if "hybrid_head" in doc:
        from .mlp import MlpParams  # deferred: mlp imports this module

        head = MlpParams.from_dict(doc["hybrid_head"])
    grades = []
    for gd in doc["grades"]:
        weight = np.asarray(gd["weight"], dtype=float)
        grades.append(
            Grade(
                weight=weight,
                bias=np.asarray(gd["bias"], dtype=float),
                pooling=Pooling(out_dim=t, mu=int(gd["mu"])),
                activation=_activation_from_dict(gd["activation"]),
                smoother=_smoothing_from_dict(gd.get("smoothing", {"tau": 0.0})),
            )
        )
    return Model(int(doc["input_dim"]), t, grades, head)
