"""Model types and evaluation semantics.

A trained model is a *superposition*: each grade contributes one pooled
affine component, and prediction sums the components — the grades are never
composed into a single chain.  Composition happens only inside the feature
recursion, where grade k's activation wraps its pre-pooling affine output to
feed grade k+1.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Iterator, Mapping, Sequence

import numpy as np

from . import smoothing

# Rows per block of the feature recursion: 4096 rows of width 128 are 4 MB,
# the size of each of the two work arrays per width that Model.run_chain
# reuses for every block.
BLOCK_ROWS = 4096

# Fewest rows a node plan runs the chain over in one group (see
# Model._planned_components): a smaller group joins the next deeper one.
MIN_GROUP_ROWS = 512

_BASE_KINDS = ("identity", "relu", "leaky_relu", "tanh", "sincos_half")


@dataclass(frozen=True)
class Activation:
    """Elementwise activation; "combination" is a fixed linear mix of base kinds.

    Each kind is coded in into (the value) and value_and_derivative alone;
    __call__ and derivative wrap them."""

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
        return self.into(np.array(z, dtype=float), np.empty(np.shape(z)))

    def into(self, z: np.ndarray, out: np.ndarray) -> np.ndarray:
        """The activation of z written into out, which is returned.

        z is a float array and out a float array of its shape, not z itself.
        z may be overwritten: sincos_half computes its cosine in place over z.
        """
        if self.kind == "identity":
            np.copyto(out, z)
        elif self.kind == "relu":
            np.maximum(z, 0.0, out=out)
        elif self.kind == "leaky_relu":
            np.multiply(self.slope, z, out=out)
            np.copyto(out, z, where=z >= 0.0)
        elif self.kind == "tanh":
            np.tanh(z, out=out)
        elif self.kind == "sincos_half":
            # 0.5 * sin(z) + 0.5 * cos(z), in out and z alone
            np.sin(z, out=out)
            out *= 0.5
            half_cos = np.cos(z, out=z)
            half_cos *= 0.5
            out += half_cos
        else:
            out.fill(0.0)
            for w, act in zip(self.weights, self.basis):
                out += w * act(z)
        return out

    def value_and_derivative(self, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The activation of z and its elementwise derivative, from one sine
        and cosine (or tanh) evaluation; ReLU takes subgradient 0 at the kink."""
        z = np.asarray(z, dtype=float)
        if self.kind == "tanh":
            t = np.tanh(z)
            return t, 1.0 - t * t
        if self.kind == "sincos_half":
            half_sin = np.sin(z)
            half_sin *= 0.5
            half_cos = np.cos(z)
            half_cos *= 0.5
            return half_sin + half_cos, half_cos - half_sin
        if self.kind == "combination":
            value, deriv = np.zeros_like(z), np.zeros_like(z)
            for w, act in zip(self.weights, self.basis):
                v, d = act.value_and_derivative(z)
                value += w * v
                deriv += w * d
            return value, deriv
        # identity, relu and leaky_relu have slope 1 above 0 and this one below
        below = {"identity": 1.0, "relu": 0.0, "leaky_relu": self.slope}[self.kind]
        return self(z), np.where(z > 0.0, 1.0, below)

    def derivative(self, z: np.ndarray) -> np.ndarray:
        """The elementwise derivative of value_and_derivative."""
        return self.value_and_derivative(z)[1]


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


def _product(a: np.ndarray, mat: np.ndarray) -> np.ndarray:
    """a @ mat over the last axis of a, as one 2-D product of all its rows."""
    rows = a.reshape(-1, a.shape[-1]) @ mat
    return rows.reshape(a.shape[:-1] + (mat.shape[1],))


@dataclass(frozen=True)
class Pooling:
    """Sliding-window average over mu+1 entries, stride 1: R^(d+mu) -> R^d.

    The induced matrix P has rows of mu+1 copies of 1/(mu+1) shifted one
    step per row; it always has full row rank, and mu=0 is the identity.

    apply is x @ P^T and adjoint is y @ P, each one BLAS product over every
    leading row, with P made once per Pooling.  Their bits depend on the
    BLAS build and on the row count of the product (see Model.run_chain).
    mu=0 copies; for out_dim == 1 the one window is the whole last axis,
    so apply is a mean over it and adjoint its repeat, elementwise NumPy
    with the same bits on every build.
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

    @cached_property
    def _matrix(self) -> np.ndarray:
        cols = np.arange(self.in_dim) - np.arange(self.out_dim)[:, None]
        p = np.where((cols >= 0) & (cols <= self.mu), 1.0 / (self.mu + 1), 0.0)
        p.flags.writeable = False
        return p

    def apply(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.shape[-1] != self.in_dim:
            raise ValueError(f"pooling expects last dim {self.in_dim}, got {x.shape[-1]}")
        if self.mu == 0:
            return x.copy()
        if self.out_dim == 1:
            return x.mean(axis=-1, keepdims=True)
        return _product(x, self._matrix.T)

    def adjoint(self, y: np.ndarray) -> np.ndarray:
        """Apply the transpose of the induced matrix."""
        y = np.asarray(y, dtype=float)
        if y.shape[-1] != self.out_dim:
            raise ValueError(f"adjoint expects last dim {self.out_dim}, got {y.shape[-1]}")
        if self.mu == 0:
            return y.copy()
        if self.out_dim == 1:
            # each window holds y among +0.0s, whose sum is exactly y + 0.0
            # (y / n + 0.0 would differ where y / n underflows to -0.0)
            return np.repeat((y + 0.0) / (self.mu + 1), self.mu + 1, axis=-1)
        return _product(y, self._matrix)

    def matrix(self) -> np.ndarray:
        """P, read-only."""
        return self._matrix


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


@dataclass
class Carry:
    """The features N_depth at every row of one point set, kept between chain runs."""

    depth: int
    feats: np.ndarray


def _row_blocks(n: int) -> list[slice]:
    """Near-equal row blocks of at most BLOCK_ROWS (4096) rows.

    Splitting evenly keeps every block of a longer run at BLOCK_ROWS // 2
    (2048) rows or more.  That keeps results bit-identical to one
    full-array pass: OpenBLAS gives a long row block of `a @ w.T` the bits
    of the full product, but not a short one (at width 100, blocks of 100
    rows differ in the last place, blocks of 500 rows and more do not).
    """
    count = max(1, -(-n // BLOCK_ROWS))
    edges = [i * n // count for i in range(count + 1)]
    return [slice(lo, hi) for lo, hi in zip(edges, edges[1:])]


def _kept(kept: Carry | None, carry: Carry | None, n: int, width: int, depth: int) -> Carry:
    """The Carry that N_depth is written into, made on first use, with the
    consumed carry's array when its width fits."""
    if kept is not None:
        return kept
    if carry is not None and carry.feats.shape[1] == width:
        return Carry(depth, carry.feats)
    return Carry(depth, np.empty((n, width)))


class _NodeSet:
    """One node set of a node plan: its grades, its distinct nodes and
    their index (smoothing.distinct_nodes), and its grades' values at the
    nodes computed so far, one chunk per group run: (positions among the
    points, {grade: values at those points})."""

    def __init__(self, grades: list[int], sm: smoothing.Smoother, xs: np.ndarray):
        self.grades = grades
        self.points, self.inv = smoothing.distinct_nodes(sm, xs)
        self.chunks: list[tuple[np.ndarray, dict[int, np.ndarray]]] = []

    def place(self, where: np.ndarray, group: np.ndarray) -> None:
        """Point i is union row where[i], which runs in group group[where[i]]."""
        self.where = where
        self.order = np.argsort(where, kind="stable")  # the points in union order
        self.group = group[where[self.order]]
        self.last = self.group.min()  # groups run deepest first

    def collect(self, d: int, comps: dict[int, np.ndarray]) -> None:
        """Keep the set's grades' values from group d's run, whose rows
        hold the set's points of that group in union order."""
        self.chunks.append((self.order[self.group == d], {k: comps.pop(k) for k in self.grades}))

    def values(self, k: int) -> np.ndarray:
        """Grade k's values at every point, taken out of the chunks."""
        pos, first = self.chunks[0]
        if len(self.chunks) == 1 and np.array_equal(pos, np.arange(len(self.points))):
            return first.pop(k)
        vals = np.empty((len(self.points), first[k].shape[1]))
        for pos, chunk in self.chunks:
            vals[pos] = chunk.pop(k)
        return vals


@dataclass
class Model:
    """Superposition model: optional hybrid head plus an ordered list of grades."""

    input_dim: int
    output_dim: int
    grades: list[Grade] = field(default_factory=list)
    head: Any = None  # optional MlpParams; duck-typed (predict / hidden)

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
        select: Mapping[int, np.ndarray] | None = None,
    ) -> tuple[dict[int, np.ndarray], Carry | None]:
        """Raw pooled components of the grades in `wanted` at the rows of points.

        The feature recursion runs over near-equal row blocks of at most
        BLOCK_ROWS rows, so only one block's features are alive at a time, and
        each grade it passes is evaluated once.  `carry` holds N_d at the
        points and stands in for them and for the first d grades (points may
        then be None); training carries N_d at its points x and, through the
        node plan, at a node set's distinct nodes.  With `keep=j` the
        features N_j come back as a Carry; a carry passed in is then
        consumed, since its array is overwritten when the widths agree.
        `select` maps some grades in `wanted` to a boolean mask over the
        points: such a grade comes back at the selected rows only, in order.
        It is still pooled over its whole row block, and the selected rows
        are taken from that, because the bits of the pooling product depend
        on its row count: pooling only the selected rows could give them
        other bits than a run without `select`.

        The call makes two work arrays per grade width, as long as the
        longest block, and every block and grade reuses them: the affine
        image goes into the first (np.matmul with out=, then += bias, as
        qp.residual computes it); the activation is then written into the
        second (Activation.into), or, when it is N_keep,
        straight into the block's rows of the kept features.  No array of
        a block's size is made per block, so none is returned to the kernel
        and faulted back in; the operations, hence the bits, are those of
        evaluating each block into fresh arrays, as Activation.__call__ does.
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
        select = select or {}
        comps = {
            k: np.empty((np.count_nonzero(select[k]) if k in select else n, self.output_dim))
            for k in wanted
        }
        filled = dict.fromkeys(select, 0)
        kept = None
        if keep == start and carry is not None:
            keep, kept = None, carry
        blocks = _row_blocks(n)
        longest = max(b.stop - b.start for b in blocks)
        work = {
            w: (np.empty((longest, w)), np.empty((longest, w)))
            for w in {g.width for g in self.grades[start:stop]}
        }
        for rows in blocks:
            a = points[rows]
            if carry is None and self.head is not None:
                a = self.head.hidden(a)
            if keep == start:
                kept = _kept(kept, carry, n, a.shape[1], keep)
                kept.feats[rows] = a
            for j in range(start, stop):
                g = self.grades[j]
                pre_buf, act_buf = work[g.width]
                pre = np.matmul(a, g.weight.T, out=pre_buf[: len(a)])
                pre += g.bias
                if j in filled:
                    sel = select[j][rows]
                    lo = filled[j]
                    filled[j] += np.count_nonzero(sel)
                    if filled[j] > lo:
                        pooled = g.pooling.apply(pre)
                        np.compress(sel, pooled, axis=0, out=comps[j][lo : filled[j]])
                elif j in comps:
                    comps[j][rows] = g.pooling.apply(pre)
                if j + 1 == keep:
                    kept = _kept(kept, carry, n, g.width, keep)
                    a = g.activation.into(pre, kept.feats[rows])
                elif j + 1 < stop:
                    a = g.activation.into(pre, act_buf[: len(pre)])
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

    def _components(self, x: np.ndarray, ks: Sequence[int]) -> dict[int, np.ndarray]:
        """Components of grades ks at the rows of x: one chain run at x for
        the unsmoothed grades, and one node plan for the smoothed ones."""
        if len(x) == 0:
            return {k: np.zeros((0, self.output_dim)) for k in ks}
        plain = [k for k in ks if self.grades[k].smoother is None]
        out = self.run_chain(x, plain)[0]
        smoothed = [k for k in ks if k not in out]
        if smoothed:
            out.update(self._planned_components(x, smoothed)[0])
        return out

    def _planned_components(
        self,
        x: np.ndarray,
        ks: Sequence[int],
        carry: Carry | None = None,
        keep: int | None = None,
    ) -> tuple[dict[int, np.ndarray], Carry | None]:
        """Smoothed components of grades ks at the rows of x, from one node
        plan across their node sets, and the Carry that `keep` asks for.

        Training, test scoring and eval all evaluate smoothed grades here.
        When ks share one node set, one chain run over its distinct nodes
        (smoothing.distinct_nodes), in their own order and with no row
        selection, evaluates every grade, and each grade's quadrature then
        weights its own values (smoothing.contract).  `carry` and `keep`
        refer to those nodes (see run_chain); they are passed only for a
        single node set, by training.

        Over several node sets the distinct nodes of every set form one
        union, and each union node joins the group of the deepest grade
        whose node set holds it.  A group of fewer than MIN_GROUP_ROWS rows
        joins the next deeper group instead, since OpenBLAS may give a short
        product other bits than a long one.  One chain run per group,
        deepest group first, evaluates its nodes once and pools every grade
        at the nodes of that grade's set.  A grade is contracted right after
        the last group holding its nodes has run, and its node values are
        dropped; until then only the rows computed so far are kept.

        The renormalized form's values at x come from a chain run of their
        own.
        """
        if self.input_dim != 1:
            raise ValueError("smoothing supports 1-D input only")
        xs = x[:, 0]

        def contract(k: int, vals: np.ndarray, inv: np.ndarray | None) -> np.ndarray:
            sm = self.grades[k].smoother
            base = self.run_chain(x, [k])[0][k] if sm.renormalize else None
            return smoothing.contract(sm, xs, vals, inv, base)

        by_key: dict[Any, list[int]] = {}
        for k in ks:
            by_key.setdefault(smoothing.node_key(self.grades[k].smoother), []).append(k)
        if len(by_key) == 1:
            points, inv = smoothing.distinct_nodes(self.grades[ks[0]].smoother, xs)
            comps, kept = self.run_chain(points[:, None], ks, carry, keep)
            del points
            return {k: contract(k, comps.pop(k), inv) for k in ks}, kept
        sets = [_NodeSet(grades, self.grades[grades[0]].smoother, xs) for grades in by_key.values()]
        keys = np.unique(np.concatenate([s.points.view(np.int64) for s in sets]))
        union = keys.view(float)
        wheres = [np.searchsorted(keys, s.points.view(np.int64)) for s in sets]
        group = np.zeros(len(union), dtype=np.intp)
        for s, where in zip(sets, wheres):
            group[where] = np.maximum(group[where], s.grades[-1])
        levels = np.unique(group)
        for lo, hi in zip(levels, levels[1:]):
            rows = group == lo
            if np.count_nonzero(rows) < MIN_GROUP_ROWS:
                group[rows] = hi
        for s, where in zip(sets, wheres):
            s.place(where, group)
        levels = np.unique(group)[::-1]
        out: dict[int, np.ndarray] = {}
        for d in levels:
            rows = slice(None) if len(levels) == 1 else np.flatnonzero(group == d)
            present = [s for s in sets if d in s.group]
            wanted, select = [], {}
            for s in present:
                wanted += s.grades
                mask = np.zeros(len(union), dtype=bool)
                mask[s.where] = True
                if not mask[rows].all():
                    select.update(dict.fromkeys(s.grades, mask[rows]))
            comps = self.run_chain(union[rows][:, None], wanted, select=select)[0]
            for s in present:
                s.collect(d, comps)
                if s.last == d:
                    for k in s.grades:
                        out[k] = contract(k, s.values(k), s.inv)
                    s.chunks.clear()
        return out, None

    def component_values(self, k: int, x: np.ndarray) -> np.ndarray:
        """Grade k's component at the rows of x — smoothed when the grade says so."""
        return self._components(self._check_input(x), [k])[k]

    def staged_predict(self, x: np.ndarray) -> Iterator[np.ndarray]:
        """The running prediction at the rows of x: the head's (when there is
        one), then the sum after each grade, in grade order.

        Every grade's component is evaluated up front, with no features
        kept: the unsmoothed grades by one chain run at x, the smoothed ones
        by one node plan across their node sets, which evaluates each
        distinct node once, to the deepest grade that needs it (see
        _planned_components).  The sums are then formed one grade at a
        time, so only the latest needs to stay alive.
        """
        x = self._check_input(x)
        if self.head is not None:
            out = np.asarray(self.head.predict(x), dtype=float)
            yield out
        else:
            out = np.zeros((x.shape[0], self.output_dim))
        comps = self._components(x, range(len(self.grades)))
        for k in range(len(self.grades)):
            out = out + comps.pop(k)
            yield out

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Sum of the per-grade components (plus the head), in grade order:
        the last of staged_predict's sums."""
        x = self._check_input(x)
        if not self.grades and self.head is None:
            raise ValueError("model has no grades and no head")
        for out in self.staged_predict(x):
            pass
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


def rse(predictions: np.ndarray, targets: np.ndarray) -> float:
    """Relative squared error: sum ||pred - y||^2 / sum ||y||^2."""
    predictions, targets = np.asarray(predictions), np.asarray(targets)
    if predictions.shape != targets.shape:
        raise ValueError(f"rse of predictions {predictions.shape} against targets {targets.shape}")
    denom = sq_norm(targets)
    if denom == 0.0:
        raise ValueError("rse undefined for all-zero targets")
    return sq_norm(predictions - targets) / denom
