"""Model types and evaluation semantics.

A trained model is a *superposition*: each grade contributes one pooled
affine component, and prediction sums the components — the grades are never
composed into a single chain.  Composition happens only inside the feature
recursion, where grade k's activation wraps its pre-pooling affine output to
feed grade k+1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Iterator, Sequence

import numpy as np

from . import smoothing

# Rows per block of the feature recursion: 4096 rows of width 128 are 4 MB,
# the size of each of the two work arrays per width that Model.run_chain
# reuses for every block.
BLOCK_ROWS = 4096

_BASE_KINDS = ("identity", "relu", "leaky_relu", "tanh", "sincos_half")

# sincos_half(z) = 0.5 sin z + 0.5 cos z = sqrt(1/2) sin(z + pi/4)
_QUARTER_PI = math.pi / 4
_SQRT_HALF = math.sqrt(0.5)


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

        z is a float array and out a float array of its shape, not z itself;
        z is left as it is.
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
            # one sine: sqrt(1/2) * sin(z + pi/4), in out alone
            np.add(z, _QUARTER_PI, out=out)
            np.sin(out, out=out)
            out *= _SQRT_HALF
        else:
            out.fill(0.0)
            for w, act in zip(self.weights, self.basis):
                out += w * act(z)
        return out

    def value_and_derivative(self, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The activation of z and its elementwise derivative, from one sine
        and cosine (or tanh) evaluation; ReLU takes subgradient 0 at the kink.
        sincos_half's value has the bits of into's, sqrt(1/2) sin(z + pi/4),
        and its derivative is sqrt(1/2) cos(z + pi/4)."""
        z = np.asarray(z, dtype=float)
        if self.kind == "tanh":
            t = np.tanh(z)
            return t, 1.0 - t * t
        if self.kind == "sincos_half":
            shifted = z + _QUARTER_PI
            value = np.sin(shifted)
            value *= _SQRT_HALF
            deriv = np.cos(shifted, out=shifted)
            deriv *= _SQRT_HALF
            return value, deriv
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

    apply is x @ P^T and adjoint is y @ P for every out_dim and mu >= 1,
    each one BLAS product over every leading row, with P made once per
    Pooling.  Their bits depend on the BLAS build and on the row count of
    the product (see Model.run_chain).  With mu = 0 both return a copy of
    their input, which keeps inf, NaN and -0.0 where they are (a product
    with the identity would spread inf * 0.0 = NaN along the row and give
    +0.0 for -0.0).

    With n = mu+1, K = P P^T is the overlap count of two windows over n^2:
    K = overlap / n with overlap(i, j) = max(0, n - |i-j|) / n, exactly 1.0
    on the diagonal.  lift is the minimum-norm right inverse
    P^T K^-1 = (n P)^T overlap^-1, lift_sq_norm is ||lift(v)||^2 from
    overlap^-1 alone, and lambda_max is the largest eigenvalue of K,
    ||P||_2^2; overlap^-1 and lambda_max both come from one eigh of overlap.
    P, overlap, its eigenpairs and inverse, lift's matrix and lambda_max are
    made once per Pooling.
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

    @cached_property
    def overlap(self) -> np.ndarray:
        """(mu+1) P P^T, read-only: the overlap count of two windows over mu+1."""
        n = self.mu + 1
        k = np.arange(self.out_dim)
        o = np.maximum(n - np.abs(k[:, None] - k), 0) / n
        o.flags.writeable = False
        return o

    @cached_property
    def _overlap_eigh(self) -> tuple[np.ndarray, np.ndarray]:
        return np.linalg.eigh(self.overlap)

    @cached_property
    def _overlap_inv(self) -> np.ndarray:
        vals, vecs = self._overlap_eigh
        return (vecs / vals) @ vecs.T

    @cached_property
    def _right_inverse(self) -> np.ndarray:
        windows = (self._matrix > 0.0).astype(float)  # (mu+1) P: 1 inside each window
        return windows.T @ self._overlap_inv

    @cached_property
    def lambda_max(self) -> float:
        """The largest eigenvalue of P P^T, ||P||_2^2."""
        return float(self._overlap_eigh[0][-1]) / (self.mu + 1)

    def apply(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.shape[-1] != self.in_dim:
            raise ValueError(f"pooling expects last dim {self.in_dim}, got {x.shape[-1]}")
        return x.copy() if self.mu == 0 else _product(x, self._matrix.T)

    def adjoint(self, y: np.ndarray) -> np.ndarray:
        """Apply the transpose of the induced matrix."""
        y = np.asarray(y, dtype=float)
        if y.shape[-1] != self.out_dim:
            raise ValueError(f"adjoint expects last dim {self.out_dim}, got {y.shape[-1]}")
        return y.copy() if self.mu == 0 else _product(y, self._matrix)

    def lift(self, v: np.ndarray) -> np.ndarray:
        """P^T (P P^T)^-1 v, the minimum-norm u with P u = v, for v of out_dim
        rows (a vector or a matrix of columns)."""
        return self._right_inverse @ v

    def lift_sq_norm(self, v: np.ndarray) -> float:
        """||lift(v)||^2 = (mu+1) tr(v^T overlap^-1 v), from out_dim x out_dim
        work only."""
        v = np.asarray(v, dtype=float)
        return (self.mu + 1) * float(v.ravel() @ (self._overlap_inv @ v).ravel())

    def matrix(self) -> np.ndarray:
        """P, read-only."""
        return self._matrix


@dataclass
class Grade:
    """One trained grade: pooled affine component plus the feature activation.

    `smoother` being set means the component (not the features) is smoothed;
    prediction then quadratures the raw pooled affine image around each query
    point, exactly as the training residual saw it.

    The grade's *units* are the bitwise-distinct rows of [W b], in order of
    first occurrence; `groups` gives the unit of each of the width rows.
    Rows with equal bits give equal pre-activations, so the chain evaluates
    the grade on its units alone (see Model.run_chain).  A direct grade,
    [W b] = lift(M^T), has 2t - 1 units when the pooling is wider than
    2t - 1: every window covers the columns t-1..mu, so lift's rows there
    are equal.  The units come from the saved W and b alone, so a reloaded
    model has the same ones.
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

    @cached_property
    def _units(self) -> tuple[np.ndarray, np.ndarray]:
        wb = np.ascontiguousarray(np.column_stack([self.weight, self.bias]))
        keys = wb.view(np.dtype((np.void, wb.itemsize * wb.shape[1]))).ravel()
        _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
        order = np.argsort(first)
        rank = np.empty_like(order)
        rank[order] = np.arange(len(order))
        return first[order], rank[inverse.ravel()]

    @property
    def units(self) -> int:
        """The number of bitwise-distinct rows of [W b]."""
        return len(self._units[0])

    @property
    def unit_rows(self) -> np.ndarray:
        """The first row of each unit, ascending."""
        return self._units[0]

    @property
    def groups(self) -> np.ndarray:
        """The unit of each row."""
        return self._units[1]


def _sum_columns(mat: np.ndarray, groups: np.ndarray, count: int) -> np.ndarray:
    """mat's columns summed into `count` columns, column c into groups[c],
    each sum taken in ascending column order from 0.0."""
    out = np.zeros((mat.shape[0], count))
    np.add.at(out, (slice(None), groups), mat)
    return out


def _unit_affine(prev: Grade | None, g: Grade) -> tuple[np.ndarray, np.ndarray]:
    """Grade g's W and b as the chain applies them: g's unit rows, acting on
    prev's units (on the input when prev is None), so each column group of
    prev is summed into one column."""
    weight = g.weight[g.unit_rows]
    if prev is not None:
        weight = _sum_columns(weight, prev.groups, prev.units)
    return weight, g.bias[g.unit_rows]


def _unit_pooling(g: Grade):
    """The map from g's pre-activation on its units to its pooled
    component: at mu = 0 the gather to every row, which keeps
    Pooling.apply's copy semantics for inf, NaN and -0.0; else the product
    with P's columns summed over g's groups."""
    groups = g.groups
    if g.pooling.mu == 0:
        return lambda pre: pre[:, groups]
    pooled_t = _sum_columns(g.pooling.matrix(), groups, g.units).T
    return lambda pre: pre @ pooled_t


class _AngleSum:
    """N_1 at the quadrature nodes x_j + o_i of one node set (point-major,
    node (j, i) at row j*M + i), by angle addition.

    Grade 1 is sincos_half on 1-D input, so N_1 there is
    sqrt(1/2) sin(z_j + o_i w + pi/4) with z_j = x_j w + b, which is
    S_j C'_i + C_j S'_i for S_j, C_j = sqrt(1/2) sin, cos(z_j + pi/4) at
    the n points and S'_i, C'_i = sin, cos(o_i w) at the M offsets: the
    four tables take 2(n + M) w sines and cosines in place of n M w.  z_j
    is the affine image run_chain forms at the plain points.  Like the
    chain, it forms N_1 on grade 1's units (_unit_affine).
    """

    def __init__(self, grade: Grade, xs: np.ndarray, offsets: np.ndarray):
        weight, bias = _unit_affine(None, grade)
        self.width = len(weight)
        self.per_point = len(offsets)
        z = np.matmul(xs[:, None], weight.T)
        z += bias
        z += _QUARTER_PI
        self.s = np.sin(z)
        self.s *= _SQRT_HALF
        self.c = np.cos(z, out=z)
        self.c *= _SQRT_HALF
        shift = np.matmul(offsets[:, None], weight.T)
        self.s_off = np.sin(shift)
        self.c_off = np.cos(shift, out=shift)

    def __len__(self) -> int:
        return len(self.s) * self.per_point

    def fill(self, rows: slice, tmp: np.ndarray, out: np.ndarray) -> np.ndarray:
        """N_1 at the node rows `rows`, which hold whole points, written into
        out's leading rows, with tmp's as scratch; returns those rows."""
        j = slice(rows.start // self.per_point, rows.stop // self.per_point)
        shape = (j.stop - j.start, self.per_point, self.width)
        n1, scratch = out[: rows.stop - rows.start], tmp[: rows.stop - rows.start]
        np.multiply(self.s[j, None], self.c_off[None], out=n1.reshape(shape))
        np.multiply(self.c[j, None], self.s_off[None], out=scratch.reshape(shape))
        n1 += scratch
        return n1


@dataclass
class Carry:
    """The features N_depth at every row of one point set, kept by one chain
    run for Model.features or, in training, for the next grade's run at the
    same nodes, on the units of grade `depth` (the input's columns at depth
    0).  feats is an (n, units) array or, at depth 1 on the nodes of one
    node set, the _AngleSum that forms N_1 there block by block."""

    depth: int
    feats: np.ndarray | _AngleSum


def _row_blocks(n: int, per_point: int = 1) -> list[slice]:
    """Near-equal row blocks of whole points of per_point rows each, at most
    BLOCK_ROWS (4096) rows a block, or one point when per_point is larger.

    Splitting evenly keeps every block of a longer run at BLOCK_ROWS // 2
    (2048) rows or more, less at most one point.  That keeps results
    bit-identical to one full-array pass: OpenBLAS gives a long row block
    of `a @ w.T` the bits of the full product, but not a short one (at
    width 100, blocks of 100 rows differ in the last place, blocks of 500
    rows and more do not).
    """
    points = n // per_point
    count = max(1, -(-points // max(1, BLOCK_ROWS // per_point)))
    edges = [i * points // count * per_point for i in range(count + 1)]
    return [slice(lo, hi) for lo, hi in zip(edges, edges[1:])]


def _kept(kept: Carry | None, carry: Carry | None, n: int, width: int, depth: int) -> Carry:
    """The Carry that N_depth is written into, made on first use, with the
    consumed carry's array when its width fits."""
    if kept is not None:
        return kept
    if carry is not None and carry.feats.shape[1] == width:
        return Carry(depth, carry.feats)
    return Carry(depth, np.empty((n, width)))


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
    ) -> tuple[dict[int, np.ndarray], Carry | None]:
        """Raw pooled components of the grades in `wanted` at the rows of points.

        The feature recursion runs over near-equal row blocks of at most
        BLOCK_ROWS rows, so only one block's features are alive at a time, and
        each grade it passes is evaluated once.  `carry` holds N_d at the
        points and stands in for them and for the first d grades (points may
        then be None); training carries N_d, through _planned_components, at
        a node set's distinct nodes only.  A carry of an _AngleSum stands in
        for grade 1 at the nodes of a whole node set: its blocks hold whole
        points, and each forms its N_1 from the four tables in grade 1's
        work arrays.  With `keep=j` the features N_j
        come back as a Carry; a carry passed in is then consumed, since its
        array is overwritten when the widths agree.

        Every grade is evaluated on its units (Grade.groups), and so are the
        features it passes on: once per call, each grade gets the W and b
        of _unit_affine (its unit rows, with the columns of the previous
        grade's groups summed) and the pooling of _unit_pooling.  The
        expanded features would repeat each unit's column over its group,
        so the components agree with the full-width products to rounding,
        and keep their bits where neither a grade nor the one before folds.

        The call makes two work arrays per unit count, as long as the
        longest block, and every block and grade reuses them: the affine
        image goes into the first (np.matmul with out=, then += bias, the
        operations of qp.residual); the activation is then written into the
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
        angles = None
        if isinstance(points, _AngleSum):
            angles, carry = points, None  # read block by block, never written into
        stop = max([k + 1 for k in wanted] + [keep or 0])
        if any(k < start for k in wanted) or stop > len(self.grades):
            raise IndexError(f"grades {list(wanted)} out of range for depth {start}")
        if keep is not None and keep < start:
            raise IndexError(f"cannot keep depth {keep} below the carried depth {start}")
        n = len(points)
        comps = {k: np.empty((n, self.output_dim)) for k in wanted}
        kept = None
        if keep == start and carry is not None:
            keep, kept = None, carry
        blocks = _row_blocks(n, angles.per_point if angles is not None else 1)
        longest = max(b.stop - b.start for b in blocks)
        steps = {}  # grade -> (weight, bias, pooling or None) on its units
        for j in range(start, stop):
            weight, bias = _unit_affine(self.grades[j - 1] if j else None, self.grades[j])
            steps[j] = weight, bias, _unit_pooling(self.grades[j]) if j in comps else None
        widths = {len(w) for w, _, _ in steps.values()}
        if angles is not None:
            widths.add(angles.width)
        work = {w: (np.empty((longest, w)), np.empty((longest, w))) for w in widths}
        for rows in blocks:
            if angles is not None:
                a = angles.fill(rows, *work[angles.width])
            else:
                a = points[rows]
                if carry is None and self.head is not None:
                    a = self.head.hidden(a)
            if keep == start:
                kept = _kept(kept, carry, n, a.shape[1], keep)
                kept.feats[rows] = a
            for j in range(start, stop):
                weight, bias, pool = steps[j]
                pre_buf, act_buf = work[len(weight)]
                pre = np.matmul(a, weight.T, out=pre_buf[: len(a)])
                pre += bias
                if pool is not None:
                    comps[j][rows] = pool(pre)
                act = self.grades[j].activation
                if j + 1 == keep:
                    kept = _kept(kept, carry, n, len(weight), keep)
                    a = act.into(pre, kept.feats[rows])
                elif j + 1 < stop:
                    a = act.into(pre, act_buf[: len(pre)])
        return comps, kept

    def expand(self, carry: Carry) -> np.ndarray:
        """The carry's features at full width, each unit's column repeated
        over its group (the carry's own array at depth 0), C-ordered: a
        least squares posed on F-ordered features rounds differently."""
        if carry.depth == 0:
            return carry.feats
        return np.take(carry.feats, self.grades[carry.depth - 1].groups, axis=1)

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
        return self.expand(self.run_chain(x, keep=upto)[1])

    def _components(self, x: np.ndarray, ks: Sequence[int]) -> dict[int, np.ndarray]:
        """Components of grades ks at the rows of x: one chain run at x for
        the unsmoothed grades, and one per node set for the smoothed ones."""
        if len(x) == 0:
            return {k: np.zeros((0, self.output_dim)) for k in ks}
        plain = [k for k in ks if self.grades[k].smoother is None]
        out = self.run_chain(x, plain)[0]
        smoothed = [k for k in ks if k not in out]
        if smoothed:
            out.update(self._planned_components(x, smoothed)[0])
        return out

    def _adds_angles(self) -> bool:
        """Whether grade 1's features at the nodes of a whole node set may
        come by angle addition (_AngleSum): grade 1 is an unsmoothed
        sincos_half grade on the input itself (no head).  The node set must
        also repeat no node, and the run start from the nodes themselves
        (see _planned_components)."""
        first = self.grades[0]
        return self.head is None and first.smoother is None and first.activation.kind == "sincos_half"

    def _planned_components(
        self,
        x: np.ndarray,
        ks: Sequence[int],
        carry: Carry | None = None,
        keep: int | None = None,
    ) -> tuple[dict[int, np.ndarray], Carry | None]:
        """Smoothed components of grades ks at the rows of x, from one chain
        run per node set, and the Carry that `keep` asks for.

        Training, test scoring and eval all evaluate smoothed grades here.
        The grades of one node set (smoothing.node_key) take one chain run
        over its distinct nodes (smoothing.distinct_nodes), in their own
        order, and each grade's quadrature then weights its own values
        (smoothing.contract); the sets run in the order of their first
        grade in ks, and each set's node values are dropped once contracted.
        When no carry is passed, no node of the set repeats (distinct_nodes
        returns it whole) and _adds_angles holds, the run starts from grade
        1's features by angle addition (_AngleSum), whose tables are freed
        before the contraction.  So training and prediction decide alike at
        the same points.

        `carry` and `keep` refer to the nodes of one node set (see
        run_chain); training passes them, one grade at a time.  They raise
        ValueError when ks span several node sets.  The renormalized form's
        values at x come from a chain run of their own.
        """
        if self.input_dim != 1:
            raise ValueError("smoothing supports 1-D input only")
        xs = x[:, 0]
        by_key: dict[Any, list[int]] = {}
        for k in ks:
            by_key.setdefault(smoothing.node_key(self.grades[k].smoother), []).append(k)
        if len(by_key) > 1 and (carry is not None or keep is not None):
            raise ValueError("carry and keep need the grades of one node set")
        out: dict[int, np.ndarray] = {}
        kept = None
        for grades in by_key.values():
            sm = self.grades[grades[0]].smoother
            points, inv = smoothing.distinct_nodes(sm, xs)
            if carry is None and inv is None and self._adds_angles():
                points, carry = None, Carry(1, _AngleSum(self.grades[0], xs, smoothing.quadrature(sm)[0]))
            else:
                points = points[:, None]
            comps, kept = self.run_chain(points, grades, carry, keep)
            points = carry = None
            for k in grades:
                sm = self.grades[k].smoother
                base = self.run_chain(x, [k])[0][k] if sm.renormalize else None
                out[k] = smoothing.contract(sm, xs, comps.pop(k), inv, base)
        return out, kept

    def component_values(self, k: int, x: np.ndarray) -> np.ndarray:
        """Grade k's component at the rows of x — smoothed when the grade says so."""
        return self._components(self._check_input(x), [k])[k]

    def staged_predict(self, x: np.ndarray) -> Iterator[np.ndarray]:
        """The running prediction at the rows of x: the head's (when there is
        one), then the sum after each grade, in grade order.

        Every grade's component is evaluated up front, with no features
        kept: the unsmoothed grades by one chain run at x, the smoothed ones
        by one chain run per node set over its distinct nodes (see
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
    with np.errstate(over="ignore"):  # beyond the largest double, inf is the value
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
