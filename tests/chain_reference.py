"""Reference evaluation of a trained model: the feature recursion replayed from
the inputs for every grade, over all rows at once, and a smoothed component
contracted from the values at every quadrature node, weighted and summed
offset by offset in ascending order, the order smoothing.contract sums in.

The model evaluates the recursion in row blocks, only at the distinct nodes,
and carries features from grade to grade; tests require it to match this
reference bit for bit.  Where the model forms grade 1's features at the nodes
of a set by angle addition (Model._adds_angles, at a node set with no
repeated node), so does the reference, set by set, with the same operations
over every node of the set at once.

Like the model, the reference evaluates each grade on its units, the
bitwise-distinct rows of [W b] in order of first occurrence, found here by
the bytes of each row.  A grade's W keeps its unit rows, and its columns
are summed over the previous grade's units one column at a time, in
ascending order; its pooling matrix's columns are summed over its own
units the same way, and at mu = 0 its pooled component is the gather of
each row's unit.  A grade that folds on neither side keeps its full-width
a @ W.T + b and Pooling.apply.  features and node_features give N_j on
grade j's units, as a Carry holds them; expand repeats them to full width.
"""

import numpy as np

from sal_learn import smoothing


def groups(g):
    """The unit of each row of grade g, or None when every row is distinct."""
    seen = {}
    out = [seen.setdefault(row.tobytes(), len(seen)) for row in np.column_stack([g.weight, g.bias])]
    return None if len(seen) == len(out) else out


def _sum_columns(mat, units):
    out = np.zeros((mat.shape[0], max(units) + 1))
    for c, u in enumerate(units):
        out[:, u] += mat[:, c]
    return out


def affine(model, j):
    """Grade j's W and b on its units, acting on grade j-1's units."""
    g = model.grades[j]
    weight, bias = g.weight, g.bias
    own = groups(g)
    if own is not None:
        rows = [own.index(u) for u in range(max(own) + 1)]
        weight, bias = weight[rows], bias[rows]
    prev = groups(model.grades[j - 1]) if j > 0 else None
    if prev is not None:
        weight = _sum_columns(weight, prev)
    return weight, bias


def pool(g, pre):
    """Grade g's pooled component from its pre-activation on its units."""
    own = groups(g)
    if own is None:
        return g.pooling.apply(pre)
    if g.pooling.mu == 0:
        return pre[:, own]
    return pre @ _sum_columns(g.pooling.matrix(), own).T


def expand(model, j, a):
    """N_j on grade j's units at full width."""
    own = groups(model.grades[j - 1]) if j > 0 else None
    return a if own is None else a[:, own]


def _advance(model, a, lo, hi):
    for i in range(lo, hi):
        weight, bias = affine(model, i)
        a = model.grades[i].activation(a @ weight.T + bias)
    return a


def features(model, j, points):
    a = model.head.hidden(points) if model.head is not None else points
    return _advance(model, a, 0, j)


def adds_angles(model):
    first = model.grades[0]
    return model.head is None and first.smoother is None and first.activation.kind == "sincos_half"


def angle_sum(model, sm, x):
    """N_1 at the quadrature nodes around the rows of x, point-major:
    sqrt(1/2) sin, cos(x w + b + pi/4) at the points against sin, cos(o w)
    at the offsets."""
    weight, bias = affine(model, 0)
    z = x @ weight.T + bias + np.pi / 4
    s, c = np.sin(z) * np.sqrt(0.5), np.cos(z) * np.sqrt(0.5)
    shift = smoothing.quadrature(sm)[0][:, None] @ weight.T
    n1 = s[:, None] * np.cos(shift)[None] + c[:, None] * np.sin(shift)[None]
    return n1.reshape(-1, len(weight))


def node_features(model, j, sm, x):
    """N_j at the quadrature nodes of sm around the rows of x, point-major."""
    nodes = smoothing.quadrature_nodes(sm, x[:, 0])
    if j == 0 or not adds_angles(model) or np.unique(nodes.view(np.int64)).size < nodes.size:
        return features(model, j, nodes[:, None])
    return _advance(model, angle_sum(model, sm, x), 1, j)


def _pooled(model, k, a):
    weight, bias = affine(model, k)
    return pool(model.grades[k], a @ weight.T + bias)


def raw_component(model, k, points):
    return _pooled(model, k, features(model, k, points))


def component(model, k, x):
    g = model.grades[k]
    sm = g.smoother
    if sm is None:
        return raw_component(model, k, x)
    _, weights = smoothing.quadrature(sm)
    n, m = x.shape[0], weights.size
    vals = _pooled(model, k, node_features(model, k, sm, x)).reshape(n, m, -1)
    base = raw_component(model, k, x) if sm.renormalize else None
    out = np.zeros((n, vals.shape[2]))
    for i in range(m):
        out += weights[i] * (vals[:, i] if base is None else vals[:, i] - base)
    return out if base is None else base + out
