"""Reference evaluation of a trained model: the feature recursion replayed from
the inputs for every grade, over all rows at once, and a smoothed component
contracted from the values at every quadrature node.

The model evaluates the recursion in row blocks, only at the distinct nodes,
and carries features from grade to grade; tests require it to match this
reference bit for bit.  Where the model forms grade 1's features at the nodes
of a set by angle addition (Model._adds_angles, at a node set with no
repeated node), so does the reference, set by set, with the same operations
over every node of the set at once.
"""

import numpy as np

from sal_learn import smoothing


def features(model, j, points):
    a = model.head.hidden(points) if model.head is not None else points
    for g in model.grades[:j]:
        a = g.activation(a @ g.weight.T + g.bias)
    return a


def adds_angles(model):
    first = model.grades[0]
    return model.head is None and first.smoother is None and first.activation.kind == "sincos_half"


def angle_sum(model, sm, x):
    """N_1 at the quadrature nodes around the rows of x, point-major:
    sqrt(1/2) sin, cos(x w + b + pi/4) at the points against sin, cos(o w)
    at the offsets."""
    g = model.grades[0]
    z = x @ g.weight.T + g.bias + np.pi / 4
    s, c = np.sin(z) * np.sqrt(0.5), np.cos(z) * np.sqrt(0.5)
    shift = smoothing.quadrature(sm)[0][:, None] @ g.weight.T
    n1 = s[:, None] * np.cos(shift)[None] + c[:, None] * np.sin(shift)[None]
    return n1.reshape(-1, g.width)


def node_features(model, j, sm, x):
    """N_j at the quadrature nodes of sm around the rows of x, point-major."""
    nodes = smoothing.quadrature_nodes(sm, x[:, 0])
    if j == 0 or not adds_angles(model) or np.unique(nodes.view(np.int64)).size < nodes.size:
        return features(model, j, nodes[:, None])
    a = angle_sum(model, sm, x)
    for g in model.grades[1:j]:
        a = g.activation(a @ g.weight.T + g.bias)
    return a


def raw_component(model, k, points):
    g = model.grades[k]
    return g.pooling.apply(features(model, k, points) @ g.weight.T + g.bias)


def component(model, k, x):
    g = model.grades[k]
    sm = g.smoother
    if sm is None:
        return raw_component(model, k, x)
    _, weights = smoothing.quadrature(sm)
    n, m = x.shape[0], weights.size
    vals = g.pooling.apply(node_features(model, k, sm, x) @ g.weight.T + g.bias).reshape(n, m, -1)
    if not sm.renormalize:
        return np.tensordot(weights, vals.transpose(1, 0, 2), axes=1)
    base = raw_component(model, k, x)
    diff = vals - base[:, None, :]
    return base + np.tensordot(weights, diff.transpose(1, 0, 2), axes=1)
