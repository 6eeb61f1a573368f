"""Reference evaluation of a trained model: the feature recursion replayed from
the inputs for every grade, over all rows at once, and a smoothed component
contracted from the values at every quadrature node.

The model evaluates the recursion in row blocks, only at the distinct nodes,
and carries features from grade to grade; tests require it to match this
reference bit for bit.
"""

import numpy as np

from sal_learn import smoothing


def features(model, j, points):
    a = model.head.hidden(points) if model.head is not None else points
    for g in model.grades[:j]:
        a = g.activation(a @ g.weight.T + g.bias)
    return a


def raw_component(model, k, points):
    g = model.grades[k]
    return g.pooling.apply(features(model, k, points) @ g.weight.T + g.bias)


def component(model, k, x):
    sm = model.grades[k].smoother
    if sm is None:
        return raw_component(model, k, x)
    offsets, weights = smoothing.quadrature(sm)
    n, m = x.shape[0], offsets.size
    nodes = smoothing.quadrature_nodes(sm, x[:, 0])
    vals = raw_component(model, k, nodes[:, None]).reshape(n, m, -1)
    if not sm.renormalize:
        return np.tensordot(weights, vals.transpose(1, 0, 2), axes=1)
    base = raw_component(model, k, x)
    diff = vals - base[:, None, :]
    return base + np.tensordot(weights, diff.transpose(1, 0, 2), axes=1)
