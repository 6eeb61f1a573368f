"""Reference evaluation of a trained model: the feature recursion replayed from
the inputs for every grade, over all rows at once.

The model evaluates the recursion in row blocks and carries features from
grade to grade; tests require it to match this reference bit for bit.
"""

from sal_learn import smoothing


def raw_component(model, k, points):
    a = model.head.hidden(points) if model.head is not None else points
    for g in model.grades[:k]:
        a = g.activation(a @ g.weight.T + g.bias)
    g = model.grades[k]
    return g.pooling.apply(a @ g.weight.T + g.bias)


def component(model, k, x):
    sm = model.grades[k].smoother
    if sm is None:
        return raw_component(model, k, x)
    return smoothing.smooth_fn_grid(lambda p: raw_component(model, k, p[:, None]), sm, x[:, 0])

