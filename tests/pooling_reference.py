"""Reference pooling, built independently of the model's Pooling.

The induced matrix P comes from the sliding-window definition applied to
the identity (row i is the mean of rows i..i+mu of I), and apply and
adjoint are the products x @ P^T and y @ P over every leading row at once,
for every width with mu >= 1.  With mu = 0, P is the identity, and both
return their input exactly.  The model computes the same products, so tests
require bit-for-bit equality; test_model.py also checks P's products
against the window sums themselves to a tolerance.
"""

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view


def matrix(pool):
    eye = np.eye(pool.in_dim)
    return np.ascontiguousarray(sliding_window_view(eye, pool.mu + 1, axis=0).mean(axis=-1))


def _rows(a, mat):
    return (a.reshape(-1, a.shape[-1]) @ mat).reshape(a.shape[:-1] + (mat.shape[1],))


def apply(pool, x):
    x = np.array(x, dtype=float)
    return x if pool.mu == 0 else _rows(x, matrix(pool).T)


def adjoint(pool, y):
    y = np.array(y, dtype=float)
    return y if pool.mu == 0 else _rows(y, matrix(pool))
