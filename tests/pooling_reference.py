"""Reference pooling, built independently of the model's Pooling.

For more than one output the induced matrix P comes from the sliding-window
definition applied to the identity (row i is the mean of rows i..i+mu of
I), and apply and adjoint are the products x @ P^T and y @ P over every
leading row at once.  The model computes the same products, so tests
require bit-for-bit equality; test_model.py also checks P's products
against the window sums themselves to a tolerance.

With one output every window is the whole last axis: apply is its mean and
the adjoint reduces every zero-padded window in full, which tests require
the model's closed forms to match bit for bit.
"""

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view


def matrix(pool):
    eye = np.eye(pool.in_dim)
    return np.ascontiguousarray(sliding_window_view(eye, pool.mu + 1, axis=0).mean(axis=-1))


def _rows(a, mat):
    return (a.reshape(-1, a.shape[-1]) @ mat).reshape(a.shape[:-1] + (mat.shape[1],))


def apply(pool, x):
    x = np.asarray(x, dtype=float)
    if pool.mu == 0:
        return x.copy()
    if pool.out_dim == 1:
        return sliding_window_view(x, pool.mu + 1, axis=-1).mean(axis=-1)
    return _rows(x, matrix(pool).T)


def adjoint(pool, y):
    y = np.asarray(y, dtype=float)
    if pool.mu == 0:
        return y.copy()
    if pool.out_dim == 1:
        pad = np.zeros(y.shape[:-1] + (pool.mu,))
        z = np.concatenate([pad, y, pad], axis=-1)
        return sliding_window_view(z, pool.mu + 1, axis=-1).sum(axis=-1) / (pool.mu + 1)
    return _rows(y, matrix(pool))
