"""Reference pooling: every sliding window of the (zero-padded) input summed
in full.

The model's apply and adjoint replay this reduction's summation order with
whole-slice adds, and the adjoint sums only the window columns whose bits can
differ and copies the rest; tests require both to match this reference bit
for bit.
"""

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view


def apply(pool, x):
    x = np.asarray(x, dtype=float)
    if pool.mu == 0:
        return x.copy()
    return sliding_window_view(x, pool.mu + 1, axis=-1).mean(axis=-1)


def adjoint(pool, y):
    y = np.asarray(y, dtype=float)
    if pool.mu == 0:
        return y.copy()
    pad = np.zeros(y.shape[:-1] + (pool.mu,))
    z = np.concatenate([pad, y, pad], axis=-1)
    return sliding_window_view(z, pool.mu + 1, axis=-1).sum(axis=-1) / (pool.mu + 1)
