"""A 50-digit reference for the resolvent, for the tests.

``exact_resolvent`` reads the float64 chain tables as exact numbers, builds
the checked kernel dualized at weights u from them in 50-digit arithmetic,
as ``kernel_via_inverse`` builds K (f walked up, A^{-T} h walked down) less
the composite transfers of ``build_g``, and takes (1 - M)^{-1} Kc with M
= Kc diag(mu w). What it returns differs from the resolvent of those tables
only by the final rounding to float64, so the library's error is measured
against the truth rather than against another float64 route.
"""

import mpmath
import numpy as np

DIGITS = 50


def _exact(values) -> np.ndarray:
    """A float64 array as an object array of the same numbers in mpmath."""
    return np.vectorize(mpmath.mpf, otypes=[object])(np.asarray(values, dtype=float))


def _inverse(matrix: np.ndarray) -> np.ndarray:
    return np.array(mpmath.inverse(mpmath.matrix(matrix.tolist())).tolist(), dtype=object)


def exact_resolvent(tables, u, w) -> np.ndarray:
    """(1 - M)^{-1} Kc to 50 digits, rounded to float64, with Kc the checked
    kernel of ``tables`` dualized at the weight set ``u`` and M = Kc diag(mu w)."""
    m = tables.m
    o = np.cumsum([0] + [g.size for g in tables.grids])
    with mpmath.workdps(DIGITS):
        mu = [_exact(grid.weights) for grid in tables.grids]
        e = [x * (1 - _exact(v)) for x, v in zip(mu, u.w)]
        g = [_exact(t) for t in tables.g_values]
        up, down = [_exact(tables.f_values)], [_exact(tables.h_values)]
        for j in range(m - 1):
            up.append((up[-1] * e[j]) @ g[j].T)
            down.insert(0, (down[0] * e[m - 1 - j]) @ g[m - 2 - j])
        A = (up[-1] * e[-1]) @ down[-1].T
        Kc = np.hstack(up).T @ (_inverse(A.T) @ np.hstack(down))
        # less block (i, j), i > j, of g: g_j carried up with the masses e
        for j in range(1, m):
            block = g[j - 1]
            for i in range(j + 1, m + 1):
                Kc[o[i - 1]:o[i], o[j - 1]:o[j]] -= block
                if i < m:
                    block = g[i - 1] @ (e[i - 1][:, None] * block)
        col = np.concatenate([x * _exact(v) for x, v in zip(mu, w.w)])
        one_minus = -(Kc * col)
        one_minus.flat[::o[-1] + 1] += 1
        return np.array(_inverse(one_minus) @ Kc, dtype=float)
