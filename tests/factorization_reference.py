"""The stored-block form of ``kernels.factorization_residual``, for the tests.

``stored_factorization_residual`` judges the same corner, down and up
relations, but carries each one on the stored matrix K alone: block (1, m)
through ``g.block(i, 1)`` and g's row block m, row block i - 1 down to row
block i and column block i + 1 up to column block i, each with a dense
product over a level's nodes. It needs no dual bases, and it costs
O(n (sum n_j)^2) against the library's O(N (sum n_j)^2).
"""

from detchain.biortho import dual_masses
from detchain.kernels import _max_abs_diff, _worst


def stored_factorization_residual(K, g, tables, weights) -> float:
    """Worst deviation of the stored kernel blocks from the transfer
    factorizations of each other."""
    e = dual_masses(tables, weights)
    o = K.offsets
    m = K.m
    if m == 1:
        return 0.0
    M = K.matrix

    def corners():
        carried = e[0][:, None] * K.block(1, m)
        across = g.matrix[o[-2]:, :o[-2]]
        for i in range(1, m + 1):
            r = slice(o[i - 1], o[i])
            cols = K.block(1, m) if i == 1 else g.block(i, 1) @ carried
            yield _max_abs_diff(M[r, o[-2]:], cols)
            yield _max_abs_diff(M[r, :o[-2]], (cols * e[-1][None, :]) @ across)

    worst = list(corners())
    worst += [_max_abs_diff(M[o[i - 1]:o[i]], tables.g_values[i - 2]
                            @ (e[i - 2][:, None] * M[o[i - 2]:o[i - 1]]))
              for i in range(2, m + 1)]
    worst += [_max_abs_diff(M[:, o[i - 1]:o[i]], (M[:, o[i]:o[i + 1]] * e[i][None, :])
                            @ tables.g_values[i - 1])
              for i in range(1, m)]
    return _worst(worst)
