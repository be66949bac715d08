"""Kernels on the direct sum of level spaces.

A kernel is one (sum n_j) x (sum n_j) array of bare values; level j owns the
index range offsets[j-1]:offsets[j], so block (i, j), of shape n_i x n_j and
holding the kernel on level_i x level_j, is a view into that array. Blocks
that vanish hold zeros. The measure is always factored out: composing two
kernels through level j inserts diag(mu_j * v_j) explicitly for whichever
weight function v_j the composition uses, so every operator identity is a
literal matrix statement.

Three families matter here: the rank-N projection-type kernel

    K[i][j](x, y) = sum_a psi_a^(i)(x) phi_a^(j)(y),

the strictly lower triangular transfer kernel g (block (i, j) holds the
composite transfer for i > j and vanishes for i <= j), and the checked
kernel K - g whose Fredholm theory carries all the statistics.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .biortho import (
    DualBases,
    check_conditioning,
    dual_bases,
    dual_masses,
    pairing_matrix,
    walk,
)
from .chain import ChainTables, WeightSet, check_weights
from .errors import ShapeError, StateError


class BlockKernel:
    """Kernel values on the direct sum of the level grids.

    ``matrix`` is the read-only (sum n_j) x (sum n_j) array; ``offsets``
    (derived from the grids) delimit the levels. ``checked`` records whether
    the transfer part has been subtracted; ``rank`` carries N for
    projection-type kernels and is None otherwise. A given array is frozen
    in place, not copied. ``build_K``, ``build_g`` and ``check_kernel`` give
    a zero-argument function instead, and the kernel calls it on the first
    read of ``matrix``. ``source`` is what the kernel was made from: the
    dual bases for ``build_K``'s kernel and for a checked kernel that keeps
    its dualization (see ``check_kernel``), the pair (tables, weights) for
    ``build_g``'s, the two walked factors for ``kernel_via_inverse``'s, and
    None otherwise. No attribute can be added later.
    """

    __slots__ = ("grids", "offsets", "checked", "rank", "source", "_form", "_matrix")

    def __init__(self, matrix, grids, checked: bool, rank: int | None = None,
                 source: DualBases | tuple[ChainTables, WeightSet]
                 | tuple[np.ndarray, np.ndarray] | None = None):
        self.grids = tuple(grids)
        self.offsets = tuple(np.cumsum([0] + [g.size for g in self.grids]).tolist())
        self.checked, self.rank, self.source = checked, rank, source
        self._form = matrix if callable(matrix) else None
        self._matrix = None if callable(matrix) else self._frozen(matrix)

    def _frozen(self, matrix) -> np.ndarray:
        arr = np.asarray(matrix, dtype=float)
        arr.setflags(write=False)
        if arr.shape != (self.offsets[-1],) * 2:
            raise ShapeError(f"kernel matrix has shape {arr.shape}, expected "
                             f"{(self.offsets[-1],) * 2} for the level grids")
        return arr

    @property
    def matrix(self) -> np.ndarray:
        if self._form is not None:
            self._matrix, self._form = self._frozen(self._form()), None
        return self._matrix

    @property
    def m(self) -> int:
        return len(self.grids)

    def block(self, i: int, j: int) -> np.ndarray:
        """Block (i, j) with 1-based level indices, as a read-only view."""
        o = self.offsets
        return self.matrix[o[i - 1]:o[i], o[j - 1]:o[j]]

    def max_abs(self) -> float:
        """max |matrix|, read off its largest and smallest entries: exact, and
        no copy of the matrix is made."""
        matrix = self.matrix
        if matrix.size == 0:
            return 0.0
        # a NaN entry makes both extremes NaN, and max keeps its first argument
        return float(max(matrix.max(), -matrix.min(), 0.0))


def build_K(bases: DualBases) -> BlockKernel:
    """Projection-type kernel from dual bases: block (i, j) = psi_i^T phi_j."""
    def form():
        return np.hstack(bases.psi).T @ np.hstack(bases.phi)
    return BlockKernel(matrix=form, grids=bases.grids, checked=False, rank=bases.N,
                       source=bases)


def _transfers(tables: ChainTables, e: list[np.ndarray], level: int, nodes) -> np.ndarray:
    """Rows ``nodes`` of g_level^T walked up the chain with the masses e: the
    transfers from those level nodes to every node above, the levels stacked."""
    return np.hstack(walk(tables, e, tables.g_values[level - 1].T[nodes], level + 1,
                          upward=True))


def build_g(tables: ChainTables, weights: WeightSet) -> BlockKernel:
    """Strictly lower triangular kernel of composite transfers.

    Block (i, j), i > j, holds the level-j to level-i composite with
    diag(mu (1 - w)) at the intermediate levels; blocks with i <= j are zero.
    Block column j below the diagonal is ``_transfers`` of every level-j
    node, transposed: block(i, j) = g_{i-1} diag(e_{i-1}) block(i - 1, j),
    e = mu (1 - w), starting from the stored transfer table g_j.
    """
    e = dual_masses(tables, weights)

    def form():
        o = np.cumsum([0] + [g.size for g in tables.grids])
        matrix = np.zeros((o[-1], o[-1]))
        for j in range(1, tables.m):
            matrix[o[j]:, o[j - 1]:o[j]] = _transfers(tables, e, j, slice(None)).T
        return matrix
    return BlockKernel(matrix=form, grids=tables.grids, checked=True, rank=None,
                       source=(tables, weights))


def check_kernel(K: BlockKernel, g: BlockKernel) -> BlockKernel:
    """Subtract the transfer part, K - g, marking the result checked.

    When K is ``build_K``'s kernel of dual bases and g is ``build_g``'s of
    the bases' own chain tables (the same object) at weights equal to the
    bases' own, the result keeps the bases as its source: the Fredholm
    quantities are walked from them, and only a read of ``matrix`` forms
    K - g. They refuse a kernel from any other pair.
    """
    if K.checked:
        raise StateError("transfer part already subtracted from this kernel")
    if K.m != g.m:
        raise ShapeError("kernel and transfer block counts differ")
    bases, made = K.source, g.source
    keeps = (isinstance(bases, DualBases) and isinstance(made, tuple)
             and made[0] is bases.tables
             and all(np.array_equal(u, w) for u, w in zip(bases.weight_set.w, made[1].w)))
    return BlockKernel(matrix=lambda: K.matrix - g.matrix, grids=K.grids, checked=True,
                       rank=K.rank, source=bases if keeps else None)


@dataclass(frozen=True)
class Dualization:
    """The dual bases, K and g of one chain against one weight set.

    K and g form their matrices only when read. The checked kernel K - g is
    made anew on each access of ``Kc`` and not stored, so a caller holds its
    matrix only while it needs it.
    """

    bases: DualBases
    K: BlockKernel
    g: BlockKernel

    @property
    def Kc(self) -> BlockKernel:
        return check_kernel(self.K, self.g)


def dualize(tables: ChainTables, weights: WeightSet) -> Dualization:
    """Dualize the chain against ``weights``: one ``dual_bases``; K and g are
    formed on their first read."""
    bases = dual_bases(tables, weights)
    return Dualization(bases=bases, K=build_K(bases), g=build_g(tables, weights))


def _measure_weights(grids, weights: WeightSet) -> np.ndarray:
    """The diagonal of diag(mu_j * w_j) over all levels, as one vector."""
    check_weights(grids, weights)
    return np.concatenate([g.weights * w for g, w in zip(grids, weights.w)])


# entries in one streamed temporary, 256 KB of float64
_CHUNK = 1 << 15


def _worst(values) -> float:
    """The largest of the values, 0 for none; the first NaN among them is
    returned at once."""
    worst = 0.0
    for value in values:
        if value != value:
            return float(value)
        worst = max(worst, value)
    return float(worst)


def _max_abs_diff(a: np.ndarray, b: np.ndarray) -> float:
    """max |a - b| over operands of one shape, taken over row chunks of about
    _CHUNK entries in one reused buffer; 0 for empty operands, NaN if any
    difference is NaN."""
    if a.ndim < 2 or a.size <= _CHUNK:
        diff = np.subtract(a, b)
        return float(np.abs(diff, out=diff).max(initial=0.0))
    step = max(1, _CHUNK // a.shape[1])
    buffer = np.empty((step, a.shape[1]))

    def chunk(start):
        diff = np.subtract(a[start:start + step], b[start:start + step],
                           out=buffer[:min(step, len(a) - start)])
        return np.abs(diff, out=diff).max()
    return _worst(map(chunk, range(0, len(a), step)))


def compose_w(A: BlockKernel, weights: WeightSet, B: BlockKernel) -> BlockKernel:
    """Weighted composition A diag(mu w) B: block (i, k) = sum_j A_ij diag(mu_j w_j) B_jk.

    The sum runs over S = supp(mu w) only; the other inner terms are exact zeros.
    This dense form is the reference for the structured products of ``check``.
    """
    if A.m != B.m or not all(a.size == b.size and np.array_equal(a.nodes, b.nodes)
                             for a, b in zip(A.grids, B.grids)):
        raise ShapeError("composition requires kernels on the same grids")
    col = _measure_weights(A.grids, weights)
    S = np.flatnonzero(col)
    matrix = (A.matrix[:, S] * col[S]) @ B.matrix[S]
    return BlockKernel(matrix=matrix, grids=A.grids, checked=True, rank=None)


def kernel_via_inverse(tables: ChainTables, weights: WeightSet) -> BlockKernel:
    """Projection kernel built without any PLU decomposition or g.

    f walked up the chain and A^{-T} h walked down it give every block as
    K_ij = f_i^T A^{-T} h_j, since the dual bases are (PL)^{-1} f and
    U^{-T} h walked the same way. Serves as an independent construction
    oracle for build_K. The kernel keeps the two walked factors, each
    N x (sum n_j) with the levels stacked, as its ``source``, and forms its
    matrix on the first read.
    """
    A = pairing_matrix(tables, weights)
    check_conditioning(A)
    e = dual_masses(tables, weights)
    left = np.hstack(walk(tables, e, tables.f_values, 1, upward=True))
    right = np.hstack(walk(tables, e, np.linalg.solve(A.T, tables.h_values), tables.m,
                           upward=False))
    return BlockKernel(matrix=lambda: left.T @ right, grids=tables.grids, checked=False,
                       rank=tables.N, source=(left, right))


def factorization_residual(K: BlockKernel, g: BlockKernel, tables: ChainTables,
                           weights: WeightSet) -> float:
    """Worst deviation of the kernel blocks from their transfer factorizations.

    Checks the corner factorization through block (1, m) for all i != 1,
    j != m, and the adjacent-level relations in both directions. Supply a
    plain kernel with zero weights or a weighted kernel with its weights;
    the identities are exact either way, so the return value is pure
    floating-point noise on a consistent instance. The relations are read
    off the stored matrix K, not its factors: psi^(j+1) is defined as the
    walk of psi^(j), so on psi^T phi the adjacent relations would hold to
    the last bit and judge nothing. At each level i they are judged on row
    block i (corner; down, from i - 1) and column block i (up, from i + 1),
    so no (sum n_j)^2 temporary is formed; each difference is judged in
    row chunks.
    """
    e = dual_masses(tables, weights)
    o = K.offsets
    m = K.m
    if m == 1:
        return 0.0
    M = K.matrix

    def corners():
        # block (1, m) carried down its rows by g_i1 diag(e_1), then across its
        # columns by diag(e_m) g_mj; g's zero blocks (1, 1) and (m, m) are skipped
        carried = e[0][:, None] * K.block(1, m)
        across = g.matrix[o[-2]:, :o[-2]]
        for i in range(1, m + 1):
            r = slice(o[i - 1], o[i])
            cols = K.block(1, m) if i == 1 else g.block(i, 1) @ carried
            yield _max_abs_diff(M[r, o[-2]:], cols)
            yield _max_abs_diff(M[r, :o[-2]], (cols * e[-1][None, :]) @ across)

    # the corner relations' temporaries are freed before the adjacent ones,
    # which hold the largest: a level block of M scaled and its product
    worst = list(corners())
    worst += [_max_abs_diff(M[o[i - 1]:o[i]], tables.g_values[i - 2]
                            @ (e[i - 2][:, None] * M[o[i - 2]:o[i - 1]]))
              for i in range(2, m + 1)]
    worst += [_max_abs_diff(M[:, o[i - 1]:o[i]], (M[:, o[i]:o[i + 1]] * e[i][None, :])
                            @ tables.g_values[i - 1])
              for i in range(1, m)]
    return _worst(worst)
