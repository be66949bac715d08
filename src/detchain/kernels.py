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
    read of ``matrix``; their kernels also keep what they were built from,
    and a checked kernel keeps the chain tables and the dual bases the
    Fredholm quantities are walked from (see ``check_kernel``).
    """

    def __init__(self, matrix, grids, checked: bool, rank: int | None = None):
        self.grids = tuple(grids)
        self.offsets = tuple(np.cumsum([0] + [g.size for g in self.grids]).tolist())
        self.checked, self.rank = checked, rank
        self._tables = self._bases = self._weights = None
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
        return float(np.max(np.abs(self.matrix), initial=0.0))


def build_K(bases: DualBases) -> BlockKernel:
    """Projection-type kernel from dual bases: block (i, j) = psi_i^T phi_j."""
    def form():
        return np.hstack(bases.psi).T @ np.hstack(bases.phi)
    K = BlockKernel(matrix=form, grids=bases.grids, checked=False, rank=bases.N)
    K._bases = bases
    return K


def build_g(tables: ChainTables, weights: WeightSet) -> BlockKernel:
    """Strictly lower triangular kernel of composite transfers.

    Block (i, j), i > j, holds the level-j to level-i composite with
    diag(mu (1 - w)) at the intermediate levels; blocks with i <= j are zero.
    Block column j is g_j^T walked up the chain from level j + 1 and
    transposed back: block(i, j) = g_{i-1} diag(e_{i-1}) block(i - 1, j),
    e = mu (1 - w), starting from the stored transfer table g_j.
    """
    e = dual_masses(tables, weights)

    def form():
        o = np.cumsum([0] + [g.size for g in tables.grids])
        matrix = np.zeros((o[-1], o[-1]))
        for j in range(1, tables.m):
            column = walk(tables, e, tables.g_values[j - 1].T, j + 1, upward=True)
            matrix[o[j]:, o[j - 1]:o[j]] = np.hstack(column).T
        return matrix
    g = BlockKernel(matrix=form, grids=tables.grids, checked=True, rank=None)
    g._tables, g._weights = tables, weights
    return g


def check_kernel(K: BlockKernel, g: BlockKernel) -> BlockKernel:
    """Subtract the transfer part, K - g, marking the result checked.

    When K is ``build_K``'s kernel of dual bases and g is ``build_g``'s of a
    chain at the bases' own weights, the result keeps the chain tables and
    the bases: the Fredholm quantities are walked from them, and only a read
    of ``matrix`` forms K - g. Any other pair gives a kernel without that
    structure, which the Fredholm quantities refuse.
    """
    if K.checked:
        raise StateError("transfer part already subtracted from this kernel")
    if K.m != g.m:
        raise ShapeError("kernel and transfer block counts differ")
    Kc = BlockKernel(matrix=lambda: K.matrix - g.matrix, grids=K.grids, checked=True,
                     rank=K.rank)
    if (K._bases is not None and g._tables is not None and _same_grids(K, g)
            and all(np.array_equal(u, w) for u, w in zip(K._bases.weight_set.w,
                                                          g._weights.w))):
        Kc._tables, Kc._bases = g._tables, K._bases
    return Kc


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


def _same_grids(a: BlockKernel, b: BlockKernel) -> bool:
    if a.m != b.m:
        return False
    return all(
        ga.size == gb.size and np.array_equal(ga.nodes, gb.nodes)
        for ga, gb in zip(a.grids, b.grids)
    )


def _measure_weights(grids, weights: WeightSet) -> np.ndarray:
    """The diagonal of diag(mu_j * w_j) over all levels, as one vector."""
    check_weights(grids, weights)
    return np.concatenate([g.weights * w for g, w in zip(grids, weights.w)])


def _support_columns(kernel: BlockKernel, weights: WeightSet):
    """S = supp(mu w) and the columns on S of kernel o w; all others vanish."""
    col = _measure_weights(kernel.grids, weights)
    S = np.flatnonzero(col)
    return S, kernel.matrix[:, S] * col[S]


def _max_abs_diff(a: np.ndarray, b: np.ndarray) -> float:
    """max |a - b|, with a single temporary; 0 for empty operands."""
    diff = np.subtract(a, b)
    return float(np.max(np.abs(diff, out=diff), initial=0.0))


def compose_w(A: BlockKernel, weights: WeightSet, B: BlockKernel) -> BlockKernel:
    """Weighted composition A diag(mu w) B: block (i, k) = sum_j A_ij diag(mu_j w_j) B_jk.

    The sum runs over S = supp(mu w) only; the other inner terms are exact zeros.
    This dense form is the reference for the structured products of ``check``.
    """
    if not _same_grids(A, B):
        raise ShapeError("composition requires kernels on the same grids")
    S, AS = _support_columns(A, weights)
    matrix = AS @ B.matrix[S]
    return BlockKernel(matrix=matrix, grids=A.grids, checked=True, rank=None)


def kernel_via_inverse(tables: ChainTables, weights: WeightSet) -> BlockKernel:
    """Projection kernel built without any PLU decomposition or g.

    f walked up the chain and A^{-T} h walked down it give every block as
    K_ij = f_i^T A^{-T} h_j, since the dual bases are (PL)^{-1} f and
    U^{-T} h walked the same way. Serves as an independent construction
    oracle for build_K.
    """
    A = pairing_matrix(tables, weights)
    check_conditioning(A)
    e = dual_masses(tables, weights)
    left = walk(tables, e, tables.f_values, 1, upward=True)
    right = walk(tables, e, np.linalg.solve(A.T, tables.h_values), tables.m, upward=False)
    return BlockKernel(matrix=np.hstack(left).T @ np.hstack(right), grids=tables.grids,
                       checked=False, rank=tables.N)


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
    the last bit and judge nothing.
    """
    e = dual_masses(tables, weights)
    o = K.offsets
    m = K.m
    if m == 1:
        return 0.0
    M = K.matrix
    # block (1, m) carried to every level through g's composite blocks: down
    # its rows by g_i1 diag(e_1), then across its columns by diag(e_m) g_mj;
    # g's zero blocks (1, 1) and (m, m) are skipped
    cols = np.empty((o[-1], o[-1] - o[-2]))
    cols[:o[1]] = K.block(1, m)
    cols[o[1]:] = g.matrix[o[1]:, :o[1]] @ (e[0][:, None] * K.block(1, m))
    corner = np.empty_like(M)
    corner[:, :o[-2]] = (cols * e[-1][None, :]) @ g.matrix[o[-2]:, :o[-2]]
    corner[:, o[-2]:] = cols
    # freed before the products below: alive, it slows their allocations by
    # about a tenth of this function's time at n = 256, m = 3
    del cols
    down = np.vstack([tables.g_values[j] @ (e[j][:, None] * M[o[j]:o[j + 1]])
                      for j in range(m - 1)])
    up = np.hstack([(M[:, o[j + 1]:o[j + 2]] * e[j + 1][None, :]) @ tables.g_values[j]
                    for j in range(m - 1)])
    return max(_max_abs_diff(M, corner), _max_abs_diff(M[o[1]:], down),
               _max_abs_diff(M[:, :o[-2]], up))
