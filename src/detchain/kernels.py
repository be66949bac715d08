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

from dataclasses import dataclass, field

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
from .measure import Grid


@dataclass(frozen=True)
class BlockKernel:
    """Kernel values on the direct sum of the level grids.

    ``matrix`` is the read-only (sum n_j) x (sum n_j) array; ``offsets``
    (derived from the grids) delimit the levels. ``checked`` records whether
    the transfer part has been subtracted; ``rank`` carries N for
    projection-type kernels and is None otherwise. ``factors`` holds the
    N x (sum n_j) rows (Psi, Phi) with K = Psi^T Phi, and ``transfer`` the
    matrix of the strictly block-lower g a checked kernel Psi^T Phi - g
    subtracted; both are None for a kernel of unknown structure. The arrays
    are frozen in place, not copied: every constructor passes arrays it has
    just built or that another kernel holds.
    """

    matrix: np.ndarray
    grids: tuple[Grid, ...]
    checked: bool
    rank: int | None = None
    factors: tuple[np.ndarray, np.ndarray] | None = None
    transfer: np.ndarray | None = None
    offsets: tuple[int, ...] = field(init=False)

    def __post_init__(self):
        grids = tuple(self.grids)
        object.__setattr__(self, "grids", grids)
        offsets = tuple(np.cumsum([0] + [g.size for g in grids]).tolist())
        object.__setattr__(self, "offsets", offsets)
        arr = np.asarray(self.matrix, dtype=float)
        arr.setflags(write=False)
        if arr.shape != (offsets[-1], offsets[-1]):
            raise ShapeError(f"kernel matrix has shape {arr.shape}, expected "
                             f"{(offsets[-1], offsets[-1])} for the level grids")
        object.__setattr__(self, "matrix", arr)
        for part in (*(self.factors or ()), self.transfer):
            if part is not None:
                part.setflags(write=False)

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
    """Projection-type kernel from dual bases: block (i, j) = psi_i^T phi_j.

    The stacked rows (Psi, Phi) ride along as the kernel's ``factors``.
    """
    psi, phi = np.hstack(bases.psi), np.hstack(bases.phi)
    return BlockKernel(matrix=psi.T @ phi, grids=bases.grids, checked=False, rank=bases.N,
                       factors=(psi, phi))


def build_g(tables: ChainTables, weights: WeightSet) -> BlockKernel:
    """Strictly lower triangular kernel of composite transfers.

    Block (i, j), i > j, holds the level-j to level-i composite with
    diag(mu (1 - w)) at the intermediate levels; blocks with i <= j are zero.
    Block column j is g_j^T walked up the chain from level j + 1 and
    transposed back: block(i, j) = g_{i-1} diag(e_{i-1}) block(i - 1, j),
    e = mu (1 - w), starting from the stored transfer table g_j.
    """
    e = dual_masses(tables, weights)
    o = np.cumsum([0] + [g.size for g in tables.grids])
    matrix = np.zeros((o[-1], o[-1]))
    for j in range(1, tables.m):
        column = walk(tables, e, tables.g_values[j - 1].T, j + 1, upward=True)
        matrix[o[j]:, o[j - 1]:o[j]] = np.hstack(column).T
    return BlockKernel(matrix=matrix, grids=tables.grids, checked=True, rank=None)


def check_kernel(K: BlockKernel, g: BlockKernel) -> BlockKernel:
    """Subtract the transfer part, K - g, marking the result checked.

    The result keeps K's factors and refers to g's matrix as its
    ``transfer`` when g is strictly block-lower, as ``build_g``'s is; with
    any other g it carries no structure.
    """
    if K.checked:
        raise StateError("transfer part already subtracted from this kernel")
    if K.m != g.m:
        raise ShapeError("kernel and transfer block counts differ")
    o = g.offsets
    lower = K.factors is not None and not any(
        g.matrix[o[i]:o[i + 1], o[i]:].any() for i in range(g.m))
    return BlockKernel(matrix=K.matrix - g.matrix, grids=K.grids, checked=True,
                       rank=K.rank, factors=K.factors if lower else None,
                       transfer=g.matrix if lower else None)


@dataclass(frozen=True)
class Dualization:
    """The dual bases, K and g of one chain against one weight set.

    The checked kernel K - g is formed anew on each access of ``Kc`` and not
    stored, so a caller holds it only while it needs it.
    """

    bases: DualBases
    K: BlockKernel
    g: BlockKernel

    @property
    def Kc(self) -> BlockKernel:
        return check_kernel(self.K, self.g)


def dualize(tables: ChainTables, weights: WeightSet) -> Dualization:
    """Dualize the chain against ``weights``, building each part once."""
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
