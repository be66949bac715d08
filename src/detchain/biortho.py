"""Weighted biorthogonalization of chain bases.

The pairing matrix pairs the endpoint bases through the whole chain with a
(1 - w_j) dmu_j factor at every level:

    A^w[a, b] = sum over all levels of
                f_a . E_1 . G_1^T . E_2 ... G_{m-1}^T . E_m . h_b,
    E_j = diag(mu_j * (1 - w_j)).

A PLU decomposition of A^w, normalized so |diag L| = |diag U| (the sign of
each pivot necessarily lands on exactly one factor), turns f and h into dual
bases psi_a, phi_a: psi on level 1 is (PL)^{-1} f, phi on level m is U^{-T} h,
and both propagate through the weighted transfer chain so that on every level

    sum_i mu_j[i] (1 - w_j[i]) psi_a(x_i) phi_b(x_i) = delta_ab.

Setting w = 0 everywhere recovers the plain dualization; indicator w
restricts every pairing to the complement of the chosen subsets.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .chain import ChainTables, WeightSet, check_weights
from .errors import CompositionInconsistency, ShapeError, SingularPairing
from .measure import Grid, frozen_array

# condition number above which the pairing is treated as singular
CONDITION_LIMIT = 1e12

_DUAL_EXPRESSION_RTOL = 1e-11
# biorthogonality residual beyond which construction refuses outright
_ASSEMBLY_NET = 1e-8


def dual_masses(tables: ChainTables, weights: WeightSet) -> list[np.ndarray]:
    """Per level, the vector mu_j * (1 - w_j) every dual pairing integrates against."""
    check_weights(tables.grids, weights)
    return [g.weights * (1.0 - w) for g, w in zip(tables.grids, weights.w)]


def walk(tables: ChainTables, e: list[np.ndarray], rows: np.ndarray, level: int,
         upward: bool) -> list[np.ndarray]:
    """Carry a k x n_level block of rows through the transfer chain.

    Each step up, to level j + 1, is (x * e_j) @ g_j^T; each step down, to
    level j, is (x * e_{j+1}) @ g_j, with g_j the level-j to level-(j + 1)
    transfer table and e_j the level-j masses. Returns the rows on levels
    ``level``..m (upward) or 1..``level`` (downward), in level order.
    """
    out = [rows]
    if upward:
        for j in range(level, tables.m):
            out.append((out[-1] * e[j - 1]) @ tables.g_values[j - 1].T)
        return out
    for j in range(level - 1, 0, -1):
        out.append((out[-1] * e[j]) @ tables.g_values[j - 1])
    return out[::-1]


def pairing_expressions(tables: ChainTables, weights: WeightSet) -> tuple[np.ndarray, np.ndarray]:
    """The pairing matrix evaluated two independent ways.

    The first entry walks h down the chain and pairs with f on level 1; the
    second walks f up and pairs with h on level m. Both equal A^w exactly;
    their floating-point difference measures the consistency of the
    tabulated chain.
    """
    e = dual_masses(tables, weights)
    m = tables.m
    back = walk(tables, e, tables.h_values, m, upward=False)[0]
    fwd = walk(tables, e, tables.f_values, 1, upward=True)[-1]
    return tables.f_values @ (back * e[0]).T, (fwd * e[m - 1]) @ tables.h_values.T


def _judged_pairing(tables: ChainTables, weights: WeightSet) -> tuple[np.ndarray, float]:
    """A^w and max|a1 - am|, the gap between its two expressions; a gap above
    1e-11 of their largest entry raises CompositionInconsistency."""
    a1, am = pairing_expressions(tables, weights)
    scale = max(np.max(np.abs(a1)), np.max(np.abs(am)), np.finfo(float).tiny)
    diff, bound = np.max(np.abs(a1 - am)), _DUAL_EXPRESSION_RTOL * scale
    if diff > bound:
        raise CompositionInconsistency(
            f"level-1 and level-m evaluations of the pairing matrix disagree by "
            f"{diff:.3e} > {bound:.3e} (1e-11 of their largest entry); the tabulated "
            "chain is inconsistent"
        )
    return a1, float(diff)


def pairing_matrix(tables: ChainTables, weights: WeightSet) -> np.ndarray:
    """Weighted pairing matrix A^w, refused as ``_judged_pairing`` refuses it."""
    return _judged_pairing(tables, weights)[0]


@dataclass(frozen=True)
class PairingDecomposition:
    """PLU factorization A = P L U with matching |diagonal| on L and U.

    ``permutation`` holds P as an index sequence: row permutation[i] of A is
    row i of L @ U. ``sign_convention`` records the sign given to each
    diagonal entry of L (U's diagonal is kept positive), one of the 2^N
    equivalent choices.
    """

    A: np.ndarray
    permutation: np.ndarray
    L: np.ndarray
    U: np.ndarray
    sign_convention: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "A", frozen_array(self.A))
        object.__setattr__(self, "permutation", frozen_array(self.permutation, dtype=int))
        object.__setattr__(self, "L", frozen_array(self.L))
        object.__setattr__(self, "U", frozen_array(self.U))
        scale = max(1.0, np.max(np.abs(self.A)))
        rec = np.empty_like(self.A)
        rec[self.permutation] = self.L @ self.U
        if np.max(np.abs(rec - self.A)) > 1e-12 * scale:
            raise ValueError("P L U does not reconstruct A")
        dl, du = np.abs(np.diag(self.L)), np.abs(np.diag(self.U))
        if np.max(np.abs(dl - du)) > 1e-13 * max(1.0, np.max(du)):
            raise ValueError("|diag L| and |diag U| do not match")


def check_conditioning(A: np.ndarray) -> None:
    """Raise SingularPairing unless cond(A) is finite and below CONDITION_LIMIT."""
    cond = np.linalg.cond(A)
    if not np.isfinite(cond) or cond >= CONDITION_LIMIT:
        raise SingularPairing(
            f"pairing matrix is numerically singular (condition {cond:.3e})"
        )


def plu_decompose(A: np.ndarray) -> PairingDecomposition:
    """PLU decomposition with partial pivoting and equal-|diagonal| scaling.

    Doolittle elimination produces unit-lower L0 and U0; with d = diag(U0)
    the returned factors are L = L0 * diag(sign(d) sqrt|d|) and
    U = diag(sign(d) / sqrt|d|) * U0, so L_ii = sign(d_i) sqrt|d_i| and
    U_ii = sqrt|d_i| > 0.

    Raises SingularPairing when A is singular or its condition number
    exceeds 1e12.
    """
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ShapeError("pairing matrix must be square")
    if not np.all(np.isfinite(A)):
        raise SingularPairing("pairing matrix has non-finite entries")
    check_conditioning(A)
    n = A.shape[0]
    upper = A.copy()
    lower = np.eye(n)
    perm = np.arange(n)
    for col in range(n - 1):
        pivot = col + int(np.argmax(np.abs(upper[col:, col])))
        if pivot != col:
            upper[[col, pivot]] = upper[[pivot, col]]
            perm[[col, pivot]] = perm[[pivot, col]]
            lower[[col, pivot], :col] = lower[[pivot, col], :col]
        factors = upper[col + 1:, col] / upper[col, col]
        lower[col + 1:, col] = factors
        upper[col + 1:, col:] -= factors[:, None] * upper[col, col:]
        upper[col + 1:, col] = 0.0
    d = np.diag(upper).copy()
    if np.any(d == 0.0):
        raise SingularPairing("zero pivot in the PLU decomposition")
    signs = np.where(d >= 0, 1.0, -1.0)
    root = np.sqrt(np.abs(d))
    L = lower * (signs * root)[None, :]
    U = (signs / root)[:, None] * upper
    return PairingDecomposition(
        A=A,
        permutation=perm,
        L=L,
        U=U,
        sign_convention=tuple(int(s) for s in signs),
    )


@dataclass(frozen=True)
class DualBases:
    """Dual basis values on every level grid.

    ``psi[j]`` and ``phi[j]`` are N x n_{j+1} in 0-based storage; row a of
    ``psi[j]`` holds psi_a at the level-(j+1) nodes. The level-j pairing of
    psi_a against phi_b with the (1 - w_j) dmu_j measure is delta_ab;
    ``biorthogonality_residual`` stores the worst deviation actually measured,
    ``expression_gap`` the max|a1 - am| of the pairing matrix's two expressions.
    """

    psi: tuple[np.ndarray, ...]
    phi: tuple[np.ndarray, ...]
    decomposition: PairingDecomposition
    weight_set: WeightSet
    grids: tuple[Grid, ...]
    biorthogonality_residual: float
    expression_gap: float

    def __post_init__(self):
        object.__setattr__(self, "psi", tuple(frozen_array(p) for p in self.psi))
        object.__setattr__(self, "phi", tuple(frozen_array(p) for p in self.phi))
        object.__setattr__(self, "grids", tuple(self.grids))

    @property
    def N(self) -> int:
        return int(self.psi[0].shape[0])

    def is_plain(self) -> bool:
        return all(np.all(w == 0.0) for w in self.weight_set.w)


def dual_bases(tables: ChainTables, weights: WeightSet) -> DualBases:
    """Build the dual bases psi, phi for the given weights.

    psi on level 1 is (PL)^{-1} f, phi on level m is U^{-T} h; ``walk``
    carries psi up and phi down the chain, with the diag(mu (1 - w)) factor
    of the source level inserted. The biorthogonality residual is verified
    on every level (enforced at 1e-10 while the pairing matrix has condition
    number at most 1e8).
    """
    A, gap = _judged_pairing(tables, weights)
    dec = plu_decompose(A)
    e = dual_masses(tables, weights)
    psi = walk(tables, e, np.linalg.solve(dec.L, tables.f_values[dec.permutation]), 1,
               upward=True)
    phi = walk(tables, e, np.linalg.solve(dec.U.T, tables.h_values), tables.m,
               upward=False)
    eye = np.eye(tables.N)
    residual = 0.0
    for level in range(tables.m):
        gram = (psi[level] * e[level]) @ phi[level].T
        residual = max(residual, float(np.max(np.abs(gram - eye))))
    # residual tracks cond(A) times the chain amplification; anything beyond
    # this net is an assembly bug, not rounding
    if residual > _ASSEMBLY_NET:
        raise CompositionInconsistency(
            f"biorthogonality residual {residual:.3e} exceeds the {_ASSEMBLY_NET:.0e} "
            "net; the assembly is broken"
        )
    return DualBases(
        psi=tuple(psi),
        phi=tuple(phi),
        decomposition=dec,
        weight_set=weights,
        grids=tables.grids,
        biorthogonality_residual=residual,
        expression_gap=gap,
    )
