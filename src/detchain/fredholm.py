"""Fredholm determinants, resolvents, densities, and the resolvent identity.

All Fredholm objects live on the direct-sum space: a kernel right-composed
with a weight set w is its (sum n_j) x (sum n_j) matrix with block column j
scaled by diag(mu_j * w_j). Then

    det(1 - Kc o w)            gap probability for indicator w,
    (1 - Kc o w)^{-1} (Kc o w) Fredholm resolvent,

and the central identity states that the resolvent of the checked kernel
equals the checked kernel of the (1 - w)-dualized construction, composed
with w. ``theorem2_residuals`` measures that identity together with the four
composition identities it factors through; on any consistent discretization
every residual is pure rounding noise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .biortho import dual_bases, dual_masses
from .chain import ChainTables, WeightSet, indicator_vector
from .errors import (
    ConditioningError,
    DomainError,
    ResolventSingular,
    ShapeError,
    StateError,
)
from .kernels import (
    BlockKernel,
    _lift_first,
    _lift_last,
    _max_abs_diff,
    _measure_weights,
    build_K,
    build_g,
    check_kernel,
    compose_w,
)

_RESOLVENT_DET_FLOOR = 1e-12


@dataclass(frozen=True)
class BigMatrix:
    """Flattened block kernel, optionally right-composed with diag(mu_j w_j)."""

    matrix: np.ndarray
    offsets: tuple[int, ...]

    def block(self, i: int, j: int) -> np.ndarray:
        o = self.offsets
        return self.matrix[o[i - 1]:o[i], o[j - 1]:o[j]]


def flatten(kernel: BlockKernel, weights: WeightSet | None) -> BigMatrix:
    """The kernel's matrix times diag(mu_j w_j); ``weights=None`` leaves it bare."""
    if weights is None:
        return BigMatrix(matrix=kernel.matrix, offsets=kernel.offsets)
    col = _measure_weights(kernel.grids, weights)
    return BigMatrix(matrix=kernel.matrix * col[None, :], offsets=kernel.offsets)


def _one_minus(M: np.ndarray) -> np.ndarray:
    """1 - M as a new array, formed without an identity operand."""
    out = -M
    out.flat[::out.shape[0] + 1] += 1.0
    return out


def _require_checked(kernel: BlockKernel) -> None:
    if not kernel.checked:
        raise StateError("operation requires a checked kernel (transfer part subtracted)")


def fredholm_det(Kc: BlockKernel, weights: WeightSet) -> float:
    """det(1 - Kc o w) via LU with partial pivoting.

    For indicator weights this is the probability of finding no points in the
    chosen subsets; it may legitimately be <= 0 for weights outside [0, 1]
    and is returned as computed.
    """
    _require_checked(Kc)
    return float(np.linalg.det(_one_minus(flatten(Kc, weights).matrix)))


def _det_and_resolvent(Kc: BlockKernel, weights: WeightSet) -> tuple[float, BlockKernel]:
    """det(1 - Kc o w) and the resolvent kernel, from one assembly of 1 - Kc o w."""
    _require_checked(Kc)
    M = flatten(Kc, weights).matrix
    scale = max(1.0, float(np.max(np.abs(M))))
    one_minus = _one_minus(M)
    det = float(np.linalg.det(one_minus))
    if abs(det) <= _RESOLVENT_DET_FLOOR * scale:
        raise ResolventSingular(
            f"Fredholm determinant {det:.3e} vanishes; no resolvent"
        )
    solved = np.linalg.solve(one_minus, Kc.matrix)
    return det, BlockKernel(matrix=solved, grids=Kc.grids, checked=True, rank=Kc.rank)


def resolvent(Kc: BlockKernel, weights: WeightSet) -> BlockKernel:
    """Kernel-valued Fredholm resolvent blocks of Kc o w.

    Solves (1 - M) X = Kc with M the flattened weighted kernel, which is
    (1 - M)^{-1} M with the right diag(mu w) factor stripped; right-composing
    the result with w reproduces the resolvent operator exactly.
    """
    return _det_and_resolvent(Kc, weights)[1]


def _node_index(kernel: BlockKernel, points) -> np.ndarray:
    """Indices into the kernel's matrix of per-level node lists, checked per grid."""
    if len(points) != kernel.m:
        raise ShapeError(f"need one point list per level, got {len(points)} for {kernel.m}")
    idx = []
    for level, pts in enumerate(points):
        for p in pts:
            p = int(p)
            if not 0 <= p < kernel.grids[level].size:
                raise IndexError(f"node index {p} out of range on level {level + 1}")
            idx.append(kernel.offsets[level] + p)
    return np.array(idx, dtype=int)


def _sample_matrix(kernel: BlockKernel, points) -> np.ndarray:
    """Cross-level sample matrix kernel(x_a^(i), x_b^(j)) over the point lists."""
    idx = _node_index(kernel, points)
    return kernel.matrix[np.ix_(idx, idx)]


def correlation(Kc: BlockKernel, points) -> float:
    """Correlation function: determinant of the sampled checked kernel.

    ``points`` holds, per level, the node indices of the evaluation points
    (at most the kernel rank per level). The empty point set gives 1.
    """
    _require_checked(Kc)
    if Kc.rank is not None:
        for level, pts in enumerate(points):
            if len(pts) > Kc.rank:
                raise ValueError(
                    f"level {level + 1}: {len(pts)} points exceeds rank {Kc.rank}"
                )
    S = _sample_matrix(Kc, points)
    if S.shape[0] == 0:
        return 1.0
    return float(np.linalg.det(S))


def janossy(Kc: BlockKernel, weights: WeightSet, points) -> float:
    """Density of finding exactly the given points inside the indicator sets.

    ``weights`` must be indicator-type (entries 0 or 1) and every point must
    lie where the level's indicator equals 1. The value is the Fredholm
    determinant times the determinant of the sampled resolvent; with no
    points it reduces to the gap probability itself.
    """
    _require_checked(Kc)
    if not weights.is_indicator():
        raise ValueError("Janossy densities are defined for indicator weight sets")
    idx = _node_index(Kc, points)
    for level, pts in enumerate(points):
        for p in pts:
            if weights.w[level][int(p)] != 1.0:
                raise DomainError(
                    f"point {p} on level {level + 1} lies outside the indicator set"
                )
    const, R = _det_and_resolvent(Kc, weights)
    det = 1.0 if idx.size == 0 else float(np.linalg.det(R.matrix[np.ix_(idx, idx)]))
    return const * det


def joint_density(bases, tables: ChainTables, config) -> tuple[float, float]:
    """Joint density of a full configuration, evaluated along both routes.

    Returns ``(product_form, determinant_form)``: the normalized product of
    endpoint and transfer determinants, and the checked-kernel determinant
    normalized by its own exhaustively measured total mass. The two agree on
    any consistent instance; their difference is the working form of the
    equivalence between the two density formulas.
    """
    from . import oracle  # deferred: oracle builds on this module's types

    if not bases.is_plain():
        raise ValueError("joint_density expects the plain (zero-weight) dual bases")
    m, n = tables.m, tables.N
    cfg = [tuple(int(p) for p in level) for level in config]
    if len(cfg) != m or any(len(level) != n for level in cfg):
        raise ShapeError(f"configuration must hold {n} node indices on each of "
                         f"{m} levels")
    enum = oracle.enumerate_configurations(tables, bases=bases)
    value = float(np.linalg.det(bases.psi[0][:, cfg[0]]))
    value *= float(np.linalg.det(bases.phi[m - 1][:, cfg[m - 1]]))
    for j in range(m - 1):
        value *= float(np.linalg.det(tables.g_values[j][np.ix_(cfg[j + 1], cfg[j])]))
    product_form = value / enum.total_mass

    zeros = WeightSet.zeros(tables.grids)
    Kc = check_kernel(build_K(bases), build_g(tables, zeros))
    det_form = float(np.linalg.det(_sample_matrix(Kc, cfg)))
    det_form /= oracle.probnm_total_mass(enum, Kc)
    return product_form, det_form


@dataclass(frozen=True)
class CountDistribution:
    """Probabilities of per-level point counts inside the chosen sets."""

    probabilities: dict[tuple[int, ...], float]
    total: float

    def probability(self, counts) -> float:
        return self.probabilities.get(tuple(int(c) for c in counts), 0.0)


_MAX_COUNT_DEGREE = 8


def gap_generating_function(Kc: BlockKernel, intervals, max_count: int | None = None) -> CountDistribution:
    """Count distribution from determinant evaluations on a coefficient grid.

    With per-level indicators chi_j and scalars kappa_j, the determinant
    det(1 - Kc o (kappa chi)) is, in the variables xi_j = 1 - kappa_j, the
    generating polynomial sum_k P(counts = k) prod_j xi_j^{k_j}. Evaluating
    it on a per-level Chebyshev grid in xi and inverting the Vandermonde
    systems recovers the probabilities. Per-level counts above 8 are refused
    as ill-conditioned.
    """
    _require_checked(Kc)
    m = Kc.m
    if len(intervals) != m:
        raise ShapeError(f"need one interval list per level, got {len(intervals)}")
    rank = Kc.rank if max_count is None else int(max_count)
    if rank is None:
        raise ValueError("max_count is required when the kernel rank is unknown")
    chi = [indicator_vector(g, ivs) for g, ivs in zip(Kc.grids, intervals)]
    degrees = [min(rank, int(round(c.sum()))) for c in chi]
    if any(d > _MAX_COUNT_DEGREE for d in degrees):
        raise ConditioningError(
            f"count extraction beyond {_MAX_COUNT_DEGREE} per level is refused"
        )
    xi_grids = [
        0.5 * (np.cos(np.pi * (2 * np.arange(d + 1) + 1) / (2 * (d + 1))) + 1.0)
        for d in degrees
    ]
    shape = tuple(d + 1 for d in degrees)
    dets = np.empty(shape)
    for idx in np.ndindex(shape):
        ws = WeightSet(tuple(
            (1.0 - xi_grids[j][idx[j]]) * chi[j] for j in range(m)
        ))
        dets[idx] = fredholm_det(Kc, ws)
    coeffs = dets
    for axis in range(m):
        vander = np.vander(xi_grids[axis], increasing=True)
        moved = np.moveaxis(coeffs, axis, 0)
        solved = np.linalg.solve(vander, moved.reshape(shape[axis], -1))
        coeffs = np.moveaxis(solved.reshape(moved.shape), 0, axis)
    probabilities = {
        tuple(int(k) for k in idx): float(coeffs[idx]) for idx in np.ndindex(shape)
    }
    return CountDistribution(probabilities=probabilities, total=float(coeffs.sum()))


@dataclass(frozen=True)
class IdentityResiduals:
    """Max-norm residuals of the resolvent identity and its building blocks.

    ``resolvent``         (1 - Kc^w)^{-1} Kc^w  vs  checked dualized kernel o w
    ``checked_product``   Kc o_w dual-Kc - (dual-Kc - Kc)
    ``transfer_transfer`` g o_w dual-g + dual-g - g
    ``kernel_kernel``     K o_w dual-K vs its endpoint form
    ``transfer_kernel``   g o_w dual-K vs its endpoint form
    ``kernel_transfer``   K o_w dual-g vs its endpoint form

    ``scale`` is max(1, |Kc|_inf, |dual-Kc|_inf); identity-class bounds are
    stated relative to it.
    """

    resolvent: float
    checked_product: float
    transfer_transfer: float
    kernel_kernel: float
    transfer_kernel: float
    kernel_transfer: float
    scale: float

    def as_dict(self) -> dict[str, float]:
        return {
            "resolvent": self.resolvent,
            "checked_product": self.checked_product,
            "transfer_transfer": self.transfer_transfer,
            "kernel_kernel": self.kernel_kernel,
            "transfer_kernel": self.transfer_kernel,
            "kernel_transfer": self.kernel_transfer,
        }

    def max_residual(self) -> float:
        return max(self.as_dict().values())


def _resolvent_residual(kernel: BlockKernel, weights: WeightSet,
                        expected: BlockKernel) -> float:
    """max |(1 - kernel o w)^{-1} (kernel o w) - expected o w|."""
    M = flatten(kernel, weights).matrix
    solved = np.linalg.solve(_one_minus(M), M)
    return _max_abs_diff(solved, flatten(expected, weights).matrix)


def theorem2_residuals(tables: ChainTables, weights: WeightSet) -> IdentityResiduals:
    """Residuals of the resolvent identity and the four composition identities.

    Builds the plain (w = 0) and (1 - w)-dualized kernel families from the
    same tables and transcribes each identity as one matrix statement. All
    six residuals vanish up to rounding on every nonsingular instance, for
    arbitrary real weights.
    """
    zeros = WeightSet.zeros(tables.grids)
    K = build_K(dual_bases(tables, zeros))
    g = build_g(tables, zeros)
    Kt = build_K(dual_bases(tables, weights))
    gt = build_g(tables, weights)
    Kc, Ktc = check_kernel(K, g), check_kernel(Kt, gt)
    scale = max(1.0, Kc.max_abs(), Ktc.max_abs())
    r_resolvent = _resolvent_residual(Kc, weights, Ktc)
    r_checked = _max_abs_diff(compose_w(Kc, weights, Ktc).matrix, Ktc.matrix - Kc.matrix)
    # the checked kernels are done; freeing them keeps check's peak memory down
    del Kc, Ktc

    r_gg = _max_abs_diff(compose_w(g, weights, gt).matrix, g.matrix - gt.matrix)
    # endpoint forms: Kt's level-1 rows carried up by g, K's level-m columns
    # carried across by gt
    left = _lift_first(g, tables.grids[0].weights, Kt.matrix[:K.offsets[1]])
    right = _lift_last(K.matrix[:, K.offsets[-2]:], gt, dual_masses(tables, weights)[-1])
    r_kk = _max_abs_diff(compose_w(K, weights, Kt).matrix, left - right)
    r_gk = _max_abs_diff(compose_w(g, weights, Kt).matrix, left - Kt.matrix)
    r_kg = _max_abs_diff(compose_w(K, weights, gt).matrix, K.matrix - right)

    return IdentityResiduals(
        resolvent=r_resolvent,
        checked_product=r_checked,
        transfer_transfer=r_gg,
        kernel_kernel=r_kk,
        transfer_kernel=r_gk,
        kernel_transfer=r_kg,
        scale=scale,
    )


def g_resolvent_residual(tables: ChainTables, weights: WeightSet) -> float:
    """Residual of: the plain transfer kernel o w is the resolvent of the dualized one.

    Measures (1 - dual-g^w)^{-1} dual-g^w - g^w in max norm; both operators
    are strictly lower block triangular, so the inverse always exists.
    """
    return _resolvent_residual(build_g(tables, weights), weights,
                               build_g(tables, WeightSet.zeros(tables.grids)))
