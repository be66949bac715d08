"""Fredholm determinants, resolvents, densities, and the resolvent identity.

All Fredholm objects live on the direct-sum space: a kernel right-composed
with a weight set w is its (sum n_j) x (sum n_j) matrix M with block column j
scaled by diag(mu_j * w_j). Every column of M outside S = supp(mu w)
vanishes, so with M_SS its S x S block the gap probability (for indicator
w) and the Fredholm resolvent kernel are

    det(1 - Kc o w) = det(1 - M_SS),
    (1 - M)^{-1} Kc = Kc + M[:, S] (1 - M_SS)^{-1} Kc[S, :],

and the central identity states that the resolvent of the checked kernel
equals the checked kernel of the (1 - w)-dualized construction, composed
with w. ``theorem2_residuals`` measures that identity together with the four
composition identities it factors through, with 1 - M factored in full as
the reference; on any consistent discretization every residual is pure
rounding noise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .biortho import dual_bases, dual_masses
from .chain import ChainTables, WeightSet, indicator_vector
from .errors import DomainError, ResolventSingular, ShapeError, StateError
from .kernels import (
    BlockKernel,
    _lift_first,
    _lift_last,
    _max_abs_diff,
    _measure_weights,
    _support_columns,
    build_K,
    build_g,
    check_kernel,
    compose_w,
)

_RESOLVENT_DET_FLOOR = 1e-12


def _one_minus(M: np.ndarray) -> np.ndarray:
    """1 - M as a new array, formed without an identity operand."""
    out = -M
    out.flat[::out.shape[0] + 1] += 1.0
    return out


def _require_checked(kernel: BlockKernel) -> None:
    if not kernel.checked:
        raise StateError("operation requires a checked kernel (transfer part subtracted)")


def _on_support(Kc: BlockKernel, weights: WeightSet):
    """S = supp(mu w), M[:, S] and 1 - M[S, S] for M the matrix of Kc o w."""
    _require_checked(Kc)
    S, MS = _support_columns(Kc, weights)
    return S, MS, _one_minus(MS[S])


def fredholm_det(Kc: BlockKernel, weights: WeightSet) -> float:
    """det(1 - Kc o w) = det(1 - M_SS) via LU with partial pivoting.

    For indicator weights this is the probability of finding no points in the
    chosen subsets; it may legitimately be <= 0 for weights outside [0, 1]
    and is returned as computed.
    """
    return float(np.linalg.det(_on_support(Kc, weights)[2]))


def _sampled_resolvent(Kc: BlockKernel, weights: WeightSet,
                       idx: np.ndarray) -> tuple[float, np.ndarray]:
    """det(1 - Kc o w) and the resolvent kernel on the matrix indices ``idx``.

    Refuses a determinant below 1e-12 max(1, max|M|) as vanishing.
    """
    S, MS, one_minus = _on_support(Kc, weights)
    scale = max(1.0, float(np.max(np.abs(MS), initial=0.0)))
    det = float(np.linalg.det(one_minus))
    if abs(det) <= _RESOLVENT_DET_FLOOR * scale:
        raise ResolventSingular(
            f"Fredholm determinant {det:.3e} vanishes; no resolvent"
        )
    solved = np.linalg.solve(one_minus, Kc.matrix[np.ix_(S, idx)])
    return det, Kc.matrix[np.ix_(idx, idx)] + MS[idx] @ solved


def resolvent(Kc: BlockKernel, weights: WeightSet) -> BlockKernel:
    """Kernel-valued Fredholm resolvent blocks of Kc o w.

    Returns X = (1 - M)^{-1} Kc with M the weighted kernel matrix, which is
    (1 - M)^{-1} M with the right diag(mu w) factor stripped; right-composing
    the result with w reproduces the resolvent operator exactly. X is formed
    on the support S of mu w as Kc + M[:, S] (1 - M_SS)^{-1} Kc[S, :].
    """
    matrix = _sampled_resolvent(Kc, weights, np.arange(Kc.offsets[-1]))[1]
    return BlockKernel(matrix=matrix, grids=Kc.grids, checked=True, rank=Kc.rank)


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
    const, R = _sampled_resolvent(Kc, weights, idx)
    return const * float(np.linalg.det(R))


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


def gap_generating_function(Kc: BlockKernel, intervals, max_count: int | None = None) -> CountDistribution:
    """Count distribution by a discrete Fourier transform of its generating function.

    With per-level indicators chi_j, det(1 - Kc o ((1 - xi_j) chi_j)) is the
    generating polynomial sum_k P(counts = k) prod_j xi_j^{k_j}. Its degree
    in xi_j is at most d_j = min(N, |S_j|), with S_j the level-j nodes inside
    the intervals (|S_j| alone when the rank N is unknown). Evaluating
    det(1 - M_SS diag(1 - xi)) with each xi_j at the (d_j + 1)-th roots of
    unity and applying the inverse DFT recovers the probabilities; of each
    conjugate pair of root tuples only one needs a determinant.
    ``max_count`` raises d_j up to |S_j|; a value below min(N, |S_j|) would
    alias the distribution and is refused.
    """
    m = Kc.m
    if len(intervals) != m:
        raise ShapeError(f"need one interval list per level, got {len(intervals)}")
    chi = [indicator_vector(g, ivs) for g, ivs in zip(Kc.grids, intervals)]
    S, MS, _ = _on_support(Kc, WeightSet(tuple(chi)))
    sizes = [int(c.sum()) for c in chi]
    degrees = sizes if Kc.rank is None else [min(Kc.rank, s) for s in sizes]
    if max_count is not None:
        for level, d in enumerate(degrees, start=1):
            if max_count < d:
                raise ValueError(f"max_count {max_count} is below {d}, the largest "
                                 f"count that can occur on level {level}")
        degrees = [min(int(max_count), s) for s in sizes]
    shape = tuple(d + 1 for d in degrees)
    MSS = MS[S]
    coeffs = np.empty(shape, dtype=complex)
    for idx in np.ndindex(shape):
        # the polynomial has real coefficients: its value at the conjugate
        # tuple -k, met earlier in this order, is the conjugate
        mirror = tuple(-k % n for k, n in zip(idx, shape))
        if mirror < idx:
            coeffs[idx] = np.conj(coeffs[mirror])
            continue
        kappa = [1.0 - np.exp(2j * np.pi * k / n) for k, n in zip(idx, shape)]
        coeffs[idx] = np.linalg.det(_one_minus(MSS * np.repeat(kappa, sizes)))
    # inverse DFT axis by axis, as a product with the (d_j + 1)-square DFT
    # matrix: the lengths are small, and loading numpy.fft for them would
    # add about half a megabyte of resident memory to every process
    for axis, n in enumerate(shape):
        inverse = np.exp(-2j * np.pi * np.outer(np.arange(n), np.arange(n)) / n) / n
        coeffs = np.moveaxis(np.tensordot(inverse, coeffs, axes=(1, axis)), 0, axis)
    coeffs = coeffs.real
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
    """max |(1 - kernel o w)^{-1} (kernel o w) - expected o w|.

    1 - M is factored in full as the reference; the right-hand sides are the
    columns on S = supp(mu w), since the others vanish on both sides.
    """
    one_minus = _one_minus(kernel.matrix * _measure_weights(kernel.grids, weights))
    solved = np.linalg.solve(one_minus, _support_columns(kernel, weights)[1])
    return _max_abs_diff(solved, _support_columns(expected, weights)[1])


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
