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

from .biortho import dual_masses, walk
from .chain import ChainTables, WeightSet, indicators, point_lists
from .errors import ResolventSingular, StateError
from .kernels import (
    BlockKernel,
    Dualization,
    _max_abs_diff,
    _measure_weights,
    _support_columns,
    build_g,
    compose_w,
    dualize,
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
    floor = _RESOLVENT_DET_FLOOR * scale
    if abs(det) <= floor:
        raise ResolventSingular(
            f"Fredholm determinant {det:.3e} vanishes: |det| <= {floor:.3e}, the floor "
            "1e-12 max(1, max|M|); no resolvent"
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


def _node_index(kernel: BlockKernel, lists) -> np.ndarray:
    """Indices into the kernel's matrix of checked per-level node lists."""
    return np.array([kernel.offsets[level] + p for level, pts in enumerate(lists)
                     for p in pts], dtype=int)


def janossy(Kc: BlockKernel, weights: WeightSet, points) -> float:
    """Janossy density of the points under the weights w.

    J^w(x) = E[sum over the placements of x in X of prod (1 - w(y)) over the
    other points y of X] / mu(x), for arbitrary real w and points anywhere;
    for indicator w and points inside the sets it is the density of finding
    exactly those points there. The value is the Fredholm determinant times
    the determinant of the sampled resolvent; with no points it reduces to
    det(1 - Kc o w) itself.
    """
    idx = _node_index(Kc, point_lists(Kc.grids, points))
    const, R = _sampled_resolvent(Kc, weights, idx)
    return const * float(np.linalg.det(R))


def correlation(Kc: BlockKernel, points) -> float:
    """Correlation function: the Janossy density at w = 0, the determinant of
    the sampled checked kernel.

    ``points`` holds, per level, the node indices of the evaluation points
    (at most the kernel rank per level). The empty point set gives 1.
    """
    return janossy(Kc, WeightSet.zeros(Kc.grids), point_lists(Kc.grids, points, Kc.rank))


@dataclass(frozen=True)
class CountDistribution:
    """Probabilities of per-level point counts inside the chosen sets."""

    probabilities: dict[tuple[int, ...], float]
    total: float

    def probability(self, counts) -> float:
        return self.probabilities.get(tuple(int(c) for c in counts), 0.0)


def count_degrees(rank: int | None, sizes, max_count: int | None = None) -> list[int]:
    """Per level, the count table's degree d_j = min(N, |S_j|), |S_j| = ``sizes[j]``.

    |S_j| alone when the rank N is None. ``max_count`` raises d_j to
    min(max_count, |S_j|); below d_j it would alias, and raises ValueError.
    """
    degrees = list(sizes) if rank is None else [min(rank, s) for s in sizes]
    for level, d in enumerate(degrees, start=1):
        if max_count is not None and max_count < d:
            raise ValueError(f"max_count {max_count} is below {d}, the largest "
                             f"count that can occur on level {level}")
    return degrees if max_count is None else [min(int(max_count), s) for s in sizes]


def gap_generating_function(Kc: BlockKernel, intervals, max_count: int | None = None) -> CountDistribution:
    """Count distribution by a discrete Fourier transform of its generating function.

    With per-level indicators chi_j, det(1 - Kc o ((1 - xi_j) chi_j)) is the
    generating polynomial sum_k P(counts = k) prod_j xi_j^{k_j}. Its degree
    in xi_j is at most d_j = min(N, |S_j|), with S_j the level-j nodes inside
    the intervals (|S_j| alone when the rank N is unknown). Evaluating
    det(1 - M_SS diag(1 - xi)) with each xi_j at the (d_j + 1)-th roots of
    unity and applying the inverse DFT recovers the probabilities; of each
    conjugate pair of root tuples only one needs a determinant.
    ``max_count`` raises d_j up to |S_j| (see ``count_degrees``).
    """
    chi = indicators(Kc.grids, intervals)
    S, MS, _ = _on_support(Kc, WeightSet(tuple(chi)))
    sizes = [int(c.sum()) for c in chi]
    shape = tuple(d + 1 for d in count_degrees(Kc.rank, sizes, max_count))
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


def resolvent_residual(kernel: BlockKernel, weights: WeightSet,
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
    return theorem2_residuals_of(tables, dualize(tables, WeightSet.zeros(tables.grids)),
                                 dualize(tables, weights))


def theorem2_residuals_of(tables: ChainTables, plain: Dualization,
                          dual: Dualization) -> IdentityResiduals:
    """``theorem2_residuals`` on ready dualizations: ``plain`` at w = 0, ``dual`` at w."""
    weights = dual.bases.weight_set
    K, g, Kt, gt = plain.K, plain.g, dual.K, dual.g
    Kc, Ktc = plain.Kc, dual.Kc
    scale = max(1.0, Kc.max_abs(), Ktc.max_abs())
    r_resolvent = resolvent_residual(Kc, weights, Ktc)
    r_checked = _max_abs_diff(compose_w(Kc, weights, Ktc).matrix, Ktc.matrix - Kc.matrix)
    # the checked kernels are done; freeing them keeps check's peak memory down
    del Kc, Ktc

    r_gg = _max_abs_diff(compose_w(g, weights, gt).matrix, g.matrix - gt.matrix)
    # endpoint forms: Kt's level-1 rows walked up the plain chain (masses mu),
    # K's level-m columns walked down the dualized chain (masses mu (1 - w))
    o = K.offsets
    left = np.hstack(walk(tables, dual_masses(tables, plain.bases.weight_set),
                          Kt.matrix[:o[1]].T, 1, upward=True)).T
    right = np.hstack(walk(tables, dual_masses(tables, weights), K.matrix[:, o[-2]:],
                           K.m, upward=False))
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
    return resolvent_residual(build_g(tables, weights), weights,
                              build_g(tables, WeightSet.zeros(tables.grids)))
