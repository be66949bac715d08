"""Fredholm determinants, resolvents, densities, and the resolvent identity.

All Fredholm objects live on the direct-sum space: a kernel right-composed
with a weight set w is its (sum n_j) x (sum n_j) matrix M with block column j
scaled by diag(mu_j * w_j). Every column of M outside S = supp(mu w)
vanishes, so with M_SS its S x S block the gap probability (for indicator
w) and the Fredholm resolvent kernel are

    det(1 - Kc o w) = det(1 - M_SS),
    (1 - M)^{-1} Kc = Kc + M[:, S] (1 - M_SS)^{-1} Kc[S, :].

A checked kernel carries its structure Kc = Psi^T Phi - g, with rank-N
factors and g strictly block-lower, so with D = diag(mu w)_S the matrix
1 - M_SS is (1 + g_SS D) - Psi_S^T Phi_S D, and det(1 + g_SS D) = 1. With
X = (1 + g_SS D)^{-1} Psi_S^T, found by block forward substitution on the
levels of S,

    det(1 - Kc o w) = det(I_N - Phi_S D X),

the N x N determinant the paper's theorem gives as det A^w / det A^0. From
the same X come the resolvent, by Woodbury, the Janossy density at k
points, as one (N + k)-square determinant, and the count distribution, by
expanding that N x N matrix in per-level factors. A kernel without
factors takes the same route with Psi_S = I, Phi_S = Kc_SS and g = 0,
which is the dense formula on S.

The central identity states that the resolvent of the checked kernel
equals the checked kernel of the (1 - w)-dualized construction, composed
with w. ``theorem2_residuals`` measures that identity together with the four
composition identities it factors through, with 1 - M factored in full as
the reference; on any consistent discretization every residual is pure
rounding noise. Only that reference costs O((sum n_j)^3): the composition
products come from the rank-N factors of K and the nonzero lower blocks of
g, one level-row block at a time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

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


class _OnSupport(NamedTuple):
    """A checked kernel Kc = Psi^T Phi - g on S = supp(mu w), D = diag(mu w)_S.

    The nodes of level j in S are S[bounds[j - 1]:bounds[j]]. ``lower`` holds
    (lo, hi, g[S_j, S_<j]) for each level j whose rows S[lo:hi] have nodes of
    S below them; g is strictly block-lower, so no other block of g_SS is
    nonzero.
    """

    S: np.ndarray
    d: np.ndarray
    bounds: list[int]
    psi_t: np.ndarray   # Psi_S^T, |S| x N
    phi: np.ndarray     # Phi_S, N x |S|
    lower: list

    def forward(self, Y: np.ndarray) -> np.ndarray:
        """(1 + g_SS D)^{-1} Y in place, by block forward substitution: the
        solution's row block j is Y_j - g[S_j, S_<j] D_<j X_<j."""
        for lo, hi, g in self.lower:
            Y[lo:hi] -= g @ (self.d[:lo, None] * Y[:lo])
        return Y


def _support(Kc: BlockKernel, weights: WeightSet) -> _OnSupport:
    """Kc on S = supp(mu w). A kernel without factors enters as Psi_S = I,
    Phi_S = Kc_SS and g = 0, and one without a transfer part with g = 0."""
    _require_checked(Kc)
    col = _measure_weights(Kc.grids, weights)
    S = np.flatnonzero(col)
    bounds = np.searchsorted(S, Kc.offsets).tolist()
    if Kc.factors is None:
        return _OnSupport(S, col[S], bounds, np.eye(S.size), Kc.matrix[np.ix_(S, S)], [])
    g = Kc.transfer
    lower = [(lo, hi, g[S[lo:hi, None], S[:lo]])
             for lo, hi in zip(bounds[1:-1], bounds[2:]) if g is not None and 0 < lo < hi]
    psi, phi = Kc.factors
    return _OnSupport(S, col[S], bounds, psi[:, S].T, phi[:, S], lower)


def _w_pairing(on: _OnSupport, X: np.ndarray) -> np.ndarray:
    """I - Phi_S D X for X = (1 + g_SS D)^{-1} Psi_S^T: the N x N matrix whose
    determinant is det(1 - Kc o w).

    For the plain dualization it is the w-pairing of the plain dual bases
    against mu (1 - w), transposed: ((P L)^{-1} A^w U^{-1})^T from the PLU
    of A^0, so its determinant is det A^w / det A^0.
    """
    return _one_minus(on.phi @ (on.d[:, None] * X))


def fredholm_det(Kc: BlockKernel, weights: WeightSet) -> float:
    """det(1 - Kc o w), the determinant of the N x N ``_w_pairing``.

    For indicator weights this is the probability of finding no points in the
    chosen subsets; it may legitimately be <= 0 for weights outside [0, 1]
    and is returned as computed.
    """
    on = _support(Kc, weights)
    return float(np.linalg.det(_w_pairing(on, on.forward(on.psi_t))))


def _max_abs_columns(matrix: np.ndarray, S: np.ndarray, d: np.ndarray) -> float:
    """max |matrix[:, S] diag(d)|, from each column's largest and smallest entry
    and without forming the (sum n_j) x |S| product; 0 when S is empty."""
    if not S.size:
        return 0.0
    span = matrix[:, S[0]:S[-1] + 1]
    largest = np.maximum(span.max(axis=0), -span.min(axis=0))[S - S[0]]
    return float(np.max(largest * np.abs(d)))


def _solve_on(Kc: BlockKernel, on: _OnSupport, B: np.ndarray):
    """X = (1 + g_SS D)^{-1} Psi_S^T, Z = (1 + g_SS D)^{-1} B and C = I - Phi_S D X
    for B = Kc[S, idx].

    det(1 - M_SS) = det C; a determinant below 1e-12 max(1, max|M|) is
    refused as vanishing.
    """
    N = on.psi_t.shape[1]
    Y = on.forward(np.hstack([on.psi_t, B]))
    X, Z = Y[:, :N], Y[:, N:]
    pairing = _w_pairing(on, X)
    det = float(np.linalg.det(pairing))
    floor = _RESOLVENT_DET_FLOOR * max(1.0, _max_abs_columns(Kc.matrix, on.S, on.d))
    if abs(det) <= floor:
        raise ResolventSingular(
            f"Fredholm determinant {det:.3e} vanishes: |det| <= {floor:.3e}, the floor "
            "1e-12 max(1, max|M|); no resolvent"
        )
    return X, Z, pairing


def resolvent(Kc: BlockKernel, weights: WeightSet) -> BlockKernel:
    """Kernel-valued Fredholm resolvent blocks of Kc o w.

    Returns (1 - M)^{-1} Kc with M the weighted kernel matrix, which is
    (1 - M)^{-1} M with the right diag(mu w) factor stripped; right-composing
    the result with w reproduces the resolvent operator exactly. It is formed
    on the support S of mu w as Kc + M[:, S] Y with (1 - M_SS) Y = Kc[S, :],
    solved by Woodbury as Y = Z + X C^{-1} Phi_S D Z (see ``_solve_on``).
    That formula is not backward stable when C is ill-conditioned, so one
    step of iterative refinement follows, its residual B - (1 - M_SS) Y
    taken against the kernel's own matrix and summed in extended precision.
    """
    on = _support(Kc, weights)
    B = Kc.matrix[on.S]
    X, Z, pairing = _solve_on(Kc, on, B)

    def woodbury(Z):
        return Z + X @ np.linalg.solve(pairing, on.phi @ (on.d[:, None] * Z))

    solved = woodbury(Z)
    residual = (B - solved) + Kc.matrix[np.ix_(on.S, on.S)] @ (
        on.d[:, None].astype(np.longdouble) * solved)
    solved += woodbury(on.forward(residual.astype(float)))
    matrix = Kc.matrix + (Kc.matrix[:, on.S] * on.d) @ solved
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
    the determinant of the resolvent sampled at x, R = Kc_xx + M_xS (1 -
    M_SS)^{-1} Kc_Sx, taken as one (N + k) x (N + k) determinant: with the
    Woodbury form of the solve (see ``resolvent``) and C = I - Phi_S D X,
    det C det R = det [[C, Phi_S D Z], [-M_xS X, Kc_xx + M_xS Z]] by the
    Schur complement of C. With no points it reduces to det(1 - Kc o w).
    """
    idx = _node_index(Kc, point_lists(Kc.grids, points))
    on = _support(Kc, weights)
    if not on.S.size:  # det(1 - Kc o w) = 1 and R = Kc_xx
        return float(np.linalg.det(Kc.matrix[np.ix_(idx, idx)]))
    rows, cols = Kc.matrix[idx], Kc.matrix[:, idx]
    X, Z, pairing = _solve_on(Kc, on, cols[on.S])
    N, M_xS = len(pairing), rows[:, on.S] * on.d
    bordered = np.empty((N + idx.size,) * 2)
    bordered[:N, :N] = pairing
    bordered[:N, N:] = on.phi @ (on.d[:, None] * Z)
    bordered[N:, :N] = -(M_xS @ X)
    bordered[N:, N:] = rows[:, idx] + M_xS @ Z
    return float(np.linalg.det(bordered))


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


def _multilinear_coefficients(on: _OnSupport, m: int) -> np.ndarray:
    """The coefficients H_U of Phi_S D_kappa (1 + g_SS D_kappa)^{-1} Psi_S^T =
    sum over nonempty level sets U of prod_{j in U} kappa_j H_U, with
    D_kappa = D diag(kappa_j on the level-j nodes of S).

    Expanding the inverse along g's strictly lower blocks, each term runs
    down a chain of levels u_1 > u_2 > ... > u_k, and the chain is its set U:
    H_U = Phi_{u_1} D_{u_1} (-g_{u_1 u_2}) D_{u_2} ... (-g_{u_{k-1} u_k})
    D_{u_k} Psi_{u_k}^T. Returned as a (2,) * m + (N, N) array whose index j
    is 1 where level j is in U; levels without nodes in S add nothing.
    """
    b = on.bounds
    H = np.zeros((2,) * m + (on.psi_t.shape[1],) * 2)
    lower = {lo: g for lo, _, g in on.lower}
    # chains[j]: (U, D_{u_1} (-g_{u_1 u_2}) ... Psi_{u_k}^T) for each chain
    # from u_1 = j, on the level-j rows of S
    chains: dict[int, list] = {}
    for j in range(m):
        rows = slice(b[j], b[j + 1])
        if rows.start == rows.stop:
            continue
        # a chain from j is j alone, or j followed by a chain from a level i < j
        terms = [((j,), on.psi_t[rows])]
        g = lower.get(rows.start)
        for i, from_i in chains.items() if g is not None else ():
            terms += [((j,) + U, -(g[:, b[i]:b[i + 1]] @ W)) for U, W in from_i]
        chains[j] = [(U, on.d[rows, None] * W) for U, W in terms]
        for U, W in chains[j]:
            H[tuple(int(k in U) for k in range(m))] = on.phi[:, rows] @ W
    return H


def _along(matrix: np.ndarray, values: np.ndarray, axis: int) -> np.ndarray:
    """``matrix`` applied along one axis of ``values``, which keeps its place."""
    labels = list(range(values.ndim))
    return np.einsum(matrix, [values.ndim, axis], values, labels,
                     labels[:axis] + [values.ndim] + labels[axis + 1:])


def gap_generating_function(Kc: BlockKernel, intervals, max_count: int | None = None) -> CountDistribution:
    """Count distribution by a discrete Fourier transform of its generating function.

    With per-level indicators chi_j, det(1 - Kc o ((1 - xi_j) chi_j)) is the
    generating polynomial sum_k P(counts = k) prod_j xi_j^{k_j}. Its degree
    in xi_j is at most d_j = min(N, |S_j|), with S_j the level-j nodes inside
    the intervals (|S_j| alone when the rank N is unknown). With kappa_j =
    1 - xi_j the polynomial is det(I - sum_U prod_{j in U} kappa_j H_U), the
    N x N coefficients of ``_multilinear_coefficients``; it is evaluated
    with each xi_j at the (d_j + 1)-th roots of unity, one batched N x N
    determinant over all root tuples, and the inverse DFT recovers the
    probabilities. ``max_count`` raises d_j up to |S_j| (see ``count_degrees``).
    """
    chi = indicators(Kc.grids, intervals)
    on = _support(Kc, WeightSet(tuple(chi)))
    sizes = [int(c.sum()) for c in chi]
    shape = tuple(k + 1 for k in count_degrees(Kc.rank, sizes, max_count))
    values = _multilinear_coefficients(on, Kc.m)
    # axis j of the coefficients is (1, kappa_j) in the level-j factor; the
    # same contraction along every axis turns it into the values at all root
    # tuples, and then the inverse DFT, a product with the (d_j + 1)-square
    # DFT matrix, turns those into the probabilities: the lengths are small,
    # and loading numpy.fft for them would add about half a megabyte of
    # resident memory to every process
    for axis, n in enumerate(shape):
        roots = np.exp(2j * np.pi * np.arange(n) / n)
        values = _along(np.stack([np.ones(n), 1.0 - roots], axis=1), values, axis)
    coeffs = np.linalg.det(np.eye(values.shape[-1]) - values)
    for axis, n in enumerate(shape):
        inverse = np.exp(-2j * np.pi * np.outer(np.arange(n), np.arange(n)) / n) / n
        coeffs = _along(inverse, coeffs, axis)
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


def _lower_product(g: BlockKernel, col: np.ndarray, i: int, rows) -> np.ndarray:
    """Row block i of g o w o X for a strictly block-lower X, on the columns of
    levels below i - 1: the sum over 1 < j < i of g_ij diag(mu_j w_j) X_j.

    ``rows[j - 1]`` is X_j, the level-j row block of X on the columns of
    levels below j; its other columns vanish. Only g's nonzero blocks and the
    nodes of supp(mu w) enter.
    """
    o = g.offsets
    out = np.zeros((o[i] - o[i - 1], o[max(i - 2, 0)]))
    for j in range(2, i):
        S = o[j - 1] + np.flatnonzero(col[o[j - 1]:o[j]])
        out[:, :o[j - 1]] += (g.matrix[o[i - 1]:o[i], S] * col[S]) @ rows[j - 1][S - o[j - 1]]
    return out


def _identity_products(tables: ChainTables, plain: Dualization, dual: Dualization):
    """The four composition products and the checked product, one level-row
    block at a time, each beside the form the identity says it equals.

    Yields (name, level, product, form) with the level-i row blocks of both.
    With K = Psi^T Phi and dual-K = dual-Psi^T dual-Phi, the products come
    from the rank-N factors: K o_w dual-K = Psi^T ((Phi mu w) dual-Psi^T)
    dual-Phi, K o_w dual-g = Psi^T ((Phi mu w) dual-g) and g o_w dual-K =
    (g mu w dual-Psi^T) dual-Phi; g o_w dual-g sums over the nonzero lower
    blocks only. The endpoint forms walk the N rows of dual-psi on level 1
    up the plain chain and of phi on level m down the dualized one.
    """
    weights = dual.bases.weight_set
    K, g, Kt, gt = plain.K, plain.g, dual.K, dual.g
    o = K.offsets
    col = _measure_weights(K.grids, weights)
    S = np.flatnonzero(col)
    psit_S = np.hstack(dual.bases.psi)[:, S].T
    phit = np.hstack(dual.bases.phi)
    phi_S = np.hstack(plain.bases.phi)[:, S] * col[S]
    kk = (phi_S @ psit_S) @ phit
    kg = phi_S @ gt.matrix[S]
    # endpoint forms: left^T dual-Phi is dual-K's level-1 rows walked up the
    # plain chain (masses mu), Psi^T right is K's level-m columns walked down
    # the dualized chain (masses mu (1 - w))
    left = np.hstack(walk(tables, dual_masses(tables, plain.bases.weight_set),
                          dual.bases.psi[0], 1, upward=True))
    right = np.hstack(walk(tables, dual_masses(tables, weights), plain.bases.phi[-1],
                           K.m, upward=False))
    gt_lower = [gt.matrix[o[j - 1]:o[j], :o[j - 1]] for j in range(1, K.m + 1)]
    for i in range(1, K.m + 1):
        r = slice(o[i - 1], o[i])
        psi = plain.bases.psi[i - 1].T
        KK, KG = psi @ kk, psi @ kg
        GK = ((g.matrix[r, S] * col[S]) @ psit_S) @ phit
        GG = np.zeros_like(KK)
        GG[:, :o[max(i - 2, 0)]] = _lower_product(g, col, i, gt_lower)
        left_i, right_i = left[:, r].T @ phit, psi @ right
        yield "kernel_kernel", i, KK, left_i - right_i
        yield "kernel_transfer", i, KG, K.matrix[r] - right_i
        yield "transfer_kernel", i, GK, left_i - Kt.matrix[r]
        del left_i, right_i
        yield "transfer_transfer", i, GG, g.matrix[r] - gt.matrix[r]
        yield ("checked_product", i, KK - KG - GK + GG,
               (Kt.matrix[r] - gt.matrix[r]) - (K.matrix[r] - g.matrix[r]))


def theorem2_residuals_of(tables: ChainTables, plain: Dualization,
                          dual: Dualization) -> IdentityResiduals:
    """``theorem2_residuals`` on ready dualizations: ``plain`` at w = 0, ``dual`` at w."""
    Kc, Ktc = plain.Kc, dual.Kc
    scale = max(1.0, Kc.max_abs(), Ktc.max_abs())
    worst = {"resolvent": resolvent_residual(Kc, dual.bases.weight_set, Ktc)}
    # the checked kernels are done; freeing them keeps check's peak memory down
    del Kc, Ktc
    for name, _, product, form in _identity_products(tables, plain, dual):
        worst[name] = max(worst.get(name, 0.0), _max_abs_diff(product, form))
    return IdentityResiduals(scale=scale, **worst)


def _transfer_resolvent_rows(gt: BlockKernel, weights: WeightSet):
    """(1 - gt o w)^{-1} (gt o w) by block forward substitution, one level at a time.

    1 - gt o w is unit block-lower, so the solution X has the level-i row
    block X_i = (gt o w)_i + sum_{1 < j < i} gt_ij diag(mu_j w_j) X_j, which
    vanishes on the levels >= i. Yields (i, X_i) with X_i on the columns of
    the levels below i; only gt's nonzero blocks enter.
    """
    col = _measure_weights(gt.grids, weights)
    o = gt.offsets
    X = []
    for i in range(1, gt.m + 1):
        X.append(gt.matrix[o[i - 1]:o[i], :o[i - 1]] * col[:o[i - 1]])
        X[-1][:, :o[max(i - 2, 0)]] += _lower_product(gt, col, i, X)
        yield i, X[-1]


def transfer_resolvent_residual(gt: BlockKernel, weights: WeightSet,
                                g: BlockKernel) -> float:
    """max |(1 - gt o w)^{-1} (gt o w) - g o w|, one level-row block at a time.

    Both sides vanish on the blocks at and above the diagonal, so each row
    block is compared on the columns of the levels below it.
    """
    col = _measure_weights(g.grids, weights)
    o = g.offsets
    return max(_max_abs_diff(X, g.matrix[o[i - 1]:o[i], :o[i - 1]] * col[:o[i - 1]])
               for i, X in _transfer_resolvent_rows(gt, weights))


def g_resolvent_residual(tables: ChainTables, weights: WeightSet) -> float:
    """Residual of: the plain transfer kernel o w is the resolvent of the dualized one.

    Measures (1 - dual-g^w)^{-1} dual-g^w - g^w in max norm; both operators
    are strictly lower block triangular, so the inverse always exists.
    """
    return transfer_resolvent_residual(build_g(tables, weights), weights,
                                       build_g(tables, WeightSet.zeros(tables.grids)))
