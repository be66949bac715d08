"""Fredholm determinants, resolvents, densities, and the resolvent identity.

All Fredholm objects live on the direct-sum space: a kernel right-composed
with a weight set w is its (sum n_j) x (sum n_j) matrix M with block column j
scaled by diag(mu_j * w_j), and det(1 - Kc o w) is the Fredholm determinant.

A checked kernel from ``check_kernel`` keeps as its ``source`` the dual
bases psi, phi it was dualized from at some weights u, chain tables and all.
The Fredholm quantities are walked from them, never from its matrix. With
nu = mu (1 - u - w) per level, psi^(1) walked up the chain with masses nu by
``biortho.walk`` and paired with phi^(m) against nu_m is the N x N matrix

    P = (P L)^{-1} A^{u+w} U^{-1},

with P L U the pairing matrix A^u the bases came from, so that

    det(1 - Kc o w) = det A^{u+w} / det A^u = det P / det P^0,

the paper's theorem. P^0, the same pairing at w = 0, is the Gram matrix of
the bases' biorthogonality, I up to rounding, so that w = 0 gives 1 exactly.
For u = 0 and w in [0, 1] every mass is >= 0 and nothing cancels. The
Janossy density at k points borders P^T with the walked bases and the
nu-weighted transfers at the points, one (N + k)-square determinant; the
count distribution is the gap at the complex weights (1 - xi_j) chi_j for
all root tuples xi in one batch; the resolvent is the checked kernel
dualized at nu, a^T P^{-T} b less the transfers at nu, formed when read. A
kernel without that structure is refused; the resolvent also refuses a
singular P.

The central identity states that the resolvent of the checked kernel
equals the checked kernel of the (1 - w)-dualized construction, composed
with w. ``theorem2_residuals`` measures that identity together with the four
composition identities it factors through, with a dense LU of 1 - M on
S = supp(mu w) as the reference; on any consistent discretization every
residual is pure rounding noise. Only that reference costs O(|S|^3): the
composition products come from the rank-N factors of K and the nonzero
lower blocks of g, one level-row block at a time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .biortho import DualBases, check_conditioning, dual_masses, walk
from .chain import ChainTables, WeightSet, check_weights, indicators, point_lists
from .errors import StateError
from .kernels import (
    _CHUNK,
    BlockKernel,
    Dualization,
    _blocks,
    _chunks,
    _column_chunks,
    _max_abs_diff,
    _measure_weights,
    _transfers,
    _worst,
    build_g,
    dualize,
)


def _kept_bases(Kc: BlockKernel) -> DualBases:
    """The dual bases a checked kernel keeps; any other kernel is refused."""
    if not Kc.checked:
        raise StateError("operation requires a checked kernel (transfer part subtracted)")
    if not isinstance(Kc.source, DualBases):
        raise StateError("operation requires a checked kernel that keeps its "
                         "dualization: check_kernel(build_K(bases), build_g(tables, "
                         "weights)) at the bases' own tables and weights")
    return Kc.source


def _walked(bases: DualBases, w, rows=None):
    """(nu, up, P) at w, a weight set or per-level arrays: nu = mu (1 - u - w)
    per level, u the bases' own weights; up, psi^(1) (or ``rows``) walked up
    with nu, on every level; P, its pairing with phi^(m) against nu_m."""
    if isinstance(w, WeightSet):
        check_weights(bases.grids, w)
        w = w.w
    nu = [g.weights * (1.0 - u - v) for g, u, v in zip(bases.grids, bases.weight_set.w, w)]
    up = walk(bases.tables, nu, bases.psi[0] if rows is None else rows, 1, upward=True)
    return nu, up, (up[-1] * nu[-1]) @ bases.phi[-1].T


def _gram_det(bases: DualBases) -> float:
    """det P^0: the level-m pairing of the bases against their own masses,
    formed as ``_walked`` forms P, so that w = 0 gives P = P^0 bit for bit."""
    grid, u = bases.grids[-1], bases.weight_set.w[-1]
    return float(np.linalg.det((bases.psi[-1] * (grid.weights * (1.0 - u)))
                               @ bases.phi[-1].T))


def fredholm_det(Kc: BlockKernel, weights: WeightSet) -> float:
    """det(1 - Kc o w) = det P / det P^0, P the w-pairing of the kernel's dual bases.

    For indicator weights this is the probability of finding no points in the
    chosen subsets; it may legitimately be <= 0 for weights outside [0, 1]
    and is returned as computed.
    """
    bases = _kept_bases(Kc)
    return float(np.linalg.det(_walked(bases, weights)[2])) / _gram_det(bases)


def resolvent(Kc: BlockKernel, weights: WeightSet) -> BlockKernel:
    """Kernel-valued Fredholm resolvent blocks of Kc o w.

    Returns (1 - M)^{-1} Kc with M the weighted kernel matrix, which is
    (1 - M)^{-1} M with the right diag(mu w) factor stripped; right-composing
    the result with w reproduces the resolvent operator exactly. By the
    theorem it is the checked kernel dualized at the masses nu, the kernel
    whose k-point Schur complement ``janossy`` takes: a(x)^T P^{-T} b(y) -
    G(x, y), with psi^(1) walked up and phi^(m) walked down on every level
    and G the transfers at nu, subtracted from a^T P^{-T} b block by block
    in place. Its matrix is formed on the first read. A P with condition
    number 1e12 or more is refused by SingularPairing. With w = 0 on every
    node the resolvent is Kc itself, which is returned.
    """
    bases = _kept_bases(Kc)
    nu, up, P = _walked(bases, weights)
    if not any(np.any(w) for w in weights.w):
        return Kc
    check_conditioning(P)
    down = walk(bases.tables, nu, bases.phi[-1], Kc.m, upward=False)

    def form():
        o, matrix = Kc.offsets, np.hstack(up).T @ np.linalg.solve(P.T, np.hstack(down))
        for j in range(1, Kc.m):
            matrix[o[j]:, o[j - 1]:o[j]] -= _transfers(bases.tables, nu, j, slice(None)).T
        return matrix
    return BlockKernel(matrix=form, grids=Kc.grids, checked=True, rank=Kc.rank)


def janossy(Kc: BlockKernel, weights: WeightSet, points) -> float:
    """Janossy density of the points under the weights w.

    J^w(x) = E[sum over the placements of x in X of prod (1 - w(y)) over the
    other points y of X] / mu(x), for arbitrary real w and points anywhere;
    for indicator w and points inside the sets it is the density of finding
    exactly those points there. By the theorem it is det(1 - Kc o w) times
    det Kc'(x, x), Kc' the checked kernel dualized at the masses nu, and
    Kc'(x, y) = a(x)^T P^{-T} b(y) - G(x, y): a(x) is psi^(1) walked up to
    x's level and b(y) phi^(m) walked down to y's, both read at the point,
    and G holds the nu-weighted transfers between the points. By the Schur
    complement of P^T the value is one (N + k)-square determinant,

        J = (-1)^k det [[P^T, B], [A^T, G]] / det P^0,

    with A and B holding a and b at the k points. Both sides are polynomials
    in the entries, so it is the density also where det P = 0. With no
    points it is det(1 - Kc o w).
    """
    bases = _kept_bases(Kc)
    nu, up, P = _walked(bases, weights)
    lists = point_lists(Kc.grids, points)
    down = walk(bases.tables, nu, bases.phi[-1], Kc.m, upward=False)
    at = [(level, p) for level, pts in enumerate(lists) for p in pts]
    N, k = len(P), len(at)
    bordered = np.zeros((N + k, N + k))
    bordered[:N, :N] = P.T
    for i, (level, p) in enumerate(at):
        bordered[N + i, :N] = up[level][:, p]
        bordered[:N, N + i] = down[level][:, p]
    # G: the transfers at nu from each level's points to the points above it
    first = N + np.cumsum([0] + [len(pts) for pts in lists])
    pos = np.array([Kc.offsets[level] + p for level, p in at], dtype=int)
    for level in range(1, Kc.m):
        G = _transfers(bases.tables, nu, level, lists[level - 1])
        bordered[first[level]:, first[level - 1]:first[level]] = \
            G[:, pos[first[level] - N:] - Kc.offsets[level]].T
    return (-1) ** k * float(np.linalg.det(bordered)) / _gram_det(bases)


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


def count_degrees(rank: int, sizes, max_count: int | None = None) -> list[int]:
    """Per level, the count table's degree d_j = min(N, |S_j|), |S_j| = ``sizes[j]``.

    ``max_count`` raises d_j to min(max_count, |S_j|); below d_j it would
    alias, and raises ValueError.
    """
    degrees = [min(rank, s) for s in sizes]
    for level, d in enumerate(degrees, start=1):
        if max_count is not None and max_count < d:
            raise ValueError(f"max_count {max_count} is below {d}, the largest "
                             f"count that can occur on level {level}")
    return degrees if max_count is None else [min(int(max_count), s) for s in sizes]


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
    the intervals. It is evaluated with each xi_j at the (d_j + 1)-th roots
    of unity by ``fredholm_det``'s route, at the complex masses
    nu_xi = mu (1 - u - (1 - xi_j) chi_j): one walk for all T = prod (d_j + 1)
    root tuples at once and one batched N x N determinant, divided by its
    entry at xi = 1, the tuple whose masses are the bases' own. The inverse
    DFT recovers the probabilities. ``max_count`` raises d_j up to |S_j| (see
    ``count_degrees``).
    """
    bases = _kept_bases(Kc)
    chi = indicators(Kc.grids, intervals)
    shape = tuple(k + 1 for k in count_degrees(bases.N, [int(c.sum()) for c in chi],
                                               max_count))
    # xi_j at every root tuple, one row per level; the first tuple is xi = 1
    xi = np.exp(2j * np.pi * np.indices(shape).reshape(len(shape), -1)
                / np.array(shape)[:, None])
    N, T = bases.N, xi.shape[1]
    # the tuples folded into the rows: T N rows of psi^(1), each walked with
    # its tuple's masses, so that each level takes one matrix product
    w = [np.repeat((1.0 - x[:, None]) * c, N, axis=0) for x, c in zip(xi, chi)]
    P = _walked(bases, w, rows=np.tile(bases.psi[0], (T, 1)))[2]
    values = np.linalg.det(P.reshape(T, N, N))
    coeffs = (values / values[0]).reshape(shape)
    # the inverse DFT, a product with the (d_j + 1)-square DFT matrix along
    # each axis: the lengths are small, and loading numpy.fft for them would
    # add about half a megabyte of resident memory to every process
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

    ``scale`` is max(1, max|Kc|, max|dual-Kc|), the largest absolute entries
    taken entrywise; identity-class bounds are stated relative to it.
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


def resolvent_residual(plain: Dualization, dual: Dualization) -> float:
    """max |(1 - Kc o w)^{-1} (Kc o w) - dual-Kc o w|, w the dual record's weights.

    Both sides vanish outside S = supp(mu w), and the S columns of each
    checked kernel are read as K[:, S] - g[:, S], so neither is formed whole.
    With M_S the S columns of M = Kc o w and M_SS their S rows,
    X = M_S + M_S (1 - M_SS)^{-1} M_SS solves (1 - M) X = M_S, since
    M X = M_S X_S: the reference is a dense LU of the |S|-square 1 - M_SS,
    independent of the walked route. The LU is taken before M_S is formed,
    M_S is filled in row chunks, and the dual record's side is read one row
    chunk at a time against X, so the largest arrays held at once are M_S,
    X and (1 - M_SS)^{-1} M_SS.
    """
    col = _measure_weights(plain.K.grids, dual.bases.weight_set)
    S = np.flatnonzero(col)
    K, g = plain.K.matrix, plain.g.matrix
    M_SS = (K[S[:, None], S] - g[S[:, None], S]) * col[S]
    Y = np.linalg.solve(np.eye(S.size) - M_SS, M_SS)
    del M_SS
    chunks = _chunks(len(col), max(2, _CHUNK // max(S.size, 1)))
    M_S = np.empty((len(col), S.size))
    for rows in chunks:
        M_S[rows] = (K[rows, S] - g[rows, S]) * col[S]
    X = M_S @ Y
    X += M_S
    del M_S
    Kt, gt = dual.K.matrix, dual.g.matrix
    return _worst(_max_abs_diff(X[rows], (Kt[rows, S] - gt[rows, S]) * col[S])
                  for rows in chunks)


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
    block and column chunk at a time, each beside the form the identity says
    it equals.

    Yields (name, level, cols, product, form) with the entries of both on the
    level-i rows and the columns ``cols``. With K = Psi^T Phi and
    dual-K = dual-Psi^T dual-Phi, the products come from the rank-N factors:
    K o_w dual-K = Psi^T ((Phi mu w) dual-Psi^T) dual-Phi, K o_w dual-g =
    Psi^T ((Phi mu w) dual-g) and g o_w dual-K = (g mu w dual-Psi^T) dual-Phi;
    g o_w dual-g sums over the nonzero lower blocks only. The endpoint forms
    walk the N rows of dual-psi on level 1 up the plain chain and of phi on
    level m down the dualized one. Only products over the N factor rows are
    cut into column chunks; the sums over nodes are formed whole, as N-row
    factors or, for g o_w dual-g, per level.
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
        psi, left_i = plain.bases.psi[i - 1].T, left[:, r].T
        gk = (g.matrix[r, S] * col[S]) @ psit_S
        gg = _lower_product(g, col, i, gt_lower)
        for cols in _column_chunks(o, i):
            KK, KG, GK = psi @ kk[:, cols], psi @ kg[:, cols], gk @ phit[:, cols]
            GG = np.zeros_like(KK)
            lower = gg[:, cols]
            GG[:, :lower.shape[1]] = lower
            left_c, right_c = left_i @ phit[:, cols], psi @ right[:, cols]
            K_c, g_c, Kt_c, gt_c = (x.matrix[r, cols] for x in (K, g, Kt, gt))
            yield "kernel_kernel", i, cols, KK, left_c - right_c
            yield "kernel_transfer", i, cols, KG, K_c - right_c
            yield "transfer_kernel", i, cols, GK, left_c - Kt_c
            yield "transfer_transfer", i, cols, GG, g_c - gt_c
            yield "checked_product", i, cols, KK - KG - GK + GG, (Kt_c - gt_c) - (K_c - g_c)


def theorem2_residuals_of(tables: ChainTables, plain: Dualization,
                          dual: Dualization) -> IdentityResiduals:
    """``theorem2_residuals`` on ready dualizations: ``plain`` at w = 0, ``dual``
    at w. Neither checked kernel is formed: the scale takes max |K - g| one
    level-row block and column chunk at a time, and every residual is judged
    the same way."""
    scale = max(1.0, _worst(_max_abs_diff(d.K.matrix[rows, cols], d.g.matrix[rows, cols])
                            for d in (plain, dual)
                            for _, rows, cols in _blocks(plain.K.offsets)))
    values = {"resolvent": [resolvent_residual(plain, dual)]}
    for name, _, _, product, form in _identity_products(tables, plain, dual):
        values.setdefault(name, []).append(_max_abs_diff(product, form))
    return IdentityResiduals(scale=scale,
                             **{name: _worst(v) for name, v in values.items()})


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
    return _worst(_max_abs_diff(X, g.matrix[o[i - 1]:o[i], :o[i - 1]] * col[:o[i - 1]])
                  for i, X in _transfer_resolvent_rows(gt, weights))


def g_resolvent_residual(tables: ChainTables, weights: WeightSet) -> float:
    """Residual of: the plain transfer kernel o w is the resolvent of the dualized one.

    Measures (1 - dual-g^w)^{-1} dual-g^w - g^w in max norm; both operators
    are strictly lower block triangular, so the inverse always exists.
    """
    return transfer_resolvent_residual(build_g(tables, weights), weights,
                                       build_g(tables, WeightSet.zeros(tables.grids)))
