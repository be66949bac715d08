"""The rows of ``detchain check``: the resolvent identity, the composition
identities it factors through, and the kernel constructions.

The central identity states that the resolvent of the checked kernel
equals the checked kernel of the (1 - w)-dualized construction, composed
with w. ``theorem2_residuals`` measures that identity together with the four
composition identities it factors through, with a dense LU of 1 - M on
S = supp(mu w) as the reference; on any consistent discretization every
residual is pure rounding noise. Only that reference costs O(|S|^3): the
composition products come from the rank-N factors of K and the nonzero
lower blocks of g, one level-row block at a time. ``check_rows`` adds the
transfer resolvent, the records' own residuals, construction invariance and
the factorization relations, and states each row's bound.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, fields

import numpy as np

from .biortho import dual_masses, walk
from .chain import ChainTables, WeightSet
from .kernels import (
    _CHUNK,
    BlockKernel,
    Dualization,
    _max_abs_diff,
    _measure_weights,
    _worst,
    build_g,
    dualize,
    factorization_residual,
    kernel_via_inverse,
)


def _chunks(n: int, width: int) -> list[slice]:
    """range(n) cut into ceil(n / width) slices of near-equal length, so that
    no slice of a longer range is narrower than width / 2."""
    if n <= width:
        return [slice(0, n)]
    k = -(-n // width)
    cuts = [n * j // k for j in range(k + 1)]
    return [slice(a, b) for a, b in zip(cuts, cuts[1:])]


def _column_chunks(offsets, i: int) -> list[slice]:
    """The column chunks of level-row block i of a kernel with these offsets,
    about _CHUNK entries each: one chunk on small kernels."""
    return _chunks(offsets[-1], max(8, _CHUNK // (offsets[i] - offsets[i - 1])))


def _blocks(offsets) -> list[tuple[int, slice, slice]]:
    """(i, rows, cols) over the level-row blocks i = 1..m of a kernel with
    these offsets, each cut into its column chunks."""
    return [(i, slice(offsets[i - 1], offsets[i]), cols) for i in range(1, len(offsets))
            for cols in _column_chunks(offsets, i)]


def construction_residual(K: BlockKernel, via: BlockKernel) -> float:
    """max |K - via| for ``via`` from ``kernel_via_inverse``, judged one
    level-row block and column chunk at a time against its two walked
    factors: the product is never formed whole. Each entry of a chunk is the
    same N-term sum as in the formed matrix."""
    left, right = via.source
    return _worst(_max_abs_diff(K.matrix[rows, cols], left[:, rows].T @ right[:, cols])
                  for _, rows, cols in _blocks(K.offsets))


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
        """The six residuals, in field order (the CSV's order)."""
        return {f.name: getattr(self, f.name) for f in fields(self) if f.name != "scale"}

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
    return theorem2_residuals_of(dualize(tables, WeightSet.zeros(tables.grids)),
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


def _identity_products(plain: Dualization, dual: Dualization):
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
    tables, weights = plain.bases.tables, dual.bases.weight_set
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


def theorem2_residuals_of(plain: Dualization, dual: Dualization) -> IdentityResiduals:
    """``theorem2_residuals`` on ready dualizations of one chain: ``plain`` at
    w = 0, ``dual`` at w. Neither checked kernel is formed: the scale takes
    max |K - g| one level-row block and column chunk at a time, and every
    residual is judged the same way."""
    scale = max(1.0, _worst(_max_abs_diff(d.K.matrix[rows, cols], d.g.matrix[rows, cols])
                            for d in (plain, dual)
                            for _, rows, cols in _blocks(plain.K.offsets)))
    values = {"resolvent": [resolvent_residual(plain, dual)]}
    for name, _, _, product, form in _identity_products(plain, dual):
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


# check splits its rows over two threads above this many nodes in all
# (docs/conventions.md, "check's products")
SPLIT_ABOVE = 256


def _cpus() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def check_rows(plain: Dualization, dual: Dualization, tol: float):
    """``check``'s rows (name, residual, bound) in CSV order, read from the
    plain (w = 0) and dual (w) records of one chain; docs/outputs.md states
    the bounds. Each record's K is scanned once for its scale.

    On a process with two or more CPUs and more than SPLIT_ABOVE nodes in
    all, a worker thread judges the kernel rows (construction invariance and
    both factorizations) while this one judges the identity rows; both run
    the same functions on the same arrays as the serial order, so every row
    is the same to the last bit. Both records' K and g are formed first,
    since a kernel forms its matrix on the first read without a lock.
    """
    tables, weights = plain.bases.tables, dual.bases.weight_set
    records = (("plain", plain), ("dual", dual))
    for _, d in records:
        d.K.matrix, d.g.matrix

    def identity_rows():
        return (theorem2_residuals_of(plain, dual),
                transfer_resolvent_residual(dual.g, weights, plain.g),
                {label: max(1.0, d.K.max_abs()) for label, d in records})

    def kernel_rows():
        via = kernel_via_inverse(tables, weights)
        return [construction_residual(dual.K, via)] + [
            factorization_residual(d.K, d.g, tables, d.bases.weight_set)
            for _, d in records]

    if plain.K.offsets[-1] > SPLIT_ABOVE and _cpus() > 1:
        from concurrent.futures import ThreadPoolExecutor

        # leaving the block joins the worker: an exception of the identity
        # rows is raised once both halves have finished, one of the kernel
        # rows by result()
        with ThreadPoolExecutor(1, thread_name_prefix="detchain-check") as pool:
            kernel = pool.submit(kernel_rows)
            res, transfer, scale = identity_rows()
        kernel = kernel.result()
    else:
        (res, transfer, scale), kernel = identity_rows(), kernel_rows()
    rows = [(f"identity_{name}", value, tol * res.scale)
            for name, value in res.as_dict().items()]
    rows.append(("transfer_resolvent", transfer, tol * res.scale))
    rows += [(f"biorthogonality_{label}", d.bases.biorthogonality_residual, tol)
             for label, d in records]
    rows += [(f"pairing_expressions_{label}", d.bases.expression_gap,
              1e-11 * max(1.0, float(np.max(np.abs(d.bases.decomposition.A)))))
             for label, d in records]
    rows.append(("construction_invariance", kernel[0], 1e-12 * scale["dual"]))
    rows += [(f"factorization_{label}", value, 1e-11 * scale[label])
             for (label, _), value in zip(records, kernel[1:])]
    return rows
