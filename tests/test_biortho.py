import numpy as np
import pytest

from detchain import (
    CompositionInconsistency,
    SingularPairing,
    WeightSet,
    build_g,
    build_K,
    dual_bases,
    from_indicators,
    from_tables,
    make_discrete_grid,
    pairing_expressions,
    pairing_matrix,
    plu_decompose,
)
from detchain import biortho
from detchain.instances import random_discrete_instance

from .conftest import seeded_chain, two_point_chain, uniform_weights


def ones_chain_m3():
    grids = [make_discrete_grid([0.0, 1.0], [1.0, 1.0], level=j + 1) for j in range(3)]
    ones = np.ones((2, 2))
    return from_tables(grids, [[1, 0], [0, 1]], [[1, 0], [0, 1]], [ones, ones])


def test_single_step_is_returned_unchanged():
    tables = seeded_chain(5, m=3, n=2, sizes=(3, 4, 5))
    g = build_g(tables, uniform_weights(tables, 6))
    for j in range(1, tables.m):
        np.testing.assert_array_equal(g.block(j + 1, j), tables.g_values[j - 1])


def test_unit_weight_annihilates_composition():
    tables = ones_chain_m3()
    ws = WeightSet((np.zeros(2), np.ones(2), np.zeros(2)))
    np.testing.assert_array_equal(build_g(tables, ws).block(3, 1), np.zeros((2, 2)))


def test_all_ones_composite():
    tables = ones_chain_m3()
    ws = WeightSet.zeros(tables.grids)
    np.testing.assert_array_equal(build_g(tables, ws).block(3, 1), np.full((2, 2), 2.0))


def test_zero_weight_composite_matches_plain_products():
    tables = seeded_chain(11, m=3, n=2, sizes=(3, 4, 5))
    zeros = WeightSet.zeros(tables.grids)
    g21, g32 = tables.g_values
    mu2 = tables.grids[1].weights
    expected = g32 @ (mu2[:, None] * g21)
    np.testing.assert_array_equal(build_g(tables, zeros).block(3, 1), expected)


def test_indicator_composite_matches_mask_and_compose():
    # independent reference: delete the indicator nodes and compose on the rest
    tables = seeded_chain(12, m=3, n=2, sizes=(4, 5, 4))
    rng = np.random.default_rng(13)
    chi = tuple((rng.random(g.size) < 0.4).astype(float) for g in tables.grids)
    ws = WeightSet(chi)
    keep = np.flatnonzero(chi[1] == 0.0)
    g21, g32 = tables.g_values
    mu2 = tables.grids[1].weights
    reference = g32[:, keep] @ (mu2[keep, None] * g21[keep, :])
    np.testing.assert_allclose(build_g(tables, ws).block(3, 1), reference,
                               rtol=0, atol=1e-12)


def test_pairing_trivial_examples():
    tables = two_point_chain()
    zeros = WeightSet.zeros(tables.grids)
    np.testing.assert_allclose(pairing_matrix(tables, zeros), [[2.0]])

    full = WeightSet.ones(tables.grids)
    A = pairing_matrix(tables, full)
    np.testing.assert_allclose(A, [[0.0]])
    with pytest.raises(SingularPairing):
        plu_decompose(A)


def test_inconsistent_pairing_expressions_are_refused_with_their_gap(monkeypatch):
    tables = two_point_chain()
    monkeypatch.setattr(biortho, "pairing_expressions",
                        lambda t, w: (np.array([[2.0]]), np.array([[2.0 + 1e-9]])))
    with pytest.raises(CompositionInconsistency,
                       match=r"disagree by 1\.000e-09 > 2\.000e-11 \(1e-11 of"):
        pairing_matrix(tables, WeightSet.zeros(tables.grids))


def test_pairing_expressions_agree_on_seeded_instance():
    tables = seeded_chain(21, m=2, n=2, sizes=(4, 4))
    ws = uniform_weights(tables, 22)
    a1, am = pairing_expressions(tables, ws)
    scale = max(1.0, np.max(np.abs(a1)))
    assert np.max(np.abs(a1 - am)) <= 1e-12 * scale


def test_plu_identity():
    dec = plu_decompose(np.eye(3))
    np.testing.assert_array_equal(dec.permutation, [0, 1, 2])
    np.testing.assert_array_equal(dec.L, np.eye(3))
    np.testing.assert_array_equal(dec.U, np.eye(3))


def test_plu_scalar():
    dec = plu_decompose(np.array([[4.0]]))
    np.testing.assert_allclose(dec.L, [[2.0]])
    np.testing.assert_allclose(dec.U, [[2.0]])


def test_plu_pivoting_resolves_zero_pivot():
    dec = plu_decompose(np.array([[0.0, 1.0], [1.0, 0.0]]))
    np.testing.assert_array_equal(dec.permutation, [1, 0])
    np.testing.assert_array_equal(dec.L, np.eye(2))
    np.testing.assert_array_equal(dec.U, np.eye(2))


def test_plu_reconstruction_and_matched_diagonals():
    rng = np.random.default_rng(31)
    for _ in range(20):
        A = rng.normal(size=(4, 4))
        dec = plu_decompose(A)
        rec = np.empty_like(A)
        rec[dec.permutation] = dec.L @ dec.U
        assert np.max(np.abs(rec - A)) <= 1e-12 * max(1.0, np.max(np.abs(A)))
        np.testing.assert_allclose(np.abs(np.diag(dec.L)), np.diag(dec.U),
                                   rtol=1e-13)
        assert np.all(np.diag(dec.U) > 0)
        assert set(dec.sign_convention) <= {-1, 1}


def _doolittle_by_rows(A):
    """Partial-pivoting elimination one row at a time: the reference for the
    column-at-once updates of plu_decompose, which do the same arithmetic."""
    n = A.shape[0]
    upper, lower, perm = A.copy(), np.eye(n), np.arange(n)
    for col in range(n - 1):
        pivot = col + int(np.argmax(np.abs(upper[col:, col])))
        if pivot != col:
            upper[[col, pivot]] = upper[[pivot, col]]
            perm[[col, pivot]] = perm[[pivot, col]]
            lower[[col, pivot], :col] = lower[[pivot, col], :col]
        for row in range(col + 1, n):
            factor = upper[row, col] / upper[col, col]
            lower[row, col] = factor
            upper[row, col:] -= factor * upper[col, col:]
            upper[row, col] = 0.0
    return perm, lower, upper


def test_plu_matches_row_by_row_elimination_bitwise():
    rng = np.random.default_rng(41)
    for n in range(1, 9):
        for _ in range(60):
            A = rng.normal(size=(n, n)) * 10.0 ** rng.uniform(-3, 3, size=(n, 1))
            if np.linalg.cond(A) >= biortho.CONDITION_LIMIT:
                continue
            perm, lower, upper = _doolittle_by_rows(A)
            d = np.diag(upper)
            signs = np.where(d >= 0, 1.0, -1.0)
            dec = plu_decompose(A)
            np.testing.assert_array_equal(dec.permutation, perm)
            np.testing.assert_array_equal(dec.L, lower * (signs * np.sqrt(np.abs(d))))
            np.testing.assert_array_equal(dec.U, (signs / np.sqrt(np.abs(d)))[:, None]
                                          * upper)


def test_plu_near_singular_rejected():
    with pytest.raises(SingularPairing):
        plu_decompose(np.array([[1.0, 1.0], [1.0, 1.0 + 1e-14]]))


def test_dual_bases_orthonormal_rows_pass_through():
    grid = make_discrete_grid([0.0, 1.0], [1.0, 1.0])
    tables = from_tables([grid], np.eye(2), np.eye(2), [])
    bases = dual_bases(tables, WeightSet.zeros([grid]))
    np.testing.assert_array_equal(bases.psi[0], np.eye(2))
    np.testing.assert_array_equal(bases.phi[0], np.eye(2))
    np.testing.assert_array_equal(bases.decomposition.A, np.eye(2))


def test_dual_bases_scalar_normalization():
    tables = two_point_chain()
    bases = dual_bases(tables, WeightSet.zeros(tables.grids))
    np.testing.assert_allclose(bases.decomposition.A, [[2.0]])
    np.testing.assert_allclose(bases.psi[0], [[1, 1]] / np.sqrt(2))
    np.testing.assert_allclose(bases.phi[0], [[1, 1]] / np.sqrt(2))
    mu = tables.grids[0].weights
    assert abs((bases.psi[0] @ (mu * bases.phi[0]).T).item() - 1.0) < 1e-14


def test_walks_match_the_level_loops_bitwise():
    """The pairing expressions and dual bases against the level loops the
    chain walk replaced: the same products in the same order, so equal bits."""
    for seed in range(40):
        tables, ws = random_discrete_instance(seed, m=1 + seed % 5)
        m, f, h, g = tables.m, tables.f_values, tables.h_values, tables.g_values
        e = biortho.dual_masses(tables, ws)
        back, fwd = h * e[m - 1], f * e[0]
        for level in range(m - 2, -1, -1):
            back = (back @ g[level]) * e[level]
        for level in range(m - 1):
            fwd = (fwd @ g[level].T) * e[level + 1]
        a1, am = pairing_expressions(tables, ws)
        np.testing.assert_array_equal(a1, f @ back.T)
        np.testing.assert_array_equal(am, fwd @ h.T)
        bases = dual_bases(tables, ws)
        psi, phi = [bases.psi[0]], [bases.phi[m - 1]]
        for level in range(1, m):
            psi.append((psi[-1] * e[level - 1]) @ g[level - 1].T)
        for level in range(m - 2, -1, -1):
            phi.insert(0, (phi[0] * e[level + 1]) @ g[level])
        for ours, theirs in zip(bases.psi + bases.phi, psi + phi):
            np.testing.assert_array_equal(ours, theirs)


def test_dual_bases_biorthogonality_on_seeded_instance():
    tables = seeded_chain(51, m=3, n=2, sizes=(5, 5, 5))
    ws = uniform_weights(tables, 52, high=0.5)
    bases = dual_bases(tables, ws)
    assert bases.biorthogonality_residual <= 1e-10
    # direct evaluation of the pairing, independently of the stored residual
    for level in range(tables.m):
        e = tables.grids[level].weights * (1 - ws.w[level])
        gram = (bases.psi[level] * e) @ bases.phi[level].T
        np.testing.assert_allclose(gram, np.eye(2), atol=1e-10, rtol=0)


def test_broken_assembly_is_refused_with_residual_and_net(monkeypatch):
    # no float64 assembly leaves a residual of 1e-20, so any instance trips this net
    tables = seeded_chain(51, m=3, n=2, sizes=(5, 5, 5))
    monkeypatch.setattr(biortho, "_ASSEMBLY_NET", 1e-20)
    with pytest.raises(CompositionInconsistency,
                       match=r"residual \d\.\d{3}e-\d\d exceeds the 1e-20 net"):
        dual_bases(tables, uniform_weights(tables, 52, high=0.5))


def test_zero_weights_reduce_to_plain_construction():
    tables, _ = random_discrete_instance(61, m=2, N=2)
    zeros = WeightSet.zeros(tables.grids)
    a_plain = pairing_matrix(tables, zeros)
    a_tilde = pairing_matrix(tables, WeightSet(tuple(np.zeros(g.size)
                                                     for g in tables.grids)))
    np.testing.assert_array_equal(a_plain, a_tilde)
    b1 = dual_bases(tables, zeros)
    b2 = dual_bases(tables, WeightSet.zeros(tables.grids))
    for p, q in zip(b1.psi, b2.psi):
        np.testing.assert_array_equal(p, q)


def test_sign_flips_leave_kernels_unchanged():
    tables, ws = random_discrete_instance(71, m=2, N=3)
    bases = dual_bases(tables, ws)
    kernel = build_K(bases)
    rng = np.random.default_rng(72)
    for _ in range(4):
        flips = np.where(rng.random(tables.N) < 0.5, -1.0, 1.0)
        flipped = type(bases)(
            psi=tuple(flips[:, None] * p for p in bases.psi),
            phi=tuple(flips[:, None] * p for p in bases.phi),
            decomposition=bases.decomposition,
            weight_set=bases.weight_set,
            tables=bases.tables,
            biorthogonality_residual=bases.biorthogonality_residual,
            expression_gap=bases.expression_gap,
        )
        other = build_K(flipped)
        for i in range(1, tables.m + 1):
            for j in range(1, tables.m + 1):
                diff = np.max(np.abs(kernel.block(i, j) - other.block(i, j)))
                assert diff <= 1e-12 * max(1.0, kernel.max_abs())


def test_indicator_weights_restrict_pairing_to_complement():
    tables = seeded_chain(81, m=1, n=2, sizes=(5,))
    ws = from_indicators(tables.grids, [[(-10.0, 0.0)]], [[1.0]])
    A = pairing_matrix(tables, ws)
    keep = np.flatnonzero(ws.w[0] == 0.0)
    mu = tables.grids[0].weights
    expected = (tables.f_values[:, keep] * mu[keep]) @ tables.h_values[:, keep].T
    np.testing.assert_allclose(A, expected, atol=1e-14)
