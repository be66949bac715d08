import tracemalloc

import numpy as np
import pytest

from detchain import (
    BlockKernel,
    ShapeError,
    StateError,
    WeightSet,
    build_K,
    build_g,
    check_kernel,
    compose_w,
    dual_bases,
    dualize,
    factorization_residual,
    from_tables,
    kernel_via_inverse,
    make_discrete_grid,
)
from detchain.check import check_rows
from detchain.instances import random_discrete_instance

from .conftest import seeded_chain, two_point_chain, uniform_weights, workload_instances


def plain_parts(tables):
    zeros = WeightSet.zeros(tables.grids)
    bases = dual_bases(tables, zeros)
    return zeros, bases, build_K(bases), build_g(tables, zeros)


def test_build_K_rank_one_trace():
    tables = two_point_chain()
    zeros, bases, K, _ = plain_parts(tables)
    block = K.block(1, 1)
    assert np.linalg.matrix_rank(block) == 1
    mu = tables.grids[0].weights
    assert abs(float(np.sum(np.diag(block) * mu)) - 1.0) < 1e-14


def test_build_K_blocks_have_rank_at_most_N():
    tables, ws = random_discrete_instance(3, m=3, N=2, sizes=(4, 5, 6))
    _, _, K, _ = plain_parts(tables)
    for i in range(1, 4):
        for j in range(1, 4):
            assert np.linalg.matrix_rank(K.block(i, j)) <= 2
    assert K.rank == 2


def test_build_K_matches_inverse_construction():
    tables, ws = random_discrete_instance(5, m=2, N=2)
    bases = dual_bases(tables, ws)
    built = build_K(bases)
    via_inv = kernel_via_inverse(tables, ws)
    scale = max(1.0, built.max_abs())
    for i in range(1, 3):
        for j in range(1, 3):
            diff = np.max(np.abs(built.block(i, j) - via_inv.block(i, j)))
            assert diff <= 1e-12 * scale


def test_build_g_single_level_is_zero():
    tables = two_point_chain()
    g = build_g(tables, WeightSet.zeros(tables.grids))
    assert g.matrix.shape == (2, 2)
    assert not np.any(g.block(1, 1))


def test_build_g_two_levels():
    tables = seeded_chain(7, m=2, n=2, sizes=(3, 4))
    g = build_g(tables, WeightSet.zeros(tables.grids))
    np.testing.assert_array_equal(g.block(2, 1), tables.g_values[0])
    for i, j in ((1, 1), (1, 2), (2, 2)):
        assert not np.any(g.block(i, j))


def test_build_g_three_levels_plain_composite():
    tables = seeded_chain(9, m=3, n=2, sizes=(3, 4, 5))
    g = build_g(tables, WeightSet.zeros(tables.grids))
    g21, g32 = tables.g_values
    mu2 = tables.grids[1].weights
    np.testing.assert_allclose(g.block(3, 1), g32 @ (mu2[:, None] * g21), rtol=1e-14)


def test_build_g_four_levels_carries_blocks_up_one_level_at_a_time():
    # two intermediate levels, soft weights: the composites are the products
    # g diag(e) g diag(e) g, e = mu (1 - w), taken from the source level up
    tables = seeded_chain(19, m=4, n=2, sizes=(3, 4, 5, 4))
    ws = uniform_weights(tables, 20)
    g = build_g(tables, ws)
    g21, g32, g43 = tables.g_values
    e2, e3 = (grid.weights * (1.0 - w) for grid, w in zip(tables.grids[1:3], ws.w[1:3]))
    g31 = g32 @ (e2[:, None] * g21)
    np.testing.assert_array_equal(g.block(3, 1), g31)
    np.testing.assert_array_equal(g.block(4, 1), g43 @ (e3[:, None] * g31))
    np.testing.assert_array_equal(g.block(4, 2), g43 @ (e3[:, None] * g32))


def test_check_kernel_subtracts_lower_blocks_only():
    tables = seeded_chain(11, m=2, n=2, sizes=(4, 4))
    zeros, bases, K, g = plain_parts(tables)
    Kc = check_kernel(K, g)
    assert Kc.checked
    np.testing.assert_array_equal(Kc.block(1, 1), K.block(1, 1))
    np.testing.assert_array_equal(Kc.block(1, 2), K.block(1, 2))
    np.testing.assert_allclose(Kc.block(2, 1),
                               K.block(2, 1) - tables.g_values[0], rtol=1e-14)


def test_check_kernel_single_level_identity():
    tables = two_point_chain()
    zeros, bases, K, g = plain_parts(tables)
    Kc = check_kernel(K, g)
    np.testing.assert_array_equal(Kc.block(1, 1), K.block(1, 1))


def test_check_kernel_rejects_checked_input():
    tables = two_point_chain()
    zeros, bases, K, g = plain_parts(tables)
    Kc = check_kernel(K, g)
    with pytest.raises(StateError):
        check_kernel(Kc, g)


def test_kernel_matrix_is_frozen_in_place():
    """BlockKernel keeps the array it is given, made read-only, not a copy."""
    tables = seeded_chain(11, m=2, n=2, sizes=(4, 4))
    _, _, K, g = plain_parts(tables)
    matrix = K.matrix - g.matrix
    Kc = BlockKernel(matrix=matrix, grids=K.grids, checked=True, rank=K.rank)
    assert Kc.matrix is matrix
    for kernel in (K, g, Kc, check_kernel(K, g)):
        assert not kernel.matrix.flags.writeable
        with pytest.raises(ValueError):
            kernel.matrix[0, 0] = 1.0
        with pytest.raises(ValueError):
            kernel.block(1, 1)[0, 0] = 1.0


def test_compose_with_zero_weights_vanishes():
    tables, _ = random_discrete_instance(13, m=2, N=2)
    zeros, bases, K, g = plain_parts(tables)
    out = compose_w(K, zeros, K)
    for i in range(1, 3):
        for j in range(1, 3):
            np.testing.assert_array_equal(out.block(i, j), np.zeros_like(out.block(i, j)))


def test_projection_idempotence_under_full_weights():
    tables = seeded_chain(15, m=1, n=3, sizes=(6,))
    zeros, bases, K, g = plain_parts(tables)
    ones = WeightSet.ones(tables.grids)
    KK = compose_w(K, ones, K)
    assert np.max(np.abs(KK.block(1, 1) - K.block(1, 1))) <= 1e-11 * max(1.0, K.max_abs())


def test_compose_associativity():
    tables, ws = random_discrete_instance(17, m=3, N=2)
    bases = dual_bases(tables, ws)
    K = build_K(bases)
    g = build_g(tables, ws)
    left = compose_w(compose_w(K, ws, g), ws, K)
    right = compose_w(K, ws, compose_w(g, ws, K))
    scale = max(1.0, K.max_abs()) ** 2
    for i in range(1, 4):
        for j in range(1, 4):
            assert np.max(np.abs(left.block(i, j) - right.block(i, j))) <= 1e-11 * scale


def test_compose_matches_blockwise_sum():
    tables, ws = random_discrete_instance(21, m=3, N=2, sizes=(3, 5, 4))
    zeros = WeightSet.zeros(tables.grids)
    K = build_K(dual_bases(tables, zeros))
    g, gt = build_g(tables, zeros), build_g(tables, ws)
    assert len({float(v) for w in ws.w for v in w}) > 1
    # compose_w sums over supp(mu w) only: weights holding zeros, indicator
    # weights and w = 0 (empty support) drop inner nodes
    rng = np.random.default_rng(21)
    holding_zeros = WeightSet(tuple(np.where(rng.random(w.size) < 0.4, 0.0, w)
                                    for w in ws.w))
    indicator = WeightSet(tuple((rng.random(w.size) < 0.5).astype(float) for w in ws.w))
    for weights in (holding_zeros, indicator):
        flat = np.concatenate(weights.w)
        assert np.any(flat == 0) and np.any(flat != 0)
    eps = np.finfo(float).eps
    for weights in (ws, holding_zeros, indicator, zeros):
        mw = [grid.weights * w for grid, w in zip(tables.grids, weights.w)]
        for A, B in ((g, gt), (gt, g), (K, gt), (g, K)):
            out = compose_w(A, weights, B)
            for i in range(1, 4):
                for k in range(1, 4):
                    terms = [(A.block(i, j) * mw[j - 1][None, :]) @ B.block(j, k)
                             for j in range(1, 4)]
                    ref = sum(terms)
                    size = sum((np.abs(A.block(i, j)) * np.abs(mw[j - 1])[None, :])
                               @ np.abs(B.block(j, k)) for j in range(1, 4))
                    # both sums run over the 12 inner nodes: 2 * 12 * eps per
                    # entry; entries with no support term are exactly 0
                    assert np.all(np.abs(out.block(i, k) - ref) <= 24 * eps * size)
                    if A is not K and B is not K and i <= k + 1:
                        assert not np.any(out.block(i, k))


def test_compose_rejects_mismatched_grids():
    t1 = seeded_chain(19, m=2, n=2, sizes=(4, 4))
    t2 = seeded_chain(20, m=2, n=2, sizes=(4, 5))
    _, _, K1, _ = plain_parts(t1)
    _, _, K2, _ = plain_parts(t2)
    with pytest.raises(ShapeError):
        compose_w(K1, WeightSet.zeros(t1.grids), K2)


def test_kernel_via_inverse_scalar_example():
    tables = two_point_chain()
    K = kernel_via_inverse(tables, WeightSet.zeros(tables.grids))
    np.testing.assert_allclose(K.block(1, 1), np.full((2, 2), 0.5))


def test_kernel_via_inverse_identity_pairing():
    grid = make_discrete_grid([0.0, 1.0], [1.0, 1.0])
    tables = from_tables([grid], np.eye(2), np.eye(2), [])
    K = kernel_via_inverse(tables, WeightSet.zeros([grid]))
    np.testing.assert_allclose(K.block(1, 1),
                               tables.f_values.T @ tables.h_values, atol=1e-14)


def test_factorization_residual_vacuous_single_level():
    tables = two_point_chain()
    zeros, bases, K, g = plain_parts(tables)
    assert factorization_residual(K, g, tables, zeros) == 0.0


@pytest.mark.parametrize("weighted", [False, True])
def test_factorization_residual_seeded(weighted):
    tables, ws = random_discrete_instance(23, m=3, N=2)
    if not weighted:
        ws = WeightSet.zeros(tables.grids)
    bases = dual_bases(tables, ws)
    K = build_K(bases)
    g = build_g(tables, ws)
    assert factorization_residual(K, g, tables, ws) <= 1e-11 * max(1.0, K.max_abs())


def test_projection_property_on_dual_rows():
    tables, ws = random_discrete_instance(29, m=3, N=2)
    bases = dual_bases(tables, ws)
    K = build_K(bases)
    for level in range(tables.m):
        e = tables.grids[level].weights * (1 - ws.w[level])
        block = K.block(level + 1, level + 1)
        projected = block @ (e[:, None] * bases.psi[level].T)
        assert np.max(np.abs(projected - bases.psi[level].T)) <= 1e-10 * max(1.0, K.max_abs())
        projected_t = block.T @ (e[:, None] * bases.phi[level].T)
        assert np.max(np.abs(projected_t - bases.phi[level].T)) <= 1e-10 * max(1.0, K.max_abs())


@pytest.mark.parametrize("m", [1, 4])
def test_walked_constructions_meet_check_bounds(m):
    """check's identity, construction and factorization rows on 40 seeded
    instances with m levels, each held to the bound check gives it."""
    worst = dict.fromkeys(("identity", "construction", "factorization"), 0.0)
    for seed in range(40):
        tables, ws = random_discrete_instance(seed, m=m)
        plain, dual = dualize(tables, WeightSet.zeros(tables.grids)), dualize(tables, ws)
        for name, value, bound in check_rows(plain, dual, 1e-10):
            kind = name.split("_")[0]
            if kind in worst:
                worst[kind] = max(worst[kind], value / bound)
    assert max(worst.values()) <= 1.0, worst


def test_factorization_residual_holds_no_full_size_temporary(tmp_path):
    """The relations are judged one level at a time: on a three-level
    gl_chain record, the memory factorization_residual allocates peaks below
    one (sum n_j)^2 array."""
    inst = workload_instances("gl_chain", 1, [0], tmp_path)[0]
    assert inst.tables.m == 3
    dual = dualize(inst.tables, inst.weights)
    full = dual.K.matrix.nbytes
    dual.g.matrix  # K and g formed before the measurement
    tracemalloc.start()
    try:
        factorization_residual(dual.K, dual.g, inst.tables, inst.weights)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < full, peak / full
