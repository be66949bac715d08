import numpy as np
import pytest

from detchain import (
    BlockKernel,
    ResolventSingular,
    ShapeError,
    StateError,
    WeightSet,
    build_K,
    build_g,
    check_kernel,
    compose_w,
    correlation,
    dual_bases,
    fredholm_det,
    g_resolvent_residual,
    gap_generating_function,
    janossy,
    joint_density,
    make_discrete_grid,
    resolvent,
    theorem2_residuals,
)
from detchain.instances import monomial_discrete_config, random_discrete_instance
from detchain.cli import parse_instance

from .conftest import two_point_chain


def checked_kernel(tables):
    zeros = WeightSet.zeros(tables.grids)
    bases = dual_bases(tables, zeros)
    return bases, check_kernel(build_K(bases), build_g(tables, zeros))


def positive_instance(seed=77, m=2, N=2, sizes=(4, 4), **kwargs):
    cfg = parse_instance(monomial_discrete_config(seed, m, N, sizes, **kwargs))
    return cfg


def test_det_is_one_for_zero_weights():
    tables, _ = random_discrete_instance(1, m=2, N=2)
    _, Kc = checked_kernel(tables)
    assert fredholm_det(Kc, WeightSet.zeros(tables.grids)) == 1.0


def test_det_vanishes_when_projection_fills_space():
    tables = two_point_chain()
    _, Kc = checked_kernel(tables)
    det = fredholm_det(Kc, WeightSet.ones(tables.grids))
    assert abs(det) < 1e-12


def test_det_requires_checked_kernel():
    tables = two_point_chain()
    bases = dual_bases(tables, WeightSet.zeros(tables.grids))
    K = build_K(bases)
    with pytest.raises(StateError):
        fredholm_det(K, WeightSet.zeros(tables.grids))


def test_det_of_transfer_kernel_is_one():
    # strictly lower block triangular => unipotent
    tables, ws = random_discrete_instance(2, m=3, N=2)
    g = build_g(tables, ws)
    assert abs(fredholm_det(g, ws) - 1.0) < 1e-12
    # so its count generating function is the constant 1; with the rank
    # unknown, each level's degree bound is its node count
    dist = gap_generating_function(g, [[(-3.0, 3.0)]] * tables.m)
    assert len(dist.probabilities) == np.prod([grid.size + 1 for grid in tables.grids])
    assert abs(dist.probability((0,) * tables.m) - 1.0) < 1e-12
    assert max(abs(p) for k, p in dist.probabilities.items() if any(k)) < 1e-12


def test_resolvent_zero_weights_is_zero():
    tables, _ = random_discrete_instance(3, m=2, N=2)
    _, Kc = checked_kernel(tables)
    # S = supp(mu w) is empty, so (1 - Kc o 0)^{-1} Kc is Kc itself
    R = resolvent(Kc, WeightSet.zeros(tables.grids))
    assert np.array_equal(R.matrix, Kc.matrix)


def test_resolvent_scalar_geometric_series():
    grid = make_discrete_grid([0.0], [1.0])
    c = 0.25
    Kc = BlockKernel(matrix=np.array([[c]]), grids=(grid,), checked=True, rank=1)
    ws = WeightSet.ones([grid])
    R = resolvent(Kc, ws)
    np.testing.assert_allclose(R.block(1, 1), [[c / (1 - c)]], rtol=1e-14)


def test_resolvent_singular_rejected():
    tables = two_point_chain()
    _, Kc = checked_kernel(tables)
    with pytest.raises(ResolventSingular, match=r"<= 1\.000e-12, the floor 1e-12 max"):
        resolvent(Kc, WeightSet.ones(tables.grids))


def test_correlation_empty_points():
    tables = two_point_chain()
    _, Kc = checked_kernel(tables)
    assert correlation(Kc, [[]]) == 1.0


def test_correlation_single_point_is_diagonal_value():
    tables = two_point_chain()
    _, Kc = checked_kernel(tables)
    assert abs(correlation(Kc, [[1]]) - Kc.block(1, 1)[1, 1]) < 1e-15


@pytest.mark.parametrize("operation", [
    lambda Kc, w: fredholm_det(Kc, w),
    lambda Kc, w: resolvent(Kc, w),
    lambda Kc, w: compose_w(Kc, w, Kc),
], ids=["fredholm_det", "resolvent", "compose_w"])
def test_short_weight_vector_is_a_shape_error(operation):
    # a length-1 vector on a 4-node level must not be read as a constant weight
    tables, weights = random_discrete_instance(5, m=2, N=2, sizes=(4, 6))
    _, Kc = checked_kernel(tables)
    short = WeightSet((np.array([0.5]), weights.w[1]))
    with pytest.raises(ShapeError, match="level 1: weight vector of length 1 on a grid "
                                         "of size 4"):
        operation(Kc, short)


def test_correlation_validates_points():
    tables = two_point_chain()
    _, Kc = checked_kernel(tables)
    with pytest.raises(IndexError):
        correlation(Kc, [[5]])
    with pytest.raises(ValueError):
        correlation(Kc, [[0, 1]])  # two points exceed rank 1


def test_janossy_empty_points_is_gap_probability():
    inst = positive_instance()
    _, Kc = checked_kernel(inst.tables)
    const = fredholm_det(Kc, inst.weights)
    value = janossy(Kc, inst.weights, [[] for _ in range(inst.tables.m)])
    assert abs(value - const) < 1e-14


def test_joint_density_rank_one_identity():
    tables = two_point_chain()
    bases, Kc = checked_kernel(tables)
    v1, v2 = joint_density(bases, tables, [[0]])
    assert abs(v1 - v2) <= 1e-10 * abs(v1)
    # both reduce to psi(x) phi(x) / Z with Z = 1 here
    assert abs(v1 - float(bases.psi[0][0, 0] * bases.phi[0][0, 0])) < 1e-14


def test_joint_density_agreement_seeded():
    inst = positive_instance(seed=88, sizes=(4, 4))
    bases, _ = checked_kernel(inst.tables)
    config = [[0, 2], [1, 3]]
    v1, v2 = joint_density(bases, inst.tables, config)
    assert abs(v1 - v2) <= 1e-10 * max(abs(v1), 1e-300)


def test_joint_density_invariant_under_particle_relabeling():
    inst = positive_instance(seed=88, sizes=(4, 4))
    bases, _ = checked_kernel(inst.tables)
    v1, v2 = joint_density(bases, inst.tables, [[0, 2], [1, 3]])
    w1, w2 = joint_density(bases, inst.tables, [[2, 0], [1, 3]])
    assert abs(v1 - w1) <= 1e-12 * abs(v1)
    assert abs(v2 - w2) <= 1e-12 * abs(v2)


def test_counts_trivial_distributions():
    inst = positive_instance()
    _, Kc = checked_kernel(inst.tables)
    m = inst.tables.m

    empty = gap_generating_function(Kc, [[] for _ in range(m)])
    assert empty.probabilities == {(0,) * m: 1.0}

    # intervals that miss every node
    off_grid = gap_generating_function(Kc, [[(90.0, 91.0)] for _ in range(m)])
    assert off_grid.probabilities == {(0,) * m: 1.0}


def test_counts_beyond_eight_per_level_match_poisson_binomial():
    # one level, N = 10: det(1 - (1 - xi) Kc_SS mu_S) = prod_i (1 - lam_i + lam_i xi)
    # over the eigenvalues lam_i of Kc[S, S] mu_S
    worst = 0.0
    for seed in range(5):
        tables, _ = random_discrete_instance(200 + seed, m=1, N=10, sizes=(14,))
        _, Kc = checked_kernel(tables)
        nodes = tables.grids[0].nodes
        interval = (float(nodes[1]), float(nodes[-1]))  # nodes 2..13: 12 > N
        S = (nodes > interval[0]) & (nodes <= interval[1])
        lam = np.linalg.eigvals(Kc.matrix[np.ix_(S, S)] * tables.grids[0].weights[S])
        poly = np.array([1.0 + 0j])
        for x in lam:
            poly = np.convolve(poly, [1.0 - x, x])
        dist = gap_generating_function(Kc, [[interval]])
        assert sorted(dist.probabilities) == [(k,) for k in range(11)]
        got = np.array([dist.probability((k,)) for k in range(poly.size)])
        # the eigenvalues need not lie in [0, 1]: scale by the largest coefficient
        worst = max(worst, float(np.max(np.abs(got - poly.real)))
                    / max(1.0, float(np.max(np.abs(poly)))))
    assert worst <= 1e-12


def test_counts_refuse_max_count_that_would_alias():
    inst = positive_instance()
    _, Kc = checked_kernel(inst.tables)
    # one node inside each level's interval: a count of 1 can occur
    with pytest.raises(ValueError, match="max_count 0 is below 1"):
        gap_generating_function(Kc, inst.weight_intervals, max_count=0)


def test_counts_max_count_above_rank_adds_empty_rows():
    inst = positive_instance(m=1, N=2, sizes=(6,))
    _, Kc = checked_kernel(inst.tables)
    nodes = inst.tables.grids[0].nodes
    everything = [[(float(nodes[0]) - 1.0, float(nodes[-1]))]]
    base = gap_generating_function(Kc, everything)
    wide = gap_generating_function(Kc, everything, max_count=3)
    assert set(wide.probabilities) == set(base.probabilities) | {(3,)}
    assert abs(wide.probability((3,))) <= 1e-14
    for key, p in base.probabilities.items():
        assert abs(wide.probability(key) - p) <= 1e-14


def test_janossy_masses_sum_to_one():
    # integrated exact-occupancy masses over all counts exhaust the probability
    import itertools

    inst = positive_instance(seed=101, m=1, N=2, sizes=(5,))
    _, Kc = checked_kernel(inst.tables)
    inside = np.flatnonzero(inst.weights.w[0] == 1.0)
    mu = inst.tables.grids[0].weights
    total = 0.0
    for k in range(inst.tables.N + 1):
        for subset in itertools.combinations(inside, k):
            value = janossy(Kc, inst.weights, [list(subset)])
            total += value * float(np.prod(mu[list(subset)]))
    assert abs(total - 1.0) <= 1e-8


def test_correlation_at_full_configuration_matches_density_determinant():
    from detchain import enumerate_configurations, probnm_total_mass

    inst = positive_instance(seed=88, sizes=(4, 4))
    bases, Kc = checked_kernel(inst.tables)
    enum = enumerate_configurations(inst.tables, bases=bases)
    config = [[0, 2], [1, 3]]
    _, det_branch = joint_density(bases, inst.tables, config)
    corr = correlation(Kc, config)
    rescaled = det_branch * probnm_total_mass(enum, Kc)
    assert abs(corr - rescaled) <= 1e-12 * max(1.0, abs(corr))


def test_theorem2_residuals_zero_weights():
    tables, _ = random_discrete_instance(31, m=3, N=2)
    zeros = WeightSet.zeros(tables.grids)
    res = theorem2_residuals(tables, zeros)
    # w = 0 leaves supp(mu w) empty: no column to solve for, nothing to compare
    assert res.resolvent == 0.0
    assert res.transfer_transfer == 0.0
    assert res.max_residual() <= 1e-12 * res.scale
    assert g_resolvent_residual(tables, zeros) == 0.0


def test_theorem2_residuals_random_weights():
    tables, ws = random_discrete_instance(37, m=3, N=2)
    res = theorem2_residuals(tables, ws)
    assert res.max_residual() <= 1e-10 * res.scale


def test_theorem2_residuals_indicator_weights():
    tables, ws = random_discrete_instance(41, m=3, N=2, indicator=True)
    res = theorem2_residuals(tables, ws)
    assert res.resolvent <= 1e-10 * res.scale


def test_transfer_resolvent_identity():
    tables, ws = random_discrete_instance(43, m=3, N=2)
    assert g_resolvent_residual(tables, ws) <= 1e-10


def dense_reference(Kc, weights):
    """det(1 - M) and (1 - M)^{-1} Kc on the full (sum n)^2 matrix M of Kc o w."""
    col = np.concatenate([g.weights * w for g, w in zip(Kc.grids, weights.w)])
    one_minus = np.eye(col.size) - Kc.matrix * col[None, :]
    return np.linalg.det(one_minus), np.linalg.solve(one_minus, Kc.matrix)


def reference_cases():
    """Seeded instances with soft weights holding zeros, indicator weights, and w = 0."""
    rng = np.random.default_rng(5)
    for seed in range(6):
        tables, ws = random_discrete_instance(500 + seed, m=3, N=2)
        soft = WeightSet(tuple(np.where(rng.random(w.size) < 0.4, 0.0, w) for w in ws.w))
        # two nodes per level stay outside the set, so A^w can have rank N
        yield tables, WeightSet(tuple(np.r_[rng.random(w.size - 2) < 0.5, 0, 0]
                                      .astype(float) for w in ws.w))
        yield tables, soft
        yield tables, WeightSet.zeros(tables.grids)


def test_support_restriction_matches_dense_formulas():
    count = 0
    for tables, ws in reference_cases():
        _, Kc = checked_kernel(tables)
        det_ref, R_ref = dense_reference(Kc, ws)
        scale = max(1.0, float(np.max(np.abs(R_ref))))
        assert abs(fredholm_det(Kc, ws) - det_ref) <= 1e-13 * max(1.0, abs(det_ref))
        R = resolvent(Kc, ws)
        assert np.max(np.abs(R.matrix - R_ref)) <= 1e-13 * scale
        if ws.is_indicator():
            # one point per level where the indicator holds, if it holds there
            points = [[int(np.flatnonzero(w)[0])] if w.any() else [] for w in ws.w]
            idx = [Kc.offsets[j] + p for j, pts in enumerate(points) for p in pts]
            ref = det_ref * (np.linalg.det(R_ref[np.ix_(idx, idx)]) if idx else 1.0)
            got = janossy(Kc, ws, points)
            assert abs(got - ref) <= 1e-13 * scale * max(1.0, abs(ref))
            count += 1
    assert count == 12  # six indicator sets and six w = 0
