import numpy as np
import pytest

from detchain import (
    BlockKernel,
    ConditioningError,
    DomainError,
    ResolventSingular,
    StateError,
    WeightSet,
    build_K,
    build_g,
    check_kernel,
    correlation,
    dual_bases,
    flatten,
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


def test_resolvent_zero_weights_is_zero():
    tables, _ = random_discrete_instance(3, m=2, N=2)
    _, Kc = checked_kernel(tables)
    zeros = WeightSet.zeros(tables.grids)
    assert np.max(np.abs(flatten(Kc, zeros).matrix)) == 0.0
    R = resolvent(Kc, zeros)
    # the weighted operator (1 - 0)^{-1} (Kc o 0) is the zero operator
    assert np.max(np.abs(flatten(R, zeros).matrix)) == 0.0


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
    with pytest.raises(ResolventSingular):
        resolvent(Kc, WeightSet.ones(tables.grids))


def test_correlation_empty_points():
    tables = two_point_chain()
    _, Kc = checked_kernel(tables)
    assert correlation(Kc, [[]]) == 1.0


def test_correlation_single_point_is_diagonal_value():
    tables = two_point_chain()
    _, Kc = checked_kernel(tables)
    assert abs(correlation(Kc, [[1]]) - Kc.block(1, 1)[1, 1]) < 1e-15


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


def test_janossy_requires_indicator_weights():
    inst = positive_instance()
    _, Kc = checked_kernel(inst.tables)
    soft = WeightSet(tuple(0.5 * w for w in inst.weights.w))
    with pytest.raises(ValueError):
        janossy(Kc, soft, inst.task.points)


def test_janossy_rejects_point_outside_support():
    inst = positive_instance()
    _, Kc = checked_kernel(inst.tables)
    outside = [[int(np.flatnonzero(w == 0.0)[0])] for w in inst.weights.w]
    with pytest.raises(DomainError):
        janossy(Kc, inst.weights, outside)


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


def test_counts_refuses_deep_extraction():
    rng = np.random.default_rng(55)
    grid = make_discrete_grid(np.arange(12.0), rng.uniform(0.5, 1.5, 12))
    from detchain import from_tables

    tables = from_tables([grid], rng.normal(size=(2, 12)), rng.normal(size=(2, 12)), [])
    _, Kc = checked_kernel(tables)
    with pytest.raises(ConditioningError):
        gap_generating_function(Kc, [[(-1.0, 12.0)]], max_count=9)


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
    assert res.resolvent == 0.0
    assert res.transfer_transfer == 0.0
    assert res.max_residual() <= 1e-12 * res.scale


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
