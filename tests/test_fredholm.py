import threading
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from detchain import (
    BlockKernel,
    ShapeError,
    SingularPairing,
    StateError,
    WeightSet,
    build_K,
    build_g,
    check_kernel,
    compose_w,
    correlation,
    dual_bases,
    dualize,
    enumerate_configurations,
    fredholm_det,
    from_tables,
    g_resolvent_residual,
    gap_generating_function,
    janossy,
    make_discrete_grid,
    oracle_gap,
    oracle_janossy,
    pairing_matrix,
    resolvent,
    theorem2_residuals,
)
from detchain import cli, kernels
from detchain.chain import indicators
from detchain.fredholm import (
    _identity_products,
    _transfer_resolvent_rows,
    _walked,
    theorem2_residuals_of,
    transfer_resolvent_residual,
)
from detchain.instances import monomial_discrete_config, random_discrete_instance
from detchain.cli import parse_instance

from .conftest import (
    perfbench_module,
    two_point_chain,
    workload_instances,
    zero_gap_m2n2,
)
from .density_forms import joint_density
from .exact_resolvent import exact_resolvent


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


def test_replay_construction_keeps_its_dualization():
    """Bases and g at two distinct zero weight sets, equal by value, give a
    kernel that keeps the bases: its det at w = 0 is exactly 1. No attribute
    can be added to a kernel."""
    tables, _ = random_discrete_instance(1, m=3, N=2)
    bases = dual_bases(tables, WeightSet.zeros(tables.grids))
    Kc = check_kernel(build_K(bases), build_g(tables, WeightSet.zeros(tables.grids)))
    assert Kc.source is bases
    assert fredholm_det(Kc, WeightSet.zeros(tables.grids)) == 1.0
    with pytest.raises(AttributeError):
        Kc.bases = bases


def test_det_vanishes_when_projection_fills_space():
    tables = two_point_chain()
    _, Kc = checked_kernel(tables)
    det = fredholm_det(Kc, WeightSet.ones(tables.grids))
    assert abs(det) < 1e-12


def without_structure(kernel):
    """The same values as a kernel that keeps no dualization."""
    return BlockKernel(matrix=kernel.matrix, grids=kernel.grids, checked=kernel.checked,
                       rank=kernel.rank)


@pytest.mark.parametrize("operation", [
    lambda K, w: fredholm_det(K, w),
    lambda K, w: resolvent(K, w),
    lambda K, w: janossy(K, w, [[0]]),
    lambda K, w: gap_generating_function(K, [[(-1.0, 1.0)]]),
], ids=["fredholm_det", "resolvent", "janossy", "gap_generating_function"])
def test_det_requires_checked_kernel(operation):
    """An unchecked kernel is refused. So is a checked kernel that keeps no
    dualization, although the dense reference reads the same gap from its
    matrix."""
    tables = two_point_chain()
    zeros = WeightSet.zeros(tables.grids)
    K = build_K(dual_bases(tables, zeros))
    with pytest.raises(StateError):
        operation(K, zeros)
    Kc = check_kernel(K, build_g(tables, zeros))
    bare = without_structure(Kc)
    assert abs(dense_reference(bare, zeros)[0] - fredholm_det(Kc, zeros)) <= 1e-13
    with pytest.raises(StateError, match="keeps its dualization"):
        operation(bare, zeros)


def test_det_of_transfer_kernel_is_one():
    # strictly lower block triangular => unipotent; the route refuses build_g's
    # kernel, which keeps no dual bases, so the dense reference judges it
    tables, ws = random_discrete_instance(2, m=3, N=2)
    g = build_g(tables, ws)
    with pytest.raises(StateError):
        fredholm_det(g, ws)
    assert abs(dense_reference(g, ws)[0] - 1.0) < 1e-12
    # so its count generating function is the constant 1; with the rank
    # unknown, each level's degree bound is its node count
    intervals = [[(-3.0, 3.0)]] * tables.m
    with pytest.raises(StateError):
        gap_generating_function(g, intervals)
    table = dense_counts(g, intervals, tuple(grid.size + 1 for grid in tables.grids))
    assert abs(table[(0,) * tables.m] - 1.0) < 1e-12
    table[(0,) * tables.m] = 0.0
    assert np.max(np.abs(table)) < 1e-12


def test_resolvent_zero_weights_is_zero():
    tables, _ = random_discrete_instance(3, m=2, N=2)
    _, Kc = checked_kernel(tables)
    # S = supp(mu w) is empty, so (1 - Kc o 0)^{-1} Kc is Kc itself
    R = resolvent(Kc, WeightSet.zeros(tables.grids))
    assert np.array_equal(R.matrix, Kc.matrix)


def test_resolvent_scalar_geometric_series():
    # one node of mass 4, f = h = 1: Kc = 1/4, M = Kc mu w = w, and the
    # series Kc (1 + M + M^2 + ...) sums to Kc / (1 - w)
    grid = make_discrete_grid([0.0], [4.0], level=1)
    _, Kc = checked_kernel(from_tables([grid], [[1.0]], [[1.0]], []))
    assert Kc.matrix[0, 0] == 0.25
    R = resolvent(Kc, WeightSet((np.array([0.25]),)))
    np.testing.assert_allclose(R.block(1, 1), [[0.25 / (1 - 0.25)]], rtol=1e-14)


def test_resolvent_singular_rejected():
    tables = two_point_chain()
    _, Kc = checked_kernel(tables)
    with pytest.raises(SingularPairing, match=r"condition inf"):
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


def test_janossy_where_the_gap_vanishes():
    """det(1 - Kc o w) = 0 does not stop the Janossy density: the bordered
    determinant matches the enumeration."""
    inst = parse_instance(zero_gap_m2n2())
    bases, Kc = checked_kernel(inst.tables)
    assert abs(fredholm_det(Kc, inst.weights)) <= 1e-12
    ref = oracle_janossy(enumerate_configurations(inst.tables, bases=bases),
                         inst.weights, inst.task.points)
    assert ref > 0.1
    assert abs(janossy(Kc, inst.weights, inst.task.points) - ref) <= 1e-10


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
    from detchain import enumerate_configurations

    from .density_forms import probnm_total_mass

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
    """The walked gap and Janossy density match det(1 - M) and (1 - M)^{-1} Kc
    on the full (sum n)^2 matrix, and the walked resolvent matches
    (1 - M)^{-1} Kc taken to 50 digits."""
    count = 0
    for tables, ws in reference_cases():
        bases, Kc = checked_kernel(tables)
        det_ref, R_ref = dense_reference(Kc, ws)
        scale = max(1.0, float(np.max(np.abs(R_ref))))
        assert abs(fredholm_det(Kc, ws) - det_ref) <= 1e-13 * max(1.0, abs(det_ref))
        R = resolvent(Kc, ws)
        exact = exact_resolvent(tables, bases.weight_set, ws)
        assert np.max(np.abs(R.matrix - exact)) <= 1e-13 * scale
        if ws.is_indicator():
            # one point per level where the indicator holds, if it holds there
            points = [[int(np.flatnonzero(w)[0])] if w.any() else [] for w in ws.w]
            idx = [Kc.offsets[j] + p for j, pts in enumerate(points) for p in pts]
            ref = det_ref * (np.linalg.det(R_ref[np.ix_(idx, idx)]) if idx else 1.0)
            got = janossy(Kc, ws, points)
            assert abs(got - ref) <= 1e-13 * scale * max(1.0, abs(ref))
            count += 1
    assert count == 12  # six indicator sets and six w = 0


def structured_cases():
    """Seeded m = 1..4 instances with soft weights, indicator weights (two
    nodes per level outside the set, so A^w can have rank N) and an empty
    support (w = 0)."""
    rng = np.random.default_rng(6)
    for m in range(1, 5):
        for seed in range(3):
            tables, soft = random_discrete_instance(600 + 10 * m + seed, m=m, N=2)
            indicator = WeightSet(tuple(np.r_[rng.random(w.size - 2) < 0.5, 0, 0]
                                        .astype(float) for w in soft.w))
            for ws in (soft, indicator, WeightSet.zeros(tables.grids)):
                yield tables, ws


def test_structured_products_match_compose_w(tmp_path):
    """Every product of the identity suite, formed from the rank-N factors and
    g's lower blocks, equals the dense compose_w product row block by row
    block, also where gl_chain's row blocks are cut into column chunks."""
    gl = workload_instances("gl_chain", 1, [0], tmp_path)[0]
    for tables, ws in [*structured_cases(), (gl.tables, gl.weights)]:
        plain, dual = dualize(tables, WeightSet.zeros(tables.grids)), dualize(tables, ws)
        scale = theorem2_residuals_of(tables, plain, dual).scale
        dense = {
            "kernel_kernel": compose_w(plain.K, ws, dual.K),
            "kernel_transfer": compose_w(plain.K, ws, dual.g),
            "transfer_kernel": compose_w(plain.g, ws, dual.K),
            "transfer_transfer": compose_w(plain.g, ws, dual.g),
            "checked_product": compose_w(plain.Kc, ws, dual.Kc),
        }
        seen = set()
        for name, i, cols, product, _ in _identity_products(tables, plain, dual):
            o = plain.K.offsets
            ref = dense[name].matrix[o[i - 1]:o[i], cols]
            assert np.max(np.abs(product - ref)) <= 1e-13 * scale, (name, i)
            seen.add((name, i))
        assert len(seen) == 5 * tables.m


def test_forward_substitution_matches_dense_transfer_resolvent():
    for tables, ws in structured_cases():
        gt, g = build_g(tables, ws), build_g(tables, WeightSet.zeros(tables.grids))
        col = np.concatenate([grid.weights * w for grid, w in zip(tables.grids, ws.w)])
        B = gt.matrix * col
        dense = np.linalg.solve(np.eye(col.size) - B, B)
        scale = max(1.0, g.max_abs(), gt.max_abs())
        o = gt.offsets
        for i, X in _transfer_resolvent_rows(gt, ws):
            rows = dense[o[i - 1]:o[i]]
            assert np.max(np.abs(X - rows[:, :o[i - 1]]), initial=0.0) <= 1e-13 * scale
            assert np.max(np.abs(rows[:, o[i - 1]:]), initial=0.0) <= 1e-13 * scale
        assert transfer_resolvent_residual(gt, ws, g) <= 1e-13 * scale


def check_rows(tables, plain, dual):
    """check's rows as {name: (residual, bound)} on the given records."""
    return {name: (value, bound)
            for name, value, bound in cli.check_rows(tables, plain, dual, 1e-10)}


def perturbed(kernel, i, j):
    """The kernel with the largest entry of block (i, j) raised by 1e-7 relative."""
    o = kernel.offsets
    matrix = kernel.matrix.copy()
    block = matrix[o[i - 1]:o[i], o[j - 1]:o[j]]
    r, c = np.unravel_index(np.argmax(np.abs(block)), block.shape)
    block[r, c] *= 1.0 + 1e-7
    return BlockKernel(matrix=matrix, grids=kernel.grids, checked=kernel.checked,
                       rank=kernel.rank)


@pytest.mark.parametrize("target, judged", [
    ("dual g", {"identity_resolvent", "identity_checked_product",
                "identity_transfer_transfer", "identity_kernel_transfer",
                "transfer_resolvent", "factorization_dual"}),
    ("dual K", {"identity_resolvent", "identity_checked_product",
                "identity_transfer_kernel", "construction_invariance",
                "factorization_dual"}),
    ("plain K", {"identity_resolvent", "identity_checked_product",
                 "identity_kernel_transfer", "factorization_plain"}),
])
def test_no_row_is_tautological(target, judged):
    """A 1e-7 relative change of one stored entry puts every row that reads
    that input over its bound, and leaves the others within theirs."""
    tables, ws = random_discrete_instance(47, m=3, N=2)
    plain, dual = dualize(tables, WeightSet.zeros(tables.grids)), dualize(tables, ws)
    assert all(v <= b for v, b in check_rows(tables, plain, dual).values())
    if target == "dual g":
        dual = replace(dual, g=perturbed(dual.g, 3, 1))
    elif target == "dual K":
        dual = replace(dual, K=perturbed(dual.K, 2, 2))
    else:
        plain = replace(plain, K=perturbed(plain.K, 2, 2))
    rows = check_rows(tables, plain, dual)
    over = {name for name, (v, b) in rows.items() if v > b}
    assert over == judged, rows


def dense_counts(Kc, intervals, shape):
    """The count table from one dense determinant det(1 - M_SS diag(1 - xi))
    per root-of-unity tuple, inverted by the FFT."""
    chi = np.concatenate(indicators(Kc.grids, intervals))
    col = np.concatenate([g.weights for g in Kc.grids]) * chi
    S = np.flatnonzero(col)
    level = np.searchsorted(np.asarray(Kc.offsets), S, side="right") - 1
    values = np.empty(shape, dtype=complex)
    for k in np.ndindex(shape):
        xi = np.exp(2j * np.pi * np.array(k) / np.array(shape))
        M = Kc.matrix[np.ix_(S, S)] * (col[S] * (1.0 - xi[level]))
        values[k] = np.linalg.det(np.eye(S.size) - M)
    return np.fft.fftn(values).real / values.size


def one_route_cases(tmp_path):
    """(Kc, weights, intervals, max_counts, exact) for structured_cases() with
    every node inside the count intervals, and gl_chain seed 1 config 0 with
    its own. ``exact`` is the resolvent taken to 50 digits on the discrete
    cases, and None on the gl_chain one, whose reference is the dense LU."""
    for tables, ws in structured_cases():
        everything = [[(float(g.nodes[0]) - 1.0, float(g.nodes[-1]))] for g in tables.grids]
        bases, Kc = checked_kernel(tables)
        yield Kc, ws, everything, (None, 3), exact_resolvent(tables, bases.weight_set, ws)
    inst = workload_instances("gl_chain", 1, [0], tmp_path)[0]
    yield (checked_kernel(inst.tables)[1], inst.weights, inst.weight_intervals, (None,),
           None)


def kernels_without_structure():
    """(Kc, weights, intervals): build_g's kernel, K less a g built from other
    transfer tables on the same grids, K less a g that is not strictly
    block-lower, and a 1 x 1 matrix."""
    tables, ws = random_discrete_instance(2, m=3, N=2)
    yield build_g(tables, ws), ws, [[(-3.0, 3.0)]] * tables.m
    other = replace(tables, g_values=tuple(g[::-1] for g in tables.g_values))
    yield (check_kernel(build_K(dual_bases(tables, WeightSet.zeros(tables.grids))),
                        build_g(other, WeightSet.zeros(tables.grids))),
           ws, [[(-3.0, 3.0)]] * tables.m)
    g = build_g(tables, WeightSet.zeros(tables.grids))
    full = BlockKernel(matrix=g.matrix + 0.01, grids=g.grids, checked=True)
    yield (check_kernel(build_K(dual_bases(tables, WeightSet.zeros(tables.grids))), full),
           ws, [[(-3.0, 3.0)]] * tables.m)
    grid = make_discrete_grid([0.0], [0.8])
    yield (BlockKernel(matrix=np.array([[0.7]]), grids=(grid,), checked=True, rank=1),
           WeightSet.ones([grid]), [[(-1.0, 1.0)]])


def points_around(Kc, ws, rank):
    """Per level, a node inside S = supp(mu w) and one outside it, where there are."""
    points = []
    for grid, w in zip(Kc.grids, ws.w):
        inside, outside = np.flatnonzero(grid.weights * w), np.flatnonzero(w == 0)
        points.append([int(p[len(p) // 2]) for p in (inside, outside) if p.size])
    return [p[:rank] for p in points]


def test_one_route_matches_dense_reference(tmp_path):
    """fredholm_det, resolvent, janossy and correlation, walked from the
    kernel's dualization, agree with the dense (sum n)^2 formulas (the
    resolvent on the discrete cases with its 50-digit value), and the count
    table with one dense determinant per root tuple. A kernel that keeps no
    dualization is refused by all five."""
    for Kc, ws, intervals, max_counts, exact in one_route_cases(tmp_path):
        det_ref, R_ref = dense_reference(Kc, ws)
        scale = max(1.0, float(np.max(np.abs(R_ref))))
        assert abs(fredholm_det(Kc, ws) - det_ref) <= 1e-13 * max(1.0, abs(det_ref))
        reference = R_ref if exact is None else exact
        assert np.max(np.abs(resolvent(Kc, ws).matrix - reference)) <= 1e-13 * scale
        points = points_around(Kc, ws, Kc.rank)
        idx = [Kc.offsets[j] + p for j, pts in enumerate(points) for p in pts]
        ref = det_ref * np.linalg.det(R_ref[np.ix_(idx, idx)])
        assert abs(janossy(Kc, ws, points) - ref) <= 1e-13 * scale * max(1.0, abs(ref))
        ref = np.linalg.det(Kc.matrix[np.ix_(idx, idx)])
        assert abs(correlation(Kc, points) - ref) <= 1e-13 * max(1.0, abs(ref))
        for max_count in max_counts:
            dist = gap_generating_function(Kc, intervals, max_count)
            shape = tuple(np.array(max(dist.probabilities)) + 1)
            table = dense_counts(Kc, intervals, shape)
            worst = max(abs(p - table[k]) for k, p in dist.probabilities.items())
            assert worst <= 1e-13 * max(1.0, float(np.max(np.abs(table))))
    for Kc, ws, intervals in kernels_without_structure():
        points = points_around(Kc, ws, Kc.rank or 1)
        for refused in (lambda: fredholm_det(Kc, ws), lambda: resolvent(Kc, ws),
                        lambda: janossy(Kc, ws, points),
                        lambda: correlation(Kc, points),
                        lambda: gap_generating_function(Kc, intervals)):
            with pytest.raises(StateError, match="keeps its dualization"):
                refused()


def test_kernel_dualized_at_w_walks_with_its_own_masses():
    """A kernel dualized at u is walked with mu (1 - u - v) for weights v:
    fredholm_det, janossy and correlation agree with the dense formulas on
    its matrix, to the bounds of test_one_route_matches_dense_reference."""
    rng = np.random.default_rng(9)
    for tables, ws in structured_cases():
        Kc = dualize(tables, ws).Kc
        v = WeightSet(tuple(rng.random(w.size) * (1.0 - w) for w in ws.w))
        det_ref, R_ref = dense_reference(Kc, v)
        scale = max(1.0, float(np.max(np.abs(R_ref))))
        assert abs(fredholm_det(Kc, v) - det_ref) <= 1e-13 * max(1.0, abs(det_ref))
        points = points_around(Kc, v, Kc.rank)
        idx = [Kc.offsets[j] + p for j, pts in enumerate(points) for p in pts]
        ref = det_ref * np.linalg.det(R_ref[np.ix_(idx, idx)])
        assert abs(janossy(Kc, v, points) - ref) <= 1e-13 * scale * max(1.0, abs(ref))
        ref = np.linalg.det(Kc.matrix[np.ix_(idx, idx)])
        assert abs(correlation(Kc, points) - ref) <= 1e-13 * max(1.0, abs(ref))


def test_w_pairing_is_the_plain_dual_pairing(tmp_path):
    """P, psi^(1) walked up with mu (1 - w) and paired with phi^(m), is the
    w-pairing of the plain dual bases, (PL)^{-1} A^w U^{-1} from the plain
    record's PLU, and its determinant is det A^w / det A^0; both to
    N cond(A^w) eps relative."""
    instances = workload_instances("discrete_verify", 401, range(1, 61), tmp_path)
    instances += workload_instances("gl_chain", 1, range(3), tmp_path)
    eps = np.finfo(float).eps
    for inst in instances:
        bases = dual_bases(inst.tables, WeightSet.zeros(inst.tables.grids))
        pairing = _walked(bases, inst.weights)[2]
        dec = bases.decomposition
        A = pairing_matrix(inst.tables, inst.weights)
        dual = np.linalg.solve(dec.L, A[dec.permutation]) @ np.linalg.inv(dec.U)
        bound = inst.tables.N * np.linalg.cond(A) * eps
        assert np.max(np.abs(pairing - dual)) <= bound * np.max(np.abs(dual))
        ratio = np.linalg.det(A) / np.linalg.det(dec.A)
        assert abs(np.linalg.det(pairing) - ratio) <= bound * abs(ratio)


def small_gap_chains():
    """monomial_discrete_config(seed, m, 2, (7,) * m, coupling=1.0) for seeds
    1-20 and m = 2, 3, with w = 1 except on nodes 5 and 6 of each level: the
    gap is the probability that every point sits on those two nodes."""
    for seed in range(1, 21):
        for m in (2, 3):
            raw = monomial_discrete_config(seed, m, 2, (7,) * m, coupling=1.0)
            raw["weights"] = {"vectors": [[1.0] * 5 + [0.0, 0.0]] * m}
            yield parse_instance(raw)


def test_small_gaps_are_accurate_in_relative_terms():
    """fredholm_det is within N cond(P) eps relative of the enumerated gap,
    the first-order bound of docs/conventions.md, on gaps down to 5e-13."""
    eps = np.finfo(float).eps
    smallest = 1.0
    for inst in small_gap_chains():
        bases, Kc = checked_kernel(inst.tables)
        P = _walked(bases, inst.weights)[2]
        ref = oracle_gap(enumerate_configurations(inst.tables, bases=bases), inst.weights)
        bound = inst.tables.N * np.linalg.cond(P) * eps
        assert abs(fredholm_det(Kc, inst.weights) - ref) <= bound * ref
        smallest = min(smallest, ref)
    assert smallest < 1e-12


def test_small_gap_resolvents_are_within_the_conditioning_bound():
    """resolvent serves all 40 small-gap chains, each within cond(A^w) eps
    max(1, max|R|) of (1 - M)^{-1} Kc taken to 50 digits: the bound of
    docs/conventions.md."""
    eps = np.finfo(float).eps
    for inst in small_gap_chains():
        bases, Kc = checked_kernel(inst.tables)
        exact = exact_resolvent(inst.tables, bases.weight_set, inst.weights)
        scale = max(1.0, float(np.max(np.abs(exact))))
        bound = np.linalg.cond(pairing_matrix(inst.tables, inst.weights)) * eps * scale
        assert np.max(np.abs(resolvent(Kc, inst.weights).matrix - exact)) <= bound


def factored_orders(monkeypatch):
    """A list to which every later np.linalg det, slogdet, solve and inv call
    appends the order of its matrix."""
    orders = []
    for name in ("det", "slogdet", "solve", "inv"):
        def recorded(a, *args, _f=getattr(np.linalg, name), **kwargs):
            orders.append(np.shape(a)[-1])
            return _f(a, *args, **kwargs)
        monkeypatch.setattr(np.linalg, name, recorded)
    return orders


def test_structured_kernels_factor_nothing_larger_than_n_plus_points(tmp_path, monkeypatch):
    """On a kernel that keeps its dualization, every matrix fredholm_det, janossy
    and gap_generating_function factor is at most N + k square, k the number
    of points, while S holds hundreds of nodes."""
    inst = workload_instances("gl_chain", 1, [0], tmp_path)[0]
    Kc = dualize(inst.tables, WeightSet.zeros(inst.tables.grids)).Kc
    assert np.count_nonzero(np.concatenate(inst.weights.w)) > 300
    orders = factored_orders(monkeypatch)
    fredholm_det(Kc, inst.weights)
    janossy(Kc, inst.weights, inst.task.points)
    gap_generating_function(Kc, inst.weight_intervals, inst.task.max_count)
    k = sum(len(p) for p in inst.task.points)
    assert orders and max(orders) <= inst.tables.N + k


def test_check_factors_nothing_larger_than_the_support(tmp_path, monkeypatch):
    """check's dense reference factors 1 - M on S = supp(mu w) only: no matrix
    check factors is larger than |S|, which is below the sum of the level sizes."""
    config = str(perfbench_module("workloads").WORKLOADS["gl_chain"](1, tmp_path)
                 .config_for(0))
    inst = cli.load_instance(config)
    support = sum(int(np.count_nonzero(g.weights * w))
                  for g, w in zip(inst.tables.grids, inst.weights.w))
    assert support < sum(g.size for g in inst.tables.grids) == 768
    orders = factored_orders(monkeypatch)
    assert cli.main(["check", "--config", config]) == 0
    assert orders and max(orders) <= support


def test_check_forms_no_checked_kernel(monkeypatch):
    """check reads the checked kernels' scale and S columns from K and g, so
    it never makes K - g; the scale is max|K - g| to the last bit."""
    for tables, ws in structured_cases():
        plain, dual = dualize(tables, WeightSet.zeros(tables.grids)), dualize(tables, ws)
        scale = max(1.0, plain.Kc.max_abs(), dual.Kc.max_abs())
        with monkeypatch.context() as patched:
            made = []
            patched.setattr(kernels.Dualization, "Kc", property(made.append))
            name, _, bound = cli.check_rows(tables, plain, dual, 1.0)[0]
            assert made == []
        assert (name, bound) == ("identity_resolvent", scale)


def test_check_memory_stays_below_two_kernel_arrays(tmp_path, monkeypatch):
    """The tracemalloc peak of check_rows on gl_chain seed 1, config 0, with
    both records' K and g formed and both threads counted, stays below 2
    (sum n_j)^2 arrays, on the serial path and on the split. The bound is the
    largest temporaries that can be live at once: the resolvent reference
    holds M_S, X and (1 - M_SS)^{-1} M_SS (about one array at |S| = 315 of
    768) while the factorization holds a scaled level block of K and its
    product (2/3 of one), plus the streamed chunks. Whole-matrix row
    judgement needed 3.02."""
    inst = workload_instances("gl_chain", 1, [0], tmp_path)[0]
    tables = inst.tables
    plain, dual = dualize(tables, WeightSet.zeros(tables.grids)), dualize(tables, inst.weights)
    for record in (plain, dual):
        record.K.matrix, record.g.matrix
    full = plain.K.matrix.nbytes
    for cpus in (1, 2):
        monkeypatch.setattr(cli, "_cpus", lambda: cpus)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            cli.check_rows(tables, plain, dual, 1e-10)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak < 2.0 * full, (cpus, peak / full)


def split_cases(tmp_path):
    """gl_chain seed 1, configs 0-2, and structured_cases()."""
    for inst in workload_instances("gl_chain", 1, range(3), tmp_path):
        yield inst.tables, inst.weights
    yield from structured_cases()


def test_split_rows_are_the_serial_rows_bit_for_bit(tmp_path, monkeypatch):
    """check_rows on one CPU and split over two threads, down to the smallest
    instances, give the same rows to the last bit."""
    splits = []
    alongside = cli._alongside
    monkeypatch.setattr(cli, "_alongside", lambda *a: splits.append(1) or alongside(*a))
    count = 0
    for tables, ws in split_cases(tmp_path):
        plain, dual = dualize(tables, WeightSet.zeros(tables.grids)), dualize(tables, ws)
        with monkeypatch.context() as patched:
            patched.setattr(cli, "_cpus", lambda: 1)
            serial = cli.check_rows(tables, plain, dual, 1e-10)
        with monkeypatch.context() as patched:
            patched.setattr(cli, "_cpus", lambda: 2)
            patched.setattr(cli, "SPLIT_ABOVE", 0)
            split = cli.check_rows(tables, plain, dual, 1e-10)
        assert split == serial
        count += 1
    assert len(splits) == count == 3 + 36


def test_refusal_on_the_kernel_thread_exits_3(tmp_path, monkeypatch, capsys):
    """A SingularPairing raised on the second thread reaches main as a
    refusal: check exits 3, and no thread is left running."""
    config = str(perfbench_module("workloads").WORKLOADS["gl_chain"](1, tmp_path)
                 .config_for(0))
    raised_on = []

    def singular(tables, weights):
        raised_on.append(threading.current_thread())
        raise SingularPairing("pairing matrix is numerically singular (test)")
    monkeypatch.setattr(cli, "kernel_via_inverse", singular)
    monkeypatch.setattr(cli, "_cpus", lambda: 2)
    threads = threading.active_count()
    assert cli.main(["check", "--config", config]) == 3
    assert "SingularPairing" in capsys.readouterr().err
    assert raised_on and raised_on[0] is not threading.main_thread()
    assert threading.active_count() == threads
