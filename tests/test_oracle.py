import math

import numpy as np
import pytest

from detchain import (
    DegenerateBasis,
    NotAProbability,
    ShapeError,
    WeightSet,
    build_K,
    build_g,
    check_kernel,
    correlation,
    dual_bases,
    enumerate_configurations,
    fredholm_det,
    from_indicators,
    from_tables,
    gap_generating_function,
    janossy,
    make_discrete_grid,
    make_gauss_legendre_grid,
    oracle_correlation,
    oracle_counts,
    oracle_gap,
    oracle_janossy,
    probnm_total_mass,
)
from detchain import oracle
from detchain.oracle import Enumeration
from detchain.cli import parse_instance
from detchain.instances import monomial_discrete_config, random_discrete_instance

from .conftest import soft_m2n2, two_point_chain


def positive_setup(seed=77, m=2, N=2, sizes=(4, 4), raw=None, **kwargs):
    if raw is None:
        raw = monomial_discrete_config(seed, m, N, sizes, **kwargs)
    inst = parse_instance(raw)
    zeros = WeightSet.zeros(inst.tables.grids)
    bases = dual_bases(inst.tables, zeros)
    kernel = check_kernel(build_K(bases), build_g(inst.tables, zeros))
    enum = enumerate_configurations(inst.tables, bases=bases)
    return inst, bases, kernel, enum


def test_total_mass_is_factorial_power():
    # normalized dual bases make the total mass exactly (N!)^m
    tables = two_point_chain()
    enum = enumerate_configurations(tables)
    assert abs(enum.total_mass - 1.0) < 1e-14

    inst, _, _, enum = positive_setup(seed=5, m=2, N=2, sizes=(4, 4))
    assert abs(enum.total_mass - math.factorial(2) ** 2) < 1e-10


def test_rank_exceeding_grid_is_rejected_upstream():
    # N = 2 on a single-node level cannot even form full-rank tables
    grid = make_discrete_grid([0.0], [1.0])
    with pytest.raises(DegenerateBasis):
        from_tables([grid], [[1.0], [2.0]], [[1.0], [2.0]], [])


def test_nonpositive_total_mass_guard():
    tables = two_point_chain()
    enum = enumerate_configurations(tables)
    with pytest.raises(NotAProbability):
        Enumeration(tables, enum.bases, enum.tuples, np.zeros_like(enum.weights))
    with pytest.raises(NotAProbability):
        Enumeration(tables, enum.bases, enum.tuples,
                    np.full_like(enum.weights, np.nan))


def test_enumeration_requires_discrete_grids():
    grid = make_gauss_legendre_grid((0.0, 1.0), 4)
    tables = from_tables([grid], np.eye(4)[:1], np.eye(4)[:1], [])
    with pytest.raises(ValueError):
        enumerate_configurations(tables)


def test_enumeration_cap(monkeypatch):
    inst, bases, _, _ = positive_setup()
    monkeypatch.setattr(oracle, "MAX_CONFIGURATIONS", 10)
    with pytest.raises(ValueError):
        enumerate_configurations(inst.tables, bases=bases)


def test_normalized_weights_sum_to_one():
    _, _, _, enum = positive_setup(seed=9)
    assert abs(float(enum.prob.sum()) - 1.0) <= 1e-12


def test_weights_symmetric_under_relabeling():
    _, _, _, enum = positive_setup(seed=11)
    tup = enum.tuples[0]
    # tuples (a, b) and (b, a) index transposed labeled configurations
    lookup = {tuple(t): i for i, t in enumerate(map(tuple, tup))}
    for idx, t in enumerate(map(tuple, tup)):
        swapped = lookup[t[::-1]]
        np.testing.assert_allclose(enum.weights[idx], enum.weights[swapped],
                                   rtol=1e-12, atol=1e-300)


def test_oracle_correlation_empty_and_sum_rule():
    _, _, _, enum = positive_setup(seed=13)
    assert oracle_correlation(enum, [[], []]) == 1.0
    for level in range(2):
        grid = enum.tables.grids[level]
        total = sum(
            grid.weights[q] * oracle_correlation(
                enum, [[q] if j == level else [] for j in range(2)])
            for q in range(grid.size)
        )
        assert abs(total - enum.N) <= 1e-10  # mean number of points per level


def test_oracle_correlation_duplicate_point_vanishes():
    _, _, _, enum = positive_setup(seed=13)
    assert oracle_correlation(enum, [[0, 0], []]) == 0.0


def test_correlation_matches_oracle():
    inst, _, kernel, enum = positive_setup(seed=17)
    for points in ([[0], [1]], [[1, 3], []], [[2], [0, 3]]):
        lib = correlation(kernel, points)
        ora = oracle_correlation(enum, points)
        assert abs(lib - ora) <= 1e-10 * max(1.0, abs(lib))


def test_oracle_gap_trivial_cases():
    inst, _, _, enum = positive_setup(seed=19)
    grids = inst.tables.grids
    nothing = WeightSet.zeros(grids)
    assert abs(oracle_gap(enum, nothing) - 1.0) <= 1e-12
    everything = WeightSet((np.ones(grids[0].size), np.zeros(grids[1].size)))
    assert abs(oracle_gap(enum, everything)) <= 1e-12


@pytest.mark.parametrize("raw", [monomial_discrete_config(23, 2, 2, (4, 4)), soft_m2n2()],
                         ids=["indicator", "soft"])
def test_gap_matches_fredholm_det(raw):
    # det(1 - Kc o w) = E prod_i (1 - w(x_i)) for any weights, not only 0/1
    inst, _, kernel, enum = positive_setup(raw=raw)
    det = fredholm_det(kernel, inst.weights)
    assert abs(det - oracle_gap(enum, inst.weights)) <= 1e-10


@pytest.mark.parametrize("count", [
    lambda inst, kernel, enum, ivs: from_indicators(inst.tables.grids, ivs, [[1.0]] * 3),
    lambda inst, kernel, enum, ivs: gap_generating_function(kernel, ivs),
    lambda inst, kernel, enum, ivs: oracle_counts(enum, ivs),
], ids=["from_indicators", "gap_generating_function", "oracle_counts"])
def test_interval_level_count_refusal_is_shared(count):
    inst, _, kernel, enum = positive_setup(seed=23)
    with pytest.raises(ShapeError) as refused:
        count(inst, kernel, enum, [[(0.0, 1.0)]] * 3)
    assert str(refused.value) == "need one interval list per level, got 3 for 2 levels"


def test_oracle_janossy_trivial_cases():
    inst, _, _, enum = positive_setup(seed=29)
    grids = inst.tables.grids
    no_sets = WeightSet.zeros(grids)
    assert abs(oracle_janossy(enum, no_sets, [[], []]) - 1.0) <= 1e-12
    # full-space sets with a full configuration: the top correlation itself
    everything = WeightSet.ones(grids)
    config = [[0, 2], [1, 3]]
    left = oracle_janossy(enum, everything, config)
    right = oracle_correlation(enum, config)
    assert abs(left - right) <= 1e-12 * max(1.0, abs(right))


def test_janossy_matches_oracle():
    inst, _, kernel, enum = positive_setup(seed=31)
    lib = janossy(kernel, inst.weights, inst.task.points)
    ora = oracle_janossy(enum, inst.weights, inst.task.points)
    assert abs(lib - ora) <= 1e-10 * max(1.0, abs(lib))


@pytest.mark.parametrize("m, sizes", [(2, (4, 6)), (3, (6, 4, 5))])
def test_oracle_janossy_keeps_the_indicator_selectors_bitwise(m, sizes):
    # indicator weights, points inside the sets: the 0/1 selectors of the
    # tuples whose restriction to the sets is exactly the points
    for seed in range(10):
        inst, _, _, enum = positive_setup(seed=seed, m=m, sizes=sizes)
        selectors, mass = [], 1.0
        for level, (w, p) in enumerate(zip(inst.weights.w, inst.task.points)):
            target = np.bincount(p, minlength=w.size)
            inside = w != 0.0
            selectors.append(np.all(enum.node_counts(level)[:, inside] == target[inside],
                                    axis=1).astype(float))
            for q in p:
                mass *= inst.tables.grids[level].weights[q]
        expected = float(enum.expectation(selectors) / mass)
        assert oracle_janossy(enum, inst.weights, inst.task.points) == expected


@pytest.mark.parametrize("indicator", [False, True], ids=["soft", "indicator"])
def test_janossy_matches_oracle_on_random_instances(indicator):
    # arbitrary weights, 0-2 distinct points per level anywhere on the grid
    levels, sides = set(), set()
    for seed in range(60):
        tables, weights = random_discrete_instance(seed, N=2, indicator=indicator)
        zeros = WeightSet.zeros(tables.grids)
        bases = dual_bases(tables, zeros)
        kernel = check_kernel(build_K(bases), build_g(tables, zeros))
        enum = enumerate_configurations(tables, bases=bases)
        rng = np.random.default_rng(1000 + seed)
        for _ in range(3):
            points = [sorted(rng.choice(g.size, int(rng.integers(0, 3)), replace=False))
                      for g in tables.grids]
            lib = janossy(kernel, weights, points)
            ora = oracle_janossy(enum, weights, points)
            assert abs(lib - ora) <= 1e-10 * max(1.0, abs(lib)), (seed, points)
            levels.add(tables.m)
            sides.update("inside" if w[p] != 0.0 else "outside"
                         for w, level in zip(weights.w, points) for p in level)
    assert levels == {1, 2, 3}
    assert sides == ({"inside", "outside"} if indicator else {"inside"})


def test_oracle_counts_trivial_and_marginal():
    inst, _, _, enum = positive_setup(seed=37)
    none = oracle_counts(enum, [[], []])
    assert abs(none.probability((0, 0)) - 1.0) <= 1e-12

    iv = inst.weight_intervals
    joint = oracle_counts(enum, iv)
    level_only = oracle_counts(enum, [iv[0], []])
    for k in range(enum.N + 1):
        marginal = sum(joint.probability((k, k2)) for k2 in range(enum.N + 1))
        assert abs(marginal - level_only.probability((k, 0))) <= 1e-12


def test_counts_match_generating_function():
    inst, _, kernel, enum = positive_setup(seed=41)
    lib = gap_generating_function(kernel, inst.weight_intervals)
    ora = oracle_counts(enum, inst.weight_intervals)
    keys = set(lib.probabilities) | set(ora.probabilities)
    diff = max(abs(lib.probability(k) - ora.probability(k)) for k in keys)
    assert diff <= 1e-8
    assert abs(lib.total - 1.0) <= 1e-8


def test_probnm_normalization_convention():
    inst, bases, kernel, enum = positive_setup(seed=43, m=2, N=2)
    total = probnm_total_mass(enum, kernel)
    assert abs(total - math.factorial(2) ** 2) <= 1e-10 * math.factorial(2) ** 2


def test_probnm_normalization_three_levels():
    inst, bases, kernel, enum = positive_setup(seed=47, m=3, N=2, sizes=(4, 4, 4),
                                               coupling=0.5)
    total = probnm_total_mass(enum, kernel)
    expected = math.factorial(2) ** 3
    assert abs(total - expected) <= 1e-9 * expected
