import numpy as np
import pytest

from detchain import (
    SamplerConfig,
    SignedDensityError,
    WeightSet,
    build_K,
    build_g,
    check_kernel,
    dual_bases,
    empirical_gap,
    fredholm_det,
    from_tables,
    make_discrete_grid,
    sample,
)
from detchain.sampler import configuration_weight
from detchain.cli import parse_instance
from detchain.instances import monomial_discrete_config, random_discrete_instance

from .conftest import soft_m2n2, two_point_chain


def test_config_validation():
    with pytest.raises(ValueError):
        SamplerConfig(steps=10, burn_in=10)
    with pytest.raises(ValueError):
        SamplerConfig(steps=0)
    with pytest.raises(ValueError):
        SamplerConfig(steps=10, proposal="global_swap")
    assert SamplerConfig(steps=100).resolved_burn_in == 10


def test_seed_determinism():
    tables = two_point_chain(f=(1.0, 2.0))
    cfg = SamplerConfig(steps=500, burn_in=50, seed=99)
    first = sample(tables, cfg)
    second = sample(tables, cfg)
    assert [c.nodes for c in first] == [c.nodes for c in second]
    other = sample(tables, SamplerConfig(steps=500, burn_in=50, seed=100))
    assert [c.nodes for c in first] != [c.nodes for c in other]


def test_two_state_marginals():
    tables = two_point_chain()  # equal density on both nodes
    cfg = SamplerConfig(steps=100_000, burn_in=5_000, seed=7)
    stream = sample(tables, cfg)
    freq = np.mean([c.nodes[0][0] for c in stream])
    sigma = 0.5 / np.sqrt(len(stream))  # iid bound; chain mixes in one step
    assert abs(freq - 0.5) <= 5 * sigma


def test_repeated_nodes_never_accepted():
    grid = make_discrete_grid([0.0, 1.0, 2.0], [1.0, 1.0, 1.0])
    tables = from_tables([grid], [[1, 0, 0], [0, 1, 0]], [[1, 0, 0], [0, 1, 0]], [])
    stream = sample(tables, SamplerConfig(steps=4000, burn_in=100, seed=3))
    for cfg in stream:
        level = cfg.nodes[0]
        assert len(set(level)) == len(level)


def test_detailed_balance_two_states():
    tables = two_point_chain(f=(1.0, 3.0))
    bases = dual_bases(tables, WeightSet.zeros(tables.grids))
    w = np.array([configuration_weight(tables, bases, [np.array([q])])
                  for q in (0, 1)])
    # proposal draws a node uniformly; acceptance min(1, w'/w)
    T = np.zeros((2, 2))
    for i in range(2):
        for j in range(2):
            if i != j:
                T[i, j] = 0.5 * min(1.0, w[j] / w[i])
        T[i, i] = 1.0 - T[i].sum()
    pi = w / w.sum()
    np.testing.assert_allclose(pi @ T, pi, atol=1e-12)
    for i in range(2):
        for j in range(2):
            assert abs(pi[i] * T[i, j] - pi[j] * T[j, i]) <= 1e-12


def test_signed_density_detected():
    tables = two_point_chain(f=(1.0, -0.5), h=(1.0, 1.0))
    with pytest.raises(SignedDensityError):
        sample(tables, SamplerConfig(steps=100, burn_in=0, seed=1))


def test_signed_density_precheck_counts_subsets():
    # 262 144 labeled states but 21 952 N-subsets: within the precheck's limit
    tables, _ = random_discrete_instance(0, m=3, N=2, sizes=(8, 8, 8))
    with pytest.raises(SignedDensityError,
                       match="^instance has configurations of negative density$"):
        sample(tables, SamplerConfig(steps=100, burn_in=0, seed=1))


def test_empirical_gap_trivial_cases():
    tables = two_point_chain()
    stream = sample(tables, SamplerConfig(steps=2000, burn_in=100, seed=5))
    grids = tables.grids
    estimate, stderr = empirical_gap(stream, WeightSet.zeros(grids))
    assert estimate == 1.0 and stderr == 0.0
    estimate, _ = empirical_gap(stream, WeightSet.ones(grids))
    assert estimate == 0.0


@pytest.mark.parametrize("raw", [monomial_discrete_config(77, 2, 2, (4, 4)), soft_m2n2()],
                         ids=["indicator", "soft"])
def test_empirical_gap_tracks_fredholm_det(raw):
    inst = parse_instance(raw)
    zeros = WeightSet.zeros(inst.tables.grids)
    bases = dual_bases(inst.tables, zeros)
    kernel = check_kernel(build_K(bases), build_g(inst.tables, zeros))
    det = fredholm_det(kernel, inst.weights)
    stream = sample(inst.tables, SamplerConfig(steps=40_000, burn_in=4_000, seed=11),
                    bases=bases)
    estimate, stderr = empirical_gap(stream, inst.weights)
    assert stderr > 0
    assert abs(estimate - det) <= 3 * stderr
