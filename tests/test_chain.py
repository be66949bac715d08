import numpy as np
import pytest

from detchain import (
    ChainSpec,
    DegenerateBasis,
    InvalidWeight,
    OverlapError,
    ShapeError,
    WeightSet,
    dual_bases,
    from_indicators,
    from_tables,
    make_discrete_grid,
    make_gauss_legendre_grid,
    tabulate,
)

from .conftest import seeded_chain


def test_tabulate_constant_family():
    spec = ChainSpec(m=1, N=1, potentials=((0.0,),))
    grid = make_discrete_grid([0.0, 1.0], [1.0, 1.0])
    tables = tabulate(spec, [grid])
    np.testing.assert_array_equal(tables.f_values, [[1.0, 1.0]])
    np.testing.assert_array_equal(tables.h_values, [[1.0, 1.0]])


def test_tabulate_single_point_transfer():
    spec = ChainSpec(m=2, N=1, potentials=((0.0,), (0.0,)), couplings=(1.0,))
    grids = [make_discrete_grid([0.0], [1.0], level=1),
             make_discrete_grid([0.0], [1.0], level=2)]
    tables = tabulate(spec, grids)
    np.testing.assert_array_equal(tables.g_values[0], [[1.0]])


def test_tabulate_quadratic_chain_is_well_posed():
    spec = ChainSpec(m=2, N=2, potentials=((0.0, 0.0, 1.0),) * 2, couplings=(1.0,))
    grids = [make_gauss_legendre_grid((-4.0, 4.0), 20, level=j + 1) for j in range(2)]
    tables = tabulate(spec, grids)
    bases = dual_bases(tables, WeightSet.zeros(grids))
    assert bases.biorthogonality_residual <= 1e-10


def test_monomial_family_requires_even_positive_potential():
    with pytest.raises(ValueError):
        ChainSpec(m=1, N=1, potentials=((0.0, 1.0),))           # odd degree
    with pytest.raises(ValueError):
        ChainSpec(m=1, N=1, potentials=((0.0, 0.0, -1.0),))     # negative leading
    ChainSpec(m=1, N=1, potentials=((5.0,),))                   # constants allowed


def test_tabulate_rank_exceeding_grid_rejected():
    spec = ChainSpec(m=1, N=3, potentials=((0.0,),))
    grid = make_discrete_grid([0.0, 1.0], [1.0, 1.0])
    with pytest.raises(DegenerateBasis):
        tabulate(spec, [grid])


def test_condition_warning_beyond_rank_twelve():
    spec = ChainSpec(m=1, N=13, potentials=((0.0, 0.0, 1.0),))
    grid = make_gauss_legendre_grid((-8.5, 8.5), 40)
    with pytest.warns(RuntimeWarning):
        tabulate(spec, [grid])


def test_monomial_tables_finite_at_rank_twenty():
    # truncation chosen where exp(-V/2) < 1e-16, i.e. |x| < sqrt(2 * 36.8);
    # the grids need enough nodes to keep twenty monomial rows independent
    spec = ChainSpec(m=2, N=20, potentials=((0.0, 0.0, 1.0),) * 2, couplings=(1.0,))
    grids = [make_gauss_legendre_grid((-8.5, 8.5), 48, level=j + 1) for j in range(2)]
    with pytest.warns(RuntimeWarning):
        tables = tabulate(spec, grids)
    assert np.all(np.isfinite(tables.f_values))
    assert np.all(np.isfinite(tables.h_values))
    assert all(np.all(np.isfinite(g)) for g in tables.g_values)


def test_from_tables_identity_like():
    grid = make_discrete_grid([0.0, 1.0, 2.0], [1.0, 1.0, 1.0])
    tables = from_tables([grid], [[1, 0, 0], [0, 1, 0]], [[1, 0, 0], [0, 1, 0]], [])
    assert tables.N == 2


def test_from_tables_rank_deficiency():
    grid = make_discrete_grid([0.0, 1.0, 2.0], [1.0, 1.0, 1.0])
    with pytest.raises(DegenerateBasis):
        from_tables([grid], [[1, 1, 1], [2, 2, 2]], [[1, 0, 0], [0, 1, 0]], [])


def test_from_tables_random_full_rank():
    tables = seeded_chain(41, m=2, n=2, sizes=(4, 4))
    assert tables.N == 2 and tables.m == 2


def test_from_tables_shape_mismatch():
    grid = make_discrete_grid([0.0, 1.0, 2.0], [1.0, 1.0, 1.0])
    with pytest.raises(ShapeError):
        from_tables([grid], [[1, 0], [0, 1]], [[1, 0, 0], [0, 1, 0]], [])


def test_from_indicators_full_cover():
    grid = make_discrete_grid([0.0, 1.0, 2.0], [1.0, 1.0, 1.0])
    ws = from_indicators([grid], [[(-1.0, 3.0)]], [[1.0]])
    np.testing.assert_array_equal(ws.w[0], [1.0, 1.0, 1.0])


def test_from_indicators_empty():
    grid = make_discrete_grid([0.0, 1.0, 2.0], [1.0, 1.0, 1.0])
    ws = from_indicators([grid], [[]], [[]])
    np.testing.assert_array_equal(ws.w[0], [0.0, 0.0, 0.0])


def test_from_indicators_kappa_weighted():
    grid = make_discrete_grid([0.0, 1.0, 2.0], [1.0, 1.0, 1.0])
    ws = from_indicators([grid], [[(0.5, 2.5)]], [[0.7]])
    np.testing.assert_allclose(ws.w[0], [0.0, 0.7, 0.7])


def test_from_indicators_half_open_membership():
    grid = make_discrete_grid([0.0, 1.0], [1.0, 1.0])
    ws = from_indicators([grid], [[(0.0, 1.0)]], [[1.0]])
    np.testing.assert_array_equal(ws.w[0], [0.0, 1.0])  # (a, b]: left excluded


def test_from_indicators_overlap_rejected():
    grid = make_discrete_grid([0.0, 1.0, 2.0], [1.0, 1.0, 1.0])
    with pytest.raises(OverlapError):
        from_indicators([grid], [[(0.0, 1.5), (1.0, 2.0)]], [[1.0, 1.0]])


def test_weight_set_rejects_non_finite():
    with pytest.raises(InvalidWeight):
        WeightSet((np.array([0.0, np.inf]),))


def test_weight_set_helpers():
    grid = make_discrete_grid([0.0, 1.0], [1.0, 1.0])
    ws = WeightSet.ones([grid])
    assert ws.is_indicator()
    assert not WeightSet((np.array([0.3, 0.0]),)).is_indicator()
