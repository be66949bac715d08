import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from detchain import (
    DuplicateNode,
    InvalidInterval,
    InvalidWeight,
    ShapeError,
    integrate,
    make_discrete_grid,
    make_gauss_legendre_grid,
    measure,
)


def test_weights_integrate_constant():
    grid = make_gauss_legendre_grid((-1.0, 1.0), 4)
    assert abs(grid.weights.sum() - 2.0) < 1e-14


def test_two_point_rule_integrates_x_squared():
    grid = make_gauss_legendre_grid((-1.0, 1.0), 2)
    assert abs(integrate(grid, grid.nodes**2) - 2.0 / 3.0) < 1e-14


def test_gaussian_mass_on_truncated_support():
    # oracle: erf evaluated in arbitrary precision
    expected = float(mpmath.erf(8 / mpmath.sqrt(2)))
    grid = make_gauss_legendre_grid((-8.0, 8.0), 64)
    values = np.exp(-grid.nodes**2 / 2) / np.sqrt(2 * np.pi)
    assert abs(integrate(grid, values) - expected) < 1e-12
    assert abs(integrate(grid, values) - 1.0) < 1e-12  # erfc(8/sqrt 2) ~ 1.2e-15


def test_degenerate_interval_rejected():
    with pytest.raises(InvalidInterval):
        make_gauss_legendre_grid((1.0, 1.0), 4)
    with pytest.raises(InvalidInterval):
        make_gauss_legendre_grid((2.0, -1.0), 4)


def test_nodes_interior_and_sorted():
    grid = make_gauss_legendre_grid((-3.0, 7.0), 17)
    assert np.all(grid.nodes > -3.0) and np.all(grid.nodes < 7.0)
    assert np.all(np.diff(grid.nodes) > 0)
    assert grid.kind == "quadrature"


def test_discrete_grid_examples():
    grid = make_discrete_grid([0.0, 1.0], [1.0, 1.0])
    assert grid.kind == "discrete"
    assert grid.size == 2

    with pytest.raises(DuplicateNode):
        make_discrete_grid([0.0, 0.0], [1.0, 1.0])

    prob = make_discrete_grid([0.0, 1.0, 2.0], [0.5, 0.25, 0.25])
    assert abs(prob.weights.sum() - 1.0) < 1e-15


def test_discrete_grid_rejects_bad_masses():
    with pytest.raises(InvalidWeight):
        make_discrete_grid([0.0, 1.0], [1.0, 0.0])
    with pytest.raises(InvalidWeight):
        make_discrete_grid([0.0, 1.0], [1.0, -2.0])


def test_integrate_examples():
    grid = make_discrete_grid([0.0, 1.0], [1.0, 1.0])
    assert integrate(grid, [3.0, 4.0]) == 7.0
    assert integrate(grid, [0.0, 0.0]) == 0.0

    gl = make_gauss_legendre_grid((0.0, 1.0), 8)
    assert abs(integrate(gl, gl.nodes**3) - 0.25) < 1e-14


def test_integrate_shape_mismatch():
    grid = make_discrete_grid([0.0, 1.0], [1.0, 1.0])
    with pytest.raises(ShapeError):
        integrate(grid, [1.0, 2.0, 3.0])


@settings(deadline=None, max_examples=40)
@given(
    alpha=st.floats(-5, 5),
    beta=st.floats(-5, 5),
    seed=st.integers(0, 2**32 - 1),
)
def test_integrate_is_linear(alpha, beta, seed):
    rng = np.random.default_rng(seed)
    grid = make_gauss_legendre_grid((-2.0, 3.0), 12)
    u, v = rng.normal(size=(2, grid.size))
    lhs = integrate(grid, alpha * u + beta * v)
    rhs = alpha * integrate(grid, u) + beta * integrate(grid, v)
    assert abs(lhs - rhs) <= 1e-13 * max(1.0, abs(lhs), abs(rhs))


@settings(deadline=None, max_examples=40)
@given(n=st.integers(1, 16), degree_offset=st.integers(0, 400))
def test_gauss_legendre_exact_on_polynomials(n, degree_offset):
    degree = degree_offset % (2 * n)  # any degree <= 2n - 1
    a, b = -1.5, 2.0
    grid = make_gauss_legendre_grid((a, b), n)
    exact = (b ** (degree + 1) - a ** (degree + 1)) / (degree + 1)
    value = integrate(grid, grid.nodes**degree)
    assert abs(value - exact) <= 1e-13 * max(1.0, abs(exact))


def test_legendre_rule_is_cached_read_only_and_unchanged(monkeypatch):
    x, w = measure._legendre_nodes(24)
    assert measure._legendre_nodes(24)[0] is x
    for arr in (x, w):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 0.0
    make_gauss_legendre_grid((-1.0, 1.0), 24, level=1)
    cached = make_gauss_legendre_grid((0.5, 3.0), 24, level=2)
    monkeypatch.setattr(measure, "_legendre_nodes", measure._legendre_nodes.__wrapped__)
    fresh = make_gauss_legendre_grid((0.5, 3.0), 24, level=2)
    assert cached.nodes.tobytes() == fresh.nodes.tobytes()
    assert cached.weights.tobytes() == fresh.weights.tobytes()
