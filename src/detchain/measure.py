"""Finite measure spaces: quadrature and discrete grids.

Each level of a multilevel ensemble carries a measure space (Gamma_j, dmu_j).
Discretization replaces it by a grid of nodes with positive weights, after
which every integral operator becomes a matrix and all operator identities
hold exactly up to rounding:

    int f dmu_j  ->  sum_i weights[i] * f(nodes[i]).

Gauss-Legendre grids realize Lebesgue measure on an interval; discrete grids
are finite measure spaces in their own right and make every downstream
identity exact. Unbounded supports must be truncated by the caller; no
truncation is ever chosen silently.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import DuplicateNode, InvalidInterval, InvalidWeight, ShapeError

QUADRATURE = "quadrature"
DISCRETE = "discrete"

_NEWTON_TOL = 1e-15
_NEWTON_MAX_ITER = 100


def frozen_array(values, dtype=float) -> np.ndarray:
    """Copy to a read-only ndarray; stored tables are immutable by contract."""
    out = np.array(values, dtype=dtype)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class Grid:
    """One level's discretized measure space.

    Attributes
    ----------
    level_index : int
        1-based level position within the chain.
    nodes : ndarray
        Strictly increasing evaluation points.
    weights : ndarray
        Positive quadrature weights (kind="quadrature") or point masses
        (kind="discrete"), same length as ``nodes``.
    kind : str
        Either ``"quadrature"`` or ``"discrete"``.
    """

    level_index: int
    nodes: np.ndarray
    weights: np.ndarray
    kind: str

    def __post_init__(self):
        object.__setattr__(self, "nodes", frozen_array(self.nodes))
        object.__setattr__(self, "weights", frozen_array(self.weights))
        if self.kind not in (QUADRATURE, DISCRETE):
            raise ValueError(f"unknown grid kind {self.kind!r}")
        if self.level_index < 1:
            raise ValueError("level_index is 1-based and must be >= 1")
        if self.nodes.ndim != 1 or self.weights.ndim != 1:
            raise ShapeError("nodes and weights must be one-dimensional")
        if self.nodes.shape != self.weights.shape:
            raise ShapeError(
                f"{self.nodes.size} nodes but {self.weights.size} weights"
            )
        if self.nodes.size == 0:
            raise ShapeError("a grid needs at least one node")
        if not np.all(np.isfinite(self.nodes)):
            raise ValueError("nodes must be finite")
        diffs = np.diff(self.nodes)
        if np.any(diffs == 0):
            raise DuplicateNode("grid nodes must be pairwise distinct")
        if np.any(diffs < 0):
            raise ValueError("grid nodes must be sorted increasingly")
        if np.any(self.weights <= 0) or not np.all(np.isfinite(self.weights)):
            raise InvalidWeight("grid weights must be positive and finite")

    @property
    def size(self) -> int:
        return int(self.nodes.size)


def _legendre(x: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """P_n(x) and P_n'(x) by the three-term recurrence."""
    pm, pn = np.zeros_like(x), np.ones_like(x)
    for deg in range(1, n + 1):
        pm, pn = pn, ((2 * deg - 1) * x * pn - (deg - 1) * pm) / deg
    return pn, n * (x * pn - pm) / (x * x - 1.0)


@functools.lru_cache(maxsize=16)
def _legendre_nodes(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of n-point Gauss-Legendre quadrature on [-1, 1].

    Roots of the degree-n Legendre polynomial by Newton iteration from the
    Chebyshev-type initial guesses; deterministic and dependency-free. The
    rule is computed once per n and returned as read-only arrays.
    """
    k = np.arange(n)
    x = np.cos(np.pi * (4 * k + 3) / (4 * n + 2))
    for _ in range(_NEWTON_MAX_ITER):
        pn, dpn = _legendre(x, n)
        dx = pn / dpn
        x = x - dx
        if np.max(np.abs(dx)) <= _NEWTON_TOL:
            break
    # one final evaluation so the weights use the converged nodes
    dpn = _legendre(x, n)[1]
    w = 2.0 / ((1.0 - x * x) * dpn * dpn)
    order = np.argsort(x)
    return frozen_array(x[order]), frozen_array(w[order])


def make_gauss_legendre_grid(interval, n: int, level: int = 1) -> Grid:
    """Gauss-Legendre grid on a bounded interval.

    The resulting weighted sum integrates polynomials of degree <= 2n - 1
    over the interval exactly.

    Parameters
    ----------
    interval : (float, float)
        Endpoints a < b.
    n : int
        Number of nodes, n >= 1.
    level : int
        1-based level index the grid belongs to.
    """
    a, b = float(interval[0]), float(interval[1])
    if not (np.isfinite(a) and np.isfinite(b)) or a >= b:
        raise InvalidInterval(f"degenerate interval ({a}, {b})")
    if n < 1:
        raise ValueError("n must be >= 1")
    x, w = _legendre_nodes(int(n))
    nodes = 0.5 * (b - a) * x + 0.5 * (a + b)
    weights = 0.5 * (b - a) * w
    return Grid(level_index=level, nodes=nodes, weights=weights, kind=QUADRATURE)


def make_discrete_grid(points, masses, level: int = 1) -> Grid:
    """Discrete measure space from distinct points with positive masses.

    Points may be given in any order; they are sorted together with their
    masses.
    """
    pts = np.asarray(points, dtype=float)
    ms = np.asarray(masses, dtype=float)
    if pts.ndim != 1 or ms.ndim != 1 or pts.shape != ms.shape:
        raise ShapeError("points and masses must be 1-d sequences of equal length")
    if np.unique(pts).size != pts.size:
        raise DuplicateNode("discrete grid points must be distinct")
    if np.any(ms <= 0) or not np.all(np.isfinite(ms)):
        raise InvalidWeight("point masses must be positive and finite")
    order = np.argsort(pts)
    return Grid(level_index=level, nodes=pts[order], weights=ms[order], kind=DISCRETE)


def integrate(grid: Grid, values) -> float:
    """Weighted sum sum_i weights[i] * values[i] over the grid."""
    v = np.asarray(values, dtype=float)
    if v.shape != grid.nodes.shape:
        raise ShapeError(
            f"expected {grid.size} values, got array of shape {v.shape}"
        )
    return float(grid.weights @ v)
