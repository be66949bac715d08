"""Multilevel chain instances and their tabulation on grids.

An instance consists of m levels of N points each: endpoint basis functions
f_a on level 1 and h_a on level m, and nearest-level transfer kernels
g_{j+1,j} coupling consecutive levels. The built-in family is

    f_a(x) = x^(a-1) exp(-V_1(x)/2),
    h_a(x) = x^(a-1) exp(-V_m(x)/2),
    g_{j+1,j}(y, x) = exp(c_j * x * y - (V_j(x) + V_{j+1}(y)) / 2),

with even-degree potentials V_j with positive leading coefficient, the
classic coupled-chain weight. Arbitrary instances enter through explicit
value tables.

Weight vectors w_j generalize indicator functions of per-level subsets; all
downstream dualization pairs against (1 - w_j) dmu_j. Interval membership
uses the half-open convention a < x <= b so nodes sitting exactly on a
boundary are never counted twice.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateBasis,
    InvalidInterval,
    InvalidWeight,
    OverlapError,
    ShapeError,
)
from .measure import Grid, frozen_array

MONOMIAL_EXPONENTIAL = "monomial_exponential"
TABULATED = "tabulated"

# raw monomials conditioned like Vandermonde matrices; warn beyond this rank
_CONDITION_WARNING_RANK = 12


def _polynomial_degree(coeffs: tuple[float, ...]) -> int:
    nz = [i for i, c in enumerate(coeffs) if c != 0.0]
    return nz[-1] if nz else 0


@dataclass(frozen=True)
class ChainSpec:
    """Symbolic description of a chain instance.

    ``potentials`` holds one coefficient list per level (ascending powers);
    ``couplings`` the m - 1 factors c_j scaling the cross term x_j x_{j+1}
    (all 1.0 when omitted). Both are only meaningful for the
    monomial/exponential family; tabulated instances carry explicit tables
    instead.
    """

    m: int
    N: int
    family: str = MONOMIAL_EXPONENTIAL
    potentials: tuple[tuple[float, ...], ...] | None = None
    couplings: tuple[float, ...] | None = None

    def __post_init__(self):
        if self.m < 1 or self.N < 1:
            raise ValueError("need m >= 1 levels and rank N >= 1")
        if self.family not in (MONOMIAL_EXPONENTIAL, TABULATED):
            raise ValueError(f"unknown family {self.family!r}")
        if self.potentials is not None:
            object.__setattr__(
                self,
                "potentials",
                tuple(tuple(float(c) for c in p) for p in self.potentials),
            )
        if self.couplings is not None:
            object.__setattr__(
                self, "couplings", tuple(float(c) for c in self.couplings)
            )
        if self.family == MONOMIAL_EXPONENTIAL:
            pots = self.potentials
            if pots is None:
                pots = tuple((0.0,) for _ in range(self.m))
                object.__setattr__(self, "potentials", pots)
            if len(pots) != self.m:
                raise ShapeError(f"expected {self.m} potentials, got {len(pots)}")
            for j, coeffs in enumerate(pots):
                deg = _polynomial_degree(coeffs)
                if deg == 0:
                    continue  # constant shifts only rescale the weight
                if deg % 2 != 0 or coeffs[deg] <= 0:
                    raise ValueError(
                        f"potential V_{j + 1} must have even degree with a "
                        "positive leading coefficient"
                    )
            coup = self.couplings
            if coup is None:
                object.__setattr__(self, "couplings", (1.0,) * (self.m - 1))
            elif len(coup) != self.m - 1:
                raise ShapeError(f"expected {self.m - 1} couplings, got {len(coup)}")


@dataclass(frozen=True)
class ChainTables:
    """Pointwise values of f_a, h_a and the transfer kernels on the grids.

    ``f_values`` is N x n_1 (row a holds f_a at the level-1 nodes),
    ``h_values`` is N x n_m, and ``g_values[j]`` is n_{j+2} x n_{j+1} in
    0-based storage: entry (p, q) holds g(level-(j+2) node p, level-(j+1)
    node q). Endpoint tables must have full row rank N.
    """

    grids: tuple[Grid, ...]
    f_values: np.ndarray
    h_values: np.ndarray
    g_values: tuple[np.ndarray, ...]

    def __post_init__(self):
        object.__setattr__(self, "grids", tuple(self.grids))
        object.__setattr__(self, "f_values", frozen_array(self.f_values))
        object.__setattr__(self, "h_values", frozen_array(self.h_values))
        object.__setattr__(
            self, "g_values", tuple(frozen_array(g) for g in self.g_values)
        )
        m = len(self.grids)
        if m < 1:
            raise ShapeError("a chain needs at least one level")
        for pos, grid in enumerate(self.grids):
            if grid.level_index != pos + 1:
                raise ShapeError(
                    f"grid at position {pos} carries level_index "
                    f"{grid.level_index}; expected {pos + 1}"
                )
        if len(self.g_values) != m - 1:
            raise ShapeError(f"expected {m - 1} transfer tables, got {len(self.g_values)}")
        sizes = [g.size for g in self.grids]
        if self.f_values.ndim != 2 or self.f_values.shape[1] != sizes[0]:
            raise ShapeError("f_values must be N x n_1")
        if self.h_values.ndim != 2 or self.h_values.shape[1] != sizes[-1]:
            raise ShapeError("h_values must be N x n_m")
        if self.f_values.shape[0] != self.h_values.shape[0]:
            raise ShapeError("f_values and h_values must share the rank N")
        for j, g in enumerate(self.g_values):
            if g.shape != (sizes[j + 1], sizes[j]):
                raise ShapeError(
                    f"g_values[{j}] has shape {g.shape}, expected "
                    f"{(sizes[j + 1], sizes[j])}"
                )
        n = self.f_values.shape[0]
        if np.linalg.matrix_rank(self.f_values) < n:
            raise DegenerateBasis("f_values is rank deficient")
        if np.linalg.matrix_rank(self.h_values) < n:
            raise DegenerateBasis("h_values is rank deficient")

    @property
    def m(self) -> int:
        return len(self.grids)

    @property
    def N(self) -> int:
        return int(self.f_values.shape[0])


@dataclass(frozen=True)
class WeightSet:
    """Per-level weight vectors w_j sampled at the grid nodes."""

    w: tuple[np.ndarray, ...]

    def __post_init__(self):
        object.__setattr__(self, "w", tuple(frozen_array(v) for v in self.w))
        for v in self.w:
            if v.ndim != 1:
                raise ShapeError("weight vectors must be one-dimensional")
            if not np.all(np.isfinite(v)):
                raise InvalidWeight("weight entries must be finite")

    @classmethod
    def zeros(cls, grids) -> "WeightSet":
        return cls(tuple(np.zeros(g.size) for g in grids))

    @classmethod
    def ones(cls, grids) -> "WeightSet":
        return cls(tuple(np.ones(g.size) for g in grids))

    def is_indicator(self) -> bool:
        return all(np.all((v == 0.0) | (v == 1.0)) for v in self.w)

    @property
    def m(self) -> int:
        return len(self.w)


def check_weights(grids, weights: WeightSet) -> None:
    """Raise ShapeError unless ``weights`` holds one vector per grid, of the grid's size."""
    if weights.m != len(grids):
        raise ShapeError(f"{weights.m} weight vectors for {len(grids)} levels")
    for grid, w in zip(grids, weights.w):
        if w.size != grid.size:
            raise ShapeError(
                f"level {grid.level_index}: weight vector of length {w.size} "
                f"on a grid of size {grid.size}"
            )


def point_lists(grids, points, limit: int | None = None) -> list[list[int]]:
    """``points`` as int lists: one per grid, at most ``limit`` (if given) per level,
    each index inside its grid; else ShapeError, ValueError or IndexError."""
    if len(points) != len(grids):
        raise ShapeError(f"need one point list per level, got {len(points)} for "
                         f"{len(grids)} levels")
    lists = [[int(p) for p in pts] for pts in points]
    for grid, lst in zip(grids, lists):
        if limit is not None and len(lst) > limit:
            raise ValueError(f"{len(lst)} points on level {grid.level_index} "
                             f"exceed N = {limit}")
        for p in lst:
            if not 0 <= p < grid.size:
                raise IndexError(f"node index {p} out of range on level "
                                 f"{grid.level_index} ({grid.size} nodes)")
    return lists


def tabulate(spec: ChainSpec, grids) -> ChainTables:
    """Evaluate the monomial/exponential family on the given grids.

    Raises DegenerateBasis when the monomial rows fail the full-rank check
    (always the case when N exceeds a grid size).
    """
    if spec.family != MONOMIAL_EXPONENTIAL:
        raise ValueError("tabulate evaluates the monomial/exponential family; "
                         "use from_tables for explicit tables")
    grids = tuple(grids)
    if len(grids) != spec.m:
        raise ShapeError(f"expected {spec.m} grids, got {len(grids)}")
    if spec.N > min(g.size for g in grids):
        raise DegenerateBasis("rank N exceeds a grid size; monomial rows cannot "
                              "be independent")
    if spec.N > _CONDITION_WARNING_RANK:
        warnings.warn(
            f"raw monomial basis with N={spec.N} > {_CONDITION_WARNING_RANK} is "
            "severely ill conditioned; expect a near-singular pairing",
            RuntimeWarning,
            stacklevel=2,
        )
    pot = [np.polynomial.polynomial.polyval(g.nodes, p)
           for g, p in zip(grids, spec.potentials)]
    powers = np.arange(spec.N)
    x1, xm = grids[0].nodes, grids[-1].nodes
    f = x1[None, :] ** powers[:, None] * np.exp(-0.5 * pot[0])[None, :]
    h = xm[None, :] ** powers[:, None] * np.exp(-0.5 * pot[-1])[None, :]
    g_tables = []
    for j in range(spec.m - 1):
        x, y = grids[j].nodes, grids[j + 1].nodes
        expo = spec.couplings[j] * np.outer(y, x) \
            - 0.5 * (pot[j + 1][:, None] + pot[j][None, :])
        g_tables.append(np.exp(expo))
    return ChainTables(grids=grids, f_values=f, h_values=h, g_values=tuple(g_tables))


def from_tables(grids, f_values, h_values, g_values) -> ChainTables:
    """Validated ChainTables from explicit value tables."""
    return ChainTables(
        grids=tuple(grids),
        f_values=np.asarray(f_values, dtype=float),
        h_values=np.asarray(h_values, dtype=float),
        g_values=tuple(np.asarray(g, dtype=float) for g in g_values),
    )


def indicator_vector(grid: Grid, intervals) -> np.ndarray:
    """0/1 membership of the grid nodes in a union of disjoint intervals.

    Membership is half-open, a < x <= b. Raises OverlapError when two
    intervals of the union intersect.
    """
    ivs = [(float(a), float(b)) for a, b in intervals]
    for a, b in ivs:
        if not (np.isfinite(a) and np.isfinite(b)) or a >= b:
            raise InvalidInterval(f"degenerate interval ({a}, {b})")
    ivs.sort()
    for (_, b_prev), (a_next, _) in zip(ivs, ivs[1:]):
        if a_next < b_prev:
            raise OverlapError(f"intervals overlap near {a_next}")
    out = np.zeros(grid.size)
    for a, b in ivs:
        out[(grid.nodes > a) & (grid.nodes <= b)] = 1.0
    return out


def indicators(grids, intervals) -> list[np.ndarray]:
    """One ``indicator_vector`` per grid; ShapeError unless ``intervals`` holds
    one interval list per grid."""
    if len(intervals) != len(grids):
        raise ShapeError(f"need one interval list per level, got {len(intervals)} for "
                         f"{len(grids)} levels")
    return [indicator_vector(grid, ivs) for grid, ivs in zip(grids, intervals)]


def from_indicators(grids, intervals, kappas) -> WeightSet:
    """Weight set w_j = sum_alpha kappa_{alpha,j} * chi_{I_{alpha,j}}.

    ``intervals`` holds one list of disjoint (a, b) pairs per level and
    ``kappas`` the matching coefficient lists. Plain indicators are the
    kappa = 1 case.
    """
    grids = tuple(grids)
    indicators(grids, intervals)  # validates the count and each union's disjointness
    if len(kappas) != len(grids):
        raise ShapeError(f"need one kappa list per level, got {len(kappas)} for "
                         f"{len(grids)} levels")
    vectors = []
    for grid, ivs, ks in zip(grids, intervals, kappas):
        if len(ivs) != len(ks):
            raise ShapeError(
                f"level {grid.level_index}: {len(ivs)} intervals but {len(ks)} kappas"
            )
        w = np.zeros(grid.size)
        for (a, b), kappa in zip(ivs, ks):
            w += float(kappa) * indicator_vector(grid, [(a, b)])
        vectors.append(w)
    return WeightSet(tuple(vectors))
