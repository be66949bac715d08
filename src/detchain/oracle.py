"""Exhaustive ground truth on small discrete instances.

Enumerates every configuration (one N-subset of nodes per level, listed
in increasing order) with

    weight = det(psi(x^(1))) det(phi(x^(m))) prod_j det(g(x^(j+1), x^(j)))
             * product of node masses,

and answers gap / Janossy / count queries by direct summation over the
normalized weights; the correlation function is the Janossy density at
w = 0. Everything here is deliberately independent of the Fredholm
machinery so the two can certify each other.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .biortho import DualBases, dual_bases
from .chain import ChainTables, WeightSet, indicators, point_lists
from .errors import NotAProbability
from .fredholm import CountDistribution
from .measure import DISCRETE

MAX_CONFIGURATIONS = 10_000_000
_EINSUM_AXES = "abcdefghijklmnop"


class Enumeration:
    """All configurations of a discrete instance, one N-subset per level, with
    their weights."""

    def __init__(self, tables: ChainTables, bases: DualBases,
                 tuples: list[np.ndarray], weights: np.ndarray):
        self.tables = tables
        self.bases = bases
        self.tuples = tuples
        self.weights = weights            # unnormalized, masses included
        self.total_mass = float(weights.sum())
        if not np.isfinite(self.total_mass) or self.total_mass <= 0.0:
            raise NotAProbability(
                f"total configuration mass {self.total_mass!r} is not positive"
            )
        self.prob = weights / self.total_mass

    @property
    def m(self) -> int:
        return self.tables.m

    @property
    def N(self) -> int:
        return self.tables.N

    # -- per-level helper arrays -------------------------------------------
    def node_counts(self, level: int) -> np.ndarray:
        """(configurations, nodes) 0/1 matrix of the nodes each level's subset holds."""
        tup = self.tuples[level]
        n = self.tables.grids[level].size
        return (tup[:, :, None] == np.arange(n)[None, None, :]).sum(axis=1)

    def expectation(self, selectors) -> float:
        """Sum of probabilities against one 0/1 (or real) vector per level axis."""
        axes = _EINSUM_AXES[:self.m]
        spec = axes + "," + ",".join(axes) + "->"
        return float(np.einsum(spec, self.prob, *selectors))


def configuration_count(tables: ChainTables) -> int:
    """prod_j C(n_j, N): the number of configurations, one N-subset per level."""
    return math.prod(math.comb(g.size, tables.N) for g in tables.grids)


def enumerate_configurations(tables: ChainTables,
                             bases: DualBases | None = None) -> Enumeration:
    """Enumerate all configurations of a discrete instance, one N-subset per level.

    Refuses instances with more than MAX_CONFIGURATIONS configurations.
    ``bases`` may pass in precomputed plain dual bases; they are rebuilt with
    zero weights otherwise.
    """
    if any(g.kind != DISCRETE for g in tables.grids):
        raise ValueError("exhaustive enumeration needs discrete grids on all levels")
    m, n = tables.m, tables.N
    total = configuration_count(tables)
    if total > MAX_CONFIGURATIONS:
        raise ValueError(
            f"{total} configurations exceed the cap {MAX_CONFIGURATIONS}"
        )
    if bases is None:
        bases = dual_bases(tables, WeightSet.zeros(tables.grids))
    elif not bases.is_plain():
        raise ValueError("enumeration weights use the plain (zero-weight) dual bases")

    tuples = [
        np.array(list(itertools.combinations(range(g.size), n)), dtype=int)
        for g in tables.grids
    ]
    mass_prod = [g.weights[t].prod(axis=1) for g, t in zip(tables.grids, tuples)]

    def det_rows(values: np.ndarray, tup: np.ndarray) -> np.ndarray:
        sub = values[:, tup]                      # (N, tuples, N)
        return np.linalg.det(np.transpose(sub, (1, 0, 2)))

    psi_det = det_rows(bases.psi[0], tuples[0])
    phi_det = det_rows(bases.phi[m - 1], tuples[m - 1])

    operands = [psi_det * mass_prod[0]]
    spec = [_EINSUM_AXES[0]]
    for j in range(m - 1):
        gj = tables.g_values[j]
        t_lo, t_hi = tuples[j], tuples[j + 1]
        sub = gj[t_hi[:, None, :, None], t_lo[None, :, None, :]]
        dets = np.linalg.det(sub.reshape(-1, n, n)).reshape(len(t_hi), len(t_lo))
        operands.append(dets * mass_prod[j + 1][:, None])
        spec.append(_EINSUM_AXES[j + 1] + _EINSUM_AXES[j])
    operands.append(phi_det)
    spec.append(_EINSUM_AXES[m - 1])
    weights = np.einsum(",".join(spec) + "->" + _EINSUM_AXES[:m], *operands)
    return Enumeration(tables=tables, bases=bases, tuples=tuples, weights=weights)


def oracle_correlation(enum: Enumeration, points) -> float:
    """Correlation density: the Janossy density at w = 0, the probability that
    all listed nodes are occupied divided by their masses."""
    if all(len(p) == 0 for p in point_lists(enum.tables.grids, points)):
        return 1.0
    return oracle_janossy(enum, WeightSet.zeros(enum.tables.grids), points)


def oracle_gap(enum: Enumeration, weights: WeightSet) -> float:
    """Expectation of prod_i (1 - w(x_i)) over the configuration points; for
    indicator weights, the probability that no point lies in the sets."""
    return enum.expectation([np.prod(1.0 - w[tup], axis=1)
                             for w, tup in zip(weights.w, enum.tuples)])


def oracle_janossy(enum: Enumeration, weights: WeightSet, points) -> float:
    """Janossy density: the expectation, over the placements of the points in
    the configuration, of prod (1 - w) over its other points, divided by the
    masses of the points.

    Per level a subset counts when it holds the points' multiset (so never
    for a repeated point), weighted by prod (1 - w) over its other nodes; for
    indicator w and points inside the sets, the subsets whose restriction to
    the sets is exactly the points.
    """
    pts = point_lists(enum.tables.grids, points)
    selectors = []
    mass = 1.0
    for level, p in enumerate(pts):
        target = np.zeros(enum.tables.grids[level].size, dtype=int)
        for q in p:
            target[q] += 1
            mass *= enum.tables.grids[level].weights[q]
        excess = enum.node_counts(level) - target
        covers = np.all(excess >= 0, axis=1)
        factors = (1.0 - weights.w[level]) ** np.maximum(excess, 0)
        selectors.append(np.where(covers, factors.prod(axis=1), 0.0))
    return float(enum.expectation(selectors) / mass)


def oracle_counts(enum: Enumeration, intervals) -> CountDistribution:
    """Exact histogram of per-level point counts inside interval unions."""
    n = enum.N
    onehots = []
    for level, chi in enumerate(indicators(enum.tables.grids, intervals)):
        counts = (enum.node_counts(level) @ chi).astype(int)
        onehot = np.zeros((len(enum.tuples[level]), n + 1))
        onehot[np.arange(len(counts)), counts] = 1.0
        onehots.append(onehot)
    axes = _EINSUM_AXES[:enum.m]
    out_axes = _EINSUM_AXES[enum.m:2 * enum.m]
    spec = axes + "," + ",".join(a + o for a, o in zip(axes, out_axes)) + "->" + out_axes
    hist = np.einsum(spec, enum.prob, *onehots)
    probabilities = {
        tuple(int(k) for k in idx): float(hist[idx]) for idx in np.ndindex(hist.shape)
    }
    return CountDistribution(probabilities=probabilities, total=float(hist.sum()))
