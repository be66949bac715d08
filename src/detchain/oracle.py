"""Exhaustive ground truth on small discrete instances.

Enumerates every labeled configuration (one node tuple of length N per
level, repeats allowed and automatically weightless) with

    weight = det(psi(x^(1))) det(phi(x^(m))) prod_j det(g(x^(j+1), x^(j)))
             * product of node masses,

and answers correlation / gap / exact-occupancy / count queries by direct
summation over the normalized weights. Everything here is deliberately
independent of the Fredholm machinery so the two can certify each other.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .biortho import DualBases, dual_bases
from .chain import ChainTables, WeightSet, indicator_vector
from .errors import NotAProbability, ShapeError
from .fredholm import CountDistribution
from .kernels import BlockKernel
from .measure import DISCRETE

MAX_CONFIGURATIONS = 10_000_000
_EINSUM_AXES = "abcdefghijklmnop"


@dataclass(frozen=True)
class Configuration:
    """One labeled configuration: per level, N node indices, plus its weight."""

    nodes: tuple[tuple[int, ...], ...]
    weight: float


class Enumeration:
    """All labeled configurations of a discrete instance with their weights."""

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

    def configurations(self) -> Iterator[Configuration]:
        for idx in np.ndindex(self.prob.shape):
            nodes = tuple(
                tuple(int(q) for q in self.tuples[j][idx[j]]) for j in range(self.m)
            )
            yield Configuration(nodes=nodes, weight=float(self.weights[idx]))

    # -- per-level helper arrays -------------------------------------------
    def node_counts(self, level: int) -> np.ndarray:
        """(tuples, nodes) matrix of how often each node occurs in each tuple."""
        tup = self.tuples[level]
        n = self.tables.grids[level].size
        return (tup[:, :, None] == np.arange(n)[None, None, :]).sum(axis=1)

    def expectation(self, selectors) -> float:
        """Sum of probabilities against one 0/1 (or real) vector per level axis."""
        axes = _EINSUM_AXES[:self.m]
        spec = axes + "," + ",".join(axes) + "->"
        return float(np.einsum(spec, self.prob, *selectors))


def enumerate_configurations(tables: ChainTables, bases: DualBases | None = None,
                             max_configurations: int = MAX_CONFIGURATIONS) -> Enumeration:
    """Enumerate all labeled configurations of a discrete instance.

    Refuses instances with more than ``max_configurations`` labeled tuples.
    ``bases`` may pass in precomputed plain dual bases; they are rebuilt with
    zero weights otherwise.
    """
    if any(g.kind != DISCRETE for g in tables.grids):
        raise ValueError("exhaustive enumeration needs discrete grids on all levels")
    m, n = tables.m, tables.N
    total = 1
    for g in tables.grids:
        total *= g.size ** n
    if total > max_configurations:
        raise ValueError(
            f"{total} labeled configurations exceed the cap {max_configurations}"
        )
    if bases is None:
        bases = dual_bases(tables, WeightSet.zeros(tables.grids))
    elif not bases.is_plain():
        raise ValueError("enumeration weights use the plain (zero-weight) dual bases")

    tuples = [
        np.array(list(itertools.product(range(g.size), repeat=n)), dtype=int)
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


def _point_lists(enum: Enumeration, points) -> list[list[int]]:
    if len(points) != enum.m:
        raise ShapeError(f"need one point list per level, got {len(points)}")
    out = []
    for level, pts in enumerate(points):
        lst = [int(p) for p in pts]
        for p in lst:
            if not 0 <= p < enum.tables.grids[level].size:
                raise IndexError(f"node index {p} out of range on level {level + 1}")
        out.append(lst)
    return out


def oracle_correlation(enum: Enumeration, points) -> float:
    """Correlation density: probability that all listed nodes are occupied,
    divided by the masses of the listed nodes."""
    pts = _point_lists(enum, points)
    if all(len(p) == 0 for p in pts):
        return 1.0
    for p in pts:
        if len(set(p)) != len(p):
            return 0.0  # a level cannot occupy one node twice
    selectors = []
    mass = 1.0
    for level, p in enumerate(pts):
        counts = enum.node_counts(level)
        sel = np.ones(len(enum.tuples[level]))
        for q in p:
            sel *= (counts[:, q] > 0).astype(float)
            mass *= enum.tables.grids[level].weights[q]
        selectors.append(sel)
    return float(enum.expectation(selectors) / mass)


def oracle_gap(enum: Enumeration, weights: WeightSet) -> float:
    """Probability that no configuration point carries indicator weight 1."""
    selectors = []
    for level, w in enumerate(weights.w):
        inside = enum.node_counts(level) @ (w != 0.0).astype(float)
        selectors.append((inside == 0).astype(float))
    return enum.expectation(selectors)


def oracle_janossy(enum: Enumeration, weights: WeightSet, points) -> float:
    """Density of the configurations whose restriction to each indicator set
    is exactly the given point multiset."""
    pts = _point_lists(enum, points)
    selectors = []
    mass = 1.0
    for level, p in enumerate(pts):
        w = weights.w[level]
        target = np.zeros(enum.tables.grids[level].size, dtype=int)
        for q in p:
            target[q] += 1
            mass *= enum.tables.grids[level].weights[q]
        counts = enum.node_counts(level)
        inside = w != 0.0
        ok = np.all(counts[:, inside] == target[None, inside], axis=1)
        selectors.append(ok.astype(float))
    return float(enum.expectation(selectors) / mass)


def oracle_counts(enum: Enumeration, intervals) -> CountDistribution:
    """Exact histogram of per-level point counts inside interval unions."""
    if len(intervals) != enum.m:
        raise ShapeError(f"need one interval list per level, got {len(intervals)}")
    n = enum.N
    onehots = []
    for level, ivs in enumerate(intervals):
        chi = indicator_vector(enum.tables.grids[level], ivs)
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


def probnm_total_mass(enum: Enumeration, kernel: BlockKernel) -> float:
    """Sum over all labeled configurations of the sampled-kernel determinant
    times the configuration's node masses.

    Measures the normalization linking the determinant form of the joint
    density to the product form; with N points per level on m levels the
    exact value is (N!)^m.
    """
    m, n = enum.m, enum.N
    sizes = [len(t) for t in enum.tuples]
    dim = m * n
    total_cfg = int(np.prod(sizes))
    if total_cfg * dim * dim > 200_000_000:
        raise ValueError("instance too large for the determinant-form sweep")
    shape = tuple(sizes)
    # per configuration, the indices of its m * N nodes in the kernel's matrix
    parts = []
    for level, (tup, offset) in enumerate(zip(enum.tuples, kernel.offsets)):
        axes = [1] * m + [n]
        axes[level] = sizes[level]
        parts.append(np.broadcast_to((tup + offset).reshape(axes), shape + (n,)))
    idx = np.concatenate(parts, axis=-1)
    big = kernel.matrix[idx[..., :, None], idx[..., None, :]]
    dets = np.linalg.det(big.reshape(-1, dim, dim)).reshape(shape)
    mass_axes = _EINSUM_AXES[:m]
    spec = mass_axes + "," + ",".join(mass_axes) + "->"
    masses = [g.weights[t].prod(axis=1) for g, t in zip(enum.tables.grids, enum.tuples)]
    return float(np.einsum(spec, dets, *masses))
