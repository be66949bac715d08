"""Exhaustive ground truth on small discrete instances.

Enumerates every labeled configuration (one node tuple of length N per
level, repeats allowed and automatically weightless) with

    weight = det(psi(x^(1))) det(phi(x^(m))) prod_j det(g(x^(j+1), x^(j)))
             * product of node masses,

and answers correlation / gap / Janossy / count queries by direct
summation over the normalized weights. Everything here is deliberately
independent of the Fredholm machinery so the two can certify each other;
``joint_density`` sets the product-form density beside the checked-kernel
determinant it must equal.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .biortho import DualBases, dual_bases
from .chain import ChainTables, WeightSet, indicators, point_lists
from .errors import NotAProbability, ShapeError
from .fredholm import CountDistribution, correlation
from .kernels import BlockKernel, build_K, build_g, check_kernel
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


def labeled_configurations(tables: ChainTables) -> int:
    """prod_j n_j^N: the number of labeled configurations, one N-tuple per level."""
    return math.prod(g.size ** tables.N for g in tables.grids)


def enumerate_configurations(tables: ChainTables,
                             bases: DualBases | None = None) -> Enumeration:
    """Enumerate all labeled configurations of a discrete instance.

    Refuses instances with more than MAX_CONFIGURATIONS labeled tuples.
    ``bases`` may pass in precomputed plain dual bases; they are rebuilt with
    zero weights otherwise.
    """
    if any(g.kind != DISCRETE for g in tables.grids):
        raise ValueError("exhaustive enumeration needs discrete grids on all levels")
    m, n = tables.m, tables.N
    total = labeled_configurations(tables)
    if total > MAX_CONFIGURATIONS:
        raise ValueError(
            f"{total} labeled configurations exceed the cap {MAX_CONFIGURATIONS}"
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


def oracle_correlation(enum: Enumeration, points) -> float:
    """Correlation density: probability that all listed nodes are occupied,
    divided by the masses of the listed nodes."""
    pts = point_lists(enum.tables.grids, points)
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
    """Expectation of prod_i (1 - w(x_i)) over the configuration points; for
    indicator weights, the probability that no point lies in the sets."""
    return enum.expectation([np.prod(1.0 - w[tup], axis=1)
                             for w, tup in zip(weights.w, enum.tuples)])


def oracle_janossy(enum: Enumeration, weights: WeightSet, points) -> float:
    """Janossy density: the expectation, over the placements of the points in
    the configuration, of prod (1 - w) over its other points, divided by the
    masses of the points.

    Per level a tuple counts when its node counts cover the points'
    multiset, weighted by prod (1 - w)^(count - target); for indicator w and
    points inside the sets, the tuples whose restriction to the sets is
    exactly the points.
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


def joint_density(bases, tables: ChainTables, config) -> tuple[float, float]:
    """Joint density of a full configuration, evaluated along both routes.

    Returns ``(product_form, determinant_form)``: the normalized product of
    endpoint and transfer determinants, and the checked-kernel determinant
    normalized by its own exhaustively measured total mass. The two agree on
    any consistent instance; their difference is the working form of the
    equivalence between the two density formulas.
    """
    if not bases.is_plain():
        raise ValueError("joint_density expects the plain (zero-weight) dual bases")
    m, n = tables.m, tables.N
    cfg = [tuple(int(p) for p in level) for level in config]
    if len(cfg) != m or any(len(level) != n for level in cfg):
        raise ShapeError(f"configuration must hold {n} node indices on each of "
                         f"{m} levels")
    enum = enumerate_configurations(tables, bases=bases)
    value = float(np.linalg.det(bases.psi[0][:, cfg[0]]))
    value *= float(np.linalg.det(bases.phi[m - 1][:, cfg[m - 1]]))
    for j in range(m - 1):
        value *= float(np.linalg.det(tables.g_values[j][np.ix_(cfg[j + 1], cfg[j])]))
    product_form = value / enum.total_mass

    zeros = WeightSet.zeros(tables.grids)
    Kc = check_kernel(build_K(bases), build_g(tables, zeros))
    return product_form, correlation(Kc, cfg) / probnm_total_mass(enum, Kc)
