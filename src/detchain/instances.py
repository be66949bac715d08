"""Seeded instance builders shared by the tests, the bundled fixtures, and scripts.

Random discrete instances draw every table entry from a seeded generator and
redraw until both the plain and the weighted pairing matrices are well
conditioned; they exercise the operator identities, which hold for arbitrary
real tables. The bundled fixtures instead use the monomial/exponential
family on positive nodes, which is totally positive, so every configuration
weight is nonnegative and the instance is a genuine probability ensemble
(as the enumeration and sampling cross-checks require).
"""

from __future__ import annotations

import numpy as np

from .biortho import pairing_matrix
from .chain import ChainTables, WeightSet, from_tables
from .errors import CompositionInconsistency, DegenerateBasis
from .measure import make_discrete_grid, make_gauss_legendre_grid


def random_discrete_instance(seed, *, m=None, N=None, sizes=None,
                             indicator=False) -> tuple[ChainTables, WeightSet]:
    """Random discrete instance with cond(A), cond(A^w) <= 1e8.

    Unspecified shape parameters are drawn per attempt: m, N in 1..3 and
    grid sizes in 3..6. ``indicator=True`` draws 0/1 weights instead of
    uniform values in [0, 0.9].
    """
    rng = np.random.default_rng(seed)
    for _ in range(500):
        mm = int(rng.integers(1, 4)) if m is None else int(m)
        nn = int(rng.integers(1, 4)) if N is None else int(N)
        szs = tuple(int(rng.integers(3, 7)) for _ in range(mm)) \
            if sizes is None else tuple(int(s) for s in sizes)
        grids = []
        for level, n in enumerate(szs, start=1):
            nodes = np.sort(rng.uniform(-2.0, 2.0, n))
            masses = rng.uniform(0.5, 1.5, n)
            grids.append(make_discrete_grid(nodes, masses, level=level))
        f = rng.normal(size=(nn, szs[0]))
        h = rng.normal(size=(nn, szs[-1]))
        g = [rng.normal(size=(szs[j + 1], szs[j])) for j in range(mm - 1)]
        try:
            tables = from_tables(grids, f, h, g)
        except DegenerateBasis:
            continue
        if indicator:
            w = tuple((rng.random(n) < 0.5).astype(float) for n in szs)
        else:
            w = tuple(rng.uniform(0.0, 0.9, n) for n in szs)
        weights = WeightSet(w)
        try:
            plain = pairing_matrix(tables, WeightSet.zeros(grids))
            dualized = pairing_matrix(tables, weights)
        except CompositionInconsistency:  # pragma: no cover - defensive
            continue
        if max(np.linalg.cond(plain), np.linalg.cond(dualized)) <= 1e8:
            return tables, weights
    raise RuntimeError("failed to draw a well-conditioned instance")


def monomial_discrete_config(seed, m, N, sizes, coupling=1.0,
                             sampler_seed=1234) -> dict:
    """Config dict for a totally positive discrete chain with indicator weights.

    Each level gets sorted nodes in (0.2, 2.2) with random masses; the
    indicator covers roughly the top third of the nodes (always leaving more
    than N outside, or the dualized pairing degenerates), and the task points
    pick the first node inside each indicator set.
    """
    rng = np.random.default_rng(seed)
    grids = []
    intervals = []
    points = []
    for n in sizes:
        nodes = np.sort(rng.uniform(0.2, 2.2, int(n)))
        masses = rng.uniform(0.5, 1.5, int(n))
        grids.append({
            "kind": "discrete",
            "points": nodes.tolist(),
            "masses": masses.tolist(),
        })
        cut_at = max(int(N) + 1, (2 * len(nodes)) // 3)
        if cut_at >= len(nodes):
            raise ValueError("level too small to carry an indicator set")
        cut = 0.5 * (nodes[cut_at - 1] + nodes[cut_at])
        intervals.append([[float(cut), float(nodes[-1] + 1.0)]])
        points.append([int(cut_at)])
    return {
        "chain": {
            "family": "monomial_exponential",
            "m": int(m),
            "N": int(N),
            "potentials": [[0.0, 0.0, 1.0]] * int(m),
            "couplings": [float(coupling)] * (int(m) - 1),
        },
        "grids": grids,
        "weights": {"intervals": intervals, "kappas": [[1.0]] * int(m)},
        "task": {
            "points": points,
            "max_count": int(N),
            "sampler": {"steps": 220_000, "burn_in": 20_000, "seed": int(sampler_seed)},
        },
    }


def gauss_chain_config(n=32, half_width=3.5) -> dict:
    """Quadrature instance: Gaussian-coupled two-level chain on [-hw, hw].

    The weight vectors sample the smooth bump 0.55 * exp(-x^2) at the nodes;
    a smooth weight keeps the Nystrom determinant spectrally convergent in n,
    and the default truncation is narrow enough that n = 24 already resolves
    the width-one coupling ridge to well below 1e-8.
    """
    weights = []
    for level in (1, 2):
        grid = make_gauss_legendre_grid((-half_width, half_width), int(n), level=level)
        weights.append((0.55 * np.exp(-grid.nodes ** 2)).tolist())
    return {
        "chain": {
            "family": "monomial_exponential",
            "m": 2,
            "N": 2,
            "potentials": [[0.0, 0.0, 1.0], [0.0, 0.0, 1.0]],
            "couplings": [1.0],
        },
        "grids": [
            {"kind": "gauss_legendre", "interval": [-half_width, half_width], "n": int(n)}
            for _ in (1, 2)
        ],
        "weights": {"vectors": weights},
        "task": {},
    }


def fixture_configs() -> dict[str, dict]:
    """The bundled instance configurations, keyed by fixture name."""
    return {
        "discrete_m1n2": monomial_discrete_config(101, 1, 2, (5,)),
        "discrete_m2n2": monomial_discrete_config(202, 2, 2, (4, 4)),
        "discrete_m3n2": monomial_discrete_config(307, 3, 2, (5, 5, 5), coupling=0.5),
        "gauss_chain": gauss_chain_config(32),
    }
