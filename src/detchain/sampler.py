"""Metropolis sampling of the joint configuration density.

Single-particle node-hop proposals with the determinant-product weight;
determinants are recomputed from scratch at every proposal, which is cheap
at desk scale and immune to update drift. A fixed seed makes the chain
bitwise reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .biortho import DualBases, dual_bases
from .chain import ChainTables, WeightSet
from .errors import NotAProbability, SignedDensityError
from .measure import DISCRETE
from .oracle import Configuration, enumerate_configurations, labeled_configurations

SINGLE_PARTICLE_NODE_HOP = "single_particle_node_hop"

# labeled-configuration count up to which the exhaustive positivity precheck runs
_PRECHECK_LIMIT = 100_000


@dataclass(frozen=True)
class SamplerConfig:
    """Chain length, burn-in (default 10% of steps), seed, proposal kind."""

    steps: int
    burn_in: int | None = None
    seed: int = 0
    proposal: str = SINGLE_PARTICLE_NODE_HOP

    def __post_init__(self):
        if self.proposal != SINGLE_PARTICLE_NODE_HOP:
            raise ValueError(f"unknown proposal {self.proposal!r}")
        if self.steps <= 0:
            raise ValueError("steps must be positive")
        burn = self.resolved_burn_in
        if not 0 <= burn < self.steps:
            raise ValueError("need steps > burn_in >= 0")

    @property
    def resolved_burn_in(self) -> int:
        return self.steps // 10 if self.burn_in is None else int(self.burn_in)


def configuration_weight(tables: ChainTables, bases: DualBases, state) -> float:
    """Unnormalized density times node masses of one labeled configuration."""
    m = tables.m
    mats = np.empty((m + 1, tables.N, tables.N))
    mats[0] = bases.psi[0][:, state[0]]
    for j in range(m - 1):
        mats[j + 1] = tables.g_values[j][state[j + 1]][:, state[j]]
    mats[m] = bases.phi[m - 1][:, state[m - 1]]
    dets = np.linalg.det(mats)
    mass = 1.0
    for j in range(m):
        mass *= float(tables.grids[j].weights[state[j]].prod())
    return float(dets.prod()) * mass


def _initial_state(tables: ChainTables, bases: DualBases,
                   rng: np.random.Generator) -> list[np.ndarray]:
    n = tables.N
    state = [np.arange(n) for _ in tables.grids]
    if configuration_weight(tables, bases, state) > 0.0:
        return state
    for _ in range(1000):
        state = [rng.choice(g.size, size=n, replace=False) for g in tables.grids]
        if configuration_weight(tables, bases, state) > 0.0:
            return state
    raise NotAProbability("could not find a configuration with positive density")


def sample(tables: ChainTables, config: SamplerConfig,
           bases: DualBases | None = None) -> list[Configuration]:
    """Run the Metropolis chain and return the post-burn-in configurations.

    On discrete instances small enough to enumerate, the density is first
    checked to be a probability (positive total mass, no negative weights);
    encountering a negative density later aborts with SignedDensityError.
    """
    if bases is None:
        bases = dual_bases(tables, WeightSet.zeros(tables.grids))
    if (all(g.kind == DISCRETE for g in tables.grids)
            and labeled_configurations(tables) <= _PRECHECK_LIMIT):
        enum = enumerate_configurations(tables, bases=bases)
        floor = -1e-12 * float(np.max(np.abs(enum.weights)))
        if float(enum.weights.min()) < floor:
            raise SignedDensityError(
                "instance has configurations of negative density"
            )
    rng = np.random.default_rng(config.seed)
    m, n = tables.m, tables.N
    sizes = [g.size for g in tables.grids]
    state = _initial_state(tables, bases, rng)
    weight = configuration_weight(tables, bases, state)
    burn_in = config.resolved_burn_in
    out: list[Configuration] = []
    for step in range(config.steps):
        level = int(rng.integers(m))
        particle = int(rng.integers(n))
        node = int(rng.integers(sizes[level]))
        previous = state[level][particle]
        state[level][particle] = node
        proposed = configuration_weight(tables, bases, state)
        if proposed < 0.0 and proposed < -1e-12 * max(1.0, abs(weight)):
            raise SignedDensityError(
                f"negative density {proposed:.3e} encountered while sampling"
            )
        accept = proposed > 0.0 and rng.random() < min(1.0, proposed / weight)
        if accept:
            weight = proposed
        else:
            state[level][particle] = previous
        if step >= burn_in:
            out.append(Configuration(
                nodes=tuple(tuple(int(q) for q in lvl) for lvl in state),
                weight=weight,
            ))
    return out


def empirical_gap(samples, weights: WeightSet) -> tuple[float, float]:
    """Sample mean of prod_i (1 - w(x_i)), with batch-means stderr; for indicator
    weights, the fraction of samples avoiding all the sets."""
    if len(samples) == 0:
        raise ValueError("empty sample stream")
    hits = np.ones(len(samples))
    for j, w in enumerate(weights.w):
        nodes = np.array([cfg.nodes[j] for cfg in samples], dtype=int)
        hits *= np.prod(1.0 - w[nodes], axis=1)
    estimate = float(hits.mean())
    batches = int(np.sqrt(hits.size))
    if batches < 2:
        return estimate, 0.0
    size = hits.size // batches
    means = hits[:batches * size].reshape(batches, size).mean(axis=1)
    stderr = float(means.std(ddof=1) / np.sqrt(batches))
    return estimate, stderr
