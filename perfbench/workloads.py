"""Seeded workload generators.

A workload is a closed loop of cycles. Cycle ``i`` runs a fixed sequence of
``detchain`` commands on the config file made for it; every config is a pure
function of the benchmark seed and the cycle index, so the same seed gives the
same inputs. The library only ever sees the written JSON files.

Why these three (see README.md for the layer each one loads):

* ``gl_chain``: three Gauss-Legendre levels of 256 nodes, so dense
  O((sum n)^3) LAPACK work in ``fredholm`` dominates.
* ``discrete_verify``: a stream of fresh small totally positive discrete
  chains, so per-call Python work dominates and no instance is seen twice.
* ``mcmc``: ``sample`` on small discrete chains, so only the Metropolis
  sampler and its estimator do real work.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from detchain.instances import monomial_discrete_config
from detchain.measure import make_gauss_legendre_grid

GL_LEVELS = 3
GL_NODES = 256
GL_HALF_WIDTH = 3.5
GL_CONFIGS = 3

DISCRETE_COUPLING = 0.5

# fixed on every commit; one sample command lasts about a second
MCMC_STEPS = 10_000
MCMC_BURN_IN = 1_000

RANK = 2


class Workload:
    """Command sequence per cycle plus the config file each cycle runs on."""

    name = ""
    commands: tuple[str, ...] = ()

    def __init__(self, seed: int, workdir: Path):
        self.seed = int(seed)
        self.workdir = Path(workdir)
        self.workdir.mkdir(parents=True, exist_ok=True)

    def config_for(self, cycle: int) -> Path:
        raise NotImplementedError

    def _write(self, filename: str, raw: dict) -> Path:
        path = self.workdir / filename
        path.write_text(json.dumps(raw))
        return path

    def _rng(self, cycle: int) -> np.random.Generator:
        return np.random.default_rng([self.seed, cycle])


class GLChain(Workload):
    """A few seeded Gauss-Legendre chains, cycled through check/gap/janossy/counts."""

    name = "gl_chain"
    commands = ("check", "gap", "janossy", "counts")

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        nodes = make_gauss_legendre_grid((-GL_HALF_WIDTH, GL_HALF_WIDTH),
                                         GL_NODES).nodes
        self.paths = [self._write(f"gl_chain-{k}.json", self._config(k, nodes))
                      for k in range(GL_CONFIGS)]

    def _config(self, k: int, nodes: np.ndarray) -> dict:
        rng = self._rng(k)
        couplings = rng.uniform(0.5, 1.0, GL_LEVELS - 1)
        cuts = rng.uniform(0.5, 1.5, GL_LEVELS)
        return {
            "chain": {
                "family": "monomial_exponential",
                "m": GL_LEVELS,
                "N": RANK,
                "potentials": [[0.0, 0.0, 1.0]] * GL_LEVELS,
                "couplings": couplings.tolist(),
            },
            "grids": [{"kind": "gauss_legendre",
                       "interval": [-GL_HALF_WIDTH, GL_HALF_WIDTH],
                       "n": GL_NODES}] * GL_LEVELS,
            "weights": {"intervals": [[[float(a), GL_HALF_WIDTH]] for a in cuts],
                        "kappas": [[1.0]] * GL_LEVELS},
            # the task point on each level is its first node inside the interval
            "task": {"points": [[int(np.searchsorted(nodes, a, side="right"))]
                                for a in cuts],
                     "max_count": RANK},
        }

    def config_for(self, cycle):
        return self.paths[cycle % GL_CONFIGS]


class DiscreteVerify(Workload):
    """A fresh totally positive discrete chain per cycle, through check and oracle."""

    name = "discrete_verify"
    commands = ("check", "oracle")

    def config_for(self, cycle):
        rng = self._rng(cycle)
        m = int(rng.choice([2, 3]))
        sizes = rng.integers(4, 7, m).tolist()
        raw = monomial_discrete_config(int(rng.integers(2**31)), m, RANK, sizes,
                                       coupling=DISCRETE_COUPLING)
        return self._write("discrete_verify.json", raw)


class MCMC(Workload):
    """A fresh two-level discrete chain per cycle, sampled with a fixed step count."""

    name = "mcmc"
    commands = ("sample",)

    def config_for(self, cycle):
        rng = self._rng(cycle)
        sizes = rng.integers(4, 7, 2).tolist()
        raw = monomial_discrete_config(int(rng.integers(2**31)), 2, RANK, sizes,
                                       sampler_seed=int(rng.integers(2**31)))
        raw["task"]["sampler"] = {"steps": MCMC_STEPS, "burn_in": MCMC_BURN_IN,
                                  "seed": raw["task"]["sampler"]["seed"]}
        return self._write("mcmc.json", raw)


WORKLOADS = {w.name: w for w in (GLChain, DiscreteVerify, MCMC)}
