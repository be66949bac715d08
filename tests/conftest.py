import importlib.util
import json
import sys
from functools import cache
from pathlib import Path

import numpy as np
import pytest

from detchain import WeightSet, from_tables, make_discrete_grid
from detchain.cli import parse_instance

REPO_ROOT = Path(__file__).resolve().parents[1]
CONFIG_DIR = REPO_ROOT / "configs"

BUNDLED_DISCRETE = ["discrete_m1n2", "discrete_m2n2", "discrete_m3n2"]


def soft_m2n2():
    """discrete_m2n2 with weight vectors strictly between 0 and 1."""
    raw = json.loads((CONFIG_DIR / "discrete_m2n2.json").read_text())
    raw["weights"] = {"vectors": [[0.483, 0.485, 0.309, 0.171],
                                  [0.032, 0.23, 0.245, 0.027]]}
    return raw


def zero_gap_m2n2():
    """discrete_m2n2 with w = 1 on level 1, w = 0 on level 2 and two level-1
    task points. Every configuration has its N = 2 level-1 points in the set,
    so det(1 - Kc o w) vanishes; the Janossy density at the two points is the
    probability of that pair, divided by their masses."""
    raw = json.loads((CONFIG_DIR / "discrete_m2n2.json").read_text())
    raw["weights"] = {"vectors": [[1.0] * 4, [0.0] * 4]}
    raw["task"]["points"] = [[0, 2], []]
    return raw


def load_bundled(name):
    raw = json.loads((CONFIG_DIR / f"{name}.json").read_text())
    return parse_instance(raw, path=name)


@pytest.fixture(scope="session")
def bundled():
    cache = {}

    def load(name):
        if name not in cache:
            cache[name] = load_bundled(name)
        return cache[name]

    return load


def two_point_chain(f=(1.0, 1.0), h=None, masses=(1.0, 1.0)):
    """m=1, N=1 instance on the nodes {0, 1}."""
    grid = make_discrete_grid([0.0, 1.0], masses, level=1)
    h = f if h is None else h
    return from_tables([grid], [list(f)], [list(h)], [])


def seeded_chain(seed, m, n, sizes):
    """Random discrete tables with unconstrained conditioning (identity tests
    draw their own well-conditioned instances through detchain.instances)."""
    rng = np.random.default_rng(seed)
    grids = [
        make_discrete_grid(np.sort(rng.uniform(-2, 2, s)), rng.uniform(0.5, 1.5, s),
                           level=j + 1)
        for j, s in enumerate(sizes)
    ]
    f = rng.normal(size=(n, sizes[0]))
    h = rng.normal(size=(n, sizes[-1]))
    g = [rng.normal(size=(sizes[j + 1], sizes[j])) for j in range(m - 1)]
    return from_tables(grids, f, h, g)


def uniform_weights(tables, seed, low=0.0, high=0.9):
    rng = np.random.default_rng(seed)
    return WeightSet(tuple(rng.uniform(low, high, g.size) for g in tables.grids))


@cache
def perfbench_module(name):
    """The benchmark module ``perfbench/<name>.py``, imported by path once."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  REPO_ROOT / "perfbench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def workload_instances(name, seed, cycles, directory):
    """The parsed configs of a benchmark workload's cycles."""
    workload = perfbench_module("workloads").WORKLOADS[name](seed, directory)
    return [parse_instance(json.loads(Path(workload.config_for(c)).read_text()))
            for c in cycles]
