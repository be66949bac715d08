"""Command-line front end.

Reads a JSON instance configuration (schema in CONFIG_SCHEMA, published at
docs/config_schema.json), builds the instance, runs the requested
computation, and writes CSV tables / scalar values. Every numeric output row
carries the instance digest and the tolerance applied to it; identical
config, flags, and seed produce byte-identical output files.

Exit codes: 0 all requested tolerances met, 1 a tolerance failed, 2 config
parse/validation error, 3 numerical failure (singular pairing, inconsistent
tabulation, ...).
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import numbers
import sys
from contextlib import contextmanager
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .chain import (
    ChainSpec,
    ChainTables,
    WeightSet,
    check_weights,
    from_indicators,
    from_tables,
    indicators,
    point_lists,
    tabulate,
)
from .check import check_rows
from .errors import (
    DetchainError,
    DuplicateNode,
    InvalidInterval,
    InvalidWeight,
    OverlapError,
    ShapeError,
)
from .fredholm import (
    correlation,
    count_degrees,
    fredholm_det,
    gap_generating_function,
    janossy,
)
from .kernels import Dualization, dualize
from .measure import make_discrete_grid, make_gauss_legendre_grid
from .oracle import (
    enumerate_configurations,
    oracle_correlation,
    oracle_counts,
    oracle_gap,
    oracle_janossy,
)
from .sampler import SamplerConfig, empirical_gap, sample

_NUMBER_ROW = {"type": "array", "items": {"type": "number"}}
_NUMBER_TABLE = {"type": "array", "items": _NUMBER_ROW}

CONFIG_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "title": "detchain instance configuration",
    "type": "object",
    "required": ["chain", "grids"],
    "additionalProperties": False,
    "properties": {
        "chain": {
            "type": "object",
            "required": ["family", "m", "N"],
            "additionalProperties": False,
            "properties": {
                "family": {"enum": ["monomial_exponential", "tabulated"]},
                "m": {"type": "integer", "minimum": 1},
                "N": {"type": "integer", "minimum": 1},
                "potentials": _NUMBER_TABLE,
                "couplings": _NUMBER_ROW,
                "tables": {
                    "type": "object",
                    "required": ["f", "h", "g"],
                    "additionalProperties": False,
                    "properties": {
                        "f": _NUMBER_TABLE,
                        "h": _NUMBER_TABLE,
                        "g": {"type": "array", "items": _NUMBER_TABLE},
                    },
                },
            },
        },
        "grids": {
            "type": "array",
            "minItems": 1,
            "items": {
                "oneOf": [
                    {
                        "type": "object",
                        "required": ["kind", "interval", "n"],
                        "additionalProperties": False,
                        "properties": {
                            "kind": {"const": "gauss_legendre"},
                            "interval": {
                                "type": "array",
                                "items": {"type": "number"},
                                "minItems": 2,
                                "maxItems": 2,
                            },
                            "n": {"type": "integer", "minimum": 1},
                        },
                    },
                    {
                        "type": "object",
                        "required": ["kind", "points", "masses"],
                        "additionalProperties": False,
                        "properties": {
                            "kind": {"const": "discrete"},
                            "points": _NUMBER_ROW,
                            "masses": _NUMBER_ROW,
                        },
                    },
                ]
            },
        },
        "weights": {
            "oneOf": [
                {"type": "null"},
                {
                    "type": "object",
                    "required": ["vectors"],
                    "additionalProperties": False,
                    "properties": {"vectors": _NUMBER_TABLE},
                },
                {
                    "type": "object",
                    "required": ["intervals", "kappas"],
                    "additionalProperties": False,
                    "properties": {
                        "intervals": {
                            "type": "array",
                            "items": {
                                "type": "array",
                                "items": {
                                    "type": "array",
                                    "items": {"type": "number"},
                                    "minItems": 2,
                                    "maxItems": 2,
                                },
                            },
                        },
                        "kappas": _NUMBER_TABLE,
                    },
                },
            ]
        },
        "task": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "points": {
                    "type": "array",
                    "items": {"type": "array", "items": {"type": "integer", "minimum": 0}},
                },
                "max_count": {"type": "integer", "minimum": 0},
                "sampler": {
                    "type": "object",
                    "required": ["steps"],
                    "additionalProperties": False,
                    "properties": {
                        "steps": {"type": "integer", "minimum": 1},
                        "burn_in": {"type": "integer", "minimum": 0},
                        "seed": {"type": "integer", "minimum": 0},
                    },
                },
            },
        },
        "output": {"type": "string"},
    },
}


def _is_number(value) -> bool:
    return isinstance(value, numbers.Number) and not isinstance(value, bool)


def _equal(a, b) -> bool:
    """JSON equality of scalars: True is not 1, 1.0 is 1."""
    return a == b and isinstance(a, bool) == isinstance(b, bool)


_TYPES = {
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "string": lambda v: isinstance(v, str),
    "null": lambda v: v is None,
    "number": _is_number,
    "integer": lambda v: (isinstance(v, int) and not isinstance(v, bool)
                          or isinstance(v, float) and v.is_integer()),
}

# draft 2020-12 semantics of the keywords CONFIG_SCHEMA uses, each as
# (value, keyword argument, schema) -> bool; any other keyword is a KeyError
_KEYWORDS = {
    "$schema": lambda v, arg, s: True,
    "title": lambda v, arg, s: True,
    "type": lambda v, t, s: _TYPES[t](v),
    "enum": lambda v, options, s: any(_equal(v, o) for o in options),
    "const": lambda v, c, s: _equal(v, c),
    "minimum": lambda v, low, s: not _is_number(v) or v >= low,
    "required": lambda v, keys, s: not isinstance(v, dict) or all(k in v for k in keys),
    "properties": lambda v, props, s: not isinstance(v, dict) or all(
        _conforms(v[k], sub) for k, sub in props.items() if k in v),
    "additionalProperties": lambda v, extra, s: not isinstance(v, dict) or all(
        _conforms(v[k], extra) for k in v if k not in s.get("properties", {})),
    "items": lambda v, sub, s: not isinstance(v, list) or all(_conforms(x, sub) for x in v),
    "minItems": lambda v, n, s: not isinstance(v, list) or len(v) >= n,
    "maxItems": lambda v, n, s: not isinstance(v, list) or len(v) <= n,
    "oneOf": lambda v, subs, s: sum(_conforms(v, sub) for sub in subs) == 1,
}


def _conforms(value, schema) -> bool:
    """Whether ``value`` is valid under ``schema``: the decision of jsonschema's
    Draft202012Validator, without importing it."""
    if isinstance(schema, bool):
        return schema
    for keyword, arg in schema.items():
        if not _KEYWORDS[keyword](value, arg, schema):
            return False
    return True


DEFAULT_TOLERANCE = 1e-10


class ConfigError(Exception):
    """Configuration file cannot be parsed, validated, or assembled."""


@dataclass(frozen=True)
class TaskSpec:
    points: tuple[tuple[int, ...], ...] | None = None
    max_count: int | None = None
    sampler: SamplerConfig | None = None


@dataclass(frozen=True)
class InstanceConfig:
    """A fully assembled instance plus the task parameters of the config file."""

    spec: ChainSpec
    tables: ChainTables
    weights: WeightSet
    weight_intervals: tuple | None
    task: TaskSpec
    output: str | None
    digest: str


def _digest(raw: dict) -> str:
    canonical = json.dumps(raw, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()[:12]


@contextmanager
def _field(path: str, name: str):
    """Turn a library refusal inside the block into a ConfigError naming the field."""
    try:
        yield
    except (ShapeError, InvalidInterval, InvalidWeight, DuplicateNode, OverlapError,
            ValueError, IndexError) as exc:
        raise ConfigError(f"{path}: field {name}: {exc}") from exc


def parse_instance(raw: dict, path: str = "<config>") -> InstanceConfig:
    """Validate a raw config dict against the schema and assemble the instance."""
    if not _conforms(raw, CONFIG_SCHEMA):
        # imported only to word the refusal: best_match picks the most
        # relevant of its errors, so a valid config never loads it
        import jsonschema

        error = jsonschema.exceptions.best_match(
            jsonschema.Draft202012Validator(CONFIG_SCHEMA).iter_errors(raw))
        loc = "/".join(str(p) for p in error.absolute_path) or "<root>"
        raise ConfigError(f"{path}: field {loc}: {error.message}") from error

    # draft 2020-12 counts 2.0 as an integer: each integer field is read with int()
    chain_cfg = raw["chain"]
    m, n_rank = int(chain_cfg["m"]), int(chain_cfg["N"])
    if len(raw["grids"]) != m:
        raise ConfigError(f"{path}: field grids: expected {m} entries, got "
                          f"{len(raw['grids'])}")
    with _field(path, "grids"):
        grids = [make_gauss_legendre_grid(tuple(gc["interval"]), int(gc["n"]), level=level)
                 if gc["kind"] == "gauss_legendre" else
                 make_discrete_grid(gc["points"], gc["masses"], level=level)
                 for level, gc in enumerate(raw["grids"], start=1)]
    with _field(path, "chain"):
        spec = ChainSpec(
            m=m,
            N=n_rank,
            family=chain_cfg["family"],
            potentials=tuple(tuple(p) for p in chain_cfg["potentials"])
            if "potentials" in chain_cfg else None,
            couplings=tuple(chain_cfg["couplings"])
            if "couplings" in chain_cfg else None,
        )
        if spec.family == "monomial_exponential":
            tables = tabulate(spec, grids)
        else:
            if "tables" not in chain_cfg:
                raise ConfigError(f"{path}: field chain: tabulated family needs "
                                  "explicit tables")
            tb = chain_cfg["tables"]
            tables = from_tables(grids, tb["f"], tb["h"], tb["g"])
            if tables.N != n_rank:
                raise ConfigError(f"{path}: field chain/tables/f: {tables.N} rows "
                                  f"but N = {n_rank}")
    weights_cfg = raw.get("weights")
    weight_intervals = None
    if weights_cfg is None:
        weights = WeightSet.zeros(grids)
    elif "vectors" in weights_cfg:
        with _field(path, "weights/vectors"):
            weights = WeightSet(tuple(np.asarray(v, dtype=float)
                                      for v in weights_cfg["vectors"]))
            check_weights(grids, weights)
    else:
        weight_intervals = tuple(
            tuple((float(a), float(b)) for a, b in level)
            for level in weights_cfg["intervals"]
        )
        with _field(path, "weights/intervals"):
            weights = from_indicators(grids, weights_cfg["intervals"],
                                      weights_cfg["kappas"])

    task_cfg = raw.get("task", {})
    sampler_cfg = None
    if "sampler" in task_cfg:
        sc = task_cfg["sampler"]
        with _field(path, "task/sampler"):
            sampler_cfg = SamplerConfig(steps=int(sc["steps"]),
                                        burn_in=int(sc["burn_in"]) if "burn_in" in sc else None,
                                        seed=int(sc.get("seed", 0)))
    points = None
    if "points" in task_cfg:
        with _field(path, "task/points"):
            points = tuple(map(tuple, point_lists(grids, task_cfg["points"], n_rank)))
    max_count = int(task_cfg["max_count"]) if "max_count" in task_cfg else None
    if max_count is not None and weight_intervals is not None:
        with _field(path, "task/max_count"):
            count_degrees(n_rank, [int(chi.sum()) for chi in
                                   indicators(grids, weight_intervals)], max_count)
    task = TaskSpec(points=points, max_count=max_count, sampler=sampler_cfg)
    return InstanceConfig(
        spec=spec,
        tables=tables,
        weights=weights,
        weight_intervals=weight_intervals,
        task=task,
        output=raw.get("output"),
        digest=_digest(raw),
    )


def load_instance(path) -> InstanceConfig:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"{path}: line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    return parse_instance(raw, path=str(path))


# ---------------------------------------------------------------------------
# output helpers

def _fmt(value) -> str:
    return repr(float(value)) if isinstance(value, (float, np.floating)) else str(value)


def _write_csv(path, header, rows, inst: InstanceConfig, tol: float) -> None:
    """Write the table, each row followed by the instance digest and tolerance."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(list(header) + ["instance", "tolerance"])
        for row in rows:
            writer.writerow([_fmt(v) for v in tuple(row) + (inst.digest, tol)])


def _verdicts(inst: InstanceConfig, rows, width: int, describe):
    """Print one PASS/FAIL line per row and append each row's status.

    A row is (name, ..., value, bound) and passes when value <= bound;
    ``describe`` formats the fields after the name. Returns the exit code and
    the rows with their status.
    """
    print(f"instance {inst.digest}")
    judged = []
    for row in rows:
        passed = row[-2] <= row[-1]
        print(f"{'PASS' if passed else 'FAIL'}  {row[0]:<{width}s} {describe(*row[1:])}")
        judged.append(tuple(row) + ("pass" if passed else "fail",))
    return (0 if all(r[-1] == "pass" for r in judged) else 1), judged


# ---------------------------------------------------------------------------
# commands: each gets the instance and its plain (w = 0) dualization, prints its
# stdout and returns (exit code, CSV header, CSV rows)

def cmd_check(inst: InstanceConfig, plain: Dualization, args):
    rows = check_rows(plain, dualize(inst.tables, inst.weights), args.tol)
    code, rows = _verdicts(inst, rows, 28,
                           lambda value, bound: f"residual={value:.3e}  bound={bound:.3e}")
    return code, ["quantity", "residual", "bound", "status"], rows


def cmd_gap(inst: InstanceConfig, plain: Dualization, args):
    value = fredholm_det(plain.Kc, inst.weights)
    print(_fmt(value))
    return 0, ["quantity", "value"], [("gap_probability", value)]


def _at_points(inst: InstanceConfig, plain: Dualization, quantity: str, value_of):
    """One value of the plain checked kernel at the configured points."""
    value = value_of(plain.Kc, inst.task.points)
    print(_fmt(value))
    points = json.dumps([list(p) for p in inst.task.points])
    return 0, ["quantity", "points", "value"], [(quantity, points, value)]


def cmd_janossy(inst: InstanceConfig, plain: Dualization, args):
    return _at_points(inst, plain, "janossy_density",
                      lambda kernel, points: janossy(kernel, inst.weights, points))


def cmd_correlate(inst: InstanceConfig, plain: Dualization, args):
    return _at_points(inst, plain, "correlation", correlation)


def cmd_counts(inst: InstanceConfig, plain: Dualization, args):
    dist = gap_generating_function(plain.Kc, inst.weight_intervals,
                                   max_count=inst.task.max_count)
    print(_fmt(dist.total))
    header = [f"count_{j + 1}" for j in range(inst.tables.m)] + ["probability"]
    return 0, header, [tuple(counts) + (p,)
                       for counts, p in sorted(dist.probabilities.items())]


def cmd_sample(inst: InstanceConfig, plain: Dualization, args):
    cfg = inst.task.sampler
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)
    stream = sample(inst.tables, cfg, bases=plain.bases)
    estimate, stderr = empirical_gap(stream, inst.weights)
    reference = fredholm_det(plain.Kc, inst.weights)
    zscore = abs(estimate - reference) / stderr if stderr > 0 else 0.0
    print(f"empirical_gap {_fmt(estimate)}")
    print(f"stderr {_fmt(stderr)}")
    print(f"fredholm_det {_fmt(reference)}")
    print(f"zscore {_fmt(zscore)}")
    return 0, ["quantity", "value", "stderr", "reference", "zscore", "seed"], \
        [("empirical_gap", estimate, stderr, reference, zscore, cfg.seed)]


def cmd_oracle(inst: InstanceConfig, plain: Dualization, args):
    kernel = plain.Kc
    try:
        enum = enumerate_configurations(inst.tables, bases=plain.bases)
    except ValueError as exc:
        raise ConfigError(f"oracle: {exc}") from exc
    rows = []

    det = fredholm_det(kernel, inst.weights)
    gap = oracle_gap(enum, inst.weights)
    rows.append(("gap_probability", gap, det, abs(det - gap), 1e-10))

    if inst.task.points is not None:
        lib = correlation(kernel, inst.task.points)
        ora = oracle_correlation(enum, inst.task.points)
        rows.append(("correlation", ora, lib, abs(lib - ora), 1e-10))
        lib = janossy(kernel, inst.weights, inst.task.points)
        ora = oracle_janossy(enum, inst.weights, inst.task.points)
        rows.append(("janossy_density", ora, lib, abs(lib - ora), 1e-10))

    if inst.weight_intervals is not None:
        lib_dist = gap_generating_function(kernel, inst.weight_intervals,
                                           max_count=inst.task.max_count)
        ora_dist = oracle_counts(enum, inst.weight_intervals)
        keys = set(lib_dist.probabilities) | set(ora_dist.probabilities)
        diff = max(abs(lib_dist.probability(k) - ora_dist.probability(k))
                   for k in keys)
        rows.append(("count_distribution", ora_dist.total, lib_dist.total,
                     diff, 1e-8))

    code, rows = _verdicts(
        inst, rows, 20,
        lambda ora, lib, diff, bound: f"oracle={ora!r} library={lib!r} diff={diff:.3e}")
    return code, ["quantity", "oracle", "library", "abs_diff", "bound", "status"], rows


# name: (handler, help text, need). A need is what the command requires beyond
# the chain, or None: (its name in a refusal, its value on the instance, None
# where the config lacks it)
_POINTS = ("task.points", lambda inst: inst.task.points)
_COMMANDS = {
    "check": (cmd_check, "verify the resolvent identity and all residual identities", None),
    "gap": (cmd_gap, "Fredholm determinant (gap probability for indicator weights)", None),
    "janossy": (cmd_janossy, "Janossy density of the weights at the configured points",
                _POINTS),
    "correlate": (cmd_correlate, "correlation function at the configured points", _POINTS),
    "counts": (cmd_counts, "count distribution over the configured interval system",
               ("interval-type weights", lambda inst: inst.weight_intervals)),
    "sample": (cmd_sample, "Metropolis run with empirical gap estimate",
               ("task.sampler", lambda inst: inst.task.sampler)),
    "oracle": (cmd_oracle, "exhaustive enumeration cross-checks (discrete instances)", None),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="detchain",
        description="Multilevel determinantal ensembles: kernels, Fredholm "
                    "determinants, and resolvent-identity verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, desc, _) in _COMMANDS.items():
        p = sub.add_parser(name, help=desc)
        p.add_argument("--config", required=True, help="JSON instance config")
        p.add_argument("--out", default=None, help="CSV output path")
        p.add_argument("--seed", type=int, default=None,
                       help="override the sampler seed")
        p.add_argument("--tol", type=float, default=DEFAULT_TOLERANCE,
                       help="base tolerance for identity residuals")
    return parser


# built once: building the parser costs more than parsing one command line
_PARSER = build_parser()


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        inst = load_instance(args.config)
        handler, _, need = _COMMANDS[args.command]
        if need and need[1](inst) is None:
            raise ConfigError(f"{args.command} needs {need[0]} in the config")
        plain = dualize(inst.tables, WeightSet.zeros(inst.tables.grids))
        code, header, rows = handler(inst, plain, args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except DetchainError as exc:
        print(f"numerical failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    out = args.out or inst.output
    if out:
        _write_csv(out, header, rows, inst, args.tol)
    return code


if __name__ == "__main__":
    sys.exit(main())
