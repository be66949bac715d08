"""Traced replay of ``detchain`` commands.

Each replay makes the same public calls, in the same order and on the same
inputs, as the matching ``cmd_*`` handler of ``detchain.cli``, and records one
span per call. It returns the text the command prints and the CSV it writes,
so the caller can require both to equal the real command's output bit for
bit: that shows the replay measures the same program.

A call that does its work through other public functions internally
(``cli.load_instance`` builds the grids, tables and weights;
``biortho.dual_bases`` builds and factors the pairing matrix) is followed by
*shadow* calls of those functions on the same inputs. A shadow is a sibling
span whose ``charged_to`` names the span it is carved out of; that span's
self time is its duration minus its children and its shadows. Shadows repeat
work, so they are left out of the traced command time.
"""

from __future__ import annotations

import csv
import io
import json
import sys
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from time import perf_counter

import numpy as np

from detchain import biortho, chain, cli, fredholm, kernels, measure, oracle, sampler
from detchain.chain import WeightSet
from detchain.errors import DetchainError

# check rows and the layer whose result each one judges
CHECK_ROW_LAYER = {
    "identity": "fredholm",
    "transfer": "fredholm",
    "biorthogonality": "biortho",
    "pairing": "biortho",
    "construction": "kernels",
    "factorization": "kernels",
}


@dataclass
class Span:
    id: int
    name: str
    layer: str
    start: float
    end: float
    parent: int | None
    command: int
    charged_to: int | None = None
    error: bool = False


class Tracer:
    """In-memory span recorder; spans are written out once, when the run ends."""

    def __init__(self):
        self.spans: list[Span] = []
        self.command = -1
        self._stack: list[int] = []
        self._raised = None

    @contextmanager
    def span(self, name: str, charged_to: int | None = None):
        sp = Span(len(self.spans), name, name.split(".")[0], 0.0, 0.0,
                  self._stack[-1] if self._stack else None, self.command, charged_to)
        self.spans.append(sp)
        self._stack.append(sp.id)
        sp.start = perf_counter()
        try:
            yield sp
        except Exception as exc:
            # only the innermost span an exception leaves counts as failed
            if exc is not self._raised:
                sp.error = True
                self._raised = exc
            raise
        finally:
            sp.end = perf_counter()
            self._stack.pop()

    def call(self, name, fn, *args, charged_to=None, **kwargs):
        with self.span(name, charged_to):
            return fn(*args, **kwargs)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for sp in self.spans:
                fh.write(json.dumps(asdict(sp)) + "\n")


class CallCounter:
    """Counts calls of one library function, including calls made inside the library.

    While active, every ``detchain`` module attribute bound to the function is
    replaced by a counting wrapper, so internal callers are counted too.
    """

    def __init__(self, module, name: str):
        self.count = 0
        original = getattr(module, name)

        def counted(*args, **kwargs):
            self.count += 1
            return original(*args, **kwargs)

        self._wrapper = counted
        self._sites = [(mod, name, original) for key, mod in list(sys.modules.items())
                       if key.split(".")[0] == "detchain"
                       and getattr(mod, name, None) is original]

    def __enter__(self):
        for mod, name, _ in self._sites:
            setattr(mod, name, self._wrapper)
        return self

    def __exit__(self, *exc):
        for mod, name, original in self._sites:
            setattr(mod, name, original)


@dataclass
class Replayed:
    stdout: str
    csv: str
    exit_code: int
    # per-command facts the layer metrics need
    dual_bases_calls: int = 0
    configurations: int = 0
    steps: int = 0
    moved_ratio: float | None = None
    # one entry per output row over its bound: the layer that computed the row
    failed_row_layers: tuple[str, ...] = ()


def _fmt(value) -> str:
    return repr(float(value)) if isinstance(value, (float, np.floating)) else str(value)


def _csv_text(header, rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    for row in rows:
        writer.writerow([_fmt(v) for v in row])
    return buf.getvalue()


class _Run:
    """State of one replayed command."""

    def __init__(self, tr: Tracer, path, raw: dict):
        self.tr = tr
        self.path = path
        self.raw = raw
        self.out: list[str] = []
        self.csv = ""
        self.facts: dict = {}

    def print(self, line: str) -> None:
        self.out.append(line + "\n")

    # -- calls with shadows -------------------------------------------------
    def load_instance(self):
        tr, raw = self.tr, self.raw
        with tr.span("cli.load_instance") as sp:
            inst = cli.load_instance(self.path)
        grids = []
        for level, gc in enumerate(raw["grids"], start=1):
            if gc["kind"] == "gauss_legendre":
                grids.append(tr.call("measure.make_gauss_legendre_grid",
                                     measure.make_gauss_legendre_grid,
                                     tuple(gc["interval"]), gc["n"], level=level,
                                     charged_to=sp.id))
            else:
                grids.append(tr.call("measure.make_discrete_grid",
                                     measure.make_discrete_grid, gc["points"],
                                     gc["masses"], level=level, charged_to=sp.id))
        tr.call("chain.tabulate", chain.tabulate, inst.spec, grids, charged_to=sp.id)
        weights = raw.get("weights")
        if weights and "intervals" in weights:
            tr.call("chain.from_indicators", chain.from_indicators, grids,
                    weights["intervals"], weights["kappas"], charged_to=sp.id)
        return inst

    def dual_bases(self, tables, weights):
        tr = self.tr
        with tr.span("biortho.dual_bases") as sp:
            bases = biortho.dual_bases(tables, weights)
        A = tr.call("biortho.pairing_matrix", biortho.pairing_matrix, tables, weights,
                    charged_to=sp.id)
        tr.call("biortho.plu_decompose", biortho.plu_decompose, A, charged_to=sp.id)
        return bases

    def plain_kernel(self, inst):
        tr = self.tr
        zeros = WeightSet.zeros(inst.tables.grids)
        bases = self.dual_bases(inst.tables, zeros)
        K = tr.call("kernels.build_K", kernels.build_K, bases)
        g = tr.call("kernels.build_g", kernels.build_g, inst.tables,
                    WeightSet.zeros(inst.tables.grids))
        return bases, tr.call("kernels.check_kernel", kernels.check_kernel, K, g)

    def writes_csv(self, args, inst) -> bool:
        return bool(args.out or inst.output)

    # -- commands: each mirrors the cmd_* handler of the same name ----------
    def check(self, inst, args) -> int:
        tr = self.tr
        tol = args.tol
        tables, weights = inst.tables, inst.weights
        zeros = WeightSet.zeros(tables.grids)
        rows = []
        res = tr.call("fredholm.theorem2_residuals", fredholm.theorem2_residuals,
                      tables, weights)
        for name, value in res.as_dict().items():
            rows.append((f"identity_{name}", value, tol * res.scale))
        rows.append(("transfer_resolvent",
                     tr.call("fredholm.g_resolvent_residual",
                             fredholm.g_resolvent_residual, tables, weights),
                     tol * res.scale))
        plain_b = self.dual_bases(tables, zeros)
        dual_b = self.dual_bases(tables, weights)
        rows.append(("biorthogonality_plain", plain_b.biorthogonality_residual, tol))
        rows.append(("biorthogonality_dual", dual_b.biorthogonality_residual, tol))
        for label, ws in (("plain", zeros), ("dual", weights)):
            a1, am = tr.call("biortho.pairing_expressions", biortho.pairing_expressions,
                             tables, ws)
            scale_a = max(1.0, float(np.max(np.abs(a1))))
            rows.append((f"pairing_expressions_{label}",
                         float(np.max(np.abs(a1 - am))), 1e-11 * scale_a))
        built = tr.call("kernels.build_K", kernels.build_K, dual_b)
        via_inverse = tr.call("kernels.kernel_via_inverse", kernels.kernel_via_inverse,
                              tables, weights)
        diff = max(
            float(np.max(np.abs(built.block(i, j) - via_inverse.block(i, j))))
            for i in range(1, tables.m + 1) for j in range(1, tables.m + 1)
        )
        kscale = max(1.0, built.max_abs())
        rows.append(("construction_invariance", diff, 1e-12 * kscale))
        for label, bas, ws in (("plain", plain_b, zeros), ("dual", dual_b, weights)):
            kern = tr.call("kernels.build_K", kernels.build_K, bas)
            transfer = tr.call("kernels.build_g", kernels.build_g, tables, ws)
            rows.append((f"factorization_{label}",
                         tr.call("kernels.factorization_residual",
                                 kernels.factorization_residual, kern, transfer,
                                 tables, ws),
                         1e-11 * max(1.0, kern.max_abs())))
        ok = True
        self.print(f"instance {inst.digest}")
        for name, value, bound in rows:
            passed = value <= bound
            ok = ok and passed
            self.print(f"{'PASS' if passed else 'FAIL'}  {name:<28s} "
                       f"residual={value:.3e}  bound={bound:.3e}")
        self.facts["failed_row_layers"] = tuple(CHECK_ROW_LAYER[n.split("_")[0]]
                                                for n, v, b in rows if not v <= b)
        if self.writes_csv(args, inst):
            self.csv = _csv_text(["quantity", "residual", "bound", "status", "instance",
                                  "tolerance"],
                                 [(n, v, b, "pass" if v <= b else "fail", inst.digest,
                                   tol) for n, v, b in rows])
        return 0 if ok else 1

    def gap(self, inst, args) -> int:
        _, kernel = self.plain_kernel(inst)
        value = self.tr.call("fredholm.fredholm_det", fredholm.fredholm_det, kernel,
                             inst.weights)
        self.print(_fmt(value))
        if self.writes_csv(args, inst):
            self.csv = _csv_text(["quantity", "value", "instance", "tolerance"],
                                 [("gap_probability", value, inst.digest, args.tol)])
        return 0

    def janossy(self, inst, args) -> int:
        if inst.task.points is None:
            raise cli.ConfigError("janossy needs task.points in the config")
        _, kernel = self.plain_kernel(inst)
        value = self.tr.call("fredholm.janossy", fredholm.janossy, kernel, inst.weights,
                             inst.task.points)
        self.print(_fmt(value))
        if self.writes_csv(args, inst):
            self.csv = _csv_text(
                ["quantity", "points", "value", "instance", "tolerance"],
                [("janossy_density", json.dumps([list(p) for p in inst.task.points]),
                  value, inst.digest, args.tol)])
        return 0

    def counts(self, inst, args) -> int:
        if inst.weight_intervals is None:
            raise cli.ConfigError("counts needs interval-type weights in the config")
        _, kernel = self.plain_kernel(inst)
        dist = self.tr.call("fredholm.gap_generating_function",
                            fredholm.gap_generating_function, kernel,
                            inst.weight_intervals, max_count=inst.task.max_count)
        m = inst.tables.m
        header = [f"count_{j + 1}" for j in range(m)] + ["probability", "instance",
                                                         "tolerance"]
        rows = [tuple(counts) + (p, inst.digest, args.tol)
                for counts, p in sorted(dist.probabilities.items())]
        self.print(_fmt(dist.total))
        if self.writes_csv(args, inst):
            self.csv = _csv_text(header, rows)
        return 0

    def sample(self, inst, args) -> int:
        tr = self.tr
        if inst.task.sampler is None:
            raise cli.ConfigError("sample needs task.sampler in the config")
        cfg = inst.task.sampler
        if args.seed is not None:
            cfg = sampler.SamplerConfig(steps=cfg.steps, burn_in=cfg.burn_in,
                                        seed=args.seed, proposal=cfg.proposal)
        bases, kernel = self.plain_kernel(inst)
        with tr.span("sampler.sample") as sp:
            stream = sampler.sample(inst.tables, cfg, bases=bases)
        # the benchmark's chains are all small enough for sample's positivity
        # precheck, which enumerates every configuration
        enum = tr.call("oracle.enumerate_configurations",
                       oracle.enumerate_configurations, inst.tables, bases=bases,
                       charged_to=sp.id)
        self.facts["configurations"] = int(enum.weights.size)
        self.facts["steps"] = cfg.steps
        self.facts["stream"] = stream
        estimate, stderr = tr.call("sampler.empirical_gap", sampler.empirical_gap,
                                   stream, inst.weights)
        reference = tr.call("fredholm.fredholm_det", fredholm.fredholm_det, kernel,
                            inst.weights)
        zscore = abs(estimate - reference) / stderr if stderr > 0 else 0.0
        self.print(f"empirical_gap {_fmt(estimate)}")
        self.print(f"stderr {_fmt(stderr)}")
        self.print(f"fredholm_det {_fmt(reference)}")
        self.print(f"zscore {_fmt(zscore)}")
        if self.writes_csv(args, inst):
            self.csv = _csv_text(["quantity", "value", "stderr", "reference", "zscore",
                                  "seed", "instance", "tolerance"],
                                 [("empirical_gap", estimate, stderr, reference, zscore,
                                   cfg.seed, inst.digest, args.tol)])
        return 0

    def oracle(self, inst, args) -> int:
        tr = self.tr
        bases, kernel = self.plain_kernel(inst)
        enum = tr.call("oracle.enumerate_configurations",
                       oracle.enumerate_configurations, inst.tables, bases=bases)
        self.facts["configurations"] = int(enum.weights.size)
        rows = []
        det = tr.call("fredholm.fredholm_det", fredholm.fredholm_det, kernel,
                      inst.weights)
        gap = tr.call("oracle.queries", oracle.oracle_gap, enum, inst.weights)
        rows.append(("gap_probability", gap, det, abs(det - gap), 1e-10))
        if inst.task.points is not None:
            lib = tr.call("fredholm.correlation", fredholm.correlation, kernel,
                          inst.task.points)
            ora = tr.call("oracle.queries", oracle.oracle_correlation, enum,
                          inst.task.points)
            rows.append(("correlation", ora, lib, abs(lib - ora), 1e-10))
            if inst.weights.is_indicator():
                lib = tr.call("fredholm.janossy", fredholm.janossy, kernel,
                              inst.weights, inst.task.points)
                ora = tr.call("oracle.queries", oracle.oracle_janossy, enum,
                              inst.weights, inst.task.points)
                rows.append(("janossy_density", ora, lib, abs(lib - ora), 1e-10))
        if inst.weight_intervals is not None:
            lib_dist = tr.call("fredholm.gap_generating_function",
                               fredholm.gap_generating_function, kernel,
                               inst.weight_intervals, max_count=inst.task.max_count)
            ora_dist = tr.call("oracle.queries", oracle.oracle_counts, enum,
                               inst.weight_intervals)
            keys = set(lib_dist.probabilities) | set(ora_dist.probabilities)
            diff = max(abs(lib_dist.probability(k) - ora_dist.probability(k))
                       for k in keys)
            rows.append(("count_distribution", ora_dist.total, lib_dist.total,
                         diff, 1e-8))
        ok = True
        self.print(f"instance {inst.digest}")
        for name, oracle_value, library_value, diff, bound in rows:
            passed = diff <= bound
            ok = ok and passed
            self.print(f"{'PASS' if passed else 'FAIL'}  {name:<20s} "
                       f"oracle={oracle_value!r} library={library_value!r} "
                       f"diff={diff:.3e}")
        self.facts["failed_row_layers"] = tuple("oracle" for r in rows
                                                if not r[3] <= r[4])
        if self.writes_csv(args, inst):
            self.csv = _csv_text(["quantity", "oracle", "library", "abs_diff", "bound",
                                  "status", "instance", "tolerance"],
                                 [(n, o, l, d, b, "pass" if d <= b else "fail",
                                   inst.digest, args.tol) for n, o, l, d, b in rows])
        return 0 if ok else 1


def replay(tr: Tracer, argv: list[str], command_id: int) -> Replayed:
    """Replay ``detchain.cli.main(argv)`` under one root span ``cli.command``."""
    args = cli.build_parser().parse_args(argv)
    with open(args.config) as fh:
        run = _Run(tr, args.config, json.load(fh))
    tr.command = command_id
    with CallCounter(biortho, "dual_bases") as calls:
        with tr.span("cli.command"):
            args = cli.build_parser().parse_args(argv)
            try:
                inst = run.load_instance()
                code = getattr(run, args.command)(inst, args)
            except cli.ConfigError:
                code = 2
            except DetchainError:
                code = 3
    stream = run.facts.get("stream")
    moved_ratio = None
    if stream:
        moved = sum(a.nodes != b.nodes for a, b in zip(stream, stream[1:]))
        moved_ratio = moved / max(1, len(stream) - 1)
    return Replayed(stdout="".join(run.out), csv=run.csv, exit_code=code,
                    dual_bases_calls=calls.count,
                    configurations=run.facts.get("configurations", 0),
                    steps=run.facts.get("steps", 0),
                    moved_ratio=moved_ratio,
                    failed_row_layers=run.facts.get("failed_row_layers", ()))
