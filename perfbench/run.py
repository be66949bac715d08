"""The detchain benchmark: one closed-loop client timing ``detchain`` commands.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the library is imported from
``src/``. Each command is an in-process call to ``detchain.cli.main`` on a
generated config file, and the next one is sent only after it returns. Every
output is checked against an independent route outside the timed interval
(checks.py). The last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics of a traced replay with ``--trace 1``.
See README.md for the metric definitions.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

# numpy and detchain are imported only after bootstrap() has pinned the BLAS
# threads, which must happen before numpy loads its BLAS
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

# BLAS runs single-threaded: steadier on a shared machine, within nproc on any
# machine, and bitwise reproducible, which the replay comparison relies on
BLAS_THREADS = 1
SETUP_RUNS = 5
SETUP_TIMEOUT_S = 60

# The speed of a shared machine drifts by tens of percent within seconds. A
# calibration unit of fixed work is timed after every CALIBRATE_EVERY_S of
# command time, and each command's time is scaled by REFERENCE_UNIT_S over the
# mean of the two units around it: gated times are seconds on a machine where
# the unit takes REFERENCE_UNIT_S, about what it takes on the 2-core machine
# the benchmark was defined on. The unit mixes interpreted code and LAPACK,
# as the workloads do.
REFERENCE_UNIT_S = 0.035
CALIBRATE_EVERY_S = 0.2
CALIBRATION_PY_ITERS = 80_000
CALIBRATION_LA_SIZE = 768

LAYERS = ("cli", "measure", "chain", "biortho", "kernels", "fredholm", "oracle",
          "sampler")
TIMED_SPANS = (
    "cli.load_instance", "cli.command_self",
    "measure.make_gauss_legendre_grid", "measure.make_discrete_grid",
    "chain.tabulate", "chain.from_indicators",
    "biortho.pairing_matrix", "biortho.plu_decompose", "biortho.dual_bases",
    "biortho.pairing_expressions",
    "kernels.build_K", "kernels.build_g", "kernels.check_kernel",
    "kernels.kernel_via_inverse", "kernels.factorization_residual",
    "fredholm.fredholm_det", "fredholm.janossy", "fredholm.gap_generating_function",
    "fredholm.theorem2_residuals", "fredholm.g_resolvent_residual",
    "fredholm.correlation",
    "oracle.enumerate_configurations", "oracle.queries",
    "sampler.empirical_gap",
)
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def bootstrap() -> bool:
    """Pin BLAS threads and put the checkout's ``src/`` first on the path."""
    if not (SRC / "detchain" / "__init__.py").is_file():
        print(f"benchmark: no detchain sources under {SRC}", file=sys.stderr)
        return False
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(SRC))
    import detchain

    if Path(detchain.__file__).resolve().parent != SRC / "detchain":
        print(f"benchmark: imported detchain from {detchain.__file__}, not {SRC}",
              file=sys.stderr)
        return False
    return True


def blas_threads_in_use():
    """Thread count reported by the loaded OpenBLAS, or None if not found."""
    import ctypes

    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh
                       if "openblas" in line.lower() and ".so" in line})
    for lib in libs:
        dll = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(dll, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def machine_record() -> str:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        blas = "unknown"
    return (f"machine: nproc={os.cpu_count()} python={platform.python_version()} "
            f"numpy={np.__version__} blas={blas} blas_threads={blas_threads_in_use()} "
            f"(pinned {BLAS_THREADS})")


class Calibration:
    """Fixed work that uses no detchain code: a dict loop and one LU
    factorization of the size ``gl_chain`` works at."""

    def __init__(self):
        import numpy as np

        self._np = np
        size = CALIBRATION_LA_SIZE
        self._matrix = np.random.default_rng(0).standard_normal((size, size))
        self.units = [self._unit()]
        self._since = 0.0

    def _unit(self) -> float:
        t0 = perf_counter()
        counts: dict[int, int] = {}
        for i in range(CALIBRATION_PY_ITERS):
            counts[i % 97] = counts.get(i % 97, 0) + i
        self._np.linalg.slogdet(self._matrix)
        return perf_counter() - t0

    def mark(self, seconds: float) -> int:
        """Account for a measurement of ``seconds``; returns the index of the
        unit before it, for ``scale``. Runs a unit once enough time has passed."""
        before = len(self.units) - 1
        self._since += seconds
        if self._since >= CALIBRATE_EVERY_S:
            self.finish()
        return before

    def finish(self) -> None:
        """Run the unit that closes the open interval, if any."""
        if self._since > 0.0:
            self.units.append(self._unit())
            self._since = 0.0

    def scale(self, seconds: float, before: int) -> float:
        """``seconds`` measured after unit ``before``, in reference seconds."""
        local = 0.5 * (self.units[before] + self.units[before + 1])
        return seconds * REFERENCE_UNIT_S / local


def measure_setup(workload: str, seed: int, workdir: Path):
    """Set-up times of SETUP_RUNS fresh processes: measured, and in reference
    seconds."""
    calibration = Calibration()
    marks = []
    for k in range(SETUP_RUNS):
        probe_dir = workdir / f"setup-{k}"
        done = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed),
             str(probe_dir)],
            capture_output=True, text=True, timeout=SETUP_TIMEOUT_S, check=True)
        seconds = float(done.stdout.strip().splitlines()[-1])
        marks.append((seconds, calibration.mark(seconds)))
        calibration.finish()
    return [t for t, _ in marks], [calibration.scale(t, k) for t, k in marks]


class Client:
    """Runs commands in process and keeps what each one printed and wrote."""

    def __init__(self, workdir: Path):
        from detchain import cli

        self.cli = cli
        self.out_csv = workdir / "out.csv"

    def argv(self, command: str, config: Path) -> list[str]:
        return [command, "--config", str(config), "--out", str(self.out_csv)]

    def run(self, argv: list[str]):
        """(seconds, exit code, stdout, csv text); exit code None on a crash."""
        stdout, stderr = io.StringIO(), io.StringIO()
        self.out_csv.unlink(missing_ok=True)
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            t0 = perf_counter()
            try:
                code = self.cli.main(argv)
            except Exception:
                code = None
                traceback.print_exc(file=stderr)
            seconds = perf_counter() - t0
        if code is None:
            print(f"benchmark: {argv} crashed:\n{stderr.getvalue()}", file=sys.stderr)
        csv_text = ""
        if self.out_csv.exists():
            with open(self.out_csv, newline="") as fh:
                csv_text = fh.read()
        return seconds, code, stdout.getvalue(), csv_text


def tail(values):
    """Highest listed percentile with at least ten samples beyond it."""
    n = len(values)
    import numpy as np

    for p in TAIL_PERCENTILES:
        if n * (1.0 - p / 100.0) >= 10:
            return p, float(np.percentile(values, p))
    return None


def describe(name: str, unit: str, values) -> str:
    line = f"{name} = {statistics.median(values):.6g} {unit} (n={len(values)}"
    t = tail(values)
    if t is None:
        return line + ", no percentile has ten samples beyond it)"
    return line + f", p{t[0]:g} = {t[1]:.6g} {unit})"


class Tally:
    """Attempted/failed commands, rejected instances, correctness and notes."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.instances = 0
        self.rejected = 0
        self.correct = True
        self.notes: dict[str, int] = {}
        self._cycle_rejected = False

    def add(self, code, outcome) -> None:
        self.attempted += 1
        if code is None:
            self.failed += 1
            self.correct = False
            return
        self.failed += outcome.failed
        self.correct = self.correct and not outcome.wrong_value
        self._cycle_rejected = self._cycle_rejected or outcome.rejected
        for note in outcome.notes:
            self.notes[note] = self.notes.get(note, 0) + 1

    def end_cycle(self) -> None:
        """Close one instance: it is rejected if any of its commands was."""
        self.instances += 1
        self.rejected += self._cycle_rejected
        self._cycle_rejected = False

    def report(self) -> None:
        print(f"failed_ratio = {self.failed / self.attempted:.6g} 1 "
              f"({self.failed} of {self.attempted} commands)")
        print(f"rejected_ratio = {self.rejected / self.instances:.6g} 1 "
              f"({self.rejected} of {self.instances} instances rejected by check)")
        for note, count in sorted(self.notes.items()):
            print(f"  {count} x {note}")


def timed_run(workload, client, refs, seconds: float):
    """Closed loop of whole cycles until the commands have taken ``seconds``.

    Returns the tally, the measured seconds per command name, per cycle the
    measured and the reference seconds of each command, and the calibration.
    """
    from detchain.cli import load_instance

    calibration = Calibration()
    tally = Tally()
    per_command = {c: [] for c in workload.commands}
    cycles = []        # per cycle: [(raw seconds, calibration mark)]
    busy = 0.0
    cycle = 1
    while busy < seconds:
        config = workload.config_for(cycle)
        results = []
        for command in workload.commands:
            dt, code, stdout, csv_text = client.run(client.argv(command, config))
            results.append((command, dt, calibration.mark(dt), code, stdout, csv_text))
        inst = load_instance(config)
        for command, dt, _, code, stdout, csv_text in results:
            per_command[command].append(dt)
            outcome = None if code is None else refs.check(command, inst, code, stdout,
                                                           csv_text)
            tally.add(code, outcome)
        tally.end_cycle()
        cycles.append([(dt, mark) for _, dt, mark, *_ in results])
        busy += sum(dt for _, dt, *_ in results)
        cycle += 1
    calibration.finish()
    scaled = [[calibration.scale(dt, mark) for dt, mark in c] for c in cycles]
    return tally, per_command, cycles, scaled, calibration


def traced_run(workload, client, refs, seconds: float, spans_path: Path):
    """Each command untraced, then replayed under the tracer; outputs must match."""
    from detchain.cli import load_instance
    from replay import Tracer, replay

    tracer = Tracer()
    tally = Tally()
    commands = []      # (command name, untraced seconds, Replayed)
    busy = 0.0
    cycle = 1
    while busy < seconds:
        config = workload.config_for(cycle)
        inst = load_instance(config)
        for command in workload.commands:
            argv = client.argv(command, config)
            # alternate which side runs first, so neither gets the warmer caches
            traced_first = len(commands) % 2 == 1
            if traced_first:
                t0 = perf_counter()
                replayed = replay(tracer, argv, len(commands))
                traced_s = perf_counter() - t0
            dt, code, stdout, csv_text = client.run(argv)
            if not traced_first:
                t0 = perf_counter()
                replayed = replay(tracer, argv, len(commands))
                traced_s = perf_counter() - t0
            busy += dt + traced_s
            outcome = None if code is None else refs.check(command, inst, code, stdout,
                                                           csv_text)
            tally.add(code, outcome)
            if (replayed.stdout, replayed.csv, replayed.exit_code) != \
                    (stdout, csv_text, code):
                tally.correct = False
                print(f"benchmark: replay of {argv} differs from the command",
                      file=sys.stderr)
            commands.append((command, dt, replayed))
        tally.end_cycle()
        cycle += 1
    tracer.write(spans_path)
    return tally, layer_metrics(tracer.spans, commands)


def layer_metrics(spans, commands) -> dict:
    """Per-layer metrics from the spans and the per-command replay facts.

    Times are the median over commands that have a span of that name of the
    per-command self time; counts are per command over all commands.
    """
    duration = {sp.id: sp.end - sp.start for sp in spans}
    carved = {sp.id: 0.0 for sp in spans}
    shadow = {sp.id: 0.0 for sp in spans}  # shadow time inside each root span
    for sp in spans:
        if sp.charged_to is not None:
            carved[sp.charged_to] += duration[sp.id]
        if sp.parent is not None:
            carved[sp.parent] += duration[sp.id]
            if sp.charged_to is not None:
                shadow[sp.parent] += duration[sp.id]
    per_command: dict[str, dict[int, float]] = {}
    errors = {layer: 0 for layer in LAYERS}
    overhead = []
    for sp in spans:
        name = "cli.command_self" if sp.name == "cli.command" else sp.name
        self_time = duration[sp.id] - carved[sp.id]
        slot = per_command.setdefault(name, {})
        slot[sp.command] = slot.get(sp.command, 0.0) + self_time
        errors[sp.layer] += sp.error
        if sp.name == "cli.command":
            overhead.append((duration[sp.id] - shadow[sp.id])
                            / commands[sp.command][1])
    metrics = {}
    for name in TIMED_SPANS:
        values = list(per_command.get(name, {}).values())
        metrics[f"{name}.s"] = (statistics.median(values) if values else 0.0, "s")

    n = len(commands)
    replays = [r for _, _, r in commands]
    for r in replays:
        for layer in r.failed_row_layers:
            errors[layer] += 1
    metrics["biortho.dual_bases.calls"] = (sum(r.dual_bases_calls for r in replays) / n,
                                           "count")
    metrics["oracle.configurations"] = (sum(r.configurations for r in replays) / n,
                                        "count")
    sample_self = per_command.get("sampler.sample", {})
    per_step = [sample_self[i] / r.steps * 1e6 for i, r in enumerate(replays)
                if r.steps and i in sample_self]
    metrics["sampler.sample.us_per_step"] = (
        statistics.median(per_step) if per_step else 0.0, "us")
    moved = [r.moved_ratio for r in replays if r.moved_ratio is not None]
    metrics["sampler.moved_ratio"] = (statistics.median(moved) if moved else 0.0, "1")
    for layer in LAYERS:
        metrics[f"{layer}.errors"] = (errors[layer] / n, "count")
    metrics["trace.overhead_ratio"] = (statistics.median(overhead), "1")
    return metrics


def emit(correct: bool, attempted: int, failed: int, metrics: dict) -> None:
    print(json.dumps({
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
    }))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not bootstrap():
        return 2
    from checks import References
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"benchmark: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    workdir = WORK / f"{args.workload}-s{args.seed}-t{args.trace}-p{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        print(machine_record())
        if not args.trace:
            setup_measured, setup_times = measure_setup(args.workload, args.seed,
                                                        workdir / "setup")
        workload = WORKLOADS[args.workload](args.seed, workdir)
        client = Client(workdir)
        refs = References()
        for command in workload.commands:  # warm-up cycle, not timed or checked
            client.run(client.argv(command, workload.config_for(0)))
        if args.trace:
            tally, metrics = traced_run(
                workload, client, refs, args.seconds,
                WORK / f"spans-{args.workload}-s{args.seed}.jsonl")
            metrics.update({k: (v, "1") for k, v in refs.accuracy.items()})
            for name, (value, unit) in metrics.items():
                print(f"{name} = {value:.6g} {unit}")
        else:
            tally, per_command, cycles, scaled, calibration = timed_run(
                workload, client, refs, args.seconds)
            peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            metrics = {
                "setup_s": (statistics.median(setup_times), "s"),
                "cycle_s.p50": (statistics.median([sum(c) for c in scaled]), "s"),
                "ops_per_s": (tally.attempted / sum(map(sum, scaled)), "1/s"),
                "accept_ratio": (1.0 - tally.rejected / tally.instances, "1"),
                "peak_rss_mb": (peak_mb, "MB"),
            }
            print(f"measured wall times (calibration unit median "
                  f"{statistics.median(calibration.units):.4g} s, reference "
                  f"{REFERENCE_UNIT_S:g} s):")
            for command, values in per_command.items():
                print("  " + describe(f"{command}_s.p50", "s", values))
            print("  " + describe("cycle_s.p50", "s",
                                  [sum(dt for dt, _ in c) for c in cycles]))
            print("  " + describe("setup_s", "s", setup_measured))
            print("gated metrics, times in reference seconds:")
            for name, (value, unit) in metrics.items():
                print(f"  {name} = {value:.6g} {unit}")
            for name, value in refs.accuracy.items():
                print(f"{name} = {value:.3g}")
        tally.report()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    emit(tally.correct, tally.attempted, tally.failed, metrics)
    return 0


if __name__ == "__main__":
    sys.exit(main())
