#!/usr/bin/env python3
"""Compare every command's outputs between a git revision and the working tree.

    python3 scripts/compare_outputs.py [REF]        (REF defaults to HEAD)

Extracts REF with ``git archive`` into a temporary directory and writes the
configs once: the four bundled ones, three variants of ``discrete_m2n2``
(soft weight vectors with its task points; its indicator sets with task
points outside them; w = 1 on level 1 and 0 on level 2 with two level-1 task
points, where the gap vanishes but the Janossy density does not), two
monomial chains with more than 10^7 labeled tuples (m, N = 3, 3 on 7 nodes
per level and 4, 2 on 8; no sampler section), a chain whose gap is
5.0e-13 (m, N = 3, 2 on 7 nodes per level, seed 7, coupling 1, w = 1 except
on the last two nodes of each level; no sampler section), plus
the seed-1 configs ``gl_chain`` 0-2, ``discrete_verify`` 0-5 and ``mcmc``
0-1 of ``perfbench/workloads.py`` (imported, read only) and the
``discrete_verify`` (seed, cycle) pairs (4, 1816), (5, 1407) and (2, 216)
of ROADMAP item 1's table (cond A^w 1.25e8 at the first): the instances
whose ``check`` rows read furthest over their bounds, where the dense
references carry the most rounding and a status is likeliest to flip.
Each tree then runs the seven commands on every config in one subprocess,
with BLAS pinned to one thread. Prints every difference in exit code, stdout, stderr
or CSV. For each ``check`` row it then prints the largest new/old residual
ratio over the configs, and lists every row whose status flips or that
reads exactly 0.0 where REF's does not. For every other command it prints
the largest absolute and the largest relative move of each numeric output
(the values, the count probabilities, ``oracle``'s library column and
``sample``'s reference and z-score), and lists every ``oracle`` row whose
status flips. Exits 1 if there is any difference.

The script compares two trees and nothing else. The benchmark's checks and
replay on the workload configs, and ``check`` on one CPU against the split
run, are Tier-1 tests (``tests/test_benchmark_smoke.py``,
``tests/test_fredholm.py``).
"""

from __future__ import annotations

import contextlib
import csv
import difflib
import io
import json
import os
import shutil
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
COMMANDS = ("check", "gap", "janossy", "correlate", "counts", "sample", "oracle")
BUNDLED = ("discrete_m1n2", "discrete_m2n2", "discrete_m3n2", "gauss_chain")
WORKLOAD_CYCLES = {"gl_chain": 3, "discrete_verify": 6, "mcmc": 2}
SEED = 1
# (seed, cycle) of the discrete_verify instances whose check rows read
# furthest over their bounds (ROADMAP item 1)
WORST_CONDITIONED = ((4, 1816), (5, 1407), (2, 216))
FIELDS = ("code", "stdout", "stderr", "csv")


def write_configs(directory: Path) -> list[Path]:
    """The bundled configs, their variants, two chains beyond 10^7 labeled
    tuples, a small-gap chain and the workload configs, one file each."""
    from detchain.instances import monomial_discrete_config
    from workloads import WORKLOADS

    configs = []
    for name in BUNDLED:
        configs.append(directory / f"{name}.json")
        shutil.copyfile(REPO / "configs" / f"{name}.json", configs[-1])
    # the Janossy density away from the indicator case: soft weights at the
    # task points, indicator sets that leave the task points out, and a
    # weight set whose gap vanishes, with both task points on its level 1
    raw = json.loads((REPO / "configs" / "discrete_m2n2.json").read_text())
    soft = dict(raw, weights={"vectors": [[0.1 + 0.2 * k for k in range(len(g["points"]))]
                                          for g in raw["grids"]]})
    outside = dict(raw, task=dict(raw["task"], points=[[0], [1]]))
    zero_gap = dict(raw, weights={"vectors": [[1.0] * 4, [0.0] * 4]},
                    task=dict(raw["task"], points=[[0, 2], []]))
    for name, variant in (("soft_points", soft), ("outside_points", outside),
                          ("zero_gap", zero_gap)):
        configs.append(directory / f"discrete_m2n2_{name}.json")
        configs[-1].write_text(json.dumps(variant))
    # two chains with few N-subsets but more than 10^7 labeled tuples, and no
    # sampler section, so that ``sample`` exits 2 at once
    for seed, m, n, sizes in ((7, 3, 3, (7, 7, 7)), (7, 4, 2, (8, 8, 8, 8))):
        raw = monomial_discrete_config(seed, m, n, sizes)
        del raw["task"]["sampler"]
        configs.append(directory / f"monomial_m{m}n{n}.json")
        configs[-1].write_text(json.dumps(raw))
    # a gap of 5.0e-13: every point must sit on the last two nodes of its level
    raw = monomial_discrete_config(7, 3, 2, (7, 7, 7), coupling=1.0)
    raw["weights"] = {"vectors": [[1.0] * 5 + [0.0, 0.0]] * 3}
    del raw["task"]["sampler"]
    configs.append(directory / "small_gap_m3n2.json")
    configs[-1].write_text(json.dumps(raw))
    scratch = directory / "workloads"
    for name, cycles in WORKLOAD_CYCLES.items():
        workload = WORKLOADS[name](SEED, scratch)
        for cycle in range(cycles):
            configs.append(directory / f"{name}-{cycle}.json")
            # some workloads rewrite one file per cycle: copy it out at once
            shutil.copyfile(workload.config_for(cycle), configs[-1])
    for seed, cycle in WORST_CONDITIONED:
        configs.append(directory / f"discrete_verify-s{seed}c{cycle}.json")
        shutil.copyfile(WORKLOADS["discrete_verify"](seed, scratch)
                        .config_for(cycle), configs[-1])
    shutil.rmtree(scratch)
    return configs


def run_tree(configs: list[str], out_dir: str) -> dict:
    """Every command on every config through ``detchain.cli.main``, in this process."""
    from detchain import cli

    results = {}
    for config in configs:
        for command in COMMANDS:
            csv_path = Path(out_dir) / f"{Path(config).stem}-{command}.csv"
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                try:
                    code = cli.main([command, "--config", config, "--out", str(csv_path)])
                except Exception as exc:  # a crash is an output to compare too
                    code = f"raised {type(exc).__name__}: {exc}"
            csv_text = csv_path.read_text() if csv_path.exists() else None
            results[f"{Path(config).stem} {command}"] = {
                "code": code, "stdout": stdout.getvalue(), "stderr": stderr.getvalue(),
                "csv": csv_text}
    return results


def start(src: Path, configs: list[Path], out_dir: Path) -> subprocess.Popen:
    out_dir.mkdir()
    env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    return subprocess.Popen([sys.executable, __file__, "--run", str(out_dir),
                             *map(str, configs)], env=env)


def describe(key: str, field: str, ref, new) -> str:
    if field == "code" or ref is None or new is None:
        return f"{key}: {field} {ref!r} -> {new!r}"
    diff = difflib.unified_diff(ref.splitlines(), new.splitlines(), "ref", "tree",
                                lineterm="", n=0)
    return f"{key}: {field} differs\n" + "\n".join(list(diff)[:40])


def check_moves(ref_out: dict, new_out: dict) -> list[str]:
    """Per ``check`` row, the largest new/old residual ratio over the configs;
    then every row whose status flips or that reads exactly 0.0 where REF's
    does not."""
    largest, notes = {}, []
    for key in ref_out:
        texts = ref_out[key]["csv"], new_out[key]["csv"]
        if not key.endswith(" check") or None in texts:
            continue
        old_rows, new_rows = ({r["quantity"]: (float(r["residual"]), r["status"])
                               for r in csv.DictReader(io.StringIO(text))}
                              for text in texts)
        for name, (old, old_status) in old_rows.items():
            if name not in new_rows:
                continue
            new, status = new_rows[name]
            if status != old_status:
                notes.append(f"{key}: {name} {old_status} -> {status} ({old!r} -> {new!r})")
            if new == 0.0 and old != 0.0:
                notes.append(f"{key}: {name} reads 0.0 where REF reads {old!r}")
            ratio = new / old if old else (1.0 if new == 0.0 else float("inf"))
            if name not in largest or ratio > largest[name][0]:
                largest[name] = (ratio, key, old, new)
    return [f"check row {name}: largest new/old {ratio:.3g} on {key} "
            f"({old:.3e} -> {new:.3e})"
            for name, (ratio, key, old, new) in largest.items()] + notes


# per command, the CSV columns holding its numeric outputs
NUMERIC = {"gap": ("value",), "janossy": ("value",), "correlate": ("value",),
           "counts": ("probability",), "oracle": ("library",),
           "sample": ("reference", "zscore")}


def csv_rows(text: str) -> dict:
    """A command's CSV rows keyed by their count columns, quantity and points."""
    return {tuple(v for c, v in row.items() if c.startswith("count_")
                  or c in ("quantity", "points")): row
            for row in csv.DictReader(io.StringIO(text))}


def numeric_moves(ref_out: dict, new_out: dict) -> list[str]:
    """Per command and numeric column, the largest absolute and the largest
    relative move over the configs; then every ``oracle`` row whose status
    flips."""
    largest, flips = {}, []
    for key in ref_out:
        config, command = key.rsplit(" ", 1)
        texts = ref_out[key]["csv"], new_out[key]["csv"]
        if command not in NUMERIC or None in texts:
            continue
        old_rows, new_rows = map(csv_rows, texts)
        for row_key, old in old_rows.items():
            new = new_rows.get(row_key)
            if new is None:
                continue
            if command == "oracle" and old["status"] != new["status"]:
                flips.append(f"{key}: {row_key[0]} {old['status']} -> {new['status']} "
                             f"({old['library']} -> {new['library']})")
            for column in NUMERIC[command]:
                a, b = float(old[column]), float(new[column])
                moves = {"abs": abs(b - a)}
                moves["rel"] = (moves["abs"] / abs(a) if a
                                else 0.0 if b == 0 else float("inf"))
                for kind, move in moves.items():
                    slot = (command, column, kind)
                    if slot not in largest or move > largest[slot][0]:
                        largest[slot] = (move, f"{config} {'/'.join(row_key)}", a, b)
    return [f"{command} {column}: largest {kind} move {move:.3g} on {where} "
            f"({a!r} -> {b!r})"
            for (command, column, kind), (move, where, a, b) in largest.items()] + flips


def main(argv: list[str]) -> int:
    if argv[:1] == ["--run"]:
        out_dir, configs = argv[1], argv[2:]
        (Path(out_dir) / "results.json").write_text(json.dumps(run_tree(configs, out_dir)))
        return 0
    ref = argv[0] if argv else "HEAD"
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        archive = subprocess.run(["git", "-C", str(REPO), "archive", ref],
                                 check=True, capture_output=True).stdout
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(tmp / "ref", filter="data")
        (tmp / "configs").mkdir()
        configs = write_configs(tmp / "configs")
        runs = {"ref": tmp / "ref" / "src", "tree": REPO / "src"}
        procs = [start(src, configs, tmp / f"out-{label}") for label, src in runs.items()]
        if any([proc.wait() != 0 for proc in procs]):  # wait for both
            print("a tree's run failed", file=sys.stderr)
            return 2
        ref_out, new_out = (json.loads((tmp / f"out-{label}" / "results.json").read_text())
                            for label in runs)
    differences = [describe(key, field, ref_out[key][field], new_out[key][field])
                   for key in ref_out for field in FIELDS
                   if ref_out[key][field] != new_out[key][field]]
    for line in differences + check_moves(ref_out, new_out) + numeric_moves(ref_out, new_out):
        print(line)
    print(f"{len(ref_out)} command/config pairs against {ref}, "
          f"{len(differences)} differences")
    return 1 if differences else 0


if __name__ == "__main__":
    if sys.argv[1:2] != ["--run"]:  # the --run child imports PYTHONPATH's tree
        sys.path[:0] = [str(REPO / "src"), str(REPO / "perfbench")]
    sys.exit(main(sys.argv[1:]))
