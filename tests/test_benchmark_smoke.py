"""A few cycles of each benchmark workload, checked as the benchmark checks them.

Every command runs through ``cli.main`` with ``--out``; its output must pass
the benchmark's reference checks, and the traced replay must reproduce its
stdout, CSV and exit code exactly. The benchmark's modules are only imported.
"""

import contextlib
import io

import pytest

from detchain import cli

from .conftest import perfbench_module

SEED = 1

workloads, checks, replay = map(perfbench_module, ("workloads", "checks", "replay"))

CASES = [
    # the replay judges construction_invariance on the whole formed matrices,
    # check one level-row block at a time: compared on all three gl configs
    ("gl_chain", SEED, 0), ("gl_chain", SEED, 1), ("gl_chain", SEED, 2),
    *(("discrete_verify", SEED, c) for c in range(6)),
    ("mcmc", SEED, 0), ("mcmc", SEED, 1),
    # the instances whose check rows read furthest over their bounds
    # (ROADMAP item 1); at cond A^w 1.25e8 oracle's gap row once read
    # 2.88e-10 off enumeration on the first
    ("discrete_verify", 4, 1816), ("discrete_verify", 5, 1407),
    ("discrete_verify", 2, 216),
]


@pytest.mark.parametrize("workload, seed, cycle", CASES, ids=[
    f"{w}-{c}" if s == SEED else f"{w}-seed{s}-{c}" for w, s, c in CASES])
def test_workload_cycle_passes_checks_and_replays(tmp_path, workload, seed, cycle):
    config = workloads.WORKLOADS[workload](seed, tmp_path).config_for(cycle)
    out_csv = tmp_path / "out.csv"
    refs = checks.References()
    inst = cli.load_instance(config)
    for command_id, command in enumerate(workloads.WORKLOADS[workload].commands):
        argv = [command, "--config", str(config), "--out", str(out_csv)]
        out_csv.unlink(missing_ok=True)
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = cli.main(argv)
        # the CSV writer ends rows with \r\n; keep them as written
        with open(out_csv, newline="") as fh:
            csv_text = fh.read()
        outcome = refs.check(command, inst, code, stdout.getvalue(), csv_text)
        assert not outcome.failed, (command, outcome.notes)
        replayed = replay.replay(replay.Tracer(), argv, command_id)
        assert (replayed.stdout, replayed.csv, replayed.exit_code) == \
            (stdout.getvalue(), csv_text, code), command
