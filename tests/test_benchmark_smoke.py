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


@pytest.mark.parametrize("workload, cycle", [
    ("gl_chain", 1), ("discrete_verify", 1), ("discrete_verify", 2),
    ("discrete_verify", 3), ("mcmc", 1),
])
def test_workload_cycle_passes_checks_and_replays(tmp_path, workload, cycle):
    config = workloads.WORKLOADS[workload](SEED, tmp_path).config_for(cycle)
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
