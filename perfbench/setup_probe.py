"""One set-up of a workload in a fresh process; prints its duration in seconds.

Set-up is: import ``detchain.cli``, generate the workload's configs and run
one warm-up command. Started by run.py as

    python3 perfbench/setup_probe.py WORKLOAD SEED WORKDIR
"""

import contextlib
import io
import sys
from pathlib import Path
from time import perf_counter


def main(name: str, seed: int, workdir: str) -> int:
    t0 = perf_counter()
    from detchain import cli
    from workloads import WORKLOADS

    workload = WORKLOADS[name](seed, Path(workdir))
    command = workload.commands[0]
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        cli.main([command, "--config", str(workload.config_for(0)),
                  "--out", str(Path(workdir) / "warmup.csv")])
    print(repr(perf_counter() - t0))
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    sys.exit(main(sys.argv[1], int(sys.argv[2]), sys.argv[3]))
