"""Time the CLI workflow as a user runs it: 5 `python -m dualfuel.cli`
processes, each paying its own interpreter start and imports.

    python3 tools/workflow_time.py [--rounds N]     # default: 3

Each round runs, in a fresh temporary directory and with this checkout's
`src` first on PYTHONPATH: gen-data (1054 samples, seed 11), calibrate, the
12 built-in runs in one process (`simulate --case 1 2 3 4 5 6 --controller
adaptive feedforward`), sensitivity and noise-study. Prints the interpreter,
the CPUs the process may run on and the environment variables that change
the timing, then each command's minimum and median wall seconds over the
rounds, and those of the round's total. The first command that fails ends
the tool with status 1 and one line on stderr naming its argv and the last
line of its stderr.
"""

import argparse
import os
import shlex
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

COEFFS = ["--coeffs", "coefficients.json"]
COMMANDS = [
    ["gen-data", "--samples", "1054", "--seed", "11"],
    ["calibrate", "--data", "dataset.csv", "--seed", "11"],
    ["simulate", "--case", "1", "2", "3", "4", "5", "6",
     "--controller", "adaptive", "feedforward", *COEFFS],
    ["sensitivity", "--data", "dataset.csv", *COEFFS],
    ["noise-study", "--halfwidth", "0.5", *COEFFS, "--seed", "11"],
]


def run_round(env):
    """Wall seconds of each command, run in order in a fresh directory."""
    times = []
    with tempfile.TemporaryDirectory() as work:
        for args in COMMANDS:
            argv = [sys.executable, "-m", "dualfuel.cli", *args]
            start = time.perf_counter()
            done = subprocess.run(argv, cwd=work, env=env, capture_output=True, text=True)
            times.append(time.perf_counter() - start)
            if done.returncode:
                last = (done.stderr.strip().splitlines() or ["(no stderr)"])[-1]
                sys.exit(f"workflow_time: {shlex.join(argv)} exited "
                         f"{done.returncode}: {last}")
    return times


def main(argv=None):
    parser = argparse.ArgumentParser(description="time the 5-process CLI workflow")
    parser.add_argument("--rounds", type=int, default=3)
    rounds = parser.parse_args(argv).rounds
    if rounds < 1:
        parser.error("--rounds must be at least 1")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    cpus = sorted(os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity")
                  else range(os.cpu_count()))
    pinned = "pinned" if len(cpus) < os.cpu_count() else "not pinned"
    print(f"python {sys.version.split()[0]} ({sys.executable})")
    print(f"nproc {len(cpus)} of {os.cpu_count()} online, may run on CPUs "
          f"{','.join(map(str, cpus))} ({pinned})")
    for name in ("PYTHONDONTWRITEBYTECODE", "OPENBLAS_NUM_THREADS"):
        print(f"{name}={os.environ.get(name, '(unset)')}")
    print(f"rounds {rounds}")
    per_round = [run_round(env) for _ in range(rounds)]
    print(f"{'min s':>8}  {'median s':>8}  command")
    for args, times in zip([*COMMANDS, ["total"]],
                           [*zip(*per_round), [sum(r) for r in per_round]]):
        print(f"{min(times):8.3f}  {statistics.median(times):8.3f}  {shlex.join(args)}")


if __name__ == "__main__":
    main()
