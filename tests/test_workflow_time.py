"""tools/workflow_time.py runs the 5-process CLI workflow and prints one row
per command and one for the total; a failing command ends it with status 1."""

import re
import shlex
import shutil
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "workflow_time.py"

ROW = re.compile(r"^ *(\d+\.\d{3})  +(\d+\.\d{3})  (.+)$")


def _run(tool, *args):
    return subprocess.run([sys.executable, str(tool), *args],
                          capture_output=True, text=True, check=False)


def test_one_round_prints_each_command_and_the_total():
    done = _run(TOOL, "--rounds", "1")
    assert done.returncode == 0, done.stderr
    rows = [m.groups() for m in map(ROW.match, done.stdout.splitlines()) if m]
    assert len(rows) == 6
    assert [r[2].split()[0] for r in rows] == [
        "gen-data", "calibrate", "simulate", "sensitivity", "noise-study", "total"]
    # one round: each minimum is its median, and the total their sum
    assert all(lo == med for lo, med, _ in rows)
    assert abs(sum(float(r[0]) for r in rows[:-1]) - float(rows[-1][0])) < 0.02
    assert "rounds 1\n" in done.stdout and "OPENBLAS_NUM_THREADS=" in done.stdout


def test_failing_command_names_its_argv_and_stderr(tmp_path):
    # the tool runs the package next to it, so a copy beside a stub whose
    # CLI fails shows what a failing command prints
    (tmp_path / "tools").mkdir()
    tool = Path(shutil.copy(TOOL, tmp_path / "tools"))
    pkg = tmp_path / "src" / "dualfuel"
    pkg.mkdir(parents=True)
    (pkg / "__init__.py").write_text("")
    (pkg / "cli.py").write_text("import sys\nsys.exit('gen-data: disk on fire')\n")
    done = _run(tool, "--rounds", "2")
    assert done.returncode == 1
    assert done.stderr == (f"workflow_time: {shlex.quote(sys.executable)} -m dualfuel.cli "
                           "gen-data --samples 1054 --seed 11 exited 1: "
                           "gen-data: disk on fire\n")
    assert "total" not in done.stdout
