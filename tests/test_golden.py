"""The CLI workflow's outputs against committed copies in tests/golden/.

One run at the CLI defaults: gen-data, calibrate, the 12 built-in runs in
README's one simulate call, sensitivity and noise-study. The summaries
must match exactly. Every other file is compared number by number with a
relative tolerance of 1e-12: the coefficients, the calibration report, the
sensitivity rows, the 12 record CSVs, the noise-study records and every
25th row of the dataset.
A libm that rounds differently passes while any real change fails. A
change that moves a number rewrites tests/golden/ in its own diff
(``PYTHONPATH=src python tests/test_golden.py``) and says why.
"""

import contextlib
import csv
import io
import json
import math
import shutil
from pathlib import Path

import pytest

from dualfuel import cli
from dualfuel.scenarios import CONTROLLERS

GOLDEN = Path(__file__).parent / "golden"
REL_TOL = 1e-12
CASES = range(1, 7)

EXACT = ["calibration_summary.txt",
         *(f"case{n}_{c}_summary.txt" for n in CASES for c in CONTROLLERS)]
# the header and every DATASET_STRIDE-th row of dataset.csv (1054 rows)
DATASET_ROWS, DATASET_STRIDE = "dataset_rows.csv", 25
NUMERIC = ["coefficients.json", "calibration_report.csv", "sensitivity.csv",
           *(f"case{n}_{c}_records.csv" for n in CASES for c in CONTROLLERS),
           "noise_records.csv", DATASET_ROWS]


def run_workflow(out: Path):
    o = str(out)
    data, coeffs = str(out / "dataset.csv"), str(out / "coefficients.json")
    calls = [
        ["gen-data", "--out", o],
        ["calibrate", "--data", data, "--out", o],
        ["simulate", "--case", *map(str, CASES), "--controller", *CONTROLLERS,
         "--coeffs", coeffs, "--out", o],
        ["sensitivity", "--data", data, "--coeffs", coeffs, "--out", o],
        ["noise-study", "--coeffs", coeffs, "--out", o],
    ]
    with contextlib.redirect_stdout(io.StringIO()):
        for argv in calls:
            assert cli.main(argv) == 0, argv
    lines = (out / "dataset.csv").read_bytes().splitlines(keepends=True)
    (out / DATASET_ROWS).write_bytes(b"".join([lines[0], *lines[1::DATASET_STRIDE]]))


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    out = tmp_path_factory.mktemp("golden_run")
    run_workflow(out)
    return out


def _close(a, b):
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=0.0)


def _same_cell(a: str, b: str) -> bool:
    try:
        return _close(float(a), float(b))
    except ValueError:   # a label or an empty observer cell
        return a == b


def _mismatches(name, got: Path, want: Path):
    if name.endswith(".json"):
        g, w = json.loads(got.read_text()), json.loads(want.read_text())
        assert g.keys() == w.keys()
        return [(k, g[k], w[k]) for k in w if not _close(g[k], w[k])]
    with open(got, newline="") as fg, open(want, newline="") as fw:
        g, w = list(csv.reader(fg)), list(csv.reader(fw))
    assert len(g) == len(w)
    assert g[0] == w[0]   # header
    return [(i, j, a, b) for i, (rg, rw) in enumerate(zip(g, w), start=1)
            for j, (a, b) in enumerate(zip(rg, rw))
            if len(rg) != len(rw) or not _same_cell(a, b)]


@pytest.mark.parametrize("name", EXACT)
def test_summary_exact(outputs, name):
    assert (outputs / name).read_text() == (GOLDEN / name).read_text()


@pytest.mark.parametrize("name", NUMERIC)
def test_numbers_within_tolerance(outputs, name):
    bad = _mismatches(name, outputs / name, GOLDEN / name)
    assert not bad, f"{name}: {len(bad)} values moved, first {bad[:3]}"


def _moved(tmp_path, name, row, column):
    """The mismatches of golden file name with one cell moved by 1e-11
    relative."""
    with open(GOLDEN / name, newline="") as fh:
        rows = list(csv.reader(fh))
    rows[row][column] = repr(float(rows[row][column]) * (1.0 + 1e-11))
    with open(tmp_path / name, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)
    return _mismatches(name, tmp_path / name, GOLDEN / name)


def test_tolerance_catches_a_moved_number(tmp_path):
    # one record value moved by 1e-11 relative must fail the comparison
    assert _moved(tmp_path, f"case1_{CONTROLLERS[0]}_records.csv", 5, 10)


def test_tolerance_catches_a_moved_dataset_soc(tmp_path):
    with open(GOLDEN / DATASET_ROWS, newline="") as fh:
        soc = next(csv.reader(fh)).index("soc_ref")
    bad = _moved(tmp_path, DATASET_ROWS, 7, soc)
    assert [(i, j) for i, j, *_ in bad] == [(8, soc)]


if __name__ == "__main__":
    # rewrite the golden files from this checkout
    work = GOLDEN.parent / ".golden_run"
    shutil.rmtree(work, ignore_errors=True)
    run_workflow(work)
    GOLDEN.mkdir(exist_ok=True)
    for name in EXACT + NUMERIC:
        shutil.copyfile(work / name, GOLDEN / name)
    shutil.rmtree(work)
