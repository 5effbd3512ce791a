"""The CLI boundary under extreme coefficient files, scenario plant blocks and
numeric flags: every command ends in exit 0 with finite output, or in exit 2
with one error line and no file, within a time limit."""

import contextlib
import io
import json
import re
import signal
import tempfile
from dataclasses import asdict
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualfuel import cli
from dualfuel.calib import generate_dataset, write_dataset
from dualfuel.core import default_coefficients, default_geometry
from dualfuel.plant import PlantConfig
from dualfuel.scenarios import CONTROLLERS, PLANT_KEYS, builtin_case

# 10**400, an integer that JSON allows but no float holds
EXTREMES = (0.0, 1e-300, -1e-300, 1e300, -1e300, 770.0, -770.0, 400.0, -400.0,
            50.0, -50.0, 1e10, -1e10, 10**400)

# the shipped coefficients as a file, without the derived c7 that a file
# may carry, so that a replaced c11 or Wiebe shape is not rejected for
# contradicting the shipped c7
SHIPPED = {k: v for k, v in default_coefficients().to_dict().items() if k != "c7"}

# one or two keys of a coefficient file, c7 included, set to extreme values
coefficient_files = st.dictionaries(
    st.sampled_from(sorted([*SHIPPED, "c7"])),
    st.sampled_from(EXTREMES), min_size=1, max_size=2)

# values of a scenario's plant block, as JSON writes them (NaN, Infinity)
PLANT_VALUES = (float("nan"), float("inf"), float("-inf"), True, False, -1, -1.0, 0,
                0.0, 1e300, -1e300, 1e-300, -1e-300, 1e-310, 0.5, 3, 2.5, 1e10, 10**30,
                10**400)

# numeric flags of each command and the values they take; an int flag gets
# ints and a float flag floats, so that argparse accepts every value
SEEDS = (-1, 0, 1, 2**31, 2**64, 10**30)
FLOATS = (float("nan"), float("inf"), float("-inf"), -1.0, -0.0, 0.0, 1e-310, 1e-300,
          -1e-300, 0.5, 0.94, 2.5, 1e300, -1e300, 1e308)
FLAGS = {
    "gen-data": {"--samples": (-1, 0, 1, 2, 20), "--seed": SEEDS},
    "calibrate": {"--max-iters": (-1, 0, 1, 5, 10**6), "--tol": FLOATS,
                  "--holdout-frac": FLOATS, "--seed": SEEDS},
    "simulate": {"--seed": SEEDS},
    "noise-study": {"--halfwidth": FLOATS, "--seed": SEEDS},
}

NON_FINITE = re.compile(r"(?<![a-z])(nan|inf)(?![a-z])", re.IGNORECASE)

# one command takes well under a second here; a hang fails the test
TIME_LIMIT_S = 30.0


class _Expired(BaseException):
    """Raised by the alarm; not an Exception, so no handler of cli.main's catches it."""


def _expire(signum, frame):
    raise _Expired


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """A 16-sample dataset and the scenario files the commands read."""
    root = tmp_path_factory.mktemp("inputs")
    cfg = PlantConfig(geom=default_geometry(), coeffs=default_coefficients())
    samples, _ = generate_dataset(None, 16, cfg, seed=1)
    write_dataset(root / "dataset.csv", samples)
    for controller in CONTROLLERS:
        d = asdict(builtin_case(1, controller=controller))
        d["schedules"]["phi_ng"] = [{"t": 0.0, "value": 0.0}]   # diesel only
        (root / f"no_gas_{controller}.json").write_text(json.dumps(d))
    return root


def _check_contract(argv, coeffs=None):
    """Run cli.main on argv, with --out in a fresh folder for the commands
    that write files and --coeffs set to the JSON object coeffs if given, and
    assert the boundary's contract on what it returns, prints and writes."""
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        if argv[0] != "validate":   # the one command that writes no file
            argv = [*argv, "--out", str(out)]
        if coeffs is not None:
            path = Path(tmp) / "c.json"
            path.write_text(json.dumps(coeffs))
            argv = [*argv, "--coeffs", str(path)]
        stdout, stderr = io.StringIO(), io.StringIO()
        previous = signal.signal(signal.SIGALRM, _expire)
        signal.setitimer(signal.ITIMER_REAL, TIME_LIMIT_S)
        try:
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = cli.main(argv)
        except _Expired:
            raise AssertionError(f"{argv} ran longer than {TIME_LIMIT_S} s") from None
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)
        written = sorted(out.iterdir()) if out.exists() else []
        if code == 2:
            err = stderr.getvalue()
            assert err.count("\n") == 1 and err.startswith(f"dualfuel {argv[0]}: error: ")
            assert written == []
        else:
            assert code == 0 and stderr.getvalue() == ""
            for text in (stdout.getvalue(), *(p.read_text() for p in written)):
                assert NON_FINITE.search(text) is None


# argv of each command before --out and --coeffs; {root} is the inputs folder
COMMANDS = {
    "validate": ["validate", "--data", "{root}/dataset.csv"],
    "sensitivity": ["sensitivity", "--data", "{root}/dataset.csv"],
    "calibrate": ["calibrate", "--data", "{root}/dataset.csv", "--max-iters", "5"],
    **{f"simulate-{case}-{controller}": ["simulate", "--case", case,
                                         "--controller", controller]
       for case in ("1", "4") for controller in CONTROLLERS},
    **{f"simulate-no-gas-{controller}": ["simulate", f"{{root}}/no_gas_{controller}.json"]
       for controller in CONTROLLERS},
    "gen-data": ["gen-data", "--samples", "20"],
    "noise-study": ["noise-study"],
}


@pytest.mark.parametrize("command", COMMANDS)
@settings(max_examples=40, derandomize=True, deadline=None)
@given(edit=coefficient_files)
def test_extreme_coefficients(inputs, command, edit):
    _check_contract([arg.format(root=inputs) for arg in COMMANDS[command]],
                    {**SHIPPED, **edit})


# every PlantConfig field a scenario may set, all but geom and coeffs, takes
# each value with up to two other fields also set
@pytest.mark.parametrize("key", PLANT_KEYS)
@settings(max_examples=40, derandomize=True, deadline=None)
@given(value=st.sampled_from(PLANT_VALUES),
       others=st.dictionaries(st.sampled_from(PLANT_KEYS), st.sampled_from(PLANT_VALUES),
                              max_size=2),
       controller=st.sampled_from(CONTROLLERS), case=st.sampled_from((1, 4)))
def test_extreme_plant_blocks(key, value, others, controller, case):
    d = asdict(builtin_case(case, controller=controller))
    d["plant"].update({**others, key: value})
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "scenario.json"
        path.write_text(json.dumps(d))
        _check_contract(["simulate", str(path)])


@pytest.mark.parametrize("command", FLAGS)
@settings(max_examples=40, derandomize=True, deadline=None)
@given(data=st.data())
def test_extreme_numeric_flags(inputs, command, data):
    flags = FLAGS[command]
    chosen = data.draw(st.lists(st.sampled_from(sorted(flags)), min_size=1, unique=True))
    # --flag=value, so that argparse reads a negative value as a value
    argv = [f"{flag}={data.draw(st.sampled_from(flags[flag]))!r}" for flag in chosen]
    source = {"calibrate": ["--data", f"{inputs}/dataset.csv"],
              "simulate": ["--case", "1"]}.get(command, [])
    _check_contract([command, *source, *argv])
