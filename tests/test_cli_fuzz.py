"""The CLI boundary under extreme coefficient files: every command ends in
exit 0 with finite output, or in exit 2 with one error line and no file."""

import contextlib
import io
import json
import re
import tempfile
from dataclasses import asdict
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dualfuel as df
from dualfuel import cli
from dualfuel.scenarios import CONTROLLERS, builtin_case

EXTREMES = (0.0, 1e-300, -1e-300, 1e300, -1e300, 770.0, -770.0, 400.0, -400.0,
            50.0, -50.0, 1e10, -1e10)

# the shipped coefficients as a file, without the derived c7 that a file
# may carry, so that a replaced c11 or Wiebe shape is not rejected for
# contradicting the shipped c7
SHIPPED = {k: v for k, v in df.default_coefficients().to_dict().items() if k != "c7"}

# one or two keys of a coefficient file, c7 included, set to extreme values
coefficient_files = st.dictionaries(
    st.sampled_from(sorted([*SHIPPED, "c7"])),
    st.sampled_from(EXTREMES), min_size=1, max_size=2)

NON_FINITE = re.compile(r"(?<![a-z])(nan|inf)(?![a-z])", re.IGNORECASE)


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """A 16-sample dataset and the scenario files the commands read."""
    root = tmp_path_factory.mktemp("inputs")
    cfg = df.PlantConfig(geom=df.default_geometry(), coeffs=df.default_coefficients())
    samples, _ = df.generate_dataset(None, 16, cfg, seed=1)
    df.write_dataset(root / "dataset.csv", samples)
    for controller in CONTROLLERS:
        d = asdict(builtin_case(1, controller=controller))
        d["schedules"]["phi_ng"] = [{"t": 0.0, "value": 0.0}]   # diesel only
        (root / f"no_gas_{controller}.json").write_text(json.dumps(d))
    return root


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
    argv = [arg.format(root=inputs) for arg in COMMANDS[command]]
    with tempfile.TemporaryDirectory() as tmp:
        coeffs = Path(tmp) / "c.json"
        coeffs.write_text(json.dumps({**SHIPPED, **edit}))
        out = Path(tmp) / "out"
        if argv[0] != "validate":   # the one command that writes no file
            argv = [*argv, "--out", str(out)]
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli.main([*argv, "--coeffs", str(coeffs)])
        written = sorted(out.iterdir()) if out.exists() else []
        if code == 2:
            err = stderr.getvalue()
            assert err.count("\n") == 1 and err.startswith(f"dualfuel {argv[0]}: error: ")
            assert written == []
        else:
            assert code == 0 and stderr.getvalue() == ""
            for text in (stdout.getvalue(), *(p.read_text() for p in written)):
                assert NON_FINITE.search(text) is None
