"""tools/code_lines.py counts the lines that hold code: not blank lines,
comments or docstrings, but every line of a statement or a string that is
part of one."""

import importlib.util
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"


def _code_lines():
    spec = importlib.util.spec_from_file_location("code_lines", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.code_lines


SOURCE = '''"""Module docstring,
over two lines."""

import math   # a comment after code

# a comment line


def f(x):
    """One-line docstring."""
    y = (x +
         1)
    text = """a string that is
    part of a statement"""
    return math.sqrt(y), text


class C:
    """Class docstring."""

    def g(self):
        return "not a docstring"
'''


def test_counts_code_lines_only(tmp_path):
    path = tmp_path / "m.py"
    path.write_text(SOURCE)
    # import, def f, y (2 lines), text (2 lines), return, class C, def g, return
    assert _code_lines()(path) == 10


def _run(path):
    return subprocess.run([sys.executable, str(TOOL), str(path)],
                          capture_output=True, text=True, check=False)


def test_file_argument_counts_that_file(tmp_path):
    path = tmp_path / "m.py"
    path.write_text(SOURCE)
    done = _run(path)
    assert done.returncode == 0
    assert done.stdout == "    10  m.py\n    10  total\n"


def test_missing_path_exits_nonzero(tmp_path):
    missing = tmp_path / "absent"
    done = _run(missing)
    assert done.returncode != 0
    assert done.stdout == ""
    assert done.stderr == f"code_lines: no such file or directory: {missing}\n"
