"""Count the code lines of a Python package: non-blank lines that hold a token
outside comments and docstrings (a string that is a whole statement).

    python3 tools/code_lines.py [PATH]     # default: src/dualfuel

PATH is a package directory or one module. Prints one line per module and
the total; a PATH that does not exist exits with status 1 and one line on
stderr.
"""

import sys
import tokenize
from pathlib import Path

# tokens that hold no code
LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
          tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING}


def code_lines(path) -> int:
    """Number of lines of path that hold code."""
    with open(path, "rb") as fh:
        tokens = [t for t in tokenize.tokenize(fh.readline)
                  if t.type not in (tokenize.COMMENT, tokenize.NL, tokenize.ENCODING)]
    lines = set()
    for i, tok in enumerate(tokens):
        if tok.type in LAYOUT:
            continue
        # a docstring: a string that starts a statement and ends it
        if (tok.type == tokenize.STRING
                and (i == 0 or tokens[i - 1].type in LAYOUT)
                and tokens[i + 1].type in LAYOUT):
            continue
        lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def main(argv=None):
    root = Path((argv or sys.argv[1:] or ["src/dualfuel"])[0])
    if root.is_file():
        root, paths = root.parent, [root]
    elif root.is_dir():
        paths = sorted(root.rglob("*.py"))
    else:
        sys.exit(f"code_lines: no such file or directory: {root}")
    total = 0
    for path in paths:
        n = code_lines(path)
        total += n
        print(f"{n:6d}  {path.relative_to(root)}")
    print(f"{total:6d}  total")


if __name__ == "__main__":
    main()
