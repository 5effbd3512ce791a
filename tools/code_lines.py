"""Count the code lines of a Python package: non-blank lines that hold a token
outside comments and docstrings (a string that is a whole statement).

    python3 tools/code_lines.py [DIR]      # default: src/dualfuel

Prints one line per module and the total.
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
    total = 0
    for path in sorted(root.rglob("*.py")):
        n = code_lines(path)
        total += n
        print(f"{n:6d}  {path.relative_to(root)}")
    print(f"{total:6d}  total")


if __name__ == "__main__":
    main()
