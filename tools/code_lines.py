"""Count the code lines of each module of a package: lines that hold a
token other than a comment, and are not part of a docstring.  Blank
lines, comment lines and docstring lines do not count.

    python tools/code_lines.py [package directory, default src/viewbench]

prints each module's count and the total.
"""

import ast
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def code_lines(path: Path) -> int:
    with open(path, "rb") as fh:
        tokens = list(tokenize.tokenize(fh.readline))
    lines = {
        row for tok in tokens if tok.type not in _NOT_CODE
        for row in range(tok.start[0], tok.end[0] + 1)
    }
    for node in ast.walk(ast.parse(path.read_bytes())):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines -= set(range(first.lineno, first.end_lineno + 1))
    return len(lines)


def main(argv: list[str]) -> int:
    root = Path(argv[0] if argv else "src/viewbench")
    total = 0
    for path in sorted(root.glob("*.py")):
        n = code_lines(path)
        total += n
        print(f"{path.name:<20} {n:>6,}")
    print(f"{'total':<20} {total:>6,}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
