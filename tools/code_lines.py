"""Count the code lines of polyzeta's source modules.

Usage: python tools/code_lines.py [TREE]

TREE is a checkout of this repository (default: the one holding this
script).  The script prints the code lines of each module under
TREE/src/polyzeta and their total.  A code line is a line that holds a
token other than a comment or a docstring; blank lines, comment-only lines
and the lines of module, class and function docstrings do not count.  A
token that spans lines, such as a triple-quoted string that is no
docstring, counts every line it spans.
"""

from __future__ import annotations

import ast
import sys
import tokenize
from pathlib import Path

_LAYOUT = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
    tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER,
}


def _docstring_lines(tree: ast.AST) -> set[int]:
    """The line numbers of every module, class and function docstring."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (
                body
                and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)
            ):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def code_lines(path: Path) -> int:
    source = path.read_text(encoding="utf-8")
    docstrings = _docstring_lines(ast.parse(source))
    lines: set[int] = set()
    with path.open("rb") as f:
        for tok in tokenize.tokenize(f.readline):
            if tok.type not in _LAYOUT:
                lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstrings)


def main(argv: list[str]) -> int:
    tree = Path(argv[1]) if len(argv) > 1 else Path(__file__).resolve().parent.parent
    modules = sorted((tree / "src" / "polyzeta").glob("*.py"))
    if not modules:
        print(f"no modules under {tree / 'src' / 'polyzeta'}", file=sys.stderr)
        return 2
    total = 0
    for module in modules:
        n = code_lines(module)
        total += n
        print(f"{n:6d}  {module.name}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
