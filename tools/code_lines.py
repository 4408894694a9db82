"""Count the code lines of each module under src/cyclepoisson/.

A code line holds at least one token that is not a comment and lies
outside every module, class and function docstring; blank lines,
comment-only lines and docstring lines are not code.  A line inside any
other string literal is code.

Run from anywhere:  python3 tools/code_lines.py [PACKAGE_DIR]
Prints one "<lines>  <module>" row per module and then the total.
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}
_HAS_DOCSTRING = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def _docstring_lines(tree: ast.Module) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if not isinstance(node, _HAS_DOCSTRING) or not node.body:
            continue
        first = node.body[0]
        if (
            isinstance(first, ast.Expr)
            and isinstance(first.value, ast.Constant)
            and isinstance(first.value.value, str)
        ):
            lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of code lines in one module's source."""
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - _docstring_lines(ast.parse(source)))


def main(argv: list[str]) -> int:
    root = Path(argv[0]) if argv else Path(__file__).resolve().parent.parent / "src" / "cyclepoisson"
    total = 0
    for path in sorted(root.glob("*.py")):
        count = code_lines(path.read_text(encoding="utf-8"))
        total += count
        print("%6d  %s" % (count, path.name))
    print("%6d  total" % total)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
