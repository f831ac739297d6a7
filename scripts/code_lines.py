"""Print the raw and the code line count of each module of ``src/linkgamma``.

A code line holds a token other than a comment and is no part of a
docstring, the string that opens a module, class or function body, found
with ``ast``.  Blank lines, comment lines and docstring lines are left out.

Usage: python scripts/code_lines.py
"""

import ast
import io
import tokenize
from pathlib import Path

_PACKAGE = Path(__file__).resolve().parent.parent / "src" / "linkgamma"

_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree) -> set:
    lines = set()
    for node in ast.walk(tree):
        body = getattr(node, "body", None)
        if not isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                 ast.AsyncFunctionDef)) or not body:
            continue
        first = body[0]
        if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)):
            lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def counts(source: str) -> tuple[int, int]:
    """``(raw, code)`` line counts of one module's source."""
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _LAYOUT:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(source.splitlines()), len(code - docstring_lines(ast.parse(source)))


def main() -> None:
    total_raw = total_code = 0
    print(f"{'module':<16}{'raw':>7}{'code':>7}")
    for path in sorted(_PACKAGE.glob("*.py")):
        raw, code = counts(path.read_text(encoding="utf-8"))
        total_raw, total_code = total_raw + raw, total_code + code
        print(f"{path.stem:<16}{raw:>7}{code:>7}")
    print(f"{'total':<16}{total_raw:>7}{total_code:>7}")


if __name__ == "__main__":
    main()
