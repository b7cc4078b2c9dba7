"""Count the code lines of the qfield package.

    python tools/code_lines.py [PACKAGE_DIR]

PACKAGE_DIR defaults to src/qfield next to this script's parent.  A code
line is a physical line of a package module that holds part of a token
other than a comment, a newline or indentation, and that lies outside
every docstring: the string statement that opens a module, class or
function body, found with ast.  Blank lines, comment-only lines and
docstring lines do not count; the generated _bessel_tables.py is left
out.  Prints each module's count and the total.
"""
import ast
import io
import sys
import tokenize
from pathlib import Path

SKIPPED = {"_bessel_tables.py"}
LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
          tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree) -> set:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr)
                    and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in LAYOUT:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(source)))


def main(argv) -> int:
    package = Path(argv[1]) if len(argv) > 1 else (
        Path(__file__).resolve().parent.parent / "src" / "qfield")
    total = 0
    for path in sorted(package.glob("*.py")):
        if path.name in SKIPPED:
            continue
        count = code_lines(path.read_text())
        total += count
        print(f"{count:6d} {path.name}")
    print(f"{total:6d} total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
