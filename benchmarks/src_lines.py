"""Count the source lines of the qspectra package.

For each ``src/qspectra/*.py`` file, prints its code, docstring and comment
lines and its physical lines (as ``wc -l`` counts them), and their totals,
then the line count of the C kernel ``_jacobi_cy.c``.
A docstring line is a line of the string that opens a module, class or
function body (found with ``ast``). A code line holds a token other than a
comment or a line break (found with ``tokenize``) and is not a docstring line.
A comment line holds a comment and no code. Blank lines count as none of the
three. ``--json FILE`` also writes each file's counts, their totals and the
C kernel's line count to FILE (``bench_cold.write_json``), with the backend
of the counted package, which it imports from the tree it counts.

Usage: python3 benchmarks/src_lines.py [--json FILE]
"""

from __future__ import annotations

import argparse
import ast
import io
import sys
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "qspectra"
COLUMNS = ("code", "docs", "comments", "lines")
LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
          tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree: ast.Module) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(source: str) -> tuple[int, int, int, int]:
    """(code, docstring, comment, physical) lines of one Python source."""
    docs = docstring_lines(ast.parse(source))
    code, comments = set(), set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type == tokenize.COMMENT:
            comments.add(tok.start[0])
        elif tok.type not in LAYOUT:
            code.update(range(tok.start[0], tok.end[0] + 1))
    code -= docs
    return len(code), len(docs), len(comments - code - docs), source.count("\n")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--json", metavar="FILE", help="also write the counts to FILE")
    args = parser.parse_args()
    totals, records = [0, 0, 0, 0], []
    print(f"{'file':<22}{'code':>7}{'docs':>7}{'comments':>10}{'lines':>7}")
    for path in sorted(PACKAGE.glob("*.py")):
        counts = count(path.read_text())
        totals = [t + c for t, c in zip(totals, counts)]
        records.append({"file": path.name, **dict(zip(COLUMNS, counts))})
        print(f"{path.name:<22}{counts[0]:>7}{counts[1]:>7}{counts[2]:>10}{counts[3]:>7}")
    print(f"{'total':<22}{totals[0]:>7}{totals[1]:>7}{totals[2]:>10}{totals[3]:>7}")
    records.append({"file": "total", **dict(zip(COLUMNS, totals))})
    kernel = PACKAGE / "_jacobi_cy.c"
    records.append({"file": kernel.name, "lines": len(kernel.read_text().splitlines())})
    print(f"{kernel.name}: {records[-1]['lines']} lines")
    if args.json:
        # the package counted, ahead of any other on the path
        sys.path.insert(0, str(PACKAGE.parent))
        import qspectra
        from bench_cold import write_json
        write_json(args.json, qspectra.BACKEND, records)


if __name__ == "__main__":
    main()
