"""Count the lines of each module of ``src/eventlens/`` by kind, then the totals.

A line is a docstring line if a module, class or function docstring spans
it, a comment line if it holds only a comment, and a blank line if it holds
only whitespace outside a docstring. Every other line is an "other" line:
code, and code with a trailing comment. Standard library only:

    python tools/src_lines.py
"""

from __future__ import annotations

import ast
import io
import tokenize
from pathlib import Path

KINDS = ("docstring", "comment", "blank", "other")


def line_kinds(source: str) -> dict[str, int]:
    """How many lines of the Python ``source`` are of each kind."""
    lines = source.splitlines()
    kinds = ["blank" if not line.strip() else "other" for line in lines]
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        row, column = token.start
        if token.type == tokenize.COMMENT and not lines[row - 1][:column].strip():
            kinds[row - 1] = "comment"
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            if ast.get_docstring(node, clean=False) is not None:
                start, end = node.body[0].lineno - 1, node.body[0].end_lineno
                kinds[start:end] = ["docstring"] * (end - start)
    return {kind: kinds.count(kind) for kind in KINDS}


def main() -> None:
    package = Path(__file__).resolve().parent.parent / "src" / "eventlens"
    totals = dict.fromkeys(KINDS, 0)
    print(f"{'module':<16}" + "".join(f"{kind:>10}" for kind in (*KINDS, "total")))
    for path in sorted(package.glob("*.py")):
        counts = line_kinds(path.read_text(encoding="utf-8"))
        for kind in KINDS:
            totals[kind] += counts[kind]
        cells = [counts[kind] for kind in KINDS]
        print(f"{path.name:<16}" + "".join(f"{cell:>10}" for cell in (*cells, sum(cells))))
    cells = [totals[kind] for kind in KINDS]
    print(f"{'total':<16}" + "".join(f"{cell:>10}" for cell in (*cells, sum(cells))))


if __name__ == "__main__":
    main()
