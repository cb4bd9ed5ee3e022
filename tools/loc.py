"""Count the lines of Python files by kind: code, docstring, comment, blank.

    python tools/loc.py PATH...

Each PATH is a .py file or a directory searched for .py files. A line is a
docstring line when it lies in the span of a module, class or function
docstring (``ast``), a comment line when ``tokenize`` finds only a comment
on it, and blank when it holds only whitespace; every other line is code.
Prints one row per file, then the total.
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

KINDS = ("code", "docstring", "comment", "blank")


def docstring_lines(tree: ast.AST) -> set:
    """Line numbers inside the docstrings of a parsed module."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr)
                    and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def comment_lines(source: str) -> set:
    """Line numbers that hold a comment and nothing else."""
    return {
        tok.start[0]
        for tok in tokenize.generate_tokens(io.StringIO(source).readline)
        if tok.type == tokenize.COMMENT and not tok.line[: tok.start[1]].strip()
    }


def count(source: str) -> dict:
    """{kind: lines} for one file's source."""
    docs = docstring_lines(ast.parse(source))
    comments = comment_lines(source)
    counts = dict.fromkeys(KINDS, 0)
    for n, line in enumerate(source.splitlines(), start=1):
        if n in docs:
            counts["docstring"] += 1
        elif n in comments:
            counts["comment"] += 1
        elif not line.strip():
            counts["blank"] += 1
        else:
            counts["code"] += 1
    return counts


def python_files(paths) -> list:
    files = []
    for path in map(Path, paths):
        files.extend(sorted(path.rglob("*.py")) if path.is_dir() else [path])
    return files


def row(counts: dict, name) -> str:
    return (f"{sum(counts.values()):>7} " + " ".join(f"{counts[k]:>9}" for k in KINDS)
            + f"  {name}")


def main(argv) -> int:
    if not argv:
        print(__doc__.strip(), file=sys.stderr)
        return 64
    total = dict.fromkeys(KINDS, 0)
    print(f"{'lines':>7} " + " ".join(f"{k:>9}" for k in KINDS) + "  path")
    for path in python_files(argv):
        counts = count(path.read_text())
        for k in KINDS:
            total[k] += counts[k]
        print(row(counts, path))
    print(row(total, "total"))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
