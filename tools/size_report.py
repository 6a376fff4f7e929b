"""Print the size of the package and of its tests: their lines, split by kind, and the
package's runtime dependencies.

    python3 tools/size_report.py

Run it from the root of a source checkout, or give that root as the argument.  Lines
of module, class and function docstrings count as docstring lines, wherever they sit;
of the other lines, a line that starts with # counts as a comment, an empty one as
blank, and the rest as code.  The dependencies are pyproject.toml's [project]
dependencies.
"""

import ast
import sys
from pathlib import Path

try:
    import tomllib
except ImportError:  # Python 3.10
    tomllib = None

DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(tree: ast.Module) -> set:
    """The line numbers spanned by the docstrings of tree's module, classes and functions."""
    lines = set()
    for node in ast.walk(tree):
        if (isinstance(node, DOCUMENTED) and node.body and isinstance(node.body[0], ast.Expr)
                and isinstance(node.body[0].value, ast.Constant)
                and isinstance(node.body[0].value.value, str)):
            doc = node.body[0]
            lines.update(range(doc.lineno, doc.end_lineno + 1))
    return lines


def split(directory: Path) -> dict:
    """The lines of the .py files in directory, in total and by kind."""
    counts = dict.fromkeys(("lines", "docstring", "comment", "blank", "code"), 0)
    for path in sorted(directory.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        docs = docstring_lines(ast.parse(text))
        for number, line in enumerate(text.splitlines(), start=1):
            counts["lines"] += 1
            stripped = line.strip()
            kind = ("docstring" if number in docs else "comment" if stripped.startswith("#")
                    else "blank" if not stripped else "code")
            counts[kind] += 1
    return counts


def main(root: Path) -> None:
    for name in ("src/apline", "tests"):
        counts = split(root / name)
        print(f"{name}: " + ", ".join(f"{count} {kind}" for kind, count in counts.items()))
    if tomllib is None:
        print("runtime dependencies: unread (tomllib needs Python 3.11)")
        return
    with open(root / "pyproject.toml", "rb") as f:
        deps = tomllib.load(f)["project"]["dependencies"]
    print(f"runtime dependencies: {len(deps)} ({', '.join(deps)})")


if __name__ == "__main__":
    main(Path(sys.argv[1]) if len(sys.argv) > 1 else Path.cwd())
