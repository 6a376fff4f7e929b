"""Every error a caller can meet is typed: no untyped raise outside a short allowlist.

Also, each decision that is made in one place raises its error in that place only.
"""

import ast
from pathlib import Path

import apline

_UNTYPED = {"ValueError", "KeyError", "TypeError"}

# (module, enclosing function, exception): the unknown-id error of run_sweep, which
# `apline check` formats
_ALLOWED = [
    ("properties", "run_sweep", "KeyError"),
]


def _raises(node, module, names, scope=()):
    """(module, enclosing function, exception) of every raise of one of names."""
    for child in ast.iter_child_nodes(node):
        inner = scope
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            inner = scope + (child.name,)
        elif isinstance(child, ast.Raise) and child.exc is not None:
            exc = child.exc.func if isinstance(child.exc, ast.Call) else child.exc
            if isinstance(exc, ast.Name) and exc.id in names:
                yield module, ".".join(scope), exc.id
        yield from _raises(child, module, names, inner)


def _raise_sites(names):
    found = []
    for path in sorted(Path(apline.__file__).parent.glob("*.py")):
        found += _raises(ast.parse(path.read_text(encoding="utf-8")), path.stem, names)
    return sorted(found)


def test_no_untyped_raise_outside_the_allowlist():
    assert _raise_sites(_UNTYPED) == _ALLOWED


def test_only_line_family_decides_that_a_pair_is_not_rank_one():
    # the arithmetic distance decides, and line_family is where a caller meets it
    assert _raise_sites({"NotRankOneError"}) == [("hermitian", "line_family", "NotRankOneError")]
