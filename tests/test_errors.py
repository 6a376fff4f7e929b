"""Every error a caller can meet is typed: no untyped raise outside a short allowlist."""

import ast
from pathlib import Path

import apline

_UNTYPED = {"ValueError", "KeyError", "TypeError"}

# (module, enclosing function, exception): argument-name errors of library calls, and
# the unknown-id error of run_sweep, which `apline check` formats
_ALLOWED = [
    ("classical", "Bijection.__init__", "ValueError"),
    ("classical", "Measure.__init__", "ValueError"),
    ("hermitian", "involution", "ValueError"),
    ("hermitian", "membership", "ValueError"),
    ("properties", "run_sweep", "KeyError"),
]


def _untyped_raises(node, module, scope=()):
    for child in ast.iter_child_nodes(node):
        inner = scope
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            inner = scope + (child.name,)
        elif isinstance(child, ast.Raise) and child.exc is not None:
            exc = child.exc.func if isinstance(child.exc, ast.Call) else child.exc
            if isinstance(exc, ast.Name) and exc.id in _UNTYPED:
                yield module, ".".join(scope), exc.id
        yield from _untyped_raises(child, module, inner)


def test_no_untyped_raise_outside_the_allowlist():
    found = []
    for path in sorted(Path(apline.__file__).parent.glob("*.py")):
        found += _untyped_raises(ast.parse(path.read_text(encoding="utf-8")), path.stem)
    assert sorted(found) == _ALLOWED
