"""The library's public surface is what the library itself uses."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "shortpulse"
ENTRY_POINTS = {"cli.main"}  # the console script's target


def _public_names(node):
    """(name, is a function or method) of each public definition that a
    module-level statement makes: a function, a class and its methods, or
    the targets of a constant assignment."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        found = [(node.name, True)]
    elif isinstance(node, ast.ClassDef):
        found = [(node.name, False)] + [
            (f"{node.name}.{fn.name}", True) for fn in node.body
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))]
    elif isinstance(node, (ast.Assign, ast.AnnAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        found = [(t.id, False) for t in targets if isinstance(t, ast.Name)]
    else:
        found = []
    return [(name, fn) for name, fn in found
            if not name.rsplit(".", 1)[-1].startswith("_")]


def _scan():
    """(defined, used): each public definition as (module.name, bare
    name, is a function or method), and every name read anywhere under
    src/, as a name or an attribute; a definition itself is no read."""
    defined, used = [], set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
        defined.extend((f"{path.stem}.{name}", name.rsplit(".", 1)[-1], fn)
                       for node in tree.body for name, fn in _public_names(node))
    return defined, used


def _unused(functions):
    defined, used = _scan()
    kind = [d for d in defined if d[2] == functions]
    assert len(kind) > 20  # the scan found the package
    return [full for full, name, _ in kind
            if name not in used and full not in ENTRY_POINTS]


def test_every_public_function_is_referenced_inside_the_library():
    # tests do not count as users
    assert _unused(functions=True) == []


def test_every_public_class_and_constant_is_referenced_inside_the_library():
    assert _unused(functions=False) == []
