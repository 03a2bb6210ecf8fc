"""The library's public surface is what the library itself uses."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "shortpulse"
ENTRY_POINTS = {"cli.main"}  # the console script's target


def test_every_public_function_is_referenced_inside_the_library():
    # a function or method counts as used when its name is read anywhere
    # under src/ (as a name or an attribute); tests do not count
    defined, used = [], set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
        for node in tree.body:
            owner, members = path.stem, [node]
            if isinstance(node, ast.ClassDef):
                owner, members = f"{path.stem}.{node.name}", node.body
            defined.extend((f"{owner}.{fn.name}", fn.name) for fn in members
                           if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
                           and not fn.name.startswith("_"))
    assert len(defined) > 50  # the scan found the package
    unused = [full for full, name in defined
              if name not in used and full not in ENTRY_POINTS]
    assert unused == []
