"""The library's public surface is what the library itself uses, and each
parameter default is a path the library runs."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "shortpulse"
TESTS = Path(__file__).resolve().parent
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


def _calls(paths):
    """Each call in the files ``paths`` as (name, ast.Call), the name being
    the called name or the attribute a method call reads."""
    out = []
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", getattr(node.func, "attr", None))
                if name:
                    out.append((name, node))
    return out


def _is_dataclass(cls):
    return any(getattr(getattr(d, "func", d), "id", None) == "dataclass"
               for d in cls.decorator_list)


def _dataclass_fields(cls):
    """(field, has a default) of each ``__init__`` parameter that a
    dataclass's annotated assignments make, in order; a ``field(...)``
    value has a default when it names one and is left out when init=False."""
    found = []
    for node in cls.body:
        if not (isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name)):
            continue
        value = node.value
        spec = isinstance(value, ast.Call) and getattr(
            value.func, "id", getattr(value.func, "attr", None)) in ("field", "dc_field")
        options = {kw.arg: kw.value for kw in value.keywords} if spec else {}
        if getattr(options.get("init"), "value", True) is False:
            continue
        default = value is not None and (
            not spec or "default" in options or "default_factory" in options)
        found.append((node.target.id, default))
    return found


def _defaulted_parameters():
    """(called name, parameter, positional slot or None) of each parameter
    with a default on a function or method defined under src/, or on a
    dataclass's generated ``__init__``: a method's slots leave out self,
    and ``__init__`` is called by its class name."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        owner = {id(fn): cls for cls in ast.walk(tree)
                 if isinstance(cls, ast.ClassDef) for fn in cls.body}
        for cls in ast.walk(tree):
            if isinstance(cls, ast.ClassDef) and _is_dataclass(cls):
                found += [(cls.name, name, slot) for slot, (name, default)
                          in enumerate(_dataclass_fields(cls)) if default]
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            cls = owner.get(id(fn))
            static = any(getattr(d, "id", None) == "staticmethod"
                         for d in fn.decorator_list)
            skip = int(cls is not None and not static)
            name = cls.name if fn.name == "__init__" else fn.name
            args = fn.args.posonlyargs + fn.args.args
            first = len(args) - len(fn.args.defaults)
            found += [(name, arg.arg, slot - skip)
                      for slot, arg in enumerate(args) if slot >= first]
            found += [(name, arg.arg, None) for arg, default
                      in zip(fn.args.kwonlyargs, fn.args.kw_defaults)
                      if default is not None]
    return found


def _passes(call, param, slot, unpacked):
    """Whether ``call`` passes the parameter by name or position; a ``*`` or
    ``**`` unpacking may pass it or leave it out, and counts as ``unpacked``."""
    starred = any(isinstance(arg, ast.Starred) for arg in call.args)
    return (any(kw.arg == param for kw in call.keywords)
            or slot is not None and len(call.args) > slot and not starred
            or unpacked and (starred or any(kw.arg is None for kw in call.keywords)))


def test_every_parameter_default_is_used_and_overridden():
    # a default that no library call leaves out serves only tests, and one
    # that no call overrides makes its parameter a constant; an unpacked
    # mapping or sequence can do either, so it proves neither
    library = _calls(sorted(SRC.glob("*.py")))
    tests = _calls(sorted(TESTS.glob("*.py")))
    found = _defaulted_parameters()
    assert len(found) > 5  # the scan found the package
    bad = []
    for name, param, slot in found:
        calls = [call for called, call in library if called == name]
        if all(_passes(call, param, slot, unpacked=False) for call in calls):
            bad.append(f"{name}({param}): no library call leaves it out")
        elif not any(_passes(call, param, slot, unpacked=True) for called, call
                     in library + tests if called == name):
            bad.append(f"{name}({param}): no call passes it")
    assert bad == []
