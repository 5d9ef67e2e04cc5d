"""Module boundaries: no module of the package imports another's private names,
neither by name nor as an attribute of an imported module, none fills a
slot through ``object.__setattr__``, and only the modules whose records
check in their own ``__init__`` build one past it."""

import ast
from pathlib import Path

import grzseq

PACKAGE = Path(grzseq.__file__).parent


def private_imports(source: str) -> list[str]:
    """Each ``from .x import _name``, and each ``m._name`` read off a module m
    that the source binds with ``from . import m`` (dunders such as
    ``m.__name__`` excepted); the absolute forms through ``grzseq`` too."""
    tree = ast.parse(source)
    offenders, modules = [], set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level > 0 or (node.module or "").startswith("grzseq")):
            offenders += [f"from {'.' * node.level}{node.module or ''} import {a.name}"
                          for a in node.names if a.name.startswith("_")]
            if node.module in (None, "grzseq"):
                modules.update(a.asname or a.name for a in node.names)
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in modules
                and node.attr.startswith("_") and not node.attr.endswith("__")):
            offenders.append(f"{node.value.id}.{node.attr}")
    return offenders


def test_no_private_names_imported_across_modules():
    offenders = []
    for path in sorted(PACKAGE.glob("*.py")):
        offenders += [f"{path.name}: {o}" for o in private_imports(path.read_text(encoding="utf-8"))]
    assert offenders == []


def test_the_guard_sees_both_ways_in():
    assert private_imports("from .ordinals import _sum, add") == ["from .ordinals import _sum"]
    assert private_imports("from . import ordinals\nordinals._sum(())") == ["ordinals._sum"]
    assert private_imports("from . import ordinals as o\nx = o._ordinal") == ["o._ordinal"]
    assert private_imports("from . import ordinals\nordinals.add(a, b)\nordinals.__name__") == []
    assert private_imports("from grzseq import ordinals\nordinals._sum") == ["ordinals._sum"]


def object_setattr_reads(source: str) -> list[int]:
    """The lines that read ``object.__setattr__``, called or not: a record
    fills its slots through the slots' own setters."""
    return [node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Attribute) and node.attr == "__setattr__"
            and isinstance(node.value, ast.Name) and node.value.id == "object"]


def test_no_module_calls_object_setattr():
    offenders = []
    for path in sorted(PACKAGE.glob("*.py")):
        offenders += [f"{path.name}:{line}" for line in object_setattr_reads(path.read_text(encoding="utf-8"))]
    assert offenders == []


def test_the_setattr_guard_sees_a_call_and_an_alias():
    assert object_setattr_reads('object.__setattr__(self, "x", 1)') == [1]
    assert object_setattr_reads("# object.__setattr__\nset = object.__setattr__") == [2]
    assert object_setattr_reads("_set_x(self, 1)\nFRep.base.__set__(r, 2)") == []


# the Record base, and the two modules whose records check their arguments
# in their own __init__: only their builders may skip it
INIT_BYPASSERS = {"order.py", "frep.py", "ordinals.py"}


def init_bypasses(source: str) -> list[int]:
    """The lines that read ``object.__new__`` or bind a slot's ``__set__``,
    called or not: a record built that way skips its constructor."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Attribute) and (node.attr == "__set__" or (
                      node.attr == "__new__" and isinstance(node.value, ast.Name) and node.value.id == "object")))


def test_only_the_checking_records_skip_their_constructor():
    offenders = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name not in INIT_BYPASSERS:
            offenders += [f"{path.name}:{line}" for line in init_bypasses(path.read_text(encoding="utf-8"))]
    assert offenders == []
    assert all(init_bypasses((PACKAGE / name).read_text(encoding="utf-8")) for name in INIT_BYPASSERS)


def test_the_bypass_guard_sees_a_call_an_alias_and_a_setter():
    assert init_bypasses("r = object.__new__(FRep)") == [1]
    assert init_bypasses("# object.__new__\nnew = object.__new__") == [2]
    assert init_bypasses("set_x = FRep.x.__set__\ngetattr(cls, f).__set__(r, 1)") == [1, 2]
    assert init_bypasses("FRep(2, ())\nsuper().__new__(cls)\nobject.__setattr__") == []
