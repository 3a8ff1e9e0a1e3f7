import ast
import importlib
import sys
from pathlib import Path

import pytest

import stratikit


def test_every_public_name_resolves_to_its_defining_module():
    for name in stratikit.__all__:
        if name == "__version__":
            continue
        value = getattr(stratikit, name)
        assert value.__module__.startswith("stratikit.")
        assert getattr(importlib.import_module(value.__module__), name) is value


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from stratikit import *", namespace)
    assert set(stratikit.__all__) <= set(namespace)
    assert namespace["Preorder"] is stratikit.order.Preorder
    assert namespace["__version__"] == stratikit.__version__


def test_public_names_appear_in_dir():
    assert set(stratikit.__all__) <= set(dir(stratikit))


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        stratikit.no_such_name
    assert not hasattr(stratikit, "boundary_columns")  # public only in homology


def test_submodules_are_the_registered_module_objects():
    for name in ("order", "arrangement", "jsonio", "corpus"):
        assert getattr(stratikit, name) is sys.modules[f"stratikit.{name}"]


def imported_but_unused(source):
    """Names bound by the imports of a module, at any depth, that no other
    name in it reads.  ``from __future__`` imports bind nothing, but
    ``annotations`` counts as unused in a module with no annotation."""
    tree = ast.parse(source)
    annotated = any(getattr(node, "annotation", None) or getattr(node, "returns", None)
                    for node in ast.walk(tree))
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound.update(a.asname or a.name.partition(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update(a.asname or a.name for a in node.names)
        elif isinstance(node, ast.ImportFrom) and not annotated:
            bound.update(a.name for a in node.names if a.name == "annotations")
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(bound - used)


def test_every_imported_name_is_used():
    package = Path(stratikit.__file__).parent
    unused = {path.name: imported_but_unused(path.read_text(encoding="utf-8"))
              for path in sorted(package.glob("*.py"))}
    assert {name: names for name, names in unused.items() if names} == {}


def test_unused_import_check_flags_an_unused_name():
    assert imported_but_unused(
        "from __future__ import annotations\n"
        "import os.path\nimport json as j\nfrom .order import bitmask, transpose\n"
        "j.dumps(os.sep)\ndef f():\n    import random\n    return bitmask\n"
    ) == ["annotations", "random", "transpose"]
    for annotated in ("def f(x: int):\n    return x\n", "def f() -> int:\n    return 0\n",
                      "x: int = 0\n"):
        assert imported_but_unused(
            "from __future__ import annotations\n" + annotated) == []


def imported_modules(source):
    """Top-level names of the modules a module imports, at any depth."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names.update(a.name.partition(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names.add(node.module.partition(".")[0])
    return names


def test_only_the_rational_layers_import_fractions():
    """``arrangement`` and ``jsonio`` read "p/q" rationals; the solver, the
    witnesses and their printing stay in integers, and so does the rank of
    an integer boundary."""
    package = Path(stratikit.__file__).parent
    importers = [path.stem for path in sorted(package.glob("*.py"))
                 if "fractions" in imported_modules(path.read_text(encoding="utf-8"))]
    assert importers == ["arrangement", "jsonio"]


def test_imported_modules_sees_nested_and_dotted_imports():
    assert imported_modules(
        "import os.path\nfrom .order import bitmask\ndef f():\n"
        "    from fractions import Fraction\n    import json as j\n") == {
            "os", "fractions", "json"}
