import importlib
import sys

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
