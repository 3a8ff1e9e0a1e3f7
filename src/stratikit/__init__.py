"""Finite-structure toolkit: preorders and Alexandroff topologies, quotient
and decomposition spaces, rational hyperplane arrangement face posets,
hom-set stratifications of finite categories, and order-complex homology.

Submodules load on first use: each is registered in ``sys.modules`` through
``importlib.util.LazyLoader`` and runs when one of its attributes is first
read, so a command compiles only the modules whose attributes are read, by
the command itself or by a sibling's module-level ``from .x import`` (a
sibling needed by only some functions is imported inside them).  Public
names resolve through the module ``__getattr__`` (PEP 562).
"""

import importlib.util
import sys

__version__ = "0.1.0"

# Public name -> defining submodule, grouped by submodule.  This one table
# drives both __all__ and __getattr__.
_EXPORTS = {
    "arrangement": ("Arrangement", "Face", "closure_inclusion", "closure_rows",
                    "enumerate_faces", "face_poset", "face_signs", "sign_map"),
    "category": ("FiniteCategory", "SetFunctor", "hom_preorder", "hom_stratified",
                 "st_functor_check", "yoneda_image_report",
                 "yoneda_natural_transformations"),
    "decomposition": ("Decomposition", "DecompositionReport", "analyze",
                      "product_decomposition", "quotient_topology",
                      "validate_stratification"),
    "errors": ("CapExceeded", "InputError", "StratikitError", "StructureError"),
    "homology": ("betti", "order_complex"),
    "order": ("Poset", "Preorder", "is_monotone", "product", "quotient_poset"),
    "topology": ("FiniteTopology", "PosetStratifiedSpace", "product_topology"),
}
_ORIGIN = {name: module for module, names in _EXPORTS.items() for name in names}

# Every submodule except ``cli``: runpy warns when the module it runs as
# ``__main__`` is already in sys.modules.
_SUBMODULES = ("errors", "order", "topology", "decomposition", "feasibility",
               "arrangement", "homology", "category", "randomcases", "dot", "jsonio",
               "corpus")

__all__ = [*_ORIGIN, "__version__"]


def _register_lazy(name):
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)  # defers the real exec to first attribute read
    return module


for _name in _SUBMODULES:
    globals()[_name] = _register_lazy(_name)
del _name


def __getattr__(name):
    module = _ORIGIN.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(globals()[module], name)


def __dir__():
    return sorted({*globals(), *__all__})
