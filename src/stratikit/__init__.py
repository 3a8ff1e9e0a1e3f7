"""Finite-structure toolkit: preorders and Alexandroff topologies, quotient
and decomposition spaces, rational hyperplane arrangement face posets,
hom-set stratifications of finite categories, and order-complex homology."""

from .arrangement import (Arrangement, Face, closure_inclusion, closure_rows,
                          enumerate_faces, face_poset, reachable_sides, sign_map)
from .category import (FiniteCategory, SetFunctor, hom_preorder, hom_stratified,
                       st_functor_check, yoneda_image, yoneda_image_report,
                       yoneda_natural_transformations)
from .decomposition import (Decomposition, DecompositionReport, analyze,
                            product_decomposition, quotient_topology,
                            validate_stratification)
from .errors import CapExceeded, InputError, StratikitError, StructureError
from .homology import SimplicialComplex, betti, order_complex
from .order import (MonotoneMap, Poset, Preorder, is_monotone, order_isomorphism,
                    product, quotient_poset)
from .topology import FiniteTopology, PosetStratifiedSpace, product_topology

__version__ = "0.1.0"

__all__ = [
    "Arrangement", "Face", "closure_inclusion", "closure_rows", "enumerate_faces",
    "face_poset", "reachable_sides", "sign_map",
    "FiniteCategory", "SetFunctor", "hom_preorder", "hom_stratified",
    "st_functor_check", "yoneda_image", "yoneda_image_report",
    "yoneda_natural_transformations",
    "Decomposition", "DecompositionReport", "analyze", "product_decomposition",
    "quotient_topology", "validate_stratification",
    "CapExceeded", "InputError", "StratikitError", "StructureError",
    "SimplicialComplex", "betti", "order_complex",
    "MonotoneMap", "Poset", "Preorder", "is_monotone", "order_isomorphism",
    "product", "quotient_poset",
    "FiniteTopology", "PosetStratifiedSpace", "product_topology",
    "__version__",
]
