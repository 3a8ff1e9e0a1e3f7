"""In-process tracing of stratikit's layers from outside the package.

Each listed public function is replaced by a wrapper that records a span
(name, parent span, start, end).  The wrapper is bound wherever the original
was reachable: on its class, or in every loaded ``stratikit`` module that holds
the function under a name (``arrangement`` does ``from .feasibility import
solve``, so patching ``feasibility.solve`` alone would miss its calls).  No
global profiling hook is used: ``sys.setprofile`` would fire on every
``Fraction`` operation and swamp the numbers.

Self time of a span is its duration minus the durations of its direct
children; a layer's self time is the sum over its spans.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter


def _count_calls(key):
    def hook(counts, args, result):
        counts[key] += 1
    return hook


def _count_size(key, size):
    def hook(counts, args, result):
        counts[key] += size(args, result)
    return hook


def _solve_hook(counts, args, result):
    counts["feasibility.solve_calls"] += 1
    counts["feasibility.feasible"] += result is not None


# (module, attribute path, span name, count hook or None)
SPANS = [
    ("jsonio", "load_preorder", "jsonio.load", None),
    ("jsonio", "load_topology", "jsonio.load", None),
    ("jsonio", "load_decomposition", "jsonio.load", None),
    ("jsonio", "load_arrangement", "jsonio.load", None),
    ("jsonio", "load_category", "jsonio.load", None),
    ("jsonio", "load_functor", "jsonio.load", None),
    ("jsonio", "canonical_dumps", "jsonio.dump", None),
    ("order", "Preorder.from_pairs", "order.from_pairs", None),
    # Poset.__init__ runs Preorder.__init__ as a nested span, so count once
    ("order", "Preorder.__init__", "order.init",
     _count_size("order.elements", lambda a, r: len(a[0].carrier))),
    ("order", "Poset.__init__", "order.init", None),
    ("order", "quotient_poset", "order.quotient_poset", None),
    ("topology", "FiniteTopology.from_preorder", "topology.from_preorder",
     _count_size("topology.opens_enumerated", lambda a, r: len(r.opens))),
    ("topology", "FiniteTopology.from_open_sets", "topology.validate", None),
    ("topology", "FiniteTopology.specialization_preorder", "topology.specialization",
     None),
    ("topology", "product_topology", "topology.product", None),
    ("decomposition", "analyze", "decomposition.analyze", None),
    ("decomposition", "quotient_topology", "decomposition.quotient",
     _count_size("decomposition.label_subsets", lambda a, r: 1 << len(a[0].blocks))),
    ("decomposition", "validate_stratification", "decomposition.validate", None),
    ("decomposition", "product_decomposition", "decomposition.product", None),
    ("feasibility", "solve", "feasibility.solve", _solve_hook),
    ("arrangement", "enumerate_faces", "arrangement.enumerate",
     _count_size("arrangement.faces", lambda a, r: len(r))),
    ("arrangement", "face_poset", "arrangement.face_poset", None),
    ("arrangement", "closure_inclusion", "arrangement.oracle",
     _count_calls("arrangement.oracle_calls")),
    ("homology", "order_complex", "homology.order_complex",
     _count_size("homology.simplices", lambda a, r: len(r.simplices))),
    ("homology", "betti", "homology.betti", _count_calls("homology.betti_calls")),
    ("homology", "boundary_squares_to_zero", "homology.boundary_check", None),
    ("category", "FiniteCategory.__init__", "category.build", None),
    ("category", "hom_preorder_details", "category.hom_preorder", None),
    ("category", "hom_stratified", "category.stratify", None),
    ("category", "yoneda_natural_transformations", "category.yoneda", None),
    ("category", "yoneda_image_report", "category.yoneda", None),
    ("corpus", "run_case", "corpus.run_case", None),
]

# Called too often for a span each; only counted.
COUNTED = [("category", "FiniteCategory.compose", "category.compose_calls")]

ROOT_SPAN = "cli"  # one per job: the call of stratikit.cli.main


class Tracer:
    """Span recorder.  install() patches stratikit, uninstall() restores it."""

    def __init__(self):
        self.spans = []  # (name, parent index or -1, start, end)
        self.counts = Counter()
        self._stack = []
        self._patches = []  # (namespace, attribute, original value)

    def reset(self):
        self.spans = []
        self.counts = Counter()

    def call(self, name, fn, *args, **kwargs):
        """Run fn(*args, **kwargs) inside a span."""
        idx = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(idx)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[idx] = (name, parent, start, end)

    def _span_wrapper(self, fn, name, hook):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = self.call(name, fn, *args, **kwargs)
            if hook is not None:
                hook(self.counts, args, result)
            return result

        return wrapper

    def _count_wrapper(self, fn, key):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _patch(self, module_name, path, make):
        module = sys.modules[f"stratikit.{module_name}"]
        owner_name, _, attr = path.rpartition(".")
        if owner_name:
            owner = getattr(module, owner_name)
            raw = owner.__dict__[attr]
            if isinstance(raw, classmethod):
                new = classmethod(make(raw.__func__))
            else:
                new = make(raw)
            self._patches.append((owner, attr, raw))
            setattr(owner, attr, new)
            return
        original = getattr(module, attr)
        new = make(original)
        for name, mod in list(sys.modules.items()):
            if name == "stratikit" or name.startswith("stratikit."):
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, key, original))
                        setattr(mod, key, new)

    def install(self):
        for module, path, name, hook in SPANS:
            self._patch(module, path,
                        lambda fn, name=name, hook=hook: self._span_wrapper(fn, name, hook))
        for module, path, key in COUNTED:
            self._patch(module, path, lambda fn, key=key: self._count_wrapper(fn, key))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    def self_times(self):
        """Seconds of self time per span name."""
        child = [0.0] * len(self.spans)
        for name, parent, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = Counter()
        for i, (name, parent, start, end) in enumerate(self.spans):
            out[name] += (end - start) - child[i]
        return out

    def under(self, name, ancestor):
        """Number of `name` spans with an `ancestor` span above them."""
        n = 0
        for span in self.spans:
            if span[0] != name:
                continue
            parent = span[1]
            while parent >= 0 and self.spans[parent][0] != ancestor:
                parent = self.spans[parent][1]
            n += parent >= 0
        return n


# Per-layer metrics of a traced pass, in report order: (name, unit).
LAYER_METRICS = [
    ("setup.interpreter_s", "s"), ("setup.import_numpy_s", "s"),
    ("setup.import_stratikit_s", "s"),
    ("cli.self_s", "s"),
    ("jsonio.load_s", "s"), ("jsonio.dump_s", "s"), ("jsonio.report_bytes", "bytes"),
    ("order.from_pairs_s", "s"), ("order.init_s", "s"), ("order.elements", "count"),
    ("order.quotient_poset_s", "s"),
    ("topology.from_preorder_s", "s"), ("topology.opens_enumerated", "count"),
    ("topology.validate_s", "s"), ("topology.specialization_s", "s"),
    ("topology.product_s", "s"),
    ("decomposition.analyze_s", "s"), ("decomposition.quotient_s", "s"),
    ("decomposition.label_subsets", "count"), ("decomposition.validate_s", "s"),
    ("decomposition.product_s", "s"),
    ("feasibility.solve_s", "s"), ("feasibility.solve_calls", "count"),
    ("feasibility.feasible_share", "ratio"),
    ("arrangement.enumerate_s", "s"), ("arrangement.faces", "count"),
    ("arrangement.solves_per_face", "ratio"), ("arrangement.face_poset_s", "s"),
    ("arrangement.oracle_s", "s"), ("arrangement.oracle_calls", "count"),
    ("homology.order_complex_s", "s"), ("homology.simplices", "count"),
    ("homology.betti_s", "s"), ("homology.betti_calls", "count"),
    ("homology.boundary_check_s", "s"),
    ("category.build_s", "s"), ("category.hom_preorder_s", "s"),
    ("category.stratify_s", "s"), ("category.yoneda_s", "s"),
    ("category.compose_calls", "count"),
    ("corpus.run_case_s", "s"),
    ("trace.overhead_ratio", "ratio"),
]


def pass_metrics(tracer):
    """Layer self times, counts and ratios of one traced pass, by metric name."""
    out = {f"{name}_s": t for name, t in tracer.self_times().items()}
    out[f"{ROOT_SPAN}.self_s"] = out.pop(f"{ROOT_SPAN}_s", 0.0)
    counts = tracer.counts
    out.update({k: v for k, v in counts.items() if k != "feasibility.feasible"})
    calls = counts["feasibility.solve_calls"]
    out["feasibility.feasible_share"] = counts["feasibility.feasible"] / calls if calls else 0.0
    faces = counts["arrangement.faces"]
    out["arrangement.solves_per_face"] = (
        tracer.under("feasibility.solve", "arrangement.enumerate") / faces if faces else 0.0)
    return out
