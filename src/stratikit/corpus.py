"""Golden example corpus: one runnable case per worked example in scope.

Finite replicas stand in for constructions on infinite carriers; each golden
file says so in its provenance note.  A case recomputes everything from its
stored inputs and compares against the frozen expectations.
"""

import json
import os

from . import arrangement, category, decomposition, homology, jsonio, order, topology

# The golden files, read by plain path: ``importlib.resources`` would load
# ``pathlib`` and ``tempfile`` into every corpus job.
DATA_DIR = os.path.join(os.path.dirname(__file__), "corpus_data")


def golden(name):
    if name not in CASE_NAMES:
        raise KeyError(f"unknown corpus case {name!r}; known: {', '.join(CASE_NAMES)}")
    with open(os.path.join(DATA_DIR, f"{name}.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _check(checks, name, ok, detail=""):
    checks.append({"name": name, "pass": bool(ok), "detail": str(detail)})


def _poset_from_golden(doc):
    pre = jsonio.load_preorder(doc)
    return pre.to_poset()


def run_ex1():
    g = golden("ex1")
    checks = []
    poset = _poset_from_golden(g["poset"])
    space = topology.FiniteTopology.from_preorder(poset)
    _check(checks, "open family matches",
           space.opens_as_labels() == g["opens"], space.opens_as_labels())
    _check(checks, "specialization inverts the construction",
           topology.rows_of_opens(space) == list(poset.up))
    return {"opens": space.opens_as_labels()}, checks, g


def run_ex2_replica():
    g = golden("ex2-replica")
    checks = []
    arr = jsonio.load_arrangement(g["arrangement"])
    faces = arrangement.enumerate_faces(arr)
    space = topology.FiniteTopology.from_preorder(arrangement.face_poset(arr, faces))
    blocks = [g["blocks"][k] for k in ("N", "O", "P")]
    dec = decomposition.Decomposition(space, blocks, ["N", "O", "P"])
    rep = decomposition.analyze(dec)
    results = rep.to_json_dict()
    _check(checks, "quotient opens match",
           results["quotient"]["opens"] == g["expected_opens"],
           results["quotient"]["opens"])
    _check(checks, "projection not open", rep.pi_open == g["pi_open"], rep.pi_open)
    _check(checks, "closure order disagrees with quotient order",
           rep.tamaki_agrees == g["tamaki_agrees"])
    _check(checks, "quotient is a poset",
           rep.quotient_is_poset == g["quotient_is_poset"])
    _check(checks, "not a stratification",
           decomposition.validate_stratification(dec).is_stratification
           == g["is_stratification"])
    return results, checks, g


def run_rational():
    g = golden("rational")
    checks = []
    space = jsonio.load_topology(g["space"])
    dec = decomposition.Decomposition(space, g["blocks"], g["labels"])
    rep = decomposition.analyze(dec)
    results = rep.to_json_dict()
    strat = decomposition.validate_stratification(dec)
    _check(checks, "quotient is indiscrete",
           results["quotient"]["opens"] == g["expected_opens"])
    _check(checks, "quotient preorder is complete",
           sorted(rep.tau_pi_preorder.pairs()) ==
           sorted(tuple(p) for p in g["expected_preorder_pairs"]))
    _check(checks, "projection open", rep.pi_open == g["pi_open"])
    _check(checks, "not a poset", rep.quotient_is_poset == g["quotient_is_poset"])
    _check(checks, "blocks not locally closed",
           rep.blocks_locally_closed == g["blocks_locally_closed"])
    _check(checks, "not a stratification",
           strat.is_stratification == g["is_stratification"])
    return results, checks, g


def run_pseudo():
    g = golden("pseudo")
    checks = []
    poset = _poset_from_golden(g["poset"])
    space = topology.FiniteTopology.from_preorder(poset)
    _check(checks, "open family matches",
           space.opens_as_labels() == g["opens"], space.opens_as_labels())
    _check(checks, "specialization inverts the construction",
           topology.rows_of_opens(space) == list(poset.up))
    b = homology.betti(homology.order_complex(poset), 1)
    _check(checks, "order complex has circle homology", b == g["betti"], b)
    dec = decomposition.Decomposition(space, [[x] for x in poset.carrier],
                                      list(poset.carrier))
    rep = decomposition.analyze(dec)
    _check(checks, "singleton decomposition projection open",
           rep.pi_open == g["pi_open"])
    return {"opens": space.opens_as_labels(), "betti": b}, checks, g


def run_pseudo_prime_replica():
    g = golden("pseudo-prime-replica")
    checks = []
    space = topology.FiniteTopology.from_preorder(jsonio.load_preorder(
        {"carrier": g["space_preorder"]["carrier"],
         "pairs": g["space_preorder"]["pairs"]}))
    labels = list(g["blocks"])
    dec = decomposition.Decomposition(space, [g["blocks"][k] for k in labels], labels)
    rep = decomposition.analyze(dec)
    results = rep.to_json_dict()
    _check(checks, "quotient opens match the four-point circle model",
           results["quotient"]["opens"] == g["expected_opens"],
           results["quotient"]["opens"])
    _check(checks, "projection not open", rep.pi_open == g["pi_open"], rep.pi_open)
    return results, checks, g


def run_ex6():
    g = golden("ex6")
    checks = []
    arr = jsonio.load_arrangement(g["arrangement"])
    space = topology.FiniteTopology.from_preorder(arrangement.face_poset(arr))
    labels = list(g["blocks"])
    dec = decomposition.Decomposition(space, [g["blocks"][k] for k in labels], labels)
    rep = decomposition.analyze(dec)
    results = rep.to_json_dict()
    _check(checks, "quotient opens match",
           results["quotient"]["opens"] == g["expected_opens"],
           results["quotient"]["opens"])
    _check(checks, "quotient preorder matches",
           sorted(rep.tau_pi_preorder.pairs()) ==
           sorted(tuple(p) for p in g["expected_preorder_pairs"]),
           rep.tau_pi_preorder.pairs())
    _check(checks, "projection open", rep.pi_open == g["pi_open"])
    _check(checks, "quotient is a poset",
           rep.quotient_is_poset == g["quotient_is_poset"])
    return results, checks, g


def _natural_bijection(faces):
    """Each face label to its ex1 product label, reading -, 0, + as N, O, P."""
    letter = {"-": "N", "0": "O", "+": "P"}
    return {f.label: order.product_label(letter[ch] for ch in f.label) for f in faces}


def run_ex7():
    g = golden("ex7")
    checks = []
    arr = jsonio.load_arrangement(g["arrangement"])
    faces = arrangement.enumerate_faces(arr)
    _check(checks, "face count", len(faces) == g["face_count"], len(faces))
    poset = arrangement.face_poset(arr, faces)
    space = topology.FiniteTopology.from_preorder(poset)
    base = sorted(sorted(space.labels(row)) for row in topology.rows_of_opens(space))
    expected_base = sorted(sorted(b) for b in g["minimal_open_base"])
    _check(checks, "minimal open base matches", base == expected_base, base)
    _check(checks, "open family size",
           len(space.opens) == g["opens_count"], len(space.opens))
    ex1_poset = _poset_from_golden(golden("ex1")["poset"])
    grid = order.product([ex1_poset, ex1_poset])
    _check(checks, "face poset isomorphic to the product square",
           order.is_order_isomorphism(_natural_bijection(faces), poset, grid))
    return {"face_count": len(faces), "opens_count": len(space.opens)}, checks, g


def run_coordinate_n3():
    g = golden("coordinate-n3")
    checks = []
    arr = jsonio.load_arrangement(g["arrangement"])
    faces = arrangement.enumerate_faces(arr)
    _check(checks, "face count is 3^3", len(faces) == g["face_count"], len(faces))
    poset = arrangement.face_poset(arr, faces)
    ex1_poset = _poset_from_golden(golden("ex1")["poset"])
    cube = order.product([ex1_poset] * 3)
    _check(checks, "natural sign bijection is an order isomorphism",
           order.is_order_isomorphism(_natural_bijection(faces), poset, cube))
    return {"face_count": len(faces)}, checks, g


def run_arrangement_3lines():
    g = golden("arrangement-3lines")
    checks = []
    arr = jsonio.load_arrangement(g["arrangement"])
    faces = arrangement.enumerate_faces(arr)
    _check(checks, "face count", len(faces) == g["face_count"], len(faces))
    by_zeros = {}
    for f in faces:
        by_zeros[str(f.signs.count(0))] = by_zeros.get(str(f.signs.count(0)), 0) + 1
    _check(checks, "face counts by rank",
           by_zeros == g["faces_by_zero_count"], by_zeros)
    poset = arrangement.face_poset(arr, faces)
    covers = poset.covering_pairs()
    sectors = [f.label for f in faces if f.signs.count(0) == 0]
    rays = [f.label for f in faces if f.signs.count(0) == 1]
    sector_ok = all(
        sum(1 for a, b in covers if b == s and a in rays) == g["sector_covers_rays"]
        for s in sectors)
    ray_ok = all(
        sum(1 for a, b in covers if b == r) == g["ray_covers"] for r in rays)
    _check(checks, "each sector covers exactly two rays", sector_ok)
    _check(checks, "each ray covers exactly the center", ray_ok)
    oracle = arrangement.closure_rows(arr, faces)
    _check(checks, "componentwise order agrees with the closure oracle",
           list(poset.up) == oracle)
    return {"face_count": len(faces), "by_zero_count": by_zeros}, checks, g


def run_monoid_idempotent():
    g = golden("monoid-idempotent")
    checks = []
    cat = jsonio.load_category(g["category"])
    pre = category.hom_preorder(cat, "*", "*", "R")
    _check(checks, "translation preorder",
           sorted(pre.pairs()) == sorted(tuple(p) for p in g["expected_r_pairs"]),
           pre.pairs())
    strata, _ = order.quotient_poset(pre)
    _check(checks, "quotient classes",
           list(strata.carrier) == g["expected_classes"], strata.carrier)
    _, rep = category.hom_stratified(cat, "*", "*", "R")
    _check(checks, "stratified structure holds", rep.all_hold())
    fun = jsonio.load_functor(cat, g["functor"])
    _, yrep = category.yoneda_natural_transformations(cat, fun, "*")
    _check(checks, "natural transformation count",
           yrep.transformation_count == g["natural_transformation_count"],
           yrep.transformation_count)
    return {"r_pairs": pre.pairs(), "classes": list(strata.carrier)}, checks, g


def run_group_c2():
    g = golden("group-c2")
    checks = []
    cat = jsonio.load_category(g["category"])
    pre = category.hom_preorder(cat, "*", "*", "R")
    _check(checks, "all morphisms equivalent",
           all(pre.leq(a, b) for a in pre.carrier for b in pre.carrier))
    strata, _ = order.quotient_poset(pre)
    _check(checks, "one-point quotient",
           list(strata.carrier) == g["expected_classes"], strata.carrier)
    _, rep = category.hom_stratified(cat, "*", "*", "R")
    _check(checks, "stratified structure holds", rep.all_hold())
    hom_functor = {
        "variance": "contravariant",
        "on_objects": {"*": ["1", "g"]},
        "on_morphisms": {
            "1": {"1": "1", "g": "g"},
            "g": {"1": cat.compose("1", "g"), "g": cat.compose("g", "g")},
        },
    }
    fun = jsonio.load_functor(cat, hom_functor)
    _, yrep = category.yoneda_natural_transformations(cat, fun, "*")
    _check(checks, "self hom-functor bijection",
           yrep.transformation_count == g["self_functor_transformation_count"],
           yrep.transformation_count)
    return {"classes": list(strata.carrier)}, checks, g


RUNNERS = {
    "ex1": run_ex1,
    "ex2-replica": run_ex2_replica,
    "rational": run_rational,
    "pseudo": run_pseudo,
    "pseudo-prime-replica": run_pseudo_prime_replica,
    "ex6": run_ex6,
    "ex7": run_ex7,
    "coordinate-n3": run_coordinate_n3,
    "arrangement-3lines": run_arrangement_3lines,
    "monoid-idempotent": run_monoid_idempotent,
    "group-c2": run_group_c2,
}
CASE_NAMES = tuple(RUNNERS)


def unmatched_cases():
    """Case names with a runner but no golden file in ``corpus_data``, or the
    reverse, sorted; empty when the two name the same set."""
    files = {name[:-len(".json")] for name in os.listdir(DATA_DIR) if name.endswith(".json")}
    return sorted(set(RUNNERS) ^ files)


def run_case(name):
    """Returns (results, checks, golden_doc) for one corpus case."""
    if name not in RUNNERS:
        raise KeyError(f"unknown corpus case {name!r}; known: {', '.join(CASE_NAMES)}")
    return RUNNERS[name]()
