"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Every comparison is exact (zero tolerance); the timed criteria measure the
core computation after a warm-up and take the best of a few repeats.
"""

import random
import time

from stratikit.arrangement import (Arrangement, closure_inclusion,
                                   enumerate_faces, face_poset)
from stratikit.category import (IMAGE_ORDER_NOTE, hom_stratified,
                                yoneda_image_report, yoneda_natural_transformations)
from stratikit.decomposition import analyze, open_closed_by_opens
from stratikit.homology import betti, order_complex
from stratikit.order import Preorder, is_order_isomorphism, product, product_label
from stratikit.randomcases import random_decomposition, random_preorder
from stratikit.topology import FiniteTopology, rows_of_opens

from catalog import all_categories, yoneda_instances
from reference import (images_natural, images_reverse_left_order, random_topology,
                       yoneda_bijection_holds, yoneda_inverse_holds)


def timed(fn, repeats=3):
    fn()  # warm-up
    best = min(_once(fn) for _ in range(repeats))
    return best


def _once(fn):
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def report(number, ok, detail, elapsed=None, limit=None):
    stamp = ""
    if elapsed is not None:
        stamp = f" [{elapsed * 1000:.2f} ms" + (
            f" <= {limit * 1000:.0f} ms]" if limit else "]")
    print(f"ACCEPTANCE {number:02d} {'PASS' if ok else 'FAIL'}{stamp} {detail}")
    assert ok, f"criterion {number} failed: {detail}"


def line_poset():
    return Preorder.from_pairs(["N", "O", "P"], [("O", "N"), ("O", "P")]).to_poset()


def test_criterion_01_three_point_line_reproduction():
    poset = line_poset()
    expected = [[], ["N"], ["P"], ["N", "P"], ["N", "O", "P"]]

    def core():
        space = FiniteTopology.from_preorder(poset)
        assert space.opens_as_labels() == expected
        assert rows_of_opens(space) == list(poset.up)

    elapsed = timed(core)
    report(1, elapsed < 0.001,
           "three-point line: exact open family and inverse round-trip",
           elapsed, 0.001)


def test_criterion_02_four_point_circle_reproduction():
    poset = Preorder.from_pairs(
        ["a", "b", "c", "d"],
        [("a", "c"), ("a", "d"), ("b", "c"), ("b", "d")]).to_poset()
    expected_opens = [[], ["c"], ["d"], ["c", "d"],
                      ["a", "c", "d"], ["b", "c", "d"], ["a", "b", "c", "d"]]

    def core():
        space = FiniteTopology.from_preorder(poset)
        assert space.opens_as_labels() == expected_opens
        assert rows_of_opens(space) == list(poset.up)
        assert betti(order_complex(poset), 1) == [1, 1]

    elapsed = timed(core)
    report(2, elapsed < 0.010,
           "four-point circle model: topology, order, and Betti numbers [1, 1]",
           elapsed, 0.010)


def test_criterion_03_grid_poset_reproduction():
    ex1 = line_poset()

    def core():
        coord2 = Arrangement(2, [(0, 1, 0), (0, 0, 1)])
        faces = enumerate_faces(coord2)
        poset = face_poset(coord2, faces)
        grid = product([ex1, ex1])
        letter = {"-": "N", "0": "O", "+": "P"}
        natural = {f.label: product_label(letter[c] for c in f.label)
                   for f in faces}
        assert is_order_isomorphism(natural, poset, grid)
        coord3 = Arrangement(3, [(0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)])
        assert len(enumerate_faces(coord3)) == 27

    elapsed = timed(core, repeats=2)
    report(3, elapsed < 0.100,
           "coordinate faces match the 9-element grid; 27 faces in dimension 3",
           elapsed, 0.100)


SUITE_SEED = 20240601


def oracle_cases(n=200):
    rng = random.Random(SUITE_SEED)
    return [random_decomposition(rng, max_size=6) for _ in range(n)]


def test_criterion_04_openness_criterion_suite():
    start = time.perf_counter()
    cases = oracle_cases()
    disagreements = sum(
        1 for d in cases for rep in [analyze(d)] if rep.pi_open != rep.tamaki_agrees)
    elapsed = time.perf_counter() - start
    # the row analysis against the definition over the explicit opens
    assert [analyze(d).pi_open for d in cases] == [
        open_closed_by_opens(d)[0] for d in cases]
    report(4, disagreements == 0 and elapsed < 5.0,
           f"openness equals order agreement on {len(cases)} seeded cases "
           f"(seed {SUITE_SEED}), {disagreements} disagreements",
           elapsed, 5.0)


def test_criterion_05_open_implies_poset_iff_locally_closed():
    violations = 0
    open_cases = 0
    for d in oracle_cases():
        rep = analyze(d)
        # the row analysis against the definition over the explicit opens
        assert len(d.space.carrier) <= 12
        assert (rep.pi_open, rep.pi_closed) == open_closed_by_opens(d)
        if not rep.pi_open:
            continue
        open_cases += 1
        if rep.quotient_is_poset != all(rep.blocks_locally_closed.values()):
            violations += 1
    report(5, violations == 0 and open_cases > 0,
           f"poset quotient iff locally closed blocks on {open_cases} open cases, "
           f"{violations} violations")


def test_criterion_06_closure_inclusion_oracle():
    arrangements = [
        ("one line", Arrangement(1, [(0, 1)])),
        ("two cut points", Arrangement(1, [(0, 1), (-1, 1)])),
        ("coordinate plane", Arrangement(2, [(0, 1, 0), (0, 0, 1)])),
        ("three concurrent lines", Arrangement(2, [(0, 1, 0), (0, 0, 1), (0, 1, -1)])),
        ("five cut points", Arrangement(1, [(0, 1), (-1, 1), (1, 1), (-3, 2), (2, 1)])),
    ]
    start = time.perf_counter()
    disagreements = 0
    pairs = 0
    for name, arr in arrangements:
        faces = enumerate_faces(arr)
        poset = face_poset(arr, faces)
        for a in faces:
            for b in faces:
                pairs += 1
                if poset.leq(a.label, b.label) != closure_inclusion(arr, a, b):
                    disagreements += 1
    three = enumerate_faces(arrangements[3][1])
    by_rank = {z: sum(1 for f in three if f.signs.count(0) == z) for z in (3, 1, 0)}
    elapsed = time.perf_counter() - start
    report(6,
           disagreements == 0 and len(three) == 13
           and by_rank == {3: 1, 1: 6, 0: 6} and elapsed < 2.0,
           f"componentwise order vs closure oracle on {pairs} face pairs; "
           f"13 faces split 1+6+6",
           elapsed, 2.0)


def test_criterion_07_functor_round_trips():
    start = time.perf_counter()
    rng = random.Random(SUITE_SEED + 1)
    for _ in range(100):
        p = random_preorder(rng, max_size=7)
        assert rows_of_opens(FiniteTopology.from_preorder(p)) == list(p.up)
    for _ in range(100):
        t = random_topology(rng, max_size=5)
        assert FiniteTopology.from_preorder(Preorder(t.carrier, rows_of_opens(t))) == t
    elapsed = time.perf_counter() - start
    report(7, elapsed < 2.0,
           "both functor round-trips exact on 100 + 100 random structures",
           elapsed, 2.0)


def test_criterion_08_hom_set_structure_suite():
    failures = []
    hom_sets = 0
    for name, cat in all_categories().items():
        assert len(cat.objects) <= 3 and len(cat.morphisms) <= 8
        for x in cat.objects:
            for y in cat.objects:
                if not cat.hom(x, y):
                    continue
                for side in ("R", "L", "LR"):
                    hom_sets += 1
                    _, rep = hom_stratified(cat, x, y, side)
                    if not (rep.projection_open
                            and all(rep.fibers_locally_closed.values())
                            and rep.order_matches_closure):
                        failures.append((name, x, y, side))
    report(8, not failures and hom_sets > 0,
           f"projection open, fibers locally closed, order equals closure "
           f"inclusion on {hom_sets} stratified hom-sets; failures: {failures}")


def test_criterion_09_yoneda_bijection_suite():
    instances = yoneda_instances()
    failures = []
    self_cases = 0
    for name, cat, fun, anchor in instances:
        transformations, rep = yoneda_natural_transformations(cat, fun, anchor)
        if "self" in name:
            self_cases += 1
        if (rep.transformation_count != rep.target_size
                or not yoneda_bijection_holds(cat, fun, anchor, transformations)
                or not yoneda_inverse_holds(cat, fun, anchor, transformations)):
            failures.append(name)
    report(9, len(instances) >= 5 and self_cases >= 1 and not failures,
           f"|Nat(h^A, F)| = |F(A)| on {len(instances)} instances "
           f"({self_cases} representable self cases); failures: {failures}")


def test_criterion_10_image_inclusion_suite():
    failures = []
    for name, cat, fun, anchor in yoneda_instances():
        images = yoneda_image_report(cat, fun, anchor)
        if (not images_natural(cat, fun, anchor, images)
                or not images_reverse_left_order(cat, anchor, images)):
            failures.append(name)
    report(10, not failures and "discrepancy" in IMAGE_ORDER_NOTE,
           "left-order witnesses reverse image inclusion on all instances; "
           f"direction discrepancy surfaced in the report note; failures: {failures}")
