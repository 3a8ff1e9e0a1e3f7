import math
import random

import pytest

from stratikit import category
from stratikit.category import (SIDES, FiniteCategory, SetFunctor,
                                hom_preorder, hom_preorder_details,
                                hom_stratified, st_functor_check, yoneda_image_report,
                                yoneda_natural_transformations)
from stratikit.errors import InputError, StructureError
from stratikit.order import is_monotone, quotient_poset
from stratikit.topology import FiniteTopology, PosetStratifiedSpace

from catalog import (all_categories, all_maps, category_arrow, category_c2,
                     category_chain3, category_idempotent_monoid,
                     category_left_zero_monoid, category_parallel_pair, category_star,
                     category_transformation_monoid2, constant_functor,
                     cube_of_all_maps2, monoid, preimage_functor,
                     representable_functor, seeded_monoids, yoneda_instances)
from reference import (check_laws_by_compose, closure_by_opens,
                       functor_composition_by_pairs, green_leq,
                       hom_preorder_by_search, images_natural, images_reverse_left_order,
                       law_failure_holds, locally_closed_by_opens, natural_by_equations,
                       square_through_quotients, squares_through_quotients,
                       yoneda_bijection_holds, yoneda_by_enumeration, yoneda_inverse_holds)


def nonempty_hom_pairs(cat):
    return [(x, y) for x in cat.objects for y in cat.objects if cat.hom(x, y)]


def first_law_failure(check, cat):
    try:
        check(cat)
    except StructureError as exc:
        return str(exc)
    return None


class TestCategoryValidation:
    @pytest.mark.parametrize("drop, message", [
        (("e", "e"), "composition table misses composable pair ('e', 'e')"),
        (("1", "e"), "composition table misses composable pair ('1', 'e')"),
    ], ids=["in-associativity", "in-an-identity-law"])
    def test_a_missing_composable_pair_is_named(self, drop, message):
        compose = [row for row in [("1", "1", "1"), ("1", "e", "e"), ("e", "1", "e"),
                                   ("e", "e", "e")] if row[:2] != drop]
        with pytest.raises(StructureError) as err:
            FiniteCategory(["*"], {("*", "*"): ["1", "e"]}, {"*": "1"}, compose)
        assert str(err.value) == message

    @pytest.mark.parametrize("seed", range(4))
    def test_first_failure_is_the_one_compose_finds(self, seed):
        """Drop a pair or redirect a composite within its hom-set, one to
        six times, and compare with the check made through compose; the
        failure named holds in the mutated table."""
        import random
        rng = random.Random(seed)
        cats = [*all_categories().values(), monoid(all_maps(2)), monoid(all_maps(3)),
                *(monoid(maps) for maps in seeded_monoids(count=4, seed=seed))]
        failures = set()
        for cat in cats:
            table = cat._after
            pairs = sorted((g, f) for g, row in table.items() for f in row)
            for _ in range(25):
                cat._after = {g: dict(row) for g, row in table.items()}
                for _ in range(rng.randint(1, 6)):
                    g, f = rng.choice(pairs)
                    if rng.random() < 0.5:
                        cat._after[g].pop(f, None)
                    else:
                        cat._after[g][f] = rng.choice(cat.hom(cat.dom[f], cat.cod[g]))
                found = first_law_failure(FiniteCategory._check_laws, cat)
                assert found == first_law_failure(check_laws_by_compose, cat)
                assert found is None or law_failure_holds(cat, found)
                failures.add(found and found.split(" ")[0])
            cat._after = table
        assert failures == {None, "left", "right", "associativity", "composition"}

    def test_shipped_categories_load(self):
        for name, cat in all_categories().items():
            assert len(cat.objects) <= 3
            assert len(cat.morphisms) <= 8

    def test_broken_associativity_rejected(self):
        # x.x = y, y.x = x, x.y = x, y.y = y: (x.x).x = y.x = x but x.(x.x) = x.y = x;
        # force a violation via (y.x).x vs y.(x.x)
        with pytest.raises(StructureError, match="associativity"):
            FiniteCategory(
                ["*"], {("*", "*"): ["1", "x", "y"]}, {"*": "1"},
                [("1", "1", "1"), ("1", "x", "x"), ("1", "y", "y"),
                 ("x", "1", "x"), ("y", "1", "y"),
                 ("x", "x", "y"), ("x", "y", "x"),
                 ("y", "x", "x"), ("y", "y", "x")])

    def test_identity_law_enforced(self):
        with pytest.raises(StructureError, match="identity"):
            FiniteCategory(
                ["*"], {("*", "*"): ["1", "e"]}, {"*": "1"},
                [("1", "1", "1"), ("1", "e", "1"), ("e", "1", "e"),
                 ("e", "e", "e")])

    def test_missing_identity_rejected(self):
        with pytest.raises(InputError, match="identity"):
            FiniteCategory(["*"], {("*", "*"): ["e"]}, {}, [("e", "e", "e")])

    def test_identity_of_an_unknown_object_rejected_at_its_key(self):
        with pytest.raises(InputError, match="unknown object 'ghost'") as err:
            FiniteCategory(["*"], {("*", "*"): ["1"]}, {"*": "1", "ghost": "zz"},
                           [("1", "1", "1")])
        assert err.value.path == "identities.ghost"

    def test_mistyped_composite_rejected(self):
        with pytest.raises(StructureError, match="wrong hom-set"):
            FiniteCategory(
                ["A", "B"],
                {("A", "A"): ["idA"], ("B", "B"): ["idB"], ("A", "B"): ["u"]},
                {"A": "idA", "B": "idB"},
                [("idA", "idA", "idA"), ("u", "idA", "idA"),
                 ("idB", "u", "u"), ("idB", "idB", "idB")])

    def test_duplicate_morphism_label_rejected(self):
        with pytest.raises(InputError, match="twice"):
            FiniteCategory(
                ["A", "B"],
                {("A", "A"): ["i"], ("B", "B"): ["i"]},
                {"A": "i", "B": "i"}, [])


class TestHomPreorder:
    def test_group_gives_complete_preorder(self):
        pre = hom_preorder(category_c2(), "*", "*", "R")
        assert all(pre.leq(a, b) for a in pre.carrier for b in pre.carrier)

    def test_idempotent_monoid_orders_identity_below(self):
        cat = category_idempotent_monoid()
        pre, witnesses = hom_preorder_details(cat, "*", "*", "R")
        # e = 1.e shows 1 <= e; e.s stays e, never 1
        assert pre.leq("1", "e") and not pre.leq("e", "1")
        assert witnesses[("1", "e")] == {"s": "e"}
        assert all(cat.compose("e", s) == "e" for s in cat.hom("*", "*"))

    def test_reflexive_with_identity_witness(self):
        for name, cat in all_categories().items():
            for x, y in nonempty_hom_pairs(cat):
                for side in ("R", "L", "LR"):
                    pre, witnesses = hom_preorder_details(cat, x, y, side)
                    for f in pre.carrier:
                        assert pre.leq(f, f)
                        assert witnesses[(f, f)] is not None

    def test_left_zero_monoid_distinguishes_sides(self):
        cat = category_left_zero_monoid()
        right = hom_preorder(cat, "*", "*", "R")
        left = hom_preorder(cat, "*", "*", "L")
        assert sorted(right.pairs()) == [("1", "a"), ("1", "b")]
        assert sorted(left.pairs()) == [
            ("1", "a"), ("1", "b"), ("a", "b"), ("b", "a")]

    def test_transformation_monoid_quotients(self):
        # all self-maps of a two-point set: the post-composition quotient is a
        # three-class vee ([i] below the two constants), the pre-composition
        # one a two-chain with the constants identified
        cat = category_transformation_monoid2()
        qr, _ = quotient_poset(hom_preorder(cat, "*", "*", "R"))
        ql, _ = quotient_poset(hom_preorder(cat, "*", "*", "L"))
        assert list(qr.carrier) == ["[i]", "[z]", "[o]"]
        assert sorted(qr.pairs()) == [("[i]", "[o]"), ("[i]", "[z]")]
        assert list(ql.carrier) == ["[i]", "[o]"]
        assert ql.pairs() == [("[i]", "[o]")]

    def test_mixed_side_contains_both(self):
        for name, cat in all_categories().items():
            for x, y in nonempty_hom_pairs(cat):
                r = hom_preorder(cat, x, y, "R")
                l = hom_preorder(cat, x, y, "L")
                lr = hom_preorder(cat, x, y, "LR")
                for a in lr.carrier:
                    for b in lr.carrier:
                        if r.leq(a, b) or l.leq(a, b):
                            assert lr.leq(a, b)

    def test_unknown_side_rejected(self):
        with pytest.raises(InputError):
            hom_preorder(category_c2(), "*", "*", "Q")

    def test_unknown_object_rejected(self):
        with pytest.raises(InputError):
            hom_preorder(category_c2(), "*", "?", "R")


# T2, T3, T2^3 at the 64-morphism cap, and twenty seeded monoids of self-maps
MONOIDS = {"T2": all_maps(2), "T3": all_maps(3), "T2^3": cube_of_all_maps2(),
           **{f"seeded{i}": maps for i, maps in enumerate(seeded_monoids())}}


def assert_matches_the_pairwise_search(cat, x, y, side):
    pre, witnesses = hom_preorder_details(cat, x, y, side)
    ref_pre, ref_witnesses = hom_preorder_by_search(cat, x, y, side)
    assert pre == ref_pre
    assert witnesses == ref_witnesses
    # the CLI prints each witness, so its key order matters too
    assert all(list(witnesses[k]) == list(w) for k, w in ref_witnesses.items())


class TestHomPreorderAgainstTheSearch:
    @pytest.mark.parametrize("side", SIDES)
    def test_every_hom_set_of_the_catalog(self, side):
        cases = 0
        for name, cat in all_categories().items():
            for x in cat.objects:
                for y in cat.objects:
                    assert_matches_the_pairwise_search(cat, x, y, side)
                    cases += 1
        assert cases == 21

    @pytest.mark.parametrize("side", SIDES)
    @pytest.mark.parametrize("name", MONOIDS)
    def test_monoids_of_self_maps(self, name, side):
        cat = monoid(MONOIDS[name])
        assert len(cat.morphisms) <= 64
        assert_matches_the_pairwise_search(cat, "*", "*", side)


def count_calls(monkeypatch, owner, name):
    """Wrap ``owner.name`` so that each call's arguments are recorded; returns
    the record."""
    calls = []
    inner = getattr(owner, name)

    def counted(*args):
        calls.append(args)
        return inner(*args)

    monkeypatch.setattr(owner, name, counted)
    return calls


class TestWorkAtTheCap:
    @pytest.mark.parametrize("side", SIDES)
    def test_hom_preorder_forms_each_composite_once(self, monkeypatch, side):
        cat = monoid(cube_of_all_maps2())
        calls = count_calls(monkeypatch, cat, "compose")
        hom_preorder_details(cat, "*", "*", side)
        # |hom| * (|End x| + |End y|) on LR, one of the two on R and L
        n = len(cat.morphisms)
        assert n == 64
        assert len(calls) <= {"R": n * n, "L": n * n, "LR": 2 * n * n}[side]

    @pytest.mark.parametrize("side", ["R-covariant", "L-contravariant"])
    def test_functor_check_translates_each_morphism_once(self, monkeypatch, side):
        cat = monoid(cube_of_all_maps2())
        calls = count_calls(monkeypatch, category, "_translation")
        assert all(st_functor_check(cat, "*", side).values())
        assert sorted(args[3] for args in calls) == sorted(cat.morphisms)


class TestHomStratified:
    def test_idempotent_monoid_structure(self):
        pss, rep = hom_stratified(category_idempotent_monoid(), "*", "*", "R")
        assert list(pss.strata_poset.carrier) == ["[1]", "[e]"]
        assert pss.strata_poset.leq("[1]", "[e]")
        assert rep.all_hold()

    def test_group_collapses_to_a_point(self):
        pss, rep = hom_stratified(category_c2(), "*", "*", "R")
        assert len(pss.strata_poset.carrier) == 1
        assert pss.fiber_mask(pss.strata_poset.carrier[0]) == pss.space.full_mask
        assert rep.all_hold()

    def test_partial_order_gives_bijective_map(self):
        # parallel pair: the right preorder on {f, g} is discrete, classes are singletons
        pss, rep = hom_stratified(category_parallel_pair(), "A", "B", "R")
        assert len(pss.strata_poset.carrier) == len(pss.space.carrier)
        assert rep.all_hold()

    def test_empty_hom_set_rejected(self):
        with pytest.raises(InputError, match="empty"):
            hom_stratified(category_arrow(), "B", "A", "R")

    def test_trio_on_all_shipped_categories(self):
        for name, cat in all_categories().items():
            for x, y in nonempty_hom_pairs(cat):
                for side in ("R", "L", "LR"):
                    _, rep = hom_stratified(cat, x, y, side)
                    assert rep.projection_open, (name, x, y, side)
                    assert all(rep.fibers_locally_closed.values()), (name, x, y, side)
                    assert rep.order_matches_closure, (name, x, y, side)

    def test_quotient_identifies_exactly_the_equivalent(self):
        for name, cat in all_categories().items():
            for x, y in nonempty_hom_pairs(cat):
                for side in ("R", "L", "LR"):
                    pre = hom_preorder(cat, x, y, side)
                    _, pi = quotient_poset(pre)
                    for a in pre.carrier:
                        for b in pre.carrier:
                            same = pi[a] == pi[b]
                            assert same == (pre.leq(a, b) and pre.leq(b, a))


def loop_structure_checks(cat, x, y, side):
    """Open projection, locally closed fibers and closure order, by loops over
    the explicit opens, fibers and strata pairs of hom(x, y)."""
    space = FiniteTopology.from_preorder(hom_preorder(cat, x, y, side))
    strata, projection = quotient_poset(hom_preorder(cat, x, y, side))
    pss = PosetStratifiedSpace(space, strata, projection)
    strata_space = FiniteTopology.from_preorder(strata)
    projection_open = True
    for u in space.opens:
        image = 0
        for i, m in enumerate(space.carrier):
            if u & (1 << i):
                image |= 1 << strata.index(projection[m])
        if not strata_space.is_open(image):
            projection_open = False
    fibers = {c: pss.fiber_mask(c) for c in strata.carrier}
    fibers_locally_closed = {
        c: locally_closed_by_opens(space, m) for c, m in fibers.items()
    }
    order_matches_closure = True
    for a in strata.carrier:
        for b in strata.carrier:
            closure_holds = (fibers[a] & ~closure_by_opens(space, fibers[b])) == 0
            if strata.leq(a, b) != closure_holds:
                order_matches_closure = False
    return projection_open, fibers_locally_closed, order_matches_closure


def test_hom_stratified_matches_the_loops_on_every_shipped_hom_set():
    cases = 0
    for name, cat in all_categories().items():
        for x, y in nonempty_hom_pairs(cat):
            for side in ("R", "L", "LR"):
                _, rep = hom_stratified(cat, x, y, side)
                opened, fibers, order = loop_structure_checks(cat, x, y, side)
                assert rep.projection_open == opened, (name, x, y, side)
                # the CLI prints this dict, so its key order matters too
                assert str(rep.fibers_locally_closed) == str(fibers), (name, x, y, side)
                assert rep.order_matches_closure == order, (name, x, y, side)
                cases += 1
    assert cases == 48


class TestStFunctor:
    def test_all_anchors_and_sides(self):
        for name, cat in all_categories().items():
            for anchor in cat.objects:
                for side in ("R-covariant", "L-contravariant"):
                    squares = st_functor_check(cat, anchor, side)
                    assert all(squares.values()), (name, anchor, side, squares)

    def test_identity_morphism_square_is_trivial(self):
        cat = category_chain3()
        assert st_functor_check(cat, "A", "R-covariant")["idB"] is True

    def test_arrow_category_one_point_spaces(self):
        cat = category_arrow()
        assert all(st_functor_check(cat, "A", "R-covariant").values())
        # hom(A, A) and hom(A, B) are both single points
        assert len(hom_preorder(cat, "A", "A", "R").carrier) == 1
        assert len(hom_preorder(cat, "A", "B", "R").carrier) == 1

    def test_bad_side_rejected(self):
        with pytest.raises(InputError):
            st_functor_check(category_c2(), "*", "R")


class TestSquaresThroughTheQuotients:
    """A map of preorders is monotone iff it descends to the quotient posets
    and the induced map is monotone, so each square is one monotone test."""

    @pytest.mark.parametrize("side", ["R-covariant", "L-contravariant"])
    def test_every_square_matches_the_quotient_path(self, side):
        cats = [*all_categories().values(), *map(monoid, MONOIDS.values())]
        squares = 0
        for cat in cats:
            for anchor in cat.objects:
                got = st_functor_check(cat, anchor, side)
                ref = squares_through_quotients(cat, anchor, side)
                assert list(got) == list(cat.morphisms)
                assert got == {f: all(fields) for f, fields in ref.items()}
                squares += len(ref)
        assert squares == 365

    @pytest.mark.parametrize("side", ["R", "L"])
    def test_altered_translations_fail_both_ways_alike(self, side):
        # every square of a category holds, so alter one value of each
        # translation of T3 to get maps of either verdict
        cat = monoid(all_maps(3))
        pre = hom_preorder(cat, "*", "*", side)
        rng = random.Random(f"altered/{side}")
        verdicts = []
        for f in cat.morphisms:
            phi = {g: cat.compose(f, g) if side == "R" else cat.compose(g, f)
                   for g in pre.carrier}
            phi[rng.choice(pre.carrier)] = rng.choice(pre.carrier)
            monotone, descends, induced = square_through_quotients(phi, pre, pre)
            assert is_monotone(phi, pre, pre) == monotone == (descends and induced)
            verdicts.append(monotone)
        assert True in verdicts and False in verdicts


# Green's orders on T2, T3 and T2^3: the point blocks each monoid acts on fully
GREEN = {"T2": [[0, 1]], "T3": [[0, 1, 2]], "T2^3": [[0, 1], [2, 3], [4, 5]]}


class TestGreensRelations:
    """The hom-set preorders and strata of full transformation monoids
    against images, kernels and ranks, with no composite read."""

    @pytest.mark.parametrize("side, strata", [
        ("R", {"T2": 3, "T3": 7, "T2^3": 27}),
        ("L", {"T2": 2, "T3": 5, "T2^3": 8}),
        ("LR", {"T2": 2, "T3": 3, "T2^3": 8})])
    @pytest.mark.parametrize("name", GREEN)
    def test_rows_and_strata(self, name, side, strata):
        maps, blocks = MONOIDS[name], GREEN[name]
        leq = {(g, f): green_leq(g, f, side, blocks) for g in maps for f in maps}
        label = {m: "t" + "".join(map(str, m)) for m in maps}
        pre = hom_preorder(monoid(maps), "*", "*", side)
        assert list(pre.carrier) == [label[m] for m in maps]
        poset, projection = quotient_poset(pre)
        assert len(poset.carrier) == strata[name]
        for (g, f), below in leq.items():
            a, b = label[g], label[f]
            assert pre.leq(a, b) == below
            assert (projection[a] == projection[b]) == (below and leq[(f, g)])
            assert poset.leq(projection[a], projection[b]) == below


class TestSetFunctor:
    def test_composition_violation_rejected(self):
        cat = category_c2()
        with pytest.raises(StructureError, match="composition"):
            SetFunctor(cat, "contravariant",
                       {"*": ["0", "1"]},
                       {"1": {"0": "0", "1": "1"},
                        "g": {"0": "0", "1": "0"}})  # g.g = 1 but F(g).F(g) != id

    def test_identity_violation_rejected(self):
        cat = category_c2()
        with pytest.raises(StructureError, match="identity"):
            SetFunctor(cat, "contravariant",
                       {"*": ["0", "1"]},
                       {"1": {"0": "1", "1": "0"},
                        "g": {"0": "1", "1": "0"}})

    @pytest.mark.parametrize("on_objects, on_morphisms, path", [
        ({"*": ["0"], "ghost": ["0"]}, {"1": {"0": "0"}, "g": {"0": "0"}},
         "on_objects.ghost"),
        ({"*": ["0"]}, {"1": {"0": "0"}, "g": {"0": "0"}, "nope": {"0": "0"}},
         "on_morphisms.nope"),
    ], ids=["object", "morphism"])
    def test_unknown_key_rejected_at_its_path(self, on_objects, on_morphisms, path):
        with pytest.raises(InputError, match="unknown") as err:
            SetFunctor(category_c2(), "contravariant", on_objects, on_morphisms)
        assert err.value.path == path

    def test_partial_value_map_rejected(self):
        cat = category_c2()
        with pytest.raises(StructureError, match="total"):
            SetFunctor(cat, "contravariant",
                       {"*": ["0", "1"]},
                       {"1": {"0": "0", "1": "1"}, "g": {"0": "0"}})

    @pytest.mark.parametrize("seed", range(4))
    def test_first_composition_failure_is_the_one_the_pair_loop_finds(self, seed):
        """Redirect one to three values of non-identity value maps within
        their target sets, covariant and contravariant, and compare the
        refusal with the loop over composable pairs."""
        rng = random.Random(seed)
        cases = [case for cat in all_categories().values() for case in hom_functors(cat)]
        for maps in seeded_monoids(count=3, seed=seed):
            pre = preimage_functor(maps)
            points = [str(i) for i in range(len(maps[0]))]
            cases.append((pre.cat, "contravariant", pre.on_objects, pre.on_morphisms))
            cases.append((pre.cat, "covariant", {"*": points},
                          {name: dict(zip(points, map(str, m)))
                           for m, name in zip(maps, pre.cat.morphisms)}))
        refused = {"covariant": 0, "contravariant": 0}
        for cat, variance, on_objects, on_morphisms in cases:
            identities = set(cat.identity.values())
            moving = [m for m in cat.morphisms if m not in identities and on_morphisms[m]]
            for _ in range(10 if moving else 0):
                maps = {m: dict(fn) for m, fn in on_morphisms.items()}
                for _ in range(rng.randint(1, 3)):
                    m = rng.choice(moving)
                    target = cat.cod[m] if variance == "covariant" else cat.dom[m]
                    maps[m][rng.choice(list(maps[m]))] = rng.choice(on_objects[target])
                try:
                    SetFunctor(cat, variance, on_objects, maps)
                    found = None
                except StructureError as exc:
                    found = (str(exc), exc.path)
                assert found == functor_composition_by_pairs(cat, variance, maps)
                refused[variance] += found is not None
        assert all(refused.values())


def hom_functors(cat):
    """hom(a, -) and hom(-, a) for each object a, as (category, variance,
    value sets, value maps)."""
    for a in cat.objects:
        yield (cat, "covariant", {x: list(cat.hom(a, x)) for x in cat.objects},
               {m: {h: cat.compose(m, h) for h in cat.hom(a, cat.dom[m])}
                for m in cat.morphisms})
        yield (cat, "contravariant", {x: list(cat.hom(x, a)) for x in cat.objects},
               {m: {h: cat.compose(h, m) for h in cat.hom(cat.cod[m], a)}
                for m in cat.morphisms})


def candidate_count(cat, fun, anchor):
    """The candidate families hom(-, anchor) -> F that the enumeration tries."""
    return math.prod(len(fun.on_objects[x]) ** len(cat.hom(x, anchor)) for x in cat.objects)


def frozen(transformations):
    """A list of transformations as a sorted list of hashable values."""
    return sorted(tuple((x, tuple(sorted(c.items()))) for x, c in sorted(t.items()))
                  for t in transformations)


class TestYoneda:
    def test_counts_match_target_sizes_on_all_instances(self):
        seen = 0
        for name, cat, fun, anchor in yoneda_instances():
            transformations, rep = yoneda_natural_transformations(cat, fun, anchor)
            assert rep.transformation_count == rep.target_size, name
            assert yoneda_bijection_holds(cat, fun, anchor, transformations), name
            assert yoneda_inverse_holds(cat, fun, anchor, transformations), name
            seen += 1
        assert seen >= 5

    def test_empty_target_with_nonempty_endos(self):
        cat = category_arrow()
        fun = SetFunctor(cat, "contravariant",
                         {"A": [], "B": []}, {"idA": {}, "idB": {}, "u": {}})
        assert cat.hom("A", "A")
        transformations, rep = yoneda_natural_transformations(cat, fun, "A")
        assert transformations == [] and rep.transformation_count == rep.target_size == 0
        assert yoneda_bijection_holds(cat, fun, "A", transformations)

    def test_idempotent_example_has_exactly_two(self):
        cat = category_idempotent_monoid()
        fun = SetFunctor(cat, "contravariant",
                         {"*": ["0", "1"]},
                         {"1": {"0": "0", "1": "1"}, "e": {"0": "0", "1": "0"}})
        transformations, rep = yoneda_natural_transformations(cat, fun, "*")
        assert rep.transformation_count == 2
        # each transformation is pinned by its value at the identity
        assert sorted(t["*"]["1"] for t in transformations) == ["0", "1"]

    def test_self_representable_matches_hom_size(self):
        for cat, anchor in ((category_c2(), "*"), (category_chain3(), "C")):
            fun = representable_functor(cat, anchor)
            _, rep = yoneda_natural_transformations(cat, fun, anchor)
            assert rep.transformation_count == len(cat.hom(anchor, anchor))

    @pytest.mark.parametrize("maps, count", [(all_maps(3), 27), (cube_of_all_maps2(), 64)],
                             ids=["T3", "T2^3"])
    def test_full_transformation_monoids_at_the_cap(self, maps, count):
        cat = monoid(maps)
        fun = representable_functor(cat, "*")
        transformations, rep = yoneda_natural_transformations(cat, fun, "*")
        assert rep.transformation_count == len(transformations) == count
        assert yoneda_bijection_holds(cat, fun, "*", transformations)

    def test_star_into_the_anchor_branches_at_the_identity(self):
        """Hom order lists the 31 spokes before the anchor's identity; one
        pass over F(a) tries 2 of the 2^32 candidate families."""
        cat = category_star(31)
        fun = constant_functor(cat, ["0", "1"])
        assert len(cat.morphisms) == 63
        assert candidate_count(cat, fun, "a") == 2 ** 32
        transformations, rep = yoneda_natural_transformations(cat, fun, "a")
        assert rep.transformation_count == rep.target_size == 2
        assert sorted(t["s30"]["u30"] for t in transformations) == ["0", "1"]

    @pytest.mark.parametrize("morphism, table, count", [
        ("1", {"0": "0", "1": "0"}, 1),
        ("1", {"0": "1", "1": "0"}, 0),
        ("e", {"0": "1", "1": "0"}, 0),
    ], ids=["F1-constant", "F1-swap", "Fe-swap"])
    def test_broken_functor_agrees_with_the_enumeration(self, morphism, table, count):
        """A value table replaced after construction breaks a functor law.
        The |F(a)| families read off the value maps are then not all natural,
        and the equation pass of ``reference`` keeps exactly the
        transformations the enumeration finds.  With F(1) constant at 0, both
        families read 0 everywhere: natural, but the one of u = 1 does not
        take 1 at the identity, so the evaluation there is no bijection."""
        cat = category_idempotent_monoid()
        fun = SetFunctor(cat, "contravariant", {"*": ["0", "1"]},
                         {"1": {"0": "0", "1": "1"}, "e": {"0": "0", "1": "0"}})
        fun.on_morphisms[morphism] = table
        families, rep = yoneda_natural_transformations(cat, fun, "*")
        assert len(families) == rep.transformation_count == rep.target_size == 2
        kept = natural_by_equations(cat, fun, "*", families)
        expected, _ = yoneda_by_enumeration(cat, fun, "*")
        assert kept == expected and len(kept) == count
        assert len(kept) < len(families)
        assert not yoneda_bijection_holds(cat, fun, "*", kept)

    def test_every_family_is_natural_by_equations(self):
        """On a functor the equation pass keeps all |F(a)| families, in order,
        up to T2^3's 64 families of 4096 equations each."""
        cases = list(yoneda_instances())
        cube = monoid(cube_of_all_maps2())
        cases.append(("T2^3 self", cube, representable_functor(cube, "*"), "*"))
        for name, cat, fun, anchor in cases:
            families, _ = yoneda_natural_transformations(cat, fun, anchor)
            assert natural_by_equations(cat, fun, anchor, families) == families, name

    def test_equation_pass_drops_an_altered_family(self):
        """One value off the identity breaks naturality, and one family
        listed for the wrong u breaks the value at the identity."""
        cat = category_idempotent_monoid()
        fun = SetFunctor(cat, "contravariant", {"*": ["0", "1"]},
                         {"1": {"0": "0", "1": "1"}, "e": {"0": "0", "1": "0"}})
        first, second = yoneda_natural_transformations(cat, fun, "*")[0]
        altered = {"*": {**second["*"], "e": "1"}}
        assert natural_by_equations(cat, fun, "*", [first, altered]) == [first]
        assert natural_by_equations(cat, fun, "*", [second, first]) == []

    def test_agrees_with_the_enumeration_below_its_old_cap(self):
        """The catalog instances, every representable hom(-, b) at every
        anchor, the constant two-point functor at every anchor and the
        preimage functor of T2, each within the 200000 candidate families
        the enumeration used to be capped at."""
        cases = list(yoneda_instances())
        for name, cat in all_categories().items():
            for anchor in cat.objects:
                cases += [(f"{name} hom(-, {b}) at {anchor}", cat,
                           representable_functor(cat, b), anchor) for b in cat.objects]
                cases.append((f"{name} constant at {anchor}", cat,
                              constant_functor(cat, ["0", "1"]), anchor))
        cases.append(("T2 preimage", monoid(all_maps(2)), preimage_functor(all_maps(2)), "*"))
        assert len(cases) >= 30
        for name, cat, fun, anchor in cases:
            assert candidate_count(cat, fun, anchor) <= 200000, name
            transformations, rep = yoneda_natural_transformations(cat, fun, anchor)
            expected, expected_rep = yoneda_by_enumeration(cat, fun, anchor)
            assert frozen(transformations) == frozen(expected), name
            assert rep == expected_rep, name

    def test_bijection_and_inverse_fail_on_altered_families(self):
        """The two Yoneda verdicts of ``reference`` are false on families
        altered by hand: one family dropped or listed twice breaks the
        bijection, and one value off the identity breaks only the inverse."""
        cat = category_idempotent_monoid()
        fun = SetFunctor(cat, "contravariant", {"*": ["0", "1"]},
                         {"1": {"0": "0", "1": "1"}, "e": {"0": "0", "1": "0"}})
        transformations, _ = yoneda_natural_transformations(cat, fun, "*")
        first, second = transformations
        assert not yoneda_bijection_holds(cat, fun, "*", [first])
        assert not yoneda_bijection_holds(cat, fun, "*", [first, first, second])
        altered = {"*": {**second["*"], "e": "1"}}
        assert yoneda_bijection_holds(cat, fun, "*", [first, altered])
        assert not yoneda_inverse_holds(cat, fun, "*", [first, altered])

    def test_covariant_functor_rejected(self):
        cat = category_c2()
        fun = SetFunctor(cat, "covariant",
                         {"*": ["0", "1"]},
                         {"1": {"0": "0", "1": "1"}, "g": {"0": "1", "1": "0"}})
        with pytest.raises(InputError):
            yoneda_natural_transformations(cat, fun, "*")


class TestYonedaImage:
    def test_identity_has_full_image(self):
        for name, cat, fun, anchor in yoneda_instances():
            images = yoneda_image_report(cat, fun, anchor)[anchor]
            ident = cat.identity[anchor]
            assert images[ident] == frozenset(fun.on_objects[anchor]), name

    def test_images_are_the_values_of_the_families(self):
        for name, cat, fun, anchor in yoneda_instances():
            families, _ = yoneda_natural_transformations(cat, fun, anchor)
            assert yoneda_image_report(cat, fun, anchor) == {
                x: {f: frozenset(tau[x][f] for tau in families) for f in cat.hom(x, anchor)}
                for x in cat.objects}, name

    def test_variance_is_refused_before_the_anchor(self):
        cat = category_c2()
        tables = ({"*": ["0", "1"]}, {"1": {"0": "0", "1": "1"}, "g": {"0": "1", "1": "0"}})
        with pytest.raises(InputError, match="contravariant functor"):
            yoneda_image_report(cat, SetFunctor(cat, "covariant", *tables), "X")
        with pytest.raises(InputError, match="unknown object 'X'"):
            yoneda_image_report(cat, SetFunctor(cat, "contravariant", *tables), "X")

    def test_idempotent_image_is_the_retract(self):
        cat = category_idempotent_monoid()
        fun = SetFunctor(cat, "contravariant",
                         {"*": ["0", "1"]},
                         {"1": {"0": "0", "1": "1"}, "e": {"0": "0", "1": "0"}})
        images = yoneda_image_report(cat, fun, "*")["*"]
        assert images["e"] == frozenset({"0"})
        assert images["1"] == frozenset({"0", "1"})

    def test_reports_hold_on_all_instances(self):
        for name, cat, fun, anchor in yoneda_instances():
            images = yoneda_image_report(cat, fun, anchor)
            assert list(images) == list(cat.objects), name
            assert images_natural(cat, fun, anchor, images), name
            assert images_reverse_left_order(cat, anchor, images), name

    def test_image_verdicts_fail_on_altered_images(self):
        """Grown to all of F(*), the image of e still reverses the left order
        but is no longer natural; with the images of 1 and e swapped, the
        left order is not reversed."""
        cat = category_idempotent_monoid()
        fun = SetFunctor(cat, "contravariant", {"*": ["0", "1"]},
                         {"1": {"0": "0", "1": "1"}, "e": {"0": "0", "1": "0"}})
        images = yoneda_image_report(cat, fun, "*")
        grown = {"*": {**images["*"], "e": frozenset({"0", "1"})}}
        assert images_reverse_left_order(cat, "*", grown)
        assert not images_natural(cat, fun, "*", grown)
        swapped = {"*": {"1": images["*"]["e"], "e": images["*"]["1"]}}
        assert not images_reverse_left_order(cat, "*", swapped)

    def test_inclusion_direction_explicitly(self):
        # 1 <=_L e, so the image of e must sit inside the image of 1
        cat = category_idempotent_monoid()
        fun = SetFunctor(cat, "contravariant",
                         {"*": ["0", "1"]},
                         {"1": {"0": "0", "1": "1"}, "e": {"0": "0", "1": "0"}})
        pre = hom_preorder(cat, "*", "*", "L")
        images = yoneda_image_report(cat, fun, "*")["*"]
        assert pre.leq("1", "e")
        assert images["e"] < images["1"]
