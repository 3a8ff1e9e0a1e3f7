import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stratikit.errors import CapExceeded, InputError, StructureError
from stratikit.order import MAX_CARRIER, Preorder, bit_indices, product_label, quotient_poset
from stratikit.randomcases import random_preorder
from stratikit.topology import (MAX_OPENS, FiniteTopology, PosetStratifiedSpace,
                                _canonical_order, product_topology, rows_of_opens)

from reference import (closure_by_opens, closure_extensive_and_idempotent,
                       locally_closed_by_opens, random_topology)


def random_assignment(rng, source_labels, target_labels):
    return {x: rng.choice(target_labels) for x in source_labels}


def antichain(labels):
    return Preorder.from_pairs(labels, [])


def antichain_under_a_top(n):
    """n incomparable points below one top: 2^n + 1 up-sets."""
    labels = [f"x{i}" for i in range(n)]
    return Preorder.from_pairs(labels + ["top"], [(x, "top") for x in labels])


def brute_upset_masks(p):
    """Independent 2^n oracle for the open family of the Alexandroff topology."""
    n = len(p.carrier)
    out = []
    for bits in range(1 << n):
        ok = True
        for i in range(n):
            if (bits >> i) & 1:
                for j in range(n):
                    if (p.up[i] >> j) & 1 and not (bits >> j) & 1:
                        ok = False
        if ok:
            out.append(bits)
    return sorted(out)


def index_tuple_key(mask):
    """The canonical order by its definition: cardinality, then the ascending
    index tuple."""
    idx = bit_indices(mask)
    return (len(idx), tuple(idx))


def pair_escapes(carrier, family, pairs):
    """The text of each of the pairs of opens whose union or intersection is
    not in the family, a pair's union escape first."""
    def names(mask):
        return tuple(carrier[i] for i in bit_indices(mask))

    for a, b in pairs:
        if a | b not in family:
            yield f"union escape: {names(a)} | {names(b)} not open"
        if a & b not in family:
            yield f"intersection escape: {names(a)} & {names(b)} not open"


def pairwise_verdict(carrier, masks):
    """The topology axioms by their definition: the text of the first failure,
    testing every pair of opens in canonical order, or None."""
    family = set(masks)
    if 0 not in family:
        return "empty set missing from the open family"
    if (1 << len(carrier)) - 1 not in family:
        return "carrier missing from the open family"
    pairs = itertools.combinations(sorted(family, key=index_tuple_key), 2)
    return next(pair_escapes(carrier, family, pairs), None)


def late_escape_family(n):
    """Every subset of x0..x(n-2), the carrier X, X minus x0 and X minus x1.
    Its one escaping pair, X minus x1 and X minus x0, whose intersection is not
    open, is the third pair from the last of a pairwise scan in canonical
    order."""
    carrier = [f"x{i}" for i in range(n)]
    full = (1 << n) - 1
    return carrier, list(range(1 << n - 1)) + [full, full & ~1, full & ~2]


def random_family(rng, n):
    """A random topology on n points, or one spoilt by dropping or adding a set."""
    masks = {0, (1 << n) - 1} | {rng.getrandbits(n) for _ in range(rng.randint(0, 3))}
    while True:
        grown = masks | {a | b for a in masks for b in masks} | {a & b for a in masks
                                                                  for b in masks}
        if grown == masks:
            break
        masks = grown
    spoil = rng.random()
    if spoil < 0.3:
        masks.discard(rng.choice(sorted(masks)))
    elif spoil < 0.6:
        masks.add(rng.getrandbits(n))
    return sorted(masks)


def brute_closure(t, mask):
    """Intersection of every closed superset."""
    out = t.full_mask
    for o in t.opens:
        closed = t.full_mask & ~o
        if mask & ~closed == 0:
            out &= closed
    return out


def interior_mask(t, mask):
    """Union of every open inside the subset."""
    inside = 0
    for o in t.opens:
        if o & ~mask == 0:
            inside |= o
    return inside


def brute_locally_closed(t, mask):
    """Exhaust all open-closed candidate pairs."""
    closeds = [t.full_mask & ~o for o in t.opens]
    return any((u & f) == mask for u in t.opens for f in closeds)


class TestValidate:
    def test_indiscrete_two_points(self):
        t = FiniteTopology.from_open_sets(["p", "q"], [[], ["p", "q"]])
        assert t.opens_as_labels() == [[], ["p", "q"]]

    def test_three_point_line_family(self):
        t = FiniteTopology.from_open_sets(
            ["N", "O", "P"], [[], ["N"], ["P"], ["N", "P"], ["N", "O", "P"]])
        assert len(t.opens) == 5

    def test_missing_carrier_rejected(self):
        with pytest.raises(StructureError, match="carrier"):
            FiniteTopology.from_open_sets(["a", "b"], [[], ["a"], ["b"]])

    def test_missing_empty_set_rejected(self):
        with pytest.raises(StructureError, match="empty"):
            FiniteTopology.from_open_sets(["a"], [["a"]])

    def test_union_escape_reports_pair(self):
        with pytest.raises(StructureError, match=r"^union escape: \('a',\) \| \('b',\) not open$"):
            FiniteTopology.from_open_sets(["a", "b", "c"],
                                          [[], ["a"], ["b"], ["a", "b", "c"]])

    def test_duplicate_open_rejected(self):
        with pytest.raises(StructureError, match="duplicate"):
            FiniteTopology.from_open_sets(["a"], [[], ["a"], ["a"]])

    def test_unknown_member_rejected(self):
        with pytest.raises(InputError):
            FiniteTopology.from_open_sets(["a"], [[], ["z"], ["a"]])

    def test_carrier_cap(self):
        labels = [f"p{i}" for i in range(MAX_CARRIER + 1)]
        with pytest.raises(CapExceeded, match=f"^carrier has {MAX_CARRIER + 1} elements, "
                                              f"cap is {MAX_CARRIER}$") as info:
            FiniteTopology(labels, [0, (1 << len(labels)) - 1])
        assert info.value.path == "carrier"
        # below it a family is accepted at any carrier size
        t = FiniteTopology(labels[:64], [0, (1 << 64) - 1])
        assert t.opens == (0, (1 << 64) - 1)

    def test_open_family_cap(self):
        labels = [f"p{i}" for i in range(17)]
        top = (1 << 17) - 1
        at_cap = list(range(1 << 16))  # the 16-point discrete family
        with pytest.raises(CapExceeded, match=f"^open family has {MAX_OPENS + 1} sets, "
                                              f"cap is {MAX_OPENS}$") as info:
            FiniteTopology(labels, at_cap + [top])
        assert info.value.path == "opens"
        t = FiniteTopology(labels[:16], at_cap)
        assert len(t.opens) == MAX_OPENS
        assert t.specialization_preorder() == antichain(labels[:16])

    def test_mask_with_bits_outside_the_carrier_rejected(self):
        with pytest.raises(InputError, match="^open set 2 is not a bitset over 2 elements$"):
            FiniteTopology(["a", "b"], [0, 3, 4])

    def test_negative_mask_rejected(self):
        with pytest.raises(InputError, match="^open set 3 is not a bitset over 2 elements$"):
            FiniteTopology(["a", "b"], [0, 1, 3, -1])

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 7, 9])
    def test_axioms_agree_with_the_pairwise_definition(self, n):
        rng = random.Random(1000 + n)
        carrier = [f"p{i}" for i in range(n)]
        verdicts = set()
        for _ in range(150):
            masks = random_family(rng, n)
            expected = pairwise_verdict(carrier, masks)
            verdicts.add(expected is None)
            if expected is None:
                t = FiniteTopology(carrier, masks)
                assert t.opens == tuple(sorted(masks, key=index_tuple_key))
            else:
                with pytest.raises(StructureError) as info:
                    FiniteTopology(carrier, masks)
                if expected.endswith(" not open"):  # any escaping pair may be named
                    pairs = itertools.permutations(masks, 2)
                    assert str(info.value) in set(pair_escapes(carrier, set(masks), pairs))
                else:
                    assert str(info.value) == expected
        assert verdicts == {True, False}

    def test_late_escape_is_named_by_the_intersection_pass(self):
        carrier, masks = late_escape_family(10)
        rest = ", ".join(repr(x) for x in carrier[2:])
        assert pairwise_verdict(carrier, masks) == (
            f"intersection escape: ('x0', {rest}) & ('x1', {rest}) not open")
        with pytest.raises(StructureError) as info:
            FiniteTopology(carrier, masks)
        assert str(info.value) == pairwise_verdict(carrier, masks)

    def test_escape_named_when_every_minimal_open_is_present(self):
        # {a}, {b} and {c} are all there but {a, b} is not: every row is open,
        # so only the pass over the unions of the rows refuses this family
        carrier = ["a", "b", "c"]
        masks = [0, 0b001, 0b010, 0b100, 0b110, 0b101, 0b111]
        with pytest.raises(StructureError, match=r"^union escape: \('a',\) \| \('b',\) not open$"):
            FiniteTopology(carrier, masks)


class TestCanonicalOrder:
    @pytest.mark.parametrize("n", [0, 1, 7, 8, 9, 16, 17, 20, 4096])
    def test_order_is_by_size_then_index_tuple(self, n):
        rng = random.Random(n)
        masks = {0, (1 << n) - 1} | {rng.getrandbits(n) for _ in range(200)}
        for size in range(0, n + 1, max(1, n // 64)):  # many ties in size
            masks |= {sum(1 << i for i in rng.sample(range(n), size)) for _ in range(20)}
        assert _canonical_order(masks) == sorted(masks, key=index_tuple_key)

    @pytest.mark.parametrize("n", [0, 1, 7, 8, 9, 16, 17, 20])
    def test_labels_match_the_set_bits(self, n):
        rng = random.Random(100 + n)
        carrier = [f"p{i}" for i in range(n)]
        masks = {0, (1 << n) - 1} | {rng.getrandbits(n) for _ in range(200)}
        t = FiniteTopology.from_preorder(antichain(carrier))  # enumerates nothing
        for m in masks:
            assert t.labels(m) == tuple(carrier[i] for i in bit_indices(m))
        chain = FiniteTopology.from_preorder(
            Preorder.from_pairs(carrier, zip(carrier, carrier[1:])))
        assert chain.opens_as_labels() == [[carrier[i] for i in bit_indices(m)]
                                           for m in chain.opens]


class TestAlexandroff:
    def test_three_point_line(self, ex1_poset):
        t = FiniteTopology.from_preorder(ex1_poset)
        assert t.opens_as_labels() == [
            [], ["N"], ["P"], ["N", "P"], ["N", "O", "P"]]

    def test_four_point_circle(self, pseudo_poset):
        t = FiniteTopology.from_preorder(pseudo_poset)
        assert t.opens_as_labels() == [
            [], ["c"], ["d"], ["c", "d"],
            ["a", "c", "d"], ["b", "c", "d"], ["a", "b", "c", "d"]]

    def test_discrete_topology_from_identity_preorder(self):
        p = Preorder.from_pairs(["a", "b", "c", "d"], [])
        t = FiniteTopology.from_preorder(p)
        assert len(t.opens) == 2 ** 4

    def test_matches_bruteforce_upsets(self):
        rng = random.Random(5)
        for _ in range(25):
            p = random_preorder(rng, max_size=6)
            t = FiniteTopology.from_preorder(p)
            assert sorted(t.opens) == brute_upset_masks(p)

    def test_open_cap(self):
        at_cap = FiniteTopology.from_preorder(antichain([f"x{i}" for i in range(16)]))
        assert len(at_cap.opens) == MAX_OPENS
        over = FiniteTopology.from_preorder(antichain_under_a_top(16))
        assert over.closure(["top"]) == over.carrier  # the rows need no opens
        readers = [lambda t: t.opens, lambda t: t.is_open(0), lambda t: t.is_closed(0),
                   lambda t: t == t, FiniteTopology.opens_as_labels, rows_of_opens]
        for read in readers:
            with pytest.raises(CapExceeded, match=f"^refusing to enumerate more than "
                                                  f"{MAX_OPENS} open sets$"):
                read(over)

    def test_repr_enumerates_nothing(self):
        labels = [f"x{i}" for i in range(64)]
        t = FiniteTopology.from_preorder(antichain(labels))
        assert repr(t) == f"FiniteTopology({labels!r})"
        with pytest.raises(CapExceeded):  # had repr enumerated, it would have raised
            t.opens


def minimal_open_by_opens(t, i):
    """U_x by its definition: the AND of every open containing x."""
    m = t.full_mask
    for o in t.opens:
        if o >> i & 1:
            m &= o
    return m


class TestSpecialization:
    def test_four_point_circle(self, pseudo_poset):
        t = FiniteTopology.from_preorder(pseudo_poset)
        back = t.specialization_preorder()
        assert sorted(back.pairs()) == [
            ("a", "c"), ("a", "d"), ("b", "c"), ("b", "d")]

    def test_indiscrete_gives_complete_preorder(self):
        t = FiniteTopology.from_open_sets(["p", "q"], [[], ["p", "q"]])
        p = t.specialization_preorder()
        assert p.leq("p", "q") and p.leq("q", "p")

    def test_discrete_gives_identity(self):
        p0 = Preorder.from_pairs(["a", "b"], [])
        t = FiniteTopology.from_preorder(p0)
        assert t.specialization_preorder().pairs() == []

    @pytest.mark.parametrize("build", ["from_preorder", "checked_opens"])
    def test_rows_are_derived_once(self, pseudo_poset, build):
        if build == "from_preorder":
            t = FiniteTopology.from_preorder(pseudo_poset)
        else:
            opens = FiniteTopology.from_preorder(pseudo_poset).opens
            t = FiniteTopology(pseudo_poset.carrier, opens)
        p = t.specialization_preorder()
        assert p == pseudo_poset
        assert t.specialization_preorder() is p

    @pytest.mark.parametrize("seed", range(12))
    def test_rows_by_scan_match_the_minimal_opens(self, seed):
        rng = random.Random(seed)
        small = [random_preorder(rng, max_size=3) for _ in range(2)]
        spaces = [
            FiniteTopology.from_preorder(random_preorder(rng, max_size=9)),
            FiniteTopology.from_preorder(antichain([])),
            product_topology(FiniteTopology.from_preorder(p) for p in small),
            random_topology(rng, max_size=6),  # opens given
        ]
        for t in spaces:
            minimal = [minimal_open_by_opens(t, i) for i in range(len(t.carrier))]
            assert rows_of_opens(t) == minimal
            assert list(t.specialization_preorder().up) == minimal

    def test_rows_of_opens_ignores_the_stored_rows(self, pseudo_poset):
        t = FiniteTopology.from_preorder(pseudo_poset)
        t.opens  # enumerated while the stored rows are still there
        t._specialization = None  # any later read of the stored rows fails
        assert rows_of_opens(t) == list(pseudo_poset.up)


class TestRoundTrips:
    def test_preorder_roundtrip(self):
        rng = random.Random(101)
        for _ in range(100):
            p = random_preorder(rng, max_size=7)
            assert rows_of_opens(FiniteTopology.from_preorder(p)) == list(p.up)

    def test_topology_roundtrip(self):
        rng = random.Random(202)
        for _ in range(100):
            t = random_topology(rng, max_size=5)
            again = FiniteTopology.from_preorder(Preorder(t.carrier, rows_of_opens(t)))
            assert again == t


class TestClosure:
    def test_singleton_in_circle_model(self, pseudo_poset):
        t = FiniteTopology.from_preorder(pseudo_poset)
        assert set(t.closure(["c"])) == {"a", "b", "c"}
        assert t.closure_mask(t.mask(["c"])) == brute_closure(t, t.mask(["c"]))

    def test_empty_set(self, pseudo_poset):
        t = FiniteTopology.from_preorder(pseudo_poset)
        assert t.closure([]) == ()

    def test_chain_closure_is_down_set(self, chain3):
        t = FiniteTopology.from_preorder(chain3)
        assert set(t.closure(["1"])) == {"0", "1"}

    def test_outside_carrier_rejected(self, chain3):
        t = FiniteTopology.from_preorder(chain3)
        with pytest.raises(InputError):
            t.closure(["z"])

    def test_rows_match_both_definitions_over_the_opens(self):
        rng = random.Random(8)
        for i in range(60):
            if i % 2:
                t = random_topology(rng, max_size=6)
            else:
                t = FiniteTopology.from_preorder(random_preorder(rng, max_size=6))
            mask = rng.randrange(t.full_mask + 1)
            assert t.closure_mask(mask) == brute_closure(t, mask) == closure_by_opens(t, mask)

    def test_interior_is_largest_open_inside(self, pseudo_poset):
        t = FiniteTopology.from_preorder(pseudo_poset)
        already_open = t.mask(["a", "c", "d"])
        assert interior_mask(t, already_open) == already_open
        assert interior_mask(t, t.mask(["a", "b"])) == 0


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_kuratowski_axioms(seed):
    rng = random.Random(seed)
    t = random_topology(rng, max_size=5)
    full = t.full_mask
    a = rng.randrange(full + 1)
    b = rng.randrange(full + 1)
    ca = t.closure_mask(a)
    assert a & ~ca == 0                       # extensive
    assert t.closure_mask(ca) == ca           # idempotent
    if a & ~b == 0:
        assert ca & ~t.closure_mask(b) == 0   # monotone
    assert t.closure_mask(a | b) == ca | t.closure_mask(b)  # additive
    assert t.closure_mask(0) == 0


def test_closure_verdict_fails_on_a_wrong_closure():
    """``reference.closure_extensive_and_idempotent`` holds on the closure of
    {a} in the Sierpinski space and fails on a set that misses a or is not
    closed."""
    t = FiniteTopology.from_open_sets(["a", "b"], [[], ["a"], ["a", "b"]])
    assert t.closure(["a"]) == ("a", "b")
    assert closure_extensive_and_idempotent(t, ["a"], ["a", "b"])
    assert not closure_extensive_and_idempotent(t, ["a"], ["b"])
    assert not closure_extensive_and_idempotent(t, ["a"], ["a"])


class TestLocallyClosed:
    def test_singletons_in_poset_topologies(self, ex1_poset, pseudo_poset, chain3):
        for poset in (ex1_poset, pseudo_poset, chain3):
            t = FiniteTopology.from_preorder(poset)
            for x in poset.carrier:
                assert locally_closed_by_opens(t, t.mask([x]))

    def test_indiscrete_point_is_not(self):
        t = FiniteTopology.from_open_sets(["p", "q"], [[], ["p", "q"]])
        assert not brute_locally_closed(t, t.mask(["p"]))
        assert not locally_closed_by_opens(t, t.mask(["p"]))

    def test_whole_carrier(self, pseudo_poset):
        t = FiniteTopology.from_preorder(pseudo_poset)
        assert locally_closed_by_opens(t, t.full_mask)

    def test_matches_bruteforce(self):
        rng = random.Random(77)
        for _ in range(40):
            t = random_topology(rng, max_size=5)
            mask = rng.randrange(t.full_mask + 1)
            assert locally_closed_by_opens(t, mask) == brute_locally_closed(t, mask)


class TestFunctoriality:
    def test_monotone_implies_continuous_and_back(self):
        rng = random.Random(42)
        for _ in range(60):
            p = random_preorder(rng, max_size=5)
            q = random_preorder(rng, max_size=5)
            f = random_assignment(rng, p.carrier, list(q.carrier))
            tp, tq = FiniteTopology.from_preorder(p), FiniteTopology.from_preorder(q)
            continuous = all(
                tp.is_open(tp.mask([x for x in p.carrier
                                    if f[x] in tq.labels(u)]))
                for u in tq.opens)
            from stratikit.order import is_monotone
            assert continuous == is_monotone(f, p, q)


def box_product(factors):
    """The product topology by its definition: every union of open boxes
    U_1 x ... x U_k, over the row-major product carrier."""
    sizes = [len(t.carrier) for t in factors]
    opens = {0}
    for combo in itertools.product(*(t.opens for t in factors)):
        box = 0
        for idx in itertools.product(*map(bit_indices, combo)):
            flat = 0
            for i, size in zip(idx, sizes):
                flat = flat * size + i
            box |= 1 << flat
        opens |= {o | box for o in opens}
    carrier = [product_label(t) for t in itertools.product(*(t.carrier for t in factors))]
    return FiniteTopology(carrier, opens)


class TestProductTopology:
    def test_matches_alexandroff_product(self, ex1_poset):
        t1 = FiniteTopology.from_preorder(ex1_poset)
        assert product_topology([t1, t1]) == box_product([t1, t1])

    def test_random_factors(self):
        rng = random.Random(9)
        for _ in range(20):
            p1 = random_preorder(rng, max_size=3)
            p2 = random_preorder(rng, max_size=4)
            factors = [FiniteTopology.from_preorder(p1), FiniteTopology.from_preorder(p2)]
            assert product_topology(factors) == box_product(factors)

    def test_random_explicit_factors(self):
        rng = random.Random(10)
        for _ in range(20):
            factors = [random_topology(rng, max_size=3) for _ in range(rng.randint(1, 3))]
            if math.prod(len(t.carrier) for t in factors) > 20:
                factors.pop()
            assert product_topology(factors) == box_product(factors)

    def test_cap(self):
        four = FiniteTopology.from_preorder(antichain([str(i) for i in range(4)]))
        assert len(product_topology([four, four]).opens) == MAX_OPENS
        point = FiniteTopology.from_preorder(antichain(["*"]))
        over = product_topology([FiniteTopology.from_preorder(antichain_under_a_top(16)), point])
        with pytest.raises(CapExceeded, match="^refusing to enumerate"):
            over.opens
        big = FiniteTopology.from_preorder(antichain([str(i) for i in range(65)]))
        with pytest.raises(CapExceeded, match=f"^carrier has 4225 elements, cap is {MAX_CARRIER}$"):
            product_topology([big, big])


class TestStratifiedSpace:
    def test_continuous_map_accepted(self, ex1_poset):
        t = FiniteTopology.from_preorder(ex1_poset)
        pss = PosetStratifiedSpace(t, ex1_poset, {x: x for x in t.carrier})
        assert pss.fiber_mask("N") == t.mask(["N"])

    def test_discontinuous_map_rejected(self, ex1_poset):
        t = FiniteTopology.from_open_sets(["p", "q"], [[], ["p", "q"]])
        two = Preorder.from_pairs(["0", "1"], [("0", "1")]).to_poset()
        with pytest.raises(StructureError, match="continuous"):
            PosetStratifiedSpace(t, two, {"p": "0", "q": "1"})

    def test_preorder_strata_rejected(self):
        t = FiniteTopology.from_open_sets(["p"], [[], ["p"]])
        pre = Preorder.from_pairs(["p", "q"], [("p", "q"), ("q", "p")])
        with pytest.raises(InputError):
            PosetStratifiedSpace(t, pre, {"p": "p"})


def continuous_by_strata_opens(space, strata, strat_map):
    """Continuity by its definition: the preimage of every open of the strata
    poset's up-set topology is open."""
    strata_space = FiniteTopology.from_preorder(strata)
    for u in strata_space.opens:
        pre = 0
        for i, x in enumerate(space.carrier):
            if u >> strata.index(strat_map[x]) & 1:
                pre |= 1 << i
        if not space.is_open(pre):
            return False
    return True


def test_stratified_space_accepts_exactly_the_continuous_maps():
    rng = random.Random(31)
    verdicts = []
    for i in range(400):
        if i % 3 == 2:
            space = random_topology(rng, max_size=6)
        else:
            space = FiniteTopology.from_preorder(random_preorder(rng, max_size=6))
        strata, _ = quotient_poset(random_preorder(rng, max_size=5))
        strat_map = random_assignment(rng, space.carrier, list(strata.carrier))
        expected = continuous_by_strata_opens(space, strata, strat_map)
        try:
            PosetStratifiedSpace(space, strata, strat_map)
        except StructureError as exc:
            assert not expected
            message = str(exc)
            prefix, suffix = ("stratification map not continuous: preimage of ",
                              " is not open")
            assert message.startswith(prefix) and message.endswith(suffix)
            # the named set is the up-set of some stratum, and its preimage
            # is not open
            upsets = {repr(tuple(strata.carrier[j] for j in bit_indices(row))): row
                      for row in strata.up}
            up = upsets[message[len(prefix):-len(suffix)]]
            pre = space.mask([x for x in space.carrier
                              if up >> strata.index(strat_map[x]) & 1])
            assert not space.is_open(pre)
        else:
            assert expected
        verdicts.append(expected)
    assert 50 < sum(verdicts) < 350
