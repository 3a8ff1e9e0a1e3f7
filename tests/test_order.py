import random
from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stratikit import order
from stratikit.errors import InputError, StructureError
from stratikit.order import (MAX_CARRIER, Poset, Preorder, bit_indices, bitmask,
                             is_monotone, is_order_isomorphism, labels_of, product,
                             product_label, quotient_poset, transpose)
from stratikit.randomcases import random_preorder

from reference import (antisymmetry_pair_by_up_and_down, class_rows_by_bits,
                       classes_by_up_and_down, monotone_by_leq, quotient_by_up_and_down,
                       transpose_by_bits)

# Generators of the 9-element grid order on pairs over {N, O, P}; the list
# includes redundant non-covering arrows out of the bottom, closure tidies them.
GRID_CARRIER = ["(N,N)", "(N,O)", "(N,P)", "(O,N)", "(O,O)", "(O,P)",
                "(P,N)", "(P,O)", "(P,P)"]
GRID_ARROWS = [
    ("(O,P)", "(N,P)"), ("(O,P)", "(P,P)"),
    ("(N,O)", "(N,P)"), ("(N,O)", "(N,N)"),
    ("(O,O)", "(N,P)"), ("(O,O)", "(P,P)"), ("(O,O)", "(N,N)"),
    ("(O,O)", "(P,N)"), ("(O,O)", "(O,P)"), ("(O,O)", "(O,N)"),
    ("(O,O)", "(N,O)"), ("(O,O)", "(P,O)"),
    ("(P,O)", "(P,P)"), ("(P,O)", "(P,N)"),
    ("(O,N)", "(N,N)"), ("(O,N)", "(P,N)"),
]


def is_surjective(pi, target):
    """True iff the map ``pi`` hits every element of ``target``."""
    return set(pi.values()) == set(target.carrier)


def grid_poset():
    return Preorder.from_pairs(GRID_CARRIER, GRID_ARROWS)


def brute_product_relation(p, q):
    """Direct definition: (x1,x2) <= (y1,y2) iff both coordinates compare."""
    labels = [product_label((a, b)) for a in p.carrier for b in q.carrier]
    flat = [(x, y) for x in p.carrier for y in q.carrier]
    up = [0] * len(labels)
    for a, (x1, y1) in enumerate(flat):
        for b, (x2, y2) in enumerate(flat):
            if p.leq(x1, x2) and q.leq(y1, y2):
                up[a] |= 1 << b
    return labels, up


def reference_closure(n, edges):
    """Reachability matrix of the reflexive-transitive closure as boolean lists,
    by a breadth-first search from every node."""
    succ = [[] for _ in range(n)]
    for a, b in edges:
        succ[a].append(b)
    reach = [[False] * n for _ in range(n)]
    for s in range(n):
        reach[s][s] = True
        queue = deque([s])
        while queue:
            a = queue.popleft()
            for b in succ[a]:
                if not reach[s][b]:
                    reach[s][b] = True
                    queue.append(b)
    return reach


class TestFromPairs:
    def test_empty_pairs_gives_identity_preorder(self):
        p = Preorder.from_pairs(["a", "b", "c"], [])
        assert p.pairs() == []
        assert p.is_partial_order()

    def test_three_point_line_poset(self, ex1_poset):
        assert sorted(ex1_poset.pairs()) == [("O", "N"), ("O", "P")]
        assert ex1_poset.leq("O", "N") and not ex1_poset.leq("N", "O")

    def test_two_point_complete_preorder(self):
        p = Preorder.from_pairs(["p", "q"], [("p", "q"), ("q", "p")])
        assert p.leq("p", "q") and p.leq("q", "p")
        assert not p.is_partial_order()

    def test_closure_is_transitive(self):
        p = Preorder.from_pairs(["a", "b", "c"], [("a", "b"), ("b", "c")])
        assert p.leq("a", "c")

    def test_unknown_label_rejected(self):
        with pytest.raises(InputError):
            Preorder.from_pairs(["a"], [("a", "z")])

    def test_duplicate_labels_rejected(self):
        with pytest.raises(InputError):
            Preorder.from_pairs(["a", "a"], [])

    def test_raw_constructor_rejects_non_transitive(self):
        up = [0b011, 0b110, 0b100]  # a <= b <= c without a <= c
        with pytest.raises(StructureError, match="^relation not transitive: 'a' reaches "
                                                 "'c' in two steps but not directly$"):
            Preorder(["a", "b", "c"], up)

    def test_raw_constructor_names_the_first_two_step_escape(self):
        # a <= b <= c <= d with no other pairs: the escapes are (a, c) and
        # (b, d), and the first row's comes first
        up = [0b0011, 0b0110, 0b1100, 0b1000]
        with pytest.raises(StructureError, match="'a' reaches 'c' in two steps"):
            Preorder(["a", "b", "c", "d"], up)

    def test_raw_constructor_rejects_non_reflexive(self):
        with pytest.raises(StructureError, match="not reflexive at 'b'"):
            Preorder(["a", "b", "c"], [0b011, 0b000, 0b100])

    def test_raw_constructor_rejects_malformed_rows(self):
        with pytest.raises(InputError):
            Preorder(["a", "b"], [0b01])
        with pytest.raises(InputError):
            Preorder(["a", "b"], [0b01, 0b110])
        with pytest.raises(InputError):
            Preorder(["a", "b"], [0b01, -1])

    def test_closure_matches_reference_on_random_cyclic_relations(self):
        rng = random.Random(20240611)
        cases = [rng.randint(1, 10) for _ in range(200)] + [200]
        for n in cases:
            p_edge = 0.3 if n <= 10 else 2.0 / n
            edges = [(a, b) for a in range(n) for b in range(n)
                     if rng.random() < p_edge]
            edges.append((n - 1, 0))  # close a cycle through the whole range
            edges.append((0, n - 1))
            labels = [f"v{i}" for i in range(n)]
            p = Preorder.from_pairs(labels, [(labels[a], labels[b]) for a, b in edges])
            reach = reference_closure(n, edges)
            assert [[p.leq(x, y) for y in labels] for x in labels] == reach

    def test_closure_matches_reference_on_dense_random_relations(self):
        rng = random.Random(20261018)
        for _ in range(300):
            n = rng.randint(1, 30)
            p_edge = rng.choice([0.05, 0.2, 0.5, 0.9])
            edges = [(a, b) for a in range(n) for b in range(n) if rng.random() < p_edge]
            labels = [f"v{i}" for i in range(n)]
            p = Preorder.from_pairs(labels, [(labels[a], labels[b]) for a, b in edges])
            reach = reference_closure(n, edges)
            assert [[p.leq(x, y) for y in labels] for x in labels] == reach
            # closing a preorder again changes nothing, in any label order
            perm = rng.sample(range(n), n)
            again = Preorder.from_pairs([labels[i] for i in perm], p.pairs())
            assert [[again.leq(x, y) for y in labels] for x in labels] == reach

    def test_long_chain_in_reverse_label_order(self):
        # the search runs 4096 deep; a recursive one would exceed the
        # interpreter's recursion limit
        n = 4096
        names = [f"x{i}" for i in range(n)]
        p = Preorder.from_pairs(names[::-1], zip(names, names[1:]))
        # carrier index k holds x_{n-1-k}, which lies below exactly x_{n-1-k..n-1}
        assert list(p.up) == [(1 << k + 1) - 1 for k in range(n)]
        assert p.leq("x0", f"x{n - 1}") and not p.leq(f"x{n - 1}", "x0")

    def test_one_long_cycle_is_one_class(self):
        n = 4096
        names = [f"x{i}" for i in range(n)]
        p = Preorder.from_pairs(names, zip(names, names[1:] + names[:1]))
        assert p.up == ((1 << n) - 1,) * n


class TestDown:
    def test_down_is_the_cached_transpose_as_a_tuple(self):
        rng = random.Random(7)
        for _ in range(50):
            p = random_preorder(rng, max_size=9)
            down = p.down()
            assert isinstance(down, tuple)
            assert down == tuple(transpose(p.up, len(p.up)))
            assert p.down() is down


class TestLabelsOf:
    @pytest.mark.parametrize("n", [0, 1, 7, 8, 9, 64, 4096])
    def test_against_bit_indices(self, n):
        rng = random.Random(n)
        labels = [f"p{i}" for i in range(n)]
        top = 1 << (n - 1) if n else 0
        masks = [0, top, (1 << n) - 1, *(rng.getrandbits(n) for _ in range(50)),
                 *(bitmask(rng.sample(range(n), rng.randint(0, min(n, 5)))) | top
                   for _ in range(50))]
        for mask in masks:
            assert list(labels_of(labels, mask)) == [labels[i] for i in bit_indices(mask)]


class TestTranspose:
    @pytest.mark.parametrize("count, width", [
        (9, 9), (70, 9), (5, 3), (3, 70), (2, 130), (4, 0), (0, 5), (0, 0)])
    def test_against_bit_by_bit(self, count, width):
        rng = random.Random(100 * count + width)
        rows = [rng.getrandbits(width) for _ in range(count)]
        assert transpose(rows, width) == transpose_by_bits(rows, width)

    def test_widths_off_the_byte_boundary(self):
        rng = random.Random(38)
        for width in (w for w in range(1, 71) if w % 8):
            for count in (0, 1, rng.randint(2, 90)):
                rows = [rng.getrandbits(width) for _ in range(count)]
                assert transpose(rows, width) == transpose_by_bits(rows, width)

    def test_no_rows_give_width_zero_rows(self):
        assert transpose([], 5) == [0] * 5

    @pytest.mark.parametrize("shape", ["chain", "antichain"])
    def test_at_the_carrier_cap(self, shape):
        n = MAX_CARRIER
        full = (1 << n) - 1
        rows = ([full >> i << i for i in range(n)] if shape == "chain"
                else [1 << i for i in range(n)])
        assert transpose(rows, n) == transpose_by_bits(rows, n)


class TestPartialOrder:
    def test_line_poset_is_partial_order(self, ex1_poset):
        assert ex1_poset.is_partial_order()

    def test_complete_preorder_is_not(self):
        p = Preorder.from_pairs(["p", "q"], [("p", "q"), ("q", "p")])
        assert not p.is_partial_order()

    def test_discrete_is_partial_order(self):
        assert Preorder.from_pairs(["a", "b", "c"], []).is_partial_order()

    def test_poset_constructor_rejects_equivalences(self):
        p = Preorder.from_pairs(["p", "q"], [("p", "q"), ("q", "p")])
        with pytest.raises(StructureError):
            Poset(p.carrier, p.up)
        # a <= b <= a inside a three-point poset candidate, as raw rows
        with pytest.raises(StructureError, match="'a' and 'b' are equivalent"):
            Poset(["a", "b", "c"], [0b111, 0b111, 0b100])


def shuffled(rng, carrier, up):
    """The relation ``up`` on ``carrier`` with the carrier in a random order
    under random distinct labels: (labels, rows)."""
    n = len(carrier)
    old_at = rng.sample(range(n), n)  # position k holds old element old_at[k]
    position = {old: k for k, old in enumerate(old_at)}
    labels = rng.sample([f"{c}{d}" for c in "abxyz" for d in range(10)], n)
    return labels, [bitmask(position[j] for j in bit_indices(up[old])) for old in old_at]


def blown_up(rng, p, copies):
    """``p`` with each element replaced by 1 to ``copies`` equivalent copies,
    the copies in a random order."""
    owner = [i for i in range(len(p.carrier)) for _ in range(rng.randint(1, copies))]
    rng.shuffle(owner)
    up = [bitmask(k for k, j in enumerate(owner) if p.up[i] >> j & 1) for i in owner]
    return Preorder([f"y{k}" for k in range(len(owner))], up)


class TestClassesFromEqualRows:
    """Classes read off equal up-set rows, against the up & down scan of the
    reference, on seeded random preorders and their quotient posets."""

    def relations(self):
        rng = random.Random(35)
        for _ in range(200):
            p = random_preorder(rng, max_size=9)
            yield shuffled(rng, p.carrier, p.up)
            labels, rows, _ = quotient_by_up_and_down(p)
            yield shuffled(rng, labels, rows)

    def test_against_the_up_and_down_scan(self):
        kinds = set()
        for carrier, up in self.relations():
            p = Preorder(carrier, up)
            pair = antisymmetry_pair_by_up_and_down(up)
            kinds.add(pair is None)
            assert p.is_partial_order() == (pair is None)
            assert p.is_partial_order() == (len(classes_by_up_and_down(up)) == len(up))
            if pair is None:
                assert Poset(carrier, up).up == p.up
            else:
                i, j = pair
                with pytest.raises(StructureError) as refused:
                    Poset(carrier, up)
                assert str(refused.value) == (
                    f"relation not antisymmetric: {carrier[i]!r} and {carrier[j]!r} "
                    "are equivalent but distinct")
                assert refused.value.path == "pairs"
            q, pi = quotient_poset(p)
            assert (list(q.carrier), list(q.up), pi) == quotient_by_up_and_down(p)
        assert kinds == {True, False}

    def test_no_transpose_and_no_down_sets(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("transposed")

        monkeypatch.setattr(order, "transpose", refuse)
        p = Preorder.from_pairs(["r", "q", "p"], [("q", "p"), ("p", "q"), ("q", "r")])
        chain = Poset(["a", "b", "c"], [0b111, 0b110, 0b100])
        assert chain.is_partial_order() and not p.is_partial_order()
        with pytest.raises(StructureError, match="'q' and 'p' are equivalent"):
            Poset(p.carrier, p.up)
        # the class rows are two transposes of the first members' rows, with
        # no down-set of the whole relation
        monkeypatch.undo()
        monkeypatch.setattr(Preorder, "down", refuse)
        q, pi = quotient_poset(p)
        assert list(q.carrier) == ["[r]", "[p]"] and q.pairs() == [("[p]", "[r]")]
        assert pi == {"r": "[r]", "q": "[p]", "p": "[p]"}
        with pytest.raises(AssertionError, match="transposed"):
            p.down()


class TestProduct:
    def test_square_of_line_poset_is_the_grid(self, ex1_poset):
        assert product([ex1_poset, ex1_poset]) == grid_poset()

    def test_unit_law(self, ex1_poset):
        one = Preorder.from_pairs(["*"], [])
        prod = product([ex1_poset, one])
        bijection = {x: product_label((x, "*")) for x in ex1_poset.carrier}
        assert is_order_isomorphism(bijection, ex1_poset, prod)

    def test_chain_square_is_diamond_against_bruteforce(self):
        two = Preorder.from_pairs(["0", "1"], [("0", "1")])
        prod = product([two, two])
        labels, rel = brute_product_relation(two, two)
        assert list(prod.carrier) == labels
        assert list(prod.up) == rel
        mids = [product_label(("0", "1")), product_label(("1", "0"))]
        assert not prod.leq(mids[0], mids[1]) and not prod.leq(mids[1], mids[0])
        assert all(prod.leq(product_label(("0", "0")), m) for m in mids)
        assert all(prod.leq(m, product_label(("1", "1"))) for m in mids)

    def test_empty_factor_list_rejected(self):
        with pytest.raises(InputError):
            product([])

    def test_product_of_posets_is_poset(self, ex1_poset):
        assert isinstance(product([ex1_poset, ex1_poset]), Poset)


class TestQuotient:
    def test_poset_quotients_to_itself(self, ex1_poset):
        q, pi = quotient_poset(ex1_poset)
        assert len(q.carrier) == len(ex1_poset.carrier)
        assert is_surjective(pi, q)

    def test_complete_preorder_collapses_to_a_point(self):
        p = Preorder.from_pairs(["p", "q"], [("p", "q"), ("q", "p")])
        q, pi = quotient_poset(p)
        assert list(q.carrier) == ["[p]"]
        assert pi["p"] == pi["q"] == "[p]"

    def test_partial_collapse_against_bruteforce_classes(self):
        p = Preorder.from_pairs(["a", "b", "c"], [("a", "b"), ("b", "a")])
        expected = []
        seen = set()
        for x in p.carrier:
            if x in seen:
                continue
            cls = {y for y in p.carrier if p.leq(x, y) and p.leq(y, x)}
            seen |= cls
            expected.append(cls)
        assert expected == [{"a", "b"}, {"c"}]
        q, pi = quotient_poset(p)
        assert list(q.carrier) == ["[a]", "[c]"]
        assert q.pairs() == []

    def test_rows_against_bit_by_bit(self):
        """Class rows read at the classes' first members, against the rows
        set bit by bit, on seeded preorders with each element blown up into
        one to four equivalent copies in a random order."""
        rng = random.Random(39)
        nontrivial = 0
        for _ in range(150):
            p = blown_up(rng, random_preorder(rng, max_size=12), 4)
            q, pi = quotient_poset(p)
            assert (list(q.carrier), list(q.up), pi) == quotient_by_up_and_down(p)
            nontrivial += len(q.carrier) < len(p.carrier)
        assert nontrivial > 100

    def test_rows_of_the_chain_at_the_carrier_cap(self):
        n = MAX_CARRIER
        full = (1 << n) - 1
        p = Preorder([f"p{i}" for i in range(n)], [full >> i << i for i in range(n)])
        q, pi = quotient_poset(p)
        assert list(q.up) == class_rows_by_bits(p.up, [[i] for i in range(n)])

    def test_projection_reflects_order(self):
        rng = random.Random(11)
        for _ in range(30):
            p = random_preorder(rng, max_size=6)
            q, pi = quotient_poset(p)
            assert q.is_partial_order()
            for a in p.carrier:
                for b in p.carrier:
                    assert q.leq(pi[a], pi[b]) == p.leq(a, b)
                    assert (pi[a] == pi[b]) == (p.leq(a, b) and p.leq(b, a))


class TestMonotone:
    def test_identity_is_monotone(self, ex1_poset):
        assert is_monotone({x: x for x in ex1_poset.carrier}, ex1_poset, ex1_poset)

    def test_quotient_projection_is_monotone(self):
        p = Preorder.from_pairs(["p", "q", "r"],
                                [("p", "q"), ("q", "p"), ("q", "r")])
        q, pi = quotient_poset(p)
        assert is_monotone(pi, p, q)

    def test_swap_on_line_poset_is_not_monotone(self, ex1_poset):
        swap = {"N": "O", "O": "N", "P": "P"}
        violations = [
            (a, b) for a in ex1_poset.carrier for b in ex1_poset.carrier
            if ex1_poset.leq(a, b) and not ex1_poset.leq(swap[a], swap[b])
        ]
        assert ("O", "N") in violations
        assert not is_monotone(swap, ex1_poset, ex1_poset)

    def test_value_outside_target_rejected(self, ex1_poset):
        with pytest.raises(InputError):
            is_monotone({"N": "z", "O": "O", "P": "P"}, ex1_poset, ex1_poset)

    def test_missing_source_element_rejected(self, ex1_poset):
        with pytest.raises(InputError, match="^assignment misses source element 'P'$"):
            is_monotone({"N": "N", "O": "O"}, ex1_poset, ex1_poset)

    def test_matches_leq_on_every_pair_on_random_preorders(self):
        """Random maps into random preorders, and the identity into a random
        coarsening of the source with one value moved half the time, so that
        both verdicts are common; the preorders often have equivalences."""
        rng = random.Random(20261019)
        verdicts, equivalences = [], 0
        for _ in range(400):
            source = random_preorder(rng, max_size=7)
            labels = source.carrier
            if rng.random() < 0.5:
                target = random_preorder(rng, max_size=7)
                phi = {x: rng.choice(target.carrier) for x in labels}
            else:
                extra = [(rng.choice(labels), rng.choice(labels)) for _ in range(2)]
                target = Preorder.from_pairs(labels, [*source.pairs(), *extra])
                phi = {x: x for x in labels}
                if rng.random() < 0.5:
                    phi[rng.choice(labels)] = rng.choice(labels)
            equivalences += len(quotient_poset(source)[0].carrier) < len(labels)
            verdict = monotone_by_leq(phi, source, target)
            assert is_monotone(phi, source, target) == verdict
            verdicts.append(verdict)
        assert min(verdicts.count(True), verdicts.count(False), equivalences) > 50


class TestOrderIsomorphism:
    def test_swapping_the_ends_of_the_line_is_one(self, ex1_poset):
        assert is_order_isomorphism({"N": "P", "O": "O", "P": "N"}, ex1_poset, ex1_poset)

    def test_a_map_that_is_not_a_bijection_is_not_one(self, ex1_poset):
        assert not is_order_isomorphism({"N": "N", "O": "O", "P": "N"}, ex1_poset, ex1_poset)
        assert not is_order_isomorphism({"N": "N", "O": "O"}, ex1_poset, ex1_poset)

    def test_a_bijection_that_preserves_but_does_not_reflect_is_not_one(self):
        antichain = Preorder.from_pairs(["a", "b"], [])
        chain = Preorder.from_pairs(["0", "1"], [("0", "1")])
        bijection = {"a": "0", "b": "1"}
        assert is_monotone(bijection, antichain, chain)
        assert not is_order_isomorphism(bijection, antichain, chain)
        assert not is_order_isomorphism({"0": "a", "1": "b"}, chain, antichain)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_generated_preorders_are_reflexive_transitive(seed):
    p = random_preorder(random.Random(seed), max_size=6)
    n = len(p.carrier)
    for i in range(n):
        assert (p.up[i] >> i) & 1
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if (p.up[i] >> j) & 1 and (p.up[j] >> k) & 1:
                    assert (p.up[i] >> k) & 1


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_quotient_is_always_a_poset(seed):
    p = random_preorder(random.Random(seed), max_size=6)
    q, pi = quotient_poset(p)
    assert q.is_partial_order()
    assert is_surjective(pi, q)


class TestEdgeCases:
    def test_empty_carrier_is_permitted(self):
        p = Preorder.from_pairs([], [])
        assert len(p) == 0 and p.is_partial_order() and p.pairs() == []
        q, pi = quotient_poset(p)
        assert len(q) == 0

    def test_single_element(self):
        p = Preorder.from_pairs(["x"], [("x", "x")])
        assert p.pairs() == []
        assert product([p, p]).carrier == (product_label(("x", "x")),)

    def test_carrier_cap(self):
        from stratikit.errors import CapExceeded
        labels = [f"v{i}" for i in range(4097)]
        with pytest.raises(CapExceeded, match="^carrier has 4097 elements, cap is 4096$") as info:
            Preorder.from_pairs(labels, [])
        assert info.value.path == "carrier"


class TestDot:
    def test_covers_of_chain(self, chain3):
        assert sorted(chain3.covering_pairs()) == [("0", "1"), ("1", "2")]

    def test_reduction_refused_on_preorders(self):
        p = Preorder.from_pairs(["p", "q"], [("p", "q"), ("q", "p")])
        with pytest.raises(StructureError):
            p.covering_pairs()

    def test_dot_output_shape(self, chain3):
        from stratikit.dot import preorder_dot
        text = preorder_dot(chain3)
        assert '"0" -> "1";' in text and '"1" -> "2";' in text
        assert '"0" -> "2";' not in text
        full = preorder_dot(chain3, full_relation=True)
        assert '"0" -> "2";' in full

    def test_dual_is_involutive(self, ex1_poset):
        assert ex1_poset.dual().dual() == ex1_poset
        assert ex1_poset.dual().leq("N", "O")
