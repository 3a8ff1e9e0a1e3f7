import random

import pytest

from stratikit import decomposition, order
from stratikit.arrangement import enumerate_faces, face_poset
from stratikit.corpus import golden
from stratikit.decomposition import (MOORE_CLASS, Decomposition, MOORE_CONTINUOUS,
                                     MOORE_LOWER, analyze, open_closed_by_opens,
                                     product_decomposition, quotient_topology,
                                     validate_stratification)
from stratikit.errors import InputError, StructureError
from stratikit.jsonio import dump_analysis, load_arrangement
from stratikit.order import Preorder, bit_indices, bitmask, product, transpose
from stratikit.randomcases import random_decomposition, random_partition
from stratikit.topology import FiniteTopology, product_topology

from reference import (analyze_by_blocks, closure_by_opens, direct_image_closeds,
                       direct_image_opens, image_mask, locally_closed_by_opens,
                       open_closed_by_points, random_topology)

ORACLE_SEED = 20240601
ORACLE_CASES = 200


def pseudo_space(pseudo_poset):
    return FiniteTopology.from_preorder(pseudo_poset)


def chain_space(chain3):
    return FiniteTopology.from_preorder(chain3)


def block_of(d, point):
    """Label of the block holding the point."""
    bit = 1 << d.space.carrier.index(point)
    return next(lab for lab, b in zip(d.labels, d.blocks) if b & bit)


class TestDecompositionType:
    def test_blocks_must_cover(self, chain3):
        with pytest.raises(StructureError, match="cover"):
            Decomposition(chain_space(chain3), [["0"], ["1"]])

    def test_blocks_must_be_disjoint(self, chain3):
        with pytest.raises(StructureError, match="disjoint"):
            Decomposition(chain_space(chain3), [["0", "1"], ["1", "2"]])

    def test_overlap_is_refused_before_default_labels_are_compared(self, chain3):
        # both blocks would be named [0]
        with pytest.raises(StructureError, match="disjoint"):
            Decomposition(chain_space(chain3), [["0"], ["0", "1", "2"]])

    def test_empty_block_rejected(self, chain3):
        with pytest.raises(StructureError, match="empty"):
            Decomposition(chain_space(chain3), [["0", "1", "2"], []])

    def test_default_labels_use_least_member(self, chain3):
        d = Decomposition(chain_space(chain3), [["0", "2"], ["1"]])
        assert d.labels == ("[0]", "[1]")
        assert block_of(d, "2") == "[0]"


class TestQuotientTopology:
    def test_pseudo_blocks_collapse_to_three_point_line_shape(self, pseudo_poset):
        d = Decomposition(pseudo_space(pseudo_poset), [["a", "b"], ["c"], ["d"]])
        q = quotient_topology(d)
        assert q.opens_as_labels() == [
            [], ["[c]"], ["[d]"], ["[c]", "[d]"], ["[a]", "[c]", "[d]"]]

    def test_singleton_blocks_reproduce_the_space(self, pseudo_poset):
        space = pseudo_space(pseudo_poset)
        d = Decomposition(space, [[x] for x in space.carrier],
                          list(space.carrier))
        q = quotient_topology(d)
        assert q == space

    def test_chain_with_endpoints_glued_is_indiscrete(self, chain3):
        d = Decomposition(chain_space(chain3), [["0", "2"], ["1"]])
        q = quotient_topology(d)
        assert q.opens_as_labels() == [[], ["[0]", "[1]"]]


class TestAnalyze:
    def test_pseudo_blocks_open_and_agreeing(self, pseudo_poset):
        d = Decomposition(pseudo_space(pseudo_poset), [["a", "b"], ["c"], ["d"]])
        rep = analyze(d)
        assert rep.pi_open and rep.tamaki_agrees and rep.quotient_is_poset

    def test_chain_bad_case(self, chain3):
        space = chain_space(chain3)
        d = Decomposition(space, [["0", "2"], ["1"]])
        rep = analyze(d)
        assert not rep.pi_open
        # the middle point lies in the closure of the glued block, not conversely
        assert space.closure(["0", "2"]) == ("0", "1", "2")
        assert set(space.closure(["1"])) == {"0", "1"}
        assert rep.star_preorder.pairs() == [("[1]", "[0]")]
        assert sorted(rep.tau_pi_preorder.pairs()) == [
            ("[0]", "[1]"), ("[1]", "[0]")]
        assert not rep.tamaki_agrees

    def test_singleton_blocks_are_continuous(self, pseudo_poset):
        space = pseudo_space(pseudo_poset)
        d = Decomposition(space, [[x] for x in space.carrier],
                          list(space.carrier))
        rep = analyze(d)
        assert rep.pi_open and rep.pi_closed
        assert rep.moore_class == MOORE_CONTINUOUS

    def test_star_preorder_standalone(self, chain3):
        d = Decomposition(chain_space(chain3), [["0", "2"], ["1"]])
        star = analyze(d).star_preorder
        assert star.leq("[1]", "[0]") and not star.leq("[0]", "[1]")

    def test_one_unsaturated_up_set_makes_the_projection_not_closed(self):
        """a < b beside an isolated c, cut into {a} and {b, c}: the up-set
        {b, c} of the second block is a union of blocks, but the up-set {a, b}
        of the first meets {b, c} without holding it.  So the image {[b]} of
        the closed point c is not closed, while the closure {a} of the first
        block and the closure {a, b, c} of the second are unions of blocks."""
        space = FiniteTopology.from_preorder(Preorder.from_pairs("abc", [("a", "b")]))
        d = Decomposition(space, [["a"], ["b", "c"]])
        rep = analyze(d)
        assert (rep.pi_open, rep.pi_closed, rep.frontier_condition) == (True, False, True)
        assert rep.moore_class == MOORE_LOWER
        assert open_closed_by_opens(d) == open_closed_by_points(d) == (True, False)
        assert validate_stratification(d)["is_stratification"]

    def test_three_transposes_and_no_quotient_down_sets(self, monkeypatch):
        """On a space whose down-sets nobody has read yet, ``analyze`` makes
        three transposes (the down-sets, then one point table each) and never
        asks a preorder other than the space's for its down-sets."""
        counted = []
        real = order.transpose

        def counting(rows, width):
            counted.append(width)
            return real(rows, width)

        monkeypatch.setattr(order, "transpose", counting)
        monkeypatch.setattr(decomposition, "transpose", counting)
        read_down = []
        real_down = Preorder.down
        monkeypatch.setattr(Preorder, "down",
                            lambda self: read_down.append(self) or real_down(self))
        labels = [f"x{i}" for i in range(12)]
        space = FiniteTopology.from_preorder(Preorder.from_pairs(
            labels, [(labels[i], labels[i + 1]) for i in range(0, 11, 2)]))
        d = Decomposition(space, [labels[:5], labels[5:9], labels[9:]])
        analyze(d)
        assert counted == [12, 12, 12]
        assert len(read_down) == 1 and read_down[0] is space.specialization_preorder()


class TestStratification:
    def test_pseudo_singletons_form_a_stratification(self, pseudo_poset):
        space = pseudo_space(pseudo_poset)
        d = Decomposition(space, [[x] for x in space.carrier],
                          list(space.carrier))
        rep = validate_stratification(d)
        assert rep["is_stratification"]
        assert rep["pi_continuous_to_star"]
        assert rep["star_topology_equals_quotient"]
        assert rep["closed_union_condition"].startswith("automatic")

    def test_indiscrete_singletons_fail_local_closedness(self):
        t = FiniteTopology.from_open_sets(["p", "q"], [[], ["p", "q"]])
        d = Decomposition(t, [["p"], ["q"]], ["p", "q"])
        rep = validate_stratification(d)
        assert not rep["is_stratification"]
        assert rep["blocks_locally_closed"] == {"p": False, "q": False}
        assert rep["pi_continuous_to_star"] is rep["star_topology_equals_quotient"] is None

    def test_chain_bad_fails_both_conditions(self, chain3):
        d = Decomposition(chain_space(chain3), [["0", "2"], ["1"]])
        rep = validate_stratification(d)
        assert not rep["is_stratification"]
        assert rep["blocks_locally_closed"]["[0]"] is False
        assert rep["frontier_condition"] is False


class TestProductDecomposition:
    def line_decomposition(self, ex1_poset):
        space = FiniteTopology.from_preorder(ex1_poset)
        return Decomposition(space, [["N"], ["O"], ["P"]], ["N", "O", "P"])

    def test_square_of_line_gives_the_grid(self, ex1_poset):
        d = self.line_decomposition(ex1_poset)
        prod, pi_open, matches = product_decomposition([d, d])
        assert len(prod.blocks) == 9
        assert pi_open and matches
        grid = product([ex1_poset, ex1_poset])
        rep = analyze(prod)
        assert rep.tau_pi_preorder == grid

    def test_identity_factor_preserves_openness(self, ex1_poset, pseudo_poset):
        d1 = self.line_decomposition(ex1_poset)
        space = pseudo_space(pseudo_poset)
        d2 = Decomposition(space, [[x] for x in space.carrier],
                           list(space.carrier))
        prod, pi_open, matches = product_decomposition([d2, d1])
        assert pi_open and matches

    def test_pseudo_times_line_has_twelve_blocks(self, ex1_poset, pseudo_poset):
        space = pseudo_space(pseudo_poset)
        d2 = Decomposition(space, [[x] for x in space.carrier],
                           list(space.carrier))
        d1 = self.line_decomposition(ex1_poset)
        prod, _, _ = product_decomposition([d2, d1])
        assert len(prod.blocks) == 12
        # quotient equals the product of the factor quotient topologies
        q1 = quotient_topology(d2)
        q2 = quotient_topology(d1)
        assert quotient_topology(prod) == product_topology([q1, q2])

    def test_non_open_factor_rejected_by_name(self, ex1_poset, chain3):
        bad = Decomposition(chain_space(chain3), [["0", "2"], ["1"]])
        good = self.line_decomposition(ex1_poset)
        with pytest.raises(StructureError, match="#1"):
            product_decomposition([good, bad])

    def test_empty_factor_list(self):
        with pytest.raises(InputError):
            product_decomposition([])


class TestOracleSuites:
    """Randomized theorem suites; the seed is fixed and printed."""

    def cases(self):
        rng = random.Random(ORACLE_SEED)
        return [random_decomposition(rng, max_size=6) for _ in range(ORACLE_CASES)]

    def test_openness_criterion_oracle(self):
        print(f"\noracle seed={ORACLE_SEED} cases={ORACLE_CASES}")
        disagreements = []
        for i, d in enumerate(self.cases()):
            rep = analyze(d)
            if rep.pi_open != rep.tamaki_agrees:
                disagreements.append(i)
        assert disagreements == []

    def test_row_analysis_matches_the_definition_over_the_opens(self):
        for d in self.cases():
            assert len(d.space.carrier) <= 12
            rep = analyze(d)
            assert (rep.pi_open, rep.pi_closed) == open_closed_by_opens(d)

    def test_saturations_give_the_verdicts_of_the_direct_images(self):
        """The preimage of the image of a set is its saturation."""
        for d in self.cases():
            space = d.space
            assert open_closed_by_opens(d) == (
                all(space.is_open(d.preimage_mask(u)) for u in direct_image_opens(d)),
                all(space.is_closed(d.preimage_mask(u)) for u in direct_image_closeds(d)))

    def test_open_cases_poset_iff_locally_closed(self):
        hits = 0
        for d in self.cases():
            rep = analyze(d)
            if not rep.pi_open:
                continue
            hits += 1
            assert rep.quotient_is_poset == all(
                rep.blocks_locally_closed.values())
        assert hits > 0

    def test_poset_quotient_implies_locally_closed_blocks(self):
        # implication direction independent of openness
        for d in self.cases():
            rep = analyze(d)
            if rep.quotient_is_poset:
                assert all(rep.blocks_locally_closed.values())

    def test_open_or_closed_projection_reproduces_quotient(self):
        for d in self.cases():
            rep = analyze(d)
            if rep.pi_open:
                assert set(direct_image_opens(d)) == set(quotient_topology(d).opens)
            if rep.pi_closed:
                q = quotient_topology(d)
                closed = {q.full_mask & ~o for o in q.opens}
                assert set(direct_image_closeds(d)) == closed

    def test_semicontinuity_definitions_match_map_properties(self):
        """Saturated-union formulation vs open/closed projection images."""
        for d in self.cases():
            rep = analyze(d)
            full = d.space.full_mask
            lower = all(
                d.space.is_closed(sum(
                    b for b in d.blocks if b & ~(full & ~g) == 0))
                for g in d.space.opens)
            upper = all(
                d.space.is_open(sum(b for b in d.blocks if b & ~g == 0))
                for g in d.space.opens)
            assert lower == rep.pi_open
            assert upper == rep.pi_closed

    def test_stratifications_are_continuous_to_star_topology(self):
        """On a stratification the closure order is the quotient preorder, so
        the projection is continuous to its up-set topology, which is the
        quotient topology: the theorem behind the two derived verdicts of
        ``validate_stratification``."""
        hits = 0
        for d in [*self.cases(), *large_decompositions()]:
            if validate_stratification(d)["is_stratification"]:
                hits += 1
                rep = analyze(d)
                assert rep.star_preorder == rep.tau_pi_preorder
        assert hits > 0


def reference_analysis(d):
    """Every field of ``analyze`` and ``validate_stratification`` by scanning
    explicit open sets: the quotient from the preimages of all 2^k label
    subsets, openness and closedness from the images of every open and every
    closed set, closures and local closedness from the opens of the space."""
    space = d.space
    k = len(d.blocks)
    quotient = FiniteTopology(
        d.labels, [u for u in range(1 << k) if space.is_open(d.preimage_mask(u))])
    pi_open = all(quotient.is_open(image_mask(d, g)) for g in space.opens)
    pi_closed = all(quotient.is_closed(image_mask(d, space.full_mask & ~g))
                    for g in space.opens)
    closures = [closure_by_opens(space, b) for b in d.blocks]
    star = Preorder(d.labels, [bitmask(m for m in range(k) if b & ~closures[m] == 0)
                               for b in d.blocks])
    tau_pi = quotient.specialization_preorder()
    locally_closed = {lab: locally_closed_by_opens(space, b)
                      for lab, b in zip(d.labels, d.blocks)}
    frontier = not any(a & c and a & ~c for a in d.blocks for c in closures)
    fields = {
        "quotient": quotient, "pi_open": pi_open, "pi_closed": pi_closed,
        "moore_class": MOORE_CLASS[(pi_open, pi_closed)], "star_preorder": star,
        "tau_pi_preorder": tau_pi, "tamaki_agrees": star == tau_pi,
        "blocks_locally_closed": locally_closed, "frontier_condition": frontier,
        "quotient_is_poset": tau_pi.is_partial_order(),
    }
    is_strat = all(locally_closed.values()) and frontier
    continuous = same = None
    if is_strat:
        star_space = FiniteTopology.from_preorder(star)
        continuous = all(space.is_open(d.preimage_mask(u)) for u in star_space.opens)
        same = star_space == quotient
    strat = {"blocks_locally_closed": locally_closed, "frontier_condition": frontier,
             "closed_union_condition": "automatic (finite index set)",
             "is_stratification": is_strat, "pi_continuous_to_star": continuous,
             "star_topology_equals_quotient": same}
    return fields, strat


def differential_cases(count=1000, seed=20240602):
    """Seeded decompositions of at most 7 points: mostly up-set spaces of
    random preorders, every fourth one a random topology given by its opens."""
    rng = random.Random(seed)
    for i in range(count):
        if i % 4 == 3:
            space = random_topology(rng, max_size=7)
            blocks = random_partition(rng, len(space.carrier))
            yield Decomposition(space, [[space.carrier[j] for j in b] for b in blocks])
        else:
            yield random_decomposition(rng, max_size=7)


def sixteen_points_fourteen_blocks():
    """A sparse 16-point poset (6120 opens) cut into 14 blocks; the partition
    is a stratification with an open projection."""
    rng = random.Random(28)
    labels = [f"x{i}" for i in range(16)]
    pairs = [(labels[i], labels[j])
             for i in range(16) for j in range(i + 1, 16) if rng.random() < 0.12]
    space = FiniteTopology.from_preorder(Preorder.from_pairs(labels, pairs))
    order = list(space.carrier)
    rng.shuffle(order)
    blocks = [order[0:2], order[2:4]] + [[x] for x in order[4:]]
    return Decomposition(space, blocks)


class TestRowsAgainstExplicitOpens:
    def assert_agrees(self, d):
        fields, strat = reference_analysis(d)
        rep = analyze(d)
        assert ({**rep._asdict(), "moore_class": rep.moore_class}
                == {k: v for k, v in fields.items() if k != "quotient"})
        assert dump_analysis(rep)["quotient"]["opens"] == fields["quotient"].opens_as_labels()
        assert quotient_topology(d) == fields["quotient"]
        assert open_closed_by_opens(d) == (fields["pi_open"], fields["pi_closed"])
        assert open_closed_by_points(d) == (fields["pi_open"], fields["pi_closed"])
        assert validate_stratification(d) == strat
        return rep

    def test_seeded_small_decompositions(self):
        outcomes = set()
        for d in differential_cases():
            rep = self.assert_agrees(d)
            outcomes.add((rep.moore_class, rep.tamaki_agrees, rep.quotient_is_poset))
        # every class and both answers of each criterion occur
        assert {c for c, _, _ in outcomes} == set(MOORE_CLASS.values())
        assert {(t, p) for _, t, p in outcomes} >= {(True, True), (False, False)}

    def test_sixteen_points_fourteen_blocks(self):
        d = sixteen_points_fourteen_blocks()
        assert (len(d.space.carrier), len(d.blocks), len(d.space.opens)) == (16, 14, 6120)
        rep = self.assert_agrees(d)
        assert rep.pi_open and validate_stratification(d)["is_stratification"]


def large_decompositions(seed=20241019):
    """Seeded decompositions of 40 to 300 points, far past the 2^k reach of
    the explicit-opens reference.  Sparse random posets (arrows only up the
    index order) and preorders (cycles allowed), of sizes on both sides of
    byte boundaries, are cut into singletons, one block, a uniform random
    partition, a few random classes, and runs of consecutive indices, which
    are convex in the posets.  The nonempty chains of random 8-point posets
    under inclusion, cut into the fibres of max, are open and not closed;
    under reverse inclusion they are closed and not open."""
    rng = random.Random(seed)
    for n in (40, 63, 64, 65, 127, 128, 129, 200, 255, 256, 257, 300):
        labels = [f"x{i}" for i in range(n)]
        for forward in (True, False):
            p = rng.choice((1.0, 2.5)) / n
            pairs = [(labels[i], labels[j]) for i in range(n) for j in range(n)
                     if (i < j if forward else i != j) and rng.random() < p]
            space = FiniteTopology.from_preorder(Preorder.from_pairs(labels, pairs))
            cuts = sorted(rng.sample(range(1, n), rng.randint(1, 12)))
            classes = rng.randint(2, 6)
            partitions = [
                [[i] for i in range(n)],
                [list(range(n))],
                random_partition(rng, n),
                [[i for i in range(n) if i % classes == c] for c in range(classes)],
                [list(range(a, b)) for a, b in zip([0] + cuts, cuts + [n])],
            ]
            for blocks in partitions:
                yield Decomposition(space, [[labels[i] for i in b] for b in blocks])
    found = 0
    while found < 4:
        x = Preorder.from_pairs(range(8), [(i, j) for i in range(8) for j in range(i + 1, 8)
                                           if rng.random() < 0.3])
        chains = [c for c in range(1, 1 << 8)
                  if all(x.up[i] & c | x.down()[i] & c == c for i in bit_indices(c))]
        if not 40 <= len(chains) <= 300:
            continue
        found += 1
        top = [next(i for i in bit_indices(c) if x.up[i] & c == 1 << i) for c in chains]
        fibres = [bitmask(k for k, t in enumerate(top) if t == i) for i in range(8)]
        inclusion = [bitmask(k for k, d in enumerate(chains) if c & ~d == 0) for c in chains]
        for rows in (inclusion, transpose(inclusion, len(chains))):
            space = FiniteTopology.from_preorder(Preorder([f"c{c}" for c in chains], rows))
            yield Decomposition(space, fibres)


class TestRowsAgainstBlockPairs:
    def test_seeded_large_decompositions(self):
        outcomes = set()
        for d in large_decompositions():
            rep = analyze(d)
            assert rep == analyze_by_blocks(d)
            assert open_closed_by_points(d) == (rep.pi_open, rep.pi_closed)
            outcomes.add((rep.moore_class, rep.frontier_condition,
                          all(rep.blocks_locally_closed.values())))
        # the cases reach every class and both answers of each block condition
        assert {c for c, _, _ in outcomes} == set(MOORE_CLASS.values())
        assert {f for _, f, _ in outcomes} == {True, False}
        assert {lc for _, _, lc in outcomes} == {True, False}


def test_chains_of_the_three_line_face_poset_over_it():
    """McCord's finite model of R^n/D(A) = face poset (Barmak, LNM 2032,
    ch. 1): the 49 chains of the 13-face poset X of three concurrent lines,
    ordered by inclusion and cut into the fibres of max.  The projection is
    open and not closed, and the quotient preorder is X itself."""
    arr = load_arrangement(golden("arrangement-3lines")["arrangement"])
    x = face_poset(arr, enumerate_faces(arr))
    n = len(x.carrier)
    chains = [c for c in range(1, 1 << n)
              if all(x.up[i] & c | x.down()[i] & c == c for i in bit_indices(c))]
    assert (n, len(chains)) == (13, 49)
    space = FiniteTopology.from_preorder(Preorder(
        ["|".join(x.carrier[i] for i in bit_indices(c)) for c in chains],
        [bitmask(k for k, d in enumerate(chains) if c & ~d == 0) for c in chains]))
    top = [next(i for i in bit_indices(c) if x.up[i] & c == 1 << i) for c in chains]
    fibres = [bitmask(k for k, t in enumerate(top) if t == i) for i in range(n)]
    rep = analyze(Decomposition(space, fibres, x.carrier))
    assert (rep.pi_open, rep.pi_closed) == (True, False)
    assert rep.moore_class == "lower-semicontinuous"
    assert rep.tau_pi_preorder == x
    assert rep.quotient_is_poset
