import random

import pytest

from stratikit.decomposition import (Decomposition, DecompositionReport,
                                     MOORE_CONTINUOUS, analyze,
                                     direct_image_closeds, direct_image_opens,
                                     product_decomposition, quotient_topology,
                                     star_preorder, validate_stratification)
from stratikit.errors import InputError, StructureError
from stratikit.order import product
from stratikit.randomcases import random_decomposition
from stratikit.topology import FiniteTopology, product_topology

ORACLE_SEED = 20240601
ORACLE_CASES = 200


def pseudo_space(pseudo_poset):
    return FiniteTopology.from_preorder(pseudo_poset)


def chain_space(chain3):
    return FiniteTopology.from_preorder(chain3)


class TestDecompositionType:
    def test_blocks_must_cover(self, chain3):
        with pytest.raises(StructureError, match="cover"):
            Decomposition(chain_space(chain3), [["0"], ["1"]])

    def test_blocks_must_be_disjoint(self, chain3):
        with pytest.raises(StructureError, match="disjoint"):
            Decomposition(chain_space(chain3), [["0", "1"], ["1", "2"]])

    def test_empty_block_rejected(self, chain3):
        with pytest.raises(StructureError, match="empty"):
            Decomposition(chain_space(chain3), [["0", "1", "2"], []])

    def test_default_labels_use_least_member(self, chain3):
        d = Decomposition(chain_space(chain3), [["0", "2"], ["1"]])
        assert d.labels == ("[0]", "[1]")
        assert d.block_of("2") == "[0]"


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

    def test_moore_consistency_enforced(self, pseudo_poset):
        d = Decomposition(pseudo_space(pseudo_poset), [["a", "b"], ["c"], ["d"]])
        rep = analyze(d)
        with pytest.raises(StructureError, match="moore"):
            DecompositionReport(
                quotient=rep.quotient, pi_open=True, pi_closed=True,
                moore_class="neither", star_preorder=rep.star_preorder,
                tau_pi_preorder=rep.tau_pi_preorder, tamaki_agrees=True,
                blocks_locally_closed=rep.blocks_locally_closed,
                frontier_condition=True, quotient_is_poset=True)

    def test_star_preorder_standalone(self, chain3):
        d = Decomposition(chain_space(chain3), [["0", "2"], ["1"]])
        star = star_preorder(d)
        assert star.leq("[1]", "[0]") and not star.leq("[0]", "[1]")


class TestStratification:
    def test_pseudo_singletons_form_a_stratification(self, pseudo_poset):
        space = pseudo_space(pseudo_poset)
        d = Decomposition(space, [[x] for x in space.carrier],
                          list(space.carrier))
        rep = validate_stratification(d)
        assert rep.is_stratification
        assert rep.pi_continuous_to_star
        assert rep.star_topology_equals_quotient
        assert rep.closed_union_condition.startswith("automatic")

    def test_indiscrete_singletons_fail_local_closedness(self):
        t = FiniteTopology.from_open_sets(["p", "q"], [[], ["p", "q"]])
        d = Decomposition(t, [["p"], ["q"]], ["p", "q"])
        rep = validate_stratification(d)
        assert not rep.is_stratification
        assert rep.blocks_locally_closed == {"p": False, "q": False}

    def test_chain_bad_fails_both_conditions(self, chain3):
        d = Decomposition(chain_space(chain3), [["0", "2"], ["1"]])
        rep = validate_stratification(d)
        assert not rep.is_stratification
        assert rep.blocks_locally_closed["[0]"] is False
        assert rep.frontier_condition is False


class TestProductDecomposition:
    def line_decomposition(self, ex1_poset):
        space = FiniteTopology.from_preorder(ex1_poset)
        return Decomposition(space, [["N"], ["O"], ["P"]], ["N", "O", "P"])

    def test_square_of_line_gives_the_grid(self, ex1_poset):
        d = self.line_decomposition(ex1_poset)
        prod, ver = product_decomposition([d, d])
        assert len(prod.blocks) == 9
        assert ver.product_pi_open
        assert ver.quotient_matches_preorder_product
        grid = product([ex1_poset, ex1_poset])
        rep = analyze(prod)
        assert rep.tau_pi_preorder == grid

    def test_identity_factor_preserves_openness(self, ex1_poset, pseudo_poset):
        d1 = self.line_decomposition(ex1_poset)
        space = pseudo_space(pseudo_poset)
        d2 = Decomposition(space, [[x] for x in space.carrier],
                           list(space.carrier))
        prod, ver = product_decomposition([d2, d1])
        assert ver.product_pi_open

    def test_pseudo_times_line_has_twelve_blocks(self, ex1_poset, pseudo_poset):
        space = pseudo_space(pseudo_poset)
        d2 = Decomposition(space, [[x] for x in space.carrier],
                           list(space.carrier))
        d1 = self.line_decomposition(ex1_poset)
        prod, ver = product_decomposition([d2, d1])
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
                assert set(direct_image_opens(d)) == set(rep.quotient.opens)
            if rep.pi_closed:
                closed = {rep.quotient.full_mask & ~o for o in rep.quotient.opens}
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
        hits = 0
        for d in self.cases():
            rep = validate_stratification(d)
            if rep.is_stratification:
                hits += 1
                assert rep.pi_continuous_to_star
                assert rep.star_topology_equals_quotient
        assert hits > 0
