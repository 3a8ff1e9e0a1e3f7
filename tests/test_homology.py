import pytest

from stratikit.errors import StructureError
from stratikit.homology import (SimplicialComplex, betti,
                                boundary_matrix, boundary_squares_to_zero,
                                euler_characteristic_consistent, matrix_rank,
                                order_complex)
from stratikit.order import Preorder, product


def components_oracle(complex_):
    """Union-find count of connected components from edges alone."""
    parent = list(range(len(complex_.vertices)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for s in complex_.simplices:
        if len(s) == 2:
            a, b = find(s[0]), find(s[1])
            parent[a] = b
    used = {find(i) for s in complex_.simplices for i in s}
    return len(used)


class TestOrderComplex:
    def test_circle_model_is_a_four_cycle(self, pseudo_poset):
        k = order_complex(pseudo_poset)
        assert k.f_vector() == [4, 4]
        edges = {frozenset(s) for s in k.simplices if len(s) == 2}
        labels = {frozenset(pseudo_poset.carrier[i] for i in e) for e in edges}
        assert labels == {
            frozenset({"a", "c"}), frozenset({"a", "d"}),
            frozenset({"b", "c"}), frozenset({"b", "d"})}

    def test_single_point(self):
        k = order_complex(Preorder.from_pairs(["x"], []).to_poset())
        assert k.f_vector() == [1]

    def test_chain_gives_the_full_simplex(self, chain3):
        k = order_complex(chain3)
        assert k.f_vector() == [3, 3, 1]

    def test_preorder_rejected(self):
        p = Preorder.from_pairs(["p", "q"], [("p", "q"), ("q", "p")])
        with pytest.raises(StructureError):
            order_complex(p)


class TestComplexValidation:
    def test_downward_closure_enforced(self):
        with pytest.raises(StructureError, match="downward"):
            SimplicialComplex(["a", "b", "c"], [["a"], ["b"], ["a", "b", "c"]])

    def test_missing_singleton_detected(self):
        # caught by the downward-closure scan: the vertex face is missing
        with pytest.raises(StructureError, match="missing"):
            SimplicialComplex(["a", "b"], [["a", "b"], ["a"]])

    def test_deduplicates_and_orients_by_carrier(self):
        k = SimplicialComplex(["b", "a"], [["a"], ["b"], ["a", "b"], ["b", "a"]])
        assert k.f_vector() == [2, 1]
        assert k.simplices[-1] == (0, 1)  # indices follow carrier order (b, a)


class TestBetti:
    def test_circle(self, pseudo_poset):
        k = order_complex(pseudo_poset)
        assert betti(k, 1) == [1, 1]
        # graph oracle: connected, and for a graph b1 = E - V + components
        c = components_oracle(k)
        assert c == 1
        assert 4 - 4 + c == 1

    def test_single_vertex(self):
        k = order_complex(Preorder.from_pairs(["x"], []).to_poset())
        assert betti(k, 1) == [1, 0]

    def test_grid_is_homologically_trivial(self, ex1_poset):
        grid = product([ex1_poset, ex1_poset])
        k = order_complex(grid)
        assert betti(k, 2) == [1, 0, 0]

    def test_cone_over_anything(self):
        # global minimum makes every chain extendable downwards
        fence = Preorder.from_pairs(
            ["m", "a", "b", "c", "d"],
            [("m", "a"), ("m", "b"), ("m", "c"), ("m", "d"),
             ("a", "c"), ("a", "d"), ("b", "c"), ("b", "d")]).to_poset()
        k = order_complex(fence)
        assert betti(k, 2)[0] == 1
        assert all(b == 0 for b in betti(k, 2)[1:])

    def test_two_components(self):
        p = Preorder.from_pairs(["a", "b"], []).to_poset()
        assert betti(order_complex(p), 1) == [2, 0]


class TestChainComplexInvariants:
    @pytest.mark.parametrize("fixture", ["pseudo", "grid", "chain"])
    def test_boundary_squares_to_zero(self, fixture, pseudo_poset, ex1_poset, chain3):
        poset = {
            "pseudo": pseudo_poset,
            "grid": product([ex1_poset, ex1_poset]),
            "chain": chain3,
        }[fixture]
        k = order_complex(poset)
        assert boundary_squares_to_zero(k)

    @pytest.mark.parametrize("fixture", ["pseudo", "grid", "chain"])
    def test_euler_characteristic(self, fixture, pseudo_poset, ex1_poset, chain3):
        poset = {
            "pseudo": pseudo_poset,
            "grid": product([ex1_poset, ex1_poset]),
            "chain": chain3,
        }[fixture]
        assert euler_characteristic_consistent(order_complex(poset))

    def test_rank_of_known_matrix(self):
        from fractions import Fraction
        mat = [[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]]
        assert matrix_rank(mat) == 1

    def test_boundary_of_an_edge(self, chain3):
        k = order_complex(chain3)
        mat = boundary_matrix(k, 1)
        # each edge column has one -1 and one +1
        for j in range(len(mat[0])):
            col = [mat[i][j] for i in range(len(mat))]
            assert sorted(col) == sorted([-1, 1] + [0] * (len(col) - 2))
