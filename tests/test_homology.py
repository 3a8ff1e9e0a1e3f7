import itertools
import json
import math
import random
import tracemalloc
from fractions import Fraction

import pytest

from stratikit.cli import main
from stratikit.errors import CapExceeded, StructureError
from stratikit.homology import (SimplicialComplex, betti, boundary_columns,
                                boundary_squares_to_zero, column_rank,
                                euler_characteristic_consistent, order_complex)
from stratikit.order import Preorder, product

from reference import chains_by_search


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

    def test_faces_are_the_chains_by_dimension_in_lexicographic_order(self, chain3):
        carrier, pairs = proper_boolean_lattice(4)
        posets = [
            Preorder.from_pairs([], []).to_poset(),
            Preorder.from_pairs(["a", "b", "c"], []).to_poset(),
            chain3,
            Preorder.from_pairs(carrier, pairs).to_poset(),
        ]
        rng = random.Random(19)
        for _ in range(40):
            n = rng.randint(1, 9)
            labels = [f"x{i}" for i in range(n)]
            posets.append(Preorder.from_pairs(labels, [
                (labels[i], labels[j]) for i in range(n) for j in range(i + 1, n)
                if rng.random() < 0.4]).to_poset())
        for poset in posets:
            k = order_complex(poset)
            assert k.faces == chains_by_search(poset)
            assert k.f_vector() == [len(f) for f in k.faces]

    @pytest.mark.parametrize("n, accepted", [(12, True), (13, False), (1500, False)])
    def test_long_chain_is_refused_at_the_cap_not_the_recursion_limit(self, n, accepted):
        # an n-element chain has 2^n - 1 chains: 4095 at n = 12, 8191 at n = 13
        labels = [f"p{i}" for i in range(n)]
        poset = Preorder.from_pairs(labels, list(zip(labels, labels[1:]))).to_poset()
        if accepted:
            k = order_complex(poset)
            assert k.f_vector() == [math.comb(n, d + 1) for d in range(n)]
            assert k.faces[-1] == [tuple(range(n))]
        else:
            with pytest.raises(CapExceeded, match="chain count exceeds cap 5000"):
                order_complex(poset)

    def test_long_chain_is_refused_before_any_chain_is_filed(self):
        """A 4096-element chain has 2^4096 - 1 chains.  Counting them stops
        past the cap after a dozen elements, so the refusal allocates a few
        lists of carrier length, not the 5000 chains of up to 4096 entries
        (about 8.4 million tuple slots) that filing them would hold."""
        labels = [f"p{i}" for i in range(4096)]
        poset = Preorder.from_pairs(labels, list(zip(labels, labels[1:]))).to_poset()
        poset.down()  # built and kept with the poset, before the count
        tracemalloc.start()
        try:
            with pytest.raises(CapExceeded, match="chain count exceeds cap 5000"):
                order_complex(poset)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    @pytest.mark.parametrize("bottoms, tops, accepted", [(2, 1666, True), (1, 2500, False)])
    def test_chain_cap_boundary(self, bottoms, tops, accepted):
        # K_{b,t}: b + t vertices and b * t edges, 5000 chains at (2, 1666)
        # and 5001 at (1, 2500)
        low = [f"b{i}" for i in range(bottoms)]
        high = [f"t{i}" for i in range(tops)]
        poset = Preorder.from_pairs(low + high, [(a, b) for a in low for b in high]).to_poset()
        if accepted:
            assert sum(order_complex(poset).f_vector()) == 5000
        else:
            with pytest.raises(CapExceeded, match="chain count exceeds cap 5000"):
                order_complex(poset)


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
        assert euler_characteristic_consistent(poset, order_complex(poset))

    def test_euler_check_fails_on_a_foreign_complex(self, pseudo_poset):
        # the 4-cycle has chi = 0, a 4-vertex path has chi = 1
        path = SimplicialComplex(("a", "b", "c", "d"), [
            [(0,), (1,), (2,), (3,)], [(0, 2), (1, 2), (1, 3)]])
        assert not euler_characteristic_consistent(pseudo_poset, path)

    def test_rank_of_known_matrix(self):
        assert column_rank([{0: 1, 1: 2}, {0: 2, 1: 4}]) == 1
        # non-unit pivots; determinant 3, so rank 1 over GF(3) but 2 over Q
        assert column_rank([{0: 2, 1: 1}, {0: 1, 1: 2}]) == 2
        assert column_rank([{0: 3, 2: 2}, {0: 6, 2: 4}, {}, {1: 4}, {1: -2, 2: 1}]) == 3

    def test_explicit_zero_is_no_pivot(self):
        assert column_rank([{0: 0}]) == 0
        assert column_rank([{0: 1, 3: 0}, {0: 2}]) == 1
        assert column_rank([{0: 0, 1: 0}, {0: 0, 1: 5}, {1: 0, 0: 7}]) == 2

    def test_boundary_of_an_edge(self, chain3):
        k = order_complex(chain3)
        # each edge column has one -1 and one +1
        for col in boundary_columns(k, 1):
            assert sorted(col.values()) == [-1, 1]


def dense_rank(rows, modulus=None):
    """Reference rank: Gaussian elimination on a dense matrix, over Q with
    Fractions, or over GF(modulus)."""
    if modulus is None:
        entry, inverse = Fraction, lambda x: 1 / x
    else:
        entry, inverse = (lambda x: x % modulus), (lambda x: pow(x, -1, modulus))
    rows = [[entry(x) for x in r] for r in rows]
    rank = 0
    for c in range(len(rows[0]) if rows else 0):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][c]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = inverse(rows[rank][c])
        for r in range(rank + 1, len(rows)):
            if rows[r][c]:
                factor = rows[r][c] * inv
                rows[r] = [entry(a - factor * b) for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def dense_betti(complex_, modulus=None):
    """Betti numbers from dense boundary matrices built from the simplices
    directly; with a modulus, the ranks are taken over GF(modulus)."""
    by_dim = {}
    for s in complex_.simplices:
        by_dim.setdefault(len(s) - 1, []).append(s)

    def rank(d):
        rows, cols = by_dim.get(d - 1, []), by_dim.get(d, [])
        if d < 1 or not cols:
            return 0
        row_of = {s: i for i, s in enumerate(rows)}
        mat = [[0] * len(cols) for _ in rows]
        for j, s in enumerate(cols):
            for k in range(len(s)):
                mat[row_of[s[:k] + s[k + 1:]]][j] = (-1) ** k
        return dense_rank(mat, modulus)

    return [len(by_dim.get(d, [])) - rank(d) - rank(d + 1)
            for d in range(complex_.dimension + 1)]


def random_sparse_columns(rng, rows, count):
    """Sparse integer columns over ``rows`` rows, entries in -4..4 with
    explicit zeros among them, and zero columns, repeats and multiples of
    earlier columns, so that the reduction meets non-unit pivots, zero
    entries and columns that vanish."""
    columns = []
    for _ in range(count):
        kind = rng.random()
        if kind < 0.1:
            columns.append({})
        elif columns and kind < 0.2:
            columns.append(dict(rng.choice(columns)))
        elif columns and kind < 0.3:
            factor = rng.choice([-3, -2, 2, 3])
            columns.append({r: factor * v for r, v in rng.choice(columns).items()})
        else:
            support = rng.sample(range(rows), rng.randint(1, min(rows, 4)))
            columns.append({r: rng.randint(-4, 4) for r in support})
    return columns


def test_column_rank_matches_dense_reference_on_random_integer_columns():
    rng = random.Random(11)
    for _ in range(400):
        rows = rng.randint(1, 8)
        columns = random_sparse_columns(rng, rows, rng.randint(0, 10))
        before = [dict(c) for c in columns]
        # each column as a dense row: a matrix and its transpose have one rank
        dense = [[c.get(r, 0) for r in range(rows)] for c in columns]
        assert column_rank(columns) == dense_rank(dense)
        assert columns == before  # the boundaries a complex keeps stay as built


def test_betti_matches_dense_reference_on_random_posets():
    rng = random.Random(3)
    for _ in range(60):
        n = rng.randint(1, 8)
        labels = [f"x{i}" for i in range(n)]
        pairs = [(labels[i], labels[j]) for i in range(n) for j in range(i + 1, n)
                 if rng.random() < 0.35]  # forward pairs only: a partial order
        poset = Preorder.from_pairs(labels, pairs).to_poset()
        k = order_complex(poset)
        assert betti(k) == dense_betti(k)
        assert boundary_squares_to_zero(k)
        assert euler_characteristic_consistent(poset, k)


def face_poset_of(facets):
    """Nonempty faces of a simplicial complex ordered by inclusion."""
    faces = sorted({f for facet in facets for r in range(1, len(facet) + 1)
                    for f in itertools.combinations(sorted(facet), r)},
                   key=lambda f: (len(f), f))
    labels = {f: "".join(map(str, f)) for f in faces}
    pairs = [(labels[a], labels[b]) for a in faces for b in faces
             if len(a) < len(b) and set(a) <= set(b)]
    return Preorder.from_pairs([labels[f] for f in faces], pairs).to_poset()


def proper_boolean_lattice(n):
    """Nonempty proper subsets of an n-set under inclusion, as labels and pairs."""
    subsets = range(1, (1 << n) - 1)
    label = {m: format(m, f"0{n}b") for m in subsets}
    pairs = [(label[a], label[b]) for a in subsets for b in subsets
             if a != b and a & b == a]
    return [label[m] for m in subsets], pairs


class TestTopologyCases:
    # the 6-vertex real projective plane (hemi-icosahedron)
    RP2 = [(1, 2, 3), (1, 3, 4), (1, 4, 5), (1, 5, 6), (1, 2, 6),
           (2, 3, 5), (3, 4, 6), (2, 4, 5), (3, 5, 6), (2, 4, 6)]

    def test_projective_plane_over_q(self):
        edges = [e for t in self.RP2 for e in itertools.combinations(t, 2)]
        assert all(edges.count(e) == 2 for e in edges)  # a closed surface
        poset = face_poset_of(self.RP2)
        assert len(poset.carrier) == 31
        k = order_complex(poset)
        assert k.f_vector() == [31, 90, 60]
        assert betti(k) == [1, 0, 0]
        # over GF(2) the same complex has b = [1, 1, 1]: orientation matters
        assert dense_betti(k, modulus=2) == [1, 1, 1]
        assert dense_betti(k) == [1, 0, 0]

    def test_proper_part_of_b6_is_a_four_sphere_in_cap(self, tmp_path, capsys):
        carrier, pairs = proper_boolean_lattice(6)
        assert len(carrier) == 62
        path = tmp_path / "b6.json"
        path.write_text(json.dumps({"carrier": carrier, "pairs": pairs}))
        code = main(["homology", "betti", "--input", str(path)])
        doc = json.loads(capsys.readouterr().out)
        assert code == 0
        assert sum(doc["results"]["f_vector"]) == 4682
        assert doc["results"]["betti"] == [1, 0, 0, 0, 1]
        assert len(doc["checks"]) == 2
        assert all(c["pass"] for c in doc["checks"])

    def test_betti_command_builds_each_boundary_once(self, tmp_path, capsys, monkeypatch):
        """``betti`` and the boundary check read the boundaries the complex
        keeps, so one job builds each of them once."""
        from stratikit import homology
        built = []
        real = homology.boundary_columns
        monkeypatch.setattr(homology, "boundary_columns",
                            lambda complex_, dim: built.append(dim) or real(complex_, dim))
        carrier, pairs = proper_boolean_lattice(5)
        path = tmp_path / "b5.json"
        path.write_text(json.dumps({"carrier": carrier, "pairs": pairs}))
        assert main(["homology", "betti", "--input", str(path)]) == 0
        assert json.loads(capsys.readouterr().out)["results"]["betti"] == [1, 0, 0, 1]
        assert built == [1, 2, 3]

    def test_proper_part_of_b7_exceeds_the_simplex_cap(self):
        carrier, pairs = proper_boolean_lattice(7)
        poset = Preorder.from_pairs(carrier, pairs).to_poset()
        with pytest.raises(CapExceeded):
            order_complex(poset)
