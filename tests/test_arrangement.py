import itertools
import json
import random
from fractions import Fraction

import pytest

from stratikit import arrangement, cli, feasibility
from stratikit.arrangement import (Arrangement, Face, closure_inclusion, closure_rows,
                                   enumerate_faces, face_poset, face_signs, sign_map)
from stratikit.errors import CapExceeded, InputError
from stratikit.feasibility import solve
from stratikit.order import (Preorder, bit_indices, is_order_isomorphism, product,
                             product_label)

import reference
from reference import rational_system, sign_tree_faces


def feasible(system):
    return solve(*system) is not None


def _system(dim, forms, signs):
    """Constraint system selecting the points with the given (partial) signs
    on the leading forms: the form = 0 where the sign is 0, sign * form > 0
    elsewhere."""
    eqs, ineqs = [], []
    for form, s in zip(forms, signs):
        coeffs, const = form[1:], form[0]
        if s == 0:
            eqs.append((coeffs, const))
        else:
            ineqs.append((tuple(s * c for c in coeffs), s * const, True))
    return rational_system(dim, eqs, ineqs)


def line_origin():
    return Arrangement(1, [(0, 1)])


def line_two_cuts():
    return Arrangement(1, [(0, 1), (-1, 1)])


def coordinate(n):
    forms = []
    for i in range(n):
        row = [0] * (n + 1)
        row[i + 1] = 1
        forms.append(row)
    return Arrangement(n, forms)


def three_lines():
    return Arrangement(2, [(0, 1, 0), (0, 0, 1), (0, 1, -1)])


def sampled_sign_vectors(arr, coords):
    """Independent oracle: every sign vector hit on a finite rational grid."""
    return {
        sign_map(arr, point)
        for point in itertools.product(coords, repeat=arr.dim)
    }


class TestArrangementType:
    def test_constant_form_rejected(self):
        with pytest.raises(InputError, match="hyperplane"):
            Arrangement(1, [(3, 0)])

    def test_no_forms_rejected(self):
        with pytest.raises(InputError):
            Arrangement(2, [])

    def test_coefficient_length_checked(self):
        with pytest.raises(InputError) as err:
            Arrangement(2, [(0, 1)])
        assert err.value.path == "forms[0]"


class TestFace:
    def test_value_semantics(self):
        a = Face((1, 0), (Fraction(2), Fraction(0)))
        b = Face((1, 0), (Fraction(2), Fraction(0)))
        assert a == b and hash(a) == hash(b)
        assert a != Face((1, 0), (Fraction(3), Fraction(0)))
        assert len({a, b}) == 1
        assert a.label == "+0"

    def test_repr_names_the_fields(self):
        assert repr(Face((-1,), (Fraction(-1, 2),))) == (
            "Face(signs=(-1,), witness=(Fraction(-1, 2),))")

    def test_immutable(self):
        face = Face((0,), (Fraction(0),))
        with pytest.raises(AttributeError):
            face.signs = (1,)
        with pytest.raises(AttributeError):
            face.extra = 1

    def test_enumerated_faces_are_faces(self):
        assert all(type(f) is Face for f in enumerate_faces(line_origin()))


class TestSignMap:
    def test_negative_point_on_the_line(self):
        assert sign_map(line_origin(), [Fraction(-3)]) == (-1,)

    def test_origin_of_the_plane(self):
        assert sign_map(coordinate(2), [0, 0]) == (0, 0)

    def test_point_between_two_cuts(self):
        assert sign_map(line_two_cuts(), [Fraction(1, 2)]) == (1, -1)

    def test_dimension_mismatch(self):
        with pytest.raises(InputError, match="dimension"):
            sign_map(line_origin(), [1, 2])

    def test_exact_rational_boundary(self):
        arr = Arrangement(1, [(Fraction(-1, 3), 1)])
        assert sign_map(arr, [Fraction(1, 3)]) == (0,)


class TestEnumerateFaces:
    def test_single_hyperplane_has_three_faces(self):
        faces = enumerate_faces(line_origin())
        assert [f.label for f in faces] == ["-", "0", "+"]

    def test_coordinate_plane_has_all_nine(self):
        faces = enumerate_faces(coordinate(2))
        assert len(faces) == 9
        assert {f.signs for f in faces} == set(
            itertools.product((-1, 0, 1), repeat=2))

    def test_two_cuts_feasible_set_matches_sampling_oracle(self):
        arr = line_two_cuts()
        faces = enumerate_faces(arr)
        labels = [f.label for f in faces]
        assert labels == ["--", "0-", "+-", "+0", "++"]
        coords = [Fraction(v) for v in (-2, -1, Fraction(-1, 2), 0,
                                        Fraction(1, 4), Fraction(1, 2), 1, 2)]
        assert {f.signs for f in faces} == sampled_sign_vectors(arr, coords)

    def test_three_lines_match_sampling_oracle(self):
        arr = three_lines()
        faces = enumerate_faces(arr)
        assert len(faces) == 13
        coords = [Fraction(v) for v in (-2, -1, 0, 1, 2)]
        assert {f.signs for f in faces} == sampled_sign_vectors(arr, coords)

    def test_redundant_forms_collapse_the_sign_tree(self):
        arr = Arrangement(1, [(0, 1), (0, 2)])
        faces = enumerate_faces(arr)
        assert [f.label for f in faces] == ["--", "00", "++"]

    def test_witnesses_reproduce_signs(self):
        for arr in (line_origin(), line_two_cuts(), coordinate(2), three_lines()):
            for face in enumerate_faces(arr):
                assert sign_map(arr, face.witness) == face.signs

    def test_lexicographic_order(self):
        faces = enumerate_faces(coordinate(2))
        labels = [f.label for f in faces]
        assert labels == sorted(labels, key=lambda s: [" -0+".index(c) for c in s])

    def test_cap(self):
        arr = Arrangement(1, [(i, 1) for i in range(13)])
        with pytest.raises(CapExceeded):
            enumerate_faces(arr)


def onedim_faces_oracle(arr, forms):
    """Complete independent enumeration in dimension 1: the sign vector is
    constant between consecutive roots, so roots, midpoints, and outer points
    realize every face exactly once."""
    roots = sorted({-f[0] / f[1] for f in forms})
    candidates = list(roots)
    candidates += [(a + b) / 2 for a, b in zip(roots, roots[1:])]
    candidates += [roots[0] - 1, roots[-1] + 1]
    return {sign_map(arr, (x,)) for x in candidates}


class TestOneDimOracle:
    @pytest.mark.parametrize("seed", range(20))
    def test_random_line_arrangements(self, seed):
        rng = __import__("random").Random(seed)
        k = rng.randint(1, 5)
        forms = [(Fraction(rng.randint(-4, 4)), Fraction(rng.choice([-2, -1, 1, 2])))
                 for _ in range(k)]
        arr = Arrangement(1, forms)
        enumerated = {f.signs for f in enumerate_faces(arr)}
        assert enumerated == onedim_faces_oracle(arr, forms)


class TestFacePoset:
    def test_single_hyperplane_is_the_three_point_line(self, ex1_poset):
        poset = face_poset(line_origin())
        mapping = {"-": "N", "0": "O", "+": "P"}
        assert is_order_isomorphism(mapping, poset, ex1_poset)

    def test_coordinate_plane_is_the_grid(self, ex1_poset):
        faces = enumerate_faces(coordinate(2))
        poset = face_poset(coordinate(2), faces)
        grid = product([ex1_poset, ex1_poset])
        letter = {"-": "N", "0": "O", "+": "P"}
        natural = {f.label: product_label(letter[c] for c in f.label) for f in faces}
        assert is_order_isomorphism(natural, poset, grid)

    def test_three_lines_cover_structure(self):
        faces = enumerate_faces(three_lines())
        poset = face_poset(three_lines(), faces)
        covers = poset.covering_pairs()
        sectors = [f.label for f in faces if f.signs.count(0) == 0]
        rays = [f.label for f in faces if f.signs.count(0) == 1]
        assert len(sectors) == 6 and len(rays) == 6
        for s in sectors:
            assert sum(1 for a, b in covers if b == s and a in rays) == 2
        for r in rays:
            below = [a for a, b in covers if b == r]
            assert below == ["000"]

    def test_bottom_element_of_central_arrangements(self):
        for arr in (line_origin(), coordinate(2), coordinate(3), three_lines()):
            assert arr.is_central()
            poset = face_poset(arr)
            bottom = "0" * arr.k
            assert all(poset.leq(bottom, x) for x in poset.carrier)

    def test_non_central_has_no_all_zero_face(self):
        arr = line_two_cuts()
        assert not arr.is_central()
        assert "00" not in [f.label for f in enumerate_faces(arr)]


class TestCoordinatePowers:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_face_count_and_product_isomorphism(self, n, ex1_poset):
        arr = coordinate(n)
        faces = enumerate_faces(arr)
        assert len(faces) == 3 ** n
        poset = face_poset(arr, faces)
        power = product([ex1_poset] * n)
        letter = {"-": "N", "0": "O", "+": "P"}
        natural = {
            f.label: product_label(letter[c] for c in f.label) for f in faces
        }
        assert is_order_isomorphism(natural, poset, power)


class TestClosureInclusion:
    def test_origin_in_closure_of_positive_ray(self):
        faces = {f.label: f for f in enumerate_faces(line_origin())}
        assert closure_inclusion(line_origin(), faces["0"], faces["+"])

    def test_reflexive(self):
        arr = three_lines()
        for f in enumerate_faces(arr):
            assert closure_inclusion(arr, f, f)

    def test_cut_point_not_in_closure_of_far_ray(self):
        arr = line_two_cuts()
        faces = {f.label: f for f in enumerate_faces(arr)}
        assert not closure_inclusion(arr, faces["0-"], faces["++"])

    @pytest.mark.parametrize("arr", [
        line_origin(),
        line_two_cuts(),
        Arrangement(1, [(0, 1), (0, 2)]),
        coordinate(2),
        three_lines(),
        Arrangement(1, [(0, 1), (-1, 1), (1, 1), (-3, 2), (2, 1)]),
    ], ids=["x", "x,x-1", "x,2x", "x,y", "3lines", "k5-line"])
    def test_componentwise_order_agrees_with_oracle(self, arr):
        faces = enumerate_faces(arr)
        poset = face_poset(arr, faces)
        for a in faces:
            for b in faces:
                assert poset.leq(a.label, b.label) == closure_inclusion(arr, a, b)


def early_exit_closure_oracle(dim, forms, f, g):
    """Pairwise reference: f lies in the closure of g iff no point of f
    violates a weak constraint of g.  Builds its systems from the forms and
    stops at the first feasible violation."""
    _, eqs, ineqs = _system(dim, forms, f.signs)
    for form, s in zip(forms, g.signs):
        for side in (-1, 1):
            if side == s:  # the closure of g keeps the side g lies on
                continue
            _, _, violation = _system(dim, [form], (side,))
            if feasible((dim, eqs, ineqs + violation)):
                return False
    return True


def random_forms(rng, dim, k):
    forms = []
    for _ in range(k):
        form = [Fraction(rng.randint(-4, 4), rng.choice([1, 1, 2, 3]))
                for _ in range(dim + 1)]
        if not any(form[1:]):
            form[1 + rng.randrange(dim)] = Fraction(rng.choice([-1, 1]))
        forms.append(form)
    return forms


RANDOM_SHAPES = [(2, k) for k in range(2, 7)] + [(3, k) for k in range(2, 5)]


class TestClosureTableDifferential:
    @pytest.mark.parametrize("dim,k", RANDOM_SHAPES)
    def test_mask_test_matches_early_exit_oracle(self, dim, k):
        rng = random.Random(1000 * dim + k)
        forms = random_forms(rng, dim, k)
        arr = Arrangement(dim, forms)
        assert any(c.denominator > 1 for form in forms for c in form)
        faces = enumerate_faces(arr)
        poset = face_poset(arr, faces)
        pairs = [(a, b) for a in faces for b in faces]
        below = [(a, b) for a, b in pairs if poset.leq(a.label, b.label)]
        sample = rng.sample(pairs, min(40, len(pairs)))
        sample += rng.sample(below, min(20, len(below)))
        rows = closure_rows(arr, faces)
        index = {f.signs: i for i, f in enumerate(faces)}
        for a, b in sample:
            expected = early_exit_closure_oracle(dim, forms, a, b)
            assert closure_inclusion(arr, a, b) == expected
            assert bool(rows[index[a.signs]] >> index[b.signs] & 1) == expected
            assert poset.leq(a.label, b.label) == expected

    @pytest.mark.parametrize("dim,k", [(2, 6), (3, 4)])
    @pytest.mark.parametrize("dual", [False, True], ids=["primal", "dual"])
    def test_cli_check_ob_has_no_disagreements(self, dim, k, dual, tmp_path, capsys):
        forms = random_forms(random.Random(1000 * dim + k), dim, k)
        path = tmp_path / "arr.json"
        path.write_text(json.dumps({
            "dim": dim, "forms": [[str(c) for c in form] for form in forms]}))
        argv = ["arrangement", "check-ob", "--input", str(path)]
        assert cli.main(argv + ["--dual"] if dual else argv) == 0
        results = json.loads(capsys.readouterr().out)["results"]
        assert results["disagreements"] == []
        assert results["pairs_checked"] == len(enumerate_faces(Arrangement(dim, forms))) ** 2


def reference_faces(dim, forms):
    """Face enumeration that rebuilds every prefix with _system from the forms
    and solves it, with no carried rows and no skipped solves."""
    faces = []

    def walk(prefix):
        for s in (-1, 0, 1):
            candidate = prefix + (s,)
            w = solve(*_system(dim, forms, candidate))
            if w is None:
                continue
            if len(candidate) == len(forms):
                faces.append(Face(candidate, w))
            else:
                walk(candidate)

    walk(())
    return faces


def parallel_forms(rng, dim, k):
    """Random forms, then a rescaled parallel copy of the first one."""
    forms = random_forms(rng, dim, k - 1)
    first = forms[0]
    shift = Fraction(rng.choice([-3, -1, 1, 2]), rng.choice([1, 2]))
    copy = [first[0] * Fraction(-2, 3) + shift] + [c * Fraction(-2, 3) for c in first[1:]]
    return forms + [copy]


def concurrent_forms(rng, dim, k):
    """k random forms through one common rational point."""
    point = [Fraction(rng.randint(-3, 3), rng.choice([1, 2, 3])) for _ in range(dim)]
    forms = []
    for form in random_forms(rng, dim, k):
        coeffs = list(form[1:])
        forms.append([-sum(c * x for c, x in zip(coeffs, point))] + coeffs)
    return forms


DIFFERENTIAL_SHAPES = [(1, 5), (2, 5), (2, 7), (3, 4), (3, 5), (4, 4), (4, 5)]
BUILDERS = {"random": random_forms, "parallel": parallel_forms,
            "concurrent": concurrent_forms}


class TestIncrementalEnumeration:
    @pytest.mark.parametrize("kind", sorted(BUILDERS))
    @pytest.mark.parametrize("dim,k", DIFFERENTIAL_SHAPES)
    def test_matches_rebuild_every_prefix_reference(self, dim, k, kind):
        rng = random.Random(f"{kind}/{dim}/{k}")
        forms = BUILDERS[kind](rng, dim, k)
        # a positive rescaling keeps the hyperplane and makes coefficients
        # non-integer (every nonzero one is at most 4 in absolute value)
        forms = [[c / 7 for c in forms[0]], *forms[1:]]
        got = enumerate_faces(Arrangement(dim, forms))
        expected = reference_faces(dim, forms)
        assert got == expected
        assert all(type(c) is Fraction for face in got for c in face.witness)

    def test_concurrent_forms_meet_in_one_vertex(self):
        arr = Arrangement(3, concurrent_forms(random.Random(7), 3, 5))
        vertices = [f for f in enumerate_faces(arr) if not any(f.signs)]
        assert len(vertices) == 1

    def test_parallel_forms_never_vanish_together(self):
        arr = Arrangement(2, parallel_forms(random.Random(8), 2, 4))
        assert all(f.signs[0] or f.signs[-1] for f in enumerate_faces(arr))

    def test_rows_are_positive_multiples_of_the_forms(self):
        forms = random_forms(random.Random(9), 3, 6)
        arr = Arrangement(3, forms)
        for form, row in zip(forms, arr.rows):
            assert all(type(v) is int for v in row)
            nonzero = [(r, c) for r, c in zip(row, (*form[1:], form[0])) if c]
            ratio = nonzero[0][0] / nonzero[0][1]
            assert ratio > 0
            assert all(r == ratio * c for r, c in zip(row, (*form[1:], form[0])))


def central_forms(rng, dim, k):
    """k random forms through the origin."""
    return [[0, *form[1:]] for form in random_forms(rng, dim, k)]


def repeated_normal_forms(rng, dim, k):
    """Random forms, one of them repeated, and copies of another's normal
    scaled by -1 and 2, each with a new constant."""
    forms = random_forms(rng, dim, max(k - 3, 1))
    normal = forms[-1][1:]
    forms.append(list(forms[0]))
    for scale in (-1, 2):
        forms.append([Fraction(rng.randint(-3, 3)), *(scale * c for c in normal)])
    return forms


LABEL_BUILDERS = {**BUILDERS, "central": central_forms, "repeated": repeated_normal_forms}


class TestCocircuitLabelsDifferential:
    """The cocircuit labels and the witnesses of their systems against the
    reference sign tree, which solves every prefix it does not skip."""

    @pytest.mark.parametrize("kind", sorted(LABEL_BUILDERS))
    @pytest.mark.parametrize("dim", [1, 2, 3, 4])
    def test_labels_and_witnesses_match_the_sign_tree(self, dim, kind):
        for seed in range(6):
            rng = random.Random(f"labels/{kind}/{dim}/{seed}")
            forms = LABEL_BUILDERS[kind](rng, dim, rng.randint(2, 7 if dim < 4 else 5))
            arr = Arrangement(dim, forms)
            expected = sign_tree_faces(arr)
            assert face_signs(arr) == [f.signs for f in expected]
            assert enumerate_faces(arr) == expected

    def test_cap_on_faces_is_raised_while_the_closure_grows(self, monkeypatch):
        arr = coordinate(4)  # 81 faces
        monkeypatch.setattr(arrangement, "MAX_FACES", 80)
        with pytest.raises(CapExceeded, match="more than 80 faces"):
            face_signs(arr)
        monkeypatch.setattr(arrangement, "MAX_FACES", 81)
        assert len(face_signs(arr)) == 81

    def test_a_flipped_cocircuit_fails_the_witness_check(self, monkeypatch, tmp_path, capsys):
        """One sign of the first cocircuit that is + on v0 flipped: some
        labels have no point, so their systems have no solution."""
        cocircuits = arrangement.cocircuits

        def one_sign_flipped(arr):
            out = cocircuits(arr)
            i = next(i for i, (pos, _) in enumerate(out) if pos >> arr.k & 1)
            pos, neg = out[i]
            lowest = (pos | neg) & -(pos | neg)
            out[i] = (pos ^ lowest, neg ^ lowest)
            return out

        monkeypatch.setattr(arrangement, "cocircuits", one_sign_flipped)
        path = tmp_path / "arr.json"
        path.write_text(json.dumps({"dim": 2, "forms": [[0, 1, 0], [0, 0, 1], [1, 1, -1]]}))
        assert cli.main(["arrangement", "faces", "--input", str(path)]) == 1
        doc = json.loads(capsys.readouterr().out)
        checks = {c["name"]: c["pass"] for c in doc["checks"]}
        assert checks["witness signs recompute exactly"] is False
        assert None in [f["witness"] for f in doc["results"]["faces"]]
        # the oracle gives a face without a witness an empty row
        assert cli.main(["arrangement", "check-ob", "--input", str(path)]) == 1
        unrealized = [f["signs"] for f in doc["results"]["faces"] if f["witness"] is None]
        disagreements = json.loads(capsys.readouterr().out)["results"]["disagreements"]
        assert [[x, x] for x in unrealized] == [pair for pair in disagreements
                                                if pair[0] == pair[1]]

    def test_every_flipped_cocircuit_sign_that_moves_a_label_fails_a_check(
            self, monkeypatch, tmp_path, capsys):
        arr = Arrangement(2, [[0, 1, 0], [0, 0, 1], [1, 1, -1]])
        path = tmp_path / "arr.json"
        path.write_text(json.dumps({"dim": 2, "forms": [[0, 1, 0], [0, 0, 1], [1, 1, -1]]}))
        cocircuits = arrangement.cocircuits
        expected = face_signs(arr)
        moved = 0
        for index in range(len(cocircuits(arr))):
            for bit in range(arr.k):
                def flipped(arr, index=index, bit=bit):
                    out = cocircuits(arr)
                    pos, neg = out[index]
                    if (pos | neg) >> bit & 1:
                        out[index] = (pos ^ 1 << bit, neg ^ 1 << bit)
                    return out

                monkeypatch.setattr(arrangement, "cocircuits", flipped)
                if face_signs(arr) == expected:
                    continue
                moved += 1
                assert cli.main(["arrangement", "faces", "--input", str(path)]) == 1
                capsys.readouterr()
        assert moved


def solved_prefixes(monkeypatch, forms):
    """Enumerate the faces of the arrangement of forms in the plane and
    return each solved prefix in call order with the solver's answer.
    Prefixes are recovered from their rows."""
    prefixes = {}
    for depth in range(1, len(forms) + 1):
        for signs in itertools.product((-1, 0, 1), repeat=depth):
            _, eqs, ineqs = _system(2, forms, signs)
            prefixes[(tuple(eqs), tuple(ineqs))] = signs
    assert len(prefixes) == sum(3 ** d for d in range(1, len(forms) + 1))
    calls = []

    def counting_solve(n, eqs, ineqs):
        w = solve(n, eqs, ineqs)
        calls.append((prefixes[(tuple(eqs), tuple(ineqs))], w))
        return w

    monkeypatch.setattr(reference, "solve", counting_solve)
    faces = sign_tree_faces(Arrangement(2, forms))
    return faces, calls


class TestSolveSkip:
    """The skips of the reference sign tree, the oracle of
    TestCocircuitLabelsDifferential."""

    FORMS = [(0, 1, 0), (-1, 1, 1), (Fraction(1, 2), -1, 2), (2, 0, 1),
             (Fraction(-1, 3), 1, -1)]
    ARR = Arrangement(2, FORMS)

    def test_no_interior_prefix_realized_by_its_parent_point_is_solved(
            self, monkeypatch):
        arr = self.ARR
        faces, calls = solved_prefixes(monkeypatch, self.FORMS)
        solved = dict(calls)
        assert len(solved) == len(calls)  # no prefix is solved twice
        assert faces == reference_faces(2, self.FORMS)
        # The realizing point of every feasible prefix: its own witness when
        # solved, otherwise the point of its parent.
        point = {(): None}
        feasible_prefixes = sorted({f.signs[:d] for f in faces
                                    for d in range(1, arr.k + 1)}, key=len)
        for prefix in feasible_prefixes:
            point[prefix] = solved.get(prefix) or point[prefix[:-1]]
            assert sign_map(arr, point[prefix])[:len(prefix)] == prefix
        skipped = 0
        for prefix in feasible_prefixes:
            parent, i = prefix[:-1], len(prefix) - 1
            if len(prefix) == arr.k:
                assert prefix in solved  # leaves are always solved
                continue
            answered = (point[parent] is not None
                        and sign_map(arr, point[parent])[i] == prefix[-1])
            assert (prefix in solved) != answered, prefix
            skipped += answered
        assert skipped > 0
        # Every solve either finds a witness or prunes the sign tree.
        assert all(w is not None or p not in point for p, w in calls)

    def test_skips_cut_the_solve_count(self, monkeypatch):
        arr = self.ARR
        faces, calls = solved_prefixes(monkeypatch, self.FORMS)
        # the reference solves the three children of the root and of every
        # feasible interior prefix
        interior = {f.signs[:d] for f in faces for d in range(1, arr.k)}
        assert len(calls) < 3 * (1 + len(interior))


def pairwise_sign_order(faces):
    """Reference rows: bit j of row i iff faces[i] <= faces[j] componentwise,
    with 0 below both - and +."""
    return [sum(1 << j for j, g in enumerate(faces)
                if all(x == 0 or x == y for x, y in zip(f.signs, g.signs)))
            for f in faces]


class TestBitsetFacePoset:
    @pytest.mark.parametrize("kind", sorted(BUILDERS))
    @pytest.mark.parametrize("dim,k", [(1, 4), (2, 6), (3, 5), (4, 4)])
    def test_rows_match_pairwise_reference(self, dim, k, kind):
        forms = BUILDERS[kind](random.Random(f"poset/{kind}/{dim}/{k}"), dim, k)
        arr = Arrangement(dim, forms)
        faces = enumerate_faces(arr)
        poset = face_poset(arr, faces)
        assert list(poset.up) == pairwise_sign_order(faces)
        assert list(poset.carrier) == [f.label for f in faces]


class TestCheckObDisagreements:
    FLIPS = [(4, 0), (0, 7), (4, 2), (9, 9), (12, 3)]  # (row i, bit j) of the oracle

    def run_check_ob(self, monkeypatch, tmp_path, capsys, dual):
        original = arrangement.closure_rows

        def flipped(arr, faces):
            rows = original(arr, faces)
            for i, j in self.FLIPS:
                rows[i] ^= 1 << j
            return rows

        monkeypatch.setattr(arrangement, "closure_rows", flipped)
        path = tmp_path / "arr.json"
        path.write_text(json.dumps({"dim": 2, "forms": [list(f) for f in
                                                        [(0, 1, 0), (0, 0, 1), (0, 1, -1)]]}))
        argv = ["arrangement", "check-ob", "--input", str(path)]
        code = cli.main(argv + ["--dual"] if dual else argv)
        return code, json.loads(capsys.readouterr().out)

    def test_primal_lists_the_flipped_pairs_row_major(self, monkeypatch, tmp_path, capsys):
        code, doc = self.run_check_ob(monkeypatch, tmp_path, capsys, dual=False)
        labels = [f.label for f in enumerate_faces(three_lines())]
        assert code == 1
        assert doc["results"]["disagreements"] == [
            [labels[i], labels[j]] for i, j in sorted(self.FLIPS)]
        assert doc["results"]["pairs_checked"] == 13 ** 2

    def test_dual_lists_the_transposed_flips_row_major(self, monkeypatch, tmp_path, capsys):
        code, doc = self.run_check_ob(monkeypatch, tmp_path, capsys, dual=True)
        labels = [f.label for f in enumerate_faces(three_lines())]
        assert code == 1
        assert doc["results"]["disagreements"] == [
            [labels[j], labels[i]] for j, i in sorted((j, i) for i, j in self.FLIPS)]


class TestWitnessOracle:
    """The oracle evaluates the forms at the witnesses: it solves nothing
    and reads no label."""

    @pytest.mark.parametrize("kind", sorted(BUILDERS))
    @pytest.mark.parametrize("dim,k", [(1, 5), (2, 6), (3, 4)])
    def test_returns_with_a_solver_that_raises(self, dim, k, kind, monkeypatch):
        forms = BUILDERS[kind](random.Random(f"nosolve/{kind}/{dim}/{k}"), dim, k)
        arr = Arrangement(dim, forms)
        faces = enumerate_faces(arr)
        expected = pairwise_sign_order(faces)

        def refuse(n, eqs, ineqs):
            raise AssertionError("the closure oracle solved a system")

        monkeypatch.setattr(feasibility, "solve", refuse)
        assert closure_rows(arr, faces) == expected
        for i, a in enumerate(faces):
            for j, b in enumerate(faces):
                assert closure_inclusion(arr, a, b) == bool(expected[i] >> j & 1)

    @pytest.mark.parametrize("kind", sorted(BUILDERS))
    def test_rows_ignore_permuted_labels(self, kind):
        rng = random.Random(f"relabel/{kind}")
        arr = Arrangement(2, BUILDERS[kind](rng, 2, 5))
        faces = enumerate_faces(arr)
        labels = [f.signs for f in faces]
        rng.shuffle(labels)
        relabelled = [Face(signs, f.witness) for signs, f in zip(labels, faces)]
        assert pairwise_sign_order(relabelled) != pairwise_sign_order(faces)
        rows = closure_rows(arr, faces)
        assert closure_rows(arr, relabelled) == rows
        for i, a in enumerate(relabelled):
            for j, b in enumerate(relabelled):
                assert closure_inclusion(arr, a, b) == bool(rows[i] >> j & 1)


def differing_pairs(got, expected):
    """(i, j) for every bit j where row i of got and of expected differ."""
    return [(i, j) for i, (a, b) in enumerate(zip(got, expected)) for j in bit_indices(a ^ b)]


class TestCheckObCatchesWhatItGuards:
    def run_check_ob(self, tmp_path, capsys, dual):
        path = tmp_path / "arr.json"
        path.write_text(json.dumps({"dim": 2, "forms": [[0, 1, 0], [0, 0, 1], [0, 1, -1]]}))
        argv = ["arrangement", "check-ob", "--input", str(path)]
        code = cli.main(argv + ["--dual"] if dual else argv)
        return code, json.loads(capsys.readouterr().out)["results"]

    @staticmethod
    def expected_disagreements(labels, pairs, dual):
        if dual:
            pairs = sorted((j, i) for i, j in pairs)
        return [[labels[i], labels[j]] for i, j in pairs]

    @pytest.mark.parametrize("dual", [False, True], ids=["primal", "dual"])
    def test_a_face_poset_that_ignores_a_form_fails(self, monkeypatch, tmp_path, capsys,
                                                     dual):
        def ignores_last_form(arr, faces=None):
            return Preorder([f.label for f in faces], pairwise_sign_order(
                [Face(f.signs[:-1], f.witness) for f in faces]))

        monkeypatch.setattr(arrangement, "face_poset", ignores_last_form)
        code, results = self.run_check_ob(tmp_path, capsys, dual)
        faces = enumerate_faces(three_lines())
        wrong = pairwise_sign_order([Face(f.signs[:-1], f.witness) for f in faces])
        pairs = differing_pairs(wrong, pairwise_sign_order(faces))
        assert pairs
        assert code == 1
        assert results["disagreements"] == self.expected_disagreements(
            [f.label for f in faces], pairs, dual)

    @pytest.mark.parametrize("dual", [False, True], ids=["primal", "dual"])
    def test_a_face_labelled_off_its_witness_fails(self, monkeypatch, tmp_path, capsys, dual):
        original = arrangement.enumerate_faces

        def swapped_labels(arr):
            faces = original(arr)
            first, last = faces[0], faces[-1]
            faces[0], faces[-1] = Face(last.signs, first.witness), Face(first.signs, last.witness)
            return faces

        monkeypatch.setattr(arrangement, "enumerate_faces", swapped_labels)
        code, results = self.run_check_ob(tmp_path, capsys, dual)
        faces = original(three_lines())
        labelled = swapped_labels(three_lines())
        pairs = differing_pairs(pairwise_sign_order(labelled), pairwise_sign_order(faces))
        assert pairs
        assert code == 1
        assert results["disagreements"] == self.expected_disagreements(
            [f.label for f in labelled], pairs, dual)
