import json
import random
import sys
from fractions import Fraction

import pytest

from stratikit import jsonio, order
from stratikit.cli import main
from stratikit.corpus import CASE_NAMES, golden
from stratikit.errors import CapExceeded, InputError

from catalog import category_chain3, representable_functor


class TestRelatedPairCap:
    """``dump_preorder`` counts the related pairs off the rows and refuses
    more than MAX_PAIRS before it lists any."""

    @staticmethod
    def chain(n):
        return order.Preorder([f"p{i}" for i in range(n)],
                              [(1 << n) - (1 << i) for i in range(n)])

    def test_the_2048_chain_is_listed_and_the_4096_chain_refused(self, monkeypatch):
        monkeypatch.setattr(order.Preorder, "pairs", lambda self: [])
        assert jsonio.dump_preorder(self.chain(2048))["pairs"] == []
        with pytest.raises(CapExceeded, match="preorder has 8386560 related pairs"):
            jsonio.dump_preorder(self.chain(4096))

    def test_a_preorder_at_the_cap_is_listed(self, monkeypatch):
        monkeypatch.setattr(jsonio, "MAX_PAIRS", 10)
        assert len(jsonio.dump_preorder(self.chain(5))["pairs"]) == 10

    def test_one_pair_past_the_cap_is_refused_before_any_pair_is_listed(self, monkeypatch):
        def refuse(self):
            raise AssertionError("listed a pair")

        monkeypatch.setattr(jsonio, "MAX_PAIRS", 9)
        monkeypatch.setattr(order.Preorder, "pairs", refuse)
        with pytest.raises(CapExceeded, match="preorder has 10 related pairs, cap is 9"):
            jsonio.dump_preorder(self.chain(5))


class TestRationals:
    def test_integers_pass_through(self):
        assert jsonio.parse_rational(3) == Fraction(3)

    def test_strings_parse(self):
        assert jsonio.parse_rational("-2/6") == Fraction(-1, 3)

    def test_lowest_terms_output_with_sign_on_numerator(self):
        assert jsonio.format_point(((-2, 12, 0, 7), 6)) == ["-1/3", "2", "0", "7/6"]

    def test_point_prints_as_str_of_fraction(self):
        rng = random.Random(5)
        for _ in range(500):
            d = rng.randint(1, 10 ** rng.randint(1, 25))
            nums = [rng.randint(-10 ** 25, 10 ** 25) for _ in range(rng.randint(1, 4))]
            assert jsonio.format_point((nums, d)) == [str(Fraction(v, d)) for v in nums]

    def test_coordinate_past_the_bit_cap_is_refused_at_forms(self):
        """Up to 3.32 bits a digit every accepted coordinate prints within
        MAX_INT_DIGITS digits; one bit more is refused, in numerator or
        denominator alike, after reducing to lowest terms."""
        cap = jsonio.MAX_INT_DIGITS * 332 // 100
        widest = (1 << cap) - 1
        assert len(jsonio.format_point(((widest,), 1))[0]) <= jsonio.MAX_INT_DIGITS
        assert jsonio.format_point(((-widest, 1), widest)) == ["-1", f"1/{widest}"]
        assert jsonio.format_point(((2 * widest,), 2)) == [str(widest)]
        for point in [((1 << cap,), 1), ((-1 << cap,), 1), ((1,), 1 << cap)]:
            with pytest.raises(CapExceeded) as err:
                jsonio.format_point(point)
            assert err.value.path == "forms"
            assert str(err.value) == (f"witness coordinate has {cap + 1} bits, "
                                      f"cap is {cap} ({jsonio.MAX_INT_DIGITS} digits)")

    def test_bad_string_names_path(self):
        with pytest.raises(InputError) as err:
            jsonio.parse_rational("x/y", path="forms[0][1]")
        assert err.value.path == "forms[0][1]"

    def test_boolean_rejected(self):
        with pytest.raises(InputError):
            jsonio.parse_rational(True)


def dump_arrangement(dim, forms):
    return {
        "dim": dim,
        "forms": [[str(Fraction(c)) for c in f] for f in forms],
    }


def dump_category(cat):
    return {
        "objects": list(cat.objects),
        "homs": {
            f"{x}→{y}": list(ms)
            for (x, y), ms in sorted(cat.hom_table.items()) if ms
        },
        "identities": dict(sorted(cat.identity.items())),
        "compose": sorted([g, f, cat.compose(g, f)] for g in cat.morphisms
                          for f in cat.morphisms if cat.dom[g] == cat.cod[f]),
    }


def dump_functor(fun):
    return {
        "variance": fun.variance,
        "on_objects": {x: list(v) for x, v in sorted(fun.on_objects.items())},
        "on_morphisms": {
            m: dict(sorted(fn.items()))
            for m, fn in sorted(fun.on_morphisms.items())
        },
    }


class TestRoundTrips:
    def test_preorder(self):
        doc = {"carrier": ["N", "O", "P"], "pairs": [["O", "N"], ["O", "P"]]}
        p = jsonio.load_preorder(doc)
        again = jsonio.load_preorder(jsonio.dump_preorder(p))
        assert again == p

    def test_pairs_are_generators_closure_applied(self):
        doc = {"carrier": ["a", "b", "c"], "pairs": [["a", "b"], ["b", "c"]]}
        p = jsonio.load_preorder(doc)
        assert p.leq("a", "c")

    def test_topology_from_opens(self):
        doc = {"carrier": ["p", "q"], "opens": [[], ["p", "q"]]}
        t = jsonio.load_topology(doc)
        assert jsonio.load_topology(jsonio.dump_topology(t)) == t

    def test_topology_from_preorder_pairs(self):
        doc = {"carrier": ["N", "O", "P"],
               "preorder_pairs": [["O", "N"], ["O", "P"]]}
        t = jsonio.load_topology(doc)
        assert len(t.opens) == 5

    def test_topology_needs_one_of_the_two_forms(self):
        with pytest.raises(InputError):
            jsonio.load_topology({"carrier": ["p"]})

    def test_decomposition(self):
        doc = {
            "space": {"carrier": ["0", "1", "2"],
                      "preorder_pairs": [["0", "1"], ["1", "2"]]},
            "blocks": [["0", "2"], ["1"]],
        }
        d = jsonio.load_decomposition(doc)
        again = jsonio.load_decomposition(jsonio.dump_decomposition(d))
        assert again.labels == d.labels
        assert again.blocks == d.blocks

    def test_arrangement(self):
        doc = {"dim": 2, "forms": [["-1/2", 1, 0], [0, 0, "2/3"]]}
        a = jsonio.load_arrangement(doc)
        forms = [[jsonio.parse_rational(c) for c in f] for f in doc["forms"]]
        again = jsonio.load_arrangement(dump_arrangement(a.dim, forms))
        assert (again.dim, again.rows) == (a.dim, a.rows) == (2, ((2, 0, -1), (0, 1, 0)))

    @pytest.mark.parametrize("forms, kind, message, at", [
        ([5], InputError, "each form must be a coefficient list", "forms[0]"),
        ([[0, "1/0"]], InputError, "cannot parse rational '1/0'", "forms[0][1]"),
        ([[0, 1, 2]], InputError, "form 0 has 3 coefficients, expected 2", "forms[0]"),
        ([[1, 0]], InputError, "form 0 has no variable part and cuts out no hyperplane",
         "forms[0]"),
        # strings outside "-?digits" and "-?digits/digits", which Fraction
        # reads on some Python versions or all of them
        *(([[text, 1]], InputError, f"cannot parse rational {text!r}", "forms[0][0]")
          for text in ("1/ 2", "1_0", "0.5", "1e3", "+1", " 1", "1/-2", "-/2", "\u0661", "")),
        ([["1" * 4301 + "/3", 1]], CapExceeded, "rational part has 4301 digits, cap is 4300",
         "forms[0][0]"),
        ([["-1/" + "7" * 4301, 1]], CapExceeded, "rational part has 4301 digits, cap is 4300",
         "forms[0][0]"),
    ], ids=["not-a-list", "coefficient", "length", "no-variable-part",
            *(f"grammar-{i}" for i in range(10)), "long-numerator", "long-denominator"])
    def test_arrangement_refusals_carry_the_document_path(self, forms, kind, message, at):
        for path, expected in (("", at), ("arr", f"arr.{at}")):
            with pytest.raises(kind) as err:
                jsonio.load_arrangement({"dim": 1, "forms": forms}, path=path)
            assert (type(err.value), str(err.value), err.value.path) == (kind, message, expected)

    @pytest.mark.parametrize("text, value", [
        ("3", Fraction(3)), ("-3", Fraction(-3)), ("-0", Fraction(0)), ("007/014", Fraction(1, 2)),
        ("-6/4", Fraction(-3, 2)), ("9" * 4300 + "/" + "1" * 4300, Fraction(int("9" * 4300),
                                                                      int("1" * 4300)))])
    def test_rational_strings_of_the_grammar(self, text, value):
        assert jsonio.parse_rational(text) == value

    def test_category_with_both_arrow_spellings(self):
        doc = {
            "objects": ["A", "B"],
            "homs": {"A->B": ["u"], "A→A": ["idA"], "B->B": ["idB"]},
            "identities": {"A": "idA", "B": "idB"},
            "compose": [["idA", "idA", "idA"], ["u", "idA", "u"],
                        ["idB", "u", "u"], ["idB", "idB", "idB"]],
        }
        cat = jsonio.load_category(doc)
        again = jsonio.load_category(dump_category(cat))
        assert again.morphisms == cat.morphisms
        assert again.hom("A", "B") == ("u",)

    def test_bad_hom_key(self):
        with pytest.raises(InputError):
            jsonio.load_category({
                "objects": ["A"], "homs": {"A": ["i"]},
                "identities": {"A": "i"}, "compose": []})

    def test_functor(self):
        cat = category_chain3()
        fun = representable_functor(cat, "C")
        again = jsonio.load_functor(cat, dump_functor(fun))
        assert again.on_objects == fun.on_objects
        assert again.on_morphisms == fun.on_morphisms


def reference_dumps(doc):
    return json.dumps(doc, indent=2, ensure_ascii=False)


ODD_TEXT = ["", "plain", 'say "hi"', "back\\slash", "tab\tnew\nline\r", "\x00\x1f\x7f",
            "é→∂", "  ", "😀", "/</script>"]


def random_document(rng, depth=0):
    """A nested document of every accepted type, with awkward strings and
    non-str keys."""
    kind = rng.randrange(9 if depth < 4 else 5)
    if kind == 0:
        return rng.choice(ODD_TEXT) + str(rng.randrange(3))
    if kind == 1:
        return rng.choice([0, -1, 7, 2 ** 70, -(3 ** 50)])
    if kind == 2:
        return rng.choice([True, False, None])
    if kind == 3:
        return rng.choice([[], {}, ()])
    if kind == 4:
        return [rng.choice(ODD_TEXT) for _ in range(rng.randrange(1, 4))]
    if kind in (5, 6):
        items = [random_document(rng, depth + 1) for _ in range(rng.randrange(1, 4))]
        return items if kind == 5 else tuple(items)
    keys = [rng.choice(ODD_TEXT), rng.randrange(-5, 5), True, False, None, "k"]
    return {rng.choice(keys): random_document(rng, depth + 1)
            for _ in range(rng.randrange(1, 5))}


class TestCanonicalDumps:
    @pytest.mark.parametrize("case", CASE_NAMES)
    def test_every_corpus_report_and_golden_file(self, capsys, case):
        assert main(["corpus", "run", case]) == 0
        out = capsys.readouterr().out
        report = json.loads(out)
        assert jsonio.canonical_dumps(report) + "\n" == out
        assert jsonio.canonical_dumps(report) == reference_dumps(report)
        golden_doc = golden(case)
        assert jsonio.canonical_dumps(golden_doc) == reference_dumps(golden_doc)

    @pytest.mark.parametrize("seed", range(40))
    def test_seeded_documents(self, seed):
        rng = random.Random(seed)
        doc = {"root": [random_document(rng) for _ in range(6)],
               1: random_document(rng), None: ("a", "b"), False: [[], [{}]]}
        assert jsonio.canonical_dumps(doc) == reference_dumps(doc)

    @pytest.mark.parametrize("value", ["only text", 0, -12, True, None, [], {}, ()])
    def test_scalars_and_empty_containers_at_the_top(self, value):
        assert jsonio.canonical_dumps(value) == reference_dumps(value)

    @pytest.mark.parametrize("doc", [
        1.5, [1, 2.0], {"a": [{"b": float("nan")}]}, {1.5: "x"}, {"s": {1, 2}},
        [b"bytes"], {("t",): 1}, Fraction(1, 2),
    ], ids=["float", "float-in-list", "nested-nan", "float-key", "set",
            "bytes", "tuple-key", "fraction"])
    def test_anything_else_raises_type_error(self, doc):
        with pytest.raises(TypeError):
            jsonio.canonical_dumps(doc)


def random_preorder(rng, n):
    """A preorder on n awkward labels, closed from a few random pairs."""
    labels = [f"{rng.choice(ODD_TEXT)}{i}" for i in range(n)]
    pairs = [(rng.choice(labels), rng.choice(labels)) for _ in range(rng.randrange(2 * n + 1))]
    return order.Preorder.from_pairs(labels, pairs)


class TestPairsAndTheWriter:
    """A dumped preorder's pairs are rendered from its rows, and the writer
    streams the text of ``canonical_dumps`` to ``sys.stdout``."""

    @pytest.mark.parametrize("seed", range(20))
    def test_pairs_render_as_the_list_of_pairs(self, seed):
        rng = random.Random(seed)
        p = random_preorder(rng, rng.randrange(7))
        listed = {"carrier": list(p.carrier), "pairs": [list(x) for x in p.pairs()]}
        doc = {"results": jsonio.dump_preorder(p), "nested": [[jsonio.dump_preorder(p)]]}
        assert jsonio.canonical_dumps(doc) == reference_dumps(
            {"results": listed, "nested": [[listed]]})

    def test_pairs_have_a_length_iterate_as_lists_and_compare_with_lists(self):
        p = order.Preorder.from_pairs(["N", "O", "P"], [("O", "N"), ("O", "P")])
        pairs = jsonio.dump_preorder(p)["pairs"]
        assert len(pairs) == 2
        assert list(pairs) == [["O", "N"], ["O", "P"]]
        assert pairs == [["O", "N"], ["O", "P"]] == pairs
        assert pairs == jsonio.dump_preorder(p)["pairs"]
        assert pairs != [["O", "N"]] and pairs != (["O", "N"], ["O", "P"])

    def test_write_streams_the_text_to_the_stdout_of_the_call(self, monkeypatch):
        class Recorder:
            def __init__(self):
                self.writes = []

            def write(self, text):
                self.writes.append(text)

        p = random_preorder(random.Random(1), 40)
        doc = {"pairs": jsonio.dump_preorder(p), "more": [random_document(random.Random(2))]}
        monkeypatch.setattr(jsonio, "CHUNK", 256)
        out = Recorder()
        monkeypatch.setattr(sys, "stdout", out)
        jsonio.write(doc)
        assert "".join(out.writes) == jsonio.canonical_dumps(doc) + "\n"
        assert len(out.writes) > 2
        assert all(len(text) >= 256 for text in out.writes[:-1])


PAST_CARRIER = [f"p{i}" for i in range(order.MAX_CARRIER + 1)]


@pytest.mark.parametrize("load, doc, path", [
    (jsonio.load_preorder, {"carrier": PAST_CARRIER, "pairs": [["elsewhere", "p0"]]},
     "carrier"),
    (jsonio.load_topology, {"carrier": PAST_CARRIER, "opens": [["elsewhere"]]}, "carrier"),
    (jsonio.load_topology, {"carrier": PAST_CARRIER, "preorder_pairs": [["elsewhere", "p0"]]},
     "carrier"),
    (jsonio.load_decomposition,
     {"space": {"carrier": PAST_CARRIER, "opens": [["elsewhere"]]}, "blocks": [["p0"]]},
     "space.carrier"),
], ids=["preorder", "opens", "preorder-pairs", "decomposition"])
def test_a_carrier_past_the_cap_is_refused_before_any_label_is_read(load, doc, path):
    with pytest.raises(CapExceeded) as info:
        load(doc)
    assert (str(info.value), info.value.path) == ("carrier has 4097 elements, cap is 4096", path)
