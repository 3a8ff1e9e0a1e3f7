import json
import os
import random
import subprocess
import sys
import time

import pytest

import stratikit
from stratikit import arrangement, cli, decomposition, feasibility, jsonio, topology
from stratikit.category import hom_preorder_details
from stratikit.cli import main
from stratikit.jsonio import canonical_dumps, dump_preorder, load_category, load_preorder
from stratikit.order import quotient_poset

from catalog import all_maps, cube_of_all_maps2, monoid_document, yoneda_document
from reference import closure_extensive_and_idempotent


def run_cli(capsys, argv, stdin=None, monkeypatch=None):
    """Exit code and stdout of ``main(argv)``, with ``stdin`` (text or bytes)
    as standard input when given."""
    if stdin is not None:
        import io
        import sys
        data = stdin if isinstance(stdin, bytes) else stdin.encode("utf-8")
        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(data), encoding="utf-8"))
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def write_input(tmp_path, doc, name="input.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


EX1_PREORDER = {"carrier": ["N", "O", "P"], "pairs": [["O", "N"], ["O", "P"]]}
PSEUDO_PREORDER = {
    "carrier": ["a", "b", "c", "d"],
    "pairs": [["a", "c"], ["a", "d"], ["b", "c"], ["b", "d"]],
}
IDEM = {
    "objects": ["*"],
    "homs": {"*->*": ["1", "e"]},
    "identities": {"*": "1"},
    "compose": [["1", "1", "1"], ["1", "e", "e"], ["e", "1", "e"], ["e", "e", "e"]],
}
# u: * -> A between two one-morphism monoids
ARROW = {
    "objects": ["*", "A"],
    "homs": {"*->*": ["1"], "A->A": ["a"], "*->A": ["u"]},
    "identities": {"*": "1", "A": "a"},
    "compose": [["1", "1", "1"], ["a", "a", "a"], ["a", "u", "u"], ["u", "1", "u"]],
}
YONEDA_DOC = {"category": IDEM, "anchor": "*", "functor": {
    "variance": "contravariant", "on_objects": {"*": ["0", "1"]},
    "on_morphisms": {"1": {"0": "0", "1": "1"}, "e": {"0": "0", "1": "0"}}}}


# twenty incomparable points: 2^20 up-sets, past the open-count cap
ANTICHAIN_20 = {"carrier": [f"x{i}" for i in range(20)], "preorder_pairs": []}
CHAIN_BAD_DECOMP = {
    "space": {"carrier": ["0", "1", "2"],
              "preorder_pairs": [["0", "1"], ["1", "2"]]},
    "blocks": [["0", "2"], ["1"]],
}


class TestTopologyCommands:
    def test_from_preorder(self, tmp_path, capsys):
        path = write_input(tmp_path, EX1_PREORDER)
        code, out = run_cli(capsys, ["topology", "from-preorder", "--input", path])
        assert code == 0
        doc = json.loads(out)
        assert doc["results"]["opens"] == [
            [], ["N"], ["P"], ["N", "P"], ["N", "O", "P"]]

    def test_to_preorder_round_trip(self, tmp_path, capsys):
        path = write_input(tmp_path, {
            "carrier": ["p", "q"], "opens": [[], ["p", "q"]]})
        code, out = run_cli(capsys, ["topology", "to-preorder", "--input", path])
        assert code == 0
        doc = json.loads(out)
        assert sorted(map(tuple, doc["results"]["pairs"])) == [
            ("p", "q"), ("q", "p")]

    def test_check_rejects_broken_family_with_exit_1(self, tmp_path, capsys):
        path = write_input(tmp_path, {"carrier": ["a", "b"],
                                      "opens": [[], ["a"], ["b"]]})
        code, out = run_cli(capsys, ["topology", "check", "--input", path])
        assert code == 1
        doc = json.loads(out)
        assert doc["checks"][0]["pass"] is False

    @pytest.mark.parametrize("action", ["check", "to-preorder"])
    def test_explicit_discrete_family_on_fourteen_points(self, tmp_path, capsys, action):
        # 16,384 opens, about 1.3e8 pairs: in the cap only if the axioms are
        # not checked pair by pair
        carrier = [f"p{i}" for i in range(14)]
        opens = [[x for i, x in enumerate(carrier) if m >> i & 1] for m in range(1 << 14)]
        path = write_input(tmp_path, {"carrier": carrier, "opens": opens})
        code, out = run_cli(capsys, ["topology", action, "--input", path])
        assert code == 0
        doc = json.loads(out)
        assert [c["pass"] for c in doc["checks"]] == [True]
        if action == "check":
            assert len(doc["results"]["opens"]) == 1 << 14
        else:
            assert doc["results"]["pairs"] == []

    def test_round_trip_check_reads_the_opens(self, tmp_path, capsys, monkeypatch):
        # the family enumerated from the stored rows loses one minimal open:
        # the round trip fails only if the specialization rows are read from
        # the enumerated opens rather than from the stored preorder
        enumerate_unions = topology._unions

        def drop_a_minimal_open(rows, limit):
            family = enumerate_unions(rows, limit)
            full = (1 << len(rows)) - 1
            family.discard(next(row for row in rows if row != full))
            return family

        monkeypatch.setattr(topology, "_unions", drop_a_minimal_open)
        code, out = run_cli(capsys, ["topology", "from-preorder", "--input",
                                     write_input(tmp_path, EX1_PREORDER)])
        assert code == 1
        assert json.loads(out)["checks"] == [
            {"name": "specialization preorder round-trips", "pass": False, "detail": ""}]

    def test_closure(self, tmp_path, capsys):
        path = write_input(tmp_path, {
            "space": {"carrier": ["a", "b", "c", "d"],
                      "preorder_pairs": PSEUDO_PREORDER["pairs"]},
            "subset": ["c"]})
        code, out = run_cli(capsys, ["topology", "closure", "--input", path])
        assert code == 0
        doc = json.loads(out)
        assert doc["results"]["closure"] == ["a", "b", "c"]
        assert doc["checks"] == []
        space = topology.FiniteTopology.from_preorder(load_preorder(PSEUDO_PREORDER))
        assert closure_extensive_and_idempotent(space, doc["results"]["subset"],
                                                doc["results"]["closure"])

    def test_dual_flag_reverses(self, tmp_path, capsys):
        code, out = run_cli(
            capsys, ["topology", "to-preorder", "--input",
                     write_input(tmp_path, {
                         "carrier": ["N", "O", "P"],
                         "opens": [[], ["N"], ["P"], ["N", "P"], ["N", "O", "P"]],
                     }, "t.json"), "--dual"])
        assert code == 0
        assert sorted(map(tuple, json.loads(out)["results"]["pairs"])) == [
            ("N", "O"), ("P", "O")]

    def test_stdin_input(self, capsys, monkeypatch):
        code, out = run_cli(capsys, ["topology", "from-preorder"],
                            stdin=json.dumps(EX1_PREORDER),
                            monkeypatch=monkeypatch)
        assert code == 0


class TestErrorHandling:
    def test_malformed_json_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        code, out = run_cli(capsys, ["topology", "check", "--input", str(path)])
        assert code == 2
        doc = json.loads(out)
        assert doc["error"]["path"] == "$"

    @pytest.mark.parametrize("data, message", [
        (b'{"carrier": [' + b"7" * 5000 + b'], "pairs": []}',
         "integer literal has 5000 digits, cap is 4300"),
        (b'{"carrier": ["\xff"], "pairs": []}',
         "cannot read input: 'utf-8' codec can't decode byte 0xff in position 14: "
         "invalid start byte"),
        (b"[" * 100_000 + b"]" * 100_000, "input nesting depth exceeds cap 512"),
        (b"[]", "expected object, got list"),
        (b"3", "expected object, got int"),
    ], ids=["long-integer", "invalid-utf-8", "deep-nesting", "list-document",
            "number-document"])
    @pytest.mark.parametrize("source", ["file", "stdin"])
    def test_unreadable_input_exits_2_at_the_root(self, tmp_path, capsys, monkeypatch,
                                                  data, message, source):
        argv = ["topology", "from-preorder"]
        if source == "file":
            path = tmp_path / "input.json"
            path.write_bytes(data)
            code, out = run_cli(capsys, [*argv, "--input", str(path)])
        else:
            code, out = run_cli(capsys, argv, stdin=data, monkeypatch=monkeypatch)
        assert code == 2
        assert json.loads(out)["error"] == {"message": message, "path": "$"}

    @pytest.mark.parametrize("kind", ["arrays", "objects"])
    @pytest.mark.parametrize("source", ["file", "stdin"])
    def test_nesting_cap_is_the_same_on_every_python(self, tmp_path, capsys, monkeypatch,
                                                     kind, source):
        """A document MAX_DEPTH levels deep is read; one level more, or as deep
        as one Python's decoder refuses (1200) and another's reads (3000), is
        refused with the same stdout."""
        outs = {}
        for depth in (cli.MAX_DEPTH, cli.MAX_DEPTH + 1, 1200, 3000):
            levels = depth - 1  # the document itself is the first level
            note = ("[" * levels + "]" * levels if kind == "arrays"
                    else '{"a": ' * (levels - 1) + "{}" + "}" * (levels - 1))
            data = ('{"carrier": ["x"], "pairs": [], "note": ' + note + "}").encode()
            argv = ["topology", "from-preorder"]
            if source == "file":
                path = tmp_path / f"depth-{depth}.json"
                path.write_bytes(data)
                outs[depth] = run_cli(capsys, [*argv, "--input", str(path)])
            else:
                outs[depth] = run_cli(capsys, argv, stdin=data, monkeypatch=monkeypatch)
        code, out = outs.pop(cli.MAX_DEPTH)
        assert code == 0
        assert json.loads(out)["results"]["carrier"] == ["x"]
        refused = {"error": {"message": "input nesting depth exceeds cap 512", "path": "$"}}
        assert [code for code, _ in outs.values()] == [2, 2, 2]
        assert {out for _, out in outs.values()} == {canonical_dumps(refused) + "\n"}

    @pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                        reason="the interpreter has no int-string limit")
    def test_literal_over_a_lowered_int_string_limit_exits_2_at_the_root(self):
        src = os.path.dirname(os.path.dirname(stratikit.__file__))
        env = dict(os.environ, PYTHONPATH=src, PYTHONINTMAXSTRDIGITS="640")
        proc = subprocess.run(
            [sys.executable, "-m", "stratikit.cli", "topology", "from-preorder"],
            input='{"carrier": [' + "7" * 1000 + '], "pairs": []}', env=env,
            capture_output=True, text=True)
        assert proc.returncode == 2
        assert proc.stderr == ""
        error = json.loads(proc.stdout)["error"]
        assert error["path"] == "$"
        assert error["message"].startswith("integer literal has 1000 digits: ")

    def test_longest_integer_literal_is_read(self, tmp_path, capsys):
        path = write_input(tmp_path, {"carrier": [int("7" * 4300), -int("7" * 4300)],
                                      "pairs": []})
        code, out = run_cli(capsys, ["topology", "from-preorder", "--input", path])
        assert code == 0
        assert json.loads(out)["results"]["carrier"] == ["7" * 4300, "-" + "7" * 4300]

    def test_missing_input_file_exits_2_at_the_root(self, tmp_path, capsys):
        path = str(tmp_path / "missing.json")
        code, out = run_cli(capsys, ["topology", "from-preorder", "--input", path])
        assert code == 2
        assert json.loads(out)["error"] == {
            "message": f"cannot read input: [Errno 2] No such file or directory: {path!r}",
            "path": "$"}

    def test_witness_too_long_to_print_exits_2_at_the_forms(
            self, tmp_path, capsys, monkeypatch):
        """Two forms in R^1 with coefficients of about 2300 digits, past the
        coefficient cap, here lifted: the midpoint of their roots has more
        bits than print within the digit cap, so the report is refused at the
        coefficients instead of failing in ``str``."""
        monkeypatch.setattr(arrangement, "MAX_ROW_BITS", 10 ** 6)
        path = write_input(tmp_path, {"dim": 1, "forms": [[3 ** 4800, 7 ** 2700],
                                                          [-(5 ** 3280), 11 ** 2200]]})
        code, out = run_cli(capsys, ["arrangement", "faces", "--input", path])
        assert code == 2
        assert json.loads(out)["error"] == {
            "message": "witness coordinate has 15218 bits, cap is 14276 (4300 digits)",
            "path": "forms"}
        code, out = run_cli(capsys, ["arrangement", "check-ob", "--input", path])
        assert code == 0  # the witnesses are compared, not printed

    @pytest.mark.parametrize("action", ["faces", "poset", "check-ob"])
    def test_coefficients_past_the_bit_cap_exit_2_at_their_form(
            self, tmp_path, capsys, monkeypatch, action):
        """Eight planes in R^3 with coefficients of about 400 digits are
        refused at the first form, before any cocircuit or solve: before the
        cap, ``faces`` solved every face and then refused a witness too long
        to print."""
        def refuse(*args):
            raise AssertionError("computed past the refusal")

        monkeypatch.setattr(arrangement, "cocircuits", refuse)
        monkeypatch.setattr(feasibility, "solve", refuse)
        rng = random.Random(1)
        bound = 10 ** 400
        forms = [[rng.randint(-bound, bound) for _ in range(4)] for _ in range(8)]
        path = write_input(tmp_path, {"dim": 3, "forms": forms})
        start = time.perf_counter()
        code, out = run_cli(capsys, ["arrangement", action, "--input", path])
        assert time.perf_counter() - start < 1
        assert code == 2
        bits = max(abs(c).bit_length() for c in forms[0])
        assert json.loads(out)["error"] == {
            "message": f"form 0 has a {bits}-bit integer coefficient, cap is 256 bits",
            "path": "forms[0]"}

    def test_schema_error_names_path(self, tmp_path, capsys):
        path = write_input(tmp_path, {"dim": 1, "forms": [[0, "1/0"]]})
        code, out = run_cli(capsys, ["arrangement", "faces", "--input", path])
        assert code == 2
        doc = json.loads(out)
        assert doc["error"]["path"] == "forms[0][1]"

    def test_missing_key_reported(self, tmp_path, capsys):
        path = write_input(tmp_path, {"pairs": []})
        code, out = run_cli(capsys, ["topology", "from-preorder", "--input", path])
        assert code == 2
        assert "carrier" in json.loads(out)["error"]["path"]

    @pytest.mark.parametrize("argv, doc, path", [
        (["topology", "from-preorder"],
         {"carrier": ["a", "b"], "pairs": [["a", "zz"]]}, "pairs[0][1]"),
        (["homology", "betti"],
         {"carrier": ["a", "b"], "pairs": [["a", "b"], ["zz", "a"]]}, "pairs[1][0]"),
        (["topology", "to-preorder"],
         {"carrier": ["a", "b"], "preorder_pairs": [["a", "zz"]]},
         "preorder_pairs[0][1]"),
        (["decomp", "analyze"],
         {"space": {"carrier": ["a", "b"], "preorder_pairs": [["zz", "b"]]},
          "blocks": [["a"], ["b"]]}, "space.preorder_pairs[0][0]"),
        (["topology", "to-preorder"],
         {"carrier": ["a", "b"], "preorder_pairs": [["a", "b", "a"]]},
         "preorder_pairs[0]"),
    ], ids=["pairs", "pairs-first-label", "preorder-pairs", "nested", "malformed"])
    def test_unknown_label_error_names_the_pair_entry(self, tmp_path, capsys,
                                                      argv, doc, path):
        code, out = run_cli(capsys, [*argv, "--input", write_input(tmp_path, doc)])
        assert code == 2
        assert json.loads(out)["error"]["path"] == path

    @pytest.mark.parametrize("argv, doc, path", [
        (["topology", "check"],
         {"carrier": ["a"], "opens": [[], ["zz"], ["a"]]}, "opens[1][0]"),
        (["topology", "check"],
         {"carrier": ["a"], "opens": [[], "a"]}, "opens[1]"),
        (["decomp", "analyze"],
         {"space": {"carrier": ["a", "b"], "opens": [[], ["a"], ["a", "zz"]]},
          "blocks": [["a"], ["b"]]}, "space.opens[2][1]"),
        (["decomp", "analyze"],
         {"space": {"carrier": ["a", "b"], "preorder_pairs": []},
          "blocks": [["a"], ["b", "zz"]]}, "blocks[1][1]"),
        (["decomp", "product"],
         {"factors": [{"space": {"carrier": ["a"], "preorder_pairs": []},
                       "blocks": [["a"]]},
                      {"space": {"carrier": ["a"], "preorder_pairs": []},
                       "blocks": [["zz"]]}]}, "factors[1].blocks[0][0]"),
        (["decomp", "analyze"],
         {"space": {"carrier": ["a"], "preorder_pairs": []}, "blocks": [["a"]],
          "labels": 5}, "labels"),
    ], ids=["opens", "opens-entry-not-a-list", "nested-opens", "blocks",
            "factor-blocks", "labels-not-a-list"])
    def test_unknown_member_error_names_the_opens_or_blocks_entry(
            self, tmp_path, capsys, argv, doc, path):
        code, out = run_cli(capsys, [*argv, "--input", write_input(tmp_path, doc)])
        assert code == 2
        assert json.loads(out)["error"]["path"] == path

    @pytest.mark.parametrize("argv", [
        ["topology", "check"],
        ["topology", "closure"],
        ["decomp", "product"],
        ["homset", "preorder"],
        ["homset", "stratify"],
        ["homset", "functor-check"],
        ["homset", "yoneda"],
    ], ids=lambda argv: "-".join(argv))
    def test_document_that_is_not_an_object_exits_2(self, tmp_path, capsys, argv):
        code, out = run_cli(capsys, [*argv, "--input", write_input(tmp_path, [1, 2])])
        assert code == 2
        assert json.loads(out)["error"] == {"message": "expected object, got list",
                                            "path": "$"}

    @pytest.mark.parametrize("subset, message, path", [
        ("ab", "key 'subset' should be list, got str", "subset"),
        (5, "key 'subset' should be list, got int", "subset"),
        (["c", "zz"], "unknown label in subset: 'zz'", "subset[1]"),
    ], ids=["string", "number", "unknown-member"])
    def test_closure_subset_is_checked(self, tmp_path, capsys, subset, message, path):
        doc = {"space": {"carrier": ["a", "b", "c", "d"],
                         "preorder_pairs": PSEUDO_PREORDER["pairs"]},
               "subset": subset}
        code, out = run_cli(capsys, ["topology", "closure", "--input",
                                     write_input(tmp_path, doc)])
        assert code == 2
        assert json.loads(out)["error"] == {"message": message, "path": path}

    @pytest.mark.parametrize("argv, doc, message, path", [
        (["topology", "closure"], {"subset": []}, "missing key 'space'", "space"),
        (["topology", "closure"],
         {"space": {"carrier": ["a", "b"], "preorder_pairs": [["a", "zz"]]},
          "subset": []}, "unknown label in pairs: 'zz'", "space.preorder_pairs[0][1]"),
        (["homset", "preorder"], {"category": IDEM, "target": "*"},
         "missing key 'source'", "source"),
        (["homset", "stratify"], {"category": IDEM, "source": "*"},
         "missing key 'target'", "target"),
        (["homset", "functor-check"], {"category": IDEM, "side": "R"},
         "missing key 'anchor'", "anchor"),
        (["homset", "yoneda"], {"category": IDEM, "functor": {}},
         "missing key 'anchor'", "anchor"),
        (["homset", "preorder"], {"source": "*", "target": "*"},
         "missing key 'category'", "category"),
        (["homset", "yoneda"], {"category": IDEM, "anchor": "*"},
         "missing key 'functor'", "functor"),
        (["topology", "check"], {"carrier": ["a", "a"], "opens": [[], ["a"]]},
         "duplicate labels in carrier", "carrier"),
        (["topology", "from-preorder"], {"carrier": ["a", "b", "a"], "pairs": []},
         "duplicate labels", "carrier"),
        (["decomp", "analyze"],
         {"space": {"carrier": ["a", "a"], "preorder_pairs": []}, "blocks": [["a"]]},
         "duplicate labels", "space.carrier"),
        (["decomp", "analyze"],
         {"space": {"carrier": ["a", "a"], "opens": [[], ["a"]]}, "blocks": [["a"]]},
         "duplicate labels in carrier", "space.carrier"),
        (["decomp", "analyze"],
         {"space": {"carrier": ["a", "b"], "preorder_pairs": []},
          "blocks": [["a"], ["b"]], "labels": ["x", "x"]},
         "duplicate block labels", "labels"),
        (["decomp", "analyze"],
         {"space": {"carrier": ["a", "b"], "preorder_pairs": []},
          "blocks": [["a"], ["b"]], "labels": ["x"]},
         "one label per block required", "labels"),
        (["decomp", "product"],
         {"factors": [{"space": {"carrier": ["a"], "preorder_pairs": []},
                       "blocks": [["a"]], "labels": []}]},
         "one label per block required", "factors[0].labels"),
        (["decomp", "product"],
         {"factors": [{"space": {"carrier": ["p", "q"], "preorder_pairs": []},
                       "blocks": [["p"], ["q"]], "labels": ["a,b", "a"]},
                      {"space": {"carrier": ["r", "s"], "preorder_pairs": []},
                       "blocks": [["r"], ["s"]], "labels": ["c", "b,c"]}]},
         "product labels collide: ('a,b', 'c') and ('a', 'b,c') both read '(a,b,c)'",
         "factors"),
        (["decomp", "product"],
         {"factors": [{"space": {"carrier": ["a,b", "a"], "preorder_pairs": []},
                       "blocks": [["a,b"], ["a"]]},
                      {"space": {"carrier": ["c", "b,c"], "preorder_pairs": []},
                       "blocks": [["c"], ["b,c"]]}]},
         "product labels collide: ('a,b', 'c') and ('a', 'b,c') both read '(a,b,c)'",
         "factors"),
        (["decomp", "analyze"],
         {"space": {"carrier": ["a", "b"], "preorder_pairs": []},
          "blocks": [["a"], ["a", "b"]]},
         "blocks are not pairwise disjoint", "blocks[1]"),
        (["decomp", "validate"],
         {"space": {"carrier": ["a", "b"], "preorder_pairs": []},
          "blocks": [["a", "b"], []]},
         "empty block", "blocks[1]"),
        (["decomp", "quotient"],
         {"space": {"carrier": ["a", "b"], "preorder_pairs": []}, "blocks": [["a"]]},
         "blocks do not cover the carrier; missing ('b',)", "blocks"),
        (["decomp", "product"],
         {"factors": [{"space": {"carrier": ["a"], "preorder_pairs": []},
                       "blocks": [["a"]]},
                      {"space": {"carrier": ["p", "q"], "preorder_pairs": []},
                       "blocks": [["p", "q"], ["q"]]}]},
         "blocks are not pairwise disjoint", "factors[1].blocks[1]"),
        (["decomp", "product"],
         {"factors": [{"space": {"carrier": ["a"], "preorder_pairs": []},
                       "blocks": [[], ["a"]]}]},
         "empty block", "factors[0].blocks[0]"),
        (["decomp", "product"],
         {"factors": [{"space": {"carrier": ["a", "b"], "preorder_pairs": []},
                       "blocks": [["b"]]}]},
         "blocks do not cover the carrier; missing ('a',)", "factors[0].blocks"),
        (["decomp", "analyze"],
         {"space": {"carrier": ["a", "b"], "opens": [[], ["a"], ["a"], ["a", "b"]]},
          "blocks": [["a"], ["b"]]},
         "duplicate open set ['a']", "space.opens[2]"),
        (["decomp", "analyze"],
         {"space": {"carrier": ["a", "b"], "opens": [["a"], ["a", "b"]]},
          "blocks": [["a"], ["b"]]},
         "empty set missing from the open family", "space.opens"),
        (["decomp", "analyze"],
         {"space": {"carrier": ["a", "b"], "opens": [[], ["a"]]},
          "blocks": [["a"], ["b"]]},
         "carrier missing from the open family", "space.opens"),
        (["decomp", "analyze"],
         {"space": {"carrier": ["a", "b", "c"], "opens": [[], ["a"], ["b"], ["a", "b", "c"]]},
          "blocks": [["a"], ["b", "c"]]},
         "union escape: ('a',) | ('b',) not open", "space.opens"),
        (["decomp", "analyze"],
         {"space": {"carrier": ["a", "b", "c"],
                    "opens": [[], ["a", "b"], ["b", "c"], ["a", "b", "c"]]},
          "blocks": [["a"], ["b", "c"]]},
         "intersection escape: ('a', 'b') & ('b', 'c') not open", "space.opens"),
        (["decomp", "product"],
         {"factors": [CHAIN_BAD_DECOMP,
                      {"space": {"carrier": ["a", "b"], "opens": [[], ["b"], ["b"], ["a", "b"]]},
                       "blocks": [["a", "b"]]}]},
         "duplicate open set ['b']", "factors[1].space.opens[2]"),
        (["topology", "to-preorder"],
         {"carrier": ["a", "b"], "opens": [[], ["b"], ["a", "b"], ["b"]]},
         "duplicate open set ['b']", "opens[3]"),
        (["arrangement", "faces"], {"dim": 0, "forms": [[0]]},
         "dimension must be positive", "dim"),
        (["arrangement", "faces"], {"dim": True, "forms": [[0, 1]]},
         "key 'dim' should be int, got bool", "dim"),
        (["arrangement", "faces"], {"dim": 1, "forms": []},
         "at least one form required", "forms"),
    ], ids=["closure-space", "closure-space-label", "preorder-source",
            "stratify-target", "functor-check-anchor", "yoneda-anchor",
            "preorder-category", "yoneda-functor", "duplicate-carrier-opens",
            "duplicate-carrier-pairs", "nested-duplicate-carrier-pairs",
            "nested-duplicate-carrier-opens", "duplicate-block-labels",
            "block-label-count", "factor-label-count", "product-label-collision",
            "product-carrier-collision", "overlapping-blocks", "empty-block",
            "uncovered-carrier", "factor-overlapping-blocks", "factor-empty-block",
            "factor-uncovered-carrier", "duplicate-open", "open-family-without-empty-set",
            "open-family-without-carrier", "open-union-escape", "open-intersection-escape",
            "factor-duplicate-open", "top-level-duplicate-open", "dim-not-positive",
            "dim-boolean", "no-forms"])
    def test_missing_or_nested_command_input_names_its_path(
            self, tmp_path, capsys, argv, doc, message, path):
        code, out = run_cli(capsys, [*argv, "--input", write_input(tmp_path, doc)])
        assert code == 2
        assert json.loads(out)["error"] == {"message": message, "path": path}

    @pytest.mark.parametrize("argv, doc, message, path", [
        (["homset", "preorder"],
         {"category": {**IDEM, "homs": {"*": ["1", "e"]}}, "source": "*", "target": "*"},
         "hom key '*' must look like 'X->Y'", "category.homs.*"),
        (["homset", "stratify"],
         {"category": {**IDEM, "homs": {"*->*": "1e"}}, "source": "*", "target": "*"},
         "hom value must be a list of labels", "category.homs.*->*"),
        (["homset", "preorder"],
         {"category": {**IDEM, "compose": [["1", "1"]]}, "source": "*", "target": "*"},
         "each composition entry must be [g, f, gf]", "category.compose[0]"),
        (["homset", "preorder"],
         {"category": {**IDEM, "homs": {"*->*": ["1", "e"], "A->Q": []}},
          "source": "*", "target": "*"},
         "unknown object 'A' in hom key", "category.homs.A->Q"),
        (["homset", "preorder"],
         {"category": {**IDEM, "homs": {"*->*": ["1", "e"], "* -> Q": []}},
          "source": "*", "target": "*"},
         "unknown object 'Q' in hom key", "category.homs.* -> Q"),
        (["homset", "stratify"],
         {"category": {**IDEM, "compose": [["1", "1", "1"], ["e", "zz", "e"]]},
          "source": "*", "target": "*"},
         "unknown morphism 'zz' in composition table", "category.compose[1]"),
        (["homset", "preorder"], {"category": IDEM, "source": "X", "target": "*"},
         "unknown object 'X'", "source"),
        (["homset", "stratify"], {"category": IDEM, "source": "*", "target": "X"},
         "unknown object 'X'", "target"),
        (["homset", "functor-check"], {"category": IDEM, "anchor": "X"},
         "unknown object 'X'", "anchor"),
        (["homset", "yoneda"],
         {"category": IDEM, "anchor": "X",
          "functor": {"variance": "contravariant", "on_objects": {"*": ["0"]},
                      "on_morphisms": {"1": {"0": "0"}, "e": {"0": "0"}}}},
         "unknown object 'X'", "anchor"),
        (["homset", "preorder"],
         {"category": IDEM, "source": "*", "target": "*", "side": "Q"},
         "side must be one of ('R', 'L', 'LR'), got 'Q'", "side"),
        (["homset", "stratify"],
         {"category": IDEM, "source": "*", "target": "*", "side": "RL"},
         "side must be one of ('R', 'L', 'LR'), got 'RL'", "side"),
        (["homset", "functor-check"], {"category": IDEM, "anchor": "*", "side": "LR"},
         "side must be 'R-covariant' or 'L-contravariant'", "side"),
        (["homset", "preorder"],
         {"category": {**IDEM, "objects": ["*", "*"]}, "source": "*", "target": "*"},
         "duplicate object labels", "category.objects"),
        (["homset", "preorder"],
         {"category": {**IDEM, "objects": ["*", "A"],
                       "homs": {"*->*": ["1", "e"], "* -> A": ["e"]}},
          "source": "*", "target": "*"},
         "morphism label 'e' used twice", "category.homs.* -> A"),
        (["homset", "preorder"],
         {"category": {**IDEM, "homs": {"*->*": ["1", "e", "x"], "* -> *": ["1", "e"]}},
          "source": "*", "target": "*"},
         "hom keys '*->*' and '* -> *' name one pair", "category.homs.* -> *"),
        (["homset", "preorder"],
         {"category": {**IDEM, "identities": {}}, "source": "*", "target": "*"},
         "missing identity for object '*'", "category.identities"),
        (["homset", "stratify"],
         {"category": {**IDEM, "compose": [*IDEM["compose"], ["e", "1", "e"]]},
          "source": "*", "target": "*"},
         "duplicate composition entry for ('e', '1')", "category.compose[4]"),
        (["homset", "yoneda"],
         {**YONEDA_DOC, "functor": {**YONEDA_DOC["functor"], "variance": "both"}},
         "variance must be 'covariant' or 'contravariant'", "functor.variance"),
        (["homset", "yoneda"],
         {**YONEDA_DOC, "functor": {**YONEDA_DOC["functor"], "on_objects": {}}},
         "functor misses object '*'", "functor.on_objects"),
        (["homset", "yoneda"],
         {**YONEDA_DOC, "functor": {**YONEDA_DOC["functor"],
                                    "on_objects": {"*": ["0", "1", "0"]}}},
         "duplicate elements in value set of '*'", "functor.on_objects.*"),
        (["homset", "yoneda"],
         {**YONEDA_DOC, "functor": {**YONEDA_DOC["functor"],
                                    "on_morphisms": {"1": {"0": "0", "1": "1"}}}},
         "functor misses morphism 'e'", "functor.on_morphisms"),
        (["homset", "preorder"],
         {"category": {**ARROW, "compose": [*ARROW["compose"], ["1", "u", "u"]]},
          "source": "*", "target": "*"},
         "pair ('1', 'u') is not composable", "category.compose[4]"),
        (["homset", "preorder"],
         {"category": {**ARROW, "compose": [*ARROW["compose"][:3], ["u", "1", "a"]]},
          "source": "*", "target": "*"},
         "composite 'a' of ('u', '1') lands in the wrong hom-set", "category.compose[3]"),
        (["homset", "preorder"],
         {"category": {**IDEM, "identities": {"*": "zz"}}, "source": "*", "target": "*"},
         "identity 'zz' is not an endomorphism of '*'", "category.identities.*"),
        (["homset", "preorder"],
         {"category": {**IDEM, "compose": [*IDEM["compose"][:2], ["e", "1", "1"],
                                           IDEM["compose"][3]]},
          "source": "*", "target": "*"},
         "right identity law fails at 'e'", "category.compose"),
        (["homset", "stratify"],
         {"category": {**IDEM, "compose": IDEM["compose"][:3]}, "source": "*", "target": "*"},
         "composition table misses composable pair ('e', 'e')", "category.compose"),
        (["homset", "preorder"],
         {"category": {"objects": ["*"], "homs": {"*->*": ["1", "a", "b"]},
                       "identities": {"*": "1"},
                       "compose": [["1", "1", "1"], ["1", "a", "a"], ["1", "b", "b"],
                                   ["a", "1", "a"], ["b", "1", "b"], ["a", "a", "a"],
                                   ["a", "b", "a"], ["b", "a", "b"], ["b", "b", "a"]]},
          "source": "*", "target": "*"},
         "associativity fails at ('b', 'a', 'b')", "category.compose"),
        (["homset", "yoneda"],
         {**YONEDA_DOC, "functor": {**YONEDA_DOC["functor"], "on_morphisms": {
             **YONEDA_DOC["functor"]["on_morphisms"], "e": {"0": "0"}}}},
         "value map of 'e' is not total on its source set", "functor.on_morphisms.e"),
        (["homset", "yoneda"],
         {**YONEDA_DOC, "functor": {**YONEDA_DOC["functor"], "on_morphisms": {
             **YONEDA_DOC["functor"]["on_morphisms"], "e": {"0": "0", "1": "2"}}}},
         "value map of 'e' escapes its target set", "functor.on_morphisms.e"),
        (["homset", "yoneda"],
         {**YONEDA_DOC, "functor": {**YONEDA_DOC["functor"], "on_morphisms": {
             **YONEDA_DOC["functor"]["on_morphisms"], "1": {"0": "1", "1": "0"}}}},
         "functor does not preserve the identity of '*'", "functor.on_morphisms.1"),
        (["homset", "yoneda"],
         {**YONEDA_DOC, "functor": {**YONEDA_DOC["functor"], "on_morphisms": {
             **YONEDA_DOC["functor"]["on_morphisms"], "e": {"0": "1", "1": "0"}}}},
         "functor does not respect composition at ('e', 'e')", "functor.on_morphisms.e"),
        (["homset", "yoneda"],
         {**YONEDA_DOC, "functor": {**YONEDA_DOC["functor"], "variance": "covariant"}},
         "the representable side here is contravariant; pass a contravariant functor",
         "functor.variance"),
        (["homset", "stratify"], {"category": ARROW, "source": "A", "target": "*"},
         "hom('A', '*') is empty; nothing to stratify", "source"),
        (["homset", "preorder"],
         {"category": {"objects": ["*"], "homs": {"*->*": [f"m{i}" for i in range(65)]},
                       "identities": {"*": "m0"}, "compose": []},
          "source": "*", "target": "*"},
         "category has 65 morphisms, cap is 64", "category.homs"),
    ], ids=["hom-key", "hom-value", "compose-row", "hom-key-object",
            "hom-key-object-as-spelled", "compose-morphism", "preorder-source",
            "stratify-target", "functor-check-anchor", "yoneda-anchor",
            "preorder-side", "stratify-side", "functor-check-side",
            "duplicate-objects", "morphism-label-twice", "hom-pair-twice", "missing-identity",
            "duplicate-compose-entry", "functor-variance", "functor-misses-object",
            "functor-duplicate-values", "functor-misses-morphism",
            "pair-not-composable", "composite-in-wrong-hom-set", "identity-not-endomorphism",
            "identity-law", "compose-misses-pair", "associativity", "value-map-not-total",
            "value-map-escapes-target", "functor-identity", "functor-composition",
            "yoneda-covariant", "stratify-empty-hom", "category-cap"])
    def test_bad_homset_input_names_its_path(self, tmp_path, capsys, argv, doc,
                                             message, path):
        code, out = run_cli(capsys, [*argv, "--input", write_input(tmp_path, doc)])
        assert code == 2
        assert json.loads(out)["error"] == {"message": message, "path": path}


class TestRelatedPairCap:
    """A report past ``jsonio.MAX_PAIRS`` related pairs exits 2 before the
    opens that its check reads are enumerated."""

    CHAIN = [f"p{i}" for i in range(6)]  # 15 related pairs

    @pytest.mark.parametrize("cap", [15, 14])
    @pytest.mark.parametrize("action", ["decomp analyze", "topology to-preorder"])
    def test_the_pairs_are_counted_before_any_open_is_read(
            self, tmp_path, capsys, monkeypatch, action, cap):
        def refuse(*args):
            raise AssertionError("read the opens past the pair cap")

        c = self.CHAIN
        doc, target, name = {
            "decomp analyze": ({"space": {"carrier": c, "preorder_pairs": list(zip(c, c[1:]))},
                                "blocks": [[x] for x in c]},
                               decomposition, "open_closed_by_opens"),
            "topology to-preorder": ({"carrier": c, "opens": [c[i:] for i in range(7)]},
                                     topology, "rows_of_opens")}[action]
        monkeypatch.setattr(jsonio, "MAX_PAIRS", cap)
        if cap < 15:
            monkeypatch.setattr(target, name, refuse)
        code, out = run_cli(capsys, [*action.split(), "--input", write_input(tmp_path, doc)])
        if cap < 15:
            assert code == 2
            assert json.loads(out)["error"]["message"] == "preorder has 15 related pairs, cap is 14"
        else:
            assert code == 0


class TestDecompCommands:
    def test_analyze_not_open_still_exits_0(self, tmp_path, capsys):
        path = write_input(tmp_path, CHAIN_BAD_DECOMP)
        code, out = run_cli(capsys, ["decomp", "analyze", "--input", path])
        assert code == 0
        doc = json.loads(out)
        assert doc["results"]["pi_open"] is False
        assert doc["results"]["tamaki_agrees"] is False
        assert doc["checks"]

    def test_analyze_fails_when_the_class_disagrees_with_the_opens(
            self, tmp_path, capsys, monkeypatch):
        from stratikit import decomposition
        analyze = decomposition.analyze

        def flipped(dec):
            rep = analyze(dec)
            return rep._replace(pi_closed=not rep.pi_closed)

        monkeypatch.setattr(decomposition, "analyze", flipped)
        path = write_input(tmp_path, CHAIN_BAD_DECOMP)
        code, out = run_cli(capsys, ["decomp", "analyze", "--input", path])
        assert code == 1
        assert json.loads(out)["checks"][0]["pass"] is False

    def test_quotient(self, tmp_path, capsys):
        path = write_input(tmp_path, CHAIN_BAD_DECOMP)
        code, out = run_cli(capsys, ["decomp", "quotient", "--input", path])
        assert code == 0
        doc = json.loads(out)
        assert doc["results"]["opens"] == [[], ["[0]", "[1]"]]

    def test_commands_that_read_no_opens_run_past_the_open_cap(self, tmp_path, capsys):
        labels = ANTICHAIN_20["carrier"]
        validate = write_input(tmp_path, {"space": ANTICHAIN_20,
                                          "blocks": [[x] for x in labels]})
        closure = write_input(tmp_path, {"space": ANTICHAIN_20, "subset": ["x3"]},
                              "closure.json")
        start = time.perf_counter()
        code, out = run_cli(capsys, ["decomp", "validate", "--input", validate])
        assert time.perf_counter() - start < 0.5  # no open is enumerated
        assert code == 0
        doc = json.loads(out)
        assert doc["results"]["is_stratification"] is True
        assert doc["checks"] == []
        start = time.perf_counter()
        code, out = run_cli(capsys, ["topology", "closure", "--input", closure])
        assert time.perf_counter() - start < 0.5
        assert code == 0
        assert json.loads(out)["results"]["closure"] == ["x3"]

    @pytest.mark.parametrize("action", ["analyze", "quotient"])
    def test_reference_checks_refuse_past_the_open_cap(self, tmp_path, capsys, action):
        path = write_input(tmp_path, {"space": ANTICHAIN_20,
                                      "blocks": [[x] for x in ANTICHAIN_20["carrier"]]})
        start = time.perf_counter()
        code, out = run_cli(capsys, ["decomp", action, "--input", path])
        elapsed = time.perf_counter() - start
        assert code == 2
        assert json.loads(out)["error"]["message"] == (
            f"refusing to enumerate more than {topology.MAX_OPENS} open sets")
        assert elapsed < 1.0

    def test_validate(self, tmp_path, capsys):
        path = write_input(tmp_path, {
            "space": {"carrier": ["a", "b", "c", "d"],
                      "preorder_pairs": PSEUDO_PREORDER["pairs"]},
            "blocks": [["a"], ["b"], ["c"], ["d"]]})
        code, out = run_cli(capsys, ["decomp", "validate", "--input", path])
        assert code == 0
        doc = json.loads(out)
        assert doc["results"]["is_stratification"] is True

    def test_product_factor_failure_exits_1(self, tmp_path, capsys):
        good = {
            "space": {"carrier": ["N", "O", "P"],
                      "preorder_pairs": [["O", "N"], ["O", "P"]]},
            "blocks": [["N"], ["O"], ["P"]]}
        path = write_input(tmp_path, {"factors": [good, CHAIN_BAD_DECOMP]})
        code, out = run_cli(capsys, ["decomp", "product", "--input", path])
        assert code == 1
        doc = json.loads(out)
        assert "#1" in doc["checks"][0]["detail"]

    def test_product_success(self, tmp_path, capsys):
        good = {
            "space": {"carrier": ["N", "O", "P"],
                      "preorder_pairs": [["O", "N"], ["O", "P"]]},
            "blocks": [["N"], ["O"], ["P"]]}
        path = write_input(tmp_path, {"factors": [good, good]})
        code, out = run_cli(capsys, ["decomp", "product", "--input", path])
        assert code == 0
        doc = json.loads(out)
        assert len(doc["results"]["blocks"]) == 9

    @pytest.mark.parametrize("sizes, message", [
        ((5, 4), f"refusing to enumerate more than {topology.MAX_OPENS} open sets"),
        ((65, 65), "carrier has 4225 elements, cap is 4096"),
    ])
    def test_product_past_a_cap_exits_2(self, tmp_path, capsys, sizes, message):
        # open factors whose product is past the open-count or the carrier cap
        factors = []
        for n in sizes:
            labels = [f"x{i}" for i in range(n)]
            factors.append({"space": {"carrier": labels, "preorder_pairs": []},
                            "blocks": [[x] for x in labels]})
        path = write_input(tmp_path, {"factors": factors})
        code, out = run_cli(capsys, ["decomp", "product", "--input", path])
        assert code == 2
        assert json.loads(out)["error"]["message"] == message

    def test_star_preorder_dot_export(self, tmp_path, capsys):
        path = write_input(tmp_path, CHAIN_BAD_DECOMP)
        dot_path = tmp_path / "star.dot"
        code, _ = run_cli(capsys, ["decomp", "analyze", "--input", path,
                                   "--dot", str(dot_path)])
        assert code == 0
        assert '"[1]" -> "[0]";' in dot_path.read_text()


class TestArrangementCommands:
    COORD2 = {"dim": 2, "forms": [[0, 1, 0], [0, 0, 1]]}

    def test_faces(self, tmp_path, capsys):
        path = write_input(tmp_path, self.COORD2)
        code, out = run_cli(capsys, ["arrangement", "faces", "--input", path])
        assert code == 0
        doc = json.loads(out)
        assert doc["results"]["count"] == 9
        origin = [f for f in doc["results"]["faces"] if f["signs"] == "00"]
        assert origin[0]["witness"] == ["0", "0"]

    def test_poset_with_dot(self, tmp_path, capsys):
        path = write_input(tmp_path, self.COORD2)
        dot_path = tmp_path / "faces.dot"
        code, out = run_cli(capsys, ["arrangement", "poset", "--input", path,
                                     "--dot", str(dot_path)])
        assert code == 0
        text = dot_path.read_text()
        assert '"00" -> "0+";' in text
        doc = json.loads(out)
        assert any(c["name"].startswith("central") for c in doc["checks"])

    def test_check_ob(self, tmp_path, capsys):
        path = write_input(
            tmp_path, {"dim": 2, "forms": [[0, 1, 0], [0, 0, 1], [0, 1, -1]]})
        code, out = run_cli(capsys, ["arrangement", "check-ob", "--input", path])
        assert code == 0
        doc = json.loads(out)
        assert doc["results"]["disagreements"] == []
        assert doc["results"]["pairs_checked"] == 13 ** 2

    def test_check_ob_dual(self, tmp_path, capsys):
        path = write_input(
            tmp_path, {"dim": 2, "forms": [[0, 1, 0], [0, 0, 1], [0, 1, -1]]})
        code, out = run_cli(capsys, ["arrangement", "check-ob", "--dual",
                                     "--input", path])
        assert code == 0
        assert json.loads(out)["results"]["disagreements"] == []

    def test_faces_in_r5_past_the_fm_row_cap_exits_2(self, tmp_path, capsys):
        """Without the cap, elimination on these regions does not finish.
        Eight forms: the twelve of the face-cap tests stop at that cap
        before any face is solved."""
        import random
        import time
        rng = random.Random(5)
        forms = [[rng.randint(-5, 5) for _ in range(6)] for _ in range(8)]
        for form in forms:
            form[1] = form[1] or 1
        path = write_input(tmp_path, {"dim": 5, "forms": forms})
        start = time.perf_counter()
        code, out = run_cli(capsys, ["arrangement", "faces", "--input", path])
        assert code == 2
        error = json.loads(out)["error"]
        assert error["message"].startswith("eliminating x1 would derive ")
        assert error["message"].endswith(" rows, cap is 262144")
        assert error["path"] == "forms"
        assert time.perf_counter() - start < 10

    @pytest.mark.parametrize("action", ["faces", "poset", "check-ob"])
    def test_past_the_form_cap_exits_2_at_forms(self, tmp_path, capsys, action):
        path = write_input(tmp_path, {"dim": 1, "forms": [[i, 1] for i in range(13)]})
        code, out = run_cli(capsys, ["arrangement", action, "--input", path])
        assert code == 2
        assert json.loads(out)["error"] == {
            "message": "arrangement has 13 forms, enumeration cap is 12", "path": "forms"}

    @pytest.mark.parametrize("action", ["faces", "poset"])
    def test_r5_past_the_face_cap_exits_2(self, tmp_path, capsys, action):
        """35,313 faces: the composition closure stops at the face cap."""
        import random
        import time
        rng = random.Random(5)
        forms = [[rng.randint(-5, 5) for _ in range(6)] for _ in range(12)]
        for form in forms:
            form[1] = form[1] or 1
        path = write_input(tmp_path, {"dim": 5, "forms": forms})
        start = time.perf_counter()
        code, out = run_cli(capsys, ["arrangement", action, "--input", path])
        assert code == 2
        assert json.loads(out)["error"] == {
            "message": "arrangement has more than 4096 faces, cap is 4096", "path": "forms"}
        assert time.perf_counter() - start < 10

    def test_rational_coefficients(self, tmp_path, capsys):
        path = write_input(tmp_path, {"dim": 1, "forms": [["-1/2", "1/3"]]})
        code, out = run_cli(capsys, ["arrangement", "faces", "--input", path])
        assert code == 0
        doc = json.loads(out)
        assert [f["signs"] for f in doc["results"]["faces"]] == ["-", "0", "+"]
        assert doc["results"]["faces"][1]["witness"] == ["3/2"]


class TestHomsetCommands:
    def test_preorder(self, tmp_path, capsys):
        path = write_input(tmp_path, {
            "category": IDEM, "source": "*", "target": "*", "side": "R"})
        code, out = run_cli(capsys, ["homset", "preorder", "--input", path])
        assert code == 0
        doc = json.loads(out)
        assert doc["results"]["preorder"]["pairs"] == [["1", "e"]]
        assert doc["results"]["witnesses"]["1<=e"] == {"s": "e"}

    def test_stratify(self, tmp_path, capsys):
        path = write_input(tmp_path, {
            "category": IDEM, "source": "*", "target": "*", "side": "R"})
        code, out = run_cli(capsys, ["homset", "stratify", "--input", path])
        assert code == 0
        doc = json.loads(out)
        assert doc["results"]["strata"]["carrier"] == ["[1]", "[e]"]
        assert all(c["pass"] for c in doc["checks"])

    @pytest.mark.parametrize("side", ["R", "L", "LR"])
    def test_stratify_the_27_maps_of_a_three_point_set(self, tmp_path, capsys, side):
        cat = monoid_document(all_maps(3))
        path = write_input(tmp_path, {
            "category": cat, "source": "*", "target": "*", "side": side})
        code, out = run_cli(capsys, ["homset", "stratify", "--input", path])
        assert code == 0
        doc = json.loads(out)
        assert [c["pass"] for c in doc["checks"]] == [True, True, True]
        pre, _ = hom_preorder_details(load_category(cat), "*", "*", side)
        assert len(pre.carrier) == 27
        assert doc["results"]["strata"] == dump_preorder(quotient_poset(pre)[0])

    @pytest.mark.parametrize("side", ["R", "L", "LR"])
    def test_stratify_at_the_64_morphism_cap(self, tmp_path, capsys, side):
        path = write_input(tmp_path, {"category": monoid_document(cube_of_all_maps2()),
                                      "source": "*", "target": "*", "side": side})
        code, out = run_cli(capsys, ["homset", "stratify", "--input", path])
        assert code == 0
        assert [c["pass"] for c in json.loads(out)["checks"]] == [True, True, True]

    def test_functor_check(self, tmp_path, capsys):
        path = write_input(tmp_path, {
            "category": IDEM, "anchor": "*", "side": "R-covariant"})
        code, out = run_cli(capsys, ["homset", "functor-check", "--input", path])
        assert code == 0

    def test_functor_check_accepts_short_side_alias(self, tmp_path, capsys):
        path = write_input(tmp_path, {
            "category": IDEM, "anchor": "*", "side": "L"})
        code, out = run_cli(capsys, ["homset", "functor-check", "--input", path])
        assert code == 0
        doc = json.loads(out)
        assert doc["results"]["side"] == "L-contravariant"

    # On the four self-maps of a two-point set, under R, g <= f iff the image
    # of f lies in the image of g: t01 ~ t10 sit below t00 and t11, which are
    # incomparable. Post-composition with t00 sends every map to t00.
    @pytest.mark.parametrize("morphism, wrong", [
        ("t00", {"t00": "t01"}),   # t01 <= t00 is sent to t00 > t01
        ("t00", {"t10": "t11"})],  # t01 ~ t10 are sent to t00 and t11: no descent
        ids=["monotone-t00", "descends-t00"])
    def test_functor_check_fails_on_a_broken_square(
            self, tmp_path, capsys, monkeypatch, morphism, wrong):
        from stratikit import category
        translation = category._translation

        def translated(cat, anchor, side, f):
            phi = translation(cat, anchor, side, f)
            return {**phi, **wrong} if f == morphism else phi

        monkeypatch.setattr(category, "_translation", translated)
        cat = monoid_document(all_maps(2))
        squares = category.st_functor_check(load_category(cat), "*", "R-covariant")
        assert squares[morphism] is False
        path = write_input(tmp_path, {"category": cat, "anchor": "*", "side": "R"})
        code, out = run_cli(capsys, ["homset", "functor-check", "--input", path])
        assert code == 1
        failed = [c["name"] for c in json.loads(out)["checks"] if not c["pass"]]
        assert f"square at {morphism}" in failed

    def test_functor_check_builds_no_quotient_poset(self, tmp_path, capsys, monkeypatch):
        from stratikit import category

        def refuse(pre):
            raise AssertionError("functor-check built a quotient poset")

        monkeypatch.setattr(category, "quotient_poset", refuse)
        cat = monoid_document(all_maps(2))
        for side in ("R-covariant", "L-contravariant"):
            assert all(category.st_functor_check(load_category(cat), "*", side).values())
        path = write_input(tmp_path, {"category": cat, "anchor": "*", "side": "L"})
        code, out = run_cli(capsys, ["homset", "functor-check", "--input", path])
        assert code == 0

    def test_yoneda(self, tmp_path, capsys):
        path = write_input(tmp_path, {
            "category": IDEM,
            "anchor": "*",
            "functor": {
                "variance": "contravariant",
                "on_objects": {"*": ["0", "1"]},
                "on_morphisms": {"1": {"0": "0", "1": "1"},
                                 "e": {"0": "0", "1": "0"}},
            }})
        code, out = run_cli(capsys, ["homset", "yoneda", "--input", path])
        assert code == 0
        doc = json.loads(out)
        assert doc["results"]["transformation_count"] == 2
        assert doc["results"]["target_size"] == 2
        assert "discrepancy" in doc["results"]["order_direction_note"]

    def test_yoneda_builds_the_families_once(self, tmp_path, capsys, monkeypatch):
        from stratikit import category
        calls = []
        real = category.yoneda_natural_transformations
        monkeypatch.setattr(category, "yoneda_natural_transformations",
                            lambda *args: calls.append(args) or real(*args))
        path = write_input(tmp_path, YONEDA_DOC)
        assert run_cli(capsys, ["homset", "yoneda", "--input", path])[0] == 0
        assert len(calls) == 1

    def yoneda_error(self, tmp_path, capsys, on_objects, on_morphisms):
        path = write_input(tmp_path, {
            "category": IDEM,
            "anchor": "*",
            "functor": {"variance": "contravariant", "on_objects": on_objects,
                        "on_morphisms": on_morphisms}})
        code, out = run_cli(capsys, ["homset", "yoneda", "--input", path])
        assert code == 2
        return json.loads(out)["error"]

    def test_yoneda_morphism_value_not_an_object_exits_2_with_path(
            self, tmp_path, capsys):
        error = self.yoneda_error(tmp_path, capsys, {"*": ["0", "1"]},
                                  {"1": 5, "e": {"0": "0", "1": "0"}})
        assert error["path"] == "functor.on_morphisms.1"
        assert "dict" in error["message"]

    def test_yoneda_object_value_not_a_list_exits_2_with_path(self, tmp_path, capsys):
        error = self.yoneda_error(tmp_path, capsys, {"*": "01"},
                                  {"1": {"0": "0", "1": "1"}, "e": {"0": "0", "1": "0"}})
        assert error["path"] == "functor.on_objects.*"
        assert "list" in error["message"]

    def test_yoneda_object_key_outside_the_category_exits_2_with_path(
            self, tmp_path, capsys):
        error = self.yoneda_error(tmp_path, capsys, {"*": ["0", "1"], "ghost": []},
                                  {"1": {"0": "0", "1": "1"}, "e": {"0": "0", "1": "0"}})
        assert error["path"] == "functor.on_objects.ghost"

    def test_yoneda_morphism_key_outside_the_category_exits_2_with_path(
            self, tmp_path, capsys):
        error = self.yoneda_error(tmp_path, capsys, {"*": ["0", "1"]},
                                  {"1": {"0": "0", "1": "1"}, "e": {"0": "0", "1": "0"},
                                   "nope": {"0": "0", "1": "1"}})
        assert error["path"] == "functor.on_morphisms.nope"

    def test_identity_of_an_object_outside_the_category_exits_2_with_path(
            self, tmp_path, capsys):
        category = dict(IDEM, identities={"*": "1", "ghost": "zz"})
        path = write_input(tmp_path, {"category": category, "source": "*", "target": "*"})
        code, out = run_cli(capsys, ["homset", "preorder", "--input", path])
        assert code == 2
        assert json.loads(out)["error"]["path"] == "category.identities.ghost"

    @pytest.mark.parametrize("maps, count", [(all_maps(3), 27), (cube_of_all_maps2(), 64)],
                             ids=["T3", "T2^3"])
    def test_yoneda_on_full_transformation_monoids(self, tmp_path, capsys, maps, count):
        path = write_input(tmp_path, yoneda_document(maps))
        code, out = run_cli(capsys, ["homset", "yoneda", "--input", path])
        assert code == 0
        doc = json.loads(out)
        assert doc["results"]["transformation_count"] == doc["results"]["target_size"] == count
        assert doc["checks"] == []

    def test_preorder_reports_no_check_that_cannot_fail(self, tmp_path, capsys):
        path = write_input(tmp_path, {
            "category": IDEM, "source": "*", "target": "*", "side": "L"})
        code, out = run_cli(capsys, ["homset", "preorder", "--input", path])
        assert code == 0
        assert json.loads(out)["checks"] == []


class TestHomologyCommands:
    def test_order_complex(self, tmp_path, capsys):
        path = write_input(tmp_path, PSEUDO_PREORDER)
        code, out = run_cli(capsys, ["homology", "order-complex", "--input", path])
        assert code == 0
        doc = json.loads(out)
        assert doc["results"]["f_vector"] == [4, 4]

    def test_order_complex_reports_the_euler_check(self, tmp_path, capsys):
        path = write_input(tmp_path, PSEUDO_PREORDER)
        code, out = run_cli(capsys, ["homology", "order-complex", "--input", path])
        assert code == 0
        assert json.loads(out)["checks"] == [
            {"name": "euler characteristic consistent", "pass": True, "detail": ""}]

    def test_betti(self, tmp_path, capsys):
        path = write_input(tmp_path, PSEUDO_PREORDER)
        code, out = run_cli(capsys, ["homology", "betti", "--input", path])
        assert code == 0
        doc = json.loads(out)
        assert doc["results"]["betti"] == [1, 1]
        assert all(c["pass"] for c in doc["checks"])

    def test_non_poset_input_exits_2(self, tmp_path, capsys):
        path = write_input(tmp_path, {
            "carrier": ["p", "q"], "pairs": [["p", "q"], ["q", "p"]]})
        code, out = run_cli(capsys, ["homology", "betti", "--input", path])
        assert code == 2
        assert "antisymmetric" in json.loads(out)["error"]["message"]

    @pytest.mark.parametrize("n", [1500, 4096])
    @pytest.mark.parametrize("action", ["betti", "order-complex"])
    def test_long_chain_exits_2_at_the_chain_cap(self, tmp_path, capsys, action, n):
        carrier = [f"p{i}" for i in range(n)]
        path = write_input(tmp_path, {"carrier": carrier,
                                      "pairs": [list(p) for p in zip(carrier, carrier[1:])]})
        code, out = run_cli(capsys, ["homology", action, "--input", path])
        assert code == 2
        assert json.loads(out)["error"] == {"message": "chain count exceeds cap 5000",
                                            "path": ""}

    @pytest.mark.parametrize("action", ["betti", "order-complex"])
    def test_non_poset_input_names_pairs(self, tmp_path, capsys, action):
        path = write_input(tmp_path, {
            "carrier": ["a", "b"], "pairs": [["a", "b"], ["b", "a"]]})
        code, out = run_cli(capsys, ["homology", action, "--input", path])
        assert code == 2
        assert json.loads(out)["error"] == {
            "message": "relation not antisymmetric: 'a' and 'b' are equivalent but distinct",
            "path": "pairs"}

    def test_betti_max_dim_in_cap_pads_with_zeros(self, tmp_path, capsys):
        path = write_input(tmp_path, PSEUDO_PREORDER)
        code, out = run_cli(capsys, ["homology", "betti", "--input", path,
                                     "--max-dim", "3"])
        assert code == 0
        assert json.loads(out)["results"]["betti"] == [1, 1, 0, 0]

    def test_betti_negative_max_dim_exits_2(self, tmp_path, capsys):
        path = write_input(tmp_path, PSEUDO_PREORDER)
        code, out = run_cli(capsys, ["homology", "betti", "--input", path,
                                     "--max-dim", "-3"])
        assert code == 2
        assert "max_dim" in json.loads(out)["error"]["message"]

    @pytest.mark.parametrize("max_dim", ["-1", "5001"])
    def test_betti_max_dim_refusals_name_the_option(self, tmp_path, capsys, max_dim):
        path = write_input(tmp_path, PSEUDO_PREORDER)
        code, out = run_cli(capsys, ["homology", "betti", "--input", path,
                                     "--max-dim", max_dim])
        assert code == 2
        assert json.loads(out)["error"]["path"] == "--max-dim"

    def test_betti_max_dim_above_the_simplex_cap_exits_2(self, tmp_path, capsys):
        from stratikit.homology import MAX_SIMPLICES
        path = write_input(tmp_path, {"carrier": ["p"], "pairs": []})
        code, out = run_cli(capsys, ["homology", "betti", "--input", path,
                                     "--max-dim", str(MAX_SIMPLICES + 1)])
        assert code == 2
        assert len(out) < 200
        assert "cap" in json.loads(out)["error"]["message"]


class TestCorpusCommands:
    def test_list(self, capsys):
        code, out = run_cli(capsys, ["corpus", "list"])
        assert code == 0
        assert len(json.loads(out)["results"]["cases"]) == 11

    def test_list_fails_when_a_case_has_no_runner_or_golden_file(
            self, capsys, monkeypatch):
        monkeypatch.setitem(stratikit.corpus.RUNNERS, "ex99", lambda: None)
        code, out = run_cli(capsys, ["corpus", "list"])
        assert code == 1
        check = json.loads(out)["checks"][0]
        assert not check["pass"]
        assert "ex99" in check["detail"]

    def test_run_all(self, capsys):
        code, out = run_cli(capsys, ["corpus", "run", "all"])
        assert code == 0
        doc = json.loads(out)
        assert all(c["pass"] for c in doc["checks"])

    def test_run_single(self, capsys):
        code, out = run_cli(capsys, ["corpus", "run", "pseudo"])
        assert code == 0
        doc = json.loads(out)
        assert doc["results"]["pseudo"]["results"]["betti"] == [1, 1]

    def test_unknown_case_exits_2(self, capsys):
        code, out = run_cli(capsys, ["corpus", "run", "nope"])
        assert code == 2

    def test_unknown_case_message_is_not_quoted(self, capsys):
        code, out = run_cli(capsys, ["corpus", "run", "nope"])
        known = ", ".join(stratikit.corpus.CASE_NAMES)
        assert json.loads(out)["error"]["message"] == (
            f"unknown corpus case 'nope'; known: {known}")

    def test_oracle_deterministic_per_seed(self, capsys):
        code1, out1 = run_cli(capsys, ["corpus", "oracle", "--seed", "3",
                                       "--cases", "40"])
        code2, out2 = run_cli(capsys, ["corpus", "oracle", "--seed", "3",
                                       "--cases", "40"])
        assert code1 == code2 == 0
        assert out1 == out2

    @pytest.fixture
    def drawn(self, monkeypatch):
        """The sizes of the random decompositions the oracle draws."""
        sizes = []
        real = stratikit.randomcases.random_decomposition
        monkeypatch.setattr(stratikit.randomcases, "random_decomposition",
                            lambda rng, max_size: sizes.append(max_size) or real(rng, max_size))
        return sizes

    @pytest.mark.parametrize("cases, message", [
        (0, "cases 0 is below 1"),
        (-5, "cases -5 is below 1"),
        (100_001, "cases 100001 exceeds the cap 100000"),
    ])
    def test_oracle_case_count_is_refused_before_any_case_runs(
            self, capsys, drawn, cases, message):
        code, out = run_cli(capsys, ["corpus", "oracle", "--cases", str(cases)])
        assert code == 2
        assert json.loads(out) == {"error": {"message": message, "path": "--cases"}}
        assert drawn == []

    @pytest.mark.parametrize("cases, code", [(1, 0), (3, 0), (4, 2)])
    def test_oracle_case_count_at_the_cap_edges(self, capsys, monkeypatch, drawn, cases, code):
        monkeypatch.setattr(stratikit.cli, "MAX_ORACLE_CASES", 3)
        assert run_cli(capsys, ["corpus", "oracle", "--cases", str(cases)])[0] == code
        assert len(drawn) == (cases if code == 0 else 0)


class TestArguments:
    @pytest.mark.parametrize("argv", [["--help"], ["-h"], ["topology", "--help"],
                                      ["corpus", "run", "-h"]])
    def test_help_exits_0(self, capsys, argv):
        with pytest.raises(SystemExit) as exit_:
            main(argv)
        assert exit_.value.code == 0
        assert capsys.readouterr().out.startswith("usage: stratikit")

    @pytest.mark.parametrize("argv", [
        [],
        ["nope", "check"],
        ["topology"],
        ["topology", "nope"],
        ["topology", "check", "--nope"],
        ["topology", "check", "--in", "x.json"],
        ["topology", "check", "extra"],
        ["topology", "check", "--input"],
        ["topology", "check", "--dual=yes"],
        ["homology", "betti", "--dual"],
        ["corpus", "oracle", "--seed", "x"],
        ["corpus", "oracle", "--seed=1.5"],
        ["corpus", "run", "ex1", "ex6"],
        ["corpus", "list", "ex1"],
        ["corpus", "oracle", "ex1"],
        ["decomp", "analyze", "--dual"],
        # options that another action of the same group reads
        ["homset", "stratify", "--dual"],
        ["homset", "yoneda", "--dot", "x.dot"],
        ["homology", "order-complex", "--max-dim", "3"],
        ["corpus", "list", "--seed", "1"],
        ["topology", "check", "--dual"],
    ])
    def test_usage_errors_exit_2_on_stderr(self, capsys, tmp_path, monkeypatch, argv):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exit_:
            main(argv)
        assert exit_.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("usage: stratikit")
        assert "\nstratikit: error: " in err
        assert list(tmp_path.iterdir()) == []  # no DOT file either

    def test_undeclared_option_is_named_under_the_usage_of_its_action(self, capsys):
        with pytest.raises(SystemExit):
            main(["topology", "--dual", "check"])
        assert capsys.readouterr().err == (
            "usage: stratikit topology check [--input FILE]\n"
            "stratikit: error: unrecognized arguments: --dual\n")

    def test_negative_max_dim_is_a_value_that_reaches_the_input_check(
            self, tmp_path, capsys):
        path = write_input(tmp_path, PSEUDO_PREORDER)
        code, out = run_cli(capsys, ["homology", "betti", "--max-dim", "-3",
                                     "--input", path])
        assert code == 2
        assert json.loads(out)["error"]["message"] == "max_dim -3 is negative"

    @pytest.mark.parametrize("argv", [
        ["topology", "from-preorder", "--input={path}"],
        ["topology", "--input", "{path}", "from-preorder"],
        ["topology", "--dual", "--input={path}", "from-preorder", "--dual"],
    ], ids=["equals", "before-the-action", "mixed"])
    def test_option_spellings_and_places(self, tmp_path, capsys, argv):
        path = write_input(tmp_path, EX1_PREORDER)
        code, out = run_cli(capsys, [a.format(path=path) for a in argv])
        assert code == 0
        _, plain = run_cli(capsys, ["topology", "from-preorder", "--input", path]
                           + ["--dual"] * ("--dual" in argv))
        assert out == plain

    def test_corpus_case_and_integer_options(self):
        from stratikit.cli import parse_args
        group, args = parse_args(["corpus", "--cases=40", "oracle", "--seed", "-7"])
        assert group == "corpus"
        assert vars(args) == {"action": "oracle", "seed": -7, "cases": 40}
        _, args = parse_args(["corpus", "run", "ex1"])
        assert vars(args) == {"action": "run", "case": "ex1"}
        _, args = parse_args(["corpus", "run"])
        assert vars(args) == {"action": "run", "case": "all"}

    def test_every_declared_option_is_accepted(self):
        from stratikit.cli import COMMANDS, OPTIONS, parse_args
        declared = [(group, action, name) for group, (_, actions) in COMMANDS.items()
                    for action, (_, names) in actions.items() for name in names]
        assert len(declared) == 38
        for group, action, name in declared:
            attribute, _, kind, _, _ = OPTIONS[name]
            words = [name] * name.startswith("-") + ["7"] * (kind is not None)
            _, args = parse_args([group, action, *words])
            assert getattr(args, attribute) == (True if kind is None else kind("7"))

    def test_input_digest_is_sha256(self, tmp_path, capsys):
        import hashlib
        text = json.dumps({"carrier": ["é"], "pairs": []})
        path = tmp_path / "in.json"
        path.write_text(text, encoding="utf-8")
        _, out = run_cli(capsys, ["topology", "from-preorder", "--input", str(path)])
        data = text.encode("utf-8")
        assert json.loads(out)["inputs"] == {
            "sha256": hashlib.sha256(data).hexdigest(), "bytes": len(data)}

    def test_digest_falls_back_to_hashlib_without_the_builtin(self, monkeypatch):
        import hashlib
        from stratikit.cli import _sha256
        monkeypatch.setitem(sys.modules, "_sha2", None)  # None blocks the import
        monkeypatch.setitem(sys.modules, "_sha256", None)
        assert _sha256(b"stratikit") == hashlib.sha256(b"stratikit").hexdigest()


def test_readme_synopsis_lists_exactly_the_options_of_each_action():
    from pathlib import Path
    from stratikit.cli import COMMANDS, OPTIONS
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    synopsis = readme.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```")[0]
    expected = []
    for group, (_, actions) in COMMANDS.items():
        for action, (_, declared) in actions.items():
            words = ["stratikit", group, action]
            words += [f"[{name} {OPTIONS[name][1]}]" if OPTIONS[name][1] else f"[{name}]"
                      for name in declared]
            expected.append(" ".join(words))
    assert synopsis.splitlines() == expected


def args_read(source, name):
    """Attributes of ``args`` that function ``name`` of ``source`` reads, itself
    or through the module's functions it calls."""
    import ast
    functions = {node.name: node for node in ast.parse(source).body
                 if isinstance(node, ast.FunctionDef)}
    read = set()
    for node in ast.walk(functions[name]):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id == "args"):
            read.add(node.attr)
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id in functions):
            read |= args_read(source, node.func.id)
    return read


def test_each_action_reads_exactly_the_options_it_declares():
    """No declared option goes unread and none is read undeclared; ``input``
    is read by ``_run``, not by the action."""
    from pathlib import Path
    from stratikit import cli
    source = Path(cli.__file__).read_text(encoding="utf-8")
    read = {(group, action): args_read(source, function.__name__)
            for group, (_, actions) in cli.COMMANDS.items()
            for action, (function, _) in actions.items()}
    declared = {(group, action): {cli.OPTIONS[name][0] for name in names} - {"input"}
                for group, (_, actions) in cli.COMMANDS.items()
                for action, (_, names) in actions.items()}
    assert read == declared
    assert read["homset", "stratify"] == {"dot", "full_relation"}  # via _write_dot


def test_args_read_follows_helper_calls():
    source = ("def _helper(args):\n    return args.dot\n"
              "def action(doc, args):\n    _helper(args)\n    return args.dual\n")
    assert args_read(source, "action") == {"dot", "dual"}


class TestDeterminism:
    def test_byte_identical_reports(self, tmp_path, capsys):
        path = write_input(tmp_path, PSEUDO_PREORDER)
        _, out1 = run_cli(capsys, ["topology", "from-preorder", "--input", path])
        _, out2 = run_cli(capsys, ["topology", "from-preorder", "--input", path])
        assert out1 == out2


def test_cli_import_loads_only_stdlib_modules():
    """Importing the CLI pulls in nothing beyond the standard library, and
    neither an argument parser nor OpenSSL."""
    code = (
        "import json, sys\n"
        "before = set(sys.modules)\n"
        "import stratikit.cli\n"
        "print(json.dumps(sorted(set(sys.modules) - before)))\n"
    )
    src = os.path.dirname(os.path.dirname(stratikit.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    loaded = set(json.loads(out))
    tops = {m.split(".")[0] for m in loaded}
    assert sorted(tops - set(sys.stdlib_module_names) - {"stratikit"}) == []
    assert not loaded & {"argparse", "gettext", "locale", "hashlib", "_hashlib"}


EXECUTED_MODULES = (
    "import importlib.util, json, sys\n"
    "from stratikit import cli\n"
    "code = cli.main(sys.argv[1:])\n"
    "ours = {n: m for n, m in sys.modules.items() if n.startswith('stratikit')}\n"
    "ran = sorted(n for n, m in ours.items()\n"
    "             if type(m) is not importlib.util._LazyModule)\n"
    "print(json.dumps([code, ran, sorted(ours), sorted(sys.modules)]),\n"
    "      file=sys.stderr)\n"
)

SUBMODULES = ["arrangement", "category", "cli", "corpus", "decomposition", "dot",
              "errors", "feasibility", "homology", "jsonio", "order", "randomcases",
              "topology"]


def executed_modules(argv):
    """Exit code, the stratikit modules whose code ran, every stratikit module
    in ``sys.modules``, and every module in ``sys.modules``, for one CLI run
    in a fresh interpreter."""
    src = os.path.dirname(os.path.dirname(stratikit.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    err = subprocess.run([sys.executable, "-c", EXECUTED_MODULES, *argv], env=env,
                         check=True, capture_output=True, text=True).stderr
    return json.loads(err.strip().splitlines()[-1])


def test_topology_check_executes_only_the_modules_it_uses(tmp_path):
    path = write_input(tmp_path, {"carrier": ["a", "b"],
                                  "opens": [[], ["a"], ["a", "b"]]})
    code, ran, registered, _ = executed_modules(["topology", "check", "--input", path])
    assert code == 0
    assert ran == ["stratikit", "stratikit.cli", "stratikit.errors",
                   "stratikit.jsonio", "stratikit.order", "stratikit.topology"]
    # the rest stay registered, unexecuted, for tools that patch them by name
    assert registered == ["stratikit", *(f"stratikit.{m}" for m in SUBMODULES)]


def test_homset_preorder_executes_neither_decomposition_nor_topology(tmp_path):
    path = write_input(tmp_path, {"category": IDEM, "source": "*", "target": "*"})
    code, ran, _, _ = executed_modules(["homset", "preorder", "--input", path])
    assert code == 0
    assert "stratikit.category" in ran
    assert "stratikit.decomposition" not in ran
    assert "stratikit.topology" not in ran


def test_arrangement_faces_skips_unrelated_modules_and_dataclasses(tmp_path):
    path = write_input(tmp_path, {"dim": 2, "forms": [[0, 1, 0], [0, 0, 1]]})
    code, ran, _, modules = executed_modules(
        ["arrangement", "faces", "--input", path])
    assert code == 0
    assert "stratikit.arrangement" in ran
    for name in ("category", "decomposition", "homology", "corpus"):
        assert f"stratikit.{name}" not in ran
    assert "dataclasses" not in modules


def test_corpus_oracle_does_not_execute_the_corpus():
    code, ran, _, _ = executed_modules(["corpus", "oracle", "--cases", "1"])
    assert code == 0
    assert "stratikit.decomposition" in ran
    assert "stratikit.corpus" not in ran


@pytest.mark.parametrize("action", ["betti", "order-complex"])
def test_homology_never_imports_fractions(tmp_path, action):
    path = write_input(tmp_path, PSEUDO_PREORDER)
    code, ran, _, modules = executed_modules(["homology", action, "--input", path])
    assert code == 0
    assert "stratikit.homology" in ran
    assert "fractions" not in modules


def test_arrangement_poset_on_integer_forms_loads_neither_feasibility_nor_fractions(
        tmp_path):
    path = write_input(tmp_path, {"dim": 2, "forms": [[0, 1, 0], [0, 0, 1], [1, 1, -1]]})
    code, ran, _, modules = executed_modules(["arrangement", "poset", "--input", path])
    assert code == 0
    assert ran == ["stratikit", "stratikit.arrangement", "stratikit.cli",
                   "stratikit.errors", "stratikit.jsonio", "stratikit.order"]
    assert "fractions" not in modules


@pytest.mark.parametrize("argv", [["arrangement", "faces"], ["arrangement", "check-ob"],
                                  ["corpus", "run"]], ids=["faces", "check-ob", "corpus"])
def test_witnesses_of_integer_forms_load_neither_fractions_nor_decimal(tmp_path, argv):
    """Witnesses are solved or read off the cocircuits, checked and printed
    in integers, so only a "p/q" coefficient brings in ``fractions`` (and
    ``decimal`` under it).  Only ``faces``, which prints its witnesses,
    solves."""
    if argv[0] == "arrangement":
        path = write_input(tmp_path, {"dim": 2, "forms": [[0, 1, 0], [0, 0, 1], [1, 1, -1]]})
        argv = [*argv, "--input", path]
    code, ran, _, modules = executed_modules(argv)
    assert code == 0
    assert ("stratikit.feasibility" in ran) == (argv[1] == "faces")
    assert not {"fractions", "decimal"} & set(modules)


@pytest.mark.parametrize("argv", [["arrangement", "check-ob"], ["corpus", "run"]],
                         ids=["check-ob", "corpus"])
def test_check_ob_and_corpus_pass_with_a_solver_that_raises(
        tmp_path, capsys, monkeypatch, argv):
    def refuse(*args):
        raise AssertionError("solved a system")

    monkeypatch.setattr(feasibility, "solve", refuse)
    if argv[0] == "arrangement":
        argv = [*argv, "--input", write_input(
            tmp_path, {"dim": 3, "forms": [[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1],
                                           [1, 1, 1, 1], [-1, 2, -1, 1]]})]
    code, out = run_cli(capsys, argv)
    assert code == 0
    assert all(c["pass"] for c in json.loads(out)["checks"])


@pytest.mark.parametrize("argv, doc", [
    (["decomp", "analyze"], CHAIN_BAD_DECOMP),
    (["homset", "stratify"],
     {"category": {"objects": ["*"], "homs": {"*->*": ["1", "e"]},
                   "identities": {"*": "1"},
                   "compose": [["1", "1", "1"], ["1", "e", "e"], ["e", "1", "e"],
                               ["e", "e", "e"]]},
      "source": "*", "target": "*", "side": "R"}),
    (["corpus", "run"], None),
], ids=["decomp-analyze", "homset-stratify", "corpus-run"])
def test_report_types_do_not_load_dataclasses(tmp_path, argv, doc):
    inputs = ["--input", write_input(tmp_path, doc)] if doc is not None else []
    code, ran, _, modules = executed_modules([*argv, *inputs])
    assert code == 0
    assert "stratikit.decomposition" in ran
    assert "dataclasses" not in modules
