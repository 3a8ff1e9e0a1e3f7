"""README's table "What each check certifies": every check that a pinned
command line reports has a row there, every row is a check that a pinned
command line reports, and each check whose row names a mutation in this file
fails under it."""

import json
import re
from pathlib import Path

import pytest

from stratikit import arrangement, decomposition, homology, topology
from stratikit.arrangement import Face
from stratikit.cli import main
from stratikit.order import Preorder

from test_reports import CENTRAL, CHAIN, JOBS, LINES, SIERPINSKI, STRATIFIED

README = Path(__file__).resolve().parent.parent / "README.md"


def table_rows():
    """The check names in the first column of the README table."""
    text = README.read_text(encoding="utf-8")
    section = text.split("### What each check certifies\n", 1)[1].split("\n#", 1)[0]
    return re.findall(r"^\| `([^`]+)` \|", section, flags=re.M)


def row_of(argv, name):
    """The table row that covers check ``name`` of the command line ``argv``."""
    if argv[:2] == ["corpus", "run"]:
        return "<case>: <check>"
    if name.startswith("square at "):
        return "square at <morphism>"
    return name


def run(tmp_path, capsys, argv, doc=None):
    """Exit code and {check name: pass} of one command line."""
    if doc is not None:
        path = tmp_path / "input.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        argv = [*argv, "--input", str(path)]
    code = main(argv)
    checks = json.loads(capsys.readouterr().out).get("checks", [])
    return code, {c["name"]: c["pass"] for c in checks}


def test_table_has_one_row_per_check():
    rows = table_rows()
    assert len(rows) == len(set(rows))
    assert "square at <morphism>" in rows and "<case>: <check>" in rows


def pinned_rows(tmp_path, capsys):
    """The table rows of the checks that the pinned command lines report."""
    emitted = set()
    for argv, doc, _, _ in JOBS:
        _, checks = run(tmp_path, capsys, argv, doc)
        emitted |= {row_of(argv, name) for name in checks}
    return emitted


def test_every_pinned_check_has_a_row(tmp_path, capsys):
    assert not pinned_rows(tmp_path, capsys) - set(table_rows())


def test_every_row_is_a_pinned_check(tmp_path, capsys):
    assert not set(table_rows()) - pinned_rows(tmp_path, capsys)


CHAIN3 = {"carrier": ["0", "1", "2"], "pairs": [["0", "1"], ["1", "2"]]}


def swap_first_and_last_labels(monkeypatch):
    enumerate_faces = arrangement.enumerate_faces

    def swapped(arr):
        faces = enumerate_faces(arr)
        first, last = faces[0], faces[-1]
        faces[0], faces[-1] = Face(last.signs, first.witness), Face(first.signs, last.witness)
        return faces

    monkeypatch.setattr(arrangement, "enumerate_faces", swapped)


def discrete_quotient(monkeypatch):
    def discrete(dec):
        return topology.FiniteTopology.from_preorder(Preorder.from_pairs(dec.labels, []))

    monkeypatch.setattr(decomposition, "quotient_topology", discrete)


def unsigned_boundaries(monkeypatch):
    boundary_columns = homology.boundary_columns

    def unsigned(complex_, dim):
        return [dict.fromkeys(column, 1) for column in boundary_columns(complex_, dim)]

    monkeypatch.setattr(homology, "boundary_columns", unsigned)


def rows_read_as_the_carrier(monkeypatch):
    monkeypatch.setattr(topology, "rows_of_opens",
                        lambda space: [space.full_mask] * len(space.carrier))


def drop_the_last_face(monkeypatch):
    enumerate_faces = arrangement.enumerate_faces
    monkeypatch.setattr(arrangement, "enumerate_faces", lambda arr: enumerate_faces(arr)[:-1])


def drop_the_origin(monkeypatch):
    enumerate_faces = arrangement.enumerate_faces
    monkeypatch.setattr(arrangement, "enumerate_faces",
                        lambda arr: [f for f in enumerate_faces(arr) if any(f.signs)])


def reversed_product(monkeypatch):
    product = decomposition.product
    monkeypatch.setattr(decomposition, "product", lambda factors: product(factors[::-1]))


def negate_in_analyze(field):
    """A mutation that negates one boolean field of every ``analyze`` report."""
    def mutate(monkeypatch):
        analyze = decomposition.analyze

        def negated(dec):
            rep = analyze(dec)
            return rep._replace(**{field: not getattr(rep, field)})

        monkeypatch.setattr(decomposition, "analyze", negated)

    return mutate


@pytest.mark.parametrize("mutate, argv, doc, check", [
    (swap_first_and_last_labels, ["arrangement", "faces"], LINES,
     "witness signs recompute exactly"),
    (discrete_quotient, ["decomp", "quotient"], CHAIN,
     "projection continuous for the quotient topology"),
    (unsigned_boundaries, ["homology", "betti"], CHAIN3,
     "boundary of boundary vanishes"),
    (rows_read_as_the_carrier, ["topology", "to-preorder"], SIERPINSKI,
     "alexandroff topology round-trips"),
    (drop_the_origin, ["arrangement", "poset"], CENTRAL,
     "central arrangement has the all-zero face"),
    (reversed_product, ["decomp", "product"],
     {"factors": [STRATIFIED, {"space": SIERPINSKI, "blocks": [["a"], ["b"]]}]},
     "quotient equals product of factor quotient preorders"),
    (drop_the_last_face, ["corpus", "run", "ex7"], None, "ex7: face count"),
    (negate_in_analyze("tamaki_agrees"), ["corpus", "oracle", "--cases", "20"], None,
     "openness criterion agrees with direct check"),
    (negate_in_analyze("quotient_is_poset"), ["corpus", "oracle", "--cases", "20"], None,
     "poset quotient iff locally closed blocks (open cases)"),
], ids=["witness-signs", "quotient-continuity", "boundary", "alexandroff-round-trip",
        "central-origin", "product-quotient", "corpus-case", "openness-criterion",
        "poset-quotient"])
def test_check_fails_under_its_mutation(tmp_path, capsys, monkeypatch,
                                        mutate, argv, doc, check):
    code, checks = run(tmp_path, capsys, argv, doc)
    assert code == 0 and checks[check] is True
    mutate(monkeypatch)
    code, checks = run(tmp_path, capsys, argv, doc)
    assert code == 1
    assert checks[check] is False
