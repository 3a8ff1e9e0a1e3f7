"""README's table "What each check certifies": every check that a pinned
command line reports has a row there, every row is a check that a pinned
command line reports and names a test that makes it fail, and each check
whose row names a mutation in this file fails under it."""

import json
import re
from pathlib import Path

import pytest

from stratikit import arrangement, category, decomposition, homology, topology
from stratikit.cli import main
from stratikit.order import Poset, Preorder, bit_indices, bitmask

from test_reports import CENTRAL, CHAIN, JOBS, LINES, SIERPINSKI, STRATIFIED

README = Path(__file__).resolve().parent.parent / "README.md"


def table():
    """The cells of each row of the README table: check, kind, compared
    against, fails in."""
    text = README.read_text(encoding="utf-8")
    section = text.split("### What each check certifies\n", 1)[1].split("\n#", 1)[0]
    return [line.strip("| ").split(" | ") for line in section.splitlines()
            if line.startswith("| `")]


def table_rows():
    """The check names in the first column of the README table."""
    return [cells[0].strip("`") for cells in table()]


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


def test_every_row_names_a_test_that_fails_its_check():
    """No "Fails in" cell is only "none": each names a test file."""
    rows = table()
    assert all(len(cells) == 4 for cells in rows)
    assert not [cells[0] for cells in rows if not re.search(r"test_\w+\.py", cells[3])]


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
# The monoid {1, a, b} with x.y = x on {a, b}: on side R, a and b are two
# incomparable strata above 1; on side L, they are one stratum above 1.
LEFT_ZERO = {"objects": ["*"], "homs": {"*->*": ["1", "a", "b"]}, "identities": {"*": "1"},
             "compose": [["1", "1", "1"], ["1", "a", "a"], ["1", "b", "b"],
                         ["a", "1", "a"], ["b", "1", "b"], ["a", "a", "a"],
                         ["a", "b", "a"], ["b", "a", "b"], ["b", "b", "b"]]}


def swap_first_and_last_labels(monkeypatch):
    """Every label reads the first and the last form in each other's place,
    so some labels have no point and their systems no witness."""
    face_signs = arrangement.face_signs
    monkeypatch.setattr(arrangement, "face_signs",
                        lambda arr: [(s[-1], *s[1:-1], s[0]) for s in face_signs(arr)])


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
    face_signs = arrangement.face_signs
    monkeypatch.setattr(arrangement, "face_signs", lambda arr: face_signs(arr)[:-1])


def drop_the_origin(monkeypatch):
    face_signs = arrangement.face_signs
    monkeypatch.setattr(arrangement, "face_signs",
                        lambda arr: [s for s in face_signs(arr) if any(s)])


def drop_the_first_label(monkeypatch):
    face_signs = arrangement.face_signs
    monkeypatch.setattr(arrangement, "face_signs", lambda arr: face_signs(arr)[1:])


def repeat_the_first_label(monkeypatch):
    face_signs = arrangement.face_signs

    def repeated(arr):
        signs = face_signs(arr)
        return signs[:1] + signs

    monkeypatch.setattr(arrangement, "face_signs", repeated)


def reversed_product(monkeypatch):
    product = decomposition.product
    monkeypatch.setattr(decomposition, "product", lambda factors: product(factors[::-1]))


def reversed_product_space(monkeypatch):
    """The product space built from the factors in reverse order, so the
    product blocks no longer sit on the points they were built for."""
    product_topology = decomposition.product_topology
    monkeypatch.setattr(decomposition, "product_topology",
                        lambda spaces: product_topology(spaces[::-1]))


def strata_in_a_line(monkeypatch):
    """The strata of ``quotient_poset`` ordered by a linear extension of
    their order; the projection stays monotone, so the space is accepted."""
    quotient_poset = category.quotient_poset

    def linear(p):
        strata, projection = quotient_poset(p)
        # a stratum strictly below another has fewer strata below it
        rank = [(row.bit_count(), i) for i, row in enumerate(strata.down())]
        return Poset(strata.carrier, [bitmask(j for j, r in enumerate(rank) if r >= own)
                                      for own in rank]), projection

    monkeypatch.setattr(category, "quotient_poset", linear)


def reversed_fiber_masks(monkeypatch):
    """Each fiber's points read in reverse carrier order: still a partition."""
    fiber_mask = topology.PosetStratifiedSpace.fiber_mask

    def reversed_bits(pss, stratum):
        last = len(pss.space.carrier) - 1
        return bitmask(last - i for i in bit_indices(fiber_mask(pss, stratum)))

    monkeypatch.setattr(topology.PosetStratifiedSpace, "fiber_mask", reversed_bits)


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
    (drop_the_first_label, ["arrangement", "poset"], LINES, "euler relation over the faces"),
    (repeat_the_first_label, ["arrangement", "faces"], LINES,
     "euler relation over the faces"),
    (reversed_product, ["decomp", "product"],
     {"factors": [STRATIFIED, {"space": SIERPINSKI, "blocks": [["a"], ["b"]]}]},
     "quotient equals product of factor quotient preorders"),
    (reversed_product_space, ["decomp", "product"],
     {"factors": [STRATIFIED, {"space": SIERPINSKI, "blocks": [["a", "b"]]}]},
     "product projection open"),
    (strata_in_a_line, ["homset", "stratify"],
     {"category": LEFT_ZERO, "source": "*", "target": "*", "side": "R"},
     "projection open"),
    (reversed_fiber_masks, ["homset", "stratify"],
     {"category": LEFT_ZERO, "source": "*", "target": "*", "side": "L"},
     "fibers locally closed"),
    (strata_in_a_line, ["homset", "stratify"],
     {"category": LEFT_ZERO, "source": "*", "target": "*", "side": "R"},
     "quotient order equals closure inclusion"),
    (drop_the_last_face, ["corpus", "run", "ex7"], None, "ex7: face count"),
    (negate_in_analyze("tamaki_agrees"), ["corpus", "oracle", "--cases", "20"], None,
     "openness criterion agrees with direct check"),
    (negate_in_analyze("quotient_is_poset"), ["corpus", "oracle", "--cases", "20"], None,
     "poset quotient iff locally closed blocks (open cases)"),
], ids=["witness-signs", "quotient-continuity", "boundary", "alexandroff-round-trip",
        "central-origin", "euler-dropped-face", "euler-duplicated-face", "product-quotient",
        "product-projection", "stratify-projection", "stratify-fibers",
        "stratify-closure-order", "corpus-case", "openness-criterion", "poset-quotient"])
def test_check_fails_under_its_mutation(tmp_path, capsys, monkeypatch,
                                        mutate, argv, doc, check):
    code, checks = run(tmp_path, capsys, argv, doc)
    assert code == 0 and checks[check] is True
    mutate(monkeypatch)
    code, checks = run(tmp_path, capsys, argv, doc)
    assert code == 1
    assert checks[check] is False
