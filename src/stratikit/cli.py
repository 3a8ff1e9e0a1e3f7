"""Command-line entry point: JSON in, a deterministic run report out.

Exit codes: 0 all checks pass, 1 a check failed, 2 malformed input (the error
object names the offending schema path) or a usage error (reported on stderr).
"""

import json
import sys
import types
from itertools import chain

from . import (arrangement, category, corpus, decomposition, dot, homology, jsonio,
               order, randomcases, topology)
from .errors import CapExceeded, InputError, StratikitError, StructureError


# Deepest nesting of arrays and objects a document may hold, the document
# itself counting as one level: below the JSON decoder's recursion limit on
# every supported Python, so that no answer depends on the version either.
MAX_DEPTH = 512
TOO_DEEP = f"input nesting depth exceeds cap {MAX_DEPTH}"
NESTED = frozenset((dict, list))


def _parse_int(literal):
    digits = len(literal) - literal.startswith("-")
    if digits > jsonio.MAX_INT_DIGITS:
        raise CapExceeded(
            f"integer literal has {digits} digits, cap is {jsonio.MAX_INT_DIGITS}", path="$")
    try:
        return int(literal)
    except ValueError as exc:  # a lower int-string limit set for the interpreter
        raise CapExceeded(f"integer literal has {digits} digits: {exc}", path="$") from None


def _check_depth(doc):
    """Refuse a document nested deeper than ``MAX_DEPTH``, one level at a time."""
    level, depth = ([doc] if type(doc) in NESTED else []), 1
    while level:
        if depth > MAX_DEPTH:
            raise CapExceeded(TOO_DEEP, path="$")
        values = chain.from_iterable(v.values() if type(v) is dict else v for v in level)
        level = [v for v in values if type(v) in NESTED]
        depth += 1


def _read_input(args):
    """The document and its text; input that cannot be read, decoded or
    parsed is refused at ``$``."""
    try:
        if args.input:
            with open(args.input, "r", encoding="utf-8") as fh:
                text = fh.read()
        else:
            text = sys.stdin.buffer.read().decode("utf-8")
        doc = json.loads(text, parse_int=_parse_int)
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read input: {exc}", path="$") from None
    except json.JSONDecodeError as exc:
        raise InputError(f"input is not JSON: {exc}", path="$") from exc
    except RecursionError:
        raise CapExceeded(TOO_DEEP, path="$") from None
    _check_depth(doc)
    if not isinstance(doc, dict):
        raise InputError(f"expected object, got {type(doc).__name__}", path="$")
    return doc, text


def _sha256(data):
    """Hex SHA-256 from the interpreter's builtin module (``_sha2`` from
    Python 3.12, ``_sha256`` before), so that a job does not load OpenSSL
    through ``hashlib``; ``hashlib`` only where the builtin was not built."""
    try:
        module = __import__("_sha2" if sys.version_info >= (3, 12) else "_sha256")
    except ImportError:
        import hashlib as module
    return module.sha256(data).hexdigest()


def _digest(text):
    data = text.encode("utf-8")
    return {"sha256": _sha256(data), "bytes": len(data)}


def _check(name, ok, detail=""):
    return {"name": name, "pass": ok, "detail": detail}


def _write_dot(args, preorder):
    if args.dot:
        with open(args.dot, "w", encoding="utf-8") as fh:
            fh.write(dot.preorder_dot(preorder, full_relation=args.full_relation))


def _maybe_dual(args, preorder):
    return preorder.dual() if args.dual else preorder


# Each action takes the input document (None for an action without --input)
# and the parsed arguments, and returns the report's (results, checks).

# -- topology ----------------------------------------------------------------


def _topology_check(doc, args):
    try:
        space = jsonio.load_topology(doc)
    except StructureError as exc:
        return {}, [_check("family is a topology", False, str(exc))]
    return jsonio.dump_topology(space), [_check("family is a topology", True)]


def _topology_from_preorder(doc, args):
    pre = _maybe_dual(args, jsonio.load_preorder(doc))
    space = topology.FiniteTopology.from_preorder(pre)
    checks = [_check("specialization preorder round-trips",
                     topology.rows_of_opens(space) == list(pre.up))]
    _write_dot(args, pre)
    return jsonio.dump_topology(space), checks


def _topology_to_preorder(doc, args):
    space = jsonio.load_topology(doc)
    pre = _maybe_dual(args, space.specialization_preorder())
    results = jsonio.dump_preorder(pre)  # past MAX_PAIRS, refused before the round trip
    again = topology.FiniteTopology.from_preorder(
        order.Preorder(space.carrier, topology.rows_of_opens(space)))
    checks = [_check("alexandroff topology round-trips", again == space)]
    _write_dot(args, pre)
    return results, checks


def _topology_closure(doc, args):
    space = jsonio.load_topology(jsonio.expect(doc, "space", dict, ""), path="space")
    subset = jsonio.load_subset(doc, space.carrier)
    return {"subset": subset, "closure": list(space.closure(subset))}, []


# -- decomposition -----------------------------------------------------------


def _decomp_quotient(doc, args):
    dec = jsonio.load_decomposition(doc)
    q = decomposition.quotient_topology(dec)
    checks = [_check("projection continuous for the quotient topology",
                     all(dec.space.is_open(dec.preimage_mask(u)) for u in q.opens))]
    return jsonio.dump_topology(q), checks


def _decomp_analyze(doc, args):
    dec = jsonio.load_decomposition(doc)
    rep = decomposition.analyze(dec)
    results = jsonio.dump_analysis(rep)  # past MAX_PAIRS, refused before any open is read
    reference = decomposition.MOORE_CLASS[decomposition.open_closed_by_opens(dec)]
    checks = [_check("semicontinuity class consistent with map openness/closedness",
                     rep.moore_class == reference, rep.moore_class)]
    _write_dot(args, rep.star_preorder)
    return results, checks


def _decomp_validate(doc, args):
    dec = jsonio.load_decomposition(doc)
    return decomposition.validate_stratification(dec), []


def _decomp_product(doc, args):
    factors = doc.get("factors")
    if not isinstance(factors, list) or not factors:
        raise InputError("'factors' must be a nonempty list", path="factors")
    decs = [jsonio.load_decomposition(f, path=f"factors[{i}]")
            for i, f in enumerate(factors)]
    try:
        prod, pi_open, matches = decomposition.product_decomposition(decs)
    except StructureError as exc:  # a factor whose projection is not open
        return {}, [_check("factors lower semicontinuous", False, str(exc))]
    checks = [_check("product projection open", pi_open),
              _check("quotient equals product of factor quotient preorders", matches)]
    return jsonio.dump_decomposition(prod), checks


# -- arrangement ---------------------------------------------------------------


def _euler(arr, labels):
    """The Euler relation over the faces with these labels: the sum of
    (-1)^dim F is (-1)^n, read off the forms that vanish on each face."""
    total, expected = arrangement.euler_characteristic(arr, labels), (-1) ** arr.dim
    return _check("euler relation over the faces", total == expected,
                  f"sum {total}, expected {expected}")


def _arrangement_faces(doc, args):
    arr = jsonio.load_arrangement(doc)
    try:
        faces = arrangement.enumerate_faces(arr)
    except CapExceeded as exc:  # the face caps, or elimination's row cap on a face
        exc.path = "forms"
        raise
    # a label that no point realizes has no witness, printed as null
    checks = [_check("witness signs recompute exactly",
                     all(f.witness is not None
                         and arrangement.sign_map(arr, f.witness) == f.signs for f in faces)),
              _euler(arr, [f.label for f in faces])]
    results = {
        "count": len(faces),
        "faces": [{
            "signs": f.label,
            "witness": None if f.witness is None else jsonio.format_point(f.witness),
        } for f in faces],
    }
    return results, checks


def _arrangement_poset(doc, args):
    arr = jsonio.load_arrangement(doc)
    poset = arrangement.face_poset(arr)
    checks = []
    if arr.is_central():
        origin = "0" * arr.k
        checks.append(_check("central arrangement has the all-zero face",
                             origin in poset.carrier, origin))
    checks.append(_euler(arr, poset.carrier))
    poset = _maybe_dual(args, poset)
    _write_dot(args, poset)
    return jsonio.dump_preorder(poset), checks


def _arrangement_check_ob(doc, args):
    arr = jsonio.load_arrangement(doc)
    faces = arrangement.face_points(arr)
    poset = _maybe_dual(args, arrangement.face_poset(arr, faces))
    oracle = arrangement.closure_rows(arr, faces)
    if args.dual:
        oracle = order.transpose(oracle, len(oracle))
    disagreements = [
        [faces[i].label, faces[j].label]
        for i, (row, expected) in enumerate(zip(poset.up, oracle))
        for j in order.bit_indices(row ^ expected)]
    checks = [_check("componentwise order agrees with the closure-inclusion oracle",
                     not disagreements, f"{len(faces) ** 2} pairs")]
    return {"pairs_checked": len(faces) ** 2, "disagreements": disagreements}, checks


# -- homset --------------------------------------------------------------------


def _category(doc):
    """The category, which every homset action loads first."""
    return jsonio.load_category(jsonio.expect(doc, "category", None, ""), path="category")


def _object(cat, doc, key):
    """The object named under ``key``; one outside ``cat`` is refused at ``key``."""
    label = str(jsonio.expect(doc, key, None, ""))
    if label not in cat.identity:
        raise InputError(f"unknown object {label!r}", path=key)
    return label


def _hom_endpoints(doc, cat):
    """Source, target and side of a hom-set preorder, each refused at its own
    key, in the order ``hom_preorder_details`` checks them."""
    for key in ("source", "target"):
        jsonio.expect(doc, key, None, "")
    side = str(doc.get("side", "R"))
    if side not in category.SIDES:
        raise InputError(f"side must be one of {category.SIDES}, got {side!r}",
                         path="side")
    return _object(cat, doc, "source"), _object(cat, doc, "target"), side


def _witnesses(witnesses):
    return {f"{g}<={f}": w for (g, f), w in sorted(witnesses.items())}


def _homset_preorder(doc, args):
    cat = _category(doc)
    pre, witnesses = category.hom_preorder_details(cat, *_hom_endpoints(doc, cat))
    pre = _maybe_dual(args, pre)
    _write_dot(args, pre)
    return {"preorder": jsonio.dump_preorder(pre), "witnesses": _witnesses(witnesses)}, []


def _homset_stratify(doc, args):
    cat = _category(doc)
    pss, rep = category.hom_stratified(cat, *_hom_endpoints(doc, cat))
    checks = [
        _check("projection open", rep.projection_open),
        _check("fibers locally closed", all(rep.fibers_locally_closed.values()),
               str(rep.fibers_locally_closed)),
        _check("quotient order equals closure inclusion", rep.order_matches_closure),
    ]
    results = {
        "strata": jsonio.dump_preorder(pss.strata_poset),
        "strat_map": dict(sorted(pss.strat_map.items())),
        "witnesses": _witnesses(rep.witnesses),
    }
    _write_dot(args, pss.strata_poset)
    return results, checks


def _homset_functor_check(doc, args):
    cat = _category(doc)
    jsonio.expect(doc, "anchor", None, "")
    side = str(doc.get("side", "R-covariant"))
    side = {"R": "R-covariant", "L": "L-contravariant"}.get(side, side)
    if side not in ("R-covariant", "L-contravariant"):
        raise InputError("side must be 'R-covariant' or 'L-contravariant'", path="side")
    anchor = _object(cat, doc, "anchor")
    squares = category.st_functor_check(cat, anchor, side)
    checks = [_check(f"square at {f}", ok) for f, ok in squares.items()]
    return {"anchor": anchor, "side": side, "squares": list(squares)}, checks


def _homset_yoneda(doc, args):
    cat = _category(doc)
    jsonio.expect(doc, "anchor", None, "")
    fun = jsonio.load_functor(cat, jsonio.expect(doc, "functor", None, ""), path="functor")
    anchor = _object(cat, doc, "anchor")
    _, yrep = category.yoneda_natural_transformations(cat, fun, anchor)
    images = category.yoneda_image_report(cat, fun, anchor)
    results = {
        "transformation_count": yrep.transformation_count,
        "target_size": yrep.target_size,
        "images": {
            x: {f: sorted(s) for f, s in sorted(per.items())}
            for x, per in sorted(images.items())
        },
        "order_direction_note": category.IMAGE_ORDER_NOTE,
    }
    return results, []


# -- homology --------------------------------------------------------------------


def _complex(doc):
    """The order complex of the input poset and the Euler check, which every
    homology action computes first."""
    poset = jsonio.load_preorder(doc).to_poset()
    complex_ = homology.order_complex(poset)
    euler = _check("euler characteristic consistent",
                   homology.euler_characteristic_consistent(poset, complex_))
    return complex_, euler


def _homology_order_complex(doc, args):
    complex_, euler = _complex(doc)
    return {"f_vector": complex_.f_vector(),
            "simplices": complex_.simplex_labels()}, [euler]


def _homology_betti(doc, args):
    complex_, euler = _complex(doc)
    try:
        numbers = homology.betti(complex_, args.max_dim)
    except StratikitError as exc:  # betti refuses nothing but its max_dim
        exc.path = "--max-dim"
        raise
    checks = [_check("boundary of boundary vanishes",
                     homology.boundary_squares_to_zero(complex_)), euler]
    return {"f_vector": complex_.f_vector(), "betti": numbers}, checks


# -- corpus ----------------------------------------------------------------------


def _corpus_list(doc, args):
    unmatched = corpus.unmatched_cases()
    detail = ("not in both RUNNERS and corpus_data: "
              + ", ".join(unmatched)) if unmatched else ""
    return ({"cases": list(corpus.CASE_NAMES)},
            [_check("corpus complete", not unmatched, detail)])


def _corpus_run(doc, args):
    names = list(corpus.CASE_NAMES) if args.case == "all" else [args.case]
    all_checks = []
    results = {}
    for name in names:
        try:
            case_results, checks, g = corpus.run_case(name)
        except KeyError as exc:
            raise InputError(exc.args[0]) from exc
        results[name] = {
            "provenance": g.get("provenance", ""),
            "note": g.get("note", ""),
            "results": case_results,
        }
        all_checks += [_check(f"{name}: {c['name']}", c["pass"], c["detail"])
                       for c in checks]
    return results, all_checks


# Most cases one ``corpus oracle`` run draws; a case takes about 0.4 ms, so a
# run at the cap takes under a minute.
MAX_ORACLE_CASES = 100_000


def _corpus_oracle(doc, args):
    import random
    cases = args.cases
    if cases < 1:
        raise InputError(f"cases {cases} is below 1", path="--cases")
    if cases > MAX_ORACLE_CASES:
        raise CapExceeded(f"cases {cases} exceeds the cap {MAX_ORACLE_CASES}", path="--cases")
    rng = random.Random(args.seed)
    tamaki_bad = []
    openlocal_bad = []
    for i in range(cases):
        dec = randomcases.random_decomposition(rng, max_size=6)
        rep = decomposition.analyze(dec)
        pi_open = decomposition.open_closed_by_opens(dec)[0]
        if pi_open != rep.tamaki_agrees:
            tamaki_bad.append(i)
        if pi_open:
            lc = all(rep.blocks_locally_closed.values())
            if rep.quotient_is_poset != lc:
                openlocal_bad.append(i)
    checks = [
        _check("openness criterion agrees with direct check", not tamaki_bad,
               f"{cases} cases, seed {args.seed}"),
        _check("poset quotient iff locally closed blocks (open cases)",
               not openlocal_bad, f"seed {args.seed}"),
    ]
    results = {"cases": cases, "seed": args.seed,
               "tamaki_disagreements": tamaki_bad,
               "open_locally_disagreements": openlocal_bad}
    return results, checks


# -- arguments -------------------------------------------------------------------

DESCRIPTION = ("finite order/topology toolkit: preorders, decomposition spaces, "
               "arrangement face posets, hom-set stratifications")

# Name -> (attribute, metavar, value type, default, help).  A flag has no
# metavar and no type and stores True; a name without dashes is a positional
# read after the action.
OPTIONS = {
    "--input": ("input", "FILE", str, None, "JSON input file (default: stdin)"),
    "--dual": ("dual", None, None, False, "reverse the order convention on output"),
    "--dot": ("dot", "PATH", str, None, "write a DOT diagram here"),
    "--full-relation": ("full_relation", None, None, False,
                        "DOT: emit every related pair, not the covering relation"),
    "--max-dim": ("max_dim", "N", int, None, "highest dimension of the Betti numbers"),
    "--seed": ("seed", "N", int, 0, "oracle: random seed"),
    "--cases": ("cases", "N", int, 200, "oracle: number of cases"),
    "CASE": ("case", None, str, "all", "run: golden case (default: all)"),
}

# Group -> (help line, action -> (function, names in OPTIONS that it reads)).
COMMANDS = {
    "topology": ("finite topologies and the two functors", {
        "check": (_topology_check, ("--input",)),
        "to-preorder": (_topology_to_preorder,
                        ("--input", "--dual", "--dot", "--full-relation")),
        "from-preorder": (_topology_from_preorder,
                          ("--input", "--dual", "--dot", "--full-relation")),
        "closure": (_topology_closure, ("--input",))}),
    "decomp": ("decomposition spaces", {
        "analyze": (_decomp_analyze, ("--input", "--dot", "--full-relation")),
        "quotient": (_decomp_quotient, ("--input",)),
        "validate": (_decomp_validate, ("--input",)),
        "product": (_decomp_product, ("--input",))}),
    "arrangement": ("hyperplane arrangement faces", {
        "faces": (_arrangement_faces, ("--input",)),
        "poset": (_arrangement_poset, ("--input", "--dual", "--dot", "--full-relation")),
        "check-ob": (_arrangement_check_ob, ("--input", "--dual"))}),
    "homset": ("hom-set preorders and Yoneda machinery", {
        "preorder": (_homset_preorder, ("--input", "--dual", "--dot", "--full-relation")),
        "stratify": (_homset_stratify, ("--input", "--dot", "--full-relation")),
        "functor-check": (_homset_functor_check, ("--input",)),
        "yoneda": (_homset_yoneda, ("--input",))}),
    "homology": ("order complexes and Betti numbers", {
        "order-complex": (_homology_order_complex, ("--input",)),
        "betti": (_homology_betti, ("--input", "--max-dim"))}),
    "corpus": ("golden examples and seeded property suites", {
        "list": (_corpus_list, ()),
        "run": (_corpus_run, ("CASE",)),
        "oracle": (_corpus_oracle, ("--seed", "--cases"))}),
}


def _spelled(name):
    metavar = OPTIONS[name][1]
    return f"{name} {metavar}" if metavar else name


def _usage(group, action=None):
    """Usage of the whole program, or one line per action of ``group``
    (just ``action`` once it is known) with the options it takes."""
    if group is None:
        return "usage: stratikit [-h] {" + ",".join(COMMANDS) + "} ..."
    lines = [" ".join(["stratikit", group, name, *(f"[{_spelled(o)}]" for o in declared)])
             for name, (_, declared) in COMMANDS[group][1].items() if action in (None, name)]
    return "usage: " + "\n       ".join(lines)


def _fail(message, group=None, action=None):
    """A usage error: usage and message on stderr, exit status 2."""
    sys.stderr.write(f"{_usage(group, action)}\nstratikit: error: {message}\n")
    raise SystemExit(2)


def _help(group):
    if group is None:
        lines = [DESCRIPTION, "", "commands:"]
        lines += [f"  {name:<12} {spec[0]}" for name, spec in COMMANDS.items()]
        lines.append("\nrun `stratikit COMMAND --help` for the options of a command")
    else:
        text, actions = COMMANDS[group]
        taken = {name for _, declared in actions.values() for name in declared}
        lines = [text, "", "options:", f"  {'-h, --help':<22} show this help and exit"]
        lines += [f"  {_spelled(name):<22} {spec[4]}"
                  for name, spec in OPTIONS.items() if name in taken]
    sys.stdout.write(f"{_usage(group)}\n\n" + "\n".join(lines) + "\n")
    raise SystemExit(0)


def _is_value(token):
    """True unless the token looks like an option; a negative number such as
    ``-3`` is a value."""
    return token[:1] != "-" or token == "-" or token[1:].isdecimal()


def parse_args(argv):
    """(group, namespace) of a command line ``GROUP ACTION [options]``: the
    action, and one attribute per option that the action declares.

    Options may come before or after the action, as ``--opt value`` or
    ``--opt=value``; option names must be spelled out in full, and an option
    that the action does not declare is refused.  ``-h`` or ``--help`` prints
    help and exits 0; a usage error exits 2."""
    if not argv:
        _fail("the following arguments are required: command")
    group, *tokens = argv
    if group in ("-h", "--help"):
        _help(None)
    if group not in COMMANDS:
        _fail(f"argument command: invalid choice: {group!r} "
              f"(choose from {', '.join(map(repr, COMMANDS))})")
    actions = COMMANDS[group][1]
    given = []  # (name, tokens as spelled, value) of each option on the line
    positionals = []
    tokens = iter(tokens)
    for token in tokens:
        if _is_value(token):
            positionals.append(token)
            continue
        if token in ("-h", "--help"):
            _help(group)
        name, eq, value = token.partition("=")
        if name not in OPTIONS:
            _fail(f"unrecognized arguments: {token}", group)
        kind = OPTIONS[name][2]
        if kind is None:
            if eq:
                _fail(f"argument {name}: ignored explicit argument {value!r}", group)
            given.append((name, token, True))
            continue
        if not eq:
            value = next(tokens, None)
            if value is None or not _is_value(value):
                _fail(f"argument {name}: expected one argument", group)
            token = f"{token} {value}"
        try:
            given.append((name, token, kind(value)))
        except ValueError:
            _fail(f"argument {name}: invalid {kind.__name__} value: {value!r}", group)
    if not positionals:
        _fail("the following arguments are required: action", group)
    action, *rest = positionals
    if action not in actions:
        _fail(f"argument action: invalid choice: {action!r} "
              f"(choose from {', '.join(map(repr, actions))})", group)
    declared = actions[action][1]
    if rest and "CASE" in declared:
        given.append(("CASE", "", rest.pop(0)))
    unrecognized = [token for name, token, _ in given if name not in declared] + rest
    if unrecognized:
        _fail(f"unrecognized arguments: {' '.join(unrecognized)}", group, action)
    values = {OPTIONS[name][0]: OPTIONS[name][3] for name in declared}
    values.update((OPTIONS[name][0], value) for name, _, value in given)
    return group, types.SimpleNamespace(action=action, **values)


def _run(group, args):
    """Run one action and write its report; 0 if every check passes, else 1."""
    function, declared = COMMANDS[group][1][args.action]
    doc = text = None
    if "--input" in declared:
        doc, text = _read_input(args)
    results, checks = function(doc, args)
    report = {
        "command": f"{group} {args.action}",
        "inputs": {"sha256": "", "bytes": 0} if text is None else _digest(text),
        "results": results,
        "checks": checks,
    }
    sys.stdout.write(jsonio.canonical_dumps(report) + "\n")
    return 0 if all(c["pass"] for c in checks) else 1


def main(argv=None):
    group, args = parse_args(sys.argv[1:] if argv is None else list(argv))
    try:
        return _run(group, args)
    except StratikitError as exc:
        error = {"error": {"message": str(exc), "path": exc.path or ""}}
        sys.stdout.write(jsonio.canonical_dumps(error) + "\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
