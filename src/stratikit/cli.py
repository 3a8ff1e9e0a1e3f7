"""Command-line entry point: JSON in, a deterministic run report out.

Exit codes: 0 all checks pass, 1 a check failed, 2 malformed input (the error
object names the offending schema path) or a usage error (reported on stderr).
"""

from __future__ import annotations

import json
import sys

from . import (arrangement, category, corpus, decomposition, dot, homology, jsonio,
               order, randomcases, topology)
from .errors import InputError, StratikitError, StructureError


def _read_input(args):
    if getattr(args, "input", None):
        with open(args.input, "r", encoding="utf-8") as fh:
            text = fh.read()
    else:
        text = sys.stdin.read()
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"input is not JSON: {exc}", path="$") from exc
    if not isinstance(doc, dict):
        raise InputError(f"expected object, got {type(doc).__name__}", path="")
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


def _report(command, inputs, results, checks):
    return {
        "command": command,
        "inputs": inputs,
        "results": results,
        "checks": checks,
    }


def _emit(report, stream=None):
    stream = stream or sys.stdout
    stream.write(jsonio.canonical_dumps(report) + "\n")
    return 0 if all(c["pass"] for c in report["checks"]) else 1


def _write_dot(args, preorder):
    if getattr(args, "dot", None):
        with open(args.dot, "w", encoding="utf-8") as fh:
            fh.write(dot.preorder_dot(preorder, full_relation=args.full_relation))


def _maybe_dual(args, preorder):
    return preorder.dual() if getattr(args, "dual", False) else preorder


# -- topology ----------------------------------------------------------------


def cmd_topology(args):
    doc, text = _read_input(args)
    checks = []
    if args.action == "check":
        try:
            space = jsonio.load_topology(doc)
        except StructureError as exc:
            checks.append({"name": "family is a topology", "pass": False,
                           "detail": str(exc)})
            return _emit(_report("topology check", _digest(text), {}, checks))
        checks.append({"name": "family is a topology", "pass": True, "detail": ""})
        return _emit(_report("topology check", _digest(text),
                             jsonio.dump_topology(space), checks))
    if args.action == "from-preorder":
        pre = _maybe_dual(args, jsonio.load_preorder(doc))
        space = topology.FiniteTopology.from_preorder(pre)
        checks.append({"name": "specialization preorder round-trips",
                       "pass": topology.rows_of_opens(space) == list(pre.up),
                       "detail": ""})
        _write_dot(args, pre)
        return _emit(_report("topology from-preorder", _digest(text),
                             jsonio.dump_topology(space), checks))
    if args.action == "to-preorder":
        space = jsonio.load_topology(doc)
        pre = _maybe_dual(args, space.specialization_preorder())
        again = topology.FiniteTopology.from_preorder(
            order.Preorder(space.carrier, topology.rows_of_opens(space)))
        checks.append({"name": "alexandroff topology round-trips",
                       "pass": again == space, "detail": ""})
        _write_dot(args, pre)
        return _emit(_report("topology to-preorder", _digest(text),
                             jsonio.dump_preorder(pre), checks))
    if args.action == "closure":
        space = jsonio.load_topology(jsonio.expect(doc, "space", dict, ""), path="space")
        subset = jsonio.load_subset(doc, space.carrier)
        closed = space.closure(subset)
        mask = space.mask(closed)
        checks.append({
            "name": "closure is extensive and idempotent",
            "pass": (space.mask(subset) & ~mask) == 0
                    and space.closure_mask(mask) == mask,
            "detail": ""})
        return _emit(_report("topology closure", _digest(text),
                             {"subset": subset, "closure": list(closed)}, checks))
    raise InputError(f"unknown topology action {args.action!r}")


# -- decomposition -----------------------------------------------------------


def cmd_decomp(args):
    doc, text = _read_input(args)
    if args.action == "quotient":
        dec = jsonio.load_decomposition(doc)
        q = decomposition.quotient_topology(dec)
        checks = [{"name": "projection continuous for the quotient topology",
                   "pass": all(dec.space.is_open(dec.preimage_mask(u)) for u in q.opens),
                   "detail": ""}]
        return _emit(_report("decomp quotient", _digest(text),
                             jsonio.dump_topology(q), checks))
    if args.action == "analyze":
        dec = jsonio.load_decomposition(doc)
        rep = decomposition.analyze(dec)
        reference = decomposition.MOORE_CLASS[decomposition.open_closed_by_opens(dec)]
        checks = [
            {"name": "semicontinuity class consistent with map openness/closedness",
             "pass": rep.moore_class == reference, "detail": rep.moore_class},
        ]
        _write_dot(args, rep.star_preorder)
        return _emit(_report("decomp analyze", _digest(text),
                             rep.to_json_dict(), checks))
    if args.action == "validate":
        dec = jsonio.load_decomposition(doc)
        strat = decomposition.validate_stratification(dec)
        checks = []
        if strat.is_stratification:
            checks.append({
                "name": "projection continuous to the closure-order poset",
                "pass": bool(strat.pi_continuous_to_star), "detail": ""})
            checks.append({
                "name": "closure-order topology equals the quotient topology",
                "pass": bool(strat.star_topology_equals_quotient), "detail": ""})
        return _emit(_report("decomp validate", _digest(text),
                             strat.to_json_dict(), checks))
    if args.action == "product":
        factors = doc.get("factors")
        if not isinstance(factors, list) or not factors:
            raise InputError("'factors' must be a nonempty list", path="factors")
        decs = [jsonio.load_decomposition(f, path=f"factors[{i}]")
                for i, f in enumerate(factors)]
        try:
            prod, ver = decomposition.product_decomposition(decs)
        except StructureError as exc:  # a factor whose projection is not open
            report = _report("decomp product", _digest(text), {},
                             [{"name": "factors lower semicontinuous",
                               "pass": False, "detail": str(exc)}])
            return _emit(report)
        checks = [{"name": n, "pass": ok, "detail": ""} for n, ok in ver.checks]
        return _emit(_report("decomp product", _digest(text),
                             jsonio.dump_decomposition(prod), checks))
    raise InputError(f"unknown decomp action {args.action!r}")


# -- arrangement ---------------------------------------------------------------


def cmd_arrangement(args):
    doc, text = _read_input(args)
    arr = jsonio.load_arrangement(doc)
    faces = arrangement.enumerate_faces(arr)
    if args.action == "faces":
        checks = [{
            "name": "witness signs recompute exactly",
            "pass": all(arrangement.sign_map(arr, f.witness) == f.signs for f in faces),
            "detail": ""}]
        results = {
            "count": len(faces),
            "faces": [{
                "signs": f.label,
                "witness": [jsonio.format_rational(c) for c in f.witness],
            } for f in faces],
        }
        return _emit(_report("arrangement faces", _digest(text), results, checks))
    poset = arrangement.face_poset(arr, faces)
    if args.dual:
        poset = poset.dual()
    if args.action == "poset":
        checks = [{"name": "componentwise order is a partial order",
                   "pass": poset.is_partial_order(), "detail": ""}]
        if arr.is_central() and not args.dual:
            bottom = "0" * arr.k
            checks.append({
                "name": "central arrangement has the all-zero bottom",
                "pass": all(poset.leq(bottom, f.label) for f in faces),
                "detail": bottom})
        _write_dot(args, poset)
        return _emit(_report("arrangement poset", _digest(text),
                             jsonio.dump_preorder(poset), checks))
    if args.action == "check-ob":
        oracle = arrangement.closure_rows(arr, faces)
        if args.dual:
            oracle = order.transpose(oracle)
        disagreements = [
            [faces[i].label, faces[j].label]
            for i, (row, expected) in enumerate(zip(poset.up, oracle))
            for j in order.bit_indices(row ^ expected)]
        checks = [{
            "name": "componentwise order agrees with the closure-inclusion oracle",
            "pass": not disagreements,
            "detail": f"{len(faces) ** 2} pairs"}]
        results = {"pairs_checked": len(faces) ** 2, "disagreements": disagreements}
        return _emit(_report("arrangement check-ob", _digest(text), results, checks))
    raise InputError(f"unknown arrangement action {args.action!r}")


# -- homset --------------------------------------------------------------------


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


def cmd_homset(args):
    doc, text = _read_input(args)
    cat = jsonio.load_category(jsonio.expect(doc, "category", None, ""), path="category")
    if args.action == "preorder":
        x, y, side = _hom_endpoints(doc, cat)
        pre, witnesses = category.hom_preorder_details(cat, x, y, side)
        pre = _maybe_dual(args, pre)
        _write_dot(args, pre)
        results = {
            "preorder": jsonio.dump_preorder(pre),
            "witnesses": {f"{g}<={f}": w for (g, f), w in sorted(witnesses.items())},
        }
        return _emit(_report("homset preorder", _digest(text), results, []))
    if args.action == "stratify":
        x, y, side = _hom_endpoints(doc, cat)
        pss, rep = category.hom_stratified(cat, x, y, side)
        checks = [
            {"name": "projection open", "pass": rep.projection_open, "detail": ""},
            {"name": "fibers locally closed",
             "pass": all(rep.fibers_locally_closed.values()),
             "detail": str(rep.fibers_locally_closed)},
            {"name": "quotient order equals closure inclusion",
             "pass": rep.order_matches_closure, "detail": ""},
        ]
        results = {
            "strata": jsonio.dump_preorder(pss.strata_poset),
            "strat_map": dict(sorted(pss.strat_map.items())),
            "witnesses": {f"{g}<={f}": w
                          for (g, f), w in sorted(rep.witnesses.items())},
        }
        _write_dot(args, pss.strata_poset)
        return _emit(_report("homset stratify", _digest(text), results, checks))
    if args.action == "functor-check":
        jsonio.expect(doc, "anchor", None, "")
        side = str(doc.get("side", "R-covariant"))
        side = {"R": "R-covariant", "L": "L-contravariant"}.get(side, side)
        if side not in ("R-covariant", "L-contravariant"):
            raise InputError("side must be 'R-covariant' or 'L-contravariant'",
                             path="side")
        anchor = _object(cat, doc, "anchor")
        rep = category.st_functor_check(cat, anchor, side)
        checks = [
            {"name": "identity law", "pass": rep.identity_law, "detail": ""},
            {"name": "composition law", "pass": rep.composition_law, "detail": ""},
        ]
        for sq in rep.squares:
            checks.append({"name": f"square at {sq.morphism}", "pass": sq.ok(),
                           "detail": ""})
        results = {"anchor": anchor, "side": side,
                   "squares": [sq.morphism for sq in rep.squares]}
        return _emit(_report("homset functor-check", _digest(text), results, checks))
    if args.action == "yoneda":
        jsonio.expect(doc, "anchor", None, "")
        fun = jsonio.load_functor(cat, jsonio.expect(doc, "functor", None, ""), path="functor")
        anchor = _object(cat, doc, "anchor")
        transformations, yrep = category.yoneda_natural_transformations(cat, fun, anchor)
        imrep = category.yoneda_image_report(cat, fun, anchor)
        checks = [
            {"name": "evaluation at the identity is a bijection",
             "pass": yrep.ok(),
             "detail": f"{yrep.transformation_count} transformations vs "
                       f"{yrep.target_size} target elements"},
            {"name": "image family is natural",
             "pass": imrep.naturality_holds, "detail": ""},
            {"name": "left order reverses image inclusion",
             "pass": imrep.monotone_inclusion_holds, "detail": imrep.note},
        ]
        results = {
            "transformation_count": yrep.transformation_count,
            "target_size": yrep.target_size,
            "images": {
                x: {f: sorted(s) for f, s in sorted(per.items())}
                for x, per in sorted(imrep.images.items())
            },
            "order_direction_note": imrep.note,
        }
        return _emit(_report("homset yoneda", _digest(text), results, checks))
    raise InputError(f"unknown homset action {args.action!r}")


# -- homology --------------------------------------------------------------------


def cmd_homology(args):
    doc, text = _read_input(args)
    pre = jsonio.load_preorder(doc)
    poset = pre.to_poset()
    complex_ = homology.order_complex(poset)
    euler = {"name": "euler characteristic consistent",
             "pass": homology.euler_characteristic_consistent(poset, complex_),
             "detail": ""}
    if args.action == "order-complex":
        checks = [euler]
        results = {
            "f_vector": complex_.f_vector(),
            "simplices": complex_.simplex_labels(),
        }
        return _emit(_report("homology order-complex", _digest(text), results, checks))
    if args.action == "betti":
        numbers = homology.betti(complex_, args.max_dim)
        checks = [
            {"name": "boundary of boundary vanishes",
             "pass": homology.boundary_squares_to_zero(complex_), "detail": ""},
            euler,
        ]
        results = {"f_vector": complex_.f_vector(), "betti": numbers}
        return _emit(_report("homology betti", _digest(text), results, checks))
    raise InputError(f"unknown homology action {args.action!r}")


# -- corpus ----------------------------------------------------------------------


def cmd_corpus(args):
    if args.action == "list":
        unmatched = corpus.unmatched_cases()
        detail = ("not in all of CASE_NAMES, RUNNERS and corpus_data: "
                  + ", ".join(unmatched)) if unmatched else ""
        report = _report("corpus list", {"sha256": "", "bytes": 0},
                         {"cases": list(corpus.CASE_NAMES)},
                         [{"name": "corpus complete", "pass": not unmatched,
                           "detail": detail}])
        return _emit(report)
    if args.action == "run":
        names = list(corpus.CASE_NAMES) if args.case == "all" else [args.case]
        all_checks = []
        results = {}
        for name in names:
            try:
                case_results, checks, g = corpus.run_case(name)
            except KeyError as exc:
                raise InputError(str(exc)) from exc
            results[name] = {
                "provenance": g.get("provenance", ""),
                "note": g.get("note", ""),
                "results": case_results,
            }
            for c in checks:
                all_checks.append({"name": f"{name}: {c['name']}",
                                   "pass": c["pass"], "detail": c["detail"]})
        return _emit(_report("corpus run", {"sha256": "", "bytes": 0},
                             results, all_checks))
    if args.action == "oracle":
        import random
        rng = random.Random(args.seed)
        cases = args.cases
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
            {"name": "openness criterion agrees with direct check",
             "pass": not tamaki_bad, "detail": f"{cases} cases, seed {args.seed}"},
            {"name": "poset quotient iff locally closed blocks (open cases)",
             "pass": not openlocal_bad, "detail": f"seed {args.seed}"},
        ]
        results = {"cases": cases, "seed": args.seed,
                   "tamaki_disagreements": tamaki_bad,
                   "open_locally_disagreements": openlocal_bad}
        return _emit(_report("corpus oracle", {"sha256": "", "bytes": 0},
                             results, checks))
    raise InputError(f"unknown corpus action {args.action!r}")


# -- arguments -------------------------------------------------------------------

DESCRIPTION = ("finite order/topology toolkit: preorders, decomposition spaces, "
               "arrangement face posets, hom-set stratifications")

# Option -> (attribute, metavar, value type, default, help); a flag has no
# metavar and no type and stores True.
_INPUT = {"--input": ("input", "FILE", str, None, "JSON input file (default: stdin)")}
_DRAWN = {**_INPUT,
          "--dual": ("dual", None, None, False, "reverse the order convention on output"),
          "--dot": ("dot", "PATH", str, None, "write a DOT diagram here"),
          "--full-relation": ("full_relation", None, None, False,
                              "DOT: emit every related pair, not the covering relation")}

# Group -> (handler, actions, options, (attribute, default) of the optional
# positional after the action or None, help line).
COMMANDS = {
    "topology": (cmd_topology, ("check", "to-preorder", "from-preorder", "closure"),
                 _DRAWN, None, "finite topologies and the two functors"),
    "decomp": (cmd_decomp, ("analyze", "quotient", "validate", "product"),
               _DRAWN, None, "decomposition spaces"),
    "arrangement": (cmd_arrangement, ("faces", "poset", "check-ob"),
                    _DRAWN, None, "hyperplane arrangement faces"),
    "homset": (cmd_homset, ("preorder", "stratify", "functor-check", "yoneda"),
               _DRAWN, None, "hom-set preorders and Yoneda machinery"),
    "homology": (cmd_homology, ("order-complex", "betti"),
                 {**_INPUT, "--max-dim": ("max_dim", "N", int, None,
                                          "highest dimension of the Betti numbers")},
                 None, "order complexes and Betti numbers"),
    "corpus": (cmd_corpus, ("list", "run", "oracle"),
               {"--seed": ("seed", "N", int, 0, "oracle: random seed"),
                "--cases": ("cases", "N", int, 200, "oracle: number of cases")},
               ("case", "all"), "golden examples and seeded property suites"),
}


class Arguments:
    """The parsed command line: the action and one attribute per option of
    its group."""

    def __init__(self, values):
        self.__dict__.update(values)


def _choices(names):
    return "{" + ",".join(names) + "}"


def _usage(group):
    if group is None:
        return f"usage: stratikit [-h] {_choices(COMMANDS)} ..."
    _, actions, options, extra, _ = COMMANDS[group]
    words = [f"[{name} {spec[1]}]" if spec[1] else f"[{name}]"
             for name, spec in options.items()]
    words.append(_choices(actions))
    if extra:
        words.append(f"[{extra[0].upper()}]")
    return f"usage: stratikit {group} [-h] {' '.join(words)}"


def _fail(message, group=None):
    """A usage error: usage and message on stderr, exit status 2."""
    sys.stderr.write(f"{_usage(group)}\nstratikit: error: {message}\n")
    raise SystemExit(2)


def _help(group):
    if group is None:
        lines = [DESCRIPTION, "", "commands:"]
        lines += [f"  {name:<12} {spec[4]}" for name, spec in COMMANDS.items()]
        lines.append("\nrun `stratikit COMMAND --help` for the options of a command")
    else:
        _, actions, options, _, text = COMMANDS[group]
        lines = [text, "", f"actions: {', '.join(actions)}", "", "options:",
                 f"  {'-h, --help':<22} show this help and exit"]
        for name, spec in options.items():
            spelled = f"{name} {spec[1]}" if spec[1] else name
            lines.append(f"  {spelled:<22} {spec[4]}")
    sys.stdout.write(f"{_usage(group)}\n\n" + "\n".join(lines) + "\n")
    raise SystemExit(0)


def _is_value(token):
    """True unless the token looks like an option; a negative number such as
    ``-3`` is a value."""
    return token[:1] != "-" or token == "-" or token[1:].isdecimal()


def parse_args(argv):
    """(handler, Arguments) of a command line ``GROUP ACTION [options]``.

    Options may come before or after the action, as ``--opt value`` or
    ``--opt=value``; option names must be spelled out in full.  ``-h`` or
    ``--help`` prints help and exits 0; a usage error exits 2."""
    if not argv:
        _fail("the following arguments are required: command")
    group, *tokens = argv
    if group in ("-h", "--help"):
        _help(None)
    if group not in COMMANDS:
        _fail(f"argument command: invalid choice: {group!r} "
              f"(choose from {', '.join(map(repr, COMMANDS))})")
    handler, actions, options, extra, _ = COMMANDS[group]
    values = {spec[0]: spec[3] for spec in options.values()}
    positionals = []
    tokens = iter(tokens)
    for token in tokens:
        if _is_value(token):
            positionals.append(token)
            continue
        if token in ("-h", "--help"):
            _help(group)
        name, eq, value = token.partition("=")
        if name not in options:
            _fail(f"unrecognized arguments: {token}", group)
        attribute, _, kind, _, _ = options[name]
        if kind is None:
            if eq:
                _fail(f"argument {name}: ignored explicit argument {value!r}", group)
            values[attribute] = True
            continue
        if not eq:
            value = next(tokens, None)
            if value is None or not _is_value(value):
                _fail(f"argument {name}: expected one argument", group)
        try:
            values[attribute] = kind(value)
        except ValueError:
            _fail(f"argument {name}: invalid {kind.__name__} value: {value!r}", group)
    if not positionals:
        _fail("the following arguments are required: action", group)
    action, *rest = positionals
    if action not in actions:
        _fail(f"argument action: invalid choice: {action!r} "
              f"(choose from {', '.join(map(repr, actions))})", group)
    if extra:
        values[extra[0]] = rest.pop(0) if rest else extra[1]
    if rest:
        _fail(f"unrecognized arguments: {' '.join(rest)}", group)
    values["action"] = action
    return handler, Arguments(values)


def main(argv=None):
    handler, args = parse_args(sys.argv[1:] if argv is None else list(argv))
    try:
        return handler(args)
    except InputError as exc:
        error = {"error": {"message": str(exc), "path": exc.path or ""}}
        sys.stdout.write(jsonio.canonical_dumps(error) + "\n")
        return 2
    except StratikitError as exc:
        error = {"error": {"message": str(exc), "path": ""}}
        sys.stdout.write(jsonio.canonical_dumps(error) + "\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
