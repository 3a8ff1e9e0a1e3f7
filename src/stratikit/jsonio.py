"""JSON ingestion and emission for every value type, with schema-path errors.

Rationals travel as integers or "p/q" strings; they are emitted as the
lowest-terms string form with the sign on the numerator.  ``fractions`` (and
``decimal`` under it) is imported only where a "p/q" string is read or a
rational is written, so a document of integers that prints no rational
never loads it.
"""

from json.encoder import encode_basestring as _quote

from . import arrangement, category, decomposition, order, topology
from .errors import InputError, StratikitError


def parse_rational(value, path=""):
    """A JSON int as the int itself, a "p/q" string as a Fraction."""
    if isinstance(value, bool):
        raise InputError(f"expected rational, got boolean", path=path)
    if isinstance(value, int):
        return value
    if isinstance(value, str):
        from fractions import Fraction
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError):
            raise InputError(f"cannot parse rational {value!r}", path=path) from None
    raise InputError(f"expected int or 'p/q' string, got {type(value).__name__}",
                     path=path)


def format_rational(q):
    from fractions import Fraction
    return str(Fraction(q))


def _join(path, key):
    return f"{path}.{key}" if path else key


def expect(doc, key, kind, path):
    """``doc[key]``, checked to be an instance of ``kind`` unless that is None
    (a JSON ``true`` or ``false`` is not an ``int``); a non-object ``doc``, a
    missing key or a wrong type is refused with the key's schema path under
    ``path``."""
    if not isinstance(doc, dict):
        raise InputError(f"expected object, got {type(doc).__name__}", path=path)
    if key not in doc:
        raise InputError(f"missing key {key!r}", path=_join(path, key))
    value = doc[key]
    if kind is not None and (not isinstance(value, kind)
                             or kind is int and isinstance(value, bool)):
        raise InputError(
            f"key {key!r} should be {kind.__name__}, got {type(value).__name__}",
            path=_join(path, key))
    return value


def _within(path, build, *args):
    """``build(*args)``; an error whose path is relative to the built value (a
    carrier, a form, a block, an identity, a functor key) gets ``path`` in
    front."""
    try:
        return build(*args)
    except StratikitError as exc:
        exc.path = exc.path and _join(path, exc.path)
        raise


def _members(entry, known, what, at):
    """The labels of one list entry at path ``at``; a label outside ``known``
    is refused with the path of its position in the entry."""
    labels = [str(x) for x in entry]
    for j, label in enumerate(labels):
        if label not in known:
            raise InputError(f"unknown label in {what}: {label!r}", path=f"{at}[{j}]")
    return labels


def _label_pairs(doc, key, carrier, path):
    """The [a, b] label pairs under ``key``; a malformed pair or a label
    outside ``carrier`` is refused with the path of the offending entry."""
    known = set(carrier)
    pairs = []
    for i, p in enumerate(expect(doc, key, list, path)):
        at = _join(path, f"{key}[{i}]")
        if not isinstance(p, list) or len(p) != 2:
            raise InputError("each pair must be a [a, b] list", path=at)
        pairs.append(tuple(_members(p, known, "pairs", at)))
    return pairs


def _label_lists(doc, key, carrier, path):
    """The label lists under ``key`` (open sets, blocks); an entry that is not
    a list or a label outside ``carrier`` is refused with its path."""
    known = set(carrier)
    lists = []
    for i, entry in enumerate(expect(doc, key, list, path)):
        at = _join(path, f"{key}[{i}]")
        if not isinstance(entry, list):
            raise InputError(f"each entry of {key!r} must be a list of labels", path=at)
        lists.append(_members(entry, known, key, at))
    return lists


def load_subset(doc, carrier, path=""):
    """The labels under ``subset`` (none if the key is absent); a non-list or
    a label outside ``carrier`` is refused with its path."""
    if "subset" not in doc:
        return []
    at = _join(path, "subset")
    return _members(expect(doc, "subset", list, path), set(carrier), "subset", at)


def load_preorder(doc, path=""):
    carrier = [str(x) for x in expect(doc, "carrier", list, path)]
    return _within(path, order.Preorder.from_pairs, carrier,
                   _label_pairs(doc, "pairs", carrier, path))


def dump_preorder(p):
    return {"carrier": list(p.carrier), "pairs": [list(x) for x in p.pairs()]}


def load_topology(doc, path=""):
    carrier = [str(x) for x in expect(doc, "carrier", list, path)]
    if "opens" in doc:
        return _within(path, topology.FiniteTopology.from_open_sets,
                       carrier, _label_lists(doc, "opens", carrier, path))
    if "preorder_pairs" in doc:
        pairs = _label_pairs(doc, "preorder_pairs", carrier, path)
        return topology.FiniteTopology.from_preorder(
            _within(path, order.Preorder.from_pairs, carrier, pairs))
    raise InputError("topology needs either 'opens' or 'preorder_pairs'",
                     path=path or "opens")


def dump_topology(t):
    return {"carrier": list(t.carrier), "opens": t.opens_as_labels()}


def load_decomposition(doc, path=""):
    space = load_topology(expect(doc, "space", dict, path),
                          path=_join(path, "space"))
    blocks = _label_lists(doc, "blocks", space.carrier, path)
    labels = None
    if doc.get("labels") is not None:
        labels = [str(x) for x in expect(doc, "labels", list, path)]
    return _within(path, decomposition.Decomposition, space, blocks, labels)


def dump_decomposition(d):
    return {
        "space": dump_topology(d.space),
        "blocks": [list(d.space.labels(b)) for b in d.blocks],
        "labels": list(d.labels),
    }


def dump_analysis(rep):
    """The JSON form of an ``analyze`` report, its quotient topology first."""
    return {
        "quotient": dump_topology(topology.FiniteTopology.from_preorder(rep.tau_pi_preorder)),
        "pi_open": rep.pi_open,
        "pi_closed": rep.pi_closed,
        "moore_class": rep.moore_class,
        "star_preorder": dump_preorder(rep.star_preorder),
        "tau_pi_preorder": dump_preorder(rep.tau_pi_preorder),
        "tamaki_agrees": rep.tamaki_agrees,
        "blocks_locally_closed": rep.blocks_locally_closed,
        "frontier_condition": rep.frontier_condition,
        "quotient_is_poset": rep.quotient_is_poset,
    }


def load_arrangement(doc, path=""):
    dim = expect(doc, "dim", int, path)
    forms = expect(doc, "forms", list, path)
    parsed = []
    for i, form in enumerate(forms):
        if not isinstance(form, list):
            raise InputError("each form must be a coefficient list",
                             path=_join(path, f"forms[{i}]"))
        parsed.append([parse_rational(c, path=_join(path, f"forms[{i}][{j}]"))
                       for j, c in enumerate(form)])
    return _within(path, arrangement.Arrangement, dim, parsed)


def _parse_hom_key(key, path):
    for sep in ("→", "->"):
        if sep in key:
            x, y = key.split(sep, 1)
            return x.strip(), y.strip()
    raise InputError(f"hom key {key!r} must look like 'X->Y'", path=path)


def load_category(doc, path=""):
    objects = [str(x) for x in expect(doc, "objects", list, path)]
    homs_doc = expect(doc, "homs", dict, path)
    homs = {}
    spelled = {}  # each pair's key, as the document spells it
    for key, ms in homs_doc.items():
        at = _join(path, f"homs.{key}")
        pair = _parse_hom_key(str(key), path=at)
        for x in pair:  # the constructor knows the pair, not the key's spelling
            if x not in objects:
                raise InputError(f"unknown object {x!r} in hom key", path=at)
        if not isinstance(ms, list):
            raise InputError("hom value must be a list of labels", path=at)
        if pair in spelled:
            raise InputError(f"hom keys {spelled[pair]!r} and {key!r} name one pair", path=at)
        homs[pair] = [str(m) for m in ms]
        spelled[pair] = key
    seen = set()
    for pair, ms in homs.items():
        for m in ms:
            if m in seen:
                raise InputError(f"morphism label {m!r} used twice",
                                 path=_join(path, f"homs.{spelled[pair]}"))
            seen.add(m)
    identities = {
        str(k): str(v)
        for k, v in expect(doc, "identities", dict, path).items()
    }
    compose_doc = expect(doc, "compose", list, path)
    compose = []
    for i, row in enumerate(compose_doc):
        if not isinstance(row, list) or len(row) != 3:
            raise InputError("each composition entry must be [g, f, gf]",
                             path=_join(path, f"compose[{i}]"))
        compose.append(tuple(str(x) for x in row))
    return _within(path, category.FiniteCategory, objects, homs, identities, compose)


def load_functor(cat, doc, path=""):
    variance = expect(doc, "variance", str, path)
    objects = expect(doc, "on_objects", dict, path)
    at = _join(path, "on_objects")
    on_objects = {str(k): [str(v) for v in expect(objects, k, list, at)]
                  for k in objects}
    morphisms = expect(doc, "on_morphisms", dict, path)
    at = _join(path, "on_morphisms")
    on_morphisms = {
        str(k): {str(a): str(b) for a, b in expect(morphisms, k, dict, at).items()}
        for k in morphisms
    }
    return _within(path, category.SetFunctor, cat, variance, on_objects, on_morphisms)


_LITERALS = {True: "true", False: "false", None: "null"}


def _key(key):
    """A dict key as ``json.dumps`` writes it: ``true``, ``false``, ``null``
    and ints in their JSON spelling, quoted."""
    if isinstance(key, str):
        return _quote(key)
    if key is True or key is False or key is None:
        return _quote(_LITERALS[key])
    if isinstance(key, int):
        return _quote(int.__repr__(key))
    raise TypeError(f"keys must be str, int, bool or None, not {type(key).__name__}")


def _pieces(value, newline, out):
    """Append the text of ``value`` to ``out``; ``newline`` is the line break
    and indent of the value's own line."""
    if isinstance(value, str):
        out.append(_quote(value))
    elif value is True or value is False or value is None:
        out.append(_LITERALS[value])
    elif isinstance(value, int):
        out.append(int.__repr__(value))
    elif isinstance(value, (list, tuple)):
        if not value:
            out.append("[]")
            return
        inner = newline + "  "
        try:  # a list of strings is one piece
            out.append(f"[{inner}{(',' + inner).join(map(_quote, value))}{newline}]")
            return
        except TypeError:
            pass
        lead = "[" + inner
        for v in value:
            out.append(lead)
            lead = "," + inner
            _pieces(v, inner, out)
        out.append(newline + "]")
    elif isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        inner = newline + "  "
        lead = "{" + inner
        for k, v in value.items():
            out.append(f"{lead}{_key(k)}: ")
            lead = "," + inner
            _pieces(v, inner, out)
        out.append(newline + "}")
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def canonical_dumps(doc):
    """Exactly ``json.dumps(doc, indent=2, ensure_ascii=False)``, which runs
    CPython's pure-Python encoder because the C one ignores ``indent``.  Here
    the C string quoter writes every string, and a list of strings is one
    piece.  Only dict, list, tuple, str, int, bool and None are accepted;
    anything else, floats included, raises ``TypeError``."""
    out = []
    _pieces(doc, "\n", out)
    return "".join(out)
