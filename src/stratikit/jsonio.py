"""JSON ingestion and emission for every value type, with schema-path errors.

Rationals travel as integers or "p/q" strings; they are emitted as the
lowest-terms string form with the sign on the numerator.  ``fractions`` (and
``decimal`` under it) is imported only where a rational is handled, so a
document without rationals never loads it.
"""

from __future__ import annotations

import json

from . import arrangement, category, decomposition, order, topology
from .errors import InputError


def parse_rational(value, path=""):
    from fractions import Fraction
    if isinstance(value, bool):
        raise InputError(f"expected rational, got boolean", path=path)
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
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


def _expect(doc, key, kind, path):
    if not isinstance(doc, dict):
        raise InputError(f"expected object, got {type(doc).__name__}", path=path)
    if key not in doc:
        raise InputError(f"missing key {key!r}", path=_join(path, key))
    value = doc[key]
    if kind is not None and not isinstance(value, kind):
        raise InputError(
            f"key {key!r} should be {kind.__name__}, got {type(value).__name__}",
            path=_join(path, key))
    return value


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
    for i, p in enumerate(_expect(doc, key, list, path)):
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
    for i, entry in enumerate(_expect(doc, key, list, path)):
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
    return _members(_expect(doc, "subset", list, path), set(carrier), "subset", at)


def load_preorder(doc, path=""):
    carrier = [str(x) for x in _expect(doc, "carrier", list, path)]
    return order.Preorder.from_pairs(carrier,
                                     _label_pairs(doc, "pairs", carrier, path))


def dump_preorder(p):
    return {"carrier": list(p.carrier), "pairs": [list(x) for x in p.pairs()]}


def load_topology(doc, path=""):
    carrier = [str(x) for x in _expect(doc, "carrier", list, path)]
    if "opens" in doc:
        return topology.FiniteTopology.from_open_sets(
            carrier, _label_lists(doc, "opens", carrier, path))
    if "preorder_pairs" in doc:
        pairs = _label_pairs(doc, "preorder_pairs", carrier, path)
        return topology.FiniteTopology.from_preorder(
            order.Preorder.from_pairs(carrier, pairs))
    raise InputError("topology needs either 'opens' or 'preorder_pairs'",
                     path=path or "opens")


def dump_topology(t):
    return {"carrier": list(t.carrier), "opens": t.opens_as_labels()}


def load_decomposition(doc, path=""):
    space = load_topology(_expect(doc, "space", dict, path),
                          path=_join(path, "space"))
    blocks = _label_lists(doc, "blocks", space.carrier, path)
    labels = None
    if doc.get("labels") is not None:
        labels = [str(x) for x in _expect(doc, "labels", list, path)]
    return decomposition.Decomposition(space, blocks, labels)


def dump_decomposition(d):
    return {
        "space": dump_topology(d.space),
        "blocks": [list(d.space.labels(b)) for b in d.blocks],
        "labels": list(d.labels),
    }


def load_arrangement(doc, path=""):
    dim = _expect(doc, "dim", int, path)
    forms = _expect(doc, "forms", list, path)
    parsed = []
    for i, form in enumerate(forms):
        if not isinstance(form, list):
            raise InputError("each form must be a coefficient list",
                             path=f"forms[{i}]")
        parsed.append([
            parse_rational(c, path=f"forms[{i}][{j}]") for j, c in enumerate(form)
        ])
    return arrangement.Arrangement(dim, parsed)


def dump_arrangement(a):
    return {
        "dim": a.dim,
        "forms": [[format_rational(c) for c in f] for f in a.forms],
    }


def _parse_hom_key(key, path):
    for sep in ("→", "->"):
        if sep in key:
            x, y = key.split(sep, 1)
            return x.strip(), y.strip()
    raise InputError(f"hom key {key!r} must look like 'X->Y'", path=path)


def load_category(doc, path=""):
    objects = [str(x) for x in _expect(doc, "objects", list, path)]
    homs_doc = _expect(doc, "homs", dict, path)
    homs = {}
    for key, ms in homs_doc.items():
        pair = _parse_hom_key(str(key), path=f"homs.{key}")
        if not isinstance(ms, list):
            raise InputError("hom value must be a list of labels", path=f"homs.{key}")
        homs[pair] = [str(m) for m in ms]
    identities = {
        str(k): str(v)
        for k, v in _expect(doc, "identities", dict, path).items()
    }
    compose_doc = _expect(doc, "compose", list, path)
    compose = []
    for i, row in enumerate(compose_doc):
        if not isinstance(row, list) or len(row) != 3:
            raise InputError("each composition entry must be [g, f, gf]",
                             path=f"compose[{i}]")
        compose.append(tuple(str(x) for x in row))
    return category.FiniteCategory(objects, homs, identities, compose)


def dump_category(cat):
    return {
        "objects": list(cat.objects),
        "homs": {
            f"{x}→{y}": list(ms)
            for (x, y), ms in sorted(cat.hom_table.items()) if ms
        },
        "identities": dict(sorted(cat.identity.items())),
        "compose": [[g, f, h] for (g, f), h in sorted(cat._compose.items())],
    }


def load_functor(cat, doc, path=""):
    variance = _expect(doc, "variance", str, path)
    objects = _expect(doc, "on_objects", dict, path)
    at = _join(path, "on_objects")
    on_objects = {str(k): [str(v) for v in _expect(objects, k, list, at)]
                  for k in objects}
    morphisms = _expect(doc, "on_morphisms", dict, path)
    at = _join(path, "on_morphisms")
    on_morphisms = {
        str(k): {str(a): str(b) for a, b in _expect(morphisms, k, dict, at).items()}
        for k in morphisms
    }
    return category.SetFunctor(cat, variance, on_objects, on_morphisms)


def dump_functor(fun):
    return {
        "variance": fun.variance,
        "on_objects": {x: list(v) for x, v in sorted(fun.on_objects.items())},
        "on_morphisms": {
            m: dict(sorted(fn.items()))
            for m, fn in sorted(fun.on_morphisms.items())
        },
    }


def canonical_dumps(doc):
    return json.dumps(doc, indent=2, ensure_ascii=False, sort_keys=False)
