"""Seeded job lists for the three benchmark workloads.

A workload is a list of slots, and each slot has a fixed pool of VARIANTS
inputs (see _variant for how they are made).  The run seed picks one variant
per slot and shuffles the job order.  Because the pool never depends on the
run seed, ``expected.json`` can hold the expected exit code and ``results``
digest of every job the benchmark can ever run.

The generators are self-contained: they compute up-sets, general position and
chain counts on their own, so an input never depends on the code under test.
"""

from __future__ import annotations

import itertools
import json
import random
from fractions import Fraction
from typing import NamedTuple

VARIANTS = 8
WORKLOADS = ("reports", "arrangements", "spaces")


class Job(NamedTuple):
    id: str
    args: tuple  # CLI arguments after `python -m stratikit.cli`, without --input
    doc: object  # JSON input document, or None for a job that reads no input


# -- orders and spaces -------------------------------------------------------


def _labels(prefix, n):
    return [f"{prefix}{i}" for i in range(n)]


def _dag(rng, n, p):
    """Random edges i -> j with i < j, so the closure is always a poset."""
    return [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]


def _up_masks(n, edges):
    """up[i] = bitmask of the up-set of i (edges only go from lower index up)."""
    succ = [[] for _ in range(n)]
    for i, j in edges:
        succ[i].append(j)
    up = [0] * n
    for i in reversed(range(n)):
        up[i] = 1 << i
        for j in succ[i]:
            up[i] |= up[j]
    return up


def _opens(up):
    opens = {0}
    for b in up:
        opens |= {o | b for o in opens}
    return sorted(opens)


def _banded_dag(rng, n, p, lo, hi):
    """Redraw until the number of up-sets (open sets) lies in [lo, hi]."""
    while True:
        edges = _dag(rng, n, p)
        opens = _opens(_up_masks(n, edges))
        if lo <= len(opens) <= hi:
            return edges, opens


def _mask_labels(labels, mask):
    return [x for i, x in enumerate(labels) if mask >> i & 1]


def _pairs(labels, edges):
    return [[labels[i], labels[j]] for i, j in edges]


def _poset_doc(labels, edges):
    return {"carrier": labels, "pairs": _pairs(labels, edges)}


def _space_doc(labels, edges):
    return {"carrier": labels, "preorder_pairs": _pairs(labels, edges)}


def _partition(rng, n, k):
    blocks = {}
    for i in range(n):
        blocks.setdefault(rng.randrange(k), []).append(i)
    return [blocks[b] for b in sorted(blocks)]


def _projection_open(up, blocks):
    """Open iff the saturation of every minimal open set is an up-set."""
    masks = [sum(1 << i for i in b) for b in blocks]
    for u in up:
        sat = 0
        for m in masks:
            if m & u:
                sat |= m
        if any(sat >> i & 1 and up[i] & ~sat for i in range(len(up))):
            return False
    return True


def _decomp_doc(rng, n, p, k, need_open=False):
    labels = _labels("p", n)
    while True:
        edges = _dag(rng, n, p)
        blocks = _partition(rng, n, k)
        if not need_open or _projection_open(_up_masks(n, edges), blocks):
            return {"space": _space_doc(labels, edges),
                    "blocks": [[labels[i] for i in b] for b in blocks]}


def _chain_count(n, edges):
    """Number of nonempty chains, i.e. simplices of the order complex."""
    up = _up_masks(n, edges)
    memo = {}

    def from_(i):  # chains whose least element is i
        if i not in memo:
            memo[i] = 1 + sum(from_(j) for j in range(i + 1, n) if up[i] >> j & 1)
        return memo[i]

    return sum(from_(i) for i in range(n))


def _banded_complex(rng, n, p, lo, hi):
    while True:
        edges = _dag(rng, n, p)
        if lo <= _chain_count(n, edges) <= hi:
            return _poset_doc(_labels("v", n), edges)


def _height_one(rng, n, degree):
    """n/2 minimal elements below n/2 maximal ones, `degree` covers each."""
    half = n // 2
    edges = sorted({(i, half + j) for i in range(half)
                    for j in rng.sample(range(half), degree)})
    return _poset_doc(_labels("w", n), edges)


# -- arrangements --------------------------------------------------------------


def _rank(rows):
    rows = [[Fraction(c) for c in r] for r in rows]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for r in range(rank + 1, len(rows)):
            f = rows[r][col] / rows[rank][col]
            rows[r] = [a - f * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def _general_position(forms, dim):
    """Any m <= dim normals are independent and no dim+1 hyperplanes meet."""
    for m in range(1, min(dim, len(forms)) + 1):
        for sub in itertools.combinations(forms, m):
            if _rank([f[1:] for f in sub]) < m:
                return False
    return all(_rank(sub) == dim + 1
               for sub in itertools.combinations(forms, dim + 1))


def _arrangement(rng, dim, k):
    """k integer forms in [-5, 5] in general position, so the face count and
    hence the work of a rung is the same for every variant."""
    while True:
        forms = []
        while len(forms) < k:
            f = [rng.randint(-5, 5) for _ in range(dim + 1)]
            if any(f[1:]):  # a form with no variable part cuts out nothing
                forms.append(f)
        if _general_position(forms, dim):
            return {"dim": dim, "forms": forms}


# -- categories ------------------------------------------------------------------


def _category(objects, arrows, identities, compose):
    """arrows: name -> (dom, cod); compose(g, f) names g after f."""
    homs = {}
    for m, (x, y) in arrows.items():
        homs.setdefault(f"{x}->{y}", []).append(m)
    table = [[g, f, compose(g, f)] for f in arrows for g in arrows
             if arrows[g][0] == arrows[f][1]]
    return {"objects": objects, "homs": homs, "identities": identities,
            "compose": table}


def _monoid(elements, compose):
    return _category(["*"], {m: ("*", "*") for m in elements}, {"*": elements[0]},
                     compose)


def _transformation_monoid(n):
    maps = [m for m in itertools.product(range(n), repeat=n)]
    maps.remove(tuple(range(n)))
    maps.insert(0, tuple(range(n)))  # identity first
    name = {m: "t" + "".join(map(str, m)) for m in maps}
    by_name = {v: k for k, v in name.items()}
    return _monoid([name[m] for m in maps],
                   lambda g, f: name[tuple(by_name[g][by_name[f][p]]
                                           for p in range(n))])


def _table_category(objects, arrows, table):
    identities = {x: f"id{x}" for x in objects}
    arrows = {**{f"id{x}": (x, x) for x in objects}, **arrows}

    def compose(g, f):
        if g.startswith("id"):
            return f
        if f.startswith("id"):
            return g
        return table[(g, f)]

    return _category(objects, arrows, identities, compose)


def _catalog():
    """The seven categories of the stratikit catalog, rebuilt from their
    definitions: C2, the idempotent, left-zero and 2-point transformation
    monoids, the arrow, the 3-chain and the parallel pair."""
    return [
        _monoid(["1", "g"], lambda a, b: "1" if a == b else "g"),
        _monoid(["1", "e"], lambda a, b: "e" if "e" in (a, b) else "1"),
        _monoid(["1", "a", "b"], lambda a, b: b if a == "1" else a),
        _transformation_monoid(2),
        _table_category(["A", "B"], {"u": ("A", "B")}, {}),
        _table_category(["A", "B", "C"],
                        {"u": ("A", "B"), "v": ("B", "C"), "w": ("A", "C")},
                        {("v", "u"): "w"}),
        _table_category(["A", "B"], {"f": ("A", "B"), "g": ("A", "B")}, {}),
    ]


def _hom(cat, x, y):
    return cat["homs"].get(f"{x}->{y}", [])


def _representable(cat, anchor):
    """The contravariant functor hom(-, anchor) as explicit value tables."""
    compose = {(g, f): h for g, f, h in cat["compose"]}
    on_objects = {x: _hom(cat, x, anchor) for x in cat["objects"]}
    on_morphisms = {}
    for key, ms in cat["homs"].items():
        x, y = key.split("->")
        for m in ms:
            on_morphisms[m] = {h: compose[(h, m)] for h in _hom(cat, y, anchor)}
    return {"variance": "contravariant", "on_objects": on_objects,
            "on_morphisms": on_morphisms}


def _nonempty_hom(rng, cat):
    pairs = [key.split("->") for key, ms in cat["homs"].items() if ms]
    return rng.choice(sorted(pairs))


# -- workloads ---------------------------------------------------------------------

CORPUS_CASES = ("ex1", "ex2-replica", "rational", "pseudo", "pseudo-prime-replica",
                "ex6", "ex7", "coordinate-n3", "arrangement-3lines",
                "monoid-idempotent", "group-c2")


def _small_topology(rng):
    n = rng.randint(5, 8)
    labels = _labels("p", n)
    edges = _dag(rng, n, 2.0 / n)
    explicit = {"carrier": labels,
                "opens": [_mask_labels(labels, o) for o in _opens(_up_masks(n, edges))]}
    subset = rng.sample(labels, rng.randint(1, 3))
    return [(("topology", "check"), explicit),
            (("topology", "to-preorder"), explicit),
            (("topology", "from-preorder"), _poset_doc(labels, edges)),
            (("topology", "closure"),
             {"space": _space_doc(labels, edges), "subset": subset})]


def _small_product(rng):
    n1 = rng.choice((2, 3, 4))
    factors = [_decomp_doc(rng, m, 0.6, m - 1, need_open=True) for m in (n1, 8 // n1)]
    return [(("decomp", "product"), {"factors": factors})]


def _small_decomp(rng):
    n = rng.randint(5, 8)
    dec = _decomp_doc(rng, n, 2.0 / n, rng.randint(2, n - 1))
    return [(("decomp", a), dec) for a in ("analyze", "quotient", "validate")]


def _homset(rng):
    cats = _catalog()
    cat = rng.choice(cats)
    x, y = _nonempty_hom(rng, cat)
    pre = {"category": cat, "source": x, "target": y,
           "side": rng.choice(("R", "L", "LR"))}
    cat = rng.choice(cats)
    x, y = _nonempty_hom(rng, cat)
    strat = {"category": cat, "source": x, "target": y,
             "side": rng.choice(("R", "L", "LR"))}
    cat = rng.choice(cats)
    functor = {"category": cat, "anchor": rng.choice(cat["objects"]),
               "side": rng.choice(("R-covariant", "L-contravariant"))}
    cat = rng.choice(cats)
    yoneda = {"category": cat, "anchor": rng.choice(cat["objects"]),
              "functor": _representable(cat, rng.choice(cat["objects"]))}
    t3 = {"category": _transformation_monoid(3), "source": "*", "target": "*",
          "side": rng.choice(("R", "L"))}
    return [(("homset", "preorder"), pre), (("homset", "stratify"), strat),
            (("homset", "functor-check"), functor), (("homset", "yoneda"), yoneda),
            (("homset", "preorder"), t3)]


def _small_complex(rng):
    return _banded_complex(rng, rng.randint(5, 7), 0.4, 15, 50)


def _small_betti(rng):
    return [(("homology", "betti"), _small_complex(rng))]


def _small_homology(rng):
    doc = _small_complex(rng)
    return [(("homology", "betti"), doc), (("homology", "order-complex"), doc)]


def _rung(dim, k, check_ob):
    def make(rng):
        doc = _arrangement(rng, dim, k)
        actions = ("faces", "poset", "check-ob") if check_ob else ("faces", "poset")
        return [(("arrangement", a), doc) for a in actions]
    return make


def _from_preorder(n, lo, hi):
    def make(rng):
        edges, _ = _banded_dag(rng, n, 1.5 / n, lo, hi)
        return [(("topology", "from-preorder"), _poset_doc(_labels("p", n), edges))]
    return make


def _to_preorder(rng):
    n = 13
    edges, opens = _banded_dag(rng, n, 1.5 / n, 1000, 1500)
    labels = _labels("p", n)
    return [(("topology", "to-preorder"),
             {"carrier": labels, "opens": [_mask_labels(labels, o) for o in opens]})]


def _decomp(rng):
    n = 16
    dec = _decomp_doc(rng, n, 1.5 / n, 14)
    return [(("decomp", a), dec) for a in ("analyze", "quotient", "validate")]


def _product(rng):
    factors = [_decomp_doc(rng, m, 0.5, 3, need_open=True) for m in (4, 5)]
    return [(("decomp", "product"), {"factors": factors})]


def _order_complex(n):
    def make(rng):
        return [(("homology", "order-complex"), _height_one(rng, n, 3))]
    return make


def _betti(n, lo, hi):
    def make(rng):
        return [(("homology", "betti"), _banded_complex(rng, n, 0.3, lo, hi))]
    return make


def _fixed(args):
    return lambda rng: [(args, None)]


def _slots(workload):
    """(slot name, maker, variant kind) for every slot of a workload."""
    if workload == "reports":
        return [(f"corpus-{c}", _fixed(("corpus", "run", c)), "fixed")
                for c in CORPUS_CASES] + [
            ("corpus-oracle", lambda rng: [(("corpus", "oracle", "--seed",
                                             str(rng.randrange(10 ** 6)),
                                             "--cases", "40"), None)], "draw"),
            ("topology", _small_topology, "draw"),
            ("decomp", _small_decomp, "draw"),
            ("product", _small_product, "draw"),
            ("arrangement", _rung(2, 4, False), "draw"),
            ("homset", _homset, "draw"),
            ("homology", _small_homology, "draw"),
        ]
    if workload == "arrangements":
        return [
            ("r2-k3", _rung(2, 3, False), "flip"),
            ("r2-k4", _rung(2, 4, False), "flip"),
            ("r2-k5", _rung(2, 5, True), "flip"),
            ("r2-k8", _rung(2, 8, False), "flip"),
            ("r3-k3", _rung(3, 3, True), "flip"),
            ("r3-k4", _rung(3, 4, False), "flip"),
            ("r3-k5", _rung(3, 5, False), "flip"),
            ("r4-k4", _rung(4, 4, False), "flip"),
            ("r4-k5", _rung(4, 5, False), "flip"),
            # floor jobs, so that every layer records some time on every workload
            ("corpus", _fixed(("corpus", "run")), "fixed"),
            ("product", _small_product, "draw"),
            ("betti", _small_betti, "draw"),
        ]
    if workload == "spaces":
        return [
            ("from-preorder-14", _from_preorder(14, 1500, 3000), "relabel"),
            ("from-preorder-17", _from_preorder(17, 8000, 12000), "relabel"),
            ("to-preorder-13", _to_preorder, "relabel"),
            ("decomp-16", _decomp, "relabel"),
            ("product-4x5", _product, "relabel"),
            ("order-complex-256", _order_complex(256), "relabel"),
            ("order-complex-512", _order_complex(512), "relabel"),
            ("order-complex-768", _order_complex(768), "relabel"),
            ("betti-120", _betti(12, 110, 130), "relabel"),
            ("betti-200", _betti(14, 180, 220), "relabel"),
            ("corpus", _fixed(("corpus", "run")), "fixed"),  # floor job, as above
        ]
    raise ValueError(f"unknown workload {workload!r}")


def _flip_signs(rng, doc):
    """Negate a seeded subset of the forms: the same hyperplanes and faces, so
    the same work, with the signs of the flipped forms exchanged."""
    forms = [[-c for c in f] if rng.random() < 0.5 else f for f in doc["forms"]]
    return {"dim": doc["dim"], "forms": forms}


def _relabel(rng, doc):
    """Permute the point labels: the same structure in the same carrier order,
    so the same work, under other names."""
    names = sorted({x for x in _strings(doc) if x[:1] in "pvw" and x[1:].isdigit()})
    shuffled = names[:]
    rng.shuffle(shuffled)
    mapping = dict(zip(names, shuffled))

    def walk(x):
        if isinstance(x, dict):
            return {k: walk(v) for k, v in x.items()}
        if isinstance(x, list):
            return [walk(v) for v in x]
        return mapping.get(x, x) if isinstance(x, str) else x

    return walk(doc)


def _strings(x):
    if isinstance(x, dict):
        for v in x.values():
            yield from _strings(v)
    elif isinstance(x, list):
        for v in x:
            yield from _strings(v)
    elif isinstance(x, str):
        yield x


TRANSFORMS = {"flip": _flip_signs, "relabel": _relabel}


def _variant(name, make, kind, v):
    """The (args, doc) list of variant v of a slot.

    kind "fixed": one variant.  "draw": each variant is an independent draw.
    "flip"/"relabel": each variant is one base draw under a seeded transform
    that keeps the work of every job the same; used on the heavy slots, so
    that which variants a seed picks does not move the pass time.
    """
    if kind == "draw":
        return make(random.Random(f"{name}/{v}"))
    base = make(random.Random(f"{name}/base"))
    if kind == "fixed":
        return base
    rng = random.Random(f"{name}/{v}")
    docs = {}
    for _, doc in base:
        if id(doc) not in docs:
            docs[id(doc)] = TRANSFORMS[kind](rng, doc)
    return [(args, docs[id(doc)]) for args, doc in base]


def _slot_jobs(workload, name, make, kind, v):
    return [Job(f"{workload}/{name}/v{v}/{i}-{'-'.join(args[:2])}", tuple(args), doc)
            for i, (args, doc) in enumerate(_variant(name, make, kind, v))]


def _variants(kind):
    return (0,) if kind == "fixed" else range(VARIANTS)


def pool(workload):
    """Every job the workload can ever run, whatever the seed."""
    return [job for name, make, kind in _slots(workload)
            for v in _variants(kind)
            for job in _slot_jobs(workload, name, make, kind, v)]


def jobs(workload, seed):
    """The job list of one run: one pool variant per slot, in seeded order."""
    rng = random.Random(seed)
    out = [job for name, make, kind in _slots(workload)
           for job in _slot_jobs(workload, name, make, kind,
                                 rng.choice(_variants(kind)))]
    rng.shuffle(out)
    return out


def input_bytes(job):
    return (json.dumps(job.doc, sort_keys=True, indent=1) + "\n").encode("utf-8")
