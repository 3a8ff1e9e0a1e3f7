"""Small categories and set-functor instances for the test and acceptance
suites (all of them within 3 objects and 8 morphisms), stars of arrows into
one object, and monoids of self-maps of a finite set up to the 64-morphism
cap with their self-representable and preimage functors."""

from __future__ import annotations

import itertools
import random

from stratikit.category import FiniteCategory, SetFunctor


def category_c2():
    """The two-element group as a one-object category."""
    return FiniteCategory(
        ["*"], {("*", "*"): ["1", "g"]}, {"*": "1"},
        [("1", "1", "1"), ("1", "g", "g"), ("g", "1", "g"), ("g", "g", "1")])


def category_idempotent_monoid():
    """The monoid {1, e} with e.e = e."""
    return FiniteCategory(
        ["*"], {("*", "*"): ["1", "e"]}, {"*": "1"},
        [("1", "1", "1"), ("1", "e", "e"), ("e", "1", "e"), ("e", "e", "e")])


def category_left_zero_monoid():
    """The monoid {1, a, b} with x.y = x on {a, b}; its right and left
    hom-set preorders differ."""
    compose = [("1", "1", "1"), ("1", "a", "a"), ("1", "b", "b"),
               ("a", "1", "a"), ("b", "1", "b"),
               ("a", "a", "a"), ("a", "b", "a"),
               ("b", "a", "b"), ("b", "b", "b")]
    return FiniteCategory(["*"], {("*", "*"): ["1", "a", "b"]}, {"*": "1"}, compose)


def category_transformation_monoid2():
    """All four self-maps of a two-point set: identity i, swap s, and the two
    constants z, o.  Noncommutative, so translation orders differ by side."""
    compose = [("i", "i", "i"), ("i", "s", "s"), ("i", "z", "z"), ("i", "o", "o"),
               ("s", "i", "s"), ("z", "i", "z"), ("o", "i", "o"),
               ("s", "s", "i"), ("s", "z", "o"), ("s", "o", "z"),
               ("z", "s", "z"), ("z", "z", "z"), ("z", "o", "z"),
               ("o", "s", "o"), ("o", "z", "o"), ("o", "o", "o")]
    return FiniteCategory(["*"], {("*", "*"): ["i", "s", "z", "o"]},
                          {"*": "i"}, compose)


def category_arrow():
    """Two objects joined by a single non-identity morphism u: A -> B."""
    return FiniteCategory(
        ["A", "B"],
        {("A", "A"): ["idA"], ("B", "B"): ["idB"], ("A", "B"): ["u"]},
        {"A": "idA", "B": "idB"},
        [("idA", "idA", "idA"), ("u", "idA", "u"),
         ("idB", "u", "u"), ("idB", "idB", "idB")])


def category_chain3():
    """A -> B -> C with the composite arrow w = v.u."""
    return FiniteCategory(
        ["A", "B", "C"],
        {("A", "A"): ["idA"], ("B", "B"): ["idB"], ("C", "C"): ["idC"],
         ("A", "B"): ["u"], ("B", "C"): ["v"], ("A", "C"): ["w"]},
        {"A": "idA", "B": "idB", "C": "idC"},
        [("idA", "idA", "idA"), ("idB", "idB", "idB"), ("idC", "idC", "idC"),
         ("u", "idA", "u"), ("idB", "u", "u"),
         ("v", "idB", "v"), ("idC", "v", "v"),
         ("w", "idA", "w"), ("idC", "w", "w"),
         ("v", "u", "w")])


def category_parallel_pair():
    """Two parallel arrows A => B and nothing else."""
    return FiniteCategory(
        ["A", "B"],
        {("A", "A"): ["idA"], ("B", "B"): ["idB"], ("A", "B"): ["f", "g"]},
        {"A": "idA", "B": "idB"},
        [("idA", "idA", "idA"), ("f", "idA", "f"), ("g", "idA", "g"),
         ("idB", "f", "f"), ("idB", "g", "g"), ("idB", "idB", "idB")])


def all_categories():
    return {
        "group-c2": category_c2(),
        "monoid-idempotent": category_idempotent_monoid(),
        "monoid-left-zero": category_left_zero_monoid(),
        "monoid-transformations2": category_transformation_monoid2(),
        "arrow": category_arrow(),
        "chain3": category_chain3(),
        "parallel-pair": category_parallel_pair(),
    }


def category_star(n):
    """Arrows u0, ..., u(n-1) from objects s0, ..., s(n-1) into one object a,
    listed after them, and nothing else: 2n + 1 morphisms."""
    spokes = [f"s{i}" for i in range(n)]
    homs = {("a", "a"): ["ida"]}
    compose = [("ida", "ida", "ida")]
    for i, s in enumerate(spokes):
        homs[(s, s)] = [f"id{s}"]
        homs[(s, "a")] = [f"u{i}"]
        compose += [(f"id{s}", f"id{s}", f"id{s}"), (f"u{i}", f"id{s}", f"u{i}"),
                    ("ida", f"u{i}", f"u{i}")]
    identities = {**{s: f"id{s}" for s in spokes}, "a": "ida"}
    return FiniteCategory([*spokes, "a"], homs, identities, compose)


def constant_functor(cat, values):
    """The contravariant functor with the same value set at every object and
    the identity map at every morphism."""
    return SetFunctor(cat, "contravariant", {x: list(values) for x in cat.objects},
                      {m: {v: v for v in values} for m in cat.morphisms})


def representable_functor(cat, anchor):
    """The contravariant hom-into-anchor functor as explicit value tables."""
    on_objects = {x: list(cat.hom(x, anchor)) for x in cat.objects}
    on_morphisms = {}
    for m in cat.morphisms:
        x, y = cat.dom[m], cat.cod[m]
        on_morphisms[m] = {h: cat.compose(h, m) for h in cat.hom(y, anchor)}
    return SetFunctor(cat, "contravariant", on_objects, on_morphisms)


def yoneda_instances():
    """(name, category, contravariant functor, anchor) instances for the
    bijection and image suites; includes the representable self cases."""
    idem = category_idempotent_monoid()
    c2 = category_c2()
    arrow = category_arrow()
    chain = category_chain3()
    out = []
    out.append((
        "idempotent-two-values", idem,
        SetFunctor(idem, "contravariant",
                   {"*": ["0", "1"]},
                   {"1": {"0": "0", "1": "1"}, "e": {"0": "0", "1": "0"}}),
        "*"))
    out.append(("idempotent-self", idem, representable_functor(idem, "*"), "*"))
    out.append(("c2-self", c2, representable_functor(c2, "*"), "*"))
    out.append((
        "c2-swap", c2,
        SetFunctor(c2, "contravariant",
                   {"*": ["0", "1"]},
                   {"1": {"0": "0", "1": "1"}, "g": {"0": "1", "1": "0"}}),
        "*"))
    out.append(("arrow-self-A", arrow, representable_functor(arrow, "A"), "A"))
    out.append((
        "arrow-empty", arrow,
        SetFunctor(arrow, "contravariant",
                   {"A": [], "B": []},
                   {"idA": {}, "idB": {}, "u": {}}),
        "A"))
    out.append(("chain3-self-C", chain, representable_functor(chain, "C"), "C"))
    return out


def all_maps(n):
    """All n^n self-maps of {0, ..., n-1} as value tuples, the identity first."""
    identity = tuple(range(n))
    return sorted(itertools.product(range(n), repeat=n), key=lambda m: m != identity)


def cube_of_all_maps2():
    """T2^3: the 64 triples of self-maps of a two-point set, each triple as one
    map of {0, ..., 5} acting on {0, 1}, {2, 3} and {4, 5} separately."""
    return [tuple(v + 2 * k for k, m in enumerate(triple) for v in m)
            for triple in itertools.product(all_maps(2), repeat=3)]


def generated_maps(generators, cap=64):
    """The monoid of self-maps generated by ``generators``, the identity first
    and the rest in the order found; None once it has more than ``cap``."""
    maps = [tuple(range(len(generators[0])))]
    seen = set(maps)
    for m in maps:  # grows while it is read
        for g in generators:
            gm = tuple(g[i] for i in m)
            if gm not in seen:
                if len(maps) == cap:
                    return None
                seen.add(gm)
                maps.append(gm)
    return maps


def seeded_monoids(count=20, seed=17):
    """``count`` monoids generated by 2 or 3 random self-maps of a 3- or
    4-point set, each of at most 64 elements."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        n = rng.choice((3, 4))
        gens = [tuple(rng.randrange(n) for _ in range(n)) for _ in range(rng.choice((2, 3)))]
        maps = generated_maps(gens)
        if maps is not None:
            out.append(maps)
    return out


def monoid_document(maps):
    """The monoid of the given self-maps, closed under composition and the
    identity first, as the one-object category document ``homset`` reads;
    the map with values (v0, v1, ...) is labelled "tv0v1..."."""
    name = {m: "t" + "".join(map(str, m)) for m in maps}
    return {"objects": ["*"], "homs": {"*->*": [name[m] for m in maps]},
            "identities": {"*": name[maps[0]]},
            "compose": [[name[g], name[f], name[tuple(g[i] for i in f)]]
                        for g in maps for f in maps]}


def monoid(maps):
    """``monoid_document(maps)`` as a category."""
    doc = monoid_document(maps)
    return FiniteCategory(doc["objects"], {("*", "*"): doc["homs"]["*->*"]},
                          doc["identities"], [tuple(row) for row in doc["compose"]])


def yoneda_document(maps):
    """The ``homset yoneda`` document of the self-representable functor
    hom(-, *) of ``monoid_document(maps)``: F(m) sends h to h . m."""
    doc = monoid_document(maps)
    composite = {(g, f): gf for g, f, gf in doc["compose"]}
    labels = doc["homs"]["*->*"]
    return {"category": doc, "anchor": "*", "functor": {
        "variance": "contravariant", "on_objects": {"*": labels},
        "on_morphisms": {m: {h: composite[(h, m)] for h in labels} for m in labels}}}


def preimage_functor(maps):
    """The contravariant functor A -> m^-1(A) on the subsets of {0, ..., n-1},
    over ``monoid(maps)``; the subset {0, 1} is labelled "{0,1}"."""
    n = len(maps[0])
    subsets = [frozenset(c) for k in range(n + 1) for c in itertools.combinations(range(n), k)]
    label = {a: "{" + ",".join(map(str, sorted(a))) + "}" for a in subsets}
    cat = monoid(maps)
    on_morphisms = {name: {label[a]: label[frozenset(i for i in range(n) if m[i] in a)]
                           for a in subsets}
                    for m, name in zip(maps, cat.morphisms)}
    return SetFunctor(cat, "contravariant", {"*": [label[a] for a in subsets]}, on_morphisms)
