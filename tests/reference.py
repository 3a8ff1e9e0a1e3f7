"""Test references that read a space only through its enumerated open family,
a seeded generator of topologies given by their opens, the hom-set
preorder found by searching every pair of morphisms, the category law
check made one ``compose`` call at a time, and the chains of a poset found
by testing every subset of its carrier."""

import itertools

from stratikit.errors import StructureError
from stratikit.order import Preorder
from stratikit.topology import FiniteTopology


def closure_by_opens(t, mask):
    """Smallest closed superset: drop every open set disjoint from the subset."""
    gone = 0
    for o in t.opens:
        if o & mask == 0:
            gone |= o
    return t.full_mask & ~gone


def locally_closed_by_opens(t, mask):
    """True iff the subset is open inside its own closure."""
    c = closure_by_opens(t, mask)
    u = 0
    for o in t.opens:
        if o & c & ~mask == 0:
            u |= o
    return (c & u) == mask


def random_topology(rng, max_size=5, seeds=3):
    """Close a few random subsets under union and intersection; the family is
    a topology, and the constructor checks that it is."""
    n = rng.randint(1, max_size)
    labels = [f"p{i}" for i in range(n)]
    full = (1 << n) - 1
    family = {0, full}
    for _ in range(seeds):
        family.add(rng.randrange(1 << n))
    while True:
        fresh = set()
        for a, b in itertools.combinations(family, 2):
            fresh.add(a | b)
            fresh.add(a & b)
        if fresh <= family:
            break
        family |= fresh
    return FiniteTopology(labels, family)


def hom_preorder_by_search(cat, x, y, side):
    """The hom-set preorder and witnesses of ``category.hom_preorder_details``,
    found pair by pair: for each (g, f), the first s, t or (s, t) in hom order
    whose composite with g is f."""
    morphs = cat.hom(x, y)
    end_x = cat.hom(x, x)
    end_y = cat.hom(y, y)
    up = [0] * len(morphs)
    witnesses = {}
    for i, g in enumerate(morphs):
        for j, f in enumerate(morphs):
            found = None
            if side == "R":
                found = next(
                    ({"s": s} for s in end_x if cat.compose(g, s) == f), None)
            elif side == "L":
                found = next(
                    ({"t": t} for t in end_y if cat.compose(t, g) == f), None)
            else:
                found = next(
                    ({"s": s, "t": t}
                     for s in end_x for t in end_y
                     if cat.compose(t, cat.compose(g, s)) == f),
                    None)
            if found is not None:
                up[i] |= 1 << j
                witnesses[(g, f)] = found
    return Preorder(morphs, up), witnesses


def check_laws_by_compose(cat):
    """``FiniteCategory._check_laws`` through ``compose``: identity laws for
    each f, then h . (g . f) = (h . g) . f for each composable (f, g, h) in
    morphism order.  Raises what the first failure raises."""
    for f in cat.morphisms:
        x, y = cat.dom[f], cat.cod[f]
        if cat.compose(cat.identity[y], f) != f:
            raise StructureError(f"left identity law fails at {f!r}")
        if cat.compose(f, cat.identity[x]) != f:
            raise StructureError(f"right identity law fails at {f!r}")
    for f in cat.morphisms:
        for g in cat.morphisms:
            if cat.dom[g] != cat.cod[f]:
                continue
            for h in cat.morphisms:
                if cat.dom[h] != cat.cod[g]:
                    continue
                if cat.compose(h, cat.compose(g, f)) != cat.compose(cat.compose(h, g), f):
                    raise StructureError(f"associativity fails at ({h!r}, {g!r}, {f!r})")


def chains_by_search(poset):
    """Every nonempty chain of ``poset`` as an increasing index tuple, listed
    by dimension, each dimension in lexicographic order: the subsets of the
    carrier, by size, whose elements are pairwise comparable."""
    comparable = [u | d for u, d in zip(poset.up, poset.down())]
    faces = []
    for size in range(1, len(poset.carrier) + 1):
        chains = [c for c in itertools.combinations(range(len(poset.carrier)), size)
                  if all(comparable[i] >> j & 1 for i, j in itertools.combinations(c, 2))]
        if not chains:
            break
        faces.append(chains)
    return faces
