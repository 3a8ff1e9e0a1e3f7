"""Test references that read a space only through its enumerated open family,
and a seeded generator of topologies given by their opens."""

import itertools

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
