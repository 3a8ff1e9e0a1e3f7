"""Seeded random generators for the property suites.

Preorders come from the reflexive-transitive closure of Erdos-Renyi directed
pairs (edge probability 0.3); partitions from uniform label assignment with
empty blocks dropped.  Everything is driven by an explicit random.Random so a
seed pins the whole suite.
"""

from .decomposition import Decomposition
from .order import Preorder
from .topology import FiniteTopology

EDGE_PROBABILITY = 0.3


def random_preorder(rng, max_size=6):
    n = rng.randint(1, max_size)
    labels = [f"x{i}" for i in range(n)]
    pairs = [
        (labels[i], labels[j])
        for i in range(n)
        for j in range(n)
        if i != j and rng.random() < EDGE_PROBABILITY
    ]
    return Preorder.from_pairs(labels, pairs)


def random_partition(rng, n):
    """Blocks of range(n) from a uniform random block assignment."""
    assignment = [rng.randrange(n) for _ in range(n)]
    blocks = {}
    for i, b in enumerate(assignment):
        blocks.setdefault(b, []).append(i)
    return [blocks[k] for k in sorted(blocks)]


def random_decomposition(rng, max_size=6):
    pre = random_preorder(rng, max_size=max_size)
    space = FiniteTopology.from_preorder(pre)
    blocks = random_partition(rng, len(space.carrier))
    label_blocks = [[space.carrier[i] for i in b] for b in blocks]
    return Decomposition(space, label_blocks)
