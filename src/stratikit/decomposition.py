"""Decompositions of finite spaces: quotient topology, semicontinuity
classification, the closure preorder on blocks, and stratification checks.

A finite space is Alexandroff (Stong 1966; Barmak, LNM 2032, ch. 1): its opens
are the up-sets of its specialization preorder and the closure of a subset is
the down-set it generates, so the analysis runs on the specialization rows.
"""

import functools
import operator
from collections import namedtuple

from .errors import InputError, StructureError
from .order import (Preorder, _closure, bit_indices, labels_of, product, product_labels,
                    product_mask, transpose, union_of_rows)
from .topology import FiniteTopology, product_topology


class Decomposition:
    """A partition of a finite space into labelled nonempty blocks."""

    def __init__(self, space, blocks, labels=None):
        blocks = [space.mask(b) if not isinstance(b, int) else b for b in blocks]
        union = 0
        for i, b in enumerate(blocks):
            if b == 0:
                raise StructureError("empty block", path=f"blocks[{i}]")
            if b & union:
                raise StructureError("blocks are not pairwise disjoint", path=f"blocks[{i}]")
            union |= b
        if union != space.full_mask:
            missing = space.labels(space.full_mask & ~union)
            raise StructureError(f"blocks do not cover the carrier; missing {missing}",
                                 path="blocks")
        if labels is None:
            labels = ["[%s]" % min(labels_of(space.carrier, b)) for b in blocks]
        labels = tuple(str(x) for x in labels)
        if len(labels) != len(blocks):
            raise InputError("one label per block required", path="labels")
        if len(set(labels)) != len(labels):
            raise InputError("duplicate block labels", path="labels")
        self.space = space
        self.blocks = tuple(blocks)
        self.labels = labels

    def preimage_mask(self, label_mask):
        return union_of_rows(self.blocks, label_mask)

    def __repr__(self):
        return f"Decomposition({len(self.blocks)} blocks of {len(self.space.carrier)} points)"


def quotient_topology(d):
    """Finest topology on the block labels making the projection continuous."""
    return FiniteTopology.from_preorder(analyze(d).tau_pi_preorder)


MOORE_UPPER = "upper-semicontinuous"
MOORE_LOWER = "lower-semicontinuous"
MOORE_CONTINUOUS = "continuous"
MOORE_NEITHER = "neither"

# (projection open, projection closed) -> Moore's semicontinuity class
MOORE_CLASS = {
    (True, True): MOORE_CONTINUOUS,
    (True, False): MOORE_LOWER,
    (False, True): MOORE_UPPER,
    (False, False): MOORE_NEITHER,
}


class DecompositionReport(namedtuple(
        "DecompositionReport",
        "pi_open pi_closed star_preorder tau_pi_preorder "
        "tamaki_agrees blocks_locally_closed frontier_condition quotient_is_poset")):
    """What ``analyze`` finds."""

    __slots__ = ()

    @property
    def moore_class(self):
        return MOORE_CLASS[(self.pi_open, self.pi_closed)]


def analyze(d):
    """Full openness/semicontinuity/stratification-adjacent report for a decomposition.

    Read off two point tables: bit m of ``meets_up[x]`` (``meets_down[x]``)
    says block m meets the up-set (down-set) of x.  The minimal quotient open
    around block a closes {a} under the OR of ``meets_up`` over a's points,
    and a <= b in the closure order (block a lies in b's closure) iff b is in
    the AND; the frontier condition (a block meeting another's closure lies
    inside it) says OR = AND.  As AND <= ``meets_up[x]`` <= quotient row, the
    projection is open iff AND = quotient row; closed iff each block's up-set
    is a union of blocks, that is iff ``meets_down`` is constant on each block.
    The closure order is transitive, so OR = AND makes AND the quotient row,
    and AND = quotient row >= OR >= AND: the projection is open iff the
    frontier condition holds, iff the closure order is the quotient order.
    """
    spec = d.space.specialization_preorder()
    up, down = spec.up, spec.down()
    above = [union_of_rows(up, b) for b in d.blocks]
    below = [union_of_rows(down, b) for b in d.blocks]
    meets_up, meets_down = transpose(below, len(up)), transpose(above, len(up))
    points = [bit_indices(b) for b in d.blocks]
    rows = [[meets_up[x] for x in p] for p in points]
    generating = [functools.reduce(operator.or_, r) for r in rows]
    tau_pi = Preorder(d.labels, _closure(generating))
    star = Preorder(d.labels, [functools.reduce(operator.and_, r) for r in rows])
    pi_open = star == tau_pi
    return DecompositionReport(
        pi_open=pi_open,
        pi_closed=all(len({meets_down[x] for x in p}) == 1 for p in points),
        star_preorder=star,
        tau_pi_preorder=tau_pi,
        tamaki_agrees=pi_open,
        blocks_locally_closed={  # a block is the meet of its up-set and down-set
            lab: a & c == b
            for lab, b, a, c in zip(d.labels, d.blocks, above, below)
        },
        frontier_condition=pi_open,
        quotient_is_poset=tau_pi.is_partial_order(),
    )


def open_closed_by_opens(d):
    """(projection open, projection closed) by the definitions over the explicit
    opens: an image is open (closed) in the quotient iff its preimage, the
    saturation of the open (closed) set, is.  The reference ``decomp analyze``
    and ``corpus oracle`` check ``analyze`` with.

    A saturation is the union of the blocks meeting the set; the blocks are
    disjoint, so it is their sum."""
    space = d.space

    def saturation(s):
        return sum(b for b in d.blocks if b & s)

    opens = space.open_set  # unsorted: the saturations go into sets
    return (all(map(space.is_open, {saturation(g) for g in opens})),
            all(map(space.is_closed, {saturation(space.full_mask & ~g) for g in opens})))


def validate_stratification(d):
    """The stratification verdicts of a partition, as one dict: a disjoint
    cover (guaranteed by construction) is a stratification iff its blocks are
    locally closed and it meets the frontier condition.  The closed-union
    condition is automatic for a finite index set.

    On a stratification the projection is continuous to the blocks under the
    closure order, whose up-set topology is the quotient topology: the
    frontier condition makes the quotient generators the closure-order rows,
    and ``analyze`` accepted those rows as a preorder, so they are closed
    already and both preorders are one.  Off a stratification both verdicts
    are None.
    """
    rep = analyze(d)
    locally_closed = rep.blocks_locally_closed
    is_strat = all(locally_closed.values()) and rep.frontier_condition
    return {
        "blocks_locally_closed": locally_closed,
        "frontier_condition": rep.frontier_condition,
        "closed_union_condition": "automatic (finite index set)",
        "is_stratification": is_strat,
        "pi_continuous_to_star": is_strat or None,
        "star_topology_equals_quotient": is_strat or None,
    }


def product_decomposition(ds):
    """Blockwise product of open decompositions, as (decomposition, projection
    open, quotient matches).

    Every factor must have an open projection; the product then does too, and
    its quotient topology must coincide with the Alexandroff topology of the
    product of the factor quotient preorders.
    """
    ds = list(ds)
    if not ds:
        raise InputError("empty factor list")
    factor_reports = [analyze(d) for d in ds]
    bad = [i for i, rep in enumerate(factor_reports) if not rep.pi_open]
    if bad:
        raise StructureError(
            "factor(s) not lower semicontinuous (projection not open): "
            + ", ".join(f"#{i}" for i in bad))
    space = product_topology([d.space for d in ds])
    blocks = [1]  # the one-point space, unit of the product
    for d in ds:
        m = len(d.space.carrier)
        blocks = [product_mask(a, b, m) for a in blocks for b in d.blocks]
    labels = product_labels(d.labels for d in ds)
    out = Decomposition(space, blocks, labels)

    rep = analyze(out)
    # both carriers list the block labels in row-major order, and up-set
    # topologies on one carrier are equal iff their preorders are
    matches = rep.tau_pi_preorder == product([r.tau_pi_preorder for r in factor_reports])
    return out, rep.pi_open, matches
