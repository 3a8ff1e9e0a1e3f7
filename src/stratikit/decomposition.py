"""Decompositions of finite spaces: quotient topology, semicontinuity
classification, the closure preorder on blocks, and stratification checks."""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .errors import CapExceeded, InputError, StructureError
from .order import Preorder, bit_indices, bitmask, product_label
from .topology import FiniteTopology, product_mask, product_topology


class Decomposition:
    """A partition of a finite space into labelled nonempty blocks."""

    def __init__(self, space, blocks, labels=None):
        blocks = [space.mask(b) if not isinstance(b, int) else b for b in blocks]
        if labels is None:
            labels = [
                "[%s]" % min(space.labels(b)) if b else "[]" for b in blocks
            ]
        labels = tuple(str(x) for x in labels)
        if len(labels) != len(blocks):
            raise InputError("one label per block required")
        if len(set(labels)) != len(labels):
            raise InputError("duplicate block labels")
        union = 0
        for b in blocks:
            if b == 0:
                raise StructureError("empty block")
            if b & union:
                raise StructureError("blocks are not pairwise disjoint")
            union |= b
        if union != space.full_mask:
            missing = space.labels(space.full_mask & ~union)
            raise StructureError(f"blocks do not cover the carrier; missing {missing}")
        self.space = space
        self.blocks = tuple(blocks)
        self.labels = labels
        self._label_index = {x: i for i, x in enumerate(labels)}

    def block_of(self, point):
        i = self.space._index.get(point)
        if i is None:
            raise InputError(f"point {point!r} not in carrier")
        bit = 1 << i
        for k, b in enumerate(self.blocks):
            if b & bit:
                return self.labels[k]
        raise AssertionError("unreachable: blocks cover the carrier")

    def image_mask(self, space_mask):
        """Mask over the block labels of the blocks meeting the given subset."""
        out = 0
        for k, b in enumerate(self.blocks):
            if b & space_mask:
                out |= 1 << k
        return out

    def preimage_mask(self, label_mask):
        out = 0
        for k, b in enumerate(self.blocks):
            if label_mask & (1 << k):
                out |= b
        return out

    def __repr__(self):
        return f"Decomposition({len(self.blocks)} blocks of {len(self.space.carrier)} points)"


def quotient_topology(d):
    """Finest topology on the block labels making the projection continuous."""
    k = len(d.blocks)
    if k > 20:
        raise CapExceeded(f"quotient enumeration over 2^{k} label subsets refused")
    opens = [u for u in range(1 << k) if d.space.is_open(d.preimage_mask(u))]
    return FiniteTopology(d.labels, opens, _validate=False)


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


@dataclass
class DecompositionReport:
    quotient: FiniteTopology
    pi_open: bool
    pi_closed: bool
    moore_class: str
    star_preorder: Preorder
    tau_pi_preorder: Preorder
    tamaki_agrees: bool
    blocks_locally_closed: dict
    frontier_condition: bool
    quotient_is_poset: bool

    def __post_init__(self):
        expected = MOORE_CLASS[(self.pi_open, self.pi_closed)]
        if self.moore_class != expected:
            raise StructureError(
                f"moore_class {self.moore_class!r} inconsistent with "
                f"(open={self.pi_open}, closed={self.pi_closed})")

    def to_json_dict(self):
        return {
            "quotient": {
                "carrier": list(self.quotient.carrier),
                "opens": self.quotient.opens_as_labels(),
            },
            "pi_open": self.pi_open,
            "pi_closed": self.pi_closed,
            "moore_class": self.moore_class,
            "star_preorder": {
                "carrier": list(self.star_preorder.carrier),
                "pairs": [list(p) for p in self.star_preorder.pairs()],
            },
            "tau_pi_preorder": {
                "carrier": list(self.tau_pi_preorder.carrier),
                "pairs": [list(p) for p in self.tau_pi_preorder.pairs()],
            },
            "tamaki_agrees": self.tamaki_agrees,
            "blocks_locally_closed": dict(self.blocks_locally_closed),
            "frontier_condition": self.frontier_condition,
            "quotient_is_poset": self.quotient_is_poset,
        }


def star_preorder(d):
    """lambda <= mu iff the lambda block lies inside the closure of the mu block.

    Transitivity holds on any finite space (closure is monotone and
    idempotent); it is asserted rather than assumed.
    """
    k = len(d.blocks)
    closures = [d.space.closure_mask(b) for b in d.blocks]
    up = [bitmask(b for b in range(k) if block & ~closures[b] == 0) for block in d.blocks]
    try:
        return Preorder(d.labels, up)
    except StructureError as exc:
        raise StructureError(f"closure preorder on blocks is malformed: {exc}") from exc


def analyze(d):
    """Full openness/semicontinuity/stratification-adjacent report for a decomposition."""
    quotient = quotient_topology(d)
    pi_open = all(quotient.is_open(d.image_mask(g)) for g in d.space.opens)
    pi_closed = all(
        quotient.is_closed(d.image_mask(d.space.full_mask & ~g)) for g in d.space.opens)
    star = star_preorder(d)
    tau_pi = quotient.specialization_preorder()
    closures = [d.space.closure_mask(b) for b in d.blocks]
    frontier = True
    for a in range(len(d.blocks)):
        for b in range(len(d.blocks)):
            meets = d.blocks[a] & closures[b]
            if meets and (d.blocks[a] & ~closures[b]):
                frontier = False
    return DecompositionReport(
        quotient=quotient,
        pi_open=pi_open,
        pi_closed=pi_closed,
        moore_class=MOORE_CLASS[(pi_open, pi_closed)],
        star_preorder=star,
        tau_pi_preorder=tau_pi,
        tamaki_agrees=(star == tau_pi),
        blocks_locally_closed={
            lab: d.space.is_locally_closed_mask(b)
            for lab, b in zip(d.labels, d.blocks)
        },
        frontier_condition=frontier,
        quotient_is_poset=tau_pi.is_partial_order(),
    )


def direct_image_opens(d):
    """The family {projection(G) : G open}, as masks over the block labels."""
    return sorted({d.image_mask(g) for g in d.space.opens})


def direct_image_closeds(d):
    return sorted({d.image_mask(d.space.full_mask & ~g) for g in d.space.opens})


@dataclass
class StratificationReport:
    blocks_locally_closed: dict
    frontier_condition: bool
    closed_union_condition: str
    is_stratification: bool
    pi_continuous_to_star: bool | None = None
    star_topology_equals_quotient: bool | None = None

    def to_json_dict(self):
        return {
            "blocks_locally_closed": dict(self.blocks_locally_closed),
            "frontier_condition": self.frontier_condition,
            "closed_union_condition": self.closed_union_condition,
            "is_stratification": self.is_stratification,
            "pi_continuous_to_star": self.pi_continuous_to_star,
            "star_topology_equals_quotient": self.star_topology_equals_quotient,
        }


def validate_stratification(d):
    """Check the partition is a stratification: disjoint cover (guaranteed by
    construction), locally closed blocks, and the frontier condition.

    The closed-union condition is automatic for a finite index set.  When the
    partition is a stratification, the projection is additionally checked to
    be continuous to the block poset under the closure order, whose Alexandroff
    topology must then equal the quotient topology.
    """
    rep = analyze(d)
    locally_closed = rep.blocks_locally_closed
    is_strat = all(locally_closed.values()) and rep.frontier_condition
    out = StratificationReport(
        blocks_locally_closed=locally_closed,
        frontier_condition=rep.frontier_condition,
        closed_union_condition="automatic (finite index set)",
        is_stratification=is_strat,
    )
    if is_strat:
        star_space = FiniteTopology.from_preorder(rep.star_preorder)
        continuous = all(
            d.space.is_open(d.preimage_mask(u)) for u in star_space.opens)
        out.pi_continuous_to_star = continuous
        out.star_topology_equals_quotient = (star_space == rep.quotient)
    return out


@dataclass
class ProductVerification:
    factor_reports: list
    product_pi_open: bool
    quotient_matches_preorder_product: bool
    checks: list = field(default_factory=list)


def product_decomposition(ds):
    """Blockwise product of open decompositions, with its verification report.

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
    sizes = [len(d.space.carrier) for d in ds]

    blocks = []
    labels = []
    for combo in itertools.product(*(range(len(d.blocks)) for d in ds)):
        blocks.append(product_mask(
            sizes, [bit_indices(ds[axis].blocks[k]) for axis, k in enumerate(combo)]))
        labels.append(product_label(ds[axis].labels[k] for axis, k in enumerate(combo)))
    out = Decomposition(space, blocks, labels)

    from .order import product as order_product

    rep = analyze(out)
    expected = FiniteTopology.from_preorder(
        order_product([r.tau_pi_preorder for r in factor_reports]))
    verification = ProductVerification(
        factor_reports=factor_reports,
        product_pi_open=rep.pi_open,
        quotient_matches_preorder_product=(rep.quotient == expected),
    )
    verification.checks = [
        ("product projection open", verification.product_pi_open),
        ("quotient equals product of factor quotient preorders",
         verification.quotient_matches_preorder_product),
    ]
    return out, verification
