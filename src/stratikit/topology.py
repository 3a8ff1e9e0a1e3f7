"""Finite topological spaces and the two functors linking them with preorders.

A finite space is its specialization preorder (Alexandroff; Stong 1966): its
opens are the up-sets of the rows U_x.  A space keeps those rows, and its
family of open sets is enumerated from them only when read, under one cap on
the number of opens.  Subsets are bitmasks over the carrier ordering; the
family is kept in a canonical order (cardinality, then index-lexicographic)
so that two topologies are equal exactly when their serialized forms are.
"""

from .errors import CapExceeded, InputError, StructureError
from .order import (MAX_CARRIER, Poset, Preorder, bit_indices, first_escape, labels_of,
                    product, union_of_rows)

MAX_OPENS = 1 << 16


def _canonical_order(masks):
    """The masks in the canonical order on subsets: smaller sets first, and
    between two sets of one size, the one holding the lowest differing bit
    first, which is the order of their ascending index tuples.  The reversed
    binary digits start at bit 0, and within one size none is a prefix of
    another, so a descending sort on them, made stable by size, is that order."""
    masks = sorted(masks, key=lambda mask: bin(mask)[:1:-1], reverse=True)
    masks.sort(key=int.bit_count)
    return masks


def _unions(masks, limit):
    """All unions of the masks, the empty one included, or None as soon as
    there are more than ``limit`` of them.  A member that already holds a
    mask gains nothing from it and is skipped."""
    unions = {0}
    for b in masks:
        if b not in unions:
            unions |= {o | b for o in unions if o & b != b}
            if len(unions) > limit:
                return None
    return unions


class FiniteTopology:
    """A finite space: its specialization rows, with its open family as a view
    of them that is enumerated on the first read."""

    def __init__(self, carrier, opens):
        """Validate an explicit family of open masks as a topology."""
        carrier = tuple(carrier)
        if len(set(carrier)) != len(carrier):
            raise InputError("duplicate labels in carrier", path="carrier")
        n = len(carrier)
        if n > MAX_CARRIER:
            raise CapExceeded(f"carrier has {n} elements, cap is {MAX_CARRIER}",
                              path="carrier")
        full = (1 << n) - 1
        opens = list(map(int, opens))
        if opens and (min(opens) < 0 or max(opens) > full):
            i = next(i for i, m in enumerate(opens) if not 0 <= m <= full)
            raise InputError(f"open set {i} is not a bitset over {n} elements")
        family = set(opens)
        if len(family) > MAX_OPENS:
            raise CapExceeded(f"open family has {len(family)} sets, cap is {MAX_OPENS}",
                              path="opens")
        self._start(carrier, family)
        self._specialization = Preorder(carrier, self._check_axioms())

    @classmethod
    def from_preorder(cls, p):
        """The up-set topology of a preorder, kept as the preorder itself."""
        t = cls.__new__(cls)
        t._start(p.carrier, None)
        t._specialization = p
        return t

    def _start(self, carrier, family):
        self.carrier = carrier
        self._full = (1 << len(carrier)) - 1
        self._open_set = family
        self._opens = None

    def _check_axioms(self):
        """Decide the axioms in one pass over the opens and one over the unions
        of their rows, and return the family's rows U_x; a refused family is
        named by the pair on which its pass fails.

        Each open, in canonical order, is ANDed into the row of each of its
        points, starting from the carrier, so each row ends as U_x; an AND that
        changes a row must be open.  The unions of the rows are then built one
        row at a time, and each row's new unions must be open.  With no escape
        every union of rows is open and every open is the union of the rows of
        its points, so the family is exactly those unions: a topology.
        """
        family = self._open_set
        if 0 not in family:
            raise StructureError("empty set missing from the open family", path="opens")
        if self._full not in family:
            raise StructureError("carrier missing from the open family", path="opens")
        rows = [self._full] * len(self.carrier)
        for o in self.opens:
            outside = self._full ^ o
            for i in bit_indices(o):
                if rows[i] & outside:
                    if rows[i] & o not in family:
                        raise StructureError(f"intersection escape: {self.labels(rows[i])} & "
                                             f"{self.labels(o)} not open", path="opens")
                    rows[i] &= o
        unions = {0: None}  # a dict, so the union named is the first one built
        for b in rows:
            if b not in unions:
                new = [o | b for o in unions if o & b != b]
                if not family.issuperset(new):
                    u = next(u for u in unions if u | b not in family)
                    raise StructureError(f"union escape: {self.labels(u)} | {self.labels(b)} "
                                         f"not open", path="opens")
                unions.update(dict.fromkeys(new))
        return rows

    @classmethod
    def from_open_sets(cls, carrier, families):
        """Validate an explicit family of label lists as a topology."""
        carrier = tuple(carrier)
        masks = []
        seen = set()
        index = {x: i for i, x in enumerate(carrier)}
        for i, fam in enumerate(families):
            mask = 0
            for x in fam:
                if x not in index:
                    raise InputError(f"open set member {x!r} not in carrier")
                mask |= 1 << index[x]
            if mask in seen:
                raise StructureError(f"duplicate open set {sorted(map(str, fam))}",
                                     path=f"opens[{i}]")
            seen.add(mask)
            masks.append(mask)
        return cls(carrier, masks)

    # -- the open family, read on demand ---------------------------------------

    @property
    def open_set(self):
        """The opens as a set, in no order: the up-sets of the rows,
        enumerated once and shared, so a caller must not change it."""
        if self._open_set is None:
            family = _unions(self._specialization.up, MAX_OPENS)
            if family is None:
                raise CapExceeded(f"refusing to enumerate more than {MAX_OPENS} open sets")
            self._open_set = family
        return self._open_set

    @property
    def opens(self):
        """The open sets in canonical order."""
        if self._opens is None:
            self._opens = tuple(_canonical_order(self.open_set))
        return self._opens

    def is_open(self, mask):
        return mask in self.open_set

    def is_closed(self, mask):
        return (self._full & ~mask) in self.open_set

    def opens_as_labels(self):
        return [list(labels_of(self.carrier, o)) for o in self.opens]

    # -- subset plumbing -----------------------------------------------------

    def mask(self, labels):
        index = self._specialization._index
        m = 0
        for x in labels:
            if x not in index:
                raise InputError(f"subset member {x!r} not in carrier")
            m |= 1 << index[x]
        return m

    def labels(self, mask):
        return tuple(labels_of(self.carrier, mask))

    @property
    def full_mask(self):
        return self._full

    # -- closure and the specialization functor -------------------------------

    def closure_mask(self, mask):
        """Smallest closed superset: the down-set the subset generates."""
        return union_of_rows(self._specialization.down(), mask)

    def closure(self, labels):
        return self.labels(self.closure_mask(self.mask(labels)))

    def specialization_preorder(self):
        """x <= y iff every open containing x contains y: row x is the minimal
        open U_x.  These are the stored rows; ``rows_of_opens`` reads them off
        the open family instead."""
        return self._specialization

    def __eq__(self, other):
        if not isinstance(other, FiniteTopology):
            return NotImplemented
        return self.carrier == other.carrier and self.opens == other.opens

    __hash__ = None

    def __repr__(self):
        return f"FiniteTopology({list(self.carrier)!r})"


def rows_of_opens(space):
    """The minimal opens U_x read off the enumerated open family, never off
    the stored rows, for the round-trip checks: in canonical order a smaller
    open comes first, so the first open holding x is U_x.  The pass stops once
    every point is covered."""
    rows = [0] * len(space.carrier)
    covered = 0
    for o in space.opens:
        if covered == space.full_mask:
            break
        new = o & ~covered
        if new:
            for i in bit_indices(new):
                rows[i] = o
            covered |= new
    return rows


def product_topology(factors):
    """Product space: the up-set topology of the product of the factors'
    specialization preorders, whose opens are the unions of open boxes."""
    return FiniteTopology.from_preorder(product([f.specialization_preorder() for f in factors]))


class PosetStratifiedSpace:
    """A space together with a continuous map to a poset carrying its
    Alexandroff topology.

    A map of finite spaces is continuous iff it is monotone for the
    specialization preorders, so the map is checked on the rows: the image of
    each U_x must lie in the up-set of the stratum of x.
    """

    def __init__(self, space, strata_poset, strat_map):
        if not isinstance(strata_poset, Poset):
            raise InputError("strata must form a poset")
        strat_map = dict(strat_map)
        stratum = []
        for x in space.carrier:
            if x not in strat_map:
                raise InputError(f"stratification map misses point {x!r}")
            stratum.append(strata_poset.index(strat_map[x]))
        i = first_escape(stratum, space.specialization_preorder(), strata_poset)
        if i is not None:
            above = strata_poset.up[stratum[i]]
            labels = tuple(labels_of(strata_poset.carrier, above))
            raise StructureError(
                f"stratification map not continuous: preimage of {labels} is not open")
        self.space = space
        self.strata_poset = strata_poset
        self.strat_map = strat_map

    def fiber_mask(self, stratum):
        self.strata_poset.index(stratum)
        m = 0
        for i, x in enumerate(self.space.carrier):
            if self.strat_map[x] == stratum:
                m |= 1 << i
        return m

    def __repr__(self):
        return (f"PosetStratifiedSpace({len(self.space.carrier)} points over "
                f"{len(self.strata_poset.carrier)} strata)")
