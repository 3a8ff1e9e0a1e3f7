"""Finite preorders and posets: construction, products, quotients, monotone maps.

A relation is a tuple of int bitset rows, one per carrier element, the same
bitmask form the topology layer uses for subsets.  A map of preorders is a
plain dict from source labels to target labels.
"""

import functools
import itertools
import math
import operator

from .errors import CapExceeded, InputError, StructureError

MAX_CARRIER = 4096


def bit_indices(mask):
    """Indices of the set bits of a nonnegative int, ascending."""
    text = bin(mask)[:1:-1]  # character i is bit i
    out = []
    i = text.find("1")
    while i >= 0:
        out.append(i)
        i = text.find("1", i + 1)
    return out


def bitmask(indices):
    """The int with exactly the given bits set."""
    mask = 0
    for i in indices:
        mask |= 1 << i
    return mask


def lowest_bit(mask):
    """Index of the lowest set bit of a nonzero int."""
    return (mask & -mask).bit_length() - 1


def union_of_rows(rows, mask):
    """OR of ``rows[j]`` over the set bits j of ``mask``."""
    return functools.reduce(operator.or_, map(rows.__getitem__, bit_indices(mask)), 0)


def transpose(rows, width):
    """The ``width`` bitset rows of the transposed relation: bit i of row j iff
    bit j of row i, for rows whose bits lie below ``width``.  Written out as
    one binary string, last row first, column j is the slice from bit j of the
    last row in steps of ``width``, highest row first."""
    text = "".join(format(row, f"0{width}b") for row in reversed(rows))
    return [int(text[width - 1 - j::width] or "0", 2) for j in range(width)]


def _classes(rows):
    """Indices grouped by equal rows, in order of first occurrence: in a
    preorder x <= y <= x iff U_x = U_y, so these are its classes (Stong 1966)."""
    groups = {}
    for i, row in enumerate(rows):
        groups.setdefault(row, []).append(i)
    return list(groups.values())


def _closure(rows):
    """Reflexive-transitive closure of bitset rows by strongly connected
    component condensation (Purdom 1970), found by an iterative Tarjan search.

    Tarjan completes the components in reverse topological order, so when a
    component completes, every component it reaches already has its final row:
    the component's row is its members OR those rows.  The search keeps its
    stack as a bitset, and for each vertex the stack as it stood when the vertex
    was found (``older``).  Those vertices stay on the stack while the vertex is
    on the search path, so the vertex roots a component exactly when no vertex
    of its subtree has an edge into them (``hit``), and the component is the
    stack minus them.  The search steps only onto undiscovered vertices.
    A component takes the final rows of the components completed below it in
    the search (``got``) at once; its other completed successors are merged by
    their final rows, highest index first, skipping any that a merged row
    already covers.  A chain costs O(n) row operations in either label order;
    no relation costs more than O(n) plus one per related pair of the result.
    """
    n = len(rows)
    older = [0] * n
    hit = [0] * n  # vertices of older[v] that v's subtree has an edge to
    raw = [0] * n  # OR of the input rows over v's subtree, completed parts excepted
    got = [0] * n  # OR of the rows of the components completed below v
    reach = [0] * n
    seen = 0
    stack = 0
    for root in range(n):
        if seen >> root & 1:
            continue
        path = []
        fresh = 1 << root
        while True:
            if fresh:  # step onto the lowest undiscovered successor
                w = lowest_bit(fresh)
                seen |= 1 << w
                older[w] = stack
                stack |= 1 << w
                raw[w] = rows[w]
                hit[w] = rows[w] & older[w]
                path.append(w)
            else:  # every successor of v is discovered
                v = path.pop()
                parent = path[-1] if path else -1
                if hit[v]:  # v's component continues above v
                    raw[parent] |= raw[v]
                    got[parent] |= got[v]
                    hit[parent] |= hit[v] & older[parent]
                else:
                    members = stack & ~older[v]
                    stack = older[v]
                    row = members | got[v]
                    pending = raw[v] & ~row
                    while pending:
                        row |= reach[pending.bit_length() - 1]
                        pending &= ~row
                    for w in bit_indices(members):
                        reach[w] = row
                    if parent >= 0:
                        got[parent] |= row
                if not path:
                    break
            fresh = rows[path[-1]] & ~seen
    return reach


class Preorder:
    """A finite preorder: an ordered carrier of labels plus one int bitset row
    per element, bit j of ``up[i]`` set iff ``carrier[i] <= carrier[j]``.

    Row i is the up-set of ``carrier[i]``, in the same bitmask form the topology
    layer uses for subsets.  The rows are checked reflexive and transitive at
    construction and kept as a tuple, so values are safe to share.
    """

    def __init__(self, carrier, up):
        carrier = tuple(carrier)
        if len(set(carrier)) != len(carrier):
            raise InputError("duplicate labels in carrier")
        if len(carrier) > MAX_CARRIER:
            raise CapExceeded(
                f"carrier has {len(carrier)} elements, cap is {MAX_CARRIER}")
        up = tuple(up)
        n = len(carrier)
        if len(up) != n:
            raise InputError(f"relation has {len(up)} rows, carrier has {n} elements")
        full = (1 << n) - 1
        for i, row in enumerate(up):
            if not isinstance(row, int) or row & ~full:
                raise InputError(f"relation row {i} is not a bitset over {n} elements")
        for i, row in enumerate(up):
            if not row >> i & 1:
                raise StructureError(f"relation not reflexive at {carrier[i]!r}")
        if _closure(up) != list(up):
            # name the first two-step escape; a relation that is not
            # transitive always has one
            for i, row in enumerate(up):
                missing = union_of_rows(up, row) & ~row
                if missing:
                    j = lowest_bit(missing)
                    raise StructureError(
                        f"relation not transitive: {carrier[i]!r} reaches {carrier[j]!r} "
                        "in two steps but not directly")
        self.carrier = carrier
        self.up = up
        self._index = {x: i for i, x in enumerate(carrier)}
        self._down = None

    @classmethod
    def from_pairs(cls, labels, pairs):
        """Smallest reflexive-transitive relation on ``labels`` containing ``pairs``."""
        labels = tuple(labels)
        if len(set(labels)) != len(labels):
            raise InputError("duplicate labels", path="carrier")
        if len(labels) > MAX_CARRIER:
            # refuse before the closure, not after
            raise CapExceeded(
                f"carrier has {len(labels)} elements, cap is {MAX_CARRIER}")
        index = {x: i for i, x in enumerate(labels)}
        rows = [0] * len(labels)
        for a, b in pairs:
            if a not in index:
                raise InputError(f"unknown label in pairs: {a!r}")
            if b not in index:
                raise InputError(f"unknown label in pairs: {b!r}")
            rows[index[a]] |= 1 << index[b]
        return cls(labels, _closure(rows))

    def __len__(self):
        return len(self.carrier)

    def __eq__(self, other):
        if not isinstance(other, Preorder):
            return NotImplemented
        return self.carrier == other.carrier and self.up == other.up

    __hash__ = None

    def __repr__(self):
        kind = type(self).__name__
        related = sum(row.bit_count() for row in self.up)
        return f"{kind}({list(self.carrier)!r}, {related} related pairs)"

    def index(self, label):
        try:
            return self._index[label]
        except KeyError:
            raise InputError(f"label {label!r} not in carrier") from None

    def leq(self, a, b):
        return bool(self.up[self.index(a)] >> self.index(b) & 1)

    def down(self):
        """Bitset rows of the down-sets: bit j of row i iff carrier[j] <= carrier[i].

        Computed on the first call and kept, like ``up``, as a tuple.
        """
        if self._down is None:
            self._down = tuple(transpose(self.up, len(self.up)))
        return self._down

    def pairs(self):
        """All non-reflexive related pairs, in carrier order."""
        return [
            (self.carrier[i], self.carrier[j])
            for i, row in enumerate(self.up)
            for j in bit_indices(row & ~(1 << i))
        ]

    def is_partial_order(self):  # no two elements share an up-set
        return len(set(self.up)) == len(self.up)

    def dual(self):
        """The opposite preorder (relation transposed)."""
        return type(self)(self.carrier, self.down())

    def covering_pairs(self):
        """Transitive reduction (a, b) with b covering a; only meaningful on posets."""
        if not self.is_partial_order():
            raise StructureError("transitive reduction is only defined for posets")
        strict = [row & ~(1 << i) for i, row in enumerate(self.up)]
        pairs = []
        for i, row in enumerate(strict):
            covers = row & ~union_of_rows(strict, row)
            pairs += [(self.carrier[i], self.carrier[j]) for j in bit_indices(covers)]
        return pairs

    def to_poset(self):
        return Poset(self.carrier, self.up)


class Poset(Preorder):
    """A preorder that is additionally antisymmetric."""

    def __init__(self, carrier, up):
        super().__init__(carrier, up)
        for i, j, *_ in (c for c in _classes(self.up) if len(c) > 1):
            raise StructureError(
                f"relation not antisymmetric: {self.carrier[i]!r} and "
                f"{self.carrier[j]!r} are equivalent but distinct", path="pairs")


def first_escape(images, source, target):
    """The first source index whose up-set maps outside the up-set of its
    image, or None; ``images[i]`` is the target index of source element i.

    A map of preorders is monotone iff this is None.
    """
    bits = [1 << j for j in images]
    for i, row in enumerate(source.up):
        if union_of_rows(bits, row) & ~target.up[images[i]]:
            return i
    return None


def is_monotone(assignment, source, target):
    """True iff x <= y in source implies assignment[x] <= assignment[y] in target."""
    images = []
    for x in source.carrier:
        if x not in assignment:
            raise InputError(f"assignment misses source element {x!r}")
        j = target._index.get(assignment[x])
        if j is None:
            raise InputError(f"assignment value {assignment[x]!r} outside target carrier")
        images.append(j)
    return first_escape(images, source, target) is None


def product_label(parts):
    """Label of a product element, e.g. ('N', 'P') -> '(N,P)'."""
    return "(" + ",".join(str(p) for p in parts) + ")"


def product_labels(label_lists):
    """``product_label`` of each tuple of the row-major product of the label
    lists, refused if two tuples read the same: the labels are joined with
    "," and not escaped, so ('a,b', 'c') and ('a', 'b,c') both read '(a,b,c)'."""
    seen = {}
    for parts in itertools.product(*label_lists):
        label = product_label(parts)
        if label in seen:
            raise InputError(
                f"product labels collide: {seen[label]!r} and {parts!r} both read "
                f"{label!r}", path="factors")
        seen[label] = parts
    return list(seen)


def product_mask(a, b, m):
    """Mask over the row-major product of two carriers, the second with m
    elements: bit (k, j) is set for every bit k of a and bit j of b.  The
    m-bit blocks are disjoint, so the sum is their union."""
    return sum(b << k * m for k in bit_indices(a))


def product(factors):
    """Componentwise product preorder; carrier in row-major factor order."""
    factors = list(factors)
    if not factors:
        raise InputError("empty factor list")
    size = math.prod(len(f.carrier) for f in factors)
    if size > MAX_CARRIER:  # refuse before building the rows
        raise CapExceeded(f"carrier has {size} elements, cap is {MAX_CARRIER}")
    labels = product_labels(f.carrier for f in factors)
    up = [1]  # the one-point preorder, unit of the product
    for f in factors:
        m = len(f.carrier)  # row (i, j) is row i so far times row j of f
        up = [product_mask(row, f_row, m) for row in up for f_row in f.up]
    if all(isinstance(f, Poset) for f in factors):
        return Poset(labels, up)
    return Preorder(labels, up)


def quotient_poset(p):
    """Collapse the equivalence a<=b<=a; returns (poset of classes, projection),
    the projection a dict from each label to its class label.

    Class labels are "[m]" with m the lexicographically least member; classes
    are ordered by first occurrence in the source carrier.
    """
    members = _classes(p.up)
    class_of = {j: c for c, cls in enumerate(members) for j in cls}
    labels = ["[%s]" % min(p.carrier[j] for j in cls) for cls in members]
    # up-sets are unions of classes, so a class row holds class d iff its
    # first member's row, as a binary string, holds d's first member
    # ("".join also takes the str that a one-index itemgetter returns)
    n = len(p.carrier)
    firsts = [n - 1 - cls[0] for cls in reversed(members)]
    at_firsts = operator.itemgetter(*firsts) if firsts else None
    qup = [int("".join(at_firsts(format(p.up[cls[0]], f"0{n}b"))), 2) for cls in members]
    # each class row is the image of its members' rows, so the projection
    # is monotone by construction
    return Poset(labels, qup), {x: labels[class_of[i]] for i, x in enumerate(p.carrier)}


def is_order_isomorphism(assignment, p, q):
    """Check a bijection preserves and reflects the order: it and its
    inverse are monotone."""
    if sorted(assignment) != sorted(p.carrier):
        return False
    if sorted(assignment.values()) != sorted(q.carrier):
        return False
    inverse = {b: a for a, b in assignment.items()}
    return is_monotone(assignment, p, q) and is_monotone(inverse, q, p)
