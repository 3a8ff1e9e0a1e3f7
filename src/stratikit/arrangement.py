"""Rational hyperplane arrangements: sign vectors, face enumeration, and the
face poset with a closure-inclusion oracle read off the face witnesses.

Only face enumeration solves linear systems.  ``face_poset`` orders the
faces' labels; the oracle evaluates the forms exactly at the witnesses and
never reads a label, so the two agree only if every label is the sign vector
of its witness and the poset is built right.  ``order`` is imported only
where the face poset is built, so face enumeration alone never loads it."""

import operator
from collections import namedtuple
from fractions import Fraction
from math import lcm

from .errors import CapExceeded, InputError
from .feasibility import integer_row, solve

MAX_FORMS = 12

SIGN_CHARS = {-1: "-", 0: "0", 1: "+"}


def sign_label(signs):
    return "".join(SIGN_CHARS[s] for s in signs)


class Arrangement:
    """A list of rational affine forms a0 + a1*x1 + ... + an*xn, each cutting
    out a genuine hyperplane.

    Each form is stored only in ``rows``, as the primitive integer row
    (a1, ..., an, a0) of the feasibility layer.  The row is a positive multiple
    of the form, so it has the same sign at every point."""

    def __init__(self, dim, forms):
        dim = int(dim)
        if dim < 1:
            raise InputError("dimension must be positive", path="dim")
        forms = [tuple(Fraction(c) for c in f) for f in forms]
        if not forms:
            raise InputError("at least one form required", path="forms")
        for i, f in enumerate(forms):
            if len(f) != dim + 1:
                raise InputError(
                    f"form {i} has {len(f)} coefficients, expected {dim + 1}",
                    path=f"forms[{i}]")
            if all(c == 0 for c in f[1:]):
                raise InputError(
                    f"form {i} has no variable part and cuts out no hyperplane",
                    path=f"forms[{i}]")
        self.dim = dim
        self.rows = tuple(integer_row(f[1:], f[0]) for f in forms)

    @property
    def k(self):
        return len(self.rows)

    def is_central(self):
        return all(row[-1] == 0 for row in self.rows)

    def __repr__(self):
        return f"Arrangement(dim={self.dim}, k={self.k})"


class Face(namedtuple("Face", "signs witness")):
    """One face: its sign vector and an exact rational point realizing it."""

    __slots__ = ()

    @property
    def label(self):
        return sign_label(self.signs)


def _scaled(point):
    """A rational point as (integer numerators, common denominator d > 0)."""
    d = lcm(*(c.denominator for c in point))
    return tuple(c.numerator * (d // c.denominator) for c in point), d


def _sign_at(row, scaled):
    """Sign of an integer row at a scaled point: d * (const + c . x), in
    integers.  map stops at the shorter sequence, so the const is left out."""
    nums, d = scaled
    v = row[-1] * d + sum(map(operator.mul, row, nums))
    return (v > 0) - (v < 0)


def sign_map(arr, point):
    """Sign of every form at an exact rational point."""
    point = tuple(Fraction(c) for c in point)
    if len(point) != arr.dim:
        raise InputError(
            f"point has {len(point)} coordinates, arrangement lives in dimension {arr.dim}")
    scaled = _scaled(point)
    return tuple(_sign_at(row, scaled) for row in arr.rows)


def enumerate_faces(arr):
    """All realizable sign vectors with rational witnesses, in lexicographic
    order under - < 0 < +.  Infeasible prefixes prune the sign tree.

    Each child of a prefix extends the parent's row lists by the row of the
    next form: an equality for sign 0, a strict inequality on the row for +
    or on its negation for -.  So it selects exactly the points with the
    child's signs on those forms.  An interior child whose sign is the sign
    of its form at the point realizing the parent is feasible, realized by
    that same point, and is not solved.  Leaves are always solved, so each
    witness is the solution of the face's full system."""
    if arr.k > MAX_FORMS:
        raise CapExceeded(f"arrangement has {arr.k} forms, enumeration cap is {MAX_FORMS}")
    rows = arr.rows
    negated = [tuple(-c for c in row) for row in rows]
    last = arr.k - 1
    faces = []

    def extend(prefix, eqs, ineqs, point):
        i = len(prefix)
        at_point = None if point is None else _sign_at(rows[i], point)
        children = ((eqs, [*ineqs, (negated[i], True)]),
                    ([*eqs, rows[i]], ineqs),
                    (eqs, [*ineqs, (rows[i], True)]))
        for s, child in zip((-1, 0, 1), children):
            candidate = prefix + (s,)
            if i < last and s == at_point:
                extend(candidate, *child, point)
                continue
            w = solve(arr.dim, *child)
            if w is None:
                continue
            if i < last:
                extend(candidate, *child, _scaled(w))
                continue
            if sign_map(arr, w) != candidate:
                raise AssertionError(f"witness does not reproduce signs {candidate}")
            faces.append(Face(candidate, w))

    extend((), [], [], None)
    return faces


def face_poset(arr, faces=None):
    """Realizable sign vectors under the componentwise order, where 0 sits
    below both - and +.

    Bit j of ``classes[i][s + 1]`` is set iff face j has sign s at form i, so
    the up-set of f is the AND of those sign classes over the forms with
    f_i != 0."""
    from .order import Poset

    if faces is None:
        faces = enumerate_faces(arr)
    classes = [[0, 0, 0] for _ in range(arr.k)]
    for j, f in enumerate(faces):
        bit = 1 << j
        for cls, s in zip(classes, f.signs):
            cls[s + 1] |= bit
    everything = (1 << len(faces)) - 1
    up = []
    for f in faces:
        row = everything
        for cls, s in zip(classes, f.signs):
            if s:
                row &= cls[s + 1]
        up.append(row)
    return Poset([f.label for f in faces], up)


def closure_inclusion(arr, f, g):
    """Oracle: is the face f contained in the closure of the face g?

    Decided from the forms evaluated exactly at the two witnesses p in f and
    q in g, never from the faces' labels.  The closure of g is the weak
    relaxation of its signs, and p lies in it iff the segment (p, q] lies in g
    (line-segment principle, Rockafellar, Convex Analysis, Thm 6.1).  So f is
    in the closure of g iff every form is 0 at p or has the same sign at p as
    at q."""
    return all(s == 0 or s == t
               for s, t in zip(sign_map(arr, f.witness), sign_map(arr, g.witness)))


def closure_rows(arr, faces):
    """The oracle on every pair: bit j of row i is set iff faces[i] lies in
    the closure of faces[j].

    Each witness is evaluated once.  Bit j of ``negative[i]`` (``positive[i]``)
    is set iff form i is negative (positive) at the witness of faces[j], so
    row i is the AND of those classes over the forms that are nonzero at the
    witness of faces[i].  The masks are built here from the witnesses, not
    shared with face_poset, which reads the faces' labels."""
    signs = [sign_map(arr, f.witness) for f in faces]
    negative, positive = [0] * arr.k, [0] * arr.k
    for j, at_witness in enumerate(signs):
        for i, s in enumerate(at_witness):
            if s < 0:
                negative[i] |= 1 << j
            elif s > 0:
                positive[i] |= 1 << j
    everything = (1 << len(faces)) - 1
    rows = []
    for at_witness in signs:
        row = everything
        for i, s in enumerate(at_witness):
            if s < 0:
                row &= negative[i]
            elif s > 0:
                row &= positive[i]
        rows.append(row)
    return rows
