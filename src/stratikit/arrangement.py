"""Rational hyperplane arrangements: sign vectors, face enumeration, and the
face poset with an independent closure-inclusion oracle.

``order`` is imported only where the face poset or the oracle is built, so
face enumeration alone never loads it."""

from __future__ import annotations

import operator
from collections import namedtuple
from fractions import Fraction
from math import lcm

from .errors import CapExceeded, InputError
from .feasibility import LinearSystem, feasible, integer_row, solve

MAX_FORMS = 12

SIGN_CHARS = {-1: "-", 0: "0", 1: "+"}


def sign_label(signs):
    return "".join(SIGN_CHARS[s] for s in signs)


class Arrangement:
    """A list of rational affine forms a0 + a1*x1 + ... + an*xn, each cutting
    out a genuine hyperplane.

    Each form is also stored once in ``rows`` as the primitive integer row
    (a1, ..., an, a0) of the feasibility layer.  The row is a positive multiple
    of the form, so it has the same sign at every point."""

    def __init__(self, dim, forms):
        dim = int(dim)
        if dim < 1:
            raise InputError("dimension must be positive")
        forms = [tuple(Fraction(c) for c in f) for f in forms]
        if not forms:
            raise InputError("at least one form required")
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
        self.forms = tuple(forms)
        self.rows = tuple(integer_row(f[1:], f[0], dim, "form") for f in forms)

    @property
    def k(self):
        return len(self.forms)

    def is_central(self):
        return all(f[0] == 0 for f in self.forms)

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


def _constraint(row, s):
    """(equalities, inequalities) selecting the points where the row has sign s."""
    coeffs, const = row[:-1], row[-1]
    if s == 0:
        return [(coeffs, const)], ()
    if s > 0:
        return (), [(coeffs, const, True)]
    return (), [(tuple(-c for c in coeffs), -const, True)]


def _system(arr, signs):
    """Constraint system selecting the points with the given (partial) signs."""
    eqs, ineqs = [], []
    for row, s in zip(arr.rows, signs):
        e, q = _constraint(row, s)
        eqs += e
        ineqs += q
    return LinearSystem(arr.dim, eqs, ineqs)


def enumerate_faces(arr, cap=MAX_FORMS):
    """All realizable sign vectors with rational witnesses, in lexicographic
    order under - < 0 < +.  Infeasible prefixes prune the sign tree.

    Each child of a prefix extends the parent's system by one row, in form
    order, so it equals ``_system`` of the child.  An interior child whose
    sign is the sign of its form at the point realizing the parent is
    feasible, realized by that same point, and is not solved.  Leaves are
    always solved, so each witness is the solution of the face's full
    system."""
    if arr.k > cap:
        raise CapExceeded(f"arrangement has {arr.k} forms, enumeration cap is {cap}")
    table = [{s: _constraint(row, s) for s in (-1, 0, 1)} for row in arr.rows]
    last = arr.k - 1
    faces = []

    def extend(prefix, system, point):
        i = len(prefix)
        at_point = None if point is None else _sign_at(arr.rows[i], point)
        for s in (-1, 0, 1):
            candidate = prefix + (s,)
            child = system.extended(*table[i][s])
            if i < last and s == at_point:
                extend(candidate, child, point)
                continue
            w = solve(child)
            if w is None:
                continue
            if i < last:
                extend(candidate, child, _scaled(w))
                continue
            if sign_map(arr, w) != candidate:
                raise AssertionError(f"witness does not reproduce signs {candidate}")
            faces.append(Face(candidate, w))

    extend((), LinearSystem(arr.dim), None)
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


def reachable_sides(arr, face):
    """Which strict sides of each form the face reaches, as two k-bit masks
    (below, above): bit i of below is set iff the face's system together
    with l_i < 0 is feasible, bit i of above iff it is with l_i > 0.

    This is 2k exact feasibility solves and never reads the sign order."""
    base = _system(arr, face.signs)
    below = above = 0
    for i, row in enumerate(arr.rows):
        if feasible(base.extended(*_constraint(row, -1))):
            below |= 1 << i
        if feasible(base.extended(*_constraint(row, 1))):
            above |= 1 << i
    return below, above


def _sides_outside_closure(signs):
    """(below, above) masks of the strict sides that miss the closure of the
    face with these signs.  That closure is the weak relaxation of the signs,
    so l_i < 0 misses it when s_i >= 0, and l_i > 0 when s_i <= 0."""
    from .order import bitmask

    return (bitmask(i for i, s in enumerate(signs) if s >= 0),
            bitmask(i for i, s in enumerate(signs) if s <= 0))


def closure_inclusion(arr, f, g):
    """Oracle: is the face f contained in the closure of the face g?

    f lies in the closure of g iff f reaches no strict side of a form that
    the closure of g misses.  Costs 2k solves; closure_rows decides all pairs
    of a face list with 2k solves per face.
    """
    below, above = reachable_sides(arr, f)
    outside_below, outside_above = _sides_outside_closure(g.signs)
    return not (below & outside_below or above & outside_above)


def closure_rows(arr, faces):
    """The oracle on every pair: bit j of row i is set iff faces[i] lies in
    the closure of faces[j].

    That is, faces[j] has sign - at every form whose - side faces[i]
    reaches, and sign + at every form whose + side it reaches, so row i is
    the AND of those faces over the reached sides.  The sign masks are built
    here, not shared with face_poset, so the oracle reads only the solver's
    sides and the faces' signs."""
    from .order import bit_indices

    negative, positive = [0] * arr.k, [0] * arr.k
    for j, g in enumerate(faces):
        for i, s in enumerate(g.signs):
            if s < 0:
                negative[i] |= 1 << j
            elif s > 0:
                positive[i] |= 1 << j
    everything = (1 << len(faces)) - 1
    rows = []
    for f in faces:
        below, above = reachable_sides(arr, f)
        row = everything
        for i in bit_indices(below):
            row &= negative[i]
        for i in bit_indices(above):
            row &= positive[i]
        rows.append(row)
    return rows
