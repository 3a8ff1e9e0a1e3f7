"""Rational hyperplane arrangements: sign vectors, face enumeration, and the
face poset with an independent closure-inclusion oracle."""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction

from .errors import CapExceeded, InputError
from .feasibility import LinearSystem, feasible, solve
from .order import Poset, bitmask

MAX_FORMS = 12

SIGN_CHARS = {-1: "-", 0: "0", 1: "+"}


def sign_label(signs):
    return "".join(SIGN_CHARS[s] for s in signs)


class Arrangement:
    """A list of rational affine forms a0 + a1*x1 + ... + an*xn, each cutting
    out a genuine hyperplane."""

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

    @property
    def k(self):
        return len(self.forms)

    def is_central(self):
        return all(f[0] == 0 for f in self.forms)

    def evaluate(self, i, point):
        f = self.forms[i]
        return f[0] + sum(f[j + 1] * point[j] for j in range(self.dim))

    def __repr__(self):
        return f"Arrangement(dim={self.dim}, k={self.k})"


class Face(namedtuple("Face", "signs witness")):
    """One face: its sign vector and an exact rational point realizing it."""

    __slots__ = ()

    @property
    def label(self):
        return sign_label(self.signs)


def sign_map(arr, point):
    """Sign of every form at an exact rational point."""
    point = tuple(Fraction(c) for c in point)
    if len(point) != arr.dim:
        raise InputError(
            f"point has {len(point)} coordinates, arrangement lives in dimension {arr.dim}")
    out = []
    for i in range(arr.k):
        v = arr.evaluate(i, point)
        out.append(0 if v == 0 else (1 if v > 0 else -1))
    return tuple(out)


def _system(arr, signs):
    """Constraint system selecting the points with the given (partial) signs."""
    eqs, ineqs = [], []
    for i, s in enumerate(signs):
        f = arr.forms[i]
        coeffs, const = f[1:], f[0]
        if s == 0:
            eqs.append((coeffs, const))
        elif s > 0:
            ineqs.append((coeffs, const, True))
        else:
            ineqs.append((tuple(-c for c in coeffs), -const, True))
    return LinearSystem(arr.dim, eqs, ineqs)


def enumerate_faces(arr, cap=MAX_FORMS):
    """All realizable sign vectors with rational witnesses, in lexicographic
    order under - < 0 < +.  Infeasible prefixes prune the sign tree."""
    if arr.k > cap:
        raise CapExceeded(f"arrangement has {arr.k} forms, enumeration cap is {cap}")
    faces = []

    def extend(prefix, witness):
        if len(prefix) == arr.k:
            face = Face(prefix, witness)
            if sign_map(arr, witness) != prefix:
                raise AssertionError(f"witness does not reproduce signs {prefix}")
            faces.append(face)
            return
        for s in (-1, 0, 1):
            candidate = prefix + (s,)
            w = solve(_system(arr, candidate))
            if w is not None:
                extend(candidate, w)

    extend((), None)
    return faces


def _sign_leq(a, b):
    """Componentwise face order: 0 sits below both - and +."""
    return all(x == 0 or x == y for x, y in zip(a, b))


def face_poset(arr, faces=None):
    """Realizable sign vectors under the componentwise order."""
    if faces is None:
        faces = enumerate_faces(arr)
    up = [
        bitmask(j for j, g in enumerate(faces) if _sign_leq(f.signs, g.signs))
        for f in faces
    ]
    return Poset([f.label for f in faces], up)


def reachable_sides(arr, face):
    """Which strict sides of each form the face reaches, as two k-bit masks
    (below, above): bit i of below is set iff the face's system together
    with l_i < 0 is feasible, bit i of above iff it is with l_i > 0.

    This is 2k exact feasibility solves and never reads the sign order."""
    base = _system(arr, face.signs)
    below = above = 0
    for i, form in enumerate(arr.forms):
        coeffs, const = form[1:], form[0]
        if feasible(base.extended(
                inequalities=[(tuple(-c for c in coeffs), -const, True)])):
            below |= 1 << i
        if feasible(base.extended(inequalities=[(coeffs, const, True)])):
            above |= 1 << i
    return below, above


def _sides_outside_closure(signs):
    """(below, above) masks of the strict sides that miss the closure of the
    face with these signs.  That closure is the weak relaxation of the signs,
    so l_i < 0 misses it when s_i >= 0, and l_i > 0 when s_i <= 0."""
    return (bitmask(i for i, s in enumerate(signs) if s >= 0),
            bitmask(i for i, s in enumerate(signs) if s <= 0))


def _within_closure(sides, outside):
    """A face reaching `sides` lies in a closure missing `outside` iff it
    reaches none of the missing sides."""
    return not (sides[0] & outside[0] or sides[1] & outside[1])


def closure_inclusion(arr, f, g):
    """Oracle: is the face f contained in the closure of the face g?

    f lies in the closure of g iff f reaches no strict side of a form that
    the closure of g misses.  Costs 2k solves; closure_rows decides all pairs
    of a face list with 2k solves per face.
    """
    return _within_closure(reachable_sides(arr, f), _sides_outside_closure(g.signs))


def closure_rows(arr, faces):
    """The oracle on every pair: bit j of row i is set iff faces[i] lies in
    the closure of faces[j]."""
    outside = [_sides_outside_closure(g.signs) for g in faces]
    rows = []
    for f in faces:
        sides = reachable_sides(arr, f)
        rows.append(bitmask(j for j, out in enumerate(outside)
                            if _within_closure(sides, out)))
    return rows
