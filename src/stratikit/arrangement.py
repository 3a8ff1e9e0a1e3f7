"""Rational hyperplane arrangements: sign vectors, face enumeration, and the
face poset with an independent closure-inclusion oracle."""

from __future__ import annotations

from dataclasses import dataclass
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


@dataclass(frozen=True)
class Face:
    signs: tuple
    witness: tuple

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


def closure_inclusion(arr, f, g):
    """Oracle: is the face f contained in the closure of the face g?

    The closure of g is its weak relaxation; f lies inside it iff f's system
    together with each negated weak constraint of g is infeasible.
    """
    base = _system(arr, f.signs)
    for i, s in enumerate(g.signs):
        form = arr.forms[i]
        coeffs, const = form[1:], form[0]
        negations = []
        if s >= 0:
            # violate l >= 0 (or the lower half of l = 0): l < 0
            negations.append((tuple(-c for c in coeffs), -const, True))
        if s <= 0:
            # violate l <= 0 (or the upper half of l = 0): l > 0
            negations.append((coeffs, const, True))
        for neg in negations:
            if feasible(base.extended(inequalities=[neg])):
                return False
    return True
