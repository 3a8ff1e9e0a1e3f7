"""Rational hyperplane arrangements: sign vectors, face labels from the
cocircuits of the homogenized forms, witnesses, and the face poset with a
closure-inclusion oracle read off the face witnesses.

The face labels are computed in integers and solve nothing.  Only the
witnesses of ``enumerate_faces`` come from linear systems: each face's full
system is solved on its own, so a label that no point realizes is left
without a witness.  ``face_poset`` orders the faces' labels; the oracle
evaluates the forms exactly at the witnesses and never reads a label, so the
two agree only if every label is the sign vector of its witness and the poset
is built right.  ``feasibility`` and ``fractions`` are imported only where a
witness is solved or a rational is read, and ``order`` only where the face
poset is built, so labels of integer forms load neither."""

import itertools
import operator
from collections import namedtuple
from math import gcd, lcm

from .errors import CapExceeded, InputError

MAX_FORMS = 12

# Most faces the composition closure may list: the carrier cap of the face
# poset (order.MAX_CARRIER), so a face list the poset could not hold is
# refused while it grows, after at most this many faces of work each.
MAX_FACES = 4096

SIGN_CHARS = {-1: "-", 0: "0", 1: "+"}


def sign_label(signs):
    return "".join(SIGN_CHARS[s] for s in signs)


def integer_row(coeffs, const):
    """The primitive integer row (c1, ..., cn, const) proportional, by a
    positive factor, to the row (coeffs, const) of ints and Fractions."""
    values = (*coeffs, const)
    denom = lcm(*(v.denominator for v in values))
    row = tuple(v.numerator * (denom // v.denominator) for v in values)
    g = gcd(*row)
    return tuple(v // g for v in row) if g > 1 else row


def _exact(c):
    """An int as it is; anything else as a Fraction."""
    if isinstance(c, int):
        return c
    from fractions import Fraction
    return Fraction(c)


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
        forms = [tuple(map(_exact, f)) for f in forms]
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
    """One face: its sign vector and an exact rational point realizing it
    (None if the face's system has no solution)."""

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
    from fractions import Fraction
    point = tuple(Fraction(c) for c in point)
    if len(point) != arr.dim:
        raise InputError(
            f"point has {len(point)} coordinates, arrangement lives in dimension {arr.dim}")
    scaled = _scaled(point)
    return tuple(_sign_at(row, scaled) for row in arr.rows)


def _eliminate(matrix):
    """Fraction-free Gaussian elimination of integer rows (Bareiss 1968):
    (echelon rows, pivot columns, last pivot times the sign of the row swaps).

    Every entry below the pivot rows stays an integer minor of the input, so
    each division is exact, and the last value is the determinant of the
    columns of the pivots when the pivots take every row."""
    rows = [list(r) for r in matrix]
    pivots = []
    prev = sign = 1
    for col in range(len(rows[0]) if rows else 0):
        top = len(pivots)
        p = next((i for i in range(top, len(rows)) if rows[i][col]), None)
        if p is None:
            continue
        if p != top:
            rows[top], rows[p] = rows[p], rows[top]
            sign = -sign
        pivot_row = rows[top]
        pivot = pivot_row[col]
        for i in range(top + 1, len(rows)):
            f = rows[i][col]
            rows[i] = [(pivot * a - f * b) // prev for a, b in zip(rows[i], pivot_row)]
        prev = pivot
        pivots.append(col)
        if len(pivots) == len(rows):
            break
    return rows, pivots, sign * prev


def _normal(vectors, width):
    """The vector of signed (width - 1)-minors of ``width - 1`` integer
    vectors in dimension ``width``, up to sign: a normal of their span, or
    None if they are dependent.

    Its entry at the one column without a pivot is the determinant of the
    pivot columns, and back-substitution in the echelon rows gives the rest
    exactly, since by Cramer's rule every entry is an integer."""
    rows, pivots, last = _eliminate(vectors)
    if len(pivots) < width - 1:
        return None
    y = [0] * width
    y[next(c for c in range(width) if c not in pivots)] = last
    for row, p in zip(reversed(rows), reversed(pivots)):
        y[p] = -sum(map(operator.mul, row, y)) // row[p]
    return y


def cocircuits(arr):
    """The cocircuits of the homogenized forms, as (pos, neg) bitset pairs:
    bit i < k for form i, bit k for v0 = (0, ..., 0, 1), the side t > 0.

    The vectors are projected onto a set of columns independent on their
    span, so the configuration has full rank r there.  Each independent
    (r - 1)-subset spans a hyperplane whose normal y is the vector of signed
    (r - 1)-minors (cofactors); the cocircuit is the sign of y . v on every
    vector v, and its negation is one too (Björner, Las Vergnas, Sturmfels,
    White and Ziegler, *Oriented Matroids*, 1993, section 3.7)."""
    vectors = [*arr.rows, (0,) * arr.dim + (1,)]
    _, columns, _ = _eliminate(vectors)
    vectors = [tuple(v[c] for c in columns) for v in vectors]
    r = len(columns)
    found = set()
    for subset in itertools.combinations(vectors, r - 1):
        y = _normal(subset, r)
        if y is None:
            continue  # a dependent subset spans no hyperplane
        pos = neg = 0
        for i, v in enumerate(vectors):
            value = sum(map(operator.mul, y, v))
            if value > 0:
                pos |= 1 << i
            elif value < 0:
                neg |= 1 << i
        found.add((pos, neg))
        found.add((neg, pos))
    return sorted(found)


def face_signs(arr):
    """The sign vector of every face, in lexicographic order under
    - < 0 < +, without solving anything.

    The covectors of the homogenized forms are the compositions of their
    cocircuits, and the faces are the covectors that are + on v0 (Björner et
    al. 1993, sections 3.7 and 4.1).  Every covector is a composition of the
    cocircuits that conform to it, which are never - on v0, and composing
    with a + on v0 first keeps every step + there.  So the closure starts
    from the cocircuits that are + on v0 and composes with those that are not
    - on v0.  X o C differs from X only on the zero set Z of X and depends
    only on C there, so each X is composed once with each distinct nonzero
    restriction of a cocircuit to Z.

    Raises CapExceeded above MAX_FORMS forms, or once the closure holds more
    than MAX_FACES faces."""
    if arr.k > MAX_FORMS:
        raise CapExceeded(f"arrangement has {arr.k} forms, enumeration cap is {MAX_FORMS}")
    k = arr.k
    t = 1 << k
    usable = [(pos, neg) for pos, neg in cocircuits(arr) if not neg & t]
    found = {c for c in usable if c[0] & t}
    pending = list(found)
    restrictions = {}  # zero set -> the distinct nonzero restrictions to it
    while pending:
        pos, neg = pending.pop()
        zero = (t - 1) & ~(pos | neg)
        if zero not in restrictions:
            restrictions[zero] = {(p & zero, n & zero) for p, n in usable
                                  if (p | n) & zero}
        for p, n in restrictions[zero]:
            covector = (pos | p, neg | n)
            if covector not in found:
                if len(found) == MAX_FACES:
                    raise CapExceeded(
                        f"arrangement has more than {MAX_FACES} faces, cap is {MAX_FACES}")
                found.add(covector)
                pending.append(covector)
    return sorted(tuple((pos >> i & 1) - (neg >> i & 1) for i in range(k))
                  for pos, neg in found)


def __getattr__(name):
    """``arrangement.solve``, the solver that ``enumerate_faces`` calls,
    imported from ``feasibility`` only when read (perfbench's tracer test
    reads it by that name)."""
    if name == "solve":
        from .feasibility import solve
        return solve
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def enumerate_faces(arr):
    """Every face with its rational witness, in the order of ``face_signs``.

    Each witness is the solution of the face's full system, with its rows in
    form order: the form's row as an equality for sign 0, the row (+) or its
    negation (-) as a strict inequality.  A label that no point realizes has
    no solution and gets the witness None."""
    from .feasibility import solve

    sides = [{1: (row, True), -1: (tuple(-c for c in row), True)} for row in arr.rows]
    faces = []
    for signs in face_signs(arr):
        eqs = [row for row, s in zip(arr.rows, signs) if not s]
        ineqs = [side[s] for side, s in zip(sides, signs) if s]
        faces.append(Face(signs, solve(arr.dim, eqs, ineqs)))
    return faces


def euler_characteristic(arr, labels):
    """Sum of (-1)^dim F over the faces with the given sign labels.  A face
    is a relatively open polyhedron of dimension n minus the rank of the
    variable parts of the forms that vanish on it, so over all the faces of
    an arrangement in R^n the sum is (-1)^n, the compactly supported Euler
    characteristic of R^n."""
    dims = {}
    total = 0
    for label in labels:
        zero = tuple(i for i, c in enumerate(label) if c == "0")
        if zero not in dims:
            _, pivots, _ = _eliminate([arr.rows[i][:-1] for i in zero])
            dims[zero] = arr.dim - len(pivots)
        total += -1 if dims[zero] % 2 else 1
    return total


def face_poset(arr, faces=None):
    """Realizable sign vectors under the componentwise order, where 0 sits
    below both - and +; the labels of ``face_signs`` when no faces are given.

    Bit j of ``classes[i][s + 1]`` is set iff face j has sign s at form i, so
    the up-set of f is the AND of those sign classes over the forms with
    f_i != 0."""
    from .order import Poset

    signs = face_signs(arr) if faces is None else [f.signs for f in faces]
    classes = [[0, 0, 0] for _ in range(arr.k)]
    for j, f in enumerate(signs):
        bit = 1 << j
        for cls, s in zip(classes, f):
            cls[s + 1] |= bit
    everything = (1 << len(signs)) - 1
    up = []
    for f in signs:
        row = everything
        for cls, s in zip(classes, f):
            if s:
                row &= cls[s + 1]
        up.append(row)
    return Poset([sign_label(f) for f in signs], up)


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
    the closure of faces[j].  A face without a witness is a point of no
    closure and no closure holds a point of it, so its row is empty.

    Each witness is evaluated once.  Bit j of ``negative[i]`` (``positive[i]``)
    is set iff form i is negative (positive) at the witness of faces[j], so
    row i is the AND of those classes over the forms that are nonzero at the
    witness of faces[i].  The masks are built here from the witnesses, not
    shared with face_poset, which reads the faces' labels."""
    signs = [None if f.witness is None else sign_map(arr, f.witness) for f in faces]
    negative, positive = [0] * arr.k, [0] * arr.k
    for j, at_witness in enumerate(signs):
        for i, s in enumerate(at_witness or ()):
            if s < 0:
                negative[i] |= 1 << j
            elif s > 0:
                positive[i] |= 1 << j
    everything = sum(1 << j for j, at_witness in enumerate(signs) if at_witness)
    rows = []
    for at_witness in signs:
        row = everything if at_witness else 0
        for i, s in enumerate(at_witness or ()):
            if s < 0:
                row &= negative[i]
            elif s > 0:
                row &= positive[i]
        rows.append(row)
    return rows
