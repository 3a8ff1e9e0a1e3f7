"""Order complexes of finite posets and rational Betti numbers.

A finite poset has the homology of its order complex (McCord 1966).  Ranks
come from exact column reduction of sparse boundary columns over Q;
``fractions`` is imported only when a rank is taken.
"""

from __future__ import annotations

from .errors import CapExceeded, InputError, StructureError
from .order import bit_indices

MAX_SIMPLICES = 5000


class SimplicialComplex:
    """Vertices plus a downward-closed family of nonempty simplices.

    Simplices are tuples of vertex indices in increasing carrier order; that
    order also fixes the orientation used by the boundary columns.
    """

    def __init__(self, vertices, simplices):
        vertices = tuple(vertices)
        if len(set(vertices)) != len(vertices):
            raise InputError("duplicate vertex labels")
        index = {v: i for i, v in enumerate(vertices)}
        canon = set()
        for s in simplices:
            if not s:
                raise InputError("empty simplex not allowed")
            idx = tuple(sorted(index[v] if v in index else -1 for v in s))
            if idx[0] < 0:
                raise InputError(f"simplex {s!r} uses an unknown vertex")
            if len(set(idx)) != len(idx):
                raise InputError(f"simplex {s!r} repeats a vertex")
            canon.add(idx)
        if len(canon) > MAX_SIMPLICES:
            raise CapExceeded(f"complex has {len(canon)} simplices, cap is {MAX_SIMPLICES}")
        for s in canon:
            if len(s) > 1:
                for drop in range(len(s)):
                    face = s[:drop] + s[drop + 1:]
                    if face not in canon:
                        raise StructureError(
                            f"complex not downward closed: face {face} of {s} missing")
        used = {i for s in canon for i in s}
        for i in used:
            if (i,) not in canon:
                raise StructureError(
                    f"vertex {vertices[i]!r} appears in a simplex but not as a singleton")
        self.vertices = vertices
        self.simplices = tuple(sorted(canon, key=lambda s: (len(s), s)))

    def by_dimension(self):
        out = {}
        for s in self.simplices:
            out.setdefault(len(s) - 1, []).append(s)
        return out

    @property
    def dimension(self):
        return max((len(s) - 1 for s in self.simplices), default=-1)

    def f_vector(self):
        dims = self.by_dimension()
        return [len(dims.get(d, ())) for d in range(self.dimension + 1)]

    def simplex_labels(self):
        return [[self.vertices[i] for i in s] for s in self.simplices]

    def __repr__(self):
        return f"SimplicialComplex({len(self.vertices)} vertices, f={self.f_vector()})"


def order_complex(poset):
    """All chains (totally ordered subsets) of a poset, as a complex."""
    if not poset.is_partial_order():
        raise StructureError("order complex requires a poset (antisymmetry failed)")
    comparable = [u | d for u, d in zip(poset.up, poset.down())]
    chains = []

    def grow(chain, common):
        """Extend by every later element comparable with all of ``chain``,
        whose comparability masks intersect to ``common``."""
        if len(chains) > MAX_SIMPLICES:
            raise CapExceeded(f"chain count exceeds cap {MAX_SIMPLICES}")
        last = chain[-1]
        later = common >> (last + 1) << (last + 1)  # drop the bits up to last
        for j in bit_indices(later):
            longer = chain + (j,)
            chains.append(longer)
            grow(longer, common & comparable[j])

    for i, mask in enumerate(comparable):
        chains.append((i,))
        grow((i,), mask)
    return SimplicialComplex(
        poset.carrier, [[poset.carrier[i] for i in c] for c in chains])


def boundary_columns(complex_, dim):
    """Boundary from dim-simplices to (dim-1)-simplices: one sparse column
    ``{face row: +-1}`` per dim-simplex, rows indexing the (dim-1)-simplices."""
    dims = complex_.by_dimension()
    faces = {s: i for i, s in enumerate(dims.get(dim - 1, ()))}
    return [{faces[s[:k] + s[k + 1:]]: (-1) ** k for k in range(len(s) if dim else 0)}
            for s in dims.get(dim, ())]


def column_rank(columns):
    """Exact rank over Q: reduce each column by the earlier one owning its
    lowest row until it owns a new lowest row or vanishes."""
    from fractions import Fraction

    owner = {}  # lowest row -> reduced column whose lowest row it is
    for column in columns:
        column = dict(column)
        while column:
            low = max(column)
            pivot = owner.get(low)
            if pivot is None:
                owner[low] = column
                break
            factor = Fraction(column[low], pivot[low])
            for row, value in pivot.items():
                value = column.get(row, 0) - factor * value
                if value:
                    column[row] = value
                else:
                    del column[row]
    return len(owner)


def betti(complex_, max_dim=None):
    """Rational Betti numbers b_d = n_d - rank d_d - rank d_{d+1} for
    d = 0..max_dim, each boundary rank taken once.  A complex under the
    simplex cap has dimension below it, so a larger max_dim is refused."""
    if max_dim is not None and max_dim < 0:
        raise InputError(f"max_dim {max_dim} is negative")
    if max_dim is not None and max_dim > MAX_SIMPLICES:
        raise CapExceeded(f"max_dim {max_dim} exceeds the cap {MAX_SIMPLICES}")
    if max_dim is None:
        max_dim = max(complex_.dimension, 0)
    dims = complex_.by_dimension()
    ranks = {d: column_rank(boundary_columns(complex_, d))
             for d in range(1, complex_.dimension + 1)}
    return [len(dims.get(d, ())) - ranks.get(d, 0) - ranks.get(d + 1, 0)
            for d in range(max_dim + 1)]


def euler_characteristic_consistent(poset, complex_):
    """P. Hall: chi(order complex) - 1 is mu(0, 1) of ``poset`` with a bottom
    and a top adjoined; mu comes from the down-set rows, not from chains."""
    down = poset.down()
    mu = {}  # element -> mu(0, element), filled along a linear extension
    for i in sorted(range(len(down)), key=lambda i: down[i].bit_count()):
        mu[i] = -1 - sum(mu[j] for j in bit_indices(down[i] & ~(1 << i)))
    chi = sum((-1) ** d * n for d, n in enumerate(complex_.f_vector()))
    return chi - 1 == -1 - sum(mu.values())


def boundary_squares_to_zero(complex_):
    """Check that d_{d-1} d_d vanishes by composing the sparse columns."""
    for d in range(2, complex_.dimension + 1):
        outer = boundary_columns(complex_, d - 1)
        for column in boundary_columns(complex_, d):
            image = {}
            for row, a in column.items():
                for face, b in outer[row].items():
                    image[face] = image.get(face, 0) + a * b
            if any(image.values()):
                return False
    return True
