"""Order complexes of finite posets and rational Betti numbers."""

from __future__ import annotations

from fractions import Fraction

from .errors import CapExceeded, InputError, StructureError
from .order import bit_indices

MAX_SIMPLICES = 5000


class SimplicialComplex:
    """Vertices plus a downward-closed family of nonempty simplices.

    Simplices are tuples of vertex indices in increasing carrier order; that
    order also fixes the orientation used by the boundary matrices.
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


def boundary_matrix(complex_, dim):
    """Boundary from dim-simplices to (dim-1)-simplices over the rationals."""
    dims = complex_.by_dimension()
    rows = dims.get(dim - 1, [])
    cols = dims.get(dim, [])
    row_index = {s: i for i, s in enumerate(rows)}
    mat = [[Fraction(0)] * len(cols) for _ in rows]
    for j, s in enumerate(cols):
        for drop in range(len(s)):
            face = s[:drop] + s[drop + 1:]
            if face:
                mat[row_index[face]][j] = Fraction(-1) ** drop
    return mat


def matrix_rank(mat):
    """Exact rank by fraction-free-ish Gaussian elimination over the rationals."""
    if not mat or not mat[0]:
        return 0
    rows = [list(r) for r in mat]
    nrows, ncols = len(rows), len(rows[0])
    rank = 0
    for col in range(ncols):
        pivot = next((r for r in range(rank, nrows) if rows[r][col] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        pv = rows[rank][col]
        for r in range(rank + 1, nrows):
            if rows[r][col] != 0:
                factor = rows[r][col] / pv
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
        if rank == nrows:
            break
    return rank


def betti(complex_, max_dim=None):
    """Rational Betti numbers b_0..b_max_dim from boundary ranks."""
    if max_dim is None:
        max_dim = max(complex_.dimension, 0)
    dims = complex_.by_dimension()
    ranks = {}

    def rank_of(d):
        if d not in ranks:
            ranks[d] = matrix_rank(boundary_matrix(complex_, d))
        return ranks[d]

    out = []
    for d in range(max_dim + 1):
        n_d = len(dims.get(d, ()))
        out.append(n_d - rank_of(d) - rank_of(d + 1))
    return out


def euler_characteristic_consistent(complex_):
    """Check sum of (-1)^i b_i equals the alternating simplex count."""
    f = complex_.f_vector()
    b = betti(complex_, complex_.dimension if complex_.dimension >= 0 else 0)
    from_f = sum((-1) ** i * c for i, c in enumerate(f))
    from_b = sum((-1) ** i * c for i, c in enumerate(b))
    return from_f == from_b


def boundary_squares_to_zero(complex_):
    for d in range(1, complex_.dimension + 1):
        outer = boundary_matrix(complex_, d)
        inner = boundary_matrix(complex_, d + 1)
        if not inner or not inner[0] or not outer:
            continue
        for j in range(len(inner[0])):
            col = [inner[r][j] for r in range(len(inner))]
            for i in range(len(outer)):
                if sum(outer[i][k] * col[k] for k in range(len(col))) != 0:
                    return False
    return True
