"""Order complexes of finite posets and rational Betti numbers.

A finite poset has the homology of its order complex (McCord 1966).  Ranks
over Q come from a fraction-free reduction of the sparse boundary columns in
plain integers.
"""

from math import gcd

from .errors import CapExceeded, InputError, StructureError
from .order import bit_indices

MAX_SIMPLICES = 5000


class SimplicialComplex:
    """The order complex of a poset, built by ``order_complex``: its vertices
    and ``faces[d]``, the d-simplices as increasing tuples of vertex indices
    in lexicographic order.  Index order fixes the orientation used by the
    boundary columns; a simplex's place in ``faces[d]`` is its row in the
    boundary from dimension d + 1.
    """

    def __init__(self, vertices, faces):
        self.vertices = vertices
        self.faces = faces
        self._boundaries = None

    @property
    def simplices(self):
        return tuple(s for simplices in self.faces for s in simplices)

    @property
    def dimension(self):
        return len(self.faces) - 1

    def boundaries(self):
        """``boundary_columns(self, d)`` for d = 1..dimension, built on the
        first call and kept, like ``Preorder.down()``, as a tuple."""
        if self._boundaries is None:
            self._boundaries = tuple(boundary_columns(self, d)
                                     for d in range(1, len(self.faces)))
        return self._boundaries

    def f_vector(self):
        return [len(simplices) for simplices in self.faces]

    def simplex_labels(self):
        return [[self.vertices[i] for i in s] for simplices in self.faces for s in simplices]

    def __repr__(self):
        return f"SimplicialComplex({len(self.vertices)} vertices, f={self.f_vector()})"


def order_complex(poset):
    """All chains (totally ordered subsets) of a poset, as a complex.  They
    are counted first along a linear extension, a chain topped by j being j
    alone or j over a chain topped below j, and a count past the cap is
    refused before any chain is filed.  A depth-first search in index order
    then files each chain under its dimension and extends it by every later
    element comparable with all of it, so each dimension fills in
    lexicographic order.  It keeps its own stack, so depth is no limit."""
    if not poset.is_partial_order():
        raise StructureError("order complex requires a poset (antisymmetry failed)")
    down = poset.down()
    topped = [0] * len(down)  # chains by their top element
    count = 0
    for j in sorted(range(len(down)), key=lambda j: down[j].bit_count()):
        topped[j] = 1 + sum(topped[i] for i in bit_indices(down[j] & ~(1 << j)))
        count += topped[j]
        if count > MAX_SIMPLICES:
            raise CapExceeded(f"chain count exceeds cap {MAX_SIMPLICES}")
    comparable = [u | d for u, d in zip(poset.up, down)]
    faces = []
    everything = (1 << len(comparable)) - 1
    # (chain, elements comparable with all of it, extensions not yet tried)
    stack = [((), everything, everything)]
    while stack:
        chain, common, untried = stack.pop()
        if not untried:
            continue
        j = (untried & -untried).bit_length() - 1
        stack.append((chain, common, untried & (untried - 1)))  # after j's subtree
        chain += (j,)
        if len(chain) > len(faces):
            faces.append([])
        faces[len(chain) - 1].append(chain)
        common &= comparable[j]
        stack.append((chain, common, common >> (j + 1) << (j + 1)))
    return SimplicialComplex(poset.carrier, faces)


def boundary_columns(complex_, dim):
    """Boundary from dim-simplices to (dim-1)-simplices: one sparse column
    ``{face row: +-1}`` per dim-simplex, rows indexing the (dim-1)-simplices."""
    faces = complex_.faces
    if not 0 <= dim < len(faces):
        return []
    rows = {s: i for i, s in enumerate(faces[dim - 1])} if dim else {}
    return [{rows[s[:k] + s[k + 1:]]: (-1) ** k for k in range(len(s) if dim else 0)}
            for s in faces[dim]]


def column_rank(columns):
    """Exact rank over Q in integers: a column whose lowest row an earlier
    column owns becomes p * column - c * owner, p and c their entries in that
    row, divided by the gcd of its entries (Bareiss 1968).  Scaling by a
    nonzero integer keeps the span, so the rank is unchanged.  An explicit
    zero entry is no entry."""
    owner = {}  # lowest row -> reduced column whose lowest row it is
    for column in columns:
        if 0 in column.values():
            column = {row: value for row, value in column.items() if value}
        while column:
            low = max(column)
            pivot = owner.get(low)
            if pivot is None:
                owner[low] = column
                break
            p, c = pivot[low], column[low]
            column = {row: p * value for row, value in column.items()}
            for row, value in pivot.items():
                column[row] = column.get(row, 0) - c * value
                if not column[row]:
                    del column[row]
            g = gcd(*column.values())
            if g > 1:
                column = {row: value // g for row, value in column.items()}
    return len(owner)


def betti(complex_, max_dim=None):
    """Rational Betti numbers b_d = n_d - rank d_d - rank d_{d+1} for
    d = 0..max_dim, from the boundaries the complex keeps.  A complex under the
    simplex cap has dimension below it, so a larger max_dim is refused."""
    if max_dim is not None and max_dim < 0:
        raise InputError(f"max_dim {max_dim} is negative")
    if max_dim is not None and max_dim > MAX_SIMPLICES:
        raise CapExceeded(f"max_dim {max_dim} exceeds the cap {MAX_SIMPLICES}")
    if max_dim is None:
        max_dim = max(complex_.dimension, 0)
    sizes = complex_.f_vector()
    ranks = [0, *map(column_rank, complex_.boundaries()), 0]
    return [sizes[d] - ranks[d] - ranks[d + 1] if d < len(sizes) else 0
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
    """Check that d_{d-1} d_d vanishes by composing the sparse columns of the
    boundaries the complex keeps."""
    boundaries = complex_.boundaries()
    for outer, inner in zip(boundaries, boundaries[1:]):
        for column in inner:
            image = {}
            for row, a in column.items():
                for face, b in outer[row].items():
                    image[face] = image.get(face, 0) + a * b
            if any(image.values()):
                return False
    return True
