"""Test references that read a space only through its enumerated open family,
a seeded generator of topologies given by their opens, the hom-set
preorder found by searching every pair of morphisms, Green's orders on a
transformation monoid read off images, kernels and ranks, the functor-check
squares made through the quotient posets, the category law check made one
``compose`` call at a time with whether a law failure it names holds, a set
functor's composition check made pair by pair, the chains of a poset found
by testing every subset of its carrier, the natural transformations
out of a representable functor found by trying every candidate family and
checked equation by equation, the verdicts that hold by theorem on the
Yoneda families, on their images and on a closure, the decomposition
analysis made block by block and block pair by block pair, the projection's
openness and closedness compared point by point with the quotient rows, the
image of a subset and of the opens and closed sets under the projection, linear
systems written as rational rows, converted row by row, witnesses converted
to points of Fractions, the signs of an arrangement's forms evaluated in
Fractions, the faces of an arrangement found by walking its sign tree,
solving each prefix that the point of its parent does not realize, the
disagreements of ``arrangement check-ob`` at given face witnesses, a
transpose made set bit by set bit, and the classes of a preorder read off its
up-set and down-set rows, with the antisymmetry refusal and the quotient poset
built from them, its rows set bit by bit."""

import ast
import itertools
from fractions import Fraction
from math import gcd

from stratikit.arrangement import (MAX_FORMS, Face, closure_rows, face_poset,
                                   integer_row)
from stratikit.category import YonedaReport
from stratikit.decomposition import DecompositionReport
from stratikit.errors import CapExceeded, StructureError
from stratikit.feasibility import solve
from stratikit.order import (Preorder, _closure, bit_indices, bitmask, lowest_bit,
                             quotient_poset, union_of_rows)
from stratikit.topology import FiniteTopology


def closure_by_opens(t, mask):
    """Smallest closed superset: drop every open set disjoint from the subset."""
    gone = 0
    for o in t.opens:
        if o & mask == 0:
            gone |= o
    return t.full_mask & ~gone


def locally_closed_by_opens(t, mask):
    """True iff the subset is open inside its own closure."""
    c = closure_by_opens(t, mask)
    u = 0
    for o in t.opens:
        if o & c & ~mask == 0:
            u |= o
    return (c & u) == mask


def random_topology(rng, max_size=5, seeds=3):
    """Close a few random subsets under union and intersection; the family is
    a topology, and the constructor checks that it is."""
    n = rng.randint(1, max_size)
    labels = [f"p{i}" for i in range(n)]
    full = (1 << n) - 1
    family = {0, full}
    for _ in range(seeds):
        family.add(rng.randrange(1 << n))
    while True:
        fresh = set()
        for a, b in itertools.combinations(family, 2):
            fresh.add(a | b)
            fresh.add(a & b)
        if fresh <= family:
            break
        family |= fresh
    return FiniteTopology(labels, family)


def hom_preorder_by_search(cat, x, y, side):
    """The hom-set preorder and witnesses of ``category.hom_preorder_details``,
    found pair by pair: for each (g, f), the first s, t or (s, t) in hom order
    whose composite with g is f."""
    morphs = cat.hom(x, y)
    end_x = cat.hom(x, x)
    end_y = cat.hom(y, y)
    up = [0] * len(morphs)
    witnesses = {}
    for i, g in enumerate(morphs):
        for j, f in enumerate(morphs):
            found = None
            if side == "R":
                found = next(
                    ({"s": s} for s in end_x if cat.compose(g, s) == f), None)
            elif side == "L":
                found = next(
                    ({"t": t} for t in end_y if cat.compose(t, g) == f), None)
            else:
                found = next(
                    ({"s": s, "t": t}
                     for s in end_x for t in end_y
                     if cat.compose(t, cat.compose(g, s)) == f),
                    None)
            if found is not None:
                up[i] |= 1 << j
                witnesses[(g, f)] = found
    return Preorder(morphs, up), witnesses


def green_leq(g, f, side, blocks):
    """g <= f in the hom-set preorder of a monoid of self-maps that acts as the
    full transformation monoid on each of ``blocks`` (disjoint point lists
    that every map keeps), read off the value tuples alone (Green 1951;
    Howie, *Fundamentals of Semigroup Theory*, 1995, section 2.2).

    With g . s the map i -> g[s[i]], the order of the catalog's composition
    table: on side R, f = g . s iff the image of f lies in the image of g;
    on side L, f = t . g iff the kernel of g refines that of f; on side LR,
    f = t . g . s iff f has at most the rank of g.  In a product of monoids
    each side holds componentwise, so each is tested block by block.
    """
    for block in blocks:
        if side == "R" and not {f[i] for i in block} <= {g[i] for i in block}:
            return False
        if side == "L" and any(g[i] == g[j] and f[i] != f[j] for i in block for j in block):
            return False
        if side == "LR" and len({f[i] for i in block}) > len({g[i] for i in block}):
            return False
    return True


def monotone_by_leq(phi, source, target):
    """``order.is_monotone`` by ``leq`` on every related pair."""
    return all(target.leq(phi[a], phi[b])
               for a in source.carrier for b in source.carrier if source.leq(a, b))


def square_through_quotients(phi, source, target):
    """Whether the map ``phi`` of preorders is monotone, whether it descends
    to the quotient posets (each class has one image class), and whether the
    induced map of quotient posets is monotone, each by ``monotone_by_leq``."""
    strata_s, proj_s = quotient_poset(source)
    strata_t, proj_t = quotient_poset(target)
    images = {}
    for g in source.carrier:
        images.setdefault(proj_s[g], set()).add(proj_t[phi[g]])
    descends = all(len(cls) == 1 for cls in images.values())
    induced = {c: min(cls) for c, cls in images.items()}
    return (monotone_by_leq(phi, source, target), descends,
            descends and monotone_by_leq(induced, strata_s, strata_t))


def squares_through_quotients(cat, anchor, side):
    """``category.st_functor_check``'s squares the long way round: each
    morphism's hom-set map, built from ``compose``, through
    ``square_through_quotients`` on the searched hom-set preorders."""
    pre_side = "R" if side == "R-covariant" else "L"
    pre = {obj: hom_preorder_by_search(
        cat, *((anchor, obj) if pre_side == "R" else (obj, anchor)), pre_side)[0]
        for obj in cat.objects}
    squares = {}
    for f in cat.morphisms:
        # post-composition with f on side R, pre-composition on side L
        src, tgt = (cat.dom[f], cat.cod[f]) if pre_side == "R" else (cat.cod[f], cat.dom[f])
        phi = {g: cat.compose(f, g) if pre_side == "R" else cat.compose(g, f)
               for g in pre[src].carrier}
        squares[f] = square_through_quotients(phi, pre[src], pre[tgt])
    return squares


def check_laws_by_compose(cat):
    """``FiniteCategory._check_laws`` through ``compose``: for each f in
    morphism order, f . e for every e into its domain, then the identity
    laws at f; then h . (g . f) = (h . g) . f for each composable (h, g, f),
    h outermost, in morphism order.  Raises what the first failure raises."""
    for f in cat.morphisms:
        x, y = cat.dom[f], cat.cod[f]
        for e in cat.morphisms:
            if cat.cod[e] == x:
                cat.compose(f, e)
        if cat.compose(cat.identity[y], f) != f:
            raise StructureError(f"left identity law fails at {f!r}")
        if cat.compose(f, cat.identity[x]) != f:
            raise StructureError(f"right identity law fails at {f!r}")
    for h in cat.morphisms:
        for g in cat.morphisms:
            if cat.dom[h] != cat.cod[g]:
                continue
            for f in cat.morphisms:
                if cat.dom[g] != cat.cod[f]:
                    continue
                if cat.compose(h, cat.compose(g, f)) != cat.compose(cat.compose(h, g), f):
                    raise StructureError(f"associativity fails at ({h!r}, {g!r}, {f!r})")


def law_failure_holds(cat, message):
    """Whether the failure a category law refusal names holds in ``cat``'s
    table, read one ``compose`` call at a time."""
    kind = next(k for k in ("composition table misses composable pair",
                            "left identity law fails at", "right identity law fails at",
                            "associativity fails at") if message.startswith(k + " "))
    args = ast.literal_eval(message[len(kind) + 1:])
    if kind == "composition table misses composable pair":
        g, f = args
        try:
            cat.compose(g, f)
        except StructureError:
            return cat.dom[g] == cat.cod[f]
        return False
    if kind in ("left identity law fails at", "right identity law fails at"):
        f = args
        x, y = cat.dom[f], cat.cod[f]
        side = (cat.identity[y], f) if kind.startswith("left") else (f, cat.identity[x])
        return cat.compose(*side) != f
    assert kind == "associativity fails at", message
    h, g, f = args
    return cat.compose(h, cat.compose(g, f)) != cat.compose(cat.compose(h, g), f)


def functor_composition_by_pairs(cat, variance, maps):
    """``SetFunctor``'s composition check as a loop over the composable pairs
    (g, f), g outermost, in morphism order: the message and path of the first
    pair at which maps[g . f] is not maps[g] after maps[f] (before it, if
    contravariant), or None when every pair composes."""
    for g in cat.morphisms:
        for f in cat.morphisms:
            if cat.dom[g] != cat.cod[f]:
                continue
            h = cat.compose(g, f)
            if variance == "covariant":
                composed = {v: maps[g][maps[f][v]] for v in maps[f]}
            else:
                composed = {v: maps[f][maps[g][v]] for v in maps[g]}
            if composed != maps[h]:
                return (f"functor does not respect composition at ({g!r}, {f!r})",
                        f"on_morphisms.{h}")
    return None


def chains_by_search(poset):
    """Every nonempty chain of ``poset`` as an increasing index tuple, listed
    by dimension, each dimension in lexicographic order: the subsets of the
    carrier, by size, whose elements are pairwise comparable."""
    comparable = [u | d for u, d in zip(poset.up, poset.down())]
    faces = []
    for size in range(1, len(poset.carrier) + 1):
        chains = [c for c in itertools.combinations(range(len(poset.carrier)), size)
                  if all(comparable[i] >> j & 1 for i, j in itertools.combinations(c, 2))]
        if not chains:
            break
        faces.append(chains)
    return faces


def yoneda_by_enumeration(cat, functor, anchor):
    """``category.yoneda_natural_transformations`` by trying every one of the
    prod_x |F(x)|^|hom(x, anchor)| candidate families, object by object, and
    keeping those natural over every hom-set between the objects chosen so
    far."""
    objs = list(cat.objects)

    def components(x):
        h = cat.hom(x, anchor)
        fx = functor.on_objects[x]
        if not h:
            yield {}
            return
        if not fx:
            return
        for combo in itertools.product(fx, repeat=len(h)):
            yield dict(zip(h, combo))

    def natural_between(tau, w, z):
        # contravariant naturality over g: w -> z, pulled back along g
        for g in cat.hom(w, z):
            for h in cat.hom(z, anchor):
                if tau[w][cat.compose(h, g)] != functor.on_morphisms[g][tau[z][h]]:
                    return False
        return True

    results = []

    def extend(pos, tau):
        if pos == len(objs):
            results.append({x: dict(c) for x, c in tau.items()})
            return
        x = objs[pos]
        for comp in components(x):
            tau[x] = comp
            if all(natural_between(tau, x, y) and natural_between(tau, y, x)
                   for y in objs[: pos + 1]):
                extend(pos + 1, tau)
            del tau[x]

    extend(0, {})
    return results, YonedaReport(transformation_count=len(results),
                                 target_size=len(functor.on_objects[anchor]))


def natural_by_equations(cat, functor, anchor, families):
    """The families, the k-th paired with the k-th element u of F(anchor), that
    take u at the anchor's identity and satisfy every naturality equation
    tau(h.g) = F(g)(tau(h)), for h: z -> anchor and g: w -> z, checked one
    by one.  On a functor every family of
    ``category.yoneda_natural_transformations`` passes (the Yoneda lemma);
    on value tables that break a functor law, only the natural
    transformations pass."""
    ident = cat.identity[anchor]
    into = [f for x in cat.objects for f in cat.hom(x, anchor)]
    equations = [(h, g, cat.compose(h, g)) for h in into
                 for w in cat.objects for g in cat.hom(w, cat.dom[h])]
    kept = []
    for u, family in zip(functor.on_objects[anchor], families, strict=True):
        tau = {f: v for component in family.values() for f, v in component.items()}
        if tau[ident] == u and all(tau[hg] == functor.on_morphisms[g][tau[h]]
                                   for h, g, hg in equations):
            kept.append(family)
    return kept


def yoneda_bijection_holds(cat, functor, anchor, transformations):
    """Evaluation at the anchor's identity is a bijection from the
    transformations onto F(anchor): no value twice, and every element hit."""
    ident = cat.identity[anchor]
    values = [tau[anchor][ident] for tau in transformations]
    return len(values) == len(set(values)) and set(values) == set(functor.on_objects[anchor])


def yoneda_inverse_holds(cat, functor, anchor, transformations):
    """The inverse of the evaluation: for each alpha in F(anchor), the
    transformation whose value at the identity is alpha is the family
    f -> F(f)(alpha)."""
    ident = cat.identity[anchor]
    by_value = {tau[anchor][ident]: tau for tau in transformations}
    return all(by_value.get(alpha) == {x: {f: functor.on_morphisms[f][alpha]
                                           for f in cat.hom(x, anchor)}
                                       for x in cat.objects}
               for alpha in functor.on_objects[anchor])


def images_natural(cat, functor, anchor, images):
    """The image family of ``category.yoneda_image_report`` is natural: the
    image of f: y -> anchor pulled back along each g: x -> y is the image of
    f.g."""
    return all(images[cat.dom[g]][cat.compose(f, g)]
               == frozenset(functor.on_morphisms[g][v] for v in images[cat.cod[g]][f])
               for g in cat.morphisms for f in cat.hom(cat.cod[g], anchor))


def images_reverse_left_order(cat, anchor, images):
    """g <= f in the left preorder on hom(x, anchor), found by search, puts
    the image of f inside the image of g, for every object x."""
    return all(images[x][f] <= images[x][g]
               for x in cat.objects
               for g, f in hom_preorder_by_search(cat, x, anchor, "L")[0].pairs())


def closure_extensive_and_idempotent(t, subset, closure):
    """The closure (a label list) holds the subset and is closed, by
    ``closure_by_opens`` over the enumerated open family."""
    s, c = t.mask(subset), t.mask(closure)
    return s & ~c == 0 and closure_by_opens(t, c) == c


def image_mask(d, mask):
    """Mask over the block labels of the blocks of ``d`` meeting the subset."""
    return bitmask(k for k, b in enumerate(d.blocks) if b & mask)


def analyze_by_blocks(d):
    """``decomposition.analyze`` from the rows of each block: images of point
    up-sets and down-sets one block mask at a time, and the closure-order
    rows and the frontier condition from every pair of blocks.

    Opens are unions of point up-sets, closed sets unions of point down-sets,
    and images commute with unions: the projection is open (closed) iff the
    image of every point up-set (down-set) is a quotient up-set (down-set).
    A block is locally closed iff it is the meet of its up-set and down-set.
    In the closure order, lambda <= mu iff the lambda block lies inside the
    mu block's down-set, its closure; the ``Preorder`` constructor asserts
    transitivity rather than assuming it.
    """
    spec = d.space.specialization_preorder()
    up, down = spec.up, spec.down()
    above = [union_of_rows(up, b) for b in d.blocks]
    below = [union_of_rows(down, b) for b in d.blocks]
    # the minimal open around block a closes {a} under a -> every block
    # meeting the up-set of a
    tau_pi = Preorder(d.labels, _closure([image_mask(d, u) for u in above]))
    tau_down = tau_pi.down()
    pi_open = all(union_of_rows(tau_pi.up, s) == s for s in [image_mask(d, u) for u in up])
    pi_closed = all(union_of_rows(tau_down, s) == s for s in [image_mask(d, u) for u in down])
    star = Preorder(d.labels, [bitmask(m for m, c in enumerate(below) if b & ~c == 0)
                               for b in d.blocks])
    return DecompositionReport(
        pi_open=pi_open,
        pi_closed=pi_closed,
        star_preorder=star,
        tau_pi_preorder=tau_pi,
        tamaki_agrees=(star == tau_pi),
        blocks_locally_closed={
            lab: a & c == b
            for lab, b, a, c in zip(d.labels, d.blocks, above, below)
        },
        # a block meeting the closure of another lies inside it
        frontier_condition=all(b & c in (0, b) for b in d.blocks for c in below),
        quotient_is_poset=tau_pi.is_partial_order(),
    )


def direct_image_opens(d):
    """The family {projection(G) : G open}, as masks over the block labels."""
    return sorted({image_mask(d, g) for g in d.space.opens})


def direct_image_closeds(d):
    """The family {projection(F) : F closed}, as masks over the block labels."""
    return sorted({image_mask(d, d.space.full_mask & ~g) for g in d.space.opens})


def open_closed_by_points(d):
    """(projection open, projection closed) point by point: the blocks meeting
    the up-set (down-set) of each point are the quotient up-set (down-set) of
    its block.  Opens are unions of point up-sets, closed sets unions of
    point down-sets, and images commute with unions, so these are the
    definitions on the minimal opens and the point closures; the quotient
    down-sets are the transposed quotient rows."""
    spec = d.space.specialization_preorder()
    up, down = spec.up, spec.down()
    tau_pi = Preorder(d.labels, _closure([image_mask(d, union_of_rows(up, b))
                                          for b in d.blocks]))
    tau_down = tau_pi.down()
    points = [(m, x) for m, b in enumerate(d.blocks) for x in bit_indices(b)]
    return (all(image_mask(d, up[x]) == tau_pi.up[m] for m, x in points),
            all(image_mask(d, down[x]) == tau_down[m] for m, x in points))


def rational_system(nvars, equalities=(), inequalities=()):
    """The arguments of ``feasibility.solve`` for rational rows: each
    equality (coeffs, const) and inequality (coeffs, const, strict) becomes
    its primitive integer row."""
    return (nvars, [integer_row(coeffs, const) for coeffs, const in equalities],
            [(integer_row(coeffs, const), strict)
             for coeffs, const, strict in inequalities])


def as_fractions(witness):
    """A witness (nums, d) of ``feasibility.solve`` as its point of Fractions,
    for the oracles that evaluate rows in rational arithmetic."""
    nums, d = witness
    return tuple(Fraction(v, d) for v in nums)


def lowest_terms(witness):
    """The invariant of a witness (nums, d): integer numerators over a
    denominator d > 0 that is their least common one."""
    nums, d = witness
    return (type(d) is int and d > 0 and all(type(v) is int for v in nums)
            and gcd(d, *nums) == 1)


def rational_sign(row, point):
    """Sign of an integer row (c, const) at a point of Fractions: const + c . x
    evaluated in Fraction arithmetic."""
    value = row[-1] + sum(Fraction(c) * x for c, x in zip(row, point))
    return (value > 0) - (value < 0)


def rational_signs(arr, point):
    """Sign of every form of ``arr`` at a point of Fractions."""
    return tuple(rational_sign(row, point) for row in arr.rows)


def sign_tree_faces(arr):
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
        at_point = None if point is None else rational_sign(rows[i], point)
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
                extend(candidate, *child, as_fractions(w))
                continue
            if rational_signs(arr, as_fractions(w)) != candidate:
                raise AssertionError(f"witness does not reproduce signs {candidate}")
            faces.append(Face(candidate, w))

    extend((), [], [], None)
    return faces


def check_ob_disagreements(arr, faces):
    """The disagreements of ``arrangement check-ob`` had it read its points
    from ``faces``: given ``enumerate_faces(arr)``, the check as it ran on
    solved witnesses."""
    poset = face_poset(arr, faces)
    oracle = closure_rows(arr, faces)
    return [[faces[i].label, faces[j].label]
            for i, (row, expected) in enumerate(zip(poset.up, oracle))
            for j in bit_indices(row ^ expected)]


def transpose_by_bits(rows, width):
    """``order.transpose`` set bit by set bit: bit i of row j iff bit j of
    row i.  Column j is kept as one byte per row, "1" where it has a bit."""
    columns = [bytearray(b"0" * len(rows)) for _ in range(width)]  # byte i is row i
    for i, row in enumerate(rows):
        for j in bit_indices(row):
            columns[j][i] = ord("1")
    return [int(column[::-1] or b"0", 2) for column in columns]


def classes_by_up_and_down(up):
    """The classes of the preorder with bitset rows ``up``, each as its
    ascending indices, in order of first occurrence: the class of i is
    up[i] & down[i], with the down-sets from ``transpose_by_bits``."""
    down = transpose_by_bits(up, len(up))
    classes, seen = [], 0
    for i, (u, d) in enumerate(zip(up, down)):
        if not seen >> i & 1:
            classes.append(bit_indices(u & d))
            seen |= u & d
    return classes


def antisymmetry_pair_by_up_and_down(up):
    """The pair (i, j) that ``Poset`` names when it refuses the rows ``up``:
    the first i whose up-set and down-set share more than i, and the lowest
    j != i they share; None for a poset."""
    for i, (u, d) in enumerate(zip(up, transpose_by_bits(up, len(up)))):
        if u & d != 1 << i:
            return i, lowest_bit(u & d & ~(1 << i))
    return None


def quotient_by_up_and_down(p):
    """``quotient_poset``'s class labels, class rows and projection, from
    ``classes_by_up_and_down``: classes in order of first occurrence, each
    named "[m]" for its least member m, and the row of a class the classes
    of the up-set of its first member."""
    classes = classes_by_up_and_down(p.up)
    labels = ["[%s]" % min(p.carrier[j] for j in cls) for cls in classes]
    label_of = {j: labels[c] for c, cls in enumerate(classes) for j in cls}
    return (labels, class_rows_by_bits(p.up, classes),
            {x: label_of[i] for i, x in enumerate(p.carrier)})


def class_rows_by_bits(up, classes):
    """The rows of the quotient of ``up`` by ``classes``, set bit by set bit:
    the row of a class holds the class of each member of its first member's
    up-set."""
    class_of = {j: c for c, cls in enumerate(classes) for j in cls}
    return [bitmask(class_of[j] for j in bit_indices(up[cls[0]])) for cls in classes]
