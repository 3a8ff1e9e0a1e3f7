"""Test references that read a space only through its enumerated open family,
a seeded generator of topologies given by their opens, the hom-set
preorder found by searching every pair of morphisms, Green's orders on a
transformation monoid read off images, kernels and ranks, the functor-check
squares made through the quotient posets, the category law
check made one ``compose`` call at a time, the chains of a poset found
by testing every subset of its carrier, the natural transformations
out of a representable functor found by trying every candidate family and
checked equation by equation, the verdicts that hold by theorem on the
Yoneda families, on their images and on a closure, the decomposition
analysis made block by block and block pair by block pair, linear
systems written as rational rows, converted row by row, and the faces of an
arrangement found by walking its sign tree, solving each prefix that the
point of its parent does not realize."""

import itertools

from stratikit.arrangement import (MAX_FORMS, Face, _scaled, _sign_at, integer_row,
                                   sign_map)
from stratikit.category import YonedaReport
from stratikit.decomposition import DecompositionReport
from stratikit.errors import CapExceeded, StructureError
from stratikit.feasibility import solve
from stratikit.order import Preorder, _closure, bitmask, quotient_poset, union_of_rows
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
    """``FiniteCategory._check_laws`` through ``compose``: identity laws for
    each f, then h . (g . f) = (h . g) . f for each composable (f, g, h) in
    morphism order.  Raises what the first failure raises."""
    for f in cat.morphisms:
        x, y = cat.dom[f], cat.cod[f]
        if cat.compose(cat.identity[y], f) != f:
            raise StructureError(f"left identity law fails at {f!r}")
        if cat.compose(f, cat.identity[x]) != f:
            raise StructureError(f"right identity law fails at {f!r}")
    for f in cat.morphisms:
        for g in cat.morphisms:
            if cat.dom[g] != cat.cod[f]:
                continue
            for h in cat.morphisms:
                if cat.dom[h] != cat.cod[g]:
                    continue
                if cat.compose(h, cat.compose(g, f)) != cat.compose(cat.compose(h, g), f):
                    raise StructureError(f"associativity fails at ({h!r}, {g!r}, {f!r})")


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
    tau_pi = Preorder(d.labels, _closure([d.image_mask(u) for u in above]))
    tau_down = tau_pi.down()
    pi_open = all(union_of_rows(tau_pi.up, s) == s for s in map(d.image_mask, up))
    pi_closed = all(union_of_rows(tau_down, s) == s for s in map(d.image_mask, down))
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


def rational_system(nvars, equalities=(), inequalities=()):
    """The arguments of ``feasibility.solve`` for rational rows: each
    equality (coeffs, const) and inequality (coeffs, const, strict) becomes
    its primitive integer row."""
    return (nvars, [integer_row(coeffs, const) for coeffs, const in equalities],
            [(integer_row(coeffs, const), strict)
             for coeffs, const, strict in inequalities])


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
