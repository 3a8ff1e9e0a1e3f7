"""Finite categories with explicit composition tables: hom-set preorders by
pre/post-composition witnesses, their stratified structures, the induced
functors into stratified spaces, and Yoneda machinery.

Only ``hom_stratified`` needs ``decomposition`` and ``topology``; it imports
them when called, so the other hom-set commands never load them."""

from collections import namedtuple

from .errors import CapExceeded, InputError, StructureError
from .order import Preorder, bitmask, is_monotone, quotient_poset

MAX_MORPHISMS = 64

SIDES = ("R", "L", "LR")


class FiniteCategory:
    """Objects, finite hom-sets, identities, and a total composition table.

    Morphism labels are globally unique.  Identity laws, associativity, and
    the typing of every composite are checked exhaustively at construction.
    """

    def __init__(self, objects, homs, identities, compose):
        objects = tuple(str(x) for x in objects)
        if len(set(objects)) != len(objects):
            raise InputError("duplicate object labels", path="objects")
        self.objects = objects
        obj_set = set(objects)

        for x, y in homs:
            if x not in obj_set:
                raise InputError(f"unknown object {x!r} in hom key")
            if y not in obj_set:
                raise InputError(f"unknown object {y!r} in hom key")
        # global morphism order follows object-pair order, not hom-key order
        self.hom_table = {}
        self.dom = {}
        self.cod = {}
        order = []
        for x in objects:
            for y in objects:
                ms = tuple(str(m) for m in homs.get((x, y), ()))
                self.hom_table[(x, y)] = ms
                for m in ms:
                    if m in self.dom:
                        raise InputError(f"morphism label {m!r} used twice")
                    self.dom[m] = x
                    self.cod[m] = y
                    order.append(m)
        self.morphisms = tuple(order)
        if len(self.morphisms) > MAX_MORPHISMS:
            raise CapExceeded(
                f"category has {len(self.morphisms)} morphisms, cap is {MAX_MORPHISMS}")

        for x in identities:
            if x not in obj_set:
                raise InputError(f"identity of unknown object {x!r}", path=f"identities.{x}")
        self.identity = {}
        for x in objects:
            if x not in identities:
                raise InputError(f"missing identity for object {x!r}", path="identities")
            i = identities[x]
            if i not in self.hom_table[(x, x)]:
                raise StructureError(f"identity {i!r} is not an endomorphism of {x!r}")
            self.identity[x] = i

        self._compose = {}
        for i, (g, f, h) in enumerate(compose):
            for m in (g, f, h):
                if m not in self.dom:
                    raise InputError(f"unknown morphism {m!r} in composition table",
                                     path=f"compose[{i}]")
            if self.cod[f] != self.dom[g]:
                raise StructureError(f"pair ({g!r}, {f!r}) is not composable")
            if (g, f) in self._compose:
                raise InputError(f"duplicate composition entry for ({g!r}, {f!r})",
                                 path=f"compose[{i}]")
            if self.dom[h] != self.dom[f] or self.cod[h] != self.cod[g]:
                raise StructureError(
                    f"composite {h!r} of ({g!r}, {f!r}) lands in the wrong hom-set")
            self._compose[(g, f)] = h
        self._check_laws()

    def _check_laws(self):
        """Identity laws for each f, then associativity for each composable
        (f, g, h), in morphism order.  Raises at the first law that fails or
        the first composable pair the table misses."""
        for f in self.morphisms:
            x, y = self.dom[f], self.cod[f]
            if self.compose(self.identity[y], f) != f:
                raise StructureError(f"left identity law fails at {f!r}")
            if self.compose(f, self.identity[x]) != f:
                raise StructureError(f"right identity law fails at {f!r}")
        after = {m: {} for m in self.morphisms}  # after[g][f] = g . f
        for (g, f), gf in self._compose.items():
            after[g][f] = gf
        leaving = {x: [] for x in self.objects}
        for m in self.morphisms:
            leaving[self.dom[m]].append(m)
        for f in self.morphisms:
            for g in leaving[self.cod[f]]:
                gf = after[g].get(f)
                for h in leaving[self.cod[g]]:
                    row = after[h]
                    hg, left = row.get(g), row.get(gf)
                    if left is None or hg is None or after[hg].get(f) != left:
                        # compose raises at the first missing pair, in the
                        # order h . (g . f) = (h . g) . f reads them
                        self.compose(h, self.compose(g, f))
                        self.compose(self.compose(h, g), f)
                        raise StructureError(
                            f"associativity fails at ({h!r}, {g!r}, {f!r})")

    def hom(self, x, y):
        if x not in self.identity:
            raise InputError(f"unknown object {x!r}")
        if y not in self.identity:
            raise InputError(f"unknown object {y!r}")
        return self.hom_table[(x, y)]

    def compose(self, g, f):
        """g after f."""
        try:
            return self._compose[(g, f)]
        except KeyError:
            raise StructureError(
                f"composition table misses composable pair ({g!r}, {f!r})") from None

    def composable_pairs(self):
        return [
            (g, f)
            for g in self.morphisms
            for f in self.morphisms
            if self.dom[g] == self.cod[f]
        ]

    def __repr__(self):
        return (f"FiniteCategory({len(self.objects)} objects, "
                f"{len(self.morphisms)} morphisms)")


def hom_preorder_details(cat, x, y, side):
    """The hom-set preorder for one side, plus the witnesses found.

    side R:  g <= f  iff  f = g . s  for some endomorphism s of the source;
    side L:  g <= f  iff  f = t . g  for some endomorphism t of the target;
    side LR: g <= f  iff  f = t . g . s, that is R followed by L.

    The witness of g <= f is the first s (or t) in hom order that works; on
    side LR it is the first s for which some t works, with the first such t.
    Each composite g . s and t . g is formed once.
    """
    if side not in SIDES:
        raise InputError(f"side must be one of {SIDES}, got {side!r}")
    morphs = cat.hom(x, y)
    end_x, end_y = cat.hom(x, x), cat.hom(y, y)
    # right[g] maps each g.s to its first s, left[g] each t.g to its first t
    right = {g: {} for g in morphs} if side != "L" else {}
    for g, row in right.items():
        for s in end_x:
            row.setdefault(cat.compose(g, s), {"s": s})
    left = {g: {} for g in morphs} if side != "R" else {}
    for g, row in left.items():
        for t in end_y:
            row.setdefault(cat.compose(t, g), {"t": t})
    found = right if side == "R" else left
    if side == "LR":  # right[g] lists each g.s in the order of its first s
        found = {g: {} for g in morphs}
        for g, row in found.items():
            for h, ws in right[g].items():
                for f, wt in left[h].items():
                    if f not in row:
                        row[f] = {**ws, **wt}
    index = {m: i for i, m in enumerate(morphs)}
    # Preorder checks that the rows are reflexive and transitive
    pre = Preorder(morphs, [bitmask(map(index.get, found[g])) for g in morphs])
    return pre, {(g, f): w for g in morphs for f, w in found[g].items()}


def hom_preorder(cat, x, y, side):
    return hom_preorder_details(cat, x, y, side)[0]


class HomStructureReport(namedtuple(
        "HomStructureReport",
        "side source target preorder witnesses projection_open "
        "fibers_locally_closed order_matches_closure")):
    __slots__ = ()

    def all_hold(self):
        return (self.projection_open
                and all(self.fibers_locally_closed.values())
                and self.order_matches_closure)


def hom_stratified(cat, x, y, side):
    """The poset-stratified structure on hom(x, y) with its structure report:
    the projection is open, fibers are locally closed, and the quotient order
    coincides with closure inclusion of fibers.

    The fibers are the blocks of a decomposition of hom(x, y), so ``analyze``
    decides all three: the projection to the strata is open iff it is open to
    the quotient and the quotient order is the strata order.
    """
    from .decomposition import Decomposition, analyze
    from .topology import FiniteTopology, PosetStratifiedSpace

    pre, witnesses = hom_preorder_details(cat, x, y, side)
    if not pre.carrier:
        raise InputError(f"hom({x!r}, {y!r}) is empty; nothing to stratify")
    space = FiniteTopology.from_preorder(pre)
    strata, projection = quotient_poset(pre)
    pss = PosetStratifiedSpace(space, strata, projection)
    rep = analyze(Decomposition(
        space, [pss.fiber_mask(c) for c in strata.carrier], strata.carrier))
    report = HomStructureReport(
        side=side, source=x, target=y, preorder=pre, witnesses=witnesses,
        projection_open=rep.pi_open and rep.tau_pi_preorder == strata,
        fibers_locally_closed=rep.blocks_locally_closed,
        order_matches_closure=rep.star_preorder == strata)
    return pss, report


def _translation(cat, anchor, side, f):
    """The hom-set map induced by a morphism f under one of the two functors."""
    if side == "R-covariant":
        # hom(anchor, dom f) -> hom(anchor, cod f), post-composition with f
        src = cat.hom(anchor, cat.dom[f])
        return {g: cat.compose(f, g) for g in src}
    # hom(cod f, anchor) -> hom(dom f, anchor), pre-composition with f
    src = cat.hom(cat.cod[f], anchor)
    return {g: cat.compose(g, f) for g in src}


def st_functor_check(cat, anchor, side):
    """Verify the stratified-space functor induced by an anchor object: one
    square per morphism, as a dict from each morphism, in morphism order, to
    its verdict.

    The square is the translation map's monotonicity on the hom-set
    preorders: a map of preorders is monotone iff it sends each class
    a <= b <= a into one class and the induced map of quotient posets is
    monotone, since the quotient reflects the order.  The functor laws need
    no check here: ``FiniteCategory`` proved identity and associativity on
    load, and the translations inherit them.
    """
    if side not in ("R-covariant", "L-contravariant"):
        raise InputError("side must be 'R-covariant' or 'L-contravariant'")
    cat.hom(anchor, anchor)
    pre_side = "R" if side == "R-covariant" else "L"

    pre = {}
    for obj in cat.objects:
        pair = (anchor, obj) if pre_side == "R" else (obj, anchor)
        pre[obj] = hom_preorder(cat, *pair, pre_side)

    squares = {}
    for f in cat.morphisms:
        src_obj, tgt_obj = cat.dom[f], cat.cod[f]
        if pre_side == "L":
            src_obj, tgt_obj = tgt_obj, src_obj
        squares[f] = is_monotone(_translation(cat, anchor, side, f),
                                 pre[src_obj], pre[tgt_obj])
    return squares


class SetFunctor:
    """A functor into finite sets given by explicit value tables."""

    def __init__(self, cat, variance, on_objects, on_morphisms):
        if variance not in ("covariant", "contravariant"):
            raise InputError("variance must be 'covariant' or 'contravariant'",
                             path="variance")
        self.cat = cat
        self.variance = variance
        self.on_objects = {
            x: tuple(str(v) for v in vs) for x, vs in on_objects.items()
        }
        for x in self.on_objects:
            if x not in cat.identity:
                raise InputError(f"functor names unknown object {x!r}", path=f"on_objects.{x}")
        for x in cat.objects:
            if x not in self.on_objects:
                raise InputError(f"functor misses object {x!r}", path="on_objects")
            vals = self.on_objects[x]
            if len(set(vals)) != len(vals):
                raise InputError(f"duplicate elements in value set of {x!r}",
                                 path=f"on_objects.{x}")
        self.on_morphisms = {m: dict(fn) for m, fn in on_morphisms.items()}
        for m in self.on_morphisms:
            if m not in cat.dom:
                raise InputError(f"functor names unknown morphism {m!r}",
                                 path=f"on_morphisms.{m}")
        self._check()

    def source_object(self, m):
        return self.cat.dom[m] if self.variance == "covariant" else self.cat.cod[m]

    def target_object(self, m):
        return self.cat.cod[m] if self.variance == "covariant" else self.cat.dom[m]

    def _check(self):
        cat = self.cat
        for m in cat.morphisms:
            if m not in self.on_morphisms:
                raise InputError(f"functor misses morphism {m!r}", path="on_morphisms")
            fn = self.on_morphisms[m]
            src = set(self.on_objects[self.source_object(m)])
            tgt = set(self.on_objects[self.target_object(m)])
            if set(fn) != src:
                raise StructureError(f"value map of {m!r} is not total on its source set")
            if not set(fn.values()) <= tgt:
                raise StructureError(f"value map of {m!r} escapes its target set")
        for x in cat.objects:
            fn = self.on_morphisms[cat.identity[x]]
            if any(fn[v] != v for v in fn):
                raise StructureError(f"functor does not preserve the identity of {x!r}")
        for g, f in cat.composable_pairs():
            gf = self.on_morphisms[cat.compose(g, f)]
            fg, fF = self.on_morphisms[g], self.on_morphisms[f]
            if self.variance == "covariant":
                composed = {v: fg[fF[v]] for v in fF}
            else:
                composed = {v: fF[fg[v]] for v in fg}
            if composed != gf:
                raise StructureError(
                    f"functor does not respect composition at ({g!r}, {f!r})")

    def apply(self, m, value):
        return self.on_morphisms[m][value]

    def __repr__(self):
        sizes = {x: len(v) for x, v in self.on_objects.items()}
        return f"SetFunctor({self.variance}, sizes={sizes})"


YonedaReport = namedtuple("YonedaReport", "transformation_count target_size")


def yoneda_natural_transformations(cat, functor, anchor):
    """Every natural transformation hom(-, anchor) -> F, one candidate per
    element of F(anchor), with their count beside |F(anchor)|.

    Naturality over g: w -> z says tau(h.g) = F(g)(tau(h)) for every
    h: z -> anchor.  At h = id it reads tau(g) = F(g)(tau(id)), so a natural
    tau is the family tau_u with u = tau(id): tau_u(id) = u and
    tau_u(f) = F(f)(u) for every other f into the anchor.  Each tau_u, in the
    order of F(anchor), is kept iff it satisfies every equation.  On a
    functor, which ``SetFunctor`` checks on construction, every tau_u is kept
    (the Yoneda lemma), so the count equals |F(anchor)|.

    Each transformation is a dict object -> (dict morphism -> element).
    """
    if functor.variance != "contravariant":
        raise InputError("the representable side here is contravariant; pass a contravariant functor")
    cat.hom(anchor, anchor)
    ident = cat.identity[anchor]
    into = [f for x in cat.objects for f in cat.hom(x, anchor)]
    equations = [(h, g, cat.compose(h, g)) for h in into
                 for w in cat.objects for g in cat.hom(w, cat.dom[h])]
    target = functor.on_objects[anchor]
    results = []
    for u in target:
        tau = {f: functor.apply(f, u) for f in into}
        tau[ident] = u
        if all(tau[hg] == functor.apply(g, tau[h]) for h, g, hg in equations):
            results.append({x: {f: tau[f] for f in cat.hom(x, anchor)}
                            for x in cat.objects})
    return results, YonedaReport(transformation_count=len(results), target_size=len(target))


IMAGE_ORDER_NOTE = (
    "order direction: computed from the witness definition, g <=_L f (f = t.g) "
    "forces image(f) to be a subset of image(g); the commonly stated direction "
    "with the roles of f and g exchanged does not follow from that definition "
    "and is reported here as a discrepancy rather than asserted")


def yoneda_image(cat, functor, anchor, x):
    """image map on hom(x, anchor): f maps to { F(f)(a) : a in F(anchor) }."""
    if functor.variance != "contravariant":
        raise InputError("yoneda_image expects a contravariant functor")
    target = functor.on_objects[anchor]
    return {
        f: frozenset(functor.apply(f, a) for a in target)
        for f in cat.hom(x, anchor)
    }


def yoneda_image_report(cat, functor, anchor):
    """The image map on every hom(x, anchor), as a dict from each object x.
    On a functor the family is natural and the left preorder makes it
    inclusion-reversing (see ``IMAGE_ORDER_NOTE``), so neither is checked
    here."""
    return {x: yoneda_image(cat, functor, anchor, x) for x in cat.objects}
