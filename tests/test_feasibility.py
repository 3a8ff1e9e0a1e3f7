import hashlib
import math
import random
from fractions import Fraction

import pytest

from stratikit import feasibility
from stratikit.arrangement import integer_row
from stratikit.errors import CapExceeded
from stratikit.feasibility import solve

from reference import as_fractions, lowest_terms, rational_system


def feasible(system):
    return solve(*system) is not None


def F(x):
    return Fraction(x)


def satisfies_rows(equalities, inequalities, point):
    """Direct evaluation of the rational rows, the ground truth for any witness."""
    for coeffs, const, strict in inequalities:
        value = const + sum(c * x for c, x in zip(coeffs, point))
        if strict and not value > 0:
            return False
        if not strict and not value >= 0:
            return False
    for coeffs, const in equalities:
        if const + sum(c * x for c, x in zip(coeffs, point)) != 0:
            return False
    return True


class TestKnownSystems:
    def test_contradictory_strict_pair(self):
        sys_ = rational_system(1, inequalities=[((1,), 0, True), ((-1,), 0, True)])
        assert solve(*sys_) is None

    def test_weak_pair_pins_zero(self):
        sys_ = rational_system(1, inequalities=[((1,), 0, False), ((-1,), 0, False)])
        assert solve(*sys_) == ((0,), 1)

    def test_open_interval_midpoint(self):
        # 1 < x < 2
        sys_ = rational_system(1, inequalities=[((1,), -1, True), ((-1,), 2, True)])
        assert solve(*sys_) == ((3,), 2)

    def test_unbounded_above_steps_out(self):
        sys_ = rational_system(1, inequalities=[((1,), -5, True)])
        assert solve(*sys_) == ((6,), 1)

    def test_unbounded_below(self):
        sys_ = rational_system(1, inequalities=[((-1,), -5, True)])
        assert solve(*sys_) == ((-6,), 1)

    def test_no_constraints_gives_origin(self):
        assert solve(3, [], []) == ((0, 0, 0), 1)

    def test_equality_chain_back_substitutes(self):
        # x + y = 0, y + z = 0, z = 7  ->  (7, -7, 7)
        sys_ = rational_system(3, equalities=[
            ((1, 1, 0), 0), ((0, 1, 1), 0), ((0, 0, 1), -7)])
        assert solve(*sys_) == ((7, -7, 7), 1)

    def test_inconsistent_equalities(self):
        sys_ = rational_system(1, equalities=[((1,), 0), ((1,), -1)])
        assert solve(*sys_) is None

    def test_degenerate_equality_rows(self):
        assert feasible(rational_system(1, equalities=[((0,), 0)]))
        assert not feasible(rational_system(1, equalities=[((0,), 1)]))

    def test_strictness_propagates_through_elimination(self):
        # x > 0 and x + y <= 0 force y < 0, so y >= 0 must fail
        sys_ = rational_system(2, inequalities=[
            ((1, 0), 0, True), ((-1, -1), 0, False), ((0, 1), 0, False)])
        assert solve(*sys_) is None

    def test_two_dimensional_triangle(self):
        # x > 0, y > 0, x + y < 1
        ineqs = [((1, 0), 0, True), ((0, 1), 0, True), ((-1, -1), 1, True)]
        w = solve(*rational_system(2, inequalities=ineqs))
        assert w is not None and satisfies_rows((), ineqs, as_fractions(w))

    def test_equalities_mixed_with_strict(self):
        # x = y, x > 3
        sys_ = rational_system(2, equalities=[((1, -1), 0)],
                               inequalities=[((1, 0), -3, True)])
        w = solve(*sys_)
        assert w is not None
        x, y = as_fractions(w)
        assert x == y and x > 3

    def test_rational_coefficients_stay_exact(self):
        # 2x/3 = 1/7
        sys_ = rational_system(1, equalities=[((F("2/3"),), F("-1/7"))])
        assert solve(*sys_) == ((3,), 14)


def random_rows(rng, nvars, rows):
    eqs, ineqs = [], []
    for _ in range(rows):
        coeffs = tuple(F(rng.randint(-3, 3)) for _ in range(nvars))
        const = F(rng.randint(-4, 4))
        kind = rng.randrange(3)
        if kind == 0 and any(coeffs):
            eqs.append((coeffs, const))
        else:
            ineqs.append((coeffs, const, bool(kind == 2)))
    return eqs, ineqs


def test_witnesses_always_satisfy_their_system():
    rng = random.Random(314159)
    found = 0
    for _ in range(400):
        nvars = rng.randint(1, 4)
        eqs, ineqs = random_rows(rng, nvars, rng.randint(1, 5))
        w = solve(*rational_system(nvars, eqs, ineqs))
        if w is not None:
            found += 1
            assert satisfies_rows(eqs, ineqs, as_fractions(w))
    assert found > 100  # the sampler must not degenerate into all-infeasible


def onedim_sweep_feasible(equalities, inequalities):
    """In one variable the candidate points (roots, midpoints, outer points)
    decide feasibility completely, giving an independent oracle."""
    roots = set()
    for coeffs, const in equalities:
        if coeffs[0]:
            roots.add(F(-const) / coeffs[0])
    for coeffs, const, _ in inequalities:
        if coeffs[0]:
            roots.add(F(-const) / coeffs[0])
    candidates = set(roots) | {F(0)}
    ordered = sorted(roots)
    for a, b in zip(ordered, ordered[1:]):
        candidates.add((a + b) / 2)
    if ordered:
        candidates.add(ordered[0] - 1)
        candidates.add(ordered[-1] + 1)
    return any(satisfies_rows(equalities, inequalities, (x,)) for x in candidates)


def test_infeasibility_matches_onedim_sweep():
    rng = random.Random(271828)
    for _ in range(300):
        eqs, ineqs = random_rows(rng, 1, rng.randint(1, 5))
        oracle = onedim_sweep_feasible(eqs, ineqs)
        assert feasible(rational_system(1, eqs, ineqs)) == oracle


def test_rows_are_primitive_integer_tuples():
    rows = [integer_row((Fraction(2, 3), Fraction(-4, 3)), 2),
            integer_row((Fraction(-1, 2), 0), Fraction(3, 4)),
            integer_row((6, 4), -2)]
    assert rows == [(1, -2, 3), (-2, 0, 3), (3, 2, -1)]
    for row in rows:
        assert all(type(v) is int for v in row)
        assert math.gcd(*row) == 1


SCALES = [Fraction(1, 3), Fraction(7, 2), Fraction(5), Fraction(2, 9), Fraction(1)]


def test_positive_row_scaling_keeps_the_exact_witness():
    rng = random.Random(8128)
    found = 0
    for _ in range(300):
        nvars = rng.randint(1, 4)
        eqs, ineqs = random_rows(rng, nvars, rng.randint(1, 6))
        scaled_eqs = []
        for coeffs, const in eqs:
            t = rng.choice(SCALES) * rng.choice([-1, 1])  # equalities: any sign
            scaled_eqs.append((tuple(t * c for c in coeffs), t * const))
        scaled_ineqs = []
        for coeffs, const, strict in ineqs:
            t = rng.choice(SCALES)
            scaled_ineqs.append((tuple(t * c for c in coeffs), t * const, strict))
        expected = solve(*rational_system(nvars, eqs, ineqs))
        got = solve(*rational_system(nvars, scaled_eqs, scaled_ineqs))
        assert got == expected
        if got is not None:
            found += 1
            assert lowest_terms(got)
        if nvars == 1:
            assert (got is not None) == onedim_sweep_feasible(scaled_eqs, scaled_ineqs)
    assert found > 100


def test_fm_row_cap(monkeypatch):
    # two lower and two upper bounds on x derive 2 * 2 rows
    sys_ = rational_system(1, inequalities=[
        ((1,), 0, True), ((1,), -1, True), ((-1,), 2, True), ((-1,), 3, True)])
    monkeypatch.setattr(feasibility, "MAX_FM_ROWS", 3)
    with pytest.raises(CapExceeded, match="4 rows"):
        solve(*sys_)
    monkeypatch.setattr(feasibility, "MAX_FM_ROWS", 4)
    assert solve(*sys_) == ((3,), 2)


def canonical_witnesses(seed, count):
    """Witnesses (or None) of seeded systems with rational coefficients,
    mixed strictness, equalities and opposite weak pairs that pin a bound."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        nvars = rng.randint(1, 4)
        eqs, ineqs = [], []
        for _ in range(rng.randint(0, 6)):
            coeffs = tuple(Fraction(rng.randint(-3, 3), rng.choice([1, 2, 3, 5]))
                           for _ in range(nvars))
            const = Fraction(rng.randint(-4, 4), rng.choice([1, 2, 7]))
            if rng.random() < 0.15:
                eqs.append((coeffs, const))
                continue
            ineqs.append((coeffs, const, rng.random() < 0.6))
            if rng.random() < 0.15:
                ineqs.append((tuple(-c for c in coeffs), -const, False))
        out.append(solve(*rational_system(nvars, eqs, ineqs)))
    return out


WITNESS_DIGEST = "5515a65ee17c8540137e667b029c216561597a57ad9089c55bcbcefa168e96df"


def test_witnesses_are_canonical():
    """A witness is fixed by the rule, not by the arithmetic that computes it:
    each free variable takes the midpoint of its interval, a bound +/- 1 on
    an unbounded side, or 0 on a free line.  The digest pins 3000 witnesses
    computed with Fraction arithmetic throughout back-substitution, each
    coordinate printed as its Fraction."""
    witnesses = canonical_witnesses(27182, 3000)
    assert sum(w is not None for w in witnesses) > 1500
    assert all(lowest_terms(w) for w in witnesses if w)
    text = repr([None if w is None else [str(c) for c in as_fractions(w)]
                 for w in witnesses])
    assert hashlib.sha256(text.encode()).hexdigest() == WITNESS_DIGEST
