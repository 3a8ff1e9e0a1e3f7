"""Exact feasibility of mixed strict/weak rational linear systems.

``solve`` takes every row as an integer vector (``arrangement.integer_row``
turns a rational row into the primitive integer one, a positive rescaling
that describes the same half-space or hyperplane).  Equalities are removed first
by pivoting; the remaining inequalities go through Fourier-Motzkin
elimination, where a derived row is strict iff any parent row is strict.
Both steps combine two rows with positive integer multipliers, so
elimination never leaves the integers.  Witness points are rebuilt by exact
back-substitution, taking interval midpoints (or bound +/- 1 on unbounded
sides).  Bounds are computed and compared in integers over the common
denominator of the point so far, and only the value chosen for each
variable becomes a Fraction.
"""

from fractions import Fraction
from math import gcd
from operator import mul

from .errors import CapExceeded

# Most rows one elimination step may derive (len(lowers) * len(uppers)).
# Without redundancy pruning, FM roughly squares the row count per step, so
# this bounds the work of every solve.  Random integer arrangements of up to
# 12 planes in R^3 or 8 hyperplanes in R^4 stay under it; 12 in R^5 do not.
MAX_FM_ROWS = 1 << 18

# A row is the integer vector (c_1, ..., c_n, const) and means
# const + c . x > 0 when strict, >= 0 otherwise, = 0 for an equality.


def _primitive(row):
    """Divide an integer row by the gcd of its entries."""
    g = gcd(*row)
    return tuple(v // g for v in row) if g > 1 else row


def _tidy(rows):
    """Reduce rows by their gcd, drop satisfied constant rows, merge
    duplicates (strict wins).  Returns None on a contradictory constant row."""
    seen = {}
    for row, strict in rows:
        if not any(row[:-1]):
            const = row[-1]
            if const < 0 or (strict and const == 0):
                return None
            continue
        row = _primitive(row)
        seen[row] = seen.get(row, False) or strict
    return list(seen.items())


def solve(n, equalities, inequalities):
    """A rational witness in n variables satisfying every row, or None if
    infeasible.  Each equality is an integer row, each inequality a pair
    (row, strict).

    Raises CapExceeded when one elimination step would derive more than
    MAX_FM_ROWS rows."""

    # Stage 1: pivot away the equalities.  Eliminating x_var with the pivot
    # row eq (coefficient c) maps a row with coefficient w to
    # |c| * row - sign(c) * w * eq.
    ineqs = list(inequalities)
    pending = list(equalities)
    pivots = []  # (var, eq): x_var = -(eq without x_var) / eq[var]
    pivoted = set()
    while pending:
        eq = pending.pop(0)
        var = next((j for j in range(n) if eq[j]), None)
        if var is None:
            if eq[n]:
                return None
            continue
        pivots.append((var, eq))
        pivoted.add(var)
        c = eq[var]
        scale, sign = abs(c), (1 if c > 0 else -1)

        def subst(row):
            w = row[var]
            if not w:
                return row
            sw = sign * w
            return _primitive(tuple(scale * a - sw * b for a, b in zip(row, eq)))

        pending = [subst(row) for row in pending]
        ineqs = [(subst(row), s) for row, s in ineqs]

    # Stage 2: Fourier-Motzkin on the free variables, highest index first.
    free = [v for v in range(n) if v not in pivoted]
    rows = _tidy(ineqs)
    if rows is None:
        return None
    levels = []
    for var in reversed(free):
        levels.append((var, rows))
        lowers = [r for r in rows if r[0][var] > 0]
        uppers = [r for r in rows if r[0][var] < 0]
        if len(lowers) * len(uppers) > MAX_FM_ROWS:
            raise CapExceeded(
                f"eliminating x{var + 1} would derive "
                f"{len(lowers) * len(uppers)} rows, cap is {MAX_FM_ROWS}")
        derived = [r for r in rows if r[0][var] == 0]
        for lrow, ls in lowers:
            b = lrow[var]
            for urow, us in uppers:
                a = -urow[var]
                derived.append(
                    (tuple(a * p + b * q for p, q in zip(lrow, urow)), ls or us))
        rows = _tidy(derived)
        if rows is None:
            return None

    # Stage 3: back-substitute, innermost variable first.  The point so far
    # is also kept as integer numerators nums over one denominator d > 0, so
    # each bound is t / (c * d) with integers t and c > 0, and bounds compare
    # by cross-multiplying; only the value chosen for a variable is a Fraction.
    # Unassigned entries of nums are 0, so a full dot product with a row
    # leaves out the variable being solved for.
    x = [Fraction(0)] * n
    nums, d = [0] * n, 1

    def place(var, value):
        nonlocal nums, d
        x[var] = value
        q = value.denominator
        if d % q:
            m = q // gcd(d, q)
            nums = [v * m for v in nums]
            d *= m
        nums[var] = value.numerator * (d // q)

    for var, rows_here in reversed(levels):
        lo = hi = None  # (t, c, strict)
        for row, strict in rows_here:
            c = row[var]
            if c == 0:
                continue
            t = -(row[n] * d + sum(map(mul, row, nums)))
            if c > 0:
                if (lo is None or t * lo[1] > lo[0] * c
                        or (strict and t * lo[1] == lo[0] * c)):
                    lo = (t, c, strict)
            else:
                t, c = -t, -c
                if (hi is None or t * hi[1] < hi[0] * c
                        or (strict and t * hi[1] == hi[0] * c)):
                    hi = (t, c, strict)
        if lo is None and hi is None:
            value = Fraction(0)
        elif lo is None:
            value = Fraction(hi[0] - hi[1] * d, hi[1] * d)
        elif hi is None:
            value = Fraction(lo[0] + lo[1] * d, lo[1] * d)
        elif lo[0] * hi[1] < hi[0] * lo[1]:
            value = Fraction(lo[0] * hi[1] + hi[0] * lo[1], 2 * lo[1] * hi[1] * d)
        else:
            # Elimination guarantees lo == hi with both bounds weak.
            assert lo[0] * hi[1] == hi[0] * lo[1] and not lo[2] and not hi[2]
            value = Fraction(lo[0], lo[1] * d)
        place(var, value)
    for var, eq in reversed(pivots):
        place(var, Fraction(-(eq[n] * d + sum(map(mul, eq, nums))), eq[var] * d))
    return tuple(x)
