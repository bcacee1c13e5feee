"""Exact rational linear algebra: Gauss-Jordan elimination and a small simplex.

Both run on one pivot kernel, `_pivot`, over integer rows.  A row is a list
of Python ints `r` with one denominator `d`, and entry j stands for the
rational r[j] / d.  Invariant: d > 0 and gcd(d, *r) == 1, restored after
every update.  A pivot changes, in every other row, only the columns where
the pivot row is nonzero; the row is first multiplied through by one integer
when the pivot row's denominator does not divide the row's entry in the
pivot column.  No `Fraction` is built inside the loop.  `gauss_solve` takes
integer rows as they are (denominator 1): scale a rational equation by the
lcm of its denominators first; it returns integer numerators over one
denominator.  A `LinearProgram` stores its rows in integer form, so the
simplex only lays them out as a tableau: callers append integer rows, and a
sparse rational row converts once by `_int_row`.  The simplex's results are
`Fraction`s.  No float is involved.

The simplex is two-phase.  Each pivot enters the column with the most
negative reduced cost (Dantzig's rule; smallest index on ties) and leaves by
the minimum ratio, ties to the smallest basis label.  Dantzig's rule alone
can cycle on a degenerate program, so `_iterate` remembers the bases seen
since the last nondegenerate pivot (one whose row has a nonzero rhs) and
switches to Bland's smallest-index rule when a degenerate pivot lands on one
of them, until the next nondegenerate pivot.  That keeps it finite: each
nondegenerate pivot strictly improves the phase objective, so no basis
recurs across stretches, and Bland's rule cannot cycle within one.  The
optimal value does not depend on the pricing, but where an LP has several
optimal vertices the one returned does.
Artificial variables never re-enter the basis, so their columns are never
stored; only their basis labels `total + i` are.  Signs are read off the
integers and the ratio test compares rhs/a within each row, where the row
denominator cancels, so the pivot path is the one a `Fraction` tableau takes.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"


def _int_row(entries, rhs=0):
    """The integer form (cols, vals, rhs, den) of the sparse rational row
    {column: value} with right-hand side `rhs`: entry i stands for
    vals[i] / den at column cols[i], and the rhs for rhs / den.  It is already
    reduced: every prime power of the lcm denominator divides some entry's
    denominator exactly, and that entry's numerator is prime to it."""
    den = lcm(rhs.denominator, *(v.denominator for v in entries.values()))
    vals = [v.numerator * (den // v.denominator) for v in entries.values()]
    return tuple(entries), vals, rhs.numerator * (den // rhs.denominator), den


def _dense(cols, vals, rhs, width):
    """The dense row of `width` columns, the last holding rhs, of a sparse one."""
    row = [0] * width
    for j, v in zip(cols, vals):
        row[j] = v
    row[-1] = rhs
    return row


def _reduce(row, den):
    """Divide an integer row and its denominator by their common gcd."""
    g = gcd(den, *row)
    return (row, den) if g == 1 else ([v // g for v in row], den // g)


def _pivot(rows, dens, r, c):
    """Scale row r so its entry c is 1, then clear column c from the other rows."""
    p = rows[r]
    a = p[c]
    if a < 0:
        p = [-v for v in p]
        a = -a
    p, a = _reduce(p, a)
    rows[r], dens[r] = p, a
    nz = [(j, v) for j, v in enumerate(p) if v]
    for i in range(len(rows)):
        q = rows[i]
        f = q[c]
        if not f or i == r:
            continue
        # q/d - (f/d) * (p/a), over the denominator d * (a / gcd(f, a)).
        g = gcd(f, a)
        s, f, d = a // g, f // g, dens[i]
        if s != 1:
            q = [v * s for v in q]
            d *= s
        for j, v in nz:
            q[j] -= f * v
        rows[i], dens[i] = _reduce(q, d)


def gauss_solve(rows, rhs):
    """Solve A x = b for a square nonsingular integer matrix A and integer
    vector b; returns (V, nums) with x[i] = nums[i] / V in lowest terms: V
    is the lcm of the final rows' denominators, which are gcd-reduced."""
    n = len(rows)
    a, dens = [[*row, b] for row, b in zip(rows, rhs)], [1] * n
    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r][col]), None)
        if pivot is None:
            raise ValueError("singular linear system")
        a[col], a[pivot] = a[pivot], a[col]
        dens[col], dens[pivot] = dens[pivot], dens[col]
        _pivot(a, dens, col, col)
    den = lcm(*dens)
    return den, [a[i][n] * (den // dens[i]) for i in range(n)]


class LinearProgram:
    """max c.x subject to equality/inequality rows over nonnegative variables.

    `eq` and `ub` hold integer rows (cols, vals, rhs, den): the equation
    sum(vals[i] * x[cols[i]]) = rhs over den, with den > 0, rhs >= 0 and
    gcd(den, rhs, *vals) == 1.  The i-th `ub` row is an inequality with its
    slack column num_vars + i among its entries: at coefficient den it reads
    vals.x <= rhs, and at -den it reads vals.x >= rhs (an inequality whose
    rhs was negative, negated so that it is not).  Such rows are unique, so
    they equal what `_int_row` gives for the same rational row.  Callers
    append their rows to `eq` and `ub`.
    """

    def __init__(self, num_vars: int):
        self.num_vars = num_vars
        self.eq = []  # (cols, vals, rhs, den)
        self.ub = []  # the same, each with its slack column

    def solve(self, objective: dict, maximize=True):
        """Two-phase simplex; returns (status, assignment list, value).

        The tableau is `rows` (columns: the variables, one slack per `ub`
        row, then the right-hand side) with the reduced-cost row "[r | -z]"
        appended last while a phase runs.
        """
        total = self.num_vars + len(self.ub)
        stored = self.eq + self.ub
        rows = [_dense(cols, vals, rhs, total + 1) for cols, vals, rhs, _ in stored]
        dens = [den for *_, den in stored]
        m = len(rows)
        basis = [total + i for i in range(m)]

        # Phase 1: minimize the sum of artificials, whose cost row is minus
        # the sum of all rows.
        common = lcm(*dens)
        cost = [0] * (total + 1)
        for cols, vals, rhs, den in stored:
            scale = common // den
            for j, v in zip(cols, vals):
                cost[j] -= v * scale
            cost[total] -= rhs * scale
        cost, den = _reduce(cost, common)
        rows.append(cost)
        dens.append(den)
        _iterate(rows, dens, basis)
        dens.pop()
        if rows.pop()[total]:
            return INFEASIBLE, None, None

        # Remove leftover artificial basics (degenerate rows).
        for i in range(m):
            if basis[i] >= total:
                pivot_col = next((j for j in range(total) if rows[i][j]), None)
                if pivot_col is not None:
                    _pivot(rows, dens, i, pivot_col)
                    basis[i] = pivot_col

        # Phase 2: minimize -objective (or +objective when minimizing).
        sign = -1 if maximize else 1
        cols, vals, _, den = _int_row({j: sign * Fraction(v) for j, v in objective.items()})
        rows.append(_dense(cols, vals, 0, total + 1))
        dens.append(den)
        for i, b in enumerate(basis):
            if b < total and rows[m][b]:
                _pivot(rows, dens, i, b)  # b is basic: only the cost row changes
        status = _iterate(rows, dens, basis)
        if status == UNBOUNDED:
            return UNBOUNDED, None, None
        x = [Fraction(0)] * self.num_vars
        for i, b in enumerate(basis):
            if b < self.num_vars:
                x[b] = Fraction(rows[i][total], dens[i])
        value = sum(Fraction(v) * x[j] for j, v in objective.items())
        return OPTIMAL, x, value


def _iterate(rows, dens, basis):
    """Pivot until the cost row `rows[-1]` shows optimality or unboundedness."""
    m = len(basis)
    width = len(rows[m]) - 1
    seen, bland = {frozenset(basis)}, False
    while True:
        # Dantzig's rule (the cost row has one denominator), or Bland's rule
        # while a degenerate stretch has revisited a basis; artificials never
        # re-enter.
        cost = rows[m]
        if bland:
            col = next((j for j in range(width) if cost[j] < 0), None)
        else:
            low = min(cost[:width], default=0)
            col = cost.index(low) if low < 0 else None
        if col is None:
            return OPTIMAL
        best_row = None
        for i in range(m):
            a = rows[i][col]
            if a > 0:
                b = rows[i][width]
                if best_row is None:
                    best_row, best_a, best_b = i, a, b
                    continue
                lhs, rhs = b * best_a, best_b * a  # b/a against best_b/best_a
                if lhs < rhs or (lhs == rhs and basis[i] < basis[best_row]):
                    best_row, best_a, best_b = i, a, b
        if best_row is None:
            return UNBOUNDED
        _pivot(rows, dens, best_row, col)
        basis[best_row] = col
        if best_b:  # nondegenerate: the phase objective strictly improved
            seen, bland = set(), False
        key = frozenset(basis)
        bland = bland or key in seen
        seen.add(key)
