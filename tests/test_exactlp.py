"""The exact simplex and Gaussian solver against exact oracles built on sympy.

The simplex oracle enumerates vertices: an LP over x >= 0 is feasible iff its
feasible set has a basic feasible solution, unbounded iff its recession cone
(normalised by sum(d) = 1) has a vertex d with c.d > 0, and otherwise optimal
at a vertex.  Each basis is solved by sympy's exact `DomainMatrix.rref` over
QQ.  sympy's own simplex is no oracle here: sympy 1.14's `lpmax`/`lpmin`
report the infeasible program {x0 + x1 = 1, x0 = 0, x1 = 0} as optimal at
(0, 1), and its `linprog` maximizes x0 over the infeasible program
{x0/2 - 3*x1 = -2, x0 + x1/2 = 3, x0 <= 1} at (1, 4).
"""

from fractions import Fraction as F
from itertools import combinations
from math import gcd, lcm

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from pacomp import exactlp
from pacomp.exactlp import INFEASIBLE, OPTIMAL, UNBOUNDED, gauss_solve

from helpers import RationalLP

sympy = pytest.importorskip("sympy")
from sympy.polys.matrices import DomainMatrix  # noqa: E402

rationals = st.builds(F, st.integers(-4, 4), st.sampled_from([1, 1, 2, 3, 5]))


@st.composite
def programs(draw):
    """A small LP: equalities (some repeated or rescaled), <= and >= rows, an objective.

    Most programs have their right-hand sides drawn around a point x >= 0,
    so they are feasible; the others draw them freely.
    """
    n = draw(st.integers(1, 3))
    nonnegative = rationals.map(abs)
    anchor = draw(st.none() | st.lists(nonnegative, min_size=n, max_size=n))

    def row(side):
        cols = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True))
        coeffs = {j: draw(rationals) for j in cols}
        coeffs[cols[0]] = draw(rationals.filter(bool))  # never an all-zero row
        if anchor is None:
            return coeffs, draw(rationals)
        return coeffs, sum(v * anchor[j] for j, v in coeffs.items()) + side * draw(nonnegative)

    eqs = [row(0) for _ in range(draw(st.integers(0, 2)))]
    for _ in range(draw(st.integers(0, 2)) if eqs else 0):
        coeffs, rhs = draw(st.sampled_from(eqs))
        scale = draw(rationals.filter(bool))
        eqs.append(({j: v * scale for j, v in coeffs.items()}, rhs * scale))
    ubs = [row(1) for _ in range(draw(st.integers(0, 2)))]
    lbs = [row(-1) for _ in range(draw(st.integers(0, 2)))]
    objective = {j: draw(rationals) for j in draw(
        st.lists(st.integers(0, n - 1), max_size=n, unique=True))}
    return n, eqs, ubs, lbs, objective, draw(st.booleans())


def _build(n, eqs, ubs, lbs):
    lp = RationalLP(n)
    for coeffs, rhs in eqs:
        lp.add_eq(coeffs, rhs)
    for coeffs, rhs in ubs:
        lp.add_ub(coeffs, rhs)
    for coeffs, rhs in lbs:
        lp.add_lb(coeffs, rhs)
    return lp


def _rref(rows, width):
    """sympy's exact reduced row echelon form of a rational matrix, and its pivots."""
    qq = sympy.QQ
    matrix = DomainMatrix(
        [[qq(F(v).numerator, F(v).denominator) for v in row] for row in rows],
        (len(rows), width), qq,
    )
    reduced, pivots = matrix.rref()
    return reduced.to_Matrix(), pivots


def _vertices(width, a, b):
    """Basic feasible solutions of {x >= 0 : a x = b}, over all column subsets."""
    if not a:
        return [[F(0)] * width]
    out = []
    for size in range(min(len(a), width) + 1):
        for cols in combinations(range(width), size):
            reduced, pivots = _rref([[row[j] for j in cols] + [r] for row, r in zip(a, b)],
                                    size + 1)
            if pivots != tuple(range(size)):
                continue  # dependent columns, or no solution on them
            x = [F(0)] * width
            for i, j in enumerate(cols):
                x[j] = F(int(reduced[i, size].p), int(reduced[i, size].q))
            if all(v >= 0 for v in x):
                out.append(x)
    return out


def _oracle(n, eqs, ubs, lbs, objective, maximize):
    """(status, optimal value) of the LP, by vertex enumeration."""
    k = len(ubs) + len(lbs)
    a, b = [], []
    for i, (coeffs, rhs) in enumerate(eqs + ubs + lbs):
        row = [F(0)] * (n + k)
        for j, v in coeffs.items():
            row[j] = v
        if i >= len(eqs):  # slack of a <= row, surplus of a >= row
            row[n + i - len(eqs)] = F(1 if i < len(eqs) + len(ubs) else -1)
        a.append(row)
        b.append(rhs)
    sign = 1 if maximize else -1
    gain = [sign * F(objective.get(j, 0)) for j in range(n)] + [F(0)] * k

    def dot(x):
        return sum((g * v for g, v in zip(gain, x)), F(0))

    points = _vertices(n + k, a, b)
    if not points:
        return INFEASIBLE, None
    if any(dot(d) > 0 for d in _vertices(n + k, a + [[F(1)] * (n + k)], [F(0)] * len(a) + [F(1)])):
        return UNBOUNDED, None
    return OPTIMAL, sign * max(dot(x) for x in points)


def _assert_optimal_point(n, eqs, ubs, lbs, objective, x, value):
    def dot(coeffs):
        return sum((v * x[j] for j, v in coeffs.items()), F(0))

    assert len(x) == n and all(type(v) is F and v >= 0 for v in x)
    assert all(dot(c) == r for c, r in eqs)
    assert all(dot(c) <= r for c, r in ubs)
    assert all(dot(c) >= r for c, r in lbs)
    assert type(value) in (F, int) and dot(objective) == value


@st.composite
def degenerate_programs(draw):
    """A small LP with highly degenerate vertices: every row is tight at an
    anchor point with many zero coordinates, most right-hand sides are 0, and
    rows repeat, some rescaled."""
    n = draw(st.integers(2, 4))
    anchor = [draw(st.sampled_from([F(0), F(0), F(1), F(1, 2)])) for _ in range(n)]

    def row():
        cols = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True))
        coeffs = {j: draw(rationals.filter(bool)) for j in cols}
        return coeffs, sum(v * anchor[j] for j, v in coeffs.items())

    rows = [row() for _ in range(draw(st.integers(1, 3)))]
    for _ in range(draw(st.integers(0, 3))):
        coeffs, rhs = draw(st.sampled_from(rows))
        scale = draw(st.sampled_from([F(1), F(1), F(2), F(-1, 3)]))
        rows.append(({j: v * scale for j, v in coeffs.items()}, rhs * scale))
    kinds = [draw(st.sampled_from(["eq", "ub", "lb"])) for _ in rows]
    eqs, ubs, lbs = ([r for r, k in zip(rows, kinds) if k == kind] for kind in ("eq", "ub", "lb"))
    objective = {j: draw(rationals) for j in draw(
        st.lists(st.integers(0, n - 1), max_size=n, unique=True))}
    return n, eqs, ubs, lbs, objective, draw(st.booleans())


def _agrees_with_vertex_enumeration(program):
    n, eqs, ubs, lbs, objective, maximize = program
    status, x, value = _build(n, eqs, ubs, lbs).solve(objective, maximize)
    expected_status, expected_value = _oracle(*program)
    assert status == expected_status
    if status == OPTIMAL:
        assert value == expected_value
        _assert_optimal_point(n, eqs, ubs, lbs, objective, x, value)
    else:
        assert x is None and value is None


@settings(max_examples=100, suppress_health_check=[HealthCheck.too_slow])
@given(programs())
def test_simplex_agrees_with_vertex_enumeration(program):
    _agrees_with_vertex_enumeration(program)


@settings(max_examples=60, suppress_health_check=[HealthCheck.too_slow])
@given(degenerate_programs())
def test_simplex_on_degenerate_programs_agrees_with_vertex_enumeration(program):
    _agrees_with_vertex_enumeration(program)


def test_dantzig_cycle_is_broken(monkeypatch):
    """Beale's (1955) program, on which Dantzig's rule with this ratio test
    cycles through six degenerate bases from the slack basis:
    minimize -3/4 x3 + 20 x4 - 1/2 x5 + 6 x6 subject to
    1/4 x3 - 8 x4 - x5 + 9 x6 + x0 = 0, 1/2 x3 - 12 x4 - 1/2 x5 + 3 x6 + x1 = 0,
    x5 + x2 = 1, x >= 0.  Its optimum is -5/4 at x3 = x5 = 1, x0 = 3/4."""
    entries = [  # (row, rhs)
        ({0: F(1), 3: F(1, 4), 4: F(-8), 5: F(-1), 6: F(9)}, 0),
        ({1: F(1), 3: F(1, 2), 4: F(-12), 5: F(-1, 2), 6: F(3)}, 0),
        ({2: F(1), 5: F(1)}, F(1)),
        ({3: F(-3, 4), 4: F(20), 5: F(-1, 2), 6: F(6)}, 0),  # the cost row [c | -z]
    ]
    rows, dens = [], []
    for e, rhs in entries:
        cols, vals, b, den = exactlp._int_row(e, rhs)
        rows.append(exactlp._dense(cols, vals, b, 8))
        dens.append(den)
    basis = [0, 1, 2]
    visited = []  # the basis before each pivot

    def bounded_pivot(*args):
        visited.append(frozenset(basis))
        assert len(visited) < 50, "the simplex cycles"
        return pivot(*args)

    pivot = exactlp._pivot
    monkeypatch.setattr(exactlp, "_pivot", bounded_pivot)
    assert exactlp._iterate(rows, dens, basis) == OPTIMAL
    assert F(-rows[3][7], dens[3]) == F(-5, 4)
    x = {b: F(rows[i][7], dens[i]) for i, b in enumerate(basis)}
    assert {j: v for j, v in x.items() if v} == {0: F(3, 4), 3: F(1), 5: F(1)}
    assert visited.count(frozenset([0, 1, 2])) == 2  # Dantzig's rule came back to the start


def test_redundant_equalities_leave_an_artificial_basic():
    # the second and third rows repeat the first, so phase 1 ends with
    # artificial variables basic on all-zero rows
    eqs = [({0: F(1), 1: F(1)}, F(1)), ({0: F(2), 1: F(2)}, F(2)),
           ({0: F(-1, 3), 1: F(-1, 3)}, F(-1, 3)), ({2: F(1)}, F(0))]
    for objective, maximize, best in (({0: 1}, True, 1), ({1: 3, 0: -1}, False, -1),
                                      ({}, True, 0)):
        status, x, value = _build(3, eqs, [], []).solve(objective, maximize)
        assert (status, value) == (OPTIMAL, best)
        _assert_optimal_point(3, eqs, [], [], objective, x, value)
        assert _oracle(3, eqs, [], [], objective, maximize) == (OPTIMAL, best)


def test_infeasible_and_unbounded_programs():
    lp = _build(2, [({0: F(1), 1: F(1)}, F(1)), ({0: F(1), 1: F(1)}, F(2))], [], [])
    assert lp.solve({0: 1}) == (INFEASIBLE, None, None)
    assert lp.feasible() == (False, None)
    lp = _build(2, [], [({0: F(1)}, F(-1))], [])  # x0 <= -1 with x0 >= 0
    assert lp.solve({}) == (INFEASIBLE, None, None)
    ubs = [({0: F(1), 1: F(-1)}, F(1))]
    lp = _build(2, [], ubs, [])
    assert lp.solve({0: 1}) == (UNBOUNDED, None, None)
    status, x, value = lp.solve({0: 1}, maximize=False)
    assert (status, value) == (OPTIMAL, 0)
    _assert_optimal_point(2, [], ubs, [], {0: F(1)}, x, value)
    feasible, x = lp.feasible()
    assert feasible
    _assert_optimal_point(2, [], ubs, [], {}, x, 0)


@st.composite
def square_systems(draw):
    n = draw(st.integers(1, 5))
    rows = [[draw(rationals) for _ in range(n)] for _ in range(n)]
    if n > 1 and draw(st.booleans()):
        scale = draw(rationals)
        rows[-1] = [v * scale for v in rows[0]]  # singular
    return rows, [draw(rationals) for _ in range(n)]


@settings(max_examples=100)
@given(square_systems())
def test_gauss_solve_agrees_with_sympy(system):
    """`gauss_solve` takes integer rows: each rational equation goes in
    multiplied by the lcm of its denominators, which keeps its solutions.
    It returns them as integer numerators over one denominator V in lowest
    terms."""
    rows, rhs = system
    a = sympy.Matrix([[sympy.Rational(v.numerator, v.denominator) for v in row] for row in rows])
    b = sympy.Matrix([sympy.Rational(v.numerator, v.denominator) for v in rhs])
    int_rows, int_rhs = [], []
    for row, c in zip(rows, rhs):
        scale = lcm(*(v.denominator for v in row), c.denominator)
        int_rows.append([int(v * scale) for v in row])
        int_rhs.append(int(c * scale))
    assert all(type(v) is int for row in int_rows for v in row + int_rhs)
    if a.det() == 0:
        with pytest.raises(ValueError):
            gauss_solve(int_rows, int_rhs)
        return
    den, nums = gauss_solve(int_rows, int_rhs)
    # one canonical form: a positive denominator, int numerators, lowest terms
    assert type(den) is int and den > 0
    assert all(type(v) is int for v in nums)
    assert gcd(den, *nums) == 1
    assert [F(v, den) for v in nums] == [F(int(v.p), int(v.q)) for v in a.LUsolve(b)]
