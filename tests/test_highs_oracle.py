"""The occupation-measure LPs of `mo_achievable` against scipy's HiGHS.

Every LP that `mo_achievable` solves on random composed models is recorded,
then solved again by the exact simplex and by HiGHS in floating point, on its
integer rows turned back into rationals, under its own objective and under a
random one (so that nonzero optima and unbounded programs occur).  The statuses must match, an exact optimum must
lie within 1e-9 of HiGHS's, and the exact point must satisfy every row
exactly.  The corpus holds LPs without columns, whose initial state is dead,
and LPs whose last row counts flow into dead states.
"""

import random
from fractions import Fraction as F
from math import gcd

import pytest

from pacomp import verify
from pacomp.errors import UnboundedReward
from pacomp.exactlp import INFEASIBLE, OPTIMAL, UNBOUNDED, LinearProgram
from pacomp.model import compose
from pacomp.verify import mo_achievable, reward_objective, safety

from helpers import random_pa, random_safety_dfa

linprog = pytest.importorskip("scipy.optimize").linprog

HIGHS_STATUS = {0: OPTIMAL, 2: INFEASIBLE, 3: UNBOUNDED}


def _queries(rng, comp):
    """A safety query, then the same objective with a positive reward on each
    symbol in turn; on these models most rewards lie on an end component and
    raise UnboundedReward, which leaves no LP."""
    dfa = random_safety_dfa(rng, sorted(comp.alphabet), allow_empty=False)
    safe = safety(dfa, F(rng.randint(0, 4), 4))
    yield (safe,)
    for sym in sorted(comp.alphabet):
        yield safe, reward_objective(
            rng.choice(["<=", "<", ">=", ">"]), F(rng.randint(0, 8), 4),
            {sym: rng.randint(1, 2)},
        )


def _recorded_lps(monkeypatch, seeds):
    """(lp, objective, maximize, number of objectives) of every simplex solve
    of `mo_achievable` on a composed pair of random PAs with 3..6 states
    each, per seed, and the number of occupation LPs built whose last row
    counts flow into dead states (a y column with a slot in that row)."""
    recorded, dead_entries, last = [], [], [False]
    solve, occupation_lp = LinearProgram.solve, verify._occupation_lp

    def recording(lp, objective, maximize=True):
        recorded.append((lp, objective, maximize, len(query)))
        dead_entries.append(last[0])  # each solve follows its own layout
        return solve(lp, objective, maximize)

    def layout(*args):
        out = occupation_lp(*args)
        _, ends, _ = out[1][-1]
        last[0] = any(plus for _, plus, _ in ends.values())
        return out

    with monkeypatch.context() as patch:
        patch.setattr(LinearProgram, "solve", recording)
        patch.setattr(verify, "_occupation_lp", layout)
        for seed in seeds:
            rng = random.Random(seed)
            m1 = random_pa(rng, "l", rng.randint(3, 6), ["a", "b"])
            m2 = random_pa(rng, "r", rng.randint(3, 6), ["a", "c"])
            comp = compose(m1, m2)
            for query in _queries(rng, comp):
                for strategy_class in ("cmp", "prt"):
                    try:
                        mo_achievable(comp, query, strategy_class)
                    except UnboundedReward:
                        pass
    return recorded, sum(dead_entries)


def _rational_rows(lp):
    """The rows of a `LinearProgram` as rationals, (eq, ub) lists of
    ({column: coefficient}, rhs) for coeffs.x = rhs and coeffs.x <= rhs,
    after checking their integer form: den > 0, rhs >= 0, gcd(den, rhs,
    *vals) == 1, and the i-th `ub` row's slack column num_vars + i at
    coefficient +-den, whose sign the rational row undoes."""
    n = lp.num_vars
    eq, ub = [], []
    for i, (cols, vals, rhs, den) in enumerate(lp.eq + lp.ub):
        assert den > 0 and rhs >= 0 and gcd(den, rhs, *vals) == 1
        entries, sign = dict(zip(cols, vals)), 1
        if i >= len(lp.eq):
            slack = entries.pop(n + i - len(lp.eq))
            assert abs(slack) == den
            sign = slack // den
        assert all(0 <= j < n for j in entries)
        row = ({j: F(sign * v, den) for j, v in entries.items()}, F(sign * rhs, den))
        (eq if i < len(lp.eq) else ub).append(row)
    return eq, ub


def _highs(lp, objective, maximize):
    """(status, optimal value or None) of the LP by HiGHS, on its integer
    rows turned back into rationals.  An LP without columns (its initial
    state is dead, so no state has a column) is decided from its constant
    rows, which `linprog` does not take: feasible iff each rhs is 0 or, in an
    inequality, nonnegative."""
    n = lp.num_vars
    eq, ub = _rational_rows(lp)
    if n == 0:
        feasible = all(r == 0 for _, r in eq) and all(r >= 0 for _, r in ub)
        return (OPTIMAL, 0) if feasible else (INFEASIBLE, None)

    def dense(rows):
        return [[float(coeffs.get(j, 0)) for j in range(n)] for coeffs, _ in rows] or None

    sign = -1 if maximize else 1
    res = linprog(
        [sign * float(objective.get(j, 0)) for j in range(n)],
        A_ub=dense(ub), b_ub=[float(r) for _, r in ub] or None,
        A_eq=dense(eq), b_eq=[float(r) for _, r in eq] or None,
        bounds=(0, None), method="highs",
    )
    status = HIGHS_STATUS[res.status]
    return status, sign * res.fun if status == OPTIMAL else None


def _assert_exactly_feasible(lp, x):
    def dot(coeffs):
        return sum((F(v) * x[j] for j, v in coeffs.items()), F(0))

    eq, ub = _rational_rows(lp)
    assert len(x) == lp.num_vars and all(type(v) is F and v >= 0 for v in x)
    assert all(dot(coeffs) == rhs for coeffs, rhs in eq)
    assert all(dot(coeffs) <= rhs for coeffs, rhs in ub)


def test_occupation_lps_agree_with_highs(monkeypatch):
    recorded, dead_entries = _recorded_lps(monkeypatch, range(150))
    rng = random.Random(7)
    seen = {OPTIMAL: 0, INFEASIBLE: 0, UNBOUNDED: 0}
    with_rewards = no_columns = 0
    for lp, objective, maximize, size in recorded:
        with_rewards += size > 1
        no_columns += lp.num_vars == 0
        shuffled = {j: rng.choice([-1, 0, 0, 1, 2]) for j in range(lp.num_vars)}
        for obj, top in ((objective, maximize), (shuffled, rng.random() < 0.5)):
            status, x, value = lp.solve(obj, top)
            expected, highs_value = _highs(lp, obj, top)
            assert status == expected
            seen[status] += 1
            if status == OPTIMAL:
                _assert_exactly_feasible(lp, x)
                assert value == sum((F(v) * x[j] for j, v in obj.items()), F(0))
                assert abs(float(value) - highs_value) <= 1e-9
            else:
                assert x is None and value is None
    assert len(recorded) >= 100 and with_rewards >= 30
    assert no_columns >= 5 and dead_entries >= 5, (no_columns, dead_entries)
    assert all(count >= 50 for count in seen.values()), seen
