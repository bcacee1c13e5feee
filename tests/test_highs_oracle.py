"""The occupation-measure LPs of `mo_achievable` against scipy's HiGHS.

Every LP that `mo_achievable` solves on random composed models is recorded,
then solved again by the exact simplex and by HiGHS in floating point, under
its own objective and under a random one (so that nonzero optima and
unbounded programs occur).  The statuses must match, an exact optimum must
lie within 1e-9 of HiGHS's, and the exact point must satisfy every row
exactly.
"""

import random
from fractions import Fraction as F

import pytest

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
    each, per seed."""
    recorded = []
    solve = LinearProgram.solve

    def recording(lp, objective, maximize=True):
        recorded.append((lp, objective, maximize, len(query)))
        return solve(lp, objective, maximize)

    with monkeypatch.context() as patch:
        patch.setattr(LinearProgram, "solve", recording)
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
    return recorded


def _highs(lp, objective, maximize):
    """(status, optimal value or None) of the LP by HiGHS."""
    n = lp.num_vars

    def dense(rows):
        return [[float(coeffs.get(j, 0)) for j in range(n)] for coeffs, _ in rows] or None

    sign = -1 if maximize else 1
    res = linprog(
        [sign * float(objective.get(j, 0)) for j in range(n)],
        A_ub=dense(lp.ub), b_ub=[float(r) for _, r in lp.ub] or None,
        A_eq=dense(lp.eq), b_eq=[float(r) for _, r in lp.eq] or None,
        bounds=(0, None), method="highs",
    )
    status = HIGHS_STATUS[res.status]
    return status, sign * res.fun if status == OPTIMAL else None


def _assert_exactly_feasible(lp, x):
    def dot(coeffs):
        return sum((F(v) * x[j] for j, v in coeffs.items()), F(0))

    assert len(x) == lp.num_vars and all(type(v) is F and v >= 0 for v in x)
    assert all(dot(coeffs) == rhs for coeffs, rhs in lp.eq)
    assert all(dot(coeffs) <= rhs for coeffs, rhs in lp.ub)


def test_occupation_lps_agree_with_highs(monkeypatch):
    recorded = _recorded_lps(monkeypatch, range(40))
    rng = random.Random(7)
    seen = {OPTIMAL: 0, INFEASIBLE: 0, UNBOUNDED: 0}
    with_rewards = 0
    for lp, objective, maximize, size in recorded:
        with_rewards += size > 1
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
    assert all(count >= 50 for count in seen.values()), seen
