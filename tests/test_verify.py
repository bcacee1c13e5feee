import itertools
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pacomp import corpus
from pacomp.algebra import Box, FiniteRegion, Polynomial, parse_poly, poly_eval
from pacomp.errors import (
    AlphabetMismatch,
    PacompError,
    IllDefinedValuationInRegion,
    SideConditionError,
    UnboundedReward,
)
from pacomp.exactlp import INFEASIBLE, OPTIMAL, LinearProgram
from pacomp.model import (
    alphabet_extend,
    compose,
    dfa_forbid_symbols,
    instantiate,
    make_ppa,
    tau_extend,
)
from pacomp.robust import pa_reduce
from pacomp.semantics import MemorylessStrategy
from pacomp.verify import (
    INF,
    _policy_iteration,
    ProbObjective,
    chain_expected_reward,
    chain_language_prob,
    enumerate_memoryless,
    exp_total_reward,
    max_reach,
    maximal_end_components,
    mo_achievable,
    monotone_check,
    region_sat,
    ag_triple_check,
    reward_objective,
    safety,
    safety_prob,
    solution_value,
)

from helpers import (
    ag_triple_check_per_sample,
    fraction_solve,
    monotone_check_per_sample,
    policy_iteration_reference,
    random_pa,
    random_parametric_pair,
    random_polytopic_rpa,
    random_safety_dfa,
    region_sat_per_sample,
)

SOLUTION = parse_poly("1 - (1/10*p^2 + (p - p^2)*q)")
V = {"p": F(1, 10), "q": F(1, 10)}


def composed():
    return compose(corpus.retry_component(), corpus.pipeline_component())


# ---------------------------------------------------------------------------
# max_reach
# ---------------------------------------------------------------------------

def test_max_reach_pipeline_golden():
    pa = instantiate(corpus.pipeline_component(), V)
    value, strat, _ = max_reach(pa, {"t3"})
    # (1-p)*q + p*(1/10) at p = q = 1/10
    assert value == F(9, 10) * F(1, 10) + F(1, 10) * F(1, 10) == F(1, 10)


def test_max_reach_all_states_target():
    pa = instantiate(corpus.pipeline_component(), V)
    assert max_reach(pa, set(pa.states))[0] == 1


def _reach_by_fraction_solve(chain, targets, init):
    """P(eventually targets) from `init` in the chain {s: {t: p}}: 1 on the
    targets, 0 where they are unreachable, and otherwise one Fraction solve
    of x[s] = sum_t p(s, t) x[t] over the states that reach them."""
    reaches, grew = set(targets), True
    while grew:
        grew = False
        for s, dist in chain.items():
            if s not in reaches and any(p and t in reaches for t, p in dist.items()):
                reaches.add(s)
                grew = True
    if init in targets or init not in reaches:
        return F(int(init in targets))
    unknown = [s for s in chain if s in reaches and s not in targets]
    col = {s: i for i, s in enumerate(unknown)}
    rows, rhs = [], []
    for s in unknown:
        row = [F(0)] * len(unknown)
        row[col[s]] += 1
        for t, p in chain[s].items():
            if t in col:
                row[col[t]] -= p
        rows.append(row)
        rhs.append(sum((p for t, p in chain[s].items() if t in targets), F(0)))
    return fraction_solve(rows, rhs)[col[init]]


def test_max_reach_agrees_with_policy_enumeration():
    rng = random.Random(17)
    for _ in range(15):
        pa = random_pa(rng, "x", 3, ["a", "b"], max_actions=2)
        target = {rng.choice(pa.states)}
        value, strat, _ = max_reach(pa, target)
        # brute force over deterministic memoryless policies, each chain
        # solved in Fractions apart from pacomp's solvers
        decisions = [pa.enabled(s) for s in pa.states]
        best = F(0)
        for combo in itertools.product(*(d or [None] for d in decisions)):
            chain = {s: pa.dist(s, a) if a else {} for s, a in zip(pa.states, combo)}
            best = max(best, _reach_by_fraction_solve(chain, frozenset(target), pa.initial))
        assert value == best


def _reach_lp_values(pa, targets):
    """Maximal reachability by the standard LP: minimise the sum of x[s]
    subject to x[s] >= sum_t P(s, a, t) x[t] for every enabled action, with
    x = 1 on the targets and x = 0 where the targets are unreachable."""
    reaches, grew = set(targets), True
    while grew:
        grew = False
        for (s, a), dist in pa.trans.items():
            if s not in reaches and any(p and t in reaches for t, p in dist.items()):
                reaches.add(s)
                grew = True
    unknown = [s for s in pa.states if s in reaches and s not in targets]
    col = {s: i for i, s in enumerate(unknown)}
    lp = LinearProgram(len(unknown))
    for s in unknown:
        for a in pa.enabled(s):
            row = {col[s]: F(1)}
            for t, p in pa.dist(s, a).items():
                if t in col:
                    row[col[t]] = row.get(col[t], F(0)) - p
            lp.add_lb(row, sum((p for t, p in pa.dist(s, a).items() if t in targets), F(0)))
    status, x, _ = lp.solve({i: F(1) for i in range(len(unknown))}, maximize=False)
    assert status == OPTIMAL
    return {s: F(1) if s in targets else x[col[s]] if s in col else F(0) for s in pa.states}


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32))
def test_max_reach_agrees_with_the_reachability_lp(seed):
    rng = random.Random(seed)
    pa = random_pa(rng, "x", rng.randint(2, 6), ["a", "b"], max_actions=3)
    reduced = pa_reduce(random_polytopic_rpa(rng, "u", ["a", "b"], rng.randint(2, 4)))
    for m in (pa, reduced):
        targets = frozenset(rng.sample(m.states, rng.randint(1, 2)))
        value, _, values = max_reach(m, targets)
        assert values == _reach_lp_values(m, targets)
        assert value == values[m.initial]


def test_max_reach_strategy_attains_value():
    pa = instantiate(corpus.pipeline_component(), V)
    value, strat, _ = max_reach(pa, {"t3"})
    # drive the fail-loop once t3 is reached, then P(fail occurs) = P(reach t3)
    choice = dict(strat.choice)
    choice["t3"] = {"t3_f": F(1)}
    reach = 1 - chain_language_prob(
        pa, MemorylessStrategy(choice), dfa_forbid_symbols({"fail"}, pa.alphabet)
    )
    assert reach == value


# ---------------------------------------------------------------------------
# safety_prob
# ---------------------------------------------------------------------------

def test_safety_prob_solution_function():
    comp = composed()
    for v in (V, {"p": F(1, 2), "q": F(1, 5)}, {"p": F(9, 10), "q": 1}):
        got = safety_prob(instantiate(comp, v), safety(corpus.no_fail_dfa(), 1))
        assert got == poly_eval(SOLUTION, v)
    assert safety_prob(instantiate(comp, V), safety(corpus.no_fail_dfa(), 1)) == F(99, 100)


def test_safety_prob_vacuous_dfa():
    pa = instantiate(composed(), V)
    assert safety_prob(pa, safety(dfa_forbid_symbols((), pa.alphabet), 1)) == 1


def test_safety_prob_interval_relaxation_instance():
    from pacomp.robust import interval_relax_compose, pa_reduce

    rel = pa_reduce(
        interval_relax_compose(corpus.interval_retry(), corpus.interval_responder())
    )
    assert safety_prob(rel, safety(corpus.no_c_dfa(), F(1, 10))) == F(1, 20)


def test_safety_prob_matches_bruteforce_min():
    rng = random.Random(23)
    for _ in range(10):
        pa = random_pa(rng, "y", 3, ["a", "b"], max_actions=2)
        dfa = random_safety_dfa(rng, ["a", "b"])
        obj = safety(dfa, F(1, 2))
        got = safety_prob(pa, obj)
        best = None
        decisions = [(s, pa.enabled(s)) for s in pa.states if pa.enabled(s)]
        for combo in itertools.product(*(acts for _, acts in decisions)):
            sigma = MemorylessStrategy(
                {s: {a: F(1)} for (s, _), a in zip(decisions, combo)}
            )
            val = chain_language_prob(pa, sigma, dfa)
            best = val if best is None else min(best, val)
        # optimum over all strategies is attained by a memoryless det one
        assert got == best


# ---------------------------------------------------------------------------
# expected total reward
# ---------------------------------------------------------------------------

def test_expected_reward_pipeline():
    pa = instantiate(corpus.pipeline_component(), V)
    # the single available strategy performs one a-step plus another with
    # probability 1-p
    assert exp_total_reward(pa, {"a": 1}, "max") == F(19, 10)
    assert exp_total_reward(pa, {"a": 1}, "min") == F(19, 10)


def test_expected_reward_zero_function():
    pa = instantiate(corpus.pipeline_component(), V)
    assert exp_total_reward(pa, {}, "max") == 0


def test_expected_reward_divergence():
    loop = make_ppa(
        ["s"], "s", set(), {("s", "l"): ("a", {"s": 1})}, {"a"}
    )
    assert exp_total_reward(loop, {"a": 1}, "max") == INF


def test_expected_reward_max_picks_better_branch():
    pa = make_ppa(
        ["s", "u", "v"],
        "s",
        set(),
        {
            ("s", "x"): ("a", {"u": 1}),
            ("s", "y"): ("b", {"v": 1}),
            ("u", "ul"): ("pay", {"u": F(1, 2), "v": F(1, 2)}),
            ("v", "vl"): ("idle", {"v": 1}),
        },
        {"a", "b", "pay", "idle"},
    )
    # each visit to u pays 1 and returns to u with prob 1/2: expected 2 pays
    assert exp_total_reward(pa, {"pay": 1}, "max") == 2
    assert exp_total_reward(pa, {"pay": 1}, "min") == 0


def test_chain_reward_divergence_and_zero():
    loop = make_ppa(
        ["s", "t", "u"],
        "s",
        set(),
        {
            ("s", "x"): ("a", {"s": 1}),
            ("s", "y"): ("b", {"t": 1}),
            ("t", "z"): ("b", {"t": 1}),
            ("u", "w"): ("a", {"u": 1}),
        },
        {"a", "b"},
    )
    paid = reward_objective(">=", 0, {"a": 1})
    cycle = MemorylessStrategy({"s": {"x": F(1)}, "t": {"z": F(1)}})
    assert solution_value(loop, cycle, paid) == INF  # closed rewarded cycle
    # the rewarded cycle at u is never reached
    escape = MemorylessStrategy({"s": {"y": F(1)}, "t": {"z": F(1)}})
    assert solution_value(loop, escape, paid) == 0


def _random_rewarded_models(rng):
    """A random PA and a random PA-reduction, each with rewards on a random
    subset of its labels (zero on the others)."""
    pa = random_pa(rng, "x", rng.randint(2, 6), ["a", "b", "c"], max_actions=3)
    reduced = pa_reduce(random_polytopic_rpa(rng, "u", ["a", "b", "c"], rng.randint(2, 4)))
    for m in (pa, reduced):
        labels = sorted(m.alphabet)
        rewarded = rng.sample(labels, k=rng.randint(0, len(labels)))
        yield m, {lab: F(rng.randint(1, 3), rng.randint(1, 3)) for lab in rewarded}


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32))
def test_policy_iteration_matches_the_fraction_reference(seed):
    """The integer policy iteration returns what the Fraction one returned:
    the same value, strategy (in the same order) and value dict for
    `max_reach`, and the same maximal expected total reward."""
    rng = random.Random(seed)
    for m, rewards in _random_rewarded_models(rng):
        targets = frozenset(rng.sample(m.states, k=rng.randint(1, 2)))
        policy, values = policy_iteration_reference(
            m,
            [s for s in m.states if s not in targets],
            lambda s, a: sum((p for t, p in m.dist(s, a).items() if t in targets), F(0)),
        )
        values = {s: F(1) if s in targets else values[s] for s in m.states}
        value, strategy, got = max_reach(m, targets)
        assert value == values.get(m.initial, F(0))
        assert list(strategy.choice.items()) == [(s, {a: F(1)}) for s, a in policy.items()]
        assert list(got.items()) == list(values.items())
        # the policy iteration of exp_total_reward runs only when no
        # reachable end component collects reward; unreachable states may
        # still be INF, which only the policy and value dict show
        total = exp_total_reward(m, rewards, "max")
        if total != INF:
            policy, values = policy_iteration_reference(
                m, m.states, lambda s, a: rewards.get(m.label[(s, a)], F(0))
            )
            assert total == values.get(m.initial, F(0))
            assert _policy_iteration(m, m.states, rewards) == (policy, values)


def _reward_lp_value(pa, rewards):
    """Maximal expected total reward by its LP over the states reachable from
    the initial one: minimise the sum of x[s] >= 0 subject to
    x[s] >= r(s, a) + sum_t P(s, a, t) x[t] for every enabled action.  With
    nonnegative rewards the least such x is the value vector, so the LP is
    infeasible iff some reachable state, and with it the initial one, has
    infinite value, which is when a reachable end component collects
    positive reward."""
    reach, stack = {pa.initial}, [pa.initial]
    while stack:
        s = stack.pop()
        for a in pa.enabled(s):
            for t, p in pa.dist(s, a).items():
                if p and t not in reach:
                    reach.add(t)
                    stack.append(t)
    col = {s: i for i, s in enumerate(s for s in pa.states if s in reach)}
    lp = LinearProgram(len(col))
    for s in col:
        for a in pa.enabled(s):
            row = {col[s]: F(1)}
            for t, p in pa.dist(s, a).items():
                if p:
                    row[col[t]] = row.get(col[t], F(0)) - p
            lp.add_lb(row, rewards.get(pa.label[(s, a)], F(0)))
    status, x, _ = lp.solve({i: F(1) for i in col.values()}, maximize=False)
    if status == INFEASIBLE:
        return INF
    assert status == OPTIMAL
    return x[col[pa.initial]]


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32))
def test_reward_maximum_agrees_with_its_lp(seed):
    rng = random.Random(seed)
    for m, rewards in _random_rewarded_models(rng):
        assert exp_total_reward(m, rewards, "max") == _reward_lp_value(m, rewards)


def test_chain_reward_maximum_is_policy_iteration():
    rng = random.Random(41)
    kinds = set()
    for _ in range(20):
        m = random_pa(rng, "e", 3, ["a", "b", "c"], max_actions=2)
        rew = {"a": F(rng.randint(1, 3), 2)}
        best = max(chain_expected_reward(m, sigma, rew) for sigma in enumerate_memoryless(m))
        assert exp_total_reward(m, rew, "max") == best
        kinds.add(best == INF)
    assert kinds == {True, False}  # divergent and finite maxima both occur


# ---------------------------------------------------------------------------
# mo_achievable
# ---------------------------------------------------------------------------

def test_single_objective_reduces_to_reachability():
    m1 = instantiate(corpus.retry_component(), {"p": F(1, 10)})
    obj = safety(corpus.limit_one_a_dfa(), F(9, 10))
    status, wit = mo_achievable(m1, (obj,), "cmp")
    assert status == "achievable"
    # and the negation is exactly as hard as the max-reach complement
    status2, _ = mo_achievable(m1, (obj.negate(),), "cmp")
    assert status2 == "unachievable"


def test_empty_query_achievable():
    pa = instantiate(corpus.retry_component(), {"p": F(1, 10)})
    assert mo_achievable(pa, (), "cmp")[0] == "achievable"
    assert mo_achievable(pa, (), "prt")[0] == "achievable"


def test_fork_randomization_tradeoff():
    fork = make_ppa(
        ["s", "l", "r"],
        "s",
        set(),
        {("s", "gl"): ("left", {"l": 1}), ("s", "gr"): ("right", {"r": 1})},
        {"left", "right"},
    )
    never_l = ProbObjective("<=", F(1, 4), dfa_forbid_symbols({"left"}, fork.alphabet))
    never_r = ProbObjective("<=", F(1, 4), dfa_forbid_symbols({"right"}, fork.alphabet))
    assert mo_achievable(fork, (never_l, never_r), "cmp")[0] == "unachievable"
    relaxed = tuple(
        ProbObjective("<=", F(1, 2), o.dfa) for o in (never_l, never_r)
    )
    status, wit = mo_achievable(fork, relaxed, "cmp")
    assert status == "achievable"
    assert all(v == F(1, 2) for v in wit["values"].values())


def test_witness_values_recheck_exactly():
    pa = instantiate(composed(), V)
    obj = ProbObjective("<", F(99, 100), corpus.no_fail_dfa())
    status, wit = mo_achievable(pa, (obj,), "cmp")
    # the minimum of the safety value is exactly 99/100, so dipping below is
    # impossible
    assert status == "unachievable"
    at = ProbObjective("<=", F(99, 100), corpus.no_fail_dfa())
    status, wit = mo_achievable(pa, (at,), "cmp")
    assert status == "achievable"
    assert list(wit["values"].values())[0] == F(99, 100)


def test_strict_thresholds():
    pa = instantiate(corpus.retry_component(), {"p": F(1, 10)})
    dfa = corpus.limit_one_a_dfa()
    # P(L) can hit exactly 9/10 [always retry] but never drop below it
    assert mo_achievable(pa, (ProbObjective("<=", F(9, 10), dfa),), "cmp")[0] == "achievable"
    assert mo_achievable(pa, (ProbObjective("<", F(9, 10), dfa),), "cmp")[0] == "unachievable"
    assert mo_achievable(pa, (ProbObjective(">", F(9, 10), dfa),), "cmp")[0] == "achievable"


def test_large_occupation_lp_probe():
    # two 8-state random components: a 116-row, 430-column occupation LP
    rng = random.Random(5)
    m1 = random_pa(rng, "l", 8, ["a", "b"])
    m2 = random_pa(rng, "r", 8, ["a", "c"])
    comp = compose(m1, m2)
    obj = safety(random_safety_dfa(rng, sorted(comp.alphabet)), F(1, 2))
    status, wit = mo_achievable(comp, (obj,), "prt")
    assert status == "achievable"
    (value,) = wit["values"].values()
    assert value >= obj.threshold


def test_prt_class_via_sink_extension():
    # stopping dodges the second 'a', which no complete strategy of this
    # one-action chain can do
    forced = make_ppa(
        ["u0", "u1"],
        "u0",
        set(),
        {("u0", "x"): ("a", {"u1": 1}), ("u1", "y"): ("a", {"u1": 1})},
        {"a", "b"},
    )
    avoid_two = safety(corpus.limit_one_a_dfa(), 1)
    assert mo_achievable(forced, (avoid_two,), "cmp")[0] == "unachievable"
    assert mo_achievable(forced, (avoid_two,), "prt")[0] == "achievable"


def test_reward_objective_in_query():
    pa = instantiate(corpus.pipeline_component(), V)
    rew = reward_objective(">=", F(19, 10), {"a": 1})
    assert mo_achievable(pa, (rew,), "cmp")[0] == "achievable"
    too_much = reward_objective(">", F(19, 10), {"a": 1})
    assert mo_achievable(pa, (too_much,), "cmp")[0] == "unachievable"


def test_unbounded_reward_rejected():
    loop = make_ppa(["s"], "s", set(), {("s", "l"): ("a", {"s": 1})}, {"a"})
    rew = reward_objective(">=", 5, {"a": 1})
    with pytest.raises(UnboundedReward):
        mo_achievable(loop, (rew,), "cmp")


def test_negative_reward_rejected(monkeypatch):
    pa = instantiate(corpus.pipeline_component(), V)

    def no_lp(*args):
        raise AssertionError("an LP was built for a negative reward")

    monkeypatch.setattr("pacomp.verify.LinearProgram", no_lp)
    for cmp in (">=", "<="):
        with pytest.raises(ValueError, match="the reward of 'a' is negative"):
            mo_achievable(pa, (reward_objective(cmp, -1, {"a": -1}),), "cmp")
    # a parametric reward is checked at every sample before the first solve
    m2 = corpus.pipeline_component()
    signed = reward_objective(">=", 0, {"a": Polynomial.var("p") - F(1, 2)})
    box = Box.of({"p": (0, 1), "q": (0, 1)})
    for check in (lambda: region_sat(m2, box, (signed,)),
                  lambda: ag_triple_check(m2, box, (), (signed,)),
                  lambda: monotone_check(m2, box, signed, "p", "up")):
        with pytest.raises(SideConditionError, match="the reward of 'a' is negative at the sample "
                           r"\{'p': Fraction\(0, 1\), 'q': Fraction\(0, 1\)\}"):
            check()


def test_alphabet_mismatch_rejected():
    pa = instantiate(corpus.retry_component(), {"p": F(1, 10)})
    stray = safety(dfa_forbid_symbols({"z"}, {"z"}), 1)
    with pytest.raises(AlphabetMismatch):
        mo_achievable(pa, (stray,), "cmp")


# ---------------------------------------------------------------------------
# region_sat / ag_triple_check
# ---------------------------------------------------------------------------

def test_region_sat_holds_and_fails():
    m1 = corpus.retry_component()
    A = (safety(corpus.limit_one_a_dfa(), F(9, 10)),)
    assert region_sat(m1, Box.of({"p": (0, F(1, 10))}), A, "cmp", 2).holds
    verdict = region_sat(m1, FiniteRegion.of([{"p": F(1, 5)}]), A, "cmp")
    assert verdict.status == "fails"
    assert verdict.witness["valuation"] == {"p": F(1, 5)}
    assert verdict.witness["strategy"] is not None


def test_region_sat_vacuous_on_empty_region():
    m1 = corpus.retry_component()
    A = (safety(corpus.limit_one_a_dfa(), F(9, 10)),)
    assert region_sat(m1, FiniteRegion.of([]), A, "cmp").holds


def test_region_sat_rejects_ill_defined_sample():
    m1 = corpus.retry_component()
    A = (safety(corpus.limit_one_a_dfa(), F(9, 10)),)
    with pytest.raises(IllDefinedValuationInRegion):
        region_sat(m1, FiniteRegion.of([{"p": 2}]), A, "cmp")


def test_partial_vs_complete_agree_on_safety():
    rng = random.Random(41)
    for _ in range(8):
        pa = random_pa(rng, "z", 3, ["a", "b"], max_actions=2)
        dfa = random_safety_dfa(rng, ["a", "b"])
        query = (safety(dfa, F(rng.randint(0, 4), 4)),)
        region = FiniteRegion.of([{}])
        cmp_v = region_sat(pa, region, query, "cmp")
        prt_v = region_sat(pa, region, query, "prt")
        assert cmp_v.status == prt_v.status


def test_triple_on_extended_pipeline():
    from pacomp.model import alphabet_extend

    m2 = corpus.pipeline_component()
    ext = alphabet_extend(m2, {"a", "b"})
    A = (safety(corpus.limit_one_a_dfa(), F(9, 10)),)
    G = (safety(corpus.no_fail_dfa(), F(9, 10)),)
    inside = FiniteRegion.of(
        [{"p": F(1, 10), "q": F(1, 2)}, {"p": F(1, 2), "q": F(1, 2)}, {"p": 0, "q": 1}]
    )
    assert ag_triple_check(ext, inside, A, G, "prt").holds
    outside = FiniteRegion.of([{"p": F(1, 2), "q": F(3, 4)}])  # q > 1 - p
    verdict = ag_triple_check(ext, outside, A, G, "prt")
    assert verdict.status == "fails"


def test_triple_tautology():
    m2 = corpus.pipeline_component()
    dfa = dfa_forbid_symbols({"fail"}, {"a", "c", "fail"})
    A = (safety(dfa, F(9, 10)),)
    region = Box.of({"p": (0, 1), "q": (0, 1)})
    assert ag_triple_check(m2, region, A, A, "prt", 1).holds


def test_negation_duality():
    # a failing triple exposes a strategy achieving assumption plus one
    # negated guarantee
    from pacomp.model import alphabet_extend

    ext = alphabet_extend(corpus.pipeline_component(), {"a", "b"})
    A = (safety(corpus.limit_one_a_dfa(), F(9, 10)),)
    G = (safety(corpus.no_fail_dfa(), F(9, 10)),)
    v = {"p": F(1, 2), "q": F(3, 4)}
    verdict = ag_triple_check(ext, FiniteRegion.of([v]), A, G, "prt")
    assert verdict.status == "fails"
    bad = A + (G[0].negate(),)
    assert mo_achievable(instantiate(ext, v), bad, "prt")[0] == "achievable"


# ---------------------------------------------------------------------------
# monotonicity
# ---------------------------------------------------------------------------

def test_solution_function_values_decrease_in_q():
    comp = composed()
    lo = poly_eval(SOLUTION, {"p": F(1, 10), "q": 0})
    hi = poly_eval(SOLUTION, {"p": F(1, 10), "q": 1})
    assert lo == F(999, 1000) and hi == F(909, 1000) and lo >= hi
    obj = safety(corpus.no_fail_dfa(), 1)
    sigma_vals = []
    for q in (0, 1):
        v = {"p": F(1, 10), "q": F(q)}
        inst = instantiate(comp, v)
        sigma_vals.append(
            chain_language_prob(inst, corpus.priority_strategy(inst), obj.dfa)
        )
    assert sigma_vals == [lo, hi]


def test_monotone_check_composition():
    comp = composed()
    obj = safety(corpus.no_fail_dfa(), 1)
    box = Box.of({"p": (0, 1), "q": (0, 1)})
    verdict = monotone_check(comp, box, obj, "q", "down", "cmp", resolution=1)
    assert verdict.holds
    up = monotone_check(comp, box, obj, "q", "up", "cmp", resolution=1)
    assert up.status == "fails"
    w = up.witness
    assert w["value_low"] > w["value_high"]


def test_monotone_check_constant_objective():
    m1 = corpus.retry_component()
    const_dfa = dfa_forbid_symbols((), {"a", "b", "c"})
    obj = safety(const_dfa, 1)
    box = Box.of({"p": (0, 1)})
    assert monotone_check(m1, box, obj, "p", "up", "cmp").holds
    assert monotone_check(m1, box, obj, "p", "down", "cmp").holds


def test_monotone_check_prt_uses_sink_extension():
    m2 = corpus.pipeline_component()
    obj = safety(dfa_forbid_symbols({"fail"}, {"a", "c", "fail"}), 1)
    box = Box.of({"p": (0, 1), "q": (0, 1)})
    assert monotone_check(m2, box, obj, "q", "down", "prt", resolution=1).holds


def test_enumerate_memoryless_counts():
    pa = instantiate(corpus.pipeline_component(), V)
    dets = enumerate_memoryless(pa, 1)
    assert len(dets) == 1  # every state has a single enabled action
    forked = make_ppa(
        ["s", "l", "r"],
        "s",
        set(),
        {("s", "gl"): ("a", {"l": 1}), ("s", "gr"): ("b", {"r": 1})},
        {"a", "b"},
    )
    assert len(enumerate_memoryless(forked, 1)) == 2
    grid = enumerate_memoryless(forked, 2)
    assert len(grid) == 3  # (1,0), (1/2,1/2), (0,1)


def test_maximal_end_components():
    pa = instantiate(corpus.pipeline_component(), V)
    mecs = maximal_end_components(pa.trans, pa.states)
    found = {frozenset(states) for states, _ in mecs}
    assert frozenset({"t3"}) in found and frozenset({"t4"}) in found


def test_alphabet_extension_preserves_objectives():
    # adding fresh self-loops changes neither safety values of objectives over
    # the original alphabet nor mo-query verdicts
    m2 = corpus.pipeline_component()
    ext = alphabet_extend(m2, {"b"})
    dfa = dfa_forbid_symbols({"fail"}, {"a", "c", "fail"})
    for v in ({"p": F(1, 10), "q": F(1, 10)}, {"p": F(1, 2), "q": F(2, 3)}):
        obj = safety(dfa, F(9, 10))
        assert safety_prob(instantiate(m2, v), obj) == safety_prob(instantiate(ext, v), obj)
        for cls in ("cmp", "prt"):
            a = mo_achievable(instantiate(m2, v), (obj.negate(),), cls)[0]
            b = mo_achievable(instantiate(ext, v), (obj.negate(),), cls)[0]
            assert a == b


def test_witness_values_satisfy_objectives():
    rng = random.Random(61)
    checked = 0
    while checked < 15:
        pa = random_pa(rng, "w", 3, ["a", "b"], max_actions=2)
        dfa1 = random_safety_dfa(rng, ["a", "b"], allow_empty=False)
        dfa2 = random_safety_dfa(rng, ["a", "b"], allow_empty=False)
        query = (
            ProbObjective(rng.choice([">=", "<=", ">", "<"]), F(rng.randint(0, 4), 4), dfa1),
            ProbObjective(rng.choice([">=", "<="]), F(rng.randint(0, 4), 4), dfa2),
        )
        status, wit = mo_achievable(pa, query, rng.choice(["cmp", "prt"]))
        if status != "achievable":
            continue
        checked += 1
        values = list(wit["values"].values())
        for obj, val in zip(query, values):
            if obj.cmp == ">=":
                assert val >= obj.threshold
            elif obj.cmp == ">":
                assert val > obj.threshold
            elif obj.cmp == "<=":
                assert val <= obj.threshold
            else:
                assert val < obj.threshold


def test_monotone_check_reward_objective():
    # expected a-count in the pipeline is 1 + (1-p): decreasing in p
    m2 = corpus.pipeline_component()
    rew = reward_objective(">=", 0, {"a": 1})
    box = Box.of({"p": (0, 1), "q": (0, 1)})
    assert monotone_check(m2, box, rew, "p", "down", "cmp", resolution=1).holds
    verdict = monotone_check(m2, box, rew, "p", "up", "cmp", resolution=1)
    assert verdict.status == "fails"


def test_fixed_strategy_values_by_hand():
    # s loops on x (label a) with probability 1 - p and otherwise ends in g;
    # y (label b) ends in g; the a-loop at u is never reached
    p = Polynomial.var("p")
    m = make_ppa(
        ["s", "g", "u"], "s", {"p"},
        {("s", "x"): ("a", {"s": 1 - p, "g": p}), ("s", "y"): ("b", {"g": 1}),
         ("u", "w"): ("a", {"u": 1})},
        {"a", "b"},
    )
    one_a = safety(corpus.limit_one_a_dfa(), 0)  # at most one a
    paid = reward_objective(">=", 0, {"a": 1, "b": 2})
    mixture = {"s": {"x": F(1, 2), "y": F(1, 2)}}
    partial = {"s": {"x": F(1, 2)}}  # the other half stops
    disabled = {"s": {"x": F(1, 2), "z": F(1, 2)}, "g": {"x": F(1)}}  # z, x ignored
    # by hand: Pr(at most one a) = 1/2 + 1/2 (p + (1-p)/2) = 3/4 + p/4 under all three;
    # reward R = 1/2 (1 + (1-p) R) + 1/2 * 2 = 3/(1+p) under the mixture, and
    # R = 1/2 (1 + (1-p) R) = 1/(1+p) when the other half stops
    for q in (F(1, 4), F(1, 2)):
        inst = instantiate(m, {"p": q})
        for choice, reward in ((mixture, 3 / (1 + q)), (partial, 1 / (1 + q)),
                               (disabled, 1 / (1 + q))):
            sigma = MemorylessStrategy(choice)
            assert chain_language_prob(inst, sigma, one_a.dfa) == F(3, 4) + q / 4
            assert chain_expected_reward(inst, sigma, paid.reward_map()) == reward
        # the unreachable rewarded cycle adds nothing
        sigma = MemorylessStrategy({"s": {"y": F(1)}, "u": {"w": F(1)}})
        assert chain_expected_reward(inst, sigma, {"a": 1, "b": 2}) == 2
        with pytest.raises(AlphabetMismatch):
            chain_expected_reward(inst, sigma, {"zz": 1})

    # monotone_check's witness is the first violating strategy of the class and
    # carries the same values: with step 1/2 the class starts y, then the mixture
    lo, hi = {"p": F(1, 4)}, {"p": F(1, 2)}
    region = FiniteRegion.of([lo, hi])
    for obj, direction, cls, witness, values in (
        (one_a, "down", "cmp", mixture, (F(13, 16), F(7, 8))),
        (paid, "up", "cmp", mixture, (F(12, 5), F(2))),
        # on the tau extension, stopping half of the time comes before the mixture
        (paid, "up", "prt", {"s": {"x": F(1, 2), ("tau",): F(1, 2)}}, (F(4, 5), F(2, 3))),
    ):
        verdict = monotone_check(m, region, obj, "p", direction, cls, grid_denominator=2)
        w = verdict.witness
        assert verdict.status == "fails" and (w["low"], w["high"]) == (lo, hi)
        assert {s: w["strategy"][s] for s in witness} == witness
        assert (w["value_low"], w["value_high"]) == values
        work = tau_extend(m) if cls == "prt" else m
        sigma = MemorylessStrategy(w["strategy"])
        for v, value in zip((lo, hi), values):
            assert solution_value(instantiate(work, v), sigma, obj) == value
    with pytest.raises(AlphabetMismatch):
        monotone_check(m, region, reward_objective(">=", 0, {"zz": 1}), "p", "up")


def test_partial_equals_complete_on_sink_extension():
    # partial-strategy achievability on a model coincides with complete-
    # strategy achievability on its sink extension, and optimal reachability
    # is unaffected by the added stopping branch
    from pacomp.model import tau_extend

    rng = random.Random(67)
    for _ in range(8):
        pa = random_pa(rng, "e", 3, ["a", "b"], max_actions=2)
        dfa = random_safety_dfa(rng, ["a", "b"], allow_empty=False)
        query = (ProbObjective(rng.choice(["<=", ">="]), F(rng.randint(0, 4), 4), dfa),)
        assert (
            mo_achievable(pa, query, "prt")[0]
            == mo_achievable(tau_extend(pa), query, "cmp")[0]
        )
        target = {rng.choice(pa.states)}
        assert max_reach(pa, target)[0] == max_reach(tau_extend(pa), target)[0]


def test_minimal_reward_escapes_tied_zero_cycles():
    # A and B can ping-pong for free forever: the minimum is 0 even though
    # greedy one-step improvement from the pay-now policy sees only ties
    pa = make_ppa(
        ["A", "B", "sink"],
        "A",
        set(),
        {
            ("A", "a_pay"): ("pay5", {"sink": 1}),
            ("A", "b_go"): ("free", {"B": 1}),
            ("B", "a_back"): ("free", {"A": 1}),
            ("B", "b_pay"): ("pay100", {"sink": 1}),
            ("sink", "s"): ("idle", {"sink": 1}),
        },
        {"pay5", "pay100", "free", "idle"},
    )
    rew = {"pay5": 5, "pay100": 100}
    assert exp_total_reward(pa, rew, "min") == 0
    assert exp_total_reward(pa, rew, "max") == 100
    for mode in ("minimum", "Max"):
        with pytest.raises(ValueError):
            exp_total_reward(pa, rew, mode)


def test_minimal_reward_forced_payment():
    pa = make_ppa(
        ["A", "B", "sink"],
        "A",
        set(),
        {
            ("A", "x"): ("pay5", {"sink": 1}),
            ("A", "y"): ("go", {"B": 1}),
            ("B", "z"): ("pay2", {"sink": F(1, 2), "B": F(1, 2)}),
            ("sink", "s"): ("idle", {"sink": 1}),
        },
        {"pay5", "pay2", "go", "idle"},
    )
    # expected two pay2 steps on the cheap route
    assert exp_total_reward(pa, {"pay5": 5, "pay2": 2}, "min") == 4
    # agreement with exhaustive policy evaluation on random small models
    rng = random.Random(91)
    for _ in range(10):
        m = random_pa(rng, "g", 3, ["a", "b"], max_actions=2)
        rew = {"a": F(rng.randint(0, 3), 2)}
        got = exp_total_reward(m, rew, "min")
        best = None
        decisions = [(s, m.enabled(s)) for s in m.states if m.enabled(s)]
        for combo in itertools.product(*(acts for _, acts in decisions)):
            policy = {s: {a: F(1)} for (s, _), a in zip(decisions, combo)}
            v = chain_expected_reward(m, MemorylessStrategy(policy), rew)
            best = v if best is None else min(best, v)
        # memoryless deterministic policies attain the minimum here
        assert got == best


def test_region_sat_agrees_with_direct_safety_values():
    # the LP-based violation search and the policy-iteration safety solver
    # are independent routes to the same verdict on single safety objectives
    rng = random.Random(73)
    agreements = 0
    for _ in range(25):
        pa = random_pa(rng, "d", 3, ["a", "b"], max_actions=2)
        dfa = random_safety_dfa(rng, ["a", "b"], allow_empty=False)
        minimum = safety_prob(pa, safety(dfa, 1))
        for delta, expect in ((F(0), "holds"), (F(1, 16), "fails")):
            threshold = minimum + delta
            if threshold > 1:
                continue
            verdict = region_sat(
                pa, FiniteRegion.of([{}]), (safety(dfa, threshold),), "cmp"
            )
            if expect == "holds":
                assert verdict.holds, (threshold, minimum)
            else:
                # strictly above the attainable minimum must fail unless the
                # minimum is not tight within [0,1]
                assert verdict.status == "fails", (threshold, minimum)
            agreements += 1
    assert agreements >= 25


def test_mixed_probability_and_reward_query():
    fork = make_ppa(
        ["s", "l", "r"],
        "s",
        set(),
        {
            ("s", "gl"): ("left", {"l": 1}),
            ("s", "gr"): ("right", {"r": 1}),
        },
        {"left", "right"},
    )
    never_left = ProbObjective(">=", F(1, 4), dfa_forbid_symbols({"left"}, fork.alphabet))
    paid = reward_objective(">=", F(1), {"left": 2})
    status, wit = mo_achievable(fork, (never_left, paid), "cmp")
    # feasible exactly when P(left) can sit in [1/2, 3/4]
    assert status == "achievable"
    vals = list(wit["values"].values())
    assert vals[0] >= F(1, 4) and vals[1] >= 1
    # the two-mode witness: mix actions, then settle and stay on zero reward
    assert wit["mix"] == {
        ("s", ("ok",)): {"gl": F(1, 2), "gr": F(1, 2)},
        ("l", ("bad",)): {},
        ("r", ("ok",)): {},
    }
    assert wit["settle"] == {("l", ("bad",)): 1, ("r", ("ok",)): 1}
    assert wit["stay"] == {("s", ("ok",)): "gr"}
    tight = (
        ProbObjective(">=", F(1, 2), never_left.dfa),
        reward_objective(">=", F(3, 2), {"left": 2}),
    )
    assert mo_achievable(fork, tight, "cmp")[0] == "unachievable"


def _outcome(check, *args):
    """The verdict of a region check, or the type and message of its error."""
    try:
        return check(*args)
    except PacompError as exc:
        return type(exc).__name__, str(exc)


def test_region_checks_match_per_sample_reference():
    # one structure per region (and sign pattern) must give the verdict,
    # failing valuation and full witness of solving every sample anew;
    # the p = 0 and p = 1 corners are not graph-preserving, the reward p
    # vanishes at p = 0, and (1 - 2p)^2 at the graph-preserving p = 1/2
    rng = random.Random(71)
    p = Polynomial.var("p")
    rewards = (p, (1 - 2 * p) * (1 - 2 * p))
    seen = set()
    for case in range(16):
        m = compose(*random_parametric_pair(rng))
        alphabet = sorted(m.alphabet)
        prob = ProbObjective(rng.choice([">=", ">", "<=", "<"]), F(rng.randint(0, 4), 4),
                             random_safety_dfa(rng, alphabet, allow_empty=False))
        assumption = (safety(random_safety_dfa(rng, alphabet, allow_empty=False),
                             F(rng.randint(0, 4), 4)),)
        reward = reward_objective(rng.choice([">=", ">", "<=", "<"]), F(rng.randint(0, 3), 2),
                                  {rng.choice(alphabet): rng.choice(rewards)})
        query = rng.choice([(prob,), (prob, reward), (reward,)])
        box = Box.of({"p": (0, rng.choice([F(1, 2), F(1)]))})
        resolution = rng.randint(1, 2)
        for cls in ("cmp", "prt"):
            got = _outcome(region_sat, m, box, query, cls, resolution)
            assert got == _outcome(region_sat_per_sample, m, box, query, cls, resolution)
            seen.add(("sat", reward in query, getattr(got, "status", "error")))
            got = _outcome(ag_triple_check, m, box, assumption, query, cls, resolution)
            assert got == _outcome(
                ag_triple_check_per_sample, m, box, assumption, query, cls, resolution
            )
            seen.add(("triple", reward in query, getattr(got, "status", "error")))
            work = tau_extend(m) if cls == "prt" else m
            if len(enumerate_memoryless(work)) <= 64:
                for objective in query:
                    args = (m, box, objective, "p", rng.choice(["up", "down"]), cls, resolution)
                    got = _outcome(monotone_check, *args)
                    assert got == _outcome(monotone_check_per_sample, *args)
                    seen.add(("monotone", objective is reward, getattr(got, "status", "error")))
    # both verdicts, with and without a reward objective, occur
    for kind in ("sat", "triple"):
        for with_reward in (False, True):
            assert {(kind, with_reward, "holds"), (kind, with_reward, "fails")} <= seen
    assert {("monotone", False, "holds"), ("monotone", False, "fails")} <= seen


def test_monotone_along_a_point_axis_compares_no_pair():
    # q is a point interval, so every line of samples along q holds one
    # sample and there is no pair to compare; along p there are pairs
    rng = random.Random(11)
    m = compose(*random_parametric_pair(rng, params=("p", "q")))
    box = Box.of({"p": (0, 1), "q": (F(1, 3), F(1, 3))})
    objective = safety(random_safety_dfa(rng, sorted(m.alphabet), allow_empty=False), F(1, 2))
    outcomes = {}
    for param in ("q", "p"):
        for direction in ("up", "down"):
            args = (m, box, objective, param, direction, "cmp", 2)
            outcomes[param, direction] = _outcome(monotone_check, *args)
            assert outcomes[param, direction] == _outcome(monotone_check_per_sample, *args)
    assert outcomes["q", "up"].status == outcomes["q", "down"].status == "holds"
    assert "fails" in (outcomes["p", "up"].status, outcomes["p", "down"].status)


def test_reward_that_vanishes_at_a_graph_preserving_sample():
    # (1 - 4p)^2 is zero at p = 1/4 and positive at 3/8, where the b-loop is
    # an end component with positive reward; both samples preserve the graph,
    # so only the reward's sign tells their structures apart
    p = Polynomial.var("p")
    m = make_ppa(
        ["s0", "s1", "s2"], "s0", {"p"},
        {
            ("s0", "x"): ("a", {"s1": p, "s2": 1 - p}),
            ("s1", "y"): ("b", {"s1": 1}),
            ("s2", "z"): ("c", {"s2": 1}),
        },
        {"a", "b", "c"},
    )
    reward = reward_objective("<=", 1, {"b": (1 - 4 * p) * (1 - 4 * p)})
    box = Box.of({"p": (F(1, 4), F(1, 2))})
    for cls in ("cmp", "prt"):
        expected = _outcome(region_sat_per_sample, m, box, (reward,), cls)
        assert expected[0] == "UnboundedReward"
        assert _outcome(region_sat, m, box, (reward,), cls) == expected
        trivial = (safety(dfa_forbid_symbols((), m.alphabet), 0),)
        assert _outcome(ag_triple_check, m, box, trivial, (reward,), cls) == _outcome(
            ag_triple_check_per_sample, m, box, trivial, (reward,), cls
        )
