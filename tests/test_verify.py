import functools
import itertools
import math
import random
import time
from fractions import Fraction as F
from math import gcd

import networkx as nx
import pytest
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st

from pacomp import corpus, exactlp, paper_suite, verify
from pacomp.algebra import Box, FiniteRegion, Polynomial, PolyTable, parse_poly, poly_eval, region_samples
from pacomp.errors import (
    AlphabetMismatch,
    PacompError,
    IllDefinedValuationInRegion,
    SideConditionError,
    StrategyCapExceeded,
    UnboundedReward,
)
from pacomp.exactlp import INFEASIBLE, OPTIMAL, LinearProgram
from pacomp.model import (
    DFA,
    alphabet_extend,
    compose,
    dfa_forbid_prefix,
    dfa_forbid_symbols,
    instantiate,
    make_ppa,
    sort_key,
    tau_extend,
)
from pacomp.proofrules import apply_asym_n
from pacomp.robust import pa_reduce
from pacomp.semantics import MemorylessStrategy
from pacomp.verify import (
    INF,
    _MoQuery,
    _chain_fill,
    _chain_plan,
    _end_component_keys,
    _policy_iteration,
    _policy_shape,
    _slotted,
    ProbObjective,
    chain_language_prob,
    enumerate_memoryless,
    exp_total_reward,
    max_reach,
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
    RationalLP,
    ag_triple_check_per_sample,
    chain_solve_reference,
    end_component_keys_reference,
    fraction_solve,
    k_component_family,
    monotone_check_per_sample,
    occupation_rows_reference,
    policy_iteration_reference,
    random_memoryless_strategy,
    random_pa,
    random_parametric_pair,
    random_polytopic_rpa,
    random_safety_dfa,
    region_sat_per_sample,
    renamed_ppa,
    settle_reference,
    strategy_value_reference,
    successor_sets,
    tableau_reference,
    weight_profiles_reference,
    witness_values_reference,
)

SOLUTION = parse_poly(paper_suite.SOLUTION_FORMULA)
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
    """On models with 2-4 states, some with zero-probability entries, the
    maximal reach is the best of every det memoryless policy's; both a
    target out of reach (a settled 0) and a solved value occur."""
    kinds = set()

    @settings(max_examples=60)
    @given(st.integers(0, 2**32), st.integers(2, 4), st.booleans())
    def check(seed, n_states, zeros):
        rng = random.Random(seed)
        pa = random_pa(rng, "x", n_states, ["a", "b"], max_actions=2, zeros=zeros)
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
        kinds.add(value == 0)

    check()
    assert kinds == {True, False}


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
    lp = RationalLP(len(unknown))
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


@settings(max_examples=40)
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
    """On models with 2-4 states, some with zero-probability entries, the
    minimal safety probability is the least of every det memoryless
    strategy's; both bad states out of reach (a settled 0) and a solved
    value occur."""
    kinds = set()

    @settings(max_examples=40)
    @given(st.integers(0, 2**32), st.integers(2, 4), st.booleans())
    def check(seed, n_states, zeros):
        rng = random.Random(seed)
        pa = random_pa(rng, "y", n_states, ["a", "b"], max_actions=2, zeros=zeros)
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
        kinds.add(got == 1)

    check()
    assert kinds == {True, False}


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


def test_expected_reward_max_takes_an_action_into_a_rewarded_closed_class():
    # the first action x of s leads to an unrewarded loop, whose value is
    # finite; policy improvement must switch s to y, whose backup is INF
    pa = make_ppa(
        ["s", "u", "v"],
        "s",
        set(),
        {
            ("s", "x"): ("a", {"u": 1}),
            ("s", "y"): ("b", {"v": 1}),
            ("u", "ul"): ("idle", {"u": 1}),
            ("v", "vl"): ("pay", {"v": 1}),
        },
        {"a", "b", "pay", "idle"},
    )
    assert exp_total_reward(pa, {"pay": 1}, "max") == INF
    assert exp_total_reward(pa, {"pay": 1}, "min") == 0


def test_an_initially_bad_product_state_has_probability_zero():
    pa = instantiate(corpus.pipeline_component(), V)
    every_word = dfa_forbid_prefix((), pa.alphabet)  # the empty prefix is bad
    assert safety_prob(pa, safety(every_word, 0)) == 0
    assert solution_value(pa, corpus.priority_strategy(pa), safety(every_word, 0)) == 0


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


def test_a_closed_cycle_that_leaks_mass_has_a_finite_value():
    """A partial strategy's go rows lose mass, so a rewarded self-loop played
    with weight 1/2 is left with probability 1: v = 1/2 + v/2 gives 1.  The
    same loop played with its whole mass stays INF."""
    m = make_ppa(["s"], "s", set(), {("s", "loop"): ("a", {"s": 1})}, {"a"})
    paid = reward_objective("<=", 5, {"a": 1})
    assert solution_value(m, MemorylessStrategy({"s": {"loop": F(1, 2)}}, complete=False), paid) == 1
    for complete in (False, True):
        assert solution_value(m, MemorylessStrategy({"s": {"loop": F(1)}}, complete), paid) == INF


def _random_rewarded_models(rng):
    """A random PA and a random PA-reduction, each with rewards on a random
    subset of its labels (zero on the others)."""
    pa = random_pa(rng, "x", rng.randint(2, 6), ["a", "b", "c"], max_actions=3)
    reduced = pa_reduce(random_polytopic_rpa(rng, "u", ["a", "b", "c"], rng.randint(2, 4)))
    for m in (pa, reduced):
        labels = sorted(m.alphabet)
        rewarded = rng.sample(labels, k=rng.randint(0, len(labels)))
        yield m, {lab: F(rng.randint(1, 3), rng.randint(1, 3)) for lab in rewarded}


@settings(max_examples=60)
@given(st.integers(0, 2**32))
def test_policy_iteration_matches_the_fraction_reference(seed):
    """The integer policy iteration returns what the Fraction one returned:
    the same value, strategy (in the same order) and value dict for
    `max_reach`, and the same maximal expected total reward; from a random
    start policy it returns the same values."""
    rng = random.Random(seed)
    for m, rewards in _random_rewarded_models(rng):
        targets = frozenset(rng.sample(m.states, k=rng.randint(1, 2)))
        policy, values = policy_iteration_reference(
            m,
            [s for s in m.states if s not in targets],
            lambda s, a: sum((p for t, p in m.dist(s, a).items() if t in targets), F(0)),
        )
        reach = {s: F(1) if s in targets else values[s] for s in m.states}
        value, strategy, got = max_reach(m, targets)
        assert value == reach.get(m.initial, F(0))
        assert list(strategy.choice.items()) == [(s, {a: F(1)}) for s, a in policy.items()]
        assert list(got.items()) == list(reach.items())
        # the maximal expected total reward is policy iteration's value,
        # INF included; the policy and the value dict of every state agree
        policy, values = policy_iteration_reference(
            m, m.states, lambda s, a: rewards.get(m.label[(s, a)], F(0))
        )
        assert exp_total_reward(m, rewards, "max") == values[m.initial]
        table = PolyTable()
        succ = _slotted(m, table)
        gains = {key: (table.slot(rewards[lab]),) for key, lab in m.label.items() if lab in rewards}
        acts = {s: m.enabled(s) for s in m.states}
        point = table.at({})

        def solve(start=None, gains=gains, stop=()):
            # the values leave as int numerators over one denominator V
            shape = _policy_shape(m.states, acts, succ, point[1], gains, stop)
            chosen, (den, x) = _policy_iteration(shape, point, start)
            finite = [v for v in x.values() if v is not INF]
            assert den > 0 and all(type(v) is int for v in finite)
            assert gcd(den, *finite) == 1
            return chosen, {s: v if v is INF else F(v, den) for s, v in x.items()}

        assert solve() == (policy, values)
        # from any start policy the values are the same, for the reward and
        # for the reachability of the targets
        start = {s: rng.choice(acts[s]) for s in m.states if acts[s]}
        assert solve(start)[1] == values
        start = {s: a for s, a in start.items() if s not in targets}
        into = {key: tuple(k for t, k in out if t in targets) for key, out in succ.items()}
        _, got = solve(start, gains=into, stop=targets)
        assert {s: F(1) if s in targets else v for s, v in got.items()} == reach


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
    lp = RationalLP(len(col))
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


@settings(max_examples=60)
@given(st.integers(0, 2**32))
def test_reward_maximum_agrees_with_its_lp(seed):
    rng = random.Random(seed)
    for m, rewards in _random_rewarded_models(rng):
        assert exp_total_reward(m, rewards, "max") == _reward_lp_value(m, rewards)


def test_chain_reward_maximum_is_policy_iteration():
    """The maximal expected total reward is the best value of a memoryless
    deterministic strategy's chain, on models with 2-5 states, some with
    zero-probability entries."""
    kinds = set()

    @settings(max_examples=60)
    @given(st.integers(0, 2**32), st.integers(2, 5), st.booleans())
    def check(seed, n_states, zeros):
        rng = random.Random(seed)
        m = random_pa(rng, "e", n_states, ["a", "b", "c"], max_actions=2, zeros=zeros)
        rew = {"a": F(rng.randint(1, 3), 2)}
        paid = reward_objective(">=", 0, rew)
        best = max(solution_value(m, sigma, paid) for sigma in enumerate_memoryless(m))
        assert exp_total_reward(m, rew, "max") == best
        kinds.add(best == INF)

    check()
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


def _query_points(m, objectives, strategy_class, valuations):
    """A fresh `_MoQuery` of a conjunction of objectives and its table vectors."""
    table = PolyTable()
    query = _MoQuery(m, objectives, strategy_class, table)
    return query, [table.at(v) for v in valuations]


@settings(max_examples=25)
@given(st.integers(0, 2**32))
def test_reach_decider_agrees_with_the_lp(seed):
    """`solve` decides each probability objective under < or <= of a
    conjunction alone, by maximal reach, before the LP.  On conjunctions of
    2-3 probability objectives under mixed comparisons, in both strategy
    classes and at the unit box's samples (the corners zero out entries), its
    verdict is the conjunction LP's (`_lp_solve`), and it leaves a sample to
    that LP iff every such objective is achievable by its own LP.  Each
    threshold is 1 - r for the maximal reach r of the objective's DFA at some
    sample (the tie) or 1/16 on either side.  Fresh queries solve the samples
    forward, in reverse, and from a random start policy for every objective at
    each sample, so a verdict cannot depend on the warm start."""
    rng = random.Random(seed)
    m = compose(*random_parametric_pair(rng))
    dfas = [random_safety_dfa(rng, sorted(m.alphabet), allow_empty=False)
            for _ in range(rng.randint(2, 3))]
    valuations = region_samples(Box.of({"p": (0, 1)}), rng.randint(1, 3))
    for cls in ("cmp", "prt"):
        objectives = []
        for dfa in dfas:
            query, points = _query_points(m, (ProbObjective("<", F(0), dfa),), cls, valuations)
            reach = rng.choice([query.bad_reach(point, 0) for point in points])
            threshold = 1 - reach + rng.choice((-F(1, 16), 0, F(1, 16)))
            objectives.append(ProbObjective(rng.choice(("<", "<=", ">=", ">")), threshold, dfa))
        query, points = _query_points(m, objectives, cls, valuations)
        expected = [query._lp_solve(point)[0] for point in points]
        decided = [False] * len(points)  # some < or <= objective is unachievable alone
        for o in objectives:
            if o.cmp in ("<", "<="):
                alone, points = _query_points(m, (o,), cls, valuations)
                for j, point in enumerate(points):
                    decided[j] |= alone._lp_solve(point)[0] == "unachievable"
        for order, scramble in ((1, False), (-1, False), (1, True)):
            query, points = _query_points(m, objectives, cls, valuations)
            lp_half, reached = query._lp_solve, []
            query._lp_solve = lambda point: reached.append(point) or lp_half(point)
            got, answered = [], []
            for point in points[::order]:
                if scramble:  # start from random policies, not the last optimal ones
                    for i, target in enumerate(query.targets):
                        query._policies[i] = {ps: rng.choice(query.acts[ps])
                                              for ps in query.states
                                              if ps not in target and query.acts[ps]}
                calls = len(reached)
                got.append(query.solve(point)[0])
                answered.append(len(reached) == calls)
            assert got == expected[::order]
            assert answered == decided[::order]


@settings(max_examples=25)
@given(st.integers(0, 2**32))
@example(1)  # the initial product state is a target: the empty witness
def test_a_single_objective_is_witnessed_by_its_optimal_policy(seed):
    """A query of one probability objective under < or <= is decided by
    `bad_reach`, and when it is achievable, its witness is the optimal
    policy that policy iteration reaches from each state's first action,
    with no LP.  The DFA's initial state may accept, which makes the witness
    empty.  In both strategy classes, at the unit box's samples (the
    corners zero out entries), with the threshold 1 - r for the maximal
    reach r at some sample (the tie) or 1/16 on either side: `solve`'s
    status is the LP's (`_lp_solve`), every witness plays one action with
    mass 1 per state and has no settle or stay mode, and its exactly
    re-checked value is 1 - r at its own sample."""
    rng = random.Random(seed)
    m = compose(*random_parametric_pair(rng))
    dfa = random_safety_dfa(rng, sorted(m.alphabet), initial=True)
    valuations = region_samples(Box.of({"p": (0, 1)}), rng.randint(1, 3))

    def no_lp(point):
        raise AssertionError("an LP was solved")

    for cls in ("cmp", "prt"):
        probe, points = _query_points(m, (ProbObjective("<", F(0), dfa),), cls, valuations)
        reaches = [probe.bad_reach(point, 0) for point in points]
        threshold = 1 - rng.choice(reaches) + rng.choice((-F(1, 16), 0, F(1, 16)))
        objective = ProbObjective(rng.choice(("<", "<=")), threshold, dfa)
        lp, points = _query_points(m, (objective,), cls, valuations)
        expected = [lp._lp_solve(point)[0] for point in points]
        query, points = _query_points(m, (objective,), cls, valuations)
        query._lp_solve = no_lp
        for point, reach, status in zip(points, reaches, expected):
            got, witness = query.solve(point)
            assert got == status
            if got == "achievable":
                assert witness["settle"] == witness["stay"] == {}
                assert all(list(dist.values()) == [1] for dist in witness["mix"].values())
                assert witness["values"] == {"objective-0": 1 - reach}


def test_a_query_violated_by_the_empty_word_has_the_empty_witness():
    """When the initial product state is a target, every strategy has the
    value 0, so the policy witness plays nothing."""
    m = make_ppa(["s0"], "s0", set(), {("s0", "go"): ("a", {"s0": 1})}, {"a"})
    hit = dfa_forbid_prefix((), {"a"})
    for cmp, threshold in (("<=", F(0)), ("<", F(1, 2))):
        status, witness = mo_achievable(m, (ProbObjective(cmp, threshold, hit),), "cmp")
        assert status == "achievable"
        assert (witness["mix"], witness["settle"], witness["stay"]) == ({}, {}, {})
        assert witness["values"] == {"objective-0": 0}
    assert mo_achievable(m, (ProbObjective("<", F(0), hit),), "cmp") == ("unachievable", None)


def test_an_objective_unachievable_alone_answers_a_query_with_rewards():
    """A probability objective under < that no strategy meets alone answers
    the conjunction without the LP, also beside a reward objective: no
    layout is built, so the end-component guard of `_layout` does not refuse
    the sample (the rewarded self-loop at s1 is reached w.p. p).  The verdict
    is the one without the reward."""
    p = Polynomial.var("p")
    m = make_ppa(
        ["s0", "s1", "s2"],
        "s0",
        {"p"},
        {("s0", "go"): ("a", {"s1": p, "s2": 1 - p}), ("s1", "loop"): ("r", {"s1": 1})},
        {"a", "r"},
    )
    no_r = dfa_forbid_symbols({"r"}, {"a", "r"})  # Pr = 1 - p under every strategy
    below = ProbObjective("<", F(1, 2), no_r)
    bounded = reward_objective("<=", 5, {"r": 1})
    half = {"p": F(1, 2)}
    table = PolyTable()
    query = _MoQuery(m, (bounded, below), "cmp", table)

    def no_layout(nums):
        raise AssertionError("an LP layout was built")

    query._layout = no_layout
    assert query.solve(table.at(half)) == ("unachievable", None)
    corner = instantiate(m, half)
    assert mo_achievable(corner, (below,), "cmp") == ("unachievable", None)
    assert mo_achievable(corner, (bounded, below), "cmp") == ("unachievable", None)
    with pytest.raises(UnboundedReward):  # the LP alone refuses the sample
        _MoQuery(m, (bounded, below), "cmp", table)._lp_solve(table.at(half))
    # a triple with the reward as its assumption holds at the sample
    verdict = ag_triple_check(m, FiniteRegion.of([half]), (bounded,), (safety(no_r, F(1, 2)),),
                              "cmp")
    assert verdict.status == "holds"


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


@settings(max_examples=40)
@given(st.integers(0, 2**32))
def test_occupation_lp_columns_are_in_sort_key_order(seed):
    """`_flow` hands the LP the product's states in `sort_key` order, and
    each state's enabled actions are in that order, so the columns are the
    keys and the settle states in `sort_key` order: the pivot path does not
    depend on the order in which the product's search met its states."""
    rng = random.Random(seed)
    m = renamed_ppa(rng, compose(*random_parametric_pair(rng)))
    objective = safety(random_safety_dfa(rng, sorted(m.alphabet)), F(1, 2))
    for cls in ("cmp", "prt"):
        table = PolyTable()
        query = _MoQuery(m, (objective,), cls, table)
        for v in region_samples(Box.of({"p": (0, 1)}), 1):
            *_, num_vars, _, y_index, w_index = query._flow(table.at(v)[1])
            assert list(y_index) == sorted(query.ptrans, key=sort_key)
            assert list(w_index) == sorted(w_index, key=sort_key)
            columns = [*y_index.values(), *w_index.values()]
            assert columns == list(range(len(columns))) and num_vars == len(columns)


def _fill_case(rng):
    """A random parametric composition with one or two objectives of either
    kind under random comparisons, its `_MoQuery` for a random strategy
    class, and the table vectors of the unit box's samples: the corners
    p = 0 and p = 1 zero out entries."""
    m = compose(*random_parametric_pair(rng))
    alphabet = sorted(m.alphabet)
    p = Polynomial.var("p")
    cmps = ["<=", "<", ">=", ">"]
    objectives = [
        ProbObjective(rng.choice(cmps), F(rng.randint(0, 4), 4),
                      random_safety_dfa(rng, alphabet, allow_empty=False))
        if rng.random() < 0.5 else
        reward_objective(rng.choice(cmps), F(rng.randint(0, 6), rng.choice([1, 2, 3])),
                         {rng.choice(alphabet): rng.choice([1, p, F(2, 3) * p, (1 - 2 * p) ** 2])})
        for _ in range(rng.randint(1, 2))
    ]
    table = PolyTable()
    query = _MoQuery(m, objectives, rng.choice(["cmp", "prt"]), table)
    samples = [table.at(v) for v in region_samples(Box.of({"p": (0, 1)}), rng.randint(1, 3))]
    return query, samples


def _solved_fills(query, samples):
    """(template rows, vector, lp, objective, maximize, result) of every LP
    the LP half of `query.solve` (`_lp_solve`) builds at the samples,
    recorded around `_int_templates`, `_sample_lp` and `LinearProgram.solve`.
    `solve` itself decides most single-objective queries without an LP."""
    forms, built, solved = {}, {}, []
    templates_of, sample_lp, solve = verify._int_templates, verify._sample_lp, LinearProgram.solve

    def templates(num_vars, rows):
        out = templates_of(num_vars, rows)
        forms[id(out)] = out, [(kind, dict(form), rhs) for kind, form, rhs in rows]
        return out

    def fill(num_vars, templates, point):
        lp = sample_lp(num_vars, templates, point)
        built[id(lp)] = lp, forms[id(templates)][1], point
        return lp

    def recording(lp, objective, maximize=True):
        result = solve(lp, objective, maximize)
        _, rows, point = built[id(lp)]
        solved.append((rows, point, lp, objective, maximize, result))
        return result

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(verify, "_int_templates", templates)
        patch.setattr(verify, "_sample_lp", fill)
        patch.setattr(LinearProgram, "solve", recording)
        for point in samples:
            try:
                query._lp_solve(point)
            except UnboundedReward:
                pass
    return solved


@settings(max_examples=60)
@given(st.integers(0, 2**32))
def test_sampled_lps_match_the_fraction_fill(seed):
    """Every sampled LP's integer rows are the rows the old Fraction fill
    gave (`_values`, `_fill` and `_lp_at`, then `_int_row` in the solve),
    and it solves to the same status, point and value as the LP built from
    those rational rows."""
    query, samples = _fill_case(random.Random(seed))
    for rows, point, lp, objective, maximize, result in _solved_fills(query, samples):
        eq, ub = occupation_rows_reference(rows, point)
        width = lp.num_vars + len(ub) + 1
        got = [(exactlp._dense(cols, vals, rhs, width), den) for cols, vals, rhs, den in lp.eq + lp.ub]
        assert (len(lp.eq), len(lp.ub)) == (len(eq), len(ub))
        assert got == tableau_reference(lp.num_vars, eq, ub)
        reference = RationalLP(lp.num_vars)
        for coeffs, rhs in eq:
            reference.add_eq(coeffs, rhs)
        for coeffs, rhs in ub:
            reference.add_ub(coeffs, rhs)
        assert reference.solve(objective, maximize) == result


def test_fill_cases_flip_reduce_and_meet_both_statuses():
    # over a fixed set of seeds, the cases of the test above solve LPs with
    # reward rows and strict slacks, flip a negative rhs, reduce rows by a
    # common factor, and end both optimal and infeasible
    seen = set()
    for seed in range(30):
        query, samples = _fill_case(random.Random(seed))
        for rows, point, lp, objective, maximize, result in _solved_fills(query, samples):
            seen.add(result[0])
            seen.update(kind for kind, _, _ in rows)
            if objective:
                seen.add("strict")
            if any(vals[-1] < 0 for _, vals, _, _ in lp.ub):
                seen.add("flipped")
            if any(den < point[0] for *_, den in lp.eq):
                seen.add("reduced")
            if query.rew_objs:
                seen.add("reward row")
    assert {OPTIMAL, INFEASIBLE, "eq", "ub", "lb", "strict", "flipped", "reduced",
            "reward row"} <= seen, seen


def test_gain_maps_settle_and_evaluate_as_signatures_did():
    """An action collects nothing for any objective iff it collects no
    reward and keeps its state's signature, because the DFA targets absorb:
    `_flow`'s settle set and `stay` map are `settle_reference`'s, and a fixed
    strategy's values are `strategy_value_reference`'s.  The cases mix
    probability and reward objectives, sample the unit box's corners, where
    entries vanish, and some probability objective's targets hold the
    initial state.  Both an action that a reward keeps from settling and one
    that only an entry into targets keeps from settling occur."""
    kinds = set()
    p = Polynomial.var("p")

    # seed 3 has an initial target and an entry that keeps an action from
    # settling, seed 11 a reward that does, so the coverage check below does
    # not rest on the random draws (60 of them missed a kind in about 1 to
    # 3 % of runs)
    @settings(max_examples=60)
    @given(st.integers(0, 2**32))
    @example(3)
    @example(11)
    def check(seed):
        rng = random.Random(seed)
        m = compose(*random_parametric_pair(rng))
        alphabet = sorted(m.alphabet)
        objectives = []
        for _ in range(rng.randint(1, 3)):
            if rng.random() < 0.5:
                d = random_safety_dfa(rng, alphabet, allow_empty=False)
                if rng.random() < 0.25:  # the empty prefix is bad
                    d = DFA(d.states, d.initial, d.alphabet, d.trans, frozenset({d.initial}))
                objectives.append(ProbObjective(">=", F(1, 2), d))
            else:
                objectives.append(reward_objective(
                    ">=", 0, {rng.choice(alphabet): rng.choice([1, p, (1 - 2 * p) ** 2])}))
        table = PolyTable()
        query = _MoQuery(m, objectives, rng.choice(["cmp", "prt"]), table)
        sigma = random_memoryless_strategy(rng, query.model)
        values = query.strategy_values(sigma)
        for v in region_samples(Box.of({"p": (0, 1)}), rng.randint(1, 2)):
            point = table.at(v)
            _, stay, *_, w_index = query._flow(point[1])
            settle, ref_stay = settle_reference(query, point[1])
            assert (set(w_index), stay) == (settle, ref_stay)
            assert values(point) == [strategy_value_reference(query.model, sigma, o, v)
                                     for o in query.objectives]
            kinds.update(what for what, keeps in (
                ("initial target", any(query.init in target for target in query.targets)),
                ("reward keeps", not query.prob_objs and len(settle) < len(query.states)),
                ("entry keeps", not query.rew_objs and len(settle) < len(query.states)),
            ) if keeps)

    check()
    assert kinds == {"initial target", "reward keeps", "entry keeps"}


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


def test_end_component_guard_covers_states_behind_zero_entries():
    """The LP's end-component guard looks at every product state, also one
    that only a zero-probability entry leads to: such a state's rewarded
    cycle can still carry an LP circulation.  At p = 0 the expected reward
    is 0, so the refusal there is conservative; the solvers of one
    objective still give 0, and INF once the cycle is reached."""
    p = Polynomial.var("p")
    m = make_ppa(
        ["s0", "s1", "s2"],
        "s0",
        {"p"},
        {("s0", "go"): ("a", {"s1": p, "s2": 1 - p}), ("s1", "loop"): ("r", {"s1": 1})},
        {"a", "r"},
    )
    bounded = reward_objective("<=", 5, {"r": 1})
    with pytest.raises(UnboundedReward):
        region_sat(m, FiniteRegion.of([{"p": F(0)}]), (bounded,))
    corner = instantiate(m, {"p": F(0)})
    with pytest.raises(UnboundedReward):
        mo_achievable(corner, (bounded,), "cmp")
    for mode in ("max", "min"):
        assert exp_total_reward(corner, {"r": 1}, mode) == 0
        assert exp_total_reward(instantiate(m, {"p": F(1, 2)}), {"r": 1}, mode) == INF


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
    m = corpus.retry_component()
    pa = instantiate(m, {"p": F(1, 10)})
    stray = safety(dfa_forbid_symbols({"z"}, {"z"}), 1)
    fits = safety(corpus.limit_one_a_dfa(), F(9, 10))
    box, empty = Box.of({"p": (0, F(1, 10))}), FiniteRegion.of([])
    checks = [
        lambda: mo_achievable(pa, (stray,), "cmp"),
        lambda: safety_prob(pa, stray),
        lambda: exp_total_reward(pa, {"z": 1}),
        lambda: solution_value(pa, MemorylessStrategy({}, complete=False), stray),
        lambda: ag_triple_check(m, box, (stray,), (fits,)),
        lambda: ag_triple_check(m, box, (fits,), (fits, stray)),
    ]
    for region in (box, empty):  # an empty region hides no stray symbol
        checks += [
            lambda region=region: region_sat(m, region, (fits, stray)),
            lambda region=region: monotone_check(m, region, stray, "p", "up"),
        ]
    for check in checks:
        with pytest.raises(AlphabetMismatch, match=r"objective alphabet \['z'\] exceeds"):
            check()


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


@settings(max_examples=40)
@given(st.integers(0, 2**32))
def test_partial_vs_complete_agree_on_safety(seed):
    rng = random.Random(seed)
    pa = random_pa(rng, "z", 3, ["a", "b"], max_actions=2)
    dfa = random_safety_dfa(rng, ["a", "b"])
    query = (safety(dfa, F(rng.randint(0, 4), 4)),)
    region = FiniteRegion.of([{}])
    cmp_v, prt_v = (region_sat(pa, region, query, cls) for cls in ("cmp", "prt"))
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


def test_monotone_probe():
    # the ROADMAP's monotone probe: 738 strategies of the tau extension, each
    # at 64 samples; the witness of "up" was recorded before strategy chains
    # were planned per support pattern
    m = composed()
    obj = safety(corpus.no_fail_dfa(), F(9, 10))
    box = Box.of({"p": (F(1, 10), F(1, 2)), "q": (0, F(1, 2))})
    assert len(enumerate_memoryless(tau_extend(m))) == 738
    assert monotone_check(m, box, obj, "q", "down", "prt", resolution=6).holds
    up = monotone_check(m, box, obj, "q", "up", "prt", resolution=6)
    assert up.status == "fails"
    assert up.witness == {
        "strategy": {
            ("s0", "t0"): {("s0_a", "t0_a"): F(1)},
            ("s0", "t1"): {("s0_a", "t1_a"): F(1)},
            ("s0", "t2"): {("s0_b", "b"): F(1)},
            ("s0", "t3"): {("fail", "t3_f"): F(1)},
            ("s0", "t4"): {("s0_b", "b"): F(1)},
            ("s1", "t1"): {("s1_b", "b"): F(1)},
            ("s1", "t2"): {("s1_b", "b"): F(1)},
            ("s1", "t3"): {("fail", "t3_f"): F(1)},
            ("s1", "t4"): {("s1_b", "b"): F(1)},
        },
        "low": {"p": F(1, 10), "q": F(0)},
        "high": {"p": F(1, 10), "q": F(1, 14)},
        "value_low": F(1),
        "value_high": F(1391, 1400),
    }


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
    for bad in (0, -2):
        with pytest.raises(ValueError, match="grid denominator"):
            enumerate_memoryless(forked, bad)


@settings(max_examples=60)
@given(st.integers(1, 4), st.integers(1, 6))
def test_weight_profiles_match_the_list_reference(n, denominator):
    # the same profiles in the same order: the order decides which strategy
    # a monotonicity check reports as its witness
    actions = [f"a{i}" for i in range(n)]
    got = [list(p.items()) for p in verify._weight_profiles(actions, denominator)]
    assert got == [list(p.items()) for p in weight_profiles_reference(actions, denominator)]


def test_strategy_cap_bounds_the_grid_it_enumerates():
    # the grid at s0 has C(10^6 + 2, 2) profiles; the cap refuses it by
    # counting, before any strategy is built
    start = time.perf_counter()
    with pytest.raises(StrategyCapExceeded):
        enumerate_memoryless(corpus.retry_component(), 10**6)
    assert time.perf_counter() - start < 1


@settings(max_examples=60)
@given(st.integers(0, 2**32), st.integers(1, 3))
def test_strategy_cap_counts_exactly_the_strategies_it_would_build(seed, denominator):
    """A cap of n - 1 refuses the n strategies of a model and a cap of n
    builds them, so the count before the build is exact."""
    rng = random.Random(seed)
    pa = random_pa(rng, "x", rng.randint(1, 5), ["a", "b"], max_actions=3)
    try:
        n = len(enumerate_memoryless(pa, denominator))
    except StrategyCapExceeded:
        reject()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(verify, "STRATEGY_CAP", n - 1)
        with pytest.raises(StrategyCapExceeded):
            enumerate_memoryless(pa, denominator)
        patch.setattr(verify, "STRATEGY_CAP", n)
        assert len(enumerate_memoryless(pa, denominator)) == n


def test_end_component_keys_match_the_subset_reference():
    """SCC refinement finds the keys of every end component: on the pipeline,
    the self-loops at t3 and t4; on random PAs with 1-6 states, some with
    zero-probability entries, the union of the allowed keys over every
    strongly connected state subset."""
    pipeline = successor_sets(instantiate(corpus.pipeline_component(), V))
    assert _end_component_keys(pipeline) == {("t3", "t3_f"), ("t4", "t4_c")}

    @settings(max_examples=200)
    @given(st.integers(0, 2**32), st.integers(1, 6))
    def check(seed, n_states):
        rng = random.Random(seed)
        succ = successor_sets(random_pa(rng, "e", n_states, ["a", "b"], max_actions=3, zeros=True))
        assert _end_component_keys(succ) == end_component_keys_reference(succ)

    check()


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


def _with_exit(rng, pa, label):
    """pa with a dead end and, from some of its states, an action labelled
    `label` into it, so that no end component collects `label`."""
    trans = {key: (pa.label[key], dist) for key, dist in pa.trans.items()}
    for s in rng.sample(pa.states, k=rng.randint(1, len(pa.states))):
        trans[(s, f"{s}_exit")] = (label, {"end": F(1)})
    return make_ppa([*pa.states, "end"], pa.initial, set(), trans, pa.alphabet | {label})


def test_witness_values_satisfy_objectives():
    """Every achievable witness meets each objective of its query: two
    probability objectives and a reward on the exit into a dead end, so
    that the witness's chain collects both kinds of gain.  Achievable
    queries whose witness reaches a bad state with positive probability
    and collects positive reward both occur, as do unachievable ones."""
    kinds = set()
    cmps = [">=", "<=", ">", "<"]

    @settings(max_examples=60)
    @given(st.integers(0, 2**32))
    def check(seed):
        rng = random.Random(seed)
        pa = _with_exit(rng, random_pa(rng, "w", 3, ["a", "b"], max_actions=2), "c")
        query = (
            ProbObjective(rng.choice(cmps), F(rng.randint(0, 4), 4),
                          random_safety_dfa(rng, ["a", "b"], allow_empty=False)),
            ProbObjective(rng.choice([">=", "<="]), F(rng.randint(0, 4), 4),
                          random_safety_dfa(rng, ["a", "b"], allow_empty=False)),
            reward_objective(rng.choice(cmps), F(rng.randint(0, 6), 4),
                             {"c": F(rng.randint(1, 3), 2)}),
        )
        status, wit = mo_achievable(pa, query, rng.choice(["cmp", "prt"]))
        kinds.add(status)
        if status == "achievable":
            values = list(wit["values"].values())
            assert len(values) == len(query)
            for obj, val in zip(query, values):
                assert verify._cmp(val, obj.cmp, obj.threshold)
            kinds.update(what for what, seen in (("bad reached", min(values[:2]) < 1),
                                                 ("reward collected", values[2] > 0)) if seen)

    check()
    assert kinds == {"achievable", "unachievable", "bad reached", "reward collected"}


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
            assert solution_value(inst, sigma, paid) == reward
        # the unreachable rewarded cycle adds nothing
        sigma = MemorylessStrategy({"s": {"y": F(1)}, "u": {"w": F(1)}})
        assert solution_value(inst, sigma, paid) == 2
        with pytest.raises(AlphabetMismatch):
            solution_value(inst, sigma, reward_objective(">=", 0, {"zz": 1}))

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
    # a stray symbol is an input error before any sample, also on an empty region
    stray = reward_objective(">=", 0, {"zz": 1})
    for where in (region, FiniteRegion.of([])):
        with pytest.raises(AlphabetMismatch):
            monotone_check(m, where, stray, "p", "up")
        with pytest.raises(AlphabetMismatch):
            region_sat(m, where, (stray,))


@settings(max_examples=40)
@given(st.integers(0, 2**32))
def test_partial_equals_complete_on_sink_extension(seed):
    # partial-strategy achievability on a model coincides with complete-
    # strategy achievability on its sink extension, and optimal reachability
    # is unaffected by the added stopping branch
    rng = random.Random(seed)
    pa = random_pa(rng, "e", 3, ["a", "b"], max_actions=2)
    dfa = random_safety_dfa(rng, ["a", "b"], allow_empty=False)
    query = (ProbObjective(rng.choice(["<=", ">="]), F(rng.randint(0, 4), 4), dfa),)
    assert mo_achievable(pa, query, "prt")[0] == mo_achievable(tau_extend(pa), query, "cmp")[0]
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


@settings(max_examples=60)
@given(st.integers(0, 2**32), st.integers(2, 5), st.booleans())
def test_minimal_reward_forced_payment(seed, n_states, zeros):
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
    # agreement with exhaustive policy evaluation on a random small model
    rng = random.Random(seed)
    m = random_pa(rng, "g", n_states, ["a", "b"], max_actions=2, zeros=zeros)
    rew = {"a": F(rng.randint(0, 3), 2)}
    got = exp_total_reward(m, rew, "min")
    best = None
    decisions = [(s, m.enabled(s)) for s in m.states if m.enabled(s)]
    for combo in itertools.product(*(acts for _, acts in decisions)):
        policy = {s: {a: F(1)} for (s, _), a in zip(decisions, combo)}
        v = solution_value(m, MemorylessStrategy(policy), reward_objective(">=", 0, rew))
        best = v if best is None else min(best, v)
    # memoryless deterministic policies attain the minimum
    assert got == best


@settings(max_examples=60)
@given(st.integers(0, 2**32))
def test_region_sat_agrees_with_direct_safety_values(seed):
    # the occupation LP and the policy-iteration safety solver are
    # independent routes to the same verdict on single safety objectives;
    # region_sat decides every sample of one safety objective by policy
    # iteration (`_MoQuery.bad_reach`, and `_policy_witness` for a failing
    # one), so at the attainable minimum the test asks the violation query's
    # LP (`_MoQuery._lp_solve`) directly, and strictly above it region_sat
    # must fail
    rng = random.Random(seed)
    pa = random_pa(rng, "d", 3, ["a", "b"], max_actions=2)
    dfa = random_safety_dfa(rng, ["a", "b"], allow_empty=False)
    minimum = safety_prob(pa, safety(dfa, 1))
    table = PolyTable()
    violation = _MoQuery(pa, (safety(dfa, minimum).negate(),), "cmp", table)
    assert violation._lp_solve(table.at({})) == ("unachievable", None), minimum
    if minimum + F(1, 16) <= 1:
        verdict = region_sat(pa, FiniteRegion.of([{}]), (safety(dfa, minimum + F(1, 16)),), "cmp")
        assert verdict.status == "fails", minimum


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
    """One structure per region (and sign pattern) gives the verdict,
    failing valuation and full witness of solving every sample anew; the
    p = 0 and p = 1 corners are not graph-preserving, the reward p vanishes
    at p = 0, and (1 - 2p)^2 at the graph-preserving p = 1/2.  Both verdicts
    occur for `region_sat` and for triples, with and without a reward
    objective, and for monotonicity checks of a probability objective."""
    p = Polynomial.var("p")
    rewards = (p, (1 - 2 * p) * (1 - 2 * p))
    seen = set()

    # seed 3 meets both verdicts of `region_sat` and of triples with a
    # reward objective, seed 4 a failing monotonicity check and seed 7 a
    # holding `region_sat` without one, so the coverage check below does not
    # rest on the random draws (100 of them missed a combination in 4 of 72
    # runs; a failing monotonicity check comes from 7 of seeds 0-199); seed
    # 830 has two optimal policies at a `fails` sample, so a witness taken
    # from the warm-started policy iteration differs from the per-sample one
    @settings(max_examples=100)
    @given(st.integers(0, 2**32))
    @example(3)
    @example(4)
    @example(7)
    @example(830)
    def check(seed):
        rng = random.Random(seed)
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
            # at most 64 strategies, without enumerating a class past the cap
            if math.prod(len(work.enabled(s)) or 1 for s in work.states) <= 64:
                for objective in query:
                    args = (m, box, objective, "p", rng.choice(["up", "down"]), cls, resolution)
                    got = _outcome(monotone_check, *args)
                    assert got == _outcome(monotone_check_per_sample, *args)
                    seen.add(("monotone", objective is reward, getattr(got, "status", "error")))

    check()
    for kind in ("sat", "triple"):
        for with_reward in (False, True):
            assert {(kind, with_reward, "holds"), (kind, with_reward, "fails")} <= seen
    assert {("monotone", False, "holds"), ("monotone", False, "fails")} <= seen


def _strategy_chain_cases(rng):
    """(query, samples, strategies) on a random parametric composition: the
    p = 0 and p = 1 samples zero out entries, so one strategy meets several
    support patterns, and the reward of a random label is INF or 0 under
    some strategies."""
    m = compose(*random_parametric_pair(rng))
    alphabet = sorted(m.alphabet)
    p = Polynomial.var("p")
    objectives = [safety(random_safety_dfa(rng, alphabet, allow_empty=False, initial=True), 0)
                  for _ in range(rng.randint(1, 2))]
    objectives.append(reward_objective(">=", 0, {rng.choice(alphabet): rng.choice(
        [1, p, (1 - 2 * p) * (1 - 2 * p)])}))
    table = PolyTable()
    query = _MoQuery(m, objectives, rng.choice(["cmp", "prt"]), table)
    samples = [table.at(v) for v in region_samples(Box.of({"p": (0, 1)}), rng.randint(1, 2))]
    strategies = enumerate_memoryless(query.model)
    if len(strategies) <= 16 and rng.random() < 0.5:  # a grid of step 1/2 stays small
        strategies = enumerate_memoryless(query.model, 2)
    return query, samples, rng.sample(strategies, k=min(len(strategies), 24))


def _successors_first(plan):
    """Whether a chain plan's blocks are the SCCs that networkx finds in the
    graph of its rows, each block after every block it reaches."""
    _, blocks = plan
    graph = nx.DiGraph()
    at = {}
    for i, block in enumerate(blocks):
        for s, _, out, _ in block:
            at[s] = i
            graph.add_node(s)
            graph.add_edges_from((s, t) for t, _, _ in out)
    sccs = {frozenset(c) for c in nx.strongly_connected_components(graph)}
    return (len(at) == graph.number_of_nodes() == sum(map(len, blocks))
            and sccs == {frozenset(s for s, *_ in block) for block in blocks}
            and all(at[t] <= at[s] for s, t in graph.edges))


def _random_chain(rng):
    """Integer chain rows for `_chain_plan`, a table vector (D, nums) and
    the same chain in Fractions for `chain_solve_reference`: up to seven
    nodes whose entries may reach any node (self-loops and cycles), dead
    ends, slots that are zero at the vector, and rows that keep all their
    mass (so that a closed SCC with gain is INF) or lose some (so that it is
    transient and solved)."""
    den = rng.randint(1, 4)
    nums = [rng.choice((0, rng.randint(1, 6))) for _ in range(5)]
    nodes = [f"n{i}" for i in range(rng.randint(1, 7))]
    rows, chain, gain = {}, {}, {}
    for s in nodes:
        out = () if rng.random() < 0.2 else tuple(
            (rng.choice(nodes), rng.randint(1, 3), rng.randrange(5))
            for _ in range(rng.randint(1, 3)))
        out = tuple((t, f * rng.choice((1, den)), k) for t, f, k in out)
        scale = max(1, -(-sum(f * nums[k] for _, f, k in out) // den)) + rng.choice((0, 0, 1))
        gains = tuple((rng.randint(1, 3), rng.randrange(5)) for _ in range(rng.randint(0, 2)))
        rows[s] = (scale, out, gains)
        chain[s] = {}
        for t, f, k in out:
            if nums[k]:
                chain[s][t] = chain[s].get(t, 0) + F(f * nums[k], scale * den)
        gain[s] = sum((F(f * nums[k], scale * den) for f, k in gains), F(0))
    return rows, (den, nums), chain, gain, rng.choice([None, *nodes])


@settings(max_examples=300)
@given(st.integers(0, 2**32))
def test_chain_fill_matches_the_fraction_reference(seed):
    """The per-block fill of a plan gives every planned node the value that
    networkx's graph questions and one Fraction solve give, as integers over
    their least common denominator; the blocks are the SCCs of the unknowns,
    successors first."""
    rows, point, chain, gain, init = _random_chain(random.Random(seed))
    plan = _chain_plan(rows, point, init)
    assert _successors_first(plan)
    scale, x = _chain_fill(plan, point)
    finite = [v for v in x.values() if v is not INF]
    assert scale > 0 and gcd(scale, *finite) == 1
    if init is None:
        assert x.keys() == rows.keys()
    expected = chain_solve_reference(chain, gain, init)
    assert {s: v if v is INF else F(v, scale) for s, v in x.items()} == {s: expected[s] for s in x}


def test_random_chains_meet_every_kind_of_block():
    # over a fixed set of seeds, the chains of the test above have INF, 0
    # and solved nodes, blocks solved by one division and by elimination,
    # self-loop singletons among the latter, and closed rewarded cycles that
    # leak mass, which are solved, not INF
    seen = set()
    for seed in range(200):
        rows, point, chain, gain, init = _random_chain(random.Random(seed))
        settled, blocks = _chain_plan(rows, point, init)
        seen.update(("settled", v) for v in settled.values())
        for block in blocks:
            nodes = {s for s, *_ in block}
            internal = [t for t, _, _ in block[0][2] if t in nodes]
            seen.add("cycle" if len(block) > 1 else "self-loop" if internal else "division")
            if internal and all(chain[s].keys() <= nodes for s in nodes) and any(
                    gain[s] for s in nodes):
                seen.add("leaking closed cycle")
    assert seen == {("settled", INF), ("settled", 0), "cycle", "self-loop", "division",
                    "leaking closed cycle"}


def test_only_cyclic_blocks_are_eliminated(monkeypatch):
    """`gauss_solve` runs once per block with an internal entry and never
    for an acyclic chain: the k = 4 family's monolithic check and its
    `asym-n` proof make no call, and a two-node rewarded cycle makes one of
    size 2."""
    sizes = []
    solve = verify.gauss_solve
    monkeypatch.setattr(verify, "gauss_solve", lambda rows, rhs: sizes.append(len(rows)) or solve(rows, rhs))
    models, box, assumptions, guarantee = k_component_family(4)
    assert region_sat(functools.reduce(compose, models), box, guarantee, "cmp", 2).holds
    assert apply_asym_n(models, [box] * 4, assumptions, guarantee, resolution=2).status == "concluded"
    assert sizes == []
    m = make_ppa(["s0", "s1", "end"], "s0", set(), {
        ("s0", "x"): ("a", {"s1": F(1, 2), "end": F(1, 2)}),
        ("s1", "y"): ("b", {"s0": 1}),
    }, {"a", "b"})
    assert exp_total_reward(m, {"a": 1}) == 2
    assert sizes == [2]


def test_only_the_lp_sorts_product_states(monkeypatch):
    """The occupation LP is the one reader of the `sort_key` order of a
    query product (`test_occupation_lp_columns_are_in_sort_key_order` pins
    its columns): the k = 4 family's monolithic safety check, which policy
    iteration decides, sorts nothing, and a conjunction with a reward on the
    p = 0 instance reaches the LP, which sorts its 431 product states once."""
    calls = []
    key = verify.sort_key
    monkeypatch.setattr(verify, "sort_key", lambda x: calls.append(1) or key(x))
    models, box, _, guarantee = k_component_family(4)
    composed = functools.reduce(compose, models)
    assert region_sat(composed, box, guarantee, "cmp", 2).holds
    assert calls == []
    query = (safety(guarantee[0].dfa, 0), reward_objective(">=", 0, {"t1": 1}))
    assert mo_achievable(instantiate(composed, {"p": 0}), query)[0] == "achievable"
    assert len(calls) == 431


@settings(max_examples=40)
@given(st.integers(0, 2**32))
@example(1)  # an objective whose targets hold the initial state has no chain
def test_strategy_chains_match_the_witness_reference(seed):
    """A strategy's chain, planned once per support pattern, gives at every
    sample the values of the two-mode chain rebuilt over every product state
    and solved in Fractions; so do the witnesses of `mo_achievable`.  Each
    plan lists its unknowns successors first."""
    rng = random.Random(seed)
    try:
        query, samples, strategies = _strategy_chain_cases(rng)
    except StrategyCapExceeded:
        reject()  # too many strategies to enumerate, about 1 seed in 1 200
    for sigma in strategies:
        values = query.strategy_values(sigma)
        mix = {ps: sigma.choice[ps[0]] for ps in query.states if ps[0] in sigma.choice}
        for point in samples:
            assert values(point) == witness_values_reference(query, point, mix, {}, {})
        assert all(_successors_first(plan) for plans in values._plans.values()
                   for plan in plans if plan)
    # the go/stay witness of an achievable query on a random composition
    pa = compose(random_pa(rng, "l", 3, ["a", "b"]), random_pa(rng, "r", 3, ["a", "c"]))
    alphabet = sorted(pa.alphabet)
    objectives = (
        ProbObjective(rng.choice(["<=", ">="]), F(rng.randint(0, 4), 4),
                      random_safety_dfa(rng, alphabet, allow_empty=False)),
        reward_objective(rng.choice(["<=", ">="]), F(rng.randint(0, 4), 2),
                         {rng.choice(alphabet): F(rng.randint(1, 2))}),
    )[:rng.randint(1, 2)]
    cls = rng.choice(["cmp", "prt"])
    try:
        status, wit = mo_achievable(pa, objectives, cls)
    except UnboundedReward:
        return
    if status == "achievable":
        table = PolyTable()
        query = _MoQuery(pa, objectives, cls, table)
        expected = witness_values_reference(
            query, table.at({}), wit["mix"], wit["settle"], wit["stay"])
        assert list(wit["values"].values()) == expected


def test_strategy_chain_cases_meet_several_patterns_and_both_reward_extremes():
    # over a fixed set of seeds, the cases of the test above plan a strategy
    # for more than one support pattern and give rewards of 0, INF and between
    rewards, patterns = set(), 0
    for seed in range(12):
        query, samples, strategies = _strategy_chain_cases(random.Random(seed))
        for sigma in strategies:
            values = query.strategy_values(sigma)
            for point in samples:
                reward = values(point)[-1]
                rewards.add(reward if reward in (0, INF) else "between")
            patterns = max(patterns, len(values._plans))
    assert rewards == {0, INF, "between"} and patterns >= 2


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
    assert outcomes["q", "up"].caveat == "no two samples differ in 'q' alone; vacuously holds"
    assert "fails" in (outcomes["p", "up"].status, outcomes["p", "down"].status)
    assert outcomes["p", "up"].caveat.startswith("per enumerated strategy class")


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
