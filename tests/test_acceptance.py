"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

All expected values are exact rationals (tolerance zero).  Each criterion also
enforces its stated wall-clock budget.
"""

import itertools
import random
import time
from fractions import Fraction as F

import pytest

from pacomp import corpus
from pacomp.algebra import Box, FiniteRegion, parse_poly, poly_eval, region_samples
from pacomp.errors import SideConditionError
from pacomp.model import (
    alphabet_extend,
    compose,
    dfa_forbid_symbols,
    instantiate,
    make_ppa,
)
from pacomp.proofrules import (
    apply_asymmetric,
    apply_conjunction,
    apply_interleaving,
    apply_monotonicity,
    apply_reward_sum,
    conjoin,
    interleaving_threshold,
)
from pacomp.robust import (
    conv_compose,
    fix_nature,
    generators,
    interval_relax_compose,
    is_product_member,
    pa_reduce,
    rpa_compose,
)
from pacomp.semantics import (
    MemorylessStrategy,
    cyl_prob,
    measure,
    path_project,
    strategy_project,
    tabulate,
)
from pacomp.simulate import (
    dist_leq,
    is_strong_sim,
    robust_strong_sim,
    strong_sim,
    strong_sim_region,
)
from pacomp.verify import (
    ag_triple_check,
    chain_language_prob,
    max_reach,
    monotone_check,
    region_sat,
    safety,
    safety_prob,
)

from helpers import (
    dist_leq_bruteforce,
    random_dist,
    random_pa,
    random_polytopic_rpa,
    random_safety_dfa,
)


def report(criterion, ok, note=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {criterion}: {status} {note}".rstrip())
    return ok


class Budget:
    def __init__(self, seconds):
        self.limit = seconds
        self.start = time.monotonic()

    def check(self):
        elapsed = time.monotonic() - self.start
        assert elapsed < self.limit, f"budget exceeded: {elapsed:.1f}s >= {self.limit}s"
        return elapsed


def test_criterion_01_projection_goldens():
    budget = Budget(1)
    comp = instantiate(
        compose(corpus.retry_component(), corpus.pipeline_component()),
        {"p": F(1, 10), "q": F(1, 10)},
    )
    sigma = corpus.priority_strategy(comp)
    proj = strategy_project(comp, sigma, side=2, horizon=6)
    first = proj.mass(("t0",), "t0_a")
    second = proj.mass(("t0", "t0_a", "t2"), "t2_c")
    third = proj.mass(("t0", "t0_a", "t2", "t2_c", "t3"), "t3_f")

    # dependent valuations coincide with the same-valuation projection
    hi = {"p": F(9, 10), "q": F(9, 10)}
    dep = compose(
        instantiate(corpus.retry_component(), {"p": F(1, 10)}),
        instantiate(corpus.pipeline_component(), hi),
    )
    proj_dep = strategy_project(dep, corpus.priority_strategy(dep), 2, 6)
    dependent_ok = all(
        proj.dist(path) == proj_dep.dist(path)
        for path in (("t0",), ("t0", "t0_a", "t2"), ("t0", "t0_a", "t1"))
    )
    elapsed = budget.check()

    ok = first == 1 and second == F(1, 10) and third == 1 and dependent_ok
    report(
        1,
        ok,
        f"(entries {first}, {second}, {third}; dependent-valuation equality "
        f"{dependent_ok}; {elapsed:.2f}s)",
    )
    assert first == 1
    assert second == F(1, 10)
    assert dependent_ok
    # The entry at history (t0,a,t2,c,t3) is the conditional probability that
    # the pipeline plays t3_f next, and t3_f is the only action of t3.  Under
    # the priority strategy (s0,t2) plays the shared c, while s1 has no c, so
    # the only product state projecting to this history is (s0,t3), where the
    # strategy plays fail with probability 1.  Measure preservation
    # (criterion 2) pins the same value: the composed path
    # (s0,t0) a (s0,t2) c (s0,t3) fail has measure 1/100 * 1/10 * 1 = 1/1000,
    # and its projection has measure 1 * 1/10 * 1/10 * 1/10 * x = x/1000 for
    # this entry x, so x = 1.
    assert third == 1, f"projection entry at the forced step computed as {third}"


def test_criterion_02_measure_preservation_property():
    budget = Budget(120)
    rng = random.Random(2024)
    checked_models = 0
    checked_paths = 0
    while checked_models < 200:
        n1 = random_pa(rng, "l", rng.randint(2, 4), ["a", "b"], max_actions=2)
        n2 = random_pa(rng, "r", rng.randint(2, 4), ["a", "c"], max_actions=2)
        comp = compose(n1, n2)
        horizon = rng.randint(2, 4)
        sigma = tabulate(
            comp,
            random_tabular(rng, comp, horizon),
            horizon,
        )
        pm = measure(comp, sigma, horizon)
        if len(pm.probs) > 4000:
            continue
        checked_models += 1
        comp_actions = [set(n1.actions), set(n2.actions)]
        for side in (1, 2):
            proj = strategy_project(comp, sigma, side, horizon)
            component = (n1, n2)[side - 1]
            # group the support by projections; prefix-minimal members are
            # exactly those whose last step moves this component
            sums = {}
            for path, prob in pm.probs.items():
                pi = path_project(path, comp, side)
                if len(path) == 1 or path[-2][side - 1] in comp_actions[side - 1]:
                    sums[pi] = sums.get(pi, F(0)) + prob
                else:
                    sums.setdefault(pi, F(0))
            for pi, lifted_sum in sums.items():
                lhs = cyl_prob(component, proj, pi)
                assert lhs == lifted_sum, (side, pi)
                checked_paths += 1
    elapsed = budget.check()
    report(
        2,
        True,
        f"(200 compositions, {checked_paths} component paths, exact; {elapsed:.1f}s)",
    )


def random_tabular(rng, pa, horizon):
    from helpers import random_tabular_strategy

    return random_tabular_strategy(rng, pa, horizon, complete=rng.random() < 0.5)


def test_criterion_03_solution_function_golden():
    budget = Budget(5)
    comp = compose(corpus.retry_component(), corpus.pipeline_component())
    formula = parse_poly("1 - (1/10*p^2 + (p - p^2)*q)")
    grid = region_samples(Box.of({"p": (0, 1), "q": (0, 1)}), 1)
    assert len(grid) >= 9
    obj = safety(corpus.no_fail_dfa(), F(9, 10))
    for v in grid:
        inst = instantiate(comp, v)
        via_product = safety_prob(inst, obj)  # 1 - max-reach complement
        assert via_product == poly_eval(formula, v), v
    elapsed = budget.check()
    report(3, True, f"({len(grid)} grid valuations, exact; {elapsed:.2f}s)")


def test_criterion_04_asymmetric_rule_reproduction():
    budget = Budget(10)
    m1, m2 = corpus.retry_component(), corpus.pipeline_component()
    A = (safety(corpus.limit_one_a_dfa(), F(9, 10)),)
    G = (safety(corpus.no_fail_dfa(), F(9, 10)),)
    r1 = Box.of({"p": (0, F(1, 10))})
    tri = [
        v
        for v in region_samples(Box.of({"p": (0, F(9, 10)), "q": (0, 1)}), 4)
        if v["q"] <= 1 - v["p"]
    ]
    app = apply_asymmetric(m1, m2, r1, FiniteRegion.of(tri), A, G, resolution=4)
    assert app.concluded

    conclusion_region = Box.of({"p": (0, F(1, 10)), "q": (0, 1)})
    direct = region_sat(compose(m1, m2), conclusion_region, G, "cmp", 2)
    assert direct.holds

    outside = region_sat(m1, FiniteRegion.of([{"p": F(1, 5)}]), A, "cmp")
    assert outside.status == "fails"
    assert outside.witness["valuation"] == {"p": F(1, 5)}
    assert outside.witness["strategy"] is not None
    elapsed = budget.check()
    report(4, True, f"(premises at {len(tri)}+3 samples, conclusion direct; {elapsed:.1f}s)")


def test_criterion_05_monotonicity_rule():
    budget = Budget(30)
    m1, m2 = corpus.retry_component(), corpus.pipeline_component()
    obj = safety(corpus.no_fail_dfa(), 1)
    box = Box.of({"p": (0, 1), "q": (0, 1)})
    app = apply_monotonicity(m1, m2, box, box, obj, "q", "down", resolution=2)
    assert app.concluded, "component premises must discharge"
    direct = monotone_check(
        compose(m1, m2), box, obj, "q", "down", "cmp", resolution=2
    )
    assert direct.holds
    elapsed = budget.check()
    report(5, True, f"(premises + composed confirmation, exact; {elapsed:.1f}s)")


def test_criterion_06_nonconvexity_witness():
    budget = Budget(1)
    comp = rpa_compose(corpus.interval_retry(), corpus.interval_responder())
    pset = comp.utrans[(("s0", "t0"), ("s0_a", "t0_a"))]
    mu_conv = {
        ("s0", "t1"): F(27, 80),
        ("s0", "t2"): F(3, 80),
        ("s1", "t1"): F(29, 80),
        ("s1", "t2"): F(21, 80),
    }
    verdict, info = is_product_member(mu_conv, pset)
    assert verdict == "not-member"
    assert info["cell"] == ("s1", "t1")
    assert (info["factored"], info["observed"]) == (F(9, 16), F(29, 80))
    assert mu_conv[("s0", "t1")] == F(27, 80) and mu_conv[("s0", "t2")] == F(3, 80)
    mu12 = {("s1", "t1"): F(1, 10), ("s1", "t2"): F(9, 10)}
    mu12p = {
        ("s0", "t1"): F(9, 20),
        ("s0", "t2"): F(1, 20),
        ("s1", "t1"): F(9, 20),
        ("s1", "t2"): F(1, 20),
    }
    assert is_product_member(mu12, pset)[0] == "member"
    assert is_product_member(mu12p, pset)[0] == "member"
    elapsed = budget.check()
    report(6, True, f"(contradiction 9/16 != 29/80 at (s1,t1); {elapsed:.2f}s)")


def test_criterion_07_counterexample_battery():
    budget = Budget(5)
    u1, u2 = corpus.interval_retry(), corpus.interval_responder()

    # --- displaced memoryless nature on the composition: violation 81/100
    acaf = corpus.acaf_prefix_dfa()
    composed = rpa_compose(u1, u2)
    pa = fix_nature(
        composed,
        {
            (("s0", "t0"), ("s0_a", "t0_a")): {("s1", "t1"): F(9, 10), ("s1", "t2"): F(1, 10)},
            (("s1", "t0"), ("s1_a", "t0_a")): {("s1", "t1"): F(1, 10), ("s1", "t2"): F(9, 10)},
        },
    )
    sigma = corpus.priority_strategy(pa, priority=("a", "c", "fail"), fallback="b")
    v1 = 1 - chain_language_prob(pa, sigma, acaf)
    assert v1 == F(81, 100)
    # premises: trivial assumption on the retry side; on the responder every
    # sampled memoryless nature (including the analytic worst case 1/2) keeps
    # the bad prefix at or below 1/4
    for q in (F(1, 10), F(1, 4), F(1, 2), F(3, 4), F(9, 10)):
        inst = fix_nature(u2, {("t0", "t0_a"): {"t1": q, "t2": 1 - q}})
        worst, _, _ = max_reach(*_dfa_bad(inst, acaf))
        assert worst == q * (1 - q) and worst <= F(1, 4)

    # --- non-convex two-point responder: violation 9/20
    ab = corpus.ab_prefix_dfa()
    comp2 = rpa_compose(corpus.half_retry(), corpus.two_point_responder())
    pa2 = fix_nature(
        comp2,
        {
            (("s0", "t0"), ("s0_a", "t0_a")): {
                ("s0", "t1"): F(1, 20),
                ("s0", "t2"): F(9, 20),
                ("s1", "t1"): F(1, 20),
                ("s1", "t2"): F(9, 20),
            }
        },
    )
    sigma2 = corpus.priority_strategy(pa2, priority=("a", "b"), fallback="fail")
    v2 = 1 - chain_language_prob(pa2, sigma2, ab)
    assert v2 == F(9, 20)
    # premises pass: the fifty-fifty component meets the 2/5 bound under every
    # strategy, and on the responder every vertex nature and memoryless
    # deterministic strategy satisfying the assumption also meets 4/5
    red1 = pa_reduce(corpus.half_retry())
    for s in _det_strategies(red1):
        assert chain_language_prob(red1, s, ab) >= F(2, 5)
    u2p = corpus.two_point_responder()
    for vertex in generators(u2p.utrans[("t0", "t0_a")]):
        inst = fix_nature(u2p, {("t0", "t0_a"): vertex})
        for s in _det_strategies(inst):
            val = chain_language_prob(inst, s, ab)
            if val >= F(2, 5):
                assert val >= F(4, 5)

    # --- interval relaxation: violation 19/20
    no_c = corpus.no_c_dfa()
    rel = interval_relax_compose(u1, u2)
    pa3 = fix_nature(
        rel,
        {
            (("s0", "t0"), ("s0_a", "t0_a")): {
                ("s0", "t1"): F(1, 20),
                ("s1", "t1"): F(9, 10),
                ("s1", "t2"): F(1, 20),
            }
        },
    )
    sigma3 = corpus.priority_strategy(pa3, priority=("a", "c"), fallback="fail")
    v3 = 1 - chain_language_prob(pa3, sigma3, no_c)
    assert v3 == F(19, 20)
    # premises pass on the reductions, and the convex composition keeps the
    # guarantee that the relaxation breaks
    assert safety_prob(pa_reduce(u2), safety(no_c, F(1, 10))) == F(1, 10)
    assert safety_prob(pa_reduce(conv_compose(u1, u2)), safety(no_c, F(1, 10))) == F(1, 10)
    elapsed = budget.check()
    report(7, True, f"(violations 81/100, 9/20, 19/20 exact; premises pass; {elapsed:.1f}s)")


def _dfa_bad(pa, dfa):
    from pacomp.model import dfa_absorb_accepting, dfa_product

    product, bad = dfa_product(pa, dfa_absorb_accepting(dfa))
    return product, bad


def _det_strategies(pa):
    decisions = [(s, pa.enabled(s)) for s in pa.states if pa.enabled(s)]
    for combo in itertools.product(*(acts for _, acts in decisions)):
        yield MemorylessStrategy({s: {a: F(1)} for (s, _), a in zip(decisions, combo)})


def test_criterion_08_reduction_commutation():
    budget = Budget(120)
    rng = random.Random(88)
    dfa_rng = random.Random(89)
    pairs = [(corpus.interval_retry(), corpus.interval_responder())]
    while len(pairs) < 51:
        pairs.append(
            (
                random_polytopic_rpa(rng, "u", ["a", "b"], n_states=rng.randint(2, 3)),
                random_polytopic_rpa(rng, "w", ["a", "c"], n_states=rng.randint(2, 3)),
            )
        )
    objectives_checked = 0
    for u1, u2 in pairs:
        left = pa_reduce(conv_compose(u1, u2))
        right = compose(pa_reduce(u1), pa_reduce(u2))
        alphabet = sorted(u1.alphabet | u2.alphabet)
        for _ in range(2):
            dfa = random_safety_dfa(dfa_rng, alphabet, allow_empty=False)
            obj = safety(dfa, F(1, 2))
            assert safety_prob(left, obj) == safety_prob(right, obj)
            objectives_checked += 1
    elapsed = budget.check()
    report(8, True, f"(51 pairs, {objectives_checked} objectives, exact; {elapsed:.1f}s)")


def test_criterion_09_simulation_goldens():
    budget = Budget(10)
    m1p, m2p = corpus.handoff_fixed(), corpus.split_responder()
    region = FiniteRegion.of([{"p": F(1, 10)}, {"p": F(9, 10)}])
    lo = strong_sim(instantiate(m1p, {"p": F(1, 10)}), instantiate(m2p, {"p": F(1, 10)}))
    hi = strong_sim(instantiate(m1p, {"p": F(9, 10)}), instantiate(m2p, {"p": F(9, 10)}))
    per_valuation = strong_sim_region(m1p, m2p, region).holds
    fails_fixed = robust_strong_sim(m1p, m2p, region) is None
    witness = robust_strong_sim(corpus.handoff_parametric(), m2p, region)

    # exhaustive subset checking agrees with the max-flow decision
    flow_rng = random.Random(99)
    agreements = 0
    for _ in range(120):
        mu1 = random_dist(flow_rng, ["a", "b", "c", "d", "e"], max_support=5)
        mu2 = random_dist(flow_rng, ["v", "w", "x", "y", "z"], max_support=5)
        rel = {
            (l, r)
            for l in ["a", "b", "c", "d", "e"]
            for r in ["v", "w", "x", "y", "z"]
            if flow_rng.random() < 0.3
        }
        assert dist_leq(mu1, mu2, rel) == dist_leq_bruteforce(mu1, mu2, rel)
        agreements += 1
    elapsed = budget.check()

    expected_witness = frozenset({("s0", "t0"), ("s1", "t2")})
    witness_sim = witness is not None and all(
        is_strong_sim(
            instantiate(corpus.handoff_parametric(), v), instantiate(m2p, v), witness
        )
        for v in region_samples(region, 1)
    )
    ok = (
        lo == frozenset({("s0", "t0"), ("s1", "t1")})
        and hi == frozenset({("s0", "t0"), ("s1", "t2")})
        and per_valuation
        and fails_fixed
        and witness == expected_witness
        and witness_sim
    )
    report(
        9,
        ok,
        f"(relations {sorted(lo)} / {sorted(hi)}; robust witness {sorted(witness)}; "
        f"{agreements} flow agreements; {elapsed:.1f}s)",
    )
    assert lo == frozenset({("s0", "t0"), ("s1", "t1")})
    assert hi == frozenset({("s0", "t0"), ("s1", "t2")})
    assert per_valuation and fails_fixed
    assert witness is not None, "the parametric variant must admit a uniform witness"
    # handoff_parametric's b-step is {s0: p, s1: 1-p}.  t1's b-step is
    # {t0: 1-p, t1: p}, so pairing s1 with t1 needs p = 1-p and is a strong
    # simulation only at p = 1/2, at neither sample.  t2's b-step
    # {t0: p, t2: 1-p} matches exactly at every p, so {(s0,t0),(s1,t2)} is the
    # greatest uniform relation: for handoff_parametric the pairs (s1,t1) and
    # (s1,t2) cannot hold at once.  (The per-valuation relations above concern
    # handoff_fixed, whose b-step matches t1 at p = 1/10 and t2 at p = 9/10.)
    assert witness == expected_witness, f"computed witness {sorted(witness)}"
    assert witness_sim, "the robust witness is not a strong simulation at every sample"


def test_criterion_10_rule_engine_soundness_regression():
    budget = Budget(300)
    rng = random.Random(777)
    concluded = 0
    contradictions = 0
    attempts = 0
    while concluded < 100 and attempts < 400:
        attempts += 1
        kind = rng.choice(["asym", "asym", "asym", "conj", "inter", "reward"])
        if kind == "asym":
            ok = _random_asymmetric_app(rng)
        elif kind == "conj":
            ok = _random_conjunction_app(rng)
        elif kind == "inter":
            ok = _random_interleaving_app(rng)
        else:
            ok = _random_reward_sum_app(rng)
        if ok is None:
            continue
        concluded += 1
        if not ok:
            contradictions += 1
    assert concluded >= 100, f"only {concluded} concluded applications"
    assert contradictions == 0

    # side-condition fuzzing: violated inclusions must raise, never conclude
    caught = 0
    for _ in range(20):
        m1 = random_pa(rng, "l", 2, ["a", "b"])
        m2 = random_pa(rng, "r", 2, ["a", "c"])
        stray = (safety(random_safety_dfa(rng, ["a", "z"], allow_empty=False), F(1, 2)),)
        goal = (safety(random_safety_dfa(rng, ["a", "c"], allow_empty=False), F(1, 2)),)
        region = FiniteRegion.of([{}])
        try:
            apply_asymmetric(m1, m2, region, region, stray, goal)
        except SideConditionError:
            caught += 1
    assert caught == 20
    elapsed = budget.check()
    report(
        10,
        True,
        f"({concluded} concluding applications, 0 contradictions, "
        f"{caught} fuzzed violations caught; {elapsed:.1f}s)",
    )


def _sampled_min_safety(m, region, dfa):
    values = []
    for v in region_samples(region, 1):
        values.append(safety_prob(instantiate(m, v), safety(dfa, 1)))
    return min(values)


def _random_asymmetric_app(rng):
    if rng.random() < 0.35:
        # parametric components over a box region with several samples
        from helpers import random_parametric_pair

        m1, m2 = random_parametric_pair(rng)
        region = Box.of({"p": (0, 1)})
    else:
        m1 = random_pa(rng, "l", 2, ["a", "b"])
        m2 = random_pa(rng, "r", 2, ["a", "c"])
        region = FiniteRegion.of([{}])
    a_dfa = random_safety_dfa(rng, ["a", "b"], allow_empty=False)
    g_dfa = random_safety_dfa(rng, ["a", "c"], allow_empty=False)
    thr_a = _sampled_min_safety(m1, region, a_dfa)
    A = (safety(a_dfa, thr_a),)
    ext = alphabet_extend(m2, {"a", "b"})
    candidates = sorted(
        {F(k, 8) for k in range(9)} | {_sampled_min_safety(ext, region, g_dfa)},
        reverse=True,
    )
    guarantee = None
    for g in candidates:
        if ag_triple_check(ext, region, A, (safety(g_dfa, g),), "prt").holds:
            guarantee = (safety(g_dfa, g),)
            break
    if guarantee is None:
        return None
    app = apply_asymmetric(m1, m2, region, region, A, guarantee)
    if not app.concluded:
        return None
    direct = region_sat(compose(m1, m2), region, guarantee, "cmp")
    return direct.holds


def _random_conjunction_app(rng):
    m = random_pa(rng, "m", 2, ["a", "b"])
    region = FiniteRegion.of([{}])
    dfa1 = random_safety_dfa(rng, ["a", "b"], allow_empty=False)
    dfa2 = random_safety_dfa(rng, ["a", "b"], allow_empty=False)
    g1 = (safety(dfa1, _sampled_min_safety(m, region, dfa1)),)
    g2 = (safety(dfa2, _sampled_min_safety(m, region, dfa2)),)
    trivial = (safety(dfa_forbid_symbols((), {"a", "b"}), 1),)
    app = apply_conjunction(m, region, region, trivial, g1, trivial, g2)
    if not app.concluded:
        return None
    direct = ag_triple_check(
        m, region, conjoin(trivial, trivial), conjoin(g1, g2), "prt"
    )
    return direct.holds


def _random_interleaving_app(rng):
    m1 = random_pa(rng, "l", 2, ["a", "b"])
    m2 = random_pa(rng, "r", 2, ["c", "d"])
    region = FiniteRegion.of([{}])
    dfa1 = random_safety_dfa(rng, ["a", "b"], allow_empty=False)
    dfa2 = random_safety_dfa(rng, ["c", "d"], allow_empty=False)
    p1 = _sampled_min_safety(m1, region, dfa1)
    p2 = _sampled_min_safety(m2, region, dfa2)
    trivial1 = (safety(dfa_forbid_symbols((), {"a", "b"}), 1),)
    trivial2 = (safety(dfa_forbid_symbols((), {"c", "d"}), 1),)
    app = apply_interleaving(
        m1, m2, region, region, trivial1, trivial2, dfa1, p1, dfa2, p2
    )
    if not app.concluded:
        return None
    combined = app.conclusion["guarantee"]
    assert app.conclusion["threshold"] == interleaving_threshold(p1, p2)
    direct = ag_triple_check(
        compose(m1, m2), region, conjoin(trivial1, trivial2), combined, "prt"
    )
    return direct.holds


def _random_reward_sum_app(rng):
    from pacomp.verify import exp_total_reward

    one = F(1)

    def terminating_chain(prefix, labels):
        states = [f"{prefix}0", f"{prefix}1"]
        trans = {
            (states[0], f"{prefix}_step"): (labels[0], {states[1]: one}),
            (states[1], f"{prefix}_idle"): (labels[1], {states[1]: one}),
        }
        return make_ppa(states, states[0], set(), trans, set(labels))

    m1 = terminating_chain("l", ["a", "b"])
    m2 = terminating_chain("r", ["c", "d"])
    region = FiniteRegion.of([{}])
    rw1 = {"a": F(rng.randint(0, 6), rng.randint(1, 4))}
    rw2 = {"c": F(rng.randint(0, 6), rng.randint(1, 4))}
    thr1 = exp_total_reward(m1, rw1, "max")
    thr2 = exp_total_reward(m2, rw2, "max")
    trivial1 = (safety(dfa_forbid_symbols((), {"a", "b"}), 1),)
    trivial2 = (safety(dfa_forbid_symbols((), {"c", "d"}), 1),)
    app = apply_reward_sum(
        m1, m2, region, region, trivial1, trivial2, rw1, thr1, rw2, thr2, cmp="<="
    )
    if not app.concluded:
        return None
    assert app.conclusion["threshold"] == thr1 + thr2
    combined = app.conclusion["guarantee"]
    direct = ag_triple_check(
        compose(m1, m2), region, conjoin(trivial1, trivial2), combined, "prt"
    )
    return direct.holds


def test_criterion_11_interleaving_and_reward_arithmetic():
    budget = Budget(1)
    rng = random.Random(321)
    for _ in range(20):
        p1 = F(rng.randint(0, 12), 12)
        p2 = F(rng.randint(0, 12), 12)
        assert interleaving_threshold(p1, p2) == p1 + p2 - p1 * p2
        r1 = F(rng.randint(0, 30), rng.randint(1, 7))
        r2 = F(rng.randint(0, 30), rng.randint(1, 7))
        from pacomp.proofrules import reward_sum
        from pacomp.algebra import Polynomial

        assert reward_sum({"x": r1}, {"x": r2})["x"] == Polynomial.const(r1 + r2)
    # alphabet-overlap inputs rejected
    m1 = corpus.retry_component()
    m2 = corpus.pipeline_component()
    region = FiniteRegion.of([{"p": F(1, 10), "q": F(1, 10)}])
    with pytest.raises(SideConditionError):
        apply_interleaving(
            m1, m2, region, region, (), (),
            corpus.limit_one_a_dfa(), F(1, 2), corpus.no_fail_dfa(), F(1, 2),
        )
    elapsed = budget.check()
    report(11, True, f"(20 random rational inputs exact; overlap rejected; {elapsed:.2f}s)")
