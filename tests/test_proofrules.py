import random
from fractions import Fraction as F

import pytest

from pacomp import corpus
from pacomp.algebra import Box, FiniteRegion, Polynomial, region_samples
from pacomp.errors import SideConditionError
from pacomp.model import alphabet_extend, compose, dfa_forbid_symbols
from pacomp.proofrules import (
    FairnessAttestation,
    apply_asym_n,
    apply_asymmetric,
    apply_circular,
    apply_conjunction,
    apply_interleaving,
    apply_monotonicity,
    apply_reward_sum,
    apply_rpa_rules,
    apply_simulation_ag,
    conjoin,
    interleaving_threshold,
    reward_sum,
)
from pacomp.robust import conv_compose, interval_relax_compose, pa_reduce
from pacomp.verify import (
    ProbObjective,
    ag_triple_check,
    monotone_check,
    region_sat,
    safety,
    safety_prob,
)

from helpers import random_polytopic_rpa, random_safety_dfa


def standard_setup():
    m1, m2 = corpus.retry_component(), corpus.pipeline_component()
    A = (safety(corpus.limit_one_a_dfa(), F(9, 10)),)
    G = (safety(corpus.no_fail_dfa(), F(9, 10)),)
    r1 = Box.of({"p": (0, F(1, 10))})
    tri = [
        v
        for v in region_samples(Box.of({"p": (0, F(9, 10)), "q": (0, 1)}), 4)
        if v["q"] <= 1 - v["p"]
    ]
    return m1, m2, A, G, r1, FiniteRegion.of(tri)


def test_asymmetric_rule_concludes():
    m1, m2, A, G, r1, r2 = standard_setup()
    app = apply_asymmetric(m1, m2, r1, r2, A, G, resolution=4)
    assert app.concluded
    assert app.confidence == "checked-per-sample"
    # conclusion region indeed satisfies the guarantee (direct check)
    direct = region_sat(
        compose(m1, m2), Box.of({"p": (0, F(1, 10)), "q": (0, 1)}), G, "cmp", 2
    )
    assert direct.holds


def test_asymmetric_rule_premise_failure_carries_witness():
    m1, m2, A, G, _, r2 = standard_setup()
    bad_r1 = FiniteRegion.of([{"p": F(1, 5)}])
    app = apply_asymmetric(m1, m2, bad_r1, r2, A, G, resolution=2)
    assert app.status == "premise-failed"
    assert app.conclusion is None
    assert app.failure["valuation"] == {"p": F(1, 5)}


def test_asymmetric_side_condition_enforced():
    m1, m2, _, G, r1, r2 = standard_setup()
    stray = (safety(dfa_forbid_symbols({"z"}, {"a", "z"}), F(1, 2)),)
    with pytest.raises(SideConditionError):
        apply_asymmetric(m1, m2, r1, r2, stray, G)
    wide = (safety(dfa_forbid_symbols({"x"}, {"a", "b", "c", "fail", "x"}), F(1, 2)),)
    with pytest.raises(SideConditionError):
        apply_asymmetric(m1, m2, r1, r2, (safety(corpus.limit_one_a_dfa(), F(9, 10)),), wide)


def test_asymmetric_tautological_assumption():
    m1, m2, _, G, r1, r2 = standard_setup()
    trivial = (ProbObjective(">=", F(0), corpus.trivial_dfa(("a", "b"))),)
    app = apply_asymmetric(m1, m2, r1, r2, trivial, G, resolution=2)
    # premise 1 is vacuous; the conclusion reduces to the triple's guarantee
    assert app.premises[0].verdict.holds
    assert app.status in ("concluded", "premise-failed")


def test_circular_rule():
    m1, m2, _, _, r1, r2 = standard_setup()
    narrow = (safety(dfa_forbid_symbols({"fail"}, {"a", "c", "fail"}), F(9, 10)),)
    # degenerate instantiation: both assumption links carry the same query,
    # over valuations where the pipeline alone meets the bound
    r3 = FiniteRegion.of([{"p": F(1, 10), "q": 0}, {"p": 0, "q": F(1, 10)}])
    app = apply_circular(m1, m2, r3, r3, r3, narrow, narrow, narrow, resolution=2)
    assert app.rule == "circular"
    assert len(app.premises) == 3
    assert app.concluded
    # an unattainable guarantee surfaces as a premise failure with a witness
    strict_g = (safety(dfa_forbid_symbols({"fail"}, {"a", "c", "fail"}), 1),)
    app2 = apply_circular(m1, m2, r3, r3, r3, narrow, narrow, strict_g, resolution=2)
    assert app2.status == "premise-failed"
    assert app2.failure is not None


def test_circular_side_conditions():
    m1, m2, A, G, r1, r2 = standard_setup()
    # first assumption must fit inside component 2's alphabet
    bad_a1 = (safety(corpus.limit_one_a_dfa(), F(9, 10)),)  # alphabet {a, b}
    with pytest.raises(SideConditionError):
        apply_circular(m1, m2, r1, r2, r2, bad_a1, A, G)
    # an empty guarantee would conclude nothing
    with pytest.raises(SideConditionError, match="at least one objective"):
        apply_circular(m1, m2, r1, r2, r2, G, G, ())


def test_asym_n_reduces_to_asymmetric():
    m1, m2, A, G, r1, r2 = standard_setup()
    chained = apply_asym_n([m1, m2], [r1, r2], [A], G, resolution=4)
    direct = apply_asymmetric(m1, m2, r1, r2, A, G, resolution=4)
    assert chained.concluded == direct.concluded
    assert chained.conclusion["region"] == direct.conclusion["region"]
    assert chained.side_conditions == direct.side_conditions
    assert [(p.kind, p.description, p.verdict.status) for p in chained.premises] == [
        (p.kind, p.description, p.verdict.status) for p in direct.premises
    ]


def test_asym_n_with_unit_third_component():
    from pacomp.model import unit_ppa

    m1, m2, A, G, r1, r2 = standard_setup()
    unit = alphabet_extend(unit_ppa(), {"a", "c", "fail"})
    app = apply_asym_n([m1, m2, unit], [r1, r2, r2], [A, G], G, resolution=4)
    assert app.concluded


def test_conjunction_rule():
    m2 = corpus.pipeline_component()
    dfa = dfa_forbid_symbols({"fail"}, {"a", "c", "fail"})
    A = (safety(dfa, F(9, 10)),)
    G = (safety(dfa, F(9, 10)),)
    region = Box.of({"p": (0, 1), "q": (0, 1)})
    app = apply_conjunction(m2, region, region, A, G, A, G, resolution=1)
    assert app.concluded
    # idempotent conjunction keeps the single objective
    assert app.conclusion["assumption"] == A
    assert app.conclusion["guarantee"] == G
    # the concluded triple re-checks directly
    ext = alphabet_extend(m2, set())
    assert ag_triple_check(ext, region, A, G, "prt", 1).holds


def test_conjunction_of_distinct_objectives():
    m2 = corpus.pipeline_component()
    no_fail = safety(dfa_forbid_symbols({"fail"}, {"a", "c", "fail"}), F(9, 10))
    lim_a = safety(dfa_forbid_symbols({"fail"}, {"c", "fail"}), F(9, 10))
    region = FiniteRegion.of([{"p": F(1, 10), "q": F(1, 10)}])
    app = apply_conjunction(
        m2, region, region, (no_fail,), (no_fail,), (lim_a,), (lim_a,), resolution=1
    )
    assert app.concluded
    combined = app.conclusion["guarantee"]
    assert len(combined) == 2
    direct = ag_triple_check(
        m2, region, conjoin((no_fail,), (lim_a,)), combined, "prt", 1
    )
    assert direct.holds


def test_interleaving_rule():
    left = corpus.retry_component()  # alphabet {a, b, c}
    from pacomp.model import make_ppa
    from pacomp.algebra import Polynomial

    one = Polynomial.const(1)
    right = make_ppa(
        ["w0"], "w0", set(), {("w0", "w0_d"): ("d", {"w0": one})}, {"d"}
    )
    trivial_l = (ProbObjective(">=", F(0), corpus.trivial_dfa(("a", "b"))),)
    trivial_r = (ProbObjective(">=", F(0), corpus.trivial_dfa(("d",))),)
    dfa1 = corpus.limit_one_a_dfa()
    dfa2 = dfa_forbid_symbols({"d"}, {"d"})
    r1 = Box.of({"p": (0, F(1, 10))})
    r2 = FiniteRegion.of([{}])
    app = apply_interleaving(
        left, right, r1, r2, trivial_l, trivial_r, dfa1, F(9, 10), dfa2, F(0)
    )
    assert app.concluded
    assert app.conclusion["threshold"] == interleaving_threshold(F(9, 10), F(0))


def test_interleaving_rejects_shared_alphabet():
    m1, m2, A, G, r1, r2 = standard_setup()  # both models share 'a'
    with pytest.raises(SideConditionError):
        apply_interleaving(
            m1, m2, r1, r2, (), (), corpus.limit_one_a_dfa(), F(1, 2),
            corpus.no_fail_dfa(), F(1, 2),
        )


def test_interleaving_threshold_arithmetic():
    rng = random.Random(47)
    for _ in range(20):
        p1 = F(rng.randint(0, 8), 8)
        p2 = F(rng.randint(0, 8), 8)
        assert interleaving_threshold(p1, p2) == p1 + p2 - p1 * p2
    assert interleaving_threshold(0, 0) == 0
    assert interleaving_threshold(1, F(1, 7)) == 1
    assert interleaving_threshold(F(9, 10), F(9, 10)) == F(99, 100)


def test_reward_sum_clauses():
    summed = reward_sum({"a": 1, "b": F(1, 2)}, {"a": 2, "c": 3})
    assert summed["a"] == Polynomial.const(3)
    assert summed["b"] == Polynomial.const(F(1, 2))
    assert summed["c"] == Polynomial.const(3)


def test_reward_sum_rule():
    from pacomp.model import make_ppa
    from pacomp.algebra import Polynomial

    one = Polynomial.const(1)
    left = make_ppa(
        ["l0", "l1"], "l0",
        set(), {("l0", "l0_a"): ("a", {"l1": one}), ("l1", "l1_x"): ("x", {"l1": one})},
        {"a", "x"},
    )
    right = make_ppa(
        ["r0", "r1"], "r0",
        set(), {("r0", "r0_b"): ("b", {"r1": one}), ("r1", "r1_y"): ("y", {"r1": one})},
        {"b", "y"},
    )
    trivial_l = (ProbObjective(">=", F(0), corpus.trivial_dfa(("a",))),)
    trivial_r = (ProbObjective(">=", F(0), corpus.trivial_dfa(("b",))),)
    region = FiniteRegion.of([{}])
    app = apply_reward_sum(
        left, right, region, region, trivial_l, trivial_r,
        {"a": 1}, F(1), {"b": 2}, F(2), cmp="<=",
    )
    assert app.concluded
    assert app.conclusion["threshold"] == F(3)
    # additive identity: a zero second reward keeps the first threshold
    app0 = apply_reward_sum(
        left, right, region, region, trivial_l, trivial_r,
        {"a": 1}, F(1), {"b": 0}, F(0), cmp="<=",
    )
    assert app0.conclusion["threshold"] == F(1)


def test_reward_sum_random_thresholds():
    rng = random.Random(53)
    for _ in range(20):
        t1 = F(rng.randint(0, 20), rng.randint(1, 6))
        t2 = F(rng.randint(0, 20), rng.randint(1, 6))
        assert t1 + t2 == F(t1) + F(t2)  # exact rational addition, no rounding
        summed = reward_sum({"a": t1}, {"a": t2})
        assert summed["a"] == Polynomial.const(t1 + t2)


def test_monotonicity_rule_matches_direct_check():
    m1, m2 = corpus.retry_component(), corpus.pipeline_component()
    obj = safety(corpus.no_fail_dfa(), 1)
    box = Box.of({"p": (0, 1), "q": (0, 1)})
    app = apply_monotonicity(m1, m2, box, box, obj, "q", "down", resolution=2)
    assert app.concluded
    direct = monotone_check(compose(m1, m2), box, obj, "q", "down", "cmp", resolution=2)
    assert direct.holds
    # constant objectives conclude in both directions
    const = safety(corpus.trivial_dfa(("a", "b", "c", "fail")), 1)
    for direction in ("up", "down"):
        assert apply_monotonicity(m1, m2, box, box, const, "q", direction, resolution=1).concluded


def test_monotonicity_rule_on_an_empty_region_is_vacuous():
    m1, m2 = corpus.retry_component(), corpus.pipeline_component()
    obj = safety(corpus.no_fail_dfa(), 1)
    box = Box.of({"p": (0, 1), "q": (0, 1)})
    r2 = FiniteRegion.of([])
    app = apply_monotonicity(m1, m2, box, r2, obj, "q", "down", resolution=1)
    assert app.concluded and app.premises[0].verdict.holds
    second = app.premises[1].verdict
    assert second.holds and second.caveat == "region denotes no valuation; vacuously holds"


def test_simulation_ag_rule():
    m1, m2 = corpus.handoff_fixed(), corpus.split_responder()
    region = FiniteRegion.of([{"p": F(1, 10)}, {"p": F(9, 10)}])
    # completeness instantiation: the assumption is the component itself
    app = apply_simulation_ag(m1, m2, m1, compose(m2, m1), region, region)
    assert app.premises[0].verdict.holds  # reflexivity discharges premise 1
    assert app.concluded
    # strong flavor concludes for the mirrored-branch responder as guarantee
    guard = compose(corpus.handoff_parametric(), m2)
    app2 = apply_simulation_ag(
        corpus.handoff_parametric(), m2, corpus.handoff_parametric(), guard,
        region, region,
    )
    assert app2.concluded


def test_simulation_ag_robust_flavor_contrast():
    m2 = corpus.split_responder()
    region = FiniteRegion.of([{"p": F(1, 10)}, {"p": F(9, 10)}])
    fixed = corpus.handoff_fixed()
    # robust flavor fails at premise 1 when no uniform relation exists
    app = apply_simulation_ag(fixed, m2, m2, compose(m2, m2), region, region, robust=True)
    assert app.status == "premise-failed"
    # while the parametric variant admits a uniform witness
    para = corpus.handoff_parametric()
    app2 = apply_simulation_ag(
        para, m2, para, compose(m2, para), region, region, robust=True
    )
    assert app2.concluded


def test_simulation_ag_side_condition():
    m1 = corpus.handoff_fixed()
    bigger = alphabet_extend(corpus.split_responder(), {"z"})
    region = FiniteRegion.of([{"p": F(1, 10)}])
    with pytest.raises(SideConditionError):
        apply_simulation_ag(m1, m1, bigger, m1, region, region)


def test_fairness_variants_are_attested_only():
    m1, m2, A, G, r1, r2 = standard_setup()
    with pytest.raises(ValueError):
        apply_asymmetric(m1, m2, r1, r2, A, G, fairness=FairnessAttestation((), ()))
    fair = FairnessAttestation(
        (("a",),), ("assumed: component 1 premise", "assumed: component 2 premise")
    )
    app = apply_asymmetric(m1, m2, r1, r2, A, G, fairness=fair)
    assert app.concluded
    assert app.confidence == "attested"
    assert all(p.kind == "attested" for p in app.premises)


def test_rpa_asymmetric_demo():
    u1, u2 = corpus.interval_retry(), corpus.interval_responder()
    trivial = (ProbObjective(">=", F(0), corpus.trivial_dfa(("a", "b"))),)
    goal = (safety(corpus.no_c_dfa(), F(1, 10)),)
    app = apply_rpa_rules("asymmetric", u1, u2, trivial, goal)
    assert app.concluded
    # the convex composition honors the guarantee, the relaxation does not
    assert safety_prob(pa_reduce(conv_compose(u1, u2)), goal[0]) >= F(1, 10)
    assert safety_prob(pa_reduce(interval_relax_compose(u1, u2)), goal[0]) < F(1, 10)


def test_rpa_rule_side_condition_and_dispatch():
    u1, u2 = corpus.interval_retry(), corpus.interval_responder()
    stray = (safety(dfa_forbid_symbols({"z"}, {"z"}), F(1, 2)),)
    goal = (safety(corpus.no_c_dfa(), F(1, 10)),)
    with pytest.raises(SideConditionError):
        apply_rpa_rules("asymmetric", u1, u2, stray, goal)
    with pytest.raises(ValueError):
        apply_rpa_rules("no-such-rule", u1, u2, stray, goal)


def test_rpa_conjunction():
    u2 = corpus.interval_responder()
    no_c = (safety(corpus.no_c_dfa(), F(1, 10)),)
    app = apply_rpa_rules("conjunction", u2, no_c, no_c, no_c, no_c)
    assert app.concluded
    assert len(app.conclusion["guarantee"]) == 1  # idempotent conjunction


def _random_safety_query(rng, alphabet, threshold=None):
    dfa = random_safety_dfa(rng, sorted(alphabet), allow_empty=False)
    return (safety(dfa, F(rng.randint(0, 4), 8) if threshold is None else threshold),)


def test_robust_rules_are_sound_on_random_polytopic_pairs():
    rng = random.Random(61)
    concluded = {"asymmetric": 0, "circular": 0, "asym-n": 0}
    for _ in range(30):
        u1 = random_polytopic_rpa(rng, "u", ["a", "b"], n_states=2)
        u2 = random_polytopic_rpa(rng, "w", ["a", "c"], n_states=rng.randint(2, 3))
        joint = pa_reduce(conv_compose(u1, u2))
        # assumptions at their exact worst case, so the plain premises hold
        a_dfa = random_safety_dfa(rng, ["a", "b"], allow_empty=False)
        A = (safety(a_dfa, safety_prob(pa_reduce(u1), safety(a_dfa, 0))),)
        a1_dfa = random_safety_dfa(rng, ["a", "c"], allow_empty=False)
        A1 = (safety(a1_dfa, safety_prob(pa_reduce(u2), safety(a1_dfa, 0))),)
        G = _random_safety_query(rng, {"a", "b", "c"})
        apps = {
            "asymmetric": apply_rpa_rules("asymmetric", u1, u2, A, G),
            "circular": apply_rpa_rules(
                "circular", u1, u2, A1, _random_safety_query(rng, {"a", "b", "c"}), G
            ),
            "asym-n": apply_rpa_rules("asym-n", [u1, u2], [A], G),
        }
        for rule, app in apps.items():
            if app.concluded:
                concluded[rule] += 1
                assert safety_prob(joint, G[0]) >= G[0].threshold
    assert min(concluded.values()) >= 5, concluded


def test_rpa_interleaving_rule():
    rng = random.Random(67)
    u1 = random_polytopic_rpa(rng, "u", ["a", "b"], n_states=2)
    u2 = random_polytopic_rpa(rng, "w", ["c", "d"], n_states=2)
    trivial1 = (safety(dfa_forbid_symbols((), {"a", "b"}), 1),)
    trivial2 = (safety(dfa_forbid_symbols((), {"c", "d"}), 1),)
    dfa1 = random_safety_dfa(rng, ["a", "b"], allow_empty=False)
    dfa2 = random_safety_dfa(rng, ["c", "d"], allow_empty=False)
    p1 = safety_prob(pa_reduce(u1), safety(dfa1, 0))
    p2 = safety_prob(pa_reduce(u2), safety(dfa2, 0))
    app = apply_rpa_rules("interleaving", u1, u2, trivial1, trivial2, dfa1, p1, dfa2, p2)
    assert app.rule == "rpa-interleaving" and app.concluded
    assert app.conclusion["kind"] == "rpa-triple"
    assert app.conclusion["threshold"] == interleaving_threshold(p1, p2)
    guarantee = app.conclusion["guarantee"][0]
    joint = pa_reduce(conv_compose(u1, u2))
    assert safety_prob(joint, guarantee) >= guarantee.threshold
