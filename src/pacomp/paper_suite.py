"""Golden regression over the bundled demo corpus.

Each anchor recomputes one documented exact value or structural fact from the
corpus models and compares bit-for-bit.  `run_suite` returns one record per
anchor; everything here is deterministic.
"""

from __future__ import annotations

from fractions import Fraction as F

from . import corpus
from .algebra import Box, FiniteRegion, Polynomial, parse_poly, poly_eval, region_samples
from .model import (
    WellDefinedness,
    alphabet_extend,
    compose,
    dfa_product,
    instantiate,
    isomorphic,
    tau_extend,
    unit_ppa,
    well_defined,
)
from .proofrules import (
    apply_asymmetric,
    apply_monotonicity,
    apply_rpa_rules,
    interleaving_threshold,
    reward_sum,
)
from .robust import (
    conv_compose,
    fix_nature,
    interval_extreme_points,
    interval_relax_compose,
    is_product_member,
    pa_reduce,
    rpa_compose,
)
from .semantics import strategy_project
from .simulate import robust_strong_sim, strong_sim, strong_sim_region
from .verify import (
    ProbObjective,
    chain_language_prob,
    region_sat,
    safety,
    safety_prob,
)

SOLUTION_FORMULA = "1 - (1/10*p^2 + (p - p^2)*q)"


def _anchors():
    m1, m2 = corpus.retry_component(), corpus.pipeline_component()
    comp = compose(m1, m2)
    v = {"p": F(1, 10), "q": F(1, 10)}

    def composition_shape():
        return len(comp.states) == 10 and comp.alphabet == frozenset("abc") | {"fail"}

    def instantiation_entry():
        return instantiate(m2, v).const_dist("t0", "t0_a") == {
            "t1": F(9, 10),
            "t2": F(1, 10),
        }

    def product_edge_polynomials():
        d = comp.dist(("s0", "t0"), ("s0_a", "t0_a"))
        want = parse_poly("(1-p)*(1-p)")
        return d[("s1", "t1")] == want and d[("s0", "t2")] == parse_poly("p*p")

    def well_definedness_trichotomy():
        return (
            well_defined(m1, {"p": F(1, 10)}) is WellDefinedness.GRAPH_PRESERVING
            and well_defined(m1, {"p": 0}) is WellDefinedness.WELL_DEFINED
            and well_defined(m1, {"p": 2}) is WellDefinedness.NEITHER
        )

    def composition_unit_law():
        return isomorphic(compose(m1, unit_ppa()), m1)

    cv = instantiate(comp, v)
    sigma = corpus.priority_strategy(cv)
    proj = strategy_project(cv, sigma, side=2, horizon=6)

    def projection_first_step():
        return proj.mass(("t0",), "t0_a") == 1

    def projection_conditional():
        return proj.mass(("t0", "t0_a", "t2"), "t2_c") == F(1, 10)

    def projection_other_branch():
        return proj.mass(("t0", "t0_a", "t1"), "t1_a") == F(1, 10)

    def projection_is_partial():
        total = sum(proj.dist(("t0", "t0_a", "t2")).values(), F(0))
        return total == F(1, 10) < 1

    def projection_valuation_independent():
        hi = {"p": F(9, 10), "q": F(9, 10)}
        dep = compose(instantiate(m1, v), instantiate(m2, hi))
        proj_dep = strategy_project(dep, corpus.priority_strategy(dep), 2, horizon=6)
        paths = [("t0",), ("t0", "t0_a", "t2"), ("t0", "t0_a", "t1")]
        return all(proj.dist(p) == proj_dep.dist(p) for p in paths)

    def preservation_under_strategy():
        got = chain_language_prob(cv, sigma, corpus.no_fail_dfa())
        return got == poly_eval(parse_poly(SOLUTION_FORMULA), v)

    def solution_function_grid():
        formula = parse_poly(SOLUTION_FORMULA)
        obj = safety(corpus.no_fail_dfa(), F(9, 10))
        grid = region_samples(Box.of({"p": (0, 1), "q": (0, 1)}), 1)
        return len(grid) >= 9 and all(
            safety_prob(instantiate(comp, g), obj) == poly_eval(formula, g)
            for g in grid
        )

    A = (safety(corpus.limit_one_a_dfa(), F(9, 10)),)
    G = (safety(corpus.no_fail_dfa(), F(9, 10)),)

    def asymmetric_rule_demo():
        r1 = Box.of({"p": (0, F(1, 10))})
        tri = [
            s
            for s in region_samples(Box.of({"p": (0, F(9, 10)), "q": (0, 1)}), 4)
            if s["q"] <= 1 - s["p"]
        ]
        app = apply_asymmetric(m1, m2, r1, FiniteRegion.of(tri), A, G, resolution=4)
        direct = region_sat(
            comp, Box.of({"p": (0, F(1, 10)), "q": (0, 1)}), G, "cmp", 2
        )
        outside = region_sat(m1, FiniteRegion.of([{"p": F(1, 5)}]), A, "cmp")
        return app.concluded and direct.holds and outside.status == "fails"

    def monotonicity_rule_demo():
        obj = safety(corpus.no_fail_dfa(), F(9, 10))
        box = Box.of({"p": (0, 1), "q": (0, 1)})
        app = apply_monotonicity(m1, m2, box, box, obj, "q", "down", resolution=2)
        return app.concluded

    u1, u2 = corpus.interval_retry(), corpus.interval_responder()

    def extreme_points_demo():
        got1 = interval_extreme_points(
            u1.utrans[("s0", "s0_a")]
        )
        got2 = interval_extreme_points(u2.utrans[("t0", "t0_a")])
        return (
            got1 == [{"s0": F(1, 2), "s1": F(1, 2)}, {"s1": F(1)}]
            and got2
            == [
                {"t1": F(1, 10), "t2": F(9, 10)},
                {"t1": F(9, 10), "t2": F(1, 10)},
            ]
        )

    def nonconvex_witness():
        pset = rpa_compose(u1, u2).utrans[(("s0", "t0"), ("s0_a", "t0_a"))]
        mu_conv = {
            ("s0", "t1"): F(27, 80),
            ("s0", "t2"): F(3, 80),
            ("s1", "t1"): F(29, 80),
            ("s1", "t2"): F(21, 80),
        }
        verdict, info = is_product_member(mu_conv, pset)
        return (
            verdict == "not-member"
            and info["cell"] == ("s1", "t1")
            and info["factored"] == F(9, 16)
            and info["observed"] == F(29, 80)
        )

    def relaxation_bounds():
        rel = interval_relax_compose(u1, u2)
        bounds = dict(rel.utrans[(("s0", "t0"), ("s0_a", "t0_a"))].bounds)
        return bounds[("s0", "t1")] == (F(0), F(9, 20)) and bounds[("s1", "t1")] == (
            F(1, 20),
            F(9, 10),
        )

    def memoryless_nature_violation():
        composed = rpa_compose(u1, u2)
        nature = {
            (("s0", "t0"), ("s0_a", "t0_a")): {("s1", "t1"): F(9, 10), ("s1", "t2"): F(1, 10)},
            (("s1", "t0"), ("s1_a", "t0_a")): {("s1", "t1"): F(1, 10), ("s1", "t2"): F(9, 10)},
        }
        pa = fix_nature(composed, nature)
        strat = corpus.priority_strategy(pa, priority=("a", "c", "fail"), fallback="b")
        violation = 1 - chain_language_prob(pa, strat, corpus.acaf_prefix_dfa())
        return violation == F(81, 100)

    def reduced_convex_value():
        red = pa_reduce(conv_compose(u1, u2))
        val = safety_prob(red, safety(corpus.acaf_prefix_dfa(), F(1, 4)))
        return val == F(19, 100) and val < F(1, 4)

    def nonconvex_violation():
        composed = rpa_compose(corpus.half_retry(), corpus.two_point_responder())
        nature = {
            (("s0", "t0"), ("s0_a", "t0_a")): {
                ("s0", "t1"): F(1, 20),
                ("s0", "t2"): F(9, 20),
                ("s1", "t1"): F(1, 20),
                ("s1", "t2"): F(9, 20),
            }
        }
        pa = fix_nature(composed, nature)
        strat = corpus.priority_strategy(pa, priority=("a", "b"), fallback="fail")
        violation = 1 - chain_language_prob(pa, strat, corpus.ab_prefix_dfa())
        return violation == F(9, 20)

    def interval_relaxation_violation():
        rel = interval_relax_compose(u1, u2)
        nature = {
            (("s0", "t0"), ("s0_a", "t0_a")): {
                ("s0", "t1"): F(1, 20),
                ("s1", "t1"): F(9, 10),
                ("s1", "t2"): F(1, 20),
            }
        }
        pa = fix_nature(rel, nature)
        strat = corpus.priority_strategy(pa, priority=("a", "c"), fallback="fail")
        never_c = chain_language_prob(pa, strat, corpus.no_c_dfa())
        return 1 - never_c == F(19, 20) and never_c < F(1, 10)

    def robust_rule_contrast():
        trivial = (ProbObjective(">=", F(0), corpus.trivial_dfa(("a", "b"))),)
        goal = (safety(corpus.no_c_dfa(), F(1, 10)),)
        app = apply_rpa_rules("asymmetric", u1, u2, trivial, goal)
        conv_val = safety_prob(pa_reduce(conv_compose(u1, u2)), goal[0])
        relax_val = safety_prob(pa_reduce(interval_relax_compose(u1, u2)), goal[0])
        return (
            app.concluded
            and conv_val == F(1, 10) >= F(1, 10)
            and relax_val == F(1, 20) < F(1, 10)
        )

    def reduction_commutation_demo():
        left = pa_reduce(conv_compose(u1, u2))
        right = compose(pa_reduce(u1), pa_reduce(u2))
        for dfa in (corpus.no_c_dfa(), corpus.acaf_prefix_dfa(), corpus.no_fail_dfa()):
            obj = safety(dfa, F(1, 2))
            if safety_prob(left, obj) != safety_prob(right, obj):
                return False
        return True

    m1p, m2p = corpus.handoff_fixed(), corpus.split_responder()
    region = FiniteRegion.of([{"p": F(1, 10)}, {"p": F(9, 10)}])

    def simulation_goldens():
        r_lo = strong_sim(instantiate(m1p, {"p": F(1, 10)}), instantiate(m2p, {"p": F(1, 10)}))
        r_hi = strong_sim(instantiate(m1p, {"p": F(9, 10)}), instantiate(m2p, {"p": F(9, 10)}))
        per_val = strong_sim_region(m1p, m2p, region)
        return (
            r_lo == frozenset({("s0", "t0"), ("s1", "t1")})
            and r_hi == frozenset({("s0", "t0"), ("s1", "t2")})
            and per_val.holds
        )

    def robust_simulation_contrast():
        fixed = robust_strong_sim(m1p, m2p, region)
        parametric = robust_strong_sim(corpus.handoff_parametric(), m2p, region)
        return fixed is None and parametric is not None and ("s0", "t0") in parametric

    def alphabet_extension_structure():
        ext = alphabet_extend(m2, {"a", "b"})
        twice = alphabet_extend(alphabet_extend(m2, {"a"}), {"b"})
        loops = [key for key in ext.trans if key[1] == ("loop", "b")]
        return (
            len(loops) == len(m2.states)
            and ext.trans.keys() == twice.trans.keys()
            and alphabet_extend(m2, {"a", "c"}).trans.keys() == m2.trans.keys()
        )

    def tau_extension_structure():
        small = corpus.handoff_fixed()
        ext = tau_extend(small)
        gp = well_defined(ext, {}) is well_defined(small, {})
        return len(ext.states) == 3 and len(ext.trans) == len(small.trans) + 3 and gp

    def rule_arithmetic():
        t = interleaving_threshold(F(9, 10), F(9, 10))
        rsum = reward_sum({"a": 1}, {"a": 2, "b": F(1, 2)})
        return (
            t == F(99, 100)
            and interleaving_threshold(0, 0) == 0
            and interleaving_threshold(1, F(1, 3)) == 1
            and rsum["a"] == Polynomial.const(3)
            and rsum["b"] == Polynomial.const(F(1, 2))
        )

    def dfa_product_marks_bad():
        product, bad = dfa_product(instantiate(comp, v), corpus.no_fail_dfa())
        return len(product.states) == len(comp.states) * 2 and all(
            q == "bad" for (_, q) in bad
        )

    return [
        ("composition-shape", composition_shape),
        ("instantiation-entry", instantiation_entry),
        ("product-edge-polynomials", product_edge_polynomials),
        ("well-definedness-trichotomy", well_definedness_trichotomy),
        ("composition-unit-law", composition_unit_law),
        ("projection-first-step", projection_first_step),
        ("projection-conditional", projection_conditional),
        ("projection-other-branch", projection_other_branch),
        ("projection-is-partial", projection_is_partial),
        ("projection-valuation-independent", projection_valuation_independent),
        ("preservation-under-strategy", preservation_under_strategy),
        ("solution-function-grid", solution_function_grid),
        ("asymmetric-rule-demo", asymmetric_rule_demo),
        ("monotonicity-rule-demo", monotonicity_rule_demo),
        ("extreme-points-demo", extreme_points_demo),
        ("nonconvex-witness", nonconvex_witness),
        ("relaxation-bounds", relaxation_bounds),
        ("memoryless-nature-violation", memoryless_nature_violation),
        ("reduced-convex-value", reduced_convex_value),
        ("nonconvex-violation", nonconvex_violation),
        ("interval-relaxation-violation", interval_relaxation_violation),
        ("robust-rule-contrast", robust_rule_contrast),
        ("reduction-commutation-demo", reduction_commutation_demo),
        ("simulation-goldens", simulation_goldens),
        ("robust-simulation-contrast", robust_simulation_contrast),
        ("alphabet-extension-structure", alphabet_extension_structure),
        ("tau-extension-structure", tau_extension_structure),
        ("rule-arithmetic", rule_arithmetic),
        ("dfa-product-marks-bad", dfa_product_marks_bad),
    ]


def run_suite():
    results = []
    for name, check in _anchors():
        try:
            ok = bool(check())
            detail = ""
        except Exception as exc:  # pragma: no cover - surfaced in the report
            ok = False
            detail = f"{type(exc).__name__}: {exc}"
        results.append({"anchor": name, "pass": ok, "detail": detail})
    return results
