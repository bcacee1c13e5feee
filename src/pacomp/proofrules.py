"""The assume-guarantee rule engine.

Each rule checks its alphabet side conditions, declares its premises once
(`_apply`), and assembles a conclusion with a confidence label.  A premise
check dispatches to the verify/simulate modules.  A fairness-quantified rule
variant attests the same premise list by external notes instead of checking
it, and always carries the attested confidence.
`RULES` declares each rule's arguments once; the proof-script decoder
(`modelio`) and the robust rules for convex rPAs, which apply these rules to
PA-reductions (`apply_rpa_rules`), both read it.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, replace
from fractions import Fraction

from .algebra import FiniteRegion, Polynomial, region_intersect
from .errors import SideConditionError
from .model import alphabet_extend, compose, dfa_union_bad
from .robust import pa_reduce
from .simulate import robust_sim_region, strong_sim_region
from .verify import (
    ProbObjective,
    Verdict,
    ag_triple_check,
    is_safe_query,
    monotone_check,
    query_alphabet,
    region_sat,
    reward_objective,
)

CHECKED = "checked-per-sample"
ATTESTED = "attested"


@dataclass
class Premise:
    kind: str  # region-sat | ag-triple | monotone | sim-leq | attested
    description: str
    verdict: Verdict | None = None
    attestation: str | None = None


@dataclass
class RuleApplication:
    rule: str
    premises: list
    side_conditions: list
    conclusion: dict | None
    confidence: str = CHECKED
    status: str = "concluded"

    @property
    def concluded(self) -> bool:
        return self.status == "concluded"


def _require(cond, message):
    if not cond:
        raise SideConditionError(message)


def _require_guarantees(*queries):
    """A guarantee without objectives would conclude nothing."""
    _require(all(queries), "a guarantee query must have at least one objective")


@dataclass(frozen=True)
class FairnessAttestation:
    """External evidence for fairness-quantified premises; never auto-checked."""

    fairness_sets: tuple
    notes: tuple


def conjoin(q1, q2) -> tuple:
    """Conjunction of mo-queries is plain set union."""
    out = list(q1)
    for obj in q2:
        if obj not in out:
            out.append(obj)
    return tuple(out)


def _apply(rule, side_conditions, conclusion, fairness, premises, safe=()):
    """Conclude `rule` from its premises, each (kind, description, fair
    description, check) where check() returns the premise's Verdict.

    With a fairness attestation, each premise is attested by its note under
    its fair description and `<rule>-fair` concludes at attested confidence.
    Otherwise `safe`, a message and the queries that must be safety queries,
    is enforced; every check runs in order, and a premise that does not hold
    fails the rule, its verdict carrying the witness.
    """
    if fairness is None:
        if safe:
            message, *queries = safe
            _require(all(is_safe_query(q) for q in queries), message)
        checked = [Premise(kind, description, check())
                   for kind, description, _, check in premises]
        if all(p.verdict.holds for p in checked):
            return RuleApplication(rule, checked, side_conditions, conclusion)
        return RuleApplication(rule, checked, side_conditions, None, status="premise-failed")
    if len(fairness.notes or ()) != len(premises):
        raise ValueError("fairness variants need one attestation note per premise")
    attested = [Premise("attested", fair, attestation=note)
                for (_, _, fair, _), note in zip(premises, fairness.notes)]
    return RuleApplication(f"{rule}-fair", attested, side_conditions, conclusion, ATTESTED)


def _sat_premise(description, fair, m, region, query, resolution):
    """The model satisfies the query on the region under complete strategies."""
    return ("region-sat", description, fair,
            lambda: region_sat(m, region, query, "cmp", resolution))


def _triple_premise(description, fair, m, region, assumption, guarantee, resolution):
    """The triple on `m` extended by the assumption's alphabet, partial strategies."""
    return ("ag-triple", description, fair,
            lambda: ag_triple_check(alphabet_extend(m, query_alphabet(assumption)), region,
                                    assumption, guarantee, "prt", resolution))


# ---------------------------------------------------------------------------
# Asymmetric and circular rules
# ---------------------------------------------------------------------------

def apply_asymmetric(m1, m2, r1, r2, assumption, guarantee,
                     resolution=1, fairness=None) -> RuleApplication:
    return apply_asym_n([m1, m2], [r1, r2], [assumption], guarantee, resolution, fairness)


def apply_circular(m1, m2, r1, r2, r3, a1, a2, guarantee,
                   resolution=1, fairness=None) -> RuleApplication:
    _require_guarantees(guarantee)
    s1, s2, sg = query_alphabet(a1), query_alphabet(a2), query_alphabet(guarantee)
    _require(s1 <= m2.alphabet, "first assumption alphabet must lie inside component 2's")
    _require(s2 <= m1.alphabet | s1,
             "second assumption alphabet must lie inside component 1's plus the first's")
    _require(sg <= m2.alphabet | s2,
             "guarantee alphabet must lie inside component 2's plus assumption 2's")
    side = ["assumption-1 within component 2",
            "assumption-2 within component 1 + assumption-1",
            "guarantee within component 2 + assumption-2"]
    conclusion = {
        "kind": "region-sat",
        "model": "m1 || m2",
        "region": region_intersect(region_intersect(r1, r2), r3),
        "query": guarantee,
        "strategy_class": "cmp",
    }
    return _apply("circular", side, conclusion, fairness, [
        _triple_premise("assumption-1 => assumption-2 on extended component 1",
                        "triple on component 1 (fair)", m1, r1, a1, a2, resolution),
        _triple_premise("assumption-2 => guarantee on extended component 2",
                        "triple on component 2 (fair)", m2, r2, a2, guarantee, resolution),
        _sat_premise("component 2 satisfies assumption 1",
                     "component 2 satisfies assumption 1 (fair)", m2, r3, a1, resolution),
    ], ("the complete-strategy circular rule needs safety mo-queries", a1, a2, guarantee))


def apply_asym_n(models, regions, assumptions, guarantee,
                 resolution=1, fairness=None) -> RuleApplication:
    """ASYM-N: component 1 meets the first assumption, and each later component
    turns the previous query into the next; at n = 2 this is the asymmetric rule."""
    n = len(models)
    _require(n >= 2, "the chained rule needs at least two components")
    _require_guarantees(guarantee)
    _require(len(regions) == n and len(assumptions) == n - 1,
             "the chained rule needs one region per component and n-1 assumptions")
    queries = list(assumptions) + [guarantee]
    sigmas = [query_alphabet(q) for q in queries]
    _require(sigmas[0] <= models[0].alphabet,
             "assumption alphabet must lie inside component 1's")
    side = [f"{sorted(sigmas[0])} within component-1 alphabet"]
    for i in range(1, n):
        name = "guarantee" if i == n - 1 else f"assumption {i + 1}"
        _require(
            sigmas[i] <= models[i].alphabet | sigmas[i - 1],
            f"{name} alphabet must lie inside component {i + 1}'s plus the assumption's",
        )
        side.append(f"{sorted(sigmas[i])} within component-{i + 1} alphabet plus assumption's")
    region = regions[0]
    for r in regions[1:]:
        region = region_intersect(region, r)
    conclusion = {
        "kind": "region-sat",
        "model": " || ".join(f"m{i + 1}" for i in range(n)),
        "region": region,
        "query": guarantee,
        "strategy_class": "cmp",
    }
    premises = [
        _sat_premise("component 1 satisfies the assumption on its region",
                     "component 1 satisfies the assumption (fair)",
                     models[0], regions[0], queries[0], resolution)
    ] + [
        _triple_premise(f"extended component {i + 1} satisfies assumption => guarantee",
                        f"component {i + 1} triple assumption => guarantee (fair)",
                        models[i], regions[i], queries[i - 1], queries[i], resolution)
        for i in range(1, n)
    ]
    return _apply("asymmetric" if n == 2 else "asymmetric-n", side, conclusion, fairness,
                  premises, ("the complete-strategy asymmetric rule needs safety mo-queries",
                             *queries))


# ---------------------------------------------------------------------------
# Conjunction / interleaving / reward sum
# ---------------------------------------------------------------------------

def apply_conjunction(m, r1, r2, a1, g1, a2, g2,
                      resolution=1, fairness=None) -> RuleApplication:
    _require_guarantees(g1, g2)
    for a, g in ((a1, g1), (a2, g2)):
        _require(
            query_alphabet(g) <= m.alphabet | query_alphabet(a),
            "guarantee alphabets must lie inside the model's plus its assumption's",
        )
    side = ["guarantee alphabets within model + assumption alphabets"]
    a_and, g_and = conjoin(a1, a2), conjoin(g1, g2)
    conclusion = {
        "kind": "ag-triple",
        "model": "m extended to the joint assumption alphabet",
        "region": region_intersect(r1, r2),
        "assumption": a_and,
        "guarantee": g_and,
        "strategy_class": "prt",
    }
    return _apply("conjunction", side, conclusion, fairness, [
        _triple_premise("first triple", "first triple (fair)", m, r1, a1, g1, resolution),
        _triple_premise("second triple", "second triple (fair)", m, r2, a2, g2, resolution),
    ], ("the partial-strategy conjunction rule needs safety mo-queries", a1, g1, a2, g2))


def interleaving_threshold(p1, p2) -> Fraction:
    return Fraction(p1) + Fraction(p2) - Fraction(p1) * Fraction(p2)


def apply_interleaving(m1, m2, r1, r2, a1, a2, dfa1, p1, dfa2, p2,
                       resolution=1, fairness=None) -> RuleApplication:
    left = m1.alphabet | query_alphabet(a1)
    right = m2.alphabet | query_alphabet(a2)
    _require(not (left & right),
             "interleaving needs disjoint component-plus-assumption alphabets")
    side = ["component + assumption alphabets disjoint"]
    threshold = interleaving_threshold(p1, p2)
    g1 = ProbObjective(">=", Fraction(p1), dfa1)
    g2 = ProbObjective(">=", Fraction(p2), dfa2)
    conclusion = {
        "kind": "ag-triple",
        "model": "(m1 || m2) extended to the joint assumption alphabet",
        "region": region_intersect(r1, r2),
        "assumption": conjoin(a1, a2),
        "guarantee": (ProbObjective(">=", threshold, dfa_union_bad(dfa1, dfa2)),),
        "threshold": threshold,
        "strategy_class": "prt",
    }
    return _apply("interleaving", side, conclusion, fairness, [
        _triple_premise("component 1 bound", "first triple (fair)",
                        m1, r1, a1, (g1,), resolution),
        _triple_premise("component 2 bound", "second triple (fair)",
                        m2, r2, a2, (g2,), resolution),
    ], ("the partial-strategy interleaving rule needs safety queries", (g1, g2), a1, a2))


def reward_sum(rw1, rw2) -> dict:
    """Pointwise sum of two per-symbol reward functions."""
    out = {s: Polynomial.coerce(r) for s, r in dict(rw1).items()}
    for s, r in dict(rw2).items():
        out[s] = out.get(s, Polynomial.const(0)) + Polynomial.coerce(r)
    return out


def apply_reward_sum(m1, m2, r1, r2, a1, a2, rw1, thr1, rw2, thr2,
                     cmp=">=", resolution=1, fairness=None) -> RuleApplication:
    for m, a, rw in ((m1, a1, rw1), (m2, a2, rw2)):
        _require(
            frozenset(dict(rw)) <= m.alphabet | query_alphabet(a),
            "reward alphabets must lie inside the component's plus its assumption's",
        )
    side = ["reward alphabets within components + assumptions"]
    summed = reward_sum(rw1, rw2)
    threshold = Fraction(thr1) + Fraction(thr2)
    conclusion = {
        "kind": "ag-triple",
        "model": "(m1 || m2) extended to the joint assumption alphabet",
        "region": region_intersect(r1, r2),
        "assumption": conjoin(a1, a2),
        "guarantee": (reward_objective(cmp, threshold, summed),),
        "threshold": threshold,
        "reward": {s: str(p) for s, p in sorted(summed.items())},
        "strategy_class": "fair" if fairness is not None else "prt",
    }
    return _apply("reward-sum", side, conclusion, fairness, [
        _triple_premise("component 1 reward triple", "component 1 reward triple (fair)",
                        m1, r1, a1, (reward_objective(cmp, thr1, rw1),), resolution),
        _triple_premise("component 2 reward triple", "component 2 reward triple (fair)",
                        m2, r2, a2, (reward_objective(cmp, thr2, rw2),), resolution),
    ])


# ---------------------------------------------------------------------------
# Monotonicity rule
# ---------------------------------------------------------------------------

def apply_monotonicity(m1, m2, r1, r2, objective, param, direction,
                       resolution=1, grid_denominator=1, fairness=None) -> RuleApplication:
    sigma = objective.alphabet
    _require(sigma <= m1.alphabet | m2.alphabet,
             "objective alphabet must lie inside the joint alphabet")
    side = ["objective alphabet within the joint alphabet",
            "premise samples graph-preserving"]
    conclusion = {
        "kind": "monotone",
        "model": "m1 || m2",
        "region": region_intersect(r1, r2),
        "parameter": param,
        "direction": direction,
        "strategy_class": "fair" if fairness is not None else "prt",
    }

    def check(m, r):
        return monotone_check(alphabet_extend(m, sigma), r, objective, param, direction, "prt",
                              resolution, grid_denominator, graph_preserving=True)

    return _apply("monotonicity", side, conclusion, fairness, [
        ("monotone", f"component 1 monotone in {param!r}", "component 1 monotone (fair)",
         lambda: check(m1, r1)),
        ("monotone", f"component 2 monotone in {param!r}", "component 2 monotone (fair)",
         lambda: check(m2, r2)),
    ])


# ---------------------------------------------------------------------------
# Simulation-based rule
# ---------------------------------------------------------------------------

def apply_simulation_ag(m1, m2, m_assume, m_guarantee, r1, r2,
                        robust=False, resolution=1) -> RuleApplication:
    _require(m_assume.alphabet <= m1.alphabet,
             "assumption alphabet must lie inside component 1's")
    side = ["assumption alphabet within component 1's"]
    flavor = "robust-strong" if robust else "strong"
    check = robust_sim_region if robust else strong_sim_region

    conclusion = {
        "kind": "sim-leq",
        "left": "m1 || m2",
        "right": "m_guarantee",
        "region": region_intersect(r1, r2),
        "flavor": flavor,
    }
    return _apply(f"simulation-ag-{flavor}", side, conclusion, None, [
        ("sim-leq", f"component 1 {flavor}-simulated by the assumption", None,
         lambda: check(m1, m_assume, r1, resolution)),
        ("sim-leq",
         f"component 2 composed with the assumption {flavor}-simulated by the guarantee", None,
         lambda: check(compose(m2, m_assume), m_guarantee, r2, resolution)),
    ])


# ---------------------------------------------------------------------------
# The rule table, and the rules for polytopic robust automata
# ---------------------------------------------------------------------------

# rule -> (function, argument -> its kind, attestation notes of its fairness
# variant, whether it has a robust variant).  A kind is the script section
# the argument names an entry of, "objective" (the one objective of a named
# query), a one-item list of a kind for a list, or the shape of an inline
# value (`modelio._decode`).  The notes are a count, the list argument with
# one note per entry, or None for no fairness variant.
_M, _R, _Q = "models", "regions", "queries"
RULES = {
    "asymmetric": (apply_asymmetric, dict(m1=_M, m2=_M, r1=_R, r2=_R, assumption=_Q,
                                          guarantee=_Q), 2, True),
    "circular": (apply_circular, dict(m1=_M, m2=_M, r1=_R, r2=_R, r3=_R, a1=_Q, a2=_Q,
                                      guarantee=_Q), 3, True),
    "conjunction": (apply_conjunction, dict(m=_M, r1=_R, r2=_R, a1=_Q, g1=_Q, a2=_Q, g2=_Q),
                    2, True),
    "asym-n": (apply_asym_n, dict(models=[_M], regions=[_R], assumptions=[_Q], guarantee=_Q),
               "models", True),
    "interleaving": (apply_interleaving, dict(m1=_M, m2=_M, r1=_R, r2=_R, a1=_Q, a2=_Q,
                                              dfa1="@dfa", p1="rat", dfa2="@dfa", p2="rat"),
                     2, True),
    "reward-sum": (apply_reward_sum, {**dict(m1=_M, m2=_M, r1=_R, r2=_R, a1=_Q, a2=_Q,
                                             rw1="rewards", thr1="rat", rw2="rewards",
                                             thr2="rat"),
                                      "?cmp": frozenset({"<", "<=", ">", ">="})}, 2, False),
    "monotonicity": (apply_monotonicity, dict(m1=_M, m2=_M, r1=_R, r2=_R, objective="objective",
                                              param="name", direction=frozenset({"up", "down"})),
                     2, False),
    "simulation": (apply_simulation_ag, {**dict(m1=_M, m2=_M, m_assume=_M, m_guarantee=_M,
                                                r1=_R, r2=_R), "?robust": "bool"}, None, False),
}
_RPA_KINDS = {"region-sat": "rpa-sat", "ag-triple": "rpa-triple"}


def apply_rpa_rules(rule, *args) -> RuleApplication:
    """A robust rule is the pPA rule applied to the PA-reductions of its components.

    `args` fill the rule's arguments other than its regions, in `RULES` order.
    Sound for convex (polytopic) rPAs: the reduction of a convex composition is
    the composition of the reductions, and reduction commutes with alphabet
    extension up to isomorphism.  Reductions have no parameters, so every
    region is the trivial one and the robust conclusion carries none.
    """
    fn, kinds, _, robust = RULES.get(rule, (None, {}, None, False))
    if not robust:
        raise ValueError(f"unknown robust rule {rule!r}")
    given = [name for name, kind in kinds.items() if kind not in (_R, [_R])]
    kwargs, trivial = dict(zip(given, args, strict=True)), FiniteRegion.of([{}])
    for name, kind in kinds.items():
        if kind == _M:
            kwargs[name] = pa_reduce(kwargs[name])
        elif kind == [_M]:
            kwargs[name] = components = [pa_reduce(u) for u in kwargs[name]]
        elif kind == _R:
            kwargs[name] = trivial
        elif kind == [_R]:  # one per component of the list before it
            kwargs[name] = [trivial] * len(components)
    app = fn(**kwargs)
    conclusion = None
    if app.conclusion is not None:
        conclusion = {k: v for k, v in app.conclusion.items() if k != "region"}
        conclusion["kind"] = _RPA_KINDS[conclusion["kind"]]
        model = re.sub(r"\bm(\d*)\b", r"u\1", conclusion["model"]).replace("||", "||conv")
        if conclusion["kind"] == "rpa-sat":
            model += " (over-approximates the standard composition)"
        conclusion["model"] = model
    premises = [replace(p, description=f"reduced {p.description}") for p in app.premises]
    return replace(app, rule=f"rpa-{app.rule}", premises=premises, conclusion=conclusion)
