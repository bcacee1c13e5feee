"""The assume-guarantee rule engine.

Each rule checks its alphabet side conditions, dispatches premise checks to
the verify/simulate modules, and assembles a conclusion with a confidence
label.  Fairness-quantified rule variants are constructible only with
externally attested premises and always carry the attested confidence.
The robust rules for convex rPAs are these rules applied to PA-reductions
(`apply_rpa_rules`).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, replace
from fractions import Fraction

from .algebra import FiniteRegion, Polynomial, region_intersect
from .errors import SideConditionError
from .model import alphabet_extend, compose
from .robust import pa_reduce
from .simulate import robust_strong_sim, strong_sim_region
from .verify import (
    ProbObjective,
    Verdict,
    ag_triple_check,
    is_safe_query,
    monotone_check,
    query_alphabet,
    region_sat,
    reward_objective,
    _checked_samples,
)

CHECKED = "checked-per-sample"
ATTESTED = "attested"


@dataclass
class Premise:
    kind: str  # region-sat | ag-triple | monotone | sim-leq | attested
    description: str
    verdict: Verdict | None = None
    attestation: str | None = None

    @property
    def ok(self) -> bool:
        if self.attestation is not None:
            return True
        return self.verdict is not None and self.verdict.holds


@dataclass
class RuleApplication:
    rule: str
    premises: list
    side_conditions: list
    conclusion: dict | None
    confidence: str = CHECKED
    status: str = "concluded"
    failure: object = None

    @property
    def concluded(self) -> bool:
        return self.status == "concluded"


def _finish(rule, premises, side_conditions, conclusion, confidence=CHECKED):
    for prem in premises:
        if not prem.ok:
            return RuleApplication(
                rule=rule,
                premises=premises,
                side_conditions=side_conditions,
                conclusion=None,
                confidence=confidence,
                status="premise-failed",
                failure=prem.verdict.witness if prem.verdict else None,
            )
    return RuleApplication(rule, premises, side_conditions, conclusion, confidence)


def _require(cond, message):
    if not cond:
        raise SideConditionError(message)


def _require_guarantees(*queries):
    """A guarantee without objectives would conclude nothing."""
    _require(all(queries), "a guarantee query must have at least one objective")


def _attested_premises(descriptions, notes):
    if notes is None or len(notes) != len(descriptions):
        raise ValueError("fairness variants need one attestation note per premise")
    return [
        Premise(kind="attested", description=d, attestation=n)
        for d, n in zip(descriptions, notes)
    ]


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


def _sat_premise(description, m, region, query, resolution):
    """The model satisfies the query on the region under complete strategies."""
    return Premise(
        "region-sat", description, region_sat(m, region, query, "cmp", resolution)
    )


def _triple_premise(description, m, region, assumption, guarantee, resolution):
    """The triple on `m` extended by the assumption's alphabet, partial strategies."""
    return Premise(
        "ag-triple", description,
        ag_triple_check(alphabet_extend(m, query_alphabet(assumption)), region,
                        assumption, guarantee, "prt", resolution),
    )


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
    if fairness is not None:
        premises = _attested_premises(
            ["triple on component 1 (fair)", "triple on component 2 (fair)",
             "component 2 satisfies assumption 1 (fair)"],
            fairness.notes,
        )
        return _finish("circular-fair", premises, side, conclusion, ATTESTED)
    _require(all(is_safe_query(q) for q in (a1, a2, guarantee)),
             "the complete-strategy circular rule needs safety mo-queries")
    premises = [
        _triple_premise("assumption-1 => assumption-2 on extended component 1",
                        m1, r1, a1, a2, resolution),
        _triple_premise("assumption-2 => guarantee on extended component 2",
                        m2, r2, a2, guarantee, resolution),
        _sat_premise("component 2 satisfies assumption 1", m2, r3, a1, resolution),
    ]
    return _finish("circular", premises, side, conclusion)


def apply_asym_n(models, regions, assumptions, guarantee,
                 resolution=1, fairness=None) -> RuleApplication:
    """ASYM-N: component 1 meets the first assumption, and each later component
    turns the previous query into the next; at n = 2 this is the asymmetric rule."""
    n = len(models)
    _require(n >= 2, "the chained rule needs at least two components")
    _require_guarantees(guarantee)
    if len(regions) != n or len(assumptions) != n - 1:
        raise ValueError("need one region per component and n-1 assumptions")
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
    rule = "asymmetric" if n == 2 else "asymmetric-n"
    if fairness is not None:
        premises = _attested_premises(
            ["component 1 satisfies the assumption (fair)"]
            + [f"component {i + 1} triple assumption => guarantee (fair)"
               for i in range(1, n)],
            fairness.notes,
        )
        return _finish(f"{rule}-fair", premises, side, conclusion, ATTESTED)
    _require(all(is_safe_query(q) for q in queries),
             "the complete-strategy asymmetric rule needs safety mo-queries")
    premises = [
        _sat_premise("component 1 satisfies the assumption on its region",
                     models[0], regions[0], queries[0], resolution)
    ] + [
        _triple_premise(f"extended component {i + 1} satisfies assumption => guarantee",
                        models[i], regions[i], queries[i - 1], queries[i], resolution)
        for i in range(1, n)
    ]
    return _finish(rule, premises, side, conclusion)


# ---------------------------------------------------------------------------
# Conjunction / interleaving / reward sum
# ---------------------------------------------------------------------------

def apply_conjunction(m, r1, r2, a1, g1, a2, g2,
                      resolution=1, fairness=None) -> RuleApplication:
    _require_guarantees(g1, g2)
    _require(all(is_safe_query(q) for q in (a1, g1, a2, g2)) or fairness is not None,
             "the partial-strategy conjunction rule needs safety mo-queries")
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
    if fairness is not None:
        premises = _attested_premises(
            ["first triple (fair)", "second triple (fair)"], fairness.notes
        )
        return _finish("conjunction-fair", premises, side, conclusion, ATTESTED)
    premises = [
        _triple_premise("first triple", m, r1, a1, g1, resolution),
        _triple_premise("second triple", m, r2, a2, g2, resolution),
    ]
    return _finish("conjunction", premises, side, conclusion)


def interleaving_threshold(p1, p2) -> Fraction:
    return Fraction(p1) + Fraction(p2) - Fraction(p1) * Fraction(p2)


def apply_interleaving(m1, m2, r1, r2, a1, a2, dfa1, p1, dfa2, p2,
                       resolution=1, fairness=None) -> RuleApplication:
    left = m1.alphabet | query_alphabet(a1)
    right = m2.alphabet | query_alphabet(a2)
    _require(not (left & right),
             "interleaving needs disjoint component-plus-assumption alphabets")
    side = ["component + assumption alphabets disjoint"]
    from .model import dfa_union_bad

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
    if fairness is not None:
        premises = _attested_premises(
            ["first triple (fair)", "second triple (fair)"], fairness.notes
        )
        return _finish("interleaving-fair", premises, side, conclusion, ATTESTED)
    _require(is_safe_query((g1, g2)) and all(is_safe_query(q) for q in (a1, a2)),
             "the partial-strategy interleaving rule needs safety queries")
    premises = [
        _triple_premise("component 1 bound", m1, r1, a1, (g1,), resolution),
        _triple_premise("component 2 bound", m2, r2, a2, (g2,), resolution),
    ]
    return _finish("interleaving", premises, side, conclusion)


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
    descriptions = ["component 1 reward triple", "component 2 reward triple"]
    if fairness is not None:
        premises = _attested_premises([d + " (fair)" for d in descriptions], fairness.notes)
        return _finish("reward-sum-fair", premises, side, conclusion, ATTESTED)
    premises = [
        _triple_premise(descriptions[0], m1, r1, a1,
                        (reward_objective(cmp, thr1, rw1),), resolution),
        _triple_premise(descriptions[1], m2, r2, a2,
                        (reward_objective(cmp, thr2, rw2),), resolution),
    ]
    return _finish("reward-sum", premises, side, conclusion)


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
    if fairness is not None:
        premises = _attested_premises(
            ["component 1 monotone (fair)", "component 2 monotone (fair)"],
            fairness.notes,
        )
        return _finish("monotonicity-fair", premises, side, conclusion, ATTESTED)
    premises = []
    for i, (m, r) in enumerate(((m1, r1), (m2, r2)), start=1):
        ext = alphabet_extend(m, sigma)
        samples = _checked_samples(r, resolution, ext, filter_gp=True)
        region = r if samples is None else FiniteRegion.of(v for v, _ in samples)
        premises.append(
            Premise(
                "monotone", f"component {i} monotone in {param!r}",
                monotone_check(
                    ext, region, objective, param, direction, "prt",
                    resolution, grid_denominator,
                ),
            )
        )
    return _finish("monotonicity", premises, side, conclusion)


# ---------------------------------------------------------------------------
# Simulation-based rule
# ---------------------------------------------------------------------------

def apply_simulation_ag(m1, m2, m_assume, m_guarantee, r1, r2,
                        robust=False, resolution=1) -> RuleApplication:
    _require(m_assume.alphabet <= m1.alphabet,
             "assumption alphabet must lie inside component 1's")
    side = ["assumption alphabet within component 1's"]
    flavor = "robust-strong" if robust else "strong"

    def sim_premise(left, right, region, description):
        if robust:
            rel = robust_strong_sim(left, right, region, resolution)
            verdict = (
                Verdict("holds", witness={"relation": sorted(rel, key=repr)})
                if rel is not None
                else Verdict("fails", witness={"reason": "no uniform relation"})
            )
        else:
            verdict = strong_sim_region(left, right, region, resolution)
        return Premise("sim-leq", description, verdict)

    p1 = sim_premise(m1, m_assume, r1, f"component 1 {flavor}-simulated by the assumption")
    p2 = sim_premise(
        compose(m2, m_assume), m_guarantee, r2,
        f"component 2 composed with the assumption {flavor}-simulated by the guarantee",
    )
    conclusion = {
        "kind": "sim-leq",
        "left": "m1 || m2",
        "right": "m_guarantee",
        "region": region_intersect(r1, r2),
        "flavor": flavor,
    }
    return _finish(f"simulation-ag-{flavor}", [p1, p2], side, conclusion)


# ---------------------------------------------------------------------------
# Rules for polytopic robust automata (premises on PA-reductions)
# ---------------------------------------------------------------------------

# robust rule -> (pPA rule, component arguments, region arguments); asym-n
# takes one list of components and one list of regions
_RPA_RULES = {
    "asymmetric": (apply_asymmetric, 2, 2),
    "circular": (apply_circular, 2, 3),
    "conjunction": (apply_conjunction, 1, 2),
    "asym-n": (apply_asym_n, 1, 1),
    "interleaving": (apply_interleaving, 2, 2),
}
_RPA_KINDS = {"region-sat": "rpa-sat", "ag-triple": "rpa-triple"}


def _reduced(component):
    if isinstance(component, (list, tuple)):
        return [pa_reduce(u) for u in component]
    return pa_reduce(component)


def apply_rpa_rules(rule, *args, resolution=1) -> RuleApplication:
    """A robust rule is the pPA rule applied to the PA-reductions of its components.

    Sound for convex (polytopic) rPAs: the reduction of a convex composition is
    the composition of the reductions, and reduction commutes with alphabet
    extension up to isomorphism.  Reductions have no parameters, so every
    region is the trivial one and the robust conclusion carries none.
    """
    if rule not in _RPA_RULES:
        raise ValueError(f"unknown robust rule {rule!r}")
    fn, n_components, n_regions = _RPA_RULES[rule]
    components = [_reduced(u) for u in args[:n_components]]
    trivial = FiniteRegion.of([{}])
    region = [trivial] * len(components[0]) if isinstance(components[0], list) else trivial
    app = fn(*components, *[region] * n_regions, *args[n_components:], resolution=resolution)
    conclusion = None
    if app.conclusion is not None:
        conclusion = {k: v for k, v in app.conclusion.items() if k != "region"}
        conclusion["kind"] = _RPA_KINDS[conclusion["kind"]]
        model = re.sub(r"\bm(\d*)\b", r"u\1", conclusion["model"]).replace("||", "||conv")
        if conclusion["kind"] == "rpa-sat":
            model += " (over-approximates the standard composition)"
        conclusion["model"] = model
    premises = [replace(p, description=f"reduced {p.description}") for p in app.premises]
    return RuleApplication(f"rpa-{app.rule}", premises, app.side_conditions, conclusion,
                           app.confidence, app.status, app.failure)
