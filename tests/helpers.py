"""Random generators and small oracles shared by the test modules."""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

from pacomp.algebra import Polynomial, region_samples, require_total, valuation_key
from pacomp.errors import (
    ActionAlphabetClash,
    EmptyRegion,
    GeneratorBudgetExceeded,
    IllDefinedValuationInRegion,
    InfeasibleIntervalSet,
)
from pacomp.model import DFA, WellDefinedness, instantiate, make_ppa, sort_key, tau_extend
from pacomp.robust import RPA, IntervalSet, VertexSet, freeze_dist, generators, make_rpa
from pacomp.semantics import TabularStrategy, path_last
from pacomp.verify import (
    Verdict,
    enumerate_memoryless,
    instantiate_objective,
    mo_achievable,
    solution_value,
)


def random_dist(rng: random.Random, states, max_support=3):
    support = rng.sample(states, k=min(len(states), rng.randint(1, max_support)))
    weights = [rng.randint(1, 4) for _ in support]
    total = sum(weights)
    return {s: Fraction(w, total) for s, w in zip(support, weights)}


def random_pa(rng: random.Random, prefix, n_states, labels, max_actions=2):
    states = [f"{prefix}{i}" for i in range(n_states)]
    trans = {}
    for s in states:
        for k in range(rng.randint(1, max_actions)):
            lab = rng.choice(labels)
            act = f"{s}_{lab}_{k}"
            trans[(s, act)] = (lab, random_dist(rng, states))
    return make_ppa(states, states[0], set(), trans, set(labels))


def random_parametric_pair(rng: random.Random, params=("p",)):
    """Two composable pPAs, well-defined on the unit box over `params`."""
    p = Polynomial.var(params[0])
    one = Polynomial.const(1)

    def build(prefix, labels, n_states):
        states = [f"{prefix}{i}" for i in range(n_states)]
        trans = {}
        for s in states:
            for k in range(rng.randint(1, 2)):
                lab = rng.choice(labels)
                act = f"{s}_{lab}_{k}"
                succ = rng.sample(states, k=min(len(states), 2))
                if len(succ) == 1 or rng.random() < 0.4:
                    trans[(s, act)] = (lab, {succ[0]: one})
                else:
                    trans[(s, act)] = (lab, {succ[0]: p, succ[1]: one - p})
        return make_ppa(states, states[0], set(params), trans, set(labels))

    m1 = build("l", ["a", "b"], rng.randint(2, 3))
    m2 = build("r", ["a", "c"], rng.randint(2, 3))
    return m1, m2


def random_safety_dfa(rng: random.Random, alphabet, n_states=2, allow_empty=True):
    states = [f"q{i}" for i in range(n_states)]
    trans = {
        (q, sym): rng.choice(states) for q in states for sym in sorted(alphabet)
    }
    k = rng.randint(0 if allow_empty else 1, n_states - 1)
    accepting = frozenset(rng.sample(states[1:], k=k)) if k else frozenset()
    return DFA(tuple(states), states[0], frozenset(alphabet), trans, accepting)


def random_tabular_strategy(rng: random.Random, pa, horizon, complete=False):
    """Tabulate random subdistributions over the positive-measure histories."""
    table = {}
    frontier = {(pa.initial,)}
    for _ in range(horizon):
        nxt = set()
        for path in sorted(frontier, key=sort_key):
            acts = pa.enabled(path_last(path))
            if not acts:
                continue
            chosen = rng.sample(acts, k=rng.randint(1, len(acts)))
            weights = [rng.randint(1, 3) for _ in chosen]
            total = sum(weights)
            if not complete and rng.random() < 0.4:
                total += rng.randint(1, 3)  # leave stopping mass
            dist = {a: Fraction(w, total) for a, w in zip(chosen, weights)}
            table[path] = dist
            for a in chosen:
                for t, prob in pa.dist(path_last(path), a).items():
                    if prob:
                        nxt.add(path + (a, t))
        frontier = nxt
    return TabularStrategy(table, horizon, complete=complete)


def random_interval_set(rng: random.Random, states):
    center = random_dist(rng, states, max_support=min(3, len(states)))
    bounds = {}
    for s, p in center.items():
        lo = max(Fraction(0), p - Fraction(rng.randint(0, 2), 10))
        hi = min(Fraction(1), p + Fraction(rng.randint(0, 2), 10))
        bounds[s] = (lo, hi)
    return IntervalSet.of(bounds)


def random_vertex_set(rng: random.Random, states, max_dists=3):
    return VertexSet.of(
        [random_dist(rng, states) for _ in range(rng.randint(1, max_dists))]
    )


def random_polytopic_rpa(rng: random.Random, prefix, labels, n_states=3):
    states = [f"{prefix}{i}" for i in range(n_states)]
    utrans = {}
    for s in states:
        for k in range(rng.randint(1, 2)):
            lab = rng.choice(labels)
            act = f"{s}_{lab}_{k}"
            if rng.random() < 0.5:
                uset = random_interval_set(rng, states)
            else:
                uset = random_vertex_set(rng, states)
            utrans[(s, act)] = (lab, uset)
    return make_rpa(states, states[0], utrans, set(labels))


def enumerate_paths(pa, horizon):
    """All initial paths up to the horizon along declared transitions."""
    out = [(pa.initial,)]
    frontier = [(pa.initial,)]
    for _ in range(horizon):
        nxt = []
        for path in frontier:
            s = path_last(path)
            for a in pa.enabled(s):
                for t in pa.trans[(s, a)]:
                    nxt.append(path + (a, t))
        out.extend(nxt)
        frontier = nxt
    return out


def dist_leq_bruteforce(mu1, mu2, rel) -> bool:
    """Direct subset-quantified definition; exponential, for cross-checking."""
    mu1 = {s: Fraction(p) for s, p in mu1.items() if Fraction(p) != 0}
    mu2 = {s: Fraction(p) for s, p in mu2.items()}
    support = sorted(mu1, key=sort_key)
    pairs = set(rel)
    for mask in range(1 << len(support)):
        subset = [s for i, s in enumerate(support) if mask >> i & 1]
        lhs = sum((mu1[s] for s in subset), Fraction(0))
        image = {t for t in mu2 if any((s, t) in pairs for s in subset)}
        rhs = sum((mu2[t] for t in image), Fraction(0))
        if lhs > rhs:
            return False
    return True


def interval_extreme_points_by_orders(uset: IntervalSet, cap=10_000):
    """Extreme points of the interval polytope, by order-based saturation.

    For every priority order over successors, start all entries at their lower
    bounds and greedily raise them to the upper bounds until the mass reaches
    one; deduplicate.  This enumerates exactly the vertices of the polytope
    (box intersected with the probability simplex), in n! orders.
    """
    support = list(uset.support)
    bounds = dict(uset.bounds)
    total_lo = sum((lo for lo, _ in bounds.values()), Fraction(0))
    seen = {}
    count_guard = 0
    for order in itertools.permutations(support):
        count_guard += 1
        if count_guard > cap:
            raise GeneratorBudgetExceeded(
                f"extreme-point enumeration exceeds the cap of {cap}"
            )
        dist = {s: bounds[s][0] for s in support}
        slack = 1 - total_lo
        for s in order:
            if slack == 0:
                break
            room = bounds[s][1] - bounds[s][0]
            take = min(room, slack)
            dist[s] += take
            slack -= take
        if slack != 0:
            raise InfeasibleIntervalSet("interval bounds admit no distribution")
        seen[freeze_dist(dist)] = dict(dist)
    return [dict(d) for d in sorted(seen, key=sort_key)]


def pa_reduce_reference(u: RPA):
    """`robust.pa_reduce` as first written: every generator dict of every
    uncertainty set is frozen anew, and `make_ppa` sorts and coerces."""
    trans = {}
    for (s, a), uset in u.utrans.items():
        for gen in generators(uset):
            frozen = freeze_dist(gen)
            trans[(s, (a, frozen))] = (u.label[(s, a)], dict(frozen))
    return make_ppa(u.states, u.initial, frozenset(), trans, u.alphabet)


def alphabet_extend_rpa(u: RPA, sigma) -> RPA:
    """Add singleton-Dirac self-loops for the fresh symbols."""
    fresh = frozenset(sigma) - u.alphabet
    if set(u.actions) & fresh:
        raise ActionAlphabetClash("new symbols collide with existing actions")
    utrans = {key: (u.label[key], uset) for key, uset in u.utrans.items()}
    for s in u.states:
        for sym in fresh:
            utrans[(s, ("loop", sym))] = (sym, VertexSet.dirac(s))
    return make_rpa(
        states=u.states,
        initial=u.initial,
        utrans=utrans,
        alphabet=u.alphabet | fresh,
        composed_of=u.composed_of,
    )


# ---------------------------------------------------------------------------
# Per-sample references for the region checks: every sample is checked entry
# by entry in Fractions, instantiated and solved anew, with no structure
# shared between samples.
# ---------------------------------------------------------------------------

def well_defined_reference(m, v):
    """`model.well_defined` by evaluating every transition entry in Fractions."""
    require_total(v, m.params)
    graph_preserving = True
    for dist in m.trans.values():
        total = Fraction(0)
        for p in dist.values():
            value = Polynomial.coerce(p).evaluate(v)
            if not 0 <= value <= 1:
                return WellDefinedness.NEITHER
            if (value == 0) != (p == 0):
                graph_preserving = False
            total += value
        if total != 1:
            return WellDefinedness.NEITHER
    return WellDefinedness.GRAPH_PRESERVING if graph_preserving else WellDefinedness.WELL_DEFINED


def checked_samples_reference(region, resolution, m):
    """The region's samples, each checked by `well_defined_reference`; None
    for an empty region."""
    try:
        samples = region_samples(region, resolution)
    except EmptyRegion:
        return None
    for v in samples:
        if well_defined_reference(m, v) is WellDefinedness.NEITHER:
            raise IllDefinedValuationInRegion(
                f"sample {dict(sorted(v.items()))} does not instantiate to a PA"
            )
    return samples


def region_sat_per_sample(m, region, query, strategy_class="cmp", resolution=1):
    samples = checked_samples_reference(region, resolution, m)
    if samples is None:
        return Verdict("holds", caveat="region denotes no valuation; vacuously holds")
    details = []
    for v in samples:
        pa = instantiate(m, v)
        for obj in query:
            status, wit = mo_achievable(
                pa, (instantiate_objective(obj, v).negate(),), strategy_class
            )
            if status == "achievable":
                return Verdict(
                    "fails",
                    witness={"valuation": v, "objective": obj, "strategy": wit},
                    details=details,
                )
        details.append({"valuation": valuation_key(v), "ok": True})
    return Verdict("holds", details=details)


def ag_triple_check_per_sample(m, region, assumption, guarantee, strategy_class="prt",
                               resolution=1):
    samples = checked_samples_reference(region, resolution, m)
    if samples is None:
        return Verdict("holds", caveat="region denotes no valuation; vacuously holds")
    details = []
    for v in samples:
        pa = instantiate(m, v)
        inst_a = tuple(instantiate_objective(o, v) for o in assumption)
        for g in guarantee:
            bad = inst_a + (instantiate_objective(g, v).negate(),)
            status, wit = mo_achievable(pa, bad, strategy_class)
            if status == "achievable":
                return Verdict(
                    "fails",
                    witness={"valuation": v, "violated": g, "strategy": wit},
                    details=details,
                )
        details.append({"valuation": valuation_key(v), "ok": True})
    return Verdict("holds", details=details)


def monotone_check_per_sample(m, region, objective, param, direction, strategy_class="cmp",
                              resolution=1):
    """Every (strategy, valuation) pair instantiates and builds its DFA product anew."""
    samples = checked_samples_reference(region, resolution, m)
    caveat = "per enumerated strategy class; sound per sampled valuation"
    if samples is None:
        return Verdict("holds", caveat="region denotes no valuation; vacuously holds")
    work = tau_extend(m) if strategy_class == "prt" else m
    groups = {}
    for v in samples:
        rest = tuple(sorted((k, val) for k, val in v.items() if k != param))
        groups.setdefault(rest, []).append(v)
    pairs = []
    for _, vs in sorted(groups.items()):
        vs.sort(key=lambda v: v[param])
        pairs.extend(zip(vs, vs[1:]))
    for sigma in enumerate_memoryless(work):
        for lo, hi in pairs:
            f_lo, f_hi = (
                solution_value(instantiate(work, v), sigma, instantiate_objective(objective, v))
                for v in (lo, hi)
            )
            if not (f_lo <= f_hi if direction == "up" else f_lo >= f_hi):
                return Verdict(
                    "fails",
                    witness={"strategy": sigma.choice, "low": lo, "high": hi,
                             "value_low": f_lo, "value_high": f_hi},
                    caveat=caveat,
                )
    return Verdict("holds", caveat=caveat)
