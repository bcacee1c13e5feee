"""Strong simulation between PAs and its region-quantified variants for pPAs.

The distribution lifting is decided exactly by a rational max-flow check on
the bipartite graph induced by the candidate relation.
"""

from __future__ import annotations

from collections import deque
from fractions import Fraction

from .algebra import region_samples, valuation_key
from .errors import EmptyRegion, IllDefinedValuationInRegion
from .model import PPA, WellDefinedness, instantiate, sort_key, well_defined
from .verify import Verdict


def _maxflow(source, sink, arcs):
    """Edmonds-Karp with exact rational capacities; returns the flow value."""
    capacity = {}
    adj = {}
    for u, v, cap in arcs:
        capacity[(u, v)] = capacity[(u, v)] + cap if (u, v) in capacity else cap
        capacity.setdefault((v, u), 0)
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)
    flow = Fraction(0)
    while True:
        parent = {source: None}
        queue = deque([source])
        while queue and sink not in parent:
            u = queue.popleft()
            for v in adj.get(u, []):
                if v not in parent and capacity.get((u, v), 0) > 0:
                    parent[v] = u
                    queue.append(v)
        if sink not in parent:
            return flow
        bottleneck = None
        v = sink
        while parent[v] is not None:
            u = parent[v]
            c = capacity[(u, v)]
            bottleneck = c if bottleneck is None else min(bottleneck, c)
            v = u
        v = sink
        while parent[v] is not None:
            u = parent[v]
            capacity[(u, v)] -= bottleneck
            capacity[(v, u)] += bottleneck
            v = u
        flow += bottleneck


def dist_leq(mu1, mu2, rel) -> bool:
    """Distribution lifting of a relation: mu1(A) <= mu2(rel(A)) for all A.

    For a Dirac mu1 on s this is the single Hall condition mu1(s) <=
    mu2(rel(s)); otherwise it is decided by checking that all of mu1's mass
    can be routed as flow to mu2's support along related pairs.  The
    probabilities are exact rationals (ints or Fractions) and are used as
    they are.
    """
    mu1 = {s: p for s, p in mu1.items() if p}
    mu2 = {s: p for s, p in mu2.items() if p}
    total1 = sum(mu1.values(), Fraction(0))
    total2 = sum(mu2.values(), Fraction(0))
    if total1 > total2:
        return False
    pairs = rel if isinstance(rel, (set, frozenset)) else set(rel)
    if len(mu1) == 1:
        (s, p), = mu1.items()
        return sum((q for t, q in mu2.items() if (s, t) in pairs), Fraction(0)) >= p
    arcs = [("src", ("l", s), p) for s, p in mu1.items()]
    arcs += [(("r", t), "snk", p) for t, p in mu2.items()]
    for s in mu1:
        for t in mu2:
            if (s, t) in pairs:
                arcs.append((("l", s), ("r", t), total1))
    return _maxflow("src", "snk", arcs) == total1


def _pair_ok(n1: PPA, n2: PPA, s1, s2, rel) -> bool:
    """Matching clause of strong simulation for one pair."""
    for a1 in n1.enabled(s1):
        lab = n1.label[(s1, a1)]
        mu1 = n1.const_dist(s1, a1)
        matched = False
        for a2 in n2.enabled(s2):
            if n2.label[(s2, a2)] != lab:
                continue
            if dist_leq(mu1, n2.const_dist(s2, a2), rel):
                matched = True
                break
        if not matched:
            return False
    return True


def _greatest_sim(m1: PPA, m2: PPA, instances):
    """Greatest relation whose pairs pass the matching clause at every instance.

    Greatest-fixpoint computation: start from all pairs of `m1` and `m2`
    states and sweep them in a deterministic order, removing a pair as soon as
    it fails at any instance, until a sweep removes nothing.  Returns the
    relation, or None when it misses the initial pair.
    """
    rel = {(s1, s2) for s1 in m1.states for s2 in m2.states}
    changed = True
    while changed:
        changed = False
        for pair in sorted(rel, key=sort_key):
            if not all(_pair_ok(i1, i2, pair[0], pair[1], rel) for i1, i2 in instances):
                rel.discard(pair)
                changed = True
    if (m1.initial, m2.initial) not in rel:
        return None
    return frozenset(rel)


def strong_sim(n1: PPA, n2: PPA):
    """Greatest strong simulation containing the initial pair, or None."""
    if not (n1.is_pa and n2.is_pa):
        raise ValueError("strong simulation is checked on parameter-free models")
    return _greatest_sim(n1, n2, [(n1, n2)])


def is_strong_sim(n1: PPA, n2: PPA, rel) -> bool:
    """Check that a given relation is a strong simulation (with initial pair)."""
    rel = set(rel)
    if (n1.initial, n2.initial) not in rel:
        return False
    return all(_pair_ok(n1, n2, s1, s2, rel) for (s1, s2) in rel)


def _sim_samples(m1: PPA, m2: PPA, region, resolution):
    try:
        samples = region_samples(region, resolution)
    except EmptyRegion:
        return None
    for v in samples:
        for m in (m1, m2):
            if well_defined(m, v) is WellDefinedness.NEITHER:
                raise IllDefinedValuationInRegion(
                    f"sample {dict(sorted(v.items()))} ill-defined for a model"
                )
    return samples


def strong_sim_region(m1: PPA, m2: PPA, region, resolution=1) -> Verdict:
    """Per-valuation strong simulation; witnessing relations may differ."""
    samples = _sim_samples(m1, m2, region, resolution)
    if samples is None:
        return Verdict("holds", caveat="region denotes no valuation; vacuously holds")
    details = []
    for v in samples:
        rel = strong_sim(instantiate(m1, v), instantiate(m2, v))
        if rel is None:
            return Verdict("fails", witness={"valuation": v}, details=details)
        details.append({"valuation": valuation_key(v), "relation": sorted(rel, key=sort_key)})
    return Verdict("holds", details=details)


def robust_strong_sim(m1: PPA, m2: PPA, region, resolution=1):
    """Greatest single relation that simulates at every sampled valuation.

    Joint greatest fixpoint: a pair is removed as soon as it fails the
    matching clause at any sampled valuation.  Returns the relation or None.
    """
    samples = _sim_samples(m1, m2, region, resolution)
    if samples is None:
        return frozenset(
            (s1, s2) for s1 in m1.states for s2 in m2.states
        )
    instances = [(instantiate(m1, v), instantiate(m2, v)) for v in samples]
    return _greatest_sim(m1, m2, instances)
