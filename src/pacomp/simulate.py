"""Strong simulation between PAs and its region-quantified variants for pPAs.

The distribution lifting is decided exactly by a max-flow check on the
bipartite graph induced by the candidate relation, after a per-successor Hall
condition that rejects most non-liftings without a flow.  Each instance's
probabilities are the integer value vector of both models' distinct
polynomials (`PolyTable`) at its valuation, all over one denominator, so the
liftings simulation decides run on ints.
"""

from __future__ import annotations

from collections import deque

from .algebra import PolyTable, valuation_key
from .model import PPA, sort_key
from .verify import Verdict, _checked_samples


def _maxflow(source, sink, arcs):
    """Edmonds-Karp with exact capacities (ints or Fractions); returns the flow value.

    Integer capacities keep every residual capacity, and the value, an int.
    """
    capacity = {}
    adj = {}
    for u, v, cap in arcs:
        capacity[(u, v)] = capacity[(u, v)] + cap if (u, v) in capacity else cap
        capacity.setdefault((v, u), 0)
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)
    flow = 0
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

    The probabilities are exact (ints or Fractions) and are used as they are;
    a common positive factor on both sides leaves the answer unchanged, so
    integer-scaled distributions decide the same lifting.  Unequal total mass
    or a successor s of mu1 with mu1(s) > mu2(rel(s)) (the one-element Hall
    condition) refutes it without a flow; that decides a Dirac mu1.
    Otherwise it holds iff all of mu1's mass can be routed as flow to mu2's
    support along related pairs.
    """
    mu1 = {s: p for s, p in mu1.items() if p}
    mu2 = {s: p for s, p in mu2.items() if p}
    total1 = sum(mu1.values(), 0)
    if total1 > sum(mu2.values(), 0):
        return False
    pairs = rel if isinstance(rel, (set, frozenset)) else set(rel)
    image = {s: [t for t in mu2 if (s, t) in pairs] for s in mu1}
    if any(p > sum(mu2[t] for t in image[s]) for s, p in mu1.items()):
        return False
    if len(mu1) == 1:
        return True
    arcs = [("src", ("l", s), p) for s, p in mu1.items()]
    arcs += [(("r", t), "snk", p) for t, p in mu2.items()]
    arcs += [(("l", s), ("r", t), total1) for s in mu1 for t in image[s]]
    return _maxflow("src", "snk", arcs) == total1


def _slotted(table: PolyTable, *models):
    """Each model's transitions as {(state, action): ((successor, slot), ...)},
    with every entry registered in `table`."""
    return [
        {key: tuple((t, table.slot(p)) for t, p in dist.items()) for key, dist in m.trans.items()}
        for m in models
    ]


def _instance(slotted, nums):
    """The integer tables of one instance: each maps (state, action) to
    {successor: numerator} at one table vector, zero entries dropped.  All
    numerators share the vector's denominator D."""
    return tuple(
        {key: {t: nums[k] for t, k in row if nums[k]} for key, row in table.items()}
        for table in slotted
    )


def _scaled(n1: PPA, n2: PPA):
    """The integer tables of two PAs: the one vector of their entries' table,
    whose D is the lcm of every entry denominator."""
    table = PolyTable()
    slotted = _slotted(table, n1, n2)
    return _instance(slotted, table.at({})[1])


def _pair_ok(m1: PPA, m2: PPA, instance, s1, s2, rel) -> bool:
    """Matching clause of strong simulation for one pair at one scaled instance."""
    table1, table2 = instance
    for a1 in m1.enabled(s1):
        lab = m1.label[(s1, a1)]
        mu1 = table1[(s1, a1)]
        if not any(
            m2.label[(s2, a2)] == lab and dist_leq(mu1, table2[(s2, a2)], rel)
            for a2 in m2.enabled(s2)
        ):
            return False
    return True


def _greatest_sim(m1: PPA, m2: PPA, instances):
    """Greatest relation whose pairs pass the matching clause at every instance.

    `instances` holds the `_instance` tables of instances of `m1` and `m2`,
    which share their transitions and labels.  Greatest-fixpoint computation:
    start from all pairs of `m1` and `m2` states and sweep them in a
    deterministic order, removing a pair as soon as it fails at any instance,
    until a sweep removes nothing.  Returns the relation, or None when it
    misses the initial pair.
    """
    rel = {(s1, s2) for s1 in m1.states for s2 in m2.states}
    changed = True
    while changed:
        changed = False
        for pair in sorted(rel, key=sort_key):
            if not all(_pair_ok(m1, m2, inst, pair[0], pair[1], rel) for inst in instances):
                rel.discard(pair)
                changed = True
    if (m1.initial, m2.initial) not in rel:
        return None
    return frozenset(rel)


def strong_sim(n1: PPA, n2: PPA):
    """Greatest strong simulation containing the initial pair, or None."""
    if not (n1.is_pa and n2.is_pa):
        raise ValueError("strong simulation is checked on parameter-free models")
    return _greatest_sim(n1, n2, [_scaled(n1, n2)])


def is_strong_sim(n1: PPA, n2: PPA, rel) -> bool:
    """Check that a given relation is a strong simulation (with initial pair)."""
    rel = set(rel)
    if (n1.initial, n2.initial) not in rel:
        return False
    instance = _scaled(n1, n2)
    return all(_pair_ok(n1, n2, instance, s1, s2, rel) for (s1, s2) in rel)


def strong_sim_region(m1: PPA, m2: PPA, region, resolution=1) -> Verdict:
    """Per-valuation strong simulation; witnessing relations may differ."""
    table = PolyTable()
    slotted = _slotted(table, m1, m2)
    samples = _checked_samples(region, resolution, m1, m2, table=table)
    if samples is None:
        return Verdict("holds", caveat="region denotes no valuation; vacuously holds")
    details = []
    for v, (_, nums) in samples:
        rel = _greatest_sim(m1, m2, [_instance(slotted, nums)])
        if rel is None:
            return Verdict("fails", witness={"valuation": v}, details=details)
        details.append({"valuation": valuation_key(v), "relation": sorted(rel, key=sort_key)})
    return Verdict("holds", details=details)


def robust_strong_sim(m1: PPA, m2: PPA, region, resolution=1):
    """Greatest single relation that simulates at every sampled valuation.

    Joint greatest fixpoint: a pair is removed as soon as it fails the
    matching clause at any sampled valuation.  Returns the relation or None.
    """
    table = PolyTable()
    slotted = _slotted(table, m1, m2)
    samples = _checked_samples(region, resolution, m1, m2, table=table)
    if samples is None:
        return frozenset(
            (s1, s2) for s1 in m1.states for s2 in m2.states
        )
    return _greatest_sim(m1, m2, [_instance(slotted, nums) for _, (_, nums) in samples])
