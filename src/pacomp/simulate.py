"""Strong simulation between PAs and its region-quantified variants for pPAs.

One integer kernel decides liftings and greatest simulations.  States are
indexed once per call, a relation is one `int` bitmask of right states per
left state, and an instance is the integer value vector of both models'
polynomials (`PolyTable`) at one valuation, over one denominator.  A lifting
is accepted outright when every successor of the left distribution is
related to every successor of the right one and the left mass is at most the
right mass (support masks); otherwise it is a one-element Hall check, then a
greedy transport fill augmented along residual paths.  The greatest fixpoint
is a worklist refinement (Baier, Engelen and Majster-Cederbaum, JCSS 2000;
Zhang, Hermanns, Eisenbrand and Jansen, LMCS 2008).  It starts from the
label-compatible pairs: a left state is related to the right states that
have every label it has, and a dead end to all of them.  No pair of the
greatest fixpoint is lost, since all instances share their moves and labels,
so a left label the right state lacks fails the matching clause at every
instance, whatever the relation.  A failing pair re-queues only the
surviving pairs of its predecessors, and the refinement stops as soon as
the initial pair leaves, since the relation only shrinks.  The
parameter-free checks refuse a row that is no sub-probability distribution.
"""

from __future__ import annotations

import math
from collections import deque

from .algebra import PolyTable, valuation_key
from .model import PPA, require_sub_stochastic, slotted, sort_key
from .verify import VACUOUS, Verdict, _checked_samples


def _transport(mu1, mu2, rel) -> bool:
    """Lifting on indices: mu1 and mu2 are ((index, positive int), ...) and
    rel[s] is the bitmask of the right indices related to left index s.

    A successor s with mu1(s) > mu2(rel(s)) (the one-element Hall condition)
    refutes it first; that decides a Dirac mu1.  Then a greedy fill routes
    each successor's mass to its related targets in order, and a
    breadth-first search of the residual network augments from each
    successor the fill left short.  It holds iff all of mu1's mass is routed:
    a successor with no augmenting path reaches a set of left states whose
    mass exceeds that of their related targets.
    """
    targets = []
    for s, p in mu1:
        row = rel[s]
        ks = [k for k, (t, _) in enumerate(mu2) if row >> t & 1]
        if p > sum(mu2[k][1] for k in ks):
            return False
        targets.append(ks)
    if len(mu1) == 1:
        return True
    room = [q for _, q in mu2]
    flow = [[0] * len(mu2) for _ in mu1]
    short = []
    for i, (_, p) in enumerate(mu1):
        for k in targets[i]:
            x = min(p, room[k])
            flow[i][k], room[k], p = x, room[k] - x, p - x
        if p:
            short.append((i, p))
    for i, p in short:
        while p:
            via, back, queue, end = {}, {i: None}, [i], None
            for u in queue:  # left u -> related right k -> left v that sends to k
                for k in targets[u]:
                    if k not in via:
                        via[k] = u
                        if room[k]:
                            end = k
                            break
                        for v, row in enumerate(flow):
                            if row[k] and v not in back:
                                back[v] = k
                                queue.append(v)
                if end is not None:
                    break
            if end is None:
                return False
            x, u = min(p, room[end]), via[end]
            while back[u] is not None:
                x = min(x, flow[u][back[u]])
                u = via[back[u]]
            room[end], p = room[end] - x, p - x
            k = end
            while k is not None:
                u = via[k]
                flow[u][k] += x
                k = back[u]
                if k is not None:
                    flow[u][k] -= x
    return True


def dist_leq(mu1, mu2, rel) -> bool:
    """Distribution lifting of a relation: mu1(A) <= mu2(rel(A)) for all A.

    The probabilities are exact (ints or Fractions).  A common positive factor
    on both sides leaves the answer unchanged, so both are scaled once to
    integers over the lcm of their denominators and decided by `_transport`.
    """
    mu1 = [(s, p) for s, p in mu1.items() if p]
    mu2 = [(t, q) for t, q in mu2.items() if q]
    scale = math.lcm(1, *(p.denominator for _, p in mu1 + mu2))
    pairs = rel if isinstance(rel, (set, frozenset)) else set(rel)
    rows = [sum(1 << k for k, (t, _) in enumerate(mu2) if (s, t) in pairs) for s, _ in mu1]
    ints1, ints2 = ([(i, p.numerator * (scale // p.denominator)) for i, (_, p) in enumerate(mu)]
                    for mu in (mu1, mu2))
    return _transport(ints1, ints2, rows)


def _indexed(m: PPA, entries):
    """One model indexed once per call: {state: index}; per state index its
    moves {label: [((successor index, slot), ...), ...]} in `enabled` order,
    read from the model's `slotted` `entries`; and per state index the
    bitmask of its predecessors."""
    index = {s: i for i, s in enumerate(m.states)}
    moves, preds = [], [0] * len(m.states)
    for u, s in enumerate(m.states):
        by_label = {}
        for a in m.enabled(s):
            row = tuple((index[t], k) for t, k in entries[(s, a)])
            by_label.setdefault(m.label[(s, a)], []).append(row)
            for t, _ in row:
                preds[t] |= 1 << u
        moves.append(by_label)
    return index, moves, preds


def _instance(ix1, ix2, nums):
    """One instance at one table vector: per model and state {label: [(mu,
    mask, mass), ...]}, each mu ((successor index, numerator), ...) with zero
    entries dropped, mask the bitmask of its successors and mass the sum of
    its numerators.  All numerators share the vector's denominator D."""
    def dist(row):
        mu = tuple((t, nums[k]) for t, k in row if nums[k])
        return mu, sum(1 << t for t, _ in mu), sum(p for _, p in mu)

    return tuple([{lab: [dist(row) for row in rows] for lab, rows in moves.items()}
                  for moves in ix[1]] for ix in (ix1, ix2))


def _matches(instance, i, j, rel) -> bool:
    """Matching clause of strong simulation for the pair (i, j) at one instance.

    Per mu1, `cover` is the AND of the relation rows of its successors.  A mu2
    whose successors all lie in it, with mass(mu1) <= mass(mu2), lifts
    without `_transport`: every nonempty A within mu1's support relates to
    all of mu2's, so mu1(A) <= mass(mu1) <= mass(mu2) = mu2(rel(A)).  The
    mass test matters because rows may be sub-stochastic.
    """
    left, right = instance[0][i], instance[1][j]
    for lab, dists in left.items():
        targets = right.get(lab, ())
        for mu1, _, mass1 in dists:
            cover = -1
            for s, _ in mu1:
                cover &= rel[s]
            for mu2, mask2, mass2 in targets:
                if mask2 & ~cover == 0 and mass1 <= mass2 or _transport(mu1, mu2, rel):
                    break
            else:
                return False
    return True


def _bits(mask):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _greatest_sim(m1: PPA, m2: PPA, ix1, ix2, instances):
    """Greatest relation whose pairs pass the matching clause at every instance.

    `instances` holds `_instance` tables of `m1` and `m2` (indexed as `ix1`
    and `ix2`), which share their transitions and labels.  The refinement
    starts from the label-compatible pairs: left state i is related to the
    right states that have every label i has (all of them for a dead end).
    That loses no pair of the greatest fixpoint: every instance has the
    moves of `ix1` and `ix2`, so a pair whose left state has a label the
    right one lacks fails the matching clause at every instance, whatever
    the relation.  Worklist refinement: when a pair (s1, s2) fails, the
    surviving pairs (u1, u2) with s1 a successor of u1 and s2 one of u2 are
    re-queued, the only pairs whose clause it can change.  Returns the
    relation, or None as soon as it loses the initial pair.
    """
    (index1, moves1, pred1), (index2, moves2, pred2) = ix1, ix2
    n1, n2 = len(pred1), len(pred2)
    has = {}  # label -> bitmask of the right states that have it
    for j, by_label in enumerate(moves2):
        for lab in by_label:
            has[lab] = has.get(lab, 0) | 1 << j
    rel = []
    for by_label in moves1:
        row = (1 << n2) - 1
        for lab in by_label:
            row &= has.get(lab, 0)
        rel.append(row)
    initial = (index1[m1.initial], index2[m2.initial])
    if not rel[initial[0]] >> initial[1] & 1:
        return None
    queued = rel.copy()
    queue = deque((i, j) for i in range(n1) for j in _bits(rel[i]))
    while queue:
        i, j = queue.popleft()
        queued[i] ^= 1 << j
        if all(_matches(inst, i, j, rel) for inst in instances):
            continue
        if (i, j) == initial:
            return None
        rel[i] ^= 1 << j
        for u in _bits(pred1[i]):
            fresh = rel[u] & pred2[j] & ~queued[u]
            if fresh:
                queued[u] |= fresh
                queue.extend((u, k) for k in _bits(fresh))
    return frozenset((m1.states[i], m2.states[j]) for i in range(n1) for j in _bits(rel[i]))


def _indexed_pair(m1: PPA, m2: PPA):
    table = PolyTable()
    entries = slotted(m1, table), slotted(m2, table)
    return table, entries, _indexed(m1, entries[0]), _indexed(m2, entries[1])


def _constant_instance(n1: PPA, n2: PPA):
    """Both parameter-free models indexed, and their one `_instance`, after
    refusing a row that is no sub-probability distribution."""
    table, entries, ix1, ix2 = _indexed_pair(n1, n2)
    point = table.at({})
    for e in entries:
        require_sub_stochastic(point, e)
    return ix1, ix2, _instance(ix1, ix2, point[1])


def _sampled_pair(m1: PPA, m2: PPA, region, resolution):
    """Both models' `slotted` entries in one table, each model indexed on
    its own, and `_checked_samples` of the region on their rows."""
    table, entries, ix1, ix2 = _indexed_pair(m1, m2)
    rows = (row for e in entries for row in e.values())
    return ix1, ix2, _checked_samples(region, resolution, [m1, m2], table, rows)


def strong_sim(n1: PPA, n2: PPA):
    """Greatest strong simulation containing the initial pair, or None.

    Raises IllDefinedValuationInRegion for a row that is no sub-probability
    distribution, as `is_strong_sim` does.
    """
    if not (n1.is_pa and n2.is_pa):
        raise ValueError("strong simulation is checked on parameter-free models")
    ix1, ix2, instance = _constant_instance(n1, n2)
    return _greatest_sim(n1, n2, ix1, ix2, [instance])


def is_strong_sim(n1: PPA, n2: PPA, rel) -> bool:
    """Check that a given relation is a strong simulation (with initial pair).

    Raises ValueError when a pair names a state its model does not declare.
    """
    ix1, ix2, instance = _constant_instance(n1, n2)
    index1, index2 = ix1[0], ix2[0]
    rows = [0] * len(n1.states)
    for pair in rel:
        s1, s2 = pair
        if s1 not in index1 or s2 not in index2:
            raise ValueError(f"relation pair {pair!r} names an undeclared state")
        rows[index1[s1]] |= 1 << index2[s2]
    if not rows[index1[n1.initial]] >> index2[n2.initial] & 1:
        return False
    return all(_matches(instance, i, j, rows) for i, row in enumerate(rows) for j in _bits(row))


def strong_sim_region(m1: PPA, m2: PPA, region, resolution=1) -> Verdict:
    """Per-valuation strong simulation; witnessing relations may differ."""
    ix1, ix2, samples = _sampled_pair(m1, m2, region, resolution)
    if samples is None:
        return Verdict("holds", caveat=VACUOUS)
    details = []
    for v, (_, nums) in samples:
        rel = _greatest_sim(m1, m2, ix1, ix2, [_instance(ix1, ix2, nums)])
        if rel is None:
            return Verdict("fails", witness={"valuation": v}, details=details)
        details.append({"valuation": valuation_key(v), "relation": sorted(rel, key=sort_key)})
    return Verdict("holds", details=details)


def _uniform_sim(m1: PPA, m2: PPA, region, resolution):
    """`robust_strong_sim`'s relation, and whether the region is empty."""
    ix1, ix2, samples = _sampled_pair(m1, m2, region, resolution)
    if samples is None:
        return frozenset((s1, s2) for s1 in m1.states for s2 in m2.states), True
    return _greatest_sim(m1, m2, ix1, ix2,
                         [_instance(ix1, ix2, nums) for _, (_, nums) in samples]), False


def robust_strong_sim(m1: PPA, m2: PPA, region, resolution=1):
    """Greatest single relation that simulates at every sampled valuation.

    Joint greatest fixpoint: a pair is removed as soon as it fails the
    matching clause at any sampled valuation.  Returns the relation or None;
    on an empty region, every pair.
    """
    return _uniform_sim(m1, m2, region, resolution)[0]


def robust_sim_region(m1: PPA, m2: PPA, region, resolution=1) -> Verdict:
    """`robust_strong_sim` as a verdict whose witness holds the relation
    (sorted by `repr`), or the reason it fails."""
    rel, vacuous = _uniform_sim(m1, m2, region, resolution)
    if rel is None:
        return Verdict("fails", witness={"reason": "no uniform relation"})
    return Verdict("holds", witness={"relation": sorted(rel, key=repr)},
                   caveat=VACUOUS if vacuous else Verdict.caveat)
