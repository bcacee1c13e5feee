import math
import random
from fractions import Fraction as F

import networkx as nx
import pytest
from networkx.algorithms.flow import edmonds_karp

from pacomp import corpus
from pacomp.algebra import Box, FiniteRegion, region_samples
from pacomp.errors import IllDefinedValuationInRegion
from pacomp.model import compose, instantiate, make_ppa
from pacomp.simulate import (
    _maxflow,
    dist_leq,
    is_strong_sim,
    robust_strong_sim,
    strong_sim,
    strong_sim_region,
)

from helpers import dist_leq_bruteforce, random_dist, random_pa, random_parametric_pair

REGION = FiniteRegion.of([{"p": F(1, 10)}, {"p": F(9, 10)}])


def test_dist_leq_identity():
    mu = {"a": F(1, 2), "b": F(1, 2)}
    ident = {("a", "a"), ("b", "b")}
    assert dist_leq(mu, mu, ident)


def test_dist_leq_unrelated_support():
    assert not dist_leq({"x": F(1)}, {"y": F(1)}, set())


def test_dist_leq_weighted_golden():
    mu1 = {"s0": F(9, 10), "s1": F(1, 10)}
    mu2 = {"t0": F(9, 10), "t1": F(1, 10)}
    rel = {("s0", "t0"), ("s1", "t1")}
    assert dist_leq(mu1, mu2, rel)
    assert dist_leq_bruteforce(mu1, mu2, rel)
    # tightened right side breaks it
    mu2b = {"t0": F(19, 20), "t1": F(1, 20)}
    assert not dist_leq(mu1, mu2b, rel)


def test_dist_leq_agrees_with_bruteforce():
    rng = random.Random(5)
    left_states = ["a", "b", "c", "d", "e"]
    right_states = ["v", "w", "x", "y", "z"]
    for _ in range(150):
        mu1 = random_dist(rng, left_states, max_support=5)
        mu2 = random_dist(rng, right_states, max_support=5)
        rel = {
            (l, r)
            for l in left_states
            for r in right_states
            if rng.random() < 0.35
        }
        assert dist_leq(mu1, mu2, rel) == dist_leq_bruteforce(mu1, mu2, rel)


def _networkx_flow(arcs, source, sink):
    graph = nx.DiGraph()
    graph.add_nodes_from([source, sink])
    for u, v, cap in arcs:
        old = graph.edges[u, v]["capacity"] if graph.has_edge(u, v) else F(0)
        graph.add_edge(u, v, capacity=old + cap)
    return nx.maximum_flow_value(graph, source, sink, flow_func=edmonds_karp)


def test_maxflow_agrees_with_networkx():
    rng = random.Random(29)
    for _ in range(150):
        nodes = list(range(rng.randint(2, 7)))
        arcs = []
        for _ in range(rng.randint(0, 18)):
            u, v = rng.sample(nodes, 2)
            arcs.append((u, v, F(rng.randint(0, 9), rng.randint(1, 6))))
        got = _maxflow(0, nodes[-1], arcs)
        assert got == _networkx_flow(arcs, 0, nodes[-1])
        # exact, never a float: a Fraction, or the int 0 when nothing augments
        assert isinstance(got, F) or got == 0
        # the same network scaled to integer capacities carries the scaled flow
        scaled = _maxflow(0, nodes[-1], [(u, v, int(cap * 60)) for u, v, cap in arcs])
        assert type(scaled) is int and scaled == got * 60


def _hall_short(rng, mu1, mu2, rel):
    """Relate one successor s of mu1 only to mu2 mass below mu1(s)."""
    s = rng.choice(sorted(mu1))
    rel = {(l, r) for (l, r) in rel if l != s}
    mass = F(0)
    for t in sorted(mu2):
        if mass + mu2[t] < mu1[s] and rng.random() < 0.7:
            mass += mu2[t]
            rel.add((s, t))
    return rel


def test_dist_leq_agrees_with_networkx():
    """Lifting holds iff the bipartite network carries all of mu1's mass.

    Strata: general mu1, Dirac mu1 (decided without a flow), empty relation,
    one successor of a non-Dirac mu1 whose related mass is short (the Hall
    reject), and the general case again as integers scaled by a common factor.
    """
    rng = random.Random(31)
    left_states = ["a", "b", "c", "d", "e"]
    right_states = ["v", "w", "x", "y", "z"]
    for case in range(400):
        stratum = case % 5
        mu1 = random_dist(rng, left_states, max_support=1 if stratum == 1 else 5)
        while stratum == 3 and len(mu1) < 2:
            mu1 = random_dist(rng, left_states, max_support=5)
        mu2 = random_dist(rng, right_states, max_support=5)
        if rng.random() < 0.25:
            mu2 = {t: p * F(rng.randint(1, 4), 4) for t, p in mu2.items()}
        density = rng.choice([0.35, 0.7, 0.9])
        rel = set() if stratum == 2 else {
            (l, r) for l in left_states for r in right_states if rng.random() < density
        }
        if stratum == 3:
            rel = _hall_short(rng, mu1, mu2, rel)
        arcs = [("src", ("l", s), p) for s, p in mu1.items()]
        arcs += [(("r", t), "snk", p) for t, p in mu2.items()]
        arcs += [(("l", s), ("r", t), F(1)) for (s, t) in rel if s in mu1 and t in mu2]
        expected = _networkx_flow(arcs, "src", "snk") == sum(mu1.values())
        assert dist_leq(mu1, mu2, rel) == expected
        assert dist_leq(mu1, mu2, sorted(rel)) == expected
        assert dist_leq_bruteforce(mu1, mu2, rel) == expected
        if stratum == 3:
            assert not expected
        if stratum == 4:
            scale = math.lcm(*(p.denominator for p in [*mu1.values(), *mu2.values()]))
            scale *= rng.randint(1, 5)
            int1, int2 = ({s: int(p * scale) for s, p in mu.items()} for mu in (mu1, mu2))
            assert sum(int1.values()) == sum(mu1.values()) * scale
            assert sum(int2.values()) == sum(mu2.values()) * scale
            assert dist_leq(int1, int2, rel) == expected


def test_strong_sim_goldens():
    m1p, m2p = corpus.handoff_fixed(), corpus.split_responder()
    lo = strong_sim(instantiate(m1p, {"p": F(1, 10)}), instantiate(m2p, {"p": F(1, 10)}))
    hi = strong_sim(instantiate(m1p, {"p": F(9, 10)}), instantiate(m2p, {"p": F(9, 10)}))
    assert lo == frozenset({("s0", "t0"), ("s1", "t1")})
    assert hi == frozenset({("s0", "t0"), ("s1", "t2")})


def test_strong_sim_reflexive():
    for build in (corpus.handoff_fixed, corpus.split_responder):
        pa = instantiate(build(), {"p": F(1, 3)} if build().params else {})
        rel = strong_sim(pa, pa)
        assert rel is not None
        assert all((s, s) in rel for s in pa.states)


def _fatten(rng, pa, extra, tag):
    """Add transitions: the result simulates the original via the identity."""
    trans = {key: (pa.label[key], dict(dist)) for key, dist in pa.trans.items()}
    for k in range(extra):
        s = rng.choice(pa.states)
        lab = rng.choice(sorted(pa.alphabet))
        trans[(s, f"{s}_{tag}{k}")] = (lab, random_dist(rng, list(pa.states)))
    return make_ppa(pa.states, pa.initial, set(), trans, pa.alphabet)


def test_strong_sim_transitive_via_composition():
    rng = random.Random(19)
    for _ in range(25):
        a = random_pa(rng, "a", 2, ["a", "b"])
        b = _fatten(rng, a, rng.randint(0, 2), "u")
        c = _fatten(rng, b, rng.randint(0, 2), "v")
        r1, r2 = strong_sim(a, b), strong_sim(b, c)
        assert r1 is not None and r2 is not None
        composed = {
            (x, z) for (x, y1) in r1 for (y2, z) in r2 if y1 == y2
        }
        assert is_strong_sim(a, c, composed)
        assert strong_sim(a, c) is not None


def test_strong_sim_compositional():
    rng = random.Random(37)
    for _ in range(25):
        a = random_pa(rng, "a", 2, ["a", "b"])
        b = _fatten(rng, a, rng.randint(0, 2), "u")
        rel = strong_sim(a, b)
        assert rel is not None
        ctx = random_pa(rng, "c", 2, ["a", "c"])
        paired = {((s1, s), (s2, s)) for (s1, s2) in rel for s in ctx.states}
        assert is_strong_sim(compose(a, ctx), compose(b, ctx), paired)


def _naive_greatest_sim(m1, m2, instances):
    """Greatest fixpoint from the subset-quantified lifting on the Fraction entries."""

    def matched(n1, n2, s1, s2, rel):
        return all(
            any(
                n2.label[(s2, a2)] == n1.label[(s1, a1)]
                and dist_leq_bruteforce(n1.dist(s1, a1), n2.dist(s2, a2), rel)
                for a2 in n2.enabled(s2)
            )
            for a1 in n1.enabled(s1)
        )

    rel = {(s1, s2) for s1 in m1.states for s2 in m2.states}
    while True:
        kept = {
            (s1, s2) for (s1, s2) in rel
            if all(matched(n1, n2, s1, s2, rel) for n1, n2 in instances)
        }
        if kept == rel:
            break
        rel = kept
    return frozenset(rel) if (m1.initial, m2.initial) in rel else None


def _coprime_pa(rng, prefix, n_states, labels, primes):
    """A PA whose transitions each use their own prime denominator."""
    states = [f"{prefix}{i}" for i in range(n_states)]
    primes = iter(primes)
    trans = {}
    for s in states:
        for k in range(rng.randint(1, 2)):
            lab = rng.choice(labels)
            d = next(primes)
            t1, t2 = rng.sample(states, 2)
            w = rng.randint(1, d - 1)
            trans[(s, f"{s}_{lab}_{k}")] = (lab, {t1: F(w, d), t2: F(d - w, d)})
    return make_ppa(states, states[0], set(), trans, set(labels))


def test_simulation_relations_match_naive_fixpoint():
    """strong_sim and robust_strong_sim against a greatest fixpoint built
    directly from the lifting's definition on unscaled Fraction entries."""
    rng = random.Random(43)
    hits = 0
    for _ in range(20):
        a = random_pa(rng, "a", rng.randint(2, 3), ["a", "b"])
        b = random_pa(rng, "b", rng.randint(2, 3), ["a", "b"])
        fat = _fatten(rng, a, rng.randint(1, 2), "u")
        for n1, n2 in ((a, a), (a, b), (b, a), (a, fat), (fat, a)):
            rel = strong_sim(n1, n2)
            assert rel == _naive_greatest_sim(n1, n2, [(n1, n2)])
            hits += rel is not None
    assert hits >= 40

    # pairwise coprime denominators: the common scale is a real lcm
    primes = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37]
    for _ in range(10):
        a = _coprime_pa(rng, "a", 3, ["a", "b"], primes[:6])
        b = _coprime_pa(rng, "b", 3, ["a", "b"], primes[6:])
        fat = _fatten(rng, a, 1, "u")
        for n1, n2 in ((a, a), (a, b), (b, a), (fat, a), (a, fat)):
            assert strong_sim(n1, n2) == _naive_greatest_sim(n1, n2, [(n1, n2)])

    box = Box.of({"p": (F(1, 7), F(5, 6))})
    samples = region_samples(box, 2)
    for _ in range(15):
        m1, m2 = random_parametric_pair(rng)
        m3, m4 = random_parametric_pair(rng)
        for n1, n2 in ((m1, m1), (m1, m2), (m1, m3), (m3, m1), (m2, m4)):
            instances = [(instantiate(n1, v), instantiate(n2, v)) for v in samples]
            rel = robust_strong_sim(n1, n2, box, 2)
            assert rel == _naive_greatest_sim(n1, n2, instances)


def test_strong_sim_region_golden():
    verdict = strong_sim_region(corpus.handoff_fixed(), corpus.split_responder(), REGION)
    assert verdict.holds
    # self simulation over any region
    m = corpus.handoff_parametric()
    assert strong_sim_region(m, m, REGION).holds
    # vacuous on the empty region
    assert strong_sim_region(m, m, FiniteRegion.of([])).holds


def test_strong_sim_region_failure_witness():
    # reversed direction fails: the responder branches cannot be matched
    verdict = strong_sim_region(corpus.split_responder(), corpus.handoff_fixed(), REGION)
    assert verdict.status == "fails"
    assert "valuation" in verdict.witness


def test_robust_strong_sim_contrast():
    m2p = corpus.split_responder()
    assert robust_strong_sim(corpus.handoff_fixed(), m2p, REGION) is None
    rel = robust_strong_sim(corpus.handoff_parametric(), m2p, REGION)
    assert rel == frozenset({("s0", "t0"), ("s1", "t2")})
    # a robust witness implies the per-valuation verdict
    assert strong_sim_region(corpus.handoff_parametric(), m2p, REGION).holds


def test_robust_relation_is_strong_sim_at_every_sample():
    m1pp, m2p = corpus.handoff_parametric(), corpus.split_responder()
    rel = robust_strong_sim(m1pp, m2p, REGION)
    for v in ({"p": F(1, 10)}, {"p": F(9, 10)}):
        assert is_strong_sim(instantiate(m1pp, v), instantiate(m2p, v), rel)


def test_simulation_rejects_ill_defined_samples():
    with pytest.raises(IllDefinedValuationInRegion):
        strong_sim_region(
            corpus.handoff_parametric(),
            corpus.split_responder(),
            FiniteRegion.of([{"p": 2}]),
        )
