import random
from fractions import Fraction as F

import networkx as nx
import pytest
from networkx.algorithms.flow import edmonds_karp

from pacomp import corpus
from pacomp.algebra import FiniteRegion
from pacomp.errors import IllDefinedValuationInRegion
from pacomp.model import compose, instantiate
from pacomp.simulate import (
    _maxflow,
    dist_leq,
    is_strong_sim,
    robust_strong_sim,
    strong_sim,
    strong_sim_region,
)

from helpers import dist_leq_bruteforce, random_dist, random_pa

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
        assert isinstance(got, F)


def test_dist_leq_agrees_with_networkx():
    """Lifting holds iff the bipartite network carries all of mu1's mass.

    Strata: general mu1, Dirac mu1 (decided without a flow), empty relation.
    """
    rng = random.Random(31)
    left_states = ["a", "b", "c", "d", "e"]
    right_states = ["v", "w", "x", "y", "z"]
    for case in range(240):
        stratum = case % 3
        mu1 = random_dist(rng, left_states, max_support=1 if stratum == 1 else 5)
        mu2 = random_dist(rng, right_states, max_support=5)
        if rng.random() < 0.25:
            mu2 = {t: p * F(rng.randint(1, 4), 4) for t, p in mu2.items()}
        density = rng.choice([0.35, 0.7, 0.9])
        rel = set() if stratum == 2 else {
            (l, r) for l in left_states for r in right_states if rng.random() < density
        }
        arcs = [("src", ("l", s), p) for s, p in mu1.items()]
        arcs += [(("r", t), "snk", p) for t, p in mu2.items()]
        arcs += [(("l", s), ("r", t), F(1)) for (s, t) in rel if s in mu1 and t in mu2]
        expected = _networkx_flow(arcs, "src", "snk") == sum(mu1.values())
        assert dist_leq(mu1, mu2, rel) == expected
        assert dist_leq(mu1, mu2, sorted(rel)) == expected
        assert dist_leq_bruteforce(mu1, mu2, rel) == expected


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
    from pacomp.model import make_ppa

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
