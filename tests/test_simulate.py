import math
import random
from fractions import Fraction as F

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from networkx.algorithms.flow import edmonds_karp

from pacomp import corpus, simulate
from pacomp.algebra import Box, FiniteRegion, PolyTable, region_samples
from pacomp.errors import IllDefinedValuationInRegion
from pacomp.model import compose, dfa_forbid_symbols, instantiate, make_ppa, sort_key
from pacomp.verify import region_sat, safety
from pacomp.simulate import (
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


LEFT, RIGHT = ["a", "b", "c", "d", "e", "f"], ["u", "v", "w", "x", "y", "z"]


def _random_rel(rng, density):
    return {(l, r) for l in LEFT for r in RIGHT if rng.random() < density}


@settings(max_examples=150)
@given(st.integers(0, 2**32), st.sampled_from([0.35, 0.7, 0.9, 1.0]))
def test_dist_leq_agrees_with_bruteforce(seed, density):
    rng = random.Random(seed)
    mu1 = random_dist(rng, LEFT, max_support=6)
    mu2 = random_dist(rng, RIGHT, max_support=6)
    rel = _random_rel(rng, density)
    assert dist_leq(mu1, mu2, rel) == dist_leq_bruteforce(mu1, mu2, rel)


def _networkx_flow(arcs, source, sink):
    graph = nx.DiGraph()
    graph.add_nodes_from([source, sink])
    for u, v, cap in arcs:
        old = graph.edges[u, v]["capacity"] if graph.has_edge(u, v) else F(0)
        graph.add_edge(u, v, capacity=old + cap)
    return nx.maximum_flow_value(graph, source, sink, flow_func=edmonds_karp)


def _network_lifts(mu1, mu2, rel):
    """The lifting by networkx: the bipartite network carries all of mu1's mass."""
    arcs = [("src", ("l", s), p) for s, p in mu1.items()]
    arcs += [(("r", t), "snk", p) for t, p in mu2.items()]
    arcs += [(("l", s), ("r", t), mu1[s]) for (s, t) in rel if s in mu1 and t in mu2]
    return _networkx_flow(arcs, "src", "snk") == sum(mu1.values(), F(0))


@settings(max_examples=150)
@given(st.integers(0, 2**32), st.integers(0, 6), st.integers(0, 6),
       st.sampled_from([0.2, 0.5, 0.9]))
def test_transport_networks_agree_with_networkx(seed, n_left, n_right, density):
    """Transport networks with arbitrary masses on both sides (unequal totals,
    zero entries), decided through `dist_leq`, against networkx's max flow."""
    rng = random.Random(seed)
    mu1 = {s: F(rng.randint(0, 9), rng.randint(1, 6)) for s in rng.sample(LEFT, n_left)}
    mu2 = {t: F(rng.randint(0, 9), rng.randint(1, 6)) for t in rng.sample(RIGHT, n_right)}
    rel = _random_rel(rng, density)
    expected = _network_lifts(mu1, mu2, rel)
    assert dist_leq(mu1, mu2, rel) == expected
    scale = 60 * rng.randint(1, 3)
    assert dist_leq({s: int(p * scale) for s, p in mu1.items()},
                    {t: int(p * scale) for t, p in mu2.items()}, rel) == expected


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


@settings(max_examples=250)
@given(st.integers(0, 2**32), st.integers(0, 4), st.sampled_from([0.35, 0.7, 0.9, 1.0]))
def test_dist_leq_agrees_with_networkx(seed, stratum, density):
    """Lifting holds iff the bipartite network carries all of mu1's mass.

    Strata: general mu1, Dirac mu1 (decided by the Hall check), empty
    relation, one successor of a non-Dirac mu1 whose related mass is short
    (the Hall reject), and the general case again as integers scaled by a
    common factor.  Supports go up to 6 on each side.
    """
    rng = random.Random(seed)
    mu1 = random_dist(rng, LEFT, max_support=1 if stratum == 1 else 6)
    while stratum == 3 and len(mu1) < 2:
        mu1 = random_dist(rng, LEFT, max_support=6)
    mu2 = random_dist(rng, RIGHT, max_support=6)
    if rng.random() < 0.25:
        mu2 = {t: p * F(rng.randint(1, 4), 4) for t, p in mu2.items()}
    rel = set() if stratum == 2 else _random_rel(rng, density)
    if stratum == 3:
        rel = _hall_short(rng, mu1, mu2, rel)
    expected = _network_lifts(mu1, mu2, rel)
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


def _greedy_fill(mu1, mu2, rel):
    """Route each successor's mass to its related targets in order, no augmentation."""
    room = dict(mu2)
    for s, p in mu1.items():
        for t in mu2:
            if (s, t) in rel:
                x = min(p, room[t])
                p, room[t] = p - x, room[t] - x
        if p:
            return False
    return True


def test_dist_leq_augments_past_the_greedy_fill():
    """a fills x first, so b finds x full; only the path b -> x <- a -> y
    routes b's mass.  With c also tied to x alone, no path exists."""
    half, third = F(1, 2), F(1, 3)
    mu1, mu2 = {"a": half, "b": half}, {"x": half, "y": half}
    rel = {("a", "x"), ("a", "y"), ("b", "x")}
    assert not _greedy_fill(mu1, mu2, rel)
    assert dist_leq(mu1, mu2, rel) and _network_lifts(mu1, mu2, rel)
    mu1, mu2 = {"a": third, "b": third, "c": third}, {"x": third, "y": third, "z": third}
    rel |= {("c", "x"), ("a", "z")}
    assert not _greedy_fill(mu1, mu2, rel)
    assert not dist_leq(mu1, mu2, rel) and not _network_lifts(mu1, mu2, rel)
    # a longer path: d -> x <- a -> y <- b -> z
    mu1 = {"a": third, "b": third, "d": third}
    rel = {("a", "x"), ("a", "y"), ("b", "y"), ("b", "z"), ("d", "x")}
    assert not _greedy_fill(mu1, mu2, rel)
    assert dist_leq(mu1, mu2, rel) and dist_leq_bruteforce(mu1, mu2, rel)


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


@settings(max_examples=25)
@given(st.integers(0, 2**32))
def test_simulation_relations_match_naive_fixpoint(seed):
    """strong_sim and robust_strong_sim against a greatest fixpoint built
    directly from the lifting's definition on unscaled Fraction entries.

    Supports go up to 4 successors, and the reversed and unrelated pairs
    often lose their initial pair, which ends the refinement early."""
    rng = random.Random(seed)
    a = random_pa(rng, "a", rng.randint(2, 4), ["a", "b"])
    b = random_pa(rng, "b", rng.randint(2, 4), ["a", "b"])
    fat = _fatten(rng, a, rng.randint(1, 2), "u")
    for n1, n2 in ((a, a), (a, b), (b, a), (a, fat), (fat, a)):
        assert strong_sim(n1, n2) == _naive_greatest_sim(n1, n2, [(n1, n2)])
    # the identity and the fattening always simulate, so not every draw is None
    assert strong_sim(a, a) is not None and strong_sim(a, fat) is not None

    # pairwise coprime denominators: the common scale is a real lcm
    primes = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37]
    a = _coprime_pa(rng, "a", 3, ["a", "b"], primes[:6])
    b = _coprime_pa(rng, "b", 3, ["a", "b"], primes[6:])
    fat = _fatten(rng, a, 1, "u")
    for n1, n2 in ((a, a), (a, b), (b, a), (fat, a), (a, fat)):
        assert strong_sim(n1, n2) == _naive_greatest_sim(n1, n2, [(n1, n2)])

    box = Box.of({"p": (F(1, 7), F(5, 6))})
    samples = region_samples(box, 2)
    m1, m2 = random_parametric_pair(rng)
    m3, m4 = random_parametric_pair(rng)
    for n1, n2 in ((m1, m1), (m1, m2), (m1, m3), (m3, m1), (m2, m4)):
        instances = [(instantiate(n1, v), instantiate(n2, v)) for v in samples]
        rel = robust_strong_sim(n1, n2, box, 2)
        assert rel == _naive_greatest_sim(n1, n2, instances)
        verdict = strong_sim_region(n1, n2, box, 2)
        per_sample = [strong_sim(*inst) for inst in instances]
        assert verdict.holds == all(r is not None for r in per_sample)
        got = [d["relation"] for d in verdict.details]
        assert got == [sorted(r, key=sort_key) for r in per_sample[:len(got)]]


def _chain(prefix, labels):
    """A Dirac chain prefix0 -l0-> prefix1 -l1-> ... ending in a self-loop on its last label."""
    states = [f"{prefix}{i}" for i in range(len(labels))]
    trans = {(s, f"{s}_{lab}"): (lab, {states[min(i + 1, len(states) - 1)]: F(1)})
             for i, (s, lab) in enumerate(zip(states, labels))}
    return make_ppa(states, states[0], set(), trans, set(labels))


def test_initial_pair_leaving_ends_the_refinement(monkeypatch):
    """The initial pair's label mismatch refutes it at its first check; the
    refinement returns None there, while the naive fixpoint (and the pairs
    further down the chains) would still be refining."""
    m1, m2 = _chain("x", ["b", "a", "a", "a"]), _chain("y", ["a", "a", "a", "b"])
    checks = []
    matches = simulate._matches
    monkeypatch.setattr(simulate, "_matches",
                        lambda *args: checks.append(args[1:3]) or matches(*args))
    assert strong_sim(m1, m2) is None
    assert checks == [(0, 0)]
    assert _naive_greatest_sim(m1, m2, [(m1, m2)]) is None
    # the initial pair survives the first checks and leaves only once the
    # mismatch at the end of the chains has propagated back to it
    checks.clear()
    m1 = _chain("x", ["a", "a", "a", "a"])
    assert strong_sim(m1, m2) is None
    assert _naive_greatest_sim(m1, m2, [(m1, m2)]) is None
    assert checks.count((0, 0)) > 1 and len(checks) < 2 * 16
    assert strong_sim(m2, m1) is None  # m2's last state has a b-move that m1 never makes


def test_is_strong_sim_rejects_undeclared_states():
    a, b = corpus.handoff_fixed(), corpus.split_responder()
    a, b = (instantiate(m, {"p": F(1, 10)}) for m in (a, b))
    rel = strong_sim(a, b)
    assert is_strong_sim(a, b, rel)
    for bad in (("nosuch", "t0"), ("s0", "nosuch")):
        with pytest.raises(ValueError, match="nosuch"):
            is_strong_sim(a, b, rel | {bad})


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


def test_robust_strong_sim_on_an_empty_region_keeps_every_pair():
    # no valuation refutes a pair
    m1, m2 = corpus.handoff_parametric(), corpus.split_responder()
    rel = robust_strong_sim(m1, m2, FiniteRegion(()))
    assert rel == frozenset((s1, s2) for s1 in m1.states for s2 in m2.states)


def test_parameter_free_models_are_evaluated_once_per_call(monkeypatch):
    evaluations = []
    evaluate = PolyTable._evaluate
    monkeypatch.setattr(PolyTable, "_evaluate",
                        lambda table, v: evaluations.append(v) or evaluate(table, v))
    box = Box.of({"p": (F(0), F(1))})  # 5 samples; neither model has a parameter
    pa1, pa2 = corpus.handoff_fixed(), random_pa(random.Random(3), "x", 3, ["a", "b"])
    objective = safety(dfa_forbid_symbols({"b"}, pa1.alphabet), F(1, 2))
    for call in (lambda: robust_strong_sim(pa1, pa2, box, 3),
                 lambda: strong_sim_region(pa1, pa2, box, 3),
                 lambda: region_sat(pa1, box, (objective,), resolution=3)):
        evaluations.clear()
        call()
        assert evaluations == [{}]
    # a parametric side is evaluated at every sample, the PA side with it
    evaluations.clear()
    robust_strong_sim(corpus.handoff_parametric(), pa2, box, 3)
    assert [v["p"] for v in evaluations] == [F(k, 4) for k in range(5)]


def test_simulation_rejects_ill_defined_samples():
    with pytest.raises(IllDefinedValuationInRegion):
        strong_sim_region(
            corpus.handoff_parametric(),
            corpus.split_responder(),
            FiniteRegion.of([{"p": 2}]),
        )
