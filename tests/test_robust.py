import math
import pickle
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pacomp import corpus
from pacomp.errors import (
    ActionAlphabetClash,
    GeneratorBudgetExceeded,
    InfeasibleIntervalSet,
    NonPolytopicComponent,
)
from pacomp.model import PPA, compose, isomorphic, make_ppa, sort_key
from pacomp.modelio import dump_document
from pacomp.robust import (
    IntervalSet,
    ProductSet,
    VertexSet,
    conv_compose,
    fix_nature,
    freeze_dist,
    generators,
    interval_relax_compose,
    is_product_member,
    pa_reduce,
    rpa_compose,
    make_rpa,
)
from pacomp.verify import safety, safety_prob

from helpers import (
    RationalLP,
    alphabet_extend_rpa,
    compose_reference,
    interval_extreme_points_by_orders,
    mixed_ids,
    pa_reduce_reference,
    random_dist,
    random_parametric_pair,
    random_polytopic_rpa,
    rpa_compose_reference,
)


def in_convex_hull(dist, gens):
    """Exact membership of a distribution in the convex hull of generators."""
    support = sorted({s for g in gens for s in g} | set(dist), key=repr)
    lp = RationalLP(len(gens))
    for s in support:
        lp.add_eq(
            {i: g.get(s, F(0)) for i, g in enumerate(gens)},
            F(dist.get(s, F(0))),
        )
    lp.add_eq({i: F(1) for i in range(len(gens))}, F(1))
    feasible, _ = lp.feasible()
    return feasible


def test_interval_extreme_points_goldens():
    left = generators(IntervalSet.of({"s0": (0, F(1, 2)), "s1": (F(1, 2), 1)}))
    assert left == [{"s0": F(1, 2), "s1": F(1, 2)}, {"s1": F(1)}]
    right = generators(
        IntervalSet.of({"t1": (F(1, 10), F(9, 10)), "t2": (F(1, 10), F(9, 10))})
    )
    assert right == [
        {"t1": F(1, 10), "t2": F(9, 10)},
        {"t1": F(9, 10), "t2": F(1, 10)},
    ]


def test_interval_extreme_points_point_interval():
    got = generators(
        IntervalSet.of({"x": (F(1, 4), F(1, 4)), "y": (F(3, 4), F(3, 4))})
    )
    assert got == [{"x": F(1, 4), "y": F(3, 4)}]


def test_interval_extreme_points_span_the_set():
    rng = random.Random(3)
    for _ in range(20):
        states = ["a", "b", "c"]
        center = random_dist(rng, states)
        bounds = {}
        for s in states:
            p = center.get(s, F(0))
            bounds[s] = (max(F(0), p - F(1, 10)), min(F(1), p + F(1, 10)))
        uset = IntervalSet.of(bounds)
        gens = generators(uset)
        for g in gens:
            assert uset.contains(g)
        # random interior points lie in the hull of the enumerated vertices
        for _ in range(3):
            lam = [rng.randint(1, 3) for _ in gens]
            tot = sum(lam)
            mix = {}
            for weight, g in zip(lam, gens):
                for s, p in g.items():
                    mix[s] = mix.get(s, F(0)) + F(weight, tot) * p
            assert uset.contains(mix)
            assert in_convex_hull(mix, gens)


def _random_interval_bounds(rng, n, stratum, dens=(10,)):
    """Bounds around a random distribution on n successors, each widened by
    up to 3/d with d drawn from `dens`.

    Strata: free widths; some point intervals; upper bounds summing to one;
    entries reaching 0 or 1.
    """
    states = [f"s{i}" for i in range(n)]
    weights = [rng.randint(0, 4) for _ in states]
    weights[rng.randrange(len(states))] += 1
    center = [F(w, sum(weights)) for w in weights]
    bounds = {}
    for s, p in zip(states, center):
        lo = max(F(0), p - F(rng.randint(0, 3), rng.choice(dens)))
        hi = min(F(1), p + F(rng.randint(0, 3), rng.choice(dens)))
        if stratum == 1 and rng.random() < 0.5:
            lo = hi = p
        elif stratum == 2:
            hi = p
        elif stratum == 3 and rng.random() < 0.5:
            lo, hi = rng.choice([(F(0), hi), (lo, F(1)), (F(0), F(1))])
        bounds[s] = (lo, hi)
    return bounds


# list equality, so a vertex enumerated twice or missed fails
@given(seed=st.integers(min_value=0, max_value=2**32 - 1), n=st.integers(1, 6),
       stratum=st.integers(0, 3),
       dens=st.lists(st.sampled_from([2, 3, 5, 7, 10, 12]), min_size=1, max_size=3))
@settings(max_examples=200)
def test_interval_extreme_points_match_the_order_oracle(seed, n, stratum, dens):
    uset = IntervalSet.of(_random_interval_bounds(random.Random(seed), n, stratum, dens))
    assert generators(uset) == interval_extreme_points_by_orders(uset)


# the oracle walks all 5040 orders at support 7, so few sets have it
@pytest.mark.parametrize("stratum", [0, 1, 2, 3])
def test_interval_extreme_points_match_the_order_oracle_at_support_seven(stratum):
    rng = random.Random(17 + stratum)
    uset = IntervalSet.of(_random_interval_bounds(rng, 7, stratum, (3, 10)))
    assert generators(uset) == interval_extreme_points_by_orders(uset)


@pytest.mark.parametrize("n", [8, 9, 10])
def test_symmetric_interval_vertices_beyond_support_seven(n):
    """Bounds [0, 1/k] on n successors: the C(n, k) k-subsets carrying 1/k."""
    states = [f"s{i}" for i in range(n)]
    for k in (1, 2, 3, n // 2, n - 1):
        gens = generators(IntervalSet.of({s: (0, F(1, k)) for s in states}))
        assert len(gens) == math.comb(n, k)
        assert all(sorted(g.values()) == [F(1, k)] * k for g in gens)


def test_interval_bounds_validated():
    with pytest.raises(InfeasibleIntervalSet):
        IntervalSet.of({"a": (F(3, 4), 1), "b": (F(1, 2), 1)})  # lower sum > 1
    with pytest.raises(InfeasibleIntervalSet):
        IntervalSet.of({"a": (0, F(1, 4)), "b": (0, F(1, 4))})  # upper sum < 1


def test_generator_cap():
    # 11 * 2**10 candidates exceed GENERATOR_CAP = 10 000; 10 * 2**9 do not
    states = [f"s{i}" for i in range(11)]
    with pytest.raises(GeneratorBudgetExceeded):
        generators(IntervalSet.of({s: (0, F(1, 2)) for s in states}))
    assert len(generators(IntervalSet.of({s: (0, F(1, 2)) for s in states[:10]}))) == 45


def test_rpa_compose_product_sets():
    comp = rpa_compose(corpus.interval_retry(), corpus.interval_responder())
    pset = comp.utrans[(("s0", "t0"), ("s0_a", "t0_a"))]
    assert isinstance(pset, ProductSet)
    assert isinstance(pset.left, IntervalSet) and isinstance(pset.right, IntervalSet)
    # asynchronous transitions pair with a Dirac side
    aset = comp.utrans[(("s0", "t1"), ("c", "t1_c"))]
    assert isinstance(aset.left, VertexSet) and len(aset.left.dists) == 1


def test_rpa_compose_unit():
    unit = make_rpa(["u"], "u", {}, set())
    u1 = corpus.interval_retry()
    composed = rpa_compose(u1, unit)
    assert len(composed.states) == len(u1.states)
    assert composed.alphabet == u1.alphabet


def test_product_membership_battery():
    # the paper suite's nonconvex-witness anchor states the refuted cell and
    # the members; here the factor it refutes with and the convex hull
    comp = rpa_compose(corpus.interval_retry(), corpus.interval_responder())
    pset = comp.utrans[(("s0", "t0"), ("s0_a", "t0_a"))]
    mu_conv = {
        ("s0", "t1"): F(27, 80),
        ("s0", "t2"): F(3, 80),
        ("s1", "t1"): F(29, 80),
        ("s1", "t2"): F(21, 80),
    }
    assert is_product_member(mu_conv, pset)[1]["left_factor"]["s0"] == F(3, 8)
    # the convex combination belongs to the convex composition's vertex hull
    conv = conv_compose(corpus.interval_retry(), corpus.interval_responder())
    gens = generators(conv.utrans[(("s0", "t0"), ("s0_a", "t0_a"))])
    assert in_convex_hull(mu_conv, gens)


def test_product_membership_dirac_pair():
    pset = ProductSet(VertexSet.dirac("x"), VertexSet.dirac("y"))
    verdict, factors = is_product_member({("x", "y"): 1}, pset)
    assert verdict == "member"
    assert factors == ({"x": F(1)}, {"y": F(1)})


def test_exact_products_always_members():
    rng = random.Random(11)
    for _ in range(20):
        left = random_dist(rng, ["a", "b"])
        right = random_dist(rng, ["x", "y", "z"])
        pset = ProductSet(VertexSet.of([left]), VertexSet.of([right]))
        mu = {
            (s1, s2): p1 * p2
            for s1, p1 in left.items()
            for s2, p2 in right.items()
        }
        assert is_product_member(mu, pset)[0] == "member"


def test_conv_compose_generator_products():
    conv = conv_compose(corpus.interval_retry(), corpus.interval_responder())
    vset = conv.utrans[(("s0", "t0"), ("s0_a", "t0_a"))]
    assert isinstance(vset, VertexSet)
    assert len(vset.dists) == 4  # 2 retry extremes x 2 responder extremes
    # every exact product of member factors lies in the convex hull
    gens = [dict(d) for d in vset.dists]
    left = {"s0": F(1, 4), "s1": F(3, 4)}
    right = {"t1": F(1, 2), "t2": F(1, 2)}
    mu = {(a, b): left[a] * right[b] for a in left for b in right}
    assert in_convex_hull(mu, gens)


def test_conv_compose_needs_polytopic_components():
    comp = rpa_compose(corpus.interval_retry(), corpus.interval_responder())
    with pytest.raises(NonPolytopicComponent):
        conv_compose(comp, corpus.interval_retry())


def test_interval_relaxation_bounds():
    rel = interval_relax_compose(corpus.interval_retry(), corpus.interval_responder())
    bounds = dict(rel.utrans[(("s0", "t0"), ("s0_a", "t0_a"))].bounds)
    assert bounds[("s0", "t1")] == (F(0), F(9, 20))
    assert bounds[("s1", "t1")] == (F(1, 20), F(9, 10))
    assert bounds[("s0", "t2")] == (F(0), F(9, 20))
    assert bounds[("s1", "t2")] == (F(1, 20), F(9, 10))
    # displaced mass admitted by the relaxation but absent from the true set
    spurious = {
        ("s0", "t1"): F(1, 20),
        ("s1", "t1"): F(9, 10),
        ("s1", "t2"): F(1, 20),
    }
    uset = rel.utrans[(("s0", "t0"), ("s0_a", "t0_a"))]
    assert uset.contains(spurious)
    exact = rpa_compose(corpus.interval_retry(), corpus.interval_responder())
    verdict, _ = is_product_member(
        spurious, exact.utrans[(("s0", "t0"), ("s0_a", "t0_a"))]
    )
    assert verdict == "not-member"


def test_relaxation_of_dirac_components_is_dirac():
    d1 = make_rpa(
        ["x"], "x", {("x", "x_l"): ("a", VertexSet.dirac("x"))}, {"a"}
    )
    d2 = make_rpa(
        ["y"], "y", {("y", "y_l"): ("a", VertexSet.dirac("y"))}, {"a"}
    )
    rel = interval_relax_compose(d1, d2)
    bounds = dict(rel.utrans[(("x", "y"), ("x_l", "y_l"))].bounds)
    assert bounds == {("x", "y"): (F(1), F(1))}


def test_pa_reduce_structure():
    red = pa_reduce(corpus.interval_retry())
    a_actions = [a for (s, a) in red.trans if s == "s0"]
    assert len(a_actions) == 2  # one per extreme point
    assert all(red.label[("s0", a)] == "a" for a in a_actions)
    # a Dirac-only robust model reduces to an isomorphic plain model
    d1 = make_rpa(["x"], "x", {("x", "x_l"): ("a", VertexSet.dirac("x"))}, {"a"})
    red2 = pa_reduce(d1)
    assert len(red2.trans) == 1 and red2.dist("x", list(red2.actions)[0]) == {"x": F(1)}


def test_reduce_commutes_with_alphabet_extension():
    u2 = corpus.interval_responder()
    left = pa_reduce(alphabet_extend_rpa(u2, {"a", "x"}))
    from pacomp.model import alphabet_extend

    right = alphabet_extend(pa_reduce(u2), {"a", "x"})
    assert isomorphic(left, right)


def test_reduction_commutes_with_convex_composition():
    rng = random.Random(29)
    pairs = [(corpus.interval_retry(), corpus.interval_responder())]
    for _ in range(10):
        pairs.append(
            (
                random_polytopic_rpa(rng, "u", ["a", "b"], n_states=2),
                random_polytopic_rpa(rng, "w", ["a", "c"], n_states=3),
            )
        )
    rng2 = random.Random(31)
    from helpers import random_safety_dfa

    for u1, u2 in pairs:
        left = pa_reduce(conv_compose(u1, u2))
        right = compose(pa_reduce(u1), pa_reduce(u2))
        alphabet = sorted(u1.alphabet | u2.alphabet)
        dfas = [random_safety_dfa(rng2, alphabet, allow_empty=False) for _ in range(2)]
        for dfa in dfas:
            obj = safety(dfa, F(1, 2))
            assert safety_prob(left, obj) == safety_prob(right, obj)


def test_fix_nature_validates_membership():
    rel = interval_relax_compose(corpus.interval_retry(), corpus.interval_responder())
    with pytest.raises(ValueError):
        fix_nature(
            rel,
            {
                (("s0", "t0"), ("s0_a", "t0_a")): {
                    ("s0", "t1"): F(1, 2),
                    ("s1", "t1"): F(1, 2),
                }
            },
        )


def test_convex_composition_overapproximates_products():
    # every member of an exact product set is a convex combination of the
    # convex composition's generators
    rng = random.Random(71)
    u1, u2 = corpus.interval_retry(), corpus.interval_responder()
    conv = conv_compose(u1, u2)
    exact = rpa_compose(u1, u2)
    key = (("s0", "t0"), ("s0_a", "t0_a"))
    gens = generators(conv.utrans[key])
    pset = exact.utrans[key]
    for _ in range(10):
        # random member factors inside the interval sets
        lam = F(rng.randint(0, 4), 4)
        left = {"s0": lam * F(1, 2), "s1": 1 - lam * F(1, 2)}
        mu_r = F(1, 10) + F(rng.randint(0, 8), 10)
        right = {"t1": mu_r, "t2": 1 - mu_r}
        mu = {(a, b): left[a] * right[b] for a in left for b in right}
        assert is_product_member(mu, pset)[0] == "member"
        assert in_convex_hull(mu, gens)


def test_conv_compose_with_unit_is_isomorphic_after_reduction():
    unit = make_rpa(
        ["u"], "u", {("u", "u_l"): ("z", VertexSet.dirac("u"))}, {"z"}
    )
    u1 = corpus.interval_retry()
    left = pa_reduce(conv_compose(u1, unit))
    from pacomp.model import compose as pa_compose_op

    right = pa_compose_op(pa_reduce(u1), pa_reduce(unit))
    assert isomorphic(left, right)


def test_conv_compose_associative_on_values():
    rng = random.Random(83)
    u1 = random_polytopic_rpa(rng, "x", ["a", "b"], n_states=2)
    u2 = random_polytopic_rpa(rng, "y", ["a", "c"], n_states=2)
    u3 = random_polytopic_rpa(rng, "z", ["b", "c"], n_states=2)
    left = pa_reduce(conv_compose(conv_compose(u1, u2), u3))
    right = pa_reduce(conv_compose(u1, conv_compose(u2, u3)))
    from helpers import random_safety_dfa

    dfa_rng = random.Random(85)
    for _ in range(3):
        dfa = random_safety_dfa(dfa_rng, ["a", "b", "c"], allow_empty=False)
        obj = safety(dfa, F(1, 2))
        assert safety_prob(left, obj) == safety_prob(right, obj)


@pytest.mark.parametrize("defect", ["undeclared-state", "undeclared-successor",
                                    "label-outside-alphabet"])
def test_rpa_checks_the_same_invariants_as_a_ppa(defect):
    from pacomp import modelio
    from pacomp.errors import ParseError

    doc = modelio.dump_document(corpus.interval_retry())
    entry = doc["transitions"][0]
    if defect == "undeclared-state":
        entry["state"] = "nowhere"
    elif defect == "undeclared-successor":
        entry["interval"][0][0] = "nowhere"
    else:
        entry["label"] = "zz"
    # the document no longer loads, so no later construction meets the defect
    with pytest.raises(ParseError):
        modelio.load_document(doc)
    u = corpus.interval_retry()
    utrans = {key: (u.label[key], uset) for key, uset in u.utrans.items()}
    (s, a), (label, uset) = next(iter(utrans.items()))
    if defect == "undeclared-state":
        utrans[("nowhere", a)] = utrans.pop((s, a))
    elif defect == "undeclared-successor":
        utrans[(s, a)] = (label, VertexSet.dirac("nowhere"))
    else:
        utrans[(s, a)] = ("zz", uset)
    with pytest.raises(ValueError):
        make_rpa(u.states, u.initial, utrans, u.alphabet)


# ---------------------------------------------------------------------------
# PA-reduction against its first form
# ---------------------------------------------------------------------------

def test_frozen_vertex_behaves_as_its_plain_tuple():
    vertex = freeze_dist({"t": F(1, 3), ("s", 1): F(2, 3)})
    plain = (("t", F(1, 3)), (("s", 1), F(2, 3)))
    assert vertex == plain and hash(vertex) == hash(plain)
    assert sort_key(vertex) == sort_key(plain) and {plain: 1}[vertex] == 1
    assert pickle.loads(pickle.dumps(vertex)) == vertex
    u = make_rpa(["t", ("s", 1)], "t", {("t", "go"): ("a", VertexSet.of([dict(plain)]))}, {"a"})
    reduced = pa_reduce(u)
    assert reduced.actions == (("go", plain),)
    assert dump_document(reduced)["transitions"][0]["action"] == {"t": [
        "go", {"t": [{"t": ["t", {"q": "1/3"}]}, {"t": [{"t": ["s", 1]}, {"q": "2/3"}]}]}]}


def _same_model(got, want):
    assert (got.states, got.initial, got.alphabet) == (want.states, want.initial, want.alphabet)
    assert got.actions == want.actions
    assert got.trans == want.trans and got.label == want.label
    for s in want.states:
        assert got.enabled(s) == want.enabled(s)


@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=40)
def test_pa_reduce_matches_its_reference(seed):
    rng = random.Random(seed)
    u1 = random_polytopic_rpa(rng, "l", ["a", "b"], rng.randint(2, 4))
    u2 = random_polytopic_rpa(rng, "r", ["a", "c"], rng.randint(2, 4))
    conv = conv_compose(u1, u2)
    for u in (u1, u2, conv):
        _same_model(pa_reduce(u), pa_reduce_reference(u))
    # each composed set: the products of the generator dicts, frozen by `VertexSet.of`
    for key, pset in rpa_compose(u1, u2).utrans.items():
        prods = [{(t1, t2): p1 * p2 for t1, p1 in d1.items() for t2, p2 in d2.items()}
                 for d1 in generators(pset.left) for d2 in generators(pset.right)]
        assert conv.utrans[key].dists == VertexSet.of(prods).dists


# ---------------------------------------------------------------------------
# The four parallel compositions against their first form
# ---------------------------------------------------------------------------

def _renamed(rng, u, alphabet, single=False):
    """`u` over `alphabet` with states and actions renamed by `mixed_ids`;
    with `single`, a vertex set keeps its first vertex only, so that the
    interval relaxation accepts it."""
    states, actions = mixed_ids(rng, u.states), mixed_ids(rng, u.actions)

    def moved(uset):
        if isinstance(uset, IntervalSet):
            return IntervalSet.of({states[s]: b for s, b in uset.bounds})
        dists = uset.dists[:1] if single else uset.dists
        return VertexSet.of([{states[s]: p for s, p in d} for d in dists])

    utrans = {(states[s], actions[a]): (u.label[(s, a)], moved(uset))
              for (s, a), uset in u.utrans.items()}
    return make_rpa(list(states.values()), states[u.initial], utrans, alphabet)


def _same_composition(got, want):
    assert (got.states, got.initial, got.alphabet) == (want.states, want.initial, want.alphabet)
    assert got.actions == want.actions
    entries = (lambda m: m.trans) if isinstance(want, PPA) else (lambda m: m.utrans)
    assert [(k, list(e.items()) if isinstance(e, dict) else e) for k, e in entries(got).items()] \
        == [(k, list(e.items()) if isinstance(e, dict) else e) for k, e in entries(want).items()]
    assert list(got.label.items()) == list(want.label.items())


def _relax_bounds(uset):
    if isinstance(uset, IntervalSet):
        return dict(uset.bounds)
    (vertex,) = uset.dists
    return {s: (p, p) for s, p in vertex}


def _from_product_sets(u1, u2, combine):
    """The convex or relaxed composition as first written: `combine` applied
    to each product set of the reference exact composition."""
    ref = rpa_compose_reference(u1, u2)
    utrans = {key: (ref.label[key], combine(pset)) for key, pset in ref.utrans.items()}
    return make_rpa(ref.states, ref.initial, utrans, ref.alphabet)


def _conv_of(pset):
    return VertexSet.of([{(t1, t2): p1 * p2 for t1, p1 in d1.items() for t2, p2 in d2.items()}
                         for d1 in generators(pset.left) for d2 in generators(pset.right)])


def _relax_of(pset):
    return IntervalSet.of({(t1, t2): (lo1 * lo2, hi1 * hi2)
                           for t1, (lo1, hi1) in _relax_bounds(pset.left).items()
                           for t2, (lo2, hi2) in _relax_bounds(pset.right).items()})


@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=40)
def test_compositions_match_their_references(seed):
    # states and actions of mixed identifier types; "d" is in both alphabets
    # but only component 1 has d-transitions, so they have no partner
    rng = random.Random(seed)
    single = rng.random() < 0.5
    u1 = _renamed(rng, random_polytopic_rpa(rng, "l", ["a", "b", "d"], rng.randint(2, 4)),
                  {"a", "b", "d"}, single)
    u2 = _renamed(rng, random_polytopic_rpa(rng, "r", ["a", "c"], rng.randint(2, 4)),
                  {"a", "c", "d"}, single)
    _same_composition(rpa_compose(u1, u2), rpa_compose_reference(u1, u2))
    _same_composition(conv_compose(u1, u2), _from_product_sets(u1, u2, _conv_of))
    if single:
        _same_composition(interval_relax_compose(u1, u2),
                          _from_product_sets(u1, u2, _relax_of))
    for m1, m2 in ((pa_reduce(u1), pa_reduce(u2)), random_parametric_pair(rng)):
        _same_composition(compose(m1, m2), compose_reference(m1, m2))
    # an action named like a symbol of the other alphabet clashes in all four
    clash = make_rpa(["x"], "x", {("x", "c"): ("a", VertexSet.dirac("x"))}, {"a"})
    clash_pa = make_ppa(["x"], "x", (), {("x", "c"): ("a", {"x": 1})}, {"a"})
    interval_u2 = u2 if single else _renamed(rng, u2, u2.alphabet, True)
    for composition, left, right in ((rpa_compose, clash, u2), (conv_compose, clash, u2),
                                     (interval_relax_compose, clash, interval_u2),
                                     (compose, clash_pa, pa_reduce(u2))):
        with pytest.raises(ActionAlphabetClash):
            composition(left, right)


def test_conv_compose_never_enumerates_an_unmatched_set():
    # the d-transition synchronises but component 2 has no d-step, so its
    # product set (which has no finite generators) is never enumerated
    pset = ProductSet(VertexSet.dirac("s"), IntervalSet.of({"t": (1, 1)}))
    u1 = make_rpa([("s", "t")], ("s", "t"), {
        (("s", "t"), "go"): ("d", pset),
        (("s", "t"), "stay"): ("a", VertexSet.dirac(("s", "t"))),
    }, {"a", "d"})
    u2 = make_rpa(["y"], "y", {("y", "y_a"): ("a", IntervalSet.of({"y": (1, 1)}))}, {"a", "d"})
    conv = conv_compose(u1, u2)
    assert list(conv.utrans) == [((("s", "t"), "y"), ("stay", "y_a"))]
    partner = make_rpa(["y"], "y", {("y", "y_d"): ("d", VertexSet.dirac("y"))}, {"a", "d"})
    with pytest.raises(NonPolytopicComponent):
        conv_compose(u1, partner)
