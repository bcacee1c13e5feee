import itertools
import math
import random
from fractions import Fraction as F

import pytest

from pacomp import corpus
from pacomp.errors import (
    GeneratorBudgetExceeded,
    InfeasibleIntervalSet,
    NonPolytopicComponent,
)
from pacomp.exactlp import LinearProgram
from pacomp.model import compose, isomorphic
from pacomp.robust import (
    IntervalSet,
    ProductSet,
    VertexSet,
    conv_compose,
    fix_nature,
    generators,
    interval_extreme_points,
    interval_relax_compose,
    is_product_member,
    pa_reduce,
    rpa_compose,
    make_rpa,
)
from pacomp.verify import chain_language_prob, max_reach, safety, safety_prob

from helpers import (
    alphabet_extend_rpa,
    interval_extreme_points_by_orders,
    random_dist,
    random_polytopic_rpa,
)


def in_convex_hull(dist, gens):
    """Exact membership of a distribution in the convex hull of generators."""
    support = sorted({s for g in gens for s in g} | set(dist), key=repr)
    lp = LinearProgram(len(gens))
    for s in support:
        lp.add_eq(
            {i: g.get(s, F(0)) for i, g in enumerate(gens)},
            F(dist.get(s, F(0))),
        )
    lp.add_eq({i: F(1) for i in range(len(gens))}, F(1))
    feasible, _ = lp.feasible()
    return feasible


def test_interval_extreme_points_goldens():
    left = interval_extreme_points(
        IntervalSet.of({"s0": (0, F(1, 2)), "s1": (F(1, 2), 1)})
    )
    assert left == [{"s0": F(1, 2), "s1": F(1, 2)}, {"s1": F(1)}]
    right = interval_extreme_points(
        IntervalSet.of({"t1": (F(1, 10), F(9, 10)), "t2": (F(1, 10), F(9, 10))})
    )
    assert right == [
        {"t1": F(1, 10), "t2": F(9, 10)},
        {"t1": F(9, 10), "t2": F(1, 10)},
    ]


def test_interval_extreme_points_point_interval():
    got = interval_extreme_points(
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
        gens = interval_extreme_points(uset)
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


def _random_interval_bounds(rng, n, stratum):
    """Bounds around a random distribution on n successors.

    Strata: free widths; some point intervals; upper bounds summing to one;
    entries reaching 0 or 1.
    """
    states = [f"s{i}" for i in range(n)]
    weights = [rng.randint(0, 4) for _ in states]
    weights[rng.randrange(len(states))] += 1
    center = [F(w, sum(weights)) for w in weights]
    bounds = {}
    for s, p in zip(states, center):
        lo = max(F(0), p - F(rng.randint(0, 3), 10))
        hi = min(F(1), p + F(rng.randint(0, 3), 10))
        if stratum == 1 and rng.random() < 0.5:
            lo = hi = p
        elif stratum == 2:
            hi = p
        elif stratum == 3 and rng.random() < 0.5:
            lo, hi = rng.choice([(F(0), hi), (lo, F(1)), (F(0), F(1))])
        bounds[s] = (lo, hi)
    return bounds


def test_interval_extreme_points_match_the_order_oracle():
    rng = random.Random(17)
    for case in range(200):
        # the oracle walks all 5040 orders at support 7, so few sets have it
        n = 7 if case % 40 == 0 else rng.randint(1, 6)
        uset = IntervalSet.of(_random_interval_bounds(rng, n, case % 4))
        assert interval_extreme_points(uset) == interval_extreme_points_by_orders(uset)


@pytest.mark.parametrize("n", [8, 9, 10])
def test_symmetric_interval_vertices_beyond_support_seven(n):
    """Bounds [0, 1/k] on n successors: the C(n, k) k-subsets carrying 1/k."""
    states = [f"s{i}" for i in range(n)]
    for k in (1, 2, 3, n // 2, n - 1):
        gens = interval_extreme_points(IntervalSet.of({s: (0, F(1, k)) for s in states}))
        assert len(gens) == math.comb(n, k)
        assert all(sorted(g.values()) == [F(1, k)] * k for g in gens)


def test_interval_bounds_validated():
    with pytest.raises(InfeasibleIntervalSet):
        IntervalSet.of({"a": (F(3, 4), 1), "b": (F(1, 2), 1)})  # lower sum > 1
    with pytest.raises(InfeasibleIntervalSet):
        IntervalSet.of({"a": (0, F(1, 4)), "b": (0, F(1, 4))})  # upper sum < 1


def test_generator_cap():
    states = [f"s{i}" for i in range(8)]
    bounds = {s: (0, F(1, 2)) for s in states}
    with pytest.raises(GeneratorBudgetExceeded):
        interval_extreme_points(IntervalSet.of(bounds), cap=100)


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
    comp = rpa_compose(corpus.interval_retry(), corpus.interval_responder())
    pset = comp.utrans[(("s0", "t0"), ("s0_a", "t0_a"))]
    mu_conv = {
        ("s0", "t1"): F(27, 80),
        ("s0", "t2"): F(3, 80),
        ("s1", "t1"): F(29, 80),
        ("s1", "t2"): F(21, 80),
    }
    verdict, info = is_product_member(mu_conv, pset)
    assert verdict == "not-member"
    assert info["cell"] == ("s1", "t1")
    assert info["factored"] == F(9, 16)
    assert info["observed"] == F(29, 80)
    assert info["left_factor"]["s0"] == F(3, 8)

    mu12 = {("s1", "t1"): F(1, 10), ("s1", "t2"): F(9, 10)}
    mu12p = {
        ("s0", "t1"): F(9, 20),
        ("s0", "t2"): F(1, 20),
        ("s1", "t1"): F(9, 20),
        ("s1", "t2"): F(1, 20),
    }
    assert is_product_member(mu12, pset)[0] == "member"
    assert is_product_member(mu12p, pset)[0] == "member"
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
    assert len(red2.trans) == 1 and red2.const_dist("x", list(red2.actions)[0]) == {"x": F(1)}


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


# ---------------------------------------------------------------------------
# counterexample battery (exact values, with the component premises passing)
# ---------------------------------------------------------------------------

def _det_strategies(pa):
    decisions = [(s, pa.enabled(s)) for s in pa.states if pa.enabled(s)]
    from pacomp.semantics import MemorylessStrategy

    for combo in itertools.product(*(acts for _, acts in decisions)):
        yield MemorylessStrategy({s: {a: F(1)} for (s, _), a in zip(decisions, combo)})


def test_memoryless_nature_battery():
    u1, u2 = corpus.interval_retry(), corpus.interval_responder()
    trivial_ok = True  # assumption is the full language, trivially satisfied
    # premise on the responder: under every sampled memoryless nature,
    # including the analytic worst case q = 1/2, the bad prefix stays <= 1/4
    goal_dfa = corpus.acaf_prefix_dfa()
    for q in (F(1, 10), F(1, 4), F(1, 2), F(3, 4), F(9, 10)):
        pa = fix_nature(u2, {("t0", "t0_a"): {"t1": q, "t2": 1 - q}})
        value, _, _ = max_reach(*_bad(pa, goal_dfa))
        assert value == q * (1 - q) <= F(1, 4)
    # yet the composition admits a memoryless nature + strategy with
    # violation probability exactly 81/100
    composed = rpa_compose(u1, u2)
    nature = {
        (("s0", "t0"), ("s0_a", "t0_a")): {("s1", "t1"): F(9, 10), ("s1", "t2"): F(1, 10)},
        (("s1", "t0"), ("s1_a", "t0_a")): {("s1", "t1"): F(1, 10), ("s1", "t2"): F(9, 10)},
    }
    pa = fix_nature(composed, nature)
    sigma = corpus.priority_strategy(pa, priority=("a", "c", "fail"), fallback="b")
    assert 1 - chain_language_prob(pa, sigma, goal_dfa) == F(81, 100)
    assert trivial_ok


def _bad(pa, dfa):
    from pacomp.model import dfa_absorb_accepting, dfa_product

    product, bad = dfa_product(pa, dfa_absorb_accepting(dfa))
    return product, bad


def test_nonconvex_battery():
    u1p, u2p = corpus.half_retry(), corpus.two_point_responder()
    dfa = corpus.ab_prefix_dfa()
    # premise 1: the fifty-fifty component satisfies the 2/5 bound under
    # every strategy
    red1 = pa_reduce(u1p)
    for sigma in _det_strategies(red1):
        assert chain_language_prob(red1, sigma, dfa) >= F(2, 5)
    # premise 2 over memoryless deterministic strategies and the two vertex
    # natures: whenever the 2/5 assumption holds, the 4/5 guarantee follows
    for vertex in generators(u2p.utrans[("t0", "t0_a")]):
        pa = fix_nature(u2p, {("t0", "t0_a"): vertex})
        for sigma in _det_strategies(pa):
            val = chain_language_prob(pa, sigma, dfa)
            if val >= F(2, 5):
                assert val >= F(4, 5)
    # the composition still admits a violation of exactly 9/20
    composed = rpa_compose(u1p, u2p)
    nature = {
        (("s0", "t0"), ("s0_a", "t0_a")): {
            ("s0", "t1"): F(1, 20),
            ("s0", "t2"): F(9, 20),
            ("s1", "t1"): F(1, 20),
            ("s1", "t2"): F(9, 20),
        }
    }
    pa = fix_nature(composed, nature)
    sigma = corpus.priority_strategy(pa, priority=("a", "b"), fallback="fail")
    assert 1 - chain_language_prob(pa, sigma, dfa) == F(9, 20)
    assert chain_language_prob(pa, sigma, dfa) == F(11, 20) < F(4, 5)


def test_interval_relaxation_battery():
    u1, u2 = corpus.interval_retry(), corpus.interval_responder()
    dfa = corpus.no_c_dfa()
    # both premises pass on the reductions (assumption trivial; guarantee
    # bound 1/10 exact on the responder)
    assert safety_prob(pa_reduce(u2), safety(dfa, F(1, 10))) == F(1, 10)
    # the convex composition keeps the guarantee ...
    assert safety_prob(pa_reduce(conv_compose(u1, u2)), safety(dfa, F(1, 10))) == F(1, 10)
    # ... while the interval relaxation admits the displaced nature choice
    rel = interval_relax_compose(u1, u2)
    nature = {
        (("s0", "t0"), ("s0_a", "t0_a")): {
            ("s0", "t1"): F(1, 20),
            ("s1", "t1"): F(9, 10),
            ("s1", "t2"): F(1, 20),
        }
    }
    pa = fix_nature(rel, nature)
    sigma = corpus.priority_strategy(pa, priority=("a", "c"), fallback="fail")
    never_c = chain_language_prob(pa, sigma, dfa)
    assert 1 - never_c == F(19, 20)
    assert never_c == F(1, 20) < F(1, 10)


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
