import random
from fractions import Fraction as F

import pytest

from pacomp import corpus
from pacomp.errors import HorizonExceedsStrategyTable, NotComposedModel
from pacomp.model import compose, instantiate
from pacomp.semantics import TabularStrategy, measure, path_project, strategy_project

from helpers import (
    cyl_prob,
    enumerate_paths,
    lifted_paths,
    random_pa,
    random_tabular_strategy,
    tabulate,
    union_cylinder_prob,
)

V = {"p": F(1, 10), "q": F(1, 10)}


def composed_instance():
    comp = compose(corpus.retry_component(), corpus.pipeline_component())
    return instantiate(comp, V)


def test_measure_two_step_golden():
    m2 = instantiate(corpus.pipeline_component(), V)
    sigma = corpus.priority_strategy(m2)
    pm = measure(m2, tabulate(m2, sigma, 2), 2)
    assert pm.prob(("t0", "t0_a", "t2", "t2_c", "t3")) == F(1, 100)
    assert pm.prob(("t0", "t0_a", "t2", "t2_c", "t4")) == F(9, 100)


def test_measure_empty_strategy():
    m2 = instantiate(corpus.pipeline_component(), V)
    pm = measure(m2, TabularStrategy({}, horizon=0), 3)
    assert pm.prob((m2.initial,)) == 1
    assert all(p == 0 for path, p in pm.probs.items() if len(path) > 1)
    assert pm.stopped[(m2.initial,)] == 1


def test_measure_mass_conservation():
    rng = random.Random(13)
    for _ in range(20):
        pa = random_pa(rng, "n", 3, ["a", "b"])
        sigma = random_tabular_strategy(rng, pa, 3, complete=rng.random() < 0.5)
        pm = measure(pa, sigma, 3)
        frontier = sum(
            (p for path, p in pm.probs.items() if (len(path) - 1) // 2 == 3),
            F(0),
        )
        stopped = sum(pm.stopped.values(), F(0))
        assert frontier + stopped == 1


def test_measure_requires_table_depth():
    m2 = instantiate(corpus.pipeline_component(), V)
    sigma = tabulate(m2, corpus.priority_strategy(m2), 2)
    with pytest.raises(HorizonExceedsStrategyTable):
        measure(m2, sigma, 3)


def test_path_project_examples():
    cv = composed_instance()
    sync = (cv.initial, ("s0_a", "t0_a"), ("s1", "t2"))
    assert path_project(sync, cv, 2) == ("t0", "t0_a", "t2")
    assert path_project(sync, cv, 1) == ("s0", "s0_a", "s1")
    idle = sync + (("s1_b", "b"), ("s1", "t2"))
    assert path_project(idle, cv, 2) == ("t0", "t0_a", "t2")
    # non-injective: the two paths above project to the same component-2 path
    assert path_project(idle, cv, 2) == path_project(sync, cv, 2)


def test_path_project_requires_composition_metadata():
    m2 = instantiate(corpus.pipeline_component(), V)
    with pytest.raises(NotComposedModel):
        path_project(("t0",), m2, 1)


def test_lifted_paths_golden():
    cv = composed_instance()
    lifted = lifted_paths(("t0", "t0_a", "t2"), cv, side=2, horizon=1)
    assert sorted(lifted) == sorted(
        [
            (cv.initial, ("s0_a", "t0_a"), ("s0", "t2")),
            (cv.initial, ("s0_a", "t0_a"), ("s1", "t2")),
        ]
    )


def test_lifted_paths_of_initial_component_path():
    cv = composed_instance()
    lifted = lifted_paths(("t0",), cv, side=2, horizon=1)
    # the composed initial path plus every one-step asynchronous component-1 move
    assert (cv.initial,) in lifted
    assert all(
        path == (cv.initial,) or path[1][1] not in {"t0_a", "t1_a", "t2_c", "t3_f", "t4_c"}
        for path in lifted
    )


def test_fully_synchronized_lifting_is_injective():
    left = random_pa(random.Random(1), "l", 2, ["a"])
    right = random_pa(random.Random(2), "r", 2, ["a"])
    comp = compose(left, right)
    for pi in enumerate_paths(right, 2):
        lifted = lifted_paths(pi, comp, side=2, horizon=2)
        assert len({path_project(x, comp, 2) for x in lifted}) <= 1
        # every lifted path has exactly the component path's length
        assert all(len(x) == len(pi) for x in lifted)


def test_projection_goldens():
    cv = composed_instance()
    sigma = corpus.priority_strategy(cv)
    proj = strategy_project(cv, sigma, side=2, horizon=6)
    assert proj.mass(("t0",), "t0_a") == 1
    assert proj.mass(("t0", "t0_a", "t2"), "t2_c") == F(1, 10)
    assert proj.mass(("t0", "t0_a", "t1"), "t1_a") == F(1, 10)
    # the projection is partial: mass is lost to the branch where the other
    # component blocks the shared label forever
    assert sum(proj.dist(("t0", "t0_a", "t2")).values(), F(0)) < 1
    # and non-memoryless: same state, different histories, different choices;
    # after the c-route the shared c is surely still enabled, after the
    # a-route it survives only on the branch that kept the partner in s0
    a = proj.mass(("t0", "t0_a", "t2", "t2_c", "t4"), "t4_c")
    b = proj.mass(("t0", "t0_a", "t1", "t1_a", "t4"), "t4_c")
    assert a == 1 and b == F(1, 10) and a != b


def test_projection_dependent_valuations():
    m1, m2 = corpus.retry_component(), corpus.pipeline_component()
    lo = {"p": F(1, 10), "q": F(1, 10)}
    hi = {"p": F(9, 10), "q": F(9, 10)}
    mixed = compose(instantiate(m1, lo), instantiate(m2, hi))
    same = compose(instantiate(m1, lo), instantiate(m2, lo))
    proj_mixed = strategy_project(mixed, corpus.priority_strategy(mixed), 2, 6)
    proj_same = strategy_project(same, corpus.priority_strategy(same), 2, 6)
    for path in (("t0",), ("t0", "t0_a", "t2"), ("t0", "t0_a", "t1")):
        assert proj_mixed.dist(path) == proj_same.dist(path)


def test_projection_valuation_independence():
    # a graph-preserving change of one side's own valuation leaves the
    # projection onto that side unchanged, entrywise
    m1, m2 = corpus.retry_component(), corpus.pipeline_component()
    v2 = {"p": F(1, 3), "q": F(2, 5)}
    for v1a, v1b in (
        ({"p": F(1, 5)}, {"p": F(4, 5)}),
        ({"p": F(1, 3)}, {"p": F(1, 7)}),
    ):
        base = compose(instantiate(m1, v1a), instantiate(m2, v2))
        alt = compose(instantiate(m1, v1b), instantiate(m2, v2))
        sig_base = tabulate(base, corpus.priority_strategy(base), 4)
        sig_alt = tabulate(alt, corpus.priority_strategy(alt), 4)
        p_base = strategy_project(base, sig_base, 1, 4)
        p_alt = strategy_project(alt, sig_alt, 1, 4)
        assert p_base.table == p_alt.table


def _minimal_lift_sum(pm, comp, side, pi):
    total = F(0)
    for path, prob in pm.probs.items():
        if path_project(path, comp, side) != pi:
            continue
        if len(path) == 1 or path[-2][side - 1] in _component_actions(comp, side):
            total += prob
    return total


def _component_actions(comp, side):
    return set(comp.composed_of[side - 1].actions)


def test_measure_preservation_small():
    cv = composed_instance()
    sigma = tabulate(cv, corpus.priority_strategy(cv), 4)
    pm = measure(cv, sigma, 4)
    for side in (1, 2):
        proj = strategy_project(cv, sigma, side, 4)
        component = cv.composed_of[side - 1]
        seen = {path_project(p, cv, side) for p in pm.probs}
        for pi in sorted(seen):
            lhs = cyl_prob(component, proj, pi)
            rhs = _minimal_lift_sum(pm, cv, side, pi)
            assert lhs == rhs, (side, pi)


def _check_projection_definition(comp, sigma, horizon):
    """Every projected entry at (pi, a) is sum_t U(pi a t) / U(pi), or 0 when
    U(pi) = 0, where U(x) is the measure of the union of the cylinders of the
    composed paths up to horizon + 1 that lift x."""
    checked = 0
    for side in (1, 2):
        component = comp.composed_of[side - 1]
        proj = strategy_project(comp, sigma, side, horizon)
        lifted = {}

        def u(x):
            if x not in lifted:
                paths = lifted_paths(x, comp, side, horizon + 1)
                lifted[x] = union_cylinder_prob(comp, sigma, paths)
            return lifted[x]

        histories = enumerate_paths(component, horizon - 1)
        assert set(proj.table) <= set(histories)
        for pi in histories:
            last = pi[-1]
            for a in component.enabled(last):
                numer = sum((u(pi + (a, t)) for t in component.trans[(last, a)]), F(0))
                want = numer / u(pi) if u(pi) else F(0)
                assert proj.mass(pi, a) == want, (side, pi, a)
                checked += 1
    return checked


def test_projection_matches_its_definition():
    cv = composed_instance()
    assert _check_projection_definition(cv, corpus.priority_strategy(cv), 4) > 0
    rng = random.Random(29)
    for _ in range(20):
        left = random_pa(rng, "l", rng.randint(2, 4), ["a", "b"])
        right = random_pa(rng, "r", rng.randint(2, 4), ["a", "c"])
        comp = compose(left, right)
        horizon = rng.randint(2, 3)
        # tabulated one step deeper, so that a lift may end in a move made
        # after an idle step at the horizon
        sigma = random_tabular_strategy(rng, comp, horizon + 1, complete=rng.random() < 0.5)
        assert _check_projection_definition(comp, sigma, horizon) > 0


def test_union_cylinder_prob_counts_minimal_paths_once():
    cv = composed_instance()
    sigma = tabulate(cv, corpus.priority_strategy(cv), 3)
    head = (cv.initial, ("s0_a", "t0_a"), ("s0", "t2"))
    nested = [head, head + (("s1_b", "b"), ("s0", "t2"))]  # prefix-nested pair
    assert union_cylinder_prob(cv, sigma, nested) == cyl_prob(cv, sigma, head)

