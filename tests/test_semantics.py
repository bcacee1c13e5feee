import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pacomp import corpus, modelio
from pacomp.errors import HorizonExceedsStrategyTable, NotComposedModel
from pacomp.model import compose, instantiate, prune_unreachable, tau_extend
from pacomp.semantics import (
    TabularStrategy,
    _mover,
    measure,
    path_project,
    strategy_project,
)

from helpers import (
    cyl_prob,
    enumerate_paths,
    lifted_paths,
    random_pa,
    random_parametric_pair,
    random_tabular_strategy,
    tabulate,
    union_cylinder_prob,
)

V = {"p": F(1, 10), "q": F(1, 10)}


def composed_instance():
    comp = compose(corpus.retry_component(), corpus.pipeline_component())
    return instantiate(comp, V)


def instance_parts():
    """The components of `composed_instance`, each instantiated at V."""
    return instantiate(corpus.retry_component(), V), instantiate(corpus.pipeline_component(), V)


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
    lifted = lifted_paths(("t0", "t0_a", "t2"), cv, instance_parts()[1], side=2, horizon=1)
    assert sorted(lifted) == sorted(
        [
            (cv.initial, ("s0_a", "t0_a"), ("s0", "t2")),
            (cv.initial, ("s0_a", "t0_a"), ("s1", "t2")),
        ]
    )


def test_lifted_paths_of_initial_component_path():
    cv = composed_instance()
    lifted = lifted_paths(("t0",), cv, instance_parts()[1], side=2, horizon=1)
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
        lifted = lifted_paths(pi, comp, right, side=2, horizon=2)
        assert len({path_project(x, comp, 2) for x in lifted}) <= 1
        # every lifted path has exactly the component path's length
        assert all(len(x) == len(pi) for x in lifted)


def test_projection_goldens():
    cv = composed_instance()
    sigma = corpus.priority_strategy(cv)
    proj = strategy_project(cv, sigma, side=2, horizon=6)
    # the paper suite's projection-* anchors state its entries; it is
    # partial: mass is lost to the branch where the other component blocks
    # the shared label forever
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


def _minimal_lift_sum(pm, comp, component, side, pi):
    own, total = set(component.actions), F(0)
    for path, prob in pm.probs.items():
        if path_project(path, comp, side) != pi:
            continue
        if len(path) == 1 or path[-2][side - 1] in own:
            total += prob
    return total


def test_measure_preservation_small():
    cv = composed_instance()
    sigma = tabulate(cv, corpus.priority_strategy(cv), 4)
    pm = measure(cv, sigma, 4)
    for side, component in zip((1, 2), instance_parts()):
        proj = strategy_project(cv, sigma, side, 4)
        seen = {path_project(p, cv, side) for p in pm.probs}
        for pi in sorted(seen):
            lhs = cyl_prob(component, proj, pi)
            rhs = _minimal_lift_sum(pm, cv, component, side, pi)
            assert lhs == rhs, (side, pi)


def _check_projection_definition(comp, parts, sigma, horizon):
    """Every projected entry at (pi, a) is sum_t U(pi a t) / U(pi), or 0 when
    U(pi) = 0, where U(x) is the measure of the union of the cylinders of the
    composed paths up to horizon + 1 that lift x; `comp` composes `parts`."""
    checked = 0
    for side, component in zip((1, 2), parts):
        proj = strategy_project(comp, sigma, side, horizon)
        lifted = {}

        def u(x):
            if x not in lifted:
                paths = lifted_paths(x, comp, component, side, horizon + 1)
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
    assert _check_projection_definition(cv, instance_parts(), corpus.priority_strategy(cv), 4) > 0
    rng = random.Random(29)
    for _ in range(20):
        left = random_pa(rng, "l", rng.randint(2, 4), ["a", "b"])
        right = random_pa(rng, "r", rng.randint(2, 4), ["a", "c"])
        comp = compose(left, right)
        horizon = rng.randint(2, 3)
        # tabulated one step deeper, so that a lift may end in a move made
        # after an idle step at the horizon
        sigma = random_tabular_strategy(rng, comp, horizon + 1, complete=rng.random() < 0.5)
        assert _check_projection_definition(comp, (left, right), sigma, horizon) > 0


def test_union_cylinder_prob_counts_minimal_paths_once():
    cv = composed_instance()
    sigma = tabulate(cv, corpus.priority_strategy(cv), 3)
    head = (cv.initial, ("s0_a", "t0_a"), ("s0", "t2"))
    nested = [head, head + (("s1_b", "b"), ("s0", "t2"))]  # prefix-nested pair
    assert union_cylinder_prob(cv, sigma, nested) == cyl_prob(cv, sigma, head)


def _compositions(rng):
    """A composed PA with its two components: of a random pair, parametric
    or not, nested on either side or pruned to its reachable part."""
    k = rng.randint(0, 4)
    if rng.random() < 0.5:
        left, right = (instantiate(m, {"p": F(k, 4)}) for m in random_parametric_pair(rng))
    else:
        left = random_pa(rng, "l", rng.randint(1, 3), ["a", "b"], zeros=True)
        right = random_pa(rng, "r", rng.randint(1, 3), ["a", "c"], zeros=True)
    third = random_pa(rng, "n", rng.randint(1, 2), ["b", "c", "d"])
    shape = rng.randrange(4)
    if shape == 1:
        left = compose(left, right)
        right = third
    elif shape == 2:
        right = compose(right, third)
    comp = compose(left, right)
    return (prune_unreachable(comp) if shape == 3 else comp), (left, right)


@settings(max_examples=40)
@given(st.integers(0, 2**32))
def test_step_names_decide_which_side_moves(seed):
    # a side moves in a composed step iff the step's part for that side is
    # one of its component's actions; a model read back from its own
    # document names its steps alike, so it projects alike
    rng = random.Random(seed)
    comp, parts = _compositions(rng)
    for side, component in zip((1, 2), parts):
        moves = _mover(comp, side)
        own = set(component.actions)
        assert all(moves(a) == (a[side - 1] in own) for a in comp.actions)
    loaded = modelio.load_document(modelio.dump_document(comp))
    horizon = rng.randint(1, 3)
    sigma = random_tabular_strategy(rng, comp, horizon + 1, complete=rng.random() < 0.5)
    for side in (1, 2):
        assert (strategy_project(loaded, sigma, side, horizon).table
                == strategy_project(comp, sigma, side, horizon).table)


def test_projecting_a_tau_extension_is_not_a_composition():
    # the tau sink and the tau action are no pairs: the extension is no
    # longer a composition, so it has no sides to project onto
    te = tau_extend(composed_instance())
    path = (te.initial, ("s0_a", "t0_a"), ("s1", "t2"), ("tau",), ("tau-sink",))
    for side in (1, 2):
        with pytest.raises(NotComposedModel):
            path_project(path, te, side)
        with pytest.raises(NotComposedModel):
            strategy_project(te, TabularStrategy({}, horizon=2), side, 2)
