"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

All expected values are exact rationals (tolerance zero).  Each criterion also
enforces its stated wall-clock budget.  A criterion about the bundled corpus
runs the paper suite's anchors that state it (`pacomp.paper_suite`), and each
anchor is also a test case of its own, named after it.
"""

import random
import time
from fractions import Fraction as F

import pytest

from pacomp import corpus, paper_suite
from pacomp.algebra import Box, FiniteRegion, region_samples
from pacomp.errors import SideConditionError
from pacomp.model import (
    alphabet_extend,
    compose,
    dfa_forbid_symbols,
    instantiate,
    make_ppa,
)
from pacomp.proofrules import (
    apply_asymmetric,
    apply_conjunction,
    apply_interleaving,
    apply_reward_sum,
    conjoin,
    interleaving_threshold,
)
from pacomp.robust import conv_compose, pa_reduce
from pacomp.semantics import measure, path_project, strategy_project
from pacomp.verify import ag_triple_check, region_sat, safety, safety_prob

from helpers import (
    cyl_prob,
    random_pa,
    random_polytopic_rpa,
    random_safety_dfa,
    tabulate,
)

ANCHORS = dict(paper_suite._anchors())


def report(criterion, ok, note=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {criterion}: {status} {note}".rstrip())
    return ok


class Budget:
    def __init__(self, seconds):
        self.limit = seconds
        self.start = time.monotonic()

    def check(self):
        elapsed = time.monotonic() - self.start
        assert elapsed < self.limit, f"budget exceeded: {elapsed:.1f}s >= {self.limit}s"
        return elapsed


@pytest.mark.parametrize("name", ANCHORS)
def test_paper_anchor(name):
    assert ANCHORS[name]() is True


def corpus_criterion(criterion, seconds, anchors):
    """A criterion about the bundled corpus: the paper-suite anchors that
    state it all pass within `seconds`."""
    budget = Budget(seconds)
    failed = [name for name in anchors if ANCHORS[name]() is not True]
    elapsed = budget.check()
    report(criterion, not failed, f"(anchors {', '.join(anchors)}; {elapsed:.2f}s)")
    assert not failed, f"failing anchors: {failed}"


def test_criterion_01_projection_goldens():
    corpus_criterion(1, 1, [name for name in ANCHORS if name.startswith("projection-")])


def test_criterion_02_measure_preservation_property():
    budget = Budget(120)
    rng = random.Random(2024)
    checked_models = 0
    checked_paths = 0
    while checked_models < 200:
        n1 = random_pa(rng, "l", rng.randint(2, 4), ["a", "b"], max_actions=2)
        n2 = random_pa(rng, "r", rng.randint(2, 4), ["a", "c"], max_actions=2)
        comp = compose(n1, n2)
        horizon = rng.randint(2, 4)
        sigma = tabulate(
            comp,
            random_tabular(rng, comp, horizon),
            horizon,
        )
        pm = measure(comp, sigma, horizon)
        if len(pm.probs) > 4000:
            continue
        checked_models += 1
        comp_actions = [set(n1.actions), set(n2.actions)]
        for side in (1, 2):
            proj = strategy_project(comp, sigma, side, horizon)
            component = (n1, n2)[side - 1]
            # group the support by projections; prefix-minimal members are
            # exactly those whose last step moves this component
            sums = {}
            for path, prob in pm.probs.items():
                pi = path_project(path, comp, side)
                if len(path) == 1 or path[-2][side - 1] in comp_actions[side - 1]:
                    sums[pi] = sums.get(pi, F(0)) + prob
                else:
                    sums.setdefault(pi, F(0))
            for pi, lifted_sum in sums.items():
                lhs = cyl_prob(component, proj, pi)
                assert lhs == lifted_sum, (side, pi)
                checked_paths += 1
    elapsed = budget.check()
    report(
        2,
        True,
        f"(200 compositions, {checked_paths} component paths, exact; {elapsed:.1f}s)",
    )


def random_tabular(rng, pa, horizon):
    from helpers import random_tabular_strategy

    return random_tabular_strategy(rng, pa, horizon, complete=rng.random() < 0.5)


def test_criterion_03_solution_function_golden():
    corpus_criterion(3, 5, ["solution-function-grid"])


def test_criterion_04_asymmetric_rule_reproduction():
    corpus_criterion(4, 10, ["asymmetric-rule-demo"])


def test_criterion_05_monotonicity_rule():
    corpus_criterion(5, 30, ["monotonicity-rule-demo"])


def test_criterion_06_nonconvexity_witness():
    corpus_criterion(6, 1, ["nonconvex-witness"])


def test_criterion_07_counterexample_battery():
    corpus_criterion(7, 5, ["memoryless-nature-violation", "nonconvex-violation",
                            "interval-relaxation-violation"])


def test_criterion_08_reduction_commutation():
    budget = Budget(120)
    rng = random.Random(88)
    dfa_rng = random.Random(89)
    pairs = [(corpus.interval_retry(), corpus.interval_responder())]
    while len(pairs) < 51:
        pairs.append(
            (
                random_polytopic_rpa(rng, "u", ["a", "b"], n_states=rng.randint(2, 3)),
                random_polytopic_rpa(rng, "w", ["a", "c"], n_states=rng.randint(2, 3)),
            )
        )
    objectives_checked = 0
    for u1, u2 in pairs:
        left = pa_reduce(conv_compose(u1, u2))
        right = compose(pa_reduce(u1), pa_reduce(u2))
        alphabet = sorted(u1.alphabet | u2.alphabet)
        for _ in range(2):
            dfa = random_safety_dfa(dfa_rng, alphabet, allow_empty=False)
            obj = safety(dfa, F(1, 2))
            assert safety_prob(left, obj) == safety_prob(right, obj)
            objectives_checked += 1
    elapsed = budget.check()
    report(8, True, f"(51 pairs, {objectives_checked} objectives, exact; {elapsed:.1f}s)")


def test_criterion_09_simulation_goldens():
    corpus_criterion(9, 10, ["simulation-goldens", "robust-simulation-contrast"])


def test_criterion_10_rule_engine_soundness_regression():
    budget = Budget(300)
    rng = random.Random(777)
    concluded = 0
    contradictions = 0
    attempts = 0
    while concluded < 100 and attempts < 400:
        attempts += 1
        kind = rng.choice(["asym", "asym", "asym", "conj", "inter", "reward"])
        if kind == "asym":
            ok = _random_asymmetric_app(rng)
        elif kind == "conj":
            ok = _random_conjunction_app(rng)
        elif kind == "inter":
            ok = _random_interleaving_app(rng)
        else:
            ok = _random_reward_sum_app(rng)
        if ok is None:
            continue
        concluded += 1
        if not ok:
            contradictions += 1
    assert concluded >= 100, f"only {concluded} concluded applications"
    assert contradictions == 0

    # side-condition fuzzing: violated inclusions must raise, never conclude
    caught = 0
    for _ in range(20):
        m1 = random_pa(rng, "l", 2, ["a", "b"])
        m2 = random_pa(rng, "r", 2, ["a", "c"])
        stray = (safety(random_safety_dfa(rng, ["a", "z"], allow_empty=False), F(1, 2)),)
        goal = (safety(random_safety_dfa(rng, ["a", "c"], allow_empty=False), F(1, 2)),)
        region = FiniteRegion.of([{}])
        try:
            apply_asymmetric(m1, m2, region, region, stray, goal)
        except SideConditionError:
            caught += 1
    assert caught == 20
    elapsed = budget.check()
    report(
        10,
        True,
        f"({concluded} concluding applications, 0 contradictions, "
        f"{caught} fuzzed violations caught; {elapsed:.1f}s)",
    )


def _sampled_min_safety(m, region, dfa):
    values = []
    for v in region_samples(region, 1):
        values.append(safety_prob(instantiate(m, v), safety(dfa, 1)))
    return min(values)


def _random_asymmetric_app(rng):
    if rng.random() < 0.35:
        # parametric components over a box region with several samples
        from helpers import random_parametric_pair

        m1, m2 = random_parametric_pair(rng)
        region = Box.of({"p": (0, 1)})
    else:
        m1 = random_pa(rng, "l", 2, ["a", "b"])
        m2 = random_pa(rng, "r", 2, ["a", "c"])
        region = FiniteRegion.of([{}])
    a_dfa = random_safety_dfa(rng, ["a", "b"], allow_empty=False)
    g_dfa = random_safety_dfa(rng, ["a", "c"], allow_empty=False)
    thr_a = _sampled_min_safety(m1, region, a_dfa)
    A = (safety(a_dfa, thr_a),)
    ext = alphabet_extend(m2, {"a", "b"})
    candidates = sorted(
        {F(k, 8) for k in range(9)} | {_sampled_min_safety(ext, region, g_dfa)},
        reverse=True,
    )
    guarantee = None
    for g in candidates:
        if ag_triple_check(ext, region, A, (safety(g_dfa, g),), "prt").holds:
            guarantee = (safety(g_dfa, g),)
            break
    if guarantee is None:
        return None
    app = apply_asymmetric(m1, m2, region, region, A, guarantee)
    if not app.concluded:
        return None
    direct = region_sat(compose(m1, m2), region, guarantee, "cmp")
    return direct.holds


def _random_conjunction_app(rng):
    m = random_pa(rng, "m", 2, ["a", "b"])
    region = FiniteRegion.of([{}])
    dfa1 = random_safety_dfa(rng, ["a", "b"], allow_empty=False)
    dfa2 = random_safety_dfa(rng, ["a", "b"], allow_empty=False)
    g1 = (safety(dfa1, _sampled_min_safety(m, region, dfa1)),)
    g2 = (safety(dfa2, _sampled_min_safety(m, region, dfa2)),)
    trivial = (safety(dfa_forbid_symbols((), {"a", "b"}), 1),)
    app = apply_conjunction(m, region, region, trivial, g1, trivial, g2)
    if not app.concluded:
        return None
    direct = ag_triple_check(
        m, region, conjoin(trivial, trivial), conjoin(g1, g2), "prt"
    )
    return direct.holds


def _random_interleaving_app(rng):
    m1 = random_pa(rng, "l", 2, ["a", "b"])
    m2 = random_pa(rng, "r", 2, ["c", "d"])
    region = FiniteRegion.of([{}])
    dfa1 = random_safety_dfa(rng, ["a", "b"], allow_empty=False)
    dfa2 = random_safety_dfa(rng, ["c", "d"], allow_empty=False)
    p1 = _sampled_min_safety(m1, region, dfa1)
    p2 = _sampled_min_safety(m2, region, dfa2)
    trivial1 = (safety(dfa_forbid_symbols((), {"a", "b"}), 1),)
    trivial2 = (safety(dfa_forbid_symbols((), {"c", "d"}), 1),)
    app = apply_interleaving(
        m1, m2, region, region, trivial1, trivial2, dfa1, p1, dfa2, p2
    )
    if not app.concluded:
        return None
    combined = app.conclusion["guarantee"]
    assert app.conclusion["threshold"] == interleaving_threshold(p1, p2)
    direct = ag_triple_check(
        compose(m1, m2), region, conjoin(trivial1, trivial2), combined, "prt"
    )
    return direct.holds


def _random_reward_sum_app(rng):
    from pacomp.verify import exp_total_reward

    one = F(1)

    def terminating_chain(prefix, labels):
        states = [f"{prefix}0", f"{prefix}1"]
        trans = {
            (states[0], f"{prefix}_step"): (labels[0], {states[1]: one}),
            (states[1], f"{prefix}_idle"): (labels[1], {states[1]: one}),
        }
        return make_ppa(states, states[0], set(), trans, set(labels))

    m1 = terminating_chain("l", ["a", "b"])
    m2 = terminating_chain("r", ["c", "d"])
    region = FiniteRegion.of([{}])
    rw1 = {"a": F(rng.randint(0, 6), rng.randint(1, 4))}
    rw2 = {"c": F(rng.randint(0, 6), rng.randint(1, 4))}
    thr1 = exp_total_reward(m1, rw1, "max")
    thr2 = exp_total_reward(m2, rw2, "max")
    trivial1 = (safety(dfa_forbid_symbols((), {"a", "b"}), 1),)
    trivial2 = (safety(dfa_forbid_symbols((), {"c", "d"}), 1),)
    app = apply_reward_sum(
        m1, m2, region, region, trivial1, trivial2, rw1, thr1, rw2, thr2, cmp="<="
    )
    if not app.concluded:
        return None
    assert app.conclusion["threshold"] == thr1 + thr2
    combined = app.conclusion["guarantee"]
    direct = ag_triple_check(
        compose(m1, m2), region, conjoin(trivial1, trivial2), combined, "prt"
    )
    return direct.holds
