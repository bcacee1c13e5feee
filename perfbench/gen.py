"""Seeded input generators owned by the benchmark.

They mirror the random generators of the test suite (same draws in the same
order, so one seed gives the same model), and live here so that later edits
to the tests cannot shift a workload.  Two variants go beyond the test
helpers: `random_pa(..., exit_state=True)` gives every distribution positive
mass on an action-free exit state, so no end component exists and reward
objectives stay bounded; `wide_interval_set` draws an interval set over a
fixed support size, which the test helper caps at three.
"""

from __future__ import annotations

import random
from fractions import Fraction

from pacomp.algebra import Polynomial
from pacomp.model import DFA, make_ppa
from pacomp.robust import IntervalSet, VertexSet, make_rpa


def random_dist(rng: random.Random, states, max_support=3, exit_state=None):
    support = rng.sample(states, k=min(len(states), rng.randint(1, max_support)))
    weights = [rng.randint(1, 4) for _ in support]
    if exit_state is not None:
        support.append(exit_state)
        weights.append(1)
    total = sum(weights)
    return {s: Fraction(w, total) for s, w in zip(support, weights)}


def random_pa(rng: random.Random, prefix, n_states, labels, max_actions=2,
              exit_state=False):
    states = [f"{prefix}{i}" for i in range(n_states)]
    exit_name = f"{prefix}x" if exit_state else None
    trans = {}
    for s in states:
        for k in range(rng.randint(1, max_actions)):
            lab = rng.choice(labels)
            act = f"{s}_{lab}_{k}"
            trans[(s, act)] = (lab, random_dist(rng, states, exit_state=exit_name))
    all_states = states + ([exit_name] if exit_state else [])
    return make_ppa(all_states, states[0], set(), trans, set(labels))


def random_parametric_pair(rng: random.Random, params=("p",)):
    """Two composable pPAs, well-defined on the unit box over `params`."""
    p = Polynomial.var(params[0])
    one = Polynomial.const(1)

    def build(prefix, labels, n_states):
        states = [f"{prefix}{i}" for i in range(n_states)]
        trans = {}
        for s in states:
            for k in range(rng.randint(1, 2)):
                lab = rng.choice(labels)
                act = f"{s}_{lab}_{k}"
                succ = rng.sample(states, k=min(len(states), 2))
                if len(succ) == 1 or rng.random() < 0.4:
                    trans[(s, act)] = (lab, {succ[0]: one})
                else:
                    trans[(s, act)] = (lab, {succ[0]: p, succ[1]: one - p})
        return make_ppa(states, states[0], set(params), trans, set(labels))

    m1 = build("l", ["a", "b"], rng.randint(2, 3))
    m2 = build("r", ["a", "c"], rng.randint(2, 3))
    return m1, m2


def random_safety_dfa(rng: random.Random, alphabet, n_states=2, allow_empty=True):
    states = [f"q{i}" for i in range(n_states)]
    trans = {
        (q, sym): rng.choice(states) for q in states for sym in alphabet
    }
    k = rng.randint(0 if allow_empty else 1, n_states - 1)
    accepting = frozenset(rng.sample(states[1:], k=k)) if k else frozenset()
    return DFA(tuple(states), states[0], frozenset(alphabet), trans, accepting)


def random_interval_set(rng: random.Random, states):
    center = random_dist(rng, states, max_support=min(3, len(states)))
    bounds = {}
    for s, p in center.items():
        lo = max(Fraction(0), p - Fraction(rng.randint(0, 2), 10))
        hi = min(Fraction(1), p + Fraction(rng.randint(0, 2), 10))
        bounds[s] = (lo, hi)
    return IntervalSet.of(bounds)


def wide_interval_set(rng: random.Random, n_support):
    """Interval set over exactly `n_support` successors around a random center."""
    states = [f"w{i}" for i in range(n_support)]
    weights = [rng.randint(1, 4) for _ in states]
    total = sum(weights)
    bounds = {}
    for s, w in zip(states, weights):
        p = Fraction(w, total)
        lo = max(Fraction(0), p - Fraction(rng.randint(0, 2), 20))
        hi = min(Fraction(1), p + Fraction(rng.randint(1, 2), 20))
        bounds[s] = (lo, hi)
    return IntervalSet.of(bounds)


def symmetric_interval_set(n_support, k):
    """Bounds [0, 1/k] on n successors: its vertices number C(n, k)."""
    return IntervalSet.of({f"w{i}": (0, Fraction(1, k)) for i in range(n_support)})


def random_vertex_set(rng: random.Random, states, max_dists=3):
    return VertexSet.of(
        [random_dist(rng, states) for _ in range(rng.randint(1, max_dists))]
    )


def random_polytopic_rpa(rng: random.Random, prefix, labels, n_states=3,
                         interval_only=False):
    states = [f"{prefix}{i}" for i in range(n_states)]
    utrans = {}
    for s in states:
        for k in range(rng.randint(1, 2)):
            lab = rng.choice(labels)
            act = f"{s}_{lab}_{k}"
            if interval_only or rng.random() < 0.5:
                uset = random_interval_set(rng, states)
            else:
                uset = random_vertex_set(rng, states)
            utrans[(s, act)] = (lab, uset)
    return make_rpa(states, states[0], utrans, set(labels))
