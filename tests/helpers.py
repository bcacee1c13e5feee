"""Random generators and small oracles shared by the test modules."""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction

import networkx as nx

from pacomp import corpus
from pacomp.algebra import (
    Box,
    FiniteRegion,
    Polynomial,
    PolyTable,
    parse_rational,
    poly_eval,
    region_samples,
    require_total,
    valuation_key,
)
from pacomp.errors import (
    ActionAlphabetClash,
    EmptyRegion,
    GeneratorBudgetExceeded,
    IllDefinedValuationInRegion,
    InfeasibleIntervalSet,
    ParseError,
)
from pacomp.exactlp import OPTIMAL, LinearProgram, _int_row
from pacomp.model import (
    DFA,
    WellDefinedness,
    dfa_forbid_symbols,
    instantiate,
    make_ppa,
    sort_key,
    tau_extend,
)
from pacomp.robust import (
    RPA,
    IntervalSet,
    ProductSet,
    VertexSet,
    freeze_dist,
    generators,
    make_rpa,
)
from pacomp.semantics import MemorylessStrategy, TabularStrategy, _walk, path_last, path_len
from pacomp.verify import (
    INF,
    ProbObjective,
    RewardObjective,
    Verdict,
    _MoQuery,
    _settle,
    enumerate_memoryless,
    mo_achievable,
    safety,
)


def random_dist(rng: random.Random, states, max_support=3):
    support = rng.sample(states, k=min(len(states), rng.randint(1, max_support)))
    weights = [rng.randint(1, 4) for _ in support]
    total = sum(weights)
    return {s: Fraction(w, total) for s, w in zip(support, weights)}


def random_poly(rng: random.Random):
    """A polynomial over p, q, r of up to five terms, of total degree at most
    4, with small rational coefficients (a zero coefficient drops its term)."""
    terms = {}
    for _ in range(rng.randint(1, 5)):
        mono = []
        total = 0
        for v in ("p", "q", "r"):
            e = rng.randint(0, 4 - total)
            total += e
            if e:
                mono.append((v, e))
        terms[tuple(mono)] = Fraction(rng.randint(-4, 4), rng.randint(1, 5))
    return Polynomial(terms)


def random_region(rng: random.Random):
    """A box, a finite region or the empty finite region over `p`, with
    endpoints in quarters, so that parts often share points."""
    kind = rng.randrange(3)
    if kind == 0:
        lo, hi = sorted(Fraction(rng.randint(0, 4), 4) for _ in range(2))
        return Box.of({"p": (lo, hi)})
    if kind == 1:
        return FiniteRegion.of([{"p": Fraction(rng.randint(0, 4), 4)}
                                for _ in range(rng.randint(1, 3))])
    return FiniteRegion(())


def random_pa(rng: random.Random, prefix, n_states, labels, max_actions=2, zeros=False):
    """A random PA.  With `zeros`, about half of its distributions also have
    an entry of probability 0, as instantiating a pPA at a corner of its
    parameter box leaves them: a successor whose mass moved to another one,
    or a successor without mass."""
    states = [f"{prefix}{i}" for i in range(n_states)]
    trans = {}
    for s in states:
        for k in range(rng.randint(1, max_actions)):
            lab = rng.choice(labels)
            act = f"{s}_{lab}_{k}"
            dist = random_dist(rng, states)
            if zeros and rng.random() < 0.5:
                t = rng.choice(states)
                if t not in dist:
                    dist[t] = Fraction(0)
                elif len(dist) > 1:
                    other = rng.choice([u for u in dist if u != t])
                    dist[other] += dist[t]
                    dist[t] = Fraction(0)
            trans[(s, act)] = (lab, dist)
    return make_ppa(states, states[0], set(), trans, set(labels))


def successor_sets(pa):
    """{(s, a): successors with nonzero probability} of a parameter-free model."""
    return {key: frozenset(t for t, p in dist.items() if p) for key, dist in pa.trans.items()}


def end_component_keys_reference(succ):
    """The keys (s, a) of the successor-set map `succ` that lie in some end
    component, by brute force over every state subset: the union of the
    allowed keys (those whose successors stay inside the subset) of each
    subset in which every state has an allowed key and every state reaches
    every other along them."""
    states = sorted({s for s, _ in succ}, key=sort_key)
    found = set()
    for size in range(1, len(states) + 1):
        for subset in itertools.combinations(states, size):
            inside = set(subset)
            allowed = {key for key in succ if key[0] in inside and succ[key] <= inside}
            edges = {s: set() for s in inside}
            for s, a in allowed:
                edges[s] |= succ[(s, a)]

            def reached(s):
                seen, stack = {s}, [s]
                while stack:
                    for t in edges[stack.pop()] - seen:
                        seen.add(t)
                        stack.append(t)
                return seen

            if {s for s, _ in allowed} == inside and all(reached(s) == inside for s in inside):
                found |= allowed
    return found


class RationalLP(LinearProgram):
    """A `LinearProgram` built from rows of exact rationals (ints or
    Fractions) {column: value}, each converted once to the integer form the
    simplex stores (`_int_row`): the builder of the LP oracles."""

    def _add(self, rows, coeffs: dict, rhs, slack=None):
        entries, rhs = dict(coeffs), Fraction(rhs)
        if slack is not None:
            entries[slack] = 1
        if rhs < 0:
            entries, rhs = {j: -v for j, v in entries.items()}, -rhs
        rows.append(_int_row(entries, rhs))

    def add_eq(self, coeffs: dict, rhs):
        self._add(self.eq, coeffs, rhs)

    def add_ub(self, coeffs: dict, rhs):
        self._add(self.ub, coeffs, rhs, self.num_vars + len(self.ub))

    def add_lb(self, coeffs: dict, rhs):
        self.add_ub({k: -v for k, v in coeffs.items()}, -Fraction(rhs))

    def feasible(self):
        status, x, _ = self.solve({}, maximize=True)
        return status == OPTIMAL, x


def occupation_rows_reference(rows, point):
    """`verify._lp_at` as it was before the sampled LPs were filled as
    integer rows: the ("eq" | "ub" | "lb", template, rhs) rows of a layout
    filled at the table vector point = (D, nums) in Fractions (the old
    `_values` and `_fill`), as the rational (eq, ub) rows ({column:
    coefficient}, rhs) of coeffs.x = rhs and coeffs.x <= rhs."""
    den, nums = point
    values = [Fraction(n, den) for n in nums]
    eq, ub = [], []
    for kind, form, rhs in rows:
        coeffs = {}
        for j, (c, plus, minus) in form.items():
            coeffs[j] = Fraction(c) + sum((values[k] for k in plus), Fraction(0)) - sum(
                (values[k] for k in minus), Fraction(0))
        rhs = Fraction(rhs)
        if kind == "lb":
            coeffs, rhs = {j: -v for j, v in coeffs.items()}, -rhs
        (eq if kind == "eq" else ub).append((coeffs, rhs))
    return eq, ub


def tableau_reference(num_vars, eq, ub):
    """The initial simplex rows (row, den) that `LinearProgram.solve` laid
    out from rational rows before it stored integer rows: the variables, one
    slack per `ub` row, then the rhs; negated when the rhs is negative;
    scaled by the lcm of the denominators (the old `_int_row`)."""
    total = num_vars + len(ub)
    slacks = [None] * len(eq) + list(range(num_vars, total))
    out = []
    for (coeffs, rhs), slack in zip(eq + ub, slacks):
        entries = dict(coeffs)
        if slack is not None:
            entries[slack] = Fraction(1)
        entries[total] = rhs
        if rhs < 0:
            entries = {j: -v for j, v in entries.items()}
        den = math.lcm(1, *(v.denominator for v in entries.values()))
        row = [0] * (total + 1)
        for j, v in entries.items():
            row[j] = v.numerator * (den // v.denominator)
        out.append((row, den))
    return out


def mixed_ids(rng: random.Random, names):
    """A distinct identifier of mixed type for each name: the name itself, an
    int, a non-integral Fraction or a tuple."""
    forms = (lambda i, x: x, lambda i, x: i, lambda i, x: Fraction(2 * i + 1, 2),
             lambda i, x: (x, i))
    return {x: rng.choice(forms)(i, x) for i, x in enumerate(names)}


def renamed_ppa(rng: random.Random, m):
    """The pPA m with its states and actions renamed by `mixed_ids`."""
    states, actions = mixed_ids(rng, m.states), mixed_ids(rng, m.actions)
    trans = {(states[s], actions[a]): (m.label[(s, a)], {states[t]: p for t, p in dist.items()})
             for (s, a), dist in m.trans.items()}
    return make_ppa(list(states.values()), states[m.initial], m.params, trans, m.alphabet)


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
        (q, sym): rng.choice(states) for q in states for sym in sorted(alphabet)
    }
    k = rng.randint(0 if allow_empty else 1, n_states - 1)
    accepting = frozenset(rng.sample(states[1:], k=k)) if k else frozenset()
    return DFA(tuple(states), states[0], frozenset(alphabet), trans, accepting)


def random_tabular_strategy(rng: random.Random, pa, horizon, complete=False):
    """Tabulate random subdistributions over the positive-measure histories."""
    table = {}
    frontier = {(pa.initial,)}
    for _ in range(horizon):
        nxt = set()
        for path in sorted(frontier, key=sort_key):
            acts = pa.enabled(path_last(path))
            if not acts:
                continue
            chosen = rng.sample(acts, k=rng.randint(1, len(acts)))
            weights = [rng.randint(1, 3) for _ in chosen]
            total = sum(weights)
            if not complete and rng.random() < 0.4:
                total += rng.randint(1, 3)  # leave stopping mass
            dist = {a: Fraction(w, total) for a, w in zip(chosen, weights)}
            table[path] = dist
            for a in chosen:
                for t, prob in pa.dist(path_last(path), a).items():
                    if prob:
                        nxt.add(path + (a, t))
        frontier = nxt
    return TabularStrategy(table, horizon, complete=complete)


def random_memoryless_strategy(rng: random.Random, m):
    """A random memoryless strategy of m: at nearly every state a subdistribution
    over some enabled actions, which may leave stopping mass."""
    choice = {}
    for s in m.states:
        acts = m.enabled(s)
        if not acts or rng.random() < 0.1:
            continue
        chosen = rng.sample(acts, k=rng.randint(1, len(acts)))
        weights = [rng.randint(1, 3) for _ in chosen]
        total = sum(weights) + (rng.randint(1, 2) if rng.random() < 0.3 else 0)
        choice[s] = {a: Fraction(w, total) for a, w in zip(chosen, weights)}
    return MemorylessStrategy(choice, complete=False)


def tabulate(m, sigma, horizon: int) -> TabularStrategy:
    """Tabulate a strategy on the positive-measure histories up to `horizon`."""
    table = {}
    for path in _walk(m, sigma, horizon)[0]:
        dist = sigma.dist(path)
        if dist and path_len(path) < horizon:
            table[path] = dict(dist)
    return TabularStrategy(table, horizon, getattr(sigma, "complete", False))


def random_interval_set(rng: random.Random, states):
    center = random_dist(rng, states, max_support=min(3, len(states)))
    bounds = {}
    for s, p in center.items():
        lo = max(Fraction(0), p - Fraction(rng.randint(0, 2), 10))
        hi = min(Fraction(1), p + Fraction(rng.randint(0, 2), 10))
        bounds[s] = (lo, hi)
    return IntervalSet.of(bounds)


def random_vertex_set(rng: random.Random, states, max_dists=3):
    return VertexSet.of(
        [random_dist(rng, states) for _ in range(rng.randint(1, max_dists))]
    )


def random_polytopic_rpa(rng: random.Random, prefix, labels, n_states=3):
    states = [f"{prefix}{i}" for i in range(n_states)]
    utrans = {}
    for s in states:
        for k in range(rng.randint(1, 2)):
            lab = rng.choice(labels)
            act = f"{s}_{lab}_{k}"
            if rng.random() < 0.5:
                uset = random_interval_set(rng, states)
            else:
                uset = random_vertex_set(rng, states)
            utrans[(s, act)] = (lab, uset)
    return make_rpa(states, states[0], utrans, set(labels))


def enumerate_paths(pa, horizon):
    """All initial paths up to the horizon along declared transitions."""
    out = [(pa.initial,)]
    frontier = [(pa.initial,)]
    for _ in range(horizon):
        nxt = []
        for path in frontier:
            s = path_last(path)
            for a in pa.enabled(s):
                for t in pa.trans[(s, a)]:
                    nxt.append(path + (a, t))
        out.extend(nxt)
        frontier = nxt
    return out


def path_prefix(path, steps: int):
    return path[: 2 * steps + 1]


def cyl_prob(m, sigma, path) -> Fraction:
    """Probability of the cylinder of one finite path."""
    if path[0] != m.initial:
        return Fraction(0)
    total = Fraction(1)
    for i in range(path_len(path)):
        prefix = path_prefix(path, i)
        s, a, t = path[2 * i], path[2 * i + 1], path[2 * i + 2]
        total *= sigma.mass(prefix, a) * m.trans.get((s, a), {}).get(t, 0)
        if total == 0:
            return Fraction(0)
    return total


def lifted_paths(pi_i, composed, component, side: int, horizon: int):
    """All composed initial paths of length <= horizon projecting to `pi_i`,
    a path of `component`, the `side` part of `composed`.

    A step moves the component iff its `side` part is one of the component's
    actions.  Zero-probability transitions are traversable, so enumeration
    follows the declared transition structure, not any particular strategy's
    support.
    """
    own = set(component.actions)
    results = []

    def expand(path, idx):
        if idx == path_len(pi_i):
            results.append(path)
        if path_len(path) >= horizon:
            return
        s = path_last(path)
        for a in composed.enabled(s):
            if a[side - 1] in own:
                if idx >= path_len(pi_i) or a[side - 1] != pi_i[2 * idx + 1]:
                    continue
                want = pi_i[2 * idx + 2]
                for t in sorted(composed.trans[(s, a)], key=sort_key):
                    if t[side - 1] == want:
                        expand(path + (a, t), idx + 1)
            else:
                for t in sorted(composed.trans[(s, a)], key=sort_key):
                    expand(path + (a, t), idx)

    if pi_i[0] == composed.initial[side - 1]:
        expand((composed.initial,), 0)
    return results


def union_cylinder_prob(m, sigma, paths) -> Fraction:
    """Measure of the union of the cylinders of a set of finite paths.

    Only prefix-minimal members contribute; their cylinders are disjoint.
    """
    chosen = set(paths)
    total = Fraction(0)
    for path in chosen:
        if any(path[: 2 * k + 1] in chosen for k in range(path_len(path))):
            continue
        total += cyl_prob(m, sigma, path)
    return total


def dist_leq_bruteforce(mu1, mu2, rel) -> bool:
    """Direct subset-quantified definition; exponential, for cross-checking."""
    mu1 = {s: Fraction(p) for s, p in mu1.items() if Fraction(p) != 0}
    mu2 = {s: Fraction(p) for s, p in mu2.items()}
    support = sorted(mu1, key=sort_key)
    pairs = set(rel)
    for mask in range(1 << len(support)):
        subset = [s for i, s in enumerate(support) if mask >> i & 1]
        lhs = sum((mu1[s] for s in subset), Fraction(0))
        image = {t for t in mu2 if any((s, t) in pairs for s in subset)}
        rhs = sum((mu2[t] for t in image), Fraction(0))
        if lhs > rhs:
            return False
    return True


def interval_extreme_points_by_orders(uset: IntervalSet, cap=10_000):
    """Extreme points of the interval polytope, by order-based saturation.

    For every priority order over successors, start all entries at their lower
    bounds and greedily raise them to the upper bounds until the mass reaches
    one; deduplicate.  This enumerates exactly the vertices of the polytope
    (box intersected with the probability simplex), in n! orders.
    """
    support = list(uset.support)
    bounds = dict(uset.bounds)
    total_lo = sum((lo for lo, _ in bounds.values()), Fraction(0))
    seen = {}
    count_guard = 0
    for order in itertools.permutations(support):
        count_guard += 1
        if count_guard > cap:
            raise GeneratorBudgetExceeded(
                f"extreme-point enumeration exceeds the cap of {cap}"
            )
        dist = {s: bounds[s][0] for s in support}
        slack = 1 - total_lo
        for s in order:
            if slack == 0:
                break
            room = bounds[s][1] - bounds[s][0]
            take = min(room, slack)
            dist[s] += take
            slack -= take
        if slack != 0:
            raise InfeasibleIntervalSet("interval bounds admit no distribution")
        seen[freeze_dist(dist)] = dict(dist)
    return [dict(d) for d in sorted(seen, key=sort_key)]


def weight_profiles_reference(actions, denominator):
    """`verify._weight_profiles` as first written: the whole grid as a list."""
    if denominator == 1:
        return [{a: Fraction(1)} for a in actions]
    profiles = []

    def rec(i, remaining, acc):
        if i == len(actions) - 1:
            prof = dict(acc)
            if remaining:
                prof[actions[i]] = Fraction(remaining, denominator)
            profiles.append(prof)
            return
        for k in range(remaining + 1):
            if k:
                acc[actions[i]] = Fraction(k, denominator)
            rec(i + 1, remaining - k, acc)
            acc.pop(actions[i], None)

    rec(0, denominator, {})
    return profiles


def compose_reference(m1, m2):
    """`model.compose` as first written: for every synchronising transition
    of `m1`, a scan of all of `m2`'s transitions for its partners."""
    shared = m1.alphabet & m2.alphabet
    for m in (m1, m2):
        if set(m.actions) & (m1.alphabet | m2.alphabet):
            raise ActionAlphabetClash("component actions must be disjoint from both alphabets")
    states = tuple((s1, s2) for s1 in m1.states for s2 in m2.states)
    trans = {}
    for (s1, a1), d1 in m1.trans.items():
        lab = m1.label[(s1, a1)]
        if lab in shared:
            for (s2, a2), d2 in m2.trans.items():
                if m2.label[(s2, a2)] != lab:
                    continue
                dist = {(t1, t2): p1 * p2 for t1, p1 in d1.items() for t2, p2 in d2.items()}
                trans[((s1, s2), (a1, a2))] = (lab, dist)
        else:
            for s2 in m2.states:
                trans[((s1, s2), (a1, lab))] = (lab, {(t1, s2): p1 for t1, p1 in d1.items()})
    for (s2, a2), d2 in m2.trans.items():
        lab = m2.label[(s2, a2)]
        if lab in shared:
            continue
        for s1 in m1.states:
            trans[((s1, s2), (lab, a2))] = (lab, {(s1, t2): p2 for t2, p2 in d2.items()})
    return make_ppa(states, (m1.initial, m2.initial), m1.params | m2.params, trans,
                    m1.alphabet | m2.alphabet)


def rpa_compose_reference(u1: RPA, u2: RPA) -> RPA:
    """`robust.rpa_compose` as first written, the same double loop as
    `compose_reference` with symbolic product sets; an idle side is the
    Dirac vertex set of its state."""
    shared = u1.alphabet & u2.alphabet
    for u in (u1, u2):
        if set(u.actions) & (u1.alphabet | u2.alphabet):
            raise ActionAlphabetClash("component actions must be disjoint from both alphabets")
    states = tuple((s1, s2) for s1 in u1.states for s2 in u2.states)
    utrans = {}
    for (s1, a1), set1 in u1.utrans.items():
        lab = u1.label[(s1, a1)]
        if lab in shared:
            for (s2, a2), set2 in u2.utrans.items():
                if u2.label[(s2, a2)] != lab:
                    continue
                utrans[((s1, s2), (a1, a2))] = (lab, ProductSet(set1, set2))
        else:
            for s2 in u2.states:
                utrans[((s1, s2), (a1, lab))] = (lab, ProductSet(set1, VertexSet.dirac(s2)))
    for (s2, a2), set2 in u2.utrans.items():
        lab = u2.label[(s2, a2)]
        if lab in shared:
            continue
        for s1 in u1.states:
            utrans[((s1, s2), (lab, a2))] = (lab, ProductSet(VertexSet.dirac(s1), set2))
    return make_rpa(states, (u1.initial, u2.initial), utrans, u1.alphabet | u2.alphabet)


def pa_reduce_reference(u: RPA):
    """`robust.pa_reduce` as first written: every generator dict of every
    uncertainty set is frozen anew, and `make_ppa` sorts and coerces."""
    trans = {}
    for (s, a), uset in u.utrans.items():
        for gen in generators(uset):
            frozen = freeze_dist(gen)
            trans[(s, (a, frozen))] = (u.label[(s, a)], dict(frozen))
    return make_ppa(u.states, u.initial, frozenset(), trans, u.alphabet)


def fraction_solve(rows, rhs):
    """Gauss-Jordan elimination in Fractions: the solution of the square
    system rows . x = rhs; ValueError when it is singular."""
    n = len(rows)
    a = [[Fraction(v) for v in row] + [Fraction(b)] for row, b in zip(rows, rhs)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r][col]), None)
        if pivot is None:
            raise ValueError("singular linear system")
        a[col], a[pivot] = a[pivot], a[col]
        head = a[col][col]
        a[col] = [v / head for v in a[col]]
        for r in range(n):
            f = a[r][col]
            if r != col and f:
                a[r] = [v - f * w for v, w in zip(a[r], a[col])]
    return [row[n] for row in a]


def chain_solve_reference(chain, gain, init=None):
    """`verify._chain_solve` as it was before its rows became integers: the
    chain {s: {t: p > 0}} and the gains are Fractions, solved by
    `fraction_solve`.  Its graph questions are networkx's, not the kernel's:
    a node is INF when it reaches a closed SCC with an internal edge and
    positive gain, and 0 when it reaches no positive gain."""
    graph = nx.DiGraph()
    graph.add_nodes_from(chain)
    graph.add_edges_from((s, t) for s, out in chain.items() for t in out)

    def reaching(seeds):
        return set(seeds).union(*(nx.ancestors(graph, s) for s in seeds))

    # a closed SCC with an internal edge never reaches a dead end
    trapped = set(chain) - reaching([s for s in chain if not chain[s]])
    recurrent = set()
    for comp in nx.strongly_connected_components(graph.subgraph(trapped)):
        if any(gain.get(s, 0) > 0 for s in comp) and all(chain[s].keys() <= comp for s in comp):
            recurrent |= comp
    infinite = reaching(recurrent)
    positive = reaching({s for s in chain if gain.get(s, 0) > 0})
    values = {
        s: INF if s in infinite else Fraction(0)
        for s in chain
        if s in infinite or s not in positive
    }
    unknown = sorted((s for s in positive if s not in infinite), key=sort_key)
    if unknown and (init is None or init not in values):
        idx = {s: i for i, s in enumerate(unknown)}
        rows = []
        for s in unknown:
            row = [Fraction(0)] * len(unknown)
            row[idx[s]] = Fraction(1)
            for t, p in chain[s].items():
                if t in idx:
                    row[idx[t]] -= p
            rows.append(row)
        rhs = [gain.get(s, Fraction(0)) for s in unknown]
        values.update(zip(unknown, fraction_solve(rows, rhs)))
    return values


def witness_values_reference(query, point, mix, settle_mass, stay):
    """`verify._witness_values` as it was before fixed-strategy chains were
    planned: the two-mode chain over every state of the `_MoQuery` product
    `query`, rebuilt at the table vector `point` in Fractions and solved by
    `chain_solve_reference`.  Go-mode ps plays mix[ps] (mass on an action ps
    does not enable is ignored, missing mass stops) and settles with
    settle_mass[ps]; stay-mode ps plays stay[ps] forever.  One value per
    target set (the probability of never reaching it), then one per reward
    objective (the expected total reward)."""
    den, nums = point
    trans = {
        key: {t: Fraction(nums[k], den) for t, k in dist if nums[k]}
        for key, dist in query.ptrans.items()
    }
    rewards = [
        {key: Fraction(nums[slots[lab]], den) if lab in slots else Fraction(0)
         for key, lab in query.plabel.items()}
        for slots in query.reward_slots
    ]
    chain, gains = {}, [{} for _ in rewards]
    for ps in query.states:
        go, dist = ("go", ps), {}
        for a, w in mix.get(ps, {}).items():
            if not w or (ps, a) not in trans:
                continue
            for t, p in trans[(ps, a)].items():
                dist[("go", t)] = dist.get(("go", t), Fraction(0)) + w * p
            for gain, rew in zip(gains, rewards):
                if rew[(ps, a)]:
                    gain[go] = gain.get(go, Fraction(0)) + w * rew[(ps, a)]
        if settle_mass.get(ps):
            dist[("stay", ps)] = settle_mass[ps]
        chain[go] = dist
    for ps in settle_mass:
        chain.setdefault(("stay", ps), {})
    for ps, a in stay.items():
        chain[("stay", ps)] = succ = {("stay", t): p for t, p in trans[(ps, a)].items()}
        for t in succ:
            chain.setdefault(t, {})
    init = ("go", query.init)
    out = []
    for target in query.targets:
        if query.init in target:
            out.append(Fraction(0))
            continue
        absorbed = {s: {} if s[1] in target else dist for s, dist in chain.items()}
        gain = {s: sum((p for t, p in dist.items() if t[1] in target), Fraction(0))
                for s, dist in absorbed.items()}
        out.append(1 - chain_solve_reference(absorbed, gain, init)[init])
    for gain in gains:
        out.append(chain_solve_reference(chain, gain, init)[init])
    return out


def settle_reference(query, nums):
    """`_MoQuery._flow`'s settle set and `stay` map as they were decided
    before each objective became a gain map, at the table vector numerators
    `nums`: an action lingers when it collects no reward and every successor
    it reaches has the state's signature, the objectives whose targets hold
    it."""
    sig = {ps: frozenset(i for i, target in enumerate(query.targets) if ps in target)
           for ps in query.states}
    succ = {key: frozenset(t for t, k in dist if nums[k]) for key, dist in query.ptrans.items()}

    def lingers(ps, a):
        lab = query.plabel[(ps, a)]
        return all(not nums[slots[lab]] for slots in query.reward_slots if lab in slots) and all(
            sig[t] == sig[ps] for t in succ[(ps, a)]
        )

    return _settle(query.states, query.acts, succ, lingers)


def instantiate_objective(obj, v):
    if isinstance(obj, RewardObjective):
        items = tuple((sym, poly_eval(r, v)) for sym, r in obj.rewards)
        return RewardObjective(obj.cmp, obj.threshold, items, obj.name)
    return obj


def strategy_value_reference(m, sigma, objective, v):
    """The value of `objective` under the memoryless sigma of m at the
    valuation v: `witness_values_reference` on the DFA product of m
    instantiated at v."""
    table = PolyTable()
    query = _MoQuery(instantiate(m, v), (instantiate_objective(objective, v),), "cmp", table)
    mix = {ps: sigma.choice[ps[0]] for ps in query.states if ps[0] in sigma.choice}
    return witness_values_reference(query, table.at({}), mix, {}, {})[0]


def policy_iteration_reference(pa, deciding, reward):
    """`verify._policy_iteration` as it was in Fraction arithmetic: every
    round re-evaluates every enabled action's backup as a Fraction, and
    `reward(s, a)` is a Fraction."""
    policy = {}
    for s in deciding:
        acts = pa.enabled(s)
        if acts:
            policy[s] = acts[0]
    while True:
        chain = {s: {} for s in pa.states}
        for s, a in policy.items():
            chain[s] = {t: p for t, p in pa.dist(s, a).items() if p}
        values = chain_solve_reference(chain, {s: reward(s, a) for s, a in policy.items()})
        improved = False
        for s in sorted(policy, key=sort_key):
            best_a, best_v = policy[s], values[s]
            for a in pa.enabled(s):
                succ = [(p, values[t]) for t, p in pa.dist(s, a).items() if p]
                if any(val == INF for _, val in succ):
                    v = INF
                else:
                    v = reward(s, a) + sum((p * val for p, val in succ), Fraction(0))
                if v > best_v:
                    best_a, best_v = a, v
            if best_a != policy[s]:
                policy[s] = best_a
                improved = True
        if not improved:
            return policy, values


def alphabet_extend_rpa(u: RPA, sigma) -> RPA:
    """Add singleton-Dirac self-loops for the fresh symbols."""
    fresh = frozenset(sigma) - u.alphabet
    if set(u.actions) & fresh:
        raise ActionAlphabetClash("new symbols collide with existing actions")
    utrans = {key: (u.label[key], uset) for key, uset in u.utrans.items()}
    for s in u.states:
        for sym in fresh:
            utrans[(s, ("loop", sym))] = (sym, VertexSet.dirac(s))
    return make_rpa(
        states=u.states,
        initial=u.initial,
        utrans=utrans,
        alphabet=u.alphabet | fresh,
    )


# ---------------------------------------------------------------------------
# Per-sample references for the region checks: every sample is checked entry
# by entry in Fractions, instantiated and solved anew, with no structure
# shared between samples.
# ---------------------------------------------------------------------------

def well_defined_reference(m, v):
    """`model.well_defined` by evaluating every transition entry in Fractions."""
    require_total(v, m.params)
    graph_preserving = True
    for dist in m.trans.values():
        total = Fraction(0)
        for p in dist.values():
            value = Polynomial.coerce(p).evaluate(v)
            if not 0 <= value <= 1:
                return WellDefinedness.NEITHER
            if (value == 0) != (p == 0):
                graph_preserving = False
            total += value
        if total != 1:
            return WellDefinedness.NEITHER
    return WellDefinedness.GRAPH_PRESERVING if graph_preserving else WellDefinedness.WELL_DEFINED


def checked_samples_reference(region, resolution, m):
    """The region's samples, each checked by `well_defined_reference`; None
    for an empty region."""
    try:
        samples = region_samples(region, resolution)
    except EmptyRegion:
        return None
    for v in samples:
        if well_defined_reference(m, v) is WellDefinedness.NEITHER:
            raise IllDefinedValuationInRegion(
                f"sample {dict(sorted(v.items()))} does not instantiate to a PA"
            )
    return samples


def region_sat_per_sample(m, region, query, strategy_class="cmp", resolution=1):
    samples = checked_samples_reference(region, resolution, m)
    if samples is None:
        return Verdict("holds", caveat="region denotes no valuation; vacuously holds")
    details = []
    for v in samples:
        pa = instantiate(m, v)
        for obj in query:
            status, wit = mo_achievable(
                pa, (instantiate_objective(obj, v).negate(),), strategy_class
            )
            if status == "achievable":
                return Verdict(
                    "fails",
                    witness={"valuation": v, "objective": obj, "strategy": wit},
                    details=details,
                )
        details.append({"valuation": valuation_key(v), "ok": True})
    return Verdict("holds", details=details)


def ag_triple_check_per_sample(m, region, assumption, guarantee, strategy_class="prt",
                               resolution=1):
    samples = checked_samples_reference(region, resolution, m)
    if samples is None:
        return Verdict("holds", caveat="region denotes no valuation; vacuously holds")
    details = []
    for v in samples:
        pa = instantiate(m, v)
        inst_a = tuple(instantiate_objective(o, v) for o in assumption)
        for g in guarantee:
            bad = inst_a + (instantiate_objective(g, v).negate(),)
            status, wit = mo_achievable(pa, bad, strategy_class)
            if status == "achievable":
                return Verdict(
                    "fails",
                    witness={"valuation": v, "violated": g, "strategy": wit},
                    details=details,
                )
        details.append({"valuation": valuation_key(v), "ok": True})
    return Verdict("holds", details=details)


def monotone_check_per_sample(m, region, objective, param, direction, strategy_class="cmp",
                              resolution=1):
    """Every (strategy, valuation) pair instantiates, builds its DFA product
    and solves its chain anew (`strategy_value_reference`)."""
    samples = checked_samples_reference(region, resolution, m)
    caveat = "per enumerated strategy class; sound per sampled valuation"
    if samples is None:
        return Verdict("holds", caveat="region denotes no valuation; vacuously holds")
    work = tau_extend(m) if strategy_class == "prt" else m
    groups = {}
    for v in samples:
        rest = tuple(sorted((k, val) for k, val in v.items() if k != param))
        groups.setdefault(rest, []).append(v)
    pairs = []
    for _, vs in sorted(groups.items()):
        vs.sort(key=lambda v: v[param])
        pairs.extend(zip(vs, vs[1:]))
    if not pairs:
        return Verdict("holds", caveat=f"no two samples differ in {param!r} alone; vacuously holds")
    for sigma in enumerate_memoryless(work):
        for lo, hi in pairs:
            f_lo, f_hi = (strategy_value_reference(work, sigma, objective, v) for v in (lo, hi))
            if not (f_lo <= f_hi if direction == "up" else f_lo >= f_hi):
                return Verdict(
                    "fails",
                    witness={"strategy": sigma.choice, "low": lo, "high": hi,
                             "value_low": f_lo, "value_high": f_hi},
                    caveat=caveat,
                )
    return Verdict("holds", caveat=caveat)


# The hand-written region and valuation text parsers that region text used
# before it decoded through `modelio`'s shape table, kept as they were as the
# reference for which texts are accepted and what they denote.
def _named_reference(pairs, what):
    out = {}
    for name, value in pairs:
        if name in out:
            raise ParseError(f"{what} names parameter {name!r} twice")
        out[name] = value
    return out


def _split_axes_reference(body):
    """Split 'p=[0,1],q=[0,1]' at commas that separate axes, not bounds."""
    parts, depth, current = [], 0, ""
    for ch in body:
        if ch == "[":
            depth += 1
        elif ch == "]":
            depth -= 1
        if ch == "," and depth == 0:
            parts.append(current)
            current = ""
        else:
            current += ch
    if current:
        parts.append(current)
    return parts


def parse_region_arg_reference(text, inputs):
    """Parse region text: box.p=[0,0.1],q=[0,1] | finite:{p=1/10};{p=9/10} | @file."""
    text = text.strip()
    if text.startswith("@"):
        return inputs.load(text[1:], "region")
    if text.startswith("box.") or text.startswith("box:"):
        body = text[4:]
        axes = []
        for chunk in _split_axes_reference(body):
            if "=" not in chunk:
                raise ParseError(f"bad box axis {chunk!r}")
            name, rng = chunk.split("=", 1)
            rng = rng.strip()
            if not (rng.startswith("[") and rng.endswith("]")) or rng.count(",") != 1:
                raise ParseError(f"bad interval {rng!r} for {name!r}")
            lo, hi = rng[1:-1].split(",")
            axes.append((name.strip(), (parse_rational(lo), parse_rational(hi))))
        if not axes:
            raise ParseError("a box region needs at least one axis")
        return Box.of(_named_reference(axes, "box"))
    if text.startswith("finite:"):
        vals = []
        for chunk in text[len("finite:"):].split(";"):
            chunk = chunk.strip()
            if not (chunk.startswith("{") and chunk.endswith("}")):
                raise ParseError(f"bad finite valuation {chunk!r}")
            vals.append(parse_valuation_arg_reference(chunk[1:-1]))
        return FiniteRegion.of(vals)
    raise ParseError(f"unrecognized region syntax {text!r}")


def parse_valuation_arg_reference(text):
    items = []
    for item in text.split(","):
        if not item.strip():
            continue
        if "=" not in item:
            raise ParseError(f"bad valuation item {item!r}: expected name=value")
        name, value = item.split("=", 1)
        items.append((name.strip(), parse_rational(value)))
    return _named_reference(items, "valuation")


def standard_setup():
    """The retry/pipeline pair of the proof-rule tests: both models, the safe
    assumption and guarantee at 9/10, a box for component 1, and the grid
    points of a triangle for component 2."""
    m1, m2 = corpus.retry_component(), corpus.pipeline_component()
    A = (safety(corpus.limit_one_a_dfa(), Fraction(9, 10)),)
    G = (safety(corpus.no_fail_dfa(), Fraction(9, 10)),)
    r1 = Box.of({"p": (0, Fraction(1, 10))})
    tri = [
        v
        for v in region_samples(Box.of({"p": (0, Fraction(9, 10)), "q": (0, 1)}), 4)
        if v["q"] <= 1 - v["p"]
    ]
    return m1, m2, A, G, r1, FiniteRegion.of(tri)


def reward_sum_arguments():
    """m1, m2, r1, r2, a1, a2, rw1, thr1, rw2, thr2 of a reward-sum application
    that concludes under `<=`: two chains that take one rewarded step, `a`
    on the left and `b` on the right, then idle."""
    one = Polynomial.const(1)
    left = make_ppa(["l0", "l1"], "l0", set(),
                    {("l0", "l0_a"): ("a", {"l1": one}), ("l1", "l1_x"): ("x", {"l1": one})},
                    {"a", "x"})
    right = make_ppa(["r0", "r1"], "r0", set(),
                     {("r0", "r0_b"): ("b", {"r1": one}), ("r1", "r1_y"): ("y", {"r1": one})},
                     {"b", "y"})
    point = FiniteRegion.of([{}])
    return (left, right, point, point,
            (ProbObjective(">=", Fraction(0), corpus.trivial_dfa(("a",))),),
            (ProbObjective(">=", Fraction(0), corpus.trivial_dfa(("b",))),),
            {"a": 1}, Fraction(1), {"b": 2}, Fraction(2))


def interleaving_arguments():
    """m1, m2, r1, r2, a1, a2, dfa1, p1, dfa2, p2 of an interleaving
    application that concludes: retry beside a one-state model on `d`."""
    one = Polynomial.const(1)
    d_only = make_ppa(["w0"], "w0", set(), {("w0", "w0_d"): ("d", {"w0": one})}, {"d"})
    return (corpus.retry_component(), d_only, Box.of({"p": (0, Fraction(1, 10))}),
            FiniteRegion.of([{}]),
            (ProbObjective(">=", Fraction(0), corpus.trivial_dfa(("a", "b"))),),
            (ProbObjective(">=", Fraction(0), corpus.trivial_dfa(("d",))),),
            corpus.limit_one_a_dfa(), Fraction(9, 10), dfa_forbid_symbols({"d"}, {"d"}),
            Fraction(0))
