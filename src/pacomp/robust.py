"""Robust automata: uncertainty sets, the three compositions, PA-reduction.

Uncertainty sets are interval-bounded or vertex-listed; composed sets are kept
symbolic as products so that exact membership can be decided by factorization.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    GeneratorBudgetExceeded,
    InfeasibleIntervalSet,
    NonPolytopicComponent,
    NotIntervalRPA,
)
from .model import PPA, check_automaton, make_ppa, sort_key, split_transitions, synchronise

GENERATOR_CAP = 10_000


class FrozenDist(tuple):
    """A distribution as a tuple of (state, nonzero Fraction) pairs in
    `sort_key` order of the states.  It compares, orders and encodes as that
    plain tuple, but computes its hash once: a vertex is part of the name of
    every action of a PA-reduction, so it is hashed on each lookup."""

    def __new__(cls, items):
        self = super().__new__(cls, items)
        self._hash = tuple.__hash__(self)
        return self

    def __hash__(self):
        return self._hash

    def __reduce__(self):  # string hashes differ between processes
        return FrozenDist, (tuple(self),)


def freeze_dist(dist) -> FrozenDist:
    items = FrozenDist(
        (s, Fraction(p)) for s, p in sorted(dist.items(), key=lambda kv: sort_key(kv[0]))
        if Fraction(p) != 0
    )
    total = sum((p for _, p in items), Fraction(0))
    if total != 1 or any(p < 0 for _, p in items):
        raise ValueError(f"not a distribution: {dict(dist)!r}")
    return items


@dataclass(frozen=True)
class IntervalSet:
    """All distributions with per-successor closed rational bounds."""

    bounds: tuple  # sorted tuple of (state, (lo, hi))

    @staticmethod
    def of(bounds) -> "IntervalSet":
        items = []
        for s, (lo, hi) in dict(bounds).items():
            lo, hi = Fraction(lo), Fraction(hi)
            if lo > hi or lo < 0 or hi > 1:
                raise InfeasibleIntervalSet(f"bad bounds for {s!r}: [{lo},{hi}]")
            items.append((s, (lo, hi)))
        items.sort(key=lambda kv: sort_key(kv[0]))
        total_lo = sum((lo for _, (lo, _) in items), Fraction(0))
        total_hi = sum((hi for _, (_, hi) in items), Fraction(0))
        if total_lo > 1 or total_hi < 1:
            raise InfeasibleIntervalSet("interval bounds admit no distribution")
        return IntervalSet(tuple(items))

    @property
    def support(self):
        return tuple(s for s, _ in self.bounds)

    def contains(self, dist) -> bool:
        d = dict(freeze_dist(dist))
        if not set(d) <= set(self.support):
            return False
        for s, (lo, hi) in self.bounds:
            if not lo <= d.get(s, Fraction(0)) <= hi:
                return False
        return True


@dataclass(frozen=True)
class VertexSet:
    """An explicit finite set of distributions (not implicitly convexified)."""

    dists: tuple  # deduplicated FrozenDists in `sort_key` order

    @staticmethod
    def of(dists) -> "VertexSet":
        frozen = sorted({freeze_dist(d) for d in dists}, key=sort_key)
        if not frozen:
            raise ValueError("vertex set must be nonempty")
        return VertexSet(tuple(frozen))

    @staticmethod
    def dirac(state) -> "VertexSet":
        return VertexSet.of([{state: Fraction(1)}])

    @property
    def support(self):
        """The successors of its vertices, unordered."""
        return frozenset(s for d in self.dists for s, _ in d)

    def contains(self, dist) -> bool:
        return freeze_dist(dist) in set(self.dists)


@dataclass(frozen=True)
class ProductSet:
    """Lazy product {mu1 x mu2 | mu_i in side_i} over a pair state space."""

    left: object
    right: object

    @property
    def support(self):
        return tuple(
            (s1, s2) for s1 in self.left.support for s2 in self.right.support
        )


def is_product_member(mu, ps: ProductSet):
    """Exact factorization test against a symbolic product set.

    Derives the left factor from row sums and the right factor from the first
    positive row, then checks every cell and membership of each factor.
    Returns ("member", (mu1, mu2)) or ("not-member", explanation).
    """
    mu = dict(freeze_dist(mu))
    left_states = sorted({s1 for (s1, _) in mu} | set(ps.left.support), key=sort_key)
    right_states = sorted(
        {s2 for (_, s2) in mu} | set(ps.right.support), key=sort_key
    )

    def cell(s1, s2):
        return mu.get((s1, s2), Fraction(0))

    mu1 = {s1: sum((cell(s1, s2) for s2 in right_states), Fraction(0))
           for s1 in left_states}
    pivot = next((s1 for s1 in left_states if mu1[s1] > 0), None)
    mu2 = {s2: cell(pivot, s2) / mu1[pivot] for s2 in right_states}
    for s1 in left_states:
        for s2 in right_states:
            expected = mu1[s1] * mu2[s2]
            actual = cell(s1, s2)
            if expected != actual:
                return (
                    "not-member",
                    {
                        "cell": (s1, s2),
                        "factored": expected,
                        "observed": actual,
                        "left_factor": mu1,
                        "right_factor": mu2,
                    },
                )
    mu1 = {s: p for s, p in mu1.items() if p}
    mu2 = {s: p for s, p in mu2.items() if p}
    if not ps.left.contains(mu1):
        return ("not-member", {"reason": "left factor outside its set", "left_factor": mu1})
    if not ps.right.contains(mu2):
        return ("not-member", {"reason": "right factor outside its set", "right_factor": mu2})
    return ("member", (mu1, mu2))


# ---------------------------------------------------------------------------
# Robust automata
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RPA:
    """Robust probabilistic automaton: transitions map to uncertainty sets."""

    states: tuple
    initial: object
    actions: tuple
    utrans: dict  # (state, action) -> uncertainty set
    label: dict
    alphabet: frozenset

    def __post_init__(self):
        check_automaton(self, self.utrans, ((k, u.support) for k, u in self.utrans.items()))


def make_rpa(states, initial, utrans, alphabet) -> RPA:
    umap, lmap, actions = split_transitions(utrans)
    return RPA(
        states=tuple(states),
        initial=initial,
        actions=actions,
        utrans=umap,
        label=lmap,
        alphabet=frozenset(alphabet),
    )


def _composed(u1, u2, states, utrans) -> RPA:
    return make_rpa(states, (u1.initial, u2.initial), utrans, u1.alphabet | u2.alphabet)


def rpa_compose(u1: RPA, u2: RPA) -> RPA:
    """Parallel composition by `synchronise`; the sets are symbolic products,
    an idle side the Dirac set of its state."""
    states, steps = synchronise(u1, u2, u1.utrans, u2.utrans)
    return _composed(u1, u2, states, {
        ((s1, s2), action): (lab, ProductSet(VertexSet.dirac(s1) if set1 is None else set1,
                                             VertexSet.dirac(s2) if set2 is None else set2))
        for (s1, s2), action, lab, set1, set2 in steps
    })


def _integer_vertices(uset):
    """The vertices of a polytopic set on integer numerators: (support, den,
    rows), where `support` is the set's successors in `sort_key` order and
    each row is a vertex as ((index into support, numerator), ...) over the
    common denominator `den`, zero entries left out.  The rows are sorted:
    with the support sorted, a row orders as the `sort_key` of its vertex.

    An interval set's extreme points come by bound assignment.  At a vertex
    of the box intersected with the probability simplex every entry but at
    most one sits at a bound, so each candidate picks one free successor and
    a bound for every other one (a point interval offers one); the free entry
    takes the remaining mass and the candidate is a vertex iff that lies
    within its own bounds.  A vertex with every entry at a bound is found
    once per free index, so it is kept only for free index 0.
    `GENERATOR_CAP` limits the n * 2**(n-1) candidates.
    """
    if isinstance(uset, VertexSet):
        support = tuple(sorted(uset.support, key=sort_key))
        index = {s: i for i, s in enumerate(support)}
        den = math.lcm(*(p.denominator for d in uset.dists for _, p in d))
        return support, den, tuple(
            tuple((index[s], p.numerator * (den // p.denominator)) for s, p in d)
            for d in uset.dists
        )
    if not isinstance(uset, IntervalSet):
        raise NonPolytopicComponent(
            f"no finite generators for {type(uset).__name__}"
        )
    support = uset.support
    n = len(support)
    if n * 2 ** (n - 1) > GENERATOR_CAP:
        raise GeneratorBudgetExceeded(
            f"extreme-point enumeration exceeds the cap of {GENERATOR_CAP}"
        )
    den = math.lcm(*(q.denominator for _, b in uset.bounds for q in b))
    scaled = [(int(lo * den), int(hi * den)) for _, (lo, hi) in uset.bounds]
    picks = [(i, lo) if lo == hi else (i, lo, hi) for i, (lo, hi) in enumerate(scaled)]
    # before[f] / after[f]: (mass, entries) for every bound pick of the
    # successors before / after f
    before = [((0, ()),)]
    for i, *values in picks[:-1]:
        before.append(tuple((m + v, e + ((i, v),)) for m, e in before[-1] for v in values))
    after = [((0, ()),)]
    for i, *values in reversed(picks[1:]):
        after.append(tuple((m + v, ((i, v),) + e) for m, e in after[-1] for v in values))
    after.reverse()
    rows = []
    for free, (lo, hi) in enumerate(scaled):
        for m1, head in before[free]:
            need = den - m1
            for m2, tail in after[free]:
                rest = need - m2
                if lo < rest < hi or (free == 0 and lo <= rest <= hi):
                    rows.append(tuple((i, v) for i, v in head + ((free, rest),) + tail if v))
    if not rows:
        raise InfeasibleIntervalSet("interval bounds admit no distribution")
    rows.sort()
    return support, den, tuple(rows)


def _entries(states, den, rows):
    """Each integer row (see `_integer_vertices`) as its list of (state,
    `Fraction`) entries, with one `Fraction` per distinct numerator."""
    value = {v: Fraction(v, den) for v in {v for row in rows for _, v in row}}
    return ([(states[i], value[v]) for i, v in row] for row in rows)


def _vertices(uset) -> tuple:
    """The vertices of a polytopic set as `FrozenDist`s in `sort_key` order:
    a vertex set's own distributions, or the extreme points of an interval
    set (see `_integer_vertices`)."""
    if isinstance(uset, VertexSet):
        return uset.dists
    return tuple(map(FrozenDist, _entries(*_integer_vertices(uset))))


def generators(uset):
    """Finite generator list of a polytopic uncertainty set, as dicts in
    `sort_key` order: a vertex set's own distributions, or an interval set's
    extreme points built straight from its integer rows, with no
    `FrozenDist` (nothing hashes them)."""
    if isinstance(uset, VertexSet):
        return [dict(d) for d in uset.dists]
    return [dict(entries) for entries in _entries(*_integer_vertices(uset))]


def conv_compose(u1: RPA, u2: RPA) -> RPA:
    """Convex parallel composition of polytopic components.

    Every composed uncertainty set is the vertex set of pairwise products of
    the component generators; the convex hulls agree with the hulls of the
    exact product sets.  Each component set is enumerated once, on integer
    numerators (`_integer_vertices`), when a step first uses it.  Only a
    synchronising step multiplies: the product of rows r1 and r2 is the row
    of entries (i1 * n2 + i2, v1 * v2) over den1 * den2, with n2 the size of
    the second support, which orders as its vertex does, so the products are
    deduplicated and sorted as integer rows and only the distinct ones get
    `Fraction`s.  An idle side is the Dirac point of its state, a factor 1,
    so an interleaving step takes the moving set's own vertices, its rows
    with their `Fraction`s built once per set, under the pair states.
    """
    states, steps = synchronise(u1, u2, u1.utrans, u2.utrans)
    gens, own = {}, {}

    # Both caches are keyed by a set's identity (hashing a set hashes all its
    # `Fraction`s); the components hold every set while this runs, so no id
    # is reused.
    def vertices(uset):
        if id(uset) not in gens:
            gens[id(uset)] = _integer_vertices(uset)
        return gens[id(uset)]

    def moving(uset):
        if id(uset) not in own:
            support, den, rows = vertices(uset)
            own[id(uset)] = support, list(_entries(range(len(support)), den, rows))
        return own[id(uset)]

    utrans = {}
    for (s1, s2), action, lab, set1, set2 in steps:
        if set1 is None:
            support2, entries = moving(set2)
            pairs = [(s1, t2) for t2 in support2]
        elif set2 is None:
            support1, entries = moving(set1)
            pairs = [(t1, s2) for t1 in support1]
        else:
            support1, den1, rows1 = vertices(set1)
            support2, den2, rows2 = vertices(set2)
            n2 = len(support2)
            prods = sorted({
                tuple((i1 * n2 + i2, v1 * v2) for i1, v1 in r1 for i2, v2 in r2)
                for r1 in rows1
                for r2 in rows2
            })
            pairs = [(t1, t2) for t1 in support1 for t2 in support2]
            entries = _entries(range(len(pairs)), den1 * den2, prods)
        utrans[((s1, s2), action)] = (lab, VertexSet(tuple(
            FrozenDist((pairs[i], p) for i, p in row) for row in entries)))
    return _composed(u1, u2, states, utrans)


def interval_relax_compose(u1: RPA, u2: RPA) -> RPA:
    """Interval-arithmetic relaxation of the composition of two interval rPAs.

    Per product successor the bounds are the exact extrema of the product
    entry over the component boxes, i.e. products of component extrema; only
    a synchronising step multiplies, and an interleaving step keeps the
    moving side's bound pairs, the same `Fraction`s, under the pair states.
    The result is again interval-form but admits spurious joint
    distributions.
    """
    def as_bounds(uset):
        if isinstance(uset, IntervalSet):
            return uset.bounds
        if isinstance(uset, VertexSet) and len(uset.dists) == 1:
            return tuple((s, (p, p)) for s, p in uset.dists[0])
        raise NotIntervalRPA("interval relaxation needs interval components")

    bounds1, bounds2 = ({key: as_bounds(uset) for key, uset in u.utrans.items()}
                        for u in (u1, u2))
    states, steps = synchronise(u1, u2, bounds1, bounds2)
    utrans = {}
    # Built directly, not by `IntervalSet.of`: products of bounds 0 <= lo <=
    # hi <= 1 are such bounds; the sums are sum(lo1) sum(lo2) <= 1 and
    # sum(hi1) sum(hi2) >= 1; and the products of two lists in `sort_key`
    # order are in the `sort_key` order of the pairs.  An idle side is the
    # Dirac point of its state, a factor (1, 1), so the moving side's bound
    # pairs are kept as they are.
    for (s1, s2), action, lab, b1, b2 in steps:
        if b1 is None:
            bounds = tuple(((s1, t2), pair) for t2, pair in b2)
        elif b2 is None:
            bounds = tuple(((t1, s2), pair) for t1, pair in b1)
        else:
            bounds = tuple(((t1, t2), (lo1 * lo2, hi1 * hi2))
                           for t1, (lo1, hi1) in b1 for t2, (lo2, hi2) in b2)
        utrans[((s1, s2), action)] = (lab, IntervalSet(bounds))
    return _composed(u1, u2, states, utrans)


def pa_reduce(u: RPA) -> PPA:
    """PA-reduction: one action per (action, generator) pair.

    Nature's choices become strategy choices of a finite PA; valid for
    polytopic (interval or vertex-listed) uncertainty sets.  The states are
    ranked once in `sort_key` order, so an action (a, vertex) orders by
    (sort_key(a), ((rank of t, p), ...)), as by its own `sort_key`.
    """
    trans, label, actions = {}, {}, {}
    for (s, a), uset in u.utrans.items():
        lab = u.label[(s, a)]
        for vertex in _vertices(uset):
            trans[(s, (a, vertex))] = dict(vertex)
            label[(s, (a, vertex))] = lab
            actions[(a, vertex)] = None
    rank = {s: i for i, s in enumerate(sorted(u.states, key=sort_key))}
    akeys = {a: sort_key(a) for a in u.actions}
    # the entries are already `Fraction`s; the PPA still checks the model
    return PPA(
        states=tuple(u.states),
        initial=u.initial,
        params=frozenset(),
        actions=tuple(sorted(actions, key=lambda act: (
            akeys[act[0]], tuple((rank[t], p) for t, p in act[1])))),
        trans=trans,
        label=label,
        alphabet=frozenset(u.alphabet),
    )


def fix_nature(u: RPA, choices) -> PPA:
    """Instantiate a memoryless nature: one distribution per state-action.

    Used to reproduce counterexamples; each chosen distribution must belong to
    the transition's uncertainty set (product sets check exact membership).
    """
    trans = {}
    for (s, a), uset in u.utrans.items():
        lab = u.label[(s, a)]
        if (s, a) in choices:
            dist = dict(freeze_dist(choices[(s, a)]))
            if isinstance(uset, ProductSet):
                verdict, _ = is_product_member(dist, uset)
                if verdict != "member":
                    raise ValueError(f"nature choice at {(s, a)!r} outside the product set")
            elif not uset.contains(dist):
                raise ValueError(f"nature choice at {(s, a)!r} outside the uncertainty set")
        elif isinstance(uset, ProductSet):
            g1, g2 = _vertices(uset.left)[0], _vertices(uset.right)[0]
            dist = {(t1, t2): p1 * p2 for t1, p1 in g1 for t2, p2 in g2}
        else:
            dist = dict(_vertices(uset)[0])
        trans[(s, a)] = (lab, {t: p for t, p in dist.items() if p})
    return make_ppa(
        states=u.states,
        initial=u.initial,
        params=frozenset(),
        trans=trans,
        alphabet=u.alphabet,
    )

