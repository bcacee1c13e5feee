"""Robust automata: uncertainty sets, the three compositions, PA-reduction.

Uncertainty sets are interval-bounded or vertex-listed; composed sets are kept
symbolic as products so that exact membership can be decided by factorization.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
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
        out = []
        for d in self.dists:
            for s, _ in d:
                if s not in out:
                    out.append(s)
        return tuple(sorted(out, key=sort_key))

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
    left_states = sorted({s1 for (s1, _) in mu}, key=sort_key)
    left_states = sorted(set(left_states) | set(ps.left.support), key=sort_key)
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
    composed_of: tuple | None = field(default=None, compare=False)

    def __post_init__(self):
        check_automaton(self, self.utrans, ((k, u.support) for k, u in self.utrans.items()))


def make_rpa(states, initial, utrans, alphabet, composed_of=None) -> RPA:
    umap, lmap, actions = split_transitions(utrans)
    return RPA(
        states=tuple(states),
        initial=initial,
        actions=actions,
        utrans=umap,
        label=lmap,
        alphabet=frozenset(alphabet),
        composed_of=composed_of,
    )


def _composed(u1, u2, states, utrans) -> RPA:
    return make_rpa(states, (u1.initial, u2.initial), utrans, u1.alphabet | u2.alphabet,
                    composed_of=(u1, u2))


def rpa_compose(u1: RPA, u2: RPA) -> RPA:
    """Parallel composition by `synchronise`; the sets are symbolic products,
    an idle side the Dirac set of its state."""
    states, steps = synchronise(u1, u2, u1.utrans, u2.utrans)
    return _composed(u1, u2, states, {
        ((s1, s2), action): (lab, ProductSet(VertexSet.dirac(s1) if set1 is None else set1,
                                             VertexSet.dirac(s2) if set2 is None else set2))
        for (s1, s2), action, lab, set1, set2 in steps
    })


def _vertices(uset, cap=GENERATOR_CAP) -> tuple:
    """The vertices of a polytopic set as `FrozenDist`s in `sort_key` order:
    a vertex set's own distributions, or the extreme points of an interval
    set by bound assignment.

    At a vertex of the box intersected with the probability simplex, every
    entry but at most one sits at a bound.  So each candidate picks one free
    successor and a lower or upper bound for every other one; the free entry
    takes the remaining mass and the candidate is a vertex iff that lies
    within its own bounds.  The cap limits the n * 2**(n-1) candidates.
    """
    if isinstance(uset, VertexSet):
        return uset.dists
    if not isinstance(uset, IntervalSet):
        raise NonPolytopicComponent(
            f"no finite generators for {type(uset).__name__}"
        )
    support = uset.support
    n = len(support)
    if n * 2 ** (n - 1) > cap:
        raise GeneratorBudgetExceeded(
            f"extreme-point enumeration exceeds the cap of {cap}"
        )
    seen = set()
    for free, (_, (lo, hi)) in enumerate(uset.bounds):
        others = uset.bounds[:free] + uset.bounds[free + 1:]
        for picked in itertools.product(*(b for _, b in others)):
            rest = 1 - sum(picked, Fraction(0))
            if lo <= rest <= hi:
                values = picked[:free] + (rest,) + picked[free:]
                seen.add(FrozenDist((s, p) for s, p in zip(support, values) if p))
    if not seen:
        raise InfeasibleIntervalSet("interval bounds admit no distribution")
    return tuple(sorted(seen, key=sort_key))


def interval_extreme_points(uset: IntervalSet, cap=GENERATOR_CAP):
    """Extreme points of the interval polytope, as dicts (see `_vertices`)."""
    if not isinstance(uset, IntervalSet):
        raise NotIntervalRPA("extreme points are defined on interval sets here")
    return [dict(d) for d in _vertices(uset, cap)]


def generators(uset):
    """Finite generator list of a polytopic uncertainty set, as dicts."""
    return [dict(d) for d in _vertices(uset)]


def conv_compose(u1: RPA, u2: RPA) -> RPA:
    """Convex parallel composition of polytopic components.

    Every composed uncertainty set is the vertex set of pairwise products of
    the component generators; the convex hulls agree with the hulls of the
    exact product sets.  Each distinct component set is enumerated once, when
    a step first uses it, and an idle side is the Dirac vertex of its state.
    """
    states, steps = synchronise(u1, u2, u1.utrans, u2.utrans)
    gens = {}

    def vertices(uset, state):
        if uset is None:
            return (FrozenDist(((state, Fraction(1)),)),)
        if uset not in gens:
            gens[uset] = _vertices(uset)
        return gens[uset]

    utrans = {}
    for (s1, s2), action, lab, set1, set2 in steps:
        # a product of two vertices is a distribution, and its pairs come out
        # in `sort_key` order, so it is frozen as it is built
        prods = {
            FrozenDist(((t1, t2), p1 * p2) for t1, p1 in d1 for t2, p2 in d2)
            for d1 in vertices(set1, s1)
            for d2 in vertices(set2, s2)
        }
        utrans[((s1, s2), action)] = (lab, VertexSet(tuple(sorted(prods, key=sort_key))))
    return _composed(u1, u2, states, utrans)


def interval_relax_compose(u1: RPA, u2: RPA) -> RPA:
    """Interval-arithmetic relaxation of the composition of two interval rPAs.

    Per product successor the bounds are the exact extrema of the product
    entry over the component boxes, i.e. products of component extrema.  The
    result is again interval-form but admits spurious joint distributions.
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
    one = (Fraction(1), Fraction(1))
    utrans = {}
    for (s1, s2), action, lab, b1, b2 in steps:
        bounds = {
            (t1, t2): (lo1 * lo2, hi1 * hi2)
            for t1, (lo1, hi1) in (((s1, one),) if b1 is None else b1)
            for t2, (lo2, hi2) in (((s2, one),) if b2 is None else b2)
        }
        utrans[((s1, s2), action)] = (lab, IntervalSet.of(bounds))
    return _composed(u1, u2, states, utrans)


def pa_reduce(u: RPA) -> PPA:
    """PA-reduction: one action per (action, generator) pair.

    Nature's choices become strategy choices of a finite PA; valid for
    polytopic (interval or vertex-listed) uncertainty sets.
    """
    trans = {}
    for (s, a), uset in u.utrans.items():
        lab = u.label[(s, a)]
        for vertex in _vertices(uset):
            trans[(s, (a, vertex))] = (lab, dict(vertex))
    return make_ppa(
        states=u.states,
        initial=u.initial,
        params=frozenset(),
        trans=trans,
        alphabet=u.alphabet,
        composed_of=None,
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
        else:
            gen = generators(uset) if not isinstance(uset, ProductSet) else None
            if gen is None:
                g1 = generators(uset.left)[0]
                g2 = generators(uset.right)[0]
                dist = {
                    (t1, t2): p1 * p2
                    for t1, p1 in g1.items()
                    for t2, p2 in g2.items()
                }
            else:
                dist = gen[0]
        trans[(s, a)] = (lab, {t: p for t, p in dist.items() if p})
    return make_ppa(
        states=u.states,
        initial=u.initial,
        params=frozenset(),
        trans=trans,
        alphabet=u.alphabet,
        composed_of=None,
    )

