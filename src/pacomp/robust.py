"""Robust automata: uncertainty sets, the three compositions, PA-reduction.

Uncertainty sets are interval-bounded or vertex-listed; composed sets are kept
symbolic as products so that exact membership can be decided by factorization.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction

from .algebra import Polynomial
from .errors import (
    ActionAlphabetClash,
    GeneratorBudgetExceeded,
    InfeasibleIntervalSet,
    NonPolytopicComponent,
    NotIntervalRPA,
)
from .model import PPA, check_automaton, make_ppa, sort_key

GENERATOR_CAP = 10_000


def freeze_dist(dist) -> tuple:
    items = tuple(
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

    dists: tuple  # deduplicated tuple of frozen distributions

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
    umap, lmap, actions = {}, {}, []
    for (s, a), (lab, uset) in utrans.items():
        umap[(s, a)] = uset
        lmap[(s, a)] = lab
        if a not in actions:
            actions.append(a)
    return RPA(
        states=tuple(states),
        initial=initial,
        actions=tuple(sorted(actions, key=sort_key)),
        utrans=umap,
        label=lmap,
        alphabet=frozenset(alphabet),
        composed_of=composed_of,
    )


def rpa_compose(u1: RPA, u2: RPA) -> RPA:
    """Parallel composition; synchronized sets are symbolic products."""
    shared = u1.alphabet & u2.alphabet
    for u in (u1, u2):
        if set(u.actions) & (u1.alphabet | u2.alphabet):
            raise ActionAlphabetClash(
                "component actions must be disjoint from both alphabets"
            )
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
                utrans[((s1, s2), (a1, lab))] = (
                    lab,
                    ProductSet(set1, VertexSet.dirac(s2)),
                )
    for (s2, a2), set2 in u2.utrans.items():
        lab = u2.label[(s2, a2)]
        if lab in shared:
            continue
        for s1 in u1.states:
            utrans[((s1, s2), (lab, a2))] = (
                lab,
                ProductSet(VertexSet.dirac(s1), set2),
            )
    return make_rpa(
        states=states,
        initial=(u1.initial, u2.initial),
        utrans=utrans,
        alphabet=u1.alphabet | u2.alphabet,
        composed_of=(u1, u2),
    )


def interval_extreme_points(uset: IntervalSet, cap=GENERATOR_CAP):
    """Extreme points of the interval polytope, by bound assignment.

    At a vertex of the box intersected with the probability simplex, every
    entry but at most one sits at a bound.  So each candidate picks one free
    successor and a lower or upper bound for every other one; the free entry
    takes the remaining mass and the candidate is a vertex iff that lies
    within its own bounds.  The cap limits the n * 2**(n-1) candidates.
    """
    if not isinstance(uset, IntervalSet):
        raise NotIntervalRPA("extreme points are defined on interval sets here")
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
                seen.add(tuple((s, p) for s, p in zip(support, values) if p))
    if not seen:
        raise InfeasibleIntervalSet("interval bounds admit no distribution")
    return [dict(d) for d in sorted(seen, key=sort_key)]


def generators(uset):
    """Finite generator list of a polytopic uncertainty set."""
    if isinstance(uset, VertexSet):
        return [dict(d) for d in uset.dists]
    if isinstance(uset, IntervalSet):
        return interval_extreme_points(uset)
    raise NonPolytopicComponent(
        f"no finite generators for {type(uset).__name__}"
    )


def conv_compose(u1: RPA, u2: RPA) -> RPA:
    """Convex parallel composition of polytopic components.

    Every composed uncertainty set is replaced by the vertex set of pairwise
    products of the component generators; the convex hulls agree with the
    hulls of the exact product sets.
    """
    composed = rpa_compose(u1, u2)
    gens = {}
    utrans = {}
    for (s, a), pset in composed.utrans.items():
        lab = composed.label[(s, a)]
        for uset in (pset.left, pset.right):
            if uset not in gens:
                gens[uset] = generators(uset)
        prods = []
        for d1 in gens[pset.left]:
            for d2 in gens[pset.right]:
                prods.append(
                    {
                        (t1, t2): p1 * p2
                        for t1, p1 in d1.items()
                        for t2, p2 in d2.items()
                    }
                )
        utrans[(s, a)] = (lab, VertexSet.of(prods))
    return make_rpa(
        states=composed.states,
        initial=composed.initial,
        utrans=utrans,
        alphabet=composed.alphabet,
        composed_of=(u1, u2),
    )


def interval_relax_compose(u1: RPA, u2: RPA) -> RPA:
    """Interval-arithmetic relaxation of the composition of two interval rPAs.

    Per product successor the bounds are the exact extrema of the product
    entry over the component boxes, i.e. products of component extrema.  The
    result is again interval-form but admits spurious joint distributions.
    """
    def as_bounds(uset):
        if isinstance(uset, IntervalSet):
            return dict(uset.bounds)
        if isinstance(uset, VertexSet) and len(uset.dists) == 1:
            return {s: (p, p) for s, p in uset.dists[0]}
        raise NotIntervalRPA("interval relaxation needs interval components")

    for u in (u1, u2):
        for uset in u.utrans.values():
            as_bounds(uset)
    composed = rpa_compose(u1, u2)
    utrans = {}
    for (s, a), pset in composed.utrans.items():
        lab = composed.label[(s, a)]
        b1, b2 = as_bounds(pset.left), as_bounds(pset.right)
        bounds = {}
        for t1, (lo1, hi1) in b1.items():
            for t2, (lo2, hi2) in b2.items():
                bounds[(t1, t2)] = (lo1 * lo2, hi1 * hi2)
        utrans[(s, a)] = (lab, IntervalSet.of(bounds))
    return make_rpa(
        states=composed.states,
        initial=composed.initial,
        utrans=utrans,
        alphabet=composed.alphabet,
        composed_of=(u1, u2),
    )


def pa_reduce(u: RPA) -> PPA:
    """PA-reduction: one action per (action, generator) pair.

    Nature's choices become strategy choices of a finite PA; valid for
    polytopic (interval or vertex-listed) uncertainty sets.
    """
    trans = {}
    for (s, a), uset in u.utrans.items():
        lab = u.label[(s, a)]
        for gen in generators(uset):
            frozen = freeze_dist(gen)
            action = (a, frozen)
            trans[(s, action)] = (lab, {t: Polynomial.const(p) for t, p in frozen})
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
        trans[(s, a)] = (lab, {t: Polynomial.const(p) for t, p in dist.items() if p})
    return make_ppa(
        states=u.states,
        initial=u.initial,
        params=frozenset(),
        trans=trans,
        alphabet=u.alphabet,
        composed_of=None,
    )

