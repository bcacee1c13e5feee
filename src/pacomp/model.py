"""Parametric probabilistic automata, DFAs, and structural constructions.

State and action identifiers are arbitrary hashable values; compositions use
canonical tuples so that associativity up to renaming stays checkable.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace
from functools import cached_property
from fractions import Fraction

from .algebra import Polynomial, PolyTable, require_total
from .errors import ActionAlphabetClash, AlphabetMismatch

TAU_SYMBOL = "tau"
TAU_ACTION = ("tau",)
TAU_SINK = ("tau-sink",)


def sort_key(x):
    """Total order over heterogeneous identifiers (strings, tuples, numbers)."""
    if isinstance(x, tuple):
        return (2, tuple(map(sort_key, x)))
    if isinstance(x, str):
        return (0, x)
    if isinstance(x, (int, Fraction)):
        return (1, x)
    return (3, repr(x))


class WellDefinedness(enum.Enum):
    GRAPH_PRESERVING = "graph-preserving"
    WELL_DEFINED = "well-defined"
    NEITHER = "neither"


def check_automaton(m, trans, supports):
    """The invariants a PPA and an RPA share; `trans` maps (state, action) to a
    distribution or an uncertainty set, and `supports` yields each entry's
    (state, action) with its successor states."""
    state_set = set(m.states)
    if m.initial not in state_set:
        raise ValueError("initial state not declared")
    if m.label.keys() != trans.keys():
        raise ValueError("label must be defined exactly on the transitions")
    if set(m.actions) & m.alphabet:
        raise ActionAlphabetClash("actions and alphabet symbols must be disjoint")
    action_set = set(m.actions)
    for (s, a), succ in supports:
        if s not in state_set or a not in action_set:
            raise ValueError(f"transition at undeclared (state, action) {(s, a)!r}")
        if not state_set.issuperset(succ):
            raise ValueError("distribution supports undeclared states")
        if m.label[(s, a)] not in m.alphabet:
            raise ValueError(f"label of {(s, a)!r} not in alphabet")


@dataclass(frozen=True)
class PPA:
    """Parametric probabilistic automaton.

    `trans` maps (state, action) to a distribution (state -> probability);
    `label` is total exactly on dom(trans).  `actions` is in `sort_key` order
    (`make_ppa` sorts it once), and `enabled` orders a state's actions by
    their rank in it without sorting again.  The entry form is a model
    invariant: a model with parameters holds `Polynomial`s whose variables
    are all in `params`, and a model with no parameters (a PA) holds exact
    `Fraction`s.  `make_ppa` normalises its input to that form.
    """

    states: tuple
    initial: object
    params: frozenset
    actions: tuple
    trans: dict
    label: dict
    alphabet: frozenset
    composed_of: tuple | None = field(default=None, compare=False)

    def __post_init__(self):
        check_automaton(self, self.trans, self.trans.items())
        form = Polynomial if self.params else Fraction
        # one monomial set, not a variable set per entry: this runs per construction
        monos, misfits = set(), []
        for key, dist in self.trans.items():
            for p in dist.values():
                if isinstance(p, Polynomial):
                    monos.update(p.terms)
                if not isinstance(p, form):
                    misfits.append((key, p))
        stray = {var for mono in monos for var, _ in mono} - self.params
        if stray:
            raise ValueError(f"transition probabilities use undeclared parameters {sorted(stray)}")
        if misfits:
            key, p = misfits[0]
            raise ValueError(f"probability {p!r} of {key!r} is not a {form.__name__}")

    # -- convenience -------------------------------------------------------

    @cached_property
    def _enabled_index(self) -> dict:
        # built once per model: `trans` is never mutated after construction
        rank = {a: i for i, a in enumerate(self.actions)}
        index = {}
        for s, a in self.trans:
            index.setdefault(s, []).append(a)
        return {s: tuple(sorted(acts, key=rank.__getitem__)) for s, acts in index.items()}

    def enabled(self, state):
        """Actions enabled in `state`, in `sort_key` order."""
        return list(self._enabled_index.get(state, ()))

    def dist(self, state, action) -> dict:
        return self.trans[(state, action)]

    @property
    def is_pa(self) -> bool:
        return not self.params


def _rational(p):
    """A parameter-free entry as a Fraction; a polynomial with variables is
    left for the PPA check to reject."""
    if isinstance(p, Polynomial):
        return p.constant_value() if p.is_constant() else p
    return p if isinstance(p, Fraction) else Fraction(p)


def split_transitions(trans, entry=lambda e: e):
    """Split {(state, action): (label, entry)} into the map of converted
    entries, the label map and the actions, deduplicated and in `sort_key`
    order: the input form of `make_ppa` and `robust.make_rpa`."""
    emap, lmap, actions = {}, {}, {}
    for key, (lab, e) in trans.items():
        emap[key] = entry(e)
        lmap[key] = lab
        actions[key[1]] = None
    return emap, lmap, tuple(sorted(actions, key=sort_key))


def make_ppa(states, initial, params, trans, alphabet, composed_of=None) -> PPA:
    """Build a pPA from `trans` given as {(state, action): (label, dist)};
    entries are stored in the form `params` decides (see `PPA`)."""
    params = frozenset(params)
    entry = Polynomial.coerce if params else _rational
    tmap, lmap, actions = split_transitions(
        trans, lambda dist: {t: entry(p) for t, p in dist.items()}
    )
    return PPA(
        states=tuple(states),
        initial=initial,
        params=params,
        actions=actions,
        trans=tmap,
        label=lmap,
        alphabet=frozenset(alphabet),
        composed_of=composed_of,
    )


def dirac(state) -> dict:
    return {state: Fraction(1)}


# ---------------------------------------------------------------------------
# Instantiation and well-definedness
# ---------------------------------------------------------------------------

def instantiate(m: PPA, v) -> PPA:
    """Substitute the valuation into every transition polynomial.

    Composition metadata is instantiated alongside so projections on the
    result see parameter-free components.
    """
    require_total(v, m.params)
    if not m.params:
        return m
    trans = {
        key: {s: p.evaluate(v) for s, p in dist.items()} for key, dist in m.trans.items()
    }
    composed_of = m.composed_of
    if composed_of is not None:
        composed_of = tuple(
            instantiate(c, {k: val for k, val in v.items() if k in c.params})
            for c in composed_of
        )
    return replace(m, params=frozenset(), trans=trans, composed_of=composed_of)


def well_definedness(table: PolyTable, models):
    """The joint well-definedness of `models` at a value vector of `table`.

    Registers every transition entry of the models in `table` and returns a
    function from a vector (D, nums) to a `WellDefinedness`.  Each distinct
    distribution row is checked once per vector: NEITHER when an entry is
    outside [0, D] or the row does not sum to D; otherwise GRAPH_PRESERVING
    when every nonzero polynomial has a nonzero value.  Rows whose entries are
    all constant do not depend on the valuation, so they are checked at the
    first vector only; a PA consists of such rows.
    """
    rows = {
        tuple(sorted(table.slot(p) for p in dist.values()))
        for m in models
        for dist in m.trans.values()
    }
    polys = table.polys

    def constant(row):
        return all(not isinstance(polys[k], Polynomial) or polys[k].is_constant() for k in row)

    def checker(rows):
        slots = sorted({k for row in rows for k in row})
        live = [k for k in slots if polys[k]]

        def check(den, nums):
            if any(not 0 <= nums[k] <= den for k in slots) or any(
                sum(nums[k] for k in row) != den for row in rows
            ):
                return WellDefinedness.NEITHER
            if all(nums[k] for k in live):
                return WellDefinedness.GRAPH_PRESERVING
            return WellDefinedness.WELL_DEFINED

        return check

    check_fixed = checker([row for row in rows if constant(row)])
    check_varying = checker([row for row in rows if not constant(row)])
    fixed = None

    def kind(point):
        nonlocal fixed
        if fixed is None:
            fixed = check_fixed(*point)
        if fixed is WellDefinedness.NEITHER:
            return fixed
        varying = check_varying(*point)
        return fixed if varying is WellDefinedness.GRAPH_PRESERVING else varying

    return kind


def well_defined(m: PPA, v) -> WellDefinedness:
    """Whether `m` instantiates at v to a PA, and to a graph-preserving one:
    the check of `well_definedness` at one sample."""
    require_total(v, m.params)
    table = PolyTable()
    return well_definedness(table, [m])(table.at(v))


# ---------------------------------------------------------------------------
# Parallel composition (synchronise on shared labels)
# ---------------------------------------------------------------------------

def synchronise(m1, m2, entries1, entries2):
    """The rule of every parallel composition: labels in both alphabets
    synchronise, the others interleave.

    `m1` and `m2` are pPAs or rPAs; `entries1` and `entries2` map their
    (state, action) pairs to what the caller combines.  Returns the composed
    states and steps (state pair, action, label, e1, e2), with None for the
    idle side: component 1's transitions in order, a synchronising one with
    each partner in component 2's order as action (a1, a2), any other once
    per state of component 2 as (a1, label); then component 2's interleaved
    transitions, once per state of component 1, as (label, a2).
    """
    alphabet = m1.alphabet | m2.alphabet
    if (set(m1.actions) | set(m2.actions)) & alphabet:
        raise ActionAlphabetClash("component actions must be disjoint from both alphabets")
    shared = m1.alphabet & m2.alphabet
    partners, steps, interleaved2 = {}, [], []
    for (s2, a2), e2 in entries2.items():
        lab = m2.label[(s2, a2)]
        if lab in shared:
            partners.setdefault(lab, []).append((s2, a2, e2))
        else:
            interleaved2 += (((s1, s2), (lab, a2), lab, None, e2) for s1 in m1.states)
    for (s1, a1), e1 in entries1.items():
        lab = m1.label[(s1, a1)]
        if lab in shared:
            steps += (((s1, s2), (a1, a2), lab, e1, e2) for s2, a2, e2 in partners.get(lab, ()))
        else:
            steps += (((s1, s2), (a1, lab), lab, e1, None) for s2 in m2.states)
    return tuple((s1, s2) for s1 in m1.states for s2 in m2.states), steps + interleaved2


def compose(m1: PPA, m2: PPA) -> PPA:
    """Product automaton by `synchronise`; an idle side keeps its state."""
    states, steps = synchronise(m1, m2, m1.trans, m2.trans)
    trans = {}
    for (s1, s2), action, lab, d1, d2 in steps:
        if d2 is None:
            dist = {(t1, s2): p1 for t1, p1 in d1.items()}
        elif d1 is None:
            dist = {(s1, t2): p2 for t2, p2 in d2.items()}
        else:
            dist = {(t1, t2): p1 * p2 for t1, p1 in d1.items() for t2, p2 in d2.items()}
        trans[((s1, s2), action)] = (lab, dist)
    return make_ppa(states, (m1.initial, m2.initial), m1.params | m2.params, trans,
                    m1.alphabet | m2.alphabet, composed_of=(m1, m2))


def unit_ppa(state="unit") -> PPA:
    """One state, no transitions, empty alphabet: the unit of composition."""
    return make_ppa([state], state, frozenset(), {}, frozenset())


# ---------------------------------------------------------------------------
# Alphabet extension and tau extension
# ---------------------------------------------------------------------------

def alphabet_extend(m: PPA, sigma) -> PPA:
    """Add a Dirac self-loop for every symbol of `sigma` the model lacks."""
    fresh = frozenset(sigma) - m.alphabet
    if set(m.actions) & fresh:
        raise ActionAlphabetClash("new symbols collide with existing actions")
    trans = {key: (m.label[key], dict(dist)) for key, dist in m.trans.items()}
    for s in m.states:
        for sym in fresh:
            trans[(s, ("loop", sym))] = (sym, dirac(s))
    return make_ppa(
        states=m.states,
        initial=m.initial,
        params=m.params,
        trans=trans,
        alphabet=m.alphabet | fresh,
        composed_of=m.composed_of,
    )


def tau_extend(m: PPA) -> PPA:
    """Add a fresh sink reachable from every state by a fresh tau-labeled step.

    Complete strategies of the result correspond to partial strategies of the
    original model (unassigned mass is routed to the sink).
    """
    sink, tau_sym, tau_act = TAU_SINK, TAU_SYMBOL, TAU_ACTION
    while sink in m.states:
        sink = (sink,)
    while tau_sym in m.alphabet:
        tau_sym = tau_sym + "'"
    while tau_act in m.actions:
        tau_act = (tau_act,)
    trans = {key: (m.label[key], dict(dist)) for key, dist in m.trans.items()}
    for s in tuple(m.states) + (sink,):
        trans[(s, tau_act)] = (tau_sym, dirac(sink))
    return make_ppa(
        states=tuple(m.states) + (sink,),
        initial=m.initial,
        params=m.params,
        trans=trans,
        alphabet=m.alphabet | {tau_sym},
        composed_of=m.composed_of,
    )


def tau_parts(m: PPA):
    """(sink, tau symbol, tau action) of a tau-extended model."""
    for (s, a), lab in m.label.items():
        if a == TAU_ACTION or (isinstance(a, tuple) and a and a[0] == "tau"):
            return next(iter(m.trans[(s, a)])), lab, a
    raise ValueError("model is not tau-extended")


# ---------------------------------------------------------------------------
# DFAs (bad-prefix automata) and the product construction
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DFA:
    """Deterministic automaton, total over its alphabet."""

    states: tuple
    initial: object
    alphabet: frozenset
    trans: dict  # (state, symbol) -> state
    accepting: frozenset

    def __post_init__(self):
        states = set(self.states)
        if self.initial not in states:
            raise ValueError("initial state not declared")
        for (q, sym), target in self.trans.items():
            if q not in states or target not in states:
                raise ValueError(f"DFA transition {(q, sym)!r} -> {target!r} "
                                 "at an undeclared state")
        if not self.accepting <= states:
            raise ValueError("DFA accepting state not declared: "
                             + ", ".join(sorted(map(repr, self.accepting - states))))
        for q in self.states:
            for sym in self.alphabet:
                if (q, sym) not in self.trans:
                    raise ValueError(f"DFA not total: missing {(q, sym)!r}")


def dfa_forbid_symbols(symbols, alphabet) -> DFA:
    """Bad-prefix automaton for "no symbol of `symbols` ever occurs"."""
    bad = frozenset(symbols)
    if not bad:
        return dfa_never_accepting(alphabet)
    trans = {}
    for sym in alphabet:
        trans[("ok", sym)] = "bad" if sym in bad else "ok"
        trans[("bad", sym)] = "bad"
    return DFA(("ok", "bad"), "ok", frozenset(alphabet), trans, frozenset({"bad"}))


def dfa_forbid_prefix(word, alphabet) -> DFA:
    """Bad-prefix automaton for "the word does not start with `word`"."""
    word = tuple(word)
    states = ["q%d" % i for i in range(len(word))] + ["hit", "safe"]
    trans = {}
    for i in range(len(word)):
        for sym in alphabet:
            nxt = ("q%d" % (i + 1)) if sym == word[i] else "safe"
            if nxt == "q%d" % len(word):
                nxt = "hit"
            trans[("q%d" % i, sym)] = nxt
    for sym in alphabet:
        trans[("hit", sym)] = "hit"
        trans[("safe", sym)] = "safe"
    initial = "q0" if word else "hit"
    return DFA(tuple(states), initial, frozenset(alphabet), trans, frozenset({"hit"}))


def dfa_limit_count(symbol, limit, alphabet) -> DFA:
    """Bad-prefix automaton for "symbol occurs at most `limit` times"."""
    states = tuple(range(limit + 1)) + ("over",)
    trans = {}
    for i in range(limit + 1):
        for sym in alphabet:
            if sym == symbol:
                trans[(i, sym)] = i + 1 if i < limit else "over"
            else:
                trans[(i, sym)] = i
    for sym in alphabet:
        trans[("over", sym)] = "over"
    return DFA(states, 0, frozenset(alphabet), trans, frozenset({"over"}))


def dfa_never_accepting(alphabet) -> DFA:
    trans = {("ok", sym): "ok" for sym in alphabet}
    return DFA(("ok",), "ok", frozenset(alphabet), trans, frozenset())


def dfa_absorb_accepting(b: DFA) -> DFA:
    """Make accepting states absorbing; bad-prefix semantics is unchanged."""
    trans = {
        (q, sym): (q if q in b.accepting else t) for (q, sym), t in b.trans.items()
    }
    return DFA(b.states, b.initial, b.alphabet, trans, b.accepting)


def dfa_union_bad(b1: DFA, b2: DFA) -> DFA:
    """Bad-prefix automaton of the union of two safety languages.

    A word violates L1 ∪ L2 iff both automata eventually accept, so the
    product (over the joint alphabet, each side absorbing) accepts when both
    components accept.
    """
    b1, b2 = dfa_absorb_accepting(b1), dfa_absorb_accepting(b2)
    alphabet = b1.alphabet | b2.alphabet
    states = tuple((q1, q2) for q1 in b1.states for q2 in b2.states)
    trans = {}
    for (q1, q2) in states:
        for sym in alphabet:
            n1 = b1.trans.get((q1, sym), q1)
            n2 = b2.trans.get((q2, sym), q2)
            trans[((q1, q2), sym)] = (n1, n2)
    accepting = frozenset(
        (q1, q2) for (q1, q2) in states if q1 in b1.accepting and q2 in b2.accepting
    )
    return DFA(states, (b1.initial, b2.initial), frozenset(alphabet), trans, accepting)


def dfa_product(m: PPA, b: DFA):
    """Synchronous product with a bad-prefix DFA.

    Symbols in the DFA's alphabet advance it; all others leave it untouched.
    Returns the product pPA and the set of states whose DFA component accepts.
    """
    if not b.alphabet <= m.alphabet:
        raise AlphabetMismatch("DFA alphabet must be contained in the model alphabet")
    states = tuple((s, q) for s in m.states for q in b.states)
    trans, label = {}, {}
    for (s, a), dist in m.trans.items():
        lab = m.label[(s, a)]
        for q in b.states:
            q2 = b.trans[(q, lab)] if lab in b.alphabet else q
            trans[((s, q), a)] = {(t, q2): p for t, p in dist.items()}
            label[((s, q), a)] = lab
    # the entries are already in their form and the actions sorted
    product = PPA(
        states=states,
        initial=(m.initial, b.initial),
        params=m.params,
        actions=m.actions,
        trans=trans,
        label=label,
        alphabet=m.alphabet,
        composed_of=m.composed_of,
    )
    bad = frozenset((s, q) for (s, q) in states if q in b.accepting)
    return product, bad


# ---------------------------------------------------------------------------
# Structural comparison up to canonical renaming
# ---------------------------------------------------------------------------

def reachable_states(m: PPA):
    """States reachable from the initial state through declared transitions."""
    seen = {m.initial}
    frontier = [m.initial]
    while frontier:
        s = frontier.pop()
        for a in m.enabled(s):
            for t in m.trans[(s, a)]:
                if t not in seen:
                    seen.add(t)
                    frontier.append(t)
    return seen


def prune_unreachable(m: PPA) -> PPA:
    keep = reachable_states(m)
    trans = {
        (s, a): (m.label[(s, a)], dict(d))
        for (s, a), d in m.trans.items()
        if s in keep
    }
    return make_ppa(
        states=tuple(s for s in m.states if s in keep),
        initial=m.initial,
        params=m.params,
        trans=trans,
        alphabet=m.alphabet,
        composed_of=m.composed_of,
    )


def canonical_form(m: PPA):
    """Canonical structure summary, invariant under consistent state renaming.

    States are renumbered by BFS order from the initial state (action edges
    explored in label order, successors in probability-polynomial order), so
    isomorphic automata yield equal summaries.
    """
    order = {m.initial: 0}
    queue = [m.initial]
    while queue:
        s = queue.pop(0)
        edges = sorted((m.label[(s, a)], sort_key(a), a) for a in m.enabled(s))
        for _, _, a in edges:
            dist = m.trans[(s, a)]
            for t in sorted(dist, key=lambda t: (str(Polynomial.coerce(dist[t])), sort_key(t))):
                if t not in order:
                    order[t] = len(order)
                    queue.append(t)
    summary = []
    for (s, a), dist in m.trans.items():
        if s not in order:
            continue
        entry = tuple(
            sorted(
                (order[t], str(Polynomial.coerce(p)))
                for t, p in dist.items()
                if t in order
            )
        )
        summary.append((order[s], m.label[(s, a)], entry))
    return (len(order), frozenset(m.alphabet), tuple(sorted(summary)))


def isomorphic(m1: PPA, m2: PPA) -> bool:
    """Structural equality up to the canonical renaming (reachable parts)."""
    return canonical_form(m1) == canonical_form(m2)
