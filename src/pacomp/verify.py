"""Objective solvers and region-level satisfaction checks.

Probabilistic objectives are safety languages given by bad-prefix DFAs;
reward objectives are expected total rewards over transition labels.  All
solvers are exact and end in two mechanisms:

- one Markov-chain solver (`_chain_solve`): expected total gain per state,
  INF on recurrent positive gain, the rest by one rational linear solve.
  Reachability is the case with absorbing targets.  It evaluates fixed
  strategies and witnesses, and drives the policy iteration behind optimal
  reachability and maximal expected reward;
- one occupation-measure LP builder (`_occupation_lp`): expected
  state-action frequencies routing one unit of flow into a settle region,
  solved by the exact simplex, for multi-objective achievability and
  minimal expected reward.

One query structure (`_MoQuery`) serves the LP checks, the re-check of
their witnesses and the values of fixed strategies.  It is built once per
query and model: the joint DFA product of the parametric model (its tau
extension for partial strategies), the reach targets, and the slot of every
transition probability and reward in a `PolyTable` of distinct polynomials.
A region check builds one table for its queries and the well-definedness
check: each sample is one integer value vector of it, from which the sample
is validated (`_checked_samples`, and `_require_nonnegative_rewards` for the
rewards, for every sample before the first solve) and then solved.  The settle set, `stay` map, end-component check and LP
layout depend only on which values are zero (and on the rewards' signs), so
they are built once per such sign pattern: graph-preserving samples share
one, and a sample with a smaller support, such as a p = 0 corner, gets its
own.  Per sample, the LP's
coefficients are filled in and solved, and a witness is built and re-checked
only when the query is achievable.  A strategy's values are the witness
re-check without settle mass: `chain_language_prob`, `chain_expected_reward`
and `solution_value` are the structure on an instantiated model, and
`monotone_check` asks one structure at every sampled valuation.  The region
checks share one sample loop.  Nothing is kept beyond one call.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .algebra import Polynomial, PolyTable, poly_eval, region_samples, require_total, valuation_key
from .errors import (
    AlphabetMismatch,
    EmptyRegion,
    IllDefinedValuationInRegion,
    MissingParameter,
    NotGraphPreserving,
    SideConditionError,
    UnboundedReward,
)
from .exactlp import OPTIMAL, LinearProgram, gauss_solve
from .model import (
    PPA,
    WellDefinedness,
    dfa_absorb_accepting,
    dfa_product,
    sort_key,
    tau_extend,
    well_definedness,
)
from .semantics import MemorylessStrategy

INF = float("inf")
STRATEGY_CAP = 20_000  # most strategies `enumerate_memoryless` returns

_NEGATION = {">=": "<", ">": "<=", "<=": ">", "<": ">="}


def _cmp(value, cmp, threshold) -> bool:
    if cmp == ">=":
        return value >= threshold
    if cmp == ">":
        return value > threshold
    if cmp == "<=":
        return value <= threshold
    if cmp == "<":
        return value < threshold
    raise ValueError(f"bad comparison {cmp!r}")


@dataclass(frozen=True)
class ProbObjective:
    """Probability of a prefix-closed language (bad-prefix DFA) vs a threshold."""

    cmp: str
    threshold: Fraction
    dfa: object
    name: str = ""

    @property
    def alphabet(self):
        return self.dfa.alphabet

    def negate(self):
        return ProbObjective(_NEGATION[self.cmp], self.threshold, self.dfa, self.name)


@dataclass(frozen=True)
class RewardObjective:
    """Expected total reward of a per-symbol reward function vs a threshold."""

    cmp: str
    threshold: Fraction
    rewards: tuple  # sorted tuple of (symbol, Polynomial or Fraction)
    name: str = ""

    @property
    def alphabet(self):
        return frozenset(sym for sym, _ in self.rewards)

    def reward_map(self):
        return dict(self.rewards)

    def negate(self):
        return RewardObjective(_NEGATION[self.cmp], self.threshold, self.rewards, self.name)


def safety(dfa, threshold) -> ProbObjective:
    return ProbObjective(">=", Fraction(threshold), dfa)


def reward_objective(cmp, threshold, rewards, name="") -> RewardObjective:
    items = tuple(sorted(((str(s), Polynomial.coerce(r)) for s, r in dict(rewards).items())))
    return RewardObjective(cmp, Fraction(threshold), items, name)


def query_alphabet(query) -> frozenset:
    out = frozenset()
    for obj in query:
        out |= obj.alphabet
    return out


def is_safe_query(query) -> bool:
    return all(isinstance(o, ProbObjective) and o.cmp == ">=" for o in query)


def instantiate_objective(obj, v):
    if isinstance(obj, RewardObjective):
        items = tuple((sym, poly_eval(r, v)) for sym, r in obj.rewards)
        return RewardObjective(obj.cmp, obj.threshold, items, obj.name)
    return obj


@dataclass
class Verdict:
    """Outcome of a region-level check, sound per sampled valuation."""

    status: str  # "holds" | "fails" | "unknown"
    witness: object = None
    details: list = field(default_factory=list)
    caveat: str = "sound per sampled valuation"

    @property
    def holds(self):
        return self.status == "holds"


# ---------------------------------------------------------------------------
# Graph utilities on parameter-free models
# ---------------------------------------------------------------------------

def _support(dist) -> frozenset:
    return frozenset(t for t, p in dist.items() if p)


def _sccs(nodes, succ):
    """Tarjan, iterative; returns list of frozensets in deterministic order."""
    index = {}
    low = {}
    on_stack = set()
    stack = []
    sccs = []
    counter = [0]

    for root in sorted(nodes, key=sort_key):
        if root in index:
            continue
        work = [(root, iter(succ(root)))]
        index[root] = low[root] = counter[0]
        counter[0] += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            node, it = work[-1]
            advanced = False
            for nxt in it:
                if nxt not in index:
                    index[nxt] = low[nxt] = counter[0]
                    counter[0] += 1
                    stack.append(nxt)
                    on_stack.add(nxt)
                    work.append((nxt, iter(succ(nxt))))
                    advanced = True
                    break
                if nxt in on_stack:
                    low[node] = min(low[node], index[nxt])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
            if low[node] == index[node]:
                comp = set()
                while True:
                    t = stack.pop()
                    on_stack.discard(t)
                    comp.add(t)
                    if t == node:
                        break
                sccs.append(frozenset(comp))
    return sccs


def _backward_reach(succ, seeds) -> set:
    """Seeds plus every state of the successor map {s: successors} with a
    path into them (least fixpoint, walked over predecessor lists)."""
    preds = {}
    for s, targets in succ.items():
        for t in targets:
            preds.setdefault(t, []).append(s)
    seen = set(seeds)
    stack = list(seen)
    while stack:
        for s in preds.get(stack.pop(), ()):
            if s not in seen:
                seen.add(s)
                stack.append(s)
    return seen


def _settle(states, acts, trans, keep):
    """Greatest region in which a strategy can stay forever.

    A state stays when it is a dead end, or when one of its actions accepted
    by `keep(state, action)` has its support inside the region (greatest
    fixpoint).  Returns the region and, for every state of it that is not a
    dead end, the first such action in `acts` order.
    """
    stayers = {
        s: [
            (a, {t for t, p in trans[(s, a)].items() if p})
            for a in acts.get(s, ())
            if keep(s, a)
        ]
        for s in states
    }
    region = set(states)
    while True:
        stay = {}
        for s in states:
            if s in region:
                for a, supp in stayers[s]:
                    if supp <= region:
                        stay[s] = a
                        break
        leaving = {s for s in region if acts.get(s) and s not in stay}
        if not leaving:
            return region, stay
        region -= leaving


def maximal_end_components(trans, states):
    """Maximal end components of an MDP given as {(s, a): dist}.

    Returns a list of (state set, action set) pairs.
    """
    result = []
    queue = [frozenset(states)]
    while queue:
        cand = queue.pop()
        allowed = {}
        for (s, a), dist in trans.items():
            if s in cand and _support(dist) <= cand:
                allowed.setdefault(s, []).append(a)
        live = frozenset(s for s in cand if allowed.get(s))
        if live != cand:
            if live:
                queue.append(live)
            continue
        if not cand:
            continue

        def succ(s):
            out = set()
            for a in allowed[s]:
                out |= _support(trans[(s, a)])
            return sorted(out, key=sort_key)

        comps = _sccs(cand, succ)
        if len(comps) == 1 and comps[0] == cand:
            has_edge = any(
                _support(trans[(s, a)]) for s in cand for a in allowed[s]
            )
            if has_edge:
                actions = {
                    (s, a)
                    for s in cand
                    for a in allowed[s]
                    if _support(trans[(s, a)]) <= cand
                }
                result.append((cand, actions))
            continue
        for comp in comps:
            queue.append(comp)
    return result


# ---------------------------------------------------------------------------
# Markov chains: expected total gain, and reachability as a special case
# ---------------------------------------------------------------------------

def _chain_solve(chain, gain, init=None):
    """Expected total gain per state of the Markov chain {s: {t: p > 0}}.

    `gain` maps a state to the reward collected on leaving it.  A state is
    INF when it can reach a closed SCC that has an internal edge and positive
    gain, and 0 when it cannot reach positive gain; one exact linear solve
    gives the rest.  With `init`, only values[init] is meant to be read, and
    the solve is skipped when that value is already INF or 0.
    """
    succ = lambda s: chain.get(s, {})
    # a closed SCC with an internal edge never reaches a dead end
    trapped = set(chain) - _backward_reach(chain, [s for s in chain if not chain[s]])
    recurrent = set()
    if any(gain.get(s, 0) > 0 for s in trapped):
        for comp in _sccs(trapped, succ):
            if any(gain.get(s, 0) > 0 for s in comp) and all(
                succ(s).keys() <= comp for s in comp
            ):
                recurrent |= comp
    infinite = _backward_reach(chain, recurrent)
    positive = _backward_reach(chain, {s for s in chain if gain.get(s, 0) > 0})
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
        values.update(zip(unknown, gauss_solve(rows, rhs)))
    return values


def _reach_prob(chain, targets, init) -> Fraction:
    """P(eventually targets) from `init`: the chain solve with the targets
    made absorbing and each state's one-step mass into them as its gain."""
    if init in targets:
        return Fraction(1)
    absorbed = {s: {} if s in targets else dist for s, dist in chain.items()}
    gain = {
        s: sum((p for t, p in dist.items() if t in targets), Fraction(0))
        for s, dist in absorbed.items()
    }
    return _chain_solve(absorbed, gain, init)[init]


def _rew(pa, rewards, s, a) -> Fraction:
    return rewards.get(pa.label[(s, a)], Fraction(0))


def _policy_iteration(pa, deciding, reward):
    """Maximal expected total reward over det memoryless policies.

    States in `deciding` pick one enabled action each, every other state
    stops; `reward(s, a)` is collected on taking a in s.  The start policy
    takes the first enabled action, and a state switches only on strict
    improvement, so the returned policy depends on the model alone.  Returns
    the policy and the value of every state under it.
    """
    policy = {}
    for s in deciding:
        acts = pa.enabled(s)
        if acts:
            policy[s] = acts[0]
    while True:
        chain = {s: {} for s in pa.states}
        for s, a in policy.items():
            chain[s] = {t: p for t, p in pa.dist(s, a).items() if p}
        values = _chain_solve(chain, {s: reward(s, a) for s, a in policy.items()})
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


# ---------------------------------------------------------------------------
# Exact optimal reachability
# ---------------------------------------------------------------------------

def max_reach(pa: PPA, targets):
    """Optimal reachability probability with an attaining det strategy."""
    if not pa.is_pa:
        raise ValueError("max_reach needs a parameter-free model")
    targets = frozenset(targets)
    # targets stop; the gain of an action is its one-step mass into them
    policy, values = _policy_iteration(
        pa,
        [s for s in pa.states if s not in targets],
        lambda s, a: sum(
            (p for t, p in pa.dist(s, a).items() if t in targets), Fraction(0)
        ),
    )
    values = {s: Fraction(1) if s in targets else values[s] for s in pa.states}
    strategy = MemorylessStrategy(
        {s: {a: Fraction(1)} for s, a in policy.items()}, complete=False
    )
    return values.get(pa.initial, Fraction(0)), strategy, values


def safety_prob(pa: PPA, obj: ProbObjective) -> Fraction:
    """inf over strategies of Pr(L); equals 1 - max reach of the bad states."""
    if not obj.alphabet <= pa.alphabet:
        raise AlphabetMismatch("objective alphabet exceeds model alphabet")
    product, bad = dfa_product(pa, dfa_absorb_accepting(obj.dfa))
    value, _, _ = max_reach(product, bad)
    return 1 - value


# ---------------------------------------------------------------------------
# Exact expected total reward
# ---------------------------------------------------------------------------

def _min_total_reward_lp(pa: PPA, rew_const):
    """Exact minimal expected total reward via an occupation-measure LP.

    A strategy has finite reward iff it almost surely ends up lingering in a
    zero-reward closed region, so route one unit of flow from the initial
    state into such regions while minimizing the collected reward.  Greedy
    policy improvement is unsound here: zero-reward cycles create tied
    non-optimal fixpoints.
    """
    states = sorted(_reachable_support(pa), key=sort_key)
    acts = {s: pa.enabled(s) for s in states}
    trans = {
        (s, a): {t: p for t, p in pa.dist(s, a).items() if p}
        for s in states
        for a in acts[s]
    }
    # greatest region that can avoid rewards forever
    settle, _ = _settle(
        states, acts, trans, lambda s, a: _rew(pa, rew_const, s, a) == 0
    )
    values, support = [], {}
    for key, dist in trans.items():
        support[key] = tuple((t, len(values) + i) for i, t in enumerate(dist))
        values.extend(dist.values())
    num_vars, rows, y_index, _ = _occupation_lp(pa.initial, states, support, settle)
    objective = {}
    for key, j in y_index.items():
        r = _rew(pa, rew_const, *key)
        if r:
            objective[j] = r
    status, _, value = _lp_at(num_vars, rows, values).solve(objective, maximize=False)
    if status != OPTIMAL:
        return INF  # no strategy can stop collecting reward almost surely
    return value


def exp_total_reward(pa: PPA, rewards, mode="max"):
    """Extremal expected total reward over complete strategies.

    `mode` is "max" or "min".  Returns a Fraction, or float infinity when
    divergence is optimal/forced.  The maximum is computed by policy
    iteration (safe: its tied fixpoints coincide with the least Bellman
    fixpoint); the minimum by an exact occupation-measure linear program.
    """
    if mode not in ("max", "min"):
        raise ValueError(f"mode must be 'max' or 'min', not {mode!r}")
    if not pa.is_pa:
        raise ValueError("exp_total_reward needs a parameter-free model")
    rew_const = {s: Polynomial.coerce(r).constant_value() for s, r in dict(rewards).items()}
    if any(r < 0 for r in rew_const.values()):
        raise ValueError("rewards must be nonnegative")
    if not set(rew_const) <= pa.alphabet:
        raise AlphabetMismatch("reward alphabet exceeds model alphabet")

    if mode == "min":
        return _min_total_reward_lp(pa, rew_const)

    from_init = _reachable_support(pa)
    for comp, actions in maximal_end_components(pa.trans, pa.states):
        if comp & from_init and any(
            _rew(pa, rew_const, s, a) > 0 for (s, a) in actions
        ):
            return INF

    _, values = _policy_iteration(
        pa, pa.states, lambda s, a: _rew(pa, rew_const, s, a)
    )
    return values.get(pa.initial, Fraction(0))


def _reachable_support(pa: PPA):
    seen = {pa.initial}
    stack = [pa.initial]
    while stack:
        s = stack.pop()
        for a in pa.enabled(s):
            for t in _support(pa.trans[(s, a)]):
                if t not in seen:
                    seen.add(t)
                    stack.append(t)
    return seen


# ---------------------------------------------------------------------------
# Multi-objective achievability (occupation-measure LP)
# ---------------------------------------------------------------------------

def _fill(form, values):
    """The coefficients of a row template {column: (c, plus, minus)} at one
    value vector: c plus the values indexed by `plus`, minus those indexed by
    `minus`."""
    out = {}
    for j, (c, plus, minus) in form.items():
        for k in plus:
            c = c + values[k] if c else values[k]
        for k in minus:
            c = c - values[k] if c else -values[k]
        out[j] = c
    return out


def _lp_at(num_vars, rows, values):
    """The LinearProgram of ("eq" | "ub" | "lb", template, rhs) rows at one
    value vector."""
    lp = LinearProgram(num_vars)
    add = {"eq": lp.add_eq, "ub": lp.add_ub, "lb": lp.add_lb}
    for kind, form, rhs in rows:
        add[kind](_fill(form, values), rhs)
    return lp


def _occupation_lp(init, states, support, settle, extra=0):
    """Occupation-measure LP of one unit of flow from `init` into `settle`.

    `support` maps each (state, action) key to its successors with nonzero
    probability, as (successor, k) pairs: the probability is entry k of a
    value vector, and the rows are templates over that vector (`_lp_at`).
    Columns: y[(s, a)], the expected number of times a is taken in s, for the
    keys of `support` in `sort_key` order; then w[s], the probability of
    settling in s, for the settle states in `sort_key` order; then `extra`
    columns left to the caller.  Rows: one flow balance per state, in
    `states` order, then sum(w) = 1.  Row and column order fix the simplex's
    pivot path, so they must not change.  Returns the number of columns, the
    rows, y_index and w_index.
    """
    action_keys = sorted(support, key=sort_key)
    settle_states = sorted(settle, key=sort_key)
    y_index = {key: i for i, key in enumerate(action_keys)}
    w_index = {s: len(action_keys) + i for i, s in enumerate(settle_states)}
    balance = {s: {} for s in states}
    for key, j in y_index.items():
        balance[key[0]][j] = (1, (), ())
        for t, k in support[key]:
            c, _, minus = balance[t].get(j, (0, (), ()))
            balance[t][j] = (c, (), minus + (k,))
    for s, j in w_index.items():
        balance[s][j] = (1, (), ())
    rows = [("eq", balance[s], 1 if s == init else 0) for s in states]
    rows.append(("eq", {j: (1, (), ()) for j in w_index.values()}, 1))
    return len(action_keys) + len(settle_states) + extra, rows, y_index, w_index


# comparison -> (row kind, coefficient of the shared slack column)
_PROB_ROW = {">=": ("ub", 0), ">": ("ub", 1), "<=": ("lb", 0), "<": ("lb", -1)}
_REWARD_ROW = {">=": ("lb", 0), ">": ("lb", -1), "<=": ("ub", 0), "<": ("ub", 1)}


class _MoQuery:
    """One conjunction of objectives on one model, for any number of samples.

    The structure is built once: the joint product of the model (its tau
    extension for partial strategies) with the objectives' absorbing
    bad-prefix DFAs, each state's signature (the DFAs in an accepting state),
    and the reach-target sets.  Transition probabilities and rewards refer by
    index to their slots in a `PolyTable` that the caller may share with other
    queries and the well-definedness check, so a sample is one value vector
    of that table.  What depends on which values are zero, and on the signs
    of the rewards -- the end-component check, the settle set and `stay` map,
    and the LP layout -- is built once per sign pattern (`_layout`).  Each
    sample then only fills in the LP's coefficients, solves it, and builds a
    witness when the conjunction is achievable.  `strategy_values` evaluates
    fixed strategies of `model` on the same product.  The objectives'
    alphabets are the caller's to check (`_require_alphabet`).
    """

    def __init__(self, m: PPA, query, strategy_class, table: PolyTable):
        work = tau_extend(m) if strategy_class == "prt" else m
        self.model, self.strategy_class = work, strategy_class
        self.prob_objs = [o for o in query if isinstance(o, ProbObjective)]
        self.rew_objs = [o for o in query if isinstance(o, RewardObjective)]
        self.strict = any(o.cmp in ("<", ">") for o in query)
        slot = table.slot
        entries = {
            key: tuple((t, slot(p)) for t, p in dist.items())
            for key, dist in work.trans.items()
        }
        dfas = [dfa_absorb_accepting(o.dfa) for o in self.prob_objs]
        init = (work.initial, tuple(b.initial for b in dfas))
        acts, ptrans, plabel = {}, {}, {}
        seen = {init}
        stack = [init]
        while stack:
            ps = stack.pop()
            s, qs = ps
            acts[ps] = work.enabled(s)
            for a in acts[ps]:
                lab = work.label[(s, a)]
                nqs = tuple(
                    b.trans[(q, lab)] if lab in b.alphabet else q
                    for b, q in zip(dfas, qs)
                )
                ptrans[(ps, a)] = tuple(((t, nqs), k) for t, k in entries[(s, a)])
                plabel[(ps, a)] = lab
                for t, _ in ptrans[(ps, a)]:
                    if t not in seen:
                        seen.add(t)
                        stack.append(t)
        self.init, self.states = init, sorted(seen, key=sort_key)
        self.acts, self.ptrans, self.plabel = acts, ptrans, plabel
        self.signature = {
            ps: frozenset(i for i, b in enumerate(dfas) if ps[1][i] in b.accepting)
            for ps in self.states
        }
        self.targets = [
            frozenset(ps for ps in self.states if i in self.signature[ps])
            for i in range(len(dfas))
        ]
        self.reward_slots = [
            {sym: slot(r) for sym, r in o.rewards} for o in self.rew_objs
        ]
        self._layouts = {}

    def negative_reward(self, point):
        """A symbol whose reward is negative at the table vector `point`, or
        None: expected total rewards are defined here for nonnegative
        rewards only."""
        nums = point[1]
        return next((sym for slots in self.reward_slots for sym, k in slots.items()
                     if nums[k] < 0), None)

    def _reward(self, values, key, j):
        """Reward of reward objective j on the product transition `key`."""
        k = self.reward_slots[j].get(self.plabel[key])
        return Fraction(0) if k is None else values[k]

    def _chain_parts(self, values):
        """Each product transition's nonzero probabilities, and each reward
        objective's reward per product transition, at one value vector."""
        trans = {
            key: {t: values[k] for t, k in dist if values[k]}
            for key, dist in self.ptrans.items()
        }
        rewards = [
            {key: self._reward(values, key, j) for key in self.ptrans}
            for j in range(len(self.rew_objs))
        ]
        return trans, rewards

    def strategy_values(self, point):
        """sigma -> the exact values at the table vector `point` of the
        probability objectives, then the reward objectives, under the
        memoryless strategy sigma of `self.model`; missing mass stops, and
        mass on an action the state does not enable is ignored."""
        trans, rewards = self._chain_parts(_values(point))

        def values(sigma):
            choice = sigma.choice
            mix = {ps: choice[ps[0]] for ps in self.states if ps[0] in choice}
            return _witness_values(
                self.init, self.states, trans, self.targets, rewards, mix, {}, {}
            )

        return values

    def _layout(self, values):
        """Settle set, stay map and LP rows for the sign pattern of `values`."""
        n_rew = len(self.rew_objs)

        def reward(key, j):
            return self._reward(values, key, j)

        support = {
            key: tuple((t, k) for t, k in dist if values[k])
            for key, dist in self.ptrans.items()
        }
        trans = {key: {t: values[k] for t, k in dist} for key, dist in support.items()}
        if n_rew:
            for comp, actions in maximal_end_components(trans, self.states):
                for key in actions:
                    if any(reward(key, j) > 0 for j in range(n_rew)):
                        raise UnboundedReward(
                            "a reward objective meets an infinite-reward end component"
                        )
        sig = self.signature

        def lingers(ps, a):
            """Staying on a may neither collect reward nor cross a signature layer."""
            return all(reward((ps, a), j) == 0 for j in range(n_rew)) and all(
                sig[t] == sig[ps] for t in trans[(ps, a)]
            )

        settle, stay = _settle(self.states, self.acts, trans, lingers)
        num_vars, rows, y_index, w_index = _occupation_lp(
            self.init, self.states, support, settle, int(self.strict)
        )
        t_index = num_vars - 1  # the slack column, used only when strict
        for o, target in zip(self.prob_objs, self.targets):
            # P(eventually target) = const + sum of y[key] * (mass of key into target)
            form = {}
            for key, dist in support.items():
                if key[0] not in target:
                    plus = tuple(k for t, k in dist if t in target)
                    if plus:
                        form[y_index[key]] = (0, plus, ())
            const = 1 if self.init in target else 0
            if o.cmp in _PROB_ROW:
                kind, slack = _PROB_ROW[o.cmp]
                if slack:
                    form[t_index] = (slack, (), ())
                rows.append((kind, form, 1 - o.threshold - const))
        for j, o in enumerate(self.rew_objs):
            form = {}
            for key, col in y_index.items():
                k = self.reward_slots[j].get(self.plabel[key])
                if k is not None and values[k]:
                    form[col] = (0, (k,), ())
            if o.cmp in _REWARD_ROW:
                kind, slack = _REWARD_ROW[o.cmp]
                if slack:
                    form[t_index] = (slack, (), ())
                rows.append((kind, form, o.threshold))
        if self.strict:
            rows.append(("ub", {t_index: (1, (), ())}, 1))
        return num_vars, rows, y_index, w_index, stay

    def solve(self, point):
        """("achievable", witness) or ("unachievable", None) at the table
        vector `point`."""
        signs = tuple((n > 0) - (n < 0) for n in point[1])
        values = _values(point)
        if signs not in self._layouts:
            self._layouts[signs] = self._layout(values)
        num_vars, rows, y_index, w_index, stay = self._layouts[signs]
        lp = _lp_at(num_vars, rows, values)
        if self.strict:
            status, x, value = lp.solve({num_vars - 1: Fraction(1)}, maximize=True)
            if status != OPTIMAL or value <= 0:
                return "unachievable", None
        else:
            status, x, _ = lp.solve({})
            if status != OPTIMAL:
                return "unachievable", None
        return "achievable", self._witness(values, x, y_index, w_index, stay)

    def _witness(self, values, x, y_index, w_index, stay):
        """The two-mode witness strategy of the LP solution x, re-verified exactly."""
        mix, settle_mass = {}, {}
        for ps in self.states:
            total = Fraction(0)
            weights = {}
            for a in self.acts[ps]:
                freq = x[y_index[(ps, a)]]
                if freq > 0:
                    weights[a] = freq
                    total += freq
            w = x[w_index[ps]] if ps in w_index else Fraction(0)
            total += w
            if total == 0:
                continue
            mix[ps] = {a: v / total for a, v in weights.items()}
            if w:
                settle_mass[ps] = w / total

        trans, rewards = self._chain_parts(values)
        vals = _witness_values(
            self.init, self.states, trans, self.targets, rewards, mix, settle_mass, stay
        )
        objectives = self.prob_objs + self.rew_objs
        for o, val in zip(objectives, vals):
            if not _cmp(val, o.cmp, o.threshold):
                raise RuntimeError("internal: witness failed exact re-verification")
        return {
            "kind": "product-memoryless",
            "strategy_class": self.strategy_class,
            "mix": mix,
            "settle": settle_mass,
            "stay": dict(stay),
            "values": {
                (o.name or f"objective-{k}"): val
                for k, (o, val) in enumerate(zip(objectives, vals))
            },
        }


def _values(point):
    """The rational values of a table vector (D, nums)."""
    den, nums = point
    return [Fraction(n, den) for n in nums]


def _require_alphabet(m: PPA, query):
    for obj in query:
        if not obj.alphabet <= m.alphabet:
            raise AlphabetMismatch(
                f"objective alphabet {sorted(obj.alphabet)} exceeds the model's"
            )


def mo_achievable(pa: PPA, query, strategy_class="cmp"):
    """Exact achievability of a conjunction of objectives by one strategy.

    Returns ("achievable", witness) or ("unachievable", None).  Partial
    strategies are handled by checking complete strategies of the tau
    extension.  Strict comparisons are decided by maximizing a shared rational
    slack; every witness is re-evaluated exactly before being reported.  This
    is the query's structure on `pa` solved at its (constant) values; region
    checks reuse one structure across their samples.
    """
    if not pa.is_pa:
        raise ValueError("mo_achievable needs a parameter-free model")
    _require_alphabet(pa, query)
    table = PolyTable()
    mo_query = _MoQuery(pa, query, strategy_class, table)
    point = table.at({})
    sym = mo_query.negative_reward(point)
    if sym is not None:
        raise ValueError(f"the reward of {sym!r} is negative")
    return mo_query.solve(point)


def _witness_values(init, states, trans, targets, rewards, mix, settle_mass, stay):
    """Exact objective values of the two-mode witness strategy.

    `trans` holds each key's nonzero probabilities.  Go-mode state ps plays
    mix[ps] (mass on a key outside `trans` is ignored) and settles with
    settle_mass[ps]; stay-mode ps plays stay[ps] forever.  One value per
    target set (the probability of never reaching it), then one per reward
    map {key: reward} (the expected total reward).
    """
    chain = {}
    gain_of = [{} for _ in rewards]
    for ps in states:
        go, dist = ("go", ps), {}
        for a, wgt in mix.get(ps, {}).items():
            key = (ps, a)
            if not wgt or key not in trans:
                continue
            for t, p in trans[key].items():
                if wgt != 1:
                    p = wgt * p
                t = ("go", t)
                dist[t] = dist[t] + p if t in dist else p
            for gain, rew in zip(gain_of, rewards):
                r = rew[key]
                if r:
                    if wgt != 1:
                        r = wgt * r
                    gain[go] = gain[go] + r if go in gain else r
        if settle_mass.get(ps):
            dist[("stay", ps)] = settle_mass[ps]
        chain[go] = dist
    # stay nodes exist only where settling or a stay step reaches them
    for ps in settle_mass:
        chain.setdefault(("stay", ps), {})
    for ps, a in stay.items():
        chain[("stay", ps)] = succ = {("stay", t): p for t, p in trans[(ps, a)].items()}
        for t in succ:
            chain.setdefault(t, {})
    out = []
    for target in targets:
        marked = {(mode, ps) for mode in ("go", "stay") for ps in target}
        out.append(1 - _reach_prob(chain, marked, ("go", init)))
    for gain in gain_of:
        out.append(_chain_solve(chain, gain, ("go", init))[("go", init)])
    return out


# ---------------------------------------------------------------------------
# Fixed-strategy values (the solution function at one valuation)
# ---------------------------------------------------------------------------

def solution_value(m_inst: PPA, sigma: MemorylessStrategy, objective):
    """Value of the solution function at one instantiated model and strategy."""
    _require_alphabet(m_inst, (objective,))
    table = PolyTable()
    query = _MoQuery(m_inst, (objective,), "cmp", table)
    return query.strategy_values(table.at({}))(sigma)[0]


def chain_language_prob(pa: PPA, sigma: MemorylessStrategy, dfa) -> Fraction:
    """Pr(L) of the chain induced by a memoryless (possibly partial) strategy."""
    return solution_value(pa, sigma, safety(dfa, 0))


def chain_expected_reward(pa: PPA, sigma: MemorylessStrategy, rewards) -> Fraction:
    """Expected total reward of the induced chain; infinity on divergence."""
    return solution_value(pa, sigma, reward_objective(">=", 0, rewards))


# ---------------------------------------------------------------------------
# Region-level checks
# ---------------------------------------------------------------------------

def _checked_samples(region, resolution, *models, table=None, filter_gp=False):
    """The region's samples, each of which instantiates every model to a PA
    (only the graph-preserving ones with `filter_gp`), as (valuation, vector)
    pairs: the vector is `table`'s value vector at the sample, after the
    models' entries are registered in it.  None for an empty region."""
    try:
        samples = region_samples(region, resolution)
    except EmptyRegion:
        return None
    table = PolyTable() if table is None else table
    kind_at = well_definedness(table, models)
    out = []
    for v in samples:
        for m in models:
            require_total(v, m.params)
        point = table.at(v)
        kind = kind_at(point)
        if kind is WellDefinedness.NEITHER:
            raise IllDefinedValuationInRegion(
                f"sample {dict(sorted(v.items()))} does not instantiate to a PA"
            )
        if filter_gp and kind is not WellDefinedness.GRAPH_PRESERVING:
            continue
        out.append((v, point))
    if filter_gp and not out:
        raise NotGraphPreserving("no graph-preserving sample in the region")
    return out


def _require_nonnegative_rewards(queries, samples):
    """Reject the first sample at which a reward of one of the `_MoQuery`s is
    negative; run on every sample before the first solve, like
    `_checked_samples`."""
    for v, point in samples:
        for query in queries:
            sym = query.negative_reward(point)
            if sym is not None:
                raise SideConditionError(
                    f"the reward of {sym!r} is negative at the sample {dict(sorted(v.items()))}"
                )


def _sample_loop(m, region, resolution, strategy_class, cases, key):
    """Fails at the first sample at which the violation query of some
    (objective, violation query) case is achievable; the witness names that
    objective under `key`."""
    table = PolyTable()
    checks = [(obj, _MoQuery(m, bad, strategy_class, table)) for obj, bad in cases]
    samples = _checked_samples(region, resolution, m, table=table)
    if samples is None:
        return Verdict("holds", caveat="region denotes no valuation; vacuously holds")
    _require_nonnegative_rewards([check for _, check in checks], samples)
    details = []
    for v, point in samples:
        for obj, check in checks:
            status, wit = check.solve(point)
            if status == "achievable":
                return Verdict(
                    "fails",
                    witness={"valuation": v, key: obj, "strategy": wit},
                    details=details,
                )
        details.append({"valuation": valuation_key(v), "ok": True})
    return Verdict("holds", details=details)


def region_sat(m: PPA, region, query, strategy_class="cmp", resolution=1) -> Verdict:
    """Holds iff at every sampled valuation no strategy violates any objective."""
    for obj in query:
        if not obj.alphabet <= m.alphabet:
            raise AlphabetMismatch("objective alphabet exceeds the model alphabet")
    cases = [(obj, (obj.negate(),)) for obj in query]
    return _sample_loop(m, region, resolution, strategy_class, cases, "objective")


def ag_triple_check(
    m: PPA, region, assumption, guarantee, strategy_class="prt", resolution=1
) -> Verdict:
    """Check an assume-guarantee triple over the sampled region.

    Fails iff some strategy of the class satisfies the whole assumption while
    violating one guarantee objective.
    """
    for obj in tuple(assumption) + tuple(guarantee):
        if not obj.alphabet <= m.alphabet:
            raise AlphabetMismatch(
                "triple objective alphabets must lie inside the model alphabet; "
                "extend the model first"
            )
    cases = [(g, tuple(assumption) + (g.negate(),)) for g in guarantee]
    return _sample_loop(m, region, resolution, strategy_class, cases, "violated")


# ---------------------------------------------------------------------------
# Monotonicity checking over enumerated strategies
# ---------------------------------------------------------------------------

def _weight_profiles(actions, denominator):
    if denominator <= 1:
        return [{a: Fraction(1)} for a in actions]
    profiles = []

    def rec(i, remaining, acc):
        if i == len(actions) - 1:
            prof = dict(acc)
            if remaining:
                prof[actions[i]] = Fraction(remaining, denominator)
            if prof:
                profiles.append(prof)
            return
        for k in range(remaining + 1):
            if k:
                acc[actions[i]] = Fraction(k, denominator)
            rec(i + 1, remaining - k, acc)
            acc.pop(actions[i], None)

    rec(0, denominator, {})
    return profiles


def enumerate_memoryless(m: PPA, denominator=1):
    """Complete memoryless strategies over reachable decision points.

    Deterministic choices for denominator 1; otherwise the rational grid with
    the given step.  Enumeration follows the declared transition structure, so
    it is valuation-independent.  More than STRATEGY_CAP strategies raise.
    """
    results = []

    def expand(choice, frontier):
        undecided = sorted(
            (s for s in frontier if s not in choice and m.enabled(s)), key=sort_key
        )
        if not undecided:
            results.append(MemorylessStrategy(dict(choice), complete=True))
            if len(results) > STRATEGY_CAP:
                raise ValueError(f"strategy enumeration exceeds cap {STRATEGY_CAP}")
            return
        s = undecided[0]
        for profile in _weight_profiles(m.enabled(s), denominator):
            new_frontier = set(frontier)
            for a in profile:
                new_frontier |= _support(m.trans[(s, a)])
            choice[s] = profile
            expand(choice, new_frontier)
            del choice[s]

    expand({}, {m.initial})
    return results


def monotone_check(
    m: PPA,
    region,
    objective,
    param,
    direction,
    strategy_class="cmp",
    resolution=1,
    grid_denominator=1,
) -> Verdict:
    """Check monotonicity of the solution function in one parameter.

    Quantification is over the enumerated strategy class (memoryless complete
    on the model, or on its tau extension for partial strategies) and the
    sampled axis-aligned valuation pairs; the verdict says so.  One query
    structure serves every valuation and strategy.
    """
    if direction not in ("up", "down"):
        raise ValueError("direction must be 'up' or 'down'")
    table = PolyTable()
    query = _MoQuery(m, (objective,), strategy_class, table)
    samples = _checked_samples(region, resolution, m, table=table)
    caveat = "per enumerated strategy class; sound per sampled valuation"
    if samples is None:
        return Verdict("holds", caveat="region denotes no valuation; vacuously holds")
    _require_nonnegative_rewards([query], samples)
    groups, points = {}, {}
    for v, point in samples:
        if param not in v:
            raise MissingParameter(f"samples do not assign parameter {param!r}")
        rest = tuple(sorted((k, val) for k, val in v.items() if k != param))
        groups.setdefault(rest, []).append(v)
        points[valuation_key(v)] = point
    _require_alphabet(m, (objective,))
    strategies = enumerate_memoryless(query.model, grid_denominator)
    functions = {}  # valuation key -> strategy_values at it, built on first use

    def function(v):
        key = valuation_key(v)
        if key not in functions:
            functions[key] = query.strategy_values(points[key])
        return functions[key]

    ordered_pairs = []
    for rest, vs in sorted(groups.items()):
        vs.sort(key=lambda v: v[param])
        for lo, hi in zip(vs, vs[1:]):
            ordered_pairs.append((lo, hi))

    for sigma in strategies:
        cache = {}
        for lo, hi in ordered_pairs:
            for v in (lo, hi):
                key = valuation_key(v)
                if key not in cache:
                    cache[key] = function(v)(sigma)[0]
            f_lo, f_hi = cache[valuation_key(lo)], cache[valuation_key(hi)]
            ok = f_lo <= f_hi if direction == "up" else f_lo >= f_hi
            if not ok:
                return Verdict(
                    "fails",
                    witness={
                        "strategy": sigma.choice,
                        "low": lo,
                        "high": hi,
                        "value_low": f_lo,
                        "value_high": f_hi,
                    },
                    caveat=caveat,
                )
    return Verdict("holds", caveat=caveat)
