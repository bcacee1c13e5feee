"""Objective solvers and region-level satisfaction checks.

Probabilistic objectives are safety languages given by bad-prefix DFAs;
reward objectives are expected total rewards over transition labels.  All
solvers are exact and end in two mechanisms:

- one Markov-chain solver: expected total gain per state, INF on recurrent
  positive gain, the rest solved SCC by SCC from integer rows, each a
  state's probabilities and gain as numerators over its own denominator.
  Reachability is the case with absorbing targets.  It is split into a plan
  (`_chain_plan`), which reads which entries are nonzero and decides, in
  one pass over the SCCs, the INF and zero states and the blocks of
  unknowns, one per SCC with successors first, and a fill (`_chain_fill`),
  which solves each block with its successors' values on the right (one
  division for a one-node block, its self-loop on the diagonal, an exact
  elimination for a block of two or more nodes) into integer values over
  one denominator (topological solving, Ciesinski et al., QEST 2008).
  It evaluates fixed strategies and witnesses (`_StrategyChain`), and
  drives the policy iteration (`_policy_iteration`) behind optimal
  reachability, safety probabilities, maximal expected reward and
  per-objective threshold checks.  Policy iteration reads slot rows:
  each action's entries (successor, slot) of a `PolyTable` vector, comparing
  backups as integer dot products of the vector's numerators and the
  values'.  A `Fraction` is built only where a value leaves the kernel;
- one occupation-measure LP builder (`_occupation_lp`): expected
  state-action frequencies routing one unit of flow into a settle region,
  solved by the exact simplex, for multi-objective achievability and
  minimal expected reward.  It has rows and columns only for the live
  states, those that can still reach an action that collects for some
  objective; the flow into the other, dead, states settles at once, and
  the last row counts it.  Its rows are compiled once per layout into
  integer templates (`_int_templates`); at a sample, each row is filled from
  the table vector's numerators and reduced by one gcd into the integer row
  that `LinearProgram` stores (`_sample_lp`), with no `Fraction`.

One query structure (`_MoQuery`) serves the LP checks, the re-check of their
witnesses, the values of fixed strategies and every parameter-free solve.
It is built once per query and model, on the model's transitions that
`_mo_queries` registered once per table, after rejecting an objective whose
alphabet exceeds the model's: the joint DFA product of the parametric model
(its tau extension for partial strategies), its states numbered as ints in
the order the search met them, the slot of every transition probability
and reward in a `PolyTable` of distinct polynomials (`slotted`, which
`max_reach` also uses for a PA's own transitions), and each objective as a
stop set and a gain map, which every solver reads: a probability
objective stops at its targets and collects the mass moved into them, a
reward objective collects its reward.  A region check builds one table for
its queries and the well-definedness check: each sample is one integer value
vector of it, which `_checked_samples` validates, rewards included, for
every sample before the first solve.  What depends only on which values are
zero is built once per such support pattern: graph-preserving samples share
one, and a sample with a smaller support, such as a p = 0 corner, gets its
own.  `_MoQuery._flow` is the flow half of it (one successor-set map, the
settle set and `stay` map over the actions that collect nothing, the live
states, the occupation LP), and `_MoQuery._layout` adds the end-component
guard and the threshold rows.  The guard finds the keys of the end
components by SCC refinement over the successor sets (`_end_component_keys`)
and refuses a reward objective that one of them collects.  It covers every
product state, also those behind zero entries: the LP keeps the columns of
the live ones among them, so a rewarded cycle there could circulate.  Per
sample, each probability objective under < or <= of the conjunction is first
decided alone, by policy iteration from its own last optimal policy
(`_MoQuery.bad_reach`): if some such objective cannot be met alone, the
conjunction is unachievable, with the policy's checked value vector as the
certificate.  When every one of them can be met and such an objective is
the whole query, it is achievable, and its witness is the optimal policy
that policy iteration reaches from each state's first action
(`_MoQuery._policy_witness`).
Otherwise the LP's integer rows are filled from the vector and solved, and
a witness is built from the LP solution only when the query is achievable.
Both witnesses pass one exact re-check on their strategy chain
(`_MoQuery._verified`).  A strategy's values are the witness re-check
without settle mass: its chain over the product is built once and planned
once per support pattern, so each sample only fills integer rows.

A parameter-free solve is a `_MoQuery` at its one constant vector
(`_constant_query`, which refuses, as `max_reach` does, a row that is no
sub-probability distribution): `mo_achievable` solves its layout,
`solution_value` (with `chain_language_prob`) fills a strategy's chain,
`safety_prob` is one minus `bad_reach` of its one objective from a cold
start, and `exp_total_reward` is policy iteration on the reward's gain map
(maximum) or the gain map's cost row minimised over `_flow`'s LP (minimum).
`monotone_check` fills each strategy's chain at every sampled valuation.
The region checks share one sample loop.  Nothing is kept beyond one call.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from math import comb, gcd, lcm

from .algebra import Polynomial, PolyTable, region_samples, require_total, valuation_key
from .errors import (
    AlphabetMismatch,
    EmptyRegion,
    IllDefinedValuationInRegion,
    MissingParameter,
    NotGraphPreserving,
    SideConditionError,
    StrategyCapExceeded,
    UnboundedReward,
)
from .exactlp import OPTIMAL, LinearProgram, gauss_solve
from .model import (
    PPA,
    WellDefinedness,
    dfa_absorb_accepting,
    require_sub_stochastic,
    slotted,
    sort_key,
    tau_extend,
    well_definedness,
)
from .semantics import MemorylessStrategy

INF = float("inf")
VACUOUS = "region denotes no valuation; vacuously holds"  # the caveat of an empty region
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

    def negate(self):
        return RewardObjective(_NEGATION[self.cmp], self.threshold, self.rewards, self.name)


def safety(dfa, threshold) -> ProbObjective:
    return ProbObjective(">=", Fraction(threshold), dfa)


def reward_objective(cmp, threshold, rewards) -> RewardObjective:
    items = tuple(sorted(((str(s), Polynomial.coerce(r)) for s, r in dict(rewards).items())))
    return RewardObjective(cmp, Fraction(threshold), items)


def query_alphabet(query) -> frozenset:
    out = frozenset()
    for obj in query:
        out |= obj.alphabet
    return out


def is_safe_query(query) -> bool:
    return all(isinstance(o, ProbObjective) and o.cmp == ">=" for o in query)


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

def _sccs(roots, succ):
    """Tarjan, iterative: the strongly connected components of the graph of
    `roots` and everything reachable from them along succ(node), each a
    tuple of its members in the order the search reached them.  A component
    is emitted after every component it reaches (successors first), and the
    order depends only on the order of `roots` and of each succ(node)."""
    low, stack, sccs = {}, [], []  # low: each node's lowlink, INF once emitted
    for root in roots:
        if root in low:
            continue
        work = [(root, iter(succ(root)), len(low), len(stack))]
        low[root] = len(low)
        stack.append(root)
        while work:
            node, it, num, pos = work[-1]
            for nxt in it:
                if nxt not in low:
                    work.append((nxt, iter(succ(nxt)), len(low), len(stack)))
                    low[nxt] = len(low)
                    stack.append(nxt)
                    break
                if low[nxt] < low[node]:
                    low[node] = low[nxt]
            else:
                work.pop()
                if low[node] == num:  # the root of a component
                    sccs.append(tuple(stack[pos:]))
                    del stack[pos:]
                    for t in sccs[-1]:
                        low[t] = INF
                elif low[node] < low[work[-1][0]]:
                    low[work[-1][0]] = low[node]
    return sccs


def _settle(states, acts, succ, keep):
    """Greatest region in which a strategy can stay forever.

    A state stays when it is a dead end, or when one of its actions accepted
    by `keep(state, action)` has its successors succ[(state, action)] inside
    the region (greatest fixpoint).  Returns the region and, for every state
    of it that is not a dead end, the first such action in `acts` order.
    """
    stayers = {
        s: [(a, succ[(s, a)]) for a in acts.get(s, ()) if keep(s, a)]
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


def _end_component_keys(succ) -> set:
    """The keys (s, a) of the successor-set map `succ` {(s, a): successors}
    that lie in some end component (de Alfaro): the union of the actions of
    the maximal end components.  SCC refinement: drop every key with a
    successor outside the SCC of its source, in the graph of the keys left,
    until no key is dropped."""
    keys = set(succ)
    while True:
        edges = {}
        for key in keys:
            edges.setdefault(key[0], set()).update(succ[key])
        comp = {s: c for c in map(frozenset, _sccs(edges, lambda s: edges.get(s, ()))) for s in c}
        kept = {key for key in keys if succ[key] <= comp[key[0]]}
        if kept == keys:
            return keys
        keys = kept


# ---------------------------------------------------------------------------
# Markov chains: expected total gain, and reachability as a special case
# ---------------------------------------------------------------------------

def _chain_plan(rows, point, init=None):
    """The graph half of a Markov-chain solve, for one support pattern.

    `rows` maps every node to (scale, succ, gain): succ is a tuple of
    entries (t, f, k) and gain one of entries (f, k), with integers f > 0
    and slot indices k, so at a value vector (D, nums) the node moves to t
    with probability f * nums[k] / (scale * D), summed over its entries for
    t, and collects gain sum(f * nums[k]) / (scale * D) on leaving; a node
    without entries is a dead end.  Only which nums[k] are nonzero, and
    whether a row keeps all its mass (sum f * nums[k] = scale * D), is read
    from `point`.  At a well-defined vector every model row sums to D, so
    only fixed strategy weights make a row leak, alike at every vector of
    the pattern, and the plan serves every vector of its support pattern
    whose gains are nonnegative.  One pass of `_sccs`, from `init` if given
    (so only the nodes reachable from it are planned) and else from every
    row, meets each SCC after those it reaches.  An SCC is INF when it is
    closed, every row of it keeps all its mass (so it has an internal edge
    and is never left) and it collects positive gain, or when a successor
    SCC is INF; it is unknown when it collects positive gain or a successor
    SCC is unknown, as a closed SCC with a leaking row is (it is transient,
    so its block is solvable); its nodes are 0 otherwise.  Returns the
    settled values {node: INF or int 0} and the unknown SCCs as blocks, in
    the order `_sccs` emits them (successors first), for `_chain_fill`: each
    a tuple of its nodes' rows (node, scale, succ, gain), restricted to the
    nonzero entries and to the unknown successors (a settled successor of an
    unknown node is 0).  Nothing is left to solve when init is INF or 0.
    """
    den, nums = point
    succ = {s: tuple(t for t, _, k in out if nums[k]) for s, (_, out, _) in rows.items()}
    value, blocks = {}, []  # value: INF, 0, or None while unknown
    for comp in _sccs(rows if init is None else (init,), succ.__getitem__):
        # a successor outside comp is in an SCC met before it
        after = {value[t] for s in comp for t in succ[s] if t in value}
        positive = any(nums[k] for s in comp for _, k in rows[s][2])
        if INF in after or positive and not after and all(
                sum(f * nums[k] for _, f, k in rows[s][1]) == rows[s][0] * den for s in comp):
            v = INF
        elif positive or None in after:
            v = None
        else:
            v = 0
        for s in comp:
            value[s] = v
        if v is None:
            blocks.append(tuple(
                (s, rows[s][0],
                 tuple((t, f, k) for t, f, k in rows[s][1] if nums[k] and value[t] is None),
                 tuple((f, k) for f, k in rows[s][2] if nums[k]))
                for s in comp
            ))
    settled = {s: v for s, v in value.items() if v is not None}
    return settled, () if init in settled else tuple(blocks)


def _chain_fill(plan, point):
    """The numeric half of a Markov-chain solve: every planned node's value
    at the value vector `point` (D, nums) of the plan's support pattern, as
    (V, x): x[s] / V is the value of s (or x[s] is INF), V the least common
    denominator.  The blocks are solved in plan order, so every successor
    outside a block is solved before it, and each value is kept as an
    integer numerator over its own reduced denominator.  A block's integer
    rows have scale * D on the diagonal minus the numerators of its internal
    entries, all times the lcm of the outside successors' denominators,
    with the gains and the outside successors' values on the right.  A
    one-node block, every block of an acyclic chain, is solved in one pass
    over its entries and one division, a self-loop taken off the diagonal,
    which stays positive because the plan's blocks are transient; a block of
    two or more nodes takes one exact solve (`gauss_solve`).
    """
    settled, blocks = plan
    den, nums = point
    solved = {}  # node: (numerator, denominator) in lowest terms
    for block in blocks:
        if len(block) == 1:
            (s, scale, out, gain), = block
            diag, r, d = scale * den, 0, 1  # r / d: the gains and outside successors
            for f, k in gain:
                r += f * nums[k]
            for t, f, k in out:
                if t == s:
                    diag -= f * nums[k]
                    continue
                n_t, d_t = solved[t]
                if d % d_t:
                    m = lcm(d, d_t)
                    r, d = r * (m // d), m
                r += f * nums[k] * n_t * (d // d_t)
            d *= diag
            g = gcd(r, d)
            solved[s] = r // g, d // g
            continue
        inside = {s: i for i, (s, *_) in enumerate(block)}
        rows, rhs = [], []
        for i, (s, scale, out, gain) in enumerate(block):
            d = lcm(*(solved[t][1] for t, _, _ in out if t not in inside))
            row = [0] * len(block)
            row[i] = scale * den * d
            r = d * sum(f * nums[k] for f, k in gain)
            for t, f, k in out:
                if t in inside:
                    row[inside[t]] -= d * f * nums[k]
                else:
                    n_t, d_t = solved[t]
                    r += f * nums[k] * n_t * (d // d_t)
            rows.append(row)
            rhs.append(r)
        common, x = gauss_solve(rows, rhs)
        for (s, *_), n in zip(block, x):
            g = gcd(n, common)
            solved[s] = n // g, common // g
    scale = lcm(*(d for _, d in solved.values()))
    return scale, settled | {s: n * (scale // d) for s, (n, d) in solved.items()}


def _policy_shape(nodes, acts, succ, nums, gains, stop):
    """What `_policy_iteration` reads of the support pattern of the numerators
    `nums`: the nodes, each action's `_chain_plan` row (1, succ, gain) of its
    nonzero entries, each deciding node's actions and a memo of each policy's
    plan.  A node outside `stop` picks one of its `acts`, the others stop;
    a in s moves to t w.p. nums[k] / D per entry (t, k) of succ[(s, a)] and
    collects the nonzero slots gains[(s, a)] of the gain map."""
    rows, options = {}, {}
    for s in nodes:
        if s in stop or not acts.get(s):
            continue
        options[s] = acts[s]
        for a in acts[s]:
            key = (s, a)
            rows[key] = (1, tuple((t, 1, k) for t, k in succ[key] if nums[k]),
                         tuple((1, k) for k in gains.get(key, ()) if nums[k]))
    return tuple(nodes), rows, options, {}


def _policy_iteration(shape, point, start=None):
    """Maximal expected total gain over det memoryless policies of `shape`
    (a `_policy_shape`) at the table vector `point` (D, nums) of its pattern.

    The start policy is `start`, given for every deciding node, or else each
    node's first action, and a node switches only on strict improvement over
    the round's values, so the returned policy depends on the model and the
    start alone, whatever the node order (the values on the model alone:
    `exp_total_reward`).  A caller that solves many vectors of one sign
    pattern keeps the shape, which plans each policy's chain once.  Each
    round's values are integers x over one denominator V (`_chain_fill`), so
    an action's backup R + sum(P_t * X_t) beats the value X_s iff the integer
    R*V + sum(n_t * x_t) exceeds D * x_s, with R = r / D and P_t = n_t / D.
    Returns the policy and the values (V, x) of every node under it.
    """
    den, nums = point
    nodes, rows, options, plans = shape
    policy = {s: start[s] if start else opts[0] for s, opts in options.items()}
    stop = (1, (), ())
    while True:
        key = tuple(policy.values())
        if key not in plans:
            chain = {s: rows[(s, policy[s])] if s in policy else stop for s in nodes}
            plans[key] = _chain_plan(chain, point)
        scale, x = _chain_fill(plans[key], point)
        improved = False
        for s, opts in options.items():
            best = x[s]
            if best is INF:
                continue  # no backup exceeds INF
            best_a, best = policy[s], den * best
            for a in opts:
                _, out, gain = rows[(s, a)]
                v = 0
                for _, k in gain:
                    v += nums[k]
                v *= scale
                for t, _, k in out:
                    x_t = x[t]
                    if x_t is INF:
                        break
                    v += nums[k] * x_t
                else:
                    if v > best:
                        best_a, best = a, v
                    continue
                best_a = a  # an INF backup, which no later action exceeds
                break
            if best_a != policy[s]:
                policy[s] = best_a
                improved = True
        if not improved:
            return policy, (scale, x)


# ---------------------------------------------------------------------------
# Exact optimal reachability
# ---------------------------------------------------------------------------

def max_reach(pa: PPA, targets):
    """Optimal reachability probability with an attaining det strategy."""
    if not pa.is_pa:
        raise ValueError("max_reach needs a parameter-free model")
    targets = frozenset(targets)
    table = PolyTable()
    succ, point = slotted(pa, table), table.at({})
    require_sub_stochastic(point, succ)
    # targets stop; an action collects its one-step mass into them
    gains = {key: tuple(k for t, k in out if t in targets) for key, out in succ.items()}
    acts = {s: pa.enabled(s) for s in pa.states}
    shape = _policy_shape(pa.states, acts, succ, point[1], gains, targets)
    policy, (scale, x) = _policy_iteration(shape, point)
    values = {s: Fraction(1) if s in targets else Fraction(x[s], scale) for s in pa.states}
    strategy = MemorylessStrategy(
        {s: {a: Fraction(1)} for s, a in policy.items()}, complete=False
    )
    return values.get(pa.initial, Fraction(0)), strategy, values


def safety_prob(pa: PPA, obj: ProbObjective) -> Fraction:
    """inf over strategies of Pr(L); equals 1 - max reach of the bad states
    of the query product."""
    query, point = _constant_query(pa, (obj,), "cmp")
    return 1 - query.bad_reach(point, 0)


# ---------------------------------------------------------------------------
# Exact expected total reward
# ---------------------------------------------------------------------------

def exp_total_reward(pa: PPA, rewards, mode="max"):
    """Extremal expected total reward over complete strategies.

    `mode` is "max" or "min".  Returns a Fraction, or float infinity when
    divergence is optimal/forced.  Both are solved on the query product of
    one reward objective.  The maximum is policy iteration on the query's
    shape of it (`_MoQuery._shape`), with no stop set.  With nonnegative
    rewards it is the least fixpoint v* of the Bellman operator T (the limit
    of T^n 0).  Policy iteration stops at the value v of a policy, so
    v <= v*, with no strictly improving action, so T v <= v (an action with
    an INF successor is an improvement); then T^n 0 <= T^n v <= v for all n,
    so v* <= v and v = v*, INF included.  The minimum minimises D times the
    reward (the cost row is the gain map's numerators) over the
    occupation-measure LP of `_MoQuery._flow`, then divides by D once: a
    strategy has finite reward iff it almost surely ends up lingering in a
    region that collects no reward, and greedy policy improvement is unsound
    there, since zero-reward cycles create tied non-optimal fixpoints.  It
    has no end-component guard.
    """
    if mode not in ("max", "min"):
        raise ValueError(f"mode must be 'max' or 'min', not {mode!r}")
    query, point = _constant_query(pa, (reward_objective(">=", 0, rewards),), "cmp")
    (gains,) = query.gains
    if mode == "max":
        _, (scale, x) = _policy_iteration(query._shape(point, 0), point)
        return x[query.init] if x[query.init] is INF else Fraction(x[query.init], scale)
    den, nums = point
    _, _, num_vars, rows, y_index, _ = query._flow(nums)
    cost = {y_index[key]: nums[k] for key, (k,) in gains.items() if nums[k]}
    lp = _sample_lp(num_vars, _int_templates(num_vars, rows), point)
    status, _, value = lp.solve(cost, maximize=False)
    return Fraction(value, den) if status == OPTIMAL else INF  # INF: no strategy stops paying a.s.


# ---------------------------------------------------------------------------
# Multi-objective achievability (occupation-measure LP)
# ---------------------------------------------------------------------------

def _occupation_lp(init, states, acts, support, settle, extra=0):
    """Occupation-measure LP of one unit of flow from `init` into `settle`,
    over the live `states`: every other state is dead, settles at once, and
    so needs no row or column.

    `support` maps each (state, action) key to its successors with nonzero
    probability, as (successor, k) pairs: the probability is entry k of a
    value vector, and the rows are templates over that vector
    (`_int_templates`).  Columns: y[(s, a)], the expected number of times a
    is taken in s, for s in `states` order and a in `acts[s]` order; then
    w[s], the probability of settling in s, for the settle states in
    `states` order; then `extra` columns left to the caller.  `_flow` passes
    the live state ids sorted by the `sort_key` of their tuples, the one
    reader of that order, and a model enables each state's actions in it, so
    the y columns are the live keys in the `sort_key` order of (tuple,
    action).  Rows: one flow balance per state, in `states` order, then the
    unit of flow ends: sum(w) plus each y[key] times the probability that key
    enters a dead state equals 1, or 0 when `init` is dead (then no flow
    reaches a live state).  Row and column order fix the simplex's pivot
    path, so they must not change.  Returns the number of columns, the rows,
    y_index and w_index.
    """
    y_index = {key: j for j, key in enumerate((s, a) for s in states for a in acts[s])}
    w_index = {s: len(y_index) + i for i, s in enumerate(s for s in states if s in settle)}
    balance = {s: {} for s in states}
    ends = {}  # the last row: the flow that settles or enters a dead state
    for key, j in y_index.items():
        balance[key[0]][j] = (1, (), ())
        dead = ()
        for t, k in support[key]:
            if t in balance:
                c, _, minus = balance[t].get(j, (0, (), ()))
                balance[t][j] = (c, (), minus + (k,))
            else:
                dead += (k,)
        if dead:
            ends[j] = (0, dead, ())
    for s, j in w_index.items():
        balance[s][j] = ends[j] = (1, (), ())
    rows = [("eq", balance[s], 1 if s == init else 0) for s in states]
    rows.append(("eq", ends, 1 if init in balance else 0))
    return len(y_index) + len(w_index) + extra, rows, y_index, w_index


def _int_templates(num_vars, rows):
    """The integer templates of ("eq" | "ub" | "lb", form, rhs) rows over
    `num_vars` columns, for `_sample_lp`.  A form maps a column to (c, plus,
    minus): c plus the entries at the slots `plus` of a value vector, minus
    those at `minus`.  Per row: its columns (an inequality's own slack column
    last), their (c, plus, minus), the factor of its entries, its rhs
    numerator and denominator, and its slack's sign (None for an equation).
    The rhs is fixed and a vector's denominator is positive, so the `lb`
    negation and the flip that makes the rhs nonnegative are folded into the
    factor and the slack's sign once."""
    out, slack_col = [], num_vars
    for kind, form, rhs in rows:
        rhs = Fraction(rhs)
        sign = -1 if kind == "lb" else 1  # c.x >= b as -c.x <= -b
        flip = -1 if sign * rhs < 0 else 1
        cols, slack = tuple(form), None
        if kind != "eq":
            cols, slack = cols + (slack_col,), flip
            slack_col += 1
        out.append((cols, tuple(form.values()), sign * flip * rhs.denominator,
                    abs(rhs.numerator), rhs.denominator, slack))
    return out


def _sample_lp(num_vars, templates, point):
    """The LinearProgram of `_int_templates` at the table vector
    point = (D, nums).  A row's entries are c * D + sum(nums[plus]) -
    sum(nums[minus]), times its factor, over D times its rhs denominator;
    one gcd reduces the row to the integer form `LinearProgram` stores."""
    den, nums = point
    lp = LinearProgram(num_vars)
    for cols, terms, factor, rhs, rhs_den, slack in templates:
        vals = []
        for c, plus, minus in terms:
            v = c * den
            for k in plus:
                v += nums[k]
            for k in minus:
                v -= nums[k]
            vals.append(v)
        if factor != 1:
            vals = [factor * v for v in vals]
        b, d = rhs * den, rhs_den * den
        g = gcd(d, b, *vals)
        if g != 1:
            vals = [v // g for v in vals]
            b //= g
            d //= g
        if slack is None:
            lp.eq.append((cols, vals, b, d))
        else:
            vals.append(slack * d)
            lp.ub.append((cols, vals, b, d))
    return lp


# comparison -> (row kind, coefficient of the shared slack column)
_PROB_ROW = {">=": ("ub", 0), ">": ("ub", 1), "<=": ("lb", 0), "<": ("lb", -1)}
_REWARD_ROW = {">=": ("lb", 0), ">": ("lb", -1), "<=": ("ub", 0), "<": ("ub", 1)}


class _MoQuery:
    """One conjunction of objectives on one model, for any number of samples.

    The structure is built once: the joint product of the model `work`,
    whose transitions are the `slotted` `entries` (see `_mo_queries`), with
    the objectives' absorbing bad-prefix DFAs, its states in the order the
    search met them, and per objective (probability objectives, then
    rewards) a stop set `stops[i]` and a gain map `gains[i]` from each
    product key (i, a) to the slots it collects: its entries into the
    targets from outside them, which absorb, or its reward.

    Its states are ids: the search numbers each state when it first meets
    it, so `init` is 0 and `nodes[i]` is the (state, DFA states) tuple of
    id i.  `acts`, `ptrans` {(i, a): ((successor id, slot), ...)}, the stop
    sets, the gain maps and every solver's nodes read ids, and the DFA move
    is computed once per (label, DFA states) pair.  Tuples come back in
    three places only: `_flow` sorts the LP's states by the `sort_key` of
    their tuples, `_verified` keys a witness's `mix`, `settle` and `stay` by
    them, and `strategy_values` reads a strategy's choice at a tuple's model
    state.

    Transition probabilities and rewards refer by index to their slots in a
    `PolyTable` that the caller may share with other queries and the
    well-definedness check, so a sample is one value vector of that table.
    What depends on which values are zero -- the end-component check, the
    settle set and `stay` map, and the LP layout with its rows as integer
    templates -- is built once per support pattern (`_layout`), as is each
    objective's policy shape (`_shape`), keyed on which of the vector's
    numerators are nonzero: rewards are refused when negative before any
    solve, and a region sample's entries lie in [0, D], so signs would split
    no pattern further.
    Each sample that `solve` leaves to the LP then only fills its integer
    rows from its vector (`_sample_lp`), solves it, and builds a witness when
    the conjunction is achievable.  `strategy_values` evaluates fixed
    strategies of `model` on the same product.
    """

    def __init__(self, work: PPA, entries, query, strategy_class, table: PolyTable):
        self.model, self.strategy_class = work, strategy_class
        self.prob_objs = [o for o in query if isinstance(o, ProbObjective)]
        self.rew_objs = [o for o in query if isinstance(o, RewardObjective)]
        self.strict = any(o.cmp in ("<", ">") for o in query)
        slot = table.slot
        dfas = [dfa_absorb_accepting(o.dfa) for o in self.prob_objs]
        nodes = [(work.initial, tuple(b.initial for b in dfas))]
        index = {nodes[0]: 0}
        acts, ptrans, plabel, step = {}, {}, {}, {}  # step: (label, DFA states) -> next
        stack = [0]
        while stack:
            i = stack.pop()
            s, qs = nodes[i]
            acts[i] = work.enabled(s)
            for a in acts[i]:
                lab = work.label[(s, a)]
                nqs = step.get((lab, qs))
                if nqs is None:
                    nqs = step[(lab, qs)] = tuple(
                        b.trans[(q, lab)] if lab in b.alphabet else q
                        for b, q in zip(dfas, qs)
                    )
                out = []
                for t, k in entries[(s, a)]:
                    j = index.get((t, nqs))
                    if j is None:
                        j = index[(t, nqs)] = len(nodes)
                        nodes.append((t, nqs))
                        stack.append(j)
                    out.append((j, k))
                ptrans[(i, a)] = tuple(out)
                plabel[(i, a)] = lab
        self.init, self.nodes, self.states = 0, nodes, list(acts)
        self.acts, self.ptrans, self.plabel = acts, ptrans, plabel
        self.objectives = self.prob_objs + self.rew_objs
        self.targets = [
            frozenset(i for i in self.states if nodes[i][1][j] in b.accepting)
            for j, b in enumerate(dfas)
        ]
        self.stops = self.targets + [frozenset()] * len(self.rew_objs)
        self.reward_slots = [
            {sym: slot(r) for sym, r in o.rewards} for o in self.rew_objs
        ]
        self.gains = [
            {key: into for key, dist in ptrans.items()
             if key[0] not in target and (into := tuple(k for t, k in dist if t in target))}
            for target in self.targets
        ] + [
            {key: (slots[lab],) for key, lab in plabel.items() if lab in slots}
            for slots in self.reward_slots
        ]
        self.one = slot(Fraction(1))  # numerator D at every vector
        self._layouts, self._shapes, self._policies = {}, {}, {}

    def negative_reward(self, point):
        """A symbol whose reward is negative at the table vector `point`, or
        None: expected total rewards are defined here for nonnegative
        rewards only."""
        nums = point[1]
        return next((sym for slots in self.reward_slots for sym, k in slots.items()
                     if nums[k] < 0), None)

    def strategy_values(self, sigma):
        """The values of the memoryless strategy sigma of `self.model`, as a
        function of the table vector: the probability objectives', then the
        reward objectives'.  Missing mass stops, and mass on an action the
        state does not enable is ignored.  Build it once per strategy: its
        chain is planned once per support pattern."""
        choice, nodes = sigma.choice, self.nodes
        return _StrategyChain(self, lambda i: choice.get(nodes[i][0]))

    def _flow(self, nums):
        """The successor sets, the stay map and the occupation LP of one unit
        of flow into the settle set, for the support pattern of the table
        vector numerators `nums`: a settle state can stay forever on actions that
        collect nothing for any objective.

        The LP has rows and columns for the live states only: those from
        which a path of nonzero entries leads to an action that collects for
        some objective (one backward search from those actions).  The other states are dead: every path from one stays among
        them and collects nothing, so they lie in the settle set and the
        flow into them may settle at once (Prob0 in Baier and Katoen,
        Principles of Model Checking, 2008).  The LP counts that flow in its
        last row, and the witness settles it (`_witness`)."""
        support = {
            key: tuple((t, k) for t, k in dist if nums[k])
            for key, dist in self.ptrans.items()
        }
        succ = {key: frozenset(t for t, _ in dist) for key, dist in support.items()}
        collects = {key for gains in self.gains for key, slots in gains.items()
                    if any(nums[k] for k in slots)}
        settle, stay = _settle(self.states, self.acts, succ, lambda i, a: (i, a) not in collects)
        preds = {}
        for (i, _), out in succ.items():
            for t in out:
                preds.setdefault(t, []).append(i)
        live = {i for i, _ in collects}
        stack = list(live)
        while stack:
            for i in preds.get(stack.pop(), ()):
                if i not in live:
                    live.add(i)
                    stack.append(i)
        nodes = self.nodes
        num_vars, rows, y_index, w_index = _occupation_lp(  # the LP reads sort_key order
            self.init, sorted(live, key=lambda i: sort_key(nodes[i])), self.acts,
            support, settle, int(self.strict))
        return succ, stay, num_vars, rows, y_index, w_index

    def _layout(self, nums):
        """`_flow` plus the threshold rows, as `_int_templates`, for the
        support pattern of the table vector numerators `nums`.

        The end-component guard: no key of an end component of `_flow`'s
        successor sets (`_end_component_keys`, by SCC refinement) may collect
        reward.  It covers every product state, also one that only zero
        entries lead to: the LP keeps such a state's columns when it is
        live, so a rewarded cycle there could still carry a circulation."""
        succ, stay, num_vars, rows, y_index, w_index = self._flow(nums)
        rewards = self.gains[len(self.prob_objs):]
        if rewards and any(nums[k] > 0 for key in _end_component_keys(succ)
                           for gains in rewards for k in gains.get(key, ())):
            raise UnboundedReward("a reward objective meets an infinite-reward end component")
        t_index = num_vars - 1  # the slack column, used only when strict
        for o, gains, target in zip(self.objectives, self.gains, self.stops):
            # the sum of y[key] times what key collects: the expected reward,
            # or P(eventually target) less 1 when the initial state is a target
            form = {y_index[key]: (0, plus, ()) for key, slots in gains.items()
                    if (plus := tuple(k for k in slots if nums[k]))}
            if isinstance(o, ProbObjective):
                (kind, slack), rhs = _PROB_ROW[o.cmp], 1 - o.threshold - (self.init in target)
            else:
                (kind, slack), rhs = _REWARD_ROW[o.cmp], o.threshold
            if slack:
                form[t_index] = (slack, (), ())
            rows.append((kind, form, rhs))
        if self.strict:
            rows.append(("ub", {t_index: (1, (), ())}, 1))
        return num_vars, _int_templates(num_vars, rows), y_index, w_index, stay

    def bad_reach(self, point, i):
        """The maximal reach of probability objective i's targets at `point`,
        by policy iteration from that objective's last optimal policy.  Its
        shape is kept per objective and support pattern (`_shape`)."""
        if self.init in self.targets[i]:
            return Fraction(1)
        shape = self._shape(point, i)
        self._policies[i], (scale, x) = _policy_iteration(shape, point, self._policies.get(i))
        return Fraction(x[self.init], scale)

    def _shape(self, point, i):
        """Objective i's `_policy_shape`, with stop set `stops[i]`, for the
        support pattern of the table vector `point`, built once per pattern."""
        key = (i, tuple([n != 0 for n in point[1]]))
        shape = self._shapes.get(key)
        if shape is None:
            shape = self._shapes[key] = _policy_shape(
                self.states, self.acts, self.ptrans, point[1], self.gains[i], self.stops[i])
        return shape

    def solve(self, point):
        """("achievable", witness) or ("unachievable", None) at the table
        vector `point`.  Each probability objective i under < or <= is first
        decided alone, in query order, by `bad_reach` against 1 - threshold:
        if no strategy meets it, none meets the conjunction, whatever the
        other objectives (rewards included) ask.  The final scan of the policy
        iteration certifies such an "unachievable": the value vector v is a
        policy's, so v <= v*, and no action strictly improves on v, so
        T v <= v and v* <= v (`exp_total_reward`).  The LP decides the rest
        (`_lp_solve`), except a query of one such objective alone: that
        objective is met, and the optimal policy that a cold-started policy
        iteration reaches is its witness (`_policy_witness`).  A single
        reachability objective has a deterministic memoryless optimal
        strategy; only a conjunction needs the LP's randomised one
        (Etessami et al., LMCS 2008)."""
        for i, o in enumerate(self.prob_objs):
            if o.cmp in ("<", "<=") and not _cmp(1 - self.bad_reach(point, i), o.cmp, o.threshold):
                return "unachievable", None
        if not self.rew_objs and len(self.prob_objs) == 1 and self.prob_objs[0].cmp in ("<", "<="):
            return "achievable", self._policy_witness(point)
        return self._lp_solve(point)

    def _policy_witness(self, point):
        """The witness of the one probability objective at `point`, which
        `bad_reach` has just decided: the optimal policy that policy
        iteration reaches from each node's first action, so a sample has the
        policy it gets when it is solved alone, whatever the samples solved
        before it, with mass 1 on the policy's action at every product state
        the policy reaches, and no settle or stay mode.  It is the empty
        strategy when the initial state is a target, since every strategy
        then has the value 0."""
        nums, mix = point[1], {}
        if self.init not in self.targets[0]:
            policy, _ = _policy_iteration(self._shape(point, 0), point)
            stack = [self.init]
            while stack:
                i = stack.pop()
                if i in mix or i not in policy:
                    continue  # visited, a target or a state without actions
                a = policy[i]
                mix[i] = {a: Fraction(1)}
                stack.extend(t for t, k in self.ptrans[(i, a)] if nums[k])
        return self._verified(point, mix, {}, {})

    def _lp_solve(self, point):
        """`solve` by the occupation LP alone."""
        nums = point[1]
        support = tuple([n != 0 for n in nums])
        layout = self._layouts.get(support)
        if layout is None:
            layout = self._layouts[support] = self._layout(nums)
        num_vars, templates, y_index, w_index, stay = layout
        lp = _sample_lp(num_vars, templates, point)
        if self.strict:
            status, x, value = lp.solve({num_vars - 1: Fraction(1)}, maximize=True)
            if status != OPTIMAL or value <= 0:
                return "unachievable", None
        else:
            status, x, _ = lp.solve({})
            if status != OPTIMAL:
                return "unachievable", None
        return "achievable", self._witness(point, x, y_index, w_index, stay)

    def _witness(self, point, x, y_index, w_index, stay):
        """The two-mode witness strategy of the LP solution x (`_verified`):
        a live state plays its actions in proportion to their frequencies and
        settles with its share of w, and a dead state that the flow enters
        (the initial state, or a successor of a played action) plays nothing
        and settles with probability 1, as the LP over every state could
        route it."""
        nums, live = point[1], {i for i, _ in y_index}
        mix, settle_mass, entered = {}, {}, {self.init} - live
        for i in self.states:
            if i not in live:
                continue
            total = Fraction(0)
            weights = {}
            for a in self.acts[i]:
                freq = x[y_index[(i, a)]]
                if freq > 0:
                    weights[a] = freq
                    total += freq
                    entered.update(t for t, k in self.ptrans[(i, a)]
                                   if nums[k] and t not in live)
            w = x[w_index[i]] if i in w_index else Fraction(0)
            total += w
            if total == 0:
                continue
            mix[i] = {a: v / total for a, v in weights.items()}
            if w:
                settle_mass[i] = w / total
        for i in entered:
            mix[i], settle_mass[i] = {}, Fraction(1)
        return self._verified(point, mix, settle_mass, dict(stay))

    def _verified(self, point, mix, settle, stay):
        """The two-mode witness strategy (mix, settle, stay) with its values,
        re-evaluated exactly at `point` on its `_StrategyChain`; a witness
        that misses an objective is an internal error."""
        vals = _StrategyChain(self, mix.get, settle, stay)(point)
        for o, val in zip(self.objectives, vals):
            if not _cmp(val, o.cmp, o.threshold):
                raise RuntimeError("internal: witness failed exact re-verification")
        nodes = self.nodes
        return {
            "kind": "product-memoryless",
            "strategy_class": self.strategy_class,
            "mix": {nodes[i]: d for i, d in mix.items()},
            "settle": {nodes[i]: w for i, w in settle.items()},
            "stay": {nodes[i]: a for i, a in stay.items()},
            "values": {
                (o.name or f"objective-{k}"): val
                for k, (o, val) in enumerate(zip(self.objectives, vals))
            },
        }


def _mo_queries(m: PPA, queries, strategy_class, table: PolyTable):
    """The transitions that `queries` of `strategy_class` on m are solved
    on, as `slotted` entries in `table`, and the `_MoQuery` of each query,
    after rejecting a query whose alphabet exceeds m's.  The model solved
    is m, or its tau extension for partial strategies, and its entries are
    registered once per table, for every query and the well-definedness
    check.  The tau extension's extra rows are each a constant 1, which lies
    in [0, D], sums to D and is nonzero at every vector, so the extension is
    well defined, and graph-preserving, at exactly the vectors at which m
    is: its rows may be checked in place of m's."""
    for query in queries:
        for obj in query:
            if not obj.alphabet <= m.alphabet:
                raise AlphabetMismatch(
                    f"objective alphabet {sorted(obj.alphabet)} exceeds the model's; "
                    "extend the model first"
                )
    work = tau_extend(m) if strategy_class == "prt" else m
    entries = slotted(work, table)
    return entries, [_MoQuery(work, entries, query, strategy_class, table) for query in queries]


def _constant_query(pa: PPA, query, strategy_class):
    """The `_MoQuery` of `query` on the parameter-free `pa` and its one table
    vector, after the checks of every parameter-free solve: the objectives'
    alphabets lie in the model's, every row is a sub-probability
    distribution, and no reward is negative."""
    if not pa.is_pa:
        raise ValueError("a parameter-free model is needed; instantiate first")
    table = PolyTable()
    entries, (mo_query,) = _mo_queries(pa, [query], strategy_class, table)
    point = table.at({})
    require_sub_stochastic(point, entries)
    sym = mo_query.negative_reward(point)
    if sym is not None:
        raise ValueError(f"the reward of {sym!r} is negative")
    return mo_query, point


def mo_achievable(pa: PPA, query, strategy_class="cmp"):
    """Exact achievability of a conjunction of objectives by one strategy.

    Returns ("achievable", witness) or ("unachievable", None).  Partial
    strategies are handled by checking complete strategies of the tau
    extension.  Strict comparisons are decided by maximizing a shared rational
    slack; every witness is re-evaluated exactly before being reported.  This
    is the query's structure on `pa` solved at its (constant) values; region
    checks reuse one structure across their samples.
    """
    mo_query, point = _constant_query(pa, query, strategy_class)
    return mo_query.solve(point)


class _StrategyChain:
    """The Markov chain of a fixed two-mode strategy on a `_MoQuery`
    product, planned once per support pattern and filled per table vector.

    Its nodes are ("go", i) and ("stay", i) for the query's state ids i
    (`query.nodes[i]` is the state's tuple), and `mix`, `settle` and `stay`
    are keyed by ids; the witness that `_MoQuery._verified` reports reads
    them as tuples.  Go-mode node i plays mix(i), ignoring mass on an action
    i does not enable, settles into stay mode with settle[i], and stops with
    the missing mass; stay-mode i plays stay[i] forever, or stops without one.
    Only the nodes reachable from the initial go node are built, each
    successor an entry (node, weight numerator, slot) of the query's
    transitions.  A go row is over D times the lcm of its weights'
    denominators, a stay row over D.  Called with a table vector, it gives
    one value per probability objective (the probability of never reaching
    its targets, which absorb), then one per reward objective (the expected
    total reward).  The plans (`_chain_plan`) are keyed by which entries of
    the table vector are nonzero, so a p = 0 corner gets its own.
    """

    def __init__(self, query, mix, settle=None, stay=None):
        settle, stay, ptrans = settle or {}, stay or {}, query.ptrans
        self.init = init = ("go", query.init)
        moves, stack = {}, [init]
        while stack:
            node = stack.pop()
            if node in moves:
                continue
            mode, i = node
            if mode == "go":
                weights = [(w, (i, a)) for a, w in (mix(i) or {}).items()
                           if w and (i, a) in ptrans]
                rest = settle.get(i, 0)
                scale = lcm(rest.denominator, *(w.denominator for w, _ in weights))
                picks = [(w.numerator * (scale // w.denominator), key) for w, key in weights]
                out = [(("go", t), f, k) for f, key in picks for t, k in ptrans[key]]
                if rest:
                    out.append((("stay", i), rest.numerator * (scale // rest.denominator),
                                query.one))
            else:
                scale, picks = 1, [(1, (i, stay[i]))] if i in stay else []
                out = [(("stay", t), 1, k) for _, key in picks for t, k in ptrans[key]]
            moves[node] = scale, tuple(out), picks
            stack.extend(t for t, _, _ in out)
        # one chain per objective; a probability objective whose targets hold
        # the initial state has value 0 and no chain
        self.n_prob = len(query.targets)
        self.chains = [
            None if query.init in stop else {
                node: (scale, (), ()) if node[1] in stop
                else (scale, out, tuple((f, k) for f, key in picks for k in gains.get(key, ())))
                for node, (scale, out, picks) in moves.items()
            }
            for gains, stop in zip(query.gains, query.stops)
        ]
        self._plans = {}

    def __call__(self, point):
        nums = point[1]
        key = tuple([n != 0 for n in nums])
        plans = self._plans.get(key)
        if plans is None:
            plans = self._plans[key] = [
                None if chain is None else _chain_plan(chain, point, self.init)
                for chain in self.chains
            ]
        values = []
        for i, plan in enumerate(plans):
            if plan is None:
                values.append(Fraction(0))
            else:
                scale, x = _chain_fill(plan, point)
                value = x[self.init] if x[self.init] is INF else Fraction(x[self.init], scale)
                values.append(1 - value if i < self.n_prob else value)
        return values


# ---------------------------------------------------------------------------
# Fixed-strategy values (the solution function at one valuation)
# ---------------------------------------------------------------------------

def solution_value(m_inst: PPA, sigma: MemorylessStrategy, objective):
    """Value of the solution function at one instantiated model and strategy."""
    query, point = _constant_query(m_inst, (objective,), "cmp")
    return query.strategy_values(sigma)(point)[0]


def chain_language_prob(pa: PPA, sigma: MemorylessStrategy, dfa) -> Fraction:
    """Pr(L) of the chain induced by a memoryless (possibly partial) strategy."""
    return solution_value(pa, sigma, safety(dfa, 0))


# ---------------------------------------------------------------------------
# Region-level checks
# ---------------------------------------------------------------------------

def _checked_samples(region, resolution, models, table, rows, filter_gp=False, queries=()):
    """The region's samples, each of which assigns every parameter of
    `models` and instantiates the distributions `rows` to distributions (to
    graph-preserving ones only with `filter_gp`), as (valuation, vector)
    pairs: `rows` are the models' transitions as entries (successor, slot)
    that the caller registered in `table` (see `well_definedness`), and the
    vector is `table`'s value vector at the sample.  Then the first sample
    at which a reward of one of the `_MoQuery`s `queries` is negative is
    rejected.  None for an empty region."""
    try:
        samples = region_samples(region, resolution)
    except EmptyRegion:
        return None
    kind_at = well_definedness(table, rows)
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
    for v, point in out:
        for query in queries:
            sym = query.negative_reward(point)
            if sym is not None:
                raise SideConditionError(
                    f"the reward of {sym!r} is negative at the sample {dict(sorted(v.items()))}"
                )
    return out


def _sample_loop(m, region, resolution, strategy_class, cases, key):
    """Fails at the first sample at which the violation query of some
    (objective, violation query) case is achievable; the witness names that
    objective under `key`."""
    table = PolyTable()
    entries, queries = _mo_queries(m, [bad for _, bad in cases], strategy_class, table)
    samples = _checked_samples(region, resolution, [m], table, entries.values(), queries=queries)
    if samples is None:
        return Verdict("holds", caveat=VACUOUS)
    details = []
    for v, point in samples:
        for (obj, _), query in zip(cases, queries):
            status, wit = query.solve(point)
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
    cases = [(obj, (obj.negate(),)) for obj in query]
    return _sample_loop(m, region, resolution, strategy_class, cases, "objective")


def ag_triple_check(
    m: PPA, region, assumption, guarantee, strategy_class="prt", resolution=1
) -> Verdict:
    """Check an assume-guarantee triple over the sampled region.

    Fails iff some strategy of the class satisfies the whole assumption while
    violating one guarantee objective.
    """
    cases = [(g, tuple(assumption) + (g.negate(),)) for g in guarantee]
    return _sample_loop(m, region, resolution, strategy_class, cases, "violated")


# ---------------------------------------------------------------------------
# Monotonicity checking over enumerated strategies
# ---------------------------------------------------------------------------

def _weight_profiles(actions, denominator):
    """The distributions over `actions` with weights in 1/denominator steps."""
    if denominator == 1:
        yield from ({a: Fraction(1)} for a in actions)
        return

    def rec(i, remaining, acc):
        if i == len(actions) - 1:
            prof = dict(acc)
            if remaining:
                prof[actions[i]] = Fraction(remaining, denominator)
            yield prof
            return
        for k in range(remaining + 1):
            if k:
                acc[actions[i]] = Fraction(k, denominator)
            yield from rec(i + 1, remaining - k, acc)
            acc.pop(actions[i], None)

    yield from rec(0, denominator, {})


def enumerate_memoryless(m: PPA, denominator=1):
    """Complete memoryless strategies over reachable decision points.

    Deterministic choices for denominator 1; otherwise the rational grid with
    the given step.  Enumeration follows the declared transition structure, so
    it is valuation-independent.  More than STRATEGY_CAP strategies raise,
    counted before any is built: the completions of a node depend only on its
    decided states and frontier, and on the grid a support of j actions
    carries C(denominator - 1, j - 1) profiles, so no profile is listed.
    """
    if denominator < 1:
        raise ValueError(f"the grid denominator must be at least 1, not {denominator}")

    def next_state(decided, frontier):
        undecided = (s for s in frontier if s not in decided and m.enabled(s))
        return min(undecided, key=sort_key, default=None)

    def successors(s, actions):
        return {t for a in actions for t, p in m.trans[(s, a)].items() if p}

    counts = {}  # (decided, frontier) -> its completions, STRATEGY_CAP + 1 for more

    def count(decided, frontier):
        s = next_state(decided, frontier)
        if s is None:
            return 1
        if (decided, frontier) not in counts:
            acts, total = m.enabled(s), 0
            supports = (sup for j in range(1, min(len(acts), denominator) + 1)
                        for sup in combinations(acts, j))
            for sup in supports:
                total += comb(denominator - 1, len(sup) - 1) * count(
                    decided | {s}, frontier | successors(s, sup))
                if total > STRATEGY_CAP:
                    break
            counts[decided, frontier] = min(total, STRATEGY_CAP + 1)
        return counts[decided, frontier]

    if count(frozenset(), frozenset({m.initial})) > STRATEGY_CAP:
        raise StrategyCapExceeded(f"strategy enumeration exceeds cap {STRATEGY_CAP}")
    results = []

    def expand(choice, frontier):
        s = next_state(choice, frontier)
        if s is None:
            results.append(MemorylessStrategy(dict(choice), complete=True))
            return
        for profile in _weight_profiles(m.enabled(s), denominator):
            choice[s] = profile
            expand(choice, frontier | successors(s, profile))
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
    graph_preserving=False,
) -> Verdict:
    """Check monotonicity of the solution function in one parameter.

    Quantification is over the enumerated strategy class (memoryless complete
    on the model, or on its tau extension for partial strategies) and the
    sampled axis-aligned valuation pairs; the verdict says so.  With
    `graph_preserving`, only the graph-preserving samples are compared, and a
    region with none raises `NotGraphPreserving`.  One query structure serves
    every valuation and strategy.
    """
    if direction not in ("up", "down"):
        raise ValueError("direction must be 'up' or 'down'")
    table = PolyTable()
    entries, (query,) = _mo_queries(m, [(objective,)], strategy_class, table)
    samples = _checked_samples(region, resolution, [m], table, entries.values(),
                               filter_gp=graph_preserving, queries=[query])
    caveat = "per enumerated strategy class; sound per sampled valuation"
    if samples is None:
        return Verdict("holds", caveat=VACUOUS)
    # lines of samples that differ in `param` only, each sorted by it; a
    # line of one sample has no pair
    lines = {}
    for v, point in samples:
        if param not in v:
            raise MissingParameter(f"samples do not assign parameter {param!r}")
        rest = tuple(sorted((k, val) for k, val in v.items() if k != param))
        lines.setdefault(rest, []).append((v, point))
    lines = [sorted(line, key=lambda vp: vp[0][param])
             for _, line in sorted(lines.items(), key=lambda kv: kv[0]) if len(line) > 1]
    if not lines:
        return Verdict("holds", caveat=f"no two samples differ in {param!r} alone; vacuously holds")
    for sigma in enumerate_memoryless(query.model, grid_denominator):
        values = query.strategy_values(sigma)
        for line in lines:
            lo, f_lo = line[0][0], values(line[0][1])[0]
            for hi, point in line[1:]:
                f_hi = values(point)[0]
                if not (f_lo <= f_hi if direction == "up" else f_lo >= f_hi):
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
                lo, f_lo = hi, f_hi
    return Verdict("holds", caveat=caveat)
