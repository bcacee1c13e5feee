"""Finite paths, strategies, exact path measures, and strategy projections.

Paths are tuples alternating states and actions, ``(s0, a0, s1, ..., sn)``.
All measures are exact rationals; strategies are tabulated up to an explicit
horizon or memoryless.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .errors import HorizonExceedsStrategyTable, NotComposedModel
from .model import PPA, sort_key

Path = tuple


def path_len(path: Path) -> int:
    return (len(path) - 1) // 2


def path_last(path: Path):
    return path[-1]


def path_prefix(path: Path, steps: int) -> Path:
    return path[: 2 * steps + 1]


# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------

@dataclass
class TabularStrategy:
    """Randomized scheduler given explicitly on path histories up to a horizon.

    Paths beyond the horizon get the empty subdistribution, so a truncated
    table is itself a legitimate partial strategy.
    """

    table: dict  # Path -> {action: Fraction}
    horizon: int
    complete: bool = False

    def dist(self, path: Path) -> dict:
        if path_len(path) >= self.horizon and path not in self.table:
            return {}
        return self.table.get(path, {})

    def mass(self, path: Path, action) -> Fraction:
        return self.dist(path).get(action, Fraction(0))


@dataclass
class MemorylessStrategy:
    """Scheduler that sees only the current state."""

    choice: dict  # state -> {action: Fraction}
    complete: bool = True

    def dist(self, path: Path) -> dict:
        return self.choice.get(path_last(path), {})

    def mass(self, path: Path, action) -> Fraction:
        return self.dist(path).get(action, Fraction(0))


def memoryless(choice, complete=True) -> MemorylessStrategy:
    norm = {
        s: {a: Fraction(p) for a, p in d.items() if Fraction(p) != 0}
        for s, d in choice.items()
    }
    return MemorylessStrategy(norm, complete)


def deterministic(choice) -> MemorylessStrategy:
    """Memoryless strategy playing one fixed action per state."""
    return memoryless({s: {a: Fraction(1)} for s, a in choice.items()})


def empty_strategy() -> TabularStrategy:
    return TabularStrategy({}, horizon=0, complete=False)


def validate_strategy(m: PPA, sigma) -> None:
    """Check mass only on enabled actions and per-path totals at most one."""
    if isinstance(sigma, MemorylessStrategy):
        items = ((s, d) for s, d in sigma.choice.items())
        for s, d in items:
            total = Fraction(0)
            for a, p in d.items():
                if (s, a) not in m.trans:
                    raise ValueError(f"mass on disabled action {(s, a)!r}")
                if p < 0:
                    raise ValueError("negative strategy mass")
                total += p
            if total > 1:
                raise ValueError("strategy mass exceeds one")
        return
    for path, d in sigma.table.items():
        last = path_last(path)
        total = Fraction(0)
        for a, p in d.items():
            if (last, a) not in m.trans:
                raise ValueError(f"mass on disabled action {(last, a)!r}")
            if p < 0:
                raise ValueError("negative strategy mass")
            total += p
        if total > 1:
            raise ValueError("strategy mass exceeds one")


def tabulate(m: PPA, sigma, horizon: int) -> TabularStrategy:
    """Tabulate a strategy on the positive-measure histories up to `horizon`."""
    table = {}
    frontier = {(m.initial,): Fraction(1)}
    for _ in range(horizon):
        nxt = {}
        for path, mass in frontier.items():
            dist = sigma.dist(path)
            if dist:
                table[path] = dict(dist)
            for a, pa in dist.items():
                if pa == 0:
                    continue
                for t, prob in m.const_dist(path_last(path), a).items():
                    if prob == 0:
                        continue
                    ext = path + (a, t)
                    nxt[ext] = nxt.get(ext, Fraction(0)) + mass * pa * prob
        frontier = nxt
        if not frontier:
            break
    complete = getattr(sigma, "complete", False)
    return TabularStrategy(table, horizon, complete)


# ---------------------------------------------------------------------------
# Path measures
# ---------------------------------------------------------------------------

@dataclass
class PathMeasure:
    """Exact cylinder probabilities of the positive-measure initial paths."""

    probs: dict  # Path -> Fraction
    horizon: int
    stopped: dict = field(default_factory=dict)  # Path -> retained stopping mass

    def prob(self, path: Path) -> Fraction:
        return self.probs.get(path, Fraction(0))


def cyl_prob(m: PPA, sigma, path: Path) -> Fraction:
    """Probability of the cylinder of one finite path."""
    if path[0] != m.initial:
        return Fraction(0)
    total = Fraction(1)
    for i in range(path_len(path)):
        prefix = path_prefix(path, i)
        s, a, t = path[2 * i], path[2 * i + 1], path[2 * i + 2]
        total *= sigma.mass(prefix, a) * m.prob(s, a, t)
        if total == 0:
            return Fraction(0)
    return total


def measure(m: PPA, sigma, horizon: int) -> PathMeasure:
    """All positive-measure initial paths up to `horizon`, with probabilities."""
    if not m.is_pa:
        raise ValueError("measures need a parameter-free model; instantiate first")
    if horizon < 0:
        raise ValueError("horizon must be nonnegative")
    # beyond its table a tabular strategy stops, which is fine for partial
    # strategies but contradicts a completeness claim
    if (
        isinstance(sigma, TabularStrategy)
        and sigma.complete
        and sigma.horizon < horizon
    ):
        raise HorizonExceedsStrategyTable(
            f"complete strategy tabulated to {sigma.horizon}, measure needs {horizon}"
        )
    probs = {(m.initial,): Fraction(1)}
    stopped = {}
    frontier = {(m.initial,): Fraction(1)}
    for _ in range(horizon):
        nxt = {}
        for path, mass in frontier.items():
            dist = sigma.dist(path)
            used = Fraction(0)
            for a, pa in dist.items():
                if pa == 0:
                    continue
                used += pa
                for t, prob in m.const_dist(path_last(path), a).items():
                    if prob == 0:
                        continue
                    ext = path + (a, t)
                    add = mass * pa * prob
                    if add:
                        nxt[ext] = nxt.get(ext, Fraction(0)) + add
        for path, mass in frontier.items():
            dist = sigma.dist(path)
            rest = mass * (1 - sum(dist.values(), Fraction(0)))
            if rest:
                stopped[path] = stopped.get(path, Fraction(0)) + rest
        probs.update(nxt)
        frontier = nxt
        if not frontier:
            break
    return PathMeasure(probs, horizon, stopped)


# ---------------------------------------------------------------------------
# Projections of paths and strategies
# ---------------------------------------------------------------------------

def _component_parts(composed: PPA):
    if not composed.composed_of or len(composed.composed_of) != 2:
        raise NotComposedModel("model does not carry composition metadata")
    return composed.composed_of


def _moves(action_pair, side, components):
    """The component action if `side` moves in this composed step, else None."""
    part = action_pair[side - 1]
    return part if part in set(components[side - 1].actions) else None


def path_project(pi: Path, composed: PPA, side: int) -> Path:
    """Restrict a composed path to the steps its `side` component performs."""
    comps = _component_parts(composed)
    out = [pi[0][side - 1]]
    for i in range(path_len(pi)):
        act, succ = pi[2 * i + 1], pi[2 * i + 2]
        comp_act = _moves(act, side, comps)
        if comp_act is not None:
            out.extend([comp_act, succ[side - 1]])
    return tuple(out)


def lifted_paths(pi_i: Path, composed: PPA, side: int, horizon: int):
    """All composed initial paths of length <= horizon projecting to `pi_i`.

    Zero-probability transitions are traversable, so enumeration follows the
    declared transition structure, not any particular strategy's support.
    """
    comps = _component_parts(composed)
    results = []

    def expand(path, idx):
        if idx == path_len(pi_i) and path_project(path, composed, side) == pi_i:
            results.append(path)
        if path_len(path) >= horizon:
            return
        s = path_last(path)
        for a in composed.enabled(s):
            comp_act = _moves(a, side, comps)
            if comp_act is not None:
                if idx >= path_len(pi_i) or comp_act != pi_i[2 * idx + 1]:
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


def union_cylinder_prob(m: PPA, sigma, paths) -> Fraction:
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


def _lift_measure(composed, sigma, pi_i, side, horizon):
    """Measure of the lifted-path set, summing prefix-minimal cylinders.

    Enumerates along the strategy/transition support only: paths outside it
    have measure zero and minimality of a support path is unaffected because a
    lifted proper prefix of a support path is itself a support path.
    """
    comps = _component_parts(composed)
    target_len = path_len(pi_i)
    total = Fraction(0)

    def expand(path, idx, mass):
        nonlocal total
        if idx == target_len:
            total += mass
            return
        if path_len(path) >= horizon or mass == 0:
            return
        s = path_last(path)
        for a, pa in sigma.dist(path).items():
            if pa == 0 or (s, a) not in composed.trans:
                continue
            comp_act = _moves(a, side, comps)
            dist = composed.const_dist(s, a)
            if comp_act is not None:
                if comp_act != pi_i[2 * idx + 1]:
                    continue
                want = pi_i[2 * idx + 2]
                for t, prob in dist.items():
                    if prob and t[side - 1] == want:
                        expand(path + (a, t), idx + 1, mass * pa * prob)
            else:
                for t, prob in dist.items():
                    if prob:
                        expand(path + (a, t), idx, mass * pa * prob)

    if pi_i[0] == composed.initial[side - 1]:
        expand((composed.initial,), 0, Fraction(1))
    return total


def strategy_project(composed: PPA, sigma, side: int, horizon: int) -> TabularStrategy:
    """Project a composed-model strategy to one component.

    Entry at (pi_i, a_i) is the conditional probability, under the composed
    measure, that component `side` performs `a_i` next given that its observed
    history is `pi_i`; zero when the conditioning event has measure zero.
    """
    comps = _component_parts(composed)
    component = comps[side - 1]
    if (
        isinstance(sigma, TabularStrategy)
        and sigma.complete
        and sigma.horizon < horizon
    ):
        raise HorizonExceedsStrategyTable(
            f"complete strategy tabulated to {sigma.horizon}, projection needs {horizon}"
        )
    table = {}
    lift_cache = {}

    def lift(pi_i):
        if pi_i not in lift_cache:
            lift_cache[pi_i] = _lift_measure(composed, sigma, pi_i, side, horizon + 1)
        return lift_cache[pi_i]

    def visit(pi_i):
        if path_len(pi_i) >= horizon:
            return
        denom = lift(pi_i)
        if denom == 0:
            # no composed path projects here with positive measure, so every
            # extension has a zero denominator as well: all entries stay 0
            return
        entry = {}
        last = path_last(pi_i)
        for a in component.enabled(last):
            numer = Fraction(0)
            for t in sorted(component.trans[(last, a)], key=sort_key):
                numer += lift(pi_i + (a, t))
            if numer:
                entry[a] = numer / denom
        if entry:
            table[pi_i] = entry
        for a in component.enabled(last):
            for t in sorted(component.trans[(last, a)], key=sort_key):
                visit(pi_i + (a, t))

    visit((component.initial,))
    return TabularStrategy(table, horizon, complete=False)


# ---------------------------------------------------------------------------
# Bounded fairness check (a necessary condition only)
# ---------------------------------------------------------------------------

def fair_check(m: PPA, sigma, fairness_sets, horizon: int):
    """Bounded structural fairness check for a complete strategy.

    Verdict "fair-up-to-horizon" means every positive-measure path of the
    given length either already visits each fairness alphabet or still can:
    the strategy assigns mass to a matching action now, or one stays reachable
    through the transition graph.  This is a necessary condition; it never
    certifies actual fairness.
    """
    if not getattr(sigma, "complete", False):
        raise ValueError("fairness is defined for complete strategies")
    pm = measure(m, sigma, horizon)
    frontier = [p for p in pm.probs if path_len(p) == horizon]
    if not frontier and horizon > 0:
        frontier = [max(pm.probs, key=path_len)]

    graph_reach = {}

    def can_reach_label(state, labels):
        key = (state, labels)
        if key not in graph_reach:
            seen, stack, hit = {state}, [state], False
            while stack:
                s = stack.pop()
                for a in m.enabled(s):
                    if m.label[(s, a)] in labels:
                        hit = True
                        stack = []
                        break
                    for t in m.trans[(s, a)]:
                        if t not in seen:
                            seen.add(t)
                            stack.append(t)
            graph_reach[key] = hit
        return graph_reach[key]

    for fset in fairness_sets:
        labels = frozenset(fset)
        for path in frontier:
            visited = any(
                m.label[(path[2 * i], path[2 * i + 1])] in labels
                for i in range(path_len(path))
            )
            if visited:
                continue
            enabled_now = any(
                m.label[(path_last(path), a)] in labels and mass > 0
                for a, mass in sigma.dist(path).items()
                if (path_last(path), a) in m.trans
            )
            if enabled_now:
                continue
            if not can_reach_label(path_last(path), labels):
                return ("violated-witness", path, labels)
            if not _strategy_touches(m, sigma, pm, labels):
                return ("violated-witness", path, labels)
    return ("fair-up-to-horizon", None, None)


def _strategy_touches(m, sigma, pm, labels):
    for path in pm.probs:
        for a, mass in sigma.dist(path).items():
            if mass > 0 and (path_last(path), a) in m.trans:
                if m.label[(path_last(path), a)] in labels:
                    return True
    return False
