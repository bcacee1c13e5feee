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


def empty_strategy() -> TabularStrategy:
    return TabularStrategy({}, horizon=0, complete=False)


def validate_strategy(m: PPA, sigma) -> None:
    """Check mass only on enabled actions and per-path totals at most one."""
    if isinstance(sigma, MemorylessStrategy):
        rows = sigma.choice.items()
    else:
        rows = ((path_last(path), d) for path, d in sigma.table.items())
    for s, d in rows:
        total = Fraction(0)
        for a, p in d.items():
            if (s, a) not in m.trans:
                raise ValueError(f"mass on disabled action {(s, a)!r}")
            if p < 0:
                raise ValueError("negative strategy mass")
            total += p
        if total > 1:
            raise ValueError("strategy mass exceeds one")


def tabulate(m: PPA, sigma, horizon: int) -> TabularStrategy:
    """Tabulate a strategy on the positive-measure histories up to `horizon`."""
    table = {}
    for path in _walk(m, sigma, horizon)[0]:
        dist = sigma.dist(path)
        if dist and path_len(path) < horizon:
            table[path] = dict(dist)
    return TabularStrategy(table, horizon, getattr(sigma, "complete", False))


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
        total *= sigma.mass(prefix, a) * m.trans.get((s, a), {}).get(t, 0)
        if total == 0:
            return Fraction(0)
    return total


def _check_table_depth(sigma, horizon: int, purpose: str) -> None:
    # beyond its table a tabular strategy stops, which is fine for partial
    # strategies but contradicts a completeness claim
    if isinstance(sigma, TabularStrategy) and sigma.complete and sigma.horizon < horizon:
        raise HorizonExceedsStrategyTable(
            f"complete strategy tabulated to {sigma.horizon}, {purpose} needs {horizon}"
        )


def _walk(m: PPA, sigma, horizon: int):
    """The positive-measure initial paths up to `horizon`, shortest first.

    Returns each path's cylinder probability, and the mass each path shorter
    than `horizon` stops with.  Only actions in `m.trans` are followed: mass
    on an action the state does not enable leads nowhere.
    """
    probs = {(m.initial,): Fraction(1)}
    stopped = {}
    frontier = list(probs.items())
    for _ in range(horizon):
        nxt = []
        for path, mass in frontier:
            dist = sigma.dist(path)
            used = sum(dist.values(), Fraction(0))
            if used != 1:
                stopped[path] = mass * (1 - used)
            s = path[-1]
            for a, pa in dist.items():
                if pa and (s, a) in m.trans:
                    weight = mass * pa
                    nxt.extend(
                        (path + (a, t), weight * prob)
                        for t, prob in m.trans[(s, a)].items() if prob
                    )
        probs.update(nxt)
        frontier = nxt
        if not frontier:
            break
    return probs, stopped


def measure(m: PPA, sigma, horizon: int) -> PathMeasure:
    """All positive-measure initial paths up to `horizon`, with probabilities."""
    if not m.is_pa:
        raise ValueError("measures need a parameter-free model; instantiate first")
    if horizon < 0:
        raise ValueError("horizon must be nonnegative")
    _check_table_depth(sigma, horizon, "measure")
    probs, stopped = _walk(m, sigma, horizon)
    return PathMeasure(probs, horizon, stopped)


# ---------------------------------------------------------------------------
# Projections of paths and strategies
# ---------------------------------------------------------------------------

def _component_parts(composed: PPA):
    if not composed.composed_of or len(composed.composed_of) != 2:
        raise NotComposedModel("model does not carry composition metadata")
    return composed.composed_of


def _own_actions(composed: PPA, side: int) -> set:
    """The actions of component `side`: a composed step moves it iff its
    `side` part is one of them."""
    return set(_component_parts(composed)[side - 1].actions)


def path_project(pi: Path, composed: PPA, side: int) -> Path:
    """Restrict a composed path to the steps its `side` component performs."""
    own = _own_actions(composed, side)
    out = [pi[0][side - 1]]
    for act, succ in zip(pi[1::2], pi[2::2]):
        if act[side - 1] in own:
            out.extend([act[side - 1], succ[side - 1]])
    return tuple(out)


def lifted_paths(pi_i: Path, composed: PPA, side: int, horizon: int):
    """All composed initial paths of length <= horizon projecting to `pi_i`.

    Zero-probability transitions are traversable, so enumeration follows the
    declared transition structure, not any particular strategy's support.
    """
    own = _own_actions(composed, side)
    results = []

    def expand(path, idx):
        if idx == path_len(pi_i) and path_project(path, composed, side) == pi_i:
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


def strategy_project(composed: PPA, sigma, side: int, horizon: int) -> TabularStrategy:
    """Project a composed-model strategy to one component.

    Entry at (pi_i, a_i) is the conditional probability, under the composed
    measure, that component `side` performs `a_i` next given that its observed
    history is `pi_i`; zero when the conditioning event has measure zero.
    Both events are read off one walk of the composed measure to
    `horizon + 1`: the prefix-minimal lifts of `pi_i` are the walked paths
    that project to it and are initial or end with a `side` move, so their
    cylinders are disjoint and `lifted[pi_i]` is the measure of their union.
    """
    own = _own_actions(composed, side)
    _check_table_depth(sigma, horizon, "projection")
    lifted = {}
    for path, prob in _walk(composed, sigma, horizon + 1)[0].items():
        if len(path) == 1 or path[-2][side - 1] in own:
            pi_i = path_project(path, composed, side)
            lifted[pi_i] = lifted.get(pi_i, Fraction(0)) + prob
    numers = {}
    for pi_i, mass in lifted.items():
        if len(pi_i) > 1:
            row = numers.setdefault(pi_i[:-2], {})
            row[pi_i[-2]] = row.get(pi_i[-2], Fraction(0)) + mass
    table = {}
    for pi_i, row in numers.items():
        denom = lifted.get(pi_i)
        if denom and path_len(pi_i) < horizon:
            entry = {a: numer / denom for a, numer in row.items() if numer}
            if entry:
                table[pi_i] = entry
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
        touches = _strategy_touches(m, sigma, pm, labels)
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
            if not (touches and can_reach_label(path_last(path), labels)):
                return ("violated-witness", path, labels)
    return ("fair-up-to-horizon", None, None)


def _strategy_touches(m, sigma, pm, labels):
    for path in pm.probs:
        for a, mass in sigma.dist(path).items():
            if mass > 0 and (path_last(path), a) in m.trans:
                if m.label[(path_last(path), a)] in labels:
                    return True
    return False
