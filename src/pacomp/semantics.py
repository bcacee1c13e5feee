"""Finite paths, strategies, exact path measures, and strategy projections.

Paths are tuples alternating states and actions, ``(s0, a0, s1, ..., sn)``.
All measures are exact rationals; strategies are tabulated up to an explicit
horizon or memoryless.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .errors import HorizonExceedsStrategyTable, NotComposedModel
from .model import PPA

Path = tuple


def path_len(path: Path) -> int:
    return (len(path) - 1) // 2


def path_last(path: Path):
    return path[-1]


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

def _mover(composed: PPA, side: int):
    """The test of whether component `side` moves in a step a of `composed`:
    iff a[side-1] is not in the joint alphabet, as `synchronise` names steps
    (a1, a2), (a1, label) and (label, a2) and keeps component actions out of it."""
    if not all(type(x) is tuple and len(x) == 2 for x in (*composed.states, *composed.actions)):
        raise NotComposedModel("a state or action is not a pair, so the model is not a composition")
    return lambda act: act[side - 1] not in composed.alphabet


def _project(pi: Path, side: int, moves) -> Path:
    out = [pi[0][side - 1]]
    for act, succ in zip(pi[1::2], pi[2::2]):
        if moves(act):
            out.extend([act[side - 1], succ[side - 1]])
    return tuple(out)


def path_project(pi: Path, composed: PPA, side: int) -> Path:
    """Restrict a composed path to the steps its `side` component performs."""
    return _project(pi, side, _mover(composed, side))


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
    moves = _mover(composed, side)
    _check_table_depth(sigma, horizon, "projection")
    lifted = {}
    for path, prob in _walk(composed, sigma, horizon + 1)[0].items():
        if len(path) == 1 or moves(path[-2]):
            pi_i = _project(path, side, moves)
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
