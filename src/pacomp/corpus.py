"""Bundled demo corpus: small parametric and robust automata plus the standard
languages and strategies used throughout the test suite and the demo CLI runs.

The corpus models a tiny transmission setting: a two-state retry component
that may collide (parameter p), a five-state pipeline whose second hop quality
is q, and robust variants with interval or two-point uncertainty.
"""

from __future__ import annotations

from fractions import Fraction

from .algebra import Polynomial
from .model import (
    PPA,
    dfa_forbid_prefix,
    dfa_forbid_symbols,
    dfa_limit_count,
    dirac,
    make_ppa,
)
from .robust import RPA, IntervalSet, VertexSet, make_rpa
from .semantics import MemorylessStrategy

P = Polynomial.var("p")
Q = Polynomial.var("q")
ONE = Polynomial.const(1)


def retry_component() -> PPA:
    """Two states over {a, b, c}: action a succeeds with probability 1-p."""
    return make_ppa(
        states=("s0", "s1"),
        initial="s0",
        params={"p"},
        trans={
            ("s0", "s0_a"): ("a", {"s1": ONE - P, "s0": P}),
            ("s0", "s0_b"): ("b", dirac("s0")),
            ("s0", "s0_c"): ("c", dirac("s0")),
            ("s1", "s1_b"): ("b", dirac("s1")),
        },
        alphabet={"a", "b", "c"},
    )


def pipeline_component() -> PPA:
    """Five-state pipeline over {a, c, fail}; failure hides behind two hops."""
    return make_ppa(
        states=("t0", "t1", "t2", "t3", "t4"),
        initial="t0",
        params={"p", "q"},
        trans={
            ("t0", "t0_a"): ("a", {"t1": ONE - P, "t2": P}),
            ("t1", "t1_a"): ("a", {"t3": Q, "t4": ONE - Q}),
            ("t2", "t2_c"): ("c", {"t4": Fraction(9, 10), "t3": Fraction(1, 10)}),
            ("t3", "t3_f"): ("fail", dirac("t3")),
            ("t4", "t4_c"): ("c", dirac("t4")),
        },
        alphabet={"a", "c", "fail"},
    )


def handoff_fixed() -> PPA:
    """Parameter-free two-state component: a then a biased b-step back."""
    return make_ppa(
        states=("s0", "s1"),
        initial="s0",
        params=set(),
        trans={
            ("s0", "s0_a"): ("a", dirac("s1")),
            ("s1", "s1_b"): ("b", {"s0": Fraction(9, 10), "s1": Fraction(1, 10)}),
        },
        alphabet={"a", "b"},
    )


def handoff_parametric() -> PPA:
    """As handoff_fixed but the b-step returns with probability p."""
    return make_ppa(
        states=("s0", "s1"),
        initial="s0",
        params={"p"},
        trans={
            ("s0", "s0_a"): ("a", dirac("s1")),
            ("s1", "s1_b"): ("b", {"s0": P, "s1": ONE - P}),
        },
        alphabet={"a", "b"},
    )


def split_responder() -> PPA:
    """Three states; two a-branches whose b-steps mirror each other in p."""
    return make_ppa(
        states=("t0", "t1", "t2"),
        initial="t0",
        params={"p"},
        trans={
            ("t0", "t0_a1"): ("a", dirac("t1")),
            ("t0", "t0_a2"): ("a", dirac("t2")),
            ("t1", "t1_b"): ("b", {"t0": ONE - P, "t1": P}),
            ("t2", "t2_b"): ("b", {"t0": P, "t2": ONE - P}),
        },
        alphabet={"a", "b"},
    )


# ---------------------------------------------------------------------------
# Robust variants
# ---------------------------------------------------------------------------

def interval_retry() -> RPA:
    """Interval version of the retry component over {a, b}."""
    return make_rpa(
        states=("s0", "s1"),
        initial="s0",
        utrans={
            ("s0", "s0_a"): (
                "a",
                IntervalSet.of({"s0": (0, Fraction(1, 2)), "s1": (Fraction(1, 2), 1)}),
            ),
            ("s1", "s1_a"): ("a", VertexSet.dirac("s1")),
            ("s1", "s1_b"): ("b", VertexSet.dirac("s1")),
        },
        alphabet={"a", "b"},
    )


def interval_responder() -> RPA:
    """Interval pipeline over {a, b, c, fail}; the a-split is uncertain."""
    return make_rpa(
        states=("t0", "t1", "t2"),
        initial="t0",
        utrans={
            ("t0", "t0_a"): (
                "a",
                IntervalSet.of(
                    {
                        "t1": (Fraction(1, 10), Fraction(9, 10)),
                        "t2": (Fraction(1, 10), Fraction(9, 10)),
                    }
                ),
            ),
            ("t1", "t1_c"): ("c", VertexSet.dirac("t0")),
            ("t2", "t2_b"): ("b", VertexSet.dirac("t2")),
            ("t2", "t2_f"): ("fail", VertexSet.dirac("t2")),
        },
        alphabet={"a", "b", "c", "fail"},
    )


def half_retry() -> RPA:
    """Retry variant with a single fifty-fifty a-distribution."""
    return make_rpa(
        states=("s0", "s1"),
        initial="s0",
        utrans={
            ("s0", "s0_a"): (
                "a",
                VertexSet.of([{"s0": Fraction(1, 2), "s1": Fraction(1, 2)}]),
            ),
            ("s1", "s1_a"): ("a", VertexSet.dirac("s1")),
            ("s1", "s1_b"): ("b", VertexSet.dirac("s1")),
        },
        alphabet={"a", "b"},
    )


def two_point_responder() -> RPA:
    """Responder whose a-split is one of two mirrored distributions (non-convex)."""
    return make_rpa(
        states=("t0", "t1", "t2"),
        initial="t0",
        utrans={
            ("t0", "t0_a"): (
                "a",
                VertexSet.of(
                    [
                        {"t1": Fraction(9, 10), "t2": Fraction(1, 10)},
                        {"t1": Fraction(1, 10), "t2": Fraction(9, 10)},
                    ]
                ),
            ),
            ("t1", "t1_c"): ("c", VertexSet.dirac("t0")),
            ("t2", "t2_b"): ("b", VertexSet.dirac("t2")),
            ("t2", "t2_f"): ("fail", VertexSet.dirac("t2")),
        },
        alphabet={"a", "b", "c", "fail"},
    )


# ---------------------------------------------------------------------------
# Languages and strategies
# ---------------------------------------------------------------------------

FULL = frozenset({"a", "b", "c", "fail"})


def no_fail_dfa():
    return dfa_forbid_symbols({"fail"}, FULL)


def no_c_dfa():
    return dfa_forbid_symbols({"c"}, FULL)


def limit_one_a_dfa():
    return dfa_limit_count("a", 1, {"a", "b"})


def acaf_prefix_dfa():
    return dfa_forbid_prefix(("a", "c", "a", "fail"), FULL)


def ab_prefix_dfa():
    return dfa_forbid_prefix(("a", "b"), {"a", "b"})


def trivial_dfa(alphabet):
    return dfa_forbid_symbols((), frozenset(alphabet))


def priority_strategy(pa: PPA, priority=("a", "c", "fail"), fallback="b"):
    """Memoryless: play the first priority label available, else the fallback."""
    choice = {}
    for s in pa.states:
        acts = pa.enabled(s)
        if not acts:
            continue
        picked = None
        for lab in priority:
            for a in acts:
                if pa.label[(s, a)] == lab:
                    picked = a
                    break
            if picked is not None:
                break
        if picked is None:
            for a in acts:
                if pa.label[(s, a)] == fallback:
                    picked = a
                    break
        if picked is None:
            picked = acts[0]
        choice[s] = {picked: Fraction(1)}
    return MemorylessStrategy(choice, complete=True)
