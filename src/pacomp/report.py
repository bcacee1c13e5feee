"""Deterministic report assembly: every value JSON-safe, rationals as strings."""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction

from .algebra import Box, FiniteRegion, Polynomial, RegionUnion, format_rational
from .model import DFA, PPA
from .robust import RPA
from .semantics import MemorylessStrategy, TabularStrategy
from .verify import ProbObjective, RewardObjective, Verdict


def fmt_id(x) -> str:
    """Readable canonical rendering of heterogeneous identifiers."""
    if isinstance(x, tuple):
        return "(" + ",".join(fmt_id(i) for i in x) + ")"
    if isinstance(x, Fraction):
        return format_rational(x)
    if isinstance(x, frozenset):
        return "{" + ",".join(sorted(fmt_id(i) for i in x)) + "}"
    return str(x)


def scrub(obj):
    """Recursively convert toolkit values into JSON-stable structures."""
    from . import modelio

    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, float):
        return "inf" if obj == float("inf") else repr(obj)
    if isinstance(obj, Fraction):
        return format_rational(obj)
    if isinstance(obj, Polynomial):
        return str(obj)
    if isinstance(obj, (ProbObjective, RewardObjective)):
        return modelio.objective_to_jsonable(obj)
    if isinstance(obj, (Box, FiniteRegion, RegionUnion)):
        return modelio.region_to_jsonable(obj)
    if isinstance(obj, Verdict):
        return {
            "status": obj.status,
            "witness": scrub(obj.witness),
            "caveat": obj.caveat,
            "details": scrub(obj.details),
        }
    if isinstance(obj, (MemorylessStrategy, TabularStrategy)):
        return modelio.strategy_to_jsonable(obj)
    if isinstance(obj, PPA):
        return {"ppa": {"states": len(obj.states), "alphabet": sorted(obj.alphabet)}}
    if isinstance(obj, RPA):
        return {"rpa": {"states": len(obj.states), "alphabet": sorted(obj.alphabet)}}
    if isinstance(obj, DFA):
        return modelio.dfa_to_jsonable(obj)
    if isinstance(obj, dict):
        return {fmt_id(k): scrub(v) for k, v in sorted(obj.items(), key=lambda kv: fmt_id(kv[0]))}
    if isinstance(obj, (list, tuple)):
        return [scrub(v) for v in obj]
    if isinstance(obj, (set, frozenset)):
        return sorted((scrub(v) for v in obj), key=json.dumps)
    return repr(obj)


def digest_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def make_report(command, inputs, body) -> dict:
    """Assemble a byte-stable report; `pacomp --timing` replaces its timing."""
    return {
        "format": "pacomp/1",
        "command": command,
        "inputs": inputs,
        "report": scrub(body),
        "timing": {"measured": False},
    }


def render_report(report: dict) -> str:
    return json.dumps(report, indent=2, sort_keys=True) + "\n"
