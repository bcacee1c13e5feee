"""Deterministic report assembly: every value JSON-safe, rationals as strings."""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction

from . import modelio
from .algebra import Polynomial, format_rational
from .verify import Verdict


def fmt_id(x) -> str:
    """Readable canonical rendering of heterogeneous identifiers."""
    if isinstance(x, tuple):
        return "(" + ",".join(fmt_id(i) for i in x) + ")"
    if isinstance(x, Fraction):
        return format_rational(x)
    return str(x)


def scrub(obj):
    """Recursively convert toolkit values into JSON-stable structures."""
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, float):
        return "inf" if obj == float("inf") else repr(obj)
    if isinstance(obj, Fraction):
        return format_rational(obj)
    if isinstance(obj, Polynomial):
        return str(obj)
    if isinstance(obj, Verdict):
        return {
            "status": obj.status,
            "witness": scrub(obj.witness),
            "caveat": obj.caveat,
            "details": scrub(obj.details),
        }
    if isinstance(obj, dict):
        return {fmt_id(k): scrub(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [scrub(v) for v in obj]
    if isinstance(obj, (set, frozenset)):
        return sorted((scrub(v) for v in obj), key=json.dumps)
    if type(obj) in modelio.DOCUMENT_ROW:  # a DFA, objective, region or strategy
        return modelio.dump_document(obj)
    return repr(obj)


def digest_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def make_report(command, inputs, body) -> dict:
    """Assemble a byte-stable report; `pacomp --timing` replaces its timing."""
    return {
        "format": modelio.FORMAT,
        "command": command,
        "inputs": inputs,
        "report": scrub(body),
        "timing": {"measured": False},
    }


def render_report(report: dict) -> str:
    return json.dumps(report, indent=2, sort_keys=True) + "\n"
