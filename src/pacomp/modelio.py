"""Versioned JSON serialization for models, automata, queries, and regions.

Format tag: "pacomp/1".  Identifiers may be strings, integers, rationals, or
nested tuples; tuples and rationals are tagged so round-trips are exact.
Polynomials and rationals travel as canonical strings.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .algebra import (
    Box,
    FiniteRegion,
    Polynomial,
    RegionUnion,
    format_rational,
    parse_poly,
    parse_rational,
)
from .errors import ParseError
from .model import DFA, PPA, make_ppa, sort_key
from .robust import RPA, IntervalSet, VertexSet, make_rpa
from .semantics import MemorylessStrategy, TabularStrategy
from .verify import ProbObjective, RewardObjective

FORMAT = "pacomp/1"


def _enc_id(x):
    if isinstance(x, tuple):
        return {"t": [_enc_id(i) for i in x]}
    if isinstance(x, Fraction):
        return {"q": format_rational(x)}
    if isinstance(x, frozenset):
        return {"fs": sorted((_enc_id(i) for i in x), key=json.dumps)}
    return x


def _dec_id(x):
    if isinstance(x, dict):
        if "t" in x:
            return tuple(_dec_id(i) for i in x["t"])
        if "q" in x:
            return parse_rational(x["q"])
        if "fs" in x:
            return frozenset(_dec_id(i) for i in x["fs"])
    return x


def ppa_to_jsonable(m: PPA) -> dict:
    return {
        "format": FORMAT,
        "type": "ppa",
        "states": [_enc_id(s) for s in m.states],
        "initial": _enc_id(m.initial),
        "params": sorted(m.params),
        "alphabet": sorted(m.alphabet),
        "transitions": [
            {
                "state": _enc_id(s),
                "action": _enc_id(a),
                "label": m.label[(s, a)],
                "dist": [
                    [_enc_id(t), str(Polynomial.coerce(p))]
                    for t, p in sorted(dist.items(), key=lambda kv: sort_key(kv[0]))
                ],
            }
            for (s, a), dist in sorted(m.trans.items(), key=lambda kv: sort_key(kv[0]))
        ],
    }


def ppa_from_jsonable(doc: dict) -> PPA:
    if doc.get("format") != FORMAT or doc.get("type") != "ppa":
        raise ParseError("expected a pacomp/1 ppa document")
    trans = {}
    for entry in doc["transitions"]:
        s = _dec_id(entry["state"])
        a = _dec_id(entry["action"])
        dist = {_dec_id(t): parse_poly(p) for t, p in entry["dist"]}
        trans[(s, a)] = (entry["label"], dist)
    return make_ppa(
        states=[_dec_id(s) for s in doc["states"]],
        initial=_dec_id(doc["initial"]),
        params=set(doc["params"]),
        trans=trans,
        alphabet=set(doc["alphabet"]),
    )


def dfa_to_jsonable(b: DFA) -> dict:
    return {
        "format": FORMAT,
        "type": "dfa",
        "states": [_enc_id(q) for q in b.states],
        "initial": _enc_id(b.initial),
        "alphabet": sorted(b.alphabet),
        "accepting": sorted((_enc_id(q) for q in b.accepting), key=json.dumps),
        "transitions": [
            [_enc_id(q), sym, _enc_id(t)]
            for (q, sym), t in sorted(b.trans.items(), key=lambda kv: sort_key(kv[0]))
        ],
    }


def dfa_from_jsonable(doc: dict) -> DFA:
    if doc.get("format") != FORMAT or doc.get("type") != "dfa":
        raise ParseError("expected a pacomp/1 dfa document")
    return DFA(
        states=tuple(_dec_id(q) for q in doc["states"]),
        initial=_dec_id(doc["initial"]),
        alphabet=frozenset(doc["alphabet"]),
        trans={(_dec_id(q), sym): _dec_id(t) for q, sym, t in doc["transitions"]},
        accepting=frozenset(_dec_id(q) for q in doc["accepting"]),
    )


def rpa_to_jsonable(u: RPA) -> dict:
    transitions = []
    for (s, a), uset in sorted(u.utrans.items(), key=lambda kv: sort_key(kv[0])):
        entry = {"state": _enc_id(s), "action": _enc_id(a), "label": u.label[(s, a)]}
        if isinstance(uset, IntervalSet):
            entry["interval"] = [
                [_enc_id(t), [format_rational(lo), format_rational(hi)]]
                for t, (lo, hi) in uset.bounds
            ]
        elif isinstance(uset, VertexSet):
            entry["vertices"] = [
                [[_enc_id(t), format_rational(p)] for t, p in dist]
                for dist in uset.dists
            ]
        else:
            raise ParseError("only interval or vertex-listed sets serialize")
        transitions.append(entry)
    return {
        "format": FORMAT,
        "type": "rpa",
        "states": [_enc_id(s) for s in u.states],
        "initial": _enc_id(u.initial),
        "alphabet": sorted(u.alphabet),
        "transitions": transitions,
    }


def rpa_from_jsonable(doc: dict) -> RPA:
    if doc.get("format") != FORMAT or doc.get("type") != "rpa":
        raise ParseError("expected a pacomp/1 rpa document")
    utrans = {}
    for entry in doc["transitions"]:
        s, a = _dec_id(entry["state"]), _dec_id(entry["action"])
        if "interval" in entry:
            uset = IntervalSet.of(
                {
                    _dec_id(t): (parse_rational(lo), parse_rational(hi))
                    for t, (lo, hi) in entry["interval"]
                }
            )
        elif "vertices" in entry:
            uset = VertexSet.of(
                [
                    {_dec_id(t): parse_rational(p) for t, p in dist}
                    for dist in entry["vertices"]
                ]
            )
        else:
            raise ParseError("rpa transition needs 'interval' or 'vertices'")
        utrans[(s, a)] = (entry["label"], uset)
    return make_rpa(
        states=[_dec_id(s) for s in doc["states"]],
        initial=_dec_id(doc["initial"]),
        utrans=utrans,
        alphabet=set(doc["alphabet"]),
    )


def objective_to_jsonable(obj) -> dict:
    if isinstance(obj, ProbObjective):
        return {
            "kind": "prob",
            "cmp": obj.cmp,
            "threshold": format_rational(obj.threshold),
            "dfa": dfa_to_jsonable(obj.dfa),
            "name": obj.name,
        }
    if isinstance(obj, RewardObjective):
        return {
            "kind": "reward",
            "cmp": obj.cmp,
            "threshold": format_rational(obj.threshold),
            "rewards": [[sym, str(Polynomial.coerce(r))] for sym, r in obj.rewards],
            "name": obj.name,
        }
    raise ParseError(f"not an objective: {obj!r}")


def objective_from_jsonable(doc: dict):
    if doc["kind"] == "prob":
        return ProbObjective(
            doc["cmp"],
            parse_rational(doc["threshold"]),
            dfa_from_jsonable(doc["dfa"]),
            doc.get("name", ""),
        )
    if doc["kind"] == "reward":
        return RewardObjective(
            doc["cmp"],
            parse_rational(doc["threshold"]),
            tuple((sym, parse_poly(r)) for sym, r in doc["rewards"]),
            doc.get("name", ""),
        )
    raise ParseError(f"unknown objective kind {doc.get('kind')!r}")


def query_to_jsonable(query) -> dict:
    return {
        "format": FORMAT,
        "type": "mo-query",
        "objectives": [objective_to_jsonable(o) for o in query],
    }


def query_from_jsonable(doc: dict) -> tuple:
    if doc.get("type") != "mo-query":
        raise ParseError("expected a mo-query document")
    return tuple(objective_from_jsonable(o) for o in doc["objectives"])


def region_to_jsonable(region) -> dict:
    if isinstance(region, Box):
        return {
            "type": "box",
            "bounds": [
                [p, [format_rational(lo), format_rational(hi)]]
                for p, (lo, hi) in region.bounds
            ],
        }
    if isinstance(region, FiniteRegion):
        return {
            "type": "finite",
            "valuations": [
                [[p, format_rational(v)] for p, v in key] for key in region.valuations
            ],
        }
    if isinstance(region, RegionUnion):
        return {"type": "union", "parts": [region_to_jsonable(p) for p in region.parts]}
    raise ParseError(f"not a region: {region!r}")


def region_from_jsonable(doc: dict):
    if doc["type"] == "box":
        return Box.of(
            {p: (parse_rational(lo), parse_rational(hi)) for p, (lo, hi) in doc["bounds"]}
        )
    if doc["type"] == "finite":
        return FiniteRegion.of(
            [{p: parse_rational(v) for p, v in val} for val in doc["valuations"]]
        )
    if doc["type"] == "union":
        return RegionUnion.of(region_from_jsonable(p) for p in doc["parts"])
    raise ParseError(f"unknown region type {doc.get('type')!r}")


def strategy_to_jsonable(sigma) -> dict:
    if isinstance(sigma, MemorylessStrategy):
        return {
            "format": FORMAT,
            "type": "strategy",
            "kind": "memoryless",
            "complete": sigma.complete,
            "choice": [
                [_enc_id(s), [[_enc_id(a), format_rational(p)] for a, p in sorted(d.items(), key=lambda kv: sort_key(kv[0]))]]
                for s, d in sorted(sigma.choice.items(), key=lambda kv: sort_key(kv[0]))
            ],
        }
    if isinstance(sigma, TabularStrategy):
        return {
            "format": FORMAT,
            "type": "strategy",
            "kind": "tabular",
            "horizon": sigma.horizon,
            "complete": sigma.complete,
            "table": [
                [
                    [_enc_id(x) for x in path],
                    [[_enc_id(a), format_rational(p)] for a, p in sorted(d.items(), key=lambda kv: sort_key(kv[0]))],
                ]
                for path, d in sorted(sigma.table.items(), key=lambda kv: sort_key(kv[0]))
            ],
        }
    raise ParseError(f"not a strategy: {sigma!r}")


def strategy_from_jsonable(doc: dict):
    if doc.get("type") != "strategy":
        raise ParseError("expected a strategy document")
    if doc["kind"] == "memoryless":
        return MemorylessStrategy(
            {
                _dec_id(s): {_dec_id(a): parse_rational(p) for a, p in d}
                for s, d in doc["choice"]
            },
            complete=doc.get("complete", True),
        )
    if doc["kind"] == "tabular":
        return TabularStrategy(
            {
                tuple(_dec_id(x) for x in path): {
                    _dec_id(a): parse_rational(p) for a, p in d
                }
                for path, d in doc["table"]
            },
            horizon=doc["horizon"],
            complete=doc.get("complete", False),
        )
    raise ParseError(f"unknown strategy kind {doc.get('kind')!r}")


_LOADERS = {
    "ppa": ppa_from_jsonable,
    "dfa": dfa_from_jsonable,
    "rpa": rpa_from_jsonable,
    "mo-query": query_from_jsonable,
    "strategy": strategy_from_jsonable,
}


def load_document(doc: dict):
    """Decode a pacomp/1 document; malformed content raises ParseError."""
    if not isinstance(doc, dict):
        raise ParseError(f"expected a JSON object, got {type(doc).__name__}")
    kind = doc.get("type")
    if kind in ("box", "finite", "union"):
        load = region_from_jsonable
    elif kind in _LOADERS:
        load = _LOADERS[kind]
    else:
        raise ParseError(f"unknown document type {kind!r}")
    try:
        return load(doc)
    except (KeyError, TypeError, ValueError) as exc:
        # a missing field, a value of the wrong shape, or a model that fails
        # its own consistency checks (e.g. an undeclared initial state)
        raise ParseError(f"malformed {kind} document: {type(exc).__name__}: {exc}") from exc


def dump_document(obj) -> dict:
    if isinstance(obj, PPA):
        return ppa_to_jsonable(obj)
    if isinstance(obj, DFA):
        return dfa_to_jsonable(obj)
    if isinstance(obj, RPA):
        return rpa_to_jsonable(obj)
    if isinstance(obj, (Box, FiniteRegion, RegionUnion)):
        return region_to_jsonable(obj)
    if isinstance(obj, (MemorylessStrategy, TabularStrategy)):
        return strategy_to_jsonable(obj)
    if isinstance(obj, tuple):
        return query_to_jsonable(obj)
    raise ParseError(f"cannot serialize {type(obj).__name__}")
