"""Versioned JSON serialization for models, automata, queries, and regions.

Format tag: "pacomp/1".  Identifiers may be strings, integers, rationals, or
nested tuples; tuples and rationals are tagged so round-trips are exact.
Polynomials and rationals travel as canonical strings.

`load_document` is the one decoder of this input, proof scripts included:
each document type is a shape in `_TYPES`, checked by one recursive walk that
parses every rational and polynomial string once and raises `ParseError`
naming the JSON path of the first value that does not fit.
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
from .proofrules import (
    FairnessAttestation,
    apply_asymmetric,
    apply_circular,
    apply_conjunction,
    apply_monotonicity,
    apply_simulation_ag,
)
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


def query_to_jsonable(query) -> dict:
    return {
        "format": FORMAT,
        "type": "mo-query",
        "objectives": [objective_to_jsonable(o) for o in query],
    }


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


# ---------------------------------------------------------------------------
# Decoding
# ---------------------------------------------------------------------------

def _show(x):
    text = repr(x)
    return text if len(text) <= 40 else text[:37] + "..."


def _fail(path, problem):
    raise ParseError(problem if path == "$" else f"{path}: {problem}")


def _leaf(ok, expected):
    def leaf(x, path):
        if not ok(x):
            _fail(path, f"expected {expected}, got {_show(x)}")
        return x

    return leaf


_string = _leaf(lambda x: type(x) is str, "a string")


def _parsed(parse):
    def leaf(x, path):
        text = _string(x, path)
        try:
            return parse(text)
        except ParseError as exc:
            _fail(path, str(exc))

    return leaf


def _dec_id(x, path):
    """A JSON scalar, or a tagged tuple ("t"), rational ("q") or frozenset ("fs")."""
    if type(x) is str:
        return x
    if type(x) is dict:
        if "t" in x:
            return tuple(_decode(x["t"], ["id"], path + ".t", None))
        if "q" in x:
            return _LEAVES["rat"](x["q"], path + ".q")
        if "fs" in x:
            return frozenset(_decode(x["fs"], ["id"], path + ".fs", None))
    if type(x) in (dict, list):
        _fail(path, f"expected an identifier, got {_show(x)}")
    return x


_LEAVES = {
    "id": _dec_id,
    "str": _string,
    "name": _leaf(lambda x: type(x) is str and x != "", "a non-empty string"),
    "bool": _leaf(lambda x: type(x) is bool, "true or false"),
    "int": _leaf(lambda x: type(x) is int, "an integer"),
    "pos": _leaf(lambda x: type(x) is int and x >= 1, "a positive integer"),
    "rat": _parsed(parse_rational),
    "poly": _parsed(parse_poly),
}


def _decode(x, shape, path, inputs):
    """Check `x` against `shape` and return it decoded.

    A shape is a leaf kind (a key of `_LEAVES`), a named type (a key of
    `_TYPES`, or one prefixed "@" to also accept an "@file" reference), a
    frozenset of allowed strings, a one-item list for a list of any length, a
    tuple for a list of exactly that many items, or a dict for an object:
    keys prefixed "?" are optional and "*" stands for any key.  A decoded
    object keeps the fields its shape does not name as they are.
    """
    kind = type(shape)
    if kind is str:
        leaf = _LEAVES.get(shape)
        return leaf(x, path) if leaf else _document(x, shape, path, inputs)
    if kind is frozenset:
        if type(x) is not str or x not in shape:
            _fail(path, f"expected one of {sorted(shape)}, got {_show(x)}")
        return x
    if kind is dict:
        if type(x) is not dict:
            _fail(path, f"expected an object, got {_show(x)}")
        out = dict(x)
        for key, sub in shape.items():
            if key == "*":
                for name, value in x.items():
                    out[name] = _decode(value, sub, f"{path}.{name}", inputs)
                continue
            name = key.lstrip("?")
            if name in x:
                out[name] = _decode(x[name], sub, f"{path}.{name}", inputs)
            elif name == key:
                _fail(path, f"missing field {name!r}")
        return out
    if type(x) is not list:
        _fail(path, f"expected a list, got {_show(x)}")
    if kind is list:
        item = shape[0]
        return [_decode(v, item, f"{path}[{i}]", inputs) for i, v in enumerate(x)]
    if len(x) != len(shape):
        _fail(path, f"expected a list of {len(shape)} items, got {_show(x)}")
    return tuple(_decode(v, s, f"{path}[{i}]", inputs) for i, (v, s) in enumerate(zip(x, shape)))


def _document(x, kind, path, inputs):
    if kind[0] == "@":
        kind = kind[1:]
        if type(x) is str and x.startswith("@"):
            if inputs is None:
                _fail(path, f"no loader for the file reference {x!r}")
            return inputs.load(x[1:], kind)
    if type(x) is not dict:
        _fail(path, f"expected an object, got {_show(x)}")
    if kind in _KINDS:
        got = x.get("type")
        if got not in _KINDS[kind]:
            _fail(path, f"expected {'an' if kind == 'rpa' else 'a'} {kind} document, got {got}")
        kind = got
    shape, build = _TYPES[kind]
    fields = _decode(x, shape, path, inputs)
    try:
        return build(fields, path, inputs)
    except ValueError as exc:  # a model that fails its own consistency checks
        _fail(path, str(exc))


def _need(f, field):
    if field not in f:
        raise ValueError(f"missing field {field!r}")
    return f[field]


def _ppa(f, *_):
    trans = {(t["state"], t["action"]): (t["label"], dict(t["dist"])) for t in f["transitions"]}
    return make_ppa(f["states"], f["initial"], f["params"], trans, f["alphabet"])


def _dfa(f, *_):
    trans = {(q, sym): t for q, sym, t in f["transitions"]}
    return DFA(tuple(f["states"]), f["initial"], frozenset(f["alphabet"]), trans,
               frozenset(f["accepting"]))


def _rpa(f, *_):
    utrans = {}
    for t in f["transitions"]:
        if "interval" in t:
            uset = IntervalSet.of(dict(t["interval"]))
        elif "vertices" in t:
            uset = VertexSet.of([dict(d) for d in t["vertices"]])
        else:
            raise ValueError("rpa transition needs 'interval' or 'vertices'")
        utrans[(t["state"], t["action"])] = (t["label"], uset)
    return make_rpa(f["states"], f["initial"], utrans, f["alphabet"])


def _objective(f, path, _):
    if f["kind"] == "prob":
        return ProbObjective(f["cmp"], f["threshold"], _need(f, "dfa"), f.get("name", ""))
    rewards = tuple(_need(f, "rewards"))
    for i, (sym, r) in enumerate(rewards):
        if r.is_constant() and r.constant_value() < 0:
            _fail(f"{path}.rewards[{i}]", f"the reward {r} of {sym!r} is negative")
    return RewardObjective(f["cmp"], f["threshold"], rewards, f.get("name", ""))


def _strategy(f, *_):
    if f["kind"] == "memoryless":
        choice = {s: dict(d) for s, d in _need(f, "choice")}
        return MemorylessStrategy(choice, complete=f.get("complete", True))
    table = {tuple(path): dict(d) for path, d in _need(f, "table")}
    return TabularStrategy(table, horizon=_need(f, "horizon"), complete=f.get("complete", False))


def _script(f, path, inputs):
    """The applications of a proof script as (id, rule function, arguments)."""
    env = {section: f.get(section, {}) for section in ("models", "queries", "regions")}
    applications = []
    for i, app in enumerate(f.get("applications", [])):
        rule = app["rule"]
        fn, args, n_notes = _RULES[rule]
        app_id = app.get("id", rule)
        where = f"proof script: application {app_id!r}"
        kwargs = {}
        for key, kind in {**args, "?resolution": "pos"}.items():
            name = key.lstrip("?")
            if name in app:
                arg = f"{where} argument {name!r} at {path}.applications[{i}].{name}"
                kwargs[name] = _argument(app[name], kind, env, arg, inputs)
            elif name == key:
                _fail(f"{where} at {path}.applications[{i}]", f"missing field {name!r}")
        if "fairness" in app:
            arg = f"{where} argument 'fairness' at {path}.applications[{i}].fairness"
            if n_notes is None:
                _fail(arg, f"rule {rule!r} has no fairness variant")
            fair = _decode(app["fairness"], {"?sets": [["id"]], "?notes": ["name"]}, arg, None)
            sets, notes = fair.get("sets", []), fair.get("notes", [])
            if len(notes) != n_notes:
                _fail(arg, f"rule {rule!r} needs {n_notes} fairness notes, got {len(notes)}")
            kwargs["fairness"] = FairnessAttestation(tuple(map(tuple, sets)), tuple(notes))
        applications.append((app_id, fn, kwargs))
    return applications


def _argument(value, kind, env, where, inputs):
    """A rule argument: an entry of the script section `kind` names, by name
    (a region may also be region text), or a value of shape `kind` inline."""
    section = "queries" if kind == "objective" else kind
    if section not in env:
        return _decode(value, kind, where, inputs)
    if type(value) is not str:
        _fail(where, f"expected a string naming an entry of {section!r}, got {_show(value)}")
    if value in env[section]:
        found = env[section][value]
        if kind != "objective":
            return found
        if not found:
            _fail(where, f"{value!r} names an empty query")
        return found[0]
    if section == "regions":
        try:
            return parse_region_arg(value, inputs)
        except ParseError as exc:
            _fail(where, str(exc))
    _fail(where, f"{value!r} names no entry of {section!r}")


# script rule -> (function, argument -> the script section it names or its
# shape inline, attestation notes of its fairness variant or None when it has
# none); every rule also takes an optional resolution
_M, _Q, _R = "models", "queries", "regions"
_RULES = {
    "asymmetric": (apply_asymmetric, dict(m1=_M, m2=_M, r1=_R, r2=_R, assumption=_Q,
                                          guarantee=_Q), 2),
    "circular": (apply_circular, dict(m1=_M, m2=_M, r1=_R, r2=_R, r3=_R, a1=_Q, a2=_Q,
                                      guarantee=_Q), 3),
    "conjunction": (apply_conjunction, dict(m=_M, r1=_R, r2=_R, a1=_Q, g1=_Q, a2=_Q, g2=_Q), 2),
    "monotonicity": (apply_monotonicity, dict(m1=_M, m2=_M, r1=_R, r2=_R, objective="objective",
                                              param="name", direction=frozenset({"up", "down"})),
                     2),
    "simulation": (apply_simulation_ag, {**dict(m1=_M, m2=_M, m_assume=_M, m_guarantee=_M,
                                                r1=_R, r2=_R), "?robust": "bool"}, None),
}

_FORMAT = frozenset({FORMAT})
_RATIONAL_DIST = [("id", "rat")]
# named type -> (shape, build(decoded fields, JSON path, loader)); every named
# type but "objective" is a document type
_TYPES = {
    "ppa": ({"format": _FORMAT, "states": ["id"], "initial": "id", "params": ["str"],
             "alphabet": ["str"],
             "transitions": [{"state": "id", "action": "id", "label": "str",
                              "dist": [("id", "poly")]}]}, _ppa),
    "dfa": ({"format": _FORMAT, "states": ["id"], "initial": "id", "alphabet": ["str"],
             "accepting": ["id"], "transitions": [("id", "str", "id")]}, _dfa),
    "rpa": ({"format": _FORMAT, "states": ["id"], "initial": "id", "alphabet": ["str"],
             "transitions": [{"state": "id", "action": "id", "label": "str",
                              "?interval": [("id", ("rat", "rat"))],
                              "?vertices": [_RATIONAL_DIST]}]}, _rpa),
    "mo-query": ({"objectives": ["objective"]}, lambda f, *_: tuple(f["objectives"])),
    "objective": ({"kind": frozenset({"prob", "reward"}),
                   "cmp": frozenset({"<", "<=", ">", ">="}), "threshold": "rat",
                   "?dfa": "dfa", "?rewards": [("str", "poly")], "?name": "str"}, _objective),
    "box": ({"bounds": [("str", ("rat", "rat"))]},
            lambda f, path, _: _located(f"{path}.bounds", _box, f["bounds"])),
    "finite": ({"valuations": [[("str", "rat")]]},
               lambda f, path, _: FiniteRegion.of(
                   _located(f"{path}.valuations[{i}]", _named, v, "valuation")
                   for i, v in enumerate(f["valuations"]))),
    "union": ({"parts": ["region"]}, lambda f, *_: RegionUnion.of(f["parts"])),
    "strategy": ({"kind": frozenset({"memoryless", "tabular"}), "?complete": "bool",
                  "?horizon": "int", "?choice": [("id", _RATIONAL_DIST)],
                  "?table": [(["id"], _RATIONAL_DIST)]}, _strategy),
    "proof-script": ({"?models": {"*": "@ppa"}, "?queries": {"*": "@mo-query"},
                      "?regions": {"*": "@region"},
                      "?applications": [{"rule": frozenset(_RULES), "?id": "str"}]}, _script),
}
_DOCUMENT_TYPES = ("ppa", "dfa", "rpa", "mo-query", "box", "finite", "union", "strategy",
                   "proof-script")
# a kind of document -> the values its "type" field may take
_KINDS = {
    **{t: (t,) for t in _DOCUMENT_TYPES},
    "region": ("box", "finite", "union"),
    FORMAT: _DOCUMENT_TYPES,
}


def load_document(doc, kind=FORMAT, inputs=None):
    """Decode a document of `kind` (a document type, "region", or "pacomp/1"
    for any); malformed content raises ParseError naming its JSON path.
    `inputs.load(path, kind)` resolves every "@file" reference in it."""
    return _document(doc, kind, "$", inputs)


def ppa_from_jsonable(doc: dict) -> PPA:
    return load_document(doc, "ppa")


def _located(path, build, *args):
    """build(*args), with its ParseError reported at the JSON path `path`."""
    try:
        return build(*args)
    except ParseError as exc:
        _fail(path, str(exc))


def _named(pairs, what):
    """The dict of (parameter, value) pairs; naming a parameter twice would
    silently drop one of its values, so it is malformed."""
    out = {}
    for name, value in pairs:
        if name in out:
            raise ParseError(f"{what} names parameter {name!r} twice")
        out[name] = value
    return out


def _box(axes):
    """The Box of (parameter, (lo, hi)) axes: at least one, each parameter once."""
    if not axes:
        raise ParseError("a box region needs at least one axis")
    return Box.of(_named(axes, "box"))


def parse_region_arg(text, inputs):
    """Parse region text: box.p=[0,0.1],q=[0,1] | finite:{p=1/10};{p=9/10} | @file."""
    text = text.strip()
    if text.startswith("@"):
        return inputs.load(text[1:], "region")
    if text.startswith("box.") or text.startswith("box:"):
        body = text[4:]
        axes = []
        for chunk in _split_axes(body):
            if "=" not in chunk:
                raise ParseError(f"bad box axis {chunk!r}")
            name, rng = chunk.split("=", 1)
            rng = rng.strip()
            if not (rng.startswith("[") and rng.endswith("]")) or rng.count(",") != 1:
                raise ParseError(f"bad interval {rng!r} for {name!r}")
            lo, hi = rng[1:-1].split(",")
            axes.append((name.strip(), (parse_rational(lo), parse_rational(hi))))
        return _box(axes)
    if text.startswith("finite:"):
        vals = []
        for chunk in text[len("finite:"):].split(";"):
            chunk = chunk.strip()
            if not (chunk.startswith("{") and chunk.endswith("}")):
                raise ParseError(f"bad finite valuation {chunk!r}")
            vals.append(parse_valuation_arg(chunk[1:-1]))
        return FiniteRegion.of(vals)
    raise ParseError(f"unrecognized region syntax {text!r}")


def _split_axes(body):
    """Split 'p=[0,1],q=[0,1]' at commas that separate axes, not bounds."""
    parts, depth, current = [], 0, ""
    for ch in body:
        if ch == "[":
            depth += 1
        elif ch == "]":
            depth -= 1
        if ch == "," and depth == 0:
            parts.append(current)
            current = ""
        else:
            current += ch
    if current:
        parts.append(current)
    return parts


def parse_valuation_arg(text):
    items = []
    for item in text.split(","):
        if not item.strip():
            continue
        if "=" not in item:
            raise ParseError(f"bad valuation item {item!r}: expected name=value")
        name, value = item.split("=", 1)
        items.append((name.strip(), parse_rational(value)))
    return _named(items, "valuation")


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
