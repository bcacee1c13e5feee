"""Versioned JSON serialization for models, automata, queries, and regions.

Format tag: "pacomp/1".  Identifiers may be strings, integers, rationals, or
nested tuples; tuples and rationals are tagged so round-trips are exact.
Polynomials and rationals travel as canonical strings.

Each row of `_TYPES` defines both directions of one document type: its shape,
the build from decoded fields to the object, and the inverse from the object
to its fields.  `load_document` is the one decoder, proof scripts included:
one recursive walk checks a document against its shape, parses every rational
and polynomial string once and raises `ParseError` naming the JSON path of
the first value that does not fit.  `dump_document` is the one encoder: it
walks the same shape back, leaf by leaf.
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
from .errors import InfeasibleIntervalSet, ParseError
from .model import DFA, PPA, make_ppa, sort_key
from .proofrules import (
    FairnessAttestation,
    apply_asymmetric,
    apply_circular,
    apply_conjunction,
    apply_monotonicity,
    apply_simulation_ag,
)
from .robust import RPA, IntervalSet, VertexSet, freeze_dist, make_rpa
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
                _fail(f"{path}.{name}", f"missing field {name!r}")
        return out
    if type(x) is not list:
        _fail(path, f"expected a list, got {_show(x)}")
    if kind is list:
        item = shape[0]
        return [_decode(v, item, f"{path}[{i}]", inputs) for i, v in enumerate(x)]
    if len(x) != len(shape):
        _fail(path, f"expected a list of {len(shape)} items, got {_show(x)}")
    return tuple(_decode(v, s, f"{path}[{i}]", inputs) for i, (v, s) in enumerate(zip(x, shape)))


# leaf kind -> the inverse of its decoder, for the leaves that decoding changes
_UNLEAVES = {"id": _enc_id, "rat": format_rational, "poly": lambda p: str(Polynomial.coerce(p))}


def _encode(x, shape):
    """Undo `_decode`: the JSON form of the decoded value `x` of `shape`.
    An object's fields keep their order, and fields its shape does not name
    pass through as they are."""
    kind = type(shape)
    if kind is str:
        if shape in _LEAVES:
            leaf = _UNLEAVES.get(shape)
            return leaf(x) if leaf else x
        return dump_document(x)
    if kind is frozenset:
        return x
    if kind is dict:
        out = {}
        for name, value in x.items():
            sub = shape.get(name) or shape.get("?" + name) or shape.get("*")
            out[name] = value if sub is None else _encode(value, sub)
        return out
    if kind is list:
        item = shape[0]
        return [_encode(v, item) for v in x]
    return [_encode(v, s) for v, s in zip(x, shape)]


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
    shape, build = _TYPES[kind][:2]
    fields = _decode(x, shape, path, inputs)
    try:
        return build(fields, path, inputs)
    except ValueError as exc:  # a model that fails its own consistency checks
        _fail(path, str(exc))


def _need(f, field, excluded=None):
    """f[field]; the optional field `excluded` contradicts it."""
    if field not in f:
        raise ValueError(f"missing field {field!r}")
    if excluded in f:
        raise ValueError(f"fields {field!r} and {excluded!r} exclude each other")
    return f[field]


def _by_key(items):
    """`(key, value)` pairs in `sort_key` order of their keys."""
    return sorted(items, key=lambda kv: sort_key(kv[0]))


def _ppa(f, *_):
    trans = {(t["state"], t["action"]): (t["label"], dict(t["dist"])) for t in f["transitions"]}
    return make_ppa(f["states"], f["initial"], f["params"], trans, f["alphabet"])


def _ppa_fields(m):
    return dict(format=FORMAT, type="ppa", states=m.states, initial=m.initial,
                params=sorted(m.params), alphabet=sorted(m.alphabet),
                transitions=[{"state": s, "action": a, "label": m.label[(s, a)],
                              "dist": _by_key(dist.items())}
                             for (s, a), dist in _by_key(m.trans.items())])


def _dfa(f, *_):
    trans = {(q, sym): t for q, sym, t in f["transitions"]}
    return DFA(tuple(f["states"]), f["initial"], frozenset(f["alphabet"]), trans,
               frozenset(f["accepting"]))


def _dfa_fields(b):
    return dict(format=FORMAT, type="dfa", states=b.states, initial=b.initial,
                alphabet=sorted(b.alphabet),
                accepting=sorted(b.accepting, key=lambda q: json.dumps(_enc_id(q))),
                transitions=[(q, sym, t) for (q, sym), t in _by_key(b.trans.items())])


def _rpa(f, path, _):
    utrans = {}
    for i, t in enumerate(f["transitions"]):
        where = f"{path}.transitions[{i}]"
        if ("interval" in t) == ("vertices" in t):
            _fail(where, "rpa transition needs exactly one of 'interval' and 'vertices'")
        if "interval" in t:
            try:
                uset = IntervalSet.of(dict(t["interval"]))
            except InfeasibleIntervalSet as exc:
                _fail(f"{where}.interval", str(exc))
        else:
            dists = [dict(d) for d in t["vertices"]]
            if not dists:
                _fail(f"{where}.vertices", "vertex set must be nonempty")
            for j, d in enumerate(dists):
                try:
                    freeze_dist(d)
                except ValueError as exc:
                    _fail(f"{where}.vertices[{j}]", str(exc))
            uset = VertexSet.of(dists)
        utrans[(t["state"], t["action"])] = (t["label"], uset)
    return make_rpa(f["states"], f["initial"], utrans, f["alphabet"])


def _rpa_fields(u):
    transitions = []
    for (s, a), uset in _by_key(u.utrans.items()):
        t = {"state": s, "action": a, "label": u.label[(s, a)]}
        if isinstance(uset, IntervalSet):
            t["interval"] = uset.bounds
        elif isinstance(uset, VertexSet):
            t["vertices"] = uset.dists
        else:
            raise ParseError("only interval or vertex-listed sets serialize")
        transitions.append(t)
    return dict(format=FORMAT, type="rpa", states=u.states, initial=u.initial,
                alphabet=sorted(u.alphabet), transitions=transitions)


def _objective(f, path, _):
    if f["kind"] == "prob":
        dfa = _need(f, "dfa", "rewards")
        return ProbObjective(f["cmp"], f["threshold"], dfa, f.get("name", ""))
    rewards = tuple(_need(f, "rewards", "dfa"))
    for i, (sym, r) in enumerate(rewards):
        if r.is_constant() and r.constant_value() < 0:
            _fail(f"{path}.rewards[{i}]", f"the reward {r} of {sym!r} is negative")
    return RewardObjective(f["cmp"], f["threshold"], rewards, f.get("name", ""))


def _objective_fields(o):
    if isinstance(o, ProbObjective):
        return dict(kind="prob", cmp=o.cmp, threshold=o.threshold, dfa=o.dfa, name=o.name)
    return dict(kind="reward", cmp=o.cmp, threshold=o.threshold, rewards=o.rewards, name=o.name)


def _strategy(f, path, _):
    if f["kind"] == "memoryless":
        choice = {s: dict(d) for s, d in _need(f, "choice", "table")}
        return MemorylessStrategy(choice, complete=f.get("complete", True))
    rows = _need(f, "table", "choice")
    for i, (history, _dist) in enumerate(rows):
        if len(history) % 2 == 0:
            _fail(f"{path}.table[{i}]", "a history alternates states and actions, "
                  f"so its length is odd, not {len(history)}")
    table = {tuple(history): dict(d) for history, d in rows}
    return TabularStrategy(table, horizon=_need(f, "horizon"), complete=f.get("complete", False))


def _strategy_fields(sigma):
    if isinstance(sigma, MemorylessStrategy):
        return dict(format=FORMAT, type="strategy", kind="memoryless", complete=sigma.complete,
                    choice=[(s, _by_key(d.items())) for s, d in _by_key(sigma.choice.items())])
    return dict(format=FORMAT, type="strategy", kind="tabular", horizon=sigma.horizon,
                complete=sigma.complete,
                table=[(h, _by_key(d.items())) for h, d in _by_key(sigma.table.items())])


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
# named type -> (shape, build(decoded fields, JSON path, loader), the classes
# it encodes, their inverse of build: an object -> its decoded fields in
# document order); every named type but "objective" is a document type
_TYPES = {
    "ppa": ({"format": _FORMAT, "states": ["id"], "initial": "id", "params": ["str"],
             "alphabet": ["str"],
             "transitions": [{"state": "id", "action": "id", "label": "str",
                              "dist": [("id", "poly")]}]}, _ppa, (PPA,), _ppa_fields),
    "dfa": ({"format": _FORMAT, "states": ["id"], "initial": "id", "alphabet": ["str"],
             "accepting": ["id"], "transitions": [("id", "str", "id")]}, _dfa, (DFA,),
            _dfa_fields),
    "rpa": ({"format": _FORMAT, "states": ["id"], "initial": "id", "alphabet": ["str"],
             "transitions": [{"state": "id", "action": "id", "label": "str",
                              "?interval": [("id", ("rat", "rat"))],
                              "?vertices": [_RATIONAL_DIST]}]}, _rpa, (RPA,), _rpa_fields),
    "mo-query": ({"format": _FORMAT, "objectives": ["objective"]},
                 lambda f, *_: tuple(f["objectives"]), (tuple,),
                 lambda q: dict(format=FORMAT, type="mo-query", objectives=q)),
    "objective": ({"kind": frozenset({"prob", "reward"}),
                   "cmp": frozenset({"<", "<=", ">", ">="}), "threshold": "rat",
                   "?dfa": "dfa", "?rewards": [("str", "poly")], "?name": "str"}, _objective,
                  (ProbObjective, RewardObjective), _objective_fields),
    "box": ({"bounds": [("str", ("rat", "rat"))]},
            lambda f, path, _: _located(f"{path}.bounds", _box, f["bounds"]),
            (Box,), lambda r: dict(type="box", bounds=r.bounds)),
    "finite": ({"valuations": [[("str", "rat")]]},
               lambda f, path, _: FiniteRegion.of(
                   _located(f"{path}.valuations[{i}]", _named, v, "valuation")
                   for i, v in enumerate(f["valuations"])),
               (FiniteRegion,), lambda r: dict(type="finite", valuations=r.valuations)),
    "union": ({"parts": ["region"]}, lambda f, *_: RegionUnion.of(f["parts"]),
              (RegionUnion,), lambda r: dict(type="union", parts=r.parts)),
    "strategy": ({"format": _FORMAT, "kind": frozenset({"memoryless", "tabular"}),
                  "?complete": "bool", "?horizon": "int", "?choice": [("id", _RATIONAL_DIST)],
                  "?table": [(["id"], _RATIONAL_DIST)]}, _strategy,
                 (MemorylessStrategy, TabularStrategy), _strategy_fields),
    "proof-script": ({"?models": {"*": "@ppa"}, "?queries": {"*": "@mo-query"},
                      "?regions": {"*": "@region"},
                      "?applications": [{"rule": frozenset(_RULES), "?id": "str"}]}, _script,
                     (), None),
}
# a class -> the row of `_TYPES` that encodes it
DOCUMENT_ROW = {cls: row for row in _TYPES.values() for cls in row[2]}
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
    """The JSON form of a model, DFA, objective, query (a tuple of objectives),
    region or strategy, which `load_document` decodes back to an equal object."""
    row = DOCUMENT_ROW.get(type(obj))
    if row is None:
        raise ParseError(f"cannot serialize {type(obj).__name__}")
    shape, _, _, fields = row
    return _encode(fields(obj), shape)
