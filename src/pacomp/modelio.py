"""Versioned JSON serialization for models, automata, queries, and regions.

Format tag: "pacomp/1".  Identifiers may be strings, integers (not
booleans), rationals, or nested tuples; tuples and rationals are tagged so
round-trips are exact.  A list that a model reads as a set (its states,
parameters, alphabet, a DFA's accepting states) names each entry once.
Polynomials and rationals travel as canonical strings.

Each row of `_TYPES` defines both directions of one document type: its shape,
the build from decoded fields to the object, and the inverse from the object
to its fields.  `load_document` is the one decoder, proof scripts included:
one recursive walk checks a document against its shape, parses every
rational string, takes every polynomial from `parse_poly`, which parses each
distinct string once per process and shares the result, and raises
`ParseError` naming the JSON path of the first value that does not fit; a
proof script's applications, against the rule table `proofrules.RULES`.
`dump_document` is the one encoder: it walks the same shape back, leaf by
leaf.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .algebra import (
    IDENTIFIER,
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
from .proofrules import RULES, FairnessAttestation
from .robust import RPA, IntervalSet, VertexSet, freeze_dist, make_rpa
from .semantics import MemorylessStrategy, TabularStrategy
from .verify import ProbObjective, RewardObjective

FORMAT = "pacomp/1"


def _enc_id(x):
    if isinstance(x, tuple):
        return {"t": [_enc_id(i) for i in x]}
    if isinstance(x, Fraction):
        return {"q": format_rational(x)}
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
    """A string, an integer (not a boolean, which would be the same key as 0
    or 1), or a tagged tuple ("t") or rational ("q")."""
    if type(x) in (str, int):
        return x
    if type(x) is dict:
        if "t" in x:
            return tuple(_decode(x["t"], ["id"], path + ".t", None))
        if "q" in x:
            return _LEAVES["rat"](x["q"], path + ".q")
    _fail(path, f"expected an identifier, got {_show(x)}")


def _rewards(x, path):
    """A reward map: (symbol, reward) pairs naming each symbol once, with no
    negative constant reward."""
    rewards = tuple(_unique(_decode(x, [("str", "poly")], path, None), "names symbol", path).items())
    for i, (sym, r) in enumerate(rewards):
        if r.is_constant() and r.constant_value() < 0:
            _fail(f"{path}[{i}]", f"the reward {r} of {sym!r} is negative")
    return rewards


_LEAVES = {
    "id": _dec_id,
    "str": _string,
    "name": _leaf(lambda x: type(x) is str and x != "", "a non-empty string"),
    "param": _leaf(lambda x: type(x) is str and IDENTIFIER.fullmatch(x), "an identifier"),
    "bool": _leaf(lambda x: type(x) is bool, "true or false"),
    "int": _leaf(lambda x: type(x) is int, "an integer"),
    "nat": _leaf(lambda x: type(x) is int and x >= 0, "a nonnegative integer"),
    "pos": _leaf(lambda x: type(x) is int and x >= 1, "a positive integer"),
    "rat": _parsed(parse_rational),
    "poly": _parsed(parse_poly),
    "rewards": _rewards,
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
_UNLEAVES = {"id": _enc_id, "rat": format_rational, "poly": lambda p: str(Polynomial.coerce(p)),
             "rewards": lambda rw: [[s, str(Polynomial.coerce(r))] for s, r in dict(rw).items()]}


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


def _ppa(f, path, _):
    states, params, alphabet = _sets(f, path, "states", "params", "alphabet")
    where = f"{path}.transitions"
    trans = _unique((((t["state"], t["action"]),
                      (t["label"], _unique(t["dist"], "names successor", f"{where}[{i}].dist")))
                     for i, t in enumerate(f["transitions"])), "names transition", where)
    return make_ppa(states, f["initial"], params, trans, alphabet)


def _ppa_fields(m):
    return dict(format=FORMAT, type="ppa", states=m.states, initial=m.initial,
                params=sorted(m.params), alphabet=sorted(m.alphabet),
                transitions=[{"state": s, "action": a, "label": m.label[(s, a)],
                              "dist": _by_key(dist.items())}
                             for (s, a), dist in _by_key(m.trans.items())])


def _dfa(f, path, _):
    states, alphabet, accepting = _sets(f, path, "states", "alphabet", "accepting")
    trans = _unique((((q, sym), t) for q, sym, t in f["transitions"]), "names transition",
                    f"{path}.transitions")
    return DFA(tuple(states), f["initial"], frozenset(alphabet), trans, frozenset(accepting))


def _dfa_fields(b):
    return dict(format=FORMAT, type="dfa", states=b.states, initial=b.initial,
                alphabet=sorted(b.alphabet),
                accepting=sorted(b.accepting, key=lambda q: json.dumps(_enc_id(q))),
                transitions=[(q, sym, t) for (q, sym), t in _by_key(b.trans.items())])


def _rpa(f, path, _):
    states, alphabet = _sets(f, path, "states", "alphabet")
    utrans = []
    for i, t in enumerate(f["transitions"]):
        where = f"{path}.transitions[{i}]"
        if ("interval" in t) == ("vertices" in t):
            _fail(where, "rpa transition needs exactly one of 'interval' and 'vertices'")
        if "interval" in t:
            interval = _unique(t["interval"], "names successor", f"{where}.interval")
            try:
                uset = IntervalSet.of(interval)
            except InfeasibleIntervalSet as exc:
                _fail(f"{where}.interval", str(exc))
        else:
            dists = [_unique(d, "names successor", f"{where}.vertices[{j}]")
                     for j, d in enumerate(t["vertices"])]
            if not dists:
                _fail(f"{where}.vertices", "vertex set must be nonempty")
            for j, d in enumerate(dists):
                try:
                    freeze_dist(d)
                except ValueError as exc:
                    _fail(f"{where}.vertices[{j}]", str(exc))
            uset = VertexSet.of(dists)
        utrans.append(((t["state"], t["action"]), (t["label"], uset)))
    utrans = _unique(utrans, "names transition", f"{path}.transitions")
    return make_rpa(states, f["initial"], utrans, alphabet)


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
    return RewardObjective(f["cmp"], f["threshold"], _need(f, "rewards", "dfa"), f.get("name", ""))


def _objective_fields(o):
    if isinstance(o, ProbObjective):
        return dict(kind="prob", cmp=o.cmp, threshold=o.threshold, dfa=o.dfa, name=o.name)
    return dict(kind="reward", cmp=o.cmp, threshold=o.threshold, rewards=o.rewards, name=o.name)


def _strategy(f, path, _):
    if f["kind"] == "memoryless":
        choice = _unique(((s, _unique(d, "names action", f"{path}.choice[{i}][1]"))
                          for i, (s, d) in enumerate(_need(f, "choice", "table"))),
                         "names state", f"{path}.choice")
        return MemorylessStrategy(choice, complete=f.get("complete", True))
    rows = _need(f, "table", "choice")
    for i, (history, _dist) in enumerate(rows):
        if len(history) % 2 == 0:
            _fail(f"{path}.table[{i}]", "a history alternates states and actions, "
                  f"so its length is odd, not {len(history)}")
    table = _unique(((tuple(history), _unique(d, "names action", f"{path}.table[{i}][1]"))
                     for i, (history, d) in enumerate(rows)), "names history", f"{path}.table")
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
        fn, args, n_notes, _ = RULES[rule]
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
            n_notes = len(kwargs[n_notes]) if type(n_notes) is str else n_notes
            fair = _decode(app["fairness"], {"?sets": [["id"]], "?notes": ["name"]}, arg, None)
            sets, notes = fair.get("sets", []), fair.get("notes", [])
            if len(notes) != n_notes:
                _fail(arg, f"rule {rule!r} needs {n_notes} fairness notes, got {len(notes)}")
            kwargs["fairness"] = FairnessAttestation(tuple(map(tuple, sets)), tuple(notes))
        applications.append((app_id, fn, kwargs))
    return applications


def _argument(value, kind, env, where, inputs):
    """A rule argument: an entry of the script section `kind` names, by name
    (a region may also be region text), a list of them, or a value of shape `kind` inline."""
    if type(kind) is list:
        if type(value) is not list:
            _fail(where, f"expected a list, got {_show(value)}")
        return [_argument(v, kind[0], env, f"{where}[{i}]", inputs) for i, v in enumerate(value)]
    section = "queries" if kind == "objective" else kind
    if section not in env:
        return _decode(value, kind, where, inputs)
    if type(value) is not str:
        _fail(where, f"expected a string naming an entry of {section!r}, got {_show(value)}")
    if value in env[section]:
        found = env[section][value]
        if kind != "objective":
            return found
        if len(found) != 1:
            _fail(where, f"{value!r} names a query of {len(found)} objectives, not one")
        return found[0]
    if section == "regions":
        return parse_region_arg(value, inputs, where)
    _fail(where, f"{value!r} names no entry of {section!r}")


_FORMAT = frozenset({FORMAT})
_RATIONAL_DIST = [("id", "rat")]
_VALUATION = [("param", "rat")]
# named type -> (shape, build(decoded fields, JSON path, loader), the classes
# it encodes, their inverse of build: an object -> its decoded fields in
# document order); every named type but "objective" is a document type
_TYPES = {
    "ppa": ({"format": _FORMAT, "states": ["id"], "initial": "id", "params": ["param"],
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
                   "?dfa": "dfa", "?rewards": "rewards", "?name": "str"}, _objective,
                  (ProbObjective, RewardObjective), _objective_fields),
    "box": ({"bounds": [("param", ("rat", "rat"))]},
            lambda f, path, _: _located(f"{path}.bounds", _box, f["bounds"]),
            (Box,), lambda r: dict(type="box", bounds=r.bounds)),
    "finite": ({"valuations": [_VALUATION]},
               lambda f, path, _: FiniteRegion.of(
                   _unique(v, "valuation names parameter", f"{path}.valuations[{i}]")
                   for i, v in enumerate(f["valuations"])),
               (FiniteRegion,), lambda r: dict(type="finite", valuations=r.valuations)),
    "union": ({"parts": ["region"]}, lambda f, *_: RegionUnion.of(f["parts"]),
              (RegionUnion,), lambda r: dict(type="union", parts=r.parts)),
    "strategy": ({"format": _FORMAT, "kind": frozenset({"memoryless", "tabular"}),
                  "?complete": "bool", "?horizon": "nat", "?choice": [("id", _RATIONAL_DIST)],
                  "?table": [(["id"], _RATIONAL_DIST)]}, _strategy,
                 (MemorylessStrategy, TabularStrategy), _strategy_fields),
    "proof-script": ({"?models": {"*": "@ppa"}, "?queries": {"*": "@mo-query"},
                      "?regions": {"*": "@region"},
                      "?applications": [{"rule": frozenset(RULES), "?id": "str"}]}, _script,
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


def _unique(pairs, what, path="$"):
    """The dict of the (key, value) pairs of a list read as a map, found at
    the JSON path `path`; naming a key twice would silently drop one of its
    values, so it is malformed."""
    out = {}
    for key, value in pairs:
        if key in out:
            _fail(path, f"{what} {key!r} twice")
        out[key] = value
    return out


# a list field that a model reads as a set -> what its entries are
_SET_ENTRY = {"states": "names state", "params": "names parameter",
              "alphabet": "names symbol", "accepting": "names accepting state"}


def _sets(f, path, *fields):
    """The lists f[field] that a model reads as sets, in document order; an
    entry named twice would count twice where the model lists them (`tau`
    would output a state twice), so it is malformed, as in `_unique`."""
    return [list(_unique(((x, None) for x in f[field]), _SET_ENTRY[field], f"{path}.{field}"))
            for field in fields]


def _box(axes):
    """The Box of (parameter, (lo, hi)) axes: at least one, each parameter once."""
    if not axes:
        raise ParseError("a box region needs at least one axis")
    return Box.of(_unique(axes, "box names parameter"))


def parse_region_arg(text, inputs, path="$"):
    """Decode region text, an abbreviation of a region document: box.p=[0,1/10],q=[0,1]
    the box of those bounds, finite:{p=1/10};{p=9/10} the finite region of those
    valuations, @file the document in that file.  Errors name their path in it."""
    text = text.strip()
    if text[:4] in ("box.", "box:"):
        axes = []
        for chunk in text[4:].split(","):  # a comma inside brackets stays in its axis
            if axes and axes[-1].count("[") != axes[-1].count("]"):
                axes[-1] += "," + chunk
            else:
                axes.append(chunk)
        if not axes[-1]:  # a trailing comma, or no axis at all
            axes.pop()
        text = {"type": "box", "bounds": [_pair(a, lambda b: _inside(b, "[]")) for a in axes]}
    elif text.startswith("finite:"):
        text = {"type": "finite",
                "valuations": [_inside(v, "{}", _pairs) for v in text[7:].split(";")]}
    elif not text.startswith("@"):
        _fail(path, f"unrecognized region syntax {text!r}")
    return _document(text, "@region", path, inputs)


def parse_valuation_arg(text):
    """Decode valuation text p=1/10,q=0.1, an abbreviation of its [name, value] pairs."""
    return _unique(_decode(_pairs(text), _VALUATION, "$", None), "valuation names parameter")


def _inside(text, brackets, parse=lambda inner: inner.split(",")):
    """parse(the text between `brackets`) when they enclose `text`, else the
    text as it is, which the shape table rejects as not a list."""
    text = text.strip()
    return parse(text[1:-1]) if text[:1] + text[-1:] == brackets else text


def _pairs(text):
    """The comma-separated name=value items of `text`, blank ones skipped."""
    return [_pair(item) for item in text.split(",") if item.strip()]


def _pair(item, value=lambda text: text):
    """name=text as [name, value(text)], else the item as it is, which the
    shape table rejects as not a pair."""
    name, eq, text = item.partition("=")
    return [name.strip(), value(text)] if eq else item


def dump_document(obj) -> dict:
    """The JSON form of a model, DFA, objective, query (a tuple of objectives),
    region or strategy, which `load_document` decodes back to an equal object."""
    row = DOCUMENT_ROW.get(type(obj))
    if row is None:
        raise ParseError(f"cannot serialize {type(obj).__name__}")
    shape, _, _, fields = row
    return _encode(fields(obj), shape)
