"""Command-line front end.

Exit codes: 0 holds/success, 1 fails (with witness), 2 usage or format error,
3 unknown / attested-only conclusions, 4 internal error (a bug, never a
verdict).  Reports are deterministic JSON with rationals rendered as num/den
strings; pass --timing to add wall-clock times (which breaks byte-stability
on purpose).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
import traceback

from . import corpus, modelio
from .algebra import Box, FiniteRegion, RegionUnion, parse_rational
from .errors import PacompError, ParseError
from .model import (
    DFA,
    PPA,
    alphabet_extend,
    compose,
    dfa_product,
    instantiate,
    prune_unreachable,
    tau_extend,
)
from .proofrules import (
    FairnessAttestation,
    apply_asymmetric,
    apply_circular,
    apply_conjunction,
    apply_monotonicity,
    apply_rpa_rules,
    apply_simulation_ag,
)
from .report import digest_bytes, make_report, render_report, scrub
from .robust import RPA, conv_compose, interval_relax_compose, pa_reduce, rpa_compose
from .semantics import strategy_project, tabulate
from .simulate import robust_strong_sim, strong_sim_region
from .verify import ag_triple_check, monotone_check, region_sat

EXIT_HOLDS = 0
EXIT_FAILS = 1
EXIT_USAGE = 2
EXIT_UNKNOWN = 3
EXIT_INTERNAL = 4


QUERY = tuple
REGION = (Box, FiniteRegion, RegionUnion)
_KIND_NAMES = {PPA: "a ppa", RPA: "an rpa", DFA: "a dfa", QUERY: "a mo-query",
               REGION: "a region"}


def _decode(doc, expected):
    """Decode a document and insist on the expected kind (None: any kind)."""
    obj = modelio.load_document(doc)
    if expected is not None and not isinstance(obj, expected):
        raise ParseError(f"expected {_KIND_NAMES[expected]} document, got {doc.get('type')}")
    return obj


def positive_int(text):
    """A resolution: an integer >= 1."""
    try:
        value = int(text)
    except (TypeError, ValueError):
        value = 0
    if value < 1:
        raise ValueError(f"expected a positive integer, got {text!r}")
    return value


class _Inputs:
    """Tracks file digests so reports can echo what they consumed."""

    def __init__(self):
        self.digests = {}

    def load(self, path, expected):
        with open(path, "rb") as fh:
            data = fh.read()
        self.digests[path] = digest_bytes(data)
        doc = json.loads(data.decode("utf-8"))
        # reports produced by structural commands are loadable as their result
        report = doc.get("report") if isinstance(doc, dict) else None
        if isinstance(report, dict) and "result" in report:
            doc = report["result"]
        return _decode(doc, expected)


def parse_region_arg(text, inputs):
    """Parse --region: box.p=[0,0.1],q=[0,1] | finite:{p=1/10};{p=9/10} | @file."""
    text = text.strip()
    if text.startswith("@"):
        return inputs.load(text[1:], REGION)
    if text.startswith("box.") or text.startswith("box:"):
        body = text[4:]
        bounds = {}
        for chunk in _split_axes(body):
            if "=" not in chunk:
                raise ParseError(f"bad box axis {chunk!r}")
            name, rng = chunk.split("=", 1)
            rng = rng.strip()
            if not (rng.startswith("[") and rng.endswith("]")) or rng.count(",") != 1:
                raise ParseError(f"bad interval {rng!r} for {name!r}")
            lo, hi = rng[1:-1].split(",")
            bounds[name.strip()] = (parse_rational(lo), parse_rational(hi))
        return Box.of(bounds)
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
    val = {}
    for item in text.split(","):
        if not item.strip():
            continue
        if "=" not in item:
            raise ParseError(f"bad valuation item {item!r}: expected name=value")
        name, value = item.split("=", 1)
        val[name.strip()] = parse_rational(value)
    return val


def _emit(args, report, code):
    text = render_report(report)
    if getattr(args, "out", None):
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return code


def _structural(args, name, builder):
    inputs = _Inputs()
    result = builder(inputs)
    report = make_report(name, inputs.digests, {"result": modelio.dump_document(result)})
    return _emit(args, report, EXIT_HOLDS)


def cmd_compose(args):
    return _structural(
        args, "compose", lambda inp: compose(inp.load(args.left, PPA), inp.load(args.right, PPA))
    )


def cmd_instantiate(args):
    def build(inp):
        m = inp.load(args.model, PPA)
        return instantiate(m, parse_valuation_arg(args.valuation))

    return _structural(args, "instantiate", build)


def cmd_extend(args):
    return _structural(
        args,
        "extend",
        lambda inp: alphabet_extend(inp.load(args.model, PPA), set(args.symbols.split(","))),
    )


def cmd_tau(args):
    return _structural(args, "tau", lambda inp: tau_extend(inp.load(args.model, PPA)))


def cmd_prune(args):
    return _structural(args, "prune", lambda inp: prune_unreachable(inp.load(args.model, PPA)))


def cmd_product(args):
    inputs = _Inputs()
    m = inputs.load(args.model, PPA)
    b = inputs.load(args.dfa, DFA)
    product, bad = dfa_product(m, b)
    report = make_report(
        "product",
        inputs.digests,
        {"result": modelio.dump_document(product), "bad_states": sorted(bad, key=repr)},
    )
    return _emit(args, report, EXIT_HOLDS)


def cmd_check(args):
    inputs = _Inputs()
    m = inputs.load(args.model, PPA)
    query = inputs.load(args.objective, QUERY)
    region = parse_region_arg(args.region, inputs) if args.region else FiniteRegion.of([{}])
    started = time.monotonic()
    verdict = region_sat(m, region, query, args.strategy_class, args.resolution)
    timing = {"seconds": time.monotonic() - started} if args.timing else None
    report = make_report(
        "check",
        inputs.digests,
        {"verdict": verdict, "strategy_class": args.strategy_class,
         "resolution": args.resolution},
        timing,
    )
    return _emit(args, report, EXIT_HOLDS if verdict.holds else EXIT_FAILS)


def cmd_triple(args):
    inputs = _Inputs()
    m = inputs.load(args.model, PPA)
    assumption = inputs.load(args.assumption, QUERY)
    guarantee = inputs.load(args.guarantee, QUERY)
    region = parse_region_arg(args.region, inputs) if args.region else FiniteRegion.of([{}])
    verdict = ag_triple_check(
        m, region, assumption, guarantee, args.strategy_class, args.resolution
    )
    report = make_report("triple", inputs.digests, {"verdict": verdict})
    return _emit(args, report, EXIT_HOLDS if verdict.holds else EXIT_FAILS)


def cmd_monotone(args):
    inputs = _Inputs()
    m = inputs.load(args.model, PPA)
    query = inputs.load(args.objective, QUERY)
    if len(query) != 1:
        raise ParseError("monotonicity checks take a single-objective query")
    region = parse_region_arg(args.region, inputs)
    verdict = monotone_check(
        m, region, query[0], args.param, args.direction,
        args.strategy_class, args.resolution, args.grid_denominator,
    )
    report = make_report("monotone", inputs.digests, {"verdict": verdict})
    return _emit(args, report, EXIT_HOLDS if verdict.holds else EXIT_FAILS)


def cmd_project(args):
    inputs = _Inputs()
    left = inputs.load(args.left, PPA)
    right = inputs.load(args.right, PPA)
    sigma = inputs.load(args.strategy, None)
    composed = compose(left, right)
    v = parse_valuation_arg(args.valuation) if args.valuation else {}
    inst = instantiate(composed, v)
    tab = tabulate(inst, sigma, args.horizon) if not hasattr(sigma, "table") else sigma
    proj = strategy_project(inst, tab, args.side, args.horizon)
    report = make_report(
        "project", inputs.digests, {"result": modelio.dump_document(proj)}
    )
    return _emit(args, report, EXIT_HOLDS)


def cmd_simulate(args):
    inputs = _Inputs()
    left = inputs.load(args.left, PPA)
    right = inputs.load(args.right, PPA)
    region = parse_region_arg(args.region, inputs) if args.region else FiniteRegion.of([{}])
    if args.robust:
        rel = robust_strong_sim(left, right, region, args.resolution)
        ok = rel is not None
        body = {
            "robust": True,
            "holds": ok,
            "relation": sorted(rel, key=repr) if ok else None,
        }
        report = make_report("simulate", inputs.digests, body)
        return _emit(args, report, EXIT_HOLDS if ok else EXIT_FAILS)
    verdict = strong_sim_region(left, right, region, args.resolution)
    report = make_report("simulate", inputs.digests, {"robust": False, "verdict": verdict})
    return _emit(args, report, EXIT_HOLDS if verdict.holds else EXIT_FAILS)


# rule -> (function, script arguments, attestation notes of its fairness
# variant or None when it has none)
_RULES = {
    "asymmetric": (
        apply_asymmetric,
        ("m1", "m2", "r1", "r2", "assumption", "guarantee"),
        2,
    ),
    "circular": (
        apply_circular,
        ("m1", "m2", "r1", "r2", "r3", "a1", "a2", "guarantee"),
        3,
    ),
    "conjunction": (
        apply_conjunction,
        ("m", "r1", "r2", "a1", "g1", "a2", "g2"),
        2,
    ),
    "monotonicity": (
        apply_monotonicity,
        ("m1", "m2", "r1", "r2", "objective", "param", "direction"),
        2,
    ),
    "simulation": (
        apply_simulation_ag,
        ("m1", "m2", "m_assume", "m_guarantee", "r1", "r2"),
        None,
    ),
}


def _script_check(cond, message):
    if not cond:
        raise ParseError(f"proof script: {message}")


def _script_fairness(rule, fair, n_notes):
    _script_check(n_notes is not None, f"rule {rule!r} has no fairness variant")
    _script_check(isinstance(fair, dict), "'fairness' must be an object")
    sets, notes = fair.get("sets", []), fair.get("notes", [])
    _script_check(isinstance(sets, list) and all(isinstance(x, list) for x in sets),
                  "fairness 'sets' must be a list of lists")
    _script_check(isinstance(notes, list) and all(isinstance(x, str) and x for x in notes),
                  "fairness 'notes' must be a list of non-empty strings")
    _script_check(len(notes) == n_notes,
                  f"rule {rule!r} needs {n_notes} fairness notes, got {len(notes)}")
    return FairnessAttestation(tuple(tuple(x) for x in sets), tuple(notes))


# script argument -> the section its value names; "param" and "direction"
# are given inline
_SCRIPT_ARGS = {
    **dict.fromkeys(("m", "m1", "m2", "m_assume", "m_guarantee"), "models"),
    **dict.fromkeys(("r1", "r2", "r3"), "regions"),
    **dict.fromkeys(
        ("assumption", "guarantee", "a1", "a2", "g1", "g2", "objective"), "queries"
    ),
}


def _resolve_script_value(app_id, key, value, env, inputs):
    """The rule argument that a script entry names, checked against its kind."""
    where = f"application {app_id!r} argument {key!r}"
    if key == "param":
        _script_check(isinstance(value, str) and value != "",
                      f"{where} must be a parameter name, got {value!r}")
        return value
    if key == "direction":
        _script_check(value in ("up", "down"),
                      f"{where} must be 'up' or 'down', got {value!r}")
        return value
    section = _SCRIPT_ARGS[key]
    _script_check(isinstance(value, str),
                  f"{where} must be a string naming an entry of {section!r}, got {value!r}")
    if value in env[section]:
        found = env[section][value]
        if key == "objective":
            _script_check(len(found) > 0, f"{where} names an empty query {value!r}")
            return found[0]
        return found
    if section == "regions":
        try:
            return parse_region_arg(value, inputs)
        except ParseError as exc:
            raise ParseError(f"proof script: {where}: {exc}") from exc
    raise ParseError(f"proof script: {where} names no entry of {section!r}: {value!r}")


def cmd_rule(args):
    inputs = _Inputs()
    with open(args.script, "rb") as fh:
        raw = fh.read()
    inputs.digests[args.script] = digest_bytes(raw)
    doc = json.loads(raw.decode("utf-8"))
    if not isinstance(doc, dict) or doc.get("type") != "proof-script":
        raise ParseError("expected a proof-script document")
    env = {}
    for key, expected in (("models", PPA), ("queries", QUERY), ("regions", REGION)):
        section = doc.get(key, {})
        _script_check(isinstance(section, dict), f"{key!r} must be an object")
        env[key] = {
            name: inputs.load(entry[1:], expected)
            if isinstance(entry, str) and entry.startswith("@")
            else _decode(entry, expected)
            for name, entry in section.items()
        }
    applications = doc.get("applications", [])
    _script_check(isinstance(applications, list)
                  and all(isinstance(app_doc, dict) for app_doc in applications),
                  "'applications' must be a list of objects")
    certificate = []
    worst = EXIT_HOLDS
    for app_doc in applications:
        rule = app_doc.get("rule")
        if rule not in _RULES:
            raise ParseError(f"unknown rule {rule!r} in proof script")
        fn, arg_names, n_notes = _RULES[rule]
        app_id = app_doc.get("id", rule)
        kwargs = {}
        for name in arg_names:
            if name not in app_doc:
                raise ParseError(f"rule {rule!r} needs argument {name!r}")
            kwargs[name] = _resolve_script_value(app_id, name, app_doc[name], env, inputs)
        if "resolution" in app_doc:
            try:
                kwargs["resolution"] = positive_int(app_doc["resolution"])
            except ValueError as exc:
                raise ParseError(f"proof script: 'resolution' {exc}") from exc
        if rule == "simulation" and "robust" in app_doc:
            kwargs["robust"] = bool(app_doc["robust"])
        if "fairness" in app_doc:
            kwargs["fairness"] = _script_fairness(rule, app_doc["fairness"], n_notes)
        app = fn(**kwargs)
        certificate.append(
            {
                "id": app_id,
                "rule": app.rule,
                "status": app.status,
                "confidence": app.confidence,
                "side_conditions": app.side_conditions,
                "premises": [
                    {
                        "kind": p.kind,
                        "description": p.description,
                        "status": "attested" if p.attestation else p.verdict.status,
                        "attestation": p.attestation,
                        "witness": scrub(p.verdict.witness) if p.verdict else None,
                    }
                    for p in app.premises
                ],
                "conclusion": scrub(app.conclusion),
            }
        )
        if not app.concluded:
            worst = max(worst, EXIT_FAILS)
        elif app.confidence == "attested":
            worst = max(worst, EXIT_UNKNOWN)
    report = make_report("rule", inputs.digests, {"certificate": certificate})
    return _emit(args, report, worst)


def _rpa_binary(args, name, op):
    inputs = _Inputs()
    result = op(inputs.load(args.left, RPA), inputs.load(args.right, RPA))
    report = make_report(name, inputs.digests, {"result": modelio.dump_document(result)})
    return _emit(args, report, EXIT_HOLDS)


def cmd_rpa_compose(args):
    inputs = _Inputs()
    left, right = inputs.load(args.left, RPA), inputs.load(args.right, RPA)
    composed = rpa_compose(left, right)
    # product sets have no finite serialization; report the structure instead
    body = {
        "states": len(composed.states),
        "alphabet": sorted(composed.alphabet),
        "transitions": [
            {"state": repr(s), "action": repr(a), "label": composed.label[(s, a)],
             "set": "product"}
            for (s, a) in sorted(composed.utrans, key=repr)
        ],
    }
    report = make_report("rpa-compose", inputs.digests, body)
    return _emit(args, report, EXIT_HOLDS)


def cmd_rpa_conv(args):
    return _rpa_binary(args, "rpa-conv", conv_compose)


def cmd_rpa_relax(args):
    return _rpa_binary(args, "rpa-relax", interval_relax_compose)


def cmd_rpa_reduce(args):
    return _structural(args, "rpa-reduce", lambda inp: pa_reduce(inp.load(args.model, RPA)))


def cmd_rpa_rule(args):
    inputs = _Inputs()
    u1 = inputs.load(args.left, RPA)
    u2 = inputs.load(args.right, RPA)
    assumption = inputs.load(args.assumption, QUERY)
    guarantee = inputs.load(args.guarantee, QUERY)
    app = apply_rpa_rules(args.variant, u1, u2, assumption, guarantee)
    body = {
        "rule": app.rule,
        "status": app.status,
        "confidence": app.confidence,
        "conclusion": scrub(app.conclusion),
        "premises": [
            {"description": p.description, "status": p.verdict.status}
            for p in app.premises
        ],
    }
    report = make_report("rpa-rule", inputs.digests, body)
    return _emit(args, report, EXIT_HOLDS if app.concluded else EXIT_FAILS)


def cmd_paper_suite(args):
    from .paper_suite import run_suite

    results = run_suite()
    for r in results:
        line = f"{'PASS' if r['pass'] else 'FAIL'} {r['anchor']}"
        if r["detail"]:
            line += f" ({r['detail']})"
        print(line)
    ok = all(r["pass"] for r in results)
    if args.out:
        report = make_report("paper-suite", {}, {"results": results})
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(render_report(report))
    print(f"{sum(r['pass'] for r in results)}/{len(results)} anchors pass")
    return EXIT_HOLDS if ok else EXIT_FAILS


def cmd_corpus(args):
    import os

    from .verify import safety
    from fractions import Fraction as F

    os.makedirs(args.out, exist_ok=True)
    items = {
        "retry.ppa.json": corpus.retry_component(),
        "pipeline.ppa.json": corpus.pipeline_component(),
        "handoff_fixed.ppa.json": corpus.handoff_fixed(),
        "handoff_parametric.ppa.json": corpus.handoff_parametric(),
        "split_responder.ppa.json": corpus.split_responder(),
        "interval_retry.rpa.json": corpus.interval_retry(),
        "interval_responder.rpa.json": corpus.interval_responder(),
        "half_retry.rpa.json": corpus.half_retry(),
        "two_point_responder.rpa.json": corpus.two_point_responder(),
        "no_fail.dfa.json": corpus.no_fail_dfa(),
        "no_c.dfa.json": corpus.no_c_dfa(),
        "limit_one_a.dfa.json": corpus.limit_one_a_dfa(),
        "safe_guarantee.query.json": (safety(corpus.no_fail_dfa(), F(9, 10)),),
        "safe_assumption.query.json": (safety(corpus.limit_one_a_dfa(), F(9, 10)),),
    }
    written = []
    for name, obj in sorted(items.items()):
        path = os.path.join(args.out, name)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(modelio.dump_document(obj), fh, indent=2, sort_keys=True)
            fh.write("\n")
        written.append(name)
    print("\n".join(written))
    return EXIT_HOLDS


def build_parser():
    parser = argparse.ArgumentParser(
        prog="pacomp",
        description="Compositional verification for parametric and robust "
        "probabilistic automata",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, out=True):
        if out:
            p.add_argument("--out", help="write the JSON report to this file")
        p.add_argument("--timing", action="store_true",
                       help="include wall-clock timing (breaks byte-stability)")

    p = sub.add_parser("compose", help="parallel composition of two models")
    p.add_argument("--left", required=True)
    p.add_argument("--right", required=True)
    common(p)
    p.set_defaults(fn=cmd_compose)

    p = sub.add_parser("instantiate", help="substitute a valuation")
    p.add_argument("--model", required=True)
    p.add_argument("--valuation", required=True, help="e.g. p=1/10,q=0.1")
    common(p)
    p.set_defaults(fn=cmd_instantiate)

    p = sub.add_parser("extend", help="alphabet extension with fresh self-loops")
    p.add_argument("--model", required=True)
    p.add_argument("--symbols", required=True, help="comma-separated symbols")
    common(p)
    p.set_defaults(fn=cmd_extend)

    p = sub.add_parser("tau", help="sink extension mapping partial to complete")
    p.add_argument("--model", required=True)
    common(p)
    p.set_defaults(fn=cmd_tau)

    p = sub.add_parser("prune", help="drop unreachable states")
    p.add_argument("--model", required=True)
    common(p)
    p.set_defaults(fn=cmd_prune)

    p = sub.add_parser("product", help="bad-prefix DFA product")
    p.add_argument("--model", required=True)
    p.add_argument("--dfa", required=True)
    common(p)
    p.set_defaults(fn=cmd_product)

    p = sub.add_parser("check", help="region satisfaction of a mo-query")
    p.add_argument("--model", required=True)
    p.add_argument("--objective", required=True, help="mo-query JSON file")
    p.add_argument("--region", default=None)
    p.add_argument("--resolution", type=positive_int, default=1)
    p.add_argument("--class", dest="strategy_class", choices=("cmp", "prt"), default="cmp")
    common(p)
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("triple", help="assume-guarantee triple over a region")
    p.add_argument("--model", required=True)
    p.add_argument("--assumption", required=True)
    p.add_argument("--guarantee", required=True)
    p.add_argument("--region", default=None)
    p.add_argument("--resolution", type=positive_int, default=1)
    p.add_argument("--class", dest="strategy_class", choices=("cmp", "prt"), default="prt")
    common(p)
    p.set_defaults(fn=cmd_triple)

    p = sub.add_parser("monotone", help="monotonicity of the solution function")
    p.add_argument("--model", required=True)
    p.add_argument("--objective", required=True)
    p.add_argument("--region", required=True)
    p.add_argument("--param", required=True)
    p.add_argument("--direction", choices=("up", "down"), required=True)
    p.add_argument("--resolution", type=positive_int, default=1)
    p.add_argument("--grid-denominator", type=int, default=1)
    p.add_argument("--class", dest="strategy_class", choices=("cmp", "prt"), default="cmp")
    common(p)
    p.set_defaults(fn=cmd_monotone)

    p = sub.add_parser("project", help="project a composed-model strategy")
    p.add_argument("--left", required=True)
    p.add_argument("--right", required=True)
    p.add_argument("--strategy", required=True)
    p.add_argument("--valuation", default=None)
    p.add_argument("--side", type=int, choices=(1, 2), required=True)
    p.add_argument("--horizon", type=int, default=4)
    common(p)
    p.set_defaults(fn=cmd_project)

    p = sub.add_parser("simulate", help="strong or robust-strong simulation")
    p.add_argument("--left", required=True)
    p.add_argument("--right", required=True)
    p.add_argument("--region", default=None)
    p.add_argument("--resolution", type=positive_int, default=1)
    p.add_argument("--robust", action="store_true")
    common(p)
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("rule", help="run a proof script and emit a certificate")
    p.add_argument("--script", required=True)
    common(p)
    p.set_defaults(fn=cmd_rule)

    for name, fn, needs in (
        ("rpa-compose", cmd_rpa_compose, "lr"),
        ("rpa-conv", cmd_rpa_conv, "lr"),
        ("rpa-relax", cmd_rpa_relax, "lr"),
    ):
        p = sub.add_parser(name, help=f"robust composition ({name.split('-')[1]})")
        p.add_argument("--left", required=True)
        p.add_argument("--right", required=True)
        common(p)
        p.set_defaults(fn=fn)

    p = sub.add_parser("rpa-reduce", help="PA-reduction of a polytopic robust model")
    p.add_argument("--model", required=True)
    common(p)
    p.set_defaults(fn=cmd_rpa_reduce)

    p = sub.add_parser("rpa-rule", help="robust assume-guarantee rule")
    p.add_argument("--variant", choices=("asymmetric",), default="asymmetric")
    p.add_argument("--left", required=True)
    p.add_argument("--right", required=True)
    p.add_argument("--assumption", required=True)
    p.add_argument("--guarantee", required=True)
    common(p)
    p.set_defaults(fn=cmd_rpa_rule)

    p = sub.add_parser("paper-suite", help="golden regression over the demo corpus")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_paper_suite)

    p = sub.add_parser("corpus", help="export the bundled demo corpus")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_corpus)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except ParseError as exc:
        print(f"format error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except FileNotFoundError as exc:
        print(f"missing input: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"input/output error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except PacompError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        print(f"format error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:  # a bug, e.g. a witness failing re-verification
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        traceback.print_exc()
        return EXIT_INTERNAL


if __name__ == "__main__":
    raise SystemExit(main())
