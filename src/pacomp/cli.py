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
from .algebra import FiniteRegion
from .errors import PacompError, ParseError
from .model import (
    alphabet_extend,
    compose,
    dfa_product,
    instantiate,
    prune_unreachable,
    tau_extend,
)
from .modelio import parse_region_arg, parse_valuation_arg
from .proofrules import apply_rpa_rules
from .report import digest_bytes, make_report, render_report, scrub
from .robust import conv_compose, interval_relax_compose, pa_reduce, rpa_compose
from .semantics import strategy_project, tabulate
from .simulate import robust_strong_sim, strong_sim_region
from .verify import ag_triple_check, monotone_check, region_sat

EXIT_HOLDS = 0
EXIT_FAILS = 1
EXIT_USAGE = 2
EXIT_UNKNOWN = 3
EXIT_INTERNAL = 4


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

    def load(self, path, kind):
        """Decode the document of `kind` (see `modelio.load_document`) in `path`."""
        with open(path, "rb") as fh:
            data = fh.read()
        self.digests[path] = digest_bytes(data)
        doc = json.loads(data.decode("utf-8"))
        # reports produced by structural commands are loadable as their result
        report = doc.get("report") if isinstance(doc, dict) else None
        if isinstance(report, dict) and "result" in report:
            doc = report["result"]
        return modelio.load_document(doc, kind, self)


def _emit(args, report, code):
    if args.timing:  # measured from just after argument parsing in `main`
        report["timing"] = {"seconds": time.monotonic() - args.started}
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
        args, "compose",
        lambda inp: compose(inp.load(args.left, "ppa"), inp.load(args.right, "ppa")),
    )


def cmd_instantiate(args):
    def build(inp):
        m = inp.load(args.model, "ppa")
        return instantiate(m, parse_valuation_arg(args.valuation))

    return _structural(args, "instantiate", build)


def cmd_extend(args):
    return _structural(
        args,
        "extend",
        lambda inp: alphabet_extend(inp.load(args.model, "ppa"), set(args.symbols.split(","))),
    )


def cmd_tau(args):
    return _structural(args, "tau", lambda inp: tau_extend(inp.load(args.model, "ppa")))


def cmd_prune(args):
    return _structural(args, "prune", lambda inp: prune_unreachable(inp.load(args.model, "ppa")))


def cmd_product(args):
    inputs = _Inputs()
    m = inputs.load(args.model, "ppa")
    b = inputs.load(args.dfa, "dfa")
    product, bad = dfa_product(m, b)
    report = make_report(
        "product",
        inputs.digests,
        {"result": modelio.dump_document(product), "bad_states": sorted(bad, key=repr)},
    )
    return _emit(args, report, EXIT_HOLDS)


def cmd_check(args):
    inputs = _Inputs()
    m = inputs.load(args.model, "ppa")
    query = inputs.load(args.objective, "mo-query")
    region = parse_region_arg(args.region, inputs) if args.region else FiniteRegion.of([{}])
    verdict = region_sat(m, region, query, args.strategy_class, args.resolution)
    report = make_report(
        "check",
        inputs.digests,
        {"verdict": verdict, "strategy_class": args.strategy_class,
         "resolution": args.resolution},
    )
    return _emit(args, report, EXIT_HOLDS if verdict.holds else EXIT_FAILS)


def cmd_triple(args):
    inputs = _Inputs()
    m = inputs.load(args.model, "ppa")
    assumption = inputs.load(args.assumption, "mo-query")
    guarantee = inputs.load(args.guarantee, "mo-query")
    region = parse_region_arg(args.region, inputs) if args.region else FiniteRegion.of([{}])
    verdict = ag_triple_check(
        m, region, assumption, guarantee, args.strategy_class, args.resolution
    )
    report = make_report("triple", inputs.digests, {"verdict": verdict})
    return _emit(args, report, EXIT_HOLDS if verdict.holds else EXIT_FAILS)


def cmd_monotone(args):
    inputs = _Inputs()
    m = inputs.load(args.model, "ppa")
    query = inputs.load(args.objective, "mo-query")
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
    left = inputs.load(args.left, "ppa")
    right = inputs.load(args.right, "ppa")
    sigma = inputs.load(args.strategy, "strategy")
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
    left = inputs.load(args.left, "ppa")
    right = inputs.load(args.right, "ppa")
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


def cmd_rule(args):
    inputs = _Inputs()
    certificate = []
    worst = EXIT_HOLDS
    for app_id, fn, kwargs in inputs.load(args.script, "proof-script"):
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
    result = op(inputs.load(args.left, "rpa"), inputs.load(args.right, "rpa"))
    report = make_report(name, inputs.digests, {"result": modelio.dump_document(result)})
    return _emit(args, report, EXIT_HOLDS)


def cmd_rpa_compose(args):
    inputs = _Inputs()
    left, right = inputs.load(args.left, "rpa"), inputs.load(args.right, "rpa")
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
    return _structural(args, "rpa-reduce", lambda inp: pa_reduce(inp.load(args.model, "rpa")))


def cmd_rpa_rule(args):
    inputs = _Inputs()
    u1 = inputs.load(args.left, "rpa")
    u2 = inputs.load(args.right, "rpa")
    assumption = inputs.load(args.assumption, "mo-query")
    guarantee = inputs.load(args.guarantee, "mo-query")
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

    def common(p):
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
    args.started = time.monotonic()
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
