"""Command-line front end.

Exit codes: 0 holds/success, 1 fails (with witness), 2 usage or format error,
3 unknown / attested-only conclusions, 4 internal error (a bug, never a
verdict).  Reports are deterministic JSON with rationals rendered as num/den
strings; pass --timing to add wall-clock times (which breaks byte-stability
on purpose).

Every command is one row of `COMMANDS`: its help, its usage (the options it
takes, each defined once in `_OPTIONS`) and a handler `(args, inputs) ->
(report body, exit code)`.  `main` alone parses, loads, assembles the report
and writes it.  `corpus` and `paper-suite` print text themselves; their
handlers return no body, except `paper-suite --out`, whose report `main`
writes to that file.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time
import traceback
from fractions import Fraction
from typing import NamedTuple

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
from .report import digest_bytes, make_report, render_report
from .robust import conv_compose, interval_relax_compose, pa_reduce, rpa_compose
from .semantics import strategy_project, validate_strategy
from .simulate import robust_sim_region, strong_sim_region
from .verify import ag_triple_check, monotone_check, region_sat, safety

EXIT_HOLDS = 0
EXIT_FAILS = 1
EXIT_USAGE = 2
EXIT_UNKNOWN = 3
EXIT_INTERNAL = 4


def _integer(kind):
    """The argparse type of an integer option: the shape table's leaf `kind`."""
    def integer(text):
        try:
            return modelio._LEAVES[kind](int(text), "$")
        except ParseError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None

    return integer


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


def _exit(holds):
    return EXIT_HOLDS if holds else EXIT_FAILS


def _pair(args, inputs, kind):
    return inputs.load(args.left, kind), inputs.load(args.right, kind)


def _region(args, inputs):
    """--region, or the single empty valuation when it is not given."""
    return parse_region_arg(args.region, inputs) if args.region else FiniteRegion.of([{}])


def _query(inputs, path, m, goal=False):
    """The query in `path` on the model `m`.  Its rewards may use only the
    model's parameters, as its transitions may; a query to check (`goal`)
    without objectives would hold vacuously."""
    query = inputs.load(path, "mo-query")
    if goal and not query:
        raise ParseError(f"{path}: the query to check has no objectives")
    for i, obj in enumerate(query):
        stray = {x for _, r in getattr(obj, "rewards", ()) for x in r.variables()} - m.params
        if stray:
            raise ParseError(f"{path}: $.objectives[{i}].rewards use undeclared "
                             f"parameters {sorted(stray)}")
    return query


def _built(result):
    """The report body of a structural command: its result, loadable as input."""
    return {"result": modelio.dump_document(result)}, EXIT_HOLDS


def _product(args, inputs):
    product, bad = dfa_product(inputs.load(args.model, "ppa"), inputs.load(args.dfa, "dfa"))
    body = {"result": modelio.dump_document(product), "bad_states": sorted(bad, key=repr)}
    return body, EXIT_HOLDS


def _check(args, inputs):
    m = inputs.load(args.model, "ppa")
    query = _query(inputs, args.objective, m, goal=True)
    verdict = region_sat(m, _region(args, inputs), query, args.strategy_class, args.resolution)
    body = {"verdict": verdict, "strategy_class": args.strategy_class,
            "resolution": args.resolution}
    return body, _exit(verdict.holds)


def _triple(args, inputs):
    m = inputs.load(args.model, "ppa")
    assumption = _query(inputs, args.assumption, m)
    guarantee = _query(inputs, args.guarantee, m, goal=True)
    verdict = ag_triple_check(m, _region(args, inputs), assumption, guarantee,
                              args.strategy_class, args.resolution)
    return {"verdict": verdict}, _exit(verdict.holds)


def _monotone(args, inputs):
    m = inputs.load(args.model, "ppa")
    query = _query(inputs, args.objective, m)
    if len(query) != 1:
        raise ParseError("monotonicity checks take a single-objective query")
    verdict = monotone_check(
        m, _region(args, inputs), query[0], args.param, args.direction,
        args.strategy_class, args.resolution, args.grid_denominator,
    )
    return {"verdict": verdict}, _exit(verdict.holds)


def _project(args, inputs):
    left, right = _pair(args, inputs, "ppa")
    sigma = inputs.load(args.strategy, "strategy")
    inst = instantiate(compose(left, right),
                       parse_valuation_arg(args.valuation) if args.valuation else {})
    try:
        validate_strategy(inst, sigma)
    except ValueError as exc:
        raise ParseError(f"{args.strategy}: {exc}") from None
    return _built(strategy_project(inst, sigma, args.side, args.horizon))


def _simulate(args, inputs):
    left, right = _pair(args, inputs, "ppa")
    region = _region(args, inputs)
    if not args.robust:
        verdict = strong_sim_region(left, right, region, args.resolution)
        return {"robust": False, "verdict": verdict}, _exit(verdict.holds)
    verdict = robust_sim_region(left, right, region, args.resolution)
    body = {"robust": True, "holds": verdict.holds,
            "relation": verdict.witness.get("relation"), "caveat": verdict.caveat}
    return body, _exit(verdict.holds)


def _certificate(app):
    """The report of one rule application, each premise with its witness."""
    return {
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
                "witness": p.verdict.witness if p.verdict else None,
            }
            for p in app.premises
        ],
        "conclusion": app.conclusion,
    }


def _rule_exit(apps):
    """1 if an application is not concluded, else 3 if one is attested only, else 0."""
    if not all(app.concluded for app in apps):
        return EXIT_FAILS
    return EXIT_UNKNOWN if any(app.confidence == "attested" for app in apps) else EXIT_HOLDS


def _rule(args, inputs):
    apps = [(i, fn(**kwargs)) for i, fn, kwargs in inputs.load(args.script, "proof-script")]
    certificate = [{"id": i, **_certificate(app)} for i, app in apps]
    return {"certificate": certificate}, _rule_exit([app for _, app in apps])


def _rpa_compose(args, inputs):
    composed = rpa_compose(*_pair(args, inputs, "rpa"))
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
    return body, EXIT_HOLDS


def _rpa_rule(args, inputs):
    u1, u2 = _pair(args, inputs, "rpa")
    assumption = inputs.load(args.assumption, "mo-query")
    guarantee = inputs.load(args.guarantee, "mo-query")
    app = apply_rpa_rules("asymmetric", u1, u2, assumption, guarantee)
    return _certificate(app), _rule_exit([app])


def _paper_suite(args, inputs):
    from .paper_suite import run_suite

    results = run_suite()
    for r in results:
        print(f"{'PASS' if r['pass'] else 'FAIL'} {r['anchor']}")
    print(f"{sum(r['pass'] for r in results)}/{len(results)} anchors pass")
    body = {"results": results} if args.out else None
    return body, _exit(all(r["pass"] for r in results))


def _corpus(args, inputs):
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
        "safe_guarantee.query.json": (safety(corpus.no_fail_dfa(), Fraction(9, 10)),),
        "safe_assumption.query.json": (safety(corpus.limit_one_a_dfa(), Fraction(9, 10)),),
    }
    written = []
    for name, obj in sorted(items.items()):
        path = os.path.join(args.out, name)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(modelio.dump_document(obj), fh, indent=2, sort_keys=True)
            fh.write("\n")
        written.append(name)
    print("\n".join(written))
    return None, EXIT_HOLDS


# Every option, defined once as argparse keywords.  A row's usage names the
# options its command takes: bare ones are required, bracketed ones optional,
# and `[--opt=value]` sets that command's default.
_OPTIONS = {
    "--objective": {"help": "mo-query JSON file"},
    "--valuation": {"help": "e.g. p=1/10,q=0.1"},
    "--symbols": {"help": "comma-separated symbols"},
    "--region": {"help": "box.p=[0,0.1],q=[0,1], finite:{p=1/10};{p=9/10} or @file; "
                         "default: the single empty valuation"},
    "--resolution": {"type": _integer("pos"), "default": 1},
    "--class": {"dest": "strategy_class", "choices": ("cmp", "prt"), "default": "cmp"},
    "--direction": {"choices": ("up", "down")},
    "--grid-denominator": {"type": _integer("pos"), "default": 1},
    "--side": {"type": int, "choices": (1, 2)},
    "--horizon": {"type": _integer("nat"), "default": 4},
    "--robust": {"action": "store_true"},
    "--out": {"help": "write the JSON report to this file (corpus: the directory to fill)"},
    "--timing": {"action": "store_true",
                 "help": "include wall-clock timing (breaks byte-stability)"},
}


class _Command(NamedTuple):
    help: str
    usage: str  # its options, see `_OPTIONS`
    run: object  # (args, inputs) -> (report body or None, exit code)
    report: bool = True  # takes [--out] [--timing]; False for the text commands


COMMANDS = {
    "compose": _Command("parallel composition of two models", "--left --right",
                        lambda a, i: _built(compose(*_pair(a, i, "ppa")))),
    "instantiate": _Command(
        "substitute a valuation", "--model --valuation",
        lambda a, i: _built(instantiate(i.load(a.model, "ppa"),
                                        parse_valuation_arg(a.valuation)))),
    "extend": _Command(
        "alphabet extension with fresh self-loops", "--model --symbols",
        lambda a, i: _built(alphabet_extend(i.load(a.model, "ppa"), set(modelio._decode(
            [s.strip() for s in a.symbols.split(",")], ["name"], "--symbols", None))))),
    "tau": _Command("sink extension mapping partial to complete", "--model",
                    lambda a, i: _built(tau_extend(i.load(a.model, "ppa")))),
    "prune": _Command("drop unreachable states", "--model",
                      lambda a, i: _built(prune_unreachable(i.load(a.model, "ppa")))),
    "product": _Command("bad-prefix DFA product", "--model --dfa", _product),
    "check": _Command("region satisfaction of a mo-query",
                      "--model --objective [--region] [--resolution] [--class]", _check),
    "triple": _Command("assume-guarantee triple over a region", "--model --assumption "
                       "--guarantee [--region] [--resolution] [--class=prt]", _triple),
    "monotone": _Command("monotonicity of the solution function",
                         "--model --objective --region --param --direction [--resolution] "
                         "[--grid-denominator] [--class]", _monotone),
    "project": _Command("project a composed-model strategy",
                        "--left --right --strategy [--valuation] --side [--horizon]", _project),
    "simulate": _Command("strong or robust-strong simulation",
                         "--left --right [--region] [--resolution] [--robust]", _simulate),
    "rule": _Command("run a proof script and emit a certificate", "--script", _rule),
    "rpa-compose": _Command("robust composition (compose)", "--left --right", _rpa_compose),
    "rpa-conv": _Command("robust composition (conv)", "--left --right",
                         lambda a, i: _built(conv_compose(*_pair(a, i, "rpa")))),
    "rpa-relax": _Command("robust composition (relax)", "--left --right",
                          lambda a, i: _built(interval_relax_compose(*_pair(a, i, "rpa")))),
    "rpa-reduce": _Command("PA-reduction of a polytopic robust model", "--model",
                           lambda a, i: _built(pa_reduce(i.load(a.model, "rpa")))),
    "rpa-rule": _Command("robust asymmetric assume-guarantee rule",
                         "--left --right --assumption --guarantee", _rpa_rule),
    "paper-suite": _Command("golden regression over the demo corpus", "[--out]", _paper_suite,
                            report=False),
    "corpus": _Command("export the bundled demo corpus", "--out", _corpus, report=False),
}


@functools.cache
def _parser(name):
    """The parser of command `name` alone, built once per process: parsing
    writes only the namespace it returns, so calls share nothing else."""
    row = COMMANDS[name]
    parser = argparse.ArgumentParser(prog=f"pacomp {name}", description=row.help)
    usage = row.usage + (" [--out] [--timing]" if row.report else "")
    for item in usage.split():
        flag, _, default = item.strip("[]").partition("=")
        keywords = dict(_OPTIONS.get(flag, {}), required=not item.startswith("["))
        if default:
            keywords["default"] = default
        parser.add_argument(flag, **keywords)
    return parser


def _listing():
    """The top-level parser: it lists every command and rejects unknown ones."""
    parser = argparse.ArgumentParser(
        prog="pacomp",
        usage="%(prog)s [-h] command [option ...]",
        description="Compositional verification for parametric and robust "
        "probabilistic automata",
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog="commands (options: pacomp <command> --help):\n"
        + "\n".join(f"  {n:<12} {row.help}" for n, row in COMMANDS.items()),
    )
    parser.add_argument("command", choices=COMMANDS, metavar="command",
                        help="one of the commands below")
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        if not argv or argv[0] not in COMMANDS:  # --help, or a missing or unknown command
            argv[:1] = [_listing().parse_args(argv[:1]).command]
        name, args = argv[0], _parser(argv[0]).parse_args(argv[1:])
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    started = time.monotonic()
    try:
        inputs = _Inputs()
        body, code = COMMANDS[name].run(args, inputs)
        if body is not None:
            report = make_report(name, inputs.digests, body)
            if getattr(args, "timing", False):  # measured from just after parsing
                report["timing"] = {"seconds": time.monotonic() - started}
            text = render_report(report)
            if args.out:
                with open(args.out, "w", encoding="utf-8") as fh:
                    fh.write(text)
            else:
                sys.stdout.write(text)
        return code
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
