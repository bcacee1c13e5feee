"""The benchmark's three workloads.

Each workload is a fixed pool of requests drawn once from a pool seed by the
generators in `gen.py`.  Every pool request has a reference verdict digest in
`references.json`, recorded with `record.py`, so any answer a later change
gives can be checked.  The run seed orders the pool: a run walks through
seeded permutations of the whole pool ("epochs"), interleaving the strata
(request kind or model size) evenly.  Pools hold an odd number of requests,
so that the median falls on the copies of one request rather than between
two requests.  Specs are plain JSON drawn without calling the program;
`prepare` turns them into program inputs and counts as set-up.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import math
import os
import random
import re
import traceback
from collections import defaultdict
from fractions import Fraction
from typing import Callable

from pacomp import cli, model, robust, simulate, verify
from pacomp.algebra import Box, FiniteRegion, Polynomial
from pacomp.model import DFA, PPA
from pacomp.robust import RPA, IntervalSet, VertexSet

import gen

POOL_SEEDS = {"corpus-cli": 11, "random-lp": 23, "robust-sim": 37}


# ---------------------------------------------------------------------------
# Canonical encodings (benchmark-owned, so digests do not depend on the
# program's own report code)
# ---------------------------------------------------------------------------

def rat(q) -> str:
    q = Fraction(q)
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def _order(value):
    return json.dumps(value, sort_keys=True)


def canon(x, actions=True):
    """JSON-able canonical form of inputs and results."""
    if x is None or isinstance(x, (bool, str)):
        return x
    if isinstance(x, int):
        return x
    if isinstance(x, Fraction):
        return rat(x)
    if isinstance(x, float):
        return "float:" + repr(x)
    if isinstance(x, Polynomial):
        return str(x)
    if isinstance(x, PPA):
        return {
            "states": sorted((canon(s) for s in x.states), key=_order),
            "initial": canon(x.initial),
            "params": sorted(x.params),
            "alphabet": sorted(x.alphabet),
            "trans": sorted((
                [canon(s)] + ([canon(a)] if actions else []) + [x.label[(s, a)], canon(dist)]
                for (s, a), dist in x.trans.items()
            ), key=_order),
        }
    if isinstance(x, RPA):
        return {
            "states": sorted((canon(s) for s in x.states), key=_order),
            "initial": canon(x.initial),
            "alphabet": sorted(x.alphabet),
            "trans": sorted((
                [canon(s)] + ([canon(a)] if actions else []) + [x.label[(s, a)], canon(uset)]
                for (s, a), uset in x.utrans.items()
            ), key=_order),
        }
    if isinstance(x, IntervalSet):
        return ["interval", canon(dict(x.bounds))]
    if isinstance(x, VertexSet):
        return ["vertex", sorted((canon(dict(d)) for d in x.dists), key=_order)]
    if isinstance(x, DFA):
        return {
            "states": sorted((canon(s) for s in x.states), key=_order),
            "initial": canon(x.initial),
            "alphabet": sorted(x.alphabet),
            "trans": canon(x.trans),
            "accepting": canon(x.accepting),
        }
    if isinstance(x, verify.ProbObjective):
        return ["prob", x.cmp, rat(x.threshold), canon(x.dfa)]
    if isinstance(x, verify.RewardObjective):
        return ["reward", x.cmp, rat(x.threshold), canon(x.rewards)]
    if isinstance(x, Box):
        return ["box", canon(x.bounds)]
    if isinstance(x, FiniteRegion):
        return ["finite", canon(x.valuations)]
    if isinstance(x, dict):
        return sorted(([canon(k, actions), canon(v, actions)] for k, v in x.items()),
                      key=_order)
    if isinstance(x, (set, frozenset)):
        return sorted((canon(v, actions) for v in x), key=_order)
    if isinstance(x, (list, tuple)):
        return [canon(v, actions) for v in x]
    raise TypeError(f"no canonical form for {type(x).__name__}")


# A decimal or special float rendered as text, as a report would carry one.
_FLOAT_TEXT = re.compile(
    r"^[+-]?((\d+\.\d*|\.\d+)([eE][+-]?\d+)?|\d+[eE][+-]?\d+|inf|infinity|nan)$",
    re.IGNORECASE,
)


def find_float(obj, path="$", seen=None):
    """Path of the first float (or float-looking text) inside a result, else None."""
    if seen is None:
        seen = set()
    if isinstance(obj, float):
        return path
    if isinstance(obj, str):
        return path if _FLOAT_TEXT.match(obj) else None
    if obj is None or isinstance(obj, (bool, int, Fraction)):
        return None
    if id(obj) in seen:
        return None
    seen.add(id(obj))
    if isinstance(obj, dict):
        items = [(f"{path}[{k!r}]", k) for k in obj] + [
            (f"{path}[{k!r}]", v) for k, v in obj.items()
        ]
    elif isinstance(obj, (list, tuple, set, frozenset)):
        items = [(f"{path}[{i}]", v) for i, v in enumerate(obj)]
    elif dataclasses.is_dataclass(obj):
        items = [(f"{path}.{f.name}", getattr(obj, f.name)) for f in dataclasses.fields(obj)]
    elif hasattr(obj, "__dict__"):
        items = [(f"{path}.{k}", v) for k, v in vars(obj).items()]
    elif hasattr(obj, "__slots__"):
        items = [(f"{path}.{k}", getattr(obj, k)) for k in obj.__slots__ if hasattr(obj, k)]
    else:
        return None
    for sub, value in items:
        hit = find_float(value, sub, seen)
        if hit is not None:
            return hit
    return None


# ---------------------------------------------------------------------------
# Requests and the seeded order
# ---------------------------------------------------------------------------

@dataclasses.dataclass
class Request:
    index: int
    spec: dict
    call: Callable[[], object]  # the timed part: from call to verdict
    project: Callable[[object], object]  # result -> JSON-able verdict and exact values
    exact_body: Callable[[object], object]  # result -> what the exactness guard scans
    inputs: object  # raw inputs; canon(inputs) feeds the input digest


def digest(value) -> str:
    return hashlib.sha256(json.dumps(value, sort_keys=True).encode()).hexdigest()


def check(req, result, reference, oracle):
    """Failure reason for a completed request, or None when it is correct.

    The verdict digest must equal the reference recorded for this pool
    request, the result must hold no float, and an independent answer, where
    one exists, must agree.
    """
    if isinstance(reference, dict):
        return f"failing since the reference run: {reference['error']}"
    try:
        where = find_float(req.exact_body(result))
        if where is not None:
            return f"float in result at {where}"
        proj = req.project(result)
    except Exception as exc:  # a malformed result is a wrong answer
        return "unreadable result: " + "".join(
            traceback.format_exception_only(type(exc), exc)).strip()
    if digest(proj) != reference:
        return "verdict differs from the reference"
    return oracle(req.spec, proj)


def sequence(specs, seed):
    """Endless seeded order over the pool, one full permutation per epoch."""
    strata = defaultdict(list)
    for i, spec in enumerate(specs):
        strata[spec["stratum"]].append(i)
    epoch = 0
    while True:
        rng = random.Random(f"{seed}/{epoch}")
        keyed = []
        for name in sorted(strata, key=str):
            members = list(strata[name])
            rng.shuffle(members)
            for pos, i in enumerate(members):
                keyed.append(((pos + rng.random()) / len(members), i))
        keyed.sort()
        for _, i in keyed:
            yield i
        epoch += 1


def _frac_list(items):
    return [rat(Fraction(a, 10)) for a in items]


def _sub_interval(rng, point_share=0.0):
    """Sub-interval of [0, 1] in tenths; a point with the given probability."""
    if rng.random() < point_share:
        a = rng.randint(0, 10)
        return [a, a]
    a = rng.randint(0, 9)
    return [a, rng.randint(a + 1, 10)]


def _axis_points(lo, hi, resolution):
    """Sample points of one box axis: both ends plus evenly spaced interior points."""
    if lo == hi:
        return [lo]
    step = (hi - lo) / (resolution + 1)
    return sorted({lo, hi} | {lo + k * step for k in range(1, resolution + 1)})


# ---------------------------------------------------------------------------
# corpus-cli: in-process CLI calls on the exported corpus
# ---------------------------------------------------------------------------

def solution_formula(p, q):
    """The paper suite's hand-derived safety value of retry || pipeline."""
    return 1 - (Fraction(1, 10) * p * p + (p - p * p) * q)


def _box_samples(spec):
    ps = _axis_points(Fraction(spec["p"][0], 10), Fraction(spec["p"][1], 10), spec["res"])
    qs = _axis_points(Fraction(spec["q"][0], 10), Fraction(spec["q"][1], 10), spec["res"])
    return [(p, q) for p in ps for q in qs]


def _box_arg(spec, params=("p", "q")):
    return "box." + ",".join(f"{name}=[{','.join(_frac_list(spec[name]))}]" for name in params)


def corpus_specs(rng):
    specs = []
    for i in range(15):
        spec = {"kind": "check", "cls": "cmp" if rng.random() < 0.7 else "prt",
                "p": _sub_interval(rng), "q": _sub_interval(rng, 0.3),
                "res": rng.randint(2, 8)}
        low = min(solution_formula(p, q) for p, q in _box_samples(spec))
        floor = Fraction(math.floor(low * 100), 100)
        # half hold (threshold at or below the minimum), half fail (above it)
        if i % 2 == 0:
            spec["thr"] = rat(floor)
        else:
            spec["thr"] = rat(min(Fraction(1), floor + Fraction(rng.randint(1, 5), 100)))
        specs.append(spec)
    for _ in range(5):
        specs.append({"kind": "triple", "p": _sub_interval(rng), "q": _sub_interval(rng, 0.3),
                      "res": rng.randint(2, 4),
                      "thr_a": rng.choice(["1/2", "3/4", "9/10"]),
                      "thr_g": rng.choice(["1/2", "3/4", "17/20", "9/10", "19/20"])})
    for _ in range(5):
        specs.append({"kind": "monotone", "p": _sub_interval(rng), "q": _sub_interval(rng, 0.3),
                      "res": rng.randint(2, 8), "param": rng.choice(["p", "q"]),
                      "dir": rng.choice(["up", "down"])})
    for _ in range(4):
        # retry meets its assumption iff 1 - p >= thr_a on r1, so r1 stays low
        # enough for both outcomes of the first premise to occur
        specs.append({"kind": "rule-asym", "p1": [0, rng.randint(1, 4)], "p": _sub_interval(rng),
                      "q": _sub_interval(rng, 0.3), "res": rng.randint(2, 4),
                      "thr_a": rng.choice(["1/2", "3/4", "9/10"]),
                      "thr_g": rng.choice(["1/2", "3/4", "17/20", "9/10"])})
    for _ in range(3):
        specs.append({"kind": "rule-sim", "p": _sub_interval(rng),
                      "robust": rng.random() < 0.5, "res": rng.randint(2, 8)})
    for _ in range(5):
        pair = rng.choice(["composed", "pipeline", "retry", "handoff", "handoff-split"])
        spec = {"kind": "simulate", "pair": pair, "p": _sub_interval(rng),
                "res": rng.randint(2, 8)}
        if pair in ("composed", "pipeline"):
            spec["q"] = _sub_interval(rng, 0.3)
        specs.append(spec)
    for spec in specs:
        spec["stratum"] = spec["kind"]
    return specs


def run_cli(argv):
    """One in-process CLI invocation: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _cli_doc(result):
    code, out, _ = result
    if code not in (0, 1):
        return None
    return json.loads(out)


def _project_cli(kind, result):
    code, out, err = result
    doc = _cli_doc(result)
    if doc is None:
        return {"code": code, "error": err.strip()[-300:]}
    body = doc["report"]
    proj = {"code": code}
    if kind in ("check", "triple"):
        verdict = body["verdict"]
        witness = verdict.get("witness") or {}
        proj.update(status=verdict["status"], valuation=witness.get("valuation"),
                    violated=witness.get("violated"),
                    details=[d.get("valuation") for d in verdict["details"]])
    elif kind == "monotone":
        proj.update(status=body["verdict"]["status"])
    elif kind.startswith("rule"):
        proj["certificate"] = [
            {"id": c["id"], "rule": c["rule"], "status": c["status"],
             "confidence": c["confidence"],
             "premises": [[p["kind"], p["status"]] for p in c["premises"]]}
            for c in body["certificate"]
        ]
    elif kind == "simulate":
        proj.update(holds=body["holds"], relation=body["relation"])
    return proj


def _cli_exact_body(result):
    doc = _cli_doc(result)
    if doc is None:
        return None
    return {k: v for k, v in doc.items() if k != "timing"}


def _write_json(path, doc):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def corpus_prepare(specs, workdir):
    corpus_dir = os.path.join(workdir, "corpus")
    os.makedirs(os.path.join(workdir, "q"), exist_ok=True)
    os.makedirs(os.path.join(workdir, "rules"), exist_ok=True)
    composed = os.path.join(workdir, "composed.ppa.json")
    guard = os.path.join(workdir, "guard.ppa.json")
    c = lambda name: os.path.join(corpus_dir, name)  # noqa: E731
    for argv in (
        ["corpus", "--out", corpus_dir],
        ["compose", "--left", c("retry.ppa.json"), "--right", c("pipeline.ppa.json"),
         "--out", composed],
        ["compose", "--left", c("split_responder.ppa.json"),
         "--right", c("handoff_parametric.ppa.json"), "--out", guard],
    ):
        code, _, err = run_cli(argv)
        if code != 0:
            raise RuntimeError(f"set-up command {argv[0]} failed: {err.strip()}")
    with open(c("safe_guarantee.query.json"), encoding="utf-8") as fh:
        guarantee_doc = json.load(fh)
    with open(c("safe_assumption.query.json"), encoding="utf-8") as fh:
        assumption_doc = json.load(fh)

    def query(base, tag, threshold):
        path = os.path.join(workdir, "q", f"{tag}_{threshold.replace('/', '_')}.query.json")
        if not os.path.exists(path):
            doc = json.loads(json.dumps(base))
            doc["objectives"][0]["threshold"] = threshold
            _write_json(path, doc)
        return path

    models = {"composed": composed, "pipeline": c("pipeline.ppa.json"),
              "retry": c("retry.ppa.json"), "handoff": c("handoff_parametric.ppa.json")}
    requests = []
    for i, spec in enumerate(specs):
        kind = spec["kind"]
        res = str(spec["res"])
        if kind == "check":
            argv = ["check", "--model", composed,
                    "--objective", query(guarantee_doc, "g", spec["thr"]),
                    "--region", _box_arg(spec), "--resolution", res, "--class", spec["cls"]]
        elif kind == "triple":
            argv = ["triple", "--model", composed,
                    "--assumption", query(assumption_doc, "a", spec["thr_a"]),
                    "--guarantee", query(guarantee_doc, "g", spec["thr_g"]),
                    "--region", _box_arg(spec), "--resolution", res]
        elif kind == "monotone":
            argv = ["monotone", "--model", composed,
                    "--objective", query(guarantee_doc, "g", "9/10"),
                    "--region", _box_arg(spec), "--param", spec["param"],
                    "--direction", spec["dir"], "--resolution", res]
        elif kind == "rule-asym":
            a = json.loads(json.dumps(assumption_doc))
            a["objectives"][0]["threshold"] = spec["thr_a"]
            g = json.loads(json.dumps(guarantee_doc))
            g["objectives"][0]["threshold"] = spec["thr_g"]
            script = {
                "format": "pacomp/1", "type": "proof-script",
                "models": {"m1": "@" + c("retry.ppa.json"), "m2": "@" + c("pipeline.ppa.json")},
                "queries": {"A": a, "G": g},
                "regions": {
                    "r1": {"type": "box", "bounds": [["p", _frac_list(spec["p1"])]]},
                    "r2": {"type": "box", "bounds": [["p", _frac_list(spec["p"])],
                                                     ["q", _frac_list(spec["q"])]]},
                },
                "applications": [{"id": "asym", "rule": "asymmetric", "m1": "m1", "m2": "m2",
                                  "r1": "r1", "r2": "r2", "assumption": "A",
                                  "guarantee": "G", "resolution": spec["res"]}],
            }
            path = os.path.join(workdir, "rules", f"{i}.agproof.json")
            _write_json(path, script)
            argv = ["rule", "--script", path]
        elif kind == "rule-sim":
            script = {
                "format": "pacomp/1", "type": "proof-script",
                "models": {"m1": "@" + models["handoff"],
                           "m2": "@" + c("split_responder.ppa.json"),
                           "mA": "@" + models["handoff"], "mG": "@" + guard},
                "regions": {"r": {"type": "box", "bounds": [["p", _frac_list(spec["p"])]]}},
                "applications": [{"id": "sim", "rule": "simulation", "m1": "m1", "m2": "m2",
                                  "m_assume": "mA", "m_guarantee": "mG", "r1": "r", "r2": "r",
                                  "robust": spec["robust"], "resolution": spec["res"]}],
            }
            path = os.path.join(workdir, "rules", f"{i}.agproof.json")
            _write_json(path, script)
            argv = ["rule", "--script", path]
        else:
            pair = spec["pair"]
            if pair == "handoff-split":
                left, right = models["handoff"], c("split_responder.ppa.json")
            else:
                left = right = models[pair]
            params = ("p", "q") if "q" in spec else ("p",)
            argv = ["simulate", "--left", left, "--right", right, "--region",
                    _box_arg(spec, params), "--resolution", res, "--robust"]
        requests.append(Request(
            i, spec, (lambda argv=argv: run_cli(argv)),
            (lambda result, kind=kind: _project_cli(kind, result)),
            _cli_exact_body, [arg.replace(workdir, "<work>") for arg in argv],
        ))
    return requests


def corpus_oracle(spec, proj):
    """Independent answers: the paper suite's closed-form safety value for `check`."""
    if spec["kind"] != "check":
        return None
    threshold = Fraction(spec["thr"])
    failing = [(p, q) for p, q in _box_samples(spec) if solution_formula(p, q) < threshold]
    want = "fails" if failing else "holds"
    if proj.get("status") != want:
        return f"closed form says {want}, got {proj.get('status')}"
    if failing:
        got = proj.get("valuation") or {}
        first = {"p": rat(failing[0][0]), "q": rat(failing[0][1])}
        if {k: rat(Fraction(v)) for k, v in got.items()} != first:
            return f"closed form says first failing sample {first}, got {got}"
    return None


# ---------------------------------------------------------------------------
# random-lp: occupation-measure LPs of composed random PA pairs
# ---------------------------------------------------------------------------

# component size -> number of pool requests at that size.  From n = 6 on, a
# single request can exceed the request limit, so larger sizes are left out.
_LP_SIZES = {3: 10, 4: 10, 5: 5}
_LP_KINDS = (("sat", "cmp"), ("sat", "prt"), ("triple", "prt"), ("mo", "cmp"), ("mo", "prt"))


def random_lp_specs(rng):
    specs = []
    for n, count in _LP_SIZES.items():
        for _ in range(count):
            kind, cls = rng.choice(_LP_KINDS)
            specs.append({"kind": kind, "cls": cls, "n": n,
                          "gen": rng.randrange(1 << 30),
                          "thr": rng.choice(["1/4", "1/2", "3/4", "9/10"]),
                          "thr2": rng.choice(["1/4", "1/2", "3/4", "9/10"]
                                             if kind != "mo" else ["1/2", "1", "3/2", "2"]),
                          "stratum": n})
    return specs


_ONE_POINT = FiniteRegion.of([{}])


def _project_verdict(v):
    witness = v.witness or {}
    return {"status": v.status, "valuation": canon(witness.get("valuation")),
            "details": [canon(d.get("valuation")) for d in v.details]}


def random_lp_prepare(specs, workdir):
    requests = []
    for i, spec in enumerate(specs):
        rng = random.Random(spec["gen"])
        mo = spec["kind"] == "mo"
        m1 = gen.random_pa(rng, "l", spec["n"], ["a", "b"], exit_state=mo)
        m2 = gen.random_pa(rng, "r", spec["n"], ["a", "c"], exit_state=mo)
        m = model.compose(m1, m2)
        dfa1 = gen.random_safety_dfa(rng, ["a", "b", "c"], allow_empty=False)
        dfa2 = gen.random_safety_dfa(rng, ["a", "b", "c"], allow_empty=False)
        first = verify.safety(dfa1, Fraction(spec["thr"]))
        cls = spec["cls"]
        if spec["kind"] == "sat":
            inputs = (m, (first,), cls)
            call = lambda m=m, q=(first,), cls=cls: verify.region_sat(m, _ONE_POINT, q, cls)  # noqa: E731
            project = _project_verdict
        elif spec["kind"] == "triple":
            second = verify.safety(dfa2, Fraction(spec["thr2"]))
            inputs = (m, (first,), (second,), cls)
            call = (lambda m=m, a=(first,), g=(second,), cls=cls:  # noqa: E731
                    verify.ag_triple_check(m, _ONE_POINT, a, g, cls))
            project = _project_verdict
        else:
            reward = verify.reward_objective(">=", Fraction(spec["thr2"]), {"a": 1})
            inputs = (m, (first, reward), cls)
            call = lambda m=m, q=(first, reward), cls=cls: verify.mo_achievable(m, q, cls)  # noqa: E731
            project = lambda result: {"status": result[0]}  # noqa: E731
        requests.append(Request(i, spec, call, project, lambda result: result, inputs))
    return requests


def random_lp_oracle(spec, proj):
    """No closed form exists for these LPs; the recorded digest is the check."""
    return None


# ---------------------------------------------------------------------------
# robust-sim: robust compositions, vertex enumeration and simulation
# ---------------------------------------------------------------------------

def robust_specs(rng):
    # sizes keep nearly every request above a few milliseconds, so that its
    # time is long against the speed calibration around it
    specs = []
    for _ in range(21):
        specs.append({"kind": "conv", "n": rng.randint(4, 6), "gen": rng.randrange(1 << 30)})
    for _ in range(15):
        specs.append({"kind": "relax", "n": rng.randint(6, 9), "gen": rng.randrange(1 << 30)})
    for _ in range(15):
        n = rng.randint(5, 7)
        specs.append({"kind": "gen", "n": n, "sym": rng.randint(1, n - 1)})
    for _ in range(16):
        specs.append({"kind": "gen", "n": rng.randint(5, 7), "gen": rng.randrange(1 << 30)})
    for _ in range(13):
        specs.append({"kind": "sim", "n": rng.randint(20, 60), "self": rng.random() < 0.5,
                      "gen": rng.randrange(1 << 30)})
    for _ in range(23):
        specs.append({"kind": "rsim", "self": rng.random() < 0.5, "p": _sub_interval(rng),
                      "res": rng.randint(8, 24), "gen": rng.randrange(1 << 30)})
    for spec in specs:
        spec["stratum"] = spec["kind"]
    return specs


def _relation(rel):
    return None if rel is None else canon(rel)


def _conv_chain(u1, u2, objective):
    reduced = robust.pa_reduce(robust.conv_compose(u1, u2))
    return reduced, verify.safety_prob(reduced, objective)


def robust_prepare(specs, workdir):
    requests = []
    for i, spec in enumerate(specs):
        kind = spec["kind"]
        rng = random.Random(spec.get("gen", 0))
        if kind in ("conv", "relax"):
            interval = kind == "relax"
            u1 = gen.random_polytopic_rpa(rng, "l", ["a", "b"], spec["n"], interval_only=interval)
            u2 = gen.random_polytopic_rpa(rng, "r", ["a", "c"], spec["n"], interval_only=interval)
            if kind == "conv":
                obj = verify.safety(
                    gen.random_safety_dfa(rng, ["a", "b", "c"], allow_empty=False),
                    Fraction(1, 2))
                inputs = (u1, u2, obj)
                call = lambda u1=u1, u2=u2, obj=obj: _conv_chain(u1, u2, obj)  # noqa: E731
                project = lambda r: {"reduced": canon(r[0], actions=False),  # noqa: E731
                                     "safety": canon(r[1])}
            else:
                inputs = (u1, u2)
                call = lambda u1=u1, u2=u2: robust.interval_relax_compose(u1, u2)  # noqa: E731
                project = lambda r: canon(r, actions=False)  # noqa: E731
        elif kind == "gen":
            if "sym" in spec:
                uset = gen.symmetric_interval_set(spec["n"], spec["sym"])
            else:
                uset = gen.wide_interval_set(rng, spec["n"])
            inputs = (uset,)
            call = lambda uset=uset: robust.generators(uset)  # noqa: E731
            project = lambda r: sorted((canon(d) for d in r), key=_order)  # noqa: E731
        elif kind == "sim":
            left = gen.random_pa(rng, "x", spec["n"], ["a", "b"])
            right = left if spec["self"] else gen.random_pa(rng, "y", spec["n"], ["a", "b"])
            inputs = (left, right)
            call = lambda left=left, right=right: simulate.strong_sim(left, right)  # noqa: E731
            project = _relation
        else:
            left, _ = gen.random_parametric_pair(rng)
            right = left if spec["self"] else gen.random_parametric_pair(rng)[0]
            lo, hi = (Fraction(x, 10) for x in spec["p"])
            region = Box.of({"p": (lo, hi)})
            inputs = (left, right, region, spec["res"])
            call = (lambda left=left, right=right, region=region, res=spec["res"]:  # noqa: E731
                    simulate.robust_strong_sim(left, right, region, res))
            project = _relation
        requests.append(Request(i, spec, call, project, lambda result: result, inputs))
    return requests


def robust_oracle(spec, proj):
    """Independent answers: C(n, k) symmetric vertices; self-simulation holds."""
    if spec["kind"] == "gen" and "sym" in spec:
        n, k = spec["n"], spec["sym"]
        if len(proj) != math.comb(n, k):
            return f"closed form says {math.comb(n, k)} vertices, got {len(proj)}"
        want = rat(Fraction(1, k))
        for vertex in proj:
            if sorted(p for _, p in vertex) != [want] * k:
                return f"vertex {vertex} is not k entries of 1/k"
    if spec["kind"] in ("sim", "rsim") and spec["self"] and proj is None:
        return "self-simulation must hold"
    return None


# ---------------------------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    specs: Callable
    prepare: Callable
    oracle: Callable

    def pool(self):
        return self.specs(random.Random(POOL_SEEDS[self.name]))


WORKLOADS = {
    "corpus-cli": Workload("corpus-cli", corpus_specs, corpus_prepare, corpus_oracle),
    "random-lp": Workload("random-lp", random_lp_specs, random_lp_prepare, random_lp_oracle),
    "robust-sim": Workload("robust-sim", robust_specs, robust_prepare, robust_oracle),
}
