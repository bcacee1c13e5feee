import contextlib
import io
import json
import os
import random
import re
from fractions import Fraction as F
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from pacomp import cli, corpus, modelio, verify
from pacomp.algebra import Box, FiniteRegion
from pacomp.cli import main, parse_region_arg, parse_valuation_arg
from pacomp.errors import EmptyRegion, PacompError, ParseError, StrategyCapExceeded
from pacomp.model import alphabet_extend, sort_key, unit_ppa
from pacomp.proofrules import RULES, FairnessAttestation
from pacomp.report import scrub
from pacomp.robust import pa_reduce

import helpers
from helpers import (
    interleaving_arguments,
    parse_region_arg_reference,
    parse_valuation_arg_reference,
    random_pa,
    reward_sum_arguments,
    standard_setup,
)


def _write_json(path, doc):
    Path(path).write_text(json.dumps(doc))


def _read_json(path):
    return json.loads(Path(path).read_text())


class _NoInputs:
    def load(self, path):  # pragma: no cover - only hit via @file regions
        raise AssertionError("unexpected file load")


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("corpus")
    assert main(["corpus", "--out", str(out)]) == 0
    return out


def test_region_parsing():
    box = parse_region_arg("box.p=[0,0.1],q=[0,1]", _NoInputs())
    assert isinstance(box, Box)
    assert dict(box.bounds)["p"] == (F(0), F(1, 10))
    fin = parse_region_arg("finite:{p=1/10};{p=9/10}", _NoInputs())
    assert isinstance(fin, FiniteRegion)
    assert len(fin.valuations) == 2
    assert parse_valuation_arg("p=1/10,q=0.25") == {"p": F(1, 10), "q": F(1, 4)}


def test_corpus_roundtrip(corpus_dir):
    # every exported document loads and dumps back to its own bytes
    for name in os.listdir(corpus_dir):
        text = (corpus_dir / name).read_text(encoding="utf-8")
        again = modelio.dump_document(modelio.load_document(json.loads(text)))
        assert json.dumps(again, indent=2, sort_keys=True) + "\n" == text, name


def test_check_exit_codes_and_determinism(corpus_dir, tmp_path, capsys):
    comp_path = tmp_path / "composed.json"
    code, out, _ = run(
        capsys,
        "compose",
        "--left", str(corpus_dir / "retry.ppa.json"),
        "--right", str(corpus_dir / "pipeline.ppa.json"),
        "--out", str(comp_path),
    )
    assert code == 0
    args = [
        "check",
        "--model", str(comp_path),
        "--objective", str(corpus_dir / "safe_guarantee.query.json"),
        "--region", "box.p=[0,0.1],q=[0,1]",
    ]
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2  # byte-identical reports
    report = json.loads(out1)
    assert report["report"]["verdict"]["status"] == "holds"
    assert report["timing"] == {"measured": False}

    code3, out3, _ = run(
        capsys,
        "check",
        "--model", str(comp_path),
        "--objective", str(corpus_dir / "safe_guarantee.query.json"),
        "--region", "finite:{p=1/2,q=1}",
    )
    assert code3 == 1
    failing = json.loads(out3)["report"]["verdict"]
    assert failing["status"] == "fails"
    assert failing["witness"]["valuation"]["p"] == "1/2"
    # the witness strategy on the product with the guarantee's DFA: the
    # optimal policy that decided the sample, at every product state it reaches
    assert failing["witness"]["strategy"] == {
        "kind": "product-memoryless",
        "strategy_class": "cmp",
        "values": {"objective-0": "29/40"},
        "mix": {
            "((s0,t0),(ok))": {"(s0_a,t0_a)": "1"},
            "((s0,t1),(ok))": {"(s0_a,t1_a)": "1"},
            "((s0,t2),(ok))": {"(s0_c,t2_c)": "1"},
            "((s0,t3),(ok))": {"(fail,t3_f)": "1"},
            "((s0,t4),(ok))": {"(s0_b,b)": "1"},
            "((s1,t1),(ok))": {"(s1_b,b)": "1"},
            "((s1,t2),(ok))": {"(s1_b,b)": "1"},
            "((s1,t3),(ok))": {"(fail,t3_f)": "1"},
        },
        "settle": {},
        "stay": {},
    }

    # a union of two boxes that share the face p = 1/20 counts that face once
    union = tmp_path / "union.region.json"
    parts = [{"type": "box", "bounds": [["p", half], ["q", ["0", "1"]]]}
             for half in (["0", "1/20"], ["1/20", "1/10"])]
    _write_json(union, {"type": "union", "parts": parts})
    code, out, _ = run(capsys, *args[:-1], f"@{union}")
    verdict = json.loads(out)["report"]["verdict"]
    assert (code, verdict["status"], len(verdict["details"])) == (0, "holds", 15)
    # at resolution 4 the box holds at 9/10 and fails at 99/100 with a witness
    strict = tmp_path / "strict.query.json"
    _write_json(strict, _strict_guarantee(corpus_dir))
    box = ["--region", "box.p=[0,1/10],q=[0,1]", "--resolution", "4"]
    assert run(capsys, *args[:-2], *box)[0] == 0
    code, out, _ = run(capsys, "check", "--model", str(comp_path), "--objective", str(strict), *box)
    witness = json.loads(out)["report"]["verdict"]["witness"]
    assert code == 1 and witness["valuation"] == {"p": "1/50", "q": "3/5"}
    assert witness["strategy"]["kind"] == "product-memoryless"


def test_malformed_polynomial_is_usage_error(corpus_dir, tmp_path, capsys):
    doc = _read_json(corpus_dir / "retry.ppa.json")
    doc["transitions"][0]["dist"][0][1] = "1 - (2*"
    broken = tmp_path / "broken.json"
    _write_json(broken, doc)
    code, _, err = run(capsys, "instantiate", "--model", str(broken), "--valuation", "p=1/10")
    assert code == 2
    assert "position" in err
    # structurally malformed documents are format errors, not verdicts
    good = _read_json(corpus_dir / "retry.ppa.json")
    no_transitions = {k: v for k, v in good.items() if k != "transitions"}
    # so are documents that are not JSON objects at all
    for bad in (dict(good, initial="nowhere"), no_transitions, [1, 2], 7):
        _write_json(broken, bad)
        code, _, err = run(capsys, "instantiate", "--model", str(broken), "--valuation", "p=1/10")
        assert code == 2
        assert err.startswith("format error:") and "Traceback" not in err
    broken.write_bytes(b"\xff\xfe")  # not UTF-8
    code, _, err = run(capsys, "instantiate", "--model", str(broken), "--valuation", "p=1/10")
    assert code == 2 and err.startswith("format error:")
    code, _, err = run(capsys, "instantiate", "--model", str(tmp_path), "--valuation", "p=1/10")
    assert code == 2 and err.startswith("input/output error:")


def test_undeclared_parameter_is_usage_error(corpus_dir, tmp_path, capsys):
    # a parameter missing from "params" is malformed input, rejected at load
    # time: not a vacuous "holds", nor a MissingParameter when sampling
    doc = _read_json(corpus_dir / "retry.ppa.json")
    stray_q = json.loads(json.dumps(doc))
    stray_q["transitions"][0]["dist"] = [["s0", "q"], ["s1", "1 - q"]]
    query = str(corpus_dir / "safe_assumption.query.json")
    for bad, stray in ((dict(doc, params=[]), "p"), (stray_q, "q")):
        path = tmp_path / "undeclared.ppa.json"
        _write_json(path, bad)
        code, out, err = run(capsys, "check", "--model", str(path), "--objective", query,
                             "--region", "box.p=[0,1/10]")
        assert code == 2 and out == ""
        assert err == f"format error: transition probabilities use undeclared parameters ['{stray}']\n"
    # a declared parameter that the region or valuation leaves out is a
    # usage error of every command that instantiates the model
    comp = str(tmp_path / "comp.json")
    assert run(capsys, "compose", "--left", str(corpus_dir / "retry.ppa.json"),
               "--right", str(corpus_dir / "pipeline.ppa.json"), "--out", comp)[0] == 0
    guarantee, region = str(corpus_dir / "safe_guarantee.query.json"), "box.p=[0,1/10]"
    for argv in (["check", "--model", comp, "--objective", guarantee, "--region", region],
                 ["triple", "--model", comp, "--assumption", query, "--guarantee", guarantee,
                  "--region", region],
                 ["monotone", "--model", comp, "--objective", guarantee, "--region", region,
                  "--param", "p", "--direction", "up"],
                 ["instantiate", "--model", comp, "--valuation", "p=1/10"]):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, ""), argv[0]
        assert err == "error: MissingParameter: valuation missing parameters ['q']\n"


def test_internal_error_is_never_a_verdict(corpus_dir, capsys, monkeypatch):
    def broken_solver(*args, **kwargs):
        raise RuntimeError("witness failed exact re-verification")

    monkeypatch.setattr("pacomp.cli.region_sat", broken_solver)
    code, out, err = run(
        capsys,
        "check",
        "--model", str(corpus_dir / "pipeline.ppa.json"),
        "--objective", str(corpus_dir / "safe_guarantee.query.json"),
        "--region", "finite:{p=1/2,q=1}",
    )
    assert code == 4
    assert out == ""
    assert err.startswith(
        "internal error: RuntimeError: witness failed exact re-verification"
    )
    # a report value without a byte-stable form (a float other than INF, a
    # set) is a bug too, not its repr in a report
    for value, name in ((0.5, "float 0.5"), ({"q"}, "set {'q'}")):
        monkeypatch.setattr("pacomp.cli.region_sat",
                            lambda *args, value=value: verify.Verdict("holds", details=[value]))
        code, out, err = run(
            capsys,
            "check",
            "--model", str(corpus_dir / "pipeline.ppa.json"),
            "--objective", str(corpus_dir / "safe_guarantee.query.json"),
            "--region", "finite:{p=1/2,q=1}",
        )
        assert (code, out) == (4, "")
        assert err.startswith(f"internal error: TypeError: no report form for {name}\n")
    # an anchor takes no input, so one that raises is a bug, not a FAIL line,
    # even when it raises a toolkit error (which exited 2 as a usage error)
    def capped():
        raise StrategyCapExceeded("strategy enumeration exceeds cap 20000")

    for anchor, message in (
        (broken_solver, "RuntimeError: witness failed exact re-verification"),
        (capped, "StrategyCapExceeded: strategy enumeration exceeds cap 20000"),
    ):
        monkeypatch.setattr("pacomp.paper_suite._anchors", lambda a=anchor: [("broken", a)])
        code, out, err = run(capsys, "paper-suite")
        assert (code, out) == (4, "")
        assert err.startswith(f"internal error: {message}\n") and "Traceback" in err


def test_strategy_cap_is_a_usage_error(corpus_dir, tmp_path, capsys):
    # the q-grid of thirds on the composed model has more memoryless
    # strategies than verify.STRATEGY_CAP; a cap is no fault of the program
    comp = tmp_path / "comp.json"
    assert run(capsys, "compose", "--left", str(corpus_dir / "retry.ppa.json"),
               "--right", str(corpus_dir / "pipeline.ppa.json"), "--out", str(comp))[0] == 0
    # and so is a grid of denominator 10^6; both are refused by counting,
    # before any strategy is built
    for denominator in ("3", "1000000"):
        code, out, err = run(
            capsys,
            "monotone",
            "--model", str(comp),
            "--objective", str(corpus_dir / "safe_guarantee.query.json"),
            "--region", "box.p=[0,1/10],q=[0,1]",
            "--param", "q", "--direction", "down", "--class", "prt",
            "--grid-denominator", denominator,
        )
        assert (code, out) == (2, ""), denominator
        assert err == "error: StrategyCapExceeded: strategy enumeration exceeds cap 20000\n"


def test_simulate_cli(corpus_dir, capsys):
    base = [
        "simulate",
        "--left", str(corpus_dir / "handoff_fixed.ppa.json"),
        "--right", str(corpus_dir / "split_responder.ppa.json"),
        "--region", "finite:{p=1/10};{p=9/10}",
    ]
    code, out, _ = run(capsys, *base)
    assert code == 0
    code2, out2, _ = run(capsys, *base, "--robust")
    assert code2 == 1
    para = base[:]
    para[2] = str(corpus_dir / "handoff_parametric.ppa.json")
    code3, out3, _ = run(capsys, *para, "--robust")
    assert code3 == 0
    assert json.loads(out3)["report"]["relation"] == [["s0", "t0"], ["s1", "t2"]]
    # split_responder does not robustly simulate the parametric handoff
    para[2], para[4] = para[4], para[2]
    assert run(capsys, *para, "--robust")[0] == 1


def test_robust_simulate_on_an_empty_region_says_it_is_vacuous(corpus_dir, tmp_path, capsys):
    region = tmp_path / "empty.region.json"
    _write_json(region, {"type": "finite", "valuations": []})
    code, out, _ = run(
        capsys, "simulate", "--robust",
        "--left", str(corpus_dir / "handoff_fixed.ppa.json"),
        "--right", str(corpus_dir / "split_responder.ppa.json"),
        "--region", f"@{region}",
    )
    report = json.loads(out)["report"]
    assert code == 0 and report["holds"] and len(report["relation"]) == 6
    assert report["caveat"] == "region denotes no valuation; vacuously holds"


def test_rpa_pipeline_cli(corpus_dir, tmp_path, capsys):
    pair = ("--left", str(corpus_dir / "interval_retry.rpa.json"),
            "--right", str(corpus_dir / "interval_responder.rpa.json"))
    code, out, _ = run(capsys, "rpa-relax", *pair, "--out", str(tmp_path / "relaxed.json"))
    assert code == 0
    code2, out2, _ = run(
        capsys, "rpa-reduce", "--model", str(tmp_path / "relaxed.json")
    )
    assert code2 == 0
    reduced = json.loads(out2)["report"]["result"]
    assert reduced["type"] == "ppa"

    code3, out3, _ = run(
        capsys, "rpa-rule", *pair,
        "--assumption", str(_write_trivial_query(tmp_path)),
        "--guarantee", str(_write_goal_query(tmp_path, corpus_dir)),
    )
    assert code3 == 0
    assert json.loads(out3)["report"]["status"] == "concluded"

    # the convex composition reduces, through files, to a PA whose actions are
    # in sort_key order as pa_reduce builds them, not only as the loader sorts
    # them, and whose every (a, vertex) action moves by its vertex
    conv, red = tmp_path / "conv.json", tmp_path / "red.json"
    assert run(capsys, "rpa-conv", *pair, "--out", str(conv))[0] == 0
    assert run(capsys, "rpa-reduce", "--model", str(conv), "--out", str(red))[0] == 0
    loaded = modelio.load_document(_read_json(red)["report"]["result"])
    built = pa_reduce(modelio.load_document(_read_json(conv)["report"]["result"]))
    for m in (loaded, built):
        assert m.actions == tuple(sorted(m.actions, key=sort_key))
        assert all(dist == dict(vertex) for (_, (_, vertex)), dist in m.trans.items())
    assert (built.actions, built.trans) == (loaded.actions, loaded.trans)


def _write_trivial_query(tmp_path):
    from pacomp.verify import ProbObjective

    query = (ProbObjective(">=", F(0), corpus.trivial_dfa(("a", "b"))),)
    path = tmp_path / "trivial.query.json"
    _write_json(path, modelio.dump_document(query))
    return path


def _write_goal_query(tmp_path, corpus_dir):
    from pacomp.verify import safety

    query = (safety(corpus.no_c_dfa(), F(1, 10)),)
    path = tmp_path / "goal.query.json"
    _write_json(path, modelio.dump_document(query))
    return path


def _asymmetric_script(corpus_dir):
    return {
        "format": "pacomp/1",
        "type": "proof-script",
        "models": {
            "m1": "@" + str(corpus_dir / "retry.ppa.json"),
            "m2": "@" + str(corpus_dir / "pipeline.ppa.json"),
        },
        "queries": {
            "A": _read_json(corpus_dir / "safe_assumption.query.json"),
            "G": _read_json(corpus_dir / "safe_guarantee.query.json"),
        },
        "regions": {
            "r1": {"type": "box", "bounds": [["p", ["0", "1/10"]]]},
            "r2": {
                "type": "finite",
                "valuations": [
                    [["p", "0"], ["q", "0"]],
                    [["p", "0"], ["q", "1"]],
                    [["p", "1/10"], ["q", "1/2"]],
                    [["p", "1/2"], ["q", "1/2"]],
                ],
            },
        },
        "applications": [
            {
                "id": "step-1",
                "rule": "asymmetric",
                "m1": "m1",
                "m2": "m2",
                "r1": "r1",
                "r2": "r2",
                "assumption": "A",
                "guarantee": "G",
                "resolution": 2,
            }
        ],
    }


def test_rule_script_certificate(corpus_dir, tmp_path, capsys):
    script = _asymmetric_script(corpus_dir)
    path = tmp_path / "demo.agproof.json"
    _write_json(path, script)
    code, out, _ = run(capsys, "rule", "--script", str(path))
    assert code == 0
    cert = json.loads(out)["report"]["certificate"]
    assert cert[0]["status"] == "concluded"
    assert cert[0]["confidence"] == "checked-per-sample"
    assert all(p["status"] == "holds" for p in cert[0]["premises"])
    assert cert[0]["conclusion"]["region"]["type"] == "finite"

    # attested fairness variants exit with the unknown/attested-only code
    script["applications"][0]["fairness"] = {
        "sets": [["a"]],
        "notes": ["external evidence A", "external evidence B"],
    }
    _write_json(path, script)
    code2, out2, _ = run(capsys, "rule", "--script", str(path))
    assert code2 == 3
    assert json.loads(out2)["report"]["certificate"][0]["confidence"] == "attested"


def test_asymmetric_certificate_is_pinned(corpus_dir, tmp_path, capsys):
    guarantee = _read_json(corpus_dir / "safe_guarantee.query.json")["objectives"]
    conclusion = {
        "kind": "region-sat",
        "model": "m1 || m2",
        "query": guarantee,
        "region": {
            "type": "finite",
            "valuations": [
                [["p", "0"], ["q", "0"]],
                [["p", "0"], ["q", "1"]],
                [["p", "1/10"], ["q", "1/2"]],
            ],
        },
        "strategy_class": "cmp",
    }
    side_conditions = [
        "['a', 'b'] within component-1 alphabet",
        "['a', 'b', 'c', 'fail'] within component-2 alphabet plus assumption's",
    ]

    def premise(kind, description, status, attestation=None):
        return {"kind": kind, "description": description, "status": status,
                "attestation": attestation, "witness": None}

    script = _asymmetric_script(corpus_dir)
    path = tmp_path / "pinned.agproof.json"
    _write_json(path, script)
    code, out, _ = run(capsys, "rule", "--script", str(path))
    assert code == 0
    assert json.loads(out)["report"]["certificate"] == [{
        "id": "step-1",
        "rule": "asymmetric",
        "status": "concluded",
        "confidence": "checked-per-sample",
        "side_conditions": side_conditions,
        "premises": [
            premise("region-sat", "component 1 satisfies the assumption on its region", "holds"),
            premise("ag-triple", "extended component 2 satisfies assumption => guarantee",
                    "holds"),
        ],
        "conclusion": conclusion,
    }]

    script["applications"][0]["fairness"] = {"sets": [["a"]], "notes": ["ev A", "ev B"]}
    _write_json(path, script)
    code, out, _ = run(capsys, "rule", "--script", str(path))
    assert code == 3
    assert json.loads(out)["report"]["certificate"] == [{
        "id": "step-1",
        "rule": "asymmetric-fair",
        "status": "concluded",
        "confidence": "attested",
        "side_conditions": side_conditions,
        "premises": [
            premise("attested", "component 1 satisfies the assumption (fair)", "attested",
                    "ev A"),
            premise("attested", "component 2 triple assumption => guarantee (fair)",
                    "attested", "ev B"),
        ],
        "conclusion": conclusion,
    }]


def _strict_guarantee(corpus_dir, threshold="99/100"):
    """`safe_guarantee` at `threshold`; the retry/pipeline pair misses 99/100."""
    doc = _read_json(corpus_dir / "safe_guarantee.query.json")
    doc["objectives"][0]["threshold"] = threshold
    return doc


def test_failing_rpa_rule_carries_the_premise_witness(corpus_dir, tmp_path, capsys):
    guarantee = tmp_path / "strict.query.json"
    _write_json(guarantee, _strict_guarantee(corpus_dir))
    code, out, _ = run(
        capsys,
        "rpa-rule",
        "--left", str(corpus_dir / "interval_retry.rpa.json"),
        "--right", str(corpus_dir / "interval_responder.rpa.json"),
        "--assumption", str(_write_trivial_query(tmp_path)),
        "--guarantee", str(guarantee),
    )
    assert code == 1
    report = json.loads(out)["report"]
    assert (report["status"], report["conclusion"]) == ("premise-failed", None)
    failed = [p for p in report["premises"] if p["status"] == "fails"]
    assert [p["kind"] for p in failed] == ["ag-triple"]
    assert set(failed[0]["witness"]) == {"valuation", "violated", "strategy"}


def test_rule_exit_code_puts_a_failure_before_an_attestation(corpus_dir, tmp_path, capsys):
    script = _asymmetric_script(corpus_dir)
    script["queries"]["G"] = _strict_guarantee(corpus_dir)
    failing = script["applications"][0]
    attested = dict(failing, id="step-2",
                    fairness={"sets": [["a"]], "notes": ["ev A", "ev B"]})
    script["applications"].append(attested)
    path = tmp_path / "mixed.agproof.json"
    _write_json(path, script)
    code, out, _ = run(capsys, "rule", "--script", str(path))
    cert = json.loads(out)["report"]["certificate"]
    assert [(c["status"], c["confidence"]) for c in cert] == [
        ("premise-failed", "checked-per-sample"), ("concluded", "attested")]
    assert code == 1

_MALFORMED_SCRIPTS = {
    "application-not-an-object": lambda s: s.update(applications=[5]),
    "models-not-an-object": lambda s: s.update(models=["x"]),
    "box-without-bounds": lambda s: s["regions"].update(r1={"type": "box"}),
    "resolution-not-an-integer": lambda s: s["applications"][0].update(resolution="abc"),
    "resolution-zero": lambda s: s["applications"][0].update(resolution=0),
    "fairness-not-an-object": lambda s: s["applications"][0].update(fairness=["x"]),
    "fairness-note-missing": lambda s: s["applications"][0].update(
        fairness={"sets": [["a"]], "notes": ["external evidence A"]}
    ),
}


@pytest.mark.parametrize("case", sorted(_MALFORMED_SCRIPTS))
def test_malformed_proof_script_is_usage_error(case, corpus_dir, tmp_path, capsys):
    script = _asymmetric_script(corpus_dir)
    _MALFORMED_SCRIPTS[case](script)
    path = tmp_path / "malformed.agproof.json"
    _write_json(path, script)
    code, out, err = run(capsys, "rule", "--script", str(path))
    assert code == 2 and out == ""
    assert err.startswith("format error:") and "Traceback" not in err


def _monotonicity_script(corpus_dir):
    script = _asymmetric_script(corpus_dir)
    queries = script["queries"]
    queries["AG"] = dict(queries["G"], objectives=queries["G"]["objectives"]
                         + queries["A"]["objectives"])
    script["applications"] = [{
        "id": "mono", "rule": "monotonicity", "m1": "m1", "m2": "m2",
        "r1": "r2", "r2": "r2", "objective": "A", "param": "p", "direction": "down",
    }]
    return script


_UNRESOLVABLE_ARGUMENTS = {
    "unknown-model": (_asymmetric_script, "m1", "nosuch"),
    "query-as-model": (_asymmetric_script, "m2", "A"),
    "unknown-query": (_asymmetric_script, "assumption", "nosuch"),
    "number-as-region": (_asymmetric_script, "r1", 5),
    "inline-region-object": (
        _asymmetric_script, "r1", {"type": "box", "bounds": [["p", ["0", "1/10"]]]}
    ),
    "unparsable-region-text": (_asymmetric_script, "r2", "nosuch"),
    "sideways-direction": (_monotonicity_script, "direction", "sideways"),
    "number-as-parameter": (_monotonicity_script, "param", 3),
    "two-objective-query": (_monotonicity_script, "objective", "AG"),
}


@pytest.mark.parametrize("case", sorted(_UNRESOLVABLE_ARGUMENTS))
def test_unresolvable_script_argument_is_usage_error(case, corpus_dir, tmp_path, capsys):
    build, key, value = _UNRESOLVABLE_ARGUMENTS[case]
    script = build(corpus_dir)
    app = script["applications"][0]
    app[key] = value
    path = tmp_path / "unresolvable.agproof.json"
    _write_json(path, script)
    code, out, err = run(capsys, "rule", "--script", str(path))
    assert code == 2 and out == ""
    assert err.startswith("format error: proof script:") and "Traceback" not in err
    assert f"application {app['id']!r} argument {key!r}" in err


def test_monotonicity_script_with_valid_arguments_runs(corpus_dir, tmp_path, capsys):
    script = _monotonicity_script(corpus_dir)
    path = tmp_path / "mono.agproof.json"
    _write_json(path, script)
    code, out, _ = run(capsys, "rule", "--script", str(path))
    assert code in (0, 1)
    assert json.loads(out)["report"]["certificate"][0]["id"] == "mono"
    # a parameter the samples do not assign is an input error, not a crash
    script["applications"][0]["param"] = "zzz"
    _write_json(path, script)
    code, out, err = run(capsys, "rule", "--script", str(path))
    assert code == 2 and out == ""
    assert "MissingParameter" in err and "'zzz'" in err
    # at p = 0 retry's s0_a moves to s1 surely, so no sample of r1 preserves
    # the graph and the premise has nothing to check
    script["applications"][0].update(param="p", r1="finite:{p=0}")
    _write_json(path, script)
    code, out, err = run(capsys, "rule", "--script", str(path))
    assert (code, out) == (2, "")
    assert err == "error: NotGraphPreserving: no graph-preserving sample in the region\n"


def test_monotonicity_script_on_an_empty_region_is_vacuous(corpus_dir, tmp_path, capsys):
    script = _monotonicity_script(corpus_dir)
    script["regions"]["r2"] = {"type": "finite", "valuations": []}
    path = tmp_path / "mono-empty.agproof.json"
    _write_json(path, script)
    code, out, err = run(capsys, "rule", "--script", str(path))
    assert code == 0 and err == ""
    (application,) = json.loads(out)["report"]["certificate"]
    assert application["status"] == "concluded"
    assert [p["status"] for p in application["premises"]] == ["holds", "holds"]


def _rule_script(rule, args):
    """A proof script applying `rule` to the library arguments `args`: each
    model, region and query declared under its argument's name (a list's
    entries under the name and their index), every other value inline."""
    script = {"type": "proof-script", "models": {}, "regions": {}, "queries": {}}
    app = {"id": rule, "rule": rule}
    for name, value in args.items():
        kind = RULES[rule][1].get(name, "pos")
        if isinstance(value, FairnessAttestation):
            app[name] = {"sets": [list(s) for s in value.fairness_sets],
                         "notes": list(value.notes)}
        elif type(kind) is list:
            app[name] = [f"{name}{i}" for i in range(len(value))]
            script[kind[0]].update(zip(app[name], map(modelio.dump_document, value)))
        elif kind in script:
            app[name] = name
            script[kind][name] = modelio.dump_document(value)
        else:
            app[name] = modelio._encode(value, kind)
    script["applications"] = [app]
    return script


def _new_row_arguments():
    """Arguments of the script rows added after the first ones: asym-n with
    three components, interleaving and reward-sum, each also as its fair
    variant."""
    m1, m2, A, G, r1, r2 = standard_setup()
    unit = alphabet_extend(unit_ppa(), {"a", "c", "fail"})
    chain = dict(models=[m1, m2, unit], regions=[r1, r2, r2], assumptions=[A, G],
                 guarantee=G, resolution=2)
    interleave = dict(zip(RULES["interleaving"][1], interleaving_arguments()))
    rewards = dict(zip(RULES["reward-sum"][1], reward_sum_arguments()), cmp="<=")

    def fair(n):
        return FairnessAttestation((("a",),), tuple(f"note {i + 1}" for i in range(n)))

    return {
        "asym-n": ("asym-n", chain, 0),
        "asym-n-fair": ("asym-n", dict(chain, fairness=fair(3)), 3),
        "interleaving": ("interleaving", interleave, 0),
        "interleaving-fair": ("interleaving", dict(interleave, fairness=fair(2)), 3),
        "reward-sum": ("reward-sum", rewards, 0),
        "reward-sum-fair": ("reward-sum", dict(rewards, fairness=fair(2)), 3),
    }


@pytest.mark.parametrize("case", ["asym-n", "asym-n-fair", "interleaving", "interleaving-fair",
                                  "reward-sum", "reward-sum-fair"])
def test_new_script_rows_certify_as_the_library_call(case, tmp_path, capsys):
    rule, args, exit_code = _new_row_arguments()[case]
    path = tmp_path / "row.agproof.json"
    _write_json(path, _rule_script(rule, args))
    code, out, err = run(capsys, "rule", "--script", str(path))
    assert (code, err) == (exit_code, "")
    expected = {"id": rule, **scrub(cli._certificate(RULES[rule][0](**args)))}
    assert json.loads(out)["report"]["certificate"] == [json.loads(json.dumps(expected))]


@pytest.mark.parametrize("field, value, message", [
    ("regions", ["regions0", "regions1"], "error: SideConditionError: the chained rule needs "
     "one region per component and n-1 assumptions"),
    ("models", "models0", "format error: proof script: application 'asym-n' argument "
     "'models' at $.applications[0].models: expected a list, got 'models0'"),
    ("fairness", {"notes": ["note 1", "note 2"]}, "format error: proof script: application "
     "'asym-n' argument 'fairness' at $.applications[0].fairness: rule 'asym-n' needs 3 "
     "fairness notes, got 2"),  # one note per component, checked at decode
])
def test_asym_n_lists_must_fit_the_chain(field, value, message, tmp_path, capsys):
    rule, args, _ = _new_row_arguments()["asym-n"]
    script = _rule_script(rule, args)
    script["applications"][0][field] = value
    path = tmp_path / "misfit.agproof.json"
    _write_json(path, script)
    assert run(capsys, "rule", "--script", str(path)) == (2, "", message + "\n")


@pytest.mark.parametrize("rewards, message", [
    ([["a", "1"], ["a", "2"]], "$.applications[0].rw1: names symbol 'a' twice"),
    ([["x", "0"], ["a", "-1/2"]], "$.applications[0].rw1[1]: the reward -1/2 of 'a' is negative"),
])
def test_reward_sum_maps_decode_as_objective_rewards(rewards, message, tmp_path, capsys):
    script = _rule_script(*_new_row_arguments()["reward-sum"][:2])
    script["applications"][0]["rw1"] = rewards
    path = tmp_path / "rewards.agproof.json"
    _write_json(path, script)
    assert run(capsys, "rule", "--script", str(path)) == (
        2, "", f"format error: proof script: application 'reward-sum' argument 'rw1' at {message}\n")


def test_asym_n_row_of_two_is_the_asymmetric_row(corpus_dir, tmp_path, capsys):
    script = _asymmetric_script(corpus_dir)
    step = script["applications"][0]
    script["applications"].append({
        "id": "chain", "rule": "asym-n", "models": ["m1", "m2"], "regions": ["r1", "r2"],
        "assumptions": ["A"], "guarantee": "G", "resolution": step["resolution"]})
    path = tmp_path / "chain.agproof.json"
    _write_json(path, script)
    code, out, _ = run(capsys, "rule", "--script", str(path))
    direct, chained = json.loads(out)["report"]["certificate"]
    assert code == 0 and (direct.pop("id"), chained.pop("id")) == ("step-1", "chain")
    assert direct == chained and direct["status"] == "concluded"


def test_extend_symbols_are_stripped_names(corpus_dir, capsys):
    model = str(corpus_dir / "pipeline.ppa.json")
    for symbols, blank in (("a,,z", 1), ("", 0), (" ", 0), ("b, ", 1)):
        code, out, err = run(capsys, "extend", "--model", model, "--symbols", symbols)
        assert (code, out) == (2, ""), symbols
        assert err.startswith(f"format error: --symbols[{blank}]: ") and "non-empty" in err, symbols
    reports = [run(capsys, "extend", "--model", model, "--symbols", symbols)
               for symbols in ("b,z", " b , z ")]
    assert reports[0] == reports[1] and reports[0][0] == 0


def test_resolution_must_be_positive(corpus_dir, capsys):
    check = [
        "check",
        "--model", str(corpus_dir / "pipeline.ppa.json"),
        "--objective", str(corpus_dir / "safe_guarantee.query.json"),
    ]
    simulate = [
        "simulate",
        "--left", str(corpus_dir / "handoff_fixed.ppa.json"),
        "--right", str(corpus_dir / "split_responder.ppa.json"),
    ]
    monotone = [
        "monotone", *check[1:], "--region", "box.p=[0,1],q=[0,1]", "--param", "q",
        "--direction", "down",
    ]
    project = [
        "project",
        "--left", str(corpus_dir / "retry.ppa.json"),
        "--right", str(corpus_dir / "pipeline.ppa.json"),
        "--strategy", str(corpus_dir / "retry.ppa.json"),
        "--side", "2",
    ]
    # the grid denominator ran as 1 when below it, and a negative horizon
    # was written into the projected strategy; each option is rejected
    # before any file is read
    cases = [(check, "--resolution", ("0", "-1", "abc")),
             (simulate, "--resolution", ("0", "-1", "abc")),
             (monotone, "--grid-denominator", ("0", "-2", "abc")),
             (project, "--horizon", ("-3", "abc"))]
    for argv, option, bads in cases:
        for bad in bads:
            code, out, err = run(capsys, *argv, option, bad)
            assert code == 2 and out == ""
            assert f"argument {option}: " in err and "Traceback" not in err


@pytest.mark.parametrize(
    "option, value, named",
    [
        ("--valuation", "p", "'p'"),
        ("--region", "finite:{p}", "'p'"),
        pytest.param("--region", "box.p=[0,1],,", "$.bounds[1]: expected a list, got ''",
                     id="--region-box.p=[0,1],,-bounds[1]"),
        pytest.param("--region", "box.p=[0]", "$.bounds[0][1]: expected a list of 2 items",
                     id="--region-box.p=[0]-bounds[0][1]"),
    ],
)
def test_malformed_valuation_and_region_items_are_usage_errors(
    corpus_dir, capsys, option, value, named
):
    model = str(corpus_dir / "handoff_parametric.ppa.json")
    if option == "--valuation":
        with pytest.raises(ParseError, match=re.escape(named)):
            parse_valuation_arg(value)
        argv = ["instantiate", "--model", model, "--valuation", value]
    else:
        with pytest.raises(ParseError, match=re.escape(named)):
            parse_region_arg(value, _NoInputs())
        query = str(corpus_dir / "safe_guarantee.query.json")
        argv = ["check", "--model", model, "--objective", query, "--region", value]
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("format error:") and named in err


@pytest.mark.parametrize(
    "region, message",
    [
        ("box.p=[0,1/10],p=[1/2,1]", "$.bounds: box names parameter 'p' twice"),
        ("finite:{p=1/10,p=1/2}", "$.valuations[0]: valuation names parameter 'p' twice"),
        ("box.", "$.bounds: a box region needs at least one axis"),
    ],
    ids=["box-text-repeat", "finite-text-repeat", "box-text-empty"],
)
def test_region_dropping_an_axis_or_a_value_is_usage_error(corpus_dir, capsys, region, message):
    # each of these used to be checked on a smaller region than written:
    # the last interval or value of a repeated name, or no valuation at all
    # (a vacuous "holds" for a model with parameter p); the documents they
    # stand for are rows of _MALFORMED
    code, out, err = run(capsys, "check", "--model", str(corpus_dir / "retry.ppa.json"),
                         "--objective", str(corpus_dir / "safe_assumption.query.json"),
                         "--region", region)
    assert (code, out) == (2, "")
    assert err == f"format error: {message}\n"


@pytest.mark.parametrize(
    "region, message",
    [
        ("box.p=[0,1/2],[q=[0,1]", "$.bounds[1][0]: expected an identifier, got '[q'"),
        ("finite:{p=1/2,=3}", "$.valuations[0][1][0]: expected an identifier, got ''"),
    ],
    ids=["box-text", "finite-text"],
)
def test_region_naming_a_non_identifier_is_usage_error(corpus_dir, capsys, region, message):
    # no polynomial can name such a parameter, so a verdict over it would
    # say nothing about the model
    code, out, err = run(capsys, "check", "--model", str(corpus_dir / "retry.ppa.json"),
                         "--objective", str(corpus_dir / "safe_assumption.query.json"),
                         "--region", region)
    assert (code, out) == (2, "")
    assert err == f"format error: {message}\n" and "Traceback" not in err


# Region and valuation text against the parsers it had before it decoded
# through the shape table (tests/helpers): generated texts, and texts with up
# to four characters deleted, inserted or replaced.
_TEXT_CHARS = "[]{}=,;:./0123456789pq "
_bound = st.sampled_from(["0", "1", "1/2", "1/10", "0.25", " 3/4 ", "2", "1/0", "x"])
_name = st.sampled_from(["p", "q", "r1", " p ", ""])
_interval = st.lists(_bound, min_size=2, max_size=2) | st.lists(_bound, max_size=3)
_axis = st.builds(lambda name, bounds: f"{name}=[{','.join(bounds)}]", _name, _interval)
_box_text = st.builds(lambda head, axes, tail: head + ",".join(axes) + tail,
                      st.sampled_from(["box.", "box:", " box."]), st.lists(_axis, max_size=3),
                      st.sampled_from(["", ",", " "]))
_valuation_text = st.lists(st.builds("{}={}".format, _name, _bound), max_size=3).map(",".join)
_finite_text = st.lists(_valuation_text.map(lambda v: "{" + v + "}"), min_size=1, max_size=3).map(
    lambda vals: "finite:" + ";".join(vals))


@st.composite
def _mutated(draw, texts):
    text = draw(texts)
    for _ in range(draw(st.integers(0, 4))):
        i = draw(st.integers(0, len(text)))
        op, ch = draw(st.sampled_from(["delete", "insert", "replace"])), draw(
            st.sampled_from(_TEXT_CHARS))
        keep = text[i + 1:] if op != "insert" else text[i:]
        text = text[:i] + ("" if op == "delete" else ch) + keep
    return text


def _outcome(parse, text):
    """What `parse` returns for `text`, or the class of the error it raises."""
    try:
        return parse(text)
    except PacompError as exc:
        return type(exc)


def _reference_outcome(parse, text):
    """`_outcome` of a reference parser, which took any string as a parameter
    name and raised EmptyRegion for a box interval with lower > upper.  Both
    are ParseErrors now: a name that is not an identifier as the text
    decodes, before an error the reference found in building the region from
    the names it read, and a reversed interval at the box's bounds."""
    names = []

    def named(pairs, what):
        names.extend(name for name, _ in pairs)
        return named_reference(pairs, what)

    named_reference = helpers._named_reference
    with mock.patch.object(helpers, "_named_reference", named):
        got = _outcome(parse, text)
    if any(not (name.isidentifier() and name.isascii()) for name in names):
        return ParseError
    return ParseError if got is EmptyRegion else got


def _exits_2_quietly(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert (code, out.getvalue()) == (2, ""), (argv, err.getvalue())
    assert "Traceback" not in err.getvalue(), argv


@settings(max_examples=300)
@given(text=_mutated(_box_text | _finite_text))
@example(text="box.p=[0,1],,")
@example(text="box.p=[0,1],")
@example(text="box.[p=[0,1]")
@example(text="box.a],b[=[0,1]")
@example(text="box.]p=[0,1]")
@example(text="finite:{p=1,,q=2}")
@example(text="finite:{p=1};")
@example(text="box.p=[1,0]")
@example(text="box.p=[0,1/2],[q=[0,1]")
@example(text="finite:{p=1/2,=3}")
def test_region_text_decodes_as_the_reference_parser(corpus_dir, text):
    got = _outcome(lambda t: parse_region_arg(t, None), text)
    assert got == _reference_outcome(lambda t: parse_region_arg_reference(t, None), text)
    if isinstance(got, type) and text:  # an empty --region is the default region
        _exits_2_quietly(["check", "--model", str(corpus_dir / "retry.ppa.json"),
                          "--objective", str(corpus_dir / "safe_assumption.query.json"),
                          "--region=" + text])


@settings(max_examples=200)
@given(text=_mutated(_valuation_text))
@example(text="p=1,,q=2")
@example(text="p=1,p=2")
@example(text="p")
@example(text="p=1,=2")
@example(text="p q=1")
def test_valuation_text_decodes_as_the_reference_parser(corpus_dir, text):
    got = _outcome(parse_valuation_arg, text)
    assert got == _reference_outcome(parse_valuation_arg_reference, text)
    if isinstance(got, type):
        _exits_2_quietly(["instantiate", "--model", str(corpus_dir / "retry.ppa.json"),
                          "--valuation=" + text])


def test_wrong_document_kind_is_usage_error(corpus_dir, tmp_path, capsys):
    ppa = str(corpus_dir / "retry.ppa.json")
    rpa = str(corpus_dir / "interval_retry.rpa.json")
    query = str(_write_goal_query(tmp_path, corpus_dir))
    to_rpa = [
        ["rpa-reduce", "--model", ppa],
        ["rpa-conv", "--left", ppa, "--right", rpa],
        ["rpa-relax", "--left", rpa, "--right", ppa],
        ["rpa-compose", "--left", ppa, "--right", rpa],
        ["rpa-rule", "--left", ppa, "--right", rpa, "--assumption", query,
         "--guarantee", query],
    ]
    for argv in to_rpa:
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err == "format error: expected an rpa document, got ppa\n"
    code, out, err = run(capsys, "simulate", "--left", rpa, "--right", ppa)
    assert code == 2 and out == ""
    assert err == "format error: expected a ppa document, got rpa\n"


def _compose_corpus(corpus_dir, tmp_path):
    path = str(tmp_path / "composed.ppa.json")
    assert main(["compose", "--left", str(corpus_dir / "retry.ppa.json"),
                 "--right", str(corpus_dir / "pipeline.ppa.json"), "--out", path]) == 0
    return path


def test_empty_query_under_check_is_usage_error(corpus_dir, tmp_path, capsys):
    composed = _compose_corpus(corpus_dir, tmp_path)
    empty = str(tmp_path / "empty.query.json")
    _write_json(empty, {"format": "pacomp/1", "type": "mo-query", "objectives": []})
    guarantee = str(corpus_dir / "safe_guarantee.query.json")
    region = ["--region", "finite:{p=1/2,q=1}"]
    for argv in (["check", "--model", composed, "--objective", empty],
                 ["triple", "--model", composed, "--assumption", guarantee, "--guarantee", empty]):
        code, out, err = run(capsys, *argv, *region)
        assert code == 2 and out == ""
        assert err == f"format error: {empty}: the query to check has no objectives\n"
    # an empty assumption stays legal: the triple then checks its guarantee alone
    code, out, _ = run(capsys, "triple", "--model", composed, "--assumption", empty,
                       "--guarantee", guarantee, *region)
    assert code == 1 and json.loads(out)["report"]["verdict"]["status"] == "fails"


def _reward_query(tmp_path, reward, threshold="0"):
    path = str(tmp_path / "reward.query.json")
    objective = {"kind": "reward", "cmp": ">=", "threshold": threshold,
                 "rewards": [["a", reward]]}
    _write_json(path, {"format": "pacomp/1", "type": "mo-query", "objectives": [objective]})
    return path


def test_negative_reward_is_usage_error(corpus_dir, tmp_path, capsys):
    retry = str(corpus_dir / "retry.ppa.json")
    # a negative constant is rejected at load time, with its JSON path
    negative = _reward_query(tmp_path, "-1", threshold="-1")
    code, out, err = run(capsys, "check", "--model", retry, "--objective", negative,
                         "--region", "finite:{p=1/2}")
    assert (code, out) == (2, "")
    assert err == "format error: $.objectives[0].rewards[0]: the reward -1 of 'a' is negative\n"
    # a parametric reward is checked at every sample, before the first solve
    code, out, err = run(capsys, "check", "--model", retry,
                         "--objective", _reward_query(tmp_path, "p - 1/2"),
                         "--region", "finite:{p=1};{p=1/4}")
    assert (code, out) == (2, "")
    assert err == ("error: SideConditionError: the reward of 'a' is negative at the sample "
                   "{'p': Fraction(1, 4)}\n")
    _, _, err = run(capsys, "check", "--model", retry,
                    "--objective", _reward_query(tmp_path, "p - 1/2"), "--region", "finite:{p=1}")
    assert "negative" not in err


# Malformed documents, each a valid document with the value at one JSON path
# replaced (`_mutated`), and the exact stderr of the command that reads it:
# repeats in a list read as a set or a map (one of two values was dropped, or
# `tau` listed a state twice), fields that contradict each other (one was
# dropped), identifiers that are not one (true was the same state key as 1),
# uncertainty sets that are none (an infeasible interval exited 2 as an
# InfeasibleIntervalSet), a missing or wrong format tag (both loaded as
# pacomp/1), an undeclared accepting state (the query held), and regions that
# would be checked smaller than written or over a parameter no polynomial names.
_DOCUMENTS = {
    "memoryless": {"format": "pacomp/1", "type": "strategy", "kind": "memoryless",
                   "choice": [["s", [["x", "1"]]]]},
    "tabular": {"format": "pacomp/1", "type": "strategy", "kind": "tabular", "horizon": 1,
                "table": [[["s"], [["x", "1"]]]]},
    "reward": {"format": "pacomp/1", "type": "mo-query", "objectives": [
        {"kind": "reward", "cmp": ">=", "threshold": "0", "rewards": [["a", "1"]]}]},
    "box": {"format": "pacomp/1", "type": "box", "bounds": [["p", ["0", "1/10"]]]},
    "finite": {"format": "pacomp/1", "type": "finite", "valuations": [[["p", "1/10"]]]},
}
_ONE_STATE_DFA = {"format": "pacomp/1", "type": "dfa", "states": [0], "initial": 0,
                  "alphabet": ["a"], "accepting": [], "transitions": [[0, "a", 0]]}
_RETRY, _RPA, _ASSUME = "retry.ppa.json", "interval_retry.rpa.json", "safe_assumption.query.json"
_DFA = ("objectives", 0, "dfa")
_ONE_SET = "rpa transition needs exactly one of 'interval' and 'vertices'"
_NO_ID = (("true", True), ("false", False), ("float", 1.0), ("null", None), ("list", []),
          ("untagged object", {"x": "1"}))
# "group: case" -> (document: a corpus file or a key of _DOCUMENTS, path,
# replacement, message), or (region text, None, None, message); each group is
# one test below, and a case its id
_MALFORMED = {
    "key twice: ppa dist": (_RETRY, ("transitions", 0, "dist", 1, 0), "s0",
                        "$.transitions[0].dist: names successor 's0' twice"),
    "key twice: ppa transitions": (_RETRY, ("transitions", 2, "action"), "s0_b",
                               "$.transitions: names transition ('s0', 's0_b') twice"),
    "key twice: rpa transitions": (_RPA, ("transitions", 1, "action"), "s1_b",
                               "$.transitions: names transition ('s1', 's1_b') twice"),
    "key twice: interval": (_RPA, ("transitions", 0, "interval", 1, 0), "s0",
                        "$.transitions[0].interval: names successor 's0' twice"),
    "key twice: vertices": (_RPA, ("transitions", 1, "vertices", 0), [["s1", "1"], ["s1", "0"]],
                        "$.transitions[1].vertices[0]: names successor 's1' twice"),
    "key twice: dfa transitions": (_ASSUME, (*_DFA, "transitions", 3, 1), "a",
                               "$.objectives[0].dfa.transitions: names transition (0, 'a') twice"),
    "key twice: rewards": ("reward", ("objectives", 0, "rewards"), [["a", "1"], ["a", "2"]],
                       "$.objectives[0].rewards: names symbol 'a' twice"),
    "key twice: choice": ("memoryless", ("choice",), [["s", [["x", "1"]]], ["s", [["x", "1"]]]],
                      "$.choice: names state 's' twice"),
    "key twice: choice dist": ("memoryless", ("choice", 0, 1), [["x", "1/2"], ["x", "1/2"]],
                           "$.choice[0][1]: names action 'x' twice"),
    "key twice: table": ("tabular", ("table",), [[["s"], [["x", "1"]]], [["s"], [["x", "1"]]]],
                     "$.table: names history ('s',) twice"),
    "key twice: table dist": ("tabular", ("table", 0, 1), [["x", "1/2"], ["x", "1/2"]],
                          "$.table[0][1]: names action 'x' twice"),
    "set twice: ppa states": (_RETRY, ("states",), ["s0", "s1", "s1"],
                          "$.states: names state 's1' twice"),
    "set twice: ppa states int and rational": (_RETRY, ("states",), ["s0", "s1", 1, {"q": "1"}],
                                           "$.states: names state Fraction(1, 1) twice"),
    "set twice: ppa params": (_RETRY, ("params",), ["p", "p"],
                              "$.params: names parameter 'p' twice"),
    "set twice: ppa alphabet": (_RETRY, ("alphabet",), ["a", "b", "c", "b"],
                            "$.alphabet: names symbol 'b' twice"),
    "set twice: rpa states": (_RPA, ("states",), ["s0", "s1", "s0"],
                          "$.states: names state 's0' twice"),
    "set twice: rpa alphabet": (_RPA, ("alphabet",), ["a", "a", "b"],
                            "$.alphabet: names symbol 'a' twice"),
    "set twice: dfa states": (_ASSUME, (*_DFA, "states"), [0, 1, "over", 1],
                          "$.objectives[0].dfa.states: names state 1 twice"),
    "set twice: dfa alphabet": (_ASSUME, (*_DFA, "alphabet"), ["a", "b", "a"],
                            "$.objectives[0].dfa.alphabet: names symbol 'a' twice"),
    "set twice: dfa accepting": (_ASSUME, (*_DFA, "accepting"), ["over", "over"],
                             "$.objectives[0].dfa.accepting: names accepting state 'over' twice"),
    "region: box-json-repeat": ("box", ("bounds",), [["p", ["0", "1/10"]], ["p", ["1/2", "1"]]],
                                "$.bounds: box names parameter 'p' twice"),
    "region: finite-json-repeat": ("finite", ("valuations",),
                                   [[["p", "1/10"]], [["p", "1/10"], ["p", "1/2"]]],
                                   "$.valuations[1]: valuation names parameter 'p' twice"),
    "region: box-json-no-axis": ("box", ("bounds",), [],
                                 "$.bounds: a box region needs at least one axis"),
    "region: box-json-bracket": ("box", ("bounds",), [["p", ["0", "1/2"]], ["[q", ["0", "1"]]],
                                 "$.bounds[1][0]: expected an identifier, got '[q'"),
    "region: box-json-empty-name": ("box", ("bounds", 0, 0), "",
                                    "$.bounds[0][0]: expected an identifier, got ''"),
    "region: box-json-reversed": ("box", ("bounds", 0, 1), ["1", "0"],
                                  "$.bounds: box interval for 'p' has lower > upper"),
    "region: box-text-reversed": ("box.p=[1,0]", None, None,
                                  "$.bounds: box interval for 'p' has lower > upper"),
    "contradiction: rpa both sets": (_RPA, ("transitions", 0, "vertices"), [[["s0", "1"]]],
                                     f"$.transitions[0]: {_ONE_SET}"),
    "contradiction: rpa no set": (_RPA, ("transitions", 0, "interval"), "<delete>",
                                  f"$.transitions[0]: {_ONE_SET}"),
    "contradiction: prob objective with rewards": (
        _ASSUME, ("objectives", 0, "rewards"), [["a", "1"]],
        "$.objectives[0]: fields 'dfa' and 'rewards' exclude each other"),
    "contradiction: reward objective with dfa": (
        "reward", ("objectives", 0, "dfa"), _ONE_STATE_DFA,
        "$.objectives[0]: fields 'rewards' and 'dfa' exclude each other"),
    "contradiction: memoryless strategy with table": (
        "memoryless", ("table",), [], "fields 'choice' and 'table' exclude each other"),
    "contradiction: tabular strategy with choice": (
        "tabular", ("choice",), [], "fields 'table' and 'choice' exclude each other"),
    "rpa set: reversed bounds": (_RPA, ("transitions", 0, "interval"),
                                 [["s0", ["1/2", "1/4"]], ["s1", ["1/2", "1"]]],
                                 "$.transitions[0].interval: bad bounds for 's0': [1/2,1/4]"),
    "rpa set: infeasible interval": (_RPA, ("transitions", 0, "interval"),
                                     [["s0", ["0", "1/4"]], ["s1", ["0", "1/4"]]],
                                     "$.transitions[0].interval: interval bounds admit no "
                                     "distribution"),
    "rpa set: not a distribution": (_RPA, ("transitions", 1, "vertices"),
                                    [[["s1", "1"]], [["s1", "1/2"]]],
                                    "$.transitions[1].vertices[1]: not a distribution: "
                                    "{'s1': Fraction(1, 2)}"),
    "rpa set: no vertex": (_RPA, ("transitions", 1, "vertices"), [],
                           "$.transitions[1].vertices: vertex set must be nonempty"),
    **{f"format tag {kind}: {case}": (doc, ("format",), value, problem)
       for kind, doc in (("mo-query", _ASSUME), ("strategy", "memoryless"))
       for case, value, problem in (
           ("pacomp/9", "pacomp/9", "$.format: expected one of ['pacomp/1'], got 'pacomp/9'"),
           ("missing", "<delete>", "$.format: missing field 'format'"))},
    "dfa accepting: undeclared state": (
        "safe_guarantee.query.json", (*_DFA, "accepting"), ["zz"],
        "$.objectives[0].dfa: DFA accepting state not declared: 'zz'"),
    **{f"identifier: {site}-{name}": (_RETRY, path, value,
                                      f"{where}: expected an identifier, got {value!r}")
       for site, path, where in (("states", ("states", 1), "$.states[1]"),
                                 ("initial", ("initial",), "$.initial"),
                                 ("dist", ("transitions", 0, "dist", 0, 0),
                                  "$.transitions[0].dist[0][0]"))
       for name, value in _NO_ID},
}


def _malformed(group):
    rows = {key.split(": ", 1)[1]: row for key, row in _MALFORMED.items()
            if key.startswith(f"{group}: ")}
    return pytest.mark.parametrize("row", rows.values(), ids=rows)


def _exits_2_at_its_path(row, corpus_dir, tmp_path, capsys):
    name, path, value, message = row
    mutant, kind, region = str(tmp_path / "mutant.json"), "region", name
    if path is not None:  # else `name` is region text, given to --region as written
        doc = _DOCUMENTS[name] if name in _DOCUMENTS else _read_json(corpus_dir / name)
        _write_json(mutant, _mutated(doc, path, value))
        kind = {"box": "region", "finite": "region"}.get(doc["type"], doc["type"])
        region = "@" + mutant
    retry = str(corpus_dir / _RETRY)
    argv = {
        "ppa": ["tau", "--model", mutant],
        "rpa": ["rpa-reduce", "--model", mutant],
        "mo-query": ["check", "--model", retry, "--objective", mutant,
                     "--region", "finite:{p=1/2}"],
        "strategy": ["project", "--left", retry, "--right", str(corpus_dir / "pipeline.ppa.json"),
                     "--strategy", mutant, "--valuation", "p=1/10,q=1/10", "--side", "2"],
        "region": ["check", "--model", retry, "--objective", str(corpus_dir / _ASSUME),
                   "--region", region],
    }[kind]
    assert run(capsys, *argv) == (2, "", f"format error: {message}\n")


@_malformed("key twice")
def test_a_key_named_twice_is_a_format_error(row, corpus_dir, tmp_path, capsys):
    _exits_2_at_its_path(row, corpus_dir, tmp_path, capsys)


@_malformed("set twice")
def test_a_set_entry_named_twice_is_a_format_error(row, corpus_dir, tmp_path, capsys):
    _exits_2_at_its_path(row, corpus_dir, tmp_path, capsys)


@_malformed("contradiction")
def test_contradictory_fields_are_usage_errors(row, corpus_dir, tmp_path, capsys):
    _exits_2_at_its_path(row, corpus_dir, tmp_path, capsys)


@_malformed("identifier")
def test_an_identifier_is_a_string_an_integer_or_tagged(row, corpus_dir, tmp_path, capsys):
    _exits_2_at_its_path(row, corpus_dir, tmp_path, capsys)


@_malformed("rpa set")
def test_bad_rpa_sets_are_format_errors_at_their_path(row, corpus_dir, tmp_path, capsys):
    _exits_2_at_its_path(row, corpus_dir, tmp_path, capsys)


@_malformed("region")
def test_a_region_document_is_a_format_error_at_its_path(row, corpus_dir, tmp_path, capsys):
    _exits_2_at_its_path(row, corpus_dir, tmp_path, capsys)


@pytest.mark.parametrize("kind", ["mo-query", "strategy"])
def test_query_and_strategy_documents_need_the_format_tag(kind, corpus_dir, tmp_path, capsys):
    for key, row in _MALFORMED.items():
        if key.startswith(f"format tag {kind}: "):
            _exits_2_at_its_path(row, corpus_dir, tmp_path, capsys)


def test_dfa_accepting_an_undeclared_state_is_usage_error(corpus_dir, tmp_path, capsys):
    _exits_2_at_its_path(_MALFORMED["dfa accepting: undeclared state"], corpus_dir, tmp_path,
                         capsys)


def test_reward_over_an_undeclared_parameter_is_usage_error(corpus_dir, tmp_path, capsys):
    retry = str(corpus_dir / "retry.ppa.json")
    stray = _reward_query(tmp_path, "2*r")
    message = f"format error: {stray}: $.objectives[0].rewards use undeclared parameters ['r']\n"
    safe = str(corpus_dir / "safe_assumption.query.json")
    region = ["--region", "box.p=[0,1]"]
    for argv in (["check", "--objective", stray],
                 ["triple", "--assumption", stray, "--guarantee", safe],
                 ["triple", "--assumption", safe, "--guarantee", stray]):
        assert run(capsys, argv[0], "--model", retry, *argv[1:], *region) == (2, "", message)


def test_empty_guarantee_under_a_rule_is_usage_error(corpus_dir, tmp_path, capsys):
    empty = {"format": "pacomp/1", "type": "mo-query", "objectives": []}
    _write_json(tmp_path / "empty.query.json", empty)
    message = "error: SideConditionError: a guarantee query must have at least one objective\n"
    code, out, err = run(
        capsys, "rpa-rule",
        "--left", str(corpus_dir / "interval_retry.rpa.json"),
        "--right", str(corpus_dir / "interval_responder.rpa.json"),
        "--assumption", str(_write_trivial_query(tmp_path)),
        "--guarantee", str(tmp_path / "empty.query.json"),
    )
    assert (code, out, err) == (2, "", message)
    # a proof script's asymmetric guarantee, and the second guarantee of a conjunction
    conjunction = {"id": "conj", "rule": "conjunction", "m": "m1", "r1": "r1", "r2": "r1",
                   "a1": "A", "g1": "A", "a2": "A", "g2": "E"}
    for application in (dict(_asymmetric_script(corpus_dir)["applications"][0], guarantee="E"),
                        conjunction):
        script = _asymmetric_script(corpus_dir)
        script["queries"]["E"] = empty
        script["applications"] = [application]
        path = tmp_path / "empty-guarantee.agproof.json"
        _write_json(path, script)
        assert run(capsys, "rule", "--script", str(path)) == (2, "", message)


_COMMAND_NAMES = (
    "compose", "instantiate", "extend", "tau", "prune", "product", "check", "triple",
    "monotone", "project", "simulate", "rule", "rpa-compose", "rpa-conv", "rpa-relax",
    "rpa-reduce", "rpa-rule", "paper-suite", "corpus",
)


def test_top_level_help_lists_every_command(capsys):
    code, out, _ = run(capsys, "--help")
    assert code == 0
    listed = [line.split()[0] for line in out.split("--help):\n", 1)[1].splitlines()]
    assert listed == list(_COMMAND_NAMES)
    for name in _COMMAND_NAMES:
        code, out, _ = run(capsys, name, "--help")
        assert code == 0 and out.startswith(f"usage: pacomp {name} ")


def test_in_process_calls_of_one_command_share_no_options(corpus_dir, tmp_path, capsys):
    # each command's parser is built once per process; an option given to one
    # call (`--out`, `--help`) must not reach the next call of that command
    assert cli._parser("check") is cli._parser("check")
    argv = ["check", "--model", str(corpus_dir / "retry.ppa.json"),
            "--objective", str(corpus_dir / "safe_assumption.query.json"),
            "--region", "finite:{p=1/10}"]
    out_path = tmp_path / "first.json"
    code, out, _ = run(capsys, *argv, "--out", str(out_path))
    assert code == 0 and out == ""
    written = out_path.read_text(encoding="utf-8")
    code, out, _ = run(capsys, *argv)
    assert code == 0 and out == written  # to stdout: no --out carried over
    code, out, _ = run(capsys, "check", "--help")
    assert code == 0 and out.startswith("usage: pacomp check ")
    code, out, _ = run(capsys, *argv, "--class", "prt")
    assert code == 0 and json.loads(out)["report"]["verdict"]["status"] == "holds"
    assert out != written  # the strategy class is part of the report
    code, again, _ = run(capsys, *argv)
    assert code == 0 and again == written  # default --class cmp again


def test_usage_errors_exit_2_with_nothing_on_stdout(capsys):
    for argv, named in (
        ((), "command"),
        (("nosuch",), "invalid choice: 'nosuch'"),
        (("tau", "--model", "nosuch.ppa.json"), "missing input: "),
        (("check", "--model", "m.json"), "--objective"),
        (("monotone", "--model", "m.json", "--objective", "q.json", "--param", "p",
          "--direction", "up"), "--region"),
        (("triple", "--model", "m.json", "--assumption", "a.json", "--guarantee", "g.json",
          "--class", "zz"), "invalid choice: 'zz'"),
    ):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "", argv
        assert named in err and "Traceback" not in err, argv


# Single-field mutations of valid documents: a seeded sample of at most 50
# fields per document, each dropped or replaced by a seeded pick of these
# values.  None of them may exit 4.
_REPLACEMENTS = ("<delete>", None, True, 0, -1, 2.5, "", "zz", "1/0", [], {}, [[]])


def _field_paths(doc, prefix=()):
    if not isinstance(doc, (dict, list)):
        return
    for key, value in doc.items() if isinstance(doc, dict) else enumerate(doc):
        yield prefix + (key,)
        yield from _field_paths(value, prefix + (key,))


def _mutated(doc, path, value):
    doc = json.loads(json.dumps(doc))
    node = doc
    for key in path[:-1]:
        node = node[key]
    if value == "<delete>":
        del node[path[-1]]
    else:
        node[path[-1]] = value
    return doc


@pytest.fixture(scope="module")
def mutation_cases(corpus_dir, tmp_path_factory):
    """(name -> (a valid document, the argv that reads it from `mutant`), `mutant`)."""
    def load(name):
        return _read_json(corpus_dir / name)

    workdir = tmp_path_factory.mktemp("mutations")
    composed = workdir / "composed.ppa.json"
    assert main(["compose", "--left", str(corpus_dir / "retry.ppa.json"),
                 "--right", str(corpus_dir / "pipeline.ppa.json"), "--out", str(composed)]) == 0
    guarantee = str(corpus_dir / "safe_guarantee.query.json")
    script = _asymmetric_script(corpus_dir)
    script["applications"][0].update(
        resolution=1, fairness={"sets": [["a"]], "notes": ["ev A", "ev B"]}
    )
    mutant = str(workdir / "mutant.json")
    cases = {
        "retry": (load("retry.ppa.json"), [
            "check", "--model", mutant, "--objective",
            str(corpus_dir / "safe_assumption.query.json"), "--region", "finite:{p=1/10}"]),
        "guarantee": (load("safe_guarantee.query.json"), [
            "check", "--model", str(composed), "--objective", mutant,
            "--region", "finite:{p=1/10,q=1/2}"]),
        "dfa": (load("no_fail.dfa.json"), [
            "product", "--model", str(composed), "--dfa", mutant]),
        "interval-rpa": (load("interval_retry.rpa.json"), ["rpa-reduce", "--model", mutant]),
        "vertex-rpa": (load("two_point_responder.rpa.json"), ["rpa-reduce", "--model", mutant]),
        "box": ({"type": "box", "bounds": [["p", ["0", "1/10"]], ["q", ["0", "1"]]]}, [
            "check", "--model", str(composed), "--objective", guarantee,
            "--region", "@" + mutant]),
        "script": (script, ["rule", "--script", mutant]),
    }
    return cases, mutant


def _never_exits_4(capsys, doc, argv, mutant, mutations):
    """Run argv on `doc` with each (path, value) of `mutations` applied."""
    for path, value in mutations:
        doc = _mutated(doc, path, value)
    with open(mutant, "w") as fh:
        json.dump(doc, fh)
    code, out, err = run(capsys, *argv)
    assert code != 4, (mutations, err)
    if code == 2:
        assert out == "" and "Traceback" not in err, (mutations, err)


def test_single_field_mutations_never_exit_4(mutation_cases, capsys):
    cases, mutant = mutation_cases
    rng = random.Random(2408)
    runs = 0
    for name, (doc, argv) in cases.items():
        paths = list(_field_paths(doc))
        for path in rng.sample(paths, min(len(paths), 50)):
            _never_exits_4(capsys, doc, argv, mutant, [(path, rng.choice(_REPLACEMENTS))])
            runs += 1
    assert runs > 250


@settings(max_examples=400, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_two_field_mutations_never_exit_4(mutation_cases, capsys, data):
    # a document with two faults reports the first in document order; either
    # may be any fault, and neither may make a bug of the other
    cases, mutant = mutation_cases
    doc, argv = cases[data.draw(st.sampled_from(sorted(cases)))]
    paths = list(_field_paths(doc))
    first = data.draw(st.sampled_from(paths))
    second = data.draw(st.sampled_from(
        [p for p in paths if p[:len(first)] != first and first[:len(p)] != p]))
    # the later path first, so that deleting a list item shifts no other path
    mutations = [(path, data.draw(st.sampled_from(_REPLACEMENTS)))
                 for path in sorted((first, second), reverse=True)]
    _never_exits_4(capsys, doc, argv, mutant, mutations)


def test_timing_is_measured_for_every_command(corpus_dir, tmp_path, capsys):
    script = tmp_path / "demo.agproof.json"
    _write_json(script, _asymmetric_script(corpus_dir))
    for argv in (
        ["compose", "--left", str(corpus_dir / "retry.ppa.json"),
         "--right", str(corpus_dir / "pipeline.ppa.json")],
        ["rpa-reduce", "--model", str(corpus_dir / "interval_retry.rpa.json")],
        ["rule", "--script", str(script)],
    ):
        code, plain, _ = run(capsys, *argv)
        timed_code, timed, _ = run(capsys, *argv, "--timing")
        assert code == timed_code == 0
        timing = json.loads(timed).pop("timing")
        assert json.loads(plain).pop("timing") == {"measured": False}
        assert set(timing) == {"seconds"} and timing["seconds"] >= 0
        assert {k: v for k, v in json.loads(timed).items() if k != "timing"} == \
            {k: v for k, v in json.loads(plain).items() if k != "timing"}


def test_paper_suite_cli(tmp_path, capsys):
    code, out, _ = run(capsys, "paper-suite", "--out", str(tmp_path / "suite.json"))
    assert code == 0
    *lines, last = out.splitlines()
    assert lines and all(l.startswith("PASS ") for l in lines)
    # the line CI greps from the installed script, and README quotes
    assert last == "29/29 anchors pass"
    saved = _read_json(tmp_path / "suite.json")
    assert all(r["pass"] for r in saved["report"]["results"])


def test_project_and_triple_cli(corpus_dir, tmp_path, capsys):
    strategy_path = tmp_path / "sigma.json"
    from pacomp.model import compose, instantiate

    composed = instantiate(
        compose(
            modelio.load_document(_read_json(corpus_dir / "retry.ppa.json")),
            modelio.load_document(_read_json(corpus_dir / "pipeline.ppa.json")),
        ),
        {"p": F(1, 10), "q": F(1, 10)},
    )
    sigma = corpus.priority_strategy(composed)
    _write_json(strategy_path, modelio.dump_document(sigma))
    code, out, _ = run(
        capsys,
        "project",
        "--left", str(corpus_dir / "retry.ppa.json"),
        "--right", str(corpus_dir / "pipeline.ppa.json"),
        "--strategy", str(strategy_path),
        "--valuation", "p=1/10,q=1/10",
        "--side", "2",
        "--horizon", "4",
    )
    assert code == 0
    table = json.loads(out)["report"]["result"]["table"]
    first = dict((tuple(k) if isinstance(k, list) else k, dict(v)) for k, v in table)
    assert first[("t0",)] == {"t0_a": "1"}

    code2, _, _ = run(
        capsys,
        "triple",
        "--model", str(corpus_dir / "pipeline.ppa.json"),
        "--assumption", str(corpus_dir / "safe_assumption.query.json"),
        "--guarantee", str(corpus_dir / "safe_guarantee.query.json"),
        "--region", "finite:{p=1/10,q=1/2}",
    )
    assert code2 == 2  # assumption alphabet {a,b} exceeds the bare pipeline's

    # on the composed pair's box, policy iteration on the negated guarantee
    # answers every sample, so the triple holds with no LP solved; at 19/20
    # it fails with a witness strategy from the LP
    triple = ["triple", "--model", _compose_corpus(corpus_dir, tmp_path),
              "--assumption", str(corpus_dir / "safe_assumption.query.json"),
              "--region", "box.p=[0,1/10],q=[0,1]", "--resolution", "4"]
    with mock.patch.object(verify._MoQuery, "_lp_solve", side_effect=AssertionError) as lp:
        code, out, _ = run(capsys, *triple,
                           "--guarantee", str(corpus_dir / "safe_guarantee.query.json"))
    assert (code, lp.call_count) == (0, 0)
    verdict = json.loads(out)["report"]["verdict"]
    assert (verdict["status"], len(verdict["details"])) == ("holds", 36)
    guarantee = tmp_path / "guarantee_19_20.query.json"
    _write_json(guarantee, _strict_guarantee(corpus_dir, "19/20"))
    code, out, _ = run(capsys, *triple, "--guarantee", str(guarantee))
    witness = json.loads(out)["report"]["verdict"]["witness"]
    assert code == 1 and witness["valuation"] == {"p": "3/50", "q": "1"}
    assert witness["strategy"]["kind"] == "product-memoryless"


@pytest.mark.parametrize(
    "defect",
    ["disabled action", "disabled action in a table", "total above one", "negative mass",
     "empty history", "negative horizon"],
)
def test_project_rejects_an_invalid_strategy(corpus_dir, tmp_path, capsys, defect):
    from pacomp.model import compose, instantiate
    from pacomp.semantics import MemorylessStrategy, TabularStrategy

    left, right = (
        modelio.load_document(_read_json(corpus_dir / name))
        for name in ("retry.ppa.json", "pipeline.ppa.json")
    )
    composed = instantiate(compose(left, right), {"p": F(1, 10), "q": F(1, 10)})
    choice = {s: dict(d) for s, d in corpus.priority_strategy(composed).choice.items()}
    s = composed.initial
    (a, _), = choice[s].items()
    if defect.startswith("disabled action"):
        other = next(x for t in composed.states for x in composed.enabled(t)
                     if x not in composed.enabled(s))
        choice[s] = {other: F(1)}
    elif defect == "total above one":
        other = next(x for x in composed.enabled(s) if x != a)
        choice[s] = {a: F(1), other: F(1)}
    elif defect == "negative mass":
        choice[s] = {a: F(-1, 2)}
    sigma = MemorylessStrategy(choice)
    if defect == "disabled action in a table":
        sigma = TabularStrategy({(s,): choice[s]}, horizon=2)
    elif defect == "empty history":
        sigma = TabularStrategy({(): {a: F(1)}}, horizon=2)
    elif defect == "negative horizon":
        sigma = TabularStrategy({(s,): {a: F(1)}}, horizon=-3)
    strategy_path = tmp_path / "sigma.json"
    _write_json(strategy_path, modelio.dump_document(sigma))
    code, out, err = run(
        capsys,
        "project",
        "--left", str(corpus_dir / "retry.ppa.json"),
        "--right", str(corpus_dir / "pipeline.ppa.json"),
        "--strategy", str(strategy_path),
        "--valuation", "p=1/10,q=1/10",
        "--side", "2",
    )
    assert code == 2 and out == ""
    assert err.startswith("format error:") and "Traceback" not in err
    # a malformed history or horizon fails at load, with its JSON path; the
    # rest are checked against the composed model and name the strategy file
    where = {"empty history": "$.table[0]: ", "negative horizon": "$.horizon: "}.get(
        defect, f"{strategy_path}: ")
    assert where in err


# `project` projects the strategy it reads: a memoryless strategy is walked to
# `--horizon + 1` steps like any other, not first cut to a `--horizon` table.
# The seeds 0-3 stay as fixed cases; four more are drawn by hypothesis, each
# example writing its own files over the last one's.
@pytest.mark.parametrize("seed", range(4))
def test_project_cli_projects_a_memoryless_strategy_as_given(tmp_path, capsys, seed):
    _check_project_memoryless(tmp_path, capsys, seed)


@settings(max_examples=4, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(seed=st.integers(0, 2**32))
def test_project_cli_projects_a_drawn_memoryless_strategy_as_given(tmp_path, capsys, seed):
    _check_project_memoryless(tmp_path, capsys, seed)


def _check_project_memoryless(tmp_path, capsys, seed):
    from pacomp.model import compose
    from pacomp.semantics import MemorylessStrategy, strategy_project

    rng = random.Random(seed)
    left = random_pa(rng, "x", 3, ["a", "b"])
    right = random_pa(rng, "y", 3, ["b", "c"])
    composed = compose(left, right)
    choice = {}
    for s in composed.states:
        weights = {a: rng.randint(1, 3) for a in composed.enabled(s)}
        if weights:
            choice[s] = {a: F(w, sum(weights.values())) for a, w in weights.items()}
    sigma = MemorylessStrategy(choice)
    paths = {}
    for name, doc in (("left", left), ("right", right), ("sigma", sigma)):
        paths[name] = tmp_path / f"{name}.json"
        _write_json(paths[name], modelio.dump_document(doc))
    for side in (1, 2):
        for horizon in (2, 3):
            code, out, _ = run(
                capsys, "project", "--left", str(paths["left"]), "--right", str(paths["right"]),
                "--strategy", str(paths["sigma"]), "--side", str(side),
                "--horizon", str(horizon),
            )
            assert code == 0
            expected = modelio.dump_document(strategy_project(composed, sigma, side, horizon))
            assert json.loads(out)["report"]["result"] == json.loads(json.dumps(expected))


def test_region_and_strategy_documents_roundtrip():
    from pacomp.algebra import Box, FiniteRegion, RegionUnion

    union = RegionUnion.of(
        [Box.of({"p": (0, F(1, 4))}), FiniteRegion.of([{"p": F(1, 2)}])]
    )
    doc = modelio.dump_document(union)
    back = modelio.load_document(doc)
    assert modelio.dump_document(back) == doc


def test_rule_script_simulation_with_robust_flag(corpus_dir, tmp_path, capsys):
    from pacomp.model import compose

    m2 = modelio.load_document(_read_json(corpus_dir / "split_responder.ppa.json"))
    para = modelio.load_document(
        _read_json(corpus_dir / "handoff_parametric.ppa.json")
    )
    guard = compose(m2, para)
    script = {
        "format": "pacomp/1",
        "type": "proof-script",
        "models": {
            "m1": "@" + str(corpus_dir / "handoff_parametric.ppa.json"),
            "m2": "@" + str(corpus_dir / "split_responder.ppa.json"),
            "mA": "@" + str(corpus_dir / "handoff_parametric.ppa.json"),
            "mG": modelio.dump_document(guard),
        },
        "regions": {
            "r": {
                "type": "finite",
                "valuations": [[["p", "1/10"]], [["p", "9/10"]]],
            }
        },
        "applications": [
            {
                "rule": "simulation",
                "m1": "m1",
                "m2": "m2",
                "m_assume": "mA",
                "m_guarantee": "mG",
                "r1": "r",
                "r2": "r",
                "robust": True,
            }
        ],
    }
    path = tmp_path / "sim.agproof.json"
    _write_json(path, script)
    code, out, _ = run(capsys, "rule", "--script", str(path))
    assert code == 0
    cert = json.loads(out)["report"]["certificate"][0]
    assert cert["rule"] == "simulation-ag-robust-strong"
    assert cert["status"] == "concluded"


def test_check_partial_strategy_class(corpus_dir, tmp_path, capsys):
    from pacomp.model import dfa_forbid_symbols
    from pacomp.verify import safety

    narrow = (safety(dfa_forbid_symbols({"fail"}, {"a", "c", "fail"}), F(9, 10)),)
    query_path = tmp_path / "narrow.query.json"
    _write_json(query_path, modelio.dump_document(narrow))
    codes = []
    for cls in ("prt", "cmp"):
        code, _, _ = run(
            capsys,
            "check",
            "--model", str(corpus_dir / "pipeline.ppa.json"),
            "--objective", str(query_path),
            "--region", "finite:{p=1/10,q=1/10}",
            "--class", cls,
        )
        codes.append(code)
    # safety verdicts agree across strategy classes
    assert codes[0] == codes[1] == 0


def test_structural_commands_produce_loadable_results(corpus_dir, tmp_path, capsys):
    # extend -> tau -> prune -> product chain, each output loadable
    code, out, _ = run(
        capsys,
        "extend",
        "--model", str(corpus_dir / "pipeline.ppa.json"),
        "--symbols", "b",
        "--out", str(tmp_path / "ext.json"),
    )
    assert code == 0
    code, out, _ = run(
        capsys, "tau", "--model", str(tmp_path / "ext.json"),
        "--out", str(tmp_path / "tau.json"),
    )
    assert code == 0
    code, out, _ = run(
        capsys, "prune", "--model", str(tmp_path / "tau.json"),
    )
    assert code == 0
    pruned = json.loads(out)["report"]["result"]
    assert pruned["type"] == "ppa"
    code, out, _ = run(
        capsys,
        "product",
        "--model", str(tmp_path / "ext.json"),  # extension covers the 'b' symbol
        "--dfa", str(corpus_dir / "no_c.dfa.json"),
    )
    assert code == 0
    body = json.loads(out)["report"]
    assert body["bad_states"]
    assert len(body["result"]["states"]) == 5 * 2


def test_monotone_cli(corpus_dir, tmp_path, capsys):
    from pacomp.model import dfa_forbid_symbols
    from pacomp.verify import reward_objective, safety

    narrow = (safety(dfa_forbid_symbols({"fail"}, {"a", "c", "fail"}), 1),)
    query_path = tmp_path / "mono.query.json"
    _write_json(query_path, modelio.dump_document(narrow))
    base = [
        "monotone",
        "--model", str(corpus_dir / "pipeline.ppa.json"),
        "--objective", str(query_path),
        "--region", "box.p=[0,1],q=[0,1]",
        "--param", "q",
    ]
    code, out, _ = run(capsys, *base, "--direction", "down")
    assert code == 0
    assert json.loads(out)["report"]["verdict"]["caveat"].startswith("per enumerated")
    code2, out2, _ = run(capsys, *base, "--direction", "up")
    assert code2 == 1
    witness = json.loads(out2)["report"]["verdict"]["witness"]
    assert witness["value_low"] != witness["value_high"]
    # a reward symbol outside the model's alphabet is an input error
    stray = (reward_objective(">=", 0, {"zz": 1}),)
    _write_json(query_path, modelio.dump_document(stray))
    code3, out3, err3 = run(capsys, *base, "--direction", "up")
    assert (code3, out3) == (2, "") and err3.startswith("error: AlphabetMismatch: ")
    # the check takes one objective
    _write_json(query_path, modelio.dump_document(narrow + narrow))
    code4, out4, err4 = run(capsys, *base, "--direction", "up")
    assert (code4, out4) == (2, "")
    assert err4 == "format error: monotonicity checks take a single-objective query\n"


def test_monotone_without_a_pair_to_compare_says_it_is_vacuous(corpus_dir, tmp_path, capsys):
    # no two samples differ in p alone: one valuation, or p a point interval
    base = ["monotone", "--model", _compose_corpus(corpus_dir, tmp_path),
            "--objective", str(corpus_dir / "safe_guarantee.query.json"),
            "--param", "p", "--direction", "up"]
    for region in ("finite:{p=1/10,q=1/2}", "box.p=[1/10,1/10],q=[0,1]"):
        code, out, err = run(capsys, *base, "--region", region)
        assert code == 0 and err == ""
        verdict = json.loads(out)["report"]["verdict"]
        assert verdict["status"] == "holds"
        assert verdict["caveat"] == "no two samples differ in 'p' alone; vacuously holds"


# Full report bytes of three region runs on the composed corpus model,
# recorded before each region check built its product once and refilled only
# the coefficients per sample.  The check passes 9 samples, including the
# non-graph-preserving p = 0 corner, and fails at p = 1/8, q = 1.  The rule,
# rpa-rule, rpa-reduce and compose reports were recorded before proof scripts
# and documents were checked by one decoder in `modelio`; the simulate,
# product, project, instantiate, extend, tau, prune and rpa-compose/-conv/-relax
# reports before every command became a row of one command table in `cli`; the
# interval rpa-conv and rpa-reduce reports before interval vertices, convex
# products and the PA-reduction's action order moved to integer numerators.
_GOLDEN_REGION = "box.p=[0,1/2],q=[1/5,1]"
_GOLDEN_RUNS = {
    "check_prt_box.json": (1, [
        "check", "--model", "composed.ppa.json", "--objective", "safe_guarantee.query.json",
        "--region", _GOLDEN_REGION, "--resolution", "3", "--class", "prt",
    ]),
    "triple_box.json": (1, [
        "triple", "--model", "composed.ppa.json", "--assumption", "safe_assumption.query.json",
        "--guarantee", "safe_guarantee.query.json", "--region", _GOLDEN_REGION,
        "--resolution", "3",
    ]),
    "monotone_p_up_box.json": (1, [
        "monotone", "--model", "composed.ppa.json", "--objective", "safe_guarantee.query.json",
        "--region", _GOLDEN_REGION, "--param", "p", "--direction", "up", "--resolution", "3",
    ]),
    "rule_fair_asym_and_sim.json": (3, ["rule", "--script", "golden.agproof.json"]),
    "rpa_rule_interval.json": (0, [
        "rpa-rule", "--left", "interval_retry.rpa.json", "--right", "interval_responder.rpa.json",
        "--assumption", "trivial.query.json", "--guarantee", "goal.query.json",
    ]),
    "rpa_reduce_two_point.json": (0, ["rpa-reduce", "--model", "two_point_responder.rpa.json"]),
    "rpa_reduce_interval.json": (0, ["rpa-reduce", "--model", "interval_responder.rpa.json"]),
    "compose_guard.json": (0, [
        "compose", "--left", "split_responder.ppa.json", "--right", "handoff_parametric.ppa.json",
    ]),
    "simulate_finite.json": (0, [
        "simulate", "--left", "handoff_fixed.ppa.json", "--right", "split_responder.ppa.json",
        "--region", "finite:{p=1/10};{p=9/10}",
    ]),
    "simulate_robust_box.json": (0, [
        "simulate", "--robust", "--left", "handoff_parametric.ppa.json",
        "--right", "split_responder.ppa.json", "--region", "box.p=[1/10,9/10]",
        "--resolution", "2",
    ]),
    "product_no_fail.json": (0, [
        "product", "--model", "composed.ppa.json", "--dfa", "no_fail.dfa.json",
    ]),
    "project_side_2.json": (0, [
        "project", "--left", "retry.ppa.json", "--right", "pipeline.ppa.json",
        "--strategy", "sigma.json", "--valuation", "p=1/10,q=1/10", "--side", "2",
        "--horizon", "3",
    ]),
    "instantiate_handoff.json": (0, [
        "instantiate", "--model", "handoff_parametric.ppa.json", "--valuation", "p=1/10",
    ]),
    "extend_pipeline_b.json": (0, [
        "extend", "--model", "pipeline.ppa.json", "--symbols", "b,z",
    ]),
    "tau_retry.json": (0, ["tau", "--model", "retry.ppa.json"]),
    "prune_guard.json": (0, ["prune", "--model", "guard.ppa.json"]),
    "rpa_compose_interval.json": (0, [
        "rpa-compose", "--left", "interval_retry.rpa.json", "--right", "interval_responder.rpa.json",
    ]),
    "rpa_conv_interval.json": (0, [
        "rpa-conv", "--left", "interval_retry.rpa.json", "--right", "interval_responder.rpa.json",
    ]),
    "rpa_conv_half_two_point.json": (0, [
        "rpa-conv", "--left", "half_retry.rpa.json", "--right", "two_point_responder.rpa.json",
    ]),
    "rpa_relax_interval.json": (0, [
        "rpa-relax", "--left", "interval_retry.rpa.json", "--right", "interval_responder.rpa.json",
    ]),
}
# an attested asymmetric application and a robust simulation application,
# with models and queries by file, regions inline, by name and as text
_GOLDEN_SCRIPT = {
    "format": "pacomp/1",
    "type": "proof-script",
    "models": {"m1": "@retry.ppa.json", "m2": "@pipeline.ppa.json",
               "h": "@handoff_parametric.ppa.json", "s": "@split_responder.ppa.json",
               "g": "@guard.ppa.json"},
    "queries": {"A": "@safe_assumption.query.json", "G": "@safe_guarantee.query.json"},
    "regions": {"r1": {"type": "box", "bounds": [["p", ["0", "1/10"]]]},
                "r": {"type": "finite", "valuations": [[["p", "1/10"]], [["p", "9/10"]]]}},
    "applications": [
        {"id": "asym-fair", "rule": "asymmetric", "m1": "m1", "m2": "m2", "r1": "r1",
         "r2": "box.p=[0,1/2],q=[1/5,1]", "assumption": "A", "guarantee": "G",
         "resolution": 2, "fairness": {"sets": [["a"]], "notes": ["ev A", "ev B"]}},
        {"id": "sim", "rule": "simulation", "m1": "h", "m2": "s", "m_assume": "h",
         "m_guarantee": "g", "r1": "r", "r2": "r", "robust": True},
    ],
}
_GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")


def _write_golden_inputs(workdir):
    """Write every input of `_GOLDEN_RUNS` into `workdir`, the current directory."""
    from pacomp.model import compose, instantiate

    assert main(["corpus", "--out", "."]) == 0
    assert main(["compose", "--left", "retry.ppa.json", "--right", "pipeline.ppa.json",
                 "--out", "composed.ppa.json"]) == 0
    assert main(["compose", "--left", "split_responder.ppa.json",
                 "--right", "handoff_parametric.ppa.json", "--out", "guard.ppa.json"]) == 0
    _write_trivial_query(workdir)
    _write_goal_query(workdir, workdir)
    with open("golden.agproof.json", "w", encoding="utf-8") as fh:
        json.dump(_GOLDEN_SCRIPT, fh, indent=2, sort_keys=True)
    left, right = (modelio.load_document(_read_json(name))
                   for name in ("retry.ppa.json", "pipeline.ppa.json"))
    sigma = corpus.priority_strategy(instantiate(compose(left, right),
                                                 {"p": F(1, 10), "q": F(1, 10)}))
    with open("sigma.json", "w", encoding="utf-8") as fh:
        json.dump(modelio.dump_document(sigma), fh)


@pytest.mark.parametrize("name", sorted(_GOLDEN_RUNS))
def test_region_reports_match_golden_bytes(name, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)  # the reports name their inputs by relative path
    _write_golden_inputs(tmp_path)
    capsys.readouterr()
    expected_code, argv = _GOLDEN_RUNS[name]
    code, out, _ = run(capsys, *argv)
    with open(os.path.join(_GOLDEN_DIR, name), encoding="utf-8") as fh:
        expected = fh.read()
    assert code == expected_code
    assert out == expected
    if name == "check_prt_box.json":
        verdict = json.loads(out)["report"]["verdict"]
        assert verdict["witness"]["valuation"] == {"p": "1/8", "q": "1"}
        assert len(verdict["details"]) == 9
        assert verdict["details"][0]["valuation"] == [["p", "0"], ["q", "1/5"]]

