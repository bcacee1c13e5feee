import json
import os
import random
import re
from fractions import Fraction as F

import pytest

from pacomp import corpus, modelio
from pacomp.algebra import Box, FiniteRegion
from pacomp.cli import main, parse_region_arg, parse_valuation_arg
from pacomp.errors import ParseError


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
    for name in os.listdir(corpus_dir):
        doc = json.load(open(corpus_dir / name))
        obj = modelio.load_document(doc)
        assert modelio.dump_document(obj) == doc


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
    # the witness strategy on the product with the guarantee's DFA
    assert failing["witness"]["strategy"] == {
        "kind": "product-memoryless",
        "strategy_class": "cmp",
        "values": {"objective-0": "29/40"},
        "mix": {
            "((s0,t0),(ok))": {"(s0_a,t0_a)": "1"},
            "((s0,t1),(ok))": {"(s0_a,t1_a)": "1"},
            "((s0,t2),(ok))": {"(s0_c,t2_c)": "1"},
            "((s0,t3),(bad))": {},
            "((s0,t3),(ok))": {"(fail,t3_f)": "1"},
            "((s0,t4),(ok))": {},
            "((s1,t1),(ok))": {},
            "((s1,t2),(ok))": {},
            "((s1,t3),(bad))": {},
            "((s1,t3),(ok))": {"(fail,t3_f)": "1"},
        },
        "settle": {
            "((s0,t3),(bad))": "1",
            "((s0,t4),(ok))": "1",
            "((s1,t1),(ok))": "1",
            "((s1,t2),(ok))": "1",
            "((s1,t3),(bad))": "1",
        },
        "stay": {
            "((s0,t0),(ok))": ["s0_a", "t0_a"],
            "((s0,t1),(ok))": ["s0_a", "t1_a"],
            "((s0,t2),(ok))": ["s0_b", "b"],
            "((s0,t3),(bad))": ["fail", "t3_f"],
            "((s0,t3),(ok))": ["s0_b", "b"],
            "((s0,t4),(ok))": ["s0_b", "b"],
            "((s1,t1),(ok))": ["s1_b", "b"],
            "((s1,t2),(ok))": ["s1_b", "b"],
            "((s1,t3),(bad))": ["fail", "t3_f"],
            "((s1,t3),(ok))": ["s1_b", "b"],
            "((s1,t4),(ok))": ["s1_b", "b"],
        },
    }


def test_malformed_polynomial_is_usage_error(corpus_dir, tmp_path, capsys):
    doc = json.load(open(corpus_dir / "retry.ppa.json"))
    doc["transitions"][0]["dist"][0][1] = "1 - (2*"
    broken = tmp_path / "broken.json"
    json.dump(doc, open(broken, "w"))
    code, _, err = run(capsys, "instantiate", "--model", str(broken), "--valuation", "p=1/10")
    assert code == 2
    assert "position" in err
    # structurally malformed documents are format errors, not verdicts
    good = json.load(open(corpus_dir / "retry.ppa.json"))
    no_transitions = {k: v for k, v in good.items() if k != "transitions"}
    # so are documents that are not JSON objects at all
    for bad in (dict(good, initial="nowhere"), no_transitions, [1, 2], 7):
        json.dump(bad, open(broken, "w"))
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
    doc = json.load(open(corpus_dir / "retry.ppa.json"))
    stray_q = json.loads(json.dumps(doc))
    stray_q["transitions"][0]["dist"] = [["s0", "q"], ["s1", "1 - q"]]
    query = str(corpus_dir / "safe_assumption.query.json")
    for bad, stray in ((dict(doc, params=[]), "p"), (stray_q, "q")):
        path = tmp_path / "undeclared.ppa.json"
        json.dump(bad, open(path, "w"))
        code, out, err = run(capsys, "check", "--model", str(path), "--objective", query,
                             "--region", "box.p=[0,1/10]")
        assert code == 2 and out == ""
        assert err == f"format error: transition probabilities use undeclared parameters ['{stray}']\n"


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
    assert json.loads(out3)["report"]["relation"]


def test_rpa_pipeline_cli(corpus_dir, tmp_path, capsys):
    code, out, _ = run(
        capsys,
        "rpa-relax",
        "--left", str(corpus_dir / "interval_retry.rpa.json"),
        "--right", str(corpus_dir / "interval_responder.rpa.json"),
        "--out", str(tmp_path / "relaxed.json"),
    )
    assert code == 0
    code2, out2, _ = run(
        capsys, "rpa-reduce", "--model", str(tmp_path / "relaxed.json")
    )
    assert code2 == 0
    reduced = json.loads(out2)["report"]["result"]
    assert reduced["type"] == "ppa"

    code3, out3, _ = run(
        capsys,
        "rpa-rule",
        "--left", str(corpus_dir / "interval_retry.rpa.json"),
        "--right", str(corpus_dir / "interval_responder.rpa.json"),
        "--assumption", str(_write_trivial_query(tmp_path)),
        "--guarantee", str(_write_goal_query(tmp_path, corpus_dir)),
    )
    assert code3 == 0
    assert json.loads(out3)["report"]["status"] == "concluded"


def _write_trivial_query(tmp_path):
    from pacomp.verify import ProbObjective

    query = (ProbObjective(">=", F(0), corpus.trivial_dfa(("a", "b"))),)
    path = tmp_path / "trivial.query.json"
    json.dump(modelio.query_to_jsonable(query), open(path, "w"))
    return path


def _write_goal_query(tmp_path, corpus_dir):
    from pacomp.verify import safety

    query = (safety(corpus.no_c_dfa(), F(1, 10)),)
    path = tmp_path / "goal.query.json"
    json.dump(modelio.query_to_jsonable(query), open(path, "w"))
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
            "A": json.load(open(corpus_dir / "safe_assumption.query.json")),
            "G": json.load(open(corpus_dir / "safe_guarantee.query.json")),
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
    json.dump(script, open(path, "w"))
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
    json.dump(script, open(path, "w"))
    code2, out2, _ = run(capsys, "rule", "--script", str(path))
    assert code2 == 3
    assert json.loads(out2)["report"]["certificate"][0]["confidence"] == "attested"


def test_asymmetric_certificate_is_pinned(corpus_dir, tmp_path, capsys):
    guarantee = json.load(open(corpus_dir / "safe_guarantee.query.json"))["objectives"]
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
    json.dump(script, open(path, "w"))
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
    json.dump(script, open(path, "w"))
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


def test_rpa_rule_report_is_pinned(corpus_dir, tmp_path, capsys):
    goal = _write_goal_query(tmp_path, corpus_dir)
    code, out, _ = run(
        capsys,
        "rpa-rule",
        "--left", str(corpus_dir / "interval_retry.rpa.json"),
        "--right", str(corpus_dir / "interval_responder.rpa.json"),
        "--assumption", str(_write_trivial_query(tmp_path)),
        "--guarantee", str(goal),
    )
    assert code == 0
    assert json.loads(out)["report"] == {
        "rule": "rpa-asymmetric",
        "status": "concluded",
        "confidence": "checked-per-sample",
        "conclusion": {
            "kind": "rpa-sat",
            "model": "u1 ||conv u2 (over-approximates the standard composition)",
            "query": json.load(open(goal))["objectives"],
            "strategy_class": "cmp",
        },
        "premises": [
            {"description": "reduced component 1 satisfies the assumption on its region",
             "status": "holds"},
            {"description": "reduced extended component 2 satisfies assumption => guarantee",
             "status": "holds"},
        ],
    }


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
    json.dump(script, open(path, "w"))
    code, out, err = run(capsys, "rule", "--script", str(path))
    assert code == 2 and out == ""
    assert err.startswith("format error:") and "Traceback" not in err


def _monotonicity_script(corpus_dir):
    script = _asymmetric_script(corpus_dir)
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
}


@pytest.mark.parametrize("case", sorted(_UNRESOLVABLE_ARGUMENTS))
def test_unresolvable_script_argument_is_usage_error(case, corpus_dir, tmp_path, capsys):
    build, key, value = _UNRESOLVABLE_ARGUMENTS[case]
    script = build(corpus_dir)
    app = script["applications"][0]
    app[key] = value
    path = tmp_path / "unresolvable.agproof.json"
    json.dump(script, open(path, "w"))
    code, out, err = run(capsys, "rule", "--script", str(path))
    assert code == 2 and out == ""
    assert err.startswith("format error: proof script:") and "Traceback" not in err
    assert f"application {app['id']!r} argument {key!r}" in err


def test_monotonicity_script_with_valid_arguments_runs(corpus_dir, tmp_path, capsys):
    script = _monotonicity_script(corpus_dir)
    path = tmp_path / "mono.agproof.json"
    json.dump(script, open(path, "w"))
    code, out, _ = run(capsys, "rule", "--script", str(path))
    assert code in (0, 1)
    assert json.loads(out)["report"]["certificate"][0]["id"] == "mono"
    # a parameter the samples do not assign is an input error, not a crash
    script["applications"][0]["param"] = "zzz"
    json.dump(script, open(path, "w"))
    code, out, err = run(capsys, "rule", "--script", str(path))
    assert code == 2 and out == ""
    assert "MissingParameter" in err and "'zzz'" in err


def test_monotonicity_script_on_an_empty_region_is_vacuous(corpus_dir, tmp_path, capsys):
    script = _monotonicity_script(corpus_dir)
    script["regions"]["r2"] = {"type": "finite", "valuations": []}
    path = tmp_path / "mono-empty.agproof.json"
    json.dump(script, open(path, "w"))
    code, out, err = run(capsys, "rule", "--script", str(path))
    assert code == 0 and err == ""
    (application,) = json.loads(out)["report"]["certificate"]
    assert application["status"] == "concluded"
    assert [p["status"] for p in application["premises"]] == ["holds", "holds"]


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
    for argv in (check, simulate):
        for bad in ("0", "-1", "abc"):
            code, out, err = run(capsys, *argv, "--resolution", bad)
            assert code == 2 and out == ""
            assert "--resolution" in err and "Traceback" not in err


@pytest.mark.parametrize(
    "option, value, named",
    [
        ("--valuation", "p", "'p'"),
        ("--region", "finite:{p}", "'p'"),
        ("--region", "box.p=[0]", "'[0]' for 'p'"),
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
        ("box.p=[0,1/10],p=[1/2,1]", "box names parameter 'p' twice"),
        ({"bounds": [["p", ["0", "1/10"]], ["p", ["1/2", "1"]]]},
         "$.bounds: box names parameter 'p' twice"),
        ("finite:{p=1/10,p=1/2}", "valuation names parameter 'p' twice"),
        ({"valuations": [[["p", "1/10"]], [["p", "1/10"], ["p", "1/2"]]]},
         "$.valuations[1]: valuation names parameter 'p' twice"),
        ("box.", "a box region needs at least one axis"),
        ({"bounds": []}, "$.bounds: a box region needs at least one axis"),
    ],
    ids=["box-text-repeat", "box-json-repeat", "finite-text-repeat", "finite-json-repeat",
         "box-text-empty", "box-json-empty"],
)
def test_region_dropping_an_axis_or_a_value_is_usage_error(
    corpus_dir, tmp_path, capsys, region, message
):
    # each of these used to be checked on a smaller region than written:
    # the last interval or value of a repeated name, or no valuation at all
    # (a vacuous "holds" for a model with parameter p)
    if isinstance(region, dict):
        kind = "box" if "bounds" in region else "finite"
        path = tmp_path / f"{kind}.region.json"
        json.dump({"format": "pacomp/1", "type": kind, **region}, open(path, "w"))
        region = "@" + str(path)
    code, out, err = run(capsys, "check", "--model", str(corpus_dir / "retry.ppa.json"),
                         "--objective", str(corpus_dir / "safe_assumption.query.json"),
                         "--region", region)
    assert (code, out) == (2, "")
    assert err == f"format error: {message}\n"


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


def test_dfa_accepting_an_undeclared_state_is_usage_error(corpus_dir, tmp_path, capsys):
    # the real query fails here (exit 1); with accepting ["zz"] it used to hold
    query = json.load(open(corpus_dir / "safe_guarantee.query.json"))
    query["objectives"][0]["dfa"]["accepting"] = ["zz"]
    path = tmp_path / "zz.query.json"
    json.dump(query, open(path, "w"))
    code, out, err = run(capsys, "check", "--model", _compose_corpus(corpus_dir, tmp_path),
                         "--objective", str(path), "--region", "finite:{p=1/2,q=1}")
    assert code == 2 and out == ""
    assert err == "format error: $.objectives[0].dfa: DFA accepting state not declared: 'zz'\n"


def test_empty_query_under_check_is_usage_error(corpus_dir, tmp_path, capsys):
    composed = _compose_corpus(corpus_dir, tmp_path)
    empty = str(tmp_path / "empty.query.json")
    json.dump({"format": "pacomp/1", "type": "mo-query", "objectives": []}, open(empty, "w"))
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
    json.dump({"format": "pacomp/1", "type": "mo-query", "objectives": [objective]},
              open(path, "w"))
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


def _contradictory_case(case, corpus_dir, tmp_path):
    """(argv, expected error) for a document whose fields contradict each
    other, or an rpa transition with no set, written to tmp_path."""
    def load(name):
        return json.load(open(corpus_dir / name))

    mutant = str(tmp_path / "mutant.json")
    retry, query = str(corpus_dir / "retry.ppa.json"), load("safe_assumption.query.json")
    check = ["check", "--model", retry, "--objective", mutant, "--region", "finite:{p=1/2}"]
    project = ["project", "--left", retry, "--right", str(corpus_dir / "pipeline.ppa.json"),
               "--strategy", mutant, "--valuation", "p=1/10,q=1/10", "--side", "2"]
    rpa = load("interval_retry.rpa.json")
    one_set = "rpa transition needs exactly one of 'interval' and 'vertices'"
    if case == "rpa both sets":
        rpa["transitions"][0]["vertices"] = [[["s0", "1"]]]
        doc, argv, where = rpa, ["rpa-reduce", "--model", mutant], f"$.transitions[0]: {one_set}"
    elif case == "rpa no set":
        del rpa["transitions"][0]["interval"]
        doc, argv, where = rpa, ["rpa-reduce", "--model", mutant], f"$.transitions[0]: {one_set}"
    elif case == "prob objective with rewards":
        query["objectives"][0]["rewards"] = [["a", "1"]]
        doc, argv = query, check
        where = "$.objectives[0]: fields 'dfa' and 'rewards' exclude each other"
    elif case == "reward objective with dfa":
        dfa = query["objectives"][0]["dfa"]
        query["objectives"] = [{"kind": "reward", "cmp": ">=", "threshold": "0",
                                "rewards": [["a", "1"]], "dfa": dfa}]
        doc, argv = query, check
        where = "$.objectives[0]: fields 'rewards' and 'dfa' exclude each other"
    else:
        memoryless = case == "memoryless strategy with table"
        doc = {"format": "pacomp/1", "type": "strategy", "choice": [], "table": [],
               "kind": "memoryless" if memoryless else "tabular", "horizon": 1}
        argv = project
        where = ("fields 'choice' and 'table' exclude each other" if memoryless
                 else "fields 'table' and 'choice' exclude each other")
    json.dump(doc, open(mutant, "w"))
    return argv, f"format error: {where}\n"


@pytest.mark.parametrize("case", [
    "rpa both sets", "rpa no set", "prob objective with rewards", "reward objective with dfa",
    "memoryless strategy with table", "tabular strategy with choice",
])
def test_contradictory_fields_are_usage_errors(case, corpus_dir, tmp_path, capsys):
    # each document used to decode with one of the fields dropped
    argv, message = _contradictory_case(case, corpus_dir, tmp_path)
    assert run(capsys, *argv) == (2, "", message)


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
    json.dump(empty, open(tmp_path / "empty.query.json", "w"))
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
        json.dump(script, open(path, "w"))
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


def test_usage_errors_exit_2_with_nothing_on_stdout(capsys):
    for argv, named in (
        ((), "command"),
        (("nosuch",), "invalid choice: 'nosuch'"),
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


def test_single_field_mutations_never_exit_4(corpus_dir, tmp_path, capsys):
    def load(name):
        return json.load(open(corpus_dir / name))

    composed = tmp_path / "composed.ppa.json"
    assert main(["compose", "--left", str(corpus_dir / "retry.ppa.json"),
                 "--right", str(corpus_dir / "pipeline.ppa.json"), "--out", str(composed)]) == 0
    guarantee = str(corpus_dir / "safe_guarantee.query.json")
    script = _asymmetric_script(corpus_dir)
    script["applications"][0].update(
        resolution=1, fairness={"sets": [["a"]], "notes": ["ev A", "ev B"]}
    )
    mutant = str(tmp_path / "mutant.json")
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
    rng = random.Random(2408)
    runs = 0
    for name, (doc, argv) in cases.items():
        paths = list(_field_paths(doc))
        for path in rng.sample(paths, min(len(paths), 50)):
            value = rng.choice(_REPLACEMENTS)
            with open(mutant, "w") as fh:
                json.dump(_mutated(doc, path, value), fh)
            code, out, err = run(capsys, *argv)
            assert code != 4, (name, path, value, err)
            if code == 2:
                assert out == "" and "Traceback" not in err, (name, path, value, err)
            runs += 1
    assert runs > 250


def test_timing_is_measured_for_every_command(corpus_dir, tmp_path, capsys):
    script = tmp_path / "demo.agproof.json"
    json.dump(_asymmetric_script(corpus_dir), open(script, "w"))
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
    lines = [l for l in out.splitlines() if l.startswith(("PASS", "FAIL"))]
    assert lines and all(l.startswith("PASS") for l in lines)
    saved = json.loads(open(tmp_path / "suite.json").read())
    assert all(r["pass"] for r in saved["report"]["results"])


def test_project_and_triple_cli(corpus_dir, tmp_path, capsys):
    strategy_path = tmp_path / "sigma.json"
    comp = modelio.load_document(
        json.load(open(corpus_dir / "retry.ppa.json"))
    )
    from pacomp.model import compose, instantiate

    composed = instantiate(
        compose(
            modelio.load_document(json.load(open(corpus_dir / "retry.ppa.json"))),
            modelio.load_document(json.load(open(corpus_dir / "pipeline.ppa.json"))),
        ),
        {"p": F(1, 10), "q": F(1, 10)},
    )
    sigma = corpus.priority_strategy(composed)
    json.dump(modelio.strategy_to_jsonable(sigma), open(strategy_path, "w"))
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


@pytest.mark.parametrize(
    "defect", ["disabled action", "total above one", "negative mass", "empty history"]
)
def test_project_rejects_an_invalid_strategy(corpus_dir, tmp_path, capsys, defect):
    from pacomp.model import compose, instantiate
    from pacomp.semantics import MemorylessStrategy, TabularStrategy

    left, right = (
        modelio.load_document(json.load(open(corpus_dir / name)))
        for name in ("retry.ppa.json", "pipeline.ppa.json")
    )
    composed = instantiate(compose(left, right), {"p": F(1, 10), "q": F(1, 10)})
    choice = {s: dict(d) for s, d in corpus.priority_strategy(composed).choice.items()}
    s = composed.initial
    (a, _), = choice[s].items()
    if defect == "disabled action":
        other = next(x for t in composed.states for x in composed.enabled(t)
                     if x not in composed.enabled(s))
        choice[s] = {other: F(1)}
    elif defect == "total above one":
        other = next(x for x in composed.enabled(s) if x != a)
        choice[s] = {a: F(1), other: F(1)}
    elif defect == "negative mass":
        choice[s] = {a: F(-1, 2)}
    sigma = MemorylessStrategy(choice)
    if defect == "empty history":
        sigma = TabularStrategy({(): {a: F(1)}}, horizon=2)
    strategy_path = tmp_path / "sigma.json"
    json.dump(modelio.strategy_to_jsonable(sigma), open(strategy_path, "w"))
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
    # a malformed history fails at load, with its JSON path; the rest are
    # checked against the composed model and name the strategy file
    where = "$.table[0]: " if defect == "empty history" else f"{strategy_path}: "
    assert where in err


def test_region_and_strategy_documents_roundtrip():
    from pacomp.algebra import Box, FiniteRegion, RegionUnion

    union = RegionUnion.of(
        [Box.of({"p": (0, F(1, 4))}), FiniteRegion.of([{"p": F(1, 2)}])]
    )
    doc = modelio.region_to_jsonable(union)
    back = modelio.load_document(doc)
    assert modelio.region_to_jsonable(back) == doc


def test_rule_script_simulation_with_robust_flag(corpus_dir, tmp_path, capsys):
    from pacomp.model import compose

    m2 = modelio.load_document(json.load(open(corpus_dir / "split_responder.ppa.json")))
    para = modelio.load_document(
        json.load(open(corpus_dir / "handoff_parametric.ppa.json"))
    )
    guard = compose(m2, para)
    script = {
        "format": "pacomp/1",
        "type": "proof-script",
        "models": {
            "m1": "@" + str(corpus_dir / "handoff_parametric.ppa.json"),
            "m2": "@" + str(corpus_dir / "split_responder.ppa.json"),
            "mA": "@" + str(corpus_dir / "handoff_parametric.ppa.json"),
            "mG": modelio.ppa_to_jsonable(guard),
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
    json.dump(script, open(path, "w"))
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
    json.dump(modelio.query_to_jsonable(narrow), open(query_path, "w"))
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
    json.dump(modelio.query_to_jsonable(narrow), open(query_path, "w"))
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
    json.dump(modelio.query_to_jsonable(stray), open(query_path, "w"))
    code3, out3, err3 = run(capsys, *base, "--direction", "up")
    assert (code3, out3) == (2, "") and err3.startswith("error: AlphabetMismatch: ")


# Full report bytes of three region runs on the composed corpus model,
# recorded before each region check built its product once and refilled only
# the coefficients per sample.  The check passes 9 samples, including the
# non-graph-preserving p = 0 corner, and fails at p = 1/8, q = 1.  The rule,
# rpa-rule, rpa-reduce and compose reports were recorded before proof scripts
# and documents were checked by one decoder in `modelio`; the simulate,
# product, project, instantiate, extend, tau, prune and rpa-compose/-conv/-relax
# reports before every command became a row of one command table in `cli`.
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
    left, right = (modelio.load_document(json.load(open(name)))
                   for name in ("retry.ppa.json", "pipeline.ppa.json"))
    sigma = corpus.priority_strategy(instantiate(compose(left, right),
                                                 {"p": F(1, 10), "q": F(1, 10)}))
    with open("sigma.json", "w", encoding="utf-8") as fh:
        json.dump(modelio.strategy_to_jsonable(sigma), fh)


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

