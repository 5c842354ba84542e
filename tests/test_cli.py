import copy
import hashlib
import io
import json
import os
import subprocess
import sys
import time
from argparse import Namespace
from pathlib import Path

import jsonschema
import pytest

from millrank import RULES, cli, enumeration, schema, verify
from millrank.cli import REPORT_SCHEMA, _resolve_jobs, emit_report, main
from millrank.errors import MillrankError

GOLDEN_PATH = Path(__file__).parent / "golden" / "reports.json"

EX2_DOC = """\
universe: 1 2 3
class: {1,2,3} {1,2} {1,3}
class: {2,3} {1} {2} {3}
"""

STAG_CX_DOC = """\
universe: 1 2 3
class: {1,2}
class: {1}
class: {2} {3} {1,3} {2,3} {1,2,3}
"""


@pytest.fixture()
def ex2_file(tmp_path):
    path = tmp_path / "ex2.rank"
    path.write_text(EX2_DOC)
    return str(path)


@pytest.fixture()
def stag_file(tmp_path):
    path = tmp_path / "stagcx.rank"
    path.write_text(STAG_CX_DOC)
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    document = json.loads(captured.out) if captured.out.strip() else None
    if document is not None:
        jsonschema.validate(document, REPORT_SCHEMA)
    return code, document, captured.err


class TestSolve:
    def test_plurality_on_example(self, capsys, ex2_file):
        code, doc, _ = run(capsys, "solve", "--rule", "plurality", "--input", ex2_file)
        assert code == 0
        assert doc["result"]["selection"] == ["1"]

    def test_json_input(self, capsys, tmp_path):
        path = tmp_path / "r.json"
        path.write_text(json.dumps({"universe": ["a", "b"], "classes": [[["a", "b"]], [["a"]], [["b"]]]}))
        code, doc, _ = run(capsys, "solve", "--rule", "les", "--input", str(path))
        assert code == 0
        assert doc["result"]["selection"] == ["a"]

    def test_deeply_nested_json_is_an_input_error(self, capsys, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000)
        code, doc, err = run(capsys, "solve", "--rule", "plurality", "--input", str(path))
        assert code == 2
        assert doc is None
        assert "invalid JSON" in err

    def test_missing_file(self, capsys):
        code, doc, err = run(capsys, "solve", "--rule", "les", "--input", "/nonexistent.rank")
        assert code == 2
        assert doc is None
        assert "error" in err


class TestCheck:
    def test_violation_exits_one(self, capsys, stag_file):
        code, doc, _ = run(capsys, "check", "--rule", "les", "--axiom", "stag", "--input", stag_file)
        assert code == 1
        verdict = doc["result"]["verdict"]
        assert verdict["status"] == "violated"
        assert verdict["witness"]["axiom"] == "STAG"
        assert verdict["witness"]["actual"]["selection"] == ["1"]

    def test_satisfied_exits_zero(self, capsys, ex2_file):
        code, doc, _ = run(capsys, "check", "--rule", "plurality", "--axiom", "STAG", "--input", ex2_file)
        assert code == 0
        assert doc["result"]["verdict"]["status"] == "satisfied"

    def test_inapplicable_exits_zero(self, capsys, ex2_file):
        code, doc, _ = run(capsys, "check", "--rule", "plurality", "--axiom", "tdf", "--input", ex2_file)
        assert code == 0
        assert doc["result"]["verdict"]["status"] == "inapplicable"

    def test_unknown_axiom(self, capsys, ex2_file):
        code, _, err = run(capsys, "check", "--rule", "les", "--axiom", "nope", "--input", ex2_file)
        assert code == 2
        assert "unknown axiom" in err


class TestSweep:
    def test_clean_sweep_exits_zero(self, capsys):
        code, doc, _ = run(capsys, "sweep", "--rule", "plurality", "--axiom", "STAG", "--n", "2")
        assert code == 0
        report = doc["result"]["sweep_report"]
        assert report["rankings_checked"] == 13
        assert report["violations"] == 0

    def test_violating_sweep_exits_one(self, capsys):
        code, doc, _ = run(capsys, "sweep", "--rule", "les", "--axiom", "stag", "--n", "2")
        assert code == 1
        assert doc["result"]["sweep_report"]["violations"] == 2

    def test_sampled_sweep(self, capsys):
        code, doc, _ = run(
            capsys, "sweep", "--rule", "les", "--axiom", "stag", "--n", "5",
            "--sample", "25", "--seed", "9",
        )
        report = doc["result"]["sweep_report"]
        assert report["mode"] == {"sample": {"count": 25, "seed": 9}}
        assert report["rankings_checked"] == 25

    def test_large_exhaustive_rejected(self, capsys):
        code, _, err = run(capsys, "sweep", "--rule", "les", "--axiom", "stag", "--n", "5")
        assert code == 2
        assert "--sample" in err

    def test_byte_identical_across_jobs(self, capsys):
        outs = []
        for jobs in ("1", "2"):
            code = main(
                ["sweep", "--rule", "plurality", "--axiom", "STAG", "--n", "2", "--jobs", jobs]
            )
            assert code == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1]

    @pytest.mark.parametrize(
        "argv",
        [
            ["sweep", "--rule", "les", "--axiom", "STAG", "--n", "2", "--sample", "0"],
            ["sweep", "--rule", "les", "--axiom", "STAG", "--n", "2", "--sample", "-3"],
            ["verify", "prop3", "--n", "3", "--sample", "0"],
            ["verify", "theorem1", "--rule", "les", "--n", "2", "--sample", "-1"],
            ["sample", "--n", "3", "--seed", "1", "--count", "0"],
            ["sample", "--n", "3", "--seed", "1", "--count", "-2"],
        ],
    )
    def test_sample_count_below_one_is_a_usage_error(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "at least 1" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["sweep", "--rule", "les", "--axiom", "STAG", "--n", "2", "--witness-cap", "-1"],
            ["verify", "prop3", "--n", "3", "--sample", "5", "--witness-cap", "-4"],
        ],
    )
    def test_witness_cap_below_zero_is_a_usage_error(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "at least 0" in captured.err

    def test_zero_witness_cap_counts_but_keeps_no_witness(self, capsys):
        code, doc, _ = run(
            capsys, "sweep", "--rule", "les", "--axiom", "STAG", "--n", "2", "--witness-cap", "0"
        )
        assert code == 1
        report = doc["result"]["sweep_report"]
        assert (report["violations"], report["witnesses"]) == (2, [])

    def test_seed_without_sample_is_rejected(self, capsys):
        code, doc, err = run(
            capsys, "sweep", "--rule", "les", "--axiom", "STAG", "--n", "2", "--seed", "3"
        )
        assert (code, doc) == (2, None)
        assert "--sample" in err

    def test_env_var_overrides_jobs(self, capsys, monkeypatch):
        monkeypatch.setenv("MILLRANK_JOBS", "2")
        code = main(["sweep", "--rule", "plurality", "--axiom", "STAG", "--n", "2", "--jobs", "1"])
        assert code == 0
        with_env = capsys.readouterr().out
        monkeypatch.delenv("MILLRANK_JOBS")
        main(["sweep", "--rule", "plurality", "--axiom", "STAG", "--n", "2", "--jobs", "1"])
        assert capsys.readouterr().out == with_env

    def test_env_var_that_is_not_a_number_is_an_input_error(self, capsys, monkeypatch):
        monkeypatch.setenv("MILLRANK_JOBS", "abc")
        code, doc, err = run(capsys, "sweep", "--rule", "les", "--axiom", "STAG", "--n", "2")
        assert (code, doc) == (2, None)
        assert "MILLRANK_JOBS" in err and "'abc'" in err


class TestVerifyCommands:
    def test_theorem1_plurality_small(self, capsys):
        code, doc, _ = run(capsys, "verify", "theorem1", "--n", "2", "--rule", "plurality")
        assert code == 0
        report = doc["result"]["theorem1_report"]
        assert report["equivalent"] is True
        assert report["rankings_compared"] == 13

    def test_theorem1_les_small(self, capsys):
        code, doc, _ = run(capsys, "verify", "theorem1", "--n", "2", "--rule", "les")
        assert code == 1
        report = doc["result"]["theorem1_report"]
        assert report["equivalent"] is False
        assert report["witness"]["axiom"] == "STAG"

    def test_theorem1_needs_rule(self, capsys):
        code, _, err = run(capsys, "verify", "theorem1", "--n", "2")
        assert code == 2
        assert "--rule" in err

    def test_prop3_sampled(self, capsys):
        code, doc, _ = run(capsys, "verify", "prop3", "--n", "3", "--sample", "60", "--seed", "1")
        report = doc["result"]["matrix_report"]
        assert len(report["cells"]) == 15
        assert code in (0, 1)

    def test_prop1_certifies(self, capsys):
        code, doc, _ = run(capsys, "verify", "prop1", "--n", "3")
        assert code == 0
        report = doc["result"]["prop1_report"]
        assert report["incompatibility_certified"] is True
        assert report["lemma"]["counterexamples"] == 0
        assert len(report["constructions"]) == 6

    def test_independence_flags_refuted_claim(self, capsys, monkeypatch, independence_n4):
        # the session fixture is the report this command builds; reuse it
        calls = []

        def built(*args, **kwargs):
            calls.append((args, kwargs))
            return independence_n4

        monkeypatch.setattr("millrank.cli.independence_report", built)
        code = main(["verify", "independence", "--n", "4"])
        out = capsys.readouterr().out
        assert calls == [((4,), {"jobs": 1, "witness_cap": 10})]
        golden = json.loads(GOLDEN_PATH.read_text())["verify independence --n 4"]
        assert hashlib.sha256(out.encode()).hexdigest() == golden["stdout_sha256"]
        assert code == golden["exit_code"]
        doc = json.loads(out)
        jsonschema.validate(doc, REPORT_SCHEMA)
        assert code == 1
        report = doc["result"]["independence_report"]
        assert report["discrepancy_count"] == 1
        flagged = [c for c in report["claims"] if c["discrepancy"]]
        assert [(c["rule"], c["axiom"]) for c in flagged] == [("f_star", "SI")]

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["verify", "prop1", "--n", "3", "--sample", "5"], "--sample"),
            (["verify", "prop1", "--n", "3", "--seed", "2"], "--seed"),
            (["verify", "prop1", "--rule", "les"], "--rule"),
            (["verify", "independence", "--sample", "5", "--seed", "1"], "--sample"),
            (["verify", "independence", "--seed", "1"], "--seed"),
            (["verify", "independence", "--rule", "les"], "--rule"),
            (["verify", "prop3", "--n", "3", "--rule", "les"], "--rule"),
            (["verify", "prop3", "--n", "3", "--seed", "4"], "--sample"),
            (["verify", "theorem1", "--rule", "les", "--n", "2", "--seed", "4"], "--sample"),
        ],
    )
    def test_flags_a_campaign_does_not_read_are_rejected(self, capsys, argv, flag):
        code, doc, err = run(capsys, *argv)
        assert (code, doc) == (2, None)
        assert flag in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "theorem1", "--rule", "plurality", "--n", "4", "--sample", "30"],
            ["verify", "prop3", "--n", "3", "--sample", "60"],
        ],
    )
    def test_sample_seed_defaults_to_zero(self, capsys, argv):
        outs = []
        for extra in ([], ["--seed", "0"]):
            main(argv + extra)
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1]
        assert '"seed": 0' in outs[0]


class TestExhaustiveGuard:
    """Exhaustive runs stop at n = 3: n = 4 has about 2.3e14 rankings."""

    @pytest.fixture(autouse=True)
    def no_enumeration(self, monkeypatch):
        # A regression fails here instead of starting the walk, a best-class
        # reduction or the count per best class.
        def refuse(*args):
            raise AssertionError("exhaustive enumeration started")

        monkeypatch.setattr(enumeration, "walk_stream", refuse)
        monkeypatch.setattr(verify, "best_class_reduction", refuse)
        monkeypatch.setattr(verify, "_count_blocks", refuse)

    @pytest.mark.parametrize(
        "argv",
        [
            ("sweep", "--rule", "plurality", "--axiom", "STAG", "--n", "4"),
            ("verify", "theorem1", "--rule", "plurality", "--n", "4"),
            ("verify", "prop3", "--n", "4"),
            ("enumerate", "--n", "4"),
            ("sweep", "--rule", "plurality", "--axiom", "DMON", "--n", "5"),
            ("sweep", "--rule", "split_plurality", "--axiom", "SI", "--n", "4"),
            ("verify", "theorem1", "--rule", "const_x", "--n", "5"),
        ],
    )
    def test_n4_without_sample_is_refused(self, capsys, argv):
        code, doc, err = run(capsys, *argv)
        assert code == 2
        assert doc is None
        assert "--sample COUNT" in err
        assert "sample command" in err

    def test_n4_count_still_works(self, capsys):
        code, doc, _ = run(capsys, "enumerate", "--n", "4", "--count-only")
        assert code == 0
        assert doc["result"]["count"] == 230283190977853


class TestSampledGuard:
    """Sampled sweeps and campaigns stop at n = 8, sampling itself at n = 10."""

    @pytest.fixture(autouse=True)
    def no_draws(self, monkeypatch):
        # A regression fails here instead of drawing a ranking that takes hours to check.
        def refuse(*args):
            raise AssertionError("a ranking was drawn")

        monkeypatch.setattr(enumeration, "sample_ranking", refuse)

    @pytest.mark.parametrize(
        "argv, bound",
        [
            (("sweep", "--rule", "plurality", "--axiom", "STAG", "--n", "9", "--sample", "1"), 8),
            (("verify", "theorem1", "--rule", "les", "--n", "9", "--sample", "1"), 8),
            (("verify", "prop3", "--n", "12", "--sample", "1"), 8),
            (("sample", "--n", "11", "--seed", "0"), 10),
            (("sample", "--n", "12", "--seed", "0", "--count", "3"), 10),
        ],
    )
    def test_refused_beyond_the_bound(self, capsys, argv, bound):
        code, doc, err = run(capsys, *argv)
        assert code == 2
        assert doc is None
        assert f"n <= {bound}" in err


class TestProp1Guard:
    """verify prop1 prints a ranking of all 2^n - 1 coalitions per ordered pair: n stops at 8."""

    @pytest.fixture(autouse=True)
    def no_constructions(self, monkeypatch):
        # A regression fails here instead of building rankings of 2^n - 1 coalitions.
        def refuse(*args):
            raise AssertionError("a construction was built")

        monkeypatch.setattr(verify, "relative_construction", refuse)

    @pytest.mark.parametrize("n", ["9", "14"])
    def test_refused_beyond_the_bound(self, capsys, n):
        code, doc, err = run(capsys, "verify", "prop1", "--n", n)
        assert code == 2
        assert doc is None
        assert "n <= 8" in err


class TestIndependenceGuard:
    """verify independence prints the pinned slide instance of all 2^n - 1 coalitions: n stops at 8."""

    @pytest.fixture(autouse=True)
    def no_campaign(self, monkeypatch):
        # A regression fails here instead of sweeping or building the instance.
        def refuse(*args, **kwargs):
            raise AssertionError("the campaign ran")

        monkeypatch.setattr(verify, "split_plurality_slide_instance", refuse)
        monkeypatch.setattr(verify, "_sweep_pass", refuse)

    @pytest.mark.parametrize("n", ["9", "20"])
    def test_refused_beyond_the_bound(self, capsys, n):
        code, doc, err = run(capsys, "verify", "independence", "--n", n)
        assert code == 2
        assert doc is None
        assert "n <= 8" in err


class TestSlideGuard:
    """check refuses an SI scan of too many slides; two classes of 30 and 1 coalitions have 2^30 - 2."""

    @pytest.fixture()
    def wide_file(self, tmp_path):
        names = "abcde"
        coalitions = [[names[i] for i in range(5) if mask >> i & 1] for mask in range(1, 32)]
        document = {"universe": list(names), "classes": [coalitions[:30], coalitions[30:]]}
        path = tmp_path / "wide.json"
        path.write_text(json.dumps(document))
        return str(path)

    def test_si_refused_within_a_second(self, capsys, wide_file):
        start = time.perf_counter()
        code, doc, err = run(capsys, "check", "--rule", "plurality", "--axiom", "SI", "--input", wide_file)
        assert time.perf_counter() - start < 1
        assert code == 2
        assert doc is None
        assert "slides" in err

    def test_dmon_still_checks_it(self, capsys, wide_file):
        code, doc, _ = run(capsys, "check", "--rule", "plurality", "--axiom", "DMON", "--input", wide_file)
        assert code == 0
        verdict = doc["result"]["verdict"]
        assert (verdict["status"], verdict["premises_checked"]) == ("satisfied", 300)


class TestDeteriorationGuard:
    """check refuses a DMON scan of too many placements; 511 singleton classes have 261,121."""

    def test_dmon_refused_within_a_second(self, capsys, tmp_path, monkeypatch):
        def refuse(ranking):
            raise AssertionError("the rule ran")

        monkeypatch.setitem(RULES, "plurality", refuse)
        names = "abcdefghi"
        coalitions = [[names[i] for i in range(9) if mask >> i & 1] for mask in range(1, 512)]
        path = tmp_path / "singletons.json"
        path.write_text(json.dumps({"universe": list(names), "classes": [[c] for c in coalitions]}))
        start = time.perf_counter()
        code, doc, err = run(capsys, "check", "--rule", "plurality", "--axiom", "DMON", "--input", str(path))
        assert time.perf_counter() - start < 1
        assert code == 2
        assert doc is None
        assert "261121" in err


def test_python_dash_m_runs_the_cli():
    src = Path(__file__).parent.parent / "src"
    path = os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])
    env = {**os.environ, "PYTHONPATH": path}
    argv = [sys.executable, "-m", "millrank", "enumerate", "--n", "2", "--count-only"]
    proc = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["result"]["count"] == 13


class TestEnumerateAndSample:
    def test_count_only(self, capsys):
        code, doc, _ = run(capsys, "enumerate", "--n", "3", "--count-only")
        assert code == 0
        assert doc["result"]["count"] == 47293

    def test_negative_n_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["enumerate", "--n", "-1", "--count-only"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "at least 0" in captured.err

    def test_full_listing_round_trips(self, capsys):
        from millrank import parse_ranking, enumerate_rankings

        code, doc, _ = run(capsys, "enumerate", "--n", "2")
        assert code == 0
        rankings = [parse_ranking(text) for text in doc["result"]["rankings"]]
        assert rankings == list(enumerate_rankings(2))

    def test_guard(self, capsys):
        code, _, err = run(capsys, "enumerate", "--n", "5")
        assert code == 2
        assert "sample" in err

    def test_sample_at_nine_individuals(self, capsys):
        code, doc, _ = run(capsys, "sample", "--n", "9", "--seed", "1", "--count", "1")
        assert code == 0
        assert len(doc["result"]["rankings"]) == 1

    def test_sample_command_deterministic(self, capsys):
        code, doc1, _ = run(capsys, "sample", "--n", "3", "--seed", "5", "--count", "3")
        assert code == 0
        _, doc2, _ = run(capsys, "sample", "--n", "3", "--seed", "5", "--count", "3")
        assert doc1 == doc2
        assert len(doc1["result"]["rankings"]) == 3


def test_schema_accepts_every_emitted_document(capsys, ex2_file):
    # emission already validates; this pins the schema itself as data
    assert REPORT_SCHEMA["$defs"]["sweep_report"]["required"]
    code, doc, _ = run(capsys, "solve", "--rule", "f_star", "--input", ex2_file)
    assert code == 0
    assert set(doc) == {"schema_version", "command", "parameters", "result"}


@pytest.fixture()
def campaign_reports(capsys, independence_n4):
    """One emitted document of each campaign report kind."""
    documents = {}
    for argv in (
        ["verify", "theorem1", "--rule", "les", "--n", "2"],
        ["verify", "prop1", "--n", "4"],
        ["verify", "prop3", "--n", "3", "--sample", "60", "--seed", "1"],
    ):
        _, doc, _ = run(capsys, *argv)
        (key,) = doc["result"]
        documents[key] = doc
    out = io.StringIO()
    parameters = {"campaign": "independence", "n": 4}
    emit_report("verify", parameters, "independence_report", independence_n4, out=out)
    documents["independence_report"] = json.loads(out.getvalue())
    return documents


@pytest.mark.parametrize(
    "kind", ["theorem1_report", "prop1_report", "matrix_report", "independence_report"]
)
def test_campaign_report_schemas_are_closed(campaign_reports, kind):
    document = campaign_reports[kind]
    jsonschema.validate(document, REPORT_SCHEMA)
    report = document["result"][kind]
    assert sorted(report) == REPORT_SCHEMA["$defs"][kind]["required"]
    for key in report:
        broken = copy.deepcopy(document)
        del broken["result"][kind][key]
        with pytest.raises(jsonschema.ValidationError):
            jsonschema.validate(broken, REPORT_SCHEMA)
    extended = copy.deepcopy(document)
    extended["result"][kind]["unexpected"] = 0
    with pytest.raises(jsonschema.ValidationError):
        jsonschema.validate(extended, REPORT_SCHEMA)


@pytest.fixture()
def command_reports(capsys, ex2_file, campaign_reports):
    """One emitted document of each command, and of each verify campaign."""
    documents = dict(campaign_reports)
    for argv in (
        ["solve", "--rule", "plurality", "--input", ex2_file],
        ["check", "--rule", "plurality", "--axiom", "STAG", "--input", ex2_file],
        ["sweep", "--rule", "les", "--axiom", "STAG", "--n", "2"],
        ["enumerate", "--n", "1"],
        ["sample", "--n", "2", "--seed", "1"],
    ):
        _, doc, _ = run(capsys, *argv)
        documents[argv[0]] = doc
    return documents


@pytest.mark.parametrize(
    "name",
    [
        "solve",
        "check",
        "sweep",
        "enumerate",
        "sample",
        "theorem1_report",
        "prop1_report",
        "matrix_report",
        "independence_report",
    ],
)
def test_parameters_schemas_are_closed(command_reports, name):
    document = command_reports[name]
    jsonschema.validate(document, REPORT_SCHEMA)
    for key in document["parameters"]:
        broken = copy.deepcopy(document)
        del broken["parameters"][key]
        with pytest.raises(jsonschema.ValidationError):
            jsonschema.validate(broken, REPORT_SCHEMA)
    extended = copy.deepcopy(document)
    extended["parameters"]["unexpected"] = 0
    with pytest.raises(jsonschema.ValidationError):
        jsonschema.validate(extended, REPORT_SCHEMA)
    # Another command's parameters do not fit.
    other = "sweep" if document["command"] != "sweep" else "check"
    swapped = {**document, "parameters": command_reports[other]["parameters"]}
    with pytest.raises(jsonschema.ValidationError):
        jsonschema.validate(swapped, REPORT_SCHEMA)


@pytest.mark.parametrize(
    "mode, valid",
    [
        ({"exhaustive": True}, True),
        ({"sample": {"count": 0, "seed": -3}}, True),
        ({"exhaustive": False}, False),
        ({"sample": {"count": -1, "seed": 0}}, False),
        ({"sample": {"count": 5}}, False),
        ({"sample": {"count": 5, "seed": 0, "draws": 1}}, False),
        ({"exhaustive": True, "sample": {"count": 5, "seed": 0}}, False),
    ],
)
def test_mode_schema(capsys, mode, valid):
    _, document, _ = run(capsys, "sweep", "--rule", "les", "--axiom", "STAG", "--n", "2")
    for holder in (document["parameters"], document["result"]["sweep_report"]):
        holder["mode"] = mode
        if valid:
            jsonschema.validate(document, REPORT_SCHEMA)
        else:
            with pytest.raises(jsonschema.ValidationError):
                jsonschema.validate(document, REPORT_SCHEMA)


def test_report_schema_is_a_draft7_schema():
    # Emission checks documents, not the schema; REPORT_SCHEMA is a constant, so one check covers it.
    jsonschema.Draft7Validator.check_schema(REPORT_SCHEMA)


# The keywords millrank.schema implements; "$ref" must stand alone, as draft 07 ignores its siblings.
CHECKED_KEYWORDS = {
    "$schema", "$defs", "$ref", "type", "const", "enum", "required", "properties",
    "additionalProperties", "items", "minimum", "minProperties", "maxProperties",
    "allOf", "oneOf", "if", "then",
}


def test_report_schema_uses_only_checked_keywords():
    reached, pending = set(), [REPORT_SCHEMA]
    while pending:
        node = pending.pop()
        if id(node) in reached:
            continue
        reached.add(id(node))
        assert isinstance(node, dict) and set(node) <= CHECKED_KEYWORDS, node
        if "$ref" in node:
            assert set(node) == {"$ref"} and node["$ref"].startswith("#/"), node
            target = REPORT_SCHEMA
            for part in node["$ref"][2:].split("/"):
                target = target[part]
            pending.append(target)
        assert node.get("type", "object") in schema._TYPES, node
        assert node.get("additionalProperties", False) is False, node
        for value in [node.get("const"), *node.get("enum", ())]:
            assert not isinstance(value, (list, dict)), node
        pending += node.get("properties", {}).values()
        pending += node.get("allOf", []) + node.get("oneOf", [])
        pending += [node[key] for key in ("items", "if", "then") if key in node]
    assert len(reached) > 50


def test_unknown_keyword_is_refused():
    with pytest.raises(KeyError):
        schema.validate("x", {"maxLength": 3})


# Replacement values of the differential test: every JSON type, bools beside ints, an integral float.
REPLACEMENTS = [True, False, 0, 1, -1, 1.0, 2.5, "x", None, [], {}, ["x"], {"a": 1}]


def _mutants(node):
    """Mutate ``node`` in place, yield after each mutation and undo it on resumption.

    Each key is deleted, each object gains "unexpected", and each object value is
    replaced by each of REPLACEMENTS; a list is entered at one item of each shape.
    """
    if isinstance(node, list):
        shapes = set()
        for item in node:
            shape = repr(
                sorted((k, type(v).__name__) for k, v in item.items())
                if isinstance(item, dict) else type(item).__name__
            )
            if shape not in shapes:
                shapes.add(shape)
                yield from _mutants(item)
        return
    if not isinstance(node, dict):
        return
    for key in list(node):
        value = node.pop(key)
        yield
        node[key] = value
    node["unexpected"] = 0
    yield
    del node["unexpected"]
    for key, value in list(node.items()):
        for replacement in REPLACEMENTS:
            node[key] = replacement
            yield
        node[key] = value
        yield from _mutants(value)


def _accepts(document, against=REPORT_SCHEMA):
    try:
        schema.validate(document, against)
    except schema.ValidationError:
        return False
    return True


_REF_WITH_SIBLING = {
    "$defs": {"integer": {"type": "integer"}},
    "properties": {"v": {"$ref": "#/$defs/integer", "type": "string"}},
}
_ONE_OF = {"oneOf": [{"type": "integer"}, {"minimum": 0}]}
_IF_THEN = {"if": {"required": ["a"]}, "then": {"maxProperties": 1}}


@pytest.mark.parametrize(
    "value, subschema, valid",
    [
        (True, {"type": "integer"}, False),
        (1.0, {"type": "integer"}, True),
        (2.5, {"type": "integer"}, False),
        (1, {"const": True}, False),
        (1.0, {"const": 1}, True),
        (True, {"enum": [1, "x"]}, False),
        (True, {"minimum": 5}, True),
        ({"v": 1}, _REF_WITH_SIBLING, True),
        ({"v": "x"}, _REF_WITH_SIBLING, False),
        (1, _ONE_OF, False),
        (-1, _ONE_OF, True),
        ({"a": 1, "b": 2}, _IF_THEN, False),
        ({"b": 2, "c": 3}, _IF_THEN, True),
        ("x", {"required": ["a"], "minProperties": 1, "additionalProperties": False}, True),
        ([1, "x"], {"items": {"type": "integer"}}, False),
    ],
)
def test_checker_keyword_semantics(value, subschema, valid):
    assert jsonschema.Draft7Validator(subschema).is_valid(value) is valid
    assert _accepts(value, subschema) is valid


def test_checker_agrees_with_jsonschema_on_mutated_reports(command_reports):
    oracle = jsonschema.Draft7Validator(REPORT_SCHEMA)
    verdicts, disagreements = [], []
    for name, document in command_reports.items():
        for _ in _mutants(document):
            expected = oracle.is_valid(document)
            verdicts.append(expected)
            if _accepts(document) != expected:
                disagreements.append((name, expected, json.dumps(document)[:300]))
    assert disagreements == []
    assert len(verdicts) > 3000 and 0 < sum(verdicts) < len(verdicts)


def test_broken_report_is_a_fault_and_prints_nothing(capsys, monkeypatch):
    monkeypatch.setattr(cli, "fubini", lambda m: -1)
    with pytest.raises(schema.ValidationError, match=r"document\.result\.count: -1 fails minimum 0"):
        main(["enumerate", "--n", "1", "--count-only"])
    assert capsys.readouterr().out == ""
    assert not issubclass(schema.ValidationError, (MillrankError, ValueError, OSError))


def test_cli_import_leaves_jsonschema_out():
    src = Path(__file__).parent.parent / "src"
    code = "import sys, millrank.cli; print('jsonschema' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert proc.stdout.strip() == "False", proc.stderr


class TestResolveJobs:
    def test_clamped_to_the_cpu_count(self, monkeypatch):
        monkeypatch.delenv("MILLRANK_JOBS", raising=False)
        monkeypatch.setattr("os.cpu_count", lambda: 2)
        assert _resolve_jobs(Namespace(jobs=64)) == 2
        assert _resolve_jobs(Namespace(jobs=2)) == 2
        assert _resolve_jobs(Namespace(jobs=0)) == 1
        assert _resolve_jobs(Namespace(jobs=-5)) == 1

    def test_environment_is_clamped_too(self, monkeypatch):
        monkeypatch.setattr("os.cpu_count", lambda: 2)
        monkeypatch.setenv("MILLRANK_JOBS", "100000")
        assert _resolve_jobs(Namespace(jobs=1)) == 2

    def test_unknown_cpu_count_means_one_worker(self, monkeypatch):
        monkeypatch.delenv("MILLRANK_JOBS", raising=False)
        monkeypatch.setattr("os.cpu_count", lambda: None)
        assert _resolve_jobs(Namespace(jobs=8)) == 1
