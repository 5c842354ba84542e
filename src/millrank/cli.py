"""Command-line front end and the JSON report surface.

Subcommands: solve, check, sweep, verify (theorem1 | prop1 | prop3 |
independence), enumerate, sample. Every command prints one JSON report
on stdout and a short human summary on stderr. Before it is printed,
each report is checked against the schema below by
:mod:`millrank.schema`, which knows exactly the draft-07 keywords the
schema uses; a report that fails raises, as a fault of the program.
Exit codes: 0 when satisfied or equivalent, 1 when a violation or
difference was found, 2 on usage or input errors.

Reports are byte-identical for identical arguments; the worker count
(--jobs, overridden by the MILLRANK_JOBS environment variable) and wall
times are execution details and never appear in the JSON.

One serializer, :func:`to_json`, turns every report value into JSON,
and the schema of each campaign report is derived from its dataclass.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import is_dataclass
from typing import Literal, get_args, get_origin

# The report checker keeps the name `jsonschema` here because
# perfbench/tracer.py times validation by wrapping `cli.jsonschema.validate`.
from . import schema as jsonschema
from .axioms import Verdict, Witness
from .core import CoalitionalRanking, mask_members
from .enumeration import EXHAUSTIVE, RankingStream, Sample, Universe, fubini
from .errors import MillrankError, UniverseTooLargeError
from .solutions import RULES, lookup_rule
from .textio import load_ranking, parse_ranking, parse_ranking_json, render_ranking
from .transforms import DeteriorationSpec, SlideMove

__all__ = [
    "REPORT_SCHEMA",
    "SCHEMA_VERSION",
    "emit_report",
    "main",
    "parse_ranking",
    "parse_ranking_json",
    "render_ranking",
    "load_ranking",
    "to_json",
]
from .verify import (
    IndependenceReport,
    MatrixReport,
    Prop1Report,
    SweepReport,
    Theorem1Report,
    check_single,
    independence_report,
    report_fields,
    prop1_report,
    prop3_matrix,
    sweep,
    theorem1_probe,
)

SCHEMA_VERSION = "1"


def _names(universe, ids):
    return [universe.names[i] for i in ids]


def _coalition(universe, mask):
    return _names(universe, mask_members(mask, universe.n))


def _mode(_, mode):
    if mode == EXHAUSTIVE:
        return {"exhaustive": True}
    return {"sample": {"count": mode.count, "seed": mode.seed}}


_NAME = (lambda universe, i: universe.names[i], {"type": "string"})
_NAMES = (_names, {"type": "array", "items": {"type": "string"}})
_COALITION = (_coalition, _NAMES[1])

# Keys whose values are individual ids, coalition masks or a sweep mode:
# key -> (encoder taking the universe of the nearest enclosing ranking
# and the value, JSON schema of the encoded value).
KEYED = {
    "x": _NAME,
    "y": _NAME,
    "s0": _COALITION,
    "s": _COALITION,
    "mode": (_mode, {"$ref": "#/$defs/mode"}),
    **dict.fromkeys(
        (
            "selection",
            "plurality_selection",
            "selection_after",
            "concomitant",
            "top_intersection",
            "rdf_forces",
            "intersection_before",
            "intersection_after",
        ),
        _NAMES,
    ),
}


def to_json(value, universe=None):
    """JSON form of a report value.

    Rankings are rendered as text and ids are named by the universe of
    the nearest enclosing ``ranking`` entry (or by ``universe``); the
    keys of :data:`KEYED` say which values are ids.
    """
    if isinstance(value, CoalitionalRanking):
        return render_ranking(value)
    if isinstance(value, SlideMove):
        gamma = [_coalition(universe, m) for m in value.gamma]
        return {"from_class": value.k1, "to_class": value.k2, "gamma": gamma}
    if isinstance(value, DeteriorationSpec):
        subject = _coalition(universe, value.subject)
        return {"subject": subject, "kind": value.kind, "class_index": value.k}
    if is_dataclass(value):
        value = {key: getattr(value, key) for key in report_fields(type(value))}
    if isinstance(value, dict):
        if "ranking" in value:
            universe = value["ranking"].universe
        return {
            key: (
                None if item is None
                else KEYED[key][0](universe, item) if key in KEYED
                else to_json(item, universe)
            )
            for key, item in value.items()
        }
    if isinstance(value, (tuple, list)):
        return [to_json(item, universe) for item in value]
    return value


_KEY_SCHEMAS = {key: schema for key, (_, schema) in KEYED.items()}
_KEY_SCHEMAS["n"] = {"type": "integer", "minimum": 1}
_KEY_SCHEMAS["seed"] = {"type": "integer"}
_TYPE_SCHEMAS = {
    str: {"type": "string"},
    int: {"type": "integer", "minimum": 0},
    bool: {"type": "boolean"},
    dict: {"type": "object"},
    CoalitionalRanking: {"type": "string"},
    SweepReport: {"$ref": "#/$defs/sweep_report"},
    Witness: {"$ref": "#/$defs/witness"},
}


def _schema(hint, key=None):
    """JSON schema of a report value of type ``hint`` held under ``key``."""
    args = get_args(hint)
    if type(None) in args:
        (inner,) = set(args) - {type(None)}
        return {"oneOf": [{"type": "null"}, _schema(inner, key)]}
    if key in _KEY_SCHEMAS:
        return _KEY_SCHEMAS[key]
    if get_origin(hint) is Literal:
        return {"enum": list(args)}
    if get_origin(hint) is tuple:
        return {"type": "array", "items": _schema(args[0])}
    return _TYPE_SCHEMAS.get(hint) or _object_schema(hint)


def _closed(properties):
    """Schema of an object with exactly these keys, every one required."""
    return {
        "type": "object",
        "required": sorted(properties),
        "properties": properties,
        "additionalProperties": False,
    }


def _object_schema(cls):
    """Schema of a report dataclass: every key required, no other key allowed."""
    return _closed({k: _schema(h, k) for k, h in report_fields(cls).items()})


_MODE_SCHEMA = {
    "oneOf": [_closed({"exhaustive": {"const": True}}), _closed({"sample": _object_schema(Sample)})]
}

# Result keys of the report dataclasses, each with a schema in "$defs".
_RESULT_KINDS = {
    "verdict": Verdict,
    "sweep_report": SweepReport,
    "matrix_report": MatrixReport,
    "theorem1_report": Theorem1Report,
    "prop1_report": Prop1Report,
    "independence_report": IndependenceReport,
}

# Schemas of the envelope parameters. "n" and "seed" have no lower
# bound: `enumerate --n 0 --count-only` reports n = 0.
_PARAMETER_SCHEMAS = {
    **dict.fromkeys(("rule", "axiom", "input"), _TYPE_SCHEMAS[str]),
    **dict.fromkeys(("n", "seed"), {"type": "integer"}),
    **dict.fromkeys(("count", "witness_cap"), _TYPE_SCHEMAS[int]),
    "count_only": _TYPE_SCHEMAS[bool],
    "mode": _KEY_SCHEMAS["mode"],
}

# Envelope parameter keys of each command.
PARAMETERS = {
    "solve": ("rule", "input"),
    "check": ("rule", "axiom", "input"),
    "sweep": ("rule", "axiom", "n", "mode", "witness_cap"),
    "enumerate": ("n", "count_only"),
    "sample": ("n", "seed", "count"),
}
# Verify campaign -> (default --n, its envelope parameter keys beside
# "campaign"). A campaign reads --rule when it has the "rule" key and
# --sample and --seed when it has "mode", beside --n, --witness-cap and --jobs.
CAMPAIGNS = {
    "theorem1": (3, ("rule", "n", "mode")),
    "prop1": (3, ("n",)),
    "prop3": (3, ("n", "mode")),
    "independence": (4, ("n",)),
}
_FLAG_KEYS = {"rule": "rule", "sample": "mode", "seed": "mode"}  # verify flag -> key that reads it


def _parameters_schema(keys, **fixed):
    """Closed schema of one parameters object: every key required, no other allowed."""
    properties = {key: _PARAMETER_SCHEMAS[key] for key in keys}
    return _closed(properties | {key: {"const": value} for key, value in fixed.items()})


_PARAMETERS_DEFS = {
    **{command: _parameters_schema(keys) for command, keys in PARAMETERS.items()},
    "verify": {
        "oneOf": [
            _parameters_schema(keys, campaign=campaign)
            for campaign, (_, keys) in CAMPAIGNS.items()
        ]
    },
}

REPORT_SCHEMA = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "type": "object",
    "required": ["schema_version", "command", "parameters", "result"],
    "allOf": [{"$ref": "#/$defs/command_parameters"}],
    "properties": {
        "schema_version": {"const": SCHEMA_VERSION},
        "command": {"enum": list(_PARAMETERS_DEFS)},
        "parameters": {"type": "object"},
        "result": {
            "type": "object",
            "minProperties": 1,
            "maxProperties": 1,
            "properties": {
                "selection": {"type": "array", "items": {"type": "string"}},
                **{key: {"$ref": f"#/$defs/{key}"} for key in _RESULT_KINDS},
                "rankings": {"type": "array", "items": {"type": "string"}},
                "count": {"type": "integer", "minimum": 0},
            },
            "additionalProperties": False,
        },
    },
    "additionalProperties": False,
    "$defs": {
        # Each command's parameters rule, applied by the top-level "allOf".
        "command_parameters": {
            "allOf": [
                {
                    "if": {"properties": {"command": {"const": command}}},
                    "then": {"properties": {"parameters": {"$ref": f"#/$defs/parameters/{command}"}}},
                }
                for command in _PARAMETERS_DEFS
            ]
        },
        "parameters": _PARAMETERS_DEFS,
        "witness": _object_schema(Witness),
        "mode": _MODE_SCHEMA,
        **{key: _object_schema(cls) for key, cls in _RESULT_KINDS.items()},
    },
}


def emit_report(command: str, parameters: dict, result_key: str, result, out=None) -> None:
    """Assemble, validate and print the JSON envelope."""
    document = {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "parameters": to_json(parameters),
        "result": {result_key: to_json(result)},
    }
    jsonschema.validate(document, REPORT_SCHEMA)
    print(json.dumps(document, sort_keys=True, indent=2), file=out or sys.stdout)


def _parameters(keys, args, **computed):
    """Envelope parameters of ``keys``: each computed value, else the parsed argument of that name."""
    values = vars(args) | computed
    return {key: values[key] for key in keys}


def _resolve_jobs(args) -> int:
    """Worker count: MILLRANK_JOBS, else --jobs, clamped to 1..cpu_count."""
    env = os.environ.get("MILLRANK_JOBS")
    try:
        jobs = int(env) if env else args.jobs
    except ValueError:
        raise MillrankError(f"MILLRANK_JOBS must be an integer, got {env!r}") from None
    return max(1, min(jobs, os.cpu_count() or 1))


def _mode_from_args(args):
    if args.sample is not None:
        return Sample(args.sample, 0 if args.seed is None else args.seed)
    if args.seed is not None:
        raise MillrankError("--seed only applies with --sample COUNT")
    return EXHAUSTIVE


def _count(minimum: int):
    """Argparse type of an integer count of at least ``minimum``."""

    def count(text: str) -> int:
        value = int(text)
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be at least {minimum}, got {value}")
        return value

    return count


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="millrank",
        description="Selection rules and axiom checks over coalitional rankings.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="apply a selection rule to one ranking")
    solve.add_argument("--rule", required=True, choices=sorted(RULES))
    solve.add_argument("--input", required=True, help="ranking file (.json for the JSON mirror)")

    check = sub.add_parser("check", help="check one axiom on one ranking")
    check.add_argument("--rule", required=True, choices=sorted(RULES))
    check.add_argument("--axiom", required=True)
    check.add_argument("--input", required=True)

    streamed = argparse.ArgumentParser(add_help=False)
    streamed.add_argument(
        "--sample", type=_count(1), help="draw this many rankings instead of enumerating"
    )
    streamed.add_argument("--seed", type=int, help="seed of --sample (default 0)")
    streamed.add_argument("--witness-cap", type=_count(0), default=10)
    streamed.add_argument("--jobs", type=int, default=1)

    sweep_cmd = sub.add_parser(
        "sweep", parents=[streamed], help="check one axiom over a whole ranking stream"
    )
    sweep_cmd.add_argument("--rule", required=True, choices=sorted(RULES))
    sweep_cmd.add_argument("--axiom", required=True)
    sweep_cmd.add_argument("--n", required=True, type=int)

    verify_cmd = sub.add_parser("verify", parents=[streamed], help="run a verification campaign")
    verify_cmd.add_argument("campaign", choices=list(CAMPAIGNS))
    verify_cmd.add_argument("--rule", choices=sorted(RULES), help="theorem1 only")
    verify_cmd.add_argument("--n", type=int)

    enum_cmd = sub.add_parser("enumerate", help="list every ranking of a small universe")
    enum_cmd.add_argument("--n", required=True, type=_count(0))
    enum_cmd.add_argument("--count-only", action="store_true")

    sample_cmd = sub.add_parser("sample", help="draw uniform random rankings")
    sample_cmd.add_argument("--n", required=True, type=int)
    sample_cmd.add_argument("--seed", required=True, type=int)
    sample_cmd.add_argument("--count", type=_count(1), default=1)

    return parser


def _cmd_solve(args) -> int:
    ranking = load_ranking(args.input)
    selection = lookup_rule(args.rule)(ranking)
    names = _names(ranking.universe, selection)
    emit_report("solve", _parameters(PARAMETERS["solve"], args), "selection", names)
    print(f"selected: {' '.join(names)}", file=sys.stderr)
    return 0


def _cmd_check(args) -> int:
    ranking = load_ranking(args.input)
    verdict = check_single(args.rule, args.axiom, ranking)
    parameters = _parameters(PARAMETERS["check"], args, axiom=args.axiom.upper())
    emit_report("check", parameters, "verdict", verdict)
    print(
        f"{args.rule} x {args.axiom.upper()}: {verdict.status}"
        f" ({verdict.premises_checked} premise(s))",
        file=sys.stderr,
    )
    return 1 if verdict.status == "violated" else 0


def _cmd_sweep(args) -> int:
    mode = _mode_from_args(args)
    started = time.perf_counter()
    report = sweep(
        args.rule,
        args.axiom,
        args.n,
        mode,
        jobs=_resolve_jobs(args),
        witness_cap=args.witness_cap,
    )
    parameters = _parameters(PARAMETERS["sweep"], args, axiom=report.axiom, mode=mode)
    emit_report("sweep", parameters, "sweep_report", report)
    print(
        f"{report.rule} x {report.axiom} n={report.n}: {report.rankings_checked} rankings,"
        f" {report.premises_found} premises, {report.violations} violations"
        f" in {time.perf_counter() - started:.1f}s",
        file=sys.stderr,
    )
    return 1 if report.violations else 0


def _cmd_verify(args) -> int:
    default_n, keys = CAMPAIGNS[args.campaign]
    for flag, key in _FLAG_KEYS.items():
        if getattr(args, flag) is not None and key not in keys:
            raise MillrankError(f"verify {args.campaign} does not take --{flag}")
    n = args.n if args.n is not None else default_n
    jobs = _resolve_jobs(args)
    cap = args.witness_cap
    if "rule" in keys and not args.rule:
        raise MillrankError(f"verify {args.campaign} needs --rule")
    mode = _mode_from_args(args)
    parameters = _parameters(("campaign", *keys), args, n=n, mode=mode)
    if args.campaign == "theorem1":
        report = theorem1_probe(args.rule, n, mode, jobs=jobs, witness_cap=cap)
        emit_report("verify", parameters, "theorem1_report", report)
        outcome = "equivalent to plurality" if report.equivalent else "differs from plurality"
        print(f"theorem1 {args.rule} n={n}: {outcome}", file=sys.stderr)
        return 0 if report.equivalent else 1
    if args.campaign == "prop1":
        report = prop1_report(n, jobs=jobs, witness_cap=cap)
        emit_report("verify", parameters, "prop1_report", report)
        clean = (
            report.incompatibility_certified
            and (report.lemma is None or report.lemma.counterexamples == 0)
            and (report.wrag_sweep is None or report.wrag_sweep.violations == 0)
            and (report.cv_sweep is None or report.cv_sweep.violations == 0)
        )
        print(f"prop1 n={n}: {'certified' if clean else 'FAILED'}", file=sys.stderr)
        return 0 if clean else 1
    if args.campaign == "prop3":
        report = prop3_matrix(n, mode, jobs=jobs, witness_cap=cap)
        emit_report("verify", parameters, "matrix_report", report)
        bad = report.discrepancies
        print(
            f"prop3 n={n}: {len(report.cells)} cells, {len(bad)} discrepancies",
            file=sys.stderr,
        )
        return 0 if not bad else 1
    report = independence_report(n, jobs=jobs, witness_cap=cap)
    emit_report("verify", parameters, "independence_report", report)
    print(f"independence n={n}: {report.discrepancy_count} discrepancies", file=sys.stderr)
    return 0 if not report.discrepancy_count else 1


def _cmd_enumerate(args) -> int:
    if args.n > 4:
        raise UniverseTooLargeError(
            f"enumerate refuses n={args.n} (> 4); use the sample command instead"
        )
    parameters = _parameters(PARAMETERS["enumerate"], args)
    if args.count_only:
        total = fubini((1 << args.n) - 1)
        emit_report("enumerate", parameters, "count", total)
        print(f"{total} rankings at n={args.n}", file=sys.stderr)
        return 0
    rendered = [render_ranking(r) for r in RankingStream(Universe(args.n))]
    emit_report("enumerate", parameters, "rankings", rendered)
    print(f"enumerated {len(rendered)} rankings at n={args.n}", file=sys.stderr)
    return 0


def _cmd_sample(args) -> int:
    stream = RankingStream(Universe(args.n), Sample(args.count, args.seed))
    rendered = [render_ranking(r) for r in stream]
    emit_report("sample", _parameters(PARAMETERS["sample"], args), "rankings", rendered)
    print(f"sampled {len(rendered)} ranking(s) at n={args.n}", file=sys.stderr)
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "solve": _cmd_solve,
        "check": _cmd_check,
        "sweep": _cmd_sweep,
        "verify": _cmd_verify,
        "enumerate": _cmd_enumerate,
        "sample": _cmd_sample,
    }
    try:
        return handlers[args.command](args)
    except (MillrankError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
