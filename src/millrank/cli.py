"""Command-line front end and the JSON report surface.

Subcommands: solve, check, sweep, verify (theorem1 | prop1 | prop3 |
independence), enumerate, sample. Every command prints one JSON report
on stdout (schema below, validated on emission) and a short human
summary on stderr. Exit codes: 0 when satisfied or equivalent, 1 when a
violation or difference was found, 2 on usage or input errors.

Reports are byte-identical for identical arguments; the worker count
(--jobs, overridden by the MILLRANK_JOBS environment variable) and wall
times are execution details and never appear in the JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import jsonschema

from .axioms import Verdict, Witness
from .core import mask_members
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
]
from .verify import (
    MatrixReport,
    SweepReport,
    check_single,
    independence_report,
    prop1_report,
    prop3_matrix,
    sweep,
    theorem1_probe,
)

SCHEMA_VERSION = "1"

_WITNESS_SCHEMA = {
    "type": "object",
    "required": ["axiom", "ranking", "premise", "expected", "actual"],
    "properties": {
        "axiom": {"type": "string"},
        "ranking": {"type": "string"},
        "premise": {"type": "object"},
        "expected": {"type": "string"},
        "actual": {"type": "object"},
    },
    "additionalProperties": False,
}

_VERDICT_SCHEMA = {
    "type": "object",
    "required": ["status", "premises_checked", "witness"],
    "properties": {
        "status": {"enum": ["inapplicable", "satisfied", "violated"]},
        "premises_checked": {"type": "integer", "minimum": 0},
        "witness": {"oneOf": [{"type": "null"}, {"$ref": "#/$defs/witness"}]},
    },
    "additionalProperties": False,
}

_MODE_SCHEMA = {
    "oneOf": [
        {
            "type": "object",
            "required": ["exhaustive"],
            "properties": {"exhaustive": {"const": True}},
            "additionalProperties": False,
        },
        {
            "type": "object",
            "required": ["sample"],
            "properties": {
                "sample": {
                    "type": "object",
                    "required": ["count", "seed"],
                    "properties": {
                        "count": {"type": "integer", "minimum": 0},
                        "seed": {"type": "integer"},
                    },
                    "additionalProperties": False,
                }
            },
            "additionalProperties": False,
        },
    ]
}

_SWEEP_SCHEMA = {
    "type": "object",
    "required": [
        "rule",
        "axiom",
        "n",
        "mode",
        "rankings_checked",
        "premises_found",
        "violations",
        "verdict",
        "witness_cap",
        "witnesses",
    ],
    "properties": {
        "rule": {"type": "string"},
        "axiom": {"type": "string"},
        "n": {"type": "integer", "minimum": 1},
        "mode": {"$ref": "#/$defs/mode"},
        "rankings_checked": {"type": "integer", "minimum": 0},
        "premises_found": {"type": "integer", "minimum": 0},
        "violations": {"type": "integer", "minimum": 0},
        "verdict": {"enum": ["inapplicable", "satisfied", "violated"]},
        "witness_cap": {"type": "integer", "minimum": 0},
        "witnesses": {"type": "array", "items": {"$ref": "#/$defs/witness"}},
    },
    "additionalProperties": False,
}

REPORT_SCHEMA = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "type": "object",
    "required": ["schema_version", "command", "parameters", "result"],
    "properties": {
        "schema_version": {"const": SCHEMA_VERSION},
        "command": {"type": "string"},
        "parameters": {"type": "object"},
        "result": {
            "type": "object",
            "minProperties": 1,
            "maxProperties": 1,
            "properties": {
                "selection": {"type": "array", "items": {"type": "string"}},
                "verdict": {"$ref": "#/$defs/verdict"},
                "sweep_report": {"$ref": "#/$defs/sweep_report"},
                "matrix_report": {"type": "object"},
                "theorem1_report": {"type": "object"},
                "prop1_report": {"type": "object"},
                "independence_report": {"type": "object"},
                "rankings": {"type": "array", "items": {"type": "string"}},
                "count": {"type": "integer", "minimum": 0},
            },
            "additionalProperties": False,
        },
    },
    "additionalProperties": False,
    "$defs": {
        "witness": _WITNESS_SCHEMA,
        "verdict": _VERDICT_SCHEMA,
        "mode": _MODE_SCHEMA,
        "sweep_report": _SWEEP_SCHEMA,
    },
}


def _name_list(universe, ids):
    return [universe.names[i] for i in ids]


def _coalition(universe, mask):
    return _name_list(universe, mask_members(mask, universe.n))


def _premise_to_dict(premise: dict, universe) -> dict:
    out = {}
    for key, value in premise.items():
        if key in ("x", "y"):
            out[key] = universe.names[value]
        elif key in ("s0", "s"):
            out[key] = _coalition(universe, value)
        elif key in ("concomitant", "top_intersection"):
            out[key] = _name_list(universe, value)
        elif key == "move":
            assert isinstance(value, SlideMove)
            out[key] = {
                "from_class": value.k1,
                "to_class": value.k2,
                "gamma": [_coalition(universe, m) for m in value.gamma],
            }
        elif key == "placement":
            assert isinstance(value, DeteriorationSpec)
            out[key] = {
                "subject": _coalition(universe, value.subject),
                "kind": value.kind,
                "class_index": value.k,
            }
        elif key == "ranking_after":
            out[key] = render_ranking(value)
        else:
            out[key] = value
    return out


def witness_to_dict(witness: Witness) -> dict:
    universe = witness.ranking.universe
    actual = {
        key: _name_list(universe, value) if isinstance(value, tuple) else value
        for key, value in witness.actual.items()
    }
    return {
        "axiom": witness.axiom,
        "ranking": render_ranking(witness.ranking),
        "premise": _premise_to_dict(witness.premise, universe),
        "expected": witness.expected,
        "actual": actual,
    }


def verdict_to_dict(verdict: Verdict) -> dict:
    return {
        "status": verdict.status,
        "premises_checked": verdict.premises_checked,
        "witness": witness_to_dict(verdict.witness) if verdict.witness else None,
    }


def mode_to_dict(mode) -> dict:
    if mode == EXHAUSTIVE:
        return {"exhaustive": True}
    return {"sample": {"count": mode.count, "seed": mode.seed}}


def sweep_to_dict(report: SweepReport) -> dict:
    return {
        "rule": report.rule,
        "axiom": report.axiom,
        "n": report.n,
        "mode": mode_to_dict(report.mode),
        "rankings_checked": report.rankings_checked,
        "premises_found": report.premises_found,
        "violations": report.violations,
        "verdict": report.verdict,
        "witness_cap": report.witness_cap,
        "witnesses": [witness_to_dict(w) for w in report.witnesses],
    }


def matrix_to_dict(report: MatrixReport) -> dict:
    return {
        "n": report.n,
        "mode": mode_to_dict(report.mode),
        "rules": list(report.rules),
        "axioms": list(report.axioms),
        "cells": [
            {
                "rule": cell.rule,
                "axiom": cell.axiom,
                "expected": cell.expected,
                "expected_alt": cell.expected_alt,
                "verdict": cell.verdict,
                "confirmed": cell.confirmed,
                "discrepancy": cell.discrepancy,
                "sweep": sweep_to_dict(cell.sweep),
            }
            for cell in report.cells
        ],
    }


def theorem1_to_dict(report: dict) -> dict:
    difference = report["difference"]
    if difference is not None:
        universe = difference["ranking"].universe
        difference = {
            "ranking": render_ranking(difference["ranking"]),
            "selection": _name_list(universe, difference["selection"]),
            "plurality_selection": _name_list(universe, difference["plurality_selection"]),
        }
    return {
        "rule": report["rule"],
        "n": report["n"],
        "mode": mode_to_dict(report["mode"]),
        "equivalent": report["equivalent"],
        "rankings_compared": report["rankings_compared"],
        "difference": difference,
        "witness": witness_to_dict(report["witness"]) if report["witness"] else None,
        "sweeps": [sweep_to_dict(s) for s in report["sweeps"]] if report["sweeps"] else None,
    }


def prop1_to_dict(report: dict) -> dict:
    constructions = []
    for c in report["constructions"]:
        universe = c["ranking"].universe
        constructions.append(
            {
                "x": universe.names[c["x"]],
                "y": universe.names[c["y"]],
                "ranking": render_ranking(c["ranking"]),
                "rdf_premise_holds": c["rdf_premise_holds"],
                "rdf_forces": _name_list(universe, c["rdf_forces"]) if c["rdf_forces"] else None,
                "concomitant": _name_list(universe, c["concomitant"]),
                "jointly_unsatisfiable": c["jointly_unsatisfiable"],
            }
        )
    return {
        "n": report["n"],
        "constructions": constructions,
        "incompatibility_certified": report["incompatibility_certified"],
        "lemma": report["lemma"],
        "wrag_sweep": sweep_to_dict(report["wrag_sweep"]) if report["wrag_sweep"] else None,
        "cv_sweep": sweep_to_dict(report["cv_sweep"]) if report["cv_sweep"] else None,
    }


def independence_to_dict(report: dict) -> dict:
    claims = []
    for claim in report["claims"]:
        claims.append(
            {
                "rule": claim["rule"],
                "axiom": claim["axiom"],
                "expected": claim["expected"],
                "verdict": claim["verdict"],
                "discrepancy": claim["discrepancy"],
                "evidence_kind": claim["evidence_kind"],
                "sweep": sweep_to_dict(claim["sweep"]) if claim["sweep"] else None,
                "witness": witness_to_dict(claim["witness"]) if claim["witness"] else None,
            }
        )
    return {
        "n": report["n"],
        "claims": claims,
        "discrepancy_count": len(report["discrepancies"]),
    }


def emit_report(command: str, parameters: dict, result_key: str, result, out=None) -> None:
    """Assemble, validate and print the JSON envelope."""
    document = {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "parameters": parameters,
        "result": {result_key: result},
    }
    jsonschema.validate(document, REPORT_SCHEMA)
    print(json.dumps(document, sort_keys=True, indent=2), file=out or sys.stdout)


def _resolve_jobs(args) -> int:
    """Worker count: MILLRANK_JOBS, else --jobs, clamped to 1..cpu_count."""
    env = os.environ.get("MILLRANK_JOBS")
    jobs = int(env) if env else args.jobs
    return max(1, min(jobs, os.cpu_count() or 1))


def _mode_from_args(args):
    if args.sample is not None:
        return Sample(args.sample, args.seed)
    return EXHAUSTIVE


def _sample_count(text: str) -> int:
    count = int(text)
    if count < 1:
        raise argparse.ArgumentTypeError(f"sample count must be at least 1, got {count}")
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

    sweep_cmd = sub.add_parser("sweep", help="check one axiom over a whole ranking stream")
    sweep_cmd.add_argument("--rule", required=True, choices=sorted(RULES))
    sweep_cmd.add_argument("--axiom", required=True)
    sweep_cmd.add_argument("--n", required=True, type=int)
    sweep_cmd.add_argument(
        "--sample", type=_sample_count, help="draw this many rankings instead of enumerating"
    )
    sweep_cmd.add_argument("--seed", type=int, default=0)
    sweep_cmd.add_argument("--witness-cap", type=int, default=10)
    sweep_cmd.add_argument("--jobs", type=int, default=1)

    verify_cmd = sub.add_parser("verify", help="run a verification campaign")
    verify_cmd.add_argument(
        "campaign", choices=["theorem1", "prop1", "prop3", "independence"]
    )
    verify_cmd.add_argument("--rule", choices=sorted(RULES), help="theorem1 only")
    verify_cmd.add_argument("--n", type=int)
    verify_cmd.add_argument("--sample", type=_sample_count)
    verify_cmd.add_argument("--seed", type=int, default=0)
    verify_cmd.add_argument("--witness-cap", type=int, default=10)
    verify_cmd.add_argument("--jobs", type=int, default=1)

    enum_cmd = sub.add_parser("enumerate", help="list every ranking of a small universe")
    enum_cmd.add_argument("--n", required=True, type=int)
    enum_cmd.add_argument("--count-only", action="store_true")

    sample_cmd = sub.add_parser("sample", help="draw uniform random rankings")
    sample_cmd.add_argument("--n", required=True, type=int)
    sample_cmd.add_argument("--seed", required=True, type=int)
    sample_cmd.add_argument("--count", type=int, default=1)

    return parser


def _cmd_solve(args) -> int:
    ranking = load_ranking(args.input)
    selection = lookup_rule(args.rule)(ranking)
    names = _name_list(ranking.universe, selection)
    emit_report("solve", {"rule": args.rule, "input": args.input}, "selection", names)
    print(f"selected: {' '.join(names)}", file=sys.stderr)
    return 0


def _cmd_check(args) -> int:
    ranking = load_ranking(args.input)
    verdict = check_single(args.rule, args.axiom, ranking)
    emit_report(
        "check",
        {"rule": args.rule, "axiom": args.axiom.upper(), "input": args.input},
        "verdict",
        verdict_to_dict(verdict),
    )
    print(
        f"{args.rule} x {args.axiom.upper()}: {verdict.status}"
        f" ({verdict.premises_checked} premise(s))",
        file=sys.stderr,
    )
    return 1 if verdict.status == "violated" else 0


def _cmd_sweep(args) -> int:
    mode = _mode_from_args(args)
    if mode == EXHAUSTIVE and args.n > 4:
        raise UniverseTooLargeError(
            f"exhaustive sweeps support n <= 4; pass --sample COUNT for n={args.n}"
        )
    report = sweep(
        args.rule,
        args.axiom,
        args.n,
        mode,
        jobs=_resolve_jobs(args),
        witness_cap=args.witness_cap,
    )
    parameters = {
        "rule": args.rule,
        "axiom": report.axiom,
        "n": args.n,
        "mode": mode_to_dict(mode),
        "witness_cap": args.witness_cap,
    }
    emit_report("sweep", parameters, "sweep_report", sweep_to_dict(report))
    print(
        f"{report.rule} x {report.axiom} n={report.n}: {report.rankings_checked} rankings,"
        f" {report.premises_found} premises, {report.violations} violations"
        f" in {report.wall_time:.1f}s",
        file=sys.stderr,
    )
    return 1 if report.violations else 0


def _cmd_verify(args) -> int:
    jobs = _resolve_jobs(args)
    cap = args.witness_cap
    if args.campaign == "theorem1":
        if not args.rule:
            raise MillrankError("verify theorem1 needs --rule")
        n = args.n if args.n is not None else 3
        mode = _mode_from_args(args)
        if mode == EXHAUSTIVE and n > 4:
            raise UniverseTooLargeError("exhaustive probes support n <= 4; pass --sample COUNT")
        report = theorem1_probe(args.rule, n, mode, jobs=jobs, witness_cap=cap)
        parameters = {"campaign": "theorem1", "rule": args.rule, "n": n, "mode": mode_to_dict(mode)}
        emit_report("verify", parameters, "theorem1_report", theorem1_to_dict(report))
        outcome = "equivalent to plurality" if report["equivalent"] else "differs from plurality"
        print(f"theorem1 {args.rule} n={n}: {outcome}", file=sys.stderr)
        return 0 if report["equivalent"] else 1
    if args.campaign == "prop1":
        n = args.n if args.n is not None else 3
        report = prop1_report(n, jobs=jobs, witness_cap=cap)
        emit_report(
            "verify", {"campaign": "prop1", "n": n}, "prop1_report", prop1_to_dict(report)
        )
        lemma = report["lemma"]
        clean = (
            report["incompatibility_certified"]
            and (lemma is None or lemma["counterexamples"] == 0)
            and (report["wrag_sweep"] is None or report["wrag_sweep"].violations == 0)
            and (report["cv_sweep"] is None or report["cv_sweep"].violations == 0)
        )
        print(f"prop1 n={n}: {'certified' if clean else 'FAILED'}", file=sys.stderr)
        return 0 if clean else 1
    if args.campaign == "prop3":
        n = args.n if args.n is not None else 3
        mode = _mode_from_args(args)
        if mode == EXHAUSTIVE and n > 3:
            raise UniverseTooLargeError("exhaustive matrices support n <= 3; pass --sample COUNT")
        report = prop3_matrix(n, mode, jobs=jobs, witness_cap=cap)
        parameters = {"campaign": "prop3", "n": n, "mode": mode_to_dict(mode)}
        emit_report("verify", parameters, "matrix_report", matrix_to_dict(report))
        bad = report.discrepancies
        print(
            f"prop3 n={n}: {len(report.cells)} cells, {len(bad)} discrepancies",
            file=sys.stderr,
        )
        return 0 if not bad else 1
    n = args.n if args.n is not None else 4
    report = independence_report(n, jobs=jobs, witness_cap=cap)
    emit_report(
        "verify",
        {"campaign": "independence", "n": n},
        "independence_report",
        independence_to_dict(report),
    )
    bad = report["discrepancies"]
    print(f"independence n={n}: {len(bad)} discrepancies", file=sys.stderr)
    return 0 if not bad else 1


def _cmd_enumerate(args) -> int:
    if args.n > 4:
        raise UniverseTooLargeError(
            f"enumerate refuses n={args.n} (> 4); use the sample command instead"
        )
    parameters = {"n": args.n, "count_only": bool(args.count_only)}
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
    parameters = {"n": args.n, "seed": args.seed, "count": args.count}
    emit_report("sample", parameters, "rankings", rendered)
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
