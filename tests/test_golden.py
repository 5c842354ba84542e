"""Golden-report gate: reports stay byte-identical across refactors.

``golden/reports.json`` maps each command line to the sha256 of the
report it printed on stdout and to its exit code, as recorded from a
known-good tree. The cells are every rule x axiom ``sweep`` in three
settings (exhaustive at n = 2, sampled at n = 3 and at n = 4 under
fixed seeds), every rule x axiom ``check`` and every rule's ``solve``
on the pinned instances of ``test_verify.py``, the ``verify`` campaigns
at small sizes, the exhaustive n = 3 ``prop3``, ``prop1`` and plurality
``theorem1`` campaigns (each also with ``--jobs 2``), the exhaustive
n = 3 ``theorem1`` campaign of every other rule through a two-worker
pool, two sampled ``DMON`` sweeps split into three
chunks and run through a two-worker pool, two sampled n = 3 ``theorem1``
probes, every exhaustive n = 3 ``SI``, ``DMON`` and premise-only sweep
through a two-worker pool, the ``verify independence --n 4`` report
with ``--jobs 2`` and at witness caps 0 and 1, and the ``enumerate``
and ``sample`` listings. The ``verify independence --n 4`` report
takes about 3 s to build, and ``test_cli.py`` checks it against the session fixture that builds it
once instead of building it again here. A mismatch is fixed in the
code, never by recording the file again.
"""

import hashlib
import io
import json
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from millrank import render_ranking, verify
from millrank.cli import main
from helpers import rk

GOLDEN_PATH = Path(__file__).parent / "golden" / "reports.json"

RULE_IDS = ("plurality", "les", "obi", "split_plurality", "f_star", "const_x")
AXIOM_IDS = ("TAG", "STAG", "TDF", "TJAD", "CV", "RAG", "WRAG", "RDF", "RJAD", "SI", "DMON")

SWEEP_SETTINGS = {
    "sweep-n2": ("--n", "2"),
    "sweep-n3-sampled": ("--n", "3", "--sample", "200", "--seed", "5"),
    "sweep-n4-sampled": ("--n", "4", "--sample", "100", "--seed", "3"),
}

# File name -> (shorthand, n) of the instances pinned in test_verify.py.
PINNED = {
    "les_stag.rank": ("12 / 1 / rest", 3),
    "les_cv.rank": ("12 / 2 / 1 13 123 / rest", 3),
    "obi_tag.rank": ("1 / 2 23 / 12 123 / 3 13", 3),
    "f_star_si.rank": ("1 2 12 / 3 / rest", 3),
    "split_plurality_si.rank": ("1 2 23 14 / rest", 4),
}


# Cells run by test_reports_match_golden, beyond the rule x axiom grids.
FIXED_CELLS = {
    "campaigns": (
        *(("verify", "theorem1", "--rule", rule, "--n", "2") for rule in RULE_IDS),
        ("verify", "theorem1", "--rule", "f_star", "--n", "3"),
        ("verify", "theorem1", "--rule", "plurality", "--n", "4", "--sample", "30", "--seed", "2"),
        ("verify", "theorem1", "--rule", "obi", "--n", "4", "--sample", "50", "--seed", "2"),
        ("verify", "prop1", "--n", "4"),
        ("verify", "prop3", "--n", "3", "--sample", "60", "--seed", "1"),
        ("verify", "prop3", "--n", "4", "--sample", "40", "--seed", "2"),
    ),
    "listings": (
        ("enumerate", "--n", "2"),
        ("enumerate", "--n", "3", "--count-only"),
        ("sample", "--n", "4", "--seed", "3", "--count", "5"),
    ),
    # The exhaustive n = 3 premise campaigns, inline and through a two-worker pool.
    "campaigns-exhaustive": (
        ("verify", "prop3", "--n", "3"),
        ("verify", "prop3", "--n", "3", "--jobs", "2"),
        ("verify", "prop1", "--n", "3"),
        ("verify", "prop1", "--n", "3", "--jobs", "2"),
    ),
    # The exhaustive n = 3 SI and DMON campaign, inline and through a two-worker pool.
    "theorem1-exhaustive": (
        ("verify", "theorem1", "--rule", "plurality", "--n", "3"),
        ("verify", "theorem1", "--rule", "plurality", "--n", "3", "--jobs", "2"),
    ),
    # The pooled difference scan of each rule that differs from plurality: les
    # first differs at the 4,684th ranking, in the third chunk, and
    # split_plurality at the 5,574th, so these pin the in-order merge and the
    # early stop.
    "theorem1-differences": tuple(
        ("verify", "theorem1", "--rule", rule, "--n", "3", "--jobs", "2")
        for rule in ("f_star", "obi", "les", "split_plurality", "const_x")
    ),
    # The inline witness search of each declared best-class rule that differs
    # from plurality; each report equals its --jobs 2 twin above.
    "theorem1-witness-inline": tuple(
        ("verify", "theorem1", "--rule", rule, "--n", "3")
        for rule in ("split_plurality", "const_x")
    ),
    # Three chunks each through a two-worker pool: pins witness order across chunks.
    "sweep-pooled": tuple(
        ("sweep", "--rule", rule, "--axiom", "DMON", "--n", "3", "--sample", "5000", "--seed", "4",
         "--witness-cap", "50", "--jobs", "2")
        for rule in ("f_star", "obi")
    ),
    # Sampled n = 3 theorem1 probes, whose checkers call the rule on every
    # target, and an exhaustive DMON sweep whose violations and witnesses are
    # read through the selection tables.
    "selection-tables": (
        ("verify", "theorem1", "--rule", "les", "--n", "3", "--sample", "3000", "--seed", "2"),
        ("verify", "theorem1", "--rule", "split_plurality", "--n", "3", "--sample", "3000",
         "--seed", "2"),
        ("sweep", "--rule", "obi", "--axiom", "DMON", "--n", "3", "--jobs", "2"),
    ),
    # Every other exhaustive n = 3 SI and DMON sweep through a two-worker pool:
    # the best-class rules read their targets by best class, the others
    # through their stream-indexed tables.
    "si-dmon-exhaustive": tuple(
        ("sweep", "--rule", rule, "--axiom", axiom, "--n", "3", "--jobs", "2")
        for rule in RULE_IDS
        for axiom in ("SI", "DMON")
        if (rule, axiom) != ("obi", "DMON")
    ),
    # Every exhaustive n = 3 premise-only sweep through a two-worker pool.
    "premise-exhaustive": tuple(
        ("sweep", "--rule", rule, "--axiom", axiom, "--n", "3", "--jobs", "2")
        for rule in RULE_IDS
        for axiom in AXIOM_IDS[:9]
    ),
    # One pooled pass sweeps the six cells and the f_star x DMON witness cell,
    # reading the undeclared rules by stream index.
    "independence-pooled": (("verify", "independence", "--n", "4", "--jobs", "2"),),
    # The independence report with its printed witness lists trimmed below the
    # cap of one at which its pass sweeps the f_star x DMON cell.
    "independence-caps": tuple(
        ("verify", "independence", "--n", "4", "--witness-cap", cap) for cap in ("0", "1")
    ),
}

# Recorded here, checked by test_cli.py against the session fixture.
INDEPENDENCE_CELL = "verify independence --n 4"


def commands(group):
    """Argument lists of one group of golden cells, in a fixed order."""
    if group == "check-pinned":
        return [
            ["check", "--rule", rule, "--axiom", axiom, "--input", name]
            for name in PINNED
            for rule in RULE_IDS
            for axiom in AXIOM_IDS
        ]
    if group == "solve-pinned":
        return [["solve", "--rule", rule, "--input", name] for name in PINNED for rule in RULE_IDS]
    if group in FIXED_CELLS:
        return [list(argv) for argv in FIXED_CELLS[group]]
    return [
        ["sweep", "--rule", rule, "--axiom", axiom, *SWEEP_SETTINGS[group]]
        for rule in RULE_IDS
        for axiom in AXIOM_IDS
    ]


GROUPS = (*SWEEP_SETTINGS, "check-pinned", "solve-pinned", *FIXED_CELLS)


def write_pinned(directory: Path):
    for name, (shorthand, n) in PINNED.items():
        (directory / name).write_text(render_ranking(rk(shorthand, n)))


def run_cell(argv):
    """(sha256 of stdout, exit code) of one in-process CLI run."""
    out = io.StringIO()
    with redirect_stdout(out):
        code = main(argv)
    return hashlib.sha256(out.getvalue().encode()).hexdigest(), code


def test_golden_file_covers_every_cell():
    golden = json.loads(GOLDEN_PATH.read_text())
    expected = {" ".join(argv) for group in GROUPS for argv in commands(group)}
    assert set(golden) == expected | {INDEPENDENCE_CELL}


@pytest.mark.parametrize("group", GROUPS)
def test_reports_match_golden(group, tmp_path, monkeypatch):
    golden = json.loads(GOLDEN_PATH.read_text())
    write_pinned(tmp_path)
    monkeypatch.chdir(tmp_path)  # check reports name the relative input path
    mismatches = []
    for argv in commands(group):
        line = " ".join(argv)
        digest, code = run_cell(argv)
        want = golden[line]
        if (digest, code) != (want["stdout_sha256"], want["exit_code"]):
            mismatches.append(f"millrank {line}: exit {code}, expected {want['exit_code']}")
    assert not mismatches, "reports differ from the golden record:\n" + "\n".join(mismatches)


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_theorem1_in_small_chunks_matches_golden(jobs, monkeypatch):
    # Four chunks of the 13 rankings at n = 2, each scanned and swept in turn.
    monkeypatch.setattr(verify, "_CHUNK", 4)
    golden = json.loads(GOLDEN_PATH.read_text())
    for rule in RULE_IDS:
        argv = ["verify", "theorem1", "--rule", rule, "--n", "2"]
        want = golden[" ".join(argv)]
        assert run_cell(argv + ["--jobs", jobs]) == (want["stdout_sha256"], want["exit_code"]), rule
