"""Acceptance gate: one test (and one printed pass/fail line) per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see every line.
Criterion 5a asserts that f_star keeps slide independence exhaustively
at n = 3; the exhaustive sweep refutes that expectation, so the clause
is expected to fail and is left failing on purpose. The independence
report carries the same fact as a flagged discrepancy with a witness.
"""

import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from itertools import permutations

import millrank as mr
from helpers import all_placements, cmask, rk, sel

TIMING_BUDGET_ENUMERATION = 5.0
TIMING_BUDGET_THEOREM1 = 600.0


def report_line(num, label, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    tail = f" - {detail}" if detail else ""
    print(f"\nACCEPTANCE {num} [{label}]: {status}{tail}")
    return ok


def test_criterion_1_enumeration_counts():
    started = time.perf_counter()
    n3_total = sum(1 for _ in mr.enumerate_rankings(3))
    elapsed = time.perf_counter() - started
    n1_total = sum(1 for _ in mr.enumerate_rankings(1))
    n2_total = sum(1 for _ in mr.enumerate_rankings(2))
    counts_ok = (
        n1_total == 1 == mr.fubini(1)
        and n2_total == 13 == mr.fubini(3)
        and n3_total == 47293 == mr.fubini(7)
    )
    ok = counts_ok and elapsed < TIMING_BUDGET_ENUMERATION
    report_line(
        1,
        "enumeration counts",
        ok,
        f"1/{n1_total} 13/{n2_total} 47293/{n3_total}, n=3 in {elapsed:.2f}s",
    )
    assert counts_ok
    assert elapsed < TIMING_BUDGET_ENUMERATION


def test_criterion_2_characterization_if_direction():
    started = time.perf_counter()
    sweeps = mr.theorem1_probe("plurality", 3).sweeps
    total_time = time.perf_counter() - started
    clean = all(s.violations == 0 and s.rankings_checked == 47293 for s in sweeps)
    premised = all(s.premises_found > 0 for s in sweeps)
    ok = clean and premised and total_time < TIMING_BUDGET_THEOREM1
    detail = ", ".join(f"{s.axiom}: 0/{s.premises_found}" for s in sweeps)
    report_line(2, "plurality passes STAG SI DMON exhaustively", ok, f"{detail}, {total_time:.0f}s")
    assert clean and premised
    assert total_time < TIMING_BUDGET_THEOREM1


def test_criterion_3_characterization_only_if_probe():
    failures = []
    for rule_id in ("les", "obi", "split_plurality", "f_star", "const_x"):
        probe = mr.theorem1_probe(rule_id, 3)
        rule = mr.lookup_rule(rule_id)
        difference = probe.difference
        witness = probe.witness
        good = (
            not probe.equivalent
            and difference is not None
            and rule(difference.ranking) != mr.plurality(difference.ranking)
            and witness is not None
            and witness.axiom in ("STAG", "SI", "DMON")
            and mr.replay(witness, rule).status == mr.VIOLATED
        )
        if not good:
            failures.append(rule_id)
    ok = not failures
    report_line(3, "every other rule differs and yields a replayable witness", ok,
                f"failing rules: {failures}" if failures else "5 rules probed at n=3")
    assert not failures


def test_criterion_4_satisfaction_matrix(matrix_n3):
    cells = {(c.rule, c.axiom): c for c in matrix_n3.cells}
    problems = []

    def expect(rule, axiom, verdict):
        if cells[(rule, axiom)].verdict != verdict:
            problems.append(f"{rule}/{axiom} is {cells[(rule, axiom)].verdict}, wanted {verdict}")

    for axiom in ("STAG", "TAG", "TDF", "TJAD", "CV"):
        expect("plurality", axiom, "satisfied")
    for axiom in ("TAG", "TDF", "TJAD"):
        expect("les", axiom, "satisfied")
    expect("les", "STAG", "violated")
    expect("les", "CV", "violated")
    for axiom in ("TDF", "TJAD"):
        expect("obi", axiom, "satisfied")
    expect("obi", "STAG", "violated")
    expect("obi", "TAG", "violated")

    if mr.check_single("les", "STAG", rk("12 / 1 / rest")).status != mr.VIOLATED:
        problems.append("named les/STAG witness did not violate")
    if mr.check_single("les", "CV", rk("12 / 2 / 1 13 123 / rest")).status != mr.VIOLATED:
        problems.append("named les/CV witness did not violate")
    if mr.check_single("obi", "TAG", rk("1 / 2 23 / 12 123 / 3 13")).status != mr.VIOLATED:
        problems.append("named obi/TAG witness did not violate")

    cv_cell = cells[("obi", "CV")]
    flagged = cv_cell.expected_alt == "violated" and cv_cell.verdict != cv_cell.expected_alt
    if not flagged:
        problems.append("obi/CV statement conflict not flagged")

    ok = not problems
    report_line(4, "satisfaction matrix at n=3", ok,
                "; ".join(problems) if problems else
                f"15 cells exhaustive, obi/CV = {cv_cell.verdict} with statement flag")
    assert not problems


def test_criterion_5a_f_star_keeps_stag_and_si_loses_dmon(independence_n4):
    claims = {(c.rule, c.axiom): c for c in independence_n4.claims}
    stag_clean = claims[("f_star", "STAG")].verdict == "satisfied"
    dmon_broken = claims[("f_star", "DMON")].verdict == "violated"
    dmon_witness = claims[("f_star", "DMON")].witness
    dmon_replay = (
        dmon_witness is not None
        and mr.replay(dmon_witness, mr.f_star).status == mr.VIOLATED
    )
    si_claim = claims[("f_star", "SI")]
    si_clean = si_claim.verdict == "satisfied"
    ok = stag_clean and dmon_broken and dmon_replay and si_clean
    detail = (
        f"STAG clean: {stag_clean}, DMON violated with witness: {dmon_broken and dmon_replay}, "
        f"SI clean: {si_clean}"
        + (
            ""
            if si_clean
            else f" ({si_claim.sweep.violations} violating rankings; the expectation is refuted)"
        )
    )
    report_line("5a", "f_star keeps STAG and SI, loses DMON", ok, detail)
    assert stag_clean
    assert dmon_broken and dmon_replay
    assert si_clean, (
        "f_star was expected to keep slide independence exhaustively at n=3, but "
        f"{si_claim.sweep.violations} rankings violate it; first witness: "
        f"{si_claim.sweep.witnesses[0].ranking!r} with move "
        f"{si_claim.sweep.witnesses[0].premise['move']}"
    )


def test_criterion_5b_split_plurality_keeps_stag_dmon_loses_si(independence_n4):
    claims = {(c.rule, c.axiom): c for c in independence_n4.claims}
    stag_clean = claims[("split_plurality", "STAG")].verdict == "satisfied"
    dmon_clean = claims[("split_plurality", "DMON")].verdict == "satisfied"
    base, move, slid = mr.split_plurality_slide_instance(4)
    instance_ok = (
        base == rk("1 2 23 14 / rest", n=4)
        and set(move.gamma) == {cmask("14"), cmask("2")}
        and mr.split_plurality(base) == sel("12")
        and mr.split_plurality(slid) == sel("1")
        and claims[("split_plurality", "SI")].verdict == "violated"
    )
    ok = stag_clean and dmon_clean and instance_ok
    report_line("5b", "split_plurality keeps STAG and DMON, loses SI on the pinned slide", ok,
                f"STAG: {stag_clean}, DMON: {dmon_clean}, slide instance: {instance_ok}")
    assert stag_clean and dmon_clean and instance_ok


def test_criterion_5c_les_keeps_si_dmon_loses_stag(independence_n4):
    claims = {(c.rule, c.axiom): c for c in independence_n4.claims}
    si_clean = claims[("les", "SI")].verdict == "satisfied"
    dmon_clean = claims[("les", "DMON")].verdict == "satisfied"
    instance = mr.les_stag_instance()
    stag_broken = (
        instance == rk("12 / 1 / rest")
        and claims[("les", "STAG")].verdict == "violated"
        and mr.check_single("les", "STAG", instance).status == mr.VIOLATED
    )
    ok = si_clean and dmon_clean and stag_broken
    report_line("5c", "les keeps SI and DMON, loses STAG on the pinned instance", ok,
                f"SI: {si_clean}, DMON: {dmon_clean}, STAG instance: {stag_broken}")
    assert si_clean and dmon_clean and stag_broken


def test_criterion_6_relative_reading_incompatibility(prop1_n3):
    construction_ok = prop1_n3.incompatibility_certified
    pinned = next(
        c for c in prop1_n3.constructions if (c.x, c.y) == (0, 1)
    )
    pinned_ok = (
        pinned.ranking == rk("12 123 / 1 13 / 2 23 / 3")
        and (cmask("2"), 0) in mr.axioms.rdf_premises(pinned.ranking)
        and pinned.rdf_forces == sel("1")
        and sel("2")[0] in pinned.concomitant
    )
    lemma = prop1_n3.lemma
    lemma_ok = lemma.rankings_checked == 47293 and lemma.counterexamples == 0
    const_ok = (
        prop1_n3.wrag_sweep.violations == 0
        and prop1_n3.cv_sweep.violations == 0
        and prop1_n3.wrag_sweep.premises_found > 0
    )
    ok = construction_ok and pinned_ok and lemma_ok and const_ok
    report_line(
        6,
        "relative difference forces {1} while 2 is concomitant; agreement lemma; const rule",
        ok,
        f"constructions: {construction_ok}, pinned: {pinned_ok}, "
        f"lemma 0/{lemma.rdf_premises}+{lemma.rjad_premises}: {lemma_ok}, const_x: {const_ok}",
    )
    assert construction_ok and pinned_ok and lemma_ok and const_ok


def test_criterion_7_structural_properties(all_n3):
    problems = []
    half = 4  # 2**(n-1) at n=3
    max_score = 3  # 2**(n-1) - 1 at n=3
    for ranking in all_n3:
        plur = mr.plurality(ranking)
        lex = mr.les(ranking)
        if not set(lex) <= set(plur):
            problems.append(f"les not within plurality on {ranking!r}")
            break
        for x in range(3):
            if sum(mr.theta(ranking, x)) != half:
                problems.append(f"theta sum off on {ranking!r}")
                break
        score_sum = sum(
            (
                Fraction(1, mask.bit_count())
                for x in range(3)
                for mask in ranking.classes[0]
                if mask >> x & 1
            ),
            Fraction(0),
        )
        if score_sum != len(ranking.classes[0]):
            problems.append(f"split scores do not total the class size on {ranking!r}")
            break
        for x in mr.concomitant_set(ranking):
            if mr.banzhaf(ranking, x).score != max_score:
                problems.append(f"concomitant member misses max score on {ranking!r}")
                break
    exhaustive_ok = not problems

    det_ok = True
    for ranking in all_n3:
        for subject in range(1, 8):
            generated = set(mr.enumerate_deteriorations(ranking, subject))
            for candidate in all_placements(ranking, subject):
                if mr.is_deterioration(ranking, candidate, subject) != (candidate in generated):
                    det_ok = False
                    break
            if not det_ok:
                break
        if not det_ok:
            break

    anon_ok = True
    perms = list(permutations(range(4)))
    for i in range(200):
        ranking = mr.sample_ranking(4, 10_000 + i)
        perm = perms[i % len(perms)]
        permuted = mr.relabel(ranking, perm)
        for rule in mr.RULES.values():
            expected = tuple(sorted(perm[j] for j in rule(ranking)))
            if rule(permuted) != expected:
                anon_ok = False
                break
        if not anon_ok:
            break

    ok = exhaustive_ok and det_ok and anon_ok
    report_line(
        7,
        "structural properties exhaustive at n=3 plus anonymity at n=4",
        ok,
        f"pointwise: {exhaustive_ok}, deterioration generator<->recognizer: {det_ok}, "
        f"anonymity 200 relabelings: {anon_ok}",
    )
    assert exhaustive_ok and det_ok and anon_ok


def _run_cli(*argv):
    # the child imports millrank from the source tree, as the test process does
    src = os.path.dirname(os.path.dirname(mr.__file__))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-m", "millrank.cli", *argv],
        capture_output=True,
        text=True,
        check=False,
        env={**os.environ, "PYTHONPATH": path},
    )
    return proc.returncode, proc.stdout


def test_criterion_8_reproducibility():
    code1, out1 = _run_cli("sweep", "--rule", "plurality", "--axiom", "STAG", "--n", "3", "--jobs", "1")
    code2, out2 = _run_cli("sweep", "--rule", "plurality", "--axiom", "STAG", "--n", "3", "--jobs", "2")
    exhaustive_ok = code1 == code2 == 0 and out1 == out2 and out1.strip()
    s1_code, s1 = _run_cli(
        "sweep", "--rule", "les", "--axiom", "CV", "--n", "4", "--sample", "200",
        "--seed", "11", "--jobs", "1",
    )
    s2_code, s2 = _run_cli(
        "sweep", "--rule", "les", "--axiom", "CV", "--n", "4", "--sample", "200",
        "--seed", "11", "--jobs", "3",
    )
    sampled_ok = s1_code == s2_code and s1 == s2 and s1.strip()
    json.loads(out1)
    ok = bool(exhaustive_ok and sampled_ok)
    report_line(8, "byte-identical reports across differing --jobs", ok,
                f"exhaustive: {bool(exhaustive_ok)}, sampled: {bool(sampled_ok)}")
    assert exhaustive_ok
    assert sampled_ok
