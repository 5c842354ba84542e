import dataclasses
import json
import time
from collections import Counter
from contextlib import closing
from functools import partial

import pytest

from millrank import (
    AXIOMS,
    EXHAUSTIVE,
    RULES,
    RankingStream,
    Sample,
    UniverseTooLargeError,
    UnknownAxiomError,
    VIOLATED,
    check_single,
    f_star,
    find_violation,
    fubini,
    les_stag_instance,
    lookup_rule,
    replay,
    split_plurality,
    split_plurality_slide_instance,
    sweep,
    sweep_cells,
    theorem1_probe,
)
from millrank import axioms, core, verify
from millrank.axioms import BEST_CLASS_AXIOMS, PREMISE_AXIOMS
from millrank.cli import to_json
from millrank.core import class_bits
from millrank.solutions import BEST_CLASS_RULES, best_class_reduction
from millrank.transforms import slide_gamma_bits
from millrank.verify import THEOREM_AXIOMS
from helpers import (
    cmask,
    hashed_top,
    oracle_first_violation,
    oracle_orbit_minima,
    oracle_stream_index,
    oracle_sweep,
    rk,
    sel,
)

ALL_CELLS = [(rule, axiom) for rule in RULES for axiom in AXIOMS]


def mark_chunk(folder, stream, chunk):
    """A pool worker that marks when it starts and ends a chunk."""
    (folder / f"{chunk.start}.started").touch()
    time.sleep(0.05)
    (folder / f"{chunk.start}.ended").touch()
    return chunk.start


class TestSweep:
    def test_plurality_strong_agreement_clean(self, plurality_probe_n3):
        report = next(s for s in plurality_probe_n3.sweeps if s.axiom == "STAG")
        assert report.rankings_checked == 47293
        assert report.violations == 0
        assert report.verdict == "satisfied"

    @pytest.mark.parametrize("worker", [
        partial(verify._sweep_chunk, [("les", "TAG"), ("obi", "RDF"), ("f_star", "CV")], None, 10, {}, False),
        partial(verify._selection_chunk, ["les", "plurality"], False),
    ], ids=["sweep", "selections"])
    def test_sampled_chunks_build_each_draw_once(self, monkeypatch, worker):
        # The walk yields each drawn ranking built, with its bitsets, and
        # neither chunk worker builds it a second time.
        builds = []
        trusted = core.CoalitionalRanking.__dict__["_trusted"].__func__

        def counted(cls, universe, classes, bits=None):
            builds.append(classes)
            return trusted(cls, universe, classes, bits)

        stream = RankingStream(verify.Universe(4), Sample(40, 6))
        drawn = [ranking.classes for ranking in stream]
        monkeypatch.setattr(core.CoalitionalRanking, "_trusted", classmethod(counted))
        worker(stream, range(len(stream)))
        assert builds == drawn

    def test_les_concomitant_witness_set_includes_known_instance(self):
        report = sweep("les", "CV", 3, witness_cap=10**9)
        assert report.violations >= 1
        named = rk("12 / 2 / 1 13 123 / rest")
        assert named in {w.ranking for w in report.witnesses}

    def test_constant_rule_concomitant_clean(self):
        report = sweep("const_x", "CV", 3)
        assert report.violations == 0
        assert report.premises_found > 0

    def test_witness_cap_truncates_but_counts_all(self):
        capped = sweep("les", "STAG", 3, witness_cap=3)
        assert capped.violations == 19860
        assert len(capped.witnesses) == 3

    def test_negative_witness_cap_is_refused_before_any_walk(self, monkeypatch):
        def walked(*args):
            raise AssertionError("a pass with a negative witness cap started")

        monkeypatch.setattr(verify, "_run_chunks", walked)
        monkeypatch.setattr(verify, "_count_blocks", walked)
        for run in (
            lambda: theorem1_probe("plurality", 2, witness_cap=-3),
            lambda: sweep("les", "SI", 2, witness_cap=-1),
            lambda: verify.prop3_matrix(3, witness_cap=-1),
        ):
            with pytest.raises(ValueError, match="witness_cap"):
                run()

    def test_sample_count_below_one_is_refused_before_any_rule_call(self, monkeypatch):
        def called(ranking):
            raise AssertionError("the rule ran on a sample of no draws")

        monkeypatch.setitem(RULES, "obi", called)
        with pytest.raises(ValueError, match="at least one draw"):
            theorem1_probe("obi", 3, Sample(0, 2))

    def test_exhaustive_count_matches_fubini(self):
        report = sweep("obi", "TDF", 2)
        assert report.rankings_checked == fubini(3)

    def test_sample_mode_counts(self):
        report = sweep("les", "STAG", 5, Sample(40, 3))
        assert report.rankings_checked == 40
        assert report.mode == Sample(40, 3)

    def test_refuses_exhaustive_beyond_guard(self):
        with pytest.raises(UniverseTooLargeError):
            sweep("les", "STAG", 5)

    @pytest.mark.parametrize("n", [4, 5])
    def test_refuses_best_class_tables_before_any_rule_call(self, rule_calls, n):
        # Beyond the guard a declared rule's chunks would read up to
        # 2**(2**n - 1) - 1 best classes, one rule call each.
        for run in (
            lambda: sweep("plurality", "SI", n),
            lambda: sweep_cells([("const_x", "DMON"), ("les", "SI")], n),
            lambda: theorem1_probe("plurality", n),
            lambda: theorem1_probe("split_plurality", n),
            lambda: find_violation("const_x", "DMON", n),
        ):
            with pytest.raises(UniverseTooLargeError):
                run()
        assert not rule_calls

    def test_jobs_do_not_change_reports(self):
        one = sweep("obi", "TAG", 2, jobs=1)
        two = sweep("obi", "TAG", 2, jobs=2)
        assert json.dumps(to_json(one), sort_keys=True) == json.dumps(
            to_json(two), sort_keys=True
        )


class TestSweepCells:
    """One multi-cell pass against each cell swept on its own by the direct loop."""

    @staticmethod
    def assert_matches_oracle(cells, n, mode, **kwargs):
        cap = kwargs.get("witness_cap", 10)
        reports = sweep_cells(cells, n, mode, **kwargs)
        expected = [oracle_sweep(rule, axiom, n, mode, cap) for rule, axiom in cells]
        assert [to_json(r) for r in reports] == [to_json(r) for r in expected]

    def test_every_cell_exhaustive_n2(self):
        self.assert_matches_oracle(ALL_CELLS, 2, EXHAUSTIVE)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_multi_chunk_exhaustive_n2(self, jobs, monkeypatch):
        monkeypatch.setattr(verify, "_CHUNK", 4)  # four index ranges, the last of one ranking
        self.assert_matches_oracle(ALL_CELLS, 2, EXHAUSTIVE, jobs=jobs)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_multi_chunk_sample_n4(self, jobs, monkeypatch):
        monkeypatch.setattr(verify, "_CHUNK", 16)  # three chunks
        self.assert_matches_oracle(ALL_CELLS, 4, Sample(40, 7), jobs=jobs)

    @pytest.mark.parametrize("cap", [0, 1, 3])
    def test_witness_cap_across_chunks(self, cap, monkeypatch):
        monkeypatch.setattr(verify, "_CHUNK", 32)  # four chunks
        self.assert_matches_oracle(ALL_CELLS, 3, Sample(120, 5), witness_cap=cap)

    @pytest.mark.parametrize("cap", [0, 1, 2])
    def test_premise_witnesses_built_only_under_the_cap(self, cap, monkeypatch):
        # Each chunk builds a premise-only witness only for a cell that keeps
        # it: the witnesses built equal those kept, at most cap per cell.
        built, chunks = [], []
        witness, sweep_chunk = verify.premise_witness, verify._sweep_chunk

        def counted_witness(*args):
            built.append(args[0])
            return witness(*args)

        def recorded_chunk(*args):
            built.clear()
            count, results, totals = sweep_chunk(*args)
            chunks.append((len(built), [(violations, len(w)) for _, violations, w in results]))
            return count, results, totals

        monkeypatch.setattr(verify, "_CHUNK", 32)  # five chunks
        monkeypatch.setattr(verify, "premise_witness", counted_witness)
        monkeypatch.setattr(verify, "_sweep_chunk", recorded_chunk)
        grid = [(rule, axiom) for rule in verify.MATRIX_RULES for axiom in verify.MATRIX_AXIOMS]
        self.assert_matches_oracle(grid, 3, Sample(160, 9), witness_cap=cap)
        assert len(chunks) == 5
        for count, cells in chunks:
            assert count == sum(kept for _, kept in cells)
            assert all(kept == min(violations, cap) for violations, kept in cells)
        assert any(violations > cap for _, cells in chunks for violations, _ in cells)

    def test_unknown_cell_is_refused(self):
        with pytest.raises(UnknownAxiomError):
            sweep_cells([("plurality", "STAG"), ("plurality", "NOPE")], 2)


class TestTheorem1Probe:
    def test_plurality_certified(self, plurality_probe_n3):
        report = plurality_probe_n3
        assert report.equivalent is True
        assert report.rankings_compared == 47293
        assert [s.violations for s in report.sweeps] == [0, 0, 0]
        assert [s.axiom for s in report.sweeps] == ["STAG", "SI", "DMON"]

    @pytest.mark.parametrize("rule_id", ["les", "obi", "split_plurality", "f_star", "const_x"])
    def test_other_rules_differ_with_replayable_witness(self, rule_id):
        report = theorem1_probe(rule_id, 3)
        assert report.equivalent is False
        difference = report.difference
        rule = lookup_rule(rule_id)
        assert rule(difference.ranking) == difference.selection
        assert difference.selection != difference.plurality_selection
        witness = report.witness
        assert witness is not None and witness.axiom in ("STAG", "SI", "DMON")
        assert replay(witness, rule).status == VIOLATED

    def test_plurality_runs_once_per_best_class(self, monkeypatch):
        # Plurality is not scanned against itself: the 13 rankings at n = 2
        # are one chunk, which runs it once on the reduction of each of the
        # 7 best classes and reads every STAG, SI and DMON selection from
        # those runs.
        calls = Counter()
        plurality = RULES["plurality"]

        def counting(ranking):
            calls[ranking.classes] += 1
            return plurality(ranking)

        monkeypatch.setitem(RULES, "plurality", counting)
        report = theorem1_probe("plurality", 2)
        assert report.equivalent is True and report.rankings_compared == 13
        assert sum(calls.values()) == 7
        assert max(calls.values()) == 1
        assert all(len(classes) == 2 or len(classes[0]) == 3 for classes in calls)

    def test_les_difference_instance(self):
        ranking = rk("12 / 1 / rest")
        assert lookup_rule("les")(ranking) != lookup_rule("plurality")(ranking)

    def test_const_x_difference_instance(self):
        ranking = rk("123 12 13 / rest")
        assert lookup_rule("const_x")(ranking) == sel("123")
        assert lookup_rule("plurality")(ranking) == sel("1")


class TestWitnessSearch:
    """find_violation and theorem1's witness against the serial one-ranking loop."""

    @pytest.mark.parametrize("n, mode", [(2, EXHAUSTIVE), (4, Sample(12, 9))])
    def test_find_violation_matches_the_oracle(self, n, mode):
        for rule, axiom in ALL_CELLS:
            found = find_violation(rule, axiom, n, mode)
            assert to_json(found) == to_json(oracle_first_violation(rule, (axiom,), n, mode)), (
                rule,
                axiom,
            )

    @pytest.mark.parametrize("rule_id", RULES)
    def test_theorem1_witness_matches_the_oracle(self, rule_id):
        report = theorem1_probe(rule_id, 2)
        found = oracle_first_violation(rule_id, THEOREM_AXIOMS, 2)
        assert to_json(report.witness) == to_json(found and found[1])
        assert report.equivalent == (found is None)

    @pytest.mark.parametrize(
        "n, mode, chunk",
        [(2, EXHAUSTIVE, 4), (3, Sample(60, 13), 8), (4, Sample(12, 9), 5)],
        ids=["exhaustive-n2", "sampled-n3", "sampled-n4"],
    )
    def test_chunked_search_matches_the_oracle(self, monkeypatch, n, mode, chunk):
        # Several chunks, inline and pooled: the first violating ranking,
        # and on it the earliest axiom, wherever the chunks split the stream.
        monkeypatch.setattr(verify, "_CHUNK", chunk)
        universe, earlier_won = verify.Universe(n), 0
        for rule_id in RULES:
            for axioms in (THEOREM_AXIOMS, tuple(AXIOMS), *((axiom,) for axiom in AXIOMS)):
                expected = oracle_first_violation(rule_id, axioms, n, mode)
                for jobs in (1, 2):
                    found = verify._first_violation(rule_id, axioms, universe, mode, jobs)
                    assert to_json(found) == to_json(expected), (rule_id, axioms, jobs)
                if expected and len(axioms) > 1:
                    index, witness = expected
                    later = axioms[axioms.index(witness.axiom) + 1:]
                    rule = lookup_rule(rule_id)
                    earlier_won += any(
                        AXIOMS[axiom](witness.ranking, rule).status == VIOLATED for axiom in later
                    )
        assert earlier_won

    def test_closing_a_pooled_pass_early_kills_no_worker(self, monkeypatch, tmp_path):
        # A worker killed mid-chunk can die holding a queue lock and hang
        # the pool: chunks not started are cancelled, started ones end.
        monkeypatch.setattr(verify, "_CHUNK", 1)
        worker = partial(mark_chunk, tmp_path)
        with closing(verify._run_chunks(verify.Universe(2), EXHAUSTIVE, worker, 2)) as chunks:
            assert next(chunks) == 0
        started = {path.stem for path in tmp_path.glob("*.started")}
        assert started == {path.stem for path in tmp_path.glob("*.ended")}
        assert len(started) < fubini(3)

    def test_earlier_axiom_wins_on_one_ranking(self):
        # obi's first n = 3 ranking violates both STAG and DMON.
        report = theorem1_probe("obi", 3)
        found = oracle_first_violation("obi", THEOREM_AXIOMS, 3)
        assert found[0] == 0
        assert to_json(report.witness) == to_json(found[1])
        assert report.witness.axiom == "STAG"
        assert AXIOMS["DMON"](report.witness.ranking, lookup_rule("obi")).status == VIOLATED

    def test_identical_runs_make_the_same_rule_calls(self, rule_calls):
        # Nothing is kept between passes, so a second run repeats every call.
        runs = []
        for _ in range(2):
            rule_calls.clear()
            theorem1_probe("plurality", 2)
            theorem1_probe("les", 2)
            find_violation("f_star", "DMON", 2)
            sweep_cells([("obi", "SI"), ("split_plurality", "DMON")], 2)
            runs.append(Counter(rule_id for rule_id, _ in rule_calls.elements()))
        assert runs[0] == runs[1]
        # plurality's runs on the 7 best classes of its one chunk, and les's
        # scan up to its first difference, at index 10
        assert runs[0]["plurality"] == 7 + 11
        # les's selection table, read by the STAG, SI and DMON witness
        # search, and its difference scan
        assert runs[0]["les"] == 13 + 11

    def test_rule_runs_once_per_drawn_ranking(self, rule_calls):
        # A sampled pass has no tables: les's STAG cell and its SI and DMON
        # cells share one call on each drawn ranking.
        mode = Sample(20, 1)
        sweep_cells([("les", axiom) for axiom in THEOREM_AXIOMS], 4, mode)
        drawn = [ranking.classes for ranking in RankingStream(verify.Universe(4), mode)]
        assert [rule_calls["les", classes] for classes in drawn] == [1] * len(drawn)


class TestCoverage:
    """A pass that reaches the end of the exhaustive stream has checked every ranking."""

    @pytest.fixture()
    def short_chunks(self, monkeypatch):
        # Every chunk reports one ranking fewer than it walked.
        chunk = verify._sweep_chunk

        def short(*args):
            count, results, counts = chunk(*args)
            return count - 1, results, counts

        monkeypatch.setattr(verify, "_sweep_chunk", short)

    def test_full_pass_that_misses_a_ranking_fails(self, short_chunks):
        with pytest.raises(AssertionError, match="covered 12 of 13 rankings"):
            sweep("les", "STAG", 2)

    def test_search_that_finds_nothing_is_checked_too(self, short_chunks):
        with pytest.raises(AssertionError, match="covered 12 of 13 rankings"):
            verify._first_violation("plurality", THEOREM_AXIOMS, verify.Universe(2), EXHAUSTIVE)

    def test_search_that_stops_early_is_not_checked(self, short_chunks):
        # obi's first n = 3 ranking violates STAG: the search ends in its first chunk.
        found = verify._first_violation("obi", THEOREM_AXIOMS, verify.Universe(3), EXHAUSTIVE)
        assert found is not None and found[1].axiom == "STAG"


class TestBestClassRules:
    """A declared rule's passes read by best class; wrapped under another name, by stream index."""

    @pytest.mark.parametrize("rule_id", sorted(BEST_CLASS_RULES))
    def test_sweeps_match_the_rule_wrapped_undeclared(self, monkeypatch, rule_id):
        rule = RULES[rule_id]
        monkeypatch.setitem(RULES, "wrapped", lambda ranking: rule(ranking))
        cells = [(name, axiom) for name in (rule_id, "wrapped") for axiom in ("STAG", "SI", "DMON")]
        for n, mode in ((2, EXHAUSTIVE), (3, Sample(150, 41)), (4, Sample(20, 42))):
            reports = sweep_cells(cells, n, mode, witness_cap=50)
            assert n == 2 or rule_id != "split_plurality" or reports[1].witnesses  # SI fails
            for declared, wrapped in zip(reports[:3], reports[3:]):
                assert declared.premises_found == wrapped.premises_found
                assert declared.violations == wrapped.violations
                assert repr(declared.witnesses) == repr(wrapped.witnesses)

    @pytest.mark.parametrize("mode", [EXHAUSTIVE, Sample(400, 44)], ids=["exhaustive", "sampled"])
    def test_declared_listers_and_rules_run_once_per_best_class(self, monkeypatch, mode):
        # One chunk of every premise-only cell at n = 3: each declared lister
        # and each declared rule runs at most once per best class it holds.
        calls = Counter()

        def counted(name, fn):
            def wrapped(ranking):
                calls[name, class_bits(ranking.classes[:1])[0]] += 1
                return fn(ranking)
            return wrapped

        for axiom in BEST_CLASS_AXIOMS:
            lister, *rest = PREMISE_AXIOMS[axiom]
            monkeypatch.setitem(PREMISE_AXIOMS, axiom, (counted(axiom, lister), *rest))
        for rule_id in BEST_CLASS_RULES:
            monkeypatch.setitem(RULES, rule_id, counted(rule_id, RULES[rule_id]))
        stream = RankingStream(verify.Universe(3), mode)
        chunk = range(min(verify._CHUNK, len(stream)))
        cells = [(rule_id, axiom) for rule_id in RULES for axiom in PREMISE_AXIOMS]
        count, _, _ = verify._sweep_chunk(cells, None, 10, {}, False, stream, chunk)
        tops = Counter(ranking.bits[0] for ranking, *_ in stream.walk(chunk))
        assert count == sum(tops.values()) > 2 * len(tops)  # best classes repeat
        assert {name for name, _ in calls} == BEST_CLASS_AXIOMS | BEST_CLASS_RULES
        assert {top for _, top in calls} <= set(tops)
        assert max(calls.values()) == 1

    @pytest.mark.parametrize("mode", [EXHAUSTIVE, Sample(400, 45)], ids=["exhaustive", "sampled"])
    @pytest.mark.parametrize("rule_id", sorted(BEST_CLASS_RULES))
    def test_slide_summaries_run_once_per_best_class_and_class(self, monkeypatch, mode, rule_id):
        # One chunk of a declared rule's SI cell at n = 3: each class's summary
        # runs at most once per (best class, class) and run of rankings with
        # that best class, which the exhaustive walk visits in one run; the
        # chunk reduces each best class it reads at most once, and reads its
        # best-class reader at most once per ranking plus once per gamma with
        # a balanced pair the base selection meets, as a scan over every
        # ranking's gammas reads it.
        summaries, reads, reductions = Counter(), Counter(), Counter()

        def counted(n, best, cls, base, top, summarize=axioms._class_slides):
            summaries[best, cls] += 1
            return summarize(n, best, cls, base, top)

        def reduced(universe, best):
            reductions[best] += 1
            return best_class_reduction(universe, best)

        def counted_reader(fn, reduction, reader=verify._best_class_reader):
            top = reader(fn, reduction)

            def read(best):
                reads[best] += 1
                return top(best)
            return read

        monkeypatch.setattr(axioms, "_class_slides", counted)
        monkeypatch.setattr(verify, "best_class_reduction", reduced)
        monkeypatch.setattr(verify, "_best_class_reader", counted_reader)
        stream = RankingStream(verify.Universe(3), mode)
        chunk = range(min(verify._CHUNK, len(stream)))
        verify._sweep_chunk([(rule_id, "SI")], None, 10, {}, False, stream, chunk)
        meets, balanced_of = axioms._pairs(3)[1], axioms._balanced_by_gamma(3)
        rule = RULES[rule_id]
        runs, last, scanned = Counter(), None, 0
        for ranking, *_ in stream.walk(chunk):
            bits = ranking.bits
            runs[bits[0]] += bits[0] != last
            base = axioms.selection_mask(rule, best_class_reduction(stream.universe, bits[0]))
            last, relevant = bits[0], meets[base]
            scanned += 1 + (len(bits) > 1) * sum(
                bool(balanced_of[gamma] & relevant) for cls in bits for gamma in slide_gamma_bits(cls)
            )
        assert mode != EXHAUSTIVE or max(runs.values()) == 1
        assert all(count <= runs[best] for (best, _), count in summaries.items())
        assert set(runs) <= set(reductions) == set(reads) and max(reductions.values()) == 1
        assert len(chunk) < sum(reads.values()) <= scanned

    @pytest.mark.parametrize("mode", [EXHAUSTIVE, Sample(400, 43)], ids=["exhaustive", "sampled"])
    def test_witness_search_matches_the_rule_wrapped_undeclared(self, monkeypatch, mode):
        rule = RULES["split_plurality"]
        monkeypatch.setitem(RULES, "wrapped", lambda ranking: rule(ranking))
        found = find_violation("split_plurality", "SI", 3, mode)
        assert found is not None
        assert repr(found) == repr(find_violation("wrapped", "SI", 3, mode))


def dumps(reports):
    return [json.dumps(to_json(report), sort_keys=True) for report in reports]


def full_pass(monkeypatch, run, *args, **kwargs):
    """``run(*args, **kwargs)`` with no rule declared anonymous or best-class, so every pass walks every ranking."""
    with monkeypatch.context() as patched:
        patched.setattr(verify, "ANONYMOUS_RULES", frozenset())
        patched.setattr(verify, "BEST_CLASS_RULES", frozenset())
        return run(*args, **kwargs)


def capped(report, cap):
    return dataclasses.replace(report, witness_cap=cap, witnesses=report.witnesses[:cap])


class TestOrbitPasses:
    """A pass of declared rules judges one ranking per relabeling orbit and reports what the full pass does."""

    def test_all_cells_at_n2_every_cap(self, monkeypatch):
        full = full_pass(monkeypatch, sweep_cells, ALL_CELLS, 2, witness_cap=10**6)
        above = max(report.violations for report in full) + 1
        assert above > 1 and all(len(report.witnesses) == report.violations for report in full)
        for cap in (0, 1, 10, above):
            got = sweep_cells(ALL_CELLS, 2, witness_cap=cap)
            assert dumps(got) == dumps(capped(report, cap) for report in full), cap

    def test_all_cells_at_n3(self, monkeypatch):
        # The full pass builds its own tables: it reads every rule by stream index.
        full, _ = full_pass(monkeypatch, verify._sweep_pass, ALL_CELLS, verify.Universe(3), EXHAUSTIVE, 1, 10)
        tables = verify._tables(ALL_CELLS, verify.Universe(3), EXHAUSTIVE, 1)
        assert sum(report.violations for report in full) == 280432
        for cap in (0, 1, 10):
            got, _ = verify._sweep_pass(ALL_CELLS, verify.Universe(3), EXHAUSTIVE, 1, cap, tables=tables)
            assert dumps(got) == dumps(capped(report, cap) for report in full), cap

    def test_every_witness_at_n3(self, monkeypatch):
        # The cells with fewest violations, at one above their largest count:
        # every witness, merged in stream order from orbits across chunks.
        cells = [("const_x", "TDF"), ("const_x", "TJAD"), ("obi", "RDF"), ("obi", "RJAD"), ("f_star", "DMON")]
        full = full_pass(monkeypatch, sweep_cells, cells, 3, witness_cap=10**6)
        above = max(report.violations for report in full) + 1
        assert above == 721
        assert dumps(sweep_cells(cells, 3, witness_cap=above)) == dumps(capped(r, above) for r in full)

    def test_jobs_and_small_chunks_do_not_change_reports(self, monkeypatch):
        cells = [("les", "STAG"), ("obi", "SI"), ("f_star", "DMON"), ("const_x", "RDF"), ("split_plurality", "SI")]
        want = full_pass(monkeypatch, sweep_cells, cells, 3, witness_cap=25)
        monkeypatch.setattr(verify, "_CHUNK", 701)
        assert dumps(sweep_cells(cells, 3, jobs=2, witness_cap=25)) == dumps(want)

    def test_prop1_lemma_tallies(self, monkeypatch, prop1_n3):
        full = full_pass(monkeypatch, verify.prop1_report, 3)
        assert full.lemma == prop1_n3.lemma
        assert json.dumps(to_json(full), sort_keys=True) == json.dumps(to_json(prop1_n3), sort_keys=True)

    def test_undeclared_rule_keeps_the_full_walk(self, monkeypatch):
        # A copy of a declared rule under another name is not declared, so a
        # pass with it walks every ranking, even beside declared rules.
        orbits, run_chunks = [], verify._run_chunks
        monkeypatch.setitem(RULES, "wrapped", lambda ranking: RULES["les"](ranking))
        monkeypatch.setattr(verify, "_run_chunks", lambda *args: orbits.append(args[4]) or run_chunks(*args))
        sweep_cells([("les", "STAG"), ("wrapped", "STAG")], 2)
        sweep_cells([("les", "STAG")], 2)
        find_violation("les", "STAG", 2)
        assert orbits == [False, True, False]

    # The first violating stream index of each rule and axiom at n = 3, None
    # when there is none, and of the three axioms together, as recorded
    # before passes walked orbits.
    FIRST_VIOLATIONS = {
        "plurality": (None, None, None, None),
        "les": (17650, None, None, 17650),
        "obi": (0, 1, 0, 0),
        "split_plurality": (None, 5315, None, 5315),
        "f_star": (None, 4, 5224, 4),
        "const_x": (0, None, None, 0),
        "hashed_top": (0, 1, 0, 0),
    }

    @pytest.mark.parametrize("rule_id", FIRST_VIOLATIONS)
    def test_stopped_searches_walk_every_ranking(self, monkeypatch, rule_id):
        # A stopped search reads its stream index off the full walk: the
        # index of its witness's own ranking, the first violating one of an
        # orbit pass's witnesses.
        monkeypatch.setitem(RULES, "hashed_top", hashed_top)
        sweeps = sweep_cells([(rule_id, axiom) for axiom in THEOREM_AXIOMS], 3, witness_cap=1)
        found = [find_violation(rule_id, axiom, 3) for axiom in THEOREM_AXIOMS]
        found.append(verify._first_violation(rule_id, THEOREM_AXIOMS, verify.Universe(3), EXHAUSTIVE))
        assert tuple(f and f[0] for f in found) == self.FIRST_VIOLATIONS[rule_id]
        for report, hit in zip(sweeps, found):
            assert (hit is None) == (report.violations == 0)
            if hit:
                index, witness = hit
                assert index == oracle_stream_index(class_bits(witness.ranking.classes), 3)
                assert dumps([witness]) == dumps(report.witnesses)
        if found[-1]:
            first = min((h for h in found[:-1] if h), key=lambda h: h[0])
            assert found[-1][0] == first[0]


BLOCK_AXIOMS = ("TAG", "STAG", "TDF", "TJAD", "SI", "DMON")


@pytest.fixture
def declared_hashed_top(monkeypatch):
    """``hashed_top`` registered and declared a best-class rule: it reads the best class alone."""
    monkeypatch.setitem(RULES, "hashed_top", hashed_top)
    monkeypatch.setattr(verify, "BEST_CLASS_RULES", BEST_CLASS_RULES | {"hashed_top"})


class TestBlockCounts:
    """An exhaustive pass counts best-class cells once per best class and reports what the walk does."""

    CELLS = [(rule, axiom) for rule in (*sorted(BEST_CLASS_RULES), "hashed_top") for axiom in BLOCK_AXIOMS]

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_every_declared_cell_every_cap(self, monkeypatch, declared_hashed_top, n):
        assert set(BLOCK_AXIOMS) == set(axioms.BLOCK_COUNTERS)
        walked = full_pass(monkeypatch, sweep_cells, self.CELLS, n, witness_cap=10)
        assert n == 1 or sum(report.violations for report in walked) > 0
        for cap in (0, 1, 10):
            got = sweep_cells(self.CELLS, n, witness_cap=cap)
            assert dumps(got) == dumps(capped(report, cap) for report in walked), (n, cap)

    def test_named_universe(self, monkeypatch, declared_hashed_top):
        # Witnesses spell individuals by name.
        universe = verify.Universe(2, ("ann", "bob"))
        walked = full_pass(monkeypatch, sweep_cells, self.CELLS, 2, universe=universe, witness_cap=10)
        got = sweep_cells(self.CELLS, 2, universe=universe, witness_cap=10)
        assert any("ann" in text for text in dumps(got))
        assert dumps(got) == dumps(walked)

    def test_cell_listed_twice_beside_walked_cells(self, monkeypatch):
        # Counted and walked reports merge back in the order of the cells.
        cells = [("split_plurality", "SI"), ("les", "STAG"), ("const_x", "TAG"), ("split_plurality", "SI"),
                 ("obi", "TAG"), ("const_x", "CV")]
        walked = full_pass(monkeypatch, sweep_cells, cells, 3, witness_cap=10)
        assert [report.violations > 0 for report in walked] == [True, True, True, True, True, False]
        assert dumps(sweep_cells(cells, 3, witness_cap=10)) == dumps(walked)

    def test_counted_pass_starts_no_walk_and_no_pool(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("a walk started")

        monkeypatch.setattr(verify, "_run_chunks", refuse)
        report = theorem1_probe("plurality", 3, jobs=2)
        assert report.equivalent and report.rankings_compared == fubini(7)
        cells = [(rule, axiom) for rule in sorted(BEST_CLASS_RULES) for axiom in BLOCK_AXIOMS]
        assert all(r.rankings_checked == fubini(7) for r in sweep_cells(cells, 3, jobs=2, witness_cap=0))

    def test_block_sizes_must_cover_the_stream(self, monkeypatch):
        # One best class's block dropped: the count misses its rankings.
        tops = verify._stream_tops(2)
        monkeypatch.setattr(verify, "_stream_tops", lambda n: (*tops[:-1], tops[-1][:1] + tops[-1][2:]))
        with pytest.raises(AssertionError, match="covered 12 of 13 rankings"):
            sweep("plurality", "SI", 2)


class TestProp1:
    def test_constructions_certified(self, prop1_n3):
        assert prop1_n3.incompatibility_certified is True
        assert len(prop1_n3.constructions) == 6
        first = next(
            c for c in prop1_n3.constructions if (c.x, c.y) == (0, 1)
        )
        assert first.ranking == rk("12 123 / 1 13 / 2 23 / 3")
        assert first.rdf_forces == sel("1")
        assert sel("2")[0] in first.concomitant

    def test_lemma_holds_exhaustively(self, prop1_n3):
        lemma = prop1_n3.lemma
        assert lemma.rankings_checked == 47293
        assert lemma.counterexamples == 0
        assert lemma.rdf_premises > 0
        assert lemma.rjad_premises > 0

    def test_constant_rule_keeps_both_weak_axioms(self, prop1_n3):
        assert prop1_n3.wrag_sweep.violations == 0
        assert prop1_n3.cv_sweep.violations == 0

    def test_lemma_counts_every_counterexample(self, monkeypatch):
        # With no agreement premise, every RDF and RJAD premise is a counterexample.
        monkeypatch.setattr(verify, "rag_premises", lambda ranking: [])
        lemma = verify.prop1_report(3).lemma
        assert (lemma.rdf_premises, lemma.rjad_premises) == (4050, 4050)
        assert lemma.counterexamples == 8100

    def test_each_rankings_facts_are_computed_once(self, monkeypatch):
        # One exhaustive n = 3 pass: the agreement levels that RAG (the WRAG
        # cell and the lemma) and RJAD read are computed once per ranking it
        # walks, the 8,157 orbit minima, and RDF reads the ranking's carried
        # bitsets instead of building them.
        levels, bits_calls, in_rdf = Counter(), [0], [False]

        def counted_levels(ranking, original=axioms._agreement_classes):
            levels[ranking.classes] += 1
            return original(ranking)

        def counted_bits(classes, original=core.class_bits):
            bits_calls[0] += in_rdf[0]
            return original(classes)

        def watched_rdf(ranking, original=axioms.rdf_premises):
            in_rdf[0] = True
            try:
                return original(ranking)
            finally:
                in_rdf[0] = False

        for module in (axioms, verify):
            monkeypatch.setattr(module, "_agreement_classes", counted_levels)
        monkeypatch.setattr(core, "class_bits", counted_bits)
        monkeypatch.setattr(verify, "rdf_premises", watched_rdf)
        lemma = verify.prop1_report(3).lemma
        assert (lemma.rankings_checked, lemma.counterexamples) == (47293, 0)
        assert len(levels) == len(oracle_orbit_minima(3)) == 8157 and set(levels.values()) == {1}
        assert lemma.rdf_premises > 0 and bits_calls == [0]

    def test_small_universes_rejected(self):
        with pytest.raises(ValueError):
            __import__("millrank").prop1_report(2)

    def test_large_universes_refused_before_any_construction(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("a construction was built")

        monkeypatch.setattr(verify, "relative_construction", refuse)
        with pytest.raises(UniverseTooLargeError, match="n <= 8"):
            verify.prop1_report(9)


class TestProp3Matrix:
    def test_plurality_row_clean(self, matrix_n3):
        for cell in matrix_n3.cells:
            if cell.rule == "plurality":
                assert cell.verdict == "satisfied"
                assert not cell.discrepancy

    def test_les_row(self, matrix_n3):
        verdicts = {
            c.axiom: c.verdict for c in matrix_n3.cells if c.rule == "les"
        }
        assert verdicts == {
            "STAG": "violated",
            "TAG": "satisfied",
            "TDF": "satisfied",
            "TJAD": "satisfied",
            "CV": "violated",
        }

    def test_les_named_witnesses_violate(self):
        assert check_single("les", "STAG", rk("12 / 1 / rest")).status == VIOLATED
        assert check_single("les", "CV", rk("12 / 2 / 1 13 123 / rest")).status == VIOLATED

    def test_obi_row_with_flagged_cell(self, matrix_n3):
        cells = {c.axiom: c for c in matrix_n3.cells if c.rule == "obi"}
        assert cells["STAG"].verdict == "violated"
        assert cells["TAG"].verdict == "violated"
        assert cells["TDF"].verdict == "satisfied"
        assert cells["TJAD"].verdict == "satisfied"
        cv = cells["CV"]
        assert cv.verdict == "satisfied"
        assert cv.expected == "satisfied" and cv.expected_alt == "violated"
        assert not cv.discrepancy

    def test_obi_named_witness_violates(self):
        assert check_single("obi", "TAG", rk("1 / 2 23 / 12 123 / 3 13")).status == VIOLATED

    def test_no_unexpected_discrepancies(self, matrix_n3):
        assert matrix_n3.discrepancies == ()

    def test_every_cell_carries_evidence(self, matrix_n3):
        for cell in matrix_n3.cells:
            if cell.verdict == "violated":
                assert cell.sweep.witnesses
            else:
                assert cell.sweep.rankings_checked == 47293
                assert cell.sweep.premises_found > 0


class TestIndependence:
    def test_slide_instance_builder(self):
        base, move, slid = split_plurality_slide_instance(4)
        assert base == rk("1 2 23 14 / rest", n=4)
        assert set(move.gamma) == {cmask("14"), cmask("2")}
        assert split_plurality(base) == sel("12")
        assert split_plurality(slid) == sel("1")

    def test_slide_instance_is_balanced(self):
        # gamma holds as many coalitions with individual 1 as with 2, so
        # the slide is a premise of SI for the watched pair (0, 1).
        base, move, _ = split_plurality_slide_instance(4)
        assert set(move.gamma) < set(base.classes[move.k1])
        assert sum(m & 1 for m in move.gamma) == sum(m >> 1 & 1 for m in move.gamma) == 1

    def test_les_instance_builder(self):
        assert les_stag_instance() == rk("12 / 1 / rest")

    def test_claim_grid(self, independence_n4):
        claims = {(c.rule, c.axiom): c for c in independence_n4.claims}
        assert claims[("f_star", "STAG")].verdict == "satisfied"
        assert claims[("f_star", "DMON")].verdict == "violated"
        assert claims[("split_plurality", "STAG")].verdict == "satisfied"
        assert claims[("split_plurality", "DMON")].verdict == "satisfied"
        assert claims[("split_plurality", "SI")].verdict == "violated"
        assert claims[("les", "SI")].verdict == "satisfied"
        assert claims[("les", "DMON")].verdict == "satisfied"
        assert claims[("les", "STAG")].verdict == "violated"

    def test_f_star_slide_claim_is_refuted_and_flagged(self, independence_n4):
        # the recorded expectation says f_star keeps SI, the exhaustive
        # sweep proves otherwise; the report must surface that honestly
        claim = next(
            c
            for c in independence_n4.claims
            if (c.rule, c.axiom) == ("f_star", "SI")
        )
        assert claim.expected == "satisfied"
        assert claim.verdict == "violated"
        assert claim.discrepancy is True
        assert claim.sweep.violations > 0
        assert independence_n4.discrepancies == (claim,)

    def test_f_star_slide_counterexample_instance(self):
        # sliding {2} down from the best class turns the whole-universe
        # branch into the intersection branch and shrinks the selection
        base = rk("1 2 12 / 3 / rest")
        slid = rk("1 12 / 2 3 / rest")
        assert f_star(base) == sel("123")
        assert f_star(slid) == sel("1")
        assert check_single("f_star", "SI", base).status == VIOLATED

    def test_f_star_deterioration_witness_replays(self):
        found = find_violation("f_star", "DMON", 3)
        assert found is not None
        index, witness = found
        assert replay(witness, f_star).status == VIOLATED

    def test_witnesses_replay(self, independence_n4):
        for claim in independence_n4.claims:
            if claim.verdict == "violated":
                witness = claim.witness
                assert witness is not None
                assert replay(witness, lookup_rule(claim.rule)).status == VIOLATED
