import random
from collections import Counter
from functools import cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from millrank import (
    AXIOMS,
    CoalitionalRanking,
    DeteriorationSpec,
    INAPPLICABLE,
    SATISFIED,
    VIOLATED,
    RULES,
    RankingStream,
    Sample,
    Universe,
    UniverseTooLargeError,
    UnknownAxiomError,
    apply_deterioration,
    apply_slide,
    check_concomitant,
    check_downward_monotonicity,
    check_relative_agreement,
    check_relative_difference,
    check_relative_joint,
    check_slide_independence,
    check_top_agreement,
    check_top_difference,
    check_top_joint,
    concomitant_set,
    const_x,
    enumerate_deterioration_specs,
    f_star,
    fubini,
    les,
    lookup_axiom,
    obi,
    plurality,
    replay,
    sample_ranking,
    split_plurality,
    sweep_cells,
    validate_ranking,
)
from millrank.axioms import (
    BEST_CLASS_AXIOMS,
    PREMISE_AXIOMS,
    _balanced_by_gamma,
    forced_mask,
    judge,
    rdf_premises,
    rjad_premises,
    selection_mask,
)
from millrank.core import class_bits, mask_members
from millrank.enumeration import walk_stream
from millrank.transforms import slide_gamma_bits
from millrank.solutions import BEST_CLASS_RULES, best_class_reduction
from millrank.cli import to_json
from helpers import (
    cmask,
    hashed_top as _hashed_top,
    oracle_downward_monotonicity,
    oracle_judge_selection,
    oracle_rag_premises,
    oracle_rdf_premises,
    oracle_rjad_premises,
    oracle_selection_table,
    oracle_slide_independence,
    oracle_stream_index,
    oracle_stream_walk,
    rk,
    sel,
)

EX2 = rk("123 12 13 / rest")
TIE3 = rk("rest")


class TestTopAgreement:
    def test_les_violates_strong_on_pair_intersection(self):
        verdict = check_top_agreement(rk("12 / 1 / rest"), les, strong=True)
        assert verdict.status == VIOLATED
        assert verdict.witness.actual == {"selection": sel("1")}
        assert verdict.witness.premise == {"top_intersection": sel("12")}

    def test_weak_form_needs_singleton(self):
        verdict = check_top_agreement(rk("12 / 1 / rest"), les, strong=False)
        assert verdict.status == INAPPLICABLE
        assert verdict.premises_checked == 0

    def test_total_tie_inapplicable(self):
        for strong in (False, True):
            for rule in RULES.values():
                assert check_top_agreement(TIE3, rule, strong=strong).status == INAPPLICABLE

    def test_plurality_satisfies_on_example(self):
        assert check_top_agreement(EX2, plurality, strong=True).status == SATISFIED


class TestTopDifference:
    def test_satisfied_when_top_is_exactly_one_membership_family(self):
        verdict = check_top_difference(rk("1 12 13 123 / rest"), plurality)
        assert verdict.status == SATISFIED
        assert verdict.premises_checked == 1

    def test_inapplicable_when_a_member_coalition_is_low(self):
        for rule in RULES.values():
            assert check_top_difference(EX2, rule).status == INAPPLICABLE

    def test_total_tie_inapplicable(self):
        assert check_top_difference(TIE3, plurality).status == INAPPLICABLE


class TestTopJoint:
    def test_obi_satisfies_on_membership_family(self):
        verdict = check_top_joint(rk("1 12 13 123 / rest"), obi)
        assert verdict.status == SATISFIED

    def test_inapplicable_when_below_contains_the_individual(self):
        assert check_top_joint(EX2, plurality).status == INAPPLICABLE

    def test_total_tie_inapplicable(self):
        assert check_top_joint(TIE3, plurality).status == INAPPLICABLE


class TestConcomitant:
    def test_les_violates(self):
        verdict = check_concomitant(rk("12 / 2 / 1 13 123 / rest"), les)
        assert verdict.status == VIOLATED
        assert verdict.witness.premise == {"concomitant": sel("1")}
        assert verdict.witness.actual == {"selection": sel("2")}

    def test_plurality_satisfies_same_ranking(self):
        verdict = check_concomitant(rk("12 / 2 / 1 13 123 / rest"), plurality)
        assert verdict.status == SATISFIED

    def test_total_tie_inapplicable(self):
        assert check_concomitant(TIE3, les).status == INAPPLICABLE


class TestRelativeAgreement:
    def test_example_satisfied(self):
        verdict = check_relative_agreement(EX2, plurality)
        assert verdict.status == SATISFIED
        assert verdict.premises_checked == 4  # each bottom-class reference

    def test_total_tie_inapplicable(self):
        assert check_relative_agreement(TIE3, plurality).status == INAPPLICABLE

    def test_weak_form_with_constant_rule(self):
        verdict = check_relative_agreement(rk("12 123 / 1 / rest"), const_x, weak=True)
        assert verdict.status == SATISFIED
        assert verdict.premises_checked == 4

    def test_strict_form_fails_for_constant_rule(self):
        verdict = check_relative_agreement(rk("12 123 / 1 / rest"), const_x, weak=False)
        assert verdict.status == VIOLATED
        assert verdict.witness.premise["x"] == sel("1")[0]


PROP1_RANKING = rk("12 123 / 1 13 / 2 23 / 3")


class TestRelativeDifference:
    def test_premises_on_the_incompatibility_construction(self):
        pairs = rdf_premises(PROP1_RANKING)
        assert (cmask("2"), sel("1")[0]) in pairs
        assert {x for _, x in pairs} == {sel("1")[0]}

    def test_forced_conclusion_conflicts_with_concomitant(self):
        # the premise forces {1} while 2 must also be chosen, so every
        # rule fails one of the two checks on this ranking
        assert sel("2")[0] in concomitant_set(PROP1_RANKING)
        verdict = check_relative_difference(PROP1_RANKING, plurality)
        assert verdict.status == VIOLATED  # plurality picks {1,2}
        assert verdict.witness.expected == "selection equals {1}"
        cv = check_concomitant(PROP1_RANKING, plurality)
        assert cv.status == SATISFIED

    def test_member_references_never_qualify(self):
        for ranking in (EX2, PROP1_RANKING, rk("1 12 13 123 / rest")):
            for s0, x in rdf_premises(ranking):
                assert not s0 >> x & 1

    def test_total_tie_inapplicable(self):
        assert check_relative_difference(TIE3, plurality).status == INAPPLICABLE


class TestRelativeJoint:
    def test_satisfied_on_membership_family(self):
        verdict = check_relative_joint(rk("1 12 13 123 / rest"), plurality)
        assert verdict.status == SATISFIED
        assert verdict.premises_checked == 3

    def test_premise_fails_when_reference_side_contains_x(self):
        assert check_relative_joint(EX2, plurality).status == INAPPLICABLE

    def test_total_tie_inapplicable(self):
        assert check_relative_joint(TIE3, plurality).status == INAPPLICABLE


class TestSlideIndependence:
    def test_split_plurality_fails_on_four_individual_instance(self):
        ranking = rk("1 2 23 14 / rest", n=4)
        verdict = check_slide_independence(ranking, split_plurality)
        assert verdict.status == VIOLATED
        witness = verdict.witness
        assert witness.actual["intersection_before"] != witness.actual["intersection_after"]
        move = witness.premise["move"]
        assert apply_slide(ranking, move) == witness.premise["ranking_after"]

    def test_plurality_satisfies_same_instance(self):
        verdict = check_slide_independence(rk("1 2 23 14 / rest", n=4), plurality)
        assert verdict.status == SATISFIED
        assert verdict.premises_checked > 0

    def test_total_tie_inapplicable(self):
        for rule in RULES.values():
            assert check_slide_independence(TIE3, rule).status == INAPPLICABLE

    def test_f_star_fails_at_three_individuals(self):
        verdict = check_slide_independence(rk("1 2 12 / 3 / rest"), f_star)
        assert verdict.status == VIOLATED

    def test_too_many_slides_refused_before_the_rule_runs(self):
        ranking = validate_ranking([list(range(1, 31)), [31]], Universe(5))

        def rule(ranking):
            raise AssertionError("the rule ran")

        with pytest.raises(UniverseTooLargeError, match="slides"):
            check_slide_independence(ranking, rule)


class TestDownwardMonotonicity:
    def test_f_star_fails_on_odd_product_instance(self):
        verdict = check_downward_monotonicity(rk("1 2 12 / 3 / rest"), f_star)
        assert verdict.status == VIOLATED
        witness = verdict.witness
        assert witness.premise["x"] not in [
            i for i in range(3) if witness.premise["s"] >> i & 1
        ]
        after = witness.premise["ranking_after"]
        assert witness.premise["x"] not in f_star(after)

    def test_plurality_keeps_the_selected_firm(self):
        verdict = check_downward_monotonicity(EX2, plurality)
        assert verdict.status == SATISFIED
        assert verdict.premises_checked > 0

    def test_constant_rule_always_satisfies(self):
        for ranking in (EX2, PROP1_RANKING, rk("1 2 12 / 3 / rest")):
            assert check_downward_monotonicity(ranking, const_x).status == SATISFIED

    @pytest.mark.parametrize(
        "shorthand, rule, premises, placement",
        [
            ("1 2 12 3 13 / 23 / 123", f_star, 51, DeteriorationSpec(cmask("3"), "join", 1)),
            ("1 / 2 / 12 / 3 / 13 / 23 / 123", obi, 79, DeteriorationSpec(cmask("3"), "join", 4)),
        ],
    )
    def test_witness_is_individual_major(self, shorthand, rule, premises, placement):
        ranking = rk(shorthand)
        verdict = check_downward_monotonicity(ranking, rule)
        assert verdict.premises_checked == premises
        premise = verdict.witness.premise
        assert (premise["x"], premise["s"], premise["placement"]) == (
            sel("2")[0], cmask("3"), placement
        )
        # Individual 3 is dropped earlier in (s, placement) order, yet the
        # witness names individual 2: the scan takes x first.
        (three,) = sel("3")
        earlier = [
            apply_deterioration(ranking, spec)
            for s in range(1, cmask("3"))
            if not s >> three & 1
            for spec in enumerate_deterioration_specs(ranking, s)
        ]
        assert any(three not in rule(after) for after in earlier)


class TestRegistryAndReplay:
    def test_registry_is_complete(self):
        assert set(AXIOMS) == {
            "RAG", "WRAG", "RDF", "RJAD", "TAG", "STAG", "TDF", "TJAD", "CV", "SI", "DMON",
        }

    def test_lookup_is_case_insensitive(self):
        assert lookup_axiom("stag") is AXIOMS["STAG"]

    def test_lookup_unknown(self):
        with pytest.raises(UnknownAxiomError):
            lookup_axiom("banzhaf")

    @pytest.mark.parametrize(
        "axiom,ranking,rule",
        [
            ("STAG", rk("12 / 1 / rest"), les),
            ("CV", rk("12 / 2 / 1 13 123 / rest"), les),
            ("TAG", rk("1 / 2 23 / 12 123 / 3 13"), obi),
            ("SI", rk("1 2 23 14 / rest", n=4), split_plurality),
            ("DMON", rk("1 2 12 / 3 / rest"), f_star),
            ("RDF", PROP1_RANKING, plurality),
        ],
    )
    def test_witness_replays_to_violated(self, axiom, ranking, rule):
        verdict = AXIOMS[axiom](ranking, rule)
        assert verdict.status == VIOLATED
        assert replay(verdict.witness, rule).status == VIOLATED
        assert replay(verdict.witness, rule).witness == verdict.witness

    def test_verdict_invariants_across_rules_and_axioms(self):
        for seed in range(10):
            ranking = sample_ranking(3, seed + 400)
            for check in AXIOMS.values():
                for rule in RULES.values():
                    verdict = check(ranking, rule)
                    assert (verdict.status == INAPPLICABLE) == (verdict.premises_checked == 0)
                    assert (verdict.witness is not None) == (verdict.status == VIOLATED)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_strong_agreement_implies_weak_or_inapplicable(seed):
    ranking = sample_ranking(3, seed)
    for rule in RULES.values():
        strong = check_top_agreement(ranking, rule, strong=True)
        if strong.status == SATISFIED:
            weak = check_top_agreement(ranking, rule, strong=False)
            assert weak.status in (SATISFIED, INAPPLICABLE)


def _positives_intersection(ranking, s0):
    inter = ranking.universe.full_mask
    j = ranking.index_of(s0)
    for cls in ranking.classes[:j]:
        for mask in cls:
            inter &= mask
    return inter


def test_relative_premises_induce_agreement_premise_exhaustive_n2(all_n2):
    for ranking in all_n2:
        for s0, x in rdf_premises(ranking) + rjad_premises(ranking):
            assert _positives_intersection(ranking, s0) == 1 << x


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_relative_premises_induce_agreement_premise_sampled_n3(seed):
    ranking = sample_ranking(3, seed)
    for s0, x in rdf_premises(ranking) + rjad_premises(ranking):
        assert _positives_intersection(ranking, s0) == 1 << x


def test_relative_joint_premises_match_oracle_exhaustive_n2(all_n2):
    for ranking in all_n2:
        assert rjad_premises(ranking) == oracle_rjad_premises(ranking)


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 10**6), n=st.sampled_from([3, 4]))
def test_relative_joint_premises_match_oracle_sampled(seed, n):
    ranking = sample_ranking(n, seed)
    assert rjad_premises(ranking) == oracle_rjad_premises(ranking)


def test_relative_joint_premises_on_membership_family():
    ranking = rk("1 12 13 123 / rest")
    assert rjad_premises(ranking) == oracle_rjad_premises(ranking)
    assert [x for _, x in rjad_premises(ranking)] == [0, 0, 0]


class TestPremiseJudge:
    """Premise-only verdicts judged on id bitmasks, against the set-based judge."""

    @pytest.mark.parametrize("axiom", PREMISE_AXIOMS)
    def test_matches_the_set_oracle(self, all_n2, axiom):
        # Every nonempty selection, as a constant rule, on every ranking with
        # an instance: exhaustive n = 2, a seeded n = 3 sample and two n = 3
        # rankings whose best class is the membership family of 1 (TDF, TJAD).
        lister = PREMISE_AXIOMS[axiom][0]
        pinned = [rk("1 12 13 123 / rest"), rk("1 12 13 123 / 2 3 / 23")]
        judged = Counter()
        for ranking in [*all_n2, *RankingStream(Universe(3), Sample(300, 35)), *pinned]:
            instances = lister(ranking)
            if not instances:
                continue
            n = ranking.universe.n
            for selected in range(1, 1 << n):
                actual = mask_members(selected, n)
                verdict = judge(axiom, ranking, lambda _: actual)
                assert repr(verdict) == repr(oracle_judge_selection(axiom, ranking, instances, actual))
                judged[verdict.status] += 1
        assert judged[VIOLATED] and judged[SATISFIED]


# The listers that can return several instances, listed again from the premises' wording.
ORACLE_LISTERS = {
    "RAG": oracle_rag_premises,
    "WRAG": oracle_rag_premises,
    "RDF": oracle_rdf_premises,
    "RJAD": oracle_rjad_premises,
}


def _assert_one_forced_mask(ranking):
    """Every lister lists what its oracle lists, and all its instances force one mask."""
    oracles = {fn: fn(ranking) for fn in set(ORACLE_LISTERS.values())}
    for axiom, (lister, *_) in PREMISE_AXIOMS.items():
        instances = lister(ranking)
        oracle = oracles[ORACLE_LISTERS[axiom]] if axiom in ORACLE_LISTERS else instances
        assert instances == oracle, (axiom, ranking)
        assert axiom in ORACLE_LISTERS or len(instances) <= 1
        masks = {forced_mask([instance]) for instance in oracle}
        assert masks == ({forced_mask(instances)} if instances else set()), (axiom, ranking)


def _lists_by_best_class(axiom, rankings):
    """Whether the axiom's lister lists the same on each ranking as on its best-class reduction."""
    lister = PREMISE_AXIOMS[axiom][0]
    for ranking in rankings:
        top = class_bits(ranking.classes[:1])[0]
        if lister(ranking) != lister(best_class_reduction(ranking.universe, top)):
            return False
    return True


class TestPremiseListings:
    """One forced mask per lister and ranking, and the listers that read the best class alone."""

    def test_one_forced_mask_exhaustive_n3(self, all_n3):
        several = Counter()
        for ranking in all_n3:
            _assert_one_forced_mask(ranking)
            several.update(a for a in ORACLE_LISTERS if len(PREMISE_AXIOMS[a][0](ranking)) > 1)
        assert several == {"RAG": 20532, "WRAG": 20532, "RDF": 900, "RJAD": 900}

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 10**6), n=st.integers(4, 6))
    def test_one_forced_mask_sampled(self, seed, n):
        _assert_one_forced_mask(sample_ranking(n, seed))

    def test_declared_axioms_list_as_on_the_reduction_n3(self, all_n3):
        assert BEST_CLASS_AXIOMS == {"TAG", "STAG", "TDF", "TJAD"}
        for axiom in BEST_CLASS_AXIOMS:
            assert _lists_by_best_class(axiom, all_n3), axiom

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10**6), n=st.integers(4, 6))
    def test_declared_axioms_list_as_on_the_reduction_sampled(self, seed, n):
        ranking = sample_ranking(n, seed)
        for axiom in BEST_CLASS_AXIOMS:
            assert _lists_by_best_class(axiom, [ranking]), axiom

    @pytest.mark.parametrize("axiom", sorted(set(PREMISE_AXIOMS) - BEST_CLASS_AXIOMS))
    def test_undeclared_axioms_read_below_the_best_class(self, all_n3, axiom):
        # Declaring CV, RAG or any other relative axiom would change reports.
        assert not _lists_by_best_class(axiom, all_n3)


class TestTransformationCheckers:
    """SI and DMON judged from class bitsets and selection tables, against the direct loops."""

    CHECKERS = {
        "SI": (check_slide_independence, oracle_slide_independence),
        "DMON": (check_downward_monotonicity, oracle_downward_monotonicity),
    }

    @pytest.fixture(scope="class")
    def rankings(self, all_n2):
        # Exhaustive n = 2 and seeded n = 3 and n = 4 samples, checked
        # without a table: every target is built and the rule called on it.
        return [
            *all_n2,
            *RankingStream(Universe(3), Sample(150, 31)),
            *RankingStream(Universe(4), Sample(8, 32)),
        ]

    @pytest.mark.parametrize("axiom", CHECKERS)
    @pytest.mark.parametrize("rule_id", RULES)
    def test_match_the_oracles(self, rankings, axiom, rule_id):
        check, oracle = self.CHECKERS[axiom]
        rule = RULES[rule_id]
        for ranking in rankings:
            assert to_json(check(ranking, rule)) == to_json(oracle(ranking, rule))

    @pytest.mark.parametrize("axiom", CHECKERS)
    @pytest.mark.parametrize("rule_id", RULES)
    def test_match_the_oracles_from_filled_tables(self, axiom, rule_id):
        # Each walked ranking with a complete table built by the oracle stream:
        # a wrongly ranked target would read another ranking's selection.
        check, oracle = self.CHECKERS[axiom]
        rule = RULES[rule_id]
        walked = [(2, w) for w in walk_stream(2)]
        for index in random.Random(33).sample(range(fubini(7)), 60):
            walked.extend((3, w) for w in walk_stream(3, index, index + 1))
        for n, (classes, bits, remaining, before, _) in walked:
            table = oracle_selection_table(rule_id, n)
            ranking = CoalitionalRanking._trusted(Universe(n), classes)
            got = check(ranking, rule, table[before[-1]], (remaining, before), None, table)
            assert to_json(got) == to_json(oracle(ranking, rule))

    @pytest.mark.parametrize(
        "rule_id, axiom, shorthands",
        [
            # The first three witnesses of each violated cell of the exhaustive n = 3 sweep.
            ("f_star", "SI", ["1/2/12/3/13 23 123", "1/2/12/3 13 23/123", "1/2/12/3 13 123/23"]),
            ("f_star", "DMON", ["1 2 12/3/13/23/123", "1 2 12/3/13/123/23", "1 2 12/3/13 23 123"]),
            ("obi", "SI", ["1/2/12/3/13/23 123", "1/2/12/3/13 23/123", "1/2/12/3/13 23 123"]),
            ("obi", "DMON", ["1/2/12/3/13/23/123", "1/2/12/3/13 23/123", "1/2/12/3/23/13/123"]),
            ("split_plurality", "SI", ["1 2 12 3 13 23/123", "1 2 12 13 23/3/123", "1 2 12 13 23/3 123"]),
        ],
    )
    def test_witnesses_from_walked_tables(self, rule_id, axiom, shorthands):
        # Each witness ranking, walked at its stream index and judged through
        # its table, reports the oracle's premises and witness.
        check, oracle = self.CHECKERS[axiom]
        rule, table = RULES[rule_id], oracle_selection_table(rule_id, 3)
        for shorthand in shorthands:
            ranking = rk(shorthand)
            index = oracle_stream_index(class_bits(ranking.classes), 3)
            ((classes, bits, remaining, before, _),) = walk_stream(3, index, index + 1)
            assert classes == ranking.classes
            verdict = check(ranking, rule, table[index], (remaining, before), None, table)
            assert verdict.status == VIOLATED
            assert to_json(verdict) == to_json(oracle(ranking, rule))

    @pytest.mark.parametrize("axiom", CHECKERS)
    @pytest.mark.parametrize("rule_id", [*sorted(BEST_CLASS_RULES), "hashed_top"])
    def test_best_class_reads_match_the_general_path(self, all_n2, monkeypatch, axiom, rule_id):
        # With top, a checker reads only the targets that change the best
        # class. Its verdict, witness included, must equal the general
        # path's: the rule wrapped and called on every target at n = 2, 4
        # and 5, or read at each target's stream index from its table on a
        # seeded n = 3 sample, walked.
        monkeypatch.setitem(RULES, "hashed_top", _hashed_top)
        check, rule = self.CHECKERS[axiom][0], RULES[rule_id]
        cases = [(ranking, ()) for ranking in all_n2]
        table = oracle_selection_table(rule_id, 3)
        for index in random.Random(36).sample(range(fubini(7)), 80):
            ((classes, bits, remaining, before, _),) = walk_stream(3, index, index + 1)
            general = table[index], (remaining, before), None, table
            cases.append((CoalitionalRanking._trusted(Universe(3), classes), general))
        cases += [(ranking, ()) for ranking in RankingStream(Universe(4), Sample(10, 37))]
        cases += [(ranking, ()) for ranking in RankingStream(Universe(5), Sample(3, 38))]
        statuses = Counter()
        for ranking, general in cases:
            universe, bits = ranking.universe, class_bits(ranking.classes)
            top = lambda best: selection_mask(rule, best_class_reduction(universe, best))
            want = check(ranking, lambda r: rule(r), *general)
            assert repr(check(ranking, rule, top(bits[0]), None, top)) == repr(want)
            statuses[want.status] += 1
        if (rule_id, axiom) in (("hashed_top", "SI"), ("hashed_top", "DMON"), ("split_plurality", "SI")):
            assert statuses[VIOLATED] >= 3, statuses

    @pytest.mark.parametrize("rule_id", [*sorted(BEST_CLASS_RULES), "hashed_top"])
    def test_slide_memo_shared_across_rankings(self, monkeypatch, rule_id):
        # The best-class path on every n = 3 ranking in stream order against
        # the table path, then on a seeded n = 4 sample against the no-table
        # path, with one best-class reader per universe for the whole walk,
        # as a chunk keeps it. Verdicts, witnesses included, must be equal.
        monkeypatch.setitem(RULES, "hashed_top", _hashed_top)
        rule, table = RULES[rule_id], oracle_selection_table(rule_id, 3)
        sample = RankingStream(Universe(4), Sample(120, 39))
        sample = [(r.classes, class_bits(r.classes), None, None, 1) for r in sample]
        statuses = Counter()
        for n, rankings in ((3, walk_stream(3)), (4, sample)):
            universe = Universe(n)
            top = cache(lambda best: selection_mask(rule, best_class_reduction(universe, best)))
            for classes, bits, remaining, before, _ in rankings:
                ranking = CoalitionalRanking._trusted(universe, classes)
                got = check_slide_independence(ranking, rule, top(bits[0]), None, top)
                general = n == 3 and (table[before[-1]], (remaining, before), None, table)
                want = check_slide_independence(ranking, lambda r: rule(r), *general or ())
                assert repr(got) == repr(want), ranking
                statuses[want.status] += 1
        assert statuses[VIOLATED] >= (3 if rule_id in ("split_plurality", "hashed_top") else 0)

    @pytest.mark.parametrize("n, shorthand", [(2, "1 12 / 2"), (3, "1 2 3 12 13 23 / 123")])
    def test_slide_conclusions_match_pair_by_pair_readings(self, n, shorthand):
        # Every gamma's balanced pairs from coalition counts. Then, for every
        # base and slid selection, the slides out of a class whose gammas
        # balance every set of pairs that any gamma balances, read through a
        # table that gives each slid ranking that selection, against the
        # oracle, which builds each slid ranking and judges each pair with
        # judge_slide.
        pairs = [(x, y) for x in range(n) for y in range(x + 1, n)]
        balanced_of = _balanced_by_gamma(n)
        coalitions = range(1, 1 << n)
        for gamma in range(1 << len(coalitions)):
            moved = [m for m in coalitions if gamma >> (m - 1) & 1]
            counts = [sum(m >> i & 1 for m in moved) for i in range(n)]
            want = sum(1 << p for p, (x, y) in enumerate(pairs) if counts[x] == counts[y])
            assert balanced_of[gamma] == want
        ranking = rk(shorthand, n=n)
        bits = class_bits(ranking.classes)
        assert {balanced_of[gamma] for gamma in slide_gamma_bits(bits[0])} == set(balanced_of)
        walk = oracle_stream_walk(bits, n)
        for base in range(1 << n):
            for after in range(1 << n):
                table = bytes([after]) * fubini((1 << n) - 1)
                rule = lambda r: mask_members(base if r is ranking else after, n)
                got = check_slide_independence(ranking, rule, base, walk, None, table)
                assert to_json(got) == to_json(oracle_slide_independence(ranking, rule))

    def test_rule_runs_once_per_distinct_ranking(self, rule_calls):
        # An exhaustive pass evaluates each rule with an SI or DMON cell
        # once per ranking, to build its table, and nowhere else; a
        # best-class rule once per best class, on the 7 reductions at n = 2.
        # No witness is kept: an orbit pass judges each witness's ranking again.
        cells = [(rule, axiom) for rule in RULES for axiom in ("STAG", "SI", "DMON")]
        sweep_cells(cells, 2, witness_cap=0)
        assert max(rule_calls.values()) == 1
        want = {rule: 7 if rule in BEST_CLASS_RULES else 13 for rule in RULES}
        assert Counter(rule_id for rule_id, _ in rule_calls) == want

    def test_rule_without_weak_references(self):
        class Slotted:
            __slots__ = ()

            def __call__(self, ranking):
                return f_star(ranking)

        ranking = rk("1 2 12 / 3 / rest")
        for check, oracle in self.CHECKERS.values():
            assert to_json(check(ranking, Slotted())) == to_json(oracle(ranking, f_star))
