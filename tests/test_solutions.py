from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from millrank import (
    CoalitionalRanking,
    RULES,
    UnknownRuleError,
    banzhaf,
    const_x,
    f_star,
    les,
    lookup_rule,
    mask_members,
    obi,
    plurality,
    relabel,
    sample_ranking,
    split_plurality,
    theta,
    top_intersection,
)
from millrank.solutions import ANONYMOUS_RULES, BEST_CLASS_RULES, best_class_reduction
from helpers import (
    hashed_top,
    oracle_f_star,
    oracle_les,
    oracle_obi,
    oracle_plurality,
    oracle_split_plurality,
    rk,
    sel,
)

EX2 = rk("123 12 13 / rest")
TIE3 = rk("rest")


class TestPlurality:
    def test_example(self):
        assert plurality(EX2) == sel("1")

    def test_total_tie(self):
        assert plurality(TIE3) == sel("123")

    def test_two_way_tie(self):
        assert plurality(rk("12 / 1 / rest")) == sel("12")


class TestLes:
    def test_breaks_plurality_tie(self):
        assert les(rk("12 / 1 / rest")) == sel("1")

    def test_total_tie(self):
        assert les(TIE3) == sel("123")

    def test_cv_proof_fixture(self):
        assert les(rk("12 / 2 / 1 13 123 / rest")) == sel("2")


class TestObi:
    def test_tag_proof_fixture(self):
        assert obi(rk("1 / 2 23 / 12 123 / 3 13")) == sel("2")

    def test_total_tie(self):
        assert obi(TIE3) == sel("123")

    def test_example(self):
        assert obi(EX2) == sel("1")


class TestSplitPlurality:
    def test_four_individual_instance(self):
        assert split_plurality(rk("1 2 23 14 / rest", n=4)) == sel("12")
        assert split_plurality(rk("1 23 / rest", n=4)) == sel("1")

    def test_total_tie(self):
        assert split_plurality(TIE3) == sel("123")

    def test_example_weights(self):
        # 1/3 + 1/2 + 1/2 beats 1/3 + 1/2
        assert split_plurality(EX2) == sel("1")


class TestFStar:
    def test_nonempty_intersection(self):
        assert f_star(EX2) == sel("1")

    def test_odd_product_selects_everyone(self):
        assert f_star(rk("1 2 12 / 3 / rest")) == sel("123")

    def test_even_product_falls_back_to_plurality(self):
        assert f_star(rk("1 2 12 / rest")) == sel("12")


class TestConstX:
    def test_always_everyone(self):
        for ranking in (EX2, TIE3, rk("12 / 1 / rest")):
            assert const_x(ranking) == sel("123")


class TestLookupRule:
    @pytest.mark.parametrize("rule_id", sorted(RULES))
    def test_roundtrip(self, rule_id):
        assert lookup_rule(rule_id) is RULES[rule_id]

    def test_unknown(self):
        with pytest.raises(UnknownRuleError):
            lookup_rule("banzhaf")


ORACLES = {
    "plurality": oracle_plurality,
    "les": oracle_les,
    "obi": oracle_obi,
    "split_plurality": oracle_split_plurality,
    "f_star": oracle_f_star,
}


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 10**6), n=st.integers(2, 4))
def test_rules_match_oracles_on_random_rankings(seed, n):
    ranking = sample_ranking(n, seed)
    for rule_id, oracle in ORACLES.items():
        assert RULES[rule_id](ranking) == oracle(ranking), rule_id


def _argmax(scores):
    best = max(scores)
    return tuple(i for i, score in enumerate(scores) if score == best)


def test_les_and_obi_argmax_the_core_statistics_exhaustive_n3(all_n3):
    # les and obi tally every individual in one pass; core.theta and
    # core.banzhaf compute one individual at a time.
    for ranking in all_n3:
        individuals = range(ranking.universe.n)
        assert les(ranking) == _argmax([theta(ranking, x) for x in individuals])
        assert obi(ranking) == _argmax([banzhaf(ranking, x).score for x in individuals])


def test_les_and_obi_match_the_oracles_exhaustive_n2(all_n2):
    for ranking in all_n2:
        assert les(ranking) == oracle_les(ranking)
        assert obi(ranking) == oracle_obi(ranking)


def test_every_rule_nonempty_exhaustive_n2(all_n2):
    for ranking in all_n2:
        for rule in RULES.values():
            selection = rule(ranking)
            assert selection
            assert list(selection) == sorted(set(selection))


def test_les_refines_plurality_exhaustive_n2(all_n2):
    for ranking in all_n2:
        assert set(les(ranking)) <= set(plurality(ranking))


def test_plurality_agrees_with_top_intersection_n3(all_n3):
    for ranking in all_n3[::17]:
        inter = top_intersection(ranking)
        if inter:
            assert plurality(ranking) == mask_members(inter, 3)


def test_split_scores_total_the_top_class_size(all_n2):
    for ranking in all_n2:
        total = Fraction(0)
        for mask in ranking.classes[0]:
            total += Fraction(1)
        scores = Fraction(0)
        for x in range(2):
            scores += sum(
                (Fraction(1, m.bit_count()) for m in ranking.classes[0] if m >> x & 1),
                Fraction(0),
            )
        assert scores == total == len(ranking.classes[0])


def test_rules_are_pure():
    ranking = rk("12 / 2 / 1 13 123 / rest")
    rebuilt = rk("12 / 2 / 1 13 123 / 3 23")
    assert ranking == rebuilt
    for rule in RULES.values():
        assert rule(ranking) == rule(rebuilt) == rule(ranking)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10**6), perm=st.permutations(range(4)))
def test_rules_are_anonymous_at_n4(seed, perm):
    ranking = sample_ranking(4, seed)
    permuted = relabel(ranking, perm)
    for rule in RULES.values():
        expected = tuple(sorted(perm[i] for i in rule(ranking)))
        assert rule(permuted) == expected


def _reduction(ranking):
    """The best class of the ranking, then every other coalition in one class."""
    rest = tuple(sorted(m for cls in ranking.classes[1:] for m in cls))
    return CoalitionalRanking._trusted(ranking.universe, (ranking.classes[0], *([rest] if rest else [])))


class TestBestClassRules:
    """The rules declared to select from the best class alone, by name."""

    def test_declared_rules(self):
        assert BEST_CLASS_RULES == {"plurality", "split_plurality", "const_x"}
        assert BEST_CLASS_RULES <= set(RULES)

    def test_reduction_is_the_best_class_then_the_rest(self, all_n3):
        for ranking in all_n3[::97]:
            top = sum(1 << (m - 1) for m in ranking.classes[0])
            assert best_class_reduction(ranking.universe, top) == _reduction(ranking)

    def test_declared_rules_select_as_on_the_reduction_n3(self, all_n3):
        for ranking in all_n3:
            reduction = _reduction(ranking)
            for rule_id in BEST_CLASS_RULES:
                assert RULES[rule_id](ranking) == RULES[rule_id](reduction), (rule_id, ranking)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 10**6), n=st.integers(4, 5))
    def test_declared_rules_select_as_on_the_reduction_n4_n5(self, seed, n):
        ranking = sample_ranking(n, seed)
        reduction = _reduction(ranking)
        for rule_id in BEST_CLASS_RULES:
            assert RULES[rule_id](ranking) == RULES[rule_id](reduction)

    @pytest.mark.parametrize(
        "rule_id, shorthand, on_ranking, on_reduction",
        [
            # les breaks the best-class tie with the second class.
            ("les", "1 2 / 12 / 3 / 13 / 23 / 123", "1", "12"),
            # obi reads every class.
            ("obi", "1 / 2 / 12 / 3 / 13 / 23 / 123", "123", "1"),
            # f_star reads the class count: 5 classes, 2 on the reduction.
            ("f_star", "1 2 12 / 3 / 13 / 23 / 123", "123", "12"),
        ],
    )
    def test_undeclared_rules_read_below_the_best_class(
        self, rule_id, shorthand, on_ranking, on_reduction
    ):
        # Declaring any of these would change reports: each selects apart
        # on a ranking and on its reduction.
        assert rule_id not in BEST_CLASS_RULES
        ranking = rk(shorthand)
        assert RULES[rule_id](ranking) == sel(on_ranking)
        assert RULES[rule_id](_reduction(ranking)) == sel(on_reduction)


@pytest.fixture(scope="module")
def relabeled_n3(all_n3):
    """Per permutation of the ids, the stream index of each n = 3 ranking relabeled by core.relabel."""
    index = {ranking.classes: i for i, ranking in enumerate(all_n3)}
    return {perm: [index[relabel(r, perm).classes] for r in all_n3] for perm in permutations(range(3))}


class TestAnonymousRules:
    """ANONYMOUS_RULES is a claim: each rule it names commutes with core.relabel."""

    def test_names_registered_rules_and_no_test_copy(self):
        assert ANONYMOUS_RULES <= set(RULES)
        assert "hashed_top" not in ANONYMOUS_RULES

    @pytest.mark.parametrize("rule_id", [*sorted(ANONYMOUS_RULES), "hashed_top"])
    def test_commutes_with_relabel_on_every_n3_ranking(self, all_n3, relabeled_n3, rule_id):
        # Relabeling a ranking relabels the selection alike, under all six
        # permutations; the id-breaking hashed_top must fail the same check.
        rule = RULES.get(rule_id, hashed_top)
        selections = [rule(ranking) for ranking in all_n3]
        commutes = all(
            selections[image] == tuple(sorted(perm[i] for i in selections[index]))
            for perm, images in relabeled_n3.items()
            for index, image in enumerate(images)
        )
        assert commutes == (rule_id in ANONYMOUS_RULES)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 10**6), n=st.integers(4, 5), data=st.data())
    def test_commutes_with_relabel_on_draws(self, seed, n, data):
        ranking = sample_ranking(n, seed)
        perm = data.draw(st.permutations(range(n)))
        for rule_id in sorted(ANONYMOUS_RULES):
            rule = RULES[rule_id]
            assert rule(relabel(ranking, perm)) == tuple(sorted(perm[i] for i in rule(ranking))), rule_id
