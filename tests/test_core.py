import itertools
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from millrank import (
    BETTER,
    TIE,
    WORSE,
    BanzhafTally,
    DuplicateCoalitionError,
    EmptyClassError,
    EmptyCoalitionError,
    MissingCoalitionError,
    OutOfUniverseError,
    Universe,
    banzhaf,
    compare,
    concomitant_set,
    relabel,
    sample_ranking,
    split_instances,
    theta,
    validate_ranking,
)
from millrank import core
from millrank.core import CoalitionalRanking, class_bits
from millrank.enumeration import RankingStream, Sample
from millrank.solutions import best_class_reduction
from millrank.textio import parse_ranking, render_ranking
from millrank.transforms import _decode
from helpers import (
    cmask,
    oracle_banzhaf,
    oracle_concomitant,
    oracle_theta,
    rk,
    sel,
)

EX2 = rk("123 12 13 / rest")
TIE3 = rk("rest")


class TestUniverse:
    def test_default_names_are_digits(self):
        assert Universe(3).names == ("1", "2", "3")

    def test_rejects_bad_sizes_and_duplicate_names(self):
        with pytest.raises(ValueError):
            Universe(0)
        with pytest.raises(ValueError):
            Universe(2, ("a", "a"))
        with pytest.raises(ValueError):
            Universe(2, ("a",))


class TestValidateRanking:
    def test_example_two_level_ranking(self):
        assert EX2.num_classes == 2
        assert len(EX2.classes[0]) == 3
        assert len(EX2.classes[1]) == 4

    def test_missing_coalition(self):
        classes = [[cmask("123"), cmask("12"), cmask("13")], [cmask("1"), cmask("2"), cmask("3")]]
        with pytest.raises(MissingCoalitionError):
            validate_ranking(classes, Universe(3))

    def test_single_class_total_tie(self):
        assert TIE3.num_classes == 1
        assert len(TIE3.classes[0]) == 7

    def test_empty_class(self):
        with pytest.raises(EmptyClassError):
            validate_ranking([[cmask("1")], []], Universe(1))

    def test_empty_coalition(self):
        with pytest.raises(EmptyCoalitionError):
            validate_ranking([[0, 1]], Universe(1))

    def test_duplicate_coalition(self):
        with pytest.raises(DuplicateCoalitionError):
            validate_ranking([[1], [2, 3, 1]], Universe(2))

    def test_out_of_universe(self):
        with pytest.raises(OutOfUniverseError):
            validate_ranking([[1, 2, 3, 8]], Universe(2))

    def test_canonical_sorting_and_equality(self):
        a = validate_ranking([[5, 3, 7], [1, 6, 2, 4]], Universe(3))
        assert a == EX2
        assert hash(a) == hash(EX2)


class TestCompare:
    def test_example_strict(self):
        assert compare(EX2, cmask("12"), cmask("23")) == BETTER

    def test_reflexive_tie(self):
        assert compare(EX2, cmask("13"), cmask("13")) == TIE

    def test_worse(self):
        assert compare(EX2, cmask("1"), cmask("12")) == WORSE

    def test_out_of_universe(self):
        with pytest.raises(OutOfUniverseError):
            compare(EX2, 0, 1)
        with pytest.raises(OutOfUniverseError):
            compare(EX2, 1, 9)

    def test_total_preorder_exhaustive_n2(self, all_n2):
        masks = range(1, 4)
        for ranking in all_n2:
            for s, t in itertools.product(masks, repeat=2):
                forward = compare(ranking, s, t)
                backward = compare(ranking, t, s)
                assert (forward == BETTER) == (backward == WORSE)
                assert (forward == TIE) == (backward == TIE)
            for s, t, u in itertools.product(masks, repeat=3):
                if compare(ranking, s, t) != WORSE and compare(ranking, t, u) != WORSE:
                    assert compare(ranking, s, u) != WORSE

    def test_transitivity_sampled_n3(self, all_n3):
        masks = range(1, 8)
        for ranking in all_n3[::97]:
            for s, t, u in itertools.product(masks, repeat=3):
                if compare(ranking, s, t) != WORSE and compare(ranking, t, u) != WORSE:
                    assert compare(ranking, s, u) != WORSE


class TestTheta:
    def test_example_individual_one(self):
        assert theta(EX2, sel("1")[0]) == (3, 1)

    def test_example_individual_two(self):
        assert theta(EX2, sel("2")[0]) == (2, 2)

    def test_total_tie(self):
        for x in range(3):
            assert theta(TIE3, x) == (4,)

    def test_matches_oracle_on_samples(self):
        for seed in range(25):
            ranking = sample_ranking(3, seed)
            for x in range(3):
                assert theta(ranking, x) == oracle_theta(ranking, x)

    def test_sum_is_half_the_coalitions(self, all_n2):
        for ranking in all_n2:
            for x in range(2):
                assert sum(theta(ranking, x)) == 2

    def test_top_counts_sum_to_top_sizes(self, all_n2):
        for ranking in all_n2:
            total = sum(theta(ranking, x)[0] for x in range(2))
            assert total == sum(mask.bit_count() for mask in ranking.classes[0])


class TestBanzhaf:
    def test_prop3_fixture_positive(self):
        ranking = rk("1 / 2 23 / 12 123 / 3 13")
        assert banzhaf(ranking, sel("2")[0]) == BanzhafTally(2, 1, 1)

    def test_prop3_fixture_negative(self):
        ranking = rk("1 / 2 23 / 12 123 / 3 13")
        assert banzhaf(ranking, sel("1")[0]) == BanzhafTally(0, 2, -2)

    def test_total_tie_all_zero(self):
        for x in range(3):
            assert banzhaf(TIE3, x) == BanzhafTally(0, 0, 0)

    def test_matches_oracle_on_samples(self):
        for seed in range(25):
            ranking = sample_ranking(3, seed + 100)
            for x in range(3):
                tally = banzhaf(ranking, x)
                assert (tally.u_plus, tally.u_minus, tally.score) == oracle_banzhaf(ranking, x)

    def test_comparison_budget(self, all_n2):
        for ranking in all_n2:
            for x in range(2):
                tally = banzhaf(ranking, x)
                assert tally.u_plus + tally.u_minus <= 1  # 2**(n-1) - 1 at n=2


class TestConcomitantSet:
    def test_example(self):
        assert concomitant_set(EX2) == sel("1")

    def test_cv_proof_fixture(self):
        assert concomitant_set(rk("12 / 2 / 1 13 123 / rest")) == sel("1")

    def test_total_tie_empty(self):
        assert concomitant_set(TIE3) == ()

    def test_matches_oracle_on_samples(self):
        for seed in range(40):
            ranking = sample_ranking(3, seed + 7)
            assert concomitant_set(ranking) == oracle_concomitant(ranking)

    def test_member_attains_maximal_score(self, all_n3):
        for ranking in all_n3[::31]:
            for x in concomitant_set(ranking):
                assert banzhaf(ranking, x).score == 3  # 2**(n-1) - 1 at n=3


class TestSplitInstances:
    def test_example(self):
        positives, negatives = split_instances(EX2, cmask("23"))
        assert set(positives) == {cmask("123"), cmask("12"), cmask("13")}
        assert set(negatives) == {cmask("23"), cmask("1"), cmask("2"), cmask("3")}

    def test_top_class_reference(self):
        positives, _ = split_instances(EX2, cmask("12"))
        assert positives == ()

    def test_two_level_reference(self):
        positives, _ = split_instances(rk("12 / 1 / rest"), cmask("1"))
        assert positives == (cmask("12"),)

    def test_partition_for_every_reference(self, all_n2):
        for ranking in all_n2:
            for s0 in range(1, 4):
                positives, negatives = split_instances(ranking, s0)
                assert set(positives) | set(negatives) == {1, 2, 3}
                assert not set(positives) & set(negatives)
                assert s0 in negatives


class TestRelabel:
    def test_identity(self):
        assert relabel(EX2, (0, 1, 2)) == EX2

    def test_swap_tracks_statistics(self):
        swapped = relabel(EX2, (0, 2, 1))
        assert theta(swapped, 1) == theta(EX2, 2)
        assert concomitant_set(swapped) == sel("1")

    def test_rejects_non_permutation(self):
        with pytest.raises(ValueError):
            relabel(EX2, (0, 0, 2))

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 10**6), swap=st.permutations(range(3)))
    def test_double_application_round_trips(self, seed, swap):
        ranking = sample_ranking(3, seed)
        inverse = [0] * 3
        for i, p in enumerate(swap):
            inverse[p] = i
        assert relabel(relabel(ranking, swap), inverse) == ranking


class TestCarriedBits:
    """A ranking carries ``class_bits(classes)`` whichever way it was built."""

    @staticmethod
    def assert_carries(ranking):
        assert ranking.bits == class_bits(ranking.classes)
        assert type(ranking.bits) is tuple

    def test_validated_and_parsed(self):
        for ranking in (EX2, TIE3, rk("1 2 / 12 3 / rest"), CoalitionalRanking(Universe(2), [[3], [2, 1]])):
            self.assert_carries(ranking)
            self.assert_carries(parse_ranking(render_ranking(ranking)))

    def test_decoded_sampled_reduced_and_relabelled(self):
        for seed in range(40):
            ranking = sample_ranking(4, seed)
            self.assert_carries(ranking)
            self.assert_carries(_decode(ranking.universe, list(ranking.bits)))
            self.assert_carries(best_class_reduction(ranking.universe, ranking.bits[0]))
            self.assert_carries(relabel(ranking, (3, 1, 0, 2)))

    def test_walked_in_both_modes(self):
        for stream in (RankingStream(Universe(3)), RankingStream(Universe(4), Sample(30, 2))):
            walked = [ranking for ranking, *_ in stream.walk(range(len(stream)))]
            assert len(walked) == len(stream)
            for ranking in walked:
                self.assert_carries(ranking)
        assert walked == list(RankingStream(Universe(4), Sample(30, 2)))

    def test_walks_and_decodes_hand_over_their_bitsets(self, monkeypatch):
        calls = []
        monkeypatch.setattr(core, "class_bits", lambda classes: calls.append(classes))
        stream = RankingStream(Universe(3))
        for ranking, *_ in stream.walk(range(5000, 7000)):
            assert _decode(ranking.universe, ranking.bits).bits == ranking.bits
            assert best_class_reduction(ranking.universe, ranking.bits[0]).bits[0] == ranking.bits[0]
        assert calls == []

    def test_unpickled(self):
        for ranking in (EX2, sample_ranking(5, 3)):
            copy = pickle.loads(pickle.dumps(ranking))
            assert copy == ranking
            self.assert_carries(copy)

    def test_bits_are_read_only(self):
        with pytest.raises(AttributeError):
            EX2.bits = ()
