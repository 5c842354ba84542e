import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from millrank import (
    DeteriorationSpec,
    InvalidMoveError,
    RankingStream,
    Sample,
    SlideMove,
    Universe,
    UniverseMismatchError,
    apply_deterioration,
    apply_slide,
    check_downward_monotonicity,
    check_slide_independence,
    enumerate_deterioration_specs,
    enumerate_deteriorations,
    is_deterioration,
    sample_ranking,
    validate_ranking,
)
from millrank.core import bits_classes, class_bits
from millrank.enumeration import walk_stream
from millrank.transforms import (
    deterioration_bits,
    deterioration_placements,
    slide_bits,
    slide_gamma_bits,
)
from helpers import (
    all_placements,
    cmask,
    oracle_apply_deterioration,
    oracle_apply_slide,
    oracle_is_deterioration,
    oracle_stream_index,
    oracle_stream_walk,
    rk,
    slide_gammas,
)

EX2 = rk("123 12 13 / rest")


class _Reads:
    """A selection table that selects every id of ``full`` and records the indices read.

    Read by best class, it stands for a best-class rule's ``top``.
    """

    def __init__(self, full):
        self.full, self.read = full, []

    def __getitem__(self, index):
        self.read.append(index)
        return self.full


def balanced_slides(ranking, x, y):
    """Every slide of a gamma holding as many coalitions with x as with y."""
    for k1, cls in enumerate(ranking.classes):
        for gamma, counts in slide_gammas(cls, ranking.universe.n):
            if counts[x] == counts[y]:
                for k2 in range(ranking.num_classes):
                    if k2 != k1:
                        yield SlideMove(k1, k2, gamma)


class TestApplySlide:
    def test_four_individual_instance(self):
        ranking = rk("1 2 23 14 / rest", n=4)
        move = SlideMove(0, 1, tuple(sorted((cmask("14"), cmask("2")))))
        assert apply_slide(ranking, move) == rk("1 23 / rest", n=4)

    def test_whole_class_is_rejected(self):
        move = SlideMove(0, 1, tuple(sorted(EX2.classes[0])))
        with pytest.raises(InvalidMoveError):
            apply_slide(EX2, move)

    def test_single_coalition_downward(self):
        move = SlideMove(0, 1, (cmask("123"),))
        assert apply_slide(EX2, move) == rk("12 13 / 123 23 1 2 3")

    def test_same_class_rejected(self):
        with pytest.raises(InvalidMoveError):
            apply_slide(EX2, SlideMove(0, 0, (cmask("123"),)))

    def test_empty_gamma_rejected(self):
        with pytest.raises(InvalidMoveError):
            apply_slide(EX2, SlideMove(0, 1, ()))

    def test_gamma_outside_source_rejected(self):
        with pytest.raises(InvalidMoveError):
            apply_slide(EX2, SlideMove(0, 1, (cmask("1"),)))

    def test_preserves_structure(self):
        for seed in range(30):
            ranking = sample_ranking(3, seed)
            for move in balanced_slides(ranking, 0, 1):
                slid = apply_slide(ranking, move)
                assert slid == oracle_apply_slide(ranking, move)
                assert slid.num_classes == ranking.num_classes
                assert sum(len(c) for c in slid.classes) == 7
                validate_ranking(slid.classes, slid.universe)

    def test_reverse_slide_restores(self):
        for seed in range(30):
            ranking = sample_ranking(3, seed + 50)
            for move in balanced_slides(ranking, 1, 2):
                slid = apply_slide(ranking, move)
                assert slid == oracle_apply_slide(ranking, move)
                if set(move.gamma) < set(slid.classes[move.k2]):
                    back = SlideMove(move.k2, move.k1, move.gamma)
                    assert apply_slide(slid, back) == ranking


class TestEnumerateDeteriorations:
    def test_bottom_class_member(self):
        results = list(enumerate_deteriorations(EX2, cmask("2")))
        assert results == [EX2, rk("123 12 13 / 23 1 3 / 2")]

    def test_shared_top_class_member(self):
        ranking = rk("1 2 12 / 3 / rest")
        results = list(enumerate_deteriorations(ranking, cmask("2")))
        assert len(results) == 6
        assert results[0] == ranking
        expected = {
            ranking,
            rk("1 12 / 2 3 / rest"),
            rk("1 12 / 3 / 2 13 23 123"),
            rk("1 12 / 2 / 3 / rest"),
            rk("1 12 / 3 / 2 / 13 23 123"),
            rk("1 12 / 3 / 13 23 123 / 2"),
        }
        assert set(results) == expected

    def test_singleton_bottom_class_only_identity(self):
        ranking = rk("123 12 13 / 23 1 3 / 2")
        assert list(enumerate_deteriorations(ranking, cmask("2"))) == [ranking]

    @pytest.mark.parametrize(
        "kind, k",
        [
            ("below", 0),  # upward: a singleton class above the subject's
            ("join", 0),  # upward: merged into a better class
            ("join", 9),  # no such class
            ("stay", 3),  # "stay" names the subject's own class, 2
        ],
    )
    def test_spec_outside_the_placements_rejected(self, kind, k):
        ranking = rk("123 12 13 / 23 / 1 / 2 3")
        with pytest.raises(InvalidMoveError):
            apply_deterioration(ranking, DeteriorationSpec(cmask("1"), kind, k))

    def test_duplicate_free_and_valid(self):
        for seed in range(40):
            ranking = sample_ranking(3, seed + 11)
            for subject in range(1, 8):
                results = list(enumerate_deteriorations(ranking, subject))
                assert len(results) == len(set(results))
                for result in results:
                    validate_ranking(result.classes, result.universe)


class TestIsDeterioration:
    def test_drop_to_new_bottom(self):
        assert is_deterioration(EX2, rk("123 12 13 / 23 1 3 / 2"), cmask("2"))

    def test_identity(self):
        assert is_deterioration(EX2, EX2, cmask("2"))

    def test_upward_move_rejected(self):
        assert not is_deterioration(EX2, rk("2 / 123 12 13 / 23 1 3"), cmask("2"))

    def test_universe_mismatch(self):
        with pytest.raises(UniverseMismatchError):
            is_deterioration(EX2, rk("rest", n=2), 1)

    def test_full_cross_check_n2(self, all_n2):
        for ranking in all_n2:
            for subject in range(1, 4):
                generated = set(enumerate_deteriorations(ranking, subject))
                for candidate in all_n2:
                    assert is_deterioration(ranking, candidate, subject) == (
                        candidate in generated
                    )

    def test_matches_the_class_tuple_oracle(self, all_n2):
        cases = [*all_n2, *RankingStream(Universe(3), Sample(40, 23))]
        for ranking in cases:
            for subject in range(1, ranking.universe.full_mask + 1):
                for candidate in all_placements(ranking, subject):
                    assert is_deterioration(ranking, candidate, subject) == (
                        oracle_is_deterioration(ranking, candidate, subject)
                    )

    def test_placement_family_is_valid_and_canonical(self, all_n2):
        # all_placements builds its candidates unchecked; each must be the
        # ranking that validation makes of its classes.
        for ranking in [*all_n2, *RankingStream(Universe(3), Sample(300, 25))]:
            for subject in range(1, ranking.universe.full_mask + 1):
                for candidate in all_placements(ranking, subject):
                    validated = validate_ranking(candidate.classes, ranking.universe)
                    assert validated == candidate
                    assert validated.class_of == candidate.class_of

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 10**6), subject=st.integers(1, 7))
    def test_placement_family_cross_check_n3(self, seed, subject):
        ranking = sample_ranking(3, seed)
        generated = set(enumerate_deteriorations(ranking, subject))
        for candidate in all_placements(ranking, subject):
            assert is_deterioration(ranking, candidate, subject) == (candidate in generated)


def _bitset_cases(all_n2):
    """Exhaustive n = 2, plus seeded samples at n = 3 and n = 4."""
    return [
        *all_n2,
        *RankingStream(Universe(3), Sample(60, 21)),
        *RankingStream(Universe(4), Sample(6, 22)),
    ]


class TestBitsetTargets:
    """The bitset transforms and the applicators that decode them, against the class-tuple oracles."""

    def test_slides_match_apply_slide_in_scan_order(self, all_n2):
        for ranking in _bitset_cases(all_n2):
            n, bits = ranking.universe.n, class_bits(ranking.classes)
            got, applied, want = [], [], []
            for k1, cls in enumerate(ranking.classes):
                for gamma, _ in slide_gammas(cls, n):
                    for k2 in range(ranking.num_classes):
                        if k2 != k1:
                            move = SlideMove(k1, k2, gamma)
                            want.append((k1, k2, oracle_apply_slide(ranking, move).classes))
                            applied.append((k1, k2, apply_slide(ranking, move).classes))
                for gamma in slide_gamma_bits(bits[k1]):
                    for k2 in range(len(bits)):
                        if k2 != k1:
                            got.append((k1, k2, bits_classes(slide_bits(bits, k1, k2, gamma))))
            assert got == want
            assert applied == want

    def test_gamma_bits_follow_slide_gammas(self, all_n2):
        for ranking in _bitset_cases(all_n2):
            for cls in ranking.classes:
                (bits,) = class_bits((cls,))
                gammas = [bits_classes((gamma,))[0] for gamma in slide_gamma_bits(bits)]
                assert gammas == [gamma for gamma, _ in slide_gammas(cls, ranking.universe.n)]

    def test_deteriorations_match_apply_deterioration_in_scan_order(self, all_n2):
        for ranking in _bitset_cases(all_n2):
            bits = class_bits(ranking.classes)
            for subject in range(1, ranking.universe.full_mask + 1):
                j = ranking.index_of(subject)
                specs = list(enumerate_deterioration_specs(ranking, subject))
                want = [oracle_apply_deterioration(ranking, spec).classes for spec in specs]
                got = [
                    bits_classes(deterioration_bits(bits, j, subject, spec.kind, spec.k))
                    for spec in specs
                ]
                assert got == want
                assert [apply_deterioration(ranking, spec).classes for spec in specs] == want
                generated = enumerate_deteriorations(ranking, subject)
                assert [result.classes for result in generated] == want

    def test_indices_rank_the_targets(self, all_n2):
        # Exhaustive n = 2 and a seeded n = 3 sample, each found in the walked
        # stream at its oracle index. Given a table that selects everyone,
        # the SI and DMON scans read it at the oracle_stream_index of each
        # target, in scan order. SI reads every slide of a gamma balancing
        # some pair, destinations downward and then upward, away from k1;
        # DMON every placement but the identity of each coalition that
        # keeps someone selected.
        for ranking in [*all_n2, *RankingStream(Universe(3), Sample(60, 24))]:
            n, bits = ranking.universe.n, class_bits(ranking.classes)
            full = ranking.universe.full_mask
            walk = oracle_stream_walk(bits, n)
            index = walk[1][-1]
            ((classes, *_),) = walk_stream(n, index, index + 1)
            assert classes == ranking.classes
            want = []
            for k1, cls in enumerate(ranking.classes):
                for gamma, (_, counts) in zip(slide_gamma_bits(bits[k1]), slide_gammas(cls, n)):
                    if len(set(counts)) < n:
                        for k2 in (*range(k1 + 1, len(bits)), *range(k1 - 1, -1, -1)):
                            want.append(oracle_stream_index(slide_bits(bits, k1, k2, gamma), n))
            table = _Reads(full)
            check_slide_independence(ranking, None, full, walk, None, table)
            assert table.read == want
            want = []
            for subject in range(1, full):  # the grand coalition keeps no one
                j = ranking.index_of(subject)
                placements = deterioration_placements(j, len(bits), bits[j] == 1 << (subject - 1))
                want.extend(
                    oracle_stream_index(deterioration_bits(bits, j, subject, *placement), n)
                    for placement in placements[1:]
                )
            table = _Reads(full)
            check_downward_monotonicity(ranking, None, full, walk, None, table)
            assert table.read == want

    def test_best_class_reads_change_the_best_class(self, all_n2):
        # Given a top that selects everyone, the SI and DMON scans read it
        # only at best classes their targets change to, each once per gamma
        # or coalition, in scan order: from a lower class, the best class
        # with gamma; from the best class, the best class without gamma or
        # the coalition; for a best-class coalition alone, class 1 with it
        # and then class 1.
        for ranking in [*all_n2, *RankingStream(Universe(3), Sample(60, 25))]:
            n, bits = ranking.universe.n, class_bits(ranking.classes)
            full = ranking.universe.full_mask

            def changed(targets):
                return list(dict.fromkeys(t[0] for t in targets if t[0] != bits[0]))

            want = []
            for k1, cls in enumerate(ranking.classes):
                for gamma, (_, counts) in zip(slide_gamma_bits(bits[k1]), slide_gammas(cls, n)):
                    if len(set(counts)) < n:
                        destinations = (*range(k1 + 1, len(bits)), *range(k1 - 1, -1, -1))
                        want += changed(slide_bits(bits, k1, k2, gamma) for k2 in destinations)
            top = _Reads(full)
            check_slide_independence(ranking, None, full, None, top.__getitem__)
            assert top.read == want
            want = []
            for subject in range(1, full):  # the grand coalition keeps no one
                j = ranking.index_of(subject)
                placements = deterioration_placements(j, len(bits), bits[j] == 1 << (subject - 1))
                want += changed(deterioration_bits(bits, j, subject, *p) for p in placements[1:])
            top = _Reads(full)
            check_downward_monotonicity(ranking, None, full, None, top.__getitem__)
            assert top.read == want

    def test_unknown_placement_kind_rejected(self):
        with pytest.raises(ValueError):
            deterioration_bits(class_bits(EX2.classes), 0, 1, "above", 0)
