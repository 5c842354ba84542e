import math
import random
from collections import Counter

import pytest
from scipy import stats

from millrank import (
    RankingStream,
    Sample,
    Universe,
    UniverseTooLargeError,
    enumerate_rankings,
    fubini,
    sample_ranking,
    validate_ranking,
)
from millrank.core import bits_classes, class_bits
from millrank.enumeration import MAX_SAMPLED_N, orbit_indices, partition_rows, relabelings, walk_stream
from millrank.verify import _CHUNK
from helpers import (
    oracle_orbit_minima,
    oracle_ordered_partitions,
    oracle_relabeled_indices,
    oracle_sample_classes,
    oracle_stream_index,
    oracle_stream_walk,
    oracle_weak_order_count,
    rk,
)


def oracle_stream(n):
    return list(oracle_ordered_partitions(tuple(range(1, 1 << n))))


class TestFubini:
    def test_small_values(self):
        assert [fubini(m) for m in range(8)] == [1, 1, 3, 13, 75, 541, 4683, 47293]

    def test_four_individual_scale(self):
        assert fubini(15) == 230283190977853

    def test_matches_stirling_oracle(self):
        for m in range(17):
            assert fubini(m) == oracle_weak_order_count(m)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            fubini(-1)

    def test_partition_rows_count_ordered_partitions_by_blocks(self):
        for j, row in enumerate(partition_rows(6)):
            blocks = Counter(len(p) for p in oracle_ordered_partitions(tuple(range(j))))
            assert row == tuple(blocks[k] for k in range(j + 1))
            assert sum(row) == fubini(j)


class TestEnumerateRankings:
    def test_counts(self, all_n2, all_n3):
        assert sum(1 for _ in enumerate_rankings(1)) == 1
        assert len(all_n2) == 13 == fubini(3)
        assert len(all_n3) == 47293 == fubini(7)

    def test_refuses_large_universes(self):
        with pytest.raises(UniverseTooLargeError):
            enumerate_rankings(5)

    def test_no_duplicates(self, all_n3):
        assert len(set(all_n3)) == 47293

    def test_all_valid(self, all_n3):
        for ranking in all_n3[::211]:
            validate_ranking(ranking.classes, ranking.universe)

    def test_canonical_order_golden_n2(self, all_n2):
        # masks: 1={1}, 2={2}, 3={1,2}; top class is always the
        # lexicographically smallest unused subset
        expected = [
            "1 / 2 / 3", "1 / 2 3", "1 / 3 / 2", "1 2 / 3", "1 2 3", "1 3 / 2",
            "2 / 1 / 3", "2 / 1 3", "2 / 3 / 1", "2 3 / 1", "3 / 1 / 2",
            "3 / 1 2", "3 / 2 / 1",
        ]

        def key(ranking):
            return " / ".join(" ".join(str(m) for m in cls) for cls in ranking.classes)

        assert [key(r) for r in all_n2] == expected

    def test_stream_len(self):
        assert len(RankingStream(Universe(3))) == 47293
        assert len(RankingStream(Universe(5), Sample(10, 0))) == 10


class TestStreamIndex:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_inverts_the_stream(self, n):
        for i, classes in enumerate(oracle_ordered_partitions(tuple(range(1, 1 << n)))):
            assert oracle_stream_index(class_bits(classes), n) == i

    def test_walk_covers_the_exhaustive_stream(self, all_n3):
        stream = RankingStream(Universe(3))
        walked = list(stream.walk(range(len(stream))))
        assert [ranking for ranking, *_ in walked] == all_n3
        for index, (ranking, remaining, before, size) in enumerate(walked):
            assert ranking.bits == class_bits(ranking.classes)
            assert remaining[-1] == 0 and before[-1] == index and size == 1

    def test_walk_draws_a_sampled_range(self):
        stream = RankingStream(Universe(4), Sample(30, 5))
        draws = [ranking.classes for ranking in stream]
        walked = list(stream.walk(range(10, 25)))
        assert [ranking.classes for ranking, *_ in walked] == draws[10:25]
        for ranking, remaining, before, size in walked:
            assert ranking.bits == class_bits(ranking.classes)
            assert remaining is before is None and size == 1

    def test_bitsets_round_trip(self, all_n3):
        for ranking in all_n3[::97]:
            bits = class_bits(ranking.classes)
            assert sum(bits) == (1 << 7) - 1
            assert bits_classes(bits) == ranking.classes

    def test_refuses_universes_without_an_exhaustive_stream(self):
        with pytest.raises(UniverseTooLargeError):
            oracle_stream_index(class_bits(sample_ranking(4, 0).classes), 4)


class TestWalkStream:
    """The exhaustive walker against the stream-order oracle."""

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_full_stream_matches_the_oracle(self, n):
        assert [walked[0] for walked in walk_stream(n)] == oracle_stream(n)

    def test_every_range_at_n2(self):
        expected = oracle_stream(2)
        for start in range(len(expected) + 1):
            for stop in range(start, len(expected) + 2):
                walked = [w[0] for w in walk_stream(2, start, stop)]
                assert walked == expected[start:stop], (start, stop)

    def test_chunk_boundaries_at_n3(self):
        expected = oracle_stream(3)
        for boundary in range(0, len(expected) + 2048, 2048):
            start = max(boundary - 3, 0)
            walked = [w[0] for w in walk_stream(3, start, boundary + 3)]
            assert walked == expected[start : boundary + 3], boundary

    @staticmethod
    def assert_carries_its_sums(walked, index, n):
        classes, bits, remaining, before, size = walked
        assert bits == class_bits(classes) and size == 1
        assert (list(remaining), list(before)) == oracle_stream_walk(bits, n)
        assert before[-1] == index

    @pytest.mark.parametrize("n", [1, 2])
    def test_bitsets_and_sums_exhaustive(self, n):
        for index, walked in enumerate(walk_stream(n)):
            self.assert_carries_its_sums(walked, index, n)

    def test_bitsets_and_sums_sampled_n3(self):
        for index in random.Random(12).sample(range(fubini(7)), 400):
            (walked,) = walk_stream(3, index, index + 1)
            self.assert_carries_its_sums(walked, index, 3)


class TestOrbitWalk:
    """The orderly walk over relabeling orbits against brute-force orbit minima."""

    @staticmethod
    def walked(n, start=0, stop=None):
        return [(before[-1], size) for *_, before, size in walk_stream(n, start, stop, relabelings(n))]

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_whole_stream_matches_the_oracle(self, n):
        minima = oracle_orbit_minima(n)
        assert self.walked(n) == minima
        assert sum(size for _, size in minima) == fubini((1 << n) - 1)
        assert len(minima) == {1: 1, 2: 8, 3: 8157}[n]

    def test_every_range_at_n2(self):
        minima, total = oracle_orbit_minima(2), fubini(3)
        for start in range(total + 1):
            for stop in range(start, total + 2):
                assert self.walked(2, start, stop) == [m for m in minima if start <= m[0] < stop]

    def test_chunks_and_partial_ranges_at_n3(self):
        minima, total = oracle_orbit_minima(3), fubini(7)
        ranges = [range(start, min(start + _CHUNK, total)) for start in range(0, total, _CHUNK)]
        rng = random.Random(15)
        ranges += [range(*sorted(rng.sample(range(total + 1), 2))) for _ in range(30)]
        for indices in ranges:
            assert self.walked(3, indices.start, indices.stop) == [m for m in minima if m[0] in indices]
        chunks = ranges[:-30]
        assert sum(size for chunk in chunks for _, size in self.walked(3, chunk.start, chunk.stop)) == total

    def test_yields_what_the_plain_walk_yields(self):
        plain = {walked[3][-1]: walked[:4] for walked in walk_stream(3)}
        for walked in walk_stream(3, group=relabelings(3)):
            assert walked[:4] == plain[walked[3][-1]]

    def test_orbit_indices_match_the_oracle(self):
        images = oracle_relabeled_indices(3)
        for index, walked in enumerate(walk_stream(3)):
            if index % 5 == 0:
                assert orbit_indices(3, walked[1]) == set(images[index])

    def test_stream_walks_orbits_in_exhaustive_mode_only(self):
        stream = RankingStream(Universe(2), orbits=True)
        walked = list(stream.walk(range(len(stream))))
        assert [(before[-1], size) for _, _, before, size in walked] == oracle_orbit_minima(2)
        assert len(stream) == 13 and len(list(stream)) == 8
        assert RankingStream(Universe(3), Sample(5, 1), orbits=True).orbits is False


class TestSampleRanking:
    def test_deterministic(self):
        for n in (2, 3, 4, 5):
            assert sample_ranking(n, 123) == sample_ranking(n, 123)

    def test_differs_across_seeds(self):
        assert any(sample_ranking(3, s) != sample_ranking(3, s + 1) for s in range(5))

    def test_valid_at_larger_universes(self):
        for seed in range(5):
            ranking = sample_ranking(4, seed)
            validate_ranking(ranking.classes, ranking.universe)
            assert sum(len(c) for c in ranking.classes) == 15

    def test_class_count_distribution_n2(self):
        # exact distribution of the number of classes: 1/13, 6/13, 6/13
        draws = 1000
        counts = {1: 0, 2: 0, 3: 0}
        for seed in range(draws):
            counts[sample_ranking(2, seed).num_classes] += 1
        for l, p in ((1, 1 / 13), (2, 6 / 13), (3, 6 / 13)):
            expected = draws * p
            sigma = math.sqrt(draws * p * (1 - p))
            assert abs(counts[l] - expected) <= 4 * sigma

    def test_top_class_size_chi_square_n2(self):
        # top-class size hits sizes 1, 2, 3 with exact weights 9, 3, 1 of 13
        draws = 100_000
        observed = [0, 0, 0]
        for seed in range(draws):
            observed[len(sample_ranking(2, seed).classes[0]) - 1] += 1
        expected = [draws * w / 13 for w in (9, 3, 1)]
        result = stats.chisquare(observed, expected)
        assert result.pvalue > 0.001

    def test_stream_matches_repeated_draws(self):
        stream = list(RankingStream(Universe(3), Sample(5, 99)))
        again = list(RankingStream(Universe(3), Sample(5, 99)))
        assert stream == again

    def test_draws_match_the_direct_loop(self):
        for n in range(3, 7):
            for seed in range(50):
                assert sample_ranking(n, seed).classes == oracle_sample_classes(n, seed)

    def test_stream_refuses_universes_beyond_the_bound(self):
        assert MAX_SAMPLED_N == 10
        RankingStream(Universe(MAX_SAMPLED_N), Sample(1, 0))
        with pytest.raises(UniverseTooLargeError):
            RankingStream(Universe(MAX_SAMPLED_N + 1), Sample(1, 0))

    @pytest.mark.parametrize("count, seed", [(0, 2), (-3, 1)])
    def test_count_below_one_is_refused(self, count, seed):
        with pytest.raises(ValueError, match="at least one draw"):
            Sample(count, seed)

    def test_stream_keeps_its_universe(self):
        universe = Universe(3, ("a", "b", "c"))
        (ranking,) = RankingStream(universe, Sample(1, 0))
        assert ranking.universe == universe
        assert ranking.universe.names == ("a", "b", "c")


def test_golden_first_rankings_n2(all_n2):
    assert all_n2[0] == rk("1 / 2 / 12", n=2)
    assert all_n2[1] == rk("1 / 2 12", n=2)
    assert all_n2[4] == rk("1 2 12", n=2)
    assert all_n2[-1] == rk("12 / 2 / 1", n=2)
