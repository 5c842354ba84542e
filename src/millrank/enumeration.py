"""Exhaustive and sampled generation of coalitional rankings.

A coalitional ranking over n individuals is an ordered set partition of
the ``2**n - 1`` nonempty coalitions, so exhaustive streams contain
``fubini(2**n - 1)`` rankings. Exhaustive enumeration is guarded at
n <= 3 (n = 4 has about 2.3e14 rankings); beyond that, use uniform
sampling, guarded at n <= 10. :func:`stream_index` inverts the
exhaustive order: it maps a ranking, given as class bitsets, to its
index in the stream, as the total of the running sums that
:func:`stream_prefix` keeps per class.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache
from math import comb
from typing import NamedTuple

from .core import CoalitionalRanking, Universe
from .errors import UniverseTooLargeError

MAX_EXHAUSTIVE_N = 3
# Draws stop at n = 10. The first draw at n builds the fubini values up to
# 2**n - 1: about 1 s at n = 10 and 4.6 s at n = 11 on a 2.1 GHz Xeon with
# Python 3.11.7, and about five times more per further individual.
MAX_SAMPLED_N = 10


def fubini(m: int) -> int:
    """Number of weak orders on m labeled elements (exact big integer).

    fubini(0) = 1; fubini(m) sums over the size k of the top class:
    C(m, k) * fubini(m - k).
    """
    if m < 0:
        raise ValueError("m must be nonnegative")
    return _fubini_table(m)[m]


@lru_cache(maxsize=None)
def _fubini_table(m: int) -> tuple[int, ...]:
    """fubini(0), ..., fubini(m), as row sums of the ordered-partition triangle.

    T(j, k), the number of ordered partitions of j elements into k
    blocks (OEIS A019538), is k * (T(j - 1, k - 1) + T(j - 1, k)): the
    last element opens a block of its own or joins one. Each row takes
    additions and small multiples only, where the binomial recurrence
    computes a big C(m, k) for every k <= m of every m.
    """
    values, row = [1], [1]
    for j in range(1, m + 1):
        row.append(0)
        row = [0, *(k * (row[k - 1] + row[k]) for k in range(1, j + 1))]
        values.append(sum(row))
    return tuple(values)


def _top_classes(elements: tuple[int, ...]):
    """Nonempty subsets of sorted ``elements``, ordered by their sorted tuples.

    A tuple comes before its extensions, so this is the depth-first
    walk adding the smallest unused larger element first.
    """
    m = len(elements)

    def subsets(start, prefix):
        for i in range(start, m):
            chosen = prefix + (elements[i],)
            yield chosen
            yield from subsets(i + 1, chosen)

    return subsets(0, ())


def _ordered_partitions(elements: tuple[int, ...]):
    """Ordered set partitions, top class chosen lexicographically first.

    The stream is the depth-first walk taking the next subset of
    :func:`_top_classes` as the next class.
    """
    if not elements:
        yield ()
        return
    m = len(elements)
    for top in _top_classes(elements):
        if len(top) == m:
            yield (top,)
            continue
        chosen = set(top)
        rest = tuple(e for e in elements if e not in chosen)
        for tail in _ordered_partitions(rest):
            yield (top,) + tail


@lru_cache(maxsize=None)
def _rank_offsets(n: int) -> tuple[list[int], ...]:
    """offsets[remaining][top]: stream rankings of ``remaining`` before top class ``top``.

    Both are bitsets over coalitions. Every ranking of the coalitions
    in ``remaining`` whose top class comes earlier in
    :func:`_top_classes` precedes, and there are fubini(|remaining| -
    |earlier top|) of them per earlier top. Rows have 2**(2**n - 1)
    entries, of which 3**(2**n - 1) in all are used: 2,187 at n = 3.
    """
    if n > MAX_EXHAUSTIVE_N:
        raise UniverseTooLargeError(f"stream indices exist for n <= {MAX_EXHAUSTIVE_N}, got n={n}")
    size = 1 << ((1 << n) - 1)
    weak_orders = _fubini_table((1 << n) - 1)
    offsets = []
    for remaining in range(size):
        row = [0] * size
        singles = tuple(1 << i for i in range(remaining.bit_length()) if remaining >> i & 1)
        before = 0
        for top in _top_classes(singles):
            row[sum(top)] = before
            before += weak_orders[len(singles) - len(top)]
        offsets.append(row)
    return tuple(offsets)


class StreamPrefix(NamedTuple):
    """The per-class terms of a ranking's stream index, as running sums.

    For a ranking with L class bitsets: ``remaining[i]`` is the bitset of
    the coalitions outside classes 0..i-1 (``remaining[L]`` is 0), and
    class i adds the term ``offsets[remaining[i]][bits[i]]``. ``before[i]``
    sums the terms of the classes before i and ``after[i]`` those of
    class i on, so the index is ``before[L] == after[0]``. A ranking
    that agrees with this one on classes 0..a-1 and, in the same order,
    on the classes after class b has index ``before[a]``, plus the terms
    of its own classes in between, plus ``after[b + 1]``.
    """

    offsets: tuple
    remaining: list
    before: list
    after: list

    @property
    def index(self) -> int:
        return self.before[-1]


def stream_prefix(bits, n: int) -> StreamPrefix:
    """The :class:`StreamPrefix` of the ranking with class bitsets ``bits``.

    Defined for n <= MAX_EXHAUSTIVE_N; :func:`stream_index` reads its
    total.
    """
    offsets = _rank_offsets(n)
    left = (1 << ((1 << n) - 1)) - 1
    total = 0
    remaining, before = [left], [0]
    for cls in bits:
        total += offsets[left][cls]
        left ^= cls
        remaining.append(left)
        before.append(total)
    return StreamPrefix(offsets, remaining, before, [total - done for done in before])


def stream_index(bits, n: int) -> int:
    """Index in the exhaustive stream of n individuals of the ranking with class bitsets ``bits``.

    The exact inverse of the stream order: the sum, over the classes,
    of how many rankings of the coalitions not yet placed precede that
    class as their top class. Defined for n <= MAX_EXHAUSTIVE_N.
    """
    return stream_prefix(bits, n).index


@dataclass(frozen=True, slots=True)
class Sample:
    """Sampling mode: ``count`` independent uniform draws from ``seed``."""

    count: int
    seed: int


EXHAUSTIVE = "exhaustive"


class RankingStream:
    """Iterable over rankings of one universe, exhaustive or sampled.

    Exhaustive mode yields each ranking exactly once in the documented
    canonical order; sample mode yields ``mode.count`` uniform draws,
    reproducible from ``mode.seed``.
    """

    def __init__(self, universe: Universe, mode=EXHAUSTIVE):
        if mode == EXHAUSTIVE and universe.n > MAX_EXHAUSTIVE_N:
            raise UniverseTooLargeError(
                f"exhaustive enumeration supports n <= {MAX_EXHAUSTIVE_N}, got n={universe.n};"
                " pass --sample COUNT or use the sample command"
            )
        if mode != EXHAUSTIVE and universe.n > MAX_SAMPLED_N:
            raise UniverseTooLargeError(
                f"sampling supports n <= {MAX_SAMPLED_N}, got n={universe.n}"
            )
        self.universe = universe
        self.mode = mode

    def __iter__(self):
        if self.mode == EXHAUSTIVE:
            universe = self.universe
            for classes in self.classes():
                yield CoalitionalRanking._trusted(universe, classes)
        else:
            for i in range(self.mode.count):
                yield sample_ranking(self.universe.n, _derive_seed(self.mode.seed, i), self.universe)

    def classes(self):
        """Yield each ranking's classes, in stream order.

        Exhaustive mode builds no ranking; sample mode takes the classes
        of each draw.
        """
        if self.mode == EXHAUSTIVE:
            yield from _ordered_partitions(tuple(range(1, self.universe.full_mask + 1)))
        else:
            for ranking in self:
                yield ranking.classes

    def __len__(self):
        if self.mode == EXHAUSTIVE:
            return fubini(self.universe.full_mask)
        return self.mode.count


def enumerate_rankings(n: int, universe: Universe | None = None) -> RankingStream:
    """Every valid ranking over n individuals, exactly once.

    The total equals ``fubini(2**n - 1)``. Raises UniverseTooLargeError
    above n = 3.
    """
    return RankingStream(universe or Universe(n), EXHAUSTIVE)


def _derive_seed(seed: int, index: int) -> int:
    return (seed * 2654435761 + index) & (2**63 - 1)


def sample_ranking(n: int, rng_seed: int, universe: Universe | None = None) -> CoalitionalRanking:
    """One uniform draw over all rankings of n individuals.

    Walks the fubini recurrence top-down: the top-class size k is chosen
    with probability C(m, k) * fubini(m - k) / fubini(m), the k-subset
    uniformly, then the remainder recursively. Exactly uniform, and fully
    determined by the integer seed.
    """
    universe = universe or Universe(n)
    weak_orders = _fubini_table(universe.full_mask)
    rng = random.Random(rng_seed)
    remaining = list(range(1, universe.full_mask + 1))
    classes = []
    while remaining:
        m = len(remaining)
        ticket = rng.randrange(weak_orders[m])
        acc = 0
        for k in range(1, m + 1):
            acc += comb(m, k) * weak_orders[m - k]
            if ticket < acc:
                break
        chosen = sorted(rng.sample(remaining, k))
        classes.append(tuple(chosen))
        chosen_set = set(chosen)
        remaining = [e for e in remaining if e not in chosen_set]
    return CoalitionalRanking._trusted(universe, tuple(classes))
