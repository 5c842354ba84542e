"""Exhaustive and sampled generation of coalitional rankings.

A coalitional ranking over n individuals is an ordered set partition of
the ``2**n - 1`` nonempty coalitions, so exhaustive streams contain
``fubini(2**n - 1)`` rankings. Exhaustive enumeration is guarded at
n <= 3 (n = 4 has about 2.3e14 rankings); beyond that, use uniform
sampling, guarded at n <= 10. :func:`walk_stream` is the exhaustive
stream: a depth-first walk over class bitsets that covers any range of
stream indices and yields each ranking's running index sums with it.
Those sums rank any ranking that shares classes with the walked one, so
a transformed ranking's stream index is found without its bitsets.
Given the relabelings of the individuals, the walk is orderly (Read 1978;
McKay 1998): one ranking per orbit, 8,157 of 47,293 at n = 3, with its size.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, combinations, permutations
from math import comb

from .core import CoalitionalRanking, Universe
from .errors import UniverseTooLargeError

MAX_EXHAUSTIVE_N = 3
# Draws stop at n = 10. The first draw at n builds the fubini values up to
# 2**n - 1: about 1 s at n = 10 and 4.6 s at n = 11 on a 2.1 GHz Xeon with
# Python 3.11.7, and about five times more per further individual.
MAX_SAMPLED_N = 10
# A sample holds at most this many draws, for sweeps, campaigns and the
# sample command alike. `sample --n 8` holds every rendered draw until it
# prints, about 11 KB each: peak RSS read 28.8 MB at 1,000 draws and 40.3 MB
# at 2,000 on a 2.1 GHz Xeon with Python 3.11.7, so this bound keeps it
# near 135 MB.
MAX_SAMPLE_COUNT = 10_000


def fubini(m: int) -> int:
    """Number of weak orders on m labeled elements (exact big integer).

    fubini(0) = 1; fubini(m) sums over the size k of the top class:
    C(m, k) * fubini(m - k).
    """
    if m < 0:
        raise ValueError("m must be nonnegative")
    return _fubini_table(m)[m]


def partition_rows(m: int):
    """Yield rows 0, ..., m of the ordered-partition triangle, each as a tuple.

    Row j holds T(j, k) for k = 0..j, the number of ordered partitions of
    j elements into k blocks (OEIS A019538): k * (T(j - 1, k - 1) +
    T(j - 1, k)), as the last element opens a block of its own or joins
    one. Each row takes additions and small multiples only, where the
    binomial recurrence computes a big C(m, k) for every k <= m of every m.
    """
    row = (1,)
    yield row
    for j in range(1, m + 1):
        last = (*row, 0)
        row = (0, *(k * (last[k - 1] + last[k]) for k in range(1, j + 1)))
        yield row


@lru_cache(maxsize=None)
def _fubini_table(m: int) -> tuple[int, ...]:
    """fubini(0), ..., fubini(m), as row sums of :func:`partition_rows`."""
    return tuple(map(sum, partition_rows(m)))


def _top_classes(elements: tuple[int, ...]):
    """Nonempty subsets of sorted ``elements``, ordered by their sorted tuples."""
    return sorted(chain.from_iterable(combinations(elements, k) for k in range(1, len(elements) + 1)))


@lru_cache(maxsize=None)
def _stream_tops(n: int) -> tuple[tuple[tuple, ...], ...]:
    """tops[remaining]: each top class of the rankings of ``remaining``, in stream order.

    ``remaining`` is a bitset over coalitions (coalition m is bit m - 1).
    Each entry is (top, classes, offset, size): the top class as a
    bitset and as ascending coalition masks, the number of stream
    rankings of ``remaining`` before it (every top earlier in
    :func:`_top_classes` contributes fubini(|remaining| - |earlier top|)),
    and the number of rankings it heads, fubini(|remaining| - |top|).
    3**(2**n - 1) - 2**(2**n - 1) entries in all: 2,059 at n = 3.
    """
    if n > MAX_EXHAUSTIVE_N:
        raise UniverseTooLargeError(f"stream indices exist for n <= {MAX_EXHAUSTIVE_N}, got n={n}")
    weak_orders = _fubini_table((1 << n) - 1)
    tops = []
    for remaining in range(1 << ((1 << n) - 1)):
        singles = tuple(1 << i for i in range(remaining.bit_length()) if remaining >> i & 1)
        entries, before = [], 0
        for top in _top_classes(singles):
            size = weak_orders[len(singles) - len(top)]
            entries.append((sum(top), tuple(b.bit_length() for b in top), before, size))
            before += size
        tops.append(tuple(entries))
    return tuple(tops)


@lru_cache(maxsize=None)
def _rank_offsets(n: int) -> tuple[list[int], ...]:
    """offsets[remaining][top]: stream rankings of ``remaining`` before top class ``top``.

    Both are bitsets over coalitions; the entries are those of
    :func:`_stream_tops`, in rows of 2**(2**n - 1) indexed by the top.
    """
    tops = _stream_tops(n)
    offsets = []
    for entries in tops:
        row = [0] * len(tops)
        for top, _, before, _ in entries:
            row[top] = before
        offsets.append(row)
    return tuple(offsets)


@lru_cache(maxsize=None)
def relabelings(n: int) -> tuple[tuple[int, ...], ...]:
    """S_n as maps of class bitsets, identity first: table[cls] is cls with every member renamed."""
    tables = []
    for perm in permutations(range(n)):  # image[m]: coalition m's bit, renamed
        image = [0, *(1 << sum(1 << perm[i] for i in range(n) if m >> i & 1) - 1 for m in range(1, 1 << n))]
        table = [0] * (1 << ((1 << n) - 1))
        for cls in range(1, len(table)):
            low = cls & -cls
            table[cls] = table[cls ^ low] | image[low.bit_length()]
        tables.append(tuple(table))
    return tuple(tables)


def orbit_indices(n: int, bits) -> set[int]:
    """Stream indices of every relabeling of the ranking with class bitsets ``bits``."""
    offsets, found = _rank_offsets(n), set()
    for table in relabelings(n):
        left, index = len(offsets) - 1, 0
        for cls in map(table.__getitem__, bits):
            index, left = index + offsets[left][cls], left ^ cls
        found.add(index)
    return found


def walk_stream(n: int, start: int = 0, stop: int | None = None, group=()):
    """Yield (classes, bits, remaining, before, size) of each ranking with stream index in [start, stop).

    The walk is depth-first: each class is the next top class of the
    coalitions not yet placed, in :func:`_stream_tops` order, and a
    subtree of rankings outside the range is skipped whole. For a
    ranking of L classes, ``classes`` holds their coalition masks and
    ``bits`` their bitsets; ``remaining`` and ``before`` are L + 1
    running sums. ``remaining[i]`` is the bitset of the coalitions
    outside classes 0..i-1 (``remaining[L]`` is 0), and class i adds the
    term ``offsets[remaining[i]][bits[i]]`` (``offsets`` is
    :func:`_rank_offsets`); ``before[i]`` sums the terms of the classes
    before i, so the stream index is ``before[L]``. A ranking that agrees
    with this one on classes 0..a-1 and, in the same order, on the
    classes after class b has index ``before[a]``, plus the terms of its
    own classes in between, plus ``before[L] - before[b + 1]``. Defined
    for n <= MAX_EXHAUSTIVE_N.

    Given a ``group`` (:func:`relabelings`), only the smallest-index ranking
    of each orbit is yielded, with ``size`` its orbit's size, else 1: a top
    class C is skipped when a relabeling g fixing the classes placed so far
    ranks g(C) before C, and those fixing C too are the leaf's stabilizer.
    """
    tops, offsets, order = _stream_tops(n), _rank_offsets(n), len(group)
    if stop is None:
        stop = fubini((1 << n) - 1)

    def walk(classes, bits, remaining, before, fixing):
        left, base = remaining[-1], before[-1]
        row = offsets[left]
        for top, cls, offset, size in tops[left]:
            first = base + offset
            if first >= stop:
                return
            if first + size <= start:
                continue
            if fixing and any(row[g[top]] < offset for g in fixing):
                continue
            kept = [g for g in fixing if g[top] == top] if fixing else fixing
            rest = left ^ top
            if rest:
                yield from walk(
                    classes + (cls,), bits + (top,), remaining + (rest,), before + (first,), kept
                )
            else:
                yield (classes + (cls,), bits + (top,), remaining + (0,), before + (first,),
                       order // len(kept) if kept else 1)

    return walk((), (), (len(tops) - 1,), (0,), group)


@dataclass(frozen=True, slots=True)
class Sample:
    """Sampling mode: ``count`` independent uniform draws from ``seed``, at most MAX_SAMPLE_COUNT."""

    count: int
    seed: int

    def __post_init__(self):
        if self.count < 1:
            raise ValueError(f"a sample needs at least one draw, got count={self.count}")
        if self.count > MAX_SAMPLE_COUNT:
            raise ValueError(f"a sample holds at most {MAX_SAMPLE_COUNT} draws, got count={self.count}")


EXHAUSTIVE = "exhaustive"


class RankingStream:
    """The rankings of one universe, exhaustive or sampled, by stream index.

    Exhaustive mode holds each ranking once, in the documented canonical
    order; sample mode holds ``mode.count`` uniform draws, draw i made
    from ``mode.seed`` and i alone. :meth:`walk` reads any index range.
    With ``orbits``, an exhaustive stream walks each relabeling orbit's
    first ranking in its place; its length still counts every index.
    """

    def __init__(self, universe: Universe, mode=EXHAUSTIVE, orbits: bool = False):
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
        self.orbits = orbits and mode == EXHAUSTIVE

    def __iter__(self):
        for ranking, *_ in self.walk(range(len(self))):
            yield ranking

    def walk(self, indices: range):
        """Yield (ranking, remaining, before, size) of each ranking walked in ``indices``.

        Each ranking is built once and carries its class bitsets: exhaustive
        mode builds it from :func:`walk_stream` over the range, and ``size``
        counts the rankings it stands for. Sample mode draws each index from
        its own seed; a draw has no walk, so ``remaining`` and ``before`` are None.
        """
        universe, n, trusted = self.universe, self.universe.n, CoalitionalRanking._trusted
        if self.mode == EXHAUSTIVE:
            group = relabelings(n) if self.orbits else ()
            walked = walk_stream(n, indices.start, indices.stop, group)
            return ((trusted(universe, classes, bits), remaining, before, size)
                    for classes, bits, remaining, before, size in walked)
        seed = self.mode.seed
        return ((sample_ranking(n, _derive_seed(seed, i), universe), None, None, 1) for i in indices)

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
