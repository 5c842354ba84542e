"""Ranking transformations: balanced slides and single-coalition deteriorations.

Class indices in this module are 0-based positions into
``ranking.classes`` (0 is the best class). Each transformation also
comes in a bitset form that the axiom checkers use: a class is a bitset
over coalitions (coalition m is bit m - 1, see
:func:`millrank.core.class_bits`), and :func:`slide_bits` and
:func:`deterioration_bits` return the transformed ranking's classes as
bitsets, equal to those of :func:`apply_slide` and
:func:`apply_deterioration`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

from .core import CoalitionalRanking, bits_classes, class_bits
from .errors import InvalidMoveError, OutOfUniverseError, UniverseMismatchError


@dataclass(frozen=True, slots=True)
class SlideMove:
    """Move a nonempty proper subset of one class into another class.

    ``gamma`` holds coalition masks, sorted ascending. The move keeps the
    number of classes: the source keeps at least one coalition and the
    destination only grows.
    """

    k1: int
    k2: int
    gamma: tuple[int, ...]


def apply_slide(ranking: CoalitionalRanking, move: SlideMove) -> CoalitionalRanking:
    """Apply a slide move, preserving every class other than k1 and k2."""
    classes = ranking.classes
    l = len(classes)
    if not (0 <= move.k1 < l and 0 <= move.k2 < l):
        raise InvalidMoveError(f"class index out of range for {l} classes")
    if move.k1 == move.k2:
        raise InvalidMoveError("source and destination class must differ")
    gamma = set(move.gamma)
    if not gamma:
        raise InvalidMoveError("gamma must be nonempty")
    source = set(classes[move.k1])
    if not gamma < source:
        raise InvalidMoveError("gamma must be a proper subset of the source class")
    new_classes = list(classes)
    new_classes[move.k1] = tuple(m for m in classes[move.k1] if m not in gamma)
    new_classes[move.k2] = tuple(sorted(classes[move.k2] + move.gamma))
    return CoalitionalRanking._trusted(ranking.universe, tuple(new_classes))


@cache
def membership_bits(n: int) -> tuple[int, ...]:
    """Per individual i, the bitset of the coalitions containing i."""
    return tuple(
        sum(1 << (mask - 1) for mask in range(1, 1 << n) if mask >> i & 1) for i in range(n)
    )


def slide_gamma_bits(cls: int):
    """Yield every gamma a slide can move out of a class bitset, as a bitset.

    Gammas are the nonempty proper subsets of ``cls``, ascending, which
    is the order of their bit pattern over the mask-sorted class.
    """
    gamma = 0
    while True:
        gamma = (gamma - cls) & cls  # the next subset of cls
        if gamma == cls:
            return
        yield gamma


def slide_bits(bits, k1: int, k2: int, gamma: int) -> list[int]:
    """Class bitsets after moving the gamma bitset from class k1 into class k2."""
    slid = list(bits)
    slid[k1] ^= gamma
    slid[k2] |= gamma
    return slid


def enumerate_slides(ranking: CoalitionalRanking, x: int, y: int):
    """Yield every slide balanced between x and y, with its result.

    A slide is balanced when gamma holds as many coalitions containing x
    as containing y (possibly zero of each). Yields ``(move, ranking2)``
    pairs ordered by source class, then destination class, then gamma as
    a bit pattern over the mask-sorted source class. Empty gamma and
    k1 == k2 are excluded as no-ops.
    """
    n = ranking.universe.n
    if not (0 <= x < n and 0 <= y < n):
        raise OutOfUniverseError(f"individual ids {x}, {y} must lie in 0..{n - 1}")
    if x == y:
        raise ValueError("x and y must be distinct individuals")
    with_x, with_y = membership_bits(n)[x], membership_bits(n)[y]
    classes = ranking.classes
    for k1, cls in enumerate(class_bits(classes)):
        balanced = [
            bits_classes((gamma,))[0]
            for gamma in slide_gamma_bits(cls)
            if (gamma & with_x).bit_count() == (gamma & with_y).bit_count()
        ]
        for k2 in range(len(classes)):
            if k2 == k1:
                continue
            for gamma in balanced:
                move = SlideMove(k1, k2, gamma)
                yield move, apply_slide(ranking, move)


@dataclass(frozen=True, slots=True)
class DeteriorationSpec:
    """Where a single coalition is moved, weakly downward.

    ``kind`` is one of ``"stay"``, ``"join"`` (merge into the class at
    original index k) or ``"below"`` (create a singleton class directly
    below the class at original index k). Indices refer to the class list
    of the ranking being transformed.
    """

    subject: int
    kind: str
    k: int


def apply_deterioration(ranking: CoalitionalRanking, spec: DeteriorationSpec) -> CoalitionalRanking:
    """Rebuild a ranking with the subject coalition placed per the spec."""
    j = ranking.index_of(spec.subject)
    classes = [list(c) for c in ranking.classes]
    classes[j].remove(spec.subject)
    if spec.kind == "stay":
        classes[j].append(spec.subject)
        classes[j].sort()
    elif spec.kind == "join":
        classes[spec.k].append(spec.subject)
        classes[spec.k].sort()
    elif spec.kind == "below":
        classes.insert(spec.k + 1, [spec.subject])
    else:
        raise ValueError(f"unknown placement kind {spec.kind!r}")
    return CoalitionalRanking._trusted(
        ranking.universe, tuple(tuple(c) for c in classes if c)
    )


def deterioration_bits(bits, j: int, spec: DeteriorationSpec) -> list[int]:
    """Class bitsets after placing the subject, of class j, per the spec."""
    bit = 1 << (spec.subject - 1)
    after = list(bits)
    if spec.kind == "stay":
        return after
    after[j] ^= bit
    if spec.kind == "join":
        after[spec.k] |= bit
    elif spec.kind == "below":
        after.insert(spec.k + 1, bit)
    else:
        raise ValueError(f"unknown placement kind {spec.kind!r}")
    if not after[j]:  # the subject was alone; every placement lies below class j
        del after[j]
    return after


def enumerate_deterioration_specs(ranking: CoalitionalRanking, subject: int):
    """Yield every distinct weakly-downward placement of one coalition.

    The identity placement is included: leaving the subject where it is
    satisfies the deterioration conditions. For a subject sharing its
    class, the other placements merge it into any strictly lower class or
    insert it as a singleton directly below any class from its own down.
    For a subject alone in its class, placements below its current
    position are offset by the disappearance of its old class.
    """
    j = ranking.index_of(subject)
    l = len(ranking.classes)
    alone = len(ranking.classes[j]) == 1
    yield DeteriorationSpec(subject, "stay", j)
    for k in range(j + 1, l):
        yield DeteriorationSpec(subject, "join", k)
    start = j + 1 if alone else j
    for k in range(start, l):
        yield DeteriorationSpec(subject, "below", k)


def enumerate_deteriorations(ranking: CoalitionalRanking, subject: int):
    """Yield every ranking reachable by moving one coalition weakly down.

    The stream is duplicate-free, starts with the unchanged ranking, and
    every yield satisfies :func:`is_deterioration` against the input.
    """
    for spec in enumerate_deterioration_specs(ranking, subject):
        yield apply_deterioration(ranking, spec)


def is_deterioration(
    ranking: CoalitionalRanking, ranking2: CoalitionalRanking, subject: int
) -> bool:
    """Decide whether ranking2 degrades only the subject coalition.

    True when the two rankings order all other coalitions identically and
    the subject lost no strict superior and gained no former equal above
    it: coalitions tied with it may only stay tied or move strictly above,
    and coalitions strictly above must remain strictly above.
    """
    if ranking.universe != ranking2.universe:
        raise UniverseMismatchError("rankings must share a universe")
    j = ranking.index_of(subject)
    if _restricted(ranking, subject) != _restricted(ranking2, subject):
        return False
    j2 = ranking2.index_of(subject)
    class_of, class_of2 = ranking.class_of, ranking2.class_of
    for mask in range(1, ranking.universe.full_mask + 1):
        if mask == subject:
            continue
        k = class_of[mask]
        if k == j and not class_of2[mask] <= j2:
            return False
        if k < j and not class_of2[mask] < j2:
            return False
    return True


def _restricted(ranking: CoalitionalRanking, subject: int):
    return tuple(
        tuple(m for m in cls if m != subject)
        for cls in ranking.classes
        if cls != (subject,)
    )
