"""Ranking transformations: balanced slides and single-coalition deteriorations.

Class indices in this module are 0-based positions into
``ranking.classes`` (0 is the best class). Each transformation is
implemented once, on class bitsets: a class is a bitset over coalitions
(coalition m is bit m - 1, see :func:`millrank.core.class_bits`), and
:func:`slide_bits` and :func:`deterioration_bits` return the transformed
ranking's classes as bitsets. The axiom checkers build a target with
them when no selection table holds it; :func:`apply_slide`,
:func:`apply_deterioration` and :func:`enumerate_deteriorations` check
their move and decode the result.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

from .core import CoalitionalRanking, bits_classes, class_bits
from .errors import InvalidMoveError, UniverseMismatchError


def _decode(universe, bits) -> CoalitionalRanking:
    """The ranking whose classes are the given class bitsets."""
    return CoalitionalRanking._trusted(universe, bits_classes(bits), bits)


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
    (gamma_bits,) = class_bits((gamma,))
    return _decode(ranking.universe, slide_bits(ranking.bits, move.k1, move.k2, gamma_bits))


@cache
def membership_bits(n: int) -> tuple[int, ...]:
    """Per individual i, the bitset of the coalitions containing i."""
    return tuple(
        sum(1 << (mask - 1) for mask in range(1, 1 << n) if mask >> i & 1) for i in range(n)
    )


@cache
def lifted_bits(n: int) -> tuple[tuple[list[int], list[int]], ...]:
    """Per individual x, per class bitset: (with x, without x), its coalitions' partners in the pairs (s, s | x).

    ``with x`` holds s | x for each of the class's coalitions s that avoids
    x, and ``without x`` holds t - x for each coalition t that holds x,
    other than {x}. Indexed by every class bitset of the 2**n - 1
    coalitions, so built for an exhaustive n only.
    """
    size = 1 << ((1 << n) - 1)
    lifted = []
    for x in range(n):
        bit, with_x, without_x = 1 << x, [0] * size, [0] * size
        for cls in range(1, size):
            low = cls & -cls
            mask = low.bit_length()
            with_x[cls], without_x[cls] = with_x[cls ^ low], without_x[cls ^ low]
            if not mask & bit:
                with_x[cls] |= 1 << (mask | bit) - 1
            elif mask != bit:
                without_x[cls] |= 1 << (mask ^ bit) - 1
        lifted.append((with_x, without_x))
    return tuple(lifted)


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
    """Place the subject coalition per the spec, one of its :func:`deterioration_placements`.

    Raises InvalidMoveError for any other spec: an upward move, an index
    out of range, an unknown kind, or a "stay" away from the subject's
    class.
    """
    bits, j, placements = _placements(ranking, spec.subject)
    if (spec.kind, spec.k) not in placements:
        raise InvalidMoveError(
            f"({spec.kind!r}, {spec.k}) is not a downward placement of coalition {spec.subject}"
        )
    return _decode(ranking.universe, deterioration_bits(bits, j, spec.subject, spec.kind, spec.k))


def deterioration_bits(bits, j: int, subject: int, kind: str, k: int) -> list[int]:
    """Class bitsets after placing the subject, of class j, at placement (kind, k)."""
    bit = 1 << (subject - 1)
    after = list(bits)
    if kind == "stay":
        return after
    after[j] ^= bit
    if kind == "join":
        after[k] |= bit
    elif kind == "below":
        after.insert(k + 1, bit)
    else:
        raise ValueError(f"unknown placement kind {kind!r}")
    if not after[j]:  # the subject was alone; every placement lies below class j
        del after[j]
    return after


@cache
def deterioration_placements(j: int, l: int, alone: bool) -> tuple[tuple[str, int], ...]:
    """(kind, k) of every weakly-downward placement of a coalition of class j, in order.

    ``l`` is the number of classes and ``alone`` whether the coalition
    is alone in class j. The identity ``("stay", j)`` comes first, then
    merging into each strictly lower class, then a singleton class
    directly below each class from j down (from j + 1 when alone, where
    below j is the identity).
    """
    return (
        ("stay", j),
        *(("join", k) for k in range(j + 1, l)),
        *(("below", k) for k in range(j + 1 if alone else j, l)),
    )


def _placements(ranking: CoalitionalRanking, subject: int):
    """(class bitsets, class of the subject, the subject's deterioration placements)."""
    j, bits = ranking.index_of(subject), ranking.bits
    return bits, j, deterioration_placements(j, len(bits), bits[j] == 1 << (subject - 1))


def enumerate_deterioration_specs(ranking: CoalitionalRanking, subject: int):
    """Yield every distinct weakly-downward placement of one coalition.

    The identity placement is included: leaving the subject where it is
    satisfies the deterioration conditions. For a subject sharing its
    class, the other placements merge it into any strictly lower class or
    insert it as a singleton directly below any class from its own down.
    For a subject alone in its class, placements below its current
    position are offset by the disappearance of its old class. The
    order is that of :func:`deterioration_placements`.
    """
    for kind, k in _placements(ranking, subject)[2]:
        yield DeteriorationSpec(subject, kind, k)


def enumerate_deteriorations(ranking: CoalitionalRanking, subject: int):
    """Yield every ranking reachable by moving one coalition weakly down.

    The stream is duplicate-free, starts with the unchanged ranking, and
    every yield satisfies :func:`is_deterioration` against the input.
    The order is that of :func:`deterioration_placements`.
    """
    bits, j, placements = _placements(ranking, subject)
    for placement in placements:
        yield _decode(ranking.universe, deterioration_bits(bits, j, subject, *placement))


def is_deterioration(
    ranking: CoalitionalRanking, ranking2: CoalitionalRanking, subject: int
) -> bool:
    """Decide whether ranking2 degrades only the subject coalition.

    True when the two rankings order all other coalitions identically and
    the subject lost no strict superior and gained no former equal above
    it: coalitions tied with it may only stay tied or move strictly above,
    and coalitions strictly above must remain strictly above. Both
    rankings are compared as class bitsets with the subject removed.
    """
    if ranking.universe != ranking2.universe:
        raise UniverseMismatchError("rankings must share a universe")
    j = ranking.index_of(subject)
    j2 = ranking2.class_of[subject]
    bit = 1 << (subject - 1)
    bits, bits2 = ranking.bits, ranking2.bits
    rest = [cls & ~bit for cls in bits if cls != bit]
    if rest != [cls & ~bit for cls in bits2 if cls != bit]:
        return False
    above, above2 = sum(bits[:j]), sum(bits2[:j2])  # classes are disjoint bitsets
    tied, tied2 = bits[j] & ~bit, bits2[j2] & ~bit
    return not (above & ~above2 or tied & ~(above2 | tied2))
