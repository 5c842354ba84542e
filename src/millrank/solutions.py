"""Set-valued selection rules over coalitional rankings.

Every rule maps a ranking to the nonempty, ascending tuple of ids of the
individuals it selects. No tie-breaking is ever applied; ties are part of
the output. All rules are pure and safe to call concurrently.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache

from .core import CoalitionalRanking, _members_table, bits_classes, top_intersection
from .errors import UnknownRuleError
from .transforms import lifted_bits, membership_bits


def _argmax(scores) -> tuple[int, ...]:
    best = max(scores)
    return tuple(i for i, s in enumerate(scores) if s == best)


def _counts(cls, n: int) -> list[int]:
    """Per individual, how many coalitions of one class contain them."""
    table = _members_table(n)
    counts = [0] * n
    for mask in cls:
        for i in table[mask]:
            counts[i] += 1
    return counts


def plurality(ranking: CoalitionalRanking) -> tuple[int, ...]:
    """Select the individuals appearing in the most best-class coalitions."""
    return _argmax(_counts(ranking.classes[0], ranking.universe.n))


def les(ranking: CoalitionalRanking) -> tuple[int, ...]:
    """Lexicographic excellence: maximize the per-class appearance vector.

    Compares the vectors of per-class counts (:func:`~millrank.core.theta`),
    best class first, so ties under :func:`plurality` are broken by deeper
    classes; the result is a subset of the plurality selection. The tie
    narrows one class at a time and stops at the class that leaves one
    individual; the last class never decides, as every vector sums to 2**(n-1).
    """
    members, tied = membership_bits(ranking.universe.n), range(ranking.universe.n)
    for cls in ranking.bits[:-1]:
        counts = [(cls & members[i]).bit_count() for i in tied]
        best = max(counts)
        tied = [i for i, count in zip(tied, counts) if count == best]
        if len(tied) == 1:
            break
    return tuple(tied)


def obi(ranking: CoalitionalRanking) -> tuple[int, ...]:
    """Select maximizers of the improvement-minus-deterioration score (``core.banzhaf``)."""
    full, class_of = ranking.universe.full_mask, ranking.class_of
    scores = []
    for x in range(ranking.universe.n):
        bit = 1 << x
        score, s = 0, full ^ bit
        while s:  # each nonempty coalition s avoiding x, s + x against s
            a, b = class_of[s | bit], class_of[s]
            score += (a < b) - (a > b)
            s = (s - 1) & ~bit
        scores.append(score)
    return _argmax(scores)


def les_step(n: int, tied, remaining: int, top: int) -> int:
    """:func:`les` one class down: the tied individuals, as an id bitmask, below class ``top``.

    ``tied`` is None above the best class; ``remaining`` holds the
    coalitions not yet placed, ``top`` among them. The tie narrows on
    every class but the last, where ``top`` is all of ``remaining``, so
    the state after the last class is the selection.
    """
    tied = (1 << n) - 1 if tied is None else tied
    if top == remaining or not tied & (tied - 1):
        return tied
    counts = [(top & members).bit_count() if tied >> x & 1 else -1
              for x, members in enumerate(membership_bits(n))]
    best = max(counts)
    return sum(1 << x for x, count in enumerate(counts) if count == best)


@cache
def _obi_gains(n: int, remaining: int, top: int) -> tuple[int, ...]:
    """Per individual x, what its pairs (s, s | x) score when class ``top`` is placed above the rest of ``remaining``.

    A pair scores when the first of its coalitions is placed: +1 when
    s | x is in ``top`` and s below it, -1 the other way round, 0 in one
    class. Kept per n and class pair, about 2,000 of them at n = 3.
    """
    later = remaining ^ top
    return tuple((without_x[top] & later).bit_count() - (with_x[top] & later).bit_count()
                 for with_x, without_x in lifted_bits(n))


def obi_step(n: int, scores, remaining: int, top: int):
    """:func:`obi` one class down: the scores below class ``top``, less their minimum.

    ``scores`` and ``remaining`` are as ``tied`` in :func:`les_step`.
    After the last class the state is the selection, the maximizers as
    an id bitmask.
    """
    scores = [score + gain for score, gain in zip(scores or (0,) * n, _obi_gains(n, remaining, top))]
    if top == remaining:
        best = max(scores)
        return sum(1 << x for x, score in enumerate(scores) if score == best)
    low = min(scores)
    return tuple(score - low for score in scores)


def split_plurality(ranking: CoalitionalRanking) -> tuple[int, ...]:
    """Plurality with each best-class coalition worth 1 split evenly.

    A best-class coalition S contributes 1/|S| to each of its members.
    Scores are exact rationals; float rounding would invent or destroy
    ties between sums such as 1/3 + 1/2 and 5/6.
    """
    n = ranking.universe.n
    table = _members_table(n)
    scores = [Fraction(0)] * n
    for mask in ranking.classes[0]:
        share = Fraction(1, mask.bit_count())
        for i in table[mask]:
            scores[i] += share
    return _argmax(scores)


def f_star(ranking: CoalitionalRanking) -> tuple[int, ...]:
    """Hybrid rule keyed to the best class.

    Returns the individuals common to every best-class coalition when
    there are any; otherwise falls back to :func:`plurality` when the
    product of the class count and the best-class size is even, and to
    the whole universe when it is odd.
    """
    inter = top_intersection(ranking)
    n = ranking.universe.n
    if inter:
        return _members_table(n)[inter]
    if (ranking.num_classes * len(ranking.classes[0])) % 2 == 0:
        return plurality(ranking)
    return tuple(range(n))


def const_x(ranking: CoalitionalRanking) -> tuple[int, ...]:
    """Select every individual, unconditionally."""
    return tuple(range(ranking.universe.n))


RULES = {
    "plurality": plurality,
    "les": les,
    "obi": obi,
    "split_plurality": split_plurality,
    "f_star": f_star,
    "const_x": const_x,
}

# Rules, by name, that select from the best class alone: each selects the same
# on a ranking as on its best_class_reduction (f_star reads the class count).
BEST_CLASS_RULES = frozenset({"plurality", "split_plurality", "const_x"})

# Rules, by name, with a step form step(n, state, remaining, top): applied to
# the classes of a ranking in turn from state None, it ends in the rule's
# selection on the ranking, as an id bitmask.
RULE_STEPS = {"les": les_step, "obi": obi_step}

# Rules, by name, that commute with core.relabel: no axiom then tells a ranking
# from its relabelings, so an exhaustive pass judges one ranking per orbit.
ANONYMOUS_RULES = frozenset({"plurality", "les", "obi", "split_plurality", "f_star", "const_x"})


def best_class_reduction(universe, top: int) -> CoalitionalRanking:
    """The ranking with best class bitset ``top`` and every other coalition in one class below."""
    rest = ((1 << universe.full_mask) - 1) ^ top
    bits = (top, rest) if rest else (top,)
    return CoalitionalRanking._trusted(universe, bits_classes(bits), bits)


def lookup_rule(rule_id: str):
    """Resolve a rule identifier to its function.

    Raises UnknownRuleError for identifiers outside the registry.
    """
    try:
        return RULES[rule_id]
    except KeyError:
        known = ", ".join(sorted(RULES))
        raise UnknownRuleError(f"unknown rule {rule_id!r} (known: {known})") from None
