"""Set-valued selection rules over coalitional rankings.

Every rule maps a ranking to the nonempty, ascending tuple of ids of the
individuals it selects. No tie-breaking is ever applied; ties are part of
the output. All rules are pure and safe to call concurrently.
"""

from __future__ import annotations

from fractions import Fraction

from .core import CoalitionalRanking, _members_table, bits_classes, top_intersection
from .errors import UnknownRuleError
from .transforms import membership_bits


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
