"""Data model for coalitional rankings and per-individual statistics.

Individuals are internal ids ``0..n-1``; a coalition is an ``n``-bit mask
with at least one bit set. A coalitional ranking is an ordered partition
of all ``2**n - 1`` nonempty coalitions into equivalence classes, best
class first. All values here are immutable and safe to share across
worker processes.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .errors import (
    DuplicateCoalitionError,
    EmptyClassError,
    EmptyCoalitionError,
    MissingCoalitionError,
    OutOfUniverseError,
)

BETTER = "better"
TIE = "tie"
WORSE = "worse"


@dataclass(frozen=True, slots=True)
class Universe:
    """The finite set of individuals, with optional display names.

    ``names`` defaults to the decimal labels "1".."n"; internal ids used
    throughout the API are always 0-based positions into ``names``.
    """

    n: int
    names: tuple[str, ...] = ()

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"universe needs at least one individual, got n={self.n}")
        names = self.names or tuple(str(i + 1) for i in range(self.n))
        if len(names) != self.n:
            raise ValueError(f"expected {self.n} names, got {len(names)}")
        if len(set(names)) != self.n:
            raise ValueError("individual names must be distinct")
        object.__setattr__(self, "names", tuple(names))

    @property
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    def id_of(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise OutOfUniverseError(f"unknown individual {name!r}") from None


@lru_cache(maxsize=None)
def _members_table(n: int) -> tuple[tuple[int, ...], ...]:
    """members_table(n)[mask] lists the set bits of mask, ascending."""
    return tuple(
        tuple(i for i in range(n) if mask >> i & 1) for mask in range(1 << n)
    )


def mask_members(mask: int, n: int) -> tuple[int, ...]:
    """Individual ids contained in a coalition mask, ascending."""
    return _members_table(n)[mask]


def members_mask(members, universe: Universe) -> int:
    """Build a coalition mask from an iterable of individual ids."""
    mask = 0
    for i in members:
        if not 0 <= i < universe.n:
            raise OutOfUniverseError(f"individual id {i} not in universe of size {universe.n}")
        mask |= 1 << i
    if mask == 0:
        raise EmptyCoalitionError("a coalition must contain at least one individual")
    return mask


def class_bits(classes) -> tuple[int, ...]:
    """Each class as a bitset over coalitions: coalition m is bit m - 1."""
    bits = []
    for cls in classes:
        acc = 0
        for mask in cls:
            acc |= 1 << (mask - 1)
        bits.append(acc)
    return tuple(bits)


def bits_classes(bits) -> tuple[tuple[int, ...], ...]:
    """The canonical classes of class bitsets, the inverse of :func:`class_bits`."""
    classes = []
    for cls in bits:
        masks = []
        while cls:
            low = cls & -cls
            masks.append(low.bit_length())
            cls ^= low
        classes.append(tuple(masks))
    return tuple(classes)


class CoalitionalRanking:
    """An ordered partition of all nonempty coalitions, best class first.

    ``classes`` is a tuple of tuples of masks, each class sorted by mask
    value (the canonical form used for equality and hashing).
    ``class_of[mask]`` gives the 0-based class index of each coalition,
    and ``bits`` each class as a bitset (:func:`class_bits`), computed
    once per ranking. Instances are immutable; build them through
    :func:`validate_ranking` unless the input is already canonical.
    """

    __slots__ = ("universe", "classes", "class_of", "bits")

    def __init__(self, universe: Universe, classes):
        validated = validate_ranking(classes, universe)
        for name in self.__slots__:
            object.__setattr__(self, name, getattr(validated, name))

    def __setattr__(self, *_):
        raise AttributeError("CoalitionalRanking is immutable")

    @classmethod
    def _trusted(cls, universe, classes, bits=None) -> "CoalitionalRanking":
        # Fast path for canonical classes; walks and decodes also pass their bitsets.
        self = object.__new__(cls)
        object.__setattr__(self, "universe", universe)
        object.__setattr__(self, "classes", classes)
        object.__setattr__(self, "bits", class_bits(classes) if bits is None else tuple(bits))
        class_of = [-1] * (1 << universe.n)
        for k, group in enumerate(classes):
            for mask in group:
                class_of[mask] = k
        object.__setattr__(self, "class_of", tuple(class_of))
        return self

    @property
    def num_classes(self) -> int:
        return len(self.classes)

    def index_of(self, mask: int) -> int:
        """Class index of a coalition (0 is best)."""
        if not 0 < mask <= self.universe.full_mask:
            raise OutOfUniverseError(f"coalition mask {mask} not valid for n={self.universe.n}")
        return self.class_of[mask]

    def __eq__(self, other):
        return (
            isinstance(other, CoalitionalRanking)
            and self.universe == other.universe
            and self.classes == other.classes
        )

    def __hash__(self):
        return hash((self.universe.n, self.classes))

    def __reduce__(self):
        return (CoalitionalRanking._trusted, (self.universe, self.classes))

    def __repr__(self):
        names = self.universe.names
        shown = " | ".join(
            " ".join("".join(names[i] for i in mask_members(m, self.universe.n)) for m in cls)
            for cls in self.classes
        )
        return f"<ranking {shown}>"


def validate_ranking(classes, universe: Universe) -> CoalitionalRanking:
    """Check and canonicalize an ordered partition of all coalitions.

    Accepts any iterable of iterables of masks. Raises EmptyClassError,
    EmptyCoalitionError, OutOfUniverseError, DuplicateCoalitionError or
    MissingCoalitionError when the input is not a ranking.
    """
    full = universe.full_mask
    seen = set()  # a set, not a bitset: a bitset of 2**n bits is unaffordable for large n
    canonical = []
    for group in classes:
        members = sorted(group)
        if not members:
            raise EmptyClassError("every ranking class must contain a coalition")
        for mask in members:
            if mask == 0:
                raise EmptyCoalitionError("the empty coalition cannot be ranked")
            if mask < 0 or mask > full:
                raise OutOfUniverseError(
                    f"coalition mask {mask} not valid for a universe of {universe.n}"
                )
            if mask in seen:
                raise DuplicateCoalitionError(
                    f"coalition mask {mask} appears more than once"
                )
            seen.add(mask)
        canonical.append(tuple(members))
    if len(seen) != full:
        missing = next(m for m in range(1, full + 1) if m not in seen)
        raise MissingCoalitionError(
            f"{full - len(seen)} coalition(s) not placed in any class, e.g. mask {missing}"
        )
    return CoalitionalRanking._trusted(universe, tuple(canonical))


def compare(ranking: CoalitionalRanking, s: int, t: int) -> str:
    """Order two coalitions: BETTER if s is in a strictly better class."""
    a = ranking.index_of(s)
    b = ranking.index_of(t)
    if a < b:
        return BETTER
    if a == b:
        return TIE
    return WORSE


def theta(ranking: CoalitionalRanking, x: int) -> tuple[int, ...]:
    """Per-class counts of coalitions containing x, best class first.

    The counts always sum to ``2**(n-1)``, the number of coalitions
    containing any fixed individual.
    """
    _check_individual(ranking, x)
    bit = 1 << x
    return tuple(sum(1 for m in cls if m & bit) for cls in ranking.classes)


@dataclass(frozen=True, slots=True)
class BanzhafTally:
    """Counts of strict improvements and deteriorations caused by one individual.

    ``u_plus`` counts nonempty coalitions S avoiding x with S+x strictly
    better than S, ``u_minus`` the reverse, and ``score`` their difference.
    Comparisons against the empty set are skipped since the empty
    coalition is not ranked.
    """

    u_plus: int
    u_minus: int
    score: int


def banzhaf(ranking: CoalitionalRanking, x: int) -> BanzhafTally:
    """Tally how often adding x strictly improves or worsens a coalition."""
    _check_individual(ranking, x)
    bit = 1 << x
    comp = ranking.universe.full_mask & ~bit
    class_of = ranking.class_of
    up = down = 0
    s = comp
    while s:
        a = class_of[s | bit]
        b = class_of[s]
        if a < b:
            up += 1
        elif a > b:
            down += 1
        s = (s - 1) & comp
    return BanzhafTally(up, down, up - down)


def concomitant_set(ranking: CoalitionalRanking) -> tuple[int, ...]:
    """Individuals whose addition strictly improves every coalition avoiding them."""
    out = []
    class_of = ranking.class_of
    full = ranking.universe.full_mask
    for x in range(ranking.universe.n):
        bit = 1 << x
        comp = full & ~bit
        s = comp
        ok = True  # vacuously true when no coalition avoids x (n == 1)
        while s:
            if class_of[s | bit] >= class_of[s]:
                ok = False
                break
            s = (s - 1) & comp
        if ok:
            out.append(x)
    return tuple(out)


def split_instances(ranking: CoalitionalRanking, s0: int):
    """Split all coalitions into those strictly better than s0 and the rest.

    Returns ``(positives, negatives)`` as mask tuples in ascending order;
    together they partition the set of all coalitions, and s0 itself is
    always among the negatives.
    """
    j = ranking.index_of(s0)
    positives = []
    negatives = []
    for k, cls in enumerate(ranking.classes):
        if k < j:
            positives.extend(cls)
        else:
            negatives.extend(cls)
    return tuple(sorted(positives)), tuple(sorted(negatives))


def relabel(ranking: CoalitionalRanking, perm) -> CoalitionalRanking:
    """Apply a permutation of individual ids to every coalition.

    ``perm[i]`` is the new id of individual ``i``; the universe itself is
    unchanged, so this realizes anonymity checks of the form
    ``rule(relabel(r, p)) == {p[i] for i in rule(r)}``. Class order is kept.
    """
    universe = ranking.universe
    n = universe.n
    if sorted(perm) != list(range(n)):
        raise ValueError("perm must be a permutation of 0..n-1")
    table = _members_table(n)
    classes = tuple(
        tuple(sorted(sum(1 << perm[i] for i in table[mask]) for mask in cls))
        for cls in ranking.classes
    )
    return CoalitionalRanking._trusted(universe, classes)


def _check_individual(ranking: CoalitionalRanking, x: int):
    if not 0 <= x < ranking.universe.n:
        raise OutOfUniverseError(f"individual id {x} not in universe of size {ranking.universe.n}")


def top_intersection(ranking: CoalitionalRanking) -> int:
    """Mask of individuals common to every coalition of the best class."""
    inter = ranking.universe.full_mask
    for mask in ranking.classes[0]:
        inter &= mask
    return inter
