"""Executable checkers for the selection axioms.

Each axiom is a premise on the ranking plus a forced conclusion on the
selection. The nine premise-only axioms (TAG, STAG, TDF, TJAD, CV, RAG,
WRAG, RDF, RJAD) are one table, :data:`PREMISE_AXIOMS`: a premise lister
that returns every premise instance of a ranking in the documented scan
order, and a conclusion on id bitmasks. On one ranking all instances of
one lister force the same individuals, one mask ``f``
(:func:`forced_mask`); with the selection as ``sel``, "equals" fails
when ``f != sel`` and "contains" when ``f & ~sel`` is nonzero, and the
first instance is then the witness (:func:`premise_witness`), for
:func:`judge` and sweeps alike.
A walked sweep runs each lister once per ranking. Each lister that
reads below the best class has a step form (:data:`PREMISE_STEPS`) that
lists class by class, down the stream's class tree, so an exhaustive
sweep counts its premises and violations over many rankings at once;
the others, :data:`BEST_CLASS_AXIOMS`, read the best class alone, and
list the same on every ranking that shares it.
The two transformation axioms, slide independence (SI) and downward
monotonicity (DMON), judge the rule on transformed rankings too, each in
one scan over the ranking's class bitsets. Their checkers take the
rule's selection on the ranking as ``base`` and, from a sweep, where to
read it on the targets: given ``table``, the rule's complete selection
table, and ``walk``, the walked ranking's running index sums, the scan
ranks each target inline and reads its selection from the table; given
``top``, a best-class rule's selection by best-class bitset, it skips
each target that keeps the best class and sums SI once per class of
the ranking; given neither, it decodes each target and calls the rule.
SI judges targets by bit operations on the pairs both selections meet;
DMON counts a coalition's premises without its targets, reading them
only while they could give the witness.
For a best-class rule, TAG, STAG, TDF, TJAD, SI and DMON each have a
block counter beside the checker (:data:`BLOCK_COUNTERS`): the sums of
the checker's premises and violations over every ranking with one best
class, computed from that class's best-class reduction alone.

A verdict is one of three statuses: ``inapplicable`` (no premise
instance exists), ``satisfied`` (every instance met its forced
conclusion) or ``violated`` (at least one did not, with the first
failing instance recorded as a replayable witness).
``premises_checked`` always counts every instance found, so sweep
statistics distinguish vacuous passes from real evidence.

Checkers are pure. A rule is any pure callable from rankings to
ascending id tuples, e.g. the entries of :data:`millrank.solutions.RULES`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache, partial
from typing import Literal

from .core import (
    CoalitionalRanking,
    bits_classes,
    concomitant_set,
    mask_members,
    top_intersection,
)
from .enumeration import MAX_EXHAUSTIVE_N, _rank_offsets, fubini, partition_rows
from .errors import UniverseTooLargeError, UnknownAxiomError
from .transforms import (
    SlideMove,
    _decode,
    apply_deterioration,
    apply_slide,
    deterioration_bits,
    deterioration_placements,
    enumerate_deterioration_specs,
    lifted_bits,
    membership_bits,
    slide_bits,
    slide_gamma_bits,
)

# check_slide_independence refuses a ranking with more slides (source
# class, gamma, destination class) than this: a class of c coalitions
# alone yields 2^c - 2 gammas. A ranking has at most 2^(2^n - 2) - 2
# slides, all but one coalition in one of two classes: 62 at n = 3 and
# 16,382 at n = 4, so only from n = 5 on can one be refused. One slide
# took 17-33 us at n = 5 (plurality, les) and about 1 ms with les at
# n = 8 on a 2.1 GHz Xeon with Python 3.11.7, so the largest accepted
# scan takes about 2 s at n = 5 and 2 min at n = 8. In 1,000 sampled
# rankings at n = 8 the most slides was 58,480.
_MAX_SLIDES = 1 << 17
# check_downward_monotonicity refuses a ranking with more deterioration
# placements (coalition s, weakly-downward placement of s) than this. A
# ranking has at most (2^n - 1)^2 of them, when every class is a
# singleton: 49 at n = 3 and 65,025 at n = 8, so no sweep or campaign is
# refused. That n = 8 ranking took 3.7 s with plurality and 42 s with les
# (57 and 640 us per placement) on a 2.1 GHz Xeon with Python 3.11.7, so
# the largest accepted scan takes about 7 s and 1.5 min at n = 8, and
# more at larger n, where each placement costs more.
_MAX_PLACEMENTS = 1 << 17

Status = Literal["inapplicable", "satisfied", "violated"]
INAPPLICABLE = "inapplicable"
SATISFIED = "satisfied"
VIOLATED = "violated"


@dataclass(frozen=True)
class Witness:
    """Replayable record of one axiom violation.

    ``premise`` holds the instance data (ids and masks, plus the
    transformed ranking for the two transformation axioms); ``expected``
    describes the forced conclusion and ``actual`` what the rule produced.
    Re-running the same checker on ``ranking`` reproduces the violation.
    """

    axiom: str
    ranking: CoalitionalRanking
    premise: dict
    expected: str
    actual: dict


@dataclass(frozen=True)
class Verdict:
    status: Status
    premises_checked: int
    witness: Witness | None = field(default=None)


def _verdict(premises: int, witness: Witness | None) -> Verdict:
    if premises == 0:
        return Verdict(INAPPLICABLE, 0)
    if witness is not None:
        return Verdict(VIOLATED, premises, witness)
    return Verdict(SATISFIED, premises)


def _spell(ranking, ids) -> str:
    names = ranking.universe.names
    return "{" + ",".join(names[i] for i in sorted(ids)) + "}"


def _top_agreement_premises(ranking, strong: bool = False):
    """Agreement read off the best class (TAG, STAG).

    Weak form: exactly one individual lies in every best-class
    coalition. Strong form: the best-class intersection is nonempty.
    Either way the selection must equal that intersection.
    """
    inter = top_intersection(ranking)
    if inter.bit_count() == 1 or strong and inter:
        return [(mask_members(inter, ranking.universe.n),)]
    return []


def _top_difference_premises(ranking):
    """Difference read off the best class (TDF).

    When the best class consists of exactly the coalitions containing
    some individual x, the selection must be x alone. At most one such x
    can exist.
    """
    n = ranking.universe.n
    if len(ranking.classes[0]) != 1 << (n - 1):
        return []
    return [(x,) for x in mask_members(top_intersection(ranking), n)]


def _top_joint_premises(ranking):
    """Joint agreement and difference read off the best class (TJAD).

    Premise: the best-class intersection is a single individual x, the
    coalitions below the best class have empty intersection, and none of
    them contains x. Conclusion: the selection is x alone.
    """
    inter = top_intersection(ranking)
    if inter.bit_count() != 1:
        return []
    below_inter, below_union = ranking.universe.full_mask, 0
    for cls in ranking.classes[1:]:
        for mask in cls:
            below_inter &= mask
            below_union |= mask
    # With a single class the family below is empty and below_inter stays full.
    if below_inter or below_union & inter:
        return []
    return [(inter.bit_length() - 1,)]


def _concomitant_premises(ranking):
    """Concomitant variation (CV).

    Every individual whose presence strictly improves each coalition
    avoiding them must be selected. Inapplicable when no individual has
    that property.
    """
    c = concomitant_set(ranking)
    return [(c,)] if c else []


def _agreement_classes(ranking):
    """(j, x) for every class j > 0 whose strict superiors share exactly x: the agreement levels."""
    out = []
    inter = ranking.universe.full_mask
    for j in range(1, len(ranking.classes)):
        for mask in ranking.classes[j - 1]:
            inter &= mask
        if not inter:
            break
        if inter.bit_count() == 1:
            out.append((j, inter.bit_length() - 1))
    return out


def rag_premises(ranking):
    """All (s0, x) pairs firing the relative-agreement premise (RAG, WRAG).

    Premise for (s0, x): the strict superiors of s0 have exactly one
    common individual x. The selection must be x alone (weak form: must
    at least include x). References with no strict superior never fire.
    Premises are scanned by class of s0, then by mask.
    """
    return [(s0, x) for j, x in _agreement_classes(ranking) for s0 in ranking.classes[j]]


def rdf_premises(ranking):
    """All (s0, x) pairs firing the relative-difference premise (RDF).

    Premise for (s0, x): every coalition containing x is strictly better
    than s0, and s0 is at least as good as every nonempty coalition
    avoiding x. Conclusion: the selection is x alone. That is, the
    classes above some cut hold exactly the coalitions containing x, and
    s0 is in the class just below it. Premises are scanned by
    individual, then by mask.
    """
    classes, union, below = ranking.classes, 0, {}
    for j, cls in enumerate(ranking.bits[:-1], 1):
        union |= cls
        below[union] = j  # the union of the classes above cut j
    members = membership_bits(ranking.universe.n)
    return [(s0, x) for x, m in enumerate(members) if m in below for s0 in classes[below[m]]]


def rjad_premises(ranking):
    """All (s0, x) pairs firing the relative-joint premise (RJAD).

    Premise for (s0, x): the strict superiors of s0 share exactly the
    individual x, the remaining coalitions share nobody, and none of the
    remaining coalitions contains x. Conclusion: the selection is x
    alone: RAG's premise plus a condition on the coalitions below, so it
    filters RAG's agreement levels. Scanned by class of s0, then by mask.
    """
    levels = _agreement_classes(ranking)
    if not levels:
        return []
    classes = ranking.classes
    inter, union = ranking.universe.full_mask, 0
    below = [None] * len(classes)  # (intersection, union) of classes j and below
    for j in range(len(classes) - 1, levels[0][0] - 1, -1):
        for mask in classes[j]:
            inter &= mask
            union |= mask
        below[j] = inter, union
    return [
        (s0, x)
        for j, x in levels
        if not below[j][0] and not below[j][1] >> x & 1
        for s0 in classes[j]
    ]


# Step forms of the listers that read below the best class. A step takes n,
# its state above class ``top`` (None above the best class) and
# ``remaining``, the coalitions not yet placed, ``top`` among them; it
# returns its state below ``top``, the instances it lists with reference
# coalition in ``top`` and the id bitmask they force (0 when none). Applied
# to the classes of a ranking in turn, the counts sum to the lister's and
# every nonzero mask is its forced mask.


@cache
def _coalition_meets(n: int) -> tuple[list[int], list[int]]:
    """Per class bitset of the 2**n - 1 coalitions: the intersection and union of its coalitions, as id bitmasks."""
    size = 1 << ((1 << n) - 1)
    meet, join = [(1 << n) - 1] * size, [0] * size
    for cls in range(1, size):
        low = cls & -cls
        meet[cls], join[cls] = meet[cls ^ low] & low.bit_length(), join[cls ^ low] | low.bit_length()
    return meet, join


def agreement_step(n: int, inter, remaining: int, top: int):
    """RAG and WRAG: ``inter`` is the superiors' intersection; ``top``'s coalitions fire when it is one individual."""
    fires = inter is not None and inter.bit_count() == 1
    meet = _coalition_meets(n)[0][top]
    return meet if inter is None else inter & meet, top.bit_count() if fires else 0, inter if fires else 0


def joint_step(n: int, inter, remaining: int, top: int):
    """RJAD: RAG's step, where the coalitions from ``top`` down, ``remaining``, share nobody and avoid x."""
    meet, join = _coalition_meets(n)
    inter, listed, x = agreement_step(n, inter, remaining, top)
    return (inter, listed, x) if x and not meet[remaining] and not join[remaining] & x else (inter, 0, 0)


@cache
def _cuts(n: int) -> dict[int, int]:
    """{coalitions not yet placed: x as an id bitmask} where the coalitions placed are exactly those holding x."""
    everything = (1 << ((1 << n) - 1)) - 1
    return {everything ^ members: 1 << x for x, members in enumerate(membership_bits(n))}


def difference_step(n: int, state, remaining: int, top: int):
    """RDF, which carries nothing: ``top``'s coalitions fire when the coalitions placed above it hold x."""
    x = _cuts(n).get(remaining, 0)
    return state, top.bit_count() if x else 0, x


@cache
def _unlifted(n: int, remaining: int, top: int) -> int:
    """Id bitmask of each x with a coalition s of class ``top`` that avoids x and has s | x in ``remaining``."""
    return sum(1 << x for x, (with_x, _) in enumerate(lifted_bits(n)) if with_x[top] & remaining)


def concomitant_step(n: int, alive, remaining: int, top: int):
    """CV: ``alive`` holds each x whose every coalition s placed without x has s | x strictly above it.

    The last class, where ``top`` is all of ``remaining``, lists the one
    instance when anyone is alive.
    """
    alive = ((1 << n) - 1 if alive is None else alive) & ~_unlifted(n, remaining, top)
    last = top == remaining
    return alive, int(last and alive > 0), alive if last else 0


_EQUALS = "selection equals {}"
_EQUALS_TOP = "selection equals the best-class intersection {}"

# Each premise-only axiom is (premise lister, witness names of an
# instance's entries, whether the selection must contain the forced
# individuals rather than equal them, the expected conclusion with "{}"
# for those individuals). A lister returns the premise instances of a
# ranking in scan order; the last entry of an instance is the forced
# individual (an id) or individuals (an ascending id tuple).
PREMISE_AXIOMS = {
    "RAG": (rag_premises, ("s0", "x"), False, _EQUALS),
    "WRAG": (rag_premises, ("s0", "x"), True, "selection contains {}"),
    "RDF": (rdf_premises, ("s0", "x"), False, _EQUALS),
    "RJAD": (rjad_premises, ("s0", "x"), False, _EQUALS),
    "TAG": (_top_agreement_premises, ("top_intersection",), False, _EQUALS_TOP),
    "STAG": (
        partial(_top_agreement_premises, strong=True), ("top_intersection",), False, _EQUALS_TOP
    ),
    "TDF": (_top_difference_premises, ("x",), False, _EQUALS),
    "TJAD": (_top_joint_premises, ("x",), False, _EQUALS),
    "CV": (_concomitant_premises, ("concomitant",), True, "selection contains every individual of {}"),
}

# The step form of each premise-only axiom whose lister reads below the best class.
PREMISE_STEPS = {
    "CV": concomitant_step,
    "RAG": agreement_step,
    "WRAG": agreement_step,
    "RDF": difference_step,
    "RJAD": joint_step,
}

# Premise-only axioms whose listers read the best class alone, those with no
# step form: each lists the same on a ranking as on its
# solutions.best_class_reduction (TJAD's family below is the complement of
# the best class).
BEST_CLASS_AXIOMS = frozenset(PREMISE_AXIOMS.keys() - PREMISE_STEPS.keys())


def judge(axiom: str, ranking, rule) -> Verdict:
    """Verdict of one premise-only axiom on one ranking.

    Lists every premise instance and evaluates the rule once, and only
    when an instance exists. Counts every instance and judges their one
    forced mask (see :func:`forced_mask`) with one bit test; when it
    fails, the first instance is the witness.
    """
    instances = PREMISE_AXIOMS[axiom][0](ranking)
    if not instances:
        return Verdict(INAPPLICABLE, 0)
    selected = selection_mask(rule, ranking)
    witness = premise_witness(axiom, ranking, instances, forced_mask(instances), selected)
    return _verdict(len(instances), witness)


def forced_mask(instances) -> int:
    """The individuals the premise instances force, as an id bitmask.

    On one ranking every instance of one lister forces the same ones: the
    superiors' intersection of RAG, WRAG and RJAD only shrinks, so once
    it is exactly {x} it stays {x}; two individuals firing RDF would each
    need their singleton strictly above the other's; every other lister
    returns at most one instance.
    """
    f = instances[0][-1]
    return 1 << f if type(f) is int else sum(1 << i for i in f)


def fails(forced: int, selected: int, contains: bool) -> bool:
    """Whether a selection id bitmask fails the conclusion that forces ``forced`` (0: no premise).

    The selection must equal the forced mask, or with ``contains`` hold it.
    """
    return bool(forced) and bool(forced & ~selected if contains else forced != selected)


def premise_witness(axiom: str, ranking, instances, forced: int, selected: int) -> Witness | None:
    """Witness of the first instance when the selection mask fails the forced mask, or None."""
    _, keys, contains, expected = PREMISE_AXIOMS[axiom]
    if not fails(forced, selected, contains):
        return None
    n = ranking.universe.n
    spelled = expected.format(_spell(ranking, mask_members(forced, n)))
    selection = {"selection": mask_members(selected, n)}
    return Witness(axiom, ranking, dict(zip(keys, instances[0])), spelled, selection)


def _rest(reduction) -> int:
    """The bitset of the coalitions below a best-class reduction's best class, 0 when none."""
    return reduction.bits[1] if len(reduction.bits) > 1 else 0


def judge_block(axiom: str, reduction, top) -> tuple[int, int]:
    """(premises, violations) of a best-class axiom on every ranking with the reduction's best class.

    ``top`` is a best-class rule's selection by best-class bitset, read
    only when the lister lists an instance. The lister
    (:data:`BEST_CLASS_AXIOMS`) lists the same on each of those
    fubini(|rest|) rankings as on ``reduction``, and the rule selects the
    same on each, so each judges as the reduction does.
    """
    lister, _, contains, _ = PREMISE_AXIOMS[axiom]
    found = lister(reduction)
    if not found:
        return 0, 0
    size, forced, base = fubini(_rest(reduction).bit_count()), forced_mask(found), top(reduction.bits[0])
    return len(found) * size, size if fails(forced, base, contains) else 0


def check_top_agreement(ranking, rule, strong: bool = False) -> Verdict:
    """Verdict of TAG, or of STAG when ``strong`` is set."""
    return judge("STAG" if strong else "TAG", ranking, rule)


def check_relative_agreement(ranking, rule, weak: bool = False) -> Verdict:
    """Verdict of RAG, or of WRAG when ``weak`` is set."""
    return judge("WRAG" if weak else "RAG", ranking, rule)


check_top_difference = partial(judge, "TDF")
check_top_joint = partial(judge, "TJAD")
check_concomitant = partial(judge, "CV")
check_relative_difference = partial(judge, "RDF")
check_relative_joint = partial(judge, "RJAD")


def judge_slide(ranking, move, slid, before, after, x: int, y: int) -> Witness | None:
    """Witness of slide independence on one slide and one pair {x, y}, or None.

    ``before`` and ``after`` are the selections, as sets, on ``ranking``
    and on ``slid``, the ranking after ``move``. The premise fires when
    both selections meet {x, y}, and it is violated when the two
    intersections differ.
    """
    before_pair, after_pair = before & {x, y}, after & {x, y}
    if not (before_pair and after_pair) or before_pair == after_pair:
        return None
    return Witness(
        axiom="SI",
        ranking=ranking,
        premise={"x": x, "y": y, "move": move, "ranking_after": slid},
        expected=f"selection restricted to {_spell(ranking, (x, y))} unchanged",
        actual={
            "intersection_before": tuple(sorted(before_pair)),
            "intersection_after": tuple(sorted(after_pair)),
        },
    )


def selection_mask(rule, ranking) -> int:
    """The rule's selection on the ranking, as an id bitmask."""
    selected = 0
    for i in rule(ranking):
        selected |= 1 << i
    return selected


@cache
def _pairs(n: int):
    """(x, y, {x, y} as an id bitmask) per pair x < y, and per id bitmask the pairs it meets.

    Pairs are in scan order; a set of them is a bitmask over that order.
    """
    pairs = tuple((x, y, 1 << x | 1 << y) for x in range(n) for y in range(x + 1, n))
    meets = tuple(
        sum(1 << p for p, (*_, pair) in enumerate(pairs) if m & pair) for m in range(1 << n)
    )
    return pairs, meets


def _balanced(n: int, gamma: int) -> int:
    """The pairs {x, y} whose members the coalitions of the gamma bitset hold equally often."""
    counts = [(gamma & coalitions).bit_count() for coalitions in membership_bits(n)]
    return sum(1 << p for p, (x, y, _) in enumerate(_pairs(n)[0]) if counts[x] == counts[y])


@cache
def _balanced_by_gamma(n: int) -> tuple[int, ...]:
    """:func:`_balanced` of every gamma bitset, indexed by the bitset."""
    return tuple(_balanced(n, gamma) for gamma in range(1 << ((1 << n) - 1)))


def _slide_witness(ranking, base, k1: int, k2: int, gamma: int, after: int, violated: int) -> Witness:
    """SI witness of the first violated pair when the gamma bitset slides from class k1 to k2."""
    n = ranking.universe.n
    x, y, _ = _pairs(n)[0][(violated & -violated).bit_length() - 1]
    move = SlideMove(k1, k2, bits_classes((gamma,))[0])
    selections = set(mask_members(base, n)), set(mask_members(after, n))
    return judge_slide(ranking, move, apply_slide(ranking, move), *selections, x, y)


def _class_slides(n: int, best: int, cls: int, base: int, top) -> tuple:
    """(fired, balanced, hit) of a best-class rule's slides out of class bitset ``cls``.

    Each gamma is read where ``best`` becomes best ^ gamma, or best | gamma
    from a lower class; ``hit`` is the first (gamma, after, violated pairs).
    """
    meets, balanced_of = _pairs(n)[1], _balanced_by_gamma(n) if n <= MAX_EXHAUSTIVE_N else None
    fired_sum, balanced_sum, hit = 0, 0, None
    for gamma in slide_gamma_bits(cls):
        balanced = (balanced_of[gamma] if balanced_of else _balanced(n, gamma)) & meets[base]
        if not balanced:
            continue
        after = top(best ^ gamma if cls == best else best | gamma)
        fired = balanced & meets[after]
        fired_sum, balanced_sum = fired_sum + fired.bit_count(), balanced_sum + balanced.bit_count()
        if hit is None and fired & meets[base ^ after]:
            hit = gamma, after, fired & meets[base ^ after]
    return fired_sum, balanced_sum, hit


def check_slide_independence(
    ranking, rule, base=None, walk=None, top=None, table=None
) -> Verdict:
    """Stability of pairwise selection under balanced slides.

    For each pair {x, y} and each slide of a gamma balanced between x and y,
    a premise fires when both the original and the slid selection meet
    {x, y}; the two intersections must then coincide. Premises are scanned
    by source class, gamma bit pattern, destination class, then pair; the
    witness is the first violation in that order. ``base`` is the rule's
    selection on the ranking as an id bitmask, taken from the rule when
    None. With ``table``, the rule's selections by stream index, and
    ``walk``, the ranking's (remaining, before) running index sums from
    :func:`~millrank.enumeration.walk_stream`, each slid ranking is ranked
    from those sums, adding the slide's terms as the destination moves one
    class away from k1, and its selection read from the table; rankings are
    built for the witness only. With ``top`` instead, a best-class rule's
    selection by best-class bitset, each class is one :func:`_class_slides`:
    a best-class gamma fires alike at all l - 1 destinations, a lower one
    at 0 and, with the base selection, at the other l - 2. Without either,
    each slid ranking is built and the rule called on it. A target is
    judged by bit operations over the pairs each selection meets, and each
    gamma's balanced pairs are read from a map built once per n up to
    MAX_EXHAUSTIVE_N. A ranking with more than _MAX_SLIDES slides is
    refused with UniverseTooLargeError first.
    """
    universe = ranking.universe
    n = universe.n
    if (1 << (universe.full_mask - 1)) - 2 > _MAX_SLIDES:  # else no ranking can have more
        classes = ranking.classes
        slides = (len(classes) - 1) * sum((1 << len(cls)) - 2 for cls in classes)
        if slides > _MAX_SLIDES:
            raise UniverseTooLargeError(
                f"slide independence checks at most {_MAX_SLIDES} slides per ranking, got {slides}"
            )
    bits, base = ranking.bits, selection_mask(rule, ranking) if base is None else base
    meets = _pairs(n)[1]
    relevant = meets[base]  # no pair the base selection misses can fire
    l = len(bits)
    if not relevant or l < 2:
        return Verdict(INAPPLICABLE, 0)
    premises, witness = 0, None
    if top is not None:
        for k1, cls in enumerate(bits):
            fired, balanced, hit = _class_slides(n, bits[0], cls, base, top)
            premises += fired * (l - 1) if k1 == 0 else fired + balanced * (l - 2)
            if hit and witness is None:
                witness = _slide_witness(ranking, base, k1, 0 if k1 else 1, *hit)
        return _verdict(premises, witness)
    balanced_of = _balanced_by_gamma(n) if n <= MAX_EXHAUSTIVE_N else None
    if table is not None:
        offsets, (remaining, before) = _rank_offsets(n), walk
        index = before[-1]
    for k1, cls in enumerate(bits):
        # Downward destinations, then upward ones, each moving away from k1.
        destinations = (*range(k1 + 1, l), *range(k1 - 1, -1, -1))
        for gamma in slide_gamma_bits(cls):
            balanced = (balanced_of[gamma] if balanced_of else _balanced(n, gamma)) & relevant
            if not balanced:
                continue
            if table is not None:
                # Class k1 loses gamma and class k2 gains it; the classes between
                # see it among the coalitions not yet placed (downward) or not (upward).
                through = before[k1] + offsets[remaining[k1]][cls ^ gamma]
                tail = offsets[remaining[k1] & ~gamma][cls ^ gamma] + index - before[k1 + 1]
            hit = None
            for k2 in destinations:
                if table is None:
                    after = selection_mask(rule, _decode(universe, slide_bits(bits, k1, k2, gamma)))
                elif k2 > k1:
                    row = offsets[remaining[k2] | gamma]
                    after = table[through + row[bits[k2] | gamma] + index - before[k2 + 1]]
                    through += row[bits[k2]]
                else:
                    after = table[before[k2] + offsets[remaining[k2]][bits[k2] | gamma] + tail]
                    tail += offsets[remaining[k2] & ~gamma][bits[k2]]
                # A balanced pair fires when both selections meet it, and fails
                # when they meet it differently.
                fired = balanced & meets[after]
                premises += fired.bit_count()
                if witness is None and (hit is None or k2 < hit[0]):
                    violated = fired & meets[base ^ after]
                    if violated:
                        hit = k2, gamma, after, violated
            if hit:
                witness = _slide_witness(ranking, base, k1, *hit)
    return _verdict(premises, witness)


def slide_independence_block(reduction, top) -> tuple[int, int]:
    """(premises, violations) of SI on every ranking with the reduction's best class T.

    ``top`` is a best-class rule's selection by best-class bitset, and
    ``base`` = top(T) its selection on the block. A ranking whose rest R
    (r coalitions) falls in m classes adds, as
    :func:`check_slide_independence` does, fired(T) * m and fired(C) +
    balanced(C) * (m - 1) per lower class C, from :func:`_class_slides`.
    Of the T(r, m) ordered partitions of R into
    m blocks (:func:`~millrank.enumeration.partition_rows`),
    m * T(r - |C|, m - 1) hold the block C. A ranking violates when one of
    its classes hits: every ranking when T does, else all but the ordered
    partitions of R into blocks that miss, counted over the subsets of R
    (3**r steps).
    """
    n, best, rest = reduction.universe.n, reduction.bits[0], _rest(reduction)
    base = top(best)
    if not rest or not _pairs(n)[1][base]:
        return 0, 0
    r = rest.bit_count()
    rows = tuple(partition_rows(r))
    fired, _, hit = _class_slides(n, best, best, base, top)
    premises = fired * sum(m * rows[r][m] for m in range(1, r + 1))
    subsets = (*slide_gamma_bits(rest), rest)  # every nonempty subset of R, ascending
    hits, clean = set(), {0: 1}  # the subsets that hit; ordered partitions into blocks that miss
    for cls in subsets:
        fired, balanced, hit_cls = _class_slides(n, best, cls, base, top)
        left = r - cls.bit_count()
        premises += sum(m * (fired + (m - 1) * balanced) * rows[left][m - 1] for m in range(1, left + 2))
        if hit_cls:
            hits.add(cls)
        total, first = 0, cls
        while first:  # each nonempty first block of cls that misses
            if first not in hits:
                total += clean[cls ^ first]
            first = (first - 1) & cls
        clean[cls] = total
    return premises, sum(rows[r]) - (0 if hit else clean[rest])


def check_downward_monotonicity(
    ranking, rule, base=None, walk=None, top=None, table=None
) -> Verdict:
    """Selected individuals survive deteriorations of coalitions avoiding them.

    For every selected x, every nonempty coalition s avoiding x, and
    every ranking obtained by moving s weakly down, x must stay selected.
    Premises are scanned by x, then by s (ascending mask), then by
    placement, so s adds its kept individuals once per placement,
    counted without reading the targets. The witness is the first
    violation of the smallest violated x: one pass over s keeps the
    smallest x lost so far and reads the placements of s only while s
    keeps an individual below it. ``base``, ``walk``, ``top`` and ``table``
    are read, and targets ranked, as in :func:`check_slide_independence`;
    the identity placement is counted but not read, nor with ``top`` any
    that keeps the best class: a best-class s sharing its class is read
    once, one alone at most twice (joining class 1, then anywhere lower).
    More than _MAX_PLACEMENTS placements are refused with
    UniverseTooLargeError before the rule runs.
    """
    universe = ranking.universe
    if universe.full_mask**2 > _MAX_PLACEMENTS:  # else no ranking can have more
        # len(deterioration_placements(j, L, alone)) is 2 (L - j), less 1 when alone.
        l = len(ranking.classes)
        placements = sum(
            2 * (l - j) * len(cls) - (len(cls) == 1) for j, cls in enumerate(ranking.classes)
        )
        if placements > _MAX_PLACEMENTS:
            raise UniverseTooLargeError(
                "downward monotonicity checks at most"
                f" {_MAX_PLACEMENTS} placements per ranking, got {placements}"
            )
    bits, base = ranking.bits, selection_mask(rule, ranking) if base is None else base
    if not base:
        return Verdict(INAPPLICABLE, 0)
    if table is not None:
        offsets, (remaining, before) = _rank_offsets(universe.n), walk
        index = before[-1]
    premises = 0
    hit, wanted = None, base  # (x, s, position, selection) of the smallest x lost; those below x
    for s in range(1, universe.full_mask + 1):
        kept = base & ~s
        if not kept:
            continue
        j, bit = ranking.class_of[s], 1 << (s - 1)
        placements = deterioration_placements(j, len(bits), bits[j] == bit)
        premises += kept.bit_count() * len(placements)
        watched = kept & wanted
        if not watched or top and j:
            continue
        if top is not None:  # (None, best class) of each placement read
            tops = (bits[0] ^ bit,) if bits[0] != bit else (bits[1] | bit, bits[1])
            placements = (None, *((None, best) for best in tops))
        elif table is not None:
            # Terms before the target class: class j without s (offset 0 when
            # that is empty), then the classes down to it with s not yet placed.
            joined = below = before[j] + offsets[remaining[j]][bits[j] ^ bit]
        for position, (kind, k) in enumerate(placements[1:], 1):
            if top is not None:
                selected = top(k)
            elif table is None:
                target = _decode(universe, deterioration_bits(bits, j, s, kind, k))
                selected = selection_mask(rule, target)
            elif kind == "join":
                row = offsets[remaining[k] | bit]
                selected = table[joined + row[bits[k] | bit] + index - before[k + 1]]
                joined += row[bits[k]]
            else:
                if k > j:
                    below += offsets[remaining[k] | bit][bits[k]]
                row = offsets[remaining[k + 1] | bit]
                selected = table[below + row[bit] + index - before[k + 1]]
            lost = watched & ~selected
            if lost:
                low = lost & -lost
                hit, wanted = (low.bit_length() - 1, s, position, selected), low - 1
                watched &= wanted
                if not watched:
                    break
    if hit is None:
        return _verdict(premises, None)
    x, s, position, selected = hit
    spec = list(enumerate_deterioration_specs(ranking, s))[position]
    slid = apply_deterioration(ranking, spec)
    witness = Witness(
        axiom="DMON",
        ranking=ranking,
        premise={"x": x, "s": s, "placement": spec, "ranking_after": slid},
        expected=f"{universe.names[x]} stays selected after the deterioration",
        actual={"selection_after": mask_members(selected, universe.n)},
    )
    return _verdict(premises, witness)


def downward_monotonicity_block(reduction, top) -> tuple[int, int]:
    """(premises, violations) of DMON on every ranking with the reduction's best class T.

    ``top`` and ``base`` = top(T) are as in
    :func:`slide_independence_block`. A
    coalition s in class j of l adds its kept individuals once per
    placement, 2 (l - j) less 1 when alone, as in
    :func:`check_downward_monotonicity`; over the ordered partitions of the
    rest R, one in T sees T(r, m) rankings of m + 1 classes, and one in R,
    in a block uniformly placed among m, is alone in m * T(r - 1, m - 1).
    Only s in T can lose an individual. With T of several coalitions,
    every ranking violates when one s loses on T without s, none else;
    with T = {s}, the rankings whose second class C loses on C with s or
    on C alone violate, fubini(r - |C|) of them per C.
    """
    universe, best, rest = reduction.universe, reduction.bits[0], _rest(reduction)
    base = top(best)
    r, alone = rest.bit_count(), best.bit_count() == 1
    rows = tuple(partition_rows(r))
    size = sum(rows[r])
    inside = sum(2 * (m + 1) * rows[r][m] for m in range(r + 1)) - alone * size
    outside = sum((m + 1) * rows[r][m] - m * rows[r - 1][m - 1] for m in range(1, r + 1))
    premises = sum(
        (base & ~s).bit_count() * (inside if best >> (s - 1) & 1 else outside)
        for s in range(1, universe.full_mask + 1)
    )
    if not alone:
        lost = any(base & ~s & ~top(best ^ 1 << (s - 1)) for s in reduction.classes[0])
        return premises, size if lost else 0
    kept = base & ~reduction.classes[0][0]  # none when s is the one coalition (n = 1)
    seconds = (*slide_gamma_bits(rest), rest) if kept else ()  # every nonempty subset of R
    return premises, sum(
        fubini(r - cls.bit_count()) for cls in seconds if kept & ~(top(cls | best) & top(cls))
    )


AXIOMS = {
    **{axiom: partial(judge, axiom) for axiom in PREMISE_AXIOMS},
    "SI": check_slide_independence,
    "DMON": check_downward_monotonicity,
}


# (premises, violations) of each axiom summed over the rankings that share a
# best class, for a rule of solutions.BEST_CLASS_RULES: each counter takes the
# best class's solutions.best_class_reduction and the rule's selection by
# best-class bitset.
BLOCK_COUNTERS = {
    **{axiom: partial(judge_block, axiom) for axiom in sorted(BEST_CLASS_AXIOMS)},
    "SI": slide_independence_block,
    "DMON": downward_monotonicity_block,
}


def lookup_axiom(axiom_id: str):
    """Resolve an axiom identifier (case-insensitive) to its checker."""
    try:
        return AXIOMS[axiom_id.upper()]
    except KeyError:
        known = ", ".join(sorted(AXIOMS))
        raise UnknownAxiomError(f"unknown axiom {axiom_id!r} (known: {known})") from None


def replay(witness: Witness, rule) -> Verdict:
    """Re-run the witnessing checker on the stored ranking."""
    return AXIOMS[witness.axiom](witness.ranking, rule)
