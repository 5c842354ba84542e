"""Executable checkers for the selection axioms.

Each axiom is a premise on the ranking plus a forced conclusion on the
selection. The nine premise-only axioms (TAG, STAG, TDF, TJAD, CV, RAG,
WRAG, RDF, RJAD) are one table, :data:`PREMISE_AXIOMS`: a premise lister
that returns every premise instance of a ranking in the documented scan
order, and a conclusion (the selection equals the forced individuals,
or contains them). One function, :func:`judge_selection`, builds their
verdicts from the listed instances and the rule's selection;
:func:`judge` lists and selects, then calls it.
The two transformation axioms, slide independence (SI) and downward
monotonicity (DMON), evaluate the rule on transformed rankings as well
and keep their own scans. They hold classes as bitsets over coalitions.
A caller that walks the exhaustive stream passes a source: the rule's
complete selection table, indexed by stream index, and the walk's class
bitsets and running index sums, from which each target's index is
ranked, so every target's selection is one table read. Without a source
the checker builds each target and calls the rule on it.

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
from functools import partial
from typing import Literal

from .core import (
    CoalitionalRanking,
    bits_classes,
    class_bits,
    concomitant_set,
    mask_members,
    top_intersection,
)
from .errors import UniverseTooLargeError, UnknownAxiomError
from .transforms import (
    SlideMove,
    _decode,
    apply_deterioration,
    apply_slide,
    deterioration_bits,
    deterioration_indices,
    deterioration_placements,
    enumerate_deterioration_specs,
    membership_bits,
    slide_bits,
    slide_gamma_bits,
    slide_indices,
)

# check_slide_independence refuses a ranking with more slides (source
# class, gamma, destination class) than this: a class of c coalitions
# alone yields 2^c - 2 gammas. One slide took 17-33 us at n = 5
# (plurality, les) and about 1 ms with les at n = 8 on a 2.1 GHz Xeon
# with Python 3.11.7, so the largest accepted scan takes about 2 s at
# n = 5 and 2 min at n = 8. In 1,000 sampled rankings at n = 8 the most
# slides was 58,480; exhaustively at n = 3 it is 62.
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
    """(j, x) for every class j > 0 whose strict superiors share exactly x."""
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


def _separation_bounds(ranking):
    """Per individual: worst class holding them, best class avoiding them."""
    n = ranking.universe.n
    worst_with = [-1] * n
    best_without = [len(ranking.classes)] * n
    for j, cls in enumerate(ranking.classes):
        for mask in cls:
            for i in range(n):
                if mask >> i & 1:
                    if j > worst_with[i]:
                        worst_with[i] = j
                elif j < best_without[i]:
                    best_without[i] = j
    return worst_with, best_without


def rdf_premises(ranking):
    """All (s0, x) pairs firing the relative-difference premise (RDF).

    Premise for (s0, x): every coalition containing x is strictly better
    than s0, and s0 is at least as good as every nonempty coalition
    avoiding x. Conclusion: the selection is x alone. Premises are
    scanned by individual, then by class of s0, then by mask.
    """
    out = []
    worst_with, best_without = _separation_bounds(ranking)
    for x in range(ranking.universe.n):
        lo, hi = worst_with[x], best_without[x]
        if hi >= len(ranking.classes) or hi <= lo:
            continue
        # every coalition of class hi avoids x (x-coalitions all sit above lo < hi)
        out.extend((s0, x) for s0 in ranking.classes[hi])
    return out


def rjad_premises(ranking):
    """All (s0, x) pairs firing the relative-joint premise (RJAD).

    Premise for (s0, x): the strict superiors of s0 share exactly the
    individual x, the remaining coalitions share nobody, and none of the
    remaining coalitions contains x. Conclusion: the selection is x
    alone. Scanned by class of s0, then by mask.
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


def judge(axiom: str, ranking, rule) -> Verdict:
    """Verdict of one premise-only axiom on one ranking.

    Lists every premise instance and evaluates the rule once, and only
    when an instance exists.
    """
    instances = PREMISE_AXIOMS[axiom][0](ranking)
    if not instances:
        return Verdict(INAPPLICABLE, 0)
    return judge_selection(axiom, ranking, instances, tuple(rule(ranking)))


def judge_selection(axiom: str, ranking, instances, actual: tuple) -> Verdict:
    """Verdict of a selection against the premise instances listed on a ranking.

    ``instances`` is the nonempty list the axiom's lister returned on
    ``ranking`` and ``actual`` the rule's selection there. Counts every
    instance and records the first one whose conclusion fails as the
    witness.
    """
    _, keys, contains, expected = PREMISE_AXIOMS[axiom]
    chosen = set(actual)
    held = None
    for instance in instances:
        if instance[-1] == held:
            continue  # the same forced individuals as an instance that held
        forced = instance[-1] if isinstance(instance[-1], tuple) else instance[-1:]
        if chosen.issuperset(forced) if contains else chosen == set(forced):
            held = instance[-1]
            continue
        witness = Witness(
            axiom=axiom,
            ranking=ranking,
            premise=dict(zip(keys, instance)),
            expected=expected.format(_spell(ranking, forced)),
            actual={"selection": actual},
        )
        return Verdict(VIOLATED, len(instances), witness)
    return Verdict(SATISFIED, len(instances))


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


def _source(ranking, rule):
    """(table, bits, prefix, base): what an SI or DMON scan reads, here without a table.

    ``table`` is the rule's complete selection table (id bitmasks by
    stream index) or None; ``bits`` the ranking's class bitsets;
    ``prefix`` their :class:`~millrank.enumeration.StreamPrefix`, None
    without a table; ``base`` the rule's selection on the ranking as an
    id bitmask.
    """
    return None, class_bits(ranking.classes), None, selection_mask(rule, ranking)


def check_slide_independence(ranking, rule, source=None) -> Verdict:
    """Stability of pairwise selection under balanced slides.

    For each pair {x, y} and each slide of a gamma balanced between x and
    y, a premise fires when both the original and the slid selection meet
    {x, y}; the two intersections must then coincide. Premises are
    scanned by source class, gamma bit pattern, destination class, then
    pair; the witness is the first violation in that order. Classes and
    gammas are bitsets over coalitions. A caller that walks the
    exhaustive stream passes ``source`` as :func:`_source` describes it,
    with the rule's table: each slid ranking's selection is then read
    from the table at its stream index, ranked from the source's running
    index sums, and rankings are built for the witness only. Without a
    table the slid ranking is built and the rule called on it. A ranking
    with more than _MAX_SLIDES slides is refused with
    UniverseTooLargeError before the scan.
    """
    classes = ranking.classes
    slides = (len(classes) - 1) * sum((1 << len(cls)) - 2 for cls in classes)
    if slides > _MAX_SLIDES:
        raise UniverseTooLargeError(
            f"slide independence checks at most {_MAX_SLIDES} slides per ranking, got {slides}"
        )
    universe = ranking.universe
    n = universe.n
    table, bits, prefix, base = source or _source(ranking, rule)
    members = membership_bits(n)
    # Per relevant pair: x, y, the pair as an id bitmask, and the
    # coalitions containing x and containing y; a gamma is balanced
    # when it holds as many of each.
    pairs = [
        (x, y, 1 << x | 1 << y, members[x], members[y])
        for x in range(n)
        for y in range(x + 1, n)
        if base >> x & 1 or base >> y & 1
    ]
    if not pairs or len(bits) < 2:
        return Verdict(INAPPLICABLE, 0)
    premises = 0
    witness = None
    for k1, cls in enumerate(bits):
        for gamma in slide_gamma_bits(cls):
            balanced = [
                p for p in pairs if (gamma & p[3]).bit_count() == (gamma & p[4]).bit_count()
            ]
            if not balanced:
                continue
            for k2, index in enumerate(slide_indices(prefix, bits, k1, gamma)):
                if k2 == k1:
                    continue
                if table is None:
                    after = selection_mask(rule, _decode(universe, slide_bits(bits, k1, k2, gamma)))
                else:
                    after = table[index]
                for x, y, pair, _, _ in balanced:
                    before_pair, after_pair = base & pair, after & pair
                    if before_pair and after_pair:
                        premises += 1
                        if before_pair != after_pair and witness is None:
                            move = SlideMove(k1, k2, bits_classes((gamma,))[0])
                            slid = apply_slide(ranking, move)
                            selections = set(mask_members(base, n)), set(mask_members(after, n))
                            witness = judge_slide(ranking, move, slid, *selections, x, y)
    return _verdict(premises, witness)


def check_downward_monotonicity(ranking, rule, source=None) -> Verdict:
    """Selected individuals survive deteriorations of coalitions avoiding them.

    For every selected x, every nonempty coalition s avoiding x, and
    every ranking obtained by moving s weakly down, x must stay selected.
    Premises are scanned by x, then by s (ascending mask), then by
    placement, so s adds the number of its kept individuals for each of
    its placements. One pass over s and its placements judges each
    deteriorated ranking once and keeps each x's first violation; the
    witness is that of the smallest x. Each deteriorated ranking's
    selection is read as in :func:`check_slide_independence`; the
    identity placement is counted but not evaluated, and with a table,
    placements and rankings are built for the witness only. A ranking
    with more than _MAX_PLACEMENTS placements is refused with
    UniverseTooLargeError before the rule runs. ``source`` is as in
    :func:`check_slide_independence`.
    """
    universe = ranking.universe
    n = universe.n
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
    table, bits, prefix, base = source or _source(ranking, rule)
    if not base:
        return Verdict(INAPPLICABLE, 0)
    premises = 0
    first = {}
    for s in range(1, universe.full_mask + 1):
        kept = base & ~s
        if not kept:
            continue
        j = ranking.class_of[s]
        placements = deterioration_placements(j, len(bits), bits[j] == 1 << (s - 1))
        premises += kept.bit_count() * len(placements)
        indices = deterioration_indices(prefix, bits, j, s, placements)
        for position, index in enumerate(indices, 1):
            if table is None:
                target = deterioration_bits(bits, j, s, *placements[position])
                selected = selection_mask(rule, _decode(universe, target))
            else:
                selected = table[index]
            lost = kept & ~selected
            if lost:
                for x in mask_members(lost, n):
                    first.setdefault(x, (s, position, selected))
    if not first:
        return _verdict(premises, None)
    x = min(first)
    s, position, selected = first[x]
    spec = list(enumerate_deterioration_specs(ranking, s))[position]
    witness = Witness(
        axiom="DMON",
        ranking=ranking,
        premise={
            "x": x,
            "s": s,
            "placement": spec,
            "ranking_after": apply_deterioration(ranking, spec),
        },
        expected=f"{universe.names[x]} stays selected after the deterioration",
        actual={"selection_after": mask_members(selected, n)},
    )
    return _verdict(premises, witness)


AXIOMS = {
    **{axiom: partial(judge, axiom) for axiom in PREMISE_AXIOMS},
    "SI": check_slide_independence,
    "DMON": check_downward_monotonicity,
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
