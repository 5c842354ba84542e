"""Shared fixtures builders and independent oracles.

The oracles recompute everything from frozenset-of-ints first principles
(itertools over member lists, no bitmasks), so they exercise none of the
code paths they are used to check. Fourteen declared oracles are instead
the direct loops that faster code replaced: :func:`oracle_sweep`,
:func:`oracle_judge_selection` (premise-only verdicts on id sets),
:func:`oracle_first_violation` (the serial witness search the chunked
one replaced),
:func:`oracle_sample_classes`, :func:`oracle_ordered_partitions` (the
exhaustive stream order), :func:`oracle_stream_walk` and
:func:`oracle_stream_index` (a ranking's stream index from its class
bitsets), :func:`oracle_orbit_minima` (the orderly walk's orbit
representatives and sizes, by relabeling every ranking every way),
:func:`slide_gammas`, the slide and deterioration applicators
and the deterioration recognizer on class tuples
:func:`oracle_apply_slide`, :func:`oracle_apply_deterioration` and
:func:`oracle_is_deterioration`, and the slide independence and
downward monotonicity checkers that build every transformed ranking and
call the rule on it, :func:`oracle_slide_independence` and
:func:`oracle_downward_monotonicity`.
"""

import random
from fractions import Fraction
from functools import cache
from itertools import combinations, permutations
from math import comb

from millrank import (
    AXIOMS,
    EXHAUSTIVE,
    INAPPLICABLE,
    SATISFIED,
    VIOLATED,
    CoalitionalRanking,
    RankingStream,
    SweepReport,
    Universe,
    UniverseMismatchError,
    Verdict,
    Witness,
    lookup_rule,
    validate_ranking,
)
from millrank.axioms import PREMISE_AXIOMS, _spell, _verdict, judge_slide
from millrank.core import class_bits, mask_members
from millrank.enumeration import _rank_offsets
from millrank.transforms import SlideMove, enumerate_deterioration_specs


def rk(shorthand: str, n: int = 3) -> CoalitionalRanking:
    """Build a ranking from digit shorthand, e.g. "123 12 13 / rest".

    Classes are separated by "/", coalitions are digit strings over the
    default universe names "1".."n", and "rest" collects every coalition
    not yet placed into the current class. Only usable for n <= 9.
    """
    universe = Universe(n)
    used = set()
    classes = []
    for part in shorthand.split("/"):
        cls = []
        for token in part.split():
            if token == "rest":
                cls.extend(m for m in range(1, universe.full_mask + 1) if m not in used)
            else:
                cls.append(sum(1 << (int(ch) - 1) for ch in token))
        classes.append(cls)
        used.update(cls)
    return validate_ranking(classes, universe)


def sel(digits: str) -> tuple[int, ...]:
    """Ascending id tuple for a digit string, e.g. sel("13") == (0, 2)."""
    return tuple(sorted(int(ch) - 1 for ch in digits))


def cmask(digits: str) -> int:
    """Coalition mask for a digit string, e.g. cmask("13") == 0b101."""
    return sum(1 << (int(ch) - 1) for ch in digits)


def as_sets(ranking: CoalitionalRanking):
    """Ranking classes as a list of sets of frozensets of ids."""
    n = ranking.universe.n
    return [
        {frozenset(i for i in range(n) if mask >> i & 1) for mask in cls}
        for cls in ranking.classes
    ]


def _index(classes, coalition):
    for j, cls in enumerate(classes):
        if coalition in cls:
            return j
    raise KeyError(coalition)


def oracle_theta(ranking, x):
    return tuple(sum(1 for s in cls if x in s) for cls in as_sets(ranking))


def oracle_banzhaf(ranking, x):
    classes = as_sets(ranking)
    n = ranking.universe.n
    others = [i for i in range(n) if i != x]
    up = down = 0
    for k in range(1, len(others) + 1):
        for chosen in combinations(others, k):
            s = frozenset(chosen)
            a = _index(classes, s | {x})
            b = _index(classes, s)
            if a < b:
                up += 1
            elif a > b:
                down += 1
    return up, down, up - down


def oracle_concomitant(ranking):
    classes = as_sets(ranking)
    n = ranking.universe.n
    out = []
    for x in range(n):
        others = [i for i in range(n) if i != x]
        improves = True
        for k in range(1, len(others) + 1):
            for chosen in combinations(others, k):
                s = frozenset(chosen)
                if not _index(classes, s | {x}) < _index(classes, s):
                    improves = False
        if improves:
            out.append(x)
    return tuple(out)


def _oracle_argmax(scores):
    best = max(scores.values())
    return tuple(sorted(x for x, v in scores.items() if v == best))


def oracle_plurality(ranking):
    classes = as_sets(ranking)
    n = ranking.universe.n
    return _oracle_argmax({x: sum(1 for s in classes[0] if x in s) for x in range(n)})


def oracle_les(ranking):
    n = ranking.universe.n
    vectors = {x: oracle_theta(ranking, x) for x in range(n)}
    return _oracle_argmax(vectors)


def oracle_obi(ranking):
    n = ranking.universe.n
    return _oracle_argmax({x: oracle_banzhaf(ranking, x)[2] for x in range(n)})


def oracle_split_plurality(ranking):
    classes = as_sets(ranking)
    n = ranking.universe.n
    scores = {
        x: sum((Fraction(1, len(s)) for s in classes[0] if x in s), Fraction(0))
        for x in range(n)
    }
    return _oracle_argmax(scores)


def oracle_f_star(ranking):
    classes = as_sets(ranking)
    n = ranking.universe.n
    inter = frozenset(range(n))
    for s in classes[0]:
        inter &= s
    if inter:
        return tuple(sorted(inter))
    if (len(classes) * len(classes[0])) % 2 == 0:
        return oracle_plurality(ranking)
    return tuple(range(n))


def oracle_weak_order_count(m):
    """Weak orders on m elements via Stirling numbers, not the recurrence."""
    from math import factorial

    stirling = [[0] * (m + 1) for _ in range(m + 1)]
    stirling[0][0] = 1
    for i in range(1, m + 1):
        for k in range(1, i + 1):
            stirling[i][k] = k * stirling[i - 1][k] + stirling[i - 1][k - 1]
    return sum(stirling[m][k] * factorial(k) for k in range(m + 1))


def all_placements(ranking, subject):
    """Every ranking that agrees with the input away from the subject.

    Reinserts the subject anywhere: merged into each remaining class or
    as a singleton in each gap, upward moves included. Any ranking not in
    this family orders the other coalitions differently, so together
    with it this family is exhaustive for deterioration recognition.
    """
    stripped = [
        [m for m in cls if m != subject] for cls in ranking.classes
    ]
    stripped = [cls for cls in stripped if cls]
    out = []
    for k in range(len(stripped)):
        merged = [list(c) for c in stripped]
        merged[k].append(subject)
        merged[k].sort()
        out.append(merged)
    for gap in range(len(stripped) + 1):
        inserted = [list(c) for c in stripped]
        inserted.insert(gap, [subject])
        out.append(inserted)
    # Every class is sorted, so the candidates are built as canonical.
    return [
        CoalitionalRanking._trusted(ranking.universe, tuple(map(tuple, classes)))
        for classes in out
    ]


def oracle_apply_slide(ranking, move):
    """The ranking after a valid slide move, rebuilt from class tuples."""
    classes = list(ranking.classes)
    classes[move.k1] = tuple(m for m in classes[move.k1] if m not in move.gamma)
    classes[move.k2] = tuple(sorted(classes[move.k2] + move.gamma))
    return CoalitionalRanking._trusted(ranking.universe, tuple(classes))


def oracle_apply_deterioration(ranking, spec):
    """The ranking after a valid deterioration spec, rebuilt from class tuples."""
    j = ranking.index_of(spec.subject)
    classes = [list(c) for c in ranking.classes]
    classes[j].remove(spec.subject)
    if spec.kind == "below":
        classes.insert(spec.k + 1, [spec.subject])
    else:
        classes[j if spec.kind == "stay" else spec.k].append(spec.subject)
    return CoalitionalRanking._trusted(
        ranking.universe, tuple(tuple(sorted(c)) for c in classes if c)
    )


def oracle_is_deterioration(ranking, ranking2, subject) -> bool:
    """Whether ranking2 degrades only the subject, judged on class tuples.

    The other coalitions must keep their classes once the subject is
    removed from both rankings; coalitions tied with the subject may
    only stay tied or move strictly above it, and coalitions strictly
    above it must stay strictly above.
    """
    if ranking.universe != ranking2.universe:
        raise UniverseMismatchError("rankings must share a universe")
    j = ranking.index_of(subject)

    def restricted(r):
        return tuple(
            tuple(m for m in cls if m != subject) for cls in r.classes if cls != (subject,)
        )

    if restricted(ranking) != restricted(ranking2):
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


def oracle_rag_premises(ranking):
    """(s0, x) pairs of the relative agreement premise, straight from its wording."""
    classes = as_sets(ranking)
    out = []
    for j in range(1, len(classes)):
        common = frozenset.intersection(*(s for cls in classes[:j] for s in cls))
        if len(common) == 1:
            (x,) = common
            out.extend((s0, x) for s0 in ranking.classes[j])
    return out


def oracle_rdf_premises(ranking):
    """(s0, x) pairs of the relative difference premise, straight from its wording.

    Scanned by individual, then by class of s0, then by mask.
    """
    classes = as_sets(ranking)
    out = []
    for x in range(ranking.universe.n):
        for j, cls in enumerate(classes):
            with_x = all(x in s for c in classes[:j] for s in c)
            if with_x and not any(x in s for c in classes[j:] for s in c):
                out.extend((s0, x) for s0 in ranking.classes[j])
    return out


def oracle_rjad_premises(ranking):
    """(s0, x) pairs of the relative joint premise, straight from its wording."""
    classes = as_sets(ranking)
    out = []
    for j in range(1, len(classes)):
        better = [s for cls in classes[:j] for s in cls]
        rest = [s for cls in classes[j:] for s in cls]
        common = frozenset.intersection(*better)
        if len(common) != 1 or frozenset.intersection(*rest):
            continue
        (x,) = common
        if any(x in s for s in rest):
            continue
        out.extend((s0, x) for s0 in ranking.classes[j])
    return out


def oracle_sweep(rule, axiom, n, mode=EXHAUSTIVE, witness_cap=10):
    """One rule x axiom cell swept directly: the axiom's checker on every ranking.

    Each ranking of the stream goes through ``AXIOMS[axiom]`` on its
    own, with no premise listing or rule evaluation shared across cells
    or chunks.
    """
    check, rule_fn = AXIOMS[axiom], lookup_rule(rule)
    checked = premises = violations = 0
    witnesses = []
    for ranking in RankingStream(Universe(n), mode):
        verdict = check(ranking, rule_fn)
        checked += 1
        premises += verdict.premises_checked
        if verdict.status == VIOLATED:
            violations += 1
            if len(witnesses) < witness_cap:
                witnesses.append(verdict.witness)
    return SweepReport(
        rule, axiom, n, mode, checked, premises, violations, witness_cap, tuple(witnesses)
    )


def oracle_judge_selection(axiom, ranking, instances, actual):
    """Verdict of a selection against the premise instances of a ranking, on id sets.

    The set-based judge that the bitmask one replaced: it compares the
    selected ids with each instance's forced ids as Python sets and
    records the first failing instance as the witness.
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


def oracle_first_violation(rule, axioms, n, mode=EXHAUSTIVE):
    """First (stream index, witness) where the rule violates one of the axioms, or None.

    Each ranking of the stream goes through the one-ranking checkers
    ``AXIOMS[axiom]``, in the order of ``axioms``, with no table.
    """
    rule_fn = lookup_rule(rule)
    checks = [AXIOMS[axiom] for axiom in axioms]
    for index, ranking in enumerate(RankingStream(Universe(n), mode)):
        for check in checks:
            verdict = check(ranking, rule_fn)
            if verdict.status == VIOLATED:
                return index, verdict.witness
    return None


@cache
def oracle_selection_table(rule, n):
    """The rule's selections as id bitmasks, one byte per ranking of the oracle stream order."""
    rule_fn, universe = lookup_rule(rule), Universe(n)
    return bytes(
        sum(1 << i for i in rule_fn(CoalitionalRanking._trusted(universe, classes)))
        for classes in oracle_ordered_partitions(tuple(range(1, 1 << n)))
    )


@cache
def oracle_relabeled_indices(n):
    """Per ranking of the oracle stream order, the index of its relabeling by each permutation.

    The permutations run in ``itertools.permutations`` order, the
    identity first; each renames the members of every coalition, and the
    relabeled classes are sorted and looked up in the oracle stream.
    """
    coalitions = tuple(range(1, 1 << n))
    stream = list(oracle_ordered_partitions(coalitions))
    index = {classes: i for i, classes in enumerate(stream)}
    renames = [
        {m: sum(1 << perm[i] for i in range(n) if m >> i & 1) for m in coalitions}
        for perm in permutations(range(n))
    ]
    return tuple(
        tuple(index[tuple(tuple(sorted(rename[m] for m in cls)) for cls in classes)] for rename in renames)
        for classes in stream
    )


def oracle_orbit_minima(n):
    """(stream index, orbit size) of the smallest-index ranking of each relabeling orbit.

    Brute force: every ranking relabeled every way; a ranking is its
    orbit's minimum when no relabeling has a smaller index.
    """
    return [(i, len(set(images))) for i, images in enumerate(oracle_relabeled_indices(n)) if min(images) == i]


def hashed_top(ranking):
    """A rule that reads the best class alone and selects a scrambled nonempty set.

    It breaks ties by ids, so it does not commute with relabeling.
    """
    n = ranking.universe.n
    return mask_members(class_bits(ranking.classes[:1])[0] * 40503 % ((1 << n) - 1) + 1, n)


def oracle_stream_walk(bits, n):
    """The (remaining, before) running index sums of the ranking with class bitsets ``bits``.

    Summed class by class, as lists; ``walk_stream`` yields them as
    tuples. Defined for n <= MAX_EXHAUSTIVE_N, where the offset table exists.
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
    return remaining, before


def oracle_stream_index(bits, n):
    """Index in the exhaustive stream of the ranking with class bitsets ``bits``."""
    return oracle_stream_walk(bits, n)[1][-1]


@cache
def _weak_orders(m):
    return oracle_weak_order_count(m)


def oracle_ordered_partitions(elements):
    """Ordered set partitions of sorted ``elements``, in exhaustive stream order.

    The top class runs over the nonempty subsets ordered by their sorted
    tuples, and the classes below it are the partitions of the rest, in
    the same order.
    """
    if not elements:
        yield ()
        return
    tops = sorted(c for k in range(1, len(elements) + 1) for c in combinations(elements, k))
    for top in tops:
        rest = tuple(e for e in elements if e not in top)
        for tail in oracle_ordered_partitions(rest):
            yield (top,) + tail


def oracle_sample_classes(n, rng_seed):
    """Classes of ``sample_ranking(n, rng_seed)``, drawn by the direct loop.

    The top-class size k is the first whose running sum of
    C(m, k) * weak_orders(m - k) exceeds a ticket drawn below
    weak_orders(m), with every count taken from the Stirling oracle.
    """
    rng = random.Random(rng_seed)
    remaining = list(range(1, (1 << n)))
    classes = []
    while remaining:
        m = len(remaining)
        ticket = rng.randrange(_weak_orders(m))
        acc = 0
        for k in range(1, m + 1):
            acc += comb(m, k) * _weak_orders(m - k)
            if ticket < acc:
                break
        chosen = sorted(rng.sample(remaining, k))
        classes.append(tuple(chosen))
        remaining = [e for e in remaining if e not in chosen]
    return tuple(classes)


def slide_gammas(cls, n: int):
    """Yield every gamma a slide can move out of one class, from its mask tuple.

    Gammas are the nonempty proper subsets of ``cls``, taken in order of
    their bit pattern over the mask-sorted class. Each comes as
    ``(gamma, counts)``: gamma as an ascending mask tuple, and
    ``counts[i]`` the number of its coalitions that contain individual i.
    """
    for bits in range(1, (1 << len(cls)) - 1):
        counts = [0] * n
        members = []
        rest = bits
        while rest:
            low = rest & -rest
            mask = cls[low.bit_length() - 1]
            members.append(mask)
            for i in range(n):
                counts[i] += mask >> i & 1
            rest ^= low
        yield tuple(members), counts


def oracle_slide_independence(ranking, rule) -> Verdict:
    """Stability of pairwise selection under balanced slides, slide by slide.

    For each pair {x, y} and each slide of a gamma balanced between x and
    y, a premise fires when both the original and the slid selection meet
    {x, y}; the two intersections must then coincide. Premises are
    scanned by source class, gamma bit pattern, destination class, then
    pair; the witness is the first violation in that order.
    """
    base = set(rule(ranking))
    n = ranking.universe.n
    relevant = [
        (x, y)
        for x in range(n)
        for y in range(x + 1, n)
        if x in base or y in base
    ]
    classes = ranking.classes
    if not relevant or len(classes) < 2:
        return Verdict(INAPPLICABLE, 0)
    premises = 0
    witness = None
    for k1, cls in enumerate(classes):
        for gamma, counts in slide_gammas(cls, n):
            balanced = [(x, y) for x, y in relevant if counts[x] == counts[y]]
            if not balanced:
                continue
            for k2 in range(len(classes)):
                if k2 == k1:
                    continue
                move = SlideMove(k1, k2, gamma)
                slid = oracle_apply_slide(ranking, move)
                after = set(rule(slid))
                for x, y in balanced:
                    if base & {x, y} and after & {x, y}:
                        premises += 1
                        witness = witness or judge_slide(ranking, move, slid, base, after, x, y)
    return _verdict(premises, witness)


def oracle_downward_monotonicity(ranking, rule) -> Verdict:
    """Selected individuals survive deteriorations, placement by placement.

    For every selected x, every nonempty coalition s avoiding x, and
    every ranking obtained by moving s weakly down, x must stay selected.
    Premises are scanned by x, then by s (ascending mask), then by
    placement. One pass over s and its placements evaluates each
    transformed ranking once and keeps each x's first violation; the
    witness is that of the smallest x.
    """
    base = rule(ranking)
    if not base:
        return Verdict(INAPPLICABLE, 0)
    premises = 0
    first = {}
    for s in range(1, ranking.universe.full_mask + 1):
        kept = [x for x in base if not s >> x & 1]
        if not kept:
            continue
        for spec in enumerate_deterioration_specs(ranking, s):
            after = oracle_apply_deterioration(ranking, spec)
            selected = set(rule(after))
            premises += len(kept)
            for x in kept:
                if x not in selected and x not in first:
                    first[x] = (s, spec, after, selected)
    if not first:
        return _verdict(premises, None)
    x = min(first)
    s, spec, after, selected = first[x]
    witness = Witness(
        axiom="DMON",
        ranking=ranking,
        premise={"x": x, "s": s, "placement": spec, "ranking_after": after},
        expected=f"{ranking.universe.names[x]} stays selected after the deterioration",
        actual={"selection_after": tuple(sorted(selected))},
    )
    return _verdict(premises, witness)
