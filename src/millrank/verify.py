"""Verification campaigns: axiom sweeps and the standing result reports.

A sweep judges one or more (rule, axiom) cells on every ranking of a
stream, in one pass, and aggregates each cell's verdicts. Per ranking it
builds the ranking once, lists each premise-only axiom's instances once
for all cells, and reads each rule's selection at most once, for all its
cells; a best-class axiom or rule is listed or evaluated once per best
class of a chunk. The ``SI`` and ``DMON`` cells run their checkers on
that selection and the ranking's walk. An exhaustive pass with ``SI`` or
``DMON`` cells of a rule not in ``solutions.BEST_CLASS_RULES`` first
builds that rule's selection table and hands it to every chunk, whose
cells of the rule read its selections there. Nothing is kept between
passes. Campaign functions bundle one such pass and pinned instances
into the characterization probe, the incompatibility report, the
satisfaction matrix and the independence report, whose f_star x DMON
witness is that cell's first; the witness search of the probe is such a
pass, stopped at the first violating ranking.

An unstopped exhaustive pass counts each cell that pairs a rule of
``solutions.BEST_CLASS_RULES`` with an axiom of ``axioms.BLOCK_COUNTERS``
(TAG, STAG, TDF, TJAD, SI, DMON) once per best class: the rankings that
share a best class are consecutive in the stream, and the axiom's block
counter sums their premises and violations from the best class's
reduction. Only the blocks that hold a cell's first witnesses are
walked, and a pass left with no other cell and no tally walks nothing
and starts no pool. Its other cells, when all their rules are in
``solutions.ANONYMOUS_RULES``, judge one ranking per relabeling orbit,
weighted by the orbit's size: no axiom names an individual, so an
orbit's rankings judge alike. The first violating rankings lie in the
orbits whose witnesses the walk keeps, and each is judged on its own
ranking, so reports do not change. Tables, sampled passes and stopped searches walk every ranking.

All outputs are deterministic for fixed inputs. Chunks of stream
indices may be walked by a pool of worker processes; partial tallies
merge by addition as chunk results come back in stream order, so
witnesses concatenate in stream order and the number of workers never
changes a report.

Every report is a frozen dataclass; :func:`report_fields` names the
keys of its JSON form.
"""

from __future__ import annotations

from contextlib import closing
from dataclasses import dataclass, fields, replace
from functools import cache, partial
from itertools import permutations
from typing import ClassVar, get_type_hints

from .axioms import (
    AXIOMS,
    BEST_CLASS_AXIOMS,
    BLOCK_COUNTERS,
    PREMISE_AXIOMS,
    VIOLATED,
    Status,
    Witness,
    _agreement_classes,
    forced_mask,
    judge_slide,
    lookup_axiom,
    premise_witness,
    rag_premises,
    rdf_premises,
    rjad_premises,
    selection_mask,
)
from .core import (
    CoalitionalRanking, Universe, concomitant_set, mask_members, members_mask
)
from .enumeration import EXHAUSTIVE, RankingStream, _stream_tops, fubini, orbit_indices
from .errors import UniverseTooLargeError
from .solutions import ANONYMOUS_RULES, BEST_CLASS_RULES, RULES, best_class_reduction, lookup_rule
from .transforms import SlideMove, apply_slide

_CHUNK = 2048
# Sampled sweeps and campaigns stop at n = 8. The slowest cell, les x SI,
# took about 0.5, 4 and 24 s per sampled ranking at n = 6, 7 and 8 on a
# 2.1 GHz Xeon with Python 3.11.7, about six times more per individual.
MAX_CHECKED_N = 8
THEOREM_AXIOMS = ("STAG", "SI", "DMON")


@cache
def report_fields(cls) -> dict:
    """JSON key -> type hint of a report dataclass.

    The keys are its fields plus the properties its ``DERIVED`` tuple
    names.
    """
    hints = get_type_hints(cls)
    keys = {f.name: hints[f.name] for f in fields(cls)}
    for name in getattr(cls, "DERIVED", ()):
        keys[name] = get_type_hints(getattr(cls, name).fget)["return"]
    return keys


@dataclass(frozen=True)
class SweepReport:
    """Aggregate outcome of one rule x axiom x stream sweep.

    ``violations`` counts rankings whose verdict was violated (each
    contributes exactly one witness before capping); ``witnesses`` keeps
    the first ``witness_cap`` of them in stream order.
    """

    DERIVED: ClassVar = ("verdict",)

    rule: str
    axiom: str
    n: int
    mode: object
    rankings_checked: int
    premises_found: int
    violations: int
    witness_cap: int
    witnesses: tuple[Witness, ...]

    @property
    def verdict(self) -> Status:
        if self.violations:
            return "violated"
        return "satisfied" if self.premises_found else "inapplicable"


def _best_class_reader(fn, reduction):
    """A best-class rule's selection by best-class bitset, as an id bitmask.

    ``fn`` runs once per best class read, on ``reduction(best)``.
    """
    return cache(lambda best: selection_mask(fn, reduction(best)))


def _sweep_chunk(cells, tally, cap, tables, stop, stream, chunk):
    """Ranking count and per-cell [premises, violations, witnesses] of one chunk, and its ``tally`` totals.

    The cells are compiled once per chunk into a plan: premise-only cells
    grouped by lister, each as (result, rule slot, contains flag, axiom).
    Each lister runs at most once per ranking, whichever cells and
    ``tally`` ask for its instances, a lister of
    ``axioms.BEST_CLASS_AXIOMS`` at most once per best class in the
    chunk, and RAG, WRAG and RJAD share one set of agreement levels per
    ranking. A listing's instances all force one id bitmask, so a cell is
    one inline bit test, and a lister that lists nothing skips all its
    cells. A rule's selection, an id bitmask kept in its slot, is read at
    most once per ranking, when a cell needs it, and all its cells share
    it: by best class for a rule of ``solutions.BEST_CLASS_RULES``
    (``top``, one rule call per new best class of the chunk, on a
    reduction its rules share; see :func:`_best_class_reader`), from its
    stream-indexed table (see :func:`_tables`), or from one rule call. A
    violated cell builds a witness only while under ``cap``. ``SI`` and
    ``DMON`` cells run their checkers on it, the ranking's walk and the
    slot's top or table.
    With ``stop`` set, the chunk ends after the first ranking on which a
    cell is violated, and the count includes that ranking. On a stream
    with ``orbits``, counts and tallies are weighted by orbit size, and
    the witnesses are those of the first violating orbits' first rankings.
    """
    universe = stream.universe
    rules = list(dict.fromkeys(rule for rule, _ in cells))
    reduction = cache(partial(best_class_reduction, universe))  # one per best class read
    slots = []  # per rule slot: (function, top, stream-indexed table)
    for rule in rules:
        fn = lookup_rule(rule)
        if rule in BEST_CLASS_RULES:  # a run per new best class, kept for the chunk
            slots.append((fn, _best_class_reader(fn, reduction), None))
        else:
            slots.append((fn, None, tables.get(rule)))
    results = [[0, 0, []] for _ in cells]
    plan, checks = {}, []  # cells by premise lister; SI and DMON cells
    for (rule, axiom), result in zip(cells, results):
        slot = rules.index(rule)
        if axiom in PREMISE_AXIOMS:
            lister, _, contains, _ = PREMISE_AXIOMS[axiom]
            plan.setdefault(lister, []).append((result, slot, contains, axiom))
        else:
            checks.append((result, AXIOMS[axiom], slot, *slots[slot]))
    by_best = {PREMISE_AXIOMS[axiom][0] for axiom in BEST_CLASS_AXIOMS}
    levelled = {PREMISE_AXIOMS[axiom][0] for axiom in ("RAG", "RJAD")}  # take agreement levels
    best_listed = {}  # best-class bitset -> {lister: (instances, forced mask)}
    tallies = []
    count, stopped = 0, False

    def listing(lister):  # (instances, forced mask) of the current ranking
        memo = shared if lister in by_best else listed
        if lister not in memo:
            if lister in levelled and _agreement_classes not in listed:  # kept beside the listings
                listed[_agreement_classes] = _agreement_classes(ranking)
            found = lister(ranking, listed[_agreement_classes]) if lister in levelled else lister(ranking)
            memo[lister] = found, found and forced_mask(found)
        return memo[lister]

    def select(slot):  # the slot's rule's selection on the current ranking, read once
        sel = selected[slot]
        if sel is None:
            fn, top, table = slots[slot]
            sel = selected[slot] = (top(bits[0]) if top else table[before[-1]] if table
                                    else selection_mask(fn, ranking))
        return sel

    def violated(result, witness):  # one more violating ranking for the cell, weighted
        nonlocal stopped
        result[1] += weight
        stopped = stop
        if len(result[2]) < cap:
            result[2].append(witness())

    for ranking, remaining, before, weight in stream.walk(chunk):
        count += weight
        bits, walk = ranking.bits, (remaining, before)
        listed, selected, shared = {}, [None] * len(rules), best_listed.setdefault(bits[0], {})
        for lister, group in plan.items():
            found, forced = listing(lister)
            if not found:
                continue
            for result, slot, contains, axiom in group:
                sel = selected[slot]
                if sel is None:  # a hit skips the call: this loop runs per cell and ranking
                    sel = select(slot)
                result[0] += len(found) * weight
                if forced & ~sel if contains else forced != sel:
                    violated(result, partial(premise_witness, axiom, ranking, found, forced, sel))
        for result, check, slot, fn, top, table in checks:
            verdict = check(ranking, fn, select(slot), walk, top, table)
            result[0] += verdict.premises_checked * weight
            if verdict.status == VIOLATED:
                violated(result, lambda: verdict.witness)
        if tally is not None:
            tallies.append([tallied * weight for tallied in tally(listing)])
        if stopped:
            break
    return count, results, tuple(map(sum, zip(*tallies)))


def _run_chunks(universe, mode, worker, jobs, orbits=False):
    """Yield ``worker(stream, chunk)`` for each stream chunk, inline or from a fork pool.

    Both ways yield the results in stream order. A chunk is a range of
    _CHUNK stream indices, in either mode; the worker walks it itself
    with ``stream.walk``, so a sampled worker draws its own rankings.
    Closing the generator early cancels the chunks no worker has started
    and waits for the others. Terminating the workers instead can kill
    one that holds the lock of the result queue, and the pool then hangs.
    A sampled stream stops at MAX_CHECKED_N individuals; the exhaustive
    stream refuses more than MAX_EXHAUSTIVE_N itself, before any chunk.
    With ``orbits``, an exhaustive worker walks its chunk's orbits.
    """
    if mode != EXHAUSTIVE and universe.n > MAX_CHECKED_N:
        raise UniverseTooLargeError(
            f"sampled sweeps and campaigns support n <= {MAX_CHECKED_N}, got n={universe.n}"
        )
    stream, size = RankingStream(universe, mode, orbits), _CHUNK
    total = len(stream)
    chunks = (range(start, min(start + size, total)) for start in range(0, total, size))
    work = partial(worker, stream)
    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor  # imported on use: about 10 ms
        from multiprocessing import get_context

        with ProcessPoolExecutor(jobs, get_context("fork")) as pool:
            yield from pool.map(work, chunks)
    else:
        yield from map(work, chunks)


def _selection_chunk(rules, stop, stream, chunk):
    """Each named rule's selections on a chunk, as id-bitmask bytes, and where they first differ.

    Returns (selections, ranking): one bytes value per rule, in stream
    order. With ``stop`` set, the chunk ends at the first ranking where
    the first and last rules select apart, and ``ranking`` is that
    ranking; otherwise, or when they never differ, it is None.
    """
    fns = [lookup_rule(rule) for rule in rules]
    selections = [bytearray() for _ in rules]
    first, last = selections[0], selections[-1]
    for ranking, *_ in stream.walk(chunk):
        for fn, out in zip(fns, selections):
            out.append(selection_mask(fn, ranking))
        if stop and first[-1] != last[-1]:
            return [bytes(out) for out in selections], ranking
    return [bytes(out) for out in selections], None


def _tables(cells, universe, mode, jobs):
    """{rule: its selection table} for each undeclared rule with an ``SI`` or ``DMON`` cell, from one exhaustive pass.

    A rule's table is a bytes value holding its selection, as an id
    bitmask, on the ranking of each stream index; the exhaustive stream
    refuses more than MAX_EXHAUSTIVE_N individuals before any rule call.
    A rule of ``solutions.BEST_CLASS_RULES`` has no table: its chunks
    read it by best class. A sampled pass has no tables.
    """
    transformed = (rule for rule, axiom in cells
                   if axiom not in PREMISE_AXIOMS and rule not in BEST_CLASS_RULES)
    rules = list(dict.fromkeys(transformed if mode == EXHAUSTIVE else ()))
    scan = partial(_selection_chunk, rules, False)
    chunks = [parts for parts, _ in _run_chunks(universe, EXHAUSTIVE, scan, jobs)] if rules else []
    return {rule: b"".join(part) for rule, part in zip(rules, zip(*chunks))}


def _count_blocks(cells, stream, cap):
    """Count best-class cells per best class into their results; return the rankings covered.

    ``cells`` holds ((rule, axiom), result) pairs, each result the pass's
    [premises, violations, witnesses] list of a cell that pairs a rule of
    ``solutions.BEST_CLASS_RULES`` with an axiom of ``axioms.BLOCK_COUNTERS``.
    A block is the fubini(|rest|) consecutive indices of the exhaustive
    ``stream`` whose rankings share a best class
    (:func:`~millrank.enumeration._stream_tops`); each cell's counter takes
    the block's reduction and reads the rule by best class, so the pass
    builds one reduction and runs each rule once per best class, and walks
    no ranking. A cell's witnesses come from walking its violating blocks
    in stream order through :func:`_sweep_chunk` until ``cap`` are held;
    of a block that violates throughout, only its first rankings are walked.
    """
    reduction = cache(partial(best_class_reduction, stream.universe))
    tops = {rule: _best_class_reader(lookup_rule(rule), reduction) for (rule, _), _ in cells}
    covered = 0
    for best, _, offset, size in _stream_tops(stream.universe.n)[-1]:
        covered += size
        for (rule, axiom), result in cells:
            premises, violations = BLOCK_COUNTERS[axiom](reduction(best), tops[rule])
            result[0] += premises
            result[1] += violations
            need = cap - len(result[2])
            if violations and need > 0:
                chunk = range(offset, offset + (min(need, size) if violations == size else size))
                result[2] += _sweep_chunk([(rule, axiom)], None, need, {}, False, stream, chunk)[1][0][2]
    return covered


def _check_coverage(checked, universe):
    """Fail an exhaustive pass that did not count every ranking of the universe once."""
    if checked != (expected := fubini(universe.full_mask)):
        raise AssertionError(f"exhaustive sweep covered {checked} of {expected} rankings")


def _sweep_pass(cells, universe, mode, jobs, witness_cap, tally=None, stop=False):
    """Sweep reports of every (rule, axiom) cell from one pass over the stream.

    ``tally(listing)``, when given, runs on every ranking with its
    memoized premise listing, ``listing(lister)`` = (instances, forced
    mask), and returns a tuple of counts; the second return value is
    their sum over the stream (empty without ``tally``).
    The pass builds its own selection tables (see :func:`_sweep_chunk`)
    with :func:`_tables`, before any walk. The
    tables travel to the workers with each chunk. With ``stop`` set,
    each chunk ends after its first violating ranking, and the pass
    after the first chunk with a violation, so ``rankings_checked``
    counts up to that ranking. An exhaustive, unstopped pass counts the
    cells of best-class rules and axioms per best class
    (:func:`_count_blocks`) and walks the others, and any ``tally``, over
    the stream; with nothing left to walk it starts no walk and no pool.
    A pass that reaches the end of an exhaustive stream must have
    covered every ranking. A walk of declared rules only, exhaustive and
    unstopped, walks orbits (see the module docstring); ``tally`` must
    then count alike on every relabeling.
    """
    if witness_cap < 0:
        raise ValueError(f"witness_cap must be at least 0, got {witness_cap}")
    cells = [(rule, axiom.upper()) for rule, axiom in cells]
    for rule, axiom in cells:
        lookup_rule(rule)
        lookup_axiom(axiom)
    tables = _tables(cells, universe, mode, jobs)
    whole = mode == EXHAUSTIVE and not stop  # every ranking, to the end
    results = [[0, 0, []] for _ in cells]  # per cell: premises, violations, witnesses
    blocked, walked = [], []
    for (rule, axiom), result in zip(cells, results):
        by_block = whole and rule in BEST_CLASS_RULES and axiom in BLOCK_COUNTERS
        (blocked if by_block else walked).append(((rule, axiom), result))
    checked, tallies = 0, []
    if blocked:  # the stream refuses more than MAX_EXHAUSTIVE_N individuals first
        checked = _count_blocks(blocked, RankingStream(universe), witness_cap)
        _check_coverage(checked, universe)
    if walked or tally:
        # Rules that commute with relabeling leave every count alike across an orbit.
        orbits = whole and all(rule in ANONYMOUS_RULES for (rule, _), _ in walked)
        checked = 0
        worker = partial(_sweep_chunk, [cell for cell, _ in walked], tally, witness_cap, tables, stop)
        with closing(_run_chunks(universe, mode, worker, jobs, orbits)) as chunks:
            for count, found, counts in chunks:
                checked += count
                tallies += [counts] if counts else []  # a chunk may hold no orbit's first ranking
                for (_, result), (premises, violations, witnesses) in zip(walked, found):
                    result[0] += premises
                    result[1] += violations
                    result[2] = (result[2] + witnesses)[:witness_cap]
                if stop and any(result[1] for _, result in walked):
                    break
            else:
                if mode == EXHAUSTIVE:
                    _check_coverage(checked, universe)
        if orbits:
            # An orbit's rankings violate alike, so the first cap violating rankings lie in the
            # orbits of the first cap violating orbit minima, whose witnesses the walk kept. Each
            # is judged on its own ranking: relabeled, its premises scan in another order.
            stream = RankingStream(universe)
            for cell, result in walked:
                held = {i for witness in result[2] for i in orbit_indices(universe.n, witness.ranking.bits)}
                result[2] = [_sweep_chunk([cell], None, 1, tables, False, stream, range(i, i + 1))[1][0][2][0]
                             for i in sorted(held)[:witness_cap]]
    reports = tuple(
        SweepReport(
            rule=rule,
            axiom=axiom,
            n=universe.n,
            mode=mode,
            rankings_checked=checked,
            premises_found=premises,
            violations=violations,
            witness_cap=witness_cap,
            witnesses=tuple(witnesses),
        )
        for (rule, axiom), (premises, violations, witnesses) in zip(cells, results)
    )
    return reports, tuple(map(sum, zip(*tallies)))


def sweep_cells(
    cells,
    n: int,
    mode=EXHAUSTIVE,
    *,
    universe: Universe | None = None,
    jobs: int = 1,
    witness_cap: int = 10,
) -> tuple[SweepReport, ...]:
    """Check several (rule, axiom) cells in one pass over a ranking stream.

    Returns one report per cell, in the order of ``cells``, each equal
    to what :func:`sweep` reports for that cell alone. Exhaustive mode
    covers every ranking of the universe (guarded at n <= 3); sample
    mode draws ``mode.count`` uniform rankings from ``mode.seed``
    (guarded at n <= 8). The reports are identical for any ``jobs``
    value.
    """
    return _sweep_pass(cells, universe or Universe(n), mode, jobs, witness_cap)[0]


def sweep(
    rule: str,
    axiom: str,
    n: int,
    mode=EXHAUSTIVE,
    *,
    universe: Universe | None = None,
    jobs: int = 1,
    witness_cap: int = 10,
) -> SweepReport:
    """Check one axiom against one rule over a whole ranking stream."""
    (report,) = sweep_cells(
        [(rule, axiom)], n, mode, universe=universe, jobs=jobs, witness_cap=witness_cap
    )
    return report


def check_single(rule: str, axiom: str, ranking: CoalitionalRanking):
    """Run one axiom checker on one ranking, by identifiers."""
    return lookup_axiom(axiom)(ranking, lookup_rule(rule))


def _first_violation(rule, axioms, universe, mode, jobs=1):
    """First (stream index, witness) where the rule violates one of the axioms, or None.

    A :func:`_sweep_pass` of one cell per axiom with witness cap 1,
    stopped at the first violating ranking, so it reads selections as
    sweeps do; on that ranking the earliest violated axiom wins.
    """
    cells = [(rule, axiom) for axiom in axioms]
    reports = _sweep_pass(cells, universe, mode, jobs, 1, stop=True)[0]
    return next(((r.rankings_checked - 1, r.witnesses[0]) for r in reports if r.violations), None)


def find_violation(rule: str, axiom: str, n: int, mode=EXHAUSTIVE, *, universe=None):
    """First (stream index, witness) whose checker reports a violation."""
    return _first_violation(rule, (axiom,), universe or Universe(n), mode)


@dataclass(frozen=True)
class Difference:
    """First ranking of a stream where a rule and plurality select apart."""

    ranking: CoalitionalRanking
    selection: tuple[int, ...]
    plurality_selection: tuple[int, ...]


@dataclass(frozen=True)
class Theorem1Report:
    """Outcome of probing one rule against the characterization of plurality.

    An equivalent rule carries the STAG, SI and DMON sweeps; a differing
    one carries the first difference and the first axiom violation.
    """

    DERIVED: ClassVar = ("equivalent",)

    rule: str
    n: int
    mode: object
    rankings_compared: int
    difference: Difference | None
    witness: Witness | None
    sweeps: tuple[SweepReport, ...] | None

    @property
    def equivalent(self) -> bool:
        return self.difference is None


def theorem1_probe(
    rule: str,
    n: int = 3,
    mode=EXHAUSTIVE,
    *,
    universe: Universe | None = None,
    jobs: int = 1,
    witness_cap: int = 10,
) -> Theorem1Report:
    """Probe a rule against the characterization by the three axioms.

    Either certifies that the rule agrees with plurality on every
    ranking of the stream (and then sweeps STAG, SI and DMON in full as
    supporting evidence), or returns the first ranking where the outputs
    differ together with the first violation of one of the three axioms.
    The scan checks STAG, then SI, then DMON on each ranking in turn.
    """
    lookup_rule(rule)
    universe = universe or Universe(n)
    compared, difference = 0, None
    if rule != "plurality":  # plurality never differs from itself
        scan = partial(_selection_chunk, [rule, "plurality"], True)
        with closing(_run_chunks(universe, mode, scan, jobs)) as chunks:
            for selections, ranking in chunks:
                compared += len(selections[0])
                if ranking is not None:
                    masks = (mask_members(s[-1], universe.n) for s in selections)
                    difference = Difference(ranking, *masks)
                    break
    if difference is None:  # the rule agrees with plurality on every ranking the sweeps check
        cells = [(rule, axiom) for axiom in THEOREM_AXIOMS]
        sweeps = _sweep_pass(cells, universe, mode, jobs, witness_cap)[0]
        return Theorem1Report(rule, n, mode, sweeps[0].rankings_checked, None, None, sweeps)
    found = _first_violation(rule, THEOREM_AXIOMS, universe, mode, jobs)
    return Theorem1Report(rule, n, mode, compared, difference, found and found[1], None)


def _relative_lemma_counts(listing):
    """RDF and RJAD premises of one ranking, and how many are not RAG premises."""
    rdf, rjad = listing(rdf_premises)[0], listing(rjad_premises)[0]
    counterexamples = 0
    if rdf or rjad:
        agreement = set(listing(rag_premises)[0])
        counterexamples = sum(premise not in agreement for premise in rdf + rjad)
    return len(rdf), len(rjad), counterexamples


def relative_construction(x: int, y: int, universe: Universe) -> CoalitionalRanking:
    """Four-level ranking splitting coalitions by membership of x and y.

    Best to worst: containing both, containing only x, containing only y,
    containing neither. Needs n >= 3 so the last level is nonempty.
    """
    n = universe.n
    if n < 3:
        raise ValueError("the construction needs at least three individuals")
    if x == y:
        raise ValueError("x and y must be distinct")
    bx, by = 1 << x, 1 << y
    buckets = ([], [], [], [])
    for mask in range(1, universe.full_mask + 1):
        has_x, has_y = bool(mask & bx), bool(mask & by)
        buckets[0 if has_x and has_y else 1 if has_x else 2 if has_y else 3].append(mask)
    return CoalitionalRanking._trusted(universe, tuple(tuple(b) for b in buckets))


@dataclass(frozen=True)
class Construction:
    """The four-level ranking of one ordered pair (x, y) and what it forces."""

    x: int
    y: int
    ranking: CoalitionalRanking
    rdf_premise_holds: bool
    rdf_forces: tuple[int, ...] | None
    concomitant: tuple[int, ...]
    jointly_unsatisfiable: bool


@dataclass(frozen=True)
class RelativeLemma:
    """Tallies of the exhaustive check that RDF and RJAD premises induce RAG."""

    rankings_checked: int
    rdf_premises: int
    rjad_premises: int
    counterexamples: int


@dataclass(frozen=True)
class Prop1Report:
    """Evidence that the relative readings cannot be held together."""

    DERIVED: ClassVar = ("incompatibility_certified",)

    n: int
    constructions: tuple[Construction, ...]
    lemma: RelativeLemma | None
    wrag_sweep: SweepReport | None
    cv_sweep: SweepReport | None

    @property
    def incompatibility_certified(self) -> bool:
        return all(c.jointly_unsatisfiable for c in self.constructions)


def prop1_report(n: int = 3, *, jobs: int = 1, witness_cap: int = 10) -> Prop1Report:
    """Evidence that the relative readings cannot be held together.

    Three parts: (a) for every ordered pair (x, y), the four-level
    construction makes the relative-difference premise force {x} while y
    must also be selected by concomitant variation, so no rule can meet
    both; (b) every relative-difference or relative-joint premise across
    all rankings induces the relative-agreement premise with the same
    conclusion (zero counterexamples expected); (c) the constant rule
    passes weak relative agreement and concomitant variation in full.
    Parts (b) and (c) run exhaustively and need n = 3. Part (a) prints
    a ranking of all 2**n - 1 coalitions per ordered pair, so n stops
    at MAX_CHECKED_N.
    """
    if n < 3:
        raise ValueError("prop1_report needs n >= 3")
    if n > MAX_CHECKED_N:
        raise UniverseTooLargeError(f"prop1 supports n <= {MAX_CHECKED_N}, got n={n}")
    universe = Universe(n)
    constructions = []
    for x, y in permutations(range(n), 2):
        ranking = relative_construction(x, y, universe)
        premises = rdf_premises(ranking)
        forced = (1 << y, x) in premises
        unique = forced and all(px == x for _, px in premises)
        c_set = concomitant_set(ranking)
        constructions.append(
            Construction(x, y, ranking, forced, (x,) if unique else None, c_set, unique and y in c_set)
        )
    if n != 3:
        return Prop1Report(n, tuple(constructions), None, None, None)
    cells = [("const_x", "WRAG"), ("const_x", "CV")]
    (wrag, cv), counts = _sweep_pass(
        cells, universe, EXHAUSTIVE, jobs, witness_cap, _relative_lemma_counts
    )
    lemma = RelativeLemma(wrag.rankings_checked, *counts)
    return Prop1Report(n, tuple(constructions), lemma, wrag, cv)


MATRIX_RULES = ("plurality", "les", "obi")
MATRIX_AXIOMS = ("STAG", "TAG", "TDF", "TJAD", "CV")

# Satisfaction expectations for the three classic rules. The obi/CV cell
# carries two conflicting textual readings; the empirical verdict is
# reported beside both and flagged against the "violated" reading.
MATRIX_EXPECTED = {
    ("plurality", "STAG"): "satisfied",
    ("plurality", "TAG"): "satisfied",
    ("plurality", "TDF"): "satisfied",
    ("plurality", "TJAD"): "satisfied",
    ("plurality", "CV"): "satisfied",
    ("les", "STAG"): "violated",
    ("les", "TAG"): "satisfied",
    ("les", "TDF"): "satisfied",
    ("les", "TJAD"): "satisfied",
    ("les", "CV"): "violated",
    ("obi", "STAG"): "violated",
    ("obi", "TAG"): "violated",
    ("obi", "TDF"): "satisfied",
    ("obi", "TJAD"): "satisfied",
}
OBI_CV_STATEMENT = "violated"
OBI_CV_PROOF = "satisfied"


@dataclass(frozen=True)
class MatrixCell:
    rule: str
    axiom: str
    expected: Status
    expected_alt: Status | None
    verdict: Status
    confirmed: bool
    discrepancy: bool
    sweep: SweepReport


@dataclass(frozen=True)
class MatrixReport:
    n: int
    mode: object
    rules: tuple[str, ...]
    axioms: tuple[str, ...]
    cells: tuple[MatrixCell, ...]

    @property
    def discrepancies(self) -> tuple[MatrixCell, ...]:
        return tuple(c for c in self.cells if c.discrepancy)


def prop3_matrix(
    n: int = 3, mode=EXHAUSTIVE, *, jobs: int = 1, witness_cap: int = 10
) -> MatrixReport:
    """Fill the satisfaction matrix for the three classic rules.

    Exhaustive at n = 3; for larger universes pass a sample mode. Each
    cell records the expected status, the sweep evidence and a
    discrepancy flag (set only when the evidence is conclusive: any
    violation, or an exhaustive clean pass where one was expected).
    """
    grid = [(rule, axiom) for rule in MATRIX_RULES for axiom in MATRIX_AXIOMS]
    cells = []
    for report in sweep_cells(grid, n, mode, jobs=jobs, witness_cap=witness_cap):
        rule, axiom = report.rule, report.axiom
        if (rule, axiom) == ("obi", "CV"):
            expected, expected_alt = OBI_CV_PROOF, OBI_CV_STATEMENT
        else:
            expected, expected_alt = MATRIX_EXPECTED[(rule, axiom)], None
        verdict = report.verdict
        confirmed = mode == EXHAUSTIVE or verdict == "violated"
        discrepancy = confirmed and verdict != expected
        cells.append(
            MatrixCell(rule, axiom, expected, expected_alt, verdict, confirmed, discrepancy, report)
        )
    return MatrixReport(n, mode, MATRIX_RULES, MATRIX_AXIOMS, tuple(cells))


def split_plurality_slide_instance(n: int = 4, universe: Universe | None = None):
    """The pinned four-individual slide separating split plurality from SI.

    Best class {1}, {2}, {2,3}, {1,4} (ids 0-based), gamma = {{1,4}, {2}}
    moved one class down, watched pair (0, 1). Returns the base ranking,
    the move and the slid ranking.
    """
    if n < 4:
        raise ValueError("the slide instance needs at least four individuals")
    universe = universe or Universe(n)
    top = (
        members_mask([0], universe),
        members_mask([1], universe),
        members_mask([1, 2], universe),
        members_mask([0, 3], universe),
    )
    rest = tuple(m for m in range(1, universe.full_mask + 1) if m not in top)
    ranking = CoalitionalRanking._trusted(universe, (tuple(sorted(top)), rest))
    gamma = tuple(sorted((members_mask([0, 3], universe), members_mask([1], universe))))
    move = SlideMove(0, 1, gamma)
    return ranking, move, apply_slide(ranking, move)


def les_stag_instance(universe: Universe | None = None) -> CoalitionalRanking:
    """Two-level instance where lexicographic excellence breaks agreement.

    Best class {1,2}, then {1}, then everything else (ids 0-based over
    three individuals unless a larger universe is given).
    """
    universe = universe or Universe(3)
    top = members_mask([0, 1], universe)
    second = members_mask([0], universe)
    rest = tuple(m for m in range(1, universe.full_mask + 1) if m not in (top, second))
    return CoalitionalRanking._trusted(universe, ((top,), (second,), rest))


@dataclass(frozen=True)
class Claim:
    """One expected verdict of a rule on an axiom, with its evidence."""

    DERIVED: ClassVar = ("discrepancy",)

    rule: str
    axiom: str
    expected: Status
    verdict: Status
    evidence_kind: str
    sweep: SweepReport | None
    witness: Witness | None

    @property
    def discrepancy(self) -> bool:
        return self.verdict != self.expected


@dataclass(frozen=True)
class IndependenceReport:
    """Evidence that none of the three characterizing axioms is redundant."""

    DERIVED: ClassVar = ("discrepancy_count",)

    n: int
    claims: tuple[Claim, ...]

    @property
    def discrepancies(self) -> tuple[Claim, ...]:
        return tuple(c for c in self.claims if c.discrepancy)

    @property
    def discrepancy_count(self) -> int:
        return len(self.discrepancies)


# The (rule, axiom) cells each rule is expected to keep, swept exhaustively at n = 3.
INDEPENDENCE_SWEEPS = (
    ("f_star", "STAG"),
    ("f_star", "SI"),
    ("split_plurality", "STAG"),
    ("split_plurality", "DMON"),
    ("les", "SI"),
    ("les", "DMON"),
)


def independence_report(
    n: int = 4, *, jobs: int = 1, witness_cap: int = 10
) -> IndependenceReport:
    """Evidence that none of the three characterizing axioms is redundant.

    For each alternative rule, sweeps the two axioms it is expected to
    keep (exhaustively at n = 3) and exhibits a violation of the third:
    for f_star against DMON, the first violating ranking of an f_star x
    DMON sweep; for split plurality against SI, the pinned
    four-individual slide; for les against STAG, the pinned two-level
    instance. All seven cells share one exhaustive pass. Each claim
    carries a discrepancy flag where the evidence contradicts the
    expectation. The slide instance prints a ranking of all 2**n - 1
    coalitions, so n stops at MAX_CHECKED_N.
    """
    if n < 4:
        raise ValueError("independence_report needs n >= 4 for the slide instance")
    if n > MAX_CHECKED_N:
        raise UniverseTooLargeError(f"independence supports n <= {MAX_CHECKED_N}, got n={n}")
    claims = []
    # The f_star x DMON cell keeps at least its first witness; a negative cap reaches the pass's check.
    cells = (*INDEPENDENCE_SWEEPS, ("f_star", "DMON"))
    *sweeps, search = _sweep_pass(cells, Universe(3), EXHAUSTIVE, jobs, witness_cap or 1)[0]
    trimmed = (replace(r, witness_cap=witness_cap, witnesses=r.witnesses[:witness_cap]) for r in sweeps)
    reports = dict(zip(INDEPENDENCE_SWEEPS, trimmed))

    def add_claim(rule, axiom, expected, evidence_kind, verdict, witness, report=None):
        claims.append(Claim(rule, axiom, expected, verdict, evidence_kind, report, witness))

    def add_sweep_claim(rule, axiom):
        report = reports[rule, axiom]
        witness = report.witnesses[0] if report.witnesses else None
        add_claim(rule, axiom, "satisfied", "sweep", report.verdict, witness, report)

    add_sweep_claim("f_star", "STAG")
    add_sweep_claim("f_star", "SI")
    verdict, witness = ("violated", search.witnesses[0]) if search.violations else ("satisfied", None)
    add_claim("f_star", "DMON", "violated", "witness_search", verdict, witness)

    add_sweep_claim("split_plurality", "STAG")
    add_sweep_claim("split_plurality", "DMON")
    base, move, slid = split_plurality_slide_instance(n)
    rule_fn = RULES["split_plurality"]
    witness = judge_slide(base, move, slid, set(rule_fn(base)), set(rule_fn(slid)), 0, 1)
    verdict = "violated" if witness else "satisfied"
    add_claim("split_plurality", "SI", "violated", "instance", verdict, witness)

    add_sweep_claim("les", "SI")
    add_sweep_claim("les", "DMON")
    verdict = check_single("les", "STAG", les_stag_instance())
    add_claim("les", "STAG", "violated", "instance", verdict.status, verdict.witness)

    return IndependenceReport(n, tuple(claims))
