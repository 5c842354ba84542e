"""Verification campaigns: axiom sweeps and the standing result reports.

A sweep judges one or more (rule, axiom) cells on every ranking of a
stream, in one pass, and aggregates each cell's verdicts. Per ranking it
builds the ranking once, runs each premise lister once for the cells of
all its axioms, and reads each rule's selection at most once, for all
its cells; a best-class rule runs once per best class of a pass. The
``SI`` and ``DMON`` cells run their checkers on that selection and the
ranking's walk. An exhaustive pass with ``SI`` or ``DMON`` cells of a
rule not in ``solutions.BEST_CLASS_RULES`` first builds that rule's
selection table and hands it to every chunk, whose cells of the rule
read its selections there. Nothing is kept between
passes. Campaign functions bundle one such pass and pinned instances
into the characterization probe, the incompatibility report, the
satisfaction matrix and the independence report, whose f_star x DMON
witness is that cell's first; the witness search of the probe is such a
pass, stopped at the first violating ranking.

An unstopped exhaustive pass counts some cells at one root loop over
best classes, and walks no ranking for them: the rankings that share a
best class are consecutive in the stream. A cell that pairs a rule of
``solutions.BEST_CLASS_RULES`` with an axiom of ``axioms.BLOCK_COUNTERS``
(TAG, STAG, TDF, TJAD, SI, DMON) is counted once per best class by the
axiom's block counter, from the best class's reduction. A cell that
pairs any other premise-only axiom with such a rule, or any premise-only
axiom with a rule of ``solutions.RULE_STEPS``, is counted over the class
tree below each best class, by the step forms of its rule and lister
(``solutions.RULE_STEPS``, ``axioms.PREMISE_STEPS``) on a memo that lives
as long as the pass. Only the rankings of a counted cell's first
witnesses are walked, and a pass left with no other cell walks nothing
and starts no pool. Its other cells, when all their rules are in
``solutions.ANONYMOUS_RULES``, judge one ranking per relabeling orbit,
weighted by the orbit's size: no axiom names an individual, so an
orbit's rankings judge alike. The first violating rankings lie in the
orbits whose witnesses the walk keeps, and each is judged on its own
ranking, so reports do not change. Tables, sampled passes and stopped
searches walk every ranking, except a stopped search of best-class
rules and block counters only, which walks the first violating block.

All outputs are deterministic for fixed inputs. Chunks of stream
indices may be walked by a pool of worker processes; partial counts
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
from itertools import islice, permutations
from operator import add
from typing import ClassVar, get_type_hints

from .axioms import (
    AXIOMS,
    BLOCK_COUNTERS,
    PREMISE_AXIOMS,
    PREMISE_STEPS,
    VIOLATED,
    Status,
    Witness,
    fails,
    forced_mask,
    judge_slide,
    lookup_axiom,
    premise_witness,
    rdf_premises,  # rdf_premises and rjad_premises are not called here: perfbench/tracer.py
    rjad_premises,  # wraps them in this module too
    selection_mask,
)
from .core import (
    CoalitionalRanking, Universe, concomitant_set, mask_members, members_mask
)
from .enumeration import (  # MAX_SAMPLE_COUNT is not used here: cli reads it from this module
    EXHAUSTIVE, MAX_SAMPLE_COUNT, RankingStream, _stream_tops, fubini, orbit_indices
)
from .errors import UniverseTooLargeError
from .solutions import ANONYMOUS_RULES, BEST_CLASS_RULES, RULE_STEPS, RULES, best_class_reduction, lookup_rule
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


def _sweep_chunk(cells, cap, reads, stop, stream, chunk):
    """Ranking count and per-cell [premises, violations, witnesses] of one chunk.

    The cells are compiled once per chunk into a plan: premise-only cells
    grouped by lister, each as (result, rule slot, contains flag, axiom).
    Each lister runs once per walked ranking, whichever cells ask for its
    instances. A listing's instances all force one id bitmask, which each
    of its cells tests against its rule's selection with
    :func:`~millrank.axioms.fails`, and a lister that lists nothing skips
    all its cells. A rule's selection, an id bitmask kept in
    its slot, is read at most once per ranking, when a cell needs it, and
    all its cells share it: by best class for a rule of
    ``solutions.BEST_CLASS_RULES`` (``top``, the pass's reader in
    ``reads``, or else the chunk's own, one rule call per new best class
    on a reduction its rules share; see :func:`_best_class_reader`), from
    its stream-indexed table in ``reads`` (see :func:`_tables`), or from
    one rule call. A violated cell builds a witness only while under
    ``cap``. ``SI`` and ``DMON`` cells run their checkers on it, the
    ranking's walk and the slot's top or table.
    With ``stop`` set, the chunk ends after the first ranking on which a
    cell is violated, and the count includes that ranking. On a stream
    with ``orbits``, counts are weighted by orbit size, and the witnesses
    are those of the first violating orbits' first rankings.
    """
    universe = stream.universe
    rules = list(dict.fromkeys(rule for rule, _ in cells))
    reduction = cache(partial(best_class_reduction, universe))  # for the readers the pass did not share
    slots = []  # per rule slot: (function, top, stream-indexed table)
    for rule in rules:
        fn, read = lookup_rule(rule), reads.get(rule)
        if rule in BEST_CLASS_RULES:  # a run per new best class
            slots.append((fn, read or _best_class_reader(fn, reduction), None))
        else:
            slots.append((fn, None, read))
    results = [[0, 0, []] for _ in cells]
    plan, checks = {}, []  # cells by premise lister; SI and DMON cells
    for (rule, axiom), result in zip(cells, results):
        slot = rules.index(rule)
        if axiom in PREMISE_AXIOMS:
            lister, _, contains, _ = PREMISE_AXIOMS[axiom]
            plan.setdefault(lister, []).append((result, slot, contains, axiom))
        else:
            checks.append((result, AXIOMS[axiom], slot, *slots[slot]))
    count, stopped = 0, False

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
        selected = [None] * len(rules)
        for lister, group in plan.items():
            found = lister(ranking)
            if not found:
                continue
            forced = forced_mask(found)
            for result, slot, contains, axiom in group:
                result[0] += len(found) * weight
                if fails(forced, sel := select(slot), contains):
                    violated(result, partial(premise_witness, axiom, ranking, found, forced, sel))
        for result, check, slot, fn, top, table in checks:
            verdict = check(ranking, fn, select(slot), walk, top, table)
            result[0] += verdict.premises_checked * weight
            if verdict.status == VIOLATED:
                violated(result, lambda: verdict.witness)
        if stopped:
            break
    return count, results


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


class _ClassTree:
    """One step over the exhaustive stream's class tree, on one memo.

    A node is ``remaining``, the coalitions not yet placed, and a
    ``state``. Each top class of ``remaining`` heads a child, in stream
    order (:func:`~millrank.enumeration._stream_tops`), and
    ``step(state, remaining, top)`` returns the child's state and the
    gains of placing ``top``, the first counts of ``width``.
    :meth:`below` sums over every completion of a node the gains of each
    class it places, weighted by the rankings under the class, and
    ``leaf`` of its last state; :meth:`first` yields the stream indices
    of the completions whose leaves count. The methods reach each other
    through the tree, which refers to neither, so the memo is freed with
    the last reference to the tree or one of its bound methods, without
    waiting for the cyclic collector.
    """

    def __init__(self, n, step, leaf, width):
        self.tops, self.step, self.leaf, self.width = _stream_tops(n), step, leaf, width
        self.memo = [{} for _ in self.tops]  # per remaining: state -> counts

    def below(self, remaining, state):
        """A tuple of ``width`` counts: the gains and leaf counts of every completion of the node."""
        memo, step = self.memo, self.step
        got = memo[remaining].get(state)
        if got is None:
            if not remaining:
                got = self.leaf(state)
            else:
                sums = [0] * self.width
                for top, _, _, size in self.tops[remaining]:
                    after, gains = step(state, remaining, top)
                    child = remaining ^ top
                    sums = list(map(add, sums, memo[child].get(after) or self.below(child, after)))
                    for slot, gain in enumerate(gains):
                        if gain:
                            sums[slot] += gain * size
                got = tuple(sums)
            memo[remaining][state] = got
        return got

    def first(self, remaining, state, index, failing):
        """In stream order, the index of each completion whose leaf counts in a slot of ``failing``.

        One must exist; ``index`` is the node's first.
        """
        if not remaining:
            yield index
        for top, _, offset, _ in self.tops[remaining]:
            after = self.step(state, remaining, top)[0]
            counts = self.below(remaining ^ top, after)
            if any(counts[slot] for slot in failing):
                yield from self.first(remaining ^ top, after, index + offset, failing)


def _read_top(top, selected, remaining, best):
    """A best-class rule's step: its selection, read by best class at the root and kept below."""
    return top(best) if selected is None else selected


def _premise_tree(n, rule, cells, top, reduction):
    """``count(best, offset, size)``: a rule's premise-only cells over the class tree of one best class.

    ``cells`` holds (axiom, result) pairs. The rule's state is its
    selection read by ``top`` at the root when it is a rule of
    ``solutions.BEST_CLASS_RULES``, else that of its step in
    ``solutions.RULE_STEPS``. Each step of ``axioms.PREMISE_STEPS`` that a
    cell's axiom takes (RAG and WRAG share one) carries its state and the
    mask forced so far. The counts are each step's premises, then per
    cell of such an axiom, its violating rankings, judged at the leaf;
    a lister of ``axioms.BEST_CLASS_AXIOMS`` is fixed at the root, as it
    lists on every ranking of the block as on the best class's
    ``reduction``, so its cells are judged there, on the rankings counted
    per selection, the last 2**n counts. ``count`` yields, per cell,
    (axiom, result, premises, violations, the block's violating stream
    indices).
    """
    steps = list(dict.fromkeys(PREMISE_STEPS[axiom] for axiom, _ in cells if axiom in PREMISE_STEPS))
    listers = [partial(step, n) for step in steps]
    rule_step = partial(_read_top, top) if rule in BEST_CLASS_RULES else partial(RULE_STEPS[rule], n)
    judged = [(2 * steps.index(PREMISE_STEPS[axiom]) + 2, PREMISE_AXIOMS[axiom][2])
              for axiom, _ in cells if axiom in PREMISE_STEPS]  # (forced mask's place in the state, contains)
    selections = range(1 << n) if len(judged) < len(cells) else range(0)
    width, by_selection = len(steps) + len(judged) + len(selections), len(steps) + len(judged)

    def step(state, remaining, best):  # state: the rule's, then (carried, forced so far) per step
        after, gains = [rule_step(state[0], remaining, best)], []
        for i, lister in enumerate(listers):
            carried, listed, forced = lister(state[2 * i + 1], remaining, best)
            after += carried, state[2 * i + 2] or forced
            gains.append(listed)
        return tuple(after), gains

    def leaf(state):
        selected = state[0]
        violated = (int(fails(state[place], selected, contains)) for place, contains in judged)
        return (*(0 for _ in steps), *violated, *(int(selected == mask) for mask in selections))

    tree = _ClassTree(n, step, leaf, width)
    start, everything = (None, *(None, 0) * len(listers)), (1 << ((1 << n) - 1)) - 1

    def count(best, offset, size):
        after, gains = step(start, everything, best)
        rest = everything ^ best
        counts = tree.below(rest, after)
        stepped = iter(range(len(steps), by_selection))
        for axiom, result in cells:
            lister, _, contains, _ = PREMISE_AXIOMS[axiom]
            if axiom in PREMISE_STEPS:
                slot = steps.index(PREMISE_STEPS[axiom])
                premises, failing = gains[slot] * size + counts[slot], (next(stepped),)
            else:
                found = lister(reduction(best))
                premises, forced = len(found) * size, found and forced_mask(found)
                failing = [by_selection + mask for mask in selections if fails(forced, mask, contains)]
            violations = sum(counts[slot] for slot in failing)
            yield axiom, result, premises, violations, partial(tree.first, rest, after, offset, failing)

    return count


def _count_blocks(cells, stream, cap, reads, reduction):
    """Count the counted cells of an exhaustive pass at the root of the class tree; return the rankings covered.

    ``cells`` holds ((rule, axiom), result) pairs, each result the pass's
    [premises, violations, witnesses] list of a cell that pairs a rule of
    ``solutions.BEST_CLASS_RULES`` with an axiom of
    ``axioms.BLOCK_COUNTERS``, or a premise-only axiom with such a rule or
    one of ``solutions.RULE_STEPS``. A block is the fubini(|rest|)
    consecutive indices of the exhaustive ``stream`` whose rankings share
    a best class (:func:`~millrank.enumeration._stream_tops`), and the
    root loops over blocks once. A cell of ``axioms.BLOCK_COUNTERS`` takes
    the block's reduction and reads the rule by best class; its witnesses
    come from walking its violating blocks in stream order through
    :func:`_sweep_chunk` until ``cap`` are held, and of a block that
    violates throughout, only its first rankings are walked. Every other
    cell is counted by its rule's :func:`_premise_tree`, on one memo per
    rule for the pass, and its witnesses are rebuilt one stream index at
    a time through :func:`_sweep_chunk`, at the first ``cap`` violating
    indices. The reductions, ``reads``' best-class readers and every
    rebuild share the pass's cache, so each rule runs once per best class
    read, and no ranking is walked but the witnesses'.
    """
    n = stream.universe.n
    blocks, trees = [], {}
    for (rule, axiom), result in cells:
        if rule in BEST_CLASS_RULES and axiom in BLOCK_COUNTERS:
            blocks.append(((rule, axiom), result))
        else:
            trees.setdefault(rule, []).append((axiom, result))
    roots = [(rule, _premise_tree(n, rule, group, reads.get(rule), reduction)) for rule, group in trees.items()]
    covered = 0
    for best, _, offset, size in _stream_tops(n)[-1]:
        covered += size
        for (rule, axiom), result in blocks:
            premises, violations = BLOCK_COUNTERS[axiom](reduction(best), reads[rule])
            result[0] += premises
            result[1] += violations
            need = cap - len(result[2])
            if violations and need > 0:
                chunk = range(offset, offset + (min(need, size) if violations == size else size))
                result[2] += _sweep_chunk([(rule, axiom)], need, reads, False, stream, chunk)[1][0][2]
        for rule, count in roots:
            for axiom, result, premises, violations, indices in count(best, offset, size):
                result[0] += premises
                result[1] += violations
                for i in islice(indices(), max(cap - len(result[2]), 0) if violations else 0):
                    result[2] += _sweep_chunk([(rule, axiom)], 1, reads, False, stream, range(i, i + 1))[1][0][2]
    return covered


def _check_coverage(checked, universe):
    """Fail an exhaustive pass that did not count every ranking of the universe once."""
    if checked != (expected := fubini(universe.full_mask)):
        raise AssertionError(f"exhaustive sweep covered {checked} of {expected} rankings")


def _counted(rule, axiom):
    """Whether an exhaustive, unstopped pass counts the cell at the root of the class tree (:func:`_count_blocks`)."""
    if axiom in PREMISE_AXIOMS:
        return rule in BEST_CLASS_RULES or rule in RULE_STEPS
    return rule in BEST_CLASS_RULES and axiom in BLOCK_COUNTERS


def _sweep_pass(cells, universe, mode, jobs, witness_cap, stop=False):
    """Sweep reports of every (rule, axiom) cell from one pass over the stream.

    The pass builds its own selection tables (see :func:`_sweep_chunk`)
    with :func:`_tables`, before any walk, and one best-class reduction
    cache, on which every best-class rule has one reader that the counts,
    the inline walks and the witness rebuilds share; pool workers build
    their own readers, as tables travel to them with each chunk. An
    exhaustive, unstopped pass counts the cells that :func:`_counted`
    names at the root of the class tree (:func:`_count_blocks`) and walks
    the others over the stream; with nothing left to walk it starts no
    walk and no pool. With ``stop`` set, each chunk ends after its first
    violating ranking, and the pass after the first chunk with a
    violation, so ``rankings_checked`` counts up to that ranking. A
    stopped search of best-class rules and ``axioms.BLOCK_COUNTERS`` only
    runs the block counters in stream order and walks only the first
    block that violates, which holds the first violating ranking;
    ``rankings_checked`` is then the block's offset plus the rankings
    walked. A pass that reaches the end of an exhaustive stream must have
    covered every ranking. A walk of declared rules only, exhaustive and
    unstopped, walks orbits (see the module docstring).
    """
    if witness_cap < 0:
        raise ValueError(f"witness_cap must be at least 0, got {witness_cap}")
    cells = [(rule, axiom.upper()) for rule, axiom in cells]
    for rule, axiom in cells:
        lookup_rule(rule)
        lookup_axiom(axiom)
    tables = _tables(cells, universe, mode, jobs)
    reduction = cache(partial(best_class_reduction, universe))  # one per pass
    tops = {rule: _best_class_reader(lookup_rule(rule), reduction) for rule, _ in cells if rule in BEST_CLASS_RULES}
    reads = {**tables, **tops}
    exhaustive = mode == EXHAUSTIVE
    results = [[0, 0, []] for _ in cells]  # per cell: premises, violations, witnesses
    counted, walked = [], []
    for cell, result in zip(cells, results):
        (counted if exhaustive and not stop and _counted(*cell) else walked).append((cell, result))
    checked = 0
    if counted:  # the stream refuses more than MAX_EXHAUSTIVE_N individuals first
        checked = _count_blocks(counted, RankingStream(universe), witness_cap, reads, reduction)
        _check_coverage(checked, universe)
    if walked and stop and exhaustive and all(rule in tops and axiom in BLOCK_COUNTERS for rule, axiom in cells):
        stream = RankingStream(universe)
        for best, _, offset, size in _stream_tops(universe.n)[-1]:
            if any(BLOCK_COUNTERS[axiom](reduction(best), tops[rule])[1] for rule, axiom in cells):
                count, found = _sweep_chunk(cells, witness_cap, reads, True, stream, range(offset, offset + size))
                checked += count
                for result, part in zip(results, found):
                    result[:] = part
                break
            checked += size
        else:
            _check_coverage(checked, universe)
    elif walked:
        # Rules that commute with relabeling leave every count alike across an orbit.
        orbits = exhaustive and not stop and all(rule in ANONYMOUS_RULES for (rule, _), _ in walked)
        checked = 0
        # A pool worker builds its own best-class readers: the pass's do not pickle.
        worker = partial(_sweep_chunk, [cell for cell, _ in walked], witness_cap, tables if jobs > 1 else reads, stop)
        with closing(_run_chunks(universe, mode, worker, jobs, orbits)) as chunks:
            for count, found in chunks:
                checked += count
                for (_, result), (premises, violations, witnesses) in zip(walked, found):
                    result[0] += premises
                    result[1] += violations
                    result[2] = (result[2] + witnesses)[:witness_cap]
                if stop and any(result[1] for _, result in walked):
                    break
            else:
                if exhaustive:
                    _check_coverage(checked, universe)
        if orbits:
            # An orbit's rankings violate alike, so the first cap violating rankings lie in the
            # orbits of the first cap violating orbit minima, whose witnesses the walk kept. Each
            # is judged on its own ranking: relabeled, its premises scan in another order.
            stream = RankingStream(universe)
            for cell, result in walked:
                held = {i for witness in result[2] for i in orbit_indices(universe.n, witness.ranking.bits)}
                result[2] = [_sweep_chunk([cell], 1, reads, False, stream, range(i, i + 1))[1][0][2][0]
                             for i in sorted(held)[:witness_cap]]
    return tuple(
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
    return _sweep_pass(cells, universe or Universe(n), mode, jobs, witness_cap)


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
    reports = _sweep_pass(cells, universe, mode, jobs, 1, stop=True)
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
        sweeps = _sweep_pass(cells, universe, mode, jobs, witness_cap)
        return Theorem1Report(rule, n, mode, sweeps[0].rankings_checked, None, None, sweeps)
    found = _first_violation(rule, THEOREM_AXIOMS, universe, mode, jobs)
    return Theorem1Report(rule, n, mode, compared, difference, found and found[1], None)


def _relative_lemma_counts(n):
    """RDF and RJAD premises over every ranking at n, and how many are not RAG premises.

    Counted over the class tree (:class:`_ClassTree`) with the RAG, RDF
    and RJAD steps of ``axioms.PREMISE_STEPS`` together: the instances a
    step lists on a class all have their reference coalition in it, so
    an RDF or RJAD instance is a RAG one exactly when RAG lists that class
    and forces the same individual.
    """
    agreement, difference, joint = (partial(PREMISE_STEPS[axiom], n) for axiom in ("RAG", "RDF", "RJAD"))

    def step(state, remaining, top):
        rag, _, x = agreement(state[0], remaining, top)
        rdf, differing, rdf_x = difference(state[1], remaining, top)
        rjad, joined, rjad_x = joint(state[2], remaining, top)
        missed = differing * (rdf_x != x) + joined * (rjad_x != x)  # x is 0 when RAG lists nothing
        return (rag, rdf, rjad), (differing, joined, missed)

    return _ClassTree(n, step, lambda state: (0, 0, 0), 3).below((1 << ((1 << n) - 1)) - 1, (None, None, None))


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
    wrag, cv = _sweep_pass(cells, universe, EXHAUSTIVE, jobs, witness_cap)
    lemma = RelativeLemma(wrag.rankings_checked, *_relative_lemma_counts(n))
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
    *sweeps, search = _sweep_pass(cells, Universe(3), EXHAUSTIVE, jobs, witness_cap or 1)
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
