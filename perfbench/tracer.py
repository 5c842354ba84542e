"""Spans and counters around the calls into each millrank module.

The tracer never edits the package: ``install`` swaps the module-level
names and registry entries that callers look up at call time for timed
wrappers, and ``restore`` puts the originals back. Functions imported
by name (``from .transforms import apply_slide``) are bound in the
importing module, so each such name is patched where it is called.

Each span records its call count and its self time: its duration minus
the time covered by the spans it caused. A span name is
``<layer>.<thing>`` where the layer is the module name.
"""

from __future__ import annotations

import json
import time
import types
from collections import defaultdict

LAYERS = ("enumeration", "core", "solutions", "transforms", "axioms", "verify", "textio", "cli")
ROOT_SPAN = "cli.main"


class Tracer:
    def __init__(self):
        self.stats = defaultdict(lambda: [0, 0.0])  # span name -> [calls, self seconds]
        self.counts = defaultdict(int)  # extra counters, e.g. premises found
        self.seen = defaultdict(set)  # rule -> hashes of the rankings it was called on
        self._stack = [[0.0]]  # per open span: time covered by its children
        self._undo = []

    def span(self, name, fn, hook=None):
        """Wrap ``fn`` so each call is a span; ``hook(args, result)`` runs untimed."""
        stack, stat, clock = self._stack, self.stats[name], time.perf_counter

        def traced(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                stat[0] += 1
                stat[1] += t1 - t0 - frame[0]
                stack[-1][0] += t1 - t0
            if hook is not None:
                h0 = clock()
                hook(args, result)
                # Hook time is tracer overhead: keep it out of the caller's self time.
                stack[-1][0] += clock() - h0
            return result

        traced.__name__ = getattr(fn, "__name__", name)
        traced.__wrapped__ = fn
        return traced

    def generator_span(self, name, gen_fn, counter):
        """Wrap a generator function: each step is a span, each yield bumps ``counter``."""
        stack, stat, clock, counts = self._stack, self.stats[name], time.perf_counter, self.counts

        def traced(*args, **kwargs):
            counts[name + ".passes"] += 1
            it = gen_fn(*args, **kwargs)
            while True:
                frame = [0.0]
                stack.append(frame)
                t0 = clock()
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    t1 = clock()
                    stack.pop()
                    stat[0] += 1
                    stat[1] += t1 - t0 - frame[0]
                    stack[-1][0] += t1 - t0
                counts[counter] += 1
                yield item

        return traced

    def patch(self, owner, attr, wrapper):
        """Replace ``owner.attr`` (or ``owner[attr]`` for a dict) until ``restore``."""
        namespace = owner if isinstance(owner, dict) else owner.__dict__
        self._undo.append((owner, attr, namespace[attr]))
        _assign(owner, attr, wrapper)

    def restore(self):
        while self._undo:
            _assign(*self._undo.pop())

    def layer_self(self, layer):
        return sum(s[1] for name, s in self.stats.items() if name.split(".")[0] == layer)

    def install(self, millrank):
        """Wrap every layer boundary a CLI run crosses, in the modules that call it."""
        enumeration, core, solutions = millrank.enumeration, millrank.core, millrank.solutions
        transforms, axioms, verify = millrank.transforms, millrank.axioms, millrank.verify
        textio, cli = millrank.textio, millrank.cli
        counts, seen = self.counts, self.seen

        stream = enumeration.RankingStream
        self.patch(stream, "__iter__", self.generator_span(
            "enumeration.stream", stream.__iter__, "enumeration.stream.rankings"))
        self.patch(enumeration, "sample_ranking",
                   self.span("enumeration.sample", enumeration.sample_ranking))

        ranking_cls = core.CoalitionalRanking
        trusted = ranking_cls.__dict__["_trusted"].__func__
        self.patch(ranking_cls, "_trusted", classmethod(self.span("core.ranking", trusted)))

        for rule, fn in list(solutions.RULES.items()):
            def distinct(args, result, rule=rule):
                seen[rule].add(hash(args[0].classes))
            self.patch(solutions.RULES, rule, self.span(f"solutions.{rule}", fn, distinct))

        slide = self.span("transforms.apply_slide", transforms.apply_slide)
        deteriorate = self.span("transforms.apply_deterioration", transforms.apply_deterioration)
        specs_fn = transforms.enumerate_deterioration_specs
        # The one caller lists the generator at once, so one span per call suffices.
        specs = self.span("transforms.deterioration_specs", lambda *a: list(specs_fn(*a)))
        for module in (transforms, axioms, verify):
            self.patch(module, "apply_slide", slide)
        for module in (transforms, axioms):
            self.patch(module, "apply_deterioration", deteriorate)
        self.patch(axioms, "enumerate_deterioration_specs", specs)

        for axiom, check in list(axioms.AXIOMS.items()):
            def premises(args, verdict, axiom=axiom):
                counts[f"axioms.{axiom}.premises"] += verdict.premises_checked
            self.patch(axioms.AXIOMS, axiom, self.span(f"axioms.{axiom}", check, premises))
        for name in ("rdf_premises", "rjad_premises"):
            wrapped = self.span(f"axioms.{name}", getattr(axioms, name))
            for module in (axioms, verify):
                self.patch(module, name, wrapped)

        for name in ("sweep", "theorem1_probe", "prop1_report", "prop3_matrix"):
            wrapped = self.span(f"verify.{name}", getattr(verify, name))
            for module in (verify, cli):
                self.patch(module, name, wrapped)

        render = self.span("textio.render_ranking", textio.render_ranking)
        for module in (textio, cli):
            self.patch(module, "render_ranking", render)

        def emitted(args, text):
            counts["cli.emit_report.bytes"] += len(text.encode()) + 1  # print adds a newline
        self.patch(cli, "json", types.SimpleNamespace(
            dumps=self.span("cli.emit_report.json_dumps", json.dumps, emitted)))
        self.patch(cli, "jsonschema", types.SimpleNamespace(
            validate=self.span("cli.emit_report.schema_validate", cli.jsonschema.validate)))
        return self.span(ROOT_SPAN, cli.main)


def _assign(owner, attr, value):
    if isinstance(owner, dict):
        owner[attr] = value
    else:
        setattr(owner, attr, value)
