"""Spans and counters around covpovm's public entry points, from outside.

While installed, the tracer replaces each entry point in ENTRY_POINTS with
a wrapper. A module-level function is replaced under every name that binds
it in any ``covpovm`` module, because several modules import by name
(``from .groups import pairing``): wrapping only the defining module would
miss those calls without any sign. Methods are replaced on their class.

A span records its name, start, end, parent span and command id. Spans
stay in memory until the workload process writes them out; counters are
exact and keyed by command id as well.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import sys
from collections import defaultdict
from time import perf_counter

SPAN, FIRST, COUNT = "span", "first", "count"


def _assembled_bytes(op):
    return "povm.assembled_bytes", op.dimension**2 * 16


def _born_cells(state, povm, partition):
    return "observables.born.cells", len(partition)


def _sample_draws(state, povm, partition, n, seed):
    return "observables.sample.draws", int(n)


# (span or counter name, "module:attribute", kind, argument counter).
# FIRST spans also note whether the call is the first on its instance
# within the command; COUNT entries only count calls.
ENTRY_POINTS = (
    ("groups.subgroup_from_generators", "covpovm.groups:subgroup_from_generators", SPAN, None),
    ("groups.annihilator", "covpovm.groups:annihilator", SPAN, None),
    ("groups.quotient", "covpovm.groups:quotient", SPAN, None),
    ("groups.pairing.calls", "covpovm.groups:pairing", COUNT, None),
    ("groups.elements_constructed", "covpovm.groups:GroupElement.__post_init__", COUNT, None),
    ("harmonic.context_build", "covpovm.harmonic:QuotientContext.build", SPAN, None),
    ("harmonic.lift_measure", "covpovm.harmonic:lift_measure", SPAN, None),
    ("harmonic.image_measure", "covpovm.harmonic:image_measure", SPAN, None),
    ("harmonic.translated", "covpovm.harmonic:QuotientContext.translated", SPAN, None),
    ("harmonic.cotransform", "covpovm.harmonic:QuotientContext.cotransform", SPAN, None),
    ("induction.transported_matrix", "covpovm.induction:transported_multiplication_matrix", SPAN, None),
    ("induction.transported_act.calls", "covpovm.induction:transported_multiplication_act", COUNT, None),
    ("povm.build", "covpovm.povm:build_covariant_povm", SPAN, None),
    ("povm.apply", "covpovm.povm:CovariantPOVM.apply", FIRST, None),
    ("povm.assemble", "covpovm.povm:BlockOperator.assemble", SPAN, _assembled_bytes),
    ("povm.u_matrix.calls", "covpovm.povm:CovariantPOVM.u_matrix", COUNT, None),
    ("povm.verify_axioms", "covpovm.povm:verify_axioms", SPAN, None),
    ("povm.verify_covariance", "covpovm.povm:verify_covariance", SPAN, None),
    ("povm.intertwiner_route", "covpovm.povm:apply_via_intertwiner", SPAN, None),
    ("povm.intertwiner_route", "covpovm.povm:intertwiner_matrix", SPAN, None),
    ("observables.born", "covpovm.observables:born_distribution", SPAN, _born_cells),
    ("observables.sample", "covpovm.observables:sample_outcomes", SPAN, _sample_draws),
    ("iojson.scenario_from_json", "covpovm.iojson:scenario_from_json", SPAN, None),
    ("iojson.matrix_to_json", "covpovm.iojson:matrix_to_json", SPAN, None),
)
SPAN_NAMES = frozenset(name for name, _, kind, _ in ENTRY_POINTS if kind != COUNT)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[tuple[int, str], int] = defaultdict(int)
        self.command = -1
        self._stack: list[int] = []
        self._seen: set = set()
        self._saved: list = []

    def call(self, name, fn, *args):
        """Run ``fn`` inside a span of its own."""
        return self._span(name, fn)(*args)

    def add(self, name: str, amount: int) -> None:
        self.counts[(self.command, name)] += amount

    def _span(self, name, fn, measure=None, note_first=False):
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            note = None
            if note_first:
                key = (self.command, id(args[0]))
                if key not in self._seen:
                    self._seen.add(key)
                    note = "first"
            if measure is not None:
                self.add(*measure(*args, **kwargs))
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, self.command, note]
            stack.append(len(spans))
            spans.append(record)
            record[1] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                record[2] = perf_counter()
                stack.pop()

        return functools.wraps(fn)(wrapper)

    def _counter(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[(self.command, name)] += 1
            return fn(*args, **kwargs)

        return functools.wraps(fn)(wrapper)

    def _wrap(self, name, kind, measure, fn):
        if kind == COUNT:
            return self._counter(name, fn)
        return self._span(name, fn, measure, note_first=kind == FIRST)

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer is already installed")
        for name, target, kind, measure in ENTRY_POINTS:
            module_name, qualname = target.split(":")
            module = importlib.import_module(module_name)
            owner_name, _, attr = qualname.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name)
                raw = owner.__dict__[attr]
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self._wrap(name, kind, measure, raw.__func__))
                else:
                    wrapped = self._wrap(name, kind, measure, raw)
                self._saved.append((owner, attr, raw))
                setattr(owner, attr, wrapped)
                continue
            original = getattr(module, attr)
            wrapped = self._wrap(name, kind, measure, original)
            for mod_name, mod in list(sys.modules.items()):
                if mod_name == "covpovm" or mod_name.startswith("covpovm."):
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._saved.append((mod, key, original))
                            setattr(mod, key, wrapped)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)

    def dump(self) -> dict:
        return {
            "spans": self.spans,
            "counts": [[command, name, value] for (command, name), value in self.counts.items()],
        }


def layer_metrics(trace: dict, command_round: dict[int, int], names) -> tuple[dict, list[str]]:
    """Per-layer metrics over the traced rounds, plus a list of problems.

    ``name.self_s`` is the median over rounds of the span's summed self
    time (duration minus the time its child spans cover); ``name.first_s``
    the median duration of first calls on a fresh instance; ``name.calls``
    the span count, or the counter of that name; any other name is a
    counter. Counts are exact, so a count that differs between rounds is
    reported as a problem.
    """
    spans = trace["spans"]
    covered = [0.0] * len(spans)
    for _, start, end, parent, _, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    rounds = sorted(set(command_round.values()))
    self_s = {r: defaultdict(float) for r in rounds}
    counts = {r: defaultdict(int) for r in rounds}
    firsts = defaultdict(list)
    for i, (name, start, end, _, command, note) in enumerate(spans):
        r = command_round[command]
        self_s[r][name] += end - start - covered[i]
        counts[r][name + ".calls"] += 1
        if note == "first":
            firsts[name].append(end - start)
    for command, name, value in trace["counts"]:
        counts[command_round[command]][name] += value

    metrics, problems = {}, []
    for metric in names:
        base, _, field = metric.rpartition(".")
        if field == "self_s" and base in SPAN_NAMES | {"cli"}:
            metrics[metric] = statistics.median(self_s[r][base] for r in rounds)
        elif field == "first_s" and base in SPAN_NAMES:
            metrics[metric] = statistics.median(firsts[base]) if firsts[base] else 0.0
        else:
            values = {counts[r][metric] for r in rounds}
            if len(values) != 1:
                problems.append(f"{metric} differs between traced rounds: {sorted(values)}")
            metrics[metric] = max(values)
    return metrics, problems


def fired(trace: dict, name: str) -> bool:
    """Whether a span or counter of this name recorded anything."""
    return any(s[0] == name for s in trace["spans"]) or any(
        c[1] == name and c[2] > 0 for c in trace["counts"]
    )
