"""Outside-in layer tracing: spans around the package's public entry points.

:func:`install` wraps functions and methods of the ``syntax``, ``logic``,
``typecheck``, ``horn``, ``smt``, ``synth`` and ``service`` layers from the
outside (the package itself carries no instrumentation).  Each wrapper opens
a span on entry and closes it on exit; per span name the tracer keeps

* ``self`` time: span duration minus the part covered by child spans;
* ``busy`` time: inclusive duration, a span re-entered inside itself
  counted once;
* ``calls``: outermost entries.

It also registers every statistics object the traced code creates
(``SolverStatistics``, ``HornStatistics``, ``EnumerationStatistics``), so
work counters can be summed over exactly the traced queries.

Spans are aggregated in memory per thread and merged when read.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import sys
import threading
from time import perf_counter
from typing import Dict, List, Tuple

#: span name -> targets: ("module:function" or "module:Class.method", kind).
#: kind "gen" wraps a generator (each resumption is one span); "enter"
#: wraps a context manager and times only its entry.
SPANS: Dict[str, List[Tuple[str, str]]] = {
    "syntax.parse": [("repro.syntax.parser:parse_program", "call")],
    "logic.simplify": [("repro.logic.simplify:simplify", "call")],
    "typecheck.emit": [("repro.typecheck.session:TypecheckSession.emit", "call")],
    "typecheck.solve": [("repro.typecheck.session:TypecheckSession.solve", "call")],
    "horn.solve": [("repro.horn.solver:HornSolver.solve", "call")],
    "horn.search": [("repro.horn.solver:HornSolver.search_candidates", "call")],
    "horn.mus": [("repro.horn.musfix:MusFixSolver.enumerate_muses", "call")],
    "smt.query": [
        ("repro.smt.solver:IncrementalSolver.check", "call"),
        ("repro.smt.solver:IncrementalSolver.check_evaluating", "call"),
        ("repro.smt.solver:IncrementalSolver.check_assuming", "call"),
        ("repro.smt.solver:IncrementalSolver.is_valid_implication", "call"),
    ],
    "smt.assert": [("repro.smt.solver:IncrementalSolver.assert_", "call")],
    "smt.sat": [("repro.smt.sat:SatSolver.solve", "call")],
    "smt.theory": [("repro.smt.theory:IncrementalTheory.check", "call")],
    "smt.simplex": [("repro.smt.lia:Simplex.check", "call")],
    "smt.explain": [("repro.smt.theory:TheoryChecker.is_consistent", "call")],
    "synth.enumerate": [("repro.synth.enumerator:ETermEnumerator.candidates", "gen")],
    "synth.abduce": [("repro.synth.conditions:abduce_condition", "call")],
    "synth.verify": [("repro.synth.synthesizer:Synthesizer._verify", "call")],
    "service.handle": [("repro.service.server:ServiceHandler.do_POST", "call")],
    "service.compute": [
        ("repro.service.api:compute_check", "call"),
        ("repro.service.api:compute_synth", "call"),
    ],
    "service.digest": [("repro.service.cache:query_digest", "call")],
    "service.cache_get": [("repro.service.cache:ResultCache.get", "call")],
    "service.cache_put": [("repro.service.cache:ResultCache.put", "call")],
    "service.stack_wait": [("repro.service.worker:WarmStack.query", "enter")],
}

#: Classes whose instances carry a public ``statistics`` object to register.
STATISTICS_OWNERS = {
    "smt": "repro.smt.solver:IncrementalSolver",
    "horn": "repro.horn.solver:HornSolver",
    "synth": "repro.synth.synthesizer:Synthesizer",
}


def _resolve(target: str):
    module_name, _, path = target.partition(":")
    module = importlib.import_module(module_name)
    owner_name, _, attr = path.rpartition(".")
    owner = getattr(module, owner_name) if owner_name else module
    return module, owner, attr


class Tracer:
    """Span aggregates plus the statistics objects created while installed."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._threads: List[Dict[str, List[float]]] = []
        self._threads_lock = threading.Lock()
        self._patches: List[Tuple[object, str, object]] = []
        self.statistics: Dict[str, List[object]] = {layer: [] for layer in STATISTICS_OWNERS}

    # -- spans -----------------------------------------------------------------

    def _state(self):
        local = self._local
        try:
            return local.stack, local.depth, local.totals
        except AttributeError:
            local.stack, local.depth, local.totals = [], {}, {}
            with self._threads_lock:
                self._threads.append(local.totals)
            return local.stack, local.depth, local.totals

    def open(self, name: str) -> list:
        stack, depth, _ = self._state()
        depth[name] = depth.get(name, 0) + 1
        frame = [name, 0.0, perf_counter()]
        stack.append(frame)
        return frame

    def close(self, frame: list) -> None:
        end = perf_counter()
        stack, depth, totals = self._state()
        stack.pop()
        name = frame[0]
        duration = end - frame[2]
        if stack:
            stack[-1][1] += duration
        entry = totals.get(name)
        if entry is None:
            entry = totals[name] = [0, 0.0, 0.0]
        entry[2] += duration - frame[1]
        depth[name] -= 1
        if not depth[name]:
            entry[0] += 1
            entry[1] += duration

    def totals(self) -> Dict[str, Dict[str, float]]:
        """span name -> {"calls", "busy_s", "self_s"}, merged over threads."""
        merged: Dict[str, List[float]] = {}
        with self._threads_lock:
            for totals in self._threads:
                for name, (calls, busy, own) in totals.items():
                    entry = merged.setdefault(name, [0, 0.0, 0.0])
                    entry[0] += calls
                    entry[1] += busy
                    entry[2] += own
        return {
            name: {"calls": calls, "busy_s": busy, "self_s": own}
            for name, (calls, busy, own) in merged.items()
        }

    def counters(self) -> Dict[str, Dict[str, int]]:
        """layer -> field -> sum over the registered statistics objects."""
        out: Dict[str, Dict[str, int]] = {}
        for layer, objects in self.statistics.items():
            sums: Dict[str, int] = {}
            for stats in {id(obj): obj for obj in objects}.values():
                for field in dataclasses.fields(stats):
                    value = getattr(stats, field.name)
                    if isinstance(value, int):
                        sums[field.name] = sums.get(field.name, 0) + value
            out[layer] = sums
        return out

    # -- wrappers --------------------------------------------------------------

    def _wrap(self, name: str, original, kind: str):
        tracer = self
        if kind == "gen":

            @functools.wraps(original)
            def generator(*args, **kwargs):
                inner = original(*args, **kwargs)
                try:
                    while True:
                        frame = tracer.open(name)
                        try:
                            item = next(inner)
                        except StopIteration:
                            return
                        finally:
                            tracer.close(frame)
                        yield item
                finally:
                    inner.close()

            return generator
        if kind == "enter":

            @functools.wraps(original)
            def entering(*args, **kwargs):
                return _TimedEntry(tracer, name, original(*args, **kwargs))

            return entering

        @functools.wraps(original)
        def call(*args, **kwargs):
            frame = tracer.open(name)
            try:
                return original(*args, **kwargs)
            finally:
                tracer.close(frame)

        return call

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def install(self) -> "Tracer":
        """Wrap every target in :data:`SPANS` and every statistics owner."""
        for name, targets in SPANS.items():
            for target, kind in targets:
                module, owner, attr = _resolve(target)
                original = getattr(owner, attr)
                wrapper = self._wrap(name, original, kind)
                self._patch(owner, attr, wrapper)
                if owner is module:
                    # Functions imported by name elsewhere are rebound there too.
                    for other in list(sys.modules.values()):
                        if (
                            other is not module
                            and getattr(other, "__name__", "").startswith("repro")
                            and other.__dict__.get(attr) is original
                        ):
                            self._patch(other, attr, wrapper)
        for layer, target in STATISTICS_OWNERS.items():
            module_name, _, class_name = target.partition(":")
            owner = getattr(importlib.import_module(module_name), class_name)
            self._patch(owner, "__init__", self._registering(owner.__init__, layer))
        return self

    def _registering(self, init, layer: str):
        registry = self.statistics[layer]

        @functools.wraps(init)
        def __init__(instance, *args, **kwargs):
            init(instance, *args, **kwargs)
            registry.append(instance.statistics)

        return __init__

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()


class _TimedEntry:
    """A context manager whose ``__enter__`` is one span (the wait to get in)."""

    def __init__(self, tracer: Tracer, name: str, inner) -> None:
        self._tracer, self._name, self._inner = tracer, name, inner

    def __enter__(self):
        frame = self._tracer.open(self._name)
        try:
            return self._inner.__enter__()
        finally:
            self._tracer.close(frame)

    def __exit__(self, *exc_info):
        return self._inner.__exit__(*exc_info)


def layer_metrics(spans: dict, counters: dict, queries: int) -> Dict[str, float]:
    """The per-layer metrics, each per query, from one traced pass's
    :meth:`Tracer.totals` and :meth:`Tracer.counters`."""
    smt, horn, synth = counters["smt"], counters["horn"], counters["synth"]

    def span(name: str, field: str) -> float:
        entry = spans.get(name)
        if entry is None:
            return 0.0
        if field == "calls":
            return entry["calls"] / queries
        return entry[field] * 1000.0 / queries

    def per_query(value: int) -> float:
        return value / queries

    def ratio(part: int, whole: int) -> float:
        return part / whole if whole else 0.0

    encoded = smt.get("encoded_assertions", 0)
    reused = smt.get("reused_assertions", 0)
    explored = horn.get("candidates_explored", 0)
    pruned = horn.get("candidates_pruned", 0)
    return {
        "smt.explain.self_ms": span("smt.explain", "self_s"),
        "smt.shrink_theory_checks": per_query(smt.get("shrink_theory_checks", 0)),
        "smt.sat.self_ms": span("smt.sat", "self_s"),
        "smt.conflicts": per_query(smt.get("conflicts", 0)),
        "smt.propagations": per_query(smt.get("propagations", 0)),
        "smt.assert.self_ms": span("smt.assert", "self_s"),
        "smt.encoded_assertions": per_query(encoded),
        "smt.reuse_ratio": ratio(reused, reused + encoded),
        "logic.simplify.self_ms": span("logic.simplify", "self_s"),
        "smt.theory.self_ms": span("smt.theory", "self_s"),
        "smt.simplex.self_ms": span("smt.simplex", "self_s"),
        "smt.tableau_pivots": per_query(smt.get("tableau_pivots", 0)),
        "smt.theory_propagations": per_query(smt.get("theory_propagations", 0)),
        "smt.lemmas_generalized": per_query(smt.get("lemmas_generalized", 0)),
        "smt.query.calls": span("smt.query", "calls"),
        "smt.sat_queries": per_query(smt.get("sat_queries", 0)),
        "synth.enumerate.self_ms": span("synth.enumerate", "self_s"),
        "synth.generated": per_query(synth.get("generated", 0)),
        "synth.pruned_early": per_query(synth.get("pruned_early", 0)),
        "synth.prune_ratio": ratio(synth.get("pruned_early", 0), synth.get("generated", 0)),
        "synth.goal_checks": per_query(synth.get("goal_checks", 0)),
        "synth.verify.busy_ms": span("synth.verify", "busy_s"),
        "synth.abduce.busy_ms": span("synth.abduce", "busy_s"),
        "synth.abductions": per_query(synth.get("abductions", 0)),
        "horn.search.self_ms": span("horn.search", "self_s"),
        "horn.mus.self_ms": span("horn.mus", "self_s"),
        "horn.candidates_explored": per_query(explored),
        "horn.candidates_pruned": per_query(pruned),
        "horn.muses_enumerated": per_query(horn.get("muses_enumerated", 0)),
        "horn.prune_ratio": ratio(pruned, explored + pruned),
        "horn.solve.self_ms": span("horn.solve", "self_s"),
        "horn.solve.calls": span("horn.solve", "calls"),
        "horn.validity_checks": per_query(horn.get("validity_checks", 0)),
        "typecheck.emit.self_ms": span("typecheck.emit", "self_s"),
        "typecheck.emit.calls": span("typecheck.emit", "calls"),
        "typecheck.solve.busy_ms": span("typecheck.solve", "busy_s"),
        "syntax.parse.self_ms": span("syntax.parse", "self_s"),
        "service.handle.busy_ms": span("service.handle", "busy_s"),
        "service.compute.busy_ms": span("service.compute", "busy_s"),
        "service.digest.self_ms": span("service.digest", "self_s"),
        "service.cache_get.self_ms": span("service.cache_get", "self_s"),
        "service.cache_put.self_ms": span("service.cache_put", "self_s"),
        "service.stack_wait_ms": span("service.stack_wait", "busy_s"),
    }
