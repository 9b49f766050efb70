"""Layer spans recorded from outside the program.

:class:`Tracer` wraps the public entry points of each layer at the
attribute its caller looks up (``repro.core.pipeline.allocate_threads``,
``AnalysisCache.analyze``, ``repro.core.verify.verify_outcome``, ...),
records one span per call -- name, start, end, parent, request id -- in
memory, and restores every attribute on :meth:`Tracer.uninstall`.  It
uses no ``repro.obs`` capture: an active capture would switch
``engine="auto"`` to the reference engine and so change which code runs.

Spans opened on a server thread with nothing open on that thread take
the in-flight client request as their parent; with one closed-loop
client there is exactly one such request at any time.

A layer's self time is the total length of its spans minus the parts
of them that their child spans cover.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Layer names, in request-path order; the per-layer metrics use them.
LAYERS = (
    "service",
    "parse",
    "validate",
    "analyze",
    "bounds",
    "inter",
    "descent",
    "assign",
    "rewrite",
    "verify",
    "simulate",
    "batch_sim",
)


class Tracer:
    """In-memory span recorder plus the wrappers that feed it."""

    def __init__(self) -> None:
        # One span: [name, start, end, parent index or -1, request id].
        self.spans: List[list] = []
        self.counts: Dict[str, float] = {}
        self.request_id: Optional[int] = None
        self._root: Optional[int] = None
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patched: List[Tuple[Any, str, Any]] = []
        self._offered: Dict[int, float] = {}
        self._descents: Dict[int, Any] = {}

    # ------------------------------------------------------------------
    # Spans.
    # ------------------------------------------------------------------
    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def inside(self, name: str) -> bool:
        """True when this thread is inside a ``name`` span."""
        return any(self.spans[i][0] == name for i in self._stack())

    def call(self, name: str, fn: Callable, *args, **kwargs):
        """Run ``fn`` under a ``name`` span."""
        return self._run(name, False, fn, args, kwargs)

    def request(self, request_id: int, fn: Callable, *args, **kwargs):
        """Run one client request under a root ``service`` span that
        spans opened on server threads attach to."""
        self.request_id = request_id
        self.count("service.requests")
        try:
            return self._run("service", True, fn, args, kwargs)
        finally:
            self._root = None
            self.request_id = None

    def _run(self, name: str, root: bool, fn: Callable, args, kwargs):
        stack = self._stack()
        parent = stack[-1] if stack else self._root
        span = [name, 0.0, 0.0, -1 if parent is None else parent,
                self.request_id]
        with self._lock:
            index = len(self.spans)
            self.spans.append(span)
        if root:
            self._root = index
        stack.append(index)
        span[1] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter()
            stack.pop()

    def count(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counts[name] = self.counts.get(name, 0) + amount

    # ------------------------------------------------------------------
    # Wrapping.
    # ------------------------------------------------------------------
    def _patch(self, owner: Any, attr: str, wrapper: Callable) -> None:
        original = getattr(owner, attr)
        self._patched.append((owner, attr, original))
        setattr(owner, attr, functools.wraps(original)(wrapper(original)))

    def _layer(self, owner: Any, attr: str, name: str,
               after: Optional[Callable] = None) -> None:
        def make(original):
            def wrapped(*args, **kwargs):
                result = self.call(name, original, *args, **kwargs)
                if after is not None:
                    after(result, *args, **kwargs)
                return result
            return wrapped
        self._patch(owner, attr, make)

    def install(self) -> None:
        """Wrap every layer's entry points (see the module docstring)."""
        from repro.core import pipeline, verify
        from repro.core.cache import AnalysisCache
        from repro.core.inter import SharedDescent
        from repro.ir import parser
        from repro.service import protocol
        from repro.service.admission import AdmissionQueue
        from repro.service.store import ResultStore
        from repro.sim import run as sim_run

        counted = lambda name: lambda *_a, **_k: self.count(name)  # noqa: E731

        self._layer(protocol, "parse_program", "parse",
                    counted("parse.calls"))
        self._layer(parser, "parse_program", "parse", counted("parse.calls"))
        self._layer(protocol, "validate_program", "validate")
        self._layer(pipeline, "validate_program", "validate")

        def analyze(original):
            def wrapped(cache, program):
                misses = cache.stats.misses
                result = self.call("analyze", original, cache, program)
                self.count("analyze.calls")
                if cache.stats.misses == misses:
                    self.count("analyze.hits")
                return result
            return wrapped
        self._patch(AnalysisCache, "analyze", analyze)
        self._layer(AnalysisCache, "bounds", "bounds")

        self._layer(pipeline, "allocate_threads", "inter",
                    counted("inter.calls"))

        def remember(descent, *_a, **_k):
            self._descents[id(descent)] = descent
        self._layer(AnalysisCache, "descent", "descent", remember)
        self._layer(SharedDescent, "reachable", "descent")
        self._layer(SharedDescent, "result", "descent",
                    counted("descent.points"))
        self._layer(pipeline, "assign_physical", "assign")
        self._layer(pipeline, "rewrite_program", "rewrite")
        self._layer(verify, "verify_outcome", "verify",
                    counted("verify.calls"))

        def run_threads(original):
            def wrapped(*args, **kwargs):
                # The verifier's own reference runs belong to verify.
                if self.inside("verify"):
                    return original(*args, **kwargs)
                result = self.call("simulate", original, *args, **kwargs)
                self.count("simulate.instructions", _instructions(result))
                return result
            return wrapped
        self._patch(sim_run, "run_threads", run_threads)

        def seed_sweep(original):
            def wrapped(programs, seeds, *args, **kwargs):
                results = self.call("batch_sim", original, programs, seeds,
                                    *args, **kwargs)
                self.count("batch_sim.lanes", len(results))
                self.count("batch_sim.instructions",
                           sum(_instructions(r) for r in results))
                return results
            return wrapped
        self._patch(sim_run, "run_seed_sweep", seed_sweep)

        def offer(original):
            def wrapped(queue, item, *args, **kwargs):
                self._offered[id(item)] = time.perf_counter()
                return original(queue, item, *args, **kwargs)
            return wrapped

        def take(original):
            def wrapped(queue, *args, **kwargs):
                item = original(queue, *args, **kwargs)
                offered = self._offered.pop(id(item), None)
                if offered is not None:
                    self.count("service.queue_wait_s",
                               time.perf_counter() - offered)
                return item
            return wrapped
        self._patch(AdmissionQueue, "offer", offer)
        self._patch(AdmissionQueue, "take", take)

        def store_get(original):
            def wrapped(store, key):
                payload = original(store, key)
                self.count("service.store_gets")
                if payload is not None:
                    self.count("service.store_hits")
                return payload
            return wrapped
        self._patch(ResultStore, "get", store_get)

    def uninstall(self) -> None:
        """Restore every wrapped attribute, newest first."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------
    # Results.
    # ------------------------------------------------------------------
    def self_times(self) -> Dict[str, float]:
        """Seconds per layer, each span minus what its children cover."""
        children: Dict[int, List[int]] = {}
        for index, span in enumerate(self.spans):
            if span[3] >= 0:
                children.setdefault(span[3], []).append(index)
        totals = {name: 0.0 for name in LAYERS}
        for index, (name, start, end, _, _) in enumerate(self.spans):
            covered = 0.0
            edge = start
            kids = sorted(
                (self.spans[k][1], self.spans[k][2])
                for k in children.get(index, ())
            )
            for k_start, k_end in kids:
                k_start, k_end = max(k_start, edge), min(k_end, end)
                if k_end > k_start:
                    covered += k_end - k_start
                    edge = k_end
            totals[name] += (end - start) - covered
        return totals

    def metrics(
        self, wall_s: float, overhead_ratio: float
    ) -> Dict[str, Tuple[float, str]]:
        """Every per-layer metric of the traced pass, with its unit.  A
        layer the workload never reaches reports 0.  ``wall_s`` is the
        pass's unit time; ``overhead_ratio`` compares it with the
        untraced pass over the same units."""
        self_s = self.self_times()
        c = self.counts.get
        gets = c("service.store_gets", 0)
        analyzed = c("analyze.calls", 0)
        metrics = {f"{name}.self_s": (self_s[name], "s") for name in LAYERS}
        metrics.update({
            "service.queue_wait_s": (c("service.queue_wait_s", 0.0), "s"),
            "service.store_hit_ratio": (
                c("service.store_hits", 0) / gets if gets else 0.0, "ratio"),
            "service.requests": (c("service.requests", 0), "count"),
            "parse.calls": (c("parse.calls", 0), "count"),
            "analyze.calls": (analyzed, "count"),
            "analyze.hit_ratio": (
                c("analyze.hits", 0) / analyzed if analyzed else 0.0,
                "ratio"),
            "inter.calls": (c("inter.calls", 0), "count"),
            "descent.steps": (
                sum(d.steps for d in self._descents.values()), "count"),
            "descent.points": (c("descent.points", 0), "count"),
            "verify.calls": (c("verify.calls", 0), "count"),
            "simulate.instructions": (
                c("simulate.instructions", 0), "instrs"),
            "batch_sim.lanes": (c("batch_sim.lanes", 0), "count"),
            "batch_sim.instructions": (
                c("batch_sim.instructions", 0), "instrs"),
            "trace.wall_s": (wall_s, "s"),
            "trace.unattributed_s": (wall_s - sum(self_s.values()), "s"),
            "trace.overhead_ratio": (overhead_ratio, "ratio"),
        })
        return metrics

    def write(self, path) -> None:
        """The recorded spans as JSON lines, times relative to the first."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as fh:
            for index, (name, start, end, parent, rid) in enumerate(
                self.spans
            ):
                fh.write(json.dumps({
                    "id": index, "name": name, "start": start - t0,
                    "end": end - t0, "parent": parent, "request": rid,
                }) + "\n")


def _instructions(result) -> int:
    return sum(t.instructions for t in result.stats.threads)
