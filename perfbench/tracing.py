"""Outside-in layer tracing: spans around the public entry points of each layer.

:class:`Tracer` replaces each entry point at the name its callers bind (a
class attribute, or a module global for functions imported by name) with a
wrapper that times the call and counts its work, and puts the originals
back on :meth:`Tracer.uninstall`.  The wrappers pass arguments and results
through unchanged and draw no random numbers, so a traced count returns
the same estimate and counters as an untraced one; ``run.py`` checks that.

Calls that happen millions of times (engine ``pre``/``step``, predecessor
fans, membership batches, sampler draws, unions) are aggregated per span
name into calls, total time and self time; self time is a span's duration
minus the time of the spans it directly contains.  Coarse spans (counter
runs, sharded runs, pool leases, fingerprints, report serialisation and
the benchmark's own per-request spans) are also kept whole, with their
parent span and request id, and written out at the end of the run.

Forked executor workers run untraced copies of the code: their spans are
not seen, only the counts they merge into the coordinator's report.
"""

from __future__ import annotations

import functools
import itertools
import statistics
import threading
import time
import weakref
from typing import Callable, Dict, List, Optional

import repro.counting.fpras as fpras_module
import repro.counting.parallel as parallel_module
import repro.counting.sampler as sampler_module
import repro.counting.union as union_module
import repro.serve.server as server_module
from repro.automata.unroll import UnrolledAutomaton
from repro.counting.api import CountReport
from repro.counting.fpras import NFACounter
from repro.counting.parallel import WorkerPoolManager
from repro.counting.sampler import SampleDraw

WORKER_NOTE = (
    "spans inside forked executor workers are not seen; their work appears "
    "only in the counters merged into each report"
)

#: Span names whose every instance is kept (few per count).
KEPT_SPANS = frozenset(
    {
        "request",
        "fpras.run",
        "exec.sharded",
        "exec.lease",
        "serve.fingerprint",
        "serve.to_dict",
    }
)


class _ThreadState(threading.local):
    """Per-thread span stacks and aggregates, registered for the final merge."""

    def __init__(self, tracer: "Tracer") -> None:
        #: Open spans as ``[start, time of directly contained spans]``.
        self.stack: List[list] = []
        #: Ids of the open kept spans, innermost last.
        self.kept: List[int] = []
        #: ``name -> [calls, total_s, self_s]``.
        self.totals: Dict[str, list] = {}
        self.spans: List[tuple] = []
        #: Level loops open on this thread (only the outermost is timed).
        self.loops = 0
        # Register the containers, not this object: read from another
        # thread, a ``threading.local`` shows that thread's attributes.
        tracer._register(self.totals, self.spans)


class Tracer:
    """Installs layer wrappers, aggregates spans, and computes layer metrics."""

    def __init__(self, engine_classes) -> None:
        self._engine_classes = list(engine_classes)
        #: Each thread's ``(totals, spans)`` containers.
        self._threads: List[tuple] = []
        self._lock = threading.Lock()
        self._state = _ThreadState(self)
        self._ids = itertools.count(1)
        self._patches: List[tuple] = []
        self.request_id: Optional[int] = None
        # Work counts observed at the boundaries.
        self.union_trials = 0
        self.union_unique = 0
        self.union_stream_items = 0
        self.fan_keys = 0
        self._fan_seen: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()
        self.membership_queries = 0
        self.level_times: List[List[float]] = []

    def _register(self, totals: Dict[str, list], spans: List[tuple]) -> None:
        with self._lock:
            self._threads.append((totals, spans))

    # ------------------------------------------------------------------
    # Spans
    # ------------------------------------------------------------------
    def _timed(self, original: Callable, name: str) -> Callable:
        """``original`` under an aggregated span (the hot-path wrapper)."""
        state = self._state
        clock = time.perf_counter

        def timed(*args, **kwargs):
            stack = state.stack
            frame = [clock(), 0.0]
            stack.append(frame)
            try:
                return original(*args, **kwargs)
            finally:
                duration = clock() - frame[0]
                stack.pop()
                if stack:
                    stack[-1][1] += duration
                totals = state.totals.get(name)
                if totals is None:
                    totals = state.totals[name] = [0, 0.0, 0.0]
                totals[0] += 1
                totals[1] += duration
                totals[2] += duration - frame[1]

        return timed

    def _kept(self, original: Callable, name: str) -> Callable:
        """``original`` under a span that is also kept whole, with its parent."""
        timed = self._timed(original, name)
        state = self._state
        tracer = self

        def kept(*args, **kwargs):
            span_id = next(tracer._ids)
            parent = state.kept[-1] if state.kept else None
            state.kept.append(span_id)
            start = time.perf_counter()
            try:
                return timed(*args, **kwargs)
            finally:
                state.kept.pop()
                state.spans.append(
                    (span_id, parent, name, tracer.request_id, start,
                     time.perf_counter(), threading.current_thread().name)
                )

        return kept

    def request(self, request_id: int, call: Callable[[], object]) -> object:
        """Run one benchmark request under a root span carrying its id."""
        self.request_id = request_id
        return self._kept(call, "request")()

    # ------------------------------------------------------------------
    # Installation
    # ------------------------------------------------------------------
    def _patch(self, owner: object, attribute: str, replacement: Callable) -> None:
        had_own = attribute in vars(owner)
        original = vars(owner)[attribute] if had_own else getattr(owner, attribute)
        functools.update_wrapper(replacement, getattr(owner, attribute))
        setattr(owner, attribute, replacement)
        self._patches.append((owner, attribute, original, had_own))

    def _span_wrapper(self, original: Callable, name: str, after=None) -> Callable:
        traced = (self._kept if name in KEPT_SPANS else self._timed)(original, name)
        if after is None:
            return traced

        def wrapper(*args, **kwargs):
            result = traced(*args, **kwargs)
            after(args, result)
            return result

        return wrapper

    def _wrap(self, owner: object, attribute: str, name: str, after=None) -> None:
        original = getattr(owner, attribute)
        self._patch(owner, attribute, self._span_wrapper(original, name, after))

    def install(self) -> None:
        """Wrap every layer's entry points at the names their callers bind."""
        for klass in self._engine_classes:
            self._wrap(klass, "pre", "engine.pre")
            self._wrap(klass, "step", "engine.step")
        self._wrap(UnrolledAutomaton, "predecessor_fan", "unroll.fan", self._count_fan)
        self._wrap(UnrolledAutomaton, "warm_cache", "unroll.warm_cache")
        self._wrap(UnrolledAutomaton, "witness", "unroll.witness")
        self._patch(
            UnrolledAutomaton,
            "first_containing_batch",
            self._membership_factory(UnrolledAutomaton.first_containing_batch),
        )
        union = self._span_wrapper(
            union_module.approximate_union, "union", self._count_union
        )
        for module in (union_module, fpras_module, sampler_module):
            self._patch(module, "approximate_union", union)
        self._wrap(SampleDraw, "draw", "sampler.draw")
        self._patch(NFACounter, "run", self._level_loop(NFACounter.run, "fpras.run"))
        self._patch(
            parallel_module,
            "run_fpras_sharded",
            self._level_loop(parallel_module.run_fpras_sharded, "exec.sharded"),
        )
        self._wrap(WorkerPoolManager, "lease", "exec.lease")
        self._wrap(server_module, "request_fingerprint", "serve.fingerprint")
        self._wrap(CountReport, "to_dict", "serve.to_dict")

    def uninstall(self) -> None:
        """Put every original entry point back, newest patch first."""
        while self._patches:
            owner, attribute, original, had_own = self._patches.pop()
            if had_own:
                setattr(owner, attribute, original)
            else:
                delattr(owner, attribute)

    # ------------------------------------------------------------------
    # Boundary counts
    # ------------------------------------------------------------------
    def _count_fan(self, args, result) -> None:
        unroll, handle, level = args[0], args[1], args[2]
        seen = self._fan_seen.get(unroll)
        if seen is None:
            seen = self._fan_seen[unroll] = set()
        key = (level, handle)
        if key not in seen:
            seen.add(key)
            self.fan_keys += 1

    def _count_union(self, args, result) -> None:
        self.union_trials += result.trials
        self.union_unique += result.unique_hits
        if result.sum_of_sizes > 0:
            # Sample streams are built (each set's samples copied and, in
            # the default mode, shuffled) only when some set has mass.
            self.union_stream_items += sum(len(entry.samples) for entry in args[0])

    def _membership_factory(self, original: Callable) -> Callable:
        tracer = self

        def first_containing_batch(unroll, states):
            timed = tracer._timed(original(unroll, states), "unroll.membership")

            def traced_check_batch(queries):
                tracer.membership_queries += len(queries)
                return timed(queries)

            return traced_check_batch

        return first_containing_batch

    def _level_loop(self, original: Callable, name: str) -> Callable:
        """Wrap a level loop, timing each level through its progress hook.

        Progress callbacks never touch the RNG stream (the API's contract),
        so adding one leaves the count unchanged.
        """
        tracer = self
        traced = self._span_wrapper(original, name)

        def wrapper(*args, progress=None, **kwargs):
            stamps = [time.perf_counter()]

            def timed(event):
                stamps.append(time.perf_counter())
                if progress is not None:
                    progress(event)

            state = tracer._state
            state.loops += 1
            try:
                result = traced(*args, progress=timed, **kwargs)
            finally:
                state.loops -= 1
            if not state.loops:
                tracer.level_times.append(
                    [later - earlier for earlier, later in zip(stamps, stamps[1:])]
                )
            return result

        return wrapper

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    def totals(self) -> Dict[str, List[float]]:
        """``name -> [calls, total_s, self_s]`` merged over threads."""
        merged: Dict[str, List[float]] = {}
        with self._lock:
            threads = list(self._threads)
        for totals, _ in threads:
            for name, (calls, total, own) in totals.items():
                entry = merged.setdefault(name, [0, 0.0, 0.0])
                entry[0] += calls
                entry[1] += total
                entry[2] += own
        return merged

    def record(self) -> Dict[str, object]:
        """Everything the tracer saw, for the trace file."""
        return {
            "totals": {
                name: {"calls": int(calls), "total_s": total, "self_s": own}
                for name, (calls, total, own) in sorted(self.totals().items())
            },
            "spans": self.kept_spans(),
            "level_times": self.level_times,
        }

    def kept_spans(self) -> List[Dict[str, object]]:
        with self._lock:
            threads = list(self._threads)
        spans = [span for _, kept in threads for span in kept]
        spans.sort(key=lambda span: span[4])
        return [
            {
                "id": span_id,
                "parent": parent,
                "name": name,
                "request": request,
                "start": start,
                "end": end,
                "thread": thread,
            }
            for span_id, parent, name, request, start, end, thread in spans
        ]

    def level_growth(self) -> float:
        """Median over runs of (mean last-tenth level time / mean first-tenth)."""
        ratios = []
        for times in self.level_times:
            if not times:
                continue
            tenth = max(1, len(times) // 10)
            first = sum(times[:tenth]) / tenth
            last = sum(times[-tenth:]) / tenth
            if first > 0:
                ratios.append(last / first)
        return statistics.median(ratios) if ratios else 0.0
