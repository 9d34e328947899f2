"""The benchmark's four workloads: inputs built from a seed, and one timed pass.

Every workload counts with the paper's FPRAS at epsilon=0.4, delta=0.2.  A
*pass* sends the workload's whole request list once, in a fixed order, and
returns one :class:`Outcome` per request.  Passes of one run repeat the same
requests with the same counting seeds, so their estimates and work counters
must agree exactly; ``run.py`` checks that.

Building a workload is its set-up: imports (paid by the importer), instance
construction, engine construction (the shared engine registry is filled so
no timed count builds transition tables) and, for ``serve``, the server and
its warm worker pool.
"""

from __future__ import annotations

import hashlib
import http.client
import json
import random
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import repro
from repro.automata.engine import acquire_engine
from repro.automata.families import no_consecutive_ones_nfa
from repro.automata.nfa import NFA
from repro.automata.random_gen import random_nfa
from repro.automata.serialization import nfa_to_dict
from repro.corpus.registry import load_corpus
from repro.counting.policy import ExecutionPolicy
from repro.serve.server import CountingServer
from repro.workloads.longwords import long_word_scale, unary_loop_nfa

EPSILON = 0.4
DELTA = 0.2

#: Per-count work counters that must repeat exactly at one seed.  Keys are
#: the benchmark's layer names; values say where a report carries them.
COUNTER_SOURCES = {
    "engine.pre_ops": ("engine_counters", "pre_ops"),
    "engine.step_ops": ("engine_counters", "step_ops"),
    "union.calls_reported": ("details", "union_calls"),
    "unroll.membership_calls": ("details", "membership_calls"),
    "sampler.draws": ("details", "sample_draws"),
    "sampler.successes": ("raw", "sample_successes"),
    "sampler.padded_states": ("details", "padded_states"),
    "store.spilled_levels": ("engine_counters", "store_spilled_levels"),
    "store.level_faults": ("engine_counters", "store_level_faults"),
    "store.spill_bytes": ("engine_counters", "store_spill_bytes"),
}


def derive_seed(seed: int, *path: object) -> int:
    """A 48-bit seed for one named input, derived from the benchmark seed."""
    text = "/".join(str(part) for part in (seed, *path))
    return int(hashlib.sha256(text.encode("utf-8")).hexdigest()[:12], 16)


def counters_of(report: Dict[str, object]) -> Dict[str, int]:
    """The deterministic counters of one report (``CountReport.to_dict`` form)."""
    counters = {}
    for name, (section, key) in COUNTER_SOURCES.items():
        counters[name] = int((report.get(section) or {}).get(key, 0))
    return counters


@dataclass(frozen=True)
class Instance:
    """One counting question: an automaton, a length and a counting seed."""

    name: str
    nfa: NFA
    length: int
    seed: int


@dataclass
class Outcome:
    """What one request returned, as the client saw it."""

    instance: str
    latency_s: float
    estimate: Optional[float] = None
    counters: Dict[str, int] = field(default_factory=dict)
    error: Optional[str] = None
    #: ``True`` when the reply came from the result cache (``serve`` only).
    cached: Optional[bool] = None


#: Runs one request's thunk and returns its outcome (the tracer's root span).
Wrap = Callable[[Callable[[], Outcome]], Outcome]


def _send_all(
    ask: Callable[[int], Outcome], requests: List[int], wrap: Optional[Wrap]
) -> Tuple[float, List[Outcome]]:
    """Send ``requests`` in order; returns the wall time and the outcomes."""
    outcomes = []
    started = time.perf_counter()
    for index in requests:
        if wrap is None:
            outcomes.append(ask(index))
        else:
            outcomes.append(wrap(lambda: ask(index)))
    return time.perf_counter() - started, outcomes


def _report_document(report) -> Dict[str, object]:
    """The parts of a ``CountReport`` the counters are read from."""
    raw = report.raw
    return {
        "engine_counters": report.engine_counters,
        "details": report.details,
        "raw": {"sample_successes": getattr(raw, "sample_successes", 0)},
    }


class LibraryWorkload:
    """Counts asked in-process through ``repro.count``, one after another."""

    #: The counts run in this process (see ``host_slowdown`` in ``run.py``).
    in_process = True

    def __init__(
        self,
        name: str,
        instances: List[Instance],
        policy: ExecutionPolicy,
        options: Optional[Dict[str, object]] = None,
    ) -> None:
        self.name = name
        self.instances = instances
        self.requests = list(range(len(instances)))
        self.policy = policy
        self.options = dict(options or {})
        for instance in instances:
            acquire_engine(instance.nfa, policy.backend)

    def prepare(self) -> None:
        """Nothing to start before a library pass."""

    def run_pass(self, wrap: Optional[Wrap] = None) -> Tuple[float, List[Outcome]]:
        """Count every instance once; returns the pass wall time and outcomes."""
        return _send_all(self.ask, self.requests, wrap)

    def ask(self, index: int) -> Outcome:
        instance = self.instances[index]
        begin = time.perf_counter()
        try:
            report = repro.count(
                instance.nfa,
                instance.length,
                epsilon=EPSILON,
                delta=DELTA,
                seed=instance.seed,
                policy=self.policy,
                **self.options,
            )
        except Exception as exc:  # a failed count is recorded, not fatal
            return Outcome(instance.name, time.perf_counter() - begin, error=repr(exc))
        latency = time.perf_counter() - begin
        return Outcome(
            instance.name,
            latency,
            estimate=report.estimate,
            counters=counters_of(_report_document(report)),
        )

    def layer_counts(self) -> Dict[str, int]:
        """Counts only a served workload has (pools, cache); zero here."""
        return {}

    def close(self) -> None:
        """Nothing outlives a library pass."""


def corpus_instances(seed: int) -> List[Instance]:
    """The 18 corpus fixtures, each at its largest suggested length."""
    return [
        Instance(
            fixture.corpus_id,
            fixture.nfa,
            max(fixture.lengths),
            derive_seed(seed, "count", fixture.corpus_id),
        )
        for fixture in load_corpus().values()
    ]


def build_corpus(seed: int) -> LibraryWorkload:
    return LibraryWorkload("corpus", corpus_instances(seed), ExecutionPolicy())


def build_random(seed: int) -> LibraryWorkload:
    instances = []
    for states, length in ((48, 10), (512, 3)):
        name = f"random_nfa.m{states}.n{length}"
        nfa = random_nfa(states, seed=derive_seed(seed, "instance", name))
        instances.append(Instance(name, nfa, length, derive_seed(seed, "count", name)))
    return LibraryWorkload("random", instances, ExecutionPolicy())


def build_longword(seed: int) -> LibraryWorkload:
    name = "unary_loop.n4000"
    instance = Instance(name, unary_loop_nfa(), 4000, derive_seed(seed, "count", name))
    return LibraryWorkload(
        "longword",
        [instance],
        ExecutionPolicy(store="windowed", window=4),
        {"scale": long_word_scale()},
    )


class ServeWorkload:
    """One closed-loop HTTP client against an in-process ``CountingServer``.

    Each pass runs against a fresh server (so every first request for an
    instance misses the result cache) whose worker pool was spawned by a
    warm-up request before the pass is timed.
    """

    WORKERS = 2
    SHARDS = 2
    REPEATS = 4
    #: The counts run in the executor's worker processes.
    in_process = False

    def __init__(self, seed: int) -> None:
        self.name = "serve"
        self.instances = corpus_instances(seed)
        self.bodies = [
            json.dumps(
                {
                    "automaton": nfa_to_dict(instance.nfa),
                    "length": instance.length,
                    "epsilon": EPSILON,
                    "delta": DELTA,
                    "seed": instance.seed,
                }
            ).encode("utf-8")
            for instance in self.instances
        ]
        order = [index for index in range(len(self.instances)) for _ in range(self.REPEATS)]
        random.Random(derive_seed(seed, "order")).shuffle(order)
        self.requests = order
        # Fill the engine registry before the pool forks, so coordinator
        # and workers alike start every pass with built transition tables.
        for instance in self.instances:
            acquire_engine(instance.nfa)
        self._warmup = json.dumps(
            {
                "automaton": nfa_to_dict(no_consecutive_ones_nfa()),
                "length": 6,
                "seed": derive_seed(seed, "warmup"),
            }
        ).encode("utf-8")
        self.server: Optional[CountingServer] = None
        self._last_counts: Dict[str, int] = {}
        self.prepare()

    def prepare(self) -> None:
        """Start a server and spawn its worker pool, unless one is running."""
        if self.server is not None:
            return
        self.server = CountingServer(
            port=0, workers=self.WORKERS, shards=self.SHARDS
        ).start()
        try:
            status, _ = self._post(self._warmup)
            if status != 200:
                raise RuntimeError(f"serve warm-up request failed with HTTP {status}")
        except BaseException:
            self.close()
            raise

    def _post(self, body: bytes) -> Tuple[int, Dict[str, object]]:
        host, port = self.server.address
        connection = http.client.HTTPConnection(host, port, timeout=120)
        try:
            connection.request(
                "POST", "/count", body=body, headers={"Content-Type": "application/json"}
            )
            response = connection.getresponse()
            return response.status, json.loads(response.read())
        finally:
            connection.close()

    def _snapshot(self) -> Dict[str, int]:
        stats = self.server.stats()
        return {
            "serve.cache_hits": stats["counters"]["cache_hits"],
            "serve.cache_misses": stats["counters"]["cache_misses"],
            "serve.rejected": stats["queue"]["rejected"],
            "exec.pools_created": stats["pools"]["created"],
            "exec.pools_reused": stats["pools"]["reused"],
        }

    def run_pass(self, wrap: Optional[Wrap] = None) -> Tuple[float, List[Outcome]]:
        """Send the 72 requests; the server is closed after the pass."""
        self.prepare()
        before = self._snapshot()
        wall, outcomes = _send_all(self.ask, self.requests, wrap)
        after = self._snapshot()
        self._last_counts = {key: after[key] - before[key] for key in after}
        self.close()
        return wall, outcomes

    def ask(self, index: int) -> Outcome:
        name = self.instances[index].name
        begin = time.perf_counter()
        try:
            status, document = self._post(self.bodies[index])
        except (OSError, http.client.HTTPException, ValueError) as exc:
            return Outcome(name, time.perf_counter() - begin, error=repr(exc))
        latency = time.perf_counter() - begin
        if status != 200:
            return Outcome(name, latency, error=f"HTTP {status}: {document.get('error')}")
        return Outcome(
            name,
            latency,
            estimate=document["estimate"],
            counters=counters_of(document),
            cached=document["served"]["cached"],
        )

    def layer_counts(self) -> Dict[str, int]:
        """Cache, queue and pool counts of the last pass, from ``/stats`` data."""
        return dict(self._last_counts)

    def close(self) -> None:
        if self.server is not None:
            self.server.close()
            self.server = None


CONSTRUCTORS = {
    "corpus": build_corpus,
    "random": build_random,
    "longword": build_longword,
    "serve": ServeWorkload,
}
