"""Typed execution policies and declarative method capabilities.

Execution of a counting run has historically been configured through a
sprawl of flat keyword arguments — ``backend``, ``use_engine_cache``,
``workers`` on the core request plus the fpras-only ``shards`` / ``store``
/ ``window`` options — spelled slightly differently by
:func:`repro.count`, :class:`~repro.counting.api.CountingSession` and the
CLI.  This module is the typed consolidation of that surface:

* :class:`ExecutionPolicy` bundles every knob that decides *how* a run
  executes (never *what* it computes: estimates are bit-identical across
  policies with the same seed, which is what the parity suites enforce).
  It is accepted by :class:`~repro.counting.api.CountRequest`,
  :func:`repro.count`, :class:`~repro.counting.api.CountingSession` and
  the CLI; the old flat kwargs remain as deprecation shims and produce
  byte-identical request fingerprints (the neutrality test in
  ``tests/test_policy.py`` pins this).
* :class:`MethodCapabilities` replaces the ad-hoc ``supports_workers``
  attribute on registry entries with a declarative record (worker
  support, anytime progress, accepted stores).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Optional, Tuple

from repro.automata.engine import available_backends
from repro.errors import ParameterError

#: The per-method option names :class:`ExecutionPolicy` manages.  These
#: are carried inside :attr:`CountRequest.options` (the fpras execution
#: options); the policy emits only non-default values so a default policy
#: denotes exactly the same request — and the same fingerprint — as no
#: policy at all.
POLICY_OPTION_NAMES: Tuple[str, ...] = ("shards", "store", "window")


@dataclass(frozen=True)
class ExecutionPolicy:
    """Every knob deciding *how* a counting run executes, in one record.

    Attributes
    ----------
    backend:
        Simulation-engine name (``None`` selects the default backend).
    use_engine_cache:
        Whether engines come from the shared
        :class:`~repro.automata.engine.EngineRegistry`.
    workers:
        Process count for the sharded executor (``1`` serial, ``0`` one
        per CPU).
    shards:
        Shard-plan size for methods that honour it (fpras).
    store, window:
        State-table store layout (``"dict"`` / ``"windowed"``) and the
        windowed store's resident level count.

    None of these change an estimate — they are execution detail by
    contract, so a policy never perturbs the content-addressed result
    cache (see :data:`~repro.counting.api.RESULT_NEUTRAL_OPTIONS` and the
    fingerprint-neutrality test).

    >>> ExecutionPolicy().describe()["store"]
    'dict'
    >>> ExecutionPolicy(backend="numpy", workers=2).method_options()
    {}
    >>> ExecutionPolicy(store="windowed", window=8).method_options()
    {'store': 'windowed', 'window': 8}
    >>> ExecutionPolicy(backend="auto")  # doctest: +ELLIPSIS
    Traceback (most recent call last):
        ...
    repro.errors.ParameterError: unknown simulation backend 'auto'; available: [...]
    """

    backend: Optional[str] = None
    use_engine_cache: bool = True
    workers: int = 1
    shards: int = 1
    store: str = "dict"
    window: int = 4

    def __post_init__(self) -> None:
        if self.backend is not None and self.backend not in available_backends():
            raise ParameterError(
                f"unknown simulation backend {self.backend!r}; "
                f"available: {list(available_backends())}"
            )
        if not isinstance(self.use_engine_cache, bool):
            raise ParameterError("use_engine_cache must be a bool")
        # Late imports keep this module importable before the counting
        # package finishes wiring (parallel/store import no policy symbols).
        from repro.counting.parallel import validate_shards, validate_workers
        from repro.counting.store import validate_store, validate_window

        validate_workers(self.workers)
        validate_shards(self.shards)
        validate_store(self.store)
        validate_window(self.window)

    # ------------------------------------------------------------------
    def method_options(self) -> Dict[str, object]:
        """The per-method options this policy denotes, defaults omitted.

        Omitting default values is what makes the policy spelling
        fingerprint-neutral: a default policy contributes no options, so
        the canonical request knobs — and hence the content-addressed
        cache key — are byte-identical to the flat-kwarg spelling.
        """
        options: Dict[str, object] = {}
        if self.shards != 1:
            options["shards"] = self.shards
        if self.store != "dict":
            options["store"] = self.store
        if self.window != 4:
            options["window"] = self.window
        return options

    def describe(self) -> Dict[str, object]:
        """The policy as a plain dictionary (for reports and manifests)."""
        return {
            "backend": self.backend,
            "use_engine_cache": self.use_engine_cache,
            "workers": self.workers,
            "shards": self.shards,
            "store": self.store,
            "window": self.window,
        }

    def with_overrides(self, **changes: object) -> "ExecutionPolicy":
        """A modified copy — convenience for sweeps and CLI wiring.

        >>> ExecutionPolicy().with_overrides(workers=4).workers
        4
        """
        return replace(self, **changes)

    @classmethod
    def from_request(cls, request) -> "ExecutionPolicy":
        """The policy a normalised :class:`CountRequest` denotes.

        Inverse of passing ``policy=`` to the request: core execution
        fields come back from the flat attributes, managed options from
        the options mapping (absent options mean defaults), so
        ``ExecutionPolicy.from_request(CountRequest(policy=p)) == p``
        whenever ``p`` only sets policy-managed knobs — the round-trip
        test pins it.
        """
        return cls(
            backend=request.backend,
            use_engine_cache=request.use_engine_cache,
            workers=request.workers,
            shards=request.option("shards", 1),
            store=request.option("store", "dict"),
            window=request.option("window", 4),
        )


@dataclass(frozen=True)
class MethodCapabilities:
    """What a registered counting method declares it can do.

    Dispatch reads these fields instead of probing registry entries with
    ``getattr(..., "supports_workers", False)``, and ``repro methods``
    renders them as capability columns.

    Attributes
    ----------
    workers:
        The runner honours ``CountRequest.workers`` through the sharded
        executor (:mod:`repro.counting.parallel`).
    progress:
        The runner accepts an anytime progress callback
        (:func:`~repro.counting.api.count_with_progress`).
    stores:
        State-table store names the method accepts (every method handles
        the default resident ``"dict"`` store).

    >>> MethodCapabilities().workers
    False
    >>> MethodCapabilities(workers=True, stores=("dict", "windowed")).stores
    ('dict', 'windowed')
    >>> MethodCapabilities(stores=())
    Traceback (most recent call last):
        ...
    repro.errors.ParameterError: stores must name at least one store
    """

    workers: bool = False
    progress: bool = False
    stores: Tuple[str, ...] = ("dict",)

    def __post_init__(self) -> None:
        for flag in ("workers", "progress"):
            if not isinstance(getattr(self, flag), bool):
                raise ParameterError(f"{flag} must be a bool")
        if not isinstance(self.stores, tuple) or not self.stores:
            raise ParameterError("stores must name at least one store")
        from repro.counting.store import validate_store

        for store in self.stores:
            validate_store(store)

    def describe(self) -> Dict[str, object]:
        """The capabilities as a plain dictionary (for ``repro methods``)."""
        return {
            "workers": self.workers,
            "progress": self.progress,
            "stores": list(self.stores),
        }
