"""Typed execution policies and declarative method capabilities.

Pins the contracts behind the capability-negotiated API redesign:

* :class:`~repro.counting.policy.ExecutionPolicy` — validation, the
  defaults-omitted option emission that keeps a default policy
  fingerprint-neutral, and ``CountRequest.policy`` as the only place the
  execution knobs live;
* how a session's pinned policy flows into (and degrades for) requests;
* the method registry's declared capabilities (which dispatch reads);
* removed spellings — the ``kernel`` knob, the ``"auto"`` backend and the
  flat execution kwargs — which must fail inside the ``ReproError``
  hierarchy before any counting work starts.
"""

from __future__ import annotations

import warnings

import pytest

import repro.counting.api as api_module
from repro.applications import (
    GraphDatabase,
    LayeredProbabilisticGraph,
    PathQuery,
    ProbabilisticDatabase,
    RegularPathQuery,
    RPQCounter,
    estimate_leakage_bits,
    evaluate_path_query,
    homomorphism_probability,
)
from repro.automata import families
from repro.counting.api import (
    METHOD_REGISTRY,
    RESULT_NEUTRAL_OPTIONS,
    CountingSession,
    CountRequest,
    canonical_request_knobs,
    count,
    request_fingerprint,
)
from repro.counting.policy import (
    POLICY_OPTION_NAMES,
    ExecutionPolicy,
    MethodCapabilities,
)
from repro.errors import CountingMethodError, ParameterError, ReproError


class TestExecutionPolicyValidation:
    def test_defaults_are_the_implicit_policy(self):
        policy = ExecutionPolicy()
        assert policy.backend is None
        assert policy.use_engine_cache is True
        assert policy.workers == 1
        assert policy.method_options() == {}

    def test_unknown_backend_rejected(self):
        with pytest.raises(ParameterError):
            ExecutionPolicy(backend="no-such-backend")

    def test_auto_backend_rejected(self):
        with pytest.raises(ParameterError, match="'auto'"):
            ExecutionPolicy(backend="auto")

    @pytest.mark.parametrize(
        "knobs",
        [
            {"use_engine_cache": "yes"},
            {"workers": -1},
            {"shards": 0},
            {"store": "csv"},
            {"window": 0},
            {"window": "4"},
        ],
    )
    def test_invalid_knobs_rejected(self, knobs):
        with pytest.raises(ParameterError):
            ExecutionPolicy(**knobs)

    def test_method_options_omit_defaults(self):
        # Core knobs never appear as options; managed options only when
        # non-default — the fingerprint-neutrality mechanism.
        assert ExecutionPolicy(backend="numpy", workers=4).method_options() == {}
        assert ExecutionPolicy(
            shards=3, store="windowed", window=2
        ).method_options() == {
            "shards": 3,
            "store": "windowed",
            "window": 2,
        }

    def test_with_overrides(self):
        policy = ExecutionPolicy(backend="bitset")
        tweaked = policy.with_overrides(workers=2, window=8)
        assert tweaked.backend == "bitset"
        assert tweaked.workers == 2 and tweaked.window == 8
        assert policy.workers == 1  # frozen original untouched

    def test_describe_lists_every_knob(self):
        described = ExecutionPolicy().describe()
        assert set(described) == {
            "backend",
            "use_engine_cache",
            "workers",
            *POLICY_OPTION_NAMES,
        }

    def test_policy_managed_options_are_result_neutral_or_plan_knobs(self):
        # Every managed option except the plan-selecting `shards` must be
        # result-neutral, or policies could perturb the result cache.
        assert set(POLICY_OPTION_NAMES) - {"shards"} <= RESULT_NEUTRAL_OPTIONS


class TestPolicyRequestRoundTrip:
    def test_fingerprint_neutrality(self):
        nfa_doc = {"states": ["a"], "initial": "a", "transitions": [], "accepting": ["a"]}
        styled = CountRequest(
            method="fpras", seed=3, policy=ExecutionPolicy(backend="bitset")
        )
        windowed = CountRequest(
            method="fpras",
            seed=3,
            policy=ExecutionPolicy(backend="bitset", store="windowed"),
        )
        parallel = CountRequest(
            method="fpras",
            seed=3,
            policy=ExecutionPolicy(backend="bitset", workers=4, use_engine_cache=False),
        )
        assert canonical_request_knobs(windowed, 6) == canonical_request_knobs(styled, 6)
        fingerprints = {
            request_fingerprint(nfa_doc, 6, request)
            for request in (styled, windowed, parallel)
        }
        assert len(fingerprints) == 1  # store and workers are result-neutral by contract

    def test_policy_must_be_a_policy(self):
        with pytest.raises(ParameterError):
            CountRequest(method="fpras", policy={"backend": "bitset"})

    def test_default_policy_is_the_field_default(self):
        assert CountRequest().policy == ExecutionPolicy()

    @pytest.mark.parametrize("name", POLICY_OPTION_NAMES)
    def test_policy_knobs_rejected_as_options(self, name):
        value = {"shards": 2, "store": "windowed", "window": 8}[name]
        with pytest.raises(ParameterError, match="policy="):
            CountRequest(method="fpras", options={name: value})


class TestSessionPolicy:
    @pytest.fixture()
    def parity_nfa_2(self):
        return families.parity_nfa(2)

    def test_session_policy_flows_into_requests(self, parity_nfa_2):
        session = CountingSession(
            epsilon=0.5,
            seed=5,
            policy=ExecutionPolicy(backend="bitset", store="windowed"),
        )
        pinned = session.request()
        assert pinned.policy.backend == "bitset"
        assert pinned.policy.store == "windowed"
        # A method that does not accept the store knob gets it reset.
        assert session.request(method="exact").policy.store == "dict"
        assert session.count(parity_nfa_2, 4, method="exact").raw > 0

    def test_pinned_knobs_degrade_per_method(self):
        policy = ExecutionPolicy(backend="bitset", workers=2, shards=2, store="windowed")
        session = CountingSession(seed=5, policy=policy)
        assert session.request("fpras").policy == policy
        assert session.request("montecarlo").policy == ExecutionPolicy(
            backend="bitset", workers=2
        )
        assert session.request("acjr").policy == ExecutionPolicy(backend="bitset")

    def test_per_call_policy_is_verbatim_and_strict(self, parity_nfa_2):
        session = CountingSession(seed=5, policy=ExecutionPolicy(workers=2))
        explicit = ExecutionPolicy(workers=2)
        assert session.request("exact", policy=explicit).policy is explicit
        with pytest.raises(CountingMethodError, match="workers=2"):
            session.count(parity_nfa_2, 4, method="exact", policy=explicit)
        with pytest.raises(CountingMethodError, match="shards"):
            session.count(
                parity_nfa_2, 4, method="montecarlo", policy=ExecutionPolicy(shards=2)
            )
        with pytest.raises(CountingMethodError, match="store"):
            session.count(
                parity_nfa_2, 4, method="acjr", policy=ExecutionPolicy(store="windowed")
            )

    def test_pinned_policy_must_suit_the_pinned_method(self):
        with pytest.raises(CountingMethodError, match="shards"):
            CountingSession(method="acjr", policy=ExecutionPolicy(shards=2))


def _rpq_estimate(policy):
    database = GraphDatabase.from_edges(
        [
            ("alice", "knows", "bob"),
            ("alice", "knows", "carol"),
            ("bob", "knows", "carol"),
            ("bob", "worksAt", "acme"),
            ("carol", "worksAt", "acme"),
        ]
    )
    query = RegularPathQuery("alice", "(<knows>)*<worksAt>", "acme", max_length=4)
    return RPQCounter(database, query).count_report(seed=9, policy=policy).estimate


def _leakage_estimate(policy):
    return estimate_leakage_bits(
        families.substring_nfa("101"), 7, seed=9, policy=policy
    ).leakage_bits


def _pqe_estimate(policy):
    database = ProbabilisticDatabase()
    database.add_fact("R", "a", "b", 0.5)
    database.add_fact("R", "a", "c", 0.75)
    database.add_fact("S", "b", "z", 0.5)
    database.add_fact("S", "c", "z", 0.25)
    return evaluate_path_query(
        database, PathQuery(("R", "S")), seed=9, policy=policy
    ).probability


def _homomorphism_estimate(policy):
    graph = LayeredProbabilisticGraph()
    graph.add_layer(["s"])
    graph.add_layer(["m1", "m2"])
    graph.add_layer(["t"])
    graph.add_edge(0, "s", "m1", 0.5)
    graph.add_edge(0, "s", "m2", 0.5)
    graph.add_edge(1, "m1", "t", 0.5)
    graph.add_edge(1, "m2", "t", 0.75)
    return homomorphism_probability(graph, seed=9, policy=policy).probability


class TestApplicationPolicies:
    """Every application entry point takes one ``policy`` and threads it to
    the counting run without going through any deprecated spelling."""

    @pytest.mark.parametrize(
        "estimate",
        [_rpq_estimate, _leakage_estimate, _pqe_estimate, _homomorphism_estimate],
        ids=["rpq", "leakage", "pqe", "homomorphism"],
    )
    def test_policy_matches_default_estimate(self, estimate):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            via_policy = estimate(ExecutionPolicy(backend="reference"))
        assert via_policy == estimate(None)


class TestMethodCapabilities:
    def test_defaults(self):
        capabilities = MethodCapabilities()
        assert capabilities.workers is False
        assert capabilities.progress is False
        assert capabilities.stores == ("dict",)

    @pytest.mark.parametrize(
        "knobs",
        [
            {"workers": 1},
            {"progress": "yes"},
            {"stores": ("dict", "paper")},
            {"stores": ()},
            {"stores": ["dict"]},
            {"stores": ("paper",)},
        ],
    )
    def test_invalid_records_rejected(self, knobs):
        with pytest.raises(ParameterError):
            MethodCapabilities(**knobs)

    def test_registry_declares_capabilities(self):
        fpras = METHOD_REGISTRY["fpras"].capabilities
        assert fpras.workers and fpras.progress
        assert fpras.stores == ("dict", "windowed")
        exact = METHOD_REGISTRY["exact"].capabilities
        assert not exact.workers and not exact.progress
        montecarlo = METHOD_REGISTRY["montecarlo"].capabilities
        assert montecarlo.workers and montecarlo.progress


class TestRemovedSpellings:
    """The ``kernel`` knob, the ``"auto"`` backend and the flat execution
    kwargs are gone: every old spelling fails inside the ``ReproError``
    hierarchy before a run starts."""

    @pytest.fixture()
    def no_counting(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("counting work started")

        monkeypatch.setattr(api_module, "fpras_counter", refuse)

    def test_count_with_auto_backend_fails_early(self, no_counting):
        with pytest.raises(ParameterError, match="'auto'"):
            count(families.parity_nfa(2), 4, policy=ExecutionPolicy(backend="auto"), seed=1)

    def test_count_with_kernel_option_fails_early(self, no_counting):
        with pytest.raises(CountingMethodError, match="kernel"):
            count(families.parity_nfa(2), 4, seed=1, kernel="off")

    @pytest.mark.parametrize(
        "knob",
        [
            {"backend": "bitset"},
            {"use_engine_cache": False},
            {"workers": 2},
            {"shards": 2},
            {"store": "windowed"},
        ],
    )
    def test_flat_execution_kwargs_fail_early(self, no_counting, knob):
        with pytest.raises(ReproError, match=next(iter(knob))):
            count(families.parity_nfa(2), 4, seed=1, **knob)

    def test_session_with_flat_backend_fails_early(self):
        with pytest.raises(CountingMethodError, match="backend"):
            CountingSession(seed=1, backend="bitset")
