"""Typed execution policies and declarative method capabilities.

Pins the contracts behind the capability-negotiated API redesign:

* :class:`~repro.counting.policy.ExecutionPolicy` — validation, the
  defaults-omitted option emission that keeps the policy spelling
  fingerprint-neutral, and the ``CountRequest`` round trip;
* the deprecation shims: the flat execution kwargs on :func:`repro.count`
  and :class:`~repro.counting.api.CountingSession` keep working but warn,
  and the legacy ``supports_workers=`` registration flag maps onto
  :class:`~repro.counting.policy.MethodCapabilities`;
* the method registry's declared capabilities (which dispatch reads
  instead of ``getattr`` probes);
* the removed ``kernel`` knob and ``"auto"`` backend, which must fail
  inside the ``ReproError`` hierarchy before any counting work starts.
"""

from __future__ import annotations

import warnings

import pytest

import repro.counting.api as api_module
from repro.automata import families
from repro.counting.api import (
    METHOD_REGISTRY,
    RESULT_NEUTRAL_OPTIONS,
    CountingSession,
    CountRequest,
    canonical_request_knobs,
    count,
    register_method,
    request_fingerprint,
)
from repro.counting.policy import (
    POLICY_OPTION_NAMES,
    ExecutionPolicy,
    MethodCapabilities,
)
from repro.errors import CountingMethodError, ParameterError


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
    def test_policy_and_flat_spellings_denote_equal_requests(self):
        flat = CountRequest(
            method="fpras",
            seed=7,
            backend="bitset",
            workers=2,
            options={"store": "windowed"},
        )
        styled = CountRequest(
            method="fpras",
            seed=7,
            policy=ExecutionPolicy(backend="bitset", workers=2, store="windowed"),
        )
        assert styled == flat
        assert styled.policy is None  # consumed during normalisation

    def test_fingerprint_neutrality(self):
        nfa_doc = {"states": ["a"], "initial": "a", "transitions": [], "accepting": ["a"]}
        flat = CountRequest(method="fpras", seed=3, backend="bitset")
        styled = CountRequest(
            method="fpras", seed=3, policy=ExecutionPolicy(backend="bitset")
        )
        windowed = CountRequest(
            method="fpras",
            seed=3,
            policy=ExecutionPolicy(backend="bitset", store="windowed"),
        )
        assert canonical_request_knobs(styled, 6) == canonical_request_knobs(flat, 6)
        fingerprints = {
            request_fingerprint(nfa_doc, 6, request)
            for request in (flat, styled, windowed)
        }
        assert len(fingerprints) == 1  # the store is result-neutral by contract

    def test_round_trip_from_request(self):
        policy = ExecutionPolicy(
            backend="numpy", workers=3, shards=2, store="windowed", window=2
        )
        request = CountRequest(method="fpras", policy=policy)
        assert ExecutionPolicy.from_request(request) == policy
        assert request.execution_policy() == policy

    def test_conflicting_flat_knobs_rejected(self):
        with pytest.raises(ParameterError):
            CountRequest(
                method="fpras",
                backend="bitset",
                policy=ExecutionPolicy(backend="numpy"),
            )
        with pytest.raises(ParameterError):
            CountRequest(
                method="fpras",
                options={"store": "windowed"},
                policy=ExecutionPolicy(),
            )

    def test_policy_must_be_a_policy(self):
        with pytest.raises(ParameterError):
            CountRequest(method="fpras", policy={"backend": "bitset"})


class TestDeprecationShims:
    @pytest.fixture()
    def parity_nfa_2(self):
        return families.parity_nfa(2)

    def test_flat_kwargs_warn_on_count(self, parity_nfa_2):
        with pytest.warns(DeprecationWarning, match="ExecutionPolicy"):
            count(parity_nfa_2, 4, method="exact", backend="bitset")

    def test_flat_kwargs_warn_on_session(self):
        with pytest.warns(DeprecationWarning, match="ExecutionPolicy"):
            CountingSession(seed=1, workers=2)

    def test_policy_spelling_is_silent(self, parity_nfa_2):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            report = count(
                parity_nfa_2,
                4,
                method="exact",
                policy=ExecutionPolicy(backend="bitset"),
            )
            CountingSession(seed=1, policy=ExecutionPolicy(workers=2))
        assert report.raw == count(parity_nfa_2, 4, method="exact").raw

    def test_default_flat_values_do_not_warn(self, parity_nfa_2):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            count(parity_nfa_2, 4, method="exact")

    def test_session_policy_flows_into_requests(self, parity_nfa_2):
        session = CountingSession(
            epsilon=0.5,
            seed=5,
            policy=ExecutionPolicy(backend="bitset", store="windowed"),
        )
        pinned = session.request()
        assert pinned.backend == "bitset"
        assert pinned.option("store") == "windowed"
        # A method that does not accept the store option drops it.
        assert "store" not in session.request(method="exact").options
        assert session.count(parity_nfa_2, 4, method="exact").raw > 0


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

    def test_supports_workers_compat_property(self):
        assert METHOD_REGISTRY["fpras"].supports_workers is True
        assert METHOD_REGISTRY["exact"].supports_workers is False

    def test_legacy_registration_flag_maps_to_capabilities(self):
        name = "policy-test-legacy"
        try:
            with pytest.warns(DeprecationWarning, match="supports_workers"):

                @register_method(name, summary="legacy shim", supports_workers=True)
                def runner(nfa, length, request):  # pragma: no cover - never run
                    raise AssertionError

            assert METHOD_REGISTRY[name].capabilities.workers is True
        finally:
            METHOD_REGISTRY.pop(name, None)

    def test_legacy_flag_contradicting_capabilities_rejected(self):
        name = "policy-test-contradiction"
        try:
            with pytest.raises(ParameterError), warnings.catch_warnings():
                warnings.simplefilter("ignore", DeprecationWarning)

                @register_method(
                    name,
                    summary="contradiction",
                    capabilities=MethodCapabilities(workers=False),
                    supports_workers=True,
                )
                def runner(nfa, length, request):  # pragma: no cover - never run
                    raise AssertionError

        finally:
            METHOD_REGISTRY.pop(name, None)


class TestRemovedSpellings:
    """The ``kernel`` knob and the ``"auto"`` backend are gone: every old
    spelling fails inside the ``ReproError`` hierarchy before a run starts."""

    @pytest.fixture()
    def no_counting(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("counting work started")

        monkeypatch.setattr(api_module, "fpras_counter", refuse)

    def test_count_with_auto_backend_fails_early(self, no_counting):
        with pytest.raises(ParameterError, match="'auto'"), warnings.catch_warnings():
            warnings.simplefilter("ignore", DeprecationWarning)
            count(families.parity_nfa(2), 4, backend="auto", seed=1)

    def test_count_with_kernel_option_fails_early(self, no_counting):
        with pytest.raises(CountingMethodError, match="kernel"):
            count(families.parity_nfa(2), 4, seed=1, kernel="off")
