"""Tests for the baseline counters: ACJR-style, Monte-Carlo and brute force."""

from __future__ import annotations

import pytest

from repro.automata import families
from repro.automata.exact import count_exact
from repro.automata.nfa import NFA
from repro.counting.acjr import ACJRCounter, ACJRParameters
from repro.counting.api import count
from repro.counting.params import acjr_samples_per_state
from repro.errors import ParameterError


class TestBruteForce:
    def test_matches_exact_counter(self, substring_101_nfa):
        for length in range(8):
            assert count(substring_101_nfa, length, method="bruteforce").raw == count_exact(
                substring_101_nfa, length
            )

    def test_negative_length_rejected(self, substring_101_nfa):
        with pytest.raises(ParameterError):
            count(substring_101_nfa, -1, method="bruteforce").raw

    def test_limit_enforced(self, substring_101_nfa):
        with pytest.raises(ParameterError):
            count(substring_101_nfa, 30, method="bruteforce", limit=1000).raw

    def test_limit_can_be_disabled(self, substring_101_nfa):
        assert count(substring_101_nfa, 4, method="bruteforce", limit=None).raw == count_exact(
            substring_101_nfa, 4
        )


class TestMonteCarlo:
    def test_dense_language_estimate(self):
        nfa = families.all_words_nfa()
        estimate = count(nfa, 10, method="montecarlo", num_samples=500, seed=1).raw
        assert estimate.estimate == pytest.approx(1024.0)
        assert estimate.density_estimate == 1.0

    def test_moderate_density_estimate(self, substring_101_nfa):
        exact = count_exact(substring_101_nfa, 10)
        estimate = count(substring_101_nfa, 10, method="montecarlo", num_samples=6000, seed=2).raw
        assert estimate.relative_error(exact) < 0.15

    def test_sparse_language_misses(self):
        # Only a single word of length 12 is accepted; 200 random samples
        # essentially never find it — the failure mode the FPRAS avoids.
        transitions = [(f"s{i}", "0", f"s{i+1}") for i in range(12)]
        nfa = NFA.build(
            transitions, initial="s0", accepting=["s12"], alphabet=("0", "1")
        )
        estimate = count(nfa, 12, method="montecarlo", num_samples=200, seed=3).raw
        assert estimate.hits == 0
        assert estimate.estimate == 0.0

    def test_invalid_arguments(self, substring_101_nfa):
        with pytest.raises(ParameterError):
            count(substring_101_nfa, -1, method="montecarlo").raw
        with pytest.raises(ParameterError):
            count(substring_101_nfa, 4, method="montecarlo", num_samples=0).raw

    def test_reproducible_with_seed(self, substring_101_nfa):
        first = count(substring_101_nfa, 8, method="montecarlo", num_samples=500, seed=7).raw
        second = count(substring_101_nfa, 8, method="montecarlo", num_samples=500, seed=7).raw
        assert first.estimate == second.estimate

    def test_relative_error_zero_exact(self):
        nfa = NFA.build([("a", "0", "b")], initial="a", accepting=["b"])
        estimate = count(nfa, 3, method="montecarlo", num_samples=100, seed=1).raw
        assert estimate.relative_error(0) == 0.0


class TestACJRParameters:
    def test_invalid_epsilon(self):
        with pytest.raises(ParameterError):
            ACJRParameters(epsilon=0.0)

    def test_invalid_delta(self):
        with pytest.raises(ParameterError):
            ACJRParameters(delta=0.0)

    def test_invalid_sample_cap(self):
        with pytest.raises(ParameterError):
            ACJRParameters(sample_cap=1)

    def test_paper_sample_formula(self):
        params = ACJRParameters(epsilon=0.5)
        assert params.samples_per_state_paper(4, 5) == pytest.approx(
            acjr_samples_per_state(4, 5, 0.5)
        )

    def test_operational_samples_capped(self):
        params = ACJRParameters(epsilon=0.1, sample_cap=64)
        assert params.samples_per_state(10, 10) == 64

    def test_operational_samples_small_instance(self):
        params = ACJRParameters(epsilon=2.0, sample_cap=10**9)
        # kappa = mn/eps = 1 -> kappa^7 = 1 -> floor at 2.
        assert params.samples_per_state(1, 2) >= 2


class TestACJRCounter:
    def test_negative_length_rejected(self, substring_101_nfa):
        with pytest.raises(ParameterError):
            ACJRCounter(substring_101_nfa, -1)

    @pytest.mark.parametrize(
        "builder, length",
        [
            (lambda: families.substring_nfa("101"), 8),
            (lambda: families.no_consecutive_ones_nfa(), 8),
            (lambda: families.union_of_patterns_nfa(["00", "11"]), 7),
        ],
    )
    def test_accuracy(self, builder, length):
        nfa = builder()
        exact = count_exact(nfa, length)
        result = count(nfa, length, method="acjr", epsilon=0.3, sample_cap=64, seed=1).raw
        assert result.relative_error(exact) < 0.35

    def test_empty_slice(self):
        nfa = NFA.build([("a", "0", "b")], initial="a", accepting=["b"])
        result = count(nfa, 3, method="acjr", seed=1).raw
        assert result.estimate == 0.0

    def test_result_diagnostics(self, substring_101_nfa):
        result = count(substring_101_nfa, 6, method="acjr", epsilon=0.4, sample_cap=32, seed=2).raw
        assert result.ns == 32 or result.ns <= 32
        assert result.sample_draws >= result.sample_successes
        assert result.membership_calls >= 0
        assert result.elapsed_seconds > 0

    def test_deterministic_given_seed(self, suffix_nfa_0110):
        first = count(suffix_nfa_0110, 7, method="acjr", epsilon=0.4, seed=11).estimate
        second = count(suffix_nfa_0110, 7, method="acjr", epsilon=0.4, seed=11).estimate
        assert first == second

    def test_keeps_more_samples_than_new_scheme_formula(self):
        # The configured (pre-cap) sample counts preserve the paper's gap.
        params = ACJRParameters(epsilon=0.3)
        from repro.counting.params import paper_samples_per_state

        assert params.samples_per_state_paper(8, 10) > paper_samples_per_state(10, 0.3)
