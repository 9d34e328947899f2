"""Statistical regression tests: sampler uniformity and estimator accuracy.

Two seeded, fully deterministic statistical checks that run in tier-1:

* a chi-square goodness-of-fit test of the uniform word sampler against the
  exactly-enumerated language slice (Inv-2 made operational).  The critical
  value is computed with the Wilson–Hilferty approximation so the test needs
  no external statistics package;
* a relative-error check of ``approx_count`` cross-validated against the
  independent brute-force enumerator (not the subset-construction exact
  counter the FPRAS shares structure with).

Both checks are seeded, so they are regression tests, not flaky
hypothesis tests: the sampled values are identical on every run (and on
every backend — enforced by the parity suite); the statistical thresholds
merely document that the locked behaviour is *also* statistically sound.
"""

from __future__ import annotations

import math
import random
from collections import Counter

import pytest

from repro.automata import families
from repro.automata.exact import enumerate_slice
from repro.counting.api import count
from repro.counting.fpras import NFACounter
from repro.counting.params import FPRASParameters, ParameterScale
from repro.counting.uniform import UniformWordSampler


def chi_square_critical(df: int, alpha: float = 0.001) -> float:
    """Upper critical value of the chi-square distribution.

    Wilson–Hilferty: ``chi2_df(q) ≈ df (1 - 2/(9 df) + z_q sqrt(2/(9 df)))^3``
    with ``z_q`` the standard-normal quantile — accurate to a fraction of a
    percent for the df used here, which is ample for a 0.1% tail test.
    """
    z = _normal_quantile(1.0 - alpha)
    factor = 1.0 - 2.0 / (9.0 * df) + z * math.sqrt(2.0 / (9.0 * df))
    return df * factor**3


def _normal_quantile(p: float) -> float:
    """Standard normal quantile via the inverse error function."""
    # erfinv through Winitzki's approximation (matches analysis.statistics).
    value = 2.0 * p - 1.0
    a = 0.147
    sign = 1.0 if value >= 0 else -1.0
    ln_term = math.log(1.0 - value * value)
    first = 2.0 / (math.pi * a) + ln_term / 2.0
    return sign * math.sqrt(2.0) * math.sqrt(
        math.sqrt(first * first - ln_term / a) - first
    )


class TestSamplerUniformity:
    @pytest.mark.parametrize(
        "name,nfa,length",
        [
            ("no_consecutive_ones", families.no_consecutive_ones_nfa(), 7),
            ("substring_11", families.substring_nfa("11"), 6),
            ("parity_3", families.parity_nfa(3), 7),
        ],
    )
    def test_chi_square_uniformity(self, name, nfa, length):
        population = enumerate_slice(nfa, length)
        assert population, "test instance must have a non-empty slice"
        support = len(population)
        samples_per_word = 40
        sample_count = samples_per_word * support

        parameters = FPRASParameters(
            epsilon=0.3,
            delta=0.1,
            scale=ParameterScale.practical(sample_cap=24, union_trial_cap=32),
            seed=101,
        )
        counter = NFACounter(nfa, length, parameters)
        sampler = UniformWordSampler(counter, rng=random.Random(2024))
        words = sampler.sample_many(sample_count)

        counts = Counter(words)
        # Every sampled word must be in the language (correctness, not stats).
        assert set(counts) <= set(population), name
        expected = sample_count / support
        statistic = sum(
            (counts.get(word, 0) - expected) ** 2 / expected for word in population
        )
        critical = chi_square_critical(support - 1, alpha=0.001)
        assert statistic < critical, (
            f"{name}: chi2={statistic:.1f} >= critical={critical:.1f} "
            f"(support={support}, samples={sample_count})"
        )


class TestApproxCountAccuracy:
    @pytest.mark.parametrize(
        "name,nfa,length",
        [
            ("substring_101", families.substring_nfa("101"), 9),
            ("suffix_0110", families.suffix_nfa("0110"), 8),
            ("divisibility_5", families.divisibility_nfa(5), 9),
            ("union_patterns", families.union_of_patterns_nfa(["00", "11"]), 8),
        ],
    )
    def test_relative_error_against_bruteforce(self, name, nfa, length):
        exact = count(nfa, length, method="bruteforce").raw
        assert exact > 0
        errors = []
        for seed in range(5):
            result = count(nfa, length, epsilon=0.3, delta=0.1, seed=seed).raw
            errors.append(result.relative_error(exact))
        # Individual runs stay within a loose multiple of epsilon (the scaled
        # constants weaken the concentration bound); the mean is tighter.
        assert max(errors) < 0.75, (name, errors)
        assert sum(errors) / len(errors) < 0.35, (name, errors)

    def test_bruteforce_agrees_with_independent_simulation(self):
        # Sanity-check the oracle itself: prefix-tree enumeration equals the
        # per-word NFA simulation it replaced.
        nfa = families.substring_nfa("0101")
        length = 8
        expected = sum(
            1
            for word in _all_words(nfa.alphabet, length)
            if nfa.accepts(word)
        )
        assert count(nfa, length, method="bruteforce").raw == expected


def _all_words(alphabet, length):
    import itertools

    return itertools.product(alphabet, repeat=length)
