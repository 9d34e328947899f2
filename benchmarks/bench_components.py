"""Micro-benchmarks of the FPRAS building blocks.

Not tied to a specific experiment id; these time the individual components
(exact subset DP, determinisation, AppUnion, one full FPRAS run, the ACJR
baseline) so regressions in any layer are visible independently of the
experiment-level numbers.
"""

from __future__ import annotations

import random

from repro.automata.dfa import determinize
from repro.automata.engine import create_engine
from repro.automata.exact import count_exact
from repro.automata.families import substring_nfa, suffix_nfa, union_of_patterns_nfa
from repro.counting.acjr import ACJRCounter, ACJRParameters
from repro.counting.fpras import NFACounter
from repro.counting.params import FPRASParameters, ParameterScale
from repro.counting.union import SetAccess, approximate_union

LENGTH = 10


def test_bench_exact_subset_dp(benchmark):
    nfa = union_of_patterns_nfa(["00", "11", "0101"])
    value = benchmark(count_exact, nfa, LENGTH)
    assert value > 0


def test_bench_determinize(benchmark):
    nfa = suffix_nfa("010110")
    dfa = benchmark(determinize, nfa)
    assert dfa.num_states >= nfa.num_states


def test_bench_appunion(benchmark, bench_rng):
    parameters = FPRASParameters(
        epsilon=0.3, scale=ParameterScale.practical(union_trial_cap=200)
    )
    universe = list(range(200))
    sets = []
    for start in range(0, 200, 40):
        elements = universe[start : start + 80]
        sets.append(
            SetAccess(
                oracle=lambda item, members=frozenset(elements): item in members,
                samples=[bench_rng.choice(elements) for _ in range(64)],
                size_estimate=len(elements),
            )
        )
    trial_seed = bench_rng.randrange(2**31)

    def run():
        return approximate_union(
            sets, epsilon=0.2, delta=0.05, size_slack=0.0, parameters=parameters,
            rng=random.Random(trial_seed),
        )

    estimate = benchmark(run)
    assert 100 <= estimate.estimate <= 300


def test_bench_fpras_full_run(benchmark, bench_rng):
    nfa = substring_nfa("101")
    exact = count_exact(nfa, LENGTH)
    seed = bench_rng.randrange(2**31)

    def run():
        return NFACounter(nfa, LENGTH, FPRASParameters(epsilon=0.3, seed=seed)).run()

    result = benchmark(run)
    assert result.relative_error(exact) < 0.5


def test_bench_acjr_full_run(benchmark, bench_rng):
    nfa = substring_nfa("101")
    exact = count_exact(nfa, LENGTH)
    seed = bench_rng.randrange(2**31)

    def run():
        parameters = ACJRParameters(epsilon=0.3, sample_cap=48, seed=seed)
        return ACJRCounter(nfa, LENGTH, parameters).run()

    result = benchmark(run)
    assert result.relative_error(exact) < 0.5


def test_bench_bitset_membership(benchmark, bench_rng):
    """Engine-level micro-benchmark: whole-word simulation on the bitset backend."""
    nfa = union_of_patterns_nfa(["00", "11", "0101"])
    engine = create_engine(nfa, "bitset")
    alphabet = list(nfa.alphabet)
    words = [
        tuple(bench_rng.choice(alphabet) for _ in range(LENGTH)) for _ in range(500)
    ]

    def run():
        return sum(1 for word in words if engine.accepts(word))

    hits = benchmark(run)
    assert 0 < hits <= len(words)
