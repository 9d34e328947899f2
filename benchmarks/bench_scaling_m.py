"""E4 — runtime scaling with the number of automaton states ``m``.

The paper's headline structural improvement is that the number of samples
kept per (state, level) is *independent of m*; total work then grows only
because there are more states to process (low-degree polynomial in ``m``).
The benchmark measures runtime over an ``m`` sweep and asserts (a) accuracy
holds across the sweep and (b) the configured samples-per-state stays
constant as ``m`` grows.

The second benchmark compares the simulation backends head-to-head on the
same E4 workloads: the FPRAS spends essentially all of its time in
membership oracles (word simulation through the unrolled automaton), so the
backend comparison runs that membership-dominated path — many fresh-word
reachability queries per automaton — on the frozenset reference engine and
on the bit-parallel bitset engine, and asserts the bitset backend is at
least 3x faster.
"""

from __future__ import annotations

import time

from block_workloads import best_of, block_instance, block_words

from repro.automata.engine import create_engine
from repro.automata.families import build_family
from repro.harness.experiments import run_scaling_states, scaling_states_args
from repro.harness.reporting import format_table

#: State counts of the membership-dominated backend comparison; the larger
#: end of the E4 sweep is where the frozenset unions hurt the most.
SPEEDUP_STATE_COUNTS = (8, 16, 24)
SPEEDUP_WORDS = 2000
SPEEDUP_MIN_RATIO = 3.0

#: State counts of the large-m block-backend sweep (the m >> 64 regime the
#: numpy backend targets); the assertion only binds at the largest m.
BLOCK_STATE_COUNTS = (64, 128, 256, 512)
BLOCK_WORDS = 300
BLOCK_WORD_LENGTH = 12
#: At the largest m the numpy backend must at least match the bitset
#: backend's batched membership throughput (it is ~2-3x faster in practice;
#: the conservative bound keeps the assertion robust on noisy CI runners).
BLOCK_MIN_RATIO_AT_MAX_M = 1.0


def test_e4_scaling_with_states(benchmark, report, bench_seed):
    result = benchmark.pedantic(
        run_scaling_states,
        kwargs={"quick": True, "seed": bench_seed},
        rounds=1,
        iterations=1,
    )
    report(format_table(result.rows, title=f"E4: {result.description}"))
    for note in result.notes:
        report(f"E4 note: {note}")

    samples_per_state = {row["fpras_samples_per_state"] for row in result.rows}
    assert len(samples_per_state) == 1, "per-state sample count must not depend on m"
    for row in result.rows:
        assert row["fpras_rel_error"] < 0.6


def _membership_seconds(engine, words) -> float:
    """Time many whole-word reachability queries (best of three passes)."""
    best = float("inf")
    for _ in range(3):
        started = time.perf_counter()
        hits = 0
        for word in words:
            if engine.accepts(word):
                hits += 1
        best = min(best, time.perf_counter() - started)
    return best


def _engine_comparison(bench_rng):
    """Measure reference vs bitset membership throughput on the E4 automata."""
    rows = []
    ratios = []
    for m in SPEEDUP_STATE_COUNTS:
        args = scaling_states_args(m)
        nfa = build_family("random_nfa", **args)
        alphabet = list(nfa.alphabet)
        words = [
            tuple(bench_rng.choice(alphabet) for _ in range(args["length"]))
            for _ in range(SPEEDUP_WORDS)
        ]
        reference = create_engine(nfa, "reference")
        bitset = create_engine(nfa, "bitset")
        # Both backends must agree on every query (differential check).
        agreement = [reference.accepts(word) == bitset.accepts(word) for word in words]
        assert all(agreement)
        reference_seconds = _membership_seconds(reference, words)
        bitset_seconds = _membership_seconds(bitset, words)
        ratio = reference_seconds / bitset_seconds
        ratios.append(ratio)
        rows.append(
            {
                "m": nfa.num_states,
                "length": args["length"],
                "words": SPEEDUP_WORDS,
                "reference_seconds": reference_seconds,
                "bitset_seconds": bitset_seconds,
                "speedup": ratio,
            }
        )
    return rows, ratios


def test_e4_engine_membership_speedup(benchmark, report, bench_rng):
    """Bitset vs reference on E4's membership-dominated configuration."""
    rows, ratios = benchmark.pedantic(
        _engine_comparison, args=(bench_rng,), rounds=1, iterations=1
    )
    report(
        format_table(
            rows,
            title=(
                "E4 backend comparison: membership-dominated word simulation "
                "(reference vs bitset)"
            ),
        )
    )
    geometric_mean = 1.0
    for ratio in ratios:
        geometric_mean *= ratio
    geometric_mean **= 1.0 / len(ratios)
    report(f"E4 backend note: geometric-mean bitset speedup {geometric_mean:.2f}x")
    assert geometric_mean >= SPEEDUP_MIN_RATIO, (
        f"bitset speedup {geometric_mean:.2f}x below the {SPEEDUP_MIN_RATIO}x target; "
        f"per-m ratios: {[round(r, 2) for r in ratios]}"
    )


def _block_backend_comparison(bench_rng):
    """Bitset vs numpy batched membership throughput over an m >> 64 sweep."""
    rows = []
    ratios = {}
    for num_states in BLOCK_STATE_COUNTS:
        nfa = block_instance(num_states, seed=17 + num_states)
        words = block_words(nfa, bench_rng, BLOCK_WORDS, BLOCK_WORD_LENGTH)
        bitset = create_engine(nfa, "bitset")
        block = create_engine(nfa, "numpy")
        # Differential check: both backends must agree on every query.
        assert bitset.accepts_batch(words) == block.accepts_batch(words)
        bitset_seconds = best_of(lambda: bitset.accepts_batch(words))
        block_seconds = best_of(lambda: block.accepts_batch(words))
        ratio = bitset_seconds / block_seconds
        ratios[num_states] = ratio
        rows.append(
            {
                "m": num_states,
                "words": BLOCK_WORDS,
                "length": BLOCK_WORD_LENGTH,
                "bitset_seconds": bitset_seconds,
                "numpy_seconds": block_seconds,
                "numpy_speedup": ratio,
            }
        )
    return rows, ratios


def test_e4_block_backend_large_m(benchmark, report, bench_rng):
    """numpy block backend vs bitset on the m in {64..512} membership sweep."""
    rows, ratios = benchmark.pedantic(
        _block_backend_comparison, args=(bench_rng,), rounds=1, iterations=1
    )
    report(
        format_table(
            rows,
            title=(
                "E4 large-m backend comparison: batched membership "
                "(bitset vs numpy block simulation)"
            ),
        )
    )
    largest = max(BLOCK_STATE_COUNTS)
    report(
        f"E4 block note: numpy speedup at m={largest} is {ratios[largest]:.2f}x "
        f"(sweep: {[(m, round(r, 2)) for m, r in sorted(ratios.items())]})"
    )
    assert ratios[largest] >= BLOCK_MIN_RATIO_AT_MAX_M, (
        f"numpy block backend is {ratios[largest]:.2f}x the bitset throughput at "
        f"m={largest}, below the {BLOCK_MIN_RATIO_AT_MAX_M}x floor"
    )
