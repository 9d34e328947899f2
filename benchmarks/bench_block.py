"""Block-simulation crossover: where the numpy backend overtakes bitset.

The bitset backend costs ``ceil(m / 8)`` Python-level loop iterations per
simulation step; the numpy block backend costs a fixed handful of NumPy
calls per step (scalar path) or per trie level (batched path) regardless
of ``m``.  Somewhere between those regimes the curves cross.  This
benchmark sweeps ``m`` over both paths and reports the measured crossover
point of each; the batched numpy path — the one the counting layer
actually drives since the AppUnion membership loop was batched — must
overtake bitset somewhere in the sweep.  The crossover is a
microbenchmark of membership alone: end to end, ``bitset`` stays the
default backend because the FPRAS spends its time in the sampler and
AppUnion, not in engine steps.

Like every benchmark in this tree, the assertions pin the *shape* of the
claim (who wins where), not absolute timings.
"""

from __future__ import annotations

from block_workloads import best_of, block_instance, block_words

from repro.automata.engine import create_engine
from repro.harness.reporting import format_table

#: The m sweep bracketing the expected crossover region.
CROSSOVER_STATE_COUNTS = (32, 64, 128, 192, 256, 384, 512)
CROSSOVER_WORDS = 250
CROSSOVER_WORD_LENGTH = 12


def _sweep(bench_rng):
    """Per-m scalar and batched membership timings for both fast backends."""
    rows = []
    for num_states in CROSSOVER_STATE_COUNTS:
        nfa = block_instance(num_states, seed=29 + num_states)
        words = block_words(nfa, bench_rng, CROSSOVER_WORDS, CROSSOVER_WORD_LENGTH)
        bitset = create_engine(nfa, "bitset")
        block = create_engine(nfa, "numpy")
        assert bitset.accepts_batch(words) == block.accepts_batch(words)

        def scalar_pass(engine):
            def run():
                for word in words:
                    engine.accepts(word)
            return run

        row = {
            "m": num_states,
            "bitset_scalar_s": best_of(scalar_pass(bitset)),
            "numpy_scalar_s": best_of(scalar_pass(block)),
            "bitset_batch_s": best_of(lambda: bitset.accepts_batch(words)),
            "numpy_batch_s": best_of(lambda: block.accepts_batch(words)),
        }
        row["scalar_speedup"] = row["bitset_scalar_s"] / row["numpy_scalar_s"]
        row["batch_speedup"] = row["bitset_batch_s"] / row["numpy_batch_s"]
        rows.append(row)
    return rows


def _crossover(rows, key: str):
    """Smallest m from which the numpy backend never loses again, or None."""
    winning_from = None
    for row in rows:
        if row[key] >= 1.0:
            if winning_from is None:
                winning_from = row["m"]
        else:
            winning_from = None
    return winning_from


def test_block_backend_crossover(benchmark, report, bench_rng):
    rows = benchmark.pedantic(_sweep, args=(bench_rng,), rounds=1, iterations=1)
    report(
        format_table(
            rows,
            title="Block-simulation crossover sweep (bitset vs numpy, scalar and batched)",
        )
    )
    scalar_crossover = _crossover(rows, "scalar_speedup")
    batch_crossover = _crossover(rows, "batch_speedup")
    report(
        "Block crossover note: batched path overtakes bitset from "
        f"m={batch_crossover}, scalar path from m={scalar_crossover}"
    )
    # The batched path (what the counting layer drives) must have crossed
    # over by the sweep's end.
    assert batch_crossover is not None, (
        f"numpy batched path never overtook bitset: "
        f"{[(row['m'], round(row['batch_speedup'], 2)) for row in rows]}"
    )
