"""E3 — runtime scaling with the word length ``n``, plus streaming memory.

Theorem 3 bounds the runtime polynomially in ``n``.  The benchmark measures
wall-clock time of the (scaled) FPRAS as ``n`` grows on a fixed automaton,
alongside the exact counter and the naive Monte-Carlo baseline, and asserts
that the estimates stay accurate while the measured growth is polynomial
(empirical log-log exponent far below exponential blow-up).

The long-word half of the file probes the *memory* axis the streaming
store added: the unary bounded-count workload
(:mod:`repro.workloads.longwords`) with a tracemalloc peak-memory column
per row.  The quick test keeps tier-of-seconds lengths; the full
``n ∈ {1000, 5000, 20000}`` sweep — the one ``tools/bench_report.py --scaling-n`` records —
runs under ``REPRO_LONGWORD_FULL=1`` (tens of minutes under tracemalloc,
since the probe traces every allocation of ~10^8 descent steps).
"""

from __future__ import annotations

import os

import pytest

from repro.analysis.complexity import growth_exponent
from repro.harness.experiments import run_scaling_length
from repro.harness.reporting import format_table
from repro.workloads.longwords import long_word_sweep


def test_e3_scaling_with_length(benchmark, report):
    result = benchmark.pedantic(
        run_scaling_length, kwargs={"quick": True}, rounds=1, iterations=1
    )
    report(format_table(result.rows, title=f"E3: {result.description}"))
    for note in result.notes:
        report(f"E3 note: {note}")

    lengths = [row["length"] for row in result.rows]
    times = [row["fpras_seconds"] for row in result.rows]
    for row in result.rows:
        assert row["fpras_rel_error"] < 0.6
    if all(t > 0 for t in times) and len(times) >= 3:
        exponent = growth_exponent([float(n) for n in lengths], times)
        # Theorem 3's dependence is a low-degree polynomial in n; anything
        # below ~6 here is consistent, exponential growth would exceed it.
        assert exponent < 8.0


def _memory_table(sweep) -> str:
    rows = [
        {
            "n": row["n"],
            "store": row["store"],
            "seconds": round(row["seconds"], 3),
            "peak_kb": round(row["peak_bytes"] / 1024.0, 1),
            "estimate": row["estimate"],
            "spilled_levels": row["counters"].get("store_spilled_levels", 0),
        }
        for row in sweep["rows"]
    ]
    return format_table(rows, title="long-word peak memory (tracemalloc)")


def test_longword_windowed_store_bounds_memory(benchmark, report):
    """Quick long-word sweep: windowed peak ≪ dict peak, values identical."""
    sweep = benchmark.pedantic(
        long_word_sweep,
        kwargs={"ns": (300, 600), "dict_store_ceiling": None},
        rounds=1,
        iterations=1,
    )
    report(_memory_table(sweep))
    by_cell = {(row["n"], row["store"]): row for row in sweep["rows"]}
    for n in (300, 600):
        # The unary workload accepts exactly one word per length, and the
        # store must not change the estimate (bit-identical parity).
        assert by_cell[(n, "dict")]["estimate"] == by_cell[(n, "windowed")]["estimate"]
        assert by_cell[(n, "windowed")]["estimate"] == pytest.approx(1.0)
    # The windowed store actually streams (spills happened) and already
    # wins on peak memory at bench-quick lengths.
    assert by_cell[(600, "windowed")]["counters"]["store_spilled_levels"] > 0
    assert (
        by_cell[(600, "windowed")]["peak_bytes"]
        < by_cell[(600, "dict")]["peak_bytes"]
    )


@pytest.mark.skipif(
    not os.environ.get("REPRO_LONGWORD_FULL"),
    reason="full n<=20000 sweep takes tens of minutes under tracemalloc; "
    "set REPRO_LONGWORD_FULL=1 to run (tools/bench_report.py --scaling-n records it)",
)
def test_longword_full_sweep(benchmark, report):
    """The headline sweep: n ∈ {1000, 5000, 20000}, 10x memory bound."""
    sweep = benchmark.pedantic(long_word_sweep, rounds=1, iterations=1)
    report(_memory_table(sweep))
    summary = sweep["summary"]
    report(
        f"windowed peak ratio n={summary['n_max']} vs n={summary['n_min']}: "
        f"{summary['windowed_peak_ratio']:.2f}x (bound "
        f"{summary['memory_bound_ratio']:.0f}x)"
    )
    assert summary["n_max"] == 20000
    assert summary["within_memory_bound"]
