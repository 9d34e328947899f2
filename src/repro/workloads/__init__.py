"""Workloads: bounded-count long-word automata and their memory probe."""

from repro.workloads.longwords import (
    measure_fpras_memory,
    unary_loop_nfa,
)

__all__ = [
    "measure_fpras_memory",
    "unary_loop_nfa",
]
