"""Naive Monte-Carlo baseline for #NFA.

Draw ``N`` uniformly random words of length ``n`` and return the accepted
fraction times ``|alphabet|^n``.  This is an unbiased estimator, but its
relative accuracy degrades with the *density* ``|L(A_n)| / |alphabet|^n``:
when the language is a vanishing fraction of all words (the common case for
interesting queries) the number of samples needed explodes — which is
precisely why the paper's FPRAS, whose cost is polynomial regardless of
density, is interesting.  The scaling benchmarks plot this contrast.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional, Union

from repro.automata.engine import Engine
from repro.automata.nfa import NFA
from repro.counting.policy import ExecutionPolicy
from repro.errors import ParameterError


@dataclass(frozen=True)
class MonteCarloEstimate:
    """Result of a naive Monte-Carlo run."""

    estimate: float
    hits: int
    samples: int
    total_words: int

    @property
    def density_estimate(self) -> float:
        """Estimated language density ``|L(A_n)| / |alphabet|^n``."""
        if self.samples == 0:
            return 0.0
        return self.hits / self.samples

    def relative_error(self, exact: int) -> float:
        if exact == 0:
            return 0.0 if self.estimate == 0 else float("inf")
        return abs(self.estimate - exact) / exact


def run_montecarlo(
    nfa: NFA,
    length: int,
    num_samples: int,
    rng: random.Random,
    engine: Engine,
) -> MonteCarloEstimate:
    """Core Monte-Carlo loop over an already-acquired simulation engine.

    This is the implementation behind the registered ``"montecarlo"``
    counting method (see :mod:`repro.counting.api`), which handles engine
    acquisition and diagnostics; use :func:`count_montecarlo` or
    ``repro.count(..., method="montecarlo")`` instead of calling it
    directly.

    All words are drawn up front (consuming the RNG stream exactly as the
    historical word-at-a-time loop did) and accepted in one
    :meth:`~repro.automata.engine.Engine.accepts_batch` pass, so words
    sharing a prefix are simulated through it once.  The drawn words and
    acceptance decisions — and therefore the estimate — are backend- and
    batching-independent for a fixed seed.
    """
    if length < 0:
        raise ParameterError("length must be non-negative")
    if num_samples <= 0:
        raise ParameterError("num_samples must be positive")
    alphabet = list(nfa.alphabet)
    total_words = len(alphabet) ** length
    # Draw and test in fixed-size blocks: the RNG stream is identical to a
    # word-at-a-time loop (drawing never depends on acceptance) while peak
    # memory stays bounded regardless of num_samples.
    block_size = 8192
    hits = 0
    remaining = num_samples
    while remaining:
        block = min(block_size, remaining)
        words = [
            tuple(rng.choice(alphabet) for _ in range(length))
            for _ in range(block)
        ]
        hits += sum(engine.accepts_batch(words))
        remaining -= block
    estimate = (hits / num_samples) * total_words
    return MonteCarloEstimate(
        estimate=estimate, hits=hits, samples=num_samples, total_words=total_words
    )


def count_montecarlo(
    nfa: NFA,
    length: int,
    num_samples: int = 10_000,
    seed: Optional[Union[int, random.Random]] = None,
    backend: Optional[str] = None,
    use_engine_cache: bool = True,
) -> MonteCarloEstimate:
    """Estimate ``|L(A_length)|`` with ``num_samples`` uniform random words.

    Legacy one-call entry point.  It delegates through the unified counting
    registry (``repro.count(..., method="montecarlo")``) and returns the raw
    :class:`MonteCarloEstimate`; the RNG stream, drawn words and estimate
    are bit-identical to the historical direct implementation.  ``seed`` may
    be an ``int`` or an existing ``random.Random`` stream to continue.
    """
    from repro.counting.api import count

    report = count(
        nfa,
        length,
        method="montecarlo",
        seed=seed,
        policy=ExecutionPolicy(backend=backend, use_engine_cache=use_engine_cache),
        num_samples=num_samples,
    )
    return report.raw
