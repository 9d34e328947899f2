"""Algorithm 1 — ``AppUnion``: Monte-Carlo estimation of a union of sets.

Given sets ``T_1 .. T_k``, each presented by a membership oracle, a multiset
of (near-uniform) samples and a size estimate, the estimator approximates
``|T_1 ∪ … ∪ T_k|``.  It is the Karp–Luby union estimator adapted as in the
paper: a trial samples a set index ``i`` proportionally to its size estimate,
draws an element ``sigma`` from the stored samples of ``T_i``, and counts the
trial as *unique* when no earlier set ``T_j`` (``j < i``) contains ``sigma``.
The fraction of unique trials, multiplied by the sum of the size estimates,
estimates the union size (Theorem 1).

The implementation mirrors the pseudo-code closely while exposing the knobs
needed for experiments:

* the number of trials follows the paper's formula, optionally capped by the
  :class:`~repro.counting.params.ParameterScale`;
* sample consumption is either destructive ("paper", Algorithm 1 line 7-8)
  or cyclic over a shuffled copy (scaled default);
* every call returns a :class:`UnionEstimate` carrying diagnostics
  (membership calls, unique fraction, exhaustion) used by the benchmarks.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

from repro.counting.params import FPRASParameters
from repro.errors import ParameterError, SampleExhaustedError

MembershipOracle = Callable[[object], bool]

#: Batched membership primitive: maps a sequence of ``(sigma, i)`` queries to
#: the per-query smallest index ``j < i`` with ``sigma`` in ``T_j`` (or -1).
BatchMembership = Callable[[Sequence[tuple]], Sequence[int]]


@dataclass
class SetAccess:
    """Access bundle for one set ``T_i`` as required by Theorem 1.

    Attributes
    ----------
    oracle:
        Membership oracle ``O_i`` for ``T_i``.
    samples:
        Multiset ``S_i`` of elements of ``T_i`` (with repetitions), assumed
        to be (close to) uniform samples.
    size_estimate:
        ``sz_i`` — an estimate of ``|T_i|`` within the slack ``eps_sz``.
    label:
        Optional identifier used only in diagnostics.
    """

    oracle: MembershipOracle
    samples: Sequence[object]
    size_estimate: float
    label: Optional[object] = None


@dataclass
class UnionEstimate:
    """Result of one ``AppUnion`` invocation plus run diagnostics."""

    estimate: float
    trials: int
    unique_hits: int
    membership_calls: int
    sum_of_sizes: float
    exhausted: bool = False

    @property
    def unique_fraction(self) -> float:
        """``Y / t`` — the fraction of trials that landed in ``U_unique``."""
        if self.trials == 0:
            return 0.0
        return self.unique_hits / self.trials


class _SampleStream:
    """Per-set sample source implementing the two consumption policies."""

    def __init__(self, samples: Sequence[object], rng: random.Random, strict: bool) -> None:
        self._strict = strict
        self._rng = rng
        self._items: List[object] = list(samples)
        if not strict:
            self._rng.shuffle(self._items)
        self._position = 0
        self.exhausted = False

    def next(self) -> Optional[object]:
        """Return the next sample or ``None`` when (strictly) exhausted."""
        if not self._items:
            self.exhausted = True
            return None
        if self._position >= len(self._items):
            if self._strict:
                self.exhausted = True
                return None
            # Cyclic mode: reshuffle and restart.  This departs from the
            # paper only in the (low-probability) regime where more samples
            # are requested than stored.
            self.exhausted = True
            self._rng.shuffle(self._items)
            self._position = 0
        item = self._items[self._position]
        self._position += 1
        return item


def approximate_union(
    sets: Sequence[SetAccess],
    epsilon: float,
    delta: float,
    size_slack: float,
    parameters: FPRASParameters,
    rng: Optional[random.Random] = None,
    raise_on_exhaustion: bool = False,
    first_containing: Optional[Callable[[object, int], int]] = None,
    first_containing_batch: Optional[BatchMembership] = None,
) -> UnionEstimate:
    """Estimate ``|T_1 ∪ … ∪ T_k|`` (Algorithm 1, ``AppUnion``).

    Parameters
    ----------
    sets:
        One :class:`SetAccess` per set, in the fixed order used for the
        "first set containing the element" tie-break.
    epsilon, delta:
        The estimator's own accuracy/confidence parameters (the subscript
        parameters of ``AppUnion_{eps, delta}`` in the paper).
    size_slack:
        ``eps_sz`` — multiplicative slack already present in the ``sz_i``.
    parameters:
        Supplies the trial-count formula and the scaling policy.
    rng:
        Source of randomness (defaults to a fresh ``random.Random()``).
    raise_on_exhaustion:
        In strict consumption mode, raise :class:`SampleExhaustedError`
        instead of silently stopping early, so tests can observe the event
        the paper bounds in Part 2 of the proof of Theorem 1.
    first_containing:
        Optional batched membership primitive: ``first_containing(sigma, i)``
        returns the smallest index ``j < i`` with ``sigma`` in ``T_j``, or
        ``-1``.  When supplied (the engine-backed unrolled automaton provides
        one) it replaces the per-set oracle loop with a single reachability
        lookup; results and the ``membership_calls`` accounting are identical
        to the oracle loop — the early-exit scan over earlier sets is simply
        executed against one precomputed handle.
    first_containing_batch:
        Whole-multiset form of ``first_containing``: maps a sequence of
        ``(sigma, i)`` queries to the per-query answers in one call (see
        :meth:`repro.automata.unroll.UnrolledAutomaton.first_containing_batch`).
        Trial sampling never depends on membership answers, so the
        implementation first draws every trial (consuming the RNG stream
        exactly as the interleaved loop would) and then resolves all
        membership questions in one batched pass — estimates, diagnostics
        and the RNG stream are bit-identical to the per-trial paths.
        Takes precedence over ``first_containing`` when both are given.

    Returns
    -------
    UnionEstimate
        ``estimate`` is ``(Y / t) * sum(sz_i)``; diagnostics included.

    Example
    -------
    >>> import random
    >>> t1, t2 = {"00", "01"}, {"01", "11"}
    >>> access = [
    ...     SetAccess(oracle=t1.__contains__, samples=sorted(t1), size_estimate=2.0),
    ...     SetAccess(oracle=t2.__contains__, samples=sorted(t2), size_estimate=2.0),
    ... ]
    >>> result = approximate_union(
    ...     access, epsilon=0.5, delta=0.1, size_slack=0.0,
    ...     parameters=FPRASParameters(), rng=random.Random(0))
    >>> 2.0 <= result.estimate <= 4.0  # true union size is 3
    True
    """
    if epsilon <= 0:
        raise ParameterError("AppUnion epsilon must be positive")
    if not 0 < delta < 1:
        raise ParameterError("AppUnion delta must lie in (0, 1)")
    rng = rng if rng is not None else random.Random()

    sizes = [max(0.0, float(entry.size_estimate)) for entry in sets]
    total_size = sum(sizes)
    if total_size <= 0 or not sets:
        return UnionEstimate(
            estimate=0.0,
            trials=0,
            unique_hits=0,
            membership_calls=0,
            sum_of_sizes=0.0,
        )

    # m_hat = ceil(sum sz / max sz); trial count per the paper's formula,
    # optionally capped by the operational scale.
    m_hat = int(math.ceil(total_size / max(sizes)))
    trials = parameters.union_trials(epsilon, delta, size_slack, m_hat)

    strict = parameters.scale.strict_sample_consumption
    streams = [_SampleStream(entry.samples, rng, strict) for entry in sets]
    cumulative = _cumulative_weights(sizes)

    # Phase 1 — draw every trial.  Sampling consumes the RNG stream exactly
    # as the historical interleaved loop did (membership answers never feed
    # back into sampling), which is what lets phase 2 batch the membership
    # questions without perturbing seeded runs.
    exhausted = False
    performed = 0
    drawn: List[tuple] = []  # (sigma, set index) per performed trial
    for _ in range(trials):
        index = _weighted_index(cumulative, rng)
        sample = streams[index].next()
        if sample is None:
            exhausted = True
            if raise_on_exhaustion:
                raise SampleExhaustedError(
                    f"set {sets[index].label!r} ran out of samples after {performed} trials"
                )
            if strict:
                break
            continue
        performed += 1
        if streams[index].exhausted:
            exhausted = True
        drawn.append((sample, index))

    # Phase 2 — resolve "is sigma in an earlier set" for every trial.  The
    # answer per trial is the smallest j < i containing sigma (or -1); the
    # three strategies are observationally identical and share the
    # membership_calls accounting: a scan stopping at j costs j + 1 checks,
    # a full miss costs i checks.
    if first_containing_batch is not None and drawn:
        containing_per_trial = first_containing_batch(drawn)
    elif first_containing is not None:
        containing_per_trial = [
            first_containing(sample, index) for sample, index in drawn
        ]
    else:
        containing_per_trial = []
        for sample, index in drawn:
            containing = -1
            for earlier in range(index):
                if sets[earlier].oracle(sample):
                    containing = earlier
                    break
            containing_per_trial.append(containing)

    # Phase 3 — accumulate the estimator and its diagnostics.
    unique_hits = 0
    membership_calls = 0
    for (_sample, index), containing in zip(drawn, containing_per_trial):
        membership_calls += index if containing < 0 else containing + 1
        if containing < 0:
            unique_hits += 1

    if performed == 0:
        return UnionEstimate(
            estimate=0.0,
            trials=0,
            unique_hits=0,
            membership_calls=membership_calls,
            sum_of_sizes=total_size,
            exhausted=exhausted,
        )
    estimate = (unique_hits / performed) * total_size
    return UnionEstimate(
        estimate=estimate,
        trials=performed,
        unique_hits=unique_hits,
        membership_calls=membership_calls,
        sum_of_sizes=total_size,
        exhausted=exhausted,
    )


def _cumulative_weights(sizes: Sequence[float]) -> List[float]:
    """Cumulative weights for proportional index sampling."""
    cumulative: List[float] = []
    running = 0.0
    for size in sizes:
        running += size
        cumulative.append(running)
    return cumulative


def _weighted_index(cumulative: Sequence[float], rng: random.Random) -> int:
    """Sample an index with probability proportional to its weight."""
    total = cumulative[-1]
    point = rng.random() * total
    low, high = 0, len(cumulative) - 1
    while low < high:
        middle = (low + high) // 2
        if point <= cumulative[middle]:
            high = middle
        else:
            low = middle + 1
    return low
