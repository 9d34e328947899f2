"""Algorithm 2 — the backward character-by-character sampling subroutine.

``sample(l, P^l, w, phi, beta, eta)`` draws a word from
``⋃_{q in P^l} L(q^l)``: at each level it estimates, for every alphabet
symbol ``b``, the size of the union of the ``b``-predecessor languages via
``AppUnion`` (Algorithm 1), picks the last unread character proportionally to
these estimates, prepends it to the suffix built so far, and recurses one
level down while dividing the acceptance probability ``phi`` by the chosen
branch probability.  At level 0 the accumulated word is returned with
probability ``phi`` (rejection step), which — conditioned on the internal
estimates being accurate — makes every word of the target language equally
likely to be output (Theorem 2, part 1) and bounds the failure probability by
``1 - 2/(3 e^2)`` (part 2).

The implementation is iterative (the recursion in the paper is a simple tail
recursion) and generalises from the binary alphabet to any fixed alphabet by
estimating one union per alphabet symbol.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Mapping, Optional, Sequence, Tuple

from repro.automata.nfa import State, Symbol, Word
from repro.automata.unroll import UnrolledAutomaton
from repro.counting.params import FPRASParameters
from repro.counting.union import SetAccess, approximate_union
from repro.errors import ParameterError

StateLevel = Tuple[State, int]


@dataclass
class SamplerStatistics:
    """Counters describing the work one :class:`SampleDraw` instance performed."""

    draws: int = 0
    successes: int = 0
    failures_phi_overflow: int = 0
    failures_rejection: int = 0
    failures_no_mass: int = 0
    union_calls: int = 0
    union_cache_hits: int = 0
    membership_calls: int = 0

    @property
    def failures(self) -> int:
        return (
            self.failures_phi_overflow
            + self.failures_rejection
            + self.failures_no_mass
        )

    @property
    def acceptance_rate(self) -> float:
        if self.draws == 0:
            return 0.0
        return self.successes / self.draws


class SampleDraw:
    """Stateful wrapper around Algorithm 2.

    Parameters
    ----------
    unroll:
        The unrolled automaton (provides live states, predecessors and the
        membership oracles backing ``AppUnion``).
    estimates:
        The table ``N(q^l)`` built so far by Algorithm 3 (levels below the
        one being sampled must be present).
    samples:
        The table ``S(q^l)`` of stored sample multisets (same requirement).
    parameters:
        Accuracy / confidence / scaling configuration.
    rng:
        Randomness source shared with the main algorithm.

    Notes
    -----
    When ``parameters.scale.reuse_union_estimates`` is set, AppUnion results
    are memoised per ``(level, predecessor-set, symbol)`` for the lifetime of
    the instance; Algorithm 3 creates a fresh instance (or calls
    :meth:`clear_cache`) per sampling batch so estimates are never reused
    across batches.

    The backward walk tracks the current state set as an opaque engine
    handle (an integer mask on the bitset backend), so one level of the walk
    costs a few word operations; handles are hashable and equality-stable
    across backends, which keeps the union-cache hit pattern — and therefore
    the RNG stream — identical on every backend.
    """

    def __init__(
        self,
        unroll: UnrolledAutomaton,
        estimates: Mapping[StateLevel, float],
        samples: Mapping[StateLevel, Sequence[Word]],
        parameters: FPRASParameters,
        rng: Optional[random.Random] = None,
        step_memo: Optional[List[Optional[tuple]]] = None,
        step_intern: Optional[Dict[tuple, tuple]] = None,
    ) -> None:
        self.unroll = unroll
        self.estimates = estimates
        self.samples = samples
        self.parameters = parameters
        self.rng = rng if rng is not None else random.Random()
        self.statistics = SamplerStatistics()
        self._union_cache: Dict[Tuple[int, object], float] = {}
        # Cross-batch descent memo (see ParameterScale.reuse_descent_steps):
        # owned by the caller so it outlives this per-batch instance.  One
        # slot per level — ``(state-set handle, total, branch table)`` —
        # interned through ``step_intern`` so levels with equal step data
        # share one tuple.  Only randomness-free steps are ever
        # stored, which is what makes replay bit-identical to recomputation;
        # a slot holding a different state-set than the descent's current
        # one simply recomputes (and takes over the slot).
        self._step_memo = step_memo
        self._step_intern = step_intern

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def draw(
        self,
        level: int,
        states: FrozenSet[State],
        gamma0: float,
        beta: float,
        eta: float,
    ) -> Optional[Word]:
        """One invocation of ``sample(level, states, lambda, gamma0, beta, eta)``.

        Returns the sampled word, or ``None`` for the ``⊥`` outcome (either
        the acceptance probability overflowed 1, the final rejection step
        rejected, or no predecessor mass was available at some level).
        """
        if gamma0 <= 0:
            raise ParameterError("gamma0 must be positive")
        self.statistics.draws += 1
        eta_prime = eta / max(1, 4 * self.unroll.length)

        # The walk is the innermost loop of the whole FPRAS (every draw
        # descends ``level`` levels), so locals are hoisted and the word is
        # accumulated in a list (appending the symbols in reverse order and
        # reversing once at the end) instead of the historical
        # ``(symbol,) + word`` tuple prepend, which cost O(level) per step
        # and made long words quadratic.  The RNG call sequence — one
        # ``random()`` per level for the branch choice plus whatever the
        # union estimates consume — is unchanged, so the rework is
        # bit-identical.
        engine = self.unroll.engine
        predecessor_fan = self.unroll.predecessor_fan
        estimate_union = self._estimate_union
        step_memo = self._step_memo
        statistics = self.statistics
        rng_random = self.rng.random
        phi = gamma0
        reversed_word: List[Symbol] = []
        current = engine.encode(states)
        for current_level in range(level, 0, -1):
            if step_memo is not None:
                entry = step_memo[current_level]
                if entry is not None and entry[0] == current:
                    # Replay of a randomness-free step: the same single
                    # ``random()`` the slow path would consume, walked over
                    # the same running sums (see ``_branch_table``), the
                    # same branch probability — nothing observable differs.
                    # The walk is inlined: long-word descents replay
                    # millions of steps.
                    _, total, branches = entry
                    point = rng_random() * total
                    for running, symbol, branch, probability in branches:
                        if point <= running:
                            break
                    phi /= probability
                    reversed_word.append(symbol)
                    current = branch
                    continue
                union_calls_before = statistics.union_calls
                union_hits_before = statistics.union_cache_hits
            # One fan call per level.  The fan is memoised per
            # ``(level, handle)`` by the unrolling and lists only the
            # symbols whose live predecessor set is non-empty, so every
            # branch below gets a union estimate and empty symbols — which
            # contribute 0.0 to the total and can never be chosen — cost
            # nothing.
            fan = predecessor_fan(current, current_level)
            lower = current_level - 1
            weights = [
                estimate_union(predecessors, lower, beta, eta_prime)
                for _, predecessors in fan
            ]
            total = sum(weights)
            if total <= 0.0:
                self.statistics.failures_no_mass += 1
                return None
            if (
                step_memo is not None
                and statistics.union_calls == union_calls_before
                and statistics.union_cache_hits == union_hits_before
            ):
                # Every estimate above came from an intrinsically
                # randomness-free path (the singleton-exact shortcut) over
                # frozen lower-level tables, so the step may be replayed
                # verbatim by any later draw — including across batches and
                # sharded workers.  Steps that touched AppUnion (or even its
                # per-batch cache) are left out: they re-randomise per batch
                # and must keep doing so.
                entry = (current, total, _branch_table(fan, weights, total))
                intern = self._step_intern
                if intern is not None:
                    entry = intern.setdefault(entry, entry)
                step_memo[current_level] = entry
            index = _choose_branch(weights, rng_random() * total)
            branch_probability = weights[index] / total
            phi /= branch_probability
            symbol, current = fan[index]
            reversed_word.append(symbol)

        # Base case (level 0).
        if phi > 1.0:
            self.statistics.failures_phi_overflow += 1
            return None
        if self.rng.random() < phi:
            self.statistics.successes += 1
            reversed_word.reverse()
            return tuple(reversed_word)
        self.statistics.failures_rejection += 1
        return None

    def clear_cache(self) -> None:
        """Forget memoised union estimates (start of a new sampling batch)."""
        self._union_cache.clear()

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _estimate_union(
        self,
        predecessors: object,
        level: int,
        beta: float,
        eta_prime: float,
    ) -> float:
        """``AppUnion`` over ``{L(p^level) : p in predecessors}``.

        ``predecessors`` is an engine handle; it doubles as the memoisation
        key (handles are hashable and equality matches set equality).  The
        size slack ``beta_prime = (1 + beta)^level - 1`` is derived here,
        on the paths that actually run AppUnion — cache hits and the
        singleton shortcut never need it, which keeps the descent free of a
        ``pow`` per level.
        """
        cache_key = (level, predecessors)
        reuse = self.parameters.scale.reuse_union_estimates
        if reuse:
            cached = self._union_cache.get(cache_key)
            if cached is not None:
                self.statistics.union_cache_hits += 1
                return cached

        ordered = sorted(self.unroll.engine.decode(predecessors), key=repr)
        if self.parameters.scale.singleton_union_exact and len(ordered) == 1:
            # Value-exact shortcut (see ParameterScale.singleton_union_exact):
            # a one-set union estimate is exactly the stored size estimate.
            # No trials run, so no RNG, sample reads or union/membership
            # counter increments happen on this path.
            estimate = max(
                0.0, float(self.estimates.get((ordered[0], level), 0.0))
            )
            if reuse:
                self._union_cache[cache_key] = estimate
            return estimate
        beta_prime = (1.0 + beta) ** level - 1.0
        accesses: List[SetAccess] = []
        for state in ordered:
            accesses.append(
                SetAccess(
                    oracle=self.unroll.membership_oracle(state),
                    samples=self.samples.get((state, level), ()),
                    size_estimate=self.estimates.get((state, level), 0.0),
                    label=(state, level),
                )
            )
        result = approximate_union(
            accesses,
            epsilon=beta,
            delta=eta_prime,
            size_slack=beta_prime,
            parameters=self.parameters,
            rng=self.rng,
            first_containing_batch=self.unroll.first_containing_batch(ordered),
        )
        self.statistics.union_calls += 1
        self.statistics.membership_calls += result.membership_calls
        if reuse:
            self._union_cache[cache_key] = result.estimate
        return result.estimate


def _choose_branch(weights: Sequence[float], point: float) -> int:
    """Index of the branch that ``point`` falls into along the running sum.

    ``point`` is ``random() * total``.  The first branch whose running
    weight sum reaches ``point`` is chosen.  Zero weights are skipped, so a
    zero-weight branch is never chosen, not even when ``point`` is 0.0.  A
    ``point`` beyond the running sum (float rounding) falls back to the last
    positive branch.  The caller guarantees a positive total.
    """
    running = 0.0
    chosen = -1
    for index, weight in enumerate(weights):
        if weight > 0.0:
            chosen = index
            running += weight
            if point <= running:
                break
    return chosen


def _branch_table(
    fan: Sequence[Tuple[Symbol, object]], weights: Sequence[float], total: float
) -> Tuple[Tuple[float, Symbol, object, float], ...]:
    """:func:`_choose_branch`'s walk over ``fan``, precomputed for replay.

    One ``(running sum, symbol, branch handle, branch probability)`` entry
    per positive-weight branch, in fan order.  The first entry whose
    running sum reaches ``random() * total`` is the branch
    :func:`_choose_branch` picks, and the last entry is its fallback; the
    sums and probabilities are the same float operations, so a replayed
    step is bit-identical to the computed one.
    """
    running = 0.0
    table = []
    for (symbol, branch), weight in zip(fan, weights):
        if weight > 0.0:
            running += weight
            table.append((running, symbol, branch, weight / total))
    return tuple(table)
