"""Probabilistic query evaluation (PQE) for self-join-free path queries.

A tuple-independent probabilistic database annotates every fact with an
inclusion probability; the PQE problem asks for the probability that a
randomly sampled sub-database satisfies a Boolean query.  For self-join-free
path queries over binary relations this is #P-hard yet reduces to #NFA
(van Bremen & Meel, PODS 2023 — reference [17] of the paper), which is one of
the motivations the paper gives for a practically fast #NFA FPRAS.

Reduction implemented here (documented substitution).  The published
reduction is linear-size; reconstructing it exactly is outside the scope of
this reproduction, so we use the straightforward *coin-word* encoding that
preserves the semantics and the role of the #NFA solver:

* every tuple's probability is rounded to a dyadic rational ``t / 2^bits``;
* a word spells, block by block (one block of ``bits`` symbols per tuple, in
  a fixed tuple order), the outcome of each tuple's coin — the tuple is
  present iff its block, read as a ``bits``-bit number, is smaller than ``t``;
* the automaton checks, while reading the blocks grouped by query atom, that
  the present tuples chain into a full match of the path query.

Every sub-database then corresponds to exactly ``2^{N - ?}`` ... more
precisely, every length-``N`` word corresponds to one outcome of all coins,
so ``Pr[query] = |L(A_N)| / 2^N`` with ``N = bits * #tuples``.  The automaton
is deterministic and its size grows with the number of distinct reachable
join-frontier sets (exponential in the per-layer active domain in the worst
case, unlike [17]'s construction) — adequate for the evaluation workloads
here and clearly reported by :meth:`PQEReduction.reduction_size`.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Mapping, Optional, Sequence, Set, Tuple

from repro.automata.nfa import NFA, State, Transition
from repro.automata.exact import count_exact
from repro.counting.api import count as unified_count
from repro.counting.fpras import CountResult
from repro.counting.params import ParameterScale
from repro.counting.policy import ExecutionPolicy
from repro.errors import ReductionError

Fact = Tuple[str, str, float]

#: Marker for "the first join variable is unconstrained".
_ALL = "*ALL*"


@dataclass
class ProbabilisticDatabase:
    """A tuple-independent probabilistic database over binary relations."""

    relations: Dict[str, List[Fact]] = field(default_factory=dict)

    def add_fact(self, relation: str, left: str, right: str, probability: float) -> None:
        """Add the fact ``relation(left, right)`` with the given probability."""
        if not 0.0 <= probability <= 1.0:
            raise ReductionError("fact probabilities must lie in [0, 1]")
        self.relations.setdefault(relation, []).append((str(left), str(right), probability))

    def facts(self, relation: str) -> List[Fact]:
        return list(self.relations.get(relation, []))

    @property
    def num_facts(self) -> int:
        return sum(len(facts) for facts in self.relations.values())

    def domain(self) -> FrozenSet[str]:
        values: Set[str] = set()
        for facts in self.relations.values():
            for left, right, _p in facts:
                values.add(left)
                values.add(right)
        return frozenset(values)


@dataclass(frozen=True)
class PathQuery:
    """The Boolean self-join-free path query ``∃x0..xk: R1(x0,x1) ∧ … ∧ Rk(x_{k-1},xk)``."""

    relations: Tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.relations:
            raise ReductionError("a path query needs at least one atom")
        if len(set(self.relations)) != len(self.relations):
            raise ReductionError(
                "path queries must be self-join-free (no repeated relation symbol)"
            )

    @property
    def length(self) -> int:
        return len(self.relations)


@dataclass
class PQEResult:
    """Result of evaluating a path query on a probabilistic database."""

    probability: float
    method: str
    word_length: int = 0
    nfa_states: int = 0
    count_estimate: float = 0.0
    count_exact: Optional[int] = None
    epsilon: Optional[float] = None
    delta: Optional[float] = None

    def absolute_error(self, reference: float) -> float:
        return abs(self.probability - reference)


# ----------------------------------------------------------------------
# Reference evaluators
# ----------------------------------------------------------------------
def _satisfies(
    present: Mapping[str, Sequence[Tuple[str, str]]], query: PathQuery
) -> bool:
    """Whether the (deterministic) sub-database ``present`` satisfies the query."""
    frontier: Optional[Set[str]] = None  # None means "any value" (for x0)
    for relation in query.relations:
        next_frontier: Set[str] = set()
        for left, right in present.get(relation, ()):
            if frontier is None or left in frontier:
                next_frontier.add(right)
        if not next_frontier:
            return False
        frontier = next_frontier
    return True


def exact_probability(database: ProbabilisticDatabase, query: PathQuery) -> float:
    """Exact PQE by enumerating every sub-database of the relevant facts.

    Exponential in the number of facts — ground truth for small instances.
    """
    facts: List[Tuple[str, Fact]] = [
        (relation, fact)
        for relation in query.relations
        for fact in database.facts(relation)
    ]
    if len(facts) > 24:
        raise ReductionError(
            f"exact PQE over {len(facts)} facts would enumerate 2^{len(facts)} worlds"
        )
    total = 0.0
    for mask in itertools.product((False, True), repeat=len(facts)):
        weight = 1.0
        present: Dict[str, List[Tuple[str, str]]] = {}
        for include, (relation, (left, right, probability)) in zip(mask, facts):
            if include:
                weight *= probability
                present.setdefault(relation, []).append((left, right))
            else:
                weight *= 1.0 - probability
        if weight == 0.0:
            continue
        if _satisfies(present, query):
            total += weight
    return total


def montecarlo_probability(
    database: ProbabilisticDatabase,
    query: PathQuery,
    num_samples: int = 10_000,
    seed: Optional[int] = None,
) -> float:
    """Naive Monte-Carlo PQE: sample sub-databases and count satisfying ones."""
    rng = random.Random(seed)
    hits = 0
    for _ in range(num_samples):
        present: Dict[str, List[Tuple[str, str]]] = {}
        for relation in query.relations:
            for left, right, probability in database.facts(relation):
                if rng.random() < probability:
                    present.setdefault(relation, []).append((left, right))
        if _satisfies(present, query):
            hits += 1
    return hits / num_samples


# ----------------------------------------------------------------------
# Reduction to #NFA
# ----------------------------------------------------------------------
class PQEReduction:
    """Builds the coin-word automaton for a (database, query) pair."""

    def __init__(
        self, database: ProbabilisticDatabase, query: PathQuery, bits: int = 2
    ) -> None:
        if bits < 1:
            raise ReductionError("bits must be at least 1")
        self.database = database
        self.query = query
        self.bits = bits
        self._nfa: Optional[NFA] = None
        # Tuple order: atoms in query order, facts in insertion order.
        self.ordered_facts: List[Tuple[str, Fact]] = [
            (relation, fact)
            for relation in query.relations
            for fact in database.facts(relation)
        ]
        if not self.ordered_facts:
            raise ReductionError("the query references no facts in the database")

    # -- dyadic rounding ------------------------------------------------
    def threshold(self, probability: float) -> int:
        """Dyadic threshold ``t``: the tuple is present iff its block < t."""
        return int(round(probability * (1 << self.bits)))

    def rounded_probability(self, probability: float) -> float:
        return self.threshold(probability) / float(1 << self.bits)

    @property
    def word_length(self) -> int:
        return self.bits * len(self.ordered_facts)

    # -- automaton ------------------------------------------------------
    def automaton(self) -> NFA:
        if self._nfa is None:
            self._nfa = self._build()
        return self._nfa

    def _build(self) -> NFA:
        # A state is (fact_index, bit_index, comparison, frontier, accumulating)
        # where comparison tracks the running block-vs-threshold comparison
        # ("lt", "eq", "gt"), ``frontier`` is the set of join values reachable
        # after the previous atoms (or _ALL before the first atom), and
        # ``accumulating`` collects the values produced by the current atom.
        initial: State = self._state(0, 0, "eq", _ALL, frozenset())
        states: Set[State] = {initial}
        transitions: Set[Transition] = set()
        frontier_queue: List[State] = [initial]
        explored: Set[State] = {initial}
        accepting: Set[State] = set()
        while frontier_queue:
            state = frontier_queue.pop()
            decoded = self._decode(state)
            if decoded is None:
                accepting_flag = state[1]
                if accepting_flag:
                    accepting.add(state)
                continue
            fact_index, bit_index, comparison, frontier, accumulating = decoded
            relation, (left, right, probability) = self.ordered_facts[fact_index]
            threshold_bits = self._threshold_bits(probability)
            for symbol in ("0", "1"):
                next_state = self._advance(
                    fact_index,
                    bit_index,
                    comparison,
                    frontier,
                    accumulating,
                    symbol,
                    threshold_bits,
                    left,
                    right,
                )
                transitions.add((state, symbol, next_state))
                if next_state not in explored:
                    explored.add(next_state)
                    states.add(next_state)
                    frontier_queue.append(next_state)
        # Final states reached with no transitions may still need accepting flags.
        for state in states:
            if self._decode(state) is None and state[1]:
                accepting.add(state)
        return NFA(
            states=frozenset(states),
            initial=initial,
            transitions=frozenset(transitions),
            accepting=frozenset(accepting),
            alphabet=("0", "1"),
        )

    # -- state helpers ---------------------------------------------------
    @staticmethod
    def _state(
        fact_index: int,
        bit_index: int,
        comparison: str,
        frontier: object,
        accumulating: FrozenSet[str],
    ) -> State:
        return ("pqe", fact_index, bit_index, comparison, frontier, accumulating)

    @staticmethod
    def _final_state(satisfied: bool) -> State:
        return ("pqe-done", satisfied)

    def _decode(self, state: State):
        if state[0] == "pqe-done":
            return None
        _tag, fact_index, bit_index, comparison, frontier, accumulating = state
        return fact_index, bit_index, comparison, frontier, accumulating

    def _threshold_bits(self, probability: float) -> str:
        return format(self.threshold(probability), f"0{self.bits + 1}b")[-self.bits :] \
            if self.threshold(probability) < (1 << self.bits) else "1" * self.bits

    def _advance(
        self,
        fact_index: int,
        bit_index: int,
        comparison: str,
        frontier: object,
        accumulating: FrozenSet[str],
        symbol: str,
        threshold_bits: str,
        left: str,
        right: str,
    ) -> State:
        threshold_value = self.threshold(
            self.ordered_facts[fact_index][1][2]
        )
        # Update the block-vs-threshold comparison with the new bit.
        if threshold_value >= (1 << self.bits):
            new_comparison = "lt"  # probability 1 after rounding: always present
        elif comparison == "eq":
            threshold_bit = threshold_bits[bit_index]
            if symbol < threshold_bit:
                new_comparison = "lt"
            elif symbol > threshold_bit:
                new_comparison = "gt"
            else:
                new_comparison = "eq"
        else:
            new_comparison = comparison

        bit_index += 1
        if bit_index < self.bits:
            return self._state(fact_index, bit_index, new_comparison, frontier, accumulating)

        # Block complete: the fact is present iff the block value < threshold.
        present = new_comparison == "lt"
        if present and (frontier == _ALL or left in frontier):
            accumulating = accumulating | {right}

        fact_index += 1
        if fact_index < len(self.ordered_facts):
            next_relation = self.ordered_facts[fact_index][0]
            current_relation = self.ordered_facts[fact_index - 1][0]
            if next_relation != current_relation:
                # Atom boundary: the accumulated endpoints become the frontier.
                frontier = frozenset(accumulating)
                accumulating = frozenset()
            return self._state(fact_index, 0, "eq", frontier, accumulating)

        # All facts processed: satisfied iff the last atom produced endpoints.
        return self._final_state(bool(accumulating))

    # -- public API -------------------------------------------------------
    def exact_rounded_probability(self) -> float:
        """Exact PQE probability under the dyadic rounding (via exact #NFA)."""
        count = count_exact(self.automaton(), self.word_length)
        return count / float(1 << self.word_length)

    def reduction_size(self) -> Dict[str, int]:
        automaton = self.automaton()
        return {
            "facts": len(self.ordered_facts),
            "bits_per_fact": self.bits,
            "word_length": self.word_length,
            "nfa_states": automaton.num_states,
            "nfa_transitions": automaton.num_transitions,
        }


def evaluate_path_query(
    database: ProbabilisticDatabase,
    query: PathQuery,
    method: str = "fpras",
    epsilon: float = 0.3,
    delta: float = 0.1,
    bits: int = 2,
    seed: Optional[int] = None,
    num_samples: int = 10_000,
    scale: Optional[ParameterScale] = None,
    policy: Optional[ExecutionPolicy] = None,
) -> PQEResult:
    """Evaluate a path query with the chosen method.

    ``method`` is one of ``"fpras"`` (reduce to #NFA and run the paper's
    algorithm through the unified counting façade), ``"exact"`` (enumerate
    sub-databases), ``"exact-nfa"`` (exact #NFA count of the coin-word
    automaton, i.e. exact under dyadic rounding) or ``"montecarlo"``.
    ``policy`` is the :class:`~repro.counting.policy.ExecutionPolicy` of
    the counting run.
    """
    if method == "exact":
        return PQEResult(probability=exact_probability(database, query), method=method)
    if method == "montecarlo":
        probability = montecarlo_probability(database, query, num_samples, seed)
        return PQEResult(probability=probability, method=method)

    reduction = PQEReduction(database, query, bits=bits)
    if method == "exact-nfa":
        probability = reduction.exact_rounded_probability()
        return PQEResult(
            probability=probability,
            method=method,
            word_length=reduction.word_length,
            nfa_states=reduction.automaton().num_states,
        )
    if method != "fpras":
        raise ReductionError(f"unknown PQE method {method!r}")

    result: CountResult = unified_count(
        reduction.automaton(),
        reduction.word_length,
        method="fpras",
        epsilon=epsilon,
        delta=delta,
        seed=seed,
        policy=policy,
        scale=scale,
    ).raw
    probability = result.estimate / float(1 << reduction.word_length)
    return PQEResult(
        probability=probability,
        method=method,
        word_length=reduction.word_length,
        nfa_states=reduction.automaton().num_states,
        count_estimate=result.estimate,
        epsilon=epsilon,
        delta=delta,
    )
