"""Probabilistic graph homomorphism for path queries.

A probabilistic graph ``(H, pi)`` is a graph whose edges are kept
independently with probability ``pi(e)``; the probabilistic graph
homomorphism problem asks for the probability that a sampled subgraph admits
a homomorphism from a query graph ``G``.  For one-way path queries the
problem reduces to #NFA (Amarilli, van Bremen, Meel, ICDT 2024 — reference
[1] of the paper).

Scope of this module (documented substitution):

* for *layered* probabilistic graphs (edges only go from layer ``i`` to
  layer ``i + 1``) the path-homomorphism probability is exactly a PQE
  instance — one relation per layer — so the reduction delegates to
  :mod:`repro.applications.pqe` and from there to #NFA;
* for general graphs, exact enumeration and naive Monte-Carlo references are
  provided; the fully general linear reduction of [1] is out of scope, which
  experiment E6 notes explicitly.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.applications.pqe import (
    PathQuery,
    PQEResult,
    ProbabilisticDatabase,
    evaluate_path_query,
)
from repro.counting.policy import ExecutionPolicy
from repro.errors import ReductionError

ProbEdge = Tuple[str, str, float]


@dataclass
class LayeredProbabilisticGraph:
    """A probabilistic graph whose nodes are organised into layers.

    ``layers[i]`` is the list of node names in layer ``i``; edges may only go
    from layer ``i`` to layer ``i + 1``.  A path query of length ``k`` asks
    for the probability that some source-layer node reaches the last layer
    through ``k`` surviving edges.
    """

    layers: List[List[str]] = field(default_factory=list)
    edges: List[Tuple[int, ProbEdge]] = field(default_factory=list)

    def add_layer(self, nodes: Sequence[str]) -> int:
        """Append a layer; returns its index."""
        self.layers.append([str(node) for node in nodes])
        return len(self.layers) - 1

    def add_edge(self, layer: int, source: str, target: str, probability: float) -> None:
        """Add an edge from ``source`` (in ``layer``) to ``target`` (in ``layer+1``)."""
        if not 0 <= layer < len(self.layers) - 1:
            raise ReductionError(f"layer {layer} has no successor layer")
        if source not in self.layers[layer]:
            raise ReductionError(f"{source!r} is not a node of layer {layer}")
        if target not in self.layers[layer + 1]:
            raise ReductionError(f"{target!r} is not a node of layer {layer + 1}")
        if not 0.0 <= probability <= 1.0:
            raise ReductionError("edge probabilities must lie in [0, 1]")
        self.edges.append((layer, (source, target, probability)))

    @property
    def num_layers(self) -> int:
        return len(self.layers)

    @property
    def path_length(self) -> int:
        """The length of the path query this graph naturally supports."""
        return max(0, self.num_layers - 1)

    # ------------------------------------------------------------------
    def as_probabilistic_database(self) -> Tuple[ProbabilisticDatabase, PathQuery]:
        """View each layer's edge set as one relation of a PQE instance."""
        if self.num_layers < 2:
            raise ReductionError("need at least two layers for a path query")
        database = ProbabilisticDatabase()
        relation_names = [f"hop{i}" for i in range(self.path_length)]
        for layer, (source, target, probability) in self.edges:
            database.add_fact(relation_names[layer], source, target, probability)
        return database, PathQuery(tuple(relation_names))

    # ------------------------------------------------------------------
    def exact_probability(self) -> float:
        """Exact homomorphism probability by sub-graph enumeration (small only)."""
        if len(self.edges) > 22:
            raise ReductionError(
                f"exact enumeration over {len(self.edges)} edges is too large"
            )
        total = 0.0
        for mask in itertools.product((False, True), repeat=len(self.edges)):
            weight = 1.0
            kept: Dict[int, List[Tuple[str, str]]] = {}
            for include, (layer, (source, target, probability)) in zip(mask, self.edges):
                if include:
                    weight *= probability
                    kept.setdefault(layer, []).append((source, target))
                else:
                    weight *= 1.0 - probability
            if weight == 0.0:
                continue
            if self._has_full_path(kept):
                total += weight
        return total

    def montecarlo_probability(
        self, num_samples: int = 10_000, seed: Optional[int] = None
    ) -> float:
        """Monte-Carlo reference estimator (samples subgraphs directly)."""
        rng = random.Random(seed)
        hits = 0
        for _ in range(num_samples):
            kept: Dict[int, List[Tuple[str, str]]] = {}
            for layer, (source, target, probability) in self.edges:
                if rng.random() < probability:
                    kept.setdefault(layer, []).append((source, target))
            if self._has_full_path(kept):
                hits += 1
        return hits / num_samples

    def _has_full_path(self, kept: Dict[int, List[Tuple[str, str]]]) -> bool:
        frontier: Set[str] = set(self.layers[0])
        for layer in range(self.path_length):
            next_frontier = {
                target for source, target in kept.get(layer, ()) if source in frontier
            }
            if not next_frontier:
                return False
            frontier = next_frontier
        return True


def homomorphism_probability(
    graph: LayeredProbabilisticGraph,
    method: str = "fpras",
    epsilon: float = 0.3,
    delta: float = 0.1,
    bits: int = 2,
    seed: Optional[int] = None,
    num_samples: int = 10_000,
    policy: Optional[ExecutionPolicy] = None,
) -> PQEResult:
    """Probability that a sampled subgraph contains a full source-to-sink path.

    ``method`` accepts the same values as
    :func:`repro.applications.pqe.evaluate_path_query`, plus ``"exact-graph"``
    and ``"montecarlo-graph"`` which evaluate directly on the graph without
    the PQE reduction (useful as independent cross-checks).  ``policy`` is
    the :class:`~repro.counting.policy.ExecutionPolicy` of the #NFA run
    behind the PQE reduction.
    """
    if method == "exact-graph":
        return PQEResult(probability=graph.exact_probability(), method=method)
    if method == "montecarlo-graph":
        probability = graph.montecarlo_probability(num_samples=num_samples, seed=seed)
        return PQEResult(probability=probability, method=method)
    database, query = graph.as_probabilistic_database()
    return evaluate_path_query(
        database,
        query,
        method=method,
        epsilon=epsilon,
        delta=delta,
        bits=bits,
        seed=seed,
        num_samples=num_samples,
        policy=policy,
    )
