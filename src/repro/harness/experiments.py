"""Experiment registry (E1 … E8) and runners.

Each experiment corresponds to one row of the experiment index in DESIGN.md
and regenerates one "table or figure" worth of data — here, since the paper
is purely theoretical, one quantitative claim of the paper or one of the
application scenarios from its introduction.  Runners return an
:class:`ExperimentResult` whose ``rows`` can be printed with
:func:`repro.harness.reporting.format_table`; the benchmark modules under
``benchmarks/`` wrap the same runners in ``pytest-benchmark`` fixtures.

Every counting sweep (E1-E5 and E8) runs through the declarative scenario
matrix (:mod:`repro.audit.scenarios` / :func:`repro.audit.manifest.run_matrix`),
so its cells carry audit-manifest records (fingerprints, ground truth,
guarantee verdicts) for free.  E6 and E7 are not counting sweeps: E6 calls
three application reductions once each and E7 draws sampler words.

All experiments accept a ``quick`` flag: the default (quick) settings run in
seconds on a laptop; ``quick=False`` uses larger sweeps for report-quality
numbers.
"""

from __future__ import annotations

import inspect
import random
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Sequence

from repro.analysis.complexity import complexity_point, growth_exponent
from repro.analysis.statistics import uniformity_report
from repro.audit import DEFAULT_MATRIX, run_matrix
from repro.automata import families
from repro.automata.exact import enumerate_slice
from repro.counting.api import CountRequest
from repro.counting.fpras import FPRASParameters
from repro.counting.policy import ExecutionPolicy
from repro.counting.uniform import UniformWordSampler
from repro.errors import ExperimentError


#: Default seed for every experiment entry point.  All estimator randomness
#: in a run derives from one ``random.Random(seed)`` stream, so a benchmark
#: invocation is reproducible bit-for-bit — including across simulation
#: backends, which consume the stream identically (see the parity suite).
BENCH_SEED = 20240727


def _experiment_rng(seed: Optional[int]) -> random.Random:
    """The single seeded randomness source of one experiment run."""
    return random.Random(BENCH_SEED if seed is None else seed)


def _derive_seed(rng: random.Random) -> int:
    """A sub-seed for one estimator invocation, drawn from the run stream."""
    return rng.randrange(2**31)


@dataclass
class ExperimentResult:
    """Output of one experiment run: rows of a table plus free-form notes."""

    experiment: str
    description: str
    rows: List[Dict[str, object]] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)
    elapsed_seconds: float = 0.0

    def add_row(self, **values: object) -> None:
        self.rows.append(dict(values))

    def add_note(self, note: str) -> None:
        self.notes.append(note)


ExperimentRunner = Callable[..., ExperimentResult]


# ----------------------------------------------------------------------
# E1 — sample complexity per state (paper's Table-1-equivalent claim)
# ----------------------------------------------------------------------
def run_sample_complexity(
    quick: bool = True, seed: Optional[int] = None
) -> ExperimentResult:
    """Configured samples per (state, level): ACJR vs this paper.

    Reproduces the comparison in Section 1 of the paper: ACJR keep
    ``O((mn/eps)^7)`` samples per state while the new scheme keeps
    ``Õ(n^4/eps^2)`` — independent of ``m``.  The sweep runs through the
    declarative scenario matrix (:func:`repro.audit.manifest.run_matrix`):
    each ``(m, n, epsilon)`` cell is a ``divisibility(m)`` scenario counted
    with the capped FPRAS, and its row pairs the analytic sample/time
    formulas with the measured relative error and wall time of that run.
    """
    result = ExperimentResult(
        experiment="E1",
        description="samples per (state, level): ACJR O((mn/eps)^7) vs paper Õ(n^4/eps^2)",
    )
    start = time.perf_counter()
    state_counts = (5, 10, 20) if quick else (5, 10, 20, 50, 100)
    lengths = (10, 20) if quick else (10, 20, 50, 100)
    epsilons = (0.5, 0.1) if quick else (0.5, 0.2, 0.1, 0.05)
    delta = 0.1
    rng = _experiment_rng(seed)
    spec = {
        # divisibility(m) has exactly m states, so the matrix's family
        # axis doubles as the sweep's m axis.
        "families": [
            {"family": "divisibility", "args": {"divisor": m}, "lengths": list(lengths)}
            for m in state_counts
        ],
        "methods": ["fpras"],
        "accuracy": [{"epsilon": epsilon, "delta": delta} for epsilon in epsilons],
        "seeds": [_derive_seed(rng)],
        "scale": {"sample_cap": 12, "union_trial_cap": 16},
    }
    manifest = run_matrix(spec)
    for record in manifest["scenarios"]:
        cell = record["spec"]
        point = complexity_point(
            int(cell["family_args"]["divisor"]),
            int(cell["length"]),
            float(cell["epsilon"]),
            delta,
        )
        parameters = FPRASParameters(epsilon=point.epsilon, delta=point.delta)
        result.add_row(
            m=point.num_states,
            n=point.length,
            epsilon=point.epsilon,
            acjr_samples=point.acjr_samples,
            paper_samples=point.paper_samples,
            paper_ns_formula=parameters.ns_paper(point.length, point.num_states),
            sample_ratio=point.sample_ratio,
            time_ratio=point.time_ratio,
            measured_rel_error=record["relative_error"],
            measured_seconds=record["elapsed_seconds"],
        )
    result.add_note(
        "paper_samples depends only on n and epsilon (independent of m); "
        "acjr_samples grows with m^7 — the ratio column is the paper's headline gap."
    )
    result.add_note(
        "measured_* columns come from an audited run_matrix sweep of the same "
        "cells (capped FPRAS on divisibility(m)); run `repro audit` to persist it."
    )
    result.elapsed_seconds = time.perf_counter() - start
    return result


# ----------------------------------------------------------------------
# E2 — accuracy of the FPRAS against exact ground truth (Theorem 3)
# ----------------------------------------------------------------------
#: The matrix cells of E2: the default benchmark suite, declaratively.
ACCURACY_FAMILIES = (
    {"family": "all_words", "args": {}},
    {"family": "parity", "args": {"ones_modulus": 3}},
    {"family": "divisibility", "args": {"divisor": 5}},
    {"family": "substring", "args": {"pattern": "101"}},
    {"family": "suffix", "args": {"pattern": "0110"}},
    {"family": "union_of_patterns", "args": {"patterns": ["00", "11", "0101"]}},
    {"family": "no_consecutive_ones", "args": {}},
    {"family": "ladder", "args": {"rungs": 4}},
)


def run_accuracy(
    quick: bool = True,
    epsilon: float = 0.3,
    trials: Optional[int] = None,
    length: Optional[int] = None,
    seed: Optional[int] = None,
    backend: Optional[str] = None,
) -> ExperimentResult:
    """Relative error and guarantee satisfaction across the structured families.

    The trial sweep is a declarative scenario matrix: every family of
    :data:`ACCURACY_FAMILIES` crosses with ``trials`` seeds through
    :func:`repro.audit.manifest.run_matrix`, and each row summarises one
    family's seed group exactly as the audit manifest records it (ground
    truth, mean/max relative error, fraction within the guarantee).
    """
    result = ExperimentResult(
        experiment="E2",
        description="FPRAS accuracy vs exact counts (Theorem 3 guarantee)",
    )
    start = time.perf_counter()
    rng = _experiment_rng(seed)
    trials = trials if trials is not None else (3 if quick else 10)
    length = length if length is not None else (8 if quick else 12)
    base_seed = _derive_seed(rng)
    spec = {
        "families": [dict(entry, lengths=[length]) for entry in ACCURACY_FAMILIES],
        "methods": ["fpras"],
        "backends": [backend],
        "accuracy": [{"epsilon": epsilon, "delta": 0.1}],
        "seeds": [base_seed + trial for trial in range(trials)],
    }
    manifest = run_matrix(spec)
    groups: Dict[str, List[Dict[str, object]]] = {}
    for record in manifest["scenarios"]:
        groups.setdefault(record["group"], []).append(record)
    for group_records in groups.values():
        cell = group_records[0]["spec"]
        nfa = families.build_family(cell["family"], **dict(cell["family_args"]))
        errors = [
            record["relative_error"]
            for record in group_records
            if record["relative_error"] is not None
        ]
        verdicts = [
            record["within_epsilon"]
            for record in group_records
            if record["within_epsilon"] is not None
        ]
        result.add_row(
            name=cell["family"],
            states=nfa.num_states,
            length=cell["length"],
            exact=group_records[0]["exact"],
            trials=len(group_records),
            mean_rel_error=sum(errors) / len(errors) if errors else None,
            max_rel_error=max(errors) if errors else None,
            within_fraction=(
                sum(1 for verdict in verdicts if verdict) / len(verdicts)
                if verdicts
                else None
            ),
            epsilon=cell["epsilon"],
        )
    result.add_note(
        f"guarantee target: every estimate within a (1+{epsilon}) factor of exact "
        f"with probability >= 1 - delta."
    )
    result.add_note(
        "rows aggregate per-family seed groups of an audited run_matrix sweep; "
        "the same groups feed the CI drift gate."
    )
    result.elapsed_seconds = time.perf_counter() - start
    return result


# ----------------------------------------------------------------------
# E3/E4/E5 — runtime scaling in n, m, and 1/eps
# ----------------------------------------------------------------------
def _sweep_rows(
    manifest: Mapping[str, object],
    axis: str,
    point: Callable[[Mapping[str, object]], str],
) -> List[Dict[str, object]]:
    """One table row per sweep point of a scaling matrix.

    ``point`` labels a record's cell (``"m=8"``, ``"eps=0.5"``) and the row
    stores that label under ``axis``.  Rows keep the order their points
    first appear in the manifest, which is the sweep order of the spec.
    Every method of a point contributes ``<method>_seconds`` and
    ``<method>_rel_error`` (plus ``<method>_samples_per_state`` when it
    reports ``ns``); the fpras record also supplies the ``backend`` column.
    """
    rows: Dict[str, Dict[str, object]] = {}
    for record in manifest["scenarios"]:
        cell = record["spec"]
        label = point(cell)
        row = rows.setdefault(
            label,
            {
                axis: label,
                "states": record["report"]["num_states"],
                "length": cell["length"],
                "exact": record["exact"],
            },
        )
        method = cell["method"]
        row[f"{method}_seconds"] = record["elapsed_seconds"]
        row[f"{method}_rel_error"] = record["relative_error"]
        ns = record["report"]["details"].get("ns")
        if ns is not None:
            row[f"{method}_samples_per_state"] = ns
        if method == "fpras":
            row["backend"] = record["backend"]
    return list(rows.values())


def _append_growth_note(result: ExperimentResult, xs: Sequence[float], key: str) -> None:
    times = [row[key] for row in result.rows if key in row]
    if len(times) >= 2 and all(t > 0 for t in times):
        exponent = growth_exponent(xs[: len(times)], times)
        result.add_note(f"empirical growth exponent of {key}: {exponent:.2f}")


def run_scaling_length(
    quick: bool = True,
    seed: Optional[int] = None,
    backend: Optional[str] = None,
) -> ExperimentResult:
    """Runtime growth with the word length n (Theorem 3's n-dependence).

    The workload is one seeded ``random_nfa`` family cell swept over the
    length axis of a :func:`repro.audit.manifest.run_matrix` spec and
    crossed with the estimator methods.
    """
    result = ExperimentResult(
        experiment="E3", description="runtime scaling with n (fixed m, epsilon)"
    )
    start = time.perf_counter()
    rng = _experiment_rng(seed)
    lengths = (4, 6, 8, 10) if quick else (4, 6, 8, 10, 12, 16, 20)
    methods = ["fpras", "montecarlo"] if quick else ["fpras", "acjr", "montecarlo"]
    family_args = {
        "num_states": 6,
        "length": max(lengths),
        "density": 0.35,
        "seed": 11,
    }
    spec = {
        "families": [
            {"family": "random_nfa", "args": family_args, "lengths": list(lengths)}
        ],
        "methods": methods,
        "backends": [backend],
        "accuracy": [{"epsilon": 0.4, "delta": 0.1}],
        "seeds": [_derive_seed(rng)],
        "options": {"montecarlo": {"num_samples": 4000}},
    }
    result.rows = _sweep_rows(
        run_matrix(spec), "n", lambda cell: f"n={cell['length']}"
    )
    _append_growth_note(result, [float(n) for n in lengths], "fpras_seconds")
    result.elapsed_seconds = time.perf_counter() - start
    return result


def scaling_states_args(m: int) -> Dict[str, object]:
    """The ``random_nfa`` family arguments of E4's m-state cell.

    Every cell is non-empty at length 8; the density thins out as m grows
    so the slices stay comparable in size.  The m-scaling benchmarks build
    their automata from the same arguments.
    """
    return {
        "num_states": m,
        "length": 8,
        "density": min(0.5, 2.5 / m + 0.15),
        "seed": 17 + m,
    }


def run_scaling_states(
    quick: bool = True,
    seed: Optional[int] = None,
    backend: Optional[str] = None,
) -> ExperimentResult:
    """Runtime growth with the automaton size m ("independent of m" claim).

    One :func:`scaling_states_args` family cell per m, counted through
    :func:`repro.audit.manifest.run_matrix`.
    """
    result = ExperimentResult(
        experiment="E4", description="runtime scaling with m (fixed n, epsilon)"
    )
    start = time.perf_counter()
    rng = _experiment_rng(seed)
    state_counts = (4, 6, 8) if quick else (4, 6, 8, 12, 16, 24)
    spec = {
        "families": [
            {"family": "random_nfa", "args": args, "lengths": [args["length"]]}
            for args in map(scaling_states_args, state_counts)
        ],
        "methods": ["fpras"] if quick else ["fpras", "acjr"],
        "backends": [backend],
        "accuracy": [{"epsilon": 0.4, "delta": 0.1}],
        "seeds": [_derive_seed(rng)],
    }
    result.rows = _sweep_rows(
        run_matrix(spec), "m", lambda cell: f"m={cell['family_args']['num_states']}"
    )
    _append_growth_note(result, [float(m) for m in state_counts], "fpras_seconds")
    result.add_note(
        "fpras_samples_per_state stays constant as m grows (paper: independent of m)."
    )
    result.elapsed_seconds = time.perf_counter() - start
    return result


def run_scaling_epsilon(
    quick: bool = True,
    seed: Optional[int] = None,
    backend: Optional[str] = None,
) -> ExperimentResult:
    """Runtime / sample growth as the accuracy target tightens.

    One ``suffix(0110)`` cell at n=8 whose accuracy axis carries the
    epsilon sweep, counted through :func:`repro.audit.manifest.run_matrix`.
    """
    result = ExperimentResult(
        experiment="E5", description="scaling with 1/epsilon (fixed m, n)"
    )
    start = time.perf_counter()
    rng = _experiment_rng(seed)
    epsilons = (1.0, 0.5, 0.3) if quick else (1.0, 0.7, 0.5, 0.3, 0.2, 0.1)
    delta = 0.1
    spec = {
        "families": [
            {"family": "suffix", "args": {"pattern": "0110"}, "lengths": [8]}
        ],
        "methods": ["fpras"],
        "backends": [backend],
        "accuracy": [{"epsilon": epsilon, "delta": delta} for epsilon in epsilons],
        "seeds": [_derive_seed(rng)],
    }
    result.rows = _sweep_rows(
        run_matrix(spec), "epsilon", lambda cell: f"eps={cell['epsilon']}"
    )
    for row, epsilon in zip(result.rows, epsilons):
        parameters = FPRASParameters(epsilon=epsilon, delta=delta)
        row["paper_ns_formula"] = parameters.ns_paper(row["length"], row["states"])
    result.elapsed_seconds = time.perf_counter() - start
    return result


# ----------------------------------------------------------------------
# E6 — the database applications end to end
# ----------------------------------------------------------------------
def run_applications(
    quick: bool = True, seed: Optional[int] = None
) -> ExperimentResult:
    """RPQ counting, PQE and graph-homomorphism probability via #NFA."""
    from repro.applications.graphdb import GraphDatabase, RegularPathQuery, RPQCounter
    from repro.applications.pqe import (
        PathQuery,
        ProbabilisticDatabase,
        evaluate_path_query,
        exact_probability,
    )
    from repro.applications.prob_graph import (
        LayeredProbabilisticGraph,
        homomorphism_probability,
    )

    result = ExperimentResult(
        experiment="E6",
        description="database applications solved through the #NFA reduction",
    )
    start = time.perf_counter()
    rng = _experiment_rng(seed)

    # Regular path query counting.
    database = GraphDatabase.from_edges(
        [
            ("alice", "knows", "bob"),
            ("alice", "knows", "carol"),
            ("bob", "knows", "carol"),
            ("carol", "knows", "dave"),
            ("bob", "worksAt", "acme"),
            ("carol", "worksAt", "acme"),
            ("dave", "worksAt", "initech"),
        ]
    )
    query = RegularPathQuery("alice", "(<knows>)*<worksAt>", "acme", max_length=5)
    rpq = RPQCounter(database, query)
    exact = rpq.count_exact()
    approx = rpq.count_fpras(epsilon=0.3, seed=_derive_seed(rng))
    result.add_row(
        application="RPQ answer count",
        exact=exact,
        estimate=approx.estimate,
        rel_error=abs(approx.estimate - exact) / exact if exact else 0.0,
        nfa_states=rpq.product_automaton().num_states,
        length=query.max_length,
    )

    # Probabilistic query evaluation.
    pdb = ProbabilisticDatabase()
    pdb.add_fact("R", "a", "b", 0.5)
    pdb.add_fact("R", "a", "c", 0.75)
    pdb.add_fact("R", "d", "c", 0.25)
    pdb.add_fact("S", "b", "z", 0.5)
    pdb.add_fact("S", "c", "z", 0.25)
    path_query = PathQuery(("R", "S"))
    exact_p = exact_probability(pdb, path_query)
    approx_p = evaluate_path_query(
        pdb, path_query, method="fpras", epsilon=0.3, bits=2, seed=_derive_seed(rng)
    )
    result.add_row(
        application="PQE (self-join-free path query)",
        exact=exact_p,
        estimate=approx_p.probability,
        rel_error=abs(approx_p.probability - exact_p) / exact_p if exact_p else 0.0,
        nfa_states=approx_p.nfa_states,
        length=approx_p.word_length,
    )

    # Probabilistic graph homomorphism (layered path query).
    graph = LayeredProbabilisticGraph()
    graph.add_layer(["s1", "s2"])
    graph.add_layer(["m1", "m2"])
    graph.add_layer(["t1"])
    graph.add_edge(0, "s1", "m1", 0.5)
    graph.add_edge(0, "s2", "m2", 0.5)
    graph.add_edge(0, "s1", "m2", 0.25)
    graph.add_edge(1, "m1", "t1", 0.75)
    graph.add_edge(1, "m2", "t1", 0.5)
    exact_h = graph.exact_probability()
    approx_h = homomorphism_probability(
        graph, method="fpras", epsilon=0.3, seed=_derive_seed(rng)
    )
    result.add_row(
        application="probabilistic graph homomorphism (path)",
        exact=exact_h,
        estimate=approx_h.probability,
        rel_error=abs(approx_h.probability - exact_h) / exact_h if exact_h else 0.0,
        nfa_states=approx_h.nfa_states,
        length=approx_h.word_length,
    )
    result.add_note(
        "all three applications are answered by the same FPRAS on linear-size "
        "(RPQ) or coin-word (PQE / homomorphism) reductions; exact columns come "
        "from independent brute-force evaluators."
    )
    result.elapsed_seconds = time.perf_counter() - start
    return result


# ----------------------------------------------------------------------
# E7 — uniformity of the sampler and AppUnion quality (Inv-2 / Theorem 1)
# ----------------------------------------------------------------------
def run_uniformity(
    quick: bool = True,
    sample_count: Optional[int] = None,
    seed: Optional[int] = None,
    backend: Optional[str] = None,
) -> ExperimentResult:
    """TV distance of sampled words from uniform on enumerable languages."""
    result = ExperimentResult(
        experiment="E7",
        description="sampler uniformity (Inv-2) on small, fully enumerable slices",
    )
    start = time.perf_counter()
    rng = _experiment_rng(seed)
    sample_count = sample_count if sample_count is not None else (300 if quick else 2000)
    instances = [
        ("no_consecutive_ones", families.no_consecutive_ones_nfa(), 8),
        ("substring_11", families.substring_nfa("11"), 7),
        ("parity_3", families.parity_nfa(3), 8),
    ]
    for name, nfa, length in instances:
        population = enumerate_slice(nfa, length)
        request = CountRequest(
            method="fpras", epsilon=0.4, delta=0.2,
            seed=_derive_seed(rng), policy=ExecutionPolicy(backend=backend),
        )
        sampler = UniformWordSampler.from_request(nfa, length, request)
        words, report = sampler.sample_with_report(sample_count)
        uniformity = uniformity_report(words, population)
        result.add_row(
            instance=name,
            length=length,
            slice_size=len(population),
            samples=len(words),
            tv_distance=uniformity.tv_distance,
            sampling_noise_tv=uniformity.expected_tv_distance,
            excess_tv=uniformity.excess_tv,
            acceptance_rate=report.acceptance_rate,
        )
    result.add_note(
        "excess_tv is the measured TV distance minus what an exactly uniform "
        "sampler of the same size would show; values near zero support Inv-2."
    )
    result.elapsed_seconds = time.perf_counter() - start
    return result


# ----------------------------------------------------------------------
# E8 — the audited scenario matrix (declarative, manifest-backed)
# ----------------------------------------------------------------------
def run_audit_matrix(
    quick: bool = True,
    seed: Optional[int] = None,
) -> ExperimentResult:
    """Run the declarative audit matrix and tabulate its per-group summary.

    Where E1-E5 build their own matrix specs, this experiment runs the
    audit pipeline's own one: the matrix spec from
    :data:`repro.audit.scenarios.DEFAULT_MATRIX` is expanded factorially,
    executed through the unified facade, and summarised exactly as the CI
    manifest records it — so ``repro experiment E8`` shows locally what the
    audit gate will see.  ``quick`` trims the seed sweep to two seeds.
    """
    result = ExperimentResult(
        experiment="E8",
        description="audited scenario matrix (method x family x seed, manifest summary)",
    )
    start = time.perf_counter()
    spec = dict(DEFAULT_MATRIX)
    if quick:
        spec["seeds"] = list(spec["seeds"])[:2]
    if seed is not None:
        spec["seeds"] = [seed + offset for offset in range(len(spec["seeds"]))]
    manifest = run_matrix(spec)
    for name, group in manifest["summary"]["groups"].items():
        result.add_row(
            group=name,
            seeds=group["count"],
            max_rel_error=group["max_relative_error"],
            eps_utilisation=group["epsilon_utilisation"],
            failure_fraction=group["failure_fraction"],
            delta=group["delta"],
        )
    result.add_note(
        "rows mirror the manifest summary the CI audit gate diffs; "
        "run `repro audit` to persist the full manifest."
    )
    result.elapsed_seconds = time.perf_counter() - start
    return result


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
EXPERIMENTS: Dict[str, ExperimentRunner] = {
    "E1": run_sample_complexity,
    "E2": run_accuracy,
    "E3": run_scaling_length,
    "E4": run_scaling_states,
    "E5": run_scaling_epsilon,
    "E6": run_applications,
    "E7": run_uniformity,
    "E8": run_audit_matrix,
}


def get_experiment(name: str) -> ExperimentRunner:
    """Look up an experiment runner by id (case insensitive)."""
    key = name.upper()
    if key not in EXPERIMENTS:
        raise ExperimentError(
            f"unknown experiment {name!r}; available: {sorted(EXPERIMENTS)}"
        )
    return EXPERIMENTS[key]


def run_experiment(name: str, quick: bool = True, **options: object) -> ExperimentResult:
    """Run an experiment by id and return its result.

    Raises :class:`ExperimentError` when an option is not a parameter of
    the runner, so a misspelled knob cannot silently fall back to its
    default.
    """
    runner = get_experiment(name)
    accepted = list(inspect.signature(runner).parameters)
    unknown = sorted(set(options) - set(accepted))
    if unknown:
        raise ExperimentError(
            f"experiment {name.upper()} got unknown option(s) {unknown}; "
            f"accepted options: {accepted}"
        )
    return runner(quick=quick, **options)
