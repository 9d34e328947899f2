"""Append-only experiment manifests: one auditable JSON document per run.

The repo's headline claim is statistical — the FPRAS estimate stays within
the ``(epsilon, delta)`` envelope — and a claim like that is only as good
as its trail.  This module turns every scenario-matrix run into one
manifest document recording everything needed to audit it later: the git
revision and interpreter versions it ran under, the content-addressed
workload fingerprint of every scenario (via
:func:`~repro.counting.api.request_fingerprint`), the seed, the normalised
:class:`~repro.counting.api.CountReport` summary, exact ground truth where
``m * n`` permits computing it, the observed relative error against the
``epsilon`` bound, wall times and engine-counter deltas.

Manifests are **append-only**: :func:`write_manifest` refuses to overwrite
an existing file, and :func:`manifest_filename` derives a unique
content-addressed name, so a directory of manifests is a trajectory —
nothing is overwritten, everything is auditable.  Two manifests are
compared by :mod:`repro.audit.diff`, which is what CI gates on.

>>> from repro.audit.scenarios import expand_matrix
>>> scenarios = expand_matrix({
...     "families": [{"family": "substring", "args": {"pattern": "11"},
...                   "lengths": [6]}],
...     "methods": ["fpras"],
...     "accuracy": [{"epsilon": 0.5, "delta": 0.2}],
...     "seeds": [3, 4],
...     "scale": {"sample_cap": 8, "union_trial_cap": 8},
... })
>>> manifest = run_scenarios(scenarios)
>>> validate_manifest(manifest)
>>> [record["within_epsilon"] for record in manifest["scenarios"]]
[True, True]
>>> manifest["summary"]["scenario_count"]
2
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Mapping, Optional, Sequence

import numpy

from repro.audit.scenarios import Scenario, expand_matrix
from repro.automata.exact import count_exact
from repro.automata.nfa import NFA
from repro.automata.serialization import nfa_to_dict
from repro.counting.api import CountReport, dispatch, request_fingerprint
from repro.errors import AuditError

#: Schema version of manifest documents (bump on incompatible changes).
MANIFEST_SCHEMA_VERSION = 1

#: ``kind`` tag identifying a manifest document.
MANIFEST_KIND = "repro-audit-manifest"

#: Ground truth is computed when ``m <= GROUND_TRUTH_MAX_STATES`` and
#: ``m * n <= GROUND_TRUTH_MAX_MN`` (the exact subset DP stays cheap there).
GROUND_TRUTH_MAX_STATES = 96
GROUND_TRUTH_MAX_MN = 4096

#: Fields every scenario record carries (validation contract).
RECORD_FIELDS = (
    "id", "group", "spec", "fingerprint", "estimate", "exact",
    "relative_error", "within_epsilon", "elapsed_seconds", "timings",
    "repeats", "backend", "engine_counters", "report",
)


def _git_revision() -> Optional[str]:
    """The current git commit hash, or ``None`` outside a work tree."""
    try:
        revision = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10, check=False,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    value = revision.stdout.strip()
    return value if revision.returncode == 0 and value else None


def environment() -> Dict[str, object]:
    """The reproducibility context a manifest records alongside its results."""
    return {
        "git_revision": _git_revision(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
        "pythonhashseed": os.environ.get("PYTHONHASHSEED"),
        "argv": list(sys.argv),
    }


def _ground_truth(nfa: NFA, length: int) -> Optional[int]:
    """Exact ``|L(A_n)|`` when the instance is small enough, else ``None``."""
    if nfa.num_states > GROUND_TRUTH_MAX_STATES:
        return None
    if nfa.num_states * length > GROUND_TRUTH_MAX_MN:
        return None
    return count_exact(nfa, length)


def scenario_record(
    scenario: Scenario,
    report: CountReport,
    *,
    nfa: Optional[NFA] = None,
    exact: Optional[int] = None,
    timings: Optional[Sequence[float]] = None,
) -> Dict[str, object]:
    """One manifest entry for a scenario and the report its run produced.

    ``exact`` may be passed by callers that already computed (or cached)
    ground truth; otherwise it is derived here when the instance is small
    enough.  ``timings`` is the per-repeat wall-time list when the scenario
    was run more than once; the recorded ``elapsed_seconds`` is its median.
    """
    automaton = nfa if nfa is not None else scenario.build_nfa()
    document = nfa_to_dict(automaton)
    fingerprint = request_fingerprint(
        document, scenario.length, scenario.fingerprint_request()
    )
    if exact is None:
        exact = _ground_truth(automaton, scenario.length)
    relative_error = report.relative_error(exact) if exact is not None else None
    if relative_error is not None and not math.isfinite(relative_error):
        relative_error = None  # exact == 0 with a non-zero estimate
    within = report.within_guarantee(exact) if exact is not None else None
    timing_list = list(timings) if timings else [report.elapsed_seconds]
    return {
        "id": scenario.scenario_id,
        "group": scenario.group_id,
        "spec": scenario.describe(),
        "fingerprint": fingerprint,
        "estimate": report.estimate,
        "exact": exact,
        "relative_error": relative_error,
        "within_epsilon": within,
        "elapsed_seconds": statistics.median(timing_list),
        "timings": timing_list,
        "repeats": len(timing_list),
        "backend": report.backend,
        "engine_counters": {
            str(key): value for key, value in report.engine_counters.items()
        },
        "report": report.audit_summary(),
    }


def summarise_records(records: Sequence[Mapping[str, object]]) -> Dict[str, object]:
    """The per-group roll-up the drift gate reads.

    For every :attr:`~repro.audit.scenarios.Scenario.group_id` (a seed
    sweep of one matrix cell) this computes the seed count, how many seeds
    had ground truth, the max/mean observed relative error, the *epsilon
    utilisation* (max relative error divided by the epsilon target — the
    "how close to the cliff edge" number drift is judged on), and the
    failure fraction (seeds whose estimate fell outside the multiplicative
    guarantee), which the delta-coverage check compares against ``delta``.
    """
    groups: Dict[str, Dict[str, object]] = {}
    for record in records:
        group = groups.setdefault(
            record["group"],
            {
                "count": 0,
                "with_ground_truth": 0,
                "failures": 0,
                "relative_errors": [],
                "epsilon": record["spec"]["epsilon"],
                "delta": record["spec"]["delta"],
                "method": record["spec"]["method"],
            },
        )
        group["count"] += 1
        if record["exact"] is not None:
            group["with_ground_truth"] += 1
            if record["relative_error"] is not None:
                group["relative_errors"].append(record["relative_error"])
            if record["within_epsilon"] is False:
                group["failures"] += 1
    for group in groups.values():
        errors = group.pop("relative_errors")
        group["max_relative_error"] = max(errors) if errors else None
        group["mean_relative_error"] = (
            sum(errors) / len(errors) if errors else None
        )
        epsilon = group["epsilon"]
        group["epsilon_utilisation"] = (
            group["max_relative_error"] / epsilon
            if group["max_relative_error"] is not None and epsilon
            else None
        )
        covered = group["with_ground_truth"]
        group["failure_fraction"] = (
            group["failures"] / covered if covered else None
        )
    return {
        "scenario_count": len(records),
        "total_elapsed_seconds": sum(r["elapsed_seconds"] for r in records),
        "groups": {name: groups[name] for name in sorted(groups)},
    }


def build_manifest(
    records: Sequence[Mapping[str, object]],
    *,
    matrix: Optional[Mapping[str, object]] = None,
    extras: Optional[Mapping[str, object]] = None,
) -> Dict[str, object]:
    """Assemble scenario records into one schema-versioned manifest document.

    ``matrix`` is the declarative spec the records were expanded from (kept
    verbatim so a manifest is re-runnable); ``extras`` lets callers such as
    the bench report attach additional sections (timing ratios, serving
    counters) without breaking :func:`validate_manifest`.
    """
    document: Dict[str, object] = {
        "schema": MANIFEST_SCHEMA_VERSION,
        "kind": MANIFEST_KIND,
        "created_unix": time.time(),
        "environment": environment(),
        "matrix": dict(matrix) if matrix is not None else None,
        "scenarios": [dict(record) for record in records],
        "summary": summarise_records(records),
    }
    if extras:
        for key, value in extras.items():
            if key in document:
                raise AuditError(f"extras key {key!r} collides with a manifest field")
            document[key] = value
    return document


def run_scenarios(
    scenarios: Sequence[Scenario],
    *,
    repeats: int = 1,
    matrix: Optional[Mapping[str, object]] = None,
    extras: Optional[Mapping[str, object]] = None,
) -> Dict[str, object]:
    """Execute scenarios through the counting façade and build the manifest.

    Automata and ground-truth counts are cached per family instance across
    the run (a seed sweep rebuilds neither), and each scenario runs
    ``repeats`` times with its pinned seed — estimates are identical across
    repeats by the determinism contract, so only the wall-time list grows
    and ``elapsed_seconds`` is the median.
    """
    if repeats < 1:
        raise AuditError("repeats must be at least 1")
    automata: Dict[str, NFA] = {}
    truths: Dict[str, Optional[int]] = {}
    records: List[Dict[str, object]] = []
    for scenario in scenarios:
        instance_key = f"{scenario.family}({scenario.family_args})"
        if instance_key not in automata:
            automata[instance_key] = scenario.build_nfa()
        nfa = automata[instance_key]
        truth_key = f"{instance_key}@n{scenario.length}"
        if truth_key not in truths:
            truths[truth_key] = _ground_truth(nfa, scenario.length)
        timings: List[float] = []
        report: Optional[CountReport] = None
        for _ in range(repeats):
            report = dispatch(nfa, scenario.length, scenario.request())
            timings.append(report.elapsed_seconds)
        records.append(
            scenario_record(
                scenario,
                report,
                nfa=nfa,
                exact=truths[truth_key],
                timings=timings,
            )
        )
    return build_manifest(records, matrix=matrix, extras=extras)


def run_matrix(
    spec: Mapping[str, object],
    *,
    repeats: int = 1,
    extras: Optional[Mapping[str, object]] = None,
) -> Dict[str, object]:
    """Expand a declarative matrix spec and run it into a manifest."""
    return run_scenarios(
        expand_matrix(spec), repeats=repeats, matrix=spec, extras=extras
    )


# ----------------------------------------------------------------------
# Validation, loading and append-only persistence
# ----------------------------------------------------------------------
def validate_manifest(document: object) -> None:
    """Structurally validate a manifest document, raising :class:`AuditError`.

    Checks the schema version and kind tags, the environment block, every
    scenario record's field set and basic value invariants (non-negative
    finite relative errors, ``repeats == len(timings)``, unique scenario
    ids), and that the summary's scenario count matches the record list.
    """
    if not isinstance(document, Mapping):
        raise AuditError(
            f"manifest must be a mapping, got {type(document).__name__}"
        )
    if document.get("kind") != MANIFEST_KIND:
        raise AuditError(
            f"document kind {document.get('kind')!r} is not {MANIFEST_KIND!r}"
        )
    if document.get("schema") != MANIFEST_SCHEMA_VERSION:
        raise AuditError(
            f"unsupported manifest schema {document.get('schema')!r} "
            f"(this build reads schema {MANIFEST_SCHEMA_VERSION})"
        )
    env = document.get("environment")
    if not isinstance(env, Mapping) or "python" not in env:
        raise AuditError("manifest environment block is missing or malformed")
    scenarios = document.get("scenarios")
    if not isinstance(scenarios, Sequence) or isinstance(scenarios, (str, bytes)):
        raise AuditError("manifest 'scenarios' must be a list of records")
    seen_ids = set()
    for index, record in enumerate(scenarios):
        if not isinstance(record, Mapping):
            raise AuditError(f"scenario record {index} is not a mapping")
        missing = [key for key in RECORD_FIELDS if key not in record]
        if missing:
            raise AuditError(
                f"scenario record {index} is missing field(s) {missing}"
            )
        if record["id"] in seen_ids:
            raise AuditError(f"duplicate scenario id {record['id']!r}")
        seen_ids.add(record["id"])
        if record["repeats"] != len(record["timings"]):
            raise AuditError(
                f"scenario {record['id']!r}: repeats={record['repeats']} "
                f"disagrees with {len(record['timings'])} recorded timings"
            )
        error = record["relative_error"]
        if error is not None and (not isinstance(error, (int, float))
                                  or not math.isfinite(error) or error < 0):
            raise AuditError(
                f"scenario {record['id']!r}: relative_error {error!r} "
                "must be a finite non-negative number or null"
            )
        Scenario.from_describe(record["spec"])  # spec must be re-runnable
    summary = document.get("summary")
    if not isinstance(summary, Mapping):
        raise AuditError("manifest 'summary' block is missing")
    if summary.get("scenario_count") != len(scenarios):
        raise AuditError(
            f"summary scenario_count {summary.get('scenario_count')!r} "
            f"disagrees with {len(scenarios)} records"
        )


def manifest_digest(document: Mapping[str, object]) -> str:
    """SHA-256 of the manifest's canonical JSON (its content address)."""
    payload = json.dumps(document, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def manifest_filename(document: Mapping[str, object]) -> str:
    """A unique, content-addressed file name for a manifest.

    ``manifest-<rev7>-<digest12>.json`` — the git revision locates the
    commit, the digest disambiguates multiple runs of the same commit, and
    no two distinct documents share a name, which is what makes a manifest
    directory append-only in practice.
    """
    revision = (document.get("environment") or {}).get("git_revision") or "norev"
    return f"manifest-{str(revision)[:7]}-{manifest_digest(document)[:12]}.json"


def write_manifest(
    document: Mapping[str, object],
    path: str,
    *,
    overwrite: bool = False,
) -> str:
    """Validate and write a manifest; refuses to overwrite unless told to.

    When ``path`` is a directory the file name comes from
    :func:`manifest_filename`.  Returns the path written.  Overwriting an
    existing manifest is an :class:`AuditError` by default — runs append to
    the trail, they do not rewrite it.
    """
    validate_manifest(document)
    if os.path.isdir(path):
        path = os.path.join(path, manifest_filename(document))
    if os.path.exists(path) and not overwrite:
        raise AuditError(
            f"manifest {path!r} already exists; manifests are append-only "
            "(pass overwrite=True / --force only if you really mean it)"
        )
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


def load_manifest(path: str) -> Dict[str, object]:
    """Read and validate a manifest document from disk."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            document = json.load(handle)
    except (OSError, ValueError) as error:
        raise AuditError(f"cannot read manifest {path!r}: {error}") from error
    validate_manifest(document)
    return document


# ----------------------------------------------------------------------
# Session attachment (the api.py manifest hook's consumer)
# ----------------------------------------------------------------------
class ManifestBuilder:
    """Collects scenario records incrementally, e.g. from a live session.

    Two ways in: :meth:`record` appends an explicit (scenario, report)
    pair, and :meth:`attach` hooks a
    :class:`~repro.counting.api.CountingSession` so every ``session.count``
    call is captured automatically — the harness wraps existing experiment
    code without changing its call sites.  :meth:`build` assembles the
    manifest document at the end.
    """

    def __init__(self, *, matrix: Optional[Mapping[str, object]] = None) -> None:
        self._records: List[Dict[str, object]] = []
        self._matrix = dict(matrix) if matrix is not None else None

    @property
    def records(self) -> List[Dict[str, object]]:
        """The records collected so far (in call order)."""
        return list(self._records)

    def record(
        self,
        scenario: Scenario,
        report: CountReport,
        *,
        nfa: Optional[NFA] = None,
        exact: Optional[int] = None,
        timings: Optional[Sequence[float]] = None,
    ) -> Dict[str, object]:
        """Append one scenario record (see :func:`scenario_record`)."""
        entry = scenario_record(
            scenario, report, nfa=nfa, exact=exact, timings=timings
        )
        self._records.append(entry)
        return entry

    def attach(self, session, scenario_for) -> "ManifestBuilder":
        """Observe a counting session, recording every report it produces.

        ``scenario_for(nfa, length, request, report)`` maps each observed
        call to the :class:`Scenario` it represents (return ``None`` to
        skip a call).  Uses the session observer hook added to
        :class:`~repro.counting.api.CountingSession` for exactly this.
        """
        def observer(nfa, length, request, report):
            scenario = scenario_for(nfa, length, request, report)
            if scenario is not None:
                self.record(scenario, report, nfa=nfa)

        session.add_observer(observer)
        return self

    def build(
        self, *, extras: Optional[Mapping[str, object]] = None
    ) -> Dict[str, object]:
        """The manifest document over everything recorded so far."""
        return build_manifest(self._records, matrix=self._matrix, extras=extras)
