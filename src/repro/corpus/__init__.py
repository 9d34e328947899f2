"""Curated real-workload corpus: the paper's motivating applications as data.

Everything else in the repo measures the FPRAS on synthetic automata
(:mod:`repro.automata.families`, :mod:`repro.automata.random_gen`); this
package supplies workloads shaped like the applications the paper opens
with — regex patterns harvested from real log-parsing / lint / validation
collections (:mod:`repro.corpus.patterns`) and RPQ query classes over
realistic edge-label alphabets (:mod:`repro.corpus.rpq`) — compiled once,
checked in as digest-verified fixtures, and exposed to the audit scenario
matrix as the ``corpus`` automaton family.

Entry points: :func:`load_corpus` / :func:`load_fixture` to read fixtures
(integrity-checked), :func:`verify_corpus` to prove them against their
sources, :func:`corpus_matrix_spec` / :data:`CORPUS_MATRIX` to run them
through ``repro audit``, and the ``repro corpus`` CLI for all of the
above.
"""

from repro.corpus.patterns import PATTERN_INDEX, PATTERNS, CorpusPattern
from repro.corpus.registry import (
    CORPUS_MATRIX,
    CORPUS_REGISTRY,
    DEFAULT_MATRIX_IDS,
    CorpusFixture,
    build_fixture,
    corpus_dir,
    corpus_matrix_spec,
    corpus_stats,
    fixture_digest,
    fixture_path,
    load_corpus,
    load_fixture,
    load_fixture_nfa,
    verify_corpus,
    verify_fixture,
    write_fixture,
)
from repro.corpus.rpq import RPQ_INDEX, RPQ_QUERIES

__all__ = [
    "CORPUS_MATRIX",
    "CORPUS_REGISTRY",
    "CorpusFixture",
    "CorpusPattern",
    "DEFAULT_MATRIX_IDS",
    "PATTERNS",
    "PATTERN_INDEX",
    "RPQ_INDEX",
    "RPQ_QUERIES",
    "build_fixture",
    "corpus_dir",
    "corpus_matrix_spec",
    "corpus_stats",
    "fixture_digest",
    "fixture_path",
    "load_corpus",
    "load_fixture",
    "load_fixture_nfa",
    "verify_corpus",
    "verify_fixture",
    "write_fixture",
]
