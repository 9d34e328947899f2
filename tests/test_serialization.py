"""Tests for automaton serialization (JSON, text and DOT formats).

Besides the format-level unit tests, this module carries a property-based
round-trip suite over the experiment automata (the E2 accuracy families and
the E3/E4/E5 scaling cells):
both formats must reproduce the automaton *structurally* (states —
including isolated ones — initial, accepting, transitions, alphabet), and
labels the text format cannot represent must raise a clear
:class:`~repro.errors.AutomatonError` instead of corrupting silently.
"""

from __future__ import annotations

import io
import json
import random

import pytest

from repro.applications.graphdb import GraphDatabase, RegularPathQuery, RPQCounter
from repro.automata import families
from repro.automata.exact import count_exact
from repro.automata.nfa import NFA
from repro.automata.random_gen import random_labeled_graph, random_nfa
from repro.automata.serialization import (
    JSON_FORMAT_VERSION,
    dump,
    dumps,
    load,
    loads,
    nfa_from_dict,
    nfa_from_text,
    nfa_to_dict,
    nfa_to_dot,
    nfa_to_text,
)
from repro.errors import AutomatonError
from repro.harness.experiments import ACCURACY_FAMILIES, scaling_states_args


@pytest.fixture(
    params=[
        lambda: families.substring_nfa("101"),
        lambda: families.suffix_nfa("011"),
        lambda: families.no_consecutive_ones_nfa(),
        lambda: families.union_of_patterns_nfa(["00", "11"]),
    ]
)
def sample_nfa(request):
    return request.param()


class TestJSON:
    def test_dict_roundtrip_preserves_language(self, sample_nfa):
        rebuilt = nfa_from_dict(nfa_to_dict(sample_nfa))
        for length in range(6):
            assert count_exact(rebuilt, length) == count_exact(sample_nfa, length)

    def test_dict_contains_format_and_version(self, sample_nfa):
        document = nfa_to_dict(sample_nfa)
        assert document["format"] == "repro-nfa"
        assert document["version"] == JSON_FORMAT_VERSION

    def test_string_roundtrip(self, sample_nfa):
        rebuilt = loads(dumps(sample_nfa))
        assert rebuilt.alphabet == sample_nfa.alphabet
        for length in range(6):
            assert count_exact(rebuilt, length) == count_exact(sample_nfa, length)

    def test_dumps_is_valid_json(self, sample_nfa):
        parsed = json.loads(dumps(sample_nfa))
        assert isinstance(parsed["transitions"], list)

    def test_file_object_roundtrip(self, sample_nfa):
        buffer = io.StringIO()
        dump(sample_nfa, buffer)
        buffer.seek(0)
        rebuilt = load(buffer)
        assert count_exact(rebuilt, 5) == count_exact(sample_nfa, 5)

    def test_path_roundtrip(self, sample_nfa, tmp_path):
        path = tmp_path / "automaton.json"
        dump(sample_nfa, str(path))
        rebuilt = load(str(path))
        assert count_exact(rebuilt, 5) == count_exact(sample_nfa, 5)

    def test_missing_format_tag_rejected(self):
        with pytest.raises(AutomatonError):
            nfa_from_dict({"version": 1})

    def test_wrong_version_rejected(self, sample_nfa):
        document = nfa_to_dict(sample_nfa)
        document["version"] = 999
        with pytest.raises(AutomatonError):
            nfa_from_dict(document)

    def test_missing_field_rejected(self, sample_nfa):
        document = nfa_to_dict(sample_nfa)
        del document["initial"]
        with pytest.raises(AutomatonError):
            nfa_from_dict(document)

    def test_invalid_json_rejected(self):
        with pytest.raises(AutomatonError):
            loads("{not json")

    def test_non_object_json_rejected(self):
        with pytest.raises(AutomatonError):
            loads("[1, 2, 3]")


class TestTextFormat:
    def test_roundtrip_preserves_language(self, sample_nfa):
        rebuilt = nfa_from_text(nfa_to_text(sample_nfa))
        for length in range(6):
            assert count_exact(rebuilt, length) == count_exact(sample_nfa, length)

    def test_parses_comments_and_blank_lines(self):
        text = """
        # a tiny automaton
        alphabet: 0 1
        initial: a
        accepting: b

        a 0 b
        b 1 b
        """
        nfa = nfa_from_text(text)
        assert nfa.accepts("0")
        assert nfa.accepts("011")
        assert not nfa.accepts("1")

    def test_missing_initial_rejected(self):
        with pytest.raises(AutomatonError):
            nfa_from_text("alphabet: 0 1\naccepting: a\na 0 a\n")

    def test_bad_transition_line_rejected(self):
        with pytest.raises(AutomatonError):
            nfa_from_text("initial: a\naccepting: a\na 0\n")

    def test_states_line_adds_isolated_states(self):
        nfa = nfa_from_text("initial: a\naccepting: a\nstates: a lonely\na 0 a\n")
        assert "lonely" in nfa.states


class TestDot:
    def test_dot_structure(self, sample_nfa):
        dot = nfa_to_dot(sample_nfa, name="demo")
        assert dot.startswith('digraph "demo" {')
        assert dot.rstrip().endswith("}")
        assert "doublecircle" in dot  # accepting states present
        assert "__start__ ->" in dot

    def test_dot_merges_parallel_edges(self):
        nfa = families.all_words_nfa()
        dot = nfa_to_dot(nfa)
        # Both loop transitions are rendered as a single edge labeled "0,1".
        assert dot.count("->") == 2  # initial marker + merged self loop
        assert '"0,1"' in dot

    def test_dot_quotes_labels(self):
        nfa = families.substring_nfa("01")
        dot = nfa_to_dot(nfa, name='quo"ted')
        assert '\\"' in dot


#: Test-id names of the :data:`ACCURACY_FAMILIES` entries, in order.
_ACCURACY_NAMES = (
    "all_words",
    "parity_3",
    "divisibility_5",
    "substring_101",
    "suffix_0110",
    "union_patterns",
    "no_consecutive_ones",
    "ladder_4",
)


def _generator_workloads():
    """Every string-labelled automaton the experiments count."""
    assert len(_ACCURACY_NAMES) == len(ACCURACY_FAMILIES)
    workloads = [
        (name, families.build_family(entry["family"], **entry["args"]))
        for name, entry in zip(_ACCURACY_NAMES, ACCURACY_FAMILIES)
    ]
    length_nfa = families.build_family(
        "random_nfa", num_states=6, length=6, density=0.35, seed=11
    )
    workloads.extend((f"n={n}", length_nfa) for n in (4, 6))
    workloads.extend(
        (f"m={m}", families.build_family("random_nfa", **scaling_states_args(m)))
        for m in (4, 8, 12)
    )
    suffix = families.build_family("suffix", pattern="0110")
    workloads.extend((f"eps={epsilon}", suffix) for epsilon in (0.5, 0.3))
    return workloads


def _with_isolated_states(nfa: NFA, count: int) -> NFA:
    """A copy of ``nfa`` with ``count`` extra states touching no transition."""
    extra = frozenset(f"isolated_{index}" for index in range(count))
    return NFA(
        states=nfa.states | extra,
        initial=nfa.initial,
        transitions=nfa.transitions,
        accepting=nfa.accepting,
        alphabet=nfa.alphabet,
    )


def _assert_structurally_equal(rebuilt: NFA, original: NFA) -> None:
    assert rebuilt.states == original.states
    assert rebuilt.initial == original.initial
    assert rebuilt.accepting == original.accepting
    assert rebuilt.transitions == original.transitions
    assert tuple(rebuilt.alphabet) == tuple(original.alphabet)


class TestGeneratorRoundTrip:
    """Property-based round trips over the experiment automata."""

    @pytest.mark.parametrize("name,nfa", _generator_workloads())
    def test_json_round_trip_is_lossless(self, name, nfa):
        _assert_structurally_equal(nfa_from_dict(nfa_to_dict(nfa)), nfa)
        _assert_structurally_equal(loads(dumps(nfa)), nfa)

    @pytest.mark.parametrize("name,nfa", _generator_workloads())
    def test_text_round_trip_is_lossless(self, name, nfa):
        _assert_structurally_equal(nfa_from_text(nfa_to_text(nfa)), nfa)

    @pytest.mark.parametrize("seed", range(12))
    def test_round_trip_with_isolated_states(self, seed):
        rng = random.Random(seed)
        base = random_nfa(
            rng.randrange(1, 10),
            density=rng.choice([0.15, 0.3]),
            seed=seed,
            ensure_connected=False,
        )
        nfa = _with_isolated_states(base, count=1 + seed % 3)
        _assert_structurally_equal(nfa_from_text(nfa_to_text(nfa)), nfa)
        _assert_structurally_equal(loads(dumps(nfa)), nfa)

    def test_isolated_states_emit_states_line(self):
        nfa = _with_isolated_states(families.substring_nfa("101"), count=2)
        text = nfa_to_text(nfa)
        assert "states:" in text
        assert "isolated_0" in text and "isolated_1" in text
        # Automata without isolated states keep the minimal layout.
        assert "states:" not in nfa_to_text(families.substring_nfa("101"))

    @pytest.mark.parametrize("seed", range(8))
    def test_language_preserved(self, seed):
        nfa = random_nfa(6, density=0.3, seed=seed)
        for rebuilt in (nfa_from_text(nfa_to_text(nfa)), loads(dumps(nfa))):
            for length in range(5):
                assert count_exact(rebuilt, length) == count_exact(nfa, length)


class TestUnserialisableLabels:
    def _nfa_with_state(self, state) -> NFA:
        return NFA(
            states=frozenset({state, "ok"}),
            initial="ok",
            transitions=frozenset({("ok", "0", state)}),
            accepting=frozenset({"ok"}),
        )

    @pytest.mark.parametrize(
        "state", ["has space", "has\ttab", "has\nnewline", "", "#comment", "colon:y"]
    )
    def test_text_rejects_unrepresentable_state_labels(self, state):
        with pytest.raises(AutomatonError) as excinfo:
            nfa_to_text(self._nfa_with_state(state))
        assert "JSON" in str(excinfo.value)

    def test_json_accepts_labels_the_text_format_rejects(self):
        nfa = self._nfa_with_state("has space")
        _assert_structurally_equal(loads(dumps(nfa)), nfa)

    def test_text_rejects_whitespace_symbols(self):
        nfa = NFA(
            states=frozenset({"a"}),
            initial="a",
            transitions=frozenset({("a", "b c", "a")}),
            accepting=frozenset({"a"}),
            alphabet=("b c",),
        )
        with pytest.raises(AutomatonError):
            nfa_to_text(nfa)

    def test_colliding_stringified_states_rejected_everywhere(self):
        nfa = NFA(
            states=frozenset({1, "1"}),
            initial=1,
            transitions=frozenset({(1, "0", "1")}),
            accepting=frozenset({"1"}),
        )
        with pytest.raises(AutomatonError):
            nfa_to_text(nfa)
        with pytest.raises(AutomatonError):
            nfa_to_dict(nfa)

    def test_none_state_collision_rejected(self):
        # A literal None state is hashable and valid; it must still collide
        # with the string "None" regardless of set iteration order.
        nfa = NFA(
            states=frozenset({None, "None"}),
            initial="None",
            transitions=frozenset({("None", "0", None)}),
            accepting=frozenset({"None"}),
        )
        with pytest.raises(AutomatonError):
            nfa_to_dict(nfa)
        with pytest.raises(AutomatonError):
            nfa_to_text(nfa)

    def test_non_string_alphabet_rejected_instead_of_corrupting(self):
        nfa = NFA(
            states=frozenset({"a"}),
            initial="a",
            transitions=frozenset(),
            accepting=frozenset({"a"}),
            alphabet=(0, 1),
        )
        with pytest.raises(AutomatonError) as excinfo:
            nfa_to_dict(nfa)
        assert "string" in str(excinfo.value)
        with pytest.raises(AutomatonError):
            dumps(nfa)
        with pytest.raises(AutomatonError):
            nfa_to_text(nfa)

    def test_non_string_state_labels_round_trip_as_strings(self):
        # Documented coercion: integer states come back with string labels,
        # the language over the (string) alphabet is unchanged.
        nfa = NFA(
            states=frozenset({1, 2}),
            initial=1,
            transitions=frozenset({(1, "0", 2), (2, "1", 2)}),
            accepting=frozenset({2}),
        )
        rebuilt = loads(dumps(nfa))
        assert rebuilt.states == {"1", "2"}
        for length in range(5):
            assert count_exact(rebuilt, length) == count_exact(nfa, length)

    def test_application_suite_tuple_states(self):
        # RPQ product automata have tuple states: unrepresentable in the
        # text format (clear error), fine in JSON via stringification.
        edges = random_labeled_graph(8, 20, labels=("a", "b", "c"), seed=23)
        database = GraphDatabase.from_edges(edges)
        nodes = sorted(database.nodes)
        query = RegularPathQuery(nodes[0], "(a|b)*c", nodes[-1], max_length=6)
        nfa = RPQCounter(database, query, semantics="labels").product_automaton()
        assert all(isinstance(state, tuple) for state in nfa.states)
        with pytest.raises(AutomatonError):
            nfa_to_text(nfa)
        rebuilt = loads(dumps(nfa))
        for length in range(4):
            assert count_exact(rebuilt, length) == count_exact(nfa, length)
