"""Tests for NFA families and random generators."""

from __future__ import annotations

import pytest

from repro.automata import families, random_gen
from repro.automata.regex import compile_regex


class TestFamilies:
    def test_registry_builders_produce_nfas(self):
        nfa = families.build_family("parity", ones_modulus=3)
        assert nfa.num_states == 3

    def test_registry_unknown_name(self):
        with pytest.raises(KeyError):
            families.build_family("nope")

    def test_substring_empty_pattern_rejected(self):
        with pytest.raises(ValueError):
            families.substring_nfa("")

    def test_suffix_empty_pattern_rejected(self):
        with pytest.raises(ValueError):
            families.suffix_nfa("")

    def test_parity_invalid_modulus(self):
        with pytest.raises(ValueError):
            families.parity_nfa(0)

    def test_divisibility_invalid(self):
        with pytest.raises(ValueError):
            families.divisibility_nfa(0)

    def test_blocks_invalid(self):
        with pytest.raises(ValueError):
            families.blocks_nfa(0)

    def test_ladder_invalid(self):
        with pytest.raises(ValueError):
            families.ladder_nfa(0)

    def test_union_of_patterns_requires_patterns(self):
        with pytest.raises(ValueError):
            families.union_of_patterns_nfa([])

    def test_substring_family_semantics(self):
        nfa = families.substring_nfa("010")
        assert nfa.accepts("110100")
        assert not nfa.accepts("111111")

    def test_suffix_family_semantics(self):
        nfa = families.suffix_nfa("01")
        assert nfa.accepts("1101")
        assert not nfa.accepts("0110")

    def test_divisibility_semantics(self):
        nfa = families.divisibility_nfa(3)
        assert nfa.accepts("110")  # 6
        assert not nfa.accepts("111")  # 7

    def test_integer_pattern_accepted(self):
        # CLI family arguments arrive as ints; builders coerce them.
        nfa = families.substring_nfa(101)
        assert nfa.accepts("0101")


class TestRandomGenerators:
    def test_random_nfa_reproducible(self):
        first = random_gen.random_nfa(6, seed=42)
        second = random_gen.random_nfa(6, seed=42)
        assert first == second

    def test_random_nfa_different_seeds_differ(self):
        assert random_gen.random_nfa(8, seed=1) != random_gen.random_nfa(8, seed=2)

    def test_random_nfa_size_and_validity(self):
        nfa = random_gen.random_nfa(7, density=0.4, seed=3)
        assert nfa.num_states == 7
        assert nfa.accepting  # at least one accepting state

    def test_random_nfa_connected(self):
        nfa = random_gen.random_nfa(10, density=0.05, seed=4, ensure_connected=True)
        assert nfa.forward_reachable() == nfa.states

    def test_random_nfa_invalid_size(self):
        with pytest.raises(ValueError):
            random_gen.random_nfa(0)

    def test_random_nonempty_nfa(self):
        nfa = random_gen.random_nonempty_nfa(6, length=8, seed=5)
        assert not nfa.is_empty_slice(8)

    def test_random_dfa_is_deterministic(self):
        nfa = random_gen.random_dfa(5, seed=6)
        for state in nfa.states:
            for symbol in nfa.alphabet:
                assert len(nfa.successors(state, symbol)) == 1

    def test_random_word_length_and_alphabet(self):
        word = random_gen.random_word(12, seed=7)
        assert len(word) == 12
        assert set(word) <= {"0", "1"}

    def test_random_regex_compiles(self):
        for seed in range(5):
            pattern = random_gen.random_regex(depth=3, seed=seed)
            nfa = compile_regex(pattern, alphabet=("0", "1"))
            assert nfa.num_states >= 1

    def test_random_labeled_graph(self):
        edges = random_gen.random_labeled_graph(6, 10, labels=("a", "b"), seed=8)
        assert len(edges) == 10
        assert len(set(edges)) == 10
        for source, label, target in edges:
            assert label in ("a", "b")
            assert source.startswith("v") and target.startswith("v")
