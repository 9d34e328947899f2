"""Tests for the memoised predecessor fan and the sampler's branch choice.

``UnrolledAutomaton.predecessor_fan`` memoises, per ``(level, handle)``,
the non-empty ``(symbol, Pred(Q', symbol))`` pairs the backward sampler
walks.  The memo is a pure cache over frozen tables, so these tests pin:

* the fan's contract on every backend — exactly the non-empty
  ``predecessor_handle`` values, in alphabet order, with repeats served
  from the memo without engine work;
* invariance under the memo's capacity — a cap of 1 (the memo clears on
  every insert) and the default cap give bit-identical runs under both
  state-table stores; only ``pre_ops``, which counts fans actually
  computed, may differ;
* the branch choice never picks a zero-weight branch, not even when the
  RNG returns exactly 0.0, on both the slow path and the step-memo replay.
"""

from __future__ import annotations

import random

import pytest

import repro.automata.unroll as unroll_module
from repro.automata.nfa import NFA
from repro.automata.random_gen import random_nonempty_nfa
from repro.automata.unroll import UnrolledAutomaton
from repro.counting.fpras import NFACounter
from repro.counting.params import FPRASParameters, ParameterScale
from repro.counting.policy import ExecutionPolicy
from repro.counting.sampler import SampleDraw, _branch_table, _choose_branch

BACKENDS = ["reference", "bitset", "numpy"]

#: Algorithm-level work counters compared across memo capacities.
WORK_COUNTERS = (
    "union_calls",
    "membership_calls",
    "sample_draws",
    "sample_successes",
    "padded_states",
)


# ----------------------------------------------------------------------
# The fan contract
# ----------------------------------------------------------------------
@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("seed", range(6))
def test_fan_is_the_non_empty_predecessor_handles_in_alphabet_order(backend, seed):
    length = 6
    nfa = random_nonempty_nfa(
        6, length, density=0.35, alphabet=("a", "b", "c"), seed=seed
    )
    unroll = UnrolledAutomaton(nfa, length, backend=backend, use_engine_cache=False)
    engine = unroll.engine
    states = sorted(nfa.states, key=repr)
    rng = random.Random(seed)
    for level in range(1, length + 1):
        for _ in range(4):
            handle = engine.encode([s for s in states if rng.random() < 0.5])
            expected = []
            for symbol in nfa.alphabet:
                predecessors = unroll.predecessor_handle(handle, symbol, level)
                if not engine.is_empty(predecessors):
                    expected.append((symbol, predecessors))
            fan = unroll.predecessor_fan(handle, level)
            assert fan == tuple(expected), (level, handle)
            # A repeated key is served from the memo: same object, no
            # further engine work.
            pre_ops = engine.pre_ops
            assert unroll.predecessor_fan(handle, level) is fan
            assert engine.pre_ops == pre_ops


@pytest.mark.parametrize("backend", BACKENDS)
def test_fan_at_level_zero_is_empty(backend, substring_101_nfa):
    unroll = UnrolledAutomaton(substring_101_nfa, 4, backend=backend)
    assert unroll.predecessor_fan(unroll.live_handle(0), 0) == ()


def test_fan_memo_is_cleared_at_the_cap(substring_101_nfa, monkeypatch):
    monkeypatch.setattr(unroll_module, "FAN_MEMO_CAP", 2)
    unroll = UnrolledAutomaton(substring_101_nfa, 5)
    for level in range(1, 6):
        unroll.predecessor_fan(unroll.live_handle(level), level)
        assert 1 <= len(unroll._fan_memo) <= 2


# ----------------------------------------------------------------------
# Memo capacity invariance
# ----------------------------------------------------------------------
def _observe(nfa, length, *, store, seed, scale):
    parameters = FPRASParameters(
        epsilon=0.6,
        delta=0.2,
        seed=seed,
        policy=ExecutionPolicy(use_engine_cache=False, store=store, window=2),
        scale=scale,
    )
    counter = NFACounter(nfa, length, parameters=parameters)
    result = counter.run()
    counters = dict(result.engine_counters)
    pre_ops = counters.pop("pre_ops")
    observed = {
        "estimate": result.estimate,
        "state_estimates": dict(result.state_estimates),
        "sample_counts": dict(result.sample_counts),
        "samples": {key: list(counter.samples[key]) for key in counter.samples},
        "work": {name: getattr(result, name) for name in WORK_COUNTERS},
        "engine": counters,
        "rng_state": counter.rng.getstate(),
    }
    counter.store.close()
    return observed, pre_ops


@pytest.mark.parametrize("store", ["dict", "windowed"])
@pytest.mark.parametrize(
    "scale",
    [
        ParameterScale(
            mode="scaled", sample_cap=4, attempt_factor=2.0,
            union_trial_cap=8, union_trial_floor=2,
        ),
        ParameterScale(
            mode="scaled", sample_cap=4, attempt_factor=2.0,
            union_trial_cap=8, union_trial_floor=2,
            singleton_union_exact=True, reuse_descent_steps=True,
        ),
    ],
    ids=["appunion", "descent-memo"],
)
def test_memo_cap_of_one_is_bit_identical_to_default(store, scale, monkeypatch):
    driver = random.Random(4242)
    for trial in range(4):
        length = driver.randint(6, 9)
        nfa = random_nonempty_nfa(
            num_states=driver.randint(3, 6),
            length=length,
            density=driver.uniform(0.25, 0.5),
            seed=driver.randrange(2**32),
        )
        seed = driver.randrange(2**32)
        default, default_pre = _observe(
            nfa, length, store=store, seed=seed, scale=scale
        )
        with monkeypatch.context() as patch:
            patch.setattr(unroll_module, "FAN_MEMO_CAP", 1)
            clearing, clearing_pre = _observe(
                nfa, length, store=store, seed=seed, scale=scale
            )
        assert clearing == default, f"trial {trial}"
        # Clearing on every insert recomputes fans the default memo keeps.
        assert clearing_pre >= default_pre


# ----------------------------------------------------------------------
# Branch choice: zero weights are never chosen
# ----------------------------------------------------------------------
def test_choose_branch_skips_zero_weights():
    assert _choose_branch([0.0, 0.0, 3.0], 0.0) == 2
    assert _choose_branch([0.0, 2.0, 0.0, 1.0], 0.0) == 1
    assert _choose_branch([1.0, 2.0], 1.0) == 0
    assert _choose_branch([1.0, 2.0], 1.5) == 1
    # A point past the running sum falls back to the last positive branch.
    assert _choose_branch([1.0, 2.0, 0.0], 10.0) == 1


def test_branch_table_replays_choose_branch():
    rng = random.Random(5)
    for _ in range(300):
        weights = [
            rng.choice([0.0, rng.random(), rng.uniform(0.0, 50.0)])
            for _ in range(rng.randint(1, 5))
        ]
        if not any(weights):
            continue
        total = sum(weights)
        fan = [(f"s{index}", index) for index in range(len(weights))]
        table = _branch_table(fan, weights, total)
        for point in (0.0, rng.random() * total, total, 1.5 * total):
            index = _choose_branch(weights, point)
            entry = next((row for row in table if point <= row[0]), table[-1])
            assert entry[1:3] == fan[index]
            assert entry[3] == weights[index] / total


class _ZeroRandom(random.Random):
    """An RNG whose ``random()`` always returns exactly 0.0."""

    def random(self) -> float:
        return 0.0


def test_zero_draw_never_takes_a_zero_weight_branch():
    # Level-2 frontier {f}: symbol "a" leads back to p, "b" to r.  Both
    # branches are non-empty, but p's stored estimate is 0.0, so the "a"
    # branch has zero weight; with random() == 0.0 the historical choice
    # took it and divided phi by 0.0.
    nfa = NFA(
        states=frozenset({"i", "p", "r", "f"}),
        initial="i",
        transitions=frozenset(
            {("i", "a", "p"), ("i", "a", "r"), ("p", "a", "f"), ("r", "b", "f")}
        ),
        accepting=frozenset({"f"}),
        alphabet=("a", "b"),
    )
    unroll = UnrolledAutomaton(nfa, 2)
    estimates = {("i", 0): 1.0, ("p", 1): 0.0, ("r", 1): 1.0}
    parameters = FPRASParameters(
        epsilon=0.4,
        delta=0.2,
        scale=ParameterScale(singleton_union_exact=True, reuse_descent_steps=True),
    )
    step_memo = [None] * 3
    drawer = SampleDraw(
        unroll, estimates, {}, parameters, _ZeroRandom(0),
        step_memo=step_memo, step_intern={},
    )
    assert drawer.draw(2, frozenset({"f"}), 0.5, 0.1, 0.1) == ("a", "b")
    # Both steps were randomness-free, so the second draw replays them
    # from the step memo — and the replay skips the zero weight too.
    assert step_memo[2] is not None and step_memo[1] is not None
    assert drawer.draw(2, frozenset({"f"}), 0.5, 0.1, 0.1) == ("a", "b")
    assert drawer.statistics.successes == 2
