"""Tests for the experiment harness and text reporting."""

from __future__ import annotations

import pytest

from repro.automata.exact import count_exact
from repro.automata.families import build_family
from repro.errors import ExperimentError
from repro.harness.experiments import (
    EXPERIMENTS,
    ExperimentResult,
    get_experiment,
    run_applications,
    run_experiment,
    run_sample_complexity,
    run_scaling_epsilon,
    run_scaling_length,
    run_scaling_states,
    run_uniformity,
    scaling_states_args,
)
from repro.harness.reporting import format_key_values, format_series, format_table


class TestReporting:
    def test_format_table_alignment_and_header(self):
        rows = [{"name": "a", "value": 1.0}, {"name": "bb", "value": 22.5}]
        text = format_table(rows, title="demo")
        lines = text.splitlines()
        assert lines[0] == "demo"
        assert "name" in lines[1] and "value" in lines[1]
        assert len(lines) == 2 + 1 + len(rows)

    def test_format_table_empty(self):
        assert "(empty)" in format_table([], title="nothing")

    def test_format_table_column_selection(self):
        rows = [{"a": 1, "b": 2}]
        text = format_table(rows, columns=["b"])
        assert "b" in text and "a" not in text.splitlines()[0]

    def test_format_table_scientific_notation(self):
        text = format_table([{"x": 1.23e12}])
        assert "e+12" in text

    def test_format_table_booleans(self):
        text = format_table([{"ok": True}, {"ok": False}])
        assert "yes" in text and "no" in text

    def test_format_series(self):
        text = format_series([1, 2], {"fpras": [0.1, 0.2], "exact": [0.1, 0.2]}, x_label="n")
        assert "fpras" in text and "exact" in text
        assert text.splitlines()[0].startswith("n")

    def test_format_key_values(self):
        text = format_key_values({"alpha": 1, "beta": 2.5}, title="params")
        assert text.splitlines()[0] == "params"
        assert "alpha" in text and "2.5" in text


class TestRegistry:
    def test_all_experiments_registered(self):
        assert set(EXPERIMENTS) == {"E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8"}

    def test_get_experiment_case_insensitive(self):
        assert get_experiment("e1") is EXPERIMENTS["E1"]

    def test_get_experiment_unknown(self):
        with pytest.raises(ExperimentError):
            get_experiment("E99")

    def test_experiment_result_helpers(self):
        result = ExperimentResult(experiment="X", description="demo")
        result.add_row(a=1)
        result.add_note("hello")
        assert result.rows == [{"a": 1}]
        assert result.notes == ["hello"]


class TestRunners:
    def test_sample_complexity_rows(self):
        result = run_sample_complexity(quick=True)
        assert result.experiment == "E1"
        assert len(result.rows) == 3 * 2 * 2
        for row in result.rows:
            assert row["paper_samples"] < row["acjr_samples"]
            assert row["sample_ratio"] > 1.0

    def test_sample_complexity_m_independence(self):
        result = run_sample_complexity(quick=True)
        by_n_eps = {}
        for row in result.rows:
            by_n_eps.setdefault((row["n"], row["epsilon"]), set()).add(row["paper_samples"])
        # For fixed (n, epsilon) the paper's per-state sample count does not
        # change with m.
        assert all(len(values) == 1 for values in by_n_eps.values())

    def test_accuracy_experiment_small(self):
        result = run_experiment("E2", quick=True, trials=1, length=6)
        assert result.rows
        for row in result.rows:
            assert row["exact"] >= 0
            assert row["mean_rel_error"] < 1.0

    def test_uniformity_experiment(self):
        result = run_uniformity(quick=True, sample_count=80)
        assert len(result.rows) == 3
        for row in result.rows:
            assert 0.0 <= row["tv_distance"] <= 1.0
            assert row["samples"] <= 80

    def test_applications_experiment(self):
        result = run_applications(quick=True)
        assert len(result.rows) == 3
        for row in result.rows:
            assert row["rel_error"] < 0.5

    def test_run_experiment_unknown(self):
        with pytest.raises(ExperimentError):
            run_experiment("nope")

    @pytest.mark.parametrize("name", sorted(EXPERIMENTS))
    def test_run_experiment_rejects_unknown_option(self, name):
        with pytest.raises(ExperimentError) as excinfo:
            run_experiment(name, trails=1)
        message = str(excinfo.value)
        assert "trails" in message
        assert "'seed'" in message  # the runner's accepted options are listed

    def test_results_render_as_tables(self):
        result = run_sample_complexity(quick=True)
        text = format_table(result.rows, title=result.description)
        assert result.description in text


#: Row keys every scaling sweep (E3/E4/E5) reports for its fpras cells.
FPRAS_ROW_KEYS = {
    "states",
    "length",
    "exact",
    "fpras_seconds",
    "fpras_rel_error",
    "fpras_samples_per_state",
    "backend",
}


class TestScalingSweeps:
    """E3/E4/E5 in quick mode: one run_matrix-backed row per sweep point."""

    @pytest.mark.parametrize(
        "runner,axis,points,extra_keys,automaton",
        [
            (
                run_scaling_length,
                "n",
                ["n=4", "n=6", "n=8", "n=10"],
                {"montecarlo_seconds", "montecarlo_rel_error"},
                lambda row: build_family(
                    "random_nfa", num_states=6, length=10, density=0.35, seed=11
                ),
            ),
            (
                run_scaling_states,
                "m",
                ["m=4", "m=6", "m=8"],
                set(),
                lambda row: build_family(
                    "random_nfa", **scaling_states_args(row["states"])
                ),
            ),
            (
                run_scaling_epsilon,
                "epsilon",
                ["eps=1.0", "eps=0.5", "eps=0.3"],
                {"paper_ns_formula"},
                lambda row: build_family("suffix", pattern="0110"),
            ),
        ],
        ids=["E3", "E4", "E5"],
    )
    def test_rows_per_sweep_point(self, runner, axis, points, extra_keys, automaton):
        result = runner(quick=True)
        assert [row[axis] for row in result.rows] == points
        for row in result.rows:
            assert set(row) == FPRAS_ROW_KEYS | {axis} | extra_keys
            assert row["exact"] == count_exact(automaton(row), row["length"])

    def test_samples_per_state_independent_of_m(self):
        result = run_scaling_states(quick=True)
        assert [row["states"] for row in result.rows] == [4, 6, 8]
        assert len({row["fpras_samples_per_state"] for row in result.rows}) == 1
