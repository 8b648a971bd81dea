"""Smoke tests of the experiment harness (instances, runners, reporting).

The full experiments run under ``benchmarks/``; these tests run each
experiment with minimal parameters and check the structure and the headline
invariants of the produced rows.
"""

from __future__ import annotations

import math

import pytest

from repro.experiments import (
    ascii_table,
    bicrit_problem,
    chain_suite,
    fork_suite,
    format_value,
    layered_suite,
    make_platform,
    mixed_suite,
    print_table,
    rows_to_table,
    run_convex_dag_experiment,
    run_fork_closed_form_experiment,
    run_incremental_approx_experiment,
    run_mapping_ablation_experiment,
    run_np_hardness_experiment,
    run_reliability_simulation_experiment,
    run_series_parallel_experiment,
    run_tricrit_chain_experiment,
    run_tricrit_fork_experiment,
    run_vdd_lp_experiment,
    series_parallel_suite,
    tricrit_problem,
)


class TestReporting:
    def test_format_value(self):
        assert format_value(True) == "yes"
        assert format_value(3) == "3"
        assert format_value(float("inf")) == "inf"
        assert format_value(float("nan")) == "nan"
        assert format_value(0.000012345) == "1.2345e-05"
        assert format_value("abc") == "abc"

    def test_ascii_table_alignment(self):
        table = ascii_table(["name", "value"], [["a", 1.0], ["bbb", 22.5]],
                            title="demo")
        lines = table.splitlines()
        assert lines[0] == "demo"
        assert "name" in lines[1] and "value" in lines[1]
        assert len(lines) == 5

    def test_rows_to_table_and_print(self, capsys):
        rows = [{"x": 1, "y": 2.0}, {"x": 3, "y": 4.5}]
        text = rows_to_table(rows)
        assert "x" in text and "4.5" in text
        print_table(rows, title="t")
        captured = capsys.readouterr().out
        assert "t" in captured
        assert rows_to_table([]) == "(no rows)"


class TestInstanceSuites:
    def test_suites_have_expected_families(self):
        assert all(s.family == "chain" for s in chain_suite(sizes=(4,), slacks=(2.0,)))
        assert all(s.family == "fork" for s in fork_suite(sizes=(3,), slacks=(2.0,)))
        assert all(s.family == "layered" for s in layered_suite(shapes=((3, 2),)))
        assert all(s.family == "series_parallel"
                   for s in series_parallel_suite(sizes=(5,)))
        families = {s.family for s in mixed_suite()}
        assert families == {"chain", "fork", "layered", "series_parallel"}

    def test_specs_are_reproducible(self):
        a = chain_suite(sizes=(5,), slacks=(2.0,), seed=3)[0]
        b = chain_suite(sizes=(5,), slacks=(2.0,), seed=3)[0]
        assert a.graph == b.graph
        assert a.describe()["tasks"] == 5

    def test_problem_builders(self):
        spec = chain_suite(sizes=(4,), slacks=(1.5,))[0]
        bi = bicrit_problem(spec)
        tri = tricrit_problem(spec, frel=0.8)
        assert bi.is_feasible_instance()
        assert tri.reliability().frel == pytest.approx(0.8)
        vdd = bicrit_problem(spec, speeds="vdd")
        assert vdd.platform.speed_model.is_discrete

    def test_make_platform_variants(self):
        assert make_platform(2, speeds="continuous").speed_model.fmax == pytest.approx(1.0)
        assert make_platform(2, speeds="discrete").speed_model.is_discrete
        assert make_platform(2, speeds="incremental", delta=0.2).speed_model.num_modes == 5
        with pytest.raises(ValueError):
            make_platform(2, speeds="warp-drive")


class TestExperimentRunners:
    def test_e1_fork_rows(self):
        rows = run_fork_closed_form_experiment(sizes=(2, 3), slacks=(2.0,))
        assert len(rows) == 2
        for row in rows:
            assert row["relative_gap"] < 1e-3
            assert row["formula_energy"] == pytest.approx(row["closed_form_energy"],
                                                          rel=1e-9)

    def test_e2_series_parallel_rows(self):
        rows = run_series_parallel_experiment(sizes=(4, 6), slacks=(2.0,))
        assert len(rows) == 2
        assert all(row["relative_gap"] < 1e-2 for row in rows)

    def test_e3_convex_dag_rows(self):
        rows = run_convex_dag_experiment(shapes=((3, 2),))
        row = rows[0]
        assert row["lower_bound"] <= row["convex_energy"] + 1e-6
        assert row["convex_energy"] <= row["no_dvfs"] + 1e-9
        assert row["saving_vs_no_dvfs"] > 0

    def test_e4_vdd_rows(self):
        rows = run_vdd_lp_experiment(chain_sizes=(4,), include_dag=False)
        row = rows[0]
        assert row["vdd_over_continuous"] >= 1.0 - 1e-9
        assert row["discrete_over_vdd"] >= 1.0 - 1e-9
        assert row["max_speeds_per_task"] <= 2

    def test_e5_np_hardness(self):
        out = run_np_hardness_experiment(
            partition_instances=((3, 1, 1, 2, 2, 1), (8, 6, 5, 4)),
            scaling_sizes=(3, 4, 5, 6), lp_sizes=(4, 8, 16, 32))
        assert all(r["agree"] for r in out["reduction_rows"])
        assert out["exact_fit"]["exponential_fits_better"]
        assert not out["lp_fit"]["exponential_fits_better"]

    def test_e6_incremental_rows(self):
        rows = run_incremental_approx_experiment(deltas=(0.1,), Ks=(None, 2),
                                                 chain_size=5, include_dag=False)
        assert len(rows) == 2
        assert all(row["within_bound"] for row in rows)

    def test_e7_chain_rows(self):
        rows = run_tricrit_chain_experiment(sizes=(4,), slacks=(2.5,))
        row = rows[0]
        assert row["greedy_over_exact"] >= 1.0 - 1e-9
        assert row["greedy_over_exact"] < 1.1
        assert row["no_reexec_energy"] >= row["exact_energy"] - 1e-9

    def test_e8_fork_rows(self):
        rows = run_tricrit_fork_experiment(sizes=(2,), slacks=(2.5,))
        row = rows[0]
        assert row["poly_over_brute"] == pytest.approx(1.0, abs=1e-3)

    def test_e9_heuristic_rows(self):
        specs = mixed_suite(seed=2)[:2]
        rows = run_heuristic_rows = run_heuristic_comparison(specs)
        for row in rows:
            assert row["best_of"] <= row["energy_gain_h"] + 1e-9
            assert row["best_of"] <= row["parallel_slack_h"] + 1e-9
            assert row["best_of"] <= row["no_reexec"] + 1e-9

    def test_e10_vdd_rounding_rows(self):
        specs = mixed_suite(seed=2)[:1]
        rows = run_vdd_rounding(specs)
        for row in rows:
            assert row["feasible"]
            assert row["adaptation_loss"] >= -1e-6
            assert row["adaptation_loss"] < 0.5

    def test_e11_reliability_rows(self):
        rows = run_reliability_simulation_experiment(chain_size=4, trials=600,
                                                     speed_fractions=(1.0, 0.5))
        slow = rows[-1]
        fast = rows[0]
        assert slow["single_analytic_reliability"] < fast["single_analytic_reliability"]
        assert slow["reexec_analytic_reliability"] > slow["single_analytic_reliability"]
        assert all(row["analytic_within_confidence"] for row in rows)

    def test_e12_mapping_rows(self):
        rows = run_mapping_ablation_experiment(shapes=((3, 3),),
                                               heuristics=("critical_path", "random"))
        cp = next(r for r in rows if r["mapping"] == "critical_path")
        assert cp["energy_vs_cp"] == pytest.approx(1.0)
        assert all(math.isfinite(r["fmax_makespan"]) for r in rows)


def run_heuristic_comparison(specs):
    from repro.experiments import run_heuristic_comparison_experiment

    return run_heuristic_comparison_experiment(specs=specs, include_reference=False)


def run_vdd_rounding(specs):
    from repro.experiments import run_vdd_rounding_experiment

    return run_vdd_rounding_experiment(specs=specs, mode_counts=(5,))
