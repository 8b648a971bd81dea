"""Tests for the solver registry, auto-dispatch and shared precomputation."""

from __future__ import annotations

import inspect
import math

import pytest

from repro.continuous.exhaustive import solve_tricrit_exhaustive
from repro.continuous.tricrit_chain import (
    reexecution_speed_floor,
    solve_tricrit_chain_exact,
)
from repro.continuous.tricrit_fork import solve_tricrit_fork
from repro.core.problems import BiCritProblem, TriCritProblem
from repro.discrete.tricrit_vdd import solve_tricrit_vdd_exact
from repro.discrete.vdd_lp import solve_bicrit_vdd_lp
from repro.experiments import run_solver_ablation_experiment
from repro.experiments.instances import (
    bicrit_problem,
    chain_suite,
    fork_suite,
    layered_suite,
    series_parallel_suite,
    tricrit_problem,
)
from repro.solvers import (
    EXACTNESS_ORDER,
    InadmissibleSolverError,
    NoAdmissibleSolverError,
    SolverContext,
    admissible_solvers,
    capability_rows,
    get_solver,
    iter_solvers,
    limits,
    UnknownSolverOptionError,
    select_solver,
    solve,
    solve_batch,
    solver_names,
    solvers_for,
)

#: (family, builder) pairs for one small instance per structure class.
def _small_instances():
    return {
        "chain": chain_suite(sizes=(4,), slacks=(2.0,), seed=11)[0],
        "fork": fork_suite(sizes=(3,), slacks=(2.0,), seed=12)[0],
        "series-parallel": series_parallel_suite(sizes=(4,), slacks=(2.0,), seed=13)[0],
        "dag": layered_suite(shapes=((3, 2),), num_processors=3,
                             slacks=(2.0,), seed=14)[0],
    }


# ----------------------------------------------------------------------
# registry metadata
# ----------------------------------------------------------------------
class TestRegistry:
    def test_names_unique_and_nonempty(self):
        names = solver_names()
        assert len(names) == len(set(names)) >= 15

    def test_every_impl_resolves_to_a_callable(self):
        for solver in iter_solvers():
            func = solver.resolve()
            assert callable(func), solver.name
            # The registered callable takes the problem as sole positional.
            params = list(inspect.signature(func).parameters.values())
            assert params[0].kind in (params[0].POSITIONAL_ONLY,
                                      params[0].POSITIONAL_OR_KEYWORD)

    def test_iter_solvers_is_exact_first(self):
        ranks = [EXACTNESS_ORDER.index(s.exactness) for s in iter_solvers()]
        assert ranks == sorted(ranks)

    def test_capability_rows_columns(self):
        rows = capability_rows()
        assert len(rows) == len(solver_names())
        for row in rows:
            assert set(row) == {"solver", "problem", "speeds", "structures",
                                "mapping", "exactness", "max_tasks", "summary"}

    def test_get_solver_unknown_raises(self):
        with pytest.raises(KeyError, match="unknown solver"):
            get_solver("no-such-solver")

    def test_default_options_reflect_central_limits(self):
        assert (get_solver("tricrit-exhaustive").default_options["max_tasks"]
                == limits.EXHAUSTIVE_SUBSET_MAX_TASKS)
        assert (get_solver("tricrit-vdd-exact").default_options["max_tasks"]
                == limits.EXHAUSTIVE_SUBSET_MAX_TASKS)

    def test_function_defaults_match_descriptor_limits(self):
        """The 12-vs-14 max_tasks inconsistency stays fixed at the source."""
        def default_of(func, name):
            return inspect.signature(func).parameters[name].default

        assert (default_of(solve_tricrit_exhaustive, "max_tasks")
                == default_of(solve_tricrit_vdd_exact, "max_tasks")
                == limits.EXHAUSTIVE_SUBSET_MAX_TASKS)
        assert (default_of(solve_tricrit_chain_exact, "max_tasks")
                == limits.CHAIN_EXACT_MAX_TASKS)


# ----------------------------------------------------------------------
# SolverContext
# ----------------------------------------------------------------------
class TestSolverContext:
    def test_memoized_on_problem(self):
        problem = tricrit_problem(_small_instances()["chain"])
        assert SolverContext.for_problem(problem) is SolverContext.for_problem(problem)
        assert problem.context() is SolverContext.for_problem(problem)

    def test_structure_classification(self):
        for family, spec in _small_instances().items():
            problem = tricrit_problem(spec)
            assert SolverContext.for_problem(problem).structure == family \
                or (family == "dag"
                    and SolverContext.for_problem(problem).structure
                    in ("series-parallel", "dag"))

    def test_kind_and_speed_kind(self):
        spec = _small_instances()["chain"]
        assert SolverContext.for_problem(bicrit_problem(spec)).kind == "bicrit"
        tri = tricrit_problem(spec, speeds="vdd")
        ctx = SolverContext.for_problem(tri)
        assert ctx.kind == "tricrit" and ctx.speed_kind == "vdd"

    def test_reexecution_floor_matches_direct_computation(self):
        problem = tricrit_problem(_small_instances()["chain"])
        ctx = SolverContext.for_problem(problem)
        model = problem.reliability()
        for t in ctx.positive_tasks:
            direct = reexecution_speed_floor(model, problem.graph.weight(t),
                                             problem.platform.fmin)
            assert ctx.reexecution_floor(t) == pytest.approx(direct)
        assert set(ctx.reexecution_floors) == set(ctx.positive_tasks)

    @pytest.mark.parametrize("scalar_first", [True, False])
    @pytest.mark.parametrize("lambda0", [1e-5, 1e-4, 1e-3])
    def test_reexecution_floors_are_the_scalar_floors(self, scalar_first,
                                                      lambda0):
        # One array call fills every floor; each must be the scalar
        # closed form bit for bit, whichever accessor is queried first.
        spec = chain_suite(sizes=(12,), slacks=(2.0,), seed=17)[0]
        problem = tricrit_problem(spec, lambda0=lambda0)
        model = problem.reliability()
        expected = {t: reexecution_speed_floor(model, problem.graph.weight(t),
                                               problem.platform.fmin)
                    for t in problem.graph.tasks()}
        ctx = SolverContext.for_problem(problem)
        if scalar_first:
            assert {t: ctx.reexecution_floor(t) for t in expected} == expected
        assert ctx.reexecution_floors == {t: expected[t]
                                          for t in ctx.positive_tasks}
        assert {t: ctx.reexecution_floor(t) for t in expected} == expected
        assert any(problem.platform.fmin < f < model.frel
                   for f in expected.values())

    def test_bounds_and_feasibility(self):
        problem = bicrit_problem(_small_instances()["dag"])
        ctx = SolverContext.for_problem(problem)
        assert ctx.min_makespan == pytest.approx(problem.min_makespan())
        assert ctx.is_feasible
        assert ctx.energy_lower_bound <= ctx.energy_upper_bound
        assert ctx.weight_array.shape == (problem.graph.num_tasks,)
        assert ctx.exposure_rate_array.shape == ctx.weight_array.shape


# ----------------------------------------------------------------------
# dispatch
# ----------------------------------------------------------------------
class TestDispatch:
    @pytest.mark.parametrize("family,expected", [
        ("chain", "tricrit-chain-exact"),
        ("fork", "tricrit-fork-poly"),
        ("series-parallel", "tricrit-pruned"),
        ("dag", "tricrit-pruned"),
    ])
    def test_auto_prefers_specialised_exact_tricrit(self, family, expected):
        problem = tricrit_problem(_small_instances()[family])
        assert select_solver(problem).name == expected
        result = solve(problem)
        assert result.metadata["dispatch"]["solver"] == expected
        assert result.metadata["dispatch"]["auto"] is True
        assert result.feasible

    def test_auto_bicrit_routes(self):
        chain = bicrit_problem(_small_instances()["chain"])
        assert select_solver(chain).name == "bicrit-closed-form"
        dag = bicrit_problem(_small_instances()["dag"])
        assert select_solver(dag).name == "bicrit-convex"
        vdd = bicrit_problem(_small_instances()["chain"], speeds="vdd")
        assert select_solver(vdd).name == "bicrit-vdd-lp"
        discrete = bicrit_problem(_small_instances()["chain"], speeds="discrete")
        assert select_solver(discrete).name == "bicrit-discrete-milp"

    def test_auto_uses_pruned_search_beyond_enumeration_limits(self):
        # Past the blind enumerators' ceiling the branch-and-bound solver
        # keeps the dispatch exact ...
        spec = layered_suite(shapes=((5, 4),), num_processors=4,
                             slacks=(2.0,), seed=3)[0]
        problem = tricrit_problem(spec)
        ctx = SolverContext.for_problem(problem)
        assert ctx.num_positive_tasks > limits.EXHAUSTIVE_SUBSET_MAX_TASKS
        assert ctx.num_positive_tasks <= limits.PRUNED_EXACT_MAX_TASKS
        assert select_solver(problem).name == "tricrit-pruned"

    def test_auto_falls_back_to_gap_mode_beyond_pruned_limit(self):
        # ... and past the pruned exact ceiling the anytime gap-certified
        # mode takes over (before any heuristic).
        spec = layered_suite(shapes=((8, 5),), num_processors=4,
                             slacks=(2.0,), seed=3)[0]
        problem = tricrit_problem(spec)
        ctx = SolverContext.for_problem(problem)
        assert ctx.num_positive_tasks > limits.PRUNED_EXACT_MAX_TASKS
        assert select_solver(problem).name == "tricrit-pruned-gap"

    def test_dispatch_identical_to_direct_calls(self):
        fork = tricrit_problem(_small_instances()["fork"])
        assert solve(fork, solver="tricrit-fork-poly").energy == pytest.approx(
            solve_tricrit_fork(fork).energy)
        chain = tricrit_problem(_small_instances()["chain"])
        assert solve(chain, solver="tricrit-chain-exact").energy == pytest.approx(
            solve_tricrit_chain_exact(chain).energy)
        vdd = bicrit_problem(_small_instances()["chain"], speeds="vdd")
        assert solve(vdd, solver="bicrit-vdd-lp").energy == pytest.approx(
            solve_bicrit_vdd_lp(vdd).energy)

    def test_named_solver_inadmissible_raises(self):
        chain = tricrit_problem(_small_instances()["chain"])
        with pytest.raises(InadmissibleSolverError, match="fork"):
            solve(chain, solver="tricrit-fork-poly")

    def test_validate_false_forwards_anyway(self):
        # A general DAG instance handed to the chain-greedy solver without
        # validation reaches the underlying function, which raises its own
        # (deeper) error -- the registry guard is what usually prevents this.
        dag = tricrit_problem(_small_instances()["dag"])
        with pytest.raises(ValueError, match="single-processor"):
            get_solver("tricrit-chain-greedy")(dag, validate=False)

    @pytest.mark.parametrize("option", [{"validate": False},
                                        {"context": None}])
    def test_descriptor_arguments_are_not_solve_options(self, option):
        # ``solve`` checks every row against its solver's class; the
        # descriptor's own ``validate``/``context`` are refused, with the
        # descriptor call named as the way out.
        chain = tricrit_problem(_small_instances()["chain"])
        with pytest.raises(UnknownSolverOptionError,
                           match=r"get_solver\(name\)\(problem, validate=False\)"):
            solve(chain, solver="tricrit-chain-exact", **option)
        with pytest.raises(UnknownSolverOptionError, match=next(iter(option))):
            solve_batch([chain], **option)

    def test_no_admissible_solver_error_lists_reasons(self):
        # TRI-CRIT on a plain DISCRETE platform: no registered solver class.
        problem = tricrit_problem(_small_instances()["chain"], speeds="discrete")
        with pytest.raises(NoAdmissibleSolverError, match="tricrit-exhaustive"):
            solve(problem)

    def test_solver_options_forwarded(self):
        chain = tricrit_problem(_small_instances()["chain"])
        with pytest.raises(ValueError, match="limited to 2 tasks"):
            solve(chain, solver="tricrit-exhaustive", max_tasks=2)


# ----------------------------------------------------------------------
# exact-vs-heuristic agreement on randomized small instances
# ----------------------------------------------------------------------
class TestAgreement:
    TOL_EXACT = 2e-2        # cross-formulation (allocation vs convex) slack
    TOL_HEURISTIC = 1e-3    # heuristics may not beat the exact optimum

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("family", ["chain", "fork", "series-parallel", "dag"])
    def test_admissible_solvers_feasible_and_exact_agree(self, family, seed):
        base = 100 * seed + 7
        if family == "chain":
            spec = chain_suite(sizes=(4,), slacks=(2.5,), seed=base)[0]
        elif family == "fork":
            spec = fork_suite(sizes=(3,), slacks=(2.5,), seed=base)[0]
        elif family == "series-parallel":
            spec = series_parallel_suite(sizes=(4,), slacks=(2.5,), seed=base)[0]
        else:
            spec = layered_suite(shapes=((3, 2),), num_processors=3,
                                 slacks=(2.5,), seed=base)[0]
        problem = tricrit_problem(spec)
        exact_energies = {}
        heuristic_energies = {}
        for solver in admissible_solvers(problem):
            result = solve(problem, solver=solver.name)
            assert result.feasible, (solver.name, result.status)
            schedule = result.require_schedule()
            assert schedule.makespan() <= problem.deadline * (1.0 + 1e-6), solver.name
            report = problem.evaluate(schedule)
            assert report.min_reliability_margin >= -1e-9, solver.name
            if solver.exactness == "exact":
                exact_energies[solver.name] = result.energy
            else:
                heuristic_energies[solver.name] = result.energy
        assert exact_energies, "no exact solver admitted a small instance"
        best = min(exact_energies.values())
        for name, energy in exact_energies.items():
            assert energy <= best * (1.0 + self.TOL_EXACT), (name, energy, best)
        for name, energy in heuristic_energies.items():
            assert energy >= best * (1.0 - self.TOL_HEURISTIC), (name, energy, best)

    def test_vdd_exact_vs_heuristic(self):
        spec = chain_suite(sizes=(4,), slacks=(2.5,), seed=21)[0]
        problem = tricrit_problem(spec, speeds="vdd")
        exact = solve(problem, solver="tricrit-vdd-exact")
        heuristic = solve(problem, solver="tricrit-vdd-heuristic")
        assert exact.feasible and heuristic.feasible
        assert heuristic.energy >= exact.energy * (1.0 - self.TOL_HEURISTIC)


# ----------------------------------------------------------------------
# the E13 ablation driver
# ----------------------------------------------------------------------
class TestSolverAblation:
    def test_admissible_mode_covers_every_tricrit_solver(self):
        rows = run_solver_ablation_experiment(families=("chain",), sizes=(3,),
                                              slacks=(2.0,))
        solvers_seen = {r["solver"] for r in rows}
        expected = {s.name for s in iter_solvers() if s.problem == "tricrit"}
        assert solvers_seen == expected
        ran = [r for r in rows if r["status"] != "inadmissible"]
        exact_ratios = [r["ratio_to_exact"] for r in ran
                        if r["exactness"] == "exact"]
        assert exact_ratios and all(r == pytest.approx(1.0, rel=2e-2)
                                    for r in exact_ratios)
        for r in rows:
            if r["status"] == "inadmissible":
                assert r["reason"]
                assert math.isnan(r["energy"])

    def test_named_and_auto_modes(self):
        named = run_solver_ablation_experiment(
            families=("chain", "fork"), sizes=(3,), slacks=(2.0,),
            solver="tricrit-exhaustive")
        assert {r["solver"] for r in named} == {"tricrit-exhaustive"}
        assert all(r["status"] == "optimal" for r in named)
        auto = run_solver_ablation_experiment(families=("fork",), sizes=(3,),
                                              slacks=(2.0,), solver="auto")
        assert len(auto) == 1 and auto[0]["solver"] == "tricrit-fork-poly"
        assert auto[0]["dispatched"] is True

    def test_unknown_solver_name_raises_instead_of_empty_cache_record(self):
        with pytest.raises(KeyError, match="unknown solver"):
            run_solver_ablation_experiment(families=("chain",), sizes=(3,),
                                           solver="tricrit-exhastive")

    def test_solver_problem_kind_mismatch_raises(self):
        with pytest.raises(ValueError, match="solves BICRIT"):
            run_solver_ablation_experiment(families=("chain",), sizes=(3,),
                                           problem="tricrit",
                                           solver="bicrit-convex")

    def test_single_heuristic_cell_has_nan_ratio(self):
        rows = run_solver_ablation_experiment(families=("chain",), sizes=(3,),
                                              slacks=(2.0,),
                                              solver="tricrit-no-reexec")
        assert rows and all(math.isnan(r["ratio_to_exact"]) for r in rows)

    def test_infeasible_problem_file_yields_one_row(self, tmp_path):
        from repro.core.problem_io import save_problem_json

        base = tricrit_problem(chain_suite(sizes=(3,), slacks=(2.0,), seed=4)[0])
        tight = TriCritProblem(mapping=base.mapping, platform=base.platform,
                               deadline=base.min_makespan() * 0.5)
        path = tmp_path / "tight.json"
        save_problem_json(tight, path)
        rows = run_solver_ablation_experiment(families=(),
                                              problem_files=(str(path),))
        assert len(rows) == 1
        assert rows[0]["status"] == "infeasible-instance"
        assert "deadline" in rows[0]["reason"]

    def test_bicrit_and_problem_file_inputs(self, tmp_path):
        from repro.core.problem_io import save_problem_json

        problem = bicrit_problem(chain_suite(sizes=(3,), slacks=(2.0,), seed=9)[0])
        path = tmp_path / "stored.json"
        save_problem_json(problem, path)
        rows = run_solver_ablation_experiment(families=(), problem="bicrit",
                                              problem_files=(str(path),))
        assert rows and all(r["family"] == "file" for r in rows)
        assert {r["instance"] for r in rows} == {"stored"}
        assert any(r["solver"] == "bicrit-closed-form"
                   and r["status"] == "optimal" for r in rows)


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
class TestSolversCli:
    def test_solvers_table(self, capsys):
        from repro.campaign.cli import main

        assert main(["solvers"]) == 0
        out = capsys.readouterr().out
        assert "registered solvers" in out
        for name in ("tricrit-exhaustive", "bicrit-vdd-lp"):
            assert name in out

    def test_solvers_names_and_markdown(self, capsys):
        from repro.campaign.cli import main

        assert main(["solvers", "--names"]) == 0
        names = capsys.readouterr().out.split()
        assert names == solver_names()
        assert main(["solvers", "--markdown"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("| solver |")
        assert "`tricrit-exhaustive`" in out

    def test_solvers_problem_file(self, capsys, tmp_path):
        from repro.campaign.cli import main
        from repro.core.problem_io import save_problem_json

        problem = tricrit_problem(fork_suite(sizes=(3,), slacks=(2.0,), seed=2)[0])
        path = tmp_path / "fork.json"
        save_problem_json(problem, path)
        assert main(["solvers", "--problem", str(path)]) == 0
        out = capsys.readouterr().out
        assert "tricrit-fork-poly" in out and "admissible" in out
        assert main(["solvers", "--problem", str(tmp_path / "missing.json")]) == 2


# ----------------------------------------------------------------------
# admissibility listing
# ----------------------------------------------------------------------
class TestAdmissibility:
    def test_solvers_for_gives_reasons(self):
        problem = tricrit_problem(_small_instances()["dag"])
        triples = solvers_for(problem)
        assert len(triples) == len(solver_names())
        by_name = {s.name: (ok, reason) for s, ok, reason in triples}
        assert by_name["tricrit-exhaustive"] == (True, None)
        ok, reason = by_name["bicrit-convex"]
        assert not ok and "TRICRIT" in reason
        ok, reason = by_name["tricrit-vdd-exact"]
        assert not ok and "speed model" in reason

    def test_max_tasks_admissibility(self):
        spec = chain_suite(sizes=(16,), slacks=(2.0,), seed=5)[0]
        problem = tricrit_problem(spec)
        names = [s.name for s in admissible_solvers(problem)]
        assert "tricrit-exhaustive" not in names      # 16 > 14
        assert "tricrit-chain-exact" not in names     # dispatch caps at 14
        assert "tricrit-pruned" in names              # 16 <= 30
