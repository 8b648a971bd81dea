"""Tests of the v1 facade: types, error codes, and Engine semantics.

Covers the wire contract (every request/response type JSON-round-trips),
the stable error-code mapping (each documented failure path produces its
code), and the engine's hot-path state (problem interning, LRU result
cache with hit flagging, batched submit, metrics).
"""

from __future__ import annotations

import json
import math

import pytest

import repro.api as api
from repro.api.errors import (
    ERROR_CODES,
    HTTP_STATUS,
    INADMISSIBLE_SOLVER,
    INTERNAL_ERROR,
    INVALID_PROBLEM,
    INVALID_REQUEST,
    NO_ADMISSIBLE_SOLVER,
    SIZE_LIMIT,
    UNKNOWN_SCENARIO,
    UNKNOWN_SOLVER,
    ApiError,
    ErrorResponse,
    error_from_exception,
)
from repro.core import DiscreteSpeeds, TriCritProblem
from repro.core.problem_io import problem_to_dict
from repro.core.reliability import ReliabilityModel
from repro.platform import Mapping, Platform
from repro.solvers import solve as registry_solve


@pytest.fixture
def engine() -> api.Engine:
    return api.Engine()


@pytest.fixture
def chain_payload(small_chain_problem) -> dict:
    return problem_to_dict(small_chain_problem)


# ----------------------------------------------------------------------
# wire types: JSON round trips
# ----------------------------------------------------------------------
class TestRoundTrips:
    def _roundtrip(self, obj):
        wire = json.loads(json.dumps(obj.to_dict()))
        return type(obj).from_dict(wire)

    def test_solve_request(self, chain_payload):
        req = api.SolveRequest(problem=chain_payload, solver="auto",
                               options={"method": "kkt"})
        assert self._roundtrip(req) == req

    def test_solve_batch_request(self, chain_payload):
        req = api.SolveBatchRequest(problems=[chain_payload, chain_payload],
                                    solver="bicrit-closed-form")
        assert self._roundtrip(req) == req

    def test_simulate_request(self, chain_payload):
        req = api.SimulateRequest(problem=chain_payload, trials=64, seed=7,
                                  engine="scalar")
        assert self._roundtrip(req) == req

    def test_campaign_request(self):
        req = api.CampaignRequest(scenario="e1-fork-closed-form",
                                  params={"sizes": [2, 4]}, smoke=True,
                                  cache_dir="/tmp/x")
        assert self._roundtrip(req) == req

    def test_solve_response(self):
        resp = api.SolveResponse(
            energy=1.25, status="optimal", solver="bicrit-closed-form",
            feasible=True, makespan=2.0, speeds={"a": [0.5], "b": [0.5, 0.7]},
            num_reexecuted=1, dispatch={"solver": "bicrit-closed-form"},
            cached=True, elapsed_ms=0.0)
        assert self._roundtrip(resp) == resp

    def test_solve_batch_response(self):
        inner = api.SolveResponse(
            energy=1.0, status="optimal", solver="s", feasible=True,
            makespan=1.0, speeds={}, num_reexecuted=0, dispatch={})
        resp = api.SolveBatchResponse(results=[inner, inner])
        back = self._roundtrip(resp)
        assert back == resp
        assert back.cached_count == 0

    def test_simulate_response(self):
        inner = api.SolveResponse(
            energy=1.0, status="optimal", solver="s", feasible=True,
            makespan=1.0, speeds={}, num_reexecuted=0, dispatch={})
        resp = api.SimulateResponse(
            solve=inner, trials=100, success_rate=0.99, success_stderr=0.01,
            analytic_reliability=0.985, mean_energy=1.0, mean_makespan=1.0,
            max_makespan=1.2, mean_attempts=4.0, engine="batch")
        assert self._roundtrip(resp) == resp

    def test_campaign_response(self):
        resp = api.CampaignResponse(
            scenario="e1-fork-closed-form", key="abc123", cached=True,
            elapsed_seconds=0.5, result=[{"col": 1.0}], params={"seed": 59})
        assert self._roundtrip(resp) == resp

    def test_error_response(self):
        resp = ErrorResponse(code=SIZE_LIMIT, message="too big",
                             detail={"tasks": 600})
        wire = json.loads(json.dumps(resp.to_dict()))
        assert ErrorResponse.from_dict(wire) == resp
        assert "error" in resp.to_dict()     # wire envelope

    def test_every_code_has_a_status(self):
        for code in ERROR_CODES:
            assert ErrorResponse(code=code, message="x").http_status == \
                HTTP_STATUS[code]

    def test_unknown_code_rejected(self):
        with pytest.raises(ValueError, match="unknown error code"):
            ErrorResponse(code="nope", message="x")


# ----------------------------------------------------------------------
# request validation
# ----------------------------------------------------------------------
class TestValidation:
    def test_missing_problem(self):
        with pytest.raises(ApiError) as info:
            api.SolveRequest.from_dict({"solver": "auto"})
        assert info.value.code == INVALID_REQUEST

    def test_unknown_field(self, chain_payload):
        with pytest.raises(ApiError, match="unknown field"):
            api.SolveRequest.from_dict({"problem": chain_payload, "prio": 1})

    def test_non_object_body(self):
        with pytest.raises(ApiError) as info:
            api.SolveRequest.from_dict([1, 2])
        assert info.value.code == INVALID_REQUEST

    def test_problems_must_be_array(self, chain_payload):
        with pytest.raises(ApiError, match="JSON array"):
            api.SolveBatchRequest.from_dict({"problems": chain_payload})

    def test_trials_minimum(self, chain_payload):
        with pytest.raises(ApiError, match="trials"):
            api.SimulateRequest.from_dict({"problem": chain_payload,
                                           "trials": 0})

    def test_bad_engine_name(self, chain_payload):
        with pytest.raises(ApiError, match="engine"):
            api.SimulateRequest.from_dict({"problem": chain_payload,
                                           "engine": "warp"})

    def test_bool_typed_field(self):
        with pytest.raises(ApiError, match="smoke"):
            api.CampaignRequest.from_dict({"scenario": "e1", "smoke": "yes"})


# ----------------------------------------------------------------------
# engine: caching, interning, batch
# ----------------------------------------------------------------------
class TestEngineSolve:
    def test_matches_registry_solve(self, engine, small_chain_problem,
                                    chain_payload):
        direct = registry_solve(small_chain_problem)
        resp = engine.solve(api.SolveRequest(problem=chain_payload))
        assert resp.status == direct.status
        assert resp.energy == pytest.approx(direct.energy, rel=1e-12)
        assert resp.solver == direct.solver
        assert resp.makespan == pytest.approx(direct.schedule.makespan())
        assert resp.dispatch["solver"] == direct.metadata["dispatch"]["solver"]
        assert not resp.cached

    def test_second_identical_solve_is_cached(self, engine, chain_payload):
        first = engine.solve(api.SolveRequest(problem=chain_payload))
        second = engine.solve(api.SolveRequest(problem=chain_payload))
        assert not first.cached
        assert second.cached
        assert second.elapsed_ms == 0.0
        assert second.energy == first.energy
        metrics = engine.metrics()
        assert metrics["cache"]["hits"] == 1
        assert metrics["cache"]["misses"] == 1
        assert metrics["cache"]["result_entries"] == 1

    def test_object_and_dict_forms_share_cache(self, engine,
                                               small_chain_problem,
                                               chain_payload):
        engine.solve(api.SolveRequest(problem=small_chain_problem))
        resp = engine.solve(api.SolveRequest(problem=chain_payload))
        assert resp.cached

    def test_problem_pool_interns_payloads(self, engine, chain_payload):
        a = engine.resolve_problem(json.loads(json.dumps(chain_payload)))
        b = engine.resolve_problem(json.loads(json.dumps(chain_payload)))
        assert a is b

    def test_named_solver_and_options_key_the_cache(self, engine,
                                                    chain_payload):
        auto = engine.solve(api.SolveRequest(problem=chain_payload))
        registry_name = auto.dispatch["solver"]   # e.g. "bicrit-closed-form"
        named = engine.solve(api.SolveRequest(problem=chain_payload,
                                              solver=registry_name))
        assert not named.cached     # different request key than "auto"
        repeat = engine.solve(api.SolveRequest(problem=chain_payload,
                                               solver=registry_name))
        assert repeat.cached

    def test_speeds_schema(self, engine, chain_payload):
        resp = engine.solve(api.SolveRequest(problem=chain_payload))
        assert resp.speeds
        for task, speeds in resp.speeds.items():
            assert isinstance(task, str)
            assert all(isinstance(s, float) and s > 0 for s in speeds)

    def test_tricrit_response_reports_reexecutions(self, engine,
                                                   tricrit_chain_problem):
        resp = engine.solve(api.SolveRequest(
            problem=problem_to_dict(tricrit_chain_problem)))
        assert resp.feasible
        assert resp.num_reexecuted == sum(
            1 for s in resp.speeds.values() if len(s) == 2)


class TestEngineBatch:
    def test_batch_matches_scalar(self, engine, small_chain_problem,
                                  small_fork_problem):
        payloads = [problem_to_dict(small_chain_problem),
                    problem_to_dict(small_fork_problem)]
        request = api.SolveBatchRequest(problems=payloads)
        batch = engine.solve_batch(request)
        assert len(batch.results) == 2
        for payload, got in zip(payloads, batch.results):
            direct = registry_solve(engine.resolve_problem(payload))
            assert got.energy == pytest.approx(direct.energy, rel=1e-9)
            assert got.solver == direct.solver

    def test_batch_peels_cache_hits(self, engine, small_chain_problem,
                                    small_fork_problem):
        chain = problem_to_dict(small_chain_problem)
        fork = problem_to_dict(small_fork_problem)
        engine.solve(api.SolveRequest(problem=chain))
        batch = engine.solve_batch(api.SolveBatchRequest(problems=[chain, fork]))
        assert [r.cached for r in batch.results] == [True, False]
        assert batch.cached_count == 1
        # Everything is warm now.
        again = engine.solve_batch(api.SolveBatchRequest(problems=[chain, fork]))
        assert again.cached_count == 2

    def test_submit_batch_preserves_order(self, engine, small_chain_problem,
                                          small_fork_problem):
        pairs = engine.submit_batch([small_fork_problem, small_chain_problem])
        assert pairs[0][0].energy == pytest.approx(
            registry_solve(small_fork_problem).energy, rel=1e-9)
        assert pairs[1][0].energy == pytest.approx(
            registry_solve(small_chain_problem).energy, rel=1e-9)


class TestEngineErrors:
    def test_unknown_solver(self, engine, chain_payload):
        with pytest.raises(ApiError) as info:
            engine.solve(api.SolveRequest(problem=chain_payload,
                                          solver="definitely-not-registered"))
        assert info.value.code == UNKNOWN_SOLVER

    def test_inadmissible_solver(self, engine, tricrit_fork_problem):
        # A chain-only solver named on a fork instance.
        with pytest.raises(ApiError) as info:
            engine.solve(api.SolveRequest(
                problem=problem_to_dict(tricrit_fork_problem),
                solver="tricrit-chain-greedy"))
        assert info.value.code == INADMISSIBLE_SOLVER

    def test_no_admissible_solver(self, engine, small_chain_graph):
        # TRI-CRIT on a plain DISCRETE platform: no registered solver class.
        reliability = ReliabilityModel(fmin=0.1, fmax=1.0, lambda0=1e-4)
        platform = Platform(1, DiscreteSpeeds([0.2, 0.6, 1.0]),
                            reliability_model=reliability)
        problem = TriCritProblem(
            mapping=Mapping.single_processor(small_chain_graph),
            platform=platform,
            deadline=3.0 * small_chain_graph.total_weight())
        with pytest.raises(ApiError) as info:
            engine.solve(api.SolveRequest(problem=problem_to_dict(problem)))
        assert info.value.code == NO_ADMISSIBLE_SOLVER

    def test_invalid_problem_payload(self, engine):
        with pytest.raises(ApiError) as info:
            engine.solve(api.SolveRequest(problem={"kind": "bicrit"}))
        assert info.value.code == INVALID_PROBLEM

    def test_instance_size_limit(self, small_chain_problem):
        tight = api.Engine(max_tasks=2)
        with pytest.raises(ApiError) as info:
            tight.solve(api.SolveRequest(
                problem=problem_to_dict(small_chain_problem)))
        assert info.value.code == SIZE_LIMIT
        assert info.value.response.detail["max_tasks"] == 2

    def test_batch_size_limit(self, chain_payload):
        tight = api.Engine(max_batch=1)
        with pytest.raises(ApiError) as info:
            tight.solve_batch(api.SolveBatchRequest(
                problems=[chain_payload, chain_payload]))
        assert info.value.code == SIZE_LIMIT

    def test_object_layer_propagates_raw_library_exceptions(self, engine,
                                                            small_chain_graph):
        # submit()/submit_batch() are the in-process layer: library callers
        # keep catching the library's own exception types; only the wire
        # layer translates them into ApiError codes.
        from repro.solvers import NoAdmissibleSolverError

        reliability = ReliabilityModel(fmin=0.1, fmax=1.0, lambda0=1e-4)
        platform = Platform(1, DiscreteSpeeds([0.2, 0.6, 1.0]),
                            reliability_model=reliability)
        problem = TriCritProblem(
            mapping=Mapping.single_processor(small_chain_graph),
            platform=platform,
            deadline=3.0 * small_chain_graph.total_weight())
        with pytest.raises(NoAdmissibleSolverError):
            engine.submit(problem)
        with pytest.raises(NoAdmissibleSolverError):
            engine.submit_batch([problem])

    def test_default_engine_is_uncapped(self):
        api.reset_default_engine()
        try:
            shared = api.default_engine()
            assert shared.max_tasks is None
            assert shared.max_batch is None
        finally:
            api.reset_default_engine()

    def test_error_from_exception_passthrough_and_fallback(self):
        err = ApiError(SIZE_LIMIT, "x")
        assert error_from_exception(err) is err
        mapped = error_from_exception(RuntimeError("boom"))
        assert mapped.code == INTERNAL_ERROR
        assert mapped.response.detail["exception"] == "RuntimeError"


# ----------------------------------------------------------------------
# simulate and campaign endpoints
# ----------------------------------------------------------------------
class TestSimulate:
    def test_simulate_reports_consistent_statistics(self, engine,
                                                    tricrit_chain_problem):
        resp = engine.simulate(api.SimulateRequest(
            problem=problem_to_dict(tricrit_chain_problem), trials=300,
            seed=3))
        assert resp.trials == 300
        assert 0.0 <= resp.success_rate <= 1.0
        assert 0.0 < resp.analytic_reliability <= 1.0
        assert resp.mean_energy > 0
        assert resp.solve.feasible
        # The solve that backed the simulation is cached for future requests.
        again = engine.simulate(api.SimulateRequest(
            problem=problem_to_dict(tricrit_chain_problem), trials=50, seed=3))
        assert again.solve.cached

    def test_simulate_is_seed_deterministic(self, engine, chain_payload):
        a = engine.simulate(api.SimulateRequest(problem=chain_payload,
                                                trials=200, seed=11))
        b = engine.simulate(api.SimulateRequest(problem=chain_payload,
                                                trials=200, seed=11))
        assert a.success_rate == b.success_rate
        assert a.mean_energy == b.mean_energy


class TestCampaign:
    def test_campaign_runs_and_caches(self, engine, tmp_path):
        request = api.CampaignRequest(scenario="e1-fork-closed-form",
                                      smoke=True,
                                      cache_dir=str(tmp_path / "cache"))
        first = engine.campaign(request)
        assert first.scenario == "e1-fork-closed-form"
        assert not first.cached
        assert first.result      # rows from the experiment driver
        second = engine.campaign(request)
        assert second.cached
        assert second.result == first.result

    def test_unknown_scenario(self, engine, tmp_path):
        with pytest.raises(ApiError) as info:
            engine.campaign(api.CampaignRequest(
                scenario="e99-nope", cache_dir=str(tmp_path)))
        assert info.value.code == UNKNOWN_SCENARIO

    def test_unknown_param(self, engine, tmp_path):
        with pytest.raises(ApiError) as info:
            engine.campaign(api.CampaignRequest(
                scenario="e1-fork-closed-form", params={"warp": 9},
                cache_dir=str(tmp_path)))
        assert info.value.code == INVALID_REQUEST


# ----------------------------------------------------------------------
# shared default engine
# ----------------------------------------------------------------------
class TestDefaultEngine:
    def test_singleton_and_reset(self):
        api.reset_default_engine()
        a = api.default_engine()
        assert api.default_engine() is a
        api.reset_default_engine()
        assert api.default_engine() is not a

    def test_module_level_submit_uses_shared_cache(self, small_fork_problem):
        api.reset_default_engine()
        try:
            _, cached_first = api.submit(small_fork_problem)
            _, cached_second = api.submit(small_fork_problem)
            assert not cached_first
            assert cached_second
        finally:
            api.reset_default_engine()

    def test_content_key_is_memoized_and_stable(self, small_chain_problem):
        key1 = api.problem_content_key(small_chain_problem)
        key2 = api.problem_content_key(small_chain_problem)
        assert key1 == key2
        assert len(key1) == 64
        # A round-tripped copy of the same instance hashes identically.
        from repro.core.problem_io import problem_from_dict

        clone = problem_from_dict(problem_to_dict(small_chain_problem))
        assert api.problem_content_key(clone) == key1


class TestMetrics:
    def test_latency_and_counts(self, engine, chain_payload):
        service = api.Service(engine)
        body = json.dumps({"problem": chain_payload})
        for _ in range(3):
            status, _payload = service.handle("POST", "/v1/solve", body)
            assert status == 200
        status, metrics = service.handle("GET", "/metrics")
        assert status == 200
        assert metrics["requests"]["POST /v1/solve"] == 3
        lat = metrics["latency_ms"]["POST /v1/solve"]
        assert lat["count"] == 3
        assert lat["p50_ms"] <= lat["p99_ms"] or \
            math.isclose(lat["p50_ms"], lat["p99_ms"])
        assert metrics["cache"]["hit_rate"] == pytest.approx(2 / 3)

    def test_unmatched_paths_share_one_metrics_bucket(self, engine):
        service = api.Service(engine)
        for i in range(5):
            status, _ = service.handle("GET", f"/scanner/probe-{i}")
            assert status == 404
        metrics = engine.metrics()
        assert metrics["requests"].get("unmatched") == 5
        assert not any("probe" in route for route in metrics["requests"])
        assert metrics["errors"]["unmatched"] == 5
