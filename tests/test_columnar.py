"""Tests of the columnar interchange tier (``repro.core.columnar``).

Covers the strict wire parser (fast rows vs fallback rows), the
classification columns the batch planner routes on, subsetting
(``take``), content-key parity between the templated columnar hasher and
the scalar ``problem_content_key`` path, the vectorized engine request
keys, campaign problem-grid expansion determinism, and the lazy-result
pickling regression (results cross the campaign process pool without
forcing schedule materialization).
"""

from __future__ import annotations

import hashlib
import pickle
import uuid

import pytest

from repro.api.engine import Engine, problem_content_key
from repro.api.types import SolveBatchRequest
from repro.campaign.sweep import expand_problem_batch
from repro.core.columnar import KIND_BICRIT, KIND_TRICRIT, ProblemBatch
from repro.core.problem_io import problem_from_dict, problem_to_dict
from repro.core.energy import EnergyModel
from repro.core.problems import BiCritProblem
from repro.core.speeds import ContinuousSpeeds
from repro.dag.taskgraph import TaskGraph
from repro.platform.mapping import Mapping
from repro.platform.platform import Platform
from repro.solvers import solve
from repro.solvers.batch import (
    LazyScheduleResult,
    plan_batch,
    solve_batch,
)

from tests.test_batch_solvers import (
    chain_problem,
    fork_problem,
    sp_problem,
    tricrit_chain_problem,
)


def _payloads():
    problems = [
        chain_problem([1.0, 2.0, 0.5], 1.3),
        chain_problem([4.0, 0.0, 1.0, 2.5], 1.1),
        fork_problem(2.0, [1.0, 0.7, 1.3], 1.5),
        tricrit_chain_problem([1.0, 0.0, 2.0], 2.5),
        tricrit_chain_problem([0.5, 0.25], 3.0),
    ]
    return [problem_to_dict(p) for p in problems]


# ----------------------------------------------------------------------
# parsing and classification
# ----------------------------------------------------------------------
class TestFromWire:
    def test_fast_rows(self):
        batch = ProblemBatch.from_wire(_payloads())
        assert len(batch) == 5
        assert list(batch.fallback_indices()) == []
        cols = batch.columns
        assert list(cols["kind"]) == [KIND_BICRIT, KIND_BICRIT, KIND_BICRIT,
                                      KIND_TRICRIT, KIND_TRICRIT]
        assert list(cols["is_chain"]) == [True, True, False, True, True]
        assert list(cols["is_fork"])[2]
        assert list(cols["num_tasks"]) == [3, 4, 4, 3, 2]
        assert list(cols["num_positive"]) == [3, 3, 4, 2, 2]
        assert list(cols["single_processor"]) == [True, True, False,
                                                  True, True]

    def test_unparseable_row_falls_back(self):
        rows = _payloads()
        rows.insert(2, {"format_version": 1, "kind": "bicrit",
                        "mystery": True})
        batch = ProblemBatch.from_wire(rows)
        assert list(batch.fallback_indices()) == [2]
        assert bool(batch.columns["fallback"][2])
        # the surrounding fast rows still parsed columnar
        assert not bool(batch.columns["fallback"][1])

    def test_out_of_range_integers_fall_back_without_raising(self):
        rows = _payloads()
        rows[0] = {**rows[0], "deadline": 10 ** 400}
        batch = ProblemBatch.from_wire(rows)
        assert batch.fallback_indices() == [0]

    def test_exotic_but_valid_payload_falls_back_and_solves(self):
        # A join graph is valid wire but outside the chain/fork fast set.
        chain = _payloads()[0]
        join = dict(chain)
        join["graph"] = {"format_version": 1,
                         "tasks": [{"id": "a", "weight": 1.0},
                                   {"id": "b", "weight": 1.0},
                                   {"id": "c", "weight": 1.0}],
                         "edges": [["a", "c"], ["b", "c"]]}
        join["mapping"] = [["a", "b", "c"]]
        batch = ProblemBatch.from_wire([chain, join])
        assert list(batch.fallback_indices()) == [1]
        results = solve_batch(batch)
        assert len(results) == 2
        assert all(r.status in ("optimal", "infeasible") for r in results)

    def test_from_problems_round_trip(self):
        problems = [problem_from_dict(p) for p in _payloads()]
        batch = ProblemBatch.from_problems(problems)
        assert len(batch) == len(problems)
        assert batch.content_keys() == [problem_content_key(p)
                                        for p in problems]

    def test_object_rows_match_their_payload_rows(self):
        from repro.core.columnar import _parse_row, _problem_row

        problems = [problem_from_dict(p) for p in _payloads()]
        problems += [chain_problem([2.0], 1.5),
                     fork_problem(1.0, [2.0], 1.5),
                     fork_problem(0.0, [3.0, 1.0, 2.0, 0.0] * 3, 1.5),
                     tricrit_chain_problem([0.0, 1.0], 2.0)]
        chain = chain_problem([1.0, 2.0, 3.0], 2.0).graph
        problems.append(BiCritProblem(     # mapping order != chain order
            Mapping([["T0", "T2"], ["T1"]], chain),
            Platform(2, ContinuousSpeeds(0.1, 1.0)), 9.0))
        skip = TaskGraph({"a": 1.0, "b": 1.0, "c": 1.0},
                         [("a", "b"), ("b", "c"), ("a", "c")])
        unroutable = [sp_problem(5, 7, 2.0),
                      BiCritProblem(Mapping.single_processor(skip),
                                    Platform(1, ContinuousSpeeds(0.1, 1.0)),
                                    4.0)]
        for problem in problems + unroutable:
            row = _problem_row(problem)
            payload_row = _parse_row(problem_to_dict(problem))
            assert (row is None) == (payload_row is None) \
                == (problem in unroutable)
            for slot in type(row).__slots__ if row is not None else ():
                assert getattr(row, slot) == getattr(payload_row, slot), slot

    def test_inexact_object_rows_fall_back(self):
        graph = TaskGraph({0: 1.0, 1: 2.0}, [(0, 1)])
        int_ids = BiCritProblem(Mapping.single_processor(graph),
                                Platform(1, ContinuousSpeeds(0.1, 1.0)), 4.0)
        chain = chain_problem([1.0, 2.0], 2.0)
        int_alpha = BiCritProblem(chain.mapping, Platform(
            1, ContinuousSpeeds(0.1, 1.0), energy_model=EnergyModel(3)),
            chain.deadline)
        problems = [int_ids, int_alpha, chain]
        batch = ProblemBatch.from_problems(problems)
        assert batch.fallback_indices() == [0, 1]
        # Fallback rows keep the scalar content key and answer of the
        # object, with its own task ids.
        assert batch.content_keys() == [problem_content_key(p)
                                        for p in problems]
        results = solve_batch(batch)
        for problem, result in zip(problems, results):
            assert result.energy == pytest.approx(solve(problem).energy)
        assert set(results[0].schedule.decisions) == {0, 1}

    def test_take_preserves_rows(self):
        batch = ProblemBatch.from_wire(_payloads())
        sub = batch.take([0, 2, 4])
        assert len(sub) == 3
        keys = batch.content_keys()
        assert sub.content_keys() == [keys[0], keys[2], keys[4]]
        assert list(sub.columns["num_tasks"]) == [3, 4, 2]


# ----------------------------------------------------------------------
# key parity: templated columnar hashing == scalar json.dumps hashing
# ----------------------------------------------------------------------
class TestKeyParity:
    def test_content_keys_match_scalar_path(self):
        payloads = _payloads()
        batch = ProblemBatch.from_wire(payloads)
        expected = [problem_content_key(problem_from_dict(p))
                    for p in payloads]
        assert batch.content_keys() == expected

    def test_content_keys_match_on_fallback_rows(self):
        rows = _payloads()
        rows.append({**rows[0],
                     "graph": {"format_version": 1,
                               "tasks": [{"id": "a", "weight": 1.0},
                                         {"id": "b", "weight": 1.0},
                                         {"id": "c", "weight": 1.0}],
                               "edges": [["a", "c"], ["b", "c"]]},
                     "mapping": [["a", "b", "c"]]})
        batch = ProblemBatch.from_wire(rows)
        assert len(batch.fallback_indices()) == 1
        expected = [problem_content_key(problem_from_dict(p)) for p in rows]
        assert batch.content_keys() == expected

    def test_vectorized_request_keys_match_scalar(self):
        engine = Engine(store=None)
        payloads = _payloads()
        batch = ProblemBatch.from_wire(payloads)
        problems = [problem_from_dict(p) for p in payloads]
        for solver, options in (("auto", {}),
                                ("bicrit-closed-form", {"validate": False})):
            vec = engine._batch_request_keys(batch.content_keys(),
                                             solver, options)
            blob = engine._options_blob(solver, options)
            scalar = [hashlib.sha256((problem_content_key(p) + "|").encode(
                "utf-8") + blob).hexdigest() for p in problems]
            assert vec == scalar

    def test_a_skeleton_builds_its_template_at_the_second_sighting(
            self, monkeypatch):
        # Fresh task ids: the first row of a skeleton is keyed by its plain
        # blob, the second builds (and verifies) the template, later rows
        # render it; every key equals the scalar path's.
        builds = []
        real_build = ProblemBatch._build_template

        def counting_build(self, row):
            builds.append(row)
            return real_build(self, row)

        monkeypatch.setattr(ProblemBatch, "_build_template", counting_build)
        tag = uuid.uuid4().hex

        def renamed(slack):
            payload = problem_to_dict(chain_problem([1.0, 2.0, 0.5], slack))
            name = {t["id"]: f"{tag}-{t['id']}"
                    for t in payload["graph"]["tasks"]}
            for t in payload["graph"]["tasks"]:
                t["id"] = name[t["id"]]
            payload["graph"]["edges"] = [[name[u], name[v]] for u, v
                                         in payload["graph"]["edges"]]
            payload["mapping"] = [[name[t] for t in p]
                                  for p in payload["mapping"]]
            return payload

        for slack, built in ((1.3, 0), (1.4, 1), (1.5, 1)):
            payload = renamed(slack)
            assert ProblemBatch.from_wire([payload]).content_keys() == [
                problem_content_key(problem_from_dict(payload))]
            assert len(builds) == built

    def test_request_carries_parsed_batch(self):
        req = SolveBatchRequest.from_dict({"problems": _payloads()})
        assert isinstance(req.batch, ProblemBatch)
        assert len(req.batch) == 5
        # in-process construction (object lists) leaves it unset
        assert SolveBatchRequest(problems=[object()]).batch is None


# ----------------------------------------------------------------------
# planning routes
# ----------------------------------------------------------------------
class TestColumnarPlan:
    def test_kernel_counts(self):
        batch = ProblemBatch.from_wire(_payloads())
        plan = plan_batch(batch)
        counts = plan.kernel_counts()
        assert counts["chain-closed-form"] == 2
        assert counts["fork-closed-form"] == 1
        assert counts["tricrit-chain-subsets"] == 2

    def test_unroutable_solver_goes_legacy(self):
        batch = ProblemBatch.from_wire(_payloads()[:2])
        plan = plan_batch(batch, "bicrit-convex")
        assert len(plan.legacy_indices) == 2


# ----------------------------------------------------------------------
# campaign problem grids
# ----------------------------------------------------------------------
class TestProblemGrids:
    ENTRY = {"structure": "chain",
             "grid": {"num_tasks": [3, 5], "slack": [1.2, 2.0]},
             "seeds": 2, "base_seed": 7}

    def test_deterministic_expansion(self):
        a = expand_problem_batch(self.ENTRY)
        b = expand_problem_batch(self.ENTRY)
        assert len(a) == 8
        assert a.content_keys() == b.content_keys()
        assert not len(a.fallback_indices())

    def test_grids_solve_columnar(self):
        batch = expand_problem_batch({"kind": "tricrit", "structure": "chain",
                                      "grid": {"num_tasks": [4]},
                                      "seeds": 2, "base_seed": 3})
        results = solve_batch(batch)
        assert [r.solver for r in results] == ["tricrit-chain-exact"] * 2

    def test_payloads_round_trip_object_parser(self):
        batch = expand_problem_batch({"structure": "fork",
                                      "grid": {"num_tasks": [4]},
                                      "seeds": 2, "base_seed": 1})
        for payload in batch.payloads:
            problem_from_dict(payload)

    def test_rejects_unknown_keys(self):
        with pytest.raises(KeyError, match="unknown"):
            expand_problem_batch({"structure": "chain", "bogus": 1})


# ----------------------------------------------------------------------
# lazy results survive the campaign process pool (pickling regression)
# ----------------------------------------------------------------------
class TestLazyPickling:
    def _assert_lazy_round_trip(self, results, monkeypatch):
        import repro.core.problems as problems_mod

        calls = {"n": 0}
        orig = problems_mod.BiCritProblem.__post_init__

        def counting(self, *args, **kwargs):
            calls["n"] += 1
            return orig(self, *args, **kwargs)

        monkeypatch.setattr(problems_mod.BiCritProblem, "__post_init__",
                            counting)
        restored = [pickle.loads(pickle.dumps(r)) for r in results]
        assert calls["n"] == 0, "pickling forced problem materialization"
        return restored

    def test_object_path_results(self, monkeypatch):
        # A list of Problem objects goes through the same columnar pipeline.
        results = solve_batch([chain_problem([1.0, 2.0], 1.3),
                               tricrit_chain_problem([1.0, 2.0], 2.5)])
        assert all(isinstance(r, LazyScheduleResult) for r in results)
        restored = self._assert_lazy_round_trip(results, monkeypatch)
        monkeypatch.undo()
        for before, after in zip(results, restored):
            assert repr(after.energy) == repr(before.energy)
            assert after.status == before.status
            # materialization still works after the round trip
            assert after.schedule is not None
            assert dict(after.metadata)["dispatch"] == \
                dict(before.metadata)["dispatch"]

    def test_columnar_results(self, monkeypatch):
        # Wire rows and rows built from Problem objects alike.
        for batch in (ProblemBatch.from_wire(_payloads()),
                      [problem_from_dict(p) for p in _payloads()]):
            results = solve_batch(batch)
            assert all(isinstance(r, LazyScheduleResult) for r in results)
            restored = self._assert_lazy_round_trip(results, monkeypatch)
            monkeypatch.undo()
            for before, after in zip(results, restored):
                assert repr(after.energy) == repr(before.energy)
                assert after.status == before.status
                assert after.wire_view == before.wire_view
                assert after.metadata["dispatch"] == \
                    before.metadata["dispatch"]
                # materialization still works after the round trip
                assert after.schedule is not None
