"""The store-attached columnar batch path stays zero-copy.

With a :class:`~repro.store.ResultStore` attached, ``/v1/solve-batch``
must still build no per-row ``Problem``, ``TaskGraph`` or ``Schedule`` on
an all-miss batch: the store peel looks keys up before materialising a
row, and the stored record is built from the kernel's speeds.  These
tests pin that property, the equality of the records built either way,
and the exact bytes of a store envelope, so records written by any
version of the writer stay readable by every other.
"""

from __future__ import annotations

import errno
import json
import types
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import repro.store.result_store as result_store_mod
from repro.api.engine import Engine
from repro.api.types import SolveBatchRequest, SolveRequest
from repro.core.columnar import ProblemBatch
from repro.core.problem_io import problem_from_dict, problem_to_dict
from repro.core.schedule import TaskDecision
from repro.solvers.batch import LazyScheduleResult, schedule_executions, solve_batch
from repro.store import ResultStore
from repro.store.canonical import canonical_blob

from tests.test_batch_solvers import chain_problem, fork_problem, tricrit_chain_problem
from tests.test_columnar_equivalence import (
    chain_payloads,
    fork_payloads,
    tricrit_payloads,
)

# A chain and a TRI-CRIT chain with a zero-weight task; the TRI-CRIT one
# re-executes T0 and T2 at this slack.
ZERO_WEIGHT_CHAIN = problem_to_dict(chain_problem([1.0, 0.0, 2.0], 1.5))
REEXECUTED_TRICRIT = problem_to_dict(tricrit_chain_problem([1.0, 0.0, 2.0], 4.0))


def _reference_executions(payload, speeds):
    """The stored interval lists the way the ``Schedule`` route builds
    them: ``TaskDecision.single`` / ``reexecuted`` over the parsed graph."""
    graph = problem_from_dict(payload).graph
    out = {}
    for t in graph.tasks():
        fs = speeds[t]
        w = graph.weight(t)
        decision = (TaskDecision.reexecuted(t, w, fs[0], fs[1]) if len(fs) == 2
                    else TaskDecision.single(t, w, fs[0]))
        out[str(t)] = [[[float(f), float(d)] for f, d in e.intervals]
                       for e in decision.executions]
    return out


class TestRecordWithoutSchedule:
    @settings(max_examples=40, deadline=None)
    @example(payloads=[ZERO_WEIGHT_CHAIN, REEXECUTED_TRICRIT])
    @given(payloads=st.lists(st.one_of(chain_payloads, fork_payloads,
                                       tricrit_payloads),
                             min_size=1, max_size=6))
    def test_record_matches_the_schedule_route(self, payloads):
        results = solve_batch(ProblemBatch.from_wire(payloads), "auto")
        for payload, result in zip(payloads, results):
            if not isinstance(result, LazyScheduleResult):
                continue        # infeasible rows and fmin-clamped fork rows
            assert schedule_executions(result) == _reference_executions(
                payload, result.wire_view["speeds"])
            lean = Engine._result_to_payload(result)
            assert result._schedule is None               # still unbuilt
            assert result.schedule is not None            # forces the build
            full = Engine._result_to_payload(result)
            assert canonical_blob(lean) == canonical_blob(full)
            # Same key order too, so the envelope files are byte-identical.
            assert json.dumps(lean) == json.dumps(full)

    def test_examples_cover_zero_weight_and_reexecution(self):
        results = solve_batch(
            ProblemBatch.from_wire([ZERO_WEIGHT_CHAIN, REEXECUTED_TRICRIT]),
            "auto")
        chain, tricrit = (schedule_executions(r) for r in results)
        assert chain["T1"] == [[[1.0, 0.0]]]
        assert [len(runs) for runs in tricrit.values()] == [2, 1, 2]


def _count_allocations(engine, payloads):
    """``(response, counts)`` of one batch with Problem / TaskGraph /
    Schedule constructions counted."""
    import repro.core.problems as problems_mod
    import repro.core.schedule as schedule_mod
    from repro.dag import taskgraph as taskgraph_mod

    counts = {"problems": 0, "graphs": 0, "schedules": 0}
    patched = [(problems_mod.BiCritProblem, "__post_init__", "problems"),
               (taskgraph_mod.TaskGraph, "__init__", "graphs"),
               (schedule_mod.Schedule, "__init__", "schedules")]
    originals = [getattr(cls, name) for cls, name, _ in patched]

    def counting(original, label):
        def wrapper(self, *args, **kwargs):
            counts[label] += 1
            return original(self, *args, **kwargs)
        return wrapper

    request = SolveBatchRequest.from_dict({"problems": payloads})
    for (cls, name, label), original in zip(patched, originals):
        setattr(cls, name, counting(original, label))
    try:
        response = engine.solve_batch(request)
    finally:
        for (cls, name, _), original in zip(patched, originals):
            setattr(cls, name, original)
    return response, counts


def _mixed_payloads(offset=0.0):
    return ([problem_to_dict(chain_problem([1.0, 2.0, 0.5], 1.2 + offset + i * 0.1))
             for i in range(8)]
            + [problem_to_dict(fork_problem(2.0, [1.0, 0.7], 1.4 + offset + i * 0.1))
               for i in range(4)]
            + [problem_to_dict(tricrit_chain_problem([1.0, 2.0], 2.5 + offset + i))
               for i in range(4)])


def _normalised_rows(response):
    """Each row's JSON with the timing and the cached flag zeroed."""
    rows = []
    for row in response.to_dict()["results"]:
        row["elapsed_ms"] = 0.0
        row["cached"] = False
        rows.append(json.dumps(row, sort_keys=True))
    return rows


class TestStoreAttachedZeroCopy:
    def test_all_miss_path_allocates_no_problem_objects(self, tmp_path):
        store = ResultStore(tmp_path)
        payloads = _mixed_payloads()
        response, counts = _count_allocations(Engine(store=store), payloads)
        assert response.cached_count == 0
        assert counts == {"problems": 0, "graphs": 0, "schedules": 0}, counts
        assert store.count("results") == len(payloads)

    def test_restart_materialises_only_the_hit_rows(self, tmp_path):
        stored = _mixed_payloads()
        fresh = Engine(store=ResultStore(tmp_path)).solve_batch(
            SolveBatchRequest.from_dict({"problems": stored}))

        # A restarted engine (empty LRU) gets the stored rows plus new ones.
        new_rows = _mixed_payloads(offset=0.05)
        restarted = Engine(store=ResultStore(tmp_path))
        response, counts = _count_allocations(restarted, stored + new_rows)
        assert response.cached_count == len(stored)
        assert counts["problems"] == len(stored), counts
        assert [row.cached for row in response.results] == (
            [True] * len(stored) + [False] * len(new_rows))
        assert _normalised_rows(response)[:len(stored)] == _normalised_rows(fresh)


FROZEN_UNIX = 1700000000.25
PINNED_PAYLOAD = {"energy": 1.5, "name": "café", "rows": [1, 2.0, None, True]}
PINNED_ENVELOPE = (
    b'{"v":1,"key":"aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa",'
    b'"namespace":"results","created_unix":1700000000.25,'
    b'"checksum":"07de46a7e3d209f3160535dc02d89b96ee5220ceee392549d3c54f761b457a75",'
    b'"payload":{"energy":1.5,"name":"caf\\u00e9","rows":[1,2.0,null,true]}}')
KEY = "a" * 64


class TestEnvelopeBytes:
    @pytest.fixture
    def frozen_clock(self, monkeypatch):
        monkeypatch.setattr(result_store_mod, "time",
                            types.SimpleNamespace(time=lambda: FROZEN_UNIX))

    def test_put_writes_the_pinned_bytes(self, tmp_path, frozen_clock):
        store = ResultStore(tmp_path)
        path = store.put(KEY, PINNED_PAYLOAD)
        assert path.read_bytes() == PINNED_ENVELOPE
        # A store with a cold index (another process) reads it back.
        assert ResultStore(tmp_path).get(KEY) == PINNED_PAYLOAD

    def test_problem_objects_store_the_wire_bytes(self, tmp_path,
                                                   frozen_clock):
        payloads = _mixed_payloads()
        Engine(store=ResultStore(tmp_path / "wire")).solve_batch(
            SolveBatchRequest.from_dict({"problems": payloads}))
        Engine(store=ResultStore(tmp_path / "objects")).submit_batch(
            [problem_from_dict(p) for p in payloads])

        def tree(root):
            return {str(p.relative_to(root)): p.read_bytes()
                    for p in root.rglob("*") if p.is_file()}
        wire = tree(tmp_path / "wire")
        assert len(wire) == len(payloads)
        assert tree(tmp_path / "objects") == wire

    def test_single_solves_store_the_batch_bytes(self, tmp_path,
                                                 frozen_clock):
        # A scalar request is a batch of one: /v1/solve writes the record
        # /v1/solve-batch writes for the same BI-CRIT row.  (TRI-CRIT chain
        # rows still differ in the last digits with the batch around them.)
        payloads = [p for p in _mixed_payloads() if p["kind"] == "bicrit"]
        Engine(store=ResultStore(tmp_path / "batch")).solve_batch(
            SolveBatchRequest.from_dict({"problems": payloads}))
        single = Engine(store=ResultStore(tmp_path / "single"))
        for payload in payloads:
            single.solve(SolveRequest.from_dict({"problem": payload}))

        def tree(root):
            return {str(p.relative_to(root)): p.read_bytes()
                    for p in root.rglob("*") if p.is_file()}
        batch = tree(tmp_path / "batch")
        assert len(batch) == len(payloads)
        assert tree(tmp_path / "single") == batch

    @staticmethod
    def _leftovers(store):
        return sorted(p.name for p in store.root.rglob("*") if p.is_file())

    def test_failed_write_removes_the_temp_file(self, tmp_path, monkeypatch):
        store = ResultStore(tmp_path)
        store.put("b" * 64, {"x": 1})            # the shard directory exists
        real_open = Path.open

        class FullDisk:
            def __init__(self, fh):
                self.fh = fh

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()
                return False

            def write(self, data):
                raise OSError(errno.ENOSPC, "no space left on device")

        monkeypatch.setattr(Path, "open",
                            lambda self, *a, **k: FullDisk(real_open(self, *a, **k)))
        with pytest.raises(OSError):
            store.put(KEY, {"x": 2})
        monkeypatch.undo()
        assert self._leftovers(store) == [f"{'b' * 64}.json"]

    def test_failed_rename_removes_the_temp_file(self, tmp_path, monkeypatch):
        store = ResultStore(tmp_path)

        def refuse(self, target):
            raise OSError(errno.EACCES, "permission denied")

        monkeypatch.setattr(Path, "replace", refuse)
        with pytest.raises(OSError):
            store.put(KEY, {"x": 2})
        monkeypatch.undo()
        assert self._leftovers(store) == []
        assert store.get(KEY) is None

    def test_removed_shard_directory_is_recreated(self, tmp_path):
        store = ResultStore(tmp_path)
        path = store.put(KEY, {"x": 1})
        assert store.clear() == 1
        path.parent.rmdir()                     # clear() leaves it empty
        (tmp_path / "results").rmdir()
        assert store.put(KEY, {"x": 2}) == path
        assert ResultStore(tmp_path).get(KEY) == {"x": 2}
