"""The store-attached columnar batch path stays zero-copy.

With a :class:`~repro.store.ResultStore` attached, ``/v1/solve-batch``
must still build no per-row ``Problem``, ``TaskGraph`` or ``Schedule``,
on an all-miss batch or on store hits: the store peel looks keys up
before materialising a row, a hit answers from its record, and the stored
record is built from the kernel's speeds.  These
tests pin that property, the equality of the records built either way,
and the exact bytes of a store envelope, so records written by any
version of the writer stay readable by every other.
"""

from __future__ import annotations

import errno
import hashlib
import json
import math
import os
import types
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import repro.store.result_store as result_store_mod
from repro.api import Service
from repro.api.engine import Engine
from repro.api.types import SolveBatchRequest, SolveRequest
from repro.core.columnar import ProblemBatch
from repro.core.problem_io import problem_from_dict, problem_to_dict
from repro.core.schedule import TaskDecision
from repro.solvers.batch import (
    DISPATCH_KEYS,
    LazyScheduleResult,
    schedule_executions,
    solve_batch,
)
from repro.store import ResultStore
from repro.store.canonical import (
    _ENCODER,
    CanonicalText,
    canonicalize,
    content_checksum,
    decoded_checksum,
)

from tests.test_batch_solvers import (
    chain_problem,
    fork_problem,
    sp_problem,
    tricrit_chain_problem,
)
from tests.test_columnar_equivalence import (
    chain_payloads,
    fork_payloads,
    sp_payloads,
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


def _reference_payload(result):
    """The record as a dict, built the way the store wrote it before
    records were rendered as canonical text: insertion order, metadata
    through ``canonicalize`` (a value it refuses is dropped)."""
    payload = {"status": result.status, "solver": result.solver,
               "energy": float(result.energy),
               "makespan": Engine._wire_view(result)["makespan"],
               "metadata": {}, "schedule": None}
    for k, v in result.metadata.items():
        try:
            payload["metadata"][str(k)] = canonicalize(v)
        except TypeError:
            continue
    executions = schedule_executions(result)
    if executions is not None:
        payload["schedule"] = {"executions": executions}
    return payload


def _assert_canonical_record(result, shared=None):
    """The rendered record decodes to the reference payload, is its own
    canonical form, and its SHA-256 is the checksum a reader computes."""
    text = Engine._render_record(result, {} if shared is None else shared)
    assert isinstance(text, CanonicalText)
    value = json.loads(text)
    assert value == _reference_payload(result)
    assert _ENCODER.encode(value) == text
    assert hashlib.sha256(text.encode()).hexdigest() == decoded_checksum(value)
    assert text.checksum() == decoded_checksum(value)
    return text


def _escaped(payload):
    """``payload`` with task ids that JSON must escape: a quote, a
    backslash and non-ASCII text."""
    def name(t):
        return f'q"{t}\\é✓'
    graph = payload["graph"]
    return {**payload,
            "graph": {**graph,
                      "tasks": [{**t, "id": name(t["id"])}
                                for t in graph["tasks"]],
                      "edges": [[name(u), name(v)]
                                for u, v in graph["edges"]]},
            "mapping": [[name(t) for t in proc]
                        for proc in payload["mapping"]]}


escaped_payloads = st.one_of(chain_payloads, sp_payloads).map(_escaped)

# A BI-CRIT chain that misses its deadline even at fmax.
INFEASIBLE_CHAIN = problem_to_dict(chain_problem([1.0, 2.0], 0.5))


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
            lean = Engine._render_record(result, {})
            assert result._schedule is None               # still unbuilt
            assert result.schedule is not None            # forces the build
            full = Engine._render_record(result, {})
            # Byte-identical text, so the envelope files are too.
            assert lean == full

    def test_examples_cover_zero_weight_and_reexecution(self):
        results = solve_batch(
            ProblemBatch.from_wire([ZERO_WEIGHT_CHAIN, REEXECUTED_TRICRIT]),
            "auto")
        chain, tricrit = (schedule_executions(r) for r in results)
        assert chain["T1"] == [[[1.0, 0.0]]]
        assert [len(runs) for runs in tricrit.values()] == [2, 1, 2]


class TestRenderedRecord:
    @settings(max_examples=60, deadline=None)
    @example(payloads=[ZERO_WEIGHT_CHAIN, REEXECUTED_TRICRIT,
                       INFEASIBLE_CHAIN, _escaped(ZERO_WEIGHT_CHAIN)])
    @given(payloads=st.lists(st.one_of(chain_payloads, fork_payloads,
                                       tricrit_payloads, escaped_payloads),
                             min_size=1, max_size=6))
    def test_kernel_and_fallback_rows(self, payloads):
        results = solve_batch(ProblemBatch.from_wire(payloads), "auto")
        shared = {}
        for result in results:
            text = _assert_canonical_record(result)
            # A memo shared across the batch renders the same text.
            assert Engine._render_record(result, shared) == text

    @settings(max_examples=25, deadline=None)
    @example(payloads=[REEXECUTED_TRICRIT])
    @given(payloads=st.lists(tricrit_payloads, min_size=1, max_size=3))
    def test_pruned_rows(self, payloads):
        for result in solve_batch(ProblemBatch.from_wire(payloads),
                                  "tricrit-pruned"):
            assert result.solver == "tricrit-pruned"
            _assert_canonical_record(result)

    def test_examples_cover_each_kind(self):
        payloads = [ZERO_WEIGHT_CHAIN, REEXECUTED_TRICRIT, INFEASIBLE_CHAIN,
                    _escaped(problem_to_dict(sp_problem(3, 1, 2.0)))]
        batch = ProblemBatch.from_wire(payloads)
        assert batch.fallback_indices() == [3]
        zero, reexecuted, infeasible, escaped = solve_batch(batch, "auto")
        assert isinstance(zero, LazyScheduleResult)
        assert reexecuted.metadata["reexecuted"] == ["T0", "T2"]
        assert infeasible.energy == math.inf
        assert "message" in infeasible.metadata
        text = _assert_canonical_record(infeasible)
        assert text.startswith('{"energy":Infinity,')
        text = _assert_canonical_record(escaped)
        assert '"q\\"T0\\\\\\u00e9\\u2713"' in text

    def test_a_refused_metadata_value_is_dropped(self):
        result = solve_batch(ProblemBatch.from_wire([ZERO_WEIGHT_CHAIN]),
                             "auto")[0]
        result.metadata = {**result.metadata, "opaque": object(),
                           3: (1, 2), "nan": math.nan}
        # NaN is not equal to itself, so this checks the properties one by
        # one instead of comparing with the reference payload.
        text = Engine._render_record(result, {})
        value = json.loads(text)
        assert "opaque" not in value["metadata"]
        assert value["metadata"]["3"] == [1, 2]
        assert math.isnan(value["metadata"]["nan"])
        assert _ENCODER.encode(value) == text
        assert text.checksum() == decoded_checksum(value)


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
    """Each row's response JSON in wire order (the server does not sort
    keys), with the timing and the cached flag zeroed."""
    rows = []
    for row in response.to_dict()["results"]:
        row["elapsed_ms"] = 0.0
        row["cached"] = False
        rows.append(json.dumps(row))
    return rows


class TestStoreAttachedZeroCopy:
    def test_all_miss_path_allocates_no_problem_objects(self, tmp_path):
        store = ResultStore(tmp_path)
        payloads = _mixed_payloads()
        response, counts = _count_allocations(Engine(store=store), payloads)
        assert response.cached_count == 0
        assert counts == {"problems": 0, "graphs": 0, "schedules": 0}, counts
        assert store.count("results") == len(payloads)

    def test_restart_materialises_no_rows(self, tmp_path):
        stored = _mixed_payloads()
        fresh = Engine(store=ResultStore(tmp_path)).solve_batch(
            SolveBatchRequest.from_dict({"problems": stored}))

        # A restarted engine (empty LRU) gets the stored rows plus new ones:
        # the hits answer from their records, the misses from the kernels.
        new_rows = _mixed_payloads(offset=0.05)
        restarted = Engine(store=ResultStore(tmp_path))
        response, counts = _count_allocations(restarted, stored + new_rows)
        assert response.cached_count == len(stored)
        assert counts == {"problems": 0, "graphs": 0, "schedules": 0}, counts
        assert [row.cached for row in response.results] == (
            [True] * len(stored) + [False] * len(new_rows))
        assert _normalised_rows(response)[:len(stored)] == _normalised_rows(fresh)


class TestBothWayRead:
    """Records written before engine records were rendered as canonical
    text (insertion order, through the generic ``put_many``) and records
    rendered now are read alike."""

    def payloads(self):
        # T10 and T11 sort before T2: a sorted record's task order is not
        # the row's.
        long_chain = chain_problem([1.0 + 0.1 * i for i in range(12)], 1.3)
        return (_mixed_payloads() + [INFEASIBLE_CHAIN]
                + [problem_to_dict(long_chain)]
                + [_escaped(problem_to_dict(sp_problem(3, 1, 2.0)))])

    def test_both_record_forms_answer_with_the_same_bytes(self, tmp_path):
        payloads = self.payloads()
        request = SolveBatchRequest.from_dict({"problems": payloads})
        rendered = ResultStore(tmp_path / "rendered")
        fresh = Engine(store=rendered).solve_batch(request)
        assert fresh.cached_count == 0

        # The same rows written the insertion-order way, under the keys the
        # engine uses.
        batch = ProblemBatch.from_wire(payloads)
        keys = Engine()._batch_request_keys(batch.content_keys(), "auto", {})
        legacy = ResultStore(tmp_path / "legacy")
        assert legacy.put_many([
            (key, _reference_payload(result))
            for key, result in zip(keys, solve_batch(batch, "auto"))]) \
            == len(payloads)
        assert _leftovers(legacy) == _leftovers(rendered)
        for key in keys:
            legacy_bytes = legacy.path_for(key).read_bytes()
            rendered_bytes = rendered.path_for(key).read_bytes()
            assert b',"payload":{"status":' in legacy_bytes
            assert b',"payload":{"energy":' in rendered_bytes

        expected = _normalised_rows(fresh)
        for root in (tmp_path / "rendered", tmp_path / "legacy"):
            hits = Engine(store=ResultStore(root)).solve_batch(request)
            assert hits.cached_count == len(payloads)
            assert _normalised_rows(hits) == expected

    def test_solvers_emit_the_dispatch_keys_in_order(self):
        # A store hit puts a sorted ``dispatch`` record back in this order,
        # so every solver route must emit it.
        batch = ProblemBatch.from_wire(
            [ZERO_WEIGHT_CHAIN, REEXECUTED_TRICRIT,
             problem_to_dict(fork_problem(1.0, [2.0, 3.0], 1.5)),
             problem_to_dict(sp_problem(3, 1, 2.0))])
        assert batch.fallback_indices() == [3]
        results = (solve_batch(batch, "auto")
                   + solve_batch(ProblemBatch.from_wire([REEXECUTED_TRICRIT]),
                                 "tricrit-pruned"))
        for result in results:
            assert tuple(result.metadata["dispatch"]) == DISPATCH_KEYS

    def test_rendered_records_read_cold(self, tmp_path):
        payloads = self.payloads()
        store = ResultStore(tmp_path)
        Engine(store=store).solve_batch(
            SolveBatchRequest.from_dict({"problems": payloads}))
        batch = ProblemBatch.from_wire(payloads)
        keys = Engine()._batch_request_keys(batch.content_keys(), "auto", {})
        cold = ResultStore(tmp_path)
        for key, result in zip(keys, solve_batch(batch, "auto")):
            assert cold.get(key) == _reference_payload(result)
        assert cold.counters()["quarantined"] == 0
        assert cold.verify() == {"checked": len(payloads),
                                 "ok": len(payloads), "quarantined": 0}


FROZEN_UNIX = 1700000000.25
PINNED_PAYLOAD = {"energy": 1.5, "name": "café", "rows": [1, 2.0, None, True]}
PINNED_ENVELOPE = (
    b'{"v":1,"key":"aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa",'
    b'"namespace":"results","created_unix":1700000000.25,'
    b'"checksum":"07de46a7e3d209f3160535dc02d89b96ee5220ceee392549d3c54f761b457a75",'
    b'"payload":{"energy":1.5,"name":"caf\\u00e9","rows":[1,2.0,null,true]}}')
KEY = "a" * 64


@pytest.fixture
def frozen_clock(monkeypatch):
    monkeypatch.setattr(result_store_mod, "time",
                        types.SimpleNamespace(time=lambda: FROZEN_UNIX))


def _leftovers(store):
    return sorted(p.name for p in store.root.rglob("*") if p.is_file())


class TestEnvelopeBytes:
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
        # /v1/solve-batch writes for the same row.
        payloads = _mixed_payloads()
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

    def test_failed_write_removes_the_temp_file(self, tmp_path, monkeypatch):
        store = ResultStore(tmp_path)
        store.put("b" * 64, {"x": 1})            # the shard directory exists

        def full_disk(fd, data):
            raise OSError(errno.ENOSPC, "no space left on device")

        monkeypatch.setattr(os, "write", full_disk)
        with pytest.raises(OSError):
            store.put(KEY, {"x": 2})
        monkeypatch.undo()
        assert _leftovers(store) == [f"{'b' * 64}.json"]

    def test_failed_rename_removes_the_temp_file(self, tmp_path, monkeypatch):
        store = ResultStore(tmp_path)

        def refuse(src, dst):
            raise OSError(errno.EACCES, "permission denied")

        monkeypatch.setattr(os, "replace", refuse)
        with pytest.raises(OSError):
            store.put(KEY, {"x": 2})
        monkeypatch.undo()
        assert _leftovers(store) == []
        assert store.get(KEY) is None

    def test_removed_shard_directory_is_recreated(self, tmp_path):
        store = ResultStore(tmp_path)
        path = store.put(KEY, {"x": 1})
        assert store.clear() == 1
        path.parent.rmdir()                     # clear() leaves it empty
        (tmp_path / "results").rmdir()
        assert store.put(KEY, {"x": 2}) == path
        assert ResultStore(tmp_path).get(KEY) == {"x": 2}


# JSON values as a reader decodes them: string keys, nested containers,
# floats at the edges of the double range, non-ASCII text.
json_values = st.recursive(
    st.none() | st.booleans() | st.integers()
    | st.floats(allow_nan=False) | st.text(),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(), children, max_size=4),
    max_leaves=16)


class TestWritePath:
    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @example(value={"z": -0.0, "big": 1e300, "tiny": 5e-324,
                    "name": "café ✓ 日本", "rows": [[], {}, [None, True]]})
    @example(value=[-0.0, 1e300, 5e-324, float("inf"), "ü"])
    @given(value=json_values)
    def test_one_encode_writes_the_dumps_bytes(self, tmp_path, frozen_clock,
                                               value):
        store = ResultStore(tmp_path)
        path = store.put(KEY, value)
        envelope = {"v": 1, "key": KEY, "namespace": "results",
                    "created_unix": FROZEN_UNIX,
                    "checksum": content_checksum(value), "payload": value}
        assert path.read_bytes() == json.dumps(
            envelope, separators=(",", ":")).encode()
        # A cold reader (another process) accepts the record.
        assert ResultStore(tmp_path).get(KEY) == value

    def test_non_string_keys_read_back_in_a_cold_store(self, tmp_path):
        # The checksum is taken over what a reader decodes ("true"/"null"
        # keys), not over str(True)/str(None).
        store = ResultStore(tmp_path)
        store.put(KEY, {True: 1, None: 2, "x": 3})
        cold = ResultStore(tmp_path)
        assert cold.get(KEY) == {"true": 1, "null": 2, "x": 3}
        assert cold.verify() == {"checked": 1, "ok": 1, "quarantined": 0}

    def test_a_rendered_record_reads_back_cold(self, tmp_path):
        result = solve_batch(ProblemBatch.from_wire([ZERO_WEIGHT_CHAIN]),
                             "auto")[0]
        text = Engine._render_record(result, {})
        assert ResultStore(tmp_path).put_many([(KEY, text)]) == 1
        cold = ResultStore(tmp_path)
        got = cold.get(KEY)
        assert isinstance(got, dict) and got == json.loads(text)
        assert cold.counters()["hits"] == 1

    def test_put_many_skips_a_failing_record(self, tmp_path):
        store = ResultStore(tmp_path)
        keys = ["1" * 64, "2" * 64, "3" * 64]
        with pytest.raises(TypeError):
            store.put_many([(keys[0], {"n": 0}), (keys[1], {"n": object()}),
                            (keys[2], {"n": 2})])
        assert store.counters()["writes"] == 2
        cold = ResultStore(tmp_path)
        assert [cold.get(k) for k in keys] == [{"n": 0}, None, {"n": 2}]
        assert _leftovers(store) == [f"{keys[0]}.json", f"{keys[2]}.json"]
        assert store.put_many([]) == 0

    def test_a_budgeted_batch_walks_the_tree_once(self, tmp_path,
                                                  monkeypatch):
        payloads = _mixed_payloads()
        probe = ResultStore(tmp_path / "probe")
        Engine(store=probe).solve_batch(
            SolveBatchRequest.from_dict({"problems": payloads}))
        budget = probe.size_bytes() // 2
        store = ResultStore(tmp_path / "store", max_bytes=budget)
        walks = []
        real_rglob = Path.rglob

        def counting_rglob(self, pattern):
            walks.append(self)
            return real_rglob(self, pattern)

        monkeypatch.setattr(Path, "rglob", counting_rglob)
        status, body = Service(Engine(store=store)).handle(
            "POST", "/v1/solve-batch", json.dumps({"problems": payloads}))
        monkeypatch.undo()
        assert status == 200 and len(body["results"]) == len(payloads)
        assert len(walks) == 1                  # one eviction, not one a row
        assert 0 < store.size_bytes() <= budget
        assert store.counters()["evictions"] > 0

        # One-row writes under the budget walk once, not once a write.
        roomy = ResultStore(tmp_path / "roomy", max_bytes=100 * budget)
        service = Service(Engine(store=roomy))
        walks.clear()
        monkeypatch.setattr(Path, "rglob", counting_rglob)
        for payload in _mixed_payloads(offset=0.05):
            status, _ = service.handle("POST", "/v1/solve",
                                       json.dumps({"problem": payload}))
            assert status == 200
        for i in range(200):
            roomy.put(f"{i + 1:064x}", {"i": i})
        monkeypatch.undo()
        assert len(walks) <= 1
        assert roomy.count() == len(payloads) + 200
        assert roomy.counters()["evictions"] == 0

    def test_budgeted_writes_stat_o1_files_amortised(self, tmp_path,
                                                     monkeypatch):
        record = {"pad": "x" * 200}
        size = ResultStore(tmp_path / "probe").put(KEY, record).stat().st_size
        budget = 50 * size
        store = ResultStore(tmp_path / "store", max_bytes=budget)
        visited = []
        real_rglob = Path.rglob

        def counting_rglob(self, pattern):
            for path in real_rglob(self, pattern):
                visited.append(path)
                yield path

        monkeypatch.setattr(Path, "rglob", counting_rglob)
        writes = 500
        for i in range(writes):
            store.put(f"{i + 1:064x}", record)
        monkeypatch.undo()
        # Between walks the store writes a tenth of its budget, or the
        # walk after a short interval evicts to 90% of it: after the first
        # walk, at most two walks of at most the budget plus the write per
        # tenth written.
        per_tenth = budget * result_store_mod._REWALK_SHARE / size
        per_walk = budget // size + 1
        assert len(visited) <= (1 + 2 * writes / per_tenth) * per_walk
        assert store.size_bytes() <= budget
        assert store.counters()["evictions"] > 0

    def test_two_writers_bring_a_shared_tree_back_within_budget(
            self, tmp_path, monkeypatch):
        # Two stores on one root stand in for two fleet workers: neither
        # one's byte estimate holds the other's writes.
        record = {"pad": "x" * 200}
        size = ResultStore(tmp_path / "probe").put(KEY, record).stat().st_size
        budget = 50 * size
        workers = [ResultStore(tmp_path / "shared", max_bytes=budget)
                   for _ in range(2)]
        events = []
        real_evict = ResultStore._evict

        def tracking_evict(self, *args, **kwargs):
            evicted = real_evict(self, *args, **kwargs)
            events.append(("walk", evicted, workers[0].size_bytes()))
            return evicted

        monkeypatch.setattr(ResultStore, "_evict", tracking_evict)
        writes = 300
        for i in range(writes):
            workers[i % 2].put(f"{i + 1:064x}", record)
            events.append(("put", 0, workers[0].size_bytes()))
        monkeypatch.undo()
        walks = [e for e in events if e[0] == "walk"]
        crossed = next(i for i, e in enumerate(events) if e[2] > budget)
        # The writes crossed the budget, a later walk evicted, and every
        # walk left the tree within it.  In between, the tree stayed
        # within the other worker's share over the budget (plus one write
        # each), and each worker walked at most twice per tenth of the
        # budget it wrote.
        assert any(e[0] == "walk" and e[1] > 0 for e in events[crossed:])
        assert all(tree <= budget for _, _, tree in walks)
        assert max(tree for _, _, tree in events) \
            <= budget * (1 + result_store_mod._REWALK_SHARE) + 2 * size
        per_tenth = budget * result_store_mod._REWALK_SHARE / size
        assert len(walks) <= 2 * (2 + writes / per_tenth)
