"""Tests of the persistent shared result-store tier.

Covers the store itself (atomic sharded writes, envelope checksums,
quarantine, eviction, the mtime-invalidated index), request coalescing,
the engine's write-through integration (restart persistence without solver
dispatch, batch peeling, metrics), the one-tier property shared with the
campaign cache, multi-process contention, and the ``repro cache`` CLI.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
import threading
import time
from collections import Counter
from pathlib import Path

import pytest

import repro.api as api
from repro.api.types import SimulateRequest, SolveRequest
from repro.campaign.cache import ResultCache
from repro.core.problem_io import problem_to_dict
from repro.core.problems import BiCritProblem
from repro.platform.mapping import Mapping
from repro.solvers.batch import solve_batch
from repro.solvers.descriptors import InadmissibleSolverError
from repro.store import Coalescer, ResultStore, StoreError, resolve_store_root
from repro.store.canonical import content_checksum

from tests.test_batch_solvers import chain_problem

KEY_A = "a" * 64
KEY_B = "b" * 64
KEY_C = "0123" * 16


# ----------------------------------------------------------------------
# the store proper
# ----------------------------------------------------------------------
class TestResultStore:
    def test_roundtrip_and_envelope_layout(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        payload = {"energy": 1.5, "rows": [1, 2, 3]}
        path = store.put(KEY_A, payload)
        assert store.get(KEY_A) == payload
        # Sharded layout: root/<namespace>/<key[:2]>/<key>.json.
        assert path == tmp_path / "store" / "results" / "aa" / f"{KEY_A}.json"
        envelope = json.loads(path.read_text())
        assert envelope["v"] == 1
        assert envelope["key"] == KEY_A
        assert envelope["namespace"] == "results"
        assert envelope["checksum"] == content_checksum(payload)
        assert envelope["payload"] == payload

    def test_namespaces_are_disjoint(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put(KEY_A, {"x": 1}, "results")
        store.put(KEY_A, {"x": 2}, "campaign")
        assert store.get(KEY_A, "results") == {"x": 1}
        assert store.get(KEY_A, "campaign") == {"x": 2}
        assert store.namespaces() == ["campaign", "results"]
        assert store.clear("campaign") == 1
        assert store.get(KEY_A, "campaign") is None
        assert store.get(KEY_A, "results") == {"x": 1}

    def test_non_hex_keys_are_rejected(self, tmp_path):
        store = ResultStore(tmp_path)
        with pytest.raises(StoreError):
            store.path_for("../../escape")
        with pytest.raises(StoreError):
            store.put("not a key", {})

    def test_missing_key_is_a_counted_miss(self, tmp_path):
        store = ResultStore(tmp_path)
        assert store.get(KEY_A) is None
        assert store.counters()["misses"] == 1

    def test_torn_write_is_quarantined_once(self, tmp_path):
        store = ResultStore(tmp_path)
        path = store.put(KEY_A, {"ok": True})
        path.write_text("{torn", encoding="utf-8")
        assert store.get(KEY_A) is None
        corrupt = path.with_suffix(path.suffix + ".corrupt")
        assert not path.exists() and corrupt.exists()
        assert store.counters()["quarantined"] == 1
        # Second read: plain miss, nothing left to quarantine.
        assert store.get(KEY_A) is None
        assert store.counters()["quarantined"] == 1
        # A rewrite is not shadowed.
        store.put(KEY_A, {"ok": "again"})
        assert store.get(KEY_A) == {"ok": "again"}

    def test_checksum_mismatch_is_quarantined(self, tmp_path):
        store = ResultStore(tmp_path)
        path = store.put(KEY_A, {"value": 1})
        envelope = json.loads(path.read_text())
        envelope["payload"]["value"] = 2       # bit rot: valid JSON, wrong hash
        path.write_text(json.dumps(envelope), encoding="utf-8")
        assert store.get(KEY_A) is None
        assert path.with_suffix(path.suffix + ".corrupt").exists()

    def test_verify_quarantines_only_damaged_records(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put(KEY_A, {"fine": 1})
        bad = store.put(KEY_B, {"fine": 2})
        envelope = json.loads(bad.read_text())
        envelope["payload"]["fine"] = 666
        bad.write_text(json.dumps(envelope), encoding="utf-8")
        report = store.verify()
        assert report == {"checked": 2, "ok": 1, "quarantined": 1}
        assert store.get(KEY_A) == {"fine": 1}
        assert store.get(KEY_B) is None
        # A clean second pass.
        assert store.verify() == {"checked": 1, "ok": 1, "quarantined": 0}

    def test_index_sees_writes_from_other_instances(self, tmp_path):
        writer = ResultStore(tmp_path)
        reader = ResultStore(tmp_path)
        writer.put(KEY_A, {"generation": 1})
        assert reader.get(KEY_A) == {"generation": 1}
        time.sleep(0.01)       # ensure a distinct mtime on coarse filesystems
        writer.put(KEY_A, {"generation": 2})
        # The reader's in-memory index entry is stale; (mtime, size)
        # invalidation must force a re-read.
        assert reader.get(KEY_A) == {"generation": 2}

    def test_records_iterates_envelopes(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put(KEY_A, {"n": 1})
        store.put(KEY_B, {"n": 2})
        envelopes = list(store.records())
        assert [e["payload"]["n"] for e in envelopes] == [1, 2]

    def test_evict_to_drops_oldest_first(self, tmp_path):
        store = ResultStore(tmp_path)
        paths = []
        for i, key in enumerate((KEY_A, KEY_B, KEY_C)):
            path = store.put(key, {"i": i, "pad": "x" * 64})
            # Deterministic LRU order regardless of filesystem timestamp
            # granularity.
            os.utime(path, (1_000_000 + i, 1_000_000 + i))
            paths.append(path)
        # Exactly the two newest fit (record sizes vary by a few bytes --
        # the envelope timestamp's float repr -- so budget on real sizes).
        budget = paths[1].stat().st_size + paths[2].stat().st_size
        evicted = store.evict_to(budget)
        assert evicted == 1
        assert not paths[0].exists()           # oldest gone
        assert paths[1].exists() and paths[2].exists()
        assert store.counters()["evictions"] == 1
        assert store.evict_to(10 * budget) == 0

    def test_byte_budget_self_evicts_on_put(self, tmp_path):
        probe = ResultStore(tmp_path / "probe")
        record_size = probe.put(KEY_A, {"pad": "x" * 64}).stat().st_size
        store = ResultStore(tmp_path / "store", max_bytes=2 * record_size)
        for i, key in enumerate((KEY_A, KEY_B, KEY_C)):
            path = store.put(key, {"pad": "x" * 64})
            os.utime(path, (1_000_000 + i, 1_000_000 + i))
        store.put("d" * 64, {"pad": "x" * 64})
        assert store.size_bytes() <= 2 * record_size + record_size  # tolerance
        assert store.count() < 4
        assert store.counters()["evictions"] >= 1

    def test_stats_shape(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put(KEY_A, {"x": 1}, "results")
        store.put(KEY_B, {"y": 2}, "campaign")
        stats = store.stats()
        assert stats["entries_total"] == 2
        assert set(stats["namespaces"]) == {"results", "campaign"}
        assert stats["namespaces"]["results"]["entries"] == 1
        assert stats["bytes_total"] > 0
        assert set(stats["counters"]) == {"hits", "misses", "writes",
                                          "evictions", "quarantined"}

    def test_root_resolution_env(self, monkeypatch, tmp_path):
        monkeypatch.delenv("REPRO_STORE_DIR", raising=False)
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        assert str(resolve_store_root()) == ".repro-cache"
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "legacy"))
        assert resolve_store_root() == tmp_path / "legacy"
        monkeypatch.setenv("REPRO_STORE_DIR", str(tmp_path / "new"))
        assert resolve_store_root() == tmp_path / "new"
        assert resolve_store_root(tmp_path / "explicit") == tmp_path / "explicit"


# ----------------------------------------------------------------------
# single-flight coalescing
# ----------------------------------------------------------------------
class TestCoalescer:
    def test_one_leader_many_waiters(self):
        coalescer = Coalescer()
        flight, leader = coalescer.claim(KEY_A)
        assert leader
        waiters = [coalescer.claim(KEY_A) for _ in range(3)]
        assert all(f is flight and not is_leader for f, is_leader in waiters)
        coalescer.resolve(flight, result=42)
        assert all(f.wait(1.0) == 42 for f, _ in waiters)
        stats = coalescer.stats()
        assert stats == {"in_flight": 0, "coalesced_waits": 3,
                         "flights_led": 1}

    def test_leader_error_propagates_to_waiters(self):
        coalescer = Coalescer()
        flight, _ = coalescer.claim(KEY_A)
        waiter, leader = coalescer.claim(KEY_A)
        assert not leader
        coalescer.resolve(flight, error=RuntimeError("solver exploded"))
        with pytest.raises(RuntimeError, match="solver exploded"):
            waiter.wait(1.0)

    def test_resolved_flight_is_retired(self):
        coalescer = Coalescer()
        flight, _ = coalescer.claim(KEY_A)
        coalescer.resolve(flight, result=1)
        again, leader = coalescer.claim(KEY_A)
        assert leader and again is not flight

    def test_wait_timeout(self):
        coalescer = Coalescer()
        _, _ = coalescer.claim(KEY_A)
        waiter, _ = coalescer.claim(KEY_A)
        with pytest.raises(TimeoutError):
            waiter.wait(0.05)


# ----------------------------------------------------------------------
# engine integration: write-through, restart persistence, coalescing
# ----------------------------------------------------------------------
def _forbid_solves(monkeypatch):
    def _boom(*args, **kwargs):
        raise AssertionError("solver dispatch is forbidden in this phase")
    monkeypatch.setattr("repro.api.engine._kernel_solve_batch", _boom)


class TestEngineStore:
    def test_solve_writes_through_and_survives_restart(
            self, tmp_path, monkeypatch, small_chain_problem):
        store = ResultStore(tmp_path / "store")
        first_engine = api.Engine(store=store)
        payload = problem_to_dict(small_chain_problem)
        response = first_engine.solve(SolveRequest(problem=payload))
        assert response.cached is False
        assert store.count("results") == 1

        # "Restart": a fresh engine (empty LRU, empty problem pool) on the
        # same store root, with every solver entry point booby-trapped --
        # the answer must come purely from disk.
        restarted = api.Engine(store=ResultStore(tmp_path / "store"))
        _forbid_solves(monkeypatch)
        again = restarted.solve(SolveRequest(problem=payload))
        assert again.cached is True
        assert again.energy == response.energy
        assert again.makespan == response.makespan
        assert again.speeds == response.speeds
        assert again.num_reexecuted == response.num_reexecuted
        metrics = restarted.metrics()
        assert metrics["store"]["hits"] == 1
        assert metrics["cache"]["hits"] == 1

    def test_object_layer_rebuilds_a_real_schedule(
            self, tmp_path, monkeypatch, tricrit_chain_problem):
        store = ResultStore(tmp_path)
        engine = api.Engine(store=store)
        result, cached = engine.submit(tricrit_chain_problem)
        assert not cached
        restarted = api.Engine(store=ResultStore(tmp_path))
        _forbid_solves(monkeypatch)
        rebuilt, cached = restarted.submit(tricrit_chain_problem)
        assert cached
        assert rebuilt.schedule is not None
        assert rebuilt.energy == pytest.approx(result.energy)
        assert rebuilt.schedule.makespan() == pytest.approx(
            result.schedule.makespan())
        assert rebuilt.schedule.num_reexecuted() == \
            result.schedule.num_reexecuted()
        assert rebuilt.status == result.status
        assert rebuilt.solver == result.solver

    def test_simulate_works_from_a_store_hit(self, tmp_path, monkeypatch,
                                             small_chain_problem):
        store = ResultStore(tmp_path)
        payload = problem_to_dict(small_chain_problem)
        api.Engine(store=store).solve(SolveRequest(problem=payload))
        restarted = api.Engine(store=ResultStore(tmp_path))
        _forbid_solves(monkeypatch)
        sim = restarted.simulate(SimulateRequest(problem=payload, trials=50,
                                                 seed=3))
        assert sim.solve.cached is True
        assert sim.trials == 50
        assert 0.0 <= sim.success_rate <= 1.0

    def test_batch_peels_store_hits(self, tmp_path, monkeypatch,
                                    small_chain_problem, small_fork_problem):
        store = ResultStore(tmp_path)
        engine = api.Engine(store=store)
        pairs = engine.submit_batch([small_chain_problem, small_fork_problem])
        assert [cached for _, cached in pairs] == [False, False]
        assert store.count("results") == 2
        restarted = api.Engine(store=ResultStore(tmp_path))
        _forbid_solves(monkeypatch)
        pairs = restarted.submit_batch([small_chain_problem,
                                        small_fork_problem])
        assert [cached for _, cached in pairs] == [True, True]
        assert restarted.metrics()["store"]["hits"] == 2

    def test_store_disabled_engine_never_touches_disk(
            self, tmp_path, monkeypatch, small_chain_problem):
        monkeypatch.chdir(tmp_path)   # a stray default store would land here
        engine = api.Engine()
        engine.submit(small_chain_problem)
        assert not (tmp_path / ".repro-cache").exists()
        assert engine.metrics()["store"]["enabled"] is False
        assert engine.store_stats()["enabled"] is False

    def test_metrics_expose_store_and_coalesce_counters(
            self, tmp_path, small_chain_problem):
        engine = api.Engine(store=ResultStore(tmp_path))
        engine.submit(small_chain_problem)
        engine.submit(small_chain_problem)
        metrics = engine.metrics()
        assert metrics["store"]["enabled"] is True
        assert {"hits", "misses", "backend", "coalesce"} <= \
            set(metrics["store"])
        assert metrics["store"]["backend"]["writes"] == 1
        assert {"in_flight", "coalesced_waits", "flights_led"} == \
            set(metrics["store"]["coalesce"])
        assert "coalesced_hits" in metrics["cache"]
        stats = engine.store_stats()
        assert stats["enabled"] is True
        assert stats["namespaces"]["results"]["entries"] == 1

    def test_version_skew_means_miss_not_garbage(self, tmp_path, monkeypatch,
                                                 small_chain_problem):
        store = ResultStore(tmp_path)
        api.Engine(store=store).submit(small_chain_problem)
        # A different library version must not read this record back.
        monkeypatch.setattr("repro.__version__", "999.0.0")
        fresh = api.Engine(store=ResultStore(tmp_path))
        result, cached = fresh.submit(small_chain_problem)
        assert not cached
        assert result.schedule is not None


class TestCoalescing:
    def test_identical_concurrent_solves_run_once(self, monkeypatch,
                                                  small_chain_problem):
        baseline, _ = api.Engine().submit(small_chain_problem)
        calls = []
        lock = threading.Lock()

        def slow_solve(batch, solver, **kwargs):
            with lock:
                calls.append(len(batch))
            time.sleep(0.25)
            return [baseline] * len(batch)

        monkeypatch.setattr("repro.api.engine._kernel_solve_batch", slow_solve)
        fresh = api.Engine()
        results: list[tuple] = []
        out_lock = threading.Lock()

        def submit():
            pair = fresh.submit(small_chain_problem)
            with out_lock:
                results.append(pair)

        threads = [threading.Thread(target=submit) for _ in range(8)]
        start = time.perf_counter()
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        elapsed = time.perf_counter() - start
        assert len(results) == 8
        # K identical concurrent requests -> exactly one engine solve.
        assert calls == [1]
        assert all(result is baseline for result, _ in results)
        assert sum(1 for _, cached in results if not cached) == 1
        assert sum(1 for _, cached in results if cached) == 7
        # And they ran concurrently, not serially (8 x 0.25s >> 2s).
        assert elapsed < 2.0
        metrics = fresh.metrics()
        assert metrics["cache"]["hits"] == 7
        assert metrics["cache"]["misses"] == 1
        assert metrics["store"]["coalesce"]["flights_led"] >= 1

    def test_leader_failure_fails_the_waiters_once(self, monkeypatch,
                                                   small_chain_problem):
        release = threading.Event()

        def exploding_solve(batch, solver, **kwargs):
            release.wait(5)
            raise RuntimeError("leader died")

        monkeypatch.setattr("repro.api.engine._kernel_solve_batch",
                            exploding_solve)
        engine = api.Engine()
        errors = []
        lock = threading.Lock()

        def submit():
            try:
                engine.submit(small_chain_problem)
            except RuntimeError as exc:
                with lock:
                    errors.append(str(exc))

        threads = [threading.Thread(target=submit) for _ in range(4)]
        for t in threads:
            t.start()
        time.sleep(0.2)
        release.set()
        for t in threads:
            t.join(timeout=10)
        assert errors == ["leader died"] * 4
        # The failed flight is retired: the next request recomputes.
        monkeypatch.setattr("repro.api.engine._kernel_solve_batch",
                            lambda batch, solver, **kw: (_ for _ in ()).throw(
                                RuntimeError("second attempt")))
        with pytest.raises(RuntimeError, match="second attempt"):
            engine.submit(small_chain_problem)

    @staticmethod
    def _wait_for_a_waiter(engine, timeout=10.0):
        """Block until some request waits on a flight of ``engine``."""
        deadline = time.monotonic() + timeout
        while engine.store_stats()["coalesce"]["coalesced_waits"] < 1:
            assert time.monotonic() < deadline, "no request ever waited"
            time.sleep(0.005)

    def test_concurrent_batches_solve_a_shared_row_once(
            self, monkeypatch, small_chain_problem, small_fork_problem,
            tricrit_chain_problem):
        engine = api.Engine()
        solved: list[str] = []
        in_kernel = threading.Event()

        def gated_solve(batch, solver, **kwargs):
            first = not solved
            solved.extend(batch.content_keys())
            if first:
                # Hold the shared row's flight until the second batch
                # waits on it.
                in_kernel.set()
                self._wait_for_a_waiter(engine)
            return solve_batch(batch, solver, **kwargs)

        monkeypatch.setattr("repro.api.engine._kernel_solve_batch",
                            gated_solve)
        out = {}

        def run(name, problems):
            out[name] = engine.submit_batch(problems)

        first = threading.Thread(target=run, args=(
            "a", [small_chain_problem, small_fork_problem]))
        first.start()
        assert in_kernel.wait(10)
        second = threading.Thread(target=run, args=(
            "b", [small_fork_problem, tricrit_chain_problem]))
        second.start()
        first.join(30)
        second.join(30)
        assert len(solved) == len(set(solved)) == 3
        assert [cached for _, cached in out["a"]] == [False, False]
        assert [cached for _, cached in out["b"]] == [True, False]
        assert out["b"][0][0] is out["a"][1][0]
        cache = engine.metrics()["cache"]
        assert (cache["hits"], cache["misses"], cache["coalesced_hits"]) == \
            (1, 3, 1)

    def test_duplicate_rows_are_solved_once(self, monkeypatch,
                                            small_chain_problem):
        sizes = []

        def counting_solve(batch, solver, **kwargs):
            sizes.append(len(batch))
            return solve_batch(batch, solver, **kwargs)

        monkeypatch.setattr("repro.api.engine._kernel_solve_batch",
                            counting_solve)
        engine = api.Engine()
        # An object row and its wire payload share one content key.
        pairs = engine.submit_batch([small_chain_problem,
                                     problem_to_dict(small_chain_problem),
                                     small_chain_problem])
        assert sizes == [1]
        assert pairs[0][0] is pairs[1][0] is pairs[2][0]
        assert [cached for _, cached in pairs] == [False] * 3
        assert engine.metrics()["cache"]["misses"] == 3

    def test_waiter_never_gets_a_foreign_rows_error(
            self, monkeypatch, small_chain_problem, small_chain_graph,
            vdd_platform):
        # Not admissible for the closed form: a VDD-HOPPING platform.
        inadmissible = BiCritProblem(
            mapping=Mapping.single_processor(small_chain_graph),
            platform=vdd_platform,
            deadline=2.0 * small_chain_graph.total_weight())
        engine = api.Engine()
        in_kernel = threading.Event()

        def gated_solve(batch, solver, **kwargs):
            if len(batch) == 2:
                in_kernel.set()
                self._wait_for_a_waiter(engine)
            return solve_batch(batch, solver, **kwargs)

        monkeypatch.setattr("repro.api.engine._kernel_solve_batch",
                            gated_solve)
        errors = []

        def run_batch():
            try:
                engine.submit_batch([small_chain_problem, inadmissible],
                                    "bicrit-closed-form")
            except InadmissibleSolverError as exc:
                errors.append(exc)

        batch_thread = threading.Thread(target=run_batch)
        batch_thread.start()
        assert in_kernel.wait(10)
        # Waits on the batch's flight for the shared row, then solves the
        # row itself when that batch fails on the other row.
        result, cached = engine.submit(small_chain_problem,
                                       "bicrit-closed-form")
        batch_thread.join(30)
        assert len(errors) == 1
        assert not cached
        assert result.feasible
        assert engine.metrics()["cache"]["coalesced_hits"] == 0


    def test_overlapping_batches_under_thread_churn(self, monkeypatch):
        # More threads than cores and a short switch interval: every
        # distinct row is solved exactly once, each request gets one
        # result object per row, and no hit or miss is lost.
        problems = [problem_to_dict(chain_problem([1.0, 2.0, 0.5],
                                                  1.2 + 0.1 * k))
                    for k in range(6)]
        solved: Counter[str] = Counter()
        lock = threading.Lock()

        def counting_solve(batch, solver, **kwargs):
            with lock:
                solved.update(batch.content_keys())
            time.sleep(0.01)
            return solve_batch(batch, solver, **kwargs)

        monkeypatch.setattr("repro.api.engine._kernel_solve_batch",
                            counting_solve)
        engine = api.Engine()
        rng = random.Random(7)
        requests = [[rng.choice(problems) for _ in range(4)]
                    for _ in range(16)]
        outs: list = [None] * len(requests)
        start = threading.Barrier(len(requests), timeout=30)

        def run(k):
            start.wait()
            outs[k] = engine.submit_batch(requests[k])

        threads = [threading.Thread(target=run, args=(k,))
                   for k in range(len(requests))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert sorted(solved.values()) == [1] * len(solved)
        by_key = {}
        for request, pairs in zip(requests, outs):
            for payload, (result, _) in zip(request, pairs):
                key = json.dumps(payload, sort_keys=True)
                assert by_key.setdefault(key, result) is result
        assert len(solved) == len(by_key)
        cache = engine.metrics()["cache"]
        assert cache["hits"] + cache["misses"] == 4 * len(requests)


# ----------------------------------------------------------------------
# one tier: campaign cache and engine share the same root
# ----------------------------------------------------------------------
class TestSharedTier:
    def test_campaign_and_engine_share_one_store_root(self, tmp_path,
                                                      small_chain_problem):
        from repro.campaign.registry import get_scenario
        from repro.campaign.runner import run_campaign

        store = ResultStore(tmp_path / "tier")
        api.Engine(store=store).submit(small_chain_problem)
        cache = ResultCache(store=store)
        instance = get_scenario("e1-fork-closed-form").instance(smoke=True)
        outcome = run_campaign([instance], cache=cache)
        assert outcome.errors == 0
        stats = store.stats()
        assert set(stats["namespaces"]) == {"campaign", "results"}
        assert stats["namespaces"]["campaign"]["entries"] == 1
        assert stats["namespaces"]["results"]["entries"] == 1
        # The campaign adapter reads what it wrote through the same store.
        assert outcome.results[0].key is not None
        assert cache.get(outcome.results[0].key)["scenario"] == \
            "e1-fork-closed-form"

    def test_cache_adapter_keeps_its_public_surface(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        record = {"key": KEY_A, "scenario": "x", "result": [1, 2]}
        path = cache.put(KEY_A, record)
        assert path == cache.path_for(KEY_A)
        assert cache.get(KEY_A) == record
        assert len(cache) == 1
        assert [r["scenario"] for r in cache.records()] == ["x"]
        assert cache.clear() == 1
        assert cache.get(KEY_A) is None


# ----------------------------------------------------------------------
# multi-process contention
# ----------------------------------------------------------------------
_HAMMER = """
import json, sys
from repro.store import ResultStore

root, writer_id, rounds = sys.argv[1], int(sys.argv[2]), int(sys.argv[3])
keys = ["{key_a}", "{key_b}", "{key_c}"]
store = ResultStore(root)
for round_no in range(rounds):
    for key in keys:
        store.put(key, {{"writer": writer_id, "round": round_no,
                         "blob": [writer_id] * 64}})
        value = store.get(key)
        # A concurrent read must never see a torn record: either a full
        # payload from some writer, or (never) garbage -- get() would
        # quarantine garbage, and this asserts it sees whole payloads.
        assert value is None or set(value) == {{"writer", "round", "blob"}}, value
print("clean")
"""


class TestMultiProcessContention:
    def test_concurrent_writers_and_readers_no_torn_records(self, tmp_path):
        root = tmp_path / "contended"
        script = _HAMMER.format(key_a=KEY_A, key_b=KEY_B, key_c=KEY_C)
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parent.parent / "src")
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH", "")) if p)
        procs = [subprocess.Popen(
            [sys.executable, "-c", script, str(root), str(n), "60"],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
            env=env, cwd=os.getcwd()) for n in range(3)]
        for proc in procs:
            out, _ = proc.communicate(timeout=120)
            assert proc.returncode == 0, out
            assert "clean" in out
        store = ResultStore(root)
        # Exactly one surviving record per key, all readable and
        # checksum-clean; no temp files, no quarantined wrecks.
        assert store.count("results") == 3
        for key in (KEY_A, KEY_B, KEY_C):
            value = store.get(key)
            assert value is not None and value["writer"] in (0, 1, 2)
        assert store.verify() == {"checked": 3, "ok": 3, "quarantined": 0}
        assert list(root.rglob("*.tmp-*")) == []
        assert list(root.rglob("*.corrupt")) == []


# ----------------------------------------------------------------------
# the `repro cache` CLI
# ----------------------------------------------------------------------
class TestCacheCli:
    def _main(self, *argv):
        from repro.campaign.cli import main
        return main(list(argv))

    def test_stats(self, tmp_path, capsys):
        store = ResultStore(tmp_path)
        store.put(KEY_A, {"x": 1}, "results")
        store.put(KEY_B, {"y": 2}, "campaign")
        assert self._main("cache", "stats", "--cache-dir", str(tmp_path)) == 0
        out = capsys.readouterr().out
        assert "results" in out and "campaign" in out
        assert "2 records" in out

    def test_stats_json(self, tmp_path, capsys):
        ResultStore(tmp_path).put(KEY_A, {"x": 1})
        assert self._main("cache", "stats", "--json",
                          "--cache-dir", str(tmp_path)) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["entries_total"] == 1

    def test_gc_evicts_to_budget(self, tmp_path, capsys):
        store = ResultStore(tmp_path)
        for i, key in enumerate((KEY_A, KEY_B, KEY_C)):
            path = store.put(key, {"pad": "x" * 128})
            os.utime(path, (1_000_000 + i, 1_000_000 + i))
        assert self._main("cache", "gc", "--max-bytes", "0",
                          "--cache-dir", str(tmp_path)) == 0
        assert "evicted 3" in capsys.readouterr().out
        assert store.count("results") == 0

    def test_gc_parses_size_suffixes(self):
        from repro.campaign.cli import parse_bytes
        assert parse_bytes("100") == 100
        assert parse_bytes("2k") == 2048
        assert parse_bytes("1m") == 1024 ** 2
        assert parse_bytes("1g") == 1024 ** 3
        with pytest.raises(Exception):
            parse_bytes("banana")

    def test_verify_clean_then_tampered(self, tmp_path, capsys):
        store = ResultStore(tmp_path)
        path = store.put(KEY_A, {"x": 1})
        assert self._main("cache", "verify", "--cache-dir", str(tmp_path)) == 0
        assert "1 ok, 0 quarantined" in capsys.readouterr().out
        envelope = json.loads(path.read_text())
        envelope["payload"]["x"] = 999
        path.write_text(json.dumps(envelope), encoding="utf-8")
        assert self._main("cache", "verify", "--cache-dir", str(tmp_path)) == 1
        assert "1 quarantined" in capsys.readouterr().out
        assert path.with_suffix(path.suffix + ".corrupt").exists()
