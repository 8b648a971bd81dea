"""Tests of the weighted task-graph substrate."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.dag.taskgraph import Task, TaskGraph


class TestConstruction:
    def test_basic_construction(self):
        g = TaskGraph({"a": 1.0, "b": 2.0}, [("a", "b")])
        assert g.num_tasks == 2
        assert g.num_edges == 1
        assert g.weight("a") == 1.0
        assert set(g.tasks()) == {"a", "b"}

    def test_rejects_cycles(self):
        with pytest.raises(ValueError, match="cycle"):
            TaskGraph({"a": 1.0, "b": 1.0}, [("a", "b"), ("b", "a")])

    def test_rejects_self_loop(self):
        with pytest.raises(ValueError, match="self-loop"):
            TaskGraph({"a": 1.0}, [("a", "a")])

    def test_rejects_unknown_edge_endpoint(self):
        with pytest.raises(ValueError, match="unknown task"):
            TaskGraph({"a": 1.0}, [("a", "b")])

    def test_rejects_negative_weight(self):
        with pytest.raises(ValueError):
            TaskGraph({"a": -1.0})

    def test_rejects_non_finite_weight(self):
        with pytest.raises(ValueError):
            TaskGraph({"a": float("nan")})

    def test_task_dataclass_validation(self):
        with pytest.raises(ValueError):
            Task("a", -1.0)
        assert Task("a", 2.0).weight == 2.0

    def test_from_networkx_roundtrip(self):
        g = TaskGraph({"a": 1.0, "b": 2.0}, [("a", "b")])
        g2 = TaskGraph.from_networkx(g.graph)
        assert g == g2

    def test_copy_is_independent(self):
        g = TaskGraph({"a": 1.0, "b": 2.0}, [("a", "b")])
        c = g.copy()
        assert c == g
        assert c is not g


class TestAccessors:
    @pytest.fixture
    def diamond(self) -> TaskGraph:
        return TaskGraph(
            {"s": 1.0, "l": 2.0, "r": 3.0, "t": 1.5},
            [("s", "l"), ("s", "r"), ("l", "t"), ("r", "t")],
        )

    def test_sources_and_sinks(self, diamond):
        assert diamond.sources() == ["s"]
        assert diamond.sinks() == ["t"]

    def test_predecessors_successors(self, diamond):
        assert set(diamond.successors("s")) == {"l", "r"}
        assert set(diamond.predecessors("t")) == {"l", "r"}

    def test_total_weight(self, diamond):
        assert diamond.total_weight() == pytest.approx(7.5)

    def test_weight_array_in_topological_order(self, diamond):
        order = diamond.topological_order()
        weights = diamond.weight_array()
        assert list(weights) == [diamond.weight(t) for t in order]

    def test_topological_order_respects_edges(self, diamond):
        order = diamond.topological_order()
        pos = {t: i for i, t in enumerate(order)}
        for u, v in diamond.edges():
            assert pos[u] < pos[v]

    def test_critical_path(self, diamond):
        # s -> r -> t is the heaviest path: 1 + 3 + 1.5.
        assert diamond.critical_path_weight() == pytest.approx(5.5)
        assert diamond.critical_path() == ["s", "r", "t"]

    def test_ancestors_descendants(self, diamond):
        assert diamond.ancestors("t") == {"s", "l", "r"}
        assert diamond.descendants("s") == {"l", "r", "t"}

    def test_len_contains_iter(self, diamond):
        assert len(diamond) == 4
        assert "s" in diamond
        assert "zzz" not in diamond
        assert set(iter(diamond)) == {"s", "l", "r", "t"}


class TestStructuralQueries:
    def test_is_chain(self):
        chain = TaskGraph({"a": 1, "b": 1, "c": 1}, [("a", "b"), ("b", "c")])
        assert chain.is_chain()
        assert chain.chain_order() == ["a", "b", "c"]

    def test_single_task_is_chain_and_fork(self):
        g = TaskGraph({"a": 1.0})
        assert g.is_chain()
        assert g.is_fork() == (True, "a")

    def test_disconnected_is_not_chain(self):
        g = TaskGraph({"a": 1, "b": 1})
        assert not g.is_chain()
        with pytest.raises(ValueError):
            g.chain_order()

    def test_is_fork(self):
        fork = TaskGraph({"s": 1, "a": 1, "b": 1}, [("s", "a"), ("s", "b")])
        ok, source = fork.is_fork()
        assert ok and source == "s"

    def test_fork_with_deep_child_is_not_fork(self):
        g = TaskGraph({"s": 1, "a": 1, "b": 1}, [("s", "a"), ("a", "b")])
        assert g.is_fork() == (False, None)

    def test_is_join(self):
        join = TaskGraph({"a": 1, "b": 1, "t": 1}, [("a", "t"), ("b", "t")])
        ok, sink = join.is_join()
        assert ok and sink == "t"

    def test_reversed(self):
        g = TaskGraph({"a": 1, "b": 2}, [("a", "b")])
        r = g.reversed()
        assert r.edges() == [("b", "a")]
        assert r.weight("b") == 2


class TestMutationByCopy:
    def test_with_weights(self):
        g = TaskGraph({"a": 1.0, "b": 2.0}, [("a", "b")])
        h = g.with_weights({"a": 5.0})
        assert h.weight("a") == 5.0
        assert g.weight("a") == 1.0
        with pytest.raises(KeyError):
            g.with_weights({"zzz": 1.0})

    def test_subgraph(self):
        g = TaskGraph({"a": 1, "b": 2, "c": 3}, [("a", "b"), ("b", "c")])
        sub = g.subgraph(["a", "b"])
        assert set(sub.tasks()) == {"a", "b"}
        assert sub.edges() == [("a", "b")]
        with pytest.raises(KeyError):
            g.subgraph(["a", "zzz"])

    def test_subgraph_keeps_the_parent_node_order(self):
        g = TaskGraph({"c": 3, "a": 1, "b": 2}, [("c", "a"), ("a", "b")])
        assert g.subgraph({"b", "c"}).tasks() == ["c", "b"]
        assert g.subgraph(["b", "a", "c"]).tasks() == ["c", "a", "b"]

    def test_equality_and_hash(self):
        g1 = TaskGraph({"a": 1, "b": 2}, [("a", "b")])
        g2 = TaskGraph({"b": 2, "a": 1}, [("a", "b")])
        g3 = TaskGraph({"a": 1, "b": 2})
        assert g1 == g2
        assert g1 != g3
        assert hash(g1) == hash(g2)


#: Closed-form solves of random series-parallel instances, one ``repr`` line
#: per instance.  The closed form recurses over ``TaskGraph.subgraph``; a
#: subgraph whose node order follows the string hash sums floats in a
#: hash-dependent order, which changes 9 of these 30 rows between
#: ``PYTHONHASHSEED=1`` and ``2``.
_SP_SCRIPT = """
from repro.experiments.instances import bicrit_problem, series_parallel_suite
from repro.solvers import solve

for seed in range(335, 340):
    for spec in series_parallel_suite(sizes=(6, 10), slacks=(1.3, 1.6, 2.5),
                                      seed=seed):
        result = solve(bicrit_problem(spec), solver="bicrit-closed-form")
        speeds = sorted((str(t), list(s)) for t, s in
                        result.schedule.speed_assignment().items())
        print(repr((seed, spec.name, result.metadata.get("closed_form_energy"),
                    result.energy, speeds)))
"""


def test_series_parallel_closed_form_is_hash_seed_independent():
    src = str(Path(__file__).resolve().parent.parent / "src")
    outputs = []
    for hash_seed in ("1", "2"):
        env = {**os.environ, "PYTHONHASHSEED": hash_seed,
               "PYTHONPATH": os.pathsep.join(
                   filter(None, [src, os.environ.get("PYTHONPATH")]))}
        outputs.append(subprocess.run(
            [sys.executable, "-c", _SP_SCRIPT], env=env, check=True,
            capture_output=True, timeout=300).stdout)
    assert outputs[0].count(b"\n") == 30
    assert outputs[0] == outputs[1]
