"""Tests of the weighted task-graph substrate."""

from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


# ----------------------------------------------------------------------
# parity with networkx, the library TaskGraph replaced, as the oracle
# ----------------------------------------------------------------------
#: Task ids: strings, integers, or both mixed (``1`` and ``"1"`` are distinct
#: tasks whose ``str`` keys tie, so the insertion index breaks the tie).
IDS = st.sampled_from([
    st.text("abc", max_size=3),
    st.integers(-3, 30),
    st.one_of(st.integers(0, 12), st.sampled_from(["0", "1", "2", "10", "a"])),
]).flatmap(lambda ids: st.lists(ids, max_size=12, unique=True))


@st.composite
def dags(draw):
    """Weights in a drawn task order; edges along a drawn hidden order,
    shuffled, some repeated."""
    ids = draw(IDS)
    rank = {t: i for i, t in enumerate(draw(st.permutations(ids)))}
    pairs = [(u, v) for u in ids for v in ids if rank[u] < rank[v]]
    edges = draw(st.lists(st.sampled_from(pairs), max_size=3 * len(ids))
                 if pairs else st.just([]))
    weights = {t: draw(st.floats(0.0, 10.0)) for t in ids}
    return weights, edges


def networkx_oracle(weights, edges) -> nx.DiGraph:
    graph = nx.DiGraph()
    graph.add_nodes_from((t, {"weight": w}) for t, w in weights.items())
    graph.add_edges_from(edges)
    return graph


class TestNetworkxParity:
    @given(dags())
    @settings(max_examples=200, deadline=None)
    def test_orders_adjacency_and_reachability(self, case):
        weights, edges = case
        g = TaskGraph(weights, edges)
        oracle = networkx_oracle(weights, edges)
        assert g.topological_order() == list(
            nx.lexicographical_topological_sort(oracle, key=str))
        assert g.tasks() == list(oracle.nodes)
        assert g.edges() == list(oracle.edges)
        assert g.num_edges == oracle.number_of_edges()
        assert g.sources() == [t for t, d in oracle.in_degree if d == 0]
        assert g.sinks() == [t for t, d in oracle.out_degree if d == 0]
        for t in weights:
            assert g.predecessors(t) == list(oracle.predecessors(t))
            assert g.successors(t) == list(oracle.successors(t))
            assert g.ancestors(t) == nx.ancestors(oracle, t)
            assert g.descendants(t) == nx.descendants(oracle, t)

    @given(dags())
    @settings(max_examples=200, deadline=None)
    def test_components(self, case):
        g = TaskGraph(*case)
        found = g.components()
        want = list(nx.weakly_connected_components(networkx_oracle(*case)))
        assert len(found) == len(want)
        assert set(map(frozenset, found)) == set(map(frozenset, want))
        # In the order of their first task, each led by that task.
        index = {t: i for i, t in enumerate(g.tasks())}
        starts = [min(index[t] for t in c) for c in found]
        assert starts == sorted(starts)
        assert [index[c[0]] for c in found] == starts

    @given(dags())
    @settings(max_examples=100, deadline=None)
    def test_networkx_bridge_round_trips(self, case):
        g = TaskGraph(*case)
        assert TaskGraph.from_networkx(g.graph) == g
        assert list(g.graph.nodes(data="weight")) == list(g.weights().items())

    @given(dags(), st.data())
    @settings(max_examples=200, deadline=None)
    def test_cycle_rejection_names_a_cycle(self, case, data):
        weights, edges = case
        if not edges:
            return
        u, v = data.draw(st.sampled_from(edges))
        cyclic = [*edges, (v, u)]
        assert not nx.is_directed_acyclic_graph(networkx_oracle(weights, cyclic))
        with pytest.raises(ValueError, match="contains a cycle") as info:
            TaskGraph(weights, cyclic)
        cycle = ast.literal_eval(str(info.value).partition(": ")[2])
        assert cycle
        assert all(edge in set(cyclic) for edge in cycle)
        assert all(a[1] == b[0] for a, b in zip(cycle, cycle[1:] + cycle[:1]))
