"""One answer per instance, whatever the entry point.

``repro.solvers.solve`` is a batch of one, so a row must come back with
the same status, solver, energy, re-execution set and speeds, bit for bit,
from:

* ``solve``;
* ``solve_batch`` on an instance list;
* ``solve_batch`` on a ``ProblemBatch`` parsed from the wire payloads;
* ``Engine.submit``;
* ``Service.handle("POST", "/v1/solve")``;
* a store hit: a restarted engine over the store the first one wrote.

The instances cover the kernel routes (BI-CRIT chains and forks, TRI-CRIT
chains) with zero-weight tasks, and single-processor mappings that do not
follow the graph's task order, which take the per-row route.  Each entry
point gets fresh problem objects, so no memoized context is shared.  A
store hit answers from its record: it builds no ``Problem`` and no
``Schedule`` until its ``schedule`` is read.
"""

from __future__ import annotations

import json
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import Engine, Service
from repro.core.columnar import ProblemBatch
from repro.core.problem_io import problem_from_dict, problem_to_dict
from repro.core.problems import BiCritProblem, TriCritProblem
from repro.core.reliability import ReliabilityModel
from repro.core.speeds import ContinuousSpeeds
from repro.dag import generators
from repro.platform.mapping import Mapping
from repro.platform.platform import Platform
from repro.solvers import solve, solve_batch
from repro.store import ResultStore

from tests.test_batch_solvers import (
    chain_problem,
    fork_problem,
    tricrit_chain_problem,
)

weight = st.one_of(st.just(0.0), st.floats(min_value=1e-2, max_value=8.0))
weights = st.lists(weight, min_size=1, max_size=6)
slack = st.floats(min_value=1.0, max_value=4.0)


def fork_on_one_processor(source, children, slack, *, tricrit, lambda0=1e-4):
    """A fork serialised on one processor, children in reverse id order
    (the graph's own order is sorted)."""
    graph = generators.fork(source, children)
    order = graph.topological_order()
    mapping = Mapping.single_processor(graph, [order[0], *reversed(order[1:])])
    deadline = max(slack * graph.total_weight(), 1e-6)
    if not tricrit:
        return BiCritProblem(mapping, Platform(1, ContinuousSpeeds(0.1, 1.0)),
                             deadline)
    reliability = ReliabilityModel(fmin=0.1, fmax=1.0, lambda0=lambda0,
                                   sensitivity=3.0)
    return TriCritProblem(mapping, Platform(1, ContinuousSpeeds(0.1, 1.0),
                                            reliability_model=reliability),
                          deadline)


payloads = st.one_of(
    st.builds(lambda w, s: problem_to_dict(chain_problem(w, s)), weights, slack),
    st.builds(lambda w0, kids, s: problem_to_dict(fork_problem(w0, kids, s)),
              weight, st.lists(weight, min_size=1, max_size=5), slack),
    st.builds(lambda w, s, lam, frel: problem_to_dict(
        tricrit_chain_problem(w, s, lam, frel)),
        weights, slack, st.sampled_from([1e-5, 1e-4, 1e-3]),
        st.sampled_from([None, 0.8, 0.6])),
    st.builds(lambda w0, kids, s, tri: problem_to_dict(
        fork_on_one_processor(w0, kids, s, tricrit=tri)),
        st.floats(min_value=0.1, max_value=5.0),
        st.lists(weight, min_size=2, max_size=5), slack, st.booleans()),
)


def answer(result):
    """The fields every entry point must agree on, from a ``SolveResult``."""
    view = getattr(result, "wire_view", None)
    if view is not None:
        speeds = view["speeds"]
    elif result.schedule is None:
        speeds = {}
    else:
        speeds = {str(t): [float(x) for x in s]
                  for t, s in result.schedule.speed_assignment().items()}
    reexecuted = result.metadata.get("reexecuted", [])
    return (result.status, result.solver, result.energy, len(reexecuted),
            speeds), reexecuted


@settings(max_examples=60, deadline=None)
@given(payloads)
def test_every_entry_point_returns_the_same_answer(payload):
    results = [
        solve(problem_from_dict(payload)),
        solve_batch([problem_from_dict(payload)])[0],
        solve_batch(ProblemBatch.from_wire([payload]))[0],
        Engine(store=None).submit(problem_from_dict(payload))[0],
    ]
    answers = [answer(r) for r in results]
    assert all(a == answers[0] for a in answers[1:])

    status, wire = Service(Engine(store=None)).handle(
        "POST", "/v1/solve", json.dumps({"problem": payload}))
    assert status == 200
    assert (wire["status"], wire["solver"], wire["energy"],
            wire["num_reexecuted"], wire["speeds"]) == answers[0][0]


def wire_fields(response):
    """A ``/v1/solve`` body without its timing and cache flag, as sorted
    JSON text: equal text means equal values, bit for bit."""
    fields = {k: v for k, v in response.items()
              if k not in ("cached", "elapsed_ms")}
    return json.dumps(fields, sort_keys=True)


@settings(max_examples=40, deadline=None)
@given(payloads)
def test_a_restarted_store_hit_answers_like_the_fresh_solve(payload):
    body = json.dumps({"problem": payload})
    with tempfile.TemporaryDirectory() as root:
        status, fresh = Service(Engine(store=ResultStore(root))).handle(
            "POST", "/v1/solve", body)
        assert status == 200 and fresh["cached"] is False
        status, hit = Service(Engine(store=ResultStore(root))).handle(
            "POST", "/v1/solve", body)
        assert status == 200 and hit["cached"] is True
        assert wire_fields(hit) == wire_fields(fresh)

        stored, cached = Engine(store=ResultStore(root)).submit(
            problem_from_dict(payload))
        assert cached
    reference = solve(problem_from_dict(payload))
    assert (stored.status, stored.solver, stored.energy) == (
        reference.status, reference.solver, reference.energy)
    if reference.schedule is None:
        assert stored.schedule is None
    else:
        assert stored.schedule.decisions == reference.schedule.decisions


def test_a_stored_pick_builds_nothing_until_its_schedule_is_read(
        tmp_path, monkeypatch):
    import repro.core.problem_io as problem_io
    from repro.core.schedule import Schedule

    payload = problem_to_dict(tricrit_chain_problem([1.0, 0.0, 2.0], 4.0))
    Engine(store=ResultStore(tmp_path)).submit(payload)
    calls = {"problem_from_dict": 0, "Schedule": 0}
    parse, init = problem_io.problem_from_dict, Schedule.__init__

    def counting_parse(*args, **kwargs):
        calls["problem_from_dict"] += 1
        return parse(*args, **kwargs)

    def counting_init(self, *args, **kwargs):
        calls["Schedule"] += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(problem_io, "problem_from_dict", counting_parse)
    monkeypatch.setattr(Schedule, "__init__", counting_init)
    engine = Engine(store=ResultStore(tmp_path))
    result, cached = engine.submit(payload)
    status, wire = Service(engine).handle(
        "POST", "/v1/solve", json.dumps({"problem": payload}))
    assert cached and status == 200 and wire["cached"]
    assert wire["num_reexecuted"] == 2
    assert calls == {"problem_from_dict": 0, "Schedule": 0}

    schedule = result.schedule
    assert calls == {"problem_from_dict": 1, "Schedule": 1}
    assert schedule.num_reexecuted() == 2
