"""Entry-point parity of the batch pipeline, end to end.

An instance list reaches ``/v1/solve-batch`` as wire payload dicts, as
``Problem`` objects, or as a mix of both; all three become one
:class:`~repro.core.columnar.ProblemBatch` and must produce
**byte-identical** ``SolveBatchResponse`` payloads (modulo the timing
field), each row answering like the scalar ``Engine.solve`` of its payload.
Hypothesis drives random chain / fork / TRI-CRIT chain / series-parallel
mixes through fresh engines; a separate guard proves the all-miss columnar
path allocates zero per-instance ``Problem`` / ``TaskGraph`` objects (the
zero-copy property the tier exists for).
"""

from __future__ import annotations

import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api.engine import Engine
from repro.api.types import SolveBatchRequest, SolveRequest
from repro.core.columnar import ProblemBatch
from repro.core.problem_io import problem_from_dict, problem_to_dict

from tests.test_batch_solvers import (
    chain_problem,
    fork_problem,
    sp_problem,
    tricrit_chain_problem,
    weights_strategy,
)

# ----------------------------------------------------------------------
# instance strategies (canonical wire payloads via problem_to_dict)
# ----------------------------------------------------------------------
slack_strategy = st.floats(min_value=0.3, max_value=4.0)

chain_payloads = st.builds(
    lambda w, s: problem_to_dict(chain_problem(w, s)),
    weights_strategy, slack_strategy)

fork_payloads = st.builds(
    lambda w0, ws, s: problem_to_dict(fork_problem(w0, ws, s)),
    st.floats(min_value=1e-2, max_value=8.0),
    st.lists(st.floats(min_value=1e-2, max_value=8.0),
             min_size=1, max_size=4),
    slack_strategy)

tricrit_payloads = st.builds(
    lambda w, s: problem_to_dict(tricrit_chain_problem(w, s)),
    st.lists(st.one_of(st.just(0.0),
                       st.floats(min_value=1e-2, max_value=8.0)),
             min_size=1, max_size=4),
    st.floats(min_value=1.0, max_value=6.0))

sp_payloads = st.builds(
    lambda n, seed, s: problem_to_dict(sp_problem(n, seed, s)),
    st.integers(min_value=2, max_value=5),
    st.integers(min_value=0, max_value=2**16),
    st.floats(min_value=1.0, max_value=4.0))

batch_payloads = st.lists(
    st.one_of(chain_payloads, fork_payloads, tricrit_payloads, sp_payloads),
    min_size=1, max_size=8)


def _normalised(response):
    """Response dict with the (legitimately differing) timings zeroed."""
    data = response.to_dict()
    for row in data["results"]:
        row["elapsed_ms"] = 0.0
    return json.dumps(data, sort_keys=True)


def _assert_close(batch_value, scalar_value):
    """Equal within 1e-9 relative; ``None`` and infinities exactly."""
    if batch_value is None or scalar_value is None \
            or not math.isfinite(scalar_value):
        assert batch_value == scalar_value
    else:
        assert batch_value == pytest.approx(scalar_value, rel=1e-9)


class TestWireEquivalence:
    @settings(max_examples=40, deadline=None)
    @given(batch_payloads)
    def test_byte_identical_responses(self, payloads):
        # Fresh engines and fresh Problem objects per entry point: solver
        # contexts are memoized on the problem object and the result cache
        # lives in the engine, which is exactly the cross-request state
        # this equivalence must not depend on.
        request = SolveBatchRequest.from_dict({"problems": payloads})
        assert isinstance(request.batch, ProblemBatch)
        wire = Engine(store=None).solve_batch(request)

        objects = Engine(store=None).solve_batch(SolveBatchRequest(
            problems=[problem_from_dict(p) for p in payloads]))
        mixed = Engine(store=None).solve_batch(SolveBatchRequest(
            problems=[problem_from_dict(p) if k % 2 else p
                      for k, p in enumerate(payloads)]))
        assert _normalised(wire) == _normalised(objects) == _normalised(mixed)

        scalar_engine = Engine(store=None)
        for payload, row in zip(payloads, wire.results):
            scalar = scalar_engine.solve(SolveRequest(problem=payload))
            assert (row.status, row.solver, row.dispatch) == \
                (scalar.status, scalar.solver, scalar.dispatch)
            _assert_close(row.energy, scalar.energy)
            _assert_close(row.makespan, scalar.makespan)

    @settings(max_examples=15, deadline=None)
    @given(batch_payloads)
    def test_cache_round_byte_identical(self, payloads):
        engine = Engine(store=None)
        first = engine.solve_batch(
            SolveBatchRequest.from_dict({"problems": payloads}))
        second = engine.solve_batch(
            SolveBatchRequest.from_dict({"problems": payloads}))
        assert second.cached_count == len(payloads)
        # modulo the cached flags, the replay is byte-identical
        a = json.loads(_normalised(first))
        b = json.loads(_normalised(second))
        for row in a["results"] + b["results"]:
            row["cached"] = False
        a["cached_count"] = b["cached_count"] = 0
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


class TestZeroCopy:
    def _count_allocations(self, payloads):
        import repro.core.problems as problems_mod
        from repro.dag import taskgraph as taskgraph_mod

        counts = {"problems": 0, "graphs": 0}
        orig_post = problems_mod.BiCritProblem.__post_init__
        orig_graph = taskgraph_mod.TaskGraph.__init__

        def counting_post(self, *args, **kwargs):
            counts["problems"] += 1
            return orig_post(self, *args, **kwargs)

        def counting_graph(self, *args, **kwargs):
            counts["graphs"] += 1
            return orig_graph(self, *args, **kwargs)

        engine = Engine(store=None)
        request = SolveBatchRequest.from_dict({"problems": payloads})
        problems_mod.BiCritProblem.__post_init__ = counting_post
        taskgraph_mod.TaskGraph.__init__ = counting_graph
        try:
            response = engine.solve_batch(request)
        finally:
            problems_mod.BiCritProblem.__post_init__ = orig_post
            taskgraph_mod.TaskGraph.__init__ = orig_graph
        assert len(response.results) == len(payloads)
        assert response.cached_count == 0
        return counts

    def test_all_miss_path_allocates_no_problem_objects(self):
        payloads = (
            [problem_to_dict(chain_problem([1.0, 2.0, 0.5], 1.2 + i * 0.1))
             for i in range(8)]
            + [problem_to_dict(fork_problem(2.0, [1.0, 0.7], 1.4 + i * 0.1))
               for i in range(4)]
            + [problem_to_dict(tricrit_chain_problem([1.0, 2.0], 2.5 + i))
               for i in range(4)])
        counts = self._count_allocations(payloads)
        assert counts == {"problems": 0, "graphs": 0}, counts

    def test_fallback_rows_allocate_only_themselves(self):
        # One series-parallel row forces exactly one materialization; the
        # surrounding fast rows must stay columnar.
        payloads = (
            [problem_to_dict(chain_problem([1.0, 2.0], 1.2 + i * 0.1))
             for i in range(6)]
            + [problem_to_dict(sp_problem(3, 7, 2.0))])
        counts = self._count_allocations(payloads)
        assert counts["problems"] == 1, counts
