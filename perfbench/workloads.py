"""Inputs and answer checks of the three benchmark workloads.

Every input is a pure function of the workload seed, so one seed always
sends the same bytes.  The program under test only ever sees the generated
request bodies; the checks below recompute each answer independently of the
solvers (BI-CRIT) or compare it with reference energies frozen in
``tricrit_pool.json`` (TRI-CRIT).

Workloads (all closed loop: every client waits for its reply):

* ``batch-chain-store`` -- one client, ``POST /v1/solve-batch`` with
  :data:`BATCH_ROWS` fresh BI-CRIT chain rows per request against the
  default persistent store, so every row misses and is written through;
* ``tricrit-solve`` -- one client, ``POST /v1/solve`` with ``solver=auto``
  over the frozen TRI-CRIT pool, each request a distinct instance;
* ``solve-store-mixed`` -- one client, ``POST /v1/solve`` over a store
  prefilled off the clock with :data:`MIXED_POOL` instances (4x the default
  LRU), 90% pool picks and 10% never-seen instances.

``size(seconds, replay)`` fixes the amount of work of a run from its length,
never from the clock, so two commits always serve the same requests and the
counts behind the per-layer metrics repeat exactly.  A served run is sized
to take about ``seconds`` on a 2-core host; an in-process replay
(``replay=True``) sends half of its requests traced.  Every workload has one
closed-loop client: with two, the server's two handler threads trade the
GIL and the tail latency of a ``solve-store-mixed`` run flips between about
7 and 12-15 ms from run to run, which no bound can hold.
"""

from __future__ import annotations

import itertools
import json
import math
import sys
from pathlib import Path
from collections.abc import Iterator
from typing import Any

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
POOL_PATH = Path(__file__).resolve().parent / "tricrit_pool.json"

#: Fewest requests of a served ``batch-chain-store`` run (the tail needs 11).
BATCH_MIN_REQUESTS = 12

#: Rows per ``/v1/solve-batch`` request of ``batch-chain-store``: two chain
#: sizes x four slacks x 16 weight draws.  Small enough that a 20 s run
#: holds 220 requests, two tail rounds of p90.9.  Large enough that a request
#: (about 0.1 s) spans part of a slow spell of the host rather than falling
#: wholly inside or outside it, which steadies the median: over eight
#: interleaved seeds ``latency_p50_ms`` spread 0.19 at 128 rows, 0.26 at 64
#: and 0.29 at 32.
BATCH_ROWS = 128
BATCH_GRID = {"num_tasks": [4, 8], "slack": [1.2, 1.5, 2.0, 3.0]}

#: Stored BI-CRIT instances behind ``solve-store-mixed``; four times the
#: engine's default 2048-entry LRU, so most pool picks reach the disk tier.
MIXED_POOL = 8192
MIXED_FRESH_SHARE = 0.1

#: Nominal seconds of one ``tricrit-solve`` pass: a 20 s run makes 3
#: passes, so the tail (the 11th largest of 78 samples) falls among the
#: copies of the third and fourth heaviest instances, which cost within 1%
#: of each other, not on a boundary between instances 10-20% apart.
TRICRIT_PASS_S = 7.0

#: Relative tolerance of the recomputed BI-CRIT energy / makespan and of the
#: TRI-CRIT reference energies.
REL_TOL = 1e-6


def require_repro() -> None:
    """Put the checkout's ``src`` on the import path, or exit with code 2
    when the program under test is not there."""
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {SRC}; run from a full "
              "checkout", file=sys.stderr)
        raise SystemExit(2)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def derived_seed(seed: int, *stream: int) -> int:
    """A 32-bit seed for one sub-stream of the workload seed."""
    import numpy as np

    entropy = [seed % (1 << 64), *stream]
    return int(np.random.SeedSequence(entropy).generate_state(1)[0])


def chain_payloads(seed: int, rows: int) -> list[dict[str, Any]]:
    """``rows`` BI-CRIT chain wire payloads drawn from ``seed``."""
    from repro.campaign.sweep import expand_problem_batch

    per_combo = len(BATCH_GRID["num_tasks"]) * len(BATCH_GRID["slack"])
    batch = expand_problem_batch({"kind": "bicrit", "structure": "chain",
                                  "grid": BATCH_GRID,
                                  "seeds": rows // per_combo,
                                  "base_seed": seed})
    return batch.payloads


def renamed(payload: dict[str, Any], prefix: str) -> dict[str, Any]:
    """``payload`` with every task id prefixed: a new content key (so a
    cache miss) for the same mathematics, hence the same optimal energy."""
    graph = payload["graph"]
    return {**payload,
            "graph": {**graph,
                      "tasks": [{**t, "id": prefix + t["id"]}
                                for t in graph["tasks"]],
                      "edges": [[prefix + u, prefix + v]
                                for u, v in graph["edges"]]},
            "mapping": [[prefix + t for t in proc]
                        for proc in payload["mapping"]]}


# ----------------------------------------------------------------------
# answer checks: each returns None when the answer is right, else a reason
# ----------------------------------------------------------------------
def chain_optimum(payload: dict[str, Any]) -> float:
    """Optimal energy of a BI-CRIT chain on one processor without static
    power: every task at the uniform speed ``W / D`` clamped to
    ``[fmin, fmax]``, so ``W * f ** (alpha - 1)``.  Computed here from the
    payload alone, independently of the solvers."""
    platform = payload["platform"]
    if platform["num_processors"] != 1 \
            or platform["energy_model"].get("static_power", 0.0) != 0.0:
        raise ValueError("not a single-processor chain without static power")
    speed_model = platform["speed_model"]
    work = sum(t["weight"] for t in payload["graph"]["tasks"])
    f = min(max(work / payload["deadline"], speed_model["fmin"]),
            speed_model["fmax"])
    return work * f ** (platform["energy_model"]["exponent"] - 1)


def check_bicrit(payload: dict[str, Any], answer: Any) -> str | None:
    """Check one BI-CRIT chain answer against its request payload alone:
    feasible, makespan within the deadline, speeds within the platform
    range, the energy recomputed from the returned speeds, and that energy
    equal to the chain's closed-form optimum."""
    if not isinstance(answer, dict) or answer.get("feasible") is not True:
        return "answer is not feasible"
    speed_model = payload["platform"]["speed_model"]
    alpha = payload["platform"]["energy_model"]["exponent"]
    fmin, fmax = speed_model["fmin"], speed_model["fmax"]
    speeds = answer.get("speeds") or {}
    if len(speeds) != len(payload["graph"]["tasks"]):
        return "speeds do not cover every task"
    energy = makespan = 0.0
    for task in payload["graph"]["tasks"]:
        runs = speeds.get(task["id"])
        if not runs or len(runs) != 1:
            return f"task {task['id']} has speeds {runs!r}"
        f = runs[0]
        if not fmin * (1 - REL_TOL) <= f <= fmax * (1 + REL_TOL):
            return f"task {task['id']} speed {f} outside [{fmin}, {fmax}]"
        energy += task["weight"] * f ** (alpha - 1)
        makespan += task["weight"] / f
    if makespan > payload["deadline"] * (1 + REL_TOL):
        return f"makespan {makespan} exceeds deadline {payload['deadline']}"
    if not math.isclose(energy, answer.get("energy", math.nan),
                        rel_tol=REL_TOL):
        return f"energy {answer.get('energy')} but speeds give {energy}"
    optimum = chain_optimum(payload)
    if not math.isclose(energy, optimum, rel_tol=REL_TOL):
        return f"energy {energy}, chain optimum {optimum}"
    return None


def check_tricrit(entry: dict[str, Any], answer: Any) -> str | None:
    """Compare one TRI-CRIT answer with the frozen reference energy (for
    certified-gap instances: between the frozen lower bound and energy)."""
    if not isinstance(answer, dict) or answer.get("feasible") is not True:
        return "answer is not feasible"
    energy = answer.get("energy", math.nan)
    reference = entry["energy"]
    if "lower_bound" in entry:
        if entry["lower_bound"] * (1 - REL_TOL) <= energy \
                <= reference * (1 + REL_TOL):
            return None
    elif math.isclose(energy, reference, rel_tol=REL_TOL):
        return None
    return f"energy {energy!r}, reference {reference!r}"


def check_batch(payloads: list[dict[str, Any]], response: Any) -> list[str | None]:
    """Per-row verdicts of one ``/v1/solve-batch`` response."""
    results = response.get("results") if isinstance(response, dict) else None
    if not isinstance(results, list) or len(results) != len(payloads) \
            or response.get("count") != len(payloads):
        return ["wrong row count"] * len(payloads)
    return [check_bicrit(p, r) for p, r in zip(payloads, results)]


def check_bicrit_request(req: Request, response: Any) -> list[str]:
    """Reasons of the failed instances of one BI-CRIT request, either a
    single ``/v1/solve`` or a ``/v1/solve-batch``."""
    verdicts = (check_batch(req.ref, response) if req.path.endswith("-batch")
                else [check_bicrit(req.ref, response)])
    return [v for v in verdicts if v is not None]


# ----------------------------------------------------------------------
# workloads
# ----------------------------------------------------------------------
class Request:
    """One generated request: its body, and what its answer is checked
    against (``ref``).  ``instances`` is the number of ops it carries."""

    __slots__ = ("path", "body", "ref", "instances")

    def __init__(self, path: str, body: bytes, ref: Any, instances: int) -> None:
        self.path = path
        self.body = body
        self.ref = ref
        self.instances = instances


class BatchChainStore:
    """Fresh BI-CRIT chain rows, one new base seed per request."""

    name = "batch-chain-store"

    def __init__(self, seed: int) -> None:
        self.seed = seed

    @staticmethod
    def size(seconds: float, replay: bool) -> int:
        return max(4, 2 * int(seconds)) if replay \
            else max(BATCH_MIN_REQUESTS, round(11 * seconds))

    def stream(self, count: int, replay: bool) -> Iterator[Request]:
        return (self.request(j) for j in range(count))

    def request(self, j: int, substream: int = 1) -> Request:
        payloads = chain_payloads(derived_seed(self.seed, substream, j),
                                  BATCH_ROWS)
        body = json.dumps({"problems": payloads}).encode("utf-8")
        return Request("/v1/solve-batch", body, payloads, len(payloads))

    def warmup(self) -> list[Request]:
        # One request more than fills the engine's 2048-entry LRU, so
        # measured requests start from the steady state.
        return [self.request(j, substream=5)
                for j in range(2048 // BATCH_ROWS + 1)]

    def check(self, req: Request, response: Any) -> list[str]:
        return check_bicrit_request(req, response)


class TricritSolve:
    """The frozen TRI-CRIT pool in whole passes, each in a seeded order,
    every instance renamed per send so no request is a cache hit."""

    name = "tricrit-solve"

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.pool = json.loads(POOL_PATH.read_text())["instances"]

    def size(self, seconds: float, replay: bool) -> int:
        """Whole passes: every run solves the same multiset of instances.
        A replay is one pass with every instance sent twice."""
        return 1 if replay else max(1, round(seconds / TRICRIT_PASS_S))

    def stream(self, count: int, replay: bool) -> Iterator[Request]:
        return itertools.chain.from_iterable(
            self.pass_requests(k, copies=2 if replay else 1)
            for k in range(count))

    def pass_requests(self, k: int, copies: int = 1) -> list[Request]:
        """Pass ``k`` over the pool; ``copies`` renamed sends of each
        instance in a row (the traced replay pairs them)."""
        import numpy as np

        rng = np.random.default_rng(derived_seed(self.seed, 2, k))
        order = [self.pool[i] for i in rng.permutation(len(self.pool))]
        out = []
        for i, entry in enumerate(order):
            for c in range(copies):
                problem = renamed(entry["problem"], f"p{k}x{i}c{c}_")
                body = json.dumps({"problem": problem,
                                   "solver": "auto"}).encode("utf-8")
                out.append(Request("/v1/solve", body, entry, 1))
        return out

    def warmup(self) -> list[Request]:
        # The cheapest pool entry under a warm-up prefix: loads the solver
        # modules without touching any measured instance's key.
        entry = min(self.pool, key=lambda e: e["seconds_at_freeze"])
        body = json.dumps({"problem": renamed(entry["problem"], "w_"),
                           "solver": "auto"}).encode("utf-8")
        return [Request("/v1/solve", body, entry, 1)]

    def check(self, req: Request, response: Any) -> list[str]:
        reason = check_tricrit(req.ref, response)
        return [] if reason is None else [reason]


class SolveStoreMixed:
    """Per-request path over a store holding 4x the LRU: 90% uniform pool
    picks (LRU or disk hits), 10% never-seen instances (solve + write)."""

    name = "solve-store-mixed"

    def __init__(self, seed: int) -> None:
        import numpy as np

        self.seed = seed
        self.pool = chain_payloads(derived_seed(seed, 3), MIXED_POOL)
        self.bodies = [json.dumps({"problem": p}).encode("utf-8")
                       for p in self.pool]
        rng = np.random.default_rng(derived_seed(seed, 4))
        self._picks = rng.integers(0, MIXED_POOL, size=1 << 20)
        self._fresh = rng.random(1 << 20) < MIXED_FRESH_SHARE

    @staticmethod
    def size(seconds: float, replay: bool) -> int:
        return max(400, int((200 if replay else 600) * seconds))

    def stream(self, count: int, replay: bool) -> Iterator[Request]:
        return (self.request(j) for j in range(count))

    def prefill(self) -> list[Request]:
        """Solve-batch requests that write the whole pool to the store
        (the engine caps a batch at 4096 rows)."""
        out = []
        for lo in range(0, MIXED_POOL, 4096):
            rows = self.pool[lo:lo + 4096]
            body = json.dumps({"problems": rows}).encode("utf-8")
            out.append(Request("/v1/solve-batch", body, rows, len(rows)))
        return out

    def request(self, j: int) -> Request:
        j %= len(self._picks)
        payload = self.pool[int(self._picks[j])]
        if self._fresh[j]:
            payload = renamed(payload, f"n{j}_")
            body = json.dumps({"problem": payload}).encode("utf-8")
        else:
            body = self.bodies[int(self._picks[j])]
        return Request("/v1/solve", body, payload, 1)

    def warmup(self) -> list[Request]:
        return [Request("/v1/solve", self.bodies[i], self.pool[i], 1)
                for i in range(0, MIXED_POOL, MIXED_POOL // 64)]

    def check(self, req: Request, response: Any) -> list[str]:
        return check_bicrit_request(req, response)


WORKLOADS = {w.name: w for w in (BatchChainStore, TricritSolve, SolveStoreMixed)}
