"""Columnar struct-of-arrays problem batches: the zero-copy interchange tier.

Every earlier layer converted per instance: JSON wire payloads became frozen
request dataclasses, then per-instance :class:`~repro.core.problems.Problem`
objects, and only inside :mod:`repro.solvers.batch` did the data finally
reach NumPy arrays.  For a 10k-instance ``/v1/solve-batch`` the hot path was
therefore dominated by Python object materialisation and per-instance
canonical-JSON hashing, not by solving.

:class:`ProblemBatch` is the struct-of-arrays representation that replaces
that pipeline: one strict parsing pass over the wire payloads fills flat
NumPy columns (deadlines, speed/energy/reliability parameters, structure
flags) plus one ragged task-weight array addressed by offsets.  The batch
kernels read those columns directly; no ``Problem`` object exists for a row
unless something genuinely per-instance is needed.

The parser is *verify-or-fall-back*: a row is marked fast only when every
validation the object pipeline would perform (``problem_from_dict`` plus the
model constructors) has been replicated and passed, and the graph structure
has been positively verified as a chain or a fork in canonical (topological)
payload order.  Any doubt -- unknown speed models, non-canonical task order,
string-typed numbers, duplicate edges -- marks the row ``fallback``; such
rows are materialised through ``problem_from_dict`` and solved by the scalar
dispatcher, so they produce exactly the scalar behaviour (including its
error messages).  ``Problem`` objects are read into the same rows their
canonical payload would parse into (:func:`_problem_row`).

Content hashing is vectorised the same way: rows sharing a payload skeleton
(same ids, structure, mapping, platform shape) share one canonical-JSON
template with float slots; per-row keys are a string join plus SHA-256, not
a ``json.dumps`` per instance.  The first row of every template is verified
byte-for-byte against the real :func:`repro.store.canonical.canonical_blob`,
so a template can never silently diverge from the scalar key path.
"""

from __future__ import annotations

import hashlib
import math
import re
import sys
import threading
from collections.abc import Mapping as TMapping, Sequence
from typing import Any

import numpy as np

from .problems import BiCritProblem, TriCritProblem
from .reliability import DEFAULT_LAMBDA0, DEFAULT_SENSITIVITY
from .speeds import ContinuousSpeeds

__all__ = ["ProblemBatch", "problem_content_key",
           "KIND_BICRIT", "KIND_TRICRIT"]

#: Attribute memoizing the content hash on the (frozen) problem object,
#: mirroring how ``SolverContext.for_problem`` memoizes the context.
_KEY_ATTR = "_api_content_key"


def problem_content_key(problem: BiCritProblem) -> str:
    """Stable content hash of a problem instance (its JSON schema form).

    The hash is memoized on the problem object, so in-process consumers that
    resubmit the same instance (ablation grids, Pareto sweeps) pay the
    serialisation exactly once.  ``repro.api.engine`` re-exports this; it
    lives here so the columnar key templates and the scalar path share one
    definition without a core -> api import.
    """
    key = getattr(problem, _KEY_ATTR, None)
    if key is None:
        from ..store.canonical import canonical_blob
        from .problem_io import problem_to_dict

        key = hashlib.sha256(canonical_blob(problem_to_dict(problem))).hexdigest()
        object.__setattr__(problem, _KEY_ATTR, key)
    return key

KIND_BICRIT = 0
KIND_TRICRIT = 1

#: Canonical-JSON key templates by row skeleton, shared by every batch, so
#: a one-row request reuses the template (and its one-off verification) the
#: second row of its skeleton built.  A skeleton seen once is only noted in
#: ``_seen``: its row is keyed by its plain blob, since most never recur
#: (a request that renames its tasks).  Oldest entries go first past the
#: cap, in each table.
_TEMPLATE_CAP = 4096
_templates: dict[tuple, Any] = {}  # guarded-by: _templates_lock
_seen: dict[tuple, None] = {}  # guarded-by: _templates_lock
_templates_lock = threading.Lock()

#: A float slot of a rendered skeleton: json writes each NUL-delimited
#: slot token as backslash-u escapes, which no (NUL-free) id renders to.
_SLOT = re.compile(r'"\\u0000(\d+)\\u0000"')

_NUMBER = (int, float)
_MAX_FLOAT = sys.float_info.max

#: Float columns of a parsed batch, in constructor order.
_FLOAT_COLUMNS = ("deadline", "total_weight", "fmin", "fmax", "alpha",
                  "static_power", "rel_fmin", "rel_fmax", "rel_lambda0",
                  "rel_sensitivity", "rel_frel")
_INT_COLUMNS = ("kind", "num_tasks", "num_positive", "mapping_processors",
                "platform_processors")
_BOOL_COLUMNS = ("is_chain", "is_fork", "single_processor",
                 "one_task_per_processor", "mapping_in_order", "fallback")


def _is_number(x: Any) -> bool:
    """A real number ``float(x)`` converts without overflow (not a bool)."""
    if type(x) is float:
        return True
    if not isinstance(x, _NUMBER) or isinstance(x, bool):
        return False
    return isinstance(x, float) or abs(x) <= _MAX_FLOAT


def _finite(x: float) -> bool:
    return math.isfinite(x)


#: Chained-comparison bound: ``0.0 <= w < _INF`` is one bytecode test that
#: rejects inf and (via IEEE comparison semantics) NaN without a call.
_INF = math.inf


class _Row:
    """Mutable per-row scratch during parsing (fast rows only)."""

    __slots__ = ("kind", "deadline", "task_ids", "weights", "total",
                 "num_positive", "is_chain", "is_fork", "mapping_lists",
                 "mapping_in_order", "single_processor",
                 "one_task_per_processor", "mapping_processors",
                 "platform_processors", "fmin", "fmax", "alpha",
                 "static_power", "plat_rel", "prob_rel", "eff_rel")


def _parse_rel(data: Any) -> tuple[float, float, float, float, float] | None:
    """Validated ``(fmin, fmax, lambda0, sensitivity, frel)`` with ``frel``
    resolved the way :class:`ReliabilityModel` resolves it; ``None`` signals
    *give up* (caller falls back), not absence."""
    if not isinstance(data, TMapping):
        return None
    fmin = data.get("fmin")
    fmax = data.get("fmax")
    lambda0 = data.get("lambda0")
    sensitivity = data.get("sensitivity")
    if not (_is_number(fmin) and _is_number(fmax) and _is_number(lambda0)
            and _is_number(sensitivity)):
        return None
    fmin, fmax = float(fmin), float(fmax)
    lambda0, sensitivity = float(lambda0), float(sensitivity)
    if not (0.0 < fmin <= fmax and _finite(fmin) and _finite(fmax)):
        return None
    if not (_finite(lambda0) and _finite(sensitivity)
            and lambda0 >= 0.0 and sensitivity >= 0.0):
        return None
    frel = data.get("frel")
    if frel is None:
        frel = fmax
    elif _is_number(frel):
        frel = float(frel)
        if not (fmin <= frel <= fmax):
            return None
    else:
        return None
    return (fmin, fmax, lambda0, sensitivity, frel)


def _parse_row(payload: Any) -> _Row | None:
    """One strict verify-or-fall-back pass over a wire payload.

    Returns ``None`` (fall back to the object pipeline) unless *every*
    validation of ``problem_from_dict`` + the model constructors has been
    replicated and passed *and* the graph is a verified chain or fork whose
    payload task order is topological.
    """
    if not (type(payload) is dict or isinstance(payload, TMapping)):
        return None
    if payload.get("format_version", 1) != 1:
        return None
    kind = payload.get("kind", "bicrit")
    if kind not in ("bicrit", "tricrit"):
        return None
    deadline = payload.get("deadline")
    if type(deadline) is float:
        if not 0.0 < deadline < _INF:
            return None
    elif not (_is_number(deadline) and _finite(float(deadline))
              and float(deadline) > 0.0):
        return None

    graph = payload.get("graph")
    if not (type(graph) is dict or isinstance(graph, TMapping)) \
            or graph.get("format_version", 1) != 1:
        return None
    tasks = graph.get("tasks")
    edges = graph.get("edges")
    if not isinstance(tasks, list) or not isinstance(edges, list) or not tasks:
        return None
    n = len(tasks)
    ids: list[str] = []
    weights: list[float] = []
    total = 0.0
    num_positive = 0
    ids_append = ids.append
    weights_append = weights.append
    for entry in tasks:
        if not (type(entry) is dict or isinstance(entry, TMapping)):
            return None
        tid = entry.get("id")
        w = entry.get("weight")
        if type(tid) is not str:
            return None
        if type(w) is not float:
            if not _is_number(w):
                return None
            w = float(w)
        if not 0.0 <= w < _INF:
            return None
        ids_append(tid)
        weights_append(w)
        total += w
        if w > 0.0:
            num_positive += 1
    index = {tid: k for k, tid in enumerate(ids)}
    id_set = index.keys()
    if len(index) != n:
        return None

    # Structure verification doubles as the acyclicity / topological-order
    # proof: a chain must be exactly the consecutive pairs of the payload
    # order, a fork exactly source->child edges from the first payload
    # task.  ``n-1`` *distinct* edges that are each some consecutive pair
    # (resp. each source->other) necessarily cover all of them, so the
    # per-edge index test is equivalent to the full set comparison without
    # materialising the expected edge sets.
    n_edges = 0
    chain_ok = fork_ok = True
    seen: set[tuple[str, str]] = set()
    index_get = index.get
    for edge in edges:
        if not isinstance(edge, (list, tuple)) or len(edge) != 2:
            return None
        u, v = edge
        if type(u) is not str or type(v) is not str or u == v:
            return None
        ku = index_get(u)
        kv = index_get(v)
        if ku is None or kv is None:
            return None
        pair = (u, v)
        if pair in seen:
            return None
        seen.add(pair)
        n_edges += 1
        if kv != ku + 1:
            chain_ok = False
        if ku != 0:
            fork_ok = False
    if n_edges == 0 and n == 1:
        is_chain = is_fork = True
    elif n_edges != n - 1:
        return None
    else:
        is_chain = chain_ok
        is_fork = fork_ok
        if not (is_chain or is_fork):
            return None

    mapping = payload.get("mapping")
    if not isinstance(mapping, list):
        return None
    flat: list[str] = []
    one_per_proc = True
    for proc_tasks in mapping:
        if not isinstance(proc_tasks, list):
            return None
        if len(proc_tasks) > 1:
            one_per_proc = False
        for t in proc_tasks:
            if type(t) is not str:
                return None
            flat.append(t)
    if len(flat) != n or set(flat) != id_set:
        return None      # duplicates or uncovered tasks: let Mapping complain
    m = len(mapping)
    single_proc = m == 1 or all(len(proc_tasks) == 0 for proc_tasks in mapping[1:])
    mapping_in_order = flat == ids

    platform = payload.get("platform")
    if not (type(platform) is dict or isinstance(platform, TMapping)):
        return None
    procs = platform.get("num_processors")
    if type(procs) is not int or procs < 1 or m > procs:
        return None
    speed = platform.get("speed_model")
    if not (type(speed) is dict or isinstance(speed, TMapping)) \
            or speed.get("kind") != "continuous":
        return None
    fmin, fmax = speed.get("fmin"), speed.get("fmax")
    if type(fmin) is not float or type(fmax) is not float:
        if not (_is_number(fmin) and _is_number(fmax)):
            return None
        fmin, fmax = float(fmin), float(fmax)
    if not 0.0 < fmin <= fmax < _INF:
        return None
    energy = platform.get("energy_model")
    if not (type(energy) is dict or isinstance(energy, TMapping)):
        return None
    alpha, static = energy.get("exponent"), energy.get("static_power")
    if type(alpha) is not float or type(static) is not float:
        if not (_is_number(alpha) and _is_number(static)):
            return None
        alpha, static = float(alpha), float(static)
    if not (1.0 < alpha < _INF and 0.0 <= static < _INF):
        return None
    plat_rel_data = platform.get("reliability_model")
    if plat_rel_data is None:
        plat_rel = None
    else:
        plat_rel = _parse_rel(plat_rel_data)
        if plat_rel is None:
            return None
    prob_rel = None
    if kind == "tricrit":
        prob_rel_data = payload.get("reliability_model")
        if prob_rel_data is not None:
            prob_rel = _parse_rel(prob_rel_data)
            if prob_rel is None:
                return None

    row = _Row()
    row.kind = KIND_TRICRIT if kind == "tricrit" else KIND_BICRIT
    row.deadline = float(deadline)
    row.task_ids = ids
    row.weights = weights
    row.total = total
    row.num_positive = num_positive
    row.is_chain = is_chain
    row.is_fork = is_fork
    row.mapping_lists = mapping
    row.mapping_in_order = mapping_in_order
    row.single_processor = single_proc
    row.one_task_per_processor = one_per_proc
    row.mapping_processors = m
    row.platform_processors = procs
    row.fmin = fmin
    row.fmax = fmax
    row.alpha = alpha
    row.static_power = static
    row.plat_rel = plat_rel
    row.prob_rel = prob_rel
    # Effective reliability model, resolved the way Problem.reliability()
    # resolves it: instance model, else platform model, else the default
    # built from the platform speed bounds.
    row.eff_rel = (prob_rel or plat_rel
                   or (fmin, fmax, DEFAULT_LAMBDA0, DEFAULT_SENSITIVITY, fmax))
    return row


def _problem_rel(model: Any) -> tuple[float, float, float, float, float] | None:
    """:func:`_parse_rel` of a ``ReliabilityModel`` whose numbers are all
    floats already (``None`` otherwise: give up)."""
    values = (model.fmin, model.fmax, model.lambda0, model.sensitivity,
              model.frel)
    if any(type(v) is not float for v in values):
        return None
    return _parse_rel(dict(zip(("fmin", "fmax", "lambda0", "sensitivity",
                                "frel"), values)))


def _problem_row(problem: BiCritProblem) -> _Row | None:
    """The :func:`_parse_row` row of ``problem_to_dict(problem)``, read off
    the objects without building the payload.

    ``None`` (fall back) unless the graph is a chain or a fork with string
    task ids and every platform number is a ``float`` already: then the
    row's template key equals :func:`problem_content_key` of the object,
    and the kernels' task names are the object's own ids.
    """
    platform = problem.platform
    speed = platform.speed_model
    energy = platform.energy_model
    procs = platform.num_processors
    if type(speed) is not ContinuousSpeeds or type(procs) is not int:
        return None
    fmin, fmax = speed.fmin, speed.fmax
    alpha, static = energy.exponent, energy.static_power
    if not (type(fmin) is float and type(fmax) is float
            and type(alpha) is float and type(static) is float
            and 0.0 < fmin <= fmax < _INF and 1.0 < alpha < _INF
            and 0.0 <= static < _INF):
        return None
    deadline = float(problem.deadline)
    if not 0.0 < deadline < _INF:
        return None
    plat_rel = prob_rel = None
    if platform.reliability_model is not None:
        plat_rel = _problem_rel(platform.reliability_model)
        if plat_rel is None:
            return None
    tricrit = isinstance(problem, TriCritProblem)
    if tricrit and problem.reliability_model is not None:
        prob_rel = _problem_rel(problem.reliability_model)
        if prob_rel is None:
            return None

    # Structure and the canonical payload's task order (the lexicographic
    # topological order): a fork's source then its children sorted by id,
    # or the chain walked from its source.  ``TaskGraph``'s own adjacency
    # dicts, as its structure probes read them.
    graph = problem.graph
    pred, succ = graph._pred, graph._succ
    n = len(pred)
    sources = [t for t, p in pred.items() if not p]
    if len(sources) != 1:
        return None
    source = sources[0]
    children = succ[source]
    is_fork = len(children) == n - 1
    for t in children:
        if type(t) is not str or len(pred[t]) != 1 or succ[t]:
            is_fork = False
            break
    if is_fork:
        ids = [source, *sorted(children)]
        is_chain = n <= 2
    else:
        # A single-successor walk from the only source that reaches all n
        # tasks has used all n - 1 edges, so every task has one predecessor.
        ids = [source]
        nxt = children
        while nxt:
            if len(nxt) != 1:
                return None
            (t,) = nxt
            ids.append(t)
            nxt = succ[t]
        if len(ids) != n:
            return None
        is_chain = True
    weight_of = graph._weight
    weights = []
    total = 0.0
    num_positive = 0
    for t in ids:       # the parser's left fold, not sum()'s
        if type(t) is not str:
            return None
        w = weight_of[t]             # a float: TaskGraph stores float(w)
        weights.append(w)
        total += w
        if w > 0.0:
            num_positive += 1

    mapping = problem.mapping.as_lists()
    flat = [t for proc_tasks in mapping for t in proc_tasks]
    row = _Row()
    row.kind = KIND_TRICRIT if tricrit else KIND_BICRIT
    row.deadline = deadline
    row.task_ids = ids
    row.weights = weights
    row.total = total
    row.num_positive = num_positive
    row.is_chain = is_chain
    row.is_fork = is_fork
    row.mapping_lists = mapping
    row.mapping_in_order = flat == ids
    row.single_processor = not any(mapping[1:])
    row.one_task_per_processor = max(map(len, mapping)) <= 1
    row.mapping_processors = len(mapping)
    row.platform_processors = procs
    row.fmin = fmin
    row.fmax = fmax
    row.alpha = alpha
    row.static_power = static
    row.plat_rel = plat_rel
    row.prob_rel = prob_rel
    row.eff_rel = (prob_rel or plat_rel
                   or (fmin, fmax, DEFAULT_LAMBDA0, DEFAULT_SENSITIVITY, fmax))
    return row


class ProblemBatch:
    """A batch of problem instances as parallel columns plus ragged weights.

    Construct with :meth:`from_wire` (payload dicts, never raises -- invalid
    rows are marked ``fallback``), :meth:`from_problems` (existing Problem
    objects, read into the columns their canonical payload would give) or
    :meth:`from_any` (mixed).  Fast rows carry everything the batch kernels
    and the key hasher need in columns; fallback rows retain only the
    payload (a wire dict or a ``Problem``) and are materialised on demand
    via :meth:`problem`.
    """

    def __init__(self, payloads: list[Any], rows: list[_Row | None],
                 problems: list[BiCritProblem | None] | None = None) -> None:
        size = len(payloads)
        self.payloads = payloads
        self._problems: list[BiCritProblem | None] = (
            list(problems) if problems is not None else [None] * size)
        self.task_ids: list[list[str] | None] = [None] * size
        cols: dict[str, np.ndarray] = {}
        for name in _FLOAT_COLUMNS:
            cols[name] = np.zeros(size, dtype=float)
        for name in _INT_COLUMNS:
            cols[name] = np.zeros(size, dtype=np.int64)
        for name in _BOOL_COLUMNS:
            cols[name] = np.zeros(size, dtype=bool)
        offsets = np.zeros(size + 1, dtype=np.int64)
        flat_weights: list[float] = []
        for i, row in enumerate(rows):
            if row is None:
                cols["fallback"][i] = True
                offsets[i + 1] = offsets[i]
                continue
            self.task_ids[i] = row.task_ids
            cols["kind"][i] = row.kind
            cols["deadline"][i] = row.deadline
            cols["total_weight"][i] = row.total
            cols["fmin"][i] = row.fmin
            cols["fmax"][i] = row.fmax
            cols["alpha"][i] = row.alpha
            cols["static_power"][i] = row.static_power
            (cols["rel_fmin"][i], cols["rel_fmax"][i], cols["rel_lambda0"][i],
             cols["rel_sensitivity"][i], cols["rel_frel"][i]) = row.eff_rel
            cols["num_tasks"][i] = len(row.task_ids)
            cols["num_positive"][i] = row.num_positive
            cols["mapping_processors"][i] = row.mapping_processors
            cols["platform_processors"][i] = row.platform_processors
            cols["is_chain"][i] = row.is_chain
            cols["is_fork"][i] = row.is_fork
            cols["single_processor"][i] = row.single_processor
            cols["one_task_per_processor"][i] = row.one_task_per_processor
            cols["mapping_in_order"][i] = row.mapping_in_order
            flat_weights.extend(row.weights)
            offsets[i + 1] = len(flat_weights)
        self.columns = cols
        self.offsets = offsets
        self.weights = np.array(flat_weights, dtype=float)
        self._rows = rows               # kept for template construction

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_wire(cls, payloads: Sequence[Any]) -> ProblemBatch:
        """Parse wire payload dicts into columns; never raises -- rows the
        strict parser cannot certify are marked ``fallback``."""
        payloads = list(payloads)
        return cls(payloads, [_parse_row(p) for p in payloads])

    @classmethod
    def from_problems(cls, problems: Sequence[BiCritProblem]) -> ProblemBatch:
        """Columns from existing ``Problem`` objects (see :meth:`from_any`)."""
        return cls.from_any(list(problems))

    @classmethod
    def from_any(cls, items: Sequence[Any]) -> ProblemBatch:
        """Mixed payload-dicts / Problem-objects sequence (or an existing
        batch, returned as-is).

        A ``Problem`` row is read off the objects (:func:`_problem_row`)
        into the same columns and content key its canonical payload would
        give; its ``payloads`` entry is the object itself, which
        :meth:`problem` returns.
        """
        if isinstance(items, ProblemBatch):
            return items
        payloads = list(items)
        rows: list[_Row | None] = []
        problems: list[BiCritProblem | None] = []
        for item in payloads:
            if isinstance(item, BiCritProblem):
                rows.append(_problem_row(item))
                problems.append(item)
            else:
                rows.append(_parse_row(item))
                problems.append(None)
        return cls(payloads, rows, problems=problems)

    # ------------------------------------------------------------------
    # row access
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.payloads)

    @property
    def fallback(self) -> np.ndarray:
        return self.columns["fallback"]

    def fallback_indices(self) -> list[int]:
        return [int(i) for i in np.flatnonzero(self.columns["fallback"])]

    def row_weights(self, i: int) -> np.ndarray:
        return self.weights[self.offsets[i]:self.offsets[i + 1]]

    def problem(self, i: int) -> BiCritProblem:
        """Materialise (and memoise) the ``Problem`` object for one row.

        The zero-copy hot path never calls this for fast rows; it exists for
        fallback rows and compatibility consumers.
        """
        problem = self._problems[i]
        if problem is None:
            from .problem_io import problem_from_dict

            problem = problem_from_dict(dict(self.payloads[i]))
            self._problems[i] = problem
        return problem

    def row_source(self, i: int) -> Any:
        """Row ``i``'s ``Problem`` when one is at hand (an object row, or a
        materialised one), else its wire payload; never parses."""
        problem = self._problems[i]
        return self.payloads[i] if problem is None else problem

    def task_names(self, i: int) -> list[str]:
        """Row ``i``'s task names, ``str(task)`` of each task: the parsed
        ids of a fast row, the materialised graph's tasks otherwise."""
        ids = self.task_ids[i]
        if ids is not None:
            return ids
        return [str(t) for t in self.problem(i).graph.tasks()]

    def take(self, indices: Sequence[int]) -> ProblemBatch:
        """Sub-batch of the given rows (used to peel cache hits by mask)."""
        indices = [int(i) for i in indices]
        sub = ProblemBatch.__new__(ProblemBatch)
        sub.payloads = [self.payloads[i] for i in indices]
        sub._problems = [self._problems[i] for i in indices]
        sub.task_ids = [self.task_ids[i] for i in indices]
        sub.columns = {name: col[indices] if indices else col[:0]
                       for name, col in self.columns.items()}
        counts = self.offsets[1:] - self.offsets[:-1]
        sub_counts = counts[indices] if indices else counts[:0]
        offsets = np.zeros(len(indices) + 1, dtype=np.int64)
        np.cumsum(sub_counts, out=offsets[1:])
        sub.offsets = offsets
        sub.weights = (np.concatenate(
            [self.row_weights(i) for i in indices])
            if indices else self.weights[:0])
        sub._rows = [self._rows[i] for i in indices]
        return sub

    # ------------------------------------------------------------------
    # vectorised content keys
    # ------------------------------------------------------------------
    def _canonical_order(self, row: _Row) -> tuple[list[int], list[tuple[str, str]]]:
        """Task permutation (payload -> canonical topological order) and the
        canonical sorted edge list, as ``problem_to_dict`` would write them."""
        ids = row.task_ids
        n = len(ids)
        if n == 1:
            return [0], []
        if row.is_chain:
            perm = list(range(n))
            edges = sorted((ids[k], ids[k + 1]) for k in range(n - 1))
        else:
            # Lexicographic topological order of a fork: source first, then
            # the children sorted by id.
            order = [ids[0]] + sorted(ids[1:])
            pos = {t: k for k, t in enumerate(ids)}
            perm = [pos[t] for t in order]
            edges = sorted((ids[0], c) for c in ids[1:])
        return perm, edges

    def _template_for(self, row: _Row) -> tuple[Any, bytes | None]:
        """The (memoised) canonical-JSON template for a row's skeleton, or
        ``False`` when no trustworthy template exists for it or the
        skeleton is seen for the first time; with the row's canonical blob
        when this call built the template (its verification rendered it),
        else ``None``."""
        if len(row.mapping_lists) == 1 and row.mapping_in_order:
            # mapping == [task_ids]: fully determined by the ids tuple, so
            # skip the nested-tuple build on the (hot) standard layout.
            mapping_sig: Any = 0
        else:
            mapping_sig = tuple(tuple(p) for p in row.mapping_lists)
        signature = (row.kind, tuple(row.task_ids), row.is_chain, row.is_fork,
                     mapping_sig,
                     row.platform_processors, row.plat_rel is None,
                     row.prob_rel is None)
        with _templates_lock:
            template = _templates.get(signature)
            first = template is None and signature not in _seen
            if first:
                _seen[signature] = None
                if len(_seen) > _TEMPLATE_CAP:
                    del _seen[next(iter(_seen))]
            elif template is None:
                del _seen[signature]
        if template is not None:
            return template, None
        if first:
            return False, None
        template, blob = self._build_template(row)
        with _templates_lock:
            _templates[signature] = template
            if len(_templates) > _TEMPLATE_CAP:
                del _templates[next(iter(_templates))]
        return template, blob

    def _build_template(self, row: _Row) -> tuple[Any, bytes | None]:
        """``(template, blob)``: the skeleton's template (``False`` when
        untrustworthy) and the row's canonical blob, when computed."""
        from ..store.canonical import canonical_blob  # deferred: no core -> store cycle

        if any("\x00" in t for t in row.task_ids):
            return False, None
        perm, edges = self._canonical_order(row)
        kind = "tricrit" if row.kind == KIND_TRICRIT else "bicrit"

        slots: list[str] = []

        def slot() -> str:
            token = f"\x00{len(slots)}\x00"
            slots.append(token)
            return token

        rel_skeleton = (lambda present: (
            {"fmin": slot(), "fmax": slot(), "lambda0": slot(),
             "sensitivity": slot(), "frel": slot()} if present else None))
        skeleton = {
            "format_version": 1,
            "kind": kind,
            "deadline": slot(),
            "graph": {
                "format_version": 1,
                "tasks": [{"id": row.task_ids[k], "weight": slot()}
                          for k in perm],
                "edges": [[u, v] for u, v in edges],
            },
            "mapping": [list(p) for p in row.mapping_lists],
            "platform": {
                "num_processors": row.platform_processors,
                "speed_model": {"kind": "continuous",
                                "fmin": slot(), "fmax": slot()},
                "energy_model": {"exponent": slot(), "static_power": slot()},
                "reliability_model": rel_skeleton(row.plat_rel is not None),
            },
        }
        if row.kind == KIND_TRICRIT:
            skeleton["reliability_model"] = rel_skeleton(row.prob_rel is not None)
        skeleton_blob = canonical_blob(skeleton).decode("utf-8")
        # One pass over the slots, in blob order; each must occur once.
        parts: list[str] = []
        order: list[int] = []
        prev = 0
        for match in _SLOT.finditer(skeleton_blob):
            parts.append(skeleton_blob[prev:match.start()])
            order.append(int(match.group(1)))
            prev = match.end()
        parts.append(skeleton_blob[prev:])
        if sorted(order) != list(range(len(slots))):
            return False, None
        template = (parts, order, perm, perm == list(range(len(perm))))

        # Verify the template byte-for-byte against the real canonical blob
        # of this row before trusting it for the whole signature class.
        blob = canonical_blob(self._canonical_payload(row))
        fast = self._render(template, self._slot_values(row, perm))
        return (template if fast.encode("utf-8") == blob else False), blob

    @staticmethod
    def _slot_values(row: _Row, perm: list[int],
                     identity: bool = False) -> list[float]:
        values = [row.deadline]
        if identity:
            values += row.weights
        else:
            values.extend(row.weights[k] for k in perm)
        values.extend((row.fmin, row.fmax, row.alpha, row.static_power))
        if row.plat_rel is not None:
            values.extend(row.plat_rel)
        if row.kind == KIND_TRICRIT and row.prob_rel is not None:
            values.extend(row.prob_rel)
        return values

    @staticmethod
    def _render(template: Any, values: list[float]) -> str:
        parts, order = template[0], template[1]
        # Slot values are parse-coerced floats already; repr of a Python
        # float is the shortest round-trip form json.dumps would emit.
        out = [parts[0]]
        for k, part in zip(order, parts[1:]):
            out.append(repr(values[k]))
            out.append(part)
        return "".join(out)

    def _canonical_payload(self, row: _Row) -> dict[str, Any]:
        """What ``problem_to_dict(problem_from_dict(payload))`` would emit
        for a verified fast row, built from columns alone."""
        perm, edges = self._canonical_order(row)
        kind = "tricrit" if row.kind == KIND_TRICRIT else "bicrit"
        rel_dict = (lambda rel: None if rel is None else
                    {"fmin": rel[0], "fmax": rel[1], "lambda0": rel[2],
                     "sensitivity": rel[3], "frel": rel[4]})
        payload: dict[str, Any] = {
            "format_version": 1,
            "kind": kind,
            "deadline": row.deadline,
            "graph": {
                "format_version": 1,
                "tasks": [{"id": row.task_ids[k], "weight": row.weights[k]}
                          for k in perm],
                "edges": [[u, v] for u, v in edges],
            },
            "mapping": [list(p) for p in row.mapping_lists],
            "platform": {
                "num_processors": row.platform_processors,
                "speed_model": {"kind": "continuous",
                                "fmin": row.fmin, "fmax": row.fmax},
                "energy_model": {"exponent": row.alpha,
                                 "static_power": row.static_power},
                "reliability_model": rel_dict(row.plat_rel),
            },
        }
        if row.kind == KIND_TRICRIT:
            payload["reliability_model"] = rel_dict(row.prob_rel)
        return payload

    def content_keys(self) -> list[str]:
        """One canonical content hash per row, equal to
        :func:`repro.api.engine.problem_content_key` of the materialised
        problem -- but computed from columns via shared templates for fast
        rows (no ``Problem``, no per-row ``json.dumps``)."""
        from ..store.canonical import canonical_blob

        sha256 = hashlib.sha256
        keys: list[str] = []
        for i, row in enumerate(self._rows):
            if row is None:
                keys.append(problem_content_key(self.problem(i)))
                continue
            template, blob = self._template_for(row)
            if blob is not None:
                # This row built the template: its verification blob is
                # the key's preimage.
                keys.append(sha256(blob).hexdigest())
                continue
            if template is False:
                keys.append(sha256(
                    canonical_blob(self._canonical_payload(row))).hexdigest())
                continue
            values = self._slot_values(row, template[2], template[3])
            keys.append(sha256(
                self._render(template, values).encode("utf-8")).hexdigest())
        return keys
