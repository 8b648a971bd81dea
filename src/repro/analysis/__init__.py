"""``repro.analysis``: the repo-specific static-analysis toolkit.

A small AST-based lint engine plus the rule catalogue that encodes the
invariants this repository has historically broken and then fixed by hand
(see DESIGN.md, "Static analysis & typing").  Each rule descends from a
real bug:

* **REP001 nondeterministic-order** -- a ``set`` (hash-ordered) iterated
  into an order-sensitive construct; the ``list(set(edges))`` bug that
  leaked hash-randomised edge orders into convex-solver results.
* **REP002 non-canonical-json** -- ``json.dumps``/``json.dump`` outside
  :mod:`repro.store.canonical`; raw dumps on keyed paths fork the cache-key
  definition the whole store tier depends on.
* **REP003 seed-discipline** -- RNG construction outside
  :mod:`repro.core.rng`; ad-hoc ``default_rng``/``random.*`` calls break
  the deterministic child-seed derivation campaigns rely on.
* **REP004 registry-bypass** -- importing a *registered solver entry
  point* directly instead of going through the registry/dispatch layer,
  which reintroduces the 12-vs-14 ``max_tasks`` admissibility drift.
* **REP005 lock-discipline** -- attributes declared ``# guarded-by:
  <lock>`` read or written outside a ``with <lock>`` block.
* **REP006 float-equality** -- ``==``/``!=`` against float literals, the
  water-filling NaN-via-underflow bug class.
* **REP007 stream-json-dump** -- ``json.dump`` to a file object, which
  runs the pure-Python encoder where ``json.dumps`` runs the C one; the
  store's envelope write paid as much for it as for the file create.

Violations are suppressed inline with ``# repro: allow[RULE-ID] -- reason``
on (any line of) the offending statement.  The engine is dependency-free
and runs as ``python -m repro.analysis`` or ``make analyze``; a tier-1
self-check test keeps ``src/repro`` at zero unsuppressed findings.
"""

from __future__ import annotations

from .engine import (
    AnalysisError,
    FileContext,
    Finding,
    Rule,
    all_rules,
    analyze_paths,
    iter_python_files,
    render_json,
    render_text,
)

__all__ = [
    "AnalysisError",
    "FileContext",
    "Finding",
    "Rule",
    "all_rules",
    "analyze_paths",
    "iter_python_files",
    "render_json",
    "render_text",
]
