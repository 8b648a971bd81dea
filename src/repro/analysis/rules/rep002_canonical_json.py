"""REP002 non-canonical-json: ``json.dumps`` outside the canonical module.

Every cache key, store checksum and coalescing key in this repository is a
SHA-256 over the canonical JSON form owned by
:mod:`repro.store.canonical`.  A raw ``json.dumps`` on a keyed path forks
that definition -- different container types, key order or float rendering
silently produce a *different key for the same configuration*, which reads
as a miss (cold-path recompute) at best and as two divergent cached
truths at worst.

The rule flags every ``json.dumps``/``json.dump`` call site outside
``repro.store.canonical`` and forces each one to be classified: keyed
paths route through :func:`repro.store.canonical.canonical_blob`;
genuinely non-keyed output (human-readable files, HTTP response bodies,
transport encodings) carries ``# repro: allow[REP002] -- <reason>``
stating why canonical form is not required there.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from ..engine import FileContext, Finding, Rule

#: The one module allowed to call json.dumps for key/checksum material.
_CANONICAL_MODULE = "repro.store.canonical"


class NonCanonicalJsonRule(Rule):
    rule_id = "REP002"
    name = "non-canonical-json"
    summary = ("json.dumps/json.dump call outside repro.store.canonical; "
               "keyed paths must share one canonical-form definition")
    hint = ("use repro.store.canonical.canonical_blob (keys/checksums) or "
            "suppress with '# repro: allow[REP002] -- <why this output is "
            "not keyed>'")

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        if ctx.module == _CANONICAL_MODULE:
            return
        for node, name in json_calls(ctx.tree, ("dumps", "dump")):
            yield ctx.finding(
                self, node,
                f"raw json.{name} outside repro.store.canonical; a keyed "
                "path here forks the cache-key definition")


def json_calls(tree: ast.AST, names: tuple[str, ...]
               ) -> Iterator[tuple[ast.Call, str]]:
    """``(call, name)`` for every call of ``json.<name>`` in ``tree``,
    including names bound via ``from json import ...`` (under any alias)."""
    json_aliases: set[str] = set()
    direct_names: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "json":
                    json_aliases.add(alias.asname or "json")
        elif isinstance(node, ast.ImportFrom):
            if node.module == "json" and node.level == 0:
                for alias in node.names:
                    if alias.name in names:
                        direct_names[alias.asname or alias.name] = alias.name
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Attribute) and func.attr in names:
            if isinstance(func.value, ast.Name) \
                    and func.value.id in json_aliases:
                yield node, func.attr
        elif isinstance(func, ast.Name) and func.id in direct_names:
            yield node, direct_names[func.id]
