"""REP005 lock-discipline: ``# guarded-by`` attributes touched lock-free.

The serving tier is thread-per-connection: six modules (engine, server,
result store, coalescer, gcscope, the api front door) share mutable state
across handler threads behind ``threading`` locks.  The convention -- and
what this rule machine-checks -- is that every such attribute *declares*
its lock where it is initialised::

    self._results = _LRU(cache_size)  # guarded-by: _lock

and is then only read or written inside ``with self._lock:`` (or
``with _lock:`` for module-level globals declared the same way).  A helper
that is only ever called with the lock already held declares that contract
on its ``def`` line with ``# requires: _lock``.

Scope rules keep the check honest rather than merely lexical: the lock
must be held in the *same* function -- a nested ``def`` (thread target,
callback) does not inherit the enclosing ``with``, because it runs later,
after the lock is released.  ``__init__`` is exempt for instance
attributes (the object is not shared yet).
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from ..engine import FileContext, Finding, Rule

_FunctionNode = ast.FunctionDef | ast.AsyncFunctionDef


def _lock_token(expr: ast.AST) -> str | None:
    """``self._lock`` -> 'self._lock'; bare ``_lock`` -> '_lock'."""
    if isinstance(expr, ast.Name):
        return expr.id
    if isinstance(expr, ast.Attribute) and isinstance(expr.value, ast.Name) \
            and expr.value.id == "self":
        return f"self.{expr.attr}"
    return None


def _requires_locks(ctx: FileContext, func: _FunctionNode) -> set[str]:
    """Locks a ``# requires: <lock>`` marker grants for this function."""
    first = func.lineno
    last = func.body[0].lineno if func.body else func.lineno
    granted: set[str] = set()
    for lineno in range(first, last + 1):
        lock = ctx.requires_lines.get(lineno)
        if lock:
            granted.update((lock, f"self.{lock}"))
    return granted


class _FunctionChecker(ast.NodeVisitor):
    """Walk one function body tracking which locks are lexically held."""

    def __init__(self, rule: Rule, ctx: FileContext,
                 instance_guards: dict[str, str],
                 global_guards: dict[str, str],
                 held: set[str], check_instance: bool) -> None:
        self.rule = rule
        self.ctx = ctx
        self.instance_guards = instance_guards
        self.global_guards = global_guards
        self.held = held
        self.check_instance = check_instance
        self.findings: list[Finding] = []

    def visit_With(self, node: ast.With) -> None:
        added = []
        for item in node.items:
            token = _lock_token(item.context_expr)
            if token is not None and token not in self.held:
                self.held.add(token)
                added.append(token)
        for child in node.body:
            self.visit(child)
        for token in added:
            self.held.discard(token)

    def _enter_nested(self, func: _FunctionNode) -> None:
        # A nested def runs after the enclosing with-block exits: it gets
        # only its own # requires grants, never the lexical lock state.
        nested = _FunctionChecker(self.rule, self.ctx, self.instance_guards,
                                  self.global_guards,
                                  _requires_locks(self.ctx, func),
                                  self.check_instance)
        for child in func.body:
            nested.visit(child)
        self.findings.extend(nested.findings)

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._enter_nested(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._enter_nested(node)

    def visit_Attribute(self, node: ast.Attribute) -> None:
        if self.check_instance and isinstance(node.value, ast.Name) \
                and node.value.id == "self":
            lock = self.instance_guards.get(node.attr)
            if lock is not None and f"self.{lock}" not in self.held \
                    and lock not in self.held:
                self.findings.append(self.ctx.finding(
                    self.rule, node,
                    f"self.{node.attr} is declared '# guarded-by: {lock}' "
                    f"but accessed without holding self.{lock}"))
        self.generic_visit(node)

    def visit_Name(self, node: ast.Name) -> None:
        lock = self.global_guards.get(node.id)
        if lock is not None and lock not in self.held:
            self.findings.append(self.ctx.finding(
                self.rule, node,
                f"global {node.id} is declared '# guarded-by: {lock}' but "
                f"accessed without holding {lock}"))
        self.generic_visit(node)


class LockDisciplineRule(Rule):
    rule_id = "REP005"
    name = "lock-discipline"
    summary = ("attribute declared '# guarded-by: <lock>' read or written "
               "outside a 'with <lock>' block")
    hint = ("wrap the access in 'with self.<lock>:', or mark a helper that "
            "is only called under the lock with '# requires: <lock>' on its "
            "def line; suppress with '# repro: allow[REP005] -- <reason>'")

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        if not ctx.guarded_lines:
            return
        # -- collect declarations -------------------------------------
        global_guards: dict[str, str] = {}
        for stmt in ctx.tree.body:
            if isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = stmt.targets if isinstance(stmt, ast.Assign) \
                    else [stmt.target]
                lock = ctx.guarded_lines.get(stmt.lineno)
                if lock is None:
                    continue
                for target in targets:
                    if isinstance(target, ast.Name):
                        global_guards[target.id] = lock

        class_guards: dict[str, dict[str, str]] = {}
        for cls in [n for n in ast.walk(ctx.tree) if isinstance(n, ast.ClassDef)]:
            guards: dict[str, str] = {}
            for node in ast.walk(cls):
                if isinstance(node, (ast.Assign, ast.AnnAssign)):
                    lock = ctx.guarded_lines.get(node.lineno)
                    if lock is None:
                        continue
                    targets = node.targets if isinstance(node, ast.Assign) \
                        else [node.target]
                    for target in targets:
                        if isinstance(target, ast.Attribute) \
                                and isinstance(target.value, ast.Name) \
                                and target.value.id == "self":
                            guards[target.attr] = lock
            if guards:
                class_guards[cls.name] = guards

        # -- check accesses -------------------------------------------
        findings: list[Finding] = []
        for cls in [n for n in ast.walk(ctx.tree) if isinstance(n, ast.ClassDef)]:
            guards = class_guards.get(cls.name, {})
            for func in cls.body:
                if not isinstance(func, (ast.FunctionDef,
                                         ast.AsyncFunctionDef)):
                    continue
                checker = _FunctionChecker(
                    self, ctx, guards, global_guards,
                    _requires_locks(ctx, func),
                    check_instance=func.name != "__init__")
                for child in func.body:
                    checker.visit(child)
                findings.extend(checker.findings)
        # Module-level functions see only the global guards.
        for func in ctx.tree.body:
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                checker = _FunctionChecker(
                    self, ctx, {}, global_guards,
                    _requires_locks(ctx, func), check_instance=False)
                for child in func.body:
                    checker.visit(child)
                findings.extend(checker.findings)
        yield from findings
