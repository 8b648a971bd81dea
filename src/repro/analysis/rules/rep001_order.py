"""REP001 nondeterministic-order: sets iterated into ordered constructs.

The bug this descends from: PR 4's golden regressions caught
``list(set(edges))`` feeding a hash-randomised edge order into the convex
solver, so the "same" problem produced different results across processes
(``PYTHONHASHSEED``).  Set iteration order is undefined; the moment it is
materialised into a sequence -- ``list()``/``tuple()``, ``enumerate``,
``zip``, ``str.join``, a ``for`` loop building ordered state, a list or
dict comprehension (dicts keep insertion order) -- that nondeterminism
leaks into results, cache keys and wire payloads.

The rule flags order-sensitive consumption of expressions that are
*statically known* to be sets: set literals/comprehensions,
``set(...)``/``frozenset(...)`` calls, and local names assigned one of
those in the same function scope.  ``sorted(...)`` is the canonical fix
and is never flagged; unordered consumers (membership tests, ``len``,
``min``/``max``, set algebra) are fine.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from ..engine import FileContext, Finding, Rule

#: Callables whose output order mirrors their input iteration order.
_ORDER_SENSITIVE_CALLS = frozenset({"list", "tuple", "enumerate", "zip",
                                    "iter", "next", "reversed"})


def _is_set_expr(node: ast.AST, local_sets: set[str]) -> bool:
    """Is ``node`` statically known to evaluate to a set/frozenset?"""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
            and node.func.id in ("set", "frozenset"):
        return True
    if isinstance(node, ast.Name) and node.id in local_sets:
        return True
    if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)):
        # Set algebra keeps set-ness; requiring either side known avoids
        # claiming int/bool bitwise arithmetic.
        return (_is_set_expr(node.left, local_sets)
                or _is_set_expr(node.right, local_sets))
    return False


class _Scope(ast.NodeVisitor):
    """One function (or module) body: track set-typed locals, flag uses."""

    def __init__(self, rule: "NondeterministicOrderRule",
                 ctx: FileContext) -> None:
        self.rule = rule
        self.ctx = ctx
        self.local_sets: set[str] = set()
        self.findings: list[Finding] = []

    # -- nested scopes get their own tracker ---------------------------
    def _enter_nested(self, node: ast.AST) -> None:
        nested = _Scope(self.rule, self.ctx)
        for child in ast.iter_child_nodes(node):
            nested.visit(child)
        self.findings.extend(nested.findings)

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._enter_nested(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._enter_nested(node)

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self._enter_nested(node)

    # -- set-typed local inference -------------------------------------
    def visit_Assign(self, node: ast.Assign) -> None:
        if len(node.targets) == 1 and isinstance(node.targets[0], ast.Name):
            name = node.targets[0].id
            if _is_set_expr(node.value, self.local_sets):
                self.local_sets.add(name)
            else:
                self.local_sets.discard(name)    # rebound to a non-set
        self.generic_visit(node)

    # -- order-sensitive consumers -------------------------------------
    def _flag(self, node: ast.AST, what: str) -> None:
        self.findings.append(self.ctx.finding(
            self.rule, node,
            f"set iterated in order-sensitive position ({what}); set order "
            "is hash-randomised and leaks nondeterminism into anything "
            "ordered built from it"))

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Name) and func.id in _ORDER_SENSITIVE_CALLS:
            for arg in node.args:
                if _is_set_expr(arg, self.local_sets):
                    self._flag(node, f"{func.id}()")
                    break
        elif isinstance(func, ast.Attribute) and func.attr == "join":
            if node.args and _is_set_expr(node.args[0], self.local_sets):
                self._flag(node, "str.join()")
        self.generic_visit(node)

    def visit_For(self, node: ast.For) -> None:
        if _is_set_expr(node.iter, self.local_sets):
            self._flag(node, "for loop")
        self.generic_visit(node)

    def _check_comprehension(self, node: ast.AST,
                             generators: list[ast.comprehension],
                             what: str) -> None:
        for gen in generators:
            if _is_set_expr(gen.iter, self.local_sets):
                self._flag(node, what)
                break
        self.generic_visit(node)

    def visit_ListComp(self, node: ast.ListComp) -> None:
        self._check_comprehension(node, node.generators, "list comprehension")

    def visit_GeneratorExp(self, node: ast.GeneratorExp) -> None:
        # A generator feeding sorted()/sum-of-ints is harmless, but the
        # engine cannot see the consumer from here; set->set comps stay
        # exempt below, everything else is worth a look (or an explicit
        # allow with the reason order cannot matter).
        self._check_comprehension(node, node.generators,
                                  "generator expression")

    def visit_DictComp(self, node: ast.DictComp) -> None:
        # A dict keeps insertion order, so its keys come out in set order.
        self._check_comprehension(node, node.generators,
                                  "dict comprehension")

    # A SetComp over a set rebuilds an unordered container: exempt.


class NondeterministicOrderRule(Rule):
    rule_id = "REP001"
    name = "nondeterministic-order"
    summary = ("set/frozenset iterated into an order-sensitive construct "
               "(list/tuple/enumerate/zip/join/for/comprehension)")
    hint = ("wrap the set in sorted(...) before ordering matters, or keep "
            "an ordered container from the start; suppress with "
            "'# repro: allow[REP001] -- <why order cannot matter>'")

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        scope = _Scope(self, ctx)
        for child in ast.iter_child_nodes(ctx.tree):
            scope.visit(child)
        yield from scope.findings
