"""REP008 batch-invariance: array code whose rows depend on their batch.

A batch kernel must give a row the same answer, bit for bit, whether the
row is solved alone or beside others.  Two constructs broke that in the
TRI-CRIT chain kernel, both since fixed:

* a loop stopped by a whole-array test -- ``if not pending.any(): break``
  -- runs every row until the *slowest* row converges, so a row's last
  iterations, hence its last bits, depend on its neighbours;
* ``x ** alpha[:, None]`` -- numpy picks its power loop by the operands'
  strides, and a ``None``-broadcast exponent has strides that change with
  the batch shape, which moved the energy by an ulp.

The rule flags a ``break`` whose guarding ``if`` tests a whole-array
``.any()`` / ``.all()`` / ``np.any(x)`` / ``np.all(x)`` (no ``axis``, or
``axis=None``), and
a ``**`` whose exponent holds a ``None``-indexed subscript.  Closed forms
need no loop stop; a full-shape exponent (``np.broadcast_to(...).copy()``)
fixes the power loop.  A scalar loop that only looks like the first
pattern documents itself with ``# repro: allow[REP008] -- <reason>``.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from ..engine import FileContext, Finding, Rule

_REDUCTIONS = frozenset({"any", "all"})
_NUMPY = frozenset({"np", "numpy"})


def _is_whole_array_test(node: ast.AST) -> bool:
    """Does ``node`` contain an ``.any()``/``.all()``/``np.any(x)``/
    ``np.all(x)`` reduction over the whole array?"""
    for call in ast.walk(node):
        if not isinstance(call, ast.Call) or \
                not isinstance(call.func, ast.Attribute) or \
                call.func.attr not in _REDUCTIONS or \
                any(k.arg == "axis" and not (isinstance(k.value, ast.Constant)
                                             and k.value.value is None)
                    for k in call.keywords):
            continue
        owner = call.func.value
        if isinstance(owner, ast.Name) and owner.id in _NUMPY:
            if len(call.args) == 1:
                return True
        elif not call.args:
            return True
    return False


def _guarded_breaks(loop: ast.For | ast.While) -> Iterator[ast.If]:
    """``if`` statements of ``loop``'s own body whose branch breaks it."""
    stack = list(loop.body) + list(loop.orelse)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.For, ast.While, ast.AsyncFor,
                             ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef, ast.Lambda)):
            continue            # a nested loop's break is its own
        if isinstance(node, ast.If) and any(
                isinstance(s, ast.Break) for s in node.body + node.orelse):
            yield node
        stack.extend(ast.iter_child_nodes(node))


def _none_broadcast(node: ast.AST) -> bool:
    """Does ``node`` index with ``None`` (``a[:, None]``) anywhere?"""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Subscript):
            index = sub.slice
            items = index.elts if isinstance(index, ast.Tuple) else [index]
            if any(isinstance(i, ast.Constant) and i.value is None
                   for i in items):
                return True
    return False


class BatchInvarianceRule(Rule):
    rule_id = "REP008"
    name = "batch-invariance"
    summary = ("whole-array loop stop or None-broadcast exponent: a row's "
               "bits depend on the rows batched with it")
    hint = ("stop per cell (or solve in closed form) instead of breaking on "
            "a whole-array .any()/.all(); raise to a full-shape exponent "
            "(np.broadcast_to(e, x.shape).copy()); or suppress with "
            "'# repro: allow[REP008] -- <why no row can depend on another>'")

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, (ast.For, ast.While)):
                for guard in _guarded_breaks(node):
                    if _is_whole_array_test(guard.test):
                        yield ctx.finding(
                            self, guard,
                            "loop stopped by a whole-array any/all: every "
                            "row iterates until the slowest converges")
            elif isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow) \
                    and _none_broadcast(node.right):
                yield ctx.finding(
                    self, node,
                    "** with a None-broadcast exponent: the power loop, "
                    "hence the last bit, depends on the batch shape")
