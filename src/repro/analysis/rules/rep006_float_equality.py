"""REP006 float-equality: ``==``/``!=`` against float expressions.

The water-filling bug (fixed in PR 9): an energy form computed
``lambda0 * exp(...)`` and compared the result with ``==`` to decide a
degenerate bracket; at extreme speeds the product underflowed to a value
that compared unequal, and NaNs propagated out of the closed form.  Exact
equality on computed floats is almost always a latent underflow/rounding
bug -- the robust forms are ``math.isclose``, an explicit epsilon, or
restructuring so the sentinel is not a computed float.

The rule flags ``==``/``!=`` comparisons in which any operand is
*syntactically* float-valued: a float literal, arithmetic containing a
float literal, or a ``float(...)``/``np.float64(...)`` cast.  Deliberate
exact comparisons (model parameters and masks over values assigned -- not
computed -- as ``0.0``) document themselves with
``# repro: allow[REP006] -- <reason>``; symbolic
operator-overloading expressions (LP constraint builders) are the other
legitimate suppression class.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from ..engine import FileContext, Finding, Rule

_FLOAT_CASTS = frozenset({"float", "float32", "float64", "longdouble"})


def _is_floatish(node: ast.AST, depth: int = 0) -> bool:
    """Is ``node`` syntactically a float-valued expression?"""
    if depth > 4:           # deep expressions: stay cheap and conservative
        return False
    if isinstance(node, ast.Constant):
        return isinstance(node.value, float)
    if isinstance(node, ast.UnaryOp):
        return _is_floatish(node.operand, depth + 1)
    if isinstance(node, ast.BinOp):
        return (_is_floatish(node.left, depth + 1)
                or _is_floatish(node.right, depth + 1))
    if isinstance(node, ast.Call):
        func = node.func
        name = func.id if isinstance(func, ast.Name) else (
            func.attr if isinstance(func, ast.Attribute) else None)
        return name in _FLOAT_CASTS
    return False


class FloatEqualityRule(Rule):
    rule_id = "REP006"
    name = "float-equality"
    summary = "== / != comparison against a float-valued expression"
    hint = ("compare with math.isclose / an explicit tolerance, or "
            "restructure so the sentinel is assigned rather than computed; "
            "suppress with '# repro: allow[REP006] -- <why exact equality "
            "is sound here>'")

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Compare):
                continue
            operands = [node.left, *node.comparators]
            for op, left, right in zip(node.ops, operands, operands[1:]):
                if not isinstance(op, (ast.Eq, ast.NotEq)):
                    continue
                if _is_floatish(left) or _is_floatish(right):
                    token = "==" if isinstance(op, ast.Eq) else "!="
                    yield ctx.finding(
                        self, node,
                        f"float {token} comparison; exact equality on "
                        "computed floats is the underflow/rounding bug "
                        "class behind the water-filling NaN")
                    break
