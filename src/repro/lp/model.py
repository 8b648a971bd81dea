"""A small linear-programming modelling layer.

The paper's polynomial-time result for BI-CRIT under the VDD-HOPPING model
is "a linear program"; commercial modelling tools (AMPL, CPLEX, PuLP) are not
available offline, so this package provides its own modelling layer:

* :class:`Variable`, :class:`LinearExpression`, :class:`Constraint` and
  :class:`LinearProgram` let solvers state LPs/MILPs symbolically with
  operator overloading (``2 * x + y <= 3``);
* :func:`LinearProgram.to_arrays` lowers a model to the dense matrix form,
  bounds included (``None`` becomes ``-inf`` / ``+inf`` here, once);
* :func:`repro.lp.scipy_backend.solve_with_scipy` solves the arrays, LP or
  MILP alike, with one :func:`scipy.optimize.milp` (HiGHS) call.  The test
  suite checks it against vertex and subset enumeration.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Iterable, Mapping, Sequence
from typing import Any, Union

import numpy as np

__all__ = [
    "Variable",
    "LinearExpression",
    "Constraint",
    "LinearProgram",
    "LPSolution",
    "LPStatus",
]


#: What arithmetic on expressions accepts: an expression (or variable) or a number.
ExprLike = Union["LinearExpression", int, float]


class LPStatus:
    """Status strings of an :class:`LPSolution`."""

    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"
    ERROR = "error"


class LinearExpression:
    """An affine expression ``sum_i coeff_i * x_i + constant``."""

    __slots__ = ("coeffs", "constant")

    def __init__(self, coeffs: Mapping[int, float] | None = None,
                 constant: float = 0.0) -> None:
        self.coeffs: dict[int, float] = dict(coeffs or {})
        self.constant = float(constant)

    # -- construction helpers -------------------------------------------------
    @staticmethod
    def _as_expression(other: ExprLike) -> "LinearExpression":
        if isinstance(other, LinearExpression):
            return other
        if isinstance(other, Variable):
            return LinearExpression({other.index: 1.0})
        if isinstance(other, (int, float)):
            return LinearExpression({}, float(other))
        raise TypeError(f"cannot interpret {other!r} as a linear expression")

    def copy(self) -> "LinearExpression":
        return LinearExpression(dict(self.coeffs), self.constant)

    # -- arithmetic -----------------------------------------------------------
    def __add__(self, other: ExprLike) -> "LinearExpression":
        other = self._as_expression(other)
        out = self.copy()
        for idx, c in other.coeffs.items():
            out.coeffs[idx] = out.coeffs.get(idx, 0.0) + c
        out.constant += other.constant
        return out

    __radd__ = __add__

    def __sub__(self, other: ExprLike) -> "LinearExpression":
        return self + (self._as_expression(other) * -1.0)

    def __rsub__(self, other: ExprLike) -> "LinearExpression":
        return self._as_expression(other) + (self * -1.0)

    def __mul__(self, scalar: float) -> "LinearExpression":
        if not isinstance(scalar, (int, float)):
            raise TypeError("linear expressions can only be scaled by numbers")
        out = LinearExpression(
            {idx: c * float(scalar) for idx, c in self.coeffs.items()},
            self.constant * float(scalar),
        )
        return out

    __rmul__ = __mul__

    def __truediv__(self, scalar: float) -> "LinearExpression":
        return self * (1.0 / float(scalar))

    def __neg__(self) -> "LinearExpression":
        return self * -1.0

    # -- comparisons build constraints ----------------------------------------
    def __le__(self, other: ExprLike) -> "Constraint":
        return Constraint(self - self._as_expression(other), "<=")

    def __ge__(self, other: ExprLike) -> "Constraint":
        return Constraint(self - self._as_expression(other), ">=")

    def __eq__(self, other: ExprLike) -> "Constraint":  # type: ignore[override]
        return Constraint(self - self._as_expression(other), "==")

    def __hash__(self) -> int:  # expressions are mutable -> identity hash
        return id(self)

    # -- evaluation -----------------------------------------------------------
    def value(self, x: Sequence[float]) -> float:
        return self.constant + sum(c * x[idx] for idx, c in self.coeffs.items())

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        terms = " + ".join(f"{c:g}*x{idx}" for idx, c in sorted(self.coeffs.items()))
        return f"LinearExpression({terms} + {self.constant:g})"


class Variable(LinearExpression):
    """A decision variable.  Also usable directly as an expression."""

    __slots__ = ("name", "index", "lower", "upper", "is_integer")

    def __init__(self, name: str, index: int, lower: float | None = 0.0,
                 upper: float | None = None, is_integer: bool = False) -> None:
        super().__init__({index: 1.0})
        self.name = name
        self.index = index
        self.lower = lower
        self.upper = upper
        self.is_integer = is_integer

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Variable({self.name!r})"

    def __hash__(self) -> int:
        return hash((self.name, self.index))


@dataclass
class Constraint:
    """A linear constraint ``expr (<=|>=|==) 0`` with an optional name."""

    expression: LinearExpression
    sense: str
    name: str = ""

    def __post_init__(self) -> None:
        if self.sense not in ("<=", ">=", "=="):
            raise ValueError(f"unknown constraint sense {self.sense!r}")

    def violation(self, x: Sequence[float]) -> float:
        """How much the constraint is violated at ``x`` (0 when satisfied)."""
        v = self.expression.value(x)
        if self.sense == "<=":
            return max(0.0, v)
        if self.sense == ">=":
            return max(0.0, -v)
        return abs(v)


class LinearProgram:
    """A linear (or mixed-integer linear) program under construction."""

    def __init__(self, name: str = "lp") -> None:
        self.name = name
        self.variables: list[Variable] = []
        self.constraints: list[Constraint] = []
        self.objective: LinearExpression = LinearExpression()
        self.sense: str = "min"

    # ------------------------------------------------------------------
    def add_variable(self, name: str, *, lower: float | None = 0.0,
                     upper: float | None = None,
                     integer: bool = False) -> Variable:
        """Create a new decision variable and register it with the model.

        ``None`` leaves that side unbounded: ``lower=None`` is a free variable.
        """
        if lower is not None and upper is not None and upper < lower:
            raise ValueError(f"variable {name!r} has upper bound {upper} < lower bound {lower}")
        var = Variable(name, len(self.variables), lower=lower, upper=upper,
                       is_integer=integer)
        self.variables.append(var)
        return var

    def add_variables(self, names: Iterable[str], **kwargs: Any) -> list[Variable]:
        return [self.add_variable(n, **kwargs) for n in names]

    def add_constraint(self, constraint: Constraint, name: str = "") -> Constraint:
        if not isinstance(constraint, Constraint):
            raise TypeError(
                "add_constraint expects a Constraint (build one with <=, >= or ==)"
            )
        if name:
            constraint.name = name
        self.constraints.append(constraint)
        return constraint

    def set_objective(self, expression: LinearExpression, sense: str = "min") -> None:
        if sense not in ("min", "max"):
            raise ValueError("objective sense must be 'min' or 'max'")
        self.objective = LinearExpression._as_expression(expression)
        self.sense = sense

    # ------------------------------------------------------------------
    @property
    def num_variables(self) -> int:
        return len(self.variables)

    @property
    def num_constraints(self) -> int:
        return len(self.constraints)

    def has_integer_variables(self) -> bool:
        return any(v.is_integer for v in self.variables)

    # ------------------------------------------------------------------
    def to_arrays(self) -> dict[str, Any]:
        """Lower the model to dense arrays.

        Returns a dict with keys ``c`` (objective, always minimisation --
        maximisation is negated), ``offset`` (objective constant),
        ``A_ub, b_ub, A_eq, b_eq`` (possibly empty), ``lower`` and ``upper``
        (variable bounds, a ``None`` bound as ``-inf`` / ``+inf``),
        ``integrality`` (0/1 array) and ``maximize``.
        """
        n = self.num_variables
        c = np.zeros(n)
        for idx, coeff in self.objective.coeffs.items():
            c[idx] = coeff
        offset = self.objective.constant
        if self.sense == "max":
            c = -c
            offset = -offset

        rows_ub: list[np.ndarray] = []
        rhs_ub: list[float] = []
        rows_eq: list[np.ndarray] = []
        rhs_eq: list[float] = []
        for con in self.constraints:
            row = np.zeros(n)
            for idx, coeff in con.expression.coeffs.items():
                row[idx] = coeff
            rhs = -con.expression.constant
            if con.sense == "<=":
                rows_ub.append(row)
                rhs_ub.append(rhs)
            elif con.sense == ">=":
                rows_ub.append(-row)
                rhs_ub.append(-rhs)
            else:
                rows_eq.append(row)
                rhs_eq.append(rhs)

        lower = np.array([-np.inf if v.lower is None else v.lower
                          for v in self.variables], dtype=float)
        upper = np.array([np.inf if v.upper is None else v.upper
                          for v in self.variables], dtype=float)
        integrality = np.array([1 if v.is_integer else 0 for v in self.variables])
        return {
            "c": c,
            "offset": float(offset),
            "A_ub": np.array(rows_ub) if rows_ub else np.zeros((0, n)),
            "b_ub": np.array(rhs_ub) if rhs_ub else np.zeros(0),
            "A_eq": np.array(rows_eq) if rows_eq else np.zeros((0, n)),
            "b_eq": np.array(rhs_eq) if rhs_eq else np.zeros(0),
            "lower": lower,
            "upper": upper,
            "integrality": integrality,
            "maximize": self.sense == "max",
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        kind = "MILP" if self.has_integer_variables() else "LP"
        return (
            f"LinearProgram({self.name!r}, {kind}, vars={self.num_variables}, "
            f"cons={self.num_constraints})"
        )


@dataclass
class LPSolution:
    """Solution of a :class:`LinearProgram`."""

    status: str
    objective: float
    values: dict[str, float]
    x: np.ndarray | None = None
    backend: str = ""

    @property
    def is_optimal(self) -> bool:
        return self.status == LPStatus.OPTIMAL

    def __getitem__(self, variable: Variable | str) -> float:
        name = variable.name if isinstance(variable, Variable) else variable
        return self.values[name]
