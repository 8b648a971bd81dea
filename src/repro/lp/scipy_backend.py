"""Solve a :class:`~repro.lp.model.LinearProgram` with HiGHS.

LPs and MILPs take the same path: :meth:`LinearProgram.to_arrays` and one
:func:`scipy.optimize.milp` call (HiGHS; a model without integer variables
is solved as a plain LP).  The test suite checks it against independent
enumeration oracles (``tests/oracles.py``).
"""

from __future__ import annotations

import numpy as np
from scipy import optimize as sciopt

from .model import LinearProgram, LPSolution, LPStatus

__all__ = ["solve_with_scipy"]

#: ``scipy.optimize.milp`` status codes; any other code is an error.
_STATUS = {0: LPStatus.OPTIMAL, 2: LPStatus.INFEASIBLE, 3: LPStatus.UNBOUNDED}


def solve_with_scipy(model: LinearProgram) -> LPSolution:
    """Solve a :class:`LinearProgram`, LP or MILP, with HiGHS."""
    arrays = model.to_arrays()
    constraints = []
    if arrays["A_ub"].shape[0]:
        constraints.append(sciopt.LinearConstraint(arrays["A_ub"], -np.inf, arrays["b_ub"]))
    if arrays["A_eq"].shape[0]:
        constraints.append(sciopt.LinearConstraint(arrays["A_eq"], arrays["b_eq"], arrays["b_eq"]))
    res = sciopt.milp(c=arrays["c"], constraints=constraints,
                      bounds=sciopt.Bounds(arrays["lower"], arrays["upper"]),
                      integrality=arrays["integrality"])
    status = _STATUS.get(res.status, LPStatus.ERROR)
    if status != LPStatus.OPTIMAL or res.x is None:
        return LPSolution(status=status, objective=float("nan"), values={},
                          x=None, backend="scipy")

    x = np.asarray(res.x, dtype=float)
    raw_obj = float(np.dot(arrays["c"], x)) + arrays["offset"]
    objective = -raw_obj if arrays["maximize"] else raw_obj
    values = {var.name: float(x[var.index]) for var in model.variables}
    return LPSolution(status=status, objective=objective, values=values,
                      x=x, backend="scipy")
