"""Embedded binary linear programming: model, simplex, branch-and-bound, LP
text export.  Every variable is binary, with bounds inside [0, 1]."""

from .branch_bound import solve_milp
from .lpformat import emit_lp_file, parse_solution_listing, solution_values_by_id
from .model import (SOLVER_FAILURES, Constraint, MilpModel, MilpSolution, MilpStats,
                    ModelError, Variable, check_solution)

__all__ = [
    "SOLVER_FAILURES",
    "Constraint",
    "MilpModel",
    "MilpSolution",
    "MilpStats",
    "ModelError",
    "Variable",
    "check_solution",
    "emit_lp_file",
    "parse_solution_listing",
    "solution_values_by_id",
    "solve_milp",
]
