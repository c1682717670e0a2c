"""Binary linear program representation and solution records."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Mapping

__all__ = [
    "ModelError",
    "Variable",
    "Constraint",
    "MilpModel",
    "MilpStats",
    "MilpSolution",
    "check_solution",
    "GAP_FLOOR",
    "SOLVER_FAILURES",
]

GAP_FLOOR = 1e-9
FEASIBILITY_TOL = 1e-6
INTEGRALITY_TOL = 1e-6

RELATIONS = ("<=", "=", ">=")

# statuses of a solve the LP solver could not finish: its pivot budget ran
# out, or a basis matrix could not be inverted
SOLVER_FAILURES = ("iteration-limit", "singular-basis")


class ModelError(ValueError):
    """Structural problem in a model: undeclared variable, bad relation, ..."""


@dataclass(slots=True)
class Variable:
    id: int
    name: str
    lower: float
    upper: float
    objective: float


@dataclass(slots=True)
class Constraint:
    name: str
    terms: tuple[tuple[int, float], ...]
    relation: str
    rhs: float


class MilpModel:
    """Minimization model over binary variables.

    Every variable is binary, with bounds inside [0, 1]; tightening them to
    [0, 0] or [1, 1] is how builders fix excluded entities.
    """

    def __init__(self, name: str = "model"):
        self.name = name
        self.variables: list[Variable] = []
        self.constraints: list[Constraint] = []
        self._names: dict[str, int] = {}

    def add_variable(self, name: str, lower: float = 0.0, upper: float = 1.0,
                     objective: float = 0.0) -> int:
        if name in self._names:
            raise ModelError(f"duplicate variable name {name!r}")
        # false for a NaN bound too
        if not 0 <= lower <= upper <= 1:
            raise ModelError(f"variable {name!r} bounds [{lower}, {upper}] must lie "
                             f"inside [0, 1] with lower <= upper")
        vid = len(self.variables)
        self.variables.append(Variable(vid, name, float(lower), float(upper), float(objective)))
        self._names[name] = vid
        return vid

    def add_constraint(self, name: str, terms: Iterable[tuple[int, float]],
                       relation: str, rhs: float) -> None:
        if relation not in RELATIONS:
            raise ModelError(f"unknown relation {relation!r}")
        declared = len(self.variables)
        packed = []
        for vid, coef in terms:
            if not (0 <= vid < declared):
                raise ModelError(f"constraint {name!r} references undeclared variable id {vid}")
            if coef != 0.0:
                packed.append((vid, float(coef)))
        self.constraints.append(Constraint(name, tuple(packed), relation, float(rhs)))

    def var_id(self, name: str) -> int:
        try:
            return self._names[name]
        except KeyError:
            raise ModelError(f"unknown variable name {name!r}") from None

    def var_name(self, vid: int) -> str:
        return self.variables[vid].name

    def set_objective(self, coefficients: Mapping[int, float]) -> None:
        """Replace the objective vector (used for staged solves)."""
        for var in self.variables:
            var.objective = 0.0
        for vid, coef in coefficients.items():
            if not (0 <= vid < len(self.variables)):
                raise ModelError(f"objective references undeclared variable id {vid}")
            self.variables[vid].objective = float(coef)

    def evaluate_objective(self, values: Mapping[int, float]) -> float:
        return sum(v.objective * values.get(v.id, 0.0) for v in self.variables)


@dataclass(frozen=True)
class MilpStats:
    nodes: int = 0
    lp_iterations: int = 0
    wall_time: float = 0.0


@dataclass(frozen=True)
class MilpSolution:
    # optimal | feasible-with-gap | infeasible | unbounded | time-limit,
    # or one of SOLVER_FAILURES
    status: str
    values: Mapping[int, float] = field(default_factory=dict)
    objective: float = math.nan
    best_bound: float = math.nan
    gap: float = math.nan
    stats: MilpStats = field(default_factory=MilpStats)
    infeasible_rows: tuple[str, ...] = ()
    # each lexicographic stage's own solution, in order (see ``solve_milp``)
    stages: tuple[MilpSolution, ...] = field(default=(), repr=False)

    @property
    def has_incumbent(self) -> bool:
        return self.status in ("optimal", "feasible-with-gap") or (
            self.status == "time-limit" and bool(self.values)
        )

    def value(self, vid: int) -> float:
        return self.values.get(vid, 0.0)


def relative_gap(objective: float, bound: float) -> float:
    return (objective - bound) / max(abs(objective), GAP_FLOOR)


def check_solution(model: MilpModel, values: Mapping[int, float]) -> tuple[str, ...]:
    """Independent feasibility re-check: re-reads the model, returns violations.

    Used by the acceptance harness and by external-solution validation; keeps
    no state from the solver.
    """
    problems: list[str] = []
    for var in model.variables:
        x = values.get(var.id, 0.0)
        if not math.isfinite(x):
            problems.append(f"variable {var.name} = {x} is not finite")
            continue
        if x < var.lower - FEASIBILITY_TOL or x > var.upper + FEASIBILITY_TOL:
            problems.append(f"variable {var.name} = {x} outside [{var.lower}, {var.upper}]")
        if abs(x - round(x)) > INTEGRALITY_TOL:
            problems.append(f"variable {var.name} = {x} violates integrality")
    for con in model.constraints:
        lhs = sum(coef * values.get(vid, 0.0) for vid, coef in con.terms)
        if not math.isfinite(lhs):
            problems.append(f"constraint {con.name}: {lhs} is not finite")
        elif con.relation == "<=" and lhs > con.rhs + FEASIBILITY_TOL:
            problems.append(f"constraint {con.name}: {lhs} > {con.rhs}")
        elif con.relation == ">=" and lhs < con.rhs - FEASIBILITY_TOL:
            problems.append(f"constraint {con.name}: {lhs} < {con.rhs}")
        elif con.relation == "=" and abs(lhs - con.rhs) > FEASIBILITY_TOL:
            problems.append(f"constraint {con.name}: {lhs} != {con.rhs}")
    return tuple(problems)
