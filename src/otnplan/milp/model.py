"""Binary linear program representation and solution records."""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from bisect import bisect_right
from itertools import accumulate, compress, islice, pairwise
from numbers import Real
from typing import Mapping, NamedTuple, Sequence

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


class Variable(NamedTuple):
    """A read-only record of one column, built on demand."""
    id: int
    name: str
    lower: float
    upper: float
    objective: float


class Constraint(NamedTuple):
    """A read-only record of one row and its nonzero terms, built on demand."""
    name: str
    terms: tuple[tuple[int, float], ...]
    relation: str
    rhs: float


class MilpModel:
    """Minimization model over binary variables, kept in flat lists.

    Column j has ``names[j]``, bounds ``lower[j]`` and ``upper[j]`` inside
    [0, 1], and cost ``objective[j]``; tightening the bounds to [0, 0] or
    [1, 1] is how builders fix excluded entities.  Row r has
    ``row_names[r]``, ``relations[r]`` and ``rhs[r]``, and its nonzero
    terms, in the order given, are the column ids ``indices[k]`` with
    coefficients ``coefs[k]`` for ``indptr[r] <= k < indptr[r + 1]``
    (compressed sparse rows).  Every number is finite.  Code outside this
    class reads the lists and changes the model only through its methods.

    Columns and rows are appended in blocks, ``add_variables`` and
    ``add_rows``: one call checks a whole block, and a block that fails a
    check leaves the model as it was.
    """

    def __init__(self, name: str = "model"):
        self.name = name
        self.names: list[str] = []
        self.lower: list[float] = []
        self.upper: list[float] = []
        self.objective: list[float] = []
        self.row_names: list[str] = []
        self.relations: list[str] = []
        self.rhs: list[float] = []
        self.indptr: list[int] = [0]
        self.indices: list[int] = []
        self.coefs: list[float] = []
        self._known: set[str] = set()  # the names, for the duplicate check
        self._ids: dict[str, int] = {}  # name -> id, built by var_id

    @property
    def variables(self) -> tuple[Variable, ...]:
        """The columns as records, for readers outside the package."""
        return tuple(map(Variable, range(len(self.names)), self.names, self.lower,
                         self.upper, self.objective))

    @property
    def constraints(self) -> tuple[Constraint, ...]:
        """The rows as records, for readers outside the package."""
        terms = zip(self.indices, self.coefs)
        return tuple(Constraint(name, tuple(islice(terms, end - start)), relation, rhs)
                     for name, relation, rhs, (start, end) in zip(
                         self.row_names, self.relations, self.rhs, pairwise(self.indptr)))

    def add_variables(self, names: Sequence[str], lower: float | Sequence[float] = 0.0,
                      upper: float | Sequence[float] = 1.0,
                      objective: float | Sequence[float] = 0.0) -> list[int]:
        """Append a block of columns, one per name, and return their ids.
        ``lower``, ``upper`` and ``objective`` each give one number for the
        whole block or one per column.  A block that fails a check leaves
        the model as it was."""
        n = len(names)
        lower, upper, objective = (_per_item(x, n, "columns")
                                   for x in (lower, upper, objective))
        # a NaN or infinite bound makes the sum non-finite
        if n and not (math.isfinite(sum(lower) + sum(upper)) and min(lower) >= 0
                      and max(upper) <= 1 and all(map(operator.le, lower, upper))):
            at = next(k for k, (lo, hi) in enumerate(zip(lower, upper))
                      if not 0 <= lo <= hi <= 1)
            raise ModelError(f"variable {names[at]!r} bounds [{lower[at]}, {upper[at]}] "
                             f"must lie inside [0, 1] with lower <= upper")
        if not math.isfinite(sum(objective)):
            at = _first_non_finite(objective)
            if at is not None:
                raise ModelError(f"variable {names[at]!r} objective {objective[at]} "
                                 f"is not finite")
        first = len(self.names)
        ids = list(range(first, first + n))
        try:
            self._known.update(names)
            if len(self._known) != first + n:
                raise ModelError(f"duplicate variable name {_repeat(self.names, names)!r}")
        except BaseException:
            self._known = set(self.names)
            raise
        self.names += names
        self.lower += lower
        self.upper += upper
        self.objective += objective
        return ids

    def add_rows(self, names: Sequence[str], relation: str, rhs: float | Sequence[float],
                 lengths: Sequence[int], indices: Sequence[int],
                 coefs: float | Sequence[float]) -> None:
        """Append a block of rows, all with ``relation``.  Row r is named
        ``names[r]``, has right-hand side ``rhs[r]`` and takes the next
        ``lengths[r]`` terms: the column ids ``indices`` with the
        coefficients ``coefs``, in order.  ``rhs`` and ``coefs`` each give
        one number for the whole block or one per row or term.  Zero terms
        are left out.  A block that fails a check leaves the model as it
        was."""
        if relation not in RELATIONS:
            raise ModelError(f"unknown relation {relation!r}")
        rows = len(names)
        rhs = _per_item(rhs, rows, "rows")
        coefs = _per_item(coefs, len(indices), "terms")
        if len(lengths) != rows or sum(lengths) != len(indices) or (rows and min(lengths) < 0):
            raise ModelError(f"row lengths {list(lengths)} do not split {len(indices)} "
                             f"terms into {rows} rows")
        declared = len(self.names)
        if indices and not (min(indices) >= 0 and max(indices) < declared):
            at = next(k for k, vid in enumerate(indices) if not 0 <= vid < declared)
            raise ModelError(f"constraint {names[_row_of(lengths, at)]!r} references "
                             f"undeclared variable id {indices[at]}")
        # one sum per block: an infinite or NaN number makes it non-finite
        if not math.isfinite(sum(coefs, sum(rhs))):
            at = _first_non_finite(coefs)
            if at is not None:
                raise ModelError(f"constraint {names[_row_of(lengths, at)]!r}: coefficient "
                                 f"{coefs[at]} of variable {self.names[indices[at]]!r} "
                                 f"is not finite")
            at = _first_non_finite(rhs)
            if at is not None:
                raise ModelError(f"constraint {names[at]!r}: rhs {rhs[at]} is not finite")
        if 0.0 in coefs:
            nonzero = [coef != 0.0 for coef in coefs]
            flags = iter(nonzero)
            lengths = [sum(islice(flags, length)) for length in lengths]
            indices = list(compress(indices, nonzero))
            coefs = list(compress(coefs, nonzero))
        self.row_names += names
        self.relations += [relation] * rows
        self.rhs += rhs
        self.indptr += map(len(self.indices).__add__, accumulate(lengths))
        self.indices += indices
        self.coefs += coefs

    def var_id(self, name: str) -> int:
        """The id of the column named ``name``; the name -> id map is built
        on first use and again after columns are added."""
        if len(self._ids) != len(self.names):
            self._ids = dict(zip(self.names, range(len(self.names))))
        try:
            return self._ids[name]
        except KeyError:
            raise ModelError(f"unknown variable name {name!r}") from None

    def var_name(self, vid: int) -> str:
        return self.names[vid]

    def set_objective(self, coefficients: Mapping[int, float]) -> None:
        """Replace the objective vector (used for staged solves)."""
        objective = [0.0] * len(self.names)
        for vid, coef in coefficients.items():
            if not 0 <= vid < len(objective):
                raise ModelError(f"objective references undeclared variable id {vid}")
            objective[vid] = float(coef)
        if not math.isfinite(sum(objective)):
            at = _first_non_finite(objective)
            if at is not None:
                raise ModelError(f"variable {self.names[at]!r} objective {objective[at]} "
                                 f"is not finite")
        self.objective = objective

    def evaluate_objective(self, values: Mapping[int, float]) -> float:
        get = values.get
        return sum(c * get(vid, 0.0) for vid, c in enumerate(self.objective))


def _per_item(value: float | Sequence[float], n: int, items: str) -> list[float]:
    """One float per item of a block of ``n`` columns, rows or terms, from
    one number for them all or one per item."""
    # concrete types before the abstract Real, whose check is slow
    if not isinstance(value, (list, tuple)) and isinstance(value, (float, int, Real)):
        return [float(value)] * n
    numbers = list(map(float, value))
    if len(numbers) != n:
        raise ModelError(f"{len(numbers)} numbers given for a block of {n} {items}")
    return numbers


def _row_of(lengths: Sequence[int], term: int) -> int:
    """The row of a block, split by ``lengths``, that holds term ``term``."""
    return bisect_right(list(accumulate(lengths)), term)


def _repeat(known: list[str], names: Sequence[str]) -> str | None:
    """The first of ``names`` that is in ``known`` or earlier in ``names``."""
    seen = set(known)
    for name in names:
        if name in seen:
            return name
        seen.add(name)
    return None


def _first_non_finite(numbers: list[float]) -> int | None:
    """The index of the first infinite or NaN number; None if there is none,
    when a sum of finite numbers overflowed."""
    return next((k for k, x in enumerate(numbers) if not math.isfinite(x)), None)


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
    get = values.get
    for vid, (name, lower, upper) in enumerate(zip(model.names, model.lower, model.upper)):
        x = get(vid, 0.0)
        if not math.isfinite(x):
            problems.append(f"variable {name} = {x} is not finite")
            continue
        if x < lower - FEASIBILITY_TOL or x > upper + FEASIBILITY_TOL:
            problems.append(f"variable {name} = {x} outside [{lower}, {upper}]")
        if abs(x - round(x)) > INTEGRALITY_TOL:
            problems.append(f"variable {name} = {x} violates integrality")
    # one walk over the terms, row by row, summing in the order they were given
    terms = zip(model.indices, model.coefs)
    for name, relation, rhs, (start, end) in zip(model.row_names, model.relations, model.rhs,
                                                 pairwise(model.indptr)):
        lhs = sum(coef * get(vid, 0.0) for vid, coef in islice(terms, end - start))
        if not math.isfinite(lhs):
            problems.append(f"constraint {name}: {lhs} is not finite")
        elif relation == "<=" and lhs > rhs + FEASIBILITY_TOL:
            problems.append(f"constraint {name}: {lhs} > {rhs}")
        elif relation == ">=" and lhs < rhs - FEASIBILITY_TOL:
            problems.append(f"constraint {name}: {lhs} < {rhs}")
        elif relation == "=" and abs(lhs - rhs) > FEASIBILITY_TOL:
            problems.append(f"constraint {name}: {lhs} != {rhs}")
    return tuple(problems)
