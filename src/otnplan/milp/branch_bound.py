"""Branch-and-bound over the bounded-variable simplex relaxation.

Best-bound node selection, branching on the most fractional binary (ties to
the lowest variable id), optimality-gap and wall-clock termination.  Each
child re-optimises from its parent's optimal basis with the dual simplex.
The root starts from the slack basis, unless the search continues from an
earlier solution of the same model that has had rows appended since, as a
lexicographic stage continues from the one before it: then the root starts
from that solution's root basis, each appended row with a basic slack, and
that solution's values, if they satisfy the current model, are the first
incumbent.  Every LP, root or child, takes the one simplex path from its
starting basis.  A model with no binary variable is solved as one LP: its
root is the whole search.  Each constraint is one row, an empty one
included; an empty row that cannot hold is proved infeasible by the dual
simplex like any other.

The root is strengthened by implied-bound cuts (Achterberg, *Constraint
Integer Programming*, 2007, ch. 8).  A ``<=`` row whose only negative
coefficient is on a binary y implies x <= y for each binary x in it that
cannot be 1 while y is 0 under the model's bounds; a capacity row
sum(b * delta) <= C * beta gives delta <= beta for each of its deltas.  The
root LP solution's violated implications are appended to the model as rows
``imply[x<=y]`` and the root is re-solved from its basis, until none is
violated; then the search branches.  Each such row holds at every integer
feasible point, so the optimum does not move, and a later stage that
continues this search finds them among the model's first rows.

The search is single threaded and fully deterministic: identical models and
parameters reproduce identical incumbents, cuts, node counts and iteration
counts.
"""

from __future__ import annotations

import heapq
import math
import time

import numpy as np

from .model import (FEASIBILITY_TOL, INTEGRALITY_TOL, SOLVER_FAILURES, MilpModel,
                    MilpSolution, MilpStats, check_solution, relative_gap)
from .simplex import LpBasis, LpResult, simplex_solve

__all__ = ["solve_milp"]


class _Arrays:
    """Dense snapshot of a model, one row per constraint (an empty constraint
    is a zero row); per-node solves only swap bounds."""

    def __init__(self, model: MilpModel):
        self.A = np.zeros((len(model.constraints), len(model.variables)))
        for row, con in enumerate(model.constraints):
            for vid, coef in con.terms:
                self.A[row, vid] += coef
        self.relations = [con.relation for con in model.constraints]
        self.rhs = np.array([con.rhs for con in model.constraints])
        self.c = np.array([v.objective for v in model.variables])
        self.lo = np.array([v.lower for v in model.variables])
        self.hi = np.array([v.upper for v in model.variables])
        self.binary = np.array([v.kind == "binary" for v in model.variables])

    def implied_bounds(self) -> np.ndarray:
        """Every pair (x, y) of binaries with bounds [0, 1] such that some
        ``<=`` row has its only negative coefficient on y, a positive one on
        x, and cannot hold with x = 1 and y = 0 at any point within the
        bounds: then x <= y at every feasible point.  Returns the pairs as
        the rows of a (k, 2) array, sorted, without repeats."""
        negative = self.A < 0
        rows = np.nonzero((negative.sum(axis=1) == 1)
                          & np.array([rel == "<=" for rel in self.relations], bool))[0]
        y = np.argmax(negative[rows], axis=1)
        unit = self.binary & (self.lo == 0.0) & (self.hi == 1.0)
        keep = unit[y]
        rows, y = rows[keep], y[keep]
        sub = self.A[rows]
        with np.errstate(invalid="ignore"):
            least = (np.where(sub > 0, sub * self.lo, 0.0)
                     + np.where(sub < 0, sub * self.hi, 0.0)).sum(axis=1)
        # least activity with y = 0, less the rhs; x = 1 adds its coefficient
        excess = least - sub[np.arange(rows.size), y] - self.rhs[rows]
        at, x = np.nonzero((sub > 0) & unit & (sub + excess[:, None] > FEASIBILITY_TOL))
        # a set, not np.unique, which imports numpy.ma (about 1 MB of RSS)
        pairs = sorted(set(zip(x.tolist(), y[at].tolist())))
        return np.array(pairs, dtype=np.intp).reshape(-1, 2)

    def append_implications(self, model: MilpModel, pairs: np.ndarray) -> None:
        """Append the row x - y <= 0 of each pair (x, y) to the model and to
        this snapshot."""
        for x, y in pairs.tolist():
            model.add_constraint(f"imply[{model.var_name(x)}<={model.var_name(y)}]",
                                 [(x, 1.0), (y, -1.0)], "<=", 0.0)
        rows = np.zeros((len(pairs), self.A.shape[1]))
        rows[np.arange(len(pairs)), pairs[:, 0]] = 1.0
        rows[np.arange(len(pairs)), pairs[:, 1]] = -1.0
        self.A = np.vstack([self.A, rows])
        self.relations = self.relations + ["<="] * len(pairs)
        self.rhs = np.concatenate([self.rhs, np.zeros(len(pairs))])


def _cut_root(model: MilpModel, arrays: _Arrays, binary_ids: np.ndarray, res: LpResult,
              deadline: float | None) -> tuple[LpResult, int]:
    """The root LP result once its violated implied-bound cuts are appended
    and the root re-solved from its basis, round after round until none is
    violated, and the pivots the re-solves took.  An integral root violates
    no cut, as it meets the row each cut is derived from."""
    iterations = 0
    if res.status != "optimal" or not _fractional(res.x[binary_ids]):
        return res, iterations
    pairs = arrays.implied_bounds()
    while res.status == "optimal" and pairs.size:
        cut = res.x[pairs[:, 0]] - res.x[pairs[:, 1]] > INTEGRALITY_TOL
        if not cut.any():
            break
        arrays.append_implications(model, pairs[cut])
        pairs = pairs[~cut]
        res = simplex_solve(arrays.A, arrays.relations, arrays.rhs, arrays.c, arrays.lo,
                            arrays.hi, res.basis.with_rows(arrays.A, arrays.relations),
                            deadline)
        iterations += res.iterations
    return res, iterations


def _fractional(values: np.ndarray) -> bool:
    return bool((np.abs(values - np.round(values)) > INTEGRALITY_TOL).any())


def solve_milp(model: MilpModel, gap: float = 0.0, time_limit: float | None = None,
               start: MilpSolution | None = None) -> MilpSolution:
    """Branch-and-bound search honouring a relative optimality gap and a
    wall-clock limit.

    The returned incumbent always satisfies every constraint and every
    integrality requirement within 1e-6 (values are rounded and re-verified
    before acceptance).  A model without binary variables is an LP, solved
    at the root alone.  The limit is checked between nodes and before every
    simplex pivot.  A node LP that fails (see ``SOLVER_FAILURES``) ends the
    search with that status; any incumbent found so far is attached but not
    counted as a result.  An infeasible result names in ``infeasible_rows``
    the constraints of the root LP's infeasibility certificate: with the
    variable bounds, they cannot all hold.  An empty constraint that cannot
    hold is one of them.

    The root's violated implied-bound cuts (see the module docstring) are
    appended to ``model`` as rows named ``imply[<x name><=<y name>]``; they
    hold at every integer feasible point, so ``check_solution`` accepts the
    same points as before.

    ``start`` is an earlier solution of this model, solved before rows were
    appended (and the objective changed, say).  Its values become the first
    incumbent if ``check_solution`` accepts them.  Its root basis warm-starts
    the root LP if its rows are the first rows of the model, over the same
    variables; otherwise the root starts from the slack basis.  The result
    carries its own root basis for a later ``start``.
    """
    if not gap >= 0:
        raise ValueError("gap must be non-negative")
    began = time.perf_counter()
    deadline = None if time_limit is None else began + time_limit
    arrays = _Arrays(model)
    binary_ids = np.nonzero(arrays.binary)[0]
    nodes = 0
    lp_iters = 0
    incumbent: dict[int, float] | None = None
    incumbent_obj = math.inf
    root_infeasible_rows: tuple[str, ...] = ()
    root_basis: LpBasis | None = None
    warm_root: LpBasis | None = None
    if start is not None:
        if start.root_basis is not None:
            warm_root = start.root_basis.with_rows(arrays.A, arrays.relations)
        if start.has_incumbent and not check_solution(model, start.values):
            incumbent = dict(start.values)
            incumbent_obj = model.evaluate_objective(incumbent)

    def build(status: str, best_bound: float) -> MilpSolution:
        wall = time.perf_counter() - began
        stats = MilpStats(nodes=nodes, lp_iterations=lp_iters, wall_time=wall)
        if incumbent is None:
            return MilpSolution(status=status, stats=stats, best_bound=best_bound,
                                infeasible_rows=root_infeasible_rows, root_basis=root_basis)
        g = max(0.0, relative_gap(incumbent_obj, best_bound))
        return MilpSolution(status=status, values=dict(incumbent), objective=incumbent_obj,
                            best_bound=best_bound, gap=g, stats=stats, root_basis=root_basis)

    # heap of (parent bound, tiebreak counter, lo array, hi array, parent basis)
    counter = 0
    heap: list[tuple[float, int, np.ndarray, np.ndarray, LpBasis | None]] = []
    heapq.heappush(heap, (-math.inf, counter, arrays.lo.copy(), arrays.hi.copy(), warm_root))

    while heap:
        bound_est, _, lo, hi, warm = heapq.heappop(heap)
        open_bound = bound_est  # heap is bound-ordered, so this is the global lower bound
        if incumbent is not None:
            gap_now = relative_gap(incumbent_obj, min(open_bound, incumbent_obj))
            if gap_now <= gap + 1e-12:
                return build("optimal" if gap_now <= 1e-12 else "feasible-with-gap",
                             min(open_bound, incumbent_obj))
            if bound_est >= incumbent_obj - 1e-9:
                continue
        if deadline is not None and time.perf_counter() >= deadline:
            return build("time-limit", min(open_bound, incumbent_obj))

        nodes += 1
        res = simplex_solve(arrays.A, arrays.relations, arrays.rhs, arrays.c, lo, hi,
                            warm, deadline)
        lp_iters += res.iterations
        if nodes == 1:
            res, iterations = _cut_root(model, arrays, binary_ids, res, deadline)
            lp_iters += iterations
        if res.status == "time-limit" or res.status in SOLVER_FAILURES:
            return build(res.status, min(open_bound, incumbent_obj))
        if res.status == "infeasible":
            if nodes == 1:
                root_infeasible_rows = tuple(
                    model.constraints[i].name for i in res.infeasible_rows)
            continue
        if res.status == "unbounded":
            if nodes == 1:
                return build("unbounded", -math.inf)
            continue
        if nodes == 1:
            root_basis = res.basis
        if incumbent is not None and res.objective >= incumbent_obj - 1e-9:
            continue

        frac = np.abs(res.x[binary_ids] - np.round(res.x[binary_ids])) if binary_ids.size else np.zeros(0)
        if binary_ids.size == 0 or frac.max() <= INTEGRALITY_TOL:
            values = res.x.copy()
            values[binary_ids] = np.round(values[binary_ids])
            cand = {i: float(values[i]) for i in range(len(values))}
            if not check_solution(model, cand):
                obj = float(arrays.c @ values)
                if obj < incumbent_obj - 1e-12:
                    incumbent = cand
                    incumbent_obj = obj
                continue
            # rounding broke feasibility: branch on the most fractional binary anyway
            if binary_ids.size == 0 or frac.max() <= 0:
                continue

        scores = np.minimum(frac, 1.0 - frac)
        pick = int(binary_ids[int(np.argmax(scores))])
        for fix in (0.0, 1.0):
            lo2 = lo.copy()
            hi2 = hi.copy()
            lo2[pick] = fix
            hi2[pick] = fix
            counter += 1
            heapq.heappush(heap, (res.objective, counter, lo2, hi2, res.basis))

    if incumbent is None:
        return build("infeasible", math.nan)
    return build("optimal", incumbent_obj)
