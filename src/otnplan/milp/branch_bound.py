"""Branch-and-bound over the bounded-variable simplex relaxation.

Best-bound node selection, branching on the most fractional binary,
optimality-gap and wall-clock termination.  The branching binary is the one
with the lowest variable id among those whose fractionality is within
``_TIE_TOL`` of the largest, so that round-off in the last bits of an LP
value cannot break an exact tie such as two binaries at 0.5.  Each child
re-optimises from its parent's optimal basis, and from that basis's
inverse, with the dual simplex.
Every LP, root or child, takes the one simplex path from its starting
basis.  Every variable is binary; a node's LP drops integrality and keeps
the node's bounds, which lie inside [0, 1].  Each constraint is one row, an
empty one included; an empty row that cannot hold is proved infeasible by
the dual simplex like any other.

One search solves a model's lexicographic stages (a planning phase's cost,
then its tie-breaks) over one dense snapshot, which grows in place: one
matrix ``[A | I]`` of the rows and their slack columns, with spare rows
that double when they run out.  Each round of cuts and each pin row is
appended to the model as one block of rows and written into the spare
rows; the LPs take their views of the rows in use.  After a stage, a row
appended to the model pins its objective to its incumbent's value.  The
next stage's root starts from the last root basis, with the pin row's
slack basic, and from the last incumbent, which meets that row.

Between stages the search fixes binaries by their reduced costs (Nemhauser
& Wolsey, *Integer and Combinatorial Optimization*, 1988; Achterberg 2007).
Every point of a later stage meets stage s's pin row c·x <= z_s + tol and
the rows of stage s's root LP, cuts included.  A binary that this root
holds nonbasic at a bound, with reduced cost d and root value z, cannot
leave that bound at such a point if z + |d| > z_s + tol + 1e-6, so its
bounds in the snapshot close on the one it sits at for every later stage.
The duals y = c_B·B⁻¹ from the inverse that the root basis carries give the
reduced costs; nothing is factorized for them.  The points fixed away are
exactly those no later stage can reach, so each stage's optimum stays the
same; the later stages take fewer nodes and pivots.  The model's own bounds
do not change.

An integral LP point is checked against the snapshot in one product
``A @ x``, each row against its rhs by its relation, and against the
model's bounds, with ``check_solution``'s tolerance; the incumbent's dict
of values is built only when the point is taken.

The root is strengthened by implied-bound cuts (Achterberg, *Constraint
Integer Programming*, 2007, ch. 8).  A ``<=`` row whose only negative
coefficient is on a binary y implies x <= y for each binary x in it that
cannot be 1 while y is 0 under the model's bounds; a capacity row
sum(b * delta) <= C * beta gives delta <= beta for each of its deltas.  The
pairs are derived once, at the first fractional root.  That root LP
solution's violated implications are appended to the model as rows
``imply[x<=y]`` and the root is re-solved from its basis, until none is
violated; then the search branches.  A later stage's root checks the pairs
not yet appended.  Each such row holds at every integer feasible point, so
the optimum does not move.

The search is single threaded and fully deterministic: identical models and
parameters reproduce identical incumbents, cuts, node counts and iteration
counts.
"""

from __future__ import annotations

import heapq
import math
import time
from dataclasses import replace
from typing import Mapping, Sequence

import numpy as np

from .model import (FEASIBILITY_TOL, INTEGRALITY_TOL, SOLVER_FAILURES, MilpModel,
                    MilpSolution, MilpStats, relative_gap)
from .simplex import LpResult, simplex_solve, with_slacks

__all__ = ["solve_milp"]

# how far past a pin row's rhs a root bound must reach to fix a binary: more
# than any LP tolerance by which a later stage may overstep the pin row
_FIX_MARGIN = 1e-6
# fractionalities this close to the largest tie for branching
_TIE_TOL = 1e-9


class _Arrays:
    """Dense snapshot of a model, one row per constraint (an empty constraint
    is a zero row); per-node solves only swap bounds.  Rows appended to the
    model through ``append`` are appended here too, so one snapshot serves
    every stage of a search.

    The rows live in one matrix ``[A | I]`` with spare rows, each with its
    slack column set up already; ``A`` and ``columns`` are views of its
    rows in use, the structural block and the whole.  An append writes the
    new rows into the spares, and when they run out the matrix doubles.
    A view taken earlier keeps reading its own rows, which no append
    changes."""

    def __init__(self, model: MilpModel):
        self._grid = with_slacks(_dense_rows(model, 0))
        self._view(len(model.row_names))
        self.relations = list(model.relations)
        self.rhs = np.array(model.rhs)
        # the rows with an upper side (<=, =) and those with a lower one (>=, =)
        self.capped = np.array([rel != ">=" for rel in self.relations], bool)
        self.floored = np.array([rel != "<=" for rel in self.relations], bool)
        self.c = np.array(model.objective)
        # the model's bounds; ``lo`` and ``hi`` start as them and may close
        self.lower = np.array(model.lower)
        self.upper = np.array(model.upper)
        self.lo = self.lower.copy()
        self.hi = self.upper.copy()

    def _view(self, m: int) -> None:
        n = self._grid.shape[1] - self._grid.shape[0]
        self.A = self._grid[:m, :n]
        self.columns = self._grid[:m, :n + m]

    def implied_bounds(self) -> np.ndarray:
        """Every pair (x, y) of binaries with bounds [0, 1] such that some
        ``<=`` row has its only negative coefficient on y, a positive one on
        x, and cannot hold with x = 1 and y = 0 at any point within the
        bounds: then x <= y at every feasible point.  Returns the pairs as
        the rows of a (k, 2) array, sorted, without repeats."""
        negative = self.A < 0
        rows = np.nonzero((negative.sum(axis=1) == 1) & self.capped & ~self.floored)[0]
        y = negative[rows].argmax(axis=1)
        unit = (self.lo == 0.0) & (self.hi == 1.0)
        keep = unit[y]
        rows, y = rows[keep], y[keep]
        sub = self.A[rows]
        least = (np.where(sub > 0, sub * self.lo, 0.0)
                 + np.where(sub < 0, sub * self.hi, 0.0)).sum(axis=1)
        # least activity with y = 0, less the rhs; x = 1 adds its coefficient
        excess = least - sub[np.arange(rows.size), y] - self.rhs[rows]
        at, x = np.nonzero((sub > 0) & unit & (sub + excess[:, None] > FEASIBILITY_TOL))
        # a set, not np.unique, which imports numpy.ma (about 1 MB of RSS)
        pairs = sorted(set(zip(x.tolist(), y[at].tolist())))
        return np.array(pairs, dtype=np.intp).reshape(-1, 2)

    def append(self, model: MilpModel, names: list[str], rhs: list[float],
               lengths: list[int], indices: list[int], coefs: list[float]) -> None:
        """Append the block of rows ``names``, each one's terms <= its rhs
        (as ``MilpModel.add_rows`` reads them), to the model and to this
        snapshot."""
        first = len(model.row_names)
        model.add_rows(names, "<=", rhs, lengths, indices, coefs)
        m, n = self.A.shape
        rows = m + len(names)
        if rows > self._grid.shape[0]:
            self._grid = with_slacks(self.A, max(rows, 2 * self._grid.shape[0]))
        self._grid[m:rows, :n] = _dense_rows(model, first)
        self._view(rows)
        self.relations = self.relations + ["<="] * len(names)
        self.rhs = np.concatenate([self.rhs, model.rhs[first:]])
        self.capped = np.concatenate([self.capped, np.ones(len(names), bool)])
        self.floored = np.concatenate([self.floored, np.zeros(len(names), bool)])

    def feasible(self, x: np.ndarray) -> bool:
        """Whether the integral point ``x`` meets every row and the model's
        bounds within ``FEASIBILITY_TOL``: the test of ``check_solution``,
        in one product ``A @ x`` over the snapshot's rows.  A NaN fails."""
        excess = self.A @ x - self.rhs
        tol = FEASIBILITY_TOL
        return not (np.count_nonzero(self.capped & ~(excess <= tol))
                    or np.count_nonzero(self.floored & ~(excess >= -tol))
                    or np.count_nonzero(~((x >= self.lower - tol) & (x <= self.upper + tol))))


def _fractionality(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
    """The LP point ``x`` rounded, each entry's distance from its rounding,
    and the largest distance (0 with no entries, NaN if one is NaN)."""
    values = np.round(x)
    frac = np.abs(x - values)
    return values, frac, np.maximum.reduce(frac, initial=0.0)


def _dense_rows(model: MilpModel, first: int) -> np.ndarray:
    """The model's rows from ``first`` on as a dense matrix.  A column named
    twice in a row gets the sum of its coefficients, added in the order
    given, as ``bincount`` adds them."""
    n = len(model.names)
    indptr = np.array(model.indptr[first:])
    m = indptr.size - 1
    begin = model.indptr[first]
    # the flat index row * n + column of every term
    cells = (np.arange(m).repeat(indptr[1:] - indptr[:-1]) * n
             + np.array(model.indices[begin:], dtype=np.intp))
    return np.bincount(cells, np.array(model.coefs[begin:]), m * n).reshape(m, n)


class _Search:
    """The stages of one model, searched over one snapshot of it.  A stage
    leaves the next its root LP, its incumbent, the binaries that root fixes
    and the implied pairs not yet appended."""

    def __init__(self, model: MilpModel, deadline: float | None):
        self.model = model
        self.arrays = _Arrays(model)
        self.deadline = deadline
        self.pairs: np.ndarray | None = None  # derived at the first fractional root
        self.root: LpResult | None = None  # the last root LP, cuts included
        self.incumbent: dict[int, float] | None = None
        self.incumbent_obj = math.inf

    def cut_root(self, res: LpResult) -> tuple[LpResult, int]:
        """The optimal, fractional root LP result ``res`` once its violated
        implied-bound cuts are appended and the root re-solved from its
        basis, round after round until none is violated, and the pivots the
        re-solves took.  An integral root violates no cut, as it meets the
        row each cut is derived from, so it is not passed here."""
        iterations = 0
        if self.pairs is None:
            self.pairs = self.arrays.implied_bounds()
        model, arrays = self.model, self.arrays
        while res.status == "optimal" and self.pairs.size:
            cut = res.x[self.pairs[:, 0]] - res.x[self.pairs[:, 1]] > INTEGRALITY_TOL
            if not np.count_nonzero(cut):
                break
            pairs = self.pairs[cut].tolist()
            arrays.append(model, [f"imply[{model.var_name(x)}<={model.var_name(y)}]"
                                  for x, y in pairs], [0.0] * len(pairs), [2] * len(pairs),
                          [vid for pair in pairs for vid in pair], [1.0, -1.0] * len(pairs))
            self.pairs = self.pairs[~cut]
            res = simplex_solve(arrays.A, arrays.relations, arrays.rhs, arrays.c, arrays.lo,
                                arrays.hi, res.basis.with_rows(arrays.columns, arrays.relations),
                                self.deadline)
            iterations += res.iterations
        return res, iterations

    def fix(self, bound: float) -> None:
        """Fix, for every later stage, each binary that the last root LP
        holds nonbasic at a bound it cannot leave while the objective stays
        at most ``bound``: moving it costs at least its reduced cost |d| over
        the root value z, and z + |d| exceeds ``bound`` by ``_FIX_MARGIN``."""
        root, arrays = self.root, self.arrays
        if root is None:
            return
        d = root.basis.reduced_costs(arrays.c)  # 0 at the basics, which stay free
        fix = ((arrays.lo < arrays.hi) & (d != 0)
               & (root.objective + np.abs(d) > bound + _FIX_MARGIN))
        arrays.lo[fix] = arrays.hi[fix] = root.x[fix]

    def pin(self, name: str, objective: Mapping[int, float], rhs: float) -> None:
        """Append the row ``objective`` <= ``rhs`` to the model and to the
        snapshot, then fix binaries by the last root's reduced costs."""
        self.arrays.append(self.model, [name], [rhs], [len(objective)], list(objective),
                           list(objective.values()))
        self.fix(rhs)

    def stage(self, gap: float) -> MilpSolution:
        """One branch-and-bound search for the model's current objective,
        from the last stage's root basis and incumbent."""
        began = time.perf_counter()
        model, arrays, deadline = self.model, self.arrays, self.deadline
        self.incumbent_obj = (math.inf if self.incumbent is None
                              else model.evaluate_objective(self.incumbent))
        arrays.c = np.array(model.objective)
        nodes = lp_iters = 0
        root_infeasible_rows: tuple[str, ...] = ()

        def build(status: str, best_bound: float) -> MilpSolution:
            stats = MilpStats(nodes, lp_iters, time.perf_counter() - began)
            if self.incumbent is None:
                return MilpSolution(status, stats=stats, best_bound=best_bound,
                                    infeasible_rows=root_infeasible_rows)
            return MilpSolution(status, dict(self.incumbent), self.incumbent_obj, best_bound,
                                max(0.0, relative_gap(self.incumbent_obj, best_bound)), stats)

        # a heap of (parent bound, tiebreak counter, lo array, hi array, parent basis)
        warm_root = self.root and self.root.basis.with_rows(arrays.columns, arrays.relations)
        heap = [(-math.inf, 0, arrays.lo.copy(), arrays.hi.copy(), warm_root)]
        counter = 0
        self.root = None
        while heap:
            # the heap is bound-ordered, so this is the global lower bound
            open_bound, _, lo, hi, warm = heapq.heappop(heap)
            incumbent_obj = self.incumbent_obj
            if self.incumbent is not None:
                gap_now = relative_gap(incumbent_obj, min(open_bound, incumbent_obj))
                if gap_now <= gap + 1e-12:
                    return build("optimal" if gap_now <= 1e-12 else "feasible-with-gap",
                                 min(open_bound, incumbent_obj))
                if open_bound >= incumbent_obj - 1e-9:
                    continue
            if deadline is not None and time.perf_counter() >= deadline:
                return build("time-limit", min(open_bound, incumbent_obj))

            nodes += 1
            res = simplex_solve(arrays.A, arrays.relations, arrays.rhs, arrays.c, lo, hi,
                                warm, deadline, arrays.columns)
            lp_iters += res.iterations
            if res.status == "optimal":
                values, frac, worst = _fractionality(res.x)
                if nodes == 1 and not worst <= INTEGRALITY_TOL:
                    res, iterations = self.cut_root(res)
                    lp_iters += iterations
                    if res.status == "optimal":
                        values, frac, worst = _fractionality(res.x)
            if res.status == "time-limit" or res.status in SOLVER_FAILURES:
                return build(res.status, min(open_bound, incumbent_obj))
            if res.status == "infeasible":
                if nodes == 1:
                    root_infeasible_rows = tuple(
                        model.row_names[i] for i in res.infeasible_rows)
                continue
            if res.status == "unbounded":
                if nodes == 1:
                    return build("unbounded", -math.inf)
                continue
            if nodes == 1:
                self.root = res
            if self.incumbent is not None and res.objective >= incumbent_obj - 1e-9:
                continue

            if worst <= INTEGRALITY_TOL:
                if arrays.feasible(values):
                    obj = float(arrays.c @ values)
                    if obj < incumbent_obj - 1e-12:
                        self.incumbent = dict(enumerate(values.tolist()))
                        self.incumbent_obj = obj
                    continue
                # rounding broke feasibility: branch on the most fractional binary anyway
                if worst <= 0:
                    continue

            scores = np.minimum(frac, 1.0 - frac)
            pick = int((scores >= np.maximum.reduce(scores) - _TIE_TOL).argmax())
            for fix in (0.0, 1.0):
                lo2, hi2 = lo.copy(), hi.copy()
                lo2[pick] = hi2[pick] = fix
                counter += 1
                heapq.heappush(heap, (res.objective, counter, lo2, hi2, res.basis))

        if self.incumbent is None:
            return build("infeasible", math.nan)
        return build("optimal", self.incumbent_obj)


def solve_milp(model: MilpModel, gap: float = 0.0, time_limit: float | None = None,
               stages: Sequence[tuple[Mapping[int, float], float, float]] | None = None
               ) -> MilpSolution:
    """Branch-and-bound search honouring a relative optimality gap and a
    wall-clock limit, over lexicographic stages (see the module docstring).

    ``stages`` lists (objective, gap, pin tolerance) triples; by default
    there is one, the model's own objective at ``gap``.  After stage i, if
    it has an incumbent, the row ``pin[stage=i]`` (its objective <= the
    incumbent's value + pin tolerance) is appended to ``model`` and the next
    stage runs, with the binaries fixed that stage i's root LP proves cannot
    move without breaking that row (see the module docstring).  The result
    is the last stage's solution, with the nodes and pivots of all stages
    and the wall time of the whole call, which ``time_limit`` bounds, and
    each stage's own solution in ``stages``.  An empty ``stages``, a
    negative or NaN gap, or a pin tolerance that is negative or not finite
    raises ValueError.

    The returned incumbent always satisfies every constraint and every
    integrality requirement within 1e-6 (values are rounded and re-verified
    before acceptance).  The limit is checked between nodes and before every
    simplex pivot.  A node LP that fails (see ``SOLVER_FAILURES``) ends the
    search with that status; any incumbent found so far is attached but not
    counted as a result.  An infeasible result names in ``infeasible_rows``
    the constraints of the root LP's infeasibility certificate: with the
    variable bounds, they cannot all hold.  An empty constraint that cannot
    hold is one of them.

    The root's violated implied-bound cuts are appended to ``model`` as rows
    named ``imply[<x name><=<y name>]``; they hold at every integer feasible
    point, so ``check_solution`` accepts the same points as before.
    """
    began = time.perf_counter()
    if stages is None:
        stages = [(dict(enumerate(model.objective)), gap, 0.0)]
    if not stages:
        raise ValueError("stages must list at least one stage")
    if not all(stage_gap >= 0 for _, stage_gap, _ in stages):
        raise ValueError("gap must be non-negative")
    if not all(0 <= tolerance < math.inf for _, _, tolerance in stages):
        raise ValueError("pin tolerance must be finite and non-negative")
    search = _Search(model, None if time_limit is None else began + time_limit)
    solutions: list[MilpSolution] = []
    for idx, (objective, stage_gap, tolerance) in enumerate(stages):
        if idx:
            # the incumbent meets its own pin row, so it stays the first incumbent
            rhs = model.evaluate_objective(search.incumbent) + stages[idx - 1][2]
            search.pin(f"pin[stage={idx - 1}]", stages[idx - 1][0], rhs)
        model.set_objective(objective)
        solutions.append(search.stage(stage_gap))
        if not solutions[-1].has_incumbent:
            break
    return replace(solutions[-1], stages=tuple(solutions), stats=MilpStats(
        sum(s.stats.nodes for s in solutions), sum(s.stats.lp_iterations for s in solutions),
        time.perf_counter() - began))
