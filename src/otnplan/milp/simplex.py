"""Bounded-variable simplex on a dense tableau: one path from any basis.

Every structural variable lies in a finite box lo <= x <= hi; only a slack
may have an infinite bound.  Every solve starts from a basis of the columns
``[A | I]``, one slack per row: the caller's warm basis, or else the slack
basis, in which every slack is basic and each structural sits at the bound
its cost prefers.  If the basics of the start are outside their bounds, the
bounded dual simplex makes the basis primal feasible; primal phase 2 then
finishes with the true costs.  The dual simplex needs a dual feasible
basis, so each nonbasic whose reduced cost has the wrong sign first has its
cost shifted until that reduced cost is zero (dual phase 1 by cost
modification; Koberstein 2005).

Warm starts come in two kinds.  A branch-and-bound child starts from its
parent's optimal basis with tightened bounds: that basis is dual feasible,
so no cost is shifted and the dual simplex restores the bounds.  A
lexicographic stage starts from the previous stage's root basis with a new
objective and a pin row appended below the old rows, and a root with its
implied-bound cuts appended re-solves from its own basis.
``LpBasis.with_rows`` gives each appended row a basic slack; the caller
appends rows only below the unchanged old ones, so it compares nothing.  A
pin row holds at the old optimum, so phase 2 runs from it directly; a cut
is violated there, so the dual simplex repairs it first.

Pricing is Dantzig's rule in the primal.  In the dual, the row with the
largest bound violation leaves and the entering column comes from a Harris
two-pass ratio test.  After a run of ``_DEGENERATE_LIMIT`` degenerate pivots
either method switches for good to a Bland-type rule, lowest index first,
which guarantees termination.  Every tie is broken by a fixed index order, so
solves are deterministic.

The basis inverse travels with the basis.  The slack basis's is the
identity; an optimal result hands on the basis, the statuses and the
inverse its tableau ended with, without copies, and ``with_rows`` extends
the inverse to the appended rows by the block formula
[[B⁻¹, 0], [−R_B·B⁻¹, I]], where R_B holds the appended rows' entries in the
basic columns.  So no solve inverts its start basis.  Each pivot applies a
rank-1 product-form update, and the inverse is recomputed from the basis
columns only every ``_REFACTOR_EVERY`` pivots along a lineage: a
branch-and-bound child or a later stage's root counts on from the pivots its
start basis has had since its last refactorization.  The basic values move
along each pivot's direction instead of being re-solved; they are computed
from the inverse when a basis is installed, at each refactorization and at
optimality if a pivot or a bound flip has moved them since.  The dual
simplex takes its first reduced costs from the cost shift, which computes
the product c_B·B⁻¹·A for the true costs: a basic column's cost is never
shifted, so the same product prices the shifted costs.  It then updates
them from the pivot row it computes for the ratio test, recomputing them
at each refactorization.

An infeasible result carries a proof: when no nonbasic can move a violated
basic toward its bound, that row of the basis inverse combines the
constraints into one that the variable bounds cannot meet (a Farkas row),
and the rows it combines are the certificate.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

__all__ = ["LpBasis", "LpResult", "simplex_solve", "with_slacks"]

_RC_TOL = 1e-9
_PIV_TOL = 1e-9
_DUAL_TOL = 1e-7         # reduced-cost sign that needs a shift, Harris tolerance
_DUAL_PIV_TOL = 1e-7     # smallest pivot element the dual ratio test prefers
_PRIMAL_TOL = 1e-9       # bound violation the dual simplex leaves alone
_DEGENERATE_STEP = 1e-10
_DEGENERATE_LIMIT = 60
_MAX_ITERATIONS = 50_000
_REFACTOR_EVERY = 50

_AT_LOWER, _AT_UPPER, _BASIC = 0, 1, 2
# the direction a nonbasic of each status may move from its bound: up from
# its lower one, down from its upper one
_SIGN = np.array([1.0, -1.0, 0.0])


class _Singular(Exception):
    """The basic columns have no inverse."""


@dataclass(frozen=True)
class LpBasis:
    """A basis of ``columns`` = ``[A | I]``, reusable by a solve of the same
    rows and columns with other variable bounds or another objective.

    ``slack_lo`` and ``slack_hi`` are the bounds of the slack columns, which
    follow the structurals in row order.  ``basis`` lists the basic column of
    each row position; ``status`` holds every column's status.  ``inverse``
    is the inverse of the basic columns, and ``since_refactor`` counts the
    pivots that have updated it since it was last computed from them.
    """
    columns: np.ndarray
    slack_lo: np.ndarray
    slack_hi: np.ndarray
    basis: np.ndarray
    status: np.ndarray
    inverse: np.ndarray
    since_refactor: int

    def with_rows(self, columns: np.ndarray, relations: list[str]) -> LpBasis:
        """This basis for the rows (rel) of ``columns`` = ``[A | I]``, whose
        first rows are this basis's own and whose other rows are appended
        below them: each appended row's slack is basic, and the inverse
        grows by the block formula [[B⁻¹, 0], [−R_B·B⁻¹, I]].  Only the
        appended rows' slack bounds and inverse rows are computed."""
        m = self.basis.size
        rows = columns.shape[0]
        n = columns.shape[1] - rows
        slack_lo, slack_hi = _slack_bounds(relations[m:])
        inverse = np.zeros((rows, rows))
        inverse[:m, :m] = self.inverse
        inverse[m:, :m] = -columns[m:, self.basis] @ self.inverse
        appended = np.arange(m, rows)
        inverse[appended, appended] = 1.0
        return LpBasis(columns, np.concatenate([self.slack_lo, slack_lo]),
                       np.concatenate([self.slack_hi, slack_hi]),
                       np.concatenate([self.basis, n + appended]),
                       np.concatenate([self.status, np.full(rows - m, _BASIC, np.int8)]),
                       inverse, self.since_refactor)

    def reduced_costs(self, c: np.ndarray) -> np.ndarray:
        """Each structural's reduced cost for the objective ``c``, from the
        duals y = c_B·B⁻¹; a basic structural's is exactly 0."""
        cost = np.concatenate([c, np.zeros(self.basis.size)])
        d = cost - (cost[self.basis] @ self.inverse) @ self.columns
        d[self.basis] = 0.0
        return d[:c.size]


@dataclass
class LpResult:
    # optimal | infeasible | unbounded | time-limit | iteration-limit | singular-basis
    status: str
    x: np.ndarray | None
    objective: float
    iterations: int
    infeasible_rows: tuple[int, ...] = ()
    basis: LpBasis | None = None


def _slack_bounds(relations: list[str]) -> tuple[np.ndarray, np.ndarray]:
    """Bounds of each row's slack s in A x + s = rhs."""
    lo = np.array([-math.inf if rel == ">=" else 0.0 for rel in relations])
    hi = np.array([math.inf if rel == "<=" else 0.0 for rel in relations])
    return lo, hi


def with_slacks(A: np.ndarray, rows: int | None = None) -> np.ndarray:
    """``[A | I]`` for the rows of ``A`` and, below them, room for up to
    ``rows`` rows in all: a spare row r is zero but for the 1 of its own
    slack column."""
    m, n = A.shape
    rows = m if rows is None else rows
    columns = np.zeros((rows, n + rows))
    columns[:m, :n] = A
    diagonal = np.arange(rows)
    columns[diagonal, n + diagonal] = 1.0
    return columns


def _slack_basis(columns: np.ndarray, relations: list[str], c: np.ndarray) -> LpBasis:
    """Every slack basic; each structural at the bound its cost prefers."""
    m = columns.shape[0]
    n = columns.shape[1] - m
    slack_lo, slack_hi = _slack_bounds(relations)
    status = np.where(c < 0, _AT_UPPER, _AT_LOWER)
    return LpBasis(columns, slack_lo, slack_hi, n + np.arange(m),
                   np.concatenate([status, np.full(m, _BASIC)]).astype(np.int8),
                   np.eye(m), 0)


class _Tableau:
    def __init__(self, start: LpBasis, rhs: np.ndarray, lo: np.ndarray,
                 hi: np.ndarray, deadline: float | None):
        self.A = start.columns
        self.b = rhs
        self.start = start
        self.lo = np.concatenate([lo, start.slack_lo])
        self.hi = np.concatenate([hi, start.slack_hi])
        self.deadline = deadline
        self.m, self.ncols = self.A.shape
        self.basis = start.basis.copy()
        self.status = start.status.copy()
        self.movable = (self.hi - self.lo) > _PIV_TOL
        # +1 at the lower bound, -1 at the upper one, 0 basic or fixed
        self.sign = np.where(self.movable, _SIGN[self.status], 0.0)
        # each nonbasic at its bound; a basic's entry is unused until
        # ``refresh_basics`` sets it
        self.value = np.where(self.status == _AT_UPPER, self.hi, self.lo)
        # the bounds and values of the basics in row order, kept by each pivot
        self.lob = self.lo[self.basis]
        self.hib = self.hi[self.basis]
        self.xb = np.empty(0)
        self.Binv = start.inverse.copy()
        self.since_refactor = start.since_refactor
        self.d = np.empty(0)  # the dual simplex's reduced costs
        self.pivots = 0
        self.refreshed_at = -1  # ``pivots`` when the basics were last computed
        self.certificate: tuple[int, ...] = ()

    def refactor(self) -> None:
        try:
            self.Binv = np.linalg.inv(self.A[:, self.basis])
        except np.linalg.LinAlgError:
            raise _Singular from None
        self.since_refactor = 0
        self.refresh_basics()

    def refresh_basics(self) -> None:
        self.value[self.basis] = 0.0
        self.xb = self.Binv @ (self.b - self.A @ self.value)
        self.value[self.basis] = self.xb
        self.refreshed_at = self.pivots

    def reduced_costs(self, c: np.ndarray) -> np.ndarray:
        return c - (c[self.basis] @ self.Binv) @ self.A

    def rest(self, j: int, upper: bool) -> None:
        """Make ``j`` nonbasic at its upper or lower bound."""
        self.status[j] = _AT_UPPER if upper else _AT_LOWER
        self.value[j] = self.hi[j] if upper else self.lo[j]
        self.sign[j] = (-1.0 if upper else 1.0) if self.movable[j] else 0.0

    def pivot(self, row: int, entering: int, w: np.ndarray) -> None:
        """Make ``entering`` basic in ``row``; ``w`` is Binv times its column.
        The caller moves the values, the entering one included, and rests
        the leaving variable."""
        self.basis[row] = entering
        self.status[entering] = _BASIC
        self.sign[entering] = 0.0
        self.lob[row] = self.lo[entering]
        self.hib[row] = self.hi[entering]
        self.xb[row] = self.value[entering]
        self.pivots += 1
        self.since_refactor += 1
        if self.since_refactor >= _REFACTOR_EVERY:
            self.refactor()
            return
        pivot_row = self.Binv[row] / w[row]
        self.Binv -= w[:, None] * pivot_row
        self.Binv[row] = pivot_row

    def solve(self, c: np.ndarray) -> str:
        """Compute the installed basis's values from its inverse; make it
        primal feasible with the dual simplex if it is not, then run primal
        phase 2 for c.  Returns the status of the solve."""
        # the ratio tests divide by entries that their masks then discard
        with np.errstate(invalid="ignore", divide="ignore"):
            self.refresh_basics()
            cost = np.concatenate([c, np.zeros(self.m)])
            if not self.primal_feasible():
                state = self.dual_iterate(*self.dual_feasible_costs(cost))
                if state != "feasible":
                    return state
                self.refresh_basics()
            return self.iterate(cost)

    def iterate(self, c: np.ndarray) -> str:
        """Primal simplex for objective c from a primal feasible basis.
        Returns optimal | unbounded | time-limit | iteration-limit."""
        degenerate_run = 0
        bland = False
        A, basis, sign, value = self.A, self.basis, self.sign, self.value
        lo, hi, lob, hib = self.lo, self.hi, self.lob, self.hib
        deadline, m, ncols = self.deadline, self.m, self.ncols
        while True:
            xb = self.xb  # a refactorization replaces it
            reduced = self.reduced_costs(c)
            # the objective's rate along each nonbasic's allowed direction
            rate = sign * reduced
            # Bland: the lowest eligible index; Dantzig: the steepest rate,
            # lowest index first (a NaN rate, where there is one, enters
            # if any rate is eligible)
            if bland:
                eligible = rate < -_RC_TOL
                entering = int(eligible.argmax())
                priced = bool(eligible[entering])
            else:
                entering = int(rate.argmin())
                priced = bool(rate[entering] < -_RC_TOL) or (
                    math.isnan(rate[entering]) and (rate < -_RC_TOL).any())
            if not priced:
                if self.refreshed_at != self.pivots:  # a pivot or bound flip moved them
                    self.refresh_basics()
                return "optimal"
            if self.pivots >= _MAX_ITERATIONS:
                return "iteration-limit"
            if deadline is not None and time.perf_counter() >= deadline:
                return "time-limit"
            direction = int(sign[entering])

            w = self.Binv @ A[:, entering]
            delta = -w if direction > 0 else w  # basics move by +t*delta
            ratios = np.maximum(np.where(
                delta > _PIV_TOL, (hib - xb) / delta,
                np.where(delta < -_PIV_TOL, (lob - xb) / delta, math.inf)), 0.0)
            ratios = np.where(np.isnan(ratios), math.inf, ratios)
            span = hi[entering] - lo[entering]
            t_basic = float(np.minimum.reduce(ratios)) if m else math.inf
            t_best = min(t_basic, span)
            if math.isinf(t_best):
                return "unbounded"

            if t_best <= _DEGENERATE_STEP:
                degenerate_run += 1
                if degenerate_run >= _DEGENERATE_LIMIT:
                    bland = True
            else:
                degenerate_run = 0

            if math.isfinite(span) and span <= t_basic + _PIV_TOL:
                # bound flip: entering runs to its opposite bound, basis unchanged
                self.pivots += 1
                xb += span * delta
                self.rest(entering, upper=direction > 0)
                continue

            # deterministic: among blocking rows pick the lowest variable index
            block_pos = int(np.where(ratios <= t_best + _PIV_TOL, basis, ncols).argmin())
            leaving = int(basis[block_pos])
            xb += t_best * delta
            value[entering] += direction * t_best
            self.rest(leaving, upper=delta[block_pos] > 0)
            self.pivot(block_pos, entering, w)

    def primal_feasible(self) -> bool:
        violation = np.maximum(self.lob - self.xb, self.xb - self.hib)
        # a NaN violation is not within the tolerance
        return bool(np.maximum.reduce(violation, initial=-math.inf) <= _PRIMAL_TOL)

    def dual_feasible_costs(self, c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """c with the cost of each movable nonbasic whose reduced cost has
        the wrong sign for its status shifted so that reduced cost is zero,
        and the reduced costs for the result: the installed basis is dual
        feasible for it.  Only nonbasic costs move, so the duals and the
        product c_B·B⁻¹·A stay as they were, and that one product gives
        both reduced costs."""
        priced = (c[self.basis] @ self.Binv) @ self.A
        d = c - priced
        wrong = self.sign * d < -_DUAL_TOL
        if not np.count_nonzero(wrong):  # nothing to shift
            return c, d
        shifted = np.where(wrong, c - d, c)
        return shifted, shifted - priced

    def dual_iterate(self, c: np.ndarray, d: np.ndarray) -> str:
        """Bounded dual simplex for objective c from a dual feasible basis,
        whose reduced costs are ``d``, until the basics are within their
        bounds.  Returns feasible | infeasible | singular-basis | time-limit
        | iteration-limit.

        The row with the largest violation leaves and a Harris two-pass
        ratio test picks the entering column.  After ``_DEGENERATE_LIMIT``
        degenerate pivots in a row, the violated basic with the lowest
        variable index leaves and the lowest index among the minimal ratios
        enters, for the rest of the solve.  A row that no nonbasic can
        repair proves infeasibility; its nonzero entries in the basis
        inverse become ``certificate``.  A vanishing pivot element
        refactorizes once; if it vanishes again straight after, the result
        is singular-basis.

        Each pivot updates ``d`` from its pivot row, and each
        refactorization computes it afresh."""
        degenerate_run = 0
        bland = False
        A, basis, sign, value = self.A, self.basis, self.sign, self.value
        lo, hi, lob, hib = self.lo, self.hi, self.lob, self.hib
        deadline, ncols = self.deadline, self.ncols
        self.d = d
        while True:
            xb, Binv = self.xb, self.Binv  # a refactorization replaces them
            below = lob - xb
            above = xb - hib
            violation = np.maximum(below, above)
            if bland:
                violated = violation > _PRIMAL_TOL
                row = int(np.where(violated, basis, ncols).argmin())
                found = bool(violated[row])
            else:
                row = int(violation.argmax())  # first max = lowest row position
                # a NaN is the largest violation, and leaves if any row is violated
                found = bool(violation[row] > _PRIMAL_TOL) or (
                    math.isnan(violation[row]) and (violation > _PRIMAL_TOL).any())
            if not found:
                return "feasible"
            if self.pivots >= _MAX_ITERATIONS:
                return "iteration-limit"
            if deadline is not None and time.perf_counter() >= deadline:
                return "time-limit"
            rise = below[row] > 0  # the leaving basic goes up to its lower bound

            alpha = Binv[row] @ A
            # a > 0: raising x_j moves the leaving basic toward its bound
            a = -alpha if rise else alpha
            # how far a unit move of each nonbasic, in its allowed direction,
            # brings the leaving basic toward its bound, and how far its
            # reduced cost is from changing sign
            reach = sign * a
            slack = sign * d
            # the largest reach, NaNs aside
            top = np.fmax.reduce(reach)
            if not top > _PIV_TOL:
                self.certificate = tuple(
                    int(i) for i in np.nonzero(np.abs(Binv[row]) > _PIV_TOL)[0])
                return "infeasible"
            usable = top > _DUAL_PIV_TOL
            if usable:
                eligible = reach > _DUAL_PIV_TOL
                if bland:
                    # lowest index among the minimal ratios
                    ratio = np.where(eligible, np.maximum(slack, 0.0) / reach, math.inf)
                    entering = int((ratio <= np.minimum.reduce(ratio) + _PIV_TOL).argmax())
                else:
                    # Harris: among near-minimal ratios take the largest
                    # pivot, lowest index.  The column that sets theta_max
                    # has a near-minimal ratio, and a column outside
                    # ``eligible`` reaches less than any eligible one, so
                    # it never wins
                    theta_max = float(np.minimum.reduce(
                        (slack + _DUAL_TOL) / reach, where=eligible, initial=math.inf))
                    entering = int(np.where(slack / reach <= theta_max, reach, -1.0).argmax())
                theta = max(float(slack[entering]), 0.0) / reach[entering]
                w = Binv @ A[:, entering]
            if not usable or abs(w[row]) <= _PIV_TOL:
                # only pivots too small to trust: refactorize once, then give up
                if self.since_refactor == 0:
                    return "singular-basis"
                self.refactor()
                self.d = d = self.reduced_costs(c)
                continue

            if theta <= _DEGENERATE_STEP:
                degenerate_run += 1
                if degenerate_run >= _DEGENERATE_LIMIT:
                    bland = True
            else:
                degenerate_run = 0

            leaving = int(basis[row])
            bound = lo[leaving] if rise else hi[leaving]
            step = (xb[row] - bound) / w[row]
            xb -= step * w
            value[entering] += step
            self.rest(leaving, upper=not rise)
            # the pivot row prices the basis change
            dual_step = d[entering] / alpha[entering]
            d -= dual_step * alpha
            d[entering] = 0.0
            d[leaving] = -dual_step
            self.pivot(row, entering, w)
            if self.since_refactor == 0:
                self.d = d = self.reduced_costs(c)

    def snapshot(self) -> LpBasis:
        """The basis the solve ended with.  It takes the tableau's own
        arrays, and the start's slack bounds, which no solve changes: the
        tableau is not used after it."""
        return LpBasis(self.A, self.start.slack_lo, self.start.slack_hi,
                       self.basis, self.status, self.Binv, self.since_refactor)


def simplex_solve(A: np.ndarray, relations: list[str], rhs: np.ndarray,
                  c: np.ndarray, lo: np.ndarray, hi: np.ndarray,
                  warm: LpBasis | None = None,
                  deadline: float | None = None,
                  columns: np.ndarray | None = None) -> LpResult:
    """Minimize c'x subject to A x (rel) rhs and lo <= x <= hi, where every
    bound in ``lo`` and ``hi`` is finite.

    The solve starts from ``warm`` if it is given, else from the slack
    basis; see the module docstring for the path from there.  Pass as
    ``warm`` the basis of an earlier optimal result when only the bounds
    ``lo``/``hi``, the objective ``c`` or the ``rhs`` change; after rows are
    appended, pass ``basis.with_rows(columns, relations)``.  ``columns``
    is ``[A | I]`` if the caller keeps one (see ``with_slacks``); a solve
    from the slack basis builds it when it is not given.

    Returns structural variable values only.  An optimal result carries its
    basis, with that basis's inverse.  An infeasible result lists in
    ``infeasible_rows`` the 0-based indices of the constraints that the dual
    simplex's Farkas row combines: those rows alone, with the variable
    bounds, have no solution.
    ``deadline`` is a ``time.perf_counter()`` value checked before every
    pivot.
    """
    if warm is None:
        warm = _slack_basis(with_slacks(A) if columns is None else columns, relations, c)
    tab = _Tableau(warm, rhs, lo, hi, deadline)
    try:
        status = tab.solve(c)
    except _Singular:
        status = "singular-basis"
    if status != "optimal":
        objective = -math.inf if status == "unbounded" else math.nan
        return LpResult(status, None, objective, tab.pivots, tab.certificate)
    x = tab.value[:lo.size].copy()
    return LpResult("optimal", x, float(c @ x), tab.pivots, basis=tab.snapshot())
