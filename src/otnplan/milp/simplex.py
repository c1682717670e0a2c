"""Bounded-variable simplex on a dense tableau, with warm starts.

Cold solves use the two-phase primal method: artificial variables absorb
initial infeasibility, then the original objective is optimized.  Pricing is
Dantzig's rule with a permanent switch to Bland's rule after a run of
degenerate pivots, which guarantees termination.

The tableau keeps an explicit basis inverse.  It is computed once when a
basis is installed and again every ``_REFACTOR_EVERY`` pivots; in between,
each pivot applies a rank-1 product-form update, and the basic values move
along the pivot's direction instead of being re-solved.  They are recomputed
from the inverse at each refactorization and at optimality.

A warm solve starts from the optimal basis of a related LP: the same columns
and relations, with tightened variable bounds, a new objective, or rows
appended below the old ones (``LpBasis.with_rows`` gives each appended row a
basic slack).  If the basics of the installed basis are within their bounds,
as when a new objective follows a row that the old optimum satisfies, primal
phase 2 runs from it directly.  Otherwise, if the basis is dual feasible, as
at a branch-and-bound child, the bounded dual simplex restores primal
feasibility: the leaving row is the one with the largest bound violation, the
entering column comes from a Harris two-pass ratio test, and a primal pass
then confirms optimality.  A basis that is neither, or a dual loop that
stalls, falls back to the cold path.  Every tie is broken by a fixed index
order, so solves are deterministic.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

__all__ = ["LpBasis", "LpResult", "simplex_solve"]

_RC_TOL = 1e-9
_PIV_TOL = 1e-9
_DUAL_TOL = 1e-7         # dual feasibility of a warm basis, Harris tolerance
_DUAL_PIV_TOL = 1e-7     # smallest pivot element the dual ratio test accepts
_PRIMAL_TOL = 1e-9       # bound violation the dual simplex leaves alone
_DEGENERATE_STEP = 1e-10
_DEGENERATE_LIMIT = 60
_MAX_ITERATIONS = 50_000
_REFACTOR_EVERY = 50

_AT_LOWER, _AT_UPPER, _BASIC, _FREE = 0, 1, 2, 3


@dataclass(frozen=True)
class LpBasis:
    """An optimal basis, reusable by a solve of the same rows and columns
    with other variable bounds or another objective.

    ``columns`` is the full column matrix: the structurals, one slack per row
    in row order, then any artificials of the cold solve.  ``lo_tail`` and
    ``hi_tail`` are the bounds of the slack and artificial columns, the
    artificials frozen at zero.
    """
    columns: np.ndarray
    lo_tail: np.ndarray
    hi_tail: np.ndarray
    basis: np.ndarray
    status: np.ndarray

    def with_rows(self, A: np.ndarray, relations: list[str]) -> LpBasis | None:
        """This basis for the rows ``A`` (rel), which append rows below this
        basis's own: each appended row's slack is basic.  None unless this
        basis's rows are the first rows of ``A``, with the same coefficients
        and relations, over the same columns."""
        m, width = self.columns.shape
        n = width - self.lo_tail.size
        slack_lo, slack_hi = _slack_bounds(relations)
        if (A.shape[1] != n or A.shape[0] < m
                or not np.array_equal(self.columns[:, :n], A[:m])
                or not np.array_equal(self.lo_tail[:m], slack_lo[:m])
                or not np.array_equal(self.hi_tail[:m], slack_hi[:m])):
            return None
        extra = A.shape[0] - m
        split = n + m  # the new slacks go after the old ones, before the artificials
        new_rows = np.zeros((extra, width + extra))
        new_rows[:, :n] = A[m:]
        new_rows[:, split:split + extra] = np.eye(extra)
        columns = np.vstack([np.insert(self.columns, [split] * extra, 0.0, axis=1), new_rows])
        basis = np.concatenate([np.where(self.basis >= split, self.basis + extra, self.basis),
                                split + np.arange(extra)])
        return LpBasis(columns,
                       np.concatenate([self.lo_tail[:m], slack_lo[m:], self.lo_tail[m:]]),
                       np.concatenate([self.hi_tail[:m], slack_hi[m:], self.hi_tail[m:]]),
                       basis, np.insert(self.status, [split] * extra, _BASIC))


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


def _start_values(lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    values = np.where(np.isfinite(lo), lo, np.where(np.isfinite(hi), hi, 0.0))
    status = np.where(np.isfinite(lo), _AT_LOWER,
                      np.where(np.isfinite(hi), _AT_UPPER, _FREE)).astype(np.int8)
    return values, status


class _Tableau:
    def __init__(self, columns: np.ndarray, rhs: np.ndarray,
                 lo: np.ndarray, hi: np.ndarray, deadline: float | None):
        self.A = columns
        self.b = rhs
        self.lo = lo
        self.hi = hi
        self.deadline = deadline
        self.m, self.ncols = columns.shape
        self.value, self.status = _start_values(lo, hi)
        self.basis: np.ndarray = np.empty(0, dtype=int)
        self.Binv = np.empty((0, 0))
        self.since_refactor = 0

    def set_basis(self, basis) -> None:
        self.basis = np.asarray(basis, dtype=int)
        self.status[self.basis] = _BASIC
        self.refactor()

    def refactor(self) -> None:
        self.Binv = np.linalg.inv(self.A[:, self.basis])
        self.since_refactor = 0
        self.refresh_basics()

    def refresh_basics(self) -> None:
        self.value[self.basis] = 0.0
        self.value[self.basis] = self.Binv @ (self.b - self.A @ self.value)

    def reduced_costs(self, c: np.ndarray) -> np.ndarray:
        return c - (c[self.basis] @ self.Binv) @ self.A

    def out_of_time(self) -> bool:
        return self.deadline is not None and time.perf_counter() >= self.deadline

    def pivot(self, row: int, entering: int, w: np.ndarray) -> None:
        """Make ``entering`` basic in ``row``; ``w`` is Binv times its column.
        The caller moves the values and sets the leaving variable's status."""
        self.basis[row] = entering
        self.status[entering] = _BASIC
        self.since_refactor += 1
        if self.since_refactor >= _REFACTOR_EVERY:
            self.refactor()
            return
        pivot_row = self.Binv[row] / w[row]
        self.Binv -= np.outer(w, pivot_row)
        self.Binv[row] = pivot_row

    def iterate(self, c: np.ndarray, iter_budget: int) -> tuple[str, int]:
        """Primal simplex for objective c from a primal feasible basis.
        Returns (optimal | unbounded | time-limit | iteration-limit, pivots)."""
        iters = 0
        degenerate_run = 0
        bland = False
        fixed = (self.hi - self.lo) <= _PIV_TOL
        col_index = np.arange(self.ncols)
        while True:
            reduced = self.reduced_costs(c)
            open_col = (self.status != _BASIC) & ~fixed
            want_up = open_col & (reduced < -_RC_TOL) & (
                (self.status == _AT_LOWER) | (self.status == _FREE))
            want_dn = open_col & (reduced > _RC_TOL) & (
                (self.status == _AT_UPPER) | (self.status == _FREE))
            eligible = want_up | want_dn
            if not eligible.any():
                self.refresh_basics()
                return "optimal", iters
            if iters >= iter_budget:
                return "iteration-limit", iters
            if self.out_of_time():
                return "time-limit", iters
            if bland:
                entering = int(col_index[eligible][0])
            else:
                scores = np.where(eligible, np.abs(reduced), -1.0)
                entering = int(np.argmax(scores))  # first max = lowest index
            direction = 1 if want_up[entering] else -1

            w = self.Binv @ self.A[:, entering]
            delta = -direction * w  # basics move by +t*delta
            vb = self.value[self.basis]
            with np.errstate(invalid="ignore", divide="ignore"):
                t_up = np.where(delta > _PIV_TOL,
                                (self.hi[self.basis] - vb) / np.where(delta > _PIV_TOL, delta, 1.0),
                                math.inf)
                t_dn = np.where(delta < -_PIV_TOL,
                                (vb - self.lo[self.basis]) / np.where(delta < -_PIV_TOL, -delta, 1.0),
                                math.inf)
            ratios = np.minimum(np.maximum(t_up, 0.0), np.maximum(t_dn, 0.0))
            ratios = np.where(np.isnan(ratios), math.inf, ratios)
            span = self.hi[entering] - self.lo[entering]
            t_basic = float(ratios.min()) if self.m else math.inf
            t_best = min(t_basic, span)
            if math.isinf(t_best):
                return "unbounded", iters

            iters += 1
            if t_best <= _DEGENERATE_STEP:
                degenerate_run += 1
                if degenerate_run >= _DEGENERATE_LIMIT:
                    bland = True
            else:
                degenerate_run = 0

            if math.isfinite(span) and span <= t_basic + _PIV_TOL:
                # bound flip: entering runs to its opposite bound, basis unchanged
                self.value[self.basis] = vb + span * delta
                self.value[entering] = self.hi[entering] if direction > 0 else self.lo[entering]
                self.status[entering] = _AT_UPPER if direction > 0 else _AT_LOWER
                continue

            candidates = np.nonzero(ratios <= t_best + _PIV_TOL)[0]
            # deterministic: among blocking rows pick the lowest variable index
            block_pos = int(candidates[np.argmin(self.basis[candidates])])
            leaving = int(self.basis[block_pos])
            to_upper = delta[block_pos] > 0
            self.value[self.basis] = vb + t_best * delta
            self.value[entering] += direction * t_best
            self.status[leaving] = _AT_UPPER if to_upper else _AT_LOWER
            self.value[leaving] = self.hi[leaving] if to_upper else self.lo[leaving]
            self.pivot(block_pos, entering, w)

    def primal_feasible(self) -> bool:
        vb = self.value[self.basis]
        violation = np.maximum(self.lo[self.basis] - vb, vb - self.hi[self.basis])
        return bool(np.all(violation <= _PRIMAL_TOL))

    def dual_feasible(self, c: np.ndarray) -> bool:
        d = self.reduced_costs(c)
        movable = (self.status != _BASIC) & ((self.hi - self.lo) > _PIV_TOL)
        bad = movable & (
            ((self.status == _AT_LOWER) & (d < -_DUAL_TOL))
            | ((self.status == _AT_UPPER) & (d > _DUAL_TOL))
            | ((self.status == _FREE) & (np.abs(d) > _DUAL_TOL)))
        return not bad.any()

    def dual_iterate(self, c: np.ndarray, iter_budget: int) -> tuple[str, int]:
        """Bounded dual simplex from a dual feasible basis until the basics
        are within their bounds.  Returns (feasible | infeasible | stalled |
        time-limit | iteration-limit, pivots); "stalled" means a run of
        degenerate pivots or a vanishing pivot element."""
        iters = 0
        degenerate_run = 0
        movable = (self.hi - self.lo) > _PIV_TOL
        while True:
            vb = self.value[self.basis]
            below = self.lo[self.basis] - vb
            above = vb - self.hi[self.basis]
            violation = np.maximum(below, above)
            row = int(np.argmax(violation))  # first max = lowest row position
            if violation[row] <= _PRIMAL_TOL:
                return "feasible", iters
            if iters >= iter_budget:
                return "iteration-limit", iters
            if self.out_of_time():
                return "time-limit", iters
            rise = below[row] > 0  # the leaving basic goes up to its lower bound

            d = self.reduced_costs(c)
            alpha = self.Binv[row] @ self.A
            # a > 0: raising x_j moves the leaving basic toward its bound
            a = -alpha if rise else alpha
            nonbasic = (self.status != _BASIC) & movable
            at_lower = nonbasic & (self.status == _AT_LOWER)
            at_upper = nonbasic & (self.status == _AT_UPPER)
            free = nonbasic & (self.status == _FREE)
            # how far a unit move of each nonbasic, in its allowed direction,
            # brings the leaving basic toward its bound
            reach = np.where(at_lower, a, np.where(at_upper, -a,
                                                   np.where(free, np.abs(a), 0.0)))
            eligible = reach > _DUAL_PIV_TOL
            if not eligible.any():
                # no nonbasic can repair the row: infeasible, unless the only
                # candidates were pivots too small to trust
                return ("stalled" if (reach > _PIV_TOL).any() else "infeasible"), iters
            slack = np.where(at_upper, -d, np.where(free, np.abs(d), d))
            with np.errstate(invalid="ignore", divide="ignore"):
                theta_max = float(np.min(np.where(eligible, (slack + _DUAL_TOL) / reach, math.inf)))
                within = eligible & (slack / reach <= theta_max)
            # Harris: among near-minimal ratios take the largest pivot, lowest index
            entering = int(np.argmax(np.where(within, reach, -1.0)))
            theta = max(float(slack[entering]), 0.0) / reach[entering]

            w = self.Binv @ self.A[:, entering]
            degenerate_run = degenerate_run + 1 if theta <= _DEGENERATE_STEP else 0
            if abs(w[row]) <= _PIV_TOL or degenerate_run >= _DEGENERATE_LIMIT:
                return "stalled", iters
            iters += 1

            leaving = int(self.basis[row])
            bound = self.lo[leaving] if rise else self.hi[leaving]
            step = (vb[row] - bound) / w[row]
            self.value[self.basis] = vb - step * w
            self.value[entering] += step
            self.value[leaving] = bound
            self.status[leaving] = _AT_LOWER if rise else _AT_UPPER
            self.pivot(row, entering, w)

    def snapshot(self, n_struct: int) -> LpBasis:
        return LpBasis(self.A, self.lo[n_struct:].copy(), self.hi[n_struct:].copy(),
                       self.basis.copy(), self.status.copy())


def simplex_solve(A: np.ndarray, relations: list[str], rhs: np.ndarray,
                  c: np.ndarray, lo: np.ndarray, hi: np.ndarray,
                  warm: LpBasis | None = None,
                  deadline: float | None = None) -> LpResult:
    """Minimize c'x subject to A x (rel) rhs and lo <= x <= hi.

    Returns structural variable values only.  ``infeasible_rows`` lists the
    0-based indices of constraints whose artificial variables stay positive at
    the phase-1 optimum (an infeasibility certificate for diagnostics).  An
    optimal result carries its basis, which a later call may pass as ``warm``
    when it changes only the bounds ``lo``/``hi``, the objective ``c`` or the
    ``rhs``; after rows are appended, pass ``basis.with_rows(A, relations)``.
    ``deadline`` is a ``time.perf_counter()`` value checked before every
    pivot.
    """
    used = 0
    try:
        if warm is not None:
            result = _warm_solve(warm, rhs, c, lo, hi, deadline)
            if result.status != "stalled":
                return result
            used = result.iterations
        return _cold_solve(A, relations, rhs, c, lo, hi, deadline, used)
    except np.linalg.LinAlgError:
        return LpResult("singular-basis", None, math.nan, used)


def _cost(c: np.ndarray, ncols: int) -> np.ndarray:
    full = np.zeros(ncols)
    full[:c.size] = c
    return full


def _finish(tab: _Tableau, c: np.ndarray, n: int, iters: int) -> LpResult:
    """Primal phase 2 from a primal feasible basis; ``iters`` pivots are
    already spent."""
    status, more = tab.iterate(_cost(c, tab.ncols), _MAX_ITERATIONS - iters)
    iters += more
    if status != "optimal":
        objective = -math.inf if status == "unbounded" else math.nan
        return LpResult(status, None, objective, iters)
    x = tab.value[:n].copy()
    return LpResult("optimal", x, float(c @ x), iters, basis=tab.snapshot(n))


def _warm_solve(warm: LpBasis, rhs, c, lo, hi, deadline) -> LpResult:
    """Primal phase 2 from ``warm`` if its basics are within their bounds,
    else the dual simplex from it if it is dual feasible; status "stalled"
    asks for a cold solve."""
    n = lo.size
    tab = _Tableau(warm.columns, rhs, np.concatenate([lo, warm.lo_tail]),
                   np.concatenate([hi, warm.hi_tail]), deadline)
    status = warm.status.copy()
    at_lower = status == _AT_LOWER
    at_upper = status == _AT_UPPER
    if not (np.isfinite(tab.lo[at_lower]).all() and np.isfinite(tab.hi[at_upper]).all()):
        return LpResult("stalled", None, math.nan, 0)
    tab.status = status
    tab.value = np.where(at_lower, tab.lo, np.where(at_upper, tab.hi, 0.0))
    tab.set_basis(warm.basis.copy())
    iters = 0
    if not tab.primal_feasible():
        c_full = _cost(c, tab.ncols)
        if not tab.dual_feasible(c_full):
            return LpResult("stalled", None, math.nan, 0)
        state, iters = tab.dual_iterate(c_full, _MAX_ITERATIONS)
        if state != "feasible":
            return LpResult(state, None, math.nan, iters)
        tab.refresh_basics()
    return _finish(tab, c, n, iters)


def _cold_solve(A, relations, rhs, c, lo, hi, deadline, used: int) -> LpResult:
    """Two-phase primal simplex from a slack/artificial basis; ``used``
    pivots are already spent."""
    m, n = A.shape
    slack_lo, slack_hi = _slack_bounds(relations)

    columns = np.hstack([A, np.eye(m)])
    full_lo = np.concatenate([lo, slack_lo])
    full_hi = np.concatenate([hi, slack_hi])

    # Every structural starts nonbasic at a finite bound (or 0 if free).
    start_vals, _ = _start_values(lo, hi)
    slack_start = rhs - A @ start_vals

    art_cols: list[np.ndarray] = []
    art_rows: list[int] = []
    basis: list[int] = []
    n_plain = columns.shape[1]
    for i in range(m):
        v = slack_start[i]
        if slack_lo[i] - _PIV_TOL <= v <= slack_hi[i] + _PIV_TOL:
            basis.append(n + i)
        else:
            bound = slack_lo[i] if v < slack_lo[i] else slack_hi[i]
            sigma = 1.0 if v - bound > 0 else -1.0
            col = np.zeros(m)
            col[i] = sigma
            art_cols.append(col)
            art_rows.append(i)
            basis.append(n_plain + len(art_cols) - 1)

    if not art_cols:
        tab = _Tableau(columns, rhs, full_lo, full_hi, deadline)
        tab.set_basis(basis)
        return _finish(tab, c, n, used)

    ext = np.hstack([columns, np.column_stack(art_cols)])
    ext_lo = np.concatenate([full_lo, np.zeros(len(art_cols))])
    ext_hi = np.concatenate([full_hi, np.full(len(art_cols), math.inf)])
    tab = _Tableau(ext, rhs, ext_lo, ext_hi, deadline)
    tab.set_basis(basis)
    c_phase1 = np.zeros(ext.shape[1])
    c_phase1[n_plain:] = 1.0
    status, more = tab.iterate(c_phase1, _MAX_ITERATIONS - used)
    iters = used + more
    if status in ("time-limit", "iteration-limit"):
        return LpResult(status, None, math.nan, iters)
    art_values = tab.value[n_plain:]
    if status != "optimal" or art_values.sum() > 1e-7:
        bad = tuple(art_rows[k] for k in range(len(art_cols)) if art_values[k] > 1e-7)
        return LpResult("infeasible", None, math.nan, iters, bad)
    # freeze artificials at zero so they can never carry value again
    tab.lo[n_plain:] = 0.0
    tab.hi[n_plain:] = 0.0
    return _finish(tab, c, n, iters)

