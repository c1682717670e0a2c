import copy
import itertools
import json
import math
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import linprog

from conftest import BINDING_DEMANDS, BINDING_TOPOLOGY, add_row, make_instance
import otnplan
from otnplan import planner
from otnplan.formulation import (PROTECTION, WORKING, ExclusionSets, ProtectionContext,
                                 build_logical_design)
from otnplan.milp import (MilpModel, ModelError, branch_bound, check_solution, emit_lp_file,
                          simplex, solve_milp)
from otnplan.milp.simplex import simplex_solve
from otnplan.modes import SurvivabilityMode


def root_lp(model):
    """The LP relaxation of ``model`` solved from the slack basis, as the
    branch-and-bound root solves it before any cut."""
    arrays = branch_bound._Arrays(model)
    return simplex_solve(arrays.A, arrays.relations, arrays.rhs, arrays.c, arrays.lo,
                         arrays.hi)


def highs(A, rels, b, c, lo, hi):
    """The same LP solved by scipy's HiGHS, the reference."""
    rels = np.asarray(rels, dtype=object)
    sign = np.where(rels == ">=", -1.0, 1.0)
    ub, eq = rels != "=", rels == "="
    return linprog(c, A_ub=(sign[:, None] * A)[ub] if ub.any() else None,
                   b_ub=(sign * b)[ub] if ub.any() else None,
                   A_eq=A[eq] if eq.any() else None, b_eq=b[eq] if eq.any() else None,
                   bounds=[(None if math.isinf(l) else l, None if math.isinf(h) else h)
                           for l, h in zip(lo, hi)], method="highs")


class TestSolveLp:
    def test_simple_bound(self):
        m = MilpModel("min-x")
        x = m.add_variables(["x"], objective=3.0)[0]
        add_row(m, "floor", [(x, 2.0)], ">=", 1.0)
        sol = solve_milp(m)
        assert sol.status == "optimal"
        assert sol.objective == pytest.approx(3.0)
        assert root_lp(m).objective == pytest.approx(1.5)

    def test_infeasible(self):
        m = MilpModel("infeasible")
        x = m.add_variables(["x"], objective=1.0)[0]
        add_row(m, "ge", [(x, 1.0)], ">=", 1.0)
        add_row(m, "le", [(x, 1.0)], "<=", 0.0)
        sol = solve_milp(m)
        assert sol.status == "infeasible"
        assert sol.infeasible_rows  # names the offending rows

    def test_no_rows(self):
        # bounds alone: each variable sits at the bound its cost prefers
        m = MilpModel("bounds-only")
        m.add_variables(["a", "b", "c"], [0, 0, 1], [1, 1, 1], [1.0, -1.0, 0.0])
        sol = solve_milp(m)
        assert sol.status == "optimal"
        assert [sol.value(v) for v in range(3)] == [0.0, 1.0, 1.0]
        assert sol.objective == -1.0

    @pytest.mark.parametrize("lower, upper", [
        (math.nan, 1.0), (0.0, math.nan), (-math.inf, 1.0), (0.0, math.inf),
        (math.inf, 1.0), (0.0, -math.inf), (-0.5, 1.0), (0.0, 1.5), (1.0, 0.0)],
        ids=["nan-lower", "nan-upper", "-inf-lower", "inf-upper", "inf-lower",
             "-inf-upper", "negative-lower", "upper-above-1", "lower-above-upper"])
    def test_bounds_outside_the_unit_box_are_rejected(self, lower, upper):
        m = MilpModel("bad-bounds")
        with pytest.raises(ModelError, match="must lie inside"):
            m.add_variables(["x"], lower, upper)
        assert not m.variables
        m.add_variables(["x"])  # the name was not taken

    def test_undeclared_variable_rejected(self):
        m = MilpModel("broken")
        m.add_variables(["x"], objective=1.0)
        with pytest.raises(ModelError):
            add_row(m, "bad", [(7, 1.0)], "<=", 1.0)

    def test_negative_variable_id_rejected(self):
        m = MilpModel("broken")
        m.add_variables(["x"], objective=1.0)
        with pytest.raises(ModelError, match="undeclared variable id -1"):
            add_row(m, "bad", [(0, 1.0), (-1, 1.0)], "<=", 1.0)

    def test_undeclared_variable_with_zero_coefficient_rejected(self):
        m = MilpModel("broken")
        m.add_variables(["x"], objective=1.0)
        with pytest.raises(ModelError, match="undeclared variable id 1"):
            add_row(m, "bad", [(0, 1.0), (1, 0.0)], "<=", 1.0)

    def test_one_pass_generator_keeps_every_term(self):
        m = MilpModel("generator")
        ids = m.add_variables(["x0", "x1", "x2"], objective=1.0)
        add_row(m, "sum", ((vid, vid + 1) for vid in ids), "<=", 4)
        assert m.constraints[0].terms == ((0, 1.0), (1, 2.0), (2, 3.0))

    def test_records_are_read_only(self):
        m = MilpModel("records")
        x = m.add_variables(["x"], objective=2.0)[0]
        add_row(m, "cap", [(x, 3.0)], "<=", 2.0)
        assert m.variables == ((x, "x", 0.0, 1.0, 2.0),)
        assert m.constraints == (("cap", ((x, 3.0),), "<=", 2.0),)
        with pytest.raises(AttributeError):
            m.variables[x].upper = 0.0
        with pytest.raises(AttributeError):
            m.constraints[0].rhs = 0.0

    def test_failed_row_leaves_the_model_as_it_was(self):
        m = MilpModel("atomic")
        x, y = m.add_variables(["x", "y"], objective=[1.0, 0.0])
        add_row(m, "first", [(x, 1.0), (y, 2.0)], ">=", 1.0)
        before = (len(m.row_names), len(m.indices), emit_lp_file(m))
        with pytest.raises(ModelError, match="undeclared variable id 5"):
            add_row(m, "broken", [(y, 1.0), (x, 3.0), (5, 1.0)], "<=", 1.0)
        assert (len(m.row_names), len(m.indices), emit_lp_file(m)) == before
        add_row(m, "next", [(y, 4.0)], "<=", 3.0)
        assert m.constraints[-1] == ("next", ((y, 4.0),), "<=", 3.0)
        assert (m.indptr, m.indices, m.coefs) == ([0, 2, 3], [x, y, y], [1.0, 2.0, 4.0])

    def test_dense_snapshot_adds_repeated_terms_in_order(self):
        """The snapshot equals a loop that adds each stored term to its cell
        in order, bit for bit, including the rows appended later."""
        rng = np.random.default_rng(5)
        m = MilpModel("repeats")
        m.add_variables([f"x{j}" for j in range(6)])
        for r in range(8):
            add_row(m, f"r{r}", [(int(rng.integers(6)), float(rng.normal()))
                                       for _ in range(int(rng.integers(0, 12)))], "<=", 1.0)
        arrays = branch_bound._Arrays(m)
        arrays.append(m, ["extra"], [0.0], [4], [1, 1, 4, 1], [0.1, 0.2, -1.0, 0.3])
        reference = np.zeros((len(m.row_names), len(m.names)))
        for row, con in enumerate(m.constraints):
            for vid, coef in con.terms:
                reference[row, vid] += coef
        assert arrays.A.tobytes() == reference.tobytes()
        assert arrays.A[-1, 1] == 0.1 + 0.2 + 0.3

    def test_snapshot_grows_one_matrix_with_slacks(self):
        """Appended rows go into the spare rows of one ``[A | I]``, which
        doubles when they run out; a view taken before an append keeps its
        rows."""
        m = MilpModel("grow")
        m.add_variables([f"x{j}" for j in range(4)])
        for r in range(3):
            add_row(m, f"r{r}", [(r, 1.0), (r + 1, 2.0)], "<=", 1.0)
        arrays = branch_bound._Arrays(m)
        first = arrays.columns
        kept = first.copy()
        grids = []
        for k in (1, 2, 3):
            arrays.append(m, [f"a{k}_{i}" for i in range(k)], [0.0] * k, [1] * k,
                          list(range(k)), [float(k)] * k)
            grids.append(arrays._grid.shape)
        assert grids == [(6, 10), (6, 10), (12, 16)]
        reference = np.zeros((len(m.row_names), len(m.names)))
        for row, con in enumerate(m.constraints):
            for vid, coef in con.terms:
                reference[row, vid] += coef
        assert np.array_equal(arrays.A, reference)
        assert np.array_equal(arrays.columns, np.hstack([reference, np.eye(9)]))
        assert np.array_equal(first, kept)

    @pytest.mark.parametrize("objective", [math.nan, math.inf, -math.inf],
                             ids=["nan", "inf", "-inf"])
    def test_non_finite_objective_is_rejected(self, objective):
        m = MilpModel("bad-objective")
        with pytest.raises(ModelError, match=f"variable 'x' objective {objective} is not finite"):
            m.add_variables(["x"], objective=objective)
        assert not m.names
        m.add_variables(["x"])  # the name was not taken

    def test_non_finite_stage_objective_is_rejected(self):
        m = MilpModel("bad-stage")
        x, y = m.add_variables(["x", "y"], objective=[1.0, 2.0])
        add_row(m, "one", [(x, 1.0), (y, 1.0)], ">=", 1.0)
        with pytest.raises(ModelError, match="variable 'y' objective nan is not finite"):
            m.set_objective({x: 1.0, y: math.nan})
        assert m.objective == [1.0, 2.0]
        with pytest.raises(ModelError, match="variable 'x' objective inf is not finite"):
            solve_milp(m, stages=[({x: math.inf}, 0.0, 0.0)])

    @pytest.mark.parametrize("terms, rhs, message", [
        ([(0, math.inf)], 1.0, "coefficient inf of variable 'x' is not finite"),
        ([(0, 1.0), (1, -math.inf)], 1.0, "coefficient -inf of variable 'y' is not finite"),
        ([(1, 2.0), (0, math.nan)], 1.0, "coefficient nan of variable 'x' is not finite"),
        ([(0, 1.0)], math.nan, "rhs nan is not finite"),
        ([(0, 1.0), (1, 1.0)], math.inf, "rhs inf is not finite"),
        ([], -math.inf, "rhs -inf is not finite"),
    ], ids=["inf-coef", "-inf-coef", "nan-coef", "nan-rhs", "inf-rhs", "empty-row-rhs"])
    def test_non_finite_row_is_rejected(self, terms, rhs, message):
        m = MilpModel("bad-row")
        x, y = m.add_variables(["x", "y"], objective=[1.0, 0.0])
        add_row(m, "good", [(x, 1.0)], ">=", 1.0)
        with pytest.raises(ModelError, match=re.escape(f"constraint 'bad': {message}")):
            add_row(m, "bad", terms, ">=", rhs)
        assert (m.row_names, m.indptr, m.indices, m.coefs) == (["good"], [0, 1], [x], [1.0])

    def test_finite_numbers_whose_sum_overflows_are_kept(self):
        m = MilpModel("huge")
        x, y = m.add_variables(["x", "y"])
        add_row(m, "big", [(x, 1e308), (y, 1e308)], "<=", 1e308)
        m.set_objective({x: 1e308, y: 1e308})
        assert m.coefs == [1e308, 1e308] and m.objective == [1e308, 1e308]

    def test_check_solution_reports_non_finite_value(self):
        m = MilpModel("nan")
        x = m.add_variables(["x"], objective=1.0)[0]
        add_row(m, "cap", [(x, 1.0)], "<=", 1.0)
        assert check_solution(m, {x: math.nan}) == (
            "variable x = nan is not finite", "constraint cap: nan is not finite")

    def test_random_lps_match_scipy(self):
        rng = np.random.default_rng(3)
        for _ in range(60):
            n = int(rng.integers(2, 6))
            rows = int(rng.integers(1, 5))
            A = np.round(rng.uniform(-4, 4, (rows, n)), 1)
            b = np.round(rng.uniform(-2, 6, rows), 1)
            c = np.round(rng.uniform(-3, 3, n), 1)
            rels = list(rng.choice(["<=", ">=", "="], rows, p=[0.5, 0.3, 0.2]))
            hi = np.where(rng.random(n) < 0.7, rng.uniform(1, 5, n).round(1), 10.0)
            ours = simplex_solve(A, rels, b, c, np.zeros(n), hi)
            ref = highs(A, rels, b, c, np.zeros(n), hi)
            assert ours.status == {0: "optimal", 2: "infeasible"}[ref.status]
            if ref.status == 0:
                assert ours.objective == pytest.approx(ref.fun, abs=1e-6, rel=1e-6)


def model_state(m):
    """Everything a model holds, and the id ``var_id`` gives each name."""
    return (list(m.names), list(m.lower), list(m.upper), list(m.objective),
            [m.var_id(name) for name in m.names], list(m.row_names), list(m.relations),
            list(m.rhs), list(m.indptr), list(m.indices), list(m.coefs), emit_lp_file(m))


class TestAddVariables:
    def test_block_appends_columns_with_consecutive_ids(self):
        m = MilpModel("blocks")
        assert m.add_variables(["a"], objective=2.0) == [0]
        assert m.add_variables(["b", "c", "d"], upper=[1.0, 0.0, 1.0],
                               objective=[1.0, 2.0, 3.0]) == [1, 2, 3]
        assert m.add_variables([]) == []
        assert m.variables == ((0, "a", 0.0, 1.0, 2.0), (1, "b", 0.0, 1.0, 1.0),
                               (2, "c", 0.0, 0.0, 2.0), (3, "d", 0.0, 1.0, 3.0))
        assert [m.var_id(name) for name in "abcd"] == [0, 1, 2, 3]

    @pytest.mark.parametrize("names, lower, upper, objective, message", [
        (["y", "z", "y"], 0.0, 1.0, 0.0, "duplicate variable name 'y'"),
        (["y", "x"], 0.0, 1.0, 0.0, "duplicate variable name 'x'"),
        (["y", "z"], [0.0, math.nan], 1.0, 0.0, r"variable 'z' bounds \[nan, 1.0\]"),
        (["y", "z"], 0.0, [math.nan, 1.0], 0.0, r"variable 'y' bounds \[0.0, nan\]"),
        (["y", "z"], 0.0, [1.0, 1.5], 0.0, r"variable 'z' bounds \[0.0, 1.5\]"),
        (["y", "z"], [-0.5, 0.0], 1.0, 0.0, r"variable 'y' bounds \[-0.5, 1.0\]"),
        (["y", "z"], [0.0, 1.0], [1.0, 0.0], 0.0, r"variable 'z' bounds \[1.0, 0.0\]"),
        (["y", "z"], 0.0, math.inf, 0.0, r"variable 'y' bounds \[0.0, inf\]"),
        (["y", "z"], 0.0, 1.0, [1.0, math.inf], "variable 'z' objective inf is not finite"),
        (["y", "z"], 0.0, 1.0, math.nan, "variable 'y' objective nan is not finite"),
        (["y", "z"], 0.0, 1.0, [1.0], "1 numbers given for a block of 2 columns"),
    ], ids=["repeat-in-block", "repeat-of-earlier", "nan-lower", "nan-upper",
            "upper-above-1", "negative-lower", "lower-above-upper", "inf-upper",
            "inf-objective", "nan-objective", "short-objective"])
    def test_failed_block_leaves_the_model_as_it_was(self, names, lower, upper, objective,
                                                     message):
        m = MilpModel("atomic-block")
        x, w = m.add_variables(["x", "w"], objective=[1.0, 2.0])
        add_row(m, "row", [(x, 1.0), (w, -1.0)], "<=", 0.0)
        before = model_state(m)
        with pytest.raises(ModelError, match=message):
            m.add_variables(names, lower, upper, objective)
        assert model_state(m) == before
        # nothing of the failed block was kept: its names are unknown and free
        for name in sorted(set(names) - {"x", "w"}):
            with pytest.raises(ModelError, match=f"unknown variable name '{name}'"):
                m.var_id(name)
        assert m.add_variables(["z"]) == [2] and m.add_variables(["y"]) == [3]
        assert [m.var_id(name) for name in "xwzy"] == [0, 1, 2, 3]


class TestAddRows:
    def test_block_appends_rows_without_zero_terms(self):
        m = MilpModel("rows")
        x, y, z = m.add_variables(["x", "y", "z"])
        m.add_rows(["a", "b", "c", "d"], "<=", [1.0, 2, 0.0, 3.5], [2, 0, 3, 1],
                   [x, y, x, z, y, z], [1.0, -2.0, 0.0, 4, 0.0, 1e-9])
        m.add_rows(["e"], ">=", 1.0, [3], [z, y, x], 1.0)
        m.add_rows([], "=", 0.0, [], [], 1.0)
        assert m.constraints == (
            ("a", ((x, 1.0), (y, -2.0)), "<=", 1.0), ("b", (), "<=", 2.0),
            ("c", ((z, 4.0),), "<=", 0.0), ("d", ((z, 1e-9),), "<=", 3.5),
            ("e", ((z, 1.0), (y, 1.0), (x, 1.0)), ">=", 1.0))
        assert m.indptr == [0, 2, 2, 3, 4, 7]
        assert all(type(number) is float for number in m.coefs + m.rhs)

    @pytest.mark.parametrize("relation, rhs, lengths, indices, coefs, message", [
        ("<=", 1.0, [2, 1], [0, 5, 1], 1.0, "constraint 'p' references undeclared variable id 5"),
        ("<=", 1.0, [2, 1], [0, 1, -1], 1.0, "constraint 'q' references undeclared variable id -1"),
        ("<=", 1.0, [2, 1], [0, 1, 2], [1.0, 0.0, 1.0],
         "constraint 'q' references undeclared variable id 2"),
        ("<=", 1.0, [2, 1], [0, 1, 1], [1.0, 1.0, math.nan],
         "constraint 'q': coefficient nan of variable 'w' is not finite"),
        ("<=", 1.0, [2, 1], [0, 1, 1], [1.0, -math.inf, 1.0],
         "constraint 'p': coefficient -inf of variable 'w' is not finite"),
        ("=", [1.0, math.inf], [2, 1], [0, 1, 1], 1.0, "constraint 'q': rhs inf is not finite"),
        (">=", math.nan, [2, 1], [0, 1, 1], 1.0, "constraint 'p': rhs nan is not finite"),
        ("<", 1.0, [2, 1], [0, 1, 1], 1.0, "unknown relation '<'"),
        ("<=", 1.0, [2, 2], [0, 1, 1], 1.0, r"row lengths \[2, 2\] do not split 3 terms"),
        ("<=", 1.0, [3], [0, 1, 1], 1.0, r"row lengths \[3\] do not split 3 terms into 2 rows"),
        ("<=", 1.0, [4, -1], [0, 1, 1], 1.0, r"row lengths \[4, -1\] do not split"),
        ("<=", [1.0], [2, 1], [0, 1, 1], 1.0, "1 numbers given for a block of 2 rows"),
        ("<=", 1.0, [2, 1], [0, 1, 1], [1.0, 1.0], "2 numbers given for a block of 3 terms"),
    ], ids=["undeclared-id", "negative-id", "undeclared-id-zero-coefficient", "nan-coefficient",
            "inf-coefficient", "inf-rhs", "nan-rhs", "unknown-relation", "lengths-over",
            "lengths-of-one-row", "negative-length", "short-rhs", "short-coefficients"])
    def test_failed_block_leaves_the_model_as_it_was(self, relation, rhs, lengths, indices,
                                                     coefs, message):
        m = MilpModel("atomic-rows")
        x, w = m.add_variables(["x", "w"], objective=[1.0, 2.0])
        m.add_rows(["first"], "<=", 1.0, [2], [x, w], [1.0, -1.0])
        before = model_state(m)
        with pytest.raises(ModelError, match=message):
            m.add_rows(["p", "q"], relation, rhs, lengths, indices, coefs)
        assert model_state(m) == before
        m.add_rows(["p", "q"], "<=", 1.0, [2, 1], [x, w, w], 1.0)
        assert m.row_names == ["first", "p", "q"] and m.indptr == [0, 2, 4, 5]


def knapsack_model():
    m = MilpModel("knapsack")
    xs = m.add_variables(["x0", "x1", "x2"], objective=[-5.0, -4.0, -3.0])
    add_row(m, "cap", [(xs[0], 2.0), (xs[1], 3.0), (xs[2], 1.0)], "<=", 5.0)
    return m


class TestSolveMilp:
    def test_cover(self):
        m = MilpModel("cover")
        x, y = m.add_variables(["x", "y"], objective=1.0)
        add_row(m, "one", [(x, 1.0), (y, 1.0)], ">=", 1.0)
        sol = solve_milp(m, gap=0.0)
        assert sol.status == "optimal"
        assert sol.objective == pytest.approx(1.0)

    def test_time_limit_zero(self):
        sol = solve_milp(knapsack_model(), gap=0.0, time_limit=0)
        assert sol.status == "time-limit"
        assert not sol.has_incumbent

    def test_incumbent_passes_independent_checker(self):
        m = knapsack_model()
        sol = solve_milp(m, gap=0.0)
        assert sol.status == "optimal"
        assert not check_solution(m, sol.values)
        assert sol.objective >= sol.best_bound - 1e-9

    def test_deterministic_nodes_and_values(self):
        runs = [solve_milp(knapsack_model(), gap=0.0) for _ in range(2)]
        assert runs[0].values == runs[1].values
        assert runs[0].stats.nodes == runs[1].stats.nodes
        assert runs[0].stats.lp_iterations == runs[1].stats.lp_iterations

    def test_empty_constraint_presolve(self):
        m = MilpModel("empty-rows")
        m.add_variables(["x"], objective=1.0)
        add_row(m, "fine", [], "<=", 2.0)
        assert solve_milp(m).status == "optimal"
        m2 = MilpModel("contradiction")
        m2.add_variables(["x"], objective=1.0)
        add_row(m2, "impossible", [], ">=", 1.0)
        sol = solve_milp(m2)
        assert sol.status == "infeasible"
        assert sol.infeasible_rows == ("impossible",)

    def test_gap_stop_reports_achieved_gap(self):
        rng = np.random.default_rng(8)
        n = 14
        c = -np.round(rng.uniform(1, 9, n), 1)
        w = np.round(rng.uniform(1, 9, n), 1)
        m = MilpModel("loose")
        ids = m.add_variables([f"x{i}" for i in range(n)], objective=c)
        add_row(m, "cap", [(ids[i], w[i]) for i in range(n)], "<=", float(w.sum() / 3))
        sol = solve_milp(m, gap=0.25)
        assert sol.status in ("optimal", "feasible-with-gap")
        assert sol.gap <= 0.25 + 1e-9

    def test_exhaustive_agreement_small(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            n = int(rng.integers(2, 10))
            rows = int(rng.integers(1, 5))
            A = np.round(rng.uniform(-3, 3, (rows, n)), 1)
            b = np.round(rng.uniform(-1, 5, rows), 1)
            c = np.round(rng.uniform(-4, 4, n), 1)
            rels = rng.choice(["<=", ">=", "="], rows, p=[0.6, 0.3, 0.1])
            m = MilpModel("rb")
            ids = m.add_variables([f"v{i}" for i in range(n)], objective=c)
            for i in range(rows):
                add_row(m, f"c{i}", [(ids[j], A[i, j]) for j in range(n)],
                                 rels[i], b[i])
            sol = solve_milp(m, gap=0.0)
            pts = np.array(list(itertools.product([0, 1], repeat=n)), float)
            lhs = pts @ A.T
            feas = np.ones(len(pts), bool)
            for i in range(rows):
                if rels[i] == "<=":
                    feas &= lhs[:, i] <= b[i] + 1e-9
                elif rels[i] == ">=":
                    feas &= lhs[:, i] >= b[i] - 1e-9
                else:
                    feas &= np.abs(lhs[:, i] - b[i]) <= 1e-9
            if feas.any():
                best = float((pts[feas] @ c).min())
                assert sol.status == "optimal"
                assert sol.objective == pytest.approx(best, abs=1e-7)
            else:
                assert sol.status == "infeasible"


def random_bounded_lp(rng):
    n = int(rng.integers(3, 12))
    rows = int(rng.integers(2, 8))
    A = np.round(rng.uniform(-4, 4, (rows, n)), 1)
    b = np.round(rng.uniform(-2, 8, rows), 1)
    c = np.round(rng.uniform(-3, 3, n), 1)
    rels = list(rng.choice(["<=", ">=", "="], rows, p=[0.5, 0.3, 0.2]))
    hi = np.where(rng.random(n) < 0.7, rng.uniform(1, 5, n).round(1), 10.0)
    return A, rels, b, c, np.zeros(n), hi


def random_integer_lp(rng):
    """A small LP with integer data, so degenerate vertices are common, over
    boxes [base - below, base + above] of width 0 (fixed) to 6."""
    n = int(rng.integers(2, 8))
    rows = int(rng.integers(1, 6))
    A = rng.integers(-3, 4, (rows, n)).astype(float)
    b = rng.integers(-3, 6, rows).astype(float)
    c = rng.integers(-3, 4, n).astype(float)
    rels = list(rng.choice(["<=", ">=", "="], rows, p=[0.5, 0.3, 0.2]))
    below = rng.integers(0, 4, n)
    base = rng.integers(-2, 2, n).astype(float)
    lo = base - below
    hi = base + rng.integers(0, 4, n)
    return A, rels, b, c, lo, hi


@pytest.fixture()
def fixings(monkeypatch):
    """Records each stage boundary's reduced-cost fixing as (pin row rhs,
    ids of the binaries it fixed, their fixed values)."""
    calls = []
    fix = branch_bound._Search.fix

    def spy(search, bound):
        free = search.arrays.lo < search.arrays.hi
        fix(search, bound)
        fixed = np.nonzero(free & (search.arrays.lo == search.arrays.hi))[0]
        calls.append((bound, fixed, search.arrays.lo[fixed].copy()))
    monkeypatch.setattr(branch_bound._Search, "fix", spy)
    return calls


@pytest.fixture()
def cold_calls(monkeypatch):
    """Counts the solves that start from the slack basis."""
    calls = []
    slack_basis = simplex._slack_basis

    def spy(*args):
        calls.append(args)
        return slack_basis(*args)
    monkeypatch.setattr(simplex, "_slack_basis", spy)
    return calls


class TestWarmStart:
    def test_fixing_a_basic_variable_matches_cold_solve(self, cold_calls):
        rng = np.random.default_rng(17)
        outcomes = {"optimal": 0, "infeasible": 0}
        for _ in range(300):
            A, rels, b, c, lo, hi = random_bounded_lp(rng)
            base = simplex_solve(A, rels, b, c, lo, hi)
            basic = [int(j) for j in base.basis.basis if j < lo.size] if base.basis else []
            if base.status != "optimal" or not basic:
                continue
            j = basic[int(rng.integers(len(basic)))]
            fix = float(rng.choice([math.floor(base.x[j]), math.ceil(base.x[j]),
                                    base.x[j] + 1.0]))
            lo2, hi2 = lo.copy(), hi.copy()
            lo2[j] = hi2[j] = min(fix, hi[j])
            del cold_calls[:]
            warm = simplex_solve(A, rels, b, c, lo2, hi2, base.basis)
            assert not cold_calls  # the dual simplex finished the solve
            cold = simplex_solve(A, rels, b, c, lo2, hi2)
            assert warm.status == cold.status
            if cold.status == "optimal":
                assert warm.objective == pytest.approx(cold.objective, abs=1e-7)
            outcomes[cold.status] += 1
        assert outcomes["optimal"] > 50 and outcomes["infeasible"] > 10

    def test_basis_neither_primal_nor_dual_feasible_is_solved_from_itself(
            self, cold_calls, monkeypatch):
        A = np.array([[1.0, 1.0], [1.0, -1.0]])
        rels = ["<=", "<="]
        b = np.array([4.0, 2.0])
        lo, hi = np.zeros(2), np.full(2, 3.0)
        base = simplex_solve(A, rels, b, np.array([-1.0, -2.0]), lo, hi)
        assert base.status == "optimal"
        assert base.x.tolist() == [1.0, 3.0]
        shifted = []
        costs = simplex._Tableau.dual_feasible_costs

        def spy(tab, c):
            out = costs(tab, c)
            shifted.append(not np.array_equal(out[0], c))
            return out
        monkeypatch.setattr(simplex._Tableau, "dual_feasible_costs", spy)
        del cold_calls[:]
        # the basis optimal for maximizing is not dual feasible for minimizing,
        # and x, basic at 1, is out of its new bounds
        hi2 = np.array([0.5, 3.0])
        res = simplex_solve(A, rels, b, np.array([1.0, 2.0]), lo, hi2, base.basis)
        assert not cold_calls
        assert shifted == [True]  # the dual simplex ran on shifted costs
        assert res.status == "optimal"
        assert res.objective == pytest.approx(0.0)

    def test_every_node_after_the_root_is_warm(self, cold_calls):
        sol = solve_milp(knapsack_model(), gap=0.0)
        assert sol.stats.nodes > 1
        assert len(cold_calls) == 1

    def test_appended_row_and_new_objective_stay_warm(self, cold_calls):
        rng = np.random.default_rng(29)
        outcomes = {"optimal": 0}
        for _ in range(300):
            A, rels, b, c, lo, hi = random_bounded_lp(rng)
            base = simplex_solve(A, rels, b, c, lo, hi)
            if base.status != "optimal":
                continue
            # a pin row that the optimum meets, then another objective
            row = np.round(rng.uniform(-4, 4, lo.size), 1)
            A2 = np.vstack([A, row])
            rels2 = rels + ["<="]
            b2 = np.append(b, float(row @ base.x) + float(rng.choice([0.0, 1e-6, 1.0])))
            c2 = np.round(rng.uniform(-3, 3, lo.size), 1)
            del cold_calls[:]
            warm = simplex_solve(A2, rels2, b2, c2, lo, hi, base.basis.with_rows(simplex.with_slacks(A2), rels2))
            assert not cold_calls  # primal phase 2 from the extended basis
            cold = simplex_solve(A2, rels2, b2, c2, lo, hi)
            assert warm.status == cold.status
            if cold.status == "optimal":
                assert warm.objective == pytest.approx(cold.objective, abs=1e-7)
            outcomes[cold.status] += 1
        assert outcomes["optimal"] > 100

    def test_start_gives_the_same_optimum(self, cold_calls, fixings):
        # one call with stages equals separate pinned solves, every stage
        # root after the first starts from the stage before it, and the
        # stage boundaries fix binaries
        rng = np.random.default_rng(31)
        compared = 0
        for _ in range(40):
            n = int(rng.integers(3, 10))
            rows = [(np.round(rng.uniform(-3, 3, n), 1), str(rng.choice(["<=", ">="])),
                     float(np.round(rng.uniform(-1, 5), 1))) for _ in range(rng.integers(1, 5))]
            objectives = [dict(enumerate(np.round(rng.uniform(-4, 4, n), 1))) for _ in range(3)]

            def model():
                m = MilpModel("stages")
                m.add_variables([f"v{i}" for i in range(n)])
                for i, (coefs, rel, rhs) in enumerate(rows):
                    add_row(m, f"c{i}", list(enumerate(coefs)), rel, rhs)
                return m
            del cold_calls[:]
            staged = solve_milp(model(), stages=[(c, 0.0, 1e-6) for c in objectives])
            if staged.stages[0].status != "optimal":
                continue
            assert len(cold_calls) == 1  # the first root; every later one was warm
            separate = model()
            for idx, (c, stage) in enumerate(zip(objectives, staged.stages)):
                separate.set_objective(c)
                sol = solve_milp(separate, gap=0.0)
                assert stage.status == sol.status == "optimal"
                assert stage.objective == pytest.approx(sol.objective, abs=1e-9)
                add_row(separate, f"pin{idx}", list(c.items()), "<=", sol.objective + 1e-6)
            assert staged.values == staged.stages[-1].values
            assert not check_solution(separate, staged.values)
            assert staged.stats.nodes == sum(stage.stats.nodes for stage in staged.stages)
            compared += 1
        assert compared > 15
        assert sum(ids.size for _, ids, _ in fixings) > 0

    def test_one_snapshot_and_one_derivation_per_call(self, monkeypatch):
        calls = {"arrays": 0, "implied": 0}
        per_solve = []
        build, implied = branch_bound._Arrays.__init__, branch_bound._Arrays.implied_bounds

        def counting_build(arrays, model):
            calls["arrays"] += 1
            build(arrays, model)

        def counting_implied(arrays):
            calls["implied"] += 1
            return implied(arrays)

        def counting_solve(*args, **kwargs):
            before = dict(calls)
            sol = solve_milp(*args, **kwargs)
            per_solve.append((calls["arrays"] - before["arrays"],
                              calls["implied"] - before["implied"], len(sol.stages)))
            return sol
        monkeypatch.setattr(branch_bound._Arrays, "__init__", counting_build)
        monkeypatch.setattr(branch_bound._Arrays, "implied_bounds", counting_implied)
        monkeypatch.setattr(planner, "solve_milp", counting_solve)
        # budgets that bind, so that the routing phases are searched too
        inst = make_instance(BINDING_TOPOLOGY, BINDING_DEMANDS, SurvivabilityMode.SINGLE_LAYER)
        planner.plan(inst, planner.PlanOptions(gap=0.0))
        assert len(per_solve) == 4  # one call per phase
        assert all(arrays == 1 and implied <= 1 and stages == 3
                   for arrays, implied, stages in per_solve)
        assert calls["implied"] >= 1


@pytest.fixture()
def inversions(monkeypatch):
    """Records the shape of each basis that ``np.linalg.inv`` inverts."""
    calls = []
    inv = np.linalg.inv

    def spy(B):
        calls.append(B.shape)
        return inv(B)
    monkeypatch.setattr(np.linalg, "inv", spy)
    return calls


class TestCarriedInverse:
    def test_with_rows_extends_the_inverse(self):
        rng = np.random.default_rng(41)
        checked = 0
        for _ in range(200):
            A, rels, b, c, lo, hi = random_bounded_lp(rng)
            base = simplex_solve(A, rels, b, c, lo, hi)
            if base.status != "optimal":
                continue
            k = int(rng.integers(1, 4))
            A2 = np.vstack([A, np.round(rng.uniform(-4, 4, (k, lo.size)), 1)])
            rels2 = rels + list(rng.choice(["<=", ">=", "="], k))
            grown = base.basis.with_rows(simplex.with_slacks(A2), rels2)
            B = grown.columns[:, grown.basis]
            np.testing.assert_allclose(grown.inverse, np.linalg.inv(B), atol=1e-9)
            assert grown.since_refactor == base.basis.since_refactor
            checked += 1
        assert checked > 100

    def test_child_and_later_stage_starts_invert_nothing(self, inversions):
        rng = np.random.default_rng(43)
        children = stages = 0
        for _ in range(300):
            A, rels, b, c, lo, hi = random_bounded_lp(rng)
            base = simplex_solve(A, rels, b, c, lo, hi)
            basic = [int(j) for j in base.basis.basis if j < lo.size] if base.basis else []
            if base.status != "optimal" or not basic:
                continue
            # a branch-and-bound child: a basic structural's bounds closed
            j = basic[int(rng.integers(len(basic)))]
            lo2, hi2 = lo.copy(), hi.copy()
            lo2[j] = hi2[j] = float(rng.choice([math.floor(base.x[j]), math.ceil(base.x[j])]))
            del inversions[:]
            child = simplex_solve(A, rels, b, c, lo2, hi2, base.basis)
            assert not inversions
            cold = simplex_solve(A, rels, b, c, lo2, hi2)
            assert child.status == cold.status
            if cold.status == "optimal":
                assert child.objective == pytest.approx(cold.objective, abs=1e-7)
                children += 1
            # a later stage's root: a pin row appended and a new objective
            row = np.round(rng.uniform(-4, 4, lo.size), 1)
            A2, rels2 = np.vstack([A, row]), rels + ["<="]
            b2 = np.append(b, float(row @ base.x))
            c2 = np.round(rng.uniform(-3, 3, lo.size), 1)
            del inversions[:]
            root = simplex_solve(A2, rels2, b2, c2, lo, hi, base.basis.with_rows(simplex.with_slacks(A2), rels2))
            assert not inversions
            cold = simplex_solve(A2, rels2, b2, c2, lo, hi)
            assert root.status == cold.status
            if cold.status == "optimal":
                assert root.objective == pytest.approx(cold.objective, abs=1e-7)
                stages += 1
        assert children > 50 and stages > 50

    def test_refactorization_counts_on_along_a_lineage(self, inversions, monkeypatch):
        # a child refactorizes once its parent's pivots and its own reach the
        # period, and hands on the pivots made since
        monkeypatch.setattr(simplex, "_REFACTOR_EVERY", 2)
        basis_changes = []
        pivot = simplex._Tableau.pivot

        def counting_pivot(tab, row, entering, w):
            basis_changes.append(row)
            pivot(tab, row, entering, w)
        monkeypatch.setattr(simplex._Tableau, "pivot", counting_pivot)
        rng = np.random.default_rng(47)
        refactored = 0
        for _ in range(200):
            A, rels, b, c, lo, hi = random_bounded_lp(rng)
            base = simplex_solve(A, rels, b, c, lo, hi)
            if base.status != "optimal":
                continue
            hi2 = np.minimum(hi, np.floor(base.x))
            del inversions[:], basis_changes[:]
            child = simplex_solve(A, rels, b, c, lo, hi2, base.basis)
            pivots, refactors = base.basis.since_refactor + len(basis_changes), len(inversions)
            cold = simplex_solve(A, rels, b, c, lo, hi2)
            assert child.status == cold.status
            if cold.status == "optimal":
                assert child.objective == pytest.approx(cold.objective, abs=1e-7)
                assert refactors == pivots // 2
                assert child.basis.since_refactor == pivots % 2
                refactored += refactors > 0
        assert refactored > 20

    def test_updated_dual_reduced_costs_match_fresh_ones(self, monkeypatch):
        compared = []
        dual_iterate = simplex._Tableau.dual_iterate

        def spy(tab, c, d):
            before = tab.pivots
            state = dual_iterate(tab, c, d)
            fresh = c - (c[tab.basis] @ np.linalg.inv(tab.A[:, tab.basis])) @ tab.A
            np.testing.assert_allclose(tab.d, fresh, atol=1e-8)
            compared.append(tab.pivots - before)
            return state
        monkeypatch.setattr(simplex._Tableau, "dual_iterate", spy)
        rng = np.random.default_rng(53)
        for _ in range(300):
            A, rels, b, c, lo, hi = random_bounded_lp(rng)
            base = simplex_solve(A, rels, b, c, lo, hi)
            if base.status != "optimal":
                continue
            # every structural's bounds shrunk around its optimal value
            lo2 = np.maximum(lo, np.ceil(base.x) - 0.5)
            hi2 = np.minimum(hi, np.floor(base.x) + 0.5)
            simplex_solve(A, rels, b, c, lo2, np.maximum(lo2, hi2), base.basis)
        assert sum(pivots >= 2 for pivots in compared) > 30

    def test_shifted_reduced_costs_are_the_fresh_ones_bit_for_bit(self, monkeypatch):
        # the dual simplex starts from the cost shift's own product
        # c_B·B⁻¹·A, which a shift leaves as it was: basic costs never move
        shifts = []
        costs = simplex._Tableau.dual_feasible_costs

        def spy(tab, c):
            shifted, d = costs(tab, c)
            fresh = shifted - (shifted[tab.basis] @ tab.Binv) @ tab.A
            assert np.array_equal(d, fresh)
            shifts.append(not np.array_equal(shifted, c))
            return shifted, d
        monkeypatch.setattr(simplex._Tableau, "dual_feasible_costs", spy)
        rng = np.random.default_rng(59)
        for _ in range(300):
            A, rels, b, c, lo, hi = random_bounded_lp(rng)
            base = simplex_solve(A, rels, b, c, lo, hi)
            if base.status != "optimal":
                continue
            # tighter bounds and a new objective: neither primal nor dual feasible
            hi2 = np.maximum(lo, np.minimum(hi, np.floor(base.x)))
            c2 = np.round(rng.uniform(-3, 3, lo.size), 1)
            simplex_solve(A, rels, b, c2, lo, hi2, base.basis)
        assert sum(shifts) > 30 and len(shifts) > sum(shifts)

    def test_exact_tie_branches_on_the_lower_id(self, monkeypatch):
        model = MilpModel("tie")
        model.add_variables(["x0", "x1"], objective=-1.0)
        add_row(model, "half0", [(0, 2.0)], "<=", 1.0)
        add_row(model, "half1", [(1, 2.0)], "<=", 1.0)
        fixed = []
        solve = branch_bound.simplex_solve

        def spy(A, relations, rhs, c, lo, hi, *args):
            res = solve(A, relations, rhs, c, lo, hi, *args)
            fixed.append(np.nonzero(lo == hi)[0].tolist())
            if len(fixed) == 1:
                assert res.x.tolist() == [0.5, 0.5]
                res.x[0] -= 1e-15  # round-off just below the exact tie
            return res
        monkeypatch.setattr(branch_bound, "simplex_solve", spy)
        sol = solve_milp(model, gap=0.0)
        assert sol.status == "optimal" and sol.objective == 0.0
        assert fixed[1] == [0]


class TestNanViolation:
    @pytest.mark.parametrize("basics, rows", [([math.nan, -1.0, 1.0], [0]),
                                              ([math.nan, 1.0, 1.0], [])],
                             ids=["another-row-violated", "alone"])
    def test_a_nan_row_leaves_only_while_another_row_is_violated(self, basics, rows,
                                                                  monkeypatch):
        # a NaN violation is the largest, so its row leaves first; alone it
        # is not a violation, and the dual simplex ends at once
        class Stop(Exception):
            pass

        def pivot(tab, row, *args):
            left.append(row)
            raise Stop
        left = []
        monkeypatch.setattr(simplex._Tableau, "pivot", pivot)
        A, rels, c = np.array([[1.0, 1.0], [1.0, -1.0], [1.0, 0.0]]), ["<="] * 3, np.ones(2)
        tab = simplex._Tableau(simplex._slack_basis(simplex.with_slacks(A), rels, c),
                               np.ones(3), np.zeros(2), np.ones(2), None)
        tab.refresh_basics()
        tab.xb[:] = basics
        with np.errstate(invalid="ignore", divide="ignore"):
            try:
                state = tab.dual_iterate(*tab.dual_feasible_costs(np.append(c, np.zeros(3))))
            except Stop:
                state = None
        assert left == rows
        assert state == (None if rows else "feasible")


class TestProofsAndTermination:
    def test_infeasible_rows_alone_are_infeasible(self):
        # the named rows with the variable bounds are a proof, not a guess
        rng = np.random.default_rng(41)
        proved = 0
        for _ in range(300):
            A, rels, b, c, lo, hi = random_bounded_lp(rng)
            res = simplex_solve(A, rels, b, c, lo, hi)
            if res.status != "infeasible":
                continue
            rows = list(res.infeasible_rows)
            assert rows
            ref = highs(A[rows], [rels[i] for i in rows], b[rows], np.zeros(lo.size), lo, hi)
            assert ref.status == 2, rows
            proved += 1
        assert proved > 80

    def test_bland_rules_match_highs(self, monkeypatch):
        # every degenerate pivot switches the primal and the dual to Bland
        monkeypatch.setattr(simplex, "_DEGENERATE_LIMIT", 1)
        rng = np.random.default_rng(43)
        outcomes = {"optimal": 0, "infeasible": 0}
        warm_compared = 0
        for _ in range(400):
            A, rels, b, c, lo, hi = random_integer_lp(rng)
            res = simplex_solve(A, rels, b, c, lo, hi)
            ref = highs(A, rels, b, c, lo, hi)
            status = {0: "optimal", 2: "infeasible"}[ref.status]
            assert res.status == status
            outcomes[status] += 1
            if status != "optimal":
                continue
            assert res.objective == pytest.approx(ref.fun, abs=1e-7)
            basic = [int(j) for j in res.basis.basis if j < lo.size]
            if not basic:
                continue
            j = basic[int(rng.integers(len(basic)))]
            lo2, hi2 = lo.copy(), hi.copy()
            lo2[j] = hi2[j] = float(np.clip(math.floor(res.x[j]) + rng.integers(0, 2),
                                            lo[j], hi[j]))
            warm = simplex_solve(A, rels, b, c, lo2, hi2, res.basis)
            cold = simplex_solve(A, rels, b, c, lo2, hi2)
            assert warm.status == cold.status
            if cold.status == "optimal":
                assert warm.objective == pytest.approx(cold.objective, abs=1e-7)
            warm_compared += 1
        assert min(outcomes.values()) > 20 and warm_compared > 50


def _openblas_with_two_cpus() -> bool:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return "openblas" in blas.lower() and (cpus or 1) >= 2


class TestBlasThreads:
    @pytest.mark.skipif(not _openblas_with_two_cpus(),
                        reason="needs OpenBLAS and two CPUs to vary the thread count")
    @pytest.mark.xfail(strict=True, reason="ROADMAP item 5: the dense tableau's matrix "
                       "products run on threaded BLAS, whose sums differ by thread count")
    def test_fixture6_phase_is_the_same_at_one_and_two_blas_threads(self, six_node_fixture,
                                                                    tmp_path):
        # the single-layer protection phase, each plan in a fresh process
        topo, demands = six_node_fixture
        instance = tmp_path / "fixture6.json"
        instance.write_text(json.dumps({
            "nodes": list(topo.nodes), "links": [list(l) for l in topo.links],
            "params": {"C": 10, "W": topo.W, "Q": 1}, "cost_ratio": "CR1",
            "demands": [list(d) for d in demands]}), encoding="utf-8")
        src = str(Path(otnplan.__file__).resolve().parents[1])
        records = {}
        for threads in ("1", "2"):
            out = tmp_path / threads
            env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
                   "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
            subprocess.run([sys.executable, "-m", "otnplan.cli", "plan", "--instance",
                            str(instance), "--mode", "single-layer", "--gap", "0.03",
                            "--output-dir", str(out)], env=env, check=True,
                           capture_output=True)
            config = json.loads(next(out.glob("*.config.json")).read_text(encoding="utf-8"))
            (phase,) = [p for p in config["phases"] if p["name"] == "II-protection-logical"]
            records[threads] = (phase["nodes"], phase["lp_iterations"], phase["objective"])
        assert records["1"][0] > 1
        assert records["1"] == records["2"]


class TestLimitsAndFailures:
    def test_past_deadline_stops_inside_the_lp(self):
        A = np.array([[1.0, 1.0]])
        res = simplex_solve(A, [">="], np.array([1.0]), np.array([1.0, 1.0]),
                            np.zeros(2), np.full(2, 2.0), deadline=time.perf_counter())
        assert res.status == "time-limit"
        assert res.iterations == 0

    def test_fixture6_protection_phase_honours_tiny_time_limit(self, six_node_fixture,
                                                               monkeypatch):
        models = []

        def capture(model, gap=0.0, time_limit=None, stages=None):
            if model.name == "logical-protection" and not models:
                models.append(copy.deepcopy(model))
            return solve_milp(model, gap=gap, time_limit=time_limit, stages=stages)
        monkeypatch.setattr(planner, "solve_milp", capture)
        topo, demands = six_node_fixture
        planner.plan(make_instance(topo, demands, SurvivabilityMode.SINGLE_LAYER),
                     planner.PlanOptions(gap=0.03))
        model = models[0]
        start = time.perf_counter()
        root = root_lp(model)
        root_s = time.perf_counter() - start
        start = time.perf_counter()
        # a quarter of the root LP's own time, so the deadline falls inside
        # it however fast the host and the solver are
        sol = solve_milp(model, gap=0.0, time_limit=root_s / 4)
        elapsed = time.perf_counter() - start
        assert sol.status == "time-limit"
        assert elapsed < 0.5
        # the deadline stopped the root LP part-way
        assert sol.stats.lp_iterations < root.iterations

    def test_iteration_limit_is_a_status(self, monkeypatch):
        monkeypatch.setattr(simplex, "_MAX_ITERATIONS", 0)
        sol = solve_milp(knapsack_model(), gap=0.0)
        assert sol.status == "iteration-limit"
        assert not sol.has_incumbent

    @pytest.mark.parametrize("stages", [[], [({0: 1.0}, 0.0, -1e-6)], [({0: 1.0}, 0.0, math.inf)],
                                        [({0: 1.0}, 0.0, math.nan)]],
                             ids=["none", "negative-pin", "infinite-pin", "nan-pin"])
    def test_malformed_stages_are_rejected(self, stages):
        model = knapsack_model()
        with pytest.raises(ValueError):
            solve_milp(model, stages=stages)
        assert len(model.constraints) == 1

    def test_singular_basis_is_a_status(self, monkeypatch):
        def singular(B):
            raise np.linalg.LinAlgError("Singular matrix")
        # every pivot refactorizes, and every factorization fails
        monkeypatch.setattr(simplex, "_REFACTOR_EVERY", 1)
        monkeypatch.setattr(np.linalg, "inv", singular)
        sol = solve_milp(knapsack_model(), gap=0.0)
        assert sol.status == "singular-basis"
        assert root_lp(knapsack_model()).status == "singular-basis"


def implied_pairs(model):
    return {tuple(pair) for pair in branch_bound._Arrays(model).implied_bounds().tolist()}


def capacity_model(rng):
    """A random binary model: one to three capacity rows sum(w x) <= C y + r
    mixed with one or two dense random rows.  Returns the model and its rows
    as (A, relations, rhs), the costs, for enumeration."""
    n = int(rng.integers(4, 11))
    A, rels, b = [], [], []
    for _ in range(int(rng.integers(1, 4))):
        y = int(rng.integers(n))
        xs = rng.choice([j for j in range(n) if j != y], int(rng.integers(2, min(n, 5))),
                        replace=False)
        row = np.zeros(n)
        row[xs] = rng.integers(1, 8, xs.size)
        row[y] = -float(rng.integers(row.max(), row.sum() + 1))
        A.append(row)
        rels.append("<=")
        b.append(float(rng.integers(0, 3)))
    for _ in range(int(rng.integers(1, 3))):
        A.append(np.round(rng.uniform(-3, 3, n), 1))
        rels.append(str(rng.choice(["<=", ">=", "="], p=[0.6, 0.3, 0.1])))
        b.append(round(float(rng.uniform(-1, 5)), 1))
    A, b = np.array(A), np.array(b)
    c = np.round(rng.uniform(-4, 2, n), 1)
    model = MilpModel("capacity")
    ids = model.add_variables([f"v{j}" for j in range(n)], objective=c)
    for i in range(len(b)):
        add_row(model, f"c{i}", [(ids[j], A[i, j]) for j in range(n)], rels[i], b[i])
    return model, (A, rels, b), c


def feasible_points(A, rels, b):
    pts = np.array(list(itertools.product([0, 1], repeat=A.shape[1])), float)
    lhs = pts @ A.T
    feas = np.ones(len(pts), bool)
    for i, rel in enumerate(rels):
        if rel == "<=":
            feas &= lhs[:, i] <= b[i] + 1e-9
        elif rel == ">=":
            feas &= lhs[:, i] >= b[i] - 1e-9
        else:
            feas &= np.abs(lhs[:, i] - b[i]) <= 1e-9
    return pts[feas]


def staged_binary_model(rng):
    """A random binary model, its rows as (A, relations, rhs) for
    enumeration, and three stages whose costs step by 0.1, so that stages
    tie often, each with a pin tolerance of 0 (half of them), 1e-6 or 0.5.
    Returns a builder of fresh copies of the model, the rows and the
    stages."""
    n = int(rng.integers(6, 11))
    rows = int(rng.integers(2, 6))
    A = np.round(rng.uniform(-3, 3, (rows, n)), 1)
    rels = [str(rel) for rel in rng.choice(["<=", ">="], rows)]
    b = np.round(rng.uniform(-1, 5, rows), 1)
    stages = [(dict(enumerate(rng.integers(-4, 5, n) / 10)), 0.0,
               float(rng.choice([0.0, 0.0, 1e-6, 0.5]))) for _ in range(3)]

    def build():
        model = MilpModel("staged")
        model.add_variables([f"v{j}" for j in range(n)])
        for i in range(rows):
            add_row(model, f"c{i}", list(enumerate(A[i])), rels[i], b[i])
        return model
    return build, (A, rels, b), stages


class TestReducedCostFixing:
    def test_fixed_binaries_keep_their_value_at_every_point_of_later_stages(self, fixings):
        rng = np.random.default_rng(43)
        fixed = solved = 0
        for trial in range(120):
            build, (A, rels, b), stages = staged_binary_model(rng)
            del fixings[:]
            staged = solve_milp(build(), stages=stages)
            reachable = feasible_points(A, rels, b)
            if not reachable.size:
                assert staged.status == "infeasible", trial
                continue
            separate = build()
            for idx, ((objective, _, tolerance), stage) in enumerate(zip(stages, staged.stages)):
                costs = np.array([objective[j] for j in range(A.shape[1])])
                # the stage's optimum over the points that every earlier pin row admits
                best = float((reachable @ costs).min())
                separate.set_objective(objective)
                alone = solve_milp(separate, gap=0.0)
                assert stage.status == alone.status == "optimal", trial
                assert stage.objective == pytest.approx(best, abs=1e-9), trial
                assert alone.objective == pytest.approx(best, abs=1e-9), trial
                add_row(separate, f"pin{idx}", list(objective.items()), "<=",
                                        alone.objective + tolerance)
                if idx == len(stages) - 1:
                    break
                reachable = reachable[reachable @ costs <= best + tolerance + 1e-9]
                bound, ids, values = fixings[idx]
                assert bound == pytest.approx(best + tolerance, abs=1e-9), trial
                assert (reachable[:, ids] == values).all(), trial
                fixed += ids.size
            assert not check_solution(separate, staged.values), trial
            solved += 1
        assert solved > 60 and fixed > 0

    def test_a_binary_that_moves_onto_the_pin_row_stays_free(self, fixings):
        # at stage 0's root, x0 is nonbasic at 0, and z + |d| is the pin
        # row's rhs, -0.2, in exact arithmetic but lands just above it in
        # floating point; stage 0's only optimum has x0 = 1
        row, tie = [0.8, 0.6, -1.3, -2.4], [0.2, -0.3, -0.4, -0.1]
        cost = [0.3, -0.1, -0.4, -0.4]
        m = MilpModel("on-the-pin")
        m.add_variables([f"x{j}" for j in range(4)])
        add_row(m, "row", list(enumerate(row)), ">=", 0.1)
        sol = solve_milp(m, stages=[(dict(enumerate(cost)), 0.0, 0.0),
                                    (dict(enumerate(tie)), 0.0, 1e-6)])
        points = feasible_points(np.array([row]), [">="], np.array([0.1]))
        bound, ids, values = fixings[0]
        pinned = points[points @ cost <= bound + 1e-9]
        assert pinned.tolist() == [[1.0, 1.0, 1.0, 0.0]]
        assert (pinned[:, ids] == values).all()
        assert sol.objective == pytest.approx(float((pinned @ tie).min()), abs=1e-9)


class TestIntegralPointCheck:
    def test_vector_check_agrees_with_check_solution(self):
        """On random models with all three relations and repeated column
        terms, every row and bound of a binary point is met or missed by
        0.5 tolerance, and half the points miss one of them by 1.5."""
        rng = np.random.default_rng(59)
        tol = 1e-6
        verdicts = {True: 0, False: 0}
        for trial in range(300):
            n, rows = int(rng.integers(2, 7)), int(rng.integers(1, 6))
            x = rng.integers(0, 2, n).astype(float)
            out = int(rng.integers(n + rows)) if rng.random() < 0.5 else -1
            miss = [1.5 * tol if k == out else float(rng.choice([0.0, 0.5 * tol]))
                    for k in range(n + rows)]
            m = MilpModel("check")
            m.add_variables([f"x{j}" for j in range(n)],
                            lower=[miss[j] if x[j] == 0 else 0.0 for j in range(n)],
                            upper=[1.0 - miss[j] if x[j] == 1 else 1.0 for j in range(n)])
            for r in range(rows):
                terms = [(int(rng.integers(n)), float(np.round(rng.uniform(-3, 3), 2)))
                         for _ in range(int(rng.integers(1, 2 * n)))]
                lhs = sum(coef * x[vid] for vid, coef in terms)
                relation = str(rng.choice(["<=", ">=", "="]))
                by = miss[n + r]
                if relation != "=" and by == 0.0 and rng.random() < 0.5:
                    by = -1.0  # a slack row
                sign = {"<=": -1.0, ">=": 1.0, "=": float(rng.choice([-1.0, 1.0]))}[relation]
                add_row(m, f"r{r}", terms, relation, lhs + sign * by)
            expected = out < 0
            assert (not check_solution(m, dict(enumerate(x.tolist())))) is expected, trial
            assert branch_bound._Arrays(m).feasible(x) is expected, trial
            verdicts[expected] += 1
        assert min(verdicts.values()) > 100


class TestImpliedBoundCuts:
    def test_capacity_rows_give_one_pair_per_unblocked_delta(self, ring4):
        inst = make_instance(ring4, [(0, 2, 10), (1, 3, 6)], SurvivabilityMode.SINGLE_LAYER)
        context = ProtectionContext(protected=inst.traffic, interface_usage={},
                                    exclusions=ExclusionSets(
                                        lsp_nodes={0: frozenset({1}), 1: frozenset()}))
        for model, varmap in (build_logical_design(inst, WORKING),
                              build_logical_design(inst, PROTECTION, context)):
            unblocked = {key: vid for key, vid in varmap.delta.items()
                         if model.variables[vid].upper == 1.0}
            expected = {(vid, varmap.beta[(min(i, j), max(i, j), q)])
                        for (_k, i, j, q), vid in unblocked.items()}
            assert implied_pairs(model) == expected
        assert len(unblocked) < len(varmap.delta)  # the protection plane blocks some

    def test_rows_that_imply_nothing(self):
        m = MilpModel("nothing")
        x, y, z = m.add_variables(["x", "y", "z"])
        off = m.add_variables(["off"], upper=0.0)[0]
        add_row(m, "two-negative", [(x, 2.0), (y, -1.0), (z, -1.0)], "<=", 0.0)
        add_row(m, "absorbed", [(x, 2.0), (y, -3.0)], "<=", 2.0)
        add_row(m, "greater", [(y, 1.0), (x, -1.0)], ">=", 0.0)
        add_row(m, "fixed-y", [(x, 1.0), (off, -1.0)], "<=", 0.0)
        assert implied_pairs(m) == set()
        add_row(m, "capacity", [(x, 2.0), (z, 1.0), (y, -3.0)], "<=", 1.0)
        assert implied_pairs(m) == {(x, y)}  # z = 1 fits with y = 0

    def test_random_capacity_models_match_enumeration(self):
        rng = np.random.default_rng(17)
        cut_models = 0
        for trial in range(30):
            seed = int(rng.integers(2 ** 32))
            model, (A, rels, b), c = capacity_model(np.random.default_rng(seed))
            pairs = implied_pairs(model)
            points = feasible_points(A, rels, b)
            for x, y in pairs:
                assert (points[:, x] <= points[:, y]).all(), trial
            sol = solve_milp(model, gap=0.0)
            if points.size:
                assert sol.status == "optimal", trial
                assert sol.objective == pytest.approx(float((points @ c).min()), abs=1e-7)
                assert not check_solution(model, sol.values), trial
            else:
                assert sol.status == "infeasible", trial
            cuts = [con for con in model.constraints if con.name.startswith("imply[")]
            assert {(con.terms[0][0], con.terms[1][0]) for con in cuts} <= pairs
            cut_models += bool(cuts)
            twin = solve_milp(capacity_model(np.random.default_rng(seed))[0], gap=0.0)
            assert (twin.values, twin.stats.nodes, twin.stats.lp_iterations) == (
                sol.values, sol.stats.nodes, sol.stats.lp_iterations), trial
        assert cut_models >= 10
