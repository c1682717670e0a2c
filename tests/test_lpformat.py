import math

import numpy as np
import pytest
from scipy.optimize import milp as scipy_milp
from scipy.optimize import Bounds, LinearConstraint

from otnplan.formulation import build_logical_design, WORKING
from otnplan.milp import (MilpModel, check_solution, emit_lp_file,
                          parse_solution_listing, solution_values_by_id,
                          solve_milp)
from otnplan.modes import SurvivabilityMode

from conftest import make_instance


def simple_model():
    m = MilpModel("simple")
    x = m.add_variable("x", "binary", objective=1.0)
    m.add_constraint("need", [(x, 1.0)], ">=", 1.0)
    return m


class TestEmitLpFile:
    def test_sections_present(self):
        text = emit_lp_file(simple_model())
        for section in ("Minimize", "Subject To", "Bounds", "Binary", "End"):
            assert section in text
        assert "x" in text

    def test_empty_objective_dummy_convention(self):
        m = MilpModel("no-objective")
        x = m.add_variable("x", "binary")
        m.add_constraint("c", [(x, 1.0)], "<=", 1.0)
        text = emit_lp_file(m)
        assert "obj: 0 x_dummy" in text
        assert "x_dummy = 0" in text  # declared so the file stands alone

    def test_continuous_bounds_lines(self):
        m = MilpModel("bounds")
        m.add_variable("a", "continuous", 0.0, 5.0, 1.0)
        m.add_variable("b", "continuous", -math.inf, math.inf, 1.0)
        text = emit_lp_file(m)
        assert "0 <= a <= 5" in text
        assert "b free" in text

    def test_external_solver_matches_embedded_on_ring_model(self, ring4):
        """The exported model solved by an external MILP solver reproduces the
        embedded branch-and-bound objective."""
        inst = make_instance(ring4, [(0, 2, 10), (1, 3, 6)],
                             SurvivabilityMode.NONE)
        model, _ = build_logical_design(inst, WORKING)
        ours = solve_milp(model, gap=0.0)
        assert ours.status == "optimal"

        n = len(model.variables)
        c = np.array([v.objective for v in model.variables])
        integrality = np.array([1 if v.kind == "binary" else 0 for v in model.variables])
        lo = np.array([v.lower for v in model.variables])
        hi = np.array([v.upper for v in model.variables])
        constraints = []
        for con in model.constraints:
            row = np.zeros(n)
            for vid, coef in con.terms:
                row[vid] += coef
            if con.relation == "<=":
                constraints.append(LinearConstraint(row, -np.inf, con.rhs))
            elif con.relation == ">=":
                constraints.append(LinearConstraint(row, con.rhs, np.inf))
            else:
                constraints.append(LinearConstraint(row, con.rhs, con.rhs))
        ref = scipy_milp(c=c, constraints=constraints, integrality=integrality,
                         bounds=Bounds(lo, hi))
        assert ref.status == 0
        assert ours.objective == pytest.approx(ref.fun, abs=1e-6)

        # round-trip: the external solution listing validates against the model
        listing = "\n".join(
            f"{model.var_name(i)} {ref.x[i]}" for i in range(n)) + "\nx_dummy 0\n"
        values = solution_values_by_id(model, parse_solution_listing(listing))
        assert not check_solution(model, values)

    def test_emitted_text_is_deterministic(self):
        a = emit_lp_file(simple_model())
        b = emit_lp_file(simple_model())
        assert a == b


class TestSolutionListing:
    def test_parse_basic(self):
        parsed = parse_solution_listing("x 1\ny 0.5  # comment\n\n# full comment\n")
        assert parsed == {"x": 1.0, "y": 0.5}

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_solution_listing("x 1 2\n")

    def test_unknown_names_ignored(self):
        m = simple_model()
        values = solution_values_by_id(m, {"x": 1.0, "x_dummy": 0.0, "zzz": 1.0})
        assert values == {0: 1.0}
