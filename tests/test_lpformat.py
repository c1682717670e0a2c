import hashlib
import random
import re

import numpy as np
import pytest
from scipy.optimize import milp as scipy_milp
from scipy.optimize import Bounds, LinearConstraint

from otnplan import planner
from otnplan.cli import main
from otnplan.formulation import (PROTECTION, WORKING, ExclusionSets, ProtectionContext,
                                 audit_model, build_integrated, build_lightpath_routing,
                                 build_logical_design, expand_lightpaths)
from otnplan.instance import bundled_instance_path
from otnplan.milp import (MilpModel, ModelError, check_solution, emit_lp_file,
                          parse_solution_listing, solution_values_by_id,
                          solve_milp)
from otnplan.milp.lpformat import _expression, _Prefixes
from otnplan.modes import Approach, SurvivabilityMode
from otnplan.netmodel import generate_topology

from conftest import add_row, make_instance


def simple_model():
    m = MilpModel("simple")
    x = m.add_variables(["x"], objective=1.0)[0]
    add_row(m, "need", [(x, 1.0)], ">=", 1.0)
    return m


class TestEmitLpFile:
    def test_sections_present(self):
        text = emit_lp_file(simple_model())
        for section in ("Minimize", "Subject To", "Bounds", "Binary", "End"):
            assert section in text
        assert "x" in text

    def test_empty_objective_dummy_convention(self):
        m = MilpModel("no-objective")
        x = m.add_variables(["x"])[0]
        add_row(m, "c", [(x, 1.0)], "<=", 1.0)
        text = emit_lp_file(m)
        assert "obj: 0 x_dummy" in text
        assert "x_dummy = 0" in text  # declared so the file stands alone

    def test_bounds_lines_only_for_tightened_binaries(self):
        m = MilpModel("bounds")
        m.add_variables(["a", "b", "c"], [0.0, 1.0, 0.0], [0.0, 1.0, 1.0], objective=1.0)
        text = emit_lp_file(m)
        assert text.endswith("Bounds\n 0 <= a <= 0\n 1 <= b <= 1\nBinary\n a\n b\n c\nEnd\n")

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
        integrality = np.ones(n)
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


def _terms_text(terms):
    """The objective text that ``emit_lp_file`` writes for ``(name, coef)``
    terms, one column each."""
    m = MilpModel("terms")
    m.add_variables([name for name, _ in terms], objective=[coef for _, coef in terms])
    text = emit_lp_file(m)
    return text[text.index(" obj: ") + 6:text.index("\nSubject To")]


class TestTermsText:
    def test_expression_of_200_columns_stays_on_one_line(self):
        text = _terms_text([("a" * 100, 1.0), ("b" * 97, 1.0)])
        assert text == "a" * 100 + " + " + "b" * 97
        assert len(text) == 200

    def test_expression_of_201_columns_wraps(self):
        text = _terms_text([("a" * 100, 1.0), ("b" * 98, 1.0)])
        assert text == "a" * 100 + "\n   + " + "b" * 98

    def test_negative_first_term_starts_with_minus(self):
        assert _terms_text([("x", -2.0), ("y", 1.0)]) == "- 2 x + y"
        assert _terms_text([("x", -1.0)]) == "- x"

    def test_coefficient_text(self):
        terms = [("a", 1.0), ("b", -1.0), ("c", 2.5), ("d", 1e20), ("e", 0.0)]
        assert _terms_text(terms) == "a - b + 2.5 c + 1e+20 d"

    def test_name_that_holds_the_separator_is_rejected(self):
        """A name with a NUL would split its term in two and wrap there."""
        m = MilpModel("separator")
        m.add_variables(["x", "y\0z"], objective=1.0)
        with pytest.raises(ModelError, match=re.escape("variable 'y\\x00z'")):
            emit_lp_file(m)


def _reference_lines(parts):
    """The per-term wrapping loop that ``_expression`` replaced, kept as the
    reference of its rule: each line's terms, breaking before a term that
    would take the line past 200 columns, with at least one term a line."""
    parts = list(parts)
    if parts and parts[0].startswith("+ "):
        parts[0] = parts[0][2:]
        if not parts[0]:
            del parts[0]
    lines = []
    start, width = 0, -1
    for k, size in enumerate(map(len, parts)):
        width += size + 1
        if width > 200 and k > start:
            lines.append(parts[start:k])
            start, width = k, size
    if parts:
        lines.append(parts[start:])
    return lines


# coefficient -> the text that leads its term
COEFFICIENT_TEXTS = {1.0: "+ ", -1.0: "- ", 2.5: "+ 2.5 ", -1e20: "- 1e+20 ", 3.0: "+ 3 "}


def _random_terms(rng):
    """(coefficient, name) terms: a name that is now and then wider than a
    line, and now and then an unnamed term with coefficient 1."""
    terms = []
    for _ in range(rng.choice([0, 1, 2, 5, 12, 30, 60])):
        name = ("" if rng.random() < 0.04 else
                "w" * rng.randint(195, 230) if rng.random() < 0.03 else
                "x" * rng.randint(1, 40))
        terms.append((1.0 if not name else rng.choice(list(COEFFICIENT_TEXTS)), name))
    return terms


def test_expression_wraps_as_the_per_term_loop():
    """``_expression`` breaks every line where the per-term loop did, on
    seeded random term lists that reach lines of exactly 200 and 201
    columns, terms wider than a line, empty lists and unnamed terms."""
    rng = random.Random(20240601)
    seen = set()
    for _ in range(3000):
        pairs = _random_terms(rng)
        terms = [COEFFICIENT_TEXTS[coef] + name for coef, name in pairs]
        lines = _reference_lines(terms)
        expression = _expression([_Prefixes()[coef] for coef, _ in pairs],
                                 [name for _, name in pairs])
        assert "\n".join(expression) == "\n   ".join(map(" ".join, lines))
        widths = [len(" ".join(line)) for line in lines]
        seen.update(f"line of {width}" for width in widths if width in (199, 200))
        seen.update(f"break at {width + 1 + len(after[0])}"
                    for width, after in zip(widths, lines[1:]) if width + 1 + len(after[0]) == 201)
        seen.update("term wider than a line" for line in lines if len(line[0]) > 200)
        seen.update(["empty"] if not terms else ["unnamed first"] if terms[0] == "+ " else [])
    assert seen == {"line of 199", "line of 200", "break at 201", "term wider than a line",
                    "empty", "unnamed first"}


@pytest.mark.parametrize("approach, size, digest", [
    ("sequential", "logical-working: 33396 variables, 1656 constraints",
     "827a47483a062f4849f6c9be499268305018aca6d7e072cebc906e733fbc5258"),
    ("integrated", "integrated-working: 39732 variables, 3264 constraints",
     "521803652461353f00d4d9b956c4ef056f3d2cd846ac2e8b7b092c3190d428ed"),
], ids=["sequential", "integrated"])
def test_bundled_12_node_lp_text_is_pinned(approach, size, digest, tmp_path, capsys):
    """``plan --emit-lp`` writes the bundled 12-node instance's working-side
    model byte for byte as before.  These digests are re-pinned when ROADMAP
    item 5 replaces the bundled instance."""
    assert main(["plan", "--instance", str(bundled_instance_path()), "--emit-lp",
                 "--approach", approach, "--output-dir", str(tmp_path)]) == 0
    assert capsys.readouterr().out.startswith(size + "\n")
    (path,) = tmp_path.glob("*.lp")
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest



@pytest.mark.parametrize("approach, mode, digests", [
    (Approach.SEQUENTIAL, SurvivabilityMode.SINGLE_LAYER, (
        "08b0c133dc08e2d6f9761ab820164de08c181187275638de2329b95e0abf2e73",
        "73597fc5569533805774cd2552901f1baeb7a1eda0e8ba37b3bf65bc7cf7c0cb",
        "19c6d01524d035229332710342f06c7a6c9b97f3e0fbe39fbc1132032ae1e2ab",
        "e893af08fe9403c06c270cbe2ef9cbc246fd207bdd0e47fa24ac83a51286468a")),
    (Approach.SEQUENTIAL, SurvivabilityMode.ML_INTERLAYER_BRS, (
        "08b0c133dc08e2d6f9761ab820164de08c181187275638de2329b95e0abf2e73",
        "73597fc5569533805774cd2552901f1baeb7a1eda0e8ba37b3bf65bc7cf7c0cb",
        "4e2753f68fb3e5b197197109d85424f4fe5aa0361c588d3ede0a9a2e0aa29b57")),
    (Approach.INTEGRATED, SurvivabilityMode.SINGLE_LAYER, (
        "b019db8bcf413760498b9008844d4365ec0b60070b49ceda4912e2fc01672f9c",
        "de2e2e76b42e57001475fe60b518923b90a01ab2478ec62e3ec4dd45554e1ba6")),
    (Approach.INTEGRATED, SurvivabilityMode.ML_INTERLAYER_BRS, (
        "b019db8bcf413760498b9008844d4365ec0b60070b49ceda4912e2fc01672f9c",
        "4e2753f68fb3e5b197197109d85424f4fe5aa0361c588d3ede0a9a2e0aa29b57")),
], ids=["sequential-single-layer", "sequential-ml-interlayer-brs",
        "integrated-single-layer", "integrated-ml-interlayer-brs"])
def test_phase_model_lp_text_is_pinned(approach, mode, digests, monkeypatch):
    """Every model a gap-0 plan builds, protection and spare-carrier phases
    included, is written byte for byte as before: the text is taken when
    the builder returns, before the search appends cut and pin rows."""
    texts = []

    def recording(build):
        def wrapper(*args, **kwargs):
            model, varmap = build(*args, **kwargs)
            texts.append(emit_lp_file(model))
            return model, varmap
        return wrapper

    for name in ("build_logical_design", "build_lightpath_routing", "build_integrated"):
        monkeypatch.setattr(planner, name, recording(getattr(planner, name)))
    inst = make_instance(generate_topology(5, 2.5, seed=7),
                         [(0, 2, 4), (1, 3, 6), (2, 4, 3.5)], mode, approach)
    planner.plan(inst, planner.PlanOptions(gap=0.0, time_limit=60))
    assert tuple(hashlib.sha256(text.encode("utf-8")).hexdigest()
                 for text in texts) == digests


def _protection_models():
    """Protection-side models of a five-node, Q = 2 instance built straight
    from a hand-made context, so that every row family appears: ``eq11``,
    ``cut[g]`` from two forbidden groupings, ``exc`` from physical
    exclusions, and ``eq15`` and ``eq17`` with exclusions and reserved
    wavelengths."""
    topo = generate_topology(5, 2.5, seed=7)
    inst = make_instance(topo, [(0, 2, 4), (1, 3, 6), (2, 4, 3.5)],
                         SurvivabilityMode.ML_DOUBLE, Approach.INTEGRATED, q=2)
    links = sorted(topo.links)
    exclusions = ExclusionSets(
        lsp_nodes={0: frozenset({1}), 2: frozenset({3})},
        lsp_phys_nodes={0: frozenset({1}), 1: frozenset({4})},
        lsp_links={1: frozenset({links[0]}), 2: frozenset(links[1:3])},
        lightpath_nodes={0: frozenset({2})},
        lightpath_links={1: frozenset({links[-1]})})
    context = ProtectionContext(
        protected=inst.traffic, interface_usage={0: 1, 2: 2}, exclusions=exclusions,
        forbidden_groupings=(((0, 0, 4, 1), (1, 1, 3, 2)), ((2, 2, 4, 1),)),
        wavelengths_used={links[0]: 3, links[2]: 31})
    lightpaths = expand_lightpaths([(0, 2, 1), (1, 3, 1)], [(0, 4, 1)])
    return (build_logical_design(inst, PROTECTION, context)[0],
            build_integrated(inst, PROTECTION, context)[0],
            build_lightpath_routing(lightpaths, topo, inst.unit_costs, protection=True,
                                    exclusions=exclusions,
                                    wavelengths_used=context.wavelengths_used)[0])


def test_protection_row_families_are_pinned():
    """The row families that no plan of the phase-model pins reaches are
    written byte for byte as before."""
    models = _protection_models()
    families = [audit_model(model) for model in models]
    assert "  cut: 2\n" in families[0] and "  eq11: " in families[0]
    assert "  cut: 2\n" in families[1] and "  exc: " in families[1]
    assert "  eq15: " in families[2] and "  eq17: " in families[2]
    assert tuple(hashlib.sha256(emit_lp_file(model).encode("utf-8")).hexdigest()
                 for model in models) == PROTECTION_DIGESTS


PROTECTION_DIGESTS = (
    "a5adffa9535e6c7727c991fafe7317f00a9cbf93ed4d87d17cfdd35c06b70d0e",
    "c634e9f728ec21906b024c22766b89ae5f275d021e3c02bb0694838dfb496402",
    "e7be262378b170dd684d52b2c80f12020f26be39862bee04e12da37009b35ad0",
)


class TestSolutionListing:
    def test_parse_basic(self):
        parsed = parse_solution_listing("x 1\ny 0.5  # comment\n\n# full comment\n")
        assert parsed == {"x": 1.0, "y": 0.5}

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_solution_listing("x 1 2\n")

    @pytest.mark.parametrize("text, message", [
        ("x 1\ny nan\n", "solution line 2: 'y nan': the value of y must be a finite number"),
        ("x abc\n", "solution line 1: 'x abc': the value of x must be a finite number"),
        ("x 1\n\nx 0  # again\n", "solution line 3: 'x 0  # again': x is listed twice"),
    ], ids=["nan", "not-a-number", "repeated-name"])
    def test_parse_names_the_bad_line(self, text, message):
        with pytest.raises(ValueError) as err:
            parse_solution_listing(text)
        assert str(err.value) == message

    def test_unknown_names_ignored(self):
        m = simple_model()
        values = solution_values_by_id(m, {"x": 1.0, "x_dummy": 0.0, "zzz": 1.0})
        assert values == {0: 1.0}
