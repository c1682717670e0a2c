import dataclasses
import errno
import json
import os
from fractions import Fraction

import numpy as np
import pytest

from otnplan import cli, planner
from otnplan.cli import RunRequest, build_parser, main, run_cli
from otnplan.milp import simplex, solve_milp
from otnplan.instance import (bundled_instance_path, config_from_dict, config_to_dict,
                              load_instance)
from otnplan.modes import SurvivabilityMode


@pytest.fixture()
def ring_instance_file(tmp_path):
    data = {
        "nodes": [0, 1, 2, 3],
        "links": [[0, 1], [1, 2], [2, 3], [3, 0]],
        "params": {"C": 10, "W": 32, "Q": 1, "T": 6},
        "cost_ratio": "CR1",
        "demands": [{"s": 0, "d": 2, "b": 10}],
    }
    path = tmp_path / "ring4.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    return path


class TestPlanCommand:
    def test_happy_path_writes_artifacts(self, ring_instance_file, tmp_path):
        rc = main(["plan", "--instance", str(ring_instance_file),
                   "--mode", "ml-interlayer-brs", "--approach", "sequential",
                   "--cost-ratio", "cr1", "--gap", "0.03",
                   "--output-dir", str(tmp_path), "--verify"])
        assert rc == 0
        config_files = list(tmp_path.glob("*.config.json"))
        report_files = list(tmp_path.glob("*.report.txt"))
        verify_files = list(tmp_path.glob("*.verify.txt"))
        assert config_files and report_files and verify_files
        config = config_from_dict(json.loads(config_files[0].read_text()))
        assert config.mode is SurvivabilityMode.ML_INTERLAYER_BRS
        assert "restorability: 100.0%" in verify_files[0].read_text()

    def test_config_file_has_a_line_per_key_and_per_list_element(self, ring_instance_file,
                                                                   tmp_path):
        assert main(["plan", "--instance", str(ring_instance_file), "--mode", "single-layer",
                     "--gap", "0", "--output-dir", str(tmp_path)]) == 0
        text = next(tmp_path.glob("*.config.json")).read_text(encoding="utf-8")
        data = json.loads(text)
        assert config_to_dict(config_from_dict(data)) == data
        lines = [line.removesuffix(",") for line in text.splitlines()]
        expected = ["{"]
        for key, value in data.items():
            if isinstance(value, list) and value:
                expected += [f"{json.dumps(key)}: [", *map(json.dumps, value), "]"]
            else:
                expected.append(f"{json.dumps(key)}: {json.dumps(value)}")
        assert lines == expected + ["}"]
        assert sum(isinstance(v, list) and len(v) > 1 for v in data.values()) >= 2

    def test_bogus_mode_exits_2(self, ring_instance_file, capsys):
        with pytest.raises(SystemExit) as err:
            main(["plan", "--instance", str(ring_instance_file), "--mode", "bogus"])
        assert err.value.code == 2
        assert "usage" in capsys.readouterr().err

    @pytest.mark.parametrize("failure", ["iteration-limit", "singular-basis"])
    def test_solver_failure_exits_1_with_diagnostic(self, failure, ring_instance_file,
                                                    tmp_path, monkeypatch, capsys):
        if failure == "iteration-limit":
            monkeypatch.setattr(simplex, "_MAX_ITERATIONS", 0)
        else:
            def singular(B):
                raise np.linalg.LinAlgError("Singular matrix")
            # every pivot refactorizes, and every factorization fails
            monkeypatch.setattr(simplex, "_REFACTOR_EVERY", 1)
            monkeypatch.setattr(np.linalg, "inv", singular)
        rc = main(["plan", "--instance", str(ring_instance_file), "--mode", "none",
                   "--output-dir", str(tmp_path)])
        assert rc == 1
        err = capsys.readouterr().err
        assert f"phase I-working-logical: LP solver failed: {failure}" in err
        assert "Traceback" not in err
        assert not list(tmp_path.glob("*.config.json"))

    @pytest.mark.parametrize("option", [("--gap", "-0.5"), ("--gap", "nan"),
                                        ("--time-limit", "nan"), ("--time-limit", "-1")],
                             ids=["gap-negative", "gap-nan", "time-nan", "time-negative"])
    def test_bad_option_value_exits_2(self, option, ring_instance_file, tmp_path, capsys):
        rc = main(["plan", "--instance", str(ring_instance_file), *option,
                   "--output-dir", str(tmp_path)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err

    @pytest.mark.parametrize("link", [[1, 1], [1, 9]], ids=["self-loop", "undeclared-node"])
    def test_malformed_link_exits_2(self, link, ring_instance_file, tmp_path, capsys):
        data = json.loads(ring_instance_file.read_text())
        data["links"].append(link)
        ring_instance_file.write_text(json.dumps(data))
        rc = main(["plan", "--instance", str(ring_instance_file), "--mode", "single-layer",
                   "--output-dir", str(tmp_path)])
        assert rc == 2
        assert f"link ({link[0]},{link[1]})" in capsys.readouterr().err

    def test_repeated_node_exits_2(self, ring_instance_file, tmp_path, capsys):
        data = json.loads(ring_instance_file.read_text())
        data["nodes"].insert(0, data["nodes"][0])
        ring_instance_file.write_text(json.dumps(data))
        rc = main(["plan", "--instance", str(ring_instance_file), "--mode", "single-layer",
                   "--output-dir", str(tmp_path)])
        assert rc == 2
        err = capsys.readouterr().err
        assert f"node {data['nodes'][0]} is declared more than once" in err
        assert "Traceback" not in err

    def test_duplicate_link_exits_2(self, ring_instance_file, tmp_path, capsys):
        data = json.loads(ring_instance_file.read_text())
        data["links"].append([1, 0])
        ring_instance_file.write_text(json.dumps(data))
        rc = main(["plan", "--instance", str(ring_instance_file), "--mode", "single-layer",
                   "--output-dir", str(tmp_path)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "link (0,1) is declared more than once" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("field,value", [("W", 2.9), ("Q", 1.7), ("T", 3.5)])
    def test_fractional_count_exits_2(self, field, value, ring_instance_file,
                                      tmp_path, capsys):
        data = json.loads(ring_instance_file.read_text())
        data["params"][field] = value
        ring_instance_file.write_text(json.dumps(data))
        rc = main(["plan", "--instance", str(ring_instance_file), "--mode", "none",
                   "--output-dir", str(tmp_path)])
        assert rc == 2
        err = capsys.readouterr().err
        assert f"{field} must be a whole number, got {value}" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("demands, message", [
        ("abc", "instance demands must be a JSON list, not str"),
        ([{"s": 0, "d": 2, "b": 10}, [0, 2]],
         "demand 1 must be an object with s, d and b, or a list [s, d, b], not [0, 2]"),
        ([{"s": 0, "d": 2}],
         "demand 0 must be an object with s, d and b, or a list [s, d, b], "
         "not {'s': 0, 'd': 2}"),
        ([[0, 2, "x"]], "demand 0 bandwidth must be a number, not 'x'"),
    ], ids=["string", "two-item-list", "missing-b", "bandwidth-not-a-number"])
    def test_malformed_demand_exits_2(self, demands, message, ring_instance_file, tmp_path,
                                      capsys):
        data = json.loads(ring_instance_file.read_text())
        data["demands"] = demands
        ring_instance_file.write_text(json.dumps(data))
        assert main(["plan", "--instance", str(ring_instance_file),
                     "--output-dir", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert f"cannot load instance: {message}" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("edit, message", [
        (lambda d: d.pop("nodes"), "instance nodes must be a JSON list, not missing"),
        (lambda d: d.update(nodes=5), "instance nodes must be a JSON list, not int"),
        (lambda d: d["links"].append([0, 1, 2]),
         "link [0, 1, 2] must be a pair of nodes [a, b]"),
        (lambda d: d.update(cost_ratio=5),
         "cost ratio must be CR1, CR2, CR3 or an object with c_TR, c_P_IP, c_P_OXC, "
         "not 5"),
        (lambda d: d.update(cost_ratio={"c_TR": 1}),
         "cost ratio must be CR1, CR2, CR3 or an object with c_TR, c_P_IP, c_P_OXC, "
         "not {'c_TR': 1}"),
        (lambda d: d["params"].update(C=True), "C must be a number, not True"),
        (lambda d: d["params"].update(W=True), "W must be a whole number, got True"),
        (lambda d: d["params"].update(Q=True), "Q must be a whole number, got True"),
        (lambda d: d["params"].update(T=True), "T must be a whole number, got True"),
        (lambda d: d["demands"][0].update(b=True),
         "demand 0 bandwidth must be a number, not True"),
        (lambda d: d.update(cost_ratio={"c_TR": 1, "c_P_IP": True, "c_P_OXC": 1}),
         "cost ratio c_P_IP must be a number, not True"),
    ], ids=["no-nodes", "nodes-not-a-list", "link-of-three", "cost-ratio-number",
            "cost-ratio-partial", "C-boolean", "W-boolean", "Q-boolean", "T-boolean",
            "b-boolean", "cost-ratio-boolean"])
    def test_malformed_instance_field_exits_2(self, edit, message, ring_instance_file,
                                              tmp_path, capsys):
        data = json.loads(ring_instance_file.read_text())
        edit(data)
        ring_instance_file.write_text(json.dumps(data))
        assert main(["plan", "--instance", str(ring_instance_file),
                     "--output-dir", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert f"cannot load instance: {message}\n" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("edit, message", [
        (lambda d: d["nodes"].__setitem__(0, [0]),
         "nodes entry 0 must be an integer node id, not [0]"),
        (lambda d: d["nodes"].__setitem__(1, True),
         "nodes entry 1 must be an integer node id, not True"),
        (lambda d: d["links"].__setitem__(0, [0, True]),
         "an end of link [0, True] must be an integer node id, not True"),
        (lambda d: d["links"].__setitem__(0, [{"a": 1}, 2]),
         "an end of link [{'a': 1}, 2] must be an integer node id, not {'a': 1}"),
        (lambda d: d["demands"][0].update(s=[0]),
         "demand 0 s must be an integer node id, not [0]"),
        (lambda d: d["demands"][0].update(d=True),
         "demand 0 d must be an integer node id, not True"),
    ], ids=["nodes-list", "nodes-boolean", "link-boolean", "link-object",
            "demand-s-list", "demand-d-boolean"])
    def test_node_id_not_an_integer_exits_2(self, edit, message, ring_instance_file,
                                            tmp_path, capsys):
        data = json.loads(ring_instance_file.read_text())
        edit(data)
        ring_instance_file.write_text(json.dumps(data))
        assert main(["plan", "--instance", str(ring_instance_file), "--mode", "none",
                     "--output-dir", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert f"cannot load instance: {message}\n" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("edit, message", [
        (lambda d: d["demands"][0].update(b=1e-6),
         "demand 0 (0,2) of 1e-06 Gbps is within the solver's feasibility tolerance 1e-06: "
         "its capacity rows would hold with no lightpath open"),
        (lambda d: d["demands"][0].update(b=1e-7),
         "demand 0 (0,2) of 1e-07 Gbps is within the solver's feasibility tolerance 1e-06: "
         "its capacity rows would hold with no lightpath open"),
        (lambda d: d.update(cost_ratio={"c_TR": 1e308, "c_P_IP": 1e308, "c_P_OXC": 1e308}),
         "unit cost c_lp derived from the cost ratio is too large for a float; "
         "scale the cost ratio down"),
        (lambda d: d.update(nodes=[0], links=[], demands=[], params={"C": 10, "Q": 1}),
         "T defaults to 2·Q·(N−1), which needs at least 2 nodes; the instance has 1 "
         "and gives no T"),
    ], ids=["b-1e-6", "b-1e-7", "cost-ratio-1e308", "one-node-no-T"])
    def test_value_the_solver_cannot_hold_exits_2(self, edit, message, ring_instance_file,
                                                  tmp_path, capsys):
        data = json.loads(ring_instance_file.read_text())
        edit(data)
        ring_instance_file.write_text(json.dumps(data))
        assert main(["plan", "--instance", str(ring_instance_file),
                     "--output-dir", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert f"cannot load instance: {message}\n" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", [["plan"], ["plan", "--emit-lp"], ["oracle"]],
                             ids=["plan", "emit-lp", "oracle"])
    def test_demand_no_node_can_take_exits_2(self, command, ring_instance_file,
                                             tmp_path, capsys):
        # Q=1 on four nodes: at most 3 lightpaths of 10 Gbps end at node 0
        data = json.loads(ring_instance_file.read_text())
        data["demands"] = [{"s": 0, "d": 2, "b": 31}]
        ring_instance_file.write_text(json.dumps(data))
        out = [] if command == ["oracle"] else ["--output-dir", str(tmp_path)]
        assert main([*command, "--instance", str(ring_instance_file), *out]) == 2
        assert ("cannot load instance: demand 0 (0,2) of 31 Gbps exceeds 30 Gbps: at "
                "most 3 lightpaths of capacity 10 can end at a node"
                in capsys.readouterr().err)
        assert not list(tmp_path.glob("*.lp")) and not list(tmp_path.glob("*.config.json"))

    @pytest.mark.parametrize("extra", [[], ["--approach", "integrated"], ["--emit-lp"]],
                             ids=["sequential", "integrated", "emit-lp"])
    def test_lsp_without_fiber_path_exits_2(self, extra, ring_instance_file, tmp_path,
                                            capsys):
        data = json.loads(ring_instance_file.read_text())
        data["links"] = [[0, 1], [2, 3]]
        ring_instance_file.write_text(json.dumps(data))
        assert main(["plan", "--instance", str(ring_instance_file),
                     "--output-dir", str(tmp_path)] + extra) == 2
        assert ("cannot load instance: LSP 0 joins nodes 0 and 2, which no fiber path "
                "connects") in capsys.readouterr().err
        assert not list(tmp_path.glob("*.lp")) and not list(tmp_path.glob("*.config.json"))

    @pytest.mark.parametrize("stopped_gap, rc", [(0.5, 1), (0.01, 0)])
    def test_stage_at_its_time_limit_above_its_gap_is_no_plan(
            self, stopped_gap, rc, ring_instance_file, tmp_path, monkeypatch, capsys):
        def stopped(model, gap=0.0, time_limit=None, stages=None):
            sol = solve_milp(model, gap=gap, time_limit=time_limit, stages=stages)
            first = dataclasses.replace(sol.stages[0], status="time-limit", gap=stopped_gap,
                                        best_bound=sol.stages[0].objective * (1 - stopped_gap))
            return dataclasses.replace(sol, stages=(first,) + sol.stages[1:])
        monkeypatch.setattr(planner, "solve_milp", stopped)
        request = RunRequest(instance=str(ring_instance_file), gap=0.03,
                             output_dir=str(tmp_path))
        assert run_cli(request) == rc
        if rc == 1:
            assert ("phase I-working-logical: stage 0 stopped at its time limit with "
                    "incumbent 25, bound 12.5, gap 0.5 above 0.03") in capsys.readouterr().err
            with pytest.raises(planner.PlanError):
                planner.plan(load_instance(ring_instance_file), planner.PlanOptions(gap=0.03))

    @pytest.mark.parametrize("command", ["plan", "oracle", "estimate-size"])
    def test_instance_that_is_not_an_object_exits_2(self, command, ring_instance_file,
                                                    tmp_path, capsys):
        path = tmp_path / "list.json"
        path.write_text("[1, 2]", encoding="utf-8")
        assert main([command, "--instance", str(path)]) == 2
        err = capsys.readouterr().err
        assert "cannot load instance: instance file must be a JSON object, not list" in err
        assert "Traceback" not in err
        data = json.loads(ring_instance_file.read_text())
        data["params"] = [10, 32]
        path.write_text(json.dumps(data), encoding="utf-8")
        assert main([command, "--instance", str(path)]) == 2
        assert ("cannot load instance: instance params must be a JSON object, not list"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("command", ["plan", "oracle", "estimate-size"])
    def test_unknown_instance_key_exits_2(self, command, ring_instance_file, tmp_path,
                                          capsys):
        # the parameters written at the top level, not under params, would
        # load with the defaults Q = 2 and T = 2·Q·(N−1)
        data = json.loads(ring_instance_file.read_text())
        data.update(data.pop("params"))
        data.pop("T")
        ring_instance_file.write_text(json.dumps(data), encoding="utf-8")
        args = [command, "--instance", str(ring_instance_file)]
        assert main(args + ["--output-dir", str(tmp_path)] * (command == "plan")) == 2
        err = capsys.readouterr().err
        assert ("cannot load instance: instance file has unknown keys 'C', 'W', 'Q'; the "
                "keys are nodes, links, params, cost_ratio, demands\n") in err
        assert "Traceback" not in err
        assert not list(tmp_path.glob("*.config.json"))
        data["params"] = {"C": 10, "W": 32, "q": 1}
        for key in ("C", "W", "Q"):
            data.pop(key)
        ring_instance_file.write_text(json.dumps(data), encoding="utf-8")
        assert main(args) == 2
        assert ("cannot load instance: instance params has unknown key 'q'; the keys are "
                "C, W, Q, T\n") in capsys.readouterr().err

    def test_schema_error_exits_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{\"nodes\": [0, 1]}", encoding="utf-8")
        rc = main(["plan", "--instance", str(bad), "--output-dir", str(tmp_path)])
        assert rc == 2

    def test_emit_lp_writes_models_without_solutions(self, ring_instance_file, tmp_path):
        rc = main(["plan", "--instance", str(ring_instance_file), "--emit-lp",
                   "--mode", "none", "--output-dir", str(tmp_path)])
        assert rc == 0
        assert list(tmp_path.glob("*.lp"))
        assert not list(tmp_path.glob("*.config.json"))

    def test_solution_in_validates(self, ring_instance_file, tmp_path):
        rc = main(["plan", "--instance", str(ring_instance_file), "--emit-lp",
                   "--mode", "none", "--output-dir", str(tmp_path)])
        assert rc == 0
        # a valid hand solution: open lightpath (0,2) and route the LSP on it
        sol = tmp_path / "sol.txt"
        sol.write_text("wbeta_0_2_1 1\nwdelta_0_0_2_1 1\n", encoding="utf-8")
        rc = main(["plan", "--instance", str(ring_instance_file), "--emit-lp",
                   "--mode", "none", "--output-dir", str(tmp_path),
                   "--solution-in", str(sol)])
        assert rc == 0
        bad = tmp_path / "bad.txt"
        bad.write_text("wdelta_0_0_2_1 1\n", encoding="utf-8")  # no lightpath opened
        rc = main(["plan", "--instance", str(ring_instance_file), "--emit-lp",
                   "--mode", "none", "--output-dir", str(tmp_path),
                   "--solution-in", str(bad)])
        assert rc == 1

    @pytest.mark.parametrize("listing, line", [
        ("wbeta_0_1_1 nan\n", 1),
        ("wbeta_0_1_1 inf\n", 1),
        ("wbeta_0_2_1 1\nwbeta_0_1_1 -inf\n", 2),
        ("wbeta_0_2_1 1\nwdelta_0_0_2_1 1\nwbeta_0_2_1 0\n", 3),
    ], ids=["nan", "inf", "-inf", "repeated-name"])
    def test_bad_solution_listing_exits_2(self, listing, line, ring_instance_file,
                                          tmp_path, capsys):
        sol = tmp_path / "sol.txt"
        sol.write_text(listing, encoding="utf-8")
        rc = main(["plan", "--instance", str(ring_instance_file), "--emit-lp",
                   "--mode", "none", "--output-dir", str(tmp_path),
                   "--solution-in", str(sol)])
        assert rc == 2
        err = capsys.readouterr().err
        assert f"error: cannot read solution listing: solution line {line}: " in err
        assert "Traceback" not in err

    def test_solution_in_requires_emit_lp(self, ring_instance_file):
        rc = main(["plan", "--instance", str(ring_instance_file),
                   "--solution-in", "whatever.txt"])
        assert rc == 2

    def test_unknown_report_format_exits_2_before_planning(self, ring_instance_file,
                                                           tmp_path, monkeypatch, capsys):
        def no_plan(*args, **kwargs):
            raise AssertionError("planned")
        monkeypatch.setattr(cli, "plan", no_plan)
        out = tmp_path / "out"
        assert run_cli(RunRequest(instance=str(ring_instance_file), mode="single-layer",
                                  output_dir=str(out), report_format="xml")) == 2
        err = capsys.readouterr().err
        assert "error: unknown report format 'xml' (choose from table, csv, json)" in err
        assert "Traceback" not in err
        assert not out.exists()


class TestVerifyCommand:
    def test_roundtrip_verification(self, ring_instance_file, tmp_path):
        rc = main(["plan", "--instance", str(ring_instance_file),
                   "--mode", "single-layer", "--gap", "0",
                   "--output-dir", str(tmp_path)])
        assert rc == 0
        config = next(tmp_path.glob("*.config.json"))
        out = tmp_path / "report.txt"
        assert main(["verify", "--config", str(config), "-o", str(out)]) == 0
        assert "restorability: 100.0%" in out.read_text()

    def test_tampered_cost_detected(self, ring_instance_file, tmp_path, capsys):
        rc = main(["plan", "--instance", str(ring_instance_file),
                   "--mode", "single-layer", "--gap", "0",
                   "--output-dir", str(tmp_path)])
        assert rc == 0
        path = next(tmp_path.glob("*.config.json"))
        data = json.loads(path.read_text())
        total = Fraction(str(data["cost"]["total"]))
        # the stored total is compared as a number, not as text
        data["cost"]["total"] = f"{2 * total}/2"
        path.write_text(json.dumps(data))
        capsys.readouterr()
        assert main(["verify", "--config", str(path)]) == 0
        assert "consistency" not in capsys.readouterr().out
        data["cost"]["total"] = 1
        path.write_text(json.dumps(data))
        assert main(["verify", "--config", str(path)]) == 1
        assert f"stored total cost 1 != recomputed {total}" in capsys.readouterr().out

    @pytest.mark.parametrize("field, value, offender", [
        ("route", [0, 2], "lightpath 0 route [0, 2]"),   # no fiber joins 0 and 2
        ("route", [1, 2], "lightpath 0 route [1, 2]"),   # does not start at an end
        ("working", [5], "unknown lightpath 5"),
        ("lsp_routes", [], "LSPs [0]"),
        ("status", "bogus", "lightpath 0 status 'bogus'"),
        ("q", "x", "lightpath 0 q must be a whole number in 1..1, got 'x'"),
        ("q", 2, "lightpath 0 q must be a whole number in 1..1, got 2"),
        ("cost", [1], "configuration cost must be a JSON object, not list"),
    ], ids=["missing-fiber", "wrong-end", "unknown-lightpath", "unrouted-lsp", "unknown-status",
            "non-numeric-q", "q-above-Q", "cost-not-object"])
    def test_malformed_routes_exit_2(self, field, value, offender, ring_instance_file,
                                     tmp_path, capsys):
        assert main(["plan", "--instance", str(ring_instance_file),
                     "--mode", "single-layer", "--gap", "0",
                     "--output-dir", str(tmp_path)]) == 0
        path = next(tmp_path.glob("*.config.json"))
        data = json.loads(path.read_text())
        if field == "route":
            data["lightpaths"][0]["route"] = value
            data["cost"]["total"] = 43  # what the edited route would cost
        elif field == "working":
            data["lsp_routes"][0]["working"] = value
        elif field in ("status", "q"):
            data["lightpaths"][0][field] = value
        else:
            data[field] = value
        path.write_text(json.dumps(data))
        capsys.readouterr()
        for command in (["verify", "--config", str(path)], ["report", str(path)]):
            assert main(command) == 2
            err = capsys.readouterr().err
            assert "cannot load configuration" in err and offender in err

    @pytest.mark.parametrize("field", ["approach", "mode", "lightpaths"])
    def test_missing_field_is_named(self, field, ring_instance_file, tmp_path, capsys):
        assert main(["plan", "--instance", str(ring_instance_file), "--mode", "single-layer",
                     "--gap", "0", "--output-dir", str(tmp_path)]) == 0
        path = next(tmp_path.glob("*.config.json"))
        data = json.loads(path.read_text())
        del data[field]
        path.write_text(json.dumps(data))
        capsys.readouterr()
        for command in (["verify", "--config", str(path)], ["report", str(path)]):
            assert main(command) == 2
            err = capsys.readouterr().err
            assert f"cannot load configuration: missing field '{field}'" in err

    def test_configuration_that_is_not_an_object_exits_2(self, tmp_path, capsys):
        path = tmp_path / "list.config.json"
        path.write_text("[1, 2]", encoding="utf-8")
        for command in (["verify", "--config", str(path)], ["report", str(path)]):
            assert main(command) == 2
            assert ("cannot load configuration: configuration file must be a JSON "
                    "object, not list") in capsys.readouterr().err

    def test_unprotected_configuration_fails(self, ring_instance_file, tmp_path):
        rc = main(["plan", "--instance", str(ring_instance_file),
                   "--mode", "none", "--gap", "0", "--output-dir", str(tmp_path)])
        assert rc == 0
        config = next(tmp_path.glob("*.config.json"))
        assert main(["verify", "--config", str(config)]) == 1


def _triangle_file(tmp_path, second):
    """Triangle 0-1-2, C = 10, Q = 1, with two LSPs 0 -> 1 of 5 and
    ``second`` Gbps: the cheapest plans put both on one lightpath."""
    data = {"nodes": [0, 1, 2], "links": [[0, 1], [1, 2], [2, 0]],
            "params": {"C": 10, "W": 32, "Q": 1}, "cost_ratio": "CR1",
            "demands": [{"s": 0, "d": 1, "b": 5}, {"s": 0, "d": 1, "b": second}]}
    path = tmp_path / "triangle.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    return path


class TestExactLightpathLoads:
    """A lightpath's load is checked against C in rationals: the float
    tolerance of the capacity rows lets 10.0000005 Gbps onto a 10 Gbps
    lightpath."""

    @pytest.mark.parametrize("approach", ["sequential", "integrated"])
    @pytest.mark.parametrize("mode", ["none", "single-layer", "ml-double-protection"])
    def test_overloading_plan_exits_1(self, mode, approach, tmp_path, capsys):
        path = _triangle_file(tmp_path, 5.0000005)
        assert main(["plan", "--instance", str(path), "--mode", mode, "--approach", approach,
                     "--output-dir", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert ("no plan: phase exact-capacity: working lightpath 0 (0,1,q=1) carries "
                "10.0000005 Gbps, 5e-07 Gbps over its capacity 10.0") in err
        assert "Traceback" not in err
        assert not list(tmp_path.glob("*.config.json"))

    def test_verify_reports_an_overloaded_config(self, tmp_path, capsys):
        path = _triangle_file(tmp_path, 5)
        assert main(["plan", "--instance", str(path), "--mode", "single-layer",
                     "--output-dir", str(tmp_path)]) == 0
        (config_path,) = tmp_path.glob("*.config.json")
        data = json.loads(config_path.read_text())
        assert [route["working"] for route in data["lsp_routes"]] == [[0], [0]]
        data["instance"]["demands"][1]["b"] = 5.0000005
        config_path.write_text(json.dumps(data))
        capsys.readouterr()
        assert main(["verify", "--config", str(config_path)]) == 1
        out = capsys.readouterr().out
        assert ("capacity violations:\n"
                "  working lightpath 0 (0,1,q=1) carries 10.0000005 Gbps, 5e-07 Gbps over "
                "its capacity 10.0\n"
                "  protection lightpath 1 (0,1,q=1) carries 10.0000005 Gbps, 5e-07 Gbps over "
                "its capacity 10.0\n") in out

    @pytest.mark.parametrize("approach", ["sequential", "integrated"])
    @pytest.mark.parametrize("mode", ["single-layer", "ml-double-protection"])
    def test_loads_of_exactly_c_plan_and_verify(self, mode, approach, tmp_path, capsys):
        path = _triangle_file(tmp_path, 5)
        assert main(["plan", "--instance", str(path), "--mode", mode, "--approach", approach,
                     "--output-dir", str(tmp_path), "--verify"]) == 0
        (config_path,) = tmp_path.glob("*.config.json")
        assert [route["working"] for route in json.loads(
            config_path.read_text())["lsp_routes"]] == [[0], [0]]
        assert main(["verify", "--config", str(config_path)]) == 0
        assert "capacity violations" not in capsys.readouterr().out


class TestUnwritableOutput:
    """A write that fails ends in a diagnostic and exit code 2."""

    @pytest.fixture()
    def under_a_file(self, tmp_path):
        (tmp_path / "afile").write_text("", encoding="utf-8")
        return tmp_path / "afile" / "sub"

    @pytest.mark.parametrize("extra", [[], ["--emit-lp"]], ids=["plan", "emit-lp"])
    def test_plan_output_dir_under_a_file(self, extra, under_a_file, ring_instance_file,
                                          capsys):
        assert main(["plan", "--instance", str(ring_instance_file), "--mode", "none",
                     "--output-dir", str(under_a_file), *extra]) == 2
        err = capsys.readouterr().err
        assert f"error: cannot write {under_a_file}: Not a directory" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("suffix", ["config.json", "report.txt", "verify.txt"])
    def test_plan_output_file_that_is_a_directory(self, suffix, ring_instance_file,
                                                  tmp_path, capsys):
        blocked = tmp_path / f"ring4.single-layer.sequential.{suffix}"
        blocked.mkdir()
        assert main(["plan", "--instance", str(ring_instance_file), "--mode", "single-layer",
                     "--gap", "0", "--verify", "--output-dir", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert f"error: cannot write {blocked}: Is a directory" in err
        assert "Traceback" not in err

    def test_plan_lp_file_that_is_a_directory(self, ring_instance_file, tmp_path, capsys):
        blocked = tmp_path / "ring4.none.phase-I-working-logical.lp"
        blocked.mkdir()
        assert main(["plan", "--instance", str(ring_instance_file), "--mode", "none",
                     "--emit-lp", "--output-dir", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert f"error: cannot write {blocked}: Is a directory" in err
        assert "Traceback" not in err

    def test_gen_topology_output_under_a_file(self, under_a_file, capsys):
        assert main(["gen-topology", "--nodes", "5", "--connectivity", "3",
                     "-o", str(under_a_file)]) == 2
        err = capsys.readouterr().err
        assert f"error: cannot write {under_a_file}: Not a directory" in err
        assert "Traceback" not in err

    def test_verify_output_under_a_file(self, under_a_file, ring_instance_file, tmp_path,
                                        capsys):
        assert main(["plan", "--instance", str(ring_instance_file), "--mode", "single-layer",
                     "--gap", "0", "--output-dir", str(tmp_path)]) == 0
        config = next(tmp_path.glob("*.config.json"))
        capsys.readouterr()
        assert main(["verify", "--config", str(config), "-o", str(under_a_file)]) == 2
        err = capsys.readouterr().err
        assert f"error: cannot write {under_a_file}: Not a directory" in err
        assert "Traceback" not in err


class TestInPlaceWriter:
    """Every output file is rewritten in place and cut to its new length."""

    def test_shorter_text_leaves_exactly_the_new_bytes(self, tmp_path):
        path = tmp_path / "out.txt"
        cli._write(path, "a long first text\n" * 1000)
        cli._write(path, "short, not ASCII: \u00e9\u2192\n")
        assert path.read_bytes() == "short, not ASCII: \u00e9\u2192\n".encode("utf-8")
        cli._write(path, "")
        assert path.read_bytes() == b""

    def test_failed_write_leaves_no_old_tail(self, tmp_path, monkeypatch):
        path = tmp_path / "out.txt"
        cli._write(path, "old text\n" * 1000)
        real_write = os.write
        calls = []

        def write_then_fail(fd, data):
            calls.append(len(data))
            if len(calls) > 1:
                raise OSError(errno.ENOSPC, "No space left on device")
            return real_write(fd, data[:5])
        monkeypatch.setattr(cli.os, "write", write_then_fail)
        with pytest.raises(cli._WriteError, match="No space left on device"):
            cli._write(path, "new text\n")
        monkeypatch.undo()
        assert path.read_bytes() == b"new t"

    def test_verify_output_to_dev_null(self, ring_instance_file, tmp_path, capsys):
        assert main(["plan", "--instance", str(ring_instance_file), "--mode", "single-layer",
                     "--gap", "0", "--output-dir", str(tmp_path)]) == 0
        config = next(tmp_path.glob("*.config.json"))
        capsys.readouterr()
        assert main(["verify", "--config", str(config), "-o", "/dev/null"]) == 0
        out = capsys.readouterr().out
        assert "restorability: 100.0%" in out and "wrote /dev/null" in out

    def test_unwritable_path_exits_2(self, ring_instance_file, tmp_path, capsys):
        assert main(["plan", "--instance", str(ring_instance_file), "--mode", "single-layer",
                     "--gap", "0", "--output-dir", str(tmp_path)]) == 0
        config = next(tmp_path.glob("*.config.json"))
        capsys.readouterr()
        missing = tmp_path / "missing" / "verify.txt"
        assert main(["verify", "--config", str(config), "-o", str(missing)]) == 2
        err = capsys.readouterr().err
        assert f"error: cannot write {missing}: No such file or directory" in err
        assert "Traceback" not in err


class TestReportCommand:
    def test_multi_column_with_diff(self, ring_instance_file, tmp_path, capsys):
        for mode in ("single-layer", "ml-interlayer-brs"):
            assert main(["plan", "--instance", str(ring_instance_file),
                         "--mode", mode, "--gap", "0",
                         "--output-dir", str(tmp_path)]) == 0
        configs = sorted(str(p) for p in tmp_path.glob("*.config.json"))
        rc = main(["report", *configs, "--diff", "single-layer"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "Cost vs single-layer" in out
        assert "single-layer" in out and "ml-interlayer-brs" in out


class TestOtherCommands:
    def test_gen_topology(self, capsys):
        rc = main(["gen-topology", "--nodes", "8", "--connectivity", "3",
                   "--seed", "5"])
        assert rc == 0
        data = json.loads(capsys.readouterr().out)
        assert len(data["nodes"]) == 8
        assert len(data["links"]) == 12

    def test_estimate_size_bundled(self, capsys):
        assert main(["estimate-size"]) == 0
        out = capsys.readouterr().out
        assert "18144" in out and "25056" in out

    def test_oracle_command(self, ring_instance_file, capsys):
        rc = main(["oracle", "--instance", str(ring_instance_file),
                   "--mode", "single-layer"])
        assert rc == 0
        assert "optimal cost: 46.0" in capsys.readouterr().out

    def test_oracle_bounds(self, capsys):
        rc = main(["oracle", "--instance", str(bundled_instance_path()),
                   "--mode", "none"])
        assert rc == 2

    def test_bundled_instance_loads(self):
        inst = load_instance(bundled_instance_path())
        assert inst.topology.n == 12
        assert len(set(inst.topology.links)) == 24
        assert len(inst.traffic) == 126


def test_plan_defaults_are_run_request_and_plan_options_defaults():
    args = build_parser().parse_args(["plan"])
    request = RunRequest(instance=args.instance)
    for field in dataclasses.fields(RunRequest):
        assert getattr(args, field.name) == getattr(request, field.name), field.name
    options = planner.PlanOptions()
    assert (args.gap, args.time_limit) == (options.gap, options.time_limit)
