"""Tests for scenario parsing/validation and the command-line interface."""

import json

import pytest

from fuzzyfix.cli import main, run_command
from fuzzyfix.scenario import (
    SCENARIO_LIBRARY,
    SchemaError,
    load_scenario,
    parse_scenario,
)


def error_paths(exc: SchemaError) -> list:
    return [path for path, _ in exc.errors]


class TestScenarioParsing:
    def test_builtin_ex63_resolves(self):
        sc = load_scenario("ex63")
        space = sc.build_space()
        assert space.carrier.points == (0.0, 1.0, 2.0, 5.0)
        assert space.provenance == "exp(euclidean)"
        assert space.tnorm.kind.value == "product"
        T = sc.build_map()
        assert T.name == "perm-0-1-2-5"
        assert sc.route.value == "m-final"
        assert sc.solver_config().alpha == 2.0

    def test_builtin_ex62_resolves(self):
        sc = load_scenario("ex62")
        space = sc.build_space()
        assert space.provenance == "standard(max-jachymski)"
        assert space.strong
        assert sc.x0 == 0.7
        assert min(sc.t_grid) == 1.0 and max(sc.t_grid) == 100.0

    def test_builtin_ex61_is_gauges_only(self):
        sc = load_scenario("ex61")
        gauges = sc.build_gauges()
        assert set(gauges) == {"psi", "phi", "eta"}
        with pytest.raises(SchemaError):
            sc.build_space()

    def test_r_grid_at_one_rejected(self):
        doc = json.loads(SCENARIO_LIBRARY["ex63"])
        doc["grids"]["r"] = [0.5, 1.0]
        with pytest.raises(SchemaError, match=r"r must lie in \(0,1\)"):
            parse_scenario(json.dumps(doc))

    def test_table_map_missing_point_named(self):
        doc = json.loads(SCENARIO_LIBRARY["ex63"])
        doc["map"] = {"kind": "table", "mapping": {"0": 0, "1": 5, "2": 0}}
        with pytest.raises(SchemaError, match="missing image of point 5"):
            parse_scenario(json.dumps(doc))

    def test_unknown_ids_reported_with_paths(self):
        doc = {"space": {"carrier": {"kind": "finite", "points": [0, 1]},
                         "fuzzy": "exp:taxicab", "tnorm": "drastic"},
               "map": "rot13", "gauges": {"psi": "power:-1"}}
        with pytest.raises(SchemaError) as exc:
            parse_scenario(json.dumps(doc))
        paths = error_paths(exc.value)
        assert "space.fuzzy" in paths
        assert "space.tnorm" in paths
        assert "map" in paths
        assert "gauges.psi" in paths

    def test_not_json(self):
        with pytest.raises(SchemaError, match="not valid JSON"):
            parse_scenario("space: nope")

    def test_file_scenario(self, tmp_path):
        path = tmp_path / "custom.json"
        path.write_text(SCENARIO_LIBRARY["ex63"])
        sc = load_scenario(str(path))
        assert sc.build_map().name == "perm-0-1-2-5"

    def test_missing_scenario(self):
        with pytest.raises(SchemaError, match="no built-in scenario or file"):
            load_scenario("ex99")

    def test_expression_map(self):
        doc = {"space": {"carrier": {"kind": "interval", "low": 0, "high": 2,
                                     "samples": 11},
                         "fuzzy": "standard:euclidean"},
               "map": "expr:x / 2"}
        sc = parse_scenario(json.dumps(doc))
        T = sc.build_map()
        assert T(1.0) == 0.5

    def test_bad_expression_map(self):
        doc = {"map": "expr:x ^ ^ 2"}
        with pytest.raises(SchemaError, match="bad expression"):
            parse_scenario(json.dumps(doc))

    @pytest.mark.parametrize("spec", ["const:abc", "const:1/0", "const:nan"])
    def test_bad_const_map_is_a_schema_error(self, spec):
        with pytest.raises(SchemaError, match="number"):
            parse_scenario(json.dumps({"map": spec}))

    @pytest.mark.parametrize("grid", [[float("nan")], [1.0, float("inf")]])
    def test_non_finite_t_grid_rejected(self, grid):
        doc = {"grids": {"t": grid}}
        with pytest.raises(SchemaError, match="positive and finite"):
            parse_scenario(json.dumps(doc))

    def test_table_space_from_path(self, tmp_path):
        table = tmp_path / "nearness.json"
        table.write_text(json.dumps({
            "t_nodes": [1.0, 2.0],
            "entries": [{"x": 0, "y": 1, "values": [0.4, 0.6]}]}))
        doc = {"space": {"carrier": {"kind": "finite", "points": [0, 1]},
                         "fuzzy": f"table:{table}", "strong": False}}
        sc = parse_scenario(json.dumps(doc))
        space = sc.build_space()
        assert space.m_scalar(0, 1, 1.5) == pytest.approx(0.5, abs=1e-12)
        assert not space.strong


class TestCli:
    def test_paper_json_deterministic(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        code1, _ = run_command(["paper", "--format", "json-like", "--seed",
                                "7", "--out", str(a)])
        code2, _ = run_command(["paper", "--format", "json-like", "--seed",
                                "7", "--out", str(b)])
        assert code1 == code2 == 0
        assert a.read_bytes() == b.read_bytes()

    def test_paper_json_roundtrips(self, tmp_path):
        out = tmp_path / "paper.json"
        code, _ = run_command(["paper", "--format", "json-like", "--out",
                               str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["report_version"] == 1
        assert doc["passed"] is True
        assert len(doc["body"]["suites"]) == 4
        # re-serializing the parsed document reproduces the bytes
        again = json.dumps(doc, sort_keys=True, indent=2) + "\n"
        assert again == out.read_text()

    def test_classify_ex63_exits_one_with_witness(self):
        code, out = run_command(["classify-map", "--scenario", "ex63",
                                 "--route", "cm", "--format", "json-like",
                                 "--t-grid", "0.5,1,2"])
        assert code == 1
        doc = json.loads(out)
        conds = doc["body"]["classification"]["conditions"]
        strict = [c for c in conds if c["name"] == "strict-improvement"][0]
        assert strict["witness"]["x"] == 0.0
        assert strict["witness"]["y"] == 1.0

    def test_classify_ex63_blended_route_passes(self):
        code, out = run_command(["classify-map", "--scenario", "ex63",
                                 "--route", "m", "--format", "json-like",
                                 "--t-grid", "0.5,1,2"])
        assert code == 0
        doc = json.loads(out)
        assert doc["body"]["classification"]["status"] == "satisfied"

    def test_iterate_ex62(self):
        code, out = run_command(["iterate", "--scenario", "ex62", "--x0",
                                 "0.7", "--max-len", "8", "--format",
                                 "json-like"])
        assert code == 0
        rows = json.loads(out)["body"]["trace"]["rows"]
        xs = [row["x"] for row in rows]
        assert len(xs) >= 4
        assert xs[:4] == [0.7, 0.5, 1 / 3, 0.25]

    def test_solve_ex63(self):
        code, out = run_command(["solve", "--scenario", "ex63", "--format",
                                 "json-like", "--t-grid", "log:0.5:50:8"])
        assert code == 0
        doc = json.loads(out)
        assert doc["body"]["solution"]["fixed_point"] == 0.0
        assert doc["body"]["solution"]["unique"] is True

    def test_solve_unconverged_prefix_exits_one(self, tmp_path):
        doc = json.loads(SCENARIO_LIBRARY["ex62"])
        doc["solver"]["max_len"] = 50
        path = tmp_path / "short.json"
        path.write_text(json.dumps(doc))
        code, out = run_command(["solve", "--scenario", str(path), "--format",
                                 "json-like"])
        assert code == 1
        solution = json.loads(out)["body"]["solution"]
        assert solution["audit_passed"] and not solution["converged"]
        assert solution["cauchy"]["verdict"] == "holds_on_prefix"

    def test_solve_ex63_wrong_route_exits_one(self):
        code, out = run_command(["solve", "--scenario", "ex63", "--route",
                                 "cm-strong", "--format", "json-like",
                                 "--t-grid", "0.5,1,2"])
        assert code == 1
        doc = json.loads(out)
        assert doc["body"]["solution"]["diagnosis"].startswith(
            "precondition failed")

    def test_check_space_ex63(self):
        code, out = run_command(["check-space", "--scenario", "ex63",
                                 "--format", "json-like"])
        assert code == 0
        doc = json.loads(out)
        assert doc["body"]["axiom_report"]["strong_verdict"] is True

    def test_gauge_by_id(self):
        code, out = run_command(["gauge", "--gauge", "power:5/7", "--format",
                                 "json-like"])
        assert code == 0
        doc = json.loads(out)
        verdicts = {c["class"]: c["verdict"]
                    for c in doc["body"]["certificates"]}
        assert verdicts == {"psi": "member", "psi1": "member"}

    def test_gauge_scenario_ex61_exits_one(self):
        # the step gauge is not in the continuous class, so not all verdicts
        # are "member"
        code, out = run_command(["gauge", "--scenario", "ex61", "--format",
                                 "json-like"])
        assert code == 1
        doc = json.loads(out)
        verdicts = {(c["role"], c["class"]): c["verdict"]
                    for c in doc["body"]["certificates"]}
        assert verdicts[("psi", "psi")] == "non_member"
        assert verdicts[("psi", "psi1")] == "member"
        assert verdicts[("phi", "phi1")] == "member"
        assert verdicts[("eta", "h")] == "member"

    def test_schema_error_exit_two(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"grids": {"r": [1.0]}}')
        code, out = run_command(["check-space", "--scenario", str(bad)])
        assert code == 2
        assert "r must lie in (0,1)" in out

    def test_malformed_json_exit_two(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        code, out = run_command(["gauge", "--scenario", str(bad)])
        assert code == 2
        assert "schema error" in out

    @pytest.mark.parametrize("argv", [
        ["gauge", "--gauge", "power-phi:2", "--eval", "1e200"],
        ["gauge", "--gauge", "step-psi", "--tolerance", "2"],
        ["gauge", "--gauge", "power:abc"],
        ["gauge", "--gauge", "power:1/0"],
        ["gauge", "--gauge", "power:nan"]])
    def test_gauge_domain_errors_exit_two(self, argv):
        code, out = run_command(argv)
        assert code == 2
        assert out.startswith("error: ")

    @pytest.mark.parametrize("argv", [
        ["check-space", "--scenario", "ex63", "--t-grid", "nan"],
        ["check-space", "--scenario", "ex63", "--t-grid", "inf"],
        ["check-space", "--scenario", "ex63", "--t-grid", "1,abc"],
        ["check-space", "--scenario", "ex63", "--t-grid", "lin:1:inf:3"],
        ["classify-map", "--scenario", "ex63", "--r-grid", "abc"]])
    def test_bad_grid_exits_two(self, argv):
        code, out = run_command(argv)
        assert code == 2
        assert out.startswith("schema error at --")
        assert len(out.splitlines()) == 1

    def test_relative_strictness_margin(self, tmp_path):
        # exp nearness at t = 0.01 reaches 4.8e-25; x/2 still improves it
        path = tmp_path / "halving.json"
        path.write_text(json.dumps({
            "space": {"carrier": {"kind": "interval", "low": 0, "high": 1,
                                  "samples": 101},
                      "fuzzy": "exp:euclidean"},
            "map": "expr:x/2", "gauges": {"psi": "power:5/7"}}))
        for route in ("psi", "cm"):
            code, out = run_command(["classify-map", "--scenario", str(path),
                                     "--route", route])
            assert code == 0, out

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_table_value_exits_two(self, tmp_path, bad):
        table = tmp_path / "nearness.json"
        table.write_text(json.dumps({
            "t_nodes": [1.0, 2.0],
            "entries": [{"x": 0, "y": 1, "values": [0.4, bad]}]}))
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps({
            "space": {"carrier": {"kind": "finite", "points": [0, 1]},
                      "fuzzy": f"table:{table}"}}))
        code, out = run_command(["check-space", "--scenario", str(path)])
        assert code == 2
        assert out == "error: table entry (0, 1) has a non-finite value\n"

    def test_usage_error_exit_two(self, capsys):
        code, _ = run_command(["classify-map", "--route", "bogus"])
        assert code == 2

    def test_missing_scenario_exit_two(self):
        code, out = run_command(["check-space"])
        assert code == 2
        assert "needs a scenario" in out

    def test_main_prints(self, capsys):
        code = main(["gauge", "--gauge", "identity", "--class-tag", "psi1"])
        captured = capsys.readouterr()
        assert code == 1
        assert "non_member" in captured.out

    def test_text_format_renders(self):
        code, out = run_command(["check-space", "--scenario", "ex63"])
        assert code == 0
        assert out.startswith("command: check-space")
        assert "passed: True" in out
