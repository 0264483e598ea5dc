"""Tests for scenario parsing/validation and the command-line interface."""

import json
import math
import re
import shlex
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fuzzyfix import cli
from fuzzyfix import scenario as scenario_mod
from fuzzyfix.algebra import DomainError, gauge
from fuzzyfix.cli import main, run_command
from fuzzyfix.dynamics import (
    MAX_ORBIT_LEN,
    OrbitTrace,
    SolverConfig,
    g_cauchy_check,
    picard_orbit,
    regularity_check,
    solve_fixed_point,
)
from fuzzyfix.expressions import MAX_DEPTH
from fuzzyfix.scenario import (
    MAX_GRID_POINTS,
    SCENARIO_LIBRARY,
    SchemaError,
    load_scenario,
    parse_scenario,
)
from fuzzyfix.spaces import MAX_CARRIER_SAMPLES, Carrier


GOLDEN = Path(__file__).parent / "golden"


def error_paths(exc: SchemaError) -> list:
    return [path for path, _ in exc.errors]


def quad_table(path: Path, values=None) -> Path:
    """A nearness table file exp(-|x-y|/t) on the points 0, 1, 2, 5."""
    pts, nodes = [0, 1, 2, 5], [1.0, 2.0]
    entries = [{"x": x, "y": y, "values": values or
                [math.exp(-abs(x - y) / t) for t in nodes]}
               for i, x in enumerate(pts) for y in pts[i + 1:]]
    path.write_text(json.dumps({"t_nodes": nodes, "entries": entries}))
    return path


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
        with pytest.raises(SchemaError, match="missing the image of point 5"):
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

    def test_objects_decoded_once(self):
        sc = load_scenario("ex63")
        assert sc.build_space() is sc.build_space()
        assert sc.build_map() is sc.build_map()
        assert sc.build_gauges()["psi"] is sc.solver_config().psi

    def test_solver_config_is_a_copy(self):
        sc = load_scenario("ex62")
        cfg = sc.solver_config()
        cfg.t_grid, cfg.max_len = (1.0,), 5
        assert sc.solver_config().t_grid == sc.t_grid
        assert sc.solver_config().max_len == 10000
        assert sc.solver == {"route": "cm-strong", "x0": 0.7, "max_len": 10000,
                             "stop_tolerance": 1e-9, "tail_tolerance": 1e-6,
                             "alpha": 0.0, "beta": 0.0}

    def test_table_space_from_path(self, tmp_path):
        table = tmp_path / "nearness.json"
        table.write_text(json.dumps({
            "t_nodes": [1.0, 2.0],
            "entries": [{"x": 0, "y": 1, "values": [0.4, 0.6]}]}))
        doc = {"space": {"carrier": {"kind": "finite", "points": [0, 1]},
                         "fuzzy": f"table:{table}", "strong": False}}
        sc = parse_scenario(json.dumps(doc))
        space = sc.build_space()
        assert space.m(0, 1, 1.5) == pytest.approx(0.5, abs=1e-12)
        assert not space.strong


# A malformed scenario document: the key path its error names, and the edits
# to ex63 (by dotted key) that make it; "{tmp}" is the test's directory.
MALFORMED = {
    "interval-samples-not-integer": ("space.carrier", {"space.carrier": {
        "kind": "interval", "low": 0, "high": 1, "samples": "abc"}}),
    "interval-high-overflows": ("space.carrier", {"space.carrier": {
        "kind": "interval", "low": 0, "high": 1e400}}),
    "point-not-number": ("space.carrier", {"space.carrier.points": ["a", 1]}),
    "point-nested-list": ("space.carrier", {"space.carrier.points": [[1]]}),
    "point-nan": ("space.carrier", {"space.carrier.points": [0, math.nan]}),
    "complete-string": ("space.complete", {"space.complete": "false"}),
    "strong-number": ("space.strong", {"space.strong": 1}),
    "fuzzy-not-string": ("space.fuzzy", {"space.fuzzy": ["exp"]}),
    "table-file-missing": ("space.fuzzy",
                           {"space.fuzzy": "table:{tmp}/absent.json"}),
    "table-not-json": ("space.fuzzy", {"space.fuzzy": "table:{tmp}/bad.txt"}),
    "table-without-entries": ("space.fuzzy",
                              {"space.fuzzy": "table:{tmp}/nodes.json"}),
    "table-string-value": ("space.fuzzy",
                           {"space.fuzzy": "table:{tmp}/string.json"}),
    "table-nan-value": ("space.fuzzy", {"space.fuzzy": "table:{tmp}/nan.json"}),
    "map-free-variable": ("map", {"map": "expr:x*t"}),
    "map-image-not-number": ("map", {"map": {"kind": "table", "mapping": {
        "0": "a", "1": 5, "2": 0, "5": 2}}}),
    "map-point-key-not-number": ("map", {"map": {"kind": "table", "mapping": {
        "zero": 0, "1": 5, "2": 0, "5": 2}}}),
    "gauge-number": ("gauges.psi", {"gauges.psi": 5}),
    "gauge-conj-short": ("gauges.psi", {"gauges.psi": "conj:eta-neglog"}),
    "x0-string": ("solver.x0", {"solver.x0": "abc"}),
    "max-len-string": ("solver.max_len", {"solver.max_len": "abc"}),
    "max-len-boolean": ("solver.max_len", {"solver.max_len": True}),
    "max-len-above-cap": ("solver.max_len",
                          {"solver.max_len": MAX_ORBIT_LEN + 1}),
    "interval-samples-above-cap": ("space.carrier", {"space.carrier": {
        "kind": "interval", "low": 0, "high": 1,
        "samples": MAX_CARRIER_SAMPLES + 1}}),
    "grid-count-above-cap": ("grids.t", {
        "grids.t": f"log:1:100:{MAX_GRID_POINTS + 1}"}),
    "grid-list-above-cap": ("grids.r",
                            {"grids.r": [0.5] * (MAX_GRID_POINTS + 1)}),
    "alpha-null": ("solver.alpha", {"solver.alpha": None}),
    "stop-tolerance-negative": ("solver.stop_tolerance",
                                {"solver.stop_tolerance": -1e-9}),
    "stop-tolerance-nan": ("solver.stop_tolerance",
                           {"solver.stop_tolerance": math.nan}),
    "stop-tolerance-infinite": ("solver.stop_tolerance",
                                {"solver.stop_tolerance": math.inf}),
    "tail-tolerance-negative": ("solver.tail_tolerance",
                                {"solver.tail_tolerance": -1}),
    "tail-tolerance-infinite": ("solver.tail_tolerance",
                                {"solver.tail_tolerance": 10 ** 400}),
    "route-unknown": ("solver.route", {"solver.route": "newton"}),
    "route-number": ("solver.route", {"solver.route": 3}),
    "seed-boolean": ("seed", {"seed": True}),
    "seed-float": ("seed", {"seed": 1.5}),
    "seed-negative": ("seed", {"seed": -1}),
    "name-number": ("name", {"name": 5}),
    "grid-integer-overflows": ("grids.t", {"grids.t": [10 ** 400]}),
    "grid-boolean": ("grids.t", {"grids.t": [True, 2]}),
    "grid-numeric-string": ("grids.r", {"grids.r": ["0.5"]}),
    "solver-unknown-key": ("solver.max-len", {"solver.max-len": 3}),
    "solver-i-max-unknown": ("solver.i_max", {"solver.i_max": 50}),
    "grids-unknown-key": ("grids.s", {"grids.s": "default"}),
    "space-unknown-key": ("space.metric", {"space.metric": "euclidean"}),
    "carrier-unknown-key": ("space.carrier.step", {"space.carrier.step": 1}),
    "table-map-unknown-key": ("map.images", {"map": {
        "kind": "table", "mapping": {"0": 0, "1": 5, "2": 0, "5": 2},
        "images": {}}}),
}


@pytest.fixture
def malformed_dir(tmp_path):
    (tmp_path / "bad.txt").write_text("t_nodes: [1]")
    (tmp_path / "nodes.json").write_text('{"t_nodes": [1.0]}')
    quad_table(tmp_path / "string.json", ["a", 0.5])
    quad_table(tmp_path / "nan.json", [0.5, math.nan])
    return tmp_path


@pytest.mark.parametrize("command", ["check-space", "solve"])
@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_document_is_a_schema_error(malformed_dir, case, command):
    path, edits = MALFORMED[case]
    doc = json.loads(SCENARIO_LIBRARY["ex63"])
    for dotted, value in edits.items():
        *parents, key = dotted.split(".")
        node = doc
        for parent in parents:
            node = node[parent]
        node[key] = (value.format(tmp=malformed_dir)
                     if isinstance(value, str) else value)
    scenario = malformed_dir / "scenario.json"
    scenario.write_text(json.dumps(doc))
    code, out = run_command([command, "--scenario", str(scenario)])
    assert code == 2
    lines = out.splitlines()
    assert lines
    assert all(line.startswith(f"schema error at {path}: ") for line in lines)


def test_misspelled_solver_key_is_not_ignored(tmp_path):
    doc = json.loads(SCENARIO_LIBRARY["ex62"])
    doc["solver"]["max-len"] = 3
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    code, out = run_command(["iterate", "--scenario", str(path)])
    assert (code, out) == (2, "schema error at solver.max-len: unknown key\n")


@pytest.mark.parametrize("command", ["classify-map", "iterate", "solve",
                                     "check-space"])
def test_empty_grid_lists_are_schema_errors(tmp_path, command):
    # an empty grid leaves a verdict without records, or a traceback
    doc = json.loads(SCENARIO_LIBRARY["ex62"])
    doc["grids"] = {"t": [], "r": []}
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    code, out = run_command([command, "--scenario", str(path)])
    assert code == 2
    assert out.splitlines() == [
        f"schema error at grids.{kind}: grid list must hold numbers, at "
        "least one" for kind in "tr"]


def test_every_documented_key_is_known(tmp_path):
    doc = json.loads(SCENARIO_LIBRARY["ex63"])
    doc["space"]["carrier"].update(low=0, high=5, samples=11)
    doc["map"] = {"kind": "table", "name": "cycle",
                  "mapping": {"0": 0, "1": 5, "2": 0, "5": 2}}
    doc["grids"] = {"t": [1.0, 2.0], "r": "default"}
    doc["solver"] = {"route": "m-final", "x0": 1, "max_len": 10,
                     "stop_tolerance": 1e-9, "tail_tolerance": 1e-6,
                     "alpha": 2, "beta": 2}
    sc = parse_scenario(json.dumps(doc))
    assert sc.solver["max_len"] == 10 and sc.map.name == "cycle"


@pytest.mark.parametrize("argv", [["classify-map", "--route", "m"],
                                  ["solve", "--route", "auto"]])
def test_table_space_built_once_per_command(tmp_path, monkeypatch, argv):
    calls = []
    build = scenario_mod.table_fuzzy_metric

    def counted(*args, **kwargs):
        calls.append(args)
        return build(*args, **kwargs)
    monkeypatch.setattr(scenario_mod, "table_fuzzy_metric", counted)
    doc = json.loads(SCENARIO_LIBRARY["ex63"])
    doc["space"]["fuzzy"] = f"table:{quad_table(tmp_path / 'table.json')}"
    doc["grids"]["t"] = [1.0, 2.0]
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    code, out = run_command(argv + ["--scenario", str(path)])
    assert code in (0, 1), out
    assert len(calls) == 1


def _per_entry_table_error(path: Path):
    """The first error of a table file under per-entry validation, the
    reference for the one-scan reader: each entry's members judged one at a
    time, then each entry's value count, then its values' finiteness.  None
    for a good file."""
    def is_number(v):
        return isinstance(v, float) or (
            isinstance(v, int) and not isinstance(v, bool)
            and abs(v) <= sys.float_info.max)

    doc = json.loads(path.read_text())
    k = len(doc["t_nodes"])
    table = {}
    for entry in doc["entries"]:
        x, y, values = ((entry.get(key) for key in ("x", "y", "values"))
                        if isinstance(entry, dict) else (None,) * 3)
        if not (isinstance(values, list)
                and all(map(is_number, [x, y, *values]))):
            return ("missing a table entry" if entry is None else
                    "a table entry must be numbers x and y with a list of "
                    f"numbers 'values', got {entry!r}")
        table[x, y] = values
    for (a, b), vs in table.items():
        if len(vs) != k:
            return f"table entry {(a, b)} has {len(vs)} values, expected {k}"
    for (a, b), vs in table.items():
        if not all(map(math.isfinite, vs)):
            return f"table entry {(a, b)} has a non-finite value"
    return None


def _spoil(kind: str, entry: dict):
    """The table entry ``entry`` made malformed in the way ``kind`` names."""
    entry = dict(entry, values=list(entry["values"]))
    if kind == "bool-value":
        entry["values"][1] = True
    elif kind == "bool-key":
        entry["x"] = False
    elif kind == "string-value":
        entry["values"][0] = "0.5"
    elif kind == "string-key":
        entry["y"] = "1"
    elif kind == "null-value":
        entry["values"][1] = None
    elif kind == "null-entry":
        return None
    elif kind == "nested-list":
        entry["values"][0] = [0.5]
    elif kind == "values-not-list":
        entry["values"] = 0.5
    elif kind == "int-beyond-float":
        entry["values"][0] = 10 ** 400
    elif kind == "key-beyond-float":
        entry["x"] = -(10 ** 309)
    elif kind == "missing-key":
        del entry["y"]
    elif kind == "not-object":
        return [entry["x"], entry["y"], entry["values"]]
    elif kind == "wrong-count":
        entry["values"].append(0.9)
    elif kind == "non-finite":
        entry["values"][1] = math.inf
    elif kind == "nan":
        entry["values"][0] = math.nan
    else:
        raise ValueError(kind)
    return entry


_SPOILS = ("bool-value", "bool-key", "string-value", "string-key",
           "null-value", "null-entry", "nested-list", "values-not-list",
           "int-beyond-float", "key-beyond-float", "missing-key",
           "not-object", "wrong-count", "non-finite", "nan")


def _table_scenario(tmp_path: Path, table: Path) -> Path:
    doc = json.loads(SCENARIO_LIBRARY["ex63"])
    doc["space"]["fuzzy"] = f"table:{table}"
    doc["grids"]["t"] = [1.0, 2.0]
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    return path


@pytest.mark.parametrize("position", [0, 3, 5])
@pytest.mark.parametrize("kind", _SPOILS)
def test_bad_table_entry_reported_as_by_per_entry_validation(
        tmp_path, kind, position):
    table = quad_table(tmp_path / "table.json")
    doc = json.loads(table.read_text())
    doc["entries"][position] = _spoil(kind, doc["entries"][position])
    # a second, later bad entry of another kind is never the one named
    if position < 5:
        doc["entries"][5] = _spoil("string-value", doc["entries"][5])
    table.write_text(json.dumps(doc))
    want = _per_entry_table_error(table)
    assert want is not None
    for command in ("check-space", "classify-map", "solve"):
        code, out = run_command([command, "--scenario",
                                 str(_table_scenario(tmp_path, table))])
        assert (code, out) == (2, f"schema error at space.fuzzy: {want}\n")


def test_int_typed_table_loads_to_the_same_space(tmp_path):
    # ints as coordinates and values, the carrier given as floats
    values = [[0.25, 1], [0.5, 0.75]]
    ints, floats = ({"t_nodes": [1, 2] if typed is int else [1.0, 2.0],
                     "entries": [{"x": typed(x), "y": typed(y),
                                  "values": vs}
                                 for (x, y), vs in zip([(0, 1), (1, 2)],
                                                       values)]
                     + [{"x": typed(2), "y": typed(0),
                         "values": [typed(1), 0.5]}]}
                    for typed in (int, float))
    spaces = []
    for name, doc in (("ints", ints), ("floats", floats)):
        table = tmp_path / f"{name}.json"
        table.write_text(json.dumps(doc))
        assert _per_entry_table_error(table) is None
        nodes, entries = scenario_mod._read_table(str(table))
        assert nodes == doc["t_nodes"]
        assert [(key, vs, [type(v) for v in (*key, *vs)])
                for key, vs in entries.items()] == [
            ((e["x"], e["y"]), e["values"],
             [type(v) for v in (e["x"], e["y"], *e["values"])])
            for e in doc["entries"]]
        spec = {"space": {"carrier": {"kind": "finite",
                                      "points": [0.0, 1.0, 2.0]},
                          "fuzzy": f"table:{table}"}}
        spaces.append(parse_scenario(json.dumps(spec)).build_space())
    pts = np.array([0.0, 1.0, 2.0])
    ts = np.array([0.5, 1.0, 1.5, 2.0, 3.0])
    a, b = (space.m(pts[:, None, None], pts[None, :, None], ts)
            for space in spaces)
    assert np.array_equal(a.view(np.uint64), b.view(np.uint64))


class TestCli:
    def test_paper_matches_golden_output(self):
        # the behaviour gate: an intended change to this output replaces the
        # file and names the reason in CHANGES.md
        code, out = run_command(["paper", "--format", "json-like", "--seed",
                                 "7"])
        assert code == 0
        assert out.encode() == (GOLDEN / "paper-seed7.json").read_bytes()

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

    @pytest.mark.parametrize("role, spec", [
        ("psi", "conj:eta-reciprocal-t:2:step-phi"),
        ("phi", "conj:eta-reciprocal-t:1/2:power:1/2")])
    def test_gauge_conjugated_through_a_parameterised_generator(self, role,
                                                                spec):
        code, out = run_command(["gauge", "--gauge", spec, "--format",
                                 "json-like"])
        assert code in (0, 1)
        name = gauge(spec).name
        assert name.startswith("conj(eta-reciprocal-t:")
        assert {c["gauge"] for c in json.loads(out)["body"]["certificates"]} \
            == {name}
        doc = json.loads(SCENARIO_LIBRARY["ex61"])
        doc["gauges"][role] = spec
        assert parse_scenario(json.dumps(doc)).build_gauges()[role].name \
            == name

    @pytest.mark.parametrize("argv", [
        ["--gauge", "step-phi"], ["--gauge", "eta-neglog"],
        ["--gauge", "power:1/2", "--class-tag", "h"]])
    def test_r_grid_no_certificate_reads_exits_two(self, argv):
        # phi1 and h certificates read no threshold grid
        code, out = run_command(["gauge", *argv, "--r-grid", "0.5"])
        assert (code, out) == (2, "schema error at --r-grid: no certificate "
                                  "of this command reads a threshold grid\n")

    def test_r_grid_read_by_a_scenario_psi_certificate(self):
        code, out = run_command(["gauge", "--scenario", "ex61", "--r-grid",
                                 "0.5", "--format", "json-like"])
        assert code == 1
        grids = {c["class"]: c["grid"]
                 for c in json.loads(out)["body"]["certificates"]}
        assert grids["psi1"] == grids["psi"] == [0.5]
        assert len(grids["phi1"]) == 22 and grids["h"] == []

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

    def test_non_utf8_scenario_exit_two(self, tmp_path):
        bad = tmp_path / "latin1.json"
        bad.write_bytes('{"name": "caf\xe9"}'.encode("latin-1"))
        code, out = run_command(["check-space", "--scenario", str(bad)])
        assert code == 2
        assert out.startswith("schema error at $: not UTF-8 text")

    def test_malformed_json_exit_two(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        code, out = run_command(["gauge", "--scenario", str(bad)])
        assert code == 2
        assert "schema error" in out

    @pytest.mark.parametrize("argv", [
        ["gauge", "--gauge", "power-phi:2", "--eval", "1e200"],
        ["gauge", "--gauge", "step-psi", "--tolerance", "2"],
        ["gauge", "--gauge", "power:0.5", "--tolerance", "1e-300"],
        ["gauge", "--gauge", "power:0.5", "--tolerance", "inf"],
        ["gauge", "--gauge", "power:abc"],
        ["gauge", "--gauge", "power:1/0"],
        ["gauge", "--gauge", "power:nan"],
        ["gauge", "--gauge", "conj:eta-neglog"]])
    def test_gauge_domain_errors_exit_two(self, argv):
        code, out = run_command(argv)
        assert code == 2
        assert out.startswith("error: ")
        assert out.count("\n") == 1

    @pytest.mark.parametrize("spec, name", [("step-phi", "step-phi"),
                                            ("power-phi:2", "power-phi:2.0")])
    def test_gauge_eval_nan_exits_two(self, spec, name):
        # [0, inf) refuses NaN, so no report carries a bare NaN
        assert run_command(["gauge", "--gauge", spec, "--eval", "nan",
                            "--format", "json-like"]) == (
            2, f"error: {name}: argument nan outside [0,inf)\n")

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

    @pytest.mark.parametrize("command", ["check-space", "classify-map"])
    def test_subnormal_scale_on_exp_space_warns_nothing(self, command):
        # d/t overflows at t = 1e-310 and exp(-inf) = 0 is the nearness; a
        # RuntimeWarning fails the test under the pytest configuration.
        # That zero is a float underflow, which positivity does not count
        code, out = run_command([command, "--scenario", "ex63", "--t-grid",
                                 "1e-310"])
        assert code == (0 if command == "check-space" else 1)
        assert "1e-310" in out

    def test_underflow_to_zero_is_no_positivity_violation(self):
        # exp(-3000) is 0 in floats; the exp space's declared profile is
        # positive at every finite distance, so the witness is marked
        code, out = run_command(["check-space", "--scenario", "ex63",
                                 "--t-grid", "1e-3", "--format",
                                 "json-like"])
        assert code == 0
        pos = json.loads(out)["body"]["axiom_report"]["axioms"][0]
        assert pos == {"name": "positivity", "passed": True,
                       "witness": {"x": 5.0, "y": 2.0, "t": 0.001,
                                   "reason": "float-underflow"}}

    def test_scale_near_the_float_maximum_is_a_one_line_error(self):
        # s + t overflows for t = 1e308; the sum would warn, an error under
        # the pytest configuration
        code, out = run_command(["check-space", "--scenario", "ex62",
                                 "--t-grid", "1e308"])
        assert (code, out) == (2, "error: t grid value 1e+308 is too large: "
                               "the triangle's scale s + t overflows\n")

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

    @pytest.mark.parametrize("expr, continuous, source", [
        ("piecewise(x < 0.5, x/4, x/4 + 0.2)", False, "piecewise"),
        ("x/4 + 0.1", True, "declared")])
    def test_m_final_continuity_audit_of_an_expression(self, tmp_path, expr,
                                                      continuous, source):
        # a piecewise expression can jump, here at 1/2, so it is not
        # declared continuous
        path = tmp_path / "quarter.json"
        path.write_text(json.dumps({
            "space": {"carrier": {"kind": "interval", "low": 0, "high": 1,
                                  "samples": 101},
                      "fuzzy": "exp:euclidean"},
            "map": f"expr:{expr}", "gauges": {"psi": "power:0.9"},
            "solver": {"route": "m-final", "x0": 1, "alpha": 0, "beta": 0}}))
        code, out = run_command(["solve", "--scenario", str(path), "--format",
                                 "json-like"])
        solution = json.loads(out)["body"]["solution"]
        audit = {a["condition"]: a for a in solution["audit"]}
        assert audit["map-continuity"] == {"condition": "map-continuity",
                                           "detail": {"source": source},
                                           "passed": continuous}
        assert (solution["diagnosis"] == "precondition failed: map-continuity"
                ) is not continuous
        assert code == (0 if continuous else 1)

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
        assert out == ("schema error at space.fuzzy: table entry (0, 1) has a "
                       "non-finite value\n")

    @pytest.mark.parametrize("argv", [
        ["check-space", "--scenario", "ex62", "--seed", "-1"],
        ["paper", "--seed", "-1"]])
    def test_negative_seed_exits_two(self, argv):
        assert run_command(argv) == (
            2, "schema error at --seed: must be a nonnegative integer, "
               "got -1\n")

    def test_sample_counts_above_their_caps_exit_two(self):
        over = MAX_GRID_POINTS + 1
        for argv, flag in (
                (["check-space", "--t-grid", f"lin:1:2:{over}"], "--t-grid"),
                (["classify-map", "--r-grid", ",".join(["0.5"] * over)],
                 "--r-grid")):
            code, out = run_command(argv + ["--scenario", "ex62"])
            assert (code, out) == (2, f"schema error at {flag}: a grid holds "
                                      f"at most {MAX_GRID_POINTS} points, "
                                      f"got {over}\n")
        code, out = run_command(["iterate", "--scenario", "ex62", "--max-len",
                                 str(MAX_ORBIT_LEN + 1)])
        assert (code, out) == (2, f"error: max_len must be at most "
                                  f"{MAX_ORBIT_LEN}, "
                                  f"got {MAX_ORBIT_LEN + 1}\n")

    def test_sample_count_caps_are_judged_before_any_allocation(self):
        errors = []
        with mock.patch.object(np, "linspace", side_effect=AssertionError), \
                mock.patch.object(np, "logspace", side_effect=AssertionError):
            with pytest.raises(DomainError, match=(
                    f"at most {MAX_CARRIER_SAMPLES} samples, "
                    f"got {MAX_CARRIER_SAMPLES + 1}")):
                Carrier.interval(0, 1, MAX_CARRIER_SAMPLES + 1)
            for spec in (f"lin:1:2:{MAX_GRID_POINTS + 1}",
                         f"log:1:2:{MAX_GRID_POINTS + 1}"):
                scenario_mod.parse_grid(spec, "t", "grids.t", errors)
        assert len(errors) == 2
        sc = load_scenario("ex62")
        with mock.patch.object(type(sc.map), "apply",
                               side_effect=AssertionError):
            with pytest.raises(DomainError, match="max_len must be at most"):
                picard_orbit(sc.space, sc.map, 0.7, MAX_ORBIT_LEN + 1)
        # the caps themselves are accepted
        assert len(Carrier.interval(0, 1, MAX_CARRIER_SAMPLES).points) == (
            MAX_CARRIER_SAMPLES)
        assert len(scenario_mod.parse_grid(f"lin:1:2:{MAX_GRID_POINTS}", "t",
                                           "grids.t", errors)) == (
            MAX_GRID_POINTS)
        assert len(errors) == 2
        doc = json.loads(SCENARIO_LIBRARY["ex62"])
        doc["solver"].update(max_len=MAX_ORBIT_LEN)
        assert parse_scenario(json.dumps(doc)).solver["max_len"] == (
            MAX_ORBIT_LEN)

    @pytest.mark.parametrize("tol", ["nan", "-1", "inf"])
    def test_tolerance_that_cannot_fail_a_check_exits_two(self, tmp_path,
                                                           tol):
        # M(0, 1) = 0.5 against M(1, 0) = 0.6: symmetry fails at any
        # finite nonnegative tolerance below 0.1
        table = tmp_path / "nearness.json"
        table.write_text(json.dumps({
            "t_nodes": [1.0, 2.0],
            "entries": [{"x": 0, "y": 1, "values": [0.5, 0.5]},
                        {"x": 1, "y": 0, "values": [0.6, 0.6]}]}))
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps({
            "space": {"carrier": {"kind": "finite", "points": [0, 1]},
                      "fuzzy": f"table:{table}"}}))
        code, out = run_command(["check-space", "--scenario", str(path),
                                 "--format", "json-like"])
        assert code == 1
        axioms = json.loads(out)["body"]["axiom_report"]["axioms"]
        assert not next(a for a in axioms if a["name"] == "symmetry")["passed"]
        code, out = run_command(["check-space", "--scenario", str(path),
                                 "--tolerance", tol])
        assert (code, out) == (2, "error: tolerance must be finite and "
                               f"nonnegative, got {float(tol)!r}\n")
        # an orbit's stop tolerance has the same range: with inf every step
        # would stop the orbit, with NaN or -1 none would
        code, out = run_command(["iterate", "--scenario", "ex62",
                                 "--max-len", "5", "--tolerance", tol])
        assert (code, out) == (2, "error: tolerance must be finite and "
                               f"nonnegative, got {float(tol)!r}\n")
        # and so has a tail tolerance: on an orbit that keeps oscillating,
        # inf would certify regularity, NaN and -1 would refute it
        sc = load_scenario("ex62")
        space = sc.build_space()
        trace = OrbitTrace.from_points(space, [0.0, 5.0] * 30, sc.t_grid)
        message = ("tolerance must be finite and nonnegative, "
                   f"got {float(tol)!r}")
        assert not regularity_check(space, trace).plain_all
        assert not g_cauchy_check(space, trace).holds
        with pytest.raises(DomainError) as err:
            regularity_check(space, trace, tail_tolerance=float(tol))
        assert str(err.value) == message
        with pytest.raises(DomainError) as err:
            solve_fixed_point(space, sc.build_map(), 7.0,
                              config=SolverConfig(max_len=20,
                                                  tail_tolerance=float(tol)))
        assert str(err.value) == message

    def test_expression_map_failure_exits_two(self, tmp_path):
        path = tmp_path / "reciprocal.json"
        path.write_text(json.dumps({
            "space": {"carrier": {"kind": "interval", "low": 0, "high": 1},
                      "fuzzy": "standard:euclidean"},
            "map": "expr:1/x"}))
        code, out = run_command(["classify-map", "--scenario", str(path)])
        assert code == 2
        assert out.startswith("error: map expr:1/x cannot be evaluated at 0.0")
        assert len(out.splitlines()) == 1

    @pytest.mark.parametrize("command", ["classify-map", "solve"])
    def test_power_with_no_real_value_exits_two(self, tmp_path, command):
        path = tmp_path / "root.json"
        path.write_text(json.dumps({
            "space": {"carrier": {"kind": "interval", "low": -1, "high": 1},
                      "fuzzy": "standard:euclidean"},
            "map": "expr:x^0.5", "solver": {"x0": -0.5}}))
        code, out = run_command([command, "--scenario", str(path)])
        assert code == 2
        assert out.startswith("error: map expr:x^0.5 cannot be evaluated at")
        assert "power failed" in out and "(line 1, column 2)" in out
        assert len(out.splitlines()) == 1

    @pytest.mark.parametrize("text, column", [
        # the operator whose tree passes the cap, and the parenthesis
        ("+".join(["x"] * 1000), 2 * MAX_DEPTH),
        ("(" * 250 + "x" + ")" * 250, MAX_DEPTH + 1)])
    def test_expression_deeper_than_the_cap_exits_two(self, tmp_path, text,
                                                      column):
        path = tmp_path / "deep.json"
        path.write_text(json.dumps({
            "space": {"carrier": {"kind": "interval", "low": 0, "high": 1},
                      "fuzzy": "standard:euclidean"},
            "map": "expr:" + text}))
        code, out = run_command(["solve", "--scenario", str(path)])
        assert (code, out) == (2, "schema error at map: bad expression: "
                               f"expression nests deeper than {MAX_DEPTH} "
                               f"levels (line 1, column {column})\n")

    def test_deeply_nested_json_exits_two(self, tmp_path):
        nested = "[" * 1000 + "]" * 1000
        path = tmp_path / "deep.json"
        path.write_text('{"name": %s}' % nested)
        code, out = run_command(["check-space", "--scenario", str(path)])
        assert code == 2
        assert out.startswith("schema error at $: not valid JSON: ")
        table = tmp_path / "table.json"
        table.write_text('{"t_nodes": %s}' % nested)
        path.write_text(json.dumps({
            "space": {"carrier": {"kind": "finite", "points": [0, 1]},
                      "fuzzy": f"table:{table}"}}))
        code, out = run_command(["check-space", "--scenario", str(path)])
        assert code == 2
        assert out.startswith("schema error at space.fuzzy: cannot read "
                              f"table file {str(table)!r}: ")
        assert len(out.splitlines()) == 1

    def test_unwritable_out_exits_two(self, tmp_path):
        target = tmp_path / "missing" / "x.json"
        code, out = run_command(["gauge", "--gauge", "power:1/2", "--out",
                                 str(target)])
        assert code == 2
        assert out.startswith("error: ") and str(target) in out
        assert len(out.splitlines()) == 1
        assert not target.exists()

    def test_usage_error_exit_two(self, capsys):
        code, _ = run_command(["classify-map", "--route", "bogus"])
        assert code == 2
        # only check-space, gauge and iterate read a tolerance, and only
        # check-space and paper a seed
        for argv, flag in ((["classify-map", "--scenario", "ex63"], "tolerance"),
                           (["solve", "--scenario", "ex63"], "tolerance"),
                           (["paper"], "tolerance"),
                           (["classify-map", "--scenario", "ex63"], "seed"),
                           (["solve", "--scenario", "ex63"], "seed"),
                           (["iterate", "--scenario", "ex62"], "seed"),
                           (["gauge", "--scenario", "ex61"], "seed")):
            capsys.readouterr()
            value = "nan" if flag == "tolerance" else "5"
            assert run_command(argv + [f"--{flag}", value]) == (2, "")
            assert (f"unrecognized arguments: --{flag} {value}"
                    in capsys.readouterr().err)

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

    def test_text_format_tallies_hidden_outcomes(self):
        records = ([{"t": 1.0, "status": "satisfied"}] * 30
                   + [{"t": 2.0, "status": "violated"}, {"t": 3.0},
                      {"m": 1, "converged": False}, 0.5])
        out = cli._render_text({"command": "x", "passed": False,
                                "body": {"records": records}})
        lines = out.splitlines()
        assert lines.count("      status: satisfied") == 24
        assert lines[-3:] == ["    ... (10 more)",
                              "      hidden status: satisfied 6, violated 1",
                              "      hidden converged: False 1"]
        short = cli._render_text({"command": "x", "passed": True,
                                  "body": {"records": records[:24]}})
        assert "more)" not in short and "hidden" not in short


# ---------------------------------------------------------------------------
# json-like rendering
# ---------------------------------------------------------------------------

def dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


FLOATS = st.one_of(
    st.floats(),
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 1e16,
                     1 / 3, 0.1, 1e-300, -1.5e308]))
TEXT = st.text(st.one_of(st.sampled_from('"\\/\x00\x1f\x7f\n\t\u2028'
                                         '\U0001f600\U0010ffff'),
                         st.characters()), max_size=6)
SCALARS = st.one_of(st.none(), st.booleans(),
                    st.integers(-2 ** 70, 2 ** 70), FLOATS, TEXT)


def json_like(depth: int):
    """Nested dicts, lists and tuples up to ``depth`` containers deep.

    Each dict has keys of one type, as the reports do: text, floats (the
    paper suite writes keys such as "0.0") or integers."""
    if depth == 0:
        return SCALARS
    child = json_like(depth - 1)
    dicts = [st.dictionaries(keys, child, max_size=5)
             for keys in (TEXT, st.floats(allow_nan=False),
                          st.integers(-2 ** 70, 2 ** 70))]
    return st.one_of(SCALARS, st.lists(SCALARS, max_size=8),
                     st.lists(child, max_size=4),
                     st.lists(child, max_size=4).map(tuple), *dicts)


@given(json_like(6))
@settings(max_examples=300, derandomize=True, deadline=None)
def test_json_renderer_matches_json_dumps(obj):
    assert cli._render_json(obj) == dumps(obj)


@pytest.mark.parametrize("obj", [
    {}, [], (), {"a": [], "b": {}, "c": ()}, [[[]]], {"k": {"k": {"k": 1}}},
    {0.0: 1, -1.5: [2.0], 1e16: {}}, [None, True, False, -0.0, 2 ** 80],
    {"x": "\"\\\x00\U0001f600"}, 3.5, "text", None])
def test_json_renderer_edge_cases(obj):
    assert cli._render_json(obj) == dumps(obj)


def test_json_renderer_rejects_what_json_dumps_rejects():
    for obj in ({(1, 2): 1}, [object()], {"a": {1j: 0}}):
        with pytest.raises(TypeError):
            dumps(obj)
        with pytest.raises(TypeError):
            cli._render_json(obj)


@pytest.mark.parametrize("argv", [
    ["iterate", "--scenario", "ex62", "--max-len", "200"],
    ["solve", "--scenario", "ex62"],
    ["solve", "--scenario", "ex63", "--t-grid", "log:0.5:50:8"],
    ["classify-map", "--scenario", "ex63", "--route", "cm"],
    ["classify-map", "--scenario", "ex62", "--route", "psi"],
    ["classify-map", "--scenario", "ex63", "--route", "m"],
    ["check-space", "--scenario", "ex62"],
    ["gauge", "--scenario", "ex61", "--eval", "0.3"],
    ["paper", "--seed", "7"]])
def test_cli_json_output_is_json_dumps_of_the_report(monkeypatch, argv):
    seen = []
    render = cli._render_json

    def spy(report):
        seen.append((report, render(report)))
        return seen[-1][1]
    monkeypatch.setattr(cli, "_render_json", spy)
    _, out = run_command(argv + ["--format", "json-like"])
    [(report, rendered)] = seen
    assert out == rendered == dumps(report)


# command lines for the cached parser: options given and left out in turn,
# and a usage error in the middle
PARSER_SEQUENCE = [
    ["check-space", "--scenario", "ex63", "--seed", "3", "--format",
     "json-like"],
    ["check-space", "--scenario", "ex63", "--format", "json-like"],
    ["iterate", "--scenario", "ex62", "--x0", "0.3", "--max-len", "20"],
    ["iterate", "--scenario", "ex62", "--max-len", "20"],
    ["classify-map", "--scenario", "ex63", "--t-grid", "1,2", "--route",
     "m", "--format", "json-like"],
    ["classify-map", "--route", "bogus", "--scenario", "ex63"],
    ["classify-map", "--scenario", "ex63", "--format", "json-like"],
    ["solve", "--scenario", "ex63", "--x0", "2", "--t-grid", "lin:1:4:4"],
    ["solve", "--scenario", "ex63"],
    ["gauge", "--gauge", "power:5/7", "--seed", "4", "--eval", "0.5"],
    ["gauge", "--scenario", "ex61"],
]


def test_cached_parser_keeps_no_state_between_calls(capsys):
    def run(fresh: bool):
        outputs = []
        for argv in PARSER_SEQUENCE:
            if fresh:
                cli._build_parser.cache_clear()
            code, out = run_command(argv)
            outputs.append((code, out, capsys.readouterr()))
        return outputs

    fresh = run(True)
    cli._build_parser.cache_clear()
    cached = run(False)
    assert cli._build_parser.cache_info().misses == 1
    assert cached == fresh
    # gauge takes no --seed
    assert [code for code, _, _ in cached] == [0, 0, 0, 0, 0, 2, 1, 0, 0,
                                               2, 1]
    assert "invalid choice: 'bogus'" in cached[5][2].err


def test_readme_cli_examples_run():
    # each line of README's CLI block exits 0, or as its comment says
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    block = readme.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1]
    lines = [line for line in block.split("```", 1)[0].splitlines()
             if line.startswith("fuzzyfix ")]
    assert len(lines) >= 8
    for line in lines:
        command, _, comment = line.partition("#")
        exits = re.search(r"exits (\d+)", comment)
        code, out = run_command(shlex.split(command)[1:])
        assert code == (int(exits.group(1)) if exits else 0), (line, out)
