"""Scenario documents: parsing, validation, and object builders.

A scenario is a JSON document declaring a space (carrier, constructor id,
t-norm, completeness and strongness flags), a self-map, gauges by role,
grids, and solver settings.  Validation reports every schema problem with
the path to the offending key.  Three scenarios are built in under the ids
``ex61``, ``ex62`` and ``ex63``.

Grid specs are either the string ``default``, ``lin:<lo>:<hi>:<n>``,
``log:<lo>:<hi>:<n>``, or an explicit JSON array of numbers.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from .algebra import DomainError, Gauge, gauge, tnorm
from .contractions import SelfMap, self_map, table_map
from .defaults import DEFAULT_R_GRID, DEFAULT_T_GRID
from .dynamics import Route, SolverConfig
from .spaces import (
    Carrier,
    FuzzySpace,
    exponential_fuzzy_metric,
    metric,
    standard_fuzzy_metric,
    table_fuzzy_metric,
)


class SchemaError(ValueError):
    """Scenario validation failure; carries (path, message) entries."""

    def __init__(self, errors: list[tuple[str, str]]):
        self.errors = errors
        lines = "; ".join(f"{path}: {msg}" for path, msg in errors)
        super().__init__(f"invalid scenario: {lines}")


@dataclass
class Scenario:
    name: str
    seed: int
    space_spec: Optional[dict]
    map_spec: Optional[object]
    gauges: dict
    t_grid: tuple[float, ...]
    r_grid: tuple[float, ...]
    solver: dict = field(default_factory=dict)

    def build_space(self) -> FuzzySpace:
        if self.space_spec is None:
            raise SchemaError([("space", "scenario declares no space")])
        return _build_space(self.space_spec)

    def build_map(self) -> SelfMap:
        if self.map_spec is None:
            raise SchemaError([("map", "scenario declares no map")])
        carrier = (self.build_space().carrier
                   if self.space_spec is not None else None)
        return _build_map(self.map_spec, carrier)

    def build_gauges(self) -> dict[str, Gauge]:
        return {role: gauge(spec) for role, spec in self.gauges.items()}

    def solver_config(self) -> SolverConfig:
        s = self.solver
        psi = gauge(self.gauges["psi"]) if "psi" in self.gauges else None
        return SolverConfig(
            max_len=int(s.get("max_len", 10000)),
            stop_tolerance=float(s.get("stop_tolerance", 1e-9)),
            tail_tolerance=float(s.get("tail_tolerance", 1e-6)),
            i_max=int(s.get("i_max", 50)),
            t_grid=self.t_grid,
            r_grid=self.r_grid,
            complete=bool(self.space_spec.get("complete", True)
                          if self.space_spec else True),
            alpha=float(s.get("alpha", 0.0)),
            beta=float(s.get("beta", 0.0)),
            psi=psi)

    @property
    def route(self) -> Route:
        return Route(self.solver.get("route", "auto"))

    @property
    def x0(self) -> Optional[float]:
        v = self.solver.get("x0")
        return None if v is None else float(v)

    def to_dict(self) -> dict:
        return {"name": self.name, "seed": self.seed, "space": self.space_spec,
                "map": self.map_spec, "gauges": self.gauges,
                "grids": {"t": list(self.t_grid), "r": list(self.r_grid)},
                "solver": self.solver}


def parse_grid(spec, kind: str, path: str, errors: list) -> tuple[float, ...]:
    """Parse a grid spec; ``kind`` is "t" (positive) or "r" (open unit)."""
    default = DEFAULT_T_GRID if kind == "t" else DEFAULT_R_GRID
    if spec is None or spec == "default":
        return tuple(default)
    if isinstance(spec, str):
        parts = spec.split(":")
        if len(parts) != 4 or parts[0] not in ("lin", "log"):
            errors.append((path, f"bad grid spec {spec!r}; expected "
                           "'default', 'lin:lo:hi:n', 'log:lo:hi:n' or a list"))
            return tuple(default)
        try:
            lo, hi, n = float(parts[1]), float(parts[2]), int(parts[3])
        except ValueError:
            errors.append((path, f"bad grid numbers in {spec!r}"))
            return tuple(default)
        if n < 1 or not -np.inf < lo <= hi < np.inf:
            errors.append((path, f"bad grid range in {spec!r}"))
            return tuple(default)
        if parts[0] == "lin":
            values = np.linspace(lo, hi, n)
        else:
            if lo <= 0:
                errors.append((path, "log grid needs a positive lower bound"))
                return tuple(default)
            values = np.logspace(np.log10(lo), np.log10(hi), n)
        grid = tuple(float(v) for v in values)
    elif isinstance(spec, (list, tuple)):
        try:
            grid = tuple(float(v) for v in spec)
        except (TypeError, ValueError):
            errors.append((path, "grid list must contain numbers"))
            return tuple(default)
    else:
        errors.append((path, f"bad grid spec {spec!r}"))
        return tuple(default)
    if kind == "t":
        for v in grid:
            if not 0.0 < v < np.inf:
                errors.append((path, f"t must be positive and finite, got {v}"))
                break
    else:
        for v in grid:
            if not 0.0 < v < 1.0:
                errors.append((path, "r must lie in (0,1), got " + repr(v)))
                break
    return grid


def _validate_carrier(spec, errors) -> None:
    if not isinstance(spec, dict):
        errors.append(("space.carrier", "must be an object"))
        return
    kind = spec.get("kind")
    if kind == "finite":
        pts = spec.get("points")
        if not isinstance(pts, list) or not pts:
            errors.append(("space.carrier.points", "needs a nonempty list"))
        elif len(set(pts)) != len(pts):
            errors.append(("space.carrier.points", "points must be distinct"))
    elif kind == "interval":
        for key in ("low", "high"):
            if not isinstance(spec.get(key), (int, float)):
                errors.append((f"space.carrier.{key}", "missing number"))
        if isinstance(spec.get("low"), (int, float)) and \
                isinstance(spec.get("high"), (int, float)) and \
                spec["high"] <= spec["low"]:
            errors.append(("space.carrier", "needs high > low"))
    else:
        errors.append(("space.carrier.kind",
                       f"unknown carrier kind {kind!r}"))


def _build_carrier(spec: dict) -> Carrier:
    if spec["kind"] == "finite":
        return Carrier.finite(spec["points"])
    return Carrier.interval(spec["low"], spec["high"],
                            int(spec.get("samples", 101)))


_FUZZY_IDS = ("standard", "exp", "table")
_METRIC_IDS = ("euclidean", "max-jachymski")


def _validate_space(spec, errors) -> None:
    if not isinstance(spec, dict):
        errors.append(("space", "must be an object"))
        return
    if "carrier" not in spec:
        errors.append(("space.carrier", "missing key"))
    else:
        _validate_carrier(spec["carrier"], errors)
    fuzzy = spec.get("fuzzy")
    if not isinstance(fuzzy, str):
        errors.append(("space.fuzzy", "missing constructor id"))
    else:
        head = fuzzy.split(":", 1)[0]
        if head not in _FUZZY_IDS:
            errors.append(("space.fuzzy", f"unknown constructor {head!r}"))
        elif head in ("standard", "exp"):
            rest = fuzzy.split(":", 1)
            if len(rest) != 2 or rest[1] not in _METRIC_IDS:
                errors.append(("space.fuzzy",
                               f"unknown metric id in {fuzzy!r}"))
    norm_id = spec.get("tnorm", "product")
    try:
        tnorm(norm_id)
    except DomainError:
        errors.append(("space.tnorm", f"unknown t-norm id {norm_id!r}"))


def _build_space(spec: dict) -> FuzzySpace:
    carrier = _build_carrier(spec["carrier"])
    fuzzy = spec["fuzzy"]
    head, _, rest = fuzzy.partition(":")
    if head == "standard":
        space = standard_fuzzy_metric(carrier, metric(rest))
    elif head == "exp":
        space = exponential_fuzzy_metric(carrier, metric(rest))
    else:
        doc = json.loads(Path(rest).read_text())
        entries = {(e["x"], e["y"]): e["values"] for e in doc["entries"]}
        space = table_fuzzy_metric(carrier, doc["t_nodes"], entries,
                                   norm=tnorm(spec.get("tnorm", "product")),
                                   strong=bool(spec.get("strong", False)))
    if spec.get("tnorm", "product") != "product" and head != "table":
        space = dataclasses.replace(space, tnorm=tnorm(spec["tnorm"]))
    if "strong" in spec and bool(spec["strong"]) != space.strong:
        space = dataclasses.replace(space, strong=bool(spec["strong"]))
    return space


def _validate_map(spec, errors, space_spec) -> None:
    if isinstance(spec, str):
        try:
            self_map(spec)
        except DomainError as exc:
            errors.append(("map", str(exc)))
        return
    if not isinstance(spec, dict) or spec.get("kind") != "table":
        errors.append(("map", "must be a map id string or a table object"))
        return
    mapping = spec.get("mapping")
    if not isinstance(mapping, dict):
        errors.append(("map.mapping", "missing table"))
        return
    if space_spec and isinstance(space_spec.get("carrier"), dict) \
            and space_spec["carrier"].get("kind") == "finite":
        points = space_spec["carrier"].get("points") or []
        covered = set()
        for k in mapping:
            try:
                covered.add(float(k))
            except (TypeError, ValueError):
                errors.append(("map.mapping", f"bad point key {k!r}"))
        for p in points:
            if float(p) not in covered:
                errors.append(("map.mapping",
                               f"missing image of point {p}"))


def _build_map(spec, carrier: Optional[Carrier]) -> SelfMap:
    if isinstance(spec, str):
        return self_map(spec, carrier)
    mapping = {float(k): float(v) for k, v in spec["mapping"].items()}
    return table_map(mapping, carrier, name=spec.get("name", "table"))


def parse_scenario(text: str, name: str = "scenario") -> Scenario:
    """Parse and validate a scenario document.

    Raises :class:`SchemaError` listing every problem with its path.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError([("$", f"not valid JSON: {exc}")]) from None
    if not isinstance(doc, dict):
        raise SchemaError([("$", "scenario must be a JSON object")])

    errors: list[tuple[str, str]] = []
    known = {"seed", "space", "map", "gauges", "grids", "solver", "name"}
    for key in doc:
        if key not in known:
            errors.append((key, "unknown key"))

    seed = doc.get("seed", 0)
    if not isinstance(seed, int):
        errors.append(("seed", "must be an integer"))
        seed = 0

    space_spec = doc.get("space")
    if space_spec is not None:
        _validate_space(space_spec, errors)

    map_spec = doc.get("map")
    if map_spec is not None:
        _validate_map(map_spec, errors, space_spec)

    gauges = doc.get("gauges", {})
    if not isinstance(gauges, dict):
        errors.append(("gauges", "must be an object of role -> gauge id"))
        gauges = {}
    else:
        for role, spec in gauges.items():
            try:
                gauge(spec)
            except (DomainError, TypeError) as exc:
                errors.append((f"gauges.{role}", str(exc)))

    grids = doc.get("grids", {})
    if not isinstance(grids, dict):
        errors.append(("grids", "must be an object"))
        grids = {}
    t_grid = parse_grid(grids.get("t"), "t", "grids.t", errors)
    r_grid = parse_grid(grids.get("r"), "r", "grids.r", errors)

    solver = doc.get("solver", {})
    if not isinstance(solver, dict):
        errors.append(("solver", "must be an object"))
        solver = {}
    elif "route" in solver:
        try:
            Route(solver["route"])
        except ValueError:
            errors.append(("solver.route",
                           f"unknown route {solver['route']!r}"))

    if errors:
        raise SchemaError(errors)
    return Scenario(doc.get("name", name), seed, space_spec, map_spec,
                    gauges, t_grid, r_grid, solver)


# ---------------------------------------------------------------------------
# built-in scenario library
# ---------------------------------------------------------------------------

# Step gauges on the default grids; no space or map involved.
_EX61 = """{
  "name": "ex61",
  "seed": 7,
  "gauges": {"psi": "step-psi", "phi": "step-phi", "eta": "eta-reciprocal"},
  "grids": {"t": "default", "r": "default"}
}"""

# The step gauge as a self-map of [0, 10] under the max-of-the-pair metric
# with quotient nearness.  The scale grid starts at 1: below that a short
# orbit prefix cannot witness all-pairs cuts for small thresholds (the orbit
# converges at a harmonic rate), while classification commands use the
# package-wide default grids regardless.
_EX62 = """{
  "name": "ex62",
  "seed": 7,
  "space": {
    "carrier": {"kind": "interval", "low": 0, "high": 10, "samples": 201},
    "fuzzy": "standard:max-jachymski",
    "tnorm": "product",
    "complete": true,
    "strong": true
  },
  "map": "phi-step",
  "gauges": {"psi": "conj:eta-reciprocal:step-phi"},
  "grids": {"t": "log:1:100:40", "r": "default"},
  "solver": {"route": "cm-strong", "x0": 0.7, "max_len": 10000,
             "stop_tolerance": 1e-9, "tail_tolerance": 1e-6, "i_max": 50}
}"""

# Four points with exponential nearness and the cyclic map that contracts
# only in the blended sense.
_EX63 = """{
  "name": "ex63",
  "seed": 7,
  "space": {
    "carrier": {"kind": "finite", "points": [0, 1, 2, 5]},
    "fuzzy": "exp:euclidean",
    "tnorm": "product",
    "complete": true,
    "strong": true
  },
  "map": "perm-0-1-2-5",
  "gauges": {"psi": "power:5/7"},
  "grids": {"t": "default", "r": "default"},
  "solver": {"route": "m-final", "x0": 1, "alpha": 2, "beta": 2,
             "max_len": 10000, "stop_tolerance": 1e-9}
}"""

SCENARIO_LIBRARY = {"ex61": _EX61, "ex62": _EX62, "ex63": _EX63}


def load_scenario(ref: str) -> Scenario:
    """Load a scenario from a built-in id or a file path."""
    if ref in SCENARIO_LIBRARY:
        return parse_scenario(SCENARIO_LIBRARY[ref], name=ref)
    path = Path(ref)
    if not path.exists():
        raise SchemaError([("$", f"no built-in scenario or file named {ref!r}")])
    return parse_scenario(path.read_text(), name=path.stem)
