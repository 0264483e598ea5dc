"""Scenario documents: one decoder from JSON to the objects they declare.

A scenario is a JSON document declaring a space (carrier, constructor id,
t-norm, completeness and strongness flags), a self-map, gauges by role,
grids, and solver settings.  :func:`parse_scenario` decodes each section
once into its object: the space, the map on its carrier, the gauges and
the solver settings.  The constructors judge ids and values, four readers
judge JSON types, a key that its object does not define is an unknown key,
and every problem is reported with its path in one :class:`SchemaError`, a
table file's at ``space.fuzzy``.  Three scenarios are built in: ``ex61``,
``ex62`` and ``ex63``.

Grid specs are either the string ``default``, ``lin:<lo>:<hi>:<n>``,
``log:<lo>:<hi>:<n>``, or an explicit JSON array of numbers.
"""

from __future__ import annotations

import dataclasses
import json
import math
import sys
from dataclasses import dataclass
from itertools import chain, repeat
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from .algebra import DomainError, Gauge, _parse_number, gauge, tnorm
from .contractions import SelfMap, self_map, table_map
from .defaults import DEFAULT_R_GRID, DEFAULT_T_GRID
from .dynamics import MAX_ORBIT_LEN, Route, SolverConfig
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


@dataclass(frozen=True)
class Scenario:
    """A decoded scenario: each declared object, built once."""

    name: str
    seed: int
    space: Optional[FuzzySpace]
    map: Optional[SelfMap]
    gauges: dict[str, Gauge]
    t_grid: tuple[float, ...]
    r_grid: tuple[float, ...]
    route: Route
    x0: Optional[float]
    _config: SolverConfig

    def build_space(self) -> FuzzySpace:
        if self.space is None:
            raise SchemaError([("space", "scenario declares no space")])
        return self.space

    def build_map(self) -> SelfMap:
        if self.map is None:
            raise SchemaError([("map", "scenario declares no map")])
        return self.map

    def build_gauges(self) -> dict[str, Gauge]:
        return dict(self.gauges)

    def solver_config(self) -> SolverConfig:
        """A copy of the solver settings, which callers may change."""
        return dataclasses.replace(self._config)

    @property
    def solver(self) -> dict:
        """The solver section's settings as decoded, by document key."""
        settings = {key: getattr(self._config, key) for key in _SOLVER_SETTINGS}
        return {"route": self.route.value, "x0": self.x0, **settings}


# The most points a grid spec may give, judged before any is computed.
MAX_GRID_POINTS = 100


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
        if n > MAX_GRID_POINTS:
            errors.append((path, _too_many_points(n)))
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
        if len(spec) > MAX_GRID_POINTS:
            errors.append((path, _too_many_points(len(spec))))
            return tuple(default)
        if not spec or not _all_numbers(spec):
            errors.append((path, "grid list must hold numbers, at least one"))
            return tuple(default)
        grid = tuple(float(v) for v in spec)
    else:
        errors.append((path, f"bad grid spec {spec!r}"))
        return tuple(default)
    high, rule = (np.inf, "be positive and finite") if kind == "t" else (
        1.0, "lie in (0,1)")
    bad = [v for v in grid if not 0.0 < v < high]
    if bad:
        errors.append((path, f"{kind} must {rule}, got {bad[0]!r}"))
    return grid


def _too_many_points(n: int) -> str:
    return f"a grid holds at most {MAX_GRID_POINTS} points, got {n}"


# Readers of JSON values: a wrong type is a DomainError naming the key.

def _is_number(value) -> bool:
    """A JSON number that converts to a float, NaN and infinities included."""
    return isinstance(value, float) or (
        isinstance(value, int) and not isinstance(value, bool)
        and abs(value) <= sys.float_info.max)


def _all_numbers(values: list) -> bool:
    """Whether every one of ``values`` decoded from JSON is a number, as
    :func:`_is_number` judges, by one scan of their types."""
    kinds = set(map(type, values))
    return kinds <= {int, float} and (int not in kinds or all(
        abs(v) <= sys.float_info.max for v in values if type(v) is int))


def _read(value, key: str, ok: bool, expected: str):
    if not ok:
        raise DomainError(f"missing {key}" if value is None
                          else f"{key} must be {expected}, got {value!r}")
    return value


def _number(value, key: str) -> float:
    return float(_read(value, key, _is_number(value) and math.isfinite(value),
                       "a finite number"))


def _tolerance(value, key: str) -> float:
    return float(_read(value, key, _is_number(value)
                       and 0.0 <= value < math.inf,
                       "a finite nonnegative number"))


def _integer(value, key: str) -> int:
    return _read(value, key, isinstance(value, int)
                 and not isinstance(value, bool), "an integer")


def _count(cap: int) -> Callable:
    """The reader of an integer count of at most ``cap``."""
    return lambda value, key: _read(value, key, _integer(value, key) <= cap,
                                    f"at most {cap}")


def _seed(value) -> int:
    return _read(value, "seed", _integer(value, "seed") >= 0,
                 "a nonnegative integer")


def _boolean(value, key: str) -> bool:
    return _read(value, key, isinstance(value, bool), "true or false")


def _string(value, key: str) -> str:
    return _read(value, key, isinstance(value, str), "a string")


def _unknown_keys(spec, allowed, prefix: str = "") -> list[tuple[str, str]]:
    """The keys of an object ``spec`` that are not ``allowed``, as errors
    at their paths (``prefix`` + key)."""
    if not isinstance(spec, dict):
        return []
    return [(prefix + key, "unknown key") for key in spec if key not in allowed]


def _record(errors: list, path: str, decode: Callable, *args):
    """``decode(*args)``, or None with its DomainError kept at ``path``."""
    try:
        return decode(*args)
    except DomainError as exc:
        errors.append((path, str(exc)))
        return None


def _carrier(spec) -> Carrier:
    kind = spec.get("kind") if isinstance(spec, dict) else None
    if kind == "finite":
        points = spec.get("points")
        _read(points, "points", isinstance(points, list), "a list")
        return Carrier.finite([_number(p, "a point") for p in points])
    if kind == "interval":
        return Carrier.interval(_number(spec.get("low"), "low"),
                                _number(spec.get("high"), "high"),
                                _integer(spec.get("samples", 101), "samples"))
    raise DomainError(f"unknown carrier kind {kind!r}"
                      if isinstance(spec, dict) else "must be an object")


def _read_table(path: str) -> tuple[list, dict]:
    """The t nodes and the (x, y) -> values entries of a table file.  One
    type scan checks every entry; only when it fails are the entries walked
    in file order, to name the first bad one."""
    try:
        doc = json.loads(Path(path).read_text())
    except (OSError, ValueError, RecursionError) as exc:
        raise DomainError(f"cannot read table file {path!r}: {exc}") from None
    nodes, entries = (doc.get(key) if isinstance(doc, dict) else None
                      for key in ("t_nodes", "entries"))
    _read(nodes, "table key 't_nodes'",
          isinstance(nodes, list) and _all_numbers(nodes), "a list of numbers")
    _read(entries, "table key 'entries'", isinstance(entries, list), "a list")
    xs = ys = values = [None]       # the scan fails on a non-object entry
    if set(map(type, entries)) <= {dict}:
        xs, ys, values = (list(map(dict.get, entries, repeat(key)))
                          for key in ("x", "y", "values"))
    if not (set(map(type, values)) <= {list} and _all_numbers(
            [*xs, *ys, *chain.from_iterable(values)])):
        for entry in entries:
            x, y, vs = ((entry.get(key) for key in ("x", "y", "values"))
                        if isinstance(entry, dict) else (None,) * 3)
            _read(entry, "a table entry", isinstance(vs, list)
                  and _all_numbers([x, y, *vs]),
                  "numbers x and y with a list of numbers 'values'")
    return nodes, dict(zip(zip(xs, ys), values))


_CONSTRUCTORS = {"standard": standard_fuzzy_metric,
                 "exp": exponential_fuzzy_metric}


def _fuzzy(fuzzy_id, carrier: Optional[Carrier]) -> Optional[FuzzySpace]:
    """The space a constructor id builds on ``carrier``; None without one."""
    head, _, rest = _string(fuzzy_id, "fuzzy").partition(":")
    if head == "table":
        nodes, table = _read_table(rest)
        return (None if carrier is None
                else table_fuzzy_metric(carrier, nodes, table))
    if head not in _CONSTRUCTORS:
        raise DomainError(f"unknown constructor {head!r}")
    d = metric(rest)
    return None if carrier is None else _CONSTRUCTORS[head](carrier, d)


def _space(spec, errors: list) -> tuple[Optional[FuzzySpace], bool]:
    """The declared space, and whether the document declares it complete."""
    if not isinstance(spec, dict):
        errors.append(("space", "must be an object"))
        return None, True
    errors += _unknown_keys(spec, _SPACE_KEYS, "space.")
    errors += _unknown_keys(spec.get("carrier"), _CARRIER_KEYS,
                            "space.carrier.")
    carrier = _record(errors, "space.carrier", _carrier, spec.get("carrier"))
    norm = _record(errors, "space.tnorm", lambda v: tnorm(_string(v, "tnorm")),
                   spec.get("tnorm", "product"))
    complete = _record(errors, "space.complete", _boolean,
                       spec.get("complete", True), "complete")
    strong = (_record(errors, "space.strong", _boolean, spec["strong"],
                      "strong") if "strong" in spec else None)
    space = _record(errors, "space.fuzzy", _fuzzy, spec.get("fuzzy"), carrier)
    if space is None or norm is None:
        return None, complete
    strong = space.strong if strong is None else strong
    return dataclasses.replace(space, tnorm=norm, strong=strong), complete


def _map(spec, carrier: Optional[Carrier]) -> SelfMap:
    if isinstance(spec, str):
        return self_map(spec, carrier)
    mapping = (spec.get("mapping")
               if isinstance(spec, dict) and spec.get("kind") == "table"
               else None)
    if not isinstance(mapping, dict):
        raise DomainError("must be a map id string or a table object "
                          "{\"kind\": \"table\", \"mapping\": {...}}")
    images = {_parse_number(key): _number(value, f"the image of {key}")
              for key, value in mapping.items()}
    return table_map(images, carrier, _string(spec.get("name", "table"),
                                              "name"))


_SECTIONS = ("seed", "space", "map", "gauges", "grids", "solver", "name")
_SPACE_KEYS = ("carrier", "fuzzy", "tnorm", "complete", "strong")
_CARRIER_KEYS = ("kind", "points", "low", "high", "samples")
_TABLE_MAP_KEYS = ("kind", "name", "mapping")

# the solver keys other than route and x0, with their readers
_SOLVER_SETTINGS = {"max_len": _count(MAX_ORBIT_LEN),
                    "stop_tolerance": _tolerance,
                    "tail_tolerance": _tolerance,
                    "alpha": _number, "beta": _number}


def parse_scenario(text: str, name: str = "scenario") -> Scenario:
    """Decode a scenario document into the objects it declares.

    Raises :class:`SchemaError` listing every problem with its path.
    """
    try:
        doc = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise SchemaError([("$", f"not valid JSON: {exc}")]) from None
    if not isinstance(doc, dict):
        raise SchemaError([("$", "scenario must be a JSON object")])

    errors = _unknown_keys(doc, _SECTIONS)
    name = _record(errors, "name", _string, doc.get("name", name), "name")
    seed = _record(errors, "seed", _seed, doc.get("seed", 0))
    space, complete = ((None, True) if doc.get("space") is None
                       else _space(doc["space"], errors))
    T = (None if doc.get("map") is None else
         _record(errors, "map", _map, doc["map"],
                 space.carrier if space else None))
    errors += _unknown_keys(doc.get("map"), _TABLE_MAP_KEYS, "map.")

    gauges = doc.get("gauges", {})
    if not isinstance(gauges, dict):
        errors.append(("gauges", "must be an object of role -> gauge id"))
        gauges = {}
    gauges = {role: _record(errors, f"gauges.{role}",
                            lambda v: gauge(_string(v, "a gauge id")), spec)
              for role, spec in gauges.items()}

    grids = doc.get("grids", {})
    if not isinstance(grids, dict):
        errors.append(("grids", "must be an object"))
        grids = {}
    errors += _unknown_keys(grids, ("t", "r"), "grids.")
    t_grid = parse_grid(grids.get("t"), "t", "grids.t", errors)
    r_grid = parse_grid(grids.get("r"), "r", "grids.r", errors)

    solver = doc.get("solver", {})
    if not isinstance(solver, dict):
        errors.append(("solver", "must be an object"))
        solver = {}
    errors += _unknown_keys(solver, ("route", "x0", *_SOLVER_SETTINGS),
                            "solver.")
    settings = {key: _record(errors, f"solver.{key}", read, solver[key], key)
                for key, read in _SOLVER_SETTINGS.items() if key in solver}
    route = _record(errors, "solver.route",
                    lambda v: Route(_string(v, "route")),
                    solver.get("route", "auto"))
    x0 = (None if solver.get("x0") is None else
          _record(errors, "solver.x0", _number, solver["x0"], "x0"))

    if errors:
        raise SchemaError(errors)
    config = SolverConfig(t_grid=t_grid, r_grid=r_grid, complete=complete,
                          psi=gauges.get("psi"), **settings)
    return Scenario(name, seed, space, T, gauges, t_grid, r_grid, route, x0,
                    config)


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
             "stop_tolerance": 1e-9, "tail_tolerance": 1e-6}
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
    try:
        text = path.read_text()
    except UnicodeDecodeError as exc:
        raise SchemaError([("$", f"not UTF-8 text: {exc}")]) from None
    return parse_scenario(text, name=path.stem)
