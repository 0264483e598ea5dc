"""In-memory spans and counters around fuzzyfix's public functions.

``Tracer.install`` wraps every public function of the eight package modules
and rebinds the wrapper in every ``fuzzyfix`` namespace that holds the
original, because the modules import each other's names (``papersuite``
binds ``solve_fixed_point``, ``cli`` binds ``axiom_check``, and so on).  The
per-element methods ``FuzzySpace.m``, ``Gauge.eval``, ``TNorm.apply`` and
``SelfMap.apply``/``__call__``, and the per-call helpers ``invert_eta`` and
``expressions.evaluate``, get counting wrappers that keep aggregates rather
than one span per call.

A span's self time is its duration minus the time covered by its child
spans and counted calls.  Nothing in the package is edited; the wrappers
exist only in the benchmark process, and only while ``enabled`` is set.
"""

from __future__ import annotations

import functools
import importlib
import inspect
from collections import defaultdict
from time import perf_counter

import numpy as np

LAYERS = ("spaces", "algebra", "contractions", "dynamics", "expressions",
          "scenario", "papersuite", "cli")

# Functions called once per element or per gauge evaluation: aggregated.
HOT_FUNCTIONS = {"algebra.invert_eta", "expressions.evaluate"}

# Counted only when the caller is outside the function itself (recursion).
OUTER_ONLY = {"expressions.evaluate"}

# Inclusive durations reported per layer function.
INCLUSIVE = {
    "spaces.axiom_check": "spaces.axiom_check.s",
    "contractions.cm_contractive_check": "contractions.cm_check.s",
    "contractions.psi_contractive_check": "contractions.psi_check.s",
    "contractions.m_contractive_check": "contractions.m_check.s",
    "contractions.extract_empirical_gauge": "contractions.empirical_gauge.s",
    "dynamics.picard_orbit": "dynamics.picard_orbit.s",
    "dynamics.regularity_check": "dynamics.regularity.s",
    "dynamics.m_cauchy_check": "dynamics.m_cauchy.s",
    "dynamics.g_cauchy_check": "dynamics.g_cauchy.s",
    "dynamics.cauchy_criterion_check": "dynamics.criterion.s",
    "scenario.load_scenario": "scenario.load.s",
}
CLASS_TAGS = ("psi1", "phi1", "psi", "h")


def _class_tag(args, kwargs, result):
    return result.class_tag.value


def _route_is_auto(args, kwargs, result):
    route = kwargs.get("route", args[3] if len(args) > 3 else "auto")
    return getattr(route, "value", route) == "auto"


def _orbit_steps(args, kwargs, result):
    return result.steps


def _output_bytes(args, kwargs, result):
    return len(result[1].encode())


# A detail recorded on the span from the call's arguments or result.
DETAILS = {
    "algebra.class_membership": _class_tag,
    "dynamics.solve_fixed_point": _route_is_auto,
    "dynamics.picard_orbit": _orbit_steps,
    "cli.run_command": _output_bytes,
}


class Tracer:
    """Records spans for one process; ``enabled`` is set only inside ops."""

    def __init__(self):
        self.enabled = False
        self.op = -1
        # one list per span: [op, name, layer, parent, start, end, self_s, detail]
        self.spans: list = []
        # name -> [layer, calls, elements, self_s]
        self.counted: dict = {}
        # frames of the calls in progress: [child_s, name, span index]
        self._stack = [[0.0, None, None]]

    # -- wrappers ----------------------------------------------------------

    def _span(self, name: str, layer: str, fn):
        tracer, detail = self, DETAILS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            stack = tracer._stack
            parent = stack[-1]
            record = [tracer.op, name, layer, parent[2], 0.0, 0.0, 0.0, None]
            frame = [0.0, name, len(tracer.spans)]
            tracer.spans.append(record)
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                parent[0] += end - start
                record[4:7] = start, end, end - start - frame[0]
            if detail is not None:
                record[7] = detail(args, kwargs, result)
            return result
        return wrapper

    def _counted(self, name: str, layer: str, fn, elements: bool):
        tracer = self
        stats = self.counted[name] = [layer, 0, 0, 0.0]
        outer_only = name in OUTER_ONLY

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            stack = tracer._stack
            parent = stack[-1]
            frame = [0.0, name, parent[2]]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                parent[0] += elapsed
                stats[3] += elapsed - frame[0]
            if not (outer_only and parent[1] == name):
                stats[1] += 1
            if elements:
                stats[2] += np.size(result)
            return result
        return wrapper

    def install(self) -> None:
        """Wrap the public functions and the counted methods, once."""
        import fuzzyfix
        from fuzzyfix.algebra import Gauge, TNorm
        from fuzzyfix.contractions import SelfMap
        from fuzzyfix.spaces import FuzzySpace

        modules = {layer: importlib.import_module(f"fuzzyfix.{layer}")
                   for layer in LAYERS}
        wrappers = {}
        for layer, mod in modules.items():
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    name = f"{layer}.{attr}"
                    wrappers[obj] = (self._counted(name, layer, obj, False)
                                     if name in HOT_FUNCTIONS
                                     else self._span(name, layer, obj))
        for ns in [fuzzyfix, *modules.values()]:
            for attr, obj in list(vars(ns).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    setattr(ns, attr, wrappers[obj])
        for cls, attr, layer, elements in (
                (FuzzySpace, "m", "spaces", True),
                (Gauge, "eval", "algebra", False),
                (TNorm, "apply", "algebra", True),
                (SelfMap, "apply", "contractions", False),
                (SelfMap, "__call__", "contractions", False)):
            name = f"{layer}.{cls.__name__}.{attr}"
            setattr(cls, attr,
                    self._counted(name, layer, getattr(cls, attr), elements))

    # -- metrics -----------------------------------------------------------

    def metrics(self) -> dict:
        """Per-layer counts and times over every span recorded so far."""
        out: dict = defaultdict(float)
        for layer in LAYERS:
            out[f"{layer}.self_s"] = 0.0
        for tag in CLASS_TAGS:
            out[f"algebra.class_membership.{tag}.s"] = 0.0
        for key in INCLUSIVE.values():
            out[key] = 0.0
        class_calls = solve_calls = solve_requests = solve_auto = 0
        orbit_steps = output_bytes = 0
        probe_self = 0.0
        spans = self.spans
        for op, name, layer, parent, start, end, self_s, detail in spans:
            out[f"{layer}.self_s"] += self_s
            if name in INCLUSIVE and not _nested_in(spans, parent, name):
                out[INCLUSIVE[name]] += end - start
            if name == "algebra.class_membership":
                class_calls += 1
                out[f"algebra.class_membership.{detail}.s"] += end - start
            elif name == "dynamics.solve_fixed_point":
                solve_calls += 1
                solve_auto += detail
                solve_requests += not _nested_in(spans, parent, name)
            elif name == "dynamics.picard_orbit":
                orbit_steps += detail
            elif name == "cli.run_command":
                output_bytes += detail
            elif name == "contractions.equivalence_probe":
                probe_self += self_s
        for layer, _, _, self_s in self.counted.values():
            out[f"{layer}.self_s"] += self_s

        def calls(name):
            return self.counted[name][1]

        def elements(name):
            return self.counted[name][2]

        m_calls = calls("spaces.FuzzySpace.m")
        out.update({
            "spaces.m.calls": m_calls,
            "spaces.m.elements": elements("spaces.FuzzySpace.m"),
            "spaces.m.elements_per_call":
                elements("spaces.FuzzySpace.m") / m_calls if m_calls else 0.0,
            "algebra.gauge_eval.calls": calls("algebra.Gauge.eval"),
            "algebra.class_membership.calls": class_calls,
            "algebra.invert_eta.calls": calls("algebra.invert_eta"),
            "algebra.tnorm_apply.elements": elements("algebra.TNorm.apply"),
            "contractions.map_apply.calls":
                calls("contractions.SelfMap.apply")
                + calls("contractions.SelfMap.__call__"),
            "contractions.equivalence_probe.self_s": probe_self,
            "dynamics.orbit_steps": orbit_steps,
            "dynamics.solve.calls": solve_calls,
            "dynamics.solve.routes_per_request":
                (solve_calls - solve_auto) / solve_requests
                if solve_requests else 0.0,
            "expressions.evaluate.calls": calls("expressions.evaluate"),
            "cli.output_bytes": output_bytes,
        })
        return dict(out)


def _nested_in(spans, parent, name) -> bool:
    """Whether a span with this parent has an ancestor called ``name``."""
    while parent is not None:
        if spans[parent][1] == name:
            return True
        parent = spans[parent][3]
    return False
