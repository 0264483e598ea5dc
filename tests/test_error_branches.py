"""Error branches of every layer, in one table.  A scenario or CLI case runs
through ``run_command`` and must exit 2 with a one-line schema error at its
path; a library case must raise DomainError with its text."""

import json

import pytest

from fuzzyfix.algebra import (
    ClassTag,
    DomainError,
    class_membership,
    conjugate_gauge,
    gauge,
    invert_eta,
    power_gauge,
    step_phi,
)
from fuzzyfix.cli import run_command
from fuzzyfix.contractions import (
    cm_contractive_check,
    extract_empirical_gauge,
    psi_contractive_check,
    self_map,
)
from fuzzyfix.dynamics import (
    OrbitTrace,
    cauchy_criterion_check,
    m_cauchy_check,
    picard_orbit,
)
from fuzzyfix.scenario import SCENARIO_LIBRARY
from fuzzyfix.spaces import (
    Carrier,
    exponential_fuzzy_metric,
    metric,
    table_fuzzy_metric,
)

QUAD = exponential_fuzzy_metric(Carrier.finite([0, 1, 2, 5]),
                                metric("euclidean"))
PERM = self_map("perm-0-1-2-5")
DROP = object()


def trace(*points):
    return OrbitTrace.from_points(QUAD, points)


# case -> (argv, schema path) or (call, DomainError text).  A dict in argv
# is ex63's document with dotted keys set, or dropped (DROP), written to a
# file whose path takes its place; the key "$" replaces the whole document.
ERRORS = {
    # scenario
    "scenario-no-map": (["classify-map", {"map": DROP}], "map"),
    "scenario-grid-numbers": (["check-space", {"grids.t": "lin:a:b:3"}],
                              "grids.t"),
    "scenario-log-grid-at-zero": (["check-space", {"grids.t": "log:0:1:3"}],
                                  "grids.t"),
    "scenario-grid-number": (["check-space", {"grids.t": 5}], "grids.t"),
    "scenario-carrier-kind": (["check-space",
                               {"space.carrier": {"kind": "disc"}}],
                              "space.carrier"),
    "scenario-constructor": (["check-space",
                              {"space.fuzzy": "gauss:euclidean"}],
                             "space.fuzzy"),
    "scenario-space-list": (["check-space", {"space": [1]}], "space"),
    "scenario-gauges-list": (["check-space", {"gauges": ["power:1/2"]}],
                             "gauges"),
    "scenario-grids-string": (["check-space", {"grids": "default"}], "grids"),
    "scenario-solver-number": (["check-space", {"solver": 3}], "solver"),
    "scenario-map-number": (["check-space", {"map": 5}], "map"),
    "scenario-not-an-object": (["check-space", {"$": [1]}], "$"),
    # cli
    "cli-psi-route-without-gauge": (
        ["classify-map", {"gauges": DROP}, "--route", "psi"], "gauges.psi"),
    "cli-gauge-without-gauges": (["gauge", {"gauges": DROP}], "--gauge"),
    "cli-iterate-without-x0": (["iterate", {"solver.x0": DROP}], "--x0"),
    "cli-solve-without-x0": (["solve", {"solver.x0": DROP}], "--x0"),
    # algebra
    "algebra-power-phi-exponent": (lambda: gauge("power-phi:0"),
                                   "power gauge exponent must be positive"),
    "algebra-generator-scale": (lambda: gauge("eta-reciprocal-t:-1"),
                                "generator scale must be positive"),
    "algebra-invert-non-generator": (
        lambda: invert_eta(power_gauge(0.5), 0.5),
        "power:0.5 is not an eta-style generator"),
    "algebra-conjugate-non-generator": (
        lambda: conjugate_gauge(power_gauge(0.5), step_phi()),
        "power:0.5 is not an eta-style generator"),
    "algebra-h-on-non-generator": (
        lambda: class_membership(power_gauge(0.5), ClassTag.H),
        "power:0.5 is not eta-style"),
    # contractions
    "contractions-psi-check-phi-gauge": (
        lambda: psi_contractive_check(QUAD, PERM, step_phi()),
        "step-phi is not psi-style"),
    "contractions-unknown-form": (
        lambda: cm_contractive_check(QUAD, PERM, form="both"),
        "unknown form 'both'"),
    "contractions-empirical-gauge-scale": (
        lambda: extract_empirical_gauge(QUAD, PERM, [(0, 1)], t=0.0),
        "scale t must be positive"),
    # dynamics
    "dynamics-empty-trace": (lambda: trace(),
                             "a trace needs at least one point"),
    "dynamics-max-len-zero": (lambda: picard_orbit(QUAD, PERM, 1, max_len=0),
                              "max_len must be >= 1"),
    "dynamics-m-cauchy-one-point": (
        lambda: m_cauchy_check(QUAD, trace(1)),
        "the Cauchy check needs a trace of length >= 2"),
    "dynamics-criterion-two-points": (
        lambda: cauchy_criterion_check(QUAD, trace(1, 5)),
        "the criterion needs a trace of length >= 3"),
    # spaces
    "spaces-empty-finite-carrier": (lambda: Carrier.finite([]),
                                    "carrier must be nonempty"),
    "spaces-empty-interval": (lambda: Carrier.interval(1, 1),
                              "interval carrier needs high > low"),
    "spaces-one-sample": (lambda: Carrier.interval(0, 1, 1),
                          "interval carrier needs at least 2 samples"),
    "spaces-table-on-interval": (
        lambda: table_fuzzy_metric(Carrier.interval(0, 1), [1.0], {}),
        "table spaces need a finite carrier"),
}


def written(tmp_path, edits: dict) -> str:
    doc = json.loads(SCENARIO_LIBRARY["ex63"])
    for dotted, value in edits.items():
        if dotted == "$":
            doc = value
            continue
        *parents, key = dotted.split(".")
        node = doc
        for parent in parents:
            node = node[parent]
        if value is DROP:
            del node[key]
        else:
            node[key] = value
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.mark.parametrize("case", sorted(ERRORS))
def test_error_branch(tmp_path, case):
    call, expected = ERRORS[case]
    if callable(call):
        with pytest.raises(DomainError) as exc:
            call()
        assert str(exc.value) == expected
        return
    argv = [a for arg in call for a in (
        ["--scenario", written(tmp_path, arg)] if isinstance(arg, dict)
        else [arg])]
    code, out = run_command(argv)
    assert code == 2
    assert out.startswith(f"schema error at {expected}: ")
    assert out.count("\n") == 1
