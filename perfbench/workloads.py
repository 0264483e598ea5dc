"""Seeded inputs, operations and output checks for the fuzzyfix benchmark.

A workload is a list of cycles.  A cycle is a fixed sequence of operations;
every cycle of a workload has the same structure and only its seeded input
values differ, so a run that completes k cycles always holds the same mix of
commands.  An operation is one ``fuzzyfix.cli.run_command(argv)`` call or one
call to a public library function.  Each operation carries a check that
compares its output with the verdict known for that input and replays every
``violated`` or ``non_member`` witness through ``FuzzySpace.m``, ``SelfMap``
and ``Gauge.eval``.

Library functions are always looked up on their module at call time, so the
tracer's rebinding (see ``tracing.py``) sees every call.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from fuzzyfix import cli, contractions, dynamics, scenario as scenario_mod
from fuzzyfix.algebra import gauge as make_gauge

# Distinct input sets generated per run; cycle k uses set k % INPUT_SETS.
# Input sizes are stratified by set, so that runs of different seeds hold
# the same spread of sizes and differ only in the values drawn.
INPUT_SETS = 4

# Relative tolerance when a replayed value is compared with a reported one:
# reports come from array evaluation and replays from scalar calls, which
# may differ in the last bits of exp and pow.
REPLAY_RTOL = 1e-9
CLASS_TOL = 1e-12


class CheckError(AssertionError):
    """An operation's output differs from the value known for its input."""


@dataclass
class Op:
    command: str                 # metric family, e.g. "solve" -> solve_s.p50
    label: str                   # human-readable description of the input
    run: Callable[[], object]    # the timed call
    check: Callable[[object], None]   # raises CheckError on a wrong output


def stratum(rng, lo: int, hi: int, i: int) -> int:
    """A seeded integer from the i-th of INPUT_SETS equal parts of [lo, hi)."""
    width = (hi - lo) / INPUT_SETS
    return int(lo + width * i + rng.integers(0, max(1, int(width))))


def expect(cond: bool, message: str) -> None:
    if not cond:
        raise CheckError(message)


def close(a: float, b: float) -> bool:
    return math.isclose(float(a), float(b), rel_tol=REPLAY_RTOL, abs_tol=1e-300)


# ---------------------------------------------------------------------------
# shared objects, built once per process outside the timed loop
# ---------------------------------------------------------------------------

class Scenario:
    """A scenario reference with the objects its witnesses replay against."""

    def __init__(self, ref: str):
        sc = scenario_mod.load_scenario(ref)
        self.ref = ref
        self.scenario = sc
        self.space = sc.build_space()
        self.T = sc.build_map()
        self.gauges = sc.build_gauges()
        self.alpha = float(sc.solver.get("alpha", 0.0))
        self.beta = float(sc.solver.get("beta", 0.0))

    def m(self, x, y, t) -> float:
        return float(self.space.m(float(x), float(y), float(t)))

    def blend(self, x, y, t) -> float:
        T, norm = self.T, self.space.tnorm
        fx = self.m(x, T(x), t) ** self.alpha
        fy = self.m(y, T(y), t) ** self.beta
        return float(norm.apply(norm.apply(self.m(x, y, t), fx), fy))


def cli_op(command: str, argv: list, check: Callable[[int, str], None],
           label: Optional[str] = None) -> Op:
    argv = list(argv)

    def run():
        return cli.run_command(argv)

    def check_result(result):
        code, out = result
        check(code, out)
    return Op(command, label or " ".join(argv), run, check_result)


def report_of(out: str) -> dict:
    try:
        return json.loads(out)
    except json.JSONDecodeError as exc:
        raise CheckError(f"output is not JSON: {exc}") from None


def expect_exit(code: int, report: dict, status: int) -> None:
    expect(code == status, f"exit status {code}, expected {status}")
    expect(report["passed"] is (status == 0),
           f"passed={report['passed']} disagrees with exit status {status}")


# ---------------------------------------------------------------------------
# witness replay
# ---------------------------------------------------------------------------

def replay_condition(sc: Scenario, cond: dict, psi=None) -> None:
    """Re-evaluate a violated classification condition from its witness."""
    name, w = cond["name"], cond["witness"]
    expect(w is not None, f"{name}: violated without a witness")
    x, y, t = w["x"], w["y"], w["t"]
    T = sc.T
    after = sc.m(T(x), T(y), t)
    margin = 0.0 if sc.space.carrier.is_finite else 1e-12
    if name == "strict-improvement":
        before = sc.m(x, y, t)
        expect(close(w["before"], before) and close(w["after"], after),
               f"{name}: witness values do not replay")
        expect(x != y and not after > before + margin,
               f"{name}: replayed pair improves")
    elif name == "strict-improvement-over-blend":
        blend = sc.blend(x, y, t)
        expect(close(w["blend"], blend) and close(w["after"], after),
               f"{name}: witness values do not replay")
        expect(x != y and not after > blend + margin,
               f"{name}: replayed pair clears the blend")
    elif name in ("gauge-bound", "gauge-bound-over-blend"):
        base = sc.m(x, y, t) if name == "gauge-bound" else sc.blend(x, y, t)
        bound = psi.eval(base)
        expect(close(w["bound"], bound) and close(w["after"], after),
               f"{name}: witness values do not replay")
        expect(after < bound - CLASS_TOL, f"{name}: replayed pair meets the bound")
    elif name == "threshold-implication":
        before = sc.m(x, y, t)
        expect(close(w["before"], before) and close(w["after"], after),
               f"{name}: witness values do not replay")
        expect(after < 1.0 - w["r"] - CLASS_TOL,
               f"{name}: replayed pair clears 1-r")
    elif name == "iterate-threshold-implication":
        expect(after < 1.0 - w["r"] - CLASS_TOL,
               f"{name}: replayed pair clears 1-r")
    else:
        raise CheckError(f"no replay rule for condition {name!r}")


def check_classification(sc: Scenario, out: str, code: int, status: str,
                         psi=None) -> dict:
    report = report_of(out)
    expect_exit(code, report, 0 if status == "satisfied" else 1)
    cls = report["body"]["classification"]
    expect(cls["status"] == status, f"status {cls['status']}, expected {status}")
    for cond in cls["conditions"]:
        if cond["status"] == "violated":
            replay_condition(sc, cond, psi)
    return cls


def replay_certificate(g, cert: dict) -> None:
    """Replay a gauge certificate: witnesses and a spot check of records."""
    w = cert["witness"]
    if cert["verdict"] == "non_member":
        expect(w is not None, "non_member without a witness")
        if "taus" in w:         # psi1 / phi1: samples on the wrong side
            for tau, value in zip(w["taus"], w["values"]):
                replay = g.eval(tau)
                expect(close(value, replay), "witness sample does not replay")
                if cert["class"] == "psi1":
                    expect(replay < 1.0 - w["r"] - CLASS_TOL,
                           "psi1 witness sample clears 1-r")
                else:
                    expect(replay > w["epsilon"] + CLASS_TOL,
                           "phi1 witness sample stays below epsilon")
        elif w["reason"] == "psi(tau) > tau fails":
            replay = g.eval(w["tau"])
            expect(close(w["value"], replay) and replay <= w["tau"] + CLASS_TOL,
                   "psi(tau) > tau witness does not replay")
        elif w["reason"] == "discontinuity":
            res = cert["tau_resolution"]
            jump = g.eval(w["tau"]) - g.eval(w["tau"] - res)
            expect(abs(jump - w["jump"]) <= 1e-9 and jump > 10 * res,
                   "discontinuity witness does not replay")
        elif w["reason"] == "not nondecreasing":
            a, b = g.eval(w["tau"]), g.eval(w["next_tau"])
            expect(b < a, "monotonicity witness does not replay")
        else:
            raise CheckError(f"no replay rule for witness {w['reason']!r}")
    for rec in cert["records"]:
        if rec.get("rho") is not None and "r" in rec:
            lo, hi = 1.0 - rec["rho"], 1.0 - rec["r"]
            expect(g.eval(0.5 * (lo + hi)) >= hi - CLASS_TOL,
                   f"psi1 record r={rec['r']} fails at its window midpoint")
        if rec.get("delta") is not None:
            eps = rec["epsilon"]
            expect(g.eval(0.5 * (eps + rec["delta"])) <= eps + CLASS_TOL,
                   f"phi1 record eps={eps} fails at its window midpoint")


def gauge_op(gauge_id: str, verdicts: dict) -> Op:
    """``gauge --gauge <id>`` with the expected verdict per class."""
    g = make_gauge(gauge_id)

    def check(code, out):
        report = report_of(out)
        status = 0 if all(v == "member" for v in verdicts.values()) else 1
        expect_exit(code, report, status)
        certs = report["body"]["certificates"]
        got = {c["class"]: c["verdict"] for c in certs}
        expect(got == verdicts, f"verdicts {got}, expected {verdicts}")
        for cert in certs:
            replay_certificate(g, cert)
    return cli_op("gauge", ["gauge", "--gauge", gauge_id, "--format",
                            "json-like"], check)


# ---------------------------------------------------------------------------
# workload: paper
# ---------------------------------------------------------------------------

PAPER_SUITES = ["ex61", "ex62", "ex63", "propositions"]


def paper_cycles(rng, seed: int, workdir: str) -> list:
    first: dict = {}

    def check(code, out):
        report = report_of(out)
        expect_exit(code, report, 0)
        suites = report["body"]["suites"]
        expect([s["name"] for s in suites] == PAPER_SUITES,
               "unexpected suite list")
        failed = [a["id"] for s in suites for a in s["assertions"]
                  if not a["passed"]]
        expect(not failed, f"failed assertions {failed}")
        digest = hashlib.sha256(out.encode()).hexdigest()
        expect(first.setdefault("digest", digest) == digest,
               "paper output differs between identical runs")

    argv = ["paper", "--format", "json-like", "--seed", str(seed)]
    return [[cli_op("paper", argv, check)]]


# ---------------------------------------------------------------------------
# workload: orbits
# ---------------------------------------------------------------------------

EX62_MAX_LEN = 10000
SMALL_MAX_LEN = (1000, 3000)
TRACE_POINTS = 100
# Oscillating points at the head of a criterion trace.  Fixed, so the
# criterion check costs the same in every cycle.  Its latency sits between
# the short and the long iterate, and with nine traces per cycle the
# criterion checks span the middle ranks of the cycle's latencies: the run's
# median is then a median of criterion checks alone, not a value that falls
# in a gap between ops of different kinds.
OSCILLATION = 20
CRITERION_TRACES = 9
# Distance between the two oscillating values.  The cut search costs more
# the further apart they are, so the distance is fixed and only their
# position is seeded.
OSCILLATION_GAP = 0.25


def check_solution_interval(sc: Scenario, out: str, code: int) -> None:
    """A long interval orbit that converges to the fixed point 0."""
    report = report_of(out)
    expect_exit(code, report, 0)
    sol = report["body"]["solution"]
    expect(sol["route"] == "cm-strong" and sol["audit_passed"],
           "cm-strong audit did not pass")
    expect(sol["converged"], "orbit not reported as converged")
    z = sol["fixed_point"]
    expect(0.0 < z < 1e-3, f"fixed point estimate {z} is not near 0")
    expect(sol["trace_length"] == EX62_MAX_LEN + 1,
           f"trace length {sol['trace_length']}")
    expect(sol["cauchy"]["verdict"] == "holds_on_prefix",
           "Cauchy certificate does not hold")
    tail = sc.scenario.solver_config().tail_tolerance
    t_max = sc.scenario.t_grid[-1]
    expect(sc.m(z, sc.T(z), t_max) > 1.0 - tail,
           "final iterate is not near-fixed at the largest scale")


def iterate_op(sc: Scenario, x0: float, max_len: int) -> Op:
    def check(code, out):
        report = report_of(out)
        expect_exit(code, report, 0)
        trace = report["body"]["trace"]
        rows = trace["rows"]
        expect(trace["stop_reason"] == "max_len" and
               trace["length"] == max_len + 1 == len(rows),
               f"trace length {trace['length']}, expected {max_len + 1}")
        ts = np.array(trace["t_grid"])
        expect(rows[0]["x"] == x0, "trace does not start at x0")
        for n in sorted({0, 1, max_len // 3, max_len // 2, max_len - 1}):
            x, x_next = rows[n]["x"], rows[n + 1]["x"]
            expect(sc.T(x) == x_next, f"step {n} does not replay")
            near = np.asarray(sc.space.m(x, x_next, ts), dtype=float)
            expect(np.allclose(near, rows[n]["step_nearness"],
                               rtol=REPLAY_RTOL, atol=0.0),
                   f"step nearness {n} does not replay")

    argv = ["iterate", "--scenario", "ex62", "--x0", repr(x0),
            "--max-len", str(max_len), "--format", "json-like"]
    return cli_op("iterate", argv, check)


def settling_trace(rng) -> list:
    """Oscillation between two far points, then the ex62 orbit from 1/2.

    The criterion check's cost grows with the distance between the two
    oscillating values, so that distance is fixed.
    """
    u = float(np.round(rng.uniform(2.0, 2.25), 4))
    v = u + OSCILLATION_GAP
    osc = [u if i % 2 == 0 else v for i in range(OSCILLATION)]
    return osc + [1.0 / (j + 2) for j in range(TRACE_POINTS - OSCILLATION)]


def unsettled_trace(rng) -> list:
    """The ex62 orbit from 1/2, then an oscillation filling the second half."""
    u, v = (float(a) for a in np.round(rng.uniform(2.0, 9.0, 2), 4))
    head = [1.0 / (j + 2) for j in range(TRACE_POINTS // 4)]
    return head + [u if i % 2 == 0 else v
                   for i in range(TRACE_POINTS - len(head))]


def orbit_library_ops(ex62: Scenario, rng) -> list:
    space, t_grid, r_grid = ex62.space, ex62.scenario.t_grid, ex62.scenario.r_grid
    settled = [dynamics.OrbitTrace.from_points(space, settling_trace(rng), t_grid)
               for _ in range(CRITERION_TRACES)]
    unsettled = dynamics.OrbitTrace.from_points(space, unsettled_trace(rng),
                                                t_grid)
    n_t, n_r = len(t_grid), len(r_grid)

    def check_criterion(cert):
        expect(cert.verdict.value == "holds_on_prefix",
               f"criterion verdict {cert.verdict.value}")
        expect(len(cert.records) == n_t * n_r, "criterion records incomplete")

    def check_settled(cert):
        expect(cert.verdict.value == "holds_on_prefix",
               f"g-Cauchy verdict {cert.verdict.value} on a settling trace")
        expect(len(cert.records) == 3 * n_t, "g-Cauchy records incomplete")

    def check_unsettled(cert):
        expect(cert.verdict.value == "violated",
               f"g-Cauchy verdict {cert.verdict.value} on an oscillating tail")
        w = cert.witness
        pts = unsettled.points
        deficit = 1.0 - ex62.m(pts[w["n"]], pts[w["n"] + w["m"]], w["t"])
        expect(close(w["deficit"], deficit) and deficit > 1e-6,
               "g-Cauchy witness does not replay")

    return [
        Op("cauchy_criterion", f"cauchy_criterion_check(settling trace {n})",
           lambda trace=trace: dynamics.cauchy_criterion_check(
               space, trace, r_grid=r_grid),
           check_criterion)
        for n, trace in enumerate(settled)
    ] + [
        Op("g_cauchy", "g_cauchy_check(settling trace 0)",
           lambda: dynamics.g_cauchy_check(space, settled[0]), check_settled),
        Op("g_cauchy", "g_cauchy_check(oscillating tail)",
           lambda: dynamics.g_cauchy_check(space, unsettled), check_unsettled),
    ]


def expr_scenario(rng, path: str) -> None:
    """An interval scenario whose map is a rational expression x/(1+c*x)."""
    high = float(np.round(rng.uniform(2.0, 6.0), 2))
    c = float(np.round(rng.uniform(0.5, 2.0), 3))
    doc = {"name": "expr-orbit", "seed": int(rng.integers(0, 1000)),
           "space": {"carrier": {"kind": "interval", "low": 0, "high": high,
                                 "samples": 201},
                     "fuzzy": "standard:euclidean", "tnorm": "product",
                     "complete": True, "strong": True},
           "map": f"expr:x/(1+{c}*x)",
           "grids": {"t": "log:1:100:40", "r": "default"},
           "solver": {"route": "cm-strong",
                      "x0": float(np.round(rng.uniform(high / 2, high), 4)),
                      "max_len": EX62_MAX_LEN, "stop_tolerance": 1e-9,
                      "tail_tolerance": 1e-6}}
    with open(path, "w") as fh:
        json.dump(doc, fh)


def orbits_cycles(rng, seed: int, workdir: str) -> list:
    ex62 = Scenario("ex62")
    cycles = []
    for i in range(INPUT_SETS):
        x0 = float(np.round(rng.uniform(0.5, 10.0), 6))
        path = os.path.join(workdir, f"expr-{i}.json")
        expr_scenario(rng, path)
        expr = Scenario(path)
        small = stratum(rng, *SMALL_MAX_LEN, i)
        solve62 = cli_op(
            "solve", ["solve", "--scenario", "ex62", "--x0", repr(x0),
                      "--format", "json-like"],
            lambda code, out: check_solution_interval(ex62, out, code))
        solve_expr = cli_op(
            "solve", ["solve", "--scenario", path, "--format", "json-like"],
            lambda code, out, expr=expr: check_solution_interval(expr, out, code),
            label=f"solve {expr.T.name} on [0,{expr.space.carrier.high}]")
        x_short, x_full = (float(x) for x in
                           np.round(rng.uniform(0.5, 10.0, 2), 6))
        iterate_short = iterate_op(ex62, x_short, small)
        iterate_full = iterate_op(ex62, x_full, EX62_MAX_LEN)
        library = orbit_library_ops(ex62, rng)
        crit, g_cauchy = library[:CRITERION_TRACES], library[CRITERION_TRACES:]
        # the criterion checks hold the run's median latency; spreading them
        # over the cycle keeps their samples from sharing one slow spell
        third = CRITERION_TRACES // 3
        cycles.append([solve62, *crit[:third], iterate_short,
                       *crit[third:2 * third], solve_expr,
                       *crit[2 * third:], iterate_full, *g_cauchy])
    return cycles


# ---------------------------------------------------------------------------
# workload: classify
# ---------------------------------------------------------------------------

# Headline statuses of the built-in scenarios, as the paper states them.
BUILTIN_CLASSIFY = [
    ("ex62", "cm", "between", "satisfied"),
    ("ex62", "cm", "onesided", "satisfied"),
    ("ex62", "psi", None, "violated"),
    ("ex62", "m", None, "violated"),
    ("ex63", "cm", "between", "violated"),
    ("ex63", "cm", "onesided", "violated"),
    ("ex63", "psi", None, "violated"),
    ("ex63", "m", None, "satisfied"),
]

TABLE_POINTS = 48
TABLE_NODES = tuple(float(t) for t in np.logspace(np.log10(0.05),
                                                  np.log10(50.0), 9))
PROBE_SCALES = 4
# Further seeded table scenarios per cycle, each classified on route m only.
# That op interpolates the same number of table elements on every table, and
# on 40 points its latency sits between the cheap and the costly halves of
# the cycle (9 ops below, 10 above), so with these samples the run's median
# latency is a median of one kind of op rather than a value that falls in a
# gap between ops of different kinds.  Sixteen give the median 32 samples
# in a run of two cycles.
MEDIAN_TABLES = 16
MEDIAN_TABLE_POINTS = 40


def builtin_classify_ops(scenarios: dict) -> list:
    ops = []
    for ref, route, form, status in BUILTIN_CLASSIFY:
        sc = scenarios[ref]
        argv = ["classify-map", "--scenario", ref, "--route", route,
                "--format", "json-like"] + (["--form", form] if form else [])

        def check(code, out, sc=sc, status=status, ref=ref, route=route):
            cls = check_classification(sc, out, code, status,
                                       psi=sc.gauges.get("psi"))
            if ref == "ex63" and route == "cm":
                w = cls["conditions"][0]["witness"]
                expect((w["x"], w["y"]) == (0.0, 1.0),
                       f"ex63 cm witness {(w['x'], w['y'])}, expected (0, 1)")
        ops.append(cli_op("classify_map", argv, check))
    return ops


def gauge_ops(rng) -> list:
    """Closed-form, step and conjugated gauges with analytically known classes.

    power:p with p < 1 is continuous and above the identity (both psi
    classes); step-psi jumps at 1/2; conjugating step-phi gives a step
    psi-gauge; conjugating power:p gives the phi-gauges p*s (eta-neglog) and
    (1+s)^p - 1 (eta-reciprocal), both below the identity.
    """
    def power():
        return f"power:{int(rng.integers(4, 20))}/20"
    ops = [gauge_op(power(), {"psi": "member", "psi1": "member"}),
           gauge_op("step-phi", {"phi1": "member"}),
           gauge_op("step-psi", {"psi": "non_member", "psi1": "member"})]
    for eta in ("eta-reciprocal", "eta-neglog"):
        ops += [gauge_op(f"conj:{eta}:step-phi",
                         {"psi": "non_member", "psi1": "member"}),
                gauge_op(f"conj:{eta}:{power()}", {"phi1": "member"})]
    return ops


def probe_op(ex62: Scenario, rng) -> Op:
    """equivalence_probe on ex62 at one seeded scale per quarter of its grid.

    Every scale of the scenario grid has a per-scale threshold for every r,
    so both verdicts are satisfied.
    """
    grid = ex62.scenario.t_grid
    quarter = len(grid) // PROBE_SCALES
    scales = [grid[q * quarter + int(rng.integers(quarter))]
              for q in range(PROBE_SCALES)]
    n_r = len(ex62.scenario.r_grid)

    def run():
        return contractions.equivalence_probe(ex62.space, ex62.T,
                                              t_grid=scales)

    def check(rep):
        expect(rep.pointwise_satisfied and rep.uniform_satisfied,
               "probe verdicts are not satisfied on the ex62 grid")
        expect(len(rep.pointwise) == PROBE_SCALES * n_r and
               len(rep.uniform) == n_r and
               len(rep.envelope_certs) == PROBE_SCALES,
               "probe records incomplete")
        for u in rep.uniform:
            per_t = [e["rho"] for e in rep.pointwise if e["r"] == u["r"]]
            expect(u["rho"] == min(per_t),
                   "uniform rho is not the per-scale minimum")
    label = ",".join(f"{t:.3g}" for t in scales)
    return Op("equivalence_probe", f"equivalence_probe(ex62, t={label})",
              run, check)


def table_scenario(rng, workdir: str, i: str,
                   points: int = TABLE_POINTS) -> tuple[str, dict]:
    """A finite table space whose verdicts follow from its construction.

    Nearness is exp(-|x-y|/t) tabulated at TABLE_NODES, with the scenario
    grid equal to the nodes.  The map sends a -> b -> c -> 0 and every other
    point to 0, with a, c <= 0.4 b: the pair (0, a) loses nearness, so both
    threshold-implication routes fail on strict improvement, while
    d(Tx,Ty) <= 5/7 (d(x,y) + 2 d(x,Tx) + 2 d(y,Ty)) holds for every pair,
    so the blended route with psi = power:5/7 and alpha = beta = 2 passes.
    Interpolation in t keeps the space strong: the tabulated values are
    nondecreasing in t and piecewise-linear interpolation preserves the
    product inequality; with nodes 10^(3/8) apart no refined-grid jump
    exceeds 0.035.
    """
    ks = np.sort(rng.choice(np.arange(1, 321), points - 1, replace=False))
    pts = [0.0] + [float(k) / 64.0 for k in ks]
    b = pts[-1]
    low = [p for p in pts[1:] if p <= 0.4 * b]
    a, c = (float(v) for v in rng.choice(low, 2, replace=False))
    mapping = {p: 0.0 for p in pts}
    mapping.update({a: b, b: c, c: 0.0})
    entries = [{"x": x, "y": y,
                "values": [math.exp(-abs(x - y) / t) for t in TABLE_NODES]}
               for n, x in enumerate(pts) for y in pts[n + 1:]]
    table_path = os.path.join(workdir, f"table-{i}.json")
    with open(table_path, "w") as fh:
        # dumps, unlike dump, uses the C encoder
        fh.write(json.dumps({"t_nodes": list(TABLE_NODES), "entries": entries}))
    doc = {"name": f"table-{i}", "seed": int(rng.integers(0, 1000)),
           "space": {"carrier": {"kind": "finite", "points": pts},
                     "fuzzy": f"table:{table_path}", "tnorm": "product",
                     "complete": True, "strong": True},
           "map": {"kind": "table", "name": "excursion",
                   "mapping": {repr(k): v for k, v in mapping.items()}},
           "gauges": {"psi": "power:5/7"},
           "grids": {"t": list(TABLE_NODES), "r": "default"},
           "solver": {"route": "auto", "x0": a, "alpha": 2, "beta": 2,
                      "max_len": 10000, "stop_tolerance": 1e-9}}
    path = os.path.join(workdir, f"table-scenario-{i}.json")
    with open(path, "w") as fh:
        json.dump(doc, fh)
    return path, {"a": a, "b": b, "c": c}


def table_m_op(sc: Scenario, path: str) -> Op:
    """``classify-map --route m`` on a table scenario: satisfied."""
    def check(code, out):
        check_classification(sc, out, code, "satisfied")
    return cli_op("classify_map", ["classify-map", "--route", "m",
                                   "--scenario", path, "--format", "json-like"],
                  check, label=f"classify-map {os.path.basename(path)} --route m")


def table_ops(path: str, known: dict) -> list:
    sc = Scenario(path)

    def check_space(code, out):
        report = report_of(out)
        expect_exit(code, report, 0)
        axioms = report["body"]["axiom_report"]
        expect(axioms["passed"] and axioms["strong_verdict"],
               "table space fails its axioms")

    def check_cm(code, out):
        cls = check_classification(sc, out, code, "violated")
        w = cls["conditions"][0]["witness"]
        expect((w["x"], w["y"]) == (0.0, known["a"]),
               f"strict-improvement witness {(w['x'], w['y'])}, "
               f"expected (0, {known['a']})")

    def check_solve(code, out):
        report = report_of(out)
        expect_exit(code, report, 0)
        sol = report["body"]["solution"]
        expect(sol["route"] == "m-final" and sol["audit_passed"],
               f"auto chose {sol['route']}, expected m-final")
        expect(sol["fixed_point"] == 0.0 and sol["exact"] and sol["unique"]
               and sol["fixed_points_found"] == [0.0],
               "table map does not reach its unique fixed point 0")
        expect(sol["iterations"] == 3, f"{sol['iterations']} iterations from a")

    base = ["--scenario", path, "--format", "json-like"]
    name = os.path.basename(path)
    return [
        cli_op("check_space", ["check-space", "--t-grid", "default"] + base,
               check_space, label=f"check-space {name} --t-grid default"),
        cli_op("classify_map", ["classify-map", "--route", "cm"] + base,
               check_cm, label=f"classify-map {name} --route cm"),
        table_m_op(sc, path),
        cli_op("solve", ["solve", "--route", "auto"] + base, check_solve,
               label=f"solve {name} --route auto"),
    ]


def classify_cycles(rng, seed: int, workdir: str) -> list:
    # Of the 36 ops of a cycle, 9 are faster and 10 slower than the 16
    # route-m classifications of 40-point tables, so the run's median latency
    # falls in the middle of ops of one kind.
    scenarios = {ref: Scenario(ref) for ref in ("ex62", "ex63")}
    # the further tables are shared by all cycles: their op costs the same on
    # every table, and fewer files keep the set-up short
    paths = [table_scenario(rng, workdir, f"m-{j}", MEDIAN_TABLE_POINTS)[0]
             for j in range(MEDIAN_TABLES)]
    extra = [table_m_op(Scenario(p), p) for p in paths]
    cycles = []
    for i in range(INPUT_SETS):
        path, known = table_scenario(rng, workdir, str(i))
        base = (builtin_classify_ops(scenarios) + gauge_ops(rng)
                + [probe_op(scenarios["ex62"], rng)] + table_ops(path, known))
        # the further table ops spread evenly between the others, so that
        # the median's samples do not share one slow spell
        ops = []
        for n, op in enumerate(base):
            ops.append(op)
            ops += extra[n * MEDIAN_TABLES // len(base):
                         (n + 1) * MEDIAN_TABLES // len(base)]
        cycles.append(ops)
    return cycles


WORKLOADS = {"paper": paper_cycles, "orbits": orbits_cycles,
             "classify": classify_cycles}


def build(name: str, seed: int, workdir: str) -> list:
    """The workload's cycles, with every input generated from ``seed``."""
    rng = np.random.default_rng([seed, sorted(WORKLOADS).index(name)])
    return WORKLOADS[name](rng, seed, workdir)


def warmup_ops() -> list:
    """Small commands run once before timing, identical for every workload."""
    ex63 = Scenario("ex63")
    return [
        cli_op("warmup", ["classify-map", "--scenario", "ex63", "--route", "m",
                          "--format", "json-like"],
               lambda code, out: check_classification(ex63, out, code,
                                                      "satisfied")),
        cli_op("warmup", ["iterate", "--scenario", "ex62", "--max-len", "5",
                          "--format", "json-like"],
               lambda code, out: expect(code == 0, "iterate failed")),
        gauge_op("power:1/2", {"psi": "member", "psi1": "member"}),
    ]
