"""Acceptance suite: one test per criterion, each printing a pass/fail line.

All tolerances are pinned here.  Golden values are closed forms evaluated
at run time; derived values were computed by the independent oracles in
the sibling test modules before being frozen.
"""

import math

import numpy as np
import pytest

from fuzzyfix.algebra import (
    ClassTag,
    Verdict,
    class_membership,
    conjugate_gauge,
    eta_neglog,
    eta_reciprocal,
    gauge,
    identity_gauge,
    step_phi,
    step_psi,
)
from fuzzyfix.cli import run_command
from fuzzyfix.contractions import (
    MParams,
    cm_contractive_check,
    extract_empirical_gauge,
    m_value,
)
from fuzzyfix.defaults import DEFAULT_R_GRID, DEFAULT_T_GRID
from fuzzyfix.dynamics import (
    CauchyVerdict,
    OrbitTrace,
    g_cauchy_check,
    m_cauchy_check,
    picard_orbit,
    solve_fixed_point,
)
from fuzzyfix.scenario import load_scenario
from fuzzyfix.spaces import Carrier, axiom_check, metric, standard_fuzzy_metric


def verdict(num: int, description: str, ok: bool) -> None:
    print(f"criterion {num:02d} {'PASS' if ok else 'FAIL'}: {description}")
    assert ok, f"criterion {num} failed: {description}"


@pytest.fixture(scope="module")
def ex62():
    sc = load_scenario("ex62")
    return sc, sc.build_space(), sc.build_map()


@pytest.fixture(scope="module")
def ex63():
    sc = load_scenario("ex63")
    return sc, sc.build_space(), sc.build_map()


def test_criterion_01_blended_power_inequality(ex63):
    _, space, T = ex63
    params = MParams(2, 2)
    points = space.carrier.points
    worst = math.inf
    for i, x in enumerate(points):
        for y in points[i + 1:]:
            for t in DEFAULT_T_GRID:
                after = space.m(T(x), T(y), t)
                blend = m_value(space, T, params, x, y, t)
                worst = min(worst, after - blend ** (5 / 7))
    spot_left = space.m(T(0.0), T(1.0), 1.0)
    spot_right = m_value(space, T, params, 0.0, 1.0, 1.0) ** (5 / 7)
    ok = (worst >= -1e-12
          and spot_left == math.exp(-5)
          and abs(spot_right - math.exp(-45 / 7)) <= 1e-15)
    verdict(1, "after-nearness dominates the 5/7 power of the blend on all "
               "6 pairs x 40 scales; spot pair (0,1) at scale 1", ok)


def test_criterion_02_plain_contraction_obstruction(ex63):
    _, space, T = ex63
    ok = all(space.m(T(0.0), T(1.0), t) < space.m(0.0, 1.0, t)
             for t in DEFAULT_T_GRID)
    verdict(2, "the (0,1) pair strictly loses nearness at every grid scale",
            ok)


def test_criterion_03_blended_route_solver(ex63):
    sc, space, T = ex63
    cfg = sc.solver_config()
    results = {x0: solve_fixed_point(space, T, x0, sc.route, cfg)
               for x0 in space.carrier.points}
    ok = (all(r.fixed_point == 0.0 and r.converged and r.unique
              for r in results.values())
          and results[1.0].iterations <= 3
          and results[1.0].fixed_points_found == [0.0])
    verdict(3, "blended route returns 0 from all four starts, within 3 "
               "applications from start 1, uniqueness scanned exhaustively",
            ok)


def test_criterion_04_golden_values_and_envelope(ex62):
    _, space, T = ex62
    golden_before = space.m(1.0, 1.5, 1.0)
    golden_after = space.m(T(1.0), T(1.5), 1.0)
    deltas = [1.0, 0.5, 0.1, 0.01]
    pairs = [(1.0, 1.0 + d / 2) for d in deltas]
    pairs += [(float(x), float(y)) for x in np.linspace(0, 10, 41)
              for y in np.linspace(0, 10, 41) if x < y]
    env = extract_empirical_gauge(space, T, t=1.0, pairs=pairs)
    env_ok = all(env.eval(1.0 / (2.0 + d / 2.0)) == 0.5 for d in deltas)
    env_cert = class_membership(env, ClassTag.PSI)
    ok = (golden_before == 0.4 and golden_after == 0.5 and env_ok
          and env_cert.verdict is Verdict.NON_MEMBER)
    verdict(4, "golden nearness 0.4 -> 0.5 at scale 1, envelope exactly 1/2 "
               "at the witness thresholds, no continuous gauge", ok)


def test_criterion_05_classification_and_convergence(ex62):
    sc, space, T = ex62
    report = cm_contractive_check(space, T)     # package default grids
    recs = report.condition("threshold-implication").records
    classified = (report.satisfied
                  and len(recs) == len(DEFAULT_T_GRID) * len(DEFAULT_R_GRID)
                  and all(rec["rho"] is not None and rec["rho"] > rec["r"]
                          for rec in recs))
    result = solve_fixed_point(space, T, sc.x0, sc.route, sc.solver_config())
    assert result.trace.steps <= 10000
    z = result.fixed_point
    best_deficit = min(1.0 - space.m(z, 0.0, t) for t in sc.t_grid)
    ok = (classified and result.converged and abs(z) < 1e-3
          and best_deficit < 1e-6)
    verdict(5, "threshold-implication satisfied on default grids with "
               "recorded rho per (t, r); orbit within deficit 1e-6 of 0 at "
               "the best scale inside 10000 steps", ok)


def test_criterion_06_step_gauge():
    psi = step_psi()
    cont = class_membership(psi, ClassTag.PSI)
    jump_ok = (cont.verdict is Verdict.NON_MEMBER
               and cont.witness["tau"] == 0.5
               and abs(cont.witness["jump"] - 1 / 6) <= 1e-12)
    threshold = class_membership(psi, ClassTag.PSI1, r_grid=DEFAULT_R_GRID)
    threshold_ok = threshold.verdict is Verdict.MEMBER
    conj = conjugate_gauge(eta_reciprocal(), step_phi())
    taus = np.random.default_rng(7).uniform(1e-3, 0.999, 200)
    match_ok = all(abs(conj(float(t)) - psi(float(t))) <= 1e-12 for t in taus)
    verdict(6, "step gauge: jump 1/6 at 1/2 excludes the continuous class, "
               "threshold class certified on the default grid, matches the "
               "conjugated distance gauge at 200 points within 1e-12",
            jump_ok and threshold_ok and match_ok)


def test_criterion_07_proposition_suite():
    containment_ok = True
    for p in (0.5, 5 / 7, 0.9):
        g = gauge(f"power:{p}")
        for tag in (ClassTag.PSI, ClassTag.PSI1):
            containment_ok &= (class_membership(g, tag).verdict
                               is Verdict.MEMBER)
    ss = np.random.default_rng(5).uniform(0.011, 8.0, 100)
    round_trip_ok = True
    for phi_spec in ("step-phi", "power-phi:2"):
        for eta in (eta_reciprocal(), eta_neglog()):
            phi = gauge(phi_spec)
            back = conjugate_gauge(eta, conjugate_gauge(eta, phi))
            round_trip_ok &= all(abs(back(float(s)) - phi(float(s))) <= 1e-9
                                 for s in ss)
    ident = class_membership(identity_gauge(), ClassTag.PSI1)
    ident_ok = (ident.verdict is Verdict.NON_MEMBER
                and len(ident.witness["taus"]) > 0)
    verdict(7, "continuous class implies threshold class for the built-in "
               "gauges; conjugation round trips within 1e-9; identity "
               "rejected with witness",
            containment_ok and round_trip_ok and ident_ok)


def test_criterion_08_cauchy_machinery(ex62):
    sc, space, T = ex62
    trace = picard_orbit(space, T, sc.x0, max_len=60, t_grid=sc.t_grid)
    prefix_ok = m_cauchy_check(space, trace, sc.r_grid).holds

    line = standard_fuzzy_metric(Carrier.interval(0, 1000, 101),
                                 metric("euclidean"))
    sums = np.cumsum(1.0 / np.arange(1, 1001))
    harmonic = OrbitTrace.from_points(line, sums, DEFAULT_T_GRID)
    g_cert = g_cauchy_check(line, harmonic)
    m_cert = m_cauchy_check(line, harmonic)     # default r grid, trace grid
    w = m_cert.witness
    witness_ok = (m_cert.verdict is CauchyVerdict.VIOLATED and w is not None
                  and line.m(harmonic.points[w["n"]],
                             harmonic.points[w["m"]], w["t"])
                  <= 1.0 - w["r"])
    verdict(8, "the 60-step orbit prefix is all-pairs certified on the full "
               "scenario grids; harmonic partial sums are fixed-gap "
               "certified yet all-pairs refuted with a concrete pair",
            prefix_ok and g_cert.holds and witness_ok)


def test_criterion_09_axiom_suites(ex62, ex63):
    _, ray_space, _ = ex62
    _, quad_space, _ = ex63
    reports = [axiom_check(ray_space, seed=11, tol=1e-12),
               axiom_check(quad_space, seed=11, tol=1e-12)]
    ok = all(r.passed and r.strong_verdict for r in reports)
    verdict(9, "quotient and exponential spaces pass all axioms and the "
               "strong form on 500 triples x default scales at 1e-12", ok)


def test_criterion_10_byte_identical_reports(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    code1, _ = run_command(["paper", "--format", "json-like", "--seed", "7",
                            "--out", str(a)])
    code2, _ = run_command(["paper", "--format", "json-like", "--seed", "7",
                            "--out", str(b)])
    ok = code1 == 0 and code2 == 0 and a.read_bytes() == b.read_bytes()
    verdict(10, "paper report with seed 7 is byte-identical across runs", ok)
