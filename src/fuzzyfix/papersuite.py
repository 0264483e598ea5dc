"""Executable reproduction suites with golden values.

Each suite builds its objects from the built-in scenarios, evaluates a
fixed list of assertions against golden values kept as closed-form
expressions (evaluated at run time, never pre-rounded decimals), and
returns a report with one pass/fail entry per assertion.  Reports are
bit-for-bit reproducible given the seed and the default grids.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .algebra import (
    ClassTag,
    Verdict,
    class_membership,
    conjugate_gauge,
    eta_neglog,
    eta_reciprocal,
    gauge,
    identity_gauge,
    power_gauge,
    step_phi,
    step_psi,
)
from .contractions import (
    MParams,
    PairSample,
    _libm_power,
    cm_contractive_check,
    extract_empirical_gauge,
    m_value,
)
from .defaults import DEFAULT_T_GRID
from .dynamics import m_cauchy_check, picard_orbit, solve_fixed_point
from .scenario import load_scenario
from .spaces import axiom_check

ABS_TOL = 1e-12
ROUND_TRIP_TOL = 1e-9


@dataclass
class SuiteAssertion:
    check_id: str
    description: str
    passed: bool
    observed: object = None
    expected: object = None

    def to_dict(self) -> dict:
        return {"id": self.check_id, "description": self.description,
                "passed": self.passed, "observed": self.observed,
                "expected": self.expected}


@dataclass
class SuiteReport:
    name: str
    assertions: list[SuiteAssertion] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(a.passed for a in self.assertions)

    def check(self, check_id: str, description: str, passed: bool,
              observed=None, expected=None) -> None:
        self.assertions.append(
            SuiteAssertion(check_id, description, bool(passed), observed,
                           expected))

    def to_dict(self) -> dict:
        return {"name": self.name, "passed": self.passed,
                "assertions": [a.to_dict() for a in self.assertions]}


def run_example_step_gauge(seed: int = 7) -> SuiteReport:
    """The step gauge: in the threshold class, not in the continuous class,
    and equal to the conjugated distance gauge."""
    report = SuiteReport("ex61")
    psi = step_psi()
    phi = step_phi()

    report.check("psi-at-0.3", "step psi evaluates to 1/2 below 1/2",
                 psi(0.3) == 0.5, psi(0.3), 0.5)
    report.check("psi-at-1", "step psi fixes 1", psi(1.0) == 1.0, psi(1.0), 1.0)

    cert_psi = class_membership(psi, ClassTag.PSI)
    jump = cert_psi.witness.get("jump") if cert_psi.witness else None
    report.check("psi-not-continuous-class",
                 "step psi rejected from the continuous class",
                 cert_psi.verdict is Verdict.NON_MEMBER,
                 cert_psi.verdict.value, "non_member")
    report.check("jump-at-half",
                 "the jump at 1/2 equals 2/3 - 1/2 = 1/6",
                 jump is not None and abs(jump - 1 / 6) <= ABS_TOL,
                 jump, 1 / 6)

    cert_psi1 = class_membership(psi, ClassTag.PSI1)
    report.check("psi-in-threshold-class",
                 "step psi certified for the threshold class on the "
                 "default grid",
                 cert_psi1.verdict is Verdict.MEMBER,
                 cert_psi1.verdict.value, "member")

    conj = conjugate_gauge(eta_reciprocal(), phi)
    report.check("conjugation-at-two-thirds",
                 "conjugated distance gauge gives 3/4 at 2/3",
                 abs(conj(2 / 3) - 0.75) <= ABS_TOL, conj(2 / 3), 0.75)
    report.check("conjugation-at-0.4",
                 "conjugated distance gauge gives 1/2 at 0.4",
                 abs(conj(0.4) - 0.5) <= ABS_TOL, conj(0.4), 0.5)
    rng = np.random.default_rng(seed)
    taus = rng.uniform(1e-3, 0.999, 200)
    worst = float(np.max(np.abs(conj(taus) - psi(taus))))
    report.check("conjugation-matches-step-psi",
                 "conjugation matches step psi at 200 sampled points",
                 worst <= ABS_TOL, worst, f"<= {ABS_TOL}")
    return report


def run_example_mihet_extension(seed: int = 7) -> SuiteReport:
    """The step self-map on the max-metric ray: threshold-contractive and
    solvable, but out of reach of any continuous gauge."""
    report = SuiteReport("ex62")
    scenario = load_scenario("ex62")
    space = scenario.build_space()
    T = scenario.build_map()

    axioms = axiom_check(space, seed=seed)
    report.check("axioms", "space axioms including the strong form",
                 axioms.passed and axioms.strong_verdict,
                 axioms.strong_verdict, True)

    m_before = space.m(1.0, 1.5, 1.0)
    report.check("nearness-before", "nearness of (1, 1.5) at scale 1 is 0.4",
                 m_before == 0.4, m_before, 0.4)
    m_after = space.m(T(1.0), T(1.5), 1.0)
    report.check("nearness-after",
                 "nearness of the images at scale 1 is exactly 1/2",
                 m_after == 0.5, m_after, 0.5)

    # one pair sample for the solver's contraction audit and the check
    # here; the solver runs first, so that its orbit, the suite's memory
    # peak, passes before the audit ranks the sample
    sample = PairSample.of(space, T)
    result = solve_fixed_point(space, T, scenario.x0, scenario.route,
                               scenario.solver_config(), sample)
    cm = cm_contractive_check(space, T, sample=sample)   # default grids
    recorded = [rec for rec in cm.condition("threshold-implication").records
                if rec.get("rho") is not None]
    report.check("threshold-contractive",
                 "threshold-implication form satisfied on the default grids",
                 cm.satisfied, cm.status.value, "satisfied")
    report.check("rho-recorded", "a rho is recorded per (t, r) grid point",
                 len(recorded) == len(cm.t_grid) * len(cm.r_grid),
                 len(recorded), len(cm.t_grid) * len(cm.r_grid))

    deltas = [1.0, 0.5, 0.1, 0.01]
    pairs = [(1.0, 1.0 + d / 2) for d in deltas]
    pairs += [(float(x), float(y)) for x in np.linspace(0, 10, 41)
              for y in np.linspace(0, 10, 41) if x < y]
    env = extract_empirical_gauge(space, T, pairs, t=1.0)
    env_vals = [env.eval(1.0 / (2.0 + d / 2.0)) for d in deltas]
    report.check("envelope-pinned-at-half",
                 "envelope equals 1/2 exactly where the witness pairs "
                 "accumulate",
                 all(v == 0.5 for v in env_vals), env_vals, [0.5] * 4)
    env_cert = class_membership(env, ClassTag.PSI)
    report.check("no-continuous-gauge",
                 "the envelope fails the continuous-class requirements",
                 env_cert.verdict is Verdict.NON_MEMBER,
                 env_cert.verdict.value, "non_member")

    report.check("solver-audit", "contraction route audit passes",
                 result.audit_passed, result.audit_passed, True)
    z = result.fixed_point
    # the best-scale deficit of the final iterate must be inside tolerance
    deficit = (float(np.min(1.0 - space.m(z, 0.0, np.array(scenario.t_grid))))
               if z != 0.0 else 0.0)
    report.check("solver-converges",
                 "orbit reaches the fixed point 0 within tolerance at the "
                 "best scale inside 10000 steps",
                 result.converged and deficit < 1e-6 and abs(z) < 1e-3,
                 {"limit": z, "best_scale_deficit": deficit}, "deficit < 1e-6")
    return report


def run_example_final(seed: int = 7) -> SuiteReport:
    """The four-point cycle: contractive only in the blended sense."""
    report = SuiteReport("ex63")
    scenario = load_scenario("ex63")
    space = scenario.build_space()
    T = scenario.build_map()
    params = MParams(2, 2)
    points = space.carrier.points

    axioms = axiom_check(space, seed=seed)
    report.check("axioms", "space axioms including the strong form",
                 axioms.passed and axioms.strong_verdict,
                 axioms.strong_verdict, True)

    # every pair x < y (a column) at every scale (a row) at once; the 5/7
    # power stays the C library's, element by element
    i, j = np.triu_indices(len(points), 1)
    xs, ys = np.array(points)[i], np.array(points)[j]
    ts = np.array(DEFAULT_T_GRID)[:, None]
    after = space.m(T(xs), T(ys), ts)
    blend = m_value(space, T, params, xs, ys, ts)
    worst_slack = float(np.min(after - _libm_power(blend, 5 / 7)))
    report.check("power-bound",
                 "after-nearness dominates the 5/7 power of the blend on "
                 "all pairs and scales",
                 worst_slack >= -ABS_TOL, worst_slack, ">= 0 up to 1e-12")

    lhs = space.m(T(0.0), T(1.0), 1.0)
    rhs = m_value(space, T, params, 0.0, 1.0, 1.0) ** (5 / 7)
    report.check("spot-pair",
                 "pair (0,1) at scale 1: exp(-5) against exp(-45/7)",
                 abs(lhs - math.exp(-5)) <= ABS_TOL
                 and abs(rhs - math.exp(-45 / 7)) <= 1e-15,
                 {"after": lhs, "bound": rhs},
                 {"after": math.exp(-5), "bound": math.exp(-45 / 7)})

    strictly_below = bool(np.all(space.m(T(0.0), T(1.0), ts)
                                 < space.m(0.0, 1.0, ts)))
    report.check("plain-contraction-fails",
                 "the (0,1) pair strictly loses nearness at every scale",
                 strictly_below, strictly_below, True)

    cfg = scenario.solver_config()
    outcomes = {}
    for x0 in points:
        res = solve_fixed_point(space, T, x0, scenario.route, cfg)
        outcomes[x0] = {"z": res.fixed_point, "iterations": res.iterations,
                        "unique": res.unique}
    report.check("solver-all-starts",
                 "the blended route reaches the unique fixed point 0 from "
                 "every start",
                 all(o["z"] == 0.0 and o["unique"] for o in outcomes.values()),
                 outcomes, "z=0, unique, from all starts")
    report.check("iterations-from-1",
                 "at most 3 applications are needed from start 1",
                 outcomes[1.0]["iterations"] <= 3,
                 outcomes[1.0]["iterations"], "<= 3")
    return report


def run_proposition_suite(seed: int = 7) -> SuiteReport:
    """Class containments, conjugation round trips, and orbit certificates."""
    report = SuiteReport("propositions")

    for p, label in ((0.5, "1/2"), (5 / 7, "5/7"), (0.9, "0.9")):
        g = power_gauge(p)
        in_psi = class_membership(g, ClassTag.PSI).verdict is Verdict.MEMBER
        in_psi1 = class_membership(g, ClassTag.PSI1).verdict is Verdict.MEMBER
        report.check(f"containment-power-{label}",
                     f"power gauge {label}: continuous class implies "
                     "threshold class",
                     in_psi and in_psi1,
                     {"psi": in_psi, "psi1": in_psi1}, "both member")

    rng = np.random.default_rng(seed)
    ss = rng.uniform(0.011, 8.0, 100)
    for phi_spec, phi_label in (("step-phi", "step"), ("power-phi:2", "square")):
        for eta, eta_label in ((eta_reciprocal(), "reciprocal"),
                               (eta_neglog(), "neglog")):
            phi = gauge(phi_spec)
            back = conjugate_gauge(eta, conjugate_gauge(eta, phi))
            worst = float(np.max(np.abs(back(ss) - phi(ss))))
            report.check(f"round-trip-{phi_label}-{eta_label}",
                         f"conjugating {phi_label} twice through "
                         f"{eta_label} returns it at 100 points",
                         worst <= ROUND_TRIP_TOL, worst,
                         f"<= {ROUND_TRIP_TOL}")

    ident = class_membership(identity_gauge(), ClassTag.PSI1)
    report.check("identity-rejected",
                 "the identity gauge is rejected from the threshold class "
                 "with a witness",
                 ident.verdict is Verdict.NON_MEMBER
                 and ident.witness is not None
                 and len(ident.witness.get("taus", [])) > 0,
                 ident.verdict.value, "non_member with witness")

    scenario = load_scenario("ex62")
    space = scenario.build_space()
    T = scenario.build_map()
    trace = picard_orbit(space, T, scenario.x0, max_len=60,
                         t_grid=scenario.t_grid)
    cert = m_cauchy_check(space, trace, scenario.r_grid)
    report.check("orbit-cauchy-certified",
                 "the 60-step orbit prefix is all-pairs certified on the "
                 "scenario grids",
                 cert.holds, cert.verdict.value, "holds_on_prefix")
    return report


def run_all(seed: int = 7) -> dict:
    """Run the three example suites and the proposition suite."""
    suites = [run_example_step_gauge(seed), run_example_mihet_extension(seed),
              run_example_final(seed), run_proposition_suite(seed)]
    return {"seed": seed, "passed": all(s.passed for s in suites),
            "suites": [s.to_dict() for s in suites]}
