"""Tests for t-norms, gauges, conjugation and class certificates."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fuzzyfix.algebra import (
    ClassTag,
    DomainError,
    Gauge,
    GaugeDomain,
    InversionError,
    Verdict,
    _step_phi_fn,
    _step_psi_fn,
    class_membership,
    conjugate_gauge,
    eta_neglog,
    eta_reciprocal,
    eta_reciprocal_t,
    gauge,
    identity_gauge,
    invert_eta,
    power_gauge,
    step_phi,
    step_psi,
    tnorm,
    tnorm_apply,
    tnorm_axiom_check,
)

TOL = 1e-12

unit = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


class TestTNormValues:
    def test_product(self):
        assert tnorm_apply(tnorm("product"), 0.6, 0.5) == pytest.approx(0.3, abs=TOL)

    def test_lukasiewicz_clips_to_zero(self):
        assert tnorm_apply(tnorm("lukasiewicz"), 0.3, 0.4) == 0.0

    def test_hamacher(self):
        # 0.25 / (0.5 + 0.5 - 0.25)
        assert tnorm_apply(tnorm("hamacher"), 0.5, 0.5) == pytest.approx(1 / 3, abs=TOL)

    def test_hamacher_zero_corner(self):
        assert tnorm_apply(tnorm("hamacher"), 0.0, 0.0) == 0.0

    @pytest.mark.parametrize("norm_id", ["product", "minimum", "lukasiewicz", "hamacher"])
    def test_identity_element(self, norm_id):
        n = tnorm(norm_id)
        for a in (0.0, 0.25, 0.7, 1.0):
            assert tnorm_apply(n, a, 1.0) == pytest.approx(a, abs=TOL)

    def test_domain_error(self):
        with pytest.raises(DomainError):
            tnorm_apply(tnorm("product"), 1.2, 0.5)
        with pytest.raises(DomainError):
            tnorm_apply(tnorm("product"), 0.5, -0.1)

    def test_unknown_id(self):
        with pytest.raises(DomainError):
            tnorm("drastic")


class TestTNormAxioms:
    def test_product_all_pass(self):
        report = tnorm_axiom_check(tnorm("product"), samples=1000, seed=3)
        assert report.passed
        assert [r.name for r in report.results] == [
            "identity", "commutativity", "monotonicity", "associativity",
            "positivity"]

    def test_lukasiewicz_positivity_fails_with_witness(self):
        report = tnorm_axiom_check(tnorm("lukasiewicz"), samples=1000, seed=3)
        for name in ("identity", "commutativity", "monotonicity", "associativity"):
            assert report.result(name).passed
        pos = report.result("positivity")
        assert not pos.passed
        w = pos.witness
        assert w["a"] > 0 and w["b"] > 0
        assert max(0.0, w["a"] + w["b"] - 1.0) == 0.0

    def test_clipped_sum_fails_identity(self):
        from fuzzyfix.algebra import TNorm
        clipped = TNorm.custom(lambda a, b: np.minimum(1.0, a + b))
        report = tnorm_axiom_check(clipped, samples=200, seed=1)
        ident = report.result("identity")
        assert not ident.passed
        w = ident.witness
        assert min(1.0, w["a"] + 1.0) != w["a"]  # witness re-evaluates to a violation
        assert report.result("monotonicity").passed

    def test_deterministic_given_seed(self):
        a = tnorm_axiom_check(tnorm("hamacher"), samples=500, seed=11).to_dict()
        b = tnorm_axiom_check(tnorm("hamacher"), samples=500, seed=11).to_dict()
        assert a == b

    @given(a=unit, b=unit)
    @settings(max_examples=100, derandomize=True)
    def test_hamacher_commutes_and_bounded(self, a, b):
        n = tnorm("hamacher")
        v = tnorm_apply(n, a, b)
        assert 0.0 <= v <= 1.0
        assert v == pytest.approx(tnorm_apply(n, b, a), abs=TOL)


class TestStepGauges:
    def test_step_phi_values(self):
        phi = step_phi()
        assert phi.eval(0.5) == pytest.approx(1 / 3, abs=TOL)
        assert phi.eval(2.0) == 1.0
        assert phi.eval(0.0) == 0.0
        assert phi.eval(1.0) == 0.5
        assert phi.eval(0.3) == pytest.approx(0.25, abs=TOL)

    def test_step_phi_below_current_value(self):
        # phi(s) < s on (0, inf): each branch value is the branch's lower edge
        phi = step_phi()
        for s in (0.013, 0.2, 1 / 3, 0.9, 1.0, 5.0):
            assert phi(s) < s

    def test_step_psi_values(self):
        psi = step_psi()
        assert psi.eval(0.3) == 0.5
        assert psi.eval(1.0) == 1.0
        assert psi.eval(0.5) == pytest.approx(2 / 3, abs=TOL)
        assert psi.eval(2 / 3) == pytest.approx(3 / 4, abs=TOL)
        # 0.94 lies in the branch [15/16, 16/17)
        assert psi.eval(0.94) == pytest.approx(16 / 17, abs=TOL)

    def test_step_psi_jump_at_half(self):
        psi = step_psi()
        jump = psi(0.5) - psi(0.5 - 1e-9)
        assert jump == pytest.approx(1 / 6, abs=1e-8)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            step_phi().eval(-0.1)
        with pytest.raises(DomainError):
            step_psi().eval(0.0)
        with pytest.raises(DomainError):
            step_psi().eval(1.5)

    def test_resolver_ids(self):
        assert gauge("step-phi").name == "step-phi"
        assert gauge("power:5/7")(0.5) == pytest.approx(0.5 ** (5 / 7), abs=TOL)
        assert gauge("identity")(0.3) == 0.3
        assert gauge("eta-reciprocal-t:2")(0.5) == pytest.approx(2.0, abs=TOL)
        with pytest.raises(DomainError):
            gauge("nope")


class TestGenerators:
    @pytest.mark.parametrize("eta", [eta_reciprocal(), eta_reciprocal_t(3.0), eta_neglog()])
    def test_analytic_inverse_roundtrip(self, eta):
        for tau in (0.01, 0.2, 0.5, 0.99, 1.0):
            assert invert_eta(eta, eta(tau)) == pytest.approx(tau, abs=1e-12)

    def test_bisection_inverse(self):
        from fuzzyfix.algebra import Gauge
        # same function as eta-reciprocal but without the analytic inverse
        eta = Gauge("custom-eta", GaugeDomain.ETA, lambda t: 1.0 / t - 1.0)
        assert invert_eta(eta, 1.0) == pytest.approx(0.5, abs=1e-10)
        assert invert_eta(eta, 0.0) == pytest.approx(1.0, abs=1e-10)

    def test_bisection_rejects_non_decreasing(self):
        from fuzzyfix.algebra import Gauge
        bad = Gauge("bad-eta", GaugeDomain.ETA, lambda t: t)
        with pytest.raises(InversionError):
            invert_eta(bad, 0.5)

    def test_h_class_certificates(self):
        for eta in (eta_reciprocal(), eta_reciprocal_t(0.5), eta_neglog()):
            assert class_membership(eta, ClassTag.H).is_member

    def test_h_class_rejects_increasing(self):
        from fuzzyfix.algebra import Gauge
        bad = Gauge("bad-eta", GaugeDomain.ETA, lambda t: t)
        cert = class_membership(bad, ClassTag.H)
        assert cert.verdict is Verdict.NON_MEMBER


class TestConjugation:
    # composition oracle, worked by hand:
    #   eta(0.4) = 1.5   -> step-phi gives 1 (branch s > 1) -> eta^-1(1) = 0.5
    #   eta(2/3) = 0.5   -> step-phi gives 1/3              -> eta^-1(1/3) = 3/4
    #   eta(1)   = 0     -> step-phi gives 0                -> eta^-1(0)   = 1
    def test_step_phi_conjugates_pointwise(self):
        psi = conjugate_gauge(eta_reciprocal(), step_phi())
        assert psi.domain is GaugeDomain.PSI
        assert psi(0.4) == pytest.approx(0.5, abs=TOL)
        assert psi(2 / 3) == pytest.approx(0.75, abs=TOL)
        assert psi(1.0) == pytest.approx(1.0, abs=TOL)

    def test_conjugate_matches_step_psi_everywhere(self):
        psi_c = conjugate_gauge(eta_reciprocal(), step_phi())
        psi = step_psi()
        rng = np.random.default_rng(7)
        taus = np.concatenate([rng.uniform(1e-3, 0.999, 200), [0.3, 0.4, 2 / 3, 1.0]])
        for tau in taus:
            assert psi_c(float(tau)) == pytest.approx(psi(float(tau)), abs=1e-12)

    @pytest.mark.parametrize("eta", [eta_reciprocal(), eta_neglog()])
    @pytest.mark.parametrize("phi_id", ["step-phi", "power-phi:2"])
    def test_round_trip(self, eta, phi_id):
        phi = gauge(phi_id)
        back = conjugate_gauge(eta, conjugate_gauge(eta, phi))
        assert back.domain is GaugeDomain.PHI
        # random points stay clear of the step boundaries 1/n, where the
        # identity only holds up to the branch assignment of the float
        ss = np.random.default_rng(5).uniform(0.011, 8.0, 100)
        for s in ss:
            assert back(float(s)) == pytest.approx(phi(float(s)), abs=1e-9)

    def test_psi_to_phi_direction(self):
        phi_c = conjugate_gauge(eta_reciprocal(), step_psi())
        assert phi_c.domain is GaugeDomain.PHI
        # eta^-1(0.5) = 2/3, step-psi(2/3) = 3/4, eta(3/4) = 1/3
        assert phi_c(0.5) == pytest.approx(1 / 3, abs=TOL)

    def test_conjugating_eta_is_an_error(self):
        with pytest.raises(DomainError):
            conjugate_gauge(eta_reciprocal(), eta_neglog())


class TestClassMembership:
    def test_step_psi_in_psi1_with_rho_half_at_third(self):
        cert = class_membership(step_psi(), ClassTag.PSI1, r_grid=[1 / 3])
        assert cert.is_member
        rec = cert.records[0]
        assert rec["rho"] == pytest.approx(0.5, abs=1e-3)

    def test_step_psi_in_psi1_default_grid(self):
        cert = class_membership(step_psi(), ClassTag.PSI1)
        assert cert.is_member
        assert len(cert.records) == 19

    def test_step_psi_not_in_psi(self):
        cert = class_membership(step_psi(), ClassTag.PSI)
        assert cert.verdict is Verdict.NON_MEMBER
        assert cert.witness["reason"] == "discontinuity"
        assert cert.witness["tau"] == 0.5
        assert cert.witness["jump"] == pytest.approx(1 / 6, abs=TOL)

    def test_identity_not_in_psi1_with_witness(self):
        cert = class_membership(identity_gauge(), ClassTag.PSI1, r_grid=[0.5])
        assert cert.verdict is Verdict.NON_MEMBER
        w = cert.witness
        assert w["r"] == 0.5
        for tau, val in zip(w["taus"], w["values"]):
            assert tau < 0.5 and val == tau  # identity stays below the threshold
        # each shrinking interval (0.5 - w, 0.5) reports its first sample
        from fuzzyfix.algebra import _interval_samples
        widths = [0.25 * 2.0 ** -k for k in range(8)]
        assert w["taus"] == [float(_interval_samples(0.5 - d, 0.5, 1e-4)[0])
                             for d in widths]

    def test_power_gauge_in_psi_and_psi1(self):
        g = power_gauge(5 / 7)
        assert class_membership(g, ClassTag.PSI).is_member
        assert class_membership(g, ClassTag.PSI1).is_member

    @pytest.mark.parametrize("p", [0.5, 5 / 7, 0.9])
    def test_psi_members_are_psi1_members(self, p):
        g = power_gauge(p)
        psi_cert = class_membership(g, ClassTag.PSI)
        psi1_cert = class_membership(g, ClassTag.PSI1)
        assert psi_cert.is_member
        assert psi1_cert.is_member

    def test_step_phi_in_phi1(self):
        cert = class_membership(step_phi(), ClassTag.PHI1)
        assert cert.is_member
        # at eps = 0.3 the true largest delta is 1/3; the recorded one may
        # overshoot by at most the sampling resolution
        rec = cert.record_for(0.3)
        assert rec is not None
        assert 0.3 < rec["delta"] <= 1 / 3 + 2e-4

    def test_identity_phi_not_in_phi1(self):
        g = gauge("power-phi:1")
        cert = class_membership(g, ClassTag.PHI1, r_grid=[0.5])
        assert cert.verdict is Verdict.NON_MEMBER

    def test_conjugate_of_phi1_member_is_psi1_member(self):
        psi_c = conjugate_gauge(eta_reciprocal(), step_phi())
        assert class_membership(psi_c, ClassTag.PSI1).is_member

    def test_domain_mismatch_raises(self):
        with pytest.raises(DomainError):
            class_membership(step_phi(), ClassTag.PSI1)
        with pytest.raises(DomainError):
            class_membership(step_psi(), ClassTag.PHI1)

    def test_certificate_serializes(self):
        cert = class_membership(power_gauge(0.5), ClassTag.PSI1, r_grid=[0.2, 0.8])
        d = cert.to_dict()
        assert d["verdict"] == "member"
        assert d["class"] == "psi1"
        assert len(d["records"]) == 2
        assert "grid certificate" in d["note"]


@given(tau=st.floats(min_value=1e-6, max_value=1.0, allow_nan=False))
@settings(max_examples=150, derandomize=True)
def test_step_psi_maps_into_unit_interval(tau):
    v = step_psi()(tau)
    assert 0.0 < v <= 1.0
    assert v >= tau  # nondecreasing step envelope dominates identity


@given(s=st.floats(min_value=0.0, max_value=50.0, allow_nan=False))
@settings(max_examples=150, derandomize=True)
def test_step_phi_maps_into_range(s):
    v = step_phi()(s)
    assert 0.0 <= v <= 1.0
    if s > 0:
        assert v < s or v == pytest.approx(s)  # equality only at float edges


# ---------------------------------------------------------------------------
# the array contract
# ---------------------------------------------------------------------------

def _branch_edges() -> list:
    """Branch edges n/(n+1) and 1/n of the step gauges, each with its two
    neighbouring doubles, plus 0, 1 and the 1e-9 cut of step-phi."""
    ns = list(range(1, 300)) + [10 ** k + d for k in range(3, 16) for d in (-1, 0, 1)]
    edges = [0.0, 1.0, 1e-9, 2.0]
    for n in ns:
        for v in (n / (n + 1), 1 / n):
            edges += [float(np.nextafter(v, 0.0)), v, float(np.nextafter(v, 2.0))]
    return edges


EDGES = _branch_edges()


def _step_psi_loop(tau: float) -> float:
    """step-psi as a per-value loop: (n+1)/(n+2) on n/(n+1) <= tau < (n+1)/(n+2)."""
    if tau == 1.0:
        return 1.0
    if tau < 0.5:
        return 0.5
    n = max(int(tau / (1.0 - tau)), 1)
    for _ in range(4):
        if n > 1 and tau < n / (n + 1.0):
            n -= 1
        elif tau >= (n + 1.0) / (n + 2.0):
            n += 1
        else:
            break
    return (n + 1.0) / (n + 2.0)


def _same_bits(a, b) -> bool:
    return np.array_equal(np.asarray(a, dtype=float).view(np.uint64),
                          np.asarray(b, dtype=float).view(np.uint64))


class TestArrayContract:
    """``Gauge.eval`` on an ndarray equals per-element scalar evaluation."""

    @pytest.mark.parametrize("fn, ref", [(_step_phi_fn, _step_phi_fn),
                                         (_step_psi_fn, _step_psi_loop)])
    def test_step_functions_agree_bit_for_bit_on_edges(self, fn, ref):
        xs = np.array([v for v in EDGES if fn is _step_phi_fn or 0.0 < v <= 1.0])
        assert _same_bits(fn(xs), [ref(float(v)) for v in xs])

    @given(values=st.lists(st.floats(min_value=0.0, max_value=1e3, allow_nan=False)
                           | st.sampled_from(EDGES), min_size=1, max_size=40))
    @settings(max_examples=200, derandomize=True)
    def test_step_phi_branches_agree_bit_for_bit(self, values):
        xs = np.array(values)
        assert _same_bits(_step_phi_fn(xs), [_step_phi_fn(v) for v in values])

    @given(values=st.lists(st.floats(min_value=0.0, max_value=1.0, exclude_min=True)
                           | st.sampled_from(EDGES[1:]), min_size=1, max_size=40))
    @settings(max_examples=200, derandomize=True)
    def test_step_psi_matches_loop_bit_for_bit(self, values):
        xs = np.array(values)
        assert _same_bits(_step_psi_fn(xs), [_step_psi_loop(v) for v in values])
        assert _same_bits([_step_psi_fn(v) for v in values], _step_psi_fn(xs))

    # numpy's vectorised pow, log and exp may differ from the C library's
    # scalar ones in the last bit, so non-step gauges agree within 4 ulp
    @pytest.mark.parametrize("gauge_id", [
        "step-phi", "step-psi", "identity", "power:1/2", "power:5/7",
        "power-phi:2", "eta-reciprocal", "eta-neglog", "eta-reciprocal-t:2",
        "conj:eta-reciprocal:step-phi", "conj:eta-neglog:power:5/7",
        "conj:eta-reciprocal:power-phi:2", "conj:eta-neglog:step-psi"])
    @given(values=st.lists(st.floats(min_value=1e-6, max_value=1.0), min_size=1,
                           max_size=30))
    @settings(max_examples=40, derandomize=True)
    def test_eval_array_matches_scalar(self, gauge_id, values):
        g = gauge(gauge_id)
        xs = np.array(values) * (8.0 if g.domain is GaugeDomain.PHI else 1.0)
        got = g.eval(xs)
        assert isinstance(got, np.ndarray) and got.shape == xs.shape
        eps = np.finfo(float).eps
        for x, v in zip(xs, got):
            scalar = g.eval(float(x))
            assert isinstance(scalar, float)
            assert abs(v - scalar) <= 4 * eps * max(1.0, abs(scalar))

    def test_eval_array_validates_like_scalar(self):
        for g, bad in ((step_psi(), 0.0), (step_psi(), math.nan),
                       (power_gauge(0.5), 1.5), (step_phi(), -0.1)):
            with pytest.raises(DomainError) as scalar_err:
                g.eval(bad)
            with pytest.raises(DomainError) as array_err:
                g.eval(np.array([0.5, bad, 0.7]))
            assert str(array_err.value) == str(scalar_err.value)
        # [0, inf) admits NaN, as the scalar test `v < 0` does
        assert np.isnan(gauge("power-phi:2").eval(np.array([math.nan])))[0]

    def test_bisection_inverse_on_arrays(self):
        eta = Gauge("custom-eta", GaugeDomain.ETA, lambda t: 1.0 / t - 1.0)
        ys = np.array([0.0, 0.25, 1.0, 3.0, 99.0])
        got = invert_eta(eta, ys)
        assert _same_bits(got, [invert_eta(eta, float(y)) for y in ys])
        assert got == pytest.approx(1.0 / (1.0 + ys), abs=1e-10)

    def test_conjugate_through_bisection_inverse_runs_on_arrays(self):
        # eta-reciprocal without its analytic inverse: conjugation bisects
        seen = []

        def fn(t):
            seen.append(t.size if isinstance(t, np.ndarray) else float(t))
            return 1.0 / t - 1.0
        eta = Gauge("eta-no-inverse", GaugeDomain.ETA, fn)
        grid = [0.25, 0.5, 0.75]
        cert = class_membership(conjugate_gauge(eta, step_phi()), ClassTag.PSI1,
                                r_grid=grid)
        ref = class_membership(conjugate_gauge(eta_reciprocal(), step_phi()),
                               ClassTag.PSI1, r_grid=grid)
        assert cert.is_member and ref.is_member
        for got, want in zip(cert.records, ref.records):
            assert got["rho"] == pytest.approx(want["rho"], abs=1e-9)
        # scalar calls only at the bisection bracket; samples arrive as arrays
        assert {v for v in seen if isinstance(v, float)} <= {1e-15, 1.0}
        assert max(v for v in seen if isinstance(v, int)) >= 16

    def test_psi_discontinuity_has_no_per_name_case(self):
        # the generic detector finds the jump of step-psi under any name
        renamed = Gauge("renamed-step", GaugeDomain.PSI, step_psi().fn)
        cert = class_membership(renamed, ClassTag.PSI)
        assert cert.witness == {"reason": "discontinuity", "tau": 0.5,
                                "jump": 0.16666666666666663}
        assert cert.witness == class_membership(step_psi(), ClassTag.PSI).witness

    @pytest.mark.parametrize("resolution", [7e-4, 1.1e-4, 3e-3, 1.1e-2])
    def test_psi_discontinuity_off_grid_is_first_sample_past_the_jump(
            self, resolution):
        # 1/2 is no sample of these grids: the witness is the first sample
        # above it, and the jump is still 2/3 - 1/2
        cert = class_membership(step_psi(), ClassTag.PSI,
                                tau_resolution=resolution)
        taus = np.arange(resolution, 1.0, resolution)
        assert 0.5 not in taus
        assert cert.witness == {"reason": "discontinuity",
                                "tau": float(taus[taus > 0.5][0]),
                                "jump": 0.16666666666666663}


def _loop_continuity_witness(g, resolution):
    """The continuity proxy of the psi check as a per-increment loop."""
    taus = np.arange(resolution, 1.0, resolution)
    diffs = np.diff(g.eval(taus))
    macro = 10.0 * resolution * max(1.0, float(np.median(diffs)) / resolution)
    for i in range(1, len(diffs) - 1):
        d = diffs[i]
        if d > macro and d > 8.0 * max(diffs[i - 1], diffs[i + 1], resolution):
            return {"reason": "discontinuity", "tau": float(taus[i + 1]),
                    "jump": float(d)}
    return None


@given(jumps=st.lists(st.tuples(st.integers(min_value=495, max_value=505),
                                st.floats(min_value=1e-4, max_value=0.2)),
                      max_size=4))
@settings(max_examples=80, derandomize=True)
def test_continuity_scan_matches_loop(jumps):
    # 0.5 + t/2 stays above the identity, and added upward steps keep it
    # nondecreasing; steps at nearby grid points exercise both neighbours
    # of the 8x rule
    res = 1e-3

    def fn(t):
        steps = sum(size * np.greater_equal(t, k * res) for k, size in jumps)
        return np.minimum(1.0, 0.5 + 0.5 * t + steps)
    g = Gauge("stepped", GaugeDomain.PSI, fn)
    cert = class_membership(g, ClassTag.PSI, tau_resolution=res)
    assert cert.witness == _loop_continuity_witness(g, res)
