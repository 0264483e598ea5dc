"""Tests for the contraction classifiers and empirical gauge extraction."""

import math

import numpy as np
import pytest

from fuzzyfix.algebra import (
    ClassTag,
    DomainError,
    Verdict,
    conjugate_gauge,
    eta_reciprocal,
    gauge,
    identity_gauge,
    step_phi,
    step_psi,
)
from fuzzyfix.contractions import (
    CheckStatus,
    MParams,
    PreconditionError,
    SelfMap,
    _carrier_pairs,
    cm_contractive_check,
    equivalence_probe,
    extract_empirical_gauge,
    m_contractive_check,
    m_value,
    psi_contractive_check,
    self_map,
    table_map,
)
from fuzzyfix.spaces import (
    Carrier,
    exponential_fuzzy_metric,
    metric,
    standard_fuzzy_metric,
)

TOL = 1e-12


@pytest.fixture
def quad_space():
    # {0,1,2,5} with exponential nearness over |x-y| and the product t-norm
    return exponential_fuzzy_metric(Carrier.finite([0, 1, 2, 5]),
                                    metric("euclidean"))


@pytest.fixture
def perm_map():
    return self_map("perm-0-1-2-5")


@pytest.fixture
def ray_space():
    # [0,10] sampled at step 0.05, max-of-the-pair base metric
    return standard_fuzzy_metric(Carrier.interval(0, 10, 201),
                                 metric("max-jachymski"))


@pytest.fixture
def step_map():
    return self_map("phi-step")


SMALL_T = (0.5, 1.0, 2.0, 10.0)
SMALL_R = (0.1, 0.3, 0.5, 0.7, 0.9)


class TestSelfMaps:
    def test_perm_table(self, perm_map):
        assert [perm_map(x) for x in (0, 1, 2, 5)] == [0, 5, 0, 2]

    def test_table_map_requires_full_cover(self):
        with pytest.raises(DomainError, match="missing the image"):
            table_map({0: 0, 1: 5, 2: 0}, Carrier.finite([0, 1, 2, 5]))

    def test_image_must_stay_in_carrier(self):
        t = table_map({0: 7, 1: 0}, name="bad")
        with pytest.raises(DomainError, match="outside the carrier"):
            t.apply(0, Carrier.finite([0, 1]))

    def test_const_and_identity(self):
        assert self_map("const:2")(5.0) == 2.0
        assert self_map("identity")(0.3) == 0.3

    def test_unknown_id(self):
        with pytest.raises(DomainError):
            self_map("rot13")


class TestMValue:
    def test_quad_blend_at_unit_scale(self, quad_space, perm_map):
        # M(0,1,1)=e^-1, M(0,T0,1)=1, M(1,T1,1)=M(1,5,1)=e^-4
        # blend with alpha=beta=2: e^-1 * 1 * (e^-4)^2 = e^-9
        v = m_value(quad_space, perm_map, MParams(2, 2), 0, 1, 1.0)
        assert v == pytest.approx(math.exp(-9), rel=1e-14)

    def test_zero_exponents_reduce_to_nearness(self, quad_space, perm_map):
        for (x, y) in [(0, 1), (1, 5), (2, 5)]:
            for t in SMALL_T:
                assert m_value(quad_space, perm_map, MParams(0, 0), x, y, t) \
                    == pytest.approx(quad_space.m_scalar(x, y, t), abs=TOL)

    def test_fixed_point_blend_is_one(self, quad_space, perm_map):
        for t in SMALL_T:
            assert m_value(quad_space, perm_map, MParams(2, 2), 0, 0, t) == 1.0

    def test_requires_positive_scale(self, quad_space, perm_map):
        with pytest.raises(DomainError):
            m_value(quad_space, perm_map, MParams(1, 1), 0, 1, 0.0)

    def test_negative_exponent_rejected(self):
        with pytest.raises(DomainError):
            MParams(-1, 0)


class TestPsiContractive:
    def test_perm_map_violates_any_gauge(self, quad_space, perm_map):
        # the (0,1) pair maps to (0,5): e^(-5/t) < e^(-1/t) at every scale
        report = psi_contractive_check(quad_space, perm_map,
                                       gauge("power:5/7"), t_grid=SMALL_T)
        cond1 = report.condition("strict-improvement")
        assert cond1.status is CheckStatus.VIOLATED
        w = cond1.witness
        assert (w["x"], w["y"]) == (0.0, 1.0)
        assert w["after"] < w["before"]
        assert report.status is CheckStatus.VIOLATED

    def test_identity_map_fails_strictness(self, quad_space):
        report = psi_contractive_check(quad_space, self_map("identity"),
                                       identity_gauge(), t_grid=SMALL_T)
        assert report.condition("strict-improvement").status is CheckStatus.VIOLATED
        # while the weak gauge bound with psi = identity still holds
        assert report.condition("gauge-bound").status is CheckStatus.SATISFIED

    def test_step_map_with_conjugated_gauge_at_unit_scale(self, ray_space, step_map):
        psi1 = conjugate_gauge(eta_reciprocal(), step_phi())
        report = psi_contractive_check(ray_space, step_map, psi1, t_grid=[1.0])
        assert report.satisfied, report.to_dict()

    def test_witness_reevaluates(self, quad_space, perm_map):
        report = psi_contractive_check(quad_space, perm_map,
                                       gauge("power:5/7"), t_grid=SMALL_T)
        w = report.condition("strict-improvement").witness
        before = quad_space.m_scalar(w["x"], w["y"], w["t"])
        after = quad_space.m_scalar(perm_map(w["x"]), perm_map(w["y"]), w["t"])
        assert after <= before
        assert before == pytest.approx(w["before"], abs=TOL)
        assert after == pytest.approx(w["after"], abs=TOL)


class TestCmContractive:
    def test_step_map_satisfied_with_recorded_rho(self, ray_space, step_map):
        report = cm_contractive_check(ray_space, step_map, r_grid=SMALL_R,
                                      t_grid=SMALL_T)
        assert report.satisfied, report.to_dict()
        recs = [r for r in report.condition("threshold-implication").records
                if r["t"] == 1.0 and r["r"] == 0.5]
        assert recs and recs[0]["rho"] is not None
        assert 0.5 < recs[0]["rho"] < 1.0

    def test_perm_map_violated_via_strictness(self, quad_space, perm_map):
        report = cm_contractive_check(quad_space, perm_map, r_grid=SMALL_R,
                                      t_grid=SMALL_T)
        assert report.status is CheckStatus.VIOLATED
        w = report.condition("strict-improvement").witness
        assert (w["x"], w["y"]) == (0.0, 1.0)

    def test_constant_map_satisfied(self, quad_space):
        report = cm_contractive_check(quad_space, self_map("const:2"),
                                      r_grid=SMALL_R, t_grid=SMALL_T)
        assert report.satisfied, report.to_dict()

    def test_onesided_form(self, ray_space, step_map):
        report = cm_contractive_check(ray_space, step_map, r_grid=SMALL_R,
                                      t_grid=[1.0], form="onesided")
        assert report.satisfied

    def test_psi_contractive_implies_cm(self, ray_space, step_map, quad_space):
        # any map passing the gauge form with a certified gauge also passes
        # the threshold-implication form on the same grids
        psi1 = conjugate_gauge(eta_reciprocal(), step_phi())
        psi_rep = psi_contractive_check(ray_space, step_map, psi1, t_grid=[1.0])
        cm_rep = cm_contractive_check(ray_space, step_map, r_grid=SMALL_R,
                                      t_grid=[1.0])
        assert psi_rep.satisfied and cm_rep.satisfied
        const_psi = psi_contractive_check(quad_space, self_map("const:2"),
                                          gauge("power:0.5"), t_grid=SMALL_T)
        const_cm = cm_contractive_check(quad_space, self_map("const:2"),
                                        r_grid=SMALL_R, t_grid=SMALL_T)
        assert const_psi.condition("gauge-bound").status is CheckStatus.SATISFIED
        assert const_cm.condition("threshold-implication").status \
            is CheckStatus.SATISFIED


class TestMContractive:
    def test_quad_example_with_five_sevenths_gauge(self, quad_space, perm_map):
        report = m_contractive_check(quad_space, perm_map, MParams(2, 2),
                                     psi=gauge("power:5/7"), t_grid=SMALL_T)
        assert report.satisfied, report.to_dict()
        assert report.details["tightest_margin"] >= 0.0

    def test_hand_computed_pair_at_unit_scale(self, quad_space, perm_map):
        # pair (0,1), t=1: after = e^-5, blend^(5/7) = e^(-45/7)
        after = quad_space.m_scalar(0, 5, 1.0)
        blend = m_value(quad_space, perm_map, MParams(2, 2), 0, 1, 1.0)
        assert after == pytest.approx(math.exp(-5), abs=TOL)
        assert blend ** (5 / 7) == pytest.approx(math.exp(-45 / 7), rel=1e-12)
        assert after >= blend ** (5 / 7)

    def test_search_form_finds_rho_n(self, quad_space, perm_map):
        report = m_contractive_check(quad_space, perm_map, MParams(2, 2),
                                     t_grid=(1.0, 10.0), r_grid=(0.3, 0.6))
        assert report.satisfied, report.to_dict()
        for rec in report.condition("iterate-threshold-implication").records:
            assert rec["rho"] > rec["r"]

    def test_underflowed_blend_bounded_at_smallest_double(self, quad_space,
                                                           perm_map):
        # at t = 0.01 the blend of (0, 1) underflows to 0, outside the
        # domain (0,1] of step-psi; the bound is read at the smallest double
        params = MParams(2, 2)
        assert m_value(quad_space, perm_map, params, 0.0, 1.0, 0.01) == 0.0
        report = m_contractive_check(quad_space, perm_map, params,
                                     psi=step_psi(), t_grid=(0.01, 1.0))
        cond = report.condition("gauge-bound-over-blend")
        assert cond.status is CheckStatus.VIOLATED
        w = cond.witness
        assert (w["x"], w["y"], w["t"], w["bound"]) == (0.0, 1.0, 0.01, 0.5)
        assert w["bound"] == step_psi().eval(float(np.nextafter(0.0, 1.0)))
        assert w["after"] == quad_space.m_scalar(0.0, 5.0, 0.01)
        assert w["after"] < w["bound"]

    def test_strict_improvement_witness_keys(self, quad_space):
        # identity improves nothing: both strictness conditions fail, each
        # naming its premise the way reports always have
        T = self_map("identity")
        plain = psi_contractive_check(quad_space, T, identity_gauge(), SMALL_T)
        blend = m_contractive_check(quad_space, T, MParams(1, 1),
                                    t_grid=SMALL_T, r_grid=SMALL_R)
        w = plain.condition("strict-improvement").witness
        assert list(w) == ["x", "y", "t", "before", "after"]
        assert w["before"] == w["after"]
        w = blend.condition("strict-improvement-over-blend").witness
        assert list(w) == ["x", "y", "t", "after", "blend"]
        assert w["blend"] == w["after"]

    def test_zero_exponents_agree_with_onesided_cm(self, quad_space):
        T = self_map("const:0")
        a = m_contractive_check(quad_space, T, MParams(0, 0),
                                t_grid=SMALL_T, r_grid=SMALL_R)
        b = cm_contractive_check(quad_space, T, r_grid=SMALL_R,
                                 t_grid=SMALL_T, form="onesided")
        assert a.satisfied == b.satisfied


class TestEmpiricalGauge:
    def test_identity_envelope_is_identity_on_samples(self, quad_space):
        emp = extract_empirical_gauge(quad_space, self_map("identity"), t=1.0,
                                      certify=False)
        for f in emp.F:
            assert emp.envelope_at(float(f)) == pytest.approx(float(f), abs=TOL)

    def test_identity_envelope_rejected_on_dense_samples(self, ray_space):
        # with densely sampled pairs the envelope hugs the identity, which
        # the threshold-improvement class rejects
        emp = extract_empirical_gauge(ray_space, self_map("identity"), t=1.0,
                                      r_grid=SMALL_R)
        assert emp.certificate.verdict is Verdict.NON_MEMBER

    def test_envelope_dominates_own_samples(self, quad_space, perm_map):
        emp = extract_empirical_gauge(quad_space, perm_map, t=1.0)
        assert emp.dominates_samples()

    def test_envelope_monotone(self, quad_space, perm_map):
        emp = extract_empirical_gauge(quad_space, perm_map, t=1.0)
        taus = np.linspace(0.01, 1.0, 97)
        vals = [emp.envelope_at(float(t)) for t in taus]
        assert all(b >= a - TOL for a, b in zip(vals, vals[1:]))

    def test_ray_envelope_pinned_at_half(self, ray_space, step_map):
        # pairs (1, 1+d/2): before-nearness 1/(2+d/2), after-nearness 1/2;
        # every after-value is at least 1/2, so the envelope is exactly 1/2
        # at these before-values
        deltas = [1.0, 0.5, 0.1, 0.01]
        pairs = [(1.0, 1.0 + d / 2) for d in deltas]
        pairs += [(float(x), float(y)) for x in np.linspace(0, 10, 41)
                  for y in np.linspace(0, 10, 41) if x < y]
        emp = extract_empirical_gauge(ray_space, step_map, t=1.0, pairs=pairs,
                                      certify=False)
        for d in deltas:
            tau = 1.0 / (2.0 + d / 2.0)
            assert emp.envelope_at(tau) == 0.5

    def test_ray_envelope_not_continuous_class(self, ray_space, step_map):
        from fuzzyfix.algebra import class_membership
        emp = extract_empirical_gauge(ray_space, step_map, t=1.0,
                                      r_grid=SMALL_R)
        assert emp.certificate.verdict is Verdict.MEMBER  # threshold class
        cert = class_membership(emp.envelope, ClassTag.PSI)
        assert cert.verdict is Verdict.NON_MEMBER
        assert cert.witness["reason"] == "discontinuity"

    def test_blended_envelope_dominates_power_gauge(self, quad_space, perm_map):
        emp = extract_empirical_gauge(quad_space, perm_map,
                                      f_kind="m_generalized", t=1.0,
                                      params=MParams(2, 2), certify=False)
        for f in sorted(set(float(v) for v in emp.F)):
            assert emp.envelope_at(f) >= f ** (5 / 7) - TOL


class TestEquivalenceProbe:
    def test_step_map_uniform_rho_exists(self, ray_space, step_map):
        report = equivalence_probe(ray_space, step_map, r_grid=SMALL_R,
                                   t_grid=SMALL_T)
        assert report.pointwise_satisfied
        assert report.uniform_satisfied
        for rec in report.uniform:
            assert rec["rho"] > rec["r"]

    def test_identity_fails_pointwise(self, ray_space):
        report = equivalence_probe(ray_space, self_map("identity"),
                                   r_grid=SMALL_R, t_grid=SMALL_T)
        assert not report.pointwise_satisfied

    def test_constant_map_satisfies_everything(self, quad_space):
        report = equivalence_probe(quad_space, self_map("const:5"),
                                   r_grid=SMALL_R, t_grid=SMALL_T)
        assert report.pointwise_satisfied
        assert report.uniform_satisfied
        for cert in report.envelope_certs:
            assert cert["verdict"] == "member"

    def test_envelopes_come_from_the_probe_samples(self, ray_space, step_map):
        images = []

        def counted(x):
            images.append(x)
            return step_map(x)
        report = equivalence_probe(ray_space, SelfMap("counted", counted),
                                   r_grid=SMALL_R, t_grid=SMALL_T)
        # each distinct point of the pair sample is mapped once, not per scale
        xs, ys, _ = _carrier_pairs(ray_space.carrier)
        assert len(images) == len(np.unique(xs)) + len(np.unique(ys))
        for entry in report.envelope_certs:
            emp = extract_empirical_gauge(ray_space, step_map, t=entry["t"],
                                          r_grid=SMALL_R)
            assert entry["verdict"] == emp.certificate.verdict.value

    def test_decreasing_map_rejected(self, quad_space, perm_map):
        with pytest.raises(PreconditionError) as exc:
            equivalence_probe(quad_space, perm_map, r_grid=SMALL_R,
                              t_grid=SMALL_T)
        assert exc.value.witness["x"] == 0.0
        assert exc.value.witness["y"] == 1.0
