"""Tests for t-norms, gauges, conjugation and class certificates."""

import json
import math
import re
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from fuzzyfix import algebra
from fuzzyfix.algebra import (
    AxiomResult,
    ClassTag,
    DomainError,
    Gauge,
    GaugeDomain,
    MAX_DENSE_TAU_SAMPLES,
    TNorm,
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
)
from fuzzyfix.defaults import BISECT_ITERS, CLASS_TOL, ENDPOINT_CLAMP

TOL = 1e-12

unit = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)

BUILTIN_NORMS = ("product", "minimum", "lukasiewicz", "hamacher")
# Probe points guarantee reproducible witnesses independent of the seed.
PROBE = tuple(i / 10 for i in range(11))


class TestTNormValues:
    def test_product(self):
        assert tnorm("product").apply(0.6, 0.5) == pytest.approx(0.3, abs=TOL)

    def test_lukasiewicz_clips_to_zero(self):
        assert tnorm("lukasiewicz").apply(0.3, 0.4) == 0.0

    def test_hamacher(self):
        # 0.25 / (0.5 + 0.5 - 0.25)
        assert tnorm("hamacher").apply(0.5, 0.5) == pytest.approx(1 / 3, abs=TOL)

    def test_hamacher_zero_corner(self):
        assert tnorm("hamacher").apply(0.0, 0.0) == 0.0

    @pytest.mark.parametrize("norm_id", ["product", "minimum", "lukasiewicz", "hamacher"])
    def test_identity_element(self, norm_id):
        n = tnorm(norm_id)
        for a in (0.0, 0.25, 0.7, 1.0):
            assert n.apply(a, 1.0) == pytest.approx(a, abs=TOL)

    def test_unknown_id(self):
        with pytest.raises(DomainError):
            tnorm("drastic")


class TestTNormAxioms:
    @pytest.mark.parametrize("norm_id", BUILTIN_NORMS)
    @pytest.mark.parametrize("seed", [0, 4])
    def test_builtin_norms_satisfy_the_axioms(self, norm_id, seed):
        results = _tuple_loop_check(tnorm(norm_id), 3000, seed)
        assert [r.name for r in results] == [
            "identity", "commutativity", "monotonicity", "associativity",
            "positivity"]
        # positivity (a, b > 0 gives T(a, b) > 0) is no t-norm axiom, and
        # the Lukasiewicz t-norm lacks it
        failed = [r.name for r in results if not r.passed]
        assert failed == (["positivity"] if norm_id == "lukasiewicz" else [])

    def test_lukasiewicz_positivity_fails_with_witness(self):
        pos = _tuple_loop_check(tnorm("lukasiewicz"), 1000, 3)[-1]
        assert not pos.passed
        w = pos.witness
        assert w["a"] > 0 and w["b"] > 0
        assert max(0.0, w["a"] + w["b"] - 1.0) == 0.0

    @given(a=unit, b=unit)
    @settings(max_examples=100, derandomize=True)
    def test_hamacher_commutes_and_bounded(self, a, b):
        n = tnorm("hamacher")
        v = n.apply(a, b)
        assert 0.0 <= v <= 1.0
        assert v == pytest.approx(n.apply(b, a), abs=TOL)


def _box(v, lo, hi):
    return (lo < v) & (v < hi)


def _late_failing_norm(a, b):
    """The product, spoilt on small boxes between the probe values, so that
    only seeded tuples fail: one box breaks commutativity, monotonicity and
    associativity, one positivity and one identity."""
    out = a * b + 0.01 * (_box(a, 0.91, 0.95) & _box(b, 0.01, 0.05))
    out = out - out * (_box(a, 0.61, 0.65) & _box(b, 0.61, 0.65))
    return out + 0.01 * (_box(a, 0.41, 0.45) & (b == 1.0))


_CONTRACT_NORMS = {**{name: (lambda name=name: tnorm(name))
                      for name in BUILTIN_NORMS},
                   "spoilt-product": lambda: replace(TNorm.product(),
                                                     fn=_late_failing_norm)}


@pytest.mark.parametrize("name", sorted(_CONTRACT_NORMS))
def test_tnorm_result_type_follows_the_arguments(name):
    norm = _CONTRACT_NORMS[name]()
    a, b = 0.3, 0.8
    scalar = norm.apply(a, b)
    assert type(scalar) is float
    assert type(norm.apply(np.float64(a), b)) is float
    zero_d = norm.apply(np.array(a), np.array(b))
    assert isinstance(zero_d, np.ndarray) and zero_d.shape == ()
    assert zero_d.dtype == np.float64
    mixed = norm.apply(a, np.array(b))
    assert isinstance(mixed, np.ndarray) and mixed.shape == ()
    grid = norm.apply(np.array([[a], [b], [a]]), np.array([b, a]))
    assert grid.dtype == np.float64 and grid.shape == (3, 2)
    assert _same_bits(zero_d, scalar) and _same_bits(mixed, scalar)
    assert _same_bits(grid[0, 0], scalar) and _same_bits(grid[2, 0], scalar)
    assert _same_bits(grid[1, 1], norm.apply(b, a))


def _tuple_loop_check(norm, samples, seed, tol=1e-9):
    """The t-norm axioms, one scalar t-norm call per value, on the probe
    tuples and then ``samples`` seeded random tuples; each failing axiom
    keeps the first failing tuple as its witness."""
    rng = np.random.default_rng(seed)
    pairs = [(a, b) for a in PROBE for b in PROBE]
    pairs += [tuple(v) for v in rng.random((samples, 2))]
    triples = [(a, b, c) for a in PROBE[::2] for b in PROBE[::2]
               for c in PROBE[::2]]
    triples += [tuple(v) for v in rng.random((samples, 3))]
    identity = AxiomResult("identity", True)
    comm = AxiomResult("commutativity", True)
    mono = AxiomResult("monotonicity", True)
    assoc = AxiomResult("associativity", True)
    pos = AxiomResult("positivity", True)
    for a, b in pairs:
        va = float(norm.apply(a, 1.0))
        if identity.passed and abs(va - a) > tol:
            identity.passed = False
            identity.witness = {"a": a, "value": va}
        ab = float(norm.apply(a, b))
        ba = float(norm.apply(b, a))
        if comm.passed and abs(ab - ba) > tol:
            comm.passed = False
            comm.witness = {"a": a, "b": b, "ab": ab, "ba": ba}
        if pos.passed and a > 0 and b > 0 and ab <= 0.0:
            pos.passed = False
            pos.witness = {"a": a, "b": b, "value": ab}
    for a, b, c in triples:
        lo, hi = min(a, c), max(a, c)
        if mono.passed and float(norm.apply(lo, b)) > float(norm.apply(hi, b)) + tol:
            mono.passed = False
            mono.witness = {"a": lo, "c": hi, "b": b}
        left = float(norm.apply(norm.apply(a, b), c))
        right = float(norm.apply(a, norm.apply(b, c)))
        if assoc.passed and abs(left - right) > tol:
            assoc.passed = False
            assoc.witness = {"a": a, "b": b, "c": c, "left": left,
                             "right": right}
    return [identity, comm, mono, assoc, pos]


def test_the_tuple_loop_sees_late_failures():
    # every axiom fails, and only past the 121 probe pairs
    results = _tuple_loop_check(_CONTRACT_NORMS["spoilt-product"](), 3000, 0)
    assert not any(r.passed for r in results)
    assert 0.41 < results[0].witness["a"] < 0.45


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


_GENERATOR_IDS = ["eta-reciprocal", "eta-reciprocal-t:2",
                  "eta-reciprocal-t:1/3", "eta-neglog"]


def _docstring_id_forms():
    """Every id form that ``gauge``'s docstring names, with its placeholders
    filled: numbers for parameters, each generator for ``<eta-id>`` and a
    phi-style and a psi-style gauge for ``<gauge-id>``."""
    fills = {"<p>": ["1/2"], "<t>": ["2"], "<eta-id>": _GENERATOR_IDS,
             "<gauge-id>": ["step-phi", "power:5/7"]}
    forms = re.findall(r"``([^`]+)``", gauge.__doc__)
    assert len(forms) >= 10
    ids = []
    for form in forms:
        expanded = [form]
        for slot, values in fills.items():
            expanded = [e.replace(slot, v, 1) for e in expanded
                        for v in (values if slot in e else values[:1])]
        ids += expanded
    return list(dict.fromkeys(ids))


@pytest.mark.parametrize("gauge_id", _docstring_id_forms())
def test_every_documented_gauge_id_parses_and_evaluates(gauge_id):
    g = gauge(gauge_id)
    value = g.eval(0.5)
    assert math.isfinite(value) and value >= 0.0
    if gauge_id.startswith("conj:"):
        # the generator id ends at its parameter, the gauge id takes the rest
        _, rest = gauge_id.split(":", 1)
        eta_id = next(e for e in _GENERATOR_IDS if rest.startswith(e + ":"))
        inner = gauge(rest[len(eta_id) + 1:])
        assert value == conjugate_gauge(gauge(eta_id), inner).eval(0.5)


def test_conjugation_through_a_parameterised_generator():
    # eta(tau) = 2/tau - 2: eta(1/2) = 2, step-phi(2) = 1, eta^-1(1) = 2/3
    psi = gauge("conj:eta-reciprocal-t:2:step-phi")
    assert psi.name == "conj(eta-reciprocal-t:2.0,step-phi)"
    assert psi.eval(0.5) == pytest.approx(2 / 3, abs=TOL)
    for bad in ("conj:eta-reciprocal-t:2", "conj:eta-reciprocal-t:x:step-phi",
                "conj:eta-reciprocal-t"):
        with pytest.raises(DomainError):
            gauge(bad)


class TestGenerators:
    @pytest.mark.parametrize("eta", [eta_reciprocal(), eta_reciprocal_t(3.0), eta_neglog()])
    def test_analytic_inverse_roundtrip(self, eta):
        for tau in (0.01, 0.2, 0.5, 0.99, 1.0):
            assert invert_eta(eta, eta(tau)) == pytest.approx(tau, abs=1e-12)

    def test_generator_without_inverse_is_refused(self):
        # same function as eta-reciprocal but with no declared inverse
        eta = Gauge("custom-eta", GaugeDomain.ETA, lambda t: 1.0 / t - 1.0)
        for y in (1.0, np.array([0.0, 1.0])):
            with pytest.raises(DomainError, match="declares no inverse"):
                invert_eta(eta, y)
        psi = conjugate_gauge(eta, step_phi())
        with pytest.raises(DomainError, match="declares no inverse"):
            psi.eval(0.5)
        with pytest.raises(DomainError, match="declares no inverse"):
            class_membership(psi, ClassTag.PSI1)

    def test_h_class_certificates(self):
        for eta in (eta_reciprocal(), eta_reciprocal_t(0.5), eta_neglog()):
            assert class_membership(eta, ClassTag.H).verdict is Verdict.MEMBER

    def test_h_class_rejects_increasing(self):
        from fuzzyfix.algebra import Gauge
        bad = Gauge("bad-eta", GaugeDomain.ETA, lambda t: t)
        cert = class_membership(bad, ClassTag.H)
        assert cert.verdict is Verdict.NON_MEMBER

    @pytest.mark.parametrize("fn, verdict, witness", [
        (lambda t: 1.0 / t, Verdict.NON_MEMBER,
         {"reason": "eta(1) != 0", "value": 1.0}),
        (lambda t: 1.0 - t, Verdict.INCONCLUSIVE,
         {"reason": "unbounded growth not evident at resolution",
          "value_at_min_tau": 1.0 - 1e-4})],
        ids=["reciprocal", "linear"])
    def test_h_class_shape_beyond_decrease(self, fn, verdict, witness):
        # both decrease strictly: 1/t misses eta(1) = 0, and 1 - t is
        # bounded near 0, which no sample can tell from slow growth
        cert = class_membership(Gauge("eta", GaugeDomain.ETA, fn), ClassTag.H)
        assert (cert.verdict, cert.witness) == (verdict, witness)


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
        assert cert.verdict is Verdict.MEMBER
        rec = cert.records[0]
        assert rec["rho"] == pytest.approx(0.5, abs=1e-3)

    def test_step_psi_in_psi1_default_grid(self):
        cert = class_membership(step_psi(), ClassTag.PSI1)
        assert cert.verdict is Verdict.MEMBER
        assert len(cert.records) == 19

    def test_decreasing_gauge_not_in_psi(self):
        g = Gauge("fall", GaugeDomain.PSI, lambda t: 1.0 - t / 2)
        cert = class_membership(g, ClassTag.PSI)
        assert cert.verdict is Verdict.NON_MEMBER
        w = cert.witness
        assert (w["reason"], w["tau"], w["next_tau"]) == (
            "not nondecreasing", 1e-4, 2e-4)
        assert w["values"] == [g(w["tau"]), g(w["next_tau"])]
        assert w["values"][1] < w["values"][0]

    @pytest.mark.parametrize("resolution", [1e-4, 0.02])
    def test_step_psi_not_in_psi(self, resolution):
        cert = class_membership(step_psi(), ClassTag.PSI,
                                tau_resolution=resolution)
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
        from fuzzyfix.algebra import _ragged, _sample_counts

        def first_sample(lo, hi):
            width = np.array([hi - lo])
            k = _sample_counts(width, 1e-4)
            taus, _ = _ragged(np.array([lo]), width / k, k)
            return float(taus[0])
        widths = [0.25 * 2.0 ** -k for k in range(8)]
        assert w["taus"] == [first_sample(0.5 - d, 0.5) for d in widths]

    def test_power_gauge_in_psi_and_psi1(self):
        g = power_gauge(5 / 7)
        assert class_membership(g, ClassTag.PSI).verdict is Verdict.MEMBER
        assert class_membership(g, ClassTag.PSI1).verdict is Verdict.MEMBER

    @pytest.mark.parametrize("p", [0.5, 5 / 7, 0.9])
    def test_psi_members_are_psi1_members(self, p):
        g = power_gauge(p)
        psi_cert = class_membership(g, ClassTag.PSI)
        psi1_cert = class_membership(g, ClassTag.PSI1)
        assert psi_cert.verdict is Verdict.MEMBER
        assert psi1_cert.verdict is Verdict.MEMBER

    def test_step_phi_in_phi1(self):
        cert = class_membership(step_phi(), ClassTag.PHI1)
        assert cert.verdict is Verdict.MEMBER
        # at eps = 0.3 the true largest delta is 1/3; the recorded one may
        # overshoot by at most the sampling resolution
        rec = next(r for r in cert.records if r["epsilon"] == 0.3)
        assert 0.3 < rec["delta"] <= 1 / 3 + 2e-4

    def test_identity_phi_not_in_phi1(self):
        g = gauge("power-phi:1")
        cert = class_membership(g, ClassTag.PHI1, r_grid=[0.5])
        assert cert.verdict is Verdict.NON_MEMBER

    def test_conjugate_of_phi1_member_is_psi1_member(self):
        psi_c = conjugate_gauge(eta_reciprocal(), step_phi())
        assert class_membership(psi_c, ClassTag.PSI1).verdict is Verdict.MEMBER

    @pytest.mark.parametrize("resolution", [0.5, 0.7, 2.0, math.nan])
    @pytest.mark.parametrize("g, tag", [(step_psi(), ClassTag.PSI),
                                        (power_gauge(5 / 7), ClassTag.PSI1),
                                        (step_phi(), ClassTag.PHI1),
                                        (eta_neglog(), ClassTag.H)])
    def test_tau_grid_of_fewer_than_two_samples_raises(self, g, tag,
                                                       resolution):
        # one tau sample or none is no evidence for any verdict
        with pytest.raises(DomainError, match="tau_resolution"):
            class_membership(g, tag, tau_resolution=resolution)

    @pytest.mark.parametrize("g, tag", [(identity_gauge(), ClassTag.PSI1),
                                        (power_gauge(0.5), ClassTag.PSI1),
                                        (step_phi(), ClassTag.PHI1)])
    def test_empty_threshold_grid_raises(self, g, tag):
        # no thresholds give no records, and no records are no evidence
        with pytest.raises(DomainError, match="at least one threshold"):
            class_membership(g, tag, r_grid=[])

    @pytest.mark.parametrize("g, tag", [(power_gauge(0.5), ClassTag.PSI),
                                        (eta_neglog(), ClassTag.H)])
    def test_dense_grid_beyond_the_sample_cap_raises(self, g, tag):
        for resolution in (1e-300, 5e-324, 0.5 / MAX_DENSE_TAU_SAMPLES):
            with pytest.raises(DomainError, match="tau samples"):
                class_membership(g, tag, tau_resolution=resolution)

    @settings(max_examples=300, derandomize=True)
    @given(st.floats(min_value=1e-6, max_value=3.0)
           | st.sampled_from((1e-4, 7e-4, 1.1e-4, 3e-3, 1.1e-2, 0.01, 0.02,
                              0.45, 0.5, 0.7, 1.0, 1e-6)))
    def test_fewer_than_two_tau_samples_is_the_grid_length(self, resolution):
        # the gauge raises at its first evaluation, which only an accepted
        # resolution reaches
        class Evaluated(Exception):
            pass

        def fn(tau):
            raise Evaluated
        few = len(np.arange(resolution, 1.0, resolution)) < 2
        with pytest.raises(DomainError if few else Evaluated) as exc:
            class_membership(Gauge("sentinel", GaugeDomain.PSI, fn),
                             ClassTag.PSI, tau_resolution=resolution)
        assert not few or "fewer than two" in str(exc.value)

    def test_two_tau_samples_suffice(self):
        assert len(np.arange(0.45, 1.0, 0.45)) == 2
        cert = class_membership(power_gauge(5 / 7), ClassTag.PSI,
                                tau_resolution=0.45)
        assert cert.verdict is Verdict.MEMBER

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


def _four_pass_phi(s: np.ndarray) -> np.ndarray:
    """step-phi's array branch with all four refinement passes run."""
    with np.errstate(all="ignore"):
        n = np.floor(1.0 / s)
        for _ in range(4):
            dec = (n > 1) & (s > 1.0 / n)
            inc = s <= 1.0 / (n + 1)
            n = n - dec + inc
        return np.select([s == 0.0, s > 1.0, s < 1e-9],
                         [0.0, 1.0, s / (1.0 + s)], 1.0 / (n + 1))


def _four_pass_psi(t: np.ndarray) -> np.ndarray:
    """step-psi's array branch with all four refinement passes run."""
    with np.errstate(all="ignore"):
        n = np.maximum(np.floor(t / (1.0 - t)), 1.0)
        for _ in range(4):
            dec = (n > 1) & (t < n / (n + 1.0))
            inc = t >= (n + 1.0) / (n + 2.0)
            n = n - dec + inc
        return np.select([t == 1.0, t < 0.5], [1.0, 0.5], (n + 1.0) / (n + 2.0))


def _near_edge(n: int, reciprocal: bool, ulps: int) -> float:
    """The double ``ulps`` steps from the branch edge 1/n or n/(n+1)."""
    v = 1.0 / n if reciprocal else n / (n + 1)
    for _ in range(abs(ulps)):
        v = float(np.nextafter(v, math.copysign(math.inf, ulps)))
    return v


edge_values = st.builds(_near_edge, st.integers(1, 10 ** 15), st.booleans(),
                        st.integers(-2, 2))


def _same_bits(a, b) -> bool:
    return np.array_equal(np.asarray(a, dtype=float).view(np.uint64),
                          np.asarray(b, dtype=float).view(np.uint64))


@pytest.mark.simd
class TestArrayContract:
    """``Gauge.eval`` on an ndarray equals per-element scalar evaluation."""

    @pytest.mark.parametrize("fn, ref", [(_step_phi_fn, _step_phi_fn),
                                         (_step_psi_fn, _step_psi_loop)])
    def test_step_functions_agree_bit_for_bit_on_edges(self, fn, ref):
        xs = np.array([v for v in EDGES + [-0.0, 5e-324, math.inf]
                       if fn is _step_phi_fn or 0.0 < v <= 1.0])
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

    @given(values=st.lists(edge_values | st.floats(1e-12, 1.0), min_size=1,
                           max_size=40))
    @settings(max_examples=200, derandomize=True)
    def test_step_refinement_stops_without_changing_bits(self, values):
        xs = np.array(values)
        assert _same_bits(_step_phi_fn(xs), _four_pass_phi(xs))
        assert _same_bits(_step_psi_fn(xs), _four_pass_psi(xs))

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
                       (power_gauge(0.5), 1.5), (step_phi(), -0.1),
                       (step_phi(), math.nan),
                       (gauge("power-phi:2"), math.nan)):
            with pytest.raises(DomainError) as scalar_err:
                g.eval(bad)
            with pytest.raises(DomainError) as array_err:
                g.eval(np.array([0.5, bad, 0.7]))
            assert str(array_err.value) == str(scalar_err.value)
        # [0, inf) rejects NaN as (0, 1] does, wherever it sits in an array
        with pytest.raises(DomainError, match="argument nan outside"):
            gauge("power-phi:2").eval(np.array([math.nan, -1.0]))
        # an empty array lies in every domain
        for g in (step_psi(), step_phi(), gauge("power-phi:2")):
            out = g.eval(np.array([]))
            assert out.shape == (0,) and out.dtype == np.float64

    def test_power_phi_overflow_raises_domain_error(self):
        g = gauge("power-phi:2")
        for bad in (1e200, np.array([1.0, 1e200])):
            with pytest.raises(DomainError, match=r"1e\+200 \*\* 2.0 overflows"):
                g.eval(bad)
        assert g.eval(1e150) == 1e150 ** 2

    @pytest.mark.parametrize("eta", [eta_reciprocal(), eta_reciprocal_t(3.0),
                                     eta_neglog()])
    def test_declared_inverse_on_arrays(self, eta):
        ys = np.array([0.0, 0.25, 1.0, 3.0, 99.0])
        got = invert_eta(eta, ys)
        assert isinstance(got, np.ndarray) and got.dtype == np.float64
        # numpy's vectorised exp may differ from the scalar one in the last bit
        assert got == pytest.approx([invert_eta(eta, float(y)) for y in ys],
                                    rel=1e-15)
        with pytest.raises(DomainError, match="nonnegative"):
            invert_eta(eta, np.array([1.0, -0.5]))

    def test_conjugation_runs_on_arrays(self):
        # the generator and its declared inverse see every sample window
        # of the lockstep search as one array
        seen = []
        base = eta_reciprocal()

        def fn(t):
            seen.append(type(t))
            return base.fn(t)

        def inverse(y):
            seen.append(type(y))
            return base.inverse(y)
        eta = Gauge("eta-reciprocal", GaugeDomain.ETA, fn, inverse)
        grid = [0.25, 0.5, 0.75]
        cert = class_membership(conjugate_gauge(eta, step_phi()), ClassTag.PSI1,
                                r_grid=grid)
        ref = class_membership(conjugate_gauge(base, step_phi()),
                               ClassTag.PSI1, r_grid=grid)
        assert cert.verdict is Verdict.MEMBER
        assert cert.to_dict() == ref.to_dict()
        assert seen and set(seen) == {np.ndarray}

    def test_psi_discontinuity_has_no_per_name_case(self):
        # the generic detector finds the jump of step-psi under any name
        renamed = Gauge("renamed-step", GaugeDomain.PSI, step_psi().fn)
        cert = class_membership(renamed, ClassTag.PSI)
        assert cert.witness == {"reason": "discontinuity", "tau": 0.5,
                                "jump": 0.16666666666666663}
        assert cert.witness == class_membership(step_psi(), ClassTag.PSI).witness

    @pytest.mark.parametrize("resolution", [7e-4, 1.1e-4, 3e-3, 1.1e-2, 0.03])
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
    """The continuity rule of the psi check, one grid increment at a time
    and one scalar evaluation per halving: the parts of an increment of at
    least the resolution are halved level by level, each half kept while it
    is still that large; a part that reaches adjacent doubles is a jump, a
    half that falls shows the gauge decreasing."""
    taus = np.arange(resolution, 1.0, resolution)
    vals = g.eval(taus)
    diffs = np.diff(vals)
    for i in range(len(diffs)):
        parts = [(taus[i], taus[i + 1], vals[i], vals[i + 1])]
        if not diffs[i] >= resolution - CLASS_TOL:
            continue
        while parts:
            if any(0.5 * (a + b) in (a, b) for a, b, _, _ in parts):
                return {"reason": "discontinuity", "tau": float(taus[i + 1]),
                        "jump": float(diffs[i])}
            halves = []
            for a, b, va, vb in parts:
                mid = 0.5 * (a + b)
                vm = g.eval(float(mid))
                halves += [(a, mid, va, vm), (mid, b, vm, vb)]
            for a, b, va, vb in halves:
                if vb - va < -CLASS_TOL:
                    return {"reason": "not nondecreasing", "tau": float(a),
                            "next_tau": float(b),
                            "values": [float(va), float(vb)]}
            parts = [(a, b, va, vb) for a, b, va, vb in halves
                     if vb - va >= resolution - CLASS_TOL]
    return None


@given(jumps=st.lists(st.tuples(st.integers(min_value=495, max_value=505),
                                st.floats(min_value=1e-4, max_value=0.2)),
                      max_size=4))
@settings(max_examples=80, derandomize=True)
def test_continuity_scan_matches_loop(jumps):
    # 0.5 + t/2 stays above the identity, and added upward steps keep it
    # nondecreasing; steps at nearby grid points share and split increments,
    # and steps below the resolution are no jumps
    res = 1e-3

    def fn(t):
        steps = sum(size * np.greater_equal(t, k * res) for k, size in jumps)
        return np.minimum(1.0, 0.5 + 0.5 * t + steps)
    g = Gauge("stepped", GaugeDomain.PSI, fn)
    cert = class_membership(g, ClassTag.PSI, tau_resolution=res)
    assert cert.witness == _loop_continuity_witness(g, res)


def test_continuity_scan_matches_loop_on_a_fall_between_samples():
    # nondecreasing on the grid of 1/1000 steps, but inside the increment
    # from 0.499 to 0.5, which holds a step of 0.1, it drops by 0.15
    def fn(t):
        dip = (0.4995 < t) & (t < 0.4998)
        return 0.6 + 0.3 * t + 0.1 * (t >= 0.4999) - 0.15 * dip
    g = Gauge("dipped", GaugeDomain.PSI, fn)
    cert = class_membership(g, ClassTag.PSI, tau_resolution=1e-3)
    assert cert.witness["reason"] == "not nondecreasing"
    assert cert.witness == _loop_continuity_witness(g, 1e-3)
    lo, hi = cert.witness["tau"], cert.witness["next_tau"]
    assert g.eval(hi) < g.eval(lo) - 0.01


@pytest.mark.parametrize("resolution", [1e-4, 0.02, 0.03])
@given(data=st.data())
@settings(max_examples=40, derandomize=True, deadline=None)
def test_a_step_of_the_resolution_is_a_jump_anywhere(resolution, data):
    # 0.9 + t/10 less h below c stays above the identity for c < 1 - h/0.9;
    # the grid increment holding c is h plus a tenth of a grid step
    taus = np.arange(resolution, 1.0, resolution)
    h = data.draw(st.floats(min_value=resolution, max_value=0.1), label="h")
    c = data.draw(st.floats(min_value=float(taus[0]), exclude_min=True,
                            max_value=min(float(taus[-1]), 1.0 - h / 0.9)),
                  label="c")

    def fn(t):
        return 0.9 + 0.1 * t - h * (t < c)
    cert = class_membership(Gauge("step", GaugeDomain.PSI, fn), ClassTag.PSI,
                            tau_resolution=resolution)
    assert cert.verdict is Verdict.NON_MEMBER
    assert cert.witness["reason"] == "discontinuity"
    after = taus[taus >= c][0]
    assert cert.witness["tau"] == after
    assert cert.witness["jump"] == pytest.approx(
        h + 0.1 * (after - taus[taus < c][-1]), abs=1e-12)


def test_conjugated_step_gauge_jumps_at_a_coarse_resolution():
    cert = class_membership(gauge("conj:eta-neglog:step-phi"), ClassTag.PSI,
                            tau_resolution=0.03)
    assert cert.verdict is Verdict.NON_MEMBER
    # exp(-1/2) - exp(-1), first seen at the sample 0.39
    assert cert.witness == {"reason": "discontinuity",
                            "tau": float(np.arange(0.03, 1.0, 0.03)[12]),
                            "jump": 0.2386512185411911}


# ---------------------------------------------------------------------------
# Psi1/Phi1 threshold searches: the lockstep bisection against a per-threshold
# reference loop
# ---------------------------------------------------------------------------

def _ref_interval_samples(lo, hi, resolution):
    width = hi - lo
    k = int(min(max(math.ceil(width / resolution), 16), 512))
    return lo + (np.arange(k) + 0.5) * (width / k)


def _ref_violated(g, lo, hi, bound, above, resolution):
    vals = g.eval(_ref_interval_samples(lo, hi, resolution))
    return (vals > bound + CLASS_TOL if above else vals < bound - CLASS_TOL).any()


def _ref_bisect(holds, lo, hi):
    best = None
    for _ in range(BISECT_ITERS):
        mid = 0.5 * (lo + hi)
        if holds(mid):
            best = mid
            lo = mid
        else:
            hi = mid
    return best


def _lockstep_bisect(g, x, resolution, phi, probe=False):
    """The lockstep Psi1/Phi1 search that samples every threshold's window
    in full at every step, one gauge evaluation per step, whatever
    ``probe`` asks: the oracle of the search that rejects a window from its
    end sample."""
    if phi:
        lo, hi, bound = x + resolution, x + np.maximum(1.0, x), x
    else:
        lo = np.minimum(x + resolution, 1.0 - ENDPOINT_CLAMP)
        hi, bound = np.full_like(x, 1.0 - ENDPOINT_CLAMP), 1.0 - x
    best = np.full_like(x, np.nan)
    for _ in range(BISECT_ITERS):
        mid = 0.5 * (lo + hi)
        wlo, whi = (x, mid) if phi else (1.0 - mid, bound)
        width = whi - wlo
        k = np.clip(np.ceil(width / resolution), 16, 512).astype(np.intp)
        starts = np.cumsum(k) - k
        j = np.arange(k.sum()) - np.repeat(starts, k)
        taus = np.repeat(wlo, k) + (j + 0.5) * np.repeat(width / k, k)
        vals = g.eval(taus)
        b = np.repeat(bound, k)
        bad = vals > b + CLASS_TOL if phi else vals < b - CLASS_TOL
        first = np.minimum.reduceat(np.where(bad, np.arange(bad.size), bad.size),
                                    starts)
        ok = first == taus.size
        best = np.where(ok, mid, best)
        lo, hi = np.where(ok, mid, lo), np.where(ok, hi, mid)
    return best


def _ref_witness(g, boundary, resolution, above, steps=8):
    width = 0.5 * boundary if not above else max(0.5 * boundary, 0.25)
    taus, values = [], []
    for k in range(steps):
        w = width * 2.0 ** (-k)
        lo, hi = (boundary - w, boundary) if not above else (boundary, boundary + w)
        samples = _ref_interval_samples(lo, hi, resolution)
        vals = g.eval(samples)
        bad = vals < boundary - CLASS_TOL if not above else vals > boundary + CLASS_TOL
        if not bad.any():
            return None
        i = int(bad.argmax())
        taus.append(float(samples[i]))
        values.append(float(vals[i]))
    return {"taus": taus, "values": values}


def _ref_check(g, grid, resolution, phi):
    """The Psi1/Phi1 check as one bisection per threshold, in grid order."""
    records, witness, verdict = [], None, Verdict.MEMBER
    key, value_key = ("epsilon", "delta") if phi else ("r", "rho")
    for x in grid:
        if phi:
            best = _ref_bisect(
                lambda d: not _ref_violated(g, x, d, x, True, resolution),
                x + resolution, x + max(1.0, x))
        else:
            best = _ref_bisect(
                lambda rho: not _ref_violated(g, 1.0 - rho, 1.0 - x, 1.0 - x,
                                              False, resolution),
                min(x + resolution, 1.0 - ENDPOINT_CLAMP), 1.0 - ENDPOINT_CLAMP)
        if best is not None:
            records.append({key: x, value_key: best})
            continue
        seq = _ref_witness(g, x if phi else 1.0 - x, resolution, above=phi)
        if seq is not None:
            witness = {key: x, **seq}
            verdict = Verdict.NON_MEMBER
            break
        verdict = Verdict.INCONCLUSIVE
        records.append({key: x, value_key: None})
    return verdict, records, witness


def _comb(bands, phi):
    """A test gauge that violates its class condition inside the open bands
    and is clean elsewhere: the identity in a band, else 1 (psi-style) or
    0 (phi-style)."""
    def fn(t):
        inside = np.zeros(np.shape(t), dtype=bool)
        for lo, hi in bands:
            inside |= (lo < t) & (t < hi)
        return np.where(inside, t, 0.0 if phi else 1.0)
    return Gauge(f"comb{bands}", GaugeDomain.PHI if phi else GaugeDomain.PSI, fn)


def _assert_matches_reference(g, cert, phi):
    verdict, records, witness = _ref_check(g, cert.grid, cert.tau_resolution, phi)
    # repr tells apart float bits, -0.0 and numpy scalars
    assert (cert.verdict, repr(cert.records), repr(cert.witness)) == \
        (verdict, repr(records), repr(witness))


_exponents = st.sampled_from(["1/3", "1/2", "5/7", "0.9", "1", "2", "3"]) | \
    st.floats(min_value=0.05, max_value=4.0).map(repr)
_etas = st.sampled_from(["eta-reciprocal", "eta-neglog"])
_bands = st.lists(st.tuples(st.floats(0.0, 1.0), st.floats(1e-4, 0.2))
                  .map(lambda cw: (cw[0] - cw[1], cw[0] + cw[1])), max_size=4)


@st.composite
def _grids(draw, top):
    edges = st.sampled_from([0.0, 1e-9, ENDPOINT_CLAMP, 1e-3, 0.5, 1.0 - 1e-3,
                             1.0 - ENDPOINT_CLAMP, 1.0 - 1e-9, 1.0])
    values = draw(st.lists(edges | st.floats(0.0, top), min_size=1, max_size=25))
    # repeats
    return values + draw(st.lists(st.sampled_from(values), max_size=3))


@st.composite
def _psi_gauges(draw):
    kind = draw(st.sampled_from(["power", "step-psi", "identity", "conj", "comb"]))
    if kind == "power":
        return gauge(f"power:{draw(_exponents)}")
    if kind == "conj":
        return gauge(f"conj:{draw(_etas)}:step-phi")
    if kind == "comb":
        return _comb(draw(_bands), phi=False)
    return gauge(kind)


@st.composite
def _phi_gauges(draw):
    kind = draw(st.sampled_from(["step-phi", "power-phi", "conj", "comb"]))
    if kind == "power-phi":
        return gauge(f"power-phi:{draw(_exponents)}")
    if kind == "conj":
        return gauge(f"conj:{draw(_etas)}:power:{draw(_exponents)}")
    if kind == "comb":
        return _comb([(6 * lo, 6 * hi) for lo, hi in draw(_bands)], phi=True)
    return gauge(kind)


_resolutions = st.floats(min_value=1e-4, max_value=0.1)


@given(g=_psi_gauges(), grid=_grids(1.0), resolution=_resolutions)
@settings(max_examples=150, derandomize=True, deadline=None)
def test_psi1_lockstep_equals_per_threshold_bisection(g, grid, resolution):
    cert = class_membership(g, ClassTag.PSI1, r_grid=grid,
                            tau_resolution=resolution)
    _assert_matches_reference(g, cert, phi=False)


@given(g=_phi_gauges(), grid=_grids(6.0), resolution=_resolutions)
@settings(max_examples=150, derandomize=True, deadline=None)
def test_phi1_lockstep_equals_per_threshold_bisection(g, grid, resolution):
    cert = class_membership(g, ClassTag.PHI1, r_grid=grid,
                            tau_resolution=resolution)
    _assert_matches_reference(g, cert, phi=True)


def test_comb_gauge_records_member_inconclusive_then_breaks():
    # r = 0.1 is clean; the band just below 0.7 lies inside every bisection
    # window of r = 0.3 but outside the narrowest witness windows, so that
    # row is inconclusive; the band up to 0.5 rejects r = 0.5, and r = 0.7
    # is never read
    g = _comb([(0.682, 0.695), (0.3, 0.5)], phi=False)
    cert = class_membership(g, ClassTag.PSI1, r_grid=[0.1, 0.3, 0.5, 0.7],
                            tau_resolution=0.01)
    assert cert.verdict is Verdict.NON_MEMBER
    assert [rec["r"] for rec in cert.records] == [0.1, 0.3]
    assert cert.records[0]["rho"] is not None
    assert cert.records[1]["rho"] is None
    assert cert.witness["r"] == 0.5
    _assert_matches_reference(g, cert, phi=False)


_OVERFLOW_AT_5 = ("power-phi:400.0: 7.497608544921874 ** 400.0 overflows "
                  "a float")


def test_gauge_error_past_a_non_member_threshold_is_not_reached():
    # 7.5 ** 400 overflows in the first step at eps = 5, but eps = 1 is
    # rejected first, as in a per-threshold search
    g = gauge("power-phi:400")
    cert = class_membership(g, ClassTag.PHI1)
    assert cert.verdict is Verdict.NON_MEMBER
    assert cert.witness["epsilon"] == 1.0
    _assert_matches_reference(g, cert, phi=True)
    # the error names the first window's largest sample, not the end sample
    # of a next window, which overflows too (8.746...)
    for grid in ([5.0], [5.0, 1.0]):
        with pytest.raises(DomainError, match=f"^{re.escape(_OVERFLOW_AT_5)}$"):
            class_membership(g, ClassTag.PHI1, r_grid=grid)


def _counting(g):
    """``g`` with a list that grows by one per evaluation."""
    calls = []

    def fn(v):
        calls.append(np.size(v))
        return g.fn(v)
    return Gauge(g.name, g.domain, fn), calls


@pytest.mark.parametrize("gauge_id, tag, expected, elements", [
    ("power:1/2", ClassTag.PSI1, BISECT_ITERS, 204_354),
    ("step-psi", ClassTag.PSI1, BISECT_ITERS, 263_785),
    ("step-phi", ClassTag.PHI1, BISECT_ITERS, 220_857),
    # every window is rejected from its end sample, so the last step has
    # nothing to evaluate; the non-member's witness windows take one more
    ("identity", ClassTag.PSI1, BISECT_ITERS, 13_545),
])
def test_threshold_search_makes_one_evaluation_per_step(gauge_id, tag, expected,
                                                        elements):
    g, calls = _counting(gauge(gauge_id))
    cert = class_membership(g, tag)
    assert len(calls) == expected
    # one lockstep array holds at most 512 samples per grid threshold, and
    # the end samples of its two next windows
    assert max(calls) <= len(cert.grid) * (512 + 2)
    assert sum(calls) == elements


# ---------------------------------------------------------------------------
# the search that rejects a window from its end sample against the lockstep
# search that samples every window in full
# ---------------------------------------------------------------------------

def _recording(g):
    """``g`` with a list of the arrays it evaluates, ``None`` for a call
    that raises."""
    calls = []

    def fn(v):
        try:
            out = g.fn(v)
        except Exception:
            calls.append(None)
            raise
        calls.append(np.array(v, dtype=float))
        return out
    return Gauge(g.name, g.domain, fn), calls


def _raising(g, lo, hi, error=DomainError):
    """``g``, raising ``error`` on every call that holds a value in
    [lo, hi]; the error names the first such value."""
    def fn(v):
        inside = np.atleast_1d(v)[np.atleast_1d((lo <= v) & (v <= hi))]
        if inside.size:
            raise error(f"{g.name} raises at {float(inside[0])!r}")
        return g.fn(v)
    fn.base = g
    return Gauge(f"raising({g.name}, {lo!r}, {hi!r}, {error.__name__})",
                 g.domain, fn)


def _unraised(g):
    """``g`` without the errors :func:`_raising` gave it, under its name."""
    base = g
    while hasattr(base.fn, "base"):
        base = base.fn.base
    return replace(base, name=g.name)


def _piecewise(edges, values, domain):
    """A gauge constant between sorted ``edges``, ``values[i]`` on the i-th
    piece."""
    edges, values = np.array(edges), np.array(values)
    return Gauge(f"piecewise{edges.tolist()}", domain,
                 lambda t: values[np.searchsorted(edges, t, side="right")])


@st.composite
def _piecewise_gauges(draw, top, phi):
    edges = sorted(draw(st.lists(st.floats(0.0, top), max_size=6)))
    # a NaN value is never on the wrong side of a bound
    values = draw(st.lists(st.floats(0.0 if phi else 0.01, top) | st.just(math.nan),
                           min_size=len(edges) + 1, max_size=len(edges) + 1))
    return _piecewise(edges, values, GaugeDomain.PHI if phi else GaugeDomain.PSI)


_big_exponents = _exponents | st.sampled_from(["50", "400"])
# a ValueError or ArithmeticError sends the check one threshold at a time,
# any other error ends it
_errors = st.sampled_from([DomainError, ZeroDivisionError, TypeError])


@st.composite
def _probed_psi1_gauges(draw):
    kind = draw(st.sampled_from(["power", "step-psi", "identity", "conj",
                                 "piecewise", "raising"]))
    if kind == "power":
        return gauge(f"power:{draw(_exponents)}")
    if kind == "conj":
        inner = draw(st.sampled_from(["step-phi", "power-phi"]))
        if inner == "power-phi":
            inner += f":{draw(_big_exponents)}"
        return gauge(f"conj:{draw(_etas)}:{inner}")
    if kind == "piecewise":
        return draw(_piecewise_gauges(1.0, phi=False))
    if kind == "raising":
        lo, hi = sorted(draw(st.lists(st.floats(0.0, 1.0), min_size=2, max_size=2)))
        return _raising(draw(_probed_psi1_gauges()), lo, hi, draw(_errors))
    return gauge(kind)


@st.composite
def _probed_phi1_gauges(draw):
    kind = draw(st.sampled_from(["power-phi", "step-phi", "conj", "piecewise",
                                 "raising"]))
    if kind == "power-phi":
        return gauge(f"power-phi:{draw(_big_exponents)}")
    if kind == "conj":
        inner = draw(st.sampled_from(["step-psi", "power"]))
        if inner == "power":
            inner += f":{draw(_exponents)}"
        return gauge(f"conj:{draw(_etas)}:{inner}")
    if kind == "piecewise":
        return draw(_piecewise_gauges(8.0, phi=True))
    if kind == "raising":
        lo, hi = sorted(draw(st.lists(st.floats(0.0, 8.0), min_size=2, max_size=2)))
        return _raising(draw(_probed_phi1_gauges()), lo, hi, draw(_errors))
    return gauge(kind)


def _outcome(g, tag, grid, resolution):
    """The certificate's JSON, or the type and message of the error."""
    try:
        cert = class_membership(g, tag, r_grid=grid, tau_resolution=resolution)
    except Exception as exc:
        return type(exc), str(exc)
    return json.dumps(cert.to_dict())


def _lockstep_outcome(g, tag, grid, resolution):
    with mock.patch.object(algebra, "_bisect_grid", _lockstep_bisect):
        return _outcome(g, tag, grid, resolution)


def _assert_lockstep_certificate(g, tag, grid, resolution):
    new_g, new_calls = _recording(g)
    got = _outcome(new_g, tag, grid, resolution)
    old_g, old_calls = _recording(g)
    want = _lockstep_outcome(old_g, tag, grid, resolution)
    event("the lockstep search raises" if isinstance(want, tuple) else
          "the lockstep search answers")
    if got != want:
        # a window rejected from its end sample is not sampled further, so
        # an error only inside it goes unseen: the certificate is that of
        # the gauge without the error
        assert isinstance(want, tuple) and isinstance(got, str)
        event("an error only inside a rejected window")
        assert got == _lockstep_outcome(_unraised(g), tag, grid, resolution)
        return
    if any(v is None for v in new_calls + old_calls):
        return
    assert len(new_calls) <= len(old_calls)
    # Every sample is one the lockstep search evaluates, bit for bit, but
    # for the end sample of the window a step does not go on to: at most one
    # per threshold and step.
    extra = ~np.isin(np.concatenate(new_calls), np.concatenate(old_calls))
    assert extra.sum() <= (BISECT_ITERS - 1) * len(json.loads(got)["grid"])


_probe_resolutions = st.floats(min_value=1e-5, max_value=0.3)


@pytest.mark.simd
@given(g=_probed_psi1_gauges(), grid=_grids(1.0), resolution=_probe_resolutions)
@settings(max_examples=150, derandomize=True, deadline=None)
def test_psi1_search_from_end_samples_gives_the_lockstep_certificate(
        g, grid, resolution):
    _assert_lockstep_certificate(g, ClassTag.PSI1, grid, resolution)


@pytest.mark.simd
@given(g=_probed_phi1_gauges(), grid=_grids(6.0), resolution=_probe_resolutions)
@settings(max_examples=150, derandomize=True, deadline=None)
def test_phi1_search_from_end_samples_gives_the_lockstep_certificate(
        g, grid, resolution):
    _assert_lockstep_certificate(g, ClassTag.PHI1, grid, resolution)


@pytest.mark.simd
def test_an_error_inside_a_rejected_window_goes_unseen():
    # at r = 1e-6 step-psi stays below 1 - r, so every window fails at its
    # first sample; the error band lies inside windows that the lockstep
    # search samples in full, never at a first sample
    g = _raising(step_psi(), 0.5859375, 0.59375)
    assert _lockstep_outcome(g, ClassTag.PSI1, [0.0], 0.265625) == (
        DomainError, "step-psi raises at 0.5928949609375")
    cert = class_membership(g, ClassTag.PSI1, r_grid=[0.0],
                            tau_resolution=0.265625)
    assert cert.verdict is Verdict.NON_MEMBER
    assert json.dumps(cert.to_dict()) == _lockstep_outcome(
        _unraised(g), ClassTag.PSI1, [0.0], 0.265625)


@pytest.mark.simd
def test_an_error_only_at_an_end_sample_is_not_raised():
    # every window at eps = 1 is accepted, so the lower next window of the
    # first step, (1, 1.25...), is never bisected; its end sample alone
    # raises, with an error that would end a search sampling every window
    lo, hi = 1.0 + 1e-4, 2.0
    width = 0.5 * (lo + 0.5 * (lo + hi)) - 1.0      # 512 samples
    end = 1.0 + 511.5 * (width / 512)
    g, calls = _recording(_raising(_piecewise([], [0.0], GaugeDomain.PHI),
                                   end, end, TypeError))
    want = _lockstep_outcome(g, ClassTag.PHI1, [1.0], 1e-4)
    assert json.loads(want)["verdict"] == "member"
    del calls[:]
    assert _outcome(g, ClassTag.PHI1, [1.0], 1e-4) == want
    assert calls[0] is None     # the first evaluation raised


_BUILTIN_PSI_IDS = [
    "step-psi", "identity", "power:1/3", "power:1/2", "power:5/7", "power:0.9",
    "power:1", "power:2", "conj:eta-reciprocal:step-phi",
    "conj:eta-neglog:step-phi", "conj:eta-reciprocal:power-phi:2",
    "conj:eta-neglog:power-phi:2", "conj:eta-reciprocal:power-phi:1/2",
    "conj:eta-neglog:power-phi:1/2"]


def test_psi_members_are_psi1_members_and_the_containment_is_strict():
    """The abstract's containment of classes: Psi is contained in Psi1, and
    strictly.  Every built-in psi-style gauge the continuous-class check
    certifies must also be certified by the threshold-class check on the
    default grid; the step gauge and both step-phi conjugates are threshold
    members but not continuous members."""
    verdicts = {}
    for gauge_id in _BUILTIN_PSI_IDS:
        g = gauge(gauge_id)
        verdicts[gauge_id] = (class_membership(g, ClassTag.PSI).verdict,
                              class_membership(g, ClassTag.PSI1).verdict)
    psi_members = [i for i, (psi, _) in verdicts.items() if psi is Verdict.MEMBER]
    assert psi_members    # the implication is not vacuous
    for gauge_id in psi_members:
        assert verdicts[gauge_id][1] is Verdict.MEMBER, gauge_id
    for gauge_id in ("step-psi", "conj:eta-reciprocal:step-phi",
                     "conj:eta-neglog:step-phi"):
        assert verdicts[gauge_id] == (Verdict.NON_MEMBER, Verdict.MEMBER)
