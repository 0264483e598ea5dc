"""Tests for carriers, base metrics, and fuzzy metric space constructions."""

import math

import numpy as np
import pytest

from fuzzyfix.algebra import DomainError, TNorm
from fuzzyfix.spaces import (
    Carrier,
    axiom_check,
    base_metric_check,
    exponential_fuzzy_metric,
    metric,
    standard_fuzzy_metric,
    table_fuzzy_metric,
)

TOL = 1e-12


@pytest.fixture
def quad_carrier():
    return Carrier.finite([0, 1, 2, 5])


@pytest.fixture
def ray_carrier():
    return Carrier.interval(0.0, 10.0, 201)


class TestCarrier:
    def test_finite_sorted_distinct(self):
        c = Carrier.finite([5, 0, 2, 1])
        assert c.points == (0.0, 1.0, 2.0, 5.0)
        assert c.contains(2.0) and not c.contains(3.0)

    def test_duplicates_rejected(self):
        with pytest.raises(DomainError):
            Carrier.finite([1, 1, 2])

    def test_interval_contains_interior(self):
        c = Carrier.interval(0, 10, 11)
        assert c.contains(3.7)
        assert not c.contains(10.5)
        assert len(c.points) == 11


class TestBaseMetrics:
    def test_euclidean(self):
        d = metric("euclidean")
        assert float(d.eval(0, 5)) == 5.0
        assert float(d.eval(2, 2)) == 0.0

    def test_max_metric(self):
        d = metric("max-jachymski")
        assert float(d.eval(1.0, 1.5)) == 1.5
        assert float(d.eval(1.5, 1.0)) == 1.5
        assert float(d.eval(1.5, 1.5)) == 0.0

    def test_axioms_pass_on_carriers(self, quad_carrier, ray_carrier):
        for d in (metric("euclidean"), metric("max-jachymski")):
            for carrier in (quad_carrier, ray_carrier):
                results = base_metric_check(d, carrier, samples=300, seed=2)
                assert all(r.passed for r in results), [r.to_dict() for r in results]

    def test_unknown_metric_id(self):
        with pytest.raises(DomainError):
            metric("manhattan")


class TestStandardConstruction:
    def test_golden_values(self, ray_carrier):
        space = standard_fuzzy_metric(ray_carrier, metric("max-jachymski"))
        # nearness of 1 and 1.5 at scale 1 is 1/(1+1.5)
        assert space.m_scalar(1.0, 1.5, 1.0) == 0.4
        assert space.m_scalar(3.0, 3.0, 7.0) == 1.0

    def test_euclidean_half(self):
        c = Carrier.finite([0, 1])
        space = standard_fuzzy_metric(c, metric("euclidean"))
        assert space.m_scalar(0.0, 1.0, 1.0) == 0.5

    def test_flags(self, ray_carrier):
        space = standard_fuzzy_metric(ray_carrier, metric("max-jachymski"))
        assert space.strong
        assert space.tnorm.kind.value == "product"
        assert space.provenance == "standard(max-jachymski)"

    def test_t_must_be_positive(self, ray_carrier):
        space = standard_fuzzy_metric(ray_carrier, metric("euclidean"))
        with pytest.raises(DomainError):
            space.m_scalar(0.0, 1.0, 0.0)
        with pytest.raises(DomainError):
            space.m_scalar(0.0, 1.0, -1.0)


class TestExponentialConstruction:
    def test_golden_values(self, quad_carrier):
        space = exponential_fuzzy_metric(quad_carrier, metric("euclidean"))
        assert space.m_scalar(0.0, 5.0, 1.0) == pytest.approx(math.exp(-5), abs=TOL)
        assert space.m_scalar(2.0, 2.0, 0.3) == 1.0

    def test_monotone_in_t(self, quad_carrier):
        space = exponential_fuzzy_metric(quad_carrier, metric("euclidean"))
        ts = np.logspace(-2, 2, 50)
        vals = np.asarray(space.m(0.0, 1.0, ts), dtype=float)
        assert np.all(np.diff(vals) > 0)
        assert vals[-1] < 1.0

    def test_standard_monotone_in_t(self, ray_carrier):
        space = standard_fuzzy_metric(ray_carrier, metric("max-jachymski"))
        ts = np.logspace(-2, 2, 50)
        vals = np.asarray(space.m(0.0, 1.0, ts), dtype=float)
        assert np.all(np.diff(vals) > 0)


class TestAxiomCheck:
    def test_standard_space_passes(self, ray_carrier):
        space = standard_fuzzy_metric(ray_carrier, metric("max-jachymski"))
        report = axiom_check(space, triple_samples=500, seed=5)
        assert report.passed, report.to_dict()
        assert report.strong_verdict
        assert report.strong_declared

    def test_exponential_space_passes(self, quad_carrier):
        space = exponential_fuzzy_metric(quad_carrier, metric("euclidean"))
        report = axiom_check(space, triple_samples=500, seed=5)
        assert report.passed, report.to_dict()
        assert report.strong_verdict

    def test_declared_flag_matches_verdict(self, quad_carrier, ray_carrier):
        spaces = [
            standard_fuzzy_metric(ray_carrier, metric("max-jachymski")),
            standard_fuzzy_metric(quad_carrier, metric("euclidean")),
            exponential_fuzzy_metric(quad_carrier, metric("euclidean")),
        ]
        for space in spaces:
            report = axiom_check(space, triple_samples=300, seed=1)
            assert report.strong_verdict == space.strong

    def test_zero_nearness_table_fails_positivity(self):
        carrier = Carrier.finite([0, 1])
        space = table_fuzzy_metric(carrier, [1.0, 2.0],
                                   {(0, 1): [0.0, 0.5]})
        report = axiom_check(space, triple_samples=100, seed=0,
                             t_grid=[1.0, 2.0])
        pos = report.result("positivity")
        assert not pos.passed
        assert pos.witness is not None

    def test_deterministic(self, quad_carrier):
        space = exponential_fuzzy_metric(quad_carrier, metric("euclidean"))
        a = axiom_check(space, triple_samples=200, seed=9).to_dict()
        b = axiom_check(space, triple_samples=200, seed=9).to_dict()
        assert a == b

    def test_rejects_bad_grid(self, quad_carrier):
        space = exponential_fuzzy_metric(quad_carrier, metric("euclidean"))
        with pytest.raises(DomainError):
            axiom_check(space, t_grid=[0.0, 1.0])


class TestTableSpace:
    def test_interpolates_between_nodes(self):
        carrier = Carrier.finite([0, 1])
        space = table_fuzzy_metric(carrier, [1.0, 3.0], {(0, 1): [0.4, 0.8]})
        assert space.m_scalar(0, 1, 1.0) == 0.4
        assert space.m_scalar(0, 1, 2.0) == pytest.approx(0.6, abs=TOL)
        assert space.m_scalar(0, 1, 3.0) == 0.8

    def test_constant_extrapolation(self):
        carrier = Carrier.finite([0, 1])
        space = table_fuzzy_metric(carrier, [1.0, 3.0], {(0, 1): [0.4, 0.8]})
        assert space.m_scalar(0, 1, 0.5) == 0.4
        assert space.m_scalar(0, 1, 50.0) == 0.8

    def test_missing_pair_detected(self):
        carrier = Carrier.finite([0, 1, 2])
        with pytest.raises(DomainError, match="missing pair"):
            table_fuzzy_metric(carrier, [1.0], {(0, 1): [0.5]})

    def test_diagonal_defaults_to_one(self):
        carrier = Carrier.finite([0, 1])
        space = table_fuzzy_metric(carrier, [1.0], {(0, 1): [0.5]})
        assert space.m_scalar(1, 1, 2.0) == 1.0
