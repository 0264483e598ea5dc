"""Tests for the reproduction suites."""

import math

import pytest

from fuzzyfix.papersuite import (
    run_all,
    run_example_final,
    run_example_mihet_extension,
    run_example_step_gauge,
    run_proposition_suite,
)


def _assertion(report, check_id):
    """The report's assertion with this id."""
    return next(a for a in report.assertions if a.check_id == check_id)


@pytest.fixture(scope="module")
def step_gauge_report():
    return run_example_step_gauge(7)


@pytest.fixture(scope="module")
def extension_report():
    return run_example_mihet_extension(7)


@pytest.fixture(scope="module")
def final_report():
    return run_example_final(7)


@pytest.fixture(scope="module")
def proposition_report():
    return run_proposition_suite(7)


class TestStepGaugeSuite:
    def test_all_pass(self, step_gauge_report):
        failing = [a.check_id for a in step_gauge_report.assertions
                   if not a.passed]
        assert failing == []

    def test_jump_value(self, step_gauge_report):
        a = _assertion(step_gauge_report, "jump-at-half")
        assert a.observed == pytest.approx(1 / 6, abs=1e-12)


class TestExtensionSuite:
    def test_all_pass(self, extension_report):
        failing = [a.check_id for a in extension_report.assertions
                   if not a.passed]
        assert failing == []

    def test_golden_nearness_values(self, extension_report):
        assert _assertion(extension_report, "nearness-before").observed == 0.4
        assert _assertion(extension_report, "nearness-after").observed == 0.5

    def test_envelope_values_exact(self, extension_report):
        assert _assertion(extension_report, "envelope-pinned-at-half").observed \
            == [0.5, 0.5, 0.5, 0.5]


class TestFinalSuite:
    def test_all_pass(self, final_report):
        failing = [a.check_id for a in final_report.assertions if not a.passed]
        assert failing == []

    def test_spot_pair_closed_forms(self, final_report):
        spot = _assertion(final_report, "spot-pair").observed
        assert spot["after"] == math.exp(-5)
        assert spot["bound"] == pytest.approx(math.exp(-45 / 7), rel=1e-13)
        assert spot["after"] > spot["bound"]

    def test_solver_outcomes(self, final_report):
        outcomes = _assertion(final_report, "solver-all-starts").observed
        assert set(outcomes) == {0.0, 1.0, 2.0, 5.0}
        assert outcomes[1.0]["iterations"] == 3
        assert outcomes[0.0]["iterations"] == 0


class TestPropositionSuite:
    def test_all_pass(self, proposition_report):
        failing = [a.check_id for a in proposition_report.assertions
                   if not a.passed]
        assert failing == []


def test_run_all_deterministic():
    assert run_all(7) == run_all(7)
