"""Tests for orbits, regularity, Cauchy certification, and the solver."""

import dataclasses
import math
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fuzzyfix import contractions, dynamics
from fuzzyfix.algebra import DomainError, gauge
from fuzzyfix.contractions import (
    MParams,
    PairSample,
    SelfMap,
    cm_contractive_check,
    self_map,
    table_map,
)
from fuzzyfix.defaults import (
    CLASS_TOL,
    ENDPOINT_CLAMP,
    scale_grid,
    threshold_grid,
)
from fuzzyfix.dynamics import (
    CauchyVerdict,
    OrbitTrace,
    Route,
    SolverConfig,
    StopReason,
    cauchy_criterion_check,
    g_cauchy_check,
    m_cauchy_check,
    picard_orbit,
    regularity_check,
    solve_fixed_point,
)
from fuzzyfix.scenario import load_scenario
from fuzzyfix.spaces import (
    Carrier,
    FuzzySpace,
    exponential_fuzzy_metric,
    metric,
    standard_fuzzy_metric,
    table_fuzzy_metric,
)

GRID_1_100 = tuple(float(t) for t in np.logspace(0, 2, 20))
SMALL_R = (0.05, 0.1, 0.3, 0.5, 0.9)


@pytest.fixture
def quad_space():
    return exponential_fuzzy_metric(Carrier.finite([0, 1, 2, 5]),
                                    metric("euclidean"))


@pytest.fixture
def perm_map():
    return self_map("perm-0-1-2-5")


@pytest.fixture
def ray_space():
    return standard_fuzzy_metric(Carrier.interval(0, 10, 201),
                                 metric("max-jachymski"))


@pytest.fixture
def step_map():
    return self_map("phi-step")


@pytest.fixture
def line_space():
    # unbounded-ish line for prescribed traces
    return standard_fuzzy_metric(Carrier.interval(0, 1000, 101),
                                 metric("euclidean"))


def harmonic_trace(space, n=1000, t_grid=GRID_1_100):
    sums = np.cumsum(1.0 / np.arange(1, n + 1))
    return OrbitTrace.from_points(space, sums, t_grid)


def rescaled(space, trace, t_grid):
    """The points of ``trace`` at the scales ``t_grid``."""
    return OrbitTrace.from_points(space, trace.points, t_grid)


class TestPicardOrbit:
    def test_quad_orbit_from_one(self, quad_space, perm_map):
        trace = picard_orbit(quad_space, perm_map, 1, t_grid=GRID_1_100)
        assert trace.points == (1.0, 5.0, 2.0, 0.0, 0.0)
        assert trace.stop_reason is StopReason.FIXED_POINT

    def test_fixed_start_gives_single_point(self, quad_space, perm_map):
        trace = picard_orbit(quad_space, perm_map, 0, t_grid=GRID_1_100)
        assert trace.points == (0.0,)
        assert trace.stop_reason is StopReason.START_FIXED

    def test_prescribed_single_point_has_empty_series(self, quad_space):
        trace = OrbitTrace.from_points(quad_space, [2.0], GRID_1_100)
        assert trace.step_nearness.shape == (0, len(GRID_1_100))
        assert trace.rows() == [{"n": 0, "x": 2.0}]

    def test_ray_orbit_prefix(self, ray_space, step_map):
        trace = picard_orbit(ray_space, step_map, 0.7, max_len=10,
                             t_grid=GRID_1_100)
        assert trace.points[:4] == (0.7, 0.5, 1 / 3, 0.25)
        assert trace.stop_reason is StopReason.MAX_LEN
        # tail follows x_n = 1/(n+1)
        for n in range(1, 10):
            assert trace.points[n] == pytest.approx(1 / (n + 1), abs=1e-15)

    def test_step_series_monotone_for_contractive_map(self, ray_space, step_map):
        trace = picard_orbit(ray_space, step_map, 0.7, max_len=40,
                             t_grid=GRID_1_100)
        series = trace.step_nearness
        assert np.all(np.diff(series, axis=0) > 0)

    def test_rows_export(self, quad_space, perm_map):
        trace = picard_orbit(quad_space, perm_map, 1, t_grid=(1.0, 2.0))
        rows = trace.rows()
        assert rows[0]["n"] == 0 and rows[0]["x"] == 1.0
        assert len(rows[0]["step_nearness"]) == 2
        assert "step_nearness" not in rows[-1]

    def test_start_outside_carrier(self, quad_space, perm_map):
        with pytest.raises(DomainError):
            picard_orbit(quad_space, perm_map, 3)


class TestRegularity:
    def test_stabilized_orbit_plain_and_uniform(self, quad_space, perm_map):
        trace = picard_orbit(quad_space, perm_map, 1, t_grid=GRID_1_100)
        report = regularity_check(quad_space, trace)
        assert report.plain_all
        assert report.uniform
        assert report.uniform_sup_deficit == 0.0

    def test_ray_orbit_plain_holds_uniform_fails(self, ray_space, step_map):
        trace = picard_orbit(ray_space, step_map, 0.7, max_len=60,
                             t_grid=GRID_1_100)
        report = regularity_check(ray_space, trace)
        assert report.plain_all            # deficits shrink like 1/n
        assert not report.uniform          # sup over shrinking scales stays large
        # the sup at truncation is attained at the smallest scale
        # t0 / UNIFORM_SCALES = 1/50;
        # the final step pair is (x_59, x_60) with distance x_59 = 1/60
        d = 1 / (trace.length - 1)
        expected = d / (1 / 50 + d)
        assert report.uniform_sup_deficit == pytest.approx(expected, rel=1e-6)

    def test_constant_trace_uniform(self, quad_space):
        trace = OrbitTrace.from_points(quad_space, [2.0] * 10, GRID_1_100)
        report = regularity_check(quad_space, trace)
        assert report.plain_all and report.uniform

    def test_uniform_implies_plain_on_scale_sequence(self, quad_space, perm_map):
        trace = picard_orbit(quad_space, perm_map, 1, t_grid=GRID_1_100)
        report = regularity_check(quad_space, trace)
        assert report.uniform
        follow = regularity_check(
            quad_space, rescaled(quad_space, trace, report.scale_sequence))
        assert follow.plain_all

    def test_short_trace_rejected(self, quad_space):
        trace = OrbitTrace.from_points(quad_space, [0.0, 1.0], GRID_1_100)
        with pytest.raises(DomainError):
            regularity_check(quad_space, trace)

    @pytest.mark.parametrize("steps", [[0.5, 0.2, 0.01],
                                       [1, 0.5, 0.25, 0.01, 0.0011, 0.0012]],
                             ids=["three-steps", "rising-tail"])
    def test_shrinking_tail_without_a_trend_is_not_regular(self, line_space,
                                                           steps):
        # the last deficit is within TREND_DECAY of the second half's first,
        # but three values are too few for a trend, and a rising tail is none
        trace = OrbitTrace.from_points(line_space, np.cumsum([0.0, *steps]),
                                       [1.0])
        deficits = 1.0 - trace.step_nearness[:, 0]
        assert deficits[-1] <= (dynamics.TREND_DECAY
                                * deficits[deficits.size // 2])
        assert deficits[-1] > dynamics.DEFAULT_TAIL_TOLERANCE
        assert regularity_check(line_space, trace).plain == {1.0: False}

    def test_each_scale_reads_its_own_column(self, ray_space):
        # plain-regular at the larger grid scales only, so a column read at
        # another scale changes the verdicts
        trace = OrbitTrace.from_points(ray_space, np.linspace(10, 5, 40),
                                       GRID_1_100)
        pts = np.array(trace.points)
        fresh = {t: dynamics._tail_converges_to_zero(
                     1.0 - ray_space.m(pts[:-1], pts[1:], t),
                     dynamics.DEFAULT_TAIL_TOLERANCE) for t in GRID_1_100}
        assert set(fresh.values()) == {True, False}
        assert regularity_check(ray_space, trace).plain == fresh
        gaps = g_cauchy_check(ray_space, trace)
        assert gaps.witness["m"] == 1
        assert gaps.witness["t"] == min(t for t in fresh if not fresh[t])
        assert all(rec["converged"] == fresh[rec["t"]]
                   for rec in gaps.records if rec["m"] == 1)


_LINE = Carrier.interval(0, 10, 11)
_TRIANGLE = Carrier.finite([0, 1, 2])


# Regularity reads a trace's step-nearness columns in place of scalar
# evaluations, which is sound only while the two agree bit for bit.
@pytest.mark.parametrize("space", [
    standard_fuzzy_metric(_LINE, metric("euclidean")),
    standard_fuzzy_metric(_LINE, metric("max-jachymski")),
    exponential_fuzzy_metric(_LINE, metric("euclidean")),
    exponential_fuzzy_metric(_LINE, metric("max-jachymski")),
    table_fuzzy_metric(_TRIANGLE, (0.5, 2.0, 8.0),
                       {(0, 1): (0.3, 0.6, 0.9), (0, 2): (0.2, 0.5, 0.8),
                        (1, 2): (0.4, 0.7, 0.95)}),
], ids=lambda space: space.provenance)
@given(data=st.data())
@settings(max_examples=200, derandomize=True, deadline=None)
def test_step_nearness_columns_equal_scalar_nearness(space, data):
    carrier = space.carrier
    point = (st.sampled_from(carrier.points) if carrier.is_finite
             else st.floats(carrier.low, carrier.high))
    points = data.draw(st.lists(point, min_size=2, max_size=10))
    t_grid = data.draw(st.lists(st.floats(1e-2, 1e2), min_size=1,
                                max_size=6, unique=True))
    trace = OrbitTrace.from_points(space, points, t_grid)
    for j, t in enumerate(trace.t_grid):
        for n in range(trace.steps):
            a, b = trace.points[n], trace.points[n + 1]
            assert trace.step_nearness[n, j] == space.m(a, b, t)


class TestMCauchy:
    def test_ray_trace_certified_with_exact_cut(self, ray_space, step_map):
        trace = picard_orbit(ray_space, step_map, 0.7, max_len=60,
                             t_grid=GRID_1_100)
        cert = m_cauchy_check(ray_space, rescaled(ray_space, trace, (1.0,)),
                              r_grid=(0.1,))
        assert cert.holds
        # x_N < 1/9 first holds at N = 9 (x_9 = 0.1)
        assert cert.records[0]["N"] == 9

    def test_ray_trace_full_grids(self, ray_space, step_map):
        trace = picard_orbit(ray_space, step_map, 0.7, max_len=60,
                             t_grid=GRID_1_100)
        cert = m_cauchy_check(ray_space, trace)   # default r grid, trace t grid
        assert cert.holds

    def test_divergent_trace_violated(self, line_space):
        trace = OrbitTrace.from_points(line_space, np.arange(50.0), GRID_1_100)
        cert = m_cauchy_check(line_space, rescaled(line_space, trace, (1.0,)),
                              r_grid=(0.5,))
        assert cert.verdict is CauchyVerdict.VIOLATED
        w = cert.witness
        # witness pair re-evaluates below the bound
        near = line_space.m(trace.points[w["n"]], trace.points[w["m"]],
                            w["t"])
        assert near <= 1 - w["r"]

    def test_constant_tail_cut_at_stabilization(self, quad_space, perm_map):
        trace = picard_orbit(quad_space, perm_map, 1, t_grid=(0.5,))
        cert = m_cauchy_check(quad_space, trace, r_grid=(0.5,))
        assert cert.holds
        # pairs involving 1, 5, 2 at t=0.5 are far; only the constant tail works
        assert cert.records[0]["N"] == 3


class TestGCauchy:
    def test_harmonic_g_holds_m_violated(self, line_space):
        # step gaps shrink like 1/n, so the fixed-gap series converge, but
        # the partial sums drift without bound; at a small scale even the
        # final adjacent pair misses the all-pairs bound
        trace = harmonic_trace(line_space)
        grid = tuple(float(t) for t in np.logspace(-2, 2, 10))
        g = g_cauchy_check(line_space, rescaled(line_space, trace, grid))
        assert g.holds
        m = m_cauchy_check(line_space, rescaled(line_space, trace, (0.01,)),
                           r_grid=(0.05,))
        assert m.verdict is CauchyVerdict.VIOLATED
        w = m.witness
        gap = abs(trace.points[w["m"]] - trace.points[w["n"]])
        assert w["t"] / (w["t"] + gap) <= 0.95

    def test_m_certified_implies_g(self, ray_space, step_map, quad_space,
                                   perm_map):
        # the stabilized orbit is continued so that gap series reach the tail
        settled = [1.0, 5.0, 2.0] + [0.0] * 9
        cases = [
            (ray_space, picard_orbit(ray_space, step_map, 0.7, max_len=60,
                                     t_grid=GRID_1_100)),
            (quad_space, OrbitTrace.from_points(quad_space, settled,
                                                GRID_1_100)),
            (quad_space, OrbitTrace.from_points(quad_space, [2.0] * 12,
                                                GRID_1_100)),
        ]
        for space, trace in cases:
            m = m_cauchy_check(space, trace)
            g = g_cauchy_check(space, trace)
            assert m.holds
            assert g.holds

    def test_too_short_trace(self, quad_space):
        trace = OrbitTrace.from_points(quad_space, [0.0, 1.0, 2.0], GRID_1_100)
        with pytest.raises(DomainError):
            g_cauchy_check(quad_space, trace)


class TestCauchyCriterion:
    def test_ray_orbit_plain_criterion(self, ray_space, step_map):
        trace = picard_orbit(ray_space, step_map, 0.7, max_len=60,
                             t_grid=GRID_1_100)
        cert = cauchy_criterion_check(
            ray_space, rescaled(ray_space, trace, (1.0, 10.0)), r_grid=SMALL_R)
        assert cert.holds, cert.to_dict()

    def test_quad_blended_criterion(self, quad_space, perm_map):
        trace = picard_orbit(quad_space, perm_map, 1, t_grid=GRID_1_100)
        cert = cauchy_criterion_check(
            quad_space, rescaled(quad_space, trace, (1.0, 10.0)),
            params=MParams(2, 2), r_grid=SMALL_R)
        assert cert.holds

    def test_expanding_cycle_violated(self):
        # 0 -> 0.1 -> 5 -> 5.1 -> 0: near points map to far points forever
        carrier = Carrier.finite([0.0, 0.1, 5.0, 5.1])
        space = exponential_fuzzy_metric(carrier, metric("euclidean"))
        T = table_map({0.0: 0.1, 0.1: 5.0, 5.0: 5.1, 5.1: 0.0}, carrier,
                      name="expander")
        trace = picard_orbit(space, T, 0.0, max_len=12, t_grid=(10.0,))
        cert = cauchy_criterion_check(space, trace, r_grid=(0.05,))
        assert cert.verdict is CauchyVerdict.VIOLATED
        w = cert.witness
        blend = space.m(trace.points[w["p"]], trace.points[w["q"]], w["t"])
        nxt = space.m(trace.points[w["p"] + 1], trace.points[w["q"] + 1],
                      w["t"])
        assert blend == pytest.approx(w["blend"], abs=1e-12)
        assert nxt < 1 - w["r"]


CRITERION_SPACE = standard_fuzzy_metric(Carrier.interval(0, 10, 101),
                                        metric("euclidean"))
CRITERION_T = (0.5, 5.0)
# in blocks of 2 or 3 scales, criterion refutations fall on index 4 (mid
# block) and 5 (a block's last scale)
BLOCK_T = (0.05, 0.2, 0.5, 1.0, 2.0, 5.0, 20.0)
# clustered values make near pairs with far successors common, so generated
# traces reach both verdicts
CLUSTER = (0.0, 0.01, 2.0, 2.01, 5.0)


def _sorted_search(F, E, r):
    """The one-sided finite search at threshold r over a stably sorted copy
    of a nonempty pair window: (record, None), or (None, witness index)
    when refuted, the witness being the last violator in sorted order."""
    order = np.argsort(F, kind="stable")
    Fs, Es = F[order], E[order]
    bad = np.nonzero(Es < (1.0 - r) - CLASS_TOL)[0]
    if bad.size == 0:
        return {"r": r, "rho": 1.0 - ENDPOINT_CLAMP, "vacuous": False}, None
    v = float(Fs[bad[-1]])
    rho = 1.0 - v
    if rho <= r + CLASS_TOL:
        return None, int(order[bad[-1]])
    if Fs[-1] > v:
        return {"r": r, "rho": rho, "vacuous": False}, None
    return {"r": r, "rho": rho, "vacuous": True, "reason": "gap"}, None


def _blend(space, params, xs, ys, txs, tys, t):
    """The blended comparison at scale t, one nearness call per factor."""
    fx = space.m(xs, txs, t) ** params.alpha
    fy = space.m(ys, tys, t) ** params.beta
    norm = space.tnorm
    return norm.apply(norm.apply(space.m(xs, ys, t), fx), fy)


def _reference_criterion(space, trace, params=None, r_grid=None):
    """The cut-by-cut scan: a freshly sorted search for every cut."""
    rs = threshold_grid(r_grid)
    grid = trace.t_grid
    pts = np.array(trace.points)
    sub = dynamics._cert_indices(trace.length - 1)
    xi, yi = np.triu_indices(len(sub), k=0)
    xi, yi = sub[xi], sub[yi]
    xs, ys = pts[xi], pts[yi]
    nxs, nys = pts[xi + 1], pts[yi + 1]
    cert = dynamics.CauchyCertificate(dynamics.CauchyKind.CRITERION,
                                      CauchyVerdict.HOLDS_ON_PREFIX, rs, grid)
    min_idx = np.minimum(xi, yi)
    for t in grid:
        if params is None:
            F = np.asarray(space.m(xs, ys, t), dtype=float)
        else:
            F = _blend(space, params, xs, ys, nxs, nys, t)
        E = np.asarray(space.m(nxs, nys, t), dtype=float)
        for r in rs:
            found = witness = None
            for cut in (c for c in sub if c < sub[-1]):
                sel = min_idx >= cut
                rec, k = _sorted_search(F[sel], E[sel], r)
                if rec is not None:
                    found = {"t": t, "N": int(cut), **rec}
                    break
                if witness is None:
                    orig = np.nonzero(sel)[0][k]
                    witness = {"t": t, "r": r, "p": int(xi[orig]),
                               "q": int(yi[orig]), "blend": float(F[orig]),
                               "next_nearness": float(E[orig])}
            if found is None:
                cert.verdict = CauchyVerdict.VIOLATED
                cert.witness = witness
                return cert
            cert.records.append(found)
    return cert


def _criterion_points(kind, k, u, v, draws):
    """Trace families of ``len(draws)`` points: oscillate then settle, random
    (the draws themselves), settle then oscillate; ``k`` points come first."""
    n = len(draws)
    swing = [u if i % 2 == 0 else v for i in range(n)]
    if kind == "oscillate-settle":
        return swing[:k] + [v + 2.0 ** -j for j in range(n - k)]
    if kind == "settle-oscillate":
        return [u + 2.0 ** -j for j in range(k)] + swing[:n - k]
    return [float(x) for x in draws]


@st.composite
def criterion_cases(draw):
    kind = draw(st.sampled_from(("oscillate-settle", "random",
                                 "settle-oscillate")))
    n = draw(st.integers(3, 30))
    k = draw(st.integers(0, n))
    u, v = draw(st.sampled_from(CLUSTER)), draw(st.sampled_from(CLUSTER))
    draws = draw(st.lists(st.sampled_from(CLUSTER), min_size=n, max_size=n))
    points = _criterion_points(kind, k, u, v, draws)
    params = draw(st.none() | st.sampled_from((MParams(0, 0), MParams(1, 2),
                                                MParams(2, 2))))
    return points, params


class TestCriterionCutSearch:
    def _compare(self, points, params, t_grid=CRITERION_T, per_block=None):
        """The check against the cut-by-cut scan, its scales evaluated in
        blocks of ``per_block`` (by default as many as the budget holds)."""
        trace = OrbitTrace.from_points(CRITERION_SPACE, points, t_grid)
        n = len(points) - 1                 # the pairs' smaller indices
        budget = (per_block * n * (n + 1) // 2 if per_block
                  else contractions._SCALE_BLOCK)
        with mock.patch.object(contractions, "_SCALE_BLOCK", budget):
            got = cauchy_criterion_check(CRITERION_SPACE, trace,
                                         params=params, r_grid=SMALL_R)
        ref = _reference_criterion(CRITERION_SPACE, trace, params,
                                   r_grid=SMALL_R)
        assert got.to_dict() == ref.to_dict()
        return got

    @settings(max_examples=150, derandomize=True, deadline=None)
    @given(criterion_cases(), st.sampled_from((CRITERION_T, BLOCK_T)),
           st.sampled_from((None, 1, 2, 3)))
    def test_matches_cut_by_cut_scan(self, case, t_grid, per_block):
        self._compare(*case, t_grid, per_block)

    def test_fixed_cases_reach_both_verdicts(self):
        rng = np.random.default_rng(3)
        verdicts = set()
        for kind in ("oscillate-settle", "random", "settle-oscillate"):
            for n in (5, 12, 30):
                for params in (None, MParams(2, 2)):
                    u, v = rng.choice(CLUSTER, 2)
                    points = _criterion_points(kind, n // 2, u, v,
                                               rng.choice(CLUSTER, n))
                    verdicts.add(self._compare(points, params).verdict)
        assert verdicts == {CauchyVerdict.HOLDS_ON_PREFIX,
                            CauchyVerdict.VIOLATED}

    @pytest.mark.parametrize("per_block", [2, 3])
    def test_refutations_mid_block_and_on_a_blocks_last_scale(self,
                                                              per_block):
        rng = np.random.default_rng(3)
        refuted = set()
        for kind in ("oscillate-settle", "random", "settle-oscillate"):
            for n in (5, 8, 12, 20, 30):
                for params in (None, MParams(2, 2), MParams(1, 2)):
                    for _ in range(3):
                        u, v = rng.choice(CLUSTER, 2)
                        points = _criterion_points(kind, n // 2, u, v,
                                                   rng.choice(CLUSTER, n))
                        cert = self._compare(points, params, BLOCK_T,
                                             per_block)
                        if cert.witness is not None:
                            refuted.add(BLOCK_T.index(cert.witness["t"]))
        # scale 4 opens a block and 5 closes one, for 2 and 3 per block
        assert {4, 5} <= refuted

    def test_premise_exactly_at_the_tolerance_is_fatal(self):
        # 1 - f == 0.5 + CLASS_TOL exactly, so the pair (1, 2) is a violator
        # whose rho sits on the bound, and it survives every cut
        f = 1.0 - (0.5 + CLASS_TOL)
        assert 1.0 - f == 0.5 + CLASS_TOL
        space = table_fuzzy_metric(
            Carrier.finite([0, 1, 2, 3]), (1.0,),
            {(0, 1): (0.1,), (0, 2): (0.1,), (0, 3): (0.9,),
             (1, 2): (f,), (1, 3): (0.9,), (2, 3): (0.3,)})
        trace = OrbitTrace.from_points(space, [0, 1, 2, 3], (1.0,))
        got = cauchy_criterion_check(space, trace, r_grid=(0.5,))
        ref = _reference_criterion(space, trace, r_grid=(0.5,))
        assert got.to_dict() == ref.to_dict()
        assert (got.witness["p"], got.witness["q"]) == (1, 2)

    @settings(max_examples=100, derandomize=True, deadline=None)
    @given(criterion_cases(), st.sampled_from(SMALL_R),
           st.sampled_from(CRITERION_T))
    def test_search_success_is_monotone_in_the_cut(self, case, r, t):
        """A fatal pair refutes every cut at or below min(p, q).

        A fatal pair has premise at or above 1-r (within CLASS_TOL) and a
        successor nearness below it.  It lies in the window of every cut up
        to its smaller index, so those cuts fail, and a cut above the
        smaller index of every fatal pair succeeds: success is monotone.
        """
        points, params = case
        trace = OrbitTrace.from_points(CRITERION_SPACE, points, CRITERION_T)
        pts = np.array(trace.points)
        sub = dynamics._cert_indices(trace.length - 1)
        xi, yi = np.triu_indices(len(sub), k=0)
        xi, yi = sub[xi], sub[yi]
        if params is None:
            F = CRITERION_SPACE.m(pts[xi], pts[yi], t)
        else:
            F = _blend(CRITERION_SPACE, params, pts[xi], pts[yi],
                       pts[xi + 1], pts[yi + 1], t)
        F = np.asarray(F, dtype=float)
        E = np.asarray(CRITERION_SPACE.m(pts[xi + 1], pts[yi + 1], t),
                       dtype=float)
        fatal = (E < (1.0 - r) - CLASS_TOL) & (1.0 - F <= r + CLASS_TOL)
        min_idx = np.minimum(xi, yi)
        success = []
        for cut in sub[:-1]:
            sel = min_idx >= cut
            rec, _ = _sorted_search(F[sel], E[sel], r)
            success.append(rec is not None)
            assert success[-1] == (not np.any(fatal & sel))
        assert success == sorted(success)

    def test_cut_starts_are_searched_once_per_check(self):
        # the search is built once per check, and only then are the rows
        # searched for where each cut starts; every scale, one per block
        # here, reuses them
        points = [5.0, 0.0, 5.0] + [2.0 + 2.0 ** -j for j in range(20)]
        trace = OrbitTrace.from_points(CRITERION_SPACE, points, BLOCK_T)
        n_pairs = 22 * 23 // 2
        built, calls = [], []
        searcher = contractions._threshold_search
        searchsorted = np.searchsorted

        def counted_searcher(rs, *args, **kwargs):
            built.append(kwargs["rows"])
            return searcher(rs, *args, **kwargs)

        def counted_searchsorted(a, *args, **kwargs):
            if any(a is rows for rows in built):
                calls.append(len(a))
            return searchsorted(a, *args, **kwargs)
        with mock.patch.object(dynamics, "_threshold_search",
                               counted_searcher), \
                mock.patch.object(np, "searchsorted", counted_searchsorted), \
                mock.patch.object(contractions, "_SCALE_BLOCK", n_pairs):
            cert = cauchy_criterion_check(CRITERION_SPACE, trace,
                                          r_grid=SMALL_R)
        assert cert.holds
        assert len(cert.records) == len(BLOCK_T) * len(SMALL_R)
        assert {rec["N"] for rec in cert.records} > {0}
        assert len(built) == 1 and calls == [n_pairs]

    def test_m_cauchy_witness_is_the_last_certified_pair(self):
        # (0, 3) and (1, 2) are the least near pairs, but the last cut
        # keeps only the last pair, (2, 3), which refutes r = 0.5 alone
        space = table_fuzzy_metric(
            Carrier.finite([0, 1, 2, 3]), (1.0,),
            {(0, 1): (0.9,), (0, 2): (0.9,), (0, 3): (0.2,),
             (1, 2): (0.2,), (1, 3): (0.9,), (2, 3): (0.4,)})
        trace = OrbitTrace.from_points(space, [0, 1, 2, 3], (1.0,))
        cert = m_cauchy_check(space, trace, r_grid=(0.5,))
        assert cert.verdict is CauchyVerdict.VIOLATED
        assert cert.witness == {"t": 1.0, "r": 0.5, "n": 2, "m": 3,
                                "nearness": 0.4}
        assert space.m(2, 3, 1.0) == 0.4 <= 1.0 - 0.5


def _per_threshold_criterion(space, trace, params=None, r_grid=None):
    """The per-(t, r) cut search: one stable sort per scale, then per
    threshold a fatal mask over it and a search over the sorted pairs
    masked to the first valid cut's window."""
    rs = threshold_grid(r_grid)
    grid = trace.t_grid
    pts = np.array(trace.points)
    sub = dynamics._cert_indices(trace.length - 1)
    cuts = sub[:-1]
    xi, yi = np.triu_indices(len(sub), k=0)
    xi, yi = sub[xi], sub[yi]
    xs, ys = pts[xi], pts[yi]
    nxs, nys = pts[xi + 1], pts[yi + 1]
    cert = dynamics.CauchyCertificate(dynamics.CauchyKind.CRITERION,
                                      CauchyVerdict.HOLDS_ON_PREFIX, rs, grid)
    min_idx = np.minimum(xi, yi)
    for t in grid:
        if params is None:
            F = np.asarray(space.m(xs, ys, t), dtype=float)
        else:
            F = _blend(space, params, xs, ys, nxs, nys, t)
        E = np.asarray(space.m(nxs, nys, t), dtype=float)
        order = np.argsort(F, kind="stable")
        Fs, Es, lows = F[order], E[order], min_idx[order]
        for r in rs:
            fatal = ((Es < (1.0 - r) - CLASS_TOL)
                     & (1.0 - Fs <= r + CLASS_TOL))
            first = (int(np.searchsorted(cuts, lows[fatal].max(), side="right"))
                     if fatal.any() else 0)
            if first == len(cuts):
                _, k = _sorted_search(F, E, r)
                cert.verdict = CauchyVerdict.VIOLATED
                cert.witness = {"t": t, "r": r, "p": int(xi[k]),
                                "q": int(yi[k]), "blend": float(F[k]),
                                "next_nearness": float(E[k])}
                return cert
            keep = lows >= cuts[first]
            rec, _ = _sorted_search(Fs[keep], Es[keep], r)
            cert.records.append({"t": t, "N": int(cuts[first]), **rec})
    return cert


LONG = dynamics.PAIR_CERT_CAP + 189       # 701 points, certified on 512
# even points at 0, odd ones at 1 or 2: with alpha = 1, beta = 0 every
# blend is at most 1/2, reached by violators, so the windows end in gaps
GAP_SPACE = table_fuzzy_metric(Carrier.finite([0, 1, 2]), (1.0,),
                               {(0, 1): (0.5,), (0, 2): (0.5,),
                                (1, 2): (0.1,)})


def _long_cluster_trace():
    rng = np.random.default_rng(5)
    head = [float(x) for x in rng.choice(CLUSTER, 400)]
    return CRITERION_SPACE, OrbitTrace.from_points(
        CRITERION_SPACE, head + [2.0 + 2.0 ** -j for j in range(LONG - 400)],
        CRITERION_T)


def _long_gap_trace():
    rng = np.random.default_rng(0)
    points = [0 if i % 2 == 0 else int(rng.integers(1, 3))
              for i in range(LONG)]
    return GAP_SPACE, OrbitTrace.from_points(GAP_SPACE, points, (1.0,))


def _long_refuted_trace():
    # the last certified pair (698, 699) is near, its successors are far
    points = [2.0 + 2.0 ** -j for j in range(LONG - 3)] + [2.0, 2.01, 7.0]
    return CRITERION_SPACE, OrbitTrace.from_points(CRITERION_SPACE, points,
                                                   (5.0, 0.5))


class TestCriterionLockstep:
    @pytest.mark.parametrize("make, params, r_grid", [
        (_long_cluster_trace, None, SMALL_R),
        (_long_cluster_trace, MParams(1, 2), SMALL_R),
        (_long_gap_trace, None, (0.05, 0.3, 0.9, 0.45, 0.6)),
        (_long_gap_trace, MParams(1, 0), (0.05, 0.3, 0.9, 0.45, 0.6)),
        (_long_gap_trace, MParams(1, 2), (0.05, 0.3, 0.9, 0.45, 0.6)),
        (_long_refuted_trace, None, (0.9, 0.5, 0.05)),
    ], ids=["cluster-plain", "cluster-blend", "gap-plain", "gap-blend-1-0",
            "gap-blend-1-2", "refuted-at-every-cut"])
    def test_matches_per_threshold_search(self, make, params, r_grid):
        space, trace = make()
        assert trace.length > dynamics.PAIR_CERT_CAP + 1
        got = cauchy_criterion_check(space, trace, params=params,
                                     r_grid=r_grid)
        ref = _per_threshold_criterion(space, trace, params, r_grid=r_grid)
        assert got.to_dict() == ref.to_dict()

    def test_the_largest_premise_beyond_the_cut_decides_a_gap(self):
        # with alpha = 1, beta = 0 the pair (p, q) blends to M(x_p, x_q)
        # M(x_p, x_p+1), below 1 on the diagonal too.  Fatal violators hold
        # row 0, so every threshold's first valid cut is 1.  Beyond it the
        # largest premise is 0.5, at (1, 1), (1, 3) and (2, 2); the largest
        # violator premise v is 0.5 at (1, 3) for r = 0.3 and 0.45, which
        # leaves the window a gap, and 0.25 at (2, 3) for r = 0.6, which
        # (1, 1) fills.  The smallest premise beyond the cut (0.01 at
        # (3, 4)), the least row maximum beyond it (0.1, rows 3 and 4) or
        # the largest premise of all (1 at (0, 0)) would tell otherwise.
        trace = OrbitTrace.from_points(GAP_SPACE, [1, 1, 0, 1, 2, 1], (1.0,))
        cert = cauchy_criterion_check(GAP_SPACE, trace, params=MParams(1, 0),
                                      r_grid=(0.3, 0.45, 0.6))
        gap = {"vacuous": True, "reason": "gap"}
        assert cert.records == [
            {"t": 1.0, "N": 1, "r": 0.3, "rho": 0.5, **gap},
            {"t": 1.0, "N": 1, "r": 0.45, "rho": 0.5, **gap},
            {"t": 1.0, "N": 1, "r": 0.6, "rho": 0.75, "vacuous": False}]

    def test_cases_cover_every_record_kind_and_a_refutation(self):
        kinds, verdicts = set(), set()
        for make, params, r_grid in (
                (_long_cluster_trace, None, SMALL_R),
                (_long_gap_trace, MParams(1, 0), (0.3, 0.9)),
                (_long_refuted_trace, None, (0.9, 0.5, 0.05))):
            space, trace = make()
            cert = cauchy_criterion_check(space, trace, params=params,
                                          r_grid=r_grid)
            verdicts.add(cert.verdict)
            kinds |= {(rec["vacuous"], rec["N"] > 0) for rec in cert.records}
        assert verdicts == {CauchyVerdict.HOLDS_ON_PREFIX,
                            CauchyVerdict.VIOLATED}
        assert {(False, False), (False, True), (True, False)} <= kinds

    @pytest.mark.parametrize("below, verdict", [
        (False, CauchyVerdict.HOLDS_ON_PREFIX),
        (True, CauchyVerdict.VIOLATED)])
    def test_conclusion_exactly_at_the_target_is_no_violation(self, below,
                                                              verdict):
        # the pair (1, 2) is near; its successors' nearness sits on
        # (1 - r) - CLASS_TOL, or one double below it
        e = (1.0 - 0.5) - CLASS_TOL
        if below:
            e = float(np.nextafter(e, 0.0))
        space = table_fuzzy_metric(
            Carrier.finite([0, 1, 2, 3]), (1.0,),
            {(0, 1): (0.9,), (0, 2): (0.9,), (0, 3): (0.9,),
             (1, 2): (0.9,), (1, 3): (0.9,), (2, 3): (e,)})
        trace = OrbitTrace.from_points(space, [0, 1, 2, 3], (1.0,))
        # 0.5 is the loosest threshold, so the pair sits on the bound that
        # decides which pairs can violate at all
        got = cauchy_criterion_check(space, trace, r_grid=(0.9, 0.5))
        assert got.verdict is verdict
        ref = _reference_criterion(space, trace, r_grid=(0.9, 0.5))
        assert got.to_dict() == ref.to_dict()


# quarter steps on both carriers make many pair and successor distances tie
_DECLARED_CARRIERS = {
    "finite": Carrier.finite([0.0, 0.25, 0.5, 1.0, 2.0, 2.25, 2.5, 5.0]),
    "interval": Carrier.interval(0, 10, 101)}
_DECLARED_SPACES = {
    f"{build.__name__}-{d}-{where}": build(carrier, metric(d))
    for build in (standard_fuzzy_metric, exponential_fuzzy_metric)
    for d in ("euclidean", "max-jachymski")
    for where, carrier in _DECLARED_CARRIERS.items()}


def _settle(carrier, v, n):
    """``n`` points from v toward the carrier's lowest point, on the
    carrier: down its points, or halving the distance, then staying."""
    if carrier.is_finite:
        down = [p for p in sorted(carrier.points, reverse=True) if p <= v]
        return (down + down[-1:] * n)[:n]
    return [carrier.low + (v - carrier.low) * 0.5 ** j for j in range(n)]


@st.composite
def declared_criterion_cases(draw):
    """A declared space and a trace on its carrier: random points, or an
    oscillation before or after a settling run; repeats and quarter steps
    tie distances.  A refuting tail w, w, z ends the trace with a pair of
    equal points whose successors lie apart, which survives every cut."""
    name = draw(st.sampled_from(sorted(_DECLARED_SPACES)))
    carrier = _DECLARED_SPACES[name].carrier
    value = (st.sampled_from(carrier.points) if carrier.is_finite else
             st.integers(0, 40).map(lambda k: k / 4) | st.floats(0.0, 10.0))
    n = draw(st.integers(3, 30) | st.integers(31, 117))
    kind = draw(st.sampled_from(("random", "oscillate-settle",
                                 "settle-oscillate")))
    k = draw(st.integers(0, n))
    u, v = draw(value), draw(value)
    swing = [u if i % 2 == 0 else v for i in range(n)]
    if kind == "random":
        points = draw(st.lists(value, min_size=n, max_size=n))
    elif kind == "oscillate-settle":
        points = swing[:k] + _settle(carrier, v, n - k)
    else:
        points = _settle(carrier, u, k) + swing[:n - k]
    if draw(st.booleans()):
        w = draw(value)
        points += [w, w, draw(value)]
    return name, points


class TestCriterionOrderedPath:
    """On a declared space the criterion reads each scale at the distinct
    pair and successor distances; its certificates are the per-pair
    path's."""

    @staticmethod
    def _compare(space, points, t_grid, r_grid):
        trace = OrbitTrace.from_points(space, points, t_grid)
        got = cauchy_criterion_check(space, trace, r_grid=r_grid).to_dict()
        plain = dataclasses.replace(space, distance=None)
        assert got == cauchy_criterion_check(plain, trace,
                                             r_grid=r_grid).to_dict()
        assert got == _reference_criterion(space, trace,
                                           r_grid=r_grid).to_dict()
        return got

    @pytest.mark.simd
    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(declared_criterion_cases(),
           st.lists(st.sampled_from(BLOCK_T) | st.floats(0.01, 100.0),
                    min_size=1, max_size=8),
           st.none() | st.lists(st.sampled_from(SMALL_R)
                                | st.floats(1e-4, 0.9999),
                                min_size=1, max_size=8))
    def test_matches_per_pair_path(self, case, t_grid, r_grid):
        name, points = case
        self._compare(_DECLARED_SPACES[name], points, t_grid, r_grid)

    @pytest.mark.simd
    def test_fixed_traces_reach_both_verdicts(self):
        rng = np.random.default_rng(7)
        verdicts = set()
        for name, space in sorted(_DECLARED_SPACES.items()):
            carrier = space.carrier
            pool = (carrier.points if carrier.is_finite
                    else np.arange(0.0, 10.25, 0.25))
            u, v = (float(p) for p in rng.choice(pool, 2))
            for points in ([u, v] * 10 + _settle(carrier, v, 30),
                           [float(p) for p in rng.choice(pool, 40)]):
                got = self._compare(space, points, BLOCK_T, SMALL_R)
                verdicts.add(got["verdict"])
        assert verdicts == {"holds_on_prefix", "violated"}

    def test_off_carrier_traces_keep_the_per_pair_path(self, ray_space,
                                                       monkeypatch):
        # max(-3, -2) = -2 is no distance, and t / (t - 2) is no nearness:
        # a trace off the carrier evaluates every pair and successor pair
        points = [-3.0, -2.0, 5.0, 0.5, -2.0, 0.25, 0.125]
        trace = OrbitTrace.from_points(ray_space, points, (1.0, 10.0))
        count = _NearnessCount(monkeypatch)
        got = cauchy_criterion_check(ray_space, trace, r_grid=(0.9, 0.5))
        n = len(points) - 1
        assert count.pairs == [n * (n + 1) // 2] * 2
        assert got.to_dict() == _reference_criterion(
            ray_space, trace, r_grid=(0.9, 0.5)).to_dict()


@pytest.mark.parametrize("points, bad", [
    ([0.5, math.nan, 0.25, 0.2], "nan at index 1"),
    ([math.nan, 1.0, 0.5, 0.25], "nan at index 0"),
    ([math.inf, 1.0, 0.5, 0.25], "inf at index 0")])
def test_trace_points_must_be_finite(points, bad):
    # every comparison with NaN is false, so such a trace used to get
    # holds_on_prefix from the criterion (and the first from m_cauchy_check)
    sc = load_scenario("ex62")
    with pytest.raises(DomainError, match=f"must be finite, got {bad}"):
        OrbitTrace.from_points(sc.build_space(), points, sc.t_grid)


@pytest.mark.parametrize("check", [m_cauchy_check, cauchy_criterion_check])
@pytest.mark.parametrize("grids", [{"r_grid": []}, {"t_grid": []}])
def test_cauchy_checks_refuse_an_empty_grid(check, grids):
    sc = load_scenario("ex62")
    space = sc.build_space()
    # a check reads the trace's scales, so an empty one is refused there
    with pytest.raises(DomainError, match="at least one"):
        trace = OrbitTrace.from_points(space, [1.0, 0.5, 0.25, 0.125],
                                       grids.get("t_grid", sc.t_grid))
        check(space, trace, r_grid=grids.get("r_grid"))


class TestContractionTraceInvariants:
    @pytest.fixture
    def collapse_map(self, quad_space):
        # strictly distance-decreasing table map on {0,1,2,5}
        return table_map({0: 0, 1: 0, 2: 0, 5: 1}, quad_space.carrier,
                         name="collapse")

    def test_cm_map_traces_are_plain_regular(self, quad_space, collapse_map):
        report = cm_contractive_check(quad_space, collapse_map,
                                      r_grid=SMALL_R, t_grid=GRID_1_100)
        assert report.satisfied, report.to_dict()
        for x0 in (1.0, 2.0, 5.0):
            trace = picard_orbit(quad_space, collapse_map, x0,
                                 t_grid=GRID_1_100)
            if trace.length < 3:
                continue
            rep = regularity_check(quad_space, trace)
            assert rep.plain_all

    def test_cm_map_traces_on_strong_space_certified(self, quad_space,
                                                     collapse_map):
        assert quad_space.strong
        for x0 in (1.0, 2.0, 5.0):
            trace = picard_orbit(quad_space, collapse_map, x0,
                                 t_grid=GRID_1_100)
            if trace.length < 2:
                continue
            cert = m_cauchy_check(quad_space, trace)
            assert cert.holds


class TestSolver:
    def test_quad_blended_route(self, quad_space, perm_map):
        cfg = SolverConfig(t_grid=GRID_1_100, r_grid=SMALL_R, alpha=2, beta=2,
                           psi=gauge("power:5/7"))
        result = solve_fixed_point(quad_space, perm_map, 1, Route.M_FINAL, cfg)
        assert result.audit_passed, result.to_dict()
        assert result.converged
        assert result.fixed_point == 0.0
        assert result.exact
        assert result.iterations == 3
        assert result.unique
        assert result.fixed_points_found == [0.0]

    def test_quad_all_starts_converge(self, quad_space, perm_map):
        cfg = SolverConfig(t_grid=GRID_1_100, r_grid=SMALL_R, alpha=2, beta=2,
                           psi=gauge("power:5/7"))
        for x0 in (0, 1, 2, 5):
            result = solve_fixed_point(quad_space, perm_map, x0, Route.M_FINAL,
                                       cfg)
            assert result.fixed_point == 0.0
            assert result.converged

    def test_finite_orbit_short_of_a_fixed_point_is_diagnosed(self):
        sc = load_scenario("ex63")
        cfg = dataclasses.replace(sc.solver_config(), max_len=1)
        result = solve_fixed_point(sc.build_space(), sc.build_map(), 5.0,
                                   sc.route, cfg)
        assert result.audit_passed and result.trace.points == (5.0, 2.0)
        assert not result.converged and result.fixed_point is None
        assert result.diagnosis == "no fixed point reached within 1 steps"

    def test_quad_cm_route_fails_precondition(self, quad_space, perm_map):
        cfg = SolverConfig(t_grid=GRID_1_100, r_grid=SMALL_R)
        result = solve_fixed_point(quad_space, perm_map, 1, Route.CM_STRONG, cfg)
        assert not result.audit_passed
        assert result.failing_condition() == "contraction"
        assert not result.converged
        item = [a for a in result.audit if a.condition == "contraction"][0]
        assert item.detail["witness"]["x"] == 0.0
        assert item.detail["witness"]["y"] == 1.0

    def test_ray_cm_strong_converges_toward_zero(self, ray_space, step_map):
        cfg = SolverConfig(t_grid=GRID_1_100, r_grid=SMALL_R, max_len=2000)
        result = solve_fixed_point(ray_space, step_map, 0.7, Route.CM_STRONG,
                                   cfg)
        assert result.audit_passed, result.to_dict()
        assert result.fixed_point == pytest.approx(0.0, abs=1e-3)
        assert not result.exact

    def test_auto_route_picks_cm_strong(self, ray_space, step_map):
        cfg = SolverConfig(t_grid=GRID_1_100, r_grid=SMALL_R, max_len=500)
        result = solve_fixed_point(ray_space, step_map, 0.7, Route.AUTO, cfg)
        assert result.route is Route.CM_STRONG
        assert result.audit_passed

    def test_auto_route_shares_orbit_and_contraction_check(
            self, quad_space, perm_map, monkeypatch):
        calls = {"picard_orbit": 0, "cm_contractive_check": 0}
        for name in calls:
            def counted(*args, _name=name, _fn=getattr(dynamics, name),
                        **kwargs):
                calls[_name] += 1
                return _fn(*args, **kwargs)
            monkeypatch.setattr(dynamics, name, counted)
        cfg = SolverConfig(t_grid=GRID_1_100, r_grid=SMALL_R, alpha=2, beta=2,
                           psi=gauge("power:5/7"))
        auto = solve_fixed_point(quad_space, perm_map, 1, Route.AUTO, cfg)
        assert calls == {"picard_orbit": 1, "cm_contractive_check": 1}
        assert auto.route is Route.M_FINAL
        direct = solve_fixed_point(quad_space, perm_map, 1, Route.M_FINAL, cfg)
        assert auto.to_dict() == direct.to_dict()

    def test_cauchy_prefix_is_not_convergence(self):
        sc = load_scenario("ex62")
        cfg = sc.solver_config()
        cfg.max_len = 50
        result = solve_fixed_point(sc.build_space(), sc.build_map(), sc.x0,
                                   sc.route, cfg)
        assert result.audit_passed and result.cauchy.holds
        assert result.converged is False
        assert result.diagnosis.startswith("orbit not yet within stop tolerance")

    @pytest.mark.parametrize("max_len, passed", [(10, True), (2, False)])
    def test_m_final_over_a_non_strong_space_audits_uniform_regularity(
            self, quad_space, perm_map, max_len, passed):
        # the strong flag alone turns the plain regularity audit into the
        # uniform one; the orbit 1, 5, 2 ends on a step far from 1 at the
        # small scales, the orbit reaching 0 is uniformly regular
        cfg = SolverConfig(t_grid=GRID_1_100, r_grid=SMALL_R, alpha=2, beta=2,
                           psi=gauge("power:5/7"), max_len=max_len)
        space = dataclasses.replace(quad_space, strong=False)
        result = solve_fixed_point(space, perm_map, 1, Route.M_FINAL, cfg)
        conditions = [a.condition for a in result.audit]
        assert conditions[-1] == "uniform-regularity-at-start"
        assert "regularity-at-start" not in conditions
        assert result.audit_passed is passed is result.converged
        if passed:
            assert result.failing_condition() is None
            assert result.diagnosis is None and result.fixed_point == 0.0
        else:
            assert result.failing_condition() == "uniform-regularity-at-start"
            assert result.diagnosis == ("precondition failed: "
                                        "uniform-regularity-at-start")

    def test_incomplete_scenario_fails_audit(self, quad_space, perm_map):
        cfg = SolverConfig(t_grid=GRID_1_100, r_grid=SMALL_R, complete=False,
                           alpha=2, beta=2, psi=gauge("power:5/7"))
        result = solve_fixed_point(quad_space, perm_map, 1, Route.M_FINAL, cfg)
        assert not result.audit_passed
        assert result.failing_condition() == "declared-complete"


# ---------------------------------------------------------------------------
# blocked orbits and the triangle-only M-Cauchy check against the loops they
# replace
# ---------------------------------------------------------------------------

def _reference_orbit(space, T, x0, max_len, stop_tolerance, t_grid):
    """The step-by-step orbit loop: one nearness call per step."""
    grid = scale_grid(t_grid)
    carrier = space.carrier
    ts = np.array(grid)
    if T.apply(x0, carrier) == x0:
        return OrbitTrace((float(x0),), grid, np.zeros((0, len(grid))),
                          StopReason.START_FIXED, T.name)
    points = [float(x0)]
    rows = []
    reason = StopReason.MAX_LEN
    for _ in range(max_len):
        x = points[-1]
        x_next = T.apply(x, carrier)
        points.append(x_next)
        near = np.asarray(space.m(x, x_next, ts), dtype=float)
        rows.append(near)
        if x_next == x:
            reason = StopReason.FIXED_POINT
            break
        if float(near.min()) > 1.0 - stop_tolerance:
            reason = StopReason.TOLERANCE
            break
    return OrbitTrace(tuple(points), grid, np.array(rows), reason, T.name)


def _reference_m_cauchy(space, trace, r_grid=None):
    """The M-Cauchy check over the dense pair matrix."""
    rs = threshold_grid(r_grid)
    grid = trace.t_grid
    idx = dynamics._cert_indices(trace.length)
    pts = np.array(trace.points)[idx]
    cert = dynamics.CauchyCertificate(dynamics.CauchyKind.M_CAUCHY,
                                      CauchyVerdict.HOLDS_ON_PREFIX, rs, grid)
    n = len(pts)
    above = np.triu(np.ones((n, n), dtype=bool), k=1)
    for t in grid:
        near = np.asarray(space.m(pts[:, None], pts[None, :], t), dtype=float)
        upper = np.where(above, near, np.inf)
        row_min = np.full(n, np.inf)
        row_min[:-1] = upper[:-1].min(axis=1)
        g = np.minimum.accumulate(row_min[::-1])[::-1]
        for r in rs:
            valid = np.nonzero(g[:n - 1] > 1.0 - r)[0]
            if valid.size:
                cert.records.append({"t": t, "r": r, "N": int(idx[valid[0]])})
            else:
                # the last pair, which every cut keeps
                cert.verdict = CauchyVerdict.VIOLATED
                cert.witness = {"t": t, "r": r, "n": int(idx[-2]),
                                "m": int(idx[-1]),
                                "nearness": float(near[-2, -1])}
                return cert
    return cert


_INTERVAL = Carrier.interval(0, 10, 201)
_QUAD = Carrier.finite([0, 1, 2, 5])
_ORBIT_SPACES = {
    f"{build.__name__}-{d}": build(_INTERVAL, metric(d))
    for build in (standard_fuzzy_metric, exponential_fuzzy_metric)
    for d in ("euclidean", "max-jachymski")}
_QUAD_SPACES = [build(_QUAD, metric(d))
                for build in (standard_fuzzy_metric, exponential_fuzzy_metric)
                for d in ("euclidean", "max-jachymski")]
_QUAD_SPACES.append(table_fuzzy_metric(
    _QUAD, (0.5, 2.0, 8.0),
    {(0, 1): (0.3, 0.6, 0.9), (0, 2): (0.2, 0.5, 0.8),
     (0, 5): (0.1, 0.3, 0.6), (1, 2): (0.4, 0.7, 0.95),
     (1, 5): (0.2, 0.4, 0.7), (2, 5): (0.3, 0.5, 0.8)}))
_INTERVAL_MAPS = ("phi-step", "expr:x/(1+0.75*x)", "expr:x/2")
# t + d never reaches 0 on the negative carrier: exp(-d/t) alone
_CAUCHY_SPACES = {**_ORBIT_SPACES, "exp-max-jachymski-negative":
                  exponential_fuzzy_metric(Carrier.interval(-5.0, 10.0),
                                           metric("max-jachymski"))}
_ORBIT_GRID = (1.0, 2.5, 10.0, 40.0)


def _assert_same_orbit(space, T, x0, max_len, stop_tolerance,
                       t_grid=_ORBIT_GRID, r_grid=SMALL_R):
    new = picard_orbit(space, T, x0, max_len, stop_tolerance, t_grid)
    old = _reference_orbit(space, T, x0, max_len, stop_tolerance, t_grid)
    assert new.points == old.points
    assert new.stop_reason is old.stop_reason
    assert new.step_nearness.shape == old.step_nearness.shape
    assert np.array_equal(new.step_nearness.view(np.int64),
                          old.step_nearness.view(np.int64))
    if new.length >= 2:
        assert (m_cauchy_check(space, new, r_grid).to_dict()
                == _reference_m_cauchy(space, old, r_grid).to_dict())
    return new


def _tolerance_stopping_at(space, T, x0, row):
    """A stop tolerance on which the step-by-step loop stops at ``row``."""
    free = _reference_orbit(space, T, x0, row + 1, 0.0, _ORBIT_GRID)
    worst = free.step_nearness.min(axis=1)
    assert np.all(np.diff(worst) > 0)
    tol = 1.0 - (worst[row - 1] + worst[row]) / 2 if row else 1.0 - worst[0] / 2
    stopped = _reference_orbit(space, T, x0, 10000, tol, _ORBIT_GRID)
    assert stopped.stop_reason is StopReason.TOLERANCE
    assert stopped.steps == row + 1
    return tol


def _counted(T, calls):
    """T with every call of its function recorded in ``calls``."""
    def fn(x):
        calls.append(x)
        return T.fn(x)
    return SelfMap(T.name, fn)


def _block_end(step):
    """The last step of the orbit block that holds ``step`` (from 1)."""
    end, block = 0, dynamics._FIRST_BLOCK
    while end < step:
        end += block
        block = min(2 * block, dynamics._LAST_BLOCK)
    return end


class TestBlockedOrbit:
    @pytest.mark.parametrize("name", sorted(_ORBIT_SPACES))
    @pytest.mark.parametrize("spec", _INTERVAL_MAPS)
    @pytest.mark.parametrize("max_len", [1, 15, 16, 17, 10000])
    def test_interval_orbits_match_step_loop(self, name, spec, max_len):
        space = _ORBIT_SPACES[name]
        trace = _assert_same_orbit(space, self_map(spec), 7.0, max_len, 1e-9)
        if max_len < 10000:
            assert trace.stop_reason is StopReason.MAX_LEN

    @pytest.mark.parametrize("space", _QUAD_SPACES,
                             ids=lambda space: space.provenance)
    @pytest.mark.parametrize("x0, reason", [(0, StopReason.START_FIXED),
                                            (1, StopReason.FIXED_POINT),
                                            (2, StopReason.FIXED_POINT)])
    @pytest.mark.parametrize("max_len", [1, 15, 16, 17, 10000])
    def test_quad_orbits_match_step_loop(self, space, x0, reason, max_len):
        trace = _assert_same_orbit(space, self_map("perm-0-1-2-5"), x0,
                                   max_len, 1e-9)
        assert trace.stop_reason in (reason, StopReason.MAX_LEN)

    def test_every_stop_reason_is_reached(self):
        space = _ORBIT_SPACES["standard_fuzzy_metric-euclidean"]
        seen = {_assert_same_orbit(space, self_map(spec), x0, max_len,
                                   1e-9).stop_reason
                for spec, x0, max_len in [("expr:x/2", 0.0, 100),
                                          ("expr:x/2", 7.0, 10000),
                                          ("expr:x/2", 7.0, 17),
                                          ("phi-step", 0.7, 10000)]}
        seen.add(_assert_same_orbit(_QUAD_SPACES[0], self_map("perm-0-1-2-5"),
                                    1, 10000, 1e-9).stop_reason)
        assert seen == {StopReason.START_FIXED, StopReason.FIXED_POINT,
                        StopReason.TOLERANCE, StopReason.MAX_LEN}

    # rows 0, 16, 48 and 112 open a block; rows 15, 47 and 111 close one
    @pytest.mark.parametrize("row", [0, 1, 15, 16, 47, 48, 111, 112])
    @pytest.mark.parametrize("name", sorted(_ORBIT_SPACES))
    def test_tolerance_stop_on_block_edges(self, name, row):
        space = _ORBIT_SPACES[name]
        calls = []

        def counted(x):
            calls.append(x)
            return x / (1 + 0.75 * x)
        T = SelfMap("counted", counted)
        tol = _tolerance_stopping_at(space, T, 7.0, row)
        trace = _assert_same_orbit(space, T, 7.0, 10000, tol)
        assert trace.stop_reason is StopReason.TOLERANCE
        assert trace.steps == row + 1
        calls.clear()
        picard_orbit(space, T, 7.0, 10000, tol, _ORBIT_GRID)
        # one start check, the kept steps, then the rest of the stop's block
        assert len(calls) - 1 - trace.steps <= trace.steps + 15

    def test_fixed_repeat_on_the_stopping_row_is_a_fixed_point(self):
        # 1 -> 5 -> 2 -> 0 -> 0: the repeat's row is all ones and is the
        # first to clear a tolerance halfway to the earlier rows' best
        space = _QUAD_SPACES[0]
        T = self_map("perm-0-1-2-5")
        free = _reference_orbit(space, T, 1, 10, 0.0, _ORBIT_GRID)
        tol = (1.0 - free.step_nearness[:-1].min(axis=1).max()) / 2
        trace = _assert_same_orbit(space, T, 1, 10000, tol)
        assert trace.stop_reason is StopReason.FIXED_POINT

    @given(x0=st.floats(0.05, 10.0), c=st.floats(0.1, 4.0),
           tol=st.floats(1e-12, 0.5), max_len=st.sampled_from([1, 15, 16, 17,
                                                              10000]),
           exp=st.booleans())
    @settings(max_examples=40, derandomize=True, deadline=None)
    def test_random_orbits_match_step_loop(self, x0, c, tol, max_len, exp):
        space = _ORBIT_SPACES["exponential_fuzzy_metric-euclidean" if exp
                              else "standard_fuzzy_metric-max-jachymski"]
        _assert_same_orbit(space, self_map(f"expr:x/(1+{c!r}*x)"), x0,
                           max_len, tol)

    @pytest.mark.parametrize("carrier, spec, x0", [
        pytest.param(Carrier.interval(1e-3, 4, 101), "expr:x/2", 4.0,
                     id="expr:x/2-0.001-4.0"),
        pytest.param(Carrier.interval(0.0, 4, 101), "expr:x-1/64", 4.0,
                     id="expr:x-1/64-0.0-4.0"),
        # step 17, the first of the second block, leaves the carrier
        pytest.param(Carrier.interval(0.0, 4, 101), "expr:x-1/4", 4.0,
                     id="expr:x-1/4-0.0-4.0"),
        # the image leaves the carrier and the next step raises, in one block
        pytest.param(Carrier.interval(0.5, 4, 101), "expr:ln(x)", 4.0,
                     id="expr:ln(x)-0.5-4.0"),
        pytest.param(_QUAD, {0: 1, 1: 2, 2: 5, 5: 7}, 0.0,
                     id="table-0-1-2-5-7")])
    def test_map_error_raised_only_when_no_step_stops(self, carrier, spec,
                                                      x0):
        space = standard_fuzzy_metric(carrier, metric("euclidean"))
        T = (self_map(spec) if isinstance(spec, str)
             else table_map(spec, carrier))
        trace = _assert_same_orbit(space, T, x0, 10000,
                                   _tolerance_stopping_at(space, T, x0, 0))
        assert trace.stop_reason is StopReason.TOLERANCE
        old_calls, new_calls = [], []
        with pytest.raises(DomainError) as old:
            _reference_orbit(space, _counted(T, old_calls), x0, 10000, 1e-15,
                             _ORBIT_GRID)
        with pytest.raises(DomainError) as new:
            picard_orbit(space, _counted(T, new_calls), x0, 10000, 1e-15,
                         _ORBIT_GRID)
        assert str(new.value) == str(old.value)
        assert "outside the carrier" in str(new.value)
        # past the image off the carrier (the reference's last call), the
        # map runs at most to the end of that image's block
        assert len(new_calls) - 1 <= _block_end(len(old_calls) - 1)
        # a step off the carrier never stops the orbit: ln(x)'s second step
        # is nearer than its first, past 1 - 0.6 where the first is not
        for tol in (0.6, 0.9):
            try:
                _reference_orbit(space, T, x0, 10000, tol, _ORBIT_GRID)
            except DomainError as exc:
                with pytest.raises(DomainError, match=re.escape(str(exc))):
                    picard_orbit(space, T, x0, 10000, tol, _ORBIT_GRID)
            else:
                _assert_same_orbit(space, T, x0, 10000, tol)

    def test_map_error_after_a_stop_in_its_block_is_dropped(self):
        # x/2 leaves [1e-3, 4] at step 12, inside the first block
        space = standard_fuzzy_metric(Carrier.interval(1e-3, 4, 101),
                                      metric("euclidean"))
        T = self_map("expr:x/2")
        for row in range(11):
            tol = _tolerance_stopping_at(space, T, 4.0, row)
            trace = _assert_same_orbit(space, T, 4.0, 10000, tol)
            assert trace.steps == row + 1

    def test_ex62_orbit_matches_step_loop(self):
        sc = load_scenario("ex62")
        cfg = sc.solver_config()
        _assert_same_orbit(sc.build_space(), sc.build_map(), sc.x0,
                           cfg.max_len, cfg.stop_tolerance, sc.t_grid,
                           sc.r_grid)

    @pytest.mark.parametrize("points", [[0, 1] * 30, list(range(50)),
                                        [5, 2, 5, 1, 0, 0, 1],
                                        np.cumsum(1.0 / np.arange(1, 700))])
    def test_m_cauchy_matches_dense_check(self, line_space, points):
        trace = OrbitTrace.from_points(line_space, points, GRID_1_100)
        for rs in (SMALL_R, None, (0.999,)):
            assert (m_cauchy_check(line_space, trace, rs).to_dict()
                    == _reference_m_cauchy(line_space, trace, rs).to_dict())

    @pytest.mark.simd
    @given(name=st.sampled_from(sorted(_CAUCHY_SPACES)),
           points=st.lists(st.floats(0.0, 10.0)
                           | st.integers(0, 10).map(float),
                           min_size=2, max_size=40),
           tail=st.integers(0, 600), repeats=st.integers(0, 3),
           rs=st.lists(st.sampled_from(SMALL_R) | st.floats(1e-4, 0.9999),
                       min_size=1, max_size=12),
           refuting=st.booleans())
    @settings(max_examples=100, derandomize=True, deadline=None)
    def test_m_cauchy_matches_dense_check_on_random_traces(
            self, name, points, tail, repeats, rs, refuting):
        # a geometric tail lets small thresholds hold; random points alone
        # violate most of them.  Whole points put nearness on a bound, as
        # 1/(1+1) on 1-0.5, and repeat; so does a point held for a few
        # steps.  The r grids come unsorted, with repeats; a refuting one
        # adds a threshold the last pair misses, so the witness is
        # compared too.  Declared spaces read the tails' widest pairs;
        # the negative max-jachymski carrier declares none.
        space = _CAUCHY_SPACES[name]
        low = space.carrier.points[0]
        points = [low + p for p in points]
        points += [points[-1] * 0.9 ** k for k in range(1, tail + 1)]
        points += [points[-1]] * repeats
        trace = OrbitTrace.from_points(space, points, _ORBIT_GRID)
        if refuting:
            p, q = trace.points[-2:]
            rs = rs + [max(1e-6, 0.5 * (1.0 - space.m(p, q, 1.0)))]
        assert (m_cauchy_check(space, trace, rs).to_dict()
                == _reference_m_cauchy(space, trace, rs).to_dict())

    def test_m_cauchy_reads_tails_on_the_carrier_alone(self, ray_space):
        # max(-3, -2) = -2 is no distance: at t = 1 that pair's nearness is
        # -1, below the widest pair's 1/6, so a trace off the carrier takes
        # the dense path
        trace = OrbitTrace.from_points(ray_space, [-3.0, -2.0, 5.0, 0.5],
                                       (1.0, 10.0))
        cert = m_cauchy_check(ray_space, trace, (0.9, 0.5))
        assert cert.to_dict() == _reference_m_cauchy(ray_space, trace,
                                                     (0.9, 0.5)).to_dict()
        assert cert.records[0] == {"t": 1.0, "r": 0.9, "N": 1}

    def test_rows_match_elementwise_export(self, ray_space, step_map):
        trace = picard_orbit(ray_space, step_map, 0.7, 100, 1e-9, GRID_1_100)
        assert trace.rows() == [
            {"n": n, "x": x, **({"step_nearness": [
                float(v) for v in trace.step_nearness[n]]}
                if n < trace.steps else {})}
            for n, x in enumerate(trace.points)]


class _NearnessCount:
    """Counts nearness work in its two stages: the size of each pair set
    ``FuzzySpace.pairs`` prepares, and the elements each scale-stage call
    evaluates.  ``FuzzySpace.m`` is one call of each."""

    def __init__(self, monkeypatch):
        self.pairs, self.scales = [], []
        prepare = FuzzySpace.pairs

        def counted(space, x, y):
            shape = np.broadcast_shapes(np.shape(x), np.shape(y))
            self.pairs.append(math.prod(shape))
            at = prepare(space, x, y)

            def scale(t):
                self.scales.append(
                    math.prod(np.broadcast_shapes(shape, np.shape(t))))
                return at(t)
            return scale
        monkeypatch.setattr(FuzzySpace, "pairs", counted)


class TestOrbitWorkCounts:
    def test_ex62_orbit_evaluates_nearness_per_block(self, monkeypatch):
        sc = load_scenario("ex62")
        cfg = sc.solver_config()
        count = _NearnessCount(monkeypatch)
        trace = picard_orbit(sc.build_space(), sc.build_map(), sc.x0,
                             cfg.max_len, cfg.stop_tolerance, sc.t_grid)
        assert trace.steps == 10000
        assert len(count.scales) <= 12
        assert len(count.pairs) == len(count.scales)
        assert sum(count.scales) == 10000 * len(sc.t_grid)

    def test_m_cauchy_evaluates_one_widest_pair_per_cut(self, monkeypatch):
        # the subsample's 511 cuts, each its tail's widest pair, prepared
        # once and evaluated in one block of all 40 scales, refuted or not:
        # a refuted scale's witness is the last tail's pair
        sc = load_scenario("ex62")
        space = sc.build_space()
        points = 1.0 / np.arange(1, 10002)
        trace = OrbitTrace.from_points(space, points, sc.t_grid)
        count = _NearnessCount(monkeypatch)
        cert = m_cauchy_check(space, trace, sc.r_grid)
        assert cert.holds
        n = dynamics.PAIR_CERT_CAP
        assert count.pairs == [n - 1] == [511]
        assert count.scales == [511 * 40]
        count.pairs.clear()
        count.scales.clear()
        cert = m_cauchy_check(space, trace, (0.5, 1e-9))
        assert cert.verdict is CauchyVerdict.VIOLATED
        assert count.pairs == [511]
        assert count.scales == [511 * 40]
        w = cert.witness
        assert (w["n"], w["m"]) == (9980, 10000)
        assert (space.m(points[w["n"]], points[w["m"]], w["t"])
                == w["nearness"] <= 1.0 - w["r"])

    def test_g_cauchy_reads_the_gap_one_series_from_the_trace(
            self, ray_space, monkeypatch):
        points = 5.0 * 0.5 ** np.arange(60)
        trace = OrbitTrace.from_points(ray_space, points, GRID_1_100)
        count = _NearnessCount(monkeypatch)
        cert = g_cauchy_check(ray_space, trace)
        assert cert.holds
        # gaps 2 and 5 prepared once and evaluated in one block of all
        # scales each; gap 1 is the trace's recorded columns
        assert count.pairs == [len(points) - 2, len(points) - 5]
        assert count.scales == [(len(points) - m) * len(GRID_1_100)
                                for m in (2, 5)]

    def test_cm_check_prepares_two_pair_sets(self, monkeypatch):
        # one pair per distinct distance is prepared once, for the pairs
        # and for their images; both conditions read the same two arrays
        # per scale, where they used to evaluate all 43,528 pairs twice
        sc = load_scenario("ex62")
        space, T = sc.build_space(), sc.build_map()
        sample = PairSample.of(space, T)
        ranked = sample.ordered
        assert len(sample.xs) == 43528
        n_pair, n_image = ranked.pair.reps.size, ranked.image.reps.size
        assert (n_pair, n_image) == (38478, 6997)
        count = _NearnessCount(monkeypatch)
        report = cm_contractive_check(space, T)
        assert report.satisfied
        assert count.pairs == [n_pair, n_image]
        assert count.scales == [n_pair, n_image] * len(report.t_grid)

    def test_criterion_prepares_the_distinct_distances(self, monkeypatch):
        # a benchmark-shaped settling trace: its 4,950 pairs and 4,950
        # successor pairs hold 81 and 82 distances, prepared once and
        # evaluated in one block of all 40 scales
        sc = load_scenario("ex62")
        space = sc.build_space()
        points = np.array([2.0 + 0.25 * (i % 2) for i in range(20)]
                          + [1.0 / (j + 2) for j in range(80)])
        trace = OrbitTrace.from_points(space, points, sc.t_grid)
        i, j = np.triu_indices(len(points) - 1)
        distinct = [np.unique(space.distance.eval(points[a], points[b])).size
                    for a, b in ((i, j), (i + 1, j + 1))]
        assert distinct == [81, 82]
        count = _NearnessCount(monkeypatch)
        cert = cauchy_criterion_check(space, trace, r_grid=sc.r_grid)
        assert cert.holds
        assert count.pairs == distinct
        assert len(count.scales) <= 2
        assert sum(count.scales) == sum(distinct) * 40 == 6520
