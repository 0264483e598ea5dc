"""Tests for the contraction classifiers and empirical gauge extraction."""

import dataclasses
import math
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from fuzzyfix import contractions
from fuzzyfix.algebra import (
    ClassTag,
    DomainError,
    Gauge,
    Verdict,
    class_membership,
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
    PairSample,
    PreconditionError,
    STRICT_MARGIN,
    VACUOUS_WINDOW_TOL,
    SelfMap,
    _make_envelope,
    _threshold_search,
    cm_contractive_check,
    equivalence_probe,
    extract_empirical_gauge,
    m_contractive_check,
    m_value,
    psi_contractive_check,
    self_map,
    table_map,
)
from fuzzyfix.defaults import BISECT_ITERS, CLASS_TOL, ENDPOINT_CLAMP
from fuzzyfix.dynamics import solve_fixed_point
from fuzzyfix.papersuite import run_example_mihet_extension
from fuzzyfix.scenario import load_scenario
from fuzzyfix.spaces import (
    Carrier,
    exponential_fuzzy_metric,
    metric,
    standard_fuzzy_metric,
    table_fuzzy_metric,
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
        assert self_map("const:1/2")(5.0) == 0.5
        assert self_map("identity")(0.3) == 0.3

    def test_unknown_id(self):
        with pytest.raises(DomainError):
            self_map("rot13")

    @pytest.mark.parametrize("spec, x", [
        ("expr:1/x", 0.0), ("expr:ln(x)", -1.0), ("expr:x^1000", 10.0),
        ("expr:exp(x)", 1000.0), ("expr:x^0.5", -1.0)])
    def test_expression_failure_names_map_and_point(self, spec, x):
        T = self_map(spec)
        message = f"map {re.escape(spec)} cannot be evaluated at {x!r}"
        with pytest.raises(DomainError, match=message):
            T(x)
        with pytest.raises(DomainError, match=message):
            T.apply(np.array([1.0, x, x]))

    @pytest.mark.parametrize("name", ["t", "tau", "s"])
    def test_expression_variables_other_than_x_rejected(self, name):
        message = f"bad expression: unknown identifier '{name}'"
        with pytest.raises(DomainError, match=message):
            self_map(f"expr:x*{name}")
        assert self_map("expr:1/2")(3.0) == 0.5

    @pytest.mark.parametrize("expr, continuous", [
        ("min(x, 1) + max(x, 2, 3) - abs(x) * exp(x) / ln(x + 2)", True),
        ("x^0.5 / (1 + x)", True),
        ("piecewise(x < 0.5, x/4, x/4 + 0.2)", False),
        ("1 + min(x, piecewise(x >= 1, 1, x))", False)])
    def test_only_a_piecewise_expression_is_not_declared_continuous(
            self, expr, continuous):
        T = self_map(f"expr:{expr}")
        assert (T.continuous, T.continuity_source) == (
            continuous, "declared" if continuous else "piecewise")


_RAY = Carrier.interval(0, 10, 201)
_QUAD = Carrier.finite([0, 1, 2, 5])
_STEP_EDGES = [0.0, 1e-10, 1e-9, 0.1, 1 / 3, 0.5, 1.0, 2.0,
               float(np.nextafter(0.5, 1.0)), float(np.nextafter(1 / 3, 0.0))]

# every built-in map kind, on a carrier that holds all images of its inputs
_MAP_CASES = {
    "phi-step": (self_map("phi-step"), _RAY,
                 st.floats(0, 10) | st.sampled_from(_STEP_EDGES)),
    "identity": (self_map("identity"), _RAY, st.floats(0, 10)),
    "const": (self_map("const:1/2"), _RAY, st.floats(0, 10)),
    "table": (self_map("perm-0-1-2-5"), _QUAD, st.sampled_from(_QUAD.points)),
    "expr": (self_map("expr:piecewise(x < 1, x^0.5 / 2, "
                      "exp(0 - x) + ln(x) / 10)"), _RAY, st.floats(0, 10)),
}

# maps whose images leave the carrier, or whose table misses, on some inputs
_ERROR_CASES = {
    "carrier-exit": (self_map("phi-step"), Carrier.interval(0.5, 10, 20),
                     st.sampled_from([0.2, 0.3, 0.4, 0.6, 0.75, 1.0, 3.0])),
    "table-miss": (self_map("perm-0-1-2-5"), _QUAD,
                   st.sampled_from([0.0, 1.0, 2.0, 3.0, 4.0, 5.0])),
    "exit-and-miss": (table_map({0: 0, 1: 7, 2: 0, 5: 2}, name="leaky"), _QUAD,
                      st.sampled_from([0.0, 1.0, 2.0, 3.0, 5.0])),
}


@st.composite
def _arrays(draw, values):
    """Arrays of any shape drawn from a few values, so that values repeat."""
    pool = draw(st.lists(values, min_size=1, max_size=5))
    flat = draw(st.lists(st.sampled_from(pool), max_size=24))
    n = len(flat)
    shapes = [(n,), (1, n), (n, 1)]
    shapes += [(2, n // 2)] if n % 2 == 0 else []
    shapes += [()] if n == 1 else []
    return np.array(flat, dtype=float).reshape(draw(st.sampled_from(shapes)))


@pytest.mark.parametrize("kind", sorted(_MAP_CASES))
@given(data=st.data())
@settings(max_examples=60, derandomize=True, deadline=None)
def test_array_apply_equals_scalar_calls_bit_for_bit(kind, data):
    T, carrier, values = _MAP_CASES[kind]
    xs = data.draw(_arrays(values))
    got = T.apply(xs, carrier)
    want = np.array([T.apply(float(x), carrier) for x in xs.ravel()])
    assert isinstance(got, np.ndarray) and got.shape == xs.shape
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("kind", sorted(_ERROR_CASES))
@given(data=st.data())
@settings(max_examples=60, derandomize=True, deadline=None)
def test_array_apply_raises_the_first_offenders_error(kind, data):
    T, carrier, values = _ERROR_CASES[kind]
    xs = data.draw(_arrays(values))
    first = None
    for x in xs.ravel():
        try:
            T.apply(float(x), carrier)
        except DomainError as exc:
            first = str(exc)
            break
    if first is None:
        T.apply(xs, carrier)
    else:
        with pytest.raises(DomainError) as exc:
            T.apply(xs, carrier)
        assert str(exc.value) == first


def test_cm_check_maps_each_distinct_pair_point_once(monkeypatch):
    sc = load_scenario("ex62")
    space, T = sc.build_space(), sc.build_map()
    want = cm_contractive_check(space, T).to_dict()
    evaluated = []

    def counted_fn(x):
        evaluated.append(np.size(x))
        return T.fn(x)
    calls = []
    apply = SelfMap.apply

    def counted_apply(self, x, carrier=None):
        calls.append(np.shape(x))
        return apply(self, x, carrier)
    monkeypatch.setattr(SelfMap, "apply", counted_apply)
    got = cm_contractive_check(space, SelfMap(T.name, counted_fn))
    sample = PairSample.of(space, T)
    pts = np.unique(np.concatenate([sample.xs, sample.ys]))
    assert got.to_dict() == want
    # one call of the map's function over the sample's points, which are
    # distinct here, and no array apply over the pairs' coordinates
    assert calls == []
    assert evaluated == [len(pts)] == [38478]
    assert len(sample.xs) == len(sample.ys) == 43528


class TestPairSample:
    """One sample per (space, map), shared by the checks that take it."""

    def test_paper_ex62_suite_builds_one_sample(self):
        with mock.patch.object(PairSample, "of", wraps=PairSample.of) as of:
            report = run_example_mihet_extension()
        assert report.passed
        assert of.call_count == 1

    @pytest.mark.parametrize("name", ["ex62", "ex63"])
    def test_a_shared_sample_changes_no_result(self, name):
        sc = load_scenario(name)
        space, T, cfg = sc.build_space(), sc.build_map(), sc.solver_config()
        sample = PairSample.of(space, T)
        for form in ("between", "onesided"):
            assert (cm_contractive_check(space, T, form=form,
                                         sample=sample).to_dict()
                    == cm_contractive_check(space, T, form=form).to_dict())
        params = MParams(cfg.alpha, cfg.beta)
        assert (m_contractive_check(space, T, params, sample=sample).to_dict()
                == m_contractive_check(space, T, params).to_dict())
        for route in ("cm-strong", "m-final"):
            shared = solve_fixed_point(space, T, sc.x0, route, cfg, sample)
            assert (shared.to_dict()
                    == solve_fixed_point(space, T, sc.x0, route,
                                         cfg).to_dict())

    def test_a_foreign_sample_is_refused(self, quad_space, perm_map):
        other_space = exponential_fuzzy_metric(quad_space.carrier,
                                               metric("euclidean"))
        other_map = self_map("perm-0-1-2-5")
        for sample in (PairSample.of(other_space, perm_map),
                       PairSample.of(quad_space, other_map)):
            with pytest.raises(DomainError, match="another space or map"):
                cm_contractive_check(quad_space, perm_map, sample=sample)
            with pytest.raises(DomainError, match="another space or map"):
                m_contractive_check(quad_space, perm_map, MParams(1, 1),
                                    sample=sample)
            with pytest.raises(DomainError, match="another space or map"):
                solve_fixed_point(quad_space, perm_map, 1, "cm-strong",
                                  sample=sample)


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
                    == pytest.approx(quad_space.m(x, y, t), abs=TOL)

    def test_fixed_point_blend_is_one(self, quad_space, perm_map):
        for t in SMALL_T:
            assert m_value(quad_space, perm_map, MParams(2, 2), 0, 0, t) == 1.0

    def test_requires_positive_scale(self, quad_space, perm_map):
        with pytest.raises(DomainError):
            m_value(quad_space, perm_map, MParams(1, 1), 0, 1, 0.0)

    def test_negative_exponent_rejected(self):
        with pytest.raises(DomainError):
            MParams(-1, 0)


class TestStrictMargin:
    # nearness on an exponential space at t = 0.01 lies far below any
    # absolute margin; x/2 improves M(x,y,t) to M(x,y,t)^(1/2)
    @pytest.fixture
    def exp_unit(self):
        return exponential_fuzzy_metric(Carrier.interval(0, 1, 101),
                                        metric("euclidean"))

    def test_halving_map_improves_at_tiny_nearness(self, exp_unit):
        T = self_map("expr:x/2")
        psi = psi_contractive_check(exp_unit, T, gauge("power:5/7"))
        cm = cm_contractive_check(exp_unit, T)
        assert psi.satisfied, psi.to_dict()["conditions"][0]["witness"]
        assert cm.satisfied, cm.to_dict()["conditions"][0]["witness"]

    @pytest.mark.parametrize("spec", ["identity",
                                      "expr:piecewise(x < 0.5, x/2, x)"])
    def test_violated_witness_replays(self, exp_unit, spec):
        T = self_map(spec)
        cond = cm_contractive_check(exp_unit, T).condition("strict-improvement")
        assert cond.status is CheckStatus.VIOLATED
        w = cond.witness
        before = exp_unit.m(w["x"], w["y"], w["t"])
        after = exp_unit.m(T(w["x"]), T(w["y"]), w["t"])
        assert (before, after) == (w["before"], w["after"])
        assert w["x"] != w["y"]
        assert not after > before + STRICT_MARGIN * before


def _brute_search(F, E, r, onesided, finite):
    """One threshold's search by a scan over the pairs in their own order:
    (record, None), or (None, witness index) when refuted."""
    threshold = 1.0 - r
    window = [k for k in range(len(F)) if onesided or F[k] < threshold]
    if not window:
        return ({"r": r, "rho": 1.0 - ENDPOINT_CLAMP, "vacuous": True,
                 "reason": "no pairs below threshold"}, None)
    bad = [k for k in window if E[k] < threshold - CLASS_TOL]
    if not bad:
        return {"r": r, "rho": 1.0 - ENDPOINT_CLAMP, "vacuous": False}, None
    v = max(F[k] for k in bad)
    witness = max(k for k in bad if F[k] == v)   # the last of the ties
    rho = 1.0 - v
    if rho <= r + CLASS_TOL:
        return None, witness
    if any(F[k] > v for k in window):
        return {"r": r, "rho": rho, "vacuous": False}, None
    if finite:
        return {"r": r, "rho": rho, "vacuous": True, "reason": "gap"}, None
    if threshold - v <= VACUOUS_WINDOW_TOL:
        return ({"r": r, "rho": rho, "vacuous": True,
                 "reason": "sub-resolution window"}, None)
    return None, witness


def _brute_cuts(F, E, r, rows, cuts):
    """The one-sided finite search at each cut in turn: (cut, record, None)
    at the first cut that certifies, or (None, None, witness) of cut 0."""
    for cut in range(cuts):
        window = [k for k in range(len(F)) if rows[k] >= cut]
        rec, _ = _brute_search([F[k] for k in window], [E[k] for k in window],
                               r, True, True)
        if rec is not None:
            return cut, rec, None
    return None, None, _brute_search(F, E, r, True, True)[1]


@st.composite
def _threshold_cases(draw, min_pairs=0):
    """An unsorted threshold grid with duplicates, and pair values that sit
    on, one double off and one tolerance off its thresholds."""
    rs = draw(st.lists(st.sampled_from([0.1, 0.3, 0.5, 0.9]), min_size=1,
                       max_size=5))
    near = []
    for r in rs:
        threshold = 1.0 - r
        near += [threshold, threshold - CLASS_TOL, threshold + CLASS_TOL,
                 float(np.nextafter(threshold - CLASS_TOL, 0.0)),
                 float(np.nextafter(threshold, 1.0)),
                 threshold - VACUOUS_WINDOW_TOL, 1.0 - (r + CLASS_TOL)]
    value = st.sampled_from(near) | st.floats(0.0, 1.0)
    pool = draw(st.lists(value, min_size=1, max_size=6))
    n = draw(st.integers(min_pairs, 16))
    F = draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n))
    E = draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n))
    # planted violators of every r: ties at the largest premise among the
    # violators, or a premise between the two-sided windows' thresholds,
    # above the tighter ones and so outside their windows
    low = min(1.0 - r for r in rs) - 2 * CLASS_TOL
    violators = [f for f, e in zip(F, E) if e < low]
    plant = draw(st.sampled_from(("none", "ties", "above")))
    if plant == "ties" and violators:
        F += [max(violators)] * draw(st.integers(1, 3))
    elif plant == "above" and len(set(rs)) > 1:
        F.append(draw(st.floats(1.0 - max(rs), 1.0 - min(rs))))
    E += [draw(st.floats(0.0, low))] * (len(F) - len(E))
    for _ in range(len(F) - n):         # anywhere among the drawn pairs
        k = draw(st.integers(0, len(F) - 1))
        F[k], F[-1], E[k], E[-1] = F[-1], F[k], E[-1], E[k]
    return rs, np.array(F, dtype=float), np.array(E, dtype=float)


@pytest.mark.parametrize("onesided", [False, True])
@pytest.mark.parametrize("finite", [True, False])
@given(case=_threshold_cases())
@example(case=([0.5, 0.1, 0.5], np.array([]), np.array([])))
@settings(max_examples=150, derandomize=True, deadline=None)
def test_threshold_search_equals_brute_force(onesided, finite, case):
    rs, F, E = case
    want = []
    for r in rs:
        rec, k = _brute_search(F.tolist(), E.tolist(), r, onesided, finite)
        want.append((None, k) if rec is None else ({"t": 2.0, **rec}, None))
    assert _threshold_search(rs, onesided, finite)(F, E, 2.0) == want


@st.composite
def _row_cases(draw):
    rs, F, E = draw(_threshold_cases(min_pairs=1))
    labels = draw(st.lists(st.integers(0, 3), min_size=len(F),
                           max_size=len(F)))
    # nondecreasing labels with no empty row
    rows = np.unique(labels, return_inverse=True)[1].ravel()
    rows.sort()
    cuts = draw(st.integers(1, int(rows[-1]) + 1))
    return rs, F, E, rows, cuts


@given(case=_row_cases())
@settings(max_examples=300, derandomize=True, deadline=None)
def test_threshold_search_by_rows_equals_cut_by_cut_scan(case):
    rs, F, E, rows, cuts = case
    want = []
    for r in rs:
        cut, rec, k = _brute_cuts(F.tolist(), E.tolist(), r, rows.tolist(),
                                  cuts)
        # a cut's label names it in the record
        want.append((None, k) if rec is None else
                    ({"t": 2.0, "N": 10 * cut, **rec}, None))
    search = _threshold_search(rs, onesided=True, rows=rows,
                               cuts=[10 * c for c in range(cuts)])
    assert search(F, E, 2.0) == want


def _per_threshold_search(F, E, rs, onesided=False, finite=True,
                          rows=None, cuts=1):
    """The lockstep search as one call per scale, built again on every
    call, with one loop iteration per threshold that slices its prefix and
    merges its record: (cut, record without "t" or "N", None) per r, or
    (None, None, witness index) when refuted."""
    thresholds = [1.0 - r for r in rs]
    targets = [threshold - CLASS_TOL for threshold in thresholds]
    if rows is None:
        rows = np.broadcast_to(np.intp(0), F.shape)   # nothing allocated
    keep = E < max(targets)
    if onesided:
        # every window at cut 0 holds all pairs; the largest premise among
        # the pairs beyond each cut
        counts = [F.size] * len(rs)
        starts = np.searchsorted(rows, np.arange(cuts)) if cuts > 1 else [0]
        best = (np.maximum.accumulate(np.maximum.reduceat(F, starts)[::-1])
                [::-1] if F.size else None)
    else:
        below = F < max(thresholds)
        keep &= below
        ranked = F[below]           # every window's premises, to count them
        ranked.sort()
        counts = np.searchsorted(ranked, thresholds).tolist()
    order = np.flatnonzero(keep)
    order = order[np.argsort(E[order], kind="stable")]
    # the candidates' premises and rows in that order: a rescan reads a
    # prefix of each, and ``order`` only to name a witness
    Fo, ro = F[order], rows[order]
    tops = np.maximum.accumulate(Fo)
    out = []
    for i, n in enumerate(np.searchsorted(E[order], targets).tolist()):
        r, threshold = rs[i], thresholds[i]
        viol, Fv, rv = order[:n], Fo[:n], ro[:n]
        first, v = 0, (float(tops[n - 1]) if n else None)
        if v is not None and 1.0 - v <= r + CLASS_TOL:
            # some violator reaches 1-r: rescan the window's violators
            if not onesided:
                inside = Fv < threshold
                viol, Fv, rv = viol[inside], Fv[inside], rv[inside]
            fatal = rv[1.0 - Fv <= r + CLASS_TOL]     # their rows
            if fatal.size:
                first = min(int(fatal.max()) + 1, cuts)
            beyond = Fv[rv >= first]
            v = float(beyond.max()) if beyond.size else None
        rec = {"r": r}
        if first == cuts:
            rec = None
        elif counts[i] == 0:
            rec.update(rho=1.0 - ENDPOINT_CLAMP, vacuous=True,
                       reason="no pairs below threshold")
        elif v is None:
            rec.update(rho=1.0 - ENDPOINT_CLAMP, vacuous=False)
        elif (best[first] > v if onesided else
              ranked.searchsorted(v, side="right") < counts[i]):
            rec.update(rho=1.0 - v, vacuous=False)
        elif finite:
            rec.update(rho=1.0 - v, vacuous=True, reason="gap")
        elif threshold - v <= VACUOUS_WINDOW_TOL:
            rec.update(rho=1.0 - v, vacuous=True,
                       reason="sub-resolution window")
        else:
            rec = None
        if rec is None:
            out.append((None, None, int(viol[Fv == Fv.max()].max())))
        else:
            out.append((first, rec, None))
    return out


@st.composite
def _search_cases(draw):
    """Two-sided, one-sided and by-rows searches over ``_threshold_cases``;
    rows and cut labels as in ``_row_cases``, the labels spread out."""
    form = draw(st.sampled_from(("two-sided", "one-sided", "by-rows")))
    rs, F, E = draw(_threshold_cases(min_pairs=int(form == "by-rows")))
    rows = cuts = None
    if form == "by-rows":
        labels = draw(st.lists(st.integers(0, 3), min_size=len(F),
                               max_size=len(F)))
        rows = np.unique(labels, return_inverse=True)[1].ravel()
        rows.sort()
        n_cuts = draw(st.integers(1, int(rows[-1]) + 1))
        cuts = sorted(draw(st.sets(st.integers(0, 99), min_size=n_cuts,
                                   max_size=n_cuts)))
    return rs, F, E, form != "two-sided", rows, cuts


# Thresholds 0.5 and 0.45 (twice) share the prefix of pairs 0 and 1, whose
# premise 0.6 in row 0 is fatal to both; so both read cut 1, beyond which
# pair 1's premise 0.3 is the violator maximum, below pair 2's 0.8
_SHARED_PREFIX_AND_CUT = ([0.5, 0.45, 0.5], np.array([0.6, 0.3, 0.8, 0.2]),
                          np.array([0.1, 0.2, 0.9, 0.95]), True,
                          np.array([0, 1, 1, 2]), [0, 4, 9])
# Thresholds 0.5 and 0.3 both read cut 1 past pair 0, but pair 2 (premise
# 0.4, beyond the cut) violates 0.3 alone: their maxima beyond the cut
# differ, 0.2 and 0.4
_SAME_CUT_OTHER_PREFIX = ([0.5, 0.3], np.array([0.9, 0.2, 0.4, 0.95]),
                          np.array([0.1, 0.2, 0.6, 0.99]), True,
                          np.array([0, 1, 1, 2]), [0, 1, 2])
# Thresholds 0.5 and 0.45 share the prefix of pairs 0-2, but pair 1's
# premise 0.52 is fatal to 0.5 alone: they read cuts 2 and 1, beyond which
# their violator maxima are 0.3 and 0.52
_SAME_PREFIX_OTHER_CUT = ([0.5, 0.45], np.array([0.6, 0.52, 0.3, 0.9]),
                          np.array([0.1, 0.2, 0.3, 0.99]), True,
                          np.array([0, 1, 2, 2]), [0, 1, 2])


# Pair 1 violates both thresholds, but its premise 0.97 lies past both
# two-sided windows.  The sort path drops it before sorting; in the ordered
# path it leads both prefixes, so each threshold rescans and drops it there.
# Pair 0's premise 0.85 remains, with no sample above it in either window
_PAST_THE_WINDOWS = ([0.1, 0.05], np.array([0.85, 0.97, 0.3, 0.99]),
                     np.array([0.5, 0.2, 0.96, 0.999]), False, None, None)


@pytest.mark.simd
@pytest.mark.parametrize("finite", [True, False])
@given(case=_search_cases(), shift=st.none() | st.integers(0, 3),
       ordering=st.sampled_from((None, "sorting", "shuffled")),
       seed=st.integers(0, 2 ** 16))
@example(case=_SHARED_PREFIX_AND_CUT, shift=None, ordering=None, seed=0)
@example(case=_SAME_CUT_OTHER_PREFIX, shift=None, ordering=None, seed=0)
@example(case=_SAME_PREFIX_OTHER_CUT, shift=None, ordering=None, seed=0)
@example(case=_PAST_THE_WINDOWS, shift=None, ordering="sorting", seed=0)
@example(case=([0.9, 0.3, 0.3], np.array([]), np.array([]), False, None,
               None), shift=2, ordering="sorting", seed=0)
@example(case=([0.9, 0.3], np.array([]), np.array([]), True, None, None),
         shift=None, ordering=None, seed=0)
@settings(max_examples=300, derandomize=True, deadline=None)
def test_threshold_search_equals_per_threshold_loop(finite, case, shift,
                                                    ordering, seed):
    # a search without rows may take the pairs ranked by distance and the
    # values at the distinct distances: distances that sort the values,
    # ties grouped, take the ordered path; drawn distances, mostly the sort
    # path
    rs, F, E, onesided, rows, cuts = case
    orders = None
    if ordering is not None and cuts is None:
        rng = np.random.default_rng(seed)
        orders = (contractions._ordered(-E, -F) if ordering == "sorting" else
                  contractions._ordered(rng.random(E.size),
                                        rng.random(F.size)))
    t = 0.25
    want = []
    n_cuts = 1 if cuts is None else len(cuts)
    for cut, rec, k in _per_threshold_search(F, E, rs, onesided, finite, rows,
                                             n_cuts):
        if rec is not None:
            rec = {"t": t, **rec} if cuts is None and shift is None else {
                "t": t, "N": shift if cuts is None else cuts[cut], **rec}
        want.append((None, k) if rec is None else (list(rec.items()), None))
    search = _threshold_search(rs, onesided, finite, rows, cuts, orders)
    if orders is not None:
        F, E = F[orders.pair.reps], E[orders.image.reps]
    got = [(rec if rec is None else list(rec.items()), k)
           for rec, k in search(F, E, t, shift if cuts is None else None)]
    assert got == want


def _items(report) -> list:
    """A report's dictionary with the key order of every nested record."""
    def walk(v):
        if isinstance(v, dict):
            return [(k, walk(e)) for k, e in v.items()]
        return [walk(e) for e in v] if isinstance(v, list) else v
    return walk(report.to_dict())


@st.composite
def _declared_cases(draw):
    """A space that declares its distance profile, both constructors and
    both metrics, on a finite carrier of half-integers (many tied
    distances) with a drawn table map, or on an interval with a contracting,
    reflecting or step map; thresholds unsorted with repeats, 1 to 3
    scales."""
    build = draw(st.sampled_from((standard_fuzzy_metric,
                                  exponential_fuzzy_metric)))
    d = metric(draw(st.sampled_from(("euclidean", "max-jachymski"))))
    if draw(st.booleans()):
        pts = sorted(draw(st.sets(st.integers(0, 12), min_size=2,
                                  max_size=8)))
        carrier = Carrier.finite([p / 2 for p in pts])
        T = table_map({p: draw(st.sampled_from(carrier.points))
                       for p in carrier.points}, carrier)
    else:
        high = draw(st.sampled_from((1.0, 4.0, 10.0)))
        carrier = Carrier.interval(0.0, high, draw(st.integers(2, 30)))
        T = self_map(draw(st.sampled_from(
            ("expr:x/2", "expr:x/(1+x)", f"expr:{high}-x", "phi-step",
             f"expr:{draw(st.sampled_from((0.25, 0.9, 1.0)))}*x"))))
    rs = draw(st.lists(st.sampled_from((0.05, 0.1, 0.3, 0.5, 0.9))
                       | st.floats(0.01, 0.99), min_size=1, max_size=8))
    grid = sorted(draw(st.sets(st.sampled_from((0.01, 0.1, 0.5, 1.0, 4.0,
                                                 30.0)),
                               min_size=1, max_size=3)))
    return build(carrier, d), T, rs, grid


def _ordered_equals_sort_path(space, T, rs, grid) -> set:
    """Per scale, both forms: the search over the values at the distinct
    distances, which every pair's value repeats and which come sorted,
    gives the sort path's records, key order and witnesses.  Then whole
    cm checks, in both forms, equal those on the space with its
    declaration dropped.  Returns what the searches went through:
    "rescan" when a two-sided threshold's violators reach 1-r, "tied
    witness" when a refuted threshold's witness has the largest premise
    with another of its window's violators."""
    assert space.distance is not None
    sample = PairSample.of(space, T)
    ranked = sample.ordered
    finite = space.carrier.is_finite
    seen = set()
    for t in grid:
        F, E = space.m(sample.xs, sample.ys, t), space.m(sample.txs,
                                                        sample.tys, t)
        p, e = F[ranked.pair.reps], E[ranked.image.reps]
        assert np.array_equal(p[ranked.pair.group], F)
        assert np.array_equal(e[ranked.image.group], E)
        assert contractions._nondecreasing(p)
        assert contractions._nondecreasing(e)
        for onesided in (False, True):
            want = _threshold_search(rs, onesided, finite)(F, E, t)
            got = _threshold_search(rs, onesided, finite,
                                    orders=ranked)(p, e, t)
            assert ([(rec and list(rec.items()), k) for rec, k in got]
                    == [(rec and list(rec.items()), k) for rec, k in want])
            for r, (rec, k) in zip(rs, want):
                violators = E < (1.0 - r) - CLASS_TOL
                if not onesided and violators.any():
                    if 1.0 - F[violators].max() <= r + CLASS_TOL:
                        seen.add("rescan")
                    violators &= F < 1.0 - r
                if rec is None and (violators & (F == F[k])).sum() > 1:
                    seen.add("tied witness")

    undeclared = dataclasses.replace(space, distance=None)
    for form in ("between", "onesided"):
        assert (_items(cm_contractive_check(space, T, rs, grid, form=form))
                == _items(cm_contractive_check(undeclared, T, rs, grid,
                                               form=form)))
    return seen


@pytest.mark.simd
@given(case=_declared_cases())
@settings(max_examples=60, derandomize=True, deadline=None)
def test_ordered_search_equals_the_sort_path_on_declared_spaces(case):
    for feature in sorted(_ordered_equals_sort_path(*case)):
        event(feature)


_FOUR = Carrier.finite([0, 1, 2, 3])


@pytest.mark.simd
@pytest.mark.parametrize("feature, case", [
    # a sampled interval whose expanding pairs reach 1-r
    ("rescan", lambda: (
        exponential_fuzzy_metric(Carrier.interval(0, 4, 9),
                                 metric("euclidean")),
        self_map("expr:min(4, 2*x)"), [0.5], [0.1, 1.0])),
    # the three unit-distance pairs all go 3 apart: each a violator with
    # the premise 1/2 at scale 1, and the last of them the witness
    ("tied witness", lambda: (
        standard_fuzzy_metric(_FOUR, metric("euclidean")),
        table_map({0: 0, 1: 3, 2: 0, 3: 3}, _FOUR), [0.5], [1.0]))])
def test_ordered_search_reaches(feature, case):
    # the property's draws reach both paths only now and then
    assert feature in _ordered_equals_sort_path(*case())


def _seeded_table_space(seed: int):
    """A table space on six points with four nodes, seeded values."""
    rng = np.random.default_rng(seed)
    pts = np.sort(rng.choice(64, 6, replace=False)) / 8.0
    nodes = np.cumsum(rng.uniform(0.1, 3.0, 4))
    table = {(float(x), float(y)): np.sort(rng.uniform(0.05, 1.0, 4)).tolist()
             for n, x in enumerate(pts) for y in pts[n + 1:]}
    return table_fuzzy_metric(Carrier.finite(pts), nodes, table)


_BLOCK_SPACES = {
    f"{kind}-{d}": build(Carrier.interval(0.0, 10.0, 11), metric(d))
    for kind, build in (("standard", standard_fuzzy_metric),
                        ("exp", exponential_fuzzy_metric))
    for d in ("euclidean", "max-jachymski")}
_BLOCK_SPACES["table"] = _seeded_table_space(7)


@st.composite
def _block_cases(draw):
    """A pair stage, plain or blended, with its pair count and a grid of 1,
    2 or 41 scales; 16385 and 21846 pairs put 3 and 2 scales in a block of
    the package's budget, which a 41-scale grid does not fill evenly, and
    a drawn budget splits the grid of a small pair set."""
    space = _BLOCK_SPACES[draw(st.sampled_from(sorted(_BLOCK_SPACES)))]
    n_scales = draw(st.sampled_from((1, 2, 41)))
    grid = tuple(sorted(draw(st.lists(st.floats(1e-3, 1e3), min_size=n_scales,
                                      max_size=n_scales))))
    size = draw(st.integers(1, 40) | st.sampled_from((16385, 21846)))
    budget = (contractions._SCALE_BLOCK if size > 40 else
              draw(st.integers(1, 4 * size)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 16)))
    pts = np.array(space.carrier.points)
    if not space.carrier.is_finite:     # off the sampling grid, ties kept
        pts = np.concatenate([pts, rng.uniform(0.0, 10.0, 8)])
    xs, ys, txs, tys = (rng.choice(pts, size) for _ in range(4))
    if draw(st.booleans()):
        params = MParams(*draw(st.sampled_from(((0, 0), (1, 2), (5 / 7, 2.5)))))
        stage = contractions._blended(space, params, xs, ys, txs, tys)
    else:
        stage = space.pairs(xs, ys)
    return stage, size, grid, budget


@pytest.mark.simd
@given(_block_cases())
@settings(max_examples=60, derandomize=True, deadline=None)
def test_scale_rows_equal_per_scale_evaluations(case):
    stage, size, grid, budget = case
    calls = []

    def counted(t):
        calls.append(np.shape(t))
        return stage(t)
    with mock.patch.object(contractions, "_SCALE_BLOCK", budget):
        rows = list(contractions._scale_rows(grid, size, counted))
    step = max(1, budget // size)
    assert calls == [(len(grid[lo:lo + step]), 1)
                     for lo in range(0, len(grid), step)]
    assert [t for t, _ in rows] == list(grid)
    for t, row in rows:
        want = stage(t)
        assert row.shape == want.shape == (size,)
        assert np.array_equal(row.view(np.uint64), want.view(np.uint64))


def _per_scale_scan(space, grid, sample, cond1, cond2, premise=None,
                    key="before", ordered=None):
    """The strict-improvement scan with one call of each pair stage per
    scale over the whole sample, yielding the values at the distinct
    distances picked from them when ``ordered``; once cond2 fails, the
    regular sample is prepared again."""
    margin = 0.0 if space.carrier.is_finite else STRICT_MARGIN
    premise = premise or (lambda xs, ys, txs, tys: space.pairs(xs, ys))
    n_base = sample.n_base
    pairs = xs, ys, txs, tys = sample.xs, sample.ys, sample.txs, sample.tys
    distinct = xs[:n_base] != ys[:n_base]
    near, after = premise(*pairs), space.pairs(txs, tys)
    whole = True
    for t in grid:
        if whole and cond2.status is CheckStatus.VIOLATED:
            whole = False
            if n_base < len(xs):
                base = [a[:n_base] for a in pairs]
                near, after = premise(*base), space.pairs(*base[2:])
        if not whole and cond1.status is CheckStatus.VIOLATED:
            return
        F, E = near(t), after(t)
        if cond1.status is CheckStatus.SATISFIED:
            f, e = F[:n_base], E[:n_base]
            bad = distinct & ~(e > f + margin * f)
            if bad.any():
                i = int(np.nonzero(bad)[0][0])
                cond1.status = CheckStatus.VIOLATED
                values = ({"before": float(f[i]), "after": float(e[i])}
                          if key == "before" else
                          {"after": float(e[i]), "blend": float(f[i])})
                cond1.witness = {"x": float(xs[i]), "y": float(ys[i]),
                                 "t": t, **values}
        if whole and ordered is not None:
            yield t, F[ordered.pair.reps], E[ordered.image.reps]
        elif whole:
            yield t, F, E


# Unsorted, so that the gauge bound fails on the first scale; the relative
# strictness margin fails at the huge scales
_SWITCH_T = (1e6, 0.5, 0.05, 0.2, 1.0, 1e10, 1e13, 1e15)
_SWITCH_CASES = {
    # (metric, map, check): condition 2 fails mid-block, condition 1 later
    # on the regular sample alone
    "psi": ("max-jachymski", "expr:x/(1+x)", lambda space, T: (
        psi_contractive_check(space, T, gauge("power:5/7"), _SWITCH_T))),
    # condition 1 fails on the first scale the regular sample reads
    "psi-at-switch": ("max-jachymski", "expr:x/(1+x)", lambda space, T: (
        psi_contractive_check(space, T, gauge("power:5/7"),
                              (1e6, 1e10, 0.5, 1e13)))),
    "m-psi": ("euclidean", "expr:x/(1+x)", lambda space, T: (
        m_contractive_check(space, T, MParams(1, 1), gauge("power:5/7"),
                            t_grid=_SWITCH_T))),
    # condition 1 fails first, and the scan ends a scale after condition 2
    "cm": ("euclidean", "phi-step", lambda space, T: (
        cm_contractive_check(space, T, (0.1, 0.5, 0.9), _SWITCH_T))),
    "cm-onesided": ("euclidean", "phi-step", lambda space, T: (
        cm_contractive_check(space, T, (0.1, 0.5, 0.9), _SWITCH_T,
                             form="onesided"))),
}


@pytest.mark.parametrize("per_block", [2, 3])
@pytest.mark.parametrize("case", sorted(_SWITCH_CASES))
def test_regular_sample_takes_over_mid_block(case, per_block):
    d, map_id, check = _SWITCH_CASES[case]
    space = standard_fuzzy_metric(Carrier.interval(0, 10, 201), metric(d))
    T = self_map(map_id)
    with mock.patch.object(contractions, "_improvement_scan", _per_scale_scan):
        want = check(space, T).to_dict()
    n_pairs = len(PairSample.of(space, T).xs)
    with mock.patch.object(contractions, "_SCALE_BLOCK", per_block * n_pairs):
        got = check(space, T)
    assert got.to_dict() == want
    assert [c.status for c in got.conditions] == [CheckStatus.VIOLATED] * 2


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
        before = quad_space.m(w["x"], w["y"], w["t"])
        after = quad_space.m(perm_map(w["x"]), perm_map(w["y"]), w["t"])
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
        after = quad_space.m(0, 5, 1.0)
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
        assert w["after"] == quad_space.m(0.0, 5.0, 0.01)
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

    def test_iterate_shift_evaluates_only_the_shifts_it_needs(self,
                                                              monkeypatch):
        # one search, built once per check, runs shift after shift over the
        # whole threshold grid, up to the last shift a threshold needs; the
        # pairs' iterates are mapped once, up to the deepest shift any scale
        # needs
        built, searches, maps = [], [], []
        searcher, images = contractions._threshold_search, SelfMap._images

        def counted_searcher(rs, *args, **kwargs):
            built.append(len(rs))
            search = searcher(rs, *args, **kwargs)
            return lambda *a: searches.append(a[3]) or search(*a)
        monkeypatch.setattr(contractions, "_threshold_search",
                            counted_searcher)
        monkeypatch.setattr(SelfMap, "_images", lambda self, u, *args:
                            maps.append(np.shape(u)) or images(self, u, *args))
        sc = load_scenario("ex63")
        unit = standard_fuzzy_metric(Carrier.interval(0, 1, 41),
                                     metric("euclidean"))
        piecewise = self_map("expr:piecewise(x < 0.3, x + 0.5, x/3)")
        deepest_shifts = []
        for space, T, params, t_grid in (
                (sc.build_space(), sc.build_map(), MParams(2, 2), None),
                (unit, piecewise, MParams(0, 0), (0.1, 1.0, 10.0))):
            built.clear()
            searches.clear()
            maps.clear()
            report = m_contractive_check(space, T, params, t_grid=t_grid)
            cond = report.condition("iterate-threshold-implication")
            assert cond.status is CheckStatus.SATISFIED
            assert built == [len(report.r_grid)]
            want = []
            for t in report.t_grid:
                shifts = [rec["N"] for rec in cond.records if rec["t"] == t]
                want += range(max(shifts) + 1)
            assert searches == want
            deepest_shifts.append(max(rec["N"] for rec in cond.records))
            # the sample's points once, then both coordinates per shift
            assert len(maps) == 1 + 2 * deepest_shifts[-1]
        # ex63 needs no shift beyond 0 of its 4; the piecewise map needs two
        assert deepest_shifts == [0, 2]

    def test_search_form_refutes_the_identity(self):
        # the identity improves no pair at any shift, so no window below
        # 1 - r holds a pair that reaches it, and on an interval carrier a
        # window without one is no evidence
        space = standard_fuzzy_metric(Carrier.interval(0, 10, 101),
                                      metric("euclidean"))
        T = self_map("identity")
        params = MParams(0, 0)
        report = m_contractive_check(space, T, params, t_grid=[1e-6],
                                     r_grid=[0.5])
        cond = report.condition("iterate-threshold-implication")
        assert cond.status is CheckStatus.VIOLATED and cond.records == []
        w = cond.witness
        assert w == {"x": 0.0, "y": 1e-4, "t": 1e-6, "r": 0.5}
        # replayed by scalar calls: every shift maps the pair to itself, so
        # its blend and its images' nearness are its own, below 1 - r
        x, y, t = w["x"], w["y"], w["t"]
        near = space.m(x, y, t)
        assert m_value(space, T, params, x, y, t) == near
        assert space.m(T(x), T(y), t) == near < 1.0 - w["r"]

    def test_zero_exponents_agree_with_onesided_cm(self, quad_space):
        T = self_map("const:0")
        a = m_contractive_check(quad_space, T, MParams(0, 0),
                                t_grid=SMALL_T, r_grid=SMALL_R)
        b = cm_contractive_check(quad_space, T, r_grid=SMALL_R,
                                 t_grid=SMALL_T, form="onesided")
        assert a.satisfied == b.satisfied


def _sample_pairs(space, T):
    """The pairs (x, y) of the pair sample of ``T`` on ``space``."""
    sample = PairSample.of(space, T)
    return list(zip(sample.xs, sample.ys))


def _before_after(space, T, t):
    """The before- and after-nearness of the pair sample."""
    sample = PairSample.of(space, T)
    xs, ys = sample.xs, sample.ys
    return space.m(xs, ys, t), space.m(T(xs), T(ys), t)


class TestEmpiricalGauge:
    def test_identity_envelope_is_identity_on_samples(self, quad_space):
        identity = self_map("identity")
        env = extract_empirical_gauge(
            quad_space, identity, _sample_pairs(quad_space, identity), t=1.0)
        F, _ = _before_after(quad_space, self_map("identity"), 1.0)
        for f in F:
            assert env.eval(float(f)) == pytest.approx(float(f), abs=TOL)

    def test_identity_envelope_rejected_on_dense_samples(self, ray_space):
        # with densely sampled pairs the envelope hugs the identity, which
        # the threshold-improvement class rejects
        identity = self_map("identity")
        env = extract_empirical_gauge(
            ray_space, identity, _sample_pairs(ray_space, identity), t=1.0)
        cert = class_membership(env, ClassTag.PSI1, r_grid=SMALL_R)
        assert cert.verdict is Verdict.NON_MEMBER

    def test_envelope_dominates_own_samples(self, quad_space, perm_map):
        env = extract_empirical_gauge(
            quad_space, perm_map, _sample_pairs(quad_space, perm_map), t=1.0)
        F, E = _before_after(quad_space, perm_map, 1.0)
        assert (E >= env.eval(F) - CLASS_TOL).all()

    def test_envelope_monotone(self, quad_space, perm_map):
        env = extract_empirical_gauge(
            quad_space, perm_map, _sample_pairs(quad_space, perm_map), t=1.0)
        taus = np.linspace(0.01, 1.0, 97)
        vals = [env.eval(float(t)) for t in taus]
        assert all(b >= a - TOL for a, b in zip(vals, vals[1:]))

    def test_ray_envelope_pinned_at_half(self, ray_space, step_map):
        # pairs (1, 1+d/2): before-nearness 1/(2+d/2), after-nearness 1/2;
        # every after-value is at least 1/2, so the envelope is exactly 1/2
        # at these before-values
        deltas = [1.0, 0.5, 0.1, 0.01]
        pairs = [(1.0, 1.0 + d / 2) for d in deltas]
        pairs += [(float(x), float(y)) for x in np.linspace(0, 10, 41)
                  for y in np.linspace(0, 10, 41) if x < y]
        env = extract_empirical_gauge(ray_space, step_map, pairs, t=1.0)
        for d in deltas:
            tau = 1.0 / (2.0 + d / 2.0)
            assert env.eval(tau) == 0.5

    def test_ray_envelope_not_continuous_class(self, ray_space, step_map):
        env = extract_empirical_gauge(
            ray_space, step_map, _sample_pairs(ray_space, step_map), t=1.0)
        cert = class_membership(env, ClassTag.PSI1, r_grid=SMALL_R)
        assert cert.verdict is Verdict.MEMBER  # threshold class
        cert = class_membership(env, ClassTag.PSI)
        assert cert.verdict is Verdict.NON_MEMBER
        assert cert.witness["reason"] == "discontinuity"


def _full_array_envelope(F, E):
    """The envelope searched over every sorted before-value."""
    order = np.argsort(F, kind="stable")
    Fs, Es = F[order], E[order]
    values = np.append(np.minimum.accumulate(Es[::-1])[::-1], 1.0)
    return lambda tau: values[np.searchsorted(Fs, tau, side="left")]


@settings(max_examples=200, derandomize=True, deadline=None)
@given(st.integers(0, 30).flatmap(lambda n: st.tuples(
    st.lists(st.sampled_from((0.0, 0.1, 0.25, 0.5, 0.75, 1.0)) | st.floats(0, 1),
             min_size=n, max_size=n),
    st.lists(st.sampled_from((0.0, 0.3, 0.5, 1.0)) | st.floats(0, 1),
             min_size=n, max_size=n))))
def test_envelope_on_breakpoints_equals_full_array_envelope(arrays):
    # ties in F and in the suffix minima come from the sampled values; tau
    # sits at, just below and just above every sample, and at the ends
    F, E = (np.array(a, dtype=float) for a in arrays)
    env, ref = _make_envelope(F, E), _full_array_envelope(F, E)
    taus = np.concatenate([F, np.nextafter(F, -1.0), np.nextafter(F, 2.0),
                           [0.0, 1.0, 2.0]])
    got, want = env.fn(taus), ref(taus)
    assert got.tobytes() == want.tobytes()
    for tau in taus:
        assert env.fn(float(tau)) == ref(float(tau))


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
            images.extend(np.atleast_1d(x).tolist())
            return step_map(x)
        report = equivalence_probe(ray_space, SelfMap("counted", counted),
                                   r_grid=SMALL_R, t_grid=SMALL_T)
        # each point of the pair sample is mapped once, not per scale
        sample = PairSample.of(ray_space, step_map)
        assert len(images) == len(np.unique(np.concatenate([sample.xs,
                                                            sample.ys])))
        pairs = _sample_pairs(ray_space, step_map)
        for entry in report.envelope_certs:
            env = extract_empirical_gauge(ray_space, step_map, pairs,
                                          t=entry["t"])
            cert = class_membership(env, ClassTag.PSI1, r_grid=SMALL_R)
            assert entry["verdict"] == cert.verdict.value

    def test_envelope_certificates_take_one_evaluation_per_step(self,
                                                                monkeypatch):
        # each scale's envelope is bisected over the whole r grid in
        # lockstep; a non-member scale adds one evaluation for its witness
        calls = []

        def counted_envelope(F, E):
            env = _make_envelope(F, E)

            def fn(tau):
                calls.append(env.name)
                return env.fn(tau)
            return Gauge(env.name, env.domain, fn)
        monkeypatch.setattr(contractions, "_make_envelope", counted_envelope)
        scenario = load_scenario("ex62")
        report = equivalence_probe(scenario.build_space(), scenario.build_map(),
                                   scenario.r_grid, scenario.t_grid)
        verdicts = [c["verdict"] for c in report.envelope_certs]
        assert len(verdicts) == len(scenario.t_grid) == 40
        assert verdicts.count("non_member") == 1
        assert "inconclusive" not in verdicts
        assert len(calls) == len(scenario.t_grid) * BISECT_ITERS + 1

    def test_decreasing_map_rejected(self, quad_space, perm_map):
        with pytest.raises(PreconditionError) as exc:
            equivalence_probe(quad_space, perm_map, r_grid=SMALL_R,
                              t_grid=SMALL_T)
        assert exc.value.witness["x"] == 0.0
        assert exc.value.witness["y"] == 1.0
