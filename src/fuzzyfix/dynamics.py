"""Picard orbits, regularity and Cauchy certification, and the solver.

An orbit trace records the iterate sequence together with its per-scale
step-nearness series.  Certification over a trace is always a statement
about the observed prefix, on the trace's own scale grid, except that
uniform regularity evaluates the final step at the scales t0/i:

* ``regularity_check`` decides whether step nearness approaches 1, per
  scale (threshold or trend, on the trace's step-nearness columns) and
  uniformly over a truncated decreasing scale sequence from the trace's
  first scale (threshold at the tail only, since genuinely uniform
  behaviour effectively requires eventually constant orbits),
* ``m_cauchy_check`` looks, per (threshold, scale), for the smallest cut
  N such that every observed pair beyond it clears the nearness bound;
  each cut's widest pair on a space that declares its distance profile,
  else the pairs i < j, is prepared once (see :mod:`fuzzyfix.spaces`),
  and the scales are evaluated over them in blocks, one scale-stage call
  per block,
* ``g_cauchy_check`` does the same for the fixed index gaps 1, 2 and 5,
  the weaker notion that the harmonic-sums counterexample separates from
  the former,
* ``cauchy_criterion_check`` certifies the implication "blended nearness
  past 1-rho forces next-step nearness past 1-r" over observed pairs;
  success is monotone in the cut, so the first valid cut is found
  directly, by the threshold search of :mod:`fuzzyfix.contractions` over
  the pairs' rows, with two pair sets prepared once and evaluated per
  block of scales (on a space that declares its distance profile, at the
  distinct distances only),
* ``solve_fixed_point`` audits a theorem route's preconditions, runs the
  orbit, certifies it, and reports the fixed point with a uniqueness scan
  on finite carriers; ``auto`` tries the candidate routes over one orbit,
  one regularity report and at most one contraction check.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Optional, Sequence

import numpy as np

from .algebra import DomainError
from .contractions import (
    CheckStatus,
    ClassificationReport,
    MParams,
    PairSample,
    SelfMap,
    _blended,
    _ordered,
    _pair_sample,
    _scale_rows,
    _threshold_search,
    cm_contractive_check,
    m_contractive_check,
)
from .defaults import scale_grid, threshold_grid
from .spaces import FuzzySpace, _check_tolerance

DEFAULT_MAX_LEN = 10000
# A trace stores max_len x |t grid| step-nearness values: at this cap and
# the scenario reader's grid cap, at most 10^7.
MAX_ORBIT_LEN = 100_000
DEFAULT_STOP_TOLERANCE = 1e-9
DEFAULT_TAIL_TOLERANCE = 1e-6
# The uniform regularity verdict reads the scales t0/i for i up to this.
UNIFORM_SCALES = 50

# A deficit series counts as converging to zero on the prefix when its tail
# keeps shrinking by at least this factor over the observed half-window.
TREND_DECAY = 0.75

# The index gaps whose nearness series the fixed-gap Cauchy check follows.
G_CAUCHY_GAPS = (1, 2, 5)


class StopReason(Enum):
    START_FIXED = "start_fixed"
    FIXED_POINT = "fixed_point"
    TOLERANCE = "tolerance"
    MAX_LEN = "max_len"
    PRESCRIBED = "prescribed"


@dataclass
class OrbitTrace:
    """A Picard iterate sequence with per-scale step-nearness series."""

    points: tuple[float, ...]
    t_grid: tuple[float, ...]
    step_nearness: np.ndarray        # shape (len(points)-1, len(t_grid))
    stop_reason: StopReason
    map_name: str

    @property
    def length(self) -> int:
        return len(self.points)

    @property
    def steps(self) -> int:
        return len(self.points) - 1

    def rows(self) -> list[dict]:
        """Tabular records (n, x_n, step nearness per grid scale)."""
        out = [{"n": n, "x": x} for n, x in enumerate(self.points)]
        for row, near in zip(out, self.step_nearness.tolist()):
            row["step_nearness"] = near
        return out

    @classmethod
    def from_points(cls, space: FuzzySpace, points: Sequence[float],
                    t_grid: Optional[Sequence[float]] = None) -> "OrbitTrace":
        """Wrap an explicit sequence (not necessarily a Picard orbit) of
        finite points; they may lie off the carrier."""
        grid = scale_grid(t_grid)
        pts = tuple(float(p) for p in points)
        if not pts:
            raise DomainError("a trace needs at least one point")
        p = np.array(pts)[:, None]
        bad = np.flatnonzero(~np.isfinite(p))
        if bad.size:
            raise DomainError(f"trace points must be finite, got "
                              f"{pts[bad[0]]!r} at index {bad[0]}")
        series = space.m(p[:-1], p[1:], np.array(grid))
        return cls(pts, grid, series, StopReason.PRESCRIBED, "prescribed")


# picard_orbit evaluates step nearness once per block of steps; blocks
# double from the first size to the last.
_FIRST_BLOCK = 16
_LAST_BLOCK = 2048


def picard_orbit(space: FuzzySpace, T: SelfMap, x0: float,
                 max_len: int = DEFAULT_MAX_LEN,
                 stop_tolerance: float = DEFAULT_STOP_TOLERANCE,
                 t_grid: Optional[Sequence[float]] = None) -> OrbitTrace:
    """Iterate T from x0 for at most ``max_len`` applications.

    Stops early when the iterate repeats exactly (the repeat is kept in the
    trace), or when the worst step nearness over the scale grid exceeds
    1 - ``stop_tolerance``; a repeat on the stopping step is a fixed point.
    A fixed start yields a single-point trace.

    The orbit runs in blocks of steps (16, doubling up to 2048).  Within a
    block the map's own function is called once per step, with the repeat
    test after each; the block's images are then checked against the
    carrier together, and their step nearness is evaluated by one
    broadcast call.  A tolerance stop is thus found once its block is
    mapped: past it, the map is applied at most 15 times more than the
    steps kept, and those steps are dropped.  An image off the carrier or
    an error raised by the map ends its block; that error is re-raised
    only when no earlier step stops the orbit, so the trace or error is
    that of a step-by-step loop of :meth:`SelfMap.apply`.

    ``max_len`` must lie in [1, ``MAX_ORBIT_LEN``] and ``stop_tolerance``
    in [0, inf); NaN is a DomainError too.
    """
    if max_len < 1:
        raise DomainError("max_len must be >= 1")
    if max_len > MAX_ORBIT_LEN:
        raise DomainError(f"max_len must be at most {MAX_ORBIT_LEN}, "
                          f"got {max_len}")
    _check_tolerance(stop_tolerance)
    grid = scale_grid(t_grid)
    carrier = space.carrier
    if not carrier.contains(x0):
        raise DomainError(f"start point {x0!r} outside the carrier")
    ts = np.array(grid)
    if T.apply(x0, carrier) == x0:
        return OrbitTrace((float(x0),), grid, np.zeros((0, len(grid))),
                          StopReason.START_FIXED, T.name)
    points = [float(x0)]
    blocks = []
    block = _FIRST_BLOCK
    while True:
        start = len(points) - 1
        # the error is deferred: an earlier step may stop the orbit first
        images, error = T._orbit_block(points[-1], min(block, max_len - start),
                                       carrier)
        points += images
        p = np.array(points[start:])[:, None]
        near = space.m(p[:-1], p[1:], ts)
        stops = np.flatnonzero(near.min(axis=1) > 1.0 - stop_tolerance)
        last = len(points) - 2 - start         # the block's final step
        if stops.size and stops[0] < last:
            reason, last = StopReason.TOLERANCE, int(stops[0])
        elif points[-1] == points[-2]:
            reason = StopReason.FIXED_POINT
        elif stops.size:
            reason = StopReason.TOLERANCE
        elif error is not None:
            raise error
        elif len(points) - 1 == max_len:
            reason = StopReason.MAX_LEN
        else:
            blocks.append(near)
            block = min(2 * block, _LAST_BLOCK)
            continue
        blocks.append(near[:last + 1])
        del points[start + last + 2:]
        return OrbitTrace(tuple(points), grid, np.concatenate(blocks), reason,
                          T.name)


def _tail_converges_to_zero(d: np.ndarray, tol: float) -> bool:
    """Prefix evidence that a nonnegative series tends to zero.

    True when the final value is below ``tol``, or when the tail is
    nonincreasing and still shrinking by ``TREND_DECAY`` across the second
    half of the window.
    """
    if d[-1] <= tol:
        return True
    if d.size < 4:
        return False
    half = d[d.size // 2:]
    if np.any(np.diff(half) > 1e-15):
        return False
    return d[-1] <= TREND_DECAY * half[0]


@dataclass
class RegularityReport:
    scale_sequence: tuple[float, ...]
    plain: dict
    uniform_sup_deficit: float
    uniform: bool

    @property
    def plain_all(self) -> bool:
        return all(self.plain.values())


def regularity_check(space: FuzzySpace, trace: OrbitTrace,
                     tail_tolerance: float = DEFAULT_TAIL_TOLERANCE,
                     ) -> RegularityReport:
    """Step-nearness regularity of a trace.

    Plain verdict per trace scale t: the deficit series
    1 - M(x_n, x_{n+1}, t), read from the trace, converges to zero on the
    prefix (threshold or trend).  Uniform verdict over the truncated
    decreasing scale sequence {t_0/i : 1 <= i <= ``UNIFORM_SCALES``}, t_0
    the trace's first scale: the supremum of the final-step deficits must
    already be below the tolerance, an intentionally strict truncation of
    the limit statement.  ``tail_tolerance`` must lie in [0, inf); NaN is a
    DomainError too.
    """
    _check_tolerance(tail_tolerance)
    if trace.length < 3:
        raise DomainError("regularity needs a trace of length >= 3")
    plain = {t: _tail_converges_to_zero(1.0 - series, tail_tolerance)
             for t, series in zip(trace.t_grid, trace.step_nearness.T)}
    seq = tuple(trace.t_grid[0] / i for i in range(1, UNIFORM_SCALES + 1))
    a, b = trace.points[-2], trace.points[-1]
    sup = float((1.0 - space.m(a, b, np.array(seq))).max())
    return RegularityReport(seq, plain, sup, sup <= tail_tolerance)


class CauchyKind(Enum):
    M_CAUCHY = "m_cauchy"
    G_CAUCHY = "g_cauchy"
    CRITERION = "m_cauchy_criterion"


class CauchyVerdict(Enum):
    HOLDS_ON_PREFIX = "holds_on_prefix"
    VIOLATED = "violated"


@dataclass
class CauchyCertificate:
    kind: CauchyKind
    verdict: CauchyVerdict
    r_grid: tuple[float, ...]
    t_grid: tuple[float, ...]
    m_grid: tuple[int, ...] = ()
    records: list[dict] = field(default_factory=list)
    witness: Optional[dict] = None

    @property
    def holds(self) -> bool:
        return self.verdict is CauchyVerdict.HOLDS_ON_PREFIX

    def to_dict(self) -> dict:
        return {"kind": self.kind.value, "verdict": self.verdict.value,
                "r_grid": list(self.r_grid), "t_grid": list(self.t_grid),
                "m_grid": list(self.m_grid),
                "records": self.records, "witness": self.witness}


# All-pairs certification of traces longer than this works on an even index
# subsample; the certified pairs remain genuine observed pairs of the trace.
PAIR_CERT_CAP = 512


def _cert_indices(length: int) -> np.ndarray:
    if length <= PAIR_CERT_CAP:
        return np.arange(length)
    # the step exceeds 1, so the rounded indices strictly increase
    return np.round(np.linspace(0, length - 1, PAIR_CERT_CAP)).astype(int)


def m_cauchy_check(space: FuzzySpace, trace: OrbitTrace,
                   r_grid: Optional[Sequence[float]] = None,
                   ) -> CauchyCertificate:
    """Prefix certificate of the all-pairs Cauchy property.

    For each threshold r and trace scale t the smallest cut N is recorded
    such that every observed pair beyond N has nearness above 1-r; the
    certificate holds on the prefix when a cut with at least one pair
    exists for every grid point.
    When even the last cut fails a bound, the grid point is refuted and its
    witness is the last certified pair, beyond every cut, whose nearness
    the tails already hold.  Long traces are certified on an even index
    subsample of at most ``PAIR_CERT_CAP`` points.

    The worst nearness beyond each cut is read in O(n) per scale when the
    space declares its distance profile (:class:`FuzzySpace`) and the
    subsample lies on the carrier, where the profile holds.  Nearness then
    falls as the distance grows, so a tail's worst pair is its widest: its
    largest and its smallest point, whose distance is the tail's largest
    for either built-in metric (for ``max-jachymski``, the largest point
    paired with a distinct value when the tail has one, else 0).  Float
    subtraction and the max are monotone, so no other pair of the tail is
    computed wider; that pair is evaluated through the space's own pair
    stage, so its value is the tail's minimum bit for bit.  Elsewhere all
    pairs i < j are evaluated at each scale and their suffix minima taken.
    """
    if trace.length < 2:
        raise DomainError("the Cauchy check needs a trace of length >= 2")
    rs = threshold_grid(r_grid)
    grid = trace.t_grid
    idx = _cert_indices(trace.length)
    pts = np.array(trace.points)[idx]
    cert = CauchyCertificate(CauchyKind.M_CAUCHY, CauchyVerdict.HOLDS_ON_PREFIX,
                             rs, grid)
    bounds = [1.0 - r for r in rs]
    if space.distance is not None and space.carrier.contains(pts).all():
        # the widest pair beyond each cut k: the largest and smallest of
        # the points from k on
        hi = np.maximum.accumulate(pts[::-1])[::-1]
        lo = np.minimum.accumulate(pts[::-1])[::-1]
        worst = _scale_rows(grid, len(pts) - 1,
                            space.pairs(hi[:-1], lo[:-1]))
    else:
        # the pairs i < j in row-major order, and where each row i starts
        i, j = np.triu_indices(len(pts), 1)
        starts = np.searchsorted(i, np.arange(len(pts) - 1))
        rows = _scale_rows(grid, len(i), space.pairs(pts[i], pts[j]))
        worst = ((t, np.minimum.accumulate(
            np.minimum.reduceat(near, starts)[::-1])[::-1])
                 for t, near in rows)
    for t, g in worst:
        # g[k] = worst nearness among pairs fully beyond cut k; it is
        # nondecreasing, so each bound's first cut above it is one search
        cuts = np.searchsorted(g, bounds, side="right").tolist()
        for r, cut in zip(rs, cuts):
            if cut < len(g):
                cert.records.append({"t": t, "r": r, "N": int(idx[cut])})
            else:
                # the last certified pair, beyond every cut
                cert.verdict = CauchyVerdict.VIOLATED
                cert.witness = {"t": t, "r": r, "n": int(idx[-2]),
                                "m": int(idx[-1]), "nearness": float(g[-1])}
                return cert
    return cert


def g_cauchy_check(space: FuzzySpace,
                   trace: OrbitTrace) -> CauchyCertificate:
    """Prefix certificate of the fixed-gap Cauchy property.

    The fixed-gap notion is a limit statement, so per gap m of
    ``G_CAUCHY_GAPS`` and trace scale t the gap-m nearness series must
    converge to 1 on the prefix (threshold or trend, with tolerance
    ``DEFAULT_TAIL_TOLERANCE``); the gap-1 series is the trace's own step
    nearness.  Strictly weaker than the all-pairs certificate: sequences
    with shrinking steps but unbounded drift pass here and fail there.
    """
    if trace.length <= max(G_CAUCHY_GAPS):
        raise DomainError("trace shorter than the largest gap")
    grid = trace.t_grid
    pts = np.array(trace.points)
    cert = CauchyCertificate(CauchyKind.G_CAUCHY, CauchyVerdict.HOLDS_ON_PREFIX,
                             (), grid, m_grid=G_CAUCHY_GAPS)
    for m in G_CAUCHY_GAPS:
        series = (zip(grid, trace.step_nearness.T) if m == 1 else
                  _scale_rows(grid, len(pts) - m,
                              space.pairs(pts[:-m], pts[m:])))
        for t, near in series:
            deficits = 1.0 - near
            ok = _tail_converges_to_zero(deficits, DEFAULT_TAIL_TOLERANCE)
            rec = {"m": m, "t": t, "converged": bool(ok),
                   "final_deficit": float(deficits[-1])}
            cert.records.append(rec)
            if not ok:
                k = int(np.argmax(deficits[len(deficits) // 2:]))
                cert.verdict = CauchyVerdict.VIOLATED
                cert.witness = {"m": m, "t": t,
                                "n": int(len(deficits) // 2 + k),
                                "deficit": float(deficits[len(deficits) // 2 + k])}
                return cert
    return cert


def cauchy_criterion_check(space: FuzzySpace, trace: OrbitTrace,
                           params: Optional[MParams] = None,
                           r_grid: Optional[Sequence[float]] = None,
                           ) -> CauchyCertificate:
    """Certify the pairwise improvement implication along a trace.

    For each trace scale t and threshold r, a threshold rho in (r, 1) and a
    cut N are searched such that for all observed indices p, q >= N the
    blended nearness of (x_p, x_q) above 1-rho forces the nearness of
    (x_{p+1}, x_{q+1}) past 1-r.  The premise is plain nearness, or with
    ``params`` the blended comparison, whose images are the successors in
    the trace.

    The search fails exactly when the window holds a fatal pair, one whose
    successors miss 1-r although its premise reaches 1-r (both up to
    ``CLASS_TOL``); raising the cut only drops pairs, so success is
    monotone in the cut.  The first valid cut is the first one above every
    fatal pair's smaller index.  The premise and successor pairs are
    prepared once and evaluated per block of scales; at each scale their
    two rows serve the whole threshold grid, which the package's one
    threshold search answers with the pairs' smaller indices as its rows.
    That search is built once per check, with the thresholds and where
    each cut's rows start.  At a scale, a threshold rescans its violators
    only when their premise maximum reaches 1-r: then it reads their
    fatal rows, and the premise maximum beyond its first valid cut, which
    the thresholds with the same violators and cut share.  A record's N is
    the cut's trace index; the certificate's kind is ``CRITERION``, not
    ``M_CAUCHY``, so that a report tells this evidence from the
    definition's (:func:`m_cauchy_check`).

    For plain nearness on a space that declares its distance profile
    (:class:`FuzzySpace`), with every trace point on the carrier, where the
    profile holds, the pairs are ranked once per check by successor and by
    pair distance, as a pair sample's are (:attr:`PairSample.ordered`), and
    the two pair stages hold the distinct distances only.  The search
    confirms the order at each scale; the records and witnesses are those
    of the per-pair path.
    """
    if trace.length < 3:
        raise DomainError("the criterion needs a trace of length >= 3")
    rs = threshold_grid(r_grid)
    grid = trace.t_grid
    pts = np.array(trace.points)
    sub = _cert_indices(trace.length - 1)   # pairs need successors
    # a cut keeps whole rows, a pair's smaller index being its row's; the
    # window beyond a cut must keep at least two indices, so that it
    # contains a pair of distinct successors
    rows, yi = np.triu_indices(len(sub), k=0)
    xi, yi = sub[rows], sub[yi]
    xs, ys = pts[xi], pts[yi]
    nxs, nys = pts[xi + 1], pts[yi + 1]
    d = space.distance
    orders = (_ordered(d.eval(nxs, nys), d.eval(xs, ys))
              if params is None and d is not None
              and space.carrier.contains(pts).all() else None)
    if orders is not None:      # one pair per distinct distance
        pr, im = orders.pair.reps, orders.image.reps
        xs, ys, nxs, nys = xs[pr], ys[pr], nxs[im], nys[im]
    size = max(len(xs), len(nxs))
    premise = (space.pairs(xs, ys) if params is None
               else _blended(space, params, xs, ys, nxs, nys))
    after = space.pairs(nxs, nys)
    del xs, ys, nxs, nys        # the scale loop needs only the pair stages
    cert = CauchyCertificate(CauchyKind.CRITERION,
                             CauchyVerdict.HOLDS_ON_PREFIX, rs, grid)
    # the implication premise is one-sided: any pair whose blend clears
    # 1-rho must already improve past 1-r
    search = _threshold_search(rs, onesided=True, rows=rows,
                               cuts=sub[:-1].tolist(), orders=orders)
    for t, F, E in _scale_rows(grid, size, premise, after):
        for r, (rec, k) in zip(rs, search(F, E, t)):
            if rec is None:
                # refuted at every cut: the witness is the first cut's,
                # whose window holds every pair
                kf, ke = ((k, k) if orders is None else
                          (orders.pair.group[k], orders.image.group[k]))
                cert.verdict = CauchyVerdict.VIOLATED
                cert.witness = {"t": t, "r": r, "p": int(xi[k]),
                                "q": int(yi[k]), "blend": float(F[kf]),
                                "next_nearness": float(E[ke])}
                return cert
            cert.records.append(rec)
    return cert


# ---------------------------------------------------------------------------
# the solver
# ---------------------------------------------------------------------------

class Route(Enum):
    AUTO = "auto"
    CM_STRONG = "cm-strong"
    CM_GENERAL = "cm-general"
    M_FINAL = "m-final"

    @classmethod
    def _missing_(cls, value):
        raise DomainError(f"unknown route {value!r}")


@dataclass
class SolverConfig:
    max_len: int = DEFAULT_MAX_LEN
    stop_tolerance: float = DEFAULT_STOP_TOLERANCE
    tail_tolerance: float = DEFAULT_TAIL_TOLERANCE
    t_grid: Optional[tuple[float, ...]] = None
    r_grid: Optional[tuple[float, ...]] = None
    complete: bool = True            # declared scenario attribute
    alpha: float = 0.0
    beta: float = 0.0
    psi: Optional[object] = None     # optional gauge for the blended route


@dataclass
class AuditItem:
    condition: str
    passed: bool
    detail: Optional[dict] = None

    def to_dict(self) -> dict:
        return {"condition": self.condition, "passed": self.passed,
                "detail": self.detail}


@dataclass
class FixedPointResult:
    route: Route
    converged: bool
    audit: list[AuditItem]
    fixed_point: Optional[float] = None
    exact: bool = False
    iterations: Optional[int] = None
    unique: Optional[bool] = None
    fixed_points_found: Optional[list[float]] = None
    trace: Optional[OrbitTrace] = None
    cauchy: Optional[CauchyCertificate] = None
    diagnosis: Optional[str] = None

    @property
    def audit_passed(self) -> bool:
        return all(a.passed for a in self.audit)

    def failing_condition(self) -> Optional[str]:
        for a in self.audit:
            if not a.passed:
                return a.condition
        return None

    def to_dict(self) -> dict:
        return {"route": self.route.value, "converged": self.converged,
                "audit": [a.to_dict() for a in self.audit],
                "audit_passed": self.audit_passed,
                "fixed_point": self.fixed_point, "exact": self.exact,
                "iterations": self.iterations, "unique": self.unique,
                "fixed_points_found": self.fixed_points_found,
                "diagnosis": self.diagnosis,
                "trace_length": self.trace.length if self.trace else None,
                "cauchy": self.cauchy.to_dict() if self.cauchy else None}


def _classification_audit(name: str, report: ClassificationReport) -> AuditItem:
    detail = {"definition": report.definition, "status": report.status.value}
    if report.status is not CheckStatus.SATISFIED:
        for cond in report.conditions:
            if cond.status is CheckStatus.VIOLATED:
                detail["failed_condition"] = cond.name
                detail["witness"] = cond.witness
                break
    return AuditItem(name, report.satisfied, detail)


def solve_fixed_point(space: FuzzySpace, T: SelfMap, x0: float,
                      route: Route | str = Route.AUTO,
                      config: Optional[SolverConfig] = None,
                      sample: Optional[PairSample] = None,
                      ) -> FixedPointResult:
    """Audit a theorem route, run the Picard orbit, certify, and report.

    Routes: ``cm-strong`` needs a declared-complete strong space and the
    threshold-implication contraction; ``cm-general`` drops strongness but
    needs uniform regularity at the start point; ``m-final`` uses the
    blended form with a continuous map and (uniform, or plain when strong)
    regularity.  ``auto`` picks the first route whose audit passes; the
    candidates share one orbit, one regularity report and at most one
    threshold-implication check, and all share one :class:`PairSample`,
    ``sample`` when given.  When an audit fails the result carries the
    named failing condition and makes no convergence claim.
    """
    cfg = config or SolverConfig()
    route = Route(route)
    grid = scale_grid(cfg.t_grid)
    rs = threshold_grid(cfg.r_grid)
    params = MParams(cfg.alpha, cfg.beta)

    trace = picard_orbit(space, T, x0, cfg.max_len, cfg.stop_tolerance, grid)
    plain_ok = uniform_ok = True      # shorter traces are regular at the start
    sup_deficit = 0.0
    if trace.length >= 3:
        regularity = regularity_check(space, trace, cfg.tail_tolerance)
        plain_ok, uniform_ok = regularity.plain_all, regularity.uniform
        sup_deficit = regularity.uniform_sup_deficit

    candidates = ((Route.CM_STRONG, Route.CM_GENERAL, Route.M_FINAL)
                  if route is Route.AUTO else (route,))
    sample = _pair_sample(space, T, sample)
    cm = None
    for candidate in candidates:
        audit = [AuditItem("declared-complete", bool(cfg.complete))]
        if candidate is Route.M_FINAL:
            audit.append(AuditItem("map-continuity", T.continuous,
                                   {"source": T.continuity_source}))
            mc = m_contractive_check(space, T, params, psi=cfg.psi,
                                     r_grid=rs, t_grid=grid, sample=sample)
            audit.append(_classification_audit("blended-contraction", mc))
            audit.append(AuditItem("regularity-at-start", plain_ok)
                         if space.strong else
                         AuditItem("uniform-regularity-at-start", uniform_ok))
        else:
            if candidate is Route.CM_STRONG:
                audit.append(AuditItem("declared-strong", space.strong))
            if cm is None:
                cm = cm_contractive_check(space, T, rs, grid, sample=sample)
            audit.append(_classification_audit("contraction", cm))
            if candidate is Route.CM_GENERAL:
                audit.append(AuditItem("uniform-regularity-at-start",
                                       uniform_ok,
                                       {"sup_deficit": sup_deficit}))
        result = FixedPointResult(candidate, False, audit, trace=trace)
        if result.audit_passed:
            break
    if not result.audit_passed:
        result.diagnosis = f"precondition failed: {result.failing_condition()}"
        return result

    if trace.length >= 2:
        result.cauchy = m_cauchy_check(space, trace, rs)
    carrier = space.carrier
    z = trace.points[-1]
    if carrier.is_finite:
        if T.apply(z, carrier) == z:
            result.fixed_point = z
            result.exact = True
            result.converged = True
            result.iterations = trace.points.index(z)
            pts = np.array(carrier.points)
            result.fixed_points_found = pts[T.apply(pts, carrier) == pts].tolist()
            result.unique = result.fixed_points_found == [z]
        else:
            result.diagnosis = ("no fixed point reached within "
                                f"{cfg.max_len} steps")
    else:
        result.fixed_point = z
        result.iterations = trace.steps
        near_fixed = (space.m(z, T.apply(z, carrier), grid[-1])
                      > 1.0 - cfg.tail_tolerance)
        result.converged = bool(near_fixed or
                                trace.stop_reason is StopReason.TOLERANCE)
        if not result.converged:
            result.diagnosis = ("orbit not yet within stop tolerance; "
                                "limit estimate reported")
    return result
