"""Classify self-maps against graded contraction definitions.

Checks provided, each over explicit scale and threshold grids:

* strict-improvement plus gauge-bound form (psi-contractive),
* strict-improvement plus per-threshold implication form where nearness
  past 1-rho must improve past 1-r (the threshold-implication form, in a
  two-sided and a one-sided variant),
* the generalized form whose comparison value blends the pair nearness
  with each point's self-displacement nearness raised to fixed exponents,
* empirical gauge extraction: the monotone lower envelope of observed
  (before, after) nearness samples, with class certification,
* an equivalence probe relating the uniform-in-t and per-t variants.

All verdicts carry re-checkable witnesses.  A threshold search accepts a
rho only when some sampled pair actually lies in the premise window (or
no pair lies below the target threshold at all); this keeps sampled
continuous carriers from passing vacuously through sub-resolution windows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Optional, Sequence

import numpy as np

from .algebra import (
    ClassTag,
    DomainError,
    Gauge,
    GaugeDomain,
    MembershipCertificate,
    class_membership,
)
from .defaults import CLASS_TOL, ENDPOINT_CLAMP, scale_grid, threshold_grid
from .spaces import Carrier, FuzzySpace

# Strictness margin for inequalities on sampled continuous carriers;
# finite carriers compare exactly.
STRICT_MARGIN = 1e-12


class PreconditionError(RuntimeError):
    """A check's stated hypothesis fails; carries a concrete witness."""

    def __init__(self, message: str, witness: Optional[dict] = None):
        super().__init__(message)
        self.witness = witness


# ---------------------------------------------------------------------------
# self-maps
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SelfMap:
    """A self-map of a carrier with a declared continuity flag."""

    name: str
    fn: Callable[[float], float]
    continuous: bool = True
    continuity_source: str = "declared"

    def __call__(self, x: float) -> float:
        return float(self.fn(x))

    def apply(self, x: float, carrier: Optional[Carrier] = None) -> float:
        y = float(self.fn(x))
        if carrier is not None and not carrier.contains(y):
            raise DomainError(f"map {self.name} sends {x!r} to {y!r} "
                              "outside the carrier")
        return y


def table_map(mapping: dict, carrier: Optional[Carrier] = None,
              name: str = "table") -> SelfMap:
    """Self-map of a finite carrier given by an explicit value table."""
    lookup = {float(k): float(v) for k, v in mapping.items()}
    if carrier is not None:
        for p in carrier.points:
            if p not in lookup:
                raise DomainError(f"table map is missing the image of point {p}")

    def fn(x: float) -> float:
        try:
            return lookup[float(x)]
        except KeyError:
            raise DomainError(f"point {x!r} not in the map table") from None
    # finite tables have no connectedness to break
    return SelfMap(name, fn, continuous=True, continuity_source="finite-carrier")


def self_map(spec: str, carrier: Optional[Carrier] = None) -> SelfMap:
    """Resolve a named self-map.

    Supported ids: ``phi-step`` (the step gauge as a self-map of [0,inf)),
    ``perm-0-1-2-5`` (the cyclic table 0->0, 1->5, 2->0, 5->2),
    ``identity``, ``const:<c>`` and ``expr:<expression>`` with free
    variable x.
    """
    if spec == "phi-step":
        from .algebra import _step_phi_fn
        return SelfMap("phi-step", _step_phi_fn, continuous=True,
                       continuity_source="builtin")
    if spec == "perm-0-1-2-5":
        return table_map({0: 0, 1: 5, 2: 0, 5: 2}, carrier, name="perm-0-1-2-5")
    if spec == "identity":
        return SelfMap("identity", lambda x: x, continuous=True,
                       continuity_source="builtin")
    if spec.startswith("const:"):
        c = float(spec.split(":", 1)[1])
        return SelfMap(spec, lambda x: c, continuous=True,
                       continuity_source="builtin")
    if spec.startswith("expr:"):
        from .expressions import evaluate, parse_expression
        tree = parse_expression(spec.split(":", 1)[1])
        return SelfMap(spec, lambda x: evaluate(tree, {"x": x}),
                       continuous=True, continuity_source="declared")
    raise DomainError(f"unknown map id {spec!r}")


@dataclass(frozen=True)
class MParams:
    """Exponents of the self-displacement factors in the blended comparison."""

    alpha: float
    beta: float

    def __post_init__(self):
        if self.alpha < 0 or self.beta < 0:
            raise DomainError("exponents must be nonnegative")


def _blend(space: FuzzySpace, params: MParams, xs, ys, txs, tys,
           t: float) -> np.ndarray:
    """Blended comparison values of the pairs (xs, ys) with images (txs, tys).

    Elementwise over scalars or arrays.  Nearness values are raised to their
    exponents as returned: a 0-d array would take numpy's vectorised power,
    which can differ in the last bit from the C library power that scalar
    values get.
    """
    fx = space.m(xs, txs, t) ** params.alpha
    fy = space.m(ys, tys, t) ** params.beta
    norm = space.tnorm
    return np.asarray(norm.apply(norm.apply(space.m(xs, ys, t), fx), fy),
                      dtype=float)


def m_value(space: FuzzySpace, T: SelfMap, params: MParams,
            x: float, y: float, t: float) -> float:
    """Blended comparison value at scale t.

    Combines M(x,y,t) with M(x,Tx,t)^alpha and M(y,Ty,t)^beta through the
    space's t-norm; exponentiation is real-valued inside each factor.
    """
    return float(_blend(space, params, x, y, T(x), T(y), t))


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

class CheckStatus(Enum):
    SATISFIED = "satisfied"
    VIOLATED = "violated"
    INCONCLUSIVE = "inconclusive"


@dataclass
class ConditionVerdict:
    name: str
    status: CheckStatus
    witness: Optional[dict] = None
    records: list[dict] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {"name": self.name, "status": self.status.value,
                "witness": self.witness, "records": self.records}


@dataclass
class ClassificationReport:
    map_name: str
    definition: str
    conditions: list[ConditionVerdict]
    t_grid: tuple[float, ...]
    r_grid: tuple[float, ...] = ()
    details: dict = field(default_factory=dict)

    @property
    def status(self) -> CheckStatus:
        if any(c.status is CheckStatus.VIOLATED for c in self.conditions):
            return CheckStatus.VIOLATED
        if all(c.status is CheckStatus.SATISFIED for c in self.conditions):
            return CheckStatus.SATISFIED
        return CheckStatus.INCONCLUSIVE

    @property
    def satisfied(self) -> bool:
        return self.status is CheckStatus.SATISFIED

    def condition(self, name: str) -> ConditionVerdict:
        for c in self.conditions:
            if c.name == name:
                return c
        raise KeyError(name)

    def to_dict(self) -> dict:
        return {"map": self.map_name, "definition": self.definition,
                "status": self.status.value,
                "conditions": [c.to_dict() for c in self.conditions],
                "t_grid": list(self.t_grid), "r_grid": list(self.r_grid),
                "details": self.details}


# ---------------------------------------------------------------------------
# pair machinery
# ---------------------------------------------------------------------------

# Relative spacing of the fine distance sweep on interval carriers.  At this
# ratio any violator-free premise window either contains a sweep sample or is
# narrower than VACUOUS_WINDOW_TOL in nearness units.
_SWEEP_RATIO = 3e-4
_SWEEP_MIN_FRACTION = 1e-5


def _carrier_pairs(carrier: Carrier, include_diagonal: bool = True):
    """Pair sample of a carrier: (xs, ys, n_base).

    The first ``n_base`` pairs are the regular sample (all pairs of the
    carrier points, decimated on interval carriers).  Interval carriers
    additionally get a fine logarithmic distance sweep anchored at the
    lower endpoint so that narrow premise windows in distance space get
    probed; sweep pairs sit arbitrarily close to gauge branch edges, so
    strictness conditions with a fixed margin are checked on the regular
    sample only.
    """
    pts = np.array(carrier.points)
    if carrier.is_finite:
        i, j = np.triu_indices(len(pts), k=0 if include_diagonal else 1)
        return pts[i], pts[j], len(i)
    step = max(1, len(pts) // 80)
    sub = pts[::step]
    i, j = np.triu_indices(len(sub), k=0 if include_diagonal else 1)
    xs, ys = sub[i], sub[j]
    n_base = len(xs)
    span = carrier.high - carrier.low
    d0 = span * _SWEEP_MIN_FRACTION
    count = int(math.ceil(math.log(1.0 / _SWEEP_MIN_FRACTION) / _SWEEP_RATIO))
    ds = d0 * np.exp(np.arange(count + 1) * _SWEEP_RATIO)
    ds = ds[ds <= span]
    xs = np.concatenate([xs, np.full(ds.shape, carrier.low)])
    ys = np.concatenate([ys, carrier.low + ds])
    return xs, ys, n_base


def _map_images(T: SelfMap, xs: np.ndarray, carrier: Carrier) -> np.ndarray:
    cache: dict[float, float] = {}
    out = np.empty_like(xs, dtype=float)
    for k, x in enumerate(xs):
        key = float(x)
        if key not in cache:
            cache[key] = T.apply(key, carrier)
        out[k] = cache[key]
    return out


def _gauge_bound(psi: Gauge, premise: np.ndarray) -> np.ndarray:
    """psi at each premise value, with 0 read as the smallest positive double.

    A blend of tiny nearness values can underflow to 0, outside psi's domain;
    for a nondecreasing psi the bound at that double is the conservative
    one.  Replaying a witness whose premise is 0 needs the same rule."""
    return psi.eval(np.maximum(premise, np.nextafter(0.0, 1.0)))


# A sample-free premise window narrower than this (in nearness units) is
# accepted as vacuously satisfied: it lies below what the pair sampling can
# probe.  A wider sample-free window on a sampled continuous carrier is
# treated as refuted at this sampling.
VACUOUS_WINDOW_TOL = 1e-4


class _ThresholdIndex:
    """Sorted (premise, conclusion) pair values for threshold searches."""

    def __init__(self, F: np.ndarray, E: np.ndarray):
        order = np.argsort(F, kind="stable")
        self.F = F[order]
        self.E = E[order]
        self.order = order

    def restrict(self, keep: np.ndarray) -> "_ThresholdIndex":
        """The index of the pairs whose sorted positions ``keep`` selects.

        Masking a stable order gives the stable order of the kept pairs, so
        nothing is re-sorted, and ``order`` still names the original pairs.
        """
        sub = object.__new__(type(self))
        sub.F, sub.E, sub.order = self.F[keep], self.E[keep], self.order[keep]
        return sub

    def search(self, r: float, onesided: bool = False, finite: bool = True):
        """Certify "premise window implies conclusion >= 1-r" at threshold r.

        The supremum of valid rho is computed exactly from the samples: a
        rho is valid iff its premise window (1-rho, 1-r) (two-sided) or
        (1-rho, 1] (one-sided) contains no violating pair, so the sup is
        1 - V with V the largest premise value among violators.  Returns
        ``(record, None)`` when certified and ``(None, witness_index)``
        when refuted; the witness is the violating pair closest below the
        threshold, re-checkable by evaluation.

        On finite carriers a violator-free window needs no sample inside it
        (the gap is a real feature of the finite value set); on sampled
        continuous carriers it must either contain a satisfying sample or
        be narrower than ``VACUOUS_WINDOW_TOL``.
        """
        threshold = 1.0 - r
        target = threshold - CLASS_TOL
        hi = int(np.searchsorted(self.F, threshold, side="left"))
        end = len(self.F) if onesided else hi
        if end == 0:
            return ({"r": r, "rho": 1.0 - ENDPOINT_CLAMP, "vacuous": True,
                     "reason": "no pairs below threshold"}, None)
        bad = np.nonzero(self.E[:end] < target)[0]
        if bad.size == 0:
            return ({"r": r, "rho": 1.0 - ENDPOINT_CLAMP, "vacuous": False},
                    None)
        k = int(bad[-1])              # violator with the largest premise value
        witness = int(self.order[k])
        v = float(self.F[k])
        rho = 1.0 - v
        if rho <= r + CLASS_TOL:
            return None, witness      # violator at or above the threshold
        # satisfying samples strictly inside the violator-free window
        zone_lo = int(np.searchsorted(self.F, v, side="right"))
        if zone_lo < end:
            return ({"r": r, "rho": rho, "vacuous": False}, None)
        if finite:
            return ({"r": r, "rho": rho, "vacuous": True, "reason": "gap"},
                    None)
        if threshold - v <= VACUOUS_WINDOW_TOL:
            return ({"r": r, "rho": rho, "vacuous": True,
                     "reason": "sub-resolution window"}, None)
        return None, witness


def _strict_improvement(space: FuzzySpace, name: str, t_grid,
                        xs, ys, txs, tys, premise=None,
                        key: str = "before") -> ConditionVerdict:
    """Condition: at every scale, distinct pairs' images are strictly nearer
    than ``premise(t)`` (default: the pairs' own nearness), which the
    witness names ``key``, ``before`` or ``blend``."""
    margin = 0.0 if space.carrier.is_finite else STRICT_MARGIN
    distinct = xs != ys
    verdict = ConditionVerdict(name, CheckStatus.SATISFIED)
    for t in t_grid:
        F = (np.asarray(space.m(xs, ys, t), dtype=float) if premise is None
             else premise(t))
        E = np.asarray(space.m(txs, tys, t), dtype=float)
        bad = distinct & ~(E > F + margin)
        if bad.any():
            i = int(np.nonzero(bad)[0][0])
            verdict.status = CheckStatus.VIOLATED
            values = ({"before": float(F[i]), "after": float(E[i])}
                      if key == "before" else
                      {"after": float(E[i]), "blend": float(F[i])})
            verdict.witness = {"x": float(xs[i]), "y": float(ys[i]), "t": t,
                               **values}
            break
    return verdict


# ---------------------------------------------------------------------------
# the checks
# ---------------------------------------------------------------------------

def psi_contractive_check(space: FuzzySpace, T: SelfMap, psi: Gauge,
                          t_grid: Optional[Sequence[float]] = None,
                          ) -> ClassificationReport:
    """Check the gauge-bound contraction form for a psi-style gauge.

    Condition 1 requires strictly improved nearness for distinct pairs;
    condition 2 requires after-nearness >= psi(before-nearness) for all
    carrier sample pairs and grid scales.
    """
    if psi.domain is not GaugeDomain.PSI:
        raise DomainError(f"{psi.name} is not psi-style")
    grid = scale_grid(t_grid)
    xs, ys, n_base = _carrier_pairs(space.carrier)
    txs = _map_images(T, xs, space.carrier)
    tys = _map_images(T, ys, space.carrier)

    cond1 = _strict_improvement(space, "strict-improvement", grid,
                                xs[:n_base], ys[:n_base],
                                txs[:n_base], tys[:n_base])
    cond2 = ConditionVerdict("gauge-bound", CheckStatus.SATISFIED)
    for t in grid:
        F = np.asarray(space.m(xs, ys, t), dtype=float)
        E = np.asarray(space.m(txs, tys, t), dtype=float)
        bound = _gauge_bound(psi, F)
        bad = E < bound - CLASS_TOL
        if bad.any():
            i = int(np.nonzero(bad)[0][0])
            cond2.status = CheckStatus.VIOLATED
            cond2.witness = {"x": float(xs[i]), "y": float(ys[i]), "t": t,
                             "after": float(E[i]), "bound": float(bound[i])}
            break
    return ClassificationReport(T.name, f"psi-contractive({psi.name})",
                                [cond1, cond2], grid)


def cm_contractive_check(space: FuzzySpace, T: SelfMap,
                         r_grid: Optional[Sequence[float]] = None,
                         t_grid: Optional[Sequence[float]] = None,
                         form: str = "between") -> ClassificationReport:
    """Check the threshold-implication contraction form.

    Condition 1 as in :func:`psi_contractive_check`.  Condition 2 searches,
    per scale t and threshold r, a rho in (r,1) such that every sampled
    pair whose nearness lies in the premise window improves past 1-r; the
    found rho values are recorded.  ``form`` selects the premise window:
    ``between`` uses 1-r > M > 1-rho and ``onesided`` uses M > 1-rho.
    """
    if form not in ("between", "onesided"):
        raise DomainError(f"unknown form {form!r}")
    grid = scale_grid(t_grid)
    rs = threshold_grid(r_grid)
    xs, ys, n_base = _carrier_pairs(space.carrier)
    txs = _map_images(T, xs, space.carrier)
    tys = _map_images(T, ys, space.carrier)

    cond1 = _strict_improvement(space, "strict-improvement", grid,
                                xs[:n_base], ys[:n_base],
                                txs[:n_base], tys[:n_base])
    cond2 = ConditionVerdict("threshold-implication", CheckStatus.SATISFIED)
    finite = space.carrier.is_finite
    for t in grid:
        F = np.asarray(space.m(xs, ys, t), dtype=float)
        E = np.asarray(space.m(txs, tys, t), dtype=float)
        index = _ThresholdIndex(F, E)
        for r in rs:
            rec, k = index.search(r, onesided=(form == "onesided"),
                                  finite=finite)
            if rec is None:
                cond2.status = CheckStatus.VIOLATED
                cond2.witness = {"x": float(xs[k]), "y": float(ys[k]),
                                 "t": t, "r": r, "before": float(F[k]),
                                 "after": float(E[k])}
                break
            cond2.records.append({"t": t, **rec})
        if cond2.status is CheckStatus.VIOLATED:
            break
    return ClassificationReport(T.name, f"threshold-implication({form})",
                                [cond1, cond2], grid, rs)


def m_contractive_check(space: FuzzySpace, T: SelfMap, params: MParams,
                        psi: Optional[Gauge] = None,
                        r_grid: Optional[Sequence[float]] = None,
                        t_grid: Optional[Sequence[float]] = None,
                        n_cap: Optional[int] = None) -> ClassificationReport:
    """Check the blended-comparison contraction form.

    Condition (i) requires after-nearness strictly above the blended value
    for distinct pairs.  With ``psi`` given, condition (ii) is the gauge
    form after-nearness >= psi(blended value) and the report carries the
    tightest observed margin; otherwise (ii) searches per (t, r) a pair
    (rho, N) with N up to ``n_cap`` iterate shifts.
    """
    grid = scale_grid(t_grid)
    rs = threshold_grid(r_grid)
    carrier = space.carrier
    if n_cap is None:
        n_cap = len(carrier.points) if carrier.is_finite else 50
    xs, ys, n_base = _carrier_pairs(carrier)
    txs = _map_images(T, xs, carrier)
    tys = _map_images(T, ys, carrier)

    bxs, bys = xs[:n_base], ys[:n_base]
    btxs, btys = txs[:n_base], tys[:n_base]
    cond1 = _strict_improvement(
        space, "strict-improvement-over-blend", grid, bxs, bys, btxs, btys,
        lambda t: _blend(space, params, bxs, bys, btxs, btys, t), key="blend")

    if psi is not None:
        cond2 = ConditionVerdict("gauge-bound-over-blend", CheckStatus.SATISFIED)
        tightest = math.inf
        for t in grid:
            mv = _blend(space, params, xs, ys, txs, tys, t)
            E = np.asarray(space.m(txs, tys, t), dtype=float)
            bound = _gauge_bound(psi, mv)
            slack = E - bound
            tightest = min(tightest, float(slack.min()))
            bad = slack < -CLASS_TOL
            if bad.any():
                i = int(np.nonzero(bad)[0][0])
                cond2.status = CheckStatus.VIOLATED
                cond2.witness = {"x": float(xs[i]), "y": float(ys[i]), "t": t,
                                 "after": float(E[i]), "bound": float(bound[i])}
                break
        report = ClassificationReport(
            T.name, f"blended-contraction({psi.name})", [cond1, cond2],
            grid, rs, details={"alpha": params.alpha, "beta": params.beta,
                               "tightest_margin": tightest})
        return report

    # iterate-shift search: premise on the blend of N-step images, conclusion
    # on the nearness of (N+1)-step images
    iterates = [(xs, ys)]
    for _ in range(n_cap + 1):
        px, py = iterates[-1]
        iterates.append((_map_images(T, px, carrier),
                         _map_images(T, py, carrier)))
    cond2 = ConditionVerdict("iterate-threshold-implication", CheckStatus.SATISFIED)
    finite = carrier.is_finite
    for t in grid:
        indexes = []
        for n in range(n_cap + 1):
            px, py = iterates[n]
            qx, qy = iterates[n + 1]
            mv = _blend(space, params, px, py, qx, qy, t)
            concl = np.asarray(space.m(qx, qy, t), dtype=float)
            indexes.append(_ThresholdIndex(mv, concl))
        for r in rs:
            found = witness = None
            for n, index in enumerate(indexes):
                rec, k = index.search(r, finite=finite)
                if rec is not None:
                    found = {"t": t, "N": n, **rec}
                    break
                if witness is None:
                    witness = k
            if found is None:
                k = witness
                cond2.status = CheckStatus.VIOLATED
                cond2.witness = {"x": float(xs[k]), "y": float(ys[k]),
                                 "t": t, "r": r}
                break
            cond2.records.append(found)
        if cond2.status is CheckStatus.VIOLATED:
            break
    return ClassificationReport(T.name, "blended-contraction", [cond1, cond2],
                                grid, rs,
                                details={"alpha": params.alpha,
                                         "beta": params.beta, "n_cap": n_cap})


# ---------------------------------------------------------------------------
# empirical gauges
# ---------------------------------------------------------------------------

@dataclass
class EmpiricalGauge:
    """Monotone lower envelope of observed (before, after) nearness samples."""

    t: float
    f_kind: str
    F: np.ndarray
    E: np.ndarray
    envelope: Gauge
    certificate: Optional[MembershipCertificate] = None

    def envelope_at(self, tau: float) -> float:
        return self.envelope.eval(tau)

    def dominates_samples(self) -> bool:
        """Each recorded after-value sits on or above the envelope at its before-value."""
        return bool((self.E >= self.envelope.eval(self.F) - CLASS_TOL).all())

    def to_dict(self) -> dict:
        return {"t": self.t, "f_kind": self.f_kind,
                "samples": len(self.F),
                "certificate": self.certificate.to_dict()
                if self.certificate else None}


def _make_envelope(F: np.ndarray, E: np.ndarray) -> Gauge:
    order = np.argsort(F, kind="stable")
    Fs, Es = F[order], E[order]
    # the appended 1.0 is the value past the last observation
    values = np.append(np.minimum.accumulate(Es[::-1])[::-1], 1.0)
    return Gauge("empirical-envelope", GaugeDomain.PSI,
                 lambda tau: values[np.searchsorted(Fs, tau, side="left")])


def extract_empirical_gauge(space: FuzzySpace, T: SelfMap,
                            f_kind: str = "plain", t: float = 1.0,
                            params: Optional[MParams] = None,
                            pairs: Optional[Sequence[tuple]] = None,
                            certify: bool = True,
                            r_grid: Optional[Sequence[float]] = None,
                            ) -> EmpiricalGauge:
    """Build the envelope gauge from pair samples at one scale.

    ``f_kind`` selects the before-value: plain nearness, or the blended
    comparison when ``m_generalized`` (then ``params`` is required).  On
    finite carriers the default sample set is exhaustive over pairs.
    The envelope is the pointwise infimum of after-values over samples
    with before-value at or above the argument, a nondecreasing step
    function; when ``certify`` is set it is checked for the
    threshold-improvement class.
    """
    if t <= 0:
        raise DomainError("scale t must be positive")
    if f_kind not in ("plain", "m_generalized"):
        raise DomainError(f"unknown f_kind {f_kind!r}")
    if f_kind == "m_generalized" and params is None:
        raise DomainError("m_generalized needs params")
    if pairs is None:
        xs, ys, _ = _carrier_pairs(space.carrier)
    else:
        xs = np.array([float(a) for a, _ in pairs])
        ys = np.array([float(b) for _, b in pairs])
    txs = _map_images(T, xs, space.carrier)
    tys = _map_images(T, ys, space.carrier)
    E = np.asarray(space.m(txs, tys, t), dtype=float)
    if f_kind == "plain":
        F = np.asarray(space.m(xs, ys, t), dtype=float)
    else:
        F = _blend(space, params, xs, ys, txs, tys, t)
    env = _make_envelope(F, E)
    cert = class_membership(env, ClassTag.PSI1, r_grid=r_grid) if certify else None
    return EmpiricalGauge(t, f_kind, F, E, env, cert)


# ---------------------------------------------------------------------------
# equivalence probe
# ---------------------------------------------------------------------------

@dataclass
class EquivalenceReport:
    map_name: str
    t_grid: tuple[float, ...]
    r_grid: tuple[float, ...]
    pointwise: list[dict] = field(default_factory=list)   # per (t, r)
    uniform: list[dict] = field(default_factory=list)     # per r
    envelope_certs: list[dict] = field(default_factory=list)  # per t
    pointwise_satisfied: bool = True
    uniform_satisfied: bool = True
    observations: list[str] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {"map": self.map_name, "t_grid": list(self.t_grid),
                "r_grid": list(self.r_grid),
                "pointwise_satisfied": self.pointwise_satisfied,
                "uniform_satisfied": self.uniform_satisfied,
                "pointwise": self.pointwise, "uniform": self.uniform,
                "envelope_certs": self.envelope_certs,
                "observations": self.observations}


def equivalence_probe(space: FuzzySpace, T: SelfMap,
                      r_grid: Optional[Sequence[float]] = None,
                      t_grid: Optional[Sequence[float]] = None,
                      ) -> EquivalenceReport:
    """Probe uniform-in-t versus per-t threshold implications.

    Requires the weak hypothesis that mapping never decreases nearness on
    sampled pairs; raises :class:`PreconditionError` with a witness
    otherwise.  Reports, per r, whether a single rho works across the whole
    scale grid whenever per-scale rho values exist, and certifies the
    per-scale empirical envelope gauges.
    """
    grid = scale_grid(t_grid)
    rs = threshold_grid(r_grid)
    xs, ys, _ = _carrier_pairs(space.carrier)
    txs = _map_images(T, xs, space.carrier)
    tys = _map_images(T, ys, space.carrier)

    indexes = {}
    for t in grid:
        F = np.asarray(space.m(xs, ys, t), dtype=float)
        E = np.asarray(space.m(txs, tys, t), dtype=float)
        bad = E < F - CLASS_TOL
        if bad.any():
            i = int(np.nonzero(bad)[0][0])
            raise PreconditionError(
                "nearness decreases under the map",
                witness={"x": float(xs[i]), "y": float(ys[i]), "t": t,
                         "before": float(F[i]), "after": float(E[i])})
        indexes[t] = _ThresholdIndex(F, E)

    report = EquivalenceReport(T.name, grid, rs)
    finite = space.carrier.is_finite

    # the probe holds sampled continuous carriers to a stricter standard
    # than the classifier: a threshold certified only through an unprobed
    # sub-resolution window is not counted as satisfied
    records = {}
    for t in grid:
        for r in rs:
            rec, k = indexes[t].search(r, finite=finite)
            entry = {"t": t, "r": r}
            if rec is None or rec.get("reason") == "sub-resolution window":
                entry["rho"] = None
                if k is not None:
                    entry["witness"] = {"x": float(xs[k]), "y": float(ys[k])}
                report.pointwise_satisfied = False
            else:
                entry.update(rec)
            records[(t, r)] = entry
            report.pointwise.append(entry)

    # the sup of valid rho per scale is exact, so a uniform rho exists for a
    # threshold exactly when every per-scale search succeeded; its value is
    # the smallest per-scale sup
    for r in rs:
        per_t = [records[(t, r)] for t in grid]
        if any(e["rho"] is None for e in per_t):
            report.uniform_satisfied = False
            report.uniform.append({"r": r, "rho": None})
            continue
        rho = min(e["rho"] for e in per_t)
        vacuous = any(e.get("vacuous", False) for e in per_t)
        report.uniform.append({"r": r, "rho": rho, "vacuous": vacuous})

    if report.pointwise_satisfied and report.uniform_satisfied:
        report.observations.append(
            "per-scale thresholds found at every grid point; on a finite "
            "scale grid the uniform threshold then always exists, so the "
            "scale-continuum direction is not probed")

    for t in grid:
        # the envelope of the samples this scale's index already holds
        env = _make_envelope(indexes[t].F, indexes[t].E)
        cert = class_membership(env, ClassTag.PSI1, r_grid=rs)
        report.envelope_certs.append({"t": t, "verdict": cert.verdict.value})
    return report
