"""Carrier sets, base metrics, and fuzzy metric spaces.

A fuzzy metric space here is a carrier set together with a graded nearness
function M(x,y,t) in (0,1] over scales t > 0 and a continuous t-norm.  Two
constructions are built in: the quotient form t/(t+d(x,y)) and the
exponential form exp(-d(x,y)/t), both over a classical base metric and the
product t-norm, and both satisfying the same-scale triangle inequality
(the "strong" form).  Custom spaces are given as finite nearness tables
interpolated linearly in t.

``axiom_check`` certifies the space axioms on sampled triples and records
the strongness verdict separately from the declared flag.  Continuity in t
is approximated by a bounded-jump test on a refined scale grid.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Optional, Sequence

import numpy as np

from .algebra import AxiomResult, DomainError, TNorm
from .defaults import scale_grid

# Documented stand-in for continuity in t: maximum allowed nearness jump
# between adjacent refined grid scales.
T_CONTINUITY_JUMP_TOL = 0.05

# Subdivisions inserted between adjacent t-grid points for the jump test.
T_REFINE = 4


class CarrierKind(Enum):
    FINITE = "finite"
    INTERVAL = "interval"


@dataclass(frozen=True)
class Carrier:
    """A finite point set, or an interval with a sampling grid."""

    kind: CarrierKind
    points: tuple[float, ...]
    low: float = 0.0
    high: float = 0.0

    @classmethod
    def finite(cls, points: Sequence[float]) -> "Carrier":
        pts = tuple(float(p) for p in points)
        if len(set(pts)) != len(pts):
            raise DomainError("carrier points must be pairwise distinct")
        if not pts:
            raise DomainError("carrier must be nonempty")
        return cls(CarrierKind.FINITE, tuple(sorted(pts)))

    @classmethod
    def interval(cls, low: float, high: float, samples: int = 101) -> "Carrier":
        if not high > low:
            raise DomainError("interval carrier needs high > low")
        if samples < 2:
            raise DomainError("interval carrier needs at least 2 samples")
        pts = tuple(float(v) for v in np.linspace(low, high, samples))
        return cls(CarrierKind.INTERVAL, pts, float(low), float(high))

    @property
    def is_finite(self) -> bool:
        return self.kind is CarrierKind.FINITE

    def contains(self, x: float) -> bool:
        if self.is_finite:
            return x in self.points
        return self.low <= x <= self.high

    def to_dict(self) -> dict:
        if self.is_finite:
            return {"kind": "finite", "points": list(self.points)}
        return {"kind": "interval", "low": self.low, "high": self.high,
                "samples": len(self.points)}


class MetricKind(Enum):
    EUCLIDEAN = "euclidean"
    MAX = "max-jachymski"


def _euclidean(x, y):
    return np.abs(np.asarray(x, dtype=float) - np.asarray(y, dtype=float))


def _max_distinct(x, y):
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    return np.where(x == y, 0.0, np.maximum(x, y))


@dataclass(frozen=True)
class BaseMetric:
    """A classical metric; ``fn`` accepts scalars or numpy arrays."""

    kind: MetricKind
    fn: Callable

    def eval(self, x, y):
        return self.fn(x, y)

    @classmethod
    def euclidean(cls) -> "BaseMetric":
        return cls(MetricKind.EUCLIDEAN, _euclidean)

    @classmethod
    def max_jachymski(cls) -> "BaseMetric":
        """max(x, y) for distinct points, 0 on the diagonal."""
        return cls(MetricKind.MAX, _max_distinct)


_METRICS = {
    "euclidean": BaseMetric.euclidean,
    "max-jachymski": BaseMetric.max_jachymski,
}


def metric(metric_id: str) -> BaseMetric:
    try:
        return _METRICS[metric_id]()
    except KeyError:
        raise DomainError(f"unknown metric id {metric_id!r}") from None


def base_metric_check(d: BaseMetric, carrier: Carrier, samples: int = 200,
                      seed: int = 0, tol: float = 1e-12) -> list[AxiomResult]:
    """Sampled checks of the classical metric axioms on a carrier."""
    rng = np.random.default_rng(seed)
    pts = np.array(carrier.points)
    results = [AxiomResult("identity", True), AxiomResult("symmetry", True),
               AxiomResult("separation", True), AxiomResult("triangle", True)]
    ident, sym, sep, tri = results
    for x in pts:
        if ident.passed and float(d.eval(x, x)) != 0.0:
            ident.passed = False
            ident.witness = {"x": float(x), "value": float(d.eval(x, x))}
    idx = rng.integers(0, len(pts), size=(samples, 3))
    for i, j, k in idx:
        x, y, z = float(pts[i]), float(pts[j]), float(pts[k])
        dxy, dyx = float(d.eval(x, y)), float(d.eval(y, x))
        if sym.passed and abs(dxy - dyx) > tol:
            sym.passed = False
            sym.witness = {"x": x, "y": y, "dxy": dxy, "dyx": dyx}
        if sep.passed and x != y and dxy <= 0.0:
            sep.passed = False
            sep.witness = {"x": x, "y": y, "value": dxy}
        dxz = float(d.eval(x, z))
        if tri.passed and dxz > dxy + float(d.eval(y, z)) + tol:
            tri.passed = False
            tri.witness = {"x": x, "y": y, "z": z}
    return results


@dataclass(frozen=True)
class FuzzySpace:
    """Carrier + t-norm + nearness function M(x,y,t), with declared flags."""

    carrier: Carrier
    tnorm: TNorm
    fn: Callable
    strong: bool
    provenance: str

    def m(self, x, y, t):
        """Evaluate nearness at scale t > 0; accepts scalars or arrays."""
        t_arr = np.asarray(t, dtype=float)
        if np.any(t_arr <= 0.0):
            raise DomainError(f"scale t must be positive, got {t!r}")
        return self.fn(x, y, t)

    def m_scalar(self, x: float, y: float, t: float) -> float:
        return float(self.m(x, y, t))

    def to_dict(self) -> dict:
        return {"carrier": self.carrier.to_dict(), "tnorm": self.tnorm.kind.value,
                "strong": self.strong, "provenance": self.provenance}


def standard_fuzzy_metric(carrier: Carrier, d: BaseMetric) -> FuzzySpace:
    """Space with nearness t/(t+d(x,y)) over the product t-norm; strong."""
    def fn(x, y, t):
        dist = d.eval(x, y)
        return t / (t + dist)
    return FuzzySpace(carrier, TNorm.product(), fn, strong=True,
                      provenance=f"standard({d.kind.value})")


def exponential_fuzzy_metric(carrier: Carrier, d: BaseMetric) -> FuzzySpace:
    """Space with nearness exp(-d(x,y)/t) over the product t-norm; strong."""
    def fn(x, y, t):
        dist = d.eval(x, y)
        return np.exp(-dist / t)
    return FuzzySpace(carrier, TNorm.product(), fn, strong=True,
                      provenance=f"exp({d.kind.value})")


def table_fuzzy_metric(carrier: Carrier, t_nodes: Sequence[float],
                       table: dict, norm: Optional[TNorm] = None,
                       strong: bool = False) -> FuzzySpace:
    """Space from a finite nearness table over carrier pairs and t nodes.

    ``table`` maps (x, y) to a sequence of nearness values, one per node in
    ``t_nodes``.  Values are interpolated linearly between nodes and held
    constant beyond them.  Missing diagonal entries default to 1.
    """
    if not carrier.is_finite:
        raise DomainError("table spaces need a finite carrier")
    nodes = np.array([float(t) for t in t_nodes])
    if np.any(np.diff(nodes) <= 0) or np.any(nodes <= 0):
        raise DomainError("t nodes must be positive and increasing")
    values = {}
    for (a, b), vs in table.items():
        vs = tuple(float(v) for v in vs)
        if len(vs) != len(nodes):
            raise DomainError(f"table entry {(a, b)} has {len(vs)} values, "
                              f"expected {len(nodes)}")
        values[(float(a), float(b))] = vs
        values.setdefault((float(b), float(a)), vs)
    ones = tuple(1.0 for _ in nodes)
    for p in carrier.points:
        values.setdefault((p, p), ones)
    for a in carrier.points:
        for b in carrier.points:
            if (a, b) not in values:
                raise DomainError(f"table is missing pair ({a}, {b})")

    def scalar(x, y, t):
        vs = values[(float(x), float(y))]
        return float(np.interp(t, nodes, vs))

    def fn(x, y, t):
        if np.isscalar(x) and np.isscalar(y) and np.isscalar(t):
            return scalar(x, y, t)
        x, y, t = np.broadcast_arrays(np.asarray(x, dtype=float),
                                      np.asarray(y, dtype=float),
                                      np.asarray(t, dtype=float))
        return np.array([scalar(a, b, s)
                         for a, b, s in zip(x.ravel(), y.ravel(), t.ravel())
                         ]).reshape(x.shape)

    return FuzzySpace(carrier, norm or TNorm.product(), fn, strong=strong,
                      provenance="table")


SPACE_AXIOMS = ("positivity", "identity-of-indiscernibles", "symmetry",
                "t-continuity", "triangle", "strong-triangle")


@dataclass
class SpaceAxiomReport:
    provenance: str
    triple_samples: int
    seed: int
    t_grid: tuple[float, ...]
    results: list[AxiomResult] = field(default_factory=list)
    strong_declared: bool = False

    @property
    def passed(self) -> bool:
        """All axioms including the strong form when declared."""
        return all(r.passed for r in self.results
                   if r.name != "strong-triangle" or self.strong_declared)

    @property
    def strong_verdict(self) -> bool:
        return self.result("strong-triangle").passed

    def result(self, name: str) -> AxiomResult:
        for r in self.results:
            if r.name == name:
                return r
        raise KeyError(name)

    def to_dict(self) -> dict:
        return {"provenance": self.provenance, "samples": self.triple_samples,
                "seed": self.seed, "t_grid": list(self.t_grid),
                "passed": self.passed, "strong_declared": self.strong_declared,
                "strong_verdict": self.strong_verdict,
                "axioms": [r.to_dict() for r in self.results]}


def axiom_check(space: FuzzySpace, triple_samples: int = 500,
                t_grid: Optional[Sequence[float]] = None, seed: int = 0,
                tol: float = 1e-12) -> SpaceAxiomReport:
    """Certify the space axioms on sampled triples over a scale grid.

    Positivity, symmetry and both triangle forms are checked with tolerance
    ``tol`` on ``triple_samples`` seeded random triples per grid scale.
    The identity axiom is checked exhaustively over carrier sample pairs.
    Continuity in t is approximated by the bounded-jump test on a refined
    grid.  The strongness verdict is recorded separately from the declared
    flag.  Deterministic given (seed, t_grid, triple_samples).
    """
    grid = scale_grid(t_grid)
    if any(t <= 0 for t in grid):
        raise DomainError("t grid values must be positive")
    rng = np.random.default_rng(seed)
    pts = np.array(space.carrier.points)
    report = SpaceAxiomReport(space.provenance, triple_samples, seed, grid,
                              strong_declared=space.strong)
    pos = AxiomResult("positivity", True)
    ident = AxiomResult("identity-of-indiscernibles", True)
    sym = AxiomResult("symmetry", True)
    cont = AxiomResult("t-continuity", True)
    tri = AxiomResult("triangle", True)
    strong = AxiomResult("strong-triangle", True)

    ts = np.array(grid)
    idx = rng.integers(0, len(pts), size=(triple_samples, 3))
    xs, ys, zs = pts[idx[:, 0]], pts[idx[:, 1]], pts[idx[:, 2]]
    s_idx = rng.integers(0, len(ts), size=triple_samples)
    t_idx = rng.integers(0, len(ts), size=triple_samples)
    ss, tts = ts[s_idx], ts[t_idx]

    def first_witness(mask, **arrays):
        i = int(np.nonzero(mask)[0][0])
        return {k: float(v[i]) for k, v in arrays.items()}

    # positivity and symmetry over all sampled triples x grid scales
    for t in grid:
        mxy = np.asarray(space.m(xs, ys, t), dtype=float)
        myx = np.asarray(space.m(ys, xs, t), dtype=float)
        bad = mxy <= 0.0
        if pos.passed and bad.any():
            pos.passed = False
            pos.witness = {**first_witness(bad, x=xs, y=ys), "t": t}
        bad = np.abs(mxy - myx) > tol
        if sym.passed and bad.any():
            sym.passed = False
            sym.witness = {**first_witness(bad, x=xs, y=ys), "t": t}

    # identity of indiscernibles, exhaustive on carrier samples: M = 1 on the
    # diagonal for every grid t, and for x != y some grid t has M < 1
    for t in grid:
        mxx = np.asarray(space.m(pts, pts, t), dtype=float)
        bad = np.abs(mxx - 1.0) > tol
        if ident.passed and bad.any():
            ident.passed = False
            ident.witness = {**first_witness(bad, x=pts), "t": t,
                             "reason": "M(x,x,t) != 1"}
    if ident.passed:
        n_pairs = min(len(pts), 40)
        sub = pts[:: max(1, len(pts) // n_pairs)]
        for x in sub:
            for y in sub:
                if x == y:
                    continue
                vals = np.asarray(space.m(float(x), float(y), ts), dtype=float)
                if np.all(np.abs(vals - 1.0) <= tol):
                    ident.passed = False
                    ident.witness = {"x": float(x), "y": float(y),
                                     "reason": "M(x,y,.) = 1 with x != y"}
                    break
            if not ident.passed:
                break

    # triangle across scales and the same-scale strong form
    m_xy_s = np.asarray(space.m(xs, ys, ss), dtype=float)
    m_yz_t = np.asarray(space.m(ys, zs, tts), dtype=float)
    m_xz_st = np.asarray(space.m(xs, zs, ss + tts), dtype=float)
    lower = np.asarray(space.tnorm.apply(m_xy_s, m_yz_t), dtype=float)
    bad = m_xz_st < lower - tol
    if bad.any():
        tri.passed = False
        tri.witness = {**first_witness(bad, x=xs, y=ys, z=zs, s=ss, t=tts),
                       "lhs": float(m_xz_st[bad][0]), "rhs": float(lower[bad][0])}
    for t in grid:
        m_xy = np.asarray(space.m(xs, ys, t), dtype=float)
        m_yz = np.asarray(space.m(ys, zs, t), dtype=float)
        m_xz = np.asarray(space.m(xs, zs, t), dtype=float)
        lower = np.asarray(space.tnorm.apply(m_xy, m_yz), dtype=float)
        bad = m_xz < lower - tol
        if strong.passed and bad.any():
            strong.passed = False
            strong.witness = {**first_witness(bad, x=xs, y=ys, z=zs), "t": t,
                              "lhs": float(m_xz[bad][0]),
                              "rhs": float(lower[bad][0])}
            break

    # continuity in t as a bounded jump on the refined grid
    refined = []
    for a, b in zip(grid[:-1], grid[1:]):
        refined.extend(float(v) for v in np.linspace(a, b, T_REFINE + 1)[:-1])
    refined.append(grid[-1])
    refined = np.array(refined)
    n_pairs = min(len(pts), 30)
    sub = pts[:: max(1, len(pts) // n_pairs)]
    for x in sub:
        for y in sub:
            vals = np.asarray(space.m(float(x), float(y), refined), dtype=float)
            jumps = np.abs(np.diff(vals))
            if cont.passed and np.any(jumps > T_CONTINUITY_JUMP_TOL):
                i = int(np.argmax(jumps))
                cont.passed = False
                cont.witness = {"x": float(x), "y": float(y),
                                "t": float(refined[i]),
                                "t_next": float(refined[i + 1]),
                                "jump": float(jumps[i])}
                break
        if not cont.passed:
            break

    report.results = [pos, ident, sym, cont, tri, strong]
    return report
