"""Carrier sets, base metrics, and fuzzy metric spaces.

A fuzzy metric space here is a carrier set together with a graded nearness
function M(x,y,t) in (0,1] over scales t > 0 and a continuous t-norm.  Two
constructions are built in: the quotient form t/(t+d(x,y)) and the
exponential form exp(-d(x,y)/t), both over a classical base metric and the
product t-norm, and both satisfying the same-scale triangle inequality
(the "strong" form).  Custom spaces are given as finite nearness tables
interpolated linearly in t.

Nearness is evaluated in two stages.  The pair stage,
``FuzzySpace.pairs(x, y)``, does the scale-free work once for a pair set:
the base distance d(x,y) for the built-in spaces, the carrier check and the
flat cell index of each pair for a table space, which raises DomainError
at a point off its carrier.  It returns the scale stage, a function of t
that evaluates the same float expressions over the prepared pairs, so a
check that loops over a scale grid on fixed pairs prepares them once.
``FuzzySpace.m(x, y, t)`` is ``pairs(x, y)(t)`` with the scale checked
first.  Both take scalars or numpy arrays that broadcast together and
decide the result type for every space: a float when x, y and t are all
scalars, else a float64 ndarray of the broadcast shape.

``axiom_check`` certifies the space axioms on sampled triples, one
nearness call per axiom quantity over all grid scales, and records the
strongness verdict separately from the declared flag.  Continuity in t is
approximated by a bounded-jump test on a refined scale grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from itertools import chain
from typing import Callable, Optional, Sequence

import numpy as np

from .algebra import AxiomResult, DomainError, TNorm, _axiom
from .defaults import scale_grid

# Documented stand-in for continuity in t: maximum allowed nearness jump
# between adjacent refined grid scales.
T_CONTINUITY_JUMP_TOL = 0.05

# Subdivisions inserted between adjacent t-grid points for the jump test.
T_REFINE = 4

# The most samples an interval carrier takes: it keeps them all, and the
# axiom checker evaluates each one at every grid scale.
MAX_CARRIER_SAMPLES = 10_000

# Seeded random triples the axiom check draws, the report's ``samples``.
AXIOM_TRIPLES = 500


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
        if not np.isfinite(pts).all():
            raise DomainError("carrier points must be finite")
        if len(set(pts)) != len(pts):
            raise DomainError("carrier points must be pairwise distinct")
        if not pts:
            raise DomainError("carrier must be nonempty")
        return cls(CarrierKind.FINITE, tuple(sorted(pts)))

    @classmethod
    def interval(cls, low: float, high: float, samples: int = 101) -> "Carrier":
        low, high = float(low), float(high)
        if not math.isfinite(high - low):    # NaN or infinite bounds or span
            raise DomainError("interval carrier needs finite bounds and span")
        if not high > low:
            raise DomainError("interval carrier needs high > low")
        if samples < 2:
            raise DomainError("interval carrier needs at least 2 samples")
        if samples > MAX_CARRIER_SAMPLES:
            raise DomainError(f"interval carrier takes at most "
                              f"{MAX_CARRIER_SAMPLES} samples, got {samples}")
        pts = tuple(float(v) for v in np.linspace(low, high, samples))
        return cls(CarrierKind.INTERVAL, pts, low, high)

    @property
    def is_finite(self) -> bool:
        return self.kind is CarrierKind.FINITE

    def contains(self, x):
        """Membership of a float, or elementwise of an ndarray; never NaN."""
        if self.is_finite:
            return (np.isin(x, self.points) if isinstance(x, np.ndarray)
                    else x in self.points)
        return (self.low <= x) & (x <= self.high)


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


def _check_scale(t) -> None:
    t_arr = np.asarray(t, dtype=float)
    ok = (t_arr > 0.0) & (t_arr < np.inf)
    if not ok.all():
        bad = t if np.isscalar(t) else float(t_arr[~ok][0])
        raise DomainError(f"scale t must be positive and finite, got {bad!r}")


def _check_tolerance(tol: float) -> None:
    if not 0.0 <= tol < math.inf:
        raise DomainError(f"tolerance must be finite and nonnegative, "
                          f"got {tol!r}")


@dataclass(frozen=True)
class FuzzySpace:
    """Carrier + t-norm + nearness M(x,y,t), with declared flags.

    ``fn(x, y)`` is the pair stage of the nearness: it prepares the pairs
    and returns their nearness as a function of the scale.

    ``distance`` declares the distance profile: a base metric d such that,
    at every scale, the nearness of carrier pairs is a function of d(x, y)
    alone, non-increasing in it, and positive for every finite distance.
    The built-in constructors declare theirs, t/(t + d) and exp(-d/t) over
    d >= 0: each of their float operations is monotone (correctly rounded,
    and for ``np.exp`` property-tested), so pairs ordered by distance are
    ordered by nearness bit for bit.  A ``max-jachymski`` carrier with a
    negative point declares none, since t + d can reach 0 there, and
    neither does a table space.  The checks that use the order key on this
    declaration alone: the threshold-implication check and the Cauchy
    criterion, which evaluate each scale at the distinct distances only,
    confirming the order at each scale; the all-pairs Cauchy tails; and the
    positivity axiom.
    """

    carrier: Carrier
    tnorm: TNorm
    fn: Callable
    strong: bool
    provenance: str
    distance: Optional[BaseMetric] = None

    def pairs(self, x, y) -> Callable:
        """The nearness of the pairs (x, y) as a function of finite scales
        t > 0: a float when x, y and t are all scalars, else a float64
        ndarray of their broadcast shape."""
        at = self.fn(x, y)
        scalar = np.isscalar(x) and np.isscalar(y)

        def scale(t):
            _check_scale(t)
            out = at(t)
            if scalar and np.isscalar(t):
                return float(out)
            return np.asarray(out, dtype=float)
        return scale

    def m(self, x, y, t):
        """Nearness at finite scales t > 0, as :meth:`pairs`."""
        _check_scale(t)     # a bad scale is reported before a bad point
        return self.pairs(x, y)(t)


def _profile(carrier: Carrier, d: BaseMetric) -> Optional[BaseMetric]:
    """``d`` when it is a distance (d >= 0) on the whole carrier, else None."""
    if d.kind is MetricKind.MAX and carrier.points[0] < 0.0:
        return None
    return d


def standard_fuzzy_metric(carrier: Carrier, d: BaseMetric) -> FuzzySpace:
    """Space with nearness t/(t+d(x,y)) over the product t-norm; strong."""
    def fn(x, y):
        dist = d.eval(x, y)
        return lambda t: t / (t + dist)
    return FuzzySpace(carrier, TNorm.product(), fn, strong=True,
                      provenance=f"standard({d.kind.value})",
                      distance=_profile(carrier, d))


def exponential_fuzzy_metric(carrier: Carrier, d: BaseMetric) -> FuzzySpace:
    """Space with nearness exp(-d(x,y)/t) over the product t-norm; strong."""
    def fn(x, y):
        neg = -d.eval(x, y)

        def at(t):
            with np.errstate(over="ignore"):    # d/t past the float range
                return np.exp(neg / t)
        return at
    return FuzzySpace(carrier, TNorm.product(), fn, strong=True,
                      provenance=f"exp({d.kind.value})",
                      distance=_profile(carrier, d))


def table_fuzzy_metric(carrier: Carrier, t_nodes: Sequence[float],
                       table: dict) -> FuzzySpace:
    """Space from a finite nearness table over carrier pairs and t nodes,
    over the product t-norm and not declared strong.

    ``table`` maps (x, y) to a sequence of finite nearness values, one per
    node in ``t_nodes``.  Values are interpolated linearly between nodes and
    held constant beyond them.  Missing diagonal entries default to 1.  One
    sorted search of all keys into the carrier finds the entries' cells;
    an entry whose x or y is not exactly a carrier point is unused.

    Evaluation takes scalars or arrays that broadcast together and treats a
    whole array at once: the table is one flat array indexed by (row,
    column, node), and each call gathers the two bracketing values of every
    element and interpolates with ``np.interp``'s own float expressions, so
    each value equals ``np.interp`` on its pair's row bit for bit.  A point
    off the carrier raises DomainError.
    """
    if not carrier.is_finite:
        raise DomainError("table spaces need a finite carrier")
    nodes = np.array([float(t) for t in t_nodes])
    if not (nodes.size and np.all(nodes > 0) and np.all(np.diff(nodes) > 0)):
        raise DomainError("t nodes must be nonempty, positive and increasing")
    points = carrier.points
    n, k = len(points), len(nodes)
    if not set(map(len, table.values())) <= {k}:
        (a, b), vs = next(e for e in table.items() if len(e[1]) != k)
        raise DomainError(f"table entry {(a, b)} has {len(vs)} values, "
                          f"expected {k}")
    given = np.fromiter(chain.from_iterable(table.values()), float,
                        len(table) * k).reshape(-1, k)
    finite = np.isfinite(given).all(axis=1)
    if not finite.all():
        a, b = list(table)[int(np.argmin(finite))]
        raise DomainError(f"table entry {(a, b)} has a non-finite value")
    # (row, column) of each entry on the carrier; entries off it are unused
    pts = np.array(points)
    keys = np.array(list(table), dtype=float).reshape(-1, 2)
    cells = np.minimum(np.searchsorted(pts, keys), n - 1)
    on = np.flatnonzero((pts[cells] == keys).all(axis=1))
    rows, cols = cells[on].T
    # the diagonal defaults to 1 and (b, a) to the entry (a, b); an entry
    # given explicitly overrides both.  NaN marks a missing pair.
    cube = np.full((n, n, k), np.nan)
    cube[np.arange(n), np.arange(n)] = 1.0
    cube[cols, rows] = given[on]
    cube[rows, cols] = given[on]
    missing = np.isnan(cube[:, :, 0])
    if missing.any():
        i, j = divmod(int(np.argmax(missing)), n)
        raise DomainError(f"table is missing pair ({points[i]}, {points[j]})")
    flat = cube.ravel()

    def index(v):
        v = np.asarray(v, dtype=float)
        i = np.minimum(np.searchsorted(pts, v), n - 1)
        off = pts[i] != v
        if np.any(off):
            raise DomainError(f"point {float(v[off][0])!r} is not on the "
                              f"table's carrier")
        return i

    def fn(x, y):
        base = (index(x) * n + index(y)) * k

        def at(t):
            t_arr = np.asarray(t, dtype=float)
            if k == 1:
                return flat[base + np.zeros(t_arr.shape, dtype=int)]
            # as np.interp: tabulated values below the first node, at or
            # beyond the last and at a node
            j = np.searchsorted(nodes, t_arr, side="right") - 1
            lo = np.clip(j, 0, k - 2)
            y0, y1 = flat[base + lo], flat[base + lo + 1]
            x0 = nodes[lo]
            with np.errstate(all="ignore"):    # lanes np.where discards
                slope = (y1 - y0) / (nodes[lo + 1] - x0)
                out = slope * (t_arr - x0) + y0
            return np.where((j < 0) | (t_arr == x0), y0,
                            np.where(j == k - 1, y1, out))
        return at

    return FuzzySpace(carrier, TNorm.product(), fn, strong=False,
                      provenance="table")


@dataclass
class SpaceAxiomReport:
    provenance: str
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
        return {"provenance": self.provenance, "samples": AXIOM_TRIPLES,
                "seed": self.seed, "t_grid": list(self.t_grid),
                "passed": self.passed, "strong_declared": self.strong_declared,
                "strong_verdict": self.strong_verdict,
                "axioms": [r.to_dict() for r in self.results]}


def _carrier_sample(pts: np.ndarray, size: int) -> np.ndarray:
    """Every k-th carrier point, k chosen so that about ``size`` remain."""
    return pts[:: max(1, len(pts) // min(len(pts), size))]


def axiom_check(space: FuzzySpace, t_grid: Optional[Sequence[float]] = None,
                seed: int = 0, tol: float = 1e-12) -> SpaceAxiomReport:
    """Certify the space axioms on sampled triples over a scale grid.

    Positivity, symmetry and both triangle forms are checked with tolerance
    ``tol`` on ``AXIOM_TRIPLES`` seeded random triples per grid scale.
    The identity axiom is checked on the diagonal at every grid scale and
    exhaustively over carrier sample pairs.  Continuity in t is
    approximated by the bounded-jump test on a refined grid.  Each
    nearness quantity of an axiom is one call over all grid scales and
    samples; only the two pair checks make one call per carrier row.  The
    strongness verdict is recorded separately from the declared flag.  On
    a space that declares its distance profile a zero nearness is a float
    underflow: the positivity witness says ``reason: float-underflow`` and
    the axiom passes.
    Deterministic given (seed, t_grid).  A tolerance outside [0, inf), NaN
    included, and a grid whose scales s + t overflow are DomainErrors.
    """
    _check_tolerance(tol)
    grid = scale_grid(t_grid)
    _check_scale(grid)
    if not math.isfinite(2 * max(grid)):
        raise DomainError(f"t grid value {max(grid)!r} is too large: the "
                          "triangle's scale s + t overflows")
    rng = np.random.default_rng(seed)
    pts = np.array(space.carrier.points)
    report = SpaceAxiomReport(space.provenance, seed, grid,
                              strong_declared=space.strong)
    cont = AxiomResult("t-continuity", True)

    ts = np.array(grid)
    idx = rng.integers(0, len(pts), size=(AXIOM_TRIPLES, 3))
    xs, ys, zs = pts[idx[:, 0]], pts[idx[:, 1]], pts[idx[:, 2]]
    s_idx = rng.integers(0, len(ts), size=AXIOM_TRIPLES)
    t_idx = rng.integers(0, len(ts), size=AXIOM_TRIPLES)
    ss, tts = ts[s_idx], ts[t_idx]

    # positivity, symmetry, the diagonal identity and the strong triangle
    # each over grid scales x samples (x points for the diagonal) in one
    # call; a witness is the first flagged (scale, sample) in row-major
    # order, the order of a loop over scales
    col = ts[:, None]
    m_xy = space.m(xs, ys, col)
    m_yx = space.m(ys, xs, col)
    pos = _axiom("positivity", m_xy <= 0.0,
                 lambda s, i: {"x": float(xs[i]), "y": float(ys[i]),
                               "t": grid[s]})
    if space.distance is not None and not pos.passed:
        # the declared nearness is positive at every finite distance, so a
        # zero is the float result underflowing (exp(-3000)), not the space
        pos = AxiomResult(pos.name, True,
                          {**pos.witness, "reason": "float-underflow"})
    sym = _axiom("symmetry", np.abs(m_xy - m_yx) > tol,
                 lambda s, i: {"x": float(xs[i]), "y": float(ys[i]),
                               "t": grid[s]})

    # identity of indiscernibles, exhaustive on carrier samples: M = 1 on the
    # diagonal for every grid t, and for x != y some grid t has M < 1
    mxx = space.m(pts, pts, col)
    ident = _axiom("identity-of-indiscernibles", np.abs(mxx - 1.0) > tol,
                   lambda s, i: {"x": float(pts[i]), "t": grid[s],
                                 "reason": "M(x,x,t) != 1"})
    if ident.passed:
        sub = _carrier_sample(pts, 40)
        for x in sub:
            others = sub[sub != x]
            vals = space.m(x, others[:, None], ts[None, :])
            all_one = np.all(np.abs(vals - 1.0) <= tol, axis=1)
            if all_one.any():
                ident.passed = False
                ident.witness = {"x": float(x),
                                 "y": float(others[np.argmax(all_one)]),
                                 "reason": "M(x,y,.) = 1 with x != y"}
                break

    # triangle across scales and the same-scale strong form
    m_xy_s = space.m(xs, ys, ss)
    m_yz_t = space.m(ys, zs, tts)
    m_xz_st = space.m(xs, zs, ss + tts)
    lower_st = space.tnorm.apply(m_xy_s, m_yz_t)
    tri = _axiom("triangle", m_xz_st < lower_st - tol,
                 lambda i: {"x": float(xs[i]), "y": float(ys[i]),
                            "z": float(zs[i]), "s": float(ss[i]),
                            "t": float(tts[i]), "lhs": float(m_xz_st[i]),
                            "rhs": float(lower_st[i])})
    m_xz = space.m(xs, zs, col)
    lower = space.tnorm.apply(m_xy, space.m(ys, zs, col))
    strong = _axiom("strong-triangle", m_xz < lower - tol,
                    lambda s, i: {"x": float(xs[i]), "y": float(ys[i]),
                                  "z": float(zs[i]), "t": grid[s],
                                  "lhs": float(m_xz[s, i]),
                                  "rhs": float(lower[s, i])})

    # continuity in t as a bounded jump on the refined grid
    refined = []
    for a, b in zip(grid[:-1], grid[1:]):
        refined.extend(float(v) for v in np.linspace(a, b, T_REFINE + 1)[:-1])
    refined.append(grid[-1])
    refined = np.array(refined)
    sub = _carrier_sample(pts, 30)
    for x in sub:
        vals = space.m(x, sub[:, None], refined[None, :])
        jumps = np.abs(np.diff(vals, axis=1))
        bad = np.any(jumps > T_CONTINUITY_JUMP_TOL, axis=1)
        if bad.any():
            r = int(np.argmax(bad))
            i = int(np.argmax(jumps[r]))
            cont.passed = False
            cont.witness = {"x": float(x), "y": float(sub[r]),
                            "t": float(refined[i]),
                            "t_next": float(refined[i + 1]),
                            "jump": float(jumps[r, i])}
            break

    report.results = [pos, ident, sym, cont, tri, strong]
    return report
