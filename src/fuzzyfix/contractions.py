"""Classify self-maps against graded contraction definitions.

Checks provided, each over explicit scale and threshold grids:

* strict-improvement plus gauge-bound form (psi-contractive),
* strict-improvement plus per-threshold implication form where nearness
  past 1-rho must improve past 1-r (the threshold-implication form, in a
  two-sided and a one-sided variant),
* the generalized form whose comparison value blends the pair nearness
  with each point's self-displacement nearness raised to fixed exponents,
* empirical gauge extraction: the monotone lower envelope of observed
  (before, after) nearness samples, returned as a gauge to certify,
* an equivalence probe relating the uniform-in-t and per-t variants.

Self-maps take floats or whole arrays.  A check's pair sample
(:class:`PairSample`) maps its points with one call and can be shared by
the checks of one (space, map).  Each check prepares the nearness of its
pair sets once (:meth:`FuzzySpace.pairs`), then evaluates the scale stage
on blocks of scales, one call per block.  Strict improvement reads the
regular pairs' values of the arrays the second condition evaluates at the
same scale.  On a space that declares its distance profile, the sample
ranks its pairs by distance once, and the threshold-implication check
evaluates each scale at the distinct distances only, searching their
cumulative counts instead of sorting pairs.

All verdicts carry re-checkable witnesses.  Every rho search, the one of
the criterion check in :mod:`fuzzyfix.dynamics` included, runs one search
over a whole threshold grid.  It accepts a rho only when some sampled pair
actually lies in the premise window (or no pair lies below the target
threshold at all); this keeps sampled continuous carriers from passing
vacuously through sub-resolution windows.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property, partial
from itertools import chain
from typing import Callable, Optional, Sequence

import numpy as np

from .algebra import (
    ClassTag,
    DomainError,
    Gauge,
    GaugeDomain,
    _parse_number,
    _step_phi_fn,
    class_membership,
)
from .defaults import CLASS_TOL, ENDPOINT_CLAMP, scale_grid, threshold_grid
from .expressions import ExpressionError, _compile, _tokenize, parse_expression
from .spaces import Carrier, FuzzySpace, _carrier_sample

# Strictness margin on sampled continuous carriers, relative because small
# scales put nearness far below any absolute margin: E > F + STRICT_MARGIN * F.
# Finite carriers compare exactly.
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
    """A self-map of a carrier with a declared continuity flag.

    ``fn`` and :meth:`apply` map a float to a float and an ndarray
    elementwise.  On an array, ``apply`` maps each distinct value once, and
    an error names the first offending element in array order."""

    name: str
    fn: Callable
    continuous: bool = True
    continuity_source: str = "declared"

    def __call__(self, x):
        return self.apply(x)

    def apply(self, x, carrier: Optional[Carrier] = None):
        if isinstance(x, np.ndarray):
            u, inv = np.unique(x, return_inverse=True)
            return self._images(u, carrier, x)[inv.ravel()].reshape(x.shape)
        y = float(self.fn(x))
        if carrier is not None and not carrier.contains(y):
            raise self._off_carrier(x, y)
        return y

    def _images(self, u: np.ndarray, carrier: Optional[Carrier],
                *arrays: np.ndarray) -> np.ndarray:
        """The images of the values ``u``, by one call of ``fn``.  When that
        call fails or leaves the carrier, scalar calls over the elements of
        ``arrays``, in turn and in array order, raise the first offender's
        error."""
        try:
            images = np.asarray(self.fn(u), dtype=float)
            ok = carrier is None or carrier.contains(images).all()
        except ValueError:          # DomainError and ExpressionError
            ok = False
        if not ok:
            for a in arrays:
                for v in a.ravel().tolist():
                    self.apply(v, carrier)
        return images

    def _off_carrier(self, x, y) -> DomainError:
        return DomainError(f"map {self.name} sends {x!r} to {y!r} "
                           "outside the carrier")

    def _orbit_block(self, x: float, steps: int,
                     carrier: Carrier) -> tuple[list, Optional[Exception]]:
        """The images of up to ``steps`` iterations from ``x``, ending after
        a repeat, and the error that ends them early, or None.

        ``fn`` is called once per step and the carrier is checked once,
        over the block's images: past an image outside it the steps run on
        to the block's end or the map's own error, but the images returned
        stop before it and the error is the one :meth:`apply` raises there.
        """
        fn, start = self.fn, x
        images = []
        error = None
        try:
            for _ in range(steps):
                y = float(fn(x))
                images.append(y)
                if y == x:
                    break
                x = y
        except Exception as exc:    # the caller decides whether it counts
            error = exc
        off = np.flatnonzero(~carrier.contains(np.array(images)))
        if off.size:
            k = int(off[0])
            error = self._off_carrier(images[k - 1] if k else start, images[k])
            del images[k:]
        return images, error


def _elementwise(scalar_fn: Callable) -> Callable:
    """A map ``fn`` that calls ``scalar_fn`` on each element of an ndarray."""
    each = np.frompyfunc(scalar_fn, 1, 1)
    return lambda x: (np.asarray(each(x), dtype=float)
                      if isinstance(x, np.ndarray) else scalar_fn(x))


def table_map(mapping: dict, carrier: Optional[Carrier] = None,
              name: str = "table") -> SelfMap:
    """Self-map of a finite carrier given by an explicit value table."""
    lookup = {float(k): float(v) for k, v in mapping.items()}
    if carrier is not None:
        for p in carrier.points:
            if p not in lookup:
                raise DomainError(f"table map is missing the image of point {p}")

    def image(x: float) -> float:
        try:
            return lookup[float(x)]
        except KeyError:
            raise DomainError(f"point {x!r} not in the map table") from None
    # finite tables have no connectedness to break
    return SelfMap(name, _elementwise(image), continuous=True,
                   continuity_source="finite-carrier")


def self_map(spec: str, carrier: Optional[Carrier] = None) -> SelfMap:
    """Resolve a named self-map.

    Supported ids: ``phi-step`` (the step gauge as a self-map of [0,inf)),
    ``perm-0-1-2-5`` (the cyclic table 0->0, 1->5, 2->0, 5->2),
    ``identity``, ``const:<c>`` (``c`` may be a fraction such as ``1/2``)
    and ``expr:<expression>`` in the variable x.  An expression is declared
    continuous unless it holds a ``piecewise``, which can jump: the other
    builtins are continuous wherever they are defined.
    """
    if spec == "phi-step":
        return SelfMap("phi-step", _step_phi_fn, continuous=True,
                       continuity_source="builtin")
    if spec == "perm-0-1-2-5":
        return table_map({0: 0, 1: 5, 2: 0, 5: 2}, carrier, name="perm-0-1-2-5")
    if spec == "identity":
        return SelfMap("identity", lambda x: x, continuous=True,
                       continuity_source="builtin")
    if spec.startswith("const:"):
        c = _parse_number(spec.split(":", 1)[1])
        return SelfMap(spec, lambda x: (np.full(x.shape, c)
                                        if isinstance(x, np.ndarray) else c),
                       continuous=True, continuity_source="builtin")
    if spec.startswith("expr:"):
        # no numpy math here: np.exp, np.log and np.power need not match
        # the C library in the last bit, so arrays go element by element
        src = spec.split(":", 1)[1]
        try:
            tree = parse_expression(src)
        except ExpressionError as exc:
            raise DomainError(f"bad expression: {exc}") from None
        compiled = _compile(tree)

        def image(x: float) -> float:
            try:
                return compiled(float(x))
            except ExpressionError as exc:
                raise DomainError(f"map {spec} cannot be evaluated at "
                                  f"{x!r}: {exc}") from None
        jumps = any(tok.text == "piecewise" for tok in _tokenize(src))
        return SelfMap(spec, _elementwise(image), continuous=not jumps,
                       continuity_source="piecewise" if jumps else "declared")
    raise DomainError(f"unknown map id {spec!r}")


@dataclass(frozen=True)
class MParams:
    """Exponents of the self-displacement factors in the blended comparison."""

    alpha: float
    beta: float

    def __post_init__(self):
        if self.alpha < 0 or self.beta < 0:
            raise DomainError("exponents must be nonnegative")


def _blend(space: FuzzySpace, params: MParams, near: Callable,
           near_x: Callable, near_y: Callable, power: Callable = pow
           ) -> Callable:
    """Blended comparison of pairs (x, y) with images (Tx, Ty) as a function
    of the scale, from the prepared pair stages of (x, y), (x, Tx) and
    (y, Ty).

    Elementwise over scalars or arrays, with the result type of the nearness
    and the t-norm: a float for scalars, else an ndarray.  ``power`` raises
    the self-displacement factors.  A scalar nearness is a float, so with
    ``pow`` its power is the C library's, which can differ in the last bit
    from numpy's vectorised power on an array.
    """
    norm = space.tnorm

    def at(t):
        fx = power(near_x(t), params.alpha)
        fy = power(near_y(t), params.beta)
        return norm.apply(norm.apply(near(t), fx), fy)
    return at


def _blended(space: FuzzySpace, params: MParams, xs, ys, txs, tys,
             power: Callable = pow) -> Callable:
    """:func:`_blend` of the pairs (xs, ys) with images (txs, tys)."""
    return _blend(space, params, space.pairs(xs, ys), space.pairs(xs, txs),
                  space.pairs(ys, tys), power)


def _libm_power(v, p):
    """``v ** p`` by the C library's pow, element by element on an ndarray,
    whose vectorised power can differ from it in the last bit."""
    if isinstance(v, np.ndarray):
        return np.array([e ** p for e in v.ravel().tolist()]).reshape(v.shape)
    return v ** p


def m_value(space: FuzzySpace, T: SelfMap, params: MParams, x, y, t):
    """Blended comparison value at scale t.

    Combines M(x,y,t) with M(x,Tx,t)^alpha and M(y,Ty,t)^beta through the
    space's t-norm; exponentiation is real-valued inside each factor.  A
    float for scalars; on arrays of x, y and t that broadcast together, an
    ndarray whose elements equal the scalar values bit for bit, the powers
    being the C library's element by element.
    """
    return _blended(space, params, x, y, T(x), T(y), _libm_power)(t)


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

class CheckStatus(Enum):
    SATISFIED = "satisfied"
    VIOLATED = "violated"


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
        return CheckStatus.SATISFIED

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


_Ranks = namedtuple("_Ranks", "reps group")
_Ordered = namedtuple("_Ordered", "image pair order ends tops")


def _ranks(d: np.ndarray) -> tuple:
    """One stable sort of pairs by their distances ``d``, widest first: the
    order, where each distinct distance starts in it, and each pair's
    distinct distance, numbered from the widest; int32 indices, as a shared
    sample keeps its ranks while the other work of its command runs."""
    order = np.argsort(-d, kind="stable").astype(np.int32)
    ds = d[order]
    first = np.ones(d.size, dtype=bool)
    first[1:] = ds[1:] != ds[:-1]
    starts = np.flatnonzero(first)
    group = np.empty(d.size, dtype=np.int32)
    group[order] = np.repeat(np.arange(starts.size, dtype=np.int32),
                             np.diff(np.append(starts, d.size)))
    return order, starts, group


def _ordered(d_image: np.ndarray, d_pair: np.ndarray) -> _Ordered:
    """Pairs ranked by image distance and by pair distance (:func:`_ranks`):
    per side (``image``, ``pair``) the first pair at each distinct distance
    and each pair's distinct distance.  ``order`` lists the pairs by image
    distance, ``ends`` is 0 and then the number of pairs up to each
    distinct image distance, and ``tops[g]`` is the largest pair distance
    number among the first ``ends[g]`` pairs, their least pair distance
    (``tops[0]`` is unread)."""
    order, starts, image = _ranks(d_image)
    by_pair, pair_starts, pair = _ranks(d_pair)
    ends = np.append(starts, d_image.size)
    tops = np.maximum.accumulate(pair[order])[ends[1:] - 1]
    return _Ordered(_Ranks(order[starts], image),
                    _Ranks(by_pair[pair_starts], pair),
                    order, ends, np.append(0, tops))


@dataclass(frozen=True, eq=False)
class PairSample:
    """The pair sample of a self-map ``map`` on a space: pairs (xs, ys) of
    carrier points and their images (txs, tys).  Build it with :meth:`of`,
    once per (space, map); the checks that take ``sample=`` share it.

    The first ``n_base`` pairs are the regular sample (all pairs of the
    carrier points, the diagonal included, decimated on interval carriers).
    Interval carriers additionally get a fine logarithmic distance sweep
    anchored at the lower endpoint so that narrow premise windows in
    distance space get probed; sweep pairs sit arbitrarily close to gauge
    branch edges, so strictness conditions with a fixed margin are checked
    on the regular sample only.
    """

    space: FuzzySpace
    map: SelfMap
    xs: np.ndarray
    ys: np.ndarray
    txs: np.ndarray
    tys: np.ndarray
    n_base: int

    @classmethod
    def of(cls, space: FuzzySpace, T: SelfMap) -> "PairSample":
        """Each sample point is mapped once (a sweep point that equals a
        regular one is listed, and mapped, twice); an error names the first
        offender of xs, then of ys, as ``T.apply`` on each would."""
        carrier = space.carrier
        pts = np.array(carrier.points)
        if not carrier.is_finite:
            pts = _carrier_sample(pts, 80)
        i, j = np.triu_indices(len(pts))
        n_base = len(i)
        if not carrier.is_finite:
            span = carrier.high - carrier.low
            count = int(math.ceil(math.log(1.0 / _SWEEP_MIN_FRACTION)
                                  / _SWEEP_RATIO))
            ds = (span * _SWEEP_MIN_FRACTION
                  * np.exp(np.arange(count + 1) * _SWEEP_RATIO))
            ds = ds[ds <= span]
            # pts[0] is the lower endpoint, the sweep's anchor
            i = np.append(i, np.zeros(ds.size, dtype=i.dtype))
            j = np.append(j, np.arange(len(pts), len(pts) + ds.size))
            pts = np.append(pts, carrier.low + ds)
        xs, ys = pts[i], pts[j]
        images = T._images(pts, carrier, xs, ys)
        return cls(space, T, xs, ys, images[i], images[j], n_base)

    @cached_property
    def ordered(self) -> Optional[_Ordered]:
        """The pairs ranked by image and by pair distance (:func:`_ordered`),
        built on first use, on a space that declares its distance profile;
        else None."""
        d = self.space.distance
        return None if d is None else _ordered(d.eval(self.txs, self.tys),
                                               d.eval(self.xs, self.ys))


def _pair_sample(space: FuzzySpace, T: SelfMap,
                 sample: Optional[PairSample]) -> PairSample:
    """``sample``, checked to be of ``T`` on ``space``; a new one if None."""
    if sample is None:
        return PairSample.of(space, T)
    if sample.space is not space or sample.map is not T:
        raise DomainError(f"pair sample of map {sample.map.name} drawn from "
                          f"another space or map than {T.name}'s")
    return sample


# A scale loop evaluates its pair stages on blocks of scales, each call
# holding at most this many elements (but always at least one scale).
# Blocks of 2**16 doubles (512 KiB) lie above glibc's default mmap
# threshold, so a short-lived process faults their pages in afresh: a
# standalone loop of per-pair criterion checks on 100-point traces took
# 597 minor faults per check at 2**16 and none at 2**13, which ran 12-24%
# faster there (2-CPU Xeon, numpy 2.4).  A long-lived process that has
# freed large arrays raises that threshold, and in the benchmark's
# ``orbits`` workload 2**13 did not lower the median op (4 pairs of 10 s
# runs), so the budget stays.  That evidence holds for the per-pair path:
# on a declared space those traces' stages now hold about 80 distinct
# distances per scale, all 40 scales in one block of about 3,300 values.
_SCALE_BLOCK = 1 << 16


def _scale_rows(grid: Sequence[float], size: int, *stages: Callable):
    """Each scale t of ``grid`` with the values at t of ``stages``, pair
    stages over ``size`` pairs each.

    A stage is called once per block of scales, as ``stage(ts[:, None])``,
    a block holding as many scales as fit in ``_SCALE_BLOCK`` elements.
    Every built-in stage is elementwise, so a block's row at t equals
    ``stage(t)`` bit for bit.
    """
    step = max(1, _SCALE_BLOCK // max(size, 1))
    for lo in range(0, len(grid), step):
        block = grid[lo:lo + step]
        col = np.array(block, dtype=float)[:, None]
        yield from zip(block, *(stage(col) for stage in stages))


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


def _nondecreasing(a: np.ndarray) -> bool:
    return bool((a[1:] >= a[:-1]).all())


def _threshold_search(rs: Sequence[float], onesided: bool = False,
                      finite: bool = True, rows: Optional[np.ndarray] = None,
                      cuts: Optional[Sequence[int]] = None,
                      orders: Optional[_Ordered] = None) -> Callable:
    """The search that certifies "premise window implies conclusion >= 1-r"
    for each r of ``rs``, as a function ``search(F, E, t, N=None)`` of one
    scale t's pairs.

    Pair k has premise F[k] and conclusion E[k].  A rho is valid iff its
    window (1-rho, 1-r) (two-sided) or (1-rho, 1] (one-sided) holds no
    violator, a pair whose conclusion misses 1-r, so the sup of valid rho is
    1 - v with v the largest violator premise; it must exceed r.  A
    violator-free window needs a satisfying sample inside it, except on
    finite carriers (a gap is a real feature of a finite value set) or when
    narrower than ``VACUOUS_WINDOW_TOL``.  The one-sided form may take
    nondecreasing row labels ``rows`` with the labels ``cuts`` of its cuts:
    cut c keeps the rows >= c (each nonempty), and r is read at the first
    cut past the rows of its fatal violators, those whose premise reaches
    1-r.  A plain search is one cut.

    What depends on ``rs`` and the rows alone is done once, when the search
    is built: the thresholds, their targets and, by rows, where each cut's
    rows start.  Each check builds it once.  ``search`` answers all
    r in lockstep: only pairs violating the loosest r can violate any, and
    sorted by conclusion they hold each r's violators as a prefix.  Its
    premise maximum v is the candidates' running premise maximum read at
    the prefix's end, one gather for all r.  Only an r whose v reaches
    1-r slices and rescans its prefix: two-sided, for the violators inside
    its window; by rows, for its fatal rows and then the premise maximum
    beyond its cut, which depends on the prefix and the cut alone and is
    shared by the r that have both in common.  Returns per r ``(record,
    None)``, the record ``{"t", "r", "rho", "vacuous"}`` built once, with
    "N" after "t" (the cut's label by rows, otherwise ``N`` when given) and
    "reason" last when vacuous; or ``(None, k)`` when refuted, k the
    window's violator with the largest premise (the last such pair among
    ties).

    ``orders`` may rank the pairs by distance (:attr:`PairSample.ordered`),
    and F and E then hold the values at the distinct pair and image
    distances, widest first.  Where both are nondecreasing, checked in one
    pass, the answers are the sort path's with no sort or per-pair work:
    an r's violators are the first ``orders.ends[g]`` pairs of the image
    order, g the values below its target; their premise maximum is at
    their least pair distance (``orders.tops[g]``); premise counts are
    searches in F; by rows, every cut's rows must hold a pair at distance
    0, as the criterion's diagonal pairs do, so the largest premise beyond
    every cut is F[-1]; and only a rescan or a witness gathers a prefix's
    premises (by rows, each scale gathers the loosest r's prefix once for
    its rescans, whose rows are ranked when the search is built).  A
    prefix holds the same pairs whatever the order among ties, and a
    witness is the largest index among them.  Its pairs past every
    two-sided window, which the sort path drops first, lift v past 1-r, so
    the r rescans and drops them.  Values the orders do not sort are
    spread over the pairs for the sort path.
    """
    thresholds = [1.0 - r for r in rs]
    reach = [r + CLASS_TOL for r in rs]     # 1 - F <= r + CLASS_TOL: fatal
    bounds = np.array(thresholds)
    targets = bounds - CLASS_TOL
    loosest, widest = targets.max(), bounds.max()
    if cuts is not None:
        starts = np.searchsorted(rows, np.arange(len(cuts)))
    if orders is not None and cuts is not None:
        # the pairs' rows and pair distance numbers in the image order
        ranked_rows = rows[orders.order]
        grouped = orders.pair.group[orders.order]
    n_cuts = 1 if cuts is None else len(cuts)
    clamped = 1.0 - ENDPOINT_CLAMP

    def search(F: np.ndarray, E: np.ndarray, t: float, N=None) -> list:
        ordered = orders is not None
        if ordered and not (F.size and _nondecreasing(F)
                            and _nondecreasing(E)):
            # each pair's value, for the sort path
            F, E = F[orders.pair.group], E[orders.image.group]
            ordered = False
        if onesided:
            # every window at cut 0 holds all pairs; the largest premise
            # among the pairs beyond each cut
            counts = [F.size] * len(rs)
            best = ([] if not F.size else [float(F[-1])] * n_cuts if ordered
                    else [float(F.max())] if cuts is None
                    else np.maximum.accumulate(np.maximum.reduceat(
                        F, starts)[::-1])[::-1].tolist())
        if ordered:
            g = E.searchsorted(targets)
            ns, order, ranked = orders.ends[g], orders.order, F
            tops = F[orders.tops[g]].tolist()

            def head(m):    # the premises of the first m pairs
                return F.take(orders.pair.group.take(order[:m]))
        else:
            keep = E < loosest
            if not onesided:
                below = F < widest
                keep &= below
                ranked = F[below]   # every window's premises, to count them
                ranked.sort()
            order = keep.nonzero()[0]
            Eo = E[order]
            perm = np.argsort(Eo, kind="stable")
            order, Eo = order[perm], Eo[perm]
            # the candidates' premises in that order: a rescan reads a
            # prefix, and ``order`` only to name a witness
            Fo = F[order]
            ns = Eo.searchsorted(targets)
            # each prefix's premise maximum (an empty prefix's is unread)
            tops = (np.maximum.accumulate(Fo)[ns - 1].tolist() if Fo.size
                    else [])

            def head(m):
                return Fo[:m]
        if not onesided:
            counts = ranked.searchsorted(bounds).tolist()
        ns = ns.tolist()
        if cuts is not None:
            if ordered:     # the premises a rescan reads, in the image order
                Fo = F.take(grouped[:max(ns)])
            ro, gaps = ranked_rows if ordered else rows[order], 1.0 - Fo
            # (prefix, cut) -> premise maximum beyond it: on settling
            # criterion traces about half the rescans find theirs here
            beyond = {}
        out = []
        for i, m in enumerate(ns):
            first, v = 0, (tops[i] if m else None)
            top, inside = v, None       # the witness's premise and window
            if v is not None and 1.0 - v <= reach[i]:
                # some violator reaches 1-r: rescan the window's violators
                if not onesided:
                    Fm = head(m)
                    inside = Fm < thresholds[i]
                    Fv = Fm[inside]
                    top = v = float(Fv.max()) if Fv.size else None
                    if v is not None and 1.0 - v <= reach[i]:
                        first = n_cuts
                elif cuts is None:
                    first = n_cuts
                else:
                    fatal = ro[:m][gaps[:m] <= reach[i]]     # their rows
                    first = min(int(fatal.max()) + 1, n_cuts)
                    if (m, first) not in beyond and first < n_cuts:
                        Fb = Fo[:m][ro[:m] >= first]
                        beyond[m, first] = float(Fb.max()) if Fb.size else None
                    v = beyond.get((m, first))
            if first == n_cuts:
                rho = None
            elif counts[i] == 0:
                rho, vacuous = clamped, True
                reason = "no pairs below threshold"
            elif v is None:
                rho, vacuous, reason = clamped, False, None
            elif (best[first] > v if onesided else
                  ranked.searchsorted(v, side="right") < counts[i]):
                rho, vacuous, reason = 1.0 - v, False, None
            elif finite:
                rho, vacuous, reason = 1.0 - v, True, "gap"
            elif thresholds[i] - v <= VACUOUS_WINDOW_TOL:
                rho, vacuous, reason = 1.0 - v, True, "sub-resolution window"
            else:
                rho = None
            if rho is None:
                sel = head(m) == top
                if inside is not None:
                    sel &= inside
                out.append((None, int(order[:m][sel].max())))
                continue
            label = N if cuts is None else cuts[first]
            rec = ({"t": t, "r": rs[i], "rho": rho, "vacuous": vacuous}
                   if label is None else {"t": t, "N": label, "r": rs[i],
                                          "rho": rho, "vacuous": vacuous})
            if reason is not None:
                rec["reason"] = reason
            out.append((rec, None))
        return out
    return search


def _improvement_scan(space: FuzzySpace, grid, sample: PairSample,
                      cond1: ConditionVerdict, cond2: ConditionVerdict,
                      premise: Optional[Callable] = None, key: str = "before",
                      ordered: Optional[_Ordered] = None):
    """The scale loop of a check whose first condition is strict improvement.

    The sample's first ``n_base`` pairs are the regular sample;
    ``premise(xs, ys, txs, tys)`` prepares a sample's premise as a function
    of the scale, by default the pairs' own nearness.  The premise and the
    images' nearness are prepared once and evaluated on blocks of scales
    (:func:`_scale_rows`).  While ``cond2`` holds, each scale t reads both
    over the whole sample, F and E, and yields (t, F, E) for the caller to
    check ``cond2``; with ``ordered`` (:attr:`PairSample.ordered`, default
    premise), F and E are the nearness at the distinct pair and image
    distances only.  A caller marks ``cond2`` violated and lets the loop
    run out rather than breaking it.  ``cond1`` requires, at every scale,
    distinct regular pairs' images to be strictly nearer than the premise,
    which its witness names ``key`` (``before`` or ``blend``).  It reads
    the regular pairs' values of F and E; once ``cond2`` is violated it goes
    on over the regular sample alone, prepared again when the sample holds
    more or only its distinct distances.
    """
    margin = 0.0 if space.carrier.is_finite else STRICT_MARGIN
    premise = premise or (lambda xs, ys, txs, tys: space.pairs(xs, ys))
    xs, ys, n_base = sample.xs, sample.ys, sample.n_base
    pairs = (xs, ys, sample.txs, sample.tys)
    distinct = xs[:n_base] != ys[:n_base]
    if ordered is None:
        rows = _scale_rows(grid, len(xs), premise(*pairs),
                           space.pairs(*pairs[2:]))
        regular = lambda F, E: (F, E)
    else:
        pr, im = ordered.pair, ordered.image
        rows = _scale_rows(grid, max(pr.reps.size, im.reps.size),
                           space.pairs(xs[pr.reps], ys[pr.reps]),
                           space.pairs(sample.txs[im.reps],
                                       sample.tys[im.reps]))
        fg, eg = pr.group[:n_base], im.group[:n_base]
        regular = lambda F, E: (F.take(fg), E.take(eg))

    def improve(t, F, E):
        f, e = F[:n_base], E[:n_base]
        bad = distinct & ~(e > f + margin * f)
        if bad.any():
            k = int(np.nonzero(bad)[0][0])
            cond1.status = CheckStatus.VIOLATED
            values = ({"before": float(f[k]), "after": float(e[k])}
                      if key == "before" else
                      {"after": float(e[k]), "blend": float(f[k])})
            cond1.witness = {"x": float(xs[k]), "y": float(ys[k]), "t": t,
                             **values}

    for i, (t, F, E) in enumerate(rows):
        if cond2.status is CheckStatus.VIOLATED:
            break
        if cond1.status is CheckStatus.SATISFIED:
            improve(t, *regular(F, E))
        yield t, F, E
    else:
        return
    # cond2 failed at the scale before grid[i], whose rows are read already
    if ordered is not None or n_base < len(xs):
        base = [a[:n_base] for a in pairs]
        rows = _scale_rows(grid[i + 1:], n_base, premise(*base),
                           space.pairs(*base[2:]))
    for t, F, E in chain([(t, *regular(F, E))], rows):
        if cond1.status is CheckStatus.VIOLATED:
            return
        improve(t, F, E)


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
    sample = PairSample.of(space, T)
    xs, ys = sample.xs, sample.ys

    cond1 = ConditionVerdict("strict-improvement", CheckStatus.SATISFIED)
    cond2 = ConditionVerdict("gauge-bound", CheckStatus.SATISFIED)
    for t, F, E in _improvement_scan(space, grid, sample, cond1, cond2):
        bound = _gauge_bound(psi, F)
        bad = E < bound - CLASS_TOL
        if bad.any():
            i = int(np.nonzero(bad)[0][0])
            cond2.status = CheckStatus.VIOLATED
            cond2.witness = {"x": float(xs[i]), "y": float(ys[i]), "t": t,
                             "after": float(E[i]), "bound": float(bound[i])}
    return ClassificationReport(T.name, f"psi-contractive({psi.name})",
                                [cond1, cond2], grid)


def cm_contractive_check(space: FuzzySpace, T: SelfMap,
                         r_grid: Optional[Sequence[float]] = None,
                         t_grid: Optional[Sequence[float]] = None,
                         form: str = "between",
                         sample: Optional[PairSample] = None,
                         ) -> ClassificationReport:
    """Check the threshold-implication contraction form.

    Condition 1 as in :func:`psi_contractive_check`.  Condition 2 searches,
    per scale t and threshold r, a rho in (r,1) such that every sampled
    pair whose nearness lies in the premise window improves past 1-r; the
    found rho values are recorded.  ``form`` selects the premise window:
    ``between`` uses 1-r > M > 1-rho and ``onesided`` uses M > 1-rho.
    ``sample`` is the pair sample of ``T`` on ``space`` to share
    (:class:`PairSample`), built here when None.

    On a space that declares its distance profile (:class:`FuzzySpace`)
    nearness is a non-increasing function of the distance, so with the
    sample's ranks (:attr:`PairSample.ordered`) each scale evaluates the
    conclusions and premises at the distinct distances only, which come
    sorted, and strict improvement reads the regular pairs' values among
    them.  Each scale confirms the order, and the records and witnesses
    are those of the sort path (:func:`_threshold_search`).
    """
    if form not in ("between", "onesided"):
        raise DomainError(f"unknown form {form!r}")
    grid = scale_grid(t_grid)
    rs = threshold_grid(r_grid)
    sample = _pair_sample(space, T, sample)
    xs, ys, ordered = sample.xs, sample.ys, sample.ordered

    cond1 = ConditionVerdict("strict-improvement", CheckStatus.SATISFIED)
    cond2 = ConditionVerdict("threshold-implication", CheckStatus.SATISFIED)
    search = _threshold_search(rs, form == "onesided",
                               space.carrier.is_finite, orders=ordered)
    for t, F, E in _improvement_scan(space, grid, sample, cond1, cond2,
                                     ordered=ordered):
        for r, (rec, k) in zip(rs, search(F, E, t)):
            if rec is None:
                kf, ke = ((k, k) if ordered is None else
                          (ordered.pair.group[k], ordered.image.group[k]))
                cond2.status = CheckStatus.VIOLATED
                cond2.witness = {"x": float(xs[k]), "y": float(ys[k]),
                                 "t": t, "r": r, "before": float(F[kf]),
                                 "after": float(E[ke])}
                break
            cond2.records.append(rec)
    return ClassificationReport(T.name, f"threshold-implication({form})",
                                [cond1, cond2], grid, rs)


def m_contractive_check(space: FuzzySpace, T: SelfMap, params: MParams,
                        psi: Optional[Gauge] = None,
                        r_grid: Optional[Sequence[float]] = None,
                        t_grid: Optional[Sequence[float]] = None,
                        sample: Optional[PairSample] = None,
                        ) -> ClassificationReport:
    """Check the blended-comparison contraction form.

    Condition (i) requires after-nearness strictly above the blended value
    for distinct pairs.  With ``psi`` given, condition (ii) is the gauge
    form after-nearness >= psi(blended value) and the report carries the
    tightest observed margin; otherwise (ii) searches per (t, r) a pair
    (rho, N) with N up to ``n_cap`` iterate shifts, the carrier's size on
    a finite carrier, else 50.  ``sample`` is as in
    :func:`cm_contractive_check`.
    """
    grid = scale_grid(t_grid)
    rs = threshold_grid(r_grid)
    carrier = space.carrier
    n_cap = len(carrier.points) if carrier.is_finite else 50
    sample = _pair_sample(space, T, sample)
    xs, ys = sample.xs, sample.ys
    cond1 = ConditionVerdict("strict-improvement-over-blend",
                             CheckStatus.SATISFIED)
    blended = partial(_blended, space, params)

    if psi is not None:
        cond2 = ConditionVerdict("gauge-bound-over-blend", CheckStatus.SATISFIED)
        tightest = math.inf
        for t, mv, E in _improvement_scan(space, grid, sample, cond1, cond2,
                                          blended, key="blend"):
            bound = _gauge_bound(psi, mv)
            slack = E - bound
            tightest = min(tightest, float(slack.min()))
            bad = slack < -CLASS_TOL
            if bad.any():
                i = int(np.nonzero(bad)[0][0])
                cond2.status = CheckStatus.VIOLATED
                cond2.witness = {"x": float(xs[i]), "y": float(ys[i]), "t": t,
                                 "after": float(E[i]), "bound": float(bound[i])}
        report = ClassificationReport(
            T.name, f"blended-contraction({psi.name})", [cond1, cond2],
            grid, rs, details={"alpha": params.alpha, "beta": params.beta,
                               "tightest_margin": tightest})
        return report

    # iterate-shift search: premise on the blend of N-step images, conclusion
    # on the nearness of (N+1)-step images.  Shift 0 is the scan's; a later
    # shift is mapped and prepared once, when a scale first needs it, and
    # its conclusion is the next shift's pair nearness.  A threshold's
    # record does not depend on the others searched with it, so every
    # shift searches the whole grid and each keeps its first record
    shifts = []             # (premise, conclusion) of shifts 1, 2, ...
    last = (sample.txs, sample.tys)
    cond2 = ConditionVerdict("iterate-threshold-implication", CheckStatus.SATISFIED)
    search = _threshold_search(rs, finite=carrier.is_finite)
    for t, mv, concl in _improvement_scan(space, grid, sample, cond1, cond2,
                                          blended, key="blend"):
        found, witness = {}, {}
        for n in range(n_cap + 1):
            if len(found) == len(rs):
                break
            if n > len(shifts):
                px, py = last
                near = shifts[-1][1] if shifts else space.pairs(px, py)
                last = (T.apply(px, carrier), T.apply(py, carrier))
                shifts.append((_blend(space, params, near,
                                      space.pairs(px, last[0]),
                                      space.pairs(py, last[1])),
                               space.pairs(*last)))
            if n:
                premise, conclusion = shifts[n - 1]
                mv, concl = premise(t), conclusion(t)
            for i, (rec, k) in enumerate(search(mv, concl, t, n)):
                if rec is not None:
                    found.setdefault(i, rec)
                elif n == 0:
                    witness[i] = k
        for i, r in enumerate(rs):
            if i not in found:
                k = witness[i]
                cond2.status = CheckStatus.VIOLATED
                cond2.witness = {"x": float(xs[k]), "y": float(ys[k]),
                                 "t": t, "r": r}
                break
            cond2.records.append(found[i])
    return ClassificationReport(T.name, "blended-contraction", [cond1, cond2],
                                grid, rs,
                                details={"alpha": params.alpha,
                                         "beta": params.beta, "n_cap": n_cap})


# ---------------------------------------------------------------------------
# empirical gauges
# ---------------------------------------------------------------------------

def _make_envelope(F: np.ndarray, E: np.ndarray) -> Gauge:
    order = np.argsort(F, kind="stable")
    Fs, Es = F[order], E[order]
    # the envelope at tau is the least after-value over before-values at or
    # above tau; it changes only past the last sample of each run of equal
    # suffix minima, so those samples alone are searched
    lows = np.minimum.accumulate(Es[::-1])[::-1]
    ends = np.flatnonzero(np.append(lows[1:] != lows[:-1], lows.size > 0))
    Fs = Fs[ends]
    # the appended 1.0 is the value past the last observation
    values = np.append(lows[ends], 1.0)
    return Gauge("empirical-envelope", GaugeDomain.PSI,
                 lambda tau: values[np.searchsorted(Fs, tau, side="left")])


def extract_empirical_gauge(space: FuzzySpace, T: SelfMap,
                            pairs: Sequence[tuple], t: float = 1.0) -> Gauge:
    """The envelope gauge of the sample pairs (x, y) at one scale.

    The envelope is the pointwise infimum of after-values over samples
    with before-value at or above the argument, a nondecreasing step
    function, returned as a psi-style gauge that :func:`class_membership`
    certifies like any other.
    """
    if t <= 0:
        raise DomainError("scale t must be positive")
    xs, ys = np.array(pairs, dtype=float).reshape(-1, 2).T
    txs, tys = T.apply(xs, space.carrier), T.apply(ys, space.carrier)
    return _make_envelope(space.m(xs, ys, t), space.m(txs, tys, t))


# ---------------------------------------------------------------------------
# equivalence probe
# ---------------------------------------------------------------------------

@dataclass
class EquivalenceReport:
    pointwise: list[dict] = field(default_factory=list)   # per (t, r)
    uniform: list[dict] = field(default_factory=list)     # per r
    envelope_certs: list[dict] = field(default_factory=list)  # per t
    pointwise_satisfied: bool = True
    uniform_satisfied: bool = True


def equivalence_probe(space: FuzzySpace, T: SelfMap,
                      r_grid: Optional[Sequence[float]] = None,
                      t_grid: Optional[Sequence[float]] = None,
                      ) -> EquivalenceReport:
    """Probe uniform-in-t versus per-t threshold implications.

    Requires the weak hypothesis that mapping never decreases nearness on
    sampled pairs; raises :class:`PreconditionError` with a witness
    otherwise.  Reports, per r, whether a single rho works across the whole
    scale grid whenever per-scale rho values exist, and certifies the
    per-scale empirical envelope gauges.  The precondition, the threshold
    search and the envelopes all read each scale's whole-sample rows.
    """
    grid = scale_grid(t_grid)
    rs = threshold_grid(r_grid)
    sample = PairSample.of(space, T)
    xs, ys = sample.xs, sample.ys

    report = EquivalenceReport()
    search = _threshold_search(rs, finite=space.carrier.is_finite)
    for t, F, E in _scale_rows(grid, len(xs), space.pairs(xs, ys),
                               space.pairs(sample.txs, sample.tys)):
        bad = E < F - CLASS_TOL
        if bad.any():
            i = int(np.nonzero(bad)[0][0])
            raise PreconditionError(
                "nearness decreases under the map",
                witness={"x": float(xs[i]), "y": float(ys[i]), "t": t,
                         "before": float(F[i]), "after": float(E[i])})
        # the probe holds sampled continuous carriers to a stricter standard
        # than the classifier: a threshold certified only through an
        # unprobed sub-resolution window is not counted as satisfied
        for r, (rec, k) in zip(rs, search(F, E, t)):
            entry = rec
            if rec is None or rec.get("reason") == "sub-resolution window":
                entry = {"t": t, "r": r, "rho": None}
                if k is not None:
                    entry["witness"] = {"x": float(xs[k]), "y": float(ys[k])}
                report.pointwise_satisfied = False
            report.pointwise.append(entry)
        cert = class_membership(_make_envelope(F, E), ClassTag.PSI1, r_grid=rs)
        report.envelope_certs.append({"t": t, "verdict": cert.verdict.value})

    # the sup of valid rho per scale is exact, so a uniform rho exists for a
    # threshold exactly when every per-scale search succeeded; its value is
    # the smallest per-scale sup
    for r in rs:
        per_t = [e for e in report.pointwise if e["r"] == r]
        if any(e["rho"] is None for e in per_t):
            report.uniform_satisfied = False
            report.uniform.append({"r": r, "rho": None})
            continue
        rho = min(e["rho"] for e in per_t)
        vacuous = any(e.get("vacuous", False) for e in per_t)
        report.uniform.append({"r": r, "rho": rho, "vacuous": vacuous})
    return report
