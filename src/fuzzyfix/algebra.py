"""Triangular norms and gauge-function classes.

The module provides:

* continuous t-norms on [0,1],
* the three gauge families used by the contraction classifiers
  (phi-style gauges on [0,inf), psi-style gauges on (0,1], and eta-style
  generators, i.e. strictly decreasing bijections (0,1] -> [0,inf)),
* conjugation between the phi and psi families through a generator,
* grid-based class-membership certification for the classes Phi1, Psi,
  Psi1 and the generator family H.

Every gauge evaluates a float to a float and an ndarray elementwise to an
ndarray, with the same domain checks on both; the Psi1 and Phi1 checks
evaluate all sample windows of a bisection step in one call.  A t-norm
gives a float for two scalars and a float64 ndarray of the broadcast
shape otherwise.

Membership verdicts are certificates over the tested grid, not proofs:
the class conditions quantify over uncountable sets, so a ``member``
verdict only attests that the condition held at every tested grid value,
while ``non_member`` always carries a concrete violating sample.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from enum import Enum
from fractions import Fraction
from typing import Callable, Optional, Sequence

import numpy as np

from .defaults import (
    BISECT_ITERS,
    CLASS_TOL,
    DEFAULT_EPS_GRID,
    DEFAULT_TAU_RESOLUTION,
    ENDPOINT_CLAMP,
    clamp_positive_grid,
    threshold_grid,
)


class DomainError(ValueError):
    """Raised when a value lies outside the domain of an operation."""


# ---------------------------------------------------------------------------
# t-norms
# ---------------------------------------------------------------------------

class TNormKind(Enum):
    PRODUCT = "product"
    MINIMUM = "minimum"
    LUKASIEWICZ = "lukasiewicz"
    HAMACHER = "hamacher"


def _hamacher(a, b):
    den = a + b - a * b
    return np.where(den > 0.0, a * b / np.where(den > 0.0, den, 1.0), 0.0)


@dataclass(frozen=True)
class TNorm:
    """A binary operation on [0,1]; ``fn`` must accept scalars or arrays."""

    kind: TNormKind
    fn: Callable

    def apply(self, a, b):
        """The t-norm of a and b: a float when both are scalars, else a
        float64 ndarray of their broadcast shape."""
        out = self.fn(a, b)
        if np.isscalar(a) and np.isscalar(b):
            return float(out)
        return np.asarray(out, dtype=float)

    @classmethod
    def product(cls) -> "TNorm":
        return cls(TNormKind.PRODUCT, lambda a, b: a * b)

    @classmethod
    def minimum(cls) -> "TNorm":
        return cls(TNormKind.MINIMUM, np.minimum)

    @classmethod
    def lukasiewicz(cls) -> "TNorm":
        return cls(TNormKind.LUKASIEWICZ,
                   lambda a, b: np.maximum(0.0, a + b - 1.0))

    @classmethod
    def hamacher(cls) -> "TNorm":
        return cls(TNormKind.HAMACHER, _hamacher)


_TNORMS = {
    "product": TNorm.product,
    "minimum": TNorm.minimum,
    "lukasiewicz": TNorm.lukasiewicz,
    "hamacher": TNorm.hamacher,
}


def tnorm(norm_id: str) -> TNorm:
    """Resolve a t-norm by string id."""
    try:
        return _TNORMS[norm_id]()
    except KeyError:
        raise DomainError(f"unknown t-norm id {norm_id!r}") from None


@dataclass
class AxiomResult:
    name: str
    passed: bool
    witness: Optional[dict] = None

    def to_dict(self) -> dict:
        return {"name": self.name, "passed": self.passed, "witness": self.witness}


def _axiom(name: str, bad: np.ndarray, witness: Callable) -> AxiomResult:
    """The result of one axiom: passed when ``bad`` flags no entry, else
    failed with ``witness`` of the first flagged entry's index in row-major
    order (one argument per axis)."""
    if not bad.any():
        return AxiomResult(name, True)
    first = np.unravel_index(int(np.argmax(bad)), bad.shape)
    return AxiomResult(name, False, witness(*(int(i) for i in first)))


# ---------------------------------------------------------------------------
# gauges
# ---------------------------------------------------------------------------

class GaugeDomain(Enum):
    PHI = "phi_style"    # [0, inf) -> [0, inf)
    PSI = "psi_style"    # (0, 1]   -> (0, 1]
    ETA = "eta_style"    # (0, 1]   -> [0, inf), strictly decreasing bijection


@dataclass(frozen=True)
class Gauge:
    """A named real gauge function with a tagged domain.  ``fn`` and
    :meth:`eval` map a float to a float and an ndarray elementwise."""

    name: str
    domain: GaugeDomain
    fn: Callable
    inverse: Optional[Callable] = None

    def __call__(self, v):
        return self.eval(v)

    def eval(self, v):
        array = isinstance(v, np.ndarray)
        phi = self.domain is GaugeDomain.PHI
        # an array's min and max carry a NaN, so both domains reject it; the
        # initial 1.0 lies in both, so an empty array passes
        lo = v.min(initial=1.0) if array else v
        if not (lo >= 0.0 if phi else
                0.0 < lo and (v.max(initial=1.0) if array else v) <= 1.0):
            if array:    # the first offender, named as its scalar call would
                v = float(v[~(v >= 0.0 if phi else (0.0 < v) & (v <= 1.0))][0])
            where = "[0,inf)" if phi else "(0,1]"
            raise DomainError(f"{self.name}: argument {v!r} outside {where}")
        if array:
            return np.asarray(self.fn(v), dtype=float)
        return float(self.fn(v))



def _step_phi_fn(s):
    # The scalar branch stays beside the array one: picard_orbit calls the
    # phi-step self-map's function on one float per orbit step, where numpy
    # costs about a hundred times as much.  Both use the same float
    # expressions, bit for bit.
    if isinstance(s, np.ndarray):
        # the lower branch edge is the value; past 1 it is 1, as n = 0.
        # Lanes below 1e-9 take s / (1 + s); the loop sees them at 1e-9,
        # where they settle, as s = 0 would move in every round.
        with np.errstate(all="ignore"):
            c = np.maximum(s, 1e-9)
            n = np.floor(1.0 / c)
            low = 1.0 / (n + 1)
            for _ in range(4):
                dec = (n > 1) & (c > 1.0 / n)
                inc = c <= low
                if not (dec | inc).any():     # no lane moves again
                    break
                n = n - dec + inc     # dec and inc never both hold
                low = 1.0 / (n + 1)
            out = np.where(s < 1e-9, s / (1.0 + s), low)
            return np.where(s == 0.0, 0.0, out)
    if s == 0.0:
        return 0.0
    if s > 1.0:
        return 1.0
    if s < 1e-9:
        # below any branch the tests can resolve; continuum limit of 1/(n+1)
        return s / (1.0 + s)
    n = int(1.0 / s)
    # comparisons are authoritative near branch edges: 1/(n+1) < s <= 1/n;
    # the integer estimate is off by at most one step
    for _ in range(4):
        if n > 1 and s > 1.0 / n:
            n -= 1
        elif s <= 1.0 / (n + 1):
            n += 1
        else:
            break
    return 1.0 / (n + 1)


def _step_psi_fn(tau):
    t = np.asarray(tau, dtype=float)
    # branch n holds n/(n+1) <= t < (n+1)/(n+2); the estimate is off by at
    # most one step except at the far end where steps are sub-ulp; the upper
    # branch edge is the value
    with np.errstate(all="ignore"):
        n = np.maximum(np.floor(t / (1.0 - t)), 1.0)
        high = (n + 1.0) / (n + 2.0)
        for _ in range(4):
            dec = (n > 1) & (t < n / (n + 1.0))
            inc = t >= high
            if not (dec | inc).any():     # no lane moves again
                break
            n = n - dec + inc     # dec and inc never both hold
            high = (n + 1.0) / (n + 2.0)
        out = np.where(t == 1.0, 1.0, np.where(t < 0.5, 0.5, high))
    return out if isinstance(tau, np.ndarray) else float(out)


def step_phi() -> Gauge:
    """Piecewise-constant distance gauge with steps 1/(n+1) on (1/(n+1), 1/n];
    each branch edge is computed once per correction round."""
    return Gauge("step-phi", GaugeDomain.PHI, _step_phi_fn)


def step_psi() -> Gauge:
    """Piecewise-constant nearness gauge; discontinuous, jump 1/6 at 1/2.
    Each branch edge is computed once per correction round."""
    return Gauge("step-psi", GaugeDomain.PSI, _step_psi_fn)


def power_gauge(p: float) -> Gauge:
    if p <= 0:
        raise DomainError("power gauge exponent must be positive")
    return Gauge(f"power:{p}", GaugeDomain.PSI, lambda t: t ** p)


def identity_gauge() -> Gauge:
    return Gauge("identity", GaugeDomain.PSI, lambda t: t)


def power_phi_gauge(p: float) -> Gauge:
    if p <= 0:
        raise DomainError("power gauge exponent must be positive")
    name = f"power-phi:{p}"

    def fn(s):
        # a float power raises OverflowError, numpy's warns and gives inf;
        # either way no finite value exists, which is a domain error
        try:
            with np.errstate(over="raise"):
                return s ** p
        except (OverflowError, FloatingPointError):
            raise DomainError(f"{name}: {float(np.max(s))!r} ** {p} "
                              f"overflows a float") from None
    return Gauge(name, GaugeDomain.PHI, fn)


def eta_reciprocal() -> Gauge:
    return replace(eta_reciprocal_t(1.0), name="eta-reciprocal")


def eta_reciprocal_t(t: float) -> Gauge:
    if t <= 0:
        raise DomainError("generator scale must be positive")

    def fn(tau):
        with np.errstate(over="ignore"):    # inf near 0, as for a float
            return t / tau - t
    return Gauge(f"eta-reciprocal-t:{t}", GaugeDomain.ETA, fn,
                 inverse=lambda y: t / (t + y))


def eta_neglog() -> Gauge:
    return Gauge("eta-neglog", GaugeDomain.ETA,
                 lambda t: -np.log(t), inverse=lambda y: np.exp(-y))


def _parse_number(text: str) -> float:
    """A finite number given as a decimal or a fraction such as ``5/7``."""
    try:
        value = float(Fraction(text)) if "/" in text else float(text)
    except (ValueError, ZeroDivisionError):
        raise DomainError(f"bad number {text!r}") from None
    if not math.isfinite(value):
        raise DomainError(f"number {text!r} is not finite")
    return value


_GAUGES = {"step-phi": step_phi, "step-psi": step_psi,
           "identity": identity_gauge, "eta-reciprocal": eta_reciprocal,
           "eta-neglog": eta_neglog}

# ids of the form ``<head>:<number>``
_PARAMETERISED = {"power": power_gauge, "power-phi": power_phi_gauge,
                  "eta-reciprocal-t": eta_reciprocal_t}


def gauge(spec: str) -> Gauge:
    """Resolve a gauge by string id.

    Supported ids: ``step-phi``, ``step-psi``, ``power:<p>``, ``power-phi:<p>``,
    ``identity``, ``eta-reciprocal``, ``eta-reciprocal-t:<t>``, ``eta-neglog``
    and ``conj:<eta-id>:<gauge-id>`` for a conjugated gauge.  Numeric
    parameters accept fractions such as ``power:5/7``.
    """
    if spec in _GAUGES:
        return _GAUGES[spec]()
    head, colon, rest = spec.partition(":")
    if head in _PARAMETERISED and colon:
        return _PARAMETERISED[head](_parse_number(rest))
    if head == "conj":
        # the generator id ends at its parameter, if its head takes one
        eta_head, _, g_spec = rest.partition(":")
        if eta_head in _PARAMETERISED:
            param, _, g_spec = g_spec.partition(":")
            eta_head += ":" + param
        if ":" in rest:
            return conjugate_gauge(gauge(eta_head), gauge(g_spec))
    raise DomainError(f"unknown gauge id {spec!r}")


def invert_eta(eta: Gauge, y):
    """Invert a generator at ``y >= 0``, a float or elementwise an ndarray,
    through the inverse it declares."""
    if eta.domain is not GaugeDomain.ETA:
        raise DomainError(f"{eta.name} is not an eta-style generator")
    if eta.inverse is None:
        raise DomainError(f"{eta.name} declares no inverse")
    if np.any(y < 0):
        raise DomainError(f"generator values are nonnegative, got {y!r}")
    x = np.asarray(eta.inverse(y), dtype=float)
    return x if isinstance(y, np.ndarray) else float(x)


def conjugate_gauge(eta: Gauge, g: Gauge) -> Gauge:
    """Conjugate a gauge through a generator.

    A phi-style gauge maps to the psi-style gauge eta^-1 . g . eta, and a
    psi-style gauge maps back to the phi-style gauge eta . g . eta^-1.
    """
    if eta.domain is not GaugeDomain.ETA:
        raise DomainError(f"{eta.name} is not an eta-style generator")
    if g.domain is GaugeDomain.PHI:
        def fn(tau):
            return invert_eta(eta, g.eval(eta.eval(tau)))
        return Gauge(f"conj({eta.name},{g.name})", GaugeDomain.PSI, fn)
    if g.domain is GaugeDomain.PSI:
        def fn(s):
            return eta.eval(g.eval(invert_eta(eta, s)))
        return Gauge(f"conj({eta.name},{g.name})", GaugeDomain.PHI, fn)
    raise DomainError("only phi-style and psi-style gauges can be conjugated")


# ---------------------------------------------------------------------------
# class membership
# ---------------------------------------------------------------------------

class ClassTag(Enum):
    PHI1 = "phi1"
    PSI = "psi"
    PSI1 = "psi1"
    H = "h"


class Verdict(Enum):
    MEMBER = "member"
    NON_MEMBER = "non_member"
    INCONCLUSIVE = "inconclusive"


CERTIFICATE_NOTE = ("grid certificate: member verdicts attest only to the "
                    "tested grid and resolution, non-member verdicts carry a "
                    "concrete violating sample")


@dataclass
class MembershipCertificate:
    """Evidence container for a gauge-class check."""

    gauge_name: str
    class_tag: ClassTag
    verdict: Verdict
    grid: tuple[float, ...]
    tau_resolution: float
    records: list[dict] = field(default_factory=list)
    witness: Optional[dict] = None

    def to_dict(self) -> dict:
        return {"gauge": self.gauge_name, "class": self.class_tag.value,
                "verdict": self.verdict.value, "grid": list(self.grid),
                "tau_resolution": self.tau_resolution,
                "records": self.records, "witness": self.witness,
                "note": CERTIFICATE_NOTE}


def _sample_counts(width, resolution):
    # ceil(width / resolution) midpoint samples per window, at least 16 and
    # at most 512: full resolution matters only near the accept boundary of
    # a bisection, where the window is already narrow
    return np.minimum(np.maximum(np.ceil(width / resolution), 16),
                      512).astype(np.intp)


def _ragged(lo, step, k):
    """The samples lo[i] + (j + 0.5) * step[i], j < k[i], of every window i,
    laid out as one ragged array, and where each window's samples start."""
    starts = np.cumsum(k) - k
    j = np.arange(0.5, k.sum()) - np.repeat(starts, k)     # j + 0.5, exactly
    return np.repeat(lo, k) + j * np.repeat(step, k), starts


def _bisect_grid(g: Gauge, x: np.ndarray, resolution: float, phi: bool,
                 probe: bool = True):
    """Per threshold, the largest midpoint a BISECT_ITERS-step bisection
    accepts, or NaN if none; the thresholds move in lockstep, at most one
    gauge evaluation per step.  Psi1 bisects rho in (r + resolution, 1) and
    accepts it when psi >= 1-r on (1-rho, 1-r); Phi1 (``phi``) bisects delta
    in (eps + resolution, eps + max(1, eps)) and accepts it when phi <= eps
    on (eps, delta).  The resolution offset keeps a gauge from passing
    vacuously on a sub-resolution window.

    With ``probe``, each evaluation also holds, per threshold, the sample
    next to the moving end at rho (delta) of both windows the next step may
    bisect: Psi1's first, Phi1's last, where :func:`_ragged` puts them.  A
    window whose end sample fails is rejected unsampled, so the result is
    that of the search without ``probe``, but not always its errors.
    """
    if phi:
        lo, hi, bound = x + resolution, x + np.maximum(1.0, x), x
    else:
        lo = np.minimum(x + resolution, 1.0 - ENDPOINT_CLAMP)
        hi, bound = np.full_like(x, 1.0 - ENDPOINT_CLAMP), 1.0 - x
    n = x.size
    # per window: its fixed end and the limit its values must keep
    fixed = np.tile(x if phi else bound, 3)
    limit = np.tile(bound + CLASS_TOL if phi else bound - CLASS_TOL, 3)
    best = np.full_like(x, np.nan)
    refuted = np.zeros(n, dtype=bool)   # this step's window, by its end sample
    for step in range(BISECT_ITERS):
        mid = 0.5 * (lo + hi)
        # this step's windows, then the next step's as it accepts or not
        m = np.concatenate([mid, 0.5 * (mid + hi), 0.5 * (lo + mid)])
        wlo, whi = (fixed, m) if phi else (1.0 - m, fixed)
        width = whi - wlo
        k = _sample_counts(width, resolution)
        spacing = width / k
        # a next window's end sample, as a one-sample window of its own;
        # none after the last step
        ends = wlo[n:] + ((k[n:] - 0.5) if phi else 0.5) * spacing[n:]
        probed = probe and step < BISECT_ITERS - 1
        spacing[n:], k[n:] = 0.0, probed
        k[:n][refuted] = 0
        taus, starts = _ragged(np.concatenate([wlo[:n], ends]), spacing, k)
        bad = np.zeros(3 * n, dtype=bool)
        if taus.size:
            # each window's largest (smallest) value but NaN; an empty window
            # reads a neighbour's or none, and is refuted or unprobed
            c = starts.searchsorted(taus.size)
            edge = (np.fmax if phi else np.fmin).reduceat(g.eval(taus), starts[:c])
            bad[:c] = edge > limit[:c] if phi else edge < limit[:c]
        ok = ~(bad[:n] | refuted)
        refuted = np.where(ok, bad[n:2 * n], bad[2 * n:]) & probed
        best = np.where(ok, mid, best)
        lo, hi = np.where(ok, mid, lo), np.where(ok, hi, mid)
    return best


def _shrinking_witness(g: Gauge, boundary: float, resolution: float,
                       above: bool):
    """The first violating sample of each of 8 windows shrinking toward
    ``boundary``, each half as wide as the last, or None when some window
    holds none.  ``above=False`` scans (boundary-w, boundary) for values
    below ``boundary``; ``above=True`` scans (boundary, boundary+w) for
    values above it, beyond CLASS_TOL.  One evaluation serves all windows,
    sampled as the bisection samples its own.
    """
    w = np.ldexp(max(0.5 * boundary, 0.25) if above else 0.5 * boundary,
                 -np.arange(8))
    edge = np.full(8, boundary)
    lo, hi = (edge, edge + w) if above else (edge - w, edge)
    width = hi - lo
    k = _sample_counts(width, resolution)
    taus, starts = _ragged(lo, width / k, k)
    vals = g.eval(taus)
    bad = vals > boundary + CLASS_TOL if above else vals < boundary - CLASS_TOL
    first = np.minimum.reduceat(np.where(bad, np.arange(bad.size), bad.size), starts)
    if (first == taus.size).any():
        return None
    return {"taus": taus[first].tolist(), "values": vals[first].tolist()}


def _check_threshold_class(g: Gauge, grid, resolution: float,
                           class_tag: ClassTag) -> MembershipCertificate:
    """Psi1 or Phi1: bisect every grid threshold in lockstep, then read the
    records in grid order up to the first non-member threshold."""
    phi = class_tag is ClassTag.PHI1
    key, value_key = ("epsilon", "delta") if phi else ("r", "rho")
    x = np.array(grid, dtype=float)
    try:
        found = _bisect_grid(g, x, resolution, phi).__getitem__
    except Exception:
        # whatever the gauge raised, search one threshold at a time sampling
        # every window, so an error surfaces only where the reading reaches it
        def found(i):
            return _bisect_grid(g, x[i:i + 1], resolution, phi, False)[0]
    records, witness, verdict = [], None, Verdict.MEMBER
    for i, v in enumerate(grid):
        best = found(i)
        if not np.isnan(best):
            records.append({key: v, value_key: float(best)})
            continue
        seq = _shrinking_witness(g, v if phi else 1.0 - v, resolution, above=phi)
        if seq is not None:
            witness = {key: v, **seq}
            verdict = Verdict.NON_MEMBER
            break
        verdict = Verdict.INCONCLUSIVE
        records.append({key: v, value_key: None})
    return MembershipCertificate(g.name, class_tag, verdict, tuple(grid),
                                 resolution, records, witness)


def _fall(tau, next_tau, value, next_value) -> dict:
    return {"reason": "not nondecreasing", "tau": float(tau),
            "next_tau": float(next_tau),
            "values": [float(value), float(next_value)]}


def _check_psi(g: Gauge, grid, resolution: float) -> MembershipCertificate:
    taus = np.arange(resolution, 1.0, resolution)
    vals = g.eval(taus)
    cert = MembershipCertificate(g.name, ClassTag.PSI, Verdict.MEMBER,
                                 tuple(grid), resolution)

    diffs = np.diff(vals)
    below = np.nonzero(diffs < -CLASS_TOL)[0]
    if below.size:
        i = int(below[0])
        cert.verdict = Verdict.NON_MEMBER
        cert.witness = _fall(taus[i], taus[i + 1], vals[i], vals[i + 1])
        return cert

    not_above = np.nonzero(vals <= taus + CLASS_TOL)[0]
    if not_above.size:
        i = int(not_above[0])
        cert.verdict = Verdict.NON_MEMBER
        cert.witness = {"reason": "psi(tau) > tau fails", "tau": float(taus[i]),
                        "value": float(vals[i])}
        return cert

    # Continuity: an increment of at least the resolution is halved, each
    # half kept while it is still that large, down to adjacent doubles.  A
    # part that keeps its size there is a jump; a half that falls shows the
    # gauge decreasing.  The first grid increment that does either gives the
    # witness, so the search drops the parts of every later one.  The parts
    # (lo, hi) stay in tau order, each with the grid increment it came from.
    first = diffs.size
    own = np.flatnonzero(diffs >= resolution - CLASS_TOL)
    lo, hi, vlo, vhi = taus[own], taus[own + 1], vals[own], vals[own + 1]
    while own.size:
        mid = 0.5 * (lo + hi)
        tips = own[(mid == lo) | (mid == hi)]
        if tips.size and tips[0] < first:
            first = int(tips[0])
            cert.witness = {"reason": "discontinuity",
                            "tau": float(taus[first + 1]),
                            "jump": float(diffs[first])}
        vmid = g.eval(mid)
        # a tip's halves are a point and itself, which the keep drops with
        # every part of a later increment
        own, lo, hi, vlo, vhi = (np.column_stack(pair).ravel() for pair in (
            (own, own), (lo, mid), (mid, hi), (vlo, vmid), (vmid, vhi)))
        inc = vhi - vlo
        falls = np.flatnonzero(inc < -CLASS_TOL)
        if falls.size and own[falls[0]] < first:
            j = falls[0]
            first = int(own[j])
            cert.witness = _fall(lo[j], hi[j], vlo[j], vhi[j])
        keep = np.flatnonzero((inc >= resolution - CLASS_TOL) & (own < first))
        own, lo, hi, vlo, vhi = (v[keep] for v in (own, lo, hi, vlo, vhi))
    if cert.witness is not None:
        cert.verdict = Verdict.NON_MEMBER
        return cert
    cert.records = [{"checked": ["nondecreasing", "strictly above identity",
                                 "continuity"]}]
    return cert


def _check_h(g: Gauge, grid, resolution: float) -> MembershipCertificate:
    taus = np.arange(resolution, 1.0 + resolution / 2, resolution)
    vals = g.eval(np.minimum(taus, 1.0))
    cert = MembershipCertificate(g.name, ClassTag.H, Verdict.MEMBER,
                                 tuple(grid), resolution)
    inc = np.nonzero(np.diff(vals) >= -CLASS_TOL)[0]
    if inc.size:
        i = int(inc[0])
        cert.verdict = Verdict.NON_MEMBER
        cert.witness = {"reason": "not strictly decreasing",
                        "tau": float(taus[i]), "next_tau": float(taus[i + 1])}
        return cert
    if abs(g.eval(1.0)) > 1e-9:
        cert.verdict = Verdict.NON_MEMBER
        cert.witness = {"reason": "eta(1) != 0", "value": g.eval(1.0)}
        return cert
    top, inner = g.eval(float(taus[0])), g.eval(float(min(100 * taus[0], 1.0)))
    if top < max(5.0, 1.5 * inner):
        cert.verdict = Verdict.INCONCLUSIVE
        cert.witness = {"reason": "unbounded growth not evident at resolution",
                        "value_at_min_tau": top}
    return cert


# The psi and h checks evaluate the gauge on one dense tau grid, about
# 1/tau_resolution samples in (0, 1); a resolution needing more samples than
# this is refused rather than allocated.
MAX_DENSE_TAU_SAMPLES = 10**6


def class_membership(g: Gauge, class_tag: ClassTag,
                     r_grid: Optional[Sequence[float]] = None,
                     tau_resolution: float = DEFAULT_TAU_RESOLUTION,
                     ) -> MembershipCertificate:
    """Certify gauge membership for one of the classes Phi1, Psi, Psi1, H.

    For Psi1 the check searches, per grid threshold r, a rho in (r,1) by
    bisection such that every sampled tau in (1-rho, 1-r) satisfies
    psi(tau) >= 1-r; Phi1 runs the dual search for delta > epsilon.  The
    grid thresholds are bisected in lockstep, at most one gauge evaluation
    per step, and give the records of a per-threshold bisection, read in
    grid order up to the first non-member.  A window whose sample next to
    its moving end fails one step ahead is rejected unsampled.  The whole
    grid is searched before that reading, so a gauge rejected at its first
    threshold still bisects all of them.  If the gauge raises, the
    thresholds are searched again one at a time with every window sampled,
    and the error surfaces only at a threshold the reading reaches.  An
    error only inside a rejected window, away from its end sample, goes
    unseen; the gauge ids raise, if at all, on a ray that holds the end
    sample (an overflowing power, an underflowing generator).
    Psi checks nondecreasing, strictly-above-identity and continuity: an
    increment of at least ``tau_resolution`` between grid samples that
    keeps that size while halved down to adjacent doubles is a jump.  H
    checks the generator-family shape.  Psi and H refuse a resolution finer
    than ``MAX_DENSE_TAU_SAMPLES`` samples allow, and Psi1, Phi1 and Psi an
    empty grid.
    """
    if not tau_resolution > 0:
        raise DomainError("tau_resolution must be positive")
    # np.arange(r, 1, r) holds ceil(quotient) samples; NaN when r is inf
    quotient = (1.0 - tau_resolution) / tau_resolution
    if not quotient > 1:
        # the checks sample tau on this grid; one sample is no evidence
        raise DomainError(f"tau_resolution {tau_resolution!r} leaves fewer "
                          f"than two tau samples in (0, 1)")
    if (class_tag in (ClassTag.PSI, ClassTag.H)
            and quotient > MAX_DENSE_TAU_SAMPLES):
        raise DomainError(f"tau_resolution {tau_resolution!r} needs more than "
                          f"{MAX_DENSE_TAU_SAMPLES} tau samples in (0, 1)")
    if class_tag in (ClassTag.PSI1, ClassTag.PSI):
        if g.domain is not GaugeDomain.PSI:
            raise DomainError(f"{g.name} is not psi-style")
        grid = threshold_grid(r_grid)
        if class_tag is ClassTag.PSI1:
            return _check_threshold_class(g, grid, tau_resolution, class_tag)
        return _check_psi(g, grid, tau_resolution)
    if class_tag is ClassTag.PHI1:
        if g.domain is not GaugeDomain.PHI:
            raise DomainError(f"{g.name} is not phi-style")
        grid = clamp_positive_grid(r_grid if r_grid is not None else DEFAULT_EPS_GRID)
        return _check_threshold_class(g, grid, tau_resolution, class_tag)
    if class_tag is ClassTag.H:
        if g.domain is not GaugeDomain.ETA:
            raise DomainError(f"{g.name} is not eta-style")
        grid = tuple(r_grid) if r_grid is not None else ()
        return _check_h(g, grid, tau_resolution)
    raise DomainError(f"unknown class tag {class_tag!r}")
