"""Triangular norms and gauge-function classes.

The module provides:

* continuous t-norms on [0,1] with a sampled axiom checker,
* the three gauge families used by the contraction classifiers
  (phi-style gauges on [0,inf), psi-style gauges on (0,1], and eta-style
  generators, i.e. strictly decreasing bijections (0,1] -> [0,inf)),
* conjugation between the phi and psi families through a generator,
* grid-based class-membership certification for the classes Phi1, Psi,
  Psi1 and the generator family H.

Every gauge evaluates a float to a float and an ndarray elementwise to an
ndarray, with the same domain checks on both; the class checks make one
call per sample window.

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


class InversionError(RuntimeError):
    """Raised when a generator cannot be inverted on the bracketing interval."""


# ---------------------------------------------------------------------------
# t-norms
# ---------------------------------------------------------------------------

class TNormKind(Enum):
    PRODUCT = "product"
    MINIMUM = "minimum"
    LUKASIEWICZ = "lukasiewicz"
    HAMACHER = "hamacher"
    CUSTOM = "custom"


def _hamacher(a, b):
    den = a + b - a * b
    return np.where(den > 0.0, a * b / np.where(den > 0.0, den, 1.0), 0.0)


@dataclass(frozen=True)
class TNorm:
    """A binary operation on [0,1]; ``fn`` must accept scalars or arrays."""

    kind: TNormKind
    fn: Callable
    positive: bool

    def apply(self, a, b):
        return self.fn(a, b)

    @classmethod
    def product(cls) -> "TNorm":
        return cls(TNormKind.PRODUCT, lambda a, b: a * b, positive=True)

    @classmethod
    def minimum(cls) -> "TNorm":
        return cls(TNormKind.MINIMUM, np.minimum, positive=True)

    @classmethod
    def lukasiewicz(cls) -> "TNorm":
        return cls(TNormKind.LUKASIEWICZ, lambda a, b: np.maximum(0.0, a + b - 1.0),
                   positive=False)

    @classmethod
    def hamacher(cls) -> "TNorm":
        return cls(TNormKind.HAMACHER, _hamacher, positive=True)

    @classmethod
    def custom(cls, fn: Callable, positive: bool = False) -> "TNorm":
        return cls(TNormKind.CUSTOM, fn, positive=positive)


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


def tnorm_apply(norm: TNorm, a: float, b: float) -> float:
    """Apply a t-norm to two unit-interval values with domain validation."""
    for v in (a, b):
        if not 0.0 <= v <= 1.0:
            raise DomainError(f"t-norm argument {v!r} outside [0,1]")
    return float(norm.apply(a, b))


TNORM_AXIOMS = ("identity", "commutativity", "monotonicity", "associativity",
                "positivity")


@dataclass
class AxiomResult:
    name: str
    passed: bool
    witness: Optional[dict] = None

    def to_dict(self) -> dict:
        return {"name": self.name, "passed": self.passed, "witness": self.witness}


@dataclass
class TNormAxiomReport:
    kind: str
    samples: int
    seed: int
    results: list[AxiomResult]

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results)

    def result(self, name: str) -> AxiomResult:
        for r in self.results:
            if r.name == name:
                return r
        raise KeyError(name)

    def to_dict(self) -> dict:
        return {"kind": self.kind, "samples": self.samples, "seed": self.seed,
                "passed": self.passed,
                "axioms": [r.to_dict() for r in self.results]}


# Probe points guarantee reproducible witnesses independent of the seed.
_PROBE = tuple(i / 10 for i in range(11))


def tnorm_axiom_check(norm: TNorm, samples: int = 1000, seed: int = 0,
                      tol: float = 1e-9) -> TNormAxiomReport:
    """Check the t-norm axioms on a fixed probe grid plus seeded random tuples.

    Reports pass/fail per axiom (identity, commutativity, monotonicity,
    associativity, positivity) with the first witness found.  Deterministic
    given ``seed``.
    """
    if samples < 1:
        raise DomainError("samples must be >= 1")
    rng = np.random.default_rng(seed)
    pairs = [(a, b) for a in _PROBE for b in _PROBE]
    pairs += [tuple(v) for v in rng.random((samples, 2))]
    triples = [(a, b, c) for a in _PROBE[::2] for b in _PROBE[::2] for c in _PROBE[::2]]
    triples += [tuple(v) for v in rng.random((samples, 3))]

    identity = AxiomResult("identity", True)
    comm = AxiomResult("commutativity", True)
    mono = AxiomResult("monotonicity", True)
    assoc = AxiomResult("associativity", True)
    pos = AxiomResult("positivity", True)

    for a, b in pairs:
        va = float(norm.apply(a, 1.0))
        if identity.passed and abs(va - a) > tol:
            identity.passed = False
            identity.witness = {"a": a, "value": va}
        ab = float(norm.apply(a, b))
        ba = float(norm.apply(b, a))
        if comm.passed and abs(ab - ba) > tol:
            comm.passed = False
            comm.witness = {"a": a, "b": b, "ab": ab, "ba": ba}
        if pos.passed and norm.positive is not None and a > 0 and b > 0 and ab <= 0.0:
            pos.passed = False
            pos.witness = {"a": a, "b": b, "value": ab}

    for a, b, c in triples:
        # monotone in each argument: compare (a,b) against (max(a,c), b)
        lo, hi = min(a, c), max(a, c)
        if mono.passed and float(norm.apply(lo, b)) > float(norm.apply(hi, b)) + tol:
            mono.passed = False
            mono.witness = {"a": lo, "c": hi, "b": b}
        left = float(norm.apply(norm.apply(a, b), c))
        right = float(norm.apply(a, norm.apply(b, c)))
        if assoc.passed and abs(left - right) > tol:
            assoc.passed = False
            assoc.witness = {"a": a, "b": b, "c": c, "left": left, "right": right}

    results = [identity, comm, mono, assoc, pos]
    return TNormAxiomReport(norm.kind.value, samples, seed, results)


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
        if isinstance(v, np.ndarray):
            if self.domain is GaugeDomain.PHI:
                bad = v < 0.0
            else:
                bad = ~((0.0 < v) & (v <= 1.0))    # NaN too, as for a float
            if bad.any():
                self.eval(float(v[bad][0]))        # raises the scalar error
            return np.asarray(self.fn(v), dtype=float)
        if self.domain is GaugeDomain.PHI:
            if v < 0.0:
                raise DomainError(f"{self.name}: argument {v!r} outside [0,inf)")
        else:
            if not 0.0 < v <= 1.0:
                raise DomainError(f"{self.name}: argument {v!r} outside (0,1]")
        return float(self.fn(v))



def _step_phi_fn(s):
    # The scalar branch stays beside the array one: the phi-step self-map
    # calls it on every orbit step, where numpy on one float costs about a
    # hundred times as much.  Both use the same float expressions, bit for bit.
    if isinstance(s, np.ndarray):
        # lanes of the special cases compute junk that np.select discards
        with np.errstate(all="ignore"):
            n = np.floor(1.0 / s)
            for _ in range(4):
                dec = (n > 1) & (s > 1.0 / n)
                inc = s <= 1.0 / (n + 1)
                n = n - dec + inc     # dec and inc never both hold
            return np.select([s == 0.0, s > 1.0, s < 1e-9],
                             [0.0, 1.0, s / (1.0 + s)], 1.0 / (n + 1))
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
    # most one step except at the far end where steps are sub-ulp
    with np.errstate(all="ignore"):
        n = np.maximum(np.floor(t / (1.0 - t)), 1.0)
        for _ in range(4):
            dec = (n > 1) & (t < n / (n + 1.0))
            inc = t >= (n + 1.0) / (n + 2.0)
            n = n - dec + inc     # dec and inc never both hold
        out = np.select([t == 1.0, t < 0.5], [1.0, 0.5], (n + 1.0) / (n + 2.0))
    return out if isinstance(tau, np.ndarray) else float(out)


def step_phi() -> Gauge:
    """Piecewise-constant distance gauge with steps 1/(n+1) on (1/(n+1), 1/n]."""
    return Gauge("step-phi", GaugeDomain.PHI, _step_phi_fn)


def step_psi() -> Gauge:
    """Piecewise-constant nearness gauge; discontinuous, jump 1/6 at 1/2."""
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
    return Gauge(f"power-phi:{p}", GaugeDomain.PHI, lambda s: s ** p)


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
    if "/" in text:
        return float(Fraction(text))
    return float(text)


def gauge(spec: str) -> Gauge:
    """Resolve a gauge by string id.

    Supported ids: ``step-phi``, ``step-psi``, ``power:<p>``, ``power-phi:<p>``,
    ``identity``, ``eta-reciprocal``, ``eta-reciprocal-t:<t>``, ``eta-neglog``
    and ``conj:<eta-id>:<gauge-id>`` for a conjugated gauge.  Numeric
    parameters accept fractions such as ``power:5/7``.
    """
    if spec == "step-phi":
        return step_phi()
    if spec == "step-psi":
        return step_psi()
    if spec == "identity":
        return identity_gauge()
    if spec == "eta-reciprocal":
        return eta_reciprocal()
    if spec == "eta-neglog":
        return eta_neglog()
    if spec.startswith("eta-reciprocal-t:"):
        return eta_reciprocal_t(_parse_number(spec.split(":", 1)[1]))
    if spec.startswith("power:"):
        return power_gauge(_parse_number(spec.split(":", 1)[1]))
    if spec.startswith("power-phi:"):
        return power_phi_gauge(_parse_number(spec.split(":", 1)[1]))
    if spec.startswith("conj:"):
        _, eta_id, g_id = spec.split(":", 2)
        return conjugate_gauge(gauge(eta_id), gauge(g_id))
    raise DomainError(f"unknown gauge id {spec!r}")


def invert_eta(eta: Gauge, y, tol: float = 1e-12):
    """Invert a generator at ``y >= 0``, a float or elementwise an ndarray;
    analytic when available, else bisection."""
    if eta.domain is not GaugeDomain.ETA:
        raise DomainError(f"{eta.name} is not an eta-style generator")
    if np.any(y < 0):
        raise DomainError(f"generator values are nonnegative, got {y!r}")
    array = isinstance(y, np.ndarray)
    if eta.inverse is not None:
        x = eta.inverse(y)
        return np.asarray(x, dtype=float) if array else float(x)
    flo, fhi = eta.eval(1e-15), eta.eval(1.0)
    if not flo > fhi:
        raise InversionError(f"{eta.name} is not strictly decreasing on the bracket")
    if np.any((y > flo) | (y < fhi)):
        raise InversionError(f"value {y!r} outside the bracketed range of {eta.name}")
    # one bracket per element; each stops when its own width reaches tol
    lo, hi = np.full(np.shape(y), 1e-15), np.ones(np.shape(y))
    while (live := hi - lo > tol).any():
        mid = 0.5 * (lo + hi)
        above = eta.eval(mid) > y
        lo = np.where(live & above, mid, lo)
        hi = np.where(live & ~above, mid, hi)
    x = 0.5 * (lo + hi)
    return x if array else float(x)


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
    note: str = CERTIFICATE_NOTE

    @property
    def is_member(self) -> bool:
        return self.verdict is Verdict.MEMBER

    def record_for(self, r: float) -> Optional[dict]:
        for rec in self.records:
            if rec.get("r") == r or rec.get("epsilon") == r:
                return rec
        return None

    def to_dict(self) -> dict:
        return {"gauge": self.gauge_name, "class": self.class_tag.value,
                "verdict": self.verdict.value, "grid": list(self.grid),
                "tau_resolution": self.tau_resolution,
                "records": self.records, "witness": self.witness,
                "note": self.note}


def _interval_samples(lo: float, hi: float, resolution: float) -> np.ndarray:
    """Midpoint samples strictly inside the open interval (lo, hi).

    The count is capped: full resolution matters only near the accept
    boundary of a bisection, where the interval is already narrow.
    """
    width = hi - lo
    k = int(min(max(math.ceil(width / resolution), 16), 512))
    return lo + (np.arange(k) + 0.5) * (width / k)


def _psi1_holds(g: Gauge, r: float, rho: float, resolution: float) -> bool:
    taus = _interval_samples(1.0 - rho, 1.0 - r, resolution)
    return not (g.eval(taus) < (1.0 - r) - CLASS_TOL).any()


def _phi1_holds(g: Gauge, eps: float, delta: float, resolution: float) -> bool:
    return not (g.eval(_interval_samples(eps, delta, resolution))
                > eps + CLASS_TOL).any()


def _bisect_threshold(holds, lo: float, hi: float):
    """Largest accepted value in (lo, hi) for a downward-monotone predicate."""
    best = None
    for _ in range(BISECT_ITERS):
        mid = 0.5 * (lo + hi)
        if holds(mid):
            best = mid
            lo = mid
        else:
            hi = mid
    return best


def _shrinking_witness(g: Gauge, boundary: float, bound: float, resolution: float,
                       above: bool, steps: int = 8):
    """Violating samples in intervals shrinking toward ``boundary``.

    Returns the sample list when every shrinking interval contains one,
    otherwise None.  ``above=False`` scans intervals (boundary-w, boundary)
    for values below ``bound``; ``above=True`` scans (boundary, boundary+w)
    for values above it.
    """
    width = 0.5 * boundary if not above else max(0.5 * boundary, 0.25)
    taus, values = [], []
    for k in range(steps):
        w = width * 2.0 ** (-k)
        lo, hi = (boundary - w, boundary) if not above else (boundary, boundary + w)
        samples = _interval_samples(lo, hi, resolution)
        vals = g.eval(samples)
        bad = vals < bound - CLASS_TOL if not above else vals > bound + CLASS_TOL
        if not bad.any():
            return None
        i = int(bad.argmax())
        taus.append(float(samples[i]))
        values.append(float(vals[i]))
    return {"taus": taus, "values": values}


def _check_psi1(g: Gauge, grid, resolution: float) -> MembershipCertificate:
    records, witness = [], None
    verdict = Verdict.MEMBER
    for r in grid:
        # a certified rho must exceed r by at least the sampling resolution,
        # otherwise any gauge would pass vacuously on a sub-resolution interval
        rho = _bisect_threshold(
            lambda rho: _psi1_holds(g, r, rho, resolution),
            min(r + resolution, 1.0 - ENDPOINT_CLAMP), 1.0 - ENDPOINT_CLAMP)
        if rho is not None:
            records.append({"r": r, "rho": rho})
            continue
        seq = _shrinking_witness(g, 1.0 - r, 1.0 - r, resolution, above=False)
        if seq is not None:
            witness = {"r": r, **seq}
            verdict = Verdict.NON_MEMBER
            break
        verdict = Verdict.INCONCLUSIVE
        records.append({"r": r, "rho": None})
    return MembershipCertificate(g.name, ClassTag.PSI1, verdict, tuple(grid),
                                 resolution, records, witness)


def _check_phi1(g: Gauge, grid, resolution: float) -> MembershipCertificate:
    records, witness = [], None
    verdict = Verdict.MEMBER
    for eps in grid:
        hi = eps + max(1.0, eps)
        delta = _bisect_threshold(
            lambda d: _phi1_holds(g, eps, d, resolution),
            eps + resolution, hi)
        if delta is not None:
            records.append({"epsilon": eps, "delta": delta})
            continue
        seq = _shrinking_witness(g, eps, eps, resolution, above=True)
        if seq is not None:
            witness = {"epsilon": eps, **seq}
            verdict = Verdict.NON_MEMBER
            break
        verdict = Verdict.INCONCLUSIVE
        records.append({"epsilon": eps, "delta": None})
    return MembershipCertificate(g.name, ClassTag.PHI1, verdict, tuple(grid),
                                 resolution, records, witness)


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
        cert.witness = {"reason": "not nondecreasing", "tau": float(taus[i]),
                        "next_tau": float(taus[i + 1]),
                        "values": [float(vals[i]), float(vals[i + 1])]}
        return cert

    not_above = np.nonzero(vals <= taus + CLASS_TOL)[0]
    if not_above.size:
        i = int(not_above[0])
        cert.verdict = Verdict.NON_MEMBER
        cert.witness = {"reason": "psi(tau) > tau fails", "tau": float(taus[i]),
                        "value": float(vals[i])}
        return cert

    # Continuity proxy: a jump must exceed both a global threshold derived
    # from a robust slope estimate and 8x its neighbouring increments.
    slope_est = max(1.0, float(np.median(diffs)) / resolution)
    macro = 10.0 * resolution * slope_est
    d = diffs[1:-1]
    neighbours = np.maximum(np.maximum(diffs[:-2], diffs[2:]), resolution)
    jumps = np.nonzero((d > macro) & (d > 8.0 * neighbours))[0]
    if jumps.size:
        i = int(jumps[0]) + 1
        cert.verdict = Verdict.NON_MEMBER
        cert.witness = {"reason": "discontinuity", "tau": float(taus[i + 1]),
                        "jump": float(diffs[i])}
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


def class_membership(g: Gauge, class_tag: ClassTag,
                     r_grid: Optional[Sequence[float]] = None,
                     tau_resolution: float = DEFAULT_TAU_RESOLUTION,
                     ) -> MembershipCertificate:
    """Certify gauge membership for one of the classes Phi1, Psi, Psi1, H.

    For Psi1 the check searches, per grid threshold r, a rho in (r,1) by
    bisection such that every sampled tau in (1-rho, 1-r) satisfies
    psi(tau) >= 1-r; Phi1 runs the dual search for delta > epsilon.  Psi
    checks nondecreasing, strictly-above-identity and a documented
    continuity proxy.  H checks the generator-family shape.
    """
    if tau_resolution <= 0:
        raise DomainError("tau_resolution must be positive")
    if class_tag in (ClassTag.PSI1, ClassTag.PSI):
        if g.domain is not GaugeDomain.PSI:
            raise DomainError(f"{g.name} is not psi-style")
        grid = threshold_grid(r_grid)
        if class_tag is ClassTag.PSI1:
            return _check_psi1(g, grid, tau_resolution)
        return _check_psi(g, grid, tau_resolution)
    if class_tag is ClassTag.PHI1:
        if g.domain is not GaugeDomain.PHI:
            raise DomainError(f"{g.name} is not phi-style")
        grid = clamp_positive_grid(r_grid if r_grid is not None else DEFAULT_EPS_GRID)
        return _check_phi1(g, grid, tau_resolution)
    if class_tag is ClassTag.H:
        if g.domain is not GaugeDomain.ETA:
            raise DomainError(f"{g.name} is not eta-style")
        grid = tuple(r_grid) if r_grid is not None else ()
        return _check_h(g, grid, tau_resolution)
    raise DomainError(f"unknown class tag {class_tag!r}")
