"""Analytic a-priori bounds on the bond oscillation, and their checker.

Two families of constants are evaluated.  The short-time family controls
(omega, eta) while the bond stays in a band around the midpoint: a
Gronwall pair (C1, C2) built from a linear majorant of the bond force,
the phase and displacement bounds they imply, and the largest horizon t0
for which trajectories started in the band provably stay in the wider
half-band.  The long-time family controls excursions beyond the balance
points: a linear-in-time bound inside the chaotic interval, an energy
envelope on each excursion, and, through the potential inverse, a global
envelope plus a confinement interval for the bond length over any
horizon.

The certificate states t0 alone of the short-time family, as the horizon
of local existence; its excursion pair keeps the names ``C1_exc`` and
``C2_exc`` of ``global_envelope``.

``certify`` replays a sampled trajectory against a certificate.  The
certificate never consumes path data for its constants (no circularity):
it is built from the initial support box and the force model alone.
A nonpositive excursion denominator raises InvalidCError rather than
giving a vacuous constant.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from functools import cached_property

import numpy as np

from . import hooke as _hooke
from .errors import InvalidCError, NoConfinementError, RangeError
from .hooke import BalancePoints, Branch, HookeModel
from .trajectory import EventKind, TrajectoryPath

__all__ = [
    "BoundParameters",
    "BoundCertificate",
    "CertReport",
    "gronwall_constants",
    "phase_bound",
    "displacement_bound",
    "confinement_time",
    "excursion_envelope",
    "chaotic_bound",
    "global_envelope",
    "omega_confinement",
    "certificate_parameters",
    "build_certificate",
    "certify",
]

DEFAULT_SLACK = 1e-6


@dataclass(frozen=True)
class BoundParameters:
    """Inputs every bound depends on.

    epsilon   bond domain length;
    epsilon0  initial band margin, 0 < 2*epsilon0 < epsilon;
    R         bound on |eta| (and |v|) over the initial support;
    C_minus   uniform bound on the difference field along trajectories;
    C         large field constant for the excursion analysis (must
              dominate sup|F+-|);
    model     the bonding-force law.

    ``balance`` (the balance points at level C) and ``I_M`` (the potential
    at omega_M) are derived once, on first use.
    """

    epsilon: float
    epsilon0: float
    R: float
    C_minus: float
    C: float
    model: HookeModel

    def __post_init__(self):
        # equality 2*epsilon0 == epsilon degenerates the initial interval
        # to the midpoint but leaves every formula well-defined
        if not (0.0 < 2.0 * self.epsilon0 <= self.epsilon):
            raise InvalidCError(
                f"need 0 < 2*epsilon0 <= epsilon, got epsilon0={self.epsilon0!r}")
        if not (self.R > 0.0 and self.C_minus >= 0.0 and self.C > 0.0):
            raise InvalidCError("need R > 0, C_minus >= 0, C > 0")
        if abs(self.model.epsilon - self.epsilon) > 1e-12 * self.epsilon:
            raise InvalidCError("model epsilon disagrees with parameters")

    @cached_property
    def balance(self) -> BalancePoints:
        return _hooke.balance_points(self.model, self.C)

    @cached_property
    def I_M(self) -> float:
        return _hooke.potential_to_midpoint(self.model, self.balance.omega_M)


def gronwall_constants(p: BoundParameters) -> tuple[float, float]:
    """(C1, C2) of the band Gronwall estimate:
    C1 = max{1, 2|Fh(eps0/2)/(eps0-eps)|},  C2 = C_minus + (eps/2) C1."""
    f_half = _hooke.force(p.model, 0.5 * p.epsilon0)
    c1 = max(1.0, 2.0 * abs(f_half / (p.epsilon0 - p.epsilon)))
    c2 = p.C_minus + 0.5 * p.epsilon * c1
    return c1, c2


def phase_bound(p: BoundParameters, omega: float, eta: float, t: float) -> float:
    """Bound on |Omega(t)| + |H(t)| under the band hypotheses:
    e^{C1 t}(|omega|+|eta|) + C2 (e^{C1 t}-1)/C1."""
    if t < 0.0:
        raise RangeError("t must be nonnegative")
    c1, c2 = gronwall_constants(p)
    e = math.exp(c1 * t)
    return e * (abs(omega) + abs(eta)) + c2 * (e - 1.0) / c1


def displacement_bound(p: BoundParameters, omega: float, eta: float, s: float) -> float:
    """Bound on |Omega(s) - Omega(0)|; exactly s times the phase bound."""
    if s < 0.0:
        raise RangeError("s must be nonnegative")
    return s * phase_bound(p, omega, eta, s)


def confinement_time(p: BoundParameters) -> float:
    """Largest t0 with displacement_bound(p, eps, R, s) below eps0/4 on
    [0, t0]; trajectories started in [eps0, eps-eps0] x [-R, R] then stay
    in the eps0/2 band up to t0.

    The defining function is strictly increasing from 0, so a bracketing
    bisection on it always succeeds; a probe where it overflows (exp(C1 s)
    for C1 s above about 709) is past the target.
    """
    def f(s: float) -> float:
        try:
            return displacement_bound(p, p.epsilon, p.R, s)
        except OverflowError:
            return math.inf

    target = 0.25 * p.epsilon0 * (1.0 - 1e-12)
    # [0, 1] brackets t0: C1 >= 1 gives f(1) >= e * eps > eps0 / 4.
    lo, hi = 0.0, 1.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if hi - lo <= 1e-15 * max(1.0, hi):
            break
        if f(mid) < target:
            lo = mid
        else:
            hi = mid
    return lo


def excursion_envelope(H1: float, p) -> float:
    """Peak |eta| during one excursion past a balance point:
    sqrt(H1**2 + 4 eps C).  ``p`` is any object with ``epsilon`` and ``C``
    (parameters or a certificate)."""
    return math.sqrt(H1 ** 2 + 4.0 * p.epsilon * p.C)


def chaotic_bound(H1: float, t_minus_t1, C: float):
    """Linear-in-time bound 2C(t - t1) + |H1| valid while the bond stays
    between the balance points; ``t_minus_t1`` may be an array of elapsed
    times."""
    if np.min(t_minus_t1) < 0.0:
        raise RangeError("elapsed time must be nonnegative")
    return 2.0 * C * t_minus_t1 + abs(H1)


def global_envelope(p: BoundParameters, eta_M: float, T: float) -> tuple[float, float, float]:
    """(C1_exc, C2_exc, envelope) of the horizon-T speed bound.

    C1_exc = 2 eps C / (hinv(eps C + I_M) - Omega_M), C2_exc = max{2C, C1_exc},
    envelope = excursion_envelope(C2_exc T + eta_M).
    """
    if T < 0.0:
        raise RangeError("T must be nonnegative")
    level = p.epsilon * p.C + p.I_M
    try:
        den = _hooke.inverse_potential(p.model, level, Branch.RIGHT) - p.balance.omega_M
    except RangeError as exc:
        raise InvalidCError(f"potential never reaches the excursion level: {exc}") from exc
    if den <= 0.0:
        raise InvalidCError("excursion denominator nonpositive; increase C")
    c1 = 2.0 * p.epsilon * p.C / den
    c2 = max(2.0 * p.C, c1)
    return c1, c2, excursion_envelope(c2 * T + eta_M, p)


def omega_confinement(p: BoundParameters, omega0: float, eta_M: float,
                      T: float) -> tuple[float, float]:
    """Confinement interval for the bond length over [0, T].

    The potential level B = C T * envelope + U(omega0) + eta_M**2/2 caps
    U(Omega(t)); inverting U on both branches yields the interval.  Raises
    NoConfinementError when a finite-well model never reaches B.
    """
    _, _, env = global_envelope(p, eta_M, T)
    level = p.C * T * env + _hooke.potential_to_midpoint(p.model, omega0) \
        + 0.5 * eta_M * eta_M
    try:
        lo = _hooke.inverse_potential(p.model, level, Branch.LEFT)
        hi = _hooke.inverse_potential(p.model, level, Branch.RIGHT)
    except RangeError as exc:
        raise NoConfinementError(
            f"potential never reaches level {level!r}; no confinement interval") from exc
    return lo, hi


@dataclass(frozen=True)
class BoundCertificate:
    """All analytic constants for a given initial support box and horizon.

    t0, the stated horizon of local existence, comes from the short-time
    analysis; the excursion pair (C1_exc, C2_exc), the speed envelope and
    the bond confinement interval from the long-time analysis.
    x_bound/v_bound are the elementary horizon bounds on |x| and |v|.
    """

    epsilon: float
    T: float
    C: float
    C_minus: float
    t0: float
    balance: BalancePoints
    I_M: float
    C1_exc: float
    C2_exc: float
    eta_M: float
    H_envelope: float
    omega_confinement: tuple[float, float]
    x_bound: float
    v_bound: float
    support_box: tuple = ()

    def to_dict(self) -> dict:
        return asdict(self)

    def to_json(self, **kw) -> str:
        return json.dumps(self.to_dict(), **kw)

    @classmethod
    def from_dict(cls, d: dict) -> "BoundCertificate":
        d = {**d, "balance": BalancePoints(**d["balance"]),
             "omega_confinement": tuple(d["omega_confinement"]),
             "support_box": tuple(d.get("support_box", ()))}
        # An older run's manifest also holds C1, C2 and I_m: no check read them.
        return cls(**{k: v for k, v in d.items() if k not in ("C1", "C2", "I_m")})


def certificate_parameters(model: HookeModel, box, mass: float | None = None,
                           c_safety: float = 1.5, **given) -> BoundParameters:
    """Parameters of the certificate for an initial support ``box``
    (ordered as in ``build_certificate``) carrying total mass ``mass``.

    epsilon0 is the box's clearance from the walls, R its largest |v| or
    |eta|, C_minus = 2*mass the field bound and C = c_safety * max(2*mass,
    edge force): C must dominate both the field bound and the bond-force
    level at the support edges (else the support is not strictly between
    the balance points and the excursion analysis cannot anchor there).
    Values in ``given`` replace the derived ones; without a mass, C_minus
    and C must be given.
    """
    eps = model.epsilon
    p = {"epsilon0": min(box[4], eps - box[5], 0.49999 * eps),
         "R": max(abs(box[2]), abs(box[3]), abs(box[6]), abs(box[7]), 1e-9)}
    if mass is not None:
        edge = max(_hooke.force(model, box[4]), -_hooke.force(model, box[5]), 0.0)
        p.update(C_minus=2.0 * mass, C=c_safety * max(2.0 * mass, edge))
    p.update(given)
    return BoundParameters(epsilon=eps, model=model, **p)


def build_certificate(p: BoundParameters, support_box, T: float) -> BoundCertificate:
    """Assemble the full certificate for an initial support box.

    ``support_box`` is (x_lo, x_hi, v_lo, v_hi, omega_lo, omega_hi,
    eta_lo, eta_hi).  The constants depend only on the box and the force
    model, never on integrated data.  Requires the omega support to sit
    strictly between the balance points (the excursion analysis anchors
    its first event there); raises InvalidCError otherwise.
    """
    x_lo, x_hi, v_lo, v_hi, om_lo, om_hi, et_lo, et_hi = support_box
    balance = p.balance
    if not (balance.omega_m < om_lo and om_hi < balance.omega_M):
        raise InvalidCError(
            "omega support must lie strictly between the balance points; "
            f"got [{om_lo!r}, {om_hi!r}] vs ({balance.omega_m!r}, {balance.omega_M!r})")
    t0 = confinement_time(p)
    eta_M = max(abs(et_lo), abs(et_hi))
    c1e, c2e, env = global_envelope(p, eta_M, T)
    # The confinement level is driven by the worse potential endpoint.
    u_lo = _hooke.potential_to_midpoint(p.model, om_lo)
    u_hi = _hooke.potential_to_midpoint(p.model, om_hi)
    omega0 = om_lo if u_lo >= u_hi else om_hi
    x_m = max(abs(x_lo), abs(x_hi))
    v_m = max(abs(v_lo), abs(v_hi))
    return BoundCertificate(
        epsilon=p.epsilon, T=T, C=p.C, C_minus=p.C_minus, t0=t0, balance=balance,
        I_M=p.I_M, C1_exc=c1e, C2_exc=c2e, eta_M=eta_M, H_envelope=env,
        omega_confinement=omega_confinement(p, omega0, eta_M, T),
        x_bound=x_m + v_m * T + 0.5 * p.C * T * T,
        v_bound=v_m + p.C * T,
        support_box=tuple(support_box))


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    first_violation: int | None = None
    worst_margin: float = math.inf  # smallest (bound - value) seen
    note: str = ""

    def to_dict(self) -> dict:
        # The fields in order, as asdict gives them at a twentieth of its
        # cost (a seed report makes six per tracked seed).
        return dict(vars(self))


@dataclass(frozen=True)
class CertReport:
    checks: tuple[CheckResult, ...]
    slack: float

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_dict(self) -> dict:
        return {"passed": self.passed, "slack": self.slack,
                "checks": [c.to_dict() for c in self.checks]}


def _runs(mask: np.ndarray):
    """Maximal index runs where mask is true, as (start, stop) inclusive."""
    idx = np.nonzero(mask)[0]
    if idx.size == 0:
        return []
    cuts = np.nonzero(np.diff(idx) > 1)[0]
    starts = np.concatenate([[idx[0]], idx[cuts + 1]])
    stops = np.concatenate([idx[cuts], [idx[-1]]])
    return list(zip(starts.tolist(), stops.tolist()))


def _check(name: str, margin, note: str = "", at=None) -> CheckResult:
    """Pass when no ``margin`` entry (bound + slack - value) is negative.

    ``at`` maps each entry to its path sample (default: the entry's own
    index); the first violation is the first negative entry in order.
    """
    margin = np.asarray(margin, dtype=float)
    worst = float(margin.min()) if margin.size else math.inf
    first = None
    if not worst >= 0.0:  # a NaN minimum may hide negative entries
        bad = np.flatnonzero(margin < 0.0)
        if bad.size:
            first = int(bad[0] if at is None else at[bad[0]])
    return CheckResult(name=name, passed=first is None, first_violation=first,
                       worst_margin=worst, note=note)


def certify(path: TrajectoryPath, cert: BoundCertificate,
            slack: float = DEFAULT_SLACK) -> CertReport:
    """Verify every certificate inequality against a sampled trajectory.

    Checked sample by sample with the given absolute slack: the
    linear-in-time bound inside the chaotic interval (re-anchored at each
    entry), the per-excursion speed envelope across each exit/return pair,
    the global speed envelope, the bond confinement interval, and the
    work bound C*eps on every segment of constant eta sign.  The logged
    field norms must not exceed C (precondition of every bound).  The
    excursions are read from ``path.events``.
    """
    om = path.omega
    h = path.eta
    t = path.t

    # Precondition: the fields the path saw were within the certificate's C.
    pre_ok = path.max_field_norm <= cert.C + slack
    checks = [CheckResult(
        name="field_norm_precondition", passed=bool(pre_ok),
        first_violation=None if pre_ok else 0,
        worst_margin=cert.C - path.max_field_norm,
        note=f"max logged sup|F+-| = {path.max_field_norm!r}")]

    # Chaotic region: |H| <= 2C (t - t_entry) + |H(t_entry)| per inside-run.
    # The runs cover the inside samples in order.
    inside = (om > cert.balance.omega_m) & (om < cert.balance.omega_M)
    margins = [chaotic_bound(h[a], t[a:b + 1] - t[a], cert.C) + slack - np.abs(h[a:b + 1])
               for a, b in _runs(inside)]
    checks.append(_check("chaotic_bound", np.concatenate([np.empty(0), *margins]),
                         at=np.flatnonzero(inside)))

    # Excursions: pair each exit with the next return at the same boundary.
    spans = []
    open_exits: dict[str, object] = {}
    for ev in sorted(path.events, key=lambda e: e.time):
        if ev.kind is EventKind.EXIT_CHAOTIC and ev.boundary is not None:
            open_exits.setdefault(ev.boundary, ev)
        elif ev.kind is EventKind.RETURN_TIME and ev.boundary in open_exits:
            spans.append((open_exits.pop(ev.boundary), ev.time))
    n_pairs = len(spans)
    # An excursion still open at the end of the path is checked to the end,
    # after every pair.
    spans += [(ex, math.inf) for ex in open_exits.values()]
    at = [np.flatnonzero((t >= ex.time) & (t <= end)) for ex, end in spans]
    margins = [excursion_envelope(ex.state.eta, cert) + slack - np.abs(h[k])
               for (ex, _), k in zip(spans, at)]
    checks.append(_check("excursion_envelope", np.concatenate([np.empty(0), *margins]),
                         f"{n_pairs} exit/return pairs",
                         np.concatenate([np.empty(0, dtype=np.intp), *at])))

    checks.append(_check("global_envelope", cert.H_envelope + slack - np.abs(h)))
    lo, hi = cert.omega_confinement
    checks.append(_check("omega_confinement",
                         np.minimum(om - (lo - slack), (hi + slack) - om)))

    # Work bound on segments of constant eta sign, each reported at its
    # first sample.  Exact-zero samples are folded into the preceding
    # segment so mixed-sign merges cannot occur.
    sign = np.sign(h)
    nz = np.where(sign != 0.0, np.arange(sign.size), 0)
    np.maximum.accumulate(nz, out=nz)
    sign = sign[nz]
    stops = (np.nonzero(sign[:-1] * sign[1:] < 0.0)[0] + 1).tolist() + [len(h)]
    segs = [(a, b) for a, b in zip([0] + stops, stops) if b - 1 > a]
    work = [abs(float(np.trapezoid(h[a:b] * path.f_minus[a:b], t[a:b]))) for a, b in segs]
    checks.append(_check("work_bound", [cert.C * cert.epsilon + slack - w for w in work],
                         at=[a for a, _ in segs]))

    return CertReport(checks=tuple(checks), slack=slack)
