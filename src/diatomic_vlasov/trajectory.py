"""Characteristic integration for single states and lockstep bundles.

The flow is

    x' = v,   v' = Fp(t, x, omega),
    omega' = eta,   eta' = Fm(t, x, omega) + Fh(omega),

with (Fp, Fm) the sum/difference field pair and Fh the bond force.  One
step is a kick-drift-kick split: half-kicks apply the slow field pair,
the drift advances x linearly and the (omega, eta) pair under the bond
force alone.  Because the bond force diverges at the walls, the inner
(omega, eta) advance is sub-cycled: if |Fh|*dt exceeds the configured eta
scale, the pair takes m uniform velocity-Verlet substeps sized so each
substep respects the same bound, and under the tangent law as many as it
takes to resolve the stiffest local frequency the step can reach.  Rows
provably far enough from the walls skip that frequency count, because
their m is the impulse count alone.  A batch takes the first substep
of every row in numpy, then finishes each row that needs more alone in
the scalar step's substep loop, with the bond-force bits of numpy's
arrays, so batching changes no result.  A batch of one row, such as
``integrate``'s, steps in Python floats with those bits.  Every path
counts its substeps with the one wall term, ``_wall_substeps``.  A step
whose drift would leave the bond domain is retried at dt/2, down to
dt/2**10, with ``math.tan``; past that the step reports a blow-up
candidate instead of emitting an out-of-domain state.

Under a frozen smooth field the step is second order in dt, as velocity
Verlet is: on nine rows pushed to T = 0.5 the error falls 4.0x from
dt = 0.005 to 0.0025 (``tests/test_trajectory.py``).  At coarser steps
the substep counts change with dt, and the ratio reads 1.7-3.6.

The field is frozen for a whole call: any object with ``pm`` and
``norms``, such as a ``FieldSnapshot``, whose bucket table a batch
builds for the call alone (``integrate_batch``).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field as dc_field

import numpy as np

from . import hooke as _hooke
from .errors import DomainError, StepUnderflowError
from .field import FieldSnapshot, ParticleState, write_table
from .hooke import BalancePoints, HookeModel

__all__ = [
    "StepControl",
    "TrajectoryPath",
    "EventKind",
    "OscillationEvent",
    "integrate",
    "integrate_batch",
    "detect_events",
    "jacobian_estimate",
]

# Halvings allowed before a step reports underflow.
MAX_HALVINGS = 10
# Cap on inner substeps per step; beyond this the step is halved instead.
MAX_SUBSTEPS = 4096
# Fraction of the stiffest reachable local period one inner substep may span.
WALL_RESOLUTION = 0.05
# Relative head-room of the one-substep screen's travel bound (see
# _wall_substeps).
SCREEN_MARGIN = 1e-6
# Event-location tolerance as a fraction of dt.
EVENT_TIME_TOL_FACTOR = 1e-3


@dataclass(frozen=True)
class StepControl:
    """Integrator knobs.

    dt            base step; also the path sampling interval.
    eta_scale     bound on |Fh|*substep, the impulse one inner substep may
                  impart to eta; controls sub-cycling near the walls.
    event_eta_tol tangency threshold: |eta| below this at a balance-point
                  touch is classified as a turning event.
    """

    dt: float = 1e-3
    eta_scale: float = 0.25
    event_eta_tol: float = 1e-7

    def __post_init__(self):
        if not (self.dt > 0.0):
            raise DomainError("dt must be positive")
        if not (self.eta_scale > 0.0):
            raise DomainError("eta_scale must be positive")

    @property
    def event_time_tol(self) -> float:
        return EVENT_TIME_TOL_FACTOR * self.dt


class EventKind(enum.Enum):
    EXIT_CHAOTIC = "exit"
    STOPPING_TIME = "stopping"
    RETURN_TIME = "return"


@dataclass(frozen=True)
class OscillationEvent:
    kind: EventKind
    time: float
    state: ParticleState
    boundary: str | None = None  # "omega_m" | "omega_M" for balance events


@dataclass
class TrajectoryPath:
    """Sampled characteristic with per-sample force log and events.

    ``f_minus`` holds the difference field at each sample and
    ``max_field_norm`` the largest sup|F+-| among the snapshots used.
    """

    t: np.ndarray
    x: np.ndarray
    v: np.ndarray
    omega: np.ndarray
    eta: np.ndarray
    f_minus: np.ndarray
    max_field_norm: float
    control: StepControl
    events: list = dc_field(default_factory=list)

    def __len__(self) -> int:
        return self.t.size

    def state_at(self, i: int) -> ParticleState:
        return ParticleState(x=float(self.x[i]), v=float(self.v[i]),
                             omega=float(self.omega[i]), eta=float(self.eta[i]))

    def dump_csv(self, path, t=None) -> None:
        """Write t, x, v, omega, eta; ``t``, when given, is the t column
        as written, such as its strings formatted once for paths that
        share it."""
        write_table(path, ["t", "x", "v", "omega", "eta"],
                    [self.t if t is None else t, self.x, self.v, self.omega, self.eta])

    def dump_events_csv(self, path) -> None:
        evs = self.events
        write_table(path, ["t", "kind", "omega", "eta"],
                    [[e.time for e in evs], [e.kind.value for e in evs],
                     [e.state.omega for e in evs], [e.state.eta for e in evs]])


def _force_scalar(model: HookeModel, om: float, tan) -> float:
    if model.kind is _hooke.HookeKind.TANGENT:
        return -float(tan(math.pi / model.epsilon * (om - 0.5 * model.epsilon)))
    return float(model.force_fn(om))


def _substeps_scalar(model: HookeModel, om: float, e1: float, fh: float, dt: float,
                     control: StepControl) -> int:
    """``_substeps_batch`` for one row in Python floats; fh is the bond
    force at om.

    The impulse count and the one-substep screen use only ``*``, ``/``,
    sqrt, ceil and comparisons, so they give the batch's bits; a row the
    screen cannot clear takes its wall term from ``_wall_substeps`` on a
    one-row array.  A NaN or infinite count raises ValueError or
    OverflowError."""
    m = max(1, math.ceil(abs(fh) * abs(dt) / control.eta_scale))
    if model.kind is not _hooke.HookeKind.TANGENT:
        return int(m)
    eps = model.epsilon
    screen = _one_substep_threshold(eps, dt)
    if screen is not None:
        u_star, pot = screen
        # The travel bound of _substeps_batch, bit for bit.
        reach = math.sqrt(e1 * e1 + 2.0 * pot) * (abs(dt) * math.sqrt(1.0 + SCREEN_MARGIN))
        if min(om, eps - om) - u_star >= reach:
            return int(m)
    wall = _wall_substeps(model, np.array([om]), np.array([e1]), dt)[0]
    # Not max(m, wall): that returns m for a NaN wall term.
    return int(max(wall, m))


def _substep_loop(om, e, d, k0, m, tan, model: HookeModel, lo, hi, eta_scale):
    """Substeps k0 .. m-1 of one row's velocity-Verlet sub-cycle, in
    Python floats: each drifts omega by d*e, then kicks e with the bond
    force, a half kick on the last substep.  ``e`` enters with every
    kick before substep k0 applied.  Returns (omega, e), or None as soon
    as omega leaves (lo, hi) or |force|*|d| exceeds eta_scale.

    ``tan`` evaluates the tangent law: ``math.tan`` in the halving
    fallback, ``np.tan`` in ``_advance_batch``, where it gives the bits
    of its array substep 0.  A custom law is called on the float.
    """
    tangent = model.kind is _hooke.HookeKind.TANGENT
    # The forces of _force_scalar and _force_array, constants hoisted.
    c, mid = math.pi / model.epsilon, 0.5 * model.epsilon
    ad, last = abs(d), m - 1
    for k in range(k0, m):
        om += d * e
        if not (lo < om < hi):
            return None
        fh = -float(tan(c * (om - mid))) if tangent else float(model.force_fn(om))
        if abs(fh) * ad > eta_scale:
            return None
        e += (d if k < last else 0.5 * d) * fh
    return om, e


def _step_once(x, v, om, et, snap, model: HookeModel, dt, control: StepControl, pair, tan):
    """One step of one row in Python floats, as ``_advance_scalar``
    without halving: None where the step is rejected (more than
    MAX_SUBSTEPS substeps, or a substep leaves the bond domain or breaks
    the impulse bound).  ``tan`` evaluates the bond force: ``np.tan``
    for a lone row of ``_advance_batch``, giving the batch's bits, and
    ``math.tan`` in the halving fallback, whose bits the ``wall``
    references pin.  The substep count takes that opening force.
    """
    fp, fm = pair
    v1 = v + 0.5 * dt * fp
    e1 = et + 0.5 * dt * fm
    fh = _force_scalar(model, om, tan)
    m = _substeps_scalar(model, om, e1, fh, dt, control)
    if m > MAX_SUBSTEPS:
        return None
    d = dt / m
    lo, hi = model.domain
    done = _substep_loop(om, e1 + 0.5 * d * fh, d, 0, m, tan, model, lo, hi,
                         control.eta_scale)
    if done is None:
        return None
    om1, e1 = done
    x1 = x + dt * v1
    fp2, fm2 = snap.pm(x1, om1)
    return (x1, v1 + 0.5 * dt * fp2, om1, e1 + 0.5 * dt * fm2), (fp2, fm2)


def _advance_scalar(x, v, om, et, snap, model: HookeModel, dt, control: StepControl,
                    pair, depth: int = 0):
    """One kick-drift-kick step of one row; recursive halving on
    bond-domain exits.

    The contract of ``_advance_batch``: ``pair`` is the opening field pair
    (fp, fm) at (x, omega), and the result is ((x, v, omega, eta),
    (fp2, fm2)) with the closing pair at the new state.  A halved step
    opens its first half with its own pair and its second half with the
    first half's closing pair.  Each (half) step is ``_step_once`` with
    ``math.tan`` for its forces: the ``wall`` references pin the
    fallback's bits.
    """
    done = _step_once(x, v, om, et, snap, model, dt, control, pair, math.tan)
    if done is not None:
        return done
    if depth >= MAX_HALVINGS:
        raise StepUnderflowError(
            f"step underflow at dt={dt!r}: omega={om!r} keeps leaving the bond domain "
            "(blow-up candidate; by the global confinement result this indicates a "
            "discretization artifact)",
            state=ParticleState(x=x, v=v, omega=om, eta=et))
    half = 0.5 * dt
    state, pair = _advance_scalar(x, v, om, et, snap, model, half, control, pair, depth + 1)
    return _advance_scalar(*state, snap, model, half, control, pair, depth + 1)


def _time_grid(lo: float, hi: float, dt: float) -> list[float]:
    """Step targets across [lo, hi], in either direction: n equal steps of
    at most dt (to 1e-12 relative), the last landing exactly on hi.
    Raises DomainError when n is not finite."""
    n = abs(hi - lo) / dt - 1e-12
    if not math.isfinite(n):
        raise DomainError(f"cannot step from {lo!r} to {hi!r} in steps of at most {dt!r}")
    n = max(1, math.ceil(n))
    return [lo + k * (hi - lo) / n for k in range(1, n)] + [hi]


def integrate(state: ParticleState, field_provider, model: HookeModel,
              t0: float, t1: float, control: StepControl,
              balance: BalancePoints | None = None) -> TrajectoryPath:
    """Integrate one characteristic from t0 to t1 under the frozen field
    ``field_provider``, sampling every control.dt.

    This is ``integrate_batch`` on the one row [x, v, omega, eta] with
    ``record=True``, which steps in Python floats with the bits of that
    row in any batch.  The path records the difference field at each
    sample and the field's norm.  If ``balance`` is given, oscillation
    events are detected on the sampled path (sign-change location between
    samples).  Raises DomainError unless t1 > t0, and what
    ``integrate_batch`` raises.
    """
    if t1 <= t0:
        raise DomainError("t1 must exceed t0")
    _, ts, zs, fms = integrate_batch([[state.x, state.v, state.omega, state.eta]],
                                     field_provider, model, t0, t1, control, record=True)
    x, v, omega, eta = zs[:, 0].T
    path = TrajectoryPath(t=ts, x=x, v=v, omega=omega, eta=eta, f_minus=fms[:, 0],
                          max_field_norm=field_provider.norms()[1], control=control)
    if balance is not None:
        path.events = detect_events(path, balance)
    return path


def integrate_batch(states: np.ndarray, field_provider, model: HookeModel,
                    t0: float, t1: float, control: StepControl,
                    record: bool | slice = False):
    """Advance an (n, 4) array of states [x, v, omega, eta] in lockstep
    under the frozen field ``field_provider``.

    Forward (t1 > t0) or backward (t1 < t0).  Vectorized along the batch:
    each step kicks, counts substeps and takes the first substep of every
    member in numpy, and sub-cycles the rest of each member alone (see
    ``_advance_batch``); a row comes out bit-for-bit as it would alone,
    and a batch of one row steps in Python floats with those bits.
    Members whose step is rejected fall back to scalar halving with
    ``math.tan`` (the ``wall`` references pin its bits) for that step only,
    so lockstep sampling is preserved.  The field pair is
    queried once per call: a step's closing pair, taken at the states it
    returns, is the next step's opening pair, and its closing bond force
    is likewise the next step's opening force.  A ``FieldSnapshot`` is
    queried through ``field_provider.indexed(n, steps + 1)``: a copy
    with a bucket table when that many array queries pay for its build,
    which answers every query as the plain snapshot does, bit for bit.
    The copy is dropped when the call returns, so neither the snapshot
    passed in nor a history holding it keeps the table.  The state is
    held in an (n, 4) Fortran-order array, so each of its columns is
    contiguous.
    With ``record=True`` returns (final, t_samples, samples, f_minus)
    where samples has shape (n_samples, n, 4) and f_minus from the same
    pairs; a slice ``record=rows`` records copies of ``states[rows]``
    only.  Otherwise returns the final array.  t0 == t1 takes no step
    and gives one sample.  Raises DomainError, naming the first such
    row, if a row's omega is outside the bond domain or a coordinate is
    not finite.  A StepUnderflowError carries the start time of the
    failing step.
    """
    z = np.array(states, dtype=float, order="F")
    if z.ndim != 2 or z.shape[1] != 4:
        raise DomainError("states must be an (n, 4) array")
    lo, hi = model.domain
    bad = ~(np.isfinite(z).all(axis=1) & (z[:, 2] > lo) & (z[:, 2] < hi))
    if bad.any():
        i = int(bad.argmax())
        raise DomainError(f"row {i}, [x, v, omega, eta] = {z[i].tolist()!r}: omega outside "
                          "the guarded bond domain or a non-finite coordinate")
    rows = np.arange(*record.indices(len(z))) if isinstance(record, slice) else slice(None)
    targets = _time_grid(t0, t1, control.dt) if t1 != t0 else []
    field = field_provider
    if isinstance(field, FieldSnapshot):
        field = field.indexed(len(z), len(targets) + 1)
    pair, fh = field.pm(z[:, 0], z[:, 2]), None
    ts = [t0]
    recs = [z[rows]] if record else None
    fmr = [pair[1][rows]] if record else None
    for target in targets:
        try:
            z, pair, fh = _advance_batch(z, field, model, target - ts[-1], control,
                                         lo, hi, pair, fh)
        except StepUnderflowError as exc:
            exc.time = float(ts[-1])
            raise
        ts.append(target)
        if record:
            recs.append(z[rows])
            fmr.append(pair[1][rows])
    if record:
        return z, np.asarray(ts), np.stack(recs), np.stack(fmr)
    return z


def _advance_batch(z, snap, model: HookeModel, dt, control: StepControl, lo, hi,
                   pair, fh=None):
    """One kick-drift-kick step for every row of z.

    ``pair`` is the opening field pair (fp, fm) at the rows of z, and
    ``fh`` the opening bond force ``_force_array(model, z[:, 2])``,
    evaluated here when None; under the tangent law its array is reused
    for the closing force.  Returns (z_next, (fp2, fm2), fh2): the
    advanced rows as an (n, 4) Fortran-order array, the closing pair at
    them and the closing force ``_force_array(model, z_next[:, 2])``,
    which are the next step's opening pair and force under the same
    snapshot.  A row that took one substep closes at substep 0's omega,
    so its closing force is substep 0's; the rows that went on to
    ``_substep_loop`` or the fallback have theirs evaluated again, on
    those rows only.  The step computes in place, in its output and a
    few scratch arrays, and does not write z.

    Each row gets its own substep count m from the impulse bound and, for
    the tangent law, the stiffest frequency the step can reach
    (``_substeps_batch``).  That second count is evaluated only on the
    rows a cheap screen cannot clear: a row far enough from both walls for
    its step's reach is proved to need one substep for it (the proof is
    in ``_wall_substeps``), so the impulse bound alone sets its m, bit for
    bit as the full count would.  Bonds near the midpoint all clear.

    Substep 0 runs in place on every row; each row with
    1 < m <= MAX_SUBSTEPS that passes it takes substeps 1 .. m-1 alone
    in ``_substep_loop``, the scalar step's loop, called with ``np.tan``.
    The arithmetic per row is that of a lone row, and ``np.tan`` gives a
    Python float the bits it gives an array, so batching changes no
    result.  Rows past MAX_SUBSTEPS, and rows whose substeps leave the
    bond domain or break the impulse bound, are redone by
    ``_advance_scalar`` (same contract, with halving) from their opening
    pair, and its closing pair replaces theirs; a row fails at its first
    failing substep.  That fallback keeps ``math.tan``, whose bits the
    ``wall`` references pin.

    A lone row skips the numpy step, which costs about 55 us against
    20 us for its float step (2 rows against 1, mid-range, 2-core VM,
    Python 3.11, numpy 2.4): it runs ``_step_once`` with ``np.tan``, the
    bits of the batch, and the fallback where that rejects the step.  Its
    substep count is ``_substeps_scalar``, the batch's count on one row.
    It evaluates its opening force in floats, so it ignores ``fh`` and
    returns None for fh2.
    """
    if len(z) == 1:
        row = z[0].tolist()
        opening = (float(pair[0][0]), float(pair[1][0]))
        state, (fp2, fm2) = (_step_once(*row, snap, model, dt, control, opening, np.tan)
                             or _advance_scalar(*row, snap, model, dt, control, opening))
        return np.array([state]), (np.array([fp2]), np.array([fm2])), None
    x, v, om, et = z[:, 0], z[:, 1], z[:, 2], z[:, 3]
    fp, fm = pair
    hdt = 0.5 * dt
    out = np.empty(z.shape, order="F")
    # The half-kicked v and eta start in their output columns.
    v1 = np.multiply(fp, hdt, out=out[:, 1])
    v1 += v
    ee = np.multiply(fm, hdt, out=out[:, 3])
    ee += et

    if fh is None:
        fh = _force_array(model, om)
    tmp = _substeps_batch(model, om, ee, fh, dt, control)
    m = np.minimum(tmp, 2.0 * MAX_SUBSTEPS, out=tmp).astype(np.int64)
    bad = m > MAX_SUBSTEPS
    multi = m > 1
    d = dt / m
    hd = 0.5 * d
    mid = 0.5 * model.epsilon
    custom = model.kind is not _hooke.HookeKind.TANGENT

    # Substep 0 runs and is tested in place on every row; rows that fail
    # it, like rows past MAX_SUBSTEPS, are redone below.
    ee += np.multiply(hd, fh, out=tmp)
    o = np.add(om, np.multiply(d, ee, out=tmp), out=out[:, 2])
    inside = (o > lo) & (o < hi)
    if custom:
        # A custom force may be undefined outside the band.
        np.copyto(o, mid, where=~inside)
    # The opening force is spent: its array takes the closing one.
    f0 = _force_array(model, o, out=fh)
    np.abs(f0, out=tmp)
    tmp *= np.abs(d)
    bad |= ~inside | (tmp > control.eta_scale)
    ee += np.multiply(np.where(multi, d, hd), f0, out=tmp)

    # Every row with more than one substep that passed substep 0 finishes
    # alone, failing at its first failing substep.
    for i in np.flatnonzero(multi & ~bad).tolist():
        done = _substep_loop(float(o[i]), float(ee[i]), float(d[i]), 1, int(m[i]), np.tan,
                             model, lo, hi, control.eta_scale)
        if done is None:
            bad[i] = True
        else:
            o[i], ee[i] = done

    x1 = np.multiply(v1, dt, out=out[:, 0])
    x1 += x
    fp2, fm2 = snap.pm(x1, o)
    v1 += np.multiply(fp2, hdt, out=tmp)
    ee += np.multiply(fm2, hdt, out=tmp)

    for i in np.nonzero(bad)[0]:
        out[i], (fp2[i], fm2[i]) = _advance_scalar(
            float(x[i]), float(v[i]), float(om[i]), float(et[i]), snap, model, dt,
            control, (float(fp[i]), float(fm[i])))
    # f0 is the closing force of the rows that took one substep; the
    # others moved on, and their force is taken again at their new omega.
    moved = np.flatnonzero(multi | bad)
    if moved.size:
        f0[moved] = _force_array(model, out[moved, 2])
    return out, (fp2, fm2), f0


def _substeps_batch(model: HookeModel, om: np.ndarray, e1: np.ndarray, fh: np.ndarray,
                    dt, control: StepControl) -> np.ndarray:
    """Inner substep counts of rows (om, e1), as float ceilings; fh is
    the bond force at om.  Each substep must respect the impulse bound
    |Fh|*delta <= eta_scale and, for the tangent law, resolve the
    stiffest local frequency the step can reach (``_wall_substeps``).

    The wall term is evaluated only on the rows the one-substep screen
    cannot clear; its docstring proves that the screen changes no count.
    """
    m = np.abs(fh)
    m *= abs(dt)
    m /= control.eta_scale
    np.ceil(m, out=m)
    np.maximum(m, 1, out=m)
    if model.kind is not _hooke.HookeKind.TANGENT:
        return m
    eps = model.epsilon
    screen = _one_substep_threshold(eps, dt)
    if screen is None:
        rest = np.arange(om.size)
    else:
        u_star, pot = screen
        # |dt| * sqrt((e1**2 + 2 U(u*)) * (1 + SCREEN_MARGIN)), the travel
        # bound of _wall_substeps' proof.
        reach = e1 * e1
        reach += 2.0 * pot
        np.sqrt(reach, out=reach)
        reach *= abs(dt) * math.sqrt(1.0 + SCREEN_MARGIN)
        u_now = np.subtract(eps, om)
        np.minimum(om, u_now, out=u_now)
        u_now -= u_star
        # Not (>=) rather than (<): a NaN row fails the screen.
        rest = np.nonzero(~(u_now >= reach))[0]
    if rest.size:
        m[rest] = np.maximum(m[rest], _wall_substeps(model, om[rest], e1[rest], dt))
    return m


def _one_substep_threshold(eps: float, dt: float):
    """(u*, U(u*)) of the one-substep screen for a step of dt, or None when
    the screen is off.

    u* is the smallest wall distance at which a substep of |dt| spans at
    most half of WALL_RESOLUTION of the local period: with
    s = sqrt(pi/(eps*K)), K = (WALL_RESOLUTION/(2|dt|))**2, it is
    (eps/pi)*asin(s), and U(u*) = -(eps/pi)*log(s) is the bond potential
    there (sin(pi*u*/eps) = s).  For s >= 1 (or dt zero or not finite) no
    wall distance qualifies and every row takes the full count.
    """
    s = 2.0 * abs(dt) / WALL_RESOLUTION * math.sqrt(math.pi / eps)
    if not 0.0 < s < 1.0:
        return None
    return (eps / math.pi) * math.asin(s), -(eps / math.pi) * math.log(s)


def _wall_substeps(model: HookeModel, om: np.ndarray, e1: np.ndarray, dt) -> np.ndarray:
    """Substeps that resolve the stiffest tangent-law frequency
    sqrt(|Fh'|) a step of dt can reach from (om, e1): the wall term of
    ``_substeps_batch``'s count, and so of ``_substeps_scalar``'s, as
    float ceilings.  The smallest reachable wall distance is the current
    one minus the shell-bounded travel, floored at the turning clearance
    of the energy shell (a fast bond turns within a thin layer near the
    wall; jumping over it would leave the domain).

    ``_substeps_batch`` evaluates it only on the rows its screen cannot
    clear.  A row is cleared when, with (u*, U*) from
    ``_one_substep_threshold`` and delta = SCREEN_MARGIN,

        u_now - u* >= |dt| * sqrt((e1**2 + 2 U*) * (1 + delta)),

    that is, u_now >= u* and (u_now - u*)**2 >= dt**2 (e1**2 + 2 U*)
    (1 + delta).  This count is then at most 1, so the impulse count
    (always >= 1) alone sets m and skipping it changes no bit.  Why:

    - u_min >= min(u_now - travel, eps/2): the max with ``clearance``
      only raises it, and ``ahead`` >= u_now, so min(u_now, ahead - travel)
      >= u_now - travel.
    - U(u) = -(eps/pi)*log(sin(pi*u/eps)) falls on (0, eps/2], so
      U(u_now) <= U* and travel = |dt|*sqrt(e1**2 + 2 U(u_now)) is at most
      |dt|*sqrt(e1**2 + 2 U*) <= u_now - u*.  Hence u_min >= u*, as
      u* <= eps/2.
    - freq = sqrt(pi/eps)/sin(pi*u_min/eps) falls as u_min grows, so
      |dt|*freq/WALL_RESOLUTION <= 1/2 at u_min.
    - Rounding: the two energy terms are both >= 0, so energy, travel and
      u* carry a few ulps of relative error.  ahead - travel may cancel,
      but delta keeps u_now - travel about delta/2 * travel above u*, far
      more than that rounding error.  The factor 1/2 then leaves the
      ceiling at 1 for any error in freq below a factor of 2.

    A NaN or infinite row fails the screen's comparison and is counted
    here.  ``_substeps_scalar`` runs the same screen in ``math``, with
    the bits of the batch's: its ``*``, ``+`` and sqrt round correctly
    in both.
    """
    eps = model.epsilon
    # Equal bit for bit to the potential's where(om >= eps/2, eps - om,
    # om), at eps/2, at +-0.0 and at NaN too.
    u_now = np.minimum(om, eps - om)
    energy = 0.5 * e1 * e1 - (eps / np.pi) * np.log(np.sin(np.pi * u_now / eps))
    clearance = (eps / np.pi) * np.arcsin(np.minimum(1.0, np.exp(-np.pi * energy / eps)))
    clearance = np.maximum(clearance, 0.25 * model.guard)
    travel = abs(dt) * np.sqrt(2.0 * energy)
    outward = (e1 > 0.0) if dt > 0.0 else (e1 < 0.0)
    ahead = np.where(outward, eps - om, om)
    u_min = np.minimum(
        np.maximum(clearance, np.minimum(u_now, ahead - travel)), 0.5 * eps)
    f_max = 1.0 / np.tan(np.pi * u_min / eps)
    freq = np.sqrt((np.pi / eps) * (1.0 + f_max * f_max))
    return np.ceil(abs(dt) * freq / WALL_RESOLUTION)


def _force_array(model: HookeModel, om: np.ndarray, out=None) -> np.ndarray:
    """The bond force at om; the tangent law writes it to ``out`` when
    given."""
    if model.kind is _hooke.HookeKind.TANGENT:
        f = np.subtract(om, 0.5 * model.epsilon, out=out)
        f *= np.pi / model.epsilon
        np.tan(f, out=f)
        return np.negative(f, out=f)
    return np.asarray(model.force_fn(om), dtype=float)


def _interp_state(path: TrajectoryPath, i: int, tq: float) -> ParticleState:
    t0, t1 = path.t[i], path.t[i + 1]
    a = 0.0 if t1 == t0 else (tq - t0) / (t1 - t0)
    return ParticleState(
        x=float((1 - a) * path.x[i] + a * path.x[i + 1]),
        v=float((1 - a) * path.v[i] + a * path.v[i + 1]),
        omega=float((1 - a) * path.omega[i] + a * path.omega[i + 1]),
        eta=float((1 - a) * path.eta[i] + a * path.eta[i + 1]))


def _locate(path: TrajectoryPath, i: int, fn, time_tol: float) -> float:
    """Bisect the linearly interpolated path for a sign change of fn in
    [t_i, t_{i+1}]."""
    lo, hi = float(path.t[i]), float(path.t[i + 1])
    flo = fn(_interp_state(path, i, lo))
    while hi - lo > time_tol:
        mid = 0.5 * (lo + hi)
        fmid = fn(_interp_state(path, i, mid))
        if fmid == 0.0:
            return mid
        if math.copysign(1.0, fmid) == math.copysign(1.0, flo):
            lo, flo = mid, fmid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def detect_events(path: TrajectoryPath, balance: BalancePoints) -> list[OscillationEvent]:
    """Oscillation events of a sampled path relative to the balance points.

    Touching or crossing a balance separation is an exit when the bond is
    opening further (eta pointing outward), a return when it is closing
    (eta pointing back), and a turning event at a tangency (|eta| at most
    the control's ``event_eta_tol``; the exactly-tangent case is genuinely
    ambiguous and is filed with the turning events).  A sign change of eta strictly outside
    the chaotic interval is a turning (stopping-time) event.  Event times
    are located on the interpolated path to the control's time tolerance.
    """
    if len(path) == 0:
        return []
    eta_tol = path.control.event_eta_tol
    time_tol = max(path.control.event_time_tol, 1e-15)
    om_m, om_M = balance.omega_m, balance.omega_M
    events: list[OscillationEvent] = []

    def classify_touch(t: float, st: ParticleState, which: str):
        outward = st.eta > eta_tol if which == "omega_M" else st.eta < -eta_tol
        inward = st.eta < -eta_tol if which == "omega_M" else st.eta > eta_tol
        if outward:
            kind = EventKind.EXIT_CHAOTIC
        elif inward:
            kind = EventKind.RETURN_TIME
        else:
            kind = EventKind.STOPPING_TIME
        events.append(OscillationEvent(kind=kind, time=t, state=st, boundary=which))

    # Initial sample sitting on a boundary is itself an event.
    st0 = path.state_at(0)
    g0 = 1e-9 * max(1.0, om_M)
    if abs(st0.omega - om_M) <= g0:
        classify_touch(float(path.t[0]), st0, "omega_M")
    elif abs(st0.omega - om_m) <= g0:
        classify_touch(float(path.t[0]), st0, "omega_m")

    # Interval i holds a sign change of g, or g reaches 0 at its end (a
    # zero at its start was the end of interval i - 1).  Row-major order
    # visits each interval's omega_m, omega_M and eta tests in turn.
    gs = np.stack([path.omega - om_m, path.omega - om_M, path.eta], axis=1)
    flags = (gs[:-1] * gs[1:] < 0.0) | ((gs[:-1] != 0.0) & (gs[1:] == 0.0))
    for i, j in zip(*(k.tolist() for k in np.nonzero(flags))):
        if j == 2:
            tq = _locate(path, i, lambda s: s.eta, time_tol)
            st = _interp_state(path, i, tq)
            if not (om_m < st.omega < om_M):
                events.append(OscillationEvent(
                    kind=EventKind.STOPPING_TIME, time=tq, state=st))
        else:
            which, level = ("omega_m", om_m) if j == 0 else ("omega_M", om_M)
            tq = _locate(path, i, lambda s: s.omega - level, time_tol)
            classify_touch(tq, _interp_state(path, i, tq), which)

    events.sort(key=lambda e: e.time)
    return events


def jacobian_estimate(seed: ParticleState, field_provider, model: HookeModel,
                      t: float, h: float, control: StepControl) -> float:
    """Determinant of the time-t flow map's Jacobian at the seed under the
    frozen field ``field_provider``, by central differences from eight
    auxiliary integrations from time 0.  The flow is volume preserving,
    so the expected value is 1."""
    z0 = np.array([seed.x, seed.v, seed.omega, seed.eta], dtype=float)
    if t == 0.0:
        return 1.0
    pert = []
    for j in range(4):
        for sgn in (+1.0, -1.0):
            zp = z0.copy()
            zp[j] += sgn * h
            pert.append(zp)
    out = integrate_batch(np.asarray(pert), field_provider, model, 0.0, t, control)
    jac = np.empty((4, 4))
    for j in range(4):
        jac[:, j] = (out[2 * j] - out[2 * j + 1]) / (2.0 * h)
    return float(np.linalg.det(jac))
