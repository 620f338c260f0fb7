"""Self-consistent nonlinear evolution with diagnostics and tracking.

The loop alternates field rebuilds and particle pushes on a macro step:
build the step field from the current particles, record diagnostics,
push every particle one macro step under that frozen field.  Tracked
seeds (the sixteen corners of the initial support box plus interior
low-discrepancy points) ride in the same batch, which moves no particle,
and keep full sampled paths for event detection and certificate replay.
Weights never change, so the particle-carried L1 and transported max are
conserved exactly; the continuation monitor compares the running support
box against the certificate's confinement box.  ``picard`` walks the
macro grid through the same loop, ``_march``.

Everything is deterministic for a fixed config: sampling has no
randomness and reductions run in fixed order.
"""

from __future__ import annotations

import enum
import itertools
import math
from dataclasses import dataclass, field as dc_field, fields, replace

import numpy as np

from . import hooke as _hooke
from .bounds import BoundCertificate, build_certificate, certificate_parameters, certify
from .datum import BumpDatum, sample_datum, sobol_box
from .errors import ConfigError
from .field import Ensemble, FieldSnapshot, build_field, write_table
from .hooke import HookeModel, tangent_model, load_table_model
from .trajectory import (
    StepControl,
    TrajectoryPath,
    _time_grid,
    detect_events,
    integrate_batch,
    jacobian_estimate,
)
from .field import ParticleState

__all__ = [
    "RunConfig",
    "Diagnostics",
    "ContinuationStatus",
    "RunResult",
    "run",
    "diagnostics",
    "check_continuation",
    "dump_diagnostics_csv",
]


class ContinuationStatus(enum.Enum):
    PASS = "pass"
    WARN = "warn"
    FAIL = "fail"
    NA = "na"  # no certificate (zero-mass run)


@dataclass(frozen=True)
class Diagnostics:
    """Per-step scalars; the support box is over the live particles."""

    time: float
    L1: float
    Linf: float
    support_box: tuple
    sup_F: float
    E_kin: float
    E_osc: float
    detJ_err: float
    status: ContinuationStatus = ContinuationStatus.NA
    violated: str = ""


_DATUM_KEYS = {"kind", "centers", "widths", "amplitude", "box", "grid", "path"}
_HOOKE_KEYS = {"kind", "epsilon", "table_path"}
_CONTROL_KEYS = {f.name for f in fields(StepControl)}
_TRAJECTORY_KEYS = {"seed", "T", "dt", "field", "balance_level"}
_BOUNDS_KEYS = {"support_box", "epsilon0", "R", "C_minus", "C", "T"}


_AXES = ("x", "v", "omega", "eta")

# Most steps one horizon may take (T over its step), so that no config
# asks for a time grid too long to build.
MAX_STEPS = 10**7


def _datum_axes(datum: dict, key: str) -> list:
    """(name, entry) for the x, v, omega and eta entries of ``datum[key]``,
    named datum.key.axis; ConfigError naming the key unless it is an
    object with exactly those keys."""
    val = datum.get(key)
    if not isinstance(val, dict) or set(val) != set(_AXES):
        raise ConfigError(f"bump datum needs datum.{key} as an object with keys "
                          f"{', '.join(_AXES)}; got {val!r}")
    return [(f"datum.{key}.{a}", val[a]) for a in _AXES]


def _unknown_keys(section: dict, allowed, name: str) -> None:
    """ConfigError naming the keys of ``section`` outside ``allowed``."""
    bad = set(section) - set(allowed)
    if bad:
        raise ConfigError(f"unknown keys in {name!r}: {sorted(bad)}")


def _number(val, name: str) -> float:
    """``val`` as a float; ConfigError naming ``name`` unless it is an int
    or a float (a bool is neither here)."""
    if isinstance(val, bool) or not isinstance(val, (int, float)):
        raise ConfigError(f"{name} must be a number, got {val!r}")
    return float(val)


@dataclass(frozen=True)
class RunConfig:
    """Validated run configuration; unknown keys are rejected on load."""

    hooke: dict
    datum: dict = dc_field(default_factory=dict)
    T: float = 1.0
    dt_macro: float = 1e-2
    control: dict = dc_field(default_factory=dict)
    tracked_boundary: int = 16
    tracked_interior: int = 16
    c_safety: float = 1.5
    snapshot_every: int = 0
    output_dir: str | None = None
    probe_grid: int = 4096
    n_max: int = 8
    picard_tol: float = 0.0
    continuation_margin: float = 0.01
    detj_seeds: int = 0
    detj_every: int = 0
    trajectory: dict = dc_field(default_factory=dict)
    bounds: dict = dc_field(default_factory=dict)

    @classmethod
    def from_dict(cls, raw: dict) -> "RunConfig":
        unknown = set(raw) - {f.name for f in fields(cls)}
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        for key, allowed in (("hooke", _HOOKE_KEYS), ("datum", _DATUM_KEYS),
                             ("control", _CONTROL_KEYS), ("trajectory", _TRAJECTORY_KEYS),
                             ("bounds", _BOUNDS_KEYS)):
            sub = raw.get(key, {})
            if not isinstance(sub, dict):
                raise ConfigError(f"config section {key!r} must be an object")
            _unknown_keys(sub, allowed, key)
        if "hooke" not in raw:
            raise ConfigError("config needs a 'hooke' section")
        cfg = cls(**{k: raw[k] for k in raw})
        for f in fields(cls):
            val = getattr(cfg, f.name)
            if f.type == "float":
                _number(val, f.name)
            least = 1 if f.name == "probe_grid" else 0
            if f.type == "int" and (type(val) is not int or val < least):
                raise ConfigError(f"{f.name} must be an integer >= {least}, got {val!r}")
        dt = cfg.control.get("dt", cfg.dt_macro)
        traj_T, traj_dt = cfg.trajectory.get("T", cfg.T), cfg.trajectory.get("dt", dt)
        # An absent key takes a value checked before it, under its own name.
        for name, val in (("T", cfg.T), ("dt_macro", cfg.dt_macro), ("control.dt", dt),
                          ("trajectory.T", traj_T), ("trajectory.dt", traj_dt)):
            if not (math.isfinite(_number(val, name)) and val > 0.0):
                raise ConfigError(f"{name} must be finite and positive, got {val!r}")
        for name, span, step in (("T/dt_macro", cfg.T, cfg.dt_macro), ("T/control.dt", cfg.T, dt),
                                 ("trajectory.T/dt", traj_T, traj_dt)):
            if span / step > MAX_STEPS:
                raise ConfigError(f"{name} is {span / step!r}, over the cap of {MAX_STEPS} steps")
        return cfg

    def effective(self) -> dict:
        """Every effective value including defaults (for the manifest)."""
        out = {}
        for name in sorted(self.__dataclass_fields__):
            out[name] = getattr(self, name)
        return out

    def build_model(self) -> HookeModel:
        kind = self.hooke.get("kind", "tangent")
        eps = _number(self.hooke.get("epsilon", 1.0), "hooke.epsilon")
        if kind == "tangent":
            return tangent_model(eps)
        if kind == "table":
            path = self.hooke.get("table_path")
            if not path:
                raise ConfigError("table models need hooke.table_path")
            return load_table_model(path, eps)
        raise ConfigError(f"unknown hooke kind {kind!r}")

    def build_control(self) -> StepControl:
        base = {"dt": self.dt_macro}
        base.update(self.control)
        return StepControl(**{k: _number(val, f"control.{k}") for k, val in base.items()})

    def build_datum(self):
        """(BumpDatum, box, grid) for bump data, or a particle Ensemble."""
        kind = self.datum.get("kind", "bumps")
        if kind == "particles":
            path = self.datum.get("path")
            if not path:
                raise ConfigError("particle data need datum.path")
            return Ensemble.load_csv(path)
        if kind != "bumps":
            raise ConfigError(f"unknown datum kind {kind!r}")
        centers = tuple(_number(c, name) for name, c in _datum_axes(self.datum, "centers"))
        widths = tuple(_number(w, name) for name, w in _datum_axes(self.datum, "widths"))
        amp = _number(self.datum.get("amplitude", 1.0), "datum.amplitude")
        datum = BumpDatum(centers=centers, widths=widths, amplitude=amp)
        if self.datum.get("box") is None:
            box = datum.support()
        else:
            box = []
            for name, pair in _datum_axes(self.datum, "box"):
                if not isinstance(pair, (list, tuple)) or len(pair) != 2:
                    raise ConfigError(f"{name} must be a pair of numbers, got {pair!r}")
                box.append(tuple(_number(c, name) for c in pair))
            box = tuple(box)
        grid = self.datum.get("grid", (8, 8, 8, 8))
        if not isinstance(grid, (list, tuple)) or len(grid) != len(_AXES) or \
                any(type(n) is not int or n < 1 for n in grid):
            raise ConfigError(f"datum.grid must hold integers >= 1, one per axis, got {grid!r}")
        grid = tuple(grid)
        return datum, box, grid


@dataclass
class RunResult:
    final: Ensemble
    series: list
    tracked_paths: list
    certificate: BoundCertificate | None
    cert_reports: list
    config: RunConfig
    snapshots_dumped: list = dc_field(default_factory=list)  # (k, ensemble) pairs


def _oscillatory_energy(ens: Ensemble, model: HookeModel) -> float:
    if len(ens) == 0:
        return 0.0
    u = _hooke.potential_to_midpoint(model, ens.omega)
    return float(np.sum(ens.w * (0.5 * ens.eta**2 + u)))


def diagnostics(ensemble: Ensemble, snapshot: FieldSnapshot, model: HookeModel,
                detj_err: float = math.nan) -> Diagnostics:
    """All per-step scalars of an ensemble/field pair."""
    linf = math.nan
    if ensemble.f_values is not None and len(ensemble) > 0:
        linf = float(np.max(ensemble.f_values))
    return Diagnostics(
        time=ensemble.time,
        L1=ensemble.total_mass,
        Linf=linf,
        support_box=ensemble.support_box(),
        sup_F=snapshot.norms()[0],
        E_kin=float(np.sum(ensemble.w * 0.5 * ensemble.v**2)),
        E_osc=_oscillatory_energy(ensemble, model),
        detJ_err=detj_err)


def check_continuation(diag: Diagnostics, cert: BoundCertificate | None,
                       margin: float = 0.01) -> tuple[ContinuationStatus, str]:
    """Compare the support box against the certified box.

    Pass when strictly inside with the configured relative margin to
    spare, Warn when inside but within the margin (or exactly on the
    boundary), Fail with the violated coordinate otherwise.
    """
    if cert is None:
        return ContinuationStatus.NA, ""
    x_lo, x_hi, v_lo, v_hi, om_lo, om_hi, et_lo, et_hi = diag.support_box
    conf_lo, conf_hi = cert.omega_confinement
    conf_width = conf_hi - conf_lo
    checks = (
        ("x_lower", -x_lo, cert.x_bound, margin * cert.x_bound),
        ("x_upper", x_hi, cert.x_bound, margin * cert.x_bound),
        ("v_lower", -v_lo, cert.v_bound, margin * cert.v_bound),
        ("v_upper", v_hi, cert.v_bound, margin * cert.v_bound),
        ("omega_lower", conf_lo - om_lo, 0.0, margin * conf_width),
        ("omega_upper", om_hi - conf_hi, 0.0, margin * conf_width),
        ("eta_lower", -et_lo, cert.H_envelope, margin * cert.H_envelope),
        ("eta_upper", et_hi, cert.H_envelope, margin * cert.H_envelope),
    )
    status = ContinuationStatus.PASS
    worst = ""
    for name, value, bound, m in checks:
        if value > bound:
            return ContinuationStatus.FAIL, name
        if value > bound - m:
            status = ContinuationStatus.WARN
            worst = name
    return status, worst


def _tracked_seeds(box, n_boundary: int, n_interior: int) -> np.ndarray:
    """Corner seeds (extremal for the certificate) plus interior Sobol."""
    lo, hi = box[0::2], box[1::2]
    corners = np.array(list(itertools.product(*zip(lo, hi))), dtype=float)[:n_boundary]
    if n_interior > 0:
        interior = sobol_box(n_interior, lo, hi)
        return np.vstack([corners, interior]) if corners.size else interior
    return corners


def run(config: RunConfig):
    """Execute a self-consistent run; see RunResult for the outputs."""
    model = config.build_model()
    control = config.build_control()
    built = config.build_datum()
    if isinstance(built, Ensemble):
        ens = built
    else:
        datum, box, grid = built
        ens = sample_datum(datum, box, grid, model.epsilon)
    if len(ens) == 0:
        raise ConfigError("the sampled datum has no particles")
    lo, hi = model.domain
    om_lo, om_hi = float(ens.omega.min()), float(ens.omega.max())
    if not (lo < om_lo and om_hi < hi):
        raise ConfigError(
            "datum support must lie strictly inside the bond domain "
            f"({lo!r}, {hi!r}); got [{om_lo!r}, {om_hi!r}]")

    support0 = ens.support_box()
    cert = None
    if ens.total_mass > 0.0:
        p = certificate_parameters(model, support0, ens.total_mass, config.c_safety)
        cert = build_certificate(p, support0, config.T)

    tracked = _tracked_seeds(support0, config.tracked_boundary, config.tracked_interior)

    series: list[Diagnostics] = []
    snapshots_dumped = []
    max_norm = 0.0
    detj = math.nan

    def visit(k: int, ens_k: Ensemble) -> FieldSnapshot:
        nonlocal max_norm, detj
        snap = build_field(ens_k)
        max_norm = max(max_norm, snap.norms()[1])
        if config.detj_every > 0 and config.detj_seeds > 0 and \
                k % config.detj_every == 0:
            detj = _detj_probe(ens_k, snap, model, control, config.detj_seeds)
        d = diagnostics(ens_k, snap, model, detj_err=detj)
        status, violated = check_continuation(d, cert, config.continuation_margin)
        series.append(replace(d, status=status, violated=violated))
        if config.snapshot_every > 0 and k % config.snapshot_every == 0:
            snapshots_dumped.append((k, ens_k))
        return snap

    ens, (t_all, s_all, fm_all) = _march(ens, config.T, config.dt_macro, model, control,
                                         visit, tracked)

    tracked_paths: list[TrajectoryPath] = []
    cert_reports = []
    for i in range(s_all.shape[1]):
        path = TrajectoryPath(
            t=t_all, x=s_all[:, i, 0], v=s_all[:, i, 1],
            omega=s_all[:, i, 2], eta=s_all[:, i, 3],
            f_minus=fm_all[:, i], max_field_norm=max_norm, control=control)
        if cert is not None:
            path.events = detect_events(path, cert.balance)
            cert_reports.append(certify(path, cert))
        tracked_paths.append(path)

    return RunResult(final=ens, series=series, tracked_paths=tracked_paths,
                     certificate=cert, cert_reports=cert_reports, config=config,
                     snapshots_dumped=snapshots_dumped)


def _march(ens: Ensemble, T: float, dt_macro: float, model: HookeModel,
           control: StepControl, visit, tracked: np.ndarray = np.empty((0, 4)),
           k0: int = 0):
    """Advance an ensemble over the macro grid of [0, T], one
    ``integrate_batch`` call per macro step.

    ``ens`` is the state at macro time t_{k0} (t_0 = 0), and the march
    takes steps k0 .. K-1 of the K macro steps from there: a start
    k0 > 0 resumes a march whose first k0 steps are known, and k0 = K
    takes no step.  At each macro time t_k, k >= k0, ``visit(k, ens_k)``
    returns the frozen field of the step from t_k (unused at T).
    ``tracked`` seeds, an (m, 4) array (m may be 0) at t_{k0}, ride
    stacked under the particles, and only their rows are recorded.
    Returns (ens_T, (t, samples, f_minus)) over [t_{k0}, T], samples of
    shape (s, m, 4); all three are empty when no step is taken.
    """
    n, m = len(ens), len(tracked)
    targets = _time_grid(0.0, T, dt_macro)
    z = np.vstack([_coords(ens), tracked])
    parts = ([], [], [])  # t, samples, f_minus
    rec = (np.empty(0), np.empty((0, m, 4)), np.empty((0, m)))
    t = targets[k0 - 1] if k0 else 0.0
    for k, target in enumerate(targets[k0:], start=k0):
        field = visit(k, ens)
        z, *rec = integrate_batch(z, field, model, t, target, control, record=slice(n, None))
        # Keep [t_k, t_{k+1}): the next step opens at t_{k+1}, and its
        # f_minus there comes from the next step's field.
        for acc, a in zip(parts, rec):
            acc.append(a[:-1])
        t = target
        ens = ens.with_coords(z[:n, 0], z[:n, 1], z[:n, 2], z[:n, 3], time=t)
    visit(len(targets), ens)
    return ens, tuple(np.concatenate(acc + [a[-1:]]) for acc, a in zip(parts, rec))


def _coords(ens: Ensemble) -> np.ndarray:
    return np.stack([ens.x, ens.v, ens.omega, ens.eta], axis=1)


def _detj_probe(ens: Ensemble, snap, model, control, n_seeds: int) -> float:
    box = ens.support_box()
    seeds = _tracked_seeds(box, 0, n_seeds)
    worst = 0.0
    for row in seeds:
        st = ParticleState(x=row[0], v=row[1], omega=row[2], eta=row[3])
        det = jacobian_estimate(st, snap, model, t=10 * control.dt,
                                h=1e-5, control=control)
        worst = max(worst, abs(det - 1.0))
    return worst


def dump_diagnostics_csv(series, path) -> None:
    """Stable column set; one row per macro step."""
    cols = ["t", "L1", "Linf", "x_lo", "x_hi", "v_lo", "v_hi", "w_lo", "w_hi",
            "eta_lo", "eta_hi", "supF", "E_kin", "E_osc", "detJ_err", "status"]
    nums = np.array([[d.time, d.L1, d.Linf, *d.support_box, d.sup_F, d.E_kin, d.E_osc,
                      d.detJ_err] for d in series], dtype=float).reshape(-1, len(cols) - 1)
    write_table(path, cols, [*nums.T, [d.status.value for d in series]])
