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

The coupled scheme is first order in control.dt and in dt_macro: the
field jumps at every particle, so a kick across a crossing errs by
O(dt), and a macro step holds the field of its start.  With both steps
equal, the final-state error on the ``bulk`` benchmark's datum at 6^4
falls 2.1-2.6x per halving from dt = 0.02 (``tests/test_simulator.py``).

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
from .datum import MAX_SOBOL_POINTS, BumpDatum, sample_datum, sobol_box
from .errors import ConfigError, InvalidCError, ToleranceError
from .field import (ConstantField, Ensemble, FieldSnapshot, ParticleState, build_field,
                    write_table, zero_field)
from .hooke import HookeModel, balance_points, tangent_model, load_table_model
from .trajectory import (
    StepControl,
    TrajectoryPath,
    _time_grid,
    detect_events,
    integrate_batch,
    jacobian_estimate,
)

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
_FIELD_KEYS = {"kind", "f_plus", "f_minus"}


_AXES = ("x", "v", "omega", "eta")
# The size keys that count Sobol points (``datum.sobol_box``).
_SOBOL_KEYS = ("tracked_interior", "probe_grid", "detj_seeds")

# Most steps one horizon may take (T over its step), so that no config
# asks for a time grid too long to build.
MAX_STEPS = 10**7
# Largest magnitude of a datum amplitude, a trajectory seed coordinate or
# a prescribed field value: squares and pairwise products of such values,
# as in the step's energy 0.5 * eta**2, stay finite.
MAX_MAGNITUDE = 1e150
# Most cells a bump datum's grid may have, 200x the bulk benchmark's
# 20,736: sampling holds a few float arrays of one entry per cell.
MAX_CELLS = 2**22


def _datum_axes(datum: dict, key: str) -> list:
    """(name, entry) for the x, v, omega and eta entries of ``datum[key]``,
    named datum.key.axis; ConfigError naming the key unless it is an
    object with exactly those keys."""
    val = datum.get(key)
    if not isinstance(val, dict) or set(val) != set(_AXES):
        raise ConfigError(f"bump datum needs datum.{key} as an object with keys "
                          f"{', '.join(_AXES)}; got {val!r}")
    return [(f"datum.{key}.{a}", val[a]) for a in _AXES]


def _path(val, need: str) -> str:
    """``val`` as a file path; ConfigError "``need`` as a non-empty
    string" unless it is one (numpy would read a list as lines of data)."""
    if not isinstance(val, str) or not val:
        raise ConfigError(f"{need} as a non-empty string, got {val!r}")
    return val


def _unknown_keys(section: dict, allowed, name: str) -> None:
    """ConfigError naming the keys of ``section`` outside ``allowed``."""
    bad = set(section) - set(allowed)
    if bad:
        raise ConfigError(f"unknown keys in {name!r}: {sorted(bad)}")


def _number(val, name: str, limit: float | None = None) -> float:
    """``val`` as a float; ConfigError naming ``name`` unless it is an int
    or a float (a bool is neither here) and, given a ``limit``, finite
    and at most ``limit`` in magnitude."""
    if isinstance(val, bool) or not isinstance(val, (int, float)):
        raise ConfigError(f"{name} must be a number, got {val!r}")
    try:
        x = float(val)
    except OverflowError:
        raise ConfigError(f"{name} is an integer of {val.bit_length()} bits, too large "
                          "for a float") from None
    if limit is not None and not math.isfinite(x):
        raise ConfigError(f"{name} must be finite, got {val!r}")
    if limit is not None and abs(x) > limit:
        raise ConfigError(f"{name} is {val!r}, over the cap of {limit:g} in magnitude")
    return x


@dataclass(frozen=True)
class RunConfig:
    """Validated run configuration: the reference for the config format.

    A config is one JSON object; ``from_dict`` rejects unknown keys at
    every level, and a number is a JSON int or float, never a bool.  Each
    key is listed with its default, its rule and the commands that read
    it ("load": ``from_dict`` checks it for every command, ``certify``
    included, which loads a run's manifest).

    hooke (required)       the bond law; every command but certify.
      kind                 "tangent" (default) or "table".
      epsilon              bond domain length, default 1; positive, finite.
      table_path           table laws: a non-empty string naming a file of
                           (omega, force) rows, at least one.
    datum                  the initial ensemble; simulate, picard, and
                           bounds without bounds.support_box.  simulate
                           and bounds need particles, all with omega
                           strictly inside the bond domain; picard needs
                           bumps.
      kind                 "bumps" (default) or "particles".
      centers, widths      bumps: objects with keys x, v, omega, eta;
                           widths > 0.
      amplitude            bumps: default 1; >= 0, at most MAX_MAGNITUDE.
      box                  bumps: object of [lo, hi] pairs per axis, lo <
                           hi, the sampling box; default the bumps' support.
      grid                 bumps: four integers >= 1, cells per axis, at
                           most MAX_CELLS in all; default [8, 8, 8, 8].
      path                 particles: a non-empty string naming a CSV
                           whose first line is the header x,v,omega,eta,w,
                           with at least one row below it, every value
                           finite and at most MAX_MAGNITUDE.
    T                      horizon, default 1; load: finite, > 0.  The
                           default of trajectory.T and bounds.T.
    dt_macro               field rebuild step, default 0.01; load: finite,
                           > 0, at most MAX_STEPS steps in T.  simulate,
                           picard.
    control                ``StepControl`` keys; simulate, picard,
                           trajectory, certify.
      dt                   fine step, default dt_macro; load: finite, > 0,
                           at most MAX_STEPS steps in T.
      eta_scale            sub-cycling impulse bound, default 0.25; > 0.
      event_eta_tol        turning-event threshold, default 1e-7; load:
                           finite, >= 0.
    tracked_boundary,      seeds at the support box's corners and inside
    tracked_interior       it, default 16 each; load: integers >= 0,
                           tracked_boundary at most 16 (the corners) and
                           tracked_interior at most 2**30 (the Sobol
                           points).  simulate.
    c_safety               C = c_safety * max(2 * mass, edge force),
                           default 1.5; load: finite, > 0.  simulate,
                           bounds.  C must have balance points.
    snapshot_every         field and ensemble dump interval in macro
                           steps, 0 (default) for none; load: integer
                           >= 0.  simulate.
    output_dir             output directory, default "."; --output-dir
                           replaces it; load: a string or null.  simulate,
                           picard, trajectory.
    probe_grid, n_max,     Picard probe count (load: integer >= 1, at
    picard_tol             most 2**30), round cap (integer >= 0) and
                           stop level (a number); defaults 4096, 8, 0.
                           picard.
    continuation_margin    relative warn margin of the continuation check,
                           default 0.01; load: finite, >= 0.  simulate.
    detj_seeds, detj_every Jacobian probe seeds and interval in macro
                           steps, 0 (default) for none; load: integers
                           >= 0, detj_seeds at most 2**30.  simulate.
    trajectory             the trajectory command only.
      seed                 object with omega and any of x, v, eta
                           (default 0); each at most MAX_MAGNITUDE.
      T, dt                horizon and step, defaults T and control.dt;
                           load: finite, > 0, at most MAX_STEPS steps.
      field                {"kind": "zero"} (default) or {"kind":
                           "constant", "f_plus", "f_minus"}, each at most
                           MAX_MAGNITUDE.
      balance_level        > 0; events are located at the balance
                           points of this level.
    bounds                 the bounds command only.
      T                    default T; finite, >= 0.
      support_box          8 numbers (x, v, omega, eta lo/hi pairs), with
                           C_minus and C given; else the datum's support.
      epsilon0, R,         finite numbers that replace the derived
      C_minus, C           constants, in ``BoundParameters``' ranges.
    """

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
            if f.name in _SOBOL_KEYS and val > MAX_SOBOL_POINTS:
                raise ConfigError(f"{f.name} is {val!r}, over the cap of 2**30 Sobol points")
        if cfg.tracked_boundary > 16:
            raise ConfigError(f"tracked_boundary is {cfg.tracked_boundary!r}, over the 16 "
                              "corners of the support box")
        if not isinstance(cfg.output_dir, (str, type(None))):
            raise ConfigError(f"output_dir must be a string or null, got {cfg.output_dir!r}")
        dt = cfg.control.get("dt", cfg.dt_macro)
        traj_T, traj_dt = cfg.trajectory.get("T", cfg.T), cfg.trajectory.get("dt", dt)
        # An absent key takes a value checked before it, under its own name.
        for name, val in (("T", cfg.T), ("dt_macro", cfg.dt_macro), ("control.dt", dt),
                          ("trajectory.T", traj_T), ("trajectory.dt", traj_dt),
                          ("c_safety", cfg.c_safety)):
            if not (math.isfinite(_number(val, name)) and val > 0.0):
                raise ConfigError(f"{name} must be finite and positive, got {val!r}")
        for name, val in (("continuation_margin", cfg.continuation_margin),
                          ("control.event_eta_tol", cfg.control.get("event_eta_tol", 0.0))):
            if _number(val, name, math.inf) < 0.0:
                raise ConfigError(f"{name} must be >= 0, got {val!r}")
        for name, span, step in (("T/dt_macro", cfg.T, cfg.dt_macro), ("T/control.dt", cfg.T, dt),
                                 ("trajectory.T/dt", traj_T, traj_dt)):
            if span / step > MAX_STEPS:
                raise ConfigError(f"{name} is {span / step!r}, over the cap of {MAX_STEPS} steps")
        return cfg

    def effective(self) -> dict:
        """Every effective value including defaults (for the manifest)."""
        return {name: getattr(self, name) for name in sorted(self.__dataclass_fields__)}

    def build_model(self) -> HookeModel:
        kind = self.hooke.get("kind", "tangent")
        eps = _number(self.hooke.get("epsilon", 1.0), "hooke.epsilon")
        if kind == "tangent":
            return tangent_model(eps)
        if kind == "table":
            path = _path(self.hooke.get("table_path"), "table models need hooke.table_path")
            return load_table_model(path, eps)
        raise ConfigError(f"unknown hooke kind {kind!r}")

    def build_control(self) -> StepControl:
        base = {"dt": self.dt_macro, **self.control}
        return StepControl(**{k: _number(val, f"control.{k}") for k, val in base.items()})

    def build_datum(self):
        """(BumpDatum, box, grid) for bump data, or a particle Ensemble."""
        kind = self.datum.get("kind", "bumps")
        if kind == "particles":
            path = _path(self.datum.get("path"), "particle data need datum.path")
            ens = Ensemble.load_csv(path)
            rows = np.column_stack([ens.x, ens.v, ens.omega, ens.eta, ens.w])
            bad = np.argwhere(~(np.abs(rows) <= MAX_MAGNITUDE))
            if bad.size:  # _number raises, naming the value's row and column
                i, j = bad[0].tolist()
                _number(float(rows[i, j]), f"datum.path {path!r}: row {i + 1}, column "
                        f"{(*_AXES, 'w')[j]}", MAX_MAGNITUDE)
            return ens
        if kind != "bumps":
            raise ConfigError(f"unknown datum kind {kind!r}")
        centers = tuple(_number(c, name) for name, c in _datum_axes(self.datum, "centers"))
        widths = tuple(_number(w, name) for name, w in _datum_axes(self.datum, "widths"))
        amp = _number(self.datum.get("amplitude", 1.0), "datum.amplitude", MAX_MAGNITUDE)
        datum = BumpDatum(centers=centers, widths=widths, amplitude=amp)
        if self.datum.get("box") is None:
            box = datum.support()
        else:
            box = []
            for name, pair in _datum_axes(self.datum, "box"):
                if not isinstance(pair, (list, tuple)) or len(pair) != 2:
                    raise ConfigError(f"{name} must be a pair of numbers, got {pair!r}")
                lo, hi = (_number(c, name) for c in pair)
                if not lo < hi:
                    raise ConfigError(f"{name} must have lo < hi, got {pair!r}")
                box.append((lo, hi))
            box = tuple(box)
        grid = self.datum.get("grid", (8, 8, 8, 8))
        if not isinstance(grid, (list, tuple)) or len(grid) != len(_AXES) or \
                any(type(n) is not int or n < 1 for n in grid):
            raise ConfigError(f"datum.grid must hold integers >= 1, one per axis, got {grid!r}")
        if math.prod(grid) > MAX_CELLS:
            raise ConfigError(f"datum.grid is {grid!r}, {math.prod(grid)} cells, over the cap "
                              "of 2**22")
        return datum, box, tuple(grid)

    def build_ensemble(self, model: HookeModel) -> Ensemble:
        """The initial ensemble of either datum kind: bump data sampled
        for ``model``; ConfigError unless it has particles, all with bond
        lengths strictly inside ``model.domain``."""
        built = self.build_datum()
        ens = built if isinstance(built, Ensemble) else sample_datum(*built, model.epsilon)
        if len(ens) == 0:
            raise ConfigError("the sampled datum has no particles")
        lo, hi = model.domain
        om_lo, om_hi = float(ens.omega.min()), float(ens.omega.max())
        if not (lo < om_lo and om_hi < hi):
            raise ConfigError(
                "datum support must lie strictly inside the bond domain "
                f"({lo!r}, {hi!r}); got [{om_lo!r}, {om_hi!r}]")
        return ens

    def build_trajectory(self, model: HookeModel):
        """(state, field, T, control, balance): the ``trajectory`` command's
        ``integrate`` inputs, from the trajectory section."""
        spec = self.trajectory
        seed = spec.get("seed")
        if not isinstance(seed, dict) or "omega" not in seed:
            raise ConfigError("trajectory runs need a trajectory.seed object with omega")
        _unknown_keys(seed, _AXES, "trajectory.seed")
        state = ParticleState(*(_number(seed.get(k, 0.0), f"trajectory.seed.{k}", MAX_MAGNITUDE)
                                for k in _AXES))
        control = self.build_control()
        if "dt" in spec:
            control = replace(control, dt=float(spec["dt"]))
        fld = spec.get("field", {})
        kind = fld.get("kind", "zero") if isinstance(fld, dict) else None
        if kind not in ("zero", "constant"):
            raise ConfigError(f"trajectory.field needs kind zero or constant, got {fld!r}")
        _unknown_keys(fld, _FIELD_KEYS, "trajectory.field")
        field = zero_field() if kind == "zero" else ConstantField(*(
            _number(fld.get(k, 0.0), f"trajectory.field.{k}", MAX_MAGNITUDE)
            for k in ("f_plus", "f_minus")))
        balance = None
        if "balance_level" in spec:
            balance = balance_points(
                model, _number(spec["balance_level"], "trajectory.balance_level"))
        return state, field, float(spec.get("T", self.T)), control, balance

    def build_bounds(self, model: HookeModel) -> BoundCertificate:
        """The ``bounds`` command's certificate: over bounds.support_box
        with bounds.C_minus and bounds.C given, else over the initial
        ensemble; the other bounds keys replace derived constants."""
        spec = dict(self.bounds)
        box = spec.pop("support_box", None)
        T = _number(spec.pop("T", self.T), "bounds.T", math.inf)
        if T < 0.0:
            raise ConfigError(f"bounds.T must be >= 0, got {T!r}")
        given = {k: _number(val, f"bounds.{k}", math.inf) for k, val in spec.items()}
        if box:
            if not isinstance(box, list) or len(box) != 8 or not {"C_minus", "C"} <= set(given):
                raise ConfigError(
                    "bounds.support_box needs 8 numbers, bounds.C_minus and bounds.C")
            box = tuple(_number(c, "bounds.support_box", math.inf) for c in box)
            p = certificate_parameters(model, box, **given)
        else:
            ens = self.build_ensemble(model)
            box = ens.support_box()
            p = certificate_parameters(model, box, ens.total_mass, self.c_safety, **given)
        return _checked_certificate(p, box, T, "bounds.T",
                                    "bounds.C" if "C" in given else _C_KEYS)


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
    return np.vstack([corners, sobol_box(n_interior, lo, hi)])


# The keys the certificate's level C derives from when it is not given.
_C_KEYS = "c_safety and the datum's mass"


def _checked_certificate(p, box, T: float, name: str, c_keys: str = _C_KEYS) -> BoundCertificate:
    """``build_certificate``, with a level C that has no balance points
    or no certificate (InvalidCError), an overflow or a constant that is
    not finite reported as a ConfigError naming its keys: ``name`` is the
    key of T and ``c_keys`` the keys of C.  An overflow names T first only
    when the certificate at T = 0 does not overflow; otherwise T plays no
    part, and the bond law and C lead."""
    try:
        p.balance
    except ToleranceError as exc:
        raise ConfigError(f"C = {p.C!r}, from {c_keys}, has no balance points: the bond "
                          "force must reach +C left of the midpoint and -C right of it"
                          ) from exc
    law = ("table" if p.model.nodes is not None
           else "tangent" if p.model.force_fn is None else "custom")
    # Finite inputs can still overflow: x_bound grows as C*T**2, and the
    # excursion envelope squares the eta edge, whatever T.
    try:
        cert = build_certificate(p, box, T)
    except InvalidCError as exc:
        hull = f" on omega {list(p.model.domain)!r}" if p.model.nodes is not None else ""
        raise ConfigError(f"C = {p.C!r}, from {c_keys}, has no certificate under the {law} "
                          f"bond law{hull}: {exc}") from exc
    except OverflowError as exc:
        what = f"the certificate of the {law} bond law with C = {p.C!r}, from {c_keys}"
        try:
            build_certificate(p, box, 0.0)
        except OverflowError:
            raise ConfigError(f"{what}, overflows at any T ({name} = {T!r} plays no "
                              f"part): {exc}") from exc
        raise ConfigError(f"{name} = {T!r} overflows {what}: {exc}") from exc
    try:
        cert.to_json(allow_nan=False)
    except ValueError as exc:
        raise ConfigError(f"{name} = {T!r} gives a certificate with constants that are not "
                          "finite") from exc
    return cert


def run(config: RunConfig):
    """Execute a self-consistent run; see RunResult for the outputs."""
    model = config.build_model()
    control = config.build_control()
    ens = config.build_ensemble(model)
    support0 = ens.support_box()
    cert = None
    if ens.total_mass > 0.0:
        p = certificate_parameters(model, support0, ens.total_mass, config.c_safety)
        cert = _checked_certificate(p, support0, config.T, "T")

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
