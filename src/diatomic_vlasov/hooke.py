"""Singular oscillatory bonding force and its derived potentials.

The bonding force acts on the half-separation ``omega`` of a diatomic
molecule.  It lives on the open interval ``(0, epsilon)``, vanishes at the
midpoint ``epsilon/2``, attracts toward it, and blows up at both walls.
The built-in tangent law is

    force(omega) = -tan(pi/epsilon * (omega - epsilon/2)).

Custom laws are supported as callables with their antiderivative or as
two-column tables with monotone cubic interpolation, whose exact
antiderivative stands in.  scipy loads only for table models, on first
use (PCHIP); the tangent law and custom callables need numpy alone.
Four structural hypotheses are checked by ``validate_model`` rather than
assumed: monotone decrease, midpoint zero, odd symmetry about the
midpoint, and convex/concave split.

All root finding here is plain bracketing bisection.  Newton-type
iterations are deliberately avoided: the force diverges at the walls, so
derivative-based steps are not safe.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import DomainError, RangeError, ToleranceError

__all__ = [
    "Branch",
    "HookeKind",
    "HookeModel",
    "BalancePoints",
    "ValidationReport",
    "tangent_model",
    "custom_model",
    "table_model",
    "load_table_model",
    "force",
    "potential_to_midpoint",
    "inverse_potential",
    "balance_points",
    "validate_model",
]

# Guard band: evaluations reject omega outside [GUARD*eps, eps - GUARD*eps]
# to keep clear of the tangent poles.
GUARD_FRACTION = 1e-9
# Absolute bisection tolerance, as a fraction of epsilon.
ROOT_TOL_FRACTION = 1e-12


class HookeKind(enum.Enum):
    TANGENT = "tangent"
    CUSTOM = "custom"


class Branch(enum.Enum):
    """Which side of the midpoint an inverse-potential lookup targets."""

    LEFT = "left"    # (0, epsilon/2]
    RIGHT = "right"  # [epsilon/2, epsilon)


@dataclass(frozen=True)
class HookeModel:
    """A bonding-force law on (0, epsilon).

    ``force_fn`` and ``antiderivative`` (any antiderivative of the force)
    are set only for custom models, and both must accept numpy arrays;
    the tangent law is closed-form.  ``hull`` is the tabulated range of a
    table model (see ``domain``).
    """

    epsilon: float
    kind: HookeKind
    force_fn: Callable | None = None
    hull: tuple[float, float] | None = None
    antiderivative: Callable | None = None

    def __post_init__(self):
        if not (self.epsilon > 0.0 and math.isfinite(self.epsilon)):
            raise DomainError(f"epsilon must be positive and finite, got {self.epsilon}")
        if self.kind is HookeKind.CUSTOM and (self.force_fn is None
                                              or self.antiderivative is None):
            raise DomainError("custom models need a force callable and its antiderivative")

    @property
    def guard(self) -> float:
        return GUARD_FRACTION * self.epsilon

    @property
    def domain(self) -> tuple[float, float]:
        """(lo, hi): the closed range where the force may be evaluated and
        the open band a bond must stay in.  The guard band
        (guard, epsilon - guard), or a table model's tabulated hull."""
        if self.hull is not None:
            return self.hull
        return self.guard, self.epsilon - self.guard

    @property
    def root_tol(self) -> float:
        return ROOT_TOL_FRACTION * self.epsilon

    @property
    def midpoint(self) -> float:
        return 0.5 * self.epsilon


@dataclass(frozen=True)
class BalancePoints:
    """Separations where the bond force magnitude equals a field level C.

    force(omega_m) = +C on the left of the midpoint, force(omega_M) = -C on
    the right; the open interval between them is the chaotic region where
    field and bond forces are comparable.
    """

    omega_m: float
    omega_M: float
    level: float


@dataclass(frozen=True)
class ValidationReport:
    """Grid-sampled check of the four structural hypotheses."""

    grid_size: int
    failures: tuple[str, ...]
    worst: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return not self.failures


def tangent_model(epsilon: float = 1.0) -> HookeModel:
    """The built-in tangent bonding law on (0, epsilon)."""
    return HookeModel(epsilon=float(epsilon), kind=HookeKind.TANGENT)


def custom_model(epsilon: float, force_fn: Callable, antiderivative: Callable) -> HookeModel:
    """Wrap a user force law and an antiderivative of it, which gives the
    potentials."""
    return HookeModel(epsilon=float(epsilon), kind=HookeKind.CUSTOM, force_fn=force_fn,
                      antiderivative=antiderivative)


def table_model(epsilon: float, omega: np.ndarray, values: np.ndarray) -> HookeModel:
    """Build a custom model from tabulated (omega, force) samples.

    Monotone cubic (PCHIP) interpolation preserves the sign structure of
    decreasing data.  The tabulated hull is the model's ``domain``:
    evaluations outside it raise DomainError rather than extrapolate.  The
    hull must contain the midpoint epsilon/2, where potentials are
    anchored; they come from the interpolant's exact antiderivative.
    """
    omega = np.asarray(omega, dtype=float)
    values = np.asarray(values, dtype=float)
    if omega.ndim != 1 or omega.shape != values.shape or omega.size < 4:
        raise DomainError("table needs two equal-length columns with >= 4 rows")
    if np.any(np.diff(omega) <= 0):
        raise DomainError("table omega column must be strictly increasing")
    if omega[0] <= 0.0 or omega[-1] >= epsilon:
        raise DomainError("table omega values must lie strictly inside (0, epsilon)")
    lo, hi = float(omega[0]), float(omega[-1])
    if not lo <= 0.5 * epsilon <= hi:
        raise DomainError(f"table omega range [{lo!r}, {hi!r}] must contain epsilon/2")
    from scipy.interpolate import PchipInterpolator
    interp = PchipInterpolator(omega, values, extrapolate=False)

    def _f(w):
        w = np.asarray(w, dtype=float)
        if np.any(w < lo) or np.any(w > hi):
            raise DomainError("evaluation outside the tabulated range")
        return interp(w)

    return HookeModel(epsilon=float(epsilon), kind=HookeKind.CUSTOM,
                      force_fn=_f, hull=(lo, hi), antiderivative=interp.antiderivative())


def load_table_model(path, epsilon: float) -> HookeModel:
    """Load a two-column plain-text table (omega, force) into a model."""
    try:
        data = np.loadtxt(path, dtype=float)
    except ValueError as exc:
        raise DomainError(f"{path}: {exc}") from exc
    if data.ndim != 2 or data.shape[1] != 2:
        raise DomainError(f"{path}: expected two columns (omega, force)")
    return table_model(epsilon, data[:, 0], data[:, 1])


def _check_domain(model: HookeModel, omega) -> np.ndarray:
    w = np.asarray(omega, dtype=float)
    lo, hi = model.domain
    if np.any(w < lo) or np.any(w > hi):
        raise DomainError(f"omega outside the bond domain [{lo!r}, {hi!r}]")
    return w


def force(model: HookeModel, omega):
    """Bond force at separation omega; scalar in, scalar out (arrays ok)."""
    w = _check_domain(model, omega)
    if model.kind is HookeKind.TANGENT:
        out = -np.tan(np.pi / model.epsilon * (w - 0.5 * model.epsilon))
    else:
        out = np.asarray(model.force_fn(w), dtype=float)
    if np.isscalar(omega) or np.ndim(omega) == 0:
        return float(out)
    return out


def _tangent_potential(model: HookeModel, x):
    """Closed-form integral of the tangent force from x to the midpoint.

    Uses the exact wall complement (Sterbenz: eps - x is exact for
    x >= eps/2) so values stay accurate arbitrarily close to the walls.
    Returns +inf at x == 0 or x == eps.
    """
    eps = model.epsilon
    x = np.asarray(x, dtype=float)
    right = x >= 0.5 * eps
    comp = np.where(right, eps - x, x)
    with np.errstate(divide="ignore"):
        u = -(eps / np.pi) * np.log(np.sin(np.pi * comp / eps))
    return u


def potential_to_midpoint(model: HookeModel, x):
    """Integral of the bond force from x to the midpoint, nonnegative on
    (0, epsilon).

    Restricted to the right branch this is the outward potential well; on
    the left branch the mirror well.  A custom model takes A(epsilon/2) -
    A(x) from its antiderivative A (for a table, the interpolant's).
    """
    w = _check_domain(model, x)
    if model.kind is HookeKind.TANGENT:
        out = _tangent_potential(model, w)
    else:
        out = model.antiderivative(model.midpoint) - model.antiderivative(w)
    if np.isscalar(x) or np.ndim(x) == 0:
        return float(out)
    return out


def _bisect(fn, lo: float, hi: float, tol: float, max_iter: int = 300) -> float:
    """Bracketing bisection for a sign change of fn on [lo, hi]."""
    flo = fn(lo)
    fhi = fn(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if math.copysign(1.0, flo) == math.copysign(1.0, fhi):
        raise ToleranceError(
            f"cannot bracket a root on [{lo!r}, {hi!r}] (f={flo!r}, {fhi!r})")
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        if hi - lo <= tol or mid == lo or mid == hi:
            return mid
        fmid = fn(mid)
        if fmid == 0.0:
            return mid
        if math.copysign(1.0, fmid) == math.copysign(1.0, flo):
            lo, flo = mid, fmid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _potential_unguarded(model: HookeModel, x: float) -> float:
    # Potential evaluation used only inside inverse lookups.  A tangent
    # probe may come arbitrarily close to a wall, past the guard band; a
    # custom probe stays between the midpoint and an end of ``domain``.
    if model.kind is HookeKind.TANGENT:
        return float(_tangent_potential(model, x))
    return potential_to_midpoint(model, x)


def inverse_potential(model: HookeModel, value: float, branch: Branch) -> float:
    """Separation whose potential-to-midpoint equals ``value``.

    RIGHT returns x in [eps/2, eps), LEFT returns x in (0, eps/2]; both by
    bisection to the configured absolute tolerance.  Raises RangeError when
    the level exceeds the branch supremum (finite-well custom models; for
    custom models the supremum is taken at the ends of ``domain``).
    """
    if not (value >= 0.0):
        raise RangeError(f"potential levels are nonnegative, got {value!r}")
    mid = model.midpoint
    eps = model.epsilon
    if value == 0.0:
        return mid

    if model.kind is HookeKind.TANGENT:
        outer = eps if branch is Branch.RIGHT else 0.0
    else:
        outer = model.domain[1] if branch is Branch.RIGHT else model.domain[0]
        sup = _potential_unguarded(model, outer)
        if value > sup:
            raise RangeError(
                f"level {value!r} exceeds the branch supremum {sup!r}")

    def f(x: float) -> float:
        u = _potential_unguarded(model, x)
        if math.isinf(u):
            return math.inf
        return u - value

    lo, hi = (mid, outer) if branch is Branch.RIGHT else (outer, mid)
    return _bisect(f, lo, hi, tol=model.root_tol)


def balance_points(model: HookeModel, level: float) -> BalancePoints:
    """The unique pair omega_m < eps/2 < omega_M with force(omega_m) = +level
    and force(omega_M) = -level (monotonicity gives uniqueness)."""
    if not (level > 0.0):
        raise DomainError(f"the balance level must be positive, got {level!r}")
    lo, hi = model.domain
    mid = model.midpoint

    def f_left(x: float) -> float:
        return force(model, x) - level

    def f_right(x: float) -> float:
        return force(model, x) + level

    om_m = _bisect(f_left, lo, mid, tol=model.root_tol)
    om_M = _bisect(f_right, mid, hi, tol=model.root_tol)
    return BalancePoints(omega_m=om_m, omega_M=om_M, level=level)


def validate_model(model: HookeModel, grid_size: int = 1024) -> ValidationReport:
    """Sample the force on an interior grid and report violations of the
    four structural hypotheses.  Passes iff no violations.

    H1 monotone decreasing, H2 midpoint zero, H3 odd symmetry about the
    midpoint, H4 convex left of the midpoint / concave right of it.
    """
    if grid_size < 8:
        raise DomainError("grid_size must be at least 8")
    eps = model.epsilon
    # Uniform interior grid, symmetric about and including the midpoint.
    half = max(4, grid_size // 2)
    grid = model.midpoint + np.linspace(-0.48 * eps, 0.48 * eps, 2 * half + 1)
    mid = half
    fv = force(model, grid)
    scale = max(1.0, float(np.max(np.abs(fv))))
    tol = 1e-9 * scale

    failures: list[str] = []
    worst: dict = {}

    d = np.diff(fv)
    if np.any(d >= 0.0):
        failures.append("H1")
        worst["H1"] = float(np.max(d))

    f_mid = force(model, model.midpoint)
    if abs(f_mid) > tol:
        failures.append("H2")
        worst["H2"] = float(f_mid)

    asym = fv + fv[::-1]
    if np.any(np.abs(asym) > tol):
        failures.append("H3")
        worst["H3"] = float(np.max(np.abs(asym)))

    # Second differences: >= 0 left of the midpoint, <= 0 right of it.
    d2l = np.diff(fv[: mid + 1], 2)
    d2r = np.diff(fv[mid:], 2)
    if np.any(d2l < -tol) or np.any(d2r > tol):
        failures.append("H4")
        worst["H4"] = float(max(np.max(-d2l, initial=0.0), np.max(d2r, initial=0.0)))

    return ValidationReport(grid_size=grid_size, failures=tuple(failures), worst=worst)
