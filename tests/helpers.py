"""Test-only helpers: an energy-balance check of sampled paths and the
linear transport solve under frozen fields."""

from __future__ import annotations

import numpy as np

from diatomic_vlasov import hooke
from diatomic_vlasov.errors import ConfigError, DiatomicVlasovError
from diatomic_vlasov.picard import _backward_values
from diatomic_vlasov.simulator import _march


class SegmentOutOfRangeError(DiatomicVlasovError):
    """A diagnostic segment lies outside the sampled path range."""


def force_free_model():
    """A custom law with no bond force, so a flat potential."""
    def zero(w):
        return np.zeros_like(np.asarray(w, dtype=float))

    return hooke.custom_model(1.0, zero, zero)


def energy_residual(path, segment: tuple[float, float], model) -> float:
    """Defect of the oscillatory energy balance over a path segment.

    Compares the change of eta**2/2 against the work of the difference
    field (trapezoid rule on the samples) plus the bond-potential drop.
    Shrinks as O(dt**2) under step refinement.
    """
    ta, tb = segment
    t = path.t
    tol = 1e-9 * max(1.0, abs(t[-1]) - abs(t[0]))
    if ta < t[0] - tol or tb > t[-1] + tol or tb < ta:
        raise SegmentOutOfRangeError(
            f"segment [{ta!r}, {tb!r}] outside path range [{t[0]!r}, {t[-1]!r}]")
    ia = int(np.searchsorted(t, ta - tol, side="left"))
    ib = int(np.searchsorted(t, tb + tol, side="right")) - 1
    if ib <= ia:
        return 0.0
    sl = slice(ia, ib + 1)
    work = float(np.trapezoid(path.eta[sl] * path.f_minus[sl], path.t[sl]))
    u_a = hooke.potential_to_midpoint(model, float(path.omega[ia]))
    u_b = hooke.potential_to_midpoint(model, float(path.omega[ib]))
    dkin = 0.5 * float(path.eta[ib]) ** 2 - 0.5 * float(path.eta[ia]) ** 2
    # Bond-force integral over [omega_a, omega_b] equals U(a) - U(b).
    return dkin - work - (u_a - u_b)


def solve_linear(f0, frozen_fields, model, T: float, control, dt_macro: float | None = None,
                 datum=None):
    """Transport the sampled datum under frozen fields up to time T.

    Returns (ensemble at T, evaluate) where ``evaluate(z)`` gives the
    solution value at phase points z at time T by backward characteristics
    (needs the pointwise datum; z is an (n, 4) array).  Weights are
    untouched: values are transported, never rescaled.
    """
    dt_macro = control.dt if dt_macro is None else dt_macro
    moved, _ = _march(f0, T, dt_macro, model, control, lambda k, ens: frozen_fields)

    def evaluate(z: np.ndarray) -> np.ndarray:
        if datum is None:
            raise ConfigError("pointwise evaluation needs the datum")
        return _backward_values(datum, np.asarray(z, dtype=float), [frozen_fields],
                                model, T, dt_macro, control)

    return moved, evaluate
