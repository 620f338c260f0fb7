"""Test-only helpers: an energy-balance check of sampled paths, the
linear transport solve under frozen fields, and the exact solve of a few
molecules with no bond force."""

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


def _quadratic_roots(a: float, b: float, c: float) -> list[float]:
    """Real roots of a*t**2 + b*t + c, without cancellation."""
    if a == 0.0:
        return [] if b == 0.0 else [-c / b]
    disc = b * b - 4.0 * a * c
    if disc < 0.0:
        return []
    q = -0.5 * (b + np.copysign(np.sqrt(disc), b))
    return [q / a] if q == 0.0 else [q / a, c / q]


def exact_force_free(z, w, T: float) -> np.ndarray:
    """The rows z = (x, v, omega, eta) of molecules with masses w at time
    T under their own field and no bond force, exact to rounding.

    Atom x_i + s*omega_i (s = +-1) feels F(y) = sum_j w_j sign(x_j - y),
    the field of the centres, its own included.  Between crossings of an
    atom with another centre the accelerations are constant, so the motion
    is quadratic in t, and each crossing is the earliest root of a
    quadratic (the event-driven sheet model of J. Dawson, Phys. Fluids 5,
    445 (1962)).  At a crossing the new side is the sign of the relative
    velocity there; positions that coincide up to rounding would leave
    the crossed atom in the field it had before.
    """
    z = np.array(z, dtype=float)
    w = np.asarray(w, dtype=float)
    n = len(w)
    pairs = [(i, j, s) for i in range(n) for j in range(n) if j != i for s in (1.0, -1.0)]
    side = {(i, j, s): np.sign(z[j, 0] - z[i, 0] - s * z[i, 2]) for i, j, s in pairs}
    t = 0.0
    for _ in range(10_000):
        acc = np.zeros((n, 4))
        for i in range(n):
            f = {s: -s * w[i] + sum(w[j] * side[(i, j, s)] for j in range(n) if j != i)
                 for s in (1.0, -1.0)}
            acc[i, 1], acc[i, 3] = f[1.0] + f[-1.0], f[1.0] - f[-1.0]
        step, hits = T - t, []
        for p in pairs:
            i, j, s = p
            a = 0.5 * (acc[j, 1] - acc[i, 1] - s * acc[i, 3])
            b = z[j, 1] - z[i, 1] - s * z[i, 3]
            c = z[j, 0] - z[i, 0] - s * z[i, 2]
            for r in _quadratic_roots(a, b, c):
                # Only a root where the gap leaves its present side.
                if 0.0 < r <= step and (b + 2.0 * a * r) * side[p] < 0.0:
                    step, hits = r, ([p] if r < step else hits + [p])
        z[:, 0::2] += step * z[:, 1::2] + 0.5 * step**2 * acc[:, 1::2]
        z[:, 1::2] += step * acc[:, 1::2]
        t += step
        if not hits:
            return z
        for p in hits:
            side[p] = -side[p]
    raise AssertionError(f"more than 10,000 crossings before T = {T!r}")
