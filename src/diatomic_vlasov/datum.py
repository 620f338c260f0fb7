"""Initial phase densities and their deterministic particle sampling.

The stock datum is a product of C1 bump profiles, one per coordinate:
amplitude * prod_c (1 - u_c**2)**2 with u_c = (z_c - center_c)/width_c,
supported on |u_c| < 1.  Sampling is tensor-grid midpoint quadrature over
a box: one particle per cell center carrying mass value*cell_volume,
with zero-mass cells pruned.  No randomness anywhere, so resampling a
config reproduces the ensemble bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.stats import qmc

from .errors import ConfigError
from .field import Ensemble

__all__ = ["BumpDatum", "sample_datum", "sobol_box"]


@dataclass(frozen=True)
class BumpDatum:
    """Product-of-bumps density with per-axis center and width."""

    centers: tuple[float, float, float, float]
    widths: tuple[float, float, float, float]
    amplitude: float = 1.0

    def __post_init__(self):
        if any(w <= 0.0 for w in self.widths):
            raise ConfigError("bump widths must be positive")
        if self.amplitude < 0.0:
            raise ConfigError("bump amplitude must be nonnegative")

    def support(self) -> tuple[tuple[float, float], ...]:
        """Per-axis support intervals (open)."""
        return tuple((c - w, c + w) for c, w in zip(self.centers, self.widths))

    def value(self, x, v, omega, eta):
        """Density value at phase points; accepts arrays."""
        out = np.full(np.broadcast_shapes(np.shape(x), np.shape(v),
                                          np.shape(omega), np.shape(eta)),
                      self.amplitude, dtype=float)
        for arr, c, w in zip((x, v, omega, eta), self.centers, self.widths):
            u = (np.asarray(arr, dtype=float) - c) / w
            prof = np.where(np.abs(u) < 1.0, (1.0 - u * u) ** 2, 0.0)
            out = out * prof
        return out


def sample_datum(datum: BumpDatum, box, shape, epsilon: float) -> Ensemble:
    """Midpoint-quadrature particle sampling of a datum over a box.

    ``box`` is ((x_lo, x_hi), (v_lo, v_hi), (om_lo, om_hi), (eta_lo,
    eta_hi)); ``shape`` the cell counts per axis.  The omega edge of the
    box must lie strictly inside (0, epsilon).
    """
    box = tuple((float(a), float(b)) for a, b in box)
    shape = tuple(int(n) for n in shape)
    if len(box) != 4 or len(shape) != 4 or any(n < 1 for n in shape):
        raise ConfigError("box and shape must cover the four phase axes")
    if any(b <= a for a, b in box):
        raise ConfigError("box intervals must have positive length")
    om_lo, om_hi = box[2]
    if not (0.0 < om_lo and om_hi < epsilon):
        raise ConfigError(
            f"omega box [{om_lo!r}, {om_hi!r}] must lie strictly inside (0, {epsilon!r})")

    axes = []
    cell = 1.0
    for (a, b), n in zip(box, shape):
        h = (b - a) / n
        axes.append(a + h * (np.arange(n) + 0.5))
        cell *= h
    gx, gv, go, ge = np.meshgrid(*axes, indexing="ij")
    vals = datum.value(gx, gv, go, ge).ravel()
    keep = vals > 0.0
    vals = vals[keep]
    return Ensemble(
        x=gx.ravel()[keep], v=gv.ravel()[keep],
        omega=go.ravel()[keep], eta=ge.ravel()[keep],
        w=vals * cell, f_values=vals)


def sobol_box(n: int, lo, hi) -> np.ndarray:
    """First n points of the unscrambled 4d Sobol sequence scaled into the
    box [lo, hi].  A degenerate axis (hi <= lo) is padded to lo + 1e-300,
    or to the next float where that sum rounds back to lo.
    """
    sampler = qmc.Sobol(d=4, scramble=False)
    pts = sampler.random_base2(max(1, math.ceil(math.log2(max(2, n)))))[:n]
    lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    pad = np.maximum(lo + 1e-300, np.nextafter(lo, np.inf))
    return qmc.scale(pts, lo, np.where(hi > lo, hi, pad))
