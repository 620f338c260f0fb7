"""Initial phase densities and their deterministic particle sampling.

The stock datum is a product of C1 bump profiles, one per coordinate:
amplitude * prod_c (1 - u_c**2)**2 with u_c = (z_c - center_c)/width_c,
supported on |u_c| < 1.  Sampling is tensor-grid midpoint quadrature over
a box: one particle per cell center carrying mass value*cell_volume,
with zero-mass cells pruned.  No randomness anywhere, so resampling a
config reproduces the ensemble bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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
            # |u|, taken as 1 outside the support (and for NaN), so that a
            # far point cannot overflow the quotient or its square.
            u = np.fmin(np.abs(np.asarray(arr, dtype=float) - c), w) / w
            out = out * (1.0 - u * u) ** 2
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


# Unscrambled Sobol points (Bratley & Fox, ACM TOMS 14, 1988, Algorithm
# 659) on 30 bits.  Dimension 1 is van der Corput (every m_k = 1);
# dimensions 2-4 take the Joe & Kuo (SIAM J. Sci. Comput. 30, 2008)
# primitive polynomials as (degree s, coefficient bits a, initial m).
_SOBOL_BITS = 30
MAX_SOBOL_POINTS = 2 ** _SOBOL_BITS  # sobol_box's largest n
_JOE_KUO = ((1, 0, (1,)), (2, 1, (1, 3)), (3, 1, (1, 3, 1)))


def _direction_numbers() -> np.ndarray:
    """(bits, 4) direction numbers v_k = m_k * 2**(bits - k), k = 1..bits."""
    cols = [[1] * _SOBOL_BITS]
    for s, a, m in _JOE_KUO:
        m = list(m)
        for k in range(s, _SOBOL_BITS):
            mk = m[k - s] ^ (m[k - s] << s)
            for j in range(1, s):
                if (a >> (s - 1 - j)) & 1:
                    mk ^= m[k - j] << j
            m.append(mk)
        cols.append(m)
    return np.array([[mk << (_SOBOL_BITS - 1 - k) for k, mk in enumerate(col)]
                     for col in cols], dtype=np.uint32).T


_SOBOL_V = _direction_numbers()


def sobol_box(n: int, lo, hi) -> np.ndarray:
    """First n points of the unscrambled 4d Sobol sequence scaled into the
    box [lo, hi].  A degenerate axis (hi <= lo) is padded to lo + 1e-300,
    or to the next float where that sum rounds back to lo.

    The points are those of ``scipy.stats.qmc.Sobol(d=4, scramble=False)``
    bit for bit: 30-bit integers in Gray-code order (point i is the XOR of
    the direction numbers picked by the bits of i ^ (i >> 1)) times 2**-30,
    with van der Corput in dimension 1 and the Joe-Kuo direction numbers in
    dimensions 2-4.  Raises ValueError, as scipy does, when a lower bound
    is not below its padded upper bound (NaN, +inf) or n exceeds 2**30.
    """
    m = max(0, int(n) - 1).bit_length()
    if m > _SOBOL_BITS:
        raise ValueError(f"at most 2**{_SOBOL_BITS} Sobol points, got n={n}")
    lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    pad = np.maximum(lo + 1e-300, np.nextafter(lo, np.inf))
    up = np.where(hi > lo, hi, pad)
    if not np.all(lo < up):
        raise ValueError(f"Sobol box bounds need lo < hi, got {lo} and {up}")
    # XOR of v_k over the bits of j, for every j < 2**m, by doubling.
    q = np.zeros((1 << m, 4), dtype=np.uint32)
    for k in range(m):
        q[1 << k:2 << k] = q[:1 << k] ^ _SOBOL_V[k]
    i = np.arange(n)
    return q[i ^ (i >> 1)] * 2.0 ** -_SOBOL_BITS * (up - lo) + lo
