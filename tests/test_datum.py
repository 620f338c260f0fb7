import math

import numpy as np
import pytest
from scipy.stats import qmc

from diatomic_vlasov.datum import sobol_box

LO = [-0.5, -0.3, 0.45, -0.3]
HI = [0.5, 0.3, 0.55, 0.3]


def scipy_box(n, lo, hi, base=None):
    """The points ``sobol_box`` drew from scipy: the 2**m prefix of the
    unscrambled sequence (``base``, if given), cut to n and scaled by
    ``qmc.scale``."""
    lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    pad = np.maximum(lo + 1e-300, np.nextafter(lo, np.inf))
    if base is None:
        m = max(1, math.ceil(math.log2(max(2, n))))
        base = qmc.Sobol(d=4, scramble=False).random_base2(m)
    return qmc.scale(base[:n], lo, np.where(hi > lo, hi, pad))


def same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


class TestSobolBox:
    def test_equals_scipy_for_every_n_to_8192(self):
        bad = []
        for m in range(1, 14):  # n in (2**(m-1), 2**m] draws 2**m points
            base = qmc.Sobol(d=4, scramble=False).random_base2(m)
            bad += [n for n in range(2 ** (m - 1) + 1 if m > 1 else 1, 2 ** m + 1)
                    if not same_bits(sobol_box(n, LO, HI), scipy_box(n, LO, HI, base))]
        assert bad == []

    def test_equals_scipy_at_2_16(self):
        assert same_bits(sobol_box(2 ** 16, LO, HI), scipy_box(2 ** 16, LO, HI))

    @pytest.mark.parametrize("lo, hi", [
        ([0.0, -1.0, 0.5, 2.0], [0.0, 1.0, 0.5, 3.0]),          # zero width
        ([1e300, -1.0, 5e-324, 0.0], [1e300, -2.0, 0.0, 1.0]),  # hi < lo, tiny lo
    ], ids=["zero-width", "hi-below-lo"])
    def test_degenerate_axes_take_the_pad(self, lo, hi):
        for n in (1, 5, 100):
            assert same_bits(sobol_box(n, lo, hi), scipy_box(n, lo, hi))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_nan_or_inf_lower_bound_raises(self, bad):
        lo = [0.0, bad, 0.0, 0.0]
        for box in (sobol_box, scipy_box):
            with pytest.raises(ValueError):
                box(7, lo, [1.0] * 4)

    def test_more_than_2_30_points_raise(self):
        with pytest.raises(ValueError):
            sobol_box(2 ** 30 + 1, LO, HI)
