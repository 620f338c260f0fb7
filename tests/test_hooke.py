import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from diatomic_vlasov import (
    Branch,
    DomainError,
    HookeKind,
    HookeModel,
    RangeError,
    balance_points,
    custom_model,
    force,
    inverse_potential,
    potential_to_midpoint,
    table_model,
    tangent_model,
    validate_model,
)

LN2_OVER_2PI = math.log(2.0) / (2.0 * math.pi)


class TestForce:
    def test_midpoint_zero(self, tan1):
        assert force(tan1, 0.5) == 0.0

    def test_quarter_point(self, tan1):
        # -tan(-pi/4) = 1 by hand
        assert force(tan1, 0.25) == pytest.approx(1.0, rel=1e-12)

    def test_odd_mirror(self, tan1):
        assert force(tan1, 0.75) == pytest.approx(-1.0, rel=1e-12)

    def test_matches_platform_tan(self, tan1):
        w = 0.371
        assert force(tan1, w) == -math.tan(math.pi * (w - 0.5))

    def test_domain_guard(self, tan1):
        with pytest.raises(DomainError):
            force(tan1, 0.0)
        with pytest.raises(DomainError):
            force(tan1, 1.0)
        with pytest.raises(DomainError):
            force(tan1, 1e-12)  # inside (0,1) but inside the guard band

    def test_vectorized(self, tan1):
        w = np.array([0.25, 0.5, 0.75])
        np.testing.assert_allclose(force(tan1, w), [1.0, 0.0, -1.0], atol=1e-12)

    @given(s=st.floats(min_value=2e-4, max_value=0.4999))
    @settings(max_examples=200, deadline=None)
    def test_odd_symmetry_property(self, s):
        # s below ~1e-4 would test input rounding (ulp(0.5)/s), not the force
        m = tangent_model(1.0)
        left = force(m, 0.5 - s)
        right = force(m, 0.5 + s)
        assert right == pytest.approx(-left, rel=1e-12, abs=1e-300)

    def test_strictly_decreasing_on_grid(self, tan1):
        w = np.linspace(0.01, 0.99, 4001)
        f = force(tan1, w)
        assert np.all(np.diff(f) < 0.0)


class TestPotential:
    def test_midpoint_empty_integral(self, tan1):
        assert potential_to_midpoint(tan1, 0.5) == 0.0

    def test_closed_form_value(self, tan1):
        assert potential_to_midpoint(tan1, 0.75) == pytest.approx(LN2_OVER_2PI, rel=1e-12)

    def test_mirror_symmetry(self, tan1):
        assert potential_to_midpoint(tan1, 0.25) == pytest.approx(LN2_OVER_2PI, rel=1e-12)

    def test_cross_check_by_quadrature(self, tan1):
        # independent route: adaptive quadrature of the force itself
        for x in (0.12, 0.33, 0.61, 0.88):
            ref, _ = quad(lambda y: -math.tan(math.pi * (y - 0.5)), x, 0.5,
                          epsabs=1e-14, epsrel=1e-12)
            assert potential_to_midpoint(tan1, x) == pytest.approx(ref, rel=1e-9)

    def test_nonnegative_everywhere(self, tan1):
        w = np.linspace(0.01, 0.99, 999)
        assert np.all(potential_to_midpoint(tan1, w) >= 0.0)

    def test_epsilon_scaling(self):
        m2 = tangent_model(2.0)
        # rescale of the unit case: U_eps(eps*x) = eps * U_1(x)
        assert potential_to_midpoint(m2, 1.5) == pytest.approx(2 * LN2_OVER_2PI, rel=1e-12)

    def test_derivative_consistency_richardson(self, tan1):
        # (U(x+h) - U(x-h)) / 2h -> -force(x) at O(h^2)
        x = 0.41
        errs = []
        for h in (1e-3, 5e-4, 2.5e-4):
            d = (potential_to_midpoint(tan1, x + h)
                 - potential_to_midpoint(tan1, x - h)) / (2 * h)
            errs.append(abs(d + force(tan1, x)))
        slopes = np.diff(np.log(errs)) / np.diff(np.log([1e-3, 5e-4, 2.5e-4]))
        assert np.all(np.abs(slopes - 2.0) < 0.2)

    def test_custom_antiderivative_matches_tangent(self, tan1):
        # The tangent law as a callable with its antiderivative log(cos)/pi.
        m = custom_model(1.0, lambda w: -np.tan(np.pi * (w - 0.5)),
                         lambda w: np.log(np.cos(np.pi * (w - 0.5))) / np.pi)
        # Both forms agree to a few ulps (at most 2.4e-15 relative here);
        # 1e-13 leaves a margin.  Points next to the midpoint are left out,
        # where log(cos) cancels and only an absolute bound would hold.
        w = np.array([0.01, 0.05, 0.12, 0.25, 0.4, 0.5, 0.6, 0.75, 0.88, 0.99])
        np.testing.assert_allclose(potential_to_midpoint(m, w),
                                   potential_to_midpoint(tan1, w), rtol=1e-13, atol=0.0)
        assert potential_to_midpoint(m, 0.75) == pytest.approx(LN2_OVER_2PI, rel=1e-13)

    @pytest.mark.parametrize("given", ["force_fn", "antiderivative"])
    def test_custom_model_needs_both_callables(self, given):
        with pytest.raises(DomainError, match="force callable and its antiderivative"):
            HookeModel(1.0, HookeKind.CUSTOM, **{given: lambda w: 0.5 - w})


class TestInversePotential:
    def test_zero_level_is_midpoint(self, tan1):
        assert inverse_potential(tan1, 0.0, Branch.RIGHT) == 0.5

    def test_known_level_right(self, tan1):
        assert inverse_potential(tan1, LN2_OVER_2PI, Branch.RIGHT) == pytest.approx(0.75, abs=1e-10)

    def test_known_level_left(self, tan1):
        assert inverse_potential(tan1, LN2_OVER_2PI, Branch.LEFT) == pytest.approx(0.25, abs=1e-10)

    @pytest.mark.parametrize("x", np.linspace(0.05, 0.95, 19))
    def test_roundtrip(self, tan1, x):
        u = potential_to_midpoint(tan1, x)
        br = Branch.RIGHT if x >= 0.5 else Branch.LEFT
        assert inverse_potential(tan1, u, br) == pytest.approx(x, abs=1e-8)

    def test_huge_level_stays_inside(self, tan1):
        x = inverse_potential(tan1, 50.0, Branch.RIGHT)
        assert 0.5 < x < 1.0

    def test_finite_well_range_error(self):
        # linear, bounded well
        m = custom_model(1.0, lambda w: 0.5 - w, lambda w: 0.5 * w - 0.5 * w * w)
        with pytest.raises(RangeError):
            inverse_potential(m, 10.0, Branch.RIGHT)


class TestBalancePoints:
    def test_unit_level(self, tan1):
        b = balance_points(tan1, 1.0)
        assert b.omega_m == pytest.approx(0.25, rel=1e-10)
        assert b.omega_M == pytest.approx(0.75, rel=1e-10)

    def test_small_level_collapses_to_midpoint(self, tan1):
        b = balance_points(tan1, 1e-9)
        assert b.omega_m == pytest.approx(0.5, abs=1e-8)
        assert b.omega_M == pytest.approx(0.5, abs=1e-8)

    def test_epsilon_rescale(self):
        b = balance_points(tangent_model(2.0), 1.0)
        assert b.omega_m == pytest.approx(0.5, rel=1e-10)
        assert b.omega_M == pytest.approx(1.5, rel=1e-10)

    def test_matches_arctan_closed_form(self, tan1):
        # independent oracle: omega_m = 1/2 - arctan(C)/pi for the unit model
        for c in (0.3, 2.0, 7.5):
            b = balance_points(tan1, c)
            assert b.omega_m == pytest.approx(0.5 - math.atan(c) / math.pi, abs=1e-11)
            assert b.omega_M == pytest.approx(0.5 + math.atan(c) / math.pi, abs=1e-11)

    def test_level_recovered(self, tan1):
        b = balance_points(tan1, 3.7)
        assert force(tan1, b.omega_m) == pytest.approx(3.7, rel=1e-9)
        assert force(tan1, b.omega_M) == pytest.approx(-3.7, rel=1e-9)


class TestValidateModel:
    def test_tangent_passes(self, tan1):
        assert validate_model(tan1, 1024).passed

    def test_sign_flipped_fails_monotonicity(self):
        m = custom_model(1.0, lambda w: np.tan(np.pi * (w - 0.5)),
                         lambda w: -np.log(np.cos(np.pi * (w - 0.5))) / np.pi)
        rep = validate_model(m, 64)
        assert not rep.passed
        assert "H1" in rep.failures

    def test_shifted_fails_midpoint_and_symmetry(self):
        m = custom_model(1.0, lambda w: -np.tan(np.pi * (w - 0.5)) + 0.1,
                         lambda w: np.log(np.cos(np.pi * (w - 0.5))) / np.pi + 0.1 * w)
        rep = validate_model(m, 64)
        assert rep.failures == ("H2", "H3")

    def test_concave_convex_swap_fails_h4(self):
        # odd, decreasing, midpoint-zero, but wrong curvature split
        m = custom_model(1.0, lambda w: -np.sin(np.pi * (w - 0.5)),
                         lambda w: np.cos(np.pi * (w - 0.5)) / np.pi)
        rep = validate_model(m, 128)
        assert "H4" in rep.failures


class TestTableModel:
    def test_table_reproduces_tangent(self, tan1):
        w = np.linspace(0.02, 0.98, 769)
        m = table_model(1.0, w, force(tan1, w))
        for x in (0.3, 0.5, 0.62):
            assert force(m, x) == pytest.approx(force(tan1, x), abs=2e-6)
        assert validate_model(m, 64).passed

    def test_out_of_hull_rejected(self, tan1):
        w = np.linspace(0.2, 0.8, 61)
        m = table_model(1.0, w, force(tan1, w))
        with pytest.raises(DomainError):
            force(m, 0.1)

    def test_bad_table_shapes(self):
        with pytest.raises(DomainError):
            table_model(1.0, [0.1, 0.2], [1.0, 0.5])
        with pytest.raises(DomainError):
            table_model(1.0, [0.3, 0.2, 0.4, 0.5], [1, 2, 3, 4])

    @pytest.mark.parametrize("w", [[0.1, 0.2, 0.3, 0.4], [0.55, 0.6, 0.7, 0.9]])
    def test_hull_must_contain_the_midpoint(self, w):
        with pytest.raises(DomainError, match="epsilon/2"):
            table_model(1.0, w, [4.0, 3.0, 2.0, 1.0])

    def test_potential_from_the_exact_antiderivative(self):
        # On this table, quadrature of the interpolated force fails to
        # converge where inverse_potential looks.
        om = np.linspace(0.01, 0.99, 99)
        m = table_model(1.0, om, -np.tan(np.pi * (om - 0.5)))
        x = inverse_potential(m, 1.0, Branch.RIGHT)
        assert x == pytest.approx(0.98611, abs=1e-5)
        assert potential_to_midpoint(m, x) == pytest.approx(1.0, rel=1e-11)
        # Where quadrature of the same force converges, both agree.
        pts = np.array([0.02, 0.1, 0.3, 0.45, 0.5, 0.7, 0.98])
        want = [quad(m.force_fn, p, 0.5, epsabs=0.0, epsrel=1e-10, limit=200)[0]
                for p in pts]
        np.testing.assert_allclose(potential_to_midpoint(m, pts), want, rtol=1e-9, atol=1e-15)
