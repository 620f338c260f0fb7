import json
import math

import numpy as np
import pytest
from scipy.optimize import brentq

from diatomic_vlasov import (
    BoundCertificate,
    BoundParameters,
    ConstantField,
    EventKind,
    InvalidCError,
    OscillationEvent,
    ParticleState,
    RangeError,
    StepControl,
    balance_points,
    build_certificate,
    certify,
    chaotic_bound,
    confinement_time,
    detect_events,
    displacement_bound,
    excursion_envelope,
    global_envelope,
    gronwall_constants,
    integrate,
    inverse_potential,
    omega_confinement,
    phase_bound,
    potential_to_midpoint,
    tangent_model,
    zero_field,
)
from diatomic_vlasov.hooke import Branch

LN2_OVER_2PI = math.log(2.0) / (2.0 * math.pi)


def params(eps=1.0, eps0=0.5, R=1.0, c_minus=1.0, c=1.0, model=None):
    return BoundParameters(epsilon=eps, epsilon0=eps0, R=R, C_minus=c_minus,
                           C=c, model=model or tangent_model(eps))


class TestGronwall:
    def test_reference_values(self):
        # force(0.25) = 1, so C1 = max{1, 2|1/(0.5-1)|} = 4 and C2 = 1 + 2
        c1, c2 = gronwall_constants(params())
        assert c1 == pytest.approx(4.0, rel=1e-12)
        assert c2 == pytest.approx(3.0, rel=1e-12)

    def test_zero_field_bound(self):
        _, c2 = gronwall_constants(params(c_minus=0.0))
        assert c2 == pytest.approx(2.0, rel=1e-12)

    def test_rescaled_domain(self):
        m2 = tangent_model(2.0)
        c1, c2 = gronwall_constants(params(eps=2.0, eps0=1.0, model=m2))
        assert c1 == pytest.approx(2.0, rel=1e-12)
        assert c2 == pytest.approx(1.0 + 2.0, rel=1e-12)


class TestPhaseBound:
    def test_t_zero_is_initial_sum(self):
        assert phase_bound(params(), 0.3, -0.4, 0.0) == pytest.approx(0.7, rel=1e-14)

    def test_reference_value(self):
        # 0.5 e^{0.4} + 0.75 (e^{0.4} - 1)
        val = phase_bound(params(), 0.5, 0.0, 0.1)
        expect = 0.5 * math.exp(0.4) + 0.75 * (math.exp(0.4) - 1.0)
        assert val == pytest.approx(expect, rel=1e-14)
        assert val == pytest.approx(1.1147, abs=1e-4)

    def test_monotone_in_time(self):
        p = params()
        ts = np.linspace(0.0, 1.0, 30)
        vals = [phase_bound(p, 0.5, 0.2, t) for t in ts]
        assert np.all(np.diff(vals) > 0)


class TestDisplacementBound:
    def test_zero_at_origin(self):
        assert displacement_bound(params(), 0.5, 0.2, 0.0) == 0.0

    def test_factorizes_through_phase_bound(self):
        p = params()
        s = 0.1
        assert displacement_bound(p, 0.5, 0.0, s) == pytest.approx(
            s * phase_bound(p, 0.5, 0.0, s), rel=1e-14)


class TestConfinementTime:
    def test_positive(self):
        assert confinement_time(params()) > 0.0

    def test_matches_independent_root(self):
        # independent root-finder on the same defining function
        p = params()
        t0 = confinement_time(p)
        f = lambda s: 2 * s * math.exp(4 * s) + 0.75 * s * (math.exp(4 * s) - 1) - 0.125
        ref = brentq(f, 1e-6, 1.0, xtol=1e-15)
        assert t0 == pytest.approx(ref, abs=1e-9)

    def test_shrinks_with_R(self):
        assert confinement_time(params(R=2.0)) < confinement_time(params(R=1.0))

    def test_band_actually_confines(self):
        # trajectories from [eps0, eps-eps0] x [-R, R] stay in the half band
        p = params(eps0=0.4, R=0.5, c_minus=0.2, c=0.2)
        t0 = confinement_time(p)
        ctl = StepControl(dt=t0 / 200)
        prov = ConstantField(0.0, 0.2)
        for om0 in (0.4, 0.5, 0.6):
            for et0 in (-0.5, 0.5):
                path = integrate(ParticleState(0, 0, om0, et0), prov,
                                 p.model, 0.0, t0, ctl)
                assert np.all(path.omega >= 0.2 - 1e-9)
                assert np.all(path.omega <= 0.8 + 1e-9)


class TestExcursionEnvelope:
    def test_zero_speed(self):
        assert excursion_envelope(0.0, params()) == pytest.approx(2.0, rel=1e-14)

    def test_reference_value(self):
        assert excursion_envelope(0.2, params()) == pytest.approx(
            math.sqrt(4.04), rel=1e-14)

    def test_identity(self):
        p = params()
        for h1 in (0.0, 0.3, 2.0, 11.0):
            env = excursion_envelope(h1, p)
            assert env * env - h1 * h1 == pytest.approx(4.0, rel=1e-12)
            assert env >= abs(h1)


class TestChaoticBound:
    def test_at_start(self):
        assert chaotic_bound(0.5, 0.0, 1.0) == 0.5

    def test_reference(self):
        assert chaotic_bound(0.5, 2.0, 1.0) == pytest.approx(4.5, rel=1e-14)

    def test_slope(self):
        c = 0.7
        v1 = chaotic_bound(0.0, 1.0, c)
        v2 = chaotic_bound(0.0, 2.0, c)
        assert v2 - v1 == pytest.approx(2.0 * c, rel=1e-14)

    def test_elapsed_time_array(self):
        # certify evaluates a whole inside-run at once.
        elapsed = np.array([0.0, 1.0, 2.0])
        assert chaotic_bound(-0.5, elapsed, 1.0).tolist() == [
            chaotic_bound(-0.5, s, 1.0) for s in elapsed.tolist()]
        with pytest.raises(RangeError):
            chaotic_bound(0.5, np.array([1.0, -1e-300]), 1.0)


class TestGlobalEnvelope:
    def test_t_zero_matches_excursion_form(self):
        p = params()
        _, _, env = global_envelope(p, eta_M=1.0, T=0.0)
        assert env == pytest.approx(math.sqrt(1.0 + 4.0), rel=1e-12)

    def test_composes_from_potential_inverse(self):
        p = params()
        turn = inverse_potential(p.model, 1.0 + LN2_OVER_2PI, Branch.RIGHT)
        c1_expect = 2.0 / (turn - 0.75)
        c1, c2, env = global_envelope(p, eta_M=1.0, T=1.0)
        assert c1 == pytest.approx(c1_expect, rel=1e-10)
        assert c2 == max(2.0, c1)
        assert env == pytest.approx(math.sqrt((c2 + 1.0) ** 2 + 4.0), rel=1e-12)

    def test_monotone_in_arguments(self):
        p = params()
        base = global_envelope(p, 1.0, 1.0)[2]
        assert global_envelope(p, 1.0, 2.0)[2] >= base
        assert global_envelope(p, 2.0, 1.0)[2] >= base

    def test_finite_well_invalid(self):
        # linear force: wells hold at most 1/8 of potential, below eps*C + I_M
        from diatomic_vlasov import custom_model
        m = custom_model(1.0, lambda w: 0.5 - np.asarray(w, dtype=float),
                         lambda w: 0.5 * w - 0.5 * np.asarray(w, dtype=float) ** 2)
        p = params(model=m, c=0.3)
        with pytest.raises(InvalidCError):
            global_envelope(p, 1.0, 1.0)


class TestOmegaConfinement:
    def test_t_zero_level_set(self):
        p = params()
        lo, hi = omega_confinement(p, omega0=0.6, eta_M=0.0, T=0.0)
        level = potential_to_midpoint(p.model, 0.6)
        assert potential_to_midpoint(p.model, lo) == pytest.approx(level, rel=1e-6)
        assert potential_to_midpoint(p.model, hi) == pytest.approx(level, rel=1e-6)
        assert lo < 0.5 < hi

    def test_widens_with_horizon(self):
        p = params()
        lo1, hi1 = omega_confinement(p, 0.6, 1.0, 0.5)
        lo2, hi2 = omega_confinement(p, 0.6, 1.0, 1.0)
        assert lo2 <= lo1 and hi2 >= hi1

    def test_reference_setup_strictly_inside(self):
        p = params()
        lo, hi = omega_confinement(p, 0.6, 1.0, 1.0)
        assert 0.0 < lo < 0.5 < hi < 1.0


class TestCertificate:
    def box(self):
        return (-0.5, 0.5, -0.3, 0.3, 0.42, 0.58, -0.4, 0.4)

    def test_build_and_serialize_roundtrip(self):
        p = params(eps0=0.42, R=0.5, c_minus=0.4, c=0.9)
        cert = build_certificate(p, self.box(), T=1.0)
        back = BoundCertificate.from_dict(json.loads(cert.to_json()))
        assert back == cert
        # The manifest's key order, which run directories are diffed by.
        assert list(cert.to_dict()) == [
            "epsilon", "T", "C", "C_minus", "C1", "C2", "t0", "balance", "I_M", "I_m",
            "C1_exc", "C2_exc", "eta_M", "H_envelope", "omega_confinement",
            "x_bound", "v_bound", "support_box"]
        assert list(cert.to_dict()["balance"]) == ["omega_m", "omega_M", "level"]

    def test_confinement_contains_initial_support(self):
        p = params(eps0=0.42, R=0.5, c_minus=0.4, c=0.9)
        cert = build_certificate(p, self.box(), T=1.0)
        lo, hi = cert.omega_confinement
        assert lo <= 0.42 and hi >= 0.58
        assert cert.C1 >= 1.0
        assert cert.t0 > 0.0

    def test_support_outside_balance_rejected(self):
        p = params(eps0=0.42, R=0.5, c_minus=0.4, c=0.05)
        with pytest.raises(InvalidCError):
            build_certificate(p, self.box(), T=1.0)


class TestCertify:
    def run_path(self, c=0.3, h0=0.2):
        p = params(c_minus=c, c=c)
        bal = balance_points(p.model, c)
        prov = ConstantField(0.0, 0.5 * c)  # fields well under the budget C
        path = integrate(ParticleState(0, 0, 0.5, h0), prov, p.model,
                         0.0, 2.0, StepControl(dt=1e-3), balance=bal)
        cert = build_certificate(
            p, (-0.1, 0.1, -0.1, 0.1, 0.45, 0.55, -abs(h0), abs(h0)), T=2.0)
        return path, cert

    def test_autonomous_oscillation_passes(self):
        tan1 = tangent_model(1.0)
        p = params(c_minus=0.3, c=0.3)
        bal = balance_points(tan1, 0.3)
        path = integrate(ParticleState(0, 0, 0.52, 0.1), zero_field(), tan1,
                         0.0, 2.0, StepControl(dt=1e-3), balance=bal)
        cert = build_certificate(
            p, (-0.1, 0.1, -0.1, 0.1, 0.48, 0.55, -0.1, 0.1), T=2.0)
        report = certify(path, cert)
        assert report.passed
        names = [c.name for c in report.checks]
        assert names == ["field_norm_precondition", "chaotic_bound",
                         "excursion_envelope", "global_envelope",
                         "omega_confinement", "work_bound"]

    def test_driven_run_passes(self):
        path, cert = self.run_path()
        report = certify(path, cert)
        assert report.passed, report.to_dict()

    def test_edited_sample_fails_envelope(self):
        path, cert = self.run_path()
        k = len(path) // 2
        path.eta[k] = cert.H_envelope + 1.0  # inject a violation
        report = certify(path, cert)
        assert not report.passed
        bad = {c.name for c in report.checks if not c.passed}
        assert "global_envelope" in bad
        glob = next(c for c in report.checks if c.name == "global_envelope")
        assert glob.first_violation == k

    def test_edited_omega_fails_confinement(self):
        path, cert = self.run_path()
        path.omega[5] = cert.omega_confinement[1] + 1e-3
        report = certify(path, cert)
        conf = next(c for c in report.checks if c.name == "omega_confinement")
        assert not conf.passed and conf.first_violation == 5

    def test_excursion_spans_pairs_then_open_exits(self):
        # The exit at omega_m (t = 0.1) stays open to the end; the exit at
        # omega_M (t = 0.2) returns at t = 0.5.  Spans are checked pairs
        # first, then open exits, so first_violation is the first bad
        # sample of the first span that has one, not the earliest overall.
        path, cert = self.run_path()

        def event(kind, t, eta, boundary):
            return OscillationEvent(kind=kind, time=t, boundary=boundary,
                                    state=ParticleState(0.0, 0.0, 0.5, eta))

        path.events = [event(EventKind.EXIT_CHAOTIC, 0.1, -0.1, "omega_m"),
                       event(EventKind.EXIT_CHAOTIC, 0.2, 0.1, "omega_M"),
                       event(EventKind.RETURN_TIME, 0.5, -0.1, "omega_M")]
        k_open, k_pair, k_late = (int(np.searchsorted(path.t, tq))
                                  for tq in (0.15, 0.3, 1.8))

        def excursion(*bad):
            for k in bad:
                path.eta[k] = 10.0
            rep = certify(path, cert)
            return next(c for c in rep.checks if c.name == "excursion_envelope")

        late = excursion(k_late)  # only the open exit reaches t = 1.8
        assert not late.passed and late.first_violation == k_late
        assert late.note == "1 exit/return pairs"
        both = excursion(k_open, k_pair)
        assert both.first_violation == k_pair
        assert both.worst_margin == late.worst_margin < 0.0

    def test_field_norm_precondition(self):
        path, cert = self.run_path()
        path.max_field_norm = cert.C + 1.0
        report = certify(path, cert)
        pre = next(c for c in report.checks if c.name == "field_norm_precondition")
        assert not pre.passed

    def test_tightening_dt_keeps_passing(self):
        for dt in (2e-3, 1e-3, 5e-4):
            p = params(c_minus=0.3, c=0.3)
            bal = balance_points(p.model, 0.3)
            path = integrate(ParticleState(0, 0, 0.5, 0.2),
                             ConstantField(0.0, 0.15), p.model,
                             0.0, 2.0, StepControl(dt=dt), balance=bal)
            cert = build_certificate(
                p, (-0.1, 0.1, -0.1, 0.1, 0.45, 0.55, -0.2, 0.2), T=2.0)
            assert certify(path, cert).passed

    def test_report_json(self):
        path, cert = self.run_path()
        d = json.loads(certify(path, cert).to_json())
        assert d["passed"] is True
        assert len(d["checks"]) == 6

    def test_failing_work_bound_report_json(self):
        # Bound C*eps + slack = 0.02: the first eta-sign segment does
        # about 0.011 of work and passes, the second about 0.032 and fails,
        # so the violation index comes from a later segment's start.
        path, cert = self.run_path(h0=-0.2)
        rep = certify(path, cert, slack=0.02 - cert.C * cert.epsilon)
        work = [c for c in rep.checks if c.name == "work_bound"][0]
        assert not work.passed and work.first_violation > 0
        d = json.loads(rep.to_json())
        back = [c for c in d["checks"] if c["name"] == "work_bound"][0]
        assert type(back["first_violation"]) is int
        assert back["first_violation"] == work.first_violation
