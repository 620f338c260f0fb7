import csv
import math
import sys
from dataclasses import astuple
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as hs
from scipy.integrate import solve_ivp

from diatomic_vlasov import trajectory
from diatomic_vlasov import (
    ConstantField,
    DomainError,
    EventKind,
    FieldSnapshot,
    ParticleState,
    StepControl,
    StepUnderflowError,
    balance_points,
    build_field,
    custom_model,
    detect_events,
    Ensemble,
    OscillationEvent,
    integrate,
    integrate_batch,
    jacobian_estimate,
    potential_to_midpoint,
    table_model,
    tangent_model,
    zero_field,
)
from helpers import SegmentOutOfRangeError, energy_residual, force_free_model


def reference_bond_orbit(model_eps, omega0, eta0, t_eval, f_minus=0.0):
    """High-accuracy reference for the (omega, eta) subsystem."""

    def rhs(t, y):
        return [y[1], f_minus - math.tan(math.pi / model_eps * (y[0] - model_eps / 2))]

    sol = solve_ivp(rhs, (0.0, t_eval[-1]), [omega0, eta0], t_eval=t_eval,
                    rtol=1e-12, atol=1e-14, method="DOP853", max_step=0.01)
    return sol.y


def cubic_model():
    """Cubic bond law: numpy and Python floats evaluate it alike, bit for bit."""
    def cubic(w):
        u = np.asarray(w, dtype=float) - 0.5
        return -1000.0 * u * u * u

    return custom_model(1.0, cubic, lambda w: -250.0 * (np.asarray(w, dtype=float) - 0.5) ** 4)


def tangent_table():
    """The tangent law tabulated on [0.001, 0.999]."""
    grid = np.linspace(0.001, 0.999, 999)
    return table_model(1.0, grid, -np.tan(np.pi * (grid - 0.5)))


def opening_pair(snap, z):
    """The opening field pair of the (n, 4) rows z under snap."""
    return snap.pm(z[:, 0], z[:, 2])


def push(st, provider, model, dt):
    """One step: the final state of ``integrate`` over [0, dt]."""
    path = integrate(st, provider, model, 0.0, dt, StepControl(dt=dt))
    assert len(path) == 2
    return path.state_at(1)


class TestPush:
    def test_fixed_point(self, tan1):
        st = ParticleState(0.0, 0.0, 0.5, 0.0)
        out = push(st, zero_field(), tan1, 1e-3)
        assert (out.x, out.v, out.omega, out.eta) == (0.0, 0.0, 0.5, 0.0)

    def test_constant_fplus_ballistic(self):
        # bond force off: splitting is exact for a constant push
        model = force_free_model()
        prov = ConstantField(f_plus=0.3, f_minus=0.0)
        st = ParticleState(x=1.0, v=0.2, omega=0.5, eta=0.0)
        dt = 0.05
        for k in range(1, 11):
            st = push(st, prov, model, dt)
            t = k * dt
            assert st.v == pytest.approx(0.2 + 0.3 * t, rel=1e-14)
            assert st.x == pytest.approx(1.0 + 0.2 * t + 0.15 * t * t, rel=1e-13)

    def test_domain_guard_on_input(self, tan1):
        with pytest.raises(DomainError):
            push(ParticleState(0, 0, 1.0 - 1e-12, 0), zero_field(), tan1, 1e-3)

    def test_underflow_when_drift_must_exit(self):
        # force-free custom model: nothing stops the drift, so halving
        # bottoms out and the step reports a blow-up candidate
        model = force_free_model()
        st = ParticleState(0.0, 0.0, 0.95, 1.0)
        msg = r"at dt=9\.765625e-05: omega=0\.99990234375 .*; in the step from t=0\.0$"
        with pytest.raises(StepUnderflowError, match=msg) as exc:
            push(st, zero_field(), model, 0.1)
        assert exc.value.time == 0.0
        # The drift (omega' = 1) leaves the band in the step from t = 0.04,
        # the third of dt = 0.02; backward (omega' = -1 from t = 0.1), in
        # the step from t = 0.06.  Each loop sets the failing step's start.
        ctl = StepControl(dt=0.02)
        with pytest.raises(StepUnderflowError) as exc:
            integrate(st, zero_field(), model, 0.0, 0.1, ctl)
        assert exc.value.time == pytest.approx(0.04, rel=1e-12)
        for t0, t1, eta in ((0.0, 0.1, 1.0), (0.1, 0.0, -1.0)):
            with pytest.raises(StepUnderflowError) as exc:
                integrate_batch(np.array([[0.0, 0.0, 0.5, 0.0], [0.0, 0.0, 0.95, eta]]),
                                zero_field(), model, t0, t1, ctl)
            assert exc.value.time == pytest.approx(0.04 if t1 > t0 else 0.06, rel=1e-12)
            assert f"from t={exc.value.time!r}" in str(exc.value)

    @pytest.mark.parametrize("batch", [False, True])
    def test_underflow_at_the_table_hull(self, batch):
        # The tangent law tabulated on [0.01, 0.99]: a step that leaves the
        # hull is rejected like a wall step, and halving bottoms out with
        # the state and the time, not an evaluation error of the table.
        grid = np.linspace(0.01, 0.99, 99)
        model = table_model(1.0, grid, -np.tan(np.pi * (grid - 0.5)))
        assert model.domain == (0.01, 0.99)
        ctl = StepControl(dt=0.01)
        with pytest.raises(StepUnderflowError, match="leaving the bond domain") as exc:
            if batch:
                integrate_batch(np.array([[0.0, 0.0, 0.05, -3.0]]), zero_field(), model,
                                0.0, 0.1, ctl)
            else:
                integrate(ParticleState(0.0, 0.0, 0.05, -3.0), zero_field(), model,
                          0.0, 0.1, ctl)
        assert exc.value.time == 0.01
        assert 0.01 < exc.value.state.omega < 0.05

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("coord", ["x", "v", "eta"])
    def test_non_finite_seed_rejected(self, tan1, coord, value):
        seed = dict(x=0.0, v=0.0, omega=0.5, eta=0.1) | {coord: value}
        with pytest.raises(DomainError, match="non-finite coordinate"):
            integrate(ParticleState(**seed), zero_field(), tan1, 0.0, 0.02, StepControl(dt=0.01))


class TestIntegrateAccuracy:
    def test_constant_state_under_zero_field(self, tan1, control):
        st = ParticleState(0.0, 0.0, 0.5, 0.0)
        path = integrate(st, zero_field(), tan1, 0.0, 1.0, control)
        assert np.all(path.omega == 0.5)
        assert np.all(path.eta == 0.0)

    def test_small_oscillation_period(self, tan1):
        # linearized frequency sqrt(pi/eps) about the midpoint
        ctl = StepControl(dt=5e-4)
        st = ParticleState(0.0, 0.0, 0.5 + 1e-3, 0.0)
        path = integrate(st, zero_field(), tan1, 0.0, 12.0, ctl)
        s = np.sign(path.omega - 0.5)
        crossings = path.t[1:][s[:-1] * s[1:] < 0]
        period = 2.0 * np.mean(np.diff(crossings))
        assert period == pytest.approx(2.0 * math.pi / math.sqrt(math.pi), rel=1e-3)

    def test_against_reference_orbit(self, tan1):
        ctl = StepControl(dt=1e-3)
        st = ParticleState(0.0, 0.0, 0.72, 0.15)
        path = integrate(st, zero_field(), tan1, 0.0, 3.0, ctl)
        ref = reference_bond_orbit(1.0, 0.72, 0.15, path.t)
        assert np.max(np.abs(path.omega - ref[0])) < 5e-6
        assert np.max(np.abs(path.eta - ref[1])) < 5e-5

    def test_second_order_convergence(self, tan1):
        st = ParticleState(0.0, 0.0, 0.72, 0.15)
        t_end = 2.0
        errs = []
        dts = [4e-3, 2e-3, 1e-3]
        for dt in dts:
            path = integrate(st, zero_field(), tan1, 0.0, t_end, StepControl(dt=dt))
            ref = reference_bond_orbit(1.0, 0.72, 0.15, np.array([0.0, t_end]))
            errs.append(abs(path.omega[-1] - ref[0][-1]) + abs(path.eta[-1] - ref[1][-1]))
        slope = np.polyfit(np.log(dts), np.log(errs), 1)[0]
        assert abs(slope - 2.0) < 0.1

    @pytest.mark.parametrize("field", [zero_field(), ConstantField(0.1, 0.1)],
                             ids=["zero", "constant"])
    def test_batch_bond_flow_second_order(self, tan1, field):
        # Nine rows across the right half of the bond, pushed to T = 0.5
        # against a run at dt = 0.01/128: from dt = 0.005 to 0.0025 the
        # error falls 4.00x under either field.  Coarser pairs read
        # 1.7-3.6, because the substep counts change with dt.
        z0 = [[0.0, 0.0, om, et] for om in (0.55, 0.675, 0.8) for et in (0.0, 0.5, 1.0)]
        ref = integrate_batch(z0, field, tan1, 0.0, 0.5, StepControl(dt=0.01 / 128))
        err = [np.max(np.abs(integrate_batch(z0, field, tan1, 0.0, 0.5, StepControl(dt=dt))
                             - ref)) for dt in (0.005, 0.0025)]
        assert 3.5 <= err[0] / err[1] <= 4.5

    def test_subcycling_keeps_energy_near_walls(self, tan1):
        # moderately hot bond: substep counts well above one but no halving
        ctl = StepControl(dt=2e-3, eta_scale=0.25)
        st = ParticleState(0.0, 0.0, 0.5, 2.0)
        path = integrate(st, zero_field(), tan1, 0.0, 2.0, ctl)
        g = 1e-9
        assert np.all((path.omega > g) & (path.omega < 1 - g))
        e = 0.5 * path.eta**2 + potential_to_midpoint(tan1, path.omega)
        assert np.max(np.abs(e - e[0])) < 2e-3

    def test_deep_wall_dive_survives_one_passage(self, tan1):
        # very hot bond: the turning layer is ~2e-7 from the wall; the
        # step halving plus clearance-resolved substeps must carry the
        # orbit through without leaving the guard band
        ctl = StepControl(dt=2e-3, eta_scale=0.25)
        st = ParticleState(0.0, 0.0, 0.5, 3.0)
        path = integrate(st, zero_field(), tan1, 0.0, 0.4, ctl)
        g = 1e-9
        assert np.all((path.omega > g) & (path.omega < 1 - g))
        # samples sit on the macro grid, so the turn itself is between
        # samples; penetration beyond 0.99 still proves a wall passage
        assert np.max(path.omega) > 0.99
        e = 0.5 * path.eta**2 + potential_to_midpoint(tan1, path.omega)
        assert np.max(np.abs(e - e[0])) < 5e-3

    def test_requires_forward_interval(self, tan1, control):
        st = ParticleState(0.0, 0.0, 0.5, 0.0)
        with pytest.raises(DomainError):
            integrate(st, zero_field(), tan1, 1.0, 0.5, control)


class TestEnergyResidual:
    def test_stationary_point_exact_zero(self, tan1, control):
        st = ParticleState(0.0, 0.0, 0.5, 0.0)
        path = integrate(st, zero_field(), tan1, 0.0, 1.0, control)
        assert energy_residual(path, (0.0, 1.0), tan1) == 0.0

    def test_autonomous_residual_small(self, tan1):
        st = ParticleState(0.0, 0.0, 0.65, 0.2)
        path = integrate(st, zero_field(), tan1, 0.0, 2.0, StepControl(dt=1e-4))
        assert abs(energy_residual(path, (0.0, 2.0), tan1)) < 1e-6

    def test_second_order_in_dt(self, tan1):
        st = ParticleState(0.0, 0.0, 0.65, 0.2)
        dts = [4e-4, 2e-4, 1e-4]
        res = []
        for dt in dts:
            path = integrate(st, zero_field(), tan1, 0.0, 1.5, StepControl(dt=dt))
            res.append(abs(energy_residual(path, (0.0, 1.5), tan1)))
        slope = np.polyfit(np.log(dts), np.log(res), 1)[0]
        assert abs(slope - 2.0) < 0.3

    def test_with_constant_difference_field(self, tan1):
        # non-conservative segment: the work term balances the books
        prov = ConstantField(0.0, 0.2)
        st = ParticleState(0.0, 0.0, 0.6, 0.1)
        path = integrate(st, prov, tan1, 0.0, 1.0, StepControl(dt=1e-4))
        assert abs(energy_residual(path, (0.0, 1.0), tan1)) < 1e-6

    def test_segment_out_of_range(self, tan1, control):
        st = ParticleState(0.0, 0.0, 0.6, 0.0)
        path = integrate(st, zero_field(), tan1, 0.0, 1.0, control)
        with pytest.raises(SegmentOutOfRangeError):
            energy_residual(path, (0.5, 2.0), tan1)


class TestEvents:
    def test_confined_path_has_no_events(self, tan1, control):
        bal = balance_points(tan1, 1.0)  # (0.25, 0.75)
        st = ParticleState(0.0, 0.0, 0.55, 0.0)  # shallow oscillation
        path = integrate(st, zero_field(), tan1, 0.0, 4.0, control)
        assert detect_events(path, bal) == []

    def test_excursion_exit_stop_return(self, tan1):
        # prescribed constant difference field, start at the upper balance
        # point moving outward: one excursion up and back
        c = 0.1
        bal = balance_points(tan1, c)
        prov = ConstantField(0.0, c)
        st = ParticleState(0.0, 0.0, bal.omega_M, 0.2)
        ctl = StepControl(dt=1e-3)
        path = integrate(st, prov, tan1, 0.0, 1.9, ctl, balance=bal)
        kinds = [e.kind for e in path.events[:3]]
        assert kinds == [EventKind.EXIT_CHAOTIC, EventKind.STOPPING_TIME,
                         EventKind.RETURN_TIME]
        assert path.events[0].boundary == "omega_M"
        assert path.events[2].boundary == "omega_M"
        # stopping event has |eta| below tolerance
        slope = abs(c - 1.0)  # dH/dt near the stopping point is O(1)
        assert abs(path.events[1].state.eta) < 10 * ctl.event_time_tol * max(1.0, slope)

    def test_mirrored_excursion_at_lower_boundary(self, tan1):
        c = 0.1
        bal = balance_points(tan1, c)
        prov = ConstantField(0.0, -c)
        st = ParticleState(0.0, 0.0, bal.omega_m, -0.2)
        path = integrate(st, prov, tan1, 0.0, 1.9, StepControl(dt=1e-3), balance=bal)
        kinds = [e.kind for e in path.events[:3]]
        assert kinds == [EventKind.EXIT_CHAOTIC, EventKind.STOPPING_TIME,
                         EventKind.RETURN_TIME]
        assert path.events[0].boundary == "omega_m"

    def test_monotone_eta_through_excursion(self, tan1):
        # between exit and return the bond speed is strictly decreasing
        c = 0.1
        bal = balance_points(tan1, c)
        prov = ConstantField(0.0, c)
        st = ParticleState(0.0, 0.0, bal.omega_M, 0.2)
        path = integrate(st, prov, tan1, 0.0, 1.9, StepControl(dt=1e-3), balance=bal)
        t_exit = path.events[0].time
        t_ret = path.events[2].time
        sel = (path.t > t_exit + 1e-9) & (path.t < t_ret - 1e-9)
        assert np.all(np.diff(path.eta[sel]) < 0.0)

    def test_excursion_envelope_bound(self, tan1):
        # instance of the excursion speed bound sqrt(H1^2 + 4 eps C)
        c = 0.1
        bal = balance_points(tan1, c)
        prov = ConstantField(0.0, c)
        st = ParticleState(0.0, 0.0, bal.omega_M, 0.2)
        path = integrate(st, prov, tan1, 0.0, 1.9, StepControl(dt=1e-3), balance=bal)
        assert np.max(np.abs(path.eta)) <= math.sqrt(0.2**2 + 4 * c) + 1e-9

    def test_tangency_start_is_stopping_event(self, tan1):
        # autonomous start exactly at the balance point with eta = 0
        bal = balance_points(tan1, 1.0)
        st = ParticleState(0.0, 0.0, 0.75, 0.0)
        path = integrate(st, zero_field(), tan1, 0.0, 4.0, StepControl(dt=1e-3),
                         balance=bal)
        assert path.events[0].kind is EventKind.STOPPING_TIME
        assert path.events[0].time == 0.0
        # the orbit oscillates between the balance points: omega returns to
        # 0.75 one period later and never exceeds the starting energy shell
        level = potential_to_midpoint(tan1, 0.75)
        e = 0.5 * path.eta**2 + potential_to_midpoint(tan1, path.omega)
        assert np.max(e) <= level + 1e-4
        assert np.max(path.omega) <= 0.75 + 1e-4
        # times at which omega comes back to the upper turning shell
        returns = path.t[np.abs(path.omega - 0.75) < 5e-4]
        assert returns.size > 1


def events_by_loop(path, balance):
    """detect_events with the per-interval Python scan it replaced: the
    reference for its numpy scan."""
    if len(path) == 0:
        return []
    eta_tol = path.control.event_eta_tol
    time_tol = max(path.control.event_time_tol, 1e-15)
    om_m, om_M = balance.omega_m, balance.omega_M
    events = []

    def classify_touch(t, st, which):
        outward = st.eta > eta_tol if which == "omega_M" else st.eta < -eta_tol
        inward = st.eta < -eta_tol if which == "omega_M" else st.eta > eta_tol
        if outward:
            kind = EventKind.EXIT_CHAOTIC
        elif inward:
            kind = EventKind.RETURN_TIME
        else:
            kind = EventKind.STOPPING_TIME
        events.append(OscillationEvent(kind=kind, time=t, state=st, boundary=which))

    st0 = path.state_at(0)
    g0 = 1e-9 * max(1.0, om_M)
    if abs(st0.omega - om_M) <= g0:
        classify_touch(float(path.t[0]), st0, "omega_M")
    elif abs(st0.omega - om_m) <= g0:
        classify_touch(float(path.t[0]), st0, "omega_m")

    gm = path.omega - om_m
    gM = path.omega - om_M
    h = path.eta
    for i in range(len(path) - 1):
        for which, g in (("omega_m", gm), ("omega_M", gM)):
            if g[i] == 0.0 and i > 0:
                continue  # already handled as the endpoint of the previous pair
            if g[i] * g[i + 1] < 0.0 or (g[i] != 0.0 and g[i + 1] == 0.0):
                level = om_m if which == "omega_m" else om_M
                tq = trajectory._locate(path, i, lambda s, lv=level: s.omega - lv, time_tol)
                classify_touch(tq, trajectory._interp_state(path, i, tq), which)
        if h[i] * h[i + 1] < 0.0 or (h[i] != 0.0 and h[i + 1] == 0.0):
            tq = trajectory._locate(path, i, lambda s: s.eta, time_tol)
            st = trajectory._interp_state(path, i, tq)
            if not (om_m < st.omega < om_M):
                events.append(OscillationEvent(
                    kind=EventKind.STOPPING_TIME, time=tq, state=st))

    events.sort(key=lambda e: e.time)
    return events


class TestEventScan:
    """detect_events flags its intervals in numpy and finds the events of
    the Python scan, in the same order, on paths with exact zeros of each
    test, touches at the first and later samples, and NaN."""

    BAL = balance_points(tangent_model(1.0), 1.0)  # (0.25, 0.75)
    OMEGAS = [BAL.omega_m, BAL.omega_M, 0.5, 0.2, 0.8, BAL.omega_m + 1e-3,
              BAL.omega_M - 1e-3, math.nan]
    ETAS = [0.0, 0.5, -0.5, 1e-9, -1e-9, math.nan]

    @staticmethod
    def key(events):
        return [(e.kind, repr(e.time), repr(astuple(e.state)), e.boundary) for e in events]

    @given(samples=hs.lists(hs.tuples(hs.integers(0, 7), hs.integers(0, 5)), max_size=14))
    @example(samples=[(1, 0), (1, 0), (4, 1), (1, 2), (2, 0)])  # touches at i = 0 and i > 0
    @example(samples=[(0, 3), (2, 0), (3, 4), (0, 0), (7, 1), (0, 5)])
    @settings(derandomize=True, max_examples=150, deadline=None)
    def test_scan_equals_loop(self, samples):
        n = len(samples)
        om = np.array([self.OMEGAS[i] for i, _ in samples])
        eta = np.array([self.ETAS[j] for _, j in samples])
        path = trajectory.TrajectoryPath(
            t=0.01 * np.arange(n), x=np.zeros(n), v=np.zeros(n), omega=om, eta=eta,
            f_minus=np.zeros(n), max_field_norm=0.0, control=StepControl(dt=0.01))
        got = detect_events(path, self.BAL)
        assert self.key(got) == self.key(events_by_loop(path, self.BAL))


class TestJacobian:
    def test_identity_at_t0(self, tan1, control):
        st = ParticleState(0.0, 0.0, 0.6, 0.1)
        assert jacobian_estimate(st, zero_field(), tan1, 0.0, 1e-5, control) == 1.0

    def test_autonomous_short_time(self, tan1):
        st = ParticleState(0.1, 0.2, 0.6, 0.1)
        det = jacobian_estimate(st, zero_field(), tan1, 0.25, 1e-5,
                                StepControl(dt=1e-3))
        assert det == pytest.approx(1.0, abs=1e-6)

    def test_frozen_field_unit_determinant(self, tan1, rng):
        ens = Ensemble(rng.normal(size=30), rng.normal(size=30) * 0.2,
                       rng.uniform(0.4, 0.6, 30), rng.normal(size=30) * 0.2,
                       rng.uniform(0.0, 0.05, 30))
        st = ParticleState(0.05, 0.1, 0.55, 0.05)
        det = jacobian_estimate(st, build_field(ens), tan1, 1.0, 1e-5, StepControl(dt=1e-3))
        assert abs(det - 1.0) < 1e-4


class TestBatch:
    def test_matches_scalar_integration(self, tan1):
        ctl = StepControl(dt=1e-3)
        seeds = [ParticleState(0.0, 0.1, 0.6, 0.2),
                 ParticleState(0.5, -0.1, 0.45, -0.3)]
        z = np.array([[s.x, s.v, s.omega, s.eta] for s in seeds])
        out = integrate_batch(z, zero_field(), tan1, 0.0, 1.0, ctl)
        for i, s in enumerate(seeds):
            path = integrate(s, zero_field(), tan1, 0.0, 1.0, ctl)
            np.testing.assert_allclose(
                out[i], [path.x[-1], path.v[-1], path.omega[-1], path.eta[-1]],
                rtol=0, atol=1e-13)

    def test_backward_inverts_forward(self, tan1):
        ctl = StepControl(dt=1e-3)
        z0 = np.array([[0.0, 0.1, 0.6, 0.2], [0.3, -0.2, 0.52, -0.1]])
        ens = Ensemble([0.0, 0.4], [0, 0], [0.5, 0.5], [0, 0], [0.1, 0.2])
        snap = build_field(ens)
        zT = integrate_batch(z0, snap, tan1, 0.0, 1.0, ctl)
        zb = integrate_batch(zT, snap, tan1, 1.0, 0.0, ctl)
        assert np.max(np.abs(zb - z0)) < 1e-12

    def test_record_shapes(self, tan1):
        ctl = StepControl(dt=0.1)
        z0 = np.array([[0.0, 0.0, 0.55, 0.0]])
        final, ts, samples, fm = integrate_batch(
            z0, zero_field(), tan1, 0.0, 1.0, ctl, record=True)
        assert ts.shape[0] == samples.shape[0] == fm.shape[0] == 11
        np.testing.assert_array_equal(samples[-1], final)

    # Rows with omega outside the guarded band or a coordinate that is
    # not finite: each is named, whatever the rows after it.
    @pytest.mark.parametrize("row", [
        pytest.param([0.0, 0.0, 1.5, 0.0], id="omega-1.5"),
        pytest.param([0.0, 0.0, math.nan, 0.0], id="omega-nan"),
        pytest.param([0.0, 0.0, 1e-9, 0.0], id="omega-on-guard"),
        pytest.param([0.0, 0.0, 0.5, math.nan], id="eta-nan"),
        pytest.param([0.0, 0.0, 0.5, math.inf], id="eta-inf"),
        pytest.param([0.0, 0.0, 0.5, -math.inf], id="eta--inf"),
        pytest.param([math.inf, 0.0, 0.5, 0.0], id="x-inf"),
        pytest.param([0.0, math.nan, 0.5, 0.0], id="v-nan")])
    @pytest.mark.parametrize("backward", [False, True])
    def test_bad_rows_rejected(self, tan1, row, backward):
        z = np.array([[0.0, 0.1, 0.5, 0.1], row, [0.0, 0.0, 2.0, 0.0]])
        t0, t1 = (0.02, 0.0) if backward else (0.0, 0.02)
        with pytest.raises(DomainError, match=r"^row 1, \[x, v, omega, eta\] = \["):
            integrate_batch(z, zero_field(), tan1, t0, t1, StepControl(dt=0.01))

    def test_record_empty_span(self, tan1):
        z0 = np.array([[0.0, 0.1, 0.5, 0.1]])
        snap = build_field(Ensemble([0.45], [0.0], [0.5], [0.0], [0.3]))
        final, ts, samples, fm = integrate_batch(
            z0, snap, tan1, 0.5, 0.5, StepControl(dt=0.1), record=True)
        np.testing.assert_array_equal(final, z0)
        assert ts.tolist() == [0.5] and samples.shape == (1, 1, 4)
        np.testing.assert_array_equal(fm, [snap.pm(z0[:, 0], z0[:, 2])[1]])


class TestAtRest:
    """A bond at rest near a wall gets the substeps its reachable
    stiffness asks for, on the scalar path as in the batch; a seed run
    alone is its row in a batch, bit for bit."""

    def test_substep_count(self, tan1):
        # ceil(0.01 * freq(0.02) / WALL_RESOLUTION) with freq(0.02) ~ 28.2
        ctl = StepControl(dt=0.01)
        fh = trajectory._force_scalar(tan1, 0.02, np.tan)
        assert trajectory._substeps_scalar(tan1, 0.02, 0.0, fh, 0.01, ctl) == 6

    # At rest (exact) and moving: toward a wall, hot enough that steps
    # near the wall are halved, and two seeds on which math.tan and
    # np.tan round apart within the 20 steps.
    @pytest.mark.parametrize("omega, eta", [
        pytest.param(0.02, 0.0, id="0.02"), pytest.param(0.1, 0.0, id="0.1"),
        pytest.param(0.5, 0.0, id="0.5"), pytest.param(0.3, 0.5, id="moving-0.3"),
        pytest.param(0.05, -0.9, id="moving-0.05"), pytest.param(0.5, 3.0, id="moving-hot"),
        pytest.param(0.125, -1.19, id="tan-0.125"), pytest.param(0.716, -0.06, id="tan-0.716")])
    def test_integrate_equals_one_row_batch(self, tan1, omega, eta):
        ctl = StepControl(dt=0.01)
        path = integrate(ParticleState(0.0, 0.1, omega, eta), zero_field(), tan1,
                         0.0, 0.2, ctl)
        got = np.column_stack([path.x, path.v, path.omega, path.eta])
        # The row alone, and inside a batch of rows at rest and moving.
        z = np.array([[0.0, 0.1, omega, eta], [0.2, 0.0, 0.5, 0.0], [0.0, 0.1, 0.02, 1.0]])
        for rows, i in ((z[:1], 0), (z, 0), (z[::-1], 2)):
            _, ts, samples, fm = integrate_batch(rows, zero_field(), tan1, 0.0, 0.2, ctl,
                                                 record=True)
            np.testing.assert_array_equal(path.t, ts)
            np.testing.assert_array_equal(path.f_minus, fm[:, i])
            assert got.tobytes() == samples[:, i].tobytes()


class TestStepContract:
    """Both steppers take the opening field pair and return the closing
    one, so ``integrate`` queries the pair once per call and once per
    step, and each f_minus is the frozen field's value at its sample."""

    # [x, v, omega, eta]: a calm seed, a hot seed whose steps are halved
    # (down to depth 6) and a seed moving near the lower wall.
    SEEDS = [(0.0, 0.1, 0.6, 0.2), (0.05, -0.2, 0.5, 3.0), (0.1, 0.3, 0.02, -0.5)]

    @staticmethod
    def snapshot():
        # Charges every 1e-4 make the step field change wherever a bond
        # moves.
        n = 30001
        return build_field(Ensemble(np.linspace(-1.5, 1.5, n), np.zeros(n),
                                    np.full(n, 0.5), np.zeros(n), np.full(n, 1e-5)))

    def test_pm_calls(self, tan1, monkeypatch):
        snap = self.snapshot()
        calls = []
        pm = FieldSnapshot.pm
        monkeypatch.setattr(FieldSnapshot, "pm",
                            lambda snap, x, om: calls.append(1) or pm(snap, x, om))
        path = integrate(ParticleState(*self.SEEDS[0]), snap, tan1, 0.0, 0.3,
                         StepControl(dt=0.01))
        assert len(path) == 31
        assert len(calls) == 1 + 30  # opening pair + fine steps

    @pytest.mark.parametrize("seed", SEEDS)
    def test_f_minus_from_governing_snapshot(self, tan1, seed):
        snap = self.snapshot()
        path = integrate(ParticleState(*seed), snap, tan1, 0.0, 0.3, StepControl(dt=0.01))
        for i in range(len(path)):
            assert path.f_minus[i] == snap.pm(path.x[i], path.omega[i])[1]


class TestIndexedField:
    """A batch answers its array queries from a bucket table built for the
    call (``FieldSnapshot.indexed``), and its rows, samples and f_minus
    come out as under the plain search, bit for bit."""

    @pytest.mark.parametrize("backward", [False, True])
    def test_rows_equal_the_plain_search(self, tan1, monkeypatch, backward):
        snap = TestStepContract.snapshot()  # 30,001 charges, one every 1e-4
        rng = np.random.default_rng(7)
        n = 600
        z = np.column_stack([rng.uniform(-1.4, 1.4, n), rng.normal(0.0, 0.3, n),
                             rng.uniform(0.3, 0.7, n), rng.normal(0.0, 0.5, n)])
        z[:100, 0] = np.round(z[:100, 0], 4)  # bonds centred on a charge
        z[:50, 2] = 0.5
        t0, t1 = (0.3, 0.0) if backward else (0.0, 0.3)
        built = []
        indexed = FieldSnapshot.indexed
        monkeypatch.setattr(FieldSnapshot, "indexed",
                            lambda s, rows, calls: built.append(indexed(s, rows, calls))
                            or built[-1])
        got = integrate_batch(z, snap, tan1, t0, t1, StepControl(dt=0.01), record=True)
        assert len(built) == 1 and built[0]._index is not None
        monkeypatch.setattr(FieldSnapshot, "indexed", lambda s, rows, calls: s)
        want = integrate_batch(z, snap, tan1, t0, t1, StepControl(dt=0.01), record=True)
        for g, w in zip(got, want, strict=True):
            assert g.shape == w.shape and g.tobytes() == w.tobytes()
        assert snap._index is None


class TestBatchIndependence:
    """Batching changes no result: each row of a mixed batch comes out
    bit-for-bit as it does when advanced alone."""

    @pytest.fixture()
    def fallback(self, monkeypatch):
        """Omega of each row that _advance_batch hands to the scalar step."""
        calls = []
        scalar = trajectory._advance_scalar

        def spy(*args):
            if len(args) == 9:  # called by _advance_batch, not a halving
                calls.append(args[2])
            return scalar(*args)

        monkeypatch.setattr(trajectory, "_advance_scalar", spy)
        return calls

    # [x, v, omega, eta]: m = 1 rows near the midpoint, stiff rows near
    # both walls (hundreds to thousands of substeps) and rows past
    # MAX_SUBSTEPS that go to the scalar halving fallback.
    ROWS = np.array([
        [0.0, 0.1, 0.5, 0.1],
        [0.2, -0.2, 1.0 - 1e-4, -0.5],
        [-0.2, 0.0, 0.52, -0.05],
        [0.05, 0.3, 2e-4, 1.0],
        [0.3, 0.0, 1.0 - 1e-7, 0.0],
        [0.1, -0.1, 0.48, 0.02],
        [0.25, 0.05, 3e-4, -1.5],
        [-0.1, 0.0, 1e-6, 0.0],
    ])

    @pytest.mark.parametrize("dt", [2.5e-3, -2.5e-3])
    def test_rows_advance_as_if_alone(self, tan1, dt, fallback):
        ens = Ensemble([-0.3, 0.1, 0.4], [0, 0, 0], [0.45, 0.5, 0.6], [0, 0, 0],
                       [0.2, 0.3, 0.1])
        snap = build_field(ens)
        ctl = StepControl(dt=abs(dt))
        lo, hi = tan1.guard, tan1.epsilon - tan1.guard
        counts = []
        for x, _, om, et in self.ROWS:
            e1 = et + 0.5 * dt * snap.pm(x, om)[1]
            fh = trajectory._force_scalar(tan1, om, np.tan)
            counts.append(trajectory._substeps_scalar(tan1, om, e1, fh, dt, ctl))
        assert min(counts) == 1
        assert any(100 <= m <= trajectory.MAX_SUBSTEPS for m in counts)
        assert max(counts) > trajectory.MAX_SUBSTEPS

        out, _, _ = trajectory._advance_batch(self.ROWS, snap, tan1, dt, ctl, lo, hi,
                                              opening_pair(snap, self.ROWS))
        assert fallback
        for i, row in enumerate(self.ROWS):
            alone, _, _ = trajectory._advance_batch(row[None, :], snap, tan1, dt, ctl, lo, hi,
                                                    opening_pair(snap, row[None, :]))
            np.testing.assert_array_equal(out[i], alone[0])
            # The scalar step uses math.tan, which may differ from np.tan
            # in the last bit, so it agrees to rounding only.
            step = trajectory._advance_scalar(*row.tolist(), snap, tan1, dt, ctl,
                                              snap.pm(row[0], row[2]))
            np.testing.assert_allclose(out[i], step[0], rtol=1e-12, atol=1e-15)

    @pytest.mark.parametrize("forward", [True, False])
    def test_carried_pair(self, tan1, forward, fallback):
        # Each step's closing field pair opens the next step, and the
        # fallback rows' pair is taken again at their new states.  Charges
        # every 1e-4 make the step field change wherever a row moves, so
        # a pair taken at any other state than the sample reads wrong.
        n = 30001
        snap = build_field(Ensemble(np.linspace(-1.5, 1.5, n), np.zeros(n),
                                    np.full(n, 0.5), np.zeros(n), np.full(n, 1e-5)))
        ctl = StepControl(dt=2.5e-3)
        t0, t1 = (0.0, 0.01) if forward else (0.01, 0.0)
        final, ts, samples, fm = integrate_batch(self.ROWS, snap, tan1, t0, t1, ctl,
                                                 record=True)
        assert ts.size == 5 and fallback
        np.testing.assert_array_equal(
            integrate_batch(self.ROWS, snap, tan1, t0, t1, ctl), final)
        z = self.ROWS
        for k in range(4):
            z = integrate_batch(z, snap, tan1, ts[k], ts[k + 1], ctl)
            np.testing.assert_array_equal(z, samples[k + 1])
        for zk, fk in zip(samples, fm):
            np.testing.assert_array_equal(fk, snap.pm(zk[:, 0], zk[:, 2])[1])
        # A slice records its rows only (row 4 takes the fallback), and
        # every row still advances as with record=True.
        assert self.ROWS[4, 2] in fallback
        sub = integrate_batch(self.ROWS, snap, tan1, t0, t1, ctl, record=slice(2, 5))
        for got, want in zip(sub, (final, ts, samples[:, 2:5], fm[:, 2:5]), strict=True):
            np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("dt", [2.5e-3, -2.5e-3])
    def test_screen_changes_no_bit(self, tan1, dt, monkeypatch):
        # The one-substep screen clears the three midpoint rows and leaves
        # the five wall rows to the full wall count; switched off, every
        # row takes it, and the step comes out the same.  The spy counts
        # the batch's calls only, not the fallback rows' one-row counts.
        snap = build_field(Ensemble([-0.3, 0.1, 0.4], [0, 0, 0], [0.45, 0.5, 0.6], [0, 0, 0],
                                    [0.2, 0.3, 0.1]))
        ctl = StepControl(dt=abs(dt))
        lo, hi = tan1.guard, tan1.epsilon - tan1.guard
        counted = []
        wall = trajectory._wall_substeps

        def spy(*a):
            if sys._getframe(1).f_code is trajectory._substeps_batch.__code__:
                counted.append(a[1].size)
            return wall(*a)

        monkeypatch.setattr(trajectory, "_wall_substeps", spy)
        pair = opening_pair(snap, self.ROWS)
        on = trajectory._advance_batch(self.ROWS, snap, tan1, dt, ctl, lo, hi, pair)
        monkeypatch.setattr(trajectory, "_one_substep_threshold", lambda eps, dt: None)
        off = trajectory._advance_batch(self.ROWS, snap, tan1, dt, ctl, lo, hi, pair)
        assert counted == [5, 8]
        for got, want in zip((on[0], *on[1], on[2]), (off[0], *off[1], off[2]), strict=True):
            np.testing.assert_array_equal(got, want)

    # Cubic bond law: np and scalar evaluation agree bitwise, so the batch
    # step must equal the scalar step exactly, including which rows the
    # in-loop guard-band and impulse tests send to the fallback.
    CUBIC_ROWS = np.array([
        [0.0, 0.1, 0.5, 0.1],     # m = 1
        [0.0, -0.2, 0.2, -5.3],   # leaves the guard band forward
        [0.0, 0.3, 0.88, 3.3],    # breaks the impulse bound forward
        [0.0, 0.0, 0.95, 2.2],    # m = 3
        [0.0, 0.2, 0.8, -4.9],    # leaves the guard band backward
        [0.0, 0.0, 0.33, 5.1],    # breaks the impulse bound backward
        [0.0, -0.1, 0.52, -0.3],
    ])

    @pytest.mark.parametrize("dt", [0.05, -0.05])
    def test_custom_law_matches_scalar_step(self, dt, fallback):
        model = cubic_model()
        snap = build_field(Ensemble([-0.3, 0.4], [0, 0], [0.45, 0.6], [0, 0], [0.2, 0.1]))
        ctl = StepControl(dt=abs(dt), eta_scale=2.0)
        lo, hi = model.domain
        out, _, _ = trajectory._advance_batch(self.CUBIC_ROWS, snap, model, dt, ctl, lo, hi,
                                              opening_pair(snap, self.CUBIC_ROWS))
        assert len(fallback) == 2
        for i, row in enumerate(self.CUBIC_ROWS):
            step = trajectory._advance_scalar(*row.tolist(), snap, model, dt, ctl,
                                              snap.pm(row[0], row[2]))
            np.testing.assert_array_equal(out[i], step[0])
            alone, _, _ = trajectory._advance_batch(row[None, :], snap, model, dt, ctl, lo, hi,
                                                    opening_pair(snap, row[None, :]))
            np.testing.assert_array_equal(out[i], alone[0])

    # Rows with m = 2 or 3 that pass substep 0 and fail at substep 1, in
    # the per-row loop.
    LATE_ROWS = np.array([
        [0.0, 0.1, 0.5, 0.1],     # m = 1
        [0.0, 0.0, 0.85, 3.4],    # breaks the impulse bound forward
        [0.0, 0.0, 0.15, 3.4],    # breaks the impulse bound backward
        [0.0, 0.0, 0.06, -3.5],   # leaves the guard band low forward
        [0.0, 0.0, 0.94, 3.5],    # leaves the guard band high forward
        [0.0, 0.0, 0.06, 3.5],    # leaves the guard band low backward
        [0.0, 0.0, 0.94, -3.5],   # leaves the guard band high backward
        [0.0, 0.0, 0.85, 0.0],    # m = 2, passes both ways
    ])

    @pytest.mark.parametrize("dt", [0.05, -0.05])
    def test_custom_law_late_failures(self, dt, fallback):
        model = cubic_model()
        snap = build_field(Ensemble([-0.3, 0.4], [0, 0], [0.45, 0.6], [0, 0], [0.2, 0.1]))
        ctl = StepControl(dt=abs(dt), eta_scale=2.0)
        lo, hi = model.domain
        out, _, _ = trajectory._advance_batch(self.LATE_ROWS, snap, model, dt, ctl, lo, hi,
                                              opening_pair(snap, self.LATE_ROWS))
        assert fallback == ([0.85, 0.06, 0.94] if dt > 0 else [0.15, 0.06, 0.94])
        for i, row in enumerate(self.LATE_ROWS):
            step = trajectory._advance_scalar(*row.tolist(), snap, model, dt, ctl,
                                              snap.pm(row[0], row[2]))
            np.testing.assert_array_equal(out[i], step[0])


def test_np_tan_on_floats_equals_np_tan_on_arrays():
    # _advance_batch takes substep 0 with np.tan on arrays and the rest of
    # each row's sub-cycle with np.tan on Python floats; its bits rest on
    # the two agreeing, whatever the array's length and alignment.
    rng = np.random.default_rng(11)
    half_pi = 0.5 * math.pi
    args = np.concatenate([
        rng.uniform(-half_pi, half_pi, 400),
        half_pi - 10.0 ** rng.uniform(-12, -1, 200),    # near the walls
        -half_pi + 10.0 ** rng.uniform(-12, -1, 200),
        rng.uniform(-1e3, 1e3, 100), [0.0, -0.0, half_pi, -half_pi]])
    for n in range(1, 18):
        for start in range(0, args.size - n + 1, n + 3):
            arr = args[start:start + n]
            alone = np.array([np.tan(float(a)) for a in arr])
            assert np.array_equal(alone.view(np.uint64), np.tan(arr).view(np.uint64)), (
                f"premise of _advance_batch's sub-cycle broken: np.tan on Python floats "
                f"differs from np.tan on an array of length {n} at {arr.tolist()}")


class TestLoneRow:
    """A batch of one row steps in Python floats with the batch's bits:
    each row of a larger batch comes out of each step as it does alone,
    with the same state and closing pair, the same omegas handed to the
    ``math`` fallback and the same underflow, message and time."""

    SNAP = build_field(Ensemble([-0.3, 0.1, 0.4], [0, 0, 0], [0.45, 0.5, 0.6], [0, 0, 0],
                                [0.2, 0.3, 0.1]))
    TABLE = tangent_table()

    @classmethod
    def run(cls, rows, model, dt, ctl, n_steps):
        """n_steps steps of integrate_batch from t = 0: the (n, 6) state
        and closing pair after each step, the (step, omega) of each row
        handed to the scalar fallback, and an underflow's message and
        time."""
        steps, handed = [], []
        advance, scalar = trajectory._advance_batch, trajectory._advance_scalar

        def step(*args):
            out, pair, fh = advance(*args)
            steps.append(np.column_stack([out, *pair]))
            return out, pair, fh

        def spy(*args):
            if len(args) == 9:  # called by _advance_batch, not a halving
                handed.append((len(steps), args[2]))
            return scalar(*args)

        with mock.patch.object(trajectory, "_advance_batch", step), \
                mock.patch.object(trajectory, "_advance_scalar", spy):
            try:
                integrate_batch(rows, cls.SNAP, model, 0.0, n_steps * dt, ctl)
            except StepUnderflowError as exc:
                return steps, handed, (str(exc), exc.time)
        return steps, handed, None

    @classmethod
    def assert_rows_step_alone(cls, z, model, dt, ctl, n_steps):
        """Each row of z steps n_steps as it does alone; returns the
        batch's (step, omega) handed to the scalar fallback."""
        steps, handed, err = cls.run(z, model, dt, ctl, n_steps)
        alone = [cls.run(z[i:i + 1], model, dt, ctl, n_steps) for i in range(len(z))]
        # The batch stops at the first row, in row order, to underflow at
        # the earliest step; every row completed the steps before it.
        fails = [(len(s), i, e) for i, (s, _, e) in enumerate(alone) if e is not None]
        k_stop, i_stop, want_err = min(fails) if fails else (n_steps, len(z), None)
        assert err == want_err and len(steps) == k_stop
        for k, got in enumerate(steps):
            for i, (s, _, _) in enumerate(alone):
                assert got[i].tobytes() == s[k][0].tobytes(), f"row {i}, step {k}"
        want = sorted((k, i, om) for i, (_, h, _) in enumerate(alone) for k, om in h
                      if (k, i) <= (k_stop, i_stop))
        assert handed == [(k, om) for k, _, om in want]
        return handed

    # Table law, eta_scale 0.02: m = 1 near the midpoint, tens of
    # substeps near the walls; rows heading out fail the impulse bound.
    TABLE_ROWS = np.array([
        [0.0, 0.1, 0.5, 0.1],
        [0.1, 0.0, 0.97, 0.0],
        [0.2, 0.0, 0.03, -0.4],
        [0.3, 0.0, 0.97, 0.4],
        [0.4, 0.0, 0.9, -0.2],
        [0.5, 0.0, 0.1, 0.3],
        [0.6, 0.0, 0.985, -0.5],
    ])

    # Cubic law, eta_scale 0.05, substep counts 1, 28, 28, 64, 4, 2, 2:
    # row 2 fails the impulse bound at substep 1, row 1 at substep 6, and
    # row 3 passes all 64.  Backward, eta is mirrored.
    CROSS_ROWS = np.array([
        [0.0, 0.1, 0.5, 0.1],
        [0.1, 0.0, 0.8, 0.5],
        [0.2, 0.0, 0.8, 1.25],
        [0.3, 0.0, 0.9, -0.3],
        [0.4, 0.0, 0.65, 0.0],
        [0.5, 0.0, 0.62, 0.0],
        [0.6, 0.0, 0.38, 0.0],
    ])

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    @pytest.mark.parametrize("case", ["rows", "cubic", "late", "table", "cross"])
    def test_fixed_rows_step_as_lone_rows(self, tan1, case, sign):
        if case == "rows":
            rows, model, ctl = TestBatchIndependence.ROWS, tan1, StepControl(dt=2.5e-3)
        elif case == "table":
            rows, model, ctl = self.TABLE_ROWS, self.TABLE, StepControl(dt=0.05, eta_scale=0.02)
        elif case == "cross":
            rows = self.CROSS_ROWS * [1.0, 1.0, 1.0, sign]
            model, ctl = cubic_model(), StepControl(dt=0.05, eta_scale=0.05)
        else:
            rows = (TestBatchIndependence.CUBIC_ROWS if case == "cubic"
                    else TestBatchIndependence.LATE_ROWS)
            model, ctl = cubic_model(), StepControl(dt=0.05, eta_scale=2.0)
        handed = self.assert_rows_step_alone(rows, model, sign * ctl.dt, ctl, 2)
        assert handed, "no row reached the fallback"

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_rows_enter_the_substep_loop_once(self, sign):
        # Every row with m > 1 that passes substep 0 finishes its sub-cycle
        # in one _substep_loop call from substep 1; rows 1 and 2 fail
        # there and go to the fallback.
        rows = self.CROSS_ROWS * [1.0, 1.0, 1.0, sign]
        model, ctl = cubic_model(), StepControl(dt=0.05, eta_scale=0.05)
        lo, hi = model.domain
        loops, handed = [], []
        loop, scalar = trajectory._substep_loop, trajectory._advance_scalar

        def loop_spy(om, e, d, k0, m, tan, *rest):
            done = loop(om, e, d, k0, m, tan, *rest)
            if tan is np.tan:  # not the fallback's math.tan
                loops.append((k0, m, done is None))
            return done

        def scalar_spy(*args):
            if len(args) == 9:  # called by _advance_batch, not a halving
                handed.append(args[2])
            return scalar(*args)

        with mock.patch.object(trajectory, "_substep_loop", loop_spy), \
                mock.patch.object(trajectory, "_advance_scalar", scalar_spy):
            trajectory._advance_batch(rows, self.SNAP, model, sign * ctl.dt, ctl, lo, hi,
                                      opening_pair(self.SNAP, rows))
        assert loops == [(1, 28, True), (1, 28, True), (1, 64, False), (1, 4, False),
                         (1, 2, False), (1, 2, False)]
        assert handed == [0.8, 0.8]

    @given(law=hs.sampled_from(["tangent", "mid", "cubic", "table"]), backward=hs.booleans(),
           rows=hs.lists(hs.tuples(hs.floats(-1.0, 1.0), hs.floats(-1.0, 1.0)),
                         min_size=2, max_size=12))
    # Tangent rows 5e-5 .. 3e-3 from a wall, which take tens to thousands
    # of substeps in the per-row loop.
    @example(law="tangent", backward=False,
             rows=[(0.3, 0.0), (-0.35, 0.15), (0.4, -0.25), (-0.5, -0.3), (0.6, 0.2)])
    # Mid-range rows on which a step with math.tan for np.tan departs
    # from the batch within the 20 steps, from the first to the 18th.
    @example(law="mid", backward=False,
             rows=[(0.15, 0.19), (-0.37, 0.13), (0.15, -0.14), (-0.15, -0.14), (-0.12, 0.86),
                   (0.07, -0.73)])
    @example(law="mid", backward=True,
             rows=[(-0.25, -0.36), (0.4, -0.03), (0.03, 0.85), (-0.28, -0.65), (0.77, 0.02),
                   (-0.15, 0.18)])
    @settings(derandomize=True, max_examples=40, deadline=None)
    def test_rows_step_as_lone_rows(self, law, backward, rows):
        n_steps = 2
        if law == "tangent":
            # Wall distances 1e-6 .. 0.5 at either wall, |eta| <= 2.
            model, ctl = tangent_model(1.0), StepControl(dt=2.5e-3)
            om = [10.0 ** (-6.0 + 5.7 * abs(a)) for a, _ in rows]
            om = [u if a >= 0.0 else 1.0 - u for u, (a, _) in zip(om, rows)]
            eta = [2.0 * b for _, b in rows]
        elif law == "mid":
            # Wall distances 0.05 .. 0.45, |eta| <= 0.25.  A last-bit
            # change of the force moves eta only where the kick is not
            # small against it, so these rows take 20 steps.
            model, ctl, n_steps = tangent_model(1.0), StepControl(dt=2.5e-3), 20
            om = [0.05 + 0.4 * abs(a) for a, _ in rows]
            om = [u if a >= 0.0 else 1.0 - u for u, (a, _) in zip(om, rows)]
            eta = [0.25 * b for _, b in rows]
        elif law == "cubic":
            model, ctl = cubic_model(), StepControl(dt=0.05, eta_scale=0.05)
            om = [0.5 + 0.45 * a for a, _ in rows]
            eta = [2.5 * b for _, b in rows]
        else:
            # Rows with |eta| above about 1.9 can cross the table's hull.
            model, ctl = self.TABLE, StepControl(dt=0.05, eta_scale=0.02)
            om = [0.5 + 0.495 * a for a, _ in rows]
            eta = [3.0 * b for _, b in rows]
        z = np.array([[0.1 * i, 0.0, o, e] for i, (o, e) in enumerate(zip(om, eta))])
        dt = -ctl.dt if backward else ctl.dt
        self.assert_rows_step_alone(z, model, dt, ctl, n_steps)


class TestTail:
    """The per-row tail of a step: after substep 0, each row with more
    than one substep finishes its sub-cycle alone in ``_substep_loop``,
    so one step of a mixed batch, with any number of such rows, gives
    each row the bits it gets alone."""

    @given(law=hs.sampled_from(["tangent", "cubic"]), backward=hs.booleans(),
           rows=hs.lists(hs.tuples(hs.floats(-1.0, 1.0), hs.floats(-1.0, 1.0)),
                         min_size=1, max_size=16))
    # Cubic rows with 1 to 65 substeps; rows 1 and 2 fail mid-cycle.
    @example(law="cubic", backward=False,
             rows=[(0.0, 0.0), (0.67, 0.2), (0.67, 0.5), (0.89, -0.12), (0.33, 0.0)])
    @settings(derandomize=True, max_examples=40, deadline=None)
    def test_mixed_rows(self, law, backward, rows):
        if law == "tangent":
            # Wall distances 1e-6 .. 0.5 at either wall, |eta| <= 2.
            model, ctl = tangent_model(1.0), StepControl(dt=2.5e-3)
            om = [10.0 ** (-6.0 + 5.7 * abs(a)) for a, _ in rows]
            om = [u if a >= 0.0 else 1.0 - u for u, (a, _) in zip(om, rows)]
            eta = [2.0 * b for _, b in rows]
        else:
            model, ctl = cubic_model(), StepControl(dt=0.05, eta_scale=0.05)
            om = [0.5 + 0.45 * a for a, _ in rows]
            eta = [2.5 * b for _, b in rows]
        z = np.array([[0.1 * i, 0.0, o, e] for i, (o, e) in enumerate(zip(om, eta))])
        dt = -ctl.dt if backward else ctl.dt
        TestLoneRow.assert_rows_step_alone(z, model, dt, ctl, 1)


class TestCarriedForce:
    """A step's closing bond force is ``_force_array`` at its closing
    omegas, bit for bit, whether a row took one substep, finished in
    ``_substep_loop`` or was redone by the fallback; so a step opened with
    that force equals one that evaluates its opening force afresh."""

    SNAP = TestLoneRow.SNAP
    # The tangent law tabulated on 8 points.
    GRID8 = np.linspace(0.02, 0.98, 8)
    TABLE8 = table_model(1.0, GRID8, -np.tan(np.pi * (GRID8 - 0.5)))
    # Table law, eta_scale 0.02, dt 0.05: rows 0 and 5 take one substep,
    # two rows finish in the loop and three go to the fallback.
    TABLE8_ROWS = np.array([
        [0.0, 0.1, 0.5, 0.1],
        [0.1, 0.0, 0.9, 0.0],
        [0.2, 0.0, 0.1, -0.4],
        [0.3, 0.0, 0.95, 0.6],
        [0.4, 0.0, 0.05, -0.8],
        [0.5, 0.0, 0.52, 0.05],
    ])

    @classmethod
    def step(cls, z, model, dt, ctl, *opening):
        """_advance_batch's result, or the message of its underflow."""
        lo, hi = model.domain
        try:
            return trajectory._advance_batch(z, cls.SNAP, model, dt, ctl, lo, hi, *opening)
        except StepUnderflowError as exc:
            return str(exc)

    @classmethod
    def check(cls, z, model, dt, ctl):
        """Steps z twice, the second time with and without the carried
        force; returns the omegas of the first step's loop rows and of its
        fallback rows."""
        loops, handed = [], []
        loop, scalar = trajectory._substep_loop, trajectory._advance_scalar

        def loop_spy(om, e, d, k0, m, tan, *rest):
            if tan is np.tan:  # not the fallback's math.tan
                loops.append(om)
            return loop(om, e, d, k0, m, tan, *rest)

        def scalar_spy(*args):
            if len(args) == 9:  # called by _advance_batch, not a halving
                handed.append(args[2])
            return scalar(*args)

        with mock.patch.object(trajectory, "_substep_loop", loop_spy), \
                mock.patch.object(trajectory, "_advance_scalar", scalar_spy):
            first = cls.step(z, model, dt, ctl, opening_pair(cls.SNAP, z))
        if isinstance(first, str):
            return loops, handed
        out, pair, fh = first
        assert fh.tobytes() == trajectory._force_array(model, out[:, 2]).tobytes()
        carried = cls.step(out, model, dt, ctl, pair, fh)
        fresh = cls.step(out, model, dt, ctl, pair)
        if isinstance(fresh, str):
            assert carried == fresh
        else:
            for got, want in zip((carried[0], *carried[1], carried[2]),
                                 (fresh[0], *fresh[1], fresh[2]), strict=True):
                assert got.tobytes() == want.tobytes()
        return loops, handed

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    @pytest.mark.parametrize("law", ["tangent", "table8", "cubic"])
    def test_fixed_rows(self, tan1, law, sign):
        # Each batch mixes loop rows, fallback rows and, in row 0 at the
        # midpoint, a row that takes one substep.
        if law == "tangent":
            rows, model, ctl = TestBatchIndependence.ROWS, tan1, StepControl(dt=2.5e-3)
        elif law == "table8":
            rows = self.TABLE8_ROWS * [1.0, 1.0, 1.0, sign]
            model, ctl = self.TABLE8, StepControl(dt=0.05, eta_scale=0.02)
        else:
            rows = TestLoneRow.CROSS_ROWS * [1.0, 1.0, 1.0, sign]
            model, ctl = cubic_model(), StepControl(dt=0.05, eta_scale=0.05)
        loops, handed = self.check(rows, model, sign * ctl.dt, ctl)
        assert loops and handed and rows[0, 2] == 0.5

    @given(law=hs.sampled_from(["tangent", "table8", "cubic"]), backward=hs.booleans(),
           rows=hs.lists(hs.tuples(hs.floats(-1.0, 1.0), hs.floats(-1.0, 1.0)),
                         min_size=2, max_size=12))
    @settings(derandomize=True, max_examples=60, deadline=None)
    def test_random_rows(self, law, backward, rows):
        if law == "tangent":
            # Wall distances 1e-6 .. 0.5 at either wall, |eta| <= 2.
            model, ctl = tangent_model(1.0), StepControl(dt=2.5e-3)
            om = [10.0 ** (-6.0 + 5.7 * abs(a)) for a, _ in rows]
            om = [u if a >= 0.0 else 1.0 - u for u, (a, _) in zip(om, rows)]
            eta = [2.0 * b for _, b in rows]
        elif law == "table8":
            model, ctl = self.TABLE8, StepControl(dt=0.05, eta_scale=0.02)
            om = [0.5 + 0.47 * a for a, _ in rows]
            eta = [b for _, b in rows]
        else:
            model, ctl = cubic_model(), StepControl(dt=0.05, eta_scale=0.05)
            om = [0.5 + 0.45 * a for a, _ in rows]
            eta = [2.5 * b for _, b in rows]
        z = np.array([[0.1 * i, 0.0, o, e] for i, (o, e) in enumerate(zip(om, eta))])
        self.check(z, model, -ctl.dt if backward else ctl.dt, ctl)


class TestInputContract:
    """integrate_batch writes nothing to a float64 Fortran-order input and
    returns no view of it, also when it takes no step."""

    @pytest.mark.parametrize("record", [False, True])
    @pytest.mark.parametrize("t1", [0.01, 0.0])
    @pytest.mark.parametrize("n_rows", [8, 1])
    def test_input_untouched(self, tan1, n_rows, t1, record):
        z = np.asfortranarray(TestBatchIndependence.ROWS[:n_rows])
        keep = z.copy()
        z.flags.writeable = False
        got = integrate_batch(z, TestLoneRow.SNAP, tan1, 0.0, t1, StepControl(dt=2.5e-3),
                              record=record)
        for a in got if record else (got,):
            assert not np.shares_memory(a, z)
        assert z.tobytes() == keep.tobytes()

    def test_infinite_step_count(self, tan1):
        # A horizon no grid of steps can span is a DomainError, not an
        # OverflowError from the step count.
        z = TestBatchIndependence.ROWS
        for t0, t1, dt in ((0.0, math.inf, 0.01), (0.0, 1e308, 1e-300)):
            with pytest.raises(DomainError, match="cannot step from"):
                integrate_batch(z, TestLoneRow.SNAP, tan1, t0, t1, StepControl(dt=dt))


class TestOneSubstepScreen:
    """Where the screen clears a row, the wall term it skips is at most 1,
    so ``_substeps_batch`` equals the full count on every row."""

    @staticmethod
    def full_counts(model, om, e1, dt, ctl):
        fh = trajectory._force_array(model, om)
        m = np.maximum(1, np.ceil(np.abs(fh) * abs(dt) / ctl.eta_scale))
        return np.maximum(m, trajectory._wall_substeps(model, om, e1, dt))

    # eps, |dt| of both signs, random rows and the screen's edge cases.
    CASES = dict(eps=hs.floats(1e-3, 50.0), log_dt=hs.floats(-12.0, -1.0),
                 backward=hs.booleans(),
                 fracs=hs.lists(hs.floats(0.0, 1.0), min_size=1, max_size=20),
                 etas=hs.lists(hs.one_of(hs.floats(-20.0, 20.0), hs.floats()), min_size=1,
                               max_size=20),
                 ulps=hs.integers(-4, 4))

    @staticmethod
    def rows(eps, dt, fracs, etas, ulps):
        """(omega, e1) lists: random rows, NaN and infinite rows and, when
        the screen is on, rows a few ulps either side of u* at both walls
        and rows on the screen's boundary."""
        om = [f * eps for f in fracs] + [0.5 * eps] * 3 + [math.nan]
        e1 = [etas[i % len(etas)] for i in range(len(fracs))] + [math.nan, math.inf,
                                                                  -math.inf, 0.0]
        screen = trajectory._one_substep_threshold(eps, dt)
        if screen is not None:
            u_star, pot = screen
            # Rows a few ulps either side of u*, at both walls.
            u = [u_star + k * math.ulp(u_star) for k in range(ulps - 3, ulps + 4)]
            om += u + [eps - w for w in u]
            e1 += [etas[i % len(etas)] for i in range(2 * len(u))]
            # Rows on the screen's boundary, (u_now - u*) equal to the
            # travel bound, nudged by a few ulps of eta.
            c = abs(dt) * math.sqrt(1.0 + trajectory.SCREEN_MARGIN)
            for f in fracs:
                un = u_star + f * (0.5 * eps - u_star)
                e = math.sqrt(max(((un - u_star) / c) ** 2 - 2.0 * pot, 0.0))
                e *= 1.0 + ulps * 2.0 ** -52
                om += [un, eps - un]
                e1 += [e, -e]
        return om, e1

    @given(**CASES)
    @example(eps=1.0, log_dt=-1.5, backward=False, fracs=[0.5], etas=[0.0], ulps=0)
    @example(eps=1.0, log_dt=-12.0, backward=True, fracs=[0.3], etas=[1.0], ulps=1)
    @settings(derandomize=True, max_examples=300, deadline=None)
    def test_screened_counts_equal_full_counts(self, eps, log_dt, backward, fracs, etas,
                                               ulps):
        model = tangent_model(eps)
        dt = -(10.0 ** log_dt) if backward else 10.0 ** log_dt
        ctl = StepControl(dt=abs(dt))
        om, e1 = map(np.array, self.rows(eps, dt, fracs, etas, ulps))
        with np.errstate(all="ignore"):
            fh = trajectory._force_array(model, om)
            got = trajectory._substeps_batch(model, om, e1, fh, dt, ctl)
            want = self.full_counts(model, om, e1, dt, ctl)
        np.testing.assert_array_equal(got, want)

    @given(**CASES)
    @example(eps=1.0, log_dt=-1.5, backward=False, fracs=[0.5], etas=[0.0], ulps=0)
    @example(eps=1.0, log_dt=-12.0, backward=True, fracs=[0.3], etas=[1.0], ulps=1)
    @settings(derandomize=True, max_examples=300, deadline=None)
    def test_scalar_counts_equal_with_screen_off(self, eps, log_dt, backward, fracs, etas,
                                                 ulps):
        # _substeps_scalar runs the screen in math; switched off, every
        # row takes the full count, and each count (or the error a NaN
        # row raises) is the same.  Each is also _substeps_batch on the
        # row as a one-row array, through the same int().
        model = tangent_model(eps)
        dt = -(10.0 ** log_dt) if backward else 10.0 ** log_dt
        ctl = StepControl(dt=abs(dt))
        om, e1 = self.rows(eps, dt, fracs, etas, ulps)

        def count(thunk):
            try:
                return int(thunk())
            except (ValueError, OverflowError) as exc:
                return type(exc)

        def counts():
            return [count(lambda: trajectory._substeps_scalar(
                model, o, e, trajectory._force_scalar(model, o, np.tan), dt, ctl))
                for o, e in zip(om, e1)]

        with np.errstate(all="ignore"):
            on = counts()
            singles = [(np.array([o]), np.array([e])) for o, e in zip(om, e1)]
            batch = [count(lambda: trajectory._substeps_batch(
                model, o, e, trajectory._force_array(model, o), dt, ctl)[0]) for o, e in singles]
            with mock.patch.object(trajectory, "_one_substep_threshold", lambda eps, dt: None):
                assert counts() == on
        assert on == batch

    def test_threshold(self):
        # |dt| * freq(u*) / WALL_RESOLUTION is 1/2, and U(u*) is the bond
        # potential at u*; past |dt| = 0.025 * sqrt(eps / pi) the screen
        # is off.
        for eps, dt in ((1.0, 2.5e-3), (0.01, -1e-5), (50.0, 1e-7)):
            u_star, pot = trajectory._one_substep_threshold(eps, dt)
            freq = math.sqrt(math.pi / eps) / math.sin(math.pi * u_star / eps)
            assert abs(dt) * freq / trajectory.WALL_RESOLUTION == pytest.approx(0.5, rel=1e-12)
            assert pot == pytest.approx(
                potential_to_midpoint(tangent_model(eps), u_star), rel=1e-12)
        edge = 0.025 * math.sqrt(1.0 / math.pi)
        assert trajectory._one_substep_threshold(1.0, 0.999 * edge) is not None
        for dt in (1.001 * edge, -1.001 * edge, 0.0, math.nan, math.inf):
            assert trajectory._one_substep_threshold(1.0, dt) is None


class TestPathDumps:
    def test_csv_columns(self, tan1, control, tmp_path):
        st = ParticleState(0.0, 0.0, 0.6, 0.1)
        bal = balance_points(tan1, 0.05)
        path = integrate(st, zero_field(), tan1, 0.0, 1.0, control, balance=bal)
        f = tmp_path / "path.csv"
        path.dump_csv(f)
        assert f.read_text().splitlines()[0] == "t,x,v,omega,eta"
        fe = tmp_path / "events.csv"
        path.dump_events_csv(fe)
        assert fe.read_text().splitlines()[0] == "t,kind,omega,eta"

    def test_events_csv_bytes_equal_csv_writer(self, tan1, tmp_path):
        # The bytes of the csv.writer rows the file was first written
        # with: events of every kind from a real excursion, events with
        # NaN, -0.0 and infinite coordinates, and no events.
        bal = balance_points(tan1, 0.1)
        path = integrate(ParticleState(0.0, 0.0, bal.omega_M, 0.2), ConstantField(0.0, 0.1),
                         tan1, 0.0, 1.9, StepControl(dt=1e-3), balance=bal)
        found = list(path.events)
        assert {e.kind for e in found} == set(EventKind)
        odd = [OscillationEvent(EventKind.STOPPING_TIME, -0.0,
                                ParticleState(0.0, 0.0, math.nan, -0.0)),
               OscillationEvent(EventKind.EXIT_CHAOTIC, 1.0 / 3.0,
                                ParticleState(0.0, 0.0, math.inf, 1e-300), "omega_M")]
        for events in (found, odd, []):
            path.events = events
            ref = tmp_path / "ref.csv"
            with open(ref, "w", newline="") as fh:
                wr = csv.writer(fh)
                wr.writerow(["t", "kind", "omega", "eta"])
                for ev in events:
                    wr.writerow([f"{ev.time:.17g}", ev.kind.value,
                                 f"{ev.state.omega:.17g}", f"{ev.state.eta:.17g}"])
            fe = tmp_path / "events.csv"
            path.dump_events_csv(fe)
            assert fe.read_bytes() == ref.read_bytes()
