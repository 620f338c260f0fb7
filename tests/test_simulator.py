import csv
import math
from dataclasses import replace

import numpy as np
import pytest

from diatomic_vlasov import (
    ConfigError,
    ContinuationStatus,
    Diagnostics,
    RunConfig,
    build_field,
    check_continuation,
    diagnostics,
    integrate_batch,
    run,
    tangent_model,
)
from diatomic_vlasov.field import Ensemble
from diatomic_vlasov.simulator import _tracked_seeds, dump_diagnostics_csv


def base_config(**over):
    raw = {
        "hooke": {"kind": "tangent", "epsilon": 1.0},
        "datum": {"kind": "bumps",
                  "centers": {"x": 0.0, "v": 0.0, "omega": 0.5, "eta": 0.0},
                  "widths": {"x": 0.5, "v": 0.3, "omega": 0.08, "eta": 0.3},
                  "amplitude": 4.0,
                  "grid": [6, 6, 6, 6]},
        "T": 0.3, "dt_macro": 0.01,
        "control": {"dt": 0.0025},
        "tracked_boundary": 16, "tracked_interior": 8,
    }
    raw.update(over)
    return RunConfig.from_dict(raw)


class TestConfig:
    def test_unknown_top_key_rejected(self):
        with pytest.raises(ConfigError):
            base_config(frobnicate=1)

    def test_unknown_nested_key_rejected(self):
        with pytest.raises(ConfigError):
            base_config(hooke={"kind": "tangent", "epsilon": 1.0, "zeta": 2})

    @pytest.mark.parametrize("over, key", [
        ({"dt_macro": 1e-300}, "T/dt_macro"),
        ({"control": {"dt": 1e-300}}, "T/control.dt"),
        ({"trajectory": {"dt": 1e-300}}, "trajectory.T/dt"),
        ({"trajectory": {"T": 1e3, "dt": 1e-5}}, "trajectory.T/dt"),
    ])
    def test_step_count_capped(self, over, key):
        # Unchecked, dt_macro = 1e-300 asks for about 3e299 step targets.
        with pytest.raises(ConfigError, match=f"^{key} is .* over the cap of 10000000 steps"):
            base_config(**over)

    def test_effective_echoes_defaults(self):
        eff = base_config().effective()
        assert eff["c_safety"] == 1.5
        assert eff["snapshot_every"] == 0
        assert set(eff) == set(RunConfig.__dataclass_fields__)

    def test_omega_support_guard(self):
        cfg = base_config(datum={
            "kind": "bumps",
            "centers": {"x": 0.0, "v": 0.0, "omega": 0.04, "eta": 0.0},
            "widths": {"x": 0.5, "v": 0.3, "omega": 0.08, "eta": 0.3},
            "grid": [4, 4, 4, 4]})
        with pytest.raises(ConfigError):
            run(cfg)


class TestRun:
    def test_mass_bitwise_constant(self):
        res = run(base_config())
        l1 = {d.L1 for d in res.series}
        assert len(l1) == 1

    def test_transported_max_constant(self):
        res = run(base_config())
        linf = {d.Linf for d in res.series}
        assert len(linf) == 1

    def test_field_norm_equals_twice_mass(self):
        res = run(base_config())
        for d in res.series:
            assert d.sup_F == pytest.approx(d.L1, rel=1e-12)  # sup|F| = M/2 = L1

    def test_continuation_never_fails_on_certified_run(self):
        res = run(base_config())
        assert all(d.status in (ContinuationStatus.PASS, ContinuationStatus.WARN)
                   for d in res.series)

    def test_tracked_certificates_pass(self):
        res = run(base_config())
        assert len(res.cert_reports) == 24
        assert all(r.passed for r in res.cert_reports)

    def test_zero_mass_datum_decouples(self):
        # explicit zero-weight particles: field vanishes, bonds oscillate freely
        ens = Ensemble([0.0, 1.0], [0.1, -0.1], [0.55, 0.45], [0.0, 0.0],
                       [0.0, 0.0])
        import tempfile, pathlib
        with tempfile.TemporaryDirectory() as td:
            p = pathlib.Path(td) / "particles.csv"
            ens.dump_csv(p)
            cfg = base_config(datum={"kind": "particles", "path": str(p)},
                              tracked_boundary=0, tracked_interior=0)
            res = run(cfg)
        assert res.certificate is None
        assert all(d.status is ContinuationStatus.NA for d in res.series)
        assert all(d.sup_F == 0.0 for d in res.series)
        # velocities untouched by the zero field
        np.testing.assert_array_equal(res.final.v, [0.1, -0.1])

    def test_single_molecule_velocity_constant(self):
        ens = Ensemble([0.2], [0.15], [0.5], [0.0], [0.5])
        import tempfile, pathlib
        with tempfile.TemporaryDirectory() as td:
            p = pathlib.Path(td) / "one.csv"
            ens.dump_csv(p)
            cfg = base_config(datum={"kind": "particles", "path": str(p)},
                              tracked_boundary=0, tracked_interior=0,
                              T=0.2, dt_macro=0.005)
            res = run(cfg)
        # the molecule's own field cancels at its center, so v never changes
        assert res.final.v[0] == pytest.approx(0.15, abs=1e-13)

    def test_symmetric_data_momentum_second_order(self):
        cfg = base_config(datum={
            "kind": "bumps",
            "centers": {"x": 0.0, "v": 0.0, "omega": 0.5, "eta": 0.0},
            "widths": {"x": 0.4, "v": 0.3, "omega": 0.07, "eta": 0.25},
            "amplitude": 6.0,
            "grid": [7, 7, 7, 7]},
            tracked_boundary=0, tracked_interior=0, T=0.5)
        res = run(cfg)
        mom = float(np.sum(res.final.w * res.final.v))
        assert abs(mom) < 1e-6  # symmetric datum: first moment stays ~0

    def test_oscillatory_energy_conserved_autonomously(self):
        # zero-mass run: per-particle bond energy drifts only at O(dt^2)
        ens = Ensemble([0.0], [0.0], [0.6], [0.1], [0.0])
        import tempfile, pathlib
        with tempfile.TemporaryDirectory() as td:
            p = pathlib.Path(td) / "z.csv"
            ens.dump_csv(p)
            cfg = base_config(datum={"kind": "particles", "path": str(p)},
                              tracked_boundary=0, tracked_interior=0,
                              T=1.0, dt_macro=0.002)
            res = run(cfg)
        e = [d.E_osc for d in res.series]
        # weights are zero so E_osc is zero; track the state instead
        m = tangent_model(1.0)
        from diatomic_vlasov import potential_to_midpoint
        e0 = 0.5 * 0.1**2 + potential_to_midpoint(m, 0.6)
        eT = 0.5 * res.final.eta[0]**2 + potential_to_midpoint(m, float(res.final.omega[0]))
        assert eT == pytest.approx(e0, abs=1e-5)

    def test_snapshot_dumps(self):
        res = run(base_config(snapshot_every=10))
        ks = [k for k, _ in res.snapshots_dumped]
        assert ks == [0, 10, 20, 30]

    def test_single_cell_axis_seeds_tracked_points(self):
        # One grid cell along omega: the support box has omega_lo ==
        # omega_hi == 0.5, where adding 1e-300 rounds back to 0.5, so the
        # interior seeds are padded to the next float instead.
        datum = {"kind": "bumps",
                 "centers": {"x": 0.0, "v": 0.0, "omega": 0.5, "eta": 0.0},
                 "widths": {"x": 0.5, "v": 0.3, "omega": 0.08, "eta": 0.3},
                 "amplitude": 4.0, "grid": [6, 6, 1, 6]}
        res = run(base_config(datum=datum, T=0.05))
        assert len(res.tracked_paths) == 24
        omegas = np.array([p.omega[0] for p in res.tracked_paths])
        assert np.all((omegas >= 0.5) & (omegas <= np.nextafter(0.5, 1.0)))


class TestCoupledOrder:
    def test_error_falls_per_halving(self):
        # The bulk benchmark's datum at grid 6^4 with dt_macro = control.dt,
        # against a run at 0.02/64: the largest final-state error falls
        # 2.59x, 2.14x and 2.14x per halving from dt = 0.02.  First order,
        # as the field jumps at every particle and is held over a step.
        def final(dt):
            datum = {**base_config().datum, "centers": {"x": 0.1, "v": 0.0, "omega": 0.5,
                                                        "eta": 0.0}}
            f = run(base_config(datum=datum, T=0.25, dt_macro=dt, control={"dt": dt},
                                tracked_boundary=0, tracked_interior=0)).final
            return np.stack([f.x, f.v, f.omega, f.eta])

        ref = final(0.02 / 64)
        err = [np.max(np.abs(final(dt) - ref)) for dt in (0.02, 0.01, 0.005, 0.0025)]
        assert all(a >= 1.4 * b for a, b in zip(err, err[1:]))

    def test_wall_median_eta_error_falls_per_halving(self):
        # The wall benchmark's datum at grid 4^4 (bonds reach the walls: the
        # substep loop runs about 2,000-3,300 times a run, and the halving
        # fallback 102, 62 and 30 times from dt = 0.02), with dt_macro =
        # control.dt, against a run at 0.02/32.  The largest error is
        # erratic, driven by rows near the walls; the median eta error falls
        # 2.60x, 1.90x and 2.37x per halving.
        def eta(dt):
            datum = {**base_config().datum, "grid": [4, 4, 4, 4],
                     "centers": {"x": 0.1, "v": 0.0, "omega": 0.5, "eta": 0.0},
                     "widths": {"x": 0.5, "v": 0.3, "omega": 0.49, "eta": 2.5}}
            return run(base_config(datum=datum, T=0.5, dt_macro=dt, control={"dt": dt},
                                   tracked_boundary=0, tracked_interior=0)).final.eta

        ref = eta(0.02 / 32)
        err = [np.median(np.abs(eta(dt) - ref)) for dt in (0.02, 0.01, 0.005, 0.0025)]
        assert all(a >= 1.5 * b for a, b in zip(err, err[1:]))


class TestMergedPush:
    """Tracked seeds ride in the particles' batch without moving them."""

    def test_seeds_move_no_particle_and_follow_the_step_fields(self):
        res = run(base_config(T=0.1, snapshot_every=1))
        alone = run(base_config(T=0.1, snapshot_every=1,
                                tracked_boundary=0, tracked_interior=0))
        for a in ("x", "v", "omega", "eta"):
            np.testing.assert_array_equal(getattr(res.final, a), getattr(alone.final, a))
        assert [repr(d) for d in res.series] == [repr(d) for d in alone.series]

        # Reference: the seeds pushed alone, one macro step at a time,
        # under the field of the ensemble at the start of each step.
        cfg = res.config
        model, control = cfg.build_model(), cfg.build_control()
        ensembles = [e for _, e in res.snapshots_dumped]
        z = _tracked_seeds(ensembles[0].support_box(), 16, 8)
        ts, samples, fms = [], [], []
        for k, (ens_k, ens_next) in enumerate(zip(ensembles, ensembles[1:])):
            z, ts_k, smp_k, fm_k = integrate_batch(
                z, build_field(ens_k), model, ens_k.time, ens_next.time,
                control, record=True)
            first = 0 if k == 0 else 1
            ts.append(ts_k[first:])
            samples.append(smp_k[first:])
            if fms:  # the boundary force is taken again under the new field
                fms[-1] = fms[-1][:-1]
            fms.append(fm_k)
        ts, samples, fms = np.concatenate(ts), np.concatenate(samples), np.concatenate(fms)
        assert len(res.tracked_paths) == samples.shape[1] == 24
        for i, path in enumerate(res.tracked_paths):
            np.testing.assert_array_equal(path.t, ts)
            for j, a in enumerate(("x", "v", "omega", "eta")):
                np.testing.assert_array_equal(getattr(path, a), samples[:, i, j])
            np.testing.assert_array_equal(path.f_minus, fms[:, i])


class TestDetJProbe:
    def test_probe_through_run(self):
        grid4 = {**base_config().datum, "grid": [4, 4, 4, 4]}
        plain = run(base_config(datum=grid4, T=0.1))
        probed = run(base_config(datum=grid4, T=0.1, detj_seeds=2, detj_every=3))
        errs = [d.detJ_err for d in probed.series]
        assert len(errs) == 11
        assert all(math.isfinite(e) and e < 1e-8 for e in errs)
        # Refreshed at every third macro time only, and it does change.
        assert all(errs[k] == errs[k - 1] for k in range(1, len(errs)) if k % 3)
        assert len(set(errs)) > 1
        assert all(math.isnan(d.detJ_err) for d in plain.series)
        assert [repr(replace(d, detJ_err=0.0)) for d in probed.series] == \
            [repr(replace(d, detJ_err=0.0)) for d in plain.series]


class TestDiagnostics:
    def test_fields_filled(self, tan1):
        ens = Ensemble([0.0, 0.5], [0.1, -0.2], [0.45, 0.6], [0.05, -0.1],
                       [0.3, 0.2], f_values=[1.0, 0.8])
        d = diagnostics(ens, build_field(ens), tan1)
        assert d.L1 == pytest.approx(0.5)
        assert d.Linf == 1.0
        assert d.E_kin == pytest.approx(0.5 * (0.3 * 0.01 + 0.2 * 0.04))
        assert d.support_box == (0.0, 0.5, -0.2, 0.1, 0.45, 0.6, -0.1, 0.05)
        assert d.E_osc > 0

    def test_csv_columns(self, tmp_path, tan1):
        ens = Ensemble([0.0], [0.0], [0.5], [0.0], [0.5], f_values=[1.0])
        d = diagnostics(ens, build_field(ens), tan1)
        f = tmp_path / "diag.csv"
        dump_diagnostics_csv([d], f)
        header = f.read_text().splitlines()[0]
        assert header == ("t,L1,Linf,x_lo,x_hi,v_lo,v_hi,w_lo,w_hi,"
                          "eta_lo,eta_hi,supF,E_kin,E_osc,detJ_err,status")

    def test_csv_bytes_equal_csv_writer(self, tmp_path):
        # The bytes of the csv.writer rows the file was first written
        # with, for every status, NaN, infinities, -0.0, and no rows.
        box = (-0.0, 0.5, -1e-300, 0.1, 0.45, 0.55, math.inf, -math.inf)
        series = [Diagnostics(time=0.1 * k, L1=1.0 / 3.0, Linf=-0.0, support_box=box,
                              sup_F=1e-17 * k, E_kin=2.0 ** 60, E_osc=math.nan,
                              detJ_err=math.nan if k % 2 else 1.5e-9, status=st)
                  for k, st in enumerate(ContinuationStatus)]
        assert {d.status.value for d in series} >= {"na", "warn", "fail"}
        for rows in (series, series[:1], []):
            ref = tmp_path / "ref.csv"
            with open(ref, "w", newline="") as fh:
                wr = csv.writer(fh)
                wr.writerow(["t", "L1", "Linf", "x_lo", "x_hi", "v_lo", "v_hi", "w_lo",
                             "w_hi", "eta_lo", "eta_hi", "supF", "E_kin", "E_osc",
                             "detJ_err", "status"])
                for d in rows:
                    row = [d.time, d.L1, d.Linf, *d.support_box, d.sup_F, d.E_kin,
                           d.E_osc, d.detJ_err]
                    wr.writerow([f"{c:.17g}" for c in row] + [d.status.value])
            f = tmp_path / "diag.csv"
            dump_diagnostics_csv(rows, f)
            assert f.read_bytes() == ref.read_bytes()


class TestContinuation:
    def make_cert(self):
        from diatomic_vlasov import BoundParameters, build_certificate
        p = BoundParameters(epsilon=1.0, epsilon0=0.4, R=0.5, C_minus=0.3,
                            C=0.6, model=tangent_model(1.0))
        return build_certificate(
            p, (-0.5, 0.5, -0.3, 0.3, 0.45, 0.55, -0.4, 0.4), T=1.0)

    def diag(self, box):
        return Diagnostics(time=0.0, L1=1.0, Linf=1.0, support_box=box,
                           sup_F=0.0, E_kin=0.0, E_osc=0.0, detJ_err=math.nan)

    def test_pass_inside(self):
        cert = self.make_cert()
        st, _ = check_continuation(self.diag((-0.1, 0.1, -0.1, 0.1,
                                              0.48, 0.52, -0.1, 0.1)), cert)
        assert st is ContinuationStatus.PASS

    def test_fail_names_coordinate(self):
        cert = self.make_cert()
        st, name = check_continuation(
            self.diag((-0.1, 0.1, -0.1, 0.1, 0.0, 0.52, -0.1, 0.1)), cert)
        assert st is ContinuationStatus.FAIL
        assert name == "omega_lower"

    def test_boundary_warns(self):
        cert = self.make_cert()
        st, _ = check_continuation(
            self.diag((-0.1, 0.1, -0.1, 0.1, cert.omega_confinement[0], 0.52, -0.1, 0.1)),
            cert)
        assert st is ContinuationStatus.WARN

    def test_no_certificate_is_na(self):
        st, _ = check_continuation(
            self.diag((-0.1, 0.1, -0.1, 0.1, 0.5, 0.52, -0.1, 0.1)), None)
        assert st is ContinuationStatus.NA
