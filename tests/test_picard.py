import importlib
import json
from pathlib import Path

import numpy as np
import pytest

from diatomic_vlasov import (
    BoundParameters,
    BumpDatum,
    ConfigError,
    Ensemble,
    FieldSnapshot,
    StepControl,
    build_field,
    confinement_time,
    integrate_batch,
    sample_datum,
    support_bounds,
    tangent_model,
    zero_field,
)
from diatomic_vlasov import picard, simulator
from diatomic_vlasov.cli import dispatch
from diatomic_vlasov.datum import sobol_box
from diatomic_vlasov.picard import iterate
from helpers import force_free_model, solve_linear

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def small_datum(amp=4.0):
    return BumpDatum(centers=(0.0, 0.0, 0.5, 0.0),
                     widths=(0.5, 0.3, 0.08, 0.3), amplitude=amp)


BOX = ((-0.8, 0.8), (-0.5, 0.5), (0.37, 0.63), (-0.5, 0.5))


class TestSampling:
    def test_mass_matches_quadrature(self):
        # product datum: mass factorizes; each bump integrates to 16/15*width
        d = small_datum(amp=1.0)
        ens = sample_datum(d, d.support(), (24, 24, 24, 24), epsilon=1.0)
        expect = (16.0 / 15.0) ** 4 * 0.5 * 0.3 * 0.08 * 0.3
        assert ens.total_mass == pytest.approx(expect, rel=1e-2)

    def test_prunes_zero_cells(self):
        d = small_datum()
        ens = sample_datum(d, BOX, (8, 8, 8, 8), epsilon=1.0)
        assert len(ens) < 8**4
        assert np.all(ens.w > 0)

    def test_omega_box_must_sit_inside_domain(self):
        d = small_datum()
        box = (BOX[0], BOX[1], (-0.1, 0.5), BOX[3])
        with pytest.raises(ConfigError):
            sample_datum(d, box, (4, 4, 4, 4), epsilon=1.0)

    def test_deterministic(self):
        d = small_datum()
        a = sample_datum(d, BOX, (6, 6, 6, 6), epsilon=1.0)
        b = sample_datum(d, BOX, (6, 6, 6, 6), epsilon=1.0)
        assert np.array_equal(a.x, b.x) and np.array_equal(a.w, b.w)


class TestSupportBounds:
    def test_single_particle_degenerate_box(self):
        ens = Ensemble([0.3], [-0.2], [0.55], [0.1], [1.0])
        s = support_bounds(ens)
        assert (s.Px, s.Pv, s.Pomega_minus, s.Pomega_plus, s.Peta) == \
            (0.3, 0.2, 0.55, 0.55, 0.1)

    def test_free_streaming_growth(self):
        # force-free custom model: the x extent grows by exactly Pv * T
        model = force_free_model()
        ens = Ensemble([0.0, 0.1], [-0.5, 0.5], [0.5, 0.5], [0.0, 0.0], [1.0, 1.0])
        s0 = support_bounds(ens)
        moved, _ = solve_linear(ens, zero_field(), model, T=1.0,
                                control=StepControl(dt=0.05))
        s1 = support_bounds(moved)
        assert s1.Px == pytest.approx(s0.Px + s0.Pv * 1.0, abs=1e-12)


class TestSolveLinear:
    def test_free_streaming_transport(self):
        model = force_free_model()
        ens = Ensemble([0.0, 1.0], [0.3, -0.2], [0.45, 0.55], [0.02, -0.03],
                       [0.5, 0.5])
        moved, _ = solve_linear(ens, zero_field(), model, T=2.0,
                                control=StepControl(dt=0.1))
        np.testing.assert_allclose(moved.x, [0.6, 0.6], atol=1e-12)
        np.testing.assert_allclose(moved.omega, [0.49, 0.49], atol=1e-12)

    def test_mass_invariant(self, tan1):
        d = small_datum()
        ens = sample_datum(d, BOX, (6, 6, 6, 6), epsilon=1.0)
        prov = build_field(ens)
        moved, _ = solve_linear(ens, prov, tan1, T=0.05, control=StepControl(dt=0.01))
        assert moved.total_mass == ens.total_mass  # same float array, same sum
        assert moved.w is ens.w

    def test_sup_preserved_under_transport(self, tan1):
        d = small_datum()
        ens = sample_datum(d, BOX, (6, 6, 6, 6), epsilon=1.0)
        prov = build_field(ens)
        moved, _ = solve_linear(ens, prov, tan1, T=0.05, control=StepControl(dt=0.01))
        assert np.max(moved.f_values) == np.max(ens.f_values)

    def test_backward_oracle_matches_datum_at_t0(self, tan1):
        # evaluating at pushed particle positions recovers datum values
        d = small_datum()
        ens = sample_datum(d, BOX, (5, 5, 5, 5), epsilon=1.0)
        prov = build_field(ens)
        ctl = StepControl(dt=0.005)
        moved, evaluate = solve_linear(ens, prov, tan1, T=0.05, control=ctl,
                                       datum=d)
        z = np.stack([moved.x, moved.v, moved.omega, moved.eta], axis=1)
        vals = evaluate(z)
        # the backward map inverts the forward one to roundoff
        np.testing.assert_allclose(vals, ens.f_values, rtol=0, atol=1e-7)


class TestIterate:
    def setup_run(self, n_max=4, probe=256):
        d = small_datum()
        model = tangent_model(1.0)
        p = BoundParameters(epsilon=1.0, epsilon0=0.37, R=0.8,
                            C_minus=0.05, C=0.5, model=model)
        t0 = confinement_time(p)
        T = t0 / 2
        recs = iterate(d, BOX, (8, 8, 8, 8), model, T=T, n_max=n_max,
                       probe_grid=probe, control=StepControl(dt=T / 10),
                       dt_macro=T / 10)
        return recs, T

    def test_records_and_decay(self):
        recs, _ = self.setup_run()
        assert [r.n for r in recs] == [1, 2, 3, 4]
        deltas = [r.sup_delta for r in recs]
        assert deltas[0] > 0
        # super-geometric decay: each round shrinks by a growing factor
        nz = [d for d in deltas if d > 0]
        ratios = [nz[i + 1] / nz[i] for i in range(len(nz) - 1)]
        assert all(r < 0.5 for r in ratios)

    def test_n_max_zero_single_record(self):
        d = small_datum()
        recs = iterate(d, BOX, (6, 6, 6, 6), tangent_model(1.0), T=0.01,
                       n_max=0, probe_grid=64, control=StepControl(dt=0.002),
                       dt_macro=0.002)
        assert len(recs) == 1
        assert recs[0].n == 0 and recs[0].sup_delta == 0.0
        assert recs[0].sup_F > 0

    def test_support_grows_with_horizon(self):
        d = small_datum()
        model = tangent_model(1.0)
        r1 = iterate(d, BOX, (6, 6, 6, 6), model, T=0.01, n_max=1,
                     probe_grid=64, control=StepControl(dt=0.002), dt_macro=0.002)
        r2 = iterate(d, BOX, (6, 6, 6, 6), model, T=0.02, n_max=1,
                     probe_grid=64, control=StepControl(dt=0.002), dt_macro=0.002)
        assert r2[0].support.Px >= r1[0].support.Px
        assert r2[0].support.Pomega_plus >= r1[0].support.Pomega_plus

    def test_no_snapshot_keeps_a_bucket_table(self, monkeypatch):
        # Forward pushes of 1,296 rows and backward pushes of 512 probes
        # build a table for each integrate_batch call; the snapshots passed
        # in, and every snapshot of every round's history, hold none after.
        passed, hists, built = [], [], []
        batch, push, indexed = simulator.integrate_batch, picard._push_collect, \
            FieldSnapshot.indexed
        for mod in (simulator, picard):
            monkeypatch.setattr(mod, "integrate_batch",
                                lambda z, field, *a, **k: passed.append(field)
                                or batch(z, field, *a, **k))

        def collect(*a):
            out = push(*a)
            hists.append(out[1])
            return out

        monkeypatch.setattr(picard, "_push_collect", collect)
        monkeypatch.setattr(FieldSnapshot, "indexed",
                            lambda s, rows, calls: built.append(indexed(s, rows, calls))
                            or built[-1])
        d = small_datum()
        iterate(d, d.support(), (6, 6, 6, 6), tangent_model(1.0), T=0.02, n_max=3,
                probe_grid=512, control=StepControl(dt=0.01), dt_macro=0.01)
        assert len(hists) == 2 and passed  # round 2 reaches the fixed point
        assert sum(s._index is not None for s in built) == len(passed)
        assert all(s._index is None for s in passed + [s for h in hists for s in h])

    def test_field_norm_bounded_by_twice_mass(self):
        recs, _ = self.setup_run(n_max=2)
        d = small_datum()
        ens = sample_datum(d, BOX, (8, 8, 8, 8), epsilon=1.0)
        for r in recs:
            assert 2.0 * r.sup_F <= 2.0 * ens.total_mass + 1e-12


class _NoArrayEqual:
    """numpy for ``picard`` with ``array_equal`` always False: the probe
    reuse cannot fire."""

    def __getattr__(self, name):
        return getattr(np, name)

    @staticmethod
    def array_equal(a, b):
        return False


def no_comparison(monkeypatch):
    """No snapshot equals another: every push starts at t = 0 and the
    fixed-point stop cannot fire."""
    monkeypatch.setattr(FieldSnapshot, "same_field", lambda self, other: False)


def full_rounds(monkeypatch):
    """Every round computed in full: no resume, stop or probe reuse."""
    monkeypatch.setattr(picard, "np", _NoArrayEqual())
    no_comparison(monkeypatch)


def no_stop(monkeypatch):
    """The fixed-point stop cannot fire; pushes still resume, so a round
    after the fixed point starts at the last macro time and pushes no
    step."""
    push = picard._push_collect

    def pushed(*args):
        moved, hist, supp, _, resume = push(*args)
        return moved, hist, supp, False, resume

    monkeypatch.setattr(picard, "_push_collect", pushed)


class TestSkippedWork:
    """The fixed-point stop, the resumed pushes and the probe reuse change
    no record."""

    KW = dict(T=0.02, n_max=6, probe_grid=512, control=StepControl(dt=0.004),
              dt_macro=0.004)

    def run(self, **over):
        return iterate(small_datum(), BOX, (8, 8, 8, 8), tangent_model(1.0),
                       **{**self.KW, **over})

    @pytest.fixture()
    def counts(self, monkeypatch):
        """Forward pushes and backward probe pushes made by iterate."""
        calls = {"forward": 0, "backward": 0}
        push, back = picard._push_collect, picard._backward_values

        def count_push(*args, **kw):
            calls["forward"] += 1
            return push(*args, **kw)

        def count_back(*args, **kw):
            calls["backward"] += 1
            return back(*args, **kw)

        monkeypatch.setattr(picard, "_push_collect", count_push)
        monkeypatch.setattr(picard, "_backward_values", count_back)
        return calls

    @pytest.mark.parametrize("tol", [0.0, 1e-20, 1e-3])
    def test_records_equal_full_run(self, monkeypatch, tol):
        fast = self.run(tol=tol)
        with monkeypatch.context() as mp:
            no_stop(mp)
            resumed = self.run(tol=tol)
        with monkeypatch.context() as mp:
            no_comparison(mp)
            from_zero = self.run(tol=tol)
        full_rounds(monkeypatch)
        full = self.run(tol=tol)
        assert repr(fast) == repr(full) == repr(resumed) == repr(from_zero)
        # Round 3, the first filled-in record, is the first with delta 0.
        assert len(full) == {0.0: 6, 1e-20: 3, 1e-3: 2}[tol]

    def test_stop_fires(self, counts):
        recs = self.run()
        assert counts == {"forward": 2, "backward": 2}
        assert [r.n for r in recs] == [1, 2, 3, 4, 5, 6]

    def test_probe_reuse_fires(self, monkeypatch, counts):
        no_stop(monkeypatch)
        self.run()
        # Round 1 needs one backward push; every later round reuses the
        # previous round's values at its (equal) probes.
        assert counts == {"forward": 6, "backward": 6}
        full_rounds(monkeypatch)
        counts.update(forward=0, backward=0)
        self.run()
        assert counts == {"forward": 6, "backward": 11}

    def test_exact_distances_vanish_from_the_stop(self, monkeypatch):
        pushes, push = [], picard._push_collect
        monkeypatch.setattr(picard, "_push_collect",
                            lambda *args: pushes.append(push(*args)) or pushes[-1])
        recs = self.run()
        first = [p[3] for p in pushes].index(True)  # the round whose history repeats
        assert recs[0].z_dist > 0.0 and recs[0].field_w1 > 0.0
        for r in recs[first:]:
            assert r.z_dist == 0.0 and r.field_w1 == 0.0
        full_rounds(monkeypatch)
        assert repr(self.run()) == repr(recs)

    @pytest.mark.parametrize("n_max", [0, 1])
    def test_short_runs_unchanged(self, monkeypatch, counts, n_max):
        fast = self.run(n_max=n_max)
        assert counts == {"forward": n_max, "backward": n_max}
        full_rounds(monkeypatch)
        assert repr(self.run(n_max=n_max)) == repr(fast)
        assert len(fast) == 1

    def test_same_history(self, monkeypatch):
        # A push is at the fixed point when the history it builds has as
        # many snapshots as the one it was pushed under, pairwise equal.
        ens0 = sample_datum(small_datum(), BOX, (8, 8, 8, 8), epsilon=1.0)
        start = (0, ens0, support_bounds(ens0))
        args = (tangent_model(1.0), self.KW["T"], self.KW["dt_macro"], self.KW["control"])
        # f_0's one-snapshot history never matches a pushed one.
        moved, hist1, _, fixed, _ = picard._push_collect(start, [build_field(ens0)], *args)
        assert not fixed and len(hist1) == 6
        _, _, _, fixed, resume = picard._push_collect(start, hist1, *args)
        assert fixed and resume[0] == 5
        assert not picard._push_collect(start, hist1[:-1], *args)[3]
        # One bit off in the last snapshot, which governs no step, ends
        # the stop but not the resume.
        last = build_field(moved)
        last._values[1, 0] = np.nextafter(last._values[1, 0], np.inf)
        _, _, _, fixed, resume = picard._push_collect(start, hist1[:-1] + [last], *args)
        assert not fixed and resume[0] == 5
        # A comparison that fails midway ends the prefix there.
        calls, same = iter(range(6)), FieldSnapshot.same_field
        monkeypatch.setattr(FieldSnapshot, "same_field",
                            lambda a, b: next(calls) != 2 and same(a, b))
        _, _, _, fixed, resume = picard._push_collect(start, hist1, *args)
        assert not fixed and resume[0] == 2

    def test_round_one_never_stops(self, monkeypatch, counts):
        # Velocities so small that no x moves by a bit: round 1 rebuilds
        # f_0's field at every macro time, yet it is compared with f_0's
        # one-snapshot history and pushes on; round 2 then repeats it.
        # Round 2 starts at the last macro time and pushes no step.
        box = (BOX[0], (-1e-20, 1e-20), BOX[2], BOX[3])
        seen = []
        push = picard._push_collect

        def spy(start, prev, *args):
            out = push(start, prev, *args)
            seen.append((start[0], len(out[1]), len(prev), out[3]))
            return out

        monkeypatch.setattr(picard, "_push_collect", spy)
        recs = iterate(small_datum(), box, (4, 4, 4, 4), tangent_model(1.0), T=1e-10,
                       n_max=4, probe_grid=64, control=StepControl(dt=5e-11),
                       dt_macro=5e-11)
        assert seen == [(0, 3, 1, False), (2, 3, 3, True)]
        assert counts["forward"] == 2 and len(recs) == 4
        assert recs[0].field_w1 == 0.0


class TestResume:
    """Each forward push starts at the first macro step whose field differs
    from the last round's, from the last round's state there."""

    KW = dict(n_max=6, probe_grid=64, control=StepControl(dt=0.005), dt_macro=0.01)

    @pytest.fixture()
    def pushes(self, monkeypatch):
        """[start step, macro steps pushed] of each forward push."""
        rounds = []
        march, batch = picard._march, simulator.integrate_batch

        def spy_march(*args, k0=0, **kw):
            rounds.append([k0, 0])
            return march(*args, k0=k0, **kw)

        def spy_batch(*args, **kw):
            rounds[-1][1] += 1
            return batch(*args, **kw)

        monkeypatch.setattr(picard, "_march", spy_march)
        monkeypatch.setattr(simulator, "integrate_batch", spy_batch)
        return rounds

    @pytest.mark.parametrize("grid, T, want", [
        (6, 0.3, [[0, 30], [1, 29], [3, 27], [22, 8]]),
        # Round 2 agrees on every step but not on the snapshot at T, so
        # round 3 starts at T, pushes nothing and reaches the fixed point.
        (8, 0.1, [[0, 10], [1, 9], [10, 0]]),
    ])
    def test_pushed_steps_and_records(self, monkeypatch, pushes, grid, T, want):
        def run():
            return iterate(small_datum(), BOX, (grid,) * 4, tangent_model(1.0), T=T,
                           **self.KW)

        recs = run()
        assert pushes == want
        pushes.clear()
        no_comparison(monkeypatch)
        assert repr(run()) == repr(recs)
        assert pushes == [[0, round(T / 0.01)]] * 6

    @pytest.mark.parametrize("variant", range(4))
    def test_benchmark_outputs_unchanged(self, tmp_path, monkeypatch, capsys, pushes,
                                         variant):
        # The picard workload's smoke configs, whose round 2 starts at
        # step 1, write the same bytes with every push from t = 0.
        monkeypatch.syspath_prepend(str(PERFBENCH))
        workloads = importlib.import_module("workloads")
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(workloads.config("picard", variant, smoke=True)))

        def picard_run(name):
            assert dispatch(["picard", "--config", str(cfg),
                             "--output-dir", str(tmp_path / name)]) == 0
            return capsys.readouterr().out

        resumed = picard_run("resumed")
        assert [k0 for k0, _ in pushes] == [0, 1]
        no_comparison(monkeypatch)
        assert picard_run("from_zero") == resumed
        for name in ("iteration_log.csv", "iteration_distances.csv"):
            assert (tmp_path / "resumed" / name).read_bytes() == \
                (tmp_path / "from_zero" / name).read_bytes()


class TestBackwardWalk:
    """A pushed history is walked back one macro step at a time, hist[k]
    on [t_k, t_{k+1}]; f_0's one-snapshot history is one push over [T, 0]."""

    MODEL = tangent_model(1.0)
    CTL = StepControl(dt=0.005)

    @staticmethod
    def snapshots():
        # Three distinct fields: the datum's particles shifted in x.
        ens = sample_datum(small_datum(), BOX, (5, 5, 5, 5), epsilon=1.0)
        return [build_field(ens.with_coords(ens.x + s, ens.v, ens.omega, ens.eta, 0.0))
                for s in (0.0, 0.05, -0.07)]

    @staticmethod
    def probes():
        return sobol_box(64, [-0.5, -0.3, 0.45, -0.3], [0.5, 0.3, 0.55, 0.3])

    def test_one_snapshot_is_one_push(self, monkeypatch):
        snap0 = self.snapshots()[0]
        want = small_datum().value(
            *integrate_batch(self.probes(), snap0, self.MODEL, 0.02, 0.0, self.CTL).T)
        calls = []
        batch = picard.integrate_batch
        monkeypatch.setattr(picard, "integrate_batch",
                            lambda *a, **k: calls.append(a[3:5]) or batch(*a, **k))
        got = picard._backward_values(small_datum(), self.probes(), [snap0], self.MODEL,
                                      0.02, 0.01, self.CTL)
        assert calls == [(0.02, 0.0)]
        np.testing.assert_array_equal(got, want)

    def test_two_steps_walk_the_macro_grid(self):
        s0, s1, s2 = self.snapshots()
        got = picard._backward_values(small_datum(), self.probes(), [s0, s1, s2],
                                      self.MODEL, 0.02, 0.01, self.CTL)

        def walk(first, second):
            z = integrate_batch(self.probes(), second, self.MODEL, 0.02, 0.01, self.CTL)
            z = integrate_batch(z, first, self.MODEL, 0.01, 0.0, self.CTL)
            return small_datum().value(*z.T)

        np.testing.assert_array_equal(got, walk(s0, s1))
        # Each snapshot one step late reads other fields.
        assert not np.array_equal(got, walk(s1, s2))


class TestProbeGrid:
    def test_inside_box_and_deterministic(self, monkeypatch):
        # Each round's probes are Sobol points in the box of f_n's support.
        probes = []
        sobol = picard.sobol_box

        def spy(*args):
            probes.append(sobol(*args))
            return probes[-1]

        monkeypatch.setattr(picard, "sobol_box", spy)
        kw = dict(T=0.02, n_max=1, probe_grid=128, control=StepControl(dt=0.004),
                  dt_macro=0.004)
        rec, = iterate(small_datum(), BOX, (6, 6, 6, 6), tangent_model(1.0), **kw)
        iterate(small_datum(), BOX, (6, 6, 6, 6), tangent_model(1.0), **kw)
        a, b = probes
        assert a.shape == (128, 4) and np.array_equal(a, b)
        s = rec.support
        assert np.all(a[:, 2] >= s.Pomega_minus) and np.all(a[:, 2] <= s.Pomega_plus)
        for j, r in ((0, s.Px), (1, s.Pv), (3, s.Peta)):
            assert np.all(np.abs(a[:, j]) <= r)
