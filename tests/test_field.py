import csv
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diatomic_vlasov import (
    BumpDatum,
    DomainError,
    EmptyEnsembleError,
    Ensemble,
    FieldSnapshot,
    IterationRecord,
    SupportBounds,
    build_field,
    field_w1,
    sample_datum,
)
from diatomic_vlasov import field
from diatomic_vlasov.field import _BLOCK_ROWS, _spell_floats, write_table
from diatomic_vlasov.picard import dump_iteration_log


def brute_force_field(x_pos, charges, queries):
    """O(N*Q) reference: one ascending pass per ensemble, accumulating the
    left/at sums per query in the same ascending-position order the
    snapshot's prefix sum uses, so agreement is exact."""
    order = np.argsort(x_pos, kind="stable")
    p = np.asarray(x_pos)[order]
    c = np.asarray(charges)[order]
    q = np.asarray(queries)
    left = np.zeros_like(q)
    at = np.zeros_like(q)
    total = 0.0
    for pi, ci in zip(p, c):
        left = left + np.where(pi < q, ci, 0.0)
        at = at + np.where(pi == q, ci, 0.0)
        total = total + ci
    return 0.5 * total - left - 0.5 * at


def single_molecule(w=0.5, x0=0.0):
    return Ensemble([x0], [0.0], [0.5], [0.0], [w])


class TestBuild:
    def test_total_charge(self):
        snap = build_field(single_molecule(w=0.5))
        assert snap.total == 1.0

    def test_symmetric_pair_zero_at_origin(self):
        ens = Ensemble([-1.0, 1.0], [0, 0], [0.5, 0.5], [0, 0], [0.5, 0.5])
        snap = build_field(ens)
        assert snap.total == 2.0
        assert snap.at(0.0) == 0.0

    def test_far_field_half_mass(self, rng):
        ens = Ensemble(rng.normal(size=40), np.zeros(40), np.full(40, 0.5),
                       np.zeros(40), rng.uniform(0.1, 1.0, 40))
        snap = build_field(ens)
        assert snap.at(-1e9) == 0.5 * snap.total
        assert snap.at(+1e9) == -0.5 * snap.total

    def test_empty_rejected(self):
        with pytest.raises(EmptyEnsembleError):
            build_field(Ensemble([], [], [], [], []))

    @pytest.mark.parametrize("w", [-0.5, np.nan])
    def test_bad_mass_rejected(self, w):
        with pytest.raises(DomainError):
            Ensemble([0.0, 0.1], [0.0, 0.0], [0.5, 0.5], [0.0, 0.0], [0.5, w])


class TestFieldAt:
    def test_step_values_around_single_molecule(self):
        snap = build_field(single_molecule(w=0.5))
        assert snap.at(-0.1) == 0.5
        assert snap.at(+0.1) == -0.5

    def test_midpoint_convention_at_particle(self):
        snap = build_field(single_molecule(w=0.5))
        assert snap.at(0.0) == 0.0

    def test_midpoint_convention_with_coincident_particles(self):
        ens = Ensemble([0.0, 0.0, 1.0], [0] * 3, [0.5] * 3, [0] * 3,
                       [0.25, 0.25, 0.5])
        snap = build_field(ens)
        # at x=0: left 0, at 1.0, right 1.0 -> (1 + .5) - ... = 0.5*2 - 0 - 0.5
        assert snap.at(0.0) == 0.5
        assert snap.at(1.0) == -0.5

    def test_matches_brute_force_exactly(self, rng):
        for _ in range(20):
            n = rng.integers(1, 60)
            pos = rng.normal(size=n)
            w = rng.uniform(0.0, 1.0, n)
            snap = build_field(Ensemble(pos, np.zeros(n), np.full(n, 0.5),
                                        np.zeros(n), w))
            q = rng.normal(size=50) * 2.0
            expected = brute_force_field(pos, 2.0 * w, q)
            got = snap.at(q)
            assert np.array_equal(got, expected)

    def test_nonincreasing_property(self, rng):
        pos = rng.normal(size=200)
        w = rng.uniform(0, 1, 200)
        snap = build_field(Ensemble(pos, np.zeros(200), np.full(200, 0.5),
                                    np.zeros(200), w))
        q = np.sort(rng.normal(size=500) * 3)
        f = snap.at(q)
        assert np.all(np.diff(f) <= 0.0)

    def test_bounded_by_half_total(self, rng):
        pos = rng.normal(size=100)
        w = rng.uniform(0, 1, 100)
        snap = build_field(Ensemble(pos, np.zeros(100), np.full(100, 0.5),
                                    np.zeros(100), w))
        q = rng.normal(size=300) * 4
        assert np.all(np.abs(snap.at(q)) <= 0.5 * snap.total + 1e-15)

    def test_telescoping_with_dyadic_weights(self):
        # dyadic masses make the telescoping identity exact in floats
        pos = np.array([-2.0, -1.0, 0.5, 3.0])
        w = np.array([0.25, 0.5, 0.125, 0.25])
        snap = build_field(Ensemble(pos, np.zeros(4), np.full(4, 0.5),
                                    np.zeros(4), w))
        x, y = -1.5, 1.0  # strictly between particles
        between = 2.0 * (0.5 + 0.125)
        assert snap.at(x) - snap.at(y) == between


def two_search_field(positions, charges, queries):
    """The unmerged formula: a left and a right binary search over the
    stable-sorted positions and their ascending prefix sum."""
    order = np.argsort(positions, kind="stable")
    pos = np.asarray(positions, dtype=float)[order]
    prefix = np.concatenate([[0.0], np.cumsum(np.asarray(charges, dtype=float)[order])])
    total = float(prefix[-1])
    xq = np.asarray(queries, dtype=float)
    il = np.searchsorted(pos, xq, side="left")
    ir = np.searchsorted(pos, xq, side="right")
    return 0.5 * total - prefix[il] - 0.5 * (prefix[ir] - prefix[il])


class TestMergedSnapshot:
    """The merged tables reproduce the two-search formula bit for bit."""

    def tie_heavy(self, rng, n=300):
        pos = rng.integers(-4, 5, n).astype(float)
        zeros = np.flatnonzero(pos == 0.0)
        pos[zeros[::2]] = -0.0  # a mix of -0.0 and 0.0 charges
        return pos, rng.uniform(0.0, 1.0, n)

    def queries(self, pos):
        u = np.unique(pos)
        mid = 0.5 * (u[1:] + u[:-1]) if u.size > 1 else np.empty(0)
        edges = [-1e300, 1e300, -np.inf, np.inf, np.nan, -0.0, 0.0]
        if u.size:
            edges += [np.nextafter(u[0], -np.inf), np.nextafter(u[-1], np.inf)]
        return np.concatenate([pos, mid, edges])

    def assert_bits(self, pos, charges):
        snap = FieldSnapshot(pos, charges)
        q = self.queries(pos)
        want = two_search_field(pos, charges, q)
        np.testing.assert_array_equal(snap.at(q).view(np.uint64), want.view(np.uint64))
        for xi, wi in zip(q, want):
            got = snap.at(float(xi))
            assert type(got) is float
            assert np.float64(got).view(np.uint64) == wi.view(np.uint64)
        return snap

    def test_tie_heavy_positions(self, rng):
        for _ in range(5):
            pos, charges = self.tie_heavy(rng)
            snap = self.assert_bits(pos, charges)
            assert snap._keys.size == np.unique(pos).size + 1  # U + 1 rows

    def test_infinite_positions(self, rng):
        pos, charges = self.tie_heavy(rng, 40)
        pos[:3] = [np.inf, -np.inf, np.inf]
        self.assert_bits(pos, charges)

    def test_empty_snapshot(self):
        snap = self.assert_bits(np.empty(0), np.empty(0))
        assert snap.at(np.inf) == 0.0 and snap.at(np.nan) == 0.0

    def test_nan_position_rejected(self):
        with pytest.raises(DomainError):
            FieldSnapshot(np.array([0.0, np.nan]), np.ones(2))

    def test_field_dump_matches_reference(self, tmp_path, rng):
        pos, w = self.tie_heavy(rng, _BLOCK_ROWS + 1)
        ens = Ensemble(pos, np.zeros(pos.size), np.full(pos.size, 0.5),
                       np.zeros(pos.size), w)
        order = np.argsort(pos, kind="stable")
        write_table(tmp_path / "ref.csv", ["x_sorted", "cum_mass"],
                    [pos[order], np.cumsum((2.0 * w)[order])])
        ens.dump_field_csv(tmp_path / "new.csv")
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


class TestFieldPm:
    def test_symmetric_snapshot_fplus_vanishes(self):
        ens = Ensemble([-1.0, 1.0], [0, 0], [0.5, 0.5], [0, 0], [0.5, 0.5])
        snap = build_field(ens)
        for om in (0.1, 0.4, 2.0):
            fp, _ = snap.pm(0.0, om)
            assert fp == 0.0

    def test_single_molecule_self_difference(self):
        snap = build_field(single_molecule(w=0.5))
        fp, fm = snap.pm(0.0, 0.2)
        assert fp == 0.0
        assert fm == -1.0

    def test_far_field_sum(self):
        snap = build_field(single_molecule(w=0.5))
        fp, fm = snap.pm(-1e8, 0.3)
        assert fp == snap.total
        assert fm == 0.0

    def test_one_search_equals_two_queries(self, rng):
        # pm looks x + omega and x - omega up in one stacked search; its
        # values are those of two ``at`` queries, bit for bit, and 0-d
        # input still gives Python floats.
        pos, charges = TestMergedSnapshot().tie_heavy(rng)
        snap = FieldSnapshot(pos, charges)

        def two_at(x, om):
            right = snap.at(np.asarray(x, dtype=float) + om)
            left = snap.at(np.asarray(x, dtype=float) - om)
            return right + left, right - left

        inf, nan = np.inf, np.nan
        # Key hits on both sides, -0.0, +-inf and NaN.
        pairs = [(1.0, 1.0), (-2.0, 2.0), (0.5, 0.5), (-0.0, 0.0), (0.0, -0.0), (-0.0, -0.0),
                 (inf, 0.3), (-inf, 0.3), (0.0, inf), (inf, inf), (nan, 0.3), (0.3, nan)]
        for x, om in pairs:
            with np.errstate(invalid="ignore"):  # inf - inf
                got, want = snap.pm(x, om), two_at(x, om)
            assert all(type(g) is float for g in got)
            assert np.array(got).tobytes() == np.array(want).tobytes(), (x, om)
        x = np.concatenate([rng.uniform(-6, 6, 200), pos[:50], [-0.0, inf, -inf, nan]])
        om = np.concatenate([rng.uniform(0, 3, 200), rng.integers(0, 3, 50), [0.0, 1.0, 1.0, 1.0]])
        # A scalar omega broadcasts to x's shape, also 2-d and empty.
        for args in ((x, om), (x, 0.5), (0.25, om), (x[:, None], om[None, :8]),
                     (x[:240].reshape(8, 30), 0.5), (np.empty(0), 0.5)):
            got, want = snap.pm(*args), two_at(*args)
            for g, w in zip(got, want, strict=True):
                assert g.shape == w.shape and g.tobytes() == w.tobytes()


class TestBucketIndex:
    """An ``indexed`` snapshot answers array queries from its bucket table,
    and its values are the plain search's, bit for bit, with no warning."""

    ALWAYS = 10**9  # rows a call: enough for any U to build the table

    @staticmethod
    def positions(kind, n, seed):
        rng = np.random.default_rng(seed)
        if kind == "ties":  # integers, with -0.0 and 0.0 mixed
            pos = rng.integers(-3, 4, n).astype(float)
            pos[np.flatnonzero(pos == 0.0)[::2]] = -0.0
            return pos
        if kind == "inf":
            return np.concatenate([[np.inf, -np.inf], rng.normal(0, 1, n)])[:n]
        # A span of 2e300 leaves the clip bounds finite; one near 1.7e308
        # (clip bound u_{U-1} + span past the float range) or over it does not.
        scale = {"unit": 1.0, "wide": 1e300, "half": 1.7e308, "huge": 1.7e308,
                 "fine": 1e-300}[kind]
        low = 0.0 if kind == "half" else -1.0
        pos = scale * np.concatenate([[low, 1.0], rng.uniform(low, 1, n)])[:n]
        pos[2: n // 4] = pos[n // 4: 2 * (n // 4) - 2]  # ties
        return pos

    @staticmethod
    def queries(snap, seed):
        u = snap._keys[:-1]
        edges = [np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, 1e308, -1e308,
                 np.finfo(float).max]
        with np.errstate(invalid="ignore"):  # midpoints of -inf and inf
            mid = 0.5 * u[1:] + 0.5 * u[:-1]
        q = [u, np.nextafter(u, -np.inf), np.nextafter(u, np.inf), mid]
        if snap._index is not None:
            (lo, s, clamp_lo, clamp_hi, top), _ = snap._index
            b = lo + np.arange(-2.0, top + 3.0) / s  # near every bucket edge
            q += [b, np.nextafter(b, -np.inf), np.nextafter(b, np.inf)]
            edges += [clamp_lo, clamp_hi]
        q = np.concatenate(q)
        rng = np.random.default_rng(seed)
        q = rng.choice(q, min(q.size, 6000), replace=False)  # a sample of each kind
        return rng.permutation(np.concatenate([q, edges]))

    @given(kind=st.sampled_from(["ties", "inf", "unit", "wide", "half", "huge", "fine"]),
           n=st.sampled_from([0, 1, 2, 3, 40, 1500]), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_indexed_queries_equal_the_search(self, kind, n, seed):
        pos = self.positions(kind, n, seed)
        snap = FieldSnapshot(pos, np.random.default_rng(seed).uniform(0, 1, n))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ind = snap.indexed(self.ALWAYS, 1)
        U = snap._keys.size - 1
        if U >= 2 and kind in ("ties", "unit", "wide", "fine"):
            assert ind._index is not None and ind._index[1].size == 4 * U + 4
        if U < 2 or kind in ("inf", "half", "huge"):
            assert ind is snap
        q = self.queries(ind, seed)
        om = np.zeros(q.size)
        om[::3] = 0.5  # a third of the queries move off the keys
        for args in ((q, om), (q, 0.0), (q, 0.5), (0.25, om), (q[:, None], om[None, :8]),
                     (q[: q.size // 8 * 8].reshape(8, -1), 0.0), (np.empty(0), 0.5)):
            want = snap.pm(*args)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = ind.pm(*args)
            for g, w in zip(got, want, strict=True):
                assert g.shape == w.shape and g.tobytes() == w.tobytes(), (kind, n, args)
        assert snap._index is None

    def test_tiny_batches_build_no_table(self):
        # A lone row, jacobian_estimate's eight rows, and calls that read
        # fewer rows in all than U/4 answer from the plain snapshot.
        snap = FieldSnapshot(np.arange(20736.0), np.ones(20736))
        assert snap.indexed(1, 10**6) is snap
        assert snap.indexed(8, 10**6) is snap
        assert snap.indexed(512, 10) is snap
        assert snap.indexed(512, 11)._index is not None


class TestNorms:
    def test_values(self):
        ens = Ensemble([0.0, 1.0], [0, 0], [0.5, 0.5], [0, 0], [0.5, 0.5])
        assert build_field(ens).norms() == (1.0, 2.0)

    def test_zero_mass(self):
        ens = Ensemble([0.0], [0.0], [0.5], [0.0], [0.0])
        assert build_field(ens).norms() == (0.0, 0.0)

    def test_linear_in_mass(self):
        ens = Ensemble([0.0, 1.0], [0, 0], [0.5, 0.5], [0, 0], [1.0, 1.0])
        assert build_field(ens).norms() == (2.0, 4.0)

    @given(total=st.floats(min_value=1e-6, max_value=1e3))
    @settings(max_examples=50, deadline=None)
    def test_sup_bound_attained(self, total):
        ens = Ensemble([0.3], [0.0], [0.5], [0.0], [total / 2.0])
        snap = build_field(ens)
        sup_f, sup_pm = snap.norms()
        assert sup_f == snap.at(-1e6)
        fp, _ = snap.pm(-1e6, 0.1)
        assert sup_pm == fp


class TestFieldW1:
    # Charges on a 1/8 lattice, with a tie at 0.25 and charges at -0.0
    # and 0.0, so the midpoints of a 1/1024 grid never sit on a key and
    # the brute-force sum has the step field's exact value per cell.
    A = Ensemble([-0.5, -0.0, 0.25, 0.25, 0.75], [0] * 5, [0.5] * 5, [0] * 5,
                 [0.25, 0.125, 0.0625, 0.0625, 0.5])
    B = Ensemble([-0.25, 0.0, 0.0, 0.5, 1.0], [0] * 5, [0.5] * 5, [0] * 5,
                 [0.25, 0.0625, 0.0625, 0.5, 0.125])

    def test_matches_fine_grid_integral(self):
        a, b = build_field(self.A), build_field(self.B)
        h = 1.0 / 1024
        mids = -0.5 + h * (np.arange(1536) + 0.5)  # cells covering [-0.5, 1.0]
        brute = float(np.sum(np.abs(a.at(mids) - b.at(mids)))) * h
        assert field_w1(a, b) == pytest.approx(brute, rel=1e-12)
        assert field_w1(b, a) == field_w1(a, b)

    def test_zero_for_identical_snapshots(self):
        a = build_field(self.A)
        assert field_w1(a, a) == 0.0
        assert field_w1(a, build_field(self.A)) == 0.0

    def test_single_charge_shift(self):
        # Moving charge q = 2w by s flips F by q over a span of length s.
        a = build_field(Ensemble([0.0], [0.0], [0.5], [0.0], [0.5]))
        b = build_field(Ensemble([0.25], [0.0], [0.5], [0.0], [0.5]))
        assert field_w1(a, b) == 0.25


def spell_sizes(monkeypatch, name="_spell_floats"):
    """The size of each array passed to ``field.<name>`` from now on."""
    sizes, real = [], getattr(field, name)

    def spy(x):
        sizes.append(x.size)
        return real(x)

    monkeypatch.setattr(field, name, spy)
    return sizes


def spelled(x):
    """The strings ``_spell_floats`` gives for the floats in x."""
    return [bytes(r).replace(b"\0", b"").decode()
            for r in _spell_floats(np.asarray(x, dtype=float))]


class TestSpellFloats:
    """The numpy spelling against ``"%.17g" % x``, cell by cell."""

    @staticmethod
    def ulps(x, k):
        """x and its k neighbours on each side."""
        out = [x]
        for toward in (-np.inf, np.inf):
            y = x
            for _ in range(k):
                y = np.nextafter(y, toward)
                out.append(y)
        return out

    def test_edge_values(self):
        edges = [v for k in range(-12, 18) for v in self.ulps(10.0 ** k, 3)]
        # Near the notation boundaries 1e-4 and 1e17, and the double 1e-14,
        # which lies below 10**-14 but rounds up to it at 17 digits.
        edges += self.ulps(1e-4, 8) + self.ulps(1e17, 8) + self.ulps(1e-14, 2)
        edges += [k * 2.0 ** -j for k in (1, 3, 5, 7, 1023) for j in range(1, 60, 3)]
        edges += [5e-324, 0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 1e-11, 1e16, 2.0 ** 53]
        x = np.array(edges + [-v for v in edges])
        assert spelled(x) == ["%.17g" % v for v in x.tolist()]

    def test_powers_of_ten_stay_in_numpy(self, monkeypatch):
        # The correction of log10's exponent lands, so no value near a
        # power of ten in the kernel's range is left to "%".
        x = np.array([v for k in range(-10, 16) for v in self.ulps(10.0 ** k, 3)])
        percent = spell_sizes(monkeypatch, "_percent_cells")
        assert spelled(x) == ["%.17g" % v for v in x.tolist()]
        assert percent == [0]

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=40))
    def test_bit_patterns(self, bits):
        x = np.array(bits, dtype=np.uint64).view(float)
        assert spelled(x) == ["%.17g" % v for v in x.tolist()]

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(st.lists(st.tuples(st.floats(1e-12, 1e18), st.booleans()), min_size=1, max_size=40))
    def test_kernel_range(self, cells):
        x = np.array([-v if neg else v for v, neg in cells])
        assert spelled(x) == ["%.17g" % v for v in x.tolist()]


class TestCsv:
    def test_roundtrip_ensemble(self, tmp_path, rng):
        ens = Ensemble(rng.normal(size=7), rng.normal(size=7),
                       rng.uniform(0.3, 0.7, 7), rng.normal(size=7),
                       rng.uniform(0, 1, 7))
        p = tmp_path / "ens.csv"
        ens.dump_csv(p)
        back = Ensemble.load_csv(p)
        np.testing.assert_array_equal(back.x, ens.x)
        np.testing.assert_array_equal(back.w, ens.w)

    def test_snapshot_columns(self, tmp_path):
        p = tmp_path / "field.csv"
        single_molecule().dump_field_csv(p)
        header = p.read_text().splitlines()[0]
        assert header == "x_sorted,cum_mass"

    # Values whose spelling the byte contract pins: nan, +-inf, -0 next to
    # 0, the smallest subnormal, a huge value, two inexact fractions and a
    # NaN with its sign bit set (it spells nan too).
    HARD = [np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, 1e300, 0.1, 1.0 / 3.0,
            -np.nan]

    def hard_columns(self, n, k):
        return [np.resize(np.roll(self.HARD, j), n) for j in range(k)]

    def csv_writer_bytes(self, path, header, cols):
        with open(path, "w", newline="") as fh:
            wr = csv.writer(fh)
            wr.writerow(header)
            for row in zip(*cols):
                wr.writerow([c if isinstance(c, str) else f"{c:.17g}" for c in row])
        return path.read_bytes()

    def assert_write_table_bytes(self, tmp_path, header, cols):
        write_table(tmp_path / "new.csv", header, cols)
        assert (tmp_path / "new.csv").read_bytes() == self.csv_writer_bytes(
            tmp_path / "ref.csv", header, cols)

    @pytest.mark.parametrize("n", [0, 1, _BLOCK_ROWS - 1, _BLOCK_ROWS, _BLOCK_ROWS + 1])
    def test_write_table_matches_csv_writer(self, tmp_path, n):
        self.assert_write_table_bytes(tmp_path, ["a", "b", "c"], self.hard_columns(n, 3))

    def test_write_table_reuse_rule_both_sides(self, tmp_path, rng, monkeypatch):
        # Over two blocks and a part, one column holds ten values (each
        # spelled once) and one is all distinct (spelled block by block),
        # with -0.0, 0.0 and both NaN signs among the distinct ones.
        n = 2 * _BLOCK_ROWS + 7
        few = self.hard_columns(n, 1)[0]
        distinct = rng.normal(size=n)
        distinct[:len(self.HARD)] = self.HARD
        sizes = spell_sizes(monkeypatch)
        self.assert_write_table_bytes(tmp_path, ["few", "distinct"], [few, distinct])
        # One spelling per bit pattern: -0 and 0 apart, each NaN on its own.
        assert sizes == [len(self.HARD), _BLOCK_ROWS, _BLOCK_ROWS, 7]

    MIXED_ROWS = [_BLOCK_ROWS - 1, _BLOCK_ROWS, _BLOCK_ROWS + 1, 3 * _BLOCK_ROWS + 7]

    def mixed_columns(self, rng, n):
        """A reused column, one of distinct values over magnitudes from
        1e-13 to 1e18 (both notations, both sides of every range the numpy
        spelling takes) and a text column."""
        wide = rng.uniform(-1.0, 1.0, n) * 10.0 ** rng.integers(-13, 19, n)
        wide[:len(self.HARD)] = self.HARD
        return [self.hard_columns(n, 1)[0], wide, np.resize(["ok", "fail", "", "n/a"], n)]

    @pytest.mark.parametrize("n", MIXED_ROWS)
    def test_write_table_mixed_matches_csv_writer(self, tmp_path, rng, n):
        self.assert_write_table_bytes(tmp_path, ["few", "wide", "status"],
                                      self.mixed_columns(rng, n))

    @pytest.mark.parametrize("n", MIXED_ROWS)
    def test_write_table_mixed_newline_matches_savetxt(self, tmp_path, rng, n):
        cols = self.mixed_columns(rng, n)
        np.savetxt(tmp_path / "ref.csv", np.array(list(zip(*cols)), dtype=object),
                   delimiter=",", header="few,wide,status", comments="",
                   fmt=["%.17g", "%.17g", "%s"])
        write_table(tmp_path / "new.csv", ["few", "wide", "status"], cols, end="\n")
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()

    def test_small_table_never_enters_the_kernel(self, tmp_path, monkeypatch):
        def fail(x):
            raise AssertionError("a table under _BLOCK_ROWS rows reached _spell_floats")

        monkeypatch.setattr(field, "_spell_floats", fail)
        self.assert_write_table_bytes(tmp_path, ["a", "b"], self.hard_columns(_BLOCK_ROWS - 1, 2))

    def test_sampled_ensemble_stays_on_the_numpy_path(self, tmp_path, monkeypatch):
        # Only values the numpy spelling cannot take go to "%" (none here;
        # on the bulk benchmark's datum, the 16 masses below 1e-11): a
        # range or shift guard that sent whole columns back would show.
        ens = self.sampled_ensemble()
        percent = spell_sizes(monkeypatch, "_percent_cells")
        ens.dump_csv(tmp_path / "new.csv")
        assert sum(percent) <= 0.01 * 5 * len(ens)

    def sampled_ensemble(self):
        datum = BumpDatum(centers=(0.1, 0.0, 0.5, 0.0), widths=(0.5, 0.3, 0.08, 0.3),
                          amplitude=4.0)
        return sample_datum(datum, datum.support(), (9, 8, 8, 8), epsilon=1.0)

    def test_sampled_ensemble_dump_matches_csv_writer(self, tmp_path):
        # A tensor-grid ensemble repeats each axis value across the grid.
        ens = self.sampled_ensemble()
        assert len(ens) > _BLOCK_ROWS
        ens.dump_csv(tmp_path / "new.csv")
        assert (tmp_path / "new.csv").read_bytes() == self.csv_writer_bytes(
            tmp_path / "ref.csv", ["x", "v", "omega", "eta", "w"],
            [ens.x, ens.v, ens.omega, ens.eta, ens.w])

    @pytest.mark.parametrize("n", [0, 1, _BLOCK_ROWS - 1, _BLOCK_ROWS, _BLOCK_ROWS + 1])
    def test_write_table_newline_matches_savetxt(self, tmp_path, n):
        t, fm = self.hard_columns(n, 2)
        np.savetxt(tmp_path / "ref.csv", np.column_stack([t, fm]), delimiter=",",
                   header="t,f_minus", comments="", fmt="%.17g")
        write_table(tmp_path / "new.csv", ["t", "f_minus"], [t, fm], end="\n")
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()

    def test_iteration_log_matches_csv_writer(self, tmp_path):
        # The log's integer n column and a NaN delta spell as csv.writer
        # spelled them when it wrote the log.
        recs = [IterationRecord(n=n, sup_delta=d, support=SupportBounds(*self.HARD[3:8]),
                                sup_F=0.1, z_dist=0.0, field_w1=0.0)
                for n, d in ((1, math.nan), (2, 1.0 / 3.0), (123456789, -0.0))]
        with open(tmp_path / "ref.csv", "w", newline="") as fh:
            wr = csv.writer(fh)
            wr.writerow(["n", "sup_delta", "Px", "Pv", "Pomega_minus",
                         "Pomega_plus", "Peta", "supF"])
            for r in recs:
                s = r.support
                wr.writerow([r.n] + [f"{c:.17g}" for c in (r.sup_delta, s.Px, s.Pv,
                                                            s.Pomega_minus, s.Pomega_plus,
                                                            s.Peta, r.sup_F)])
        dump_iteration_log(recs, tmp_path / "new.csv")
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()

    def test_load_csv_rejects_nan_mass(self, tmp_path):
        p = tmp_path / "ens.csv"
        p.write_text("x,v,omega,eta,w\r\n0,0,0.5,0,0.5\r\n0.1,0,0.5,0,nan\r\n")
        with pytest.raises(DomainError):
            Ensemble.load_csv(p)

    @pytest.mark.parametrize("text", ["", "x,v,omega,eta,w\r\n", "x,v,omega,eta,w\n\n# none\n"],
                             ids=["empty", "header", "blank-and-comment"])
    def test_load_csv_rejects_a_file_without_rows(self, tmp_path, text):
        p = tmp_path / "ens.csv"
        p.write_text(text)
        with pytest.raises(DomainError, match="no particle rows after the header"):
            Ensemble.load_csv(p)

    def test_load_csv_roundtrips_bits(self, tmp_path):
        # Every NaN spells nan, so only the plain NaN reads back bit for bit.
        n = _BLOCK_ROWS + 1
        x, v, om, et = (np.where(np.isnan(c), np.nan, c) for c in self.hard_columns(n, 4))
        w = np.resize([0.0, 5e-324, 1e300, 0.1, 1.0 / 3.0], n)
        ens = Ensemble(x, v, om, et, w)
        p = tmp_path / "ens.csv"
        ens.dump_csv(p)
        back = Ensemble.load_csv(p)
        for name in ("x", "v", "omega", "eta", "w"):
            np.testing.assert_array_equal(getattr(back, name).view(np.uint64),
                                          getattr(ens, name).view(np.uint64))
