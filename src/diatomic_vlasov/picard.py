"""Fixed-point construction for the nonlinear system on a short horizon.

Each round freezes the fields generated by the current iterate, solves
the linear transport equation along characteristics (weights untouched:
the flow is measure preserving), rebuilds the field history from the
pushed particles, and measures the uniform distance between consecutive
iterates on a deterministic low-discrepancy probe grid by evaluating both
at the final time through backward characteristics.  Each round also
logs two exact distances between consecutive iterates at the final time:
the largest particle displacement and the L1 distance of the fields (the
Wasserstein-1 distance of the charge measures).  On horizons below the
certified confinement time the distances contract super-geometrically
(factorial-decay signature), and the discrete map reaches an exact fixed
point: once a round rebuilds the field history it was pushed under, the
remaining records are filled in without recomputing them.  Early times
settle first, so before that point each round rebuilds an ever longer
prefix of the history it was pushed under, and the next round's push
starts where that prefix ends, from this round's state there.

A field history is a plain list of snapshots: the one built at each
macro time t_k of [0, T], then the one at T.  Between macro times it is
held piecewise constant (left snapshot), matching the operator-split
update order: hist[k] governs [t_k, t_{k+1}] in either direction, so a
backward push walks T -> 0 one macro step at a time.  The time-frozen
datum f_0 has a one-snapshot history that governs all of [0, T].
"""

from __future__ import annotations

from dataclasses import astuple, dataclass

import numpy as np

from .datum import BumpDatum, sample_datum, sobol_box
from .field import Ensemble, build_field, field_w1, write_table
from .hooke import HookeModel
from .simulator import _coords, _march
from .trajectory import StepControl, _time_grid, integrate_batch

__all__ = [
    "SupportBounds",
    "IterationRecord",
    "support_bounds",
    "iterate",
    "dump_iteration_log",
]


@dataclass(frozen=True)
class SupportBounds:
    """Componentwise support boundaries of an ensemble: sup|x|, sup|v|,
    inf omega, sup omega, sup|eta|."""

    Px: float
    Pv: float
    Pomega_minus: float
    Pomega_plus: float
    Peta: float

    def union(self, other: "SupportBounds") -> "SupportBounds":
        return SupportBounds(
            Px=max(self.Px, other.Px), Pv=max(self.Pv, other.Pv),
            Pomega_minus=min(self.Pomega_minus, other.Pomega_minus),
            Pomega_plus=max(self.Pomega_plus, other.Pomega_plus),
            Peta=max(self.Peta, other.Peta))


@dataclass(frozen=True)
class IterationRecord:
    """One fixed-point round: iterate index n, the probe-grid estimate of
    the uniform distance ||f_n - f_{n-1}|| at the horizon, the running
    support bounds of f_n, ``sup_F``, the largest sup|F| of the fields
    that produced it (their sup|F+-| is twice that), and two exact
    distances at the horizon: ``z_dist``, the largest sup-norm
    displacement max_i |z_i^n - z_i^{n-1}| between the pushed particles,
    and ``field_w1``, the integral of |F_n - F_{n-1}| (see ``field_w1``)."""

    n: int
    sup_delta: float
    support: SupportBounds
    sup_F: float
    z_dist: float
    field_w1: float


def support_bounds(ensemble: Ensemble) -> SupportBounds:
    """Componentwise min/max over the particles, from ``support_box``."""
    x_lo, x_hi, v_lo, v_hi, om_lo, om_hi, et_lo, et_hi = ensemble.support_box()
    # abs, not -lo: an all-zero column has sup|x| 0, not -0.
    return SupportBounds(Px=max(abs(x_lo), abs(x_hi)), Pv=max(abs(v_lo), abs(v_hi)),
                         Pomega_minus=om_lo, Pomega_plus=om_hi,
                         Peta=max(abs(et_lo), abs(et_hi)))


def _push_collect(start, prev: list, model: HookeModel, T: float, dt_macro: float,
                  control: StepControl):
    """Push the datum to T under the field history ``prev`` over the macro
    grid (``simulator._march``), building the pushed iterate's history at
    each macro time and unioning support bounds along the way.

    ``start`` is (k0, ens_k0, supp): the push resumes at macro step k0
    from the state that the round which built ``prev`` had there, supp
    being the support union of its states before t_k0, whose snapshots
    are prev[:k0].  Round 1 starts at (0, datum, the datum's support).

    Each snapshot hist[k] is compared (``FieldSnapshot.same_field``) with
    the field that governed step k, prev[min(k, len(prev) - 1)].  While
    every comparison so far has held, the next round, pushed under hist,
    reaches this round's state at t_k, so the last such (k, ens_k, supp)
    is kept as its start: references only, no copy.  Returns (ens_T,
    hist, supp, fixed, resume); ``fixed`` says that every comparison held
    and hist is as long as prev, that is, hist is prev's fixed point.
    """
    k0, ens, supp = start
    hist = prev[:k0]
    resume, held = start, True

    def visit(k: int, ens_k: Ensemble):
        nonlocal supp, resume, held
        if held:
            resume = (k, ens_k, supp)
        hist.append(build_field(ens_k))
        supp = supp.union(support_bounds(ens_k))
        field = prev[min(k, len(prev) - 1)]
        held = held and hist[k].same_field(field)
        return field

    moved, _ = _march(ens, T, dt_macro, model, control, visit, k0=k0)
    return moved, hist, supp, held and len(hist) == len(prev), resume


def iterate(datum: BumpDatum, box, shape, model: HookeModel, T: float,
            n_max: int, probe_grid: int, control: StepControl, dt_macro: float,
            tol: float = 0.0) -> list[IterationRecord]:
    """Run the fixed-point rounds and log one record per iterate.

    f_0 is the datum held constant in time, so its field history is a
    single snapshot.  Round n transports the datum under the fields
    of f_{n-1} and estimates ||f_n - f_{n-1}|| at time T on a probe grid
    inside f_n's support box, evaluating both iterates by backward
    characteristics under their respective histories.  Stops after
    ``n_max`` rounds or once the estimate drops below ``tol``.
    ``probe_grid``, ``control`` and ``dt_macro`` have no defaults here;
    ``RunConfig`` states them.

    Three rules skip work whose result is already known bit for bit;
    every round is deterministic, so all three are exact:

    - Fixed point.  When round n's history hist_n equals the history
      hist_{n-1} it was pushed under (as many snapshots, pairwise
      ``FieldSnapshot.same_field``), round n+1 would push the same
      particles under the same field and rebuild hist_n, the same
      support and the same probes; both of its backward pushes
      would then repeat round n's, so its delta is max|vals_n - vals_n|
      (0.0, or NaN where round n's values are NaN) and its exact
      distances are 0.0.  By induction every later record is the same,
      so they are filled in without pushing.
    - Equal prefix.  When hist_n[j] equals the field that governed round
      n's step j for every j < k, round n+1's steps 0 .. k-1 run under
      the fields of round n's, so by induction on j its state at t_k,
      its snapshots hist_{n+1}[0..k-1] and its support union over those
      states are round n's, bit for bit.  Round n+1's push starts at the
      largest such k (at most the last macro time) from round n's state
      there (``_push_collect``); the fixed point is the case where the
      prefix is the whole history and both are as long.
    - Equal probes.  Round n evaluates f_{n-1} under hist_{n-2}, which
      round n-1 already did at its own probes.  When the probes are
      equal, round n-1's values are reused.  (``==`` misses only the
      sign of a zero coordinate, and no step of the backward push or of
      the datum turns that sign into a nonzero difference.)
    """
    ens0 = sample_datum(datum, box, shape, model.epsilon)
    hist_prev = [build_field(ens0)]  # fields of f_0 (time-frozen datum)
    hist_prev2 = None
    supp0 = support_bounds(ens0)
    start = (0, ens0, supp0)

    records: list[IterationRecord] = []
    if n_max <= 0:
        return [IterationRecord(n=0, sup_delta=0.0, support=supp0,
                                sup_F=_history_norm(hist_prev), z_dist=0.0, field_w1=0.0)]

    # f_0 at time T: the datum's particles and its static field.
    z_prev, snap_prev = _coords(ens0), hist_prev[0]
    probes = vals_n = None
    fixed = False
    for n in range(1, n_max + 1):
        if fixed:
            vals_prev = vals_n
            z_dist = w1 = 0.0
        else:
            moved, hist_n, supp_n, fixed, start = _push_collect(
                start, hist_prev, model, T, dt_macro, control)
            probes_last, vals_last = probes, vals_n
            probes = sobol_box(probe_grid,
                               [-supp_n.Px, -supp_n.Pv, supp_n.Pomega_minus, -supp_n.Peta],
                               [supp_n.Px, supp_n.Pv, supp_n.Pomega_plus, supp_n.Peta])
            vals_n = _backward_values(datum, probes, hist_prev, model, T, dt_macro,
                                      control)
            if n == 1:
                vals_prev = datum.value(*probes.T)
            elif np.array_equal(probes, probes_last):
                vals_prev = vals_last
            else:
                vals_prev = _backward_values(datum, probes, hist_prev2, model, T,
                                             dt_macro, control)
            z_n, snap_n = _coords(moved), hist_n[-1]
            z_dist = float(np.max(np.abs(z_n - z_prev)))
            w1 = field_w1(snap_n, snap_prev)
            z_prev, snap_prev = z_n, snap_n
        delta = float(np.max(np.abs(vals_n - vals_prev)))

        records.append(IterationRecord(n=n, sup_delta=delta, support=supp_n,
                                       sup_F=_history_norm(hist_prev),
                                       z_dist=z_dist, field_w1=w1))
        hist_prev2 = hist_prev
        hist_prev = hist_n
        if delta < tol:
            break
    return records


def _backward_values(datum: BumpDatum, probes: np.ndarray, hist: list,
                     model: HookeModel, T: float, dt_macro: float,
                     control: StepControl) -> np.ndarray:
    """Values at time T, at the probes, of the iterate transported under
    the field history ``hist``: the datum at the probes' backward
    characteristics.  A one-snapshot history is one push over [T, 0]; a
    pushed one walks the macro grid back with hist[k] on [t_k, t_{k+1}]."""
    if len(hist) == 1:
        z = integrate_batch(probes, hist[0], model, T, 0.0, control)
    else:
        times = [0.0] + _time_grid(0.0, T, dt_macro)
        z = probes
        for k in range(len(times) - 2, -1, -1):
            z = integrate_batch(z, hist[k], model, times[k + 1], times[k], control)
    return datum.value(*z.T)


def _history_norm(hist: list) -> float:
    """The largest sup|F| over a field history."""
    return max(snap.norms()[0] for snap in hist)


def dump_iteration_log(records, path) -> None:
    """CSV log with one row per round."""
    rows = [(r.n, r.sup_delta, *astuple(r.support), r.sup_F) for r in records]
    write_table(path, ["n", "sup_delta", "Px", "Pv", "Pomega_minus", "Pomega_plus",
                       "Peta", "supF"], np.reshape(rows, (-1, 8)).T)
