"""Workload definitions: the run config, the CLI arguments and the work count.

All three workloads use the tangent bond model with epsilon = 1 and a bump
datum with amplitude 4, centred at (x0, 0, 0.5, 0).  The seed picks x0 from
``X_SHIFTS``.  A shift in x leaves the dynamics and the amount of work
unchanged (the field depends on position differences only), but it changes
every rounded value, so each seed has its own reference outputs.
"""

from __future__ import annotations

import math

NAMES = ("bulk", "wall", "picard")

# Datum x centres; seed n runs X_SHIFTS[n % len(X_SHIFTS)].
X_SHIFTS = (0.0, 0.1, -0.2, 0.3)

_NARROW = {"x": 0.5, "v": 0.3, "omega": 0.08, "eta": 0.3}
_WIDE = {"x": 0.5, "v": 0.3, "omega": 0.49, "eta": 2.5}


def variant_of(seed: int) -> int:
    return seed % len(X_SHIFTS)


def config(name: str, variant: int, smoke: bool = False) -> dict:
    """Run config of one workload; ``smoke`` shrinks grid and horizon."""
    if name not in NAMES:
        raise ValueError(f"unknown workload {name!r}")
    widths = _WIDE if name == "wall" else _NARROW
    grid = {"bulk": 12, "wall": 6, "picard": 10}[name]
    datum = {"kind": "bumps",
             "centers": {"x": X_SHIFTS[variant], "v": 0.0, "omega": 0.5, "eta": 0.0},
             "widths": dict(widths), "amplitude": 4.0,
             "grid": [3 if smoke else grid] * 4}
    cfg = {"hooke": {"kind": "tangent", "epsilon": 1.0}, "datum": datum,
           "dt_macro": 0.01, "control": {"dt": 0.0025}}
    if name == "bulk":
        # T = 0.25 keeps one run() near 1.7 s; snapshots at steps 0 and 25.
        cfg.update(T=0.05 if smoke else 0.25, tracked_boundary=16,
                   tracked_interior=16, snapshot_every=25)
    elif name == "wall":
        # The stiff phase starts near t = 0.3; by T = 0.5 the scalar
        # halving fallback has run about 900 times.
        cfg.update(T=0.05 if smoke else 0.5, tracked_boundary=16,
                   tracked_interior=112)
    else:
        # T = 0.125 keeps a repetition near 3 s, so a run holds about ten.
        cfg.update(T=0.025 if smoke else 0.125, dt_macro=0.0025, n_max=6,
                   probe_grid=256 if smoke else 4096,
                   tracked_boundary=0, tracked_interior=0)
    return cfg


def cli_args(name: str, config_path: str) -> list[str]:
    """Arguments for ``diatomic_vlasov.cli.dispatch``, less ``--output-dir``."""
    if name == "picard":
        return ["picard", "--config", config_path]
    return ["simulate", "--config", config_path] + (["--seed-report"] if name == "wall" else [])


def _macro_spans(T: float, dt_macro: float):
    n = max(1, math.ceil(T / dt_macro - 1e-12))
    t = 0.0
    for k in range(n):
        target = T if k == n - 1 else (k + 1) * T / n
        yield target - t
        t = target


def fine_steps(span: float, dt: float) -> int:
    """Fine steps the integrator takes over one field segment."""
    return max(1, math.ceil(abs(span) / dt - 1e-12))


def particle_steps(cfg: dict, command: str) -> int:
    """Rows x fine steps summed over every characteristic push of one run.

    Derived from the config alone.  A simulate run pushes the particles
    and the tracked seeds once per macro step.  A Picard round pushes the
    particles forward, one fine step per field segment, and integrates the
    probes backward over [0, T]: once in round 1 and twice after.
    """
    dt = float(cfg["control"]["dt"])
    T = float(cfg["T"])
    n_particles = math.prod(cfg["datum"]["grid"])
    if command == "picard":
        rounds = int(cfg["n_max"])
        forward = sum(fine_steps(s, dt) for s in _macro_spans(T, float(cfg["dt_macro"])))
        backward = fine_steps(T, dt)
        return (rounds * n_particles * forward
                + (2 * rounds - 1) * int(cfg["probe_grid"]) * backward)
    rows = n_particles + min(16, int(cfg["tracked_boundary"])) + int(cfg["tracked_interior"])
    return rows * sum(fine_steps(s, dt) for s in _macro_spans(T, float(cfg["dt_macro"])))
