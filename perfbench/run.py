"""Benchmark of the diatomic_vlasov CLI: one workload, one seed, one run.

    python3 perfbench/run.py --workload {bulk,wall,picard} --seed N --seconds S --trace {0,1}

Run from the root of a checkout.  The seed picks one of four datum
positions (see workloads.py).  Each run:

1. times ``SETUP_PROBES`` fresh processes that import the CLI and build the
   workload's inputs (``setup_s`` is their median);
2. starts one workload process (worker.py) that repeats
   ``cli.dispatch`` for ``--seconds`` and checks every repetition's outputs
   against ``ref/<workload>-<variant>.json.gz`` (``wall_s`` is the median
   repetition);
3. prints each metric with its unit, writes the full result to
   ``perfbench/out/``, and prints one JSON line last.

With ``--trace 0`` the JSON holds the end-to-end metrics of BENCHMARK.json;
with ``--trace 1`` untraced and traced repetitions alternate and the JSON
holds its per-layer metrics.  Exits non-zero, printing no result, if the
checkout has no ``src/diatomic_vlasov`` or the harness itself fails.

Every time in the end-to-end metrics is scaled to the reference speed of
the host-speed probe (probe.py), sampled around and during each timed call;
the raw times are printed beside them and kept in the result file.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import worker  # noqa: E402,F401  (pins the thread variables before numpy loads)
import probe  # noqa: E402
import workloads  # noqa: E402

SETUP_PROBES = 5
DEADLINE_S = 170.0

def git_sha() -> str | None:
    """HEAD of the checkout if it is a git work tree (read, not run)."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            name = ref[5:]
            loose = ROOT / ".git" / name
            if loose.exists():
                return loose.read_text().strip()
            for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
                if line.endswith(" " + name):
                    return line.split()[0]
            return None
        return ref
    except OSError:
        return None


def src_sha256() -> str:
    """Digest of the package sources, to tell checkouts apart without git."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], statistics.median(values), q[2]


def measure_setup(cfg_path: Path, expect_particles: int, deadline: float) -> tuple[list, list, int]:
    """Raw and scaled wall times of fresh set-up processes, and how many failed."""
    times, scaled, failed = [], [], 0
    probe.passes(5)
    for _ in range(SETUP_PROBES):
        before = probe.passes(5)
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, str(HERE / "worker.py"), "--setup", str(cfg_path)],
                              cwd=ROOT, capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
        elapsed = time.perf_counter() - t0
        after = probe.passes(5)
        ok = proc.returncode == 0
        if ok:
            ok = json.loads(proc.stdout.strip().splitlines()[-1])["particles"] == expect_particles
        if ok:
            times.append(elapsed)
            scaled.append(probe.scale(elapsed, before + after))
        else:
            failed += 1
            print(f"set-up probe failed: {proc.stderr.strip()[-300:]}", file=sys.stderr)
    return times, scaled, failed


def run_worker(name: str, cfg_path: Path, ref: Path, workdir: Path, seconds: int,
               trace: int, deadline: float) -> dict:
    result_path = workdir / "worker_result.json"
    with open(workdir / "worker.log", "w") as log:
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py"), "--name", name, "--config", str(cfg_path),
             "--workdir", str(workdir / "work"), "--result", str(result_path),
             "--ref", str(ref), "--seconds", str(seconds), "--trace", str(trace)],
            cwd=ROOT, stdout=log, stderr=subprocess.STDOUT)
        try:
            rc = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            raise RuntimeError("the workload process ran past the deadline")
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    if rc != 0:
        raise RuntimeError(f"the workload process exited with {rc}; see {workdir / 'worker.log'}")
    return json.loads(result_path.read_text())


def layer_summary(reps: list[dict], untraced_median: float) -> tuple[dict, bool]:
    """Counts from the first traced repetition, times as medians.

    ``untraced_median`` is the median time of the untraced repetitions, less
    the probe's passes; traced repetitions run without the probe.
    """
    layers = [r["layers"] for r in reps if r["traced"] and r["layers"]]
    if not layers:
        return {}, False
    out = {}
    counts_repeat = True
    for key, first in layers[0].items():
        values = [lay[key] for lay in layers]
        if isinstance(first, int):
            out[key] = first
            counts_repeat &= all(v == first for v in values)
        else:
            out[key] = statistics.median(values)
    traced = [r for r in reps if r["traced"] and r["ok"]]
    out["cli.files_written"] = traced[0]["files"] if traced else 0
    out["cli.bytes_written"] = traced[0]["bytes"] if traced else 0
    if traced:
        out["trace.overhead_frac"] = (statistics.median(r["seconds"] for r in traced)
                                      / untraced_median - 1.0)
    return out, counts_repeat


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S
    # Turn SIGTERM into SystemExit so the child processes are killed on the way out.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))

    if not (ROOT / "src" / "diatomic_vlasov" / "__init__.py").is_file():
        print(f"no src/diatomic_vlasov under {ROOT}: run from a full checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    name = args.workload
    variant = workloads.variant_of(args.seed)
    ref = HERE / "ref" / f"{name}-{variant}.json.gz"
    if not ref.is_file():
        print(f"missing reference outputs {ref}", file=sys.stderr)
        return 2
    cfg = workloads.config(name, variant)
    command = "picard" if name == "picard" else "simulate"
    work = workloads.particle_steps(cfg, command)
    tag = f"{name}-seed{args.seed}-trace{args.trace}"
    workdir = HERE / "out" / tag
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    cfg_path = workdir / "config.json"
    cfg_path.write_text(json.dumps(cfg, indent=1))

    try:
        setup_times, setup_scaled, setup_failed = ([], [], 0) if args.trace else measure_setup(
            cfg_path, math.prod(cfg["datum"]["grid"]), deadline)
        res = run_worker(name, cfg_path, ref, workdir, args.seconds, args.trace, deadline)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    if not args.trace and not setup_times:
        print("every set-up probe failed", file=sys.stderr)
        return 1

    reps = res["reps"]
    failed = sum(1 for r in reps if not r["ok"])
    untraced = [r["seconds"] for r in reps if not r["traced"]]
    untraced_scaled = [r["scaled_seconds"] for r in reps if not r["traced"]]
    wall_q = quartiles(untraced)
    scaled_q = quartiles(untraced_scaled)
    if args.trace:
        values, counts_repeat = layer_summary(reps, wall_q[1])
        section = spec["per_layer"]
    else:
        values = {"wall_s": scaled_q[1], "particle_steps_per_s": work / scaled_q[1],
                  "setup_s": statistics.median(setup_scaled), "peak_rss_mb": res["peak_rss_mb"]}
        counts_repeat = True
        section = spec["end_to_end"]
    metrics = {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]} for m in section}
    error_rate = failed / len(reps)
    correct = failed == 0 and setup_failed == 0 and counts_repeat

    machine = {"nproc": os.cpu_count(), "cpu": cpu_model(), **res["machine"]}
    sha = git_sha()
    print(f"machine: nproc={machine['nproc']} cpu={machine['cpu']!r} python={machine['python']} "
          f"numpy={machine['numpy']} scipy={machine['scipy']} git={sha or 'n/a'}")
    why = next(w["why"] for w in spec["workloads"] if w["name"] == name)
    print(f"workload {name} ({why}); seed {args.seed} -> datum x0="
          f"{workloads.X_SHIFTS[variant]}; {len(reps)} repetitions, {failed} failed")
    for rep in reps:
        if not rep["ok"]:
            print(f"  failed repetition: {'; '.join(rep['problems'])[:500]}")
    print(f"  {'repetition time, raw':32s} median {wall_q[1]:.6g} s, quartiles "
          f"{wall_q[0]:.6g} .. {wall_q[2]:.6g}, fastest {min(untraced):.6g}, n={len(untraced)}")
    print(f"  {'repetition time, scaled':32s} median {scaled_q[1]:.6g} s, quartiles "
          f"{scaled_q[0]:.6g} .. {scaled_q[2]:.6g}, n={len(untraced_scaled)}")
    if setup_times:
        print(f"  {'set-up time, raw':32s} median {statistics.median(setup_times):.6g} s, "
              f"fastest {min(setup_times):.6g}, n={len(setup_times)}")
    print(f"  {'error_rate':32s} {error_rate:.6g}  ({failed}/{len(reps)})")
    for key, val in metrics.items():
        print(f"  {key:32s} {val['value']:.6g} {val['unit']}")
    # Layer times that are zero by construction on some workload are not in
    # BENCHMARK.json; they are printed here and kept in the result file.
    for key in sorted(set(values) - set(metrics)):
        print(f"  {key:32s} {values[key]:.6g} s  (result file only)")
    if not counts_repeat:
        print("  traced counts differ between repetitions")

    result = {"workload": name, "seed": args.seed, "variant": variant, "trace": args.trace,
              "seconds": args.seconds, "git_sha": sha, "src_sha256": src_sha256(),
              "machine": machine, "config": cfg,
              "particle_steps": work, "error_rate": error_rate, "counts_repeat": counts_repeat,
              "rep_seconds": [r["seconds"] for r in reps],
              "rep_scaled_seconds": [r.get("scaled_seconds") for r in reps],
              "rep_probe_mean": [r.get("probe_mean") for r in reps],
              "rep_probe_passes": [r.get("probe_passes") for r in reps],
              "rep_traced": [r["traced"] for r in reps],
              "problems": [p for r in reps for p in r["problems"]],
              "setup_seconds": setup_times, "setup_scaled_seconds": setup_scaled,
              "metrics": metrics, "all_values": values,
              "trace_missing": res["trace_missing"], "spans_file": res.get("spans_file")}
    (HERE / "out" / f"result-{tag}.json").write_text(json.dumps(result, indent=1))
    print(json.dumps({"correct": correct, "attempted": len(reps), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
