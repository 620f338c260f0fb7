"""The workload process: times repeated ``cli.dispatch`` calls and checks outputs.

    python3 perfbench/worker.py --name bulk --config CFG --workdir DIR --result FILE
        (--ref REF | --record REF) [--seconds S] [--trace 0|1]
    python3 perfbench/worker.py --setup CFG

The first form repeats one workload within ``--seconds`` (at least three
repetitions), checks every repetition's outputs against ``--ref`` (or
writes the first repetition's fingerprint to ``--record``) and writes a
JSON result.  With ``--trace 1`` untraced and traced repetitions
alternate, and the traced ones also give per-layer metrics.  A host-speed
sampler (probe.py) times every untraced repetition.  The second
form is the set-up probe: import the CLI and build the workload's inputs
with the public calls, in a fresh process.

Thread counts are pinned to 1 before numpy loads.
"""

from __future__ import annotations

import os

THREAD_VARS = ("DIATOMIC_VLASOV_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
               "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "BLIS_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import probe  # noqa: E402
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


def import_package():
    """Import the CLI from this checkout's ``src/``, never from elsewhere."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import diatomic_vlasov.cli as cli
    if Path(cli.__file__).resolve().parent.parent != src.resolve():
        raise ImportError(f"diatomic_vlasov loaded from {cli.__file__}, not {src}")
    return cli


def setup_probe(config_path: str) -> dict:
    """Import the CLI and build the run inputs with the public calls."""
    import_package()
    from diatomic_vlasov.bounds import BoundParameters, build_certificate
    from diatomic_vlasov.datum import sample_datum
    from diatomic_vlasov.hooke import force
    from diatomic_vlasov.simulator import RunConfig

    cfg = RunConfig.from_dict(json.loads(Path(config_path).read_text()))
    model = cfg.build_model()
    datum, box, grid = cfg.build_datum()
    ens = sample_datum(datum, box, grid, model.epsilon)
    # The certificate parameters simulator.run derives from the sampled support.
    supp = ens.support_box()
    eps, L1 = model.epsilon, ens.total_mass
    edge = max(force(model, supp[4]), -force(model, supp[5]), 0.0)
    p = BoundParameters(epsilon=eps, epsilon0=min(supp[4], eps - supp[5], 0.49999 * eps),
                        R=max(abs(supp[2]), abs(supp[3]), abs(supp[6]), abs(supp[7]), 1e-9),
                        C_minus=2.0 * L1, C=cfg.c_safety * max(2.0 * L1, edge), model=model)
    build_certificate(p, supp, cfg.T)
    return {"particles": len(ens)}


def run_rep(cli, args: list[str], outdir: Path, ref: dict | None,
            probe_host: bool = False) -> dict:
    """One timed ``dispatch`` call, then the output check (untimed).

    With ``probe_host`` a ``probe.Sampler`` times the call: ``seconds``
    leaves out its passes, and ``scaled_seconds`` is the call's time at the
    probe's reference speed.
    """
    from check import compare, fingerprint

    shutil.rmtree(outdir, ignore_errors=True)
    sink = io.StringIO()
    rc, err = None, ""
    sampler = probe.Sampler() if probe_host else contextlib.nullcontext()
    t0 = time.perf_counter()
    try:
        with sampler, contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            rc = cli.dispatch(args + ["--output-dir", str(outdir)])
    except Exception:
        err = traceback.format_exc(limit=3)
    seconds = time.perf_counter() - t0
    rep = {"seconds": seconds, "exit": rc, "problems": []}
    if probe_host:
        rep["seconds"] = sampler.seconds
        rep["scaled_seconds"] = sampler.scaled
        rep["probe_passes"] = len(sampler.samples)
        rep["probe_mean"] = sum(sampler.samples) / len(sampler.samples)
    if rc != 0:
        rep["problems"].append(f"exit code {rc}: {(err or sink.getvalue())[-400:]}")
    else:
        files = list(outdir.iterdir())
        rep["files"] = len(files)
        rep["bytes"] = sum(f.stat().st_size for f in files)
        rep["fingerprint"] = fingerprint(outdir)
        if ref is not None:
            rep["problems"] += compare(ref, rep["fingerprint"])
    rep["ok"] = not rep["problems"]
    return rep


def run_workload(name: str, cfg: dict, workdir: Path, seconds: float, trace: bool,
                 ref: dict | None, min_reps: int = 3, max_reps: int = 10_000) -> dict:
    """Warm up, then repeat the workload for ``seconds``; see module doc."""
    from tracing import Tracer, layer_metrics

    cli = import_package()
    workdir.mkdir(parents=True, exist_ok=True)
    cfg_path = workdir / "config.json"
    cfg_path.write_text(json.dumps(cfg, indent=1))
    warm_path = workdir / "warmup.json"
    warm = workloads.config(name, 0, smoke=True)
    warm_path.write_text(json.dumps(warm))
    run_rep(cli, workloads.cli_args(name, str(warm_path)), workdir / "warmup", None)
    shutil.rmtree(workdir / "warmup", ignore_errors=True)
    probe.passes(5)

    args = workloads.cli_args(name, str(cfg_path))
    reps, spans, missing = [], {}, []
    start = time.perf_counter()
    last = 0.0  # duration of the previous repetition with its check
    # Start another repetition only if it should be half done inside the
    # window, so that the window is used in full on average.
    while len(reps) < max_reps and (
            len(reps) < min_reps or time.perf_counter() - start + last / 2 <= seconds):
        rep_start = time.perf_counter()
        traced = trace and len(reps) % 2 == 1
        if traced:
            tracer = Tracer(f"{name}-rep{len(reps)}")
            tracer.install()
        try:
            rep = run_rep(cli, args, workdir / "rep", ref, probe_host=not traced)
        finally:
            if traced:
                tracer.uninstall()
        if ref is not None:
            # Checked already; kept, it would grow the process's peak memory
            # with every repetition (about 1.2 MB each on wall).
            rep.pop("fingerprint", None)
        rep["traced"] = traced
        if traced:
            spans[tracer.workload] = tracer.spans
            missing = tracer.missing
            rep["layers"] = layer_metrics(tracer.spans) if rep["exit"] == 0 else {}
        reps.append(rep)
        shutil.rmtree(workdir / "rep", ignore_errors=True)
        last = time.perf_counter() - rep_start
    import numpy
    import scipy

    result = {"reps": reps,
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
              "trace_missing": missing,
              "machine": {"python": platform.python_version(), "numpy": numpy.__version__,
                          "scipy": scipy.__version__}}
    if trace:
        spans_path = workdir / "spans.json"
        spans_path.write_text(json.dumps(
            {"fields": ["name", "start", "end", "parent", "workload", "attrs"],
             "spans": spans}))
        result["spans_file"] = str(spans_path)
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--setup", metavar="CFG")
    ap.add_argument("--name", choices=workloads.NAMES)
    ap.add_argument("--config")
    ap.add_argument("--workdir")
    ap.add_argument("--result")
    ap.add_argument("--ref")
    ap.add_argument("--record")
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.setup:
        print(json.dumps(setup_probe(args.setup)))
        return 0
    if not (args.name and args.config and args.workdir and args.result):
        ap.error("--name, --config, --workdir and --result are required")
    if bool(args.ref) == bool(args.record):
        ap.error("give exactly one of --ref and --record")
    from check import load, save

    cfg = json.loads(Path(args.config).read_text())
    ref = load(args.ref) if args.ref else None
    result = run_workload(args.name, cfg, Path(args.workdir), args.seconds, bool(args.trace),
                          ref, min_reps=1 if args.record else 3,
                          max_reps=1 if args.record else 10_000)
    if args.record and result["reps"][0]["ok"]:
        save(result["reps"][0]["fingerprint"], args.record)
    for rep in result["reps"]:
        rep.pop("fingerprint", None)
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
