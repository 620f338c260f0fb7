"""Command-line entry point.

Subcommands: validate-hooke, trajectory, bounds, picard, simulate,
certify.  Configuration is a single JSON document, whose keys, rules and
readers ``simulator.RunConfig`` documents; ``--set key=value`` overrides
top-level scalars.  Exit codes: 0 success, 2 config error,
3 numerical failure (step underflow / no confinement), 4 certificate or
hypothesis violation.  All floating output uses 17 significant digits so
values round-trip exactly.
"""

from __future__ import annotations

import argparse
import json
import math
import shutil
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .bounds import DEFAULT_SLACK, BoundCertificate, certify
from .errors import (
    ConfigError,
    DiatomicVlasovError,
    NoConfinementError,
    StepUnderflowError,
)
from .field import write_table
from .hooke import validate_model
from .picard import dump_iteration_log, iterate
from .simulator import RunConfig, dump_diagnostics_csv, run
from .trajectory import TrajectoryPath, detect_events, integrate

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_VIOLATION = 4

def _read_json(path: Path, what: str):
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError) as exc:  # ValueError: bad JSON, or an int of > 4300 digits
        raise ConfigError(f"cannot read {what} {str(path)!r}: {exc}") from exc


def _load_config(path: str, overrides) -> RunConfig:
    raw = _read_json(Path(path), "config")
    if not isinstance(raw, dict):
        raise ConfigError(f"config {path!r} must hold a JSON object, got {type(raw).__name__}")
    for item in overrides or []:
        if "=" not in item:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        key, _, val = item.partition("=")
        try:
            raw[key] = json.loads(val)
        except ValueError:  # not JSON, or an int of > 4300 digits: kept as text
            raw[key] = val
    return RunConfig.from_dict(raw)


def _out_dir(cfg: RunConfig, arg: str | None) -> Path:
    out = Path(arg or cfg.output_dir or ".")
    out.mkdir(parents=True, exist_ok=True)
    return out


def _cmd_validate_hooke(cfg: RunConfig, args) -> int:
    model = cfg.build_model()
    report = validate_model(model, grid_size=args.grid)
    print(json.dumps({"passed": report.passed,
                      "failures": list(report.failures),
                      "worst": report.worst,
                      "grid_size": report.grid_size}, indent=2))
    return EXIT_OK if report.passed else EXIT_VIOLATION


def _cmd_trajectory(cfg: RunConfig, args) -> int:
    model = cfg.build_model()
    state, field, T, control, balance = cfg.build_trajectory(model)
    path = integrate(state, field, model, 0.0, T, control, balance=balance)
    out = _out_dir(cfg, args.output_dir)
    path.dump_csv(out / "path.csv")
    path.dump_events_csv(out / "events.csv")
    print(f"wrote {out / 'path.csv'} ({len(path)} samples, "
          f"{len(path.events)} events)")
    return EXIT_OK


def _cmd_bounds(cfg: RunConfig, args) -> int:
    text = cfg.build_bounds(cfg.build_model()).to_json(indent=2)
    print(text)
    if args.output_dir:
        out = _out_dir(cfg, args.output_dir)
        (out / "certificate.json").write_text(text)
    return EXIT_OK


def _cmd_picard(cfg: RunConfig, args) -> int:
    model = cfg.build_model()
    built = cfg.build_datum()
    if not isinstance(built, tuple):
        raise ConfigError("picard runs need a bump datum")
    datum, box, grid = built
    records = iterate(datum, box, grid, model, T=cfg.T, n_max=cfg.n_max,
                      probe_grid=cfg.probe_grid, control=cfg.build_control(),
                      dt_macro=cfg.dt_macro, tol=cfg.picard_tol)
    out = _out_dir(cfg, args.output_dir)
    dump_iteration_log(records, out / "iteration_log.csv")
    write_table(out / "iteration_distances.csv", ["n", "z_dist", "field_w1"],
                [[r.n for r in records], [r.z_dist for r in records],
                 [r.field_w1 for r in records]])
    for r in records:
        print(f"n={r.n} sup_delta={r.sup_delta:.17g} supF={r.sup_F:.17g}")
    return EXIT_OK


def _write_run_outputs(result, out: Path, seed_report: bool) -> None:
    dump_diagnostics_csv(result.series, out / "diagnostics.csv")
    manifest = {
        "version": __version__,
        "config": json.loads(json.dumps(result.config.effective(), default=str)),
        "certificate": result.certificate.to_dict() if result.certificate else None,
    }
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2))
    result.final.dump_csv(out / "ensemble_final.csv")
    for k, ens in result.snapshots_dumped:
        ens.dump_field_csv(out / f"field_{k:06d}.csv")
        if ens is result.final:  # same rows: copy the bytes already written
            shutil.copyfile(out / "ensemble_final.csv", out / f"ensemble_{k:06d}.csv")
        else:
            ens.dump_csv(out / f"ensemble_{k:06d}.csv")
    if seed_report:
        ts = None
        for i, path in enumerate(result.tracked_paths):
            if path.t is not ts:
                # The seeds share one time grid: format it once.
                ts, t_text = path.t, np.array(["%.17g" % t for t in path.t.tolist()])
            path.dump_csv(out / f"seed_{i:03d}_path.csv", t=t_text)
            path.dump_events_csv(out / f"seed_{i:03d}_events.csv")
            write_table(out / f"seed_{i:03d}_aux.csv", ["t", "f_minus"],
                        [t_text, path.f_minus], end="\n")
        reports = [r.to_dict() for r in result.cert_reports]
        (out / "cert_reports.json").write_text(json.dumps(reports, indent=2))
        (out / "max_field_norm.json").write_text(json.dumps(
            {"max_field_norm": result.tracked_paths[0].max_field_norm
             if result.tracked_paths else 0.0}))


def _cmd_simulate(cfg: RunConfig, args) -> int:
    result = run(cfg)
    out = _out_dir(cfg, args.output_dir)
    _write_run_outputs(result, out, seed_report=args.seed_report)
    n_fail = sum(1 for d in result.series
                 if d.status.value == "fail")
    print(f"simulated T={cfg.T:.17g} with {len(result.final)} particles; "
          f"{len(result.series)} diagnostic rows; "
          f"{sum(len(p.events) for p in result.tracked_paths)} events; "
          f"continuation failures: {n_fail}")
    if result.cert_reports and not all(r.passed for r in result.cert_reports):
        print("certificate violations among tracked seeds", file=sys.stderr)
        return EXIT_VIOLATION
    return EXIT_OK


def _load_columns(path: Path, ncols: int) -> np.ndarray:
    """A dumped CSV's rows below its header, with at least ncols columns."""
    try:
        data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    except ValueError as exc:
        raise ConfigError(f"cannot parse {str(path)!r}: {exc}") from exc
    if data.shape[1] < ncols:
        raise ConfigError(f"{str(path)!r} has {data.shape[1]} columns, expected {ncols}")
    return data


def _cmd_certify(args) -> int:
    if not (math.isfinite(args.slack) and args.slack >= 0.0):
        raise ConfigError(f"--slack must be finite and >= 0, got {args.slack!r}")
    rundir = Path(args.path)
    manifest_file = rundir / "manifest.json"
    manifest = _read_json(manifest_file, "run manifest")
    if not isinstance(manifest, dict) or not manifest.get("certificate"):
        raise ConfigError(f"{manifest_file} has no certificate")
    try:
        cert = BoundCertificate.from_dict(manifest["certificate"])
        # The control the run used, event tolerances included.
        control = RunConfig.from_dict(manifest["config"]).build_control()
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"malformed run manifest {str(manifest_file)!r}: {exc!r}") from exc
    seed_paths = sorted(rundir.glob("seed_*_path.csv"))
    if seed_paths:
        # The replayed paths need the norm the run logged, not a default.
        norm_file = rundir / "max_field_norm.json"
        try:
            max_norm = float(_read_json(norm_file, "field norm")["max_field_norm"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"malformed field norm {str(norm_file)!r}: {exc!r}") from exc
    reports = []
    any_fail = False
    for pth in seed_paths:
        data = _load_columns(pth, 5)
        aux_file = pth.with_name(pth.name.replace("_path", "_aux"))
        aux = _load_columns(aux_file, 2)
        if len(aux) != len(data):
            raise ConfigError(f"{str(aux_file)!r} has {len(aux)} rows, {pth.name} {len(data)}")
        path = TrajectoryPath(
            t=data[:, 0], x=data[:, 1], v=data[:, 2], omega=data[:, 3],
            eta=data[:, 4], f_minus=aux[:, 1],
            max_field_norm=max_norm, control=control)
        path.events = detect_events(path, cert.balance)
        rep = certify(path, cert, slack=args.slack)
        reports.append({"seed": pth.name, **rep.to_dict()})
        any_fail = any_fail or not rep.passed
    print(json.dumps(reports, indent=2))
    return EXIT_VIOLATION if any_fail else EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="diatomic-vlasov",
        description="1D diatomic Vlasov-Poisson simulator and bound certifier")
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", required=True, help="JSON config file")
        p.add_argument("--set", action="append", dest="overrides", metavar="KEY=VAL",
                       help="override a top-level config scalar")
        p.add_argument("--output-dir", default=None)

    p = sub.add_parser("validate-hooke", help="check the force hypotheses")
    add_common(p)
    p.add_argument("--grid", type=int, default=1024)

    p = sub.add_parser("trajectory", help="integrate one characteristic")
    add_common(p)

    p = sub.add_parser("bounds", help="print the bound certificate")
    add_common(p)

    p = sub.add_parser("picard", help="run the fixed-point rounds")
    add_common(p)

    p = sub.add_parser("simulate", help="self-consistent run")
    add_common(p)
    p.add_argument("--seed-report", action="store_true",
                   help="emit tracked-seed paths and their certificate reports")

    p = sub.add_parser("certify", help="re-check dumped seed paths")
    p.add_argument("--path", required=True, help="run directory")
    p.add_argument("--slack", type=float, default=DEFAULT_SLACK)
    return ap


def dispatch(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "certify":
            return _cmd_certify(args)
        cfg = _load_config(args.config, args.overrides)
        if args.command == "validate-hooke":
            return _cmd_validate_hooke(cfg, args)
        if args.command == "trajectory":
            return _cmd_trajectory(cfg, args)
        if args.command == "bounds":
            return _cmd_bounds(cfg, args)
        if args.command == "picard":
            return _cmd_picard(cfg, args)
        if args.command == "simulate":
            return _cmd_simulate(cfg, args)
        raise ConfigError(f"unknown command {args.command!r}")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (StepUnderflowError, NoConfinementError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (OSError, DiatomicVlasovError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


def main() -> None:
    sys.exit(dispatch())


if __name__ == "__main__":
    main()
