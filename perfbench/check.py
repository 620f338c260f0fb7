"""Output check: a fingerprint of a run directory and its comparison.

What must match, and how:

- ``diagnostics.csv``: byte for byte (the code promises bit-reproducible
  diagnostics).
- ``ensemble_final.csv``: as a set of rows, exactly, so a change that
  reorders particles still passes.
- tracked-seed paths, events and force logs, ``cert_reports.json``,
  ``max_field_norm.json`` and Picard's ``iteration_log.csv``: every number
  within 1e-12 relative, every other token exactly.  Path and force-log
  files are compared on every ``PATH_STRIDE``-th sample and the last one;
  each sample is computed from the one before, so a change anywhere in a
  path reaches the next compared sample.
- every certificate report passes, and every file of the reference run
  exists.
"""

from __future__ import annotations

import gzip
import hashlib
import json
import math
import re
from pathlib import Path

REL_TOL = 1e-12
PATH_STRIDE = 20

_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|[-+]?(?:inf|nan)")


def _cell(text: str):
    try:
        return float(text)
    except ValueError:
        return text


def _csv_rows(path: Path) -> list[list]:
    lines = path.read_text().splitlines()
    return [lines[0].split(",")] + [[_cell(c) for c in ln.split(",")] for ln in lines[1:]]


def _sampled_rows(path: Path) -> dict:
    rows = _csv_rows(path)
    body = rows[1:]
    keep = body[::PATH_STRIDE]
    if body and (len(body) - 1) % PATH_STRIDE:
        keep.append(body[-1])
    return {"header": rows[0], "n_rows": len(body), "rows": keep}


def fingerprint(outdir) -> dict:
    """Everything the check compares, taken from one run directory."""
    outdir = Path(outdir)
    names = sorted(p.name for p in outdir.iterdir())
    fp = {"files": names, "sha256": {}, "close": {}, "certs_passed": None}
    for name in names:
        path = outdir / name
        if name == "diagnostics.csv":
            fp["sha256"][name] = hashlib.sha256(path.read_bytes()).hexdigest()
        elif name == "ensemble_final.csv":
            lines = path.read_text().splitlines()
            canon = "\n".join(lines[:1] + sorted(lines[1:]))
            fp["sha256"][name] = hashlib.sha256(canon.encode()).hexdigest()
        elif name in ("cert_reports.json", "max_field_norm.json"):
            fp["close"][name] = json.loads(path.read_text())
        elif name == "iteration_log.csv" or name.endswith("_events.csv"):
            fp["close"][name] = _csv_rows(path)
        elif name.endswith("_path.csv") or name.endswith("_aux.csv"):
            fp["close"][name] = _sampled_rows(path)
    reports = fp["close"].get("cert_reports.json")
    if reports is not None:
        fp["certs_passed"] = all(r["passed"] for r in reports)
    return fp


def _close(a: float, b: float) -> bool:
    if a == b or (math.isnan(a) and math.isnan(b)):
        return True
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b))


def _diff(ref, got, where: str, out: list[str]) -> None:
    if len(out) >= 10:
        return
    if isinstance(ref, bool) or isinstance(got, bool) or ref is None or got is None:
        if ref != got:
            out.append(f"{where}: {got!r} != reference {ref!r}")
    elif isinstance(ref, (int, float)) and isinstance(got, (int, float)):
        if not _close(float(ref), float(got)):
            out.append(f"{where}: {got!r} differs from reference {ref!r}")
    elif isinstance(ref, str) and isinstance(got, str):
        if _NUMBER.split(ref) != _NUMBER.split(got):
            out.append(f"{where}: text {got!r} != reference {ref!r}")
            return
        for r, g in zip(_NUMBER.findall(ref), _NUMBER.findall(got)):
            _diff(float(r), float(g), where, out)
    elif isinstance(ref, list) and isinstance(got, list):
        if len(ref) != len(got):
            out.append(f"{where}: length {len(got)} != reference {len(ref)}")
            return
        for i, (r, g) in enumerate(zip(ref, got)):
            _diff(r, g, f"{where}[{i}]", out)
    elif isinstance(ref, dict) and isinstance(got, dict):
        if sorted(ref) != sorted(got):
            out.append(f"{where}: keys {sorted(got)} != reference {sorted(ref)}")
            return
        for k in ref:
            _diff(ref[k], got[k], f"{where}.{k}", out)
    else:
        out.append(f"{where}: {type(got).__name__} != reference {type(ref).__name__}")


def compare(ref: dict, got: dict) -> list[str]:
    """Problems found in ``got`` against ``ref``; empty means correct."""
    problems = [f"missing output file {n}" for n in ref["files"] if n not in got["files"]]
    for name, digest in ref["sha256"].items():
        if got["sha256"].get(name) != digest:
            problems.append(f"{name}: content differs from the reference")
    for name, value in ref["close"].items():
        if name in got["close"]:
            _diff(value, got["close"][name], name, problems)
    if got["certs_passed"] is False:
        problems.append("a certificate report failed")
    return problems


def save(fp: dict, path) -> None:
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    data = json.dumps(fp, separators=(",", ":")).encode()
    with open(path, "wb") as raw, gzip.GzipFile("", "wb", fileobj=raw, mtime=0) as gz:
        gz.write(data)


def load(path) -> dict:
    with gzip.open(path, "rt") as fh:
        return json.load(fh)
