"""What the benchmark harness under perfbench/ binds in the package by name.

``perfbench/tracing.py`` wraps package functions and methods by name and
reads ``integrate_batch``'s arguments by parameter name, and
``worker.setup_probe`` imports public names and keeps its own copy of the
certificate parameter formulas.  A rename in the package would zero the
traced metrics or fail the harness, and a changed formula would leave
``setup_s`` timing the old one, without failing any other test, so these
checks run with the package's own tests.
"""

import ast
import importlib
import inspect
import json
import os
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from diatomic_vlasov import (
    RunConfig,
    StepControl,
    bounds,
    certificate_parameters,
    integrate_batch,
    sample_datum,
    tangent_model,
    zero_field,
)

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

# Targets tracing.py still names that the package no longer has.
KNOWN_MISSING = {"field.FieldSnapshot.dump_csv", "field.FieldHistory.snapshot_at"}


@pytest.fixture(scope="module")
def tracing():
    sys.path.insert(0, str(PERFBENCH))
    try:
        yield importlib.import_module("tracing")
    finally:
        sys.path.remove(str(PERFBENCH))


def test_integrate_batch_arguments_bind_by_name(tracing):
    sig = inspect.signature(integrate_batch)
    assert {"states", "field_provider", "t0", "t1", "control", "record"} <= set(sig.parameters)
    args = (np.array([[0.0, 0.1, 0.5, 0.1]] * 3), zero_field(), tangent_model(1.0),
            0.05, 0.0, StepControl(dt=0.01))
    out = integrate_batch(*args, record=True)
    assert tracing._batch_attrs(sig)(args, {"record": True}, out) == \
        {"rows": 3, "steps": 5, "record": True, "backward": True, "samples": 18}


def test_traced_targets_resolve(tracing):
    tracer = tracing.Tracer("bindings")
    tracer.install()
    try:
        missing = set(tracer.missing)
    finally:
        tracer.uninstall()
    assert missing <= KNOWN_MISSING


def test_setup_probe_imports_resolve():
    tree = ast.parse((PERFBENCH / "worker.py").read_text())
    probe = next(node for node in ast.walk(tree)
                 if isinstance(node, ast.FunctionDef) and node.name == "setup_probe")
    imports = [(node.module, alias.name) for node in ast.walk(probe)
               if isinstance(node, ast.ImportFrom) for alias in node.names]
    assert imports
    for module, name in imports:
        assert module.startswith("diatomic_vlasov.")
        assert hasattr(importlib.import_module(module), name), f"{module}.{name}"


@pytest.mark.parametrize("name", ["bulk", "wall", "picard"])
def test_setup_probe_derives_the_run_parameters(name, tmp_path, monkeypatch):
    monkeypatch.setattr(sys, "path", [str(PERFBENCH), *sys.path])
    with mock.patch.dict(os.environ):  # importing worker pins thread variables
        worker = importlib.import_module("worker")
    workloads = importlib.import_module("workloads")
    build, captured = bounds.build_certificate, []

    def capture(p, box, T):
        captured.append((p, box))
        return build(p, box, T)

    monkeypatch.setattr(bounds, "build_certificate", capture)
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(workloads.config(name, 0, smoke=True)))
    worker.setup_probe(str(cfg_path))

    cfg = RunConfig.from_dict(json.loads(cfg_path.read_text()))
    model = cfg.build_model()
    ens = sample_datum(*cfg.build_datum(), model.epsilon)
    [(p, box)] = captured
    assert box == ens.support_box()
    assert p == certificate_parameters(model, box, ens.total_mass, cfg.c_safety)
