"""Spans around the package's layer boundaries, recorded from outside.

``Tracer.install`` wraps public functions in every loaded module of the
package that holds them (so ``simulator.build_field`` and
``picard.build_field`` are both covered, wherever a later refactor moves
the call), plus the field query, history lookup and CSV dump methods.
Nothing under ``src/`` changes.  Each span records name, start, end, parent
span, workload id and a few attributes; spans stay in memory until the
run ends.  ``layer_metrics`` derives the per-layer numbers from them.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
import time

import numpy as np

from workloads import fine_steps

QUERY = ("field.pm", "field.at")
WRITE = "cli.write"


def _path_bytes(args, kwargs) -> int:
    for a in (*args, *kwargs.values()):
        if isinstance(a, (str, os.PathLike)):
            return os.path.getsize(a)
    return 0


def _batch_attrs(sig):
    def attrs(args, kwargs, out):
        b = sig.bind(*args, **kwargs)
        b.apply_defaults()
        a = b.arguments
        rows = int(np.shape(a["states"])[0])
        t0, t1 = float(a["t0"]), float(a["t1"])
        lo, hi = min(t0, t1), max(t0, t1)
        brk = np.asarray(getattr(a["field_provider"], "breakpoints", ()), dtype=float)
        cuts = np.unique(np.concatenate([[lo], brk[(brk > lo) & (brk < hi)], [hi]]))
        steps = sum(fine_steps(e - s, a["control"].dt) for s, e in zip(cuts[:-1], cuts[1:]))
        record = bool(a["record"])
        return {"rows": rows, "steps": steps, "record": record, "backward": t1 < t0,
                "samples": rows * len(out[1]) if record else 0}
    return attrs


def _event_attrs(args, kwargs, out):
    kinds = [e.kind.value for e in out]
    return {k: kinds.count(k) for k in ("exit", "return", "stopping")}


# (module, attribute, span name, attribute function of (args, kwargs, result))
FUNCTIONS = (
    ("field", "build_field", "field.build", lambda a, k, o: {"points": len(a[0])}),
    ("trajectory", "integrate_batch", "trajectory.integrate_batch", None),
    ("trajectory", "detect_events", "trajectory.detect_events", _event_attrs),
    ("bounds", "certify", "bounds.certify", lambda a, k, o: {"passed": bool(o.passed)}),
    ("bounds", "build_certificate", "bounds.build_certificate", None),
    ("datum", "sample_datum", "datum.sample", lambda a, k, o: {"points": len(o)}),
    ("simulator", "diagnostics", "simulator.diagnostics", None),
    ("simulator", "check_continuation", "simulator.diagnostics", None),
    ("simulator", "run", "simulator.run", None),
    ("picard", "iterate", "picard.iterate", lambda a, k, o: {"rounds": len(o)}),
    ("simulator", "dump_diagnostics_csv", WRITE, lambda a, k, o: {"bytes": _path_bytes(a, k)}),
    ("picard", "dump_iteration_log", WRITE, lambda a, k, o: {"bytes": _path_bytes(a, k)}),
)

# (module, class, method, span name, attribute function)
METHODS = (
    ("field", "FieldSnapshot", "pm", "field.pm",
     lambda a, k, o: {"points": 2 * int(np.size(a[1])), "scalar": np.ndim(a[1]) == 0}),
    ("field", "FieldSnapshot", "at", "field.at", lambda a, k, o: {"points": int(np.size(a[1]))}),
    ("field", "FieldHistory", "snapshot_at", "field.history_lookup", None),
    ("field", "FieldSnapshot", "dump_csv", WRITE, lambda a, k, o: {"bytes": _path_bytes(a[1:], k)}),
    ("field", "Ensemble", "dump_csv", WRITE, lambda a, k, o: {"bytes": _path_bytes(a[1:], k)}),
    ("trajectory", "TrajectoryPath", "dump_csv", WRITE, lambda a, k, o: {"bytes": _path_bytes(a[1:], k)}),
    ("trajectory", "TrajectoryPath", "dump_events_csv", WRITE,
     lambda a, k, o: {"bytes": _path_bytes(a[1:], k)}),
)

PACKAGE = "diatomic_vlasov"


class Tracer:
    """In-memory span recorder for one repetition.

    Spans are [name, start, end, parent, workload, attrs]; parent is the
    index of the enclosing span in ``spans``, or -1.  One stack serves all
    calls: the workload process pins the package to one thread.
    """

    def __init__(self, workload: str):
        self.spans: list[list] = []
        self.workload = workload
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def wrap(self, name: str, fn, attrs=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, tracer.workload, None]
            stack.append(len(tracer.spans))
            tracer.spans.append(rec)
            rec[1] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                stack.pop()
            if attrs is not None:
                try:
                    rec[5] = attrs(args, kwargs, out)
                except Exception as exc:  # a changed signature must not fail the run
                    note = f"attributes of {name}: {exc!r}"
                    if note not in tracer.missing:
                        tracer.missing.append(note)
            return out
        return traced

    def _set(self, owner, attr, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every target; a target the package no longer has is listed
        in ``missing`` and its metrics read 0."""
        mods = [m for n, m in list(sys.modules.items())
                if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]
        for modname, attr, name, attrs in FUNCTIONS:
            orig = getattr(sys.modules.get(f"{PACKAGE}.{modname}"), attr, None)
            if orig is None:
                self.missing.append(f"{modname}.{attr}")
                continue
            if name == "trajectory.integrate_batch":
                attrs = _batch_attrs(inspect.signature(orig))
            wrapped = self.wrap(name, orig, attrs)
            for mod in mods:
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        self._set(mod, key, wrapped)
        for modname, cls, meth, name, attrs in METHODS:
            owner = getattr(sys.modules.get(f"{PACKAGE}.{modname}"), cls, None)
            if owner is None or meth not in vars(owner):
                self.missing.append(f"{modname}.{cls}.{meth}")
                continue
            self._set(owner, meth, self.wrap(name, vars(owner)[meth], attrs))
        self._set(np, "savetxt", self.wrap(WRITE, np.savetxt,
                                           lambda a, k, o: {"bytes": _path_bytes(a[:1], k)}))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)


def layer_metrics(spans: list[list]) -> dict:
    """Per-layer counts and times of one traced repetition."""
    dur = [s[2] - s[1] for s in spans]
    child = [0.0] * len(spans)
    for i, s in enumerate(spans):
        if s[3] >= 0:
            child[s[3]] += dur[i]

    def under(i: int, name: str) -> bool:
        p = spans[i][3]
        while p >= 0:
            if spans[p][0] == name:
                return True
            p = spans[p][3]
        return False

    def named(*names):
        return [i for i, s in enumerate(spans) if s[0] in names]

    def attr(i, key):
        return (spans[i][5] or {}).get(key, 0)

    def attr_sum(idx, key):
        return sum(attr(i, key) for i in idx)

    builds = named("field.build")
    queries = [i for i in named(*QUERY) if spans[i][3] < 0 or spans[spans[i][3]][0] not in QUERY]
    lookups = named("field.history_lookup")
    batches = named("trajectory.integrate_batch")
    detects = named("trajectory.detect_events")
    certs = named("bounds.certify")
    iters = named("picard.iterate")
    writes = [i for i in named(WRITE) if spans[i][3] < 0 or spans[spans[i][3]][0] != WRITE]
    in_picard = [i for i in batches if under(i, "picard.iterate")]
    backward = [i for i in in_picard if attr(i, "backward")]
    tracked = [i for i in batches if attr(i, "record")]

    m = {}
    m["field.build_calls"] = len(builds)
    m["field.build_points"] = attr_sum(builds, "points")
    m["field.build_s"] = sum(dur[i] for i in builds)
    m["field.query_calls"] = len(queries)
    m["field.query_points"] = attr_sum(queries, "points")
    m["field.query_s"] = sum(dur[i] for i in queries)
    m["field.query_ns_per_point"] = 1e9 * m["field.query_s"] / max(1, m["field.query_points"])
    m["field.history_lookups"] = len(lookups)
    m["field.history_lookup_s"] = sum(dur[i] for i in lookups)
    m["trajectory.batch_calls"] = len(batches)
    m["trajectory.member_steps"] = sum(attr(i, "rows") * attr(i, "steps") for i in batches)
    m["trajectory.batch_self_s"] = sum(dur[i] - child[i] for i in batches)
    m["trajectory.ns_per_member_step"] = (1e9 * m["trajectory.batch_self_s"]
                                          / max(1, m["trajectory.member_steps"]))
    m["trajectory.fallback_queries"] = sum(1 for i in queries if attr(i, "scalar"))
    m["trajectory.fallback_query_share"] = (m["trajectory.fallback_queries"]
                                            / max(1, m["field.query_calls"]))
    m["trajectory.detect_events_s"] = sum(dur[i] for i in detects)
    for kind in ("exit", "return", "stopping"):
        m[f"trajectory.events_{kind}"] = attr_sum(detects, kind)
    m["simulator.tracked_s"] = sum(dur[i] for i in tracked)
    m["simulator.tracked_samples"] = attr_sum(tracked, "samples")
    m["simulator.diagnostics_s"] = sum(dur[i] for i in named("simulator.diagnostics"))
    m["simulator.self_s"] = sum(dur[i] - child[i] for i in named("simulator.run"))
    m["bounds.certify_calls"] = len(certs)
    m["bounds.certify_s"] = sum(dur[i] for i in certs)
    m["bounds.cert_failures"] = sum(1 for i in certs if attr(i, "passed") is False)
    m["bounds.build_certificate_s"] = sum(dur[i] for i in named("bounds.build_certificate"))
    m["datum.sample_s"] = sum(dur[i] for i in named("datum.sample"))
    m["datum.particles"] = attr_sum(named("datum.sample"), "points")
    m["picard.rounds"] = attr_sum(iters, "rounds")
    m["picard.probe_points"] = attr_sum(backward, "rows")
    m["picard.forward_s"] = sum(dur[i] for i in in_picard if i not in backward)
    m["picard.backward_s"] = sum(dur[i] for i in backward)
    m["picard.self_s"] = sum(dur[i] - child[i] for i in iters)
    m["cli.write_s"] = sum(dur[i] for i in writes)
    m["cli.write_mb_per_s"] = attr_sum(writes, "bytes") / 1e6 / max(m["cli.write_s"], 1e-9)
    return m
