import argparse
import csv
import json
import math
import os
import subprocess
import sys
import warnings
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import diatomic_vlasov
from diatomic_vlasov import (
    ConstantField,
    FieldSnapshot,
    ParticleState,
    StepControl,
    balance_points,
    certificate_parameters,
    confinement_time,
    displacement_bound,
    gronwall_constants,
    integrate,
    tangent_model,
    zero_field,
)
from diatomic_vlasov import cli, simulator
from diatomic_vlasov.cli import EXIT_CONFIG, EXIT_NUMERICAL, EXIT_OK, EXIT_VIOLATION, dispatch
from diatomic_vlasov.field import write_table
from diatomic_vlasov.simulator import MAX_MAGNITUDE, RunConfig


def write_config(tmp_path, **over):
    raw = {
        "hooke": {"kind": "tangent", "epsilon": 1.0},
        "datum": {"kind": "bumps",
                  "centers": {"x": 0.0, "v": 0.0, "omega": 0.5, "eta": 0.0},
                  "widths": {"x": 0.5, "v": 0.3, "omega": 0.08, "eta": 0.3},
                  "amplitude": 4.0,
                  "grid": [6, 6, 6, 6]},
        "T": 0.3, "dt_macro": 0.01,
        "control": {"dt": 0.0025, "event_eta_tol": 0.5},
        "tracked_boundary": 16, "tracked_interior": 8,
    }
    raw.update(over)
    if raw["datum"] is None:
        del raw["datum"]
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw))
    return path


def roll_aux_times(old: bytes, by: int = 7) -> bytes:
    """An aux file's bytes with its t column moved down ``by`` rows and its
    f_minus column left in place."""
    head, *rows = old.split(b"\n")[:-1]
    t, fm = zip(*(row.split(b",") for row in rows))
    t = t[-by:] + t[:-by]
    return b"\n".join([head, *(a + b"," + b for a, b in zip(t, fm))]) + b"\n"


class TestSimulateCertify:
    def test_replay_equals_in_run_reports(self, tmp_path, capsys):
        # The replay must rebuild the run's control (dt and event
        # tolerances), not one derived from dt_macro alone.
        out = tmp_path / "run"
        code = dispatch(["simulate", "--config", str(write_config(tmp_path)),
                         "--seed-report", "--output-dir", str(out)])
        assert code == EXIT_OK
        capsys.readouterr()
        assert dispatch(["certify", "--path", str(out)]) == EXIT_OK
        replay = json.loads(capsys.readouterr().out)
        in_run = json.loads((out / "cert_reports.json").read_text())
        assert len(replay) == len(in_run) == 24
        replay = [{k: v for k, v in rep.items() if k != "seed"} for rep in replay]
        assert json.dumps(replay, sort_keys=True) == json.dumps(in_run, sort_keys=True)
        # Path files end lines with \r\n (csv.writer style), aux files with \n.
        assert (out / "seed_000_path.csv").read_bytes().startswith(b"t,x,v,omega,eta\r\n")
        aux = (out / "seed_000_aux.csv").read_bytes()
        assert aux.startswith(b"t,f_minus\n") and b"\r" not in aux

    def test_older_manifest_certifies(self, tmp_path, capsys):
        # Runs before the certificate dropped C1, C2 and I_m wrote them
        # into the manifest; such a run replays to the same reports.
        datum = json.loads(write_config(tmp_path).read_text())["datum"]
        datum["grid"] = [3, 3, 3, 3]
        out = tmp_path / "run"
        assert dispatch(["simulate", "--config", str(write_config(tmp_path, datum=datum, T=0.02)),
                         "--seed-report", "--output-dir", str(out)]) == EXIT_OK
        capsys.readouterr()
        assert dispatch(["certify", "--path", str(out)]) == EXIT_OK
        replay = capsys.readouterr().out
        manifest = json.loads((out / "manifest.json").read_text())
        assert not {"C1", "C2", "I_m"} & set(manifest["certificate"])
        manifest["certificate"].update(C1=4.0, C2=3.0, I_m=0.25)
        (out / "manifest.json").write_text(json.dumps(manifest, indent=2))
        assert dispatch(["certify", "--path", str(out)]) == EXIT_OK
        assert capsys.readouterr().out == replay


class TestExitCodes:
    def test_unknown_config_key(self, tmp_path, capsys):
        # event_time_tol_factor is a constant of the integrator, not a key.
        for over, key in (({"frobnicate": 1}, "frobnicate"),
                          ({"control": {"event_time_tol_factor": 1e-3}},
                           "event_time_tol_factor")):
            cfg = write_config(tmp_path, **over)
            code = dispatch(["simulate", "--config", str(cfg),
                             "--output-dir", str(tmp_path / "run")])
            assert code == EXIT_CONFIG
            assert key in capsys.readouterr().err

    def test_simulate_without_datum(self, tmp_path, capsys):
        cfg = write_config(tmp_path, datum=None)
        code = dispatch(["simulate", "--config", str(cfg),
                         "--output-dir", str(tmp_path / "run")])
        assert code == EXIT_CONFIG
        assert "bump datum" in capsys.readouterr().err

    @pytest.mark.parametrize("key, val", [("T", "abc"), ("dt_macro", "abc"), ("T", "NaN"),
                                          ("snapshot_every", "abc"), ("c_safety", "abc"),
                                          ("tracked_boundary", "2.5"), ("n_max", "2.5"),
                                          ("probe_grid", "-4"), ("probe_grid", "0"),
                                          ("tracked_boundary", "-3"),
                                          ("tracked_interior", "-5"),
                                          ("snapshot_every", "-1"), ("detj_seeds", "true"),
                                          ("detj_every", "1.0")])
    def test_bad_number_override(self, tmp_path, capsys, key, val):
        code = dispatch(["simulate", "--config", str(write_config(tmp_path)),
                         "--set", f"{key}={val}", "--output-dir", str(tmp_path / "run")])
        assert code == EXIT_CONFIG
        assert key in capsys.readouterr().err

    @pytest.mark.parametrize("section, spec, needle", [
        ("trajectory", {"seed": {"x": 0.0, "eta": 0.1}}, "omega"),
        ("trajectory", {"seed": {"omega": 0.6}, "T": "abc"}, "trajectory.T"),
        ("trajectory", {"seed": {"omega": 0.6, "eta": "fast"}}, "trajectory.seed.eta"),
        ("trajectory", {"seed": {"omega": 0.6}, "TT": 0.5}, "TT"),
        ("trajectory", {"seed": {"omega": 0.6}, "field": "zero"}, "trajectory.field"),
        ("bounds", {"support_box": [-1, 1, -1, 1, 0.4, 0.6, -1, 1], "C": 3.0}, "C_minus"),
        ("bounds", {"C": "abc"}, "bounds.C"),
        ("trajectory", {"seed": {"omega": 0.5, "vv": 3.0}}, "vv"),
        ("trajectory", {"seed": {"omega": 0.5},
                        "field": {"kind": "constant", "fminus": 2.0}}, "fminus"),
        ("trajectory", {"seed": {"omega": 0.6},
                        "field": {"kind": "constant", "f_minus": math.nan}},
         "trajectory.field.f_minus must be finite"),
    ])
    def test_bad_section(self, tmp_path, capsys, section, spec, needle):
        cfg = write_config(tmp_path, **{section: spec})
        code = dispatch([section, "--config", str(cfg), "--output-dir", str(tmp_path / "out")])
        assert code == EXIT_CONFIG
        assert needle in capsys.readouterr().err

    BAD_NUMBERS = [
        ("bounds", ("hooke", "epsilon"), "abc", "hooke.epsilon must be a number"),
        ("bounds", ("hooke", "epsilon"), True, "hooke.epsilon must be a number"),
        ("bounds", ("datum", "amplitude"), "big", "datum.amplitude must be a number"),
        ("bounds", ("datum", "centers", "x"), "abc", "datum.centers.x must be a number"),
        ("bounds", ("datum", "widths", "eta"), True, "datum.widths.eta must be a number"),
        ("bounds", ("datum", "box"),
         {"x": [-1, 1], "v": [-1, 1], "omega": ["a", 0.6], "eta": [-1, 1]},
         "datum.box.omega must be a number"),
        ("bounds", ("datum", "grid"), ["a", 3, 3, 3], "datum.grid must hold integers"),
        ("bounds", ("datum", "grid"), [3.5, 3, 3, 3], "datum.grid must hold integers"),
        ("bounds", ("datum", "box"), {"x": [-1, 1], "v": [-1, 1], "omega": [0.4, 0.6]},
         "datum.box as an object with keys x, v, omega, eta"),
        ("bounds", ("datum", "box"),
         {"x": [-1, 1], "v": [-1, 1], "omega": [0.4, 0.6], "eta": [-1, 1], "zeta": [0, 1]},
         "datum.box as an object"),
        ("bounds", ("datum", "box"),
         {"x": [-1, 1], "v": [-1, 1], "omega": [0.4, 0.6], "eta": [-1, 0, 1]},
         "datum.box.eta must be a pair of numbers"),
        ("bounds", ("datum", "box"), {"x": [-1, 1], "v": 1.0, "omega": [0.4, 0.6], "eta": [-1, 1]},
         "datum.box.v must be a pair of numbers"),
        ("bounds", ("datum", "grid"), 8, "datum.grid must hold integers"),
        ("bounds", ("datum", "grid"), [3, 3, 3], "datum.grid must hold integers"),
        ("bounds", ("datum", "centers"), [0.0, 0.0, 0.5, 0.0], "datum.centers as an object"),
        ("bounds", ("datum", "widths"), {"x": 0.5, "v": 0.3, "omega": 0.08},
         "datum.widths as an object"),
        ("bounds", ("T",), True, "T must be a number"),
        ("bounds", ("bounds", "C"), True, "bounds.C must be a number"),
        ("trajectory", ("trajectory", "T"), True, "trajectory.T must be a number"),
        ("trajectory", ("control", "eta_scale"), True, "control.eta_scale must be a number"),
        # A NaN tolerance makes every balance touch a stopping event, so no
        # excursion is checked; a NaN or negative margin turns warn into pass.
        ("simulate", ("control", "event_eta_tol"), math.nan,
         "control.event_eta_tol must be finite"),
        ("bounds", ("control", "event_eta_tol"), -1e-7, "control.event_eta_tol must be >= 0"),
        ("simulate", ("continuation_margin",), math.nan, "continuation_margin must be finite"),
        ("simulate", ("continuation_margin",), -5.0, "continuation_margin must be >= 0"),
        ("bounds", ("c_safety",), math.nan, "c_safety must be finite and positive"),
        ("simulate", ("c_safety",), 0.0, "c_safety must be finite and positive"),
        # Past the bond force at the walls, C has no balance points.
        ("bounds", ("datum", "amplitude"), 1e100,
         "from c_safety and the datum's mass, has no balance points"),
        ("simulate", ("datum", "amplitude"), 1e150,
         "from c_safety and the datum's mass, has no balance points"),
        ("bounds", ("bounds", "C"), 1e100, "C = 1e+100, from bounds.C, has no balance points"),
        ("bounds", ("datum", "box"),
         {"x": [-1, 1], "v": [1, -1], "omega": [0.4, 0.6], "eta": [-1, 1]},
         "datum.box.v must have lo < hi, got [1, -1]"),
        # Past MAX_CELLS the 4d sampling grid is refused before it is built;
        # unchecked, numpy could not broadcast it.
        ("bounds", ("datum", "grid"), [100000] * 4,
         "datum.grid is [100000, 100000, 100000, 100000], 100000000000000000000 cells, "
         "over the cap of 2**22"),
        ("simulate", ("datum", "grid"), [100000] * 4, "datum.grid is [100000, 100000"),
        ("picard", ("datum", "grid"), [100000] * 4, "datum.grid is [100000, 100000"),
        ("bounds", ("datum", "grid"), [2**22 + 1, 1, 1, 1],
         "datum.grid is [4194305, 1, 1, 1], 4194305 cells, over the cap of 2**22"),
    ]

    @pytest.mark.parametrize("command, keys, val, needle", BAD_NUMBERS, ids=[
        f"{command}-{'.'.join(keys)}={json.dumps(val)}" for command, keys, val, _ in BAD_NUMBERS])
    def test_bad_config_number(self, tmp_path, capsys, command, keys, val, needle):
        # A bool is not a number, a datum section of the wrong shape is
        # no datum, and every message names its key.
        raw = json.loads(write_config(tmp_path, trajectory={"seed": {"omega": 0.6}},
                                      bounds={}).read_text())
        node = raw
        for key in keys[:-1]:
            node = node[key]
        node[keys[-1]] = val
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps(raw))
        code = dispatch([command, "--config", str(cfg), "--output-dir", str(tmp_path / "out")])
        assert code == EXIT_CONFIG
        assert needle in capsys.readouterr().err

    @pytest.mark.parametrize("over, needle", [
        ({"hooke": {"kind": "table", "table_path": [0.1, 0.5]}}, "hooke.table_path as a"),
        ({"hooke": {"kind": "table", "table_path": ["0.1 1", "0.3 0.5", "0.5 0", "0.7 -0.5",
                                                    "0.9 -1"]}}, "hooke.table_path as a"),
        ({"hooke": {"kind": "table", "table_path": 7}}, "hooke.table_path as a"),
        ({"datum": {"kind": "particles", "path": [0, 0, 0.5, 0, 1]}}, "datum.path as a"),
        ({"datum": {"kind": "particles", "path": ["x,v,omega,eta,w", "0,0,0.5,0,1"]}},
         "datum.path as a"),
        ({"datum": {"kind": "particles", "path": ""}}, "datum.path as a"),
        ({"output_dir": 5}, "output_dir must be a string or null"),
    ], ids=["table-numbers", "table-lines", "table-int", "datum-numbers", "datum-lines",
            "datum-empty", "output_dir-int"])
    def test_path_keys_are_strings(self, tmp_path, monkeypatch, capsys, over, needle):
        # numpy reads a list as lines of data: a list of numbers ends in a
        # TypeError, a list of strings is read as inline rows.
        monkeypatch.chdir(tmp_path)
        cfg = write_config(tmp_path, **over)
        assert dispatch(["simulate", "--config", str(cfg)]) == EXIT_CONFIG
        assert needle in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["bounds", "simulate"])
    def test_integer_too_large_for_a_float(self, tmp_path, capsys, command):
        # float() of such an int raised OverflowError out of dispatch; an
        # int of more than 4300 digits fails in json.loads, whose limit
        # raises a ValueError that is no JSONDecodeError.
        cfg = write_config(tmp_path, T=10**400)
        args = [command, "--config", str(cfg), "--output-dir", str(tmp_path / "out")]
        assert dispatch(args) == EXIT_CONFIG
        assert "T is an integer of 1329 bits, too large for a float" in capsys.readouterr().err
        assert dispatch(args + ["--set", "T=" + "9" * 5000]) == EXIT_CONFIG
        assert "T must be a number" in capsys.readouterr().err
        cfg.write_text(cfg.read_text().replace("1" + "0" * 400, "1" + "0" * 5000))
        assert dispatch(args) == EXIT_CONFIG
        assert "cannot read config" in capsys.readouterr().err

    def test_particle_file_without_rows(self, tmp_path, capsys):
        # numpy only warns on a file with no rows, and the run went on to
        # fail on the columns; under warnings as errors the warning escaped.
        path = tmp_path / "ens.csv"
        path.write_text("x,v,omega,eta,w\n")
        cfg = write_config(tmp_path, datum={"kind": "particles", "path": str(path)})
        assert dispatch(["bounds", "--config", str(cfg)]) == EXIT_CONFIG
        assert f"{path}: no particle rows after the header" in capsys.readouterr().err

    def test_certificate_overflow_at_any_T_names_the_bond_law(self, tmp_path, capsys):
        # With eta edges at 1e200 the excursion envelope squares 1e200,
        # which overflows whatever T is: the message leads with the law
        # and C, not T.
        w = np.linspace(1e-4, 1 - 1e-4, 8)
        np.savetxt(tmp_path / "law.txt", np.column_stack([w, -np.tan(np.pi * (w - 0.5))]))
        hooke = {"kind": "table", "epsilon": 1.0, "table_path": str(tmp_path / "law.txt")}
        bounds = dict(TestConfigSweep.BASE["bounds"])
        bounds["support_box"] = bounds["support_box"][:6] + [-1e200, 1e200]
        cfg = write_config(tmp_path, hooke=hooke, bounds=bounds)
        assert dispatch(["bounds", "--config", str(cfg)]) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith(
            "config error: the certificate of the table bond law with C = 3.0, from "
            "bounds.C, overflows at any T (bounds.T = 0.02 plays no part): ")

    @pytest.mark.parametrize("law, edge, c1, t0, rel", [
        ("tangent", 0.001, 1274.513, 1.0587e-4, 1e-4),
        ("table", None, 3520.425, 7.427e-4, 1e-4),
        ("tangent", 0.01, 128.5995, 0.0010570188106360234, 0.0),
    ], ids=["tangent-0.001", "table-1e-4", "tangent-0.01"])
    def test_certificate_for_bonds_near_the_walls(self, tmp_path, capsys, law, edge, c1, t0,
                                                  rel):
        # Band constants C1 above about 710 once overflowed exp(C1 t) at
        # t0's first probe, t = 1, and gave no certificate; C1 = 128.6
        # never did, and keeps t0's bits.
        if law == "tangent":
            hooke = {"kind": "tangent", "epsilon": 1.0}
            bounds = {"T": 0.02, "C": 400.0, "C_minus": 1.0,
                      "support_box": [-1, 1, -1, 1, edge, 1 - edge, -1, 1]}
        else:
            w = np.linspace(1e-4, 1 - 1e-4, 8)
            np.savetxt(tmp_path / "law.txt", np.column_stack([w, -np.tan(np.pi * (w - 0.5))]))
            hooke = {"kind": "table", "epsilon": 1.0, "table_path": str(tmp_path / "law.txt")}
            bounds = dict(TestConfigSweep.BASE["bounds"])
        cfg = write_config(tmp_path, hooke=hooke, bounds=bounds)
        assert dispatch(["bounds", "--config", str(cfg)]) == EXIT_OK
        cert = json.loads(capsys.readouterr().out)
        assert cert["t0"] == pytest.approx(t0, rel=rel, abs=0.0)
        given = {k: v for k, v in bounds.items() if k not in ("T", "support_box")}
        p = certificate_parameters(RunConfig.from_dict(json.loads(cfg.read_text())).build_model(),
                                   tuple(bounds["support_box"]), **given)
        assert gronwall_constants(p)[0] == pytest.approx(c1, rel=1e-6)
        assert 0.0 < confinement_time(p) == cert["t0"]
        assert displacement_bound(p, p.epsilon, p.R, cert["t0"]) < p.epsilon0 / 4

    @pytest.mark.parametrize("command", ["trajectory", "simulate"])
    def test_bad_control_value(self, tmp_path, capsys, command):
        cfg = write_config(tmp_path, control={"eta_scale": "abc"},
                           trajectory={"seed": {"omega": 0.6}})
        code = dispatch([command, "--config", str(cfg), "--output-dir", str(tmp_path / "out")])
        assert code == EXIT_CONFIG
        assert "control.eta_scale" in capsys.readouterr().err

    @pytest.mark.parametrize("omega", [1.5, 0.0, -0.2])
    def test_trajectory_seed_outside_bond_domain(self, tmp_path, capsys, omega):
        seed = {"x": 0.0, "v": 0.0, "omega": omega, "eta": 0.0}
        cfg = write_config(tmp_path, trajectory={"seed": seed})
        code = dispatch(["trajectory", "--config", str(cfg),
                         "--output-dir", str(tmp_path / "traj")])
        assert code == EXIT_CONFIG
        assert "guarded bond domain" in capsys.readouterr().err

    def test_trajectory_step_underflow(self, tmp_path, capsys):
        # In the domain, but at eta = 1e6 even the step halved ten times
        # needs about 4e5 substeps, past MAX_SUBSTEPS.
        seed = {"x": 0.0, "v": 0.0, "omega": 0.5, "eta": 1e6}
        cfg = write_config(tmp_path, trajectory={"seed": seed},
                           T=0.05, dt_macro=0.01)
        code = dispatch(["trajectory", "--config", str(cfg),
                         "--output-dir", str(tmp_path / "traj")])
        assert code == EXIT_NUMERICAL
        err = capsys.readouterr().err
        assert "blow-up candidate" in err
        assert err.rstrip().endswith("; in the step from t=0.0")

    def test_certify_violation(self, tmp_path, capsys):
        # Wide bonds over T = 1.5 change eta sign.  With every f_minus
        # scaled by C*eps / (C*eps - 0.8), a segment's work exceeds C*eps
        # where it exceeded C*eps - 0.8, and some seeds pass the work bound
        # on their first segment and fail it on a later one, so
        # first_violation is a segment start past 0.
        datum = json.loads(write_config(tmp_path).read_text())["datum"]
        datum["widths"] = {"x": 0.5, "v": 0.3, "omega": 0.3, "eta": 1.5}
        datum["grid"] = [3, 3, 3, 3]
        cfg = write_config(tmp_path, datum=datum, T=1.5, dt_macro=0.05)
        out = tmp_path / "run"
        assert dispatch(["simulate", "--config", str(cfg), "--seed-report",
                         "--output-dir", str(out)]) == EXIT_OK
        cert = json.loads((out / "manifest.json").read_text())["certificate"]
        c_eps = cert["C"] * cert["epsilon"]
        assert c_eps > 0.8
        for aux in out.glob("seed_*_aux.csv"):
            t, fm = np.loadtxt(aux, delimiter=",", skiprows=1, unpack=True)
            write_table(aux, ["t", "f_minus"], [t, fm * (c_eps / (c_eps - 0.8))], end="\n")
        capsys.readouterr()
        assert dispatch(["certify", "--path", str(out)]) == EXIT_VIOLATION
        reports = json.loads(capsys.readouterr().out)
        work = [c["first_violation"] for r in reports for c in r["checks"]
                if c["name"] == "work_bound"]
        assert any(type(f) is int and f > 0 for f in work)
        firsts = [c["first_violation"] for r in reports for c in r["checks"]]
        assert all(f is None or type(f) is int for f in firsts)

    @pytest.mark.parametrize("T, code", [(10.0, EXIT_NUMERICAL), (0.1, EXIT_OK)])
    def test_bounds_without_confinement(self, tmp_path, capsys, T, code):
        # A linear force tabulated on [0.01, 0.99] is a finite well: its
        # potential never reaches the level a long horizon asks for.
        w = np.linspace(0.01, 0.99, 50)
        np.savetxt(tmp_path / "law.txt", np.column_stack([w, -(w - 0.5) * 4.0]))
        cfg = write_config(tmp_path, T=T, hooke={"kind": "table", "epsilon": 1.0,
                                                 "table_path": str(tmp_path / "law.txt")})
        assert dispatch(["bounds", "--config", str(cfg),
                         "--output-dir", str(tmp_path / "bounds")]) == code
        assert ("no confinement interval" in capsys.readouterr().err) == (code != EXIT_OK)

    def test_simulate_seed_violation(self, tmp_path, capsys):
        # At amplitude 40 the field outgrows the bound that c_safety 0.9
        # certifies, so every tracked seed fails the field-norm check.
        datum = json.loads(write_config(tmp_path).read_text())["datum"]
        datum.update(amplitude=40.0, grid=[3, 3, 3, 3])
        cfg = write_config(tmp_path, datum=datum, c_safety=0.9, T=0.1)
        out = tmp_path / "run"
        assert dispatch(["simulate", "--config", str(cfg), "--seed-report",
                         "--output-dir", str(out)]) == EXIT_VIOLATION
        assert "certificate violations among tracked seeds" in capsys.readouterr().err
        reports = json.loads((out / "cert_reports.json").read_text())
        assert reports
        for rep in reports:
            assert [c["name"] for c in rep["checks"] if not c["passed"]] == \
                ["field_norm_precondition"]

    def test_validate_hooke_violation(self, tmp_path, capsys):
        # The tangent law shifted by 0.1 fails H2 (zero at the midpoint)
        # and H3 (odd about it); the shift leaves the table's curvature,
        # so H4 (convex left, concave right) holds on its nodes.
        w = np.linspace(0.01, 0.99, 99)
        np.savetxt(tmp_path / "law.txt",
                   np.column_stack([w, -np.tan(np.pi * (w - 0.5)) + 0.1]))
        cfg = write_config(tmp_path, hooke={"kind": "table", "epsilon": 1.0,
                                            "table_path": str(tmp_path / "law.txt")})
        assert dispatch(["validate-hooke", "--config", str(cfg)]) == EXIT_VIOLATION
        report = json.loads(capsys.readouterr().out)
        assert report["passed"] is False
        assert report["failures"] == ["H2", "H3"]

    @pytest.mark.parametrize("points, flip, code", [
        (8, None, EXIT_OK), (99, None, EXIT_OK), (8, 2, EXIT_VIOLATION), (99, 70, EXIT_VIOLATION),
    ])
    def test_validate_hooke_tangent_table(self, tmp_path, capsys, points, flip, code):
        # The tangent law tabulated on [0.01, 0.99] is valid; with one
        # node's curvature flipped (its value mirrored through its
        # neighbours' chord) it fails H4.
        w = np.linspace(0.01, 0.99, points)
        f = -np.tan(np.pi * (w - 0.5))
        if flip is not None:
            f[flip] = f[flip - 1] + f[flip + 1] - f[flip]
        np.savetxt(tmp_path / "law.txt", np.column_stack([w, f]))
        cfg = write_config(tmp_path, hooke={"kind": "table", "epsilon": 1.0,
                                            "table_path": str(tmp_path / "law.txt")})
        assert dispatch(["validate-hooke", "--config", str(cfg)]) == code
        report = json.loads(capsys.readouterr().out)
        assert report["passed"] is (flip is None)
        assert ("H4" in report["failures"]) is (flip is not None)

    @pytest.mark.parametrize("grid", [7, 2**20 + 1, 10**13])
    def test_validate_hooke_grid_capped(self, tmp_path, capsys, grid):
        # Refused before any array is allocated; unchecked, 10**13
        # ended in numpy's "Unable to allocate 72.8 TiB".
        args = ["validate-hooke", "--config", str(write_config(tmp_path)), "--grid", str(grid)]
        assert dispatch(args) == EXIT_CONFIG
        assert capsys.readouterr().err == f"error: grid_size is {grid}, outside [8, 2**20]\n"

    @pytest.mark.parametrize("row, message", [
        ("0,1e200,0.5,0,1", "row 2, column v is 1e+200, over the cap of 1e+150 in magnitude"),
        ("inf,0,0.5,0,1", "row 2, column x must be finite, got inf"),
    ], ids=["huge", "inf"])
    @pytest.mark.parametrize("command", ["bounds", "simulate"])
    def test_particle_values_capped(self, tmp_path, capsys, command, row, message):
        # Unchecked, the huge speed overflowed E_kin with a warning (exit
        # 0), and the infinite x was blamed on T.
        path = tmp_path / "ens.csv"
        path.write_text(f"x,v,omega,eta,w\n0,0,0.5,0,1\n{row}\n")
        cfg = write_config(tmp_path, datum={"kind": "particles", "path": str(path)})
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert dispatch([command, "--config", str(cfg),
                             "--output-dir", str(tmp_path / "out")]) == EXIT_CONFIG
        assert not caught
        assert capsys.readouterr().err == f"config error: datum.path {str(path)!r}: {message}\n"

    @pytest.mark.parametrize("command", ["bounds", "simulate"])
    def test_excursion_level_names_its_keys(self, tmp_path, capsys, command):
        # The level eps*C + I_M that C asks for lies past the potential
        # this table reaches at its last node.
        w = np.linspace(0.01, 0.99, 99)
        np.savetxt(tmp_path / "law.txt", np.column_stack([w, -np.tan(np.pi * (w - 0.5))]))
        datum = json.loads(write_config(tmp_path).read_text())["datum"]
        datum["widths"]["eta"] = 1.0
        datum.update(amplitude=32.0, grid=[8, 8, 8, 8])
        cfg = write_config(tmp_path, datum=datum, hooke={
            "kind": "table", "epsilon": 1.0, "table_path": str(tmp_path / "law.txt")})
        assert dispatch([command, "--config", str(cfg),
                         "--output-dir", str(tmp_path / "out")]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error: C = ")
        assert (", from c_safety and the datum's mass, has no certificate under the table "
                "bond law on omega [0.01, 0.99]: potential never reaches the excursion "
                "level: level ") in err

    @pytest.mark.parametrize("over, extra, command, needle", [
        ({}, ["--set", "T"], "bounds", "--set expects key=value, got 'T'"),
        ({"hooke": None}, [], "bounds", "config needs a 'hooke' section"),
        ({"datum": {"kind": "particles", "path": "ens.csv"}}, [], "picard",
         "picard runs need a bump datum"),
    ], ids=["set-without-equals", "no-hooke", "picard-particles"])
    def test_invocation_faults(self, tmp_path, monkeypatch, capsys, over, extra, command,
                               needle):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "ens.csv").write_text("x,v,omega,eta,w\n0,0,0.5,0,1\n")
        raw = json.loads(write_config(tmp_path, **over).read_text())
        raw = {k: v for k, v in raw.items() if v is not None}
        (tmp_path / "config.json").write_text(json.dumps(raw))
        assert dispatch([command, "--config", "config.json"] + extra) == EXIT_CONFIG
        assert capsys.readouterr().err == f"config error: {needle}\n"

    @pytest.mark.parametrize("text, needle", [
        ("{not json", "cannot read run manifest"),
        ('{"certificate": {"a": 1}}', "balance"),
        ('{"config": {"hooke": {}}, "certificate": null}', "has no certificate"),
    ], ids=["not-json", "no-balance", "no-certificate"])
    def test_certify_unreadable_manifest(self, tmp_path, capsys, text, needle):
        (tmp_path / "manifest.json").write_text(text)
        assert dispatch(["certify", "--path", str(tmp_path)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert needle in err and "manifest.json" in err

    def test_config_not_an_object(self, tmp_path, capsys):
        cfg = tmp_path / "config.json"
        cfg.write_text("[1, 2]")
        code = dispatch(["bounds", "--config", str(cfg), "--set", "T=1"])
        assert code == EXIT_CONFIG
        assert "config.json" in capsys.readouterr().err

    @pytest.mark.parametrize("section, name, text", [
        ("datum", "bad.csv", "x,v,omega,eta,w\n0,0,zz,0,1\n"),
        ("hooke", "law.txt", "0.1 two\n"),
        pytest.param("hooke", "law.txt", "", id="law-empty"),
        pytest.param("hooke", "law.txt", "# omega force\n\n# no rows\n", id="law-comments"),
        pytest.param("hooke", "law.txt",
                     "".join(f"{w} {0.5 - w} 0\n" for w in (0.1, 0.3, 0.5, 0.7, 0.9)),
                     id="law-3-columns"),
        pytest.param("hooke", "law.txt", "0.5 0\n", id="law-one-row"),  # too short for a law
        pytest.param("hooke", "law.txt",
                     "".join(f"{w} {0.5 - w}\n" for w in (0.0, 0.3, 0.5, 0.7, 0.9)),
                     id="law-outside-domain"),  # omega = 0 is a wall
        # A headed table must start with its header: without one, the first
        # particle would be taken for it.
        pytest.param("datum", "ens.csv", "0,0,0.5,0,1\n0.1,0,0.5,0,1\n", id="particles-headerless"),
        pytest.param("datum", "ens.csv", "a,b,c,d,e\n0,0,0.5,0,1\n", id="particles-misnamed"),
    ])
    def test_unparseable_input_file(self, tmp_path, capsys, section, name, text):
        # numpy only warns on a file with no rows: that warning must not
        # be the report.
        path = tmp_path / name
        path.write_text(text)
        spec = ({"kind": "particles", "path": str(path)} if section == "datum"
                else {"kind": "table", "epsilon": 1.0, "table_path": str(path)})
        cfg = write_config(tmp_path, **{section: spec})
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert dispatch(["bounds", "--config", str(cfg)]) == EXIT_CONFIG
        assert not caught
        assert name in capsys.readouterr().err

    @pytest.mark.parametrize("name, text", [
        ("seed_001_path.csv", "t,x,v,omega,eta\r\n0,1,two,0.5,0\r\n"),
        ("seed_001_aux.csv", "t,f_minus\n0,0\n"),  # fewer rows than the path
        ("max_field_norm.json", None),  # deleted: no norm to replay the paths with
        ("seed_001_path.csv", "t,x,v,omega,eta\r\n"),
        ("seed_001_aux.csv", "t,f_minus\n"),
        ("seed_001_path.csv", "t,x,v,omega,eta\r\n0,0,0,0.5\r\n"),
        # The run's own rows under a header that names another column.
        ("seed_001_path.csv", lambda old: old.replace(b"t,x,v,omega,eta", b"t,x,v,omega,w", 1)),
        ("max_field_norm.json", '{"max_field_norm": "large"}'),
        # As many rows as the path, but each f_minus paired with another time.
        ("seed_001_aux.csv", roll_aux_times),
    ], ids=["unparseable-path", "short-aux", "no-field-norm", "header-only-path",
            "header-only-aux", "narrow-path", "misnamed-path", "malformed-field-norm",
            "shifted-aux-times"])
    def test_certify_bad_seed_file(self, tmp_path, capsys, name, text):
        datum = json.loads(write_config(tmp_path).read_text())["datum"]
        datum["grid"] = [3, 3, 3, 3]
        cfg = write_config(tmp_path, datum=datum, T=0.02, tracked_interior=0)
        out = tmp_path / "run"
        assert dispatch(["simulate", "--config", str(cfg), "--seed-report",
                         "--output-dir", str(out)]) == EXIT_OK
        if text is None:
            (out / name).unlink()
        elif callable(text):
            (out / name).write_bytes(text((out / name).read_bytes()))
        else:
            (out / name).write_text(text)
        capsys.readouterr()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert dispatch(["certify", "--path", str(out)]) == EXIT_CONFIG
        assert not caught
        assert name in capsys.readouterr().err

    @pytest.mark.parametrize("command, over, key", [
        ("simulate", {"T": 1e308}, "T/dt_macro"),
        ("simulate", {"T": math.inf}, "T"),
        ("picard", {"T": 1e308}, "T/dt_macro"),
        ("picard", {"T": math.inf}, "T"),
        ("simulate", {"control": {"dt": math.inf}}, "control.dt"),
        ("trajectory", {"trajectory": {"seed": {"omega": 0.6}, "T": 1e308}}, "trajectory.T/dt"),
        ("trajectory", {"trajectory": {"seed": {"omega": 0.6}, "T": math.inf}}, "trajectory.T"),
        ("trajectory", {"trajectory": {"seed": {"omega": 0.6}, "T": math.nan}}, "trajectory.T"),
        ("trajectory", {"trajectory": {"seed": {"omega": 0.6}, "dt": math.inf}}, "trajectory.dt"),
    ], ids=["simulate-T-huge", "simulate-T-inf", "picard-T-huge", "picard-T-inf",
            "control-dt-inf", "trajectory-T-huge", "trajectory-T-inf", "trajectory-T-nan",
            "trajectory-dt-inf"])
    def test_time_inputs_finite_and_capped(self, tmp_path, capsys, command, over, key):
        # Unchecked, these end in a traceback (math.ceil of an infinite step
        # count) or, for control.dt = inf, in one step per macro step.
        cfg = write_config(tmp_path, **over)
        assert dispatch([command, "--config", str(cfg),
                         "--output-dir", str(tmp_path / "out")]) == EXIT_CONFIG
        assert f"config error: {key} " in capsys.readouterr().err

    @pytest.mark.parametrize("val", [2**30 + 1, 10**30])
    @pytest.mark.parametrize("command, key", [
        ("simulate", "tracked_interior"), ("picard", "probe_grid"), ("simulate", "detj_seeds"),
    ])
    def test_sobol_sizes_capped(self, tmp_path, capsys, val, command, key):
        # Past 2**30 points sobol_box raised a ValueError out of dispatch;
        # the load check rejects them before anything is allocated (at the
        # cap itself, sobol_box would allocate 16 GiB).
        cfg = write_config(tmp_path, **{key: val, "detj_every": 1})
        assert dispatch([command, "--config", str(cfg),
                         "--output-dir", str(tmp_path / "out")]) == EXIT_CONFIG
        assert f"config error: {key} is {val}, over the cap of 2**30 Sobol points" in \
            capsys.readouterr().err

    def test_tracked_boundary_at_most_the_corners(self, tmp_path, capsys):
        # The support box has 16 corners: a larger value would be cut to 16
        # without a word.
        for val, code in ((17, EXIT_CONFIG), (16, EXIT_OK)):
            cfg = write_config(tmp_path, T=0.02, tracked_boundary=val, tracked_interior=0)
            assert dispatch(["simulate", "--config", str(cfg),
                             "--output-dir", str(tmp_path / "out")]) == code
        assert "config error: tracked_boundary is 17, over the 16 corners" in \
            capsys.readouterr().err

    @pytest.mark.parametrize("bounds, key", [
        ({"T": math.inf}, "bounds.T"),
        ({"T": 1e308}, "bounds.T"),
        ({"T": 1e200}, "bounds.T"),
        ({"T": math.nan}, "bounds.T"),
        ({"T": -1.0}, "bounds.T"),
        ({"C_minus": math.inf}, "bounds.C_minus"),
        ({"R": math.inf}, "bounds.R"),
        ({"support_box": [-1, 1, -1, math.inf, 0.4, 0.6, -1, 1], "C_minus": 1.0, "C": 3.0},
         "bounds.support_box"),
    ], ids=["T-inf", "T-1e308", "T-1e200", "T-nan", "T-negative", "C_minus-inf", "R-inf",
            "support_box-inf"])
    def test_bounds_numbers_finite(self, tmp_path, capsys, bounds, key):
        # Unchecked, these print a certificate holding Infinity (exit 0),
        # raise OverflowError (T = 1e200), fail as numerical (T = NaN) or
        # go unnamed (T = -1).
        datum = json.loads(write_config(tmp_path).read_text())["datum"]
        datum["grid"] = [3, 3, 3, 3]
        cfg = write_config(tmp_path, datum=datum, bounds=bounds)
        assert dispatch(["bounds", "--config", str(cfg)]) == EXIT_CONFIG
        assert f"config error: {key} " in capsys.readouterr().err

    @pytest.mark.parametrize("T", [1e160, 1e308])
    def test_simulate_certificate_overflow(self, tmp_path, capsys, T):
        # Two macro steps pass the step cap; unchecked, the certificate's
        # OverflowError escapes dispatch.
        datum = json.loads(write_config(tmp_path).read_text())["datum"]
        datum["grid"] = [2, 2, 2, 2]
        cfg = write_config(tmp_path, datum=datum, T=T, dt_macro=T / 2, control={"dt": T / 2})
        assert dispatch(["simulate", "--config", str(cfg),
                         "--output-dir", str(tmp_path / "run")]) == EXIT_CONFIG
        assert "config error: T = " in capsys.readouterr().err

    @pytest.mark.parametrize("slack", ["inf", "nan", "-1e-3"])
    def test_certify_slack_finite_and_nonnegative(self, tmp_path, capsys, slack):
        # Unchecked, infinite slack passes every seed report.
        datum = json.loads(write_config(tmp_path).read_text())["datum"]
        datum["grid"] = [3, 3, 3, 3]
        out = tmp_path / "run"
        assert dispatch(["simulate", "--config", str(write_config(tmp_path, datum=datum, T=0.02)),
                         "--seed-report", "--output-dir", str(out)]) == EXIT_OK
        capsys.readouterr()
        assert dispatch(["certify", "--path", str(out), f"--slack={slack}"]) == EXIT_CONFIG
        assert "--slack must be finite and >= 0" in capsys.readouterr().err

    def test_certify_checks_the_run_control(self, tmp_path, capsys):
        # The replay loads the run's config, so it checks the event
        # tolerance as the run did.
        datum = json.loads(write_config(tmp_path).read_text())["datum"]
        datum["grid"] = [3, 3, 3, 3]
        out = tmp_path / "run"
        assert dispatch(["simulate", "--config", str(write_config(tmp_path, datum=datum, T=0.02)),
                         "--seed-report", "--output-dir", str(out)]) == EXIT_OK
        manifest = json.loads((out / "manifest.json").read_text())
        manifest["config"]["control"]["event_eta_tol"] = math.nan
        (out / "manifest.json").write_text(json.dumps(manifest))
        capsys.readouterr()
        assert dispatch(["certify", "--path", str(out)]) == EXIT_CONFIG
        assert "control.event_eta_tol must be finite" in capsys.readouterr().err

    def test_certify_without_seeds(self, tmp_path, capsys):
        # A run without --seed-report has no seed paths and no field norm:
        # there is nothing to replay.
        datum = json.loads(write_config(tmp_path).read_text())["datum"]
        datum["grid"] = [3, 3, 3, 3]
        out = tmp_path / "run"
        assert dispatch(["simulate", "--config", str(write_config(tmp_path, datum=datum, T=0.02)),
                         "--output-dir", str(out)]) == EXIT_OK
        assert not (out / "max_field_norm.json").exists()
        capsys.readouterr()
        assert dispatch(["certify", "--path", str(out)]) == EXIT_OK
        assert json.loads(capsys.readouterr().out) == []


class TestConfigSweep:
    """Every leaf and section of a smoke config, set to each of a fixed set
    of bad values, ends in an exit code under each command that reads it,
    never in a traceback."""

    BASE = {
        "hooke": {"kind": "tangent", "epsilon": 1.0},
        "datum": {"kind": "bumps",
                  "centers": {"x": 0.0, "v": 0.0, "omega": 0.5, "eta": 0.0},
                  "widths": {"x": 0.5, "v": 0.3, "omega": 0.08, "eta": 0.3},
                  "amplitude": 4.0, "grid": [2, 2, 2, 2],
                  "box": {"x": [-0.5, 0.5], "v": [-0.3, 0.3], "omega": [0.42, 0.58],
                          "eta": [-0.3, 0.3]}},
        "T": 0.02, "dt_macro": 0.02,
        "control": {"dt": 0.02, "eta_scale": 0.25, "event_eta_tol": 1e-7},
        "tracked_boundary": 1, "tracked_interior": 1, "n_max": 2, "probe_grid": 8,
        "c_safety": 1.5, "snapshot_every": 1, "picard_tol": 0.0,
        "continuation_margin": 0.01, "detj_seeds": 1, "detj_every": 1, "output_dir": "out",
        "trajectory": {"seed": {"x": 0.0, "v": 0.0, "omega": 0.6, "eta": 0.1},
                       "T": 0.02, "dt": 0.02,
                       "field": {"kind": "constant", "f_plus": 0.1, "f_minus": 0.1},
                       "balance_level": 2.0},
        "bounds": {"T": 0.02, "C": 3.0, "C_minus": 1.0, "R": 1.0, "epsilon0": 0.1,
                   "support_box": [-1, 1, -1, 1, 0.4, 0.6, -1, 1]},
    }
    # Sizes allocate or run long rather than fail, so they stay out.
    SIZES = {("datum", "grid"), ("probe_grid",), ("tracked_boundary",),
             ("tracked_interior",), ("n_max",)}
    BAD = [None, [], {}, "x", -1, 0, 1.5, True, math.nan, 1e308, [1, 2], {"a": 1}]
    COMMANDS = ("simulate", "bounds", "picard", "trajectory")
    # The commands that read each top-level key beyond the load check,
    # which every command runs; the rest are read by all four.
    READERS = {"datum": ("simulate", "bounds", "picard"), "dt_macro": ("simulate", "picard"),
               "control": ("simulate", "picard", "trajectory"),
               "c_safety": ("simulate", "bounds"), "snapshot_every": ("simulate",),
               "continuation_margin": ("simulate",), "detj_seeds": ("simulate",),
               "detj_every": ("simulate",), "picard_tol": ("picard",),
               "trajectory": ("trajectory",), "bounds": ("bounds",)}

    @classmethod
    def keys(cls, node, path=()):
        """Key paths of every section and leaf under ``node``."""
        if path and path not in cls.SIZES:
            yield path
        if isinstance(node, dict):
            for key, val in node.items():
                yield from cls.keys(val, path + (key,))

    @classmethod
    def sweeps(cls, tmp_path):
        """(config, key paths to sweep in it): BASE with all its keys, and
        its table-law and particle-datum variants with their path keys."""
        # Nodes close enough to the walls that the table's potential
        # reaches the level the bounds section's C asks for.
        w = np.linspace(1e-3, 1 - 1e-3, 8)
        np.savetxt(tmp_path / "law.txt", np.column_stack([w, -np.tan(np.pi * (w - 0.5))]))
        (tmp_path / "ens.csv").write_text("x,v,omega,eta,w\n0,0.1,0.45,0.2,1\n"
                                          "0.3,-0.2,0.55,-0.1,2\n")
        table = {"kind": "table", "epsilon": 1.0, "table_path": str(tmp_path / "law.txt")}
        particles = {"kind": "particles", "path": str(tmp_path / "ens.csv")}
        return [(cls.BASE, list(cls.keys(cls.BASE))),
                (dict(cls.BASE, hooke=table), [("hooke", "table_path")]),
                (dict(cls.BASE, datum=particles), [("datum", "path")])]

    def test_sweep_holds_every_key(self, tmp_path, monkeypatch, capsys):
        # A key missing here would go unswept; each config runs clean, so
        # in the sweep the bad value is the only fault.
        monkeypatch.chdir(tmp_path)
        configs = [cfg for cfg, _ in self.sweeps(tmp_path)]
        assert set().union(*configs) == {f.name for f in fields(RunConfig)}
        sections = {("hooke",): simulator._HOOKE_KEYS, ("datum",): simulator._DATUM_KEYS,
                    ("control",): simulator._CONTROL_KEYS,
                    ("trajectory",): simulator._TRAJECTORY_KEYS,
                    ("bounds",): simulator._BOUNDS_KEYS,
                    ("trajectory", "seed"): simulator._AXES,
                    ("trajectory", "field"): simulator._FIELD_KEYS,
                    ("datum", "centers"): simulator._AXES, ("datum", "widths"): simulator._AXES,
                    ("datum", "box"): simulator._AXES}
        for section, allowed in sections.items():
            held = set()
            for cfg in configs:
                for key in section:
                    cfg = cfg.get(key, {})
                held |= set(cfg)
            assert held == set(allowed), section
        for i, cfg in enumerate(configs):
            path = tmp_path / f"config{i}.json"
            path.write_text(json.dumps(cfg))
            for command in self.COMMANDS:
                if command != "picard" or cfg["datum"]["kind"] == "bumps":
                    assert dispatch([command, "--config", str(path)]) == EXIT_OK, (i, command)

    def test_every_bad_value_exits(self, tmp_path, monkeypatch, capsys):
        # One parser serves every call: building it is most of a call's
        # time when the config is rejected.  Outputs go to output_dir,
        # under tmp_path.
        parser = cli.build_parser()
        monkeypatch.setattr(cli, "build_parser", lambda: parser)
        monkeypatch.chdir(tmp_path)
        cfg = tmp_path / "config.json"
        escaped, calls = [], 0
        for base, swept in self.sweeps(tmp_path):
            for keys in swept:
                for val in self.BAD:
                    raw = json.loads(json.dumps(base))
                    node = raw
                    for key in keys[:-1]:
                        node = node[key]
                    node[keys[-1]] = val
                    cfg.write_text(json.dumps(raw))
                    for command in self.READERS.get(keys[0], self.COMMANDS):
                        calls += 1
                        try:
                            code = dispatch([command, "--config", str(cfg)])
                        except Exception as exc:  # a traceback: the finding itself
                            code = repr(exc)
                        if code not in (EXIT_OK, EXIT_CONFIG, EXIT_NUMERICAL, EXIT_VIOLATION):
                            escaped.append((".".join(keys), val, command, code))
                    capsys.readouterr()
        assert calls > 1000 and escaped == []

    @pytest.mark.parametrize("command, keys", [
        ("picard", ("datum", "amplitude")),
        ("trajectory", ("trajectory", "seed", "eta")),
        ("trajectory", ("trajectory", "field", "f_minus")),
    ], ids=["amplitude", "seed-eta", "field-f_minus"])
    def test_huge_values_exit_naming_the_key(self, tmp_path, capsys, command, keys):
        # At the cap the run ends in a step underflow with no overflow
        # warning (any warning fails the suite); past it, the key is
        # rejected at load.
        cfg = tmp_path / "config.json"
        for val in (MAX_MAGNITUDE, math.nextafter(MAX_MAGNITUDE, math.inf), 1e308):
            raw = json.loads(json.dumps(self.BASE))
            node = raw
            for key in keys[:-1]:
                node = node[key]
            node[keys[-1]] = val
            cfg.write_text(json.dumps(raw))
            code = dispatch([command, "--config", str(cfg), "--output-dir", str(tmp_path / "out")])
            err = capsys.readouterr().err
            if val == MAX_MAGNITUDE:
                assert code == EXIT_NUMERICAL and "step underflow" in err
            else:
                assert code == EXIT_CONFIG
                assert f"config error: {'.'.join(keys)} is {val!r}, over the cap" in err


class TestSubcommands:
    def test_trajectory_needs_no_datum(self, tmp_path, capsys):
        seed = {"x": 0.0, "v": 0.0, "omega": 0.6, "eta": 0.1}
        cfg = write_config(tmp_path, datum=None, trajectory={"seed": seed, "T": 0.1})
        out = tmp_path / "traj"
        assert dispatch(["trajectory", "--config", str(cfg),
                         "--output-dir", str(out)]) == EXIT_OK
        assert (out / "path.csv").exists()

    def test_trajectory_path_reloads_exactly(self, tmp_path, capsys):
        seed = {"x": 0.1, "v": -0.2, "omega": 0.3, "eta": 1.5}
        cfg = write_config(tmp_path, trajectory={"seed": seed, "T": 0.5, "dt": 0.01})
        out = tmp_path / "traj"
        assert dispatch(["trajectory", "--config", str(cfg),
                         "--output-dir", str(out)]) == EXIT_OK
        ref = integrate(ParticleState(**seed), zero_field(), tangent_model(1.0),
                        0.0, 0.5, StepControl(dt=0.01))
        data = np.loadtxt(out / "path.csv", delimiter=",", skiprows=1, ndmin=2)
        assert data.shape == (len(ref), 5)
        for j, name in enumerate(("t", "x", "v", "omega", "eta")):
            np.testing.assert_array_equal(data[:, j], getattr(ref, name))
        assert (out / "events.csv").exists()

    def test_trajectory_balance_level(self, tmp_path, capsys):
        seed = {"omega": 0.7, "eta": 0.3}
        cfg = write_config(tmp_path, control={}, trajectory={
            "seed": seed, "T": 1.0, "dt": 1e-3, "balance_level": 0.8,
            "field": {"kind": "constant", "f_minus": 0.5}})
        out = tmp_path / "traj"
        assert dispatch(["trajectory", "--config", str(cfg),
                         "--output-dir", str(out)]) == EXIT_OK
        model = tangent_model(1.0)
        ref = integrate(ParticleState(0.0, 0.0, 0.7, 0.3), ConstantField(0.0, 0.5), model,
                        0.0, 1.0, StepControl(dt=1e-3), balance=balance_points(model, 0.8))
        with open(out / "events.csv", newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        assert [r[1] for r in rows] == ["exit", "stopping", "return"]
        assert [(float(t), kind, float(om), float(eta)) for t, kind, om, eta in rows] == \
            [(e.time, e.kind.value, e.state.omega, e.state.eta) for e in ref.events]

    @pytest.mark.parametrize("dt", [None, 1e-3])
    def test_trajectory_takes_the_control_section(self, tmp_path, capsys, dt):
        # trajectory.dt, when given, overrides control.dt; every other
        # control key applies as in simulate.
        control = {"dt": 2e-3, "eta_scale": 1e-4, "event_eta_tol": 0.05}
        spec = {"seed": {"omega": 0.7, "eta": 0.3}, "T": 1.0, "balance_level": 0.8,
                "field": {"kind": "constant", "f_minus": 0.5}}
        if dt is not None:
            spec["dt"] = dt
        cfg = write_config(tmp_path, control=control, trajectory=spec)
        out = tmp_path / "traj"
        assert dispatch(["trajectory", "--config", str(cfg),
                         "--output-dir", str(out)]) == EXIT_OK
        model = tangent_model(1.0)
        ref = integrate(ParticleState(0.0, 0.0, 0.7, 0.3), ConstantField(0.0, 0.5), model,
                        0.0, 1.0, StepControl(**{**control, "dt": dt or control["dt"]}),
                        balance=balance_points(model, 0.8))
        assert ref.events
        ref.dump_csv(tmp_path / "path.csv")
        ref.dump_events_csv(tmp_path / "events.csv")
        for name in ("path.csv", "events.csv"):
            assert (out / name).read_bytes() == (tmp_path / name).read_bytes(), name

    def test_config_commands_have_handlers(self):
        # Every subcommand but certify reads a config and runs its handler
        # in cli.COMMANDS; argparse rejects any other command.
        parser = cli.build_parser()
        sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        assert set(sub.choices) - {"certify"} == set(cli.COMMANDS)

    def test_simulate_names_the_first_continuation_failure(self, tmp_path, capsys, monkeypatch):
        # A valid certificate lets no real run fail, so the check is made
        # to fail from the second macro step on.
        cfg = str(write_config(tmp_path, T=0.03, tracked_interior=0))
        assert dispatch(["simulate", "--config", cfg, "--output-dir", str(tmp_path)]) == EXIT_OK
        assert capsys.readouterr().out.endswith("; continuation failures: 0\n")
        real = simulator.check_continuation

        def failing(diag, cert, margin):
            return (simulator.ContinuationStatus.FAIL, "x_upper") if diag.time > 0.005 \
                else real(diag, cert, margin)

        monkeypatch.setattr(simulator, "check_continuation", failing)
        assert dispatch(["simulate", "--config", cfg, "--output-dir", str(tmp_path)]) == EXIT_OK
        assert capsys.readouterr().out.endswith(
            "; continuation failures: 3 (first at t=0.01, x_upper)\n")

    def test_bounds_writes_certificate(self, tmp_path, capsys):
        out = tmp_path / "bounds"
        assert dispatch(["bounds", "--config", str(write_config(tmp_path)),
                         "--output-dir", str(out)]) == EXIT_OK
        cert = json.loads((out / "certificate.json").read_text())
        assert json.loads(capsys.readouterr().out) == cert

    @pytest.mark.parametrize("over", [{}, {"c_safety": 40.0}])
    def test_bounds_equals_simulate_certificate(self, tmp_path, capsys, over):
        # The same parameters from the same support box, whichever
        # subcommand derives them.
        cfg = write_config(tmp_path, T=0.05, tracked_boundary=0, tracked_interior=0, **over)
        assert dispatch(["bounds", "--config", str(cfg)]) == EXIT_OK
        printed = json.loads(capsys.readouterr().out)
        out = tmp_path / "run"
        assert dispatch(["simulate", "--config", str(cfg), "--output-dir", str(out)]) == EXIT_OK
        assert printed == json.loads((out / "manifest.json").read_text())["certificate"]

    @pytest.mark.parametrize("args", [["bounds"], ["simulate", "--seed-report"]],
                             ids=["bounds", "simulate"])
    def test_table_model_end_to_end(self, tmp_path, capsys, args):
        # The tangent law tabulated on [0.01, 0.99]: the balance points and
        # the runs stay inside the tabulated hull.
        w = np.linspace(0.01, 0.99, 8)
        np.savetxt(tmp_path / "law.txt", np.column_stack([w, -np.tan(np.pi * (w - 0.5))]))
        datum = json.loads(write_config(tmp_path).read_text())["datum"]
        datum["grid"] = [3, 3, 3, 3]
        cfg = write_config(tmp_path, datum=datum, T=0.02, tracked_interior=0,
                           hooke={"kind": "table", "epsilon": 1.0,
                                  "table_path": str(tmp_path / "law.txt")})
        out = tmp_path / "out"
        code = dispatch([args[0], "--config", str(cfg), "--output-dir", str(out)] + args[1:])
        assert code == EXIT_OK, capsys.readouterr().err

    def test_validate_hooke_tangent(self, tmp_path, capsys):
        assert dispatch(["validate-hooke", "--config", str(write_config(tmp_path)),
                         "--grid", "256"]) == EXIT_OK
        assert json.loads(capsys.readouterr().out)["passed"] is True

    def test_picard_writes_iteration_log(self, tmp_path, capsys):
        datum = json.loads(write_config(tmp_path).read_text())["datum"]
        datum["grid"] = [3, 3, 3, 3]
        cfg = write_config(tmp_path, datum=datum, T=0.05, dt_macro=0.01,
                           n_max=2, probe_grid=16)
        out = tmp_path / "picard"
        assert dispatch(["picard", "--config", str(cfg),
                         "--output-dir", str(out)]) == EXIT_OK
        rows = (out / "iteration_log.csv").read_text().splitlines()
        assert len(rows) >= 2


    def test_picard_distances_and_fixed_point_stop(self, tmp_path, capsys, monkeypatch):
        from diatomic_vlasov import picard

        datum = json.loads(write_config(tmp_path).read_text())["datum"]
        datum["grid"] = [3, 3, 3, 3]
        cfg = write_config(tmp_path, datum=datum, T=0.025, dt_macro=0.0025,
                           control={"dt": 0.0025}, n_max=5, probe_grid=64)
        pushes = []
        push = picard._push_collect
        monkeypatch.setattr(picard, "_push_collect",
                            lambda *a, **k: pushes.append(1) or push(*a, **k))

        def picard_run(name):
            out = tmp_path / name
            assert dispatch(["picard", "--config", str(cfg),
                             "--output-dir", str(out)]) == EXIT_OK
            return out, capsys.readouterr().out

        fast, fast_stdout = picard_run("fast")
        n_fast = len(pushes)
        assert 0 < n_fast < 5  # the stop fired
        rows = (fast / "iteration_distances.csv").read_text().splitlines()
        assert rows[0] == "n,z_dist,field_w1"
        assert [r.split(",")[0] for r in rows[1:]] == ["1", "2", "3", "4", "5"]
        assert rows[-1] == "5,0,0"

        # No snapshot comparison holds: no stop, every push from t = 0.
        monkeypatch.setattr(FieldSnapshot, "same_field", lambda self, other: False)
        full, full_stdout = picard_run("full")
        assert len(pushes) - n_fast == 5
        for name in ("iteration_log.csv", "iteration_distances.csv"):
            assert (fast / name).read_bytes() == (full / name).read_bytes()
        assert fast_stdout == full_stdout

    def test_one_substep_screen_changes_no_output(self, tmp_path, capsys, monkeypatch):
        # A 3^4 seed-report run whose bonds reach the walls (the screen
        # clears some rows and leaves the others to the full wall count)
        # and a 3^4 picard run near the midpoint (every row clears) write
        # the same bytes with the screen switched off.
        from diatomic_vlasov import trajectory

        datum = json.loads(write_config(tmp_path).read_text())["datum"]
        datum["grid"] = [3, 3, 3, 3]
        wide = dict(datum, widths={"x": 0.5, "v": 0.3, "omega": 0.49, "eta": 2.5})
        runs = {"simulate": (dict(datum=wide, T=0.5), ["--seed-report"]),
                "picard": (dict(datum=datum, T=0.05, n_max=3, probe_grid=64), [])}
        rows = {"all": 0, "counted": 0}
        batch, wall = trajectory._substeps_batch, trajectory._wall_substeps

        def substeps(model, om, *args):
            rows["all"] += om.size
            return batch(model, om, *args)

        def counted(model, om, *args):
            rows["counted"] += om.size
            return wall(model, om, *args)

        for command, (over, flags) in runs.items():
            (tmp_path / command).mkdir()
            cfg = write_config(tmp_path / command, **over)
            outputs = []
            for screen in (True, False):
                monkeypatch.setattr(trajectory, "_substeps_batch", substeps)
                monkeypatch.setattr(trajectory, "_wall_substeps", counted)
                if not screen:
                    monkeypatch.setattr(trajectory, "_one_substep_threshold",
                                        lambda eps, dt: None)
                out = tmp_path / command / f"screen_{screen}"
                assert dispatch([command, "--config", str(cfg), *flags,
                                 "--output-dir", str(out)]) == EXIT_OK
                monkeypatch.undo()
                files = {p.relative_to(out): p.read_bytes()
                         for p in sorted(out.rglob("*")) if p.is_file()}
                outputs.append((files, capsys.readouterr().out))
                if screen:
                    cleared = rows["all"] - rows["counted"]
                    assert 0 < cleared <= rows["all"]
                    assert (cleared < rows["all"]) == (command == "simulate")
                rows.update(all=0, counted=0)
            assert outputs[0][0] and outputs[0][1]
            assert outputs[0] == outputs[1]


class TestSnapshotFiles:
    def simulate(self, tmp_path, snapshot_every):
        cfg = write_config(tmp_path, T=0.1, snapshot_every=snapshot_every,
                           tracked_boundary=0, tracked_interior=0)
        out = tmp_path / f"every{snapshot_every}"
        assert dispatch(["simulate", "--config", str(cfg),
                         "--output-dir", str(out)]) == EXIT_OK
        return out, (out / "ensemble_final.csv").read_bytes()

    def test_final_snapshot_equals_final_ensemble(self, tmp_path, capsys):
        out, final = self.simulate(tmp_path, 5)  # 10 steps: snapshots 0, 5, 10
        names = sorted(p.name for p in out.glob("ensemble_0*.csv"))
        assert names == ["ensemble_000000.csv", "ensemble_000005.csv",
                         "ensemble_000010.csv"]
        assert (out / "ensemble_000010.csv").read_bytes() == final

    def test_no_snapshot_copies_final_when_not_dividing(self, tmp_path, capsys):
        out, final = self.simulate(tmp_path, 3)  # snapshots 0, 3, 6, 9
        snaps = sorted(out.glob("ensemble_0*.csv"))
        assert [p.name for p in snaps][-1] == "ensemble_000009.csv"
        assert all(p.read_bytes() != final for p in snaps)


# Runs CLI argument lists through ``dispatch`` in a fresh interpreter and
# prints their exit codes and the scipy modules then loaded, as JSON.
_DISPATCH_SCRIPT = """
import contextlib, io, json, sys
from diatomic_vlasov.cli import dispatch
with contextlib.redirect_stdout(io.StringIO()):
    codes = [dispatch(argv) for argv in json.loads(sys.argv[1])]
print(json.dumps({"codes": codes,
                  "scipy": sorted(m for m in sys.modules if m.split(".")[0] == "scipy")}))
"""


# Builds a custom callable law (linear force, potential (w - 1/2)**2 / 2),
# takes potentials and an inverse, and prints the inverse and the scipy
# modules then loaded, as JSON.
_CUSTOM_LAW_SCRIPT = """
import json, sys
import numpy as np
from diatomic_vlasov import Branch, custom_model, inverse_potential, potential_to_midpoint
law = custom_model(1.0, lambda w: 0.5 - w, lambda w: 0.5 * w - 0.5 * w * w)
potential_to_midpoint(law, np.array([0.2, 0.7]))
print(json.dumps({"x": inverse_potential(law, 0.02, Branch.RIGHT),
                  "scipy": sorted(m for m in sys.modules if m.split(".")[0] == "scipy")}))
"""


def run_fresh(script, *args):
    """The JSON that ``script`` prints, run in a fresh interpreter."""
    src = str(Path(diatomic_vlasov.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", script, *args],
                          capture_output=True, text=True, env=env, check=True)
    return json.loads(done.stdout)


def dispatch_fresh(argvs):
    return run_fresh(_DISPATCH_SCRIPT, json.dumps(argvs))


class TestDefaultPathImports:
    """The tangent-law path and custom callable laws run on numpy alone;
    scipy loads only for table force laws.  Reads module names, not
    timings."""

    def test_tangent_law_subcommands_load_no_scipy(self, tmp_path):
        datum = json.loads(write_config(tmp_path).read_text())["datum"]
        datum["grid"] = [3, 3, 3, 3]
        cfg = str(write_config(tmp_path, datum=datum, T=0.02, tracked_boundary=4,
                               tracked_interior=4, n_max=2, probe_grid=16,
                               trajectory={"seed": {"omega": 0.6, "eta": 0.1}, "T": 0.05}))
        run = str(tmp_path / "run")
        got = dispatch_fresh([
            ["simulate", "--config", cfg, "--seed-report", "--output-dir", run],
            ["picard", "--config", cfg, "--output-dir", str(tmp_path / "picard")],
            ["bounds", "--config", cfg],
            ["trajectory", "--config", cfg, "--output-dir", str(tmp_path / "traj")],
            ["validate-hooke", "--config", cfg, "--grid", "64"],
            ["certify", "--path", run],
        ])
        assert got == {"codes": [EXIT_OK] * 6, "scipy": []}

    def test_table_model_still_loads_scipy(self, tmp_path):
        w = np.linspace(0.01, 0.99, 8)
        np.savetxt(tmp_path / "law.txt", np.column_stack([w, -np.tan(np.pi * (w - 0.5))]))
        datum = json.loads(write_config(tmp_path).read_text())["datum"]
        datum["grid"] = [3, 3, 3, 3]
        cfg = write_config(tmp_path, datum=datum, hooke={
            "kind": "table", "epsilon": 1.0, "table_path": str(tmp_path / "law.txt")})
        got = dispatch_fresh([["bounds", "--config", str(cfg)]])
        assert got["codes"] == [EXIT_OK]
        assert "scipy.interpolate" in got["scipy"]

    def test_cli_import_builds_no_digit_table(self):
        # write_table's digit tables are built on the first large table.
        got = run_fresh("import json, diatomic_vlasov.cli\n"
                        "from diatomic_vlasov import field\n"
                        "print(json.dumps(field._digit_tables.cache_info().currsize))")
        assert got == 0

    def test_custom_law_loads_no_scipy(self):
        got = run_fresh(_CUSTOM_LAW_SCRIPT)
        assert got["x"] == pytest.approx(0.7, abs=1e-11)
        assert got["scipy"] == []
