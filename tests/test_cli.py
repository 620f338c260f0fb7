import json

from diatomic_vlasov.cli import EXIT_CONFIG, EXIT_OK, dispatch


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
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw))
    return path


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


class TestExitCodes:
    def test_unknown_config_key(self, tmp_path, capsys):
        cfg = write_config(tmp_path, frobnicate=1)
        code = dispatch(["simulate", "--config", str(cfg),
                         "--output-dir", str(tmp_path / "run")])
        assert code == EXIT_CONFIG
        assert "frobnicate" in capsys.readouterr().err
