"""Command-line interface: subcommands, config files, exit codes."""

import os

import numpy as np

from pinnbands.cli import main
from pinnbands.problems import problem_ids
from pinnbands.training import save_trained


def run_cli(*argv):
    return main(list(argv))


class TestListProblems:
    def test_lists_every_id(self, capsys):
        assert run_cli("list-problems") == 0
        out = capsys.readouterr().out
        for pid in problem_ids():
            assert pid in out


class TestSolve:
    def test_single_cell(self, tmp_path, capsys):
        code = run_cli(
            "solve", "--problem", "ode1.poly", "--method", "deterministic",
            "--det-epochs", "50", "--grid-points", "31", "--out", str(tmp_path),
        )
        assert code == 0
        files = os.listdir(tmp_path)
        assert any(f.endswith(".csv") for f in files)
        assert any(f.endswith("_metrics.json") for f in files)

    def test_unknown_problem_exit_2(self, tmp_path, capsys):
        code = run_cli(
            "solve", "--problem", "nope", "--method", "deterministic", "--out", str(tmp_path)
        )
        assert code == 2

    def test_missing_cell_and_preset_exit_2(self, tmp_path, capsys):
        assert run_cli("solve", "--out", str(tmp_path)) == 2
        assert run_cli("solve", "--preset", "desk", "--out", str(tmp_path)) == 2

    def test_config_file_mirrors_flags(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "problem=ode1.cos\nmethod=deterministic\ndet-epochs=40\n"
            f"grid-points=21\nout={tmp_path}\n# comment line\n"
        )
        assert run_cli("solve", "--config", str(cfg)) == 0
        assert any(f.endswith(".csv") for f in os.listdir(tmp_path))

    def test_flags_override_config_file(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("problem=ode1.cos\nmethod=deterministic\ndet-epochs=9999999\n")
        code = run_cli(
            "solve", "--config", str(cfg), "--det-epochs", "30",
            "--grid-points", "11", "--out", str(tmp_path),
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "det30" in out

    def test_unknown_config_key_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("problem=ode1.cos\nmystery=1\n")
        assert run_cli("solve", "--config", str(cfg), "--out", str(tmp_path)) == 2


class TestCertify:
    def test_bound_only_mode(self, tmp_path, capsys, models_10):
        prefix = str(tmp_path / "model")
        save_trained(models_10["ode1.exp"], prefix)
        out_csv = str(tmp_path / "certified.csv")
        code = run_cli(
            "certify", "--weights", prefix, "--problem", "ode1.exp",
            "--grid-points", "41", "--out", out_csv,
        )
        assert code == 0
        lines = open(out_csv).read().strip().splitlines()
        assert lines[0] == "x,u_det,bound"
        assert len(lines) == 42
        bounds = np.array([float(ln.split(",")[2]) for ln in lines[1:]])
        assert bounds[0] == 0.0 and np.all(bounds >= 0.0)

    def test_problem_mismatch_exit_2(self, tmp_path, capsys, models_10):
        prefix = str(tmp_path / "model")
        save_trained(models_10["ode1.exp"], prefix)
        code = run_cli(
            "certify", "--weights", prefix, "--problem", "ode1.poly",
            "--out", str(tmp_path / "c.csv"),
        )
        assert code == 2


def test_numeric_failure_exit_3(tmp_path, monkeypatch, capsys):
    from pinnbands.errors import TrainingDivergedError
    import pinnbands.cli as cli_mod

    def explode(cfg):
        raise TrainingDivergedError("synthetic divergence", epoch=3)

    monkeypatch.setattr(cli_mod, "run_experiment", explode)
    code = run_cli(
        "solve", "--problem", "ode1.poly", "--method", "deterministic", "--out", str(tmp_path)
    )
    assert code == 3


def test_conditioning_failure_prints_diagnostics(tmp_path, monkeypatch, capsys):
    from pinnbands.errors import ConditioningError
    import pinnbands.cli as cli_mod

    def explode(cfg):
        raise ConditioningError(
            "synthetic ill-conditioning",
            diagnostics={"feature_dim": 33, "min_eigenvalue": -1.5e-12},
        )

    monkeypatch.setattr(cli_mod, "run_experiment", explode)
    code = run_cli(
        "solve", "--problem", "ode1.poly", "--method", "deterministic", "--out", str(tmp_path)
    )
    assert code == 3
    err = capsys.readouterr().err.splitlines()
    assert err[0] == "numeric failure: synthetic ill-conditioning"
    assert err[1:] == ["  feature_dim: 33", "  min_eigenvalue: -1.5e-12"]
