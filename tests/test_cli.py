"""Command-line interface: subcommands, config files, exit codes."""

import contextlib
import csv
import io
import json
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pinnbands.cli import main
from pinnbands.errors import PinnbandsError
from pinnbands.harness import METHODS
from pinnbands.network import init_network
from pinnbands.problems import REGISTRY
from pinnbands.training import TrainConfig, save_trained, train_deterministic
from pinnbands.weights_io import save_weights


def run_cli(*argv):
    return main(list(argv))


class TestListProblems:
    def test_lists_every_id(self, capsys):
        assert run_cli("list-problems") == 0
        out = capsys.readouterr().out
        for pid in REGISTRY:
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

    def test_preset_file_names_follow_det_epochs(self, tmp_path, capsys):
        code = run_cli(
            "solve", "--preset", "fig1", "--det-epochs", "3", "--vi-epochs", "2",
            "--out", str(tmp_path),
        )
        assert code == 0
        files = os.listdir(tmp_path)
        assert files and not [f for f in files if "_det10" in f]
        assert all("_det3" in f for f in files)

    def test_unknown_problem_exit_2(self, tmp_path, capsys):
        code = run_cli(
            "solve", "--problem", "nope", "--method", "deterministic", "--out", str(tmp_path)
        )
        assert code == 2

    def test_missing_cell_and_preset_exit_2(self, tmp_path, capsys):
        assert run_cli("solve", "--out", str(tmp_path)) == 2
        assert run_cli("solve", "--preset", "desk", "--out", str(tmp_path)) == 2

    @pytest.mark.parametrize("lone", [("--problem", "ode1.exp"), ("--method", "deterministic")])
    def test_lone_problem_or_method_exit_2(self, tmp_path, capsys, lone):
        # a preset's cells never take a lone --problem or --method
        code = run_cli(
            "solve", "--preset", "fig2", *lone, "--det-epochs", "1", "--vi-epochs", "1",
            "--grid-points", "5", "--out", str(tmp_path),
        )
        assert code == 2
        assert "--problem and --method together" in capsys.readouterr().err
        assert os.listdir(tmp_path) == []

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

    def test_negative_seed_exit_2(self, tmp_path, capsys):
        code = run_cli(
            "solve", "--problem", "ode1.exp", "--method", "deterministic",
            "--seed", "-1", "--out", str(tmp_path),
        )
        assert code == 2
        assert "configuration error:" in capsys.readouterr().err

    def test_non_integer_config_value_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("problem=ode1.cos\nmethod=deterministic\ndet_epochs=abc\n")
        assert run_cli("solve", "--config", str(cfg), "--out", str(tmp_path)) == 2
        assert "configuration error:" in capsys.readouterr().err

    @pytest.mark.parametrize("entry", [
        "det_epochs=1.5", "det_epochs=nan", "det_epochs=True", "vi_epochs=2.0",
        "seed=1.5", "grid_points=10.7",
    ])
    def test_non_integer_count_in_config_file_exit_2(self, tmp_path, capsys, entry):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"problem=ode1.exp\nmethod=error_aware_vi\n{entry}\n")
        assert run_cli("solve", "--config", str(cfg), "--out", str(tmp_path)) == 2
        assert entry.split("=")[0] in capsys.readouterr().err
        assert os.listdir(tmp_path) == ["run.cfg"]

    def test_bad_flag_returns_2(self, capsys):
        # argparse's own exit is turned into a return code
        assert run_cli("solve", "--det-epochs", "1.5") == 2
        assert "invalid int value" in capsys.readouterr().err


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


    @pytest.mark.parametrize("points", ["-3", "1"])
    def test_bad_grid_points_exit_2(self, tmp_path, capsys, models_10, points):
        prefix = str(tmp_path / "model")
        save_trained(models_10["ode1.exp"], prefix)
        code = run_cli(
            "certify", "--weights", prefix, "--problem", "ode1.exp",
            "--grid-points", points, "--out", str(tmp_path / "c.csv"),
        )
        assert code == 2
        assert "configuration error:" in capsys.readouterr().err

    @pytest.mark.parametrize("flag,value", [("--oversample", "10"), ("--safety-factor", "1.1")])
    def test_envelope_flags_rejected_exit_2(self, tmp_path, capsys, models_10, flag, value):
        # the envelope's sampling is fixed; certify has no flags for it
        prefix = str(tmp_path / "model")
        save_trained(models_10["ode1.exp"], prefix)
        out_csv = tmp_path / "c.csv"
        code = run_cli(
            "certify", "--weights", prefix, "--problem", "ode1.exp",
            flag, value, "--out", str(out_csv),
        )
        assert code == 2
        assert flag in capsys.readouterr().err
        assert not os.path.exists(out_csv)

    def test_matches_solve_cell_bound(self, tmp_path):
        # the bound of saved weights equals the bound the training cell wrote
        code = run_cli(
            "solve", "--problem", "ode2.damped.exp", "--method", "deterministic",
            "--det-epochs", "20", "--grid-points", "41", "--save-weights",
            "--out", str(tmp_path),
        )
        assert code == 0
        (weights,) = tmp_path.glob("*.weights")
        (cell_csv,) = tmp_path.glob("*.csv")
        out_csv = tmp_path / "certified.csv"
        code = run_cli(
            "certify", "--weights", str(weights)[:-len(".weights")],
            "--problem", "ode2.damped.exp", "--grid-points", "41", "--out", str(out_csv),
        )
        assert code == 0
        with open(cell_csv) as fh:
            cell = list(csv.DictReader(fh))
        with open(out_csv) as fh:
            certified = list(csv.DictReader(fh))
        assert len(certified) == len(cell) == 41
        for row_cert, row_cell in zip(certified, cell):
            assert row_cert == {key: row_cell[key] for key in ("x", "u_det", "bound")}

    @pytest.mark.parametrize("meta", ["seedless", "not json", "unknown id", "empty id",
                                      "word epochs", "negative seed"])
    def test_malformed_metadata_exit_2(self, tmp_path, capsys, models_10, meta):
        prefix = str(tmp_path / "model")
        save_trained(models_10["ode1.exp"], prefix)
        path = tmp_path / "model.meta.json"
        if meta == "not json":
            path.write_text("{not json")
        else:
            record = json.loads(path.read_text())
            if meta == "seedless":
                del record["seed"]
            elif meta == "word epochs":
                record["epochs"] = "ten"
            elif meta == "negative seed":
                record["seed"] = -3
            else:
                record["problem_id"] = "nope" if meta == "unknown id" else ""
            path.write_text(json.dumps(record))
        code = run_cli(
            "certify", "--weights", prefix, "--problem", "ode1.exp",
            "--out", str(tmp_path / "c.csv"),
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "configuration error:" in err and "model.meta.json" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("record", ["weight 0", "bias 7"])
    def test_undescribed_weights_record_exit_2(self, tmp_path, capsys, models_10, record):
        # a repeated record, or one for a layer the header lacks, is not
        # silently dropped or allowed to overwrite the first
        prefix = str(tmp_path / "model")
        save_trained(models_10["ode1.exp"], prefix)
        with open(f"{prefix}.weights", "a") as fh:
            fh.write(f"{record} 9.0\n")
        code = run_cli(
            "certify", "--weights", prefix, "--problem", "ode1.exp",
            "--out", str(tmp_path / "c.csv"),
        )
        assert code == 2
        err = capsys.readouterr().err
        assert f"'{record}'" in err and "model.weights" in err
        assert not os.path.exists(tmp_path / "c.csv")

    def test_non_finite_weight_entry_exit_2(self, tmp_path, capsys, models_10):
        prefix = str(tmp_path / "model")
        save_trained(models_10["ode1.exp"], prefix)
        with open(f"{prefix}.weights") as fh:
            lines = fh.read().splitlines()
        # the first entry of layer 0's biases becomes nan
        k = next(i for i, ln in enumerate(lines) if ln.startswith("bias 0 "))
        lines[k] = "bias 0 nan " + lines[k].split(None, 3)[3]
        with open(f"{prefix}.weights", "w") as fh:
            fh.write("\n".join(lines) + "\n")
        code = run_cli(
            "certify", "--weights", prefix, "--problem", "ode1.exp",
            "--out", str(tmp_path / "c.csv"),
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "configuration error:" in err and "model.weights: non-finite entry" in err
        assert not os.path.exists(tmp_path / "c.csv")

    def test_network_the_problem_does_not_train_exit_2(self, tmp_path, capsys, models_10):
        prefix = str(tmp_path / "model")
        save_trained(models_10["ode1.exp"], prefix)
        save_weights(init_network([1, 8, 1], "tanh", seed=0), f"{prefix}.weights")
        code = run_cli(
            "certify", "--weights", prefix, "--problem", "ode1.exp",
            "--out", str(tmp_path / "c.csv"),
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "configuration error:" in err and "model.weights" in err
        assert not os.path.exists(tmp_path / "c.csv")

    def test_burgers_weights_exit_2(self, tmp_path, capsys):
        trained = train_deterministic("burgers", TrainConfig(1, 0, (3, 3)))
        prefix = str(tmp_path / "model")
        save_trained(trained, prefix)
        code = run_cli(
            "certify", "--weights", prefix, "--problem", "burgers",
            "--out", str(tmp_path / "c.csv"),
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "configuration error: certify needs an ODE problem" in err
        assert not os.path.exists(tmp_path / "c.csv")


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


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


# The README's exit codes: 2 for configuration and io errors, 3 for numeric
# failures; any other package error falls back to 3.
_DOCUMENTED_EXIT = {
    "ConfigurationError": 2,
    "ShapeError": 2,
    "DomainError": 2,
    "UnsupportedOrderError": 2,
    "OSError": 2,
    "TrainingDivergedError": 3,
    "ConditioningError": 3,
    "FloatingPointError": 3,
    "TapeMismatchError": 3,
}


@pytest.mark.parametrize(
    "exc_class", [*_subclasses(PinnbandsError), OSError, FloatingPointError],
    ids=lambda c: c.__name__,
)
def test_every_error_class_maps_to_documented_exit_code(exc_class, tmp_path, monkeypatch, capsys):
    import pinnbands.cli as cli_mod

    assert exc_class.__name__ in _DOCUMENTED_EXIT, f"{exc_class.__name__} has no documented exit code"

    def explode(args):
        raise exc_class("synthetic failure")

    monkeypatch.setattr(cli_mod, "_solve", explode)
    code = run_cli("solve", "--out", str(tmp_path))
    assert code == _DOCUMENTED_EXIT[exc_class.__name__]
    assert "synthetic failure" in capsys.readouterr().err



# flag and config-file texts for the budget keys: tiny counts (of which 0
# and 1 are below some lowest values), and texts that are not integers or
# are negative
_COUNT_TEXTS = ("0", "1", "2", "3", " 2")
_BAD_TEXTS = ("-3", "1.5", "nan", "1e3", "", "True")
_BUDGET_KEYS = ("det_epochs", "vi_epochs", "seed", "grid_points")
_WHERE = st.sampled_from(["flag", "file", "both"])


@settings(max_examples=50, deadline=None)
@given(
    method=st.sampled_from(METHODS),
    entries=st.fixed_dictionaries(
        {key: st.tuples(st.sampled_from(_COUNT_TEXTS), _WHERE) for key in _BUDGET_KEYS}
    ),
    bad=st.dictionaries(
        st.sampled_from(_BUDGET_KEYS), st.tuples(st.sampled_from(_BAD_TEXTS), _WHERE), max_size=2
    ),
)
def test_solve_exits_0_2_or_3(method, entries, bad):
    with tempfile.TemporaryDirectory() as out:
        argv = ["solve", "--problem", "ode1.exp", "--method", method, "--out", out]
        lines = []
        for key, (text, where) in {**entries, **bad}.items():
            if where != "file":
                argv += [f"--{key.replace('_', '-')}", text]
            if where != "flag":
                lines.append(f"{key}={text}")
        config = os.path.join(out, "run.cfg")
        with open(config, "w") as fh:
            fh.write("\n".join(lines) + "\n")
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = main([*argv, "--config", config])
    assert code in (0, 2, 3)
    if bad:
        assert code == 2
