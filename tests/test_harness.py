"""Harness: coverage metrics, report emission, presets, determinism."""

import json
import os
import pathlib
import subprocess
import sys
from dataclasses import replace
from functools import partial

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pinnbands.bands import PredictiveBand, write_csv
from pinnbands.bounds import estimate_envelope
from pinnbands.errors import (
    ConditioningError,
    ConfigurationError,
    ShapeError,
    TrainingDivergedError,
)
from pinnbands.harness import (
    METHODS,
    PRESETS,
    REPORT_COLUMNS,
    ExperimentConfig,
    coverage_metrics,
    emit_outputs,
    preset_configs,
    resolve_preset,
    run_experiment,
)
from pinnbands.problems import get_entry


def synthetic_band(mean, sd):
    n = len(mean)
    mean = np.asarray(mean, dtype=float)
    var = np.asarray(sd, dtype=float) ** 2
    return PredictiveBand(np.arange(n, dtype=float), mean, var, np.zeros(n))


class TestCoverageMetrics:
    def test_perfect_mean_full_coverage(self):
        band = synthetic_band(np.ones(10), np.full(10, 0.3))
        frac, width = coverage_metrics(band, np.ones(10), 3.0)
        assert frac == 1.0
        assert width == pytest.approx(2 * 3 * 0.3)

    def test_zero_sd_counts_only_exact_matches(self):
        truth = np.zeros(4)
        band = synthetic_band([0.0, 0.1, 0.0, -0.2], np.zeros(4))
        frac, width = coverage_metrics(band, truth, 3.0)
        assert frac == 0.5
        assert width == 0.0

    def test_three_sigma_rule_hand_case(self):
        band = synthetic_band(np.zeros(10), np.ones(10))
        assert coverage_metrics(band, np.full(10, 2.0), 3.0)[0] == 1.0
        assert coverage_metrics(band, np.full(10, 4.0), 3.0)[0] == 0.0

    def test_grid_mismatch(self):
        band = synthetic_band(np.zeros(3), np.ones(3))
        with pytest.raises(ShapeError):
            coverage_metrics(band, np.zeros(4), 3.0)

    def test_k_positive(self):
        band = synthetic_band(np.zeros(3), np.ones(3))
        for k in (0.0, -1.0, float("nan"), float("inf")):
            with pytest.raises(ConfigurationError, match="k must be finite"):
                coverage_metrics(band, np.zeros(3), k)


class TestPredictiveBand:
    def test_nan_mean_rejected(self):
        with pytest.raises(ShapeError, match="mean"):
            synthetic_band([0.0, np.nan, 1.0], np.ones(3))

    @pytest.mark.parametrize("name", ["epistemic_var", "sigma_p2"])
    def test_nan_variance_rejected_by_name(self, name):
        fields = {"epistemic_var": np.ones(3), "sigma_p2": np.zeros(3)}
        fields[name] = np.array([1.0, np.nan, 0.0])
        with pytest.raises(ShapeError, match=f"{name} must be >= 0.0 and not NaN"):
            PredictiveBand(np.arange(3.0), np.zeros(3), **fields)

    def test_infinite_variance_kept(self):
        # a singular source (ode1.logsing) has an infinite bound past its pole
        sigma_p2 = np.array([0.0, 1.0, np.inf])
        band = PredictiveBand(np.arange(3.0), np.zeros(3), np.ones(3), sigma_p2)
        assert np.isinf(band.sd_total[2])


@pytest.fixture(scope="module")
def small_nlm_report():
    cfg = ExperimentConfig(
        problem="ode1.exp", method="error_aware_nlm", det_epochs=300,
        grid_points=101, seed=0,
    )
    return run_experiment(cfg)


@pytest.fixture(scope="module")
def small_det_report():
    cfg = ExperimentConfig(
        problem="ode1.poly", method="deterministic", det_epochs=100,
        grid_points=51, seed=0,
    )
    return run_experiment(cfg)


class TestRunExperiment:
    def test_deterministic_sd_total_zero(self, small_det_report):
        assert np.all(small_det_report.table["sd_total"] == 0.0)
        assert np.all(small_det_report.table["sigma_P"] == 0.0)

    def test_bound_column_majorizes_det_error(self, small_nlm_report):
        t = small_nlm_report.table
        assert np.all(np.abs(t["u_true"] - t["u_det"]) <= t["bound"])

    def test_error_aware_variance_floor(self, small_nlm_report):
        t = small_nlm_report.table
        assert np.all(t["sd_total"] >= t["sigma_P"] - 1e-15)

    def test_metrics_report_regions_separately(self, small_nlm_report):
        m = small_nlm_report.metrics
        assert "coverage_3sigma_train" in m
        assert "coverage_3sigma_extrapolation" in m
        assert 0.0 <= m["coverage_3sigma_extrapolation"] <= 1.0

    def test_table_sorted_by_x(self, small_nlm_report):
        x = small_nlm_report.table["x"]
        assert np.all(np.diff(x) > 0)

    def test_provenance_has_hash_and_versions(self, small_nlm_report):
        prov = small_nlm_report.provenance
        assert len(prov["config_hash"]) == 16
        assert "numpy" in prov["versions"]

    def test_unknown_method_rejected(self):
        with pytest.raises(ConfigurationError):
            ExperimentConfig(method="bogus").validate()

    def test_burgers_nlm_rejected(self):
        cfg = ExperimentConfig(problem="burgers", method="error_aware_nlm", det_epochs=5)
        with pytest.raises(ConfigurationError):
            run_experiment(cfg)

    @pytest.mark.parametrize("field,value", [
        ("burgers_grid", (1, 6)),
        ("burgers_grid", (6, 1)),
        ("burgers_time_samples", 0),
        ("n_posterior_samples", 0),
        ("oversample", 0),
        ("oversample", 1),
        ("safety_factor", 0.0),
        ("safety_factor", 0.5),
        ("safety_factor", float("nan")),
        ("safety_factor", float("inf")),
    ])
    def test_out_of_range_field_rejected(self, field, value, request):
        if field in ("oversample", "safety_factor"):
            # no longer config fields: the harness envelope takes them at
            # estimate_envelope's defaults, and that call still checks them
            trained = request.getfixturevalue("models_10")["ode1.exp"]
            check = partial(estimate_envelope, trained, **{field: value})
        else:
            check = ExperimentConfig(problem="burgers", method="deterministic", **{field: value}).validate
        with pytest.raises(ConfigurationError):
            check()

    @pytest.mark.parametrize("method", ["baseline_vi", "error_aware_vi"])
    def test_vi_without_epochs_rejected_before_training(self, method):
        with pytest.raises(ConfigurationError, match="vi_epochs"):
            ExperimentConfig(method=method, vi_epochs=0).validate()
        ExperimentConfig(method="deterministic", vi_epochs=0).validate()


def _csv_by_loop(table):
    """The CSV writer written out cell by cell: the reference for write_csv."""
    cols = list(table)
    arrays = [np.asarray(table[c]) for c in cols]
    lines = [",".join(cols)]
    for i in range(len(arrays[0])):
        lines.append(",".join(str(int(a[i])) if a.dtype.kind in "ib" else f"{a[i]:.17g}"
                              for a in arrays))
    return "\n".join(lines) + "\n"


class TestEmitOutputs:
    def test_csv_matches_cell_by_cell_formatting(self, tmp_path):
        floats = np.array([0.1, -0.0, 5e-324, 1e300, np.nan, np.inf, -np.inf, 2.0 / 3.0])
        table = {"x": floats, "n": np.arange(8) - 3, "flag": floats > 0, "y": floats[::-1]}
        write_csv(table, tmp_path / "t.csv")
        assert (tmp_path / "t.csv").read_text() == _csv_by_loop(table)

    def test_band_file_matches_cell_by_cell_formatting(self, small_nlm_report, tmp_path):
        paths = emit_outputs(small_nlm_report, tmp_path)
        band, truth = small_nlm_report.band, small_nlm_report.table["u_true"]
        sd = band.sd_total
        expected = "# x mean lower3sigma upper3sigma truth\n" + "".join(
            f"{band.grid[i]:.17g} {band.mean[i]:.17g} {band.mean[i] - 3 * sd[i]:.17g} "
            f"{band.mean[i] + 3 * sd[i]:.17g} {truth[i]:.17g}\n"
            for i in range(len(band.mean))
        )
        dat = [p for p in paths if p.endswith(".dat")][0]
        assert open(dat).read() == expected

    def test_csv_header_contract(self, small_nlm_report, tmp_path):
        paths = emit_outputs(small_nlm_report, tmp_path)
        csv_path = [p for p in paths if p.endswith(".csv")][0]
        header = open(csv_path).readline().strip()
        assert header == REPORT_COLUMNS

    def test_json_roundtrip(self, small_nlm_report, tmp_path):
        paths = emit_outputs(small_nlm_report, tmp_path)
        json_path = [p for p in paths if p.endswith(".json")][0]
        record = json.loads(open(json_path).read())
        for key, value in record["metrics"].items():
            assert small_nlm_report.metrics[key] == value

    def test_band_file_columns(self, small_nlm_report, tmp_path):
        paths = emit_outputs(small_nlm_report, tmp_path)
        dat = [p for p in paths if p.endswith(".dat")][0]
        lines = open(dat).read().strip().splitlines()
        assert lines[0].startswith("# x mean lower3sigma upper3sigma truth")
        row = lines[1].split()
        assert len(row) == 5
        assert float(row[2]) <= float(row[1]) <= float(row[3])

    def test_non_finite_metric_written_as_null(self, tmp_path):
        # the logsing bound diverges past the pole, so the mean width is inf
        cfg = ExperimentConfig(
            problem="ode1.logsing", method="error_aware_nlm", det_epochs=5, grid_points=21,
        )
        report = run_experiment(cfg)
        json_path = [p for p in emit_outputs(report, tmp_path) if p.endswith(".json")][0]

        def reject(token):
            raise ValueError(f"not JSON: {token}")

        with open(json_path) as fh:
            record = json.loads(fh.read(), parse_constant=reject)
        assert record["metrics"]["mean_band_width_3sigma"] is None
        # the report itself keeps the value
        assert report.metrics["mean_band_width_3sigma"] == float("inf")

    def test_byte_identical_reruns(self, tmp_path):
        cfg = ExperimentConfig(
            problem="ode1.cos", method="error_aware_nlm", det_epochs=60,
            grid_points=41, seed=5,
        )
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        emit_outputs(run_experiment(cfg), out_a)
        emit_outputs(run_experiment(cfg), out_b)
        for name in os.listdir(out_a):
            with open(out_a / name, "rb") as fa, open(out_b / name, "rb") as fb:
                assert fa.read() == fb.read(), name


# Runs a 100x100 Burgers cell in a fresh interpreter, where the BLAS thread
# count set in the environment takes effect.
_THREADS_SCRIPT = """
import sys
sys.path.insert(0, sys.argv[1])
from pinnbands.harness import ExperimentConfig, emit_outputs, run_experiment
config = ExperimentConfig(problem="burgers", method="error_aware_vi", det_epochs=3, vi_epochs=3,
                          n_posterior_samples=20, burgers_grid=(100, 100), burgers_time_samples=8)
emit_outputs(run_experiment(config), sys.argv[2])
"""


def test_burgers_bytes_independent_of_blas_threads(tmp_path):
    # the 10000-row training steps and the 10000-point band are walked in
    # fixed row blocks, so no sum over rows follows the BLAS thread partition
    src = str(pathlib.Path(__file__).resolve().parent.parent / "src")
    outputs = {}
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        out = tmp_path / f"threads{threads}"
        subprocess.run([sys.executable, "-c", _THREADS_SCRIPT, src, str(out)],
                       env=env, capture_output=True, timeout=600, check=True)
        outputs[threads] = {p.name: p.read_bytes() for p in out.iterdir()}
    assert len(outputs["1"]) == 2
    assert outputs["1"].keys() == outputs["2"].keys()
    for name, data in outputs["1"].items():
        assert data == outputs["2"][name], name


_TINY_BURGERS = dict(
    problem="burgers", det_epochs=2, vi_epochs=2, burgers_grid=(6, 6),
    burgers_time_samples=4, n_posterior_samples=5,
)


class TestBurgersCell:
    @pytest.mark.parametrize("method", ["deterministic", "baseline_vi", "error_aware_vi"])
    def test_tiny_cell(self, method, tmp_path):
        cfg = ExperimentConfig(method=method, **_TINY_BURGERS)
        report = run_experiment(cfg)
        assert report.trained.config.burgers_grid == cfg.burgers_grid
        assert report.metrics["max_ic_error"] == report.metrics["max_bc_error"] == 0.0
        at_origin = report.table["t"] == 0.0
        assert np.count_nonzero(at_origin) == 6
        assert np.all(report.table["sigma_P"][at_origin] == 0.0)

        out_a, out_b = tmp_path / "a", tmp_path / "b"
        paths = emit_outputs(report, out_a)
        csv_path = [p for p in paths if p.endswith(".csv")][0]
        assert open(csv_path).readline().strip() == "x,t,u_det,mean,sd_total,sigma_P"
        emit_outputs(run_experiment(cfg), out_b)
        assert sorted(os.listdir(out_a)) == sorted(os.listdir(out_b))
        for name in os.listdir(out_a):
            with open(out_a / name, "rb") as fa, open(out_b / name, "rb") as fb:
                assert fa.read() == fb.read(), name


class TestPresets:
    def test_known_presets(self):
        assert set(PRESETS) == {"fig1", "fig2", "fig4", "fig5", "burgers", "desk"}

    def test_fig2_has_eight_cells(self):
        configs = preset_configs("fig2")
        assert len(configs) == 8
        methods = {c.method for c in configs}
        assert methods == {"error_aware_nlm", "error_aware_vi"}

    def test_desk_overrides_budgets(self):
        cfg = preset_configs("desk", ExperimentConfig(problem="ode1.exp", method="deterministic"))[0]
        assert cfg.det_epochs == 2000 and cfg.vi_epochs == 5000 and cfg.grid_points == 201

    def test_preset_stem_follows_det_epochs(self):
        cfg = replace(preset_configs("fig1")[0], det_epochs=3)
        assert cfg.stem().endswith("_det3")

    def test_unknown_preset(self):
        with pytest.raises(ConfigurationError):
            resolve_preset("fig9")

    def test_fig2_preset_emits_eight_band_files(self, tmp_path):
        # budget-reduced run preserving the preset's cell structure
        for cfg in preset_configs("fig2"):
            cfg = replace(cfg, det_epochs=5, vi_epochs=5, grid_points=21,
                          n_posterior_samples=8)
            emit_outputs(run_experiment(cfg), tmp_path)
        bands = [f for f in os.listdir(tmp_path) if f.endswith("_band.dat")]
        assert len(bands) == 8


class TestSecondOrderCells:
    @pytest.mark.parametrize("pid", ["ode2.harmonic.exp", "ode2.damped.trig"])
    def test_error_aware_nlm_second_order(self, pid):
        cfg = ExperimentConfig(
            problem=pid, method="error_aware_nlm", det_epochs=1000,
            grid_points=101, seed=0,
        )
        rep = run_experiment(cfg)
        t = rep.table
        # the second-order kernels majorize the deterministic error too
        assert np.all(np.abs(t["u_true"] - t["u_det"]) <= t["bound"])
        assert rep.metrics["coverage_3sigma_full"] >= 0.99


class TestRobustness:
    @settings(max_examples=10, deadline=None)
    @given(
        problem=st.sampled_from(["ode1.exp", "ode2.damped.exp"]),
        method=st.sampled_from(METHODS),
        seed=st.integers(0, 10**6),
        det_epochs=st.integers(0, 20),
        grid_points=st.integers(2, 41),
        vi_epochs=st.integers(0, 5),
        n_posterior_samples=st.integers(1, 8),
    )
    def test_small_budgets_never_give_nan_band(self, problem, method, seed, det_epochs,
                                               grid_points, vi_epochs, n_posterior_samples):
        cfg = ExperimentConfig(
            problem=problem, method=method, seed=seed, det_epochs=det_epochs,
            grid_points=grid_points, vi_epochs=vi_epochs,
            n_posterior_samples=n_posterior_samples,
        )
        try:
            band = run_experiment(cfg).band
        except ConfigurationError:
            # only a config that validate() rejects up front, before training
            with pytest.raises(ConfigurationError):
                cfg.validate()
            return
        except (TrainingDivergedError, ConditioningError):
            return  # a documented numeric failure: the CLI exits 3
        for name in ("mean", "epistemic_var", "sigma_p2", "total_var"):
            assert not np.any(np.isnan(getattr(band, name))), name
        assert np.all(band.epistemic_var >= 0)
        assert np.all(band.sigma_p2 >= 0)
        assert np.all(band.total_var >= 0)


# values that no numeric config field accepts: bools, integral and
# non-integral floats, NaN, infinities, negatives, strings and None
_BAD_VALUES = (True, False, 2.0, 1.5, 10.7, float("nan"), float("inf"), float("-inf"),
               -1, -3, "3", "", "nan", None)

# valid cells at tiny budgets: at most 3 + 2 epochs, 12 grid points, 5 draws
_CELLS = st.fixed_dictionaries({
    "problem": st.sampled_from(["ode1.exp", "ode2.damped.exp", "ode1.logsing", "burgers"]),
    "method": st.sampled_from(METHODS),
    "seed": st.integers(0, 10**6),
    "det_epochs": st.integers(0, 3),
    "vi_epochs": st.integers(0, 2),
    "grid_points": st.integers(2, 12),
    "n_posterior_samples": st.integers(1, 5),
    "burgers_grid": st.tuples(st.integers(2, 4), st.integers(2, 3)),
    "burgers_time_samples": st.integers(1, 4),
})

# up to two fields of a cell replaced by values no field accepts; a pair
# with one bad entry is bad for every field
_BAD_FIELDS = st.dictionaries(
    st.sampled_from(["seed", "det_epochs", "vi_epochs", "grid_points", "n_posterior_samples",
                     "burgers_grid", "burgers_time_samples"]),
    st.sampled_from(_BAD_VALUES) | st.tuples(st.sampled_from(_BAD_VALUES), st.integers(2, 3)),
    max_size=2,
)

_VI_CELL = dict(problem="ode1.exp", method="error_aware_vi", seed=0, det_epochs=2, vi_epochs=1,
                grid_points=5, n_posterior_samples=3, burgers_grid=(3, 3), burgers_time_samples=2)
_BURGERS_CELL = dict(_VI_CELL, problem="burgers", method="deterministic")


class TestFieldProperty:
    @settings(max_examples=200, deadline=None)
    @given(cell=_CELLS, bad=_BAD_FIELDS)
    @example(cell=_VI_CELL, bad={"det_epochs": 1.5})
    @example(cell=_VI_CELL, bad={"det_epochs": float("nan")})
    @example(cell=_VI_CELL, bad={"det_epochs": True})
    @example(cell=_VI_CELL, bad={"vi_epochs": 2.0})
    @example(cell=_VI_CELL, bad={"seed": 1.5})
    @example(cell=_VI_CELL, bad={"seed": "3"})
    @example(cell=_VI_CELL, bad={"grid_points": 10.7})
    @example(cell=_VI_CELL, bad={"n_posterior_samples": 3.5})
    @example(cell=_BURGERS_CELL, bad={"burgers_grid": (4.5, 4)})
    def test_bad_field_rejected_before_training_else_no_nan(self, cell, bad):
        cfg = ExperimentConfig(**{**cell, **bad})
        try:
            report = run_experiment(cfg)
        except ConfigurationError:
            # validate() rejects the config itself, so nothing was trained
            with pytest.raises(ConfigurationError):
                cfg.validate()
            return
        except (TrainingDivergedError, ConditioningError):
            assert not bad
            return  # a documented numeric failure: the CLI exits 3
        assert not bad, "a bad field value passed validation"
        # the singular entry has no truth on its grid; Burgers has no u_true
        singular = get_entry(cfg.problem).singular
        for name, column in report.table.items():
            if not (name == "u_true" and singular):
                assert not np.any(np.isnan(column)), name
