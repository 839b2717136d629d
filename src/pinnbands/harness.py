"""Experiment orchestration: run (equation x method x budget) cells and emit
plot-ready tables, coverage diagnostics, and provenance records.

The pipeline for error-aware methods is: deterministic residual training,
residual envelope, pseudo-aleatoric profile, Bayesian head (exact linear
model or variational inference), posterior sampling, predictive moments.
The deterministic method stops after training; the baseline VI method skips
the pseudo-aleatoric term and places a unit-variance likelihood on the
residuals.  An ODE cell's residual envelope is 1.1 times the largest |r| of
10 samples on each of 40 equal subintervals.  Burgers cells run the same
pipeline without an envelope: their sigma_P is the accumulated-residual
heuristic, and the NLM head is not defined for them.

Reports are written as CSV (fixed column contract), a strict JSON metrics
record (a non-finite metric is written as null), and a gnuplot-style band
file.  Identical configurations produce byte-identical outputs.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, replace

import numpy as np
import scipy

from . import __version__
from .bands import PredictiveBand, write_csv
from .bounds import estimate_envelope, pseudo_profile
from .errors import ConfigurationError, ShapeError, check_count, check_fields, check_finite
from .nlm import (
    PriorSearchResult,
    build_simulated_dataset,
    export_posterior_json,
    feature_matrix,
    make_prior_eval_grid,
    nlm_band,
    optimize_prior,
)
from .problems import (
    FIRST_ORDER_IDS,
    BurgersProblem,
    burgers_initial_condition,
    get_entry,
    surrogate_values,
)
from .training import (
    BURGERS_GRID,
    TrainConfig,
    TrainedPINN,
    collocation_points,
    save_trained,
    train_deterministic,
    training_grid,
)
from .vi import VIConfig, predictive_moments, sample_posterior, vi_train

METHODS = ("deterministic", "baseline_vi", "error_aware_vi", "error_aware_nlm")

# seed offsets for the pipeline stages, derived from the master seed
_SEED_VI = 1
_SEED_SAMPLES = 2


@dataclass
class ExperimentConfig:
    problem: str = "ode1.exp"
    method: str = "error_aware_nlm"
    det_epochs: int = 10000
    vi_epochs: int = 50000
    seed: int = 0
    grid_points: int = 401
    n_posterior_samples: int = 1000
    burgers_grid: tuple = BURGERS_GRID
    burgers_time_samples: int = 64

    def validate(self) -> "ExperimentConfig":
        """This config with its counts as ``int``; the first bad field raises."""
        problem = get_entry(self.problem).problem
        if self.method not in METHODS:
            raise ConfigurationError(f"unknown method {self.method!r}; known: {METHODS}")
        if self.method == "error_aware_nlm" and isinstance(problem, BurgersProblem):
            raise ConfigurationError(
                "error_aware_nlm is not defined for Burgers; use deterministic or a VI method"
            )
        config = replace(self, **check_fields(self))
        if self.method in ("baseline_vi", "error_aware_vi"):
            check_count(f"vi_epochs of a {self.method} cell", config.vi_epochs, 1)
        return config

    def stem(self) -> str:
        return f"{self.problem}_{self.method}_det{self.det_epochs}".replace("/", "_")


@dataclass
class ExperimentReport:
    table: dict
    metrics: dict
    provenance: dict
    band: PredictiveBand
    config: ExperimentConfig
    trained: TrainedPINN
    nlm_search: PriorSearchResult = None  # error_aware_nlm cells only


def _provenance(config: ExperimentConfig) -> dict:
    fields = {k: (list(v) if isinstance(v, tuple) else v) for k, v in vars(config).items()}
    return {
        "config": fields,
        "config_hash": hashlib.sha256(json.dumps(fields, sort_keys=True).encode()).hexdigest()[:16],
        "versions": {
            "pinnbands": __version__,
            "numpy": np.__version__,
            "scipy": scipy.__version__,
        },
    }


def coverage_metrics(band: PredictiveBand, truth, k: float = 3.0):
    """(coverage fraction, mean band width) for |truth - mean| <= k * sd."""
    truth = np.asarray(truth, dtype=float)
    if truth.shape != band.mean.shape:
        raise ShapeError("truth grid does not match band grid")
    k = check_finite("k", k, 0.0)
    sd = band.sd_total
    covered = np.abs(truth - band.mean) <= k * sd
    return float(np.mean(covered)), float(np.mean(2.0 * k * sd))


def _evaluation_grid(config: ExperimentConfig) -> np.ndarray:
    """Report grid of ``config.problem``: ``grid_points`` over [x0, test end]
    for an ODE; for Burgers the ``burgers_grid`` over space x test time, rows
    x-major."""
    problem = get_entry(config.problem).problem
    if isinstance(problem, BurgersProblem):
        return collocation_points(config.burgers_grid, (problem.space_domain, problem.test_time))
    return collocation_points(config.grid_points, (problem.x0, problem.test_domain[1]))


def run_experiment(config: ExperimentConfig, trained: TrainedPINN = None) -> ExperimentReport:
    """Execute one experiment cell: train (or take ``trained``, which must be
    the model the cell trains, else :class:`ConfigurationError`), sigma_P on
    the report grid, head (deterministic, NLM or VI), then the table and
    metrics of the problem kind."""
    config = config.validate()
    entry = get_entry(config.problem)
    problem = entry.problem
    train_config = TrainConfig(config.det_epochs, config.seed, config.burgers_grid)
    if trained is None:
        trained = train_deterministic(config.problem, train_config)
    elif (trained.problem_id, trained.config) != (config.problem, train_config):
        raise ConfigurationError(f"the cell trains {config.problem!r} with {train_config}, "
                                 f"not {trained.problem_id!r} with {trained.config}")

    grid = _evaluation_grid(config)
    u_det = surrogate_values(problem, trained.params, grid)
    # Burgers has no envelope: its sigma_P is the accumulated-residual heuristic
    envelope = None if isinstance(problem, BurgersProblem) else estimate_envelope(trained)
    profile = pseudo_profile(trained, envelope, grid, config.burgers_time_samples)

    extras, search, dataset = {}, None, None
    if config.method in ("error_aware_nlm", "error_aware_vi"):
        # one simulated dataset on the training grid for either Bayesian head
        train_profile = pseudo_profile(
            trained, envelope, training_grid(trained), config.burgers_time_samples
        )
        dataset = build_simulated_dataset(trained, train_profile)
    if config.method == "deterministic":
        zeros = np.zeros_like(u_det)
        band = PredictiveBand(grid, u_det, zeros, zeros)
    elif config.method == "error_aware_nlm":
        features = feature_matrix(trained, dataset.points)
        eval_grid = make_prior_eval_grid(trained, envelope)
        search = optimize_prior(features, dataset, eval_grid)
        band = nlm_band(trained, search.posterior, profile)
        extras = {
            "prior_sigma": search.sigma,
            "prior_feasible": search.feasible,
            "prior_violations": search.n_violations,
            "prior_objective": search.objective,
        }
    else:
        run = vi_train(trained, VIConfig(config.vi_epochs, config.seed + _SEED_VI), dataset)
        samples = sample_posterior(run.q, config.n_posterior_samples, seed=config.seed + _SEED_SAMPLES)
        band = predictive_moments(samples, problem, grid, profile if dataset is not None else None)
        extras = {"elbo_final": float(run.elbo_history[-1])}

    if isinstance(problem, BurgersProblem):
        table, metrics = _burgers_table(config, trained, grid, u_det, profile, band)
    else:
        table, metrics = _ode_table(entry, grid, u_det, profile, band)
    metrics.update(
        problem=config.problem,
        method=config.method,
        det_epochs=config.det_epochs,
        final_train_loss=float(trained.loss_history[-1]) if len(trained.loss_history) else None,
        **extras,
    )
    return ExperimentReport(table, metrics, _provenance(config), band, config, trained, search)


def _ode_table(entry, grid, u_det, profile, band):
    """ODE table and metrics: truth, the bound, and 3-sigma coverage in the
    training and extrapolation regions (when a finite truth exists)."""
    if entry.analytic and not entry.singular:
        u_true = np.asarray(entry.analytic(grid), dtype=float)
    else:
        u_true = np.full_like(grid, np.nan)
    has_truth = bool(np.all(np.isfinite(u_true)))
    sd = band.sd_total
    covered = np.abs(u_true - band.mean) <= 3.0 * sd if has_truth else np.zeros_like(grid, dtype=bool)
    table = {
        "x": grid,
        "u_true": u_true,
        "u_det": u_det,
        "mean": band.mean,
        "sd_total": sd,
        "sigma_P": np.sqrt(band.sigma_p2),
        "bound": profile.sigma_p,
        "covered_3sigma": covered.astype(int),
    }
    metrics = {"mean_band_width_3sigma": float(np.mean(6.0 * sd))}
    if has_truth:
        in_train = grid <= entry.problem.train_domain[1]
        metrics.update(
            {
                "max_abs_error_det": float(np.max(np.abs(u_true - u_det))),
                "max_abs_error_mean": float(np.max(np.abs(u_true - band.mean))),
                "coverage_3sigma_train": float(np.mean(covered[in_train])),
                "coverage_3sigma_extrapolation": float(np.mean(covered[~in_train])),
                "coverage_3sigma_full": float(np.mean(covered)),
            }
        )
    return table, metrics


def _burgers_table(config, trained, grid, u_det, profile, band):
    """Burgers table and metrics: no truth exists, so the metrics are the
    hard-constraint errors and the mean sigma_P on five time slices."""
    problem = trained.problem
    nt = config.burgers_grid[1]
    xs, ts = grid[::nt, 0], grid[:nt, 1]
    ic_pts = np.stack([xs, np.zeros_like(xs)], axis=1)
    ic_err = float(
        np.max(np.abs(surrogate_values(problem, trained.params, ic_pts) - burgers_initial_condition(xs)))
    )
    bc_err = 0.0
    for xb in problem.space_domain:
        pts = np.stack([np.full_like(ts, xb), ts], axis=1)
        bc_err = max(bc_err, float(np.max(np.abs(surrogate_values(problem, trained.params, pts)))))
    metrics = {"max_ic_error": ic_err, "max_bc_error": bc_err}
    for t in (0.0, 0.5, 1.0, 1.5, 2.0):
        pts = np.stack([xs, np.full_like(xs, t)], axis=1)
        metrics[f"mean_sigma_P_t{t:g}"] = float(
            np.mean(pseudo_profile(trained, None, pts, config.burgers_time_samples).sigma_p)
        )
    table = {
        "x": grid[:, 0],
        "t": grid[:, 1],
        "u_det": u_det,
        "mean": band.mean,
        "sd_total": band.sd_total,
        "sigma_P": profile.sigma_p,
    }
    return table, metrics


# ---------------------------------------------------------------------------
# output emission
# ---------------------------------------------------------------------------


def emit_outputs(report: ExperimentReport, out_dir):
    """Write the per-point table, metrics record, and band file; returns paths."""
    os.makedirs(out_dir, exist_ok=True)
    stem = report.config.stem()
    path = os.path.join(out_dir, f"{stem}.csv")
    write_csv(report.table, path)
    written = [path]
    path = os.path.join(out_dir, f"{stem}_metrics.json")
    # RFC 8259 has no Infinity or NaN: a non-finite metric is written as null
    metrics = {
        k: None if isinstance(v, float) and not np.isfinite(v) else v
        for k, v in report.metrics.items()
    }
    with open(path, "w") as fh:
        json.dump({"metrics": metrics, "provenance": report.provenance}, fh,
                  indent=2, sort_keys=True, allow_nan=False)
    written.append(path)
    if report.band.grid.ndim == 1:
        path = os.path.join(out_dir, f"{stem}_band.dat")
        mean, sd = report.band.mean, report.band.sd_total
        truth = report.table.get("u_true", np.full_like(mean, np.nan))
        rows = np.column_stack([report.band.grid, mean, mean - 3 * sd, mean + 3 * sd, truth])
        np.savetxt(path, rows, fmt="%.17g", header="x mean lower3sigma upper3sigma truth")
        written.append(path)
    return written


def save_artifacts(report: ExperimentReport, out_dir):
    """Optional extras: trained weights, and the NLM posterior when present."""
    os.makedirs(out_dir, exist_ok=True)
    stem = report.config.stem()
    prefix = os.path.join(out_dir, stem)
    save_trained(report.trained, prefix)
    paths = [f"{prefix}.weights", f"{prefix}.meta.json"]
    search = report.nlm_search
    if search is not None:
        path = os.path.join(out_dir, f"{stem}_posterior.json")
        export_posterior_json(search, path)
        paths.append(path)
    return paths


# ---------------------------------------------------------------------------
# presets
# ---------------------------------------------------------------------------

_HARMONIC = tuple(f"ode2.harmonic.{s}" for s in ("exp", "poly", "log", "chirp"))
_DAMPED = tuple(f"ode2.damped.{s}" for s in ("exp", "poly", "log", "trig"))

PRESETS = {
    # figure-style bundles at benchmark budgets: ExperimentConfig defaults unless overridden
    "fig1": {
        "cells": [(p, "baseline_vi") for p in FIRST_ORDER_IDS],
        "overrides": {"det_epochs": 10},
    },
    "fig2": {
        "cells": [(p, m) for p in FIRST_ORDER_IDS for m in ("error_aware_nlm", "error_aware_vi")],
        "overrides": {},
    },
    "fig4": {
        "cells": [(p, m) for p in _HARMONIC for m in ("error_aware_nlm", "error_aware_vi")],
        "overrides": {},
    },
    "fig5": {
        "cells": [(p, m) for p in _DAMPED for m in ("error_aware_nlm", "error_aware_vi")],
        "overrides": {},
    },
    "burgers": {
        "cells": [("burgers", "error_aware_vi")],
        "overrides": {"det_epochs": 20000, "vi_epochs": 20000},
    },
    # reduced budgets for desk-scale runs and CI
    "desk": {
        "cells": None,
        "overrides": {
            "det_epochs": 2000,
            "vi_epochs": 5000,
            "grid_points": 201,
            "burgers_grid": (50, 50),
        },
    },
}


def select_cells(problem=None, method=None, preset=None, **overrides):
    """The configs a solve runs: the cell ``problem`` x ``method``, else the
    cells of ``preset``; the preset's budgets, then ``overrides``, replace the
    :class:`ExperimentConfig` defaults.  A lone ``problem`` or ``method``, an
    unknown preset, a preset of budgets only without a cell, or neither a
    cell nor a preset raises :class:`ConfigurationError`."""
    if (problem is None) != (method is None):
        raise ConfigurationError("solve needs --problem and --method together, or neither")
    if preset and preset not in PRESETS:
        raise ConfigurationError(f"unknown preset {preset!r}; known: {sorted(PRESETS)}")
    chosen = PRESETS[preset] if preset else {"cells": None, "overrides": {}}
    cells = [(problem, method)] if problem is not None else chosen["cells"]
    if cells is None and not preset:
        raise ConfigurationError("solve needs --problem and --method, or a preset with cells")
    if cells is None:
        raise ConfigurationError(
            f"preset {preset!r} defines budgets only; also pass --problem and --method"
        )
    budgets = {**chosen["overrides"], **overrides}
    return [ExperimentConfig(problem=p, method=m, **budgets) for p, m in cells]
