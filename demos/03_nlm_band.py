"""Exact Bayesian bands from a linear head on the trained features.

The trained network's last hidden layer is a feature basis.  A Gaussian
linear head on those features has a closed-form posterior when each
"observation" - the network's own output at a collocation point - carries
the error bound at that point as its noise level.  The resulting band mixes
two variances: the bound-driven pseudo-aleatoric part and the epistemic
part from the head posterior.  The prior scale is picked by a 100-point
grid search that insists the 3-sigma band stays outside the error bound.

Run:  python demos/03_nlm_band.py
"""

import numpy as np

from pinnbands import (
    TrainConfig,
    analytic_solution,
    build_simulated_dataset,
    coverage_metrics,
    default_candidate_sigmas,
    estimate_envelope,
    feature_matrix,
    nlm_band,
    optimize_prior,
    pseudo_profile,
    train_deterministic,
)
from pinnbands.bands import band_to_csv
from pinnbands.nlm import make_prior_eval_grid
from pinnbands.training import training_grid

PROBLEM = "ode1.cos"

trained = train_deterministic(PROBLEM, TrainConfig(epochs=10000, seed=0))
envelope = estimate_envelope(trained)

train_profile = pseudo_profile(trained, envelope, training_grid(trained))
dataset = build_simulated_dataset(trained, train_profile)
features = feature_matrix(trained, dataset.points)
search = optimize_prior(
    features, dataset, make_prior_eval_grid(trained, envelope), default_candidate_sigmas()
)
print(f"prior scan: sigma* = {search.sigma:.3f}, feasible = {search.feasible}, "
      f"objective = {search.objective:.4f}")

grid = np.linspace(0.0, 4.0, 401)
profile = pseudo_profile(trained, envelope, grid)
band = nlm_band(trained, search.posterior, profile)
truth = analytic_solution(PROBLEM, grid)
fraction, width = coverage_metrics(band, truth, k=3.0)
print(f"3-sigma coverage on [0,4]: {fraction:.4f}   mean band width: {width:.4f}")

out = "nlm_band.csv"
band_to_csv(band, out)
print(f"band written to {out} (columns x, mean, epistemic_var, sigma_P2, total_var)")

print(f"\n{'t':>5} {'mean':>10} {'3 sd':>10} {'truth':>10} {'inside?':>8}")
for x in (0.0, 1.0, 2.0, 3.0, 4.0):
    i = np.argmin(np.abs(grid - x))
    sd3 = 3.0 * np.sqrt(band.total_var[i])
    inside = abs(truth[i] - band.mean[i]) <= sd3
    print(f"{x:5.1f} {band.mean[i]:10.4f} {sd3:10.4f} {truth[i]:10.4f} {str(inside):>8}")
