"""Variational bands: why the error term matters.

Both runs below use the same deliberately underfit network (10 epochs) and
the same mean-field Gaussian machinery; they differ only in the likelihood.
The baseline places a unit-variance Gaussian on the residuals and gets its
uncertainty purely from the weight posterior - which says nothing useful
outside the training window.  The error-aware run instead treats the
network's own outputs as data with the error bound as noise, so the band
inflates exactly where the bound says the surrogate cannot be trusted.

Run:  python demos/04_vi_bands.py     (about ten seconds)
"""

import numpy as np

from pinnbands import (
    TrainConfig,
    VIConfig,
    analytic_solution,
    build_simulated_dataset,
    estimate_envelope,
    predictive_moments,
    pseudo_profile,
    sample_posterior,
    train_deterministic,
    vi_train,
)
from pinnbands.training import training_grid

PROBLEM = "ode1.exp"

trained = train_deterministic(PROBLEM, TrainConfig(epochs=10, seed=0))
print(f"{PROBLEM}: 10-epoch underfit network, residual MSE "
      f"{trained.loss_history[-1]:.3f}")

grid = np.linspace(0.0, 4.0, 201)
truth = analytic_solution(PROBLEM, grid)
envelope = estimate_envelope(trained)
dataset = build_simulated_dataset(
    trained, pseudo_profile(trained, envelope, training_grid(trained))
)

# the baseline gets no dataset, so it fits the residuals instead
runs = {}
for label, data, grid_profile in (("baseline", None, None),
                                  ("error-aware", dataset, pseudo_profile(trained, envelope, grid))):
    config = VIConfig(prior_sigma=float(np.sqrt(0.1)), epochs=5000, seed=0)
    run = vi_train(trained, config, data)
    samples = sample_posterior(run.q, 1000, seed=2)
    runs[label] = predictive_moments(samples, trained.problem, grid, grid_profile)
    print(f"  {label}: trained 5000 VI epochs, final ELBO {run.elbo_history[-1]:.1f}")

print(f"\n3-sigma coverage of the true solution:")
for region, mask in (("[0,2] train", grid <= 2.0), ("[2,4] extrapolation", grid >= 2.0)):
    line = f"  {region:22s}"
    for label, band in runs.items():
        covered = np.mean(np.abs(truth - band.mean)[mask] <= 3.0 * band.sd_total[mask])
        line += f"  {label}: {covered:6.3f}"
    print(line)

i = np.argmin(np.abs(grid - 3.5))
print(f"\nat t = 3.5: truth {truth[i]:.2f}")
for label, band in runs.items():
    print(f"  {label:12s} mean {band.mean[i]:8.2f} +- {3 * band.sd_total[i]:.2f} (3 sd)")
