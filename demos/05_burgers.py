"""Burgers' equation: heuristic uncertainty for a nonlinear PDE.

No rigorous error bound exists here, so the pseudo-aleatoric term falls
back to the accumulated absolute residual over time,
sigma_P(x, t) = t * mean_{tau <= t} |r(x, tau)|.  It vanishes at t = 0
(where the initial condition is exact by construction) and can only grow
with t, mirroring how trust in the surrogate decays as it integrates its
own errors forward.  Desk-scale settings keep this demo around a minute;
the benchmark scale is a 100x100 grid for 20000 epochs.

Run:  python demos/05_burgers.py
"""

import numpy as np

from pinnbands import pseudo_profile, surrogate_values
from pinnbands.problems import burgers_initial_condition, get_problem
from pinnbands.training import default_train_config, train_deterministic

nx = nt = 50
config = default_train_config("burgers", epochs=2000, seed=0, grid=(nx, nt))
print(f"training Burgers (nu = 0.01/pi) on a {nx}x{nt} jittered grid, "
      f"{config.epochs} epochs ...")
trained = train_deterministic("burgers", config)
problem = get_problem("burgers")
print(f"final residual MSE: {trained.loss_history[-1]:.4f}")

xs = np.linspace(-1.0, 1.0, 41)
ic = surrogate_values(problem, trained.params, np.stack([xs, np.zeros_like(xs)], axis=1))
print(f"max |u(x,0) + sin(pi x)| = {np.max(np.abs(ic - burgers_initial_condition(xs))):.1e}"
      " (hard constraint, exact)")
ts = np.linspace(0.0, 2.0, 11)
for xb in (-1.0, 1.0):
    wall = surrogate_values(problem, trained.params, np.stack([np.full_like(ts, xb), ts], axis=1))
    print(f"max |u({xb:+.0f}, t)| = {np.max(np.abs(wall)):.1e}")

print("\naccumulated-residual uncertainty, averaged over x:")
print(f"{'t':>5} {'mean sigma_P':>13} {'max sigma_P':>13}")
for t in (0.0, 0.5, 1.0, 1.5, 2.0):
    sig = pseudo_profile(trained, None, np.stack([xs, np.full_like(xs, t)], axis=1)).sigma_p
    tag = "  <- beyond training time" if t > 1.0 else ""
    print(f"{t:5.1f} {np.mean(sig):13.4f} {np.max(sig):13.4f}{tag}")

mid = surrogate_values(problem, trained.params, np.stack([xs, np.full_like(xs, 0.5)], axis=1))
print("\nslice u(x, t=0.5), every 4th point:")
print("  x: " + " ".join(f"{v:6.2f}" for v in xs[::4]))
print("  u: " + " ".join(f"{v:6.3f}" for v in mid[::4]))
