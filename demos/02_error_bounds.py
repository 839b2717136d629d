"""From residuals to a guaranteed error bound.

For u' + lam u = f with the initial condition enforced exactly, the gap to
the true solution satisfies

    |u(x) - u_net(x)| <= integral_0^x exp(-lam (x - xi)) |r(xi)| d xi,

where r is the equation residual of the network.  We cover the test domain
with a partition, record a sampled majorant of |r| on each piece (times a
safety factor), and evaluate the integral in closed form.  The punchline:
the bound needs no knowledge of the true solution, yet it majorizes the
actual error everywhere, including far outside the training window.

Run:  python demos/02_error_bounds.py
"""

import numpy as np

from pinnbands import (
    TrainConfig,
    analytic_solution,
    estimate_envelope,
    pseudo_sigma,
    surrogate_values,
    train_deterministic,
)

PROBLEM = "ode1.poly"

for epochs in (10, 10000):
    trained = train_deterministic(PROBLEM, TrainConfig(epochs=epochs, seed=0))
    # 40 equal pieces of [0, 4]
    envelope = estimate_envelope(trained)
    grid = np.linspace(0.0, 4.0, 401)
    bound = pseudo_sigma(trained.problem, envelope, grid)
    error = np.abs(
        analytic_solution(PROBLEM, grid) - surrogate_values(trained.problem, trained.params, grid)
    )
    print(f"\n{PROBLEM}, {epochs} epochs:")
    print(f"  envelope: {len(envelope.epsilons)} pieces, "
          f"max eps = {envelope.epsilons.max():.3e}")
    for x in (0.5, 1.0, 2.0, 3.0, 4.0):
        i = np.argmin(np.abs(grid - x))
        print(f"  x={x:3.1f}  |error| = {error[i]:9.3e}   bound = {bound[i]:9.3e}")
    violations = int(np.sum(error > bound))
    print(f"  bound violations on 401 points: {violations}")
    assert violations == 0
