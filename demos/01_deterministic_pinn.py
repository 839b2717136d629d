"""Train a network to satisfy an ODE and compare it with the exact solution.

The network never sees solution values: the loss is the squared equation
residual u' + 3u - f at 32 collocation points, and the initial condition
u(0) = 2 holds exactly by construction.  We then evaluate on [0, 4] - twice
the training window - to see where the surrogate quietly goes wrong, which
is precisely what the uncertainty machinery in the later demos quantifies.

Run:  python demos/01_deterministic_pinn.py
"""

import numpy as np

from pinnbands import (
    TrainConfig,
    analytic_solution,
    mse_residual_loss,
    surrogate_values,
    train_deterministic,
)
from pinnbands.problems import get_problem

PROBLEM = "ode1.exp"  # u' + 3u = 4 e^t, u(0) = 2

# the problem states the set-up: a 2x32 tanh network, Adam at its learning
# rate, 32 equally spaced points on its training domain
config = TrainConfig(epochs=10000, seed=0)
print(f"training {PROBLEM} for {config.epochs} epochs "
      f"(2x32 tanh, lr {get_problem(PROBLEM).learning_rate}, 32 points on [0, 2]) ...")
trained = train_deterministic(PROBLEM, config)
print(f"final residual MSE on the training grid: {trained.loss_history[-1]:.3e}")

grid = np.linspace(0.0, 4.0, 17)
u_hat = surrogate_values(trained.problem, trained.params, grid)
u_true = analytic_solution(PROBLEM, grid)

print(f"\n{'t':>5} {'network':>12} {'exact':>12} {'abs error':>12}")
for t, a, b in zip(grid, u_hat, u_true):
    marker = "  <- outside training window" if t > 2.0 else ""
    print(f"{t:5.2f} {a:12.5f} {b:12.5f} {abs(a - b):12.3e}{marker}")

inside = grid <= 2.0
print(f"\nmax error on [0,2]: {np.max(np.abs(u_hat - u_true)[inside]):.2e}")
print(f"max error on (2,4]: {np.max(np.abs(u_hat - u_true)[~inside]):.2e}")
print("the residual is only minimized where the model was trained:")
for a, b in ((0.0, 2.0), (2.0, 4.0)):
    pts = np.linspace(a, b, 101)
    print(f"  residual MSE on [{a:g},{b:g}]: "
          f"{mse_residual_loss(trained.problem, trained.params, pts):.3e}")
