"""Adam optimizer over one flat parameter vector.

The network's parameters live in one contiguous vector (see
:class:`pinnbands.network.NetworkParameters`), so an Adam step is a handful
of vector operations and a single finite check.  Updates are pure: both the
new values and the new state are fresh arrays, and the inputs are untouched.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ShapeError, TrainingDivergedError
from .network import NetworkParameters

# the moment decay rates and the denominator guard, the only values in use
BETA1, BETA2, EPS = 0.9, 0.999, 1e-8


@dataclass
class AdamState:
    first_moment: np.ndarray
    second_moment: np.ndarray
    step_count: int
    learning_rate: float


def init_adam(theta, learning_rate) -> AdamState:
    """Zero moments shaped like the flat vector ``theta``."""
    return AdamState(np.zeros_like(theta), np.zeros_like(theta), 0, float(learning_rate))


def adam_step_arrays(theta, grad, state: AdamState):
    """One bias-corrected Adam update of a flat vector; returns (new theta, new state).

    A non-finite gradient entry raises :class:`TrainingDivergedError`; this is
    the only finite check of a training step.
    """
    if theta.shape != grad.shape or theta.shape != state.first_moment.shape:
        raise ShapeError(
            f"Adam update: value {theta.shape}, gradient {grad.shape}, "
            f"state {state.first_moment.shape} differ"
        )
    if not np.isfinite(grad).all():
        raise TrainingDivergedError("non-finite gradient entries")

    t = state.step_count + 1
    bc1 = 1.0 - BETA1**t
    bc2 = 1.0 - BETA2**t
    m = BETA1 * state.first_moment + (1.0 - BETA1) * grad
    s = BETA2 * state.second_moment + (1.0 - BETA2) * grad * grad
    step = state.learning_rate * (m / bc1) / (np.sqrt(s / bc2) + EPS)
    return theta - step, AdamState(m, s, t, state.learning_rate)


def adam_step(params: NetworkParameters, grads: NetworkParameters, state: AdamState):
    """Adam update for network parameters, with ``grads`` in their layout
    (as :func:`pinnbands.network.backward` returns them); returns (params, state)."""
    theta, state = adam_step_arrays(params.theta, grads.theta, state)
    return NetworkParameters(params.layer_sizes, theta, params.activation), state
