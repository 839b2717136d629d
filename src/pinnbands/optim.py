"""Adam optimizer over one flat parameter vector.

The network's parameters live in one contiguous vector (see
:class:`pinnbands.network.NetworkParameters`), so an Adam step is a handful
of vector operations and a single finite check.  Updates are pure: both the
new values and the new state are fresh arrays.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ShapeError, TrainingDivergedError
from .network import Gradients, NetworkParameters


@dataclass
class AdamState:
    first_moment: np.ndarray
    second_moment: np.ndarray
    step_count: int = 0
    learning_rate: float = 0.01
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8


def init_adam(theta, learning_rate=0.01, beta1=0.9, beta2=0.999, eps=1e-8) -> AdamState:
    """Zero moments shaped like the flat vector ``theta``."""
    return AdamState(
        first_moment=np.zeros_like(theta),
        second_moment=np.zeros_like(theta),
        step_count=0,
        learning_rate=float(learning_rate),
        beta1=float(beta1),
        beta2=float(beta2),
        eps=float(eps),
    )


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
    if not np.all(np.isfinite(grad)):
        raise TrainingDivergedError("non-finite gradient entries")

    t = state.step_count + 1
    b1, b2 = state.beta1, state.beta2
    bc1 = 1.0 - b1**t
    bc2 = 1.0 - b2**t
    m = b1 * state.first_moment + (1.0 - b1) * grad
    s = b2 * state.second_moment + (1.0 - b2) * grad * grad
    step = state.learning_rate * (m / bc1) / (np.sqrt(s / bc2) + state.eps)
    return theta - step, AdamState(m, s, t, state.learning_rate, b1, b2, state.eps)


def adam_step(params: NetworkParameters, grads: Gradients, state: AdamState):
    """Adam update for network parameters; returns (params, state)."""
    theta, state = adam_step_arrays(params.theta, grads.theta, state)
    return NetworkParameters(params.layer_sizes, theta, params.activation), state
