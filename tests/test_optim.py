"""Adam optimizer behavior, including the scalar recursion oracle."""

import numpy as np
import pytest

from pinnbands.errors import TrainingDivergedError
from pinnbands.network import Gradients, init_network
from pinnbands.optim import adam_step, adam_step_arrays, init_adam


def test_zero_gradient_keeps_parameters():
    p = init_network([1, 4, 1], "tanh", seed=0)
    state = init_adam(p.theta, learning_rate=0.01)
    zero = Gradients(p.layer_sizes, np.zeros_like(p.theta))
    new_p, new_state = adam_step(p, zero, state)
    assert np.array_equal(p.theta, new_p.theta)
    assert new_state.step_count == 1


def test_first_step_hand_value():
    # w = 0, grad = 1, lr = 0.01: bias-corrected step is lr / (1 + eps)
    values = np.array([0.0])
    state = init_adam(values, learning_rate=0.01)
    new, state = adam_step_arrays(values, np.array([1.0]), state)
    assert new[0] == pytest.approx(-0.01, abs=1e-9)
    assert state.step_count == 1


def test_quadratic_convergence_matches_scalar_recursion():
    # minimize w^2 from w=1; oracle is the same recursion written out by hand
    lr, b1, b2, eps = 0.01, 0.9, 0.999, 1e-8
    w, m, v = 1.0, 0.0, 0.0
    for t in range(1, 1001):
        g = 2.0 * w
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        w -= lr * (m / (1 - b1**t)) / (np.sqrt(v / (1 - b2**t)) + eps)
    assert abs(w) < 1e-2

    values = np.array([1.0])
    state = init_adam(values, learning_rate=lr)
    for _ in range(1000):
        values, state = adam_step_arrays(values, 2.0 * values, state)
    assert values[0] == pytest.approx(w, abs=1e-12)
    assert state.step_count == 1000


def test_nan_gradients_raise():
    values = np.array([0.0])
    state = init_adam(values)
    with pytest.raises(TrainingDivergedError):
        adam_step_arrays(values, np.array([np.nan]), state)


def test_update_is_pure():
    values = np.array([1.0, 2.0])
    state = init_adam(values)
    before = values.copy()
    adam_step_arrays(values, np.array([0.5, 0.5]), state)
    assert np.array_equal(values, before)
    assert state.step_count == 0


def test_flat_step_matches_per_array_adam():
    # oracle: the same recursion run array by array over a network-like list
    rng = np.random.default_rng(0)
    shapes = [(4, 1), (4, 4), (1, 4), (4,), (4,), (1,)]
    values = [rng.normal(size=s) for s in shapes]
    m = [np.zeros(s) for s in shapes]
    v = [np.zeros(s) for s in shapes]
    lr, b1, b2, eps = 0.03, 0.9, 0.999, 1e-8
    flat = np.concatenate([a.ravel() for a in values])
    state = init_adam(flat, learning_rate=lr)
    for t in range(1, 6):
        grads = [rng.normal(size=s) for s in shapes]
        flat, state = adam_step_arrays(flat, np.concatenate([g.ravel() for g in grads]), state)
        for i, g in enumerate(grads):
            m[i] = b1 * m[i] + (1.0 - b1) * g
            v[i] = b2 * v[i] + (1.0 - b2) * g * g
            step = lr * (m[i] / (1.0 - b1**t)) / (np.sqrt(v[i] / (1.0 - b2**t)) + eps)
            values[i] = values[i] - step
        assert np.array_equal(flat, np.concatenate([a.ravel() for a in values]))
    assert state.step_count == 5


def test_adam_step_keeps_layer_views():
    p = init_network([1, 4, 1], "tanh", seed=0)
    state = init_adam(p.theta)
    new_p, _ = adam_step(p, Gradients(p.layer_sizes, np.ones_like(p.theta)), state)
    assert all(np.shares_memory(a, new_p.theta) for a in new_p.weights + new_p.biases)
    assert not np.shares_memory(new_p.theta, p.theta)
