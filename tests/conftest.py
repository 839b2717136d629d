"""Shared fixtures: expensive trained models are built once per session."""

import time

import numpy as np
import pytest

from pinnbands.bounds import estimate_envelope, pseudo_profile
from pinnbands.errors import ConfigurationError
from pinnbands.nlm import build_simulated_dataset
from pinnbands.problems import NONSINGULAR_FIRST_ORDER_IDS, ODEProblem
from pinnbands.training import TrainConfig, train_deterministic, training_grid

BENCH_SEED = 0

TRAIN_SECONDS = {}


def moving_average(trace, window: int) -> np.ndarray:
    """Means of every ``window`` consecutive entries of ``trace``."""
    trace = np.asarray(trace, dtype=float)
    if window < 1 or window > len(trace):
        raise ConfigurationError("moving-average window outside trace length")
    kernel = np.ones(window) / window
    return np.convolve(trace, kernel, mode="valid")


def rate_problem(lam1, lam2=None):
    """An ODE on [0, 4] whose bound kernel has decay rate ``lam1`` (order 1)
    or rates ``(lam1, lam2)``: the operator (s + lam1)(s + lam2), i.e.
    c1 = lam1 + lam2 and c0 = lam1 * lam2."""
    def zero(t):
        return np.zeros_like(np.asarray(t, dtype=float))

    if lam2 is None:
        return ODEProblem(order=1, lam=lam1, source=zero, u0=1.0)
    return ODEProblem(order=2, c1=lam1 + lam2, c0=lam1 * lam2, source=zero, u0=1.0, u0_prime=0.0)


def training_dataset(trained, envelope):
    """The simulated dataset on the training grid, as run_experiment builds it."""
    profile = pseudo_profile(trained, envelope, training_grid(trained))
    return build_simulated_dataset(trained, profile)


@pytest.fixture(scope="session")
def models_10000():
    """Fully trained first-order benchmark models (10000 epochs, seed 0)."""
    out = {}
    for pid in NONSINGULAR_FIRST_ORDER_IDS:
        start = time.perf_counter()
        out[pid] = train_deterministic(pid, TrainConfig(10000, BENCH_SEED))
        TRAIN_SECONDS[pid] = time.perf_counter() - start
    return out


@pytest.fixture(scope="session")
def models_10():
    """Deliberately underfit first-order models (10 epochs, seed 0)."""
    return {
        pid: train_deterministic(pid, TrainConfig(10, BENCH_SEED))
        for pid in NONSINGULAR_FIRST_ORDER_IDS
    }


@pytest.fixture(scope="session")
def envelopes_10000(models_10000):
    return {pid: estimate_envelope(tr, oversample=10, safety_factor=1.1)
            for pid, tr in models_10000.items()}


@pytest.fixture(scope="session")
def envelopes_10(models_10):
    return {pid: estimate_envelope(tr, oversample=10, safety_factor=1.1)
            for pid, tr in models_10.items()}


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(12345)
