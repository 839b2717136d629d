"""Deterministic residual training: minimize mean squared residual with Adam.

One epoch is one full-batch Adam step over the fixed collocation grid
(the grid is small enough that batching below the full set is only used
when explicitly configured).  Runs are bit-reproducible for a fixed seed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import ConfigurationError, TrainingDivergedError
from .network import backward, forward_jets_batch, init_network
from .optim import adam_step, init_adam
from .problems import (
    BurgersProblem,
    get_entry,
    residual_from_jets,
    residual_jet_partials,
    residual_pieces,
    residual_values,
)
from .weights_io import load_weights, save_weights


@dataclass
class GridSpec:
    """Collocation grid: ``count`` points (or (nx, nt) for space-time grids).

    ``jitter`` > 0 adds per-epoch uniform coordinate noise of that amplitude,
    clipped to the domain; 0 keeps the grid fixed.
    """

    count: object = 32
    domain: object = (0.0, 2.0)
    equally_spaced: bool = True
    jitter: float = 0.0


@dataclass
class TrainConfig:
    epochs: int = 10000
    batch_size: int = 32
    learning_rate: float = 0.01
    collocation: GridSpec = field(default_factory=GridSpec)
    seed: int = 0
    hidden: tuple = (32, 32)
    activation: str = "tanh"


@dataclass
class TrainedPINN:
    params: object
    problem: object
    loss_history: np.ndarray
    config: TrainConfig
    problem_id: str = ""


def default_train_config(problem_id: str, epochs: Optional[int] = None, seed: int = 0) -> TrainConfig:
    """Benchmark defaults: 2x32 tanh, lr 0.01, 32 equally spaced points for
    ODEs; 2x32 sigmoid, lr 1e-3, jittered 100x100 grid for Burgers."""
    entry = get_entry(problem_id)
    if isinstance(entry.problem, BurgersProblem):
        pr = entry.problem
        nx = nt = 100
        cell = (pr.space_domain[1] - pr.space_domain[0]) / (nx - 1)
        grid = GridSpec(
            count=(nx, nt),
            domain=(pr.space_domain, pr.train_time),
            jitter=cell / 2.0,
        )
        return TrainConfig(
            epochs=20000 if epochs is None else epochs,
            batch_size=nx * nt,
            learning_rate=1e-3,
            collocation=grid,
            seed=seed,
            activation="sigmoid",
        )
    pr = entry.problem
    grid = GridSpec(count=32, domain=tuple(pr.train_domain))
    return TrainConfig(
        epochs=10000 if epochs is None else epochs,
        batch_size=32,
        learning_rate=0.01,
        collocation=grid,
        seed=seed,
        activation="tanh",
    )


def collocation_points(spec: GridSpec, rng=None) -> np.ndarray:
    """Materialize a GridSpec; 1-D -> (M,), 2-D -> (M, 2) with columns (x, t)."""
    if isinstance(spec.count, (tuple, list)):
        (nx, nt) = spec.count
        (xa, xb), (ta, tb) = spec.domain
        if not spec.equally_spaced:
            raise ConfigurationError("2-D collocation supports equally spaced grids only")
        xs = np.linspace(xa, xb, int(nx))
        ts = np.linspace(ta, tb, int(nt))
        gx, gt = np.meshgrid(xs, ts, indexing="ij")
        return np.stack([gx.ravel(), gt.ravel()], axis=1)
    a, b = spec.domain
    n = int(spec.count)
    if n < 1:
        raise ConfigurationError("collocation count must be positive")
    if spec.equally_spaced:
        return np.linspace(a, b, n)
    if rng is None:
        rng = np.random.default_rng(0)
    return np.sort(rng.uniform(a, b, size=n))


def _check_collocation_domain(problem, spec: GridSpec):
    if isinstance(problem, BurgersProblem):
        (xa, xb), (ta, tb) = spec.domain
        sa, sb = problem.space_domain
        wa, wb = problem.train_time
        if xa < sa or xb > sb or ta < wa or tb > wb:
            raise ConfigurationError("collocation grid outside the Burgers training window")
        return
    a, b = spec.domain
    pa, pb = problem.train_domain
    if a < pa - 1e-12 or b > pb + 1e-12:
        raise ConfigurationError(
            f"collocation domain [{a}, {b}] outside training domain [{pa}, {pb}]"
        )


def _jittered(points, spec: GridSpec, rng) -> np.ndarray:
    if spec.jitter <= 0:
        return points
    noise = rng.uniform(-spec.jitter, spec.jitter, size=points.shape)
    moved = points + noise
    if points.ndim == 1:
        a, b = spec.domain
        return np.clip(moved, a, b)
    (xa, xb), (ta, tb) = spec.domain
    moved[:, 0] = np.clip(moved[:, 0], xa, xb)
    moved[:, 1] = np.clip(moved[:, 1], ta, tb)
    return moved


def residual_loss_and_grads(problem, params, points):
    """Mean squared residual over ``points`` and its parameter gradient."""
    pts = np.asarray(points, dtype=float)
    X = pts[:, None] if pts.ndim == 1 else pts
    jets, tape = forward_jets_batch(params, X, problem.derivs, need_tape=True)
    pieces = residual_pieces(problem, pts)
    r = residual_from_jets(problem, pts, jets, pieces)
    loss = float(np.mean(r * r))
    dv, dslots = residual_jet_partials(problem, pts, jets, pieces)
    rbar = 2.0 * r / len(r)
    grads = backward(params, tape, rbar * dv, rbar * dslots)
    return loss, grads


def mse_residual_loss(problem, params, points) -> float:
    """Mean of squared residuals over the given points."""
    r = residual_values(problem, params, np.asarray(points, dtype=float))
    return float(np.mean(r * r))


def train_deterministic(problem_or_id, config: TrainConfig) -> TrainedPINN:
    """Run residual training and return the trained surrogate.

    Deterministic for a fixed config (seed included).  A non-finite loss
    aborts with the epoch index instead of returning NaN output.
    """
    if isinstance(problem_or_id, str):
        problem_id = problem_or_id
        problem = get_entry(problem_id).problem
    else:
        problem_id = ""
        problem = problem_or_id

    _check_collocation_domain(problem, config.collocation)
    base_points = collocation_points(config.collocation)
    n_points = len(base_points)
    if config.batch_size > n_points:
        raise ConfigurationError(
            f"batch_size {config.batch_size} exceeds collocation count {n_points}"
        )

    layer_sizes = [problem.input_dim, *config.hidden, 1]
    params = init_network(layer_sizes, config.activation, seed=config.seed)
    state = init_adam(params.theta, learning_rate=config.learning_rate)
    rng = np.random.default_rng(config.seed + 1)

    history = np.empty(config.epochs)
    for epoch in range(config.epochs):
        pts = _jittered(base_points, config.collocation, rng)
        epoch_loss = 0.0
        for start in range(0, n_points, config.batch_size):
            batch = pts[start : start + config.batch_size]
            loss, grads = residual_loss_and_grads(problem, params, batch)
            if not np.isfinite(loss):
                raise TrainingDivergedError(
                    f"non-finite residual loss at epoch {epoch}", epoch=epoch
                )
            try:
                params, state = adam_step(params, grads, state)
            except TrainingDivergedError as exc:
                raise TrainingDivergedError(
                    f"non-finite gradients at epoch {epoch}", epoch=epoch
                ) from exc
            epoch_loss += loss * len(batch)
        history[epoch] = epoch_loss / n_points

    return TrainedPINN(params, problem, history, config, problem_id=problem_id)


def training_grid(trained: TrainedPINN) -> np.ndarray:
    return collocation_points(trained.config.collocation)


# --- serialization: weights file plus sidecar metadata -----------------------


def save_trained(trained: TrainedPINN, path_prefix: str):
    """Write ``<prefix>.weights`` and ``<prefix>.meta.json``."""
    save_weights(trained.params, f"{path_prefix}.weights")
    cfg = trained.config
    meta = {
        "problem_id": trained.problem_id,
        "final_loss": float(trained.loss_history[-1]) if len(trained.loss_history) else None,
        "epochs": cfg.epochs,
        "batch_size": cfg.batch_size,
        "learning_rate": cfg.learning_rate,
        "seed": cfg.seed,
        "hidden": list(cfg.hidden),
        "activation": cfg.activation,
        "collocation": {
            "count": cfg.collocation.count if not isinstance(cfg.collocation.count, tuple)
            else list(cfg.collocation.count),
            "domain": np.asarray(cfg.collocation.domain, dtype=float).tolist(),
            "equally_spaced": cfg.collocation.equally_spaced,
            "jitter": cfg.collocation.jitter,
        },
    }
    with open(f"{path_prefix}.meta.json", "w") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)


def load_trained(path_prefix: str) -> TrainedPINN:
    params = load_weights(f"{path_prefix}.weights")
    with open(f"{path_prefix}.meta.json") as fh:
        meta = json.load(fh)
    problem_id = meta["problem_id"]
    if not problem_id:
        raise ConfigurationError("metadata has no problem id; cannot rebuild problem")
    coll = meta["collocation"]
    count = coll["count"]
    domain = coll["domain"]
    if isinstance(count, list):
        count = tuple(count)
        domain = (tuple(domain[0]), tuple(domain[1]))
    else:
        domain = tuple(domain)
    config = TrainConfig(
        epochs=meta["epochs"],
        batch_size=meta["batch_size"],
        learning_rate=meta["learning_rate"],
        collocation=GridSpec(count, domain, coll["equally_spaced"], coll["jitter"]),
        seed=meta["seed"],
        hidden=tuple(meta["hidden"]),
        activation=meta["activation"],
    )
    history = np.array([meta["final_loss"]]) if meta["final_loss"] is not None else np.empty(0)
    return TrainedPINN(params, get_entry(problem_id).problem, history, config, problem_id)
