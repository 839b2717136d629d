"""Deterministic residual training: minimize mean squared residual with Adam.

One epoch is one full-batch Adam step over the collocation grid, whose loss
and gradient are summed over fixed blocks of ``ROW_BLOCK`` rows.  Runs are
bit-reproducible for a fixed seed.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import ConfigurationError, TrainingDivergedError, check_count, check_pair
from .network import backward, forward_jets_batch, init_network, row_blocks
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
    """Equally spaced collocation grid: ``count`` points (or (nx, nt) for
    space-time grids).

    ``jitter`` > 0 adds per-epoch uniform coordinate noise of that amplitude,
    clipped to the domain; 0 keeps the grid fixed.
    """

    count: object = 32
    domain: object = (0.0, 2.0)
    jitter: float = 0.0


@dataclass
class TrainConfig:
    epochs: int = 10000
    learning_rate: float = 0.01
    collocation: GridSpec = field(default_factory=GridSpec)
    seed: int = 0
    hidden: tuple = (32, 32)
    activation: str = "tanh"


@dataclass
class TrainedPINN:
    params: object
    problem_id: str
    loss_history: np.ndarray
    config: TrainConfig

    @property
    def problem(self):
        """The registered problem of ``problem_id``."""
        return get_entry(self.problem_id).problem


def default_train_config(
    problem_id: str, epochs: Optional[int] = None, seed: int = 0, grid: tuple = (100, 100)
) -> TrainConfig:
    """Benchmark defaults: 2x32 tanh, lr 0.01, 32 equally spaced points for
    ODEs; 2x32 sigmoid, lr 1e-3, a jittered ``grid`` = (nx, nt) for Burgers."""
    pr = get_entry(problem_id).problem
    if isinstance(pr, BurgersProblem):
        nx, nt = grid
        cell = (pr.space_domain[1] - pr.space_domain[0]) / (nx - 1)
        return TrainConfig(
            epochs=20000 if epochs is None else epochs,
            learning_rate=1e-3,
            collocation=GridSpec((nx, nt), (pr.space_domain, pr.train_time), jitter=cell / 2.0),
            seed=seed,
            activation="sigmoid",
        )
    return TrainConfig(
        epochs=10000 if epochs is None else epochs,
        learning_rate=0.01,
        collocation=GridSpec(count=32, domain=tuple(pr.train_domain)),
        seed=seed,
        activation="tanh",
    )


def collocation_points(spec: GridSpec) -> np.ndarray:
    """Materialize a GridSpec; 1-D -> (M,), 2-D -> (M, 2) with columns (x, t)."""
    if isinstance(spec.count, (tuple, list)):
        nx, nt = check_pair("collocation count", spec.count, 1)
        (xa, xb), (ta, tb) = spec.domain
        gx, gt = np.meshgrid(np.linspace(xa, xb, nx), np.linspace(ta, tb, nt), indexing="ij")
        return np.stack([gx.ravel(), gt.ravel()], axis=1)
    a, b = spec.domain
    return np.linspace(a, b, check_count("collocation count", spec.count, 1))


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


def _block_pieces(problem, points):
    """:func:`residual_pieces` at ``points``, sliced into one tuple per
    :func:`row_blocks` block."""
    pieces = residual_pieces(problem, points)
    return [tuple(p[..., s] for p in pieces) for s in row_blocks(len(points))]


def residual_loss_and_grads(problem, params, points, pieces=None):
    """Mean squared residual over ``points`` and its parameter gradient.

    The points go through the network in :func:`row_blocks` blocks; the loss
    and the gradient are summed in block order, so a grid of at most
    ``ROW_BLOCK`` rows (every ODE grid) takes one full-batch step.
    ``pieces`` is :func:`_block_pieces` at ``points``; when not given, each
    block computes its own.
    """
    pts = np.asarray(points, dtype=float)
    m = len(pts)
    total, grads = 0.0, None
    for k, s in enumerate(row_blocks(m)):
        block = pts[s]
        jets, tape = forward_jets_batch(params, block, problem.derivs, need_tape=True)
        bp = residual_pieces(problem, block) if pieces is None else pieces[k]
        r = residual_from_jets(problem, block, jets, bp)
        # np.add.reduce(.) is np.sum without its wrapper
        total += float(np.add.reduce(r * r))
        dv, dslots = residual_jet_partials(problem, block, jets, bp)
        rbar = 2.0 * r / m
        g = backward(params, tape, rbar * dv, rbar * dslots)
        if grads is None:
            grads = g
        else:
            grads.theta += g.theta
    return total / m, grads


def mse_residual_loss(problem, params, points) -> float:
    """Mean of squared residuals over the given points."""
    r = residual_values(problem, params, np.asarray(points, dtype=float))
    return float(np.mean(r * r))


def train_deterministic(problem_id: str, config: TrainConfig) -> TrainedPINN:
    """Run residual training on the registered problem ``problem_id`` and
    return the trained surrogate.

    Deterministic for a fixed config (seed included).  A non-finite loss
    aborts with the epoch index instead of returning NaN output.
    """
    problem = get_entry(problem_id).problem
    _check_collocation_domain(problem, config.collocation)
    base_points = collocation_points(config.collocation)

    layer_sizes = [problem.input_dim, *config.hidden, 1]
    params = init_network(layer_sizes, config.activation, seed=config.seed)
    state = init_adam(params.theta, learning_rate=config.learning_rate)
    rng = np.random.default_rng(config.seed + 1)

    # a fixed grid feeds the same points every epoch, so its pieces are reused
    pieces = _block_pieces(problem, base_points) if config.collocation.jitter <= 0 else None
    history = np.empty(check_count("epochs", config.epochs, 0))
    for epoch in range(len(history)):
        pts = _jittered(base_points, config.collocation, rng)
        loss, grads = residual_loss_and_grads(problem, params, pts, pieces)
        if not math.isfinite(loss):
            raise TrainingDivergedError(f"non-finite residual loss at epoch {epoch}", epoch=epoch)
        try:
            params, state = adam_step(params, grads, state)
        except TrainingDivergedError as exc:
            raise TrainingDivergedError(
                f"non-finite gradients at epoch {epoch}", epoch=epoch
            ) from exc
        history[epoch] = loss

    return TrainedPINN(params, problem_id, history, config)


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
        "learning_rate": cfg.learning_rate,
        "seed": cfg.seed,
        "hidden": list(cfg.hidden),
        "activation": cfg.activation,
        "collocation": {
            "count": cfg.collocation.count if not isinstance(cfg.collocation.count, tuple)
            else list(cfg.collocation.count),
            "domain": np.asarray(cfg.collocation.domain, dtype=float).tolist(),
            "jitter": cfg.collocation.jitter,
        },
    }
    with open(f"{path_prefix}.meta.json", "w") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)


def load_trained(path_prefix: str) -> TrainedPINN:
    """Read what :func:`save_trained` wrote; a malformed weights file or
    metadata, an unregistered problem id included, raises
    :class:`ConfigurationError` naming the file."""
    params = load_weights(f"{path_prefix}.weights")
    meta_path = f"{path_prefix}.meta.json"
    try:
        with open(meta_path) as fh:
            meta = json.load(fh)
        problem_id = meta["problem_id"]
        get_entry(problem_id)
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
            learning_rate=meta["learning_rate"],
            collocation=GridSpec(count, domain, coll["jitter"]),
            seed=meta["seed"],
            hidden=tuple(meta["hidden"]),
            activation=meta["activation"],
        )
        final_loss = meta["final_loss"]
    except (ValueError, KeyError, TypeError, IndexError, ConfigurationError) as exc:
        raise ConfigurationError(
            f"{meta_path}: malformed metadata ({type(exc).__name__}: {exc})"
        ) from exc
    history = np.array([final_loss]) if final_loss is not None else np.empty(0)
    return TrainedPINN(params, problem_id, history, config)
