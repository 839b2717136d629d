"""Deterministic residual training: minimize mean squared residual with Adam.

The problem states its training set-up: a ``[input_dim, *HIDDEN, 1]``
network with the problem's ``activation``, trained by Adam at its
``learning_rate``.  An ODE trains on ``ODE_POINTS`` equally spaced points of
its training domain; Burgers on an (nx, nt) grid over its training window,
moved every epoch by uniform noise of up to half an x cell in each coordinate
and clipped to the window.
:class:`TrainConfig` keeps only what a run chooses, checked when it is
built: the epochs, the seed and the Burgers grid.

One epoch is one full-batch Adam step over the collocation grid, whose loss
and gradient are summed over fixed blocks of ``ROW_BLOCK`` rows.  Runs are
bit-reproducible for a fixed seed.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

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

HIDDEN = (32, 32)
ODE_POINTS = 32
BURGERS_GRID = (100, 100)  # the default (nx, nt) of every Burgers run


@dataclass
class TrainConfig:
    epochs: int
    seed: int = 0
    burgers_grid: tuple = BURGERS_GRID  # (nx, nt); ODE problems ignore it

    def __post_init__(self):
        self.epochs = check_count("epochs", self.epochs, 0)
        self.seed = check_count("seed", self.seed, 0)
        self.burgers_grid = check_pair("burgers_grid", self.burgers_grid, 2)


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


def collocation_points(count, domain) -> np.ndarray:
    """Equally spaced collocation grid: ``count`` points over ``domain``
    (a, b) -> (M,), or an (nx, nt) count over ((xa, xb), (ta, tb)) ->
    (M, 2) with columns (x, t)."""
    if isinstance(count, (tuple, list)):
        nx, nt = check_pair("collocation count", count, 1)
        (xa, xb), (ta, tb) = domain
        gx, gt = np.meshgrid(np.linspace(xa, xb, nx), np.linspace(ta, tb, nt), indexing="ij")
        return np.stack([gx.ravel(), gt.ravel()], axis=1)
    a, b = domain
    return np.linspace(a, b, check_count("collocation count", count, 1))


def _collocation(problem, burgers_grid):
    """The training grid of ``problem`` as (count, domain) and the amplitude
    of its per-epoch jitter: ``ODE_POINTS`` fixed points, or ``burgers_grid``
    moved by half a cell."""
    if isinstance(problem, BurgersProblem):
        nx, nt = burgers_grid
        a, b = problem.space_domain
        cell = (b - a) / (nx - 1)
        return (nx, nt), (problem.space_domain, problem.train_time), cell / 2.0
    return ODE_POINTS, tuple(problem.train_domain), 0.0


def _jittered(points, domain, jitter, rng) -> np.ndarray:
    # only a Burgers grid, of (x, t) rows, has a jitter
    if jitter <= 0:
        return points
    moved = points + rng.uniform(-jitter, jitter, size=points.shape)
    (xa, xb), (ta, tb) = domain
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
        r = residual_from_jets(problem, jets, bp)
        # np.add.reduce(.) is np.sum without its wrapper
        total += float(np.add.reduce(r * r))
        dv, dslots = residual_jet_partials(problem, jets, bp)
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
    count, domain, jitter = _collocation(problem, config.burgers_grid)
    base_points = collocation_points(count, domain)

    params = init_network([problem.input_dim, *HIDDEN, 1], problem.activation, seed=config.seed)
    state = init_adam(params.theta, problem.learning_rate)
    rng = np.random.default_rng(config.seed + 1)

    # a fixed grid feeds the same points every epoch, so its pieces are reused
    pieces = _block_pieces(problem, base_points) if jitter <= 0 else None
    history = np.empty(config.epochs)
    for epoch in range(len(history)):
        pts = _jittered(base_points, domain, jitter, rng)
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
    """The unjittered collocation grid ``trained`` was fit on."""
    return collocation_points(*_collocation(trained.problem, trained.config.burgers_grid)[:2])


# --- serialization: weights file plus sidecar metadata -----------------------


def save_trained(trained: TrainedPINN, path_prefix: str):
    """Write ``<prefix>.weights`` and ``<prefix>.meta.json``."""
    save_weights(trained.params, f"{path_prefix}.weights")
    cfg = trained.config
    meta = {
        "problem_id": trained.problem_id,
        "final_loss": float(trained.loss_history[-1]) if len(trained.loss_history) else None,
        "epochs": cfg.epochs,
        "seed": cfg.seed,
        "collocation": {"count": _collocation(trained.problem, cfg.burgers_grid)[0]},
    }
    with open(f"{path_prefix}.meta.json", "w") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)


def load_trained(path_prefix: str) -> TrainedPINN:
    """Read what :func:`save_trained` wrote; a malformed weights file, a
    non-finite entry included, malformed metadata, an unregistered problem
    id or an ill-typed epochs, seed or Burgers count included, or a network
    other than the ``[input_dim, *HIDDEN, 1]`` one of the problem's
    activation raises :class:`ConfigurationError` naming the file.  Other
    keys, such as the set-up earlier versions recorded, are ignored."""
    params = load_weights(f"{path_prefix}.weights")
    meta_path = f"{path_prefix}.meta.json"
    try:
        with open(meta_path) as fh:
            meta = json.load(fh)
        problem_id = meta["problem_id"]
        problem = get_entry(problem_id).problem
        # an ODE sidecar's count is its fixed point count, not a Burgers grid
        grid = meta["collocation"]["count"] if isinstance(problem, BurgersProblem) else BURGERS_GRID
        config = TrainConfig(meta["epochs"], meta["seed"], grid)
        final_loss = meta["final_loss"]
    except (ValueError, KeyError, TypeError, ConfigurationError) as exc:
        raise ConfigurationError(
            f"{meta_path}: malformed metadata ({type(exc).__name__}: {exc})"
        ) from exc
    sizes = [problem.input_dim, *HIDDEN, 1]
    if params.layer_sizes != sizes or params.activation != problem.activation:
        raise ConfigurationError(f"{path_prefix}.weights: a {params.layer_sizes} "
                                 f"{params.activation} network, but {problem_id} trains "
                                 f"{sizes} {problem.activation}")
    history = np.array([final_loss]) if final_loss is not None else np.empty(0)
    return TrainedPINN(params, problem_id, history, config)
