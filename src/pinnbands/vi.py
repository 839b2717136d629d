"""Mean-field Gaussian variational inference over all network weights.

The variational family is a diagonal Gaussian with standard deviations
parameterized through a softplus, sigma = log(1 + exp(rho)).  Means are
initialized from the deterministically trained network and frozen;
training adjusts only rho via reparameterization-trick gradient steps on
the negative ELBO (closed-form KL minus a Monte Carlo log-likelihood), one
draw per step.  The chain-rule factor d sigma / d rho is the logistic
sigmoid(rho), taken as exp(rho - softplus(rho)) from the sigma the step has
already computed.  The prior N(0, prior_sigma^2 I) is the problem's: its
``prior_sigma`` is sqrt(0.1) for a first-order ODE and 1 otherwise, so
:class:`VIConfig` keeps only what a run chooses, its epochs and seed.

Each cell builds one log-likelihood, from whether a simulated dataset is given:

* without one (baseline): zero-mean Gaussian over the equation residuals
  with unit variance, sigma_D^2 = 1 (the plain B-PINN construction).
* with one (error-aware): Gaussian over simulated observations — the
  trained network's own outputs — with the heteroscedastic pseudo-aleatoric
  variances from the error bound; the same dataset the NLM head fits.

For monitoring, the ELBO is also evaluated every epoch with a fixed set of
four common-random-number draws, which makes the recorded trace a
deterministic function of the variational state rather than per-step
sampling noise.

The predictive band averages the surrogate over posterior draws.  The draws
are streamed in fixed blocks of rows (:class:`PosteriorDraws`), and the grid
is walked in blocks of ``ROW_BLOCK`` points, so a band of n draws holds
O(DRAW_BLOCK_ROWS * P + n * ROW_BLOCK) floats whatever the grid size: the
block of draws and the ``(n, ROW_BLOCK)`` values the two-pass variance
reads.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import ClassVar, Optional

import numpy as np

from .bands import PredictiveBand
from .errors import ShapeError, TrainingDivergedError, check_count, check_fields
from .network import (
    ROW_BLOCK,
    NetworkParameters,
    backward,
    forward_jets_batch,
    forward_values,
    row_blocks,
)
from .nlm import SimulatedDataset
from .optim import adam_step_arrays, init_adam
from .problems import (
    residual_from_jets,
    residual_jet_partials,
    residual_pieces,
    transform_offset_scale,
)
from .training import TrainedPINN, training_grid

LOG_2PI = float(np.log(2.0 * np.pi))


def softplus(rho):
    # stable: log(1+exp(rho)) = max(rho, 0) + log1p(exp(-|rho|))
    rho = np.asarray(rho, dtype=float)
    return np.maximum(rho, 0.0) + np.log1p(np.exp(-np.abs(rho)))


@dataclass
class MeanFieldGaussian:
    """Diagonal Gaussian over the flat parameter vector of a network.

    ``mu`` and ``rho`` have shape ``(P,)`` in the layout of
    :attr:`pinnbands.network.NetworkParameters.theta` (weights, then biases).
    """

    layer_sizes: list
    activation: str
    mu: np.ndarray
    rho: np.ndarray

    def materialize(self, offsets, sigma) -> NetworkParameters:
        """Network with parameters mu + sigma * offsets; ``sigma`` is
        ``softplus(rho)``."""
        return NetworkParameters(self.layer_sizes, self.mu + sigma * offsets, self.activation)


@dataclass
class VIConfig:
    epochs: int
    seed: int = 0
    mc_samples_per_step: ClassVar[int] = 1
    n_eval_draws: ClassVar[int] = 4

    def __post_init__(self):
        check_fields(self)


def vi_init(trained: TrainedPINN, seed: int = 0) -> MeanFieldGaussian:
    """Means copied from the trained network (frozen); rho ~ U[-5, -4]."""
    params = trained.params
    params.validate()
    rng = np.random.default_rng(seed)
    rho = rng.uniform(-5.0, -4.0, size=params.theta.shape)
    return MeanFieldGaussian(list(params.layer_sizes), params.activation, params.theta.copy(), rho)


def gaussian_kl(q: MeanFieldGaussian, prior_sigma: float, sigma) -> float:
    """KL(q || N(0, prior_sigma^2 I)) for a diagonal Gaussian q, closed form.

    ``sigma`` is ``softplus(q.rho)``.
    """
    sp2 = prior_sigma * prior_sigma
    terms = np.log(prior_sigma / sigma) + (sigma * sigma + q.mu * q.mu) / (2.0 * sp2) - 0.5
    return float(np.add.reduce(terms))


def _likelihood(trained: TrainedPINN, data: Optional[SimulatedDataset]):
    """``loglik(params, need_grads=True)`` -> (log-likelihood at sampled
    parameters, its flat gradient w.r.t. them or None): the baseline residual
    likelihood without ``data``, the error-aware one with it."""
    problem = trained.problem
    if data is None:
        points = training_grid(trained)
        derivs, pieces = problem.derivs, residual_pieces(problem, points)
        const = -0.5 * len(points) * LOG_2PI

        def loglik(params, need_grads=True):
            jets, tape = forward_jets_batch(params, points, derivs, need_tape=need_grads)
            r = residual_from_jets(problem, jets, pieces)
            value = const - 0.5 * float(np.add.reduce(r * r))
            if not need_grads:
                return value, None
            dv, dslots = residual_jet_partials(problem, jets, pieces)
            rbar = -r
            return value, backward(params, tape, rbar * dv, rbar * dslots).theta

        return loglik

    points, targets, variances = data.points, data.targets, data.variances
    # the transform offset is shared by target and prediction, so the
    # deviation reduces to scale * (raw_det - raw_sample)
    _, scale = transform_offset_scale(problem, points)
    const = float(-0.5 * np.sum(LOG_2PI + np.log(variances)))

    def loglik(params, need_grads=True):
        jets, tape = forward_jets_batch(params, points, (), need_tape=need_grads)
        dev = scale * (targets - jets.value)
        value = const - 0.5 * float(np.add.reduce(dev * dev / variances))
        if not need_grads:
            return value, None
        return value, backward(params, tape, scale * dev / variances).theta

    return loglik


def _sigma_and_kl(q: MeanFieldGaussian, prior_sigma: float):
    """``softplus(q.rho)`` and the KL term of a variational state."""
    sigma = softplus(q.rho)
    return sigma, gaussian_kl(q, prior_sigma, sigma)


def eval_elbo(loglik, q: MeanFieldGaussian, offsets, sigma, kl) -> float:
    """ELBO evaluated with fixed draws (rows of ``offsets``): deterministic
    in the variational state.  ``loglik`` is :func:`_likelihood` of the
    cell; ``sigma, kl`` are :func:`_sigma_and_kl` of ``q``."""
    logliks = [loglik(q.materialize(z, sigma), need_grads=False)[0] for z in offsets]
    return float(np.mean(logliks) - kl)


def _step(loglik, q, prior_sigma, rng, adam_state, sigma, kl):
    """One reparameterization-trick gradient step on the negative ELBO in rho
    (the means stay frozen), from one draw of ``loglik``.  ``sigma, kl`` are
    :func:`_sigma_and_kl` of ``q``."""
    sp2 = prior_sigma * prior_sigma
    # d sigma / d rho = sigmoid(rho) = exp(rho - softplus(rho)); the exponent
    # is never positive, so it cannot overflow
    dsigma = np.exp(q.rho - sigma)
    kl_rho = (-1.0 / sigma + sigma / sp2) * dsigma
    z = rng.standard_normal(q.mu.size)
    value, dl = loglik(q.materialize(z, sigma))
    if not np.isfinite(value - kl):
        raise TrainingDivergedError("non-finite ELBO estimate")
    # minimize -ELBO = KL - loglik;  d theta / d rho = zeta * sigmoid(rho)
    g_rho = kl_rho - dl * z * dsigma
    rho, adam_state = adam_step_arrays(q.rho, g_rho, adam_state)
    return replace(q, rho=rho), adam_state


@dataclass
class VIRun:
    """Result of variational training."""

    q: MeanFieldGaussian
    elbo_history: np.ndarray   # fixed-draw evaluation, one entry per epoch


def vi_train(
    trained: TrainedPINN, config: VIConfig, data: Optional[SimulatedDataset] = None
) -> VIRun:
    """Optimize the variational distribution for ``config.epochs`` steps,
    starting from :func:`vi_init` at ``config.seed``, under the weight prior
    N(0, ``trained.problem.prior_sigma``^2 I).

    Given ``data``, the simulated observations of
    :func:`pinnbands.nlm.build_simulated_dataset`, the error-aware likelihood
    fits it; without it, the baseline likelihood reads the residuals on the
    training grid.
    """
    loglik = _likelihood(trained, data)
    prior_sigma = trained.problem.prior_sigma
    q = vi_init(trained, seed=config.seed)
    rng = np.random.default_rng(config.seed + 1)
    eval_offsets = rng.standard_normal((config.n_eval_draws, q.mu.size))
    adam_state = init_adam(q.rho, trained.problem.learning_rate)

    # sigma and the KL of a state serve its evaluation and the next step
    sigma_kl = _sigma_and_kl(q, prior_sigma)
    evals = np.empty(config.epochs)
    for epoch in range(config.epochs):
        try:
            q, adam_state = _step(loglik, q, prior_sigma, rng, adam_state, *sigma_kl)
        except TrainingDivergedError as exc:
            raise TrainingDivergedError(
                f"VI diverged at epoch {epoch}: {exc}", epoch=epoch
            ) from exc
        sigma_kl = _sigma_and_kl(q, prior_sigma)
        evals[epoch] = eval_elbo(loglik, q, eval_offsets, *sigma_kl)
    return VIRun(q, evals)


def predictive_moments(samples, problem, grid, profile=None) -> PredictiveBand:
    """Sample mean and population variance of the transformed surrogate.

    ``samples`` is a sized, re-iterable collection of networks, such as the
    streamed draws of :func:`sample_posterior`.  The grid is walked in
    :func:`row_blocks` blocks, and each block reads the draws again, in
    order, into one ``(n, block)`` buffer of surrogate values.  ``profile``
    adds the pseudo-aleatoric variance pointwise (error-aware); without it
    only the epistemic term remains (baseline).
    """
    check_count("number of posterior samples", len(samples), 1)
    grid = np.asarray(grid, dtype=float)
    mean, epi = np.empty(len(grid)), np.empty(len(grid))
    # the means also read a last column that stays zero: numpy sums a one-column
    # view pairwise, but adds the rows of a wider one in sequence
    buffer = np.zeros((len(samples), min(len(grid), ROW_BLOCK) + 1))
    for s in row_blocks(len(grid)):
        block = grid[s]
        # u~ = offset + scale * net, with the transform evaluated once for all
        # draws; the buffer's columns are worked on in place
        offset, scale = transform_offset_scale(problem, block)
        padded = buffer[:, -len(block) - 1:]
        values = padded[:, :-1]
        for row, p in zip(values, samples):
            row[...] = forward_values(p, block)
        values *= scale
        values += offset
        mean[s] = padded.mean(axis=0)[:-1]
        values -= mean[s]
        values *= values
        epi[s] = padded.mean(axis=0)[:-1]
    if profile is not None:
        pgrid = np.asarray(profile.grid, dtype=float)
        if not np.array_equal(pgrid, grid):
            raise ShapeError("profile grid does not match evaluation grid")
        sigma_p2 = np.asarray(profile.sigma_p, dtype=float) ** 2
    else:
        sigma_p2 = np.zeros_like(mean)
    return PredictiveBand(grid, mean, epi, sigma_p2)


# rows of standard normals drawn at a time while streaming posterior draws:
# 64 x 1153 doubles, about 0.6 MB, for a 1-32-32-1 network
DRAW_BLOCK_ROWS = 64


class PosteriorDraws:
    """The draws of :func:`sample_posterior`, made on demand.

    Supports ``len`` and iteration.  Each iteration starts a fresh
    ``np.random.default_rng(seed)`` and draws ``standard_normal`` in blocks
    of :data:`DRAW_BLOCK_ROWS` rows, scaled in place; each yielded network's
    ``theta`` is a view of its block row.  A Generator fills a block row
    after row, so the draws equal the rows of one ``standard_normal((n, P))``
    call bitwise, and iterating twice gives the same draws.  Only the current
    block is held, so a caller that keeps no draw needs
    O(DRAW_BLOCK_ROWS * P) memory, not O(n * P).
    """

    def __init__(self, q: MeanFieldGaussian, n: int, seed: int):
        self.layer_sizes, self.activation = list(q.layer_sizes), q.activation
        self.mu, self.sigma = q.mu.copy(), softplus(q.rho)
        self.n, self.seed = n, seed

    def __len__(self) -> int:
        return self.n

    def __iter__(self):
        rng = np.random.default_rng(self.seed)
        for start in range(0, self.n, DRAW_BLOCK_ROWS):
            block = rng.standard_normal((min(DRAW_BLOCK_ROWS, self.n - start), self.mu.size))
            block *= self.sigma
            block += self.mu
            for theta in block:
                yield NetworkParameters(self.layer_sizes, theta, self.activation)


def sample_posterior(q: MeanFieldGaussian, n: int, seed: int = 0) -> PosteriorDraws:
    """n i.i.d. parameter draws theta = mu + sigma * zeta, deterministic per seed.

    The draws are streamed (:class:`PosteriorDraws`): a band over them needs
    O(DRAW_BLOCK_ROWS * P) memory for the draws, not O(n * P).
    """
    return PosteriorDraws(q, check_count("n", n, 1), seed)
