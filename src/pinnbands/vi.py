"""Mean-field Gaussian variational inference over all network weights.

The variational family is a diagonal Gaussian with standard deviations
parameterized through a softplus, sigma = log(1 + exp(rho)).  Means are
initialized from the deterministically trained network and frozen by
default; training adjusts only rho via reparameterized single-sample
gradient steps on the negative ELBO (closed-form KL minus a Monte Carlo
log-likelihood).

Two likelihoods are supported:

* ``baseline_residual``: zero-mean Gaussian over the equation residuals
  with a fixed homoscedastic variance (the plain B-PINN construction).
* ``error_aware_simulated``: Gaussian over simulated observations — the
  trained network's own outputs — with the heteroscedastic pseudo-aleatoric
  variances from the error bound.

For monitoring, the ELBO is also evaluated every epoch with a fixed set of
common-random-number draws, which makes the recorded trace a deterministic
function of the variational state rather than per-step sampling noise.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.special import expit

from .bands import PredictiveBand
from .bounds import PseudoAleatoricProfile
from .errors import ConfigurationError, ShapeError, TrainingDivergedError
from .network import NetworkParameters, backward, forward_jets_batch, forward_values
from .optim import adam_step_arrays, init_adam
from .problems import (
    residual_from_jets,
    residual_jet_partials,
    transform_offset_scale,
)
from .training import TrainedPINN, training_grid

LIKELIHOODS = ("baseline_residual", "error_aware_simulated")
VAR_FLOOR = 1e-10
LOG_2PI = float(np.log(2.0 * np.pi))


def softplus(rho):
    # stable: log(1+exp(rho)) = max(rho, 0) + log1p(exp(-|rho|))
    rho = np.asarray(rho, dtype=float)
    return np.maximum(rho, 0.0) + np.log1p(np.exp(-np.abs(rho)))


@dataclass
class MeanFieldGaussian:
    """Diagonal Gaussian over network parameters (weights then biases)."""

    layer_sizes: list
    activation: str
    mu: list
    rho: list
    means_frozen: bool = True

    def sigmas(self) -> list:
        return [softplus(r) for r in self.rho]

    def n_params(self) -> int:
        return int(sum(m.size for m in self.mu))

    def copy(self) -> "MeanFieldGaussian":
        return MeanFieldGaussian(
            list(self.layer_sizes),
            self.activation,
            [m.copy() for m in self.mu],
            [r.copy() for r in self.rho],
            self.means_frozen,
        )

    def materialize(self, offsets) -> NetworkParameters:
        """Network with parameters mu + sigma * offsets."""
        arrays = [m + softplus(r) * z for m, r, z in zip(self.mu, self.rho, offsets)]
        n = len(self.layer_sizes) - 1
        return NetworkParameters(
            list(self.layer_sizes), arrays[:n], arrays[n:], self.activation
        )


@dataclass
class VIConfig:
    prior_sigma: float = 1.0
    epochs: int = 50000
    mc_samples_per_step: int = 1
    likelihood: str = "error_aware_simulated"
    sigma_d: float = 1.0
    n_posterior_samples: int = 1000
    learning_rate: float = 0.01
    seed: int = 0
    n_eval_draws: int = 4

    def __post_init__(self):
        if self.likelihood not in LIKELIHOODS:
            raise ConfigurationError(f"unknown likelihood {self.likelihood!r}")
        for name in ("prior_sigma", "sigma_d", "learning_rate"):
            if getattr(self, name) <= 0:
                raise ConfigurationError(f"{name} must be positive")
        for name in ("epochs", "mc_samples_per_step", "n_posterior_samples", "n_eval_draws"):
            if getattr(self, name) < 1:
                raise ConfigurationError(f"{name} must be >= 1")


def vi_init(trained: TrainedPINN, seed: int = 0) -> MeanFieldGaussian:
    """Means copied from the trained network (frozen); rho ~ U[-5, -4]."""
    params = trained.params
    params.validate()
    rng = np.random.default_rng(seed)
    mu = [a.copy() for a in params.flat_arrays()]
    rho = [rng.uniform(-5.0, -4.0, size=a.shape) for a in mu]
    return MeanFieldGaussian(list(params.layer_sizes), params.activation, mu, rho, True)


def gaussian_kl(q: MeanFieldGaussian, prior_sigma: float) -> float:
    """KL(q || N(0, prior_sigma^2 I)) for a diagonal Gaussian q, closed form."""
    total = 0.0
    sp2 = prior_sigma * prior_sigma
    for m, r in zip(q.mu, q.rho):
        s = softplus(r)
        total += float(
            np.sum(np.log(prior_sigma / s) + (s * s + m * m) / (2.0 * sp2) - 0.5)
        )
    return total


def _kl_grads(q: MeanFieldGaussian, prior_sigma: float):
    sp2 = prior_sigma * prior_sigma
    g_rho, g_mu = [], []
    for m, r in zip(q.mu, q.rho):
        s = softplus(r)
        g_rho.append((-1.0 / s + s / sp2) * expit(r))
        g_mu.append(m / sp2)
    return g_rho, g_mu


@dataclass
class _VIContext:
    """Precomputed quantities shared by every ELBO evaluation."""

    problem: object
    points: np.ndarray
    X: np.ndarray
    derivs: tuple
    likelihood: str
    sigma_d: float = 1.0
    raw_targets: Optional[np.ndarray] = None   # error-aware: det net raw outputs
    variances: Optional[np.ndarray] = None     # error-aware: floored sigma_P^2
    scale: Optional[np.ndarray] = None         # error-aware: transform mask
    const_term: float = 0.0


def _make_context(trained: TrainedPINN, config: VIConfig, profile) -> _VIContext:
    problem = trained.problem
    points = training_grid(trained)
    X = points[:, None] if points.ndim == 1 else points
    if config.likelihood == "baseline_residual":
        m = len(points)
        const = -0.5 * m * (LOG_2PI + 2.0 * np.log(config.sigma_d))
        return _VIContext(
            problem, points, X, problem.derivs, config.likelihood,
            sigma_d=config.sigma_d, const_term=const,
        )
    if profile is None:
        raise ConfigurationError("error-aware likelihood needs a pseudo-aleatoric profile")
    sig = profile.sigma_p if isinstance(profile, PseudoAleatoricProfile) else np.asarray(profile)
    if isinstance(profile, PseudoAleatoricProfile) and not np.array_equal(
        np.asarray(profile.grid), points
    ):
        raise ShapeError("profile grid must match the training collocation points")
    variances = np.maximum(np.asarray(sig, dtype=float) ** 2, VAR_FLOOR)
    if len(variances) != len(points):
        raise ShapeError("one sigma_P per collocation point required")
    # infinite-variance observations (singular sources) carry no information
    keep = np.isfinite(variances)
    if not np.any(keep):
        raise ConfigurationError("no collocation point has a finite error bound")
    points, X, variances = points[keep], X[keep], variances[keep]
    # the transform offset is shared by target and prediction, so the
    # deviation reduces to scale * (raw_det - raw_sample)
    raw_targets = forward_values(trained.params, X)
    _, scale = transform_offset_scale(problem, points)
    const = float(-0.5 * np.sum(LOG_2PI + np.log(variances)))
    return _VIContext(
        problem, points, X, (), config.likelihood,
        raw_targets=raw_targets, variances=variances, scale=scale, const_term=const,
    )


def _loglik_and_grads(ctx: _VIContext, params: NetworkParameters, need_grads=True):
    """Log-likelihood at sampled parameters; gradient w.r.t. them if asked."""
    jets, tape = forward_jets_batch(params, ctx.X, ctx.derivs, need_tape=need_grads)
    if ctx.likelihood == "baseline_residual":
        r = residual_from_jets(ctx.problem, ctx.points, jets)
        sd2 = ctx.sigma_d * ctx.sigma_d
        loglik = ctx.const_term - 0.5 * float(np.sum(r * r)) / sd2
        if not need_grads:
            return loglik, None
        dv, dslots = residual_jet_partials(ctx.problem, ctx.points, jets)
        rbar = -r / sd2
        grads = backward(params, tape, rbar * dv, rbar * dslots)
        return loglik, grads.flat_arrays()
    dev = ctx.scale * (ctx.raw_targets - jets.value)
    loglik = ctx.const_term - 0.5 * float(np.sum(dev * dev / ctx.variances))
    if not need_grads:
        return loglik, None
    value_bar = ctx.scale * dev / ctx.variances
    grads = backward(params, tape, value_bar)
    return loglik, grads.flat_arrays()


def _draw_offsets(rng, q: MeanFieldGaussian) -> list:
    return [rng.standard_normal(m.shape) for m in q.mu]


def _elbo_and_grads(ctx: _VIContext, q: MeanFieldGaussian, offsets, prior_sigma: float):
    """Single-draw ELBO estimate and its gradients w.r.t. (rho, mu)."""
    params = q.materialize(offsets)
    loglik, dl_dtheta = _loglik_and_grads(ctx, params)
    kl = gaussian_kl(q, prior_sigma)
    kl_rho, kl_mu = _kl_grads(q, prior_sigma)
    # minimize -ELBO = KL - loglik;  d theta / d rho = zeta * sigmoid(rho)
    g_rho = [
        kr - dl * z * expit(r)
        for kr, dl, z, r in zip(kl_rho, dl_dtheta, offsets, q.rho)
    ]
    g_mu = [km - dl for km, dl in zip(kl_mu, dl_dtheta)]
    return loglik - kl, g_rho, g_mu


def eval_elbo(ctx, q: MeanFieldGaussian, prior_sigma: float, offsets_list) -> float:
    """ELBO evaluated with fixed draws: deterministic in the variational state."""
    kl = gaussian_kl(q, prior_sigma)
    logliks = [
        _loglik_and_grads(ctx, q.materialize(z), need_grads=False)[0]
        for z in offsets_list
    ]
    return float(np.mean(logliks) - kl)


def elbo_step(
    q: MeanFieldGaussian,
    problem,
    trained: TrainedPINN,
    profile,
    config: VIConfig,
    rng=None,
    adam_state=None,
):
    """One reparameterized gradient step on the negative ELBO.

    Returns ``(updated q, elbo estimate, adam state)``.  With frozen means
    only rho moves.  Intended for inspection; :func:`vi_train` runs the
    full loop with shared precomputation.
    """
    ctx = _make_context(trained, config, profile)
    if rng is None:
        rng = np.random.default_rng(config.seed)
    if adam_state is None:
        adam_state = init_adam(q.rho + ([] if q.means_frozen else q.mu), config.learning_rate)
    return _step(ctx, q, config, rng, adam_state)


def _step(ctx, q, config, rng, adam_state):
    n_rho = len(q.rho)
    acc_rho = acc_mu = None
    elbo_acc = 0.0
    for _ in range(config.mc_samples_per_step):
        offsets = _draw_offsets(rng, q)
        elbo, g_rho, g_mu = _elbo_and_grads(ctx, q, offsets, config.prior_sigma)
        elbo_acc += elbo
        if acc_rho is None:
            acc_rho, acc_mu = g_rho, g_mu
        else:
            acc_rho = [a + b for a, b in zip(acc_rho, g_rho)]
            acc_mu = [a + b for a, b in zip(acc_mu, g_mu)]
    k = float(config.mc_samples_per_step)
    elbo_val = elbo_acc / k
    if not np.isfinite(elbo_val):
        raise TrainingDivergedError("non-finite ELBO estimate")
    acc_rho = [a / k for a in acc_rho]
    acc_mu = [a / k for a in acc_mu]

    new_q = q.copy()
    if q.means_frozen:
        new_rho, adam_state = adam_step_arrays(q.rho, acc_rho, adam_state)
        new_q.rho = new_rho
    else:
        values, adam_state = adam_step_arrays(q.rho + q.mu, acc_rho + acc_mu, adam_state)
        new_q.rho = values[:n_rho]
        new_q.mu = values[n_rho:]
    return new_q, elbo_val, adam_state


@dataclass
class VIRun:
    """Result of variational training."""

    q: MeanFieldGaussian
    elbo_history: np.ndarray        # fixed-draw evaluation, one entry per epoch
    elbo_step_history: np.ndarray   # per-step single-sample estimates
    config: VIConfig


def vi_train(trained: TrainedPINN, config: VIConfig, profile=None, q0=None) -> VIRun:
    """Optimize the variational distribution for ``config.epochs`` steps."""
    ctx = _make_context(trained, config, profile)
    q = q0.copy() if q0 is not None else vi_init(trained, seed=config.seed)
    rng = np.random.default_rng(config.seed + 1)
    eval_offsets = [_draw_offsets(rng, q) for _ in range(config.n_eval_draws)]
    adam_state = init_adam(q.rho + ([] if q.means_frozen else q.mu), config.learning_rate)

    steps = np.empty(config.epochs)
    evals = np.empty(config.epochs)
    for epoch in range(config.epochs):
        try:
            q, elbo, adam_state = _step(ctx, q, config, rng, adam_state)
        except TrainingDivergedError as exc:
            raise TrainingDivergedError(
                f"VI diverged at epoch {epoch}: {exc}", epoch=epoch
            ) from exc
        steps[epoch] = elbo
        evals[epoch] = eval_elbo(ctx, q, config.prior_sigma, eval_offsets)
    return VIRun(q, evals, steps, config)


def moving_average(trace, window: int) -> np.ndarray:
    trace = np.asarray(trace, dtype=float)
    if window < 1 or window > len(trace):
        raise ConfigurationError("moving-average window outside trace length")
    kernel = np.ones(window) / window
    return np.convolve(trace, kernel, mode="valid")


def predictive_moments(samples, problem, grid, profile=None) -> PredictiveBand:
    """Sample mean and population variance of the transformed surrogate.

    ``profile`` adds the pseudo-aleatoric variance pointwise (error-aware);
    without it only the epistemic term remains (baseline).
    """
    if len(samples) == 0:
        raise ConfigurationError("need at least one posterior sample")
    grid = np.asarray(grid, dtype=float)
    X = grid[:, None] if grid.ndim == 1 else grid
    # u~ = offset + scale * net, with the transform evaluated once for all draws
    offset, scale = transform_offset_scale(problem, grid)
    values = offset + scale * np.stack([forward_values(p, X) for p in samples])
    mean = values.mean(axis=0)
    epi = np.mean((values - mean) ** 2, axis=0)
    if profile is not None:
        pgrid = np.asarray(profile.grid, dtype=float)
        if not np.array_equal(pgrid, grid):
            raise ShapeError("profile grid does not match evaluation grid")
        sigma_p2 = np.asarray(profile.sigma_p, dtype=float) ** 2
    else:
        sigma_p2 = np.zeros_like(mean)
    return PredictiveBand(grid, mean, epi, sigma_p2, epi + sigma_p2)


def sample_posterior(q: MeanFieldGaussian, n: int, seed: int = 0) -> list:
    """n i.i.d. parameter draws theta = mu + sigma * zeta, deterministic per seed."""
    if n < 1:
        raise ConfigurationError("need n >= 1 samples")
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(int(n)):
        offsets = [rng.standard_normal(m.shape) for m in q.mu]
        out.append(q.materialize(offsets))
    return out
