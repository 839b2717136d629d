"""Bayesian linear regression on the trained feature basis (neural linear model).

The deterministic network's last hidden layer defines a feature map; a
Gaussian linear head on those features admits an exact posterior.  The
likelihood is heteroscedastic: each simulated observation (the trained
network's own output at a collocation point) carries the pseudo-aleatoric
variance at that point, so the head is constrained tightly where the error
bound is tight and left to the prior where it is loose.

The hard-IC transform is applied outside the linear head: the head is fit
on raw network outputs, and predictions push the head mean through the
transform, scaling epistemic spread by the transform mask.  Every posterior
sample therefore satisfies the initial conditions exactly.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .bands import PredictiveBand
from .bounds import PseudoAleatoricProfile, ResidualEnvelope, pseudo_sigma
from .errors import ConditioningError, ConfigurationError, ShapeError
from .network import forward_values, hidden_features
from .problems import surrogate_values, transform_offset_scale

VAR_FLOOR = 1e-10

# points of the prior-selection grid over [x0, test end]
PRIOR_EVAL_POINTS = 200

# Safety factor on the screen's error estimate in optimize_prior.  Over 126
# NLM cells of 7 ODEs (10 and 1000 epochs at seeds 0-2, 1000 and 3000 epochs
# at seeds 3-8) the largest screen error was 1.45 estimates against nlm_fit's
# numpy Cholesky factor (1.56 against scipy's Cholesky solves).  On the seed
# 0-2 cells, 4 kept at most 13 of 100 candidates and 6 kept up to 61.
_SCREEN_MARGIN = 4.0

_EPS = np.finfo(float).eps


@dataclass
class SimulatedDataset:
    """Targets are the deterministic network's raw outputs; variances are the
    floored squared pseudo-aleatoric sigmas at the same points."""

    points: np.ndarray
    targets: np.ndarray
    variances: np.ndarray

    def __post_init__(self):
        self.points = np.asarray(self.points, dtype=float)
        self.targets = np.asarray(self.targets, dtype=float)
        self.variances = np.asarray(self.variances, dtype=float)
        if not (len(self.points) == len(self.targets) == len(self.variances)):
            raise ShapeError("dataset arrays must have equal length")
        if np.any(self.variances <= 0):
            raise ConfigurationError("dataset variances must be positive (floor them)")


@dataclass
class NLMPosterior:
    mean: np.ndarray
    covariance: np.ndarray
    prior_sigma: float


@dataclass
class PriorEvalGrid:
    """Everything prior selection needs on the evaluation grid."""

    features: np.ndarray
    u_mse: np.ndarray
    sigma_p: np.ndarray
    offset: np.ndarray
    scale: np.ndarray


@dataclass
class PriorSearchResult:
    sigma: float
    feasible: bool
    n_violations: int
    objective: float
    posterior: NLMPosterior


def feature_matrix(trained, points) -> np.ndarray:
    """Last-hidden-layer activations plus a constant bias column: the
    ``(M, width + 1)`` design matrix of the linear head, one row per point."""
    hidden = hidden_features(trained.params, points)
    mat = np.concatenate([hidden, np.ones((len(hidden), 1))], axis=1)
    if not np.all(np.isfinite(mat)):
        raise ShapeError("non-finite feature entries")
    return mat


def build_simulated_dataset(trained, profile: PseudoAleatoricProfile) -> SimulatedDataset:
    """Simulated observations on the grid of ``profile``: the network's raw
    outputs, each with the squared sigma_P of the profile as its variance.

    This is the one dataset both Bayesian heads fit.  sigma_P vanishes at
    x0, so variances are floored to keep the noise matrix invertible; the
    transform pins the prediction there regardless.  Points with an
    infinite bound (singular sources) carry zero information and are dropped.
    """
    pts = profile.grid
    targets = forward_values(trained.params, pts)
    sig = profile.sigma_p
    variances = np.maximum(sig * sig, VAR_FLOOR)
    keep = np.isfinite(variances)
    if not np.any(keep):
        raise ConfigurationError("no collocation point has a finite error bound")
    return SimulatedDataset(pts[keep], targets[keep], variances[keep])


def nlm_fit(features: np.ndarray, data: SimulatedDataset, prior_sigma: float) -> NLMPosterior:
    """Exact posterior of the linear head under the heteroscedastic likelihood;
    ``features`` holds one :func:`feature_matrix` row per dataset point.

    Factors the precision A = Phi^T S^-1 Phi + sigma^-2 I = L L^T and takes
    the covariance L^-T L^-1 and the mean L^-T (L^-1 Phi^T S^-1 y) from the
    inverse factor; never forms an explicit inverse of the noise matrix.
    A precision that is not finite or not numerically SPD raises
    :class:`ConditioningError`.
    """
    if prior_sigma <= 0:
        raise ConfigurationError("prior_sigma must be positive")
    phi = features
    if phi.shape[0] != len(data.targets):
        raise ShapeError("feature rows and dataset length differ")
    weighted = phi / data.variances[:, None]
    a = phi.T @ weighted
    a[np.diag_indices_from(a)] += 1.0 / (prior_sigma * prior_sigma)
    diagnostics = {
        "feature_dim": phi.shape[1],
        "n_points": phi.shape[0],
        "min_variance": float(np.min(data.variances)),
        "prior_sigma": float(prior_sigma),
    }
    # numpy factors NaN and inf entries without raising
    if not np.all(np.isfinite(a)):
        raise ConditioningError("posterior precision matrix is not finite", diagnostics=diagnostics)
    try:
        linv = np.linalg.inv(np.linalg.cholesky(a))
    except np.linalg.LinAlgError as exc:
        raise ConditioningError(
            "posterior precision matrix is not numerically SPD", diagnostics=diagnostics
        ) from exc
    cov = linv.T @ linv
    cov = 0.5 * (cov + cov.T)
    mean = linv.T @ (linv @ (weighted.T @ data.targets))
    return NLMPosterior(mean, cov, float(prior_sigma))


def _grid_moments(posterior: NLMPosterior, features: np.ndarray):
    mean_raw = features @ posterior.mean
    epi_raw = np.einsum("ij,jk,ik->i", features, posterior.covariance, features)
    return mean_raw, np.maximum(epi_raw, 0.0)


def default_candidate_sigmas() -> np.ndarray:
    """100 equally spaced prior standard deviations in [0.1, 1]."""
    return np.linspace(0.1, 1.0, 100)


def make_prior_eval_grid(trained, envelope: ResidualEnvelope) -> PriorEvalGrid:
    problem = trained.problem
    pts = np.linspace(problem.x0, problem.test_domain[1], PRIOR_EVAL_POINTS)
    offset, scale = transform_offset_scale(problem, pts)
    return PriorEvalGrid(
        features=feature_matrix(trained, pts),
        u_mse=surrogate_values(problem, trained.params, pts),
        sigma_p=np.asarray(pseudo_sigma(problem, envelope, pts), dtype=float),
        offset=offset,
        scale=scale,
    )


def optimize_prior(
    features: np.ndarray,
    data: SimulatedDataset,
    eval_grid: PriorEvalGrid,
    candidate_sigmas=None,
) -> PriorSearchResult:
    """Grid-search the prior scale.

    A candidate is feasible when the 3-sigma predictive tube covers the
    error bound at every evaluation point:

        |mean(x) - u_mse(x)| <= 3 sd(x) - sigma_P(x).

    Among feasible candidates the winner minimizes
    ||mean - u_mse|| + ||sd - sigma_P|| (Euclidean over the grid); if none
    is feasible the least-violating candidate is returned, flagged.
    """
    if candidate_sigmas is None:
        candidate_sigmas = default_candidate_sigmas()
    candidates = np.asarray(candidate_sigmas, dtype=float)
    if candidates.size == 0:
        raise ConfigurationError("candidate_sigmas must be nonempty")
    if not np.all(np.isfinite(candidates) & (candidates > 0)):
        raise ConfigurationError("candidate_sigmas must be positive and finite")

    finite = np.isfinite(eval_grid.sigma_p)  # infinite bound covers trivially
    finalists = _screen(features, data, eval_grid, candidates)
    best = None
    for sigma in candidates[finalists]:
        posterior = nlm_fit(features, data, float(sigma))
        mean_raw, epi_raw = _grid_moments(posterior, eval_grid.features)
        mean = eval_grid.offset + eval_grid.scale * mean_raw
        sd = np.sqrt(eval_grid.sigma_p**2 + eval_grid.scale**2 * epi_raw)
        gap = (
            np.abs(mean[finite] - eval_grid.u_mse[finite])
            - (3.0 * sd[finite] - eval_grid.sigma_p[finite])
        )
        n_viol = int(np.sum(gap > 0))
        objective = float(
            np.linalg.norm(mean[finite] - eval_grid.u_mse[finite])
            + np.linalg.norm(sd[finite] - eval_grid.sigma_p[finite])
        )
        cand = PriorSearchResult(float(sigma), n_viol == 0, n_viol, objective, posterior)
        if best is None:
            best = cand
        elif cand.feasible and not best.feasible:
            best = cand
        elif cand.feasible == best.feasible:
            key = (cand.objective if cand.feasible else (cand.n_violations, cand.objective))
            best_key = (best.objective if best.feasible else (best.n_violations, best.objective))
            if key < best_key:
                best = cand
    return best


def _screen(features, data, eval_grid, candidates) -> np.ndarray:
    """Mask of the candidates that could still win the prior search.

    One eigendecomposition A0 = Phi^T S^-1 Phi = V diag(lam) V^T gives the
    grid mean and epistemic variance of every candidate at once, with
    D = 1 / (lam + sigma^-2): ``FV @ (D * V^T b)^T`` and ``(FV * FV) @ D^T``.
    Each screened gap and objective gets an error estimate: the first-order
    effect of a backward error eps * lam_max in the precision (the Cholesky
    solve of nlm_fit and this eigendecomposition both make one), plus the
    rounding of the products, times ``_SCREEN_MARGIN``.  A candidate is
    dropped only when, within these estimates, another one beats it.  When
    the screen cannot rank anything (a non-finite value), every candidate is
    kept and the search is exhaustive.
    """
    keep_all = np.ones(len(candidates), dtype=bool)
    finite = np.isfinite(eval_grid.sigma_p)
    weighted = features / data.variances[:, None]
    try:
        lam, vecs = np.linalg.eigh(features.T @ weighted)
    except np.linalg.LinAlgError:
        return keep_all
    fv = eval_grid.features[finite] @ vecs
    d = 1.0 / (lam + 1.0 / (candidates * candidates)[:, None])  # (C, p)
    coef = d * (vecs.T @ (weighted.T @ data.targets))  # posterior means, eigenbasis
    scale = eval_grid.scale[finite][:, None]
    sigma_p = eval_grid.sigma_p[finite][:, None]
    u_mse = eval_grid.u_mse[finite][:, None]
    big = _EPS * max(lam[-1], 0.0)
    p = len(lam)

    # grid mean and its error
    abs_fv = np.abs(fv)
    mean = fv @ coef.T
    err_mean = big * (abs_fv @ d.T) * np.linalg.norm(coef, axis=1)
    err_mean += _EPS * p * (abs_fv @ np.abs(coef).T)
    err_mean *= np.abs(scale)
    mean *= scale
    mean += eval_grid.offset[finite][:, None]
    # predictive sd and its error, from that of the variance, x:
    # |sqrt(a + x) - sqrt(a)| <= |x| / max(sd, sqrt|x|)
    fv *= fv
    sd = np.maximum(fv @ d.T, 0.0)
    err_sd = big * (fv @ (d * d).T)
    err_sd += _EPS * p * sd
    err_sd *= scale * scale
    sd *= scale * scale
    sd += sigma_p * sigma_p
    np.sqrt(sd, out=sd)
    den = np.maximum(sd, np.sqrt(err_sd))
    np.divide(err_sd, den, out=err_sd, where=den > 0)
    # rounding of the tube arithmetic; none where the mask vanishes, since
    # there both paths compute the same numbers
    err_mean += _EPS * (np.abs(mean) + np.abs(u_mse) + 3.0 * sd + sigma_p) * (scale != 0)

    dev = mean
    dev -= u_mse
    objective = np.linalg.norm(dev, axis=0) + np.linalg.norm(sd - sigma_p, axis=0)
    tol_objective = _SCREEN_MARGIN * (
        np.linalg.norm(err_mean, axis=0) + np.linalg.norm(err_sd, axis=0)
    )
    gap = np.abs(dev, out=dev)
    gap -= 3.0 * sd - sigma_p
    tol_gap = err_mean
    tol_gap += 3.0 * err_sd
    tol_gap *= _SCREEN_MARGIN
    if not all(np.all(np.isfinite(a)) for a in (objective, tol_objective, gap, tol_gap)):
        return keep_all

    # bounds on each candidate's exact violation count and objective
    n_lo = np.sum(gap > tol_gap, axis=0)
    n_hi = np.sum(gap > -tol_gap, axis=0)
    obj_lo = objective - tol_objective
    obj_hi = objective + tol_objective
    may_be_feasible = n_lo == 0
    if np.any(n_hi == 0):
        # a certainly feasible candidate exists, so the winner is feasible
        return may_be_feasible & (obj_lo <= np.min(obj_hi[n_hi == 0]))
    # otherwise the winner is feasible after all, or it has the least
    # (violations, objective) key, which is at most the smallest upper key
    n_best = np.min(n_hi)
    obj_best = np.min(obj_hi[n_hi == n_best])
    return may_be_feasible | (n_lo < n_best) | ((n_lo == n_best) & (obj_lo <= obj_best))


def nlm_band(
    trained, posterior: NLMPosterior, profile: PseudoAleatoricProfile
) -> PredictiveBand:
    """Predictive band on the grid of ``profile`` with the transform applied.

    Mean and epistemic spread go through the hard-IC transform (the mask
    multiplies the head); the profile's sigma_P is added untransformed since
    it already bounds the transformed error.
    """
    grid = profile.grid
    phi = feature_matrix(trained, grid)
    mean_raw, epi_raw = _grid_moments(posterior, phi)
    offset, scale = transform_offset_scale(trained.problem, grid)
    epi = scale**2 * epi_raw
    sigma_p2 = profile.sigma_p * profile.sigma_p
    return PredictiveBand(
        grid=grid,
        mean=offset + scale * mean_raw,
        epistemic_var=epi,
        sigma_p2=sigma_p2,
        total_var=epi + sigma_p2,
    )


def export_posterior_json(posterior: NLMPosterior, path, flags: Optional[dict] = None):
    """JSON record: prior sigma, head mean, covariance upper triangle, flags."""
    dim = posterior.mean.shape[0]
    iu = np.triu_indices(dim)
    record = {
        "prior_sigma": posterior.prior_sigma,
        "dim": int(dim),
        "mean": posterior.mean.tolist(),
        "covariance_upper_triangle": posterior.covariance[iu].tolist(),
        "flags": flags or {},
    }
    with open(path, "w") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
