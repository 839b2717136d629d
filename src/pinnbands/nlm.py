"""Bayesian linear regression on the trained feature basis (neural linear model).

The deterministic network's last hidden layer defines a feature map; a
Gaussian linear head on those features admits an exact posterior.  The
likelihood is heteroscedastic: each simulated observation (the trained
network's own output at a collocation point) carries the pseudo-aleatoric
variance at that point, so the head is constrained tightly where the error
bound is tight and left to the prior where it is loose.  One SVD of the
whitened design gives the posterior at every prior scale, and
:func:`optimize_prior` scores each of ``CANDIDATE_SIGMAS`` from it.

The hard-IC transform is applied outside the linear head: the head is fit
on raw network outputs, and predictions push the head mean through the
transform, scaling epistemic spread by the transform mask.  Every posterior
sample therefore satisfies the initial conditions exactly.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .bands import PredictiveBand
from .bounds import PseudoAleatoricProfile, ResidualEnvelope, pseudo_profile
from .errors import ConditioningError, ConfigurationError, ShapeError, check_count, check_finite
from .network import forward_values, hidden_features
from .problems import surrogate_values, transform_offset_scale

VAR_FLOOR = 1e-10

# points of the prior-selection grid over [x0, test end]
PRIOR_EVAL_POINTS = 200
CANDIDATE_SIGMAS = np.linspace(0.1, 1.0, 100)  # the prior scales the search tries


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
        if not np.all(self.variances > 0):
            raise ConfigurationError("dataset variances must be positive and not NaN (floor them)")


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


def _whitened_svd(features: np.ndarray, data: SimulatedDataset, **context):
    """``(V, s2, p)`` of the SVD S^-1/2 Phi = U Sigma V^T with V square: s2
    holds Sigma^2 and p = Sigma U^T S^-1/2 y, zero-padded to the feature
    dimension, so the precision at any prior scale is V (s2 + sigma^-2) V^T.
    """
    if features.shape[0] != len(data.targets):
        raise ShapeError("feature rows and dataset length differ")
    root = np.sqrt(data.variances)
    design, targets = features / root[:, None], data.targets / root
    n, dim = design.shape
    diagnostics = dict(feature_dim=dim, n_points=n, min_variance=float(np.min(data.variances)))
    diagnostics.update(context)
    if not (np.all(np.isfinite(design)) and np.all(np.isfinite(targets))):
        raise ConditioningError("whitened design or targets are not finite", diagnostics)
    try:  # a full U only when n < dim, where it is n x n; V is square either way
        u, s, vt = np.linalg.svd(design, full_matrices=n < dim)
    except np.linalg.LinAlgError as exc:
        raise ConditioningError("SVD of the whitened design did not converge", diagnostics) from exc
    s2, proj = np.zeros(dim), np.zeros(dim)
    s2[: len(s)] = s * s
    proj[: len(s)] = s * (u.T @ targets)
    return vt.T, s2, proj


def _posterior(v, s2, proj, prior_sigma: float) -> NLMPosterior:
    d = 1.0 / (s2 + 1.0 / (prior_sigma * prior_sigma))
    cov = (v * d) @ v.T
    return NLMPosterior(v @ (d * proj), 0.5 * (cov + cov.T), float(prior_sigma))


def nlm_fit(features: np.ndarray, data: SimulatedDataset, prior_sigma: float) -> NLMPosterior:
    """Exact posterior of the linear head under the heteroscedastic likelihood;
    ``features`` holds one :func:`feature_matrix` row per dataset point.

    With the SVD S^-1/2 Phi = U Sigma V^T and D = 1 / (Sigma^2 + sigma^-2),
    the mean is V D Sigma U^T S^-1/2 y and the covariance V D V^T.  The SVD
    never forms Phi^T S^-1 Phi, whose condition number would be squared.
    Non-finite input raises :class:`ConditioningError`.
    """
    check_finite("prior_sigma", prior_sigma, 0.0)
    return _posterior(*_whitened_svd(features, data, prior_sigma=float(prior_sigma)), prior_sigma)


def make_prior_eval_grid(trained, envelope: ResidualEnvelope) -> PriorEvalGrid:
    problem = trained.problem
    pts = np.linspace(problem.x0, problem.test_domain[1], PRIOR_EVAL_POINTS)
    offset, scale = transform_offset_scale(problem, pts)
    return PriorEvalGrid(
        features=feature_matrix(trained, pts),
        u_mse=surrogate_values(problem, trained.params, pts),
        sigma_p=pseudo_profile(trained, envelope, pts).sigma_p,
        offset=offset,
        scale=scale,
    )


def optimize_prior(
    features: np.ndarray, data: SimulatedDataset, eval_grid: PriorEvalGrid,
    candidate_sigmas=CANDIDATE_SIGMAS,
) -> PriorSearchResult:
    """Grid-search the prior scale over ``candidate_sigmas``.

    A candidate is feasible when the 3-sigma predictive tube covers the
    error bound at every evaluation point:

        |mean(x) - u_mse(x)| <= 3 sd(x) - sigma_P(x).

    Among feasible candidates the winner minimizes
    ||mean - u_mse|| + ||sd - sigma_P|| (Euclidean over the grid); if none
    is feasible the least-violating candidate is returned, flagged.  The
    first of equal keys wins.  One SVD of the whitened design serves every
    candidate: with FV = F V on the grid features F, the head mean is
    FV (D p) and the epistemic variance (FV o FV) D, a sum of non-negative
    terms.  Only the winner's covariance is formed.
    """
    candidates = [check_finite("candidate sigma", s, 0.0) for s in np.ravel(candidate_sigmas)]
    check_count("number of candidate_sigmas", len(candidates), 1)

    v, s2, proj = _whitened_svd(features, data)
    fv = eval_grid.features @ v
    fv2 = fv * fv
    finite = np.isfinite(eval_grid.sigma_p)  # infinite bound covers trivially
    sigma_p = eval_grid.sigma_p[finite]
    best = None
    for sigma in candidates:
        d = 1.0 / (s2 + 1.0 / (sigma * sigma))
        mean = eval_grid.offset + eval_grid.scale * (fv @ (d * proj))
        sd = np.sqrt(eval_grid.sigma_p**2 + eval_grid.scale**2 * (fv2 @ d))[finite]
        dev = mean[finite] - eval_grid.u_mse[finite]
        n_viol = int(np.sum(np.abs(dev) - (3.0 * sd - sigma_p) > 0))
        objective = float(np.linalg.norm(dev) + np.linalg.norm(sd - sigma_p))
        if best is None or (n_viol, objective) < best[2:]:
            best = (sigma, n_viol == 0, n_viol, objective)
    return PriorSearchResult(*best, _posterior(v, s2, proj, best[0]))


def nlm_band(trained, posterior: NLMPosterior, profile: PseudoAleatoricProfile) -> PredictiveBand:
    """Predictive band on the grid of ``profile`` with the transform applied.

    Mean and epistemic spread go through the hard-IC transform (the mask
    multiplies the head); the profile's sigma_P is added untransformed since
    it already bounds the transformed error.
    """
    grid = profile.grid
    phi = feature_matrix(trained, grid)
    epi_raw = np.sum((phi @ posterior.covariance) * phi, axis=1)
    offset, scale = transform_offset_scale(trained.problem, grid)
    return PredictiveBand(
        grid=grid,
        mean=offset + scale * (phi @ posterior.mean),
        epistemic_var=scale**2 * np.maximum(epi_raw, 0.0),
        sigma_p2=profile.sigma_p * profile.sigma_p,
    )


def export_posterior_json(search: PriorSearchResult, path):
    """JSON record of the search's winner: prior sigma, head mean, covariance
    upper triangle, and the search's feasibility flags."""
    posterior = search.posterior
    dim = posterior.mean.shape[0]
    iu = np.triu_indices(dim)
    record = {
        "prior_sigma": posterior.prior_sigma,
        "dim": int(dim),
        "mean": posterior.mean.tolist(),
        "covariance_upper_triangle": posterior.covariance[iu].tolist(),
        "flags": {
            "feasible": search.feasible,
            "n_violations": search.n_violations,
            "objective": search.objective,
        },
    }
    with open(path, "w") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
