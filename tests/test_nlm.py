"""Neural linear model: exact posterior algebra, prior search, transforms."""

import json
import math
import os
import pathlib
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import pinnbands.harness as harness
import pinnbands.nlm as nlm
from pinnbands.bounds import ResidualEnvelope, pseudo_profile
from pinnbands.errors import ConditioningError, ConfigurationError
from pinnbands.harness import ExperimentConfig, run_experiment
from pinnbands.nlm import (
    VAR_FLOOR,
    NLMPosterior,
    PriorEvalGrid,
    PriorSearchResult,
    CANDIDATE_SIGMAS,
    SimulatedDataset,
    export_posterior_json,
    feature_matrix,
    make_prior_eval_grid,
    nlm_band,
    nlm_fit,
    optimize_prior,
)
from pinnbands.network import NetworkParameters, init_network
from pinnbands.training import TrainedPINN, training_grid

from conftest import training_dataset


def brute_force_posterior(phi, y, variances, prior_sigma):
    """Weighted normal equations with compensated (fsum) accumulation."""
    m, dim = phi.shape
    a = np.empty((dim, dim))
    b = np.empty(dim)
    for i in range(dim):
        for j in range(dim):
            terms = [phi[k, i] * phi[k, j] / variances[k] for k in range(m)]
            a[i, j] = math.fsum(terms)
        a[i, i] += 1.0 / prior_sigma**2
        b[i] = math.fsum(phi[k, i] * y[k] / variances[k] for k in range(m))
    cov = np.linalg.inv(a)
    return cov @ b, cov


def features_at(trained, x):
    """Feature row at one point: last hidden activations plus bias 1."""
    return feature_matrix(trained, np.array([x]))[0]


def one_feature_model(hidden_bias):
    """ode1.exp with a 1-1-1 tanh net whose hidden feature is tanh(hidden_bias)."""
    params = NetworkParameters.zeros([1, 1, 1], "tanh")
    params.biases[0][:] = hidden_bias
    return TrainedPINN(params, "ode1.exp", np.empty(0), None)


class TestFeatures:
    def test_dimension_is_width_plus_bias(self, models_10):
        feats = features_at(models_10["ode1.exp"], 0.5)
        assert feats.shape == (33,)
        assert feats[-1] == 1.0

    def test_zero_network_features(self):
        params = init_network([1, 4, 4, 1], "tanh", seed=0)
        for w in params.weights:
            w[:] = 0.0
        trained = TrainedPINN(params, None, np.empty(0), None)
        feats = features_at(trained, 0.7)
        assert np.array_equal(feats, np.array([0.0, 0.0, 0.0, 0.0, 1.0]))

    def test_matches_straight_loop(self, models_10):
        trained = models_10["ode1.poly"]
        x = 1.2
        v = np.array([x])
        for w, b in zip(trained.params.weights[:-1], trained.params.biases[:-1]):
            v = np.tanh(w @ v + b)
        feats = features_at(trained, x)
        assert np.allclose(feats[:-1], v, rtol=1e-15)

    def test_head_reproduces_network_output(self, models_10):
        # the feature map with the trained output layer is exactly the net
        trained = models_10["ode1.exp"]
        pts = np.linspace(0, 4, 9)
        fm = feature_matrix(trained, pts)
        head = np.concatenate([trained.params.weights[-1][0], trained.params.biases[-1]])
        from pinnbands.network import forward_values

        assert np.allclose(fm @ head, forward_values(trained.params, pts[:, None]), rtol=1e-13)


class TestFit:
    def test_single_point_flat_prior(self):
        fm = np.array([[1.0]])
        data = SimulatedDataset(np.array([0.0]), np.array([4.0]), np.array([1.0]))
        post = nlm_fit(fm, data, prior_sigma=1e8)
        assert post.mean[0] == pytest.approx(4.0, abs=1e-6)
        assert post.covariance[0, 0] == pytest.approx(1.0, abs=1e-6)

    def test_single_point_unit_prior(self):
        fm = np.array([[1.0]])
        data = SimulatedDataset(np.array([0.0]), np.array([4.0]), np.array([1.0]))
        post = nlm_fit(fm, data, prior_sigma=1.0)
        assert post.covariance[0, 0] == pytest.approx(0.5, rel=1e-12)
        assert post.mean[0] == pytest.approx(2.0, rel=1e-12)

    def test_zero_targets_zero_mean(self):
        rng = np.random.default_rng(0)
        fm = rng.normal(size=(8, 3))
        data = SimulatedDataset(np.zeros(8), np.zeros(8), rng.uniform(0.5, 2.0, 8))
        for sigma in (0.1, 1.0, 10.0):
            post = nlm_fit(fm, data, sigma)
            assert np.max(np.abs(post.mean)) == 0.0

    def test_matches_brute_force_fsum(self, rng):
        m, dim = 48, 12
        phi = rng.normal(size=(m, dim))
        y = rng.normal(size=m)
        variances = rng.uniform(0.5, 2.0, m)
        post = nlm_fit(phi, SimulatedDataset(np.zeros(m), y, variances), 0.7)
        mean_bf, cov_bf = brute_force_posterior(phi, y, variances, 0.7)
        assert np.linalg.norm(post.mean - mean_bf) / np.linalg.norm(mean_bf) < 1e-8
        assert np.linalg.norm(post.covariance - cov_bf) / np.linalg.norm(cov_bf) < 1e-8

    def test_row_order_invariance(self, rng):
        m, dim = 20, 5
        phi = rng.normal(size=(m, dim))
        y = rng.normal(size=m)
        var = rng.uniform(0.5, 2.0, m)
        perm = rng.permutation(m)
        a = nlm_fit(phi, SimulatedDataset(np.zeros(m), y, var), 0.5)
        b = nlm_fit(
            phi[perm],
            SimulatedDataset(np.zeros(m), y[perm], var[perm]),
            0.5,
        )
        assert np.allclose(a.mean, b.mean, rtol=1e-11, atol=1e-13)
        assert np.allclose(a.covariance, b.covariance, rtol=1e-11, atol=1e-13)

    def test_shrinkage_monotone_in_prior(self, models_10000, envelopes_10000):
        trained = models_10000["ode1.exp"]
        fm = feature_matrix(trained, training_grid(trained))
        data = training_dataset(trained, envelopes_10000["ode1.exp"])
        norms = [
            np.linalg.norm(nlm_fit(fm, data, s).mean)
            for s in (1.0, 0.5, 0.2, 0.1, 0.05, 0.01, 1e-3, 1e-4)
        ]
        assert all(b <= a + 1e-12 for a, b in zip(norms, norms[1:]))

    def test_invalid_variances_rejected(self):
        for bad in (0.0, -1.0, np.nan):
            with pytest.raises(ConfigurationError):
                SimulatedDataset(np.zeros(2), np.zeros(2), np.array([1.0, bad]))

    def test_prior_sigma_positive(self):
        fm = np.array([[1.0]])
        data = SimulatedDataset(np.array([0.0]), np.array([1.0]), np.array([1.0]))
        with pytest.raises(ConfigurationError):
            nlm_fit(fm, data, 0.0)


class TestPredict:
    def test_zero_posterior_zero_variance(self):
        trained = one_feature_model(0.3)
        post = NLMPosterior(np.array([1.0, 2.0]), np.zeros((2, 2)), 1.0)
        zero_env = ResidualEnvelope(np.array([0.0, 4.0]), np.array([0.0]))
        profile = pseudo_profile(trained, zero_env, np.linspace(0, 4, 9))
        band = nlm_band(trained, post, profile)
        assert np.all(band.total_var == 0.0)

    def test_hand_arithmetic(self):
        # u0 = 2, mask m = 1 - e^-x, lam = 3; one constant envelope eps on [0, 4]
        trained = one_feature_model(0.5)
        post = NLMPosterior(np.array([2.0, 1.0]), np.array([[0.5, 0.1], [0.1, 0.2]]), 1.0)
        eps = 0.5
        env = ResidualEnvelope(np.array([0.0, 4.0]), np.array([eps]))
        profile = pseudo_profile(trained, env, np.array([1.0]))
        band = nlm_band(trained, post, profile)
        phi = np.array([np.tanh(0.5), 1.0])
        m = 1.0 - np.exp(-1.0)
        sigma_p = eps * (1.0 - np.exp(-3.0)) / 3.0
        epistemic = m * m * (0.5 * phi[0] ** 2 + 2 * 0.1 * phi[0] + 0.2)
        assert band.mean[0] == pytest.approx(2.0 + m * (2.0 * phi[0] + 1.0), rel=1e-14)
        assert band.epistemic_var[0] == pytest.approx(epistemic, rel=1e-13)
        assert band.total_var[0] == pytest.approx(sigma_p**2 + epistemic, rel=1e-13)

    def test_variance_floor_is_sigma_p2(self, models_10000, envelopes_10000):
        trained = models_10000["ode1.poly"]
        env = envelopes_10000["ode1.poly"]
        fm = feature_matrix(trained, training_grid(trained))
        data = training_dataset(trained, env)
        post = nlm_fit(fm, data, 0.5)
        profile = pseudo_profile(trained, env, np.linspace(0, 4, 101))
        band = nlm_band(trained, post, profile)
        assert np.all(band.total_var >= band.sigma_p2)

    def test_band_pinned_at_origin(self, models_10000, envelopes_10000):
        trained = models_10000["ode1.cos"]
        band = nlm_band(
            trained,
            nlm_fit(
                feature_matrix(trained, training_grid(trained)),
                training_dataset(trained, envelopes_10000["ode1.cos"]),
                0.5,
            ),
            pseudo_profile(trained, envelopes_10000["ode1.cos"], np.linspace(0, 4, 51)),
        )
        assert band.mean[0] == trained.problem.u0
        assert band.epistemic_var[0] == 0.0
        assert band.total_var[0] == 0.0


class TestPriorSearch:
    def test_default_candidate_grid(self):
        cands = CANDIDATE_SIGMAS
        assert len(cands) == 100
        assert cands[0] == 0.1 and cands[-1] == 1.0
        assert np.allclose(np.diff(cands), cands[1] - cands[0])

    def test_single_candidate_returned_with_flag(self, models_10000, envelopes_10000):
        trained = models_10000["ode1.exp"]
        env = envelopes_10000["ode1.exp"]
        fm = feature_matrix(trained, training_grid(trained))
        data = training_dataset(trained, env)
        grid = make_prior_eval_grid(trained, env)
        res = optimize_prior(fm, data, grid, [0.3])
        assert res.sigma == 0.3
        assert isinstance(res.feasible, bool)

    def test_feasible_improver_wins(self):
        # two feasible candidates on a synthetic 2-point problem: the exact
        # interpolator (sigma large) beats the heavily shrunk one
        phi = np.array([[1.0, 0.0], [0.0, 1.0]])
        y = np.array([1.0, -1.0])
        var = np.array([0.04, 0.04])
        data = SimulatedDataset(np.array([0.0, 1.0]), y, var)
        grid = PriorEvalGrid(
            features=phi,
            u_mse=y.copy(),
            sigma_p=np.sqrt(var),
            offset=np.zeros(2),
            scale=np.ones(2),
        )
        res = optimize_prior(phi, data, grid, [0.05, 10.0])
        assert res.feasible
        assert res.sigma == 10.0

    def test_benchmark_search_feasible(self, models_10000, envelopes_10000):
        for pid, trained in models_10000.items():
            env = envelopes_10000[pid]
            fm = feature_matrix(trained, training_grid(trained))
            data = training_dataset(trained, env)
            grid = make_prior_eval_grid(trained, env)
            res = optimize_prior(fm, data, grid)
            assert res.feasible, pid

    def test_empty_candidates_rejected(self, models_10000, envelopes_10000):
        trained = models_10000["ode1.exp"]
        env = envelopes_10000["ode1.exp"]
        fm = feature_matrix(trained, training_grid(trained))
        data = training_dataset(trained, env)
        grid = make_prior_eval_grid(trained, env)
        with pytest.raises(ConfigurationError):
            optimize_prior(fm, data, grid, [])


def exhaustive_search(features, data, eval_grid, candidates):
    """The prior search written out over the same factors: every candidate,
    in order, scored from one SVD of the whitened design; a feasible
    candidate beats an infeasible one, a strictly smaller objective (or
    (violations, objective) among infeasible ones) beats a larger one, and
    the first of equal keys wins.  The winner's posterior is nlm_fit's."""
    v, s2, proj = nlm._whitened_svd(features, data)
    fv = eval_grid.features @ v
    finite = np.isfinite(eval_grid.sigma_p)
    best, best_key = None, None
    for sigma in candidates:
        d = 1.0 / (s2 + 1.0 / (sigma * sigma))
        mean = eval_grid.offset + eval_grid.scale * (fv @ (d * proj))
        sd = np.sqrt(eval_grid.sigma_p**2 + eval_grid.scale**2 * ((fv * fv) @ d))
        dev = mean[finite] - eval_grid.u_mse[finite]
        n_viol = int(np.sum(np.abs(dev) - (3.0 * sd[finite] - eval_grid.sigma_p[finite]) > 0))
        objective = float(np.linalg.norm(dev) + np.linalg.norm(sd[finite] - eval_grid.sigma_p[finite]))
        key = (n_viol > 0, n_viol, objective)
        if best is None or key < best_key:
            best, best_key = (float(sigma), n_viol == 0, n_viol, objective), key
    return best + (nlm_fit(features, data, best[0]),)


def assert_same_search(res, oracle):
    sigma, feasible, n_viol, objective, post = oracle
    assert (res.sigma, res.feasible, res.n_violations, res.objective) == (
        sigma, feasible, n_viol, objective
    )
    assert res.posterior.prior_sigma == post.prior_sigma
    assert np.array_equal(res.posterior.mean, post.mean)
    assert np.array_equal(res.posterior.covariance, post.covariance)


DESK_IDS = ("ode1.exp", "ode1.cos", "ode2.harmonic.exp", "ode2.damped.exp", "ode1.logsing")


@pytest.fixture(scope="module")
def desk_searches():
    """The prior-search inputs of the seed-0 desk NLM cells (1000 epochs)."""
    captured = {}
    real = harness.optimize_prior
    try:
        for pid in DESK_IDS:
            # the harness passes no candidates, so the search reads CANDIDATE_SIGMAS
            def grab(features, data, eval_grid, candidates=CANDIDATE_SIGMAS, pid=pid):
                captured[pid] = (features, data, eval_grid, candidates)
                return real(features, data, eval_grid, candidates)

            harness.optimize_prior = grab
            run_experiment(ExperimentConfig(problem=pid, det_epochs=1000, seed=0))
    finally:
        harness.optimize_prior = real
    return captured


class TestScreenedPriorSearch:
    @pytest.mark.parametrize("pid", DESK_IDS)
    def test_matches_exhaustive_search_on_desk_cells(self, desk_searches, pid):
        features, data, grid, candidates = desk_searches[pid]
        assert len(candidates) == 100
        if pid == "ode1.logsing":
            assert np.any(np.isinf(grid.sigma_p))
        assert_same_search(
            optimize_prior(features, data, grid, candidates),
            exhaustive_search(features, data, grid, candidates),
        )

    @given(
        seed=st.integers(0, 2**32 - 1),
        n_candidates=st.integers(1, 40),
        duplicates=st.booleans(),
        infeasible=st.booleans(),
        floored=st.booleans(),
    )
    @example(seed=1, n_candidates=6, duplicates=True, infeasible=False, floored=False)
    @example(seed=2, n_candidates=8, duplicates=False, infeasible=True, floored=False)
    @example(seed=3, n_candidates=1, duplicates=False, infeasible=False, floored=False)
    @example(seed=4, n_candidates=8, duplicates=False, infeasible=False, floored=True)
    # near-tied infeasible objectives, ranked only by their exact keys
    @example(seed=12, n_candidates=24, duplicates=False, infeasible=True, floored=True)
    @settings(max_examples=60, deadline=None)
    def test_matches_exhaustive_search_on_random_data(
        self, seed, n_candidates, duplicates, infeasible, floored
    ):
        rng = np.random.default_rng(seed)
        n, dim, m = rng.integers(2, 12), rng.integers(1, 7), rng.integers(2, 30)
        phi = rng.normal(size=(n, dim))
        variances = rng.uniform(1e-4, 1.0, n)
        if floored:
            variances[rng.random(n) < 0.5] = VAR_FLOOR
        data = SimulatedDataset(np.arange(n, dtype=float), rng.normal(size=n), variances)
        sigma_p = rng.uniform(0.0, 0.5, m)
        sigma_p[rng.random(m) < 0.2] = np.inf
        scale = rng.uniform(0.0, 2.0, m)
        scale[0] = 0.0  # the transform mask vanishes at x0
        u_mse = rng.normal(size=m)
        if infeasible:  # a surrogate far from every head mean: no tube covers it
            u_mse += 1e3
        grid = PriorEvalGrid(
            features=rng.normal(size=(m, dim)),
            u_mse=u_mse,
            sigma_p=sigma_p,
            offset=rng.normal(size=m),
            scale=scale,
        )
        candidates = rng.uniform(0.05, 2.0, n_candidates)
        if duplicates:  # ties: the first of equal candidates must win
            candidates = rng.choice(candidates[: max(1, n_candidates // 2)], n_candidates)
        oracle = exhaustive_search(phi, data, grid, candidates)
        res = optimize_prior(phi, data, grid, candidates)
        assert_same_search(res, oracle)
        if infeasible and np.any(np.isfinite(sigma_p) & (scale > 0)):
            assert not res.feasible

    @staticmethod
    def edge_target(phi, data, sigma, side):
        """u_mse of a grid row [1, 0] (offset 1e3, mask 1e-3, sigma_P 0) that
        the 3-sigma tube of ``sigma`` misses (side 1) or covers (side -1) by
        1e-9 of its half-width: about 6e-13, near the rounding of the tube
        arithmetic at that offset."""
        post = nlm_fit(phi, data, sigma)
        f = np.array([1.0, 0.0])
        mean = 1e3 + 1e-3 * (f @ post.mean)
        sd = 1e-3 * np.sqrt(f @ post.covariance @ f)
        return mean - 3.0 * sd * (1.0 + side * 1e-9)

    @pytest.mark.parametrize("feasible", [True, False])
    def test_uncertain_candidates_are_rescored(self, feasible):
        # feasible: sigma = 10 covers the edge row and has the best objective,
        # sigma = 1 is clearly feasible but worse.  Infeasible: both miss a
        # far row; each also misses the other's edge row clearly and its own
        # by a hair, so only exact scores count the violations (1 has 2, 10
        # has 3).  Either way the winner's key is decided at rounding level.
        phi = np.eye(2)
        data = SimulatedDataset(np.array([0.0, 1.0]), np.array([1.0, -1.0]), np.full(2, 0.04))
        if feasible:
            rows = [([1.0, 0.0], self.edge_target(phi, data, 10.0, -1), 0.0, 1e3, 1e-3)]
        else:
            rows = [
                ([1.0, 0.0], self.edge_target(phi, data, 10.0, 1), 0.0, 1e3, 1e-3),
                ([1.0, 0.0], self.edge_target(phi, data, 1.0, 1), 0.0, 1e3, 1e-3),
                ([0.0, 1.0], 50.0, 0.2, 0.0, 1.0),
            ]
        feats, u_mse, sigma_p, offset, scale = (np.array(c) for c in zip(*rows))
        grid = PriorEvalGrid(
            features=np.vstack([phi, feats]),
            u_mse=np.concatenate([[1.0, -1.0], u_mse]),
            sigma_p=np.concatenate([[0.2, 0.2], sigma_p]),
            offset=np.concatenate([[0.0, 0.0], offset]),
            scale=np.concatenate([[1.0, 1.0], scale]),
        )
        oracle = exhaustive_search(phi, data, grid, [1.0, 10.0])
        assert oracle[:3] == ((10.0, True, 0) if feasible else (1.0, False, 2))
        assert_same_search(optimize_prior(phi, data, grid, [1.0, 10.0]), oracle)

    @pytest.mark.parametrize("bad", [[0.5, 0.0], [0.5, -1.0], [np.nan], [np.inf]])
    def test_bad_candidates_rejected(self, bad):
        phi = np.eye(2)
        data = SimulatedDataset(np.zeros(2), np.ones(2), np.ones(2))
        grid = PriorEvalGrid(phi, np.ones(2), np.ones(2), np.zeros(2), np.ones(2))
        with pytest.raises(ConfigurationError):
            optimize_prior(phi, data, grid, bad)


def exact_weighted_squares(features, v, d):
    """sum_k (F V)_ik^2 d_k of every row i, rounded once from the exact value:
    every double is an integer multiple of 2**-1074, so on those integers the
    products and sums are exact."""
    unit = Fraction(1, 2**1074)
    to_int = np.vectorize(lambda x: int(Fraction(x) / unit), otypes=[object])
    fv = to_int(features) @ to_int(v)
    return np.array([float(x * unit**5) for x in (fv * fv) @ to_int(d)])


@pytest.mark.parametrize("pid", DESK_IDS)
def test_grid_variance_within_dot_product_bound(desk_searches, pid):
    # (FV o FV) D sums non-negative terms: each entry of FV, a length-p dot
    # product, rounds within about p * eps/2 * (|F| |V|), and the weighted sum
    # of its squares adds p * eps/2 relative, so the bound is relative to
    # ((|F| |V|) o (|F| |V|)) D and holds at x0 too, where F V cancels
    features, data, grid, candidates = desk_searches[pid]
    sigma = optimize_prior(features, data, grid, candidates).sigma
    v, s2, _ = nlm._whitened_svd(features, data)
    d = 1.0 / (s2 + 1.0 / (sigma * sigma))
    fv = grid.features @ v
    epi = (fv * fv) @ d
    exact = exact_weighted_squares(grid.features, v, d)
    p = grid.features.shape[1]
    mag = ((np.abs(grid.features) @ np.abs(v)) ** 2) @ d
    assert np.all(np.abs(epi - exact) <= 2.0 * p * np.finfo(float).eps * mag)


def exact_posterior(phi, y, variances, prior_sigma):
    """Mean and covariance of the head in exact rational arithmetic (the
    doubles read exactly), by Gauss-Jordan elimination on [A | I | b], each
    entry rounded once."""
    m, dim = phi.shape
    q = np.vectorize(Fraction, otypes=[object])
    phi, y, w = q(phi), q(y), 1 / q(variances)
    a = phi.T @ (phi * w[:, None])
    for i in range(dim):
        a[i, i] += 1 / Fraction(prior_sigma) ** 2
    rows = [list(a[i]) + [Fraction(int(i == j)) for j in range(dim)] + [(phi[:, i] * w) @ y]
            for i in range(dim)]
    for c in range(dim):
        rows[c] = [v / rows[c][c] for v in rows[c]]
        for r in range(dim):
            if r != c:
                rows[r] = [vr - rows[r][c] * vc for vr, vc in zip(rows[r], rows[c])]
    exact = np.array(rows, dtype=float)
    return exact[:, -1], exact[:, dim:-1]


def test_floored_design_matches_exact_posterior():
    # six points, five tanh features, one variance at the floor: the
    # precision has cond(A) = 6.6e9, and a Cholesky fit of the normal
    # equations is off by 5.7e-7 in the mean (relative, in norm); the SVD of
    # the whitened design measured 7.5e-15 (mean) and 1.3e-15 (covariance)
    rng = np.random.default_rng(0)
    x = np.linspace(0.0, 1.0, 6)
    phi = np.column_stack([np.tanh(np.outer(x, rng.normal(size=4)) + rng.normal(size=4)), np.ones(6)])
    y = rng.normal(size=6)
    variances = rng.uniform(1e-4, 1e-2, 6)
    variances[0] = VAR_FLOOR
    post = nlm_fit(phi, SimulatedDataset(x, y, variances), 0.5)
    mean, cov = exact_posterior(phi, y, variances, 0.5)
    assert np.linalg.norm(post.mean - mean) <= 1e-12 * np.linalg.norm(mean)
    assert np.linalg.norm(post.covariance - cov) <= 1e-12 * np.linalg.norm(cov)


class TestFitNumerics:
    """nlm_fit takes an SVD of the whitened design; scipy's Cholesky solve of
    the precision is the oracle."""

    @pytest.mark.parametrize("sigma", [0.1, 1.0])
    @pytest.mark.parametrize("pid", DESK_IDS)
    def test_matches_cho_solve_on_desk_cells(self, desk_searches, pid, sigma):
        from scipy.linalg import cho_factor, cho_solve

        features, data = desk_searches[pid][:2]
        weighted = features / data.variances[:, None]
        a = features.T @ weighted
        a[np.diag_indices_from(a)] += 1.0 / sigma**2
        chol = cho_factor(a, lower=True)
        cov = cho_solve(chol, np.eye(len(a)))
        cov = 0.5 * (cov + cov.T)
        mean = cho_solve(chol, weighted.T @ data.targets)
        post = nlm_fit(features, data, sigma)
        # each solve is backward stable, so each is within about eps * cond(A)
        # of the exact posterior (relative, in norm); the precision here has
        # cond(A) of 1e9-5e11, and the two solves differ by up to 0.6 of it
        tol = np.finfo(float).eps * np.linalg.cond(a)
        assert np.linalg.norm(post.mean - mean) <= tol * np.linalg.norm(mean)
        assert np.linalg.norm(post.covariance - cov) <= tol * np.linalg.norm(cov)
        assert np.array_equal(post.covariance, post.covariance.T)

    def test_nan_feature_row_raises(self, rng):
        phi = rng.normal(size=(6, 3))
        phi[2] = np.nan
        data = SimulatedDataset(np.zeros(6), np.ones(6), np.ones(6))
        with pytest.raises(ConditioningError) as info:
            nlm_fit(phi, data, 0.5)
        assert info.value.diagnostics == {
            "feature_dim": 3, "n_points": 6, "min_variance": 1.0, "prior_sigma": 0.5,
        }

    def test_nan_feature_row_exits_3(self, tmp_path, monkeypatch, capsys):
        from pinnbands.cli import main

        real = harness.feature_matrix

        def poisoned(trained, points):
            mat = real(trained, points)
            mat[3] = np.nan
            return mat

        monkeypatch.setattr(harness, "feature_matrix", poisoned)
        code = main([
            "solve", "--problem", "ode1.exp", "--method", "error_aware_nlm",
            "--det-epochs", "5", "--grid-points", "21", "--out", str(tmp_path),
        ])
        assert code == 3
        assert "not finite" in capsys.readouterr().err


def test_posterior_json_roundtrip(tmp_path, models_10, envelopes_10):
    trained = models_10["ode1.exp"]
    post = nlm_fit(
        feature_matrix(trained, training_grid(trained)),
        training_dataset(trained, envelopes_10["ode1.exp"]),
        0.4,
    )
    path = tmp_path / "posterior.json"
    export_posterior_json(PriorSearchResult(0.4, False, 3, 1.25, post), path)
    record = json.loads(path.read_text())
    assert record["prior_sigma"] == 0.4
    assert record["flags"] == {"feasible": False, "n_violations": 3, "objective": 1.25}
    dim = record["dim"]
    assert len(record["covariance_upper_triangle"]) == dim * (dim + 1) // 2
    assert np.allclose(record["mean"], post.mean)


# Runs a small NLM cell in a fresh interpreter, where the BLAS thread count
# set in the environment takes effect.
_THREADS_SCRIPT = """
import sys
sys.path.insert(0, sys.argv[1])
from pinnbands.harness import ExperimentConfig, emit_outputs, run_experiment, save_artifacts
config = ExperimentConfig(problem="ode2.harmonic.exp", method="error_aware_nlm", det_epochs=50,
                          grid_points=41, seed=1)
report = run_experiment(config)
emit_outputs(report, sys.argv[2])
save_artifacts(report, sys.argv[2])
"""


def test_nlm_bytes_independent_of_blas_threads(tmp_path):
    # the SVD of the 32 x 33 whitened design and the products on the prior
    # grid give the same bits at one and two BLAS threads
    src = str(pathlib.Path(__file__).resolve().parent.parent / "src")
    outputs = {}
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        out = tmp_path / f"threads{threads}"
        subprocess.run([sys.executable, "-c", _THREADS_SCRIPT, src, str(out)],
                       env=env, capture_output=True, timeout=600, check=True)
        outputs[threads] = {p.name: p.read_bytes() for p in out.iterdir()}
    assert any(name.endswith("_posterior.json") for name in outputs["1"])
    assert outputs["1"].keys() == outputs["2"].keys()
    for name, data in outputs["1"].items():
        assert data == outputs["2"][name], name
