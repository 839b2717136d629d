"""Neural linear model: exact posterior algebra, prior search, transforms."""

import json
import math

import numpy as np
import pytest

from pinnbands.bounds import ResidualEnvelope, pseudo_profile
from pinnbands.errors import ConfigurationError
from pinnbands.nlm import (
    NLMPosterior,
    PriorEvalGrid,
    SimulatedDataset,
    default_candidate_sigmas,
    export_posterior_json,
    feature_matrix,
    make_prior_eval_grid,
    nlm_band,
    nlm_fit,
    optimize_prior,
)
from pinnbands.network import NetworkParameters, init_network
from pinnbands.problems import get_problem
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
    params = NetworkParameters.zeros([1, 1, 1])
    params.biases[0][:] = hidden_bias
    return TrainedPINN(params, get_problem("ode1.exp"), np.empty(0), None)


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
        with pytest.raises(ConfigurationError):
            SimulatedDataset(np.zeros(2), np.zeros(2), np.array([1.0, 0.0]))

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
        profile = pseudo_profile(trained.problem, trained, zero_env, np.linspace(0, 4, 9))
        band = nlm_band(trained, post, profile)
        assert np.all(band.total_var == 0.0)

    def test_hand_arithmetic(self):
        # u0 = 2, mask m = 1 - e^-x, lam = 3; one constant envelope eps on [0, 4]
        trained = one_feature_model(0.5)
        post = NLMPosterior(np.array([2.0, 1.0]), np.array([[0.5, 0.1], [0.1, 0.2]]), 1.0)
        eps = 0.5
        env = ResidualEnvelope(np.array([0.0, 4.0]), np.array([eps]))
        profile = pseudo_profile(trained.problem, trained, env, np.array([1.0]))
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
        profile = pseudo_profile(trained.problem, trained, env, np.linspace(0, 4, 101))
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
            pseudo_profile(
                trained.problem, trained, envelopes_10000["ode1.cos"], np.linspace(0, 4, 51)
            ),
        )
        assert band.mean[0] == trained.problem.u0
        assert band.epistemic_var[0] == 0.0
        assert band.total_var[0] == 0.0


class TestPriorSearch:
    def test_default_candidate_grid(self):
        cands = default_candidate_sigmas()
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


def test_posterior_json_roundtrip(tmp_path, models_10, envelopes_10):
    trained = models_10["ode1.exp"]
    post = nlm_fit(
        feature_matrix(trained, training_grid(trained)),
        training_dataset(trained, envelopes_10["ode1.exp"]),
        0.4,
    )
    path = tmp_path / "posterior.json"
    export_posterior_json(post, path, flags={"feasible": True})
    record = json.loads(path.read_text())
    assert record["prior_sigma"] == 0.4
    assert record["flags"]["feasible"] is True
    dim = record["dim"]
    assert len(record["covariance_upper_triangle"]) == dim * (dim + 1) // 2
    assert np.allclose(record["mean"], post.mean)
