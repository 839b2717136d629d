"""Variational inference: init, KL, ELBO steps, sampling, predictive moments."""

import numpy as np
import pytest
from scipy.special import expit

from pinnbands.bounds import pseudo_profile
from pinnbands.errors import ConfigurationError, ShapeError
from pinnbands.training import training_grid
from pinnbands.vi import (
    MeanFieldGaussian,
    VIConfig,
    gaussian_kl,
    moving_average,
    predictive_moments,
    sample_posterior,
    softplus,
    vi_init,
    vi_train,
)


def scalar_q(mu, sigma, prior_frozen=True):
    rho = np.log(np.expm1(sigma))
    return MeanFieldGaussian([1, 1], "tanh", np.array([mu]), np.array([rho]), prior_frozen)


class TestInit:
    def test_means_copied_and_frozen(self, models_10):
        trained = models_10["ode1.exp"]
        q = vi_init(trained, seed=0)
        assert q.means_frozen
        assert np.array_equal(q.mu, trained.params.theta)

    def test_initial_sigmas_in_softplus_window(self, models_10):
        q = vi_init(models_10["ode1.exp"], seed=1)
        lo, hi = np.log1p(np.exp(-5.0)), np.log1p(np.exp(-4.0))
        for s in q.sigmas():
            assert np.all(s >= lo) and np.all(s <= hi)
        assert lo == pytest.approx(0.0067, abs=2e-4)
        assert hi == pytest.approx(0.0181, abs=2e-4)

    def test_softplus_at_zero(self):
        assert softplus(0.0) == pytest.approx(np.log(2.0), abs=1e-15)

    def test_deterministic_per_seed(self, models_10):
        a = vi_init(models_10["ode1.exp"], seed=5)
        b = vi_init(models_10["ode1.exp"], seed=5)
        assert np.array_equal(a.rho, b.rho)


class TestKL:
    def test_prior_equals_q_gives_zero(self):
        q = scalar_q(0.0, 1.0)
        assert gaussian_kl(q, 1.0) == pytest.approx(0.0, abs=1e-14)

    def test_closed_form_example(self):
        # q = N(0, 0.5^2), prior = N(0, 1): ln 2 + (0.25 - 1)/2
        q = scalar_q(0.0, 0.5)
        assert gaussian_kl(q, 1.0) == pytest.approx(np.log(2.0) - 0.375, abs=1e-12)

    def test_matches_monte_carlo_estimate(self):
        rng = np.random.default_rng(0)
        mus = rng.normal(size=6)
        sigmas = rng.uniform(0.3, 1.5, 6)
        q = MeanFieldGaussian(
            [1, 1], "tanh", mus, np.log(np.expm1(sigmas)), True
        )
        prior_sigma = 0.8
        exact = gaussian_kl(q, prior_sigma)
        n = 1_000_000
        z = rng.standard_normal((n, 6))
        theta = mus + sigmas * z
        logq = np.sum(-0.5 * z**2 - np.log(sigmas) - 0.5 * np.log(2 * np.pi), axis=1)
        logp = np.sum(
            -0.5 * (theta / prior_sigma) ** 2 - np.log(prior_sigma) - 0.5 * np.log(2 * np.pi),
            axis=1,
        )
        mc = float(np.mean(logq - logp))
        assert abs(mc - exact) / abs(exact) < 0.01


class TestElboStep:
    def test_baseline_loglik_constant_at_zero_residual(self, models_10000):
        # with sigma_D = 1 and all residuals zero the log-likelihood reduces
        # to -(M/2) ln(2 pi); check via the recorded ELBO of a prior-matching q
        from pinnbands.vi import _make_context, _loglik_and_grads

        trained = models_10000["ode1.exp"]
        config = VIConfig(prior_sigma=1.0, epochs=1, likelihood="baseline_residual", sigma_d=1.0)
        ctx = _make_context(trained, config, None)
        q = vi_init(trained, seed=0)
        params = q.materialize(np.zeros_like(q.mu))
        loglik, _ = _loglik_and_grads(ctx, params, need_grads=False)
        m = len(training_grid(trained))
        from pinnbands.training import mse_residual_loss

        mse = mse_residual_loss(trained.problem, trained.params, training_grid(trained))
        expect = -0.5 * m * np.log(2 * np.pi) - 0.5 * m * mse
        assert loglik == pytest.approx(expect, rel=1e-10)

    def test_single_step_runs_and_updates_rho_only(self, models_10, envelopes_10):
        trained = models_10["ode1.exp"]
        pts = training_grid(trained)
        profile = pseudo_profile(trained.problem, trained, envelopes_10["ode1.exp"], pts)
        config = VIConfig(prior_sigma=0.5, epochs=1, seed=0)
        q = vi_init(trained, seed=0)
        run = vi_train(trained, config, profile=profile, q0=q)
        q2, elbo = run.q, run.elbo_step_history[0]
        assert np.isfinite(elbo)
        assert np.array_equal(q.mu, q2.mu)
        assert not np.array_equal(q.rho, q2.rho)

    def test_error_aware_needs_profile(self, models_10):
        trained = models_10["ode1.exp"]
        config = VIConfig(prior_sigma=0.5, epochs=1, likelihood="error_aware_simulated")
        with pytest.raises(ConfigurationError):
            vi_train(trained, config, profile=None, q0=vi_init(trained, 0))

    def test_unknown_likelihood_rejected(self):
        with pytest.raises(ConfigurationError):
            VIConfig(likelihood="exact_posterior")


class TestSampling:
    def test_sigma_zero_limit_returns_means(self, models_10):
        q = vi_init(models_10["ode1.exp"], seed=0)
        q.rho[:] = -800.0  # exp(-800) underflows, softplus is exactly 0
        samples = sample_posterior(q, 3, seed=1)
        for s in samples:
            assert np.array_equal(s.theta, q.mu)

    def test_seeded_and_iid(self, models_10):
        q = vi_init(models_10["ode1.exp"], seed=0)
        a = sample_posterior(q, 4, seed=9)
        b = sample_posterior(q, 4, seed=9)
        for sa, sb in zip(a, b):
            assert np.array_equal(sa.theta, sb.theta)
        assert not np.array_equal(a[0].weights[0], a[1].weights[0])

    def test_sample_mean_clt(self, models_10):
        q = vi_init(models_10["ode1.exp"], seed=0)
        q.rho[0] = np.log(np.expm1(0.5))  # sigma = 0.5 on the first weight
        n = 100_000
        rng = np.random.default_rng(3)
        draws = q.mu[0] + 0.5 * rng.standard_normal(n)
        assert abs(np.mean(draws) - q.mu[0]) < 3 * 0.5 / np.sqrt(n)


class TestPredictiveMoments:
    def test_identical_samples_epistemic_zero(self, models_10, envelopes_10):
        trained = models_10["ode1.exp"]
        grid = np.linspace(0, 4, 21)
        profile = pseudo_profile(trained.problem, trained, envelopes_10["ode1.exp"], grid)
        band = predictive_moments([trained.params] * 5, trained.problem, grid, profile)
        # averaging k identical floats can round in the last bits
        assert np.all(band.epistemic_var < 1e-28)
        assert np.allclose(band.total_var, band.sigma_p2, rtol=1e-15, atol=1e-28)

    def test_pinned_at_origin(self, models_10):
        trained = models_10["ode1.poly"]
        q = vi_init(trained, seed=0)
        band = predictive_moments(
            sample_posterior(q, 50, seed=2), trained.problem, np.linspace(0, 4, 11)
        )
        assert band.mean[0] == trained.problem.u0
        assert band.epistemic_var[0] == 0.0

    def test_hand_arithmetic_population_variance(self):
        # synthetic "samples" via a fake problem: use three constant surrogates
        class FakeProblem:
            input_dim = 1
            derivs = ((0,),)

        vals = [1.0, 2.0, 3.0]
        grid = np.array([0.5])

        class FakeParams:
            def __init__(self, v):
                self.v = v

        import pinnbands.vi as vi_mod

        orig = vi_mod.forward_values, vi_mod.transform_offset_scale
        vi_mod.forward_values = lambda p, X: np.full(len(X), p.v)
        vi_mod.transform_offset_scale = lambda problem, grid: (0.0, 1.0)
        try:
            band = predictive_moments(
                [FakeParams(v) for v in vals],
                FakeProblem(),
                grid,
                profile=type("P", (), {"grid": grid, "sigma_p": np.array([np.sqrt(0.5)])})(),
            )
        finally:
            vi_mod.forward_values, vi_mod.transform_offset_scale = orig
        assert band.mean[0] == pytest.approx(2.0)
        assert band.epistemic_var[0] == pytest.approx(2.0 / 3.0)
        assert band.total_var[0] == pytest.approx(2.0 / 3.0 + 0.5)

    def test_grid_mismatch_rejected(self, models_10, envelopes_10):
        trained = models_10["ode1.exp"]
        profile = pseudo_profile(
            trained.problem, trained, envelopes_10["ode1.exp"], np.linspace(0, 4, 5)
        )
        with pytest.raises(ShapeError):
            predictive_moments(
                [trained.params], trained.problem, np.linspace(0, 4, 7), profile
            )

    def test_empty_samples_rejected(self, models_10):
        with pytest.raises(ConfigurationError):
            predictive_moments([], models_10["ode1.exp"].problem, np.linspace(0, 1, 3))


class TestTraining:
    def test_short_run_reproducible(self, models_10, envelopes_10):
        trained = models_10["ode1.exp"]
        pts = training_grid(trained)
        profile = pseudo_profile(trained.problem, trained, envelopes_10["ode1.exp"], pts)
        config = VIConfig(prior_sigma=0.5, epochs=40, seed=4)
        a = vi_train(trained, config, profile=profile)
        b = vi_train(trained, config, profile=profile)
        assert np.array_equal(a.elbo_history, b.elbo_history)
        assert np.array_equal(a.q.rho, b.q.rho)

    def test_total_variance_decomposition(self, models_10, envelopes_10):
        # identical posterior samples: error-aware total minus baseline total
        # equals sigma_P^2 exactly, pointwise
        trained = models_10["ode1.exp"]
        grid = np.linspace(0, 4, 31)
        profile = pseudo_profile(trained.problem, trained, envelopes_10["ode1.exp"], grid)
        q = vi_init(trained, seed=0)
        samples = sample_posterior(q, 64, seed=11)
        aware = predictive_moments(samples, trained.problem, grid, profile)
        baseline = predictive_moments(samples, trained.problem, grid, None)
        assert np.array_equal(aware.epistemic_var, baseline.epistemic_var)
        assert np.array_equal(aware.total_var, baseline.total_var + aware.sigma_p2)

    def test_moving_average_window_validation(self):
        with pytest.raises(ConfigurationError):
            moving_average(np.zeros(5), 6)
        ma = moving_average(np.arange(10, dtype=float), 3)
        assert len(ma) == 8
        assert ma[0] == pytest.approx(1.0)


def layer_shapes(layer_sizes):
    """Weight shapes, then bias shapes: the per-layer list layout."""
    pairs = list(zip(layer_sizes[:-1], layer_sizes[1:]))
    return [(o, i) for i, o in pairs] + [(o,) for _, o in pairs]


def split_layers(flat, shapes):
    out, start = [], 0
    for shape in shapes:
        n = int(np.prod(shape))
        out.append(flat[start : start + n].reshape(shape))
        start += n
    assert start == flat.size
    return out


class TestFlatLayoutOracles:
    def test_sample_posterior_matches_per_layer_draws(self, models_10):
        q = vi_init(models_10["ode1.exp"], seed=0)
        q.rho[::7] = 0.3  # mix sigmas so every layer has distinct scales
        shapes = layer_shapes(q.layer_sizes)
        mus, rhos = split_layers(q.mu, shapes), split_layers(q.rho, shapes)
        samples = sample_posterior(q, 5, seed=7)
        rng = np.random.default_rng(7)
        for sample in samples:
            for arr, mu, rho, shape in zip(sample.weights + sample.biases, mus, rhos, shapes):
                expect = mu + softplus(rho) * rng.standard_normal(shape)
                assert np.array_equal(arr, expect)

    @pytest.mark.parametrize("likelihood", ["error_aware_simulated", "baseline_residual"])
    def test_one_step_matches_list_oracle(self, models_10, envelopes_10, likelihood):
        from pinnbands.network import NetworkParameters
        from pinnbands.vi import _loglik_and_grads, _make_context

        trained = models_10["ode1.exp"]
        pts = training_grid(trained)
        profile = pseudo_profile(trained.problem, trained, envelopes_10["ode1.exp"], pts)
        config = VIConfig(prior_sigma=0.5, epochs=1, seed=3, likelihood=likelihood)
        run = vi_train(trained, config, profile=profile)

        # the step written array by array, as one list entry per weight/bias
        params = trained.params
        shapes = layer_shapes(params.layer_sizes)
        mus = [a.copy() for a in params.weights + params.biases]
        init = np.random.default_rng(config.seed)
        rhos = [init.uniform(-5.0, -4.0, size=s) for s in shapes]
        rng = np.random.default_rng(config.seed + 1)
        for _ in range(config.n_eval_draws):
            for s in shapes:
                rng.standard_normal(s)
        zs = [rng.standard_normal(s) for s in shapes]
        # rho < 0 here, where softplus(rho) is log1p(exp(rho)) exactly
        sigmas = [np.log1p(np.exp(r)) for r in rhos]
        theta = np.concatenate([(m + s * z).ravel() for m, s, z in zip(mus, sigmas, zs)])
        sampled = NetworkParameters(params.layer_sizes, theta, params.activation)
        _, dl = _loglik_and_grads(_make_context(trained, config, profile), sampled)
        sp2 = config.prior_sigma**2
        lr, b1, b2, eps = config.learning_rate, 0.9, 0.999, 1e-8
        new_rhos = []
        for r, s, z, d in zip(rhos, sigmas, zs, split_layers(dl, shapes)):
            g = (-1.0 / s + s / sp2) * expit(r) - d * z * expit(r)
            m = b1 * np.zeros_like(g) + (1.0 - b1) * g
            v = b2 * np.zeros_like(g) + (1.0 - b2) * g * g
            new_rhos.append(r - lr * (m / (1.0 - b1**1)) / (np.sqrt(v / (1.0 - b2**1)) + eps))
        assert np.array_equal(run.q.rho, np.concatenate([r.ravel() for r in new_rhos]))
        assert np.array_equal(run.q.mu, params.theta)


def test_band_csv_header(tmp_path, models_10):
    from pinnbands.bands import band_to_csv

    trained = models_10["ode1.exp"]
    q = vi_init(trained, seed=0)
    band = predictive_moments(sample_posterior(q, 8, 1), trained.problem, np.linspace(0, 4, 7))
    path = tmp_path / "band.csv"
    band_to_csv(band, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "x,mean,epistemic_var,sigma_P2,total_var"
    assert len(lines) == 8
