"""Variational inference: init, KL, ELBO steps, sampling, predictive moments."""

import numpy as np
import pytest

from pinnbands.bounds import pseudo_profile
from pinnbands.errors import ConfigurationError, ShapeError
from pinnbands.training import training_grid
from pinnbands.vi import (
    MeanFieldGaussian,
    VIConfig,
    elbo_step,
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
    return MeanFieldGaussian([1, 1], "tanh", [np.array([[mu]])], [np.array([[rho]])], prior_frozen)


class TestInit:
    def test_means_copied_and_frozen(self, models_10):
        trained = models_10["ode1.exp"]
        q = vi_init(trained, seed=0)
        assert q.means_frozen
        for m, a in zip(q.mu, trained.params.flat_arrays()):
            assert np.array_equal(m, a)

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
        for ra, rb in zip(a.rho, b.rho):
            assert np.array_equal(ra, rb)


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
            [1, 1], "tanh", [mus.reshape(2, 3)], [np.log(np.expm1(sigmas)).reshape(2, 3)], True
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
        params = q.materialize([np.zeros_like(m) for m in q.mu])
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
        q2, elbo, _ = elbo_step(q, trained.problem, trained, profile, config)
        assert np.isfinite(elbo)
        for m0, m1 in zip(q.mu, q2.mu):
            assert np.array_equal(m0, m1)
        assert any(not np.array_equal(r0, r1) for r0, r1 in zip(q.rho, q2.rho))

    def test_error_aware_needs_profile(self, models_10):
        trained = models_10["ode1.exp"]
        config = VIConfig(prior_sigma=0.5, epochs=1, likelihood="error_aware_simulated")
        with pytest.raises(ConfigurationError):
            elbo_step(vi_init(trained, 0), trained.problem, trained, None, config)

    def test_unknown_likelihood_rejected(self):
        with pytest.raises(ConfigurationError):
            VIConfig(likelihood="exact_posterior")


class TestSampling:
    def test_sigma_zero_limit_returns_means(self, models_10):
        q = vi_init(models_10["ode1.exp"], seed=0)
        for r in q.rho:
            r[:] = -800.0  # exp(-800) underflows, softplus is exactly 0
        samples = sample_posterior(q, 3, seed=1)
        for s in samples:
            for a, m in zip(s.flat_arrays(), q.mu):
                assert np.array_equal(a, m)

    def test_seeded_and_iid(self, models_10):
        q = vi_init(models_10["ode1.exp"], seed=0)
        a = sample_posterior(q, 4, seed=9)
        b = sample_posterior(q, 4, seed=9)
        for sa, sb in zip(a, b):
            for wa, wb in zip(sa.flat_arrays(), sb.flat_arrays()):
                assert np.array_equal(wa, wb)
        assert not np.array_equal(a[0].weights[0], a[1].weights[0])

    def test_sample_mean_clt(self, models_10):
        q = vi_init(models_10["ode1.exp"], seed=0)
        q.rho[0][:] = np.log(np.expm1(0.5))  # sigma = 0.5 on first weight block
        n = 100_000
        rng = np.random.default_rng(3)
        draws = q.mu[0][0, 0] + 0.5 * rng.standard_normal(n)
        assert abs(np.mean(draws) - q.mu[0][0, 0]) < 3 * 0.5 / np.sqrt(n)


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
        for ra, rb in zip(a.q.rho, b.q.rho):
            assert np.array_equal(ra, rb)

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
