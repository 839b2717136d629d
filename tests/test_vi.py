"""Variational inference: init, KL, ELBO steps, sampling, predictive moments."""

import math
import tracemalloc

import numpy as np
import pytest
from scipy.special import expit

from pinnbands.bounds import estimate_envelope, pseudo_profile
from pinnbands.errors import ConfigurationError, ShapeError
from pinnbands.network import (
    ROW_BLOCK,
    forward_jets_batch,
    forward_values,
    init_network,
    row_blocks,
)
from pinnbands.nlm import VAR_FLOOR, build_simulated_dataset, feature_matrix, nlm_fit
from pinnbands.problems import get_problem, surrogate_values, transform_offset_scale
from pinnbands.training import (
    TrainConfig,
    collocation_points,
    train_deterministic,
    training_grid,
)
from pinnbands.vi import (
    DRAW_BLOCK_ROWS,
    MeanFieldGaussian,
    VIConfig,
    gaussian_kl,
    predictive_moments,
    sample_posterior,
    softplus,
    vi_init,
    vi_train,
)

from conftest import moving_average, training_dataset


def scalar_q(mu, sigma):
    rho = np.log(np.expm1(sigma))
    return MeanFieldGaussian([1, 1], "tanh", np.array([mu]), np.array([rho]))


class TestInit:
    def test_means_copied_and_frozen(self, models_10):
        trained = models_10["ode1.exp"]
        q = vi_init(trained, seed=0)
        assert np.array_equal(q.mu, trained.params.theta)

    def test_initial_sigmas_in_softplus_window(self, models_10):
        q = vi_init(models_10["ode1.exp"], seed=1)
        lo, hi = np.log1p(np.exp(-5.0)), np.log1p(np.exp(-4.0))
        for s in softplus(q.rho):
            assert np.all(s >= lo) and np.all(s <= hi)
        assert lo == pytest.approx(0.0067, abs=2e-4)
        assert hi == pytest.approx(0.0181, abs=2e-4)

    def test_softplus_at_zero(self):
        assert softplus(0.0) == pytest.approx(np.log(2.0), abs=1e-15)

    def test_logistic_from_softplus_matches_expit(self):
        # the step's d sigma / d rho = exp(rho - softplus(rho)) is sigmoid(rho);
        # rounding the exponent, of size up to |rho|, costs up to about
        # eps * |rho| relative, and exp, softplus and expit a few ulp more
        rho = np.linspace(-40.0, 40.0, 80_001)
        dsigma = np.exp(rho - softplus(rho))
        ref = expit(rho)
        eps = np.finfo(float).eps
        assert np.all(np.abs(dsigma - ref) <= eps * (4.0 + np.abs(rho)) * ref)

    def test_logistic_from_softplus_finite_at_extremes(self):
        # the exponent is never positive, so nothing overflows; exp(-800)
        # underflows to 0, as it does inside softplus itself
        rho = np.array([-800.0, 800.0])
        with np.errstate(all="raise", under="ignore"):
            dsigma = np.exp(rho - softplus(rho))
        assert np.array_equal(dsigma, expit(rho))
        assert np.array_equal(dsigma, [0.0, 1.0])

    def test_deterministic_per_seed(self, models_10):
        a = vi_init(models_10["ode1.exp"], seed=5)
        b = vi_init(models_10["ode1.exp"], seed=5)
        assert np.array_equal(a.rho, b.rho)


class TestKL:
    def test_prior_equals_q_gives_zero(self):
        q = scalar_q(0.0, 1.0)
        assert gaussian_kl(q, 1.0, softplus(q.rho)) == pytest.approx(0.0, abs=1e-14)

    def test_closed_form_example(self):
        # q = N(0, 0.5^2), prior = N(0, 1): ln 2 + (0.25 - 1)/2
        q = scalar_q(0.0, 0.5)
        assert gaussian_kl(q, 1.0, softplus(q.rho)) == pytest.approx(np.log(2.0) - 0.375, abs=1e-12)

    def test_matches_monte_carlo_estimate(self):
        rng = np.random.default_rng(0)
        mus = rng.normal(size=6)
        sigmas = rng.uniform(0.3, 1.5, 6)
        q = MeanFieldGaussian([1, 1], "tanh", mus, np.log(np.expm1(sigmas)))
        prior_sigma = 0.8
        exact = gaussian_kl(q, prior_sigma, softplus(q.rho))
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
        from pinnbands.vi import _likelihood

        trained = models_10000["ode1.exp"]
        q = vi_init(trained, seed=0)
        params = q.materialize(np.zeros_like(q.mu), softplus(q.rho))
        loglik, _ = _likelihood(trained, None)(params, need_grads=False)
        m = len(training_grid(trained))
        from pinnbands.training import mse_residual_loss

        mse = mse_residual_loss(trained.problem, trained.params, training_grid(trained))
        expect = -0.5 * m * np.log(2 * np.pi) - 0.5 * m * mse
        assert loglik == pytest.approx(expect, rel=1e-10)

    def test_single_step_runs_and_updates_rho_only(self, models_10, envelopes_10):
        trained = models_10["ode1.exp"]
        data = training_dataset(trained, envelopes_10["ode1.exp"])
        config = VIConfig(epochs=1, seed=0)
        q = vi_init(trained, seed=config.seed)
        run = vi_train(trained, config, data)
        q2, elbo = run.q, run.elbo_history[0]
        assert np.isfinite(elbo)
        assert np.array_equal(q.mu, q2.mu)
        assert not np.array_equal(q.rho, q2.rho)

    @pytest.mark.parametrize("likelihood", ["error_aware_simulated", "baseline_residual"])
    def test_forward_calls_per_epoch(self, models_10, envelopes_10, likelihood, monkeypatch):
        # one step draw plus the fixed evaluation draws, each one forward pass
        import pinnbands.vi as vi

        calls = []

        def counting(*args, **kwargs):
            calls.append(1)
            return forward_jets_batch(*args, **kwargs)

        monkeypatch.setattr(vi, "forward_jets_batch", counting)
        trained = models_10["ode1.exp"]
        data = training_dataset(trained, envelopes_10["ode1.exp"])
        if likelihood == "baseline_residual":
            data = None
        config = VIConfig(epochs=3)
        vi_train(trained, config, data)
        per_epoch = VIConfig.mc_samples_per_step + VIConfig.n_eval_draws
        assert per_epoch == 5
        assert len(calls) == config.epochs * per_epoch

    @pytest.mark.parametrize("field, value", [
        ("epochs", 1.5),
        ("epochs", 0),
        ("seed", -1),
    ])
    def test_bad_field_rejected(self, field, value):
        with pytest.raises(ConfigurationError, match=field):
            VIConfig(**{"epochs": 1, field: value})


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
        d0, d1, *_ = a
        assert not np.array_equal(d0.weights[0], d1.weights[0])

    @pytest.mark.parametrize("n", [1, DRAW_BLOCK_ROWS - 1, DRAW_BLOCK_ROWS,
                                   DRAW_BLOCK_ROWS + 1, 2 * DRAW_BLOCK_ROWS + 3])
    def test_draws_match_one_shot_reference_bitwise(self, models_10, n):
        q = vi_init(models_10["ode1.exp"], seed=0)
        q.rho[::5] = 0.2
        ref = q.mu + softplus(q.rho) * np.random.default_rng(6).standard_normal((n, q.mu.size))
        draws = sample_posterior(q, n, seed=6)
        assert len(draws) == n
        assert np.array_equal(np.stack([d.theta for d in draws]), ref)

    def test_iterating_twice_gives_same_draws(self, models_10):
        q = vi_init(models_10["ode1.exp"], seed=0)
        draws = sample_posterior(q, DRAW_BLOCK_ROWS + 5, seed=2)
        first = [d.theta.copy() for d in draws]
        assert all(np.array_equal(a, d.theta) for a, d in zip(first, draws))

    def test_zero_draws_rejected(self, models_10):
        q = vi_init(models_10["ode1.exp"], seed=0)
        with pytest.raises(ConfigurationError):
            sample_posterior(q, 0)

    @pytest.mark.parametrize("n", [2.5, 3.0, True, "3"])
    def test_non_integer_draw_count_rejected(self, models_10, n):
        q = vi_init(models_10["ode1.exp"], seed=0)
        with pytest.raises(ConfigurationError, match="integer"):
            sample_posterior(q, n)

    @pytest.mark.parametrize("seed", [-2, True, 1.5, "3"])
    def test_bad_seed_rejected_at_the_call(self, models_10, seed):
        q = vi_init(models_10["ode1.exp"], seed=0)
        with pytest.raises(ConfigurationError, match="seed"):
            sample_posterior(q, 3, seed=seed)

    def test_numpy_integer_draw_count_accepted(self, models_10):
        q = vi_init(models_10["ode1.exp"], seed=0)
        a, b = sample_posterior(q, np.int64(3), seed=2), sample_posterior(q, 3, seed=2)
        assert [p.theta.tolist() for p in a] == [p.theta.tolist() for p in b]

    def test_sample_mean_clt(self, models_10):
        q = vi_init(models_10["ode1.exp"], seed=0)
        q.rho[0] = np.log(np.expm1(0.5))  # sigma = 0.5 on the first weight
        n = 20_000
        first = np.array([d.theta[0] for d in sample_posterior(q, n, seed=3)])
        assert len(first) == n
        assert abs(np.mean(first) - q.mu[0]) < 3 * 0.5 / np.sqrt(n)


class TestPredictiveMoments:
    def test_identical_samples_epistemic_zero(self, models_10, envelopes_10):
        trained = models_10["ode1.exp"]
        grid = np.linspace(0, 4, 21)
        profile = pseudo_profile(trained, envelopes_10["ode1.exp"], grid)
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

    # 64 draws fill one sampling block; 150 span several and end in a partial
    # one.  The 1201-point and 37x29 grids span several row blocks and end in
    # a partial one
    @pytest.mark.parametrize(
        "problem_id, n_draws, n_grid",
        [
            pytest.param("ode1.exp", 64, 31, id="ode1.exp"),
            pytest.param("burgers", 64, (7, 5), id="burgers"),
            pytest.param("ode1.exp", 150, 31, id="ode1.exp-150"),
            pytest.param("burgers", 150, (7, 5), id="burgers-150"),
            pytest.param("ode1.exp", 64, 1201, id="ode1.exp-1201-points"),
            pytest.param("burgers", 64, (37, 29), id="burgers-37x29"),
        ],
    )
    def test_matches_stacked_formula_bitwise(self, models_10, problem_id, n_draws, n_grid):
        if problem_id == "burgers":
            problem = get_problem("burgers")
            params = init_network([2, 8, 8, 1], "sigmoid", seed=4)
            nx, nt = n_grid
            grid = np.stack(np.meshgrid(np.linspace(-1, 1, nx), np.linspace(0, 1, nt)), -1)
            grid = grid.reshape(-1, 2)
            q = MeanFieldGaussian([2, 8, 8, 1], "sigmoid", params.theta.copy(),
                                  np.full(params.theta.shape, -3.0))
        else:
            trained = models_10[problem_id]
            problem, grid = trained.problem, np.linspace(0, 4, n_grid)
            q = vi_init(trained, seed=0)
        samples = sample_posterior(q, n_draws, seed=11)
        X = grid[:, None] if grid.ndim == 1 else grid
        offset, scale = transform_offset_scale(problem, grid)
        values = offset + scale * np.stack([forward_values(p, X) for p in samples])
        mean = values.mean(axis=0)
        epi = np.mean((values - mean) ** 2, axis=0)
        band = predictive_moments(samples, problem, grid)
        assert np.array_equal(band.mean, mean)
        assert np.array_equal(band.epistemic_var, epi)

    @pytest.mark.parametrize("n_draws", [64, 1000])
    def test_one_column_last_block_matches_stacked_formula(self, models_10, n_draws):
        # ROW_BLOCK + 1 points end in a one-column block.  The reference runs
        # the forward passes on the band's own blocks, since a one-row batch
        # rounds differently from a 513-row one; the stacked means then add
        # the rows of every column in sequence
        trained = models_10["ode1.exp"]
        problem, grid = trained.problem, np.linspace(0, 4, ROW_BLOCK + 1)
        samples = sample_posterior(vi_init(trained, seed=0), n_draws, seed=11)
        net = np.stack([
            np.concatenate([forward_values(p, grid[s]) for s in row_blocks(len(grid))])
            for p in samples
        ])
        offset, scale = transform_offset_scale(problem, grid)
        values = offset + scale * net
        mean = values.mean(axis=0)
        epi = np.mean((values - mean) ** 2, axis=0)
        band = predictive_moments(samples, problem, grid)
        assert np.array_equal(band.mean, mean)
        assert np.array_equal(band.epistemic_var, epi)

    def test_streamed_draws_peak_below_draw_array(self, models_10):
        # the band's draws stream in blocks: the traced peak stays below the
        # (n, P) array that holding every draw at once would take
        trained = models_10["ode1.exp"]
        q = vi_init(trained, seed=0)
        n, grid = 2000, np.linspace(0, 4, 401)
        assert q.layer_sizes == [1, 32, 32, 1]
        tracemalloc.start()
        try:
            predictive_moments(sample_posterior(q, n, seed=3), trained.problem, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < n * q.mu.size * 8

    def test_peak_independent_of_grid_size(self):
        # the grid is walked in ROW_BLOCK columns: 1000 draws over the 10000
        # points of a 100x100 Burgers grid hold an (n, ROW_BLOCK) buffer, not
        # the 80 MB of (n, M) values
        problem = get_problem("burgers")
        params = init_network([2, 32, 32, 1], "sigmoid", seed=0)
        q = MeanFieldGaussian([2, 32, 32, 1], "sigmoid", params.theta.copy(),
                              np.full(params.theta.shape, -4.0))
        grid = collocation_points((100, 100), ((-1.0, 1.0), (0.0, 2.0)))
        n = 1000
        assert n * ROW_BLOCK * 8 < 8e6 < n * len(grid) * 8
        tracemalloc.start()
        try:
            predictive_moments(sample_posterior(q, n, seed=3), problem, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8e6

    def test_grid_mismatch_rejected(self, models_10, envelopes_10):
        trained = models_10["ode1.exp"]
        profile = pseudo_profile(trained, envelopes_10["ode1.exp"], np.linspace(0, 4, 5))
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
        data = training_dataset(trained, envelopes_10["ode1.exp"])
        config = VIConfig(epochs=40, seed=4)
        a = vi_train(trained, config, data)
        b = vi_train(trained, config, data)
        assert np.array_equal(a.elbo_history, b.elbo_history)
        assert np.array_equal(a.q.rho, b.q.rho)

    @pytest.mark.parametrize("likelihood, pid", [
        pytest.param(likelihood, pid, id=likelihood + suffix)
        for pid, suffix in (("ode1.exp", ""), ("ode2.damped.exp", "-ode2.damped.exp"))
        for likelihood in ("error_aware_simulated", "baseline_residual")
    ])
    @pytest.mark.parametrize("epochs", [1, 3])
    def test_last_elbo_matches_fresh_evaluation(self, likelihood, pid, epochs):
        # the trace reuses each state's sigma and KL; recomputing them from
        # the final state must give the same last entry, at the prior of a
        # first-order (sqrt(0.1)) and a second-order (1.0) problem
        from pinnbands.vi import _likelihood, _sigma_and_kl, eval_elbo

        trained = train_deterministic(pid, TrainConfig(10, 0))
        data = training_dataset(trained, estimate_envelope(trained))
        if likelihood == "baseline_residual":
            data = None
        config = VIConfig(epochs=epochs, seed=5)
        run = vi_train(trained, config, data)
        offsets = np.random.default_rng(config.seed + 1).standard_normal(
            (config.n_eval_draws, run.q.mu.size)
        )
        sigma, kl = _sigma_and_kl(run.q, trained.problem.prior_sigma)
        loglik = _likelihood(trained, data)
        assert run.elbo_history[-1] == eval_elbo(loglik, run.q, offsets, sigma, kl)

    def test_total_variance_decomposition(self, models_10, envelopes_10):
        # identical posterior samples: error-aware total minus baseline total
        # equals sigma_P^2 exactly, pointwise
        trained = models_10["ode1.exp"]
        grid = np.linspace(0, 4, 31)
        profile = pseudo_profile(trained, envelopes_10["ode1.exp"], grid)
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
        from pinnbands.vi import _likelihood

        trained = models_10["ode1.exp"]
        data = training_dataset(trained, envelopes_10["ode1.exp"])
        if likelihood == "baseline_residual":
            data = None
        config = VIConfig(epochs=1, seed=3)
        run = vi_train(trained, config, data)

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
        _, dl = _likelihood(trained, data)(sampled)
        sp2 = trained.problem.prior_sigma**2
        lr, b1, b2, eps = trained.problem.learning_rate, 0.9, 0.999, 1e-8
        new_rhos = []
        for r, s, z, d in zip(rhos, sigmas, zs, split_layers(dl, shapes)):
            g = (-1.0 / s + s / sp2) * np.exp(r - s) - d * z * np.exp(r - s)
            m = b1 * np.zeros_like(g) + (1.0 - b1) * g
            v = b2 * np.zeros_like(g) + (1.0 - b2) * g * g
            new_rhos.append(r - lr * (m / (1.0 - b1**1)) / (np.sqrt(v / (1.0 - b2**1)) + eps))
        assert np.array_equal(run.q.rho, np.concatenate([r.ravel() for r in new_rhos]))
        assert np.array_equal(run.q.mu, params.theta)


@pytest.fixture(scope="module")
def logsing_10():
    """ode1.logsing at 10 epochs and its sigma_P on the training grid, which
    is infinite from the pole's subinterval on."""
    trained = train_deterministic("ode1.logsing", TrainConfig(10, 0))
    envelope = estimate_envelope(trained)
    return trained, pseudo_profile(trained, envelope, training_grid(trained))


class TestInfiniteBoundDataset:
    def test_drops_exactly_the_infinite_bound_points(self, logsing_10):
        trained, profile = logsing_10
        data = build_simulated_dataset(trained, profile)
        finite = np.isfinite(profile.sigma_p)
        assert 0 < np.sum(finite) < len(finite)
        assert np.array_equal(data.points, profile.grid[finite])
        full = forward_values(trained.params, profile.grid[:, None])
        assert np.array_equal(data.targets, full[finite])

    def test_both_heads_fit_it(self, logsing_10):
        trained, profile = logsing_10
        data = build_simulated_dataset(trained, profile)
        post = nlm_fit(feature_matrix(trained, data.points), data, 0.5)
        assert np.all(np.isfinite(post.mean)) and np.all(np.isfinite(post.covariance))
        run = vi_train(trained, VIConfig(epochs=2, seed=0), data)
        assert np.all(np.isfinite(run.elbo_history)) and np.all(np.isfinite(run.q.rho))

    def test_loglik_matches_oracle_over_kept_points(self, logsing_10):
        from pinnbands.vi import _likelihood

        trained, profile = logsing_10
        problem = trained.problem
        loglik = _likelihood(trained, build_simulated_dataset(trained, profile))
        kept = [(x, s) for x, s in zip(profile.grid, profile.sigma_p) if math.isfinite(s)]
        xs = np.array([x for x, _ in kept])
        u_det = surrogate_values(problem, trained.params, xs)

        def oracle(params):
            u = surrogate_values(problem, params, xs)
            return math.fsum(
                -0.5 * (math.log(2.0 * math.pi) + math.log(v) + (a - b) ** 2 / v)
                for a, b, v in zip(u_det, u, (max(s * s, VAR_FLOOR) for _, s in kept))
            )

        q = vi_init(trained, seed=0)
        z = np.random.default_rng(5).standard_normal(q.mu.size)
        for offsets in (np.zeros_like(q.mu), z):
            params = q.materialize(offsets, softplus(q.rho))
            value, _ = loglik(params, need_grads=False)
            assert value == pytest.approx(oracle(params), rel=1e-12)


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
