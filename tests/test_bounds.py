"""Envelopes and bound kernels: closed forms vs quadrature, soundness, dispatch.

Each kernel is reached through ``pseudo_sigma`` on a problem built from its
decay rates (``conftest.rate_problem``)."""

import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from pinnbands import bounds
from pinnbands.bounds import (
    PseudoAleatoricProfile,
    ResidualEnvelope,
    burgers_sigma_grid,
    envelope_from_function,
    estimate_envelope,
    pseudo_profile,
    pseudo_sigma,
    uniform_knots,
)
from pinnbands.errors import ConfigurationError, DomainError
from pinnbands.network import ROW_BLOCK, init_network, row_blocks
from pinnbands.problems import (
    ODEProblem,
    analytic_solution,
    get_problem,
    residual_values,
    surrogate_values,
)
from pinnbands.training import GridSpec, TrainConfig, collocation_points, train_deterministic

from conftest import rate_problem


def random_envelope(rng, k_max=8, x_end=4.0):
    inner = np.sort(rng.uniform(0.05, x_end - 0.05, rng.integers(1, k_max)))
    knots = np.concatenate([[0.0], inner, [x_end]])
    eps = rng.uniform(0.0, 2.0, len(knots) - 1)
    return ResidualEnvelope(knots, eps)


def envelope_fn(env):
    def f(xi):
        k = np.clip(np.searchsorted(env.knots, xi, side="right") - 1, 0, len(env.epsilons) - 1)
        return env.epsilons[k]

    return f


def quadrature_bound(env, kernel, x):
    total = 0.0
    f = envelope_fn(env)
    for a, b in zip(env.knots[:-1], env.knots[1:]):
        if a >= x:
            break
        val, _ = quad(
            lambda xi: kernel(x - xi) * f(np.asarray(xi)),
            a,
            min(b, x),
            epsabs=1e-13,
            epsrel=1e-13,
        )
        total += val
    return total


class TestEnvelope:
    def test_zero_residual_gives_zero_envelope(self):
        env = envelope_from_function(lambda xs: np.zeros_like(xs), [0.0, 1.0, 2.0])
        assert np.all(env.epsilons == 0.0)

    def test_sine_envelope_single_interval(self):
        env = envelope_from_function(np.sin, [0.0, np.pi], oversample=1001, safety_factor=1.0)
        assert 0.999 <= env.epsilons[0] <= 1.0

    def test_safety_factor_scales_linearly(self):
        knots = np.linspace(0, 4, 9)
        a = envelope_from_function(np.cos, knots, 10, safety_factor=1.0)
        b = envelope_from_function(np.cos, knots, 10, safety_factor=2.0)
        assert np.allclose(b.epsilons, 2.0 * a.epsilons, rtol=1e-15)

    def test_majorizes_sampled_residual(self, models_10000, envelopes_10000):
        trained = models_10000["ode1.exp"]
        env = envelopes_10000["ode1.exp"]
        from pinnbands.problems import residual_values

        xs = np.linspace(0, 4, 801)
        r = np.abs(residual_values(trained.problem, trained.params, xs))
        k = np.clip(np.searchsorted(env.knots, xs, side="right") - 1, 0, len(env.epsilons) - 1)
        assert np.all(r <= env.epsilons[k])

    @pytest.mark.parametrize("factor", [0.0, 0.5, float("nan"), float("inf")])
    def test_bad_safety_factor_rejected(self, models_10, factor):
        with pytest.raises(ConfigurationError, match="safety_factor"):
            estimate_envelope(models_10["ode1.exp"], safety_factor=factor)

    @pytest.mark.parametrize("oversample", [2.5, 10.0, True, "10"])
    def test_non_integer_oversample_rejected(self, models_10, oversample):
        with pytest.raises(ConfigurationError, match="oversample"):
            estimate_envelope(models_10["ode1.exp"], oversample=oversample)
        with pytest.raises(ConfigurationError, match="oversample"):
            envelope_from_function(np.sin, [0.0, 1.0], oversample=oversample)

    def test_invalid_partition_rejected(self):
        with pytest.raises(ConfigurationError):
            ResidualEnvelope([0.0, 0.0, 1.0], [1.0, 1.0])
        with pytest.raises(ConfigurationError):
            ResidualEnvelope([0.0, 1.0], [-0.1])

    def test_nan_epsilon_rejected(self):
        with pytest.raises(ConfigurationError):
            ResidualEnvelope([0.0, 1.0, 2.0], [0.5, np.nan])

    def test_infinite_epsilon_kept(self):
        # a singular source (ode1.logsing) gives a genuinely unbounded piece
        env = ResidualEnvelope([0.0, 1.0, 2.0], [0.5, np.inf])
        assert np.isinf(env.epsilons[1])


class TestKernelsVsHandForms:
    def test_first_order_constant_envelope(self):
        env = ResidualEnvelope([0.0, 4.0], [0.5])
        lam, x = 3.0, 1.7
        expect = 0.5 * (1.0 - np.exp(-lam * x)) / lam
        assert pseudo_sigma(rate_problem(lam), env, x) == pytest.approx(expect, rel=1e-14)

    def test_first_order_zero_at_origin(self):
        env = ResidualEnvelope([0.0, 4.0], [0.5])
        assert pseudo_sigma(rate_problem(3.0), env, 0.0) == 0.0

    def test_distinct_constant_envelope(self):
        env = ResidualEnvelope([0.0, 4.0], [0.5])
        l1, l2, x = 1.0, 2.0, 1.3
        expect = 0.5 * ((1 - np.exp(-l1 * x)) / l1 - (1 - np.exp(-l2 * x)) / l2) / (l2 - l1)
        problem = rate_problem(l1, l2)
        assert pseudo_sigma(problem, env, x) == pytest.approx(expect, rel=1e-14)
        assert pseudo_sigma(problem, env, 0.0) == 0.0

    def test_equal_limit_constant_envelope(self):
        env = ResidualEnvelope([0.0, 4.0], [0.5])
        lam, x = 2.0, 1.3
        expect = 0.5 * (1.0 - np.exp(-lam * x) * (1.0 + lam * x)) / lam**2
        problem = rate_problem(lam, lam)
        assert pseudo_sigma(problem, env, x) == pytest.approx(expect, rel=1e-14)
        assert pseudo_sigma(problem, env, 0.0) == 0.0

    def test_zero_rate_constant_envelope(self):
        env = ResidualEnvelope([0.0, 4.0], [0.5])
        problem = rate_problem(0.0, 0.0)
        assert pseudo_sigma(problem, env, 1.7) == pytest.approx(0.5 * 1.7**2 / 2, rel=1e-14)
        assert pseudo_sigma(problem, env, 0.0) == 0.0

    def test_outside_partition_rejected(self):
        env = ResidualEnvelope([0.0, 4.0], [0.5])
        with pytest.raises(DomainError):
            pseudo_sigma(rate_problem(3.0), env, 4.5)
        with pytest.raises(DomainError):
            pseudo_sigma(rate_problem(3.0), env, -0.5)


class TestKernelsVsQuadrature:
    @pytest.mark.parametrize("seed", range(6))
    def test_all_kernels_match_quadrature(self, seed):
        rng = np.random.default_rng(seed)
        env = random_envelope(rng)
        xs = rng.uniform(0.3, 4.0, 3)
        cases = [
            (rate_problem(3.0), lambda s: np.exp(-3.0 * s)),
            (rate_problem(1.0, 2.0), lambda s: (np.exp(-s) - np.exp(-2.0 * s)) / 1.0),
            (rate_problem(1.5, 1.5), lambda s: s * np.exp(-1.5 * s)),
            (rate_problem(0.0, 0.0), lambda s: s),
        ]
        for problem, kernel in cases:
            for x in xs:
                expect = quadrature_bound(env, kernel, float(x))
                closed = pseudo_sigma(problem, env, float(x))
                assert closed == pytest.approx(expect, rel=1e-9, abs=1e-13)

    def test_equal_limit_is_limit_of_distinct(self):
        rng = np.random.default_rng(7)
        env = random_envelope(rng)
        for x in (0.5, 2.0, 4.0):
            a = pseudo_sigma(rate_problem(1.5, 1.5 + 1e-6), env, x)
            b = pseudo_sigma(rate_problem(1.5, 1.5), env, x)
            assert abs(a - b) / b < 1e-5

    @given(st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_monotone_in_envelope(self, seed):
        rng = np.random.default_rng(seed)
        env = random_envelope(rng)
        bigger = ResidualEnvelope(env.knots, env.epsilons + rng.uniform(0, 1, len(env.epsilons)))
        xs = np.linspace(0.0, 4.0, 17)
        for problem in (rate_problem(2.0), rate_problem(1.5, 1.5), rate_problem(0.0, 0.0)):
            assert np.all(
                pseudo_sigma(problem, bigger, xs) >= pseudo_sigma(problem, env, xs) - 1e-15
            )


class TestSoundness:
    def test_bound_majorizes_error_trained(self, models_10000, envelopes_10000):
        for pid, trained in models_10000.items():
            xs = np.linspace(0, 4, 401)
            sig = pseudo_sigma(trained.problem, envelopes_10000[pid], xs)
            u = surrogate_values(trained.problem, trained.params, xs)
            truth = analytic_solution(pid, xs)
            assert np.all(np.abs(truth - u) <= sig)

    def test_bound_majorizes_error_underfit(self, models_10, envelopes_10):
        for pid, trained in models_10.items():
            xs = np.linspace(0, 4, 401)
            sig = pseudo_sigma(trained.problem, envelopes_10[pid], xs)
            u = surrogate_values(trained.problem, trained.params, xs)
            truth = analytic_solution(pid, xs)
            assert np.all(np.abs(truth - u) <= sig)


CONSTANT_ENV = ResidualEnvelope([0.0, 4.0], [0.5])
XS = np.linspace(0.0, 4.0, 11)


class TestDispatch:
    def test_first_order_kind(self, models_10, envelopes_10):
        trained = models_10["ode1.poly"]
        env = envelopes_10["ode1.poly"]
        profile = pseudo_profile(trained, env, XS)
        assert np.array_equal(profile.sigma_p, pseudo_sigma(rate_problem(trained.problem.lam), env, XS))
        assert profile.sigma_p[0] == 0.0

    def test_harmonic_maps_to_zero_kernel(self):
        sig = pseudo_sigma(get_problem("ode2.harmonic.exp"), CONSTANT_ENV, XS)
        assert np.allclose(sig, 0.5 * XS**2 / 2, rtol=1e-14, atol=0.0)

    def test_damped_maps_to_equal_limit(self):
        lam = 1.5
        expect = 0.5 * (1.0 - np.exp(-lam * XS) * (1.0 + lam * XS)) / lam**2
        sig = pseudo_sigma(get_problem("ode2.damped.exp"), CONSTANT_ENV, XS)
        assert np.allclose(sig, expect, rtol=1e-14, atol=0.0)

    def test_distinct_real_roots(self):
        problem = ODEProblem(
            order=2, c1=3.0, c0=2.0, source=lambda t: np.zeros_like(np.asarray(t, dtype=float)),
            u0=1.0, u0_prime=0.0,
        )
        l1, l2 = 1.0, 2.0
        expect = 0.5 * ((1 - np.exp(-l1 * XS)) / l1 - (1 - np.exp(-l2 * XS)) / l2) / (l2 - l1)
        assert np.allclose(pseudo_sigma(problem, CONSTANT_ENV, XS), expect, rtol=1e-14, atol=0.0)

    def test_unstable_rates_rejected(self):
        problem = ODEProblem(
            order=2, c1=-1.0, c0=0.25, source=lambda t: np.zeros_like(np.asarray(t, dtype=float)),
            u0=1.0, u0_prime=0.0,
        )
        with pytest.raises(ConfigurationError):
            pseudo_sigma(problem, CONSTANT_ENV, 1.0)

    def test_nan_sigma_rejected(self):
        with pytest.raises(ConfigurationError):
            PseudoAleatoricProfile(np.zeros(3), np.array([0.0, np.nan, 1.0]))

    def test_infinite_sigma_kept(self):
        profile = PseudoAleatoricProfile(np.zeros(3), np.array([0.0, np.inf, 1.0]))
        assert np.isinf(profile.sigma_p[1])


@pytest.fixture(scope="module")
def tiny_burgers():
    return train_deterministic("burgers", TrainConfig(30, 0, (10, 10)))


def _stand_in(problem=None, params=None):
    """What ``burgers_sigma_grid`` reads of a trained model."""
    return SimpleNamespace(problem=problem, params=params)


def _global_keys(pts, n):
    """Every (x, tau) row of ``pts`` as one complex key x + 1j*tau, made
    distinct by one sort: the distinct keys and each row's index into them."""
    taus = pts[:, 1][:, None] * np.linspace(0.0, 1.0, n)[None, :]
    return np.unique(np.repeat(pts[:, 0], n) + 1j * taus.ravel(), return_inverse=True)


def sigma_grid_global_sort(trained, pts, n):
    """Reference sigma_P grid: the distinct rows of one global complex-key
    sort, in ROW_BLOCK blocks, gathered back through the sort's inverse."""
    keys, inverse = _global_keys(pts, n)
    rows = np.stack([keys.real, keys.imag], axis=1)
    r = np.concatenate([
        residual_values(trained.problem, trained.params, rows[s]) for s in row_blocks(len(rows))
    ])
    return pts[:, 1] * np.mean(np.abs(r)[inverse].reshape(len(pts), n), axis=1)


class TestBurgersSigma:

    def test_zero_at_time_origin(self, tiny_burgers):
        assert burgers_sigma_grid(tiny_burgers, np.array([[0.3, 0.0]]))[0] == 0.0

    def test_constant_residual_riemann_sum(self, monkeypatch):
        # sigma(t) = t * mean_i |r(x, t_i)|; a constant residual c gives c*t
        # at every point, whichever distinct rows its t_i were gathered from
        c = 0.7
        monkeypatch.setattr(bounds, "residual_values", lambda problem, params, rows: np.full(len(rows), -c))
        pts = collocation_points(GridSpec((12, 30), ((-1.0, 1.0), (0.0, 2.0))))
        sig = burgers_sigma_grid(_stand_in(), pts, 64)
        assert sig == pytest.approx(c * pts[:, 1], rel=1e-15, abs=0.0)

    def test_linear_residual_converges_to_half(self, monkeypatch):
        # r = tau: t * mean_i (t * frac_i) is the Riemann sum of the integral
        # t^2 / 2, exact for a linear integrand up to rounding; a point
        # gathered from another point's rows would be off by O(1)
        monkeypatch.setattr(bounds, "residual_values", lambda problem, params, rows: rows[:, 1].copy())
        pts = collocation_points(GridSpec((12, 30), ((-1.0, 1.0), (0.0, 2.0))))
        pts = np.concatenate([pts, pts[::-5]])  # repeated points, out of order
        sig = burgers_sigma_grid(_stand_in(), pts, 64)
        assert sig == pytest.approx(0.5 * pts[:, 1] ** 2, rel=1e-14, abs=1e-15)

    def test_grid_version_matches_scalar(self, tiny_burgers):
        pts = np.array([[0.2, 0.5], [-0.4, 1.5], [0.0, 0.0]])
        grid_sig = burgers_sigma_grid(tiny_burgers, pts, 32)
        for k, (x, t) in enumerate(pts):
            # one row at a time: t * mean |r| over 32 equispaced times in [0, t]
            taus = np.linspace(0.0, t, 32)
            row = np.stack([np.full_like(taus, x), taus], axis=1)
            r = residual_values(tiny_burgers.problem, tiny_burgers.params, row)
            assert grid_sig[k] == pytest.approx(t * np.mean(np.abs(r)), rel=1e-12, abs=1e-15)

    def test_blocks_match_one_shot_bitwise(self, tiny_burgers):
        n = 64
        block = max(1, ROW_BLOCK // n)
        m = 2 * block + 37  # two full blocks and a partial one
        rng = np.random.default_rng(3)
        pts = np.stack([rng.uniform(-1.0, 1.0, m), rng.uniform(0.0, 1.0, m)], axis=1)
        # every residual row in one evaluation
        taus = pts[:, 1][:, None] * np.linspace(0.0, 1.0, n)[None, :]
        flat = np.stack([np.repeat(pts[:, 0], n), taus.ravel()], axis=1)
        r = residual_values(tiny_burgers.problem, tiny_burgers.params, flat).reshape(m, n)
        one_shot = pts[:, 1] * np.mean(np.abs(r), axis=1)
        assert np.array_equal(burgers_sigma_grid(tiny_burgers, pts, n), one_shot)

    def test_repeated_grid_rows_match_one_shot_bitwise(self, tiny_burgers):
        # on an equispaced grid t_j * frac_i repeats whenever j * i = k * l;
        # evaluating each distinct row once must give the bits of evaluating
        # every row
        n = 64
        pts = collocation_points(GridSpec((20, 20), ((-1.0, 1.0), (0.0, 1.0))))
        taus = pts[:, 1][:, None] * np.linspace(0.0, 1.0, n)[None, :]
        flat = np.stack([np.repeat(pts[:, 0], n), taus.ravel()], axis=1)
        assert len(np.unique(flat[:, 0] + 1j * flat[:, 1])) < 0.6 * len(flat)
        r = residual_values(tiny_burgers.problem, tiny_burgers.params, flat).reshape(len(pts), n)
        one_shot = pts[:, 1] * np.mean(np.abs(r), axis=1)
        assert np.array_equal(burgers_sigma_grid(tiny_burgers, pts, n), one_shot)

    @pytest.mark.parametrize("n", [1, 2, 64])
    def test_scattered_points_match_global_sort(self, tiny_burgers, n):
        # repeated x values across points with different t, and repeated points
        rng = np.random.default_rng(5)
        m = 700
        pts = np.stack([rng.choice(rng.uniform(-1.0, 1.0, 25), m), rng.uniform(0.0, 1.0, m)], axis=1)
        pts = np.concatenate([pts, pts[::3], pts[:40]])
        expected = sigma_grid_global_sort(tiny_burgers, pts, n)
        assert np.array_equal(burgers_sigma_grid(tiny_burgers, pts, n), expected)

    @pytest.mark.parametrize("shape, n", [((1100, 3), 1), ((40, 40), 2), ((40, 40), 64)])
    def test_product_grid_matches_global_sort(self, tiny_burgers, shape, n):
        pts = collocation_points(GridSpec(shape, ((-1.0, 1.0), (0.0, 1.0))))
        keys, _ = _global_keys(pts, n)
        assert len(keys) > 2 * ROW_BLOCK  # the distinct rows cross several blocks
        expected = sigma_grid_global_sort(tiny_burgers, pts, n)
        assert np.array_equal(burgers_sigma_grid(tiny_burgers, pts, n), expected)

    @pytest.mark.parametrize("n", [0, -3, 2.5])
    def test_bad_time_samples_rejected(self, n):
        grid = np.array([[0.0, 0.5], [0.2, 1.0]])
        with pytest.raises(ConfigurationError):
            burgers_sigma_grid(_stand_in(), grid, n)
        with pytest.raises(ConfigurationError):
            pseudo_profile(_stand_in(get_problem("burgers")), None, grid, n)

    def test_peak_independent_of_grid_size(self):
        # the points are grouped by x and the distinct rows evaluated in
        # ROW_BLOCK blocks as they accumulate: a 100x100 grid with 64 samples
        # holds one x group's rows, not its 640000 (x, tau) keys
        problem = get_problem("burgers")
        trained = _stand_in(problem, init_network([2, 32, 32, 1], "sigmoid", seed=0))
        grid = collocation_points(GridSpec((100, 100), ((-1.0, 1.0), (0.0, 2.0))))
        tracemalloc.start()
        try:
            burgers_sigma_grid(trained, grid, 64)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8e6

    def test_profile_dispatch(self, tiny_burgers):
        grid = np.array([[0.0, 0.0], [0.0, 1.0]])
        profile = pseudo_profile(tiny_burgers, None, grid)
        assert np.array_equal(profile.sigma_p, burgers_sigma_grid(tiny_burgers, grid))
        assert profile.sigma_p[0] == 0.0


def test_uniform_knots_cover_test_domain():
    knots = uniform_knots(get_problem("ode1.exp"), 40)
    assert knots[0] == 0.0 and knots[-1] == 4.0 and len(knots) == 41


@pytest.mark.parametrize("n", [2.7, 40.0, 0, True])
def test_uniform_knots_need_an_interval_count(n):
    with pytest.raises(ConfigurationError, match="n_intervals"):
        uniform_knots(get_problem("ode1.exp"), n)


def test_profile_csv_export(tmp_path, models_10, envelopes_10):
    from pinnbands.bands import write_csv

    trained = models_10["ode1.exp"]
    profile = pseudo_profile(trained, envelopes_10["ode1.exp"], np.linspace(0, 4, 5))
    path = tmp_path / "profile.csv"
    write_csv({"x": profile.grid, "sigma_P": profile.sigma_p}, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "x,sigma_P"
    assert len(lines) == 6
    assert float(lines[1].split(",")[1]) == 0.0
