"""Problem registry, hard-IC transforms, residuals, analytic oracles.

The residual-at-truth checks build exact jets of each analytic solution by
hand (independent symbolic differentiation) and require the operator, written
out in the test from each problem's coefficients and source, to vanish on
them.  Analytic solutions are cross-checked against RK45.  Surrogate values,
slopes and residuals of the batched engine are checked against hand
arithmetic, the chain rule written out here, and central differences.
"""

import numpy as np
import pytest
from scipy.integrate import quad, solve_ivp

from pinnbands.errors import ConfigurationError, DomainError
from pinnbands.harness import ExperimentConfig
from pinnbands.network import NetworkParameters, forward_jets_batch, init_network
from pinnbands.problems import (
    REGISTRY,
    BurgersProblem,
    ODEProblem,
    analytic_solution,
    burgers_initial_condition,
    get_entry,
    get_problem,
    residual_values,
    surrogate_values,
    sin_pi,
)

OMEGA = np.sqrt(7.0) / 2.0
ROOT = complex(-1.5, OMEGA)


def damped_hom_jets(t, A, B):
    """(u, u', u'') of exp(-1.5 t) (A cos(w t) + B sin(w t))."""
    c = complex(A, -B)
    e = np.exp(ROOT * t)
    return (c * e).real, (c * ROOT * e).real, (c * ROOT * ROOT * e).real


def _kernel_derivs(tau, k):
    return (ROOT**k * np.exp(ROOT * tau)).imag / OMEGA


def damped_log_jets(t):
    """Exact jets of the damped-log solution via differentiated quadrature.

    Differentiating the convolution twice picks up the boundary term
    g'(0) f(t) = f(t) since the impulse response has unit initial slope.
    """
    f = get_problem("ode2.damped.log").source
    parts = []
    for k in (0, 1, 2):
        val, _ = quad(
            lambda s, k=k: _kernel_derivs(t - s, k) * float(f(np.asarray(s))),
            0.0, t, epsabs=1e-13, epsrel=1e-13, limit=400,
        )
        parts.append(val)
    h0, h1, h2 = damped_hom_jets(t, 2.0, 0.0)
    f_t = float(f(np.asarray(t)))
    return h0 + parts[0], h1 + parts[1], h2 + parts[2] + f_t


# exact (u, u', u'') per registered equation; first-order rows give (u, u')
TRUE_JETS = {
    "ode1.poly": lambda t: (np.exp(-3 * t) + t**2 + t + 1, -3 * np.exp(-3 * t) + 2 * t + 1),
    "ode1.cos": lambda t: (
        np.exp(-3 * t) + np.cos(3 * t) + np.sin(3 * t),
        -3 * np.exp(-3 * t) - 3 * np.sin(3 * t) + 3 * np.cos(3 * t),
    ),
    "ode1.exp": lambda t: (np.exp(-3 * t) + np.exp(t), -3 * np.exp(-3 * t) + np.exp(t)),
    "ode2.harmonic.exp": lambda t: (
        np.exp(t) + np.cos(t) + np.sin(t),
        np.exp(t) - np.sin(t) + np.cos(t),
        np.exp(t) - np.cos(t) - np.sin(t),
    ),
    "ode2.harmonic.poly": lambda t: (
        t**2 + t + 1 + np.cos(t) + np.sin(t),
        2 * t + 1 - np.sin(t) + np.cos(t),
        2 - np.cos(t) - np.sin(t),
    ),
    "ode2.harmonic.log": lambda t: (
        np.log(t + 1) + np.cos(t) + np.sin(t),
        1 / (t + 1) - np.sin(t) + np.cos(t),
        -((t + 1.0) ** -2.0) - np.cos(t) - np.sin(t),
    ),
    "ode2.harmonic.chirp": lambda t: (
        np.sin(t**2) + np.cos(t) + np.sin(t),
        2 * t * np.cos(t**2) - np.sin(t) + np.cos(t),
        2 * np.cos(t**2) - 4 * t**2 * np.sin(t**2) - np.cos(t) - np.sin(t),
    ),
    "ode2.damped.exp": lambda t: tuple(
        np.exp(t) + h for h in damped_hom_jets(t, 2.0, -1.0 / OMEGA)
    ),
    "ode2.damped.poly": lambda t: tuple(
        p + h
        for p, h in zip(
            (0.75 * t**2 + 1.625 * t + 0.65625, 1.5 * t + 1.625, 1.5),
            damped_hom_jets(t, 2.34375, -1.109375 / OMEGA),
        )
    ),
    "ode2.damped.trig": lambda t: tuple(
        p + h
        for p, h in zip(
            (
                (4 / 3) * np.cos(t) + (2 / 3) * np.sin(t),
                -(4 / 3) * np.sin(t) + (2 / 3) * np.cos(t),
                -(4 / 3) * np.cos(t) - (2 / 3) * np.sin(t),
            ),
            damped_hom_jets(t, 5.0 / 3.0, -7.0 / (6.0 * OMEGA)),
        )
    ),
}


def ode_residual(problem, x, u, du, ddu=0.0):
    """u' + lam u - f, or u'' + c1 u' + c0 u - f, from the problem's fields."""
    f = float(problem.source(np.asarray(x, dtype=float)))
    if problem.order == 1:
        return du + problem.lam * u - f
    return ddu + problem.c1 * du + problem.c0 * u - f


def linear_net(value, slope=0.0):
    """One-input network value + slope * x (a single linear layer)."""
    net = NetworkParameters.zeros([1, 1], "tanh")
    net.weights[0][:] = slope
    net.biases[0][:] = value
    return net


def ode2_slope(problem, net, x):
    """d/dx of u0 + u0' m + m^2 net with m = 1 - e^-(x - x0), from the slots."""
    out, _ = forward_jets_batch(net, np.array([[x]]), ((0,),))
    v, g = out.value[0], out.slot((0,))[0]
    mp = np.exp(-(x - problem.x0))
    m = 1.0 - mp
    return problem.u0_prime * mp + 2.0 * m * mp * v + m * m * g


def burgers_jets(net, x, t):
    """(u, u_x, u_t, u_xx) of -sin(pi x) e^-t + (1 - x^2)(1 - e^-t) net(x, t),
    by the chain rule over the network's slots."""
    out, _ = forward_jets_batch(net, np.array([[x, t]]), ((0,), (1,), (0, 0)))
    v = out.value[0]
    gx, gt, hxx = out.slots[:, 0]
    e, s, c = np.exp(-t), np.sin(np.pi * x), np.cos(np.pi * x)
    a, a_x, a_t, a_xx = -s * e, -np.pi * c * e, s * e, np.pi**2 * s * e
    b, b_x, b_t, b_xx = (1 - x * x) * (1 - e), -2 * x * (1 - e), (1 - x * x) * e, -2 * (1 - e)
    return (
        a + b * v,
        a_x + b_x * v + b * gx,
        a_t + b_t * v + b * gt,
        a_xx + b_xx * v + 2 * b_x * gx + b * hxx,
    )


class TestRegistry:
    def test_all_ids_present(self):
        ids = list(REGISTRY)
        assert len(ids) == 13
        assert "burgers" in ids and "ode1.poly" in ids

    def test_unknown_id_rejected(self):
        with pytest.raises(ConfigurationError):
            get_problem("ode9.unknown")
        # an unhashable id is no registered string either
        with pytest.raises(ConfigurationError):
            get_problem(["ode1.exp"])
        with pytest.raises(ConfigurationError):
            ExperimentConfig(problem=["ode1.exp"]).validate()
        with pytest.raises(ConfigurationError):
            analytic_solution("ode9.unknown", 0.0)

    def test_first_order_invariants(self):
        for lam in (-1.0, None, float("nan")):
            with pytest.raises(ConfigurationError, match="lam"):
                ODEProblem(order=1, lam=lam, source=lambda t: t, u0=2.0)
        with pytest.raises(ConfigurationError):
            ODEProblem(order=1, lam=3.0, source=lambda t: t, u0=0.0)

    @pytest.mark.parametrize("nu", [0.0, -1.0, float("nan"), float("inf")])
    def test_burgers_viscosity_positive_and_finite(self, nu):
        with pytest.raises(ConfigurationError, match="nu"):
            BurgersProblem(nu=nu)

    def test_damped_real_parts(self):
        lam1, lam2 = get_problem("ode2.damped.exp").real_parts()
        assert lam1 == pytest.approx(1.5) and lam2 == pytest.approx(1.5)
        lam1, lam2 = get_problem("ode2.harmonic.exp").real_parts()
        assert lam1 == 0.0 and lam2 == 0.0

    @pytest.mark.parametrize("pid", list(REGISTRY))
    def test_vi_prior_follows_the_order(self, pid):
        # N(0, 0.1) for a first-order equation, N(0, 1) otherwise
        expect = float(np.sqrt(0.1)) if pid.startswith("ode1.") else 1.0
        prior_sigma = get_problem(pid).prior_sigma
        assert type(prior_sigma) is float and prior_sigma == expect


class TestReparameterize:
    def test_order1_pins_value_exactly(self):
        problem = get_problem("ode1.poly")
        net = linear_net(13.7, 2.0)
        assert surrogate_values(problem, net, np.array([problem.x0]))[0] == problem.u0

    def test_order1_asymptotic_value(self):
        problem = get_problem("ode1.poly")
        u = surrogate_values(problem, linear_net(0.75), np.array([40.0]))[0]
        assert u == pytest.approx(2.0 + 0.75, abs=1e-15)

    def test_order2_pins_value_and_slope(self):
        problem = get_problem("ode2.damped.exp")  # u(0)=3, u'(0)=-3
        net = linear_net(4.2, -1.3)
        assert surrogate_values(problem, net, np.array([problem.x0]))[0] == 3.0
        assert ode2_slope(problem, net, problem.x0) == pytest.approx(-3.0, abs=1e-12)

    def test_hard_enforcement_100_random_networks(self):
        p1 = get_problem("ode1.cos")
        p2 = get_problem("ode2.harmonic.log")  # u(0)=1, u'(0)=2
        x0 = np.array([p1.x0])
        for seed in range(100):
            net = init_network([1, 6, 1], "tanh", seed=seed)
            assert surrogate_values(p1, net, x0)[0] == p1.u0
            assert surrogate_values(p2, net, x0)[0] == p2.u0
            assert abs(ode2_slope(p2, net, p2.x0) - p2.u0_prime) < 1e-12


class TestResidual:
    def test_hand_arithmetic_cancellation(self):
        # zero network: u~ = u0 = 2 everywhere, so u' + 3u - 6 = 0 exactly
        problem = ODEProblem(order=1, lam=3.0, source=lambda t: np.full_like(np.asarray(t, dtype=float), 6.0), u0=2.0)
        net = NetworkParameters.zeros([1, 4, 1], "tanh")
        assert residual_values(problem, net, np.array([1.3]))[0] == 0.0

    def test_hand_arithmetic_exp_source(self):
        # constant net c: u~ = 2 + (1 - e^-x) c, u~' = e^-x c, f = 4 e^x
        problem = get_problem("ode1.exp")
        c = 0.5
        r = residual_values(problem, linear_net(c), np.array([0.0, 1.0]))
        assert r[0] == pytest.approx(c + 3.0 * 2.0 - 4.0, abs=1e-15)
        hand = np.exp(-1.0) * c + 3.0 * (2.0 + (1.0 - np.exp(-1.0)) * c) - 4.0 * np.e
        assert r[1] == pytest.approx(hand, abs=1e-14)

    @pytest.mark.parametrize("pid", sorted(TRUE_JETS))
    def test_residual_vanishes_on_true_jets(self, pid):
        problem = get_problem(pid)
        grid = np.linspace(problem.x0, problem.test_domain[1], 200)
        worst = 0.0
        for x in grid:
            worst = max(worst, abs(ode_residual(problem, x, *TRUE_JETS[pid](x))))
        assert worst < 1e-10

    def test_residual_vanishes_damped_log_quadrature_jets(self):
        # reference jets come from differentiated quadrature (tol ~1e-13),
        # so the bar sits just above the closed-form rows
        problem = get_problem("ode2.damped.log")
        for x in np.linspace(0.0, 4.0, 50):
            assert abs(ode_residual(problem, x, *damped_log_jets(x))) < 1e-9

    def test_logsing_consistency_before_singularity(self):
        problem = get_problem("ode1.logsing")
        for x in np.linspace(0.0, 0.9, 20):
            u = analytic_solution("ode1.logsing", x)
            du = float(problem.source(np.asarray(x))) - 3.0 * u
            assert abs(ode_residual(problem, x, u, du)) < 1e-10


class TestAnalytic:
    def test_initial_values_exact(self):
        assert analytic_solution("ode1.poly", 0.0) == 2.0
        assert analytic_solution("ode2.harmonic.log", 0.0) == 1.0

    def test_closed_forms_at_one(self):
        assert analytic_solution("ode1.poly", 1.0) == pytest.approx(np.exp(-3) + 3, abs=1e-14)
        assert analytic_solution("ode1.exp", 1.0) == pytest.approx(np.exp(-3) + np.e, abs=1e-14)

    def test_logsing_domain_error(self):
        with pytest.raises(DomainError):
            analytic_solution("ode1.logsing", 1.0)
        with pytest.raises(DomainError):
            analytic_solution("ode1.logsing", np.array([0.5, 1.5]))

    @pytest.mark.parametrize("pid", [p for p in REGISTRY if p != "burgers"])
    def test_matches_rk45_oracle(self, pid):
        entry = get_entry(pid)
        problem = entry.problem
        t_end = 0.9 if entry.singular else problem.test_domain[1]
        ts = np.linspace(problem.x0, t_end, 33)
        if problem.order == 1:
            rhs = lambda t, y: [float(problem.source(np.asarray(t))) - problem.lam * y[0]]
            y0 = [problem.u0]
        else:
            rhs = lambda t, y: [
                y[1],
                float(problem.source(np.asarray(t))) - problem.c1 * y[1] - problem.c0 * y[0],
            ]
            y0 = [problem.u0, problem.u0_prime]
        sol = solve_ivp(rhs, (ts[0], ts[-1]), y0, t_eval=ts, rtol=1e-10, atol=1e-10)
        ana = np.atleast_1d(analytic_solution(pid, ts))
        assert np.max(np.abs(ana - sol.y[0])) < 1e-8


class TestBurgersSurrogate:
    def test_initial_condition_any_network(self):
        net = init_network([2, 8, 1], "sigmoid", seed=5)
        problem = get_problem("burgers")
        xs = np.array([-0.8, -0.3, 0.0, 0.4, 0.9])
        u = surrogate_values(problem, net, np.stack([xs, np.zeros_like(xs)], axis=1))
        assert np.array_equal(u, burgers_initial_condition(xs))

    def test_walls_exactly_zero(self):
        net = init_network([2, 8, 1], "sigmoid", seed=5)
        problem = get_problem("burgers")
        for t in (0.0, 0.5, 1.7):
            u = surrogate_values(problem, net, np.array([[1.0, t], [-1.0, t]]))
            assert np.all(u == 0.0)

    def test_zero_network_closed_form(self):
        net = init_network([2, 8, 1], "sigmoid", seed=0)
        for w in net.weights:
            w[:] = 0.0
        u = surrogate_values(get_problem("burgers"), net, np.array([[0.5, 1.0]]))[0]
        assert u == pytest.approx(-np.exp(-1.0), abs=1e-15)

    def test_jet_matches_batched_residual_path(self):
        # u_t + u u_x - nu u_xx from central differences of the surrogate; the
        # bar adds the difference bars of the derivative checks below
        net = init_network([2, 8, 1], "sigmoid", seed=11)
        problem = get_problem("burgers")
        pts = np.array([[0.3, 0.7], [-0.6, 1.4]])
        r_batch = residual_values(problem, net, pts)

        def u(x, t):
            return surrogate_values(problem, net, np.array([[x, t]]))[0]

        h = 1e-5
        for k, (x, t) in enumerate(pts):
            u_x = (u(x + h, t) - u(x - h, t)) / (2 * h)
            u_t = (u(x, t + h) - u(x, t - h)) / (2 * h)
            u_xx = (u(x + h, t) - 2 * u(x, t) + u(x - h, t)) / h**2
            fd = u_t + u(x, t) * u_x - problem.nu * u_xx
            assert r_batch[k] == pytest.approx(fd, abs=1e-6)

    def test_jets_match_finite_differences(self):
        net = init_network([2, 6, 1], "sigmoid", seed=2)
        problem = get_problem("burgers")

        def u(x, t):
            return surrogate_values(problem, net, np.array([[x, t]]))[0]

        x, t, h = 0.25, 0.8, 1e-5
        value, u_x, u_t, u_xx = burgers_jets(net, x, t)
        assert value == pytest.approx(u(x, t), rel=1e-14, abs=1e-15)
        assert u_x == pytest.approx((u(x + h, t) - u(x - h, t)) / (2 * h), abs=1e-7)
        assert u_t == pytest.approx((u(x, t + h) - u(x, t - h)) / (2 * h), abs=1e-7)
        assert u_xx == pytest.approx((u(x + h, t) - 2 * u(x, t) + u(x - h, t)) / h**2, abs=1e-4)


def test_sin_pi_exact_at_integers():
    assert sin_pi(1.0) == 0.0
    assert sin_pi(-1.0) == 0.0
    assert sin_pi(2.0) == 0.0
    assert sin_pi(0.5) == 1.0
    xs = np.linspace(-0.49, 0.49, 11)
    assert np.allclose(sin_pi(xs), np.sin(np.pi * xs), rtol=0, atol=0)


def test_surrogate_values_match_jet_path_ode(models_10000):
    trained = models_10000["ode1.poly"]
    problem = trained.problem
    xs = np.linspace(0, 4, 17)
    batch = surrogate_values(problem, trained.params, xs)
    for k, x in enumerate(xs):
        out, _ = forward_jets_batch(trained.params, np.array([[x]]), ((0,),))
        u = problem.u0 + (1.0 - np.exp(-(x - problem.x0))) * out.value[0]
        assert batch[k] == pytest.approx(u, rel=1e-13, abs=1e-14)
