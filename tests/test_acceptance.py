"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report.  Heavy artifacts (trained benchmark models, the Burgers desk model,
the coverage experiment cells) are session/module fixtures shared with the
unit tests, so the suite trains each configuration exactly once.
"""

import math
import time

import numpy as np
import pytest
from scipy.integrate import quad, solve_ivp

from pinnbands.bounds import (
    ResidualEnvelope,
    burgers_sigma_grid,
    pseudo_sigma,
)
from pinnbands.harness import ExperimentConfig, emit_outputs, run_experiment
from pinnbands.network import backward, forward_jets_batch, forward_values, init_network
from pinnbands.nlm import (
    SimulatedDataset,
    build_simulated_dataset,
    default_candidate_sigmas,
    feature_matrix,
    make_prior_eval_grid,
    nlm_band,
    nlm_fit,
    optimize_prior,
)
from pinnbands.problems import (
    NONSINGULAR_FIRST_ORDER_IDS,
    analytic_solution,
    burgers_initial_condition,
    get_problem,
    residual_from_jets,
    residual_jet_partials,
    surrogate_values,
)
from pinnbands.training import TrainConfig, train_deterministic, training_grid
from pinnbands.vi import (
    MeanFieldGaussian,
    gaussian_kl,
    sample_posterior,
    softplus,
    vi_init,
    vi_train,
    VIConfig,
)
from pinnbands.bounds import estimate_envelope, pseudo_profile

from conftest import TRAIN_SECONDS, moving_average, rate_problem

EVAL_GRID = np.linspace(0.0, 4.0, 401)


def report(criterion, detail):
    print(f"\nACCEPTANCE {criterion} PASS — {detail}")


# ---------------------------------------------------------------------------
# criterion 1: autodiff correctness
# ---------------------------------------------------------------------------


def test_c01_autodiff_matches_finite_differences():
    """Gradients and jets of 20 random small networks vs central differences.

    Relative errors are vector-norm ratios (per network for gradients,
    aggregated across networks for jets): per-component ratios are ill-posed
    wherever a derivative is incidentally near zero, since the second
    central difference carries ~4 eps |f| / h^2 of roundoff.
    """
    start = time.perf_counter()
    h = 1e-4
    problem2 = get_problem("ode2.damped.trig")
    grad_errs = []
    jet1_ad, jet1_fd, jet2_ad, jet2_fd = [], [], [], []

    for k in range(20):
        act = "tanh" if k % 2 == 0 else "sigmoid"
        two_input = k % 4 == 3
        sizes = [2, 5, 4, 1] if two_input else [1, 6, 5, 1]
        params = init_network(sizes, act, seed=100 + k)
        assert params.theta.size <= 100

        if two_input:
            # jets only (space-time style input): the full Hessian, mixed slot included
            x = np.array([0.3 + 0.05 * k, 0.6])
            out, _ = forward_jets_batch(params, x[None, :], ((0,), (1,), (0, 0), (0, 1), (1, 1)))
            d1 = out.slots[:2, 0]
            hxx, hxt, htt = out.slots[2:, 0]

            def f(a, b):
                return forward_values(params, np.array([[a, b]]))[0]

            fd1 = np.array(
                [
                    (f(x[0] + h, x[1]) - f(x[0] - h, x[1])) / (2 * h),
                    (f(x[0], x[1] + h) - f(x[0], x[1] - h)) / (2 * h),
                ]
            )
            fxx = (f(x[0] + h, x[1]) - 2 * f(*x) + f(x[0] - h, x[1])) / h**2
            ftt = (f(x[0], x[1] + h) - 2 * f(*x) + f(x[0], x[1] - h)) / h**2
            fxt = (
                f(x[0] + h, x[1] + h)
                - f(x[0] + h, x[1] - h)
                - f(x[0] - h, x[1] + h)
                + f(x[0] - h, x[1] - h)
            ) / (4 * h**2)
            fd2 = np.array([[fxx, fxt], [fxt, ftt]])
            jet1_ad.extend(d1)
            jet1_fd.extend(fd1)
            jet2_ad.extend([hxx, hxt, hxt, htt])
            jet2_fd.extend(fd2.ravel())
            continue

        pts = np.linspace(0.1, 1.9, 5)

        def loss_of(p):
            jets, _ = forward_jets_batch(p, pts[:, None], problem2.derivs)
            r = residual_from_jets(problem2, pts, jets)
            return float(np.mean(r * r))

        jets, tape = forward_jets_batch(params, pts[:, None], problem2.derivs, need_tape=True)
        r = residual_from_jets(problem2, pts, jets)
        dv, dslots = residual_jet_partials(problem2, pts, jets)
        rbar = 2.0 * r / len(r)
        grads = backward(params, tape, rbar * dv, rbar * dslots)

        ad, fd = [], []
        for garr, arr in zip(grads.weights + grads.biases, params.weights + params.biases):
            it = np.nditer(arr, flags=["multi_index"])
            for _ in it:
                idx = it.multi_index
                old = arr[idx]
                arr[idx] = old + h
                lp = loss_of(params)
                arr[idx] = old - h
                lm = loss_of(params)
                arr[idx] = old
                ad.append(garr[idx])
                fd.append((lp - lm) / (2 * h))
        ad, fd = np.asarray(ad), np.asarray(fd)
        grad_errs.append(np.linalg.norm(ad - fd) / np.linalg.norm(fd))

        x0 = 0.4 + 0.07 * k
        out, _ = forward_jets_batch(params, np.array([[x0]]), ((0,), (0, 0)))
        fp, f0, fm = (loss_scalar(params, x0 + h), loss_scalar(params, x0), loss_scalar(params, x0 - h))
        jet1_ad.append(out.slot((0,))[0])
        jet1_fd.append((fp - fm) / (2 * h))
        jet2_ad.append(out.slot((0, 0))[0])
        jet2_fd.append((fp - 2 * f0 + fm) / h**2)

    elapsed = time.perf_counter() - start
    jet1_err = np.linalg.norm(np.array(jet1_ad) - jet1_fd) / np.linalg.norm(jet1_fd)
    jet2_err = np.linalg.norm(np.array(jet2_ad) - jet2_fd) / np.linalg.norm(jet2_fd)
    assert max(grad_errs) < 1e-5
    assert jet1_err < 1e-5
    assert jet2_err < 1e-5
    assert elapsed < 10.0
    report(
        "C1",
        f"20 nets: grad rel err <= {max(grad_errs):.2e}, jet d1 {jet1_err:.2e}, "
        f"jet d2 {jet2_err:.2e}, {elapsed:.1f}s",
    )


def loss_scalar(params, x):
    return forward_values(params, np.array([[x]]))[0]


# ---------------------------------------------------------------------------
# criterion 2: deterministic solve quality
# ---------------------------------------------------------------------------


def test_c02_deterministic_solve_quality(models_10000):
    train_grid = np.linspace(0.0, 2.0, 201)
    details = []
    for pid, trained in models_10000.items():
        problem = trained.problem
        u = surrogate_values(problem, trained.params, train_grid)
        truth = analytic_solution(pid, train_grid)

        # independent RK45 cross-check of the analytic oracle at tol 1e-10
        sol = solve_ivp(
            lambda t, y: [float(problem.source(np.asarray(t))) - problem.lam * y[0]],
            (0.0, 2.0),
            [problem.u0],
            t_eval=train_grid,
            rtol=1e-10,
            atol=1e-10,
        )
        assert np.max(np.abs(truth - sol.y[0])) < 1e-8

        err = float(np.max(np.abs(u - truth)))
        assert err < 5e-2, pid
        assert TRAIN_SECONDS[pid] < 120.0, pid
        details.append(f"{pid}: max err {err:.2e} in {TRAIN_SECONDS[pid]:.0f}s")
    report("C2", "; ".join(details))


# ---------------------------------------------------------------------------
# criterion 3: error-bound soundness
# ---------------------------------------------------------------------------


def test_c03_bound_soundness(models_10000, envelopes_10000):
    details = []
    for pid, trained in models_10000.items():
        problem = trained.problem
        sig = pseudo_sigma(problem, envelopes_10000[pid], EVAL_GRID)
        u = surrogate_values(problem, trained.params, EVAL_GRID)
        truth = analytic_solution(pid, EVAL_GRID)
        violations = int(np.sum(np.abs(truth - u) > sig))
        assert violations == 0, pid
        details.append(f"{pid}: 0/{len(EVAL_GRID)} violations")
    report("C3", "; ".join(details))


# ---------------------------------------------------------------------------
# criterion 4: kernel vs quadrature equivalence
# ---------------------------------------------------------------------------


def _quad_bound(env, kernel, x):
    total = 0.0
    for a, b, eps in zip(env.knots[:-1], env.knots[1:], env.epsilons):
        if a >= x:
            break
        val, _ = quad(lambda xi: kernel(x - xi) * eps, a, min(b, x), epsabs=1e-13, epsrel=1e-13)
        total += val
    return total


def test_c04_kernels_match_quadrature():
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst = {"first": 0.0, "distinct": 0.0, "equal": 0.0, "zero": 0.0, "limit": 0.0}
    first, distinct = rate_problem(3.0), rate_problem(1.0, 2.0)
    equal, zero = rate_problem(1.5, 1.5), rate_problem(0.0, 0.0)
    near_equal = rate_problem(1.5, 1.5 + 1e-6)
    for _ in range(50):
        inner = np.sort(rng.uniform(0.1, 3.9, rng.integers(1, 7)))
        knots = np.concatenate([[0.0], inner, [4.0]])
        env = ResidualEnvelope(knots, rng.uniform(0.0, 2.0, len(knots) - 1))
        xs = rng.uniform(0.5, 4.0, 2)
        for x in xs:
            x = float(x)
            cases = {
                "first": (
                    pseudo_sigma(first, env, x),
                    _quad_bound(env, lambda s: np.exp(-3.0 * s), x),
                ),
                "distinct": (
                    pseudo_sigma(distinct, env, x),
                    _quad_bound(env, lambda s: np.exp(-s) - np.exp(-2.0 * s), x),
                ),
                "equal": (
                    pseudo_sigma(equal, env, x),
                    _quad_bound(env, lambda s: s * np.exp(-1.5 * s), x),
                ),
                "zero": (
                    pseudo_sigma(zero, env, x),
                    _quad_bound(env, lambda s: s, x),
                ),
            }
            for name, (closed, reference) in cases.items():
                rel = abs(closed - reference) / max(abs(reference), 1e-300)
                worst[name] = max(worst[name], rel)
        for x in (1.0, 2.7, 4.0):
            a = pseudo_sigma(near_equal, env, x)
            b = pseudo_sigma(equal, env, x)
            worst["limit"] = max(worst["limit"], abs(a - b) / b)
    elapsed = time.perf_counter() - start
    for name in ("first", "distinct", "equal", "zero"):
        assert worst[name] < 1e-9, (name, worst[name])
    assert worst["limit"] < 1e-5
    assert elapsed < 5.0
    report(
        "C4",
        f"50 envelopes: kernel vs quadrature <= {max(worst[k] for k in ('first','distinct','equal','zero')):.2e}, "
        f"equal-limit vs near-equal distinct <= {worst['limit']:.2e}, {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# criterion 5: NLM exactness
# ---------------------------------------------------------------------------


def _brute_force_posterior(phi, y, variances, prior_sigma):
    m, dim = phi.shape
    a = np.empty((dim, dim))
    b = np.empty(dim)
    for i in range(dim):
        for j in range(dim):
            a[i, j] = math.fsum(phi[k, i] * phi[k, j] / variances[k] for k in range(m))
        a[i, i] += 1.0 / prior_sigma**2
        b[i] = math.fsum(phi[k, i] * y[k] / variances[k] for k in range(m))
    cov = np.linalg.inv(a)
    return cov @ b, cov


def test_c05_nlm_exactness(models_10000, envelopes_10000):
    trained = models_10000["ode1.exp"]
    env = envelopes_10000["ode1.exp"]
    pts = training_grid(trained)
    fm = feature_matrix(trained, pts)
    assert fm.shape == (32, 33)

    # exact-algebra check on a well-conditioned heteroscedastic system
    rng = np.random.default_rng(7)
    variances = rng.uniform(0.5, 2.0, 32)
    data = SimulatedDataset(pts, rng.normal(size=32), variances)
    post = nlm_fit(fm, data, 0.7)
    mean_bf, cov_bf = _brute_force_posterior(fm, data.targets, variances, 0.7)
    mean_err = np.linalg.norm(post.mean - mean_bf) / np.linalg.norm(mean_bf)
    cov_err = np.linalg.norm(post.covariance - cov_bf) / np.linalg.norm(cov_bf)
    assert mean_err < 1e-8 and cov_err < 1e-8

    # pipeline fit: predictive variance never falls below sigma_P^2
    dataset = build_simulated_dataset(trained, pseudo_profile(trained, env, pts))
    search = optimize_prior(
        feature_matrix(trained, dataset.points),
        dataset,
        make_prior_eval_grid(trained, env),
        default_candidate_sigmas(),
    )
    profile = pseudo_profile(trained, env, EVAL_GRID)
    band = nlm_band(trained, search.posterior, profile)
    assert np.all(band.total_var >= band.sigma_p2)

    candidates = default_candidate_sigmas()
    assert len(candidates) == 100
    assert candidates[0] == 0.1 and candidates[-1] == 1.0
    assert isinstance(search.feasible, bool)
    report(
        "C5",
        f"brute-force agreement {max(mean_err, cov_err):.2e}; predictive var >= sigma_P^2 on "
        f"{len(EVAL_GRID)} points; 100-candidate scan feasible={search.feasible} "
        f"(sigma*={search.sigma:.3f})",
    )


# ---------------------------------------------------------------------------
# criteria 6 and 7: coverage of error-aware bands, baseline contrast
# ---------------------------------------------------------------------------


def _desk_config(pid, method, det_epochs):
    return ExperimentConfig(
        problem=pid,
        method=method,
        det_epochs=det_epochs,
        vi_epochs=5000,
        seed=0,
        grid_points=201,
    )


@pytest.fixture(scope="module")
def coverage_reports():
    reports = {}
    for pid in NONSINGULAR_FIRST_ORDER_IDS:
        for method in ("error_aware_nlm", "error_aware_vi"):
            for det_epochs in (10, 10000):
                key = (pid, method, det_epochs)
                reports[key] = run_experiment(_desk_config(pid, method, det_epochs))
    return reports


def test_c06_error_aware_coverage(coverage_reports):
    details = []
    for (pid, method, det_epochs), rep in coverage_reports.items():
        coverage = rep.metrics["coverage_3sigma_full"]
        assert coverage >= 0.99, (pid, method, det_epochs, coverage)
        extrap = rep.metrics["coverage_3sigma_extrapolation"]
        assert extrap >= 0.99, (pid, method, det_epochs, extrap)
        details.append(f"{pid}/{method}/det{det_epochs}: {coverage:.3f}")
    report("C6", "12 cells all >= 0.99 full-domain 3-sigma coverage: " + "; ".join(details[:4]) + " ...")


def test_c07_baseline_contrast(coverage_reports):
    pid = "ode1.exp"
    baseline = run_experiment(_desk_config(pid, "baseline_vi", 10))
    aware = coverage_reports[(pid, "error_aware_vi", 10)]

    def extrapolation_coverage(rep):
        x = rep.table["x"]
        covered = rep.table["covered_3sigma"]
        return float(np.mean(covered[x >= 2.0]))

    cov_base = extrapolation_coverage(baseline)
    cov_aware = extrapolation_coverage(aware)
    assert cov_base < cov_aware
    report(
        "C7",
        f"{pid} det10 on [2,4]: baseline_vi coverage {cov_base:.3f} < error_aware_vi {cov_aware:.3f}",
    )


# ---------------------------------------------------------------------------
# criterion 8: VI mechanics
# ---------------------------------------------------------------------------


def test_c08_vi_mechanics(models_10000, envelopes_10000):
    # (a) closed-form KL vs 10^6-sample Monte Carlo
    rng = np.random.default_rng(5)
    mus = rng.normal(size=8)
    sigmas = rng.uniform(0.2, 1.2, 8)
    q = MeanFieldGaussian([1, 1], "tanh", mus, np.log(np.expm1(sigmas)))
    prior_sigma = 0.6
    exact = gaussian_kl(q, prior_sigma, softplus(q.rho))
    n = 1_000_000
    z = rng.standard_normal((n, 8))
    theta = mus + sigmas * z
    logq = np.sum(-0.5 * z**2 - np.log(sigmas), axis=1)
    logp = np.sum(-0.5 * (theta / prior_sigma) ** 2 - np.log(prior_sigma), axis=1)
    mc = float(np.mean(logq - logp))
    kl_rel = abs(mc - exact) / abs(exact)
    assert kl_rel < 0.01

    # (b) ELBO moving average nondecreasing (fixed-draw evaluation trace)
    trained = models_10000["ode1.exp"]
    pts = training_grid(trained)
    profile = pseudo_profile(trained, envelopes_10000["ode1.exp"], pts)
    config = VIConfig(prior_sigma=float(np.sqrt(0.1)), epochs=5000, seed=0)
    run = vi_train(trained, config, build_simulated_dataset(trained, profile))
    ma = moving_average(run.elbo_history, 1000)
    skip = int(0.05 * config.epochs)
    tail = ma[skip:]
    slack = 1e-4 * (np.max(ma) - np.min(ma))
    dips = np.diff(tail)
    assert np.all(dips >= -slack), float(dips.min())

    # (c) frozen means at rho = -12 reproduce the deterministic surrogate
    q0 = vi_init(trained, seed=3)
    q0.rho[:] = -12.0
    samples = sample_posterior(q0, 1000, seed=5)
    from pinnbands.vi import predictive_moments

    band = predictive_moments(samples, trained.problem, EVAL_GRID)
    u_mse = surrogate_values(trained.problem, trained.params, EVAL_GRID)
    dev = float(np.max(np.abs(band.mean - u_mse)))
    assert dev < 1e-3
    report(
        "C8",
        f"KL MC rel err {kl_rel:.4f}; ELBO MA min step {dips.min():+.2e} within slack "
        f"{slack:.1e}; rho=-12 max|mean - u_mse| = {dev:.1e}",
    )


# ---------------------------------------------------------------------------
# criterion 9: Burgers desk scale
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def burgers_desk():
    cfg = TrainConfig(2000, 0, (50, 50))
    start = time.perf_counter()
    trained = train_deterministic("burgers", cfg)
    return trained, time.perf_counter() - start


def test_c09_burgers_desk_scale(burgers_desk):
    trained, elapsed = burgers_desk
    problem = trained.problem
    assert problem.nu == pytest.approx(0.01 / np.pi)
    xs = np.linspace(-1.0, 1.0, 50)
    ts = np.linspace(0.0, 2.0, 21)

    ic_pts = np.stack([xs, np.zeros_like(xs)], axis=1)
    ic_dev = np.abs(
        surrogate_values(problem, trained.params, ic_pts) - burgers_initial_condition(xs)
    )
    assert np.max(ic_dev) == 0.0

    for xb in (-1.0, 1.0):
        wall = surrogate_values(
            problem, trained.params, np.stack([np.full_like(ts, xb), ts], axis=1)
        )
        assert np.max(np.abs(wall)) == 0.0

    sigma_t0 = burgers_sigma_grid(trained, np.stack([xs, np.zeros_like(xs)], axis=1), 64)
    assert np.all(sigma_t0 == 0.0)

    means = []
    for t in (0.0, 0.5, 1.0, 1.5, 2.0):
        pts = np.stack([xs, np.full_like(xs, t)], axis=1)
        means.append(float(np.mean(burgers_sigma_grid(trained, pts, 64))))
    assert all(b >= a - 1e-12 for a, b in zip(means, means[1:]))
    assert elapsed < 600.0
    report(
        "C9",
        f"IC/BC exact; sigma_P(.,0)=0; mean sigma_P over x at t=0..2: "
        + ", ".join(f"{m:.3f}" for m in means)
        + f"; trained in {elapsed:.0f}s",
    )


# ---------------------------------------------------------------------------
# criterion 10: determinism
# ---------------------------------------------------------------------------


def test_c10_bit_reproducibility(tmp_path):
    # deterministic training
    cfg = TrainConfig(300, 11)
    a = train_deterministic("ode1.cos", cfg)
    b = train_deterministic("ode1.cos", cfg)
    assert np.array_equal(a.params.theta, b.params.theta)
    assert np.array_equal(a.loss_history, b.loss_history)

    # variational training and posterior sampling
    env = estimate_envelope(a)
    profile = pseudo_profile(a, env, training_grid(a))
    vcfg = VIConfig(prior_sigma=0.5, epochs=60, seed=2)
    ra = vi_train(a, vcfg, build_simulated_dataset(a, profile))
    rb = vi_train(b, vcfg, build_simulated_dataset(b, profile))
    assert np.array_equal(ra.elbo_history, rb.elbo_history)
    for sa, sb in zip(sample_posterior(ra.q, 16, 3), sample_posterior(rb.q, 16, 3)):
        assert np.array_equal(sa.theta, sb.theta)

    # full experiment cell emits byte-identical files
    xcfg = ExperimentConfig(
        problem="ode1.poly", method="error_aware_nlm", det_epochs=150, grid_points=61, seed=4
    )
    dir_a, dir_b = tmp_path / "a", tmp_path / "b"
    emit_outputs(run_experiment(xcfg), dir_a)
    emit_outputs(run_experiment(xcfg), dir_b)
    import os

    names = sorted(os.listdir(dir_a))
    assert names == sorted(os.listdir(dir_b))
    for name in names:
        assert (dir_a / name).read_bytes() == (dir_b / name).read_bytes(), name
    report("C10", f"training, VI, sampling, and {len(names)} report files bit-identical across reruns")
