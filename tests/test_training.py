"""Deterministic residual training: determinism, loss behavior, oracles."""

import json
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from pinnbands.errors import ConfigurationError, TrainingDivergedError
from pinnbands.network import ROW_BLOCK, backward, forward_jets_batch, init_network
from pinnbands.weights_io import save_weights
from pinnbands.problems import (
    ODEProblem,
    analytic_solution,
    get_problem,
    residual_from_jets,
    residual_jet_partials,
    residual_pieces,
    surrogate_values,
)
from pinnbands.training import (
    TrainConfig,
    collocation_points,
    load_trained,
    mse_residual_loss,
    residual_loss_and_grads,
    save_trained,
    train_deterministic,
    training_grid,
)

from conftest import NONSINGULAR_FIRST_ORDER_IDS


def naive_mse(problem, params, points):
    """Two-loop recomputation of the mean squared residual: one point at a
    time, with the hard-IC transform and the operator written out here."""
    total = 0.0
    for x in points:
        out, _ = forward_jets_batch(params, np.array([[x]]), ((0,), (0, 0)))
        v, g, h = out.value[0], out.slot((0,))[0], out.slot((0, 0))[0]
        mp = np.exp(-(x - problem.x0))
        m, mpp = 1.0 - mp, -mp
        f = float(problem.source(np.asarray(x)))
        if problem.order == 1:
            u, du = problem.u0 + m * v, mp * v + m * g
            r = du + problem.lam * u - f
        else:
            a, da, dda = problem.u0_prime * m, problem.u0_prime * mp, problem.u0_prime * mpp
            u = problem.u0 + a + m * m * v
            du = da + 2 * m * mp * v + m * m * g
            ddu = dda + 2 * (mp * mp + m * mpp) * v + 4 * m * mp * g + m * m * h
            r = ddu + problem.c1 * du + problem.c0 * u - f
        total += r * r
    return total / len(points)


class TestLoss:
    def test_constant_residual_mean(self):
        # constant residual c at every point gives loss exactly c^2; build it
        # from a zero network on u' + 3u = 6 with u0 = 2: residual is 3*2-6=0,
        # shift the source to make it c = -4
        problem = get_problem("ode1.exp")  # f(0)=4, zero net value pinned to 2 at x0
        params = init_network([1, 4, 1], "tanh", seed=0)
        for w in params.weights:
            w[:] = 0.0
        pts = np.zeros(3)
        # at x=0: residual = u'(0) + 3*2 - 4 ; transform makes u'(0) = net(0) = 0
        assert mse_residual_loss(problem, params, pts) == pytest.approx(4.0, abs=1e-13)

    def test_matches_naive_two_loop_oracle(self):
        problem = get_problem("ode1.cos")
        params = init_network([1, 32, 32, 1], "tanh", seed=0)
        pts = np.linspace(0, 2, 32)
        fast = mse_residual_loss(problem, params, pts)
        slow = naive_mse(problem, params, pts)
        assert fast == pytest.approx(slow, rel=1e-12)

    def test_second_order_matches_naive(self):
        problem = get_problem("ode2.damped.trig")
        params = init_network([1, 8, 8, 1], "tanh", seed=3)
        pts = np.linspace(0, 2, 16)
        assert mse_residual_loss(problem, params, pts) == pytest.approx(
            naive_mse(problem, params, pts), rel=1e-12
        )


def test_burgers_slot_gradient_matches_finite_differences():
    # nonlinear residual u_t + u u_x - nu u_xx over the slots (x,), (t,), (x, x)
    from pinnbands.network import backward, forward_jets_batch
    from pinnbands.problems import residual_values

    problem = get_problem("burgers")
    assert problem.derivs == ((0,), (1,), (0, 0))
    rng = np.random.default_rng(11)
    pts = np.stack([rng.uniform(-0.9, 0.9, 8), rng.uniform(0.1, 0.9, 8)], axis=1)
    h = 1e-4
    for seed in range(3):
        params = init_network([2, 5, 4, 1], "sigmoid", seed=seed)
        for w in params.weights:
            w *= 2.0

        jets, tape = forward_jets_batch(params, pts, problem.derivs, need_tape=True)
        pieces = residual_pieces(problem, pts)
        r = residual_from_jets(problem, jets, pieces)
        dv, dslots = residual_jet_partials(problem, jets, pieces)
        rbar = 2.0 * r / len(r)
        grads = backward(params, tape, rbar * dv, rbar * dslots)

        def loss_of(p):
            res = residual_values(problem, p, pts)
            return float(np.mean(res * res))

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
        assert np.linalg.norm(ad - fd) / np.linalg.norm(fd) < 1e-5


def _gamma(n):
    """Higham's gamma_n = n u / (1 - n u), u the unit roundoff of a double."""
    u = np.finfo(float).eps / 2
    return n * u / (1 - n * u)


def _burgers_rows(m, seed=0):
    problem = get_problem("burgers")
    params = init_network([2, 32, 32, 1], "sigmoid", seed=seed)
    rng = np.random.default_rng(seed)
    pts = np.stack([rng.uniform(-1.0, 1.0, m), rng.uniform(0.0, 1.0, m)], axis=1)
    return problem, params, pts


def _gradient_terms_abs(problem, params, pts):
    """Per parameter, the sum of |term| over the terms that the gradient's
    sums over rows add: per row, the layer cotangent times the layer input
    value, then times each input slot, and the cotangent alone for a bias.

    Each row runs backward once per path, on a tape whose layer inputs are
    |value| with zero slots, or |slot s| with everything else zero.
    """
    n_weights = sum(w.size for w in params.weights)
    S = len(problem.derivs)
    total = np.zeros_like(params.theta)
    for i in range(len(pts)):
        row = pts[i:i + 1]
        jets, tape = forward_jets_batch(params, row, problem.derivs, need_tape=True)
        pieces = residual_pieces(problem, row)
        r = residual_from_jets(problem, jets, pieces)
        dv, dslots = residual_jet_partials(problem, jets, pieces)
        rbar = 2.0 * r / len(pts)
        for path in range(S + 1):
            layers = []
            for (a_v, a_G), z_G, act in tape.layers:
                G = np.zeros_like(a_G)
                if path:
                    G[path - 1] = np.abs(a_G[path - 1])
                v = np.zeros_like(a_v) if path else np.abs(a_v)
                layers.append(((v, G), z_G, act))
            g = backward(params, replace(tape, layers=layers), rbar * dv, rbar * dslots)
            # the bias terms are the value path's cotangents alone
            end = n_weights if path else None
            total[:end] += np.abs(g.theta[:end])
    return total


class TestRowBlocks:
    def test_step_peak_independent_of_rows(self):
        # 10000 rows, the burgers preset's grid, go through in ROW_BLOCK
        # blocks: one step's traced peak stays at the jets of one block
        problem, params, pts = _burgers_rows(10_000)
        tracemalloc.start()
        try:
            residual_loss_and_grads(problem, params, pts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8e6

    def test_blocked_matches_one_shot_within_reordering_bound(self):
        # every row's residual, cotangents and layer inputs are the same bits
        # in one full-batch pass and in blocks, so the two results differ only
        # in the order of their sums over rows.  A sum of N terms, in any
        # order and with or without fused multiply-adds, lies within
        # gamma_N * sum |term| of the exact sum (Higham, Accuracy and
        # Stability of Numerical Algorithms, 2nd ed., sections 3.1 and 4.2),
        # so two orders lie within 2 gamma_N * sum |term| of each other
        m = 2 * ROW_BLOCK + 177
        problem, params, pts = _burgers_rows(m)
        loss, grads = residual_loss_and_grads(problem, params, pts)

        jets, tape = forward_jets_batch(params, pts, problem.derivs, need_tape=True)
        pieces = residual_pieces(problem, pts)
        r = residual_from_jets(problem, jets, pieces)
        dv, dslots = residual_jet_partials(problem, jets, pieces)
        rbar = 2.0 * r / m
        one_shot = backward(params, tape, rbar * dv, rbar * dslots).theta
        one_shot_loss = float(np.add.reduce(r * r) / m)

        # the loss: m nonnegative terms, then one division on each side
        assert abs(loss - one_shot_loss) <= 2 * _gamma(m + 1) * one_shot_loss
        # a weight entry sums a value term and up to S slot terms per row
        n_terms = m * (1 + len(problem.derivs))
        bound = 2 * _gamma(n_terms) * _gradient_terms_abs(problem, params, pts)
        assert np.all(np.abs(grads.theta - one_shot) <= bound)


class TestTrainDeterministic:
    def test_zero_epochs_returns_initialization(self):
        trained = train_deterministic("ode1.poly", TrainConfig(0, 0))
        init = init_network([1, 32, 32, 1], "tanh", seed=0)
        assert np.array_equal(trained.params.theta, init.theta)
        assert len(trained.loss_history) == 0

    def test_bit_identical_reruns(self):
        cfg = TrainConfig(50, 3)
        a = train_deterministic("ode1.cos", cfg)
        b = train_deterministic("ode1.cos", cfg)
        assert np.array_equal(a.params.theta, b.params.theta)
        assert np.array_equal(a.loss_history, b.loss_history)

    def test_underfit_worse_than_trained(self, models_10000, models_10):
        for pid in NONSINGULAR_FIRST_ORDER_IDS:
            lo, hi = models_10000[pid], models_10[pid]
            assert np.all(np.isfinite(hi.loss_history))
            assert hi.loss_history[-1] > lo.loss_history[-1]

    def test_loss_history_finite_and_complete(self, models_10000):
        for trained in models_10000.values():
            assert len(trained.loss_history) == trained.config.epochs
            assert np.all(np.isfinite(trained.loss_history))

    def test_first_order_training_mse_threshold(self, models_10000):
        # 10000-epoch runs reach mean squared residual < 1e-3 on the grid
        for pid, trained in models_10000.items():
            grid = training_grid(trained)
            assert mse_residual_loss(trained.problem, trained.params, grid) < 1e-3

    def test_solution_accuracy_on_training_domain(self, models_10000):
        for pid, trained in models_10000.items():
            xs = np.linspace(0, 2, 201)
            u = surrogate_values(trained.problem, trained.params, xs)
            err = np.max(np.abs(u - analytic_solution(pid, xs)))
            assert err < 5e-2

    def test_divergence_is_an_error_with_epoch(self, monkeypatch):
        # Adam steps scale with the learning rate, so an overflow-sized rate
        # drives the squared residual past float range within one update
        monkeypatch.setattr(ODEProblem, "learning_rate", 1e200)
        with np.errstate(all="ignore"), pytest.raises(TrainingDivergedError) as err:
            train_deterministic("ode1.exp", TrainConfig(200, 0))
        assert err.value.epoch is not None

    def test_non_finite_gradient_reports_epoch(self, monkeypatch):
        # a finite loss with a NaN gradient is caught by the one finite check
        # inside the Adam step, which training re-raises with the epoch
        import pinnbands.training as training_mod

        real = training_mod.residual_loss_and_grads
        calls = []

        def nan_at_third(problem, params, points, pieces=None):
            loss, grads = real(problem, params, points, pieces)
            calls.append(None)
            if len(calls) == 3:
                grads.theta[5] = np.nan
            return loss, grads

        monkeypatch.setattr(training_mod, "residual_loss_and_grads", nan_at_third)
        with pytest.raises(TrainingDivergedError) as err:
            train_deterministic("ode1.exp", TrainConfig(10, 0))
        assert err.value.epoch == 2


class TestCollocation:
    def test_equally_spaced_grid(self):
        pts = collocation_points(32, (0.0, 2.0))
        assert len(pts) == 32
        assert pts[0] == 0.0 and pts[-1] == 2.0
        assert np.allclose(np.diff(pts), 2.0 / 31)

    def test_space_time_grid(self):
        pts = collocation_points((3, 4), ((-1.0, 1.0), (0.0, 1.0)))
        assert pts.shape == (12, 2)
        assert pts[:, 0].min() == -1.0 and pts[:, 1].max() == 1.0

    @pytest.mark.parametrize("count", [5.9, 5.0, True, 0, (3, 2.5), (0, 4)])
    def test_non_integer_or_empty_count_rejected(self, count):
        domain = ((-1.0, 1.0), (0.0, 1.0)) if isinstance(count, tuple) else (0.0, 2.0)
        with pytest.raises(ConfigurationError, match="collocation count"):
            collocation_points(count, domain)

    def test_numpy_integer_count_accepted(self):
        assert np.array_equal(collocation_points(np.int64(5), (0.0, 2.0)),
                              collocation_points(5, (0.0, 2.0)))

    @pytest.mark.parametrize("epochs", [1.5, -1, "3"])
    def test_bad_epochs_rejected_before_training(self, epochs):
        with pytest.raises(ConfigurationError, match="epochs"):
            train_deterministic("ode1.exp", TrainConfig(epochs, 0))


class TestDerivedSetUp:
    @pytest.mark.parametrize("pid, sizes, activation", [
        ("ode1.exp", [1, 32, 32, 1], "tanh"),
        ("burgers", [2, 32, 32, 1], "sigmoid"),
    ])
    def test_network_follows_the_problem(self, pid, sizes, activation):
        trained = train_deterministic(pid, TrainConfig(1, 0, (4, 3)))
        assert trained.params.layer_sizes == sizes
        assert trained.params.activation == activation

    def test_ode_grid_is_fixed_points_on_the_training_domain(self):
        trained = train_deterministic("ode1.exp", TrainConfig(1, 0, (4, 3)))
        a, b = trained.problem.train_domain
        assert np.array_equal(training_grid(trained), np.linspace(a, b, 32))

    def test_burgers_grid_spans_the_training_window(self):
        trained = train_deterministic("burgers", TrainConfig(1, 0, (4, 3)))
        grid = training_grid(trained)
        assert grid.shape == (12, 2)
        assert np.array_equal(np.unique(grid[:, 0]), np.linspace(-1.0, 1.0, 4))
        assert np.array_equal(np.unique(grid[:, 1]), np.linspace(0.0, 1.0, 3))

    @pytest.mark.parametrize("grid", [(1, 3), (4, 2.5), (4,)])
    def test_bad_burgers_grid_rejected(self, grid):
        with pytest.raises(ConfigurationError, match="burgers_grid"):
            train_deterministic("burgers", TrainConfig(1, 0, grid))


def test_save_load_roundtrip(tmp_path):
    for pid, config in (("ode1.exp", TrainConfig(3, 2)), ("burgers", TrainConfig(3, 2, (4, 3)))):
        trained = train_deterministic(pid, config)
        prefix = str(tmp_path / pid)
        save_trained(trained, prefix)
        with open(f"{prefix}.meta.json") as fh:
            keys = sorted(json.load(fh))
        assert keys == ["collocation", "epochs", "final_loss", "problem_id", "seed"]
        back = load_trained(prefix)
        assert back.problem_id == pid
        assert np.array_equal(trained.params.theta, back.params.theta)
        assert back.params.activation == trained.params.activation
        assert back.config == config
        assert back.loss_history[-1] == trained.loss_history[-1]


# sidecars written by earlier versions carry batch_size, equally_spaced and
# the set-up the problem now states; loading ignores them
_OLD_META = {
    "ode1.exp": '{"activation": "tanh", "batch_size": 32, "collocation": {"count": 32, '
                '"domain": [0.0, 2.0], "equally_spaced": true, "jitter": 0.0}, "epochs": 50, '
                '"final_loss": 4.180962743752857, "hidden": [32, 32], "learning_rate": 0.01, '
                '"problem_id": "ode1.exp", "seed": 0}',
    "burgers": '{"activation": "sigmoid", "batch_size": 120, "collocation": {"count": [12, 10], '
               '"domain": [[-1.0, 1.0], [0.0, 1.0]], "equally_spaced": true, '
               '"jitter": 0.09090909090909091}, "epochs": 50, "final_loss": 0.5138509802974497, '
               '"hidden": [32, 32], "learning_rate": 0.001, "problem_id": "burgers", "seed": 0}',
}


@pytest.mark.parametrize("pid", sorted(_OLD_META))
def test_load_sidecar_with_removed_keys(tmp_path, pid):
    problem = get_problem(pid)
    prefix = str(tmp_path / "model")
    params = init_network([problem.input_dim, 32, 32, 1], problem.activation, seed=0)
    save_weights(params, f"{prefix}.weights")
    with open(f"{prefix}.meta.json", "w") as fh:
        fh.write(_OLD_META[pid])
    back = load_trained(prefix)
    assert back.problem_id == pid
    assert back.config.epochs == 50 and back.loss_history.shape == (1,)
    # an ODE sidecar's count is the fixed point count, so the grid stays at its default
    grid = (12, 10) if pid == "burgers" else TrainConfig(50).burgers_grid
    assert back.config == TrainConfig(50, 0, grid)


@pytest.mark.parametrize("sizes, activation", [
    ([2, 8, 1], "tanh"), ([2, 32, 32, 1], "tanh"), ([2, 8, 1], "sigmoid"),
])
def test_load_rejects_a_network_the_problem_does_not_train(tmp_path, sizes, activation):
    # burgers trains a [2, 32, 32, 1] sigmoid network and nothing else
    prefix = str(tmp_path / "model")
    save_weights(init_network(sizes, activation, seed=0), f"{prefix}.weights")
    with open(f"{prefix}.meta.json", "w") as fh:
        fh.write(_OLD_META["burgers"])
    with pytest.raises(ConfigurationError, match="model.weights: a .* network, but burgers"):
        load_trained(prefix)


@pytest.mark.parametrize("pid, key, value", [
    ("ode1.exp", "epochs", "ten"), ("ode1.exp", "epochs", 2.5), ("ode1.exp", "seed", -3),
    ("ode1.exp", "seed", True), ("burgers", "count", [1, 0]), ("burgers", "count", [12]),
], ids=["word-epochs", "float-epochs", "negative-seed", "bool-seed", "burgers-1x0", "burgers-one-count"])
def test_load_rejects_ill_typed_sidecar_counts(tmp_path, pid, key, value):
    problem = get_problem(pid)
    prefix = str(tmp_path / "model")
    save_weights(init_network([problem.input_dim, 32, 32, 1], problem.activation, seed=0),
                 f"{prefix}.weights")
    meta = json.loads(_OLD_META[pid])
    if key == "count":
        meta["collocation"]["count"] = value
    else:
        meta[key] = value
    with open(f"{prefix}.meta.json", "w") as fh:
        json.dump(meta, fh)
    with pytest.raises(ConfigurationError, match="model.meta.json: malformed metadata"):
        load_trained(prefix)


@pytest.mark.parametrize("entry", ["nan", "inf", "-inf"])
def test_load_rejects_non_finite_weight_entry(tmp_path, entry):
    trained = train_deterministic("ode1.exp", TrainConfig(1, 0))
    prefix = str(tmp_path / "model")
    save_trained(trained, prefix)
    with open(f"{prefix}.weights") as fh:
        lines = fh.read().splitlines()
    k = next(i for i, ln in enumerate(lines) if ln.startswith("bias 1 "))
    fields = lines[k].split()
    fields[3] = entry
    lines[k] = " ".join(fields)
    with open(f"{prefix}.weights", "w") as fh:
        fh.write("\n".join(lines) + "\n")
    with pytest.raises(ConfigurationError, match="model.weights: non-finite entry in .*'bias 1'"):
        load_trained(prefix)


def test_problem_object_rejected():
    # training takes a registry id, so the trained model can rebuild its problem
    with pytest.raises(ConfigurationError, match="unknown problem id"):
        train_deterministic(get_problem("ode1.exp"), TrainConfig(1, 0))
