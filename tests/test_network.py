"""Network engine: initialization, forward/jet evaluation, reverse mode."""

import numpy as np
import pytest
from scipy.special import expit

from pinnbands.errors import (
    ConfigurationError,
    ShapeError,
    TapeMismatchError,
    UnsupportedOrderError,
)
from pinnbands.network import (
    backward,
    forward,
    forward_jet,
    forward_jets_batch,
    forward_values,
    hidden_features,
    init_network,
)
from pinnbands.problems import REGISTRY


def naive_forward(params, x):
    """Independent straight-loop re-evaluation of the forward pass."""
    act = np.tanh if params.activation == "tanh" else expit
    values = list(np.atleast_1d(x))
    n_layers = len(params.weights)
    for l, (W, b) in enumerate(zip(params.weights, params.biases)):
        nxt = []
        for o in range(W.shape[0]):
            z = b[o]
            for i in range(W.shape[1]):
                z += W[o][i] * values[i]
            nxt.append(act(z) if l < n_layers - 1 else z)
        values = nxt
    return values[0]


class TestInit:
    def test_benchmark_shapes(self):
        p = init_network([1, 32, 32, 1], "tanh", seed=0)
        assert [w.shape for w in p.weights] == [(32, 1), (32, 32), (1, 32)]
        assert [b.shape for b in p.biases] == [(32,), (32,), (1,)]
        assert all(np.all(b == 0.0) for b in p.biases)

    def test_deterministic_for_seed(self):
        a = init_network([1, 32, 32, 1], "tanh", seed=0)
        b = init_network([1, 32, 32, 1], "tanh", seed=0)
        for wa, wb in zip(a.weights, b.weights):
            assert np.array_equal(wa, wb)
        c = init_network([1, 32, 32, 1], "tanh", seed=1)
        assert not np.array_equal(a.weights[0], c.weights[0])

    def test_fan_scaled_range(self):
        p = init_network([4, 16, 1], "sigmoid", seed=2)
        r0 = np.sqrt(6.0 / (4 + 16))
        assert np.max(np.abs(p.weights[0])) <= r0

    def test_degenerate_sizes_rejected(self):
        with pytest.raises(ConfigurationError):
            init_network([1], "tanh", seed=0)
        with pytest.raises(ConfigurationError):
            init_network([1, 0, 1], "tanh", seed=0)
        with pytest.raises(ConfigurationError):
            init_network([1, 4, 1], "relu", seed=0)


class TestForward:
    def test_zero_network_outputs_zero(self):
        p = init_network([1, 8, 1], "tanh", seed=0)
        for w in p.weights:
            w[:] = 0.0
        assert forward(p, [0.37]) == 0.0
        assert forward(p, [-2.0]) == 0.0

    def test_single_linear_layer_at_zero(self):
        p = init_network([1, 1], "tanh", seed=0)
        p.weights[0][:] = 1.0
        assert forward(p, [0.0]) == 0.0

    def test_matches_naive_loop_oracle(self):
        for act in ("tanh", "sigmoid"):
            p = init_network([1, 5, 4, 1], act, seed=0)
            assert forward(p, [0.5]) == pytest.approx(naive_forward(p, [0.5]), rel=1e-14)

    def test_dimension_mismatch(self):
        p = init_network([2, 4, 1], "tanh", seed=0)
        with pytest.raises(ShapeError):
            forward(p, [1.0])

    def test_batched_values_match_pointwise(self):
        p = init_network([1, 6, 1], "tanh", seed=4)
        xs = np.linspace(-1, 1, 9)
        batch = forward_values(p, xs[:, None])
        single = np.array([forward(p, [x]) for x in xs])
        assert np.allclose(batch, single, rtol=1e-14, atol=0)


class TestForwardJet:
    def test_zero_network_zero_jet(self):
        p = init_network([1, 8, 1], "tanh", seed=0)
        for w in p.weights:
            w[:] = 0.0
        j = forward_jet(p, [0.2], (0,))
        assert j.value == 0.0 and np.all(j.d1 == 0.0) and np.all(j.d2 == 0.0)

    def test_hand_derivative_tanh_2x(self):
        # network value tanh(2x): hidden weight 2, identity output layer
        p = init_network([1, 1, 1], "tanh", seed=0)
        p.weights[0][:] = 2.0
        p.weights[1][:] = 1.0
        j = forward_jet(p, [0.3], (0,))
        t = np.tanh(0.6)
        assert j.value == pytest.approx(t, abs=1e-15)
        assert j.d1[0] == pytest.approx(2.0 * (1.0 - t * t), abs=1e-14)
        assert j.d2[0, 0] == pytest.approx(-8.0 * t * (1.0 - t * t), abs=1e-13)

    def test_value_equals_forward_bitwise(self):
        p = init_network([2, 7, 5, 1], "sigmoid", seed=9)
        x = np.array([0.4, -0.3])
        v = forward(p, x)
        assert forward_jet(p, x, (0,)).value == v
        assert forward_jet(p, x, (1,)).value == v
        assert forward_jet(p, x, (0, 1)).value == v

    def test_jets_match_finite_differences(self):
        h = 1e-4
        for seed in range(3):
            p = init_network([1, 6, 5, 1], "tanh", seed=seed)
            x = 0.3 + 0.2 * seed
            j = forward_jet(p, [x], (0,))
            fp, f0, fm = (forward(p, [x + h]), forward(p, [x]), forward(p, [x - h]))
            fd1 = (fp - fm) / (2 * h)
            fd2 = (fp - 2 * f0 + fm) / h**2
            assert abs(j.d1[0] - fd1) / max(abs(fd1), 1e-12) < 1e-5
            assert abs(j.d2[0, 0] - fd2) / max(abs(fd2), 1e-12) < 1e-5

    def test_two_coordinate_jets_symmetric(self):
        p = init_network([2, 6, 1], "sigmoid", seed=3)
        j = forward_jet(p, [0.1, 0.9], (0, 1))
        assert j.d2.shape == (2, 2)
        assert j.d2[0, 1] == j.d2[1, 0]

    def test_too_many_tracked(self):
        p = init_network([3, 4, 1], "tanh", seed=0)
        with pytest.raises(UnsupportedOrderError):
            forward_jet(p, [0.0, 0.0, 0.0], (0, 1, 2))

    def test_tracked_out_of_range(self):
        p = init_network([1, 4, 1], "tanh", seed=0)
        with pytest.raises(ShapeError):
            forward_jet(p, [0.0], (1,))


class TestBackward:
    def test_zero_cotangent_zero_gradients(self):
        p = init_network([1, 5, 1], "tanh", seed=1)
        X = np.linspace(0, 1, 4)[:, None]
        _, tape = forward_jets_batch(p, X, ((0,),), need_tape=True)
        g = backward(p, tape, np.zeros(4))
        assert all(np.all(a == 0.0) for a in g.flat_arrays())

    def test_one_weight_hand_algebra(self):
        # linear net out = w*x + b, loss = out^2 at a single point
        p = init_network([1, 1], "tanh", seed=0)
        p.weights[0][0, 0] = 1.7
        p.biases[0][0] = 0.3
        x = 0.8
        out, tape = forward_jets_batch(p, np.array([[x]]), (), need_tape=True)
        g = backward(p, tape, 2.0 * out.value)
        assert g.weights[0][0, 0] == pytest.approx(2.0 * out.value[0] * x, rel=1e-14)
        assert g.biases[0][0] == pytest.approx(2.0 * out.value[0], rel=1e-14)

    def test_tape_params_mismatch(self):
        p = init_network([1, 5, 1], "tanh", seed=1)
        q = init_network([1, 6, 1], "tanh", seed=1)
        _, tape = forward_jets_batch(p, np.zeros((2, 1)), ((0,),), need_tape=True)
        with pytest.raises(TapeMismatchError):
            backward(q, tape, np.zeros(2))

    def test_jet_loss_gradient_matches_finite_differences(self):
        # loss uses value, first and second derivative entries together
        p = init_network([1, 5, 4, 1], "tanh", seed=7)
        X = np.linspace(0.1, 1.9, 6)[:, None]

        derivs = ((0,), (0, 0))

        def loss_of(params):
            out, _ = forward_jets_batch(params, X, derivs)
            r = out.slot((0, 0)) + 3.0 * out.slot((0,)) + 4.0 * out.value
            return float(np.mean(r * r))

        out, tape = forward_jets_batch(p, X, derivs, need_tape=True)
        r = out.slot((0, 0)) + 3.0 * out.slot((0,)) + 4.0 * out.value
        rbar = 2.0 * r / len(r)
        g = backward(p, tape, 4.0 * rbar, np.stack([3.0 * rbar, rbar]))

        h = 1e-4
        ad, fd = [], []
        for garr, arr in zip(g.flat_arrays(), p.flat_arrays()):
            it = np.nditer(arr, flags=["multi_index"])
            for _ in it:
                idx = it.multi_index
                old = arr[idx]
                arr[idx] = old + h
                lp = loss_of(p)
                arr[idx] = old - h
                lm = loss_of(p)
                arr[idx] = old
                ad.append(garr[idx])
                fd.append((lp - lm) / (2 * h))
        ad, fd = np.asarray(ad), np.asarray(fd)
        assert np.linalg.norm(ad - fd) / np.linalg.norm(fd) < 1e-5


def test_values_only_pass_equals_value_slot_bitwise():
    derivs_sets = {(e.problem.input_dim, e.problem.derivs) for e in REGISTRY.values()}
    rng = np.random.default_rng(4)
    for dim, derivs in sorted(derivs_sets):
        X = rng.uniform(-1.0, 1.0, size=(37, dim))
        for act in ("tanh", "sigmoid"):
            p = init_network([dim, 9, 7, 1], act, seed=5)
            values = forward_values(p, X)
            for need_tape in (False, True):
                out, _ = forward_jets_batch(p, X, derivs, need_tape=need_tape)
                assert out.slots.shape == (len(derivs), len(X))
                assert np.array_equal(out.value, values), (derivs, act, need_tape)


def test_hidden_features_last_layer():
    p = init_network([1, 5, 3, 1], "tanh", seed=2)
    feats = hidden_features(p, np.array([[0.4]]))
    assert feats.shape == (1, 3)
    # straight recomputation
    v = np.array([0.4])
    v = np.tanh(p.weights[0] @ v + p.biases[0])
    v = np.tanh(p.weights[1] @ v + p.biases[1])
    assert np.allclose(feats[0], v, rtol=1e-15)


def test_hidden_features_requires_hidden_layer():
    p = init_network([1, 1], "tanh", seed=0)
    with pytest.raises(ConfigurationError):
        hidden_features(p, np.zeros((1, 1)))


def test_evaluation_thread_safe_on_shared_params():
    # evaluation is pure; concurrent reads of shared parameters agree with
    # the serial result
    from concurrent.futures import ThreadPoolExecutor

    p = init_network([1, 16, 16, 1], "tanh", seed=6)
    xs = [np.linspace(-1 + 0.1 * k, 1 + 0.1 * k, 64)[:, None] for k in range(8)]
    serial = [forward_values(p, x) for x in xs]
    with ThreadPoolExecutor(max_workers=4) as pool:
        parallel = list(pool.map(lambda x: forward_values(p, x), xs))
    for a, b in zip(serial, parallel):
        assert np.array_equal(a, b)
