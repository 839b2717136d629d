"""Network engine: initialization, forward/slot evaluation, reverse mode."""

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
    NetworkParameters,
    _act_third_deriv,
    _act_with_derivs,
    backward,
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


def value_at(params, x):
    """Network output at one input point, through the batched values pass."""
    return forward_values(params, np.atleast_1d(np.asarray(x, dtype=float))[None, :])[0]


def slots_at(params, x, derivs):
    """(value, {multi-index: derivative}) at one input point."""
    out, _ = forward_jets_batch(params, np.atleast_1d(np.asarray(x, dtype=float))[None, :], derivs)
    return out.value[0], {k: out.slot(k)[0] for k in out.derivs}


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
        with pytest.raises(ConfigurationError, match="layer size"):
            init_network([1, 32.5, 1], "tanh", seed=0)
        with pytest.raises(ConfigurationError):
            init_network([1, 4, 1], "relu", seed=0)


class TestForward:
    def test_zero_network_outputs_zero(self):
        p = init_network([1, 8, 1], "tanh", seed=0)
        for w in p.weights:
            w[:] = 0.0
        assert value_at(p, [0.37]) == 0.0
        assert value_at(p, [-2.0]) == 0.0

    def test_single_linear_layer_at_zero(self):
        p = init_network([1, 1], "tanh", seed=0)
        p.weights[0][:] = 1.0
        assert value_at(p, [0.0]) == 0.0

    def test_matches_naive_loop_oracle(self):
        for act in ("tanh", "sigmoid"):
            p = init_network([1, 5, 4, 1], act, seed=0)
            assert value_at(p, [0.5]) == pytest.approx(naive_forward(p, [0.5]), rel=1e-14)

    def test_dimension_mismatch(self):
        p = init_network([2, 4, 1], "tanh", seed=0)
        with pytest.raises(ShapeError):
            value_at(p, [1.0])

    def test_batched_values_match_pointwise(self):
        p = init_network([1, 6, 1], "tanh", seed=4)
        xs = np.linspace(-1, 1, 9)
        batch = forward_values(p, xs[:, None])
        single = np.array([value_at(p, [x]) for x in xs])
        assert np.allclose(batch, single, rtol=1e-14, atol=0)

    def test_one_dimensional_grid_matches_column_bitwise(self):
        p = init_network([1, 6, 5, 1], "sigmoid", seed=2)
        xs = np.linspace(-1, 1, 9)
        flat, _ = forward_jets_batch(p, xs, ((0,), (0, 0)))
        column, _ = forward_jets_batch(p, xs[:, None], ((0,), (0, 0)))
        assert np.array_equal(flat.value, column.value)
        assert np.array_equal(flat.slots, column.slots)
        assert np.array_equal(forward_values(p, xs), forward_values(p, xs[:, None]))
        assert np.array_equal(hidden_features(p, xs), hidden_features(p, xs[:, None]))

    def test_one_dimensional_grid_rejected_for_two_inputs(self):
        p = init_network([2, 4, 1], "tanh", seed=0)
        with pytest.raises(ShapeError):
            forward_values(p, np.linspace(0, 1, 6))
        with pytest.raises(ShapeError):
            hidden_features(p, np.linspace(0, 1, 6))


class TestForwardJet:
    """Derivative slots of forward_jets_batch at single points."""

    def test_zero_network_zero_jet(self):
        p = init_network([1, 8, 1], "tanh", seed=0)
        for w in p.weights:
            w[:] = 0.0
        v, d = slots_at(p, [0.2], ((0,), (0, 0)))
        assert v == 0.0 and d[(0,)] == 0.0 and d[(0, 0)] == 0.0

    def test_hand_derivative_tanh_2x(self):
        # network value tanh(2x): hidden weight 2, identity output layer
        p = init_network([1, 1, 1], "tanh", seed=0)
        p.weights[0][:] = 2.0
        p.weights[1][:] = 1.0
        v, d = slots_at(p, [0.3], ((0,), (0, 0)))
        t = np.tanh(0.6)
        assert v == pytest.approx(t, abs=1e-15)
        assert d[(0,)] == pytest.approx(2.0 * (1.0 - t * t), abs=1e-14)
        assert d[(0, 0)] == pytest.approx(-8.0 * t * (1.0 - t * t), abs=1e-13)

    def test_value_equals_forward_bitwise(self):
        p = init_network([2, 7, 5, 1], "sigmoid", seed=9)
        x = np.array([0.4, -0.3])
        v = value_at(p, x)
        assert slots_at(p, x, ((0,),))[0] == v
        assert slots_at(p, x, ((1,),))[0] == v
        assert slots_at(p, x, ((0,), (1,), (0, 1)))[0] == v

    def test_jets_match_finite_differences(self):
        h = 1e-4
        for seed in range(3):
            p = init_network([1, 6, 5, 1], "tanh", seed=seed)
            x = 0.3 + 0.2 * seed
            _, d = slots_at(p, [x], ((0,), (0, 0)))
            fp, f0, fm = (value_at(p, [x + h]), value_at(p, [x]), value_at(p, [x - h]))
            fd1 = (fp - fm) / (2 * h)
            fd2 = (fp - 2 * f0 + fm) / h**2
            assert abs(d[(0,)] - fd1) / max(abs(fd1), 1e-12) < 1e-5
            assert abs(d[(0, 0)] - fd2) / max(abs(fd2), 1e-12) < 1e-5

    def test_two_coordinate_jets_symmetric(self):
        p = init_network([2, 6, 1], "sigmoid", seed=3)
        _, d = slots_at(p, [0.1, 0.9], ((0,), (1,), (0, 1), (1, 0)))
        assert d[(0, 1)] == d[(1, 0)]

    def test_too_many_tracked(self):
        # a slot tracking three coordinates is a third derivative
        p = init_network([3, 4, 1], "tanh", seed=0)
        with pytest.raises(UnsupportedOrderError):
            slots_at(p, [0.0, 0.0, 0.0], ((0,), (1,), (2,), (0, 1, 2)))

    def test_tracked_out_of_range(self):
        p = init_network([1, 4, 1], "tanh", seed=0)
        with pytest.raises(ShapeError):
            slots_at(p, [0.0], ((1,),))


class TestBackward:
    def test_zero_cotangent_zero_gradients(self):
        p = init_network([1, 5, 1], "tanh", seed=1)
        X = np.linspace(0, 1, 4)[:, None]
        _, tape = forward_jets_batch(p, X, ((0,),), need_tape=True)
        g = backward(p, tape, np.zeros(4))
        assert np.all(g.theta == 0.0)

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
        for garr, arr in zip(g.weights + g.biases, p.weights + p.biases):
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


def matmul_reference(params, X, derivs, value_bar, slots_bar):
    """Forward pass, slots and reverse pass with every product a matmul.

    Layer 0 runs as ``X @ W.T`` and its slots as the one-hot input slots
    ``@ W.T``, and the reverse pass forms the output layer's cotangents by
    matmul, sums the first-slot terms with ``sum`` and the cross terms in a
    zero array over all slots; the other operations follow the engine's
    order, so the results must agree with it bit for bit.  Returns the
    value, the slots and the flat gradient.
    """
    first = {k[0]: s for s, k in enumerate(derivs) if len(k) == 1}
    firsts = [(s, k[0]) for s, k in enumerate(derivs) if len(k) == 1]
    seconds = [(s, first[k[0]], first[k[1]]) for s, k in enumerate(derivs) if len(k) == 2]
    S, (M, n0) = len(derivs), X.shape
    G = np.zeros((S, M, n0))
    for s, i in firsts:
        G[s, :, i] = 1.0
    v, layers, n_layers = X, [], len(params.weights)
    for l, (W, b) in enumerate(zip(params.weights, params.biases)):
        a_in = (v, G)
        v = v @ W.T + b
        z_G = (G.reshape(S * M, -1) @ W.T).reshape(S, M, -1)
        G, act = z_G, None
        if l < n_layers - 1:
            act = _act_with_derivs(params.activation, v.copy(), 2)
            a, f1, f2 = act
            G = np.empty_like(z_G)
            for s, _ in firsts:
                G[s] = f1 * z_G[s]
            for s, p, q in seconds:
                G[s] = f1 * z_G[s] + z_G[p] * z_G[q] * f2
            v = a
        layers.append((a_in, z_G, act))

    vb, Gb = value_bar.reshape(M, 1), slots_bar.reshape(S, M, 1)
    grads = NetworkParameters(list(params.layer_sizes), np.empty_like(params.theta), "tanh")
    for l in range(n_layers - 1, -1, -1):
        (a_v, a_G), z_G, act = layers[l]
        W = params.weights[l]
        zvb, zGb = vb, Gb
        if act is not None:
            a, f1, f2 = act
            zvb = vb * f1 + f2 * sum(Gb[s] * z_G[s] for s, _ in firsts)
            zGb = f1 * Gb
            f3 = _act_third_deriv(params.activation, a, f1)
            cross = np.zeros_like(z_G)
            for s, p, q in seconds:
                zvb = zvb + Gb[s] * (f3 * (z_G[p] * z_G[q]) + f2 * z_G[s])
                cross[p] += Gb[s] * z_G[q]
                cross[q] += Gb[s] * z_G[p]
            zGb = zGb + f2 * cross
        gw = zvb.T @ a_v
        for s in range(S):
            gw += zGb[s].T @ a_G[s]
        grads.weights[l][...] = gw
        grads.biases[l][...] = np.sum(zvb, axis=0)
        vb = zvb @ W
        Gb = (zGb.reshape(S * M, -1) @ W).reshape(S, M, -1)
    return v[:, 0], G[:, :, 0], grads.theta


@pytest.mark.parametrize("dim, derivs", [(1, ((0,), (0, 0))), (2, ((0,), (1,), (0, 0)))])
@pytest.mark.parametrize("act", ["tanh", "sigmoid"])
@pytest.mark.parametrize("need_tape", [False, True])
def test_layer0_shortcuts_match_matmul_reference_bitwise(dim, derivs, act, need_tape):
    rng = np.random.default_rng(9)
    X = rng.uniform(-1.0, 1.0, size=(37, dim))
    p = init_network([dim, 32, 32, 1], act, seed=4)
    p.biases[0][:] = rng.normal(size=32)
    value_bar = rng.normal(size=len(X))
    slots_bar = rng.normal(size=(len(derivs), len(X)))
    value, slots, grad = matmul_reference(p, X, derivs, value_bar, slots_bar)

    out, tape = forward_jets_batch(p, X, derivs, need_tape=need_tape)
    assert np.array_equal(out.value, value)
    assert np.array_equal(out.slots, slots)
    assert np.array_equal(forward_values(p, X), value)
    if need_tape:
        assert np.array_equal(backward(p, tape, value_bar, slots_bar).theta, grad)


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("act", ["tanh", "sigmoid"])
def test_hidden_features_feed_the_output_layer_bitwise(dim, act):
    X = np.random.default_rng(2).uniform(-1.0, 1.0, size=(41, dim))
    p = init_network([dim, 32, 32, 1], act, seed=7)
    head = hidden_features(p, X) @ p.weights[-1].T + p.biases[-1]
    assert np.array_equal(forward_values(p, X), head[:, 0])


class TestInPlaceActivations:
    Z = np.linspace(-40.0, 40.0, 80001)

    def test_sigmoid_matches_expit_formulas(self):
        s_ref = expit(self.Z)
        f1_ref = s_ref * (1.0 - s_ref)
        f2_ref = f1_ref * (1.0 - 2.0 * s_ref)
        f3_ref = f1_ref * ((1.0 - 2.0 * s_ref) ** 2 - 2.0 * f1_ref)
        s, f1, f2 = _act_with_derivs("sigmoid", self.Z.copy(), 2)
        f3 = _act_third_deriv("sigmoid", s, f1)
        # 0.5 tanh(z/2) + 0.5 and expit round differently: allow two ulps of 1
        tol = 2.0 * np.finfo(float).eps
        for got, ref in ((s, s_ref), (f1, f1_ref), (f2, f2_ref), (f3, f3_ref)):
            assert np.max(np.abs(got - ref)) <= tol

    def test_tanh_matches_out_of_place_formulas_bitwise(self):
        a_ref = np.tanh(self.Z)
        f1_ref = 1.0 - a_ref * a_ref
        z = self.Z.copy()
        a, f1, f2 = _act_with_derivs("tanh", z, 2)
        assert a is z
        assert np.array_equal(a, a_ref)
        assert np.array_equal(f1, f1_ref)
        assert np.array_equal(f2, -2.0 * a_ref * f1_ref)

    @pytest.mark.parametrize("act", ["tanh", "sigmoid"])
    def test_inputs_and_parameters_untouched(self, act):
        rng = np.random.default_rng(8)
        X = rng.uniform(-1.0, 1.0, size=(23, 2))
        p = init_network([2, 6, 5, 1], act, seed=3)
        p.biases[0][:] = 0.3
        X0, theta0 = X.copy(), p.theta.copy()
        forward_values(p, X)
        hidden_features(p, X)
        for need_tape in (False, True):
            forward_jets_batch(p, X, ((0,), (1,), (0, 0)), need_tape=need_tape)
            forward_jets_batch(p, X, (), need_tape=need_tape)
        forward_values(init_network([2, 1], act, seed=3), X)
        assert np.array_equal(X, X0)
        assert np.array_equal(p.theta, theta0)


class TestFlatLayout:
    def test_weights_and_biases_alias_theta(self):
        p = init_network([2, 3, 4, 1], "tanh", seed=0)
        # weights-then-biases order: W0 (3,2) at 0, W1 (4,3) at 6, W2 (1,4) at 18,
        # b0 (3,) at 22, b1 (4,) at 25, b2 (1,) at 29
        assert p.theta.shape == (30,)
        p.weights[1][3, 2] = 7.5
        assert p.theta[6 + 3 * 3 + 2] == 7.5
        p.theta[25] = -2.0
        assert p.biases[1][0] == -2.0
        parts = p.weights + p.biases
        assert all(np.shares_memory(a, p.theta) for a in parts)
        assert np.array_equal(np.concatenate([a.ravel() for a in parts]), p.theta)

    def test_backward_writes_views_of_one_gradient(self):
        p = init_network([1, 5, 3, 1], "sigmoid", seed=2)
        X = np.linspace(0.0, 1.0, 7)[:, None]
        _, tape = forward_jets_batch(p, X, ((0,), (0, 0)), need_tape=True)
        g = backward(p, tape, np.ones(7), np.ones((2, 7)))
        assert isinstance(g, NetworkParameters)
        assert (g.layer_sizes, g.activation) == (p.layer_sizes, p.activation)
        assert g.theta.shape == p.theta.shape
        parts = g.weights + g.biases
        assert all(np.shares_memory(a, g.theta) for a in parts)
        assert np.array_equal(np.concatenate([a.ravel() for a in parts]), g.theta)

    def test_wrong_vector_length_rejected(self):
        with pytest.raises(ShapeError):
            NetworkParameters([1, 2, 1], np.zeros(6), "tanh")
        with pytest.raises(ShapeError):
            NetworkParameters([1, 2, 1], np.zeros(8), "tanh")
        with pytest.raises(ConfigurationError):
            NetworkParameters.zeros([1, 0, 1], "tanh")

    def test_float_size_rejected_after_equal_integer_size(self):
        # the layout cache must not let 32.0 reuse the checked entry of 32
        assert NetworkParameters([1, 32, 1], np.zeros(97), "tanh").layer_sizes == [1, 32, 1]
        with pytest.raises(ConfigurationError):
            NetworkParameters([1, 32.0, 1], np.zeros(97), "tanh")
        with pytest.raises(ConfigurationError):
            NetworkParameters.zeros([1, 32.0, 1], "tanh")
