"""Weights file: versioned text format with a bit-exact round trip."""

import numpy as np
import pytest

from pinnbands.errors import ConfigurationError
from pinnbands.network import init_network
from pinnbands.weights_io import dumps_weights, load_weights, loads_weights, save_weights


def test_roundtrip_bit_exact(tmp_path):
    p = init_network([2, 32, 32, 1], "sigmoid", seed=42)
    # make entries non-trivial, including negative zero and tiny values
    p.biases[0][0] = -0.0
    p.weights[1][3, 4] = 1e-300
    path = tmp_path / "model.weights"
    save_weights(p, path)
    q = load_weights(path)
    assert q.layer_sizes == p.layer_sizes
    assert q.activation == p.activation
    # bit-exact: the same bytes, so -0.0 and subnormal-adjacent values survive
    assert q.theta.tobytes() == p.theta.tobytes()
    assert all(np.shares_memory(a, q.theta) for a in q.weights + q.biases)


def test_text_is_versioned_and_commentable():
    p = init_network([1, 3, 1], "tanh", seed=0)
    text = dumps_weights(p)
    assert text.startswith("pinnbands-weights 1\n")
    q = loads_weights("# a comment\n" + text)
    assert np.array_equal(q.weights[0], p.weights[0])


def test_rejects_foreign_and_broken_files():
    with pytest.raises(ConfigurationError):
        loads_weights("something-else 1\nlayers 1 1\n")
    with pytest.raises(ConfigurationError):
        loads_weights("pinnbands-weights 99\nlayers 1 1\n")
    with pytest.raises(ConfigurationError):
        loads_weights("pinnbands-weights 1\nlayers 1 2 1\nactivation tanh\nweight 0 0 0\n")
