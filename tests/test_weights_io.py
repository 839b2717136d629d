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
    good = "pinnbands-weights 1\nlayers 1 2 1\nactivation tanh\n"
    for text in (
        "pinnbands-weights x\nlayers 1 1\n",  # version token
        good + "weight 0 0\nbias 0 0 0\nweight 1 0 0\nbias 1 0\n",  # truncated row
        "pinnbands-weights 1\nlayers\n",  # lone record name
        good + "weight 0 0 abc\nbias 0 0 0\nweight 1 0 0\nbias 1 0\n",  # non-numeric float
    ):
        with pytest.raises(ConfigurationError):
            loads_weights(text)


@pytest.mark.parametrize(
    "record, name",
    [
        pytest.param("weight 5 0 0", "weight 5", id="weight-of-no-layer"),
        pytest.param("bias -1 0", "bias -1", id="bias-of-negative-layer"),
        pytest.param("weight 0 9 9", "weight 0", id="repeated-weight"),
        pytest.param("bias 1 9", "bias 1", id="repeated-bias"),
        pytest.param("activation sigmoid", "activation", id="repeated-activation"),
        pytest.param("layers 1 2 1", "layers", id="repeated-layers"),
    ],
)
def test_rejects_records_the_header_does_not_describe(record, name):
    text = dumps_weights(init_network([1, 2, 1], "tanh", seed=0)) + record + "\n"
    with pytest.raises(ConfigurationError, match=f"'{name}'"):
        loads_weights(text)
