"""Small fully connected network engine with exact derivative propagation.

The forward pass carries, next to every activation value, a stack of
derivative *slots*: the input derivatives an operator actually reads, each
named by a multi-index over the input coordinates.  ``(i,)`` is du/dx_i and
``(i, j)`` is d2u/dx_i dx_j.  A problem declares its set as ``derivs``:
``((0,),)`` for u', ``((0,), (0, 0))`` for u' and u'', and
``((0,), (1,), (0, 0))`` for Burgers' u_x, u_t and u_xx.  The slots live in
one ``(S, M, n)`` array, so each layer maps all of them with one matmul, and
only the Taylor coefficients the operator uses are propagated (Taylor-mode
differentiation cut down to the requested slots).  Through an activation f
with pre-activation z and pre-activation slots g_i, h_ij:

    first slot  (i,):    f'(z) g_i
    second slot (i, j):  f''(z) g_i g_j + f'(z) h_ij

The backward pass differentiates any scalar function of the output value and
slots with respect to all weights and biases, along the reverse of the same
rules.  Activation derivatives are computed only to the order a pass needs.
Everything is plain numpy in double precision; there is no graph framework
underneath.

Layer convention: ``layer_sizes = [d_in, h_1, ..., h_k, d_out]``; hidden
layers apply the configured activation, the output layer is linear.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np
from scipy.special import expit

from .errors import (
    ConfigurationError,
    ShapeError,
    TapeMismatchError,
    UnsupportedOrderError,
)
from .jets import Jet2

ACTIVATIONS = ("tanh", "sigmoid")


def _act_with_derivs(name, z, order):
    """Activation value and its first ``order`` (0, 1 or 2) derivatives at ``z``."""
    if name == "tanh":
        a = np.tanh(z)
        if order == 0:
            return (a,)
        f1 = 1.0 - a * a
        return (a, f1) if order == 1 else (a, f1, -2.0 * a * f1)
    if name == "sigmoid":
        s = expit(z)
        if order == 0:
            return (s,)
        f1 = s * (1.0 - s)
        return (s, f1) if order == 1 else (s, f1, f1 * (1.0 - 2.0 * s))
    raise ConfigurationError(f"unknown activation {name!r}")


def _act_third_deriv(name, a, f1):
    """Third derivative, recovered from the stored value and first derivative."""
    if name == "tanh":
        return f1 * (6.0 * a * a - 2.0)
    one_minus_2s = 1.0 - 2.0 * a
    return f1 * (one_minus_2s * one_minus_2s - 2.0 * f1)


@functools.lru_cache(maxsize=None)
def _layout(layer_sizes):
    """``(start, stop, shape)`` of every weight matrix, then every bias, in theta."""
    if len(layer_sizes) < 2 or any(s < 1 for s in layer_sizes):
        raise ConfigurationError(f"invalid layer sizes {list(layer_sizes)}")
    shapes = [(o, i) for i, o in zip(layer_sizes[:-1], layer_sizes[1:])]
    shapes += [(o,) for o in layer_sizes[1:]]
    out, start = [], 0
    for shape in shapes:
        stop = start + int(np.prod(shape))
        out.append((start, stop, shape))
        start = stop
    return tuple(out)


def _layer_views(layer_sizes, theta):
    """Per-layer weight and bias views of a flat vector laid out by ``_layout``."""
    layout = _layout(tuple(layer_sizes))
    if theta.shape != (layout[-1][1],):
        raise ShapeError(
            f"flat parameter vector of shape {theta.shape} does not fit layer sizes "
            f"{list(layer_sizes)} ({layout[-1][1]} entries)"
        )
    views = [theta[a:b].reshape(shape) for a, b, shape in layout]
    n = len(layer_sizes) - 1
    return views[:n], views[n:]


@dataclass
class NetworkParameters:
    """Weights and biases of a fully connected network in one flat vector.

    ``theta`` holds every weight matrix (row-major), then every bias vector.
    ``weights[l]``, shape ``(layer_sizes[l+1], layer_sizes[l])``, and
    ``biases[l]``, shape ``(layer_sizes[l+1],)``, are views of it: writing to
    a view writes ``theta``.
    """

    layer_sizes: list
    theta: np.ndarray
    activation: str = "tanh"
    weights: list = field(init=False, repr=False)
    biases: list = field(init=False, repr=False)

    def __post_init__(self):
        self.weights, self.biases = _layer_views(self.layer_sizes, self.theta)

    @classmethod
    def zeros(cls, layer_sizes, activation="tanh") -> "NetworkParameters":
        """All-zero parameters for ``layer_sizes``."""
        sizes = [int(s) for s in layer_sizes]
        return cls(sizes, np.zeros(_layout(tuple(sizes))[-1][1]), activation)

    def validate(self):
        if self.activation not in ACTIVATIONS:
            raise ConfigurationError(f"unknown activation {self.activation!r}")
        if not np.all(np.isfinite(self.theta)):
            raise ShapeError("non-finite parameter entries")
        return self

    @property
    def input_dim(self) -> int:
        return int(self.layer_sizes[0])

    @property
    def output_dim(self) -> int:
        return int(self.layer_sizes[-1])

    def n_params(self) -> int:
        return int(self.theta.size)

    def copy(self) -> "NetworkParameters":
        return NetworkParameters(list(self.layer_sizes), self.theta.copy(), self.activation)


@dataclass
class Gradients:
    """Parameter gradients in the layout of NetworkParameters: a flat
    ``theta`` with per-layer ``weights`` and ``biases`` views."""

    layer_sizes: list
    theta: np.ndarray
    weights: list = field(init=False, repr=False)
    biases: list = field(init=False, repr=False)

    def __post_init__(self):
        self.weights, self.biases = _layer_views(self.layer_sizes, self.theta)


def init_network(layer_sizes, activation="tanh", seed=0) -> NetworkParameters:
    """Deterministic Glorot-uniform initialization with zero biases.

    Weights for a layer with ``fan_in`` inputs and ``fan_out`` outputs are
    drawn from U(-r, r) with r = sqrt(6 / (fan_in + fan_out)).
    """
    params = NetworkParameters.zeros(layer_sizes, activation).validate()
    rng = np.random.default_rng(seed)
    for W in params.weights:
        fan_out, fan_in = W.shape
        r = np.sqrt(6.0 / (fan_in + fan_out))
        W[...] = rng.uniform(-r, r, size=W.shape)
    return params


@dataclass
class JetBatch:
    """Output of one forward pass over M points.

    ``value`` has shape (M,).  ``slots`` has shape (S, M): row k holds the
    input derivative named by the multi-index ``derivs[k]``.  ``slots`` is
    None when no derivative was requested.
    """

    value: np.ndarray
    derivs: tuple = ()
    slots: np.ndarray = None

    def slot(self, index) -> np.ndarray:
        """The derivative named by the multi-index ``index``, shape (M,)."""
        index = tuple(index)
        if index not in self.derivs:
            raise ShapeError(f"derivative {index} was not propagated (have {self.derivs})")
        return self.slots[self.derivs.index(index)]


@dataclass
class Tape:
    """Record of one forward pass, consumed by :func:`backward`.

    Each layer entry holds the layer's input value and slots, the
    pre-activation slots, and the activation value with the derivatives the
    pass computed (None for the linear output layer).
    """

    layer_sizes: tuple
    activation: str
    derivs: tuple
    n_points: int
    layers: list = field(default_factory=list)


def _check_input(params, X):
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != params.input_dim:
        raise ShapeError(
            f"input shape {X.shape} does not match network input dim {params.input_dim}"
        )
    if params.output_dim != 1:
        raise ShapeError("scalar evaluation requires an output layer of width 1")
    return X


def _slot_plan(derivs, input_dim):
    """Check a ``derivs`` tuple; return it with the first slots as
    ``(slot, coordinate)`` pairs and the second slots as ``(slot, p, q)``,
    where p and q are the slots of the two first derivatives it is built on."""
    try:
        return _cached_slot_plan(tuple(derivs), int(input_dim))
    except TypeError:
        raise ConfigurationError(
            f"derivs must be a tuple of multi-indices such as ((0,), (0, 0)), got {derivs!r}"
        ) from None


@functools.lru_cache(maxsize=None)
def _cached_slot_plan(derivs, input_dim):
    derivs = tuple(tuple(int(i) for i in k) for k in derivs)
    if len(set(derivs)) != len(derivs):
        raise ConfigurationError(f"repeated derivative slot in {derivs}")
    for k in derivs:
        if len(k) not in (1, 2):
            raise UnsupportedOrderError(f"derivative slots have order 1 or 2, got {k}")
        if any(i < 0 or i >= input_dim for i in k):
            raise ShapeError(f"derivative slot {k} outside input dim {input_dim}")
    first = {k[0]: s for s, k in enumerate(derivs) if len(k) == 1}
    firsts = tuple((s, k[0]) for s, k in enumerate(derivs) if len(k) == 1)
    seconds = []
    for s, k in enumerate(derivs):
        if len(k) == 2:
            if k[0] not in first or k[1] not in first:
                raise ConfigurationError(f"second slot {k} needs first slots {sorted(set(k))}")
            seconds.append((s, first[k[0]], first[k[1]]))
    return derivs, firsts, tuple(seconds)


def _activate_slots(act, G, firsts, seconds, out):
    """Slots after the activation: f1 g_i and f2 g_i g_j + f1 h_ij.

    ``out`` may be ``G`` itself: second slots are written before the first
    slots they read are overwritten.
    """
    f1 = act[1]
    for s, p, q in seconds:
        t = G[p] * G[q]
        t *= act[2]
        np.multiply(f1, G[s], out=out[s])
        out[s] += t
    for s, _ in firsts:
        np.multiply(f1, G[s], out=out[s])
    return out


def forward_jets_batch(params, X, derivs=(), need_tape=False):
    """Propagate values and the derivative slots ``derivs`` through the net.

    Returns ``(JetBatch, Tape-or-None)``.  The value is computed by the same
    sequence of operations whatever slots are requested, so values agree
    bitwise across requests.  Activation derivatives are computed only as far
    as the slots and the tape need them.
    """
    X = _check_input(params, X)
    derivs, firsts, seconds = _slot_plan(derivs, params.input_dim)
    S = len(derivs)
    # f'' feeds the second slots, and the reverse pass of the first slots
    if seconds or (need_tape and firsts):
        order = 2
    else:
        order = 1 if firsts or need_tape else 0

    M, n0 = X.shape
    v = X
    G = None
    if S:
        G = np.zeros((S, M, n0))
        for s, i in firsts:
            G[s, :, i] = 1.0

    tape = None
    if need_tape:
        tape = Tape(tuple(params.layer_sizes), params.activation, derivs, M)

    n_layers = len(params.weights)
    for l, (W, b) in enumerate(zip(params.weights, params.biases)):
        if need_tape:
            a_in = (v, G)
        n_out = W.shape[0]
        v = v @ W.T + b
        if S:
            G = (G.reshape(S * M, -1) @ W.T).reshape(S, M, n_out)
        z_G = G
        act = None
        if l < n_layers - 1:
            act = _act_with_derivs(params.activation, v, order)
            if S:
                # the tape keeps the pre-activation slots; otherwise overwrite
                G = _activate_slots(
                    act, z_G, firsts, seconds, np.empty_like(G) if need_tape else G
                )
            v = act[0]
        if need_tape:
            tape.layers.append((a_in, z_G, act))
        del act  # frees f', f'' before the next layer's matmul on tapeless passes

    out = JetBatch(v[:, 0], derivs, G[:, :, 0] if S else None)
    return out, tape


def backward(params, tape, value_bar, slots_bar=None) -> Gradients:
    """Gradient of a scalar loss w.r.t. all weights and biases.

    ``value_bar`` (M,) and ``slots_bar`` (S, M) are the cotangents of the
    loss with respect to the output value and slots of the forward pass that
    recorded ``tape``.  Derivative paths through the slots are included,
    which is what lets residual losses (built from u, u', u'') train the
    network.
    """
    if not isinstance(tape, Tape):
        raise TapeMismatchError("backward needs a Tape from forward_jets_batch")
    if tape.layer_sizes != tuple(params.layer_sizes) or tape.activation != params.activation:
        raise TapeMismatchError("tape was recorded with different network parameters")

    _, firsts, seconds = _slot_plan(tape.derivs, tape.layer_sizes[0])
    S = len(tape.derivs)
    M = tape.n_points
    vb = np.asarray(value_bar, dtype=float).reshape(M, 1)
    Gb = None
    if S:
        Gb = (
            np.zeros((S, M, 1))
            if slots_bar is None
            else np.asarray(slots_bar, dtype=float).reshape(S, M, 1)
        )
    elif slots_bar is not None:
        raise TapeMismatchError("slot cotangents given but the tape has no slots")

    n_layers = len(params.weights)
    if len(tape.layers) != n_layers:
        raise TapeMismatchError("tape depth does not match parameter count")

    grads = Gradients(list(params.layer_sizes), np.empty_like(params.theta))

    for l in range(n_layers - 1, -1, -1):
        (a_v, a_G), z_G, act = tape.layers[l]
        W = params.weights[l]

        if act is None:
            zvb, zGb = vb, Gb
        else:
            # reverse through the activation: outputs were
            #   a = f(z), first slots f1 g_i, second slots f2 g_i g_j + f1 h_ij
            a, f1 = act[0], act[1]
            zvb = vb * f1
            zGb = None
            if S:
                f2 = act[2]
                zvb = zvb + f2 * sum(Gb[s] * z_G[s] for s, _ in firsts)
                zGb = f1 * Gb
                if seconds:
                    f3 = _act_third_deriv(params.activation, a, f1)
                    cross = np.zeros_like(z_G)
                    for s, p, q in seconds:
                        hb = Gb[s]
                        zvb = zvb + hb * (f3 * (z_G[p] * z_G[q]) + f2 * z_G[s])
                        cross[p] += hb * z_G[q]
                        cross[q] += hb * z_G[p]
                    zGb += f2 * cross

        gw = np.matmul(zvb.T, a_v, out=grads.weights[l])
        for s in range(S):
            gw += zGb[s].T @ a_G[s]
        np.sum(zvb, axis=0, out=grads.biases[l])

        if l > 0:
            vb = zvb @ W
            if S:
                Gb = (zGb.reshape(S * M, -1) @ W).reshape(S, M, W.shape[1])

    return grads


def forward_values(params, X) -> np.ndarray:
    """Batched scalar outputs, no derivative tracking."""
    out, _ = forward_jets_batch(params, X)
    return out.value


def forward(params, x) -> float:
    """Scalar network output at a single input point."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    return float(forward_values(params, x[None, :])[0])


def forward_jet(params, x, tracked=(0,)) -> Jet2:
    """Network output with exact first/second derivatives w.r.t. ``tracked``.

    Every first and second slot of the tracked coordinates is propagated,
    mixed ones included, and assembled into a full ``Jet2``.  The value entry
    is computed by the same operations as :func:`forward`.
    """
    tracked = tuple(int(i) for i in tracked)
    n = len(tracked)
    if n not in (1, 2):
        raise UnsupportedOrderError(f"forward_jet tracks 1 or 2 coordinates, got {n}")
    pairs = [(a, b) for a in range(n) for b in range(a, n)]
    derivs = tuple((i,) for i in tracked) + tuple((tracked[a], tracked[b]) for a, b in pairs)
    x = np.atleast_1d(np.asarray(x, dtype=float))
    out, _ = forward_jets_batch(params, x[None, :], derivs)
    d1 = out.slots[:n, 0]
    d2 = np.empty((n, n))
    for s, (a, b) in enumerate(pairs, start=n):
        d2[a, b] = d2[b, a] = out.slots[s, 0]
    return Jet2(out.value[0], d1, d2)


def hidden_features(params, X) -> np.ndarray:
    """Post-activation values of the last hidden layer, shape (M, width).

    This is the learned feature basis a Bayesian linear head regresses on.
    """
    X = _check_input(params, X)
    if len(params.weights) < 2:
        raise ConfigurationError("network has no hidden layer to extract features from")
    v = X
    for W, b in zip(params.weights[:-1], params.biases[:-1]):
        v = _act_with_derivs(params.activation, v @ W.T + b, 0)[0]
    return v
