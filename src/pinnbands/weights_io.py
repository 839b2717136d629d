"""Textual weights file: versioned, flat, bit-exact round trip.

Format (one item per line, '#' comments allowed):

    pinnbands-weights 1
    layers 1 32 32 1
    activation tanh
    weight 0 <row-major floats...>
    bias 0 <floats...>
    ...

Floats are written with 17 significant digits, which reproduces IEEE-754
doubles exactly on read.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigurationError
from .network import NetworkParameters

FORMAT_NAME = "pinnbands-weights"
FORMAT_VERSION = 1


def _fmt(values) -> str:
    return " ".join(f"{v:.17g}" for v in np.asarray(values, dtype=float).ravel())


def dumps_weights(params: NetworkParameters) -> str:
    params.validate()
    lines = [
        f"{FORMAT_NAME} {FORMAT_VERSION}",
        "layers " + " ".join(str(int(s)) for s in params.layer_sizes),
        f"activation {params.activation}",
    ]
    for l, (w, b) in enumerate(zip(params.weights, params.biases)):
        lines.append(f"weight {l} {_fmt(w)}")
        lines.append(f"bias {l} {_fmt(b)}")
    return "\n".join(lines) + "\n"


def loads_weights(text: str) -> NetworkParameters:
    """Parse :func:`dumps_weights` text; anything malformed raises
    :class:`ConfigurationError`."""
    try:
        return _parse(text)
    except (ValueError, IndexError) as exc:
        raise ConfigurationError(f"malformed weights file: {exc}") from exc


def _parse(text: str) -> NetworkParameters:
    lines = [
        ln.strip()
        for ln in text.splitlines()
        if ln.strip() and not ln.lstrip().startswith("#")
    ]
    if not lines:
        raise ConfigurationError("empty weights file")
    head = lines[0].split()
    if len(head) != 2 or head[0] != FORMAT_NAME:
        raise ConfigurationError(f"not a {FORMAT_NAME} file: {lines[0]!r}")
    if int(head[1]) != FORMAT_VERSION:
        raise ConfigurationError(f"unsupported weights format version {head[1]}")

    sizes = None
    activation = None
    weights = {}
    biases = {}
    for ln in lines[1:]:
        kind, rest = ln.split(None, 1)
        if kind == "layers":
            if sizes is not None:
                raise ConfigurationError("repeated weights-file record 'layers'")
            sizes = [int(s) for s in rest.split()]
        elif kind == "activation":
            if activation is not None:
                raise ConfigurationError("repeated weights-file record 'activation'")
            activation = rest.strip()
        elif kind in ("weight", "bias"):
            parts = rest.split()
            idx = int(parts[0])
            records = weights if kind == "weight" else biases
            if idx in records:
                raise ConfigurationError(f"repeated weights-file record '{kind} {idx}'")
            records[idx] = np.array([float(p) for p in parts[1:]], dtype=float)
            if not np.all(np.isfinite(records[idx])):
                raise ConfigurationError(f"non-finite entry in weights-file record '{kind} {idx}'")
        else:
            raise ConfigurationError(f"unknown weights-file record {kind!r}")

    if sizes is None or activation is None:
        raise ConfigurationError("weights file missing layers/activation header")
    for kind, records in (("weight", weights), ("bias", biases)):
        for idx in records:
            if not 0 <= idx < len(sizes) - 1:
                raise ConfigurationError(
                    f"weights-file record '{kind} {idx}' names no layer of a "
                    f"{len(sizes) - 1}-layer network"
                )
    params = NetworkParameters.zeros(sizes, activation)
    for l in range(len(sizes) - 1):
        if l not in weights or l not in biases:
            raise ConfigurationError(f"weights file missing layer {l}")
        params.weights[l][...] = weights[l].reshape(params.weights[l].shape)
        params.biases[l][...] = biases[l].reshape(params.biases[l].shape)
    return params.validate()


def save_weights(params: NetworkParameters, path):
    with open(path, "w") as fh:
        fh.write(dumps_weights(params))


def load_weights(path) -> NetworkParameters:
    with open(path) as fh:
        text = fh.read()
    try:
        return loads_weights(text)
    except ConfigurationError as exc:
        raise ConfigurationError(f"{path}: {exc}") from exc
