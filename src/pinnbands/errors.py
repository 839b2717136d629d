"""Exception hierarchy and argument checks shared by all pinnbands modules."""

import dataclasses
import math
import numbers
import operator


class PinnbandsError(Exception):
    """Base class for every error raised by this package."""


class ConfigurationError(PinnbandsError):
    """Invalid user-facing configuration: bad layer sizes, unknown problem id,
    non-covering partitions, unsupported method/problem combinations."""


class ShapeError(PinnbandsError):
    """Array dimensions inconsistent with the network or grid they are used with."""


class UnsupportedOrderError(PinnbandsError):
    """Derivative tracking requested beyond second order / two coordinates."""


class TapeMismatchError(PinnbandsError):
    """A backward pass received a tape recorded with different parameters."""


class TrainingDivergedError(PinnbandsError):
    """Loss or gradients became non-finite during optimization."""

    def __init__(self, message, epoch=None):
        super().__init__(message)
        self.epoch = epoch


class DomainError(PinnbandsError):
    """Evaluation point outside the domain an object was built for."""


class ConditioningError(PinnbandsError):
    """A symmetric positive definite solve failed numerically."""

    def __init__(self, message, diagnostics=None):
        super().__init__(message)
        self.diagnostics = diagnostics or {}


def check_count(name, value, lowest):
    """``value``, a Python or numpy integer but not a bool, as an ``int`` >= ``lowest``."""
    try:
        count = None if isinstance(value, bool) else operator.index(value)
    except TypeError:
        count = None
    if count is None or count < lowest:
        raise ConfigurationError(f"{name} must be an integer >= {lowest}, got {value!r}")
    return count


def check_finite(name, value, lowest, inclusive=False):
    """``value`` as a finite ``float`` > ``lowest`` (>= if ``inclusive``)."""
    number = isinstance(value, numbers.Real) and not isinstance(value, bool)
    if not (number and math.isfinite(value) and (value > lowest or inclusive and value == lowest)):
        relation = ">=" if inclusive else ">"
        raise ConfigurationError(f"{name} must be finite and {relation} {lowest}, got {value!r}")
    return float(value)


def check_pair(name, value, lowest):
    """``value`` as a tuple of two counts, each >= ``lowest``."""
    if not (isinstance(value, (tuple, list)) and len(value) == 2):
        raise ConfigurationError(f"{name} needs two entries, got {value!r}")
    return tuple(check_count(name, v, lowest) for v in value)


# the check and lowest value of every numeric ExperimentConfig and VIConfig field
CONFIG_FIELDS = {
    "det_epochs": (check_count, 0),
    "vi_epochs": (check_count, 0),
    "seed": (check_count, 0),
    "grid_points": (check_count, 2),
    "n_posterior_samples": (check_count, 1),
    "burgers_grid": (check_pair, 2),
    "burgers_time_samples": (check_count, 1),
    "epochs": (check_count, 1),
    "prior_sigma": (check_finite, 0.0),
}


def check_fields(config) -> dict:
    """``{name: checked value}`` of the :data:`CONFIG_FIELDS` of a dataclass."""
    checked = {}
    for f in dataclasses.fields(config):
        if f.name in CONFIG_FIELDS:
            check, lowest = CONFIG_FIELDS[f.name]
            checked[f.name] = check(f.name, getattr(config, f.name), lowest)
    return checked
