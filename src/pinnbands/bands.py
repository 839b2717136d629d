"""Predictive uncertainty bands shared by the NLM and VI back ends, and the
CSV writer every emitted table goes through."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ShapeError


@dataclass
class PredictiveBand:
    """Per-grid-point predictive moments.

    ``total_var`` is ``epistemic_var + sigma_p2``, computed on each read;
    ``sigma_p2`` is zero for methods that carry no pseudo-aleatoric term.
    """

    grid: np.ndarray
    mean: np.ndarray
    epistemic_var: np.ndarray
    sigma_p2: np.ndarray

    def __post_init__(self):
        self.grid = np.asarray(self.grid, dtype=float)
        n = self.grid.shape[0]
        # NaN is never legal; +inf is, for a variance (singular source)
        for name, lowest in (("mean", -np.inf), ("epistemic_var", 0.0), ("sigma_p2", 0.0)):
            arr = np.asarray(getattr(self, name), dtype=float)
            setattr(self, name, arr)
            if arr.shape != (n,):
                raise ShapeError(f"band field {name} has shape {arr.shape}, expected ({n},)")
            if not np.all(arr >= lowest):
                raise ShapeError(f"band field {name} must be >= {lowest} and not NaN")

    @property
    def total_var(self) -> np.ndarray:
        """``epistemic_var + sigma_p2`` pointwise."""
        return self.epistemic_var + self.sigma_p2

    @property
    def sd_total(self) -> np.ndarray:
        return np.sqrt(self.total_var)


def write_csv(table: dict, path):
    """One header line of the column names, then one row per entry; floats as
    ``.17g`` (exact round trip), integer and boolean columns as integers."""
    arrays = [np.asarray(column) for column in table.values()]
    fmt = ["%d" if arr.dtype.kind in "ib" else "%.17g" for arr in arrays]
    np.savetxt(path, np.column_stack(arrays), fmt=fmt, delimiter=",", header=",".join(table),
               comments="")


def band_to_csv(band: PredictiveBand, path):
    """CSV export with columns x[,t], mean, epistemic_var, sigma_P2, total_var."""
    grid = band.grid
    coords = {"x": grid[:, 0], "t": grid[:, 1]} if grid.ndim == 2 else {"x": grid}
    columns = {"mean": band.mean, "epistemic_var": band.epistemic_var,
               "sigma_P2": band.sigma_p2, "total_var": band.total_var}
    write_csv({**coords, **columns}, path)
