"""Per-cell correctness gate and the band-quality figures the benchmark reports.

A cell fails when any of these does not hold:

- no band array holds NaN, the band mean is finite, and the variances are
  finite and non-negative; the one exception is +inf variance on a problem
  registered as singular (``ode1.logsing``), where the bound diverges past
  the singularity by design;
- an error-aware cell of a non-singular ODE covers the truth with its 3-sigma
  band on at least 99% of the grid (acceptance criterion C6);
- no grid point of an ODE cell with a truth has |u_true - u_det| > bound;
- a Burgers cell meets its initial and wall conditions exactly.

Byte identity of the emitted files across passes is checked by the caller,
which holds the hashes of every pass.
"""

from __future__ import annotations

import numpy as np

from workloads import ERROR_AWARE

MIN_COVERAGE = 0.99


def check_cell(config, report):
    """Return (failure messages, quality figures) for one finished cell."""
    from pinnbands.problems import BurgersProblem, get_entry

    entry = get_entry(config.problem)
    band = report.band
    failures = []
    quality = {}

    for name in ("mean", "epistemic_var", "sigma_p2", "total_var"):
        arr = np.asarray(getattr(band, name), dtype=float)
        if np.isnan(arr).any():
            failures.append(f"band.{name} holds NaN")
        elif name == "mean":
            if not np.isfinite(arr).all():
                failures.append("band.mean is not finite")
        elif (arr < 0).any():
            failures.append(f"band.{name} is negative")
        elif not entry.singular and not np.isfinite(arr).all():
            failures.append(f"band.{name} is not finite")

    width = float(np.mean(6.0 * band.sd_total))
    if config.method in ERROR_AWARE and np.isfinite(width):
        quality["band_width_3sigma"] = width

    if isinstance(entry.problem, BurgersProblem):
        for key in ("max_ic_error", "max_bc_error"):
            if report.metrics[key] != 0.0:
                failures.append(f"{key} = {report.metrics[key]!r}, not 0.0")
        return failures, quality

    table = report.table
    u_true = np.asarray(table["u_true"], dtype=float)
    if np.isfinite(u_true).all():
        excess = np.abs(u_true - table["u_det"]) > table["bound"]
        quality["bound_violations"] = int(np.count_nonzero(excess))
        if quality["bound_violations"]:
            failures.append(f"{quality['bound_violations']} grid points exceed the error bound")
        quality["max_abs_error_mean"] = report.metrics["max_abs_error_mean"]
        if config.method in ERROR_AWARE:
            coverage = report.metrics["coverage_3sigma_full"]
            quality["coverage_3sigma"] = coverage
            if coverage < MIN_COVERAGE:
                failures.append(f"3-sigma coverage {coverage:.4f} < {MIN_COVERAGE}")
    return failures, quality
