"""Command-line interface.

Subcommands:

* ``solve``          run one experiment cell or a whole preset bundle
* ``list-problems``  print the registered equation ids
* ``certify``        bound-only mode: error bound from saved weights

A flat ``key=value`` config file can stand in for flags; explicit flags win.
Exit codes: 0 success, 2 configuration error, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

import numpy as np

from .bounds import estimate_envelope, pseudo_sigma, uniform_knots
from .errors import (
    ConditioningError,
    ConfigurationError,
    DomainError,
    PinnbandsError,
    ShapeError,
    TrainingDivergedError,
    UnsupportedOrderError,
)
from .harness import (
    METHODS,
    ExperimentConfig,
    emit_outputs,
    preset_configs,
    resolve_preset,
    run_experiment,
    save_artifacts,
)
from .problems import REGISTRY, get_entry, surrogate_values
from .training import load_trained

_CONFIG_EXIT = 2
_NUMERIC_EXIT = 3

_CONFIG_ERRORS = (ConfigurationError, ShapeError, DomainError, UnsupportedOrderError)
_NUMERIC_ERRORS = (TrainingDivergedError, ConditioningError, FloatingPointError)


def _read_config_file(path) -> dict:
    values = {}
    with open(path) as fh:
        for raw in fh:
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ConfigurationError(f"config line without '=': {line!r}")
            key, value = line.split("=", 1)
            values[key.strip().replace("-", "_")] = value.strip()
    return values


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pinnbands",
        description="PINN solvers with error-bound-backed uncertainty bands",
    )
    sub = parser.add_subparsers(dest="command")

    solve = sub.add_parser("solve", help="run an experiment cell or preset")
    solve.add_argument("--problem", help="problem id (see list-problems)")
    solve.add_argument("--method", choices=METHODS, help="inference method")
    solve.add_argument("--preset", help="preset name (fig1, fig2, fig4, fig5, burgers, desk)")
    solve.add_argument("--det-epochs", type=int, dest="det_epochs")
    solve.add_argument("--vi-epochs", type=int, dest="vi_epochs")
    solve.add_argument("--seed", type=int)
    solve.add_argument("--grid-points", type=int, dest="grid_points")
    solve.add_argument("--config", help="flat key=value config file mirroring flags")
    solve.add_argument("--save-weights", action="store_true", help="also write weights/posterior")
    solve.add_argument("--out", required=False, help="output directory")

    sub.add_parser("list-problems", help="list registered problem ids")

    certify = sub.add_parser("certify", help="error bound for saved weights (no training)")
    certify.add_argument("--weights", required=True, help="path prefix of saved model")
    certify.add_argument("--problem", required=True, help="problem id")
    certify.add_argument("--grid-points", type=int, default=401, dest="grid_points")
    certify.add_argument("--oversample", type=int, default=10)
    certify.add_argument("--safety-factor", type=float, default=1.1, dest="safety_factor")
    certify.add_argument("--out", required=True, help="output CSV path")
    return parser


_INT_KEYS = ("det_epochs", "vi_epochs", "seed", "grid_points")


def _solve(args) -> int:
    base = ExperimentConfig()
    file_values = _read_config_file(args.config) if args.config else {}
    merged = {}
    for key in ("problem", "method", "preset", "out", *_INT_KEYS):
        value = getattr(args, key, None)
        if value is None and key in file_values:
            value = file_values[key]
            if key in _INT_KEYS:
                value = int(value)
        if value is not None:
            merged[key] = value
    unknown = set(file_values) - {"problem", "method", "preset", "out", *_INT_KEYS}
    if unknown:
        raise ConfigurationError(f"unknown config-file keys: {sorted(unknown)}")

    out_dir = merged.get("out")
    if not out_dir:
        raise ConfigurationError("solve needs --out (or out= in the config file)")

    overrides = {k: merged[k] for k in _INT_KEYS if k in merged}
    if "problem" in merged:
        base = replace(base, problem=merged["problem"])
    if "method" in merged:
        base = replace(base, method=merged["method"])

    preset = merged.get("preset")
    explicit_cell = "problem" in merged and "method" in merged
    if preset and explicit_cell:
        # preset supplies budget defaults for the explicitly named cell
        budgets = resolve_preset(preset)["overrides"]
        configs = [replace(base, **budgets)]
    elif preset:
        configs = preset_configs(preset, base)
        if resolve_preset(preset)["cells"] is None:
            raise ConfigurationError(
                f"preset {preset!r} defines budgets only; also pass --problem and --method"
            )
    elif explicit_cell:
        configs = [base]
    else:
        raise ConfigurationError("solve needs --problem and --method, or a preset with cells")
    configs = [replace(c, **overrides) for c in configs]

    for cfg in configs:
        report = run_experiment(cfg)
        paths = emit_outputs(report, out_dir)
        if args.save_weights:
            paths += save_artifacts(report, out_dir)
        for path in paths:
            print(path)
    return 0


def _list_problems() -> int:
    width = max(len(pid) for pid in REGISTRY)
    for pid, entry in REGISTRY.items():
        flag = "  [excluded from accuracy thresholds]" if entry.singular else ""
        print(f"{pid:<{width}}  {entry.equation}{flag}")
    return 0


def _certify(args) -> int:
    entry = get_entry(args.problem)
    trained = load_trained(args.weights)
    if trained.problem_id and trained.problem_id != args.problem:
        raise ConfigurationError(
            f"weights were trained for {trained.problem_id!r}, not {args.problem!r}"
        )
    problem = entry.problem
    envelope = estimate_envelope(
        trained, uniform_knots(problem), args.oversample, args.safety_factor
    )
    grid = np.linspace(problem.x0, problem.test_domain[1], args.grid_points)
    bound = np.asarray(pseudo_sigma(problem, envelope, grid), dtype=float)
    u_det = surrogate_values(problem, trained.params, grid)
    with open(args.out, "w") as fh:
        fh.write("x,u_det,bound\n")
        for x, u, b in zip(grid, u_det, bound):
            fh.write(f"{x:.17g},{u:.17g},{b:.17g}\n")
    print(args.out)
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "solve":
            return _solve(args)
        if args.command == "list-problems":
            return _list_problems()
        if args.command == "certify":
            return _certify(args)
        parser.print_help()
        return _CONFIG_EXIT
    except _CONFIG_ERRORS as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return _CONFIG_EXIT
    except _NUMERIC_ERRORS as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        for key, value in getattr(exc, "diagnostics", {}).items():
            print(f"  {key}: {value}", file=sys.stderr)
        return _NUMERIC_EXIT
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return _CONFIG_EXIT
    except PinnbandsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _NUMERIC_EXIT


if __name__ == "__main__":
    sys.exit(main())
