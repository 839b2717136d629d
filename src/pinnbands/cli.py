"""Command-line interface.

Subcommands:

* ``solve``          run one experiment cell or a whole preset bundle
* ``list-problems``  print the registered equation ids
* ``certify``        bound-only mode: error bound from saved weights

A flat ``key=value`` config file can stand in for flags; explicit flags win.
Exit codes: 0 success, 2 configuration or io error, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

from .bands import write_csv
from .bounds import estimate_envelope, pseudo_profile
from .errors import (
    CONFIG_FIELDS,
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
    evaluation_grid,
    preset_configs,
    resolve_preset,
    run_experiment,
    save_artifacts,
)
from .problems import REGISTRY, BurgersProblem, surrogate_values
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


def _solve(args) -> int:
    file_values = _read_config_file(args.config) if args.config else {}
    # every solve flag but these can stand in the config file; counts parse as their flags do
    keys = set(vars(args)) - {"command", "config", "save_weights"}
    unknown = set(file_values) - keys
    if unknown:
        raise ConfigurationError(f"unknown config-file keys: {sorted(unknown)}")
    merged = {}
    for key in keys:
        value = getattr(args, key)
        if value is None and key in file_values:
            value = file_values[key]
            if key in CONFIG_FIELDS:
                try:
                    value = int(value)
                except ValueError:
                    raise ConfigurationError(
                        f"config-file value {key}={value!r} is not an integer"
                    ) from None
        if value is not None:
            merged[key] = value

    out_dir = merged.get("out")
    if not out_dir:
        raise ConfigurationError("solve needs --out (or out= in the config file)")

    overrides = {k: merged[k] for k in CONFIG_FIELDS if k in merged}
    explicit_cell = "problem" in merged
    if explicit_cell != ("method" in merged):
        raise ConfigurationError("solve needs --problem and --method together, or neither")
    preset = merged.get("preset")
    if explicit_cell:
        cell = ExperimentConfig(problem=merged["problem"], method=merged["method"])
        # a preset supplies budget defaults for the explicitly named cell
        configs = [replace(cell, **resolve_preset(preset)["overrides"]) if preset else cell]
    elif preset:
        if resolve_preset(preset)["cells"] is None:
            raise ConfigurationError(
                f"preset {preset!r} defines budgets only; also pass --problem and --method"
            )
        configs = preset_configs(preset)
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
    # certify reads only the problem and the grid; every problem has a deterministic cell
    config = ExperimentConfig(
        problem=args.problem, method="deterministic", grid_points=args.grid_points
    ).validate()
    trained = load_trained(args.weights)
    if trained.problem_id != args.problem:
        raise ConfigurationError(
            f"weights were trained for {trained.problem_id!r}, not {args.problem!r}"
        )
    problem = trained.problem
    if isinstance(problem, BurgersProblem):
        raise ConfigurationError("certify needs an ODE problem; Burgers has no error bound")
    grid = evaluation_grid(config)
    envelope = estimate_envelope(
        trained, oversample=args.oversample, safety_factor=args.safety_factor
    )
    profile = pseudo_profile(trained, envelope, grid)
    u_det = surrogate_values(problem, trained.params, grid)
    write_csv({"x": grid, "u_det": u_det, "bound": profile.sigma_p}, args.out)
    print(args.out)
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on a bad flag, 0 after --help
        return exc.code
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
