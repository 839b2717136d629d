"""pinnbands benchmark: wall time to a 3-sigma band, per workload.

    python3 perfbench/run.py --workload ode_desk --seed 0 --seconds 40 --trace 0

Run from the repository root (or any checkout holding ``src/pinnbands``).  The
package is imported from that checkout's ``src``; nothing is installed.

An untraced run (``--trace 0``) runs the workload's cells again and again,
one pass after the other, until ``--seconds`` are spent (at least two
passes), times the set-up of a fresh interpreter after each pass, and reports
the end-to-end metrics.  A traced run (``--trace 1``) alternates untraced and
traced passes and reports the per-layer metrics, the tracing overhead and the
completeness checks.  Every pass goes through the correctness gate, and the
emitted files of every pass must be byte-identical to those of the first.

Output: readable lines, one ``{"record": ...}`` line with everything measured
(the input of ``compare.py``), and as the last line
``{"correct", "attempted", "failed", "metrics"}``.  Exit status: 0 when every
check passed, 1 when a check failed (the result is still printed), 2 when
the program or the arguments are unusable, 3 when BLAS is not single-threaded.
"""

import os

# BLAS reads these when numpy is first imported; oversubscribed OpenBLAS
# threads have distorted timings on this code 8-100x.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, ".work")
sys.path.insert(0, HERE)

import numpy as np  # noqa: E402

import gate  # noqa: E402
import intercept  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# name -> (unit, better); the order is the order of BENCHMARK.json
END_TO_END = {
    "setup_s": ("s", "lower"),
    "wall_s": ("s", "lower"),
    "det_epochs_per_s": ("1/s", "higher"),
    "peak_rss_mb": ("MB", "lower"),
    "band_width_3sigma.gmean": ("solution_units", "lower"),
}

# Reported in the record only: each is zero or undefined on some workload,
# so none can be a bounded end-to-end metric of every workload.
RECORD_ONLY = {
    "vi_epochs_per_s": ("1/s", "higher"),
    "failed_cells": ("fraction", "lower"),
    "coverage_3sigma.min": ("fraction", "higher"),
    "bound_violations": ("count", "lower"),
    "max_abs_error_mean.max": ("solution_units", "lower"),
}

_UNITS = {"calls": "count", "rows": "count", "bytes": "bytes", "self_s": "s", "total_s": "s"}
PER_LAYER = {
    f"{fn}.{field}": (_UNITS[field], "lower")
    for fn, fields in (
        ("network.forward_jets_batch", ("calls", "rows", "bytes", "self_s")),
        ("network.backward", ("calls", "self_s")),
        ("network.forward_values", ("calls", "rows", "self_s")),
        ("network.hidden_features", ("self_s",)),
        ("problems.residual_from_jets", ("self_s",)),
        ("problems.residual_jet_partials", ("self_s",)),
        ("problems.residual_values", ("calls", "rows", "self_s")),
        ("problems.surrogate_values", ("calls", "self_s")),
        ("optim.adam_step", ("calls", "self_s")),
        ("optim.adam_step_arrays", ("calls", "self_s")),
        ("training.train_deterministic", ("self_s", "total_s")),
        ("training.residual_loss_and_grads", ("self_s",)),
        ("bounds.estimate_envelope", ("total_s",)),
        ("bounds.pseudo_sigma", ("calls", "self_s")),
        ("bounds.pseudo_profile", ("total_s",)),
        ("bounds.burgers_sigma_grid", ("rows", "total_s")),
        ("nlm.optimize_prior", ("self_s", "total_s")),
        ("nlm.nlm_fit", ("calls", "self_s")),
        ("nlm.nlm_band", ("total_s",)),
        ("vi.vi_train", ("self_s", "total_s")),
        ("vi.eval_elbo", ("calls", "total_s")),
        ("vi.gaussian_kl", ("calls", "self_s")),
        ("vi.sample_posterior", ("self_s",)),
        ("vi.predictive_moments", ("self_s", "total_s")),
        ("harness.run_experiment", ("self_s",)),
        ("harness.emit_outputs", ("total_s", "bytes")),
    )
    for field in fields
}
PER_LAYER["trace.overhead_s"] = ("s", "lower")

SELF_TIME_TOLERANCE = 0.05

# A fresh interpreter doing the set-up every run pays before its first cell.
_SETUP_PROBE = (
    "import sys\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import pinnbands.harness\n"
    "from pinnbands.problems import get_entry\n"
    "for p in sys.argv[2:]:\n"
    "    get_entry(p)\n"
    "print('ready', flush=True)\n"
)


class Refused(Exception):
    """The run cannot give a valid result; no result line is printed."""

    def __init__(self, message, code=2):
        super().__init__(message)
        self.code = code


@dataclass
class Cell:
    config: object
    report: object
    paths: list
    error: str
    wall_s: float


# ---------------------------------------------------------------------------
# environment
# ---------------------------------------------------------------------------


def import_package():
    """Import pinnbands from this checkout's src, never from elsewhere."""
    sys.path.insert(0, SRC)
    try:
        import pinnbands.harness  # noqa: F401
    except ImportError as exc:
        raise Refused(f"cannot import pinnbands from {SRC}: {exc}") from exc
    import pinnbands

    origin = os.path.realpath(pinnbands.__file__)
    if not origin.startswith(os.path.realpath(SRC) + os.sep):
        raise Refused(f"pinnbands was imported from {origin}, not from {SRC}")
    return pinnbands


def process_threads() -> int:
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("Threads:"):
                return int(line.split()[1])
    raise Refused("/proc/self/status has no Threads line")


def check_single_thread():
    a = np.ones((256, 256))
    float((a @ a)[0, 0])
    n = process_threads()
    if n != 1:
        raise Refused(f"process runs {n} threads after a BLAS matmul; refusing to time", 3)
    return n


def _read(path):
    try:
        with open(path) as fh:
            return fh.read()
    except OSError:
        return None


def git_sha():
    head = _read(os.path.join(ROOT, ".git", "HEAD"))
    if head is None:
        return None
    head = head.strip()
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    loose = _read(os.path.join(ROOT, ".git", ref))
    if loose is not None:
        return loose.strip()
    for line in (_read(os.path.join(ROOT, ".git", "packed-refs")) or "").splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    return None


def source_digest() -> str:
    """sha256 over the package sources; identifies the code without git."""
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "pinnbands")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            digest.update(name.encode() + b"\0")
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()


def environment(threads: int) -> dict:
    import scipy

    cpu = None
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            cpu = line.split(":", 1)[1].strip()
            break
    try:
        openblas = np.show_config(mode="dicts")["Build Dependencies"]["blas"].get("version")
    except (TypeError, KeyError):
        openblas = None
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "openblas": openblas,
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
        "process_threads": threads,
        "git_sha": git_sha(),
        "source_sha256": source_digest(),
    }


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------


def setup_probe(problems) -> float:
    """Seconds from starting a fresh interpreter until it could run a cell."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-c", _SETUP_PROBE, SRC, *problems],
        stdout=subprocess.PIPE, cwd=ROOT,
    )
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
    finally:
        proc.stdout.close()
        code = proc.wait()
    if code != 0 or line.strip() != b"ready":
        raise Refused(f"set-up probe exited with {code}")
    return elapsed


def run_pass(configs, out_dir, tracer=None):
    """Run every cell once.  Returns (pass wall seconds, cells, stage seconds);
    stage seconds are None on a traced pass, whose spans hold them."""
    from pinnbands import harness

    timer = None if tracer else intercept.StageTimer()
    cells = []
    with intercept.rebound(tracer.wrappers() if tracer else timer.wrappers()):
        start = time.perf_counter()
        for i, config in enumerate(configs):
            if tracer:
                tracer.cell = i
            cell_start = time.perf_counter()
            try:
                report = harness.run_experiment(config)
                paths = harness.emit_outputs(report, out_dir)
                error = None
            except Exception as exc:  # a cell that raises is a failed cell
                traceback.print_exc(file=sys.stderr)
                report, paths, error = None, [], f"{type(exc).__name__}: {exc}"
            cells.append(Cell(config, report, paths, error, time.perf_counter() - cell_start))
        wall = time.perf_counter() - start
    return wall, cells, (timer.seconds if timer else None)


def sha256(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def gate_pass(cells, reference):
    """Failure messages and quality figures per cell.  ``reference`` maps cell
    index -> emitted-file hashes of the first pass and is filled on first use."""
    failures, quality = [], []
    for i, cell in enumerate(cells):
        problems = [cell.error] if cell.error else []
        found = {}
        if cell.report is not None:
            problems_, found = gate.check_cell(cell.config, cell.report)
            problems += problems_
            hashes = {os.path.basename(p): sha256(p) for p in cell.paths}
            if i not in reference:
                reference[i] = hashes
            elif hashes != reference[i]:
                problems.append("emitted files differ from the first pass")
        failures.append(problems)
        quality.append(found)
    return failures, quality


def check_trace(workload, tracer, lo, hi, cells):
    """Completeness of spans[lo:hi], one traced pass; returns the aggregate
    and the violated checks."""
    from pinnbands.vi import VIConfig

    agg = tracer.aggregate(lo, hi)
    fn = agg["functions"]
    det, vi = workload.det_epochs(), workload.vi_epochs()
    vi_defaults = VIConfig(epochs=1)
    per_vi_epoch = vi_defaults.mc_samples_per_step + vi_defaults.n_eval_draws
    bad = []

    def expect(label, got, want):
        if got != want:
            bad.append(f"{label}: {got} != {want}")

    expect("optim.adam_step.calls vs det epochs", fn["optim.adam_step"]["calls"], det)
    expect(
        "optim.adam_step_arrays.calls vs adam_step.calls + vi epochs",
        fn["optim.adam_step_arrays"]["calls"], fn["optim.adam_step"]["calls"] + vi,
    )
    expect(
        "network.forward_jets_batch.calls inside vi_train vs vi epochs x draws",
        tracer.count_under(lo, hi, "network.forward_jets_batch", "vi.vi_train",
                           "network.forward_values"),
        vi * per_vi_epoch,
    )
    for i, cell in enumerate(cells):
        own = agg["cell_self_s"].get(i, 0.0)
        if abs(own - cell.wall_s) > SELF_TIME_TOLERANCE * cell.wall_s:
            bad.append(f"cell {i}: self times sum to {own:.4f} s of {cell.wall_s:.4f} s traced wall")
    return agg, bad


def median(values):
    return statistics.median(values) if values else None


def measure(workload, seed, seconds, trace):
    """Run passes for ``seconds``; returns the record.

    Untraced runs make at least two passes, so that byte identity is checked,
    and start one set-up probe after each pass: spread over the run, the
    probes see the same host load as the passes.  A first probe, before the
    passes, fills the byte-code cache and is not counted.  Traced runs start
    with an untraced warm-up pass and then alternate traced and untraced
    passes, at least one of each after the warm-up.
    """
    configs = workload.configs(seed)
    out_root = os.path.join(WORK, f"run-{os.getpid()}")
    tracer = intercept.Tracer() if trace else None
    problems = sorted({p for p, _ in workload.cells})
    reference, passes, durations, setup = {}, [], [], []
    quality = None
    attempted = failed = 0
    failures, checks, layers = [], [], []
    min_passes = 3 if trace else 2
    deadline = time.perf_counter() + seconds
    if not trace:
        setup_probe(problems)
    try:
        while True:
            traced = bool(trace) and len(passes) % 2 == 1
            pass_start = time.perf_counter()
            out_dir = os.path.join(out_root, f"pass{len(passes)}")
            lo = len(tracer.spans) if tracer else 0
            wall, cells, stage_s = run_pass(configs, out_dir, tracer if traced else None)
            cell_failures, found = gate_pass(cells, reference)
            shutil.rmtree(out_dir, ignore_errors=True)
            if traced:
                agg, bad = check_trace(workload, tracer, lo, len(tracer.spans), cells)
                layers.append(agg["functions"])
                checks += [f"pass {len(passes)}: {b}" for b in bad]
                stage_s = {
                    "train_deterministic": agg["functions"]["training.train_deterministic"]["total_s"],
                    "vi_train": agg["functions"]["vi.vi_train"]["total_s"],
                }
            failures += [
                {"pass": len(passes), "cell": i, "failure": f}
                for i, found_failures in enumerate(cell_failures) for f in found_failures
            ]
            attempted += len(cells)
            failed += sum(bool(f) for f in cell_failures)
            if quality is None:
                quality = found
            passes.append({"wall_s": wall, "traced": traced, "stage_s": stage_s,
                           "cell_wall_s": [c.wall_s for c in cells]})
            if not trace:
                setup.append(setup_probe(problems))
            durations.append(time.perf_counter() - pass_start)
            if len(passes) >= min_passes and time.perf_counter() + median(durations) > deadline:
                break
    finally:
        shutil.rmtree(out_root, ignore_errors=True)
    leftovers = intercept.leftover_wrappers()
    if leftovers:
        checks.append(f"wrappers left in place: {leftovers}")
    if tracer:
        tracer.write(os.path.join(WORK, f"trace-{workload.name}.jsonl.gz"))
    return {
        "passes": passes,
        "setup_s": setup,
        "attempted": attempted,
        "failed": failed,
        "quality": quality,
        "failures": failures,
        "checks": checks,
        "layers": layers,
        "output_sha256": {str(i): h for i, h in sorted(reference.items())},
    }


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def _rate(epochs, passes, stage):
    """Median over passes of epochs per second inside one stage's calls."""
    seconds = [p["stage_s"][stage] for p in passes]
    if not epochs or not all(s > 0 for s in seconds):
        return None
    return median([epochs / s for s in seconds])


def end_to_end_metrics(workload, run):
    untraced = [p for p in run["passes"] if not p["traced"]]
    det, vi = workload.det_epochs(), workload.vi_epochs()
    widths = [q["band_width_3sigma"] for q in run["quality"] if "band_width_3sigma" in q]
    metrics = {
        "setup_s": median(run["setup_s"]),
        "wall_s": median([p["wall_s"] for p in untraced]),
        "det_epochs_per_s": _rate(det, untraced, "train_deterministic"),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "band_width_3sigma.gmean": (
            math.exp(statistics.fmean(math.log(w) for w in widths)) if widths else None
        ),
    }
    truth = [q for q in run["quality"] if "bound_violations" in q]
    coverage = [q["coverage_3sigma"] for q in truth if "coverage_3sigma" in q]
    extra = {
        "vi_epochs_per_s": _rate(vi, untraced, "vi_train"),
        "failed_cells": run["failed"] / run["attempted"],
        "coverage_3sigma.min": min(coverage) if coverage else None,
        "bound_violations": sum(q["bound_violations"] for q in truth) if truth else None,
        "max_abs_error_mean.max": max(q["max_abs_error_mean"] for q in truth) if truth else None,
    }
    return metrics, extra


def per_layer_metrics(run):
    traced = [p["wall_s"] for p in run["passes"] if p["traced"]]
    untraced = [p["wall_s"] for p in run["passes"][1:] if not p["traced"]]
    layers = {
        fn: {
            # counts repeat exactly from pass to pass; keep them whole numbers
            field: (statistics.median_low if field in ("calls", "rows", "bytes") else median)(
                [layer[fn][field] for layer in run["layers"]])
            for field in intercept.FIELDS
        }
        for fn in run["layers"][0]
    }
    metrics = {}
    for name in PER_LAYER:
        if name == "trace.overhead_s":
            metrics[name] = median(traced) - median(untraced)
        else:
            fn, field = name.rsplit(".", 1)
            metrics[name] = layers[fn][field]
    return metrics, layers


def _show(name, value, unit):
    text = "n/a" if value is None else f"{value:.6g}"
    print(f"  {name:<40} {text:>14} {unit}")


def main(argv=None, workloads=WORKLOADS):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workload = workloads[args.workload]

    try:
        import_package()
        env = environment(check_single_thread())
        run = measure(workload, args.seed, args.seconds, args.trace)
    except Refused as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return exc.code

    if args.trace:
        metrics, layers = per_layer_metrics(run)
        declared, extra = PER_LAYER, {}
    else:
        metrics, extra = end_to_end_metrics(workload, run)
        declared, layers = END_TO_END, {}
    checks = list(run["checks"])
    missing = [name for name in declared if metrics.get(name) is None]
    if missing:
        checks.append(f"metrics without a value: {missing}")
    correct = run["failed"] == 0 and not checks

    n_traced = sum(p["traced"] for p in run["passes"])
    print(f"workload {workload.name}  seed {args.seed}  passes {len(run['passes'])}"
          f" ({n_traced} traced)  cells {run['attempted']}  failed {run['failed']}")
    for f in run["failures"]:
        print(f"  pass {f['pass']} cell {f['cell']} {workload.cells[f['cell']]}: {f['failure']}")
    for name, (unit, _) in declared.items():
        _show(name, metrics[name], unit)
    for name, (unit, _) in RECORD_ONLY.items():
        if name in extra:
            _show(name, extra[name], unit)
    for check in checks:
        print(f"  check failed: {check}")

    record = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "budget": {k: list(v) if isinstance(v, tuple) else v for k, v in workload.budget.items()},
        "environment": env,
        "setup_samples_s": run["setup_s"],
        "metrics": metrics,
        "record_only": extra,
        "layers": layers,
        "passes": run["passes"],
        "failures": run["failures"],
        "checks": checks,
        "output_sha256": run["output_sha256"],
        "correct": correct,
    }
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": correct,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, (unit, _) in declared.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
