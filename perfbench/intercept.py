"""Timing calls into pinnbands from outside the package.

The package's modules import each other's functions by name
(``from .network import forward_jets_batch``), so wrapping a function means
rebinding every module-level name that refers to it, in every loaded
``pinnbands.*`` module, and restoring each binding afterwards.  ``rebound``
does that; ``Tracer`` and ``StageTimer`` supply the wrappers.

A span is one call: (function index, start, end, parent span, cell id, rows,
bytes, seconds spent counting the bytes after the call returned).  Spans are kept in memory; ``Tracer.write`` stores them at the end of
a run.  A span's self time is its duration minus the durations of its child
spans (calls are nested and sequential, so children never overlap); the time
spent counting a child's bytes is excluded from its parent's self time too.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import importlib
import json
import os
import sys
import time

import numpy as np

_MARK = "__perfbench_wrapper__"

# (module, function, positional index of the row-carrying argument or None,
#  how the call's bytes are counted or None)
TARGETS = (
    ("network", "forward_jets_batch", 1, "nbytes"),
    ("network", "backward", None, None),
    ("network", "forward_values", 1, None),
    ("network", "hidden_features", 1, None),
    ("problems", "residual_from_jets", 1, None),
    ("problems", "residual_jet_partials", 1, None),
    ("problems", "residual_values", 2, None),
    ("problems", "surrogate_values", 2, None),
    ("optim", "adam_step", None, None),
    ("optim", "adam_step_arrays", None, None),
    ("training", "train_deterministic", None, None),
    ("training", "residual_loss_and_grads", 2, None),
    ("bounds", "estimate_envelope", None, None),
    ("bounds", "pseudo_sigma", 2, None),
    ("bounds", "pseudo_profile", 3, None),
    ("bounds", "burgers_sigma_grid", 1, None),
    ("nlm", "optimize_prior", None, None),
    ("nlm", "nlm_fit", None, None),
    ("nlm", "nlm_band", 3, None),
    ("vi", "vi_train", None, None),
    ("vi", "eval_elbo", None, None),
    ("vi", "gaussian_kl", None, None),
    ("vi", "sample_posterior", None, None),
    ("vi", "predictive_moments", 2, None),
    ("harness", "run_experiment", None, None),
    ("harness", "emit_outputs", None, "files"),
)

FIELDS = ("calls", "rows", "bytes", "self_s", "total_s")


def package_modules():
    return [
        mod for name, mod in sorted(sys.modules.items())
        if mod is not None and (name == "pinnbands" or name.startswith("pinnbands."))
    ]


def original(module: str, name: str):
    fn = getattr(importlib.import_module(f"pinnbands.{module}"), name)
    if getattr(fn, _MARK, False):
        raise RuntimeError(f"pinnbands.{module}.{name} is still wrapped")
    return fn


def leftover_wrappers():
    """Qualified names of package bindings that still hold a wrapper."""
    return [
        f"{mod.__name__}.{name}"
        for mod in package_modules()
        for name, value in vars(mod).items()
        if getattr(value, _MARK, False)
    ]


@contextlib.contextmanager
def rebound(replacements: dict):
    """Bind ``replacements[f]`` wherever a pinnbands module binds ``f``."""
    by_id = {id(fn): wrapper for fn, wrapper in replacements.items()}
    done = []
    try:
        for mod in package_modules():
            for name, value in list(vars(mod).items()):
                wrapper = by_id.get(id(value))
                if wrapper is not None:
                    setattr(mod, name, wrapper)
                    done.append((mod, name, value))
        yield
    finally:
        for mod, name, value in reversed(done):
            setattr(mod, name, value)


def _rows(value) -> int:
    return len(value) if hasattr(value, "__len__") else 1


def _mark(wrapper, fn):
    functools.update_wrapper(wrapper, fn)
    setattr(wrapper, _MARK, True)
    return wrapper


def computed_nbytes(obj) -> int:
    """Summed ``nbytes`` of the arrays reachable through tuples, lists and
    object attributes (views are counted at their own size)."""
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    if isinstance(obj, (tuple, list)):
        return sum(map(computed_nbytes, obj))
    attrs = getattr(obj, "__dict__", None)
    return sum(map(computed_nbytes, attrs.values())) if attrs is not None else 0


class ResultBytes:
    """``computed_nbytes`` of a kernel's result, walked once per call shape.

    The shape is the row argument's array shape plus the remaining
    arguments after it; the network (its layer sizes) is taken as the same
    for every call with that shape, which holds for every workload here.
    Walking every result would cost a sizeable share of a small kernel.
    """

    def __init__(self, rows_at):
        self.rows_at = rows_at
        self.by_shape = {}

    def __call__(self, args, kwargs, out):
        at = self.rows_at
        key = (np.shape(args[at]), args[at + 1:], tuple(kwargs.items()))
        nbytes = self.by_shape.get(key)
        if nbytes is None:
            nbytes = self.by_shape[key] = computed_nbytes(out)
        return nbytes


def file_bytes(args, kwargs, paths) -> int:
    """Size of the files a writer returned the paths of."""
    return sum(os.path.getsize(p) for p in paths)


class StageTimer:
    """Wall time inside train_deterministic and vi_train; not a trace."""

    def __init__(self):
        self.seconds = {"train_deterministic": 0.0, "vi_train": 0.0}

    def wrappers(self) -> dict:
        out = {}
        for module, name in (("training", "train_deterministic"), ("vi", "vi_train")):
            fn = original(module, name)
            out[fn] = self._wrap(name, fn)
        return out

    def _wrap(self, name, fn):
        seconds = self.seconds
        clock = time.perf_counter

        def timed(*args, **kwargs):
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                seconds[name] += clock() - start

        return _mark(timed, fn)


class Tracer:
    """Records one span per call into the TARGETS functions."""

    def __init__(self):
        self.names = [f"{module}.{name}" for module, name, _, _ in TARGETS]
        self.spans = []
        self.stack = []   # indices of the spans currently open
        self.cell = -1

    def wrappers(self) -> dict:
        out = {}
        for fid, (module, name, rows_at, measure) in enumerate(TARGETS):
            fn = original(module, name)
            out[fn] = self._wrap(fid, fn, rows_at, measure)
        return out

    def _wrap(self, fid, fn, rows_at, measure):
        spans, stack = self.spans, self.stack
        tracer = self
        clock = time.perf_counter
        count = ResultBytes(rows_at) if measure == "nbytes" else file_bytes if measure == "files" else None

        def traced(*args, **kwargs):
            rows = _rows(args[rows_at]) if rows_at is not None and len(args) > rows_at else 0
            parent = stack[-1] if stack else -1
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (fid, start, end, parent, tracer.cell, rows, 0, 0.0)
            if count is not None:
                nbytes = count(args, kwargs, out)
                spans[idx] = (fid, start, end, parent, tracer.cell, rows, nbytes, clock() - end)
            return out

        return _mark(traced, fn)

    def aggregate(self, lo: int, hi: int) -> dict:
        """Per-function calls, rows, bytes, self and total seconds over
        spans[lo:hi], plus each cell's summed self time."""
        spans = self.spans
        child = [0.0] * (hi - lo)
        for i in range(lo, hi):
            fid, start, end, parent, *_, counting = spans[i]
            if parent >= lo:
                child[parent - lo] += end - start + counting
        per_fn = {name: dict.fromkeys(FIELDS, 0) for name in self.names}
        per_cell = {}
        for i in range(lo, hi):
            fid, start, end, parent, cell, rows, nbytes, _ = spans[i]
            row = per_fn[self.names[fid]]
            dur = end - start
            own = dur - child[i - lo]
            row["calls"] += 1
            row["rows"] += rows
            row["bytes"] += nbytes
            row["self_s"] += own
            row["total_s"] += dur
            per_cell[cell] = per_cell.get(cell, 0.0) + own
        return {"functions": per_fn, "cell_self_s": per_cell}

    def count_under(self, lo: int, hi: int, name: str, ancestor: str, not_parent: str) -> int:
        """Calls of ``name`` in spans[lo:hi] made while ``ancestor`` was
        running, not counting those made directly by ``not_parent``."""
        spans, names = self.spans, self.names
        n = 0
        for i in range(lo, hi):
            fid, _, _, parent = spans[i][:4]
            if names[fid] != name or (parent >= 0 and names[spans[parent][0]] == not_parent):
                continue
            while parent >= 0 and names[spans[parent][0]] != ancestor:
                parent = spans[parent][3]
            n += parent >= 0
        return n

    def write(self, path):
        """Store every span as one JSON line (gzip), start times relative to
        the first span."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        t0 = self.spans[0][1] if self.spans else 0.0
        with gzip.open(path, "wt") as fh:
            for fid, start, end, parent, cell, rows, nbytes, _ in self.spans:
                fh.write(json.dumps({
                    "name": self.names[fid], "start": start - t0, "end": end - t0,
                    "parent": parent, "cell": cell, "rows": rows, "bytes": nbytes,
                }) + "\n")
