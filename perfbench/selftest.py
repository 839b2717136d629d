"""Self-tests of the benchmark at tiny budgets.

    python3 perfbench/selftest.py

Kept out of the package's pytest suite on purpose: these start interpreters
and run the benchmark itself, which the package's tests do not need.
"""

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
import unittest

import run  # first: pins the BLAS threads before numpy is imported

import gate  # noqa: E402
import intercept  # noqa: E402
import numpy as np  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

TINY = {
    "ode_desk": WORKLOADS["ode_desk"].scaled(det_epochs=20, grid_points=41),
    "ode_vi": WORKLOADS["ode_vi"].scaled(det_epochs=5, vi_epochs=4, grid_points=41,
                                         n_posterior_samples=8),
    "burgers_small": WORKLOADS["burgers_small"].scaled(
        det_epochs=2, vi_epochs=2, burgers_grid=(6, 6), burgers_time_samples=4,
        n_posterior_samples=4),
}

BENCHMARK = {}


def setUpModule():
    run.import_package()
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        BENCHMARK.update(json.load(fh))


def tiny_run(workload, seed=0, trace=0):
    """(exit code, record, result line) of one tiny in-process run."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = run.main(["--workload", workload, "--seed", str(seed), "--seconds", "0",
                         "--trace", str(trace)], workloads=TINY)
    lines = buf.getvalue().splitlines()
    record = json.loads(next(line for line in lines if line.startswith('{"record"')))["record"]
    return code, record, json.loads(lines[-1])


def bindings():
    """Every callable bound in a loaded pinnbands module, by qualified name."""
    return {
        f"{mod.__name__}.{name}": value
        for mod in intercept.package_modules()
        for name, value in vars(mod).items()
        if callable(value)
    }


class Declared(unittest.TestCase):
    def test_code_matches_benchmark_json(self):
        for key, table in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
            declared = {m["name"]: (m["unit"], m["better"]) for m in BENCHMARK[key]}
            self.assertEqual(declared, table, key)
        self.assertEqual([w["name"] for w in BENCHMARK["workloads"]], list(WORKLOADS))
        for w in BENCHMARK["workloads"]:
            self.assertEqual(w["why"], WORKLOADS[w["name"]].why)

    def test_every_metric_printed_with_its_unit(self):
        for workload in TINY:
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                code, _, result = tiny_run(workload, trace=trace)
                self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                self.assertGreaterEqual(result["attempted"], 1)
                printed = result["metrics"]
                self.assertEqual(
                    {m["name"]: m["unit"] for m in BENCHMARK[key]},
                    {name: v["unit"] for name, v in printed.items()},
                    f"{workload} trace={trace}",
                )
                for name, value in printed.items():
                    self.assertIsInstance(value["value"], (int, float), name)
                if key == "end_to_end":
                    for name, value in printed.items():
                        self.assertGreater(value["value"], 0, f"{workload} {name}")

    def test_traced_run_passes_completeness_checks(self):
        for workload in TINY:
            code, record, result = tiny_run(workload, trace=1)
            self.assertEqual(record["checks"], [], workload)


class Inputs(unittest.TestCase):
    def test_seed_changes_inputs_and_repeats_them(self):
        _, first, _ = tiny_run("ode_desk", seed=0)
        _, again, _ = tiny_run("ode_desk", seed=0)
        _, other, _ = tiny_run("ode_desk", seed=1)
        self.assertEqual(first["output_sha256"], again["output_sha256"])
        for cell, hashes in first["output_sha256"].items():
            self.assertNotEqual(hashes, other["output_sha256"][cell], cell)


class Interception(unittest.TestCase):
    def test_interception_is_undone_after_a_run(self):
        before = bindings()
        code, record, _ = tiny_run("ode_vi", trace=1)
        self.assertGreater(record["layers"]["network.forward_jets_batch"]["calls"], 0)
        self.assertEqual(intercept.leftover_wrappers(), [])
        after = bindings()
        self.assertEqual(before.keys(), after.keys())
        for name, value in before.items():
            self.assertIs(after[name], value, name)

    def test_interception_is_undone_when_a_cell_raises(self):
        from pinnbands import harness
        from pinnbands.errors import ConfigurationError

        before = bindings()
        bad = TINY["ode_desk"].configs(0)[0]
        bad.method = "no_such_method"
        with self.assertRaises(ConfigurationError):
            with intercept.rebound(intercept.Tracer().wrappers()):
                self.assertTrue(intercept.leftover_wrappers())
                harness.run_experiment(bad)
        self.assertEqual(intercept.leftover_wrappers(), [])
        self.assertEqual(before, bindings())


class Gate(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        from pinnbands import harness

        cls.config = TINY["ode_desk"].configs(0)[0]
        cls.report = harness.run_experiment(cls.config)

    def test_clean_cell_passes(self):
        failures, quality = gate.check_cell(self.config, self.report)
        self.assertEqual(failures, [])
        self.assertEqual(quality["bound_violations"], 0)

    def test_injected_nan_trips_the_gate(self):
        for field in ("mean", "epistemic_var", "sigma_p2", "total_var"):
            band = self.report.band
            saved = getattr(band, field)
            broken = np.array(saved, dtype=float)
            broken[len(broken) // 2] = np.nan
            setattr(band, field, broken)
            try:
                failures, _ = gate.check_cell(self.config, self.report)
            finally:
                setattr(band, field, saved)
            self.assertIn(f"band.{field} holds NaN", failures)

    def test_bound_violation_trips_the_gate(self):
        table = self.report.table
        saved = table["bound"]
        table["bound"] = np.zeros_like(saved)
        try:
            failures, quality = gate.check_cell(self.config, self.report)
        finally:
            table["bound"] = saved
        self.assertGreater(quality["bound_violations"], 0)
        self.assertTrue(any("exceed the error bound" in f for f in failures))


class Refusal(unittest.TestCase):
    def test_refuses_without_the_package_sources(self):
        bare = os.path.join(run.WORK, "bare")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        try:
            shutil.copytree(run.HERE, os.path.join(bare, "perfbench"),
                            ignore=shutil.ignore_patterns(".work", "__pycache__"))
            shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "ode_desk",
                 "--seed", "0", "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=180,
            )
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
