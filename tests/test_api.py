"""Public API guard: every name the demos and the README quick start import
from the package resolves, the README quick start runs, every name the
package re-exports is used by the README quick start, a demo or the CLI, and
importing the package or running any cell loads no scipy submodule."""

import ast
import importlib.util
import json
import pathlib
import re
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _quick_start():
    """The python block of the README quick start."""
    quick_start = (ROOT / "README.md").read_text().split("## Quick start", 1)[1]
    return re.search(r"```python\n(.*?)```", quick_start, re.S).group(1)


def _sources():
    """(label, python source) of every demo script and the README quick start."""
    demos = sorted((ROOT / "demos").glob("*.py"))
    assert demos, "no demo scripts found"
    for path in demos:
        yield path.name, path.read_text()
    yield "README quick start", _quick_start()


def test_demo_and_readme_imports_resolve():
    names = 0
    for label, source in _sources():
        for node in ast.walk(ast.parse(source, label)):
            if not (isinstance(node, ast.ImportFrom) and node.module):
                continue
            if node.module.split(".")[0] != "pinnbands":
                continue
            module = importlib.import_module(node.module)
            for alias in node.names:
                assert hasattr(module, alias.name), f"{label}: {node.module}.{alias.name} is gone"
                names += 1
    assert names > 0


def test_readme_quick_start_runs(tmp_path):
    # a fresh interpreter, so the block relies on nothing other tests imported or set up
    script = (f"import sys\nsys.path.insert(0, {str(ROOT / 'src')!r})\n" + _quick_start()
              + "assert band.grid.shape == (401,) and bool(np.all(np.isfinite(band.sd_total)))\n")
    subprocess.run([sys.executable, "-c", script], cwd=tmp_path, timeout=300, check=True)


def _identifiers(source, label):
    """Every imported name, variable name and attribute name in ``source``."""
    found = set()
    for node in ast.walk(ast.parse(source, label)):
        if isinstance(node, ast.ImportFrom):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
    return found


def test_every_reexport_is_used_by_readme_demo_or_cli():
    import pinnbands
    from pinnbands.errors import PinnbandsError

    init = ROOT / "src" / "pinnbands" / "__init__.py"
    exported = {
        alias.name
        for node in ast.walk(ast.parse(init.read_text(), str(init)))
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    exported = {
        name for name in exported
        if not (isinstance(getattr(pinnbands, name), type)
                and issubclass(getattr(pinnbands, name), PinnbandsError))
    }
    assert exported
    cli = ROOT / "src" / "pinnbands" / "cli.py"
    used = _identifiers(cli.read_text(), cli.name)
    for label, source in _sources():
        used |= _identifiers(source, label)
    unused = sorted(exported - used)
    assert not unused, f"re-exported but used by no README quick start, demo or cli.py: {unused}"


# Runs in a fresh interpreter: the test session itself imports scipy submodules.
_FIRST_USE_SCRIPT = """
import json, sys, tempfile
sys.path.insert(0, sys.argv[1])
import pinnbands, pinnbands.cli
from pinnbands.harness import METHODS, ExperimentConfig, emit_outputs, run_experiment
from pinnbands.problems import analytic_solution

cells = [ExperimentConfig(problem="ode1.exp", method=m, det_epochs=5, vi_epochs=3,
                          n_posterior_samples=5, grid_points=21) for m in METHODS]
cells.append(ExperimentConfig(problem="burgers", method="error_aware_vi", det_epochs=5,
                              vi_epochs=3, n_posterior_samples=5, burgers_grid=(4, 4),
                              burgers_time_samples=4))
with tempfile.TemporaryDirectory() as out:
    for cfg in cells:
        emit_outputs(run_experiment(cfg), out)
loaded_by_cells = sorted(name for name in sys.modules if name.startswith("scipy."))
values = [float(analytic_solution(pid, 0.5)) for pid in ("ode2.damped.log", "ode1.logsing")]
print(json.dumps({"loaded_by_cells": loaded_by_cells, "values": values,
                  "loaded_by_quadrature": "scipy.integrate" in sys.modules}))
"""

# the scipy subpackages the package once imported, or that they pull in
_HEAVY_SCIPY = ("scipy.linalg", "scipy.special", "scipy.integrate", "scipy.sparse", "scipy.optimize")


def test_quadrature_imported_on_first_use():
    proc = subprocess.run(
        [sys.executable, "-c", _FIRST_USE_SCRIPT, str(ROOT / "src")],
        capture_output=True, text=True, timeout=300, check=True,
    )
    result = json.loads(proc.stdout.splitlines()[-1])
    heavy = [name for name in result["loaded_by_cells"]
             if any(name == pkg or name.startswith(pkg + ".") for pkg in _HEAVY_SCIPY)]
    assert not heavy, f"importing pinnbands or running a cell loaded {heavy}"
    # the two quadrature references, as computed with a module-level import
    assert result["values"] == pytest.approx([0.9822481044659479, -0.7777899119733661],
                                             rel=1e-13, abs=0)
    assert result["loaded_by_quadrature"]


def test_sources_import_no_scipy_linalg_or_special():
    offenders = []
    for path in sorted((ROOT / "src").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module:
                modules = [node.module] + [f"{node.module}.{alias.name}" for alias in node.names]
            else:
                continue
            for module in modules:
                if module.split(".")[:2] in (["scipy", "linalg"], ["scipy", "special"]):
                    offenders.append(f"{path.relative_to(ROOT)}:{node.lineno} {module}")
    assert not offenders, offenders


def test_every_benchmark_target_exists():
    # perfbench wraps these functions by name, so a missing one would fail
    # only inside a benchmark run; the file is only read here
    spec = importlib.util.spec_from_file_location(
        "_perfbench_intercept", ROOT / "perfbench" / "intercept.py"
    )
    intercept = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(intercept)
    assert intercept.TARGETS
    for module, name, *_ in intercept.TARGETS:
        fn = getattr(importlib.import_module(f"pinnbands.{module}"), name, None)
        assert callable(fn), f"pinnbands.{module}.{name} is gone"
