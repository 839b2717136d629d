"""Public API guard: every name the demos and the README quick start import
from the package resolves."""

import ast
import importlib
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _sources():
    """(label, python source) of every demo script and the README quick start."""
    demos = sorted((ROOT / "demos").glob("*.py"))
    assert demos, "no demo scripts found"
    for path in demos:
        yield path.name, path.read_text()
    quick_start = (ROOT / "README.md").read_text().split("## Quick start", 1)[1]
    yield "README quick start", re.search(r"```python\n(.*?)```", quick_start, re.S).group(1)


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
