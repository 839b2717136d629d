"""Public API guard: every name the demos and the README quick start import
from the package resolves, and every name the package re-exports is used by
the README quick start, a demo or the CLI."""

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
