"""The package's modules import one another in one direction only."""

from __future__ import annotations

import ast
from pathlib import Path

import nashcycles

#: Each module imports only modules earlier in this list.
LAYERS = ("games", "lp", "domgraph", "cycles", "equilibria", "cli")
SOURCE = Path(nashcycles.__file__).parent


def _package_imports(tree: ast.AST) -> set[str]:
    """The package modules a module's source imports, anywhere in it."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level:
                module = f"nashcycles.{module}".rstrip(".")
            if module == "nashcycles":  # `from . import lp`
                found |= {a.name for a in node.names}
            elif module.startswith("nashcycles."):  # `from .lp import x`
                found.add(module.split(".")[1])
        elif isinstance(node, ast.Import):
            found |= {a.name.split(".")[1] for a in node.names if a.name.startswith("nashcycles.")}
    return found


def test_modules_import_only_earlier_layers():
    modules = sorted(p.stem for p in SOURCE.glob("*.py") if p.stem not in ("__init__", "__main__"))
    assert modules == sorted(LAYERS)
    for index, name in enumerate(LAYERS):
        imported = _package_imports(ast.parse((SOURCE / f"{name}.py").read_bytes()))
        assert imported <= set(LAYERS[:index]), (name, sorted(imported - set(LAYERS[:index])))
