"""The package's public surface and its stdlib-only promise, checked from
the installed names and the parsed source."""

import ast
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import nodebalancer

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "nodebalancer"


def test_every_public_name_resolves_once():
    assert [name for name, n in Counter(nodebalancer.__all__).items() if n > 1] == []
    assert [name for name in nodebalancer.__all__ if not hasattr(nodebalancer, name)] == []


def _absolute_imports(source: str, filename: str) -> list[tuple[int, str]]:
    """(line, top-level module) for each absolute import in the source."""
    found = []
    for node in ast.walk(ast.parse(source, filename)):
        if isinstance(node, ast.Import):
            found.extend((node.lineno, alias.name.partition(".")[0]) for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            found.append((node.lineno, node.module.partition(".")[0]))
    return found


def test_the_package_imports_only_itself_and_the_standard_library():
    modules = sorted(PACKAGE.glob("*.py"))
    assert PACKAGE / "__init__.py" in modules and len(modules) > 1
    outside = [
        f"{path.name}:{line}: {module}"
        for path in modules
        for line, module in _absolute_imports(path.read_text(encoding="utf-8"), path.name)
        if module not in sys.stdlib_module_names
    ]
    assert outside == []


def test_the_import_check_names_a_third_party_import():
    source = "\n".join(
        [
            "from __future__ import annotations",
            "import json, os.path",
            "from .model import Cluster",
            "from . import errors",
            "import numpy as np",
            "from hypothesis.strategies import integers",
        ]
    )
    found = _absolute_imports(source, "probe.py")
    assert [(line, module) for line, module in found if module not in sys.stdlib_module_names] == [
        (5, "numpy"),
        (6, "hypothesis"),
    ]


def test_importing_the_cli_loads_no_dataclasses():
    # dataclasses imports inspect, which imports ast and dis, and compiles
    # the methods of every class it builds: time and memory that every
    # command pays at start-up. -S keeps site-packages' imports out.
    probe = ("import sys, nodebalancer.cli; "
             "print(sorted({'dataclasses', 'inspect', 'ast', 'dis'} & sys.modules.keys()))")
    result = subprocess.run(
        [sys.executable, "-S", "-c", probe], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)},
    )
    assert result.stdout == "[]\n"
