"""Every top-level import of the package's modules is used by its module.

The check reads the source with ``ast``: a name bound by a top-level
``import`` or ``from ... import`` must be read somewhere in the module, or
listed in its ``__all__`` (a re-export). ``from __future__`` imports bind no
name and are skipped.
"""
import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "recurmartin"
MODULES = sorted(SRC.glob("*.py"))


def unused_imports(source: str) -> list:
    """Names bound by the top-level imports of ``source`` that it never reads."""
    tree = ast.parse(source)
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            read |= {e.value for e in node.value.elts if isinstance(e, ast.Constant)}
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in read)


def test_the_check_sees_unused_and_used_imports():
    source = (
        "from __future__ import annotations\n"
        "import json\n"
        "import numpy as np\n"
        "import os.path\n"
        "from typing import Optional, Sequence\n"
        "from .chains import StateId\n"
        "__all__ = ['StateId']\n"
        "def f(x: Sequence) -> None:\n"
        "    return np.zeros(os.path.sep)\n"
    )
    assert unused_imports(source) == ["Optional (line 5)", "json (line 2)"]


def test_modules_are_found():
    assert {"cli.py", "green.py", "__init__.py"} <= {p.name for p in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_has_no_unused_top_level_import(path):
    assert unused_imports(path.read_text()) == []
