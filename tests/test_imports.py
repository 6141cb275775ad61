"""Every name a library module imports is read in that module.

`__init__` is left out: its imports are the package's exports.
"""

import ast
from pathlib import Path

import pytest

import bundle_forge

PACKAGE = Path(bundle_forge.__file__).parent
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list:
    """(line, name) of each imported name that no expression of `source` reads."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.append((node.lineno, name))
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [(line, name) for line, name in imported if name not in read]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_scan_sees_unused_and_used_names():
    source = (
        "from __future__ import annotations\n"
        "import math\n"
        "import numpy as np\n"
        "from fractions import Fraction\n"
        "def f(x) -> Fraction:\n"
        "    import time\n"
        "    return np.sqrt(x)\n"
    )
    assert unused_imports(source) == [(2, "math"), (6, "time")]
