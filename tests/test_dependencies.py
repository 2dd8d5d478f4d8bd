"""The third-party packages ``src/`` imports are the ones ``pyproject.toml`` lists.

A dependency dropped from ``pyproject.toml`` could otherwise come back as
an unlisted import, and a listed one could go unused.  The import and
distribution names of the listed packages coincide, so names are compared
after lowercasing and mapping ``-`` to ``_``.
"""
import ast
import re
import sys
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")

ROOT = Path(__file__).resolve().parents[1]


def _imported():
    names = set()
    for path in (ROOT / "src").rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.split(".")[0])
    return {name for name in names if name not in sys.stdlib_module_names} - {"localcorr"}


def _declared():
    with open(ROOT / "pyproject.toml", "rb") as handle:
        deps = tomllib.load(handle)["project"]["dependencies"]
    return {re.split(r"[\s<>=!~;\[]", dep, maxsplit=1)[0].lower().replace("-", "_")
            for dep in deps}


def test_src_imports_exactly_the_declared_dependencies():
    imported, declared = _imported(), _declared()
    assert "numpy" in imported  # the walk reached the sources
    assert imported == declared, (
        f"imported but not listed: {sorted(imported - declared)}; "
        f"listed but not imported: {sorted(declared - imported)}"
    )
