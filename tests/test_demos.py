"""The demo scripts compile and import only names the package still has.

The demos are not run here (each takes seconds to minutes); this only
guards them against renames and removals in the public API.
"""

import ast
import importlib
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def test_demos_found():
    assert DEMOS


@pytest.mark.parametrize("path", DEMOS, ids=[p.name for p in DEMOS])
def test_demo_imports_exist(path):
    tree = compile(path.read_text(), str(path), "exec", ast.PyCF_ONLY_AST)
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "searchlab":
                    importlib.import_module(alias.name)
        elif isinstance(node, ast.ImportFrom) and node.module \
                and node.module.split(".")[0] == "searchlab":
            module = importlib.import_module(node.module)
            missing = [a.name for a in node.names if not hasattr(module, a.name)]
            assert not missing, f"{path.name} imports missing names {missing}"
