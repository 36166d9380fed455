"""The demo scripts compile, import only names the package still has, and
pass only keywords its functions still take.

The demos are not run here (each takes seconds to minutes); this only
guards them against renames and removals in the public API.
"""

import ast
import importlib
import inspect
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


def _searchlab_names(tree):
    """Local name -> object for every name a demo imports from searchlab."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "searchlab":
                    # "import searchlab.x" binds searchlab, "... as y" binds x
                    module = importlib.import_module(alias.name)
                    names[alias.asname or "searchlab"] = module if alias.asname \
                        else importlib.import_module("searchlab")
        elif isinstance(node, ast.ImportFrom) and node.module \
                and node.module.split(".")[0] == "searchlab":
            module = importlib.import_module(node.module)
            for alias in node.names:
                names[alias.asname or alias.name] = getattr(module, alias.name)
    return names


def _callee(func, names):
    """The searchlab object a call's func expression names, else None."""
    if isinstance(func, ast.Name):
        return names.get(func.id)
    if isinstance(func, ast.Attribute):
        owner = _callee(func.value, names)
        return getattr(owner, func.attr, None) if owner is not None else None
    return None


@pytest.mark.parametrize("path", DEMOS, ids=[p.name for p in DEMOS])
def test_demo_keywords_exist(path):
    tree = compile(path.read_text(), str(path), "exec", ast.PyCF_ONLY_AST)
    names = _searchlab_names(tree)
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        fn = _callee(node.func, names)
        keywords = [kw.arg for kw in node.keywords if kw.arg is not None]
        if fn is None or not keywords:
            continue
        params = inspect.signature(fn).parameters
        if any(p.kind is inspect.Parameter.VAR_KEYWORD for p in params.values()):
            continue
        unknown = [k for k in keywords if k not in params]
        assert not unknown, \
            f"{path.name}:{node.lineno} passes {unknown} to {fn.__qualname__}"
