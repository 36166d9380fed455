"""Every name the benchmark tracer patches still exists where it patches it.

bench/tracer.py replaces, per boundary, the function in its home module and
the name each listed caller module imported; a caller that stops importing
a name breaks `bench/run.py --trace 1`.  This loads the tracer by path and
checks the names without running anything.  A module's other imports must
be used: with no linter in the toolchain, an import the tracer does not
patch and the module does not read is caught here.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

import searchlab

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"
PACKAGE = Path(searchlab.__file__).parent


def _boundaries():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.BOUNDARIES


BOUNDARIES = _boundaries()


def test_boundaries_found():
    assert BOUNDARIES


@pytest.mark.parametrize("boundary", BOUNDARIES, ids=[b[0] for b in BOUNDARIES])
def test_boundary_names_resolve(boundary):
    name, home, callers, _ = boundary
    attr = name.split(".", 1)[1]
    original = getattr(importlib.import_module(f"searchlab.{home}"), attr)
    for caller in callers:
        module = importlib.import_module(f"searchlab.{caller}")
        assert getattr(module, attr, None) is original, \
            f"searchlab.{caller} does not hold {home}.{attr}"


def _imported(path: Path) -> set[str]:
    """Names bound by a module's top-level imports, __future__'s aside."""
    names = set()
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Import):
            names.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names.update(a.asname or a.name for a in node.names)
    return names


@pytest.mark.parametrize("module", sorted(
    p.stem for p in PACKAGE.glob("*.py") if p.stem not in ("__init__", "__main__")))
def test_module_imports_are_used_or_patched(module):
    path = PACKAGE / f"{module}.py"
    read = {node.id for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, ast.Name)}
    patched = {name.split(".", 1)[1] for name, _, callers, _ in BOUNDARIES
               if module in callers}
    assert _imported(path) - read - patched == set()


def test_package_imports_are_exported():
    assert _imported(PACKAGE / "__init__.py") - set(searchlab.__all__) == set()
