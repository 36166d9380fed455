"""Every name the benchmark tracer patches still exists where it patches it.

bench/tracer.py replaces, per boundary, the function in its home module and
the name each listed caller module imported; a caller that stops importing
a name breaks `bench/run.py --trace 1`.  This loads the tracer by path and
checks the names without running anything.  A module's other imports must
be used: with no linter in the toolchain, an import the tracer does not
patch and the module does not read is caught here, as is a functools cache
with no size bound on a function that takes arguments.
"""

import ast
import importlib
import importlib.util
import inspect
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


def _caches() -> dict:
    """Every functools cache wrapper at the top level of a searchlab module
    or in one of its classes, by module and name."""
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        module = importlib.import_module(
            "searchlab" if path.stem == "__init__" else f"searchlab.{path.stem}")
        owners = [module, *(cls for _, cls in inspect.getmembers(module, inspect.isclass)
                            if cls.__module__ == module.__name__)]
        for owner in owners:
            for name, value in vars(owner).items():
                if callable(getattr(value, "cache_parameters", None)):
                    found[f"{path.stem}.{name}"] = value
    return found


def test_package_caches_are_bounded():
    # a cache keyed on its arguments grows with every distinct call: a
    # process-wide cache of bisection levels, keyed on the configuration,
    # held 200,000 entries after 20,000 configurations
    caches = _caches()
    assert {"model.probe_variances", "cli.build_parser"} <= set(caches)
    unbounded = [name for name, fn in caches.items()
                 if fn.cache_parameters()["maxsize"] is None
                 and inspect.signature(fn).parameters]
    assert unbounded == []
