"""Every name the benchmark tracer patches still exists where it patches it.

bench/tracer.py replaces, per boundary, the function in its home module and
the name each listed caller module imported; a caller that stops importing
a name breaks `bench/run.py --trace 1`.  This loads the tracer by path and
checks the names without running anything.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


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
