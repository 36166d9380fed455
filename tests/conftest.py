"""Shared fixtures and the acceptance-line reporter.

Acceptance tests register one line each through the `acceptance` fixture;
the terminal summary hook prints them in criterion order so a plain pytest
run ends with one PASS/FAIL line per criterion.  Cold tests clear every
cache of the package through `clear_package_caches`.
"""

import importlib
import pkgutil

import pytest
from hypothesis import HealthCheck, settings

import searchlab
from searchlab.model import new_config

settings.register_profile(
    "suite",
    derandomize=True,
    deadline=None,
    max_examples=50,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")

_ACCEPTANCE_LINES: dict[int, str] = {}


@pytest.fixture
def acceptance():
    """Recorder: acceptance(num, name, ok, detail) stores the line and
    returns ok so the caller can assert on it."""

    def record(num: int, name: str, ok: bool, detail: str) -> bool:
        verdict = "PASS" if ok else "FAIL"
        _ACCEPTANCE_LINES[num] = f"ACCEPTANCE {num:2d} {name}: {verdict} - {detail}"
        return ok

    return record


def pytest_terminal_summary(terminalreporter):
    if not _ACCEPTANCE_LINES:
        return
    terminalreporter.section("acceptance criteria")
    for num in sorted(_ACCEPTANCE_LINES):
        terminalreporter.write_line(_ACCEPTANCE_LINES[num])


@pytest.fixture(scope="session")
def config16():
    """The reference configuration: B=16, delta=1, sigma2=0.25, eps=1e-4."""
    return new_config(16, 1, 0.25, 1e-4)


def _package_caches() -> list:
    """Every lru cache of the package's modules, found as bench/run.py
    finds them: a module global with cache_clear and cache_info."""
    caches = []
    for info in pkgutil.iter_modules(searchlab.__path__):
        if info.name == "__main__":
            continue
        module = importlib.import_module(f"searchlab.{info.name}")
        for obj in vars(module).values():
            if callable(getattr(obj, "cache_clear", None)) and \
                    callable(getattr(obj, "cache_info", None)) and obj not in caches:
                caches.append(obj)
    return caches


@pytest.fixture(scope="session")
def clear_package_caches():
    """Clearer: clear_package_caches() empties every lru cache of the
    package, so a cold test also misses a cache added after it was
    written."""
    caches = _package_caches()

    def clear() -> None:
        for cache in caches:
            cache.cache_clear()

    return clear
