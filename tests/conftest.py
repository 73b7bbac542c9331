"""Shared fixtures and the acceptance-summary hook.

Acceptance tests (tests/test_acceptance.py) register one verdict per
criterion through the ``acceptance`` fixture; the terminal-summary hook
then prints one PASS/FAIL line per criterion at the end of the run, even
when a criterion's assertion failed.
"""

import importlib.util
import os
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

ACCEPTANCE_RESULTS: dict[int, tuple[str, bool, str]] = {}


@pytest.fixture
def acceptance():
    """Record (criterion number, title, verdict, detail) for the summary."""

    def record(number: int, title: str, passed: bool, detail: str = "") -> bool:
        ACCEPTANCE_RESULTS[number] = (title, bool(passed), detail)
        return bool(passed)

    return record


@pytest.fixture
def rng():
    return np.random.default_rng(42)


def _tool(name: str):
    """``tools/<name>.py``, imported as a module; environment variables it sets are put back."""
    path = Path(__file__).resolve().parent.parent / "tools" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    with mock.patch.dict(os.environ):
        spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="session")
def retained_tool():
    """``tools/retained.py``, imported as a module."""
    return _tool("retained")


@pytest.fixture(scope="session")
def fingerprints_tool():
    """``tools/fingerprints.py``, imported as a module."""
    return _tool("fingerprints")


class MemoryTrace:
    """tracemalloc over a ``with`` block, read in bytes above a zero.

    Entering starts tracing and marks.  ``mark()`` resets the traced peak and
    takes the memory traced now as the zero; ``peak()`` is the highest traced
    memory since the mark and ``held()`` the memory traced now, each less the
    zero.  Leaving stops tracing.
    """

    def __enter__(self):
        tracemalloc.start()
        self.mark()
        return self

    def __exit__(self, *exc):
        tracemalloc.stop()

    def mark(self) -> None:
        tracemalloc.reset_peak()
        self.zero = tracemalloc.get_traced_memory()[0]

    def peak(self) -> int:
        return tracemalloc.get_traced_memory()[1] - self.zero

    def held(self) -> int:
        return tracemalloc.get_traced_memory()[0] - self.zero


@pytest.fixture
def memory():
    """``MemoryTrace``, to trace a block: ``with memory() as mem: ...; mem.peak()``."""
    return MemoryTrace


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for number in sorted(ACCEPTANCE_RESULTS):
        title, passed, detail = ACCEPTANCE_RESULTS[number]
        status = "PASS" if passed else "FAIL"
        line = f"[{status}] criterion {number:>2}: {title}"
        if detail:
            line += f" - {detail}"
        terminalreporter.write_line(line)
