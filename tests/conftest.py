"""Shared fixtures and the acceptance-summary hook.

Acceptance tests (tests/test_acceptance.py) register one verdict per
criterion through the ``acceptance`` fixture; the terminal-summary hook
then prints one PASS/FAIL line per criterion at the end of the run, even
when a criterion's assertion failed.
"""

import importlib.util
from pathlib import Path

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


@pytest.fixture(scope="session")
def retained_tool():
    """``tools/retained.py``, imported as a module."""
    path = Path(__file__).resolve().parent.parent / "tools" / "retained.py"
    spec = importlib.util.spec_from_file_location("retained", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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
