"""Shared test helpers and fixtures.

``poll_until`` is the suite's one condition-synchronization primitive:
tests that wait on a background thread (the verifier daemon, a crashing
pass) poll the observable condition with a deadline instead of sleeping
a fixed interval — fixed sleeps are simultaneously too slow on fast
machines and flaky on loaded ones.

``chunk_rows`` is the one way a test sets the engine's chunk length.

The terminal summary ends with the ten test files that took longest
(setup, call and teardown summed), so a slow file shows in every run.
"""

import collections
import contextlib
import time

import pytest

from repro.storage import config as storage_config


def poll_until(predicate, timeout=5.0, interval=0.005):
    """Poll ``predicate`` until truthy or ``timeout`` seconds elapse.

    Returns the final value of ``predicate()`` so callers can simply
    ``assert poll_until(...)`` and get a clean assertion failure (with
    the predicate still false) instead of a hang or a race.
    """
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return predicate()


@pytest.fixture(name="poll_until")
def poll_until_fixture():
    """The polling helper as a fixture, for tests that prefer injection."""
    return poll_until


@contextlib.contextmanager
def chunk_rows(rows: int):
    """Run the engine at a chunk length of ``rows`` inside the block.

    ``repro.storage.config.BATCH_ROWS`` is the one chunk length the
    scans, sorts and aggregates read at call time; tests sweep it (1 and
    7 put chunk boundaries everywhere) through this.
    """
    saved = storage_config.BATCH_ROWS
    storage_config.BATCH_ROWS = rows
    try:
        yield
    finally:
        storage_config.BATCH_ROWS = saved


def pytest_terminal_summary(terminalreporter):
    per_file = collections.Counter()
    for reports in terminalreporter.stats.values():
        for report in reports:
            if getattr(report, "when", None) in ("setup", "call", "teardown"):
                per_file[report.nodeid.split("::", 1)[0]] += report.duration
    if not per_file:
        return
    terminalreporter.write_sep("=", "slowest 10 test files")
    for path, seconds in per_file.most_common(10):
        terminalreporter.write_line(f"{seconds:8.2f}s  {path}")
