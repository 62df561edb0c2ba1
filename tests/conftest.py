"""Shared test helpers and fixtures.

``poll_until`` is the suite's one condition-synchronization primitive:
tests that wait on a background thread (the verifier daemon, a crashing
pass) poll the observable condition with a deadline instead of sleeping
a fixed interval — fixed sleeps are simultaneously too slow on fast
machines and flaky on loaded ones.

``chunk_rows`` is the one way a test sets the engine's chunk length.

``relocate_on_delete`` makes a heap relocate records at every delete,
the way a page that keeps its free space contiguous would.

``on_page_listing`` runs a test's callable in the middle of a verifier
pass: when the pass lists a page's cells to scan them.

The terminal summary ends with the ten test files that took longest
(setup, call and teardown summed), so a slow file shows in every run.
"""

import collections
import contextlib
import time

import pytest
from hypothesis import HealthCheck, settings

from repro.storage import config as storage_config

#: the suite's one Hypothesis profile: the same examples on every run,
#: so a failure reproduces and a pass is no luck of the draw, and no
#: per-example deadline on machines whose speed drifts. Tests set only
#: ``max_examples``.
settings.register_profile(
    "repro",
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("repro")


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


def relocate_on_delete(heap) -> None:
    """Compact the page of every record ``heap`` deletes, right after."""
    delete = heap.delete

    def deleting(rid):
        payload = delete(rid)
        heap.get_page(rid.page_id).compact()
        return payload

    heap.delete = deleting


def on_page_listing(vmem, hooks: dict) -> None:
    """Run ``hooks[page](page)`` whenever ``vmem``'s untrusted memory
    lists that page's cells, as the verifier does under the page's
    partition lock when it scans the page."""
    listing = vmem.memory.page_addresses

    def page_addresses(page_id, *args):
        hook = hooks.get(page_id)
        if hook is not None:
            hook(page_id)
        return listing(page_id, *args)

    vmem.memory.page_addresses = page_addresses


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
