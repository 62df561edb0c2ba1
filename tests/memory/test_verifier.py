"""Unit tests for Algorithm 2: non-quiescent epoch verification."""

import sys

import pytest

from repro.crypto.prf import PRF
from repro.errors import ConfigurationError
from repro.memory.cells import make_addr
from repro.memory.rsws import RSWSGroup
from repro.memory.verified import VerifiedMemory
from repro.memory.verifier import Verifier
from tests.conftest import on_page_listing


def make_vmem(pages=4, partitions=2, page_digests=False):
    vmem = VerifiedMemory(
        prf=PRF(b"v" * 32),
        rsws=RSWSGroup(n_partitions=partitions),
        page_digests=page_digests,
    )
    for p in range(pages):
        vmem.register_page(p)
    return vmem


def fill(vmem, pages=4, cells_per_page=8):
    for p in range(pages):
        for i in range(cells_per_page):
            vmem.alloc(make_addr(p, i * 64), f"cell-{p}-{i}".encode())


def test_clean_pass_succeeds():
    vmem = make_vmem()
    fill(vmem)
    verifier = Verifier(vmem)
    verifier.run_pass()
    assert verifier.stats.passes_completed == 1
    assert verifier.stats.pages_scanned == 4
    assert verifier.stats.cells_scanned == 32
    assert verifier.stats.alarms == 0


def test_epoch_advances():
    vmem = make_vmem()
    fill(vmem)
    verifier = Verifier(vmem)
    assert vmem.epoch == 0
    verifier.run_pass()
    assert vmem.epoch == 1
    verifier.run_pass()
    assert vmem.epoch == 2


def test_operations_between_passes_stay_consistent():
    vmem = make_vmem()
    fill(vmem)
    verifier = Verifier(vmem)
    verifier.run_pass()
    vmem.write(make_addr(0, 0), b"new")
    vmem.read(make_addr(1, 64))
    vmem.free(make_addr(2, 0))
    vmem.alloc(make_addr(3, 9999), b"fresh")
    verifier.run_pass()


def test_incremental_steps_cover_all_pages():
    vmem = make_vmem(pages=3)
    fill(vmem, pages=3)
    verifier = Verifier(vmem)
    done = [verifier.step() for _ in range(3)]
    assert done == [False, False, True]
    assert verifier.stats.passes_completed == 1
    assert vmem.epoch == 1


def test_ops_interleaved_with_steps():
    """Non-quiescence: routine operations interleave with the page scans."""
    vmem = make_vmem(pages=4)
    fill(vmem, pages=4)
    verifier = Verifier(vmem)
    assert verifier.step() is False
    vmem.write(make_addr(0, 0), b"during-scan")  # page possibly already scanned
    vmem.write(make_addr(3, 0), b"during-scan")  # page possibly not yet scanned
    while not verifier.step():
        pass
    # next epoch still closes cleanly
    verifier.run_pass()


def test_trigger_scans_every_k_ops():
    vmem = make_vmem(pages=2)
    fill(vmem, pages=2)
    verifier = Verifier(vmem)
    verifier.install_trigger(ops_per_step=5)
    for i in range(25):
        vmem.read(make_addr(0, (i % 8) * 64))
    assert verifier.stats.pages_scanned == 5
    verifier.remove_trigger()


def test_trigger_validation():
    vmem = make_vmem()
    verifier = Verifier(vmem)
    with pytest.raises(ConfigurationError):
        verifier.install_trigger(0)


def test_page_registered_mid_pass_joins_next_epoch():
    vmem = make_vmem(pages=3)
    fill(vmem, pages=3)
    verifier = Verifier(vmem)
    assert verifier.step() is False
    vmem.register_page(50)
    vmem.alloc(make_addr(50, 0), b"late")
    while not verifier.step():
        pass
    verifier.run_pass()  # second pass covers the late page and closes cleanly
    assert verifier.stats.alarms == 0


def test_page_deregistered_mid_pass():
    vmem = make_vmem(pages=3)
    fill(vmem, pages=3)
    verifier = Verifier(vmem)
    assert verifier.step() is False
    vmem.deregister_page(2)
    while not verifier.step():
        pass
    verifier.run_pass()


def test_background_verifier_runs_and_stops():
    vmem = make_vmem()
    fill(vmem)
    verifier = Verifier(vmem)
    verifier.start_background()
    for i in range(200):
        vmem.read(make_addr(0, (i % 8) * 64))
    verifier.stop_background()
    assert verifier.stats.passes_completed >= 1


@pytest.mark.parametrize("mode", ["full", "touched"])
def test_pass_tolerates_a_page_dropped_mid_pass(mode):
    """A DROP TABLE landing mid-pass: the scan of page 0 deregisters page
    3, in the other partition, after the pass took its page snapshot.
    The pass passes over page 3 and closes clean."""
    vmem = make_vmem(pages=0, page_digests=(mode == "touched"))
    dropped = []

    def drop_page_3(page_id):
        if not dropped:
            dropped.append(page_id)
            vmem.deregister_page(3)

    for p in range(4):
        vmem.register_page(p)
    fill(vmem)
    on_page_listing(vmem, {0: drop_page_3})
    verifier = Verifier(vmem, mode=mode)
    verifier.run_pass()
    assert dropped == [0]
    assert verifier.stats.alarms == 0
    assert verifier.stats.pages_scanned == 3
    verifier.run_pass()
    assert verifier.stats.alarms == 0


def test_background_passes_survive_pages_dropped_concurrently():
    """Pages come and go on one thread while passes run on the verifier
    thread, with a short switch interval: no pass dies, none alarms."""
    vmem = make_vmem()
    fill(vmem)
    verifier = Verifier(vmem)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        verifier.start_background()
        for page in range(100, 400):
            vmem.register_page(page)
            vmem.alloc(make_addr(page, 0), b"short-lived")
            vmem.deregister_page(page)
        verifier.stop_background(timeout=30)  # re-raises what killed it
    finally:
        sys.setswitchinterval(interval)
    assert not verifier.background_alive()
    assert verifier.stats.passes_completed >= 1
    assert verifier.stats.alarms == 0


def test_aborted_pass_closes_its_epoch_and_raises_the_original_error():
    """A scan that raises still closes the epoch; the alarm the half-done
    pass causes is chained, not raised in place of the error."""
    from repro.errors import VerificationFailure

    def broken_hook(page_id):
        raise RuntimeError("scan hook bug")

    vmem = make_vmem()
    fill(vmem)
    on_page_listing(vmem, {0: broken_hook})
    verifier = Verifier(vmem)
    with pytest.raises(RuntimeError, match="scan hook bug") as caught:
        verifier.run_pass()
    assert isinstance(caught.value.__context__, VerificationFailure)
    assert vmem.epoch == 1  # not wedged mid-pass


def test_touched_mode_requires_page_digests():
    vmem = make_vmem(page_digests=False)
    with pytest.raises(ConfigurationError):
        Verifier(vmem, mode="touched")


def test_unknown_mode_rejected():
    with pytest.raises(ConfigurationError):
        Verifier(make_vmem(), mode="bogus")


def test_touched_mode_skips_cold_pages():
    vmem = make_vmem(pages=4, page_digests=True)
    fill(vmem, pages=4)
    verifier = Verifier(vmem, mode="touched")
    verifier.run_pass()  # all 4 touched by fill
    assert verifier.stats.pages_scanned == 4
    vmem.read(make_addr(1, 0))  # touch just one page
    verifier.run_pass()
    assert verifier.stats.pages_scanned == 5
    assert verifier.stats.pages_skipped_untouched >= 3


def test_touched_mode_detects_mutation_between_passes():
    from repro.errors import VerificationFailure

    vmem = make_vmem(pages=2, page_digests=True)
    fill(vmem, pages=2)
    verifier = Verifier(vmem, mode="touched")
    verifier.run_pass()
    addr = make_addr(0, 0)
    cell = vmem.memory.raw_read(addr)
    vmem.memory.raw_write(addr, b"tampered", cell.timestamp)
    vmem.read(make_addr(0, 64))  # touch the page through a legit op
    with pytest.raises(VerificationFailure):
        verifier.run_pass()
