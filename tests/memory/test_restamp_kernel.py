"""The restamp kernel ≡ Algorithm 1 cell by cell.

``VerifiedMemory.restamp`` folds a run's digests as two local integers
and is shared by ``read``, ``read_many`` and the epoch scan. The
reference kept *here* is the procedure spelled out one cell at a time —
``PRF.cell``, ``record_read`` / ``record_write``, one stamp, one hook per
operation — and twin memories driven through the two must end up
indistinguishable: same bytes returned, same accumulators, same stamps in
untrusted memory, same counters. Faults and tampering in the middle of a
batch must leave the digests matching the stamps actually written.
"""

import dataclasses
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.prf import PRF
from repro.errors import TransientFault, VerificationFailure
from repro.faults import ChaosPlane, ChaosSchedule, sites
from repro.memory.adversary import Adversary
from repro.memory.cache import RecordCache
from repro.memory.cells import make_addr, page_of
from repro.memory.rsws import RSWSGroup
from repro.memory.untrusted import UntrustedMemory
from repro.memory.verified import VerifiedMemory
from repro.memory.verifier import Verifier
from repro.obs import MetricsRegistry

KEY = b"restamp-kernel-test-key-32-bytes"


def build(layout, n_partitions=3, page_digests=False, cached=False, plane=None):
    """A memory holding ``layout`` = [(page, n_cells)]: per page, that
    many checked cells plus one metadata cell outside verification."""
    registry = MetricsRegistry()
    vmem = VerifiedMemory(
        memory=UntrustedMemory(faults=plane),
        prf=PRF(KEY),
        rsws=RSWSGroup(n_partitions=n_partitions),
        page_digests=page_digests,
        registry=registry,
    )
    if cached:
        vmem.cache = RecordCache(1 << 16)
    fired = []
    vmem.add_op_hook(lambda: fired.append(1))
    addrs = []
    for page, n_cells in layout:
        vmem.register_page(page)
        vmem.alloc_unverified(make_addr(page, 3), b"meta")
        for i in range(n_cells):
            addr = make_addr(page, 70_000 + 40 * i)
            vmem.alloc(addr, f"cell-{page}-{i}".encode() * (1 + i % 3))
            addrs.append(addr)
    return vmem, addrs, fired, registry


def state(vmem, fired, registry):
    """Everything the two drivers must agree on."""
    return {
        "accumulators": [(list(p.rs), list(p.ws)) for p in vmem.rsws.partitions],
        "rsws_stats": [dataclasses.astuple(p.stats) for p in vmem.rsws.partitions],
        "cells": {
            addr: (cell.data, cell.timestamp, cell.checked)
            for addr, cell in vmem.memory.cells()
        },
        "prf_calls": vmem.prf.calls,
        "memory_stats": dataclasses.astuple(vmem.stats),
        "touched": vmem.touched_pages() if vmem.page_digests_enabled else None,
        "page_digests": None if vmem._page_digest is None else dict(vmem._page_digest),
        "hooks": len(fired),
        "retries": registry.counter("memory.transient_read_retries").value,
        "cached": None if vmem.cache is None else vmem.cache.lookup_many(
            sorted(addr for addr, _ in vmem.memory.cells())
        ),
        "epoch": vmem.epoch,
    }


# ----------------------------------------------------------------------
# the reference: Algorithm 1 / Algorithm 2, one cell at a time
# ----------------------------------------------------------------------
def ref_fetch(vmem, addr):
    for attempt in (1, 2, 3):
        try:
            return vmem.memory.try_read(addr)
        except TransientFault:
            if attempt == 3:
                raise
            vmem._ctr_read_retries.inc()


def ref_restamp(vmem, partition, addr, cell, rs_parity, ws_parity):
    consumed = vmem.prf.cell(addr, cell.data, cell.timestamp)
    partition.record_read(rs_parity, consumed)
    stamp = next(vmem._clock)
    opened = vmem.prf.cell(addr, cell.data, stamp)
    partition.record_write(ws_parity, opened)
    cell.timestamp = stamp
    if vmem.page_digests_enabled:
        vmem._page_digest[page_of(addr)] ^= int.from_bytes(
            consumed, "little"
        ) ^ int.from_bytes(opened, "little")


def ref_read(vmem, addr, admit=True):
    page = page_of(addr)
    partition = vmem.rsws.partition_for_page(page)
    with partition.lock:
        cell = ref_fetch(vmem, addr)
        if cell is None:
            raise VerificationFailure("vanished", partition=partition.index)
        parity = vmem._parity_of(page)
        ref_restamp(vmem, partition, addr, cell, parity, parity)
        if vmem.page_digests_enabled:
            vmem._touched.add(page)
        if admit and vmem.cache is not None:
            vmem.cache.admit(addr, cell.data)
    vmem.stats.verified_reads += 1
    vmem._fire_hooks()
    return cell.data


def ref_read_many(vmem, addrs, admit=True):
    if vmem.cache is None:
        return [ref_read(vmem, addr) for addr in addrs]
    out = vmem.cache.lookup_many(addrs)
    for i, addr in enumerate(addrs):
        if out[i] is None:
            out[i] = ref_read(vmem, addr, admit)
    return out


def ref_scan_page(vmem, page):
    partition = vmem.rsws.partition_for_page(page)
    with partition.lock:
        old = vmem.flip_parity(page)
        for addr in vmem.memory.page_addresses(page):
            cell = ref_fetch(vmem, addr)
            if cell is not None and cell.checked:
                ref_restamp(vmem, partition, addr, cell, old, old ^ 1)


def ref_close_epoch(vmem):
    old = vmem.epoch & 1
    bad = [p.index for p in vmem.rsws.partitions if not p.consistent(old)]
    for partition in vmem.rsws.partitions:
        partition.reset_generation(old)
    vmem.end_pass()
    if vmem.cache is not None:
        vmem.cache.flush()
    assert not bad, f"reference run alarmed in partitions {bad}"


def drive_reference(vmem, addrs, stepped, batches, admit):
    """A pass opens and scans ``stepped`` pages (none: no pass opens);
    the batches are read; the open pass completes; a full pass runs."""
    pages = vmem.registered_pages()
    pending = pages[::-1]  # a pass scans pages in ascending order
    if stepped:
        vmem.begin_pass()
    for _ in range(stepped):
        ref_scan_page(vmem, pending.pop())
    returned = [
        ref_read_many(vmem, [addrs[i] for i in batch], admit) for batch in batches
    ]
    if stepped:
        while pending:
            ref_scan_page(vmem, pending.pop())
        ref_close_epoch(vmem)
    vmem.begin_pass()
    for page in pages:
        ref_scan_page(vmem, page)
    ref_close_epoch(vmem)
    return returned


def drive_kernel(vmem, addrs, stepped, batches, admit):
    verifier = Verifier(vmem, registry=MetricsRegistry())
    for _ in range(stepped):
        assert verifier.step() is False
    returned = []
    for batch in batches:
        wanted = [addrs[i] for i in batch]
        if len(wanted) == 1 and admit:
            returned.append([vmem.read(wanted[0])])
        else:
            returned.append(vmem.read_many(wanted, admit=admit))
    verifier.run_pass()  # completes the open pass, then runs a fresh one
    assert verifier.stats.alarms == 0
    return returned


@st.composite
def scenarios(draw):
    pages = draw(st.lists(st.integers(0, 40), min_size=2, max_size=6, unique=True))
    layout = [(page, draw(st.integers(1, 5))) for page in pages]
    n_cells = sum(n for _, n in layout)
    batches = draw(
        st.lists(
            st.lists(st.integers(0, n_cells - 1), min_size=1, max_size=12),
            min_size=1,
            max_size=5,
        )
    )
    return {
        "layout": layout,
        "n_partitions": draw(st.sampled_from([1, 3, 16])),
        "page_digests": draw(st.booleans()),
        "cached": draw(st.booleans()),
        "admit": draw(st.booleans()),
        # pages already re-stamped into the next epoch when the reads run
        "stepped": draw(st.integers(0, len(pages) - 1)),
        "batches": batches,
    }


@settings(max_examples=150)
@given(scenario=scenarios())
def test_kernel_matches_the_per_cell_reference(scenario):
    config = {
        key: scenario[key] for key in ("n_partitions", "page_digests", "cached")
    }
    drive = (scenario["stepped"], scenario["batches"], scenario["admit"])
    ref_vmem, addrs, ref_fired, ref_registry = build(scenario["layout"], **config)
    expected = drive_reference(ref_vmem, addrs, *drive)
    vmem, addrs, fired, registry = build(scenario["layout"], **config)
    assert drive_kernel(vmem, addrs, *drive) == expected
    assert state(vmem, fired, registry) == state(ref_vmem, ref_fired, ref_registry)
    # one hook per verified operation, neither more nor fewer
    stats = vmem.stats
    assert len(fired) == (
        stats.verified_reads + stats.verified_writes + stats.allocs + stats.frees
    )


# ----------------------------------------------------------------------
# transient host-read faults
# ----------------------------------------------------------------------
LAYOUT = [(2, 4), (5, 4), (9, 4), (12, 4)]


def shuffled_batch(addrs, seed=3):
    batch = list(range(len(addrs)))
    random.Random(seed).shuffle(batch)
    return batch


def test_seeded_transient_read_faults_retry_like_the_reference():
    """Same schedule, same checks consumed, same retries, same digests."""
    drive = (2, [shuffled_batch(range(16)), [4], shuffled_batch(range(16), 8)], True)

    def plane():
        return ChaosPlane(
            ChaosSchedule(seed=11, rates={sites.TRANSIENT_READ_ERROR: 0.12}),
            registry=MetricsRegistry(),
        )

    ref_plane, kernel_plane = plane(), plane()
    ref_vmem, addrs, ref_fired, ref_registry = build(LAYOUT, plane=ref_plane)
    expected = drive_reference(ref_vmem, addrs, *drive)
    vmem, addrs, fired, registry = build(LAYOUT, plane=kernel_plane)
    assert drive_kernel(vmem, addrs, *drive) == expected
    assert kernel_plane.log == ref_plane.log
    assert kernel_plane.checks_seen(sites.TRANSIENT_READ_ERROR) == ref_plane.checks_seen(
        sites.TRANSIENT_READ_ERROR
    )
    observed = state(vmem, fired, registry)
    assert observed == state(ref_vmem, ref_fired, ref_registry)
    assert observed["retries"] == kernel_plane.fired_count() > 0


def test_exhausted_retries_mid_run_leave_digests_matching_the_stamps():
    """A fault that outlives its retries in the middle of a batch is an
    honest, retriable error: the cells before it were re-stamped and
    their digests folded, so the next epoch closes clean."""
    plane = ChaosPlane(
        ChaosSchedule(seed=0, rates={sites.TRANSIENT_READ_ERROR: 1.0}),
        registry=MetricsRegistry(),
    )
    plane.disarm()
    vmem, addrs, fired, _registry = build(LAYOUT, plane=plane)
    batch = [addrs[i] for i in shuffled_batch(addrs)]
    before = {addr: vmem.memory.raw_read(addr).timestamp for addr in addrs}

    class ArmsAtSeventhCell(list):
        """Arms the plane once the kernel has taken six cells of the batch."""

        def __iter__(self):
            for i, addr in enumerate(list.__iter__(self)):
                if i == 6:
                    plane.arm()
                yield addr

    with pytest.raises(TransientFault):
        vmem.read_many(ArmsAtSeventhCell(batch))
    plane.disarm()
    restamped = [a for a in addrs if vmem.memory.raw_read(a).timestamp != before[a]]
    assert sorted(restamped) == sorted(batch[:6])
    assert vmem.prf.calls == 16 + 2 * 6  # the allocs, then two per cell read
    assert len(fired) == vmem.stats.allocs + vmem.stats.verified_reads
    verifier = Verifier(vmem)
    verifier.run_pass()
    assert vmem.read_many(batch) == [vmem.memory.raw_read(a).data for a in batch]
    verifier.run_pass()
    assert verifier.stats.alarms == 0


# ----------------------------------------------------------------------
# tampering in the middle of a batch
# ----------------------------------------------------------------------
def _erase(adversary, addr, cell):
    adversary.erase(addr)


def _flip_data(adversary, addr, cell):
    adversary.corrupt(addr, bytes([cell.data[0] ^ 0x40]) + cell.data[1:])


def _roll_back_stamp(adversary, addr, cell):
    adversary.corrupt_timestamp(addr, cell.timestamp - 1)


@pytest.mark.parametrize("tamper", [_erase, _flip_data, _roll_back_stamp])
@pytest.mark.parametrize("n_partitions", [1, 3, 16])
def test_tampering_mid_batch_alarms_and_never_lies_silently(tamper, n_partitions):
    vmem, addrs, _fired, _registry = build(LAYOUT, n_partitions=n_partitions)
    verifier = Verifier(vmem)
    verifier.run_pass()
    batch = [addrs[i] for i in shuffled_batch(addrs)]
    honest = {addr: vmem.memory.raw_read(addr).data for addr in addrs}
    victim = batch[len(batch) // 2]
    cell = vmem.memory.raw_read(victim)
    tamper(Adversary(vmem.memory), victim, cell)
    try:
        got = vmem.read_many(batch)
    except VerificationFailure:
        return  # alarmed at once
    # every other answer is the honest one, and the lie does not survive
    # the epoch close
    assert [g for a, g in zip(batch, got) if a != victim] == [
        honest[a] for a in batch if a != victim
    ]
    with pytest.raises(VerificationFailure):
        verifier.run_pass()


@pytest.mark.parametrize("n_partitions", [1, 3, 16])
def test_alarm_mid_run_keeps_digests_for_the_stamps_written(n_partitions):
    """Restore the vanished cell after the alarm and the epoch closes
    clean: the cells read before it were folded, not dropped."""
    vmem, addrs, _fired, _registry = build(LAYOUT, n_partitions=n_partitions)
    batch = [addrs[i] for i in shuffled_batch(addrs)]
    victim = batch[len(batch) // 2]
    stolen = Adversary(vmem.memory).erase(victim)
    with pytest.raises(VerificationFailure):
        vmem.read_many(batch)
    vmem.memory.raw_write(victim, stolen.data, stolen.timestamp)
    verifier = Verifier(vmem)
    verifier.run_pass()
    verifier.run_pass()
    assert verifier.stats.alarms == 0
