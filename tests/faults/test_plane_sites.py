"""Every injection site fires, and every firing is handled as designed.

For each named site in :mod:`repro.faults.sites` there is one test that
arms only that site, triggers it deterministically (rate 1.0, bounded
firings) and asserts the documented handling: clean typed abort and safe
retry for the transient sites, detection by verification or
authentication for the corruption sites.
"""

import pytest

from repro.core.database import VeriDB
from repro.core.config import VeriDBConfig
from repro.crypto.prf import PRF
from repro.errors import (
    IntegrityError,
    PermanentFault,
    TransientFault,
    VerificationFailure,
)
from repro.faults import (
    NULL_FAULT_PLANE,
    ChaosPlane,
    ChaosSchedule,
    default_fault_plane,
    scoped_fault_plane,
    sites,
)
from repro.memory.cells import make_addr
from repro.memory.untrusted import UntrustedMemory
from repro.memory.verified import VerifiedMemory
from repro.memory.verifier import Verifier
from repro.obs import MetricsRegistry, scoped_registry
from repro.sgx.enclave import Enclave
from repro.sgx.epc import EnclavePageCache


def plane_for(*site_names, rate=1.0, limit=1, permanent=(), seed=99):
    return ChaosPlane(
        ChaosSchedule(
            seed=seed,
            rates={s: rate for s in site_names},
            permanent=permanent,
            limit_per_site=limit,
        )
    )


# ----------------------------------------------------------------------
# the plane itself
# ----------------------------------------------------------------------
def test_null_plane_is_default_and_inert():
    assert default_fault_plane() is NULL_FAULT_PLANE
    assert not NULL_FAULT_PLANE.enabled
    NULL_FAULT_PLANE.check("any.site")
    assert NULL_FAULT_PLANE.mangle("any.site", b"abc") == b"abc"
    assert NULL_FAULT_PLANE.drop_one("any.site", [1, 2]) == [1, 2]
    assert NULL_FAULT_PLANE.log == ()
    assert NULL_FAULT_PLANE.fired_count() == 0


def test_scoped_plane_installs_and_restores():
    plane = plane_for("s")
    with scoped_fault_plane(plane) as installed:
        assert installed is plane
        assert default_fault_plane() is plane
    assert default_fault_plane() is NULL_FAULT_PLANE


def test_disarmed_checks_neither_count_nor_fire():
    plane = plane_for("s", limit=None)
    plane.disarm()
    for _ in range(5):
        plane.check("s")
    assert plane.checks_seen("s") == 0
    assert plane.fired_count("s") == 0
    plane.arm()
    with pytest.raises(TransientFault):
        plane.check("s")
    assert plane.checks_seen("s") == 1


def test_fault_log_records_site_ordinal_action():
    plane = plane_for("a", "b", limit=None)
    with pytest.raises(TransientFault):
        plane.check("a")
    assert plane.mangle("b", b"xyz") != b"xyz"
    log = plane.log
    assert [(r.site, r.action) for r in log] == [("a", "raise"), ("b", "mangle")]
    assert plane.fired_count() == 2
    assert plane.fired_count("a") == 1


def test_fault_counters_export_through_obs():
    with scoped_registry(MetricsRegistry()) as reg:
        plane = ChaosPlane(ChaosSchedule(seed=1, rates={"layer.x": 1.0}))
        with pytest.raises(TransientFault):
            plane.check("layer.x")
        snap = reg.snapshot()
        assert snap["faults.injected"]["value"] == 1
        assert snap["faults.layer.x"]["value"] == 1


def test_permanent_site_raises_permanent_fault():
    plane = plane_for("s", permanent=("s",))
    with pytest.raises(PermanentFault):
        plane.check("s")


def test_mangle_flips_exactly_one_byte():
    plane = plane_for("m", limit=None)
    data = bytes(range(16))
    mangled = plane.mangle("m", data)
    assert len(mangled) == len(data)
    assert sum(a != b for a, b in zip(mangled, data)) == 1


def test_drop_one_removes_exactly_one_element():
    plane = plane_for("d", limit=None)
    items = list(range(10))
    dropped = plane.drop_one("d", items)
    assert len(dropped) == 9
    assert set(dropped) < set(items)
    assert items == list(range(10))  # input untouched


# ----------------------------------------------------------------------
# SGX-layer sites
# ----------------------------------------------------------------------
def test_ecall_abort_fires_then_identical_retry_succeeds():
    plane = plane_for(sites.ECALL_ABORT)
    enclave = Enclave(faults=plane)
    enclave.register_ecall("echo", lambda x: x)
    with pytest.raises(TransientFault):
        enclave.ecall("echo", 1)
    assert enclave.ecall("echo", 1) == 1
    assert plane.fired_count(sites.ECALL_ABORT) == 1


def test_epc_swap_error_leaves_accounting_unchanged():
    plane = plane_for(sites.EPC_SWAP_ERROR)
    epc = EnclavePageCache(capacity_bytes=1024, faults=plane)
    epc.allocate("a", 800)
    epc.allocate("b", 800)  # evicts "a"
    assert epc.swapped_bytes == 800
    with pytest.raises(TransientFault):
        epc.touch("a")  # swap-in fails
    assert epc.swapped_bytes == 800  # nothing moved on the failed swap
    epc.touch("a")  # retry succeeds
    assert epc.swapped_bytes == 800  # now "b" is the swapped one
    assert epc.resident_bytes == 800


def test_seal_corruption_detected_at_unseal():
    plane = plane_for(sites.SEAL_CORRUPTION)
    enclave = Enclave(faults=plane)
    blob = enclave.seal(b"enclave state")
    with pytest.raises(IntegrityError):
        enclave.unseal(blob)  # never silently decrypts garbage
    assert enclave.unseal(enclave.seal(b"enclave state")) == b"enclave state"


# ----------------------------------------------------------------------
# memory-layer sites
# ----------------------------------------------------------------------
def make_vmem(plane, **kwargs):
    memory = UntrustedMemory(faults=plane)
    vmem = VerifiedMemory(memory=memory, prf=PRF(b"f" * 32), **kwargs)
    vmem.register_page(0)
    for i in range(4):
        vmem.alloc(make_addr(0, i * 64), f"cell-{i}".encode())
    return vmem


def test_transient_read_error_absorbed_by_verified_layer():
    with scoped_registry(MetricsRegistry()) as reg:
        plane = plane_for(sites.TRANSIENT_READ_ERROR)
        plane.disarm()
        vmem = make_vmem(plane)
        plane.arm()
        assert vmem.read(make_addr(0, 0)) == b"cell-0"  # retried in place
        snap = reg.snapshot()
        assert snap["memory.transient_read_retries"]["value"] == 1
        assert plane.fired_count(sites.TRANSIENT_READ_ERROR) == 1


def test_transient_read_errors_exhaust_to_typed_fault():
    plane = plane_for(sites.TRANSIENT_READ_ERROR, limit=None)
    plane.disarm()
    vmem = make_vmem(plane)
    plane.arm()
    # rate 1.0 unbounded: all three in-place attempts fail
    with pytest.raises(TransientFault):
        vmem.read(make_addr(0, 0))


def test_torn_write_detected_by_next_pass():
    plane = plane_for(sites.TORN_WRITE)
    plane.disarm()
    vmem = make_vmem(plane)
    verifier = Verifier(vmem)
    verifier.run_pass()
    plane.arm()
    vmem.write(make_addr(0, 1 * 64), b"new value")  # the store tears
    plane.disarm()
    with pytest.raises(VerificationFailure):
        verifier.run_pass()
    assert plane.fired_count(sites.TORN_WRITE) == 1


def test_directory_drop_alarms_at_epoch_close():
    plane = plane_for(sites.DIRECTORY_DROP)
    plane.disarm()
    vmem = make_vmem(plane)
    verifier = Verifier(vmem)
    verifier.run_pass()
    plane.arm()
    with pytest.raises(VerificationFailure):
        verifier.run_pass()  # the scan's directory listing omits a cell


# ----------------------------------------------------------------------
# verifier-layer sites
# ----------------------------------------------------------------------
def test_verifier_crash_before_end_pass_keeps_epoch():
    plane = plane_for(sites.VERIFIER_CRASH_BEFORE_END_PASS)
    plane.disarm()
    vmem = make_vmem(plane)
    verifier = Verifier(vmem, faults=plane)
    plane.arm()
    epoch_before = vmem.epoch
    with pytest.raises(TransientFault):
        verifier.run_pass()
    assert vmem.epoch == epoch_before  # the epoch never advanced


def test_verifier_crash_after_end_pass_completes_the_pass():
    plane = plane_for(sites.VERIFIER_CRASH_AFTER_END_PASS)
    plane.disarm()
    vmem = make_vmem(plane)
    verifier = Verifier(vmem, faults=plane)
    plane.arm()
    epoch_before = vmem.epoch
    with pytest.raises(TransientFault):
        verifier.run_pass()
    plane.disarm()
    assert vmem.epoch == epoch_before + 1  # pass completed before the crash
    verifier.run_pass()  # and the next pass is clean


def test_crash_after_end_pass_never_masks_an_alarm():
    # With tampering in place, the alarm must win over the crash site:
    # the site is placed after the consistency check, so a pass that
    # should alarm still alarms even when the crash is scheduled.
    plane = plane_for(sites.VERIFIER_CRASH_AFTER_END_PASS, limit=None)
    plane.disarm()
    vmem = make_vmem(plane)
    verifier = Verifier(vmem, faults=plane)
    verifier.run_pass()
    addr = make_addr(0, 0)
    cell = vmem.memory.raw_read(addr)
    vmem.memory.raw_write(addr, b"tampered!", cell.timestamp)
    plane.arm()
    with pytest.raises(VerificationFailure):
        verifier.run_pass()


# ----------------------------------------------------------------------
# storage-layer sites
# ----------------------------------------------------------------------
def _chaos_db(plane):
    with scoped_fault_plane(plane):
        db = VeriDB(VeriDBConfig(key_seed=7))
        db.sql("CREATE TABLE t (id INTEGER PRIMARY KEY, v INTEGER)")
        for i in range(8):
            db.sql(f"INSERT INTO t VALUES ({i}, {i * 10})")
    return db


def test_splice_interruption_aborts_cleanly_and_retry_succeeds():
    plane = plane_for(sites.SPLICE_INTERRUPTION)
    plane.disarm()
    db = _chaos_db(plane)
    plane.arm()
    with pytest.raises(TransientFault):
        db.sql("INSERT INTO t VALUES (100, 1000)")
    # no partial splice: the statement retries cleanly and the chain holds
    db.sql("INSERT INTO t VALUES (100, 1000)")
    plane.disarm()
    rows = db.sql("SELECT id FROM t ORDER BY id").rows
    assert [r[0] for r in rows] == [0, 1, 2, 3, 4, 5, 6, 7, 100]
    db.verify_now()


def test_cache_evict_storm_flushes_and_never_surfaces():
    from repro.memory.cache import RecordCache
    from repro.storage.config import StorageConfig

    plane = plane_for(sites.CACHE_EVICT_STORM)
    plane.disarm()
    registry = MetricsRegistry()
    cache = RecordCache(64 * 1024, registry=registry, faults=plane)
    cache.admit(1, b"warm")
    cache.admit(2, b"warm")
    assert cache.lookup(1) == b"warm"
    plane.arm()
    # the firing is absorbed in place: the whole cache is invalidated,
    # the admit itself still lands, and nothing propagates to the caller
    cache.admit(3, b"new")
    plane.disarm()
    assert cache.lookup(1) is None
    assert cache.lookup(2) is None
    assert cache.lookup(3) == b"new"
    assert plane.fired_count() == 1
    snap = registry.snapshot()
    assert snap["memory.cache_invalidations"]["value"] >= 2


def test_cache_evict_storm_end_to_end_correctness():
    """A storm mid-workload costs latency only: results and the epoch
    close are untouched."""
    from repro.storage.config import StorageConfig

    plane = plane_for(sites.CACHE_EVICT_STORM, limit=3)
    plane.disarm()
    with scoped_fault_plane(plane):
        db = VeriDB(
            VeriDBConfig(
                key_seed=7, storage=StorageConfig(cache_bytes=1 << 20)
            )
        )
        db.sql("CREATE TABLE t (id INTEGER PRIMARY KEY, v INTEGER)")
        for i in range(20):
            db.sql(f"INSERT INTO t VALUES ({i}, {i * 10})")
    # cold start: the insert phase warmed the cache through the
    # predecessor searches, and warm hits never reach the admit site
    db.storage.cache.flush()
    plane.arm()
    for i in range(20):
        rows = db.sql(f"SELECT v FROM t WHERE id = {i}").rows
        assert rows == [(i * 10,)]
    plane.disarm()
    assert plane.fired_count() == 3
    db.verify_now()
