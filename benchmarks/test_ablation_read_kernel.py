"""Read-kernel ablation — how far above the PRF is a verified read?

Algorithm 1 costs two PRF evaluations per read; the paper puts the whole
verification overhead there (Section 6.1). Everything else a verified
read pays in this engine — locks, slot pointers, digest folding, hook
accounting — is interpreter constant, and the restamp kernel
(``VerifiedMemory.restamp``) exists to keep it small. This micro gates
that constant as a *ratio* to a bare loop doing the same two keyed
BLAKE2b evaluations per cell over the very same payloads, so the number
does not depend on the machine:

* **scan read** — ``HeapFile.read_many`` over TPC-H ``lineitem`` record
  ids in ``l_shipdate``-chain order (heap placement follows the primary
  key, so consecutive records sit on unrelated pages and partitions —
  the worst case for run batching), 256 per call: ≤ 3.0× the floor;
* **epoch pass** — ``Verifier.run_pass`` over the same table, per checked
  cell: ≤ 1.5×.

The input is fixed (``lineitem`` at scale factor 0.001, 6,000 records):
nothing here depends on ``REPRO_BENCH_SCALE`` or any other knob.

Run ``python benchmarks/test_ablation_read_kernel.py`` for the table.
"""

from _harness import timed, write_bench_json
from repro.core.config import VeriDBConfig
from repro.core.database import VeriDB
from repro.crypto.prf import CELL_PREFIX
from repro.workloads import tpch

CHUNK = 256
REPEATS = 15
#: rounds of ``REPEATS`` before a ratio over its limit is believed
MAX_ROUNDS = 3
LIMITS = {"scan_read": 3.0, "epoch_pass": 1.5}


def bare_prf_loop(prf, cells) -> None:
    """The floor: two keyed-BLAKE2b evaluations per ``(addr, data)``."""
    keyed, pack = prf.keyed, CELL_PREFIX.pack
    for stamp, (addr, data) in enumerate(cells):
        for timestamp in (stamp, stamp + 1):
            h = keyed()
            h.update(pack(addr, timestamp))
            h.update(data)
            h.digest()


def run_read_kernel(repeats: int = REPEATS, max_rounds: int = MAX_ROUNDS) -> dict:
    """Best-of wall time of both paths and of their floors, and the ratios.

    Path and floor alternate inside every repeat, so a slow spell of the
    machine cannot land on one side of a ratio only. Interference only
    ever adds time, so a best-of approaches the quiet value from above:
    when a ratio is over its limit after a round, up to ``max_rounds``
    rounds are run before the number stands.
    """
    db = VeriDB(VeriDBConfig(key_seed=0))
    db.create_table("lineitem", tpch.lineitem_schema())
    db.load_rows("lineitem", tpch.TPCHGenerator(0.001, seed=0).lineitems())
    table = db.table("lineitem")
    vmem, verifier = db.storage.vmem, db.storage.verifier
    shipdate = table.schema.chain_id("l_shipdate")
    rids = [rid for _key, rid in table.indexes[shipdate].items()]
    chunks = [rids[i : i + CHUNK] for i in range(0, len(rids), CHUNK)]

    def scan_read():
        return [table.heap.read_many(chunk, admit=False) for chunk in chunks]

    payloads = [payload for chunk in scan_read() for payload in chunk]
    scanned = list(enumerate(payloads))  # any address will do for the floor
    checked = [
        (addr, cell.data) for addr, cell in db.storage.memory.cells() if cell.checked
    ]
    fns = {
        "scan_read": scan_read,
        "scan_floor": lambda: bare_prf_loop(vmem.prf, scanned),
        "epoch_pass": verifier.run_pass,
        "pass_floor": lambda: bare_prf_loop(vmem.prf, checked),
    }
    best = dict.fromkeys(fns, float("inf"))
    reads_before = vmem.stats.verified_reads
    cells_before = verifier.stats.cells_scanned
    for rounds in range(1, max_rounds + 1):
        for _ in range(repeats):
            for name, fn in fns.items():
                best[name] = min(best[name], timed(fn)[1])
        ratio = {
            "scan_read": best["scan_read"] / best["scan_floor"],
            "epoch_pass": best["epoch_pass"] / best["pass_floor"],
        }
        if all(ratio[name] <= LIMITS[name] for name in LIMITS):
            break
    # the work timed is the work claimed: one verified read per record,
    # one re-stamp per checked cell, every repeat
    assert vmem.stats.verified_reads - reads_before == rounds * repeats * len(rids)
    assert verifier.stats.cells_scanned - cells_before == (
        rounds * repeats * len(checked)
    )
    return {
        "records": len(rids),
        "checked_cells": len(checked),
        "repeats": rounds * repeats,
        "best_seconds": best,
        "ratio": ratio,
    }


# ----------------------------------------------------------------------
# pytest surface (the CI perf-smoke gate)
# ----------------------------------------------------------------------
def test_verified_reads_stay_near_the_prf_floor():
    result = run_read_kernel()
    seconds, ratio = result["best_seconds"], result["ratio"]
    assert ratio["scan_read"] <= LIMITS["scan_read"], (
        f"HeapFile.read_many over {result['records']} lineitem records in "
        f"l_shipdate order: {seconds['scan_read'] * 1e3:.1f} ms against "
        f"{seconds['scan_floor'] * 1e3:.1f} ms for their PRF evaluations alone "
        f"({ratio['scan_read']:.2f}x > {LIMITS['scan_read']}x)"
    )
    assert ratio["epoch_pass"] <= LIMITS["epoch_pass"], (
        f"Verifier.run_pass over {result['checked_cells']} checked cells: "
        f"{seconds['epoch_pass'] * 1e3:.1f} ms against "
        f"{seconds['pass_floor'] * 1e3:.1f} ms for their PRF evaluations alone "
        f"({ratio['epoch_pass']:.2f}x > {LIMITS['epoch_pass']}x)"
    )


# ----------------------------------------------------------------------
# direct run: the ablation table
# ----------------------------------------------------------------------
def main():
    result = run_read_kernel()
    seconds, ratio = result["best_seconds"], result["ratio"]
    print(
        f"\nRead-kernel ablation: {result['records']} lineitem records in "
        f"l_shipdate order, {result['checked_cells']} checked cells "
        f"(us per cell, best-of-{result['repeats']})"
    )
    header = f"{'path':<34}{'cost':>8}{'2x PRF floor':>14}{'ratio':>8}{'limit':>8}"
    print(header)
    print("-" * len(header))
    for name, floor, label, cells in (
        ("scan_read", "scan_floor", f"HeapFile.read_many, {CHUNK} per call", "records"),
        ("epoch_pass", "pass_floor", "Verifier.run_pass", "checked_cells"),
    ):
        per_cell = 1e6 / result[cells]
        print(
            f"{label:<34}{seconds[name] * per_cell:>8.2f}"
            f"{seconds[floor] * per_cell:>14.2f}"
            f"{ratio[name]:>7.2f}x{LIMITS[name]:>7.1f}x"
        )
    write_bench_json("ablation_read_kernel", result)


if __name__ == "__main__":
    main()
