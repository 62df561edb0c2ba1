"""Smoke test of the benchmark itself (not part of the tier-1 suite).

    python3 -m pytest benchmarks/e2e/test_selfcheck.py -q

Two rounds per workload: every metric ``BENCHMARK.json`` names is
emitted (with the unit the file states), the program's counts repeat
exactly for a seed, the trace covers the time the driver measured,
another seed changes the inputs but not the scale of the counts, and the
tracing wrappers leave nothing patched behind.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parents[1] / "src"))
import run  # noqa: E402
import tracing  # noqa: E402

SPEC = run.load_spec()
WORKLOADS = [entry["name"] for entry in SPEC["workloads"]]
ROUNDS = 2

#: counts that must repeat exactly across runs of one seed
EXACT_COUNTS = (
    "sgx.cycles_per_op",
    "sgx.ecalls_per_op",
    "memory.verified_reads_per_op",
    "memory.verified_writes_per_op",
    "wal.bytes_per_op",
    "crypto.prf_calls_per_op",
    "storage.codec_calls_per_op",
)
#: two client threads interleave differently from run to run
TWO_THREADS = {"service_zipf"}


def worker(workload, seed, trace):
    return run.run_worker(workload, seed, seconds=1, trace=trace, rounds=ROUNDS)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_are_emitted(workload):
    report = worker(workload, seed=11, trace=0)
    assert report["correct"], report["failures"]
    assert report["failed"] == 0 and report["attempted"] >= 1
    line = json.loads(run.contract_line(report, SPEC))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert set(line["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    for metric in SPEC["end_to_end"]:
        emitted = line["metrics"][metric["name"]]
        assert emitted["unit"] == metric["unit"]
        assert emitted["value"] > 0, metric["name"]
    assert report["samples"]["rounds"] == ROUNDS
    assert report["protocol"]["pythonhashseed"] == "0"


@pytest.mark.parametrize("workload", WORKLOADS)
def test_layer_metrics_counts_and_coverage(workload):
    first = worker(workload, seed=11, trace=1)
    again = worker(workload, seed=11, trace=1)
    other = worker(workload, seed=12, trace=1)
    for report in (first, again, other):
        assert report["correct"], report["failures"]
        line = json.loads(run.contract_line(report, SPEC))
        assert set(line["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
        for metric in SPEC["per_layer"]:
            assert line["metrics"][metric["name"]]["unit"] == metric["unit"]
        assert report["metrics"]["trace.coverage"] >= 0.95
        assert report["metrics"]["trace.coverage"] <= 1.0 + 1e-9

    # the same seed gives the same inputs and the same amount of work
    assert first["inputs_digest"] == again["inputs_digest"]
    assert first["attempted"] == again["attempted"]
    for name in EXACT_COUNTS:
        a, b = first["metrics"][name], again["metrics"][name]
        if workload in TWO_THREADS:
            assert a == pytest.approx(b, rel=0.05, abs=0.05), name
        else:
            assert a == b, name

    # another seed gives other inputs but work of the same scale
    assert other["inputs_digest"] != first["inputs_digest"]
    for name in EXACT_COUNTS:
        a, b = first["metrics"][name], other["metrics"][name]
        if a == 0:
            assert b == 0, name
        else:
            assert 0.5 < b / a < 2.0, name


def test_wrappers_leave_nothing_patched():
    assert tracing.patched_targets() == []
    recorder = tracing.Recorder()
    with tracing.installed(recorder):
        patched = tracing.patched_targets()
        assert len(patched) == sum(len(t[3]) for t in tracing.TARGETS)
        # module-level functions are patched wherever they were imported
        from repro.shard import transport

        assert getattr(transport.seal_request, "__e2e_traced__", False)
    assert tracing.patched_targets() == []
    assert not getattr(transport.seal_request, "__e2e_traced__", False)
    with pytest.raises(ZeroDivisionError):
        with tracing.installed(recorder):
            1 / 0
    assert tracing.patched_targets() == []
