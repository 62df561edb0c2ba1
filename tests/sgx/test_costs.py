"""Unit tests for the cycle-cost model."""

from repro.sgx.costs import CostModel, CostReport, CycleMeter


def test_defaults_match_paper():
    model = CostModel()
    assert model.ecall_cycles == 8000
    assert model.epc_swap_cycles == 40000


def test_charges_accumulate():
    meter = CycleMeter()
    meter.charge_ecall()
    meter.charge_epc_swaps(2)
    snap = meter.snapshot()
    assert snap["ecalls"] == 1
    assert snap["epc_swaps"] == 2
    assert snap["cycles"] == 8000 + 2 * 40000


def test_zero_swaps_is_noop():
    meter = CycleMeter()
    meter.charge_epc_swaps(0)
    assert meter.snapshot()["cycles"] == 0


def test_reset():
    meter = CycleMeter()
    meter.charge_ecall()
    meter.reset()
    assert meter.snapshot()["cycles"] == 0


def test_report_between_snapshots():
    meter = CycleMeter()
    before = meter.snapshot()
    meter.charge_ecall()
    meter.charge_ecall()
    report = CostReport.between(before, meter.snapshot())
    assert report.ecalls == 2
    assert report.cycles == 16000
