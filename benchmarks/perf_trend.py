"""CI perf-trend gate: fail on latency regressions vs committed baselines.

Usage::

    python benchmarks/perf_trend.py [BENCH_*.json ...]

With no arguments, every ``BENCH_*.json`` in the bench-artifact
directory (``REPRO_BENCH_DIR``, default ``.bench/`` — the output of a
fresh run of the five figure mains) is checked against its committed
counterpart in ``benchmarks/baselines/``. A latency-like metric
(``*_s``, ``*_us``, ``*_seconds``, or a per-kind mean from a
:class:`LatencyRecorder`) that grew by more than 25% fails the run with
exit code 1.

Guard rails against false alarms:

* a run and its baseline must be at the same ``REPRO_BENCH_SCALE`` —
  mismatched scales are reported and skipped, never compared;
* baselines below the noise floor (1 ms for seconds-valued metrics,
  50 µs for microsecond-valued ones) are ignored: at those magnitudes
  interpreter jitter dwarfs any real trend;
* benchmarks without a committed baseline are reported as uncovered,
  not failed — commit a baseline (copy the fresh ``BENCH_*.json`` into
  ``benchmarks/baselines/``) to extend coverage.
"""

from __future__ import annotations

import glob
import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from _harness import (  # noqa: E402
    THRESHOLD,
    bench_dir,
    compare_with_baseline,
    load_baseline,
)


def check_document(path: str) -> tuple[str, list[dict]]:
    """Return (status-line, regressions) for one fresh BENCH document."""
    with open(path) as fh:
        doc = json.load(fh)
    name = doc.get("benchmark") or os.path.basename(path)[len("BENCH_"):-len(".json")]
    baseline = load_baseline(name)
    if baseline is None:
        return f"SKIP  {name}: no committed baseline", []
    if doc.get("scale") != baseline.get("scale"):
        return (
            f"SKIP  {name}: scale mismatch "
            f"(run={doc.get('scale')}, baseline={baseline.get('scale')})",
            [],
        )
    regressions, comparisons = compare_with_baseline(doc, baseline)
    if not comparisons:
        return f"SKIP  {name}: no comparable latency metrics", []
    if regressions:
        return (
            f"FAIL  {name}: {len(regressions)}/{len(comparisons)} latency "
            f"metrics regressed more than {THRESHOLD:.0%}",
            regressions,
        )
    worst = max(comparisons, key=lambda row: row["delta"])
    return (
        f"OK    {name}: {len(comparisons)} metrics within {THRESHOLD:.0%} "
        f"(worst {worst['metric']} {worst['delta']:+.1%})",
        [],
    )


def main(argv: list[str]) -> int:
    paths = argv or sorted(glob.glob(os.path.join(bench_dir(), "BENCH_*.json")))
    if not paths:
        print("perf-trend: no BENCH_*.json documents to check")
        return 0
    print(f"perf-trend: threshold +{THRESHOLD:.0%}\n")
    failed = False
    for path in paths:
        line, regressions = check_document(path)
        print(line)
        for row in regressions:
            print(
                f"        {row['metric']}: {row['baseline']:.4g} -> "
                f"{row['current']:.4g} ({row['delta']:+.1%})"
            )
        failed = failed or bool(regressions)
    print()
    if failed:
        print("perf-trend: FAILED — latency regressed beyond the threshold")
        return 1
    print("perf-trend: passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
