"""Does the benchmark agree with itself?  Two sets of N runs, same code.

    python3 benchmarks/e2e/check_stability.py [--runs 5] [--seconds S]

Runs two sets of ``--runs`` end-to-end runs of the current tree,
alternating workloads (so a slow minute hits every workload, not one),
each run with another seed. Per metric x workload it prints both
medians, their relative difference in the metric's *worse* direction,
each set's quartile spread (Q3 - Q1 over the median, as
``statistics.quantiles(values, n=4)`` gives them) and PASS/FAIL against
the metric's bound in ``BENCHMARK.json``: the second median may not be
worse than the first by more than the bound, and — ``setup_s`` apart —
neither spread may exceed it. Exit code 1 on any FAIL.
"""

from __future__ import annotations

import argparse
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import run  # noqa: E402

FIRST_SEED = 100


def spread(values) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--runs", type=int, default=5, help="runs per set")
    parser.add_argument("--seconds", type=float, default=None)
    args = parser.parse_args(argv)

    spec = run.load_spec()
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    workloads = [entry["name"] for entry in spec["workloads"]]
    values: dict = {}  # (workload, metric) -> ([set 1], [set 2])
    failed_runs = 0
    for which in (0, 1):
        for index in range(args.runs):
            seed = FIRST_SEED + which * args.runs + index
            for workload in workloads:
                report = run.run_worker(workload, seed, seconds, trace=0)
                failed_runs += not report["correct"]
                for name, value in report["metrics"].items():
                    values.setdefault((workload, name), ([], []))[which].append(value)
                print(f"set {which + 1} run {index + 1} {workload} seed {seed}: "
                      + ", ".join(f"{k}={v:.4g}" for k, v in report["metrics"].items()),
                      file=sys.stderr)

    verdicts = []
    header = (f"{'workload/metric':40s} {'median 1':>12s} {'median 2':>12s} "
              f"{'worse by':>9s} {'spread 1':>9s} {'spread 2':>9s} {'bound':>6s}  verdict")
    print(header)
    for metric in spec["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        sign = 1.0 if metric["better"] == "lower" else -1.0
        for workload in workloads:
            first, second = values[(workload, name)]
            m1, m2 = statistics.median(first), statistics.median(second)
            worse_by = sign * (m2 - m1) / m1
            s1, s2 = spread(first), spread(second)
            ok = worse_by <= bound and (
                name == "setup_s" or max(s1, s2) <= bound
            )
            verdicts.append(ok)
            print(f"{workload + '/' + name:40s} {m1:12.4f} {m2:12.4f} "
                  f"{worse_by:+9.2%} {s1:9.2%} {s2:9.2%} {bound:6.0%}  "
                  f"{'PASS' if ok else 'FAIL'}")
    if failed_runs:
        print(f"{failed_runs} runs reported wrong answers")
    passed = all(verdicts) and not failed_runs
    print("STABLE" if passed else "UNSTABLE")
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
