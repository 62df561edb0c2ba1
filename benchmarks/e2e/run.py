"""The repo benchmark: four end-to-end workloads, one command.

    python3 benchmarks/e2e/run.py                      # all four, end to end
    python3 benchmarks/e2e/run.py --trace              # + the per-layer tables
    python3 benchmarks/e2e/run.py --workload oltp_durable --seed 7 \\
        --seconds 20 --trace 0                         # one run, JSON last line

Each workload run is a fresh ``worker.py`` subprocess (``PYTHONHASHSEED=0``,
pinned to one CPU). Every metric is printed by name with its unit, with
sample counts and attempted/failed operations; a wrong answer, a failed
durability check or a ``VerificationFailure`` fails the command. With
``--workload`` the last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}`` holding the
``end_to_end`` metrics of ``BENCHMARK.json`` (``--trace 0``) or its
``per_layer`` metrics (``--trace 1``). See README.md for the protocol.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC = ROOT / "BENCHMARK.json"

#: a worker that has not answered by then is killed (contract: 180 s)
WORKER_TIMEOUT_S = 170


def load_spec() -> dict:
    return json.loads(SPEC.read_text(encoding="utf-8"))


def run_worker(workload: str, seed: int, seconds: float, trace: int,
               rounds: int | None = None) -> dict:
    """One fresh, pinned subprocess; returns its report."""
    command = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
        "--spawned-at", repr(time.time()),
    ]
    if rounds is not None:
        command += ["--rounds", str(rounds)]
    env = dict(os.environ, PYTHONHASHSEED="0")
    done = subprocess.run(
        command, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True,
        timeout=WORKER_TIMEOUT_S,
    )
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(
            f"{workload}: worker exited with code {done.returncode}"
        )
    return json.loads(lines[-1])


def contract_line(report: dict, spec: dict) -> str:
    """The driver's result object: exactly the metrics BENCHMARK.json names."""
    named = spec["per_layer"] if report["trace"] else spec["end_to_end"]
    metrics = {
        entry["name"]: {
            "value": report["metrics"][entry["name"]], "unit": entry["unit"]
        }
        for entry in named
    }
    return json.dumps(
        {
            "correct": report["correct"],
            "attempted": report["attempted"],
            "failed": report["failed"],
            "metrics": metrics,
        }
    )


def print_report(report: dict, spec: dict) -> None:
    samples, protocol = report["samples"], report["protocol"]
    kind = "per-layer (traced)" if report["trace"] else "end to end"
    print(f"== {report['workload']}  [{kind}]  seed {report['seed']}")
    print(
        f"   {samples['rounds']} rounds x {samples['ops_per_round']} ops; "
        f"headline op {samples['headline_op']} "
        f"({samples['headline_samples_per_round']} samples/round); "
        f"pinned: {protocol['pinned']}; PYTHONHASHSEED={protocol['pythonhashseed']}"
    )
    print(
        f"   attempted {report['attempted']} ops, failed {report['failed']}"
        f" -> {'correct' if report['correct'] else 'WRONG'}"
    )
    for message in report["failures"]:
        print(f"   FAILED: {message}")
    units = {
        entry["name"]: entry["unit"]
        for entry in (*spec["end_to_end"], *spec["per_layer"])
    }
    names = list(report["metrics"])
    if report["trace"]:
        # the layer table, heaviest layer first
        self_time = [n for n in names if n.endswith("us_per_op")
                     and n != "service.queue_us_per_op"]  # part of service self
        self_time.sort(key=lambda n: -report["metrics"][n])
        names = self_time + [n for n in names if n not in self_time]
    for name in names:
        value = report["metrics"][name]
        print(f"   {name:36s} {value:16.4f} {units.get(name, '')}")
    if not report["trace"]:
        print(f"   config: {json.dumps(report['config'])}")
        for name, value in report["detail"].items():
            shown = (
                ", ".join(f"{v:.3f}" for v in value)
                if isinstance(value, list) else f"{value:.4f}"
            )
            print(f"   ({name:34s} {shown})")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", default=None,
                        help="run one workload and end with the JSON result line")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured window per run (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        help="1: the traced per-layer run instead of / after the end-to-end run")
    args = parser.parse_args(argv)

    if not SPEC.is_file() or not (ROOT / "src" / "repro").is_dir():
        print(
            f"nothing to measure: {SPEC.name} or src/repro is missing under {ROOT}",
            file=sys.stderr,
        )
        return 2
    spec = load_spec()
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    known = [entry["name"] for entry in spec["workloads"]]

    if args.workload is not None:
        if args.workload not in known:
            print(f"unknown workload {args.workload!r}; one of {known}", file=sys.stderr)
            return 2
        report = run_worker(args.workload, args.seed, seconds, args.trace)
        print_report(report, spec)
        print(contract_line(report, spec))
        return 0 if report["correct"] else 1

    ok = True
    for workload in known:
        for trace in ((0, 1) if args.trace else (0,)):
            report = run_worker(workload, args.seed, seconds, trace)
            print_report(report, spec)
            print()
            ok = ok and report["correct"]
    print("ALL CORRECT" if ok else "FAILURES (see above)")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
