"""Service-layer load: hundreds of verifying clients at fixed QPS.

Pytest entry points check the acceptance bar — the service sustains
>= 200 concurrent clients at a fixed arrival rate with **zero**
replay/auth protocol errors — and the ``__main__`` path finds the
open-loop saturation knee (``LoadGenerator.find_knee``: rate points
sized by duration, doubled until the service completes < 90 % of what
is offered, one bisection step, three searches), prints every rate
point, the knee with its spread and p50/p99 at 0.5× and 0.9× of it, and
writes ``BENCH_service_load.json``; percentiles are read from the same
sparse log2 histograms the Prometheus exporter scrapes. It exits
non-zero on any protocol or other error across the sweep.

Rejections (quota, rate, overload) are *not* errors here: over-offering
an admission-controlled service is supposed to produce typed 429-style
backpressure. The invariant under test is that honest load never
produces a MAC failure, replay rejection or rollback false positive.
"""

from __future__ import annotations

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from _harness import (  # noqa: E402
    SCALE,
    obs_scope,
    print_metrics_breakdown,
    scaled,
    write_bench_json,
)

from repro.core.config import VeriDBConfig
from repro.core.database import VeriDB
from repro.service import (
    LoadGenerator,
    QueryService,
    ServiceConfig,
    print_sweep_table,
)

N_CLIENTS = 200  # the acceptance floor: not scaled down
ROWS = 64
KNEE_START_QPS = 100
KNEE_REPEATS = 3


def build_service(registry=None, max_in_flight=256, max_workers=8):
    db = VeriDB(VeriDBConfig(key_seed=97))
    db.sql("CREATE TABLE kv (k INTEGER PRIMARY KEY, v INTEGER)")
    db.load_rows("kv", [(i, i * 7) for i in range(ROWS)])
    return QueryService(
        db,
        ServiceConfig(max_in_flight=max_in_flight, max_workers=max_workers),
        registry=registry,
    )


def point_query(op: int) -> str:
    return f"SELECT v FROM kv WHERE k = {op % ROWS}"


# ----------------------------------------------------------------------
# pytest entry points
# ----------------------------------------------------------------------
def test_200_clients_fixed_qps_zero_protocol_errors():
    """The headline acceptance run for the service layer."""
    with obs_scope() as registry:
        with build_service(registry) as service:
            gen = LoadGenerator(service, n_clients=N_CLIENTS, registry=registry)
            report = gen.run(
                point_query, target_qps=400, total_ops=scaled(800)
            )
        assert report.protocol_errors == 0, report.error_samples
        assert report.other_errors == 0, report.error_samples
        assert report.lost_responses == 0
        assert report.completed + report.rejected == report.offered
        # with in-flight headroom above the client count nothing should
        # actually have been turned away at this rate
        assert report.completed == report.offered
        # every result was endorsed, sequence-audited and verified by a
        # real client; the portal burned exactly one qid per query
        assert service.db.portal.seen_query_count() == report.completed
        assert registry.counter("portal.auth_failures").value == 0
        assert registry.counter("portal.replays_rejected").value == 0


def test_over_offered_service_rejects_but_never_errors():
    """Past saturation the failure mode is typed backpressure, not 500s."""
    with obs_scope() as registry:
        with build_service(registry, max_in_flight=4, max_workers=2) as service:
            gen = LoadGenerator(service, n_clients=32, registry=registry)
            report = gen.run(
                point_query, target_qps=2000, total_ops=scaled(400)
            )
        assert report.protocol_errors == 0, report.error_samples
        assert report.other_errors == 0, report.error_samples
        assert report.completed + report.rejected == report.offered
        assert report.completed > 0


# ----------------------------------------------------------------------
# direct run: the saturation knee + JSON artifact
# ----------------------------------------------------------------------
def main() -> int:
    seconds_per_point = max(0.25, SCALE)
    with obs_scope() as registry:
        service = build_service(registry)
        gen = LoadGenerator(service, n_clients=N_CLIENTS, registry=registry)
        knee = gen.find_knee(
            point_query, KNEE_START_QPS, seconds_per_point, KNEE_REPEATS
        )
        service.close()

        print(
            f"\nService saturation knee — {N_CLIENTS} clients, "
            f"{seconds_per_point:g} s per rate point, {KNEE_REPEATS} searches"
        )
        print_sweep_table(knee.points)
        print(
            f"\nknee {knee.knee_qps:.0f} qps, spread {knee.spread_qps:.0f} "
            f"(searches: {', '.join(f'{k:.0f}' for k in knee.knees)})"
        )
        print("at 0.5x and 0.9x of the knee:")
        print_sweep_table([r for runs in knee.near.values() for r in runs])
        print(
            f"(protocol errors across the sweep: {knee.protocol_errors}, "
            f"other errors: {knee.other_errors}; any non-zero value is a bug)"
        )
        write_bench_json(
            "service_load",
            {
                "n_clients": N_CLIENTS,
                "seconds_per_point": seconds_per_point,
                **knee.to_dict(),
            },
        )
        print_metrics_breakdown(registry)
    return 1 if knee.protocol_errors or knee.other_errors else 0


if __name__ == "__main__":
    raise SystemExit(main())
