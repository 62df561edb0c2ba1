"""Smoke runs: boot a subsystem, drive it briefly, check what must hold.

Usage::

    python benchmarks/smoke.py {recovery,service,fleet,prom}

Each subcommand prints what it did, exits 1 on any failed check, and
leaves its artifacts in the bench-artifact directory
(``REPRO_BENCH_DIR``, default ``.bench/``):

``recovery``
    A WAL-backed instance runs DML around a checkpoint, "crashes", and
    must recover to identical answers and pass a verification pass. One
    flipped byte of the log must be refused with a typed
    ``RecoveryIntegrityError``; a sealed snapshot must restore under the
    same identity and be refused (``unsealable``) under another.
    Artifact: ``recovery_events.jsonl``, every recovery event emitted:
    one ``recovery_complete`` per successful recovery and one
    ``recovery_refused`` carrying the typed reason per refusal.
``service``
    200 verifying clients at 400 qps through a ``QueryService``: every
    response endorsed and audited, nothing rejected, zero protocol
    errors. An over-offered service (4 in flight, 2 workers, 2,000 qps)
    must reject with typed backpressure and never error. Then
    ``LoadGenerator.find_knee`` finds the open-loop saturation knee.
    Artifacts: ``service_metrics.prom`` (the 200-client run) and
    ``BENCH_service_load.json`` (the knee with its spread).
``fleet``
    A 2-shard ``process`` fleet with worker metrics, federation and the
    health poller on: clean health, worker segments stitched into
    ``explain_analyze``, and a coordinator exposition that passes
    ``repro.obs.promlint`` with both shards federated. Artifacts:
    ``fleet_metrics.prom``, ``BENCH_fleet_obs.json``.
``prom``
    A representative single-instance workload (point reads, a join under
    ``explain_analyze``, an epoch close) rendered as Prometheus text
    exposition 0.0.4. Artifact: ``metrics.prom``.

Sizes follow ``REPRO_BENCH_SCALE`` like the figure mains; CI runs
``recovery`` and ``prom`` at 1 and ``service`` and ``fleet`` at 0.2.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from _harness import SCALE, bench_dir, obs_scope, scaled, write_bench_json  # noqa: E402

from repro.core.config import ShardConfig, VeriDBConfig
from repro.core.database import VeriDB
from repro.core.recovery import recover_from_wal, snapshot_database
from repro.errors import RecoveryIntegrityError
from repro.obs import (
    JsonlEventSink,
    MetricsRegistry,
    lint_prometheus,
    parse_prometheus,
    render_prometheus,
    scoped_event_sink,
    write_prometheus_snapshot,
)
from repro.service import LoadGenerator, QueryService, ServiceConfig, print_sweep_table
from repro.shard import ShardedDatabase
from repro.storage.config import StorageConfig


# ----------------------------------------------------------------------
# recovery
# ----------------------------------------------------------------------
def smoke_recovery() -> list[str]:
    output = os.path.join(bench_dir(), "recovery_events.jsonl")
    if os.path.exists(output):
        os.unlink(output)
    workdir = tempfile.mkdtemp(prefix="veridb-recovery-smoke-")
    wal_dir = os.path.join(workdir, "wal")
    seed, n_rows = 83, scaled(300)
    cfg = VeriDBConfig(key_seed=seed, wal_dir=wal_dir, wal_group_commit=16)
    query = "SELECT COUNT(*), SUM(balance) FROM accounts"
    failures = []
    recoveries, refusals = 0, []  # what the event stream must report
    with scoped_event_sink(JsonlEventSink(path=output)) as sink:
        db = VeriDB(cfg)
        db.sql("CREATE TABLE accounts (id INTEGER PRIMARY KEY, balance INTEGER)")
        for i in range(n_rows):
            db.sql(f"INSERT INTO accounts VALUES ({i}, {i * 7})")
        db.checkpoint()
        db.sql("UPDATE accounts SET balance = 0 WHERE id = 3")
        db.sql(f"DELETE FROM accounts WHERE id = {n_rows - 1}")
        db.wal.commit()
        expected = db.sql(query).rows

        # crash: the instance is abandoned; only the log survives
        recovered = recover_from_wal(wal_dir, cfg)
        recoveries += 1
        if recovered.sql(query).rows != expected:
            failures.append("recovered answers diverged")
        try:
            recovered.verify_now()
        except Exception as alarm:  # noqa: BLE001 - smoke reports, not raises
            failures.append(f"recovered instance failed verification: {alarm}")
        recovered.wal.close()

        # tamper: flip one byte mid-log; recovery must refuse loudly
        tampered = os.path.join(workdir, "tampered")
        shutil.copytree(wal_dir, tampered)
        segment = sorted(p for p in os.listdir(tampered) if p.startswith("wal-"))[0]
        seg_path = os.path.join(tampered, segment)
        with open(seg_path, "rb") as fh:
            blob = bytearray(fh.read())
        blob[len(blob) // 2] ^= 0x01
        with open(seg_path, "wb") as fh:
            fh.write(bytes(blob))
        try:
            recover_from_wal(tampered, cfg)
            failures.append("tampered log recovered silently")
        except RecoveryIntegrityError as refusal:
            refusals.append(refusal.reason)
            print(f"[smoke recovery] tamper refused: reason={refusal.reason}")

        # snapshot: a sealed log restores under the same identity only
        snapshot = os.path.join(workdir, "snapshot")
        foreign_copy = os.path.join(workdir, "snapshot-foreign")
        rows = snapshot_database(recovered, snapshot)
        shutil.copytree(snapshot, foreign_copy)
        restored = recover_from_wal(snapshot, VeriDBConfig(key_seed=seed))
        recoveries += 1
        if restored.sql(query).rows != expected:
            failures.append("restored snapshot answers diverged")
        try:
            recover_from_wal(foreign_copy, VeriDBConfig(key_seed=seed + 1))
            failures.append("snapshot restored under a foreign enclave identity")
        except RecoveryIntegrityError as refusal:
            refusals.append(refusal.reason)
            if refusal.reason != "unsealable":
                failures.append(f"foreign identity refused as {refusal.reason}")
            print(
                f"[smoke recovery] snapshot of {rows} rows restored; foreign "
                f"identity refused: reason={refusal.reason}"
            )
        sink.close()
    with open(output) as fh:
        events = [json.loads(line) for line in fh]
    completed = sum(event["type"] == "recovery_complete" for event in events)
    if completed != recoveries:
        failures.append(f"{completed} recovery_complete events for {recoveries} recoveries")
    refused = [event["reason"] for event in events if event["type"] == "recovery_refused"]
    if refused != refusals:
        failures.append(f"recovery_refused reasons {refused}, refusals raised {refusals}")
    print(f"[smoke recovery] {n_rows} rows, {len(events)} events -> {output}")
    return failures


# ----------------------------------------------------------------------
# service
# ----------------------------------------------------------------------
#: the acceptance floor of concurrent verifying clients: not scaled down
SERVICE_CLIENTS = 200
SERVICE_ROWS = 64


def kv_service(registry, max_in_flight: int = 256, max_workers: int = 8) -> QueryService:
    db = VeriDB(VeriDBConfig(key_seed=97))
    db.sql("CREATE TABLE kv (k INTEGER PRIMARY KEY, v INTEGER)")
    db.load_rows("kv", [(i, i * 7) for i in range(SERVICE_ROWS)])
    return QueryService(
        db,
        ServiceConfig(max_in_flight=max_in_flight, max_workers=max_workers),
        registry=registry,
    )


def point_query(op: int) -> str:
    return f"SELECT v FROM kv WHERE k = {op % SERVICE_ROWS}"


def smoke_service() -> list[str]:
    failures = []

    def errors(label, report):
        """Rejections are typed backpressure, not errors; any protocol
        (MAC/replay/rollback) or other failure under honest load is."""
        if report.protocol_errors or report.other_errors or report.lost_responses:
            failures.append(
                f"{label}: {report.protocol_errors} protocol errors, "
                f"{report.other_errors} other, {report.lost_responses} lost: "
                f"{report.error_samples}"
            )
        if report.completed + report.rejected != report.offered:
            failures.append(f"{label}: completed + rejected != offered")
        print(
            f"[smoke service] {label}: offered={report.offered} "
            f"completed={report.completed} rejected={report.rejected} "
            f"p99={report.p99_ms:.2f}ms"
        )

    with obs_scope() as registry:
        with kv_service(registry) as service:
            gen = LoadGenerator(service, n_clients=SERVICE_CLIENTS, registry=registry)
            report = gen.run(point_query, target_qps=400, total_ops=scaled(800))
        errors(f"{SERVICE_CLIENTS} clients at 400 qps", report)
        # in-flight headroom above the client count: nothing turned away
        if report.completed != report.offered:
            failures.append("the 200-client run rejected queries")
        # every result endorsed, sequence-audited and verified by a real
        # client; the portal burned exactly one qid per query
        if service.db.portal.seen_query_count() != report.completed:
            failures.append("portal qids burned != queries completed")
        for name in ("portal.auth_failures", "portal.replays_rejected"):
            if registry.counter(name).value:
                failures.append(f"{name} = {registry.counter(name).value}")
        write_prometheus_snapshot(
            registry, os.path.join(bench_dir(), "service_metrics.prom")
        )

    with obs_scope() as registry:
        with kv_service(registry, max_in_flight=4, max_workers=2) as service:
            gen = LoadGenerator(service, n_clients=32, registry=registry)
            report = gen.run(point_query, target_qps=2000, total_ops=scaled(400))
        errors("over-offered", report)
        if report.completed == 0:
            failures.append("the over-offered service completed nothing")

    seconds_per_point = max(0.25, SCALE)
    with obs_scope() as registry:
        service = kv_service(registry)
        gen = LoadGenerator(service, n_clients=SERVICE_CLIENTS, registry=registry)
        knee = gen.find_knee(point_query, 100, seconds_per_point, 3)
        service.close()
    print(
        f"\nService saturation knee — {SERVICE_CLIENTS} clients, "
        f"{seconds_per_point:g} s per rate point, 3 searches"
    )
    print_sweep_table(knee.points)
    print(
        f"\nknee {knee.knee_qps:.0f} qps, spread {knee.spread_qps:.0f} "
        f"(searches: {', '.join(f'{k:.0f}' for k in knee.knees)})"
    )
    print("at 0.5x and 0.9x of the knee:")
    print_sweep_table([r for runs in knee.near.values() for r in runs])
    write_bench_json(
        "service_load",
        {
            "n_clients": SERVICE_CLIENTS,
            "seconds_per_point": seconds_per_point,
            **knee.to_dict(),
        },
    )
    if knee.protocol_errors or knee.other_errors:
        failures.append(
            f"knee sweep: {knee.protocol_errors} protocol errors, "
            f"{knee.other_errors} other"
        )
    return failures


# ----------------------------------------------------------------------
# fleet
# ----------------------------------------------------------------------
def smoke_fleet() -> list[str]:
    poll_seconds = 0.1
    with scoped_event_sink(JsonlEventSink()) as sink:
        db = ShardedDatabase(
            ShardConfig(
                shard_count=2,
                transport="process",
                base=VeriDBConfig(key_seed=7),
                health_interval=poll_seconds,
                request_timeout=30.0,
            ),
            registry=MetricsRegistry(),
        )
        try:
            db.execute("CREATE TABLE items (id INT PRIMARY KEY, owner INT, qty INT)")
            n = scaled(400)
            db.load_rows("items", [(i, i % 20, i * 3) for i in range(n)])
            for i in range(scaled(8)):
                db.execute("SELECT * FROM items WHERE qty > ? AND owner <> 3", params=(i,))
                db.execute("SELECT owner, COUNT(*), SUM(qty) FROM items GROUP BY owner")
            analyzed = db.explain_analyze(
                "SELECT owner, AVG(qty) FROM items WHERE id >= 10 GROUP BY owner"
            )
            db.verify_now()
            deadline = time.monotonic() + 10.0
            while db.obs.snapshot().get("health.polls", {}).get("value", 0) < 2:
                if time.monotonic() > deadline:
                    return ["the background poller made < 2 polls in 10 s"]
                time.sleep(poll_seconds / 2)
            polls = db.obs.snapshot()["health.polls"]["value"]
            report = db.health()
        finally:
            db.close()
        text = render_prometheus(db.obs)

    failures = []
    if len(analyzed.remote_segments()) != 2:
        failures.append("explain_analyze stitched no worker segments")
    if not report["healthy"] or report["alerts"]:
        failures.append(f"unhealthy fleet: {report['alerts']}")
    problems = lint_prometheus(text)
    for problem in problems:
        failures.append(f"promlint: {problem}")
    parsed = parse_prometheus(text)
    federated = sorted(
        {labels["shard"] for _name, labels, _value, _line in parsed["samples"] if "shard" in labels}
    )
    if federated != ["0", "1"]:
        failures.append(f"expected both shards federated: {federated}")

    output = os.path.join(bench_dir(), "fleet_metrics.prom")
    with open(output, "w") as fh:
        fh.write(text)
    print(
        f"[smoke fleet] wrote {output} ({len(parsed['samples'])} samples, "
        f"{len(parsed['families'])} families, {len(problems)} lint problems)"
    )
    remote = analyzed.remote_totals() or {}
    write_bench_json(
        "fleet_obs",
        {
            "workload": {
                "rows_loaded": n,
                "remote_verified_reads": remote.get("verified_reads", 0),
                "remote_segments": len(analyzed.remote_segments()),
            },
            "exposition": {
                "samples": len(parsed["samples"]),
                "families": len(parsed["families"]),
                "lint_problems": len(problems),
                "federated_shards": len(federated),
            },
            "health": {
                "healthy": report["healthy"],
                "alerts": len(report["alerts"]),
                "alert_events": sum(
                    1 for e in sink.events if e["type"].startswith("alert")
                ),
                "background_polls": polls,
                "p99_seconds": report["slo"]["p99_seconds"],
            },
        },
    )
    return failures


# ----------------------------------------------------------------------
# prom
# ----------------------------------------------------------------------
def smoke_prom() -> list[str]:
    output = os.path.join(bench_dir(), "metrics.prom")
    join = (
        "SELECT items.id, owners.region FROM items, owners "
        "WHERE items.owner = owners.id"
    )
    with obs_scope() as registry:
        db = VeriDB(
            VeriDBConfig(
                key_seed=7,
                storage=StorageConfig(cache_bytes=1 << 20),
                trace_sample_rate=1.0,
            )
        )
        db.sql("CREATE TABLE items (id INT PRIMARY KEY, owner INT, qty INT)")
        db.sql("CREATE TABLE owners (id INT PRIMARY KEY, region INT)")
        db.load_rows("items", [(i, i % 20, i * 3) for i in range(scaled(400))])
        db.load_rows("owners", [(i, i % 4) for i in range(20)])
        client = db.connect("prom-snapshot")
        client.execute("SELECT * FROM items WHERE id = 5")
        client.execute(join + " AND owners.region = 1")
        db.explain_analyze(join)
        db.verify_now()
        write_prometheus_snapshot(registry, output)
    print(f"[smoke prom] wrote {output} ({os.path.getsize(output)} bytes)")
    return []


SMOKES = {
    "recovery": smoke_recovery,
    "service": smoke_service,
    "fleet": smoke_fleet,
    "prom": smoke_prom,
}


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("check", choices=sorted(SMOKES))
    check = parser.parse_args(argv).check
    failures = SMOKES[check]()
    for failure in failures:
        print(f"[smoke {check}] FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
