"""Open-loop load generation against a :class:`QueryService`.

*Open loop* means arrivals follow a fixed schedule (one query every
``1/target_qps`` seconds) regardless of how fast earlier queries finish
— the model that exposes queueing collapse, unlike closed-loop drivers
whose clients politely wait and therefore can never over-offer. Each
arrival is executed by one of ``n_clients`` verifying
:class:`~repro.core.client.VeriDBClient` connections on a thread pool
sized to the client count, so hundreds of clients can genuinely be
in flight at once.

Each latency is timed from the arrival's *due* time, not from when a
generator thread got round to sending it: a generator that falls behind
(every client thread busy, a late wake-up) would otherwise hide exactly
the queueing an open loop exists to expose (coordinated omission). How
late the generator ran — start minus due, mean and max — is reported
beside the latencies so a reader can tell a slow service from a slow
generator.

Latencies land in the process registry's sparse log2 histograms
(``service.client_latency_seconds``), and the report reads its
percentiles straight from those buckets — the same data path the
Prometheus exporter scrapes, so the benchmark numbers and the dashboards
can never disagree.

:meth:`LoadGenerator.find_knee` locates the saturation knee: the
highest offered rate the service still completes at least
:data:`KNEE_ACHIEVED_SHARE` of, found by doubling and one bisection
step, repeated for a median with spread.

Outcome taxonomy (the load report counts all four):

* **completed** — endorsed, audited, verified result;
* **rejected** — typed service backpressure (quota/rate/overload/drain):
  correct behaviour under over-offering, never an error;
* **lost responses** — typed :class:`~repro.errors.ResponseLost`
  recoveries (only under fault injection);
* **protocol errors** — MAC/replay/rollback failures
  (:class:`~repro.errors.AuthenticationError`,
  :class:`~repro.errors.RollbackDetected`). Any non-zero count here is a
  bug: an honest service under honest load must never produce one.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass, field

from repro.errors import (
    AuthenticationError,
    ResponseLost,
    RollbackDetected,
    ServiceError,
)
from repro.obs import default_registry
from repro.service.service import QueryService

#: histogram the generator observes client-side latency into
CLIENT_LATENCY_METRIC = "service.client_latency_seconds"

#: a rate point keeps up when it completes at least this share of the
#: offered rate; the knee is the highest rate that still does
KNEE_ACHIEVED_SHARE = 0.9

#: fractions of the knee at which :meth:`LoadGenerator.find_knee`
#: reports latency
KNEE_FRACTIONS = (0.5, 0.9)


def _median(values) -> float:
    ordered = sorted(values)
    middle = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[middle]
    return (ordered[middle - 1] + ordered[middle]) / 2


@dataclass
class LoadReport:
    """What one fixed-rate run produced."""

    target_qps: float
    n_clients: int
    offered: int = 0
    completed: int = 0
    rejected: int = 0
    lost_responses: int = 0
    protocol_errors: int = 0
    other_errors: int = 0
    duration_s: float = 0.0
    p50_ms: float = 0.0
    p95_ms: float = 0.0
    p99_ms: float = 0.0
    mean_ms: float = 0.0
    #: how late the generator sent arrivals (start − due)
    lag_mean_ms: float = 0.0
    lag_max_ms: float = 0.0
    error_samples: list = field(default_factory=list)

    @property
    def achieved_qps(self) -> float:
        return self.completed / self.duration_s if self.duration_s else 0.0

    @property
    def keeps_up(self) -> bool:
        return self.achieved_qps >= KNEE_ACHIEVED_SHARE * self.target_qps

    def to_dict(self) -> dict:
        return {
            "target_qps": self.target_qps,
            "n_clients": self.n_clients,
            "offered": self.offered,
            "completed": self.completed,
            "rejected": self.rejected,
            "lost_responses": self.lost_responses,
            "protocol_errors": self.protocol_errors,
            "other_errors": self.other_errors,
            "duration_s": self.duration_s,
            "achieved_qps": self.achieved_qps,
            "latency_ms": {
                "p50": self.p50_ms,
                "p95": self.p95_ms,
                "p99": self.p99_ms,
                "mean": self.mean_ms,
            },
            "generator_lag_ms": {
                "mean": self.lag_mean_ms,
                "max": self.lag_max_ms,
            },
        }


@dataclass
class KneeReport:
    """What :meth:`LoadGenerator.find_knee` measured."""

    #: the knee each repeat found, in qps
    knees: list
    #: every rate point of every search, in the order run
    points: list
    #: fraction of the median knee -> the runs made at that rate
    near: dict

    @property
    def knee_qps(self) -> float:
        return _median(self.knees)

    @property
    def spread_qps(self) -> float:
        return max(self.knees) - min(self.knees)

    def _runs(self) -> list:
        return self.points + [r for runs in self.near.values() for r in runs]

    @property
    def protocol_errors(self) -> int:
        return sum(r.protocol_errors for r in self._runs())

    @property
    def other_errors(self) -> int:
        return sum(r.other_errors for r in self._runs())

    def to_dict(self) -> dict:
        near = {}
        for fraction, runs in self.near.items():
            p50 = [r.p50_ms for r in runs]
            p99 = [r.p99_ms for r in runs]
            near[f"{fraction:g}x"] = {
                "target_qps": runs[0].target_qps,
                "p50_ms": _median(p50),
                "p50_ms_range": [min(p50), max(p50)],
                "p99_ms": _median(p99),
                "p99_ms_range": [min(p99), max(p99)],
            }
        return {
            "knee_qps": self.knee_qps,
            "spread_qps": self.spread_qps,
            "knees": list(self.knees),
            "near_knee": near,
            "protocol_errors": self.protocol_errors,
            "other_errors": self.other_errors,
            "points": [r.to_dict() for r in self.points],
        }


class LoadGenerator:
    """Drives a service with an open-loop arrival process."""

    def __init__(
        self,
        service: QueryService,
        n_clients: int,
        tenants: int | None = None,
        registry=None,
    ):
        """``n_clients`` verifying connections are opened up front,
        spread round-robin over ``tenants`` registered tenants (default:
        one tenant per 50 clients, at least one)."""
        self.service = service
        self.obs = registry if registry is not None else default_registry()
        n_tenants = tenants if tenants is not None else max(1, n_clients // 50)
        self.credentials = [
            service.register_tenant(f"load-tenant-{i}")
            for i in range(n_tenants)
        ]
        self.clients = [
            service.connect(
                self.credentials[i % n_tenants], name=f"load-client-{i}"
            )
            for i in range(n_clients)
        ]

    # ------------------------------------------------------------------
    def run(
        self,
        sql_for,
        target_qps: float,
        total_ops: int,
    ) -> LoadReport:
        """Offer ``total_ops`` arrivals at ``target_qps``; block until done.

        ``sql_for(op_index) -> str`` generates each query (pass a plain
        string for a constant workload). Arrivals that fall behind
        schedule are issued immediately — the generator never slows down
        to match the service (open loop) — and every latency is timed
        from the arrival's due time.
        """
        if isinstance(sql_for, str):
            constant = sql_for
            sql_for = lambda _i: constant
        report = LoadReport(
            target_qps=target_qps, n_clients=len(self.clients)
        )
        report.offered = total_ops
        latency = self.obs.histogram(CLIENT_LATENCY_METRIC)
        lock = threading.Lock()
        interval = 1.0 / target_qps
        lag_total = 0.0

        def one(op: int, due: float) -> None:
            nonlocal lag_total
            client = self.clients[op % len(self.clients)]
            lag = time.perf_counter() - due
            with lock:
                lag_total += lag
                report.lag_max_ms = max(report.lag_max_ms, lag * 1e3)
            try:
                client.execute(sql_for(op))
                latency.observe(time.perf_counter() - due)
                with lock:
                    report.completed += 1
            except ServiceError:
                with lock:
                    report.rejected += 1
            except ResponseLost:
                with lock:
                    report.lost_responses += 1
            except (AuthenticationError, RollbackDetected) as exc:
                with lock:
                    report.protocol_errors += 1
                    if len(report.error_samples) < 10:
                        report.error_samples.append(repr(exc))
            except Exception as exc:
                with lock:
                    report.other_errors += 1
                    if len(report.error_samples) < 10:
                        report.error_samples.append(repr(exc))

        started = time.perf_counter()
        with ThreadPoolExecutor(
            max_workers=len(self.clients), thread_name_prefix="loadgen"
        ) as pool:
            futures = []
            for op in range(total_ops):
                due = started + op * interval
                delay = due - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                futures.append(pool.submit(one, op, due))
            wait(futures)
        report.duration_s = time.perf_counter() - started
        report.lag_mean_ms = lag_total / total_ops * 1e3 if total_ops else 0.0
        report.mean_ms = latency.mean * 1e3
        report.p50_ms = latency.percentile(0.50) * 1e3
        report.p95_ms = latency.percentile(0.95) * 1e3
        report.p99_ms = latency.percentile(0.99) * 1e3
        return report

    def _fresh_run(self, sql_for, target_qps: float, total_ops: int) -> LoadReport:
        """:meth:`run` with the latency histogram emptied first, so the
        report's percentiles describe only this rate point."""
        self.obs.histogram(CLIENT_LATENCY_METRIC).reset()
        return self.run(sql_for, target_qps, total_ops)

    def find_knee(
        self,
        sql_for,
        start_qps: float,
        seconds_per_point: float,
        repeats: int = 3,
    ) -> KneeReport:
        """The saturation knee: the highest rate the service keeps up with.

        Each repeat offers ``start_qps`` for ``seconds_per_point``
        seconds and doubles the rate until a point completes less than
        :data:`KNEE_ACHIEVED_SHARE` of what it offered; one bisection
        step between the last rate that kept up and the first that did
        not then picks the knee (0 when even half of ``start_qps`` falls
        behind). The report holds the median knee over ``repeats`` with
        its spread, every point run, and ``repeats`` runs at each of
        :data:`KNEE_FRACTIONS` of the median knee.
        """
        points: list[LoadReport] = []

        def sized(qps: float) -> LoadReport:
            return self._fresh_run(
                sql_for, qps, max(1, round(qps * seconds_per_point))
            )

        def keeps_up(qps: float) -> bool:
            points.append(sized(qps))
            return points[-1].keeps_up

        knees = []
        for _ in range(repeats):
            good, bad = 0.0, float(start_qps)
            while keeps_up(bad):
                good, bad = bad, bad * 2
            middle = (good + bad) / 2
            knees.append(middle if keeps_up(middle) else good)
        report = KneeReport(knees=knees, points=points, near={})
        if report.knee_qps > 0:
            for fraction in KNEE_FRACTIONS:
                report.near[fraction] = [
                    sized(fraction * report.knee_qps) for _ in range(repeats)
                ]
        return report


def print_sweep_table(reports: list[LoadReport]) -> None:
    header = (
        f"{'target qps':>11}{'achieved':>10}{'done':>7}{'rej':>6}"
        f"{'proto-err':>10}{'p50 ms':>9}{'p95 ms':>9}{'p99 ms':>9}"
        f"{'lag max ms':>11}"
    )
    print(header)
    print("-" * len(header))
    for r in reports:
        print(
            f"{r.target_qps:>11.0f}{r.achieved_qps:>10.1f}{r.completed:>7}"
            f"{r.rejected:>6}{r.protocol_errors:>10}{r.p50_ms:>9.2f}"
            f"{r.p95_ms:>9.2f}{r.p99_ms:>9.2f}{r.lag_max_ms:>11.2f}"
        )
