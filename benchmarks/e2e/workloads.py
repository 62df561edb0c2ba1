"""The four end-to-end workloads.

Every workload generates all of its inputs (rows, statements,
parameters, op order, expected answers) from the seed *before* anything
is timed; the program under test only ever sees the generated
statements. ``key_seed`` stays 0 on every instance.

A workload is driven in fixed-size *rounds*: round 0 is the warm-up
(part of set-up), rounds 1..R are timed. ``set_up`` may be called
several times — each call builds a fresh instance and replays round 0
on it — and only the last instance is measured and checked.
"""

from __future__ import annotations

import bisect
import gc
import hashlib
import math
import random
import re
import shutil
import sqlite3
import string
import threading
from pathlib import Path
from time import perf_counter

from repro import StorageConfig, VeriDB, VeriDBConfig
from repro.core import recovery
from repro.core.config import ShardConfig
from repro.service import QueryService, ServiceConfig
from repro.shard import ShardedDatabase
from repro.workloads import tpch
from repro.workloads.micro import ZipfianKeys, kv_schema

VALUE_BYTES = 500  # the paper's Section 6.1 value size
_ALPHABET = string.ascii_letters + string.digits

# op kinds, for the per-kind latency diagnostics
READ, WRITE, SCAN = "read", "write", "scan"


def _value_pool(rng: random.Random, size: int) -> list[str]:
    return ["".join(rng.choices(_ALPHABET, k=VALUE_BYTES)) for _ in range(size)]


def _close_enough(ours, theirs, rel: float) -> bool:
    """Row lists equal, floats compared to a relative tolerance."""
    if len(ours) != len(theirs):
        return False
    for mine, other in zip(ours, theirs):
        if len(mine) != len(other):
            return False
        for a, b in zip(mine, other):
            if isinstance(a, float) or isinstance(b, float):
                if a is None or b is None:
                    return False
                if not math.isclose(a, b, rel_tol=rel, abs_tol=1e-9):
                    return False
            elif a != b:
                return False
    return True


class Op:
    """One generated statement with the answer the model expects."""

    __slots__ = ("kind", "label", "sql", "params", "expect")

    def __init__(self, kind, label, sql, params, expect):
        self.kind = kind
        self.label = label  # the workload's own op name (headline selection)
        self.sql = sql
        self.params = params
        self.expect = expect  # see Workload.matches


#: every write must touch exactly one row (one shared object, not one per op)
ONE_ROW = ("count", 1)


def _one_value(memo: dict, value) -> tuple:
    """("rows", ((value,),)) for a point read, shared per distinct value so
    the generated inputs stay a small part of the run's memory."""
    try:
        return memo[value]
    except KeyError:
        memo[value] = expect = ("rows", ((value,),))
        return expect


class RoundResult:
    __slots__ = ("wall", "latencies", "failures", "close_seconds")

    def __init__(self, wall, latencies, failures, close_seconds=0.0):
        self.wall = wall  # the round as the caller saw it, epoch close included
        self.latencies = latencies  # [(Op, seconds)], timed from outside
        self.failures = failures  # messages; empty when every op was right
        self.close_seconds = close_seconds  # the round's verify_now(), if any


class Workload:
    """Base: a single attested client running each round's ops in order."""

    name = ""
    headline = None  # Op.label the headline latency is taken from; None = all
    epoch_close_per_round = False
    rounds_per_second = 3.0  # nominal, sized on the 2-core reference box

    def __init__(self, seed: int, rounds: int):
        self.seed = seed
        self.rounds = rounds
        self.round_ops: list[list[Op]] = []  # index 0 = warm-up
        self.user_bytes_per_round = 0.0  # payload bytes written, for wal ratios
        self.db = None
        self.client = None
        self.recorder = None  # set by the traced run, tags spans with op ids
        self.recovery_seconds = 0.0
        self.generate(random.Random(seed))

    # -- to be provided -------------------------------------------------
    def generate(self, rng: random.Random) -> None:
        raise NotImplementedError

    def build(self, workdir: Path, registry) -> None:
        """Construct the system, load it and connect; no warm-up.

        ``registry`` is None for the end-to-end runs (the program's
        default null registry) and a real one for the traced run."""
        raise NotImplementedError

    def final_checks(self, registry) -> list[str]:
        """Whole-table / durability / epoch checks; returns failures."""
        raise NotImplementedError

    def tear_down(self) -> None:
        self.db = self.client = None

    def config(self) -> dict:
        return {}

    # -- shared driver ----------------------------------------------------
    @property
    def ops_per_round(self) -> int:
        return len(self.round_ops[1])

    def inputs_digest(self) -> str:
        """Fingerprint of everything the program will be given."""
        digest = hashlib.sha256(repr(self.loaded_rows()).encode())
        for ops in self.round_ops:
            for op in ops:
                digest.update(repr((op.sql, op.params)).encode())
        return digest.hexdigest()

    def loaded_rows(self):
        return self.initial

    def set_up(self, workdir: Path, registry=None) -> None:
        self.tear_down()
        gc.collect()
        self.build(workdir, registry)
        warm = self.run_round(0)
        if warm.failures:
            raise RuntimeError(f"warm-up round failed: {warm.failures[:3]}")

    def run_round(self, index: int) -> RoundResult:
        ops = self.round_ops[index]
        latencies: list = []
        pending: list = []
        op_id = index * len(ops)
        client = self.client
        start = perf_counter()
        for op in ops:
            self._timed(client, op, op_id, latencies, pending)
            op_id += 1
        close_seconds = 0.0
        if self.epoch_close_per_round:
            close_start = perf_counter()
            self.db.verify_now()
            close_seconds = perf_counter() - close_start
        wall = perf_counter() - start
        return RoundResult(wall, latencies, self._judge(pending), close_seconds)

    def _timed(self, client, op: Op, op_id: int, latencies, pending) -> None:
        """The timed section: execute only; answers are judged later."""
        if self.recorder is not None:
            self.recorder.set_op(op_id)
        start = perf_counter()
        try:
            outcome = client.execute(op.sql, params=op.params)
        except Exception as error:  # any failure is a failed op, and counted
            outcome = error
        latencies.append((op, perf_counter() - start))
        pending.append((op, outcome))

    def _judge(self, pending) -> list[str]:
        """Compare every answer with the model (outside the round timer)."""
        failures = []
        for op, outcome in pending:
            if isinstance(outcome, Exception):
                failures.append(
                    f"{op.label}: {type(outcome).__name__}: {outcome}"
                )
            elif not self.matches(op, outcome):
                failures.append(
                    f"{op.label} {str(op.params)[:40]}: got "
                    f"{str(outcome.rows)[:80]} rowcount={outcome.rowcount}"
                )
        return failures

    @staticmethod
    def matches(op: Op, result) -> bool:
        """``expect`` is ("rows", rows) | ("count", n) | ("one_of", {rows})
        | ("approx", sorted rows)."""
        how, want = op.expect
        if how == "rows":
            return tuple(result.rows) == want
        if how == "count":
            return result.rowcount == want
        if how == "one_of":
            return tuple(result.rows) in want
        return _close_enough(sorted(result.rows), want, rel=1e-9)

    def table_equals_model(self, rows, model_rows) -> list[str]:
        ours = sorted(tuple(row) for row in rows)
        if ours == model_rows:
            return []
        return [
            f"table differs from the model: {len(ours)} rows vs "
            f"{len(model_rows)} expected"
        ]


# ----------------------------------------------------------------------
# oltp_durable
# ----------------------------------------------------------------------
class OltpDurable(Workload):
    name = "oltp_durable"
    headline = None
    epoch_close_per_round = True
    rounds_per_second = 1.5  # a 1,000-op round with its epoch close: ~0.7 s

    ROWS = 10_000
    OPS_PER_ROUND = 1_000
    TAIL_OPS = 200  # committed after the last checkpoint; recovery must replay them
    POOL = 256

    SELECT = "SELECT v FROM kv WHERE k = ?"
    INSERT = "INSERT INTO kv VALUES (?, ?)"
    DELETE = "DELETE FROM kv WHERE k = ?"
    UPDATE = "UPDATE kv SET v = ? WHERE k = ?"

    def generate(self, rng):
        pool = _value_pool(rng, self.POOL)
        self.initial = [(k, rng.choice(pool)) for k in range(1, self.ROWS + 1)]
        model = dict(self.initial)
        live = list(model)
        fresh = self.ROWS + 1
        written = 0
        memo: dict = {}

        def ops(count):
            nonlocal fresh, written
            out = []
            for _ in range(count):
                kind = rng.randrange(4)
                if kind == 0:  # insert a fresh key
                    value = rng.choice(pool)
                    out.append(
                        Op(WRITE, "insert", self.INSERT, (fresh, value), ONE_ROW)
                    )
                    model[fresh] = value
                    live.append(fresh)
                    fresh += 1
                    written += VALUE_BYTES + 4
                    continue
                slot = rng.randrange(len(live))
                key = live[slot]
                if kind == 1:
                    live[slot] = live[-1]
                    live.pop()
                    del model[key]
                    out.append(Op(WRITE, "delete", self.DELETE, (key,), ONE_ROW))
                elif kind == 2:
                    value = rng.choice(pool)
                    model[key] = value
                    written += VALUE_BYTES + 4
                    out.append(
                        Op(WRITE, "update", self.UPDATE, (value, key), ONE_ROW)
                    )
                else:
                    out.append(
                        Op(READ, "get", self.SELECT, (key,), _one_value(memo, model[key]))
                    )
            return out

        self.round_ops = [ops(self.OPS_PER_ROUND) for _ in range(self.rounds + 1)]
        self.user_bytes_per_round = written / (self.rounds + 1)
        self.tail = ops(self.TAIL_OPS)
        self.model_rows = sorted(model.items())

    def config(self):
        return {
            "rows": self.ROWS,
            "value_bytes": VALUE_BYTES,
            "ops_per_round": self.OPS_PER_ROUND,
            "mix": "uniform Get/Insert/Delete/Update by primary key",
            "clients": 1,
            "loop": "closed",
            "wal": "on, wal_fsync=False, wal_group_commit=64 (repo defaults)",
            "wal_dir": "inside the checkout (.bench/e2e)",
            "record_cache": "off",
            "epoch_close": "one verify_now() per round, inside the round",
        }

    def build(self, workdir, registry):
        self.wal_dir = workdir / "wal"
        shutil.rmtree(self.wal_dir, ignore_errors=True)
        self.db_config = VeriDBConfig(key_seed=0, wal_dir=str(self.wal_dir))
        self.db = VeriDB(self.db_config, registry=registry)
        self.client = self.db.connect()
        self.client.execute("CREATE TABLE kv (k INTEGER PRIMARY KEY, v TEXT)")
        self.db.load_rows("kv", self.initial)

    def tear_down(self):
        if self.db is not None and self.db.wal is not None:
            self.db.wal.close()
        super().tear_down()

    def final_checks(self, registry):
        pending: list = []
        for op in self.tail:
            self._timed(self.client, op, -1, [], pending)
        failures = self._judge(pending)
        table = self.client.execute("SELECT k, v FROM kv")
        failures += self.table_equals_model(table.rows, self.model_rows)
        self.db.verify_now()
        # Durability: walk away from the live instance — no close, no
        # checkpoint, so anything still buffered is lost — and rebuild
        # from nothing but the bytes in the WAL directory.
        self.db = self.client = None
        gc.collect()
        start = perf_counter()
        recovered = recovery.recover_from_wal(
            self.wal_dir, self.db_config, registry=registry
        )
        self.recovery_seconds = perf_counter() - start
        rows = recovered.table("kv").seq_scan()
        failures += [
            f"after recovery: {message}"
            for message in self.table_equals_model(rows, self.model_rows)
        ]
        recovered.verify_now()
        self.db = recovered  # closed (log handle released) by tear_down
        return failures


# ----------------------------------------------------------------------
# analytics_scan
# ----------------------------------------------------------------------
class AnalyticsScan(Workload):
    name = "analytics_scan"
    headline = "Q1"

    SCALE = 0.001  # 6,000 lineitem + 200 part rows

    def generate(self, rng):
        generator = tpch.TPCHGenerator(self.SCALE, seed=self.seed)
        self.parts = list(generator.parts())
        self.lineitems = list(generator.lineitems())
        expected = self._sqlite_answers()
        round_ops = [
            Op(SCAN, name, tpch.QUERIES[name], None, ("sqlite", expected[name]))
            for name in ("Q1", "Q6", "Q19")
        ]
        self.round_ops = [round_ops] * (self.rounds + 1)

    def _sqlite_answers(self) -> dict:
        """The three answers from SQLite over the same generated rows."""
        connection = sqlite3.connect(":memory:")
        try:
            for table, schema, rows in (
                ("part", tpch.part_schema(), self.parts),
                ("lineitem", tpch.lineitem_schema(), self.lineitems),
            ):
                columns = ", ".join(column.name for column in schema.columns)
                connection.execute(f"CREATE TABLE {table} ({columns})")
                marks = ", ".join("?" * len(schema.columns))
                connection.executemany(
                    f"INSERT INTO {table} VALUES ({marks})",
                    (
                        tuple(
                            v.isoformat() if hasattr(v, "isoformat") else v
                            for v in row
                        )
                        for row in rows
                    ),
                )
            # SQLite has no DATE literal; ISO strings order the same way
            return {
                name: [
                    tuple(row)
                    for row in connection.execute(re.sub(r"DATE\s+'", "'", sql))
                ]
                for name, sql in tpch.QUERIES.items()
            }
        finally:
            connection.close()

    @staticmethod
    def matches(op, result):
        return _close_enough(list(result.rows), op.expect[1], rel=1e-6)

    def loaded_rows(self):
        return self.parts, self.lineitems

    def config(self):
        return {
            "scale_factor": self.SCALE,
            "lineitem_rows": len(self.lineitems),
            "part_rows": len(self.parts),
            "ops_per_round": 3,
            "mix": "one each of TPC-H Q1, Q6, Q19",
            "clients": 1,
            "loop": "closed",
            "wal": "off",
            "record_cache": "off",
            "epoch_close": "one final pass, outside the window",
        }

    def build(self, workdir, registry):
        self.db = VeriDB(VeriDBConfig(key_seed=0), registry=registry)
        self.db.create_table("part", tpch.part_schema())
        self.db.create_table("lineitem", tpch.lineitem_schema())
        self.db.load_rows("part", self.parts)
        self.db.load_rows("lineitem", self.lineitems)
        self.client = self.db.connect()

    def final_checks(self, registry):
        self.db.verify_now()
        return []


# ----------------------------------------------------------------------
# service_zipf
# ----------------------------------------------------------------------
class ServiceZipf(Workload):
    name = "service_zipf"
    headline = "select"

    ROWS = 20_000
    CACHE_BYTES = 2 << 20  # table (~10 MB) is 5x the record cache
    THETA = 0.9
    CLIENTS = 2
    OPS_PER_CLIENT = 1_000
    UPDATE_SHARE = 0.1
    POOL = 64

    SELECT = "SELECT v FROM kv WHERE k = ?"
    UPDATE = "UPDATE kv SET v = ? WHERE k = ?"

    def generate(self, rng):
        pool = _value_pool(rng, self.POOL)
        self.initial = [(k, rng.choice(pool)) for k in range(1, self.ROWS + 1)]
        model = dict(self.initial)
        zipf = ZipfianKeys(self.ROWS, self.THETA, seed=self.seed)
        written = 0
        memo: dict = {}
        self.round_ops = []
        self.client_ops: list[list[list[Op]]] = []
        for _ in range(self.rounds + 1):
            # skeletons first: a read of a key the *other* client writes in
            # this round may legitimately see any value it holds meanwhile
            skeletons = []
            for owner in range(self.CLIENTS):
                skeleton = []
                for _ in range(self.OPS_PER_CLIENT):
                    key = zipf.next()
                    if rng.random() < self.UPDATE_SHARE:
                        if key % self.CLIENTS != owner:  # write own keys only
                            key = key + 1 if key < self.ROWS else key - 1
                        skeleton.append((key, rng.choice(pool)))
                    else:
                        skeleton.append((key, None))
                skeletons.append(skeleton)
            written_here: dict = {}
            for skeleton in skeletons:
                for key, value in skeleton:
                    if value is not None:
                        written_here.setdefault(key, {model[key]}).add(value)
                        written += VALUE_BYTES + 4
            per_client = []
            for owner, skeleton in enumerate(skeletons):
                current: dict = {}
                ops = []
                for key, value in skeleton:
                    if value is not None:
                        current[key] = value
                        ops.append(
                            Op(WRITE, "update", self.UPDATE, (value, key), ONE_ROW)
                        )
                    elif key % self.CLIENTS == owner or key not in written_here:
                        seen = current.get(key, model[key])
                        ops.append(
                            Op(READ, "select", self.SELECT, (key,), _one_value(memo, seen))
                        )
                    else:
                        candidates = frozenset(((v,),) for v in written_here[key])
                        ops.append(
                            Op(READ, "select", self.SELECT, (key,), ("one_of", candidates))
                        )
                per_client.append(ops)
                model.update(current)
            self.client_ops.append(per_client)
            self.round_ops.append([op for ops in per_client for op in ops])
        self.user_bytes_per_round = written / (self.rounds + 1)
        self.model_rows = sorted(model.items())

    def config(self):
        return {
            "rows": self.ROWS,
            "value_bytes": VALUE_BYTES,
            "cache_bytes": self.CACHE_BYTES,
            "zipf_theta": self.THETA,
            "clients": self.CLIENTS,
            "service_workers": 2,
            "ops_per_round": self.CLIENTS * self.OPS_PER_CLIENT,
            "mix": "90% point SELECT / 10% UPDATE, each key written by one client",
            "loop": "closed (each caller waits for its reply)",
            "wal": "off",
            "epoch_close": "one final pass, outside the window",
        }

    def build(self, workdir, registry):
        storage = StorageConfig(cache_bytes=self.CACHE_BYTES)
        self.db = VeriDB(VeriDBConfig(key_seed=0, storage=storage), registry=registry)
        self.db.create_table("kv", kv_schema())
        self.db.load_rows("kv", self.initial)
        self.service = QueryService(
            self.db, ServiceConfig(max_workers=2), registry=registry
        )
        self.clients = [
            self.service.connect(self.service.register_tenant(f"tenant{i}"))
            for i in range(self.CLIENTS)
        ]
        self.client = self.clients[0]

    def tear_down(self):
        if self.db is not None:
            self.service.close()
            self.service = self.clients = None
        super().tear_down()

    def run_round(self, index):
        per_client = self.client_ops[index]
        latencies = [[] for _ in per_client]
        pending = [[] for _ in per_client]

        def drive(slot):
            client = self.clients[slot]
            # op ids interleave the clients so each stays unique
            op_id = index * self.ops_per_round + slot
            for op in per_client[slot]:
                self._timed(client, op, op_id, latencies[slot], pending[slot])
                op_id += self.CLIENTS

        threads = [
            threading.Thread(target=drive, args=(slot,), name=f"e2e-client-{slot}")
            for slot in range(len(per_client))
        ]
        start = perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        wall = perf_counter() - start
        failures = [m for answers in pending for m in self._judge(answers)]
        return RoundResult(wall, [p for lat in latencies for p in lat], failures)

    def final_checks(self, registry):
        table = self.client.execute("SELECT k, v FROM kv")
        failures = self.table_equals_model(table.rows, self.model_rows)
        self.db.verify_now()
        return failures


# ----------------------------------------------------------------------
# fleet_mixed
# ----------------------------------------------------------------------
class FleetMixed(Workload):
    name = "fleet_mixed"
    headline = "point"
    epoch_close_per_round = True

    SHARDS = 4
    ROWS = 6_000
    GROUPS = 16
    V_DOMAIN = 100_000
    WINDOW = 2_000  # ~2% of the rows
    WINDOW_POOL = 16
    # per round; the full-table aggregate is sized to stay <= 25% of a round
    POINTS, UPDATES, RANGE_AGGS, FILTER_SCANS, FULL_AGGS = 390, 100, 5, 3, 1

    POINT = "SELECT g, v FROM t WHERE k = ?"
    UPDATE = "UPDATE t SET g = ? WHERE k = ?"
    RANGE_AGG = (
        "SELECT g, COUNT(*), SUM(v) FROM t WHERE v BETWEEN {lo} AND {hi} GROUP BY g"
    )
    FILTER_SCAN = (
        "SELECT k, v FROM t WHERE v >= {lo} AND v <= {hi} AND g < 8 "
        "ORDER BY k LIMIT 20"
    )
    FULL_AGG = "SELECT g, COUNT(*), AVG(v) FROM t GROUP BY g"

    def generate(self, rng):
        pad = "p" * 100
        self.initial = [
            (k, rng.randrange(self.GROUPS), rng.randrange(self.V_DOMAIN), pad)
            for k in range(1, self.ROWS + 1)
        ]
        group = {k: g for k, g, _v, _pad in self.initial}
        value = {k: v for k, _g, v, _pad in self.initial}
        by_value = sorted((v, k) for k, v in value.items())  # v never changes
        values_only = [v for v, _k in by_value]
        windows = [
            (lo, lo + self.WINDOW)
            for lo in (
                rng.randrange(self.V_DOMAIN - self.WINDOW)
                for _ in range(self.WINDOW_POOL)
            )
        ]
        count = [0] * self.GROUPS
        total = [0] * self.GROUPS
        for k, g in group.items():
            count[g] += 1
            total[g] += value[k]

        def in_window(lo, hi):
            first = bisect.bisect_left(values_only, lo)
            last = bisect.bisect_right(values_only, hi)
            return [k for _v, k in by_value[first:last]]

        def one_round():
            ops = []
            for _ in range(self.POINTS):
                ops.append(("point", rng.randrange(1, self.ROWS + 1)))
            for _ in range(self.UPDATES):
                ops.append(
                    ("update", rng.randrange(1, self.ROWS + 1), rng.randrange(self.GROUPS))
                )
            ops += [("range_agg", rng.choice(windows)) for _ in range(self.RANGE_AGGS)]
            ops += [("filter", rng.choice(windows)) for _ in range(self.FILTER_SCANS)]
            ops += [("full_agg",)] * self.FULL_AGGS
            rng.shuffle(ops)
            out = []
            for op in ops:
                if op[0] == "point":
                    k = op[1]
                    out.append(
                        Op(READ, "point", self.POINT, (k,), ("rows", ((group[k], value[k]),)))
                    )
                elif op[0] == "update":
                    _, k, g = op
                    count[group[k]] -= 1
                    total[group[k]] -= value[k]
                    group[k] = g
                    count[g] += 1
                    total[g] += value[k]
                    out.append(Op(WRITE, "update", self.UPDATE, (g, k), ONE_ROW))
                elif op[0] == "range_agg":
                    lo, hi = op[1]
                    sums: dict = {}
                    for k in in_window(lo, hi):
                        entry = sums.setdefault(group[k], [0, 0])
                        entry[0] += 1
                        entry[1] += value[k]
                    want = sorted((g, c, s) for g, (c, s) in sums.items())
                    out.append(
                        Op(SCAN, "range_agg", self.RANGE_AGG.format(lo=lo, hi=hi), None, ("approx", want))
                    )
                elif op[0] == "filter":
                    lo, hi = op[1]
                    keys = sorted(k for k in in_window(lo, hi) if group[k] < 8)[:20]
                    want = tuple((k, value[k]) for k in keys)
                    out.append(
                        Op(SCAN, "filter_scan", self.FILTER_SCAN.format(lo=lo, hi=hi), None, ("rows", want))
                    )
                else:
                    want = sorted(
                        (g, count[g], total[g] / count[g])
                        for g in range(self.GROUPS)
                        if count[g]
                    )
                    out.append(Op(SCAN, "full_agg", self.FULL_AGG, None, ("approx", want)))
            return out

        self.round_ops = [one_round() for _ in range(self.rounds + 1)]
        self.model_rows = sorted((k, group[k], value[k]) for k in group)

    def config(self):
        return {
            "shards": self.SHARDS,
            "transport": "inproc",
            "rows": self.ROWS,
            "partitioning": "hash on the primary key; CHAIN (v)",
            "ops_per_round": len(self.round_ops[1]),
            "mix": {
                "pruned point SELECT": self.POINTS,
                "routed UPDATE": self.UPDATES,
                "range-restricted scatter aggregate (~2% of rows)": self.RANGE_AGGS,
                "scatter filter scan with LIMIT": self.FILTER_SCANS,
                "full GROUP BY with AVG": self.FULL_AGGS,
            },
            "clients": 1,
            "loop": "closed",
            "wal": "off",
            "epoch_close": "one two-phase fleet verify_now() per round, inside the round",
        }

    def build(self, workdir, registry):
        config = ShardConfig(
            shard_count=self.SHARDS,
            transport="inproc",
            # workers keep real registries only when their counts are read
            worker_metrics=registry is not None,
            federate_metrics=registry is not None,
            base=VeriDBConfig(key_seed=0),
        )
        self.db = ShardedDatabase(config, registry=registry)
        self.client = self.db.connect()
        self.client.execute(
            "CREATE TABLE t (k INTEGER PRIMARY KEY, g INTEGER, v INTEGER, "
            "pad TEXT, CHAIN (v))"
        )
        self.db.load_rows("t", self.initial)

    def tear_down(self):
        if self.db is not None:
            self.db.close()
        super().tear_down()

    def final_checks(self, registry):
        table = self.client.execute("SELECT k, g, v FROM t")
        failures = self.table_equals_model(table.rows, self.model_rows)
        self.db.verify_now()
        return failures


WORKLOADS = {
    cls.name: cls for cls in (OltpDurable, AnalyticsScan, ServiceZipf, FleetMixed)
}
