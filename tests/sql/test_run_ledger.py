"""A plan is a template and a run owns its numbers.

Pins the run-ledger invariant: plan nodes are immutable after the
planner returns (a cached template is executed as it is, by any number
of threads), and a run's numbers exist only in the ledger
(:class:`~repro.obs.trace_context.TraceContext`) of whoever is looking.
"""

import ast
import threading
from pathlib import Path

import pytest

import repro
from repro.catalog.catalog import Catalog
from repro.core.config import VeriDBConfig
from repro.core.database import VeriDB
from repro.obs import NULL_REGISTRY, MetricsRegistry, TraceContext, scoped_registry
from repro.sql.executor import QueryEngine
from repro.sql.operators import FusedScanFilterProjectOp
from repro.storage.engine import StorageEngine
from tests.conftest import chunk_rows

ROWS = 400


@pytest.fixture(autouse=True)
def _chunks_of_64():
    """Several chunks per scan, so concurrent runs interleave mid-scan."""
    with chunk_rows(64):
        yield


def make_engine(registry):
    storage = StorageEngine(registry=registry)
    engine = QueryEngine(Catalog(), storage)
    engine.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, v INTEGER)")
    for start in range(0, ROWS, 50):
        values = ", ".join(f"({i}, {i * 3})" for i in range(start, start + 50))
        engine.execute(f"INSERT INTO t VALUES {values}")
    return engine


def node_state(plan):
    return [(id(op), dict(vars(op))) for op in plan.walk()]


# ----------------------------------------------------------------------
# (a) templates are executed as they are and never written
# ----------------------------------------------------------------------
@pytest.mark.parametrize("registry", [NULL_REGISTRY, MetricsRegistry()])
def test_cached_templates_run_unchanged(registry):
    engine = make_engine(registry)
    shapes = {
        "SELECT id, v FROM t WHERE id >= ? AND v > 30": (100,),
        "UPDATE t SET v = v + 1 WHERE id >= ? AND id < 110": (100,),
        "DELETE FROM t WHERE id >= ? AND id < 10": (5,),
    }
    for sql, params in shapes.items():
        entry = engine.statement_entry(sql)
        template = entry.select_template or entry.filter_template
        assert template is not None
        before = node_state(template)
        for traced in (False, True, False):
            if traced:
                with TraceContext(qid="looking") as trace:
                    result = engine.execute(sql, params=params)
                # the ledger's frames are keyed by the template's own
                # nodes: the template itself is what ran
                assert trace.op_stats_if_traced(template) is not None
            else:
                result = engine.execute(sql, params=params)
            assert engine.statement_entry(sql) is entry
            if entry.select_template is not None:
                assert result.plan is entry.select_template
        assert node_state(template) == before


# ----------------------------------------------------------------------
# (b) one shared template, eight concurrent runs, eight disjoint ledgers
# ----------------------------------------------------------------------
def test_concurrent_runs_of_one_template_keep_their_own_numbers():
    engine = make_engine(MetricsRegistry())
    prepared = engine.prepare("SELECT id, v FROM t WHERE id >= ? AND id < ?")
    bounds = [(10 * i, 10 * i + 17 * (i + 1)) for i in range(8)]

    def run(params):
        with TraceContext(qid=str(params)) as trace:
            result = prepared.execute(params)
        per_node = [
            (frame.rows_out, frame.verified_reads)
            for frame in map(trace.op_stats_if_traced, result.plan.walk())
        ]
        return result.plan, result.rows, per_node

    # what each binding reads when it has the engine to itself
    alone = [run(params) for params in bounds]
    template = alone[0][0]
    for (plan, rows, per_node), (lo, hi) in zip(alone, bounds):
        assert plan is template
        assert [row[0] for row in rows] == list(range(lo, hi))
        # the fused node kept this binding's rows and read nothing; its
        # scan leaf fed the whole chain and did every verified read
        assert per_node[0] == (hi - lo, 0)
        assert per_node[-1][0] == ROWS and per_node[-1][1] >= ROWS

    barrier = threading.Barrier(len(bounds))
    together = [None] * len(bounds)
    failures = []

    def worker(index):
        try:
            barrier.wait(timeout=10)
            for _ in range(5):
                together[index] = run(bounds[index])
                if together[index] != alone[index]:
                    failures.append(index)
        except Exception as error:  # pragma: no cover - failure path
            failures.append(repr(error))

    threads = [
        threading.Thread(target=worker, args=(i,)) for i in range(len(bounds))
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert not failures
    assert together == alone


def test_a_real_registry_folds_each_statement_into_operator_histograms():
    registry = MetricsRegistry()
    engine = make_engine(registry)

    def count(name):
        return registry.snapshot().get(name, {}).get("count", 0)

    before = [count(name) for name in ("sql.scan_seconds", "sql.other_seconds")]
    assert engine.execute("SELECT id, v + 1 FROM t WHERE v > 30").rowcount == ROWS - 11
    assert count("sql.op.FusedScanFilterProjectOp.self_seconds") == 1
    assert [count("sql.scan_seconds"), count("sql.other_seconds")] == [
        n + 1 for n in before
    ]


# ----------------------------------------------------------------------
# (c) nobody looking: the operator layer never reads a clock
# ----------------------------------------------------------------------
def test_dark_path_reads_no_clock(monkeypatch, tmp_path):
    engine = make_engine(NULL_REGISTRY)
    sql = "SELECT id, v + 1 FROM t WHERE v > 30"
    plan = engine.statement_entry(sql).select_template
    assert isinstance(plan, FusedScanFilterProjectOp)

    def no_clock():
        raise AssertionError("clock read with no ledger active")

    # the portal and the executor time their phase histograms; the
    # rest time operators into an active ledger
    for module in (
        "repro.core.portal",
        "repro.sql.executor",
        "repro.obs.trace_context",
        "repro.sql.operators.join",
        "repro.shard.plan",
    ):
        monkeypatch.setattr(f"{module}.perf_counter", no_clock)
    # the durable write and the epoch pass time nothing: a clock that
    # comes back to one of these modules is caught here too
    for module in (
        "repro.wal.log",
        "repro.storage.table_store",
        "repro.memory.verified",
        "repro.memory.verifier",
    ):
        monkeypatch.setattr(f"{module}.perf_counter", no_clock, raising=False)
    assert engine.execute(sql).rowcount == ROWS - 11
    assert sum(len(batch) for batch in plan.timed_batches()) == ROWS - 11
    # the attested path too: client -> enclave -> portal -> engine
    with scoped_registry(NULL_REGISTRY):
        db = VeriDB(VeriDBConfig(key_seed=3, wal_dir=str(tmp_path)))
        db.sql("CREATE TABLE kv (k INTEGER PRIMARY KEY, v INTEGER)")
        client = db.connect()
        assert client.execute("INSERT INTO kv VALUES (1, 10)").rowcount == 1
        assert client.execute("SELECT v FROM kv WHERE k = 1").rows == ((10,),)
        db.verify_now()
    db.wal.close()
    # and with someone looking, the same plan does read it
    with pytest.raises(AssertionError, match="clock read"):
        with TraceContext(qid="looking"):
            pass


# ----------------------------------------------------------------------
# run state cannot creep back onto plan nodes (an ast scan of src)
# ----------------------------------------------------------------------
def _plan_node_classes(trees):
    """Names of every class in ``src`` that derives from PhysicalOp."""
    bases = {
        node.name: [b.id for b in node.bases if isinstance(b, ast.Name)]
        for tree in trees.values()
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef)
    }
    found = {"PhysicalOp"}
    while True:
        more = {
            name
            for name, parents in bases.items()
            if name not in found and found.intersection(parents)
        }
        if not more:
            return found
        found |= more


def _attribute_writes(node):
    """(target expression, attribute) of every attribute store under node."""
    for child in ast.walk(node):
        if isinstance(child, ast.Attribute) and isinstance(
            child.ctx, (ast.Store, ast.Del)
        ):
            yield child.value, child.attr


def test_no_plan_node_attribute_is_written_outside_init_and_planner():
    root = Path(repro.__file__).parent
    trees = {
        path: ast.parse(path.read_text(encoding="utf-8"))
        for path in root.rglob("*.py")
    }
    node_classes = _plan_node_classes(trees)
    assert {"SeqScanOp", "ShardGatherOp", "FusedScanFilterProjectOp"} <= node_classes

    node_attrs = set()
    offenders = []
    for path, tree in trees.items():
        for cls in ast.walk(tree):
            if not (isinstance(cls, ast.ClassDef) and cls.name in node_classes):
                continue
            for method in cls.body:
                if not isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                for target, attr in _attribute_writes(method):
                    if not (isinstance(target, ast.Name) and target.id == "self"):
                        continue
                    if method.name == "__init__":
                        node_attrs.add(attr)
                    else:
                        offenders.append(
                            f"{path.relative_to(root)}: "
                            f"{cls.name}.{method.name} writes self.{attr}"
                        )
    assert not offenders, offenders

    # nor does any module that handles plans write a node's attribute
    # through another name (`op.ordering = …`, `fragment.rows_out = …`)
    # — only the planner, before it returns. `self.x` stores belong to
    # the (other) class being defined.
    for path, tree in trees.items():
        where = path.relative_to(root)
        if where.parts[0] not in ("sql", "shard", "obs") or where == Path(
            "sql/planner.py"
        ):
            continue
        for target, attr in _attribute_writes(tree):
            if attr in node_attrs and not (
                isinstance(target, ast.Name) and target.id == "self"
            ):
                offenders.append(f"{where}: writes {ast.unparse(target)}.{attr}")
    assert not offenders, offenders
