"""Property: the record cache is invisible to results and verification.

The trusted cache (``StorageConfig.cache_bytes``) is a pure latency
optimization — for any mixed workload (point reads, range scans,
inserts, deletes, updates, mid-stream verification passes) a
cache-enabled table must return byte-identical
results to a cache-disabled one, leave the *data* content of the
untrusted store identical address by address, and close every epoch
cleanly. Timestamps are the one permitted divergence: a hit skips the
Algorithm-1 re-stamp by design, so cells age differently — which is
exactly why the comparison is over data bytes, not raw cells.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.catalog.schema import Column, Schema
from repro.catalog.types import IntegerType, TextType
from repro.storage.config import StorageConfig
from repro.storage.engine import StorageEngine
from repro.storage.table_store import VerifiableTable
from tests.conftest import chunk_rows

CACHE_BYTES = 256 * 1024


def make_table(cache_bytes: int):
    schema = Schema(
        columns=[
            Column("pk", IntegerType()),
            Column("grp", IntegerType(), nullable=False),
            Column("note", TextType()),
        ],
        primary_key="pk",
        chain_columns=("grp",),
    )
    engine = StorageEngine(
        StorageConfig(
            page_size=1024,
            cache_bytes=cache_bytes,
        )
    )
    return VerifiableTable("t", schema, engine), engine


_op = st.one_of(
    st.tuples(
        st.just("insert"),
        st.integers(0, 30),
        st.integers(0, 5),
        st.text(max_size=12),
    ),
    st.tuples(st.just("delete"), st.integers(0, 30)),
    st.tuples(
        st.just("update"),
        st.integers(0, 30),
        st.integers(0, 5),
        st.text(max_size=12),
    ),
    st.tuples(st.just("get"), st.integers(0, 30)),
    st.tuples(st.just("scan"), st.integers(0, 30), st.integers(0, 30)),
    st.tuples(st.just("verify")),
)


def apply(table, engine, op):
    """Run one op, returning its observable result."""
    kind = op[0]
    if kind == "insert":
        _, pk, grp, note = op
        try:
            table.insert((pk, grp, note))
            return ("ok",)
        except Exception as exc:
            return ("err", type(exc).__name__)
    if kind == "delete":
        return table.delete(op[1])
    if kind == "update":
        _, pk, grp, note = op
        return table.update(pk, {"grp": grp, "note": note})
    if kind == "get":
        row, proof = table.get(op[1])
        proof.check()
        return row
    if kind == "scan":
        lo, hi = min(op[1], op[2]), max(op[1], op[2])
        return table.scan(lo=lo, hi=hi)
    # mid-stream epoch close: flushes the cache, and must never alarm
    # on this honest history
    engine.verify_now()
    return ("verified",)


@settings(max_examples=25)
@given(ops=st.lists(_op, max_size=50))
@pytest.mark.parametrize("batch_size", [1, 7, 256])
def test_cache_is_result_invisible(batch_size, ops):
    with chunk_rows(batch_size):
        plain_table, plain_engine = make_table(0)
        cached_table, cached_engine = make_table(CACHE_BYTES)
        assert cached_engine.cache is not None
        for op in ops:
            plain_out = apply(plain_table, plain_engine, op)
            cached_out = apply(cached_table, cached_engine, op)
            assert plain_out == cached_out, op
        # final contents agree row for row
        assert cached_table.seq_scan() == plain_table.seq_scan()
        # the untrusted stores hold identical data at identical addresses
        plain_cells = {
            addr: cell.data for addr, cell in plain_engine.memory.cells()
        }
        cached_cells = {
            addr: cell.data for addr, cell in cached_engine.memory.cells()
        }
        assert cached_cells == plain_cells
        # both histories are honest: the epoch closes with no alarm, and
        # the close leaves the cache empty (epoch-flush regression guard)
        plain_engine.verify_now()
        cached_engine.verify_now()
        assert len(cached_engine.cache) == 0
