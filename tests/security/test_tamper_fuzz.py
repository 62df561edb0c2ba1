"""Property-based soundness fuzz: EVERY out-of-band mutation is caught.

Hypothesis drives an adversary that applies one arbitrary mutation —
any checked cell, any mutation kind — to a populated database. The
property: the next verification pass must raise, no matter which cell
or what mutation. Together with the endorsement tests (no false alarms
on honest runs) this is the core soundness claim of Section 4.1.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.catalog.schema import Column, Schema
from repro.catalog.types import IntegerType, TextType
from repro.errors import VerificationFailure
from repro.memory.adversary import Adversary
from repro.storage.config import StorageConfig
from repro.storage.engine import StorageEngine
from repro.storage.table_store import VerifiableTable

N_ROWS = 24

MUTATIONS = ("flip-bytes", "truncate", "extend", "timestamp", "erase", "replay")


def build(verifier_mode="full"):
    schema = Schema(
        columns=[
            Column("pk", IntegerType()),
            Column("grp", IntegerType(), nullable=False),
            Column("note", TextType()),
        ],
        primary_key="pk",
        chain_columns=("grp",),
    )
    engine = StorageEngine(StorageConfig(verifier_mode=verifier_mode))
    table = VerifiableTable("t", schema, engine)
    for pk in range(N_ROWS):
        table.insert((pk, pk % 5, f"note-{pk}"))
    engine.verify_now()
    return table, engine


def checked_addresses(engine):
    addresses = []
    for page_id in engine.vmem.registered_pages():
        for addr in engine.memory.page_addresses(page_id):
            cell = engine.memory.try_read(addr)
            if cell is not None and cell.checked:
                addresses.append(addr)
    return sorted(addresses)


def apply_mutation(engine, addr, mutation, flip_position):
    adversary = Adversary(engine.memory)
    cell = engine.memory.raw_read(addr)
    data = cell.data
    if mutation == "flip-bytes":
        index = flip_position % len(data)
        tampered = data[:index] + bytes([data[index] ^ 0x5A]) + data[index + 1:]
        adversary.corrupt(addr, tampered)
    elif mutation == "truncate":
        adversary.corrupt(addr, data[:-1] if len(data) > 1 else b"\x00")
    elif mutation == "extend":
        adversary.corrupt(addr, data + b"\x00")
    elif mutation == "timestamp":
        adversary.corrupt_timestamp(addr, max(0, cell.timestamp - 1))
    elif mutation == "erase":
        adversary.erase(addr)
    elif mutation == "replay":
        adversary.observe(addr)
        # a legitimate operation moves the cell forward...
        engine.vmem.read(addr)
        # ...and the adversary restores the earlier state
        adversary.replay(addr)
    else:  # pragma: no cover
        raise AssertionError(mutation)


@settings(max_examples=60)
@given(
    cell_index=st.integers(min_value=0, max_value=10_000),
    mutation=st.sampled_from(MUTATIONS),
    flip_position=st.integers(min_value=0, max_value=10_000),
)
def test_any_single_mutation_detected_full_mode(
    cell_index, mutation, flip_position
):
    table, engine = build("full")
    addresses = checked_addresses(engine)
    addr = addresses[cell_index % len(addresses)]
    apply_mutation(engine, addr, mutation, flip_position)
    with pytest.raises(VerificationFailure):
        engine.verify_now()


@settings(max_examples=30)
@given(
    cell_index=st.integers(min_value=0, max_value=10_000),
    mutation=st.sampled_from(MUTATIONS),
    flip_position=st.integers(min_value=0, max_value=10_000),
)
def test_any_single_mutation_detected_touched_mode(
    cell_index, mutation, flip_position
):
    """The touched-page strategy must not trade away soundness.

    The mutated page may be cold; a legitimate operation touches it (as
    any future access would), after which the pass must alarm.
    """
    from repro.memory.cells import page_of

    table, engine = build("touched")
    addresses = checked_addresses(engine)
    addr = addresses[cell_index % len(addresses)]
    apply_mutation(engine, addr, mutation, flip_position)
    page = page_of(addr)
    # mark the page touched through trusted bookkeeping (any verified op
    # on the page would do this; poking the set directly avoids reading
    # the possibly-erased cell itself)
    engine.vmem._touched.add(page)
    with pytest.raises(VerificationFailure):
        engine.verify_now()


@settings(max_examples=25)
@given(
    ops=st.lists(
        st.tuples(st.integers(0, 2), st.integers(0, 60)), max_size=30
    )
)
def test_no_false_alarms_on_honest_histories(ops):
    """The dual property: honest operation sequences never alarm."""
    table, engine = build("full")
    present = set(range(N_ROWS))
    next_pk = N_ROWS
    for kind, argument in ops:
        if kind == 0:
            table.insert((next_pk, argument % 5, "fresh"))
            present.add(next_pk)
            next_pk += 1
        elif kind == 1 and present:
            victim = sorted(present)[argument % len(present)]
            table.delete(victim)
            present.remove(victim)
        elif kind == 2 and present:
            target = sorted(present)[argument % len(present)]
            table.update(target, {"note": f"updated-{argument}"})
    engine.verify_now()
    engine.verify_now()  # and the next epoch closes cleanly too
