"""The client ↔ portal protocol of Section 5.1, byte for byte.

A fixed key seed, a fixed qid salt and a fixed statement sequence make
every tag and digest of a real client → ECall → portal round trip
reproducible, so the golden hex below pins the whole wire protocol: the
16-byte qid layout, the length-prefixed MAC parts, the codec-encoded
parameters, the endorsement bytes (verified and flagged unverified), the
result digest and the per-tenant key. Any change to the portal or client
path that moves one byte fails here rather than at a deployed client.
"""

import datetime

import pytest

from repro.core.client import VeriDBClient
from repro.core.config import VeriDBConfig
from repro.core.database import VeriDB
from repro.core.portal import digest_result

SALT = bytes(range(8))

ROWS = [
    (1, "alpha", 1.5, datetime.date(2021, 3, 4), True),
    (2, "β-ü", None, datetime.date(1999, 12, 31), False),
    (3, None, -0.25, None, None),
]

SELECT_ALL = "SELECT id, name, score, born, flag FROM m ORDER BY id"
SELECT_PARAMS = (
    "SELECT id FROM m WHERE id = ? OR name = ? OR name = ? "
    "OR score = ? OR born = ?"
)
PARAMS = (2, "alpha", None, -0.25, datetime.date(2021, 3, 4))
SELECT_MISS = "SELECT id, name FROM m WHERE id = ?"

GOLDEN = {
    "mac_plain": "1e1b5793e62be90cef28f1cae582b11e44a89f885dda9f95d548966dc8c59ff7",
    "endorse_plain": "d61b1e804dd1d1ceb02b0a9f342b9465da029d2e0b5505cb973b82760aa8fbbe",
    "digest_rows": "421486bfcd37a9599200f184bbe6af2f8f645a398d9338dd70d8c00316676df2",
    "mac_params": "2fc45e0c4f035bd5d529ccbcf2978715924dabc97f546cd44514c6c3d50d004f",
    "endorse_params": "9ba990349840461a3672c7304dea4f7497bcdd4a87529fc088b59542cd2db699",
    "mac_miss": "36cb1170b5521c841977948dde9958bccfde7989f2b74b9a3ea06e5735a3492c",
    "digest_empty": "b2f4f518ebe5f41e855fd579e1ef669ab89f38af6224fd2a7dfe389b850a1217",
    "endorse_unverified": "13062bd3821be7db24c23eba58746ef8d42d042ce84d35b313ba1869a751c54d",
    "mac_tenant": "91c72f307d12b5b410a906f0bc480f7d312de370ea1e63c2ea05937e504c1ba7",
    "endorse_tenant": "4d39cfa0d6b2fd74deecffbc3c9a3d87c242b5886f7bcc228f97574f7c8b5faf",
}


class Wire:
    """A transport that records every query and response it carries."""

    def __init__(self, db):
        self.db = db
        self.queries = []
        self.responses = []

    def __call__(self, query):
        self.queries.append(query)
        response = self.db.enclave.ecall("submit_query", query)
        self.responses.append(response)
        return response


@pytest.fixture
def db():
    database = VeriDB(VeriDBConfig(key_seed=7))
    database.sql(
        "CREATE TABLE m (id INTEGER PRIMARY KEY, name TEXT, score FLOAT, "
        "born DATE, flag BOOLEAN)"
    )
    database.load_rows("m", ROWS)
    return database


def connect(db, tenant=None):
    wire = Wire(db)
    if tenant is None:
        key = db.enclave.keychain.mac_key
    else:
        key = db.enclave.keychain.key_for(f"tenant-mac:{tenant}")
        db.portal.register_tenant_key(tenant, key)
    client = VeriDBClient(wire, key, tenant=tenant)
    client._qid_salt = SALT
    return client, wire


def test_round_trip_bytes_are_pinned(db):
    client, wire = connect(db)

    result = client.execute(SELECT_ALL)
    assert result.rows == tuple(ROWS)
    assert wire.queries[0].qid == SALT + (0).to_bytes(8, "little")
    assert wire.queries[0].mac.hex() == GOLDEN["mac_plain"]
    assert wire.responses[0].endorsement.hex() == GOLDEN["endorse_plain"]
    assert wire.responses[0].result_digest.hex() == GOLDEN["digest_rows"]

    result = client.execute(SELECT_PARAMS, params=PARAMS)
    assert result.rows == ((1,), (2,), (3,))
    assert wire.queries[1].mac.hex() == GOLDEN["mac_params"]
    assert wire.responses[1].endorsement.hex() == GOLDEN["endorse_params"]

    result = client.execute(SELECT_MISS, params=(99,))
    assert result.rows == () and result.rowcount == 0
    assert wire.queries[2].mac.hex() == GOLDEN["mac_miss"]
    assert wire.responses[2].result_digest.hex() == GOLDEN["digest_empty"]

    # a response served while the verifier is down carries the
    # authenticated flag inside its endorsement
    db.portal._verifier_degraded = lambda: True
    result = client.execute(SELECT_MISS, params=(99,))
    assert result.verified is False
    assert wire.responses[3].endorsement.hex() == GOLDEN["endorse_unverified"]
    assert [r.sequence_number for r in wire.responses] == [1, 2, 3, 4]


def test_tenant_key_bytes_are_pinned(db):
    client, wire = connect(db, tenant="acme")
    result = client.execute(SELECT_MISS, params=(1,))
    assert result.rows == ((1, "alpha"),)
    assert wire.queries[0].tenant == "acme"
    assert wire.queries[0].mac.hex() == GOLDEN["mac_tenant"]
    assert wire.responses[0].endorsement.hex() == GOLDEN["endorse_tenant"]


def test_digest_result_is_pinned():
    columns = ("id", "name", "score", "born", "flag")
    assert digest_result(columns, tuple(ROWS), 3).hex() == GOLDEN["digest_rows"]
    assert digest_result(("id", "name"), (), 0).hex() == GOLDEN["digest_empty"]
