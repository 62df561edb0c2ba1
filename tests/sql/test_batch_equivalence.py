"""Chunked execution is a pure performance change, not a semantic one.

The engine must produce bit-identical results at every chunk length
(``repro.storage.config.BATCH_ROWS``) — at 1 a chunk boundary falls
between every two rows, so it is the reference. Two properties are
checked over the seeded fuzzer corpus:

1. differential correctness vs SQLite holds at each chunk length, and
2. the per-query result streams (and a digest over them) are identical
   across chunk lengths {1, 7, 1024}, with a clean verification pass at
   the end of each run.
"""

import hashlib
import random

import pytest

from tests.conftest import chunk_rows
from tests.sql.test_sqlite_differential import (
    QueryFuzzer,
    _canon,
    _fuzz_corpus,
    _fuzz_setup,
)

BATCH_SIZES = [1, 7, 1024]


@pytest.mark.parametrize("batch_size", BATCH_SIZES)
def test_fuzzer_corpus_matches_sqlite_at_batch_size(batch_size):
    with chunk_rows(batch_size):
        _fuzz_corpus(seed=17, queries=40)


def _run_corpus(batch_size, seed, queries=40, reseed_data_every=20):
    """Replay the seeded corpus at one chunk length; return per-query rows.

    The same seed drives data and query generation, so every chunk
    length sees the same tables and the same statements.
    """
    rng = random.Random(seed)
    fuzzer = QueryFuzzer(rng)
    storage = engine = None
    results = []
    with chunk_rows(batch_size):
        for index in range(queries):
            if index % reseed_data_every == 0:
                storage, engine, _connection = _fuzz_setup(rng)
            sql, exact_order = fuzzer.next_query()
            rows = engine.execute(sql).rows
            results.append(list(rows) if exact_order else _canon(rows))
        storage.verify_now()  # the batched read path left a clean RS/WS state
    return results


def _digest(results):
    payload = repr(results).encode()
    return hashlib.sha256(payload).hexdigest()


@pytest.mark.parametrize("seed", [17, 53])
def test_batch_sizes_agree_exactly(seed):
    reference = _run_corpus(1, seed)
    reference_digest = _digest(reference)
    for batch_size in BATCH_SIZES[1:]:
        results = _run_corpus(batch_size, seed)
        for index, (expected, got) in enumerate(zip(reference, results)):
            assert expected == got, (
                f"chunk length {batch_size} seed={seed} query #{index} "
                "diverged from chunk length 1"
            )
        assert _digest(results) == reference_digest
