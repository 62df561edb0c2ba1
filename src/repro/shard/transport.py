"""Shard links: the untrusted wire between coordinator and workers.

Both transports speak the same envelope protocol and present the same
``call(op, payload)`` surface, so everything above them — router,
proxy stores, epoch close — is transport-agnostic:

* :class:`InprocShardLink` holds the :class:`~repro.shard.worker.ShardWorker`
  as an in-process object. Requests still round-trip through sealed
  bytes, and the link exposes ``reply_filter`` — a hook the security
  tests use to tamper with, drop, or re-deliver raw reply bytes,
  playing the adversarial transport.
* :class:`ProcessShardLink` runs the worker in its own
  ``multiprocessing`` process over a duplex pipe. This is the
  configuration that escapes the GIL: N workers burn N cores while the
  coordinator threads merely block on their pipes.

A link serializes its request/reply pairs under a lock (one worker is
serial anyway), so concurrent coordinator threads — the scatter pool,
the query service — can share it safely.
"""

from __future__ import annotations

import multiprocessing
import threading
from typing import Any, Optional

from repro.crypto.mac import MessageAuthenticator
from repro.errors import ShardReplyLost, ShardWorkerDown
from repro.shard.envelope import (
    FRAGMENT_MISS,
    ReplyVerifier,
    decode_error,
    seal_request,
)
from repro.shard.worker import ShardWorker, worker_main

# workers are forked where the platform allows (cheap, inherits the
# loaded interpreter); spawn elsewhere — both re-derive all key
# material from the picklable ShardConfig
_MP = multiprocessing.get_context(
    "fork" if "fork" in multiprocessing.get_all_start_methods() else "spawn"
)


class _BaseShardLink:
    def __init__(self, shard_id: int, link_key: bytes, timeout: float):
        self.shard_id = shard_id
        self.timeout = timeout
        self._mac = MessageAuthenticator(link_key)
        self._verifier = ReplyVerifier(shard_id, self._mac)
        self._request_id = 0
        self._lock = threading.Lock()
        #: test hook: callable(raw_reply_bytes) -> bytes | None, applied
        #: before verification; returning None models a dropped reply
        self.reply_filter = None

    def call(self, op: str, payload: Any) -> Any:
        """One authenticated round trip; raises the worker's typed error
        and returns :data:`FRAGMENT_MISS` for a fragment-miss reply."""
        with self._lock:
            self._request_id += 1
            request_id = self._request_id
            blob = seal_request(
                self._mac, self.shard_id, request_id, op, payload
            )
            reply = self._transfer(blob)
            if self.reply_filter is not None:
                reply = self.reply_filter(reply)
            if reply is None:
                raise ShardReplyLost(
                    f"shard {self.shard_id} reply to request {request_id} "
                    f"({op}) was lost in transport",
                    shard=self.shard_id,
                )
            status, data = self._verifier.open(reply, request_id)
        if status == "err":
            raise decode_error(data, self.shard_id)
        return FRAGMENT_MISS if status == "miss" else data

    def _transfer(self, blob: bytes) -> Optional[bytes]:
        raise NotImplementedError

    def restart(self) -> None:
        """Replace a dead worker with a fresh one (recovery path).

        The fresh worker's reply sequence numbers restart at 1, so the
        verifier's replay floor resets with it — replies recorded from
        the dead worker still cannot be spliced in, because request ids
        keep increasing across the restart and every reply must answer
        the exact outstanding request id.
        """
        raise NotImplementedError

    def _reset_verifier(self) -> None:
        self._verifier = ReplyVerifier(self.shard_id, self._mac)

    def close(self) -> None:
        pass


class InprocShardLink(_BaseShardLink):
    """Worker object in-process, envelopes intact (test/CI default)."""

    def __init__(self, shard_id: int, config, link_key: bytes):
        super().__init__(shard_id, link_key, config.request_timeout)
        self._config = config
        self._link_key = link_key
        self.worker = ShardWorker(shard_id, config, link_key)

    def _transfer(self, blob: bytes) -> bytes:
        return self.worker.handle(blob)

    def restart(self) -> None:
        with self._lock:
            self.worker = ShardWorker(
                self.shard_id, self._config, self._link_key
            )
            self._reset_verifier()

    def close(self) -> None:
        try:
            self.call("close", {})
        except Exception:
            pass


class ProcessShardLink(_BaseShardLink):
    """Worker in its own process over a duplex pipe (real parallelism)."""

    def __init__(self, shard_id: int, config, link_key: bytes):
        super().__init__(shard_id, link_key, config.request_timeout)
        self._config = config
        self._link_key = link_key
        self._spawn()

    def _spawn(self) -> None:
        self._conn, child_conn = _MP.Pipe(duplex=True)
        self._process = _MP.Process(
            target=worker_main,
            args=(child_conn, self.shard_id, self._config, self._link_key),
            daemon=True,
            name=f"veridb-shard-{self.shard_id}",
        )
        self._process.start()
        child_conn.close()

    def restart(self) -> None:
        with self._lock:
            try:
                self._conn.close()
            except OSError:
                pass
            if self._process.is_alive():
                self._process.terminate()
            self._process.join(timeout=5.0)
            self._spawn()
            self._reset_verifier()

    def _transfer(self, blob: bytes) -> bytes:
        try:
            self._conn.send_bytes(blob)
        except (BrokenPipeError, OSError) as error:
            raise ShardWorkerDown(
                f"shard {self.shard_id} worker process is gone: {error}",
                shard=self.shard_id,
            ) from error
        if not self._conn.poll(self.timeout):
            raise ShardReplyLost(
                f"shard {self.shard_id} produced no reply within "
                f"{self.timeout}s",
                shard=self.shard_id,
            )
        try:
            return self._conn.recv_bytes()
        except (EOFError, OSError) as error:
            raise ShardWorkerDown(
                f"shard {self.shard_id} worker process died mid-reply: "
                f"{error}",
                shard=self.shard_id,
            ) from error

    def close(self) -> None:
        try:
            self.call("close", {})
        except Exception:
            pass
        self._conn.close()
        self._process.join(timeout=5.0)
        if self._process.is_alive():
            self._process.terminate()
            self._process.join(timeout=5.0)


def build_link(shard_id: int, config, link_key: bytes) -> _BaseShardLink:
    if config.transport == "process":
        return ProcessShardLink(shard_id, config, link_key)
    return InprocShardLink(shard_id, config, link_key)
