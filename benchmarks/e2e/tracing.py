"""Per-layer tracing taken from outside the program.

The benchmark wraps the layers' *public* functions (listed in
:data:`TARGETS`) for the duration of a traced run and removes every
wrapper afterwards; nothing under ``src/`` knows it is being traced.
Each call becomes a span (layer, function, start, end, parent, op id).
A span's *self time* is its duration minus the part of it that child
spans cover, so the layers' self times add up to the time the driver
spent inside the program — ``trace.coverage`` reports how close.

Two hand-offs cross threads and are stitched explicitly:

* ``QueryService.submit`` blocks the caller while a pool thread runs
  ``Enclave.ecall``; the ecall span adopts the submit span as parent
  (matched on the query id).
* ``ScatterRouter.scatter`` blocks the caller while pool threads run one
  ``ScatterRouter.call`` per shard; the calls adopt the scatter span.
  Those children overlap in wall time (one CPU, one GIL), so the parent
  subtracts the *union* of their intervals and their subtrees' self
  times are scaled by union / sum — parallel parts never add up to more
  than the wall time they occupied.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import sys
import threading
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

#: (layer, module, class or None for a module-level function, attributes)
TARGETS = (
    ("client", "repro.core.client", "VeriDBClient", ("execute",)),
    ("service", "repro.service.service", "QueryService", ("submit",)),
    ("sgx", "repro.sgx.enclave", "Enclave", ("ecall",)),
    ("portal", "repro.core.portal", "QueryPortal", ("submit",)),
    ("sql", "repro.sql.executor", "QueryEngine", ("execute", "execute_prepared")),
    (
        "storage",
        "repro.storage.table_store",
        "VerifiableTable",
        ("get", "insert", "update", "delete", "scan", "seq_scan"),
    ),
    ("storage.codec", "repro.storage.record", "RecordCodec", ("encode", "decode")),
    (
        "memory",
        "repro.memory.verified",
        "VerifiedMemory",
        ("read", "read_many", "write", "alloc", "free"),
    ),
    ("verifier", "repro.memory.verifier", "Verifier", ("run_pass",)),
    ("crypto.mac", "repro.crypto.mac", "MessageAuthenticator", ("tag", "verify")),
    ("crypto.prf", "repro.crypto.prf", "PRF", ("cell", "evaluate")),
    (
        "wal",
        "repro.wal.log",
        "WriteAheadLog",
        (
            "append_ddl_create",
            "append_ddl_drop",
            "append_insert",
            "append_delete",
            "append_update",
            "commit",
            "checkpoint",
        ),
    ),
    ("recovery", "repro.core.recovery", None, ("recover_from_wal",)),
    ("shard", "repro.shard.sharded", "ShardedDatabase", ("execute",)),
    ("shard", "repro.shard.router", "ScatterRouter", ("call", "scatter")),
    (
        "shard.envelope",
        "repro.shard.envelope",
        None,
        ("seal_request", "open_request", "seal_reply"),
    ),
    ("shard.envelope", "repro.shard.envelope", "ReplyVerifier", ("open",)),
    ("shard.worker", "repro.shard.worker", "ShardWorker", ("handle",)),
)

LAYERS = tuple(dict.fromkeys(target[0] for target in TARGETS))

#: pseudo-layer: admission + pool-queue wait inside the service layer
SERVICE_QUEUE = "service.queue"

#: spans kept in full for the JSONL artifact; aggregation covers all
SPAN_CAP = 200_000


def _qid_of(args):
    """The query id of a ``submit(api_key, query)`` / ``ecall(name, query)``."""
    return getattr(args[2], "qid", None) if len(args) > 2 else None


#: cross-thread hand-offs: qualified name -> key function over call args.
#: A *publisher* makes its span adoptable under the key while it runs; an
#: *adopter* that starts on a thread with no open span looks its key up.
PUBLISHERS = {
    "QueryService.submit": _qid_of,
    "ScatterRouter.scatter": lambda args: "scatter",
}
ADOPTERS = {
    "Enclave.ecall": _qid_of,
    "ScatterRouter.call": lambda args: "scatter",
}


class _Frame:
    __slots__ = ("layer", "start", "child", "cross", "index", "op")

    def __init__(self, layer, start, index, op):
        self.layer = layer
        self.start = start
        self.child = 0.0  # seconds covered by same-thread child spans
        self.cross = None  # [(start, end, subtree totals)] adopted from other threads
        self.index = index
        self.op = op


def _union_seconds(intervals) -> float:
    covered, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            covered += end - max(start, reach)
            reach = end
    return covered


class Recorder:
    """Collects spans while ``active``; wrappers pass through otherwise."""

    def __init__(self):
        self.active = False
        self.spans: list[tuple] = []  # (index, layer, function, start, end, parent, op)
        self._next_index = itertools.count()
        self._local = threading.local()
        self._totals: list[dict] = []  # one {layer: [self_s, calls]} per thread
        self._published: dict = {}
        self._lock = threading.Lock()

    # -- per-thread state ----------------------------------------------
    def _state(self):
        local = self._local
        try:
            return local.state
        except AttributeError:
            totals = defaultdict(lambda: [0.0, 0])
            with self._lock:
                self._totals.append(totals)
            local.state = state = {"stack": [], "totals": totals, "op": -1}
            return state

    def set_op(self, op_id: int) -> None:
        """Tag the calling thread's next spans with an end-to-end op id."""
        self._state()["op"] = op_id

    # -- results ---------------------------------------------------------
    def totals(self) -> dict:
        """{layer: (self seconds, calls)} merged over all threads.

        Besides :data:`LAYERS` there is the pseudo-layer
        :data:`SERVICE_QUEUE` — the part of the service layer's self
        time between ``submit`` starting and its ``ecall`` starting.
        """
        merged = {layer: [0.0, 0] for layer in (*LAYERS, SERVICE_QUEUE)}
        for totals in self._totals:
            for layer, (seconds, calls) in list(totals.items()):
                merged[layer][0] += seconds
                merged[layer][1] += calls
        return {layer: tuple(pair) for layer, pair in merged.items()}

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as out:
            for index, layer, function, start, end, parent, op in sorted(
                self.spans
            ):
                out.write(
                    json.dumps(
                        {
                            "id": index,
                            "layer": layer,
                            "name": function,
                            "start": start,
                            "end": end,
                            "parent": parent,
                            "op": op,
                        }
                    )
                )
                out.write("\n")

    # -- the wrapper -------------------------------------------------------
    def wrap(self, fn, layer: str, qualname: str):
        publish_key = PUBLISHERS.get(qualname)
        adopt_key = ADOPTERS.get(qualname)
        recorder = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not recorder.active:
                return fn(*args, **kwargs)
            state = recorder._state()
            stack = state["stack"]
            parent = stack[-1] if stack else None
            adopter = None
            outer_totals = None
            if parent is None and adopt_key is not None:
                adopter = recorder._published.get(adopt_key(args))
                if adopter is not None:
                    # this subtree is accounted separately and handed to
                    # the adopting span, which scales it for overlap
                    outer_totals = state["totals"]
                    state["totals"] = defaultdict(lambda: [0.0, 0])
            index = next(recorder._next_index)
            if parent is not None:
                op = parent.op
            elif adopter is not None:
                op = adopter.op
            else:
                op = state["op"]
            frame = _Frame(layer, perf_counter(), index, op)
            key = None
            if publish_key is not None:
                key = publish_key(args)
                recorder._published[key] = frame
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                if key is not None:
                    recorder._published.pop(key, None)
                recorder._close(
                    state, frame, end, parent, adopter, outer_totals, qualname
                )

        traced.__e2e_traced__ = True
        return traced

    def _close(self, state, frame, end, parent, adopter, outer_totals, qualname):
        duration = end - frame.start
        self_seconds = duration - frame.child
        totals = state["totals"]
        if frame.cross:
            union = _union_seconds([(s, e) for s, e, _ in frame.cross])
            summed = sum(e - s for s, e, _ in frame.cross)
            scale = union / summed if summed > 0 else 0.0
            self_seconds -= union
            for start, _end, subtree in frame.cross:
                for layer, (seconds, calls) in subtree.items():
                    entry = totals[layer]
                    entry[0] += seconds * scale
                    entry[1] += calls
            if frame.layer == "service":
                first = min(start for start, _, _ in frame.cross)
                totals[SERVICE_QUEUE][0] += first - frame.start
        entry = totals[frame.layer]
        entry[0] += self_seconds
        # nested calls inside one layer (verify -> tag, seq_scan -> scan)
        # are one call into the layer
        if parent is None or parent.layer != frame.layer:
            entry[1] += 1
        if parent is not None:
            parent.child += duration
            parent_index = parent.index
        elif adopter is not None:
            if adopter.cross is None:
                adopter.cross = []
            adopter.cross.append((frame.start, end, totals))
            state["totals"] = outer_totals
            parent_index = adopter.index
        else:
            parent_index = None
        if frame.index < SPAN_CAP:
            self.spans.append(
                (
                    frame.index,
                    frame.layer,
                    qualname,
                    frame.start,
                    end,
                    parent_index,
                    frame.op,
                )
            )


def _holders(module_name: str, owner: str | None, attr: str):
    """Every namespace that holds the target callable, with the callable.

    A method lives in its class. A module-level function is also bound,
    by ``from x import f``, in every module that imported it, so all
    loaded ``repro`` modules are searched for the same object.
    """
    module = importlib.import_module(module_name)
    if owner is not None:
        cls = getattr(module, owner)
        return [(cls, cls.__dict__[attr])]
    original = module.__dict__[attr]
    return [
        (candidate, original)
        for name, candidate in list(sys.modules.items())
        if name.startswith("repro")
        and candidate is not None
        and candidate.__dict__.get(attr) is original
    ]


def patched_targets() -> list[str]:
    """Qualified names of targets that currently carry a wrapper."""
    found = []
    for _layer, module_name, owner, attrs in TARGETS:
        for attr in attrs:
            module = importlib.import_module(module_name)
            namespace = getattr(module, owner) if owner else module
            if getattr(namespace.__dict__[attr], "__e2e_traced__", False):
                found.append(f"{module_name}:{owner or ''}.{attr}")
    return found


@contextmanager
def installed(recorder: Recorder):
    """Install the wrappers; remove every one of them on exit."""
    undo = []
    try:
        for layer, module_name, owner, attrs in TARGETS:
            for attr in attrs:
                qualname = f"{owner}.{attr}" if owner else attr
                for namespace, original in _holders(module_name, owner, attr):
                    setattr(
                        namespace, attr, recorder.wrap(original, layer, qualname)
                    )
                    undo.append((namespace, attr, original))
        yield recorder
    finally:
        recorder.active = False
        for namespace, attr, original in reversed(undo):
            setattr(namespace, attr, original)
        left = patched_targets()
        if left:
            raise RuntimeError(f"wrappers left installed: {left}")
