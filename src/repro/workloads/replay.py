"""Operation-trace recording and replay.

A :class:`TraceRecorder` wraps any closed-loop op source and writes one
JSON line per operation (kind, key, payload size, issue time); a
:class:`TraceReplayer` feeds a recorded trace back through a Tiera
server — at the recorded inter-arrival spacing or closed-loop.

This is the tool the paper's future-work §6 gestures at ("generating
appropriate instance configuration ... using abstract application
requirements and workload characteristics"): record a production-shaped
trace once, then replay it against candidate instance specifications
and compare latency/cost.
"""

from __future__ import annotations

import json
import zlib
from typing import List

from repro.core.api import BatchOp
from repro.core.errors import NoSuchObjectError
from repro.core.server import TieraServer
from repro.simcloud.resources import RequestContext
from repro.workloads.ycsb import record_payload


class TraceRecorder:
    """Wraps an op function, logging each operation it performs.

    The wrapped workload must be one of this repo's key-value op
    sources (it calls the server's ``put_object`` / ``get_object`` /
    ``delete_object``); recording hooks the server, so any workload
    composition is captured faithfully.  Failed operations are not
    recorded.
    """

    _VERBS = {"put_object": "put", "get_object": "get", "delete_object": "delete"}

    def __init__(self, server: TieraServer):
        self.server = server
        self.events: List[dict] = []

    def __enter__(self) -> "TraceRecorder":
        for verb, op in self._VERBS.items():
            setattr(self.server, verb, self._recording(verb, op))
        return self

    def _recording(self, verb: str, op: str):
        call = getattr(self.server, verb)

        def recorded(key, *args, ctx=None, **kwargs):
            at = ctx.start if ctx is not None else self.server.clock.now()
            result = call(key, *args, ctx=ctx, **kwargs)
            if result.ok:
                event = {"op": op, "key": key, "at": at}
                if op == "put":
                    event["size"] = result.size
                self.events.append(event)
            return result

        return recorded

    def __exit__(self, *exc) -> None:
        # The hooks were installed as instance attributes shadowing the
        # class methods; removing them restores the originals exactly.
        for verb in self._VERBS:
            try:
                delattr(self.server, verb)
            except AttributeError:
                pass

    def dump(self, path: str) -> int:
        """Write the trace as JSON lines; returns events written."""
        with open(path, "w") as handle:
            for event in self.events:
                handle.write(json.dumps(event, sort_keys=True) + "\n")
        return len(self.events)


def load_trace(path: str) -> List[dict]:
    events = []
    with open(path) as handle:
        for line in handle:
            line = line.strip()
            if line:
                events.append(json.loads(line))
    return events


class TraceReplayer:
    """Replays a recorded trace against a (different) Tiera server.

    ``paced=True`` honours the recorded inter-arrival times (open-loop:
    each op is issued at its recorded offset); ``paced=False`` issues
    ops back-to-back (closed-loop, one at a time).  ``depth`` pipelines
    the replay: events go through ``execute_batch`` in chunks of
    ``depth``, overlapping in virtual time (a paced chunk issues at its
    first event's offset).  Returns per-op latencies so candidate
    instances can be compared.
    """

    def __init__(self, server: TieraServer, events: List[dict]):
        self.server = server
        self.events = events

    def run(self, paced: bool = True, depth: int = 1) -> List[float]:
        if depth < 1:
            raise ValueError("depth must be at least 1")
        if not self.events:
            return []
        clock = self.server.clock
        base = clock.now()
        first_at = self.events[0].get("at", 0.0)
        latencies: List[float] = []
        cursor = base
        for start in range(0, len(self.events), depth):
            chunk = self.events[start:start + depth]
            if paced:
                issue_at = base + max(0.0, chunk[0].get("at", 0.0) - first_at)
            else:
                issue_at = cursor
            if issue_at > clock.now():
                clock.run_until(issue_at)
            ctx = RequestContext(clock, at=issue_at)
            if depth == 1:
                self._apply(chunk[0], ctx)
                latencies.append(ctx.elapsed)
            else:
                batch = self.server.execute_batch(
                    [self._op_for(event) for event in chunk],
                    parallelism=depth,
                    ctx=ctx,
                )
                for item in batch.results:
                    if not item.ok and item.error != NoSuchObjectError.code:
                        item.raise_for_error()
                    latencies.append(item.latency)
            cursor = ctx.time
        if clock.now() < cursor:
            clock.run_until(cursor)
        return latencies

    @staticmethod
    def _op_for(event: dict) -> BatchOp:
        op = event["op"]
        key = event["key"]
        if op == "put":
            # crc32, not hash(): str hashes are salted per process, and a
            # replayed trace must store the same bytes in every process.
            record = zlib.crc32(key.encode("utf-8")) & 0xFFFF
            payload = record_payload(record, 0, event.get("size", 4096))
            return BatchOp.put(key, payload)
        if op == "get":
            return BatchOp.get(key)
        if op == "delete":
            return BatchOp.delete(key)
        raise ValueError(f"unknown trace op {op!r}")

    def _apply(self, event: dict, ctx: RequestContext) -> None:
        op = self._op_for(event)
        if op.op == "put":
            self.server.put_object(op.key, op.data, ctx=ctx).raise_for_error()
            return
        if op.op == "get":
            result = self.server.get_object(op.key, ctx=ctx)
        else:
            result = self.server.delete_object(op.key, ctx=ctx)
        if not result.ok and result.error != NoSuchObjectError.code:
            # trace replayed against a store missing the key is fine
            result.raise_for_error()
