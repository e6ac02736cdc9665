"""Thread-pooled RPC server exposing a TieraServer's API over TCP.

Mirrors the prototype's deployment: "The Tiera server is deployed as a
Thrift server on an EC2 instance … the size of the thread pool dedicated
to service client requests [comes from] the configuration file" (§3).
The pool size is taken from the instance's control layer.

A frame whose boundary is lost (a length over ``MAX_FRAME``, EOF
mid-frame) closes its connection; anything else gets a coded reply:
a header that is not JSON, or not an object, or params of the wrong
shape is ``BAD_REQUEST``, and the same connection serves on.
"""

from __future__ import annotations

import logging
import socket
import threading
from concurrent.futures import ThreadPoolExecutor
from functools import partial
from typing import Any, Dict, Optional, Set, Tuple

from repro.core import api, features
from repro.core.api import BatchOp
from repro.core.errors import (
    BAD_REQUEST,
    INTERNAL,
    TieraError,
    UNKNOWN_METHOD,
    code_for,
)
from repro.core.server import TieraServer
from repro.rpc.protocol import (
    MalformedHeader,
    decode_bytes,
    encode_bytes,
    read_frame,
    write_frame,
)
from repro.simcloud.errors import SimCloudError

#: a request's params.  Every ``_method_*`` takes them with ``decode``
#: and ``encode``, the request's payload codec (see :meth:`_handle`).
Params = Dict[str, Any]

_log = logging.getLogger(__name__)


class TieraRpcServer:
    """Serves the StorageAPI, ManagementAPI and introspection methods of
    one Tiera façade (a single instance's server or a shard router)."""

    def __init__(
        self,
        tiera: TieraServer,
        host: str = "127.0.0.1",
        port: int = 0,
        pool_size: int = 8,
    ):
        self.tiera = tiera
        self._pool = ThreadPoolExecutor(
            max_workers=pool_size, thread_name_prefix="tiera-rpc"
        )
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind((host, port))
        self._listener.listen(64)
        self.host, self.port = self._listener.getsockname()
        self._running = False
        self._accept_thread: Optional[threading.Thread] = None
        self._op_lock = threading.Lock()
        #: open client connections, shut down by :meth:`stop`; guarded
        #: by ``_conn_lock`` together with ``_running``.
        self._conns: Set[socket.socket] = set()
        self._conn_lock = threading.Lock()

    # -- lifecycle ----------------------------------------------------------

    def start(self) -> "TieraRpcServer":
        self._running = True
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="tiera-rpc-accept", daemon=True
        )
        self._accept_thread.start()
        return self

    def stop(self) -> None:
        """Stop accepting and shut every open connection, so no pool
        thread stays blocked on an idle client."""
        with self._conn_lock:
            self._running = False
            conns, self._conns = self._conns, set()
        for sock in (self._listener, *conns):
            try:
                # shutdown, not just close: it wakes a thread blocked in
                # accept() or recv() on the socket.
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            sock.close()
        self._pool.shutdown(wait=False)
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=1.0)

    def __enter__(self) -> "TieraRpcServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    # -- connection handling ---------------------------------------------------

    def _accept_loop(self) -> None:
        while True:
            try:
                conn, _ = self._listener.accept()
            except OSError:
                return
            with self._conn_lock:
                if not self._running:
                    conn.close()
                    return
                self._conns.add(conn)
                self._pool.submit(self._serve_connection, conn)

    def _serve_connection(self, conn: socket.socket) -> None:
        try:
            while self._running:
                try:
                    frame = read_frame(conn)
                except MalformedHeader as exc:
                    reply = _error(None, "BadRequest", str(exc), BAD_REQUEST)
                except (OSError, ValueError):
                    return          # the frame boundary is lost
                else:
                    if frame is None:
                        return
                    reply = self._handle(*frame)
                try:
                    write_frame(conn, *reply)
                except (OSError, ValueError):
                    return
        finally:
            with self._conn_lock:
                self._conns.discard(conn)
            conn.close()

    def _handle(self, request: Any, payload) -> Tuple[Dict[str, Any], bytes]:
        """Answer one request: ``(response header, payload section)``.
        The method's byte fields resolve against ``payload`` and its
        reply's are appended to a fresh section."""
        if not isinstance(request, dict):
            return _error(None, "BadRequest", "a request is a JSON object", BAD_REQUEST)
        request_id = request.get("id")
        method_name = request.get("method", "")
        handler = getattr(self, f"_method_{method_name}", None)
        if handler is None:
            return _error(request_id, "UnknownMethod", str(method_name), UNKNOWN_METHOD)
        out = bytearray()
        try:
            params = api.check_wire(_object(request.get("params"), "params"))
            # The instance's data structures are not thread-safe; one
            # operation at a time, like a single control-layer worker.
            with self._op_lock:
                result = handler(
                    params, partial(decode_bytes, payload),
                    partial(encode_bytes, out),
                )
        except (TieraError, SimCloudError) as exc:
            return _error(request_id, type(exc).__name__, str(exc), code_for(exc))
        except (KeyError, ValueError, TypeError) as exc:
            return _error(request_id, "BadRequest", str(exc), BAD_REQUEST)
        except Exception as exc:
            # Not BAD_REQUEST: an AttributeError here is a verb the
            # façade lacks — a bug, which must not pass for a malformed
            # request — so its traceback is logged; the connection
            # still serves on.
            _log.exception("rpc method %s failed", method_name)
            return _error(request_id, type(exc).__name__, str(exc), INTERNAL)
        return {"id": request_id, "result": result}, out

    # -- methods ------------------------------------------------------------------

    def _method_put_object(self, params: Params, decode, encode) -> Dict[str, Any]:
        tags = params.get("tags")
        result = self.tiera.put_object(
            params["key"],
            decode(params["data"]),
            tags=list(tags) if tags else None,
        )
        return result.to_wire(encode)

    def _method_get_object(self, params: Params, decode, encode) -> Dict[str, Any]:
        result = self.tiera.get_object(
            params["key"], prefer=params.get("prefer")
        )
        return result.to_wire(encode)

    def _method_delete_object(self, params: Params, decode, encode) -> Dict[str, Any]:
        return self.tiera.delete_object(params["key"]).to_wire(encode)

    def _method_batch(self, params: Params, decode, encode) -> Dict[str, Any]:
        """Run a batch of ops, overlapped server-side in virtual time.

        Item failures come back inside their envelopes (never as an RPC
        error); an over-limit batch raises backpressure out of
        ``execute_batch``, which :meth:`_handle` maps to the
        ``BACKPRESSURE`` error code.
        """
        ops = [BatchOp.from_wire(wire, decode) for wire in params["ops"]]
        batch = self.tiera.execute_batch(
            ops,
            parallelism=int(params.get("parallelism", api.DEFAULT_PARALLELISM)),
        )
        return {
            "results": [r.to_wire(encode) for r in batch.results],
            "latency": batch.latency,
            "parallelism": batch.parallelism,
            "code": batch.code,
        }

    def _method_contains(self, params: Params, decode, encode) -> bool:
        return self.tiera.contains(params["key"])

    def _method_stat(self, params: Params, decode, encode) -> Dict[str, Any]:
        meta = self.tiera.stat(params["key"])
        return {
            "key": meta.key,
            "size": meta.size,
            "locations": sorted(meta.locations),
            "dirty": meta.dirty,
            "tags": sorted(meta.tags),
            "access_count": meta.access_count,
            "version": meta.version,
        }

    def _method_add_tag(self, params: Params, decode, encode) -> bool:
        self.tiera.add_tag(params["key"], params["tag"])
        return True

    def _method_keys(self, params: Params, decode, encode) -> list:
        tag = params.get("tag")
        if tag is not None:
            return self.tiera.keys_with_tag(tag)
        return self.tiera.keys()

    def _method_ping(self, params: Params, decode, encode) -> str:
        return "pong"

    # -- introspection verbs (STATS / TRACE / HEALTH) -----------------------

    def _method_stats(self, params: Params, decode, encode) -> Dict[str, Any]:
        """Observability snapshot: JSON by default, Prometheus text on
        ``format="prometheus"``."""
        from repro.obs.export import render_prometheus, stats_snapshot

        obs = self.tiera.obs
        if params.get("format") == "prometheus":
            return {"format": "prometheus", "text": render_prometheus(obs.metrics)}
        return stats_snapshot(obs, audit_limit=int(params.get("audit_limit", 50)))

    def _method_trace(self, params: Params, decode, encode) -> Dict[str, Any]:
        """Inspect (and optionally toggle) per-request tracing."""
        tracer = self.tiera.obs.tracer
        # Read first: a refused limit must not have toggled tracing.
        traces = tracer.recent(int(params.get("limit", 10)))
        if "enable" in params:
            tracer.enabled = bool(params["enable"])
        return {
            "enabled": tracer.enabled,
            "dropped": tracer.dropped,
            "traces": [span.to_dict() for span in traces],
        }

    def _method_health(self, params: Params, decode, encode) -> Dict[str, Any]:
        return self.tiera.health()

    # -- unified management API ---------------------------------------------

    def _method_configure(self, params: Params, decode, encode) -> Dict[str, Any]:
        """Enable or retune a feature; see :class:`ManagementAPI`.

        Error codes (``UNKNOWN_FEATURE``, ``BAD_CONFIG``, …) ride inside
        the envelope, never as RPC-level errors, so the rehydrated
        result compares equal to the direct façade's.
        """
        options = _object(params.get("options"), "options")
        return self.tiera.configure(params["feature"], **options).to_wire()

    def _method_feature_status(self, params: Params, decode, encode) -> Dict[str, Any]:
        return self.tiera.feature_status(params["feature"]).to_wire()

    def _method_invoke(self, params: Params, decode, encode) -> Dict[str, Any]:
        """Run a feature's action.  The fields the feature table marks
        as bytes travel as payload references, in ``params`` and in
        ``state``."""
        feature, action = params["feature"], params["action"]
        given = features.code_params(
            feature, action, _object(params.get("params"), "params.params"),
            decode,
        )
        result = self.tiera.invoke(feature, action, **given)
        return features.code_state(result, encode).to_wire()

    def _method_tiers(self, params: Params, decode, encode) -> list:
        instance = getattr(self.tiera, "instance", None)
        if instance is None:
            raise ValueError(
                "tiers describes one instance; a shard router has one per "
                "shard (see health()['shards'])"
            )
        return [
            {
                "name": tier.name,
                "kind": tier.kind,
                "capacity": tier.capacity,
                "used": tier.used,
                "available": tier.available,
            }
            for tier in instance.tiers
        ]


def _object(value: Any, what: str) -> Dict[str, Any]:
    """``value`` as a request's params dict: ``{}`` for absent, and
    ``TypeError`` (so ``BAD_REQUEST``) for anything but a JSON object."""
    if value is None:
        return {}
    if not isinstance(value, dict):
        raise TypeError(f"{what} must be a JSON object, not {type(value).__name__}")
    return value


def _error(
    request_id, error_type: str, message: str, code: str
) -> Tuple[Dict[str, Any], bytes]:
    """An error reply: its header, and an empty payload section."""
    return {
        "id": request_id,
        "error": {"code": code, "type": error_type, "message": message},
    }, b""
