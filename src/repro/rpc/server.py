"""Thread-pooled RPC server exposing a TieraServer's API over TCP.

Mirrors the prototype's deployment: "The Tiera server is deployed as a
Thrift server on an EC2 instance … the size of the thread pool dedicated
to service client requests [comes from] the configuration file" (§3).
The pool size is taken from the instance's control layer.
"""

from __future__ import annotations

import socket
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Dict, Optional

from repro.core import api, features
from repro.core.api import BatchOp
from repro.core.errors import (
    BAD_REQUEST,
    TieraError,
    UNKNOWN_METHOD,
    code_for,
)
from repro.core.server import TieraServer
from repro.rpc.protocol import decode_bytes, encode_bytes, read_frame, write_frame
from repro.simcloud.errors import SimCloudError


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

    # -- lifecycle ----------------------------------------------------------

    def start(self) -> "TieraRpcServer":
        self._running = True
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="tiera-rpc-accept", daemon=True
        )
        self._accept_thread.start()
        return self

    def stop(self) -> None:
        self._running = False
        try:
            self._listener.close()
        except OSError:
            pass
        self._pool.shutdown(wait=False)

    def __enter__(self) -> "TieraRpcServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    # -- connection handling ---------------------------------------------------

    def _accept_loop(self) -> None:
        while self._running:
            try:
                conn, _ = self._listener.accept()
            except OSError:
                return
            self._pool.submit(self._serve_connection, conn)

    def _serve_connection(self, conn: socket.socket) -> None:
        with conn:
            while self._running:
                try:
                    request = read_frame(conn)
                except (OSError, ValueError):
                    return
                if request is None:
                    return
                response = self._handle(request)
                try:
                    write_frame(conn, response)
                except OSError:
                    return

    def _handle(self, request: Dict[str, Any]) -> Dict[str, Any]:
        request_id = request.get("id")
        method_name = request.get("method", "")
        params = request.get("params") or {}
        handler = getattr(self, f"_method_{method_name}", None)
        if handler is None:
            return _error(request_id, "UnknownMethod", method_name, UNKNOWN_METHOD)
        try:
            # The instance's data structures are not thread-safe; one
            # operation at a time, like a single control-layer worker.
            with self._op_lock:
                result = handler(params)
        except (TieraError, SimCloudError) as exc:
            return _error(request_id, type(exc).__name__, str(exc), code_for(exc))
        except (KeyError, ValueError, TypeError) as exc:
            # Not AttributeError: a verb the façade lacks is a bug here,
            # not a malformed request, and must not pass for one.
            return _error(request_id, "BadRequest", str(exc), BAD_REQUEST)
        return {"id": request_id, "result": result}

    # -- methods ------------------------------------------------------------------

    def _method_put_object(self, params: Dict[str, Any]) -> Dict[str, Any]:
        tags = params.get("tags")
        result = self.tiera.put_object(
            params["key"],
            decode_bytes(params["data"]),
            tags=list(tags) if tags else None,
        )
        return result.to_wire(encode_bytes)

    def _method_get_object(self, params: Dict[str, Any]) -> Dict[str, Any]:
        result = self.tiera.get_object(
            params["key"], prefer=params.get("prefer")
        )
        return result.to_wire(encode_bytes)

    def _method_delete_object(self, params: Dict[str, Any]) -> Dict[str, Any]:
        return self.tiera.delete_object(params["key"]).to_wire(encode_bytes)

    def _method_batch(self, params: Dict[str, Any]) -> Dict[str, Any]:
        """Run a batch of ops, overlapped server-side in virtual time.

        Item failures come back inside their envelopes (never as an RPC
        error); an over-limit batch raises backpressure out of
        ``execute_batch``, which :meth:`_handle` maps to the
        ``BACKPRESSURE`` error code.
        """
        ops = [BatchOp.from_wire(wire, decode_bytes) for wire in params["ops"]]
        batch = self.tiera.execute_batch(
            ops,
            parallelism=int(params.get("parallelism", api.DEFAULT_PARALLELISM)),
        )
        return {
            "results": [r.to_wire(encode_bytes) for r in batch.results],
            "latency": batch.latency,
            "parallelism": batch.parallelism,
            "code": batch.code,
        }

    def _method_contains(self, params: Dict[str, Any]) -> bool:
        return self.tiera.contains(params["key"])

    def _method_stat(self, params: Dict[str, Any]) -> Dict[str, Any]:
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

    def _method_add_tag(self, params: Dict[str, Any]) -> bool:
        self.tiera.add_tag(params["key"], params["tag"])
        return True

    def _method_keys(self, params: Dict[str, Any]) -> list:
        tag = params.get("tag")
        if tag is not None:
            return self.tiera.keys_with_tag(tag)
        return self.tiera.keys()

    def _method_ping(self, params: Dict[str, Any]) -> str:
        return "pong"

    # -- introspection verbs (STATS / TRACE / HEALTH) -----------------------

    def _method_stats(self, params: Dict[str, Any]) -> Dict[str, Any]:
        """Observability snapshot: JSON by default, Prometheus text on
        ``format="prometheus"``."""
        from repro.obs.export import render_prometheus, stats_snapshot

        obs = self.tiera.obs
        if params.get("format") == "prometheus":
            return {"format": "prometheus", "text": render_prometheus(obs.metrics)}
        return stats_snapshot(obs, audit_limit=int(params.get("audit_limit", 50)))

    def _method_trace(self, params: Dict[str, Any]) -> Dict[str, Any]:
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

    def _method_health(self, params: Dict[str, Any]) -> Dict[str, Any]:
        return self.tiera.health()

    # -- unified management API ---------------------------------------------

    def _method_configure(self, params: Dict[str, Any]) -> Dict[str, Any]:
        """Enable or retune a feature; see :class:`ManagementAPI`.

        Error codes (``UNKNOWN_FEATURE``, ``BAD_CONFIG``, …) ride inside
        the envelope, never as RPC-level errors, so the rehydrated
        result compares equal to the direct façade's.
        """
        options = params.get("options") or {}
        return self.tiera.configure(params["feature"], **options).to_wire()

    def _method_feature_status(self, params: Dict[str, Any]) -> Dict[str, Any]:
        return self.tiera.feature_status(params["feature"]).to_wire()

    def _method_invoke(self, params: Dict[str, Any]) -> Dict[str, Any]:
        """Run a feature's action.  The fields the feature table marks
        as bytes travel base64-coded, in ``params`` and in ``state``."""
        feature, action = params["feature"], params["action"]
        given = features.code_params(
            feature, action, params.get("params") or {}, decode_bytes
        )
        result = self.tiera.invoke(feature, action, **given)
        return features.code_state(result, encode_bytes).to_wire()

    def _method_tiers(self, params: Dict[str, Any]) -> list:
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


def _error(
    request_id, error_type: str, message: str, code: str
) -> Dict[str, Any]:
    return {
        "id": request_id,
        "error": {"code": code, "type": error_type, "message": message},
    }
