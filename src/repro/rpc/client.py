"""Blocking RPC client for a remote Tiera instance.

Implements the same :class:`~repro.core.api.StorageAPI` surface as the
in-process façades: envelope verbs (``put_object``/``get_object``/
``delete_object``), batch verbs riding the ``batch`` wire method, and
the three :class:`~repro.core.api.ManagementAPI` verbs.  Captured
failures carry an :class:`~repro.rpc.protocol.RpcError` (with the
server's stable ``code``) as their exception, so ``raise_for_error``
raises it.
"""

from __future__ import annotations

import itertools
import socket
import threading
from typing import Any, Dict, List, Optional, Sequence

from repro.core import api, features
from repro.core.api import (
    BatchOp,
    BatchResult,
    BatchVerbs,
    ManagementResult,
    OpResult,
)
from repro.rpc.protocol import (
    RpcError,
    decode_bytes,
    encode_bytes,
    read_frame,
    write_frame,
)


class TieraClient(BatchVerbs):
    """Connects to a :class:`~repro.rpc.server.TieraRpcServer`.

    Thread-safe: concurrent calls serialize on the connection, matching
    how a single benchmark client thread uses the real Thrift client.
    """

    def __init__(self, host: str, port: int, timeout: float = 30.0):
        self._sock = socket.create_connection((host, port), timeout=timeout)
        self._lock = threading.Lock()
        self._ids = itertools.count(1)

    def close(self) -> None:
        try:
            self._sock.close()
        except OSError:
            pass

    def __enter__(self) -> "TieraClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _call(self, method: str, **params) -> Any:
        request_id = next(self._ids)
        with self._lock:
            write_frame(
                self._sock, {"id": request_id, "method": method, "params": params}
            )
            response = read_frame(self._sock)
        if response is None:
            raise ConnectionError("server closed the connection")
        if response.get("id") != request_id:
            raise RpcError("ProtocolError", "response id mismatch")
        if "error" in response:
            err = response["error"]
            raise RpcError(
                err.get("type", "Error"),
                err.get("message", ""),
                code=err.get("code", "INTERNAL"),
            )
        return response.get("result")

    @staticmethod
    def _from_wire(wire: Dict[str, Any]) -> OpResult:
        """Decode an envelope, rehydrating failures as RpcErrors (with
        the stable ``code`` attached) for ``raise_for_error``."""
        result = OpResult.from_wire(wire, decode_bytes)
        if not result.ok:
            result.exception = RpcError(
                result.error_type or "Error",
                result.error_message,
                code=result.error or "INTERNAL",
            )
        return result

    # -- the StorageAPI surface -------------------------------------------

    def put_object(
        self, key: str, data: bytes, *, tags: Optional[List[str]] = None
    ) -> OpResult:
        return self._from_wire(self._call(
            "put_object",
            key=key,
            data=encode_bytes(data),
            tags=list(tags) if tags else None,
        ))

    def get_object(
        self, key: str, *, prefer: Optional[str] = None
    ) -> OpResult:
        return self._from_wire(
            self._call("get_object", key=key, prefer=prefer)
        )

    def delete_object(self, key: str) -> OpResult:
        return self._from_wire(self._call("delete_object", key=key))

    def execute_batch(
        self,
        ops: Sequence[BatchOp],
        *,
        parallelism: int = api.DEFAULT_PARALLELISM,
    ) -> BatchResult:
        """One round trip for the whole batch; the server overlaps the
        items in virtual time.  Raises :class:`RpcError` with code
        ``BACKPRESSURE`` when the server's admission control refuses."""
        wire = self._call(
            "batch",
            ops=[op.to_wire(encode_bytes) for op in ops],
            parallelism=parallelism,
        )
        return BatchResult(
            results=[self._from_wire(w) for w in wire["results"]],
            latency=wire["latency"],
            parallelism=wire["parallelism"],
        )

    def contains(self, key: str) -> bool:
        return self._call("contains", key=key)

    def stat(self, key: str) -> Dict[str, Any]:
        return self._call("stat", key=key)

    def add_tag(self, key: str, tag: str) -> None:
        self._call("add_tag", key=key, tag=tag)

    def keys(self, tag: Optional[str] = None) -> List[str]:
        if tag is None:
            return self._call("keys")
        return self._call("keys", tag=tag)

    def ping(self) -> bool:
        return self._call("ping") == "pong"

    def tiers(self) -> List[Dict[str, Any]]:
        return self._call("tiers")

    # -- introspection ----------------------------------------------------

    def stats(self, format: str = "json", audit_limit: int = 50) -> Any:
        """The server's observability snapshot.

        ``format="json"`` returns the snapshot dict; ``"prometheus"``
        returns the text exposition as a string.
        """
        result = self._call("stats", format=format, audit_limit=audit_limit)
        if format == "prometheus":
            return result["text"]
        return result

    def trace(
        self, limit: int = 10, enable: Optional[bool] = None
    ) -> Dict[str, Any]:
        """Recent request traces; ``enable`` toggles tracing first."""
        params: Dict[str, Any] = {"limit": limit}
        if enable is not None:
            params["enable"] = enable
        return self._call("trace", **params)

    def health(self) -> Dict[str, Any]:
        return self._call("health")

    # -- unified management API -------------------------------------------

    def configure(self, feature: str, **options) -> ManagementResult:
        """Enable or retune ``feature`` (the :class:`ManagementAPI` verb).

        The rehydrated :class:`~repro.core.api.ManagementResult`
        compares equal to the direct façade's — errors (stable codes
        ``UNKNOWN_FEATURE``, ``BAD_CONFIG``, …) come back captured in
        the envelope, never raised."""
        doc = self._call("configure", feature=feature, options=options)
        return ManagementResult.from_wire(doc)

    def feature_status(self, feature: str) -> ManagementResult:
        """Inspect ``feature`` (the :class:`ManagementAPI` verb)."""
        doc = self._call("feature_status", feature=feature)
        return ManagementResult.from_wire(doc)

    def invoke(self, feature: str, action: str, **params) -> ManagementResult:
        """Run one of ``feature``'s extra actions (the
        :class:`ManagementAPI` verb); byte-valued parameters and state
        fields are base64-coded on the wire and plain ``bytes`` here."""
        doc = self._call(
            "invoke", feature=feature, action=action,
            params=features.code_params(feature, action, params, encode_bytes),
        )
        return features.code_state(
            ManagementResult.from_wire(doc), decode_bytes
        )
