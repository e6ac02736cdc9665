"""Blocking RPC client for a remote Tiera instance.

Implements the same :class:`~repro.core.api.StorageAPI` surface as the
in-process façades: envelope verbs (``put_object``/``get_object``/
``delete_object``), batch verbs riding the ``batch`` wire method, and
the three :class:`~repro.core.api.ManagementAPI` verbs.  Captured
failures carry an :class:`~repro.rpc.protocol.RpcError` (with the
server's stable ``code``) as their exception, so ``raise_for_error``
raises it.

A call that fails inside its write/read exchange (a timeout, a dropped
connection, a reply out of step) closes the connection: its reply may
still be in flight, so no later call could tell it from its own.
Every later call raises ``ConnectionError``.
"""

from __future__ import annotations

import itertools
import socket
import threading
from functools import partial
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

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
        #: why the connection was closed; None while it is open.
        self._closed: Optional[str] = None

    def close(self) -> None:
        self._closed = self._closed or "closed by the client"
        try:
            self._sock.close()
        except OSError:
            pass

    def __enter__(self) -> "TieraClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _call(
        self, method: str, payload: bytes = b"", /, **params
    ) -> Tuple[Any, Callable[[Any], bytes]]:
        """One round trip carrying ``payload``, the section the params'
        references point into: ``(result, decode)``, where ``decode``
        resolves the result's references."""
        request_id = next(self._ids)
        with self._lock:
            if self._closed is not None:
                raise ConnectionError(f"connection closed: {self._closed}")
            try:
                write_frame(
                    self._sock,
                    {"id": request_id, "method": method, "params": params},
                    payload,
                )
                frame = read_frame(self._sock)
                if frame is None:
                    raise ConnectionError("server closed the connection")
                response, reply = frame
                if not isinstance(response, dict) or response.get("id") != request_id:
                    raise RpcError("ProtocolError", "response id mismatch")
            except BaseException as exc:
                self._closed = f"{method} failed with {type(exc).__name__}"
                self.close()
                raise
        if "error" in response:
            err = response["error"]
            raise RpcError(
                err.get("type", "Error"),
                err.get("message", ""),
                code=err.get("code", "INTERNAL"),
            )
        return response.get("result"), partial(decode_bytes, reply)

    def _result(self, method: str, **params) -> Any:
        """:meth:`_call` for a verb whose result carries no bytes."""
        return self._call(method, **params)[0]

    @staticmethod
    def _from_wire(wire: Dict[str, Any], decode) -> OpResult:
        """Decode an envelope, rehydrating failures as RpcErrors (with
        the stable ``code`` attached) for ``raise_for_error``."""
        result = OpResult.from_wire(wire, decode)
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
        payload = bytearray()
        return self._from_wire(*self._call(
            "put_object", payload,
            key=key,
            data=encode_bytes(payload, data),
            tags=list(tags) if tags else None,
        ))

    def get_object(
        self, key: str, *, prefer: Optional[str] = None
    ) -> OpResult:
        return self._from_wire(
            *self._call("get_object", key=key, prefer=prefer)
        )

    def delete_object(self, key: str) -> OpResult:
        return self._from_wire(*self._call("delete_object", key=key))

    def execute_batch(
        self,
        ops: Sequence[BatchOp],
        *,
        parallelism: int = api.DEFAULT_PARALLELISM,
    ) -> BatchResult:
        """One round trip for the whole batch; the server overlaps the
        items in virtual time.  Raises :class:`RpcError` with code
        ``BACKPRESSURE`` when the server's admission control refuses."""
        payload = bytearray()
        encode = partial(encode_bytes, payload)
        wire, decode = self._call(
            "batch", payload,
            ops=[op.to_wire(encode) for op in ops],
            parallelism=parallelism,
        )
        return BatchResult(
            results=[self._from_wire(w, decode) for w in wire["results"]],
            latency=wire["latency"],
            parallelism=wire["parallelism"],
        )

    def contains(self, key: str) -> bool:
        return self._result("contains", key=key)

    def stat(self, key: str) -> Dict[str, Any]:
        return self._result("stat", key=key)

    def add_tag(self, key: str, tag: str) -> None:
        self._result("add_tag", key=key, tag=tag)

    def keys(self, tag: Optional[str] = None) -> List[str]:
        if tag is None:
            return self._result("keys")
        return self._result("keys", tag=tag)

    def ping(self) -> bool:
        return self._result("ping") == "pong"

    def tiers(self) -> List[Dict[str, Any]]:
        return self._result("tiers")

    # -- introspection ----------------------------------------------------

    def stats(self, format: str = "json", audit_limit: int = 50) -> Any:
        """The server's observability snapshot.

        ``format="json"`` returns the snapshot dict; ``"prometheus"``
        returns the text exposition as a string.
        """
        result = self._result("stats", format=format, audit_limit=audit_limit)
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
        return self._result("trace", **params)

    def health(self) -> Dict[str, Any]:
        return self._result("health")

    # -- unified management API -------------------------------------------

    def configure(self, feature: str, **options) -> ManagementResult:
        """Enable or retune ``feature`` (the :class:`ManagementAPI` verb).

        The rehydrated :class:`~repro.core.api.ManagementResult`
        compares equal to the direct façade's — errors (stable codes
        ``UNKNOWN_FEATURE``, ``BAD_CONFIG``, …) come back captured in
        the envelope, never raised."""
        doc = self._result("configure", feature=feature, options=options)
        return ManagementResult.from_wire(doc)

    def feature_status(self, feature: str) -> ManagementResult:
        """Inspect ``feature`` (the :class:`ManagementAPI` verb)."""
        doc = self._result("feature_status", feature=feature)
        return ManagementResult.from_wire(doc)

    def invoke(self, feature: str, action: str, **params) -> ManagementResult:
        """Run one of ``feature``'s extra actions (the
        :class:`ManagementAPI` verb); byte-valued parameters and state
        fields travel as payload references and are plain ``bytes`` here."""
        payload = bytearray()
        doc, decode = self._call(
            "invoke", payload, feature=feature, action=action,
            params=features.code_params(
                feature, action, params, partial(encode_bytes, payload)
            ),
        )
        return features.code_state(ManagementResult.from_wire(doc), decode)
