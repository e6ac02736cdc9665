"""The unified ``StorageAPI`` façade surface.

Three façades move objects in and out of a Tiera instance: the in-process
:class:`~repro.core.server.TieraServer`, the consistent-hash
:class:`~repro.core.sharding.ShardedTieraServer` router, and the
socket-side :class:`~repro.rpc.client.TieraClient`.  Historically each
grew its own verb signatures and return shapes; this module defines the
one contract they all implement now:

* single-object verbs ``put_object`` / ``get_object`` / ``delete_object``
  with **keyword-only** options, returning a structured :class:`OpResult`
  envelope (latency, tier, checksum, stable error code) instead of a bare
  value — errors are *captured* in the envelope, not raised;
* batch verbs ``put_many`` / ``get_many`` / ``delete_many`` and the
  general ``execute_batch``, which run independent items concurrently in
  virtual time (see ``RequestContext.scatter``) and return a
  :class:`BatchResult` preserving submission order;
* :class:`AdmissionController` bounding in-flight operations — an
  over-limit batch is refused up front with ``BACKPRESSURE`` before any
  item runs;
* the one pipeline the in-process façades run those verbs through:
  :func:`run_request` (the bracket around one op), :func:`run_batch`
  (the bracket around a batch), :func:`schedule_lanes` (the lane
  scheduler) and :func:`failed_result` (how an op fails); every op ends
  in its hub's one completion hook,
  :meth:`~repro.obs.hub.Observability.complete`.

The admin plane has the same shape: :class:`ManagementAPI`'s three
verbs return :class:`ManagementResult` envelopes, all driven by the one
feature table in :mod:`repro.core.features`.  See docs/API.md.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    Dict,
    Iterable,
    List,
    Optional,
    Protocol,
    Sequence,
    Tuple,
    runtime_checkable,
)

from repro.core import errors
from repro.simcloud.errors import SimCloudError

#: Operation names accepted in a batch.
PUT = "put"
GET = "get"
DELETE = "delete"
_OPS = (PUT, GET, DELETE)

#: Default number of concurrent lanes a batch executes across.
DEFAULT_PARALLELISM = 8

#: Default bound on in-flight operations before backpressure.
DEFAULT_MAX_INFLIGHT = 128


@dataclass
class BatchOp:
    """One operation in a batch: what to do, to which key, with what."""

    op: str
    key: str
    data: Optional[bytes] = None
    tags: Optional[List[str]] = None
    prefer: Optional[str] = None

    def __post_init__(self):
        if self.op not in _OPS:
            raise ValueError(f"unknown batch op {self.op!r}")
        if self.op == PUT and self.data is None:
            raise ValueError(f"put of {self.key!r} carries no data")

    @classmethod
    def put(cls, key: str, data: bytes, *, tags: Optional[List[str]] = None
            ) -> "BatchOp":
        return cls(PUT, key, data=data, tags=tags)

    @classmethod
    def get(cls, key: str, *, prefer: Optional[str] = None) -> "BatchOp":
        return cls(GET, key, prefer=prefer)

    @classmethod
    def delete(cls, key: str) -> "BatchOp":
        return cls(DELETE, key)


@dataclass
class OpResult:
    """Structured outcome of one storage operation.

    Failure is data here, not control flow: a missing key yields an
    ``OpResult`` with ``ok=False`` and ``error="NO_SUCH_OBJECT"``.
    Callers that want a raise chain :meth:`raise_for_error`.
    """

    op: str
    key: str
    ok: bool
    latency: float = 0.0
    #: tier(s) involved: the serving tier for a get, a comma-joined
    #: sorted list of stored-in tiers for a put, "" when not applicable.
    tier: str = ""
    checksum: str = ""
    size: int = 0
    #: stable error code (see repro.core.errors), None on success.
    error: Optional[str] = None
    error_message: str = ""
    #: exception class name, kept so the RPC client re-raises faithfully.
    error_type: str = ""
    #: payload bytes for a successful get; None otherwise.
    value: Optional[bytes] = None
    #: the captured exception object, when the op ran in-process.
    #: Excluded from equality so direct and RPC façades compare equal.
    exception: Optional[BaseException] = field(
        default=None, repr=False, compare=False
    )

    def raise_for_error(self) -> "OpResult":
        """Re-raise the captured failure (no-op on success)."""
        if self.ok:
            return self
        if self.exception is not None:
            raise self.exception
        raise RuntimeError(
            f"{self.op} {self.key!r} failed: "
            f"[{self.error}] {self.error_message}"
        )


def failed_result(
    op: str, key: str, exc: BaseException, latency: float
) -> OpResult:
    """The envelope of an op that raised ``exc``: its stable code, its
    message and class name for the wire, and the exception itself for
    :meth:`OpResult.raise_for_error` in-process."""
    return OpResult(
        op=op,
        key=key,
        ok=False,
        latency=latency,
        error=errors.code_for(exc),
        error_message=str(exc),
        error_type=type(exc).__name__,
        exception=exc,
    )


@dataclass
class BatchResult:
    """Outcome of a batch: per-item results in submission order.

    A batch never raises for item-level failures; ``code`` is
    ``PARTIAL_FAILURE`` when any item failed and ``None`` when all
    succeeded.  ``latency`` is the whole batch's virtual-time span —
    the max over item completion times, not their sum.
    """

    results: List[OpResult]
    latency: float = 0.0
    parallelism: int = 1

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.results)

    @property
    def code(self) -> Optional[str]:
        return None if self.ok else errors.PARTIAL_FAILURE

    @property
    def failures(self) -> List[OpResult]:
        return [r for r in self.results if not r.ok]

    def values(self) -> List[Optional[bytes]]:
        """Payloads in submission order (None for non-gets/failures)."""
        return [r.value for r in self.results]

    def raise_for_error(self) -> "BatchResult":
        for result in self.results:
            result.raise_for_error()
        return self

    def __iter__(self):
        return iter(self.results)

    def __len__(self):
        return len(self.results)

    def __getitem__(self, index):
        return self.results[index]


class AdmissionController:
    """Bounds in-flight operations; refuses overload with backpressure.

    The bound is over *operations*, not batches: one 32-item batch
    admits 32.  A request that would exceed the limit is rejected whole
    — partial admission would break batch ordering guarantees — with a
    :class:`~repro.core.errors.BackpressureError` (code ``BACKPRESSURE``)
    raised before any virtual time is spent.  ``metrics`` is the hub
    registry of the façade the controller guards; refused batches count
    there as ``tiera_backpressure_total``.
    """

    def __init__(self, max_inflight: int, metrics):
        if max_inflight < 1:
            raise ValueError("admission limit must be at least 1")
        self.max_inflight = max_inflight
        self.inflight = 0
        self.admitted = 0
        self.rejected = 0
        self.refusals = metrics.counter(
            "tiera_backpressure_total",
            "Requests refused by admission control.",
        )

    def acquire(self, count: int = 1) -> None:
        if count > self.max_inflight - self.inflight:
            self.rejected += count
            raise errors.BackpressureError(
                requested=count,
                inflight=self.inflight,
                limit=self.max_inflight,
            )
        self.inflight += count
        self.admitted += count

    def release(self, count: int = 1) -> None:
        self.inflight = max(0, self.inflight - count)


def run_request(obs, op: BatchOp, ctx, trace: bool, body) -> OpResult:
    """The bracket every in-process façade runs one client op inside.

    In order: open the request root on ``obs``'s tracer; call
    ``body(op, ctx)``, which returns the op's envelope or raises; turn
    a Tiera or simcloud error into :func:`failed_result`; on every exit
    close the request once through the hub's
    :meth:`~repro.obs.hub.Observability.complete`; set the envelope's
    latency.  Anything else — a programming error, a
    :class:`~repro.simcloud.errors.ProcessCrash` — closes the request
    and propagates.
    """
    root = obs.tracer.start_request(op.op, op.key, ctx, force=trace)
    started = ctx.time
    try:
        result = body(op, ctx)
    except (errors.TieraError, SimCloudError) as exc:
        result = failed_result(op.op, op.key, exc, 0.0)
    except BaseException as exc:
        obs.complete(op.op, op.key, root, ctx, started, exc)
        raise
    result.latency = obs.complete(
        op.op, op.key, root, ctx, started, result.exception, result.size
    )
    return result


def schedule_lanes(
    ops: Sequence[BatchOp], width: int, ctx, parent, run_item
) -> List[OpResult]:
    """Run ``ops`` through ``run_item(op, ctx)``, overlapped in virtual
    time across at most ``width`` concurrent lanes.

    Items execute in submission order (so seeded latency draws are
    schedule-independent) but *cost* as if pipelined: each item starts
    on the earliest-free lane of a scatter/join on ``ctx``, which ends
    at the latest lane completion — max-plus-queueing, not a sum.  With
    a ``parent`` span, each item runs under its own ``op`` child, so
    tier-ops nest under the item and a failed item marks its span.
    """
    lanes = [ctx.time] * min(width, len(ops))
    results: List[OpResult] = []
    branches = ctx.scatter()
    for index, op in enumerate(ops):
        lane = min(range(len(lanes)), key=lanes.__getitem__)
        bctx = branches.branch(at=lanes[lane])
        span = None
        if parent is not None:
            # The branch inherited the enclosing span; repoint it.
            span = parent.child(
                f"{op.op} {op.key}", "op", bctx.time,
                op=op.op, key=op.key, index=index, lane=lane,
            )
            bctx.span = span
        result = run_item(op, bctx)
        results.append(result)
        if span is not None:
            span.finish(bctx.time)
            if not result.ok:
                span.error = result.error
            bctx.span = None
        lanes[lane] = bctx.time
    branches.join()
    return results


def run_batch(
    ops: Iterable[BatchOp],
    parallelism: int,
    ctx,
    trace: bool,
    obs,
    admission: AdmissionController,
    body,
    shares: Sequence[Tuple[AdmissionController, int]] = (),
) -> BatchResult:
    """The bracket every in-process façade runs a batch inside.

    In order: validate ``parallelism``; admit the whole batch on
    ``admission`` and on every ``(controller, count)`` of ``shares`` (a
    router's per-shard sub-batches) — all or nothing, so a refusal
    anywhere is counted once, on ``admission``'s hub, and raised before
    any item runs; open the ``batch`` root span on ``obs``'s tracer;
    call ``body(ops, lanes, ctx, parent)``, which runs the items and
    returns their results in submission order plus the root's extra
    attributes; release; close the root (with the error, when the body
    raised); count the batch on ``obs``
    (:meth:`~repro.obs.hub.Observability.complete_batch`); build the
    :class:`BatchResult`.
    """
    tracer = obs.tracer
    ops = list(ops)
    if parallelism < 1:
        raise ValueError("parallelism must be at least 1")
    lanes = max(1, min(parallelism, len(ops)))
    admitted: List[Tuple[AdmissionController, int]] = []
    root = None
    try:
        try:
            for controller, count in ((admission, len(ops)), *shares):
                controller.acquire(count)
                admitted.append((controller, count))
        except errors.BackpressureError:
            admission.refusals.inc(op="batch")
            raise
        root = tracer.start_request(
            "batch", f"{len(ops)} ops", ctx, force=trace
        )
        # Nested inside a traced request, the items parent on the
        # enclosing span instead of a fresh root.
        parent = root if root is not None else ctx.span
        started = ctx.time
        results, attrs = body(ops, lanes, ctx, parent)
    except BaseException as exc:
        tracer.finish_request(root, ctx, error=f"{type(exc).__name__}: {exc}")
        raise
    finally:
        for controller, count in admitted:
            controller.release(count)
    if root is not None:
        root.attrs["items"] = len(ops)
        root.attrs.update(attrs)
    tracer.finish_request(root, ctx)
    latency = ctx.time - started
    obs.complete_batch(len(ops), latency)
    return BatchResult(results=results, latency=latency, parallelism=lanes)


class BatchVerbs:
    """``put_many`` / ``get_many`` / ``delete_many`` for a façade that
    has ``execute_batch``: build the :class:`BatchOp` list, delegate,
    and pass through whatever routing keyword (``ctx=``) that façade's
    ``execute_batch`` takes."""

    def put_many(
        self,
        items: Iterable[Tuple[str, bytes]],
        *,
        tags: Optional[List[str]] = None,
        parallelism: int = DEFAULT_PARALLELISM,
        **route,
    ) -> BatchResult:
        return self.execute_batch(
            [BatchOp.put(key, data, tags=tags) for key, data in items],
            parallelism=parallelism, **route,
        )

    def get_many(
        self,
        keys: Iterable[str],
        *,
        parallelism: int = DEFAULT_PARALLELISM,
        **route,
    ) -> BatchResult:
        return self.execute_batch(
            [BatchOp.get(key) for key in keys],
            parallelism=parallelism, **route,
        )

    def delete_many(
        self,
        keys: Iterable[str],
        *,
        parallelism: int = DEFAULT_PARALLELISM,
        **route,
    ) -> BatchResult:
        return self.execute_batch(
            [BatchOp.delete(key) for key in keys],
            parallelism=parallelism, **route,
        )


@runtime_checkable
class StorageAPI(Protocol):
    """The verb set every Tiera façade implements.

    All options are keyword-only; all outcomes are envelopes.  Single
    ops return :class:`OpResult`; batch verbs return
    :class:`BatchResult` in submission order.
    """

    def put_object(self, key: str, data: bytes, *,
                   tags: Optional[List[str]] = None) -> OpResult: ...

    def get_object(self, key: str, *,
                   prefer: Optional[str] = None) -> OpResult: ...

    def delete_object(self, key: str) -> OpResult: ...

    def execute_batch(self, ops: Sequence[BatchOp], *,
                      parallelism: int = DEFAULT_PARALLELISM) -> BatchResult: ...

    def put_many(self, items: Iterable[Tuple[str, bytes]], *,
                 tags: Optional[List[str]] = None,
                 parallelism: int = DEFAULT_PARALLELISM) -> BatchResult: ...

    def get_many(self, keys: Iterable[str], *,
                 parallelism: int = DEFAULT_PARALLELISM) -> BatchResult: ...

    def delete_many(self, keys: Iterable[str], *,
                    parallelism: int = DEFAULT_PARALLELISM) -> BatchResult: ...

    def contains(self, key: str) -> bool: ...


@dataclass
class ManagementResult:
    """Envelope for the unified management surface.

    ``configure``, ``feature_status`` and ``invoke`` return this from
    every façade — direct, sharded, and RPC — so the admin plane has
    the same stable shape as the data plane.  Errors are *captured*,
    never raised: ``UNKNOWN_FEATURE``, ``UNKNOWN_ACTION``, ``BAD_CONFIG``
    (refused options or parameters), ``FEATURE_DISABLED``, or a domain
    error's own code.  ``state`` is a JSON-clean dict (no tuples; bytes
    only in the fields the feature table marks, which RPC sends as
    payload bytes) so the RPC round-trip is the identity.
    """

    feature: str
    action: str                     # "configure" | "status" | an action
    ok: bool = True
    enabled: bool = False
    state: Dict[str, object] = field(default_factory=dict)
    error: Optional[str] = None     # stable code, e.g. UNKNOWN_FEATURE
    error_message: Optional[str] = None

    def raise_for_error(self) -> "ManagementResult":
        if self.ok:
            return self
        if self.error == errors.UNKNOWN_FEATURE:
            raise errors.UnknownFeatureError(self.feature)
        if self.error == errors.BAD_CONFIG:
            raise errors.BadConfigError(self.feature, self.error_message or "")
        exc = errors.TieraError(self.error_message or self.error or "")
        exc.code = self.error or exc.code
        raise exc

    def to_wire(self) -> Dict[str, object]:
        return {
            "feature": self.feature,
            "action": self.action,
            "ok": self.ok,
            "enabled": self.enabled,
            "state": self.state,
            "error": self.error,
            "error_message": self.error_message,
        }

    @classmethod
    def from_wire(cls, doc: Dict[str, object]) -> "ManagementResult":
        return cls(
            feature=doc["feature"],
            action=doc["action"],
            ok=doc["ok"],
            enabled=doc["enabled"],
            state=doc.get("state") or {},
            error=doc.get("error"),
            error_message=doc.get("error_message"),
        )


@runtime_checkable
class ManagementAPI(Protocol):
    """The admin verbs every Tiera façade implements.

    ``configure`` turns a feature on or retunes it, ``feature_status``
    inspects it, ``invoke`` runs one of its extra actions; all three
    are lookups in the one table of :mod:`repro.core.features` and
    return :class:`ManagementResult` envelopes with stable error codes.
    """

    def configure(self, feature: str, **options) -> ManagementResult: ...

    def feature_status(self, feature: str) -> ManagementResult: ...

    def invoke(self, feature: str, action: str, **params
               ) -> ManagementResult: ...
