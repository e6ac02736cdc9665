"""Tiera exception hierarchy and the stable error taxonomy.

Every exception a façade can surface carries a stable ``code`` string.
Clients — including the RPC client on the far side of a socket — branch
on codes, never on exception class names or message text, so the
taxonomy is part of the wire protocol: codes are append-only and never
renamed.  :func:`code_for` maps any exception (including simcloud
errors and plain ``ValueError``/``KeyError`` from argument validation)
to its code.
"""

from __future__ import annotations


class TieraError(Exception):
    """Base class for Tiera middleware errors."""

    #: Stable machine-readable error code (see docs/API.md).
    code = "INTERNAL"


class NoSuchObjectError(TieraError, KeyError):
    """GET/DELETE of an object the instance does not hold."""

    code = "NO_SUCH_OBJECT"

    def __init__(self, key: str):
        self.key = key
        super().__init__(f"no object {key!r} in this instance")


class UnknownTierError(TieraError, KeyError):
    """A policy or request referenced a tier name not in the instance."""

    code = "UNKNOWN_TIER"

    def __init__(self, tier: str):
        self.tier = tier
        super().__init__(f"no tier named {tier!r} in this instance")


def _cause_detail(causes) -> str:
    """``who: ErrorType: message`` for each ``(who, exception)`` tried."""
    return "; ".join(
        f"{who}: {type(exc).__name__}: {exc}" for who, exc in causes
    )


class TierUnavailableError(TieraError):
    """Every tier that could serve the request is failed/unreachable.

    ``causes`` carries one ``(tier_name, exception)`` pair per tier that
    was tried, so callers (and humans reading the message) see *every*
    per-tier failure, not just whichever happened last.  The raiser also
    chains the final cause via ``raise ... from``.
    """

    code = "TIER_UNAVAILABLE"

    def __init__(self, key: str, detail: str = "", causes=()):
        self.key = key
        self.causes = list(causes)
        detail = detail or _cause_detail(self.causes)
        super().__init__(
            f"no available tier can serve {key!r}" + (f": {detail}" if detail else "")
        )


class CorruptObjectError(TieraError):
    """A tier returned bytes whose checksum does not match the object's
    recorded content fingerprint (bit rot caught by a verifying read)."""

    code = "CORRUPT_OBJECT"

    def __init__(self, key: str, tier: str):
        self.key = key
        self.tier = tier
        super().__init__(f"object {key!r} read from {tier!r} fails checksum")


class BreakerOpenError(TieraError):
    """The tier's circuit breaker is open: the resilience layer refused
    the operation without touching the (presumed still sick) service."""

    code = "BREAKER_OPEN"

    def __init__(self, tier: str, until: float = 0.0):
        self.tier = tier
        self.until = until
        super().__init__(
            f"circuit breaker for tier {tier!r} is open"
            + (f" until t={until:.3f}" if until else "")
        )


class LastCopyError(TieraError):
    """A step would unlist the last tier holding a live object.

    Only a delete may empty a row (:meth:`TieraInstance.delete_object`);
    ``remove_from_tier`` raises this instead.  No client request can
    cause it, so it keeps the base ``INTERNAL`` code: one surfacing is a
    bug in the control layer, refused loudly rather than losing data.
    """

    def __init__(self, key: str, tier: str):
        self.key = key
        self.tier = tier
        super().__init__(f"refusing to remove the last copy of {key!r} ({tier!r})")


class PolicyError(TieraError):
    """A rule is malformed or cannot be installed/executed."""

    code = "POLICY_ERROR"


class NoCapacityError(TieraError):
    """A store could not find or make room in the target tier."""

    code = "NO_CAPACITY"

    def __init__(self, tier: str, key: str):
        self.tier = tier
        self.key = key
        super().__init__(f"tier {tier!r} cannot fit object {key!r}")


class BackupError(TieraError):
    """A backup operation could not proceed: no usable chain, a
    point-in-time target outside the archived history, a digest or
    archive-integrity mismatch, or a torn backup store."""

    code = "BACKUP_ERROR"


class EmptyRingError(TieraError):
    """The consistent-hash ring holds no shards, so no key has an owner.

    Raised by ``owner()``/``owners()`` on an empty ring and — so the
    mistake surfaces at the mutation, not at the next lookup — by
    ``remove()`` when it would take the last shard off the ring."""

    code = "EMPTY_RING"


class NoQuorumError(TieraError):
    """A replicated write could not reach its configured write quorum.

    ``causes`` carries one ``(shard, exception)`` pair per replica
    attempt that failed, mirroring :class:`TierUnavailableError`."""

    code = "NO_QUORUM"

    def __init__(self, key: str, acked: int, needed: int, causes=()):
        self.key = key
        self.acked = acked
        self.needed = needed
        self.causes = list(causes)
        detail = _cause_detail(self.causes)
        super().__init__(
            f"write of {key!r} acked by {acked}/{needed} required replicas"
            + (f": {detail}" if detail else "")
        )


class ClusterUnavailableError(TieraError):
    """No replica of the key's owner set could serve the request."""

    code = "CLUSTER_UNAVAILABLE"

    def __init__(self, key: str, detail: str = "", causes=()):
        self.key = key
        self.causes = list(causes)
        detail = detail or _cause_detail(self.causes)
        super().__init__(
            f"no replica can serve {key!r}" + (f": {detail}" if detail else "")
        )


class BackpressureError(TieraError):
    """Admission control refused the work: too many operations in
    flight.  Back off and retry; nothing was attempted."""

    code = "BACKPRESSURE"

    def __init__(self, requested: int, inflight: int, limit: int):
        self.requested = requested
        self.inflight = inflight
        self.limit = limit
        super().__init__(
            f"admission refused: {requested} ops requested with "
            f"{inflight}/{limit} already in flight"
        )


class UnknownFeatureError(TieraError):
    """The management API does not know the named feature."""

    code = "UNKNOWN_FEATURE"

    def __init__(self, feature: str):
        self.feature = feature
        super().__init__(f"unknown manageable feature {feature!r}")


class BadConfigError(TieraError):
    """A feature rejected its configuration options."""

    code = "BAD_CONFIG"

    def __init__(self, feature: str, detail: str):
        self.feature = feature
        super().__init__(f"bad {feature} configuration: {detail}")


#: Codes for exception classes that live outside this module (simcloud
#: faults, RPC transport) or built-ins raised by argument validation.
_FALLBACK_CODES = {
    "ServiceUnavailableError": "SERVICE_UNAVAILABLE",
    "TransientServiceError": "TRANSIENT_ERROR",
    "CapacityExceededError": "CAPACITY_EXCEEDED",
    "NoSuchKeyError": "NO_SUCH_KEY",
    "KeyError": "BAD_REQUEST",
    "ValueError": "BAD_REQUEST",
    "TypeError": "BAD_REQUEST",
}

#: Code attached to a batch whose items did not all succeed.
PARTIAL_FAILURE = "PARTIAL_FAILURE"
#: Code for an RPC method name the server does not export.
UNKNOWN_METHOD = "UNKNOWN_METHOD"
#: Code for malformed arguments (wrong type, unknown op, bad frame).
BAD_REQUEST = "BAD_REQUEST"
#: Catch-all for unclassified server-side failures.
INTERNAL = "INTERNAL"
#: Code for a management-API feature name no façade exports.
UNKNOWN_FEATURE = "UNKNOWN_FEATURE"
#: Code for management-API options or parameters a feature refused.
BAD_CONFIG = "BAD_CONFIG"
#: Code for a management-API action the named feature does not offer.
UNKNOWN_ACTION = "UNKNOWN_ACTION"
#: Code for a management-API action on a feature that is switched off.
FEATURE_DISABLED = "FEATURE_DISABLED"


def code_for(exc: BaseException) -> str:
    """The stable error code for ``exc`` (``INTERNAL`` if unclassified)."""
    code = getattr(exc, "code", None)
    if isinstance(code, str) and code:
        return code
    for klass in type(exc).__mro__:
        mapped = _FALLBACK_CODES.get(klass.__name__)
        if mapped is not None:
            return mapped
    return INTERNAL
