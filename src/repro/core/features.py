"""The feature registry: one table behind the management API.

Every optional subsystem with an admin surface — heat, placement,
resilience, durability, backup, SLOs, the replicated cluster — is one
:class:`Feature` entry here: how to switch it on (the existing
``TieraInstance.enable_*`` / ``SloEngine.install``, which stay the only
implementation), how to tell whether it is on, what its status is, and
which extra actions it offers with which typed parameters.  The three
:class:`~repro.core.api.ManagementAPI` verbs are the three lookups
below (:func:`configure`, :func:`status`, :func:`invoke`); the in-process
façades, the shard router's fan-out (:func:`merge_shards`), the RPC
wire methods (:func:`code_params` / :func:`code_state` mark the byte
fields) and the CLI's flags are all derived from the same entries.

Outcomes are :class:`~repro.core.api.ManagementResult` envelopes and
failures are captured, never raised: ``UNKNOWN_FEATURE``,
``UNKNOWN_ACTION``, ``BAD_CONFIG`` (refused options or parameters),
``FEATURE_DISABLED`` (an action on a feature that is off), or the
domain error's own stable code.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace
from typing import Callable, Dict, NamedTuple, Optional, Sequence, Tuple

from repro.core.api import ManagementResult
from repro.core.durability import (
    bundle_archives,
    fsck,
    restore_archive,
    shard_archive,
    snapshot_archive,
)
from repro.core.errors import (
    BAD_CONFIG,
    FEATURE_DISABLED,
    UNKNOWN_ACTION,
    UNKNOWN_FEATURE,
    TieraError,
    code_for,
)
from repro.obs.heat import merge_summaries
from repro.obs.slo import SloObjective, default_slos
from repro.simcloud.errors import SimCloudError
from repro.simcloud.resources import RequestContext


@dataclass(frozen=True)
class Param:
    """One typed parameter of a configure call or an action.

    ``type`` is ``int``/``float``/``str``/``bool``/``bytes``; ``bytes``
    parameters travel as payload bytes over RPC and are files on the CLI.
    ``repeat`` makes the value a list (a repeatable CLI flag); ``flag``
    is the CLI spelling when it differs from ``name``.  The spec is
    declarative: values are validated by the code they are passed to.
    """

    name: str
    type: type = str
    help: Optional[str] = None
    choices: Optional[Tuple[str, ...]] = None
    repeat: bool = False
    flag: Optional[str] = None


class Shard(NamedTuple):
    """Which of a router's several shards a verb is running on."""

    name: str
    peers: Tuple[str, ...]          # every shard of the router, sorted


@dataclass(frozen=True)
class Action:
    """An extra verb of a feature: ``run(server, **params) -> state``."""

    name: str
    run: Callable[..., Dict[str, object]]
    params: Tuple[Param, ...] = ()
    #: False for actions that work on the instance whether or not the
    #: feature's layer is on (fsck / snapshot / restore).
    needs_enabled: bool = True
    #: state fields that carry bytes (payload bytes over RPC).
    bytes_out: Tuple[str, ...] = ()
    #: how a multi-shard router folds the ``{shard: state}`` results
    #: into one; the default is the ``{"shards": {name: state}}`` nest.
    merge: Optional[Callable[[Dict[str, dict]], Dict[str, object]]] = None
    #: ``per_shard(params, shard) -> params``: what one of a router's
    #: several shards is handed when the call's value cannot be shared.
    per_shard: Optional[Callable[[dict, Shard], dict]] = None


@dataclass(frozen=True)
class Feature:
    """One manageable subsystem; callables take the serving façade."""

    name: str
    enabled: Callable[[object], bool]
    status: Callable[[object], Dict[str, object]]
    #: ``configure(server, **options)``; ``None`` when the feature is
    #: fixed at construction.  Options are whatever the underlying
    #: ``enable_*`` takes — it validates them.
    configure: Optional[Callable[..., object]] = None
    #: the configure options the CLI exposes as flags.
    options: Tuple[Param, ...] = ()
    actions: Tuple[Action, ...] = ()
    #: lives on the shard router itself, not on each shard.
    router_level: bool = False
    #: :attr:`Action.per_shard`, for the configure options.
    per_shard: Optional[Callable[[dict, Shard], dict]] = None

    def action(self, name: str) -> Optional[Action]:
        return next((a for a in self.actions if a.name == name), None)


def _heat_status(server) -> Dict[str, object]:
    summary = server.obs.heat.summary(limit=0)
    return {
        "config": summary["config"],
        "tracked_objects": summary["tracked_objects"],
    }


def _install_slos(server, objectives=None) -> None:
    """``SloEngine.install`` over JSON-able input; with no objectives,
    the canned defaults (once — like every ``enable_*``, idempotent)."""
    engine = server.obs.slo
    if objectives is None:
        if engine.objectives:
            return
        objectives = default_slos()
    engine.install([
        spec if isinstance(spec, SloObjective) else SloObjective(**spec)
        for spec in objectives
    ])


def _resilience_replay(server) -> Dict[str, object]:
    layer = server.instance.resilience
    return {"replay_kicked": layer.replay_pending(), **layer.summary()}


def _snapshot(server, include_volatile: bool = False) -> Dict[str, object]:
    archive, manifest = snapshot_archive(
        server.instance, include_volatile=include_volatile
    )
    return {"archive": archive, "manifest": manifest}


def _bundle_snapshots(states: Dict[str, dict]) -> Dict[str, object]:
    """A multi-shard router's snapshot: one archive bundling the
    shards' own, which ``restore`` on that router takes back."""
    return {
        "archive": bundle_archives(
            {name: state["archive"] for name, state in states.items()}
        ),
        "manifest": {"shards": {
            name: state["manifest"] for name, state in states.items()
        }},
    }


def _own_archive(params: dict, shard: Shard) -> dict:
    """Each shard restores its own member of the bundle — never an
    archive of some other instance's keys — and every shard refuses a
    bundle that is not of exactly this router's shards."""
    if "archive" not in params:
        return params
    return {**params, "archive": shard_archive(
        params["archive"], shard.name, shard.peers
    )}


def _own_root(options: dict, shard: Shard) -> dict:
    """Shards cannot share a backup store: ``<root>/<shard>`` each."""
    if "root" not in options:
        return options
    return {**options, "root": os.path.join(options["root"], shard.name)}


FEATURES: Dict[str, Feature] = {f.name: f for f in (
    Feature(
        "heat",
        enabled=lambda s: s.obs.heat.enabled,
        status=_heat_status,
        configure=lambda s, **o: s.instance.enable_heat(**o),
        options=(
            Param("top_k", int,
                  "Space-Saving sketch capacity (hot-set size bound)"),
            Param("hot_min", int,
                  "guaranteed count before a key counts as hot"),
            Param("windows", float,
                  "EWMA decay window in seconds (repeatable)",
                  repeat=True, flag="window"),
            Param("sample_interval", float,
                  "virtual seconds between occupancy samples"),
            Param("max_objects", int,
                  "per-object stat table cap (LRU beyond this)"),
        ),
        actions=(
            Action(
                "summary",
                lambda s, limit=None: s.obs.heat.summary(limit=limit),
                (Param("limit", int, "cap the hot list in the snapshot"),),
                merge=lambda states: merge_summaries(list(states.values())),
            ),
        ),
    ),
    Feature(
        "placement",
        enabled=lambda s: s.instance.placement is not None,
        status=lambda s: s.instance.placement.status(),
        configure=lambda s, **o: s.instance.enable_placement(**o),
        options=(
            Param("objective", str, "cost-vs-latency weighting preset",
                  choices=("balanced", "latency", "cost")),
            Param("interval", float,
                  "virtual seconds between placement cycles"),
        ),
        actions=(
            Action("plan", lambda s: s.instance.placement.plan()),
            Action("run", lambda s: s.instance.placement.run_cycle(
                RequestContext(s.clock), origin="manual"
            )),
        ),
    ),
    Feature(
        "resilience",
        enabled=lambda s: s.instance.resilience is not None,
        status=lambda s: s.instance.resilience.summary(),
        configure=lambda s, **o: s.instance.enable_resilience(**o),
        actions=(Action("replay", _resilience_replay),),
    ),
    Feature(
        "durability",
        enabled=lambda s: s.instance.durability is not None,
        status=lambda s: s.instance.durability.summary(),
        configure=lambda s, **o: s.instance.enable_durability(**o),
        actions=(
            Action(
                "fsck",
                lambda s, repair=False: fsck(s.instance, repair=repair),
                (Param("repair", bool, "fix findings, not just report"),),
                needs_enabled=False,
            ),
            Action(
                "snapshot", _snapshot,
                (Param("include_volatile", bool,
                       "also archive volatile (memcached) tier contents"),),
                needs_enabled=False, bytes_out=("archive",),
                merge=_bundle_snapshots,
            ),
            Action(
                "restore",
                lambda s, archive: restore_archive(s.instance, archive),
                (Param("archive", bytes, "archive file written by snapshot"),),
                needs_enabled=False, per_shard=_own_archive,
            ),
        ),
    ),
    Feature(
        "backup",
        enabled=lambda s: s.instance.backup is not None,
        status=lambda s: s.instance.backup.health_summary(),
        configure=lambda s, **o: s.instance.enable_backups(**o),
        per_shard=_own_root,
        actions=(
            Action(
                "snapshot",
                lambda s, **p: s.instance.backup.snapshot(**p),
                (Param("kind", str,
                       choices=("auto", "full", "incremental")),
                 Param("immutable", bool,
                       "protect this snapshot from retention pruning")),
            ),
            Action(
                "restore",
                lambda s, **p: s.instance.backup.restore(**p),
                (Param("to_seq", int,
                       "replay the archived journal up to this sequence "
                       "number"),
                 Param("to_time", float,
                       "restore to the latest archived state at/before "
                       "this virtual time"),
                 Param("snapshot_id", int,
                       "restore exactly this snapshot (no journal replay)")),
            ),
            Action(
                "prune",
                lambda s, **p: s.instance.backup.prune(**p),
                (Param("keep_last", int, "keep the N newest snapshots"),
                 Param("keep_window", float,
                       "keep snapshots from the last W virtual seconds")),
            ),
            Action("verify", lambda s: s.instance.backup.verify_restore()),
            Action("list", lambda s: {
                "snapshots": s.instance.backup.list_snapshots()
            }),
            Action(
                "mark_immutable",
                lambda s, snapshot_id: s.instance.backup.mark_immutable(
                    snapshot_id
                ),
                (Param("snapshot_id", int),),
            ),
        ),
    ),
    Feature(
        "slo",
        enabled=lambda s: bool(s.obs.slo.objectives),
        status=lambda s: s.obs.slo.summary(),
        configure=_install_slos,
    ),
    Feature(
        "cluster",
        enabled=lambda s: getattr(s, "cluster", None) is not None,
        status=lambda s: s.cluster.summary(),
        actions=(
            Action(
                "fsck",
                lambda s, repair=False: s.cluster.fsck(repair=repair),
                (Param("repair", bool,
                       "with fsck: fix findings, not just report"),),
            ),
            Action(
                "replay",
                lambda s, target=None: s.cluster.replay_hints(target),
                (Param("target", str,
                       "with replay: drain hints for this shard only"),),
            ),
            Action("anti_entropy", lambda s: s.cluster.anti_entropy()),
        ),
        router_level=True,
    ),
)}


def action_spec(feature: str, action: str) -> Optional[Action]:
    """The table's entry for ``feature.action`` (``None`` if unknown)."""
    spec = FEATURES.get(feature)
    return spec.action(action) if spec is not None else None


# -- the three ManagementAPI verbs, over any serving façade -----------------


class _Refused(Exception):
    """Raised inside a verb body: ``(stable code, message)``."""


def _answer(server, feature: str, action: str, body) -> ManagementResult:
    """The one place envelopes are made: run ``body(spec) -> state`` and
    capture a refusal, a domain error (its own stable code) or refused
    arguments (``TypeError``/``ValueError``: ``BAD_CONFIG``); anything
    else propagates."""
    spec = FEATURES.get(feature)
    if spec is None:
        return ManagementResult(
            feature=feature, action=action, ok=False, error=UNKNOWN_FEATURE,
            error_message=(
                f"unknown manageable feature {feature!r}; known: "
                + ", ".join(FEATURES)
            ),
        )
    state, code, message = {}, None, None
    try:
        state = body(spec)
    except _Refused as exc:
        code, message = exc.args
    except (TieraError, SimCloudError) as exc:
        code, message = code_for(exc), str(exc)
    except (TypeError, ValueError) as exc:
        code, message = BAD_CONFIG, str(exc)
    return ManagementResult(
        feature=feature, action=action, ok=code is None,
        enabled=spec.enabled(server), state=state,
        error=code, error_message=message,
    )


def _for_shard(entry, args: dict, shard: Optional[Shard]) -> dict:
    """``args`` as ``shard`` — one of a router's several — gets them."""
    if shard is None or entry.per_shard is None:
        return args
    return entry.per_shard(args, shard)


def status(server, feature: str) -> ManagementResult:
    """Inspect ``feature`` (``enabled=False`` and no state while off)."""
    return _answer(
        server, feature, "status",
        lambda spec: spec.status(server) if spec.enabled(server) else {},
    )


def configure(server, feature: str, options: Dict[str, object],
              shard: Optional[Shard] = None) -> ManagementResult:
    """Enable or retune ``feature``; the envelope carries its
    post-configure status.  ``shard`` says which one ``server`` is when
    it is one of a router's several (see :attr:`Action.per_shard`)."""

    def body(spec: Feature):
        if spec.configure is None:
            raise _Refused(
                BAD_CONFIG,
                f"{feature} is fixed at construction, not configurable",
            )
        spec.configure(server, **_for_shard(spec, options, shard))
        return spec.status(server) if spec.enabled(server) else {}

    return _answer(server, feature, "configure", body)


def invoke(server, feature: str, action: str, params: Dict[str, object],
           shard: Optional[Shard] = None) -> ManagementResult:
    """Run one of ``feature``'s extra actions with typed parameters
    (``shard`` as for :func:`configure`)."""

    def body(spec: Feature):
        act = spec.action(action)
        if act is None:
            raise _Refused(
                UNKNOWN_ACTION,
                f"unknown {feature} action {action!r}; known: "
                + ", ".join(a.name for a in spec.actions),
            )
        if act.needs_enabled and not spec.enabled(server):
            raise _Refused(FEATURE_DISABLED, f"{feature} is not enabled")
        known = [p.name for p in act.params]
        unknown = sorted(set(params) - set(known))
        if unknown:
            raise _Refused(
                BAD_CONFIG,
                f"unknown {feature}.{action} parameter(s) "
                f"{', '.join(unknown)}; known: {', '.join(known) or 'none'}",
            )
        return act.run(server, **{
            name: value
            for name, value in _for_shard(act, params, shard).items()
            if value is not None
        })

    return _answer(server, feature, action, body)


class ManagementVerbs:
    """The :class:`~repro.core.api.ManagementAPI` verbs for an
    in-process façade: each is one of the lookups above, run on the
    façade itself.  A shard router overrides :meth:`_manage` to fan the
    call out and fold the envelopes.  Errors come back captured in the
    envelope, never raised."""

    def configure(self, feature: str, **options) -> ManagementResult:
        """Enable or retune ``feature``; on success the envelope carries
        its post-configure status."""
        return self._manage(feature, lambda server, shard: configure(
            server, feature, options, shard
        ))

    def feature_status(self, feature: str) -> ManagementResult:
        """Inspect ``feature``."""
        return self._manage(feature, lambda server, _: status(server, feature))

    def invoke(self, feature: str, action: str, **params) -> ManagementResult:
        """Run one of ``feature``'s extra actions; the result rides in
        ``state``."""
        return self._manage(feature, lambda server, shard: invoke(
            server, feature, action, params, shard
        ))

    def _manage(self, feature: str, call) -> ManagementResult:
        return call(self, None)


# -- shard fan-out and the RPC byte fields ----------------------------------


def merge_shards(results: Sequence[Tuple[str, ManagementResult]]
                 ) -> ManagementResult:
    """Fold per-shard envelopes (in shard-name order) into one.

    One shard: its envelope, unchanged, so a 1-shard router answers
    exactly like the direct façade.  Several: ``ok``/``enabled`` are
    the conjunction, the first error surfaces, and ``state`` is the
    action's merge rule over the shard states — by default the
    ``{"shards": {name: state}}`` nest.
    """
    first = results[0][1]
    if len(results) == 1:
        return first
    failed = next((r for _, r in results if not r.ok), None)
    act = action_spec(first.feature, first.action)
    state = {name: r.state for name, r in results}
    if act is not None and act.merge is not None and failed is None:
        state = act.merge(state)
    else:
        state = {"shards": state}
    return ManagementResult(
        feature=first.feature,
        action=first.action,
        ok=failed is None,
        enabled=all(r.enabled for _, r in results),
        state=state,
        error=failed.error if failed is not None else None,
        error_message=failed.error_message if failed is not None else None,
    )


def code_params(feature: str, action: str, params: Dict[str, object],
                codec: Callable) -> Dict[str, object]:
    """``params`` with ``codec`` applied to the byte-typed ones."""
    act = action_spec(feature, action)
    marked = {p.name for p in act.params if p.type is bytes} if act else ()
    return {
        name: codec(value) if name in marked and value is not None else value
        for name, value in params.items()
    }


def code_state(result: ManagementResult, codec: Callable) -> ManagementResult:
    """``result`` with ``codec`` applied to the action's byte-valued
    state fields, through a multi-shard nest."""
    act = action_spec(result.feature, result.action)
    if act is None or not act.bytes_out:
        return result

    def walk(state):
        if set(state) == {"shards"}:
            return {"shards": {n: walk(s) for n, s in state["shards"].items()}}
        return {
            key: codec(value) if key in act.bytes_out else value
            for key, value in state.items()
        }

    return replace(result, state=walk(result.state))
