"""Canned Tiera instances from the paper.

Every specification the paper prints (Figures 3, 4, 6) and every
instance its evaluation deploys (§4.1's MemcachedReplicated /
MemcachedEBS / MemcachedS3, Table 2's TI:1-3, Table 3's High/Low
Durability, Figures 12 and 14's instances, Figure 17's write-through
and its Ephemeral+S3 replacement) is one packaged spec file under
``repro/spec/paper/``.  This module is the table from builder name to
spec file: a builder compiles its spec over a
:class:`~repro.tiers.registry.TierRegistry`, its keyword arguments
being the spec's parameters (each has a default in the spec).
"""

from __future__ import annotations

from typing import Callable, List, Tuple

from repro.core.instance import TieraInstance
from repro.spec import Compiler, compile_spec, parse
from repro.spec.paper import paper_spec
from repro.tiers.registry import TierRegistry


def _builder(spec: str) -> Callable[..., TieraInstance]:
    def build(registry: TierRegistry, **args) -> TieraInstance:
        return compile_spec(paper_spec(spec), registry, args=args)

    build.__doc__ = f"Compile the packaged ``{spec}.tiera`` with ``args``."
    return build


low_latency_instance = _builder("low_latency")  # Figure 3
persistent_instance = _builder("persistent")  # Figure 4
memcached_replicated_instance = _builder("memcached_replicated")  # §4.1.1
memcached_ebs_instance = _builder("memcached_ebs")  # §4.1.1
memcached_s3_instance = _builder("memcached_s3")  # §4.1.1
high_durability_instance = _builder("high_durability")  # Table 3
low_durability_instance = _builder("low_durability")  # Table 3
replicated_volumes_instance = _builder("replicated_volumes")  # Figure 14
dedup_instance = _builder("dedup")  # Figure 12
write_through_instance = _builder("write_through")  # Figures 17, 18


def growing_instance(registry: TierRegistry, **args) -> TieraInstance:
    """Figure 6; ``grow_percent`` (percentage points, 100.0 doubles the
    tier) is the spec's ``growth`` fraction."""
    if "grow_percent" in args:
        args["growth"] = args.pop("grow_percent") / 100.0
    return compile_spec(paper_spec("growing"), registry, args=args)


def lru_tiered_instance(registry: TierRegistry, name: str, **args) -> TieraInstance:
    """Table 2's TI:n, named ``name`` (``TI:1``...)."""
    instance = compile_spec(paper_spec("lru_tiered"), registry, args=args)
    instance.name = name
    return instance


def ephemeral_s3_reconfiguration(
    registry: TierRegistry, **args
) -> Tuple[List, List]:
    """The Figure 17 repair kit: the tiers and rules of
    ``ephemeral_s3.tiera``, for :meth:`TieraInstance.reconfigure`."""
    compiler = Compiler(parse(paper_spec("ephemeral_s3")), registry, args)
    return compiler.tiers(), compiler.rules()
