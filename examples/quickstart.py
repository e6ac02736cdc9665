#!/usr/bin/env python
"""Quickstart: define a Tiera instance from a spec, store data, watch
the policy manage its life cycle.

Run:  python examples/quickstart.py
"""

from repro.core.server import TieraServer
from repro.simcloud.cluster import Cluster
from repro.spec import Compiler, compile_spec, parse
from repro.tiers.registry import TierRegistry

# Figure 3 of the paper, verbatim: a low-latency instance that stores
# into Memcached and writes dirty data back to EBS every t seconds.
SPEC = """
Tiera LowLatencyInstance(time t) {
    % two tiers specified with initial sizes
    tier1: { name: Memcached, size: 64M };
    tier2: { name: EBS, size: 64M };

    % action event defined to always store data into Memcached
    event(insert.into) : response {
        insert.object.dirty = true;
        store(what: insert.object, to: tier1);
    }

    % write back policy: copy dirty data to the persistent store
    event(time=t) : response {
        copy(what: object.location == tier1 && object.dirty == true,
             to: tier2);
    }
}
"""

# A runtime policy change (§4.2.3) is spec text too: its rules compile
# on their own and join the running instance.
COMPRESS_SPEC = """
Tiera Compressing() {
    tier1: { name: Memcached, size: 64M };
    event "compress-on-insert"(insert.into) : response {
        compress(what: insert.object);
    }
}
"""


def main() -> None:
    # Everything runs against a simulated cloud: a cluster with a
    # deterministic clock and seeded latency models.
    cluster = Cluster(seed=7)
    registry = TierRegistry(cluster)

    instance = compile_spec(SPEC, registry, args={"t": 30})
    server = TieraServer(instance)
    print(f"compiled instance: {instance}")

    # PUT: the policy places the object in Memcached and marks it dirty.
    result = server.put_object("greeting", b"hello, tiered world",
                               tags=["demo"])
    meta = server.stat("greeting")
    print(f"PUT took {result.latency * 1000:.3f} ms "
          f"→ locations={meta.copies()} dirty={meta.dirty}")

    # GET: served from the fastest tier holding the object.
    result = server.get_object("greeting")
    print(f"GET returned {result.value!r} in {result.latency * 1000:.3f} ms")

    # Let simulated time pass: the timer event writes dirty data back.
    cluster.clock.advance(31)
    meta = server.stat("greeting")
    print(f"after 31 s: locations={meta.copies()} dirty={meta.dirty}")

    # The instance knows what its configuration costs per month.
    print(f"monthly storage cost: ${instance.monthly_cost():.2f}")

    # Policies can change at runtime (§4.2.3): stop writing back, start
    # compressing instead.
    instance.reconfigure(
        remove_rules=["LowLatencyInstance-rule-2"],
        add_rules=Compiler(parse(COMPRESS_SPEC), registry).rules(),
    )
    server.put_object("compressible", b"repetitive " * 1000)
    stored = instance.tiers.get("tier1").service.size_of("compressible")
    print(f"compress-on-insert: 11000 logical bytes → {stored} stored bytes")

    # Observability: trace one GET end to end, then dump the registry.
    server.get_object("greeting", trace=True)
    trace = server.last_trace()
    print(f"traced GET served by {trace.attrs.get('served_by')}: "
          + ", ".join(f"{span.name} ({span.kind})" for span in trace.children))

    snapshot = server.obs.snapshot(audit_limit=3)
    print(f"stats snapshot at t={snapshot['time']:.1f}s — "
          f"{len(snapshot['metrics'])} metric families, "
          f"{snapshot['audit']['appended']} audit records")
    requests = snapshot["metrics"]["tiera_requests_total"]["samples"]
    for labels, value in sorted(requests.items()):
        print(f"  tiera_requests_total{{{labels}}} = {value:.0f}")
    for record in snapshot["audit"]["tail"]:
        print(f"  audit [{record['time']:.1f}] {record['category']} "
              f"{record['name']} ({record['origin']})")


if __name__ == "__main__":
    main()
