#!/usr/bin/env python
"""The deployment shape of the paper's prototype: a Tiera server
process (Thrift in the paper, framed JSON-RPC here) serving remote
clients over TCP, on real wall-clock time.

Run:  python examples/remote_server.py
"""

from repro.core.server import TieraServer
from repro.core.templates import write_through_instance
from repro.rpc import TieraClient, TieraRpcServer
from repro.simcloud.clock import WallClock
from repro.simcloud.cluster import Cluster
from repro.tiers.registry import TierRegistry


def main() -> None:
    clock = WallClock()
    cluster = Cluster(clock=clock)
    # A PUT writes Memcached and EBS together before it is acknowledged.
    instance = write_through_instance(
        TierRegistry(cluster), mem="64M", ebs="64M"
    )

    with TieraRpcServer(TieraServer(instance), port=0) as rpc:
        print(f"Tiera server listening on {rpc.host}:{rpc.port}")
        with TieraClient(rpc.host, rpc.port) as client:
            print(f"ping → {client.ping()}")
            stored = client.put_object(
                "remote-object", b"bytes over the wire", tags=["demo"]
            ).raise_for_error()
            print(f"PUT acknowledged (simulated latency "
                  f"{stored.latency * 1000:.2f} ms)")
            fetched = client.get_object("remote-object").raise_for_error()
            print(f"GET → {fetched.value!r}")
            print(f"stat → {client.stat('remote-object')}")
            print("tiers:")
            for tier in client.tiers():
                print(f"  {tier['name']}: kind={tier['kind']} "
                      f"used={tier['used']} available={tier['available']}")
    instance.shutdown()
    clock.shutdown()
    print("server stopped cleanly")


if __name__ == "__main__":
    main()
