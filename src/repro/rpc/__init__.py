"""RPC over TCP: the prototype's Thrift role.

The paper deploys the Tiera server as a Thrift server so applications in
any language can call PUT/GET remotely.  This package provides the
equivalent: length-prefixed frames of a JSON header and raw payload
bytes (:mod:`repro.rpc.protocol`), a thread-pooled server
(:class:`~repro.rpc.server.TieraRpcServer`) whose pool sizes come from
the control layer's configuration (§3's "thread pool dedicated to
service client requests"), and a blocking client
(:class:`~repro.rpc.client.TieraClient`).

RPC runs on real threads: use it with instances built on
:class:`~repro.simcloud.clock.WallClock`.
"""

from repro.rpc.client import TieraClient
from repro.rpc.protocol import RpcError, read_frame, write_frame
from repro.rpc.server import TieraRpcServer

__all__ = ["RpcError", "TieraClient", "TieraRpcServer", "read_frame", "write_frame"]
