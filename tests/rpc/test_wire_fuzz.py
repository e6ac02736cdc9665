"""Hostile bytes at the RPC edge: whatever a peer sends, the server
answers with coded replies or closes the connection cleanly, and keeps
serving fresh connections.

Bounded for tier-1: a fixed number of examples over one live server,
a few seconds in all.
"""

import json
import socket
import struct

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core import errors
from repro.core.server import TieraServer
from repro.core.templates import write_through_instance
from repro.rpc import TieraClient, TieraRpcServer
from repro.rpc.protocol import ConnectionClosed, read_frame
from repro.simcloud.clock import WallClock
from repro.simcloud.cluster import Cluster
from repro.tiers.registry import TierRegistry

#: every stable code the server may put in a reply.
CODES = {
    value for name, value in vars(errors).items()
    if name.isupper() and isinstance(value, str)
}

json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-(2**40), 2**40)
    | st.floats(allow_nan=False) | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=12,
)
references = st.lists(st.integers(-4, 80), min_size=0, max_size=3)
params = st.dictionaries(
    st.sampled_from(["key", "data", "tags", "tag", "prefer", "ops", "feature",
                     "action", "params", "options", "limit", "parallelism"]),
    json_values | references | st.text(max_size=6),
    max_size=4,
)
requests = st.fixed_dictionaries(
    {"method": st.sampled_from([
        "put_object", "get_object", "delete_object", "batch", "contains",
        "stat", "add_tag", "keys", "ping", "tiers", "nope", "",
    ])},
    optional={"id": json_values, "params": params | json_values},
)


def _header(doc) -> bytes:
    return json.dumps(doc).encode("utf-8")


#: a frame: (header_len, payload_len, body bytes actually sent).  The
#: lengths may disagree with the body; a short body ends at EOF.
frames = st.one_of(
    st.tuples(requests.map(_header), st.binary(max_size=64)).map(
        lambda hp: (len(hp[0]), len(hp[1]), hp[0] + hp[1])
    ),
    st.tuples(json_values.map(_header), st.binary(max_size=16)).map(
        lambda hp: (len(hp[0]), len(hp[1]), hp[0] + hp[1])
    ),
    st.tuples(
        st.integers(0, 2**32 - 1), st.integers(0, 2**32 - 1),
        st.binary(max_size=64),
    ),
    st.tuples(st.integers(0, 64), st.integers(0, 64), st.binary(max_size=128)),
)


@pytest.fixture(scope="module")
def server():
    clock = WallClock()
    instance = write_through_instance(
        TierRegistry(Cluster(clock=clock)), mem="8M", ebs="8M"
    )
    rpc = TieraRpcServer(TieraServer(instance), port=0).start()
    yield rpc
    rpc.stop()
    instance.shutdown()
    clock.shutdown()


def _replies(sock):
    """Every frame the server sends until it closes the connection."""
    while True:
        try:
            frame = read_frame(sock)
        except (ConnectionResetError, ConnectionClosed):
            return
        if frame is None:
            return
        yield frame[0]


@settings(
    max_examples=150, deadline=None, derandomize=True,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(sent=st.lists(frames, min_size=1, max_size=3))
def test_hostile_frames_end_in_coded_replies_or_a_clean_close(server, sent):
    with socket.create_connection((server.host, server.port), timeout=5) as sock:
        try:
            for header_len, payload_len, body in sent:
                sock.sendall(struct.pack(">II", header_len, payload_len) + body)
            sock.shutdown(socket.SHUT_WR)
        except OSError:
            pass                            # the server closed first
        for reply in _replies(sock):
            assert isinstance(reply, dict) and "id" in reply
            if "error" in reply:
                assert reply["error"]["code"] in CODES
            else:
                assert "result" in reply
    with TieraClient(server.host, server.port) as fresh:
        assert fresh.ping()
