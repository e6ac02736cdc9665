"""The data verbs' binary headers: the codec round-trips every field
exactly, and a put/get/delete/batch round trip runs no JSON."""

import socket
import struct

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.api import BatchOp, BatchResult, OpResult
from repro.core.server import TieraServer
from repro.core.templates import write_through_instance
from repro.rpc import RpcError, TieraClient, TieraRpcServer, protocol
from repro.rpc.protocol import (
    BATCH,
    DELETE_OBJECT,
    GET_OBJECT,
    PUT_OBJECT,
    decode_reply,
    decode_request,
    encode_error,
    encode_reply,
    encode_request,
    read_frame,
    write_frame,
)
from repro.simcloud.clock import WallClock
from repro.simcloud.cluster import Cluster
from repro.tiers.registry import TierRegistry

VERB_OF = {"put": PUT_OBJECT, "get": GET_OBJECT, "delete": DELETE_OBJECT}

texts = st.text(max_size=12)
optional_texts = st.none() | st.just("") | texts
#: the edges a latency must cross bit for bit, besides any float.
latencies = st.sampled_from(
    [0.0, -0.0, float("inf"), float("-inf"), 5e-324, 2.2250738585072014e-308]
) | st.floats()
payloads = st.none() | st.just(b"") | st.binary(max_size=64)

items = st.tuples(
    st.sampled_from(["put", "get", "delete"]),
    st.just("") | texts,
    payloads,
    st.none() | st.just([]) | st.lists(texts, max_size=3),
    optional_texts,
)
results = st.builds(
    OpResult,
    op=st.sampled_from(["put", "get", "delete"]),
    key=st.just("") | texts,
    ok=st.booleans(),
    latency=latencies,
    tier=texts,
    checksum=texts,
    size=st.integers(0, 2**63 - 1),
    error=optional_texts,
    error_message=texts,
    error_type=texts,
    value=payloads,
)
request_ids = st.integers(0, 2**64 - 1)


def _bits(x: float) -> bytes:
    return struct.pack(">d", x)


def _same(a: OpResult, b: OpResult) -> bool:
    """Equal, with the latency compared bit for bit (``-0.0 == 0.0``
    and ``nan != nan`` for ``==``)."""
    return _bits(a.latency) == _bits(b.latency) and a == OpResult(
        **{**vars(b), "latency": a.latency})


def _wire(header: bytes, payload: bytes):
    """What the peer's ``read_frame`` hands the decoder."""
    return header, memoryview(payload)


class TestCodecRoundTrip:
    @settings(max_examples=200, deadline=None)
    @given(item=items, request_id=request_ids)
    def test_a_single_verb_request(self, item, request_id):
        method = VERB_OF[item[0]]
        header, payload = encode_request(method, request_id, [item])
        assert protocol.request_head(header) == (method, request_id)
        assert decode_request(*_wire(header, payload)) == ([item], 0)

    @settings(max_examples=200, deadline=None)
    @given(ops=st.lists(items, max_size=6), parallelism=st.integers(-2**63, 2**63 - 1))
    def test_a_batch_request(self, ops, parallelism):
        header, payload = encode_request(BATCH, 5, ops, parallelism)
        assert decode_request(*_wire(header, payload)) == (ops, parallelism)

    @settings(max_examples=50, deadline=None)
    @given(ops=st.lists(items, max_size=4))
    def test_batch_ops_rebuild_their_items(self, ops):
        """The server builds a BatchOp from each decoded item: its
        fields are the item's."""
        valid = [item for item in ops if item[0] != "put" or item[2] is not None]
        header, payload = encode_request(BATCH, 1, valid, 2)
        decoded, _ = decode_request(*_wire(header, payload))
        assert [BatchOp(*item) for item in decoded] == [BatchOp(*item) for item in valid]

    @settings(max_examples=300, deadline=None)
    @given(result=results, request_id=request_ids)
    def test_a_single_verb_reply(self, result, request_id):
        method = VERB_OF[result.op]
        header, payload = encode_reply(method, request_id, result)
        assert protocol.request_head(header) == (method, request_id)
        decoded = decode_reply(*_wire(header, payload))
        assert _same(decoded, result)
        if result.ok:
            assert decoded.exception is None
        else:
            assert isinstance(decoded.exception, RpcError)
            assert decoded.exception.code == (result.error or "INTERNAL")

    @settings(max_examples=100, deadline=None)
    @given(found=st.lists(results, max_size=6), latency=latencies,
           parallelism=st.integers(1, 64))
    def test_a_batch_reply(self, found, latency, parallelism):
        batch = BatchResult(found, latency, parallelism)
        decoded = decode_reply(*_wire(*encode_reply(BATCH, 9, batch)))
        assert _bits(decoded.latency) == _bits(latency)
        assert decoded.parallelism == parallelism
        assert len(decoded.results) == len(found)
        assert all(map(_same, decoded.results, found))
        assert decoded.code == batch.code

    @given(code=texts, error_type=texts, message=texts, request_id=request_ids)
    def test_an_error_reply(self, code, error_type, message, request_id):
        header = encode_error(request_id, code, error_type, message)
        assert protocol.request_head(header)[1] == request_id
        with pytest.raises(RpcError) as err:
            decode_reply(header, memoryview(b""))
        assert (err.value.code, err.value.error_type, err.value.message) == (
            code or "INTERNAL", error_type or "Error", message)

    @pytest.mark.parametrize("cut", [1, 8, 12, 20])
    def test_a_cut_reply_is_a_value_error(self, cut):
        result = OpResult("get", "k", True, 0.5, "tier1", "c", 1, value=b"v")
        header, payload = encode_reply(GET_OBJECT, 1, result)
        with pytest.raises(ValueError):
            decode_reply(header[:cut], memoryview(payload))
        with pytest.raises(ValueError):
            decode_reply(header, memoryview(payload + b"!"))


class TestFraming:
    def test_a_binary_header_is_flagged_and_read_back_as_bytes(self):
        a, b = socket.socketpair()
        try:
            header, payload = encode_request(GET_OBJECT, 3, [("get", "k", None, None, None)])
            write_frame(a, header, payload)
            prefix = struct.unpack(">II", b.recv(8, socket.MSG_PEEK))
            assert prefix == (protocol.BINARY | len(header), 0)
            got, got_payload = read_frame(b)
            assert got == header and bytes(got_payload) == b""
        finally:
            a.close()
            b.close()


@pytest.fixture(scope="module")
def client():
    clock = WallClock()
    instance = write_through_instance(
        TierRegistry(Cluster(clock=clock)), mem="8M", ebs="8M"
    )
    rpc = TieraRpcServer(TieraServer(instance, max_inflight=4), port=0).start()
    with TieraClient(rpc.host, rpc.port) as conn:
        yield conn
    rpc.stop()
    instance.shutdown()
    clock.shutdown()


class _NoJson:
    def __getattr__(self, name):
        raise AssertionError(f"json.{name} on the data path")


def test_the_data_verbs_run_no_json(client, monkeypatch):
    """Every JSON entry point ``repro.rpc.protocol`` has raises here,
    on the client's side and the server's, for the whole round trip
    of each data verb — their errors included."""
    def no_encoder(_):
        raise AssertionError("a JSON header on the data path")

    monkeypatch.setattr(protocol, "json", _NoJson())
    monkeypatch.setattr(protocol, "_ENCODE", no_encoder)
    assert client.put_object("k", b"v", tags=["t"]).ok
    assert client.get_object("k").value == b"v"
    assert client.get_object("ghost").error == "NO_SUCH_OBJECT"
    batch = client.execute_batch([BatchOp.put("b", b"1"), BatchOp.get("k")])
    assert batch.ok and batch.values() == [None, b"v"]
    with pytest.raises(RpcError) as err:
        client.get_many([f"k{i}" for i in range(5)])
    assert err.value.code == "BACKPRESSURE"
    assert client.delete_object("k").ok
    monkeypatch.undo()
    assert client.ping()
