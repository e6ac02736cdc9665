"""Wire-frame unit tests (socketpair, no server needed).

A frame is ``>II (header_len, payload_len) | JSON header | raw payload``;
bytes-valued header fields are ``[offset, length]`` references into the
payload section.
"""

import ast
import socket
import struct
from functools import partial
from pathlib import Path

import pytest

from repro.rpc import protocol
from repro.rpc.protocol import (
    MAX_FRAME,
    ConnectionClosed,
    MalformedHeader,
    decode_bytes,
    encode_bytes,
    read_frame,
    write_frame,
)


@pytest.fixture
def pair():
    a, b = socket.socketpair()
    yield a, b
    a.close()
    b.close()


def _send_raw(sock, header: bytes, payload: bytes = b"") -> None:
    sock.sendall(struct.pack(">II", len(header), len(payload)) + header + payload)


class TestFraming:
    def test_roundtrip(self, pair):
        a, b = pair
        message = {"id": 1, "method": "put", "params": {"key": "k"}}
        write_frame(a, message)
        header, payload = read_frame(b)
        assert header == message
        assert bytes(payload) == b""

    def test_multiple_frames_in_order(self, pair):
        a, b = pair
        for i in range(5):
            write_frame(a, {"id": i}, bytes([i]) * i)
        for i in range(5):
            header, payload = read_frame(b)
            assert header == {"id": i}
            assert bytes(payload) == bytes([i]) * i

    def test_eof_returns_none(self, pair):
        a, b = pair
        a.close()
        assert read_frame(b) is None

    def test_eof_mid_frame_is_connection_closed(self, pair):
        a, b = pair
        a.sendall(struct.pack(">II", 10, 10) + b"{}")
        a.close()
        with pytest.raises(ConnectionClosed):
            read_frame(b)

    def test_oversized_frame_rejected_on_read(self, pair):
        """The bound is on header + payload: two halves that each fit
        are refused together, before anything is allocated for them."""
        a, b = pair
        half = MAX_FRAME // 2 + 1
        a.sendall(struct.pack(">II", half, half))
        with pytest.raises(ValueError):
            read_frame(b)

    def test_oversized_frame_rejected_on_write(self, pair, monkeypatch):
        a, b = pair
        monkeypatch.setattr(protocol, "MAX_FRAME", 64)
        with pytest.raises(ValueError):
            write_frame(a, {"blob": "x" * 30}, b"y" * 30)
        write_frame(a, {"id": 1}, b"y" * 30)    # 8-byte header: fits
        assert read_frame(b)[0] == {"id": 1}

    def test_header_plus_payload_over_the_bound_refused_on_read(
        self, pair, monkeypatch
    ):
        a, b = pair
        monkeypatch.setattr(protocol, "MAX_FRAME", 64)
        _send_raw(a, b'{"id":1}', b"y" * 60)
        with pytest.raises(ValueError):
            read_frame(b)

    def test_unicode_payloads(self, pair):
        a, b = pair
        text = "héllo ☃".encode("utf-8")
        write_frame(a, {"text": "héllo ☃"}, text)
        header, payload = read_frame(b)
        assert header == {"text": "héllo ☃"}
        assert bytes(payload) == text

    @pytest.mark.parametrize("header", [b"{bad", b"\xff\xfe{}", b"[" * 100000])
    def test_a_malformed_header_consumes_its_frame(self, pair, header):
        """Bad JSON or bad UTF-8 in an intact frame keeps the stream in
        step: the next frame reads normally."""
        a, b = pair
        _send_raw(a, header, b"payload")
        write_frame(a, {"id": 2})
        with pytest.raises(MalformedHeader):
            read_frame(b)
        assert read_frame(b)[0] == {"id": 2}

    def test_one_sendall_per_frame(self):
        """Two writes per frame would meet Nagle's algorithm and the
        peer's delayed ACK."""
        writes = []

        class Recorder:
            def sendall(self, data):
                writes.append(bytes(data))

        write_frame(Recorder(), {"id": 1}, b"raw")
        assert writes == [struct.pack(">II", 8, 3) + b'{"id":1}raw']


def _roundtrip(pair, *blobs):
    """Send ``blobs`` as references in one frame; resolve them back."""
    a, b = pair
    out = bytearray()
    write_frame(a, {"refs": [encode_bytes(out, blob) for blob in blobs]}, out)
    header, payload = read_frame(b)
    return [decode_bytes(payload, ref) for ref in header["refs"]]


class TestBytesCodec:
    def test_roundtrip(self, pair):
        blob = bytes(range(256))
        assert _roundtrip(pair, blob) == [blob]

    def test_empty(self, pair):
        assert _roundtrip(pair, b"") == [b""]

    def test_three_payloads_in_one_frame(self, pair):
        blobs = [b"first", b"", bytes(range(256)) * 4]
        out = bytearray()
        refs = [encode_bytes(out, blob) for blob in blobs]
        assert refs == [[0, 5], [5, 0], [5, 1024]]
        assert _roundtrip(pair, *blobs) == blobs

    def test_decoded_bytes_are_bytes(self, pair):
        (value,) = _roundtrip(pair, b"abc")
        assert type(value) is bytes

    @pytest.mark.parametrize("ref", [[0, 4], [4, 0], [-1, 1], [1, -1], [2, 2]])
    def test_a_reference_outside_the_payload_is_refused(self, ref):
        with pytest.raises(ValueError):
            decode_bytes(b"abc", ref)

    @pytest.mark.parametrize(
        "ref",
        ["@@@", "YWJj", [0], [0, 1, 2], [0.0, 1], [0, 1.0], [True, 1],
         ["0", "1"], {"offset": 0, "length": 1}, 3],
    )
    def test_a_reference_of_the_wrong_type_is_refused(self, ref):
        with pytest.raises(TypeError):
            decode_bytes(b"abc", ref)

    def test_codecs_bind_to_one_frame(self, pair):
        """The façades take one-argument codecs: ``partial`` binds the
        frame's payload section."""
        out = bytearray()
        encode = partial(encode_bytes, out)
        assert [encode(b"ab"), encode(b"cd")] == [[0, 2], [2, 2]]
        decode = partial(decode_bytes, memoryview(bytes(out)))
        assert decode([2, 2]) == b"cd"


def test_the_rpc_package_imports_no_base64():
    """Object bytes cross the wire raw; no codec turns them into text."""
    for path in Path(protocol.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            assert "base64" not in names, path
