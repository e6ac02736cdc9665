"""LogStore / MemoryStore: roundtrips, recovery, compaction, torn tails."""

import os
import shutil

import pytest
from hypothesis import given, settings, strategies as st

from repro.kvstore import CorruptRecordError, LogStore, MemoryStore
from repro.kvstore.record import decode_at, encode


@pytest.fixture
def store_path(tmp_path):
    return str(tmp_path / "meta.db")


class TestRecordFormat:
    def test_roundtrip_put(self):
        blob = encode(b"key", b"value")
        key, value, nxt = decode_at(blob, 0)
        assert (key, value, nxt) == (b"key", b"value", len(blob))

    def test_roundtrip_tombstone(self):
        blob = encode(b"key", None)
        key, value, _ = decode_at(blob, 0)
        assert key == b"key"
        assert value is None

    def test_empty_key_and_value(self):
        blob = encode(b"", b"")
        key, value, _ = decode_at(blob, 0)
        assert (key, value) == (b"", b"")

    def test_checksum_detects_corruption(self):
        blob = bytearray(encode(b"key", b"value"))
        blob[-1] ^= 0xFF
        with pytest.raises(CorruptRecordError):
            decode_at(bytes(blob), 0)

    def test_truncation_detected(self):
        blob = encode(b"key", b"value")
        with pytest.raises(CorruptRecordError):
            decode_at(blob[:-2], 0)

    @given(st.binary(max_size=200), st.one_of(st.none(), st.binary(max_size=500)))
    @settings(max_examples=100, deadline=None)
    def test_roundtrip_property(self, key, value):
        decoded_key, decoded_value, _ = decode_at(encode(key, value), 0)
        assert decoded_key == key
        assert decoded_value == value


class TestMemoryStore:
    def test_put_get(self):
        with MemoryStore() as store:
            store.put(b"a", b"1")
            assert store.get(b"a") == b"1"

    def test_get_missing_is_none(self):
        assert MemoryStore().get(b"missing") is None

    def test_delete(self):
        store = MemoryStore()
        store.put(b"a", b"1")
        assert store.delete(b"a") is True
        assert store.delete(b"a") is False
        assert store.get(b"a") is None

    def test_contains_and_len(self):
        store = MemoryStore()
        store.put(b"a", b"1")
        store.put(b"b", b"2")
        assert b"a" in store
        assert len(store) == 2


class TestLogStore:
    def test_put_get_roundtrip(self, store_path):
        with LogStore(store_path) as store:
            store.put(b"a", b"1")
            store.put(b"b", b"22")
            assert store.get(b"a") == b"1"
            assert store.get(b"b") == b"22"

    def test_overwrite_returns_latest(self, store_path):
        with LogStore(store_path) as store:
            store.put(b"a", b"old")
            store.put(b"a", b"new")
            assert store.get(b"a") == b"new"

    def test_persistence_across_reopen(self, store_path):
        with LogStore(store_path) as store:
            store.put(b"a", b"1")
            store.delete(b"a")
            store.put(b"b", b"2")
        with LogStore(store_path) as store:
            assert store.get(b"a") is None
            assert store.get(b"b") == b"2"

    def test_torn_tail_recovery(self, store_path):
        with LogStore(store_path) as store:
            store.put(b"good", b"data")
        # Simulate a crash mid-append: garbage at the end of the log.
        with open(store_path, "ab") as raw:
            raw.write(b"\x13\x37torn-record-without-valid-header")
        with LogStore(store_path) as store:
            assert store.get(b"good") == b"data"
            store.put(b"after", b"recovery")  # log still usable
        with LogStore(store_path) as store:
            assert store.get(b"after") == b"recovery"

    def test_torn_tail_mid_record_truncation(self, store_path):
        # Crash mid-append: the last record is cut short, not garbage.
        with LogStore(store_path) as store:
            store.put(b"first", b"one")
            store.put(b"second", b"two")
        size = os.path.getsize(store_path)
        with open(store_path, "r+b") as raw:
            raw.truncate(size - 3)
        with LogStore(store_path) as store:
            assert store.get(b"first") == b"one"
            assert store.get(b"second") is None  # never fully written
            store.put(b"second", b"again")       # log still appendable
        with LogStore(store_path) as store:
            assert store.get(b"second") == b"again"

    def test_stale_compact_file_cleaned_on_open(self, store_path):
        # Crash between writing the compaction temp file and the
        # os.replace: the stale .compact was never the live store and
        # must not shadow (or block) a later compaction.
        with LogStore(store_path) as store:
            store.put(b"a", b"live")
        with open(store_path + ".compact", "wb") as raw:
            raw.write(b"half-written compaction output")
        with LogStore(store_path) as store:
            assert store.get(b"a") == b"live"
            store.put(b"a", b"newer")
            store.compact()
            assert store.get(b"a") == b"newer"
        assert not os.path.exists(store_path + ".compact")

    def test_compact_swap_survives_immediate_crash(self, store_path, tmp_path):
        # Crash right after compact()'s os.replace, before any further
        # writes or a clean close: the swapped-in file alone must be a
        # complete, reopenable log (compact fsyncs before the swap).
        snapshot = str(tmp_path / "crashed.db")
        with LogStore(store_path) as store:
            for i in range(9):
                store.put(b"k%d" % (i % 3), b"v%d" % i)
            store.delete(b"k0")
            store.compact()
            shutil.copyfile(store_path, snapshot)
        with LogStore(snapshot) as store:
            assert store.get(b"k0") is None
            assert store.get(b"k1") == b"v7"
            assert store.get(b"k2") == b"v8"
            assert store.dead_bytes == 0

    def test_dead_bytes_tracking(self, store_path):
        with LogStore(store_path) as store:
            assert store.dead_bytes == 0
            store.put(b"a", b"1")
            store.put(b"a", b"2")
            assert store.dead_bytes > 0

    def test_compaction_reclaims_and_preserves(self, store_path):
        with LogStore(store_path) as store:
            for i in range(50):
                store.put(b"key%d" % (i % 5), b"v%d" % i)
            store.delete(b"key0")
            store.sync()
            size_before = os.path.getsize(store_path)
            store.compact()
            assert store.dead_bytes == 0
            assert os.path.getsize(store_path) < size_before
            assert store.get(b"key0") is None
            assert store.get(b"key4") == b"v49"
        with LogStore(store_path) as store:  # survives reopen
            assert store.get(b"key4") == b"v49"

    def test_keys_iteration(self, store_path):
        with LogStore(store_path) as store:
            store.put(b"a", b"1")
            store.put(b"b", b"2")
            store.delete(b"a")
            assert sorted(store.keys()) == [b"b"]

    def test_items(self, store_path):
        with LogStore(store_path) as store:
            store.put(b"a", b"1")
            assert list(store.items()) == [(b"a", b"1")]

    def test_sync_writes_mode(self, store_path):
        with LogStore(store_path, sync_writes=True) as store:
            store.put(b"a", b"1")
            assert store.get(b"a") == b"1"

    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=9),
                st.one_of(st.none(), st.binary(max_size=40)),
            ),
            max_size=60,
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_matches_dict_model(self, tmp_path_factory, ops):
        """Property: LogStore behaves exactly like a dict, including
        after close/reopen."""
        path = str(tmp_path_factory.mktemp("kv") / "model.db")
        model = {}
        with LogStore(path) as store:
            for key_id, value in ops:
                key = b"k%d" % key_id
                if value is None:
                    assert store.delete(key) == (key in model)
                    model.pop(key, None)
                else:
                    store.put(key, value)
                    model[key] = value
        with LogStore(path) as store:
            assert {k: store.get(k) for k in store.keys()} == model


def _concatenated_encode(key, value):
    """The record formula before the CRC was chained: hash the lengths
    and the body joined into one buffer."""
    import struct
    import zlib

    vlen = 0xFFFFFFFF if value is None else len(value)
    body = key if value is None else key + value
    lengths = struct.pack("<II", len(key), vlen)
    crc = zlib.crc32(lengths + body) & 0xFFFFFFFF
    return struct.pack("<III", crc, len(key), vlen) + body


class TestCheaperAppends:
    @given(st.binary(max_size=64), st.one_of(st.none(), st.binary(max_size=256)))
    @settings(max_examples=200, deadline=None)
    def test_encode_is_the_concatenated_formula(self, key, value):
        assert encode(key, value) == _concatenated_encode(key, value)

    def test_index_offsets_survive_every_append_path(self, store_path):
        def check(store):
            # every indexed record sits where the index says, and the
            # next append lands at the end of the file
            with open(store_path, "rb") as handle:
                buf = handle.read()
            for key, (offset, length) in store._index.items():
                got, value, nxt = decode_at(buf, offset)
                assert (got, nxt - offset) == (key, length)
                assert value == store.get(key)
            assert store._end == len(buf)

        store = LogStore(store_path)
        for i in range(20):
            store.put(b"k%d" % i, b"v" * i)
        for i in range(0, 20, 3):
            store.delete(b"k%d" % i)
        store.put(b"k1", b"again")
        store.sync()
        check(store)
        store.close()
        with open(store_path, "ab") as handle:
            handle.write(encode(b"torn", b"tail")[:7])
        store = LogStore(store_path)
        check(store)
        store.put(b"after-torn", b"x")
        store.sync()
        check(store)
        store.compact()
        check(store)
        store.put(b"after-compact", b"y")
        store.delete(b"k2")
        store.sync()
        check(store)
        assert store.get(b"after-torn") == b"x"
        assert store.get(b"after-compact") == b"y"
        store.close()
