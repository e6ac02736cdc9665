"""Object metadata: attributes, serialization, checksums."""

import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.objects import ObjectMeta, content_checksum


class TestChecksum:
    def test_deterministic(self):
        assert content_checksum(b"abc") == content_checksum(b"abc")

    def test_content_sensitive(self):
        assert content_checksum(b"abc") != content_checksum(b"abd")


class TestObjectMeta:
    def test_touch_updates_recency_and_frequency(self):
        meta = ObjectMeta(key="k", created_at=0.0)
        meta.touch(10.0)
        meta.touch(20.0)
        assert meta.last_access == 20.0
        assert meta.access_count == 2
        assert meta.access_frequency(20.0) == pytest.approx(0.1)

    def test_modified_bumps_version(self):
        meta = ObjectMeta(key="k")
        meta.modified(5.0)
        assert meta.version == 1
        assert meta.last_modified == 5.0

    def test_in_tier(self):
        meta = ObjectMeta(key="k", locations={"tier1"})
        assert meta.in_tier("tier1")
        assert not meta.in_tier("tier2")

    def test_json_roundtrip(self):
        meta = ObjectMeta(
            key="k", size=42, locations={"a", "b"}, dirty=True,
            tags={"tmp"}, created_at=1.0, last_access=2.0, last_modified=3.0,
            access_count=7, version=2, checksum="ff", compressed=True,
            encrypted=True, alias_of="other", refcount=3,
        )
        restored = ObjectMeta.from_json(meta.to_json())
        assert restored == meta
        # One codec: the JSON form is the doc form serialised, and a doc
        # round trip is a deep copy (edits to either side stay there).
        doc = meta.to_doc()
        assert meta.to_json() == json.dumps(doc, sort_keys=True).encode()
        copy = ObjectMeta.from_doc(doc)
        assert copy == meta
        doc["locations"].append("c")
        copy.tags.add("other")
        assert meta.locations == {"a", "b"} and meta.tags == {"tmp"}
        assert copy.locations == {"a", "b"}

    @given(
        key=st.text(min_size=1, max_size=30),
        size=st.integers(min_value=0, max_value=2 ** 40),
        locations=st.sets(st.sampled_from(["t1", "t2", "t3"])),
        dirty=st.booleans(),
        tags=st.sets(st.text(max_size=8), max_size=4),
        access_count=st.integers(min_value=0, max_value=10 ** 6),
    )
    @settings(max_examples=60, deadline=None)
    def test_json_roundtrip_property(
        self, key, size, locations, dirty, tags, access_count
    ):
        meta = ObjectMeta(
            key=key, size=size, locations=locations, dirty=dirty,
            tags=tags, access_count=access_count,
        )
        assert ObjectMeta.from_json(meta.to_json()) == meta
