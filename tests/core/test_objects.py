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

    def test_holds(self):
        meta = ObjectMeta(key="k", locations={"tier1"})
        assert meta.holds("tier1")
        assert not meta.holds("tier2")

    def test_add_and_drop_copy_are_idempotent(self):
        meta = ObjectMeta(key="k")
        meta.add_copy("tier2")
        meta.add_copy("tier2")
        assert meta.copies() == ["tier2"]
        meta.drop_copy("tier2")
        meta.drop_copy("tier2")
        meta.drop_copy("never")
        assert meta.copies() == [] and not meta.holds("tier2")

    def test_copies_are_sorted_and_fresh(self):
        meta = ObjectMeta(key="k")
        for tier in ("tier3", "tier1", "tier2"):
            meta.add_copy(tier)
        held = meta.copies()
        assert held == ["tier1", "tier2", "tier3"]
        held.append("tier9")  # the caller's list, not the row
        assert not meta.holds("tier9")

    def test_bulk_forms(self):
        meta = ObjectMeta(key="k", locations={"a", "b", "c"})
        meta.drop_copies(["a", "c", "z"])
        assert meta.copies() == ["b"]
        meta.set_copies(["d", "c"])
        assert meta.copies() == ["c", "d"]
        meta.clear_copies()
        assert meta.copies() == []

    def test_doc_keeps_copies_a_sorted_list(self):
        meta = ObjectMeta(key="k")
        for tier in ("tier3", "tier1", "tier2"):
            meta.add_copy(tier)
        doc = meta.to_doc()
        assert doc["locations"] == ["tier1", "tier2", "tier3"]
        restored = ObjectMeta.from_doc(json.loads(json.dumps(doc)))
        assert restored == meta
        assert restored.copies() == meta.copies()
        assert restored.to_json() == meta.to_json()
        assert b'"locations": ["tier1", "tier2", "tier3"]' in meta.to_json()

    def test_doc_post_images_leave_the_row_alone(self):
        meta = ObjectMeta(key="k", locations={"tier2"})
        assert meta.to_doc(with_copy="tier1")["locations"] == ["tier1", "tier2"]
        assert meta.to_doc(with_copy="tier2")["locations"] == ["tier2"]
        assert meta.to_doc(without_copies=("tier2",))["locations"] == []
        assert meta.to_doc(without_copies=("tier9",))["locations"] == ["tier2"]
        assert meta.to_doc(
            with_copy="tier1", without_copies=("tier2", "tier9")
        )["locations"] == ["tier1"]
        assert meta.copies() == ["tier2"]

    def test_digest_row(self):
        meta = ObjectMeta(key="k", size=4, locations={"b", "a"}, version=2,
                          checksum="ff")
        assert meta.digest_row() == ("k", 4, ("a", "b"), 2, "ff")

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
