"""The one deferred-write queue under tier repair and hinted handoff:
its four rules (docs/RESILIENCE.md, "One deferred-write queue")."""

from repro.core.deferred import (
    DROPPED,
    REPLAYED,
    REQUEUED,
    Deferred,
    DeferredQueue,
)


def always(target):
    return True


def queue_of(*entries):
    queue = DeferredQueue()
    for key, target, holder in entries:
        queue.add(Deferred(key, target, holder))
    return queue


def order(queue):
    return [(e.key, e.target) for e in queue]


class TestNewestEntryWins:
    def test_a_duplicate_replaces_the_entry_in_place(self):
        queue = DeferredQueue()
        assert queue.add(Deferred("k", "t", "h1")) is True
        assert queue.add(Deferred("j", "t", "h1")) is True
        assert queue.add(Deferred("k", "t", "h2")) is False
        assert [(e.key, e.holder) for e in queue] == [("k", "h2"), ("j", "h1")]
        assert queue.recorded == 3 and queue.enqueued == 2

    def test_slots_are_per_key_and_target(self):
        queue = DeferredQueue()
        assert queue.add(Deferred("k", "tier2")) is True
        assert queue.add(Deferred("k", "tier2")) is False
        assert queue.add(Deferred("k", "tier3")) is True
        assert queue.enqueued == 2 and len(queue) == 2
        assert queue.pending() == 2 and queue.pending("tier2") == 1
        assert queue.targets() == ["tier2", "tier3"]
        assert [e.target for e in queue.for_key("k")] == ["tier2", "tier3"]


class TestFifoPerTarget:
    def test_drain_is_fifo_and_target_scoped(self):
        queue = queue_of(("a", "t1", ""), ("b", "t2", ""), ("c", "t1", ""))
        seen = []
        counts = queue.drain(
            "t1", always, lambda e: seen.append(e.key) or REPLAYED
        )
        assert seen == ["a", "c"]
        assert counts == {REPLAYED: 2, DROPPED: 0, REQUEUED: 0}
        assert queue.pending("t2") == 1 and queue.replayed == 2

    def test_draining_every_target_keeps_queue_order(self):
        queue = queue_of(("a", "t1", ""), ("b", "t2", ""), ("c", "t1", ""))
        seen = []
        queue.drain(None, always, lambda e: seen.append(e.key) or REPLAYED)
        assert seen == ["a", "b", "c"] and len(queue) == 0


class TestStopAtFirstRefusal:
    def test_a_refusal_requeues_the_target_in_order_untried(self):
        queue = queue_of(
            ("a", "t1", ""), ("b", "t2", ""), ("c", "t1", ""), ("d", "t1", "")
        )
        tried = []

        def replay(entry):
            tried.append(entry.key)
            return REQUEUED if entry.target == "t1" else REPLAYED

        counts = queue.drain(None, always, replay)
        assert tried == ["a", "b"]  # c and d never paid an attempt
        assert counts == {REPLAYED: 1, DROPPED: 0, REQUEUED: 3}
        assert order(queue) == [("a", "t1"), ("c", "t1"), ("d", "t1")]
        # A later drain starts from the refused entry again.
        tried.clear()
        queue.drain("t1", always, lambda e: tried.append(e.key) or REPLAYED)
        assert tried == ["a", "c", "d"]

    def test_a_target_that_is_not_ready_is_not_tried(self):
        queue = queue_of(("a", "t1", ""), ("b", "t2", ""))
        tried = []
        counts = queue.drain(
            None, lambda t: t == "t2",
            lambda e: tried.append(e.key) or REPLAYED,
        )
        assert tried == ["b"]
        assert counts[REQUEUED] == 1 and order(queue) == [("a", "t1")]

    def test_a_requeued_entry_is_back_before_later_replays(self):
        queue = queue_of(("k", "t1", "h1"), ("k", "t2", "h2"))
        seen_by_t2 = []

        def replay(entry):
            if entry.target == "t1":
                return REQUEUED
            seen_by_t2.extend(e.holder for e in queue.for_key("k"))
            return REPLAYED

        queue.drain(None, always, replay)
        assert seen_by_t2 == ["h1"]

    def test_a_newer_write_keeps_the_slot_a_refusal_frees(self):
        queue = queue_of(("k", "t", "old"))

        def replay(entry):
            queue.add(Deferred("k", "t", "new"))
            return REQUEUED

        queue.drain("t", always, replay)
        assert [e.holder for e in queue] == ["new"]


class TestNoAttemptCap:
    def test_an_entry_outlives_any_number_of_refusals(self):
        queue = queue_of(("k", "t", ""))
        for _ in range(20):
            assert queue.drain("t", always, lambda e: REQUEUED)[REQUEUED] == 1
        assert queue.pending("t") == 1 and queue.dropped == 0
        assert queue.drain("t", always, lambda e: REPLAYED)[REPLAYED] == 1
        assert len(queue) == 0

    def test_an_entry_leaves_when_its_source_is_gone(self):
        queue = queue_of(("k", "t", "h"))
        assert queue.drain("t", always, lambda e: DROPPED)[DROPPED] == 1
        assert len(queue) == 0 and queue.dropped == 1

    def test_an_entry_leaves_when_its_target_leaves(self):
        queue = queue_of(("a", "t1", ""), ("b", "t2", ""), ("c", "t1", ""))
        assert queue.discard("t2", "b") == 1
        assert queue.discard("t1") == 2
        assert queue.discard("t1") == 0
        assert len(queue) == 0 and queue.dropped == 3
