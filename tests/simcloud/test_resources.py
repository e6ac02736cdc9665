"""Resource interval booking: queueing, backfill, multi-channel."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.simcloud.clock import SimClock
from repro.simcloud.resources import RequestContext, Resource, _Channel


class TestResource:
    def test_idle_resource_starts_immediately(self):
        res = Resource("r")
        start, finish = res.acquire(5.0, 2.0)
        assert (start, finish) == (5.0, 7.0)

    def test_busy_channel_queues(self):
        res = Resource("r")
        res.acquire(0.0, 10.0)
        start, finish = res.acquire(1.0, 2.0)
        assert start == 10.0
        assert finish == 12.0

    def test_backfill_into_idle_gap(self):
        # A booking far in the future must not block earlier idle time.
        res = Resource("r")
        res.acquire(100.0, 1.0)
        start, _ = res.acquire(0.0, 2.0)
        assert start == 0.0

    def test_gap_too_small_is_skipped(self):
        res = Resource("r")
        res.acquire(0.0, 1.0)    # [0, 1)
        res.acquire(2.0, 5.0)    # [2, 7)
        start, _ = res.acquire(0.5, 3.0)  # 1-second gap will not fit 3s
        assert start == 7.0

    def test_exact_fit_in_gap(self):
        res = Resource("r")
        res.acquire(0.0, 1.0)
        res.acquire(3.0, 1.0)
        start, finish = res.acquire(0.0, 2.0)
        assert (start, finish) == (1.0, 3.0)

    def test_second_channel_takes_overflow(self):
        res = Resource("r", channels=2)
        res.acquire(0.0, 10.0)
        start, _ = res.acquire(0.0, 5.0)
        assert start == 0.0

    def test_busy_time_accumulates(self):
        res = Resource("r")
        res.acquire(0.0, 3.0)
        res.acquire(0.0, 2.0)
        assert res.busy_time == 5.0

    def test_negative_service_time_rejected(self):
        with pytest.raises(ValueError):
            Resource("r").acquire(0.0, -1.0)

    def test_zero_channels_rejected(self):
        with pytest.raises(ValueError):
            Resource("r", channels=0)

    def test_reset_clears_bookings(self):
        res = Resource("r")
        res.acquire(0.0, 100.0)
        res.reset()
        start, _ = res.acquire(0.0, 1.0)
        assert start == 0.0

    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=0, max_value=1000),
                st.floats(min_value=0.001, max_value=10),
            ),
            min_size=1,
            max_size=60,
        ),
        st.integers(min_value=1, max_value=4),
    )
    @settings(max_examples=60, deadline=None)
    def test_bookings_never_overlap_per_channel(self, requests, channels):
        """Invariant: on each channel, granted intervals are disjoint and
        never start before the request arrived."""
        res = Resource("r", channels=channels)
        for at, dur in requests:
            start, finish = res.acquire(at, dur)
            assert start >= at
            assert finish == pytest.approx(start + dur)
        for channel in res._channels:
            intervals = sorted(channel.intervals)
            for (s1, e1), (s2, e2) in zip(intervals, intervals[1:]):
                assert e1 <= s2 + 1e-9


    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=0, max_value=100),
                st.sampled_from([0.0, 0.0, 0.5, 1.0, 3.0, 7.25]),
            ),
            min_size=1,
            max_size=80,
        ),
        st.integers(min_value=1, max_value=3),
        st.floats(min_value=-5, max_value=120),
        st.lists(
            st.tuples(
                st.floats(min_value=0, max_value=40),
                st.sampled_from([0.0, 0.5, 2.0, 10.0]),
            ),
            max_size=10,
        ),
    )
    @settings(max_examples=80, deadline=None)
    def test_prune_matches_a_full_filter(self, requests, channels, before, probes):
        """The bisect prune keeps exactly the intervals a full filter on
        ``end >= before`` keeps, zero-length bookings included, and the
        channel answers every request from ``before`` on as it did."""
        res = Resource("r", channels=channels)
        for at, dur in requests:
            res.acquire(at, dur)
        for channel in res._channels:
            full = list(channel.intervals)
            kept = [iv for iv in full if iv[1] >= before]
            unpruned = _Channel()
            unpruned.intervals = full
            intervals = channel.intervals
            channel.prune(before)
            assert channel.intervals is intervals  # pruned in place
            assert channel.intervals == kept
            for offset, dur in probes:
                at = max(before, 0.0) + offset
                assert channel.feasible_start(at, dur) == unpruned.feasible_start(
                    at, dur
                )


class TestRequestContext:
    def test_elapsed_accumulates(self):
        clock = SimClock()
        ctx = RequestContext(clock)
        ctx.wait(1.0)
        res = Resource("r")
        ctx.use(res, 2.0)
        assert ctx.elapsed == pytest.approx(3.0)

    def test_starts_at_clock_now_by_default(self):
        clock = SimClock()
        clock.advance(42)
        assert RequestContext(clock).start == 42

    def test_explicit_start(self):
        clock = SimClock()
        assert RequestContext(clock, at=7.0).start == 7.0

    def test_negative_wait_rejected(self):
        ctx = RequestContext(SimClock())
        with pytest.raises(ValueError):
            ctx.wait(-1)

    def test_fork_branches_at_current_instant(self):
        clock = SimClock()
        ctx = RequestContext(clock)
        ctx.wait(5.0)
        forked = ctx.fork()
        assert forked.start == 5.0
        forked.wait(100.0)
        assert ctx.time == 5.0  # parent unaffected

    def test_queueing_flows_into_elapsed(self):
        clock = SimClock()
        res = Resource("r")
        first = RequestContext(clock)
        first.use(res, 10.0)
        second = RequestContext(clock)
        second.use(res, 1.0)
        assert second.elapsed == pytest.approx(11.0)


class TestScatterJoin:
    def test_join_advances_parent_to_slowest_branch(self):
        ctx = RequestContext(SimClock())
        ctx.wait(1.0)
        branches = ctx.scatter()
        branches.branch().wait(5.0)
        branches.branch().wait(2.0)
        branches.join()
        assert ctx.time == pytest.approx(6.0)  # 1 + max(5, 2)

    def test_branches_start_at_scatter_origin(self):
        ctx = RequestContext(SimClock())
        ctx.wait(3.0)
        branches = ctx.scatter()
        a = branches.branch()
        a.wait(10.0)
        b = branches.branch()
        assert b.start == 3.0  # unaffected by sibling a

    def test_branch_at_schedules_a_later_lane(self):
        ctx = RequestContext(SimClock())
        ctx.wait(2.0)
        branches = ctx.scatter()
        late = branches.branch(at=5.0)
        assert late.start == 5.0
        clamped = branches.branch(at=0.5)  # cannot start before the origin
        assert clamped.start == 2.0

    def test_join_without_branches_is_a_noop(self):
        ctx = RequestContext(SimClock())
        ctx.wait(4.0)
        assert ctx.scatter().join() == pytest.approx(4.0)
        assert ctx.time == pytest.approx(4.0)

    def test_join_never_moves_parent_backwards(self):
        ctx = RequestContext(SimClock())
        ctx.wait(10.0)
        branches = ctx.scatter()
        branches.branch().wait(1.0)  # finishes at 11 — but scatter...
        ctx.wait(5.0)                # ...parent moved on to 15 meanwhile
        branches.join()
        assert ctx.time == pytest.approx(15.0)

    def test_join_accumulates_branch_hops(self):
        clock = SimClock()
        res = Resource("r", channels=4)
        ctx = RequestContext(clock)
        branches = ctx.scatter()
        for _ in range(3):
            branches.branch().use(res, 1.0)
        branches.join()
        assert ctx.hops == 3

    def test_branches_contend_on_shared_channels(self):
        """Two branches on a single-channel resource serialize: the join
        sees the queueing term, not a free overlap."""
        clock = SimClock()
        res = Resource("r", channels=1)
        ctx = RequestContext(clock)
        branches = ctx.scatter()
        branches.branch().use(res, 2.0)
        branches.branch().use(res, 2.0)
        branches.join()
        assert ctx.time == pytest.approx(4.0)

    def test_branches_overlap_on_parallel_channels(self):
        clock = SimClock()
        res = Resource("r", channels=2)
        ctx = RequestContext(clock)
        branches = ctx.scatter()
        branches.branch().use(res, 2.0)
        branches.branch().use(res, 2.0)
        branches.join()
        assert ctx.time == pytest.approx(2.0)

    def test_branches_inherit_trace_span(self):
        ctx = RequestContext(SimClock())
        ctx.span = object()
        branches = ctx.scatter()
        assert branches.branch().span is ctx.span
