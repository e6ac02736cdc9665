"""The SLO engine folds its windows in: equal to a full-window rescan.

``SloEngine.evaluate`` keeps per objective a running bad count, a
per-sample violation flag and, for latency objectives, a sorted latency
list, and updates them with the samples recorded and pruned since the
last evaluation.  ``ScanSloEngine`` below is the engine as it was before
that: every evaluation walks the whole long window, calling
``violates`` on each sample, and sorts it for the percentile.  The two
must agree on every evaluation, transition, audit record and gauge.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.audit import AuditLog
from repro.obs.registry import MetricsRegistry
from repro.obs.slo import SloEngine, SloObjective, default_slos


def _scan_percentile(samples, percentile):
    """The reference percentile: sort the window on every call."""
    if not samples:
        return 0.0
    data = sorted(
        latency if ok else float("inf") for _, latency, ok in samples
    )
    rank = int(percentile * len(data))
    if rank < percentile * len(data):
        rank += 1
    rank = max(1, min(len(data), rank))
    value = data[rank - 1]
    return value if value != float("inf") else max(
        (lat for _, lat, _ok in samples), default=0.0
    ) + 1.0


class ScanSloEngine(SloEngine):
    """The full-window evaluation, kept as the reference."""

    def evaluate(self, now=None):
        now = self._now(now)
        self._next_eval = now + self.eval_interval
        out = []
        for name in sorted(self._states):
            state = self._states[name]
            objective = state.objective
            horizon = now - objective.window
            samples = state.samples
            while samples and samples[0][0] < horizon:
                samples.popleft()
            total = len(samples)
            bad = sum(
                1 for _, latency, ok in samples
                if objective.violates(latency, ok)
            )
            short_horizon = now - objective.short_window
            short_total = short_bad = 0
            for at, latency, ok in reversed(samples):
                if at < short_horizon:
                    break
                short_total += 1
                if objective.violates(latency, ok):
                    short_bad += 1
            budget = objective.budget
            state.burn_rate = (bad / total / budget) if total else 0.0
            state.burn_rate_short = (
                (short_bad / short_total / budget) if short_total else 0.0
            )
            if objective.kind == "availability":
                state.current = (total - bad) / total if total else 1.0
                state.compliant = state.current >= objective.target
            else:
                state.current = _scan_percentile(samples, objective.percentile)
                state.compliant = state.current <= objective.target
            alerting = (
                state.burn_rate > objective.burn_threshold
                and state.burn_rate_short > objective.burn_threshold
            )
            if alerting != state.alerting:
                self._transition(state, now, alerting)
            state.alerting = alerting
            self._export(state)
            out.append(state.to_dict())
        return out


#: objective sets a stream may install: the canned four, plus tight
#: ones that breach often and a catch-all over every op
OBJECTIVES = {
    "default": default_slos(),
    "tight": [
        SloObjective(
            name="tight_latency", op="*", kind="latency", target=0.01,
            percentile=0.5, window=6.0, short_window=2.0,
        ),
        SloObjective(
            name="tight_availability", op="get", kind="availability",
            target=0.9, window=4.0, short_window=1.0, burn_threshold=0.5,
        ),
    ],
}

LATENCIES = st.one_of(
    st.sampled_from([0.0, 0.001, 0.01, 0.25, 0.3, 0.5, 0.6, 5.0]),
    st.floats(0.0, 2.0, allow_nan=False),
)

EVENTS = st.lists(
    st.one_of(
        # (record, op, latency, ok, clock step, how far back ``at`` lands)
        st.tuples(
            st.just("record"), st.sampled_from(["get", "put", "delete"]),
            LATENCIES, st.booleans() | st.just(True),
            st.floats(0.0, 2.0, allow_nan=False),
            st.floats(0.0, 3.0, allow_nan=False),
        ),
        # (evaluate, None for the engine's own now, or this far back)
        st.tuples(
            st.just("evaluate"),
            st.none() | st.floats(0.0, 40.0, allow_nan=False),
        ),
        st.tuples(st.just("install"), st.sampled_from(sorted(OBJECTIVES))),
        st.tuples(st.just("clear")),
    ),
    max_size=120,
)


def _engines():
    return [
        cls(MetricsRegistry(), AuditLog(), eval_interval=1.0)
        for cls in (SloEngine, ScanSloEngine)
    ]


def _replay(events):
    """Drive both engines through ``events``; return what each said."""
    engines = _engines()
    said = [[] for _ in engines]
    clock = 0.0
    for event in events:
        kind = event[0]
        if kind == "record":
            _, op, latency, ok, step, back = event
            clock += step
            for engine in engines:
                engine.record(op, latency, ok, clock - back)
        elif kind == "evaluate":
            now = None if event[1] is None else clock - event[1]
            for engine, out in zip(engines, said):
                out.append(engine.evaluate(now))
        elif kind == "install":
            for engine in engines:
                fresh = [
                    objective for objective in OBJECTIVES[event[1]]
                    if not engine.has(objective.name)
                ]
                engine.install(fresh)
        else:
            for engine in engines:
                engine.clear()
    for engine, out in zip(engines, said):
        out.append(engine.summary())
        out.append(list(engine.transitions))
        out.append(engine._audit.to_dicts())
        out.append(engine._metrics.snapshot()["metrics"])
    return said


class TestFoldedEqualsScan:
    @settings(max_examples=300, deadline=None)
    @given(EVENTS)
    def test_every_evaluation_agrees(self, events):
        folded, scanned = _replay(events)
        assert folded == scanned

    def test_a_failure_puts_the_percentile_past_the_slowest(self):
        events = [("install", "default")]
        events += [("record", "get", 0.001, True, 0.1, 0.0)] * 3
        events += [("record", "get", 0.4, False, 0.1, 0.0)] * 2
        events += [("evaluate", None)]
        folded, scanned = _replay(events)
        assert folded == scanned
        latency = {s["name"]: s for s in folded[0]}["get_latency"]
        assert latency["current"] == 1.4 and not latency["compliant"]

    def test_out_of_order_completions_keep_the_short_walk(self):
        # an older completion recorded last stops the newest-first walk
        events = [("install", "tight")]
        events += [("record", "get", 0.5, True, 1.0, 0.0)] * 4
        events += [("record", "get", 0.5, False, 0.0, 2.5)]
        events += [("evaluate", None), ("evaluate", 5.0), ("evaluate", 0.0)]
        folded, scanned = _replay(events)
        assert folded == scanned

    def test_a_long_stream_prunes_what_it_folded(self):
        events = [("install", "default"), ("install", "tight")]
        for i in range(400):
            events.append(
                ("record", "get" if i % 3 else "put", (i % 7) * 0.1,
                 i % 11 != 0, 0.25, (i % 5) * 0.3)
            )
            if i % 13 == 0:
                events.append(("evaluate", None))
        folded, scanned = _replay(events)
        assert folded == scanned
        engine = _engines()[0]
        engine.install(default_slos())
        for i in range(400):
            engine.record("get", 0.001, True, i * 0.25)
        engine.evaluate()
        state = engine._states["get_latency"]
        assert len(state.ranked) == len(state.flags) == len(state.samples)
        assert len(state.samples) < 400
