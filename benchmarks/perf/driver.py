"""Closed-loop load driver, wall-clock estimator and correctness oracle.

One client drives a deployment built by ``stack.py`` through the
``StorageAPI`` verbs, one request at a time: the next request is sent
only after the previous reply arrived (closed loop, one client — the box
has two cores: this thread, plus the RPC server's where one is used).
This module imports nothing from ``repro``; it generates the inputs
(keys, payloads, op mix) from the seed with its own generators, so the
program under test receives inputs and nothing else.

Estimator.  Op counts are fixed by ``--seconds`` (count = the workload's
committed ``rate`` × seconds), never by a deadline, so the virtual-time
metrics and the envelope digest are exact functions of (workload, seed,
seconds).  The box's raw speed flips between a fast and a ~1.6× slower
state every few tens of milliseconds to seconds, so a fixed pure-Python
calibration loop (≈ 40 µs) runs before *every* request.  The timed window
is cut into ``SEGMENTS`` equal segments; a segment's wall times are
multiplied by ``CAL_REF_S / mean(the segment's calibrations)``, and in
each quarter of the window only the half of the segments with the lowest
calibration — the ones nearest the fast state — count.  Each wall metric
is the median over those segments.  GC stays on.
"""

from __future__ import annotations

import bisect
import gc
import hashlib
import itertools
import json
import math
import os
import random
import resource
import shutil
import statistics
import sys
import tempfile
from dataclasses import dataclass
from time import perf_counter
from typing import Dict, List, Optional, Sequence, Tuple

import spans

#: equal slices of the timed window, each normalised on its own.
SEGMENTS = 40
#: untimed ops before the window, as a share of the timed op count.
WARMUP_SHARE = 0.05
#: pre-generated payloads the op stream draws from.
PAYLOAD_POOL = 256
#: set-ups per untraced run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: ops of the traced pass, as a share of the untraced op count.
TRACED_SHARE = 0.25
#: what one ``calibrate()`` takes in the fast state of the reference box
#: (2-core Xeon 2.1 GHz, CPython 3.11.7), where ``rate`` below was sized.
CAL_REF_S = 38e-6
#: the window is judged in this many stretches (see ``clean_segments``).
STRETCHES = 4
#: extra ops counted with ``sys.setprofile`` for ``driver.py_calls_per_op``.
PROFILED_OPS = 200


@dataclass(frozen=True)
class Workload:
    """One traffic mix; BENCHMARK.json carries the matching ``why``."""

    name: str
    keys: int
    value_bytes: int
    #: zipfian skew of GET keys (scrambled over the keyspace); None = uniform.
    theta: Optional[float]
    get_share: float
    #: "update" overwrites a loaded key; "insert" stores a fresh key.
    write: str
    #: ops per round trip (1 = put_object/get_object, else execute_batch).
    batch: int
    #: timed ops per ``--seconds`` second, sized on the reference box so
    #: the window takes about ``--seconds`` of wall time there.
    rate: int


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("direct_resident", 2000, 4096, None, 0.5, "update", 1, 5450),
        Workload("tiered_full", 2000, 1024, 0.99, 0.8, "insert", 1, 2000),
        Workload("cluster_r3", 2000, 4096, None, 0.5, "update", 1, 1700),
        Workload("rpc_serial", 2000, 4096, None, 0.5, "update", 1, 2600),
        Workload("rpc_batch8", 2000, 4096, None, 0.5, "update", 8, 3000),
    )
}


def calibrate() -> float:
    """Seconds one fixed pure-Python loop takes right now (≈ 40 µs): the
    dict, string and method-call work the program under test is made of,
    so it speeds up and slows down with the box the way the program does.
    Defined here and importing nothing from ``repro``, so no change to the
    program can move it."""
    started = perf_counter()
    table: Dict[str, int] = {}
    for i in range(150):
        key = "k%d" % (i & 63)
        table[key] = table.get(key, 0) + len(key.upper())
    return perf_counter() - started


# -- inputs --------------------------------------------------------------


class KeyChooser:
    """Seeded key index generator: uniform, or zipfian with the ranks
    scattered over the keyspace by a seeded permutation."""

    def __init__(self, count: int, theta: Optional[float], rng: random.Random):
        self._rng = rng
        self._count = count
        self._cumulative: Optional[List[float]] = None
        if theta is not None:
            weights = [1.0 / (rank + 1) ** theta for rank in range(count)]
            self._cumulative = list(itertools.accumulate(weights))
            self._scatter = list(range(count))
            rng.shuffle(self._scatter)

    def next(self) -> int:
        if self._cumulative is None:
            return self._rng.randrange(self._count)
        point = self._rng.random() * self._cumulative[-1]
        return self._scatter[bisect.bisect_left(self._cumulative, point)]


class OpStream:
    """The seeded request stream of one workload.

    ``load()`` yields one PUT per key; ``take(n)`` yields the next ``n``
    ops as ``(kind, key, payload)`` with kind ``spans.GET``/``spans.PUT``.
    The same (workload, seed, keys) always yields the same ops."""

    def __init__(self, workload: Workload, seed: int, keys: int):
        self.workload = workload
        self.keys = keys
        rng = random.Random(f"{workload.name}:{seed}")
        self.payloads = [
            rng.randbytes(workload.value_bytes) for _ in range(PAYLOAD_POOL)
        ]
        self._rng = rng
        self._chooser = KeyChooser(keys, workload.theta, rng)
        self._inserted = 0

    @staticmethod
    def key(index: int) -> str:
        return f"user{index:08d}"

    def load(self):
        for index in range(self.keys):
            yield spans.PUT, self.key(index), self._payload()

    def _payload(self) -> bytes:
        return self.payloads[self._rng.randrange(PAYLOAD_POOL)]

    def take(self, count: int) -> List[Tuple[int, str, Optional[bytes]]]:
        ops = []
        for _ in range(count):
            if self._rng.random() < self.workload.get_share:
                ops.append((spans.GET, self.key(self._chooser.next()), None))
            elif self.workload.write == "update":
                key = self.key(self._chooser.next())
                ops.append((spans.PUT, key, self._payload()))
            else:
                self._inserted += 1
                key = f"new{self._inserted:08d}"
                ops.append((spans.PUT, key, self._payload()))
        return ops


# -- the closed loop -----------------------------------------------------


class Ledger:
    """Correctness oracle plus the per-op records of one window.

    Keeps each key's last *acked* payload and compares every GET's bytes
    with it: a mismatch is a failed op with code ``STALE_READ``, an error
    envelope a failed op with its own stable code.  Neither aborts the
    run.  ``digest`` hashes every op's index, ok, error code, tier,
    checksum and virtual latency — the check value two runs of the same
    (workload, seed, op count) must agree on."""

    def __init__(self, acked: Dict[str, bytes], prefix_at: int = 0):
        self.acked = acked
        self.attempted = 0
        self.failures: Dict[str, int] = {}
        self.digest = hashlib.sha256()
        #: digest after exactly ``prefix_at`` ops — what a shorter run of
        #: the same stream must reproduce as its whole digest.
        self.prefix_at = prefix_at
        self.prefix_digest: Optional[str] = None
        self.virt_latency: Dict[int, List[float]] = {spans.GET: [], spans.PUT: []}
        self.fast_gets = 0
        self.user_bytes = 0
        self.put_bytes = 0

    def note(self, kind: int, key: str, payload, result, fast_tier: str) -> bool:
        """Check and record one reply; returns whether the op succeeded."""
        index = self.attempted
        self.attempted += 1
        self.digest.update(
            f"{index},{int(result.ok)},{result.error or ''},{result.tier},"
            f"{result.checksum},{result.latency!r}\n".encode()
        )
        if self.attempted == self.prefix_at:
            self.prefix_digest = self.digest.hexdigest()
        code = None
        if not result.ok:
            code = result.error or "UNKNOWN"
        elif kind == spans.PUT:
            self.acked[key] = payload
            self.user_bytes += len(payload)
            self.put_bytes += len(payload)
        elif result.value != self.acked.get(key):
            code = "STALE_READ"
        else:
            self.user_bytes += len(result.value)
            self.fast_gets += result.tier == fast_tier
        if code is not None:
            self.failures[code] = self.failures.get(code, 0) + 1
            return False
        self.virt_latency[kind].append(result.latency)
        return True

    @property
    def failed(self) -> int:
        return sum(self.failures.values())


def run_requests(deployment, ops, batch: int, recorder=None, first_op: int = 0):
    """Send ``ops`` one request at a time; returns per-request
    ``(calibration, t0, t1, t2, replies)``: the calibration loop run just
    before the request, then sent, reply received, clock advanced.

    After every reply the deployment's ``SimClock`` is advanced to the
    reply's completion, as ``repro.bench.runner.run_closed_loop`` does —
    timers and background work fire there, and without it virtual-time
    bookings pile up and the run slows down as it gets longer."""
    out = []
    clock = perf_counter
    if batch == 1:
        put, get, advance = deployment.put, deployment.get, deployment.advance
        for offset, (kind, key, payload) in enumerate(ops):
            if recorder is not None:
                recorder.begin_op(first_op + offset, kind)
            calibration = calibrate()
            t0 = clock()
            reply = get(key) if kind == spans.GET else put(key, payload)
            t1 = clock()
            advance(reply.latency)
            t2 = clock()
            out.append((calibration, t0, t1, t2, (reply,)))
        return out
    for start in range(0, len(ops), batch):
        if recorder is not None:
            recorder.begin_op(first_op + start // batch, spans.BATCH)
        calibration = calibrate()
        t0 = clock()
        replies, latency = deployment.batch(ops[start:start + batch])
        t1 = clock()
        deployment.advance(latency)
        t2 = clock()
        out.append((calibration, t0, t1, t2, replies))
    return out


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 1]) of a non-empty sample."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(len(ordered) * q)) - 1]


class Window:
    """What one timed window measured, segment by segment."""

    def __init__(self, ledger: Ledger, ops: int):
        self.ledger = ledger
        self.ops = ops
        #: per segment: mean calibration, calibrated ops/s, and calibrated
        #: request µs of every GET and PUT
        self.calibration: List[float] = []
        self.ops_per_s: List[float] = []
        self.request_us = {spans.GET: [], spans.PUT: []}
        #: raw wall seconds: the loop, and inside requests (call + advance)
        self.wall_s = 0.0
        self.service_s = 0.0
        self.service_cal_s = 0.0
        #: raw seconds inside requests by op kind (GET, PUT, BATCH)
        self.kind_service_s = [0.0] * spans.KINDS
        self.live_bookings: List[int] = []
        #: virtual seconds: where the window started, how long it ran
        self.virtual_start = 0.0
        self.virtual_s = 0.0
        self.request_usd = 0.0
        self.counters: Dict[str, float] = {}

    def clean_segments(self) -> List[int]:
        """Indices of the segments that count: in each quarter of the
        window, the half whose calibration was lowest — the ones that ran
        most nearly in the box's fast state.  Choosing per quarter keeps
        the choice spread over the window: a deployment that slows down as
        it fills (``tiered_full`` loses 20 % from first to last segment)
        would otherwise read faster or slower with *where* the quiet
        segments happened to fall."""
        count = len(self.calibration)
        clean: List[int] = []
        for stretch in range(STRETCHES):
            members = range(stretch * count // STRETCHES,
                            (stretch + 1) * count // STRETCHES)
            ranked = sorted(members, key=self.calibration.__getitem__)
            clean += ranked[:max(1, len(ranked) // 2)]
        return sorted(clean)

    def samples(self, kind: int) -> List[float]:
        return [us for segment in self.request_us[kind] for us in segment]

    def wall_metrics(self) -> Dict[str, float]:
        clean = self.clean_segments()

        def p50(kind: int) -> float:
            segments = [self.request_us[kind][i] for i in clean]
            return statistics.median(
                statistics.median(segment) for segment in segments if segment
            )

        return {
            "ops_per_s": statistics.median(self.ops_per_s[i] for i in clean),
            "get_p50_us": p50(spans.GET),
            "put_p50_us": p50(spans.PUT),
        }

    def virtual_metrics(self) -> Dict[str, float]:
        latency = self.ledger.virt_latency
        return {
            "virt_ops_per_s": self.ops / self.virtual_s,
            "virt_get_p95_ms": percentile(latency[spans.GET], 0.95) * 1e3,
            "virt_put_p95_ms": percentile(latency[spans.PUT], 0.95) * 1e3,
            "virt_request_usd": self.request_usd,
        }


def run_window(session: "Session", ops: int, recorder=None,
               prefix_at: int = 0) -> Window:
    """Run the timed window: ``ops`` ops in ``SEGMENTS`` segments, every
    reply checked against the session's acked state."""
    deployment, stream = session.deployment, session.stream
    batch = stream.workload.batch
    per_segment = ops // SEGMENTS // batch * batch
    ledger = Ledger(session.acked, prefix_at=prefix_at)
    window = Window(ledger, per_segment * SEGMENTS)
    window.virtual_start = deployment.now()
    usd_start = deployment.request_usd()
    before = deployment.counters()
    if recorder is not None:
        recorder.active = True
    for segment in range(SEGMENTS):
        segment_ops = stream.take(per_segment)
        started = perf_counter()
        records = run_requests(
            deployment, segment_ops, batch, recorder,
            segment * per_segment // batch,
        )
        window.wall_s += perf_counter() - started
        window.live_bookings.append(deployment.live_bookings())
        calibration = statistics.fmean(record[0] for record in records)
        scale = CAL_REF_S / calibration
        service = 0.0
        succeeded = 0
        request_us = {spans.GET: [], spans.PUT: []}
        cursor = iter(segment_ops)
        for _, t0, t1, t2, replies in records:
            service += t2 - t0
            for reply in replies:
                kind, key, payload = next(cursor)
                succeeded += ledger.note(
                    kind, key, payload, reply, deployment.fast_tier
                )
                request_us[kind].append((t1 - t0) * scale * 1e6)
            window.kind_service_s[kind if batch == 1 else spans.BATCH] += t2 - t0
        window.calibration.append(calibration)
        window.service_s += service
        window.service_cal_s += service * scale
        window.ops_per_s.append(succeeded / (service * scale))
        for kind, values in request_us.items():
            window.request_us[kind].append(values)
    if recorder is not None:
        recorder.active = False
    window.virtual_s = deployment.now() - window.virtual_start
    window.request_usd = deployment.request_usd() - usd_start
    after = deployment.counters()
    window.counters = {name: after[name] - before[name] for name in after}
    return window


# -- set-up ---------------------------------------------------------------


@dataclass(frozen=True)
class Scale:
    """How much of the full benchmark a run does (``--smoke`` shrinks it)."""

    ops: float = 1.0
    keys: float = 1.0
    setup_repeats: int = SETUP_REPEATS


SMOKE = Scale(ops=0.02, keys=0.25, setup_repeats=1)


@dataclass
class Session:
    """A built, loaded and warmed deployment with its op stream."""

    deployment: object
    stream: OpStream
    acked: Dict[str, bytes]
    workdir: str
    #: wall seconds the set-up took: calibrated, and as measured
    setup_s: float = 0.0
    setup_raw_s: float = 0.0

    def close(self) -> None:
        self.deployment.close()
        shutil.rmtree(self.workdir, ignore_errors=True)


def set_up(workload: Workload, seed: int, keys: int, warmup_ops: int,
           out_dir: str, trace_wire: bool = False) -> Session:
    """Build the deployment, load every key, run the warm-up ops.  A
    failed op here is a broken set-up, not a measurement: it raises."""
    import stack

    started = perf_counter()
    os.makedirs(os.path.join(out_dir, "tmp"), exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=workload.name + "-",
                               dir=os.path.join(out_dir, "tmp"))
    deployment = stack.build(workload, keys, seed, workdir)
    if trace_wire:
        deployment.count_wire_bytes()
    session = Session(deployment, OpStream(workload, seed, keys), {}, workdir)
    ops = list(session.stream.load()) + session.stream.take(warmup_ops)
    records = run_requests(deployment, ops, workload.batch)
    calibrations = [record[0] for record in records]
    session.setup_raw_s = perf_counter() - started - sum(calibrations)
    session.setup_s = (
        session.setup_raw_s * CAL_REF_S / statistics.fmean(calibrations)
    )
    ledger = Ledger(session.acked)
    cursor = iter(ops)
    for record in records:
        for reply in record[-1]:
            ledger.note(*next(cursor), reply, deployment.fast_tier)
    if ledger.failed:
        session.close()
        raise RuntimeError(f"set-up of {workload.name} failed: {ledger.failures}")
    return session


def count_python_calls(session: Session, ops: int) -> float:
    """Python-level function calls the driver thread makes per op — a
    seed-exact proxy for interpreter work that no clock can blur.  (The
    RPC server's thread is not counted: ``sys.setprofile`` is per
    thread.)"""
    batch = session.stream.workload.batch
    requests = session.stream.take(ops // batch * batch)
    calls = 0

    def on_event(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    sys.setprofile(on_event)
    try:
        run_requests(session.deployment, requests, batch)
    finally:
        sys.setprofile(None)
    return calls / len(requests)


# -- one run --------------------------------------------------------------


def op_counts(workload: Workload, seconds: float, scale: Scale):
    """(timed ops, warm-up ops, keys): each a whole number of batches, the
    timed count also a whole number of segments."""
    unit = SEGMENTS * workload.batch
    nominal = workload.rate * seconds * scale.ops
    timed = max(1, int(nominal) // unit) * unit
    warmup = max(1, int(nominal * WARMUP_SHARE) // workload.batch) * workload.batch
    keys = max(1, int(workload.keys * scale.keys) // workload.batch) * workload.batch
    return timed, warmup, keys


def traced_ops(workload: Workload, timed: int) -> int:
    unit = SEGMENTS * workload.batch
    return max(1, int(timed * TRACED_SHARE) // unit) * unit


def run_untraced(workload: Workload, seed: int, seconds: float,
                 out_dir: str, scale: Scale) -> Dict[str, object]:
    """The end-to-end run: set up ``scale.setup_repeats`` times (the
    median is ``setup_s``), then one full timed window on the last."""
    timed, warmup, keys = op_counts(workload, seconds, scale)
    setups: List[Tuple[float, float]] = []
    session = None
    for _ in range(scale.setup_repeats):
        if session is not None:
            session.close()
            gc.collect()
        session = set_up(workload, seed, keys, warmup, out_dir)
        setups.append((session.setup_s, session.setup_raw_s))
    try:
        window = run_window(session, timed, prefix_at=traced_ops(workload, timed))
    finally:
        session.close()
    ledger = window.ledger
    metrics = {
        "setup_s": statistics.median(cal for cal, _ in setups),
        **window.wall_metrics(),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ok_share": 1.0 - ledger.failed / ledger.attempted,
        **window.virtual_metrics(),
    }
    return {
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": metrics,
        "failures": dict(sorted(ledger.failures.items())),
        "envelope_digest": ledger.digest.hexdigest(),
        "prefix_digest": ledger.prefix_digest,
        "setup_raw_s": statistics.median(raw for _, raw in setups),
        "window_wall_s": window.wall_s,
        "virtual_window": [window.virtual_start,
                           window.virtual_start + window.virtual_s],
        "segments": {
            "clean": window.clean_segments(),
            "calibration_us": [cal * 1e6 for cal in window.calibration],
            "ops_per_s": window.ops_per_s,
        },
    }


def run_traced(workload: Workload, seed: int, seconds: float,
               out_dir: str, scale: Scale) -> Dict[str, object]:
    """The per-layer run: a quarter of the ops untraced, then the same
    ops again on a fresh deployment with every trace point wrapped.  The
    two envelope digests must match; the ratio of their times is the
    tracing overhead."""
    import layers
    import stack

    timed, warmup, keys = op_counts(workload, seconds, scale)
    ops = traced_ops(workload, timed)
    session = set_up(workload, seed, keys, warmup, out_dir)
    try:
        plain = run_window(session, ops)
        py_calls = count_python_calls(session, PROFILED_OPS)
    finally:
        session.close()
    gc.collect()

    recorder = spans.Recorder()
    missing = stack.install_tracing(recorder)
    session = set_up(workload, seed, keys, warmup, out_dir, trace_wire=True)
    try:
        traced = run_window(session, ops, recorder=recorder)
        probe = session.deployment.probe()
        missing += session.deployment.missing
    finally:
        session.close()

    digest = traced.ledger.digest.hexdigest()
    reproduced = digest == plain.ledger.digest.hexdigest()
    trace_path = os.path.join(out_dir, f"trace_{workload.name}.json")
    with open(trace_path, "w") as handle:
        json.dump({
            "workload": workload.name,
            "seed": seed,
            "ops": traced.ops,
            "layers": recorder.layer_table(traced.ops),
            "spans": recorder.kept_spans(),
        }, handle)
    ledger = plain.ledger
    return {
        "correct": reproduced and not ledger.failed and not traced.ledger.failed,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": layers.per_layer_metrics(
            recorder, plain, traced, probe, missing, py_calls
        ),
        "failures": dict(sorted(ledger.failures.items())),
        "envelope_digest": digest,
        "digest_reproduced": reproduced,
        "trace_file": trace_path,
    }
