"""A request recorded once per process equals one recorded call by call.

Streams of served requests -- cache hits and misses, errors, sheds,
batches and session operations -- go through the recording paths the
serving tier uses: the front end's activation and ``dispatch`` stage
around the shard's activation (entered with the hand-off context), the
stages below it, and the registry calls both make along the way.  The
same stream is replayed into :mod:`obs_oracle`, which records every
call as it happens.  Wall and perf clocks are injected: the wall clock
stands still within a request and moves between requests, so streams
straddle window boundaries and retire windows off the ring.

Per process, the snapshot must equal the oracle's for every series --
counts, bucket counts, extremes, counter totals and window placement
-- except the oracle's ``requests`` counter, which the registry no
longer keeps: its all-time and windowed counts must equal the ones
derived from the ``latency:*`` series.
"""

from __future__ import annotations

from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from obs_oracle import OracleRegistry
from repro.obs import MetricsRegistry, Tracer, WindowConfig, stage
from repro.obs.metrics import total_requests, window_requests, window_sum

INTERVAL_S = 10.0
SLOTS = 6

#: Stage and latency durations (seconds): bucket 0 and a spread above.
seconds = st.sampled_from([0.0, 4e-7, 1.3e-5, 2.2e-4, 0.0031, 0.047, 0.6])

#: Wall-clock gaps before a request: same window, just across a
#: boundary from a window's last instant, and far enough to retire
#: windows off the ring.
gaps = st.sampled_from([0.0, 0.25, 3.0, INTERVAL_S, 2.5 * INTERVAL_S,
                        SLOTS * INTERVAL_S])

cities = st.sampled_from([None, "paris", "rome"])


def _stage(name, city=None, raises=False):
    return st.tuples(st.just("stage"), st.just(name), st.just(city),
                     seconds, st.just(raises))


def _count(name):
    return st.tuples(st.just("count"), st.just(name), st.integers(1, 3))


def _observe(name):
    return st.tuples(st.just("observe"), st.just(name), seconds)


def _lookup(hit: bool):
    return st.tuples(_stage("cache_lookup"),
                     _count("cache_hits" if hit else "cache_misses"))


@st.composite
def _request(draw):
    """``(op, gap, request latency, shard steps)``; steps ``None`` for
    a request the front end sheds."""
    kind = draw(st.sampled_from(["hit", "miss", "error", "shed", "batch",
                                 "open_session", "customize",
                                 "close_session"]))
    city = draw(cities)
    steps: list = []
    if kind == "hit":
        steps += draw(_lookup(True))
        steps += [draw(_observe("latency:build_cached")),
                  draw(_stage("serialize", city))]
    elif kind == "miss":
        steps += draw(_lookup(False))
        for name in ("assemble", "package_metrics", "encode"):
            steps.append(draw(_stage(name, city)))
        steps += [draw(_observe("latency:build")),
                  draw(_stage("serialize", city))]
    elif kind == "error":
        steps += [draw(_stage("assemble", city, raises=True)),
                  draw(_observe("latency:error")), ("count", "errors", 1)]
    elif kind == "batch":
        for hit in draw(st.lists(st.booleans(), min_size=1, max_size=3)):
            steps += draw(_lookup(hit))
        steps += [draw(_observe("latency:build_batch")),
                  draw(_stage("serialize"))]
    elif kind == "open_session":
        steps += draw(_lookup(False))
        steps += [draw(_stage("refine", city)),
                  draw(_observe("latency:open_session")),
                  draw(_stage("serialize", city))]
    elif kind == "customize":
        steps += [draw(_stage("refine", city)),
                  draw(_observe("latency:customize")),
                  draw(_stage("serialize", city))]
    elif kind == "close_session":
        steps.append(draw(_observe("latency:close_session")))
    else:
        steps = None
    op = "build" if kind in ("hit", "miss", "error") else kind
    return op, draw(gaps), draw(seconds), steps


class _Clocks:
    def __init__(self, wall: float) -> None:
        self.wall = wall
        self.perf = 100.0

    def time(self) -> float:
        return self.wall

    def perf_counter(self) -> float:
        return self.perf


class _Boom(Exception):
    pass


def _serve(clocks, front: Tracer, shard: Tracer, request) -> None:
    """One request through the recording paths the serving tier uses."""
    op, _, latency, steps = request
    if steps is None:
        front.metrics.counter_inc("shed")
        return
    with front.activate(f"request:{op}"):
        with stage("dispatch") as dispatch:
            ctx = dispatch.child_context()
            with shard.activate(f"serve:{op}", ctx):
                for step in steps:
                    if step[0] == "count":
                        shard.metrics.counter_inc(step[1], step[2])
                    elif step[0] == "observe":
                        shard.metrics.observe(step[1], step[2])
                    else:
                        _, name, city, duration, raises = step
                        try:
                            with stage(name, city=city):
                                clocks.perf = clocks.perf + duration
                                if raises:
                                    raise _Boom()
                        except _Boom:
                            pass
        front.metrics.observe("latency:request", latency)


def _replay(clocks, front: OracleRegistry, shard: OracleRegistry,
            request, sampled: bool) -> None:
    """The same request, recorded call by call at the wall time of each
    call, with the durations the injected perf clock yields."""
    op, _, latency, steps = request
    now = clocks.wall
    if steps is None:
        front.counter_inc("shed", 1, now)
        return
    front.counter_inc("requests", 1, now)
    started = clocks.perf
    shard.stage("stage:queue_wait", max(0.0, now - now))
    for step in steps:
        if step[0] == "count":
            shard.counter_inc(step[1], step[2], now)
        elif step[0] == "observe":
            shard.observe(step[1], step[2], now)
            shard.counter_inc("requests", 1, now)
        else:
            _, name, city, duration, raises = step
            entered = clocks.perf
            clocks.perf = entered + duration
            shard.stage(f"stage:{name}", clocks.perf - entered)
            if city is not None and not raises:
                shard.stage(f"stage_city:{city}", clocks.perf - entered)
    served = clocks.perf - started
    shard.stage(f"stage:serve:{op}", served)
    front.stage("stage:dispatch", served)
    front.observe("latency:request", latency, now)
    front.stage(f"stage:request:{op}", served)
    if sampled:
        stages = sum(step[0] == "stage" for step in steps)
        shard.counter_inc("obs.traces", 1, now)
        shard.counter_inc("obs.spans", stages + 2, now)  # + queue_wait, root
        front.counter_inc("obs.traces", 1, now)
        front.counter_inc("obs.spans", 2, now)


def _assert_matches(snapshot: dict, oracle: OracleRegistry,
                    now: float) -> None:
    expected = oracle.snapshot()
    requests = expected.pop("requests", None)
    assert snapshot["series"] == expected
    assert total_requests(snapshot) == (
        requests["total"]["value"] if requests else 0)
    view = {"series": {"requests": requests}} if requests else {}
    for horizon in (INTERVAL_S, 3 * INTERVAL_S, (SLOTS - 1) * INTERVAL_S):
        assert window_requests(snapshot, horizon, now) == \
            window_sum(view, "requests", horizon, now)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(stream=st.lists(_request(), max_size=30),
       start=st.sampled_from([1_000_000.0, 1_000_009.75]),
       sampled=st.booleans())
def test_one_record_per_request_equals_call_by_call(stream, start, sampled):
    window = WindowConfig(interval_s=INTERVAL_S, slots=SLOTS)
    rate = 1.0 if sampled else 0.0
    front = Tracer(sample_rate=rate, metrics=MetricsRegistry(window))
    shard = Tracer(sample_rate=rate, metrics=MetricsRegistry(window))
    oracles = [OracleRegistry(INTERVAL_S, SLOTS) for _ in range(2)]
    clocks, replay = _Clocks(start), _Clocks(start)
    with mock.patch("repro.obs.trace.perf_counter", clocks.perf_counter), \
            mock.patch("time.time", clocks.time):
        for request in stream:
            clocks.wall = replay.wall = clocks.wall + request[1]
            _serve(clocks, front, shard, request)
            _replay(replay, *oracles, request, sampled)
        snapshots = [front.metrics.snapshot(), shard.metrics.snapshot()]
    for snapshot, oracle in zip(snapshots, oracles):
        assert snapshot["dropped_late"] == 0
        _assert_matches(snapshot, oracle, clocks.wall)
