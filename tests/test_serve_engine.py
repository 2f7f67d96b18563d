"""The unified event engine: async compile, prefetch, pricing, accounting.

Covers what the scheduler-era suites cannot: compilation as a simulated
resource (worker pools, sync-visible compile, overlap under miss
storms), cross-request trace prefetch (hit/waste counters, accuracy),
deterministic compile accounting (byte-identical reports including
cache stats), the vectorized cost table, and the serving-side frame
timeline with its compile/prefetch phase labels.
"""

import pytest

from repro.core.config import AcceleratorConfig, CompileLatencyModel
from repro.core.microops import MicroOpProgram
from repro.core.simulator import UniRenderAccelerator
from repro.errors import ConfigError
from repro.serve import (
    CompileWorkerPool,
    CostTable,
    PipelineBatcher,
    RenderRequest,
    ServeCluster,
    TraceCache,
    TracePrefetcher,
    generate_traffic,
    response_timeline,
    simulate_service,
)
# One canonical copy of the synthetic per-pipeline frame costs: the
# golden numbers in several suites depend on these staying identical.
from tests.test_serve_invariants import stub_program


def stub_cache(capacity=64, model=None):
    return TraceCache(capacity=capacity,
                      compile_fn=lambda key: stub_program(key[1]),
                      latency_model=model)


def request(i, pipeline="hashgrid", arrival=0.0, scene="lego", slo=0.05):
    return RenderRequest(
        request_id=i, scene=scene, pipeline=pipeline,
        width=64, height=64, arrival_s=arrival, slo_s=slo,
    )


MODEL = CompileLatencyModel()

#: Bursty miss storm: every burst opens cold trace keys, so compile
#: latency lands squarely on the dispatch path.
STORM_SCENES = tuple(f"scene{i}" for i in range(12))


def storm_trace(n=240, rate=8000.0, seed=7):
    return generate_traffic("bursty", n_requests=n, rate_rps=rate, seed=seed,
                            scenes=STORM_SCENES, resolution=(64, 64),
                            slo_s=0.02)


def run_storm(**kwargs):
    return simulate_service(
        storm_trace(),
        ServeCluster(2),
        cache=stub_cache(),
        batcher=PipelineBatcher(),
        **kwargs,
    )


class TestCompileModes:
    def test_sync_model_charges_the_chip(self):
        legacy = run_storm()
        sync = run_storm(compile_latency=MODEL)
        # Visible compile stalls the dispatch path: same schedule shape,
        # strictly later completions wherever a miss occurred.
        assert sync.mean_queue_s > legacy.mean_queue_s
        assert sync.makespan_s > legacy.makespan_s
        origins = {r.compile_origin for r in sync.responses}
        assert origins == {None, "sync"}
        missed = [r for r in sync.responses if r.compile_origin == "sync"]
        assert missed and all(r.compile_s > 0 for r in missed)
        # Compile time is inside the chip's service span, not the queue.
        assert all(r.service_s > r.compile_s for r in missed)

    def test_async_overlap_beats_sync_under_miss_storm(self):
        sync = run_storm(compile_latency=MODEL)
        overlapped = run_storm(compile_workers=4, compile_latency=MODEL)
        assert overlapped.mean_queue_s < 0.25 * sync.mean_queue_s
        assert overlapped.latency_p(99) < sync.latency_p(99)
        stats = overlapped.compile_stats
        assert stats["workers"] == 4
        distinct = {r.trace_key for r in storm_trace()}
        assert stats["demand_jobs"] == len(distinct)
        assert stats["busy_s"] > 0

    def test_worker_contention_one_vs_four(self):
        one = run_storm(compile_workers=1, compile_latency=MODEL)
        four = run_storm(compile_workers=4, compile_latency=MODEL)
        # Same compile demand either way...
        assert (one.compile_stats["demand_jobs"]
                == four.compile_stats["demand_jobs"])
        assert one.compile_stats["busy_s"] == pytest.approx(
            four.compile_stats["busy_s"])
        # ...but a single worker serializes the storm: demand jobs queue
        # behind each other, and requests wait visibly longer.
        assert one.compile_stats["demand_wait_s"] > 0
        assert four.compile_stats["demand_wait_s"] \
            < one.compile_stats["demand_wait_s"]
        assert four.mean_queue_s < one.mean_queue_s

    def test_every_request_served_exactly_once_async(self):
        report = run_storm(compile_workers=2, compile_latency=MODEL)
        served = sorted(r.request.request_id for r in report.responses)
        assert served == list(range(240))

    def test_workers_zero_without_model_is_the_frozen_baseline(self):
        legacy = run_storm()
        explicit = run_storm(compile_workers=0)
        assert legacy.to_dict() == explicit.to_dict()

    def test_prefetch_requires_workers(self):
        with pytest.raises(ConfigError):
            run_storm(prefetch=True)

    def test_conflicting_latency_models_rejected(self):
        # A warm cache priced under one model must not be silently
        # repriced under another — recompiles would mix the two.
        other = CompileLatencyModel(base_s=5e-3)
        with pytest.raises(ConfigError, match="latency"):
            simulate_service(
                [request(0)], ServeCluster(1),
                cache=stub_cache(model=MODEL), batcher=PipelineBatcher(),
                compile_latency=other,
            )


class TestDeterministicAccounting:
    def test_reports_are_byte_identical_including_cache_stats(self):
        # The satellite fix: compile costs are simulated, so the whole
        # report payload (cache stats included) replays identically.
        for kwargs in (
            {},
            {"compile_latency": MODEL},
            {"compile_workers": 2, "compile_latency": MODEL},
            {"compile_workers": 2, "compile_latency": MODEL,
             "prefetch": True},
        ):
            a = run_storm(**kwargs)
            b = run_storm(**kwargs)
            assert a.to_dict() == b.to_dict(), kwargs

    def test_wall_time_is_a_separate_diagnostic(self):
        cache = stub_cache(model=MODEL)
        report = simulate_service(
            storm_trace(n=60), ServeCluster(2), cache=cache,
            batcher=PipelineBatcher(), compile_workers=2,
            compile_latency=MODEL,
        )
        # Wall time accrues on the stats object but never reaches the
        # report payload — that is what keeps reports reproducible.
        assert cache.stats.compile_wall_s >= 0.0
        assert "compile_wall_s" not in report.cache_stats
        assert report.cache_stats["compile_s"] > 0.0


class TestPrefetch:
    def test_prefetch_turns_misses_into_hits(self):
        cold = run_storm(compile_workers=4, compile_latency=MODEL)
        warmed = run_storm(compile_workers=4, compile_latency=MODEL,
                           prefetch=True)
        stats = warmed.prefetch_stats
        assert stats["issued"] > 0
        assert stats["issued"] == stats["hits"] + stats["waste"]
        assert 0.0 <= stats["accuracy"] <= 1.0
        if stats["hits"]:
            # Prefetched traces surface on responses and save misses.
            assert any(r.prefetched for r in warmed.responses)
            assert (warmed.cache_stats["misses"]
                    <= cold.cache_stats["misses"])

    def test_prefetcher_prediction_is_recency_ordered(self):
        prefetcher = TracePrefetcher(history=8, max_candidates=4)
        prefetcher.observe(("lego", "hashgrid", 64, 64))
        prefetcher.observe(("room", "gaussian", 64, 64))
        candidates = prefetcher.candidates()
        assert len(candidates) == 4
        # Most recent pipeline (gaussian) and scene (room) lead.
        assert candidates[0] == ("room", "gaussian", 64, 64)
        assert all(len(k) == 4 for k in candidates)

    def test_prefetch_counters(self):
        prefetcher = TracePrefetcher()
        key = ("lego", "hashgrid", 64, 64)
        prefetcher.note_issue(key)
        assert prefetcher.is_unused(key)
        assert (prefetcher.issued, prefetcher.hits, prefetcher.waste) == (1, 0, 1)
        prefetcher.note_use(key)
        prefetcher.note_use(key)  # only the first use counts
        assert (prefetcher.issued, prefetcher.hits, prefetcher.waste) == (1, 1, 0)
        assert prefetcher.accuracy == 1.0

    def test_evicted_prefetch_is_not_credited_after_demand_recompile(self):
        prefetcher = TracePrefetcher()
        key = ("lego", "hashgrid", 64, 64)
        prefetcher.note_issue(key)
        # The prefetched copy was evicted unused; a demand miss had to
        # compile from scratch. A later hit on that demand-compiled
        # entry must count as prefetch waste, not a prefetch hit.
        prefetcher.note_demand_compile(key)
        prefetcher.note_use(key)
        assert prefetcher.hits == 0
        assert prefetcher.waste == 1

    def test_prefetcher_validation(self):
        with pytest.raises(ConfigError):
            TracePrefetcher(history=0)
        with pytest.raises(ConfigError):
            TracePrefetcher(max_candidates=0)


class TestWorkerPool:
    def test_jobs_pack_onto_earliest_free_worker(self):
        pool = CompileWorkerPool(2)
        assert pool.submit(0.0, 1.0, demand=True) == 1.0
        assert pool.submit(0.0, 1.0, demand=True) == 1.0   # second worker
        assert pool.submit(0.0, 1.0, demand=True) == 2.0   # queues behind
        assert pool.stats.demand_jobs == 3
        assert pool.stats.busy_s == pytest.approx(3.0)
        assert pool.stats.demand_wait_s == pytest.approx(1.0)
        assert pool.idle_count(0.5) == 0
        assert pool.idle_count(1.0) == 1   # the second worker; the first runs to 2.0

    def test_pool_validation(self):
        with pytest.raises(ConfigError):
            CompileWorkerPool(0)


class TestCostTable:
    def test_prices_each_pair_once(self):
        table = CostTable()
        accel = UniRenderAccelerator(AcceleratorConfig())
        key = ("lego", "hashgrid", 64, 64)
        program = stub_program("hashgrid")
        first = table.price(key, accel, program)
        again = table.price(key, accel, program)
        assert first == again
        assert len(table) == 1
        # A different design point is a different row.
        big = UniRenderAccelerator(AcceleratorConfig().scaled(2, 2))
        table.price(key, big, program)
        assert len(table) == 2
        arrays = table.as_arrays()
        assert arrays["cycles"].shape == (2,)
        assert (arrays["cycles"] > 0).all()
        assert (arrays["energy_j"] > 0).all()

    def test_result_for_returns_full_frame(self):
        table = CostTable()
        accel = UniRenderAccelerator(AcceleratorConfig())
        key = ("lego", "mesh", 64, 64)
        table.price(key, accel, stub_program("mesh"))
        result = table.result_for(key, accel.config)
        assert result is not None and result.pipeline == "mesh"
        assert table.result_for(key, AcceleratorConfig().scaled(2, 2)) is None


class TestServingTimeline:
    def test_compile_phase_is_labelled(self):
        report = simulate_service(
            [request(0, "mesh", 0.0)], ServeCluster(1),
            cache=stub_cache(model=MODEL), batcher=PipelineBatcher(),
            compile_latency=MODEL,
        )
        response = report.responses[0]
        assert response.compile_origin == "sync"
        from repro.serve import CostTable  # cache-owned; rebuild here
        accel = UniRenderAccelerator(AcceleratorConfig())
        table = CostTable()
        table.price(response.request.trace_key, accel,
                    stub_program("mesh"))
        result = table.result_for(response.request.trace_key, accel.config)
        text = response_timeline(response, result)
        assert "sync [compile]" in text.splitlines()[0]
        assert "[" in text.splitlines()[1]  # frame phases follow

    def test_timeline_zero_cycles_is_guarded(self):
        from repro.core.scheduler import FrameSchedule
        from repro.core.simulator import FrameResult
        from repro.core.energy import EnergyBreakdown
        program = MicroOpProgram(pipeline="mesh", pixels=0)
        empty = FrameResult(
            pipeline="mesh", cycles=0.0, fps=0.0,
            energy=EnergyBreakdown(), power_w=0.0, dram_bytes=0.0,
            reconfig_cycles=0.0, cycles_by_op={},
            schedule=FrameSchedule(program=program),
        )
        assert empty.timeline() == ""                     # no phases, no crash
        text = empty.timeline(compile_cycles=100.0)       # compile-only bar
        assert "compile [compile]" in text


class TestAsyncInvariants:
    """The invariant suite's properties must also hold for every
    compile model, including async compile under autoscaling and
    admission control."""

    @pytest.mark.parametrize("kwargs", [
        {"compile_latency": MODEL},
        {"compile_workers": 1, "compile_latency": MODEL},
        {"compile_workers": 4, "compile_latency": MODEL},
        {"compile_workers": 4, "compile_latency": MODEL, "prefetch": True},
    ], ids=["sync", "w1", "w4", "w4+prefetch"])
    def test_invariants_hold(self, kwargs):
        from tests.test_serve_invariants import assert_invariants

        trace = storm_trace()
        report = simulate_service(
            trace, ServeCluster(2), cache=stub_cache(),
            batcher=PipelineBatcher(), **kwargs,
        )
        assert_invariants(report, trace)

    def test_invariants_hold_with_autoscaler_and_admission(self):
        from tests.test_serve_invariants import assert_invariants
        from repro.serve import Autoscaler, make_admission_policy

        trace = storm_trace()
        report = simulate_service(
            trace,
            ServeCluster(1, policy="cost-aware"),
            cache=stub_cache(),
            batcher=PipelineBatcher(),
            autoscaler=Autoscaler(min_chips=1, max_chips=4,
                                  target_queue_per_chip=2.0,
                                  window_s=0.005, warmup_s=0.0005,
                                  cooldown_s=0.001),
            admission=make_admission_policy("slo-shed"),
            compile_workers=2,
            compile_latency=MODEL,
            prefetch=True,
        )
        assert_invariants(report, trace)
        assert report.peak_fleet_size >= 1
        assert report.compile_stats["demand_jobs"] > 0


class TestBatcherEquivalence:
    def test_lane_selection_matches_queue_scan(self):
        """`PipelineBatcher.next_batch` is the executable spec of batch
        selection; the engine's lane-based `_PendingIndex` must drain a
        queue into the exact same batch sequence."""
        from collections import deque
        from repro.serve.engine import _PendingIndex

        trace = generate_traffic("mixed", n_requests=60, seed=5,
                                 resolution=(64, 64))
        scan = PipelineBatcher(max_batch=3)
        pending = deque(trace)
        scan_batches = []
        while pending:
            scan_batches.append(scan.next_batch(pending).requests)

        lanes = PipelineBatcher(max_batch=3)
        index = _PendingIndex()
        for request in trace:
            index.push(request)
        lane_batches = []
        while index.n_pending:
            anchor = index.anchor(lambda r: True)
            taken = index.take(anchor, lanes.max_batch, lambda r: True)
            lane_batches.append(lanes.make_batch(anchor.pipeline,
                                                 taken).requests)
        assert lane_batches == scan_batches


class TestCacheEvictionOrder:
    def test_async_inserts_follow_lru_order(self):
        cache = stub_cache(capacity=2, model=MODEL)
        a, b, c = (("s1", "mesh", 64, 64), ("s2", "mesh", 64, 64),
                   ("s3", "mesh", 64, 64))
        cache.insert(a, stub_program("mesh"), sim_cost_s=0.001)
        cache.insert(b, stub_program("mesh"), sim_cost_s=0.001)
        assert cache.lookup(a) is not None        # refresh a; b is LRU
        cache.insert(c, stub_program("mesh"), sim_cost_s=0.001)
        assert a in cache and c in cache and b not in cache
        assert cache.stats.evictions == 1
        assert cache.keys == (a, c)
        # touch() refreshes order without stats.
        hits = cache.stats.hits
        cache.touch(a)
        assert cache.keys == (c, a)
        assert cache.stats.hits == hits

    def test_eviction_under_service_load(self):
        # Capacity far below the distinct-trace count: the engine must
        # keep pricing correct even as programs churn out of the cache.
        report = simulate_service(
            storm_trace(n=120), ServeCluster(2),
            cache=stub_cache(capacity=4, model=MODEL),
            batcher=PipelineBatcher(), compile_workers=2,
            compile_latency=MODEL,
        )
        assert report.cache_stats["evictions"] > 0
        assert len(report.responses) == 120


class TestTieBreakContract:
    """The pinned ``(t, kind, seq)`` event ordering.

    The engine's correctness (arrival windows included) hangs on one
    total order (documented at the event-kind constants in
    ``engine.py``): events sort by timestamp, then by *kind* — arrivals
    (kind 0) before every dynamic event — then by monotonic insertion
    seq within a kind. These tests pin both halves: the heap's pop
    order under a shuffled same-instant burst, and the user-visible
    consequence (an arrival racing a compile completion at the same
    instant must observe the cache *before* the compile lands).
    """

    def test_shuffled_same_instant_events_pop_in_kind_seq_order(self):
        import heapq
        import random

        from repro.serve.engine import (
            EventEngine,
            _CHIP_CRASH,
            _CHIP_FREE,
            _CHIP_RECOVER,
            _COMPILE_DONE,
            _HEDGE_SETTLE,
            _SCALE_TICK,
        )

        engine = EventEngine([request(0)], cache=stub_cache())
        kinds = [_COMPILE_DONE, _CHIP_FREE, _SCALE_TICK, _CHIP_CRASH,
                 _CHIP_RECOVER, _HEDGE_SETTLE] * 3
        random.Random(42).shuffle(kinds)
        for index, kind in enumerate(kinds):
            engine._push(1.0, kind, payload=index)
        popped = [heapq.heappop(engine._events)
                  for _ in range(len(engine._events))]
        assert popped == sorted(popped), \
            "heap must yield strict (t, kind, seq) order"
        # Within one kind, seq preserves push order exactly.
        for kind in set(kinds):
            same = [payload for (_t, k, _s, payload) in popped
                    if k == kind and payload is not None]
            assert same == sorted(same)

    def test_arrival_seqs_precede_dynamic_seqs(self):
        from repro.serve.engine import EventEngine, _SCALE_TICK

        requests = [request(i, arrival=0.001 * i) for i in range(5)]
        engine = EventEngine(requests, cache=stub_cache())
        # Arrivals own seqs 0..n-1 (their sorted order); the first
        # dynamic push continues the numbering after them, so at equal
        # (t, kind) an arrival-era seq can never lose to a dynamic one.
        assert engine._event_seq == len(requests)
        engine._push(0.0, _SCALE_TICK)
        assert engine._events[0][2] == len(requests)

    def test_arrival_at_compile_done_instant_misses(self):
        # Request A misses and submits an async compile finishing at
        # instant d. Request B (same trace key) arrives at exactly d:
        # the arrival (kind 0) ingests before the compile-done event
        # (kind 1) lands the program, so B must register as a miss that
        # joins the in-flight compile — never as a hit.
        done_s = MODEL.latency_s(stub_program("hashgrid"))
        requests = [request(0, arrival=0.0),
                    request(1, arrival=done_s)]
        report = simulate_service(
            requests, ServeCluster(1),
            cache=stub_cache(model=MODEL),
            batcher=PipelineBatcher(),
            compile_workers=1, compile_latency=MODEL,
        )
        by_id = {r.request.request_id: r for r in report.responses}
        assert not by_id[0].cache_hit
        assert not by_id[1].cache_hit
        # A third request strictly after d sees the landed program.
        late = simulate_service(
            [request(0, arrival=0.0), request(1, arrival=done_s * 2)],
            ServeCluster(1), cache=stub_cache(model=MODEL),
            batcher=PipelineBatcher(),
            compile_workers=1, compile_latency=MODEL,
        )
        by_id = {r.request.request_id: r for r in late.responses}
        assert by_id[1].cache_hit
