"""Columnar-vs-scalar engine equivalence (the de-interpreting refactor).

The event engine carries two run loops: the scalar merged-stream loop
(the reference semantics, kept as the ``columnar=False`` escape hatch
and the fallback for stateful features) and the columnar fast path that
holds the pending set in NumPy columns. The contract is *byte
identity*: for every configuration the fast path accepts, its
``ServiceReport.to_dict()`` must serialize identically to the scalar
loop's — same floats, same ordering, same everything. This suite pins
that contract scenario by scenario — including the widened eligibility
matrix (strict-tier multi-tenant lanes, the vectorized chip-score
lanes) — pins the eligibility gate itself (an observer forces the
scalar loop), pins the chaos/hedge/preempt fallbacks byte for byte,
and pins the :meth:`TraceCache.get_many` batched-lookup equivalence.
"""

import json
import random

import pytest

from repro.core.config import CompileLatencyModel
from repro.serve import (
    FaultPlan,
    ChipCrash,
    HedgePolicy,
    PipelineBatcher,
    ServeCluster,
    StragglerWindow,
    TenantClass,
    TraceCache,
    generate_tenant_traffic,
    generate_traffic,
    make_admission_policy,
    make_elastic_autoscaler,
    simulate_service,
)
from repro.serve.engine import EventEngine, TracePrefetcher
from tests.test_serve_invariants import stub_program

MODEL = CompileLatencyModel()


def stub_cache(capacity=64, model=None):
    return TraceCache(capacity=capacity,
                      compile_fn=lambda key: stub_program(key[1]),
                      latency_model=model)


def trace(pattern="bursty", n=160, rate=400.0, seed=3,
          scenes=("lego", "room"), slo=0.02):
    return generate_traffic(pattern, n_requests=n, rate_rps=rate, seed=seed,
                            scenes=scenes, resolution=(64, 64), slo_s=slo)


def tenant_trace(mix=None, n=160, rate=600.0, seed=3, slo=0.02):
    """A strict-tier multi-tenant trace (no weights — tiers only)."""
    if mix is None:
        mix = [(TenantClass("premium", tier=0), 0.3),
               (TenantClass("economy", slo_multiplier=2.0, tier=1), 0.7)]
    return generate_tenant_traffic(
        mix, pattern="bursty", n_requests=n, rate_rps=rate, seed=seed,
        scenes=("lego", "room"), resolution=(64, 64), slo_s=slo)


def canon(report) -> str:
    return json.dumps(report.to_dict(), sort_keys=True)


def run_both(requests, chips=2, **kwargs):
    """The same configuration through both loops; returns both reports."""
    reports = [
        simulate_service(requests, ServeCluster(chips), cache=stub_cache(),
                         batcher=PipelineBatcher(), columnar=flag, **kwargs)
        for flag in (True, False)
    ]
    return reports[0], reports[1]


class TestByteIdentity:
    """Every eligible scenario: columnar == scalar, byte for byte."""

    @pytest.mark.parametrize("pattern", ["steady", "bursty", "diurnal"])
    def test_bare_patterns(self, pattern):
        columnar, scalar = run_both(trace(pattern))
        assert canon(columnar) == canon(scalar)

    def test_slo_shed_admission(self):
        # A single chip against a tight 2 ms SLO: projections blow the
        # deadline, so the policy actually sheds on both paths.
        columnar, scalar = run_both(
            trace(rate=4000.0, slo=0.002), chips=1,
            admission=make_admission_policy("slo-shed"))
        assert columnar.n_shed > 0
        assert canon(columnar) == canon(scalar)

    def test_tail_drop_admission(self):
        from repro.serve.admission import TailDrop

        columnar, scalar = run_both(
            trace(rate=4000.0, slo=0.002), chips=1,
            admission=TailDrop(max_queue=4))
        assert columnar.n_shed > 0
        assert canon(columnar) == canon(scalar)

    def test_sync_visible_compile(self):
        # compile_workers=0 with a latency model stalls the chip on
        # every miss — still columnar-eligible (no worker pool events).
        columnar, scalar = run_both(trace(), compile_latency=MODEL)
        assert any(r.compile_origin == "sync" for r in columnar.responses)
        assert canon(columnar) == canon(scalar)

    def test_large_ingest_windows(self):
        # A miss storm at high rate accumulates ingest windows past the
        # NumPy group-fill threshold (64), exercising the vectorized
        # branch rather than the per-request loop.
        storm = trace(n=400, rate=8000.0, seed=7,
                      scenes=tuple(f"s{i}" for i in range(10)))
        columnar, scalar = run_both(storm)
        assert canon(columnar) == canon(scalar)

    def test_single_request(self):
        columnar, scalar = run_both(trace(n=1))
        assert canon(columnar) == canon(scalar)

    def test_strict_tier_multi_tenant(self):
        columnar, scalar = run_both(tenant_trace())
        assert canon(columnar) == canon(scalar)

    def test_three_tier_traffic(self):
        mix = [(TenantClass("gold", tier=0), 0.2),
               (TenantClass("silver", slo_multiplier=1.5, tier=1), 0.3),
               (TenantClass("bronze", slo_multiplier=3.0, tier=2), 0.5)]
        columnar, scalar = run_both(tenant_trace(mix=mix, n=240, rate=1500.0))
        assert canon(columnar) == canon(scalar)

    def test_tiered_with_slo_shed(self):
        columnar, scalar = run_both(
            tenant_trace(rate=6000.0, slo=0.002), chips=1,
            admission=make_admission_policy("slo-shed"))
        assert columnar.n_shed > 0
        assert canon(columnar) == canon(scalar)

    @pytest.mark.parametrize("policy", ["round-robin", "least-loaded",
                                        "pipeline-affinity", "cost-aware"])
    def test_sharding_policies(self, policy):
        # Three chips so the score lanes actually discriminate; the
        # round-robin arm pins the stateful-closure fallback inside the
        # columnar loop.
        reports = [
            simulate_service(trace(n=240, rate=2500.0),
                             ServeCluster(3, policy=policy),
                             cache=stub_cache(), batcher=PipelineBatcher(),
                             columnar=flag)
            for flag in (True, False)
        ]
        assert canon(reports[0]) == canon(reports[1])

    def test_eviction_storm(self):
        # A 3-entry cache against 8 scenes: evictions on nearly every
        # window.
        storm = trace(n=300, rate=5000.0, seed=9,
                      scenes=tuple(f"s{i}" for i in range(8)))
        reports = [
            simulate_service(storm, ServeCluster(2),
                             cache=stub_cache(capacity=3, model=MODEL),
                             batcher=PipelineBatcher(), columnar=flag)
            for flag in (True, False)
        ]
        assert reports[0].cache_stats["evictions"] > 0
        assert canon(reports[0]) == canon(reports[1])

    def test_escape_hatch_is_default_off_path(self):
        # simulate_service(columnar=False) must take the scalar loop
        # even for an eligible configuration (pinned via the engine).
        requests = trace(n=16)
        assert EventEngine(requests, cache=stub_cache())._columnar
        assert not EventEngine(requests, cache=stub_cache(),
                               columnar=False)._columnar


class TestEligibilityGate:
    """The fast path only engages when it can reproduce the scalar
    schedule bit for bit; every stateful feature must disqualify it."""

    def engine(self, **kwargs):
        return EventEngine(trace(n=16), cache=stub_cache(), **kwargs)

    def test_bare_is_columnar(self):
        assert self.engine()._columnar

    def test_non_rewriting_admission_is_columnar(self):
        assert self.engine(
            admission=make_admission_policy("slo-shed"))._columnar

    def test_downgrade_admission_falls_back(self):
        # Downgrade rewrites requests (may_degrade=True): scalar only.
        assert not self.engine(
            admission=make_admission_policy("downgrade"))._columnar

    def test_unknown_admission_object_falls_back(self):
        # Duck-typed policies without the may_degrade attribute are
        # conservatively assumed to rewrite.
        class Mystery:
            def admit(self, request, now, projected, est, depth):
                return request

        assert not self.engine(admission=Mystery())._columnar

    def test_autoscaler_falls_back(self):
        assert not self.engine(
            autoscaler=make_elastic_autoscaler())._columnar

    def test_async_compile_falls_back(self):
        assert not self.engine(compile_workers=1)._columnar

    def test_prefetch_falls_back(self):
        assert not self.engine(compile_workers=1,
                               prefetcher=TracePrefetcher())._columnar

    def test_preempt_falls_back(self):
        assert not self.engine(preempt=True)._columnar

    def test_faults_fall_back(self):
        plan = FaultPlan(crashes=[ChipCrash(0, 0.01, None)])
        assert not self.engine(faults=plan)._columnar

    def test_hedge_falls_back(self):
        assert not self.engine(hedge=HedgePolicy())._columnar

    def test_observer_falls_back(self):
        # The scalar loop's inline hooks are the one observer path.
        from repro.obs import Observer, Tracer

        assert not self.engine(observer=Observer(tracer=Tracer()))._columnar

    def test_disabled_observer_is_columnar(self):
        # A sink-less observer normalizes to None: not an observed run.
        from repro.obs import Observer

        assert self.engine(observer=Observer())._columnar

    def test_multi_tier_is_columnar(self):
        # Strict-tier multi-tenant (no weights, no preempt) runs on the
        # per-tier pending lanes.
        engine = EventEngine(tenant_trace(n=16), cache=stub_cache())
        assert engine._columnar

    def test_weighted_admission_falls_back(self):
        from repro.serve import TenantClass

        mix = [(TenantClass("a", weight=2.0), 0.5),
               (TenantClass("b", tier=1), 0.5)]
        requests = generate_tenant_traffic(
            mix, pattern="bursty", n_requests=16, rate_rps=400.0, seed=3,
            scenes=("lego",), resolution=(64, 64), slo_s=0.02)
        engine = EventEngine(requests, cache=stub_cache(),
                             admission=make_admission_policy("weighted"))
        assert not engine._columnar


class TestFallbackStillMatches:
    """columnar=True on an ineligible config silently takes the scalar
    loop — the kwarg must be a no-op there, not a behavior change."""

    def test_preempt_mode_identical_across_flag(self):
        mix = [(TenantClass("premium", weight=4.0), 0.25),
               (TenantClass("economy", slo_multiplier=2.0, tier=1), 0.75)]
        requests = generate_tenant_traffic(
            mix, pattern="bursty", n_requests=80, rate_rps=600.0, seed=3,
            scenes=("lego", "room"), resolution=(64, 64), slo_s=0.02)
        reports = [
            simulate_service(
                requests, ServeCluster(2), cache=stub_cache(),
                batcher=PipelineBatcher(),
                admission=make_admission_policy("weighted"),
                preempt=True, columnar=flag)
            for flag in (True, False)
        ]
        assert canon(reports[0]) == canon(reports[1])

    def test_chaos_forces_scalar_and_matches(self):
        # A FaultPlan must force the scalar loop (crash/recover events
        # are heap-driven), and columnar=True must be a silent no-op.
        plan = FaultPlan(
            crashes=[ChipCrash(0, 0.005, 0.02), ChipCrash(2, 0.012, None)],
            stragglers=[StragglerWindow(1, 0.0, 0.06, 3.0)])
        requests = trace(n=160, rate=2500.0)
        assert not EventEngine(requests, cache=stub_cache(),
                               faults=plan)._columnar
        reports = [
            simulate_service(requests, ServeCluster(3), cache=stub_cache(),
                             batcher=PipelineBatcher(), faults=plan,
                             columnar=flag)
            for flag in (True, False)
        ]
        assert canon(reports[0]) == canon(reports[1])

    def test_hedge_forces_scalar_and_matches(self):
        hedge = HedgePolicy(quantile=0.5, multiplier=0.5,
                            min_samples=4, window=32)
        requests = trace(n=160, rate=4000.0)
        assert not EventEngine(requests, cache=stub_cache(),
                               hedge=hedge)._columnar
        reports = [
            simulate_service(requests, ServeCluster(2), cache=stub_cache(),
                             batcher=PipelineBatcher(), hedge=hedge,
                             columnar=flag)
            for flag in (True, False)
        ]
        assert canon(reports[0]) == canon(reports[1])

    def test_chaos_plus_hedge_identical_across_flag(self):
        # The full chaos-golden shape: faults and hedging together.
        plan = FaultPlan(
            crashes=[ChipCrash(1, 0.008, 0.03)],
            stragglers=[StragglerWindow(0, 0.01, 0.05, 2.5)])
        hedge = HedgePolicy(quantile=0.5, multiplier=0.5,
                            min_samples=4, window=32)
        requests = trace(n=160, rate=4000.0)
        reports = [
            simulate_service(requests, ServeCluster(3), cache=stub_cache(),
                             batcher=PipelineBatcher(), faults=plan,
                             hedge=hedge, columnar=flag)
            for flag in (True, False)
        ]
        assert canon(reports[0]) == canon(reports[1])


class TestGetMany:
    """:meth:`TraceCache.get_many` vs a loop of :meth:`TraceCache.get`
    calls on a twin cache — randomized windows, every capacity."""

    UNIVERSE = [(f"scene{i}", pipe, 64, 64)
                for i in range(6)
                for pipe in ("hashgrid", "gaussian", "mesh")]

    @pytest.mark.parametrize("seed", range(8))
    def test_randomized_lru_equivalence(self, seed):
        rng = random.Random(seed)
        capacity = rng.randint(1, 6)
        batched = stub_cache(capacity=capacity, model=MODEL)
        looped = stub_cache(capacity=capacity, model=MODEL)
        for _ in range(15):
            window = [rng.choice(self.UNIVERSE)
                      for _ in range(rng.randint(1, 10))]
            got = batched.get_many(window)
            assert len(got) == len(window)
            for key, (_, hit, cost) in zip(window, got):
                _, ref_hit = looped.get(key)
                assert hit == ref_hit
                # Both a miss's charge and a hit's credit equal the
                # key's recorded simulated compile cost.
                assert cost == looped.compile_cost_s(key)
            # LRU order (and therefore every future eviction victim)
            # must agree after every window.
            assert batched.keys == looped.keys
        assert batched.stats.to_dict() == looped.stats.to_dict()
        assert batched.hits_by_key == looped.hits_by_key

    def test_repeated_hits_single_touch_order(self):
        # A key hit k times in one window lands exactly where k
        # sequential get() calls would have left it: most recent at the
        # tail, ordered by *last* occurrence.
        cache = stub_cache(capacity=4)
        a, b, c = [("s", p, 64, 64) for p in ("p0", "p1", "p2")]
        cache.get_many([a, b, c])
        cache.get_many([a, a, b, a])
        assert cache.keys == (c, b, a)

    def test_empty_window(self):
        cache = stub_cache()
        assert cache.get_many([]) == []
        assert cache.stats.lookups == 0


class TestPriceMemoEviction:
    """Eviction versus pricing: a 1-entry cache alternating two traces
    evicts and recompiles on nearly every frame. Frame prices live only
    in the cache's :class:`CostTable`, keyed by (trace, design point),
    so a recompile re-reads its trace's row instead of re-simulating,
    and both loops report the same bytes."""

    def requests(self):
        return generate_traffic("steady", n_requests=40, rate_rps=1500.0,
                                seed=3, scenes=("a", "b"),
                                pipelines=("hashgrid",),
                                resolution=(64, 64), slo_s=0.05)

    def run_engine(self, columnar):
        engine = EventEngine(self.requests(), ServeCluster(1),
                             cache=stub_cache(capacity=1, model=MODEL),
                             batcher=PipelineBatcher(max_batch=1),
                             columnar=columnar)
        report = engine.run()
        return engine, report

    @pytest.mark.parametrize("columnar", [True, False])
    def test_one_entry_cache_alternating_traces(self, columnar):
        engine, report = self.run_engine(columnar)
        assert engine._columnar == columnar
        assert report.cache_stats["evictions"] > 0
        assert len(engine.cache.keys) <= 1
        # Recompiles never re-price: one row per distinct trace, and
        # every frame carries its trace's row.
        keys = {r.request.trace_key for r in report.responses}
        assert len(engine._cost) == len(keys) == 2
        config = engine.cluster.chips[0].config
        for response in report.responses:
            key = response.request.trace_key
            assert engine._cost.has(key, config)
            assert response.cycles == engine._cost.result_for(
                key, config).cycles

    def test_reports_match_across_loops(self):
        _, columnar = self.run_engine(True)
        _, scalar = self.run_engine(False)
        assert canon(columnar) == canon(scalar)


class TestRandomizedMultiTenantEquivalence:
    """Randomized tiered traffic × admission mode (preempt off):
    columnar vs scalar reports must be byte-equal whether the gate
    engages (bare, slo-shed) or silently falls back (weighted)."""

    @pytest.mark.parametrize("admission", [None, "slo-shed", "weighted"])
    @pytest.mark.parametrize("seed", [5, 11, 23])
    def test_reports_byte_identical(self, seed, admission):
        offset = {None: 0, "slo-shed": 1, "weighted": 2}[admission]
        rng = random.Random(101 * seed + offset)
        n_tiers = rng.randint(2, 3)
        share = 1.0 / n_tiers
        mix = [(TenantClass(f"t{tier}",
                            slo_multiplier=1.0 + tier * rng.uniform(0.5, 1.5),
                            weight=float(n_tiers - tier), tier=tier), share)
               for tier in range(n_tiers)]
        requests = generate_tenant_traffic(
            mix, pattern=rng.choice(["steady", "bursty"]),
            n_requests=rng.randint(80, 200),
            rate_rps=rng.uniform(500.0, 4000.0), seed=seed,
            scenes=("lego", "room"), resolution=(64, 64), slo_s=0.02)
        chips = rng.randint(1, 3)
        reports = [
            simulate_service(
                requests, ServeCluster(chips), cache=stub_cache(),
                batcher=PipelineBatcher(),
                admission=(None if admission is None
                           else make_admission_policy(admission)),
                columnar=flag)
            for flag in (True, False)
        ]
        assert canon(reports[0]) == canon(reports[1])
