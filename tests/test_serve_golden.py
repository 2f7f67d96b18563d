"""Golden regression numbers for the service scheduler.

Freezes the latency percentiles, SLO attainment, and switch-cycle
totals of one steady and one bursty scenario per sharding policy, so a
scheduler refactor cannot silently shift serving results. The trace
cache is stubbed with synthetic per-pipeline programs, making the
numbers a function of the *scheduler* alone — performance-model changes
do not move them; an intentional scheduler change must update this
table (regenerate by running the scenario below and copying the
values).

Scenario: 60 requests, seed 42, 12000 req/s offered at 64x64 with a
0.5 ms SLO on a three-chip baseline fleet — hot enough that queues form
and bursts blow SLOs, so the numbers actually exercise queueing,
batching, and switch placement.
"""

from dataclasses import dataclass, replace

import pytest

from repro.compile.workloads import gemm_workload
from repro.core.microops import MicroOp, MicroOpProgram
from repro.serve import (
    DEFAULT_TENANT,
    PipelineBatcher,
    ServeCluster,
    SHARDING_POLICIES,
    TenantClass,
    TraceCache,
    generate_tenant_traffic,
    generate_traffic,
    make_admission_policy,
    simulate_service,
)

#: Per-pipeline synthetic frame costs (matches test_serve_invariants).
_PIPELINE_MACS = {"hashgrid": 2e7, "gaussian": 1.6e8, "mesh": 4e7}


def stub_program(pipeline):
    program = MicroOpProgram(pipeline=pipeline, pixels=1024)
    program.append(
        MicroOp.GEMM,
        "mlp",
        gemm_workload(macs=_PIPELINE_MACS.get(pipeline, 5e7), rows=1e3,
                      in_width=32, out_width=4, weight_bytes=1e4),
    )
    return program


def run_scenario(pattern, policy):
    trace = generate_traffic(pattern=pattern, n_requests=60, rate_rps=12000.0,
                             seed=42, resolution=(64, 64), slo_s=0.0005)
    return simulate_service(
        trace,
        ServeCluster(3, policy=policy),
        cache=TraceCache(capacity=64,
                         compile_fn=lambda key: stub_program(key[1])),
        batcher=PipelineBatcher(),
    )


@dataclass(frozen=True)
class Golden:
    p50_ms: float
    p95_ms: float
    p99_ms: float
    slo_attainment: float
    switch_cycles: float


GOLDEN = {
    ("steady", "cost-aware"): Golden(
        p50_ms=0.071270407, p95_ms=0.186053815,
        p99_ms=0.262092448, slo_attainment=1.000000000,
        switch_cycles=53248.0),
    ("steady", "least-loaded"): Golden(
        p50_ms=0.071270407, p95_ms=0.186053815,
        p99_ms=0.262092448, slo_attainment=1.000000000,
        switch_cycles=53248.0),
    ("steady", "pipeline-affinity"): Golden(
        p50_ms=0.069222407, p95_ms=0.185189157,
        p99_ms=0.262092448, slo_attainment=1.000000000,
        switch_cycles=43008.0),
    ("steady", "round-robin"): Golden(
        p50_ms=0.071270407, p95_ms=0.186053815,
        p99_ms=0.262092448, slo_attainment=1.000000000,
        switch_cycles=53248.0),
    ("bursty", "cost-aware"): Golden(
        p50_ms=0.185378649, p95_ms=1.009230573,
        p99_ms=1.428536610, slo_attainment=0.800000000,
        switch_cycles=36864.0),
    ("bursty", "least-loaded"): Golden(
        p50_ms=0.185378649, p95_ms=1.009230573,
        p99_ms=1.428536610, slo_attainment=0.800000000,
        switch_cycles=36864.0),
    ("bursty", "pipeline-affinity"): Golden(
        p50_ms=0.183233521, p95_ms=1.009230573,
        p99_ms=1.428536610, slo_attainment=0.783333333,
        switch_cycles=32768.0),
    ("bursty", "round-robin"): Golden(
        p50_ms=0.185378649, p95_ms=1.009230573,
        p99_ms=1.428536610, slo_attainment=0.800000000,
        switch_cycles=36864.0),
}


@pytest.mark.parametrize("pattern", ["steady", "bursty"])
@pytest.mark.parametrize("policy", sorted(SHARDING_POLICIES))
def test_scheduler_numbers_are_frozen(pattern, policy):
    golden = GOLDEN[(pattern, policy)]
    report = run_scenario(pattern, policy)
    assert report.latency_p(50) * 1e3 == pytest.approx(golden.p50_ms, rel=1e-6)
    assert report.latency_p(95) * 1e3 == pytest.approx(golden.p95_ms, rel=1e-6)
    assert report.latency_p(99) * 1e3 == pytest.approx(golden.p99_ms, rel=1e-6)
    assert report.slo_attainment == pytest.approx(
        golden.slo_attainment, rel=1e-9)
    assert report.total_switch_cycles == golden.switch_cycles


def test_goldens_cover_every_policy():
    # A new sharding policy must freeze its numbers here too.
    assert {policy for _, policy in GOLDEN} == set(SHARDING_POLICIES)


# ----------------------------------------------------------------------
# Async compile golden: compile-on-miss overlapped with chip execution.
# ----------------------------------------------------------------------
#: Bursty miss storm over 12 scenes: every burst opens cold trace keys,
#: so compile latency dominates the dispatch path. ``compile_workers=0``
#: is the synchronous-visible-compile baseline (the chip stalls for the
#: simulated compile time); two workers overlap compile with execution.
_STORM_SCENES = tuple(f"scene{i}" for i in range(12))


def run_compile_scenario(workers):
    from repro.core.config import CompileLatencyModel

    trace = generate_traffic(pattern="bursty", n_requests=120,
                             rate_rps=8000.0, seed=11, scenes=_STORM_SCENES,
                             resolution=(64, 64), slo_s=0.02)
    return simulate_service(
        trace,
        ServeCluster(2),
        cache=TraceCache(capacity=64,
                         compile_fn=lambda key: stub_program(key[1])),
        batcher=PipelineBatcher(),
        compile_workers=workers,
        compile_latency=CompileLatencyModel(),
    )


#: Frozen (mean queue wait ms, p99 ms, SLO attainment) per compile mode.
GOLDEN_COMPILE = {
    0: (18.671903149, 26.263088736, 0.375000000),   # synchronous compile
    2: (9.315754233, 22.206790589, 0.916666667),    # async, two workers
}


@pytest.mark.parametrize("workers", sorted(GOLDEN_COMPILE))
def test_compile_overlap_numbers_are_frozen(workers):
    mean_queue_ms, p99_ms, slo = GOLDEN_COMPILE[workers]
    report = run_compile_scenario(workers)
    assert report.mean_queue_s * 1e3 == pytest.approx(mean_queue_ms, rel=1e-6)
    assert report.latency_p(99) * 1e3 == pytest.approx(p99_ms, rel=1e-6)
    assert report.slo_attainment == pytest.approx(slo, rel=1e-9)


def test_async_compile_lowers_queue_wait_vs_synchronous():
    # The acceptance headline: overlapping compile-on-miss with chip
    # execution halves the mean queue wait of the bursty miss storm.
    sync = run_compile_scenario(0)
    overlapped = run_compile_scenario(2)
    assert overlapped.mean_queue_s < 0.55 * sync.mean_queue_s
    assert overlapped.slo_attainment > sync.slo_attainment


# ----------------------------------------------------------------------
# Multi-tenant QoS golden: weighted admission + batch preemption on an
# overloaded two-tenant bursty mix.
# ----------------------------------------------------------------------
#: Premium buys a tight SLO with most of the weight; economy tolerates
#: 2x latency and brings 3x the traffic. Offered rate is ~2x the fleet's
#: measured saturation throughput (~30.6k req/s at max_batch=4 on this
#: stub-cost mix), so somebody has to lose — the QoS machinery decides
#: who.
_PREMIUM = TenantClass("premium", slo_multiplier=1.0, weight=4.0, tier=0)
_ECONOMY = TenantClass("economy", slo_multiplier=2.0, weight=1.0, tier=1)


def tenant_trace():
    return generate_tenant_traffic(
        [(_PREMIUM, 0.25), (_ECONOMY, 0.75)],
        pattern="bursty", n_requests=240, rate_rps=60000.0, seed=42,
        resolution=(64, 64), slo_s=0.001)


def run_tenant_scenario(qos):
    trace = tenant_trace()
    if not qos:
        trace = [replace(r, tenant=DEFAULT_TENANT) for r in trace]
    return simulate_service(
        trace,
        ServeCluster(3, policy="pipeline-affinity"),
        cache=TraceCache(capacity=64,
                         compile_fn=lambda key: stub_program(key[1])),
        batcher=PipelineBatcher(max_batch=4),
        admission=make_admission_policy("weighted") if qos else None,
        preempt=qos,
    )


@dataclass(frozen=True)
class TenantGolden:
    p50_ms: float
    p95_ms: float
    p99_ms: float
    slo_attainment: float
    n_shed: int
    n_preempted: int


#: Frozen per-tenant-class numbers of the weighted+preempt run.
GOLDEN_TENANTS = {
    "premium": TenantGolden(
        p50_ms=0.220515196, p95_ms=0.939811125, p99_ms=1.178034294,
        slo_attainment=0.950000000, n_shed=0, n_preempted=0),
    "economy": TenantGolden(
        p50_ms=2.054679791, p95_ms=3.090003220, p99_ms=3.341555929,
        slo_attainment=0.457364341, n_shed=51, n_preempted=45),
}
GOLDEN_FAIRNESS = 0.600397238
GOLDEN_PREEMPTION_EVENTS = 17

#: Frozen per-class SLO attainment of the single-class admit-all
#: baseline (tenant tags stripped, latencies judged against each class's
#: real effective SLO by request id).
GOLDEN_BASELINE = {"premium": 0.200000000, "economy": 0.405555555556}


def baseline_attainment_by_class():
    tagged = tenant_trace()
    effective_slo = {r.request_id: r.effective_slo_s for r in tagged}
    tenant_of = {r.request_id: r.tenant.name for r in tagged}
    report = run_tenant_scenario(qos=False)
    met: dict[str, list[int]] = {}
    for response in report.responses:
        rid = response.request.request_id
        entry = met.setdefault(tenant_of[rid], [0, 0])
        entry[0] += response.latency_s <= effective_slo[rid]
        entry[1] += 1
    return {name: hits / n for name, (hits, n) in met.items()}


def test_tenant_numbers_are_frozen():
    report = run_tenant_scenario(qos=True)
    tenants = report.tenant_report()
    assert set(tenants) == set(GOLDEN_TENANTS)
    for name, golden in GOLDEN_TENANTS.items():
        e = tenants[name]
        assert e["latency_p50_ms"] == pytest.approx(golden.p50_ms, rel=1e-6)
        assert e["latency_p95_ms"] == pytest.approx(golden.p95_ms, rel=1e-6)
        assert e["latency_p99_ms"] == pytest.approx(golden.p99_ms, rel=1e-6)
        assert e["slo_attainment"] == pytest.approx(
            golden.slo_attainment, rel=1e-9)
        assert e["n_shed"] == golden.n_shed
        assert e["n_preempted"] == golden.n_preempted
    assert report.fairness_index == pytest.approx(GOLDEN_FAIRNESS, rel=1e-9)
    assert report.n_preemption_events == GOLDEN_PREEMPTION_EVENTS


def test_baseline_numbers_are_frozen():
    baseline = baseline_attainment_by_class()
    assert set(baseline) == set(GOLDEN_BASELINE)
    for name, golden in GOLDEN_BASELINE.items():
        assert baseline[name] == pytest.approx(golden, rel=1e-9)


def test_qos_holds_premium_slo_under_overload():
    # The acceptance headline: under ~2x-overload bursty traffic,
    # weighted admission + preemption holds premium-tenant SLO
    # attainment >= 90% while the single-class admit-all fleet drops
    # premium below 60% — economy absorbs the shedding.
    qos = run_tenant_scenario(qos=True).tenant_report()
    baseline = baseline_attainment_by_class()
    assert qos["premium"]["slo_attainment"] >= 0.90
    assert baseline["premium"] < 0.60
    assert qos["economy"]["n_shed"] > qos["premium"]["n_shed"]


# ----------------------------------------------------------------------
# Predictive serving goldens: forecast-led autoscaling on a diurnal
# wave, and warm-vs-cold restarts from a persistent trace library.
# ----------------------------------------------------------------------
#: Heavier stub frame costs (10x the scheduler scenario's) so that a
#: two-chip floor saturates around one third of the diurnal crest —
#: fleet sizing, not raw speed, decides SLO attainment.
_WAVE_MACS = {"hashgrid": 2e8, "gaussian": 1.6e9, "mesh": 4e8}


def wave_program(pipeline):
    program = MicroOpProgram(pipeline=pipeline, pixels=1024)
    program.append(
        MicroOp.GEMM,
        "mlp",
        gemm_workload(macs=_WAVE_MACS.get(pipeline, 5e8), rows=1e3,
                      in_width=32, out_width=4, weight_bytes=1e4),
    )
    return program


def wave_autoscaler(mode):
    from repro.serve import Autoscaler

    return Autoscaler(
        min_chips=2, max_chips=6, target_queue_per_chip=1.0,
        slo_target=0.95, window_s=0.25, warmup_s=0.15, cooldown_s=0.15,
        mode=mode, target_utilization=1.0, lead_s=0.0, shrink_margin=1.1,
    )


def run_wave_scenario(mode):
    """Two full diurnal periods at ~2x the floor fleet's capacity; both
    controllers share every constant except the forecast."""
    trace = generate_traffic(pattern="diurnal", n_requests=12000,
                             rate_rps=1500.0, seed=11, resolution=(64, 64),
                             slo_s=0.012)
    return simulate_service(
        trace,
        ServeCluster(2, policy="pipeline-affinity"),
        cache=TraceCache(capacity=64,
                         compile_fn=lambda key: wave_program(key[1])),
        batcher=PipelineBatcher(),
        autoscaler=wave_autoscaler(mode),
    )


@dataclass(frozen=True)
class PredictiveGolden:
    slo_attainment: float
    p50_ms: float
    p95_ms: float
    chip_seconds: float
    peak_fleet: int
    fleet_timeline: tuple


GOLDEN_WAVE = {
    "reactive": PredictiveGolden(
        slo_attainment=0.872666667,
        p50_ms=1.711154667,
        p95_ms=29.738834724,
        chip_seconds=21.735675464,
        peak_fleet=6,
        fleet_timeline=(
            (0.000000000, 2),
            (0.038397346, 3),
            (0.295316056, 2),
            (0.446142656, 3),
            (0.596142656, 4),
            (0.746142656, 5),
            (0.896142656, 6),
            (1.046147423, 5),
            (1.196185184, 4),
            (1.346636444, 3),
            (1.499273387, 2),
            (1.649431270, 3),
            (1.886372590, 2),
            (4.291174055, 3),
            (4.845884584, 2),
            (4.995931249, 3),
            (5.145931249, 4),
            (5.295931249, 5),
            (5.445931249, 6),
            (5.595931249, 5),
            (5.745973182, 4),
            (5.896040193, 3),
            (6.046893340, 2),
        )),
    "predictive": PredictiveGolden(
        slo_attainment=0.996083333,
        p50_ms=0.670224565,
        p95_ms=4.812028880,
        chip_seconds=21.435036712,
        peak_fleet=5,
        fleet_timeline=(
            (0.000000000, 2),
            (0.038397346, 3),
            (0.338441913, 4),
            (1.076839965, 3),
            (1.243392863, 4),
            (1.393466852, 3),
            (1.545749946, 2),
            (1.712846453, 3),
            (1.863284898, 2),
            (4.113562660, 3),
            (4.483023737, 4),
            (5.244204566, 5),
            (5.464528660, 4),
            (5.614550200, 3),
            (5.768165604, 2),
        )),
}


@pytest.mark.parametrize("mode", sorted(GOLDEN_WAVE))
def test_wave_numbers_are_frozen(mode):
    golden = GOLDEN_WAVE[mode]
    report = run_wave_scenario(mode)
    assert report.slo_attainment == pytest.approx(
        golden.slo_attainment, rel=1e-9)
    assert report.latency_p(50) * 1e3 == pytest.approx(golden.p50_ms, rel=1e-6)
    assert report.latency_p(95) * 1e3 == pytest.approx(golden.p95_ms, rel=1e-6)
    assert report.total_chip_seconds == pytest.approx(
        golden.chip_seconds, rel=1e-9)
    assert report.peak_fleet_size == golden.peak_fleet
    timeline = report.fleet_size_timeline
    assert len(timeline) == len(golden.fleet_timeline)
    for (t, n), (gt, gn) in zip(timeline, golden.fleet_timeline):
        assert t == pytest.approx(gt, abs=1e-6)
        assert n == gn


def test_predictive_leads_the_wave():
    # The acceptance headline: on the diurnal 2x-overload wave the
    # forecast-led controller strictly improves SLO attainment over the
    # reactive one at equal or lower provisioned chip-seconds (and a
    # lower peak fleet: it provisions on time instead of piling on
    # mid-crest).
    reactive = run_wave_scenario("reactive")
    predictive = run_wave_scenario("predictive")
    assert predictive.slo_attainment > reactive.slo_attainment
    assert predictive.total_chip_seconds <= reactive.total_chip_seconds
    assert predictive.latency_p(95) < reactive.latency_p(95)
    assert predictive.peak_fleet_size <= reactive.peak_fleet_size


# ----------------------------------------------------------------------
# Trace-library restart goldens.
# ----------------------------------------------------------------------
def run_library_storm(library):
    """The PR-3 bursty miss storm (12 cold scenes, async compile), now
    restartable: each call is one service process sharing ``library``."""
    from repro.core.config import CompileLatencyModel

    trace = generate_traffic(pattern="bursty", n_requests=120,
                             rate_rps=8000.0, seed=11, scenes=_STORM_SCENES,
                             resolution=(64, 64), slo_s=0.02)
    return simulate_service(
        trace,
        ServeCluster(2),
        cache=TraceCache(capacity=64,
                         compile_fn=lambda key: stub_program(key[1])),
        batcher=PipelineBatcher(),
        compile_workers=2,
        compile_latency=CompileLatencyModel(),
        trace_library=library,
    )


#: Frozen warm-vs-cold restart: (compile misses, warm-started entries,
#: mean queue wait ms, SLO attainment) per phase. The compile-miss
#: delta — 98 cold misses to zero — is the trace library's headline:
#: the restarted service's queue wait drops ~47x and SLO attainment
#: goes to 100% because nothing waits on a compile worker any more.
GOLDEN_RESTART = {
    "cold": (98, 0, 9.315754233, 0.916666667),
    "warm": (0, 35, 0.197851538, 1.000000000),
}


def test_restart_numbers_are_frozen():
    from repro.serve import TraceLibrary

    library = TraceLibrary()
    for phase in ("cold", "warm"):
        misses, warmed, queue_ms, slo = GOLDEN_RESTART[phase]
        report = run_library_storm(library)
        assert report.cache_stats["misses"] == misses
        assert report.cache_stats["warmed"] == warmed
        assert report.mean_queue_s * 1e3 == pytest.approx(queue_ms, rel=1e-6)
        assert report.slo_attainment == pytest.approx(slo, rel=1e-9)
    assert len(library) == 35


def test_warm_start_is_schedule_neutral_without_compile_latency():
    # The acceptance headline: in the default synchronous mode (compile
    # invisible to simulated time) a warm-started service reproduces
    # the cold-start ServiceReport byte for byte — only the cache
    # stats (hits/misses/warm-start counters) may differ.
    from repro.serve import TraceLibrary

    def one_run(library):
        trace = generate_traffic(pattern="bursty", n_requests=120,
                                 rate_rps=8000.0, seed=11,
                                 scenes=_STORM_SCENES, resolution=(64, 64),
                                 slo_s=0.02)
        return simulate_service(
            trace,
            ServeCluster(2),
            cache=TraceCache(capacity=64,
                             compile_fn=lambda key: stub_program(key[1])),
            batcher=PipelineBatcher(),
            trace_library=library,
        )

    library = TraceLibrary()
    cold = one_run(library).to_dict()
    warm = one_run(library).to_dict()
    cold_cache = cold.pop("cache")
    warm_cache = warm.pop("cache")
    assert warm == cold
    assert cold_cache["warmed"] == 0
    assert warm_cache["warmed"] > 0
    assert warm_cache["misses"] == 0


# ----------------------------------------------------------------------
# Chaos goldens: the ext_chaos storm (permanent chip loss + straggler
# window) replayed clean / naive / chaos-hardened, frozen arm by arm.
# ----------------------------------------------------------------------
#: The scenario is imported from the analysis experiment itself so the
#: goldens pin exactly what ``repro report ext_chaos`` prints: one
#: deterministic bursty trace, chip 0 lost for good a quarter in, chip 1
#: straggling at 8x for most of the rest, 2 ms rollback per retry.
from repro.analysis.chaos import (   # noqa: E402
    CHAOS_HEDGE,
    CHAOS_WORKLOAD,
    _autoscaler as chaos_autoscaler,
    _run as chaos_run,
    chaos_plan,
)
from repro.serve import FaultPlan, StragglerWindow, generate_traffic as _gen  # noqa: E402


def run_chaos_arm(arm):
    trace = _gen(**CHAOS_WORKLOAD)
    plan = chaos_plan(max(r.arrival_s for r in trace))
    if arm == "clean":
        return chaos_run(trace)
    if arm == "naive":
        return chaos_run(trace, faults=plan)
    return chaos_run(trace, faults=plan, hedge=CHAOS_HEDGE,
                     autoscaler=chaos_autoscaler())


@dataclass(frozen=True)
class ChaosGolden:
    slo_attainment: float
    p50_ms: float
    p99_ms: float
    availability: float
    n_requeued: int
    n_hedge_won: int
    peak_fleet: int


GOLDEN_CHAOS = {
    "clean": ChaosGolden(
        slo_attainment=0.7291666666667, p50_ms=28.437346686,
        p99_ms=115.013130671, availability=1.000000000,
        n_requeued=0, n_hedge_won=0, peak_fleet=3),
    "naive": ChaosGolden(
        slo_attainment=0.2208333333333, p50_ms=144.438033567,
        p99_ms=460.568908117, availability=0.732422749,
        n_requeued=3, n_hedge_won=0, peak_fleet=3),
    "hardened": ChaosGolden(
        slo_attainment=0.862500000, p50_ms=22.893048503,
        p99_ms=118.771989129, availability=0.974549592,
        n_requeued=0, n_hedge_won=43, peak_fleet=9),
}


@pytest.mark.parametrize("arm", sorted(GOLDEN_CHAOS))
def test_chaos_numbers_are_frozen(arm):
    golden = GOLDEN_CHAOS[arm]
    report = run_chaos_arm(arm)
    assert report.slo_attainment == pytest.approx(
        golden.slo_attainment, rel=1e-9)
    assert report.latency_p(50) * 1e3 == pytest.approx(golden.p50_ms, rel=1e-6)
    assert report.latency_p(99) * 1e3 == pytest.approx(golden.p99_ms, rel=1e-6)
    assert report.fleet_availability == pytest.approx(
        golden.availability, rel=1e-9)
    assert report.n_requeued == golden.n_requeued
    assert report.n_hedge_won == golden.n_hedge_won
    assert report.peak_fleet_size == golden.peak_fleet
    # Conservation closes on every arm, chaos or not.
    assert report.n_offered == (report.n_requests + report.n_shed
                                + report.n_failed)


def test_hedging_recovers_the_slo_cliff():
    # The acceptance headline: on the chip-loss storm, hedging plus
    # fault-aware autoscaling wins back >= 20 SLO points over the naive
    # engine (the frozen numbers above say 64), at an availability the
    # naive fleet cannot reach because it never replaces the dead chip.
    naive = run_chaos_arm("naive")
    hardened = run_chaos_arm("hardened")
    assert (hardened.slo_attainment - naive.slo_attainment) >= 0.20
    assert hardened.fleet_availability > naive.fleet_availability
    assert hardened.hedge_stats["n_wins"] > 0


# ----------------------------------------------------------------------
# Straggler-heavy fleet golden: the bursty scheduler scenario with two
# of three chips dilated (6x and 3x) for the whole run — the tail moves
# almost 3x while the schedule stays deterministic.
# ----------------------------------------------------------------------
_STRAGGLER_PLAN = FaultPlan(stragglers=[
    StragglerWindow(0, 0.0, 1.0, 6.0),
    StragglerWindow(1, 0.0, 1.0, 3.0),
])

GOLDEN_STRAGGLER = {
    # (p99 ms, SLO attainment); None == fault-free reference.
    None: (1.428536610, 0.7833333333333),
    _STRAGGLER_PLAN: (4.013006559, 0.4833333333333),
}


@pytest.mark.parametrize("plan", GOLDEN_STRAGGLER, ids=["base", "straggler"])
def test_straggler_numbers_are_frozen(plan):
    p99_ms, slo = GOLDEN_STRAGGLER[plan]
    trace = _gen(pattern="bursty", n_requests=60, rate_rps=12000.0, seed=42,
                 resolution=(64, 64), slo_s=0.0005)
    report = simulate_service(
        trace,
        ServeCluster(3),
        cache=TraceCache(capacity=64,
                         compile_fn=lambda key: stub_program(key[1])),
        batcher=PipelineBatcher(),
        faults=plan,
    )
    assert report.latency_p(99) * 1e3 == pytest.approx(p99_ms, rel=1e-6)
    assert report.slo_attainment == pytest.approx(slo, rel=1e-9)


def test_empty_fault_plan_is_schedule_neutral():
    # An attached-but-empty FaultPlan must reproduce the fault-free
    # golden scenario byte for byte — the engine normalizes it away.
    import json

    def one_run(faults):
        return run_scenario("bursty", "cost-aware") if faults is None else \
            simulate_service(
                _gen(pattern="bursty", n_requests=60, rate_rps=12000.0,
                     seed=42, resolution=(64, 64), slo_s=0.0005),
                ServeCluster(3, policy="cost-aware"),
                cache=TraceCache(capacity=64,
                                 compile_fn=lambda key: stub_program(key[1])),
                batcher=PipelineBatcher(),
                faults=faults,
            )

    bare = json.dumps(one_run(None).to_dict(), sort_keys=True)
    attached = json.dumps(one_run(FaultPlan()).to_dict(), sort_keys=True)
    assert bare == attached
