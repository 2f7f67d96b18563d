"""Perf smoke of the event engine: requests simulated per wall second.

The north star demands simulations fast enough to replay
millions-of-user traffic, so this benchmark pins a floor on the
engine's simulation rate at 100k requests of overload-grade bursty
traffic (deep queues, full batches) — the regime where the pre-engine
scheduler went quadratic in queue depth.

Measured perf trajectory (development machines differ; each run
records its numbers in ``benchmarks/results/BENCH_engine.json``):

* pre-engine scheduler (PR 2): ~8.2k req/s at 50k requests, ~4k req/s
  extrapolated at 100k (scan-the-queue batching, O(pending) admission
  projections, window rebuilds per controller tick);
* event engine (PR 3): ~75k req/s at 100k requests;
* columnar engine (PR 8): arrivals batch-ingested from sorted NumPy
  columns, per-pipeline index lanes, no per-arrival heap ops — ~176k
  req/s measured on a 1-core CI-grade box, with the *scalar* loop
  itself up ~2.4x from the arrival-array change;
* columnar everywhere: batched trace-cache windows (``get_many``),
  vectorized chip-score lanes, and per-tier pending lanes;
* one loop (this floor): the columnar twin is gone. The general loop
  keeps per-(tier, pipeline) pending lanes and a cached active-chip
  list, ingests arrival windows while every chip is busy, finds price
  tables by config identity, and builds responses positionally —
  ~120-220k req/s on a shared 2-core host, at or above the deleted
  twin's rate on the same host.

Floors assert with CI headroom; dropping below one means the hot path
regressed structurally, not that a machine is merely slow. The bare,
strict-tier QoS and disabled-observer runs anchor to ``FLOOR_RPS``;
the feature-heavy modes (weighted admission/preempt, faults, hedging,
autoscaling, an attached observer) anchor to ``SCALAR_FLOOR_RPS``.
"""

import time

from repro.serve import (
    PipelineBatcher,
    ServeCluster,
    TenantClass,
    TraceCache,
    generate_tenant_traffic,
    generate_traffic,
    make_admission_policy,
    simulate_service,
)
# The canonical synthetic per-pipeline frame costs shared by the
# scheduler test suites (identical costs keep the regimes comparable).
from tests.test_serve_invariants import stub_program

#: Requests in the smoke run and the asserted simulation-rate floor.
N_REQUESTS = 100_000
#: The engine simulates this scenario at ~120-220k req/s on a shared
#: 2-core host; the floor asserts >= 90k (1.5x the first arrival-column
#: floor) with CI headroom.
FLOOR_RPS = 90_000.0
#: The base of the feature-heavy floors (preemption, full tracing,
#: fault injection): the loop's floor from before arrival arrays, kept
#: as the anchor those floors scale.
SCALAR_FLOOR_RPS = 20_000.0


def run_overload():
    trace = generate_traffic(
        "bursty", n_requests=N_REQUESTS, rate_rps=60_000.0, seed=42,
        resolution=(64, 64), slo_s=0.0005,
    )
    began = time.perf_counter()
    report = simulate_service(
        trace,
        ServeCluster(2),
        cache=TraceCache(capacity=64,
                         compile_fn=lambda key: stub_program(key[1])),
        batcher=PipelineBatcher(),
    )
    elapsed = time.perf_counter() - began
    return report, N_REQUESTS / elapsed


def test_engine_simulation_rate_floor(benchmark, save_text, record_bench):
    report, rate = benchmark.pedantic(run_overload, rounds=1, iterations=1)
    save_text(
        "engine_perf",
        f"simulated {N_REQUESTS} requests at {rate:,.0f} req/s "
        f"(floor {FLOOR_RPS:,.0f}); mean batch {report.mean_batch_size:.2f}, "
        f"throughput {report.throughput_rps:,.0f} sim-req/s",
    )
    record_bench("bare", rate, FLOOR_RPS, N_REQUESTS)
    # The workload really exercised the hot path: deep queues, full
    # batches, every request served.
    assert report.n_requests == N_REQUESTS
    assert report.mean_batch_size > 6.0
    # The floor itself: 1.5x the PR 8 floor, with CI headroom.
    assert rate >= FLOOR_RPS, (
        f"engine simulated only {rate:,.0f} req/s "
        f"(floor {FLOOR_RPS:,.0f}) — the event loop's hot path has "
        f"regressed"
    )


# ----------------------------------------------------------------------
# Multi-tenant QoS paths. Strict-tier dispatch (tiers only — no
# weighted budgets, no preemption) rides the per-(tier, pipeline)
# pending lanes, so it anchors to the bare floor with a 20%
# lane-bookkeeping allowance. The *full* machinery (weighted
# admission, dispatch-ahead staging, preemption) anchors to the
# feature floor: no more than 10% below it.
# ----------------------------------------------------------------------
QOS_COLUMNAR_FLOOR_RPS = FLOOR_RPS * 0.8
PREEMPT_FLOOR_RPS = SCALAR_FLOOR_RPS * 0.9


def run_tier_overload():
    premium = TenantClass("premium", slo_multiplier=1.0, tier=0)
    economy = TenantClass("economy", slo_multiplier=2.0, tier=1)
    trace = generate_tenant_traffic(
        [(premium, 0.25), (economy, 0.75)],
        pattern="bursty", n_requests=N_REQUESTS, rate_rps=60_000.0, seed=42,
        resolution=(64, 64), slo_s=0.0005,
    )
    began = time.perf_counter()
    report = simulate_service(
        trace,
        ServeCluster(2),
        cache=TraceCache(capacity=64,
                         compile_fn=lambda key: stub_program(key[1])),
        batcher=PipelineBatcher(),
    )
    elapsed = time.perf_counter() - began
    return report, N_REQUESTS / elapsed


def test_qos_columnar_rate_floor(benchmark, save_text, record_bench):
    report, rate = benchmark.pedantic(run_tier_overload, rounds=1,
                                      iterations=1)
    save_text(
        "engine_perf_qos_columnar",
        f"simulated {N_REQUESTS} strict-tier two-tenant requests at "
        f"{rate:,.0f} req/s (floor {QOS_COLUMNAR_FLOOR_RPS:,.0f})",
    )
    record_bench("qos_columnar", rate, QOS_COLUMNAR_FLOOR_RPS, N_REQUESTS)
    # Both tiers really flowed through the tier lanes.
    assert len(report.tenant_report()) == 2
    assert not report.preempt_enabled
    # No more than 20% below the bare floor.
    assert rate >= QOS_COLUMNAR_FLOOR_RPS, (
        f"strict-tier QoS path simulated only {rate:,.0f} req/s "
        f"(floor {QOS_COLUMNAR_FLOOR_RPS:,.0f}) — the per-tier pending "
        f"lanes have regressed the hot path"
    )


def run_tenant_overload():
    premium = TenantClass("premium", slo_multiplier=1.0, weight=4.0, tier=0)
    economy = TenantClass("economy", slo_multiplier=2.0, weight=1.0, tier=1)
    trace = generate_tenant_traffic(
        [(premium, 0.25), (economy, 0.75)],
        pattern="bursty", n_requests=N_REQUESTS, rate_rps=60_000.0, seed=42,
        resolution=(64, 64), slo_s=0.0005,
    )
    began = time.perf_counter()
    report = simulate_service(
        trace,
        ServeCluster(2),
        cache=TraceCache(capacity=64,
                         compile_fn=lambda key: stub_program(key[1])),
        batcher=PipelineBatcher(),
        admission=make_admission_policy("weighted"),
        preempt=True,
    )
    elapsed = time.perf_counter() - began
    return report, N_REQUESTS / elapsed


def test_preemption_path_rate_floor(benchmark, save_text, record_bench):
    report, rate = benchmark.pedantic(run_tenant_overload, rounds=1,
                                      iterations=1)
    save_text(
        "engine_perf_tenants",
        f"simulated {N_REQUESTS} two-tenant requests at {rate:,.0f} req/s "
        f"(floor {PREEMPT_FLOOR_RPS:,.0f}); "
        f"{report.n_preemption_events} preemption events, "
        f"shed rate {report.shed_rate:.3f}",
    )
    record_bench("qos_preempt", rate, PREEMPT_FLOOR_RPS, N_REQUESTS)
    # The QoS machinery really engaged on this run.
    assert report.preempt_enabled
    assert len(report.tenant_report()) == 2
    # No more than 10% below the feature floor.
    assert rate >= PREEMPT_FLOOR_RPS, (
        f"QoS path simulated only {rate:,.0f} req/s "
        f"(floor {PREEMPT_FLOOR_RPS:,.0f}) — tier dispatch, weighted "
        f"admission, or staging has regressed the hot path"
    )


# ----------------------------------------------------------------------
# Autoscaled paths: the controller ticks at every engine decision
# point, so fleet elasticity is hot-path code. The predictive mode adds
# an arrival feed, an EWMA trend fit, and a desired-fleet projection on
# top of the reactive controller — forecasting must never become a
# hot-path tax, so its floor is pinned at >= 0.9x the reactive-
# autoscaler floor (mirroring the QoS floor's 10% allowance).
# ----------------------------------------------------------------------
AUTOSCALE_FLOOR_RPS = 12_000.0
PREDICTIVE_FLOOR_RPS = AUTOSCALE_FLOOR_RPS * 0.9


def run_autoscaled_overload(mode):
    from repro.serve import Autoscaler

    trace = generate_traffic(
        "bursty", n_requests=N_REQUESTS, rate_rps=60_000.0, seed=42,
        resolution=(64, 64), slo_s=0.0005,
    )
    scaler = Autoscaler(
        min_chips=2, max_chips=6, target_queue_per_chip=4.0,
        slo_target=0.95, window_s=0.05, warmup_s=0.002, cooldown_s=0.01,
        mode=mode,
    )
    began = time.perf_counter()
    report = simulate_service(
        trace,
        ServeCluster(2),
        cache=TraceCache(capacity=64,
                         compile_fn=lambda key: stub_program(key[1])),
        batcher=PipelineBatcher(),
        autoscaler=scaler,
    )
    elapsed = time.perf_counter() - began
    return report, N_REQUESTS / elapsed


def test_reactive_autoscaler_rate_floor(benchmark, save_text, record_bench):
    report, rate = benchmark.pedantic(
        lambda: run_autoscaled_overload("reactive"), rounds=1, iterations=1)
    save_text(
        "engine_perf_autoscaled",
        f"simulated {N_REQUESTS} autoscaled requests at {rate:,.0f} req/s "
        f"(floor {AUTOSCALE_FLOOR_RPS:,.0f}); peak fleet "
        f"{report.peak_fleet_size}, {len(report.fleet_events)} flex events",
    )
    record_bench("autoscale_reactive", rate, AUTOSCALE_FLOOR_RPS, N_REQUESTS)
    assert report.autoscaled and report.peak_fleet_size > 2
    assert rate >= AUTOSCALE_FLOOR_RPS, (
        f"reactive-autoscaled engine simulated only {rate:,.0f} req/s "
        f"(floor {AUTOSCALE_FLOOR_RPS:,.0f}) — the controller tick has "
        f"regressed the hot path"
    )


def test_predictive_autoscaler_rate_floor(benchmark, save_text, record_bench):
    report, rate = benchmark.pedantic(
        lambda: run_autoscaled_overload("predictive"), rounds=1, iterations=1)
    save_text(
        "engine_perf_predictive",
        f"simulated {N_REQUESTS} forecast-autoscaled requests at "
        f"{rate:,.0f} req/s (floor {PREDICTIVE_FLOOR_RPS:,.0f}); peak fleet "
        f"{report.peak_fleet_size}, {len(report.fleet_events)} flex events",
    )
    record_bench("autoscale_predictive", rate, PREDICTIVE_FLOOR_RPS,
                 N_REQUESTS)
    assert report.autoscaled and report.peak_fleet_size > 2
    # No more than 10% below the reactive-autoscaler floor.
    assert rate >= PREDICTIVE_FLOOR_RPS, (
        f"predictive-autoscaled engine simulated only {rate:,.0f} req/s "
        f"(floor {PREDICTIVE_FLOOR_RPS:,.0f}) — the forecast (arrival feed, "
        f"trend fit, desired-fleet projection) has become a hot-path tax"
    )


# ----------------------------------------------------------------------
# Observability floors: the obs hooks live on the same hot path, so two
# floors pin their cost. Disabled means *absent* — a sink-less observer
# normalizes to None, so the run is a bare run and must hold >= 0.97x
# the bare floor (the loop must not reintroduce per-event observer
# overhead). Full tracing (ring-buffer tracer + metrics registry +
# flight recorder, sample 1.0) runs the loop's inline hooks; the sinks'
# per-event Python dominates, so the floor is half the feature floor.
# ----------------------------------------------------------------------
OBS_DISABLED_FLOOR_RPS = FLOOR_RPS * 0.97
OBS_ENABLED_FLOOR_RPS = SCALAR_FLOOR_RPS * 0.5


def run_observed_overload(observer):
    trace = generate_traffic(
        "bursty", n_requests=N_REQUESTS, rate_rps=60_000.0, seed=42,
        resolution=(64, 64), slo_s=0.0005,
    )
    began = time.perf_counter()
    report = simulate_service(
        trace,
        ServeCluster(2),
        cache=TraceCache(capacity=64,
                         compile_fn=lambda key: stub_program(key[1])),
        batcher=PipelineBatcher(),
        observer=observer,
    )
    elapsed = time.perf_counter() - began
    return report, N_REQUESTS / elapsed


def test_disabled_observer_rate_floor(benchmark, save_text, record_bench):
    from repro.obs import Observer

    # No sinks: resolve_observer() normalizes this to None inside the
    # engine, so the run measures exactly the disabled-path guards.
    report, rate = benchmark.pedantic(
        lambda: run_observed_overload(Observer()), rounds=1, iterations=1)
    save_text(
        "engine_perf_obs_disabled",
        f"simulated {N_REQUESTS} requests with a disabled observer at "
        f"{rate:,.0f} req/s (floor {OBS_DISABLED_FLOOR_RPS:,.0f})",
    )
    record_bench("obs_disabled", rate, OBS_DISABLED_FLOOR_RPS, N_REQUESTS)
    assert report.n_requests == N_REQUESTS
    assert rate >= OBS_DISABLED_FLOOR_RPS, (
        f"disabled-observer run simulated only {rate:,.0f} req/s "
        f"(floor {OBS_DISABLED_FLOOR_RPS:,.0f}) — the is-not-None guards "
        f"have grown into real hot-path work"
    )


def test_full_tracing_rate_floor(benchmark, save_text, record_bench):
    from repro.obs import FlightRecorder, MetricsRegistry, Observer, Tracer

    def run():
        return run_observed_overload(Observer(
            tracer=Tracer(capacity=65536, sample=1.0),
            metrics=MetricsRegistry(),
            flight=FlightRecorder(),
        ))

    report, rate = benchmark.pedantic(run, rounds=1, iterations=1)
    save_text(
        "engine_perf_obs_enabled",
        f"simulated {N_REQUESTS} fully traced requests at {rate:,.0f} "
        f"req/s (floor {OBS_ENABLED_FLOOR_RPS:,.0f})",
    )
    record_bench("obs_full_tracing", rate, OBS_ENABLED_FLOOR_RPS, N_REQUESTS)
    assert report.n_requests == N_REQUESTS
    assert rate >= OBS_ENABLED_FLOOR_RPS, (
        f"fully traced run simulated only {rate:,.0f} req/s "
        f"(floor {OBS_ENABLED_FLOOR_RPS:,.0f}) — the observer hooks have "
        f"grown past half the feature floor"
    )


# ----------------------------------------------------------------------
# Chaos path: a fault plan puts a crash probe, a straggler-window
# lookup, and a speed-EWMA update on every dispatched frame, so fault
# injection is hot-path code too. An active plan (two straggler windows
# spanning the whole run plus one mid-run recoverable crash) must hold
# >= 0.8x the feature floor — below that, the per-frame fault checks
# have outgrown their dictionary-lookup budget.
# ----------------------------------------------------------------------
FAULT_FLOOR_RPS = SCALAR_FLOOR_RPS * 0.8


def run_faulted_overload():
    from repro.serve import ChipCrash, FaultPlan, StragglerWindow

    trace = generate_traffic(
        "bursty", n_requests=N_REQUESTS, rate_rps=60_000.0, seed=42,
        resolution=(64, 64), slo_s=0.0005,
    )
    horizon = max(r.arrival_s for r in trace)
    plan = FaultPlan(
        crashes=[ChipCrash(0, horizon * 0.4, horizon * 0.1)],
        stragglers=[StragglerWindow(0, 0.0, horizon, 1.5),
                    StragglerWindow(1, 0.0, horizon, 2.0)],
        rollback_s=0.0001,
    )
    began = time.perf_counter()
    report = simulate_service(
        trace,
        ServeCluster(2),
        cache=TraceCache(capacity=64,
                         compile_fn=lambda key: stub_program(key[1])),
        batcher=PipelineBatcher(),
        faults=plan,
    )
    elapsed = time.perf_counter() - began
    return report, N_REQUESTS / elapsed


def test_fault_injection_rate_floor(benchmark, save_text, record_bench):
    report, rate = benchmark.pedantic(run_faulted_overload, rounds=1,
                                      iterations=1)
    save_text(
        "engine_perf_faults",
        f"simulated {N_REQUESTS} requests under an active fault plan at "
        f"{rate:,.0f} req/s (floor {FAULT_FLOOR_RPS:,.0f}); "
        f"{report.fault_stats['n_crashes']} crashes, "
        f"{report.fault_stats['n_requeued']} frames re-queued",
    )
    record_bench("fault_injection", rate, FAULT_FLOOR_RPS, N_REQUESTS)
    # The plan really engaged: the crash fired and stragglers dilated.
    assert report.fault_stats["n_crashes"] == 1
    assert report.fleet_availability < 1.0
    # No more than 20% below the feature floor.
    assert rate >= FAULT_FLOOR_RPS, (
        f"faulted engine simulated only {rate:,.0f} req/s "
        f"(floor {FAULT_FLOOR_RPS:,.0f}) — per-frame fault checks have "
        f"regressed the hot path"
    )


# ----------------------------------------------------------------------
# Federation path: the planet-scale loop slices the workload into sync
# epochs, routes every arrival through the scored global router, runs
# each region's slice on a fresh fleet against its persistent cache,
# and gossips trace-library deltas at every epoch boundary. All of that
# is per-request or per-epoch bookkeeping on top of the engine, so the
# federated planet must still clear a hard floor — below it, the
# router, the epoch slicing, or the gossip plane has gone quadratic.
# Measured ~20k req/s on a 1-core box at 30k requests across three
# regions (17 epochs, 86 gossip messages); the floor asserts 8k.
# ----------------------------------------------------------------------
FEDERATION_N_PER_REGION = 10_000
FEDERATION_FLOOR_RPS = 8_000.0


def run_federated_planet():
    from repro.serve import (
        FederationConfig,
        generate_federation_traffic,
        parse_region_spec,
        simulate_federation,
    )

    specs = parse_region_spec(
        "us-east:tz=-5,chips=3;eu-west:tz=1,chips=3;ap-tokyo:tz=9,chips=3")
    streams = generate_federation_traffic(
        specs, n_requests_per_region=FEDERATION_N_PER_REGION,
        rate_rps=2000.0, seed=42, pattern="bursty",
        resolution=(64, 64), slo_s=0.02,
    )
    n_offered = sum(len(stream) for stream in streams.values())
    began = time.perf_counter()
    report = simulate_federation(
        specs, streams, config=FederationConfig(),
        compile_fn=lambda key: stub_program(key[1]),
    )
    elapsed = time.perf_counter() - began
    return report, n_offered / elapsed


def test_federation_rate_floor(benchmark, save_text, record_bench):
    report, rate = benchmark.pedantic(run_federated_planet, rounds=1,
                                      iterations=1)
    n_offered = 3 * FEDERATION_N_PER_REGION
    save_text(
        "engine_perf_federation",
        f"simulated {n_offered} requests across 3 federated regions at "
        f"{rate:,.0f} req/s (floor {FEDERATION_FLOOR_RPS:,.0f}); "
        f"{report.n_epochs} sync epochs, "
        f"{report.gossip_stats['messages']} gossip messages",
    )
    record_bench("federation", rate, FEDERATION_FLOOR_RPS, n_offered)
    # The planet really federated: every request served, gossip flowed,
    # and the ledger closed.
    assert report.n_offered == n_offered
    assert report.n_offered == (report.n_requests + report.n_shed
                                + report.n_failed)
    assert report.gossip_stats["messages"] > 0
    assert rate >= FEDERATION_FLOOR_RPS, (
        f"federation simulated only {rate:,.0f} req/s "
        f"(floor {FEDERATION_FLOOR_RPS:,.0f}) — the router, epoch "
        f"slicing, or gossip plane has regressed"
    )
