"""Observer neutrality: instrumentation must never move a number.

Every scenario here runs twice — bare, and under a full observer
(tracer + metrics + flight recorder, sample 1.0) — and asserts the two
``ServiceReport.to_dict()`` payloads are *byte-identical* once
serialized. The frozen golden scenarios double as the fixture: if an
observer hook ever perturbs admission, batching, dispatch, compile
scheduling, or autoscaling, the goldens themselves would catch the
drift in absolute terms and this suite pinpoints the observer as the
cause.
"""

import json

import pytest

from repro.obs import FlightRecorder, MetricsRegistry, Observer, Tracer
from repro.serve import (
    Autoscaler,
    PipelineBatcher,
    ServeCluster,
    TraceCache,
    generate_traffic,
    make_admission_policy,
    simulate_service,
)
from tests.test_serve_golden import stub_program


def full_observer(sample=1.0):
    return Observer(
        tracer=Tracer(sample=sample),
        metrics=MetricsRegistry(),
        flight=FlightRecorder(),
    )


def serialized(report):
    return json.dumps(report.to_dict(), sort_keys=True)


def golden_run(pattern, policy, observer=None):
    # Mirrors tests/test_serve_golden.py::run_scenario plus the observer.
    trace = generate_traffic(pattern=pattern, n_requests=60, rate_rps=12000.0,
                             seed=42, resolution=(64, 64), slo_s=0.0005)
    return simulate_service(
        trace,
        ServeCluster(3, policy=policy),
        cache=TraceCache(capacity=64,
                         compile_fn=lambda key: stub_program(key[1])),
        batcher=PipelineBatcher(),
        observer=observer,
    )


class TestGoldenScenarioNeutrality:
    @pytest.mark.parametrize("pattern", ["steady", "bursty"])
    @pytest.mark.parametrize("policy", ["round-robin", "pipeline-affinity",
                                        "cost-aware"])
    def test_report_byte_identical_with_full_observer(self, pattern, policy):
        bare = serialized(golden_run(pattern, policy))
        observed = serialized(golden_run(pattern, policy, full_observer()))
        assert bare == observed

    def test_report_byte_identical_under_sampling(self):
        bare = serialized(golden_run("bursty", "pipeline-affinity"))
        observed = serialized(
            golden_run("bursty", "pipeline-affinity", full_observer(0.25)))
        assert bare == observed

    def test_observer_via_cluster_is_equivalent(self):
        direct = golden_run("bursty", "round-robin", full_observer())
        trace = generate_traffic(pattern="bursty", n_requests=60,
                                 rate_rps=12000.0, seed=42,
                                 resolution=(64, 64), slo_s=0.0005)
        via_cluster = simulate_service(
            trace,
            ServeCluster(3, policy="round-robin", observer=full_observer()),
            cache=TraceCache(capacity=64,
                             compile_fn=lambda key: stub_program(key[1])),
            batcher=PipelineBatcher(),
        )
        assert serialized(direct) == serialized(via_cluster)


class TestHardScenarioNeutrality:
    """The paths with the most observer hooks: shed storms under an
    autoscaler, and the async compile pool with prefetch."""

    def run_elastic(self, observer=None):
        trace = generate_traffic("bursty", n_requests=120, rate_rps=20000.0,
                                 seed=7, resolution=(64, 64), slo_s=0.0005)
        return simulate_service(
            trace,
            ServeCluster(1, policy="least-loaded"),
            cache=TraceCache(capacity=64,
                             compile_fn=lambda key: stub_program(key[1])),
            batcher=PipelineBatcher(),
            autoscaler=Autoscaler(min_chips=1, max_chips=4, window_s=0.005,
                                  warmup_s=0.0005, cooldown_s=0.001),
            admission=make_admission_policy("slo-shed"),
            observer=observer,
        )

    def run_compile_pool(self, observer=None):
        trace = generate_traffic("bursty", n_requests=120, rate_rps=20000.0,
                                 seed=7, resolution=(64, 64), slo_s=0.0005)
        return simulate_service(
            trace,
            ServeCluster(2),
            cache=TraceCache(capacity=64,
                             compile_fn=lambda key: stub_program(key[1])),
            batcher=PipelineBatcher(),
            compile_workers=2,
            prefetch=True,
            observer=observer,
        )

    def test_autoscaled_shed_storm_is_neutral(self):
        bare = self.run_elastic()
        observed = self.run_elastic(full_observer())
        assert bare.n_shed > 0          # the storm actually happened
        assert serialized(bare) == serialized(observed)

    def test_compile_pool_with_prefetch_is_neutral(self):
        bare = self.run_compile_pool()
        observed = self.run_compile_pool(full_observer())
        assert serialized(bare) == serialized(observed)

    def test_sinkless_observer_resolves_to_nothing(self):
        # Observer() with no sinks is the disabled path — identical by
        # construction, asserted anyway as the contract.
        bare = self.run_compile_pool()
        observed = self.run_compile_pool(Observer())
        assert serialized(bare) == serialized(observed)


class TestChaosNeutrality:
    """Fault and hedging hooks (on_crash / on_recover / on_hedge /
    on_hedge_settle, plus the flight recorder's chip-crash trigger) are
    the newest observer surface; a crash-recovery run with hedging must
    stay byte-identical observed or not."""

    def run_chaos(self, observer=None):
        from repro.serve import ChipCrash, FaultPlan, HedgePolicy, \
            StragglerWindow

        trace = generate_traffic("bursty", n_requests=80, rate_rps=8000.0,
                                 seed=9, resolution=(64, 64), slo_s=0.002)
        horizon = max(r.arrival_s for r in trace)
        plan = FaultPlan(
            crashes=[ChipCrash(0, horizon * 0.3, horizon * 0.4),
                     ChipCrash(2, horizon * 0.6, None)],
            stragglers=[StragglerWindow(1, 0.0, horizon, 4.0)],
            rollback_s=0.0005,
        )
        return simulate_service(
            trace,
            ServeCluster(3),
            cache=TraceCache(capacity=64,
                             compile_fn=lambda key: stub_program(key[1])),
            batcher=PipelineBatcher(),
            faults=plan,
            hedge=HedgePolicy(quantile=0.5, min_samples=8, window=64),
            observer=observer,
        )

    def test_crash_recovery_run_is_neutral(self):
        bare = self.run_chaos()
        observer = full_observer()
        observed = self.run_chaos(observer)
        # The scenario really exercised the chaos hooks...
        assert bare.fault_stats["n_crashes"] == 2
        assert bare.fault_stats["n_recoveries"] == 1
        assert bare.hedge_stats["n_hedged"] > 0
        # ...the flight recorder caught the crashes...
        assert observer.flight is not None
        reasons = [d["reason"] for d in observer.flight.dumps]
        assert any(r.startswith("chip-crash") for r in reasons)
        # ...and none of it moved a single number.
        assert serialized(bare) == serialized(observed)


class TestSharedCacheMetrics:
    """A cache shared across runs must stop counting into an observed
    run's registry once that run ends: a later unobserved run on the
    same cache leaves the finished run's metrics untouched."""

    def test_later_run_does_not_count_into_finished_registry(self):
        trace = generate_traffic("bursty", n_requests=100, rate_rps=4000.0,
                                 seed=3, resolution=(64, 64), slo_s=0.002)
        cache = TraceCache(capacity=4,
                           compile_fn=lambda key: stub_program(key[1]))
        observer = full_observer()
        simulate_service(trace, ServeCluster(2), cache=cache,
                         batcher=PipelineBatcher(), observer=observer)
        metrics = observer.metrics
        names = ("cache.hits", "cache.misses", "cache.evictions")
        before = {name: metrics.counter(name).value for name in names}
        assert before["cache.hits"] > 0
        simulate_service(trace, ServeCluster(2), cache=cache,
                         batcher=PipelineBatcher())
        assert cache.stats.hits > before["cache.hits"]
        assert {name: metrics.counter(name).value for name in names} == before
