"""Report aggregation: one pass over the responses, whatever the fleet.

Every per-response figure of a :class:`ServiceReport` (and of a
:class:`FederationReport`) comes from one cached summary, so formatting,
exporting and publishing a report walks its responses once — the same
for a 4-chip run as for an autoscaled run that provisioned 100+ chips.
The counts here are iteration counts, not timings, so the checks are
deterministic. Also covers the caching contract (repeatable exports,
callers cannot edit the cache) and the engine's own request ledger.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.core.config import CompileLatencyModel
from repro.errors import SimulationError
from repro.obs import MetricsRegistry
from repro.serve import (
    FaultPlan,
    FederationConfig,
    FederationPlan,
    PipelineBatcher,
    ServeCluster,
    TenantClass,
    TraceCache,
    format_federation_report,
    format_service_report,
    generate_federation_traffic,
    generate_tenant_traffic,
    generate_traffic,
    latency_percentile,
    make_admission_policy,
    parse_region_spec,
    publish_report,
    simulate_federation,
    simulate_service,
)
from repro.serve.autoscaler import Autoscaler
from repro.serve.engine import EventEngine
from repro.serve.metrics import service_figures
from tests.test_obs_neutrality import full_observer
from tests.test_serve_invariants import stub_program


class CountingList(list):
    """A list that counts how often it is iterated."""

    def __init__(self, items) -> None:
        super().__init__(items)
        self.iterations = 0

    def __iter__(self):
        self.iterations += 1
        return super().__iter__()


def stub_cache(capacity=64, compile_fn=None):
    return TraceCache(
        capacity=capacity,
        compile_fn=compile_fn or (lambda key: stub_program(key[1])))


def static_run():
    trace = generate_traffic("bursty", n_requests=400, rate_rps=1500.0,
                             seed=3, scenes=("lego", "room"),
                             resolution=(64, 64), slo_s=0.01)
    return simulate_service(trace, ServeCluster(4), cache=stub_cache())


def autoscaled_run():
    # Fast cooldowns over repeated bursts: the fleet grows and drains
    # again and again, so the report carries 100+ provisioned chips.
    trace = generate_traffic("bursty", n_requests=4000, rate_rps=1500.0,
                             seed=3, scenes=("lego", "room"),
                             resolution=(64, 64), slo_s=0.01)
    return simulate_service(
        trace, ServeCluster(1), cache=stub_cache(),
        autoscaler=Autoscaler(min_chips=1, max_chips=12,
                              target_queue_per_chip=1.0, slo_target=0.95,
                              window_s=0.02, warmup_s=0.001,
                              cooldown_s=0.002),
    )


def tenant_run():
    trace = generate_tenant_traffic(
        "premium:tier=0,weight=4,share=0.25;economy:tier=1,slo=2",
        pattern="bursty", n_requests=300, rate_rps=6000.0, seed=5,
        scenes=("lego", "room"), resolution=(64, 64), slo_s=0.001)
    return simulate_service(trace, ServeCluster(2), cache=stub_cache(),
                            batcher=PipelineBatcher(),
                            admission=make_admission_policy("weighted"),
                            preempt=True)


def chaos_run():
    trace = generate_tenant_traffic(
        "premium:tier=0,weight=4,share=0.25;economy:tier=1,slo=2",
        pattern="bursty", n_requests=400, rate_rps=6000.0, seed=7,
        scenes=("lego", "room"), resolution=(64, 64), slo_s=0.002)
    return simulate_service(
        trace, ServeCluster(3), cache=stub_cache(capacity=2),
        admission=make_admission_policy("weighted"),
        compile_workers=2, compile_latency=CompileLatencyModel(),
        preempt=True, hedge=True,
        faults=FaultPlan.parse("crash=1@0.01+0.02;crash=0@0.03+0.02;"
                               "slow=2@0.0-0.1x4;rollback=0.002"))


def compiled_run():
    # Real compiled traces: service times vary per frame, so a change of
    # summation order shows up in the float totals.
    trace = generate_tenant_traffic(
        "premium:tier=0,weight=4,share=0.25;economy:tier=1,slo=2",
        pattern="bursty", n_requests=600, rate_rps=6000.0, seed=7,
        scenes=("lego", "room"), resolution=(32, 32), slo_s=0.003)
    return simulate_service(
        trace, ServeCluster(3), cache=TraceCache(capacity=2),
        admission=make_admission_policy("weighted"),
        compile_workers=2, compile_latency=CompileLatencyModel(),
        preempt=True, hedge=True,
        faults=FaultPlan.parse("crash=1@0.01+0.02;crash=0@0.03+0.02;"
                               "slow=2@0.0-0.1x4;rollback=0.002"))


def federation_run():
    specs = parse_region_spec("east:chips=2;west:tz=8,chips=2")
    streams = generate_federation_traffic(
        specs, n_requests_per_region=60, rate_rps=200.0, seed=1,
        scenes=("lego", "room"), resolution=(32, 32))
    return simulate_federation(
        specs, streams, config=FederationConfig(),
        plan=FederationPlan.parse("outage=west@1.3+0.5"))


def report_iterations(report) -> int:
    report.responses = CountingList(report.responses)
    format_service_report(report)
    report.to_dict()
    publish_report(report, MetricsRegistry())
    return report.responses.iterations


class TestOnePass:
    def test_report_walks_responses_once_regardless_of_fleet_size(self):
        small, large = static_run(), autoscaled_run()
        assert len(small.chips) == 4
        assert len(large.chips) >= 100
        assert report_iterations(small) == 1
        assert report_iterations(large) == 1

    def test_multi_tenant_report_walks_responses_once(self):
        report = tenant_run()
        assert report_iterations(report) == 1
        assert len(report.tenant_report()) == 2
        assert report.shed and report.n_preemption_events

    def test_federation_report_walks_completed_once(self):
        report = federation_run()
        report.completed = CountingList(report.completed)
        format_federation_report(report)
        report.to_dict()
        assert report.completed.iterations == 1

    def test_off_grid_percentile_is_still_answered(self):
        report = static_run()
        latencies = sorted(r.latency_s for r in report.responses)
        assert report.latency_p(100) == latencies[-1]
        assert report.latency_p(50) == report.to_dict()["latency_p50_ms"] / 1e3


def reference_figures(report) -> dict:
    """The report's per-response figures scored one response at a time:
    the reference the one-pass summary must reproduce bit for bit."""
    responses = report.responses
    latencies = [r.latency_s for r in responses]
    by_tenant: dict = {}
    weights: dict = {}

    def entry(t) -> dict:
        return by_tenant.setdefault(t.name, {
            "tier": t.tier, "weight": t.weight,
            "slo_multiplier": t.slo_multiplier, "n_requests": 0,
            "n_shed": 0, "n_degraded": 0, "n_preempted": 0,
            "preemptions": 0, "n_migrated": 0, "slo_met": 0,
            "service_s": 0.0, "latencies": []})

    for r in responses:
        t = r.request.tenant
        e = entry(t)
        e["n_requests"] += 1
        e["n_degraded"] += r.request.degraded
        e["n_preempted"] += r.preemptions > 0
        e["preemptions"] += r.preemptions
        e["n_migrated"] += r.migrated
        e["slo_met"] += r.slo_met
        e["service_s"] += r.service_s
        e["latencies"].append(r.latency_s)
        weights[t.name] = t.weight
    for s in report.shed:
        t = s.request.tenant
        entry(t)["n_shed"] += 1
        weights.setdefault(t.name, t.weight)
    shares = [e["service_s"] / weights[name]
              for name, e in by_tenant.items()]
    for e in by_tenant.values():
        lat = e.pop("latencies")
        for q in (50, 95, 99):
            e[f"latency_p{q}_ms"] = (latency_percentile(lat, q) * 1e3
                                     if lat else float("nan"))
    fairness = 1.0
    total, square_sum = sum(shares), sum(x * x for x in shares)
    if len(shares) > 1 and square_sum:
        fairness = total * total / (len(shares) * square_sum)
    return {
        "first_arrival_s": min(r.request.arrival_s for r in responses),
        "end_s": max(r.finish_s for r in responses),
        "latency_p": [latency_percentile(latencies, q) for q in (50, 95, 99)],
        "mean_queue_s": float(np.mean(np.array([r.queue_s
                                                for r in responses]))),
        "slo_met": sum(r.slo_met for r in responses),
        "n_degraded": sum(1 for r in responses if r.request.degraded),
        "n_preempted": sum(1 for r in responses if r.preemptions > 0),
        "total_preemptions": sum(r.preemptions for r in responses),
        "n_migrated": sum(1 for r in responses if r.migrated),
        "n_requeued": sum(1 for r in responses if r.requeues > 0),
        "n_hedge_won": sum(1 for r in responses if r.hedged),
        "energy_j": sum(r.energy_j for r in responses),
        "tenants": by_tenant,
        "fairness_index": fairness,
    }


class TestSummaryMatchesReference:
    @pytest.mark.parametrize("run", [static_run, autoscaled_run, tenant_run,
                                     chaos_run, compiled_run])
    def test_one_pass_equals_per_response_scoring(self, run):
        report = run()
        ref = reference_figures(report)
        summary = report.summary
        assert summary.first_arrival_s == ref["first_arrival_s"]
        assert summary.end_s == ref["end_s"]
        assert list(summary.latency_p) == ref["latency_p"]
        assert summary.mean_queue_s == ref["mean_queue_s"]
        assert summary.n_slo_met == ref["slo_met"]
        assert summary.energy_j == ref["energy_j"]
        assert summary.fairness_index == ref["fairness_index"]
        for name in ("n_degraded", "n_preempted", "total_preemptions",
                     "n_migrated", "n_requeued", "n_hedge_won"):
            assert getattr(summary, name) == ref[name], name
        rows = report.tenant_report()
        assert list(rows) == sorted(ref["tenants"], key=lambda n: (
            ref["tenants"][n]["tier"], n))
        for name, row in rows.items():
            for key, value in ref["tenants"][name].items():
                assert row[key] == value or (value != value
                                             and row[key] != row[key]), key

    @pytest.mark.parametrize("run", [static_run, tenant_run, chaos_run])
    def test_service_figures_match_the_summary(self, run):
        # A federation epoch reads these three alone; they must be the
        # summary's values bit for bit.
        report = run()
        summary = report.summary
        assert service_figures(report.responses) == (
            summary.end_s, summary.mean_service_s, summary.mean_queue_s)

    def test_federation_summary_equals_per_response_scoring(self):
        report = federation_run()
        completed = report.completed
        latencies = [f.latency_s for f in completed]
        summary = report.summary
        assert list(summary.latency_p) == [
            latency_percentile(latencies, q) for q in (50, 95, 99)]
        assert summary.n_slo_met == sum(f.slo_met for f in completed)
        assert summary.n_failovers == sum(f.failover for f in completed) > 0
        assert summary.n_remote == sum(f.region != f.home for f in completed)
        assert summary.makespan_s == (
            max(f.response.finish_s for f in completed)
            - min(f.response.request.arrival_s for f in completed))

    def test_chaos_run_exercises_every_counter(self):
        report = chaos_run()
        summary = report.summary
        assert summary.n_requeued and summary.n_hedge_won
        assert summary.n_preempted and len(summary.tenants) == 2
        assert report.shed


class TestCachedSummary:
    def test_to_dict_is_repeatable(self):
        report = tenant_run()
        first = report.to_dict()
        assert report.to_dict() == first
        assert (json.dumps(report.to_dict(), sort_keys=True)
                == json.dumps(first, sort_keys=True))

    def test_tenant_rows_are_copies(self):
        report = tenant_run()
        before = json.dumps(report.to_dict(), sort_keys=True)
        rows = report.tenant_report()
        rows["premium"]["n_requests"] = -1
        rows["economy"]["latency_p99_ms"] = 0.0
        del rows["economy"]
        exported = report.to_dict()
        exported["tenants"]["premium"]["slo_met"] = -1
        assert json.dumps(report.to_dict(), sort_keys=True) == before
        assert set(report.tenant_report()) == {"premium", "economy"}


class TestEngineLedger:
    @pytest.mark.parametrize("corrupt", ["drop", "duplicate", "phantom_shed"])
    @pytest.mark.parametrize("observed", [True, False])
    def test_unbalanced_ledger_raises(self, corrupt, observed):
        # The ledger check holds whether or not an observer is attached.
        trace = generate_traffic("bursty", n_requests=80, rate_rps=2000.0,
                                 seed=2, scenes=("lego",),
                                 resolution=(64, 64))
        engine = EventEngine(trace, ServeCluster(2), cache=stub_cache(),
                             observer=full_observer() if observed else None)
        run_loop = engine._run_loop

        def corrupted_loop():
            now = run_loop()
            if corrupt == "drop":
                engine._responses.pop()
            elif corrupt == "duplicate":
                engine._responses.append(engine._responses[0])
            else:
                engine._shed.append(engine._responses[0])
            return now

        engine._run_loop = corrupted_loop
        with pytest.raises(SimulationError, match="ledger does not balance"):
            engine.run()

    def test_balanced_ledger_passes(self):
        assert static_run().n_offered == 400

    @pytest.mark.parametrize("observed", [True, False])
    def test_stray_tenant_backlog_raises(self, observed):
        # Weighted admission makes the pending index count each tenant's
        # backlog; once nothing is pending, every count must be zero.
        trace = generate_tenant_traffic(
            [(TenantClass("premium", weight=4.0), 0.25),
             (TenantClass("economy", slo_multiplier=2.0, tier=1), 0.75)],
            pattern="bursty", n_requests=80, rate_rps=2000.0, seed=3,
            scenes=("lego",), resolution=(64, 64), slo_s=0.02)
        engine = EventEngine(trace, ServeCluster(2), cache=stub_cache(),
                             admission=make_admission_policy("weighted"),
                             preempt=True,
                             observer=full_observer() if observed else None)
        run_loop = engine._run_loop

        def corrupted_loop():
            now = run_loop()
            counts = engine._pending.tenant_counts
            assert counts and not any(
                any(per.values()) for per in counts.values())
            per = counts["economy"]
            per[next(iter(per))] += 1
            return now

        engine._run_loop = corrupted_loop
        with pytest.raises(SimulationError, match="backlog counters"):
            engine.run()


class TestPrefetchTerminates:
    def test_small_cache_prefetch_finishes(self):
        # A cache smaller than the working set: every prefetch insert
        # evicts a key the predictor still wants. Without a bar on
        # re-prefetching its own evictions the compile pool cycles
        # forever; the counter turns that into a failure, not a hang.
        calls = [0]

        def counting_compile(key):
            calls[0] += 1
            if calls[0] > 2000:
                raise RuntimeError("prefetch keeps recompiling")
            return stub_program(key[1])

        def run():
            trace = generate_traffic(
                "mixed", n_requests=300, rate_rps=320.0, seed=0,
                scenes=("lego", "room"),
                pipelines=("hashgrid", "gaussian", "mesh"),
                resolution=(64, 64))
            return simulate_service(
                trace, ServeCluster(2),
                cache=stub_cache(capacity=4, compile_fn=counting_compile),
                compile_workers=2, compile_latency=CompileLatencyModel(),
                prefetch=True)

        report = run()
        assert report.n_requests == 300
        assert report.cache_stats["evictions"] > 0
        assert report.prefetch_stats["issued"] > 0
        assert (report.compile_stats["prefetch_jobs"]
                == report.prefetch_stats["issued"])
        assert calls[0] == report.compile_stats["jobs"]
        assert run().to_dict() == report.to_dict()


class TestReportImports:
    def test_serve_and_trace_reports_skip_the_experiment_harness(
            self, tmp_path):
        # `repro serve` and `repro trace` format tables; the table
        # printer must not pull in repro.analysis (every experiment).
        script = (
            "import sys\n"
            "from repro.cli import main\n"
            "trace = sys.argv[1]\n"
            "assert main(['serve', '--requests', '30', '--chips', '2',\n"
            "             '--width', '32', '--height', '32',\n"
            "             '--trace-out', trace]) == 0\n"
            "assert main(['trace', trace]) == 0\n"
            "loaded = sorted(m for m in sys.modules\n"
            "                if m.startswith('repro.analysis'))\n"
            "print('ANALYSIS', loaded)\n"
        )
        env = dict(os.environ)
        src = str(Path(repro.__file__).resolve().parents[1])
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [sys.executable, "-c", script, str(tmp_path / "t.json")],
            env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert "p99" in proc.stdout and "trace events" in proc.stdout
        assert proc.stdout.splitlines()[-1] == "ANALYSIS []"
