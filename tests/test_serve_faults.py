"""Chaos invariants: fault injection and hedging under randomized plans.

The golden suite pins *numbers*; this suite pins the *laws* that every
chaotic schedule must obey, across 70+ seeded random fault plans
(crashes that recover, permanent losses, straggler windows, compile
stalls) crossed with hedging on/off:

* exactly-once — one response per offered request, keyed to the
  original request id: a crash re-queue or a hedge duplicate never
  produces a second response, and no hedge-clone id (negative) ever
  reaches the report;
* conservation — offered == completed + shed + failed-unrecoverable;
  the three outcome sets partition the trace;
* causality — responses finish after they start, start after arrival,
  and start on chips that were up (not inside a known outage);
* work ledger — per chip, busy time equals the service time of the
  responses it won plus the work it burned on aborted frames and
  losing hedge duplicates (``lost_work_s``);
* determinism — the same seed and plan reproduce a byte-identical
  ServiceReport, and an attached-but-empty FaultPlan is byte-identical
  to no plan at all.

The trace cache is stubbed (same synthetic per-pipeline programs as
test_serve_invariants) so the suite exercises the chaos machinery, not
the performance model.
"""

import json

import pytest

from repro.errors import ConfigError
from repro.serve import (
    Autoscaler,
    ChipCrash,
    ChipState,
    CompileStall,
    FaultPlan,
    HedgePolicy,
    PipelineBatcher,
    ServeCluster,
    StragglerWindow,
    generate_traffic,
    make_admission_policy,
    simulate_service,
)
from tests.test_serve_invariants import stub_cache

#: Hot enough that queues form, so crashes strand real work and the
#: hedge threshold has waits to learn from.
TRAFFIC = dict(pattern="mixed", n_requests=80, rate_rps=8000.0,
               resolution=(64, 64), slo_s=0.002)

#: Aggressive hedging so the randomized matrix actually exercises the
#: duplicate/cancel/settle paths at this trace size.
HEDGE = HedgePolicy(quantile=0.5, multiplier=1.0, min_samples=8, window=64)

#: Three plan shapes x 12 seeds x hedge on/off = 72 randomized cases.
PLAN_SHAPES = {
    "storm": dict(n_crashes=2, recover_fraction=0.75, n_stragglers=2,
                  max_dilation=6.0, rollback_s=0.001),
    "permanent": dict(n_crashes=1, recover_fraction=0.0, n_stragglers=1,
                      max_dilation=4.0),
    "stragglers": dict(n_crashes=0, n_stragglers=3, max_dilation=8.0,
                       rollback_s=0.0005),
}


def make_trace(seed=0, **overrides):
    return generate_traffic(seed=seed, **dict(TRAFFIC, **overrides))


def horizon_of(trace):
    return max(r.arrival_s for r in trace)


def run_chaos(trace, faults=None, hedge=None, n_chips=4, **kwargs):
    return simulate_service(
        trace,
        ServeCluster(n_chips),
        cache=stub_cache(),
        batcher=PipelineBatcher(),
        faults=faults,
        hedge=hedge,
        **kwargs,
    )


def serialized(report):
    return json.dumps(report.to_dict(), sort_keys=True)


def outage_spans(plan, horizon_s):
    """Known-down intervals per chip id (permanent == to the horizon)."""
    spans = {}
    for crash in plan.crashes:
        end = crash.recover_at_s
        if end == float("inf"):
            end = horizon_s * 10  # effectively forever for this run
        spans.setdefault(crash.chip_id, []).append((crash.at_s, end))
    return spans


def assert_chaos_invariants(report, trace, plan=None):
    eps = 1e-9
    trace_ids = {r.request_id for r in trace}

    # -- exactly-once ---------------------------------------------------
    served_ids = [r.request.request_id for r in report.responses]
    assert len(set(served_ids)) == len(served_ids), \
        "request answered twice (re-queue or hedge duplicate leaked)"
    assert all(i >= 0 for i in served_ids), \
        "hedge-clone id (negative) reached the report"
    assert set(served_ids) <= trace_ids, "response invented a request"

    # -- conservation ---------------------------------------------------
    shed_ids = {s.request.request_id for s in report.shed}
    failed_ids = {f.request.request_id for f in report.failed}
    assert not set(served_ids) & shed_ids, "request both served and shed"
    assert not set(served_ids) & failed_ids, "request both served and failed"
    assert not shed_ids & failed_ids, "request both shed and failed"
    assert len(served_ids) + len(shed_ids) + len(failed_ids) == len(trace), \
        "requests lost or invented"
    assert report.n_offered == len(trace)
    assert report.n_offered == report.n_requests + report.n_shed \
        + report.n_failed

    # -- causality ------------------------------------------------------
    spans = outage_spans(plan, horizon_of(trace)) if plan is not None else {}
    by_chip = {}
    for r in report.responses:
        assert r.finish_s > r.start_s, "response finished before it started"
        assert r.start_s >= r.request.arrival_s - eps, \
            "response started before its request arrived"
        for at_s, end_s in spans.get(r.chip_id, ()):
            assert not (at_s - eps < r.start_s < end_s - eps), \
                f"chip {r.chip_id} started a frame mid-outage"
        by_chip.setdefault(r.chip_id, []).append(r)

    # -- work ledger ----------------------------------------------------
    # busy time == service of the responses the chip *won*, plus the
    # chip time burned on crash-aborted frames and losing hedge copies.
    for chip in report.chips:
        won = sum(r.service_s for r in by_chip.get(chip.chip_id, []))
        assert chip.busy_s == pytest.approx(won + chip.lost_work_s, abs=eps)
    assert report.total_chip_seconds >= sum(
        c.busy_s for c in report.chips) - 1e-6


class TestRandomizedFaultPlans:
    @pytest.mark.parametrize("shape", sorted(PLAN_SHAPES))
    @pytest.mark.parametrize("seed", range(12))
    @pytest.mark.parametrize("hedged", [False, True],
                             ids=["bare", "hedged"])
    def test_chaos_invariants(self, shape, seed, hedged):
        trace = make_trace(seed=seed)
        plan = FaultPlan.seeded(seed=seed * 7 + 1, n_chips=4,
                                horizon_s=horizon_of(trace),
                                **PLAN_SHAPES[shape])
        report = run_chaos(trace, faults=plan, hedge=HEDGE if hedged else None)
        assert_chaos_invariants(report, trace, plan)

    @pytest.mark.parametrize("seed", range(6))
    def test_reports_are_bit_deterministic(self, seed):
        trace = make_trace(seed=seed)
        plan = FaultPlan.seeded(seed=seed + 100, n_chips=4,
                                horizon_s=horizon_of(trace),
                                n_crashes=2, n_stragglers=2,
                                rollback_s=0.001)
        first = run_chaos(make_trace(seed=seed), faults=plan, hedge=HEDGE)
        second = run_chaos(trace, faults=plan, hedge=HEDGE)
        assert serialized(first) == serialized(second)

    def test_crashes_actually_happened(self):
        # The matrix is vacuous if the plans never hit anything: on the
        # storm shape at least one seed must crash, re-queue, and dilate.
        hits = requeues = 0
        for seed in range(12):
            trace = make_trace(seed=seed)
            plan = FaultPlan.seeded(seed=seed * 7 + 1, n_chips=4,
                                    horizon_s=horizon_of(trace),
                                    **PLAN_SHAPES["storm"])
            report = run_chaos(trace, faults=plan)
            stats = report.fault_stats
            hits += stats["n_crashes"]
            requeues += stats["n_requeued"]
        assert hits > 0, "no seeded crash ever fired inside the run"
        assert requeues > 0, "no crash ever stranded queued work"

    def test_hedging_actually_fired(self):
        fired = wins = 0
        for seed in range(12):
            trace = make_trace(seed=seed)
            plan = FaultPlan.seeded(seed=seed * 7 + 1, n_chips=4,
                                    horizon_s=horizon_of(trace),
                                    **PLAN_SHAPES["stragglers"])
            report = run_chaos(trace, faults=plan, hedge=HEDGE)
            fired += report.hedge_stats["n_hedged"]
            wins += report.hedge_stats["n_wins"]
        assert fired > 0, "the hedge threshold never triggered"
        assert wins > 0, "no hedge clone ever won a race"


class TestEmptyPlanNeutrality:
    def test_empty_plan_is_byte_identical_to_no_plan(self):
        trace = make_trace(seed=3)
        bare = run_chaos(make_trace(seed=3))
        attached = run_chaos(trace, faults=FaultPlan())
        assert serialized(bare) == serialized(attached)

    def test_hedge_without_faults_preserves_invariants(self):
        # Hedging on a healthy overloaded fleet must stay exactly-once.
        trace = make_trace(seed=5, rate_rps=12000.0)
        report = run_chaos(trace, hedge=HEDGE)
        assert_chaos_invariants(report, trace)


class TestFleetLoss:
    def test_total_permanent_loss_fails_the_backlog(self):
        trace = make_trace(seed=1)
        cut = horizon_of(trace) * 0.3
        plan = FaultPlan(crashes=[ChipCrash(0, cut, None),
                                  ChipCrash(1, cut * 1.1, None)])
        report = run_chaos(trace, faults=plan, n_chips=2)
        assert report.n_failed > 0, "dead fleet should strand the backlog"
        assert_chaos_invariants(report, trace, plan)
        assert all(f.reason == "fleet-lost" for f in report.failed)
        # Failed records drain deterministically: arrival order, no dups.
        arrivals = [f.request.arrival_s for f in report.failed]
        assert arrivals == sorted(arrivals)
        stats = report.fault_stats
        assert stats["n_failed"] == report.n_failed
        assert stats["n_permanent"] == 2
        assert stats["mean_recovery_s"] is None
        assert report.fleet_availability < 1.0

    def test_recovered_outage_serves_everything(self):
        trace = make_trace(seed=2)
        h = horizon_of(trace)
        plan = FaultPlan(crashes=[ChipCrash(0, h * 0.2, h * 0.3)],
                         rollback_s=0.0005)
        report = run_chaos(trace, faults=plan, n_chips=3)
        assert report.n_failed == 0
        assert report.n_requests == len(trace)
        assert_chaos_invariants(report, trace, plan)
        stats = report.fault_stats
        assert stats["n_crashes"] == 1
        assert stats["n_recoveries"] == 1
        assert stats["mean_recovery_s"] == pytest.approx(h * 0.3)


class TestLongElasticHistory:
    def test_availability_scans_read_only_the_active_fleet(self,
                                                           monkeypatch):
        # A flapping autoscaler retires hundreds of chips. Every
        # availability scan (admission capacity, the hedge's two-chip
        # check, the dispatch mask, the controller's n_available and
        # idle list) must walk the active fleet, never the history: no
        # ChipState.available call may land on a retired chip, and the
        # calls stay within one per active chip per controller look.
        trace = make_trace(seed=3, pattern="bursty", n_requests=4000,
                           rate_rps=3000.0)
        plan = FaultPlan.seeded(1, 2, horizon_of(trace), n_crashes=2,
                                recover_fraction=1.0, n_stragglers=1)
        scaler = Autoscaler(min_chips=1, max_chips=4,
                            target_queue_per_chip=1.0, slo_target=0.95,
                            window_s=0.005, warmup_s=0.0005, cooldown_s=0.0)
        on_active: list[bool] = []
        budget = [0]
        available = ChipState.available.fget
        observe = Autoscaler.observe

        def spy_available(chip):
            on_active.append(chip.active)
            return available(chip)

        def counting_observe(self, now, cluster, *args, **kwargs):
            budget[0] += cluster.n_active
            return observe(self, now, cluster, *args, **kwargs)

        monkeypatch.setattr(ChipState, "available", property(spy_available))
        monkeypatch.setattr(Autoscaler, "observe", counting_observe)
        report = run_chaos(trace, faults=plan, hedge=HEDGE, n_chips=2,
                           autoscaler=scaler,
                           admission=make_admission_policy("slo-shed"))

        retired = sum(1 for chip in report.chips if not chip.active)
        assert retired >= 200, "the run must build a long fleet history"
        assert report.fault_stats["n_crashes"] > 0
        assert report.hedge_stats["n_hedged"] > 0
        assert on_active and all(on_active), \
            "an availability scan walked retired chips"
        assert len(on_active) <= budget[0]
        assert_chaos_invariants(report, trace, plan)


class TestPlanSemantics:
    def test_next_crash_is_strictly_after(self):
        plan = FaultPlan(crashes=[ChipCrash(0, 0.1, 0.05),
                                  ChipCrash(0, 0.3, None)])
        assert plan.next_crash(0, 0.0).at_s == 0.1
        assert plan.next_crash(0, 0.1).at_s == 0.3  # strict: not itself
        assert plan.next_crash(0, 0.3) is None
        assert plan.next_crash(1, 0.0) is None

    def test_overlapping_stragglers_multiply(self):
        plan = FaultPlan(stragglers=[StragglerWindow(2, 0.0, 1.0, 2.0),
                                     StragglerWindow(2, 0.5, 1.5, 3.0)])
        assert plan.dilation(2, 0.25) == 2.0
        assert plan.dilation(2, 0.75) == 6.0
        assert plan.dilation(2, 1.25) == 3.0
        assert plan.dilation(2, 1.5) == 1.0   # end is exclusive
        assert plan.dilation(0, 0.75) == 1.0

    def test_compile_stalls_dilate_issue_time(self):
        plan = FaultPlan(compile_stalls=[CompileStall(0.0, 0.5, 4.0)])
        assert plan.compile_dilation(0.25) == 4.0
        assert plan.compile_dilation(0.5) == 1.0

    def test_seeded_plans_are_deterministic_and_valid(self):
        a = FaultPlan.seeded(7, n_chips=4, horizon_s=1.0, n_crashes=6,
                             n_stragglers=3, n_stalls=2)
        b = FaultPlan.seeded(7, n_chips=4, horizon_s=1.0, n_crashes=6,
                             n_stragglers=3, n_stalls=2)
        assert a.to_dict() == b.to_dict()
        # Same-chip outages never overlap (the constructor would raise).
        assert len(a.crashes) >= 1

    def test_overlapping_outages_rejected(self):
        with pytest.raises(ConfigError):
            FaultPlan(crashes=[ChipCrash(0, 0.1, 0.2), ChipCrash(0, 0.2)])

    @pytest.mark.parametrize("bad", [
        lambda: ChipCrash(-1, 0.1),
        lambda: ChipCrash(0, -0.1),
        lambda: ChipCrash(0, 0.1, 0.0),
        lambda: StragglerWindow(0, 0.5, 0.5, 2.0),
        lambda: StragglerWindow(0, 0.0, 1.0, 0.5),
        lambda: CompileStall(1.0, 0.5, 2.0),
        lambda: FaultPlan(rollback_s=-1.0),
        lambda: HedgePolicy(quantile=1.0),
        lambda: HedgePolicy(multiplier=0.0),
        lambda: HedgePolicy(min_samples=1),
        lambda: HedgePolicy(window=8, min_samples=16),
    ])
    def test_validation_rejects_bad_values(self, bad):
        with pytest.raises(ConfigError):
            bad()


class TestSpecParsing:
    def test_literal_spec_round_trips(self):
        plan = FaultPlan.parse(
            "crash=1@0.05+0.04;crash=0@0.2;slow=2@0.0-0.5x4;"
            "stall=0.1-0.2x3;rollback=0.002")
        assert plan.crashes == (ChipCrash(1, 0.05, 0.04), ChipCrash(0, 0.2))
        assert plan.stragglers == (StragglerWindow(2, 0.0, 0.5, 4.0),)
        assert plan.compile_stalls == (CompileStall(0.1, 0.2, 3.0),)
        assert plan.rollback_s == 0.002

    def test_seeded_spec_matches_direct_call(self):
        parsed = FaultPlan.parse(
            "seeded:seed=9,chips=4,horizon=0.5,crashes=2,stragglers=1")
        direct = FaultPlan.seeded(9, n_chips=4, horizon_s=0.5, n_crashes=2,
                                  n_stragglers=1)
        assert parsed.to_dict() == direct.to_dict()

    @pytest.mark.parametrize("spec", [
        "", "explode=1", "crash=1", "crash=a@b", "slow=1@x4",
        "seeded:seed=1", "seeded:unknown=2,chips=1,horizon=1",
    ])
    def test_malformed_specs_rejected(self, spec):
        with pytest.raises(ConfigError):
            FaultPlan.parse(spec)
