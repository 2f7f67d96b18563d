"""Per-layer metrics of one traced run, from spans and report counters.

Every ``*_s`` metric is a layer's *self* time: its spans' time minus
the time their direct child spans cover, so nested layers are never
counted twice (``engine.self_s`` is ``simulate_service`` minus the
cache, cluster, admission, autoscaler, pricing and compile spans inside
it). Counts come from the same boundaries or from the report's own
counters.
"""

from __future__ import annotations

import os

#: Self times of layers that only some workloads use. They read 0.0 on
#: every run of the other workloads, and a time that never changes
#: looks like a truncated clock, so they are printed in the traced
#: table and kept in ``result.json`` but left out of the per-layer list
#: of ``BENCHMARK.json`` (their call counts stay in it).
WORKLOAD_ONLY_TIMES = ("admission.s", "autoscaler.s", "obs.export_s",
                       "persist.write_s", "federation.route_s",
                       "federation.epoch_s", "federation.gossip_s")


class EngineTotals:
    """Sums over every ``ServiceReport`` ``simulate_service`` returned —
    one on the serve workloads, one per region epoch on federation."""

    def __init__(self) -> None:
        self.offered = 0
        self.batches = 0
        self.batched_requests = 0
        self.chips = 0
        self.fleet_events = 0
        self.shed = 0
        self.crashes = 0
        self.requeued = 0
        self.hedges = 0
        self.hedges_wasted = 0

    def add(self, report) -> None:
        self.offered += report.n_offered
        self.batches += len(report.batch_sizes)
        self.batched_requests += sum(report.batch_sizes)
        self.chips += len(report.chips)
        self.fleet_events += len(report.fleet_events)
        self.shed += report.n_shed
        self.crashes += report.fault_stats.get("n_crashes", 0)
        self.requeued += report.fault_stats.get("n_requeued", 0)
        self.hedges += report.hedge_stats.get("n_hedged", 0)
        self.hedges_wasted += report.hedge_stats.get("n_wasted", 0)


def _cache_stats(outcome) -> dict:
    """Lifetime cache counters: the run's cache, or every region's."""
    report = outcome.report
    if outcome.kind == "serve":
        caches = [report.cache_stats]
    else:
        caches = [entry["cache"] for entry in report.regions.values()]
    hits = sum(c.get("hits", 0) for c in caches)
    misses = sum(c.get("misses", 0) for c in caches)
    return {"lookups": hits + misses,
            "hit_rate": hits / (hits + misses) if hits + misses else 0.0,
            "evictions": sum(c.get("evictions", 0) for c in caches)}


def layer_metrics(totals: dict, engine: EngineTotals, outcome,
                  n_keys: int, probe_s: float) -> dict[str, float]:
    def self_s(name: str) -> float:
        return totals.get(name, {}).get("self_s", 0.0)

    def calls(name: str) -> int:
        return totals.get(name, {}).get("calls", 0)

    report = outcome.report
    cache = _cache_stats(outcome)
    engine_s = totals.get("engine", {}).get("total_s", 0.0)
    metrics = {
        "compile.probe_s": probe_s,
        "compile.keys": n_keys,
        "compile.run_calls": calls("compile.run"),
        "traffic.gen_s": self_s("traffic.gen"),
        "traffic.requests": outcome.n_generated,
        "engine.self_s": self_s("engine"),
        "engine.sim_rps": engine.offered / engine_s if engine_s else 0.0,
        "engine.batches": engine.batches,
        "engine.mean_batch": (engine.batched_requests / engine.batches
                              if engine.batches else 0.0),
        "core.price_calls": calls("core.price"),
        "core.price_s": self_s("core.price"),
        "cache.lookups": cache["lookups"],
        "cache.hit_rate": cache["hit_rate"],
        "cache.evictions": cache["evictions"],
        "cache.s": self_s("cache"),
        "cluster.select_calls": calls("cluster.select"),
        "cluster.select_s": self_s("cluster.select"),
        "cluster.chips_provisioned": engine.chips,
        "admission.calls": calls("admission"),
        "admission.s": self_s("admission"),
        "admission.shed": engine.shed,
        "autoscaler.calls": calls("autoscaler"),
        "autoscaler.s": self_s("autoscaler"),
        "autoscaler.fleet_events": engine.fleet_events,
        "faults.crashes": engine.crashes,
        "faults.requeued": engine.requeued,
        "hedge.issued": engine.hedges,
        "hedge.wasted": engine.hedges_wasted,
        "report.text_s": self_s("report.text"),
        "report.json_s": self_s("report.json"),
        "report.json_bytes": len(outcome.report_json.encode()),
        "obs.events": 0,
        "obs.dropped": 0,
        "obs.timeline_rows": 0,
        "obs.export_s": self_s("obs.export"),
        "obs.export_bytes": sum(os.path.getsize(path)
                                for path in outcome.artifacts.values()),
        "persist.write_s": self_s("persist.write"),
        "federation.epochs": 0,
        "federation.route_calls": calls("federation.route"),
        "federation.route_s": self_s("federation.route"),
        "federation.epoch_s": self_s("federation.epoch"),
        "federation.gossip_applied": 0,
        "federation.gossip_s": self_s("federation.gossip"),
        "federation.failovers": 0,
    }
    if outcome.observer is not None:
        tracer = outcome.observer.tracer
        metrics["obs.events"] = tracer.recorded
        metrics["obs.dropped"] = tracer.dropped
        metrics["obs.timeline_rows"] = len(outcome.observer.metrics.timeline)
    if outcome.kind == "federation":
        metrics["federation.epochs"] = report.n_epochs
        metrics["federation.gossip_applied"] = \
            report.gossip_stats["warm_installs"]
        metrics["federation.failovers"] = report.n_failovers
    return metrics
