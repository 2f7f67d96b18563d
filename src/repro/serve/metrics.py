"""Service-level objectives and fleet metrics.

The serving counterpart of :mod:`repro.metrics`: where the paper scores
single frames (FPS, energy/frame), a service is scored on throughput,
tail latency, SLO attainment, fleet utilization, and energy per request
— the low-level + application view of RZBENCH-style benchmarking.

With elastic serving the report also carries the economics: every chip
accrues provisioned cost (chip-seconds weighted by its design point's
:attr:`~repro.core.config.AcceleratorConfig.chip_cost_rate`) from the
moment it joins the fleet to retirement, requests refused by admission
control are listed in ``shed``, and the autoscaler's actions form a
fleet-size timeline.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

import numpy as np

from repro.errors import SimulationError
from repro.serve.admission import ShedRecord
from repro.serve.autoscaler import FleetEvent
from repro.serve.cluster import ChipState
from repro.serve.faults import FailedRecord
from repro.serve.request import RenderResponse, TenantClass
from repro.text_table import format_table


def latency_percentile(latencies_s: list[float] | np.ndarray, q: float) -> float:
    """Linear-interpolated percentile (q in [0, 100])."""
    if len(latencies_s) == 0:
        raise SimulationError("no latencies to summarize")
    return float(np.percentile(np.asarray(latencies_s, dtype=float), q))


#: Latency quantiles every report prints, exports, and publishes.
REPORT_QUANTILES = (50, 95, 99)

#: One row per response: everything the report aggregates, extracted in
#: a single pass (the column arrays are dropped once summarized).
_RESPONSE_COLUMNS = np.dtype([
    ("arrival", "f8"), ("start", "f8"), ("finish", "f8"), ("slo", "f8"),
    ("energy", "f8"), ("tenant", "i4"), ("degraded", "?"),
    ("preemptions", "i4"), ("migrated", "?"), ("requeues", "i4"),
    ("hedged", "?"),
])


def _sum_in_order(values: np.ndarray) -> float:
    """Python's left-to-right ``sum`` of ``values`` (not numpy's pairwise
    sum, which rounds differently), converting 4096 values at a time so
    a large column never exists as a full list of Python floats."""
    total = 0.0
    for lo in range(0, len(values), 4096):
        total = sum(values[lo:lo + 4096].tolist(), total)
    return total


def report_percentiles(latencies_s: np.ndarray) -> tuple[float, ...]:
    """:data:`REPORT_QUANTILES` of ``latencies_s`` (``()`` when empty).

    One :func:`numpy.percentile` call: each quantile is the same
    interpolation between the same order statistics as a call per q."""
    if len(latencies_s) == 0:
        return ()
    return tuple(np.percentile(latencies_s, REPORT_QUANTILES).tolist())


def cached_percentile(percentiles: tuple[float, ...], q: float,
                      latencies_s: Callable[[], list[float]]) -> float:
    """``q``-th percentile: from ``percentiles`` (a
    :func:`report_percentiles` result) for a report quantile, else from
    ``latencies_s()`` — only an off-grid ``q`` walks the responses."""
    if q in REPORT_QUANTILES and percentiles:
        return percentiles[REPORT_QUANTILES.index(q)]
    return latency_percentile(latencies_s(), q)


@dataclass(frozen=True, slots=True)
class TenantStats:
    """One tenant class's aggregates; :meth:`row` renders the
    :meth:`ServiceReport.tenant_report` entry."""

    tenant: TenantClass     # first class seen under this name
    n_requests: int
    n_shed: int
    n_degraded: int
    n_preempted: int
    preemptions: int
    n_migrated: int
    slo_met: int
    service_s: float
    latency_p: tuple[float, ...]    # REPORT_QUANTILES, s; () if none served

    def row(self) -> dict:
        n = self.n_requests
        n_offered = n + self.n_shed
        row = {
            "tier": self.tenant.tier,
            "weight": self.tenant.weight,
            "slo_multiplier": self.tenant.slo_multiplier,
            "n_requests": n,
            "n_shed": self.n_shed,
            "n_degraded": self.n_degraded,
            "n_preempted": self.n_preempted,
            "preemptions": self.preemptions,
            "n_migrated": self.n_migrated,
            "slo_met": self.slo_met,
            "service_s": self.service_s,
            "n_offered": n_offered,
            "shed_rate": self.n_shed / n_offered,
        }
        nan = (float("nan"),) * len(REPORT_QUANTILES)
        for q, value in zip(REPORT_QUANTILES, self.latency_p or nan):
            row[f"latency_p{q}_ms"] = value * 1e3
        row["slo_attainment"] = self.slo_met / n if n else 0.0
        row["goodput_slo_attainment"] = self.slo_met / n_offered
        return row


@dataclass(frozen=True, slots=True)
class ReportSummary:
    """Every per-response figure of a :class:`ServiceReport`.

    Built once, on first access, by :func:`summarize_responses`. It
    holds scalars and per-tenant counts only, never per-response
    arrays, so caching it costs a few hundred bytes per report.
    """

    first_arrival_s: float
    end_s: float
    latency_p: tuple[float, ...]    # REPORT_QUANTILES, seconds
    mean_queue_s: float
    mean_service_s: float
    n_slo_met: int
    n_degraded: int
    n_preempted: int
    total_preemptions: int
    n_migrated: int
    n_requeued: int
    n_hedge_won: int
    energy_j: float
    tenants: dict[str, TenantStats]     # most premium tier first
    fairness_index: float


def _response_rows(responses, tenants: dict[str, list]):
    """Yield one :data:`_RESPONSE_COLUMNS` row per response, numbering
    tenants by name in first-seen order. ``tenants[name]`` becomes
    ``[index, first TenantClass seen, last TenantClass seen]``."""
    last = None
    index = -1
    for r in responses:
        request = r.request
        tenant = request.tenant
        if tenant is not last:
            entry = tenants.get(tenant.name)
            if entry is None:
                entry = tenants[tenant.name] = [len(tenants), tenant, tenant]
            else:
                entry[2] = tenant
            last = tenant
            index = entry[0]
        yield (request.arrival_s, r.start_s, r.finish_s,
               request.slo_s * tenant.slo_multiplier, r.energy_j, index,
               request.degraded, r.preemptions, r.migrated, r.requeues,
               r.hedged)


def service_figures(
        responses: list[RenderResponse]) -> tuple[float, float, float]:
    """``(end_s, mean_service_s, mean_queue_s)`` alone, without the rest
    of the summary: the same float64 columns, ``max`` and ``np.mean``
    as :func:`summarize_responses`, so the values are bit-identical."""
    n = len(responses)
    arrival = np.fromiter((r.request.arrival_s for r in responses),
                          np.float64, n)
    start = np.fromiter((r.start_s for r in responses), np.float64, n)
    finish = np.fromiter((r.finish_s for r in responses), np.float64, n)
    return (float(finish.max()), float(np.mean(finish - start)),
            float(np.mean(start - arrival)))


def summarize_responses(responses: list[RenderResponse],
                        shed: list[ShedRecord]) -> ReportSummary:
    """One pass over ``responses`` (plus the shed list) for every figure
    the report derives from them.

    Byte-identical to scoring each response on its own: latencies,
    queue waits and service times are the same float64 differences,
    percentiles and means run :mod:`numpy` over the same values, and
    float totals keep Python's left-to-right ``sum`` order.
    """
    tenants: dict[str, list] = {}
    cols = np.fromiter(_response_rows(responses, tenants),
                       dtype=_RESPONSE_COLUMNS, count=len(responses))
    arrival, start, finish = cols["arrival"], cols["start"], cols["finish"]
    latency = finish - arrival
    service = finish - start
    met = latency <= cols["slo"]
    degraded, migrated = cols["degraded"], cols["migrated"]
    preemptions = cols["preemptions"]
    overall = report_percentiles(latency)
    shed_counts: dict[str, int] = {}
    for record in shed:
        tenant = record.request.tenant
        if tenant.name not in tenants:
            tenants[tenant.name] = [len(tenants), tenant, tenant]
        shed_counts[tenant.name] = shed_counts.get(tenant.name, 0) + 1

    stats: list[TenantStats] = []
    shares: list[float] = []
    tenant_col = cols["tenant"]
    for name, (index, first, last) in tenants.items():
        if len(tenants) == 1:
            sel, n = slice(None), len(responses)
        else:
            sel = tenant_col == index
            n = int(np.count_nonzero(sel))
        service_s = _sum_in_order(service[sel])
        stats.append(TenantStats(
            tenant=first,
            n_requests=n,
            n_shed=shed_counts.get(name, 0),
            n_degraded=int(np.count_nonzero(degraded[sel])),
            n_preempted=int(np.count_nonzero(preemptions[sel])),
            preemptions=int(preemptions[sel].sum()),
            n_migrated=int(np.count_nonzero(migrated[sel])),
            slo_met=int(np.count_nonzero(met[sel])),
            service_s=service_s,
            latency_p=(overall if n == len(responses)
                       else report_percentiles(latency[sel])),
        ))
        # Jain's allocation: delivered service per unit of the weight
        # the tenant last arrived with.
        shares.append(service_s / last.weight)

    fairness = 1.0
    if len(shares) > 1:
        total = sum(shares)
        square_sum = sum(x * x for x in shares)
        if square_sum != 0.0:
            fairness = total * total / (len(shares) * square_sum)

    return ReportSummary(
        first_arrival_s=float(arrival.min()),
        end_s=float(finish.max()),
        latency_p=overall,
        mean_queue_s=float(np.mean(start - arrival)),
        mean_service_s=float(np.mean(service)),
        n_slo_met=int(np.count_nonzero(met)),
        n_degraded=int(np.count_nonzero(degraded)),
        n_preempted=int(np.count_nonzero(preemptions)),
        total_preemptions=int(preemptions.sum()),
        n_migrated=int(np.count_nonzero(migrated)),
        n_requeued=int(np.count_nonzero(cols["requeues"])),
        n_hedge_won=int(np.count_nonzero(cols["hedged"])),
        energy_j=_sum_in_order(cols["energy"]),
        tenants={t.tenant.name: t for t in sorted(
            stats, key=lambda t: (t.tenant.tier, t.tenant.name))},
        fairness_index=fairness,
    )


@dataclass
class ServiceReport:
    """Everything one service simulation produced.

    Every figure derived from ``responses`` comes from :attr:`summary`,
    computed in one pass on first access and cached (so the report is
    read-only once built), which keeps the cost of formatting and
    exporting it linear in responses + chips.
    """

    policy: str
    responses: list[RenderResponse]
    chips: list[ChipState]
    cache_stats: dict
    batch_sizes: list[int] = field(default_factory=list)
    shed: list[ShedRecord] = field(default_factory=list)
    fleet_events: list[FleetEvent] = field(default_factory=list)
    admission_policy: str | None = None
    autoscaled: bool = False
    compile_stats: dict = field(default_factory=dict)
    prefetch_stats: dict = field(default_factory=dict)
    preempt_enabled: bool = False
    n_preemption_events: int = 0  # displacement events (batches, not requests)
    # Chaos accounting: requests stranded by an unrecoverable fleet
    # loss, plus the engine's fault/hedging counters ({} on clean runs).
    failed: list[FailedRecord] = field(default_factory=list)
    fault_stats: dict = field(default_factory=dict)
    hedge_stats: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.responses:
            raise SimulationError("service completed no requests")

    @cached_property
    def summary(self) -> ReportSummary:
        """The per-response aggregates, computed once."""
        return summarize_responses(self.responses, self.shed)

    # -- time span ------------------------------------------------------
    @property
    def first_arrival_s(self) -> float:
        return self.summary.first_arrival_s

    @property
    def end_s(self) -> float:
        """Absolute time of the last completion (the cost horizon)."""
        return self.summary.end_s

    @property
    def makespan_s(self) -> float:
        """First arrival to last completion."""
        return self.end_s - self.first_arrival_s

    # -- headline service metrics --------------------------------------
    @property
    def n_requests(self) -> int:
        return len(self.responses)

    @property
    def throughput_rps(self) -> float:
        return self.n_requests / self.makespan_s

    @property
    def mean_queue_s(self) -> float:
        """Mean queue wait — the headline compile-overlap metric."""
        return self.summary.mean_queue_s

    def latency_p(self, q: float) -> float:
        return cached_percentile(
            self.summary.latency_p, q,
            lambda: [r.latency_s for r in self.responses])

    @property
    def slo_attainment(self) -> float:
        """Fraction of *completed* requests finishing within their SLO."""
        return self.summary.n_slo_met / self.n_requests

    @property
    def cache_hit_rate(self) -> float:
        return self.cache_stats.get("hit_rate", 0.0)

    # -- admission metrics ----------------------------------------------
    @property
    def n_shed(self) -> int:
        return len(self.shed)

    @property
    def n_failed(self) -> int:
        """Admitted requests lost to an unrecoverable fleet failure."""
        return len(self.failed)

    @property
    def n_offered(self) -> int:
        """Requests that arrived, whether or not they were admitted.

        Defined as ``n_requests + n_shed + n_failed``, so it cannot by
        itself reveal a lost request. Conservation is checked where it
        can fail: the engine raises
        :class:`~repro.errors.SimulationError` at finalize unless every
        ingested request completed, was shed, or failed.
        """
        return self.n_requests + self.n_shed + self.n_failed

    @property
    def shed_rate(self) -> float:
        return self.n_shed / self.n_offered

    @property
    def n_degraded(self) -> int:
        return self.summary.n_degraded

    @property
    def goodput_slo_attainment(self) -> float:
        """SLO attainment over *offered* traffic: sheds count as misses,
        so an admission policy cannot look good by refusing everything."""
        return self.summary.n_slo_met / self.n_offered

    # -- multi-tenant QoS metrics ---------------------------------------
    @property
    def n_preempted(self) -> int:
        """Completed requests that were displaced at least once."""
        return self.summary.n_preempted

    @property
    def total_preemptions(self) -> int:
        """Displacements summed over requests (one request may be
        displaced more than once)."""
        return self.summary.total_preemptions

    @property
    def n_migrated(self) -> int:
        """Displaced requests that completed on a different chip than
        the one they were displaced from — under an autoscaler that
        includes chips warmed after the displacement."""
        return self.summary.n_migrated

    # -- chaos metrics ---------------------------------------------------
    @property
    def n_requeued(self) -> int:
        """Completed requests that survived at least one chip crash."""
        return self.summary.n_requeued

    @property
    def n_hedge_won(self) -> int:
        """Completed requests whose response came from the hedged
        duplicate rather than the primary dispatch."""
        return self.summary.n_hedge_won

    @property
    def fleet_availability(self) -> float:
        """Mean per-chip availability (up fraction of provisioned life):
        1.0 on a fault-free run."""
        horizon = self.end_s
        values = [c.availability(horizon) for c in self.chips]
        return sum(values) / len(values)

    @property
    def mtbf_s(self) -> float | None:
        """Mean time between failures: fleet up-time per crash (None
        when nothing ever crashed)."""
        n_crashes = sum(c.n_crashes for c in self.chips)
        if n_crashes == 0:
            return None
        horizon = self.end_s
        up_s = sum(c.alive_s(horizon) - c.down_total_s(horizon)
                   for c in self.chips)
        return up_s / n_crashes

    def tenant_report(self) -> dict[str, dict]:
        """Per-tenant-class service metrics (the QoS scoreboard); a
        copy, so callers may edit it freely."""
        return {name: stats.row()
                for name, stats in self.summary.tenants.items()}

    @property
    def fairness_index(self) -> float:
        """Jain's fairness index over weight-normalized delivered service.

        Each tenant's allocation is the chip-seconds of service it
        actually received divided by its weight; Jain's index
        ``(sum x)^2 / (n * sum x^2)`` is 1.0 when every tenant got
        service exactly proportional to its weight and approaches
        ``1/n`` as one tenant monopolizes the fleet. Shed traffic shows
        up as the shed tenant's allocation shrinking.
        """
        return self.summary.fairness_index

    # -- fleet metrics --------------------------------------------------
    @property
    def utilizations(self) -> dict[int, float]:
        """Per-chip busy fraction of its provisioned lifetime."""
        return {c.chip_id: c.utilization(self.end_s) for c in self.chips}

    @property
    def mean_utilization(self) -> float:
        values = list(self.utilizations.values())
        return sum(values) / len(values)

    @property
    def total_switch_cycles(self) -> float:
        return sum(c.switch_cycles for c in self.chips)

    @property
    def total_frame_reconfig_cycles(self) -> float:
        return sum(c.frame_reconfig_cycles for c in self.chips)

    @property
    def total_reconfig_cycles(self) -> float:
        return self.total_switch_cycles + self.total_frame_reconfig_cycles

    @property
    def energy_per_request_j(self) -> float:
        return self.summary.energy_j / self.n_requests

    @property
    def mean_batch_size(self) -> float:
        if not self.batch_sizes:
            return 1.0
        return sum(self.batch_sizes) / len(self.batch_sizes)

    # -- fleet economics -------------------------------------------------
    @property
    def total_chip_seconds(self) -> float:
        """Provisioned chip-seconds: join-to-retirement per chip."""
        return sum(c.alive_s(self.end_s) for c in self.chips)

    @property
    def total_cost_units(self) -> float:
        """Provisioned cost: chip-seconds weighted by per-chip rates."""
        return sum(c.cost_units(self.end_s) for c in self.chips)

    @property
    def cost_by_config(self) -> dict[str, dict]:
        """Per-design-point breakdown of the heterogeneous fleet."""
        horizon = self.end_s
        out: dict[str, dict] = {}
        for chip in self.chips:
            entry = out.setdefault(chip.config.label, {
                "chips": 0,
                "requests_served": 0,
                "chip_seconds": 0.0,
                "cost_units": 0.0,
                "energy_j": 0.0,
            })
            entry["chips"] += 1
            entry["requests_served"] += chip.requests_served
            entry["chip_seconds"] += chip.alive_s(horizon)
            entry["cost_units"] += chip.cost_units(horizon)
            entry["energy_j"] += chip.energy_j
        return out

    @property
    def fleet_size_timeline(self) -> list[tuple[float, int]]:
        """(time, active chips) steps, starting at the initial fleet."""
        autoscaled_ids = {e.chip_id for e in self.fleet_events
                          if e.action == "add"}
        initial = sum(1 for c in self.chips if c.chip_id not in autoscaled_ids)
        timeline = [(0.0, initial)]
        for event in self.fleet_events:
            timeline.append((event.t_s, event.n_active))
        return timeline

    @property
    def peak_fleet_size(self) -> int:
        return max(n for _, n in self.fleet_size_timeline)

    # -- export ---------------------------------------------------------
    def to_dict(self) -> dict:
        return {
            "policy": self.policy,
            "admission_policy": self.admission_policy,
            "autoscaled": self.autoscaled,
            "n_requests": self.n_requests,
            "n_offered": self.n_offered,
            "n_shed": self.n_shed,
            "n_failed": self.n_failed,
            "n_degraded": self.n_degraded,
            "shed_rate": self.shed_rate,
            "makespan_s": self.makespan_s,
            "throughput_rps": self.throughput_rps,
            "mean_queue_ms": self.mean_queue_s * 1e3,
            "latency_p50_ms": self.latency_p(50) * 1e3,
            "latency_p95_ms": self.latency_p(95) * 1e3,
            "latency_p99_ms": self.latency_p(99) * 1e3,
            "slo_attainment": self.slo_attainment,
            "goodput_slo_attainment": self.goodput_slo_attainment,
            "preempt_enabled": self.preempt_enabled,
            "n_preemption_events": self.n_preemption_events,
            "n_preempted": self.n_preempted,
            "total_preemptions": self.total_preemptions,
            "n_migrated": self.n_migrated,
            "fairness_index": self.fairness_index,
            "tenants": self.tenant_report(),
            "cache": dict(self.cache_stats),
            "mean_batch_size": self.mean_batch_size,
            "mean_utilization": self.mean_utilization,
            "utilizations": self.utilizations,
            "total_switch_cycles": self.total_switch_cycles,
            "total_frame_reconfig_cycles": self.total_frame_reconfig_cycles,
            "total_reconfig_cycles": self.total_reconfig_cycles,
            "energy_per_request_j": self.energy_per_request_j,
            "total_chip_seconds": self.total_chip_seconds,
            "total_cost_units": self.total_cost_units,
            "cost_by_config": self.cost_by_config,
            "peak_fleet_size": self.peak_fleet_size,
            "fleet_size_timeline": self.fleet_size_timeline,
            "fleet_events": [e.to_dict() for e in self.fleet_events],
            "shed": [s.to_dict() for s in self.shed],
            "failed": [f.to_dict() for f in self.failed],
            "chips": [c.to_dict(self.end_s) for c in self.chips],
            "compile": dict(self.compile_stats),
            "prefetch": dict(self.prefetch_stats),
            "fleet_availability": self.fleet_availability,
            "mtbf_s": self.mtbf_s,
            "n_requeued": self.n_requeued,
            "n_hedge_won": self.n_hedge_won,
            "faults": dict(self.fault_stats),
            "hedging": dict(self.hedge_stats),
        }


def publish_report(report: ServiceReport, registry) -> None:
    """Fold a finished run's headline figures into an observability
    registry (see :mod:`repro.obs.metrics`).

    Called by the event engine *after* the :class:`ServiceReport` is
    fully built, so data flows strictly report -> registry: attaching an
    observer can never change the report itself. Everything lands as a
    gauge — these are end-of-run summaries, not streaming series — plus
    the compile/prefetch stat dicts flattened under their own prefixes.
    """
    gauge = registry.gauge
    gauge("report.n_requests").set(report.n_requests)
    gauge("report.n_offered").set(report.n_offered)
    gauge("report.n_shed").set(report.n_shed)
    gauge("report.n_degraded").set(report.n_degraded)
    gauge("report.shed_rate").set(report.shed_rate)
    gauge("report.makespan_s").set(report.makespan_s)
    gauge("report.throughput_rps").set(report.throughput_rps)
    gauge("report.latency_p50_ms").set(report.latency_p(50) * 1e3)
    gauge("report.latency_p95_ms").set(report.latency_p(95) * 1e3)
    gauge("report.latency_p99_ms").set(report.latency_p(99) * 1e3)
    gauge("report.slo_attainment").set(report.slo_attainment)
    gauge("report.goodput_slo_attainment").set(report.goodput_slo_attainment)
    gauge("report.mean_batch_size").set(report.mean_batch_size)
    gauge("report.mean_utilization").set(report.mean_utilization)
    gauge("report.energy_per_request_j").set(report.energy_per_request_j)
    gauge("report.total_cost_units").set(report.total_cost_units)
    gauge("report.peak_fleet_size").set(report.peak_fleet_size)
    gauge("report.n_preemption_events").set(report.n_preemption_events)
    gauge("report.n_failed").set(report.n_failed)
    gauge("report.fleet_availability").set(report.fleet_availability)
    for name, value in report.fault_stats.items():
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            gauge(f"fault.{name}").set(value)
    for name, value in report.hedge_stats.items():
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            gauge(f"hedge.{name}").set(value)
    for name, value in report.compile_stats.items():
        if isinstance(value, (int, float)):
            gauge(f"compile.{name}").set(value)
    for name, value in report.prefetch_stats.items():
        if isinstance(value, (int, float)):
            gauge(f"prefetch.{name}").set(value)


def format_service_report(report: ServiceReport) -> str:
    """Human-readable serving summary (the `repro serve` output)."""
    admission = report.admission_policy or "admit-all"
    lines = [
        f"policy={report.policy}  admission={admission}  "
        f"chips={len(report.chips)}"
        + (f" (peak {report.peak_fleet_size} active)" if report.autoscaled else "")
        + f"  requests={report.n_requests}/{report.n_offered}"
        f"  makespan={report.makespan_s * 1e3:.1f} ms",
        "",
        f"throughput        {report.throughput_rps:10.1f} req/s",
        f"latency p50       {report.latency_p(50) * 1e3:10.2f} ms",
        f"latency p95       {report.latency_p(95) * 1e3:10.2f} ms",
        f"latency p99       {report.latency_p(99) * 1e3:10.2f} ms",
        f"SLO attainment    {report.slo_attainment * 100:10.1f} %",
        f"goodput (offered) {report.goodput_slo_attainment * 100:10.1f} %",
        f"shed / degraded   {report.n_shed:10d} / {report.n_degraded} requests",
        f"cache hit rate    {report.cache_hit_rate * 100:10.1f} %",
        f"mean queue wait   {report.mean_queue_s * 1e3:10.2f} ms",
        f"mean batch size   {report.mean_batch_size:10.2f}",
        f"energy/request    {report.energy_per_request_j * 1e3:10.2f} mJ",
        f"chip-seconds      {report.total_chip_seconds:10.3f} s "
        f"({report.total_cost_units:.3f} cost units)",
        f"reconfig cycles   {report.total_reconfig_cycles:10.0f} "
        f"(switch {report.total_switch_cycles:.0f} "
        f"+ in-frame {report.total_frame_reconfig_cycles:.0f})",
    ]
    if report.compile_stats:
        c = report.compile_stats
        lines.append(
            f"compile workers   {c.get('workers', 0):10d} "
            f"({c.get('demand_jobs', 0)} demand + "
            f"{c.get('prefetch_jobs', 0)} prefetch jobs, "
            f"{c.get('busy_s', 0.0) * 1e3:.1f} ms busy)"
        )
    if report.prefetch_stats:
        p = report.prefetch_stats
        lines.append(
            f"prefetch accuracy {p.get('accuracy', 0.0) * 100:10.1f} % "
            f"({p.get('hits', 0)} of {p.get('issued', 0)} issued, "
            f"{p.get('waste', 0)} wasted)"
        )
    if report.preempt_enabled:
        lines.append(
            f"preemption        {report.n_preemption_events:10d} events "
            f"({report.n_preempted} requests displaced, "
            f"{report.n_migrated} migrated to another chip)"
        )
    if report.fault_stats:
        f = report.fault_stats
        mtbf = report.mtbf_s
        lines.append(
            f"faults            {f.get('n_crashes', 0):10d} crashes "
            f"({f.get('n_recoveries', 0)} recovered, "
            f"{f.get('n_requeued', 0)} frames requeued, "
            f"{report.n_failed} requests lost)"
        )
        lines.append(
            f"availability      {report.fleet_availability * 100:10.1f} %"
            + (f"  (MTBF {mtbf * 1e3:.1f} ms)" if mtbf is not None else "")
        )
    if report.hedge_stats:
        h = report.hedge_stats
        lines.append(
            f"hedging           {h.get('n_hedged', 0):10d} hedged "
            f"({h.get('n_wins', 0)} clone wins, "
            f"{h.get('n_wasted', 0)} duplicates wasted, "
            f"{h.get('wasted_work_s', 0.0) * 1e3:.1f} ms duplicate work)"
        )
    tenant_rows = report.tenant_report()
    if len(tenant_rows) > 1:
        lines.append("")
        rows = [
            [
                name,
                e["tier"],
                f"{e['weight']:g}",
                f"{e['n_requests']}/{e['n_offered']}",
                f"{e['latency_p50_ms']:.2f}",
                f"{e['latency_p99_ms']:.2f}",
                f"{e['slo_attainment'] * 100:.1f}%",
                f"{e['goodput_slo_attainment'] * 100:.1f}%",
                e["n_shed"],
                e["n_preempted"],
                e["n_migrated"],
            ]
            for name, e in tenant_rows.items()
        ]
        lines.append(format_table(
            ["tenant", "tier", "weight", "served/offered", "p50 ms",
             "p99 ms", "SLO", "goodput", "shed", "preempted", "migrated"],
            rows,
        ))
        lines.append(
            f"fairness index (Jain, weight-normalized service) "
            f"{report.fairness_index:.3f}"
        )
    lines.append("")
    rows = []
    for chip in report.chips:
        lifecycle = "active"
        if chip.retired_at_s is not None:
            lifecycle = f"retired @{chip.retired_at_s * 1e3:.0f}ms"
        elif chip.added_at_s > 0:
            lifecycle = f"added @{chip.added_at_s * 1e3:.0f}ms"
        rows.append([
            chip.chip_id,
            chip.config.label,
            chip.requests_served,
            f"{chip.utilization(report.end_s) * 100:.1f}%",
            chip.pipeline_switches,
            f"{chip.cost_units(report.end_s):.3f}",
            f"{chip.energy_j:.3f}",
            lifecycle,
        ])
    lines.append(format_table(
        ["chip", "config", "served", "util", "switches", "cost", "energy J",
         "lifecycle"],
        rows,
    ))
    if report.fleet_events:
        steps = "  ".join(
            f"{t * 1e3:.0f}ms:{n}" for t, n in report.fleet_size_timeline
        )
        lines.append("")
        lines.append(f"fleet size timeline: {steps}")
    return "\n".join(lines)
