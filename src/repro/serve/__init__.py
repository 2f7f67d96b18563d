"""``repro.serve`` — the simulated multi-accelerator rendering service.

Turns the one-shot simulator into a service model: requests arrive over
time (:mod:`~repro.serve.traffic`), an admission policy may shed or
degrade arrivals that cannot meet their SLO
(:mod:`~repro.serve.admission`), compiled frame traces are reused
through an LRU cache (:mod:`~repro.serve.trace_cache`), queued requests
of one pipeline are coalesced to amortize PE-array reconfiguration
(:mod:`~repro.serve.batcher`), a fleet of chips — optionally
heterogeneous (mixed PE/SRAM scales) and elastic — executes them under
a pluggable sharding policy (:mod:`~repro.serve.cluster`), an
autoscaler grows and shrinks that fleet against queue depth and SLO
attainment (:mod:`~repro.serve.autoscaler`), a unified discrete-event
engine drives the whole thing (:mod:`~repro.serve.engine`, entered via
:func:`~repro.serve.scheduler.simulate_service`) — modelling trace
compilation as a pool of compile workers that overlap chip execution
and optionally prefetching predicted traces into the cache — and the
outcome is scored on throughput, tail latency, SLO attainment,
utilization, energy, and provisioned cost (:mod:`~repro.serve.metrics`).

Quickstart::

    from repro.serve import ServeCluster, generate_traffic, simulate_service

    trace = generate_traffic("bursty", n_requests=200, seed=0)
    report = simulate_service(trace, ServeCluster(n_chips=4))
    print(report.throughput_rps, report.latency_p(99), report.slo_attainment)

Elastic serving::

    from repro.serve import Autoscaler, make_admission_policy, parse_fleet_spec

    fleet = parse_fleet_spec("2*1x1,1*2x2")     # two baseline + one big chip
    report = simulate_service(
        trace,
        ServeCluster(configs=fleet[:1], policy="cost-aware"),
        autoscaler=Autoscaler(min_chips=1, max_chips=4,
                              growth_configs=fleet),
        admission=make_admission_policy("slo-shed"),
    )
    print(report.total_cost_units, report.shed_rate, report.fleet_size_timeline)

Predictive serving::

    # Forecast-led autoscaling (provision one warm-up ahead of the
    # arrival-rate trend) + compile results persisted across restarts:
    report = simulate_service(
        generate_traffic("diurnal", n_requests=1200),
        ServeCluster(2),
        autoscaler=Autoscaler(min_chips=2, max_chips=6, mode="predictive"),
        trace_library="traces.json",   # absent file == cold start
    )
    print(report.slo_attainment, report.cache_stats["warmed"])

Chaos serving::

    # Inject chip crashes / stragglers and hedge slow requests; the
    # report stays exactly-once and conservation-closed either way:
    from repro.serve import FaultPlan

    report = simulate_service(
        trace, ServeCluster(n_chips=4),
        faults=FaultPlan.parse("crash=1@0.010+0.050;slow=2@0.0-0.1x4"),
        hedge=True,
    )
    print(report.fleet_availability, report.fault_stats, report.hedge_stats)
"""

from repro.serve.request import (
    DEFAULT_TENANT,
    RenderRequest,
    RenderResponse,
    TenantClass,
    TraceKey,
)
from repro.serve.trace_cache import CacheStats, CostTable, TraceCache
from repro.serve.trace_library import (
    LIBRARY_VERSION,
    TraceLibrary,
    TraceRecord,
)
from repro.serve.batcher import Batch, PipelineBatcher
from repro.serve.cluster import (
    ChipState,
    ServeCluster,
    SHARDING_POLICIES,
    parse_fleet_spec,
)
from repro.serve.admission import (
    ADMISSION_POLICIES,
    AdmissionPolicy,
    Downgrade,
    DOWNGRADE_LADDER,
    ShedRecord,
    SloShed,
    TailDrop,
    WeightedAdmission,
    make_admission_policy,
)
from repro.serve.autoscaler import Autoscaler, FleetEvent, make_elastic_autoscaler
from repro.serve.faults import (
    ChipCrash,
    CompileStall,
    FailedRecord,
    FaultPlan,
    HedgePolicy,
    StragglerWindow,
)
from repro.serve.engine import (
    CompileWorkerPool,
    EventEngine,
    TracePrefetcher,
    response_timeline,
)
from repro.serve.metrics import (
    ServiceReport,
    format_service_report,
    latency_percentile,
    publish_report,
)
from repro.serve.scheduler import simulate_service
from repro.serve.federation import (
    ChannelPartition,
    FederatedResponse,
    FederationConfig,
    FederationPlan,
    FederationReport,
    GlobalRouter,
    Region,
    RegionOutage,
    RegionSpec,
    format_federation_report,
    generate_federation_traffic,
    parse_region_spec,
    region_rtt_s,
    simulate_federation,
)
from repro.core.config import CompileLatencyModel
from repro.serve.traffic import (
    DEFAULT_PIPELINES,
    DEFAULT_RESOLUTION,
    DEFAULT_SCENES,
    TRAFFIC_PATTERNS,
    generate_tenant_traffic,
    generate_traffic,
    parse_tenant_spec,
)

__all__ = [
    "RenderRequest",
    "RenderResponse",
    "TenantClass",
    "DEFAULT_TENANT",
    "TraceKey",
    "TraceCache",
    "CacheStats",
    "TraceLibrary",
    "TraceRecord",
    "LIBRARY_VERSION",
    "Batch",
    "PipelineBatcher",
    "ChipState",
    "ServeCluster",
    "SHARDING_POLICIES",
    "parse_fleet_spec",
    "ADMISSION_POLICIES",
    "AdmissionPolicy",
    "TailDrop",
    "SloShed",
    "Downgrade",
    "DOWNGRADE_LADDER",
    "WeightedAdmission",
    "ShedRecord",
    "make_admission_policy",
    "Autoscaler",
    "FleetEvent",
    "make_elastic_autoscaler",
    "FaultPlan",
    "ChipCrash",
    "StragglerWindow",
    "CompileStall",
    "HedgePolicy",
    "FailedRecord",
    "CompileLatencyModel",
    "CompileWorkerPool",
    "CostTable",
    "EventEngine",
    "TracePrefetcher",
    "response_timeline",
    "ServiceReport",
    "format_service_report",
    "latency_percentile",
    "publish_report",
    "simulate_service",
    "RegionSpec",
    "Region",
    "GlobalRouter",
    "FederationConfig",
    "FederationPlan",
    "FederationReport",
    "FederatedResponse",
    "RegionOutage",
    "ChannelPartition",
    "parse_region_spec",
    "region_rtt_s",
    "generate_federation_traffic",
    "simulate_federation",
    "format_federation_report",
    "generate_traffic",
    "generate_tenant_traffic",
    "parse_tenant_spec",
    "TRAFFIC_PATTERNS",
    "DEFAULT_SCENES",
    "DEFAULT_PIPELINES",
    "DEFAULT_RESOLUTION",
]
