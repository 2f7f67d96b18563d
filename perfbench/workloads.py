"""The four CLI-shaped workloads, built from the program's public API.

Each workload takes its seed as an argument and calls what ``repro
serve`` / ``repro federate`` call: a traffic generator,
``simulate_service`` or ``simulate_federation``, the report formatter
and ``to_dict``, and on ``serve_observed`` the trace and metrics
export into the child's work directory. Sizes were measured on a
2-core host so that one child process takes a few seconds (see
NOTES.md).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

SCENES = ("lego", "room")
PIPELINES = ("hashgrid", "gaussian", "mesh")
RESOLUTION = (640, 360)

MIXED_REQUESTS = 100_000
MIXED_RATE_RPS = 280.0
OBSERVED_REQUESTS = 25_000
ELASTIC_REQUESTS = 20_000
ELASTIC_RATE_RPS = 320.0
ELASTIC_TENANTS = "premium:tier=0,weight=4,share=0.25;economy:tier=1,slo=2"
FEDERATION_REQUESTS_PER_REGION = 40_000
FEDERATION_RATE_RPS = 150.0


@dataclass
class Outcome:
    """What one workload run produced, for the checks and the metrics."""

    kind: str                 # "serve" or "federation"
    report: object
    n_generated: int
    report_json: str
    observer: object = None
    artifacts: dict = field(default_factory=dict)
    cadence_s: float = 0.0    # federation sync epoch length


class Calls:
    """How a workload calls the program: plainly, or under spans.

    ``span`` runs one call under a named span when traced. ``cache_kwargs``
    injects the traced compile function into every trace cache the
    workload builds (``TraceCache(compile_fn=)``).
    """

    def __init__(self, recorder=None, compile_fn=None) -> None:
        self.recorder = recorder
        self.compile_fn = compile_fn

    def span(self, name: str, fn: Callable, *args, **kwargs):
        if self.recorder is None:
            return fn(*args, **kwargs)
        return self.recorder.span(name, fn, *args, **kwargs)

    @property
    def cache_kwargs(self) -> dict:
        return {} if self.compile_fn is None else {"compile_fn": self.compile_fn}


def report_json(report) -> str:
    """The report JSON a user would write; its digest pins determinism."""
    return json.dumps(report.to_dict(), sort_keys=True)


def _serve_report(calls: Calls, report) -> str:
    """Report text then report JSON, as a user of ``repro serve`` gets
    them; returns the JSON."""
    from repro import serve

    serve.format_service_report(report)
    return calls.span("report.json", report_json, report)


def run_serve_mixed(seed: int, calls: Calls, workdir: Path) -> Outcome:
    from repro import serve

    trace = serve.generate_traffic(
        "mixed", n_requests=MIXED_REQUESTS, rate_rps=MIXED_RATE_RPS,
        seed=seed, scenes=SCENES, pipelines=PIPELINES,
        resolution=RESOLUTION)
    report = serve.simulate_service(
        trace,
        serve.ServeCluster(4, policy="pipeline-affinity"),
        cache=serve.TraceCache(capacity=64, **calls.cache_kwargs),
        batcher=serve.PipelineBatcher(max_batch=8),
    )
    payload = _serve_report(calls, report)
    return Outcome("serve", report, len(trace), payload)


def run_serve_observed(seed: int, calls: Calls, workdir: Path) -> Outcome:
    from repro import obs, serve

    trace = serve.generate_traffic(
        "mixed", n_requests=OBSERVED_REQUESTS, rate_rps=MIXED_RATE_RPS,
        seed=seed, scenes=SCENES, pipelines=PIPELINES,
        resolution=RESOLUTION)
    observer = obs.Observer(
        tracer=obs.Tracer(capacity=65_536, sample=1.0),
        metrics=obs.MetricsRegistry(),
        flight=obs.FlightRecorder(),
    )
    report = serve.simulate_service(
        trace,
        serve.ServeCluster(4, policy="pipeline-affinity"),
        cache=serve.TraceCache(capacity=64, **calls.cache_kwargs),
        batcher=serve.PipelineBatcher(max_batch=8),
        observer=observer,
    )
    payload = _serve_report(calls, report)
    trace_path = obs.save_chrome_trace(
        observer.tracer, workdir / "trace.json", metrics=observer.metrics)
    metrics_path = obs.save_metrics(observer.metrics, workdir / "metrics.csv")
    return Outcome("serve", report, len(trace), payload,
                   observer=observer,
                   artifacts={"trace": str(trace_path),
                              "metrics": str(metrics_path)})


def elastic_fault_spec(horizon_s: float) -> str:
    """Crashes and stragglers at fixed shares of the nominal horizon.

    The first crash lands on an initial chip at 1% of the horizon,
    before the autoscaler can have retired it (initial chips are the
    last retire candidates), so every seed records at least one crash
    on a live chip; the later ones hit whatever the fleet holds then.
    """
    h = horizon_s
    return (f"crash=0@{0.01 * h:.4f}+{0.01 * h:.4f};"
            f"crash=1@{0.25 * h:.4f}+{0.03 * h:.4f};"
            f"crash=2@{0.50 * h:.4f}+{0.03 * h:.4f};"
            f"crash=3@{0.75 * h:.4f}+{0.03 * h:.4f};"
            f"slow=0@{0.10 * h:.4f}-{0.30 * h:.4f}x3;"
            f"slow=2@{0.55 * h:.4f}-{0.70 * h:.4f}x2")


def run_serve_elastic_chaos(seed: int, calls: Calls, workdir: Path) -> Outcome:
    from repro import serve
    from repro.core.config import AcceleratorConfig, CompileLatencyModel

    trace = serve.generate_tenant_traffic(
        ELASTIC_TENANTS, pattern="mixed", n_requests=ELASTIC_REQUESTS,
        rate_rps=ELASTIC_RATE_RPS, seed=seed, scenes=SCENES,
        pipelines=PIPELINES, resolution=RESOLUTION)
    config = AcceleratorConfig()
    faults = serve.FaultPlan.parse(
        elastic_fault_spec(ELASTIC_REQUESTS / ELASTIC_RATE_RPS))
    # prefetch stays off: with a cache smaller than the working set the
    # prefetch path does not terminate (see NOTES.md, "Known defect").
    report = serve.simulate_service(
        trace,
        serve.ServeCluster(4, config=config, policy="pipeline-affinity"),
        cache=serve.TraceCache(capacity=4, **calls.cache_kwargs),
        batcher=serve.PipelineBatcher(max_batch=8),
        autoscaler=serve.make_elastic_autoscaler(
            min_chips=4, max_chips=8, warmup_s=0.005,
            growth_configs=[config.scaled(2, 2), config]),
        admission=serve.make_admission_policy("weighted"),
        compile_workers=2,
        compile_latency=CompileLatencyModel(),
        prefetch=False,
        preempt=True,
        faults=faults,
        hedge=True,
    )
    payload = _serve_report(calls, report)
    return Outcome("serve", report, len(trace), payload)


def federation_fault_spec(horizon_s: float) -> str:
    """One region outage and one replication partition, as shares of
    the nominal horizon (``FederationPlan`` times are absolute)."""
    h = horizon_s
    return (f"outage=eu-west@{0.30 * h:.3f}+{0.10 * h:.3f};"
            f"partition=us-east|ap-tokyo@{0.50 * h:.3f}+{0.20 * h:.3f}")


def run_federate_regions(seed: int, calls: Calls, workdir: Path) -> Outcome:
    from repro import serve
    from repro.cli import build_parser

    # The CLI's own defaults: three regions, federated router, gossip on.
    args = build_parser().parse_args(["federate"])
    specs = serve.parse_region_spec(args.regions)
    config = serve.FederationConfig(
        router=args.router,
        gossip=not args.no_gossip,
        sync_cadence_s=args.sync_ms / 1e3,
        gossip_delay_s=args.gossip_delay_ms / 1e3,
        failover_cost_s=args.failover_ms / 1e3,
    )
    plan = serve.FederationPlan.parse(federation_fault_spec(
        FEDERATION_REQUESTS_PER_REGION / FEDERATION_RATE_RPS))
    streams = serve.generate_federation_traffic(
        specs,
        n_requests_per_region=FEDERATION_REQUESTS_PER_REGION,
        rate_rps=FEDERATION_RATE_RPS,
        seed=seed,
        pattern=args.traffic,
        scenes=SCENES,
        pipelines=PIPELINES,
        resolution=RESOLUTION,
        slo_s=args.slo_ms / 1e3,
    )
    report = serve.simulate_federation(
        specs, streams, config=config, plan=plan,
        compile_fn=calls.compile_fn)
    serve.format_federation_report(report)
    payload = calls.span("report.json", report_json, report)
    return Outcome("federation", report,
                   sum(len(s) for s in streams.values()), payload,
                   cadence_s=config.sync_cadence_s)


@dataclass(frozen=True)
class Workload:
    """One workload; why it is in the benchmark is in BENCHMARK.json."""

    name: str
    run: Callable[[int, Calls, Path], Outcome]
    #: Span names the traced run must record at least once.
    expected_spans: tuple[str, ...]


_COMMON = ("traffic.gen", "engine", "core.price", "cache", "cluster.select",
           "compile.run", "report.text", "report.json")

WORKLOADS: dict[str, Workload] = {w.name: w for w in (
    Workload("serve_mixed", run_serve_mixed, _COMMON),
    Workload("serve_observed", run_serve_observed,
             _COMMON + ("obs.export", "persist.write")),
    Workload("serve_elastic_chaos", run_serve_elastic_chaos,
             _COMMON + ("admission", "autoscaler")),
    Workload("federate_regions", run_federate_regions,
             _COMMON + ("federation.run", "federation.route",
                        "federation.epoch", "federation.gossip")),
)}


def trace_keys() -> list[tuple[str, str, int, int]]:
    """Every (scene, pipeline, width, height) any workload can emit."""
    return [(scene, pipeline, *RESOLUTION)
            for scene in SCENES for pipeline in PIPELINES]
