"""Command-line interface: ``python -m repro <command>``.

Seven commands cover the everyday workflows:

* ``render``   — build a representation and render a probe frame.
* ``simulate`` — compile a frame and run the accelerator model.
* ``serve``    — run the multi-chip rendering service on synthetic load.
* ``federate`` — compose regions behind a global router with
  trace-library gossip and serve a planet-wide workload.
* ``sweep``    — fan independent service configurations across worker
  processes and merge the results deterministically.
* ``trace``    — summarize a ``serve --trace-out`` artifact.
* ``report``   — regenerate the paper's tables and figures.
"""

from __future__ import annotations

import argparse
import sys

from repro.errors import ReproError


def _cmd_render(args) -> int:
    from repro.metrics import psnr
    from repro.renderers import PIPELINE_RENDERERS, build_representation
    from repro.scenes import Camera, get_scene, orbit_poses

    spec = get_scene(args.scene)
    field = spec.field()
    model = build_representation(args.scene, args.pipeline)
    renderer = PIPELINE_RENDERERS[args.pipeline](model, field)
    camera = Camera(args.size, args.size,
                    pose=orbit_poses(spec.camera_radius, 8)[args.view % 8])
    image, stats = renderer.render(camera)
    print(f"rendered {args.scene}/{args.pipeline} at {args.size}x{args.size}")
    if args.psnr:
        reference = field.render_reference(camera, n_samples=64)
        print(f"psnr {psnr(image, reference):.2f} dB")
    shown = {k: int(v) for k, v in sorted(stats.counts.items()) if v}
    print("workload counters:", shown)
    return 0


def _cmd_simulate(args) -> int:
    from repro.compile import compile_program
    from repro.core import UniRenderAccelerator
    from repro.core.config import AcceleratorConfig

    config = AcceleratorConfig().scaled(args.pe_scale, args.sram_scale)
    program = compile_program(args.scene, args.pipeline, args.width, args.height)
    result = UniRenderAccelerator(config).simulate(program)
    print(result.summary())
    if args.timeline:
        print(result.timeline())
    return 0


def _cmd_serve(args) -> int:
    from repro.core.config import AcceleratorConfig, CompileLatencyModel
    from repro.errors import ConfigError
    from repro.serve import (
        FaultPlan,
        PipelineBatcher,
        make_elastic_autoscaler,
        ServeCluster,
        SHARDING_POLICIES,
        TraceCache,
        TraceLibrary,
        format_service_report,
        generate_tenant_traffic,
        generate_traffic,
        make_admission_policy,
        parse_fleet_spec,
        simulate_service,
    )

    if args.prefetch and args.compile_workers < 1:
        raise ConfigError("--prefetch needs --compile-workers >= 1")
    compile_latency = (
        CompileLatencyModel() if args.compile_workers > 0 else None
    )
    config = AcceleratorConfig().scaled(args.pe_scale, args.sram_scale)
    fleet_configs = (
        parse_fleet_spec(args.fleet_spec, base=config) if args.fleet_spec else None
    )
    traffic_kwargs = dict(
        pattern=args.traffic,
        n_requests=args.requests,
        rate_rps=args.rate,
        seed=args.seed,
        scenes=tuple(args.scenes.split(",")),
        pipelines=tuple(args.pipelines.split(",")),
        resolution=(args.width, args.height),
        slo_s=args.slo_ms / 1e3,
    )
    if args.tenants:
        trace = generate_tenant_traffic(args.tenants, **traffic_kwargs)
    else:
        trace = generate_traffic(**traffic_kwargs)
    faults = FaultPlan.parse(args.faults) if args.faults else None

    def admission():
        if args.admission == "admit-all":
            return None
        return make_admission_policy(args.admission)

    def static_cluster(policy):
        if fleet_configs is not None:
            return ServeCluster(configs=fleet_configs, policy=policy)
        return ServeCluster(args.chips, config=config, policy=policy)

    # Every comparison run below warm-starts from the same *initial*
    # library state (what the file held when this invocation began), so
    # the static-vs-autoscaled and --compare-policies numbers stay
    # apples-to-apples — a later run must not inherit the compile
    # results an earlier run just flushed. Only the primary run (the
    # static fleet under the first policy) persists back to the file.
    import json

    initial_library = (TraceLibrary.load(args.trace_library).dumps()
                       if args.trace_library else None)

    def fresh_library():
        if initial_library is None:
            return None
        return TraceLibrary.from_dict(json.loads(initial_library))

    # Observability sinks ride on the *primary* run only (the static
    # fleet under the first policy) — comparison and autoscaled runs
    # stay untraced so their reports cost nothing extra and the trace
    # artifact describes exactly one schedule. ``--flight-recorder``
    # implies a tracer: a dump with no frozen events is useless.
    observer = None
    if args.trace_out or args.metrics_out or args.flight_recorder:
        from repro.obs import FlightRecorder, MetricsRegistry, Observer, Tracer

        observer = Observer(
            tracer=(Tracer(capacity=args.trace_capacity,
                           sample=args.trace_sample)
                    if args.trace_out or args.flight_recorder else None),
            metrics=(MetricsRegistry()
                     if args.trace_out or args.metrics_out else None),
            flight=FlightRecorder() if args.flight_recorder else None,
        )

    policies = sorted(SHARDING_POLICIES) if args.compare_policies else [args.policy]
    for index, policy in enumerate(policies):
        # Fresh cache/batcher per run so comparisons stay apples-to-apples.
        library = fresh_library()
        static = simulate_service(
            trace,
            static_cluster(policy),
            cache=TraceCache(capacity=args.cache_size),
            batcher=PipelineBatcher(max_batch=args.max_batch),
            admission=admission(),
            compile_workers=args.compile_workers,
            compile_latency=compile_latency,
            prefetch=args.prefetch,
            preempt=args.preempt,
            trace_library=library,
            observer=observer if index == 0 else None,
            faults=faults,
            hedge=args.hedge,
            columnar=not args.no_columnar,
        )
        print(format_service_report(static))
        if library is not None:
            if index == 0:
                # Merge-on-save: a concurrent process sharing this
                # library path must not lose its hits to ours.
                library.save(args.trace_library, merge=True)
                destination = f"-> {args.trace_library}"
            else:
                destination = "(comparison run, not persisted)"
            warmed = static.cache_stats.get("warmed", 0)
            print(
                f"trace library     {len(library):10d} traces "
                f"({library.total_hits} lifetime hits, {warmed} warm-started)"
                f" {destination}"
            )
        if args.autoscale:
            # Grow through the fleet spec round-robin; without a spec,
            # mix 2x-PE/2x-SRAM chips with the base design point.
            growth = fleet_configs or [config.scaled(2, 2), config]
            max_chips = len(fleet_configs) if fleet_configs else args.chips
            autoscaled = simulate_service(
                trace,
                ServeCluster(args.min_chips, config=config, policy=policy),
                cache=TraceCache(capacity=args.cache_size),
                batcher=PipelineBatcher(max_batch=args.max_batch),
                autoscaler=make_elastic_autoscaler(
                    min_chips=args.min_chips,
                    max_chips=max(max_chips, args.min_chips),
                    warmup_s=args.warmup_ms / 1e3,
                    growth_configs=growth,
                    mode=args.autoscale,
                ),
                admission=admission(),
                compile_workers=args.compile_workers,
                compile_latency=compile_latency,
                prefetch=args.prefetch,
                preempt=args.preempt,
                trace_library=fresh_library(),
                faults=faults,
                hedge=args.hedge,
                columnar=not args.no_columnar,
            )
            print()
            print(format_service_report(autoscaled))
            saved = 1.0 - autoscaled.total_chip_seconds / static.total_chip_seconds
            print(
                f"\nautoscaled vs static ({policy}): "
                f"SLO {autoscaled.slo_attainment * 100:.1f}% vs "
                f"{static.slo_attainment * 100:.1f}%, "
                f"chip-seconds {autoscaled.total_chip_seconds:.2f} vs "
                f"{static.total_chip_seconds:.2f} ({saved * 100:.0f}% saved), "
                f"cost {autoscaled.total_cost_units:.2f} vs "
                f"{static.total_cost_units:.2f} units"
            )
        if len(policies) > 1:
            print()

    if observer is not None:
        from pathlib import Path

        from repro.obs import save_chrome_trace, save_metrics

        if args.trace_out:
            tracer = observer.tracer
            path = save_chrome_trace(tracer, args.trace_out,
                                     metrics=observer.metrics)
            print(f"trace             {tracer.recorded:10d} events "
                  f"({tracer.dropped} dropped) -> {path}")
        if args.metrics_out:
            path = save_metrics(observer.metrics, args.metrics_out)
            rows = len(observer.metrics.timeline)
            print(f"metrics           {rows:10d} timeline rows -> {path}")
        flight = observer.flight
        if flight is not None:
            if flight.dumps:
                base = args.trace_out or args.metrics_out or "serve"
                path = flight.save(Path(base).with_suffix(".flight.json"))
                print(f"flight recorder   {len(flight.dumps):10d} dumps "
                      f"({flight.n_triggers} triggers) -> {path}")
            else:
                print("flight recorder   armed, no dumps triggered")
    return 0


def _cmd_federate(args) -> int:
    from repro.serve import (
        FederationConfig,
        FederationPlan,
        format_federation_report,
        generate_federation_traffic,
        parse_region_spec,
        simulate_federation,
    )

    specs = parse_region_spec(args.regions)
    config = FederationConfig(
        router=args.router,
        gossip=not args.no_gossip,
        sync_cadence_s=args.sync_ms / 1e3,
        gossip_delay_s=args.gossip_delay_ms / 1e3,
        failover_cost_s=args.failover_ms / 1e3,
        admission=None if args.admission == "admit-all" else args.admission,
    )
    plan = (FederationPlan.parse(args.faults) if args.faults
            else FederationPlan())
    streams = generate_federation_traffic(
        specs,
        n_requests_per_region=args.requests,
        rate_rps=args.rate,
        seed=args.seed,
        pattern=args.traffic,
        scenes=tuple(args.scenes.split(",")),
        pipelines=tuple(args.pipelines.split(",")),
        resolution=(args.width, args.height),
        slo_s=args.slo_ms / 1e3,
    )
    report = simulate_federation(specs, streams, config=config, plan=plan)
    print(format_federation_report(report))
    if args.out:
        import json

        from repro.persist import atomic_write_text

        atomic_write_text(
            args.out, json.dumps(report.to_dict(), indent=2,
                                 sort_keys=True) + "\n")
        print(f"federation report -> {args.out}")
    return 0


def _cmd_sweep(args) -> int:
    import json
    import time
    from pathlib import Path

    from repro.analysis.runner import (
        experiment_points,
        parse_scenario_sweep,
        run_sweep,
        sweep_table,
    )
    from repro.errors import ConfigError

    if args.experiment:
        if args.set or args.vary:
            raise ConfigError(
                "--experiment sweeps run the experiment's registered arms; "
                "--set/--vary apply to scenario sweeps only")
        points = experiment_points(args.experiment)
    else:
        points = parse_scenario_sweep(args.set or [], args.vary or [])

    started = time.perf_counter()
    sweep = run_sweep(points, workers=args.workers)
    elapsed = time.perf_counter() - started
    print(sweep_table(sweep))
    print(f"\n{sweep['n_points']} point(s), {args.workers} worker(s), "
          f"{elapsed:.1f}s wall")
    if args.out:
        from repro.persist import atomic_write_text

        atomic_write_text(
            Path(args.out),
            json.dumps(sweep, indent=2, sort_keys=True) + "\n")
        print(f"sweep results -> {args.out}")
    return 0


def _cmd_trace(args) -> int:
    from repro.obs import load_chrome_trace, summarize_chrome_trace

    print(summarize_chrome_trace(load_chrome_trace(args.file)))
    return 0


def _cmd_report(args) -> int:
    from repro.analysis import ALL_EXPERIMENTS, run_all

    ids = tuple(args.experiments) if args.experiments else None
    if ids:
        unknown = [e for e in ids if e not in ALL_EXPERIMENTS]
        if unknown:
            raise ReproError(
                f"unknown experiments {unknown}; choose from {list(ALL_EXPERIMENTS)}"
            )
    for exp_id, result in run_all(ids).items():
        title, _fn = ALL_EXPERIMENTS[exp_id]
        print(f"\n{'=' * 72}\n{title}\n{'=' * 72}")
        print(result["text"])
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="Uni-Render reproduction toolkit"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    render = sub.add_parser("render", help="functionally render a scene")
    render.add_argument("scene")
    render.add_argument("--pipeline", default="hashgrid")
    render.add_argument("--size", type=int, default=48)
    render.add_argument("--view", type=int, default=0)
    render.add_argument("--psnr", action="store_true",
                        help="also score against the reference image")
    render.set_defaults(fn=_cmd_render)

    simulate = sub.add_parser("simulate", help="run the accelerator model")
    simulate.add_argument("scene")
    simulate.add_argument("pipeline")
    simulate.add_argument("--width", type=int, default=1280)
    simulate.add_argument("--height", type=int, default=720)
    simulate.add_argument("--pe-scale", type=int, default=1)
    simulate.add_argument("--sram-scale", type=int, default=1)
    simulate.add_argument("--timeline", action="store_true",
                          help="print the per-phase ASCII timeline")
    simulate.set_defaults(fn=_cmd_simulate)

    serve = sub.add_parser("serve", help="run the simulated rendering service")
    serve.add_argument("--chips", type=int, default=4)
    serve.add_argument("--requests", type=int, default=200)
    serve.add_argument("--traffic", default="mixed",
                       help="steady | bursty | diurnal | mixed")
    serve.add_argument("--policy", default="pipeline-affinity",
                       help="round-robin | least-loaded | pipeline-affinity")
    serve.add_argument("--compare-policies", action="store_true",
                       help="run every sharding policy on the same trace")
    serve.add_argument("--rate", type=float, default=150.0,
                       help="mean arrival rate, requests/s")
    serve.add_argument("--seed", type=int, default=0)
    serve.add_argument("--scenes", default="lego,room",
                       help="comma-separated scene names")
    serve.add_argument("--pipelines", default="hashgrid,gaussian,mesh",
                       help="comma-separated pipeline names")
    serve.add_argument("--width", type=int, default=640)
    serve.add_argument("--height", type=int, default=360)
    serve.add_argument("--slo-ms", type=float, default=50.0,
                       help="per-request latency SLO, milliseconds")
    serve.add_argument("--cache-size", type=int, default=64,
                       help="trace-cache capacity (0 disables caching)")
    serve.add_argument("--max-batch", type=int, default=8)
    serve.add_argument("--pe-scale", type=int, default=1)
    serve.add_argument("--sram-scale", type=int, default=1)
    serve.add_argument("--autoscale", nargs="?", const="reactive",
                       choices=["reactive", "predictive"], default=None,
                       help="also run an autoscaled fleet (floor "
                            "--min-chips, ceiling --chips or the fleet "
                            "spec) and compare it against the static one; "
                            "the optional mode picks the controller: "
                            "reactive (default) trails queue/SLO pressure, "
                            "predictive forecasts the arrival-rate trend "
                            "and provisions one warm-up ahead of it")
    serve.add_argument("--min-chips", type=int, default=2,
                       help="autoscaler fleet floor")
    serve.add_argument("--warmup-ms", type=float, default=5.0,
                       help="delay before an added chip accepts work")
    serve.add_argument("--admission", default="admit-all",
                       help="admit-all | tail-drop | slo-shed | downgrade "
                            "| weighted (weighted budgets the queue per "
                            "tenant share; pair it with --tenants)")
    serve.add_argument("--tenants", default=None,
                       help="multi-tenant traffic spec: ';'-separated "
                            "name:key=value,... entries with keys tier= "
                            "(dispatch priority, lower = more premium), "
                            "weight= (fleet share under weighted "
                            "admission), slo= (SLO multiplier), share= "
                            "(traffic fraction), e.g. "
                            "'premium:tier=0,weight=4,share=0.25;"
                            "economy:tier=1,slo=2'")
    serve.add_argument("--preempt", action="store_true",
                       help="arm batch preemption: dispatch-ahead batches "
                            "stay queued (staged) on busy chips and a "
                            "premium arrival may displace a staged batch "
                            "of a more economical tier")
    serve.add_argument("--fleet-spec", default=None,
                       help="heterogeneous fleet as [count*]PExSRAM entries, "
                            "e.g. '3*1x1,1*2x2' (static fleet composition "
                            "and the autoscaler's growth pool)")
    serve.add_argument("--compile-workers", type=int, default=0,
                       help="compile worker pool size: 0 keeps compilation "
                            "invisible to simulated time (the synchronous "
                            "baseline); N>=1 overlaps compile-on-miss with "
                            "chip execution")
    serve.add_argument("--prefetch", action="store_true",
                       help="warm the trace cache with keys predicted by "
                            "a per-session Markov model over pipeline "
                            "transitions during idle compile capacity "
                            "(needs --compile-workers >= 1)")
    serve.add_argument("--trace-library", default=None, metavar="PATH",
                       help="persistent trace library: warm-start the "
                            "trace cache from this JSON artifact (absent "
                            "file = cold start) and flush updated trace "
                            "metadata back to it on shutdown, so a "
                            "restarted service skips the cold-miss storm")
    serve.add_argument("--trace-out", default=None, metavar="PATH",
                       help="write a Chrome trace-event JSON of the "
                            "primary run (open it in Perfetto / "
                            "chrome://tracing, or summarize it with "
                            "'repro trace PATH')")
    serve.add_argument("--trace-sample", type=float, default=1.0,
                       metavar="R",
                       help="fraction of requests whose lifecycle events "
                            "are traced (deterministic per-request hash; "
                            "fleet-scope events always trace)")
    serve.add_argument("--trace-capacity", type=int, default=65536,
                       metavar="N",
                       help="tracer ring-buffer capacity; oldest events "
                            "drop first")
    serve.add_argument("--metrics-out", default=None, metavar="PATH",
                       help="write the metrics timeline of the primary "
                            "run ('.csv' suffix for CSV, anything else "
                            "for JSON)")
    serve.add_argument("--flight-recorder", action="store_true",
                       help="arm the flight recorder: on a shed burst, "
                            "an SLO-attainment dip, or a chip crash, "
                            "freeze the recent trace history plus a "
                            "metrics snapshot into a .flight.json "
                            "artifact next to --trace-out")
    serve.add_argument("--faults", default=None, metavar="SPEC",
                       help="chaos fault plan: ';'-separated "
                            "crash=CHIP@AT[+DOWN] (omit +DOWN for a "
                            "permanent loss), slow=CHIP@A-BxF (straggler "
                            "window, service times xF), stall=A-BxF "
                            "(compile-worker stall), rollback=S "
                            "(checkpoint-rollback cost per crash retry), "
                            "e.g. 'crash=1@0.010+0.050;slow=2@0-0.1x4'; "
                            "or 'seeded:seed=S,chips=N,horizon=H[,...]' "
                            "for a randomized plan")
    serve.add_argument("--no-columnar", action="store_true",
                       help="force the scalar reference event loop even "
                            "for configurations the columnar fast path "
                            "accepts (reports are byte-identical either "
                            "way; this is the escape hatch / A-B knob)")
    serve.add_argument("--hedge", action="store_true",
                       help="arm request hedging: duplicate a queued "
                            "request onto a second chip once its queue "
                            "age crosses a quantile-derived threshold; "
                            "first completion wins, the loser is "
                            "cancelled or counted as wasted work "
                            "(exactly-once in the report)")
    serve.set_defaults(fn=_cmd_serve)

    federate = sub.add_parser(
        "federate",
        help="serve a planet-wide workload across federated regions "
             "with trace-library gossip replication")
    federate.add_argument("--regions",
                          default="us-east:tz=-5,chips=3;"
                                  "eu-west:tz=1,chips=3,cost=1.2;"
                                  "ap-tokyo:tz=9,chips=3",
                          help="region topology: ';'-separated "
                               "name[:tz=H,chips=N,cost=F,cap=N,"
                               "policy=P] entries")
    federate.add_argument("--router", default="federated",
                          choices=["naive", "federated"],
                          help="naive pins requests to their home region "
                               "(and fails them when it is down); "
                               "federated scores latency + load + cost "
                               "with sticky sessions and failover")
    federate.add_argument("--no-gossip", action="store_true",
                          help="disable trace-library replication between "
                               "regions (every region compiles cold)")
    federate.add_argument("--requests", type=int, default=150,
                          help="requests per region")
    federate.add_argument("--traffic", default="diurnal",
                          help="steady | bursty | diurnal | mixed (each "
                               "region's wave is phase-shifted by its "
                               "time zone)")
    federate.add_argument("--rate", type=float, default=150.0,
                          help="mean arrival rate per region, requests/s")
    federate.add_argument("--seed", type=int, default=0)
    federate.add_argument("--scenes", default="lego,room")
    federate.add_argument("--pipelines", default="hashgrid,gaussian,mesh")
    federate.add_argument("--width", type=int, default=640)
    federate.add_argument("--height", type=int, default=360)
    federate.add_argument("--slo-ms", type=float, default=120.0,
                          help="per-request latency SLO (the planetary "
                               "budget: cross-region failover pays RTT + "
                               "migration cost against it)")
    federate.add_argument("--sync-ms", type=float, default=500.0,
                          help="gossip sync cadence, milliseconds")
    federate.add_argument("--gossip-delay-ms", type=float, default=250.0,
                          help="replication transit time; staleness bound "
                               "= cadence + delay")
    federate.add_argument("--failover-ms", type=float, default=20.0,
                          help="session-migration cost charged on a "
                               "cross-region failover")
    federate.add_argument("--admission", default="admit-all",
                          help="per-region admission policy: admit-all | "
                               "tail-drop | slo-shed | downgrade")
    federate.add_argument("--faults", default=None, metavar="SPEC",
                          help="federation fault plan: ';'-separated "
                               "outage=REGION@START[+DUR] (omit +DUR for "
                               "a permanent loss) and "
                               "partition=A|B@START[+DUR] (replication "
                               "channel severed), e.g. "
                               "'outage=eu-west@0.6+1.2;"
                               "partition=us-east|ap-tokyo@0.4+0.8'")
    federate.add_argument("--out", default=None, metavar="PATH",
                          help="write the federation report JSON here")
    federate.set_defaults(fn=_cmd_federate)

    sweep = sub.add_parser(
        "sweep",
        help="fan independent service configurations across worker "
             "processes; the merged result is byte-identical to a "
             "serial run (every point regenerates its seeded trace, "
             "results merge sorted by name)")
    sweep.add_argument("--experiment", default=None,
                       choices=["ext_chaos", "ext_federation",
                                "ext_tenants", "ext_predictive"],
                       help="sweep the registered arms of one analysis "
                            "experiment instead of an ad-hoc scenario "
                            "grid (ext_predictive covers the fleet arms; "
                            "its warm/cold restart phases are "
                            "sequential by construction and stay in "
                            "'repro report')")
    sweep.add_argument("--set", action="append", metavar="KEY=VALUE",
                       help="override one scenario default (repeatable), "
                            "e.g. --set traffic=diurnal --set chips=4")
    sweep.add_argument("--vary", action="append", metavar="KEY=V1,V2",
                       help="sweep axis: run every combination of the "
                            "listed values (repeatable; axes cross-"
                            "multiply), e.g. --vary rate=200,400 "
                            "--vary admission=admit-all,slo-shed")
    sweep.add_argument("--workers", type=int, default=1,
                       help="worker processes (1 = serial in-process)")
    sweep.add_argument("--out", default=None, metavar="PATH",
                       help="write the merged sweep JSON here")
    sweep.set_defaults(fn=_cmd_sweep)

    trace = sub.add_parser("trace",
                           help="summarize a 'serve --trace-out' artifact")
    trace.add_argument("file", help="Chrome trace-event JSON written by "
                                    "'repro serve --trace-out'")
    trace.set_defaults(fn=_cmd_trace)

    report = sub.add_parser("report", help="regenerate paper experiments")
    report.add_argument("experiments", nargs="*",
                        help="experiment ids (default: all)")
    report.set_defaults(fn=_cmd_report)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ReproError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
