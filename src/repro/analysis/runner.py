"""Shared evaluation plumbing — and the parallel sweep runner.

The first half of this module is the per-(scene, pipeline) result cache
the table experiments share. The second half is the **sweep runner**:
``run_sweep`` fans a list of independent point specs across worker
processes and merges the results order-independently.

A sweep *point* is a plain dict (picklable, JSON-able) describing one
self-contained ``simulate_service`` configuration. Two kinds exist:

* **experiment points** name one arm of a registered ``analysis/``
  experiment (``ext_chaos``, ``ext_tenants``, ``ext_predictive``,
``ext_federation``).
  Each arm function regenerates its trace deterministically in-process,
  so an arm is a unit of work with no shared state — exactly what a
  worker process needs.
* **scenario points** describe an ad-hoc service configuration
  (traffic pattern, fleet size, admission policy, ...); the ``repro
  sweep --vary KEY=V1,V2`` cross-product produces them.

Determinism contract: a point's result depends only on its spec (every
trace generator is seeded), results carry no wall-clock or worker
metadata, and the merge sorts by point name — so ``run_sweep(points,
workers=8)`` emits output byte-identical to ``workers=1``.
"""

from __future__ import annotations

import importlib
import itertools
from concurrent.futures import ProcessPoolExecutor, as_completed

from repro.compile import compile_program
from repro.core import UniRenderAccelerator
from repro.core.config import AcceleratorConfig
from repro.core.simulator import FrameResult
from repro.errors import ConfigError, finite_float
from repro.scenes import NERF_SYNTHETIC_SCENES, UNBOUNDED_360_SCENES

#: Evaluation resolutions, following the paper's settings.
UNBOUNDED_RESOLUTION = (1280, 720)   # [51], [88]
SYNTHETIC_RESOLUTION = (800, 800)    # [48], [50]

#: Scene sets used by the harness. The full sets match the datasets'
#: seven/eight scenes; benchmarks can pass reduced sets for speed.
UNBOUNDED_EVAL_SCENES = tuple(UNBOUNDED_360_SCENES)
SYNTHETIC_EVAL_SCENES = tuple(NERF_SYNTHETIC_SCENES)

_RESULT_CACHE: dict[tuple, FrameResult] = {}


def clear_result_cache() -> None:
    _RESULT_CACHE.clear()


def resolution_for(scene_name: str) -> tuple[int, int]:
    """The paper's evaluation resolution for a scene's dataset kind."""
    from repro.scenes import get_scene

    if get_scene(scene_name).kind == "synthetic":
        return SYNTHETIC_RESOLUTION
    return UNBOUNDED_RESOLUTION


def uni_result(
    scene_name: str,
    pipeline: str,
    resolution: tuple[int, int] | None = None,
    config: AcceleratorConfig | None = None,
) -> FrameResult:
    """Simulate Uni-Render on one (scene, pipeline), cached."""
    if resolution is None:
        resolution = resolution_for(scene_name)
    key = (scene_name, pipeline, resolution, config)
    if key in _RESULT_CACHE:
        return _RESULT_CACHE[key]
    program = compile_program(scene_name, pipeline, *resolution)
    result = UniRenderAccelerator(config).simulate(program)
    _RESULT_CACHE[key] = result
    return result


def uni_fps(scene_name: str, pipeline: str, **kwargs) -> float:
    """FPS convenience wrapper over :func:`uni_result`."""
    return uni_result(scene_name, pipeline, **kwargs).fps


# ---------------------------------------------------------------------------
# Sweep runner
# ---------------------------------------------------------------------------

#: Sweepable experiments: id -> (module, arm function, arms constant).
#: The module is imported lazily *inside the worker process*, so the
#: registry itself stays picklable and import-light.
SWEEP_EXPERIMENTS: dict[str, tuple[str, str, str]] = {
    "ext_chaos": ("repro.analysis.chaos", "chaos_arm", "CHAOS_ARMS"),
    "ext_federation": ("repro.analysis.federation", "federation_arm",
                       "FEDERATION_ARMS"),
    "ext_tenants": ("repro.analysis.serving", "tenant_arm", "TENANT_ARMS"),
    "ext_predictive": ("repro.analysis.serving", "predictive_arm",
                       "PREDICTIVE_ARMS"),
}

#: Scenario-point spec keys and their defaults. ``None`` policy means
#: the cluster's own default; everything else maps 1:1 onto
#: ``generate_traffic`` / ``simulate_service`` arguments.
SCENARIO_DEFAULTS: dict[str, object] = {
    "traffic": "bursty",
    "requests": 400,
    "rate": 300.0,
    "seed": 0,
    "scenes": "lego,room",
    "pipelines": "hashgrid,gaussian,mesh",
    "width": 160,
    "height": 90,
    "slo_ms": 50.0,
    "chips": 2,
    "policy": "pipeline-affinity",
    "cache_size": 64,
    "max_batch": 8,
    "admission": "admit-all",
}


def experiment_points(experiment: str,
                      arms: tuple[str, ...] | None = None) -> list[dict]:
    """One sweep point per arm of a registered experiment."""
    if experiment not in SWEEP_EXPERIMENTS:
        raise ConfigError(
            f"unknown sweep experiment {experiment!r}; "
            f"choose from {sorted(SWEEP_EXPERIMENTS)}")
    module_name, _fn, arms_name = SWEEP_EXPERIMENTS[experiment]
    known = getattr(importlib.import_module(module_name), arms_name)
    arms = tuple(arms) if arms is not None else tuple(known)
    for arm in arms:
        if arm not in known:
            raise ConfigError(
                f"unknown arm {arm!r} for {experiment}; choose from {known}")
    return [
        {"kind": "experiment", "name": f"{experiment}/{arm}",
         "experiment": experiment, "arm": arm}
        for arm in arms
    ]


def scenario_points(base: dict | None = None,
                    vary: dict[str, list] | None = None) -> list[dict]:
    """Cross-product of ``vary`` axes over the scenario defaults.

    ``base`` overrides individual defaults; ``vary`` maps spec keys to
    value lists. Point names encode the varied coordinates
    (``"rate=200,chips=4"``) so merged results are self-describing; the
    degenerate no-``vary`` sweep yields one point named ``"base"``.
    """
    spec = dict(SCENARIO_DEFAULTS)
    for source in (base or {}), (vary or {}):
        unknown = set(source) - set(SCENARIO_DEFAULTS)
        if unknown:
            raise ConfigError(
                f"unknown scenario keys {sorted(unknown)}; "
                f"choose from {sorted(SCENARIO_DEFAULTS)}")
    spec.update(base or {})
    if not vary:
        return [dict(spec, kind="scenario", name="base")]
    axes = sorted(vary)
    # Point names encode parsed values, so equal values ("0.50" and
    # "0.5" both coerce to 0.5) would mint two points under one merge
    # key; collapse duplicates per axis, first occurrence wins.
    vary = {axis: list(dict.fromkeys(vary[axis])) for axis in axes}
    points = []
    for values in itertools.product(*(vary[axis] for axis in axes)):
        point = dict(spec)
        point.update(zip(axes, values))
        name = ",".join(f"{axis}={value}"
                        for axis, value in zip(axes, values))
        points.append(dict(point, kind="scenario", name=name))
    return points


_TRUE_WORDS = ("1", "true", "yes", "on")
_FALSE_WORDS = ("0", "false", "no", "off")


def _split_assignment(entry: str) -> tuple[str, str]:
    key, sep, raw = entry.partition("=")
    if not sep or not key or not raw:
        raise ConfigError(f"expected KEY=VALUE, got {entry!r}")
    return key, raw


def _coerce_scenario_value(key: str, raw: str):
    """Parse ``raw`` to the type of the scenario default it overrides."""
    default = SCENARIO_DEFAULTS.get(key)
    try:
        if isinstance(default, bool):
            word = raw.strip().lower()
            if word not in _TRUE_WORDS + _FALSE_WORDS:
                raise ValueError(
                    f"expected one of {_TRUE_WORDS + _FALSE_WORDS}")
            return word in _TRUE_WORDS
        if isinstance(default, int):
            return int(raw)
        if isinstance(default, float):
            return finite_float(raw)
    except ValueError as err:
        raise ConfigError(
            f"sweep value {key + '=' + raw!r} is not a valid "
            f"{type(default).__name__}: {err}") from err
    return raw


def parse_scenario_sweep(set_entries=(), vary_entries=()) -> list[dict]:
    """Scenario points from ``repro sweep`` ``--set KEY=VALUE`` and
    ``--vary KEY=V1,V2,...`` entries.

    Each value is parsed to the type of the default it overrides (float
    keys must be finite); a malformed entry, a bad value or an unknown
    key raises :class:`ConfigError` naming it.
    """
    base = {}
    for entry in set_entries:
        key, raw = _split_assignment(entry)
        base[key] = _coerce_scenario_value(key, raw)
    vary = {}
    for entry in vary_entries:
        key, raw = _split_assignment(entry)
        vary[key] = [_coerce_scenario_value(key, value)
                     for value in raw.split(",")]
    return scenario_points(base, vary)


def _run_scenario(spec: dict):
    from repro.serve import (
        PipelineBatcher,
        ServeCluster,
        TraceCache,
        generate_traffic,
        make_admission_policy,
        simulate_service,
    )

    trace = generate_traffic(
        pattern=spec["traffic"],
        n_requests=int(spec["requests"]),
        rate_rps=float(spec["rate"]),
        seed=int(spec["seed"]),
        scenes=tuple(str(spec["scenes"]).split(",")),
        pipelines=tuple(str(spec["pipelines"]).split(",")),
        resolution=(int(spec["width"]), int(spec["height"])),
        slo_s=float(spec["slo_ms"]) / 1e3,
    )
    admission = (None if spec["admission"] in (None, "admit-all")
                 else make_admission_policy(str(spec["admission"])))
    return simulate_service(
        trace,
        ServeCluster(int(spec["chips"]), policy=str(spec["policy"])),
        cache=TraceCache(capacity=int(spec["cache_size"])),
        batcher=PipelineBatcher(max_batch=int(spec["max_batch"])),
        admission=admission,
    )


def run_sweep_point(spec: dict) -> dict:
    """Run one sweep point; module-level so worker processes can pickle
    a reference to it. Returns only deterministic content."""
    if spec.get("kind") == "experiment":
        module_name, fn_name, _arms = SWEEP_EXPERIMENTS[spec["experiment"]]
        arm_fn = getattr(importlib.import_module(module_name), fn_name)
        report = arm_fn(spec["arm"])
    elif spec.get("kind") == "scenario":
        report = _run_scenario(spec)
    else:
        raise ConfigError(f"sweep point needs kind= in {sorted(spec)}")
    return {
        "name": spec["name"],
        "spec": {k: v for k, v in spec.items() if k != "kind"},
        "report": report.to_dict(),
    }


def run_sweep(points: list[dict], workers: int = 1) -> dict:
    """Fan independent sweep points across worker processes.

    ``workers <= 1`` runs serially in-process (no executor, easiest to
    debug); otherwise a :class:`ProcessPoolExecutor` runs up to
    ``workers`` points concurrently. Completion order is irrelevant:
    results merge sorted by point name, and each point regenerates its
    own seeded trace, so the merged document is byte-identical to the
    serial run's.
    """
    names = [point["name"] for point in points]
    if len(set(names)) != len(names):
        duplicates = sorted({n for n in names if names.count(n) > 1})
        raise ConfigError(f"duplicate sweep point names: {duplicates}")
    if workers <= 1 or len(points) <= 1:
        results = [run_sweep_point(point) for point in points]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(run_sweep_point, point)
                       for point in points]
            results = [future.result() for future in as_completed(futures)]
    results.sort(key=lambda result: result["name"])
    return {"n_points": len(results), "points": results}


def sweep_table(sweep: dict) -> str:
    """Headline metrics of a sweep result, one row per point."""
    from repro.analysis.tables import format_table

    rows = []
    for result in sweep["points"]:
        report = result["report"]
        rows.append([
            result["name"],
            str(report["n_requests"]),
            f"{report['slo_attainment'] * 100:.1f}%",
            f"{report['latency_p99_ms']:.1f}",
            f"{report['throughput_rps']:.0f}",
            str(report["n_shed"]),
            f"{report['total_chip_seconds']:.2f}",
        ])
    return format_table(
        ["point", "served", "SLO", "p99 ms", "req/s", "shed", "chip-s"],
        rows,
    )
