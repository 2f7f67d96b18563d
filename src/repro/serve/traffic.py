"""Deterministic, seeded workload generators for the rendering service.

Each pattern shapes *arrival times*; scenes and pipelines are drawn per
request from the provided sets. All randomness flows through one
``numpy`` generator seeded by the caller, so a (pattern, seed, n)
triple always reproduces the same trace — the property the
policy-comparison experiments and tests rely on.

Patterns (RZBENCH-style scenario diversity):

* ``steady``  — Poisson arrivals at a constant rate.
* ``bursty``  — short high-rate bursts separated by idle gaps.
* ``diurnal`` — sinusoidally modulated rate (a compressed day).
* ``mixed``   — steady arrivals, but every request draws a pipeline
  uniformly from the full set (maximum pipeline churn).
"""

from __future__ import annotations

from dataclasses import replace
from typing import Sequence

import numpy as np

from repro.errors import ConfigError, finite_float
from repro.serve.request import RenderRequest, TenantClass

#: Default request mix: two scenes, three pipelines with distinct
#: PE-array configurations (so pipeline switches actually occur).
DEFAULT_SCENES = ("lego", "room")
DEFAULT_PIPELINES = ("hashgrid", "gaussian", "mesh")
DEFAULT_RESOLUTION = (640, 360)


def _steady_arrivals(n: int, rate_rps: float, rng: np.random.Generator) -> np.ndarray:
    return np.cumsum(rng.exponential(1.0 / rate_rps, n))


def _bursty_arrivals(
    n: int,
    rate_rps: float,
    rng: np.random.Generator,
    burst_size: int = 16,
    burst_rate_factor: float = 10.0,
) -> np.ndarray:
    """Bursts of ``burst_size`` requests at ``burst_rate_factor`` times
    the mean rate, spaced so the long-run rate still averages out."""
    times = []
    t = 0.0
    emitted = 0
    while emitted < n:
        size = min(burst_size, n - emitted)
        gaps = rng.exponential(1.0 / (rate_rps * burst_rate_factor), size)
        for gap in gaps:
            t += gap
            times.append(t)
        emitted += size
        # Idle gap restoring the long-run mean rate.
        t += size / rate_rps * (1.0 - 1.0 / burst_rate_factor)
    return np.array(times)


def _diurnal_arrivals(
    n: int,
    rate_rps: float,
    rng: np.random.Generator,
    period_s: float = 4.0,
    depth: float = 0.8,
) -> np.ndarray:
    """Rate swings sinusoidally between (1-depth) and (1+depth) of the
    mean over ``period_s`` — a day compressed to simulation scale."""
    times = np.empty(n)
    t = 0.0
    for k in range(n):
        local_rate = rate_rps * (1.0 + depth * np.sin(2.0 * np.pi * t / period_s))
        t += rng.exponential(1.0 / max(local_rate, 1e-6))
        times[k] = t
    return times


_ARRIVAL_SHAPES = {
    "steady": _steady_arrivals,
    "bursty": _bursty_arrivals,
    "diurnal": _diurnal_arrivals,
    "mixed": _steady_arrivals,
}

#: Public pattern names, in presentation order.
TRAFFIC_PATTERNS = tuple(_ARRIVAL_SHAPES)


def generate_traffic(
    pattern: str = "steady",
    n_requests: int = 200,
    rate_rps: float = 150.0,
    seed: int = 0,
    scenes: tuple[str, ...] = DEFAULT_SCENES,
    pipelines: tuple[str, ...] = DEFAULT_PIPELINES,
    resolution: tuple[int, int] = DEFAULT_RESOLUTION,
    slo_s: float = 0.05,
    pipeline_run_length: int = 4,
) -> list[RenderRequest]:
    """Build one reproducible request trace.

    ``pipeline_run_length`` models client-side temporal locality —
    consecutive frames of one session use one pipeline — for every
    pattern except ``mixed``, which redraws the pipeline per request
    (worst-case churn for the dispatcher).
    """
    if pattern not in _ARRIVAL_SHAPES:
        raise ConfigError(
            f"unknown traffic pattern {pattern!r}; choose from {TRAFFIC_PATTERNS}"
        )
    if n_requests < 1:
        raise ConfigError("n_requests must be >= 1")
    if rate_rps <= 0:
        raise ConfigError("rate must be positive")
    if not scenes or not pipelines:
        raise ConfigError("need at least one scene and one pipeline")

    rng = np.random.default_rng(seed)
    arrivals = _ARRIVAL_SHAPES[pattern](n_requests, rate_rps, rng)

    run_length = 1 if pattern == "mixed" else max(1, pipeline_run_length)
    requests = []
    current_pipeline = None
    for k in range(n_requests):
        if k % run_length == 0 or current_pipeline is None:
            current_pipeline = pipelines[int(rng.integers(len(pipelines)))]
        requests.append(RenderRequest(
            request_id=k,
            scene=scenes[int(rng.integers(len(scenes)))],
            pipeline=current_pipeline,
            width=resolution[0],
            height=resolution[1],
            arrival_s=float(arrivals[k]),
            slo_s=slo_s,
        ))
    return requests


# ----------------------------------------------------------------------
# Multi-tenant traffic
# ----------------------------------------------------------------------
def parse_tenant_spec(spec: str) -> list[tuple[TenantClass, float]]:
    """Parse a ``--tenants`` string into ``(TenantClass, share)`` pairs.

    Entries are separated by ``;``; each is ``name`` optionally followed
    by ``:key=value,...`` with keys ``tier`` (dispatch priority, lower =
    more premium; defaults to the entry's position), ``weight`` (fleet
    share under weighted admission, default 1), ``slo`` (SLO multiplier
    over the base SLO, default 1), and ``share`` (fraction of offered
    traffic; entries without one split the remainder evenly). Example::

        "premium:tier=0,weight=4,share=0.25;economy:tier=1,slo=2"
    """
    entries: list[tuple[TenantClass, float | None]] = []
    for index, raw in enumerate(spec.split(";")):
        entry = raw.strip()
        if not entry:
            continue
        name, _, body = entry.partition(":")
        name = name.strip()
        if not name:
            raise ConfigError(f"tenant entry {raw!r} has no name")
        fields = {"tier": float(index), "weight": 1.0, "slo": 1.0,
                  "share": None}
        if body:
            for pair in body.split(","):
                key, sep, value = pair.partition("=")
                key = key.strip()
                if not sep or key not in fields:
                    raise ConfigError(
                        f"bad tenant field {pair!r} in {raw!r}; expected "
                        "tier=, weight=, slo=, or share="
                    )
                try:
                    fields[key] = finite_float(value)
                except ValueError as err:
                    raise ConfigError(
                        f"tenant field {pair!r} in {raw!r} is not a number: "
                        f"{err}") from err
        tier = fields["tier"]
        if tier != int(tier):
            raise ConfigError(
                f"tenant tier must be an integer in {raw!r} (got {tier:g})")
        tenant = TenantClass(
            name=name,
            slo_multiplier=fields["slo"],
            weight=fields["weight"],
            tier=int(tier),
        )
        entries.append((tenant, fields["share"]))
    if not entries:
        raise ConfigError(f"tenant spec {spec!r} describes no tenants")
    names = [tenant.name for tenant, _ in entries]
    if len(set(names)) != len(names):
        raise ConfigError(f"tenant spec {spec!r} repeats a tenant name")

    explicit = sum(share for _, share in entries if share is not None)
    free = [k for k, (_, share) in enumerate(entries) if share is None]
    if explicit > 1.0 + 1e-9 or (not free and abs(explicit - 1.0) > 1e-9):
        raise ConfigError(
            f"tenant shares in {spec!r} must sum to 1 (got {explicit:g})")
    if any(share is not None and share <= 0 for _, share in entries):
        raise ConfigError(f"tenant shares in {spec!r} must be positive")
    leftover = (1.0 - explicit) / len(free) if free else 0.0
    if free and leftover <= 0:
        raise ConfigError(
            f"tenant spec {spec!r} leaves no traffic share for "
            f"{[names[k] for k in free]}")
    return [
        (tenant, leftover if share is None else share)
        for tenant, share in entries
    ]


def generate_tenant_traffic(
    tenants: str | Sequence[tuple[TenantClass, float]],
    pattern: str = "steady",
    n_requests: int = 200,
    rate_rps: float = 150.0,
    seed: int = 0,
    overrides: dict[str, dict] | None = None,
    **shared,
) -> list[RenderRequest]:
    """One reproducible multi-tenant trace: per-tenant streams, merged.

    Every tenant gets its ``share`` of the request count and offered
    rate, generated as its own :func:`generate_traffic` stream from a
    seed derived deterministically from ``(seed, tenant index)`` and
    tagged with its :class:`TenantClass`; ``overrides`` maps a tenant
    name to per-tenant :func:`generate_traffic` keyword overrides (its
    own pattern, scenes, SLO, ...). The streams are merged by arrival
    time and re-numbered, so request ids stay globally unique and
    arrival-ordered.
    """
    mix = parse_tenant_spec(tenants) if isinstance(tenants, str) else list(tenants)
    if not mix:
        raise ConfigError("need at least one tenant class")
    total_share = sum(share for _, share in mix)
    if abs(total_share - 1.0) > 1e-9:
        raise ConfigError(
            f"tenant shares must sum to 1 (got {total_share:g})")
    overrides = overrides or {}
    unknown = set(overrides) - {tenant.name for tenant, _ in mix}
    if unknown:
        raise ConfigError(f"traffic overrides for unknown tenants {sorted(unknown)}")
    for name, extra in overrides.items():
        reserved = {"n_requests", "seed"} & set(extra)
        if reserved:
            raise ConfigError(
                f"override for tenant {name!r} may not set {sorted(reserved)}; "
                "request counts come from shares and seeds are derived"
            )

    merged: list[tuple[float, int, int, RenderRequest]] = []
    remaining = n_requests
    for index, (tenant, share) in enumerate(mix):
        if index == len(mix) - 1:
            n_tenant = remaining  # last class absorbs rounding residue
        else:
            n_tenant = min(remaining, max(1, round(n_requests * share)))
        remaining -= n_tenant
        if n_tenant < 1:
            raise ConfigError(
                f"tenant {tenant.name!r} gets no requests at share {share:g}; "
                "raise n_requests"
            )
        kwargs = dict(pattern=pattern, rate_rps=rate_rps * share, **shared)
        kwargs.update(overrides.get(tenant.name, {}))
        stream = generate_traffic(
            n_requests=n_tenant,
            seed=seed * 1_000_003 + index,
            **kwargs,
        )
        for request in stream:
            merged.append(
                (request.arrival_s, index, request.request_id,
                 replace(request, tenant=tenant)))
    merged.sort(key=lambda item: item[:3])
    return [
        replace(request, request_id=new_id)
        for new_id, (_, _, _, request) in enumerate(merged)
    ]
