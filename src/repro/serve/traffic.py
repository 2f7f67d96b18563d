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

A stream is computed as columns first — arrivals, a scene index and a
pipeline index per request (:func:`_draw_stream`) — and each
:class:`RenderRequest` is then built once, with its final id and
tenant. The columns reproduce, bit for bit, the per-request scalar
draws the generators were first written with (``rng.exponential`` per
step, ``rng.integers(len(...))`` per scene and pipeline choice), so
traces are unchanged; ``tests/test_serve_traffic.py`` pins them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from repro.errors import ConfigError, finite_float
from repro.serve.request import DEFAULT_TENANT, RenderRequest, TenantClass

#: Default request mix: two scenes, three pipelines with distinct
#: PE-array configurations (so pipeline switches actually occur).
DEFAULT_SCENES = ("lego", "room")
DEFAULT_PIPELINES = ("hashgrid", "gaussian", "mesh")
DEFAULT_RESOLUTION = (640, 360)


def _steady_arrivals(n: int, rate_rps: float, rng: np.random.Generator) -> np.ndarray:
    arrivals = rng.exponential(1.0 / rate_rps, n)
    return np.cumsum(arrivals, out=arrivals)


def _bursty_arrivals(
    n: int,
    rate_rps: float,
    rng: np.random.Generator,
    burst_size: int = 16,
    burst_rate_factor: float = 10.0,
) -> np.ndarray:
    """Bursts of ``burst_size`` requests at ``burst_rate_factor`` times
    the mean rate, spaced so the long-run rate still averages out.

    Every gap has one scale, so they are drawn in one call; each burst
    is then summed in place from the running clock, in the same order
    as a scalar ``t += gap`` loop."""
    arrivals = rng.exponential(1.0 / (rate_rps * burst_rate_factor), n)
    t = 0.0
    for start in range(0, n, burst_size):
        burst = arrivals[start:start + burst_size]
        burst[0] += t
        np.cumsum(burst, out=burst)
        # Idle gap restoring the long-run mean rate.
        t = burst[-1] + len(burst) / rate_rps * (1.0 - 1.0 / burst_rate_factor)
    return arrivals


def _diurnal_arrivals(
    n: int,
    rate_rps: float,
    rng: np.random.Generator,
    period_s: float = 4.0,
    depth: float = 0.8,
) -> np.ndarray:
    """Rate swings sinusoidally between (1-depth) and (1+depth) of the
    mean over ``period_s`` — a day compressed to simulation scale.

    The clock is sequential (each gap's rate depends on the time it
    starts at), but the unit exponentials are drawn in one call:
    ``rng.exponential(scale)`` is ``scale * standard_exponential()``."""
    arrivals = rng.standard_exponential(n)
    t = 0.0
    for k, unit in enumerate(arrivals.tolist()):
        local_rate = rate_rps * (1.0 + depth * np.sin(2.0 * np.pi * t / period_s))
        t += (1.0 / max(local_rate, 1e-6)) * unit
        arrivals[k] = t
    return arrivals


_ARRIVAL_SHAPES = {
    "steady": _steady_arrivals,
    "bursty": _bursty_arrivals,
    "diurnal": _diurnal_arrivals,
    "mixed": _steady_arrivals,
}

#: Public pattern names, in presentation order.
TRAFFIC_PATTERNS = tuple(_ARRIVAL_SHAPES)

#: Largest number of bounded draws resolved per vectorized step. Keeps
#: the draw temporaries small (a few hundred KB) whatever the trace size.
_DRAW_BLOCK = 1 << 14


def _bounded_draws(rng: np.random.Generator, ranges) -> np.ndarray:
    """``[int(rng.integers(r)) for r in ranges]`` as one array, taking
    exactly the same values from ``rng``'s stream (``1 <= r < 2**32``).

    NumPy draws ``integers(r)`` with Lemire's method on one 32-bit value
    ``u``: ``m = u * r``; the draw is ``m >> 32`` unless the low word
    of ``m`` falls below ``2**32 % r``, in which case ``u`` is rejected
    and the draw retries on the next 32-bit value. A range of 1 draws 0
    and consumes nothing. So the values come from bulk 32-bit draws,
    paired with the pending draws in order; at a rejection the pairing
    shifts by one value and the loop resumes at the rejected draw.
    """
    ranges = np.asarray(ranges)
    out = np.zeros(len(ranges), dtype=np.uint32)
    for start in range(0, len(ranges), _DRAW_BLOCK):
        block = ranges[start:start + _DRAW_BLOCK].astype(np.uint64)
        slots = np.flatnonzero(block > 1)
        bounds = block[slots]
        thresholds = (1 << 32) % bounds
        values = np.empty(0, dtype=np.uint32)
        while slots.size:
            values = np.concatenate((values, rng.integers(
                0, 2**32 - 1, size=slots.size - values.size,
                dtype=np.uint32, endpoint=True)))
            scaled = values * bounds
            rejected = np.flatnonzero((scaled & 0xFFFFFFFF) < thresholds)
            accepted = rejected[0] if rejected.size else slots.size
            out[start + slots[:accepted]] = scaled[:accepted] >> 32
            slots, bounds, thresholds = (
                slots[accepted:], bounds[accepted:], thresholds[accepted:])
            values = values[accepted + 1:]
    return out


def _positive_finite(field: str, value) -> None:
    try:
        finite_float(value)
    except (TypeError, ValueError) as err:
        raise ConfigError(
            f"traffic {field} must be a finite number (got {value!r})") from err
    if value <= 0:
        raise ConfigError(f"traffic {field} must be positive (got {value!r})")


def _check_seed(seed) -> None:
    try:
        np.random.SeedSequence(seed)
    except (TypeError, ValueError) as err:
        raise ConfigError(
            f"traffic seed must be a non-negative integer (got {seed!r})"
        ) from err


@dataclass(frozen=True)
class _Stream:
    """One stream as columns, plus what turns a row into a request."""

    arrivals: np.ndarray
    scene_idx: np.ndarray
    pipeline_idx: np.ndarray
    scenes: tuple[str, ...]
    pipelines: tuple[str, ...]
    resolution: tuple[int, int]
    slo_s: float

    def requests(self, ids: Iterable[int],
                 tenant: TenantClass = DEFAULT_TENANT) -> list[RenderRequest]:
        """One :class:`RenderRequest` per row, row ``k`` getting the
        ``k``-th id."""
        scenes, pipelines, slo_s = self.scenes, self.pipelines, self.slo_s
        width, height = self.resolution
        return [
            RenderRequest(request_id, scenes[scene], pipelines[pipeline],
                          width, height, arrival, slo_s, False, tenant)
            for request_id, arrival, scene, pipeline in zip(
                ids, self.arrivals.tolist(), self.scene_idx.tolist(),
                self.pipeline_idx.tolist())
        ]


def _draw_stream(
    n_requests: int,
    seed: int,
    pattern: str,
    rate_rps: float,
    scenes: tuple[str, ...] = DEFAULT_SCENES,
    pipelines: tuple[str, ...] = DEFAULT_PIPELINES,
    resolution: tuple[int, int] = DEFAULT_RESOLUTION,
    slo_s: float = 0.05,
    pipeline_run_length: int = 4,
) -> _Stream:
    """The columns helper behind every generator: one stream's arrivals,
    scene index and pipeline index.

    The draws keep the scalar generator's interleaved order — for each
    request, its pipeline (when a new run starts) and then its scene —
    so the ``k``-th draw of the bulk call is the ``k``-th scalar draw.
    """
    if pattern not in _ARRIVAL_SHAPES:
        raise ConfigError(
            f"unknown traffic pattern {pattern!r}; choose from {TRAFFIC_PATTERNS}"
        )
    if n_requests < 1:
        raise ConfigError("n_requests must be >= 1")
    _positive_finite("rate_rps", rate_rps)
    _positive_finite("slo_s", slo_s)
    _check_seed(seed)
    if not scenes or not pipelines:
        raise ConfigError("need at least one scene and one pipeline")

    rng = np.random.default_rng(seed)
    arrivals = _ARRIVAL_SHAPES[pattern](n_requests, rate_rps, rng)

    run_length = 1 if pattern == "mixed" else max(1, pipeline_run_length)
    # Request k * run_length draws its run's pipeline first, so the
    # pipeline draws sit every run_length + 1 slots from slot 0.
    n_draws = n_requests + -(-n_requests // run_length)
    is_pipeline = np.zeros(n_draws, dtype=bool)
    is_pipeline[::run_length + 1] = True
    ranges = np.full(n_draws, len(scenes), dtype=np.uint32)
    ranges[is_pipeline] = len(pipelines)
    draws = _bounded_draws(rng, ranges)
    # A run longer than the trace has one pipeline draw; repeating it
    # n_requests times (not run_length) keeps a huge run length cheap.
    pipeline_idx = np.repeat(draws[is_pipeline],
                             min(run_length, n_requests))[:n_requests]
    return _Stream(arrivals, draws[~is_pipeline], pipeline_idx,
                   tuple(scenes), tuple(pipelines), resolution, slo_s)


def _merge_ranks(arrivals: Sequence[np.ndarray]) -> list[np.ndarray]:
    """Each request's position in the merge of arrival-sorted streams
    ordered by ``(arrival, stream index, position in stream)``.

    A request of stream ``s`` follows every earlier request of its own
    stream, the requests of lower-indexed streams arriving no later,
    and those of higher-indexed streams arriving strictly earlier — one
    ``searchsorted`` per pair of streams, no concatenated sort.
    """
    ranks = []
    for index, column in enumerate(arrivals):
        rank = np.arange(len(column))
        for other_index, other in enumerate(arrivals):
            if other_index != index:
                rank += np.searchsorted(
                    other, column,
                    side="right" if other_index < index else "left")
        ranks.append(rank)
    return ranks


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
    (worst-case churn for the dispatcher). A rate or SLO that is not a
    finite positive number, or a seed that is not a non-negative
    integer, raises :class:`ConfigError` naming the field.
    """
    stream = _draw_stream(
        n_requests, seed, pattern, rate_rps, scenes=scenes,
        pipelines=pipelines, resolution=resolution, slo_s=slo_s,
        pipeline_run_length=pipeline_run_length)
    return stream.requests(range(n_requests))


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
    time (ties: lower tenant index first) and numbered in that order,
    so request ids stay globally unique and arrival-ordered.
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
    _check_seed(seed)

    streams: list[tuple[TenantClass, _Stream]] = []
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
        streams.append((tenant, _draw_stream(
            n_tenant, seed * 1_000_003 + index, **kwargs)))
    ranks = _merge_ranks([stream.arrivals for _, stream in streams])
    merged: list[RenderRequest] = [None] * n_requests
    for (tenant, stream), rank in zip(streams, ranks):
        for request in stream.requests(rank.tolist(), tenant):
            merged[request.request_id] = request
    return merged
