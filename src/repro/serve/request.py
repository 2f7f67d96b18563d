"""Requests and responses of the simulated rendering service.

A :class:`RenderRequest` is one user-facing frame: which scene, which
pipeline, at what resolution, when it arrived, and how quickly it must
complete (its latency SLO). Each request belongs to a
:class:`TenantClass` — the latency contract its user bought: a name, an
SLO multiplier over the request's base SLO, a weight (its share of the
fleet under weighted admission), and a priority tier (lower is more
premium; the dispatcher serves queued tiers strictly in order and
preemption may displace queued work of a higher tier number). A
:class:`RenderResponse` records what the fleet actually did with the
request — where it ran, how long it queued, whether its compiled trace
came from the cache, how many cycles the chip spent reconfiguring for
it, and its QoS history (when its batch was formed, how often it was
preempted, whether it migrated to an autoscaled chip).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import ConfigError

#: Cache/memo key of a compiled frame trace.
TraceKey = tuple[str, str, int, int]


@dataclass(frozen=True)
class TenantClass:
    """One tenant's latency contract with the service.

    ``slo_multiplier`` scales a request's base SLO (an economy tenant
    with multiplier 2 tolerates twice the latency); ``weight`` is the
    tenant's share of fleet capacity under
    :class:`~repro.serve.admission.WeightedAdmission`; ``tier`` is the
    dispatch priority (lower = more premium): queued work is served in
    strict tier order and a premium arrival may preempt a queued — not
    in-flight — batch of a higher tier number.
    """

    name: str
    slo_multiplier: float = 1.0
    weight: float = 1.0
    tier: int = 0

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigError("tenant class needs a name")
        if self.slo_multiplier <= 0:
            raise ConfigError("tenant SLO multiplier must be positive")
        if self.weight <= 0:
            raise ConfigError("tenant weight must be positive")
        if self.tier < 0:
            raise ConfigError("tenant tier cannot be negative")

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "slo_multiplier": self.slo_multiplier,
            "weight": self.weight,
            "tier": self.tier,
        }


#: The single-tenant default: neutral SLO, unit weight, top tier — all
#: pre-tenant behavior (scheduling, admission, goldens) is unchanged
#: when every request carries this class.
DEFAULT_TENANT = TenantClass("default")


@dataclass(frozen=True)
class RenderRequest:
    """One frame requested from the service."""

    request_id: int
    scene: str
    pipeline: str
    width: int
    height: int
    arrival_s: float
    slo_s: float = 0.05  # latency SLO: arrival -> completion deadline
    degraded: bool = False  # admission control moved it to a cheaper pipeline
    tenant: TenantClass = DEFAULT_TENANT

    def __post_init__(self) -> None:
        if self.width < 1 or self.height < 1:
            raise ConfigError("request resolution must be positive")
        if not math.isfinite(self.arrival_s):
            raise ConfigError(f"arrival time must be finite (got {self.arrival_s!r})")
        if self.arrival_s < 0:
            raise ConfigError("arrival time cannot be negative")
        if not math.isfinite(self.slo_s):
            raise ConfigError(f"latency SLO must be finite (got {self.slo_s!r})")
        if self.slo_s <= 0:
            raise ConfigError("latency SLO must be positive")

    @property
    def trace_key(self) -> TraceKey:
        """Key under which the compiled program is cached."""
        return (self.scene, self.pipeline, self.width, self.height)

    @property
    def pixels(self) -> int:
        return self.width * self.height

    @property
    def effective_slo_s(self) -> float:
        """The deadline this request is actually held to: the base SLO
        scaled by its tenant's multiplier (identity for the default)."""
        return self.slo_s * self.tenant.slo_multiplier

    @property
    def tier(self) -> int:
        return self.tenant.tier


@dataclass(slots=True)
class RenderResponse:
    """Service-side record of one completed request.

    Constructed once per served request on the engine's hot path, so it
    is a plain slots dataclass — ``frozen=True`` would route every field
    through ``object.__setattr__`` and make construction ~8x slower.
    Nothing mutates or hashes responses after the engine emits them.
    The engine passes the fields positionally (a 17-keyword call costs
    ~3x a positional one), so their order is part of the contract."""

    request: RenderRequest
    chip_id: int
    batch_id: int
    start_s: float          # when the chip began this frame
    finish_s: float
    cycles: float           # frame cycles (switch cycles excluded)
    switch_cycles: float    # pipeline-switch reconfiguration on the chip
    frame_reconfig_cycles: float  # intra-frame reconfigurations (model)
    energy_j: float
    cache_hit: bool
    # Compile attribution (event engine): simulated compile latency this
    # request triggered, where it ran, and whether a prefetch warmed it.
    compile_s: float = 0.0
    compile_origin: str | None = None  # None | "sync" | "worker" | "prefetch"
    prefetched: bool = False
    # QoS history: when the request's (final) batch was formed, how many
    # times preemption displaced it back into the queue, and whether it
    # ultimately ran on a chip the autoscaler added after a displacement.
    dispatched_s: float = 0.0
    preemptions: int = 0
    migrated: bool = False
    # Chaos history: how many times a chip crash re-queued this request
    # before the attempt that completed (each retry pays the fault
    # plan's checkpoint-rollback cost), and whether this response was
    # won by a hedged duplicate rather than the primary dispatch.
    requeues: int = 0
    hedged: bool = False

    @property
    def service_s(self) -> float:
        """Time on the chip, including the pipeline switch."""
        return self.finish_s - self.start_s

    @property
    def queue_s(self) -> float:
        """Time between arrival and the chip starting the frame."""
        return self.start_s - self.request.arrival_s

    @property
    def latency_s(self) -> float:
        """End-to-end latency the user observes."""
        return self.finish_s - self.request.arrival_s

    @property
    def slo_met(self) -> bool:
        return self.latency_s <= self.request.effective_slo_s

    def to_dict(self) -> dict:
        """JSON-ready summary (for logs and programmatic consumers)."""
        return {
            "request_id": self.request.request_id,
            "scene": self.request.scene,
            "pipeline": self.request.pipeline,
            "resolution": [self.request.width, self.request.height],
            "arrival_s": self.request.arrival_s,
            "slo_s": self.request.slo_s,
            "effective_slo_s": self.request.effective_slo_s,
            "tenant": self.request.tenant.name,
            "tier": self.request.tenant.tier,
            "degraded": self.request.degraded,
            "chip_id": self.chip_id,
            "batch_id": self.batch_id,
            "start_s": self.start_s,
            "finish_s": self.finish_s,
            "queue_s": self.queue_s,
            "latency_s": self.latency_s,
            "cycles": self.cycles,
            "switch_cycles": self.switch_cycles,
            "frame_reconfig_cycles": self.frame_reconfig_cycles,
            "energy_j": self.energy_j,
            "cache_hit": self.cache_hit,
            "compile_s": self.compile_s,
            "compile_origin": self.compile_origin,
            "prefetched": self.prefetched,
            "dispatched_s": self.dispatched_s,
            "preemptions": self.preemptions,
            "migrated": self.migrated,
            "requeues": self.requeues,
            "hedged": self.hedged,
            "slo_met": self.slo_met,
        }
