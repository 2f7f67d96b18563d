"""Admission control and load shedding for the rendering service.

Under overload a queue-everything service answers *every* request late;
an admission policy instead decides, the moment a request arrives,
whether serving it is still worth anything. The event engine hands each
policy its live projection of the request's queue wait — time until a
chip frees plus the backlog ahead of it, scaled by the observed mean
service time, and (when compilation is modelled asynchronously) at
least the remaining compile latency of the request's own trace if it is
still being compiled — and the policy returns one of three outcomes:

* **admit** — enqueue the request unchanged;
* **shed** — reject it now (the client sees a fast failure instead of a
  blown SLO); the scheduler records a :class:`ShedRecord`;
* **degrade** — admit a rewritten request on a cheaper pipeline, trading
  rendering fidelity for latency headroom.

Policies:

* ``admit-all``  — the PR-1 behavior; every request queues.
* ``tail-drop``  — shed once the pending queue exceeds a fixed depth.
* ``slo-shed``   — shed when the projected wait plus one mean service
  time already exceeds the request's SLO budget.
* ``downgrade``  — same trigger as ``slo-shed``, but first try moving
  the request to the cheapest pipeline of a configurable ladder; shed
  only when it is already at the bottom.
* ``weighted``   — multi-tenant weighted admission: the engine budgets
  the projected queue wait *per tenant share* instead of globally. A
  tenant of weight ``w`` is entitled to ``w / total_active_weight`` of
  the fleet; only the tenant's own backlog counts against that share,
  so an economy flood cannot starve a premium tenant's budget, and the
  request is held to its *effective* (tenant-scaled) SLO.

Under a fault plan (:mod:`repro.serve.faults`) the engine's projection
is *fault-aware*: down chips contribute no capacity and each surviving
chip is weighted by its learned effective speed (an EWMA of observed
straggler dilation), so a policy sheds against the fleet that actually
exists, not the one that was provisioned.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

from repro.errors import ConfigError
from repro.serve.request import RenderRequest


@dataclass(frozen=True)
class ShedRecord:
    """One request the service refused to queue."""

    request: RenderRequest
    shed_at_s: float
    reason: str
    projected_wait_s: float

    def to_dict(self) -> dict:
        return {
            "request_id": self.request.request_id,
            "pipeline": self.request.pipeline,
            "arrival_s": self.request.arrival_s,
            "slo_s": self.request.slo_s,
            "shed_at_s": self.shed_at_s,
            "reason": self.reason,
            "projected_wait_s": self.projected_wait_s,
        }


class AdmissionPolicy:
    """Admit every request (the no-op baseline)."""

    name = "admit-all"
    #: Tenant-aware policies receive a *share-normalized* projected wait:
    #: the engine budgets the queue against the tenant's weighted share
    #: of the fleet instead of the global backlog.
    tenant_aware = False
    #: Observability mirrors (class attributes, since several subclasses
    #: never call ``super().__init__``): resolved by :meth:`bind_metrics`,
    #: ``None`` until then so the unobserved path costs nothing.
    _m_admitted = None
    _m_shed = None
    _m_degraded = None

    def bind_metrics(self, registry) -> None:
        """Resolve this policy's verdict counters in an observability
        registry (``admission.<name>.admitted`` / ``.shed`` /
        ``.degraded``)."""
        prefix = f"admission.{self.name}"
        self._m_admitted = registry.counter(f"{prefix}.admitted")
        self._m_shed = registry.counter(f"{prefix}.shed")
        self._m_degraded = registry.counter(f"{prefix}.degraded")

    def note_verdict(self, outcome: str) -> None:
        """Count one verdict ("admitted" / "shed" / "degraded"); a
        degraded request counts as admitted too — it was queued, just
        rewritten. No-op until :meth:`bind_metrics` runs."""
        if self._m_admitted is None:
            return
        if outcome == "shed":
            self._m_shed.inc()
            return
        self._m_admitted.inc()
        if outcome == "degraded":
            self._m_degraded.inc()

    def admit(
        self,
        request: RenderRequest,
        now: float,
        projected_wait_s: float,
        est_service_s: float,
        queue_depth: int,
    ) -> RenderRequest | None:
        """Return the request to enqueue (possibly rewritten) or ``None``
        to shed it."""
        return request


class TailDrop(AdmissionPolicy):
    """Classic bounded queue: shed arrivals once the queue is full."""

    name = "tail-drop"

    def __init__(self, max_queue: int = 32) -> None:
        if max_queue < 1:
            raise ConfigError("tail-drop queue bound must be >= 1")
        self.max_queue = max_queue

    def admit(self, request, now, projected_wait_s, est_service_s, queue_depth):
        if queue_depth >= self.max_queue:
            return None
        return request


class SloShed(AdmissionPolicy):
    """Shed requests whose projected completion already blows the SLO.

    ``margin`` scales the budget: 1.0 sheds exactly at the SLO, < 1.0
    sheds earlier (conservative), > 1.0 lets borderline requests try.
    """

    name = "slo-shed"

    def __init__(self, margin: float = 1.0) -> None:
        if margin <= 0:
            raise ConfigError("slo-shed margin must be positive")
        self.margin = margin

    def admit(self, request, now, projected_wait_s, est_service_s, queue_depth):
        # Decisions are made at the request's arrival instant (the
        # scheduler passes now == arrival_s), so the budget is the SLO
        # (tenant-scaled; identity for the default tenant).
        if projected_wait_s + est_service_s > \
                request.effective_slo_s * self.margin:
            return None
        return request


#: Default fidelity ladder, priciest first. Mesh rasterization is the
#: cheapest frame in the model, so it is the degradation target.
DOWNGRADE_LADDER = ("gaussian", "hashgrid", "mesh")


class Downgrade(SloShed):
    """Degrade-to-cheaper-pipeline before shedding.

    When a request's projected wait blows its SLO budget, rewrite it to
    the cheapest pipeline of ``ladder`` (keeping scene/resolution/SLO);
    only requests already at the bottom of the ladder are shed.
    """

    name = "downgrade"

    def __init__(
        self, margin: float = 1.0, ladder: tuple[str, ...] = DOWNGRADE_LADDER
    ) -> None:
        super().__init__(margin)
        if len(ladder) < 2:
            raise ConfigError("downgrade ladder needs at least two rungs")
        self.ladder = tuple(ladder)

    def admit(self, request, now, projected_wait_s, est_service_s, queue_depth):
        admitted = super().admit(
            request, now, projected_wait_s, est_service_s, queue_depth
        )
        if admitted is not None:
            return admitted
        cheapest = self.ladder[-1]
        if request.pipeline == cheapest or request.pipeline not in self.ladder:
            return None
        return replace(request, pipeline=cheapest, degraded=True)


class WeightedAdmission(SloShed):
    """Per-tenant-share SLO shedding (the multi-tenant QoS policy).

    The decision rule is :class:`SloShed`'s — shed when the projected
    wait plus one mean service time blows the (effective, tenant-scaled)
    SLO budget — but because ``tenant_aware`` is set, the event engine
    hands this policy a *share-normalized* projection: time until a chip
    frees, plus the tenant's **own** queued backlog divided by the slice
    of the fleet its weight entitles it to
    (``n_active_chips * weight / total_active_weight``, where the total
    runs over tenants with work pending plus the arrival's own class).
    A premium tenant with most of the weight therefore keeps admitting
    through an economy flood — the flood inflates only economy's
    projection — while each tenant still sheds once *its own* queue
    outgrows its share.
    """

    name = "weighted"
    tenant_aware = True


#: Registry of admission-policy factories (fresh state per run).
ADMISSION_POLICIES: dict[str, Callable[[], AdmissionPolicy]] = {
    "admit-all": AdmissionPolicy,
    "tail-drop": TailDrop,
    "slo-shed": SloShed,
    "downgrade": Downgrade,
    "weighted": WeightedAdmission,
}


def make_admission_policy(name: str) -> AdmissionPolicy:
    if name not in ADMISSION_POLICIES:
        raise ConfigError(
            f"unknown admission policy {name!r}; "
            f"choose from {sorted(ADMISSION_POLICIES)}"
        )
    return ADMISSION_POLICIES[name]()
