"""The unified discrete-event engine of the rendering service.

One event loop (:meth:`EventEngine._run_loop`) drives the whole serving
stack — *arrival*, *compile-done*, *chip-free* and *scale-tick* events,
plus crash, recovery and hedge-settle events under chaos. Every
configuration runs through it; :class:`ServeCluster`,
:class:`Autoscaler`, :class:`AdmissionPolicy`, and
:class:`PipelineBatcher` all plug into it:

* **arrival** — the admission policy rules on the request at its
  arrival instant (projections now include any compile backlog its
  trace would wait on); admitted requests join an indexed pending
  structure (per-pipeline lanes plus an arrival-ordered anchor queue,
  so batch formation is O(batch), not O(queue)).
* **compile-done** — compilation is a first-class resource: a cache
  miss enqueues work on a pool of compile workers whose deterministic,
  program-size-derived latency (:class:`CompileLatencyModel`) overlaps
  chip execution in simulated time. Requests whose trace is still
  compiling simply aren't dispatchable yet; everything else flows
  around them.
* **chip-free** — a chip finishing its batch wakes the dispatcher,
  which coalesces queued same-pipeline *ready* requests and places the
  batch through the cluster's sharding policy.
* **scale-tick** — the autoscaler observes queue depth and windowed SLO
  attainment at event boundaries and when the service goes idle, and
  may flex the fleet (new chips schedule their own warm-up-complete
  chip-free event).

Cross-request **trace prefetch** rides the same machinery: a
per-session first-order Markov model over pipeline transitions (with a
recency-cross-product fallback while it is still cold) predicts each
live session's next trace keys, and idle compile workers warm the cache
with them so a future miss becomes a hit. Accuracy counters (issued /
hits / waste, plus the model's own forecast score) land in the serving
report.

The **predictive serving layer** plugs in at two more points: a
persistent :class:`~repro.serve.trace_library.TraceLibrary` warm-starts
the trace cache from a previous run's compiled-trace metadata before
the first arrival and absorbs updated stats at shutdown (a restarted
service skips the cold-miss storm), and a ``mode="predictive"``
:class:`~repro.serve.autoscaler.Autoscaler` is fed every offered
arrival plus a traffic-weighted service-time EWMA so it can provision
the fleet one warm-up ahead of the arrival-rate trend instead of
trailing it.

The pricing hot path is vectorized: every distinct (trace, chip config)
pair is simulated exactly once into the trace cache's
:class:`~repro.serve.trace_cache.CostTable` — plain-float rows for the
event loop, NumPy columns for analysis — so a 100k-request fleet
simulation prices frames in O(distinct traces), and runs that share a
cache never price a pair twice.

Multi-tenant QoS rides the same loop: the pending index keeps one
master queue *per priority tier* (queued premium work always anchors
before economy; batches never mix tiers), weighted admission budgets
each arrival's projected wait against its tenant's share of the fleet
(the index keeps the per-tenant backlog it reads), and ``preempt=True``
adds dispatch-ahead staging — the next batch is pre-assigned to each
busy chip but stays *queued* until the chip frees, so a premium arrival
can displace a staged economy batch back into its pipeline lane (and
displaced work may migrate to a chip the autoscaler warmed in the
meantime).

Each optional feature's state has one owner that exists only when the
feature is armed: the pending index owns the tenant backlog,
:class:`_Hedging` owns the hedge pairs and their counters, and
:class:`_Faults` owns the fault plan, crash limbo and fault counters.
An unarmed feature costs one ``None`` check per site.

With ``compile_workers=0`` and no latency model the engine reproduces
the synchronous baseline event-for-event and bit-for-bit: the golden
percentile tables in ``tests/test_serve_golden.py`` pin that
equivalence — and with a single (default) tenant class the QoS
structures degenerate to the old global FIFO, event for event.
"""

from __future__ import annotations

import heapq
import math
import operator
import time
import zlib
from collections import deque
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Container, Iterable, Iterator, Optional, Sequence

from repro.core.config import CompileLatencyModel
from repro.core.simulator import FrameResult
from repro.errors import ConfigError, SimulationError
from repro.obs.observer import Observer, resolve_observer
from repro.serve.admission import AdmissionPolicy, ShedRecord
from repro.serve.autoscaler import Autoscaler
from repro.serve.batcher import Batch, PipelineBatcher
from repro.serve.cluster import ChipState, ServeCluster
from repro.serve.faults import (FailedRecord, FaultPlan, HedgePolicy,
                                resolve_faults, resolve_hedge)
from repro.serve.metrics import ServiceReport, publish_report
from repro.serve.request import RenderRequest, RenderResponse, TraceKey
# CostTable lives with the cache that owns it; it is re-exported here
# as the engine's pricing boundary.
from repro.serve.trace_cache import CostTable, TraceCache
from repro.serve.trace_library import TraceLibrary

#: EWMA smoothing for the observed mean service time (admission input).
_SERVICE_EWMA_ALPHA = 0.2

#: Slower EWMA for the forecast capacity model: per-response service
#: times swing by the pipeline cost ratio (~8x on the default mix), and
#: a capacity estimate that rides those swings makes the predictive
#: autoscaler's desired fleet flap between its bounds.
_FORECAST_EWMA_ALPHA = 0.05

#: Event kinds, in same-timestamp processing order: arrivals ingest
#: before compile completions land, before freed chips trigger dispatch,
#: before the autoscaler's idle tick.
#:
#: **Tie-break contract** (pinned in ``tests/test_serve_engine.py``):
#: events sort by the full heap tuple ``(t, kind, seq)``. At one
#: instant, *kind* decides first — every arrival precedes every
#: compile-done, which precedes every chip-free, and so on down this
#: list — and within one kind, ``_event_seq`` issue order decides.
#: Arrivals take seqs ``0..n-1`` from their ``(arrival_s, request_id)``
#: sort, so same-instant arrivals always ingest in request-id order;
#: every dynamically pushed event takes the next monotonic seq. Any
#: coalescing of same-timestamp work (the batched-arrival loops below)
#: must preserve exactly this order or the frozen goldens shift.
_ARRIVAL = 0
_COMPILE_DONE = 1
_CHIP_FREE = 2
_SCALE_TICK = 3
# Chaos events (fault injection & hedging): crash/recover points of an
# attached FaultPlan enter the heap at init; a hedge-settle event fires
# at each hedged copy's finish so first-completion-wins resolves in
# event order, never by peeking ahead.
_CHIP_CRASH = 4
_CHIP_RECOVER = 5
_HEDGE_SETTLE = 6

#: EWMA smoothing for the per-chip effective-speed model (fault mode
#: only): admission's projected-wait capacity tracks observed straggler
#: dilation with this gain instead of reading the plan like an oracle.
_SPEED_EWMA_ALPHA = 0.3


#: Pricing-time ingest record of a request that never went through
#: async ingest (a hedge clone): a miss, no prefetch, no compile charge.
_NOT_INGESTED = (False, False, None)

#: The canonical arrival sort key (and arrival-seq assignment) —
#: ``(arrival_s, request_id)`` as a C-implemented attrgetter.
_arrival_order = operator.attrgetter("arrival_s", "request_id")


# ----------------------------------------------------------------------
# Compile workers
# ----------------------------------------------------------------------
@dataclass
class CompileWorkerStats:
    """Lifetime counters of one worker pool."""

    demand_jobs: int = 0
    prefetch_jobs: int = 0
    busy_s: float = 0.0          # simulated worker-seconds spent compiling
    demand_wait_s: float = 0.0   # simulated queueing before a demand compile

    @property
    def jobs(self) -> int:
        return self.demand_jobs + self.prefetch_jobs

    def to_dict(self) -> dict:
        return {
            "jobs": self.jobs,
            "demand_jobs": self.demand_jobs,
            "prefetch_jobs": self.prefetch_jobs,
            "busy_s": self.busy_s,
            "demand_wait_s": self.demand_wait_s,
        }


class CompileWorkerPool:
    """A fixed pool of compile workers with deterministic placement.

    Jobs go to the worker that frees earliest (ties to the lowest
    index); each occupies its worker for the model's simulated latency.
    Prefetch jobs are only submitted when a worker is idle *right now*
    (see :meth:`idle_count`), so warming the cache never delays demand
    compiles that are already queued.
    """

    def __init__(self, n_workers: int) -> None:
        if n_workers < 1:
            raise ConfigError("compile pool needs at least one worker")
        self.n_workers = n_workers
        self._free_at = [0.0] * n_workers
        self.stats = CompileWorkerStats()
        # Placement of the most recent submit (worker index and start
        # instant) — read by the engine's compile-span instrumentation.
        self.last_worker = 0
        self.last_start = 0.0

    def submit(self, now: float, latency_s: float, demand: bool) -> float:
        """Assign a compile job; returns its completion time."""
        worker = min(range(self.n_workers), key=lambda w: (self._free_at[w], w))
        start = max(now, self._free_at[worker])
        done = start + latency_s
        self._free_at[worker] = done
        self.last_worker = worker
        self.last_start = start
        self.stats.busy_s += latency_s
        if demand:
            self.stats.demand_jobs += 1
            self.stats.demand_wait_s += start - now
        else:
            self.stats.prefetch_jobs += 1
        return done

    def idle_count(self, now: float) -> int:
        """Workers that could start a job immediately."""
        return sum(1 for free in self._free_at if free <= now)


# ----------------------------------------------------------------------
# Cross-request trace prefetch
# ----------------------------------------------------------------------
class _KeyUnion:
    """Membership over several containers (the prefetcher's skip set)."""

    __slots__ = ("containers",)

    def __init__(self, *containers) -> None:
        self.containers = containers

    def __contains__(self, key) -> bool:
        return any(key in container for container in self.containers)


class TracePrefetcher:
    """Predicts upcoming trace keys from recent traffic.

    The predictor is a per-session first-order Markov model over
    pipeline transitions: each (scene, resolution) pair is one client
    session, and every demanded key updates the transition count from
    the session's previous pipeline to its current one. Candidates are
    each live session's likeliest *next* pipelines, sessions most
    recently active first — a client that keeps flipping *hashgrid* to
    *gaussian* mid-session will get its gaussian trace warmed the
    moment it touches hashgrid again. Ties between equally likely
    transitions break through a ``seed``-keyed deterministic hash, so a
    seed pins the full prediction order.

    Below ``min_observations`` recorded transitions the model has no
    statistics worth trusting and falls back to the recency
    cross-product predictor (distinct recent scenes x pipelines x
    resolutions, most recent first).

    Candidates already resident or in flight are skipped — by the
    engine *and* by :meth:`candidates` itself when given the cache
    (``resident=``): a prefetch recorded for an already-cached trace
    would count that trace's next demand hit as prefetcher skill, which
    a warm-started cache would turn into systematic accuracy inflation.
    Everything issued, later used, or never used is counted
    (accuracy = hits / issued), and the model additionally scores its
    own per-session forecasts (predictor_accuracy = correct /
    predictions) so the report separates prediction quality from
    prefetch-pipeline plumbing.
    """

    def __init__(
        self,
        history: int = 32,
        max_candidates: int = 8,
        min_observations: int = 8,
        seed: int = 0,
    ) -> None:
        if history < 1 or max_candidates < 1:
            raise ConfigError("prefetcher history/candidates must be >= 1")
        if min_observations < 1:
            raise ConfigError("prefetcher min_observations must be >= 1")
        self.history = history
        self.max_candidates = max_candidates
        self.min_observations = min_observations
        self.seed = seed
        self._recent: deque[TraceKey] = deque(maxlen=history)
        # Markov state: one current pipeline per live session and the
        # global first-order transition counts between pipelines.
        self._session_pipeline: dict[tuple[str, int, int], str] = {}
        self._transitions: dict[str, dict[str, int]] = {}
        self._n_transitions = 0
        self.issued = 0
        self.hits = 0            # issued keys later demanded at least once
        self.predictions = 0     # transitions the model forecast in advance
        self.correct = 0         # ... whose top guess matched the demand
        self._unused: set[TraceKey] = set()

    # -- signal intake --------------------------------------------------
    def observe(self, key: TraceKey) -> None:
        """Record one demanded trace key (one step of its session)."""
        scene, pipeline, width, height = key
        session = (scene, width, height)
        previous = self._session_pipeline.get(session)
        if previous is not None:
            # Score the forecast this transition just resolved, then
            # learn from it — the model never grades itself on a
            # transition it has already seen.
            guess = self._predict(previous)
            if guess is not None:
                self.predictions += 1
                self.correct += guess == pipeline
            row = self._transitions.setdefault(previous, {})
            row[pipeline] = row.get(pipeline, 0) + 1
            self._n_transitions += 1
        self._session_pipeline[session] = pipeline
        self._recent.append(key)

    def is_unused(self, key: TraceKey) -> bool:
        """True while a prefetched ``key`` has not served a demand yet."""
        return key in self._unused

    def note_use(self, key: TraceKey) -> None:
        """A demand request reached a prefetched trace (first use only)."""
        if key in self._unused:
            self._unused.discard(key)
            self.hits += 1

    def note_issue(self, key: TraceKey) -> None:
        self.issued += 1
        self._unused.add(key)

    def note_demand_compile(self, key: TraceKey) -> None:
        """A demand miss had to compile ``key`` from scratch: any
        prefetched copy was evicted unused, so a later hit on the
        demand-compiled entry must not be credited to the prefetcher."""
        self._unused.discard(key)

    # -- prediction -----------------------------------------------------
    def _tiebreak(self, pipeline: str) -> int:
        """Seed-keyed deterministic rank for equally weighted choices."""
        return zlib.crc32(f"{self.seed}:{pipeline}".encode())

    def _ranked(self, pipeline: str) -> list[str]:
        """Next pipelines after ``pipeline``, likeliest first."""
        row = self._transitions.get(pipeline)
        if not row:
            return []
        return sorted(row, key=lambda nxt: (-row[nxt], self._tiebreak(nxt)))

    def _predict(self, pipeline: str) -> Optional[str]:
        """The model's single best next-pipeline guess (None when the
        model is still below its observation threshold or has never
        seen ``pipeline`` lead anywhere)."""
        if self._n_transitions < self.min_observations:
            return None
        ranked = self._ranked(pipeline)
        return ranked[0] if ranked else None

    def transition_weights(self, pipeline: str) -> dict[str, int]:
        """Observed transition counts out of ``pipeline`` (a copy)."""
        return dict(self._transitions.get(pipeline, {}))

    def candidates(
        self, resident: Optional[Container[TraceKey]] = None
    ) -> list[TraceKey]:
        """Predicted keys, most promising first (deterministic).

        ``resident`` filters out keys that are already cached *before*
        they consume candidate slots — prefetching them would be free
        accuracy (see the class docstring), and on a warm-started cache
        a post-hoc filter would return an empty list while genuinely
        missing, deeper predictions still exist.
        """
        if self._n_transitions < self.min_observations:
            return self._recency_candidates(resident)
        return self._markov_candidates(resident)

    def _markov_candidates(
        self, resident: Optional[Container[TraceKey]]
    ) -> list[TraceKey]:
        """Each live session's ranked next keys, breadth-first: every
        session's best guess before any session's second guess,
        sessions most recently active first."""
        ranked_by_session: list[tuple[tuple[str, int, int], list[str]]] = []
        seen: set[tuple[str, int, int]] = set()
        for scene, _pipeline, width, height in reversed(self._recent):
            session = (scene, width, height)
            if session in seen:
                continue
            seen.add(session)
            ranked = self._ranked(self._session_pipeline[session])
            if ranked:
                ranked_by_session.append((session, ranked))
        out: list[TraceKey] = []
        emitted: set[TraceKey] = set()
        depth = 0
        while len(out) < self.max_candidates:
            any_left = False
            for (scene, width, height), ranked in ranked_by_session:
                if depth >= len(ranked):
                    continue
                any_left = True
                key = (scene, ranked[depth], width, height)
                if key in emitted or (resident is not None
                                      and key in resident):
                    continue
                emitted.add(key)
                out.append(key)
                if len(out) >= self.max_candidates:
                    return out
            if not any_left:
                break
            depth += 1
        return out

    def _recency_candidates(
        self, resident: Optional[Container[TraceKey]] = None
    ) -> list[TraceKey]:
        """Cold-start fallback: cross distinct recent scenes, pipelines,
        and resolutions, most recent first."""
        scenes: list[str] = []
        pipelines: list[str] = []
        resolutions: list[tuple[int, int]] = []
        for scene, pipeline, width, height in reversed(self._recent):
            if scene not in scenes:
                scenes.append(scene)
            if pipeline not in pipelines:
                pipelines.append(pipeline)
            if (width, height) not in resolutions:
                resolutions.append((width, height))
        out: list[TraceKey] = []
        for pipeline in pipelines:
            for scene in scenes:
                for width, height in resolutions:
                    key = (scene, pipeline, width, height)
                    if resident is not None and key in resident:
                        continue
                    out.append(key)
                    if len(out) >= self.max_candidates:
                        return out
        return out

    # -- reporting ------------------------------------------------------
    @property
    def waste(self) -> int:
        """Prefetches that never served a demand request."""
        return self.issued - self.hits

    @property
    def accuracy(self) -> float:
        return self.hits / self.issued if self.issued else 0.0

    @property
    def predictor_accuracy(self) -> float:
        """Fraction of scored session transitions whose top guess was
        right — the Markov model's quality, independent of whether the
        compile pool had idle capacity to act on it."""
        return self.correct / self.predictions if self.predictions else 0.0

    def to_dict(self) -> dict:
        return {
            "issued": self.issued,
            "hits": self.hits,
            "waste": self.waste,
            "accuracy": self.accuracy,
            "predictions": self.predictions,
            "correct": self.correct,
            "predictor_accuracy": self.predictor_accuracy,
        }


def response_timeline(
    response: RenderResponse,
    result: FrameResult,
    width: int = 60,
) -> str:
    """Per-phase timeline of one served frame, compile phase included.

    Wraps :meth:`FrameResult.timeline` with the serving-side context:
    when the request triggered (or waited on) a compile, that phase
    appears as its own labelled bar ahead of the frame's phases — tagged
    ``sync``, ``worker``, or ``prefetch`` by where the compile ran.
    """
    clock_hz = result.fps * result.cycles  # fps == clock / cycles
    if not (clock_hz > 0.0 and math.isfinite(clock_hz)):
        clock_hz = 1e9  # zero-cycle hand-built frame: assume 1 GHz
    compile_cycles = response.compile_s * clock_hz
    return result.timeline(
        width=width,
        compile_cycles=compile_cycles,
        compile_label=response.compile_origin or "compile",
    )


# ----------------------------------------------------------------------
# Pending-queue index
# ----------------------------------------------------------------------
class _PendingIndex:
    """Arrival-ordered queue with per-(tier, pipeline) lanes and O(1)
    counters.

    Per-tier ``masters`` preserve the head-of-line anchor *within each
    priority tier* — the anchor scan walks tiers most-premium first, so
    queued premium work always dispatches ahead of queued economy work
    (with a single tenant class every request lands in one tier and the
    structure degenerates to the old global FIFO, event for event).
    Per-(tier, pipeline) lanes give batch formation its same-pipeline,
    same-tier followers without scanning the whole queue — or the other
    tiers' requests of the same pipeline; the per-pipeline counters give
    admission its backlog projection without iterating pending requests.
    Dispatched requests are removed lazily — each structure consumes its
    own tombstone set, so a request dropped from one is still recognized
    by the other. :meth:`restore` is the preemption path's inverse of
    :meth:`take`: displaced (never-started) batch members re-enter every
    structure in original arrival order.

    With ``tenant_aware`` (weighted admission) the index also keeps each
    tenant's queued count per pipeline, and the tenant's weight, through
    the same push / take / restore / cancel calls that move requests —
    so the backlog signal can never drift from the queue it describes.
    """

    def __init__(self, tenant_aware: bool = False) -> None:
        self.masters: dict[int, deque[RenderRequest]] = {}
        self._tiers: list[int] = []       # sorted keys of ``masters``
        #: tier -> pipeline -> lane
        self.lanes: dict[int, dict[str, deque[RenderRequest]]] = {}
        self.counts: dict[str, int] = {}
        self.n_pending = 0
        self._gone_master: set[int] = set()
        self._gone_lane: set[int] = set()
        #: tenant name -> pipeline -> queued count (``None`` unless
        #: tenant-aware); weights in first-seen tenant order.
        self.tenant_counts: Optional[dict[str, dict[str, int]]] = (
            {} if tenant_aware else None)
        self.tenant_weight: dict[str, float] = {}

    def _count_tenants(self, requests: Iterable[RenderRequest],
                       delta: int) -> None:
        counts = self.tenant_counts
        for request in requests:
            tenant = request.tenant
            per = counts.get(tenant.name)
            if per is None:
                per = counts[tenant.name] = {}
                self.tenant_weight[tenant.name] = tenant.weight
            per[request.pipeline] = per.get(request.pipeline, 0) + delta

    def _lane(self, tier: int, pipeline: str) -> deque[RenderRequest]:
        """The (tier, pipeline) lane, created on first use (with its
        tier's master queue)."""
        tier_lanes = self.lanes.get(tier)
        if tier_lanes is None:
            tier_lanes = self.lanes[tier] = {}
            self.masters[tier] = deque()
            self._tiers = sorted(self.masters)
        lane = tier_lanes.get(pipeline)
        if lane is None:
            lane = tier_lanes[pipeline] = deque()
        return lane

    def push(self, request: RenderRequest) -> None:
        tier = request.tenant.tier
        self._lane(tier, request.pipeline).append(request)
        self.masters[tier].append(request)
        self.counts[request.pipeline] = self.counts.get(request.pipeline, 0) + 1
        self.n_pending += 1
        if self.tenant_counts is not None:
            self._count_tenants((request,), 1)

    def live(self, stop=None) -> Iterator[RenderRequest]:
        """Pending requests, most premium tier first, each tier in queue
        (arrival) order; ``stop(request)`` ends that tier's walk. Do not
        restore while iterating: a merge rebuilds the master deques."""
        gone = self._gone_master
        for tier in self._tiers:
            for request in self.masters[tier]:
                if request.request_id in gone:
                    continue
                if stop is not None and stop(request):
                    break
                yield request

    def anchor(self, is_ready) -> Optional[RenderRequest]:
        """Oldest pending *ready* request of the most premium tier that
        has one (the batch anchor). ``is_ready=None``: every pending
        request is ready (synchronous compile)."""
        gone = self._gone_master
        for tier in self._tiers:
            master = self.masters[tier]
            while master and master[0].request_id in gone:
                gone.discard(master.popleft().request_id)
            for request in master:
                if request.request_id in gone:
                    continue
                if is_ready is None or is_ready(request):
                    return request
        return None

    def take(self, anchor: RenderRequest, limit: int,
             is_ready) -> list[RenderRequest]:
        """Up to ``limit`` ready requests of the anchor's pipeline and
        priority tier, in queue order (the anchor first).

        Unready requests keep their place in the lane (skipped, never
        reordered); previously dispatched ones are lazily dropped. A
        batch never carries another tier's requests: QoS batches never
        carry economy passengers ahead of queued premium work of
        another pipeline.
        """
        pipeline = anchor.pipeline
        lane = self.lanes[anchor.tenant.tier][pipeline]
        gone = self._gone_lane
        while lane and lane[0].request_id in gone:
            gone.discard(lane.popleft().request_id)
        taken: list[RenderRequest] = []
        contiguous = True
        for request in lane:
            if request.request_id in gone or (
                    is_ready is not None and not is_ready(request)):
                contiguous = False
                continue
            taken.append(request)
            if len(taken) >= limit:
                break
        if taken:
            n = len(taken)
            self.counts[pipeline] -= n
            self.n_pending -= n
            if contiguous:
                for _ in range(n):  # fast path: drop the prefix outright
                    lane.popleft()
            else:
                for request in taken:
                    gone.add(request.request_id)
            for request in taken:
                self._gone_master.add(request.request_id)
            if self.tenant_counts is not None:
                self._count_tenants(taken, -1)
        return taken

    def restore(self, requests: Sequence[RenderRequest]) -> None:
        """Re-queue displaced (never-started) batch members.

        Inverse of :meth:`take` for the preemption path. Members that
        are still physically resident (they were only tombstoned) just
        lose their tombstones and keep their original slots; members the
        fast paths removed outright are merged back in
        ``(arrival_s, request_id)`` order, so queue fairness survives a
        displacement bit for bit.
        """
        if not requests:
            return
        for request in requests:
            self._gone_master.discard(request.request_id)
            self._gone_lane.discard(request.request_id)

        pipeline = requests[0].pipeline
        for tier in {r.tenant.tier for r in requests}:
            members = [r for r in requests if r.tenant.tier == tier]
            self._merge_missing(self._lane(tier, pipeline), members)
            self._merge_missing(self.masters[tier], members)
        self.counts[pipeline] += len(requests)
        self.n_pending += len(requests)
        if self.tenant_counts is not None:
            self._count_tenants(requests, 1)

    def cancel(self, request: RenderRequest) -> None:
        """Remove a still-queued request outright (hedge cancellation:
        its sibling copy won). The caller guarantees the request is
        physically pending — it was pushed/restored and never taken —
        so both structures get a tombstone and the counters drop."""
        self._gone_master.add(request.request_id)
        self._gone_lane.add(request.request_id)
        self.counts[request.pipeline] -= 1
        self.n_pending -= 1
        if self.tenant_counts is not None:
            self._count_tenants((request,), -1)

    def stray_counts(self) -> dict:
        """Non-zero backlog counters, per pipeline and per tenant — all
        must be zero once nothing is pending."""
        stray = {pipeline: n for pipeline, n in self.counts.items() if n}
        for name, per in (self.tenant_counts or {}).items():
            stray.update({(name, pipeline): n
                          for pipeline, n in per.items() if n})
        return stray

    @staticmethod
    def _merge_missing(queue: deque, requests: Sequence[RenderRequest]) -> None:
        resident = {r.request_id for r in queue}
        missing = [r for r in requests if r.request_id not in resident]
        if not missing:
            return
        merged = sorted(
            list(queue) + missing, key=lambda r: (r.arrival_s, r.request_id))
        queue.clear()
        queue.extend(merged)


# ----------------------------------------------------------------------
# Batch staging (the preemption unit)
# ----------------------------------------------------------------------
@dataclass
class _StagedBatch:
    """A batch placed on a busy chip but not yet started.

    Only staged batches are preemptible: once a chip begins executing,
    its work is in flight and runs to completion. Staging happens only
    in preempt mode, when the sharding policy places a batch on a chip
    that frees in the future (e.g. a warm pipeline-affinity pick);
    otherwise placement executes immediately, exactly as before.
    """

    batch: Batch
    chip: ChipState
    start_s: float
    dispatched_s: float   # when the batch was formed (priority records)

    @property
    def tier(self) -> int:
        # QoS batches are single-tier (tier-filtered take), so the
        # first member speaks for the batch.
        return self.batch.requests[0].tenant.tier


# ----------------------------------------------------------------------
# Chaos: request hedging and fault injection
# ----------------------------------------------------------------------
class _HedgePair:
    """One hedged request: the original, the chip each copy ran on, the
    finished copies ``(copy id, response, chip)``, and whether
    first-completion-wins has settled it."""

    __slots__ = ("original", "chips", "candidates", "settled")

    def __init__(self, original: RenderRequest) -> None:
        self.original = original
        self.chips: dict[int, int] = {}
        self.candidates: list[tuple[int, RenderResponse, ChipState]] = []
        self.settled = False


class _Hedging:
    """Request hedging; the engine builds one only for an armed policy.

    A ready queued request older than a quantile of recent queue waits
    gets a clone (id ``~id``, never a real id) that re-enters the pending
    index; the first copy to finish is the pair's one response, other
    finished copies are wasted work, a still-queued copy is cancelled.
    """

    def __init__(self, policy: HedgePolicy, pending: _PendingIndex,
                 obs: Optional[Observer]) -> None:
        self.policy = policy
        self.pending = pending
        self.obs = obs
        self.waits: deque[float] = deque(maxlen=policy.window)
        self.n_samples = 0
        self._threshold: Optional[float] = None
        self._cached_at = -1
        self.pairs: dict[int, _HedgePair] = {}        # either copy's id
        self.queued: dict[int, RenderRequest] = {}    # copies still queued
        self.n_hedged = self.n_wins = self.n_wasted = self.n_cancelled = 0
        self.wasted_s = 0.0

    def note_wait(self, wait_s: float) -> None:
        self.waits.append(wait_s)
        self.n_samples += 1

    def threshold(self) -> Optional[float]:
        """Queue-age threshold (None while warming up), re-sorted from
        the sample window at most once per 8 new samples."""
        policy = self.policy
        n = self.n_samples
        if n < policy.min_samples:
            return None
        if self._threshold is None or n - self._cached_at >= 8:
            ordered = sorted(self.waits)
            idx = min(len(ordered) - 1, int(policy.quantile * len(ordered)))
            self._threshold = policy.multiplier * ordered[idx]
            self._cached_at = n
        return self._threshold

    def maybe_hedge(self, now: float, cluster: ServeCluster,
                    is_ready) -> None:
        """Clone every ready, unhedged request whose queue age crossed
        the threshold; the selection mask sends clones to other chips."""
        threshold = self.threshold()
        if threshold is None or cluster.n_available < 2:
            return  # warming up, or a duplicate could only share a chip
        pairs = self.pairs
        victims = [
            request for request in self.pending.live(
                lambda request: now - request.arrival_s <= threshold)
            if request.request_id >= 0 and request.request_id not in pairs
            and (is_ready is None or is_ready(request))]
        for request in victims:
            orig_id = request.request_id
            clone = replace(request, request_id=~orig_id)
            pairs[orig_id] = pairs[clone.request_id] = _HedgePair(request)
            self.pending.restore([clone])
            self.queued[orig_id] = request
            self.queued[clone.request_id] = clone
            self.n_hedged += 1
            if self.obs is not None:
                self.obs.on_hedge(now, orig_id, now - request.arrival_s)

    def note_taken(self, taken: Sequence[RenderRequest]) -> None:
        for request in taken:
            self.queued.pop(request.request_id, None)

    def note_restored(self, members: Sequence[RenderRequest]) -> None:
        """Re-queued copies register as queued again — except a copy
        whose pair already settled, which is cancelled on the spot (a
        re-queued duplicate would strand in pending)."""
        for member in members:
            pair = self.pairs.get(member.request_id)
            if pair is not None and pair.settled:
                self.pending.cancel(member)
                self.n_cancelled += 1
            elif pair is not None:
                self.queued[member.request_id] = member

    def split_pairs(self, taken: list[RenderRequest]) -> list[RenderRequest]:
        """Both copies of a pair in one batch defeats the hedge: keep
        the first copy of each pair, put the rest straight back."""
        seen: set = set()
        keep: list[RenderRequest] = []
        put_back: list[RenderRequest] = []
        for request in taken:
            pair = self.pairs.get(request.request_id)
            if pair is not None and pair in seen:
                put_back.append(request)
            else:
                seen.add(pair)
                keep.append(request)
        if put_back:
            self.pending.restore(put_back)
            self.note_restored(put_back)
        return keep

    def sibling_chips(self, members: Sequence[RenderRequest]) -> set[int]:
        """Chips where a member's hedge sibling ran."""
        avoid: set[int] = set()
        for request in members:
            pair = self.pairs.get(request.request_id)
            if pair is not None and ~request.request_id in pair.chips:
                avoid.add(pair.chips[~request.request_id])
        return avoid

    def settle(self, orig_id: int):
        """First-completion-wins: ``(response, chip, clone won)`` of the
        earliest-finishing copy, or None if the pair already settled."""
        pair = self.pairs.get(orig_id)
        if pair is None or pair.settled:
            return None
        pair.settled = True
        rid_w, response, chip = min(
            pair.candidates,
            key=lambda entry: (entry[1].finish_s,
                               0 if entry[0] == orig_id else 1))
        if rid_w != orig_id:
            self.n_wins += 1
        for rid_l, loser, chip_l in pair.candidates:
            if rid_l != rid_w:
                self.n_wasted += 1
                self.wasted_s += loser.service_s
                chip_l.lost_work_s += loser.service_s
        for copy_id in (orig_id, ~orig_id):
            queued = self.queued.pop(copy_id, None)
            if queued is not None:
                self.pending.cancel(queued)
                self.n_cancelled += 1
        return response, chip, rid_w != orig_id

    def stats_dict(self) -> dict:
        return {"policy": self.policy.to_dict(), "n_hedged": self.n_hedged,
                "n_wins": self.n_wins, "n_wasted": self.n_wasted,
                "n_cancelled": self.n_cancelled,
                "wasted_work_s": self.wasted_s}


class _Faults:
    """Fault injection; the engine builds one only for a non-empty plan.

    Owns the plan, the work stranded on crashing chips, requeue counts,
    the per-chip speed EWMA admission divides by, and the counters. A
    chip's down state lives on the chip (``down_since_s``) alone.
    """

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        # Work truncated off a crashing chip waits here until the crash
        # instant actually arrives (the engine executes batches eagerly;
        # re-queueing at dispatch time would let the scheduler react to
        # a failure before it happened).
        self.limbo: dict[int, list[RenderRequest]] = {}
        self.requeues: dict[int, int] = {}     # request_id -> crashes survived
        self.speed: dict[int, float] = {}      # chip_id -> dilation EWMA
        self.n_crashes = self.n_permanent = 0
        self.n_recoveries = self.n_requeued = 0
        self.rollback_s = 0.0
        self.recovery_s = 0.0

    def capacity(self, cluster: ServeCluster) -> float:
        """Sum of learned per-chip speeds over the chips that are up
        (at least half a chip: a dead fleet projects a huge wait)."""
        capacity = 0.0
        for chip in cluster.active_chips:
            if chip.down_since_s is None:
                capacity += 1.0 / self.speed.get(chip.chip_id, 1.0)
        return max(capacity, 0.5)

    def abort(self, chip: ChipState, members: Sequence[RenderRequest],
              crash, frame_start_s: float, batch_start_s: float) -> None:
        """The chip dies mid-batch: chip time up to the crash is busy,
        the partial frame's share of it lost work; the un-run members
        (partial frame included) wait in limbo for the crash *event*,
        and the chip stays unselectable until it recovers."""
        chip.busy_s += max(0.0, crash.at_s - batch_start_s)
        chip.lost_work_s += max(0.0, crash.at_s - frame_start_s)
        chip.free_at_s = max(chip.free_at_s, crash.recover_at_s)
        self.limbo.setdefault(chip.chip_id, []).extend(members)

    def take_down(self, cluster: ServeCluster, now: float,
                  crash) -> Optional[ChipState]:
        """Mark the crash's chip down; None when the crash is a no-op
        (a chip this fleet never had, retired, or already down)."""
        if crash.chip_id >= len(cluster.chips):
            return None
        chip = cluster.chips[crash.chip_id]
        if not chip.active or chip.down_since_s is not None:
            return None
        chip.down_since_s = now
        chip.n_crashes += 1
        chip.free_at_s = max(chip.free_at_s, crash.recover_at_s)
        self.n_crashes += 1
        self.n_permanent += crash.down_s is None
        return chip

    def bring_up(self, cluster: ServeCluster, now: float,
                 crash) -> Optional[ChipState]:
        """Close the crash's outage; None when it never took effect."""
        if crash.chip_id >= len(cluster.chips):
            return None
        chip = cluster.chips[crash.chip_id]
        if chip.down_since_s is None:
            return None
        chip.down_s += now - chip.down_since_s
        chip.down_since_s = None
        self.n_recoveries += 1
        self.recovery_s += now - crash.at_s
        return chip

    def take_limbo(self, chip_id: int) -> list[RenderRequest]:
        """A crashed chip's stranded work; each member's retry will pay
        the plan's rollback."""
        limbo = self.limbo.pop(chip_id, [])
        for member in limbo:
            rid = member.request_id
            self.requeues[rid] = self.requeues.get(rid, 0) + 1
        self.n_requeued += len(limbo)
        return limbo

    def stats_dict(self, n_failed: int, chips: Sequence[ChipState]) -> dict:
        recoveries = self.n_recoveries
        return {
            "n_crashes": self.n_crashes,
            "n_permanent": self.n_permanent,
            "n_recoveries": recoveries,
            "n_requeued": self.n_requeued,
            "n_failed": n_failed,
            "lost_work_s": sum(c.lost_work_s for c in chips),
            "rollback_s": self.rollback_s,
            "mean_recovery_s": (self.recovery_s / recoveries
                                if recoveries else None),
        }


# ----------------------------------------------------------------------
# The engine
# ----------------------------------------------------------------------
class EventEngine:
    """One service simulation, driven end to end by an event queue."""

    def __init__(
        self,
        requests: Iterable[RenderRequest] | Sequence[RenderRequest],
        cluster: Optional[ServeCluster] = None,
        cache: Optional[TraceCache] = None,
        batcher: Optional[PipelineBatcher] = None,
        autoscaler: Optional[Autoscaler] = None,
        admission: Optional[AdmissionPolicy] = None,
        compile_workers: int = 0,
        compile_latency: Optional[CompileLatencyModel] = None,
        prefetcher: Optional[TracePrefetcher] = None,
        preempt: bool = False,
        trace_library: "TraceLibrary | str | Path | None" = None,
        observer: Optional[Observer] = None,
        faults: Optional[FaultPlan] = None,
        hedge: "HedgePolicy | bool | None" = None,
    ) -> None:
        ordered = sorted(requests, key=_arrival_order)
        if not ordered:
            raise SimulationError("cannot simulate a service with no requests")
        if compile_workers < 0:
            raise ConfigError("compile_workers cannot be negative")
        if prefetcher is not None and compile_workers < 1:
            raise ConfigError(
                "trace prefetch needs at least one compile worker "
                "(pass compile_workers >= 1)"
            )
        cluster = cluster if cluster is not None else ServeCluster()
        if cluster.lifetime_dirty:
            raise SimulationError(
                "ServeCluster has nonzero lifetime accounting; build a fresh "
                "cluster per simulate_service run (chips carry busy time, "
                "served counts, and autoscaling history)"
            )
        self.cluster = cluster
        self.cache = cache if cache is not None else TraceCache()
        self.batcher = batcher if batcher is not None else PipelineBatcher()
        self.autoscaler = autoscaler
        # A predictive autoscaler additionally consumes the arrival
        # stream and a traffic-weighted service-time EWMA (the per-
        # pipeline estimates would overweight rare, expensive pipelines
        # in the capacity model); the reactive controller's hot path
        # must not pay for either.
        self._feed_forecast = autoscaler is not None and getattr(
            autoscaler, "predictive", False)
        self._svc_ewma: Optional[float] = None
        self.admission = admission
        self.async_compile = compile_workers >= 1
        if self.async_compile and compile_latency is None:
            compile_latency = self.cache.latency_model or CompileLatencyModel()
        self.latency_model = compile_latency
        if compile_latency is not None:
            # The synchronous path charges compile latency inside the
            # cache, so the two views must be one model — a warm cache
            # priced under a different model would silently misprice
            # recompiles.
            if self.cache.latency_model is None:
                self.cache.latency_model = compile_latency
            elif self.cache.latency_model != compile_latency:
                raise ConfigError(
                    "cache.latency_model differs from compile_latency; "
                    "a shared warm cache must keep one compile-latency "
                    "model across runs"
                )
        self.pool = (
            CompileWorkerPool(compile_workers) if self.async_compile else None
        )
        self.prefetcher = prefetcher

        # -- observability (off by default) -----------------------------
        # Disabled observers normalize to None, so every instrumentation
        # site below costs exactly one pointer check when unobserved.
        # Metric instruments bind *now* — before the library warm start,
        # so cache.warmed counts warm installs too — and scale actions
        # report through the autoscaler's own observer handle.
        if observer is None:
            observer = cluster.observer
        self._obs = resolve_observer(observer)
        if self._obs is not None:
            metrics = self._obs.metrics
            if metrics is not None:
                self.cache.bind_metrics(metrics)
                if admission is not None:
                    admission.bind_metrics(metrics)
                metrics.gauge("fleet.n_chips").set(len(cluster.chips))
            if autoscaler is not None:
                autoscaler.observer = self._obs

        # -- persistent trace library (warm start + shutdown flush) -----
        if trace_library is None:
            trace_library = cluster.trace_library
        self._library_path: Optional[Path] = None
        if isinstance(trace_library, (str, Path)):
            self._library_path = Path(trace_library)
            trace_library = TraceLibrary.load(self._library_path)
        self.trace_library = trace_library
        self._hits_baseline: dict[TraceKey, int] = {}
        if self.trace_library is not None:
            self.trace_library.warm(self.cache)
            # The cache's hit counters are lifetime figures and the
            # cache may be shared across runs; the shutdown flush must
            # credit the library with this run's hits only.
            self._hits_baseline = dict(self.cache.hits_by_key)

        # -- multi-tenant QoS state -------------------------------------
        # Batches are tier-pure by construction (the pending index keeps
        # one lane per tier and pipeline); a single-class trace has one
        # tier and takes the exact pre-tenant code paths.
        self.preempt = preempt
        self._staged: dict[int, _StagedBatch] = {}   # chip_id -> batch
        self._preempt_count: dict[int, int] = {}     # request_id -> times
        self._displaced_from: dict[int, int] = {}    # request_id -> chip_id
        self.n_preemptions = 0                       # displacement events
        # Weighted admission budgets the queue per tenant share, so only
        # a tenant-aware policy makes the index count tenant backlogs.
        self._pending = _PendingIndex(tenant_aware=getattr(
            admission, "tenant_aware", False))
        self._cost = self.cache.costs
        self._responses: list[RenderResponse] = []
        self._shed: list[ShedRecord] = []
        self._est_by_pipeline: dict[str, float] = {}
        # Async-compile state: keys in flight, their completion instants,
        # how many pending requests wait on each, and programs pinned
        # for the duration of their compile (the cache owns them after).
        self._waiting_done_s: dict[TraceKey, float] = {}
        self._waiting_requests: dict[TraceKey, int] = {}
        self._n_waiting = 0
        self._programs: dict[TraceKey, object] = {}
        # Keys a prefetch insert evicted, barred from prefetch until a
        # demand asks for them again: re-prefetching one would evict
        # another, and with a cache smaller than the working set the
        # pool would chase its own evictions forever.
        self._prefetch_evicted: set[TraceKey] = set()
        #: request_id -> (cache hit, first use of a prefetch, compile
        #: latency it triggered or None), read when its frame prices.
        self._ingested: dict[int, tuple[bool, bool, Optional[float]]] = {}
        # Completions not yet visible to the autoscaler's SLO window
        # (no clairvoyance): a finish-ordered heap.
        self._inflight: list[tuple[float, int, bool]] = []
        self._inflight_seq = 0
        self._known_chips = len(cluster.chips)
        self._tick_pushed_at = -1.0

        # Arrivals are the overwhelming majority of events, and they are
        # already sorted — so they stay in their list (plus a parallel
        # timestamp column for windowed scans) instead of paying one
        # heap entry each. The heap carries only dynamic events. The loop
        # merges the two streams in exactly the old single-heap
        # ``(t, kind, seq)`` order: arrivals are kind ``_ARRIVAL`` (0)
        # with seqs ``0..n-1`` from the sort, so at any instant they
        # ingest — in arrival order — before every dynamic event.
        self._arrivals = ordered
        self._arrival_t = [request.arrival_s for request in ordered]
        self._events: list[tuple[float, int, int, object]] = []
        self._event_seq = len(ordered)

        # -- chaos: fault injection & request hedging --------------------
        # An attached-but-empty plan normalizes to None, so fault-free
        # runs (reports included) stay byte-identical whether or not a
        # FaultPlan object was passed.
        self._failed: list[FailedRecord] = []
        plan = resolve_faults(faults)
        self._faults = _Faults(plan) if plan is not None else None
        policy = resolve_hedge(hedge)
        self._hedging = (_Hedging(policy, self._pending, self._obs)
                         if policy is not None else None)
        if plan is not None:
            for crash in plan.crashes:
                self._push(crash.at_s, _CHIP_CRASH, crash)
                if crash.down_s is not None:
                    self._push(crash.recover_at_s, _CHIP_RECOVER, crash)

    # -- service-time estimation ---------------------------------------
    def _estimate(self, pipeline: str) -> float:
        """EWMA service time of one request; 0 until anything finished
        (optimistic: admit freely while the service is cold)."""
        est = self._est_by_pipeline
        if pipeline in est:
            return est[pipeline]
        if est:
            return sum(est.values()) / len(est)
        return 0.0

    # -- event plumbing -------------------------------------------------
    def _push(self, t: float, kind: int, payload: object = None) -> None:
        heapq.heappush(self._events, (t, kind, self._event_seq, payload))
        self._event_seq += 1

    def _watch_new_chips(self) -> None:
        """Autoscaled chips wake the dispatcher when their warm-up ends."""
        chips = self.cluster.chips
        while self._known_chips < len(chips):
            chip = chips[self._known_chips]
            self._push(chip.free_at_s, _CHIP_FREE, chip.chip_id)
            self._known_chips += 1

    def _controller_tick(self, now: float, queue_depth: int) -> None:
        scaler = self.autoscaler
        inflight = self._inflight
        while inflight and inflight[0][0] <= now:
            finish_s, _seq, slo_met = heapq.heappop(inflight)
            scaler.record_response(finish_s, slo_met)
        scaler.observe(now, self.cluster, queue_depth, reserved=self._staged,
                       est_service_s=self._svc_ewma or 0.0)
        self._watch_new_chips()
        if self._obs is not None:
            self._obs.maybe_snapshot(now)

    # -- readiness ------------------------------------------------------
    def _is_ready(self, request: RenderRequest) -> bool:
        return request.trace_key not in self._waiting_done_s

    @property
    def _n_ready(self) -> int:
        return self._pending.n_pending - self._n_waiting

    # -- compile submission ---------------------------------------------
    def _submit_compile(self, key: TraceKey, now: float, demand: bool) -> float:
        """Compile ``key`` on the worker pool; returns its sim latency."""
        began = time.perf_counter()
        program = self.cache.compile_fn(key)
        wall = time.perf_counter() - began
        self._programs[key] = program
        latency = self.latency_model.latency_s(program)
        if self._faults is not None:
            # A compile stall dilates jobs *issued* inside its window
            # (the stalled latency is what the pool occupies a worker
            # for, what demand requests wait on, and what the cache
            # records as this trace's compile cost).
            latency *= self._faults.plan.compile_dilation(now)
        pool = self.pool
        done = pool.submit(now, latency, demand=demand)
        self._waiting_done_s[key] = done
        self._push(done, _COMPILE_DONE, (key, latency, wall, demand))
        if self._obs is not None:
            self._obs.on_compile(pool.last_start, done, pool.last_worker,
                                 key[1], "worker" if demand else "prefetch")
        return latency

    def _issue_prefetches(self, now: float) -> None:
        prefetcher = self.prefetcher
        if prefetcher is None:
            return
        # Keep one worker free for the next demand miss whenever the
        # pool has more than one: prefetch must never be the reason a
        # cold request waits a full compile latency extra. A singleton
        # pool has no worker to reserve, so it may prefetch when idle.
        reserve = 1 if self.pool.n_workers > 1 else 0
        # Resident *and* in-flight keys are filtered inside the
        # predictor, before its candidate cap — either kind occupying
        # a slot could starve deeper, genuinely missing predictions.
        skip = _KeyUnion(self.cache, self._waiting_done_s,
                         self._prefetch_evicted)
        while self.pool.idle_count(now) > reserve:
            candidates = prefetcher.candidates(resident=skip)
            if not candidates:
                return
            key = candidates[0]
            self._submit_compile(key, now, demand=False)
            prefetcher.note_issue(key)
            if self._obs is not None:
                self._obs.on_prefetch_issue(now, key)

    # -- arrival ingestion ----------------------------------------------
    def _project_wait(self, request: RenderRequest, at: float) -> float:
        """Projected queue wait at the arrival instant: time until a chip
        frees, plus the backlog ahead over the fleet's capacity, plus any
        compile backlog the trace itself would wait on.

        Capacity is ``max(1, n_active)`` chips, or under faults the
        learned speeds of the chips that are up. The backlog ahead is the
        queued same-pipeline requests (they serialize into this batch)
        plus the other pipelines' spread over the fleet — or, under
        weighted admission, the tenant's **own** backlog over its
        weighted slice of the fleet, so one tenant's flood inflates only
        its own projection.
        """
        wait = max(0.0, self.cluster.earliest_free_s - at)
        faults = self._faults
        capacity = (float(max(1, self.cluster.n_active)) if faults is None
                    else faults.capacity(self.cluster))
        est = self._estimate
        pending = self._pending
        tenants = pending.tenant_counts
        if tenants is None:
            counts = pending.counts
            pipeline = request.pipeline
            same = counts.get(pipeline, 0) * est(pipeline)
            other = 0.0
            for queued_pipeline, count in counts.items():
                if queued_pipeline != pipeline and count:
                    other += count * est(queued_pipeline)
            wait = wait + same + other / capacity
        else:
            tenant = request.tenant
            own_backlog = 0.0
            own_pending = False
            for pipeline, count in tenants.get(tenant.name, {}).items():
                if count:
                    own_backlog += count * est(pipeline)
                    own_pending = True
            total_weight = 0.0 if own_pending else tenant.weight
            for name, weight in pending.tenant_weight.items():
                if any(tenants[name].values()):
                    total_weight += weight
            wait = wait + own_backlog / (
                capacity * (tenant.weight / total_weight))
        if self.async_compile:
            done = self._waiting_done_s.get(request.trace_key)
            if done is not None:
                wait = max(wait, done - at)
            elif request.trace_key not in self.cache:
                wait = max(wait, self.latency_model.base_s)
        return wait

    def _ingest(self, request: RenderRequest, now: float) -> None:
        """Admission decision, made at the request's arrival instant."""
        if self._feed_forecast:
            # Offered demand, pre-admission: the forecaster must see the
            # wave the admission policy is about to clip.
            self.autoscaler.record_arrival(request.arrival_s)
        obs = self._obs
        at = request.arrival_s
        if obs is not None:
            obs.on_arrival(at, request, obs.wants(request.request_id))
        admission = self.admission
        if admission is None:
            verdict = request
        else:
            projected = self._project_wait(request, at)
            verdict = admission.admit(
                request, at, projected, self._estimate(request.pipeline),
                self._pending.n_pending,
            )
            if verdict is None:
                self._shed.append(
                    ShedRecord(request, at, admission.name, projected)
                )
                if obs is not None:
                    admission.note_verdict("shed")
                    obs.on_shed(at, request, obs.wants(request.request_id))
                if self.autoscaler is not None:
                    # A shed is an SLO failure the queue never sees; feed
                    # it to the controller's window or admission control
                    # would suppress exactly the pressure that should
                    # grow the fleet.
                    self.autoscaler.record_shed(at)
                return
        if obs is not None and admission is not None:
            degraded = verdict is not request
            admission.note_verdict("degraded" if degraded else "admitted")
            obs.on_admit(at, verdict, "degrade" if degraded else "admit",
                         obs.wants(verdict.request_id))

        if self.async_compile:
            self._ingest_async(verdict, now)
        self._pending.push(verdict)
        if self.preempt and self._staged:
            self._maybe_preempt(verdict, now)

    def _maybe_preempt(self, request: RenderRequest, now: float) -> None:
        """A premium arrival may displace one queued — not in-flight —
        batch of a more economical tier back into its pipeline lane.

        Displacement only helps when the arrival cannot dispatch right
        now, and only staged batches that have not reached their start
        instant are eligible. The victim is the most economical staged
        batch, latest planned start first (it has waited the least);
        its members re-enter the pending index in arrival order and its
        chip reservation is cancelled, so the freed slot goes to the
        most premium queued work when the chip frees.
        """
        if self.cluster.has_idle_chip(now):
            return
        tier = request.tenant.tier
        victim: Optional[_StagedBatch] = None
        for staged in self._staged.values():
            if staged.tier <= tier or staged.start_s <= now:
                continue
            if victim is None or (staged.tier, staged.start_s,
                                  staged.chip.chip_id) > (
                    victim.tier, victim.start_s, victim.chip.chip_id):
                victim = staged
        if victim is None:
            return
        del self._staged[victim.chip.chip_id]
        members = victim.batch.requests
        self.batcher.retract(victim.batch)
        self._restore_members(members)
        for member in members:
            rid = member.request_id
            self._preempt_count[rid] = self._preempt_count.get(rid, 0) + 1
            self._displaced_from[rid] = victim.chip.chip_id
        self.n_preemptions += 1
        if self._obs is not None:
            self._obs.on_preempt(now, victim.chip.chip_id,
                                 victim.batch.batch_id, len(members),
                                 request.tenant.tier)

    def _ingest_async(self, verdict: RenderRequest, now: float) -> None:
        """Demand-side cache traffic: hit, join an in-flight compile, or
        trigger a new compile job on the worker pool."""
        key = verdict.trace_key
        rid = verdict.request_id
        prefetcher = self.prefetcher
        if prefetcher is not None:
            prefetcher.observe(key)
            self._prefetch_evicted.discard(key)
        hit = self.cache.lookup(key) is not None
        # A hit or a joined in-flight compile (demand- or prefetch-
        # triggered) may be the first use of a prefetch.
        joins = hit or key in self._waiting_done_s
        prefetched = False
        if joins and prefetcher is not None and prefetcher.is_unused(key):
            prefetcher.note_use(key)
            prefetched = True
            if self._obs is not None:
                self._obs.on_prefetch_hit(now, key)
        charge = None
        if not joins:
            if prefetcher is not None:
                prefetcher.note_demand_compile(key)
            charge = self._submit_compile(key, now, demand=True)
        self._ingested[rid] = (hit, prefetched, charge)
        if not hit:
            self._waiting_requests[key] = (
                self._waiting_requests.get(key, 0) + 1)
            self._n_waiting += 1

    # -- batch execution -------------------------------------------------
    def _execute_batch(self, chip: ChipState, batch: Batch,
                       start_s: float, dispatched_s: float) -> None:
        """Run a batch back to back on one chip (the pricing hot path).

        Under a fault plan the batch may not survive whole: any frame
        whose finish would cross the chip's next crash instant aborts
        the rest of the batch — completed frames stand (results are
        checkpointed off-chip), the partial frame's chip time becomes
        lost work, and the un-run tail sits in crash limbo until the
        crash event re-queues it. Hedged copies execute physically here
        but defer their logical completion to the settle event, where
        first-completion-wins picks exactly one response per pair.
        """
        cache = self.cache
        cost = self._cost
        accelerator = chip.accelerator
        clock = chip.config.clock_hz
        chip_id = chip.chip_id
        batch_id = batch.batch_id
        async_mode = self.async_compile
        ingested = self._ingested
        preempt_mode = self.preempt
        responses = self._responses
        feed = self.autoscaler is not None
        feed_forecast = self._feed_forecast
        est = self._est_by_pipeline
        obs = self._obs
        faults = self._faults
        hedging = self._hedging
        latency_model = self.latency_model
        requests = batch.requests
        crash = None
        if faults is not None:
            plan = faults.plan
            crash = plan.next_crash(chip_id, dispatched_s)
        # Chip counters accumulate in locals, frame by frame in the same
        # order, and are written back once.
        served = chip.requests_served
        frame_cycles = chip.frame_cycles
        switch_cycles = chip.switch_cycles
        reconfig_total = chip.frame_reconfig_cycles
        energy_total = chip.energy_j
        t = start_s
        aborted = False
        for index, request in enumerate(requests):
            key = request.trace_key
            rid = request.request_id
            compile_wait = 0.0
            compile_s = 0.0
            origin = None
            prefetched = False
            if async_mode:
                cache_hit, prefetched, charge = ingested.get(
                    rid, _NOT_INGESTED)
                if charge is not None:
                    compile_s = charge
                    origin = "worker"
                elif prefetched:
                    origin = "prefetch"
                program = self._programs.get(key) or cache.peek(key)
                if program is None and not cost.has(key, accelerator.config):
                    # Evicted before this design point priced it (the
                    # program is in neither the cache nor the pin set):
                    # recompile just for pricing, without re-pinning.
                    began = time.perf_counter()
                    program = cache.compile_fn(key)
                    cache.stats.compile_wall_s += time.perf_counter() - began
            else:
                program, cache_hit = cache.get(key)
                if not cache_hit and latency_model is not None:
                    # Synchronous visible compile: the dispatch path
                    # stalls on the chip for the simulated compile time.
                    compile_wait = cache.compile_cost_s(key)
                    if faults is not None:
                        compile_wait *= plan.compile_dilation(t)
                    compile_s = compile_wait
                    origin = "sync"
            cycles, reconfig_cycles, energy_j = cost.price(
                key, accelerator, program)

            pipeline = request.pipeline
            switch = 0.0
            if chip.configured_pipeline != pipeline:
                switch = float(chip.config.reconfigure_cycles)
                chip.pipeline_switches += 1
                chip.configured_pipeline = pipeline
            service = (cycles + switch) / clock
            requeues = 0
            rollback = 0.0
            if faults is not None:
                dilation = plan.dilation(chip_id, t)
                if dilation != 1.0:
                    service *= dilation
                requeues = faults.requeues.get(rid, 0)
                if requeues:
                    # A crash already ate one attempt: this retry first
                    # restores the frame's last checkpoint.
                    rollback = plan.rollback_s
                speed = faults.speed
                prior_speed = speed.get(chip_id, 1.0)
                speed[chip_id] = prior_speed + _SPEED_EWMA_ALPHA * (
                    dilation - prior_speed)
            finish = t + compile_wait + rollback + service

            if crash is not None and finish > crash.at_s:
                faults.abort(chip, requests[index:], crash, t, start_s)
                aborted = True
                break
            # -- the frame commits: settle its dispatch bookkeeping.
            if rollback:
                faults.rollback_s += rollback
                faults.requeues.pop(rid, None)
            if async_mode:
                ingested.pop(rid, None)
                cache.touch(key)

            preemptions = 0
            migrated = False
            if preempt_mode:
                preemptions = self._preempt_count.pop(rid, 0)
                displaced_from = self._displaced_from.pop(rid, None)
                # Displaced work that completes on a different chip than
                # the one it was displaced from has migrated — under an
                # autoscaler this is how it reaches newly warmed chips.
                migrated = (displaced_from is not None
                            and chip_id != displaced_from)

            frame_cycles += cycles
            switch_cycles += switch
            reconfig_total += reconfig_cycles
            energy_total += energy_j
            span = finish - t
            pair = hedging.pairs.get(rid) if hedging is not None else None
            if pair is not None:
                # One copy of a hedged pair: the chip really spends the
                # cycles, but the response waits for the settle event.
                if pair.settled:
                    # Late duplicate: it sat staged while its sibling
                    # settled. Pure wasted work, no second response.
                    hedging.n_wasted += 1
                    hedging.wasted_s += span
                    chip.lost_work_s += span
                else:
                    original = pair.original
                    response = RenderResponse(
                        original, chip_id, batch_id, t, finish, cycles,
                        switch, reconfig_cycles, energy_j, cache_hit,
                        compile_s, origin, prefetched, dispatched_s,
                        preemptions, migrated, requeues,
                        rid != original.request_id)
                    pair.chips[rid] = chip_id
                    pair.candidates.append((rid, response, chip))
                    self._push(finish, _HEDGE_SETTLE, original.request_id)
                t = finish
                continue
            # Positional, in RenderResponse field order (hot path).
            response = RenderResponse(
                request, chip_id, batch_id, t, finish, cycles, switch,
                reconfig_cycles, energy_j, cache_hit, compile_s, origin,
                prefetched, dispatched_s, preemptions, migrated, requeues)
            responses.append(response)
            if obs is not None:
                if origin == "sync" and compile_wait > 0.0:
                    obs.on_compile_sync(t, t + compile_wait, chip_id,
                                        pipeline)
                obs.on_response(response, obs.wants(rid))
            served += 1
            t = finish

            prior = est.get(pipeline)
            if prior is None:
                est[pipeline] = span
            else:
                est[pipeline] = prior + _SERVICE_EWMA_ALPHA * (span - prior)
            if feed_forecast:
                mean = self._svc_ewma
                self._svc_ewma = (
                    span if mean is None
                    else mean + _FORECAST_EWMA_ALPHA * (span - mean)
                )
            if feed:
                heapq.heappush(
                    self._inflight,
                    (finish, self._inflight_seq, response.slo_met),
                )
                self._inflight_seq += 1
            if hedging is not None:
                hedging.note_wait(response.queue_s)

        chip.requests_served = served
        chip.frame_cycles = frame_cycles
        chip.switch_cycles = switch_cycles
        chip.frame_reconfig_cycles = reconfig_total
        chip.energy_j = energy_total
        if obs is not None:
            obs.on_batch(start_s, max(start_s, crash.at_s) if aborted else t,
                         chip_id, batch_id, len(requests), batch.pipeline,
                         requests[0].tenant.tier)
        if aborted:
            return
        chip.busy_s += t - start_s
        chip.free_at_s = t
        self._push(t, _CHIP_FREE, chip_id)

    # -- chaos: crashes and hedge settles ---------------------------------
    def _restore_members(self, members: Sequence[RenderRequest]) -> None:
        """Put one batch's members (single pipeline) back in pending."""
        self._pending.restore(members)
        if self._hedging is not None:
            self._hedging.note_restored(members)

    def _on_crash(self, now: float, crash) -> None:
        """A chip fails: mark it down and re-queue whatever it held."""
        chip = self._faults.take_down(self.cluster, now, crash)
        if chip is None:
            return
        n_requeued = 0
        staged = self._staged.pop(chip.chip_id, None)
        if staged is not None:
            # A staged reservation on the dead chip never started: it
            # re-queues without a rollback charge (nothing ran yet).
            self.batcher.retract(staged.batch)
            self._restore_members(staged.batch.requests)
            n_requeued += len(staged.batch.requests)
        limbo = self._faults.take_limbo(chip.chip_id)
        if limbo:
            self._restore_members(limbo)
            n_requeued += len(limbo)
        if self._obs is not None:
            self._obs.on_crash(now, chip.chip_id, crash.down_s, n_requeued)

    def _on_recover(self, now: float, crash) -> None:
        chip = self._faults.bring_up(self.cluster, now, crash)
        if chip is not None and self._obs is not None:
            self._obs.on_recover(now, chip.chip_id, now - crash.at_s)

    def _fail_pending(self, now: float) -> None:
        """Every chip is gone for good and admitted work remains: drain
        it into failed-unrecoverable records (a hedged pair fails once,
        as its original), keeping the conservation ledger closed."""
        pairs = self._hedging.pairs if self._hedging is not None else {}
        seen: set[int] = set()
        stranded: list[RenderRequest] = []
        for request in self._pending.live():
            pair = pairs.get(request.request_id)
            original = pair.original if pair is not None else request
            if original.request_id not in seen:
                seen.add(original.request_id)
                stranded.append(original)
        stranded.sort(key=_arrival_order)
        for request in stranded:
            self._failed.append(FailedRecord(request, now, "fleet-lost"))

    def _on_settle(self, now: float, orig_id: int) -> None:
        """A hedged pair's first finish: its winner is the one response
        and takes the logical-completion feeds the unhedged path takes
        inline in :meth:`_execute_batch`."""
        won = self._hedging.settle(orig_id)
        if won is None:
            return  # already resolved at the first copy's finish
        response, chip, clone_won = won
        self._responses.append(response)
        chip.requests_served += 1
        pipeline, span = response.request.pipeline, response.service_s
        prior = self._est_by_pipeline.get(pipeline)
        self._est_by_pipeline[pipeline] = (
            span if prior is None
            else prior + _SERVICE_EWMA_ALPHA * (span - prior))
        if self._feed_forecast:
            mean = self._svc_ewma
            self._svc_ewma = (span if mean is None
                              else mean + _FORECAST_EWMA_ALPHA * (span - mean))
        if self.autoscaler is not None:
            heapq.heappush(
                self._inflight,
                (response.finish_s, self._inflight_seq, response.slo_met))
            self._inflight_seq += 1
        self._hedging.note_wait(response.queue_s)
        if self._obs is not None:
            self._obs.on_hedge_settle(
                now, orig_id, "clone" if clone_won else "primary")
            self._obs.on_response(
                response, self._obs.wants(response.request.request_id))

    def _dispatch_exclude(self, members, base):
        """Chaos chip-id mask for selection: the staged reservations in
        ``base``, down chips (faults), and — best effort — chips where a
        member's hedge sibling ran, so the duplicate lands elsewhere."""
        hedging = self._hedging
        active = self.cluster.active_chips
        merged = {chip.chip_id for chip in active
                  if chip.down_since_s is not None}
        if base:
            merged.update(base)
        if hedging is not None and members:
            avoid = hedging.sibling_chips(members)
            if avoid:
                widened = merged | avoid
                if any(chip.chip_id not in widened for chip in active):
                    merged = widened  # only avoid siblings if a chip is left
        if not merged:
            return base
        if not any(chip.chip_id not in merged for chip in active):
            return base  # never mask the whole fleet
        return merged

    # -- dispatch --------------------------------------------------------
    def _flush_staged(self, now: float) -> None:
        """Start every staged batch whose planned instant has come.

        The chip's own chip-free event (pushed when its previous batch
        finished, or at an autoscaled chip's warm-up end) wakes the
        dispatcher at exactly the staged start, so no extra event kind
        is needed; a displaced batch simply is not here any more.
        """
        due = [s for s in self._staged.values() if s.start_s <= now]
        due.sort(key=lambda s: (s.start_s, s.chip.chip_id))
        for staged in due:
            del self._staged[staged.chip.chip_id]
            chip = staged.chip
            self._execute_batch(chip, staged.batch,
                                max(now, chip.free_at_s),
                                staged.dispatched_s)

    def _form_batch(self, now: float, is_ready):
        """Anchor, take, split hedge pairs, stamp and place one batch:
        ``(batch, chip)``, or None when no pending request is ready."""
        pending = self._pending
        anchor = pending.anchor(is_ready)
        if anchor is None:
            return None
        taken = pending.take(anchor, self.batcher.max_batch, is_ready)
        hedging = self._hedging
        if hedging is not None:
            hedging.note_taken(taken)
            if len(taken) > 1:
                taken = hedging.split_pairs(taken)
        batch = self.batcher.make_batch(anchor.pipeline, taken)
        exclude = self._staged if self.preempt else None
        if self._faults is not None or hedging is not None:
            exclude = self._dispatch_exclude(taken, exclude)
        chip = self.cluster.select_chip(
            batch, now, self._estimate(batch.pipeline), exclude=exclude)
        return batch, chip

    def _dispatch_all(self, now: float) -> None:
        """Place batches while ready work and an idle chip coexist."""
        cluster = self.cluster
        preempt = self.preempt
        if self._staged:
            self._flush_staged(now)
        is_ready = self._is_ready if self.async_compile else None
        while self._n_ready > 0 and cluster.has_idle_chip(now):
            if self.autoscaler is not None:
                self._controller_tick(now, self._pending.n_pending)
            formed = self._form_batch(now, is_ready)
            if formed is None:
                break
            batch, chip = formed
            start = max(now, chip.free_at_s)
            if preempt and start > now:
                # The policy picked a busy chip (e.g. a warm
                # pipeline-affinity hit): park the batch as *queued*
                # work — preemptible until the chip actually starts it.
                self._staged[chip.chip_id] = _StagedBatch(
                    batch, chip, start, now)
                continue
            self._execute_batch(chip, batch, start, now)
        if preempt:
            self._stage_ahead(now)

    def _stage_ahead(self, now: float) -> None:
        """Dispatch-ahead (preempt mode): pre-assign the next batch to
        each busy chip, one batch deep.

        A chip with a staged batch hands off with zero dispatch gap when
        it frees — and because staged work has not started, it remains
        *queued*: a premium arrival can still displace an economy batch
        from its slot (see :meth:`_maybe_preempt`). Chips still warming
        up after an autoscale-up count as busy, which is exactly how
        displaced work migrates onto a newly grown chip.
        """
        staged = self._staged
        is_ready = self._is_ready if self.async_compile else None
        while self._n_ready > 0:
            if not any(chip.chip_id not in staged
                       and chip.down_since_s is None
                       and chip.free_at_s > now
                       for chip in self.cluster.active_chips):
                return
            formed = self._form_batch(now, is_ready)
            if formed is None:
                return
            batch, chip = formed
            staged[chip.chip_id] = _StagedBatch(
                batch, chip, max(now, chip.free_at_s), now)

    # -- main loop -------------------------------------------------------
    def run(self) -> ServiceReport:
        try:
            now = self._run_loop()
        finally:
            # A shared cache outlives this engine; a later run on it
            # must not count into this run's metric registry.
            if self._obs is not None and self._obs.metrics is not None:
                self.cache.unbind_metrics()
        return self._finalize(now)

    def _run_loop(self) -> float:
        """The engine's one event loop; every configuration runs here.

        Arrivals are consumed from their sorted list in timestamp
        batches and merged with the dynamic-event heap at each instant.
        Because arrivals are kind ``_ARRIVAL`` (0) with seqs assigned in
        sorted order, draining *all* same-instant arrivals before any
        heap event reproduces the old single-heap ``(t, kind, seq)``
        schedule event for event (see the tie-break contract at the
        event-kind constants).

        A run with no per-instant work besides dispatch (no autoscaler,
        hedging, observer, prefetch or preemption) ingests arrival
        windows in one pass: while every chip is busy and no dynamic
        event is due, an arrival instant's dispatch round is a no-op,
        so skipping it changes nothing. Every other run pays one
        ``None`` check per site for each feature it leaves off.
        """
        events = self._events
        pending = self._pending
        arrivals = self._arrivals
        arrival_t = self._arrival_t
        n = len(arrivals)
        i = 0
        now = 0.0
        hedging = self._hedging
        is_ready = self._is_ready if self.async_compile else None
        windowed = (self.autoscaler is None and hedging is None
                    and self._obs is None and self.prefetcher is None
                    and not self.preempt)
        cluster = self.cluster
        # Nothing to rule on and nothing to compile: ingest is a push.
        push = (pending.push if self.admission is None
                and not self.async_compile else None)
        while i < n or events:
            if (windowed and i < n
                    and (not events or arrival_t[i] < events[0][0])
                    and not cluster.has_idle_chip(arrival_t[i])):
                # The window runs to the first chip free or dynamic
                # event, whichever comes first.
                bound = cluster.earliest_free_s
                if events and events[0][0] < bound:
                    bound = events[0][0]
                while i < n and arrival_t[i] < bound:
                    now = arrival_t[i]
                    if push is not None:
                        push(arrivals[i])
                    else:
                        self._ingest(arrivals[i], now)
                    i += 1
                    if events and events[0][0] < bound:
                        # The ingest submitted a compile that lands
                        # inside the window: it ends there.
                        bound = events[0][0]
                continue
            if i < n:
                t_arr = arrival_t[i]
                now = (t_arr if not events or t_arr <= events[0][0]
                       else events[0][0])
            else:
                now = events[0][0]
            # Drain every event at this instant before dispatching:
            # arrivals ingest, compiles land, chips free, ticks tick.
            ingested = False
            while i < n and arrival_t[i] == now:
                self._ingest(arrivals[i], now)
                i += 1
                ingested = True
            while events and events[0][0] == now:
                _t, kind, _seq, payload = heapq.heappop(events)
                if kind == _COMPILE_DONE:
                    self._finish_compile(now, payload)
                elif kind == _SCALE_TICK:
                    if self.autoscaler is not None and pending.n_pending == 0:
                        self._controller_tick(now, 0)
                elif kind == _CHIP_CRASH:
                    self._on_crash(now, payload)
                elif kind == _CHIP_RECOVER:
                    self._on_recover(now, payload)
                elif kind == _HEDGE_SETTLE:
                    self._on_settle(now, payload)
                # _CHIP_FREE carries no state change — the chip already
                # knows its free_at_s; the pop just wakes the dispatcher.
            if ingested:
                if self.autoscaler is not None and (
                        self._n_ready == 0
                        or not self.cluster.has_idle_chip(now)):
                    # Arrival decision point with nothing dispatchable:
                    # the controller still observes the queue building.
                    self._controller_tick(now, pending.n_pending)
                self._issue_prefetches(now)
            if hedging is not None and pending.n_pending > 0:
                hedging.maybe_hedge(now, cluster, is_ready)
            self._dispatch_all(now)
            if self._obs is not None:
                self._obs.maybe_snapshot(now)
            if (self.autoscaler is not None and pending.n_pending == 0
                    and self._tick_pushed_at != now):
                next_t = events[0][0] if events else None
                if i < n and (next_t is None or arrival_t[i] < next_t):
                    next_t = arrival_t[i]
                if next_t is not None and next_t > now:
                    # Idle service: one scale tick at the start of the
                    # gap, where the controller can drain surplus chips.
                    self._tick_pushed_at = now
                    self._push(now, _SCALE_TICK)
        return now

    def _finalize(self, now: float) -> ServiceReport:
        pending = self._pending
        if pending.n_pending > 0:
            if self._faults is not None and self.cluster.n_available == 0:
                # Not a bug: the whole fleet died for good with admitted
                # work still queued. Close the ledger as failures.
                self._fail_pending(now)
            else:
                raise SimulationError(
                    f"event queue drained with {pending.n_pending} requests "
                    "still pending (engine bug)"
                )
        else:
            stray = pending.stray_counts()
            if stray:
                raise SimulationError(
                    f"backlog counters {stray} nonzero with nothing "
                    "pending (engine bug)"
                )
        if self._staged:
            raise SimulationError(
                f"event queue drained with {len(self._staged)} staged "
                "batches never started (engine bug)"
            )
        # Conservation: every arrival ends exactly once — completed,
        # shed, or failed. A hedged pair settles to one response (or
        # fails once, as its original), so clones never enter the count.
        offered = len(self._arrivals)
        closed = len(self._responses) + len(self._shed) + len(self._failed)
        if offered != closed:
            raise SimulationError(
                f"request ledger does not balance: {offered} arrived but "
                f"{len(self._responses)} completed + {len(self._shed)} shed "
                f"+ {len(self._failed)} failed = {closed} (engine bug)"
            )
        if self.autoscaler is not None:
            # Drain completions that finished after the last controller
            # tick so the window's accounting closes at exactly one
            # sample per offered request. No scaling decision follows,
            # so this never changes a schedule.
            for finish_s, _seq, slo_met in sorted(self._inflight):
                self.autoscaler.record_response(finish_s, slo_met)
            self._inflight.clear()
        if not self._responses:
            if self._failed:
                raise SimulationError(
                    "no request ever completed: the whole fleet went down "
                    f"and {len(self._failed)} admitted requests failed"
                )
            raise SimulationError(
                f"admission policy {self.admission.name!r} shed all "
                f"{len(self._shed)} requests"
            )
        if self.trace_library is not None:
            # Shutdown flush: fold this run's compiled traces and hit
            # counters back into the library so the next start is warm.
            baseline = self._hits_baseline
            run_hits = {
                key: hits - baseline.get(key, 0)
                for key, hits in self.cache.hits_by_key.items()
                if hits > baseline.get(key, 0)
            }
            self.trace_library.absorb(self.cache, run_hits=run_hits)
            if self._library_path is not None:
                # Merge-on-save: another process sharing the library
                # path must not lose its hits to ours.
                self.trace_library.save(self._library_path, merge=True)
        report = ServiceReport(
            policy=self.cluster.policy_name,
            responses=self._responses,
            chips=self.cluster.chips,
            cache_stats=self.cache.stats.to_dict(),
            batch_sizes=list(self.batcher.stats.sizes),
            shed=self._shed,
            fleet_events=(list(self.autoscaler.events)
                          if self.autoscaler is not None else []),
            admission_policy=(self.admission.name
                              if self.admission is not None else None),
            autoscaled=self.autoscaler is not None,
            compile_stats=(self._compile_stats_dict()
                           if self.pool is not None else {}),
            prefetch_stats=(self.prefetcher.to_dict()
                            if self.prefetcher is not None else {}),
            preempt_enabled=self.preempt,
            n_preemption_events=self.n_preemptions,
            failed=list(self._failed),
            fault_stats=(self._faults.stats_dict(len(self._failed),
                                                 self.cluster.chips)
                         if self._faults is not None else {}),
            hedge_stats=(self._hedging.stats_dict()
                         if self._hedging is not None else {}),
        )
        obs = self._obs
        if obs is not None:
            # Publish flows strictly report -> registry, never back:
            # the report is built first and is byte-identical with or
            # without an observer attached (pinned in the test suite).
            if obs.metrics is not None:
                publish_report(report, obs.metrics)
            obs.finalize(report.end_s)
        return report

    def _finish_compile(self, now: float, payload) -> None:
        key, latency, wall, demand = payload
        # The pin exists so pricing survives the compile window; once
        # the program lands in the cache, the cache's LRU bound owns it
        # (memory stays O(capacity), not O(distinct traces)).
        program = self._programs.pop(key)
        evicted = self.cache.insert(key, program, sim_cost_s=latency,
                                    wall_cost_s=wall)
        if not demand:
            self._prefetch_evicted.update(evicted)
        self._waiting_done_s.pop(key, None)
        waiting = self._waiting_requests.pop(key, 0)
        self._n_waiting -= waiting
        self._issue_prefetches(now)

    def _compile_stats_dict(self) -> dict:
        out = self.pool.stats.to_dict()
        out["workers"] = self.pool.n_workers
        return out
