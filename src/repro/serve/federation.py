"""Planet-scale federation: multi-region serving with trace gossip.

One :class:`~repro.serve.cluster.ServeCluster` is a region's worth of
accelerators; "millions of users" is many regions, each riding its own
time zone's diurnal wave. This module composes clusters into named
:class:`Region`\\ s behind a :class:`GlobalRouter` that places every
request by a latency-, cost-, and load-aware score (sticky per session
where stickiness pays), and replicates each region's persistent
:class:`~repro.serve.trace_library.TraceLibrary` to its peers via
asynchronous gossip — so one region's compile storm warms the planet
before the wave rolls into the next time zone.

**Execution model.** The federation advances in *sync epochs* of
``FederationConfig.sync_cadence_s`` simulated seconds. Within an epoch
each region's arrivals run through the real discrete-event engine
(:func:`~repro.serve.scheduler.simulate_service`) on a fresh fleet but
a *persistent per-region trace cache*, so compile state — the thing
federation exists to move around — carries across epochs exactly as it
does across runs of a warm service. At each epoch boundary every
region folds its newly compiled traces into its library, stamps the
changed records with its per-region version counter, and pushes the
suffix its peer has not acknowledged (classic version-vector
anti-entropy) onto the wire; the message lands ``gossip_delay_s``
later and is applied at the next boundary. A record is therefore never
staler than ``sync_cadence_s + gossip_delay_s`` on a healthy channel —
the staleness bound the config exposes.

**Breaking it on purpose.** A :class:`FederationPlan` injects region
loss (:class:`RegionOutage`) and replication-channel partitions
(:class:`ChannelPartition`), in the spirit of
:mod:`repro.serve.faults`. Under naive routing a request whose home
region is down fails outright; the federated router fails it over to
the best surviving region and charges the migration: the cross-region
RTT *plus* ``failover_cost_s`` land in the request's SLO accounting,
so failover is visible in the attainment numbers, not hidden by them.
Partitioned channels simply stop carrying gossip — version vectors
catch the receiver up after the heal, no replay log needed.

Determinism: identical specs, streams, config, and plan produce an
identical :class:`FederationReport`, byte for byte — the property the
frozen federation goldens pin.
"""

from __future__ import annotations

import heapq
import math
from bisect import bisect_right
from collections import OrderedDict
from dataclasses import dataclass, field
from dataclasses import fields as dataclass_fields
from functools import cached_property
from typing import Callable, Iterable, Mapping, Optional, Sequence

import numpy as np

from repro.core.config import CompileLatencyModel
from repro.errors import ConfigError, SimulationError, finite_float
from repro.serve.admission import ShedRecord, make_admission_policy
from repro.serve.batcher import PipelineBatcher
from repro.serve.cluster import ServeCluster
from repro.serve.faults import FailedRecord
from repro.serve.metrics import (ServiceReport, cached_percentile,
                                 report_percentiles, service_figures)
from repro.serve.request import RenderRequest, TraceKey
from repro.serve.scheduler import simulate_service
from repro.serve.trace_cache import TraceCache
from repro.serve.trace_library import TraceLibrary, TraceRecord
from repro.serve.traffic import _check_seed, _draw_stream, _merge_ranks

#: Period of the diurnal traffic pattern (`traffic._diurnal_arrivals`):
#: one compressed "day" of simulated seconds. A region at UTC+h rides
#: the same wave shifted by h/24 of this period.
DIURNAL_PERIOD_S = 4.0

#: Router arms.
ROUTERS = ("naive", "federated")

#: Most sync epochs one federation run may take. Every epoch runs each
#: serving region's engine, so a cadence that splits the traffic
#: horizon finer than this is a mistake, not a workload.
MAX_SYNC_EPOCHS = 1_000_000


# ----------------------------------------------------------------------
# Region topology
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class RegionSpec:
    """One named region: a fleet, a time zone, and an economics tag.

    ``tz_offset_h`` shifts the region's diurnal wave and prices the
    wire: inter-region RTT grows with circular time-zone distance (a
    crude but monotone proxy for geographic distance).
    ``cost_factor`` scales the region's chip-second price — the router
    trades it off against latency and load.
    """

    name: str
    tz_offset_h: float = 0.0
    n_chips: int = 2
    policy: str = "pipeline-affinity"
    cost_factor: float = 1.0
    cache_capacity: int = 64

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigError("region needs a name")
        if "|" in self.name or "@" in self.name or ";" in self.name:
            raise ConfigError(
                f"region name {self.name!r} may not contain '|', '@', or ';'")
        if self.n_chips < 1:
            raise ConfigError(f"region {self.name!r} needs at least one chip")
        if self.cost_factor <= 0:
            raise ConfigError(
                f"region {self.name!r} cost factor must be positive")
        if self.cache_capacity < 0:
            raise ConfigError(
                f"region {self.name!r} cache capacity cannot be negative")

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "tz_offset_h": self.tz_offset_h,
            "n_chips": self.n_chips,
            "policy": self.policy,
            "cost_factor": self.cost_factor,
            "cache_capacity": self.cache_capacity,
        }


def parse_region_spec(spec: str) -> tuple[RegionSpec, ...]:
    """Parse a CLI region topology.

    Format: ``name[:field=value,...]`` entries joined by ``;`` with
    fields ``tz`` (hours), ``chips``, ``cost``, ``cap`` (cache
    capacity), and ``policy`` — e.g.
    ``"us-east:tz=-5,chips=3;eu-west:tz=1,chips=3,cost=1.2;ap-tokyo:tz=9"``.
    """
    specs: list[RegionSpec] = []
    for raw in spec.split(";"):
        entry = raw.strip()
        if not entry:
            continue
        name, _, body = entry.partition(":")
        name = name.strip()
        fields = {"tz": 0.0, "chips": 2.0, "cost": 1.0, "cap": 64.0,
                  "policy": "pipeline-affinity"}
        if body:
            for pair in body.split(","):
                key, sep, value = pair.partition("=")
                key = key.strip()
                if not sep or key not in fields:
                    raise ConfigError(
                        f"bad region field {pair!r} in {raw!r}; expected "
                        "tz=, chips=, cost=, cap=, or policy="
                    )
                if key == "policy":
                    fields[key] = value.strip()
                    continue
                try:
                    fields[key] = finite_float(value)
                except ValueError as err:
                    raise ConfigError(
                        f"region field {pair!r} in {raw!r} is not a number: "
                        f"{err}") from err
        specs.append(RegionSpec(
            name=name,
            tz_offset_h=fields["tz"],
            n_chips=int(fields["chips"]),
            policy=str(fields["policy"]),
            cost_factor=fields["cost"],
            cache_capacity=int(fields["cap"]),
        ))
    if not specs:
        raise ConfigError(f"region spec {spec!r} describes no regions")
    names = [s.name for s in specs]
    if len(set(names)) != len(names):
        raise ConfigError(f"region spec {spec!r} repeats a region name")
    return tuple(specs)


@dataclass(frozen=True)
class FederationConfig:
    """Knobs of the router and the replication plane.

    The router score of placing a ``home``-homed request in region
    ``r`` is ``rtt(home, r) + load_weight * (queue_ewma(r)
    + overflow(r)/n_chips) + cost_weight_s * (cost_factor(r) - 1)`` —
    everything in seconds, lowest wins, ties broken by region
    declaration order. ``queue_ewma(r)`` is the region's smoothed mean
    queueing delay over past epochs; ``overflow(r)`` is the service
    time assigned to ``r`` this epoch beyond what its fleet absorbs in
    one ``sync_cadence_s``. A sticky session (keyed by home region and
    scene) keeps its region while that region scores within
    ``sticky_margin_s`` of the winner, so trace locality is not
    squandered on marginal score noise.

    Gossip pushes version-vector deltas every ``sync_cadence_s`` and
    the wire delivers them ``gossip_delay_s`` later, so on a healthy
    channel no replicated record is staler than
    :attr:`staleness_bound_s`.
    """

    router: str = "federated"
    gossip: bool = True
    sync_cadence_s: float = 0.5
    gossip_delay_s: float = 0.25
    local_rtt_s: float = 0.002
    rtt_per_hour_s: float = 0.004
    failover_cost_s: float = 0.02
    sticky_margin_s: float = 0.005
    load_weight: float = 1.0
    cost_weight_s: float = 0.002
    default_service_s: float = 0.004
    service_ewma_alpha: float = 0.3
    max_batch: int = 8
    admission: Optional[str] = None

    def __post_init__(self) -> None:
        if self.router not in ROUTERS:
            raise ConfigError(
                f"unknown router {self.router!r}; choose from {ROUTERS}")
        # Every float knob (a field with a float default) is a finite,
        # non-negative number; the first that is not is named.
        for knob in dataclass_fields(self):
            if not isinstance(knob.default, float):
                continue
            value = getattr(self, knob.name)
            try:
                finite_float(value)
            except ValueError as err:
                raise ConfigError(
                    f"federation knob {knob.name} must be finite: {err}"
                ) from err
            if value < 0:
                raise ConfigError(f"federation knob {knob.name} is negative")
        if self.sync_cadence_s <= 0:
            raise ConfigError("sync cadence must be positive")
        if not 0.0 < self.service_ewma_alpha <= 1.0:
            raise ConfigError("service EWMA alpha must be in (0, 1]")

    @property
    def staleness_bound_s(self) -> float:
        """Max age of a replicated record on a healthy channel: one
        sync cadence of local accumulation plus the wire delay."""
        return self.sync_cadence_s + self.gossip_delay_s

    def to_dict(self) -> dict:
        return {
            "router": self.router,
            "gossip": self.gossip,
            "sync_cadence_s": self.sync_cadence_s,
            "gossip_delay_s": self.gossip_delay_s,
            "staleness_bound_s": self.staleness_bound_s,
            "local_rtt_s": self.local_rtt_s,
            "rtt_per_hour_s": self.rtt_per_hour_s,
            "failover_cost_s": self.failover_cost_s,
            "sticky_margin_s": self.sticky_margin_s,
            "load_weight": self.load_weight,
            "cost_weight_s": self.cost_weight_s,
            "admission": self.admission,
        }


def _ring_hours(a: float, b: float) -> float:
    """Circular time-zone distance in hours (0..12)."""
    d = abs(a - b) % 24.0
    return min(d, 24.0 - d)


def region_rtt_s(config: FederationConfig,
                 a: RegionSpec, b: RegionSpec) -> float:
    """One-way network latency a ``home``-region request pays to be
    served in region ``b`` (``local_rtt_s`` inside one region)."""
    if a.name == b.name:
        return config.local_rtt_s
    return (config.local_rtt_s
            + config.rtt_per_hour_s * _ring_hours(a.tz_offset_h,
                                                  b.tz_offset_h))


# ----------------------------------------------------------------------
# Injected federation faults
# ----------------------------------------------------------------------
def _check_window(kind: str, start_s: float,
                  end_s: Optional[float]) -> None:
    """A fault window starts at a finite time >= 0 and, unless open
    (``end_s`` None), ends strictly later; NaN fails both tests."""
    if not math.isfinite(start_s):
        raise ConfigError(f"{kind} start must be finite (got {start_s!r})")
    if start_s < 0:
        raise ConfigError(f"{kind} start cannot be negative")
    if end_s is not None and not end_s > start_s:
        raise ConfigError(f"{kind} must end after it starts")


@dataclass(frozen=True)
class RegionOutage:
    """A whole region offline during ``[start_s, end_s)`` (``end_s``
    ``None`` means it never comes back)."""

    region: str
    start_s: float
    end_s: Optional[float] = None

    def __post_init__(self) -> None:
        _check_window("outage", self.start_s, self.end_s)

    def covers(self, t: float) -> bool:
        return t >= self.start_s and (self.end_s is None or t < self.end_s)

    def to_dict(self) -> dict:
        return {"region": self.region, "start_s": self.start_s,
                "end_s": self.end_s}


@dataclass(frozen=True)
class ChannelPartition:
    """The replication channel between two regions severed during
    ``[start_s, end_s)`` — request routing is unaffected, only gossip
    stops flowing (and version vectors catch up after the heal)."""

    a: str
    b: str
    start_s: float
    end_s: Optional[float] = None

    def __post_init__(self) -> None:
        if self.a == self.b:
            raise ConfigError("a partition needs two distinct regions")
        _check_window("partition", self.start_s, self.end_s)

    def covers(self, t: float) -> bool:
        return t >= self.start_s and (self.end_s is None or t < self.end_s)

    def blocks(self, x: str, y: str, t: float) -> bool:
        return (self.covers(t)
                and {x, y} == {self.a, self.b})

    def to_dict(self) -> dict:
        return {"a": self.a, "b": self.b, "start_s": self.start_s,
                "end_s": self.end_s}


class FederationPlan:
    """Immutable schedule of region outages and channel partitions."""

    def __init__(self,
                 outages: Iterable[RegionOutage] = (),
                 partitions: Iterable[ChannelPartition] = ()) -> None:
        self.outages = tuple(outages)
        self.partitions = tuple(partitions)
        # The outage schedule as sorted boundaries: every outage starts
        # and ends on one, so the set of down regions is constant on
        # [bounds[i-1], bounds[i]) and ``_down[i]`` is that set, read
        # at the segment's left end with each outage's ``covers``.
        self._bounds = sorted(
            {o.start_s for o in self.outages}
            | {o.end_s for o in self.outages if o.end_s is not None})
        self._down = [frozenset()] + [
            frozenset(o.region for o in self.outages if o.covers(t))
            for t in self._bounds]

    @property
    def empty(self) -> bool:
        return not self.outages and not self.partitions

    def down_at(self, t: float) -> frozenset:
        """Names of the regions some outage covers at ``t``."""
        return self._down[bisect_right(self._bounds, t)]

    def region_down(self, name: str, t: float) -> bool:
        return name in self.down_at(t)

    def channel_blocked(self, x: str, y: str, t: float) -> bool:
        return any(p.blocks(x, y, t) for p in self.partitions)

    def validate_regions(self, names: Iterable[str]) -> None:
        known = set(names)
        for outage in self.outages:
            if outage.region not in known:
                raise ConfigError(
                    f"outage names unknown region {outage.region!r}")
        for part in self.partitions:
            for end in (part.a, part.b):
                if end not in known:
                    raise ConfigError(
                        f"partition names unknown region {end!r}")

    @classmethod
    def parse(cls, spec: str) -> "FederationPlan":
        """Parse a CLI fault plan, :meth:`faults.FaultPlan.parse`-style.

        ``;``-joined clauses: ``outage=REGION@START[+DURATION]`` (no
        duration = permanent) and ``partition=A|B@START[+DURATION]`` —
        e.g. ``"outage=eu-west@0.8+0.6;partition=us-east|ap-tokyo@0.4+0.8"``.
        """
        outages: list[RegionOutage] = []
        partitions: list[ChannelPartition] = []
        for raw in spec.split(";"):
            entry = raw.strip()
            if not entry:
                continue
            kind, sep, body = entry.partition("=")
            kind = kind.strip()
            if not sep or kind not in ("outage", "partition"):
                raise ConfigError(
                    f"bad federation fault {entry!r}; expected "
                    "outage=REGION@START[+DUR] or partition=A|B@START[+DUR]"
                )
            target, sep, when = body.partition("@")
            if not sep:
                raise ConfigError(
                    f"federation fault {entry!r} is missing '@start'")
            start_text, sep, duration_text = when.partition("+")
            try:
                start = finite_float(start_text)
                end = (start + finite_float(duration_text)) if sep else None
                if end is not None and not math.isfinite(end):
                    raise ValueError("start + duration overflows")
            except ValueError as err:
                raise ConfigError(
                    f"bad time in federation fault {entry!r}: {err}") from err
            if kind == "outage":
                outages.append(RegionOutage(
                    region=target.strip(), start_s=start, end_s=end))
            else:
                a, sep, b = target.partition("|")
                if not sep:
                    raise ConfigError(
                        f"partition {entry!r} needs two regions 'A|B'")
                partitions.append(ChannelPartition(
                    a=a.strip(), b=b.strip(), start_s=start, end_s=end))
        return cls(outages=outages, partitions=partitions)

    def to_dict(self) -> dict:
        return {
            "outages": [o.to_dict() for o in self.outages],
            "partitions": [p.to_dict() for p in self.partitions],
        }


# ----------------------------------------------------------------------
# Gossip plumbing
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class GossipMessage:
    """One anti-entropy push: the records of ``src`` that ``dst`` has
    not acknowledged, each stamped ``(origin, version)``."""

    src: str
    dst: str
    sent_s: float
    records: tuple[tuple[TraceRecord, str, int], ...]


class Region:
    """One region's runtime: a persistent trace cache + library, the
    per-region version counter, and the epoch-by-epoch accounting.

    The fleet itself is *not* persistent — each sync epoch runs on a
    fresh :class:`ServeCluster` (chips carry lifetime accounting and
    must not be reused), while the :class:`TraceCache` carries compiled
    state across epochs the way a warm service carries it across runs.
    """

    def __init__(
        self,
        spec: RegionSpec,
        config: FederationConfig,
        *,
        compile_fn: Optional[Callable] = None,
        latency_model: Optional[CompileLatencyModel] = None,
        library: Optional[TraceLibrary] = None,
    ) -> None:
        self.spec = spec
        self.config = config
        self.latency_model = latency_model
        kwargs = {} if compile_fn is None else {"compile_fn": compile_fn}
        self.cache = TraceCache(capacity=spec.cache_capacity,
                                latency_model=latency_model, **kwargs)
        self.library = library if library is not None else TraceLibrary()
        if len(self.library):
            self.library.warm(self.cache)
        # Replication state: a per-region update counter, each record's
        # latest (origin, version) stamp, the version vector of stamps
        # this region has seen, and the last payload published per key
        # (so only genuinely changed records are re-stamped).
        self.clock = 0
        self.versions: dict[TraceKey, tuple[str, int]] = {}
        self.version_vector: dict[str, int] = {spec.name: 0}
        self._last_published: dict[TraceKey, TraceRecord] = {}
        # Accounting: running totals over served epochs (the epoch
        # reports themselves are not kept). The totals start as int 0,
        # as ``sum()`` over no epochs would, so an idle region's JSON
        # is unchanged.
        self.n_epochs_served = 0
        self.chip_seconds = 0
        self.cost_units = 0
        self.epoch_timeline: list[dict] = []
        self.service_ewma_s = 0.0
        self.queue_ewma_s = 0.0
        self.gossip_records_sent = 0
        self.gossip_records_received = 0
        self.gossip_warm_installs = 0

    # -- serving -------------------------------------------------------
    def note_idle_epoch(self) -> None:
        """An epoch with nothing assigned drains the queue signal —
        an idle region must become attractive to the router again."""
        self.queue_ewma_s *= 1.0 - self.config.service_ewma_alpha

    def run_epoch(self, epoch: int, t0: float,
                  requests: Sequence[RenderRequest]) -> ServiceReport:
        """Serve one sync epoch's arrivals on a fresh fleet backed by
        the region's persistent cache; folds compiled traces and hit
        deltas into the library and returns the engine report."""
        hits_baseline = dict(self.cache.hits_by_key)
        misses_before = self.cache.stats.misses
        hits_before = self.cache.stats.hits
        admission = (make_admission_policy(self.config.admission)
                     if self.config.admission else None)
        report = simulate_service(
            requests,
            ServeCluster(self.spec.n_chips, policy=self.spec.policy),
            cache=self.cache,
            batcher=PipelineBatcher(max_batch=self.config.max_batch),
            admission=admission,
            compile_latency=self.latency_model,
        )
        run_hits = {
            key: hits - hits_baseline.get(key, 0)
            for key, hits in self.cache.hits_by_key.items()
            if hits > hits_baseline.get(key, 0)
        }
        self.library.absorb(self.cache, run_hits=run_hits)
        # The figures an epoch reads, without the report's full summary
        # (percentiles, tenant tables).
        end_s, mean_service_s, mean_queue_s = service_figures(
            report.responses)
        alpha = self.config.service_ewma_alpha
        self.service_ewma_s = (
            mean_service_s if self.service_ewma_s == 0.0
            else (1.0 - alpha) * self.service_ewma_s
            + alpha * mean_service_s)
        self.queue_ewma_s = ((1.0 - alpha) * self.queue_ewma_s
                             + alpha * mean_queue_s)
        self.n_epochs_served += 1
        # ServiceReport.total_chip_seconds / total_cost_units at end_s.
        self.chip_seconds += sum(c.alive_s(end_s) for c in report.chips)
        self.cost_units += sum(c.cost_units(end_s) for c in report.chips)
        self.epoch_timeline.append({
            "epoch": epoch,
            "t0": t0,
            "n_assigned": len(requests),
            "misses": self.cache.stats.misses - misses_before,
            "hits": self.cache.stats.hits - hits_before,
        })
        return report

    # -- replication ---------------------------------------------------
    def publish_local(self) -> int:
        """Stamp every record whose payload changed since the last
        boundary with this region's next version; returns how many."""
        stamped = 0
        for key in self.library.keys:
            record = self.library.get(key)
            if self._last_published.get(key) == record:
                continue
            self.clock += 1
            self.versions[key] = (self.spec.name, self.clock)
            self.version_vector[self.spec.name] = self.clock
            self._last_published[key] = record
            stamped += 1
        return stamped

    def delta_for(self, acked: Mapping[str, int]) -> tuple:
        """Records stamped beyond the peer's acknowledged version
        vector, in deterministic (origin, version) order."""
        out = [
            (self.library.get(key), origin, version)
            for key, (origin, version) in self.versions.items()
            if version > acked.get(origin, 0)
        ]
        out.sort(key=lambda item: (item[1], item[2]))
        return tuple(out)

    def apply_gossip(self, message: GossipMessage) -> int:
        """Merge one peer push: adopt unseen stamps, fold the records
        into the library, and warm the cache for keys not resident —
        this is the planet-warming step. Returns warm installs."""
        installed = 0
        for record, origin, version in message.records:
            self.gossip_records_received += 1
            if version <= self.version_vector.get(origin, 0):
                continue
            self.version_vector[origin] = version
            current = self.library.get(record.key)
            if current is None or record.hits > current.hits:
                self.library.merge_record(record)
                self._last_published[record.key] = record
                self.versions[record.key] = (origin, version)
            if (record.key not in self.cache
                    and self.cache.capacity > 0):
                program = self.cache.compile_fn(record.key)
                self.cache.warm_start(record.key, program,
                                      sim_cost_s=record.compile_s)
                self.gossip_warm_installs += 1
                installed += 1
        return installed

    # -- rollups -------------------------------------------------------
    def summary(self) -> dict:
        return {
            "spec": self.spec.to_dict(),
            "n_epochs_served": self.n_epochs_served,
            "chip_seconds": self.chip_seconds,
            "cost_units": self.cost_units * self.spec.cost_factor,
            "cache": self.cache.stats.to_dict(),
            "gossip_records_sent": self.gossip_records_sent,
            "gossip_records_received": self.gossip_records_received,
            "gossip_warm_installs": self.gossip_warm_installs,
            "library_size": len(self.library),
            "epoch_timeline": list(self.epoch_timeline),
        }


# ----------------------------------------------------------------------
# Global router
# ----------------------------------------------------------------------
class GlobalRouter:
    """Places each request in a region by score; see
    :class:`FederationConfig` for the formula. ``naive`` mode pins
    every request to its home region and fails it when that region is
    down — the control arm the federated router is judged against."""

    def __init__(self, regions: "OrderedDict[str, Region]",
                 config: FederationConfig, plan: FederationPlan) -> None:
        self._regions = regions
        self._config = config
        self._plan = plan
        self._rtt = {
            (a.spec.name, b.spec.name): region_rtt_s(config, a.spec, b.spec)
            for a in regions.values() for b in regions.values()
        }
        # Score lanes in declaration order: (name, region, capacity_s),
        # capacity_s being the one-epoch fleet capacity of ``_score``.
        self._lanes = [
            (name, region, region.spec.n_chips * config.sync_cadence_s)
            for name, region in regions.items()]
        self._load_s: dict[str, float] = {name: 0.0 for name in regions}
        # (home, region) -> score while the region is under capacity.
        # Without overflow a score reads only the region's EWMAs, which
        # change between epochs (run_epoch / note_idle_epoch), never
        # while an epoch is being routed.
        self._calm_scores: dict[tuple[str, str], float] = {}
        self._sticky: dict[tuple[str, str], str] = {}
        self.n_routed = 0
        self.n_remote = 0
        self.n_failovers = 0
        self.n_sticky_holds = 0
        self.n_unroutable = 0

    def begin_epoch(self) -> None:
        """Reset the per-epoch assigned-load ledger and score cache."""
        self._load_s = {name: 0.0 for name in self._regions}
        self._calm_scores = {}

    def _score(self, home: str, region: Region) -> float:
        spec = region.spec
        # Load counts only *overflow*: assigned service-seconds beyond
        # what the region's fleet can absorb within one sync epoch.
        # Under capacity a region serves at RTT, so requests stay home
        # (trace locality); past capacity the backlog-per-chip is the
        # projected extra wait, and overflow spills to the nearest
        # under-loaded region — follow-the-sun borrowing of another
        # time zone's idle night capacity.
        capacity_s = spec.n_chips * self._config.sync_cadence_s
        overflow = max(0.0, self._load_s[spec.name] - capacity_s)
        return (self._rtt[(home, spec.name)]
                + self._config.load_weight
                * (region.queue_ewma_s + overflow / spec.n_chips)
                + self._config.cost_weight_s * (spec.cost_factor - 1.0))

    def route(self, request: RenderRequest, home: str,
              now: float) -> tuple[Optional[str], float, bool]:
        """Place one request; returns ``(region | None, extra_latency_s,
        failover)``. ``extra_latency_s`` is the network RTT plus (on
        failover) the session-migration cost — it lands on the
        request's federated latency, and therefore in SLO accounting."""
        config = self._config
        down = self._plan.down_at(now)
        home_up = home not in down
        if config.router == "naive":
            if not home_up:
                self.n_unroutable += 1
                return None, 0.0, False
            self._note_assign(home)
            self.n_routed += 1
            return home, config.local_rtt_s, False

        load = self._load_s
        calm = self._calm_scores
        best: Optional[str] = None
        best_score = float("inf")
        for name, region, capacity_s in self._lanes:
            if name in down:
                continue
            if load[name] <= capacity_s:
                score = calm.get((home, name))
                if score is None:
                    score = calm[(home, name)] = self._score(home, region)
            else:
                score = self._score(home, region)
            if score < best_score:
                best, best_score = name, score
        if best is None:
            self.n_unroutable += 1
            return None, 0.0, False

        sticky_key = (home, request.scene)
        sticky = self._sticky.get(sticky_key)
        if (sticky is not None and sticky != best and sticky not in down):
            if (self._score(home, self._regions[sticky])
                    <= best_score + config.sticky_margin_s):
                best = sticky
                self.n_sticky_holds += 1
        self._sticky[sticky_key] = best

        failover = (best != home) and not home_up
        if failover:
            self.n_failovers += 1
        if best != home:
            self.n_remote += 1
        extra = self._rtt[(home, best)]
        if failover:
            extra += config.failover_cost_s
        self._note_assign(best)
        self.n_routed += 1
        return best, extra, failover

    def _note_assign(self, name: str) -> None:
        region = self._regions[name]
        est = region.service_ewma_s or self._config.default_service_s
        self._load_s[name] += est

    def stats(self) -> dict:
        return {
            "n_routed": self.n_routed,
            "n_remote": self.n_remote,
            "n_failovers": self.n_failovers,
            "n_sticky_holds": self.n_sticky_holds,
            "n_unroutable": self.n_unroutable,
        }


# ----------------------------------------------------------------------
# Federated responses and report
# ----------------------------------------------------------------------
@dataclass(slots=True)
class FederatedResponse:
    """One completed request as the *user* experienced it: the engine
    response plus where it ran and the network/migration latency the
    router charged on top."""

    response: object            # RenderResponse
    home: str
    region: str
    extra_latency_s: float      # RTT home->region (+ failover cost)
    failover: bool

    @property
    def latency_s(self) -> float:
        return self.response.latency_s + self.extra_latency_s

    @property
    def slo_met(self) -> bool:
        return self.latency_s <= self.response.request.effective_slo_s


#: One row per federated response, extracted in a single pass.
_FEDERATED_COLUMNS = np.dtype([
    ("arrival", "f8"), ("finish", "f8"), ("extra", "f8"), ("slo", "f8"),
    ("failover", "?"), ("remote", "?"),
])


@dataclass(frozen=True, slots=True)
class FederationSummary:
    """Every per-response figure of a :class:`FederationReport`,
    computed once from one pass over ``completed`` (scalars only)."""

    latency_p: tuple[float, ...]    # REPORT_QUANTILES, s; () if none
    n_slo_met: int
    makespan_s: float
    n_failovers: int
    n_remote: int


def _federated_rows(completed: Sequence[FederatedResponse]):
    """Yield one :data:`_FEDERATED_COLUMNS` row per federated response."""
    for item in completed:
        response = item.response
        request = response.request
        yield (request.arrival_s, response.finish_s, item.extra_latency_s,
               request.slo_s * request.tenant.slo_multiplier,
               item.failover, item.region != item.home)


def summarize_federated(
        completed: Sequence[FederatedResponse]) -> FederationSummary:
    """One pass over ``completed``; byte-identical to scoring each
    :class:`FederatedResponse` on its own (same float64 latencies,
    same :mod:`numpy` percentiles)."""
    cols = np.fromiter(_federated_rows(completed), dtype=_FEDERATED_COLUMNS,
                       count=len(completed))
    arrival, finish = cols["arrival"], cols["finish"]
    latency = (finish - arrival) + cols["extra"]
    makespan = (max(float(finish.max()) - float(arrival.min()), 0.0)
                if len(completed) else 0.0)
    return FederationSummary(
        latency_p=report_percentiles(latency),
        n_slo_met=int(np.count_nonzero(latency <= cols["slo"])),
        makespan_s=makespan,
        n_failovers=int(np.count_nonzero(cols["failover"])),
        n_remote=int(np.count_nonzero(cols["remote"])),
    )


@dataclass
class FederationReport:
    """What the federation did with one planet-wide workload.

    Per-response figures come from :attr:`summary`, computed once on
    first access."""

    config: FederationConfig
    specs: tuple[RegionSpec, ...]
    completed: list[FederatedResponse]
    shed: list[ShedRecord]
    failed: list[FailedRecord]
    n_offered: int
    n_epochs: int
    regions: dict = field(default_factory=dict)
    router_stats: dict = field(default_factory=dict)
    gossip_stats: dict = field(default_factory=dict)
    plan: Optional[FederationPlan] = None

    def __post_init__(self) -> None:
        if self.n_offered != (self.n_requests + self.n_shed
                              + self.n_failed):
            raise SimulationError(
                "federation lost requests: offered "
                f"{self.n_offered} != completed {self.n_requests} "
                f"+ shed {self.n_shed} + failed {self.n_failed}"
            )

    # -- conservation and headline metrics -----------------------------
    @property
    def n_requests(self) -> int:
        return len(self.completed)

    @property
    def n_shed(self) -> int:
        return len(self.shed)

    @property
    def n_failed(self) -> int:
        return len(self.failed)

    @cached_property
    def summary(self) -> FederationSummary:
        return summarize_federated(self.completed)

    def latency_p(self, q: float) -> float:
        return cached_percentile(
            self.summary.latency_p, q,
            lambda: [f.latency_s for f in self.completed])

    @property
    def slo_attainment(self) -> float:
        """SLO attainment over *completed* requests, with network RTT
        and failover migration cost included in every latency."""
        if not self.completed:
            return 0.0
        return self.summary.n_slo_met / len(self.completed)

    @property
    def goodput_slo_attainment(self) -> float:
        """Attainment over *offered* traffic: sheds and failures count
        as misses — the honest planet-wide number (a naive router that
        fails a whole region's day cannot hide it here)."""
        if not self.n_offered:
            return 0.0
        return self.summary.n_slo_met / self.n_offered

    @property
    def makespan_s(self) -> float:
        return self.summary.makespan_s

    @property
    def throughput_rps(self) -> float:
        span = self.makespan_s
        return self.n_requests / span if span > 0 else 0.0

    @property
    def n_failovers(self) -> int:
        return self.summary.n_failovers

    @property
    def n_remote(self) -> int:
        return self.summary.n_remote

    @property
    def total_chip_seconds(self) -> float:
        return sum(entry["chip_seconds"] for entry in self.regions.values())

    @property
    def total_cost_units(self) -> float:
        return sum(entry["cost_units"] for entry in self.regions.values())

    def to_dict(self) -> dict:
        return {
            "router": self.config.router,
            "gossip": self.config.gossip,
            "n_offered": self.n_offered,
            "n_requests": self.n_requests,
            "n_shed": self.n_shed,
            "n_failed": self.n_failed,
            "n_epochs": self.n_epochs,
            "n_remote": self.n_remote,
            "n_failovers": self.n_failovers,
            "slo_attainment": self.slo_attainment,
            "goodput_slo_attainment": self.goodput_slo_attainment,
            "latency_p50_ms": self.latency_p(50) * 1e3,
            "latency_p95_ms": self.latency_p(95) * 1e3,
            "latency_p99_ms": self.latency_p(99) * 1e3,
            "throughput_rps": self.throughput_rps,
            "total_chip_seconds": self.total_chip_seconds,
            "total_cost_units": self.total_cost_units,
            "config": self.config.to_dict(),
            "plan": self.plan.to_dict() if self.plan is not None else None,
            "router_stats": dict(self.router_stats),
            "gossip_stats": dict(self.gossip_stats),
            "regions": {name: dict(entry)
                        for name, entry in self.regions.items()},
        }


def format_federation_report(report: FederationReport) -> str:
    """Human-readable summary table, one row per region."""
    lines = [
        f"federation: router={report.config.router} "
        f"gossip={'on' if report.config.gossip else 'off'} "
        f"epochs={report.n_epochs} "
        f"staleness_bound={report.config.staleness_bound_s * 1e3:.0f}ms",
        f"  offered {report.n_offered}  completed {report.n_requests}  "
        f"shed {report.n_shed}  failed {report.n_failed}  "
        f"remote {report.n_remote}  failovers {report.n_failovers}",
        f"  SLO {report.slo_attainment * 100:.1f}% "
        f"(goodput {report.goodput_slo_attainment * 100:.1f}%)  "
        f"p50 {report.latency_p(50) * 1e3:.2f}ms  "
        f"p99 {report.latency_p(99) * 1e3:.2f}ms  "
        f"{report.throughput_rps:.0f} req/s  "
        f"{report.total_cost_units:.3f} cost units",
    ]
    for name, entry in report.regions.items():
        cache = entry["cache"]
        lines.append(
            f"  region {name:<12} served {entry['n_served']:>6}  "
            f"misses {cache['misses']:>5}  warmed {cache['warmed']:>5} "
            f"(gossip {entry['gossip_warm_installs']:>5})  "
            f"chip-s {entry['chip_seconds']:.3f}  "
            f"cost {entry['cost_units']:.3f}"
        )
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Traffic: time-zone-shifted diurnal waves
# ----------------------------------------------------------------------
def generate_federation_traffic(
    specs: Sequence[RegionSpec],
    n_requests_per_region: int = 300,
    rate_rps: float = 150.0,
    seed: int = 0,
    pattern: str = "diurnal",
    **traffic_kwargs,
) -> "OrderedDict[str, list[RenderRequest]]":
    """One seeded stream per region, phase-shifted by its time zone.

    Each region draws an independent stream from the shared generators
    (per-region seeds derived as ``seed * 1_000_003 + index``, the
    tenant-traffic idiom) and shifts every arrival by
    ``tz_offset_h / 24`` of the diurnal period — so the planet's load
    is a rolling wave, not a synchronized pulse. Request ids are
    numbered globally in arrival order (ties: lower region index first)
    so the merged workload is one coherent trace.
    """
    _check_seed(seed)
    columns = []
    for index, spec in enumerate(specs):
        stream = _draw_stream(
            n_requests_per_region, seed * 1_000_003 + index,
            pattern=pattern, rate_rps=rate_rps, **traffic_kwargs)
        phase_s = (spec.tz_offset_h % 24.0) / 24.0 * DIURNAL_PERIOD_S
        np.add(stream.arrivals, phase_s, out=stream.arrivals)
        columns.append(stream)
    ranks = _merge_ranks([stream.arrivals for stream in columns])
    return OrderedDict(
        (spec.name, stream.requests(rank.tolist()))
        for spec, stream, rank in zip(specs, columns, ranks))


# ----------------------------------------------------------------------
# The federation loop
# ----------------------------------------------------------------------
def simulate_federation(
    specs: Sequence[RegionSpec] | str,
    streams: Optional[Mapping[str, Sequence[RenderRequest]]] = None,
    *,
    config: Optional[FederationConfig] = None,
    plan: Optional[FederationPlan] = None,
    compile_fn: Optional[Callable] = None,
    compile_latency: Optional[CompileLatencyModel] = None,
    n_requests_per_region: int = 300,
    rate_rps: float = 150.0,
    seed: int = 0,
    pattern: str = "diurnal",
    libraries: Optional[Mapping[str, TraceLibrary]] = None,
) -> FederationReport:
    """Serve a planet-wide workload across federated regions.

    ``specs`` is a sequence of :class:`RegionSpec` or a
    :func:`parse_region_spec` string; ``streams`` maps home-region name
    to its request list (generated via
    :func:`generate_federation_traffic` when omitted).
    ``compile_latency`` defaults to a :class:`CompileLatencyModel` —
    compile-on-miss is synchronously *visible*, which is the entire
    point of gossip-warming remote caches. Deterministic: identical
    inputs produce an identical report.
    """
    if isinstance(specs, str):
        specs = parse_region_spec(specs)
    specs = tuple(specs)
    if not specs:
        raise ConfigError("federation needs at least one region")
    names = [spec.name for spec in specs]
    if len(set(names)) != len(names):
        raise ConfigError("federation region names must be unique")
    config = config if config is not None else FederationConfig()
    plan = plan if plan is not None else FederationPlan()
    plan.validate_regions(names)
    latency_model = (compile_latency if compile_latency is not None
                     else CompileLatencyModel())
    if streams is None:
        streams = generate_federation_traffic(
            specs, n_requests_per_region=n_requests_per_region,
            rate_rps=rate_rps, seed=seed, pattern=pattern)
    unknown = set(streams) - set(names)
    if unknown:
        raise ConfigError(
            f"traffic streams name unknown regions {sorted(unknown)}")

    regions: "OrderedDict[str, Region]" = OrderedDict()
    for spec in specs:
        regions[spec.name] = Region(
            spec, config,
            compile_fn=compile_fn,
            latency_model=latency_model,
            library=(libraries or {}).get(spec.name),
        )
    router = GlobalRouter(regions, config, plan)

    arrivals: list[tuple[float, int, int, str, RenderRequest]] = []
    for index, name in enumerate(names):
        for request in streams.get(name, ()):
            arrivals.append((request.arrival_s, index,
                             request.request_id, name, request))
    if not arrivals:
        raise ConfigError("federation needs at least one request")
    arrivals.sort(key=lambda item: item[:3])
    n_offered = len(arrivals)

    cadence = config.sync_cadence_s
    horizon = arrivals[-1][0]
    ratio = horizon / cadence
    if not ratio < MAX_SYNC_EPOCHS:   # also catches an infinite ratio
        raise ConfigError(
            f"sync_cadence_s={cadence!r} splits the {horizon!r} s traffic "
            f"horizon into more than {MAX_SYNC_EPOCHS:,} sync epochs; "
            "raise the cadence")
    n_epochs = int(ratio) + 1

    completed: list[FederatedResponse] = []
    shed: list[ShedRecord] = []
    failed: list[FailedRecord] = []
    pending_gossip: list[tuple[float, int, GossipMessage]] = []
    gossip_seq = 0
    n_messages = 0
    n_postponed = 0
    acked: dict[tuple[str, str], dict[str, int]] = {
        (a, b): {} for a in names for b in names if a != b}

    pointer = 0
    for epoch in range(n_epochs):
        t0 = epoch * cadence
        t1 = (epoch + 1) * cadence if epoch < n_epochs - 1 else float("inf")

        # 1) Deliver gossip that has landed by this boundary. A down
        #    receiver postpones delivery to the next boundary (its
        #    replication log buffers through the outage).
        redo: list[tuple[float, int, GossipMessage]] = []
        while pending_gossip and pending_gossip[0][0] <= t0 + 1e-12:
            _, seq, message = heapq.heappop(pending_gossip)
            if plan.region_down(message.dst, t0):
                redo.append((t0 + cadence, seq, message))
                n_postponed += 1
            else:
                regions[message.dst].apply_gossip(message)
        for item in redo:
            heapq.heappush(pending_gossip, item)

        # 2) Route this epoch's arrivals.
        router.begin_epoch()
        assigned: dict[str, list[RenderRequest]] = {}
        meta: dict[int, tuple[str, float, bool]] = {}
        while pointer < len(arrivals) and arrivals[pointer][0] < t1:
            _, _, _, home, request = arrivals[pointer]
            pointer += 1
            target, extra, failover = router.route(
                request, home, now=request.arrival_s)
            if target is None:
                failed.append(FailedRecord(
                    request=request,
                    failed_at_s=request.arrival_s,
                    reason=(f"home region {home} down"
                            if config.router == "naive"
                            else "no region available"),
                ))
                continue
            assigned.setdefault(target, []).append(request)
            meta[request.request_id] = (home, extra, failover)

        # 3) Run each serving region's epoch on the shared engine.
        for name, region in regions.items():
            batch = assigned.get(name)
            if not batch:
                region.note_idle_epoch()
                continue
            report = region.run_epoch(epoch, t0, batch)
            for response in report.responses:
                home, extra, failover = meta[response.request.request_id]
                completed.append(FederatedResponse(
                    response=response,
                    home=home,
                    region=name,
                    extra_latency_s=extra,
                    failover=failover,
                ))
            shed.extend(report.shed)
            failed.extend(report.failed)

        # 4) Publish + gossip at the boundary. Down or partitioned
        #    endpoints skip the push; the version vectors make the
        #    catch-up automatic after a heal.
        if not config.gossip or epoch == n_epochs - 1:
            continue
        boundary = (epoch + 1) * cadence
        for region in regions.values():
            region.publish_local()
        for src_name, src in regions.items():
            if plan.region_down(src_name, boundary):
                continue
            for dst_name in regions:
                if dst_name == src_name:
                    continue
                if plan.channel_blocked(src_name, dst_name, boundary):
                    continue
                delta = src.delta_for(acked[(src_name, dst_name)])
                if not delta:
                    continue
                acked[(src_name, dst_name)] = dict(src.version_vector)
                src.gossip_records_sent += len(delta)
                n_messages += 1
                gossip_seq += 1
                heapq.heappush(pending_gossip, (
                    boundary + config.gossip_delay_s,
                    gossip_seq,
                    GossipMessage(src=src_name, dst=dst_name,
                                  sent_s=boundary, records=delta),
                ))

    region_summaries: "OrderedDict[str, dict]" = OrderedDict()
    served_by_region: dict[str, int] = {}
    for item in completed:
        served_by_region[item.region] = served_by_region.get(item.region, 0) + 1
    for name, region in regions.items():
        entry = region.summary()
        entry["n_served"] = served_by_region.get(name, 0)
        region_summaries[name] = entry

    return FederationReport(
        config=config,
        specs=specs,
        completed=completed,
        shed=shed,
        failed=failed,
        n_offered=n_offered,
        n_epochs=n_epochs,
        regions=region_summaries,
        router_stats=router.stats(),
        gossip_stats={
            "messages": n_messages,
            "postponed_deliveries": n_postponed,
            "records_sent": sum(r.gossip_records_sent
                                for r in regions.values()),
            "records_received": sum(r.gossip_records_received
                                    for r in regions.values()),
            "warm_installs": sum(r.gossip_warm_installs
                                 for r in regions.values()),
            "sync_cadence_s": config.sync_cadence_s,
            "gossip_delay_s": config.gossip_delay_s,
            "staleness_bound_s": config.staleness_bound_s,
        },
        plan=plan,
    )
