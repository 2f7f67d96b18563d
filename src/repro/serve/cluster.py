"""A fleet of Uni-Render chips with pluggable sharding policies.

The cluster tracks, per chip, when it frees up, which pipeline its PE
array is currently configured for, and lifetime accounting (busy time,
cycles, energy, reconfigurations, provisioned cost). Fleets may be
*heterogeneous* — each chip its own :class:`AcceleratorConfig` (mixed
PE/SRAM scales) — and *elastic*: the autoscaler adds chips (with a
warm-up delay) and retires them mid-run; retired chips stop receiving
work but keep their accounting for the final report.

A sharding policy picks the chip a batch runs on:

* ``round-robin`` — rotate through chips, skipping busy chips whenever
  an idle one exists at dispatch time.
* ``least-loaded`` — the chip that frees up earliest.
* ``pipeline-affinity`` — prefer a chip already configured for the
  batch's pipeline when waiting for it costs less than reconfiguring a
  cold one; fall back to least-loaded.
* ``cost-aware`` — the cheapest chip (by provisioned cost rate) that
  can still start the batch within its SLO deadline; ties break to the
  earliest-free chip, and when no chip makes the deadline the policy
  degrades to least-loaded to limit the damage.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Container, Mapping, Sequence

import numpy as np

from repro.core.config import AcceleratorConfig
from repro.core.simulator import UniRenderAccelerator
from repro.errors import ConfigError
from repro.serve.batcher import Batch


@dataclass
class ChipState:
    """One accelerator of the fleet plus its serving state."""

    chip_id: int
    accelerator: UniRenderAccelerator
    free_at_s: float = 0.0
    configured_pipeline: str | None = None

    # Elastic lifecycle: when the chip joined the fleet and (if the
    # autoscaler retired it) when it stopped accruing provisioned cost.
    added_at_s: float = 0.0
    retired_at_s: float | None = None

    # Lifetime accounting.
    busy_s: float = 0.0
    requests_served: int = 0
    frame_cycles: float = 0.0
    switch_cycles: float = 0.0          # service-level pipeline switches
    frame_reconfig_cycles: float = 0.0  # intra-frame reconfigurations
    pipeline_switches: int = 0
    energy_j: float = 0.0

    # Fault lifecycle (driven by a FaultPlan; all zero on healthy runs).
    down_since_s: float | None = None   # open outage start, None == up
    down_s: float = 0.0                 # closed-outage downtime total
    n_crashes: int = 0
    lost_work_s: float = 0.0            # chip time burned on aborted frames

    @property
    def config(self) -> AcceleratorConfig:
        return self.accelerator.config

    @property
    def active(self) -> bool:
        return self.retired_at_s is None

    @property
    def available(self) -> bool:
        """Active and not currently crashed — the dispatcher's and the
        autoscaler's notion of real capacity."""
        return self.retired_at_s is None and self.down_since_s is None

    @property
    def switch_s(self) -> float:
        """Wall time of one pipeline switch on this chip."""
        return self.config.reconfigure_cycles / self.config.clock_hz

    def utilization(self, horizon_s: float) -> float:
        """Busy fraction of this chip's *provisioned* lifetime up to the
        absolute time ``horizon_s`` — a chip added late or retired early
        is scored over the span it was actually paid for."""
        alive = self.alive_s(horizon_s)
        return self.busy_s / alive if alive > 0 else 0.0

    def alive_s(self, horizon_s: float) -> float:
        """Provisioned wall time: join to retirement (or the horizon)."""
        end = self.retired_at_s if self.retired_at_s is not None else horizon_s
        return max(0.0, end - self.added_at_s)

    def cost_units(self, horizon_s: float) -> float:
        """Provisioned cost: chip-seconds weighted by the chip's rate."""
        return self.alive_s(horizon_s) * self.config.chip_cost_rate

    def down_total_s(self, horizon_s: float) -> float:
        """Total downtime up to ``horizon_s``, including an outage that
        is still open at the horizon (a permanent crash)."""
        down = self.down_s
        if self.down_since_s is not None:
            down += max(0.0, horizon_s - self.down_since_s)
        return down

    def availability(self, horizon_s: float) -> float:
        """Up fraction of the chip's provisioned lifetime (1.0 when the
        chip never crashed)."""
        alive = self.alive_s(horizon_s)
        if alive <= 0:
            return 1.0
        return max(0.0, 1.0 - self.down_total_s(horizon_s) / alive)

    def to_dict(self, horizon_s: float) -> dict:
        """JSON summary; ``horizon_s`` is the absolute end time both
        utilization and provisioned cost are scored against."""
        return {
            "chip_id": self.chip_id,
            "config": self.config.label,
            "requests_served": self.requests_served,
            "busy_s": self.busy_s,
            "utilization": self.utilization(horizon_s),
            "pipeline_switches": self.pipeline_switches,
            "switch_cycles": self.switch_cycles,
            "frame_reconfig_cycles": self.frame_reconfig_cycles,
            "energy_j": self.energy_j,
            "configured_pipeline": self.configured_pipeline,
            "added_at_s": self.added_at_s,
            "retired_at_s": self.retired_at_s,
            "alive_s": self.alive_s(horizon_s),
            "cost_units": self.cost_units(horizon_s),
            "n_crashes": self.n_crashes,
            "down_s": self.down_total_s(horizon_s),
            "lost_work_s": self.lost_work_s,
            "availability": self.availability(horizon_s),
        }


#: A policy maps (active chips, batch, now, est_service_s) -> the chip
#: to run the batch on. ``est_service_s`` is the dispatcher's current
#: estimate of one frame's service time (0.0 while the service is cold);
#: only deadline-aware policies use it.
ShardingPolicy = Callable[[list[ChipState], Batch, float, float], ChipState]


def _round_robin() -> ShardingPolicy:
    state = {"next": 0}

    def pick(chips: list[ChipState], batch: Batch, now: float,
             est_service_s: float = 0.0) -> ChipState:
        # Rotate, but never queue behind a busy chip while another sits
        # idle: scan forward from the pointer for an idle chip first.
        n = len(chips)
        for k in range(n):
            chip = chips[(state["next"] + k) % n]
            if chip.free_at_s <= now:
                state["next"] = (state["next"] + k + 1) % n
                return chip
        chip = chips[state["next"] % n]
        state["next"] = (state["next"] + 1) % n
        return chip

    return pick


def _earliest_free(chips, pipeline=None) -> ChipState | None:
    """The chip minimizing ``(free_at_s, chip_id)``; with ``pipeline``,
    among chips configured for it (``None`` when there is none)."""
    best = None
    for chip in chips:
        if pipeline is not None and chip.configured_pipeline != pipeline:
            continue
        if best is None or chip.free_at_s < best.free_at_s or (
                chip.free_at_s == best.free_at_s
                and chip.chip_id < best.chip_id):
            best = chip
    return best


def _least_loaded(chips: list[ChipState], batch: Batch, now: float,
                  est_service_s: float = 0.0) -> ChipState:
    return _earliest_free(chips)


def _pipeline_affinity(chips: list[ChipState], batch: Batch, now: float,
                       est_service_s: float = 0.0) -> ChipState:
    coldest = _earliest_free(chips)
    warmest = _earliest_free(chips, batch.pipeline)
    if warmest is None:
        return coldest
    # Waiting for the warm chip is worth at most one avoided switch.
    cold_start = max(now, coldest.free_at_s)
    warm_start = max(now, warmest.free_at_s)
    if warm_start <= cold_start + coldest.switch_s:
        return warmest
    return coldest


def _cost_aware(chips: list[ChipState], batch: Batch, now: float,
                est_service_s: float = 0.0) -> ChipState:
    """Cheapest chip that can still finish the batch head within its SLO.

    Feasibility projects the first frame's *completion*: queue wait,
    plus a pipeline switch if the chip is cold, plus the dispatcher's
    fleet-wide service-time estimate (an approximation — frames run
    faster on scaled-up chips than the blended estimate says). Packs
    work onto the cheapest feasible chips (letting pricier ones drain,
    which is what allows the autoscaler to retire them); when no chip
    makes the deadline, degrades to least-loaded.
    """
    deadline = min(
        (r.arrival_s + r.effective_slo_s for r in batch.requests),
        default=float("inf")
    )
    feasible = []
    for chip in chips:
        start = max(now, chip.free_at_s)
        if chip.configured_pipeline != batch.pipeline:
            start += chip.switch_s
        if start + est_service_s <= deadline:
            feasible.append(chip)
    if not feasible:
        return _least_loaded(chips, batch, now)
    return min(
        feasible,
        key=lambda c: (c.config.chip_cost_rate, c.free_at_s, c.chip_id),
    )


#: Registry of policy factories (fresh state per cluster).
SHARDING_POLICIES: dict[str, Callable[[], ShardingPolicy]] = {
    "round-robin": _round_robin,
    "least-loaded": lambda: _least_loaded,
    "pipeline-affinity": lambda: _pipeline_affinity,
    "cost-aware": lambda: _cost_aware,
}


# Unused; kept only for perfbench's ChipScoreLanes.select span (ROADMAP item 6).
class ChipScoreLanes:
    """Vectorized chip scoring over a static fleet.

    The columnar engine mirrors the fleet into NumPy columns once
    (free-at, cost-rate, switch-time, configured-pipeline code) and
    scores each dispatch against the columns instead of re-walking
    :class:`ChipState` objects and policy closures. Pipelines are
    addressed by the engine's integer vocabulary codes; a chip whose
    PE array is unconfigured (or configured for a pipeline outside the
    vocabulary) carries code ``-1``, which no batch ever matches.

    Every policy reproduces the scalar tie-break contract exactly
    (``TestTieBreakContract``): ``argmin`` returns the *first* minimal
    index, i.e. the lowest chip id among ties, which is precisely what
    the scalar ``min(..., key=(score, chip_id))`` scans produce. The
    stateful ``round-robin`` policy is deliberately unsupported — its
    rotation pointer lives in the cluster's closure, and bypassing it
    would fork the state; the engine falls back to
    :meth:`ServeCluster.select_chip` for it.

    Only valid while the fleet is static and healthy; the engine's
    columnar eligibility gate guarantees no autoscaling, crashes, or
    retirements for the lifetime of a lanes object.
    """

    #: Policies with a pure (stateless) columnar scorer.
    SUPPORTED = frozenset({"least-loaded", "pipeline-affinity", "cost-aware"})

    def __init__(
        self,
        chips: Sequence[ChipState],
        policy: str,
        pipeline_codes: Mapping[str, int],
    ) -> None:
        if policy not in self.SUPPORTED:
            raise ConfigError(
                f"policy {policy!r} has no columnar score lanes"
            )
        self.policy = policy
        self.free_at = np.array(
            [chip.free_at_s for chip in chips], dtype=np.float64
        )
        self.cost_rate = np.array(
            [chip.config.chip_cost_rate for chip in chips], dtype=np.float64
        )
        self.switch_s = np.array(
            [chip.switch_s for chip in chips], dtype=np.float64
        )
        self.pipe_code = np.array(
            [
                pipeline_codes.get(chip.configured_pipeline, -1)
                if chip.configured_pipeline is not None else -1
                for chip in chips
            ],
            dtype=np.int64,
        )

    def select(
        self,
        code: int,
        now: float,
        est_service_s: float = 0.0,
        deadline: float = float("inf"),
    ) -> int:
        """Chip id for a batch of pipeline ``code`` dispatched at ``now``.

        ``deadline`` is the batch head's SLO deadline and only read by
        the cost-aware policy (pass the default for the others).
        """
        if self.policy == "least-loaded":
            return int(self.free_at.argmin())
        if self.policy == "pipeline-affinity":
            return self._affinity(code, now)
        return self._cost_aware(code, now, est_service_s, deadline)

    def _affinity(self, code: int, now: float) -> int:
        free = self.free_at
        coldest = int(free.argmin())
        warm = self.pipe_code == code
        if not warm.any():
            return coldest
        warmest = int(np.where(warm, free, np.inf).argmin())
        # Same float ops as the scalar policy: waiting for the warm chip
        # is worth at most one avoided switch.
        cold_free = float(free[coldest])
        warm_free = float(free[warmest])
        cold_start = now if now > cold_free else cold_free
        warm_start = now if now > warm_free else warm_free
        if warm_start <= cold_start + float(self.switch_s[coldest]):
            return warmest
        return coldest

    def _cost_aware(
        self, code: int, now: float, est_service_s: float, deadline: float
    ) -> int:
        free = self.free_at
        start = np.maximum(free, now) + self.switch_s * (self.pipe_code != code)
        feasible = start + est_service_s <= deadline
        if not feasible.any():
            return int(free.argmin())
        rate = np.where(feasible, self.cost_rate, np.inf)
        best_rate = rate.min()
        return int(np.where(rate == best_rate, free, np.inf).argmin())

    def note_dispatch(self, chip_id: int, code: int, free_at_s: float) -> None:
        """Record a dispatch outcome back into the columns."""
        self.free_at[chip_id] = free_at_s
        self.pipe_code[chip_id] = code


def parse_fleet_spec(
    spec: str, base: AcceleratorConfig | None = None
) -> list[AcceleratorConfig]:
    """Parse a ``--fleet-spec`` string into per-chip configs.

    Each comma-separated entry is ``[count*]PExSRAM`` where PE and SRAM
    are power-of-two scale factors applied to ``base`` via
    :meth:`AcceleratorConfig.scaled`. Examples::

        "1x1,1x1,2x2"   -> two baseline chips and one 2x-PE/2x-SRAM chip
        "3*1x1,1*4x2"   -> three baseline chips and one 4x-PE/2x-SRAM chip
    """
    base = base if base is not None else AcceleratorConfig()
    configs: list[AcceleratorConfig] = []
    for raw in spec.split(","):
        entry = raw.strip()
        if not entry:
            continue
        count = 1
        if "*" in entry:
            head, _, entry = entry.partition("*")
            try:
                count = int(head)
            except ValueError as err:
                raise ConfigError(
                    f"bad fleet-spec count in {raw!r}") from err
            if count < 1:
                raise ConfigError(f"fleet-spec count must be >= 1 in {raw!r}")
        try:
            pe_s, sram_s = (int(part) for part in entry.split("x"))
        except ValueError as err:
            raise ConfigError(
                f"bad fleet-spec entry {raw!r}; expected [count*]PExSRAM"
            ) from err
        configs.extend([base.scaled(pe_s, sram_s)] * count)
    if not configs:
        raise ConfigError(f"fleet spec {spec!r} describes no chips")
    return configs


class ServeCluster:
    """A fleet of Uni-Render chips behind one dispatcher.

    ``n_chips`` identical chips by default; pass ``configs`` (a list of
    per-chip :class:`AcceleratorConfig`) for a heterogeneous fleet. The
    fleet is elastic: :meth:`add_chip` / :meth:`retire_chip` are the
    autoscaler's actuators, and only :attr:`active_chips` receive new
    batches.
    """

    def __init__(
        self,
        n_chips: int = 4,
        config: AcceleratorConfig | None = None,
        policy: str = "pipeline-affinity",
        configs: Sequence[AcceleratorConfig] | None = None,
        trace_library: object | None = None,
        observer: object | None = None,
    ) -> None:
        if configs is not None and config is not None:
            raise ConfigError("pass either config (homogeneous) or configs")
        if policy not in SHARDING_POLICIES:
            raise ConfigError(
                f"unknown sharding policy {policy!r}; "
                f"choose from {sorted(SHARDING_POLICIES)}"
            )
        if configs is not None:
            chip_configs = list(configs)
        else:
            if n_chips < 1:
                raise ConfigError("cluster needs at least one chip")
            chip_configs = [config] * n_chips
        if not chip_configs:
            raise ConfigError("cluster needs at least one chip")
        self.policy_name = policy
        self._policy = SHARDING_POLICIES[policy]()
        #: Optional persistent trace library (a TraceLibrary or a path
        #: to its JSON artifact): the engine warm-starts the trace
        #: cache from it and flushes updated metadata on shutdown.
        self.trace_library = trace_library
        #: Optional :class:`repro.obs.observer.Observer`: the engine
        #: picks it up (unless one is passed to it directly) and threads
        #: tracing/metrics/flight recording through the run. ``None``
        #: (or an observer with no sinks) records nothing.
        self.observer = observer
        self.chips = [
            ChipState(i, UniRenderAccelerator(cfg))
            for i, cfg in enumerate(chip_configs)
        ]
        # Active chips in id order, kept by add_chip / retire_chip: the
        # dispatcher reads it on every event, so it is never rebuilt.
        self._active = list(self.chips)

    def __len__(self) -> int:
        return len(self.chips)

    # ------------------------------------------------------------------
    @property
    def active_chips(self) -> list[ChipState]:
        """Chips that receive new batches, in id order. The cluster's
        own list: callers must not mutate it."""
        return self._active

    @property
    def n_active(self) -> int:
        return len(self._active)

    @property
    def n_available(self) -> int:
        """Active chips that are actually up — provisioned capacity
        minus crashed chips. Equals :attr:`n_active` on healthy runs."""
        return sum(1 for chip in self._active if chip.down_since_s is None)

    @property
    def lifetime_dirty(self) -> bool:
        """True once any chip has served work or the fleet has flexed —
        the state that makes reuse across runs unsound."""
        return any(
            chip.requests_served > 0
            or chip.busy_s > 0
            or chip.retired_at_s is not None
            or chip.added_at_s > 0
            or chip.n_crashes > 0
            or chip.down_since_s is not None
            for chip in self.chips
        )

    # ------------------------------------------------------------------
    def select_chip(self, batch: Batch, now: float,
                    est_service_s: float = 0.0,
                    exclude: "Container[int] | None" = None) -> ChipState:
        """Policy pick over active chips; ``exclude`` masks chip ids the
        engine has reserved (a staged, not-yet-started batch owns them)."""
        chips = self._active
        if exclude:
            chips = [chip for chip in chips if chip.chip_id not in exclude]
        return self._policy(chips, batch, now, est_service_s)

    @property
    def earliest_free_s(self) -> float:
        return min(chip.free_at_s for chip in self._active)

    def has_idle_chip(self, now: float) -> bool:
        """True when some active chip could start a batch right now —
        the event engine's dispatch gate (dispatch never queues work
        while every chip is busy; the queue builds so batches coalesce)."""
        for chip in self._active:
            if chip.free_at_s <= now:
                return True
        return False

    # -- elastic actuators ---------------------------------------------
    def add_chip(
        self,
        config: AcceleratorConfig | None = None,
        now: float = 0.0,
        warmup_s: float = 0.0,
    ) -> ChipState:
        """Provision one more chip; it accepts work after ``warmup_s``.

        ``config=None`` clones the fleet's first chip's design point, so
        a scaled homogeneous cluster grows with more of the same chips
        rather than silently reverting to the paper's baseline.
        """
        if config is None:
            config = self.chips[0].config
        chip = ChipState(
            chip_id=len(self.chips),
            accelerator=UniRenderAccelerator(config),
            free_at_s=now + warmup_s,
            added_at_s=now,
        )
        self.chips.append(chip)
        self._active.append(chip)
        return chip

    def retire_chip(self, chip: ChipState, now: float) -> None:
        """Stop routing to ``chip``; it finishes in-flight work first."""
        if not chip.active:
            raise ConfigError(f"chip {chip.chip_id} is already retired")
        if self.n_active <= 1:
            raise ConfigError("cannot retire the last active chip")
        chip.retired_at_s = max(now, chip.free_at_s)
        self._active.remove(chip)
