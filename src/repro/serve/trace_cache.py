"""Keyed LRU cache of compiled micro-op programs.

Compiling a frame (``compile_program``) renders probe frames to measure
scene coefficients — milliseconds to seconds of work — while the
compiled :class:`~repro.core.microops.MicroOpProgram` for a given
(scene, pipeline, width, height) never changes. The service therefore
keeps traces in an LRU cache so repeated requests skip compilation
entirely; the hit/miss/eviction counters feed the serving report.

Compile *cost* is two numbers with different jobs:

* ``compile_s`` — **simulated** compile latency, charged by a
  deterministic :class:`~repro.core.config.CompileLatencyModel` from
  the compiled program's size. This is the report-facing figure: the
  same seed always prices the same, so ServiceReports are
  byte-identical across runs.
* ``compile_wall_s`` — host wall-clock time actually spent inside
  ``compile_fn``. Pure diagnostic (how expensive was this run to
  simulate); deliberately excluded from :meth:`CacheStats.to_dict`.

The synchronous serving path compiles inside :meth:`TraceCache.get`;
the event engine (:mod:`repro.serve.engine`) instead compiles through
a worker pool and lands finished programs with :meth:`TraceCache.insert`,
using :meth:`TraceCache.lookup` for demand lookups.

Frame *prices* live here too. A frame's cost is a pure function of its
trace's program and the chip's design point, so every cache owns one
:class:`CostTable` (``cache.costs``) and every engine that runs on the
cache prices through it: runs that share a cache — a warm service's
restarts, a federation region's sync epochs — pay each (trace, config)
price once, however many runs replay it.
"""

from __future__ import annotations

import time
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from repro.core.config import AcceleratorConfig, CompileLatencyModel
from repro.core.microops import MicroOpProgram
from repro.core.simulator import FrameResult, UniRenderAccelerator
from repro.errors import ConfigError
from repro.serve.request import TraceKey


def _default_compile(key: TraceKey) -> MicroOpProgram:
    from repro.compile import compile_program

    return compile_program(*key)


@dataclass
class CacheStats:
    """Counters of one cache's lifetime.

    All fields in :meth:`to_dict` are deterministic (simulated-time)
    quantities; ``compile_wall_s`` is the wall-clock diagnostic and is
    kept out of the report payload on purpose.
    """

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    warmed: int = 0               # entries installed by a library warm-start
    compile_s: float = 0.0        # simulated compile latency charged
    compile_s_saved: float = 0.0  # simulated compile latency avoided by hits
    compile_wall_s: float = 0.0   # host wall time spent compiling (diagnostic)

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    def to_dict(self) -> dict:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "warmed": self.warmed,
            "hit_rate": self.hit_rate,
            "compile_s": self.compile_s,
            "compile_s_saved": self.compile_s_saved,
        }


# ----------------------------------------------------------------------
# Vectorized frame pricing
# ----------------------------------------------------------------------
class CostTable:
    """Per-(trace, chip config) frame costs, priced exactly once.

    Chips at the same design point render identical frames in identical
    cycles, so the fleet pays the performance model once per distinct
    (trace key, config) pair — O(distinct traces), however many requests
    replay them. Rows are plain float tuples for the scalar event loop;
    :meth:`as_arrays` exposes the same table as NumPy columns for
    analysis and bulk pricing. Each :class:`TraceCache` owns one
    (``cache.costs``), so a price outlives the run that paid for it.
    """

    def __init__(self) -> None:
        # Row index per design point, then per trace key.
        self._index: dict[AcceleratorConfig, dict[TraceKey, int]] = {}
        self._rows: list[tuple[float, float, float]] = []
        self._results: list[FrameResult] = []

    def __len__(self) -> int:
        return len(self._rows)

    def has(self, key: TraceKey, config: AcceleratorConfig) -> bool:
        return key in self._index.get(config, ())

    def price(
        self,
        key: TraceKey,
        accelerator: UniRenderAccelerator,
        program,
    ) -> tuple[float, float, float]:
        """``(cycles, frame_reconfig_cycles, energy_j)`` for this pair."""
        table = self._index.get(accelerator.config)
        if table is None:
            table = self._index[accelerator.config] = {}
        idx = table.get(key)
        if idx is None:
            result = accelerator.simulate(program)
            idx = len(self._rows)
            table[key] = idx
            self._rows.append(
                (result.cycles, result.reconfig_cycles, result.energy_per_frame_j)
            )
            self._results.append(result)
        return self._rows[idx]

    def price_many(
        self,
        keys: list[TraceKey],
        accelerator: UniRenderAccelerator,
        programs: list,
    ) -> list[tuple[float, float, float]]:
        """:meth:`price` for each frame of one batch on one chip.

        The design point's table is looked up once per batch instead of
        once per frame (hashing an :class:`AcceleratorConfig` costs more
        than the row lookup); only keys not yet priced at this design
        point go through :meth:`price`."""
        table = self._index.get(accelerator.config, {})
        rows = self._rows
        out = []
        for key, program in zip(keys, programs):
            idx = table.get(key)
            if idx is None:
                out.append(self.price(key, accelerator, program))
                table = self._index[accelerator.config]
            else:
                out.append(rows[idx])
        return out

    def result_for(
        self, key: TraceKey, config: AcceleratorConfig
    ) -> Optional[FrameResult]:
        """The full FrameResult behind a priced row (timeline rendering)."""
        idx = self._index.get(config, {}).get(key)
        return self._results[idx] if idx is not None else None

    def as_arrays(self) -> dict[str, np.ndarray]:
        """The table as NumPy columns: cycles, reconfig, energy."""
        rows = np.asarray(self._rows, dtype=float).reshape(-1, 3)
        return {
            "cycles": rows[:, 0],
            "reconfig_cycles": rows[:, 1],
            "energy_j": rows[:, 2],
        }


class TraceCache:
    """LRU cache of compiled frame programs, keyed by trace key.

    ``capacity`` is the number of resident programs; 0 disables caching
    (every lookup compiles), which the policy-comparison experiments use
    as a baseline. ``compile_fn`` is injectable for tests.
    ``latency_model`` prices each compile in simulated time; ``None``
    keeps compilation invisible to the simulation clock (the legacy
    synchronous baseline) while still compiling on demand.
    """

    def __init__(
        self,
        capacity: int = 64,
        compile_fn: Callable[[TraceKey], MicroOpProgram] = _default_compile,
        latency_model: Optional[CompileLatencyModel] = None,
    ) -> None:
        if capacity < 0:
            raise ConfigError("cache capacity cannot be negative")
        self.capacity = capacity
        self.compile_fn = compile_fn
        self.latency_model = latency_model
        self.stats = CacheStats()
        self._entries: "OrderedDict[TraceKey, MicroOpProgram]" = OrderedDict()
        self._compile_cost_s: dict[TraceKey, float] = {}
        #: Frame prices of every key this cache has served, per design
        #: point. A price depends only on the key's program and the
        #: chip config, so it outlives evictions and runs alike.
        self.costs = CostTable()
        #: Demand hits per key over this cache's lifetime — the signal
        #: the persistent trace library accumulates across runs.
        self.hits_by_key: dict[TraceKey, int] = {}
        #: Metadata of evicted entries, ``key -> (invocations, pixels,
        #: compile_s)`` captured the moment the entry left the cache.
        #: Without it a trace that was hit and then evicted mid-run has
        #: no program to describe it at absorb time and its lifetime
        #: hits would vanish from the library. Overwritten on
        #: re-eviction, cleared when the key is re-admitted.
        self.evicted_meta: dict[TraceKey, tuple[int, int, float]] = {}
        # Observability mirrors, resolved once by bind_metrics(); None
        # keeps the unobserved hot path at a single pointer check.
        self._m_hits = None
        self._m_misses = None
        self._m_evictions = None
        self._m_warmed = None

    def bind_metrics(self, registry) -> None:
        """Mirror hit/miss/eviction/warm counters into an observability
        registry (see :mod:`repro.obs.metrics`). Idempotent; binding
        must happen before any warm start so ``cache.warmed`` counts
        library installs too."""
        self._m_hits = registry.counter("cache.hits")
        self._m_misses = registry.counter("cache.misses")
        self._m_evictions = registry.counter("cache.evictions")
        self._m_warmed = registry.counter("cache.warmed")

    def unbind_metrics(self) -> None:
        """Detach the live metric mirrors (registry counters survive).

        A cache may be shared across runs. The event engine unbinds the
        mirrors when an observed run ends, so a later run on the same
        cache never counts into the finished run's registry."""
        self._m_hits = None
        self._m_misses = None
        self._m_evictions = None
        self._m_warmed = None

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: TraceKey) -> bool:
        return key in self._entries

    @property
    def keys(self) -> tuple[TraceKey, ...]:
        """Resident keys, least recently used first."""
        return tuple(self._entries)

    def compile_cost_s(self, key: TraceKey) -> float:
        """Simulated compile latency last charged for ``key`` (0 unknown)."""
        return self._compile_cost_s.get(key, 0.0)

    # ------------------------------------------------------------------
    def get(self, key: TraceKey) -> tuple[MicroOpProgram, bool]:
        """Return ``(program, cache_hit)``, compiling on a miss.

        The synchronous path: a miss compiles inline (wall time now,
        simulated cost per the latency model) and inserts the program.
        """
        if key in self._entries:
            self._entries.move_to_end(key)
            self.stats.hits += 1
            if self._m_hits is not None:
                self._m_hits.inc()
            self.hits_by_key[key] = self.hits_by_key.get(key, 0) + 1
            self.stats.compile_s_saved += self._compile_cost_s.get(key, 0.0)
            return self._entries[key], True

        began = time.perf_counter()
        program = self.compile_fn(key)
        wall = time.perf_counter() - began
        sim = (self.latency_model.latency_s(program)
               if self.latency_model is not None else 0.0)
        self.stats.misses += 1
        if self._m_misses is not None:
            self._m_misses.inc()
        self._account_compile(key, sim, wall)
        self._admit(key, program)
        return program, False

    def get_many(
        self, keys: Sequence[TraceKey]
    ) -> list[tuple[MicroOpProgram, bool, float]]:
        """Resolve a window of keys in one pass; byte-identical to
        calling :meth:`get` for each key in order.

        Returns one ``(program, cache_hit, cost_s)`` tuple per key:
        ``cost_s`` is the simulated compile latency charged (on a miss)
        or credited to ``compile_s_saved`` (on a hit).

        Hits defer their LRU ``move_to_end`` into a pending-touch set so
        a key hit k times in a window costs one reorder, not k. The set
        is flushed (in last-hit order) before any miss admits, which is
        exactly the LRU order repeated ``get`` calls would have produced
        at that point — so eviction victims, stats, and final cache
        order all match the looped path.
        """
        entries = self._entries
        stats = self.stats
        hits_by_key = self.hits_by_key
        cost_of = self._compile_cost_s
        pending_touch: dict[TraceKey, bool] = {}
        out: list[tuple[MicroOpProgram, bool, float]] = []
        for key in keys:
            if key in entries:
                if key in pending_touch:
                    del pending_touch[key]
                pending_touch[key] = True
                stats.hits += 1
                if self._m_hits is not None:
                    self._m_hits.inc()
                hits_by_key[key] = hits_by_key.get(key, 0) + 1
                cost = cost_of.get(key, 0.0)
                stats.compile_s_saved += cost
                out.append((entries[key], True, cost))
                continue
            # Miss: restore true LRU order before the admit can evict.
            if pending_touch:
                for touched in pending_touch:
                    entries.move_to_end(touched)
                pending_touch.clear()
            began = time.perf_counter()
            program = self.compile_fn(key)
            wall = time.perf_counter() - began
            sim = (self.latency_model.latency_s(program)
                   if self.latency_model is not None else 0.0)
            stats.misses += 1
            if self._m_misses is not None:
                self._m_misses.inc()
            self._account_compile(key, sim, wall)
            self._admit(key, program)
            out.append((program, False, sim))
        if pending_touch:
            for touched in pending_touch:
                entries.move_to_end(touched)
        return out

    # -- event-engine path ---------------------------------------------
    def lookup(self, key: TraceKey) -> Optional[MicroOpProgram]:
        """Demand lookup without compiling: hit returns the program and
        refreshes LRU order; a miss only counts (the caller decides how
        the program gets compiled — worker pool, prefetch, or join)."""
        if key in self._entries:
            self._entries.move_to_end(key)
            self.stats.hits += 1
            if self._m_hits is not None:
                self._m_hits.inc()
            self.hits_by_key[key] = self.hits_by_key.get(key, 0) + 1
            self.stats.compile_s_saved += self._compile_cost_s.get(key, 0.0)
            return self._entries[key]
        self.stats.misses += 1
        if self._m_misses is not None:
            self._m_misses.inc()
        return None

    def insert(
        self,
        key: TraceKey,
        program: MicroOpProgram,
        sim_cost_s: float = 0.0,
        wall_cost_s: float = 0.0,
    ) -> list[TraceKey]:
        """Land a program compiled elsewhere (worker pool or prefetch);
        returns the keys its admission evicted."""
        self._account_compile(key, sim_cost_s, wall_cost_s)
        return self._admit(key, program)

    def warm_start(
        self,
        key: TraceKey,
        program: MicroOpProgram,
        sim_cost_s: float = 0.0,
    ) -> None:
        """Install a trace recorded by a previous run's library.

        Unlike :meth:`insert`, nothing is charged to this run's compile
        counters — the compile was paid for in the run that recorded the
        trace — but the entry carries its recorded simulated cost so
        later hits still credit ``compile_s_saved``. Warm installs are
        tallied separately in :attr:`CacheStats.warmed`.
        """
        self._compile_cost_s[key] = sim_cost_s
        self.stats.warmed += 1
        if self._m_warmed is not None:
            self._m_warmed.inc()
        self._admit(key, program)

    def touch(self, key: TraceKey) -> None:
        """Refresh LRU order without stats (execution-time access)."""
        if key in self._entries:
            self._entries.move_to_end(key)

    def peek(self, key: TraceKey) -> Optional[MicroOpProgram]:
        """Read a resident program without stats or LRU effects."""
        return self._entries.get(key)

    # ------------------------------------------------------------------
    def _account_compile(self, key: TraceKey, sim: float, wall: float) -> None:
        self.stats.compile_s += sim
        self.stats.compile_wall_s += wall
        self._compile_cost_s[key] = sim

    def _admit(self, key: TraceKey, program: MicroOpProgram
               ) -> list[TraceKey]:
        """Install ``key``; returns the keys evicted to make room."""
        out: list[TraceKey] = []
        if self.capacity > 0:
            self._entries[key] = program
            self.evicted_meta.pop(key, None)
            while len(self._entries) > self.capacity:
                evicted, victim = self._entries.popitem(last=False)
                out.append(evicted)
                cost = self._compile_cost_s.pop(evicted, 0.0)
                self.evicted_meta[evicted] = (
                    len(victim.invocations), victim.pixels, cost)
                self.stats.evictions += 1
                if self._m_evictions is not None:
                    self._m_evictions.inc()
        return out

    def clear(self) -> None:
        """Drop entries and compile-cost records; counters and frame
        prices are kept."""
        self._entries.clear()
        self._compile_cost_s.clear()
