"""Fault & straggler injection and request hedging for the serve engine.

Every simulated chip so far has been perfectly reliable and uniformly
fast.  Real fleets are neither: chips crash and (sometimes) come back,
individual accelerators run slow for stretches (thermal throttling,
noisy neighbours, ECC retries), and the compile tier stalls.  This
module describes all of that as data — a :class:`FaultPlan` — so a run
stays seed-deterministic: the plan is fixed before the simulation
starts and its crash/recover points are injected as first-class events
into the :class:`~repro.serve.engine.EventEngine` heap.

The plan's vocabulary:

* :class:`ChipCrash` — chip ``chip_id`` dies at ``at_s``; with
  ``down_s`` set it recovers that many seconds later, with ``down_s``
  ``None`` the loss is permanent.  In-flight work on the chip is
  re-queued (the engine charges ``rollback_s`` checkpoint-restore time
  when a re-queued frame next executes) and the autoscaler sees the
  chip as lost capacity, not an idle candidate.
* :class:`StragglerWindow` — chip ``chip_id`` runs ``factor``× slower
  for frames *starting* inside ``[start_s, end_s)``.  Overlapping
  windows multiply.
* :class:`CompileStall` — trace compilation (sync stalls and pooled
  workers alike) takes ``factor``× longer for compiles issued inside
  the window.

The recovery lever on the serving side is **request hedging**
(:class:`HedgePolicy`): once a queued request's age exceeds a
quantile-derived threshold of recently observed queue waits, the
engine duplicates it; the two copies run on distinct chips,
first-completion-wins, and the loser is cancelled (queued) or counted
as wasted duplicate work (already executed).  The report stays
exactly-once: one response per offered request, keyed to the original
request id.

A plan with no entries (``FaultPlan().empty``) is treated by the
engine exactly like no plan at all — attaching an empty plan is
byte-identical to a fault-free run.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigError, finite_float
from repro.serve.request import RenderRequest


@dataclass(frozen=True)
class ChipCrash:
    """One chip loss: ``chip_id`` dies at ``at_s``; ``down_s`` seconds
    later it recovers (``None`` == permanent loss)."""

    chip_id: int
    at_s: float
    down_s: float | None = None

    def __post_init__(self) -> None:
        if self.chip_id < 0:
            raise ConfigError("crash chip_id must be >= 0")
        if self.at_s < 0:
            raise ConfigError("crash time must be >= 0")
        if self.down_s is not None and self.down_s <= 0:
            raise ConfigError("crash down_s must be positive (or None "
                              "for a permanent loss)")

    @property
    def recover_at_s(self) -> float:
        """Instant the chip is usable again (``inf`` when permanent)."""
        if self.down_s is None:
            return float("inf")
        return self.at_s + self.down_s

    def to_dict(self) -> dict:
        return {"chip_id": self.chip_id, "at_s": self.at_s,
                "down_s": self.down_s}


@dataclass(frozen=True)
class StragglerWindow:
    """Chip ``chip_id`` is ``factor``× slower for frames starting in
    ``[start_s, end_s)``."""

    chip_id: int
    start_s: float
    end_s: float
    factor: float

    def __post_init__(self) -> None:
        if self.chip_id < 0:
            raise ConfigError("straggler chip_id must be >= 0")
        if not self.end_s > self.start_s >= 0:
            raise ConfigError("straggler window needs 0 <= start < end")
        if self.factor < 1.0:
            raise ConfigError("straggler factor must be >= 1 (a chip "
                              "cannot speed up by misbehaving)")

    def to_dict(self) -> dict:
        return {"chip_id": self.chip_id, "start_s": self.start_s,
                "end_s": self.end_s, "factor": self.factor}


@dataclass(frozen=True)
class CompileStall:
    """Trace compiles issued inside ``[start_s, end_s)`` take
    ``factor``× longer."""

    start_s: float
    end_s: float
    factor: float

    def __post_init__(self) -> None:
        if not self.end_s > self.start_s >= 0:
            raise ConfigError("compile stall window needs 0 <= start < end")
        if self.factor < 1.0:
            raise ConfigError("compile stall factor must be >= 1")

    def to_dict(self) -> dict:
        return {"start_s": self.start_s, "end_s": self.end_s,
                "factor": self.factor}


@dataclass(frozen=True)
class FailedRecord:
    """One admitted request the service could never complete (every
    chip permanently down before it was served)."""

    request: RenderRequest
    failed_at_s: float
    reason: str

    def to_dict(self) -> dict:
        return {
            "request_id": self.request.request_id,
            "pipeline": self.request.pipeline,
            "tenant": self.request.tenant.name,
            "arrival_s": self.request.arrival_s,
            "failed_at_s": self.failed_at_s,
            "reason": self.reason,
        }


@dataclass(frozen=True)
class HedgePolicy:
    """Quantile-threshold request hedging.

    Once at least ``min_samples`` queue waits have been observed, a
    queued request older than ``multiplier × Q(quantile)`` of the last
    ``window`` waits is duplicated onto a second chip; the first copy
    to finish wins and the other is cancelled.
    """

    quantile: float = 0.9
    multiplier: float = 1.0
    min_samples: int = 24
    window: int = 256

    def __post_init__(self) -> None:
        if not 0.0 < self.quantile < 1.0:
            raise ConfigError("hedge quantile must be in (0, 1)")
        if self.multiplier <= 0:
            raise ConfigError("hedge multiplier must be positive")
        if self.min_samples < 2:
            raise ConfigError("hedge min_samples must be >= 2")
        if self.window < self.min_samples:
            raise ConfigError("hedge window must be >= min_samples")

    def to_dict(self) -> dict:
        return {"quantile": self.quantile, "multiplier": self.multiplier,
                "min_samples": self.min_samples, "window": self.window}


def _crash_sort_key(crash: ChipCrash) -> tuple:
    return (crash.at_s, crash.chip_id)


class FaultPlan:
    """A deterministic chaos schedule for one serve run.

    The plan is immutable once constructed and holds no run state, so
    one plan can drive many runs (e.g. the with/without-hedging arms
    of a comparison) and every run is bit-reproducible.
    """

    __slots__ = ("crashes", "stragglers", "compile_stalls", "rollback_s",
                 "_crashes_by_chip", "_windows_by_chip")

    def __init__(
        self,
        crashes: tuple[ChipCrash, ...] | list[ChipCrash] = (),
        stragglers: tuple[StragglerWindow, ...] | list[StragglerWindow] = (),
        compile_stalls: tuple[CompileStall, ...] | list[CompileStall] = (),
        rollback_s: float = 0.0,
    ) -> None:
        if rollback_s < 0:
            raise ConfigError("rollback_s must be >= 0")
        self.crashes = tuple(sorted(crashes, key=_crash_sort_key))
        self.stragglers = tuple(
            sorted(stragglers, key=lambda w: (w.start_s, w.chip_id)))
        self.compile_stalls = tuple(
            sorted(compile_stalls, key=lambda w: w.start_s))
        self.rollback_s = float(rollback_s)

        by_chip: dict[int, list[ChipCrash]] = {}
        for crash in self.crashes:
            by_chip.setdefault(crash.chip_id, []).append(crash)
        for chip_id, chip_crashes in by_chip.items():
            for prev, nxt in zip(chip_crashes, chip_crashes[1:]):
                if prev.recover_at_s > nxt.at_s:
                    raise ConfigError(
                        f"chip {chip_id} crash windows overlap: crash at "
                        f"{prev.at_s} is still down at {nxt.at_s}")
        self._crashes_by_chip = by_chip

        windows: dict[int, list[StragglerWindow]] = {}
        for window in self.stragglers:
            windows.setdefault(window.chip_id, []).append(window)
        self._windows_by_chip = windows

    @property
    def empty(self) -> bool:
        """True when the plan injects nothing; the engine treats an
        empty plan exactly like ``faults=None``."""
        return not (self.crashes or self.stragglers or self.compile_stalls)

    def next_crash(self, chip_id: int, after_s: float) -> ChipCrash | None:
        """First crash of ``chip_id`` strictly after ``after_s``."""
        for crash in self._crashes_by_chip.get(chip_id, ()):
            if crash.at_s > after_s:
                return crash
        return None

    def dilation(self, chip_id: int, t_s: float) -> float:
        """Service-time multiplier for a frame starting at ``t_s`` on
        ``chip_id`` (overlapping straggler windows multiply)."""
        windows = self._windows_by_chip.get(chip_id)
        if not windows:
            return 1.0
        factor = 1.0
        for window in windows:
            if window.start_s <= t_s < window.end_s:
                factor *= window.factor
        return factor

    def compile_dilation(self, t_s: float) -> float:
        """Compile-latency multiplier for a compile issued at ``t_s``."""
        factor = 1.0
        for stall in self.compile_stalls:
            if stall.start_s <= t_s < stall.end_s:
                factor *= stall.factor
        return factor

    def to_dict(self) -> dict:
        return {
            "crashes": [c.to_dict() for c in self.crashes],
            "stragglers": [w.to_dict() for w in self.stragglers],
            "compile_stalls": [w.to_dict() for w in self.compile_stalls],
            "rollback_s": self.rollback_s,
        }

    def describe(self) -> str:
        permanent = sum(1 for c in self.crashes if c.down_s is None)
        return (f"FaultPlan({len(self.crashes)} crashes "
                f"({permanent} permanent), {len(self.stragglers)} "
                f"straggler windows, {len(self.compile_stalls)} compile "
                f"stalls, rollback {self.rollback_s * 1e3:.2f} ms)")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return self.describe()

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------

    @classmethod
    def seeded(
        cls,
        seed: int,
        n_chips: int,
        horizon_s: float,
        *,
        n_crashes: int = 1,
        recover_fraction: float = 0.75,
        n_stragglers: int = 1,
        max_dilation: float = 4.0,
        n_stalls: int = 0,
        stall_dilation: float = 4.0,
        rollback_s: float = 0.0,
    ) -> "FaultPlan":
        """Draw a random (but seed-deterministic) plan.

        Crashes land uniformly in the middle 90% of the horizon; a
        ``recover_fraction`` share of them recover after 5–30% of the
        horizon.  Per-chip crash windows that would overlap are
        dropped rather than repaired, so the draw is always valid.
        """
        if seed < 0:
            raise ConfigError("seeded plan needs seed >= 0")
        if n_chips < 1:
            raise ConfigError("seeded plan needs n_chips >= 1")
        if horizon_s <= 0:
            raise ConfigError("seeded plan needs a positive horizon")
        if not 0.0 <= recover_fraction <= 1.0:
            raise ConfigError("recover_fraction must be in [0, 1]")
        if max_dilation < 1.0 or stall_dilation < 1.0:
            raise ConfigError("dilation factors must be >= 1")
        rng = np.random.default_rng(seed)

        drawn: list[ChipCrash] = []
        for _ in range(n_crashes):
            chip = int(rng.integers(0, n_chips))
            at = float(rng.uniform(0.05, 0.95)) * horizon_s
            down: float | None = None
            if float(rng.random()) < recover_fraction:
                down = float(rng.uniform(0.05, 0.30)) * horizon_s
            drawn.append(ChipCrash(chip, at, down))
        crashes: list[ChipCrash] = []
        last_end: dict[int, float] = {}
        for crash in sorted(drawn, key=_crash_sort_key):
            if crash.at_s < last_end.get(crash.chip_id, -1.0):
                continue  # would overlap the chip's previous outage
            crashes.append(crash)
            last_end[crash.chip_id] = crash.recover_at_s

        stragglers = []
        for _ in range(n_stragglers):
            chip = int(rng.integers(0, n_chips))
            a = float(rng.uniform(0.0, 0.7)) * horizon_s
            b = a + float(rng.uniform(0.1, 0.3)) * horizon_s
            factor = float(rng.uniform(1.5, max_dilation))
            stragglers.append(StragglerWindow(chip, a, b, factor))

        stalls = []
        for _ in range(n_stalls):
            a = float(rng.uniform(0.0, 0.8)) * horizon_s
            b = a + float(rng.uniform(0.05, 0.2)) * horizon_s
            stalls.append(CompileStall(a, b, stall_dilation))

        return cls(crashes, stragglers, stalls, rollback_s=rollback_s)

    @classmethod
    def parse(cls, spec: str) -> "FaultPlan":
        """Parse a CLI fault spec.

        Two forms::

            crash=CHIP@AT[+DOWN];slow=CHIP@A-BxF;stall=A-BxF;rollback=S
            seeded:seed=S,chips=N,horizon=H[,crashes=K][,stragglers=K]
                   [,stalls=K][,rollback=S]

        Times are seconds.  ``crash=1@0.05+0.04`` kills chip 1 at
        t=0.05 s for 40 ms; omitting ``+DOWN`` makes the loss
        permanent.  ``slow=2@0.0-0.5x4`` dilates chip 2 by 4× for
        frames starting in the first half second.
        """
        spec = spec.strip()
        if not spec:
            raise ConfigError("empty --faults spec")
        if spec.startswith("seeded:"):
            return cls._parse_seeded(spec[len("seeded:"):])

        crashes: list[ChipCrash] = []
        stragglers: list[StragglerWindow] = []
        stalls: list[CompileStall] = []
        rollback = 0.0
        for raw in spec.split(";"):
            entry = raw.strip()
            if not entry:
                continue
            try:
                key, _, value = entry.partition("=")
                if key == "crash":
                    chip, _, when = value.partition("@")
                    at, plus, down = when.partition("+")
                    crashes.append(ChipCrash(
                        int(chip), finite_float(at),
                        finite_float(down) if plus else None))
                elif key == "slow":
                    chip, _, window = value.partition("@")
                    span, _, factor = window.partition("x")
                    a, _, b = span.partition("-")
                    stragglers.append(StragglerWindow(
                        int(chip), finite_float(a), finite_float(b),
                        finite_float(factor)))
                elif key == "stall":
                    span, _, factor = value.partition("x")
                    a, _, b = span.partition("-")
                    stalls.append(CompileStall(
                        finite_float(a), finite_float(b),
                        finite_float(factor)))
                elif key == "rollback":
                    rollback = finite_float(value)
                else:
                    raise ConfigError(
                        f"unknown fault entry {key!r} (expected crash=, "
                        f"slow=, stall=, or rollback=)")
            except (ValueError, TypeError) as exc:
                raise ConfigError(
                    f"malformed fault entry {entry!r}: {exc}") from exc
        return cls(crashes, stragglers, stalls, rollback_s=rollback)

    @classmethod
    def _parse_seeded(cls, body: str) -> "FaultPlan":
        keys = {"seed": 0, "chips": None, "horizon": None, "crashes": 1,
                "stragglers": 1, "stalls": 0, "rollback": 0.0}
        for raw in body.split(","):
            entry = raw.strip()
            if not entry:
                continue
            key, eq, value = entry.partition("=")
            if not eq or key not in keys:
                raise ConfigError(
                    f"unknown seeded fault key {key!r} (expected one of "
                    f"{sorted(keys)})")
            try:
                keys[key] = finite_float(value) \
                    if key in ("horizon", "rollback") else int(value)
            except ValueError as exc:
                raise ConfigError(
                    f"malformed seeded fault entry {entry!r}: {exc}") from exc
        if keys["chips"] is None or keys["horizon"] is None:
            raise ConfigError(
                "seeded fault spec needs chips= and horizon=")
        return cls.seeded(
            keys["seed"], keys["chips"], keys["horizon"],
            n_crashes=keys["crashes"], n_stragglers=keys["stragglers"],
            n_stalls=keys["stalls"], rollback_s=keys["rollback"])


def resolve_faults(faults: "FaultPlan | None") -> "FaultPlan | None":
    """Normalize an attached-but-empty plan to ``None`` so the engine's
    fault-free fast path (and its byte-identical reports) is taken."""
    if faults is None or faults.empty:
        return None
    return faults


def resolve_hedge(hedge: "HedgePolicy | bool | None") -> "HedgePolicy | None":
    """Accept ``True`` (default policy), a policy, or falsy."""
    if hedge is None or hedge is False:
        return None
    if hedge is True:
        return HedgePolicy()
    return hedge
