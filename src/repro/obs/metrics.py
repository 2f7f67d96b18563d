"""Counters, gauges, and streaming-quantile histograms.

The registry is the numeric half of :mod:`repro.obs` (the tracer being
the event half): engine, autoscaler, admission policy, trace cache, and
compile pool each publish named metrics into one
:class:`MetricsRegistry`, and the registry can be *snapshotted* at any
simulated instant — each snapshot is one flat ``{name: value}`` row of
the metrics timeline the exporters turn into JSON/CSV for the
``analysis/`` plotting path.

Histograms use the P² algorithm (Jain & Chlamtac, CACM 1985): each
tracked quantile keeps five markers — estimates of the quantile itself,
its two flanking quantiles, and the sample extremes — adjusted with a
piecewise-parabolic update per observation. Memory is O(1) per
quantile and an observation costs a handful of float operations, so a
million-request run can keep live latency percentiles without retaining
a million latencies.

Accuracy: on smooth unimodal distributions the P² estimate typically
sits within ~1–2% of the exact percentile once a few hundred samples
have arrived. The randomized suite in ``tests/test_obs_metrics.py``
locks the documented ceiling — estimate within **5% of the sample's
interdecile range** of ``numpy.percentile`` (10% at the p99 tail,
where the markers sit in the sparsest data) across seeds and
distributions (uniform, lognormal, bimodal) at n >= 2000 — so a
regression in the marker update shows up as a failed bound, not a
silently wrong dashboard.

Everything is deterministic: identical observation sequences produce
identical marker states, so two seeded runs snapshot identically
(also pinned in the test suite).
"""

from __future__ import annotations

from bisect import insort
from typing import Optional

from repro.errors import ConfigError, ObsError


class Counter:
    """A monotonically increasing integer metric."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, n: int = 1) -> None:
        self.value += n


class Gauge:
    """A point-in-time numeric metric (last write wins)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value


class P2Quantile:
    """Streaming estimate of one quantile via the P² algorithm."""

    __slots__ = ("q", "_heights", "_pos", "_desired", "_inc", "n")

    def __init__(self, q: float) -> None:
        if not 0.0 < q < 1.0:
            raise ConfigError("P2 quantile must be in (0, 1)")
        self.q = q
        self._heights: list[float] = []   # first 5 obs, then marker heights
        self._pos = [1.0, 2.0, 3.0, 4.0, 5.0]
        self._desired = [1.0, 1.0 + 2.0 * q, 1.0 + 4.0 * q, 3.0 + 2.0 * q, 5.0]
        self._inc = [0.0, q / 2.0, q, (1.0 + q) / 2.0, 1.0]
        self.n = 0

    def add(self, x: float) -> None:
        """Fold one observation into the five markers.

        Unrolled over the markers: the state is read into locals once,
        every float operation runs in the order of the textbook loop
        (locate the cell, shift positions, advance desired positions,
        then adjust markers 1, 2, 3 in turn, each seeing its left
        neighbour's new state), and the markers are written back once.
        """
        n = self.n = self.n + 1
        h = self._heights
        if n <= 5:
            insort(h, x)
            return
        h0, h1, h2, h3, h4 = h
        p0, p1, p2, p3, p4 = self._pos

        # Locate the cell k (clamping the extremes) and shift the
        # positions of every marker right of it.
        if x < h0:
            h0 = x
            k = 0
        elif x >= h4:
            h4 = x
            k = 3
        elif x >= h1:
            k = (3 if x >= h3 else 2) if x >= h2 else 1
        else:
            k = 0
        if k == 0:
            p1 += 1.0
        if k <= 1:
            p2 += 1.0
        if k <= 2:
            p3 += 1.0
        p4 += 1.0

        d0, d1, d2, d3, d4 = self._desired
        i0, i1, i2, i3, i4 = self._inc
        d0 += i0
        d1 += i1
        d2 += i2
        d3 += i3
        d4 += i4

        # Adjust the three interior markers toward their desired
        # positions with the piecewise-parabolic (P²) update, falling
        # back to linear when the parabola leaves the bracket.
        d = d1 - p1
        if (d >= 1.0 and p2 - p1 > 1.0) or (d <= -1.0 and p0 - p1 < -1.0):
            step = 1.0 if d > 0 else -1.0
            candidate = h1 + step / (p2 - p0) * (
                (p1 - p0 + step) * (h2 - h1) / (p2 - p1)
                + (p2 - p1 - step) * (h1 - h0) / (p1 - p0))
            if h0 < candidate < h2:
                h1 = candidate
            elif step > 0:
                h1 = h1 + step * (h2 - h1) / (p2 - p1)
            else:
                h1 = h1 + step * (h0 - h1) / (p0 - p1)
            p1 += step
        d = d2 - p2
        if (d >= 1.0 and p3 - p2 > 1.0) or (d <= -1.0 and p1 - p2 < -1.0):
            step = 1.0 if d > 0 else -1.0
            candidate = h2 + step / (p3 - p1) * (
                (p2 - p1 + step) * (h3 - h2) / (p3 - p2)
                + (p3 - p2 - step) * (h2 - h1) / (p2 - p1))
            if h1 < candidate < h3:
                h2 = candidate
            elif step > 0:
                h2 = h2 + step * (h3 - h2) / (p3 - p2)
            else:
                h2 = h2 + step * (h1 - h2) / (p1 - p2)
            p2 += step
        d = d3 - p3
        if (d >= 1.0 and p4 - p3 > 1.0) or (d <= -1.0 and p2 - p3 < -1.0):
            step = 1.0 if d > 0 else -1.0
            candidate = h3 + step / (p4 - p2) * (
                (p3 - p2 + step) * (h4 - h3) / (p4 - p3)
                + (p4 - p3 - step) * (h3 - h2) / (p3 - p2))
            if h2 < candidate < h4:
                h3 = candidate
            elif step > 0:
                h3 = h3 + step * (h4 - h3) / (p4 - p3)
            else:
                h3 = h3 + step * (h2 - h3) / (p2 - p3)
            p3 += step

        self._heights = [h0, h1, h2, h3, h4]
        self._pos = [p0, p1, p2, p3, p4]
        self._desired = [d0, d1, d2, d3, d4]

    def value(self) -> float:
        """The current quantile estimate (NaN before any observation).

        Below six observations the exact order statistic is returned
        (linear interpolation over the sorted buffer, matching
        ``numpy.percentile``'s default)."""
        h = self._heights
        if not h:
            return float("nan")
        if self.n <= 5:
            rank = self.q * (len(h) - 1)
            lo = int(rank)
            hi = min(lo + 1, len(h) - 1)
            return h[lo] + (rank - lo) * (h[hi] - h[lo])
        return h[2]


class Histogram:
    """Streaming distribution summary: count/sum/min/max plus one
    :class:`P2Quantile` estimator per tracked quantile."""

    __slots__ = ("name", "quantiles", "fields", "_estimators", "count",
                 "total", "min", "max")

    def __init__(self, name: str,
                 quantiles: tuple[float, ...] = (0.5, 0.95, 0.99)) -> None:
        if not quantiles:
            raise ConfigError("histogram needs at least one quantile")
        self.name = name
        self.quantiles = tuple(quantiles)
        self._estimators = [P2Quantile(q) for q in self.quantiles]
        #: Snapshot field names, in :meth:`values` order.
        self.fields = ("count", "sum", "mean", "min", "max") + tuple(
            f"p{q * 100:g}" for q in self.quantiles)
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = float("-inf")

    def observe(self, x: float) -> None:
        self.count += 1
        self.total += x
        if x < self.min:
            self.min = x
        if x > self.max:
            self.max = x
        for estimator in self._estimators:
            estimator.add(x)

    def quantile(self, q: float) -> float:
        """Current estimate of a *tracked* quantile."""
        for estimator in self._estimators:
            if estimator.q == q:
                return estimator.value()
        raise ObsError(
            f"histogram {self.name!r} does not track q={q}; "
            f"tracked: {self.quantiles}"
        )

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else float("nan")

    def values(self) -> list:
        """Snapshot values in :attr:`fields` order (zeros while empty)."""
        if not self.count:
            return [self.count, self.total, 0.0, 0.0, 0.0] + [0.0] * len(
                self._estimators)
        return [self.count, self.total, self.total / self.count, self.min,
                self.max] + [estimator.value() for estimator in self._estimators]

    def snapshot(self) -> dict:
        return dict(zip(self.fields, self.values()))


class MetricsRegistry:
    """Named metrics plus the snapshot timeline they produce.

    ``counter``/``gauge``/``histogram`` are get-or-create (idempotent,
    so every component can resolve its instruments at bind time and pay
    only an attribute access per event). :meth:`snapshot` flattens the
    registry into one ``{name: value}`` row — histogram fields expand to
    ``name.count`` / ``name.p50`` / ... — stamps it with the simulated
    time, and appends it to :attr:`timeline`.
    """

    def __init__(self) -> None:
        self._metrics: dict[str, Counter | Gauge | Histogram] = {}
        # (name, metric, flattened keys or None) in name order; rebuilt
        # by flatten only after a new metric registers.
        self._ordered: Optional[list[tuple]] = None
        self.timeline: list[dict] = []

    def __len__(self) -> int:
        return len(self._metrics)

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def names(self) -> tuple[str, ...]:
        return tuple(sorted(self._metrics))

    def get(self, name: str) -> Optional[Counter | Gauge | Histogram]:
        return self._metrics.get(name)

    def _register(self, name: str, kind: type, **kwargs):
        metric = self._metrics.get(name)
        if metric is None:
            metric = self._metrics[name] = kind(name, **kwargs)
            self._ordered = None
        elif not isinstance(metric, kind):
            raise ConfigError(
                f"metric {name!r} already registered as "
                f"{type(metric).__name__}, not {kind.__name__}"
            )
        return metric

    def counter(self, name: str) -> Counter:
        return self._register(name, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._register(name, Gauge)

    def histogram(self, name: str,
                  quantiles: tuple[float, ...] = (0.5, 0.95, 0.99)
                  ) -> Histogram:
        return self._register(name, Histogram, quantiles=quantiles)

    # -- snapshots ------------------------------------------------------
    def _flatten_into(self, row: dict) -> dict:
        ordered = self._ordered
        if ordered is None:
            ordered = self._ordered = [
                (name, metric,
                 tuple(f"{name}.{field}" for field in metric.fields)
                 if isinstance(metric, Histogram) else None)
                for name, metric in sorted(self._metrics.items())
            ]
        for name, metric, keys in ordered:
            if keys is None:
                row[name] = metric.value
            else:
                row.update(zip(keys, metric.values()))
        return row

    def flatten(self) -> dict:
        """Current values as one flat, name-sorted dict."""
        return self._flatten_into({})

    def snapshot(self, t_s: float) -> dict:
        """Record (and return) the timeline row at simulated ``t_s``."""
        row = self._flatten_into({"t_s": t_s})
        self.timeline.append(row)
        return row
