"""Metrics registry: counters, gauges, and the P² quantile estimator.

The P² tests are the documented accuracy contract: on >= 2000 samples
the streaming estimate must land within 5% of the sample's interdecile
range of ``numpy.percentile``'s exact answer, across the distribution
shapes the serve stack actually produces (uniform queue delays,
lognormal latency tails, bursty bimodal mixtures).
"""

import math

import numpy as np
import pytest

from repro.errors import ConfigError, ObsError
from repro.obs import (Counter, Gauge, Histogram, MetricsRegistry, Observer,
                       P2Quantile)


class TestInstruments:
    def test_counter(self):
        c = Counter("c")
        c.inc()
        c.inc(4)
        assert c.value == 5

    def test_gauge(self):
        g = Gauge("g")
        g.set(3.5)
        g.set(-1.0)
        assert g.value == -1.0

    def test_histogram_snapshot_fields(self):
        h = Histogram("lat")
        for x in (1.0, 2.0, 3.0, 4.0):
            h.observe(x)
        snap = h.snapshot()
        assert snap["count"] == 4
        assert snap["sum"] == pytest.approx(10.0)
        assert snap["mean"] == pytest.approx(2.5)
        assert snap["min"] == 1.0 and snap["max"] == 4.0
        assert set(snap) >= {"p50", "p95", "p99"}

    def test_empty_histogram_snapshot_is_zeros(self):
        snap = Histogram("lat").snapshot()
        assert snap["count"] == 0
        assert snap["p50"] == 0.0 and snap["mean"] == 0.0

    def test_untracked_quantile_raises(self):
        h = Histogram("lat", quantiles=(0.5,))
        h.observe(1.0)
        with pytest.raises(ObsError):
            h.quantile(0.99)


class TestP2Quantile:
    def test_validates_q(self):
        for bad in (0.0, 1.0, -0.5):
            with pytest.raises(ConfigError):
                P2Quantile(bad)

    def test_empty_is_nan(self):
        assert math.isnan(P2Quantile(0.5).value())

    def test_exact_below_six_samples(self):
        est = P2Quantile(0.5)
        for x in (5.0, 1.0, 3.0):
            est.add(x)
        assert est.value() == pytest.approx(3.0)

    @pytest.mark.parametrize("q", [0.5, 0.9, 0.95, 0.99])
    @pytest.mark.parametrize("dist", ["uniform", "lognormal", "normal",
                                      "bimodal"])
    def test_tracks_numpy_percentile_within_bound(self, q, dist):
        # The documented contract: at n >= 2000, within 5% of the
        # sample's interdecile range of the exact answer (10% out at
        # the p99 tail, where the markers sit in the sparsest data).
        # crc32, not hash(): hash() is salted per process and would
        # make the sample draw non-deterministic.
        import zlib

        rng = np.random.default_rng(zlib.crc32(f"{dist}-{q}".encode()))
        n = 5000
        if dist == "uniform":
            xs = rng.uniform(0.0, 100.0, n)
        elif dist == "lognormal":
            xs = rng.lognormal(mean=0.0, sigma=1.0, size=n)
        elif dist == "normal":
            xs = rng.normal(50.0, 10.0, n)
        else:  # bursty mixture: fast hits + slow compile-storm tail
            xs = np.where(rng.random(n) < 0.8,
                          rng.normal(5.0, 1.0, n),
                          rng.normal(50.0, 5.0, n))
        est = P2Quantile(q)
        for x in xs:
            est.add(float(x))
        exact = float(np.percentile(xs, q * 100))
        interdecile = float(np.percentile(xs, 90) - np.percentile(xs, 10))
        bound = (0.10 if q >= 0.99 else 0.05) * interdecile
        assert abs(est.value() - exact) <= bound, (
            f"P2 {dist} q={q}: est {est.value():.4f} vs exact {exact:.4f} "
            f"(bound {bound:.4f})"
        )

    def test_streaming_matches_itself_regardless_of_chunking(self):
        # Determinism: the estimator is a pure function of the sample
        # sequence — feeding the same stream twice gives the same state.
        rng = np.random.default_rng(7)
        xs = [float(x) for x in rng.exponential(2.0, 3000)]
        a, b = P2Quantile(0.95), P2Quantile(0.95)
        for x in xs:
            a.add(x)
        for x in xs:
            b.add(x)
        assert a.value() == b.value()


class TestRegistry:
    def test_get_or_create_is_idempotent(self):
        reg = MetricsRegistry()
        assert reg.counter("a") is reg.counter("a")
        assert reg.histogram("h") is reg.histogram("h")

    def test_kind_mismatch_raises(self):
        reg = MetricsRegistry()
        reg.counter("a")
        with pytest.raises(ConfigError):
            reg.gauge("a")

    def test_flatten_is_name_sorted_with_histogram_fields(self):
        reg = MetricsRegistry()
        reg.counter("z.count").inc(2)
        reg.gauge("a.gauge").set(1.5)
        reg.histogram("m.lat").observe(10.0)
        flat = reg.flatten()
        # Metric order is name-sorted; each histogram expands in place.
        roots = []
        for key in flat:
            root = key.rsplit(".", 1)[0] if key.startswith("m.lat") else key
            if not roots or roots[-1] != root:
                roots.append(root)
        assert roots == ["a.gauge", "m.lat", "z.count"]
        assert flat["z.count"] == 2 and flat["a.gauge"] == 1.5
        assert flat["m.lat.count"] == 1
        assert flat["m.lat.p50"] == pytest.approx(10.0)

    def test_snapshot_appends_stamped_timeline_rows(self):
        reg = MetricsRegistry()
        c = reg.counter("events")
        c.inc()
        reg.snapshot(0.5)
        c.inc(2)
        reg.snapshot(1.0)
        assert [row["t_s"] for row in reg.timeline] == [0.5, 1.0]
        assert [row["events"] for row in reg.timeline] == [1, 3]

    def test_snapshot_determinism(self):
        # Two registries fed the identical event sequence produce
        # byte-identical timelines.
        import json

        def feed(reg):
            lat = reg.histogram("lat")
            n = reg.counter("n")
            for i in range(500):
                lat.observe((i * 37 % 101) / 7.0)
                n.inc()
                if i % 100 == 0:
                    reg.snapshot(i / 1000.0)
            return reg

        a, b = feed(MetricsRegistry()), feed(MetricsRegistry())
        assert (json.dumps(a.timeline, sort_keys=True)
                == json.dumps(b.timeline, sort_keys=True))
        assert a.flatten() == b.flatten()


# ----------------------------------------------------------------------
# Bit identity with the loop-form P² update and flatten
# ----------------------------------------------------------------------
class _ReferenceP2:
    """``P2Quantile`` before the unrolled update: the textbook loops."""

    def __init__(self, q):
        self.q = q
        self._heights = []
        self._pos = [1.0, 2.0, 3.0, 4.0, 5.0]
        self._desired = [1.0, 1.0 + 2.0 * q, 1.0 + 4.0 * q, 3.0 + 2.0 * q, 5.0]
        self._inc = [0.0, q / 2.0, q, (1.0 + q) / 2.0, 1.0]
        self.n = 0

    def add(self, x):
        from bisect import insort

        self.n += 1
        h = self._heights
        if self.n <= 5:
            insort(h, x)
            return
        if x < h[0]:
            h[0] = x
            k = 0
        elif x >= h[4]:
            h[4] = x
            k = 3
        else:
            k = 0
            while x >= h[k + 1]:
                k += 1
        pos = self._pos
        for i in range(k + 1, 5):
            pos[i] += 1.0
        desired = self._desired
        inc = self._inc
        for i in range(5):
            desired[i] += inc[i]
        for i in (1, 2, 3):
            d = desired[i] - pos[i]
            right = pos[i + 1] - pos[i]
            left = pos[i - 1] - pos[i]
            if (d >= 1.0 and right > 1.0) or (d <= -1.0 and left < -1.0):
                step = 1.0 if d > 0 else -1.0
                candidate = self._parabolic(i, step)
                if h[i - 1] < candidate < h[i + 1]:
                    h[i] = candidate
                else:
                    h[i] = self._linear(i, step)
                pos[i] += step

    def _parabolic(self, i, d):
        h, pos = self._heights, self._pos
        return h[i] + d / (pos[i + 1] - pos[i - 1]) * (
            (pos[i] - pos[i - 1] + d) * (h[i + 1] - h[i])
            / (pos[i + 1] - pos[i])
            + (pos[i + 1] - pos[i] - d) * (h[i] - h[i - 1])
            / (pos[i] - pos[i - 1])
        )

    def _linear(self, i, d):
        h, pos = self._heights, self._pos
        j = i + int(d)
        return h[i] + d * (h[j] - h[i]) / (pos[j] - pos[i])


def _reference_flatten(registry) -> dict:
    """``MetricsRegistry.flatten`` before the cached instrument list:
    sort on every call and build each histogram's fields afresh."""
    row = {}
    for name in sorted(registry.names()):
        metric = registry.get(name)
        if isinstance(metric, Histogram):
            n = metric.count
            fields = {"count": n, "sum": metric.total,
                      "mean": metric.total / n if n else 0.0,
                      "min": metric.min if n else 0.0,
                      "max": metric.max if n else 0.0}
            for q in metric.quantiles:
                fields[f"p{q * 100:g}"] = metric.quantile(q) if n else 0.0
            for field, value in fields.items():
                row[f"{name}.{field}"] = value
        else:
            row[name] = metric.value
    return row


def _streams():
    """Observation streams that drive every branch of the update."""
    rng = np.random.default_rng(2024)
    n = 1500
    return {
        "uniform": [float(x) for x in rng.uniform(0.0, 100.0, n)],
        "lognormal": [float(x) for x in rng.lognormal(0.0, 1.5, n)],
        "bimodal": [float(x) for x in np.where(rng.random(n) < 0.8,
                                               rng.normal(5.0, 1.0, n),
                                               rng.normal(50.0, 5.0, n))],
        "integer_ties": [int(x) for x in rng.integers(0, 6, n)],
        "constant": [3.5] * 300,
        "increasing": [float(i) for i in range(600)],
        "decreasing": [float(600 - i) for i in range(600)],
        "non_finite": [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, math.inf, 2.5,
                       -math.inf, 7.0, math.nan, 1.5, 9.0, math.nan, 0.5],
        # insort files the NaN as the fourth marker: the cell search
        # must then compare x >= NaN exactly as the loop did.
        "nan_marker": [1.0, 2.0, 3.0, math.nan, 5.0, 4.0, 4.5, 2.5, 3.5,
                       6.0, 0.5, 4.25, 3.75],
    }


def _state(est):
    # repr tells 3 from 3.0 and 0.0 from -0.0, and equal float reprs are
    # equal bits.
    return repr((est.n, est._heights, est._pos, est._desired))


class TestP2BitIdentity:
    @pytest.mark.parametrize("q", [0.01, 0.1, 0.5, 0.9, 0.95, 0.99])
    @pytest.mark.parametrize("length", [1, 2, 3, 4, 5, 6])
    def test_short_streams(self, q, length):
        rng = np.random.default_rng(length)
        got, want = P2Quantile(q), _ReferenceP2(q)
        for x in rng.normal(size=length):
            got.add(float(x))
            want.add(float(x))
            assert _state(got) == _state(want)
        assert repr(got.value()) == repr(P2Quantile.value(want))

    @pytest.mark.parametrize("q", [0.05, 0.5, 0.95, 0.99])
    @pytest.mark.parametrize("stream", list(_streams()))
    def test_every_add_matches_the_loop_form(self, q, stream):
        got, want = P2Quantile(q), _ReferenceP2(q)
        for i, x in enumerate(_streams()[stream]):
            got.add(x)
            want.add(x)
            assert _state(got) == _state(want), (stream, i)

    def test_histogram_observe_matches_reference_estimators(self):
        h = Histogram("lat", quantiles=(0.5, 0.95, 0.99))
        refs = [_ReferenceP2(q) for q in h.quantiles]
        for x in _streams()["lognormal"]:
            h.observe(x)
            for ref in refs:
                ref.add(x)
        for est, ref in zip(h._estimators, refs):
            assert _state(est) == _state(ref)


class TestFlattenIdentity:
    def test_rows_match_reference_with_late_registration(self):
        from types import SimpleNamespace

        reg = MetricsRegistry()
        observer = Observer(metrics=reg)
        rng = np.random.default_rng(5)
        for step in range(60):
            t_s = step * 0.01
            latency = float(rng.lognormal(-5.0, 0.5))
            observer.on_response(
                SimpleNamespace(latency_s=latency, queue_s=latency / 3,
                                slo_met=latency < 0.01, finish_s=t_s),
                sampled=False)
            observer.on_batch(t_s, t_s + 0.001, 0, step, 1 + step % 4,
                              "hashgrid", 0)
            if step == 30:
                # on_scale registers the fleet.n_chips gauge lazily.
                assert "fleet.n_chips" not in reg
                observer.on_scale(t_s, "scale_up", 1, 5)
            if step == 45:
                reg.counter("aaa.first").inc()   # sorts ahead of the rest
            want = _reference_flatten(reg)
            assert repr(list(reg.flatten().items())) == repr(list(want.items()))
            row = reg.snapshot(t_s)
            assert repr(list(row.items())) == repr(
                [("t_s", t_s)] + list(want.items()))
        late = [i for i, row in enumerate(reg.timeline)
                if "fleet.n_chips" in row]
        assert late[0] == 30 and reg.timeline[30]["fleet.n_chips"] == 5
        assert list(reg.timeline[45])[:2] == ["t_s", "aaa.first"]

    def test_histogram_snapshot_field_order(self):
        h = Histogram("lat", quantiles=(0.25, 0.5, 0.999))
        assert list(h.snapshot()) == ["count", "sum", "mean", "min", "max",
                                      "p25", "p50", "p99.9"]
        for x in (4.0, 1.0):
            h.observe(x)
        assert list(h.snapshot().values()) == h.values()
