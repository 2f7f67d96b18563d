"""Exporters: Chrome trace-event JSON schema and metrics timelines.

The end-to-end class replays a two-tenant preemption scenario with a
compile-worker pool under a full observer and checks the exported trace
the way Perfetto would read it: batch spans on per-chip tracks, compile
spans on per-worker tracks, preemption markers, and a schema-valid
event stream (the acceptance bar for ``--trace-out`` artifacts).

The byte-identity classes pin the direct text serializer to the
dict-building exporter it replaced (frozen below as
``_reference_chrome_trace``) and the CSV writer to a frozen copy
(``_reference_metrics_csv``): every artifact byte must match, on an
all-features observed run, on hand-built edge values, and on either
side of every boundary of the serializer's row chunks. The memory class
holds the export to about twice the text it writes (``tracemalloc``).
"""

import json
import math
import tracemalloc

import numpy as np
import pytest

from repro.core.config import CompileLatencyModel
from repro.errors import ObsError
from repro.obs import (
    FlightRecorder,
    MetricsRegistry,
    Observer,
    TraceEvent,
    Tracer,
    chrome_trace,
    chrome_trace_text,
    load_chrome_trace,
    metrics_csv,
    save_chrome_trace,
    save_metrics,
    summarize_chrome_trace,
    validate_chrome_trace,
)
from repro.obs.export import _CHUNK_ROWS, TRACK_PIDS
from repro.serve import (
    FaultPlan,
    HedgePolicy,
    PipelineBatcher,
    ServeCluster,
    TenantClass,
    TraceCache,
    generate_tenant_traffic,
    generate_traffic,
    make_admission_policy,
    make_elastic_autoscaler,
    simulate_service,
)
from tests.test_serve_golden import stub_program


def small_tracer():
    tracer = Tracer()
    tracer.instant(0.001, "arrival", "request", ("tier", 0),
                   {"request_id": 1})
    tracer.span(0.002, 0.004, "batch hashgrid", "batch", ("chip", 1),
                {"size": 2})
    tracer.span(0.001, 0.003, "compile mesh", "compile", ("worker", 0))
    return tracer


class TestChromeTrace:
    def test_event_shapes_and_units(self):
        obj = chrome_trace(small_tracer())
        events = {e["name"]: e for e in obj["traceEvents"]
                  if e["ph"] != "M"}
        arrival = events["arrival"]
        assert arrival["ph"] == "i" and arrival["s"] == "t"
        assert arrival["ts"] == pytest.approx(1000.0)  # seconds -> us
        batch = events["batch hashgrid"]
        assert batch["ph"] == "X"
        assert batch["dur"] == pytest.approx(2000.0)
        assert batch["pid"] == TRACK_PIDS["chip"] and batch["tid"] == 1
        compile_ = events["compile mesh"]
        assert compile_["pid"] == TRACK_PIDS["worker"]

    def test_metadata_names_every_seen_track(self):
        obj = chrome_trace(small_tracer())
        meta = [e for e in obj["traceEvents"] if e["ph"] == "M"]
        named = {(e["pid"], e.get("tid")) for e in meta
                 if e["name"] == "thread_name"}
        assert (TRACK_PIDS["chip"], 1) in named
        assert (TRACK_PIDS["worker"], 0) in named

    def test_counter_events_come_from_metrics_timeline(self):
        reg = MetricsRegistry()
        reg.counter("engine.arrivals").inc(3)
        reg.snapshot(0.002)
        obj = chrome_trace(small_tracer(), metrics=reg)
        counters = [e for e in obj["traceEvents"] if e["ph"] == "C"]
        assert counters
        names = {e["name"] for e in counters}
        assert "engine.arrivals" in names

    def test_validate_accepts_own_output(self):
        assert validate_chrome_trace(chrome_trace(small_tracer())) > 0

    def test_roundtrip_through_disk(self, tmp_path):
        path = tmp_path / "trace.json"
        save_chrome_trace(small_tracer(), path)
        obj = load_chrome_trace(path)
        assert obj["displayTimeUnit"] == "ms"
        assert obj["otherData"]["recorded"] == 3

    def test_summary_mentions_events_and_tracks(self):
        text = summarize_chrome_trace(chrome_trace(small_tracer()))
        assert "trace events" in text
        assert "batch hashgrid" in text
        assert "chip 1" in text


class TestValidation:
    def test_rejects_non_dict(self):
        with pytest.raises(ObsError):
            validate_chrome_trace([])

    def test_rejects_empty_event_list(self):
        with pytest.raises(ObsError):
            validate_chrome_trace({"traceEvents": []})

    def test_rejects_bad_phase(self):
        obj = chrome_trace(small_tracer())
        obj["traceEvents"][0]["ph"] = "Z"
        with pytest.raises(ObsError):
            validate_chrome_trace(obj)

    def test_rejects_span_without_duration(self):
        obj = chrome_trace(small_tracer())
        for event in obj["traceEvents"]:
            if event["ph"] == "X":
                del event["dur"]
        with pytest.raises(ObsError):
            validate_chrome_trace(obj)

    def test_rejects_negative_timestamp(self):
        obj = chrome_trace(small_tracer())
        obj["traceEvents"][-1]["ts"] = -1.0
        with pytest.raises(ObsError):
            validate_chrome_trace(obj)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_timestamp(self, bad):
        # Strict JSON readers reject NaN / Infinity literals, and a NaN
        # slips past ``ts < 0``.
        obj = chrome_trace(small_tracer())
        obj["traceEvents"][-1]["ts"] = bad
        with pytest.raises(ObsError):
            validate_chrome_trace(obj)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_non_finite_duration(self, bad):
        obj = chrome_trace(small_tracer())
        span = next(e for e in obj["traceEvents"] if e["ph"] == "X")
        span["dur"] = bad
        with pytest.raises(ObsError):
            validate_chrome_trace(obj)

    @pytest.mark.parametrize("field", ["ts", "pid", "tid"])
    def test_rejects_bool_where_a_number_belongs(self, field):
        obj = chrome_trace(small_tracer())
        obj["traceEvents"][-1][field] = True
        with pytest.raises(ObsError):
            validate_chrome_trace(obj)

    def test_rejects_bool_duration(self):
        obj = chrome_trace(small_tracer())
        span = next(e for e in obj["traceEvents"] if e["ph"] == "X")
        span["dur"] = False
        with pytest.raises(ObsError):
            validate_chrome_trace(obj)

    def test_accepts_integer_timestamps(self):
        obj = chrome_trace(small_tracer())
        for event in obj["traceEvents"]:
            event["ts"] = int(event["ts"])
        assert validate_chrome_trace(obj) == len(obj["traceEvents"])

    def test_load_missing_file_is_obs_error(self, tmp_path):
        with pytest.raises(ObsError):
            load_chrome_trace(tmp_path / "nope.json")

    def test_load_malformed_json_is_obs_error(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ObsError):
            load_chrome_trace(path)


class TestMetricsExport:
    def make_registry(self):
        reg = MetricsRegistry()
        c = reg.counter("n")
        reg.histogram("lat").observe(4.0)
        c.inc()
        reg.snapshot(0.01)
        c.inc(2)
        reg.snapshot(0.02)
        return reg

    def test_csv_has_t_s_first_and_one_row_per_snapshot(self):
        text = metrics_csv(self.make_registry())
        lines = text.strip().splitlines()
        assert lines[0].startswith("t_s,")
        assert len(lines) == 3

    def test_save_picks_format_by_suffix(self, tmp_path):
        reg = self.make_registry()
        csv_path = save_metrics(reg, tmp_path / "m.csv")
        json_path = save_metrics(reg, tmp_path / "m.json")
        assert csv_path.read_text().startswith("t_s,")
        rows = json.loads(json_path.read_text())
        assert [row["t_s"] for row in rows] == [0.01, 0.02]
        assert rows[1]["n"] == 3


class TestEndToEndScenario:
    """The acceptance scenario: tenants + preemption + compile pool."""

    @pytest.fixture(scope="class")
    def traced_run(self):
        premium = TenantClass("premium", slo_multiplier=1.0, weight=4.0,
                              tier=0)
        economy = TenantClass("economy", slo_multiplier=2.0, weight=1.0,
                              tier=1)
        trace = generate_tenant_traffic(
            [(premium, 0.25), (economy, 0.75)],
            pattern="bursty", n_requests=240, rate_rps=60000.0, seed=42,
            resolution=(64, 64), slo_s=0.001)
        observer = Observer(tracer=Tracer(), metrics=MetricsRegistry())
        report = simulate_service(
            trace,
            ServeCluster(3, policy="pipeline-affinity"),
            cache=TraceCache(capacity=64,
                             compile_fn=lambda key: stub_program(key[1])),
            batcher=PipelineBatcher(max_batch=4),
            admission=make_admission_policy("weighted"),
            compile_workers=2,
            preempt=True,
            observer=observer,
        )
        return report, observer, chrome_trace(observer.tracer,
                                              metrics=observer.metrics)

    def test_exported_trace_is_schema_valid(self, traced_run):
        _report, _observer, obj = traced_run
        assert validate_chrome_trace(obj) > 0

    def test_batch_spans_land_on_per_chip_tracks(self, traced_run):
        _report, _observer, obj = traced_run
        chips = {e["tid"] for e in obj["traceEvents"]
                 if e["ph"] == "X" and e["pid"] == TRACK_PIDS["chip"]
                 and e["name"].startswith("batch ")}
        assert chips == {0, 1, 2}

    def test_compile_spans_land_on_worker_tracks(self, traced_run):
        _report, _observer, obj = traced_run
        workers = [e for e in obj["traceEvents"]
                   if e["ph"] == "X" and e["pid"] == TRACK_PIDS["worker"]]
        assert workers
        assert all(e["name"].startswith("compile ") for e in workers)

    def test_preemptions_are_marked(self, traced_run):
        report, _observer, obj = traced_run
        assert report.n_preemption_events > 0
        marks = [e for e in obj["traceEvents"]
                 if e["ph"] == "i" and e["name"] == "preempt"]
        assert len(marks) == report.n_preemption_events

    def test_metrics_agree_with_the_report(self, traced_run):
        report, observer, _obj = traced_run
        flat = observer.metrics.flatten()
        assert flat["engine.responses"] == len(report.responses)
        assert flat["engine.preemptions"] == report.n_preemption_events
        assert flat["admission.weighted.shed"] == report.n_shed


# ----------------------------------------------------------------------
# Byte identity with the dict-building exporter
# ----------------------------------------------------------------------
def _reference_chrome_trace(tracer, metrics=None) -> dict:
    """The exporter before the direct serializer: one dict per event,
    serialized by one ``json.dumps`` over the whole object."""
    process_names = {1: "chips", 2: "compile workers", 3: "tenant tiers",
                     4: "fleet controller"}

    def pid_tid(track):
        group, index = track
        return TRACK_PIDS[group], int(index)

    events = tracer.events() if isinstance(tracer, Tracer) else list(tracer)
    trace_events = []
    seen_tracks = set()
    for event in sorted(events, key=lambda e: (e.ts_s, e.track, e.name)):
        pid, tid = pid_tid(event.track)
        seen_tracks.add(event.track)
        row = {"name": event.name, "cat": event.cat,
               "ts": event.ts_s * 1e6, "pid": pid, "tid": tid}
        if event.dur_s is not None:
            row["ph"] = "X"
            row["dur"] = event.dur_s * 1e6
        else:
            row["ph"] = "i"
            row["s"] = "t"
        if event.args:
            row["args"] = dict(event.args)
        trace_events.append(row)
    if metrics is not None:
        for snap in metrics.timeline:
            ts = snap["t_s"] * 1e6
            for name, value in snap.items():
                if name == "t_s" or not isinstance(value, (int, float)):
                    continue
                trace_events.append({
                    "name": name, "cat": "metrics", "ph": "C", "ts": ts,
                    "pid": TRACK_PIDS["fleet"], "tid": 0,
                    "args": {"value": value},
                })
                seen_tracks.add(("fleet", 0))
    metadata = []
    for pid in sorted({TRACK_PIDS[group] for group, _ in seen_tracks}):
        metadata.append({"name": "process_name", "ph": "M", "ts": 0.0,
                         "pid": pid, "tid": 0,
                         "args": {"name": process_names[pid]}})
    for group, index in sorted(seen_tracks):
        pid, tid = pid_tid((group, index))
        metadata.append({"name": "thread_name", "ph": "M", "ts": 0.0,
                         "pid": pid, "tid": tid,
                         "args": {"name": f"{group} {index}"}})
    out = {"traceEvents": metadata + trace_events, "displayTimeUnit": "ms"}
    if isinstance(tracer, Tracer):
        out["otherData"] = tracer.to_dict()
    return out


def _reference_metrics_csv(registry) -> str:
    """The CSV writer, frozen cell by cell: any faster rewrite of
    ``metrics_csv`` must keep these bytes."""
    rows = registry.timeline
    if not rows:
        return "t_s\n"
    columns = sorted({key for row in rows for key in row} - {"t_s"})
    lines = [",".join(["t_s"] + columns)]
    for row in rows:
        cells = [repr(row["t_s"])]
        for column in columns:
            value = row.get(column, "")
            cells.append(repr(value) if value != "" else "")
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def assert_same_bytes(tracer, metrics, tmp_path):
    """Text, parsed object and written files all match the reference."""
    want_trace = json.dumps(_reference_chrome_trace(tracer, metrics))
    assert chrome_trace_text(tracer, metrics=metrics) == want_trace
    path = save_chrome_trace(tracer, tmp_path / "trace.json",
                             metrics=metrics)
    assert path.read_bytes() == want_trace.encode("utf-8")
    if metrics is not None:
        want_csv = _reference_metrics_csv(metrics)
        assert metrics_csv(metrics) == want_csv
        path = save_metrics(metrics, tmp_path / "metrics.csv")
        assert path.read_bytes() == want_csv.encode("utf-8")


def all_features_observer() -> Observer:
    """Two tenants, weighted admission with preemption, two compile
    workers with prefetch, a crash and a straggler, hedging and an
    elastic autoscaler, under a full observer."""
    tenants = [(TenantClass("premium", weight=4.0, tier=0), 0.3),
               (TenantClass("economy", slo_multiplier=2.0, tier=1), 0.7)]
    trace = generate_tenant_traffic(
        tenants, pattern="bursty", n_requests=400, rate_rps=20000.0, seed=3,
        scenes=("lego", "room"), resolution=(64, 64), slo_s=0.002)
    h = max(r.arrival_s for r in trace)
    observer = Observer(tracer=Tracer(), metrics=MetricsRegistry(),
                        flight=FlightRecorder(), snapshot_every_s=0.001)
    simulate_service(
        trace,
        ServeCluster(2, policy="pipeline-affinity"),
        # Smaller than the six keys, so prefetches issue and hit.
        cache=TraceCache(capacity=3,
                         compile_fn=lambda key: stub_program(key[1])),
        batcher=PipelineBatcher(max_batch=4),
        autoscaler=make_elastic_autoscaler(min_chips=2, max_chips=5,
                                           warmup_s=0.0005),
        admission=make_admission_policy("weighted"),
        compile_workers=2,
        compile_latency=CompileLatencyModel(),
        prefetch=True,
        preempt=True,
        faults=FaultPlan.parse(f"crash=0@{0.2 * h:.5f}+{0.1 * h:.5f};"
                               f"slow=1@{0.3 * h:.5f}-{0.6 * h:.5f}x4"),
        hedge=HedgePolicy(quantile=0.5, multiplier=0.5, min_samples=4,
                          window=32),
        observer=observer,
    )
    return observer


class TestByteIdentityObservedRun:
    @pytest.fixture(scope="class")
    def observer(self):
        return all_features_observer()

    def test_run_covers_every_feature(self, observer):
        names = {e.name for e in observer.tracer}
        assert {"preempt", "shed", "hedge", "hedge settle", "crash",
                "recover", "scale_up", "prefetch issue",
                "prefetch hit"} <= names
        groups = {e.track[0] for e in observer.tracer}
        assert groups == {"chip", "worker", "tier", "fleet"}
        assert observer.flight.dumps
        assert len(observer.metrics.timeline) > 10

    def test_trace_and_metrics_match(self, observer, tmp_path):
        assert_same_bytes(observer.tracer, observer.metrics, tmp_path)

    def test_trace_without_metrics_matches(self, observer, tmp_path):
        assert_same_bytes(observer.tracer, None, tmp_path)

    def test_iterable_events_have_no_other_data(self, observer, tmp_path):
        events = observer.tracer.events()
        assert_same_bytes(events, observer.metrics, tmp_path)
        assert "otherData" not in chrome_trace(events)

    def test_parsed_object_equals_reference(self, observer):
        want = _reference_chrome_trace(observer.tracer, observer.metrics)
        assert chrome_trace(observer.tracer, metrics=observer.metrics) == want


def edge_tracer() -> Tracer:
    tracer = Tracer()
    tracer.instant(0.0, "arrival", "request", ("tier", 0))          # no args
    tracer.instant(np.float64(1e-7), "ünïcødé ✓", "catégorie", ("tier", 1),
                   {"flag": True, "off": False, "none": None,
                    "nan": math.nan, "inf": math.inf, "ninf": -math.inf,
                    "np": np.float64(1.0) / 3.0, "big": 10**30,
                    "text": "naïve \"quoted\"\n", "list": [1, 2.5, None]})
    tracer.span(0.25, 0.5, "batch hashgrid", "batch", ("chip", 2),
                {"size": 4, "tier": 0})
    tracer.span(np.float64(0.1), np.float64(0.35), "compile mesh",
                "compile", ("worker", 1), {})                        # empty args
    tracer.span(1e300, 2e300, "far", "batch", ("chip", 0))
    tracer.instant(1e-300, "tiny", "fleet", ("fleet", 0), {"delta": -1})
    tracer.instant(0.0, "arrival", "request", ("tier", 0), {"request_id": 7})
    return tracer


def edge_registry() -> MetricsRegistry:
    reg = MetricsRegistry()
    reg.counter("engine.arrivals").inc(3)
    reg.gauge("gauge.nan").set(math.nan)
    reg.gauge("gauge.inf").set(math.inf)
    reg.gauge("gauge.ninf").set(-math.inf)
    reg.gauge("gauge.bool").set(True)
    reg.gauge("gauge.none").set(None)
    reg.gauge("gauge.np").set(np.float64(2.0) / 3.0)
    reg.gauge("gauge.npint").set(np.int64(5))     # not an int: no counter
    reg.gauge("gauge.empty").set("")              # empty CSV cell
    reg.gauge("gauge.text").set("ok")
    reg.gauge("gauge.big").set(10**30)
    reg.gauge("latência.ms").set(1.5)
    reg.histogram("lat")                          # empty: zeros
    reg.snapshot(0.0)
    reg.histogram("lat").observe(2.0)
    reg.counter("engine.arrivals").inc()
    reg.snapshot(np.float64(0.001))
    reg.gauge("zz.late").set(-0.0)                # registered mid-timeline
    for x in (5.0, 1.0, 7.5, 3.25, 9.0, 4.0):
        reg.histogram("lat").observe(x)
    reg.snapshot(0.002)
    reg.gauge("gauge.empty").set(0.5)
    reg.snapshot(1e-9)
    return reg


class TestByteIdentityEdgeValues:
    def test_edge_tracer_and_registry(self, tmp_path):
        assert_same_bytes(edge_tracer(), edge_registry(), tmp_path)

    def test_iterable_input(self, tmp_path):
        assert_same_bytes(list(edge_tracer()), edge_registry(), tmp_path)

    def test_empty_timeline(self, tmp_path):
        reg = MetricsRegistry()
        reg.counter("never.snapshotted").inc()
        assert metrics_csv(reg) == "t_s\n"
        assert_same_bytes(edge_tracer(), reg, tmp_path)

    def test_no_events(self, tmp_path):
        assert_same_bytes(Tracer(), MetricsRegistry(), tmp_path)
        assert_same_bytes([], edge_registry(), tmp_path)

    def test_non_string_event_names(self, tmp_path):
        # Names are encoded once per distinct *string*; 1, True and 1.0
        # are equal dict keys but encode differently.
        events = [TraceEvent(0.1, None, 1, "c", ("chip", 0), None),
                  TraceEvent(0.2, None, True, "c", ("chip", 0), None),
                  TraceEvent(0.3, None, 1.0, "c", ("chip", 0), None),
                  TraceEvent(0.4, None, "1", 1, ("chip", 0), None)]
        assert_same_bytes(events, None, tmp_path)


# ----------------------------------------------------------------------
# Row chunks: byte identity on either side of every chunk boundary
# ----------------------------------------------------------------------
def event_tracer(n_rows: int) -> Tracer:
    """``n_rows`` event rows: spans with args, bare spans and instants
    on three tracks, so consecutive rows differ in shape."""
    tracer = Tracer(capacity=max(n_rows, 1))
    for i in range(n_rows):
        t = i * 1e-5
        if i % 3 == 0:
            tracer.span(t, t + 2e-5, "batch hashgrid", "batch",
                        ("chip", i % 2), {"size": i % 8, "tier": 0})
        elif i % 3 == 1:
            tracer.span(t, t + 1e-5, "compile mesh", "compile",
                        ("worker", 0))
        else:
            tracer.instant(t, "arrival", "request", ("tier", 1),
                           {"request_id": i})
    return tracer


def counter_registry(n_rows: int) -> MetricsRegistry:
    """A timeline that exports exactly ``n_rows`` counter rows, one
    per snapshot."""
    reg = MetricsRegistry()
    arrivals = reg.counter("engine.arrivals")
    for i in range(n_rows):
        arrivals.inc()
        reg.snapshot(i * 1e-4)
    return reg


_BOUNDARY_ROWS = [0, 1, _CHUNK_ROWS - 1, _CHUNK_ROWS, _CHUNK_ROWS + 1]


class TestChunkBoundaries:
    @pytest.mark.parametrize("n_rows", _BOUNDARY_ROWS)
    def test_event_rows_only(self, n_rows, tmp_path):
        tracer = event_tracer(n_rows)
        assert len(tracer) == n_rows
        assert_same_bytes(tracer, None, tmp_path)
        assert_same_bytes(tracer.events(), None, tmp_path)

    @pytest.mark.parametrize("n_rows", _BOUNDARY_ROWS)
    def test_counter_rows_only(self, n_rows, tmp_path):
        reg = counter_registry(n_rows)
        assert len(reg.timeline) == n_rows
        assert_same_bytes(Tracer(), reg, tmp_path)
        assert_same_bytes([], reg, tmp_path)

    @pytest.mark.parametrize("n_events", [_CHUNK_ROWS - 2, _CHUNK_ROWS - 1,
                                          _CHUNK_ROWS])
    def test_chunk_straddles_events_and_counters(self, n_events, tmp_path):
        # The chunk that fills up holds the last event rows and the
        # first counter rows (or, at _CHUNK_ROWS, ends exactly between
        # them).
        reg = counter_registry(5)
        assert_same_bytes(event_tracer(n_events), reg, tmp_path)

    def test_no_events_and_no_metrics(self, tmp_path):
        assert_same_bytes(Tracer(), None, tmp_path)
        assert_same_bytes([], None, tmp_path)
        assert chrome_trace_text([]) == (
            '{"traceEvents": [], "displayTimeUnit": "ms"}')

    @pytest.mark.parametrize("chunk_rows", [1, 2, 7])
    def test_small_chunks_on_the_all_features_run(self, chunk_rows,
                                                  monkeypatch, tmp_path):
        # Every row boundary of a real run becomes a chunk boundary.
        observer = all_features_observer()
        monkeypatch.setattr("repro.obs.export._CHUNK_ROWS", chunk_rows)
        assert_same_bytes(observer.tracer, observer.metrics, tmp_path)


# ----------------------------------------------------------------------
# Export peak memory
# ----------------------------------------------------------------------
def observed_run(n_requests: int) -> Observer:
    """A serve_observed-shaped run (mixed traffic, full tracer, metrics
    and flight recorder, four chips) at a small resolution."""
    trace = generate_traffic(
        "mixed", n_requests=n_requests, rate_rps=280.0, seed=0,
        scenes=("lego", "room"), pipelines=("hashgrid", "gaussian", "mesh"),
        resolution=(64, 36))
    observer = Observer(tracer=Tracer(capacity=65_536, sample=1.0),
                        metrics=MetricsRegistry(), flight=FlightRecorder())
    simulate_service(
        trace,
        ServeCluster(4, policy="pipeline-affinity"),
        cache=TraceCache(capacity=64),
        batcher=PipelineBatcher(max_batch=8),
        observer=observer,
    )
    return observer


class TestExportMemory:
    def test_export_peak_is_at_most_two_and_a_half_texts(self, tmp_path):
        # The rows live as joined chunks and the document is built by
        # one join, so the peak is the chunks plus the text (~2x); one
        # string per row, or a concatenation after the join, adds a
        # further copy. The sliced write adds a slice, not a copy.
        observer = observed_run(3_000)
        path = tmp_path / "trace.json"
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            save_chrome_trace(observer.tracer, path,
                              metrics=observer.metrics)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert len(observer.tracer) > 2 * _CHUNK_ROWS
        n_chars = path.stat().st_size     # the JSON text is ASCII
        assert peak <= 2.5 * n_chars, peak / n_chars
