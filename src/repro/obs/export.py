"""Exporters: Chrome trace-event JSON and flat metrics timelines.

Two consumers, two formats:

* :func:`chrome_trace_text` turns a :class:`~repro.obs.tracer.Tracer`
  into Chrome trace-event JSON text (the format Perfetto and
  ``chrome://tracing`` load; :func:`chrome_trace` is the same trace
  parsed into an object): spans become ``"X"`` complete events,
  instants become ``"i"`` events, and metrics-timeline snapshots become
  ``"C"`` counter series. Tracks map onto processes/threads — one
  process per track *group* (chips, compile workers, tenant tiers, the
  fleet controller) and one named thread per track index, so a loaded
  trace shows one swimlane per chip, per compile worker, and per tenant
  tier.
* :func:`metrics_rows` / :func:`metrics_csv` flatten the registry's
  snapshot timeline into rows for the ``analysis/`` plotting path (JSON
  via ``metrics_rows``, CSV text via ``metrics_csv``).

:func:`validate_chrome_trace` is the schema check CI runs against every
``--trace-out`` artifact, and :func:`summarize_chrome_trace` renders the
``repro trace`` command's human summary of a dumped trace file.
"""

from __future__ import annotations

import json
import math
from operator import itemgetter
from pathlib import Path
from typing import Iterable, Sequence

from repro.errors import ObsError
from repro.persist import atomic_write_text
from repro.obs.tracer import TraceEvent, Tracer
from repro.text_table import format_table

#: Track group -> Chrome trace pid. One process per lane family keeps
#: Perfetto's process grouping meaningful (chips together, workers
#: together, tenant tiers together, controller on its own).
TRACK_PIDS = {"chip": 1, "worker": 2, "tier": 3, "fleet": 4}

#: Human names of the exported processes.
_PROCESS_NAMES = {1: "chips", 2: "compile workers", 3: "tenant tiers",
                  4: "fleet controller"}

#: Allowed event phases in an exported artifact (complete span,
#: instant, counter, metadata).
_VALID_PHASES = frozenset({"X", "i", "C", "M"})


def _track_pid_tid(track: tuple[str, int]) -> tuple[int, int]:
    group, index = track
    pid = TRACK_PIDS.get(group)
    if pid is None:
        raise ObsError(f"unknown track group {group!r}; "
                       f"expected one of {sorted(TRACK_PIDS)}")
    return pid, int(index)


def event_dicts(events: Iterable[TraceEvent]) -> list[dict]:
    """Raw JSON-ready form of events (the flight-dump payload)."""
    out = []
    for event in events:
        row = {
            "ts_s": event.ts_s,
            "name": event.name,
            "cat": event.cat,
            "track": list(event.track),
        }
        if event.dur_s is not None:
            row["dur_s"] = event.dur_s
        if event.args:
            row["args"] = dict(event.args)
        out.append(row)
    return out


_float_repr = float.__repr__
_int_repr = int.__repr__


def _json_number(value) -> str:
    """``json.dumps(value)`` for one scalar: ``float.__repr__`` /
    ``int.__repr__`` for finite floats and plain ints (what the encoder
    itself emits), the encoder for the rest (NaN, infinities, bools,
    ``None``, subclasses)."""
    kind = type(value)
    if kind is float and value - value == 0.0:
        return _float_repr(value)
    if kind is int:
        return _int_repr(value)
    return json.dumps(value)


def _json_string(cache: dict, text) -> str:
    """``json.dumps(text)``, remembered in ``cache`` when ``text`` is a
    plain string (the exporter encodes each distinct name once)."""
    out = json.dumps(text)
    if type(text) is str:
        cache[text] = out
    return out


#: Rows per chunk of :func:`chrome_trace_text`'s output: the rows of a
#: chunk are joined as soon as it fills, so a full ring buffer lives as
#: about a hundred chunk strings instead of one string per row.
_CHUNK_ROWS = 4096


def chrome_trace_text(tracer: Tracer | Iterable[TraceEvent],
                      metrics=None) -> str:
    """Export events (plus an optional metrics timeline) as Chrome
    trace-event JSON text.

    Timestamps convert from simulated seconds to the format's
    microseconds. Events are emitted in time order regardless of
    recording order (compile spans are recorded at submit time, ahead
    of instants that precede them on the clock).

    The text is written row by row, byte-identical to ``json.dumps`` of
    the equivalent object (default separators, ASCII escapes): names
    are encoded once per distinct string, numbers go through
    :func:`_json_number`, and event args through ``json.dumps``. No
    intermediate dict per event is built, which is what makes exporting
    a full ring buffer plus a long metrics timeline cheap.

    Every :data:`_CHUNK_ROWS` rows are joined into one chunk, and the
    document prefix and tail ride on the first and last piece of a
    single final join, so the finished text is never copied again: the
    peak is the chunks plus the text, about twice the text.
    """
    events = tracer.events() if isinstance(tracer, Tracer) else list(tracer)
    dumps = json.dumps
    number = _json_number
    strings: dict[str, str] = {}    # name / cat -> JSON string literal
    tracks: dict[tuple[str, int], str] = {}   # -> ', "pid": P, "tid": T'
    chunks: list[str] = []    # full chunks of _CHUNK_ROWS joined rows
    rows: list[str] = []      # the chunk being filled
    for ts_s, dur_s, name, cat, track, args in sorted(
            events, key=itemgetter(0, 4, 2)):
        ids = tracks.get(track)
        if ids is None:
            pid, tid = _track_pid_tid(track)
            ids = tracks[track] = f', "pid": {pid}, "tid": {tid}'
        if dur_s is not None:
            phase = f', "ph": "X", "dur": {number(dur_s * 1e6)}'
        else:
            phase = ', "ph": "i", "s": "t"'  # thread-scoped instant
        rows.append(
            f'{{"name": {strings.get(name) or _json_string(strings, name)}'
            f', "cat": {strings.get(cat) or _json_string(strings, cat)}'
            f', "ts": {number(ts_s * 1e6)}{ids}{phase}'
            + (f', "args": {dumps(dict(args))}}}' if args else "}"))
        if len(rows) == _CHUNK_ROWS:
            chunks.append(", ".join(rows))
            rows = []
    seen_tracks = set(tracks)

    if metrics is not None:
        heads: dict[str, str] = {}    # metric name -> row head
        n_events = len(chunks) * _CHUNK_ROWS + len(rows)
        for snap in metrics.timeline:
            stamp = (f', "ts": {number(snap["t_s"] * 1e6)}, '
                     f'"pid": {TRACK_PIDS["fleet"]}, "tid": 0, '
                     '"args": {"value": ')
            for name, value in snap.items():
                if name == "t_s" or not isinstance(value, (int, float)):
                    continue
                head = heads.get(name) or _json_string(heads, name)
                rows.append(f'{{"name": {head}, "cat": "metrics", '
                            f'"ph": "C"{stamp}{number(value)}}}}}')
                if len(rows) == _CHUNK_ROWS:
                    chunks.append(", ".join(rows))
                    rows = []
        if len(chunks) * _CHUNK_ROWS + len(rows) > n_events:
            seen_tracks.add(("fleet", 0))

    metadata: list[str] = []
    for pid in sorted({TRACK_PIDS[group] for group, _ in seen_tracks}):
        metadata.append(
            '{"name": "process_name", "ph": "M", "ts": 0.0, '
            f'"pid": {pid}, "tid": 0, "args": '
            '{"name": ' + dumps(_PROCESS_NAMES[pid]) + "}}")
    for group, index in sorted(seen_tracks):
        pid, tid = _track_pid_tid((group, index))
        metadata.append(
            '{"name": "thread_name", "ph": "M", "ts": 0.0, '
            f'"pid": {pid}, "tid": {tid}, "args": '
            '{"name": ' + dumps(f"{group} {index}") + "}}")

    tail = '], "displayTimeUnit": "ms"'
    if isinstance(tracer, Tracer):
        tail += ', "otherData": ' + dumps(tracer.to_dict())
    tail += "}"
    pieces = metadata + chunks
    if rows:
        pieces.append(", ".join(rows))
    if not pieces:
        return '{"traceEvents": [' + tail
    pieces[0] = '{"traceEvents": [' + pieces[0]
    pieces[-1] += tail
    return ", ".join(pieces)


def chrome_trace(tracer: Tracer | Iterable[TraceEvent],
                 metrics=None) -> dict:
    """:func:`chrome_trace_text` parsed back into the trace object."""
    return json.loads(chrome_trace_text(tracer, metrics=metrics))


def save_chrome_trace(tracer: Tracer | Iterable[TraceEvent],
                      path: str | Path, metrics=None) -> Path:
    """Write :func:`chrome_trace_text` output as a JSON file."""
    path = Path(path)
    atomic_write_text(path, chrome_trace_text(tracer, metrics=metrics))
    return path


def _is_integer(value) -> bool:
    """An int that is not a bool (``True`` is an ``int`` subclass)."""
    return isinstance(value, int) and not isinstance(value, bool)


def _is_finite_number(value) -> bool:
    """A non-bool int, or a float that strict JSON can carry (no NaN or
    infinity literals)."""
    return _is_integer(value) or (isinstance(value, float)
                                  and math.isfinite(value))


def validate_chrome_trace(obj: dict) -> int:
    """Schema-check one Chrome trace-event object; returns the event
    count. Raises :class:`~repro.errors.ObsError` on the first
    violation — this is the CI gate on every ``--trace-out`` artifact.
    ``ts`` / ``dur`` must be finite and non-negative (strict JSON
    readers reject NaN and infinities) and ``pid`` / ``tid`` integers;
    a bool is neither.
    """
    if not isinstance(obj, dict):
        raise ObsError("trace artifact must be a JSON object")
    events = obj.get("traceEvents")
    if not isinstance(events, list) or not events:
        raise ObsError("trace artifact needs a non-empty traceEvents list")
    for i, event in enumerate(events):
        if not isinstance(event, dict):
            raise ObsError(f"traceEvents[{i}] is not an object")
        where = f"traceEvents[{i}] ({event.get('name')!r})"
        phase = event.get("ph")
        if phase not in _VALID_PHASES:
            raise ObsError(f"{where}: bad phase {phase!r}")
        if not isinstance(event.get("name"), str) or not event["name"]:
            raise ObsError(f"{where}: missing event name")
        ts = event.get("ts")
        if not _is_finite_number(ts) or ts < 0:
            raise ObsError(f"{where}: bad timestamp {ts!r}")
        if not _is_integer(event.get("pid")):
            raise ObsError(f"{where}: missing integer pid")
        if not _is_integer(event.get("tid")):
            raise ObsError(f"{where}: missing integer tid")
        if phase == "X":
            dur = event.get("dur")
            if not _is_finite_number(dur) or dur < 0:
                raise ObsError(f"{where}: complete event needs finite dur >= 0")
        if phase == "C" and "args" not in event:
            raise ObsError(f"{where}: counter event needs args")
    return len(events)


# ----------------------------------------------------------------------
# Metrics timeline
# ----------------------------------------------------------------------
def metrics_rows(registry) -> list[dict]:
    """The registry's snapshot timeline as JSON-ready rows."""
    return [dict(row) for row in registry.timeline]


def metrics_csv(registry) -> str:
    """The snapshot timeline as CSV text (columns = union of keys,
    ``t_s`` first, the rest name-sorted; absent values left empty)."""
    rows = registry.timeline
    if not rows:
        return "t_s\n"
    columns = sorted({key for row in rows for key in row} - {"t_s"})
    header = ["t_s"] + columns
    lines = [",".join(header)]
    for row in rows:
        cells = [repr(row["t_s"])]
        for column in columns:
            value = row.get(column, "")
            cells.append(repr(value) if value != "" else "")
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def save_metrics(registry, path: str | Path) -> Path:
    """Write the metrics timeline; ``.csv`` suffix selects CSV,
    anything else JSON rows."""
    path = Path(path)
    if path.suffix.lower() == ".csv":
        atomic_write_text(path, metrics_csv(registry))
    else:
        atomic_write_text(path, json.dumps(metrics_rows(registry), indent=2))
    return path


# ----------------------------------------------------------------------
# Trace summary (`repro trace`)
# ----------------------------------------------------------------------
def summarize_chrome_trace(obj: dict) -> str:
    """Human summary of a dumped trace artifact (validates first)."""
    n_events = validate_chrome_trace(obj)
    events = obj["traceEvents"]
    spans = [e for e in events if e["ph"] == "X"]
    instants = [e for e in events if e["ph"] == "i"]
    counters = [e for e in events if e["ph"] == "C"]

    process_names = {}
    thread_names = {}
    for e in events:
        if e["ph"] != "M":
            continue
        if e["name"] == "process_name":
            process_names[e["pid"]] = e["args"]["name"]
        elif e["name"] == "thread_name":
            thread_names[(e["pid"], e["tid"])] = e["args"]["name"]

    stamped = [e for e in events if e["ph"] in ("X", "i", "C")]
    t0 = min(e["ts"] for e in stamped)
    t1 = max(e["ts"] + e.get("dur", 0.0) for e in stamped)

    lines = [
        f"{n_events} trace events over {(t1 - t0) / 1e3:.3f} ms "
        f"({len(spans)} spans, {len(instants)} instants, "
        f"{len(counters)} counter samples, "
        f"{len(process_names)} processes / {len(thread_names)} tracks)",
    ]
    other = obj.get("otherData")
    if other:
        lines.append(
            f"recorder: {other.get('recorded', '?')} recorded, "
            f"{other.get('dropped', '?')} dropped "
            f"(capacity {other.get('capacity', '?')}, "
            f"sample {other.get('sample', '?')})"
        )

    # Per-(name, kind) rollup with span-duration stats.
    rollup: dict[tuple[str, str], list[float]] = {}
    for e in spans:
        rollup.setdefault((e["name"], "span"), []).append(e["dur"])
    for e in instants:
        rollup.setdefault((e["name"], "instant"), []).append(0.0)
    rows = []
    for (name, kind), durations in sorted(
            rollup.items(), key=lambda kv: (-len(kv[1]), kv[0])):
        if kind == "span":
            mean_ms = sum(durations) / len(durations) / 1e3
            total_ms = sum(durations) / 1e3
            rows.append([name, kind, len(durations),
                         f"{mean_ms:.4f}", f"{total_ms:.3f}"])
        else:
            rows.append([name, kind, len(durations), "-", "-"])
    lines.append("")
    lines.append(format_table(
        ["event", "kind", "count", "mean ms", "total ms"], rows))

    # Per-track rollup.
    by_track: dict[tuple[int, int], int] = {}
    for e in stamped:
        key = (e["pid"], e["tid"])
        by_track[key] = by_track.get(key, 0) + 1
    rows = [
        [process_names.get(pid, str(pid)),
         thread_names.get((pid, tid), str(tid)), count]
        for (pid, tid), count in sorted(by_track.items())
    ]
    lines.append("")
    lines.append(format_table(["process", "track", "events"], rows))
    return "\n".join(lines)


def load_chrome_trace(path: str | Path) -> dict:
    """Read and validate a trace artifact from disk."""
    path = Path(path)
    try:
        obj = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as err:
        raise ObsError(f"cannot read trace artifact {path}: {err}") from err
    validate_chrome_trace(obj)
    return obj
