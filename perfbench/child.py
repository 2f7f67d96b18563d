"""One workload run in a fresh process; started by ``run.py``.

Usage: ``python3 perfbench/child.py --workload NAME --seed N
--spawn-t0 T --traced 0|1 --workdir DIR [--spans FILE.json.gz]``

Setup (imports plus ``compile_program`` for every trace key) is timed
from ``--spawn-t0``, the parent's ``time.monotonic()`` just before the
spawn; ``wall_s`` times the workload's public calls, less the time
blocked in the persist layer's fsync'd write (see ``DiskClock``).
``cpu_s`` and ``peak_rss_mb`` are this process's own usage, taken when
the workload ends and before the output checks run. The result, with
the check failures, is written to ``DIR/result.json``.
"""

from __future__ import annotations

import argparse
import gzip
import hashlib
import json
import resource
import time
from pathlib import Path


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--spawn-t0", type=float, required=True)
    parser.add_argument("--traced", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--spans", type=Path, default=None)
    args = parser.parse_args()

    import repro.serve  # noqa: F401  (import cost belongs to set-up)
    from repro.compile import compile_program

    from checks import (ledger_failures, mechanism_counts,
                        mechanism_failures, sim_metrics)
    from layers import EngineTotals, layer_metrics
    from spans import DiskClock, SpanRecorder
    from workloads import WORKLOADS, Calls, trace_keys

    workload = WORKLOADS[args.workload]
    keys = trace_keys()
    probe_start = time.perf_counter()
    for key in keys:
        compile_program(*key)
    probe_end = time.perf_counter()
    setup_s = time.monotonic() - args.spawn_t0

    disk = DiskClock()
    recorder = engine_totals = None
    calls = Calls()
    if args.traced:
        recorder = SpanRecorder(f"{args.workload}-seed{args.seed}-"
                                f"{args.workdir.name}")
        recorder.add("compile.probe", probe_start, probe_end)
        engine_totals = EngineTotals()
        recorder.install(on_result={"engine": engine_totals.add})
        calls = Calls(recorder, recorder.wrap(
            "compile.run", lambda key: compile_program(*key)))

    start = time.perf_counter()
    outcome = workload.run(args.seed, calls, args.workdir)
    wall_s = time.perf_counter() - start - disk.seconds
    # CPU and peak RSS of set-up plus workload, before the checks below.
    usage = resource.getrusage(resource.RUSAGE_SELF)

    counts = mechanism_counts(outcome)
    failures = ledger_failures(outcome) + mechanism_failures(
        args.workload, counts)
    result = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        **sim_metrics(outcome),
        "digest": hashlib.sha256(outcome.report_json.encode()).hexdigest(),
        "counts": counts,
        "artifacts": outcome.artifacts,
        "failures": failures,
    }
    if recorder is not None:
        totals = recorder.totals()
        missing = [name for name in workload.expected_spans
                   if totals.get(name, {}).get("calls", 0) == 0]
        if missing:
            failures.append(f"traced integrity: no spans at {missing}")
        result["layers"] = layer_metrics(totals, engine_totals, outcome,
                                         len(keys), probe_end - probe_start)
        result["spans"] = totals
        if args.spans is not None:
            with gzip.open(args.spans, "wt", compresslevel=1) as handle:
                json.dump(recorder.dump(), handle)
    (args.workdir / "result.json").write_text(json.dumps(result))


if __name__ == "__main__":
    main()
