"""Output and mechanism checks run on every workload run.

The ledger checks compare against the *generated* input count, not
``ServiceReport.n_offered``: that property is defined as completed +
shed + failed and so cannot disagree with itself.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import Counter

#: Simulated seconds two frames on one chip may overlap by (float noise).
OVERLAP_TOLERANCE_S = 1e-9


def _ledger(outcome):
    """``(completed, shed, failed, chip_key)`` for either report kind;
    ``chip_key(i)`` names the physical chip the i-th response ran on."""
    report = outcome.report
    if outcome.kind == "serve":
        responses = report.responses
        return (responses, report.shed, report.failed,
                lambda i: responses[i].chip_id)
    # Each federation epoch serves on a fresh fleet, so a chip is
    # (region, epoch, chip id). Epochs split arrivals at multiples of
    # the sync cadence, the last one taking the rest.
    completed = report.completed
    bounds = [(e + 1) * outcome.cadence_s for e in range(report.n_epochs - 1)]

    def chip_key(i):
        item = completed[i]
        epoch = bisect_right(bounds, item.response.request.arrival_s)
        return (item.region, epoch, item.response.chip_id)

    return ([item.response for item in completed], report.shed,
            report.failed, chip_key)


def ledger_failures(outcome) -> list[str]:
    """Conservation, unique ids, causality and chip mutual exclusion."""
    responses, shed, failed, chip_key = _ledger(outcome)
    failures = []
    accounted = len(responses) + len(shed) + len(failed)
    if accounted != outcome.n_generated:
        failures.append(
            f"conservation: generated {outcome.n_generated} != completed "
            f"{len(responses)} + shed {len(shed)} + failed {len(failed)}")
    ids = Counter(r.request.request_id for r in responses)
    ids.update(s.request.request_id for s in shed)
    ids.update(f.request.request_id for f in failed)
    duplicated = sum(1 for n in ids.values() if n > 1)
    if duplicated:
        failures.append(f"unique ids: {duplicated} request ids repeat")
    acausal = sum(1 for r in responses
                  if not r.request.arrival_s <= r.start_s <= r.finish_s)
    if acausal:
        failures.append(
            f"causality: {acausal} responses break arrival <= start <= finish")
    by_chip: dict = {}
    for i, r in enumerate(responses):
        by_chip.setdefault(chip_key(i), []).append((r.start_s, r.finish_s))
    overlaps = 0
    for intervals in by_chip.values():
        intervals.sort()
        for (_, prev_finish), (start, _) in zip(intervals, intervals[1:]):
            if start < prev_finish - OVERLAP_TOLERANCE_S:
                overlaps += 1
    if overlaps:
        failures.append(f"chip exclusion: {overlaps} overlapping frames")
    return failures


def sim_metrics(outcome) -> dict[str, float]:
    """The simulated end-to-end metrics (repeat exactly per seed)."""
    report = outcome.report
    completed = (report.responses if outcome.kind == "serve"
                 else report.completed)
    met = sum(1 for r in completed if r.slo_met)
    return {
        "sim_goodput_pct": 100.0 * met / outcome.n_generated,
        "sim_p99_ms": report.latency_p(99) * 1e3,
        "sim_chip_s": report.total_chip_seconds,
    }


def mechanism_counts(outcome) -> dict[str, float]:
    """The counters the mechanism checks read from the report."""
    report = outcome.report
    if outcome.kind == "federation":
        return {
            "failovers": report.n_failovers,
            # Records that took effect: each one warmed a region's cache.
            # ``records_received`` also counts stale records skipped.
            "gossip_applied": report.gossip_stats["warm_installs"],
        }
    cache = report.cache_stats
    counts = {
        "shed": report.n_shed,
        "cache_hit_rate": cache.get("hit_rate", 0.0),
        "evictions": cache.get("evictions", 0),
        "crashes": report.fault_stats.get("n_crashes", 0),
        "hedges": report.hedge_stats.get("n_hedged", 0),
        "preemptions": report.n_preemption_events,
        "fleet_events": len(report.fleet_events),
    }
    if outcome.observer is not None:
        counts["obs_events"] = outcome.observer.tracer.recorded
    return counts


#: Per workload: counter -> (comparison, threshold) that must hold, so a
#: workload cannot silently stop exercising the layer it is there for.
MECHANISMS: dict[str, dict[str, tuple[str, float]]] = {
    "serve_mixed": {"shed": ("==", 0), "cache_hit_rate": (">", 0.99)},
    "serve_observed": {"obs_events": (">", 0)},
    "serve_elastic_chaos": {
        name: (">=", 1) for name in ("crashes", "hedges", "shed",
                                     "preemptions", "fleet_events",
                                     "evictions")},
    "federate_regions": {"failovers": (">=", 1), "gossip_applied": (">=", 1)},
}

_COMPARE = {"==": lambda a, b: a == b, ">": lambda a, b: a > b,
            ">=": lambda a, b: a >= b}


def mechanism_failures(workload: str, counts: dict) -> list[str]:
    failures = []
    for name, (op, threshold) in MECHANISMS[workload].items():
        if not _COMPARE[op](counts[name], threshold):
            failures.append(f"mechanism: {name} = {counts[name]} "
                            f"(needs {op} {threshold})")
    return failures


def chrome_trace_failures(path: str) -> list[str]:
    """The exported trace must load and pass the program's schema gate
    (``load_chrome_trace`` runs ``validate_chrome_trace``)."""
    from repro.errors import ObsError
    from repro.obs import load_chrome_trace

    try:
        load_chrome_trace(path)
    except ObsError as exc:
        return [f"chrome trace: {exc}"]
    return []


if __name__ == "__main__":
    # ``python3 checks.py TRACE.json``: run.py checks each exported trace
    # in its own process. Loading ~60 MB of JSON in run.py itself would
    # grow it, and a child forked from a large parent reports the
    # parent's size as its peak RSS.
    import sys

    problems = chrome_trace_failures(sys.argv[1])
    print("\n".join(problems))
    sys.exit(1 if problems else 0)
