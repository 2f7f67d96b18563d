"""Benchmark harness plumbing.

Every benchmark regenerates one table or figure of the paper on the
*full* scene sets, saves the paper-style text under
``benchmarks/results/``, asserts its shape claims, and times a
representative kernel with pytest-benchmark.

The engine perf smokes additionally record their measured simulation
rates into ``benchmarks/results/BENCH_engine.json`` (scenario ->
measured req/s + asserted floor), which CI uploads as a build artifact.
Like everything under ``benchmarks/results/`` it is untracked: a test
run never rewrites a file under version control.
"""

from __future__ import annotations

import json
import pathlib

import pytest

RESULTS_DIR = pathlib.Path(__file__).parent / "results"
BENCH_JSON = RESULTS_DIR / "BENCH_engine.json"

#: Every scenario a test in ``benchmarks/test_engine_perf.py`` records.
#: The recorder drops any other key, so a deleted scenario's figure does
#: not linger in the file.
ENGINE_SCENARIOS = (
    "bare", "qos_columnar", "qos_preempt", "autoscale_reactive",
    "autoscale_predictive", "obs_disabled", "obs_full_tracing",
    "fault_injection", "federation",
)

try:
    import fcntl
except ImportError:  # non-POSIX: merge without inter-process locking
    fcntl = None


def merge_bench_file(path: pathlib.Path, entries: dict[str, dict],
                     live: tuple[str, ...] | None = None) -> dict:
    """Merge scenario measurements into the JSON recorder at ``path``.

    A partial run (``pytest benchmarks/test_engine_perf.py -k bare``, or
    one ``-n`` worker's slice) must refresh only the scenarios it
    measured — never clobber the rest. With ``live``, keys outside it
    (scenarios no test records any more) are dropped. The
    read-modify-write happens under an exclusive ``flock`` so concurrent
    workers serialize instead of losing each other's scenarios. Returns
    the merged mapping.
    """
    with open(path, "a+", encoding="utf-8") as handle:
        if fcntl is not None:
            fcntl.flock(handle, fcntl.LOCK_EX)
        handle.seek(0)
        raw = handle.read()
        merged = json.loads(raw).get("scenarios", {}) if raw.strip() else {}
        merged.update(entries)
        if live is not None:
            merged = {name: merged[name] for name in merged if name in live}
        handle.seek(0)
        handle.truncate()
        handle.write(json.dumps(
            {"scenarios": {name: merged[name] for name in sorted(merged)}},
            indent=2) + "\n")
    return merged


@pytest.fixture(scope="session")
def results_dir() -> pathlib.Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


@pytest.fixture(scope="session")
def save_text(results_dir):
    """Persist one experiment's formatted output."""

    def _save(name: str, text: str) -> None:
        (results_dir / f"{name}.txt").write_text(text + "\n")

    return _save


@pytest.fixture(scope="session")
def record_bench():
    """Accumulate engine-floor measurements; flush to
    ``benchmarks/results/BENCH_engine.json``.

    Scenarios merge into whatever the file already holds, so a partial
    run (``pytest benchmarks/test_engine_perf.py -k bare``) refreshes
    only the scenarios it measured.
    """
    entries: dict[str, dict] = {}

    def _record(scenario: str, measured_rps: float, floor_rps: float,
                n_requests: int) -> None:
        entries[scenario] = {
            "measured_rps": round(measured_rps, 1),
            "floor_rps": floor_rps,
            "n_requests": n_requests,
        }

    yield _record

    if entries:
        RESULTS_DIR.mkdir(exist_ok=True)
        merge_bench_file(BENCH_JSON, entries, live=ENGINE_SCENARIOS)
